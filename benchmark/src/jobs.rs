//! The four batch workloads as data: each is a seeded list of job
//! specs. The layers only ever see the experiments built from them.

use lams_core::{ArrivalConfig, ArrivalShape, Experiment, PolicyKind};
use lams_mpsoc::{BusConfig, MachineConfig};
use lams_workloads::{suite, synthetic_app, AppSpec, Scale, SyntheticConfig};

use crate::rng::Rng;

/// Which applications a job's workload is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Apps {
    /// One Table 1 application by suite index (a Figure 6 bar group).
    Isolated(usize),
    /// The first `t` applications run concurrently (a Figure 7 point).
    Mix(usize),
    /// The 192-process synthetic pipeline.
    Pipeline,
}

/// The synthetic pipeline of `open_arrivals`: 6 stages of 32 processes,
/// enough processes for the arrival percentiles to mean something.
const PIPELINE: SyntheticConfig = SyntheticConfig {
    seed: 0xA11CE,
    stages: 6,
    procs_per_stage: 32,
    dim: 64,
    max_halo: 2,
};

/// The `index`-th Table 1 application at `scale`.
pub fn suite_app(index: usize, scale: Scale) -> AppSpec {
    suite::by_name(suite::NAMES[index], scale).expect("a suite index names a suite app")
}

impl Apps {
    /// The application specs at `scale`.
    pub fn specs(self, scale: Scale) -> Vec<AppSpec> {
        match self {
            Apps::Isolated(i) => vec![suite_app(i, scale)],
            Apps::Mix(t) => suite::mix(t, scale),
            Apps::Pipeline => vec![synthetic_app(PIPELINE)],
        }
    }

    fn label(self) -> String {
        match self {
            Apps::Isolated(i) => suite::NAMES[i].to_string(),
            Apps::Mix(t) => format!("mix{t}"),
            Apps::Pipeline => "pipeline192".to_string(),
        }
    }
}

/// Jobs that share one built workload and machine (one bar group of a
/// figure). The workload is built once per group per repetition, as
/// `fig6`/`fig7` pay it.
#[derive(Debug, Clone, PartialEq)]
pub struct Group {
    /// Applications of the shared workload.
    pub apps: Apps,
    /// Problem scale.
    pub scale: Scale,
    /// Bus model; `None` is the bus-free machine.
    pub bus: Option<BusConfig>,
    /// The group's jobs, in enumeration order.
    pub jobs: Vec<Job>,
}

/// One scenario run: a policy plus the knobs that vary inside a group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// RS seed (ignored by the other policies).
    pub rs_seed: u64,
    /// Fixed Figure 5 threshold for LSM; `None` runs the default ladder.
    pub threshold: Option<f64>,
    /// Open-system arrival stream.
    pub arrivals: Option<ArrivalConfig>,
}

impl Job {
    /// `policy` with default knobs; only RS jobs draw a seed.
    fn of(policy: PolicyKind, rng: &mut Rng) -> Self {
        Job {
            policy,
            rs_seed: match policy {
                PolicyKind::Random => rng.next_seed(),
                _ => 0,
            },
            threshold: None,
            arrivals: None,
        }
    }
}

impl Group {
    /// The machine this group simulates.
    pub fn machine(&self) -> MachineConfig {
        match self.bus {
            Some(bus) => MachineConfig::paper_default().with_bus(bus),
            None => MachineConfig::paper_default(),
        }
    }

    /// `base` with one job's knobs applied.
    pub fn experiment(&self, base: &Experiment, job: &Job) -> Experiment {
        let mut exp = base.clone().with_seed(job.rs_seed);
        if let Some(t) = job.threshold {
            exp = exp.with_relayout_threshold(t);
        }
        if let Some(a) = job.arrivals {
            exp = exp.with_arrivals(a);
        }
        exp
    }
}

/// A batch workload: phases run one after another inside a repetition,
/// the groups of a phase fan out over the sweep runner together.
#[derive(Debug, Clone, PartialEq)]
pub struct JobList {
    /// The phases, in execution order.
    pub phases: Vec<Vec<Group>>,
}

impl JobList {
    /// Total jobs over all phases.
    pub fn len(&self) -> usize {
        self.groups().map(|g| g.jobs.len()).sum()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every group, phase by phase.
    pub fn groups(&self) -> impl Iterator<Item = &Group> {
        self.phases.iter().flatten()
    }

    /// One line per job, the canonical form the determinism tests
    /// compare byte for byte.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (pi, phase) in self.phases.iter().enumerate() {
            for g in phase {
                for j in &g.jobs {
                    let bus = g.bus.map_or("none".to_string(), |b| b.to_string());
                    let arrivals = j.arrivals.map_or("none".to_string(), |a| a.to_string());
                    let threshold = j.threshold.map_or("ladder".to_string(), |t| t.to_string());
                    out.push_str(&format!(
                        "phase={pi} apps={} scale={} bus={bus} policy={} rs_seed={} threshold={threshold} arrivals={arrivals}\n",
                        g.apps.label(),
                        g.scale,
                        j.policy,
                        j.rs_seed,
                    ));
                }
            }
        }
        out
    }
}

const RS_RRS_LS: [PolicyKind; 3] = [
    PolicyKind::Random,
    PolicyKind::RoundRobin,
    PolicyKind::Locality,
];

/// The fig6+fig7 grid: six isolated applications plus the mixes
/// `|T|` = 2..6, each under RS, RRS and LS — 33 jobs.
fn grid(scale: Scale, bus: Option<BusConfig>, rng: &mut Rng) -> Vec<Group> {
    let apps = (0..6).map(Apps::Isolated).chain((2..=6).map(Apps::Mix));
    apps.map(|apps| Group {
        apps,
        scale,
        bus,
        jobs: RS_RRS_LS.iter().map(|&p| Job::of(p, rng)).collect(),
    })
    .collect()
}

/// `grid_batch`: the grid at Huge scale on the bus-free machine.
pub fn grid_batch(seed: u64) -> JobList {
    let mut rng = Rng::new(seed, "grid_batch.rs");
    JobList {
        phases: vec![grid(Scale::Huge, None, &mut rng)],
    }
}

/// `lsm_ladder`: mixes `|T|` in {2,3,4,6} at Paper scale under the whole
/// RS → RRS → LS → LSM comparison plus LSM at four fixed relayout
/// thresholds — 32 jobs.
pub fn lsm_ladder(seed: u64) -> JobList {
    let mut rng = Rng::new(seed, "lsm_ladder.rs");
    let groups = [2, 3, 4, 6]
        .into_iter()
        .map(|t| {
            let mut jobs: Vec<Job> = PolicyKind::ALL
                .iter()
                .map(|&p| Job::of(p, &mut rng))
                .collect();
            jobs.extend([0.0, 0.5, 2.0, 8.0].map(|t| Job {
                threshold: Some(t),
                ..Job::of(PolicyKind::LocalityMap, &mut rng)
            }));
            Group {
                apps: Apps::Mix(t),
                scale: Scale::Paper,
                bus: None,
                jobs,
            }
        })
        .collect();
    JobList {
        phases: vec![groups],
    }
}

/// `bus_contended`: the grid under an FCFS bus at Small scale, then
/// under the windowed bus at Large scale — 66 jobs in two phases.
pub fn bus_contended(seed: u64) -> JobList {
    let mut rng = Rng::new(seed, "bus_contended.rs");
    JobList {
        phases: vec![
            grid(Scale::Small, Some(BusConfig::fcfs(20)), &mut rng),
            grid(Scale::Large, Some(BusConfig::windowed(20, 256)), &mut rng),
        ],
    }
}

/// `open_arrivals`: two mixes under RS/RRS/LS and the synthetic
/// pipeline under RRS/LS, each admitted by three stream shapes at two
/// offered loads — 48 jobs. The policies of one (workload, shape, load)
/// cell share their arrival seed, so RRS and LS are compared on the
/// same stream.
pub fn open_arrivals(seed: u64) -> JobList {
    let mut rs = Rng::new(seed, "open_arrivals.rs");
    let mut streams = Rng::new(seed, "open_arrivals.streams");
    let shapes = [
        ArrivalShape::Poisson,
        ArrivalShape::Burst,
        ArrivalShape::Diurnal,
    ];
    let workloads: [(Apps, &[PolicyKind]); 3] = [
        (Apps::Mix(3), &RS_RRS_LS),
        (Apps::Mix(6), &RS_RRS_LS),
        (Apps::Pipeline, &RS_RRS_LS[1..]),
    ];
    let groups = workloads
        .into_iter()
        .map(|(apps, policies)| {
            let mut jobs = Vec::new();
            for shape in shapes {
                for load_milli in [500, 900] {
                    let stream =
                        ArrivalConfig::poisson(load_milli, streams.next_seed()).with_shape(shape);
                    jobs.extend(policies.iter().map(|&p| Job {
                        arrivals: Some(stream),
                        ..Job::of(p, &mut rs)
                    }));
                }
            }
            Group {
                apps,
                scale: Scale::Large,
                bus: None,
                jobs,
            }
        })
        .collect();
    JobList {
        phases: vec![groups],
    }
}
