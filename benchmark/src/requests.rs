//! The two serve workloads as data: a fixed scenario set per workload,
//! asked once per round in a seed-shuffled order.

use lams_core::{ArrivalConfig, Experiment, PolicyKind};
use lams_mpsoc::{BusConfig, MachineConfig};
use lams_workloads::{suite, AppSpec, Scale};

use crate::jobs::suite_app;
use crate::rng::Rng;

/// The bus model of the `bus=` request variants.
const BUS: (u64, u64) = (20, 256);

/// Applications recorded into `.ltr` bundles during set-up, by suite
/// index and scale; `replay` requests name them by position.
pub const RECORDED: [(usize, Scale); 4] = [
    (0, Scale::Tiny),
    (2, Scale::Small),
    (3, Scale::Small),
    (4, Scale::Paper),
];

/// One distinct request of a serve workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// A `run` request.
    Run {
        /// Suite index of the application.
        app: usize,
        /// Problem scale.
        scale: Scale,
        /// Scheduling policy.
        policy: PolicyKind,
        /// `seed=` field (RS requests only).
        rs_seed: Option<u64>,
        /// Whether the request carries the `bus=windowed:…` field.
        bus: bool,
        /// `arrivals=` field.
        arrivals: Option<ArrivalConfig>,
    },
    /// A `replay` request of the `file`-th recorded bundle.
    Replay {
        /// Index into [`RECORDED`].
        file: usize,
        /// Scheduling policy (never LSM: a bundle has no arrays).
        policy: PolicyKind,
    },
}

impl Scenario {
    fn run(app: usize, scale: Scale, policy: PolicyKind, rng: &mut Rng) -> Self {
        Scenario::Run {
            app,
            scale,
            policy,
            rs_seed: (policy == PolicyKind::Random).then(|| rng.next_seed()),
            bus: false,
            arrivals: None,
        }
    }

    /// The application and scale the scenario simulates.
    pub fn app(&self) -> (AppSpec, Scale) {
        let (app, scale) = match *self {
            Scenario::Run { app, scale, .. } => (app, scale),
            Scenario::Replay { file, .. } => RECORDED[file],
        };
        (suite_app(app, scale), scale)
    }

    /// What the scenario simulates apart from its policy; `None` for a
    /// replay. Scenarios with equal inputs are compared by the gain
    /// metrics.
    pub fn inputs(&self) -> Option<(usize, Scale, bool, Option<ArrivalConfig>)> {
        match *self {
            Scenario::Run {
                app,
                scale,
                bus,
                arrivals,
                ..
            } => Some((app, scale, bus, arrivals)),
            Scenario::Replay { .. } => None,
        }
    }

    /// The policy asked for.
    pub fn policy(&self) -> PolicyKind {
        match *self {
            Scenario::Run { policy, .. } | Scenario::Replay { policy, .. } => policy,
        }
    }

    /// The request line (without terminator). `ltr_dir` is where set-up
    /// recorded the bundles.
    pub fn line(&self, id: &str, ltr_dir: &str) -> String {
        let policy = self.policy().abbrev().to_ascii_lowercase();
        match *self {
            Scenario::Run {
                app,
                scale,
                rs_seed,
                bus,
                arrivals,
                ..
            } => {
                let mut line = format!(
                    "run id={id} app={} scale={scale} policy={policy}",
                    suite::NAMES[app].to_ascii_lowercase()
                );
                if let Some(s) = rs_seed {
                    line.push_str(&format!(" seed={s}"));
                }
                if bus {
                    line.push_str(&format!(" bus=windowed:{}:{}", BUS.0, BUS.1));
                }
                if let Some(a) = arrivals {
                    line.push_str(&format!(
                        " arrivals={}:{}.{:03}:{}",
                        a.shape,
                        a.load_milli / 1000,
                        a.load_milli % 1000,
                        a.seed
                    ));
                }
                line
            }
            Scenario::Replay { file, .. } => {
                format!("replay id={id} file={ltr_dir}/{file}.ltr policy={policy}")
            }
        }
    }

    /// The same scenario as a library experiment: what the daemon's
    /// answer is checked against. A replayed bundle must reproduce the
    /// direct run of the application it was recorded from.
    pub fn experiment(&self) -> Experiment {
        let (app, _) = self.app();
        match *self {
            Scenario::Run {
                rs_seed,
                bus,
                arrivals,
                ..
            } => {
                let mut machine = MachineConfig::paper_default();
                if bus {
                    machine = machine.with_bus(BusConfig::windowed(BUS.0, BUS.1));
                }
                let mut exp = Experiment::isolated(&app, machine);
                if let Some(s) = rs_seed {
                    exp = exp.with_seed(s);
                }
                if let Some(a) = arrivals {
                    exp = exp.with_arrivals(a);
                }
                exp
            }
            Scenario::Replay { .. } => Experiment::isolated(&app, MachineConfig::paper_default()),
        }
    }
}

/// The 48 scenarios both serve workloads share: six applications under
/// RS/RRS/LS/LSM at Tiny and Small scale.
fn base_set(rng: &mut Rng) -> Vec<Scenario> {
    let mut set = Vec::new();
    for scale in [Scale::Tiny, Scale::Small] {
        for app in 0..6 {
            for &policy in PolicyKind::ALL {
                set.push(Scenario::run(app, scale, policy, rng));
            }
        }
    }
    set
}

/// `serve_closed`: the 48 base scenarios.
pub fn serve_closed(seed: u64) -> Vec<Scenario> {
    base_set(&mut Rng::new(seed, "serve_closed.rs"))
}

/// `serve_pipelined`: the base scenarios plus Paper-scale, bus and
/// open-system variants and one `replay` in every eight requests — 96
/// scenarios whose artifacts overflow a 48-entry memo.
pub fn serve_pipelined(seed: u64) -> Vec<Scenario> {
    let mut rng = Rng::new(seed, "serve_pipelined.rs");
    let mut streams = Rng::new(seed, "serve_pipelined.streams");
    let mut set = base_set(&mut rng);
    let pair = [PolicyKind::RoundRobin, PolicyKind::Locality];
    for app in 0..6 {
        for policy in [PolicyKind::Locality, PolicyKind::LocalityMap] {
            set.push(Scenario::run(app, Scale::Paper, policy, &mut rng));
        }
        // RRS and LS of one application share their arrival stream.
        let stream = ArrivalConfig::poisson(800, streams.next_seed());
        for policy in pair {
            set.push(Scenario::Run {
                app,
                scale: Scale::Small,
                policy,
                rs_seed: None,
                bus: true,
                arrivals: None,
            });
            set.push(Scenario::Run {
                app,
                scale: Scale::Small,
                policy,
                rs_seed: None,
                bus: false,
                arrivals: Some(stream),
            });
        }
    }
    for file in 0..RECORDED.len() {
        for policy in [
            PolicyKind::Random,
            PolicyKind::RoundRobin,
            PolicyKind::Locality,
        ] {
            set.push(Scenario::Replay { file, policy });
        }
    }
    set
}

/// The order round `round` asks the `n` scenarios in.
pub fn round_order(seed: u64, round: usize, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed, &format!("order.{round}")).shuffle(&mut order);
    order
}

/// The request lines of the first `rounds` rounds, one per line: the
/// canonical form the determinism tests compare byte for byte.
pub fn stream_text(set: &[Scenario], seed: u64, rounds: usize, ltr_dir: &str) -> String {
    let mut out = String::new();
    for round in 0..rounds {
        for i in round_order(seed, round, set.len()) {
            out.push_str(&set[i].line(&format!("{round}.{i}"), ltr_dir));
            out.push('\n');
        }
    }
    out
}
