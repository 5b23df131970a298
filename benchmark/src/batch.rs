//! The four batch workloads: one repetition runs the whole job list
//! the way `fig6`/`fig7` run theirs — workloads built and one fresh
//! shared memo created inside the repetition, jobs fanned out
//! longest-first over a [`SweepRunner`].

use std::sync::Arc;
use std::time::Instant;

use lams_core::{
    ArrivalConfig, ArrivalPlan, ArtifactCache, Experiment, MemoStats, PolicyKind, RunResult,
    ScenarioMatrix, SweepRunner,
};
use lams_workloads::{suite, Scale, Workload};

use crate::check::Outcome;
use crate::jobs::{Group, JobList};
use crate::layers::{self, Counts};
use crate::rng::Rng;
use crate::spans::Recorder;
use crate::{Rep, Shape};

/// Processes in the arrival plan `open_arrivals` generates once per
/// repetition.
pub const PLAN_PROCESSES: usize = 1_000_000;

/// A batch workload ready to repeat.
pub struct Batch {
    list: JobList,
    /// The stream and service demands of the per-repetition arrival
    /// plan (`open_arrivals` only).
    plan: Option<(ArrivalConfig, Vec<u64>)>,
}

/// Everything one repetition produced.
pub struct BatchRep {
    /// The checked and timed part.
    pub rep: Rep,
    /// The repetition's memo counters.
    pub memo: MemoStats,
}

impl Batch {
    /// A batch workload over `list`.
    pub fn new(list: JobList) -> Self {
        Batch { list, plan: None }
    }

    /// Adds the million-process arrival plan to every repetition. The
    /// service demands are the Huge-scale Shape app's trace lengths,
    /// cycled; they are computed here, in set-up.
    pub fn with_arrival_plan(mut self, seed: u64) -> Self {
        let huge = Workload::single(suite::shape(Scale::Huge)).expect("valid suite app");
        let lens: Vec<u64> = huge.process_ids().map(|p| huge.trace_len(p)).collect();
        let service = (0..PLAN_PROCESSES).map(|i| lens[i % lens.len()]).collect();
        let stream = ArrivalConfig::poisson(900, Rng::new(seed, "open_arrivals.plan").next_seed());
        self.plan = Some((stream, service));
        self
    }

    /// The job list.
    pub fn list(&self) -> &JobList {
        &self.list
    }

    /// Static facts about the job set: size, nominal simulated ops and
    /// which jobs pair up for the gain metrics.
    pub fn shape(&self) -> Shape {
        let mut shape = Shape::default();
        // A job's inputs: its group (named by the group's first job) and
        // its arrival stream.
        let mut keys = Vec::new();
        for g in self.list.groups() {
            let ops = Workload::concurrent(g.apps.specs(g.scale))
                .expect("valid specs")
                .total_trace_ops();
            keys.extend(g.jobs.iter().map(|j| {
                let inputs = j.threshold.is_none().then_some((shape.jobs, j.arrivals));
                (j.policy, inputs)
            }));
            shape.jobs += g.jobs.len();
            shape.sim_ops += ops * g.jobs.len() as u64;
        }
        shape.pair_up(&keys);
        shape
    }

    /// One repetition on `threads` workers. `memoized: false` runs the
    /// same jobs against the pass-through cache.
    pub fn run(&self, threads: usize, memoized: bool) -> BatchRep {
        let start = Instant::now();
        let memo = if memoized {
            ArtifactCache::shared()
        } else {
            ArtifactCache::disabled()
        };
        let runner = SweepRunner::new(threads);
        let mut results = Vec::with_capacity(self.list.len());
        let mut latencies_ms = Vec::with_capacity(self.list.len());
        for phase in &self.list.phases {
            let mut matrix = ScenarioMatrix::new();
            for (gi, g) in phase.iter().enumerate() {
                let base = group_experiment(g).with_memo(Arc::clone(&memo));
                for job in &g.jobs {
                    matrix.push(gi.to_string(), g.experiment(&base, job), job.policy);
                }
            }
            let jobs = matrix.jobs();
            let weights: Vec<u64> = jobs.iter().map(|j| j.weight()).collect();
            // A job's latency runs from the submission of the job set:
            // what a caller waits for that result, queueing included.
            let done = runner.run_weighted(&weights, |i| {
                let result = jobs[i].experiment().run(jobs[i].kind());
                (result.ok(), start.elapsed().as_secs_f64() * 1e3)
            });
            for (result, ms) in done {
                results.push(result);
                latencies_ms.push(ms);
            }
        }
        let mut extra = 0;
        if let Some((stream, service)) = &self.plan {
            let cores = lams_mpsoc::MachineConfig::paper_default().num_cores;
            extra = ArrivalPlan::generate(*stream, service, cores).checksum();
        }
        let wall_s = start.elapsed().as_secs_f64();
        BatchRep {
            rep: Rep {
                wall_s,
                outcomes: results
                    .iter()
                    .map(|r| r.as_ref().map(Outcome::from))
                    .collect(),
                refused: 0,
                latencies_ms,
                extra,
            },
            memo: memo.stats(),
        }
    }
}

/// The experiment all jobs of `g` derive from: builds the workload.
fn group_experiment(g: &Group) -> Experiment {
    Experiment::concurrent(&g.apps.specs(g.scale), g.machine())
}

/// What the traced walk of one repetition produced.
#[derive(Default)]
pub struct TracedBatch {
    /// Full engine results, in job order (`None` for a failed job).
    pub results: Vec<Option<RunResult>>,
    /// Duration of each job's root span, ms.
    pub job_ms: Vec<f64>,
    /// Wall time of the walk, replays included.
    pub wall_s: f64,
    /// The arrival plan's checksum (0 without one).
    pub plan_checksum: u64,
    /// Memo misses that happened inside LSM jobs.
    pub lsm_memo_misses: u64,
    /// Seconds of cold LS runs that filled a pilot slot an LSM job of
    /// the same group then reused.
    pub pilot_s: f64,
    /// Per engine job (RS, RRS or LS): its index, nominal trace ops and
    /// seconds.
    pub engine: Vec<(usize, u64, f64)>,
}

impl TracedBatch {
    /// The checked part of the walk.
    pub fn rep(&self) -> Rep {
        Rep {
            wall_s: self.wall_s,
            outcomes: self
                .results
                .iter()
                .map(|r| r.as_ref().map(Outcome::from))
                .collect(),
            refused: 0,
            latencies_ms: self.job_ms.clone(),
            extra: self.plan_checksum,
        }
    }
}

impl Batch {
    /// Walks every job through the layer entry points, single-threaded,
    /// recording spans into `rec`. The real spans take the same public
    /// path as [`Batch::run`] (`Experiment::concurrent`, then
    /// `Experiment::run` against the repetition's memo), so the walk
    /// reproduces the untraced results; the layers below are replayed.
    pub fn walk(&self, rec: &mut Recorder, counts: &mut Counts) -> TracedBatch {
        let start = Instant::now();
        let memo = ArtifactCache::shared();
        let mut out = TracedBatch::default();
        for g in self.list.groups() {
            walk_group(g, &memo, rec, counts, &mut out);
        }
        if let Some((stream, service)) = &self.plan {
            let cores = lams_mpsoc::MachineConfig::paper_default().num_cores;
            let job = out.results.len();
            out.plan_checksum = rec
                .span("core.arrivals.plan", job, None, |_, _| {
                    ArrivalPlan::generate(*stream, service, cores).checksum()
                })
                .1;
        }
        out.wall_s = start.elapsed().as_secs_f64();
        out
    }
}

/// Walks the jobs of one group: the real path first, with nothing else
/// inside the timed spans, then the replays of the layers below it.
fn walk_group(
    g: &Group,
    memo: &Arc<ArtifactCache>,
    rec: &mut Recorder,
    counts: &mut Counts,
    out: &mut TracedBatch,
) {
    let has_lsm = g.jobs.iter().any(|j| j.policy == PolicyKind::LocalityMap);
    let apps = g.apps.specs(g.scale);
    let mut base: Option<Experiment> = None;
    let mut programs = None;
    let mut sharing_paid = false;
    for job in &g.jobs {
        let id = out.results.len();
        let lsm = job.policy == PolicyKind::LocalityMap;
        let misses_before = memo.stats().misses();
        let mut build_span = None;
        let (root, (exp, run_span, result, artifacts)) = rec.span("job", id, None, |rec, root| {
            if base.is_none() {
                // Built once per group, as the untraced pass does.
                let (span, built) = rec.span("workloads.build", id, Some(root), |_, _| {
                    group_experiment(g).with_memo(Arc::clone(memo))
                });
                build_span = Some(span);
                base = Some(built);
            }
            let exp = g.experiment(base.as_ref().expect("built above"), job);
            let name = if lsm { "core.lsm" } else { "core.engine" };
            let (run_span, (result, artifacts)) = rec.span(name, id, Some(root), |_, _| {
                if lsm {
                    exp.run_lsm()
                        .map_or((None, None), |(r, a)| (Some(r), Some(a)))
                } else {
                    (exp.run(job.policy).ok(), None)
                }
            });
            (exp, run_span, result, artifacts)
        });
        out.job_ms.push(rec.duration_ns(root) as f64 / 1e6);
        out.results.push(result);
        let run_s = rec.duration_ns(run_span) as f64 / 1e9;

        let workload = exp.workload();
        if let Some(span) = build_span {
            layers::replay_build(rec, id, span, &apps, counts);
        }
        // The first run of a group compiled its programs.
        let programs = programs
            .get_or_insert_with(|| layers::replay_compile(rec, id, run_span, workload, counts));
        if !sharing_paid && matches!(job.policy, PolicyKind::Locality | PolicyKind::LocalityMap) {
            layers::replay_sharing(rec, id, run_span, workload);
            sharing_paid = true;
        }
        match &artifacts {
            Some(art) => {
                out.lsm_memo_misses += memo.stats().misses() - misses_before;
                counts.remapped_arrays += art.assignment.len() as u64;
                layers::replay_lsm_layout(rec, id, run_span, &exp, art, job.threshold);
            }
            None => {
                layers::replay_machine(rec, id, run_span, g.machine(), programs, counts);
                out.engine.push((id, workload.total_trace_ops(), run_s));
                if has_lsm && job.policy == PolicyKind::Locality {
                    out.pilot_s += run_s;
                }
            }
        }
    }
}
