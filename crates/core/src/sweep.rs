//! Parallel scenario sweeps: one explicit model for the experiment
//! matrices behind Figures 6/7, the sensitivity sweep, the ablations and
//! the LSM threshold ladder.
//!
//! The paper's harness (and every figure/table binary) is a pile of
//! nested loops, each running one policy on one workload at a time. This
//! module turns those implicit loops into data:
//!
//! * [`ScenarioMatrix`] — enumerates independent [`SweepJob`]s (workload
//!   × machine × policy × quantum/seed/threshold knob), grouped so the
//!   results reassemble into the familiar [`ComparisonReport`]s;
//! * [`SweepRunner`] — executes any indexed job list across
//!   `std::thread::scope` workers (the build image has no rayon; scoped
//!   threads need no `'static` bounds and no dependencies), with an
//!   optional **longest-job-first** queue order
//!   ([`SweepRunner::run_weighted`]) fed by up-front trace-op counts
//!   (a closed form over each process's box, nothing compiled);
//! * a deterministic collection step that reassembles results **in
//!   enumeration order**, regardless of which worker finished first or
//!   how the queue was ordered.
//!
//! # Determinism contract
//!
//! Every job is a pure function of its [`SweepJob`] description: the
//! engine is single-threaded per job, policies are constructed fresh
//! inside the job, and nothing is shared between jobs but immutable
//! borrows. Results are written into a slot vector indexed by
//! enumeration position and reduced in that order, so for any thread
//! count — 1, 2 or 64 — [`ScenarioMatrix::run`] returns
//! **bit-identical** [`ComparisonReport`]s. The matrix is the only
//! thread fan-out: each job is one [`Experiment::run`] (or
//! [`Experiment::run_lsm`], whose candidate ladder is a plain in-order
//! loop) on the experiment's own memo.
//! The scenario generator (`tests/scenarios.rs`) holds a matrix at one
//! thread and at several to the reference oracle; the golden makespans
//! in `tests/cross_validation.rs` pin it across PRs.
//!
//! Errors are reported deterministically too: when several jobs fail,
//! the error of the *earliest enumerated* failing job is returned. A
//! *panicking* job is caught at the job boundary
//! ([`SweepRunner::run_weighted_caught`]) and reported as that job's
//! [`Error::JobPanicked`] under the same rule — sibling jobs complete
//! and the worker pool (its slot mutex included) survives, which is
//! what lets a long-lived service keep serving after one poisoned
//! request.
//!
//! ```
//! use lams_core::{PolicyKind, ScenarioMatrix, SweepRunner, Experiment};
//! use lams_mpsoc::MachineConfig;
//! use lams_workloads::{suite, Scale};
//!
//! let mut matrix = ScenarioMatrix::new();
//! for app in suite::all(Scale::Tiny) {
//!     let exp = Experiment::isolated(&app, MachineConfig::paper_default());
//!     matrix.push_all(&app.name, &exp, &[PolicyKind::Random, PolicyKind::Locality]);
//! }
//! let reports = matrix.run(&SweepRunner::new(2)).unwrap();
//! assert_eq!(reports.len(), 6); // one ComparisonReport per group
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use lams_mpsoc::MachineConfig;

use crate::report::RunOutcome;
use crate::{ComparisonReport, Error, Experiment, PolicyKind, Result, RunResult};

/// Renders a caught panic payload for [`Error::JobPanicked`] (and for
/// `lams-serve`'s job-panicked responses). Panics raised with
/// `panic!("...")` carry `&str` or `String`; anything else is opaque.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Executes indexed jobs across a fixed-size scoped thread pool.
///
/// The runner is a value, not a pool: it holds no threads, only the
/// worker count, so it is `Copy`. Threads are spawned per
/// [`SweepRunner::run`] call and joined before it returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepRunner {
    threads: usize,
}

impl SweepRunner {
    /// A runner with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        SweepRunner {
            threads: threads.max(1),
        }
    }

    /// The single-threaded runner: executes jobs inline, in order.
    pub fn sequential() -> Self {
        SweepRunner::new(1)
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0..n)` and returns the results **in index order**.
    ///
    /// With one thread (or at most one job) this executes inline with no
    /// spawning — the exact sequential path. Otherwise workers claim
    /// indices from a shared cursor and write each result into its own
    /// slot, so the output order never depends on scheduling. A panic in
    /// any job propagates out of the scope after all workers join.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_queue((0..n).collect(), f)
    }

    /// Runs `f(0..weights.len())` with the job queue ordered
    /// **longest-job-first**: indices are popped in descending weight
    /// (ties in index order, so the ordering is total and stable).
    /// Results still come back **in index order** — queue order affects
    /// only *when* each independent job runs, so for pure jobs the
    /// output is bit-identical to [`SweepRunner::run`]; LJF merely
    /// tightens the parallel makespan on skewed matrices (a long job
    /// started last would otherwise overhang the pool).
    ///
    /// Weights are whatever monotone cost proxy the caller has up
    /// front; [`ScenarioMatrix::run`] uses each workload's trace-op
    /// count ([`Workload::total_trace_ops`](lams_workloads::Workload::total_trace_ops)).
    pub fn run_weighted<T, F>(&self, weights: &[u64], f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_queue(Self::longest_first(weights), f)
    }

    /// [`SweepRunner::run_weighted`] with each job wrapped in
    /// [`std::panic::catch_unwind`]: a panicking job yields
    /// `Err(`[`Error::JobPanicked`]`)` in its slot instead of unwinding
    /// through the pool. Sibling jobs run to completion and the workers
    /// (and their slot mutex) survive — the panic-isolation
    /// contract a long-lived sweep service depends on. Results come back
    /// **in index order**, as for [`SweepRunner::run`].
    pub fn run_weighted_caught<T, F>(
        &self,
        weights: &[u64],
        f: F,
    ) -> Vec<std::result::Result<T, Error>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_queue(Self::longest_first(weights), Self::caught(f))
    }

    /// Job indices in descending weight. The sort is stable: equal
    /// weights keep enumeration order.
    fn longest_first(weights: &[u64]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(weights[i]));
        order
    }

    /// Wraps a job closure so panics surface as [`Error::JobPanicked`].
    /// `AssertUnwindSafe` is sound here: a panicking job's slot is only
    /// ever written with the `Err`, and the shared state jobs borrow
    /// (workload, memo) is either immutable or poison-recovered.
    fn caught<T, F>(f: F) -> impl Fn(usize) -> std::result::Result<T, Error> + Sync
    where
        F: Fn(usize) -> T + Sync,
    {
        move |i| {
            catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| Error::JobPanicked {
                job: i,
                message: panic_message(payload),
            })
        }
    }

    /// Shared driver: executes `f` over the queued indices, returning
    /// results **in index order**.
    ///
    /// Workers claim queue positions from one shared atomic cursor, so
    /// jobs *start* in exactly the queue order at any thread count —
    /// global longest-job-first under [`SweepRunner::run_weighted`] —
    /// and claiming work takes no lock. `Relaxed` suffices: the cursor
    /// hands out distinct positions and publishes no other data (the
    /// queue is immutable, results travel through the slot mutex).
    ///
    /// Lock poisoning is recovered, not propagated: a job that panics
    /// (under [`SweepRunner::run`], where the unwind crosses the scope)
    /// can poison the slot mutex from the perspective of its sibling
    /// workers, and `PoisonError::into_inner` takes the guard anyway.
    /// That is sound — every slot write is a whole-`Option` store, so
    /// no invariant can be half-updated by an unwinding writer.
    fn run_queue<T, F>(&self, order: Vec<usize>, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let n = order.len();
        let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
        let cursor = AtomicUsize::new(0);
        let work = || {
            while let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                let out = f(i);
                slots.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(out);
            }
        };
        if self.threads == 1 || n <= 1 {
            work();
        } else {
            std::thread::scope(|s| {
                for _ in 0..self.threads.min(n) {
                    s.spawn(work);
                }
            });
        }
        slots
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_iter()
            .map(|slot| slot.expect("every index was executed"))
            .collect()
    }
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::sequential()
    }
}

/// One independent unit of sweep work: run one policy on one experiment.
///
/// Jobs within a group share their [`Experiment`] via `Arc`, so
/// enumerating a large matrix does not deep-copy workloads.
#[derive(Debug, Clone)]
pub struct SweepJob {
    group: String,
    experiment: Arc<Experiment>,
    kind: PolicyKind,
}

impl SweepJob {
    /// The report group this job belongs to.
    pub fn group(&self) -> &str {
        &self.group
    }

    /// The experiment the job runs.
    pub fn experiment(&self) -> &Experiment {
        &self.experiment
    }

    /// The scheduling policy the job evaluates.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// Up-front cost estimate for queue ordering: the workload's total
    /// trace ops (Σ `num_iters × (accesses + 1)` over its processes, a
    /// closed form known before anything is compiled or simulated),
    /// scaled for LSM whose pilot run plus candidate-layout ladder
    /// re-simulates the workload several times. A heuristic, not a
    /// promise: only the *ordering* of the longest-job-first queue
    /// consumes it, never the results.
    pub fn weight(&self) -> u64 {
        let ops = self.experiment.workload().total_trace_ops();
        match self.kind {
            // Pilot + typically ~5–10 deduplicated ladder candidates.
            PolicyKind::LocalityMap => ops.saturating_mul(8),
            _ => ops,
        }
    }
}

/// An explicit enumeration of sweep jobs, grouped into comparison
/// reports.
///
/// Jobs run in enumeration (push) order under [`SweepRunner::new`]`(1)`
/// and reassemble in that order for any thread count. Groups are keyed
/// by label: jobs pushed under the same label land in the same
/// [`ComparisonReport`], and reports come back in first-appearance
/// order of their labels.
#[derive(Debug, Clone, Default)]
pub struct ScenarioMatrix {
    jobs: Vec<SweepJob>,
}

impl ScenarioMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        ScenarioMatrix::default()
    }

    /// Enumerates one job: `kind` on `experiment`, reported under
    /// `group`.
    pub fn push(&mut self, group: impl Into<String>, experiment: Experiment, kind: PolicyKind) {
        self.jobs.push(SweepJob {
            group: group.into(),
            experiment: Arc::new(experiment),
            kind,
        });
    }

    /// Enumerates one job per `kind`, all sharing `experiment` (one bar
    /// group of Figure 6, or one `|T|` cluster of Figure 7).
    pub fn push_all(
        &mut self,
        group: impl Into<String>,
        experiment: &Experiment,
        kinds: &[PolicyKind],
    ) {
        let group = group.into();
        let experiment = Arc::new(experiment.clone());
        for &kind in kinds {
            self.jobs.push(SweepJob {
                group: group.clone(),
                experiment: Arc::clone(&experiment),
                kind,
            });
        }
    }

    /// The enumerated jobs, in enumeration order.
    pub fn jobs(&self) -> &[SweepJob] {
        &self.jobs
    }

    /// Executes every job on `runner` and reassembles one
    /// [`ComparisonReport`] per group, in first-appearance order.
    ///
    /// Each job is [`Experiment::run`] of its policy — for LSM,
    /// [`Experiment::run_lsm`] and its remap count — on the job's
    /// experiment and that experiment's memo
    /// ([`Experiment::with_memo`]); jobs pushed with [`push_all`](Self::push_all)
    /// share one experiment, so they share its memo. Give every
    /// experiment one [`ArtifactCache`](crate::ArtifactCache) to share
    /// compiled traces and Locality pilots across the whole matrix
    /// (first-writer-wins; results are bit-identical for any cache
    /// state and thread count — checked against the oracle by
    /// `tests/scenarios.rs`).
    ///
    /// The queue is ordered **longest-job-first** by up-front trace
    /// length ([`SweepJob::weight`]), which tightens the pool's makespan
    /// on skewed matrices (fig7's `|T|` ladder); reports are
    /// bit-identical to FIFO order for any thread count (checked by
    /// `tests/scenarios.rs`).
    ///
    /// # Errors
    ///
    /// Returns the group label and the error of the earliest enumerated
    /// failing job.
    pub fn run(
        &self,
        runner: &SweepRunner,
    ) -> std::result::Result<Vec<ComparisonReport>, (&str, Error)> {
        let weights: Vec<u64> = self.jobs.iter().map(SweepJob::weight).collect();
        // Panic-isolated: a panicking job becomes that job's
        // `Error::JobPanicked` instead of unwinding through (and wedging)
        // the worker pool — sibling jobs still complete, and the
        // earliest-failing-job error rule below applies to panics too.
        let results = runner.run_weighted_caught(&weights, |i| -> Result<(RunResult, usize)> {
            let job = &self.jobs[i];
            match job.kind {
                PolicyKind::LocalityMap => {
                    let (result, art) = job.experiment.run_lsm()?;
                    Ok((result, art.assignment.len()))
                }
                kind => Ok((job.experiment.run(kind)?, 0)),
            }
        });

        let mut order: Vec<&str> = Vec::new();
        let mut grouped: Vec<(MachineConfig, Vec<RunOutcome>)> = Vec::new();
        for (job, result) in self.jobs.iter().zip(results) {
            let (result, remapped_arrays) = result
                .and_then(|r| r)
                .map_err(|e| (job.group.as_str(), e))?;
            let at = match order.iter().position(|&g| g == job.group) {
                Some(at) => at,
                None => {
                    order.push(&job.group);
                    grouped.push((job.experiment.machine(), Vec::new()));
                    order.len() - 1
                }
            };
            grouped[at].1.push(RunOutcome {
                kind: job.kind,
                result,
                remapped_arrays,
            });
        }
        Ok(order
            .into_iter()
            .zip(grouped)
            .map(|(group, (machine, outcomes))| {
                ComparisonReport::new(group.to_owned(), machine, outcomes)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lams_mpsoc::MachineConfig;
    use lams_workloads::{suite, Scale};

    #[test]
    fn runner_preserves_index_order() {
        for threads in [1, 2, 3, 8] {
            let out = SweepRunner::new(threads).run(17, |i| i * i);
            assert_eq!(
                out,
                (0..17).map(|i| i * i).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn runner_clamps_to_one_thread() {
        assert_eq!(SweepRunner::new(0).threads(), 1);
        assert_eq!(SweepRunner::default(), SweepRunner::sequential());
    }

    #[test]
    fn runner_handles_empty_and_single() {
        assert!(SweepRunner::new(4).run(0, |_| 0u8).is_empty());
        assert_eq!(SweepRunner::new(4).run(1, |i| i + 1), vec![1]);
    }

    #[test]
    fn matrix_groups_in_first_appearance_order() {
        let app = suite::shape(Scale::Tiny);
        let exp = Experiment::isolated(&app, MachineConfig::paper_default());
        let mut m = ScenarioMatrix::new();
        m.push("b", exp.clone(), PolicyKind::Random);
        m.push("a", exp.clone(), PolicyKind::Random);
        m.push("b", exp, PolicyKind::Locality);
        let groups: Vec<&str> = m.jobs().iter().map(SweepJob::group).collect();
        assert_eq!(groups, vec!["b", "a", "b"]);
        let reports = m.run(&SweepRunner::sequential()).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].workload(), "b");
        assert_eq!(reports[0].outcomes().len(), 2);
        assert_eq!(reports[1].workload(), "a");
        assert_eq!(reports[1].outcomes().len(), 1);
    }

    #[test]
    fn matrix_reports_match_run_all_across_threads() {
        let app = suite::track(Scale::Tiny);
        let exp = Experiment::isolated(&app, MachineConfig::paper_default().with_cores(4));
        let direct = exp.run_all(PolicyKind::ALL).unwrap();
        for threads in [1, 2, 8] {
            let mut m = ScenarioMatrix::new();
            m.push_all("Track", &exp, PolicyKind::ALL);
            let reports = m.run(&SweepRunner::new(threads)).unwrap();
            assert_eq!(reports.len(), 1);
            assert_eq!(
                format!("{:?}", reports[0]),
                format!("{direct:?}"),
                "report drifted at {threads} threads"
            );
        }
    }
}
