//! Tests for the sweep subsystem: a matrix's lookups land in its
//! experiments' memo, the single-threaded queue runs longest first,
//! job enumeration order is stable, runner output order never depends
//! on the thread count, and a panicking job is isolated to its slot.
//! That [`ScenarioMatrix::run`] at one thread and several answers what
//! the oracle answers is the scenario generator's check
//! (`tests/scenarios.rs`).

use proptest::prelude::*;

use lams_core::{Experiment, PolicyKind, ScenarioMatrix, SweepRunner};
use lams_mpsoc::MachineConfig;
use lams_workloads::{suite, Scale};

fn machine4() -> MachineConfig {
    MachineConfig::paper_default().with_cores(4)
}

/// A concurrent two-app mix: small enough for an 8-thread test, rich
/// enough that LSM finds adjacencies, conflicts and remap candidates.
fn mix_experiment() -> Experiment {
    let apps = vec![suite::shape(Scale::Tiny), suite::track(Scale::Tiny)];
    Experiment::concurrent(&apps, machine4()).with_seed(12345)
}

/// A matrix run looks its artifacts up in the memo its experiments
/// carry: there is no other memo for the lookups to land in.
#[test]
fn matrix_lookups_land_in_the_experiments_memo() {
    let exp = mix_experiment();
    let mut matrix = ScenarioMatrix::new();
    matrix.push_all("mix2", &exp, PolicyKind::ALL);
    let before = exp.memo().stats();
    assert_eq!(before.hits() + before.misses(), 0, "{before}");
    matrix.run(&SweepRunner::new(2)).expect("sweep runs");
    // The LSM ladder reuses its pilot's per-process programs, so the
    // run hits whatever order the workers take the jobs in.
    let after = exp.memo().stats();
    assert!(after.misses() > 0 && after.hits() > 0, "{after}");
}

/// With one worker the queue order is observable: jobs must execute in
/// descending weight, ties in enumeration order.
#[test]
fn single_thread_executes_longest_first() {
    use std::sync::Mutex;
    let weights = [5u64, 9, 9, 1, 7, 9, 0];
    let order = Mutex::new(Vec::new());
    let out = SweepRunner::sequential().run_weighted(&weights, |i| {
        order.lock().unwrap().push(i);
        i
    });
    // Results in index order regardless of execution order.
    assert_eq!(out, (0..weights.len()).collect::<Vec<_>>());
    assert_eq!(order.into_inner().unwrap(), vec![1, 2, 5, 4, 0, 3, 6]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn runner_output_order_never_depends_on_threads(n in 0usize..48, threads in 1usize..9) {
        let out = SweepRunner::new(threads).run(n, |i| i * 3 + 1);
        prop_assert_eq!(out, (0..n).map(|i| i * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_runner_output_order_never_depends_on_threads_or_weights(
        weights in prop::collection::vec(0u64..1000, 0usize..48),
        threads in 1usize..9,
    ) {
        let out = SweepRunner::new(threads).run_weighted(&weights, |i| i * 7 + 2);
        prop_assert_eq!(out, (0..weights.len()).map(|i| i * 7 + 2).collect::<Vec<_>>());
    }

    #[test]
    fn job_enumeration_order_is_stable(group_ids in prop::collection::vec(0u8..5, 0usize..24)) {
        // Build the same matrix twice from one spec: the enumerated job
        // list must be identical, preserve push order exactly, and the
        // reports must come back in first-appearance order of groups.
        let app = suite::shape(Scale::Tiny);
        let exp = Experiment::isolated(&app, machine4());
        let build = || {
            let mut m = ScenarioMatrix::new();
            for &g in &group_ids {
                let kind = if g % 2 == 0 { PolicyKind::Random } else { PolicyKind::Locality };
                m.push(format!("g{g}"), exp.clone(), kind);
            }
            m
        };
        let (a, b) = (build(), build());
        prop_assert_eq!(a.jobs().len(), group_ids.len());
        let describe = |m: &ScenarioMatrix| -> Vec<(String, PolicyKind)> {
            m.jobs().iter().map(|j| (j.group().to_owned(), j.kind())).collect()
        };
        prop_assert_eq!(describe(&a), describe(&b));
        for (job, &g) in a.jobs().iter().zip(&group_ids) {
            prop_assert_eq!(job.group(), format!("g{g}"));
        }
        let mut first_appearance: Vec<String> = Vec::new();
        for &g in &group_ids {
            let label = format!("g{g}");
            if !first_appearance.contains(&label) {
                first_appearance.push(label);
            }
        }
        let reports = a.run(&SweepRunner::sequential()).expect("sweep runs");
        let groups: Vec<&str> = reports.iter().map(|r| r.workload()).collect();
        prop_assert_eq!(groups, first_appearance);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Workers claiming jobs from the shared cursor must reassemble
    /// results bit-identically to the sequential run for any weight
    /// vector at 1, 2, 4 and 8 threads.
    #[test]
    fn parallel_weighted_runs_match_the_sequential_reference(
        weights in prop::collection::vec(0u64..1000, 0usize..64),
    ) {
        let job = |i: usize| (i as u64) * 31 + weights[i];
        let reference = SweepRunner::sequential().run_weighted(&weights, job);
        for threads in [1usize, 2, 4, 8] {
            let got = SweepRunner::new(threads).run_weighted(&weights, job);
            prop_assert_eq!(&got, &reference, "drift at {} threads", threads);
        }
    }

    /// Panic isolation on the parallel path: whatever subset of jobs
    /// panics, each failure lands in its own slot as `JobPanicked` and
    /// every sibling's result survives, at every thread count.
    #[test]
    fn panics_are_isolated_for_any_panic_subset(
        jobs in prop::collection::vec((0u64..1000, 0u8..4), 1usize..24),
    ) {
        use lams_core::Error;
        let weights: Vec<u64> = jobs.iter().map(|j| j.0).collect();
        let panics: Vec<bool> = jobs.iter().map(|j| j.1 == 0).collect();
        for threads in [1usize, 2, 4, 8] {
            let results = SweepRunner::new(threads).run_weighted_caught(&weights, |i| {
                if panics[i] {
                    panic!("job {i} down");
                }
                i as u64 + 100
            });
            prop_assert_eq!(results.len(), weights.len());
            for (i, r) in results.iter().enumerate() {
                if panics[i] {
                    prop_assert!(
                        matches!(r, Err(Error::JobPanicked { job, .. }) if *job == i),
                        "slot {} at {} threads: {:?}", i, threads, r
                    );
                } else {
                    prop_assert_eq!(*r.as_ref().unwrap(), i as u64 + 100);
                }
            }
        }
    }
}

/// Edge cases: empty and single-job sweeps — which run inline whatever
/// the worker count — on both the plain and the caught paths, at every
/// thread count.
#[test]
fn empty_and_single_job_sweeps_at_every_thread_count() {
    for threads in [1usize, 2, 4, 8] {
        let runner = SweepRunner::new(threads);
        assert_eq!(runner.run(0, |_| 0u64), Vec::<u64>::new());
        assert_eq!(runner.run(1, |i| i + 41), vec![41]);
        let empty: Vec<u64> = vec![];
        assert!(runner.run_weighted_caught(&empty, |_| 0u64).is_empty());
        let one = runner.run_weighted_caught(&[7u64], |i| i as u64 + 1);
        assert_eq!(one.len(), 1);
        assert_eq!(*one[0].as_ref().expect("single job survives"), 1);
        // A single panicking job still reports cleanly and leaves the
        // runner reusable.
        let boom = runner.run_weighted_caught(&[1], |_| -> u64 { panic!("solo") });
        assert!(matches!(
            &boom[0],
            Err(lams_core::Error::JobPanicked { job: 0, .. })
        ));
        assert_eq!(runner.run(2, |i| i), vec![0, 1]);
    }
}

/// Satellite: panic isolation. A job that panics mid-sweep must (1)
/// surface as `Error::JobPanicked` for exactly that job, (2) leave
/// every sibling's result intact and in slot order, and (3) leave the
/// runner reusable — identically at 1 and 4 threads.
#[test]
fn panicking_jobs_are_isolated_at_one_and_four_threads() {
    use lams_core::Error;
    for threads in [1usize, 4] {
        let runner = SweepRunner::new(threads);
        let results = runner.run_weighted_caught(&[1; 9], |i| {
            if i == 4 {
                panic!("injected panic in job {i}");
            }
            (i as u64) * 10
        });
        assert_eq!(results.len(), 9, "{threads} threads");
        for (i, r) in results.iter().enumerate() {
            if i == 4 {
                match r {
                    Err(Error::JobPanicked { job, message }) => {
                        assert_eq!(*job, 4, "{threads} threads");
                        assert!(message.contains("injected panic"), "{message}");
                    }
                    other => panic!("job 4 should have panicked, got {other:?}"),
                }
            } else {
                assert_eq!(
                    *r.as_ref().expect("sibling job survives"),
                    (i as u64) * 10,
                    "{threads} threads"
                );
            }
        }
        // Nothing outlives the run: the same runner immediately runs a
        // clean batch.
        let again = runner.run(3, |i| i + 1);
        assert_eq!(again, vec![1, 2, 3], "{threads} threads");
    }
}

/// The weighted (LJF) path gives the same isolation guarantee: results
/// stay in enumeration order whatever the execution order, and every
/// panic maps to its own slot.
#[test]
fn weighted_panicking_jobs_keep_slot_order() {
    use lams_core::Error;
    let weights: Vec<u64> = vec![5, 900, 1, 40, 7, 300];
    for threads in [1usize, 4] {
        let results = SweepRunner::new(threads).run_weighted_caught(&weights, |i| {
            if i % 3 == 0 {
                panic!("job {i} down");
            }
            i
        });
        assert_eq!(results.len(), weights.len());
        for (i, r) in results.iter().enumerate() {
            if i % 3 == 0 {
                assert!(
                    matches!(r, Err(Error::JobPanicked { job, .. }) if *job == i),
                    "slot {i} at {threads} threads: {r:?}"
                );
            } else {
                assert_eq!(*r.as_ref().unwrap(), i, "{threads} threads");
            }
        }
    }
}
