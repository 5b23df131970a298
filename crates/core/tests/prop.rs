//! Property tests over the scheduling engine: on randomly generated
//! staged workloads, every policy completes every process exactly once,
//! respects dependences, and is deterministic — plus the differential
//! check of the batched event-horizon engine against the naive per-op
//! oracle (`support/oracle.rs`) over the whole configuration space, and
//! the same check one level up, through `Experiment` and its memo.

use proptest::prelude::*;

use lams_core::{
    execute, ArrivalConfig, ArrivalShape, ArtifactCache, EngineConfig, Error, Experiment,
    LocalityPolicy, Policy, PolicyKind, RandomPolicy, RoundRobinPolicy, SharingMatrix,
    DEFAULT_QUANTUM,
};
use lams_layout::{HalfPage, Layout, RemapAssignment};
use lams_mpsoc::TraceOp;
use lams_mpsoc::{BusConfig, CacheConfig, CoreId, MachineConfig};
use lams_procgraph::ProcessId;
use lams_workloads::{suite, synthetic_app, AppSpec, Scale, SyntheticConfig, Workload};

#[path = "support/oracle.rs"]
mod oracle;
#[path = "support/quantum.rs"]
mod quantum;

#[path = "../../procgraph/tests/support/critical_path.rs"]
mod critical_path;

/// A synthetic application and its workload.
fn arb_workload() -> impl Strategy<Value = (AppSpec, Workload)> {
    (0u64..64, 1usize..4, 1usize..5, 0i64..3).prop_map(|(seed, stages, pps, halo)| {
        let app = synthetic_app(SyntheticConfig {
            seed,
            stages,
            procs_per_stage: pps,
            dim: 16,
            max_halo: halo,
        });
        let w = Workload::single(app.clone()).expect("synthetic apps are valid");
        (app, w)
    })
}

fn policies(w: &Workload, cores: usize) -> Vec<Box<dyn Policy>> {
    let sharing = SharingMatrix::from_workload(w);
    vec![
        Box::new(RandomPolicy::new(7)),
        Box::new(RoundRobinPolicy::new(500)),
        Box::new(LocalityPolicy::new(sharing.clone(), cores)),
        Box::new(LocalityPolicy::new(sharing, cores).without_initial_thinning()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_policy_drains_every_workload((_, w) in arb_workload(), cores in 1usize..5) {
        let layout = Layout::linear(w.arrays());
        let cfg = EngineConfig::from(MachineConfig::paper_default().with_cores(cores));
        for mut p in policies(&w, cores) {
            let r = execute(&w, &layout, p.as_mut(), cfg).expect("engine runs");
            prop_assert_eq!(r.processes.len(), w.num_processes(), "{} lost work", p.name());
            // Dependences respected.
            for pid in w.process_ids() {
                for s in w.epg().succs(pid).unwrap() {
                    prop_assert!(r.processes[&s].start >= r.processes[&pid].finish);
                }
            }
            // Makespan covers the busiest core.
            prop_assert!(r.makespan_cycles * cores as u64 >= r.machine.total_busy_cycles);
        }
    }

    #[test]
    fn engine_is_deterministic((_, w) in arb_workload()) {
        let layout = Layout::linear(w.arrays());
        let cfg = EngineConfig::from(MachineConfig::paper_default().with_cores(4));
        let sharing = SharingMatrix::from_workload(&w);
        let run = || {
            let mut p = LocalityPolicy::new(sharing.clone(), 4);
            let r = execute(&w, &layout, &mut p, cfg).expect("engine runs");
            (r.makespan_cycles, r.core_sequences.clone())
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn preemption_preserves_work((_, w) in arb_workload(), quantum in 50u64..2_000) {
        let layout = Layout::linear(w.arrays());
        let cfg = EngineConfig::from(MachineConfig::paper_default().with_cores(2));
        let mut rr = RoundRobinPolicy::new(quantum);
        let r = execute(&w, &layout, &mut rr, cfg).expect("engine runs");
        prop_assert_eq!(r.processes.len(), w.num_processes());
        // Total cache accesses are invariant under preemption: compare
        // with a run-to-completion policy.
        let mut rs = RandomPolicy::new(3);
        let r2 = execute(&w, &layout, &mut rs, cfg).expect("engine runs");
        prop_assert_eq!(
            r.machine.cache.accesses(),
            r2.machine.cache.accesses(),
            "policies executed different access counts"
        );
    }

    #[test]
    fn sharing_matrix_is_symmetric_with_zero_diagonal((_, w) in arb_workload()) {
        let m = SharingMatrix::from_workload(&w);
        for p in w.process_ids() {
            prop_assert_eq!(m.get(p, p), 0);
            for q in w.process_ids() {
                prop_assert_eq!(m.get(p, q), m.get(q, p));
            }
        }
    }

    #[test]
    fn makespan_never_below_critical_path_compute((app, w) in arb_workload()) {
        // A loose lower bound: the critical path of pure compute cycles
        // can never exceed the measured makespan.
        let layout = Layout::linear(w.arrays());
        let cfg = EngineConfig::from(MachineConfig::paper_default().with_cores(4));
        let streams = oracle::scalar::op_streams(&[app], &layout);
        let (cp, _) = critical_path::critical_path(w.epg(), |p| {
            // compute cycles only (access latencies are extra)
            streams[p.as_usize()]
                .iter()
                .filter_map(|op| match *op {
                    TraceOp::Compute(c) => Some(c),
                    TraceOp::Access { .. } => None,
                })
                .sum()
        });
        let mut p = RandomPolicy::new(11);
        let r = execute(&w, &layout, &mut p, cfg).expect("engine runs");
        prop_assert!(r.makespan_cycles >= cp);
    }
}

/// A layout that remaps every array with a 128-byte half page, so each
/// 1 KiB synthetic array splits into eight chunks: the trace compiler
/// must cut every strided run at chunk crossings.
fn chunked_layout(w: &Workload) -> Layout {
    let mut asg = RemapAssignment::new();
    for (id, _) in w.arrays().iter() {
        let half = [HalfPage::Lower, HalfPage::Upper][id.index() as usize % 2];
        asg.assign(id, half);
    }
    let tiny = CacheConfig::new(512, 2, 32).expect("valid geometry");
    Layout::remapped(w.arrays(), &tiny, &asg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Differential over the whole configuration space, as a
    /// cross-product and not axis by axis: policy × cores × quantum
    /// (the policy's own, or 300 or 2,000 cycles through
    /// `support/quantum.rs`) × bus mode × arrival stream × queue
    /// capacity × deadline × layout × pass count × miss split
    /// (`MachineConfig::explain`).
    /// The batched engine must equal the oracle on every compared field,
    /// or fail with the same typed error.
    #[test]
    fn batched_engine_matches_reference(
        (app, _) in arb_workload(),
        reps in 1i64..=6,
        (policy_i, cores, q_i) in (0usize..3, 1usize..5, 0usize..3),
        (bus_i, occ_i) in (0usize..6, 0usize..3),
        (arr_i, arr_seed, cap_i) in (0usize..7, 0u64..1000, 0usize..2),
        (deadline_i, percent) in (0usize..6, 1u64..100),
        (chunked, explain) in (0usize..2, 0usize..2),
    ) {
        // Three passes or more, where a core fast-forwards.
        let app = oracle::repeat_passes(&app, reps);
        let w = Workload::single(app.clone()).expect("synthetic apps are valid");
        let layout = if chunked == 1 { chunked_layout(&w) } else { Layout::linear(w.arrays()) };
        let occ = [9, 20, 75][occ_i];
        let mut machine = MachineConfig::paper_default()
            .with_cores(cores)
            .with_explain(explain == 1);
        match bus_i {
            0 => {}
            1 => machine = machine.with_bus(BusConfig::fcfs(occ)),
            i => machine = machine.with_bus(BusConfig::windowed(occ, [1, 4, 64, 1000][i - 2])),
        }
        let mut cfg = EngineConfig::from(machine);
        let quantum = [None, Some(300), Some(2_000)][q_i];
        if arr_i > 0 {
            // Each shape at an under- and an over-loaded rate.
            let shapes = [ArrivalShape::Poisson, ArrivalShape::Burst, ArrivalShape::Diurnal];
            let (shape, load) = (shapes[(arr_i - 1) / 2], [600, 3_000][(arr_i - 1) % 2]);
            let mut a = ArrivalConfig::poisson(load, arr_seed).with_shape(shape);
            a.queue_capacity = [None, Some(2)][cap_i];
            cfg.arrivals = Some(a);
        }
        let sharing = SharingMatrix::from_workload(&w);
        let make = move || -> Box<dyn Policy> {
            let policy: Box<dyn Policy> = match policy_i {
                0 => Box::new(RandomPolicy::new(7)),
                1 => Box::new(RoundRobinPolicy::new(900)),
                _ => Box::new(LocalityPolicy::new(sharing.clone(), cores)),
            };
            quantum::with_quantum(policy, quantum)
        };
        // Half the cases run to completion; the rest split evenly over
        // the three budgets below.
        let Some(budget_i) = deadline_i.checked_sub(3) else {
            let _ = oracle::check(&[app], &w, &layout, &make, cfg);
            return Ok(());
        };
        // Budgets relative to where the unbudgeted run ends: its
        // makespan, or the cycle at which its queue saturates.
        let apps = [app];
        let free = oracle::simulate(&apps, &w, &layout, make().as_mut(), cfg);
        let end = match &free {
            Ok(o) => o.machine.makespan_cycles,
            Err(Error::QueueSaturated { at_cycle, .. }) => *at_cycle,
            Err(e) => panic!("unbudgeted oracle run failed: {e}"),
        };
        cfg.max_cycles = Some([end, end.saturating_sub(1), end * percent / 100][budget_i]);
        let got = oracle::check(&apps, &w, &layout, &make, cfg);
        match budget_i {
            // A run that fits its budget is the unbudgeted run.
            0 => prop_assert_eq!(got.map(|r| oracle::observe(&r)), free),
            // One cycle short deadlines exactly where the run would end.
            1 if end > 0 => prop_assert_eq!(
                got.map(|r| r.makespan_cycles),
                Err(Error::DeadlineExceeded { budget_cycles: end - 1, elapsed_cycles: end })
            ),
            _ => {}
        }
    }
}

/// The same differential one level up: what `Experiment` hands the
/// engine — policy construction, the memoised programs, the pilot and
/// LS-result slots, the LSM layout its own artifacts name — must equal
/// the oracle on that layout. Batch and open-system variants share one
/// memo in both orders, which is where a result slot keyed without the
/// arrival stream would be served to the wrong run.
#[test]
fn experiment_runs_match_the_oracle_across_memo_modes_and_arrivals() {
    let apps = [suite::shape(Scale::Tiny), suite::track(Scale::Tiny)];
    let machine = MachineConfig::paper_default().with_cores(4);
    let base = Experiment::concurrent(&apps, machine)
        .with_seed(5)
        .with_relayout_threshold(0.0);
    let w = base.workload();
    let sharing = SharingMatrix::from_workload(w);
    let open = Some(ArrivalConfig::poisson(900, 7));
    let expected = |kind: PolicyKind, layout: &Layout, arrivals: Option<ArrivalConfig>| {
        let mut policy: Box<dyn Policy> = match kind {
            PolicyKind::Random => Box::new(RandomPolicy::new(5)),
            PolicyKind::RoundRobin => Box::new(RoundRobinPolicy::new(DEFAULT_QUANTUM)),
            _ => Box::new(LocalityPolicy::new(sharing.clone(), machine.num_cores)),
        };
        let mut cfg = EngineConfig::from(machine);
        cfg.arrivals = arrivals;
        oracle::simulate(&apps, w, layout, policy.as_mut(), cfg).expect("oracle runs")
    };
    let linear = Layout::linear(w.arrays());
    for (memo, order) in [
        (ArtifactCache::shared(), [None, open]),
        (ArtifactCache::shared(), [open, None]),
        (ArtifactCache::disabled(), [None, open]),
    ] {
        for arrivals in order {
            let mut exp = base.clone().with_memo(memo.clone());
            if let Some(a) = arrivals {
                exp = exp.with_arrivals(a);
            }
            for kind in [
                PolicyKind::Random,
                PolicyKind::RoundRobin,
                PolicyKind::Locality,
            ] {
                let got = exp.run(kind).expect("experiment runs");
                assert_eq!(
                    oracle::observe(&got),
                    expected(kind, &linear, arrivals),
                    "{kind} with arrivals {arrivals:?}"
                );
            }
            let (got, art) = exp.run_lsm().expect("lsm runs");
            assert!(!art.assignment.is_empty(), "threshold 0 remaps something");
            let layout = Layout::remapped(w.arrays(), &machine.cache, &art.assignment);
            assert_eq!(
                oracle::observe(&got),
                expected(PolicyKind::LocalityMap, &layout, arrivals),
                "LSM with arrivals {arrivals:?}"
            );
        }
    }
}

/// A deadline is outside every memo key, so a warm slot holds the
/// *unbudgeted* result: whoever serves it must re-check the request's
/// own budget. Warm and cold runs answer identically — the result when
/// it fits, the cold path's exact `DeadlineExceeded` when it does not.
#[test]
fn a_warm_memo_hit_still_enforces_the_deadline() {
    // Shape alone never leaves the pilot slot; the mix's ladder also
    // simulates candidates slower than its pilot, so a budget the pilot
    // fits still deadlines in the LS-result slots.
    let apps = [suite::shape(Scale::Tiny), suite::track(Scale::Tiny)];
    let machine = MachineConfig::paper_default();
    for base in [
        Experiment::isolated(&apps[0], machine),
        Experiment::concurrent(&apps, machine.with_cores(4)).with_relayout_threshold(0.0),
    ] {
        warm_and_cold_agree_under_budgets(&base);
    }
}

fn warm_and_cold_agree_under_budgets(base: &Experiment) {
    let warm = ArtifactCache::shared();
    let unbudgeted = |kind| {
        let exp = base.clone().with_memo(warm.clone());
        exp.run(kind)
            .expect("unbudgeted run fills the memo")
            .makespan_cycles
    };
    let ls = unbudgeted(PolicyKind::Locality);
    let lsm = unbudgeted(PolicyKind::LocalityMap);
    for budget in [0, ls - 1, ls, ls + 1, lsm - 1, lsm, lsm + 1] {
        let run = |kind, memo| {
            let exp = base.clone().with_memo(memo).with_deadline_cycles(budget);
            exp.run(kind).map(|r| oracle::observe(&r))
        };
        let hot = run(PolicyKind::Locality, warm.clone());
        assert_eq!(hot.is_ok(), budget >= ls, "LS budget {budget}");
        assert_eq!(
            hot,
            run(PolicyKind::Locality, ArtifactCache::disabled()),
            "LS budget {budget}"
        );
        // LSM deadlines on whichever ladder run overruns first, and a
        // warm memo skips the runs that fit: the verdict and its type
        // are pinned, the overrun cycle is not.
        let hot = run(PolicyKind::LocalityMap, warm.clone());
        let cold = run(PolicyKind::LocalityMap, ArtifactCache::disabled());
        match (&hot, &cold) {
            (Ok(_), Ok(_)) => assert_eq!(hot, cold, "LSM budget {budget}"),
            (Err(Error::DeadlineExceeded { .. }), Err(Error::DeadlineExceeded { .. })) => {}
            _ => panic!("LSM budget {budget}: warm {hot:?} vs cold {cold:?}"),
        }
    }
}
