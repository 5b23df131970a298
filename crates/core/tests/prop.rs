//! Property tests over the scheduling engine: on randomly generated
//! staged workloads, every policy completes every process exactly once,
//! respects dependences, and is deterministic — plus the differential
//! check of the batched event-horizon engine against the naive per-op
//! oracle (`support/oracle.rs`) over the whole configuration space. The
//! same check one level up — `Scenario`, `Experiment` and its memo, the
//! sweep matrix, replay and the daemon — is `tests/scenarios.rs`.

use proptest::prelude::*;

use lams_core::{
    execute, ArrivalConfig, ArrivalShape, EngineConfig, Error, LocalityPolicy, Policy,
    RandomPolicy, RoundRobinPolicy, SharingMatrix,
};
use lams_layout::{HalfPage, Layout, RemapAssignment};
use lams_mpsoc::TraceOp;
use lams_mpsoc::{BusConfig, CacheConfig, CoreId, MachineConfig};
use lams_procgraph::ProcessId;
use lams_workloads::{synthetic_app, AppSpec, SyntheticConfig, Workload};

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
