//! Differential and property tests for bus-mode scheduling: the engine
//! (full event-horizon batching, parked misses, one bus event) against
//! the per-op oracle (`support/oracle.rs`), over random programs, bus
//! occupancies, both bus modes, window sizes and quantum overrides.
//!
//! Pinned contracts (see `docs/bus-model.md`):
//!
//! * **window = 1 is FCFS**: the windowed engine with a 1-cycle epoch
//!   is bit-identical to the FCFS engine (full `RunResult`s);
//! * **batched == per-op**: for any window, the batched engine equals
//!   the one-op-at-a-time oracle, which issues requests in global
//!   `(clock, core)` order from the scalar trace iterator on its own
//!   naive machine (the machine-level twin of this check, with stat
//!   conservation, is in `crates/mpsoc/tests/prop.rs`);
//! * **monotonicity**: with a fixed schedule (single core, no
//!   preemption) the makespan is non-decreasing in bus occupancy, and a
//!   contended bus never beats the bus-free machine.

use proptest::prelude::*;

use lams_core::{
    execute, EngineConfig, LocalityPolicy, Policy, RandomPolicy, RoundRobinPolicy, RunResult,
    SharingMatrix,
};
use lams_layout::Layout;
use lams_mpsoc::{BusConfig, MachineConfig};
use lams_workloads::{suite, synthetic_app, Scale, SyntheticConfig, Workload};

#[path = "support/oracle.rs"]
mod oracle;

fn arb_workload() -> impl Strategy<Value = Workload> {
    (0u64..64, 1usize..4, 1usize..5, 0i64..3).prop_map(|(seed, stages, pps, halo)| {
        let app = synthetic_app(SyntheticConfig {
            seed,
            stages,
            procs_per_stage: pps,
            dim: 16,
            max_halo: halo,
        });
        Workload::single(app).expect("synthetic apps are valid")
    })
}

fn engine_cfg(machine: MachineConfig, quantum: Option<u64>) -> EngineConfig {
    let mut cfg = EngineConfig::from(machine);
    cfg.quantum_override = quantum;
    cfg
}

fn policy_factories(w: &Workload, cores: usize) -> Vec<Box<dyn Fn() -> Box<dyn Policy>>> {
    let sharing = SharingMatrix::from_workload(w);
    vec![
        Box::new(|| Box::new(RandomPolicy::new(7))),
        Box::new(|| Box::new(RoundRobinPolicy::new(900))),
        Box::new(move || Box::new(LocalityPolicy::new(sharing.clone(), cores))),
    ]
}

const OCCUPANCIES: [u64; 4] = [1, 9, 20, 75];
const WINDOWS: [u64; 4] = [1, 4, 64, 1000];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The windowed batched engine — full event horizons, parked misses,
    /// boundary events — reproduces the per-op oracle bit for bit across
    /// workloads, core counts, occupancies, windows and quantum
    /// overrides.
    #[test]
    fn windowed_engine_matches_per_op_reference(
        w in arb_workload(),
        cores in 1usize..5,
        occ_i in 0usize..OCCUPANCIES.len(),
        win_i in 0usize..WINDOWS.len(),
        q_i in 0usize..3,
    ) {
        let layout = Layout::linear(w.arrays());
        let quantum = [None, Some(300), Some(2_000)][q_i];
        let machine = MachineConfig::paper_default()
            .with_cores(cores)
            .with_bus(BusConfig::windowed(OCCUPANCIES[occ_i], WINDOWS[win_i]));
        for make in policy_factories(&w, cores) {
            oracle::check(&w, &layout, &make, engine_cfg(machine, quantum)).expect("engine runs");
        }
    }

    /// A 1-cycle window degenerates to FCFS exactly: same `RunResult`
    /// (makespan, stats, dispatch sequences, per-process records).
    #[test]
    fn window_of_one_is_bit_identical_to_fcfs(
        w in arb_workload(),
        cores in 1usize..5,
        occ_i in 0usize..OCCUPANCIES.len(),
        q_i in 0usize..3,
    ) {
        let layout = Layout::linear(w.arrays());
        let quantum = [None, Some(300), Some(2_000)][q_i];
        let base = MachineConfig::paper_default().with_cores(cores);
        for make in policy_factories(&w, cores) {
            let run = |bus: BusConfig, make: &dyn Fn() -> Box<dyn Policy>| {
                let mut p = make();
                execute(&w, &layout, p.as_mut(), engine_cfg(base.with_bus(bus), quantum))
                    .expect("engine runs")
            };
            let fcfs = run(BusConfig::fcfs(OCCUPANCIES[occ_i]), &make);
            let w1 = run(BusConfig::windowed(OCCUPANCIES[occ_i], 1), &make);
            prop_assert_eq!(
                format!("{fcfs:?}"), format!("{w1:?}"),
                "windowed(1) diverged from FCFS"
            );
        }
    }
}

/// Fixed-schedule monotonicity: on one core with run-to-completion
/// dispatch the op stream is timing-independent, so a costlier bus can
/// only add wait cycles — makespan is non-decreasing in occupancy and
/// never below the bus-free machine.
#[test]
fn makespan_is_monotone_in_occupancy_on_a_fixed_schedule() {
    let app = synthetic_app(SyntheticConfig {
        seed: 5,
        stages: 1, // no deps: the dispatch order cannot depend on timing
        procs_per_stage: 4,
        dim: 16,
        max_halo: 2,
    });
    let w = Workload::single(app).unwrap();
    let layout = Layout::linear(w.arrays());
    let base = MachineConfig::paper_default().with_cores(1);
    let run = |machine: MachineConfig| {
        let mut p = RandomPolicy::new(3);
        execute(&w, &layout, &mut p, EngineConfig::from(machine)).expect("engine runs")
    };
    let free = run(base);
    for window in [1, 64, 1000] {
        let mut prev = free.makespan_cycles;
        for occ in [0, 5, 20, 75, 200] {
            let r = run(base.with_bus(BusConfig::windowed(occ, window)));
            assert!(
                r.makespan_cycles >= prev,
                "makespan decreased at occ {occ}, window {window}: {} < {prev}",
                r.makespan_cycles
            );
            if occ == 0 {
                assert_eq!(
                    r.makespan_cycles, free.makespan_cycles,
                    "zero occupancy must equal the bus-free machine"
                );
            }
            prev = r.makespan_cycles;
        }
    }
}

/// Suite-level engagement check: every Tiny app under RS/RRS/LS on the
/// 8-core Table 2 machine, behind each kind of contended bus, matches
/// the oracle; the arbiter engages (non-zero waits) and every access is
/// still simulated. FCFS is the case that needs eight cores and real
/// apps: only there does a core re-enter the heap at time `t` *between*
/// two cores already parked at `t`, which a batch-resolved FCFS grant
/// would serve out of order (`docs/bus-model.md`).
#[test]
fn windowed_bus_engages_on_suite_apps_and_matches_the_oracle() {
    let base = MachineConfig::paper_default();
    for app in suite::all(Scale::Tiny) {
        let w = Workload::single(app).unwrap();
        let layout = Layout::linear(w.arrays());
        for make in policy_factories(&w, base.num_cores) {
            let run = |machine: MachineConfig| {
                oracle::check(&w, &layout, &make, machine.into()).expect("engine runs")
            };
            let free = run(base);
            for bus in [
                BusConfig::fcfs(20),
                BusConfig::windowed(12, 16),
                BusConfig::windowed(12, 256),
            ] {
                let contended = run(base.with_bus(bus));
                assert!(
                    contended.machine.total_bus_wait_cycles > 0,
                    "no contention on {} under {bus}",
                    w.name()
                );
                assert_eq!(
                    contended.machine.cache.accesses(),
                    free.machine.cache.accesses(),
                    "same work with and without the bus"
                );
            }
        }
    }
}

/// [`RunResult`] sanity under contention: the makespan covers the
/// busiest core and every process completes exactly once.
#[test]
fn contended_runs_stay_structurally_sound() {
    let w = Workload::single(suite::usonic(Scale::Tiny)).unwrap();
    let layout = Layout::linear(w.arrays());
    let machine = MachineConfig::paper_default()
        .with_cores(4)
        .with_bus(BusConfig::windowed(30, 128));
    let sharing = SharingMatrix::from_workload(&w);
    let mut p = LocalityPolicy::new(sharing, 4);
    let r: RunResult = execute(&w, &layout, &mut p, EngineConfig::from(machine)).unwrap();
    assert_eq!(r.processes.len(), w.num_processes());
    assert!(r.makespan_cycles * 4 >= r.machine.total_busy_cycles);
    for pid in w.process_ids() {
        for s in w.epg().succs(pid).unwrap() {
            assert!(r.processes[&s].start >= r.processes[&pid].finish);
        }
    }
}
