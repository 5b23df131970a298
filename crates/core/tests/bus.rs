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
//!   `(clock, core)` order from the scalar trace iterator;
//! * **stat conservation**: per-core bus-wait cycles sum to the
//!   arbiter's total wait, and transfers equal cache misses;
//! * **monotonicity**: with a fixed schedule (single core, no
//!   preemption) the makespan is non-decreasing in bus occupancy, and a
//!   contended bus never beats the bus-free machine.

use proptest::prelude::*;

use lams_core::{
    execute, EngineConfig, LocalityPolicy, Policy, RandomPolicy, RoundRobinPolicy, RunResult,
    SharingMatrix,
};
use lams_layout::Layout;
use lams_mpsoc::{BusConfig, Machine, MachineConfig, TraceOp};
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

/// Drives per-core op streams on a machine the way the engine does —
/// batched `exec_until` to an unbounded horizon, parked cores re-keyed
/// at whatever `BatchOutcome::parked` names, minimum-key first — and
/// returns the machine.
fn drive_batched(cfg: MachineConfig, streams: &[Vec<TraceOp>]) -> Machine {
    #[derive(Clone, Copy, PartialEq)]
    enum St {
        Run,
        Parked(u64),
        Done,
    }
    let mut m = Machine::new(cfg);
    let mut feeds: Vec<std::vec::IntoIter<TraceOp>> =
        streams.iter().map(|s| s.clone().into_iter()).collect();
    let mut st = vec![St::Run; streams.len()];
    loop {
        let next = (0..streams.len())
            .filter_map(|c| match st[c] {
                St::Run => Some((m.core_clock(c).unwrap(), c)),
                St::Parked(b) => Some((b, c)),
                St::Done => None,
            })
            .min();
        let Some((_, c)) = next else { break };
        match st[c] {
            St::Parked(_) => {
                m.complete_bus_access(c).unwrap();
                st[c] = St::Run;
            }
            St::Run => {
                let out = m.exec_until(c, &mut feeds[c], u64::MAX).unwrap();
                st[c] = match out.parked {
                    Some(b) => St::Parked(b),
                    None => {
                        assert!(out.exhausted, "unbounded horizon only stops at the end");
                        St::Done
                    }
                };
            }
            St::Done => unreachable!(),
        }
    }
    m
}

/// Drives the same streams one op at a time in global `(clock, core)`
/// order through `exec_op` (inline grants — the reference semantics).
fn drive_per_op(cfg: MachineConfig, streams: &[Vec<TraceOp>]) -> Machine {
    let mut m = Machine::new(cfg);
    let mut idx = vec![0usize; streams.len()];
    loop {
        let next = (0..streams.len())
            .filter(|&c| idx[c] < streams[c].len())
            .min_by_key(|&c| (m.core_clock(c).unwrap(), c));
        let Some(c) = next else { break };
        m.exec_op(c, streams[c][idx[c]]).unwrap();
        idx[c] += 1;
    }
    m
}

fn arb_streams() -> impl Strategy<Value = Vec<Vec<TraceOp>>> {
    let op = (0u8..4, 0u64..256, 1u64..16).prop_map(|(kind, addr, cycles)| match kind {
        0 => TraceOp::compute(cycles),
        // 32-byte lines over a 512-byte 2-way cache: plenty of misses.
        _ => TraceOp::read(addr * 8),
    });
    prop::collection::vec(prop::collection::vec(op, 1..60), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Machine-level differential: batched parking equals per-op inline
    /// grants for every core's clock and statistics, and the bus stats
    /// conserve — per-core waits sum to the arbiter total, transfers
    /// equal misses. Every window, the 1-cycle one included, and FCFS
    /// (index `WINDOWS.len()`): each parks, at its own key.
    #[test]
    fn parked_batches_match_per_op_grants_and_conserve_stats(
        streams in arb_streams(),
        occ_i in 0usize..OCCUPANCIES.len(),
        win_i in 0usize..=WINDOWS.len(),
    ) {
        let mut cfg = MachineConfig::paper_default().with_cores(streams.len());
        cfg.cache = lams_mpsoc::CacheConfig::new(512, 2, 32).unwrap();
        cfg = cfg.with_bus(match WINDOWS.get(win_i) {
            Some(&window) => BusConfig::windowed(OCCUPANCIES[occ_i], window),
            None => BusConfig::fcfs(OCCUPANCIES[occ_i]),
        });
        let batched = drive_batched(cfg, &streams);
        let per_op = drive_per_op(cfg, &streams);
        let mut wait_sum = 0;
        let mut miss_sum = 0;
        for c in 0..streams.len() {
            prop_assert_eq!(
                batched.core_clock(c).unwrap(),
                per_op.core_clock(c).unwrap(),
                "core {} clock", c
            );
            let bs = batched.core_stats(c).unwrap();
            prop_assert_eq!(bs, per_op.core_stats(c).unwrap(), "core {} stats", c);
            wait_sum += bs.bus_wait_cycles;
            miss_sum += bs.cache.misses;
        }
        let bus = batched.bus().expect("bus configured");
        prop_assert_eq!(wait_sum, bus.total_wait(), "wait conservation");
        prop_assert_eq!(miss_sum, bus.transfers(), "every miss transfers exactly once");
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
