//! Edge cases and failure injection: degenerate workloads, misbehaving
//! policies, bus contention, and configuration errors must all fail (or
//! succeed) loudly and predictably.

use lams::core::{
    execute, execute_bundle, ArrivalConfig, EngineConfig, Error, Experiment, Policy, PolicyKind,
    RandomPolicy, SharingMatrix,
};
use lams::layout::Layout;
use lams::layout::{ArrayDecl, ArrayTable};
use lams::mpsoc::CoreId;
use lams::mpsoc::{BusConfig, Error as MpsocError, Machine, MachineConfig};
use lams::presburger::{AffineExpr, AffineMap, IterSpace};
use lams::procgraph::ProcessId;
use lams::trace::{Lane, ProgramBuilder, TraceBundle, TraceRecord};
use lams::workloads::{AccessSpec, AppSpec, ProcessSpec, Workload};

#[path = "../crates/core/tests/support/quantum.rs"]
mod quantum;

/// A policy that never dispatches anything — contract violation.
#[derive(Debug)]
struct Refusenik;

impl Policy for Refusenik {
    fn name(&self) -> &str {
        "refusenik"
    }
    fn on_ready(&mut self, _p: ProcessId, _now: u64) {}
    fn select(
        &mut self,
        _core: CoreId,
        _last: Option<ProcessId>,
        _ready: &[ProcessId],
    ) -> Option<ProcessId> {
        None
    }
}

fn one_proc_app() -> AppSpec {
    let mut arrays = ArrayTable::new();
    let a = arrays.push(ArrayDecl::new("A", vec![64], 4));
    AppSpec {
        name: "solo".into(),
        description: "single process".into(),
        arrays,
        processes: vec![ProcessSpec {
            name: "p0".into(),
            space: IterSpace::builder().dim_range("i", 0, 64).build().unwrap(),
            accesses: vec![AccessSpec::read(
                a,
                AffineMap::new(vec![AffineExpr::var("i")]),
            )],
            compute_cycles_per_iter: 1,
        }],
        deps: vec![],
    }
}

#[test]
fn refusing_policy_stalls_the_engine() {
    let w = Workload::single(one_proc_app()).unwrap();
    let layout = Layout::linear(w.arrays());
    let mut p = Refusenik;
    let err = execute(&w, &layout, &mut p, EngineConfig::paper_default()).unwrap_err();
    assert!(matches!(err, Error::EngineStalled { ready: 1 }));
}

#[test]
fn single_process_single_core_works() {
    let w = Workload::single(one_proc_app()).unwrap();
    let layout = Layout::linear(w.arrays());
    let mut p = RandomPolicy::new(0);
    let cfg = EngineConfig::from(MachineConfig::paper_default().with_cores(1));
    let r = execute(&w, &layout, &mut p, cfg).unwrap();
    assert_eq!(r.processes.len(), 1);
    // 64 elements on 32-byte lines: 8 cold misses, 56 hits, 64 compute.
    assert_eq!(r.machine.cache.misses, 8);
    assert_eq!(r.machine.cache.hits, 56);
    assert_eq!(r.makespan_cycles, 8 * 77 + 56 * 2 + 64);
}

#[test]
fn zero_compute_processes_are_fine() {
    let mut app = one_proc_app();
    app.processes[0].compute_cycles_per_iter = 0;
    let w = Workload::single(app).unwrap();
    let layout = Layout::linear(w.arrays());
    let mut p = RandomPolicy::new(0);
    let r = execute(&w, &layout, &mut p, EngineConfig::paper_default()).unwrap();
    assert_eq!(r.makespan_cycles, 8 * 77 + 56 * 2);
}

#[test]
fn invalid_machine_configs_are_rejected() {
    let mut bad = MachineConfig::paper_default();
    bad.num_cores = 0;
    assert!(Machine::try_new(bad).is_err());
    let mut bad = MachineConfig::paper_default();
    bad.cache.associativity = 3;
    assert!(Machine::try_new(bad).is_err());
    let mut bad = MachineConfig::paper_default();
    bad.miss_latency = 1; // below hit latency
    assert!(Machine::try_new(bad).is_err());
}

/// A one-process bundle built from `(lanes, times, cycles)` loop pushes.
fn one_program_bundle(loops: &[(&[Lane], u64, u64)]) -> TraceBundle {
    let mut b = ProgramBuilder::new();
    for &(lanes, times, cycles) in loops {
        b.push_loop(lanes, times, cycles);
    }
    TraceBundle {
        name: "overflow".into(),
        records: vec![TraceRecord {
            name: "p0".into(),
            program: b.finish(),
        }],
        edges: vec![],
    }
}

/// A checksum-valid trace whose op costs carry a core clock past
/// `u64::MAX` fails with a typed error, under every way of running it:
/// a compute burst and a one-lane loop whose compute ops cost
/// `u64::MAX - 1` cycles, with and without a deadline or a quantum, and
/// a miss issued near the top of the clock, with and without a bus.
/// The repeat counts are small enough that an unchecked clock wraps and
/// the run finishes with a wrapped makespan instead.
#[test]
fn clock_overflow_is_a_typed_error() {
    let lane = [Lane {
        base: 0,
        stride: 0,
        write: false,
    }];
    let huge = u64::MAX - 1;
    for bundle in [
        one_program_bundle(&[(&[], 1, 1000), (&[], 1000, huge)]),
        one_program_bundle(&[(&[], 1, 1000), (&lane, 1000, huge)]),
    ] {
        for (max_cycles, quantum) in [(None, None), (Some(1 << 40), None), (None, Some(100))] {
            let mut cfg = EngineConfig::paper_default();
            cfg.max_cycles = max_cycles;
            let mut policy = quantum::with_quantum(Box::new(RandomPolicy::new(0)), quantum);
            let r = execute_bundle(&bundle, policy.as_mut(), cfg);
            assert!(
                matches!(r, Err(Error::Mpsoc(MpsocError::ClockOverflow { core: _ }))),
                "deadline {max_cycles:?}, quantum {quantum:?}: {r:?}"
            );
        }
    }
    let late_miss = one_program_bundle(&[(&[], 1, u64::MAX - 50), (&lane, 1, 1)]);
    for bus in [None, Some(BusConfig::fcfs(20))] {
        let mut machine = MachineConfig::paper_default();
        machine.bus = bus;
        let r = execute_bundle(&late_miss, &mut RandomPolicy::new(0), machine);
        assert!(
            matches!(r, Err(Error::Mpsoc(MpsocError::ClockOverflow { core: _ }))),
            "bus {bus:?}: {r:?}"
        );
    }
}

#[test]
fn bus_contention_slows_concurrent_misses() {
    let app = lams::workloads::suite::shape(lams::workloads::Scale::Tiny);
    let w = Workload::single(app).unwrap();
    let layout = Layout::linear(w.arrays());
    let sharing = SharingMatrix::from_workload(&w);
    let base = MachineConfig::paper_default();
    let contended = base.with_bus(BusConfig::fcfs(20));
    let run = |machine: MachineConfig| {
        let mut p = lams::core::LocalityPolicy::new(sharing.clone(), machine.num_cores);
        execute(&w, &layout, &mut p, EngineConfig::from(machine)).unwrap()
    };
    let fast = run(base);
    let slow = run(contended);
    assert!(
        slow.makespan_cycles > fast.makespan_cycles,
        "bus contention must cost time: {} vs {}",
        slow.makespan_cycles,
        fast.makespan_cycles
    );
    // Same work either way.
    assert_eq!(slow.machine.cache.accesses(), fast.machine.cache.accesses());
}

#[test]
fn refusing_policy_stalls_under_a_saturated_windowed_bus() {
    // A saturated bus (every transfer monopolizes the interconnect for
    // 10_000 cycles, granted at coarse epochs) must not mask the
    // engine-stall contract: a policy that refuses to dispatch still
    // fails loudly with `EngineStalled`, it does not hang waiting for
    // grants that no running core will ever produce.
    let w = Workload::single(one_proc_app()).unwrap();
    let layout = Layout::linear(w.arrays());
    let mut p = Refusenik;
    let machine = MachineConfig::paper_default().with_bus(BusConfig::windowed(10_000, 4_096));
    let err = execute(&w, &layout, &mut p, EngineConfig::from(machine)).unwrap_err();
    assert!(matches!(err, Error::EngineStalled { ready: 1 }));
}

#[test]
fn saturated_windowed_bus_still_completes_real_work() {
    // The same saturated bus with a real policy: every process still
    // completes — grossly late, but deterministically.
    let app = lams::workloads::suite::shape(lams::workloads::Scale::Tiny);
    let w = Workload::single(app).unwrap();
    let layout = Layout::linear(w.arrays());
    let machine = MachineConfig::paper_default().with_bus(BusConfig::windowed(10_000, 4_096));
    let free = MachineConfig::paper_default();
    let run = |machine: MachineConfig| {
        let mut p = RandomPolicy::new(1);
        execute(&w, &layout, &mut p, EngineConfig::from(machine)).unwrap()
    };
    let slow = run(machine);
    let fast = run(free);
    assert_eq!(slow.processes.len(), w.num_processes());
    assert!(
        slow.makespan_cycles > 10 * fast.makespan_cycles,
        "a 10k-cycle bus occupancy should dominate the makespan: {} vs {}",
        slow.makespan_cycles,
        fast.makespan_cycles
    );
    // Same simulated work; the slowdown is pure bus waiting.
    assert_eq!(slow.machine.cache.accesses(), fast.machine.cache.accesses());
    assert!(slow.machine.total_bus_wait_cycles > 0);
}

#[test]
fn zero_occupancy_bus_is_equivalent_to_no_bus() {
    // `occupancy_cycles: 0` means the bus never contends: in *either*
    // arbitration mode the run is indistinguishable from `bus: None` —
    // same makespan, same stats, same schedule, zero waits.
    let app = lams::workloads::suite::track(lams::workloads::Scale::Tiny);
    let w = Workload::single(app).unwrap();
    let layout = Layout::linear(w.arrays());
    let base = MachineConfig::paper_default().with_cores(4);
    let run = |machine: MachineConfig| {
        let mut p = RandomPolicy::new(7);
        execute(&w, &layout, &mut p, EngineConfig::from(machine)).unwrap()
    };
    let reference = run(base);
    for bus in [
        BusConfig::fcfs(0),
        BusConfig::windowed(0, 1),
        BusConfig::windowed(0, 512),
    ] {
        let r = run(base.with_bus(bus));
        assert_eq!(
            format!("{r:?}"),
            format!("{reference:?}"),
            "zero-occupancy {bus:?} diverged from bus: None"
        );
        assert_eq!(r.machine.total_bus_wait_cycles, 0);
    }
}

#[test]
fn zero_cycle_bus_window_is_rejected() {
    let machine = MachineConfig::paper_default().with_bus(BusConfig::windowed(20, 0));
    assert!(Machine::try_new(machine).is_err());
}

#[test]
fn quantum_override_is_honoured() {
    let w = Workload::single(one_proc_app()).unwrap();
    let layout = Layout::linear(w.arrays());
    // Run-to-completion by itself, preempted by the adapter's quantum.
    let mut p = quantum::with_quantum(Box::new(RandomPolicy::new(0)), Some(100));
    let r = execute(&w, &layout, p.as_mut(), EngineConfig::paper_default()).unwrap();
    // The single process takes ~900 cycles of work, so an enforced
    // 100-cycle quantum preempts it repeatedly.
    assert!(r.processes[&ProcessId::new(0)].dispatches > 1);
}

#[test]
fn deadline_budget_fails_loudly_and_deterministically() {
    let w = Workload::single(one_proc_app()).unwrap();
    let layout = Layout::linear(w.arrays());
    let unbounded = {
        let mut p = RandomPolicy::new(0);
        execute(&w, &layout, &mut p, EngineConfig::paper_default()).unwrap()
    };

    // A budget below the real makespan: loud, typed, and carrying both
    // the budget and where simulated time stood when it tripped.
    let mut cfg = EngineConfig::paper_default();
    cfg.max_cycles = Some(100);
    let mut p = RandomPolicy::new(0);
    let err = execute(&w, &layout, &mut p, cfg).unwrap_err();
    match err {
        Error::DeadlineExceeded {
            budget_cycles,
            elapsed_cycles,
        } => {
            assert_eq!(budget_cycles, 100);
            assert!(elapsed_cycles > budget_cycles);
            assert!(elapsed_cycles <= unbounded.makespan_cycles);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // A budget of exactly the makespan passes, bit-identically.
    let mut cfg = EngineConfig::paper_default();
    cfg.max_cycles = Some(unbounded.makespan_cycles);
    let mut p = RandomPolicy::new(0);
    let exact = execute(&w, &layout, &mut p, cfg).unwrap();
    assert_eq!(format!("{exact:?}"), format!("{unbounded:?}"));
    // One cycle short fails.
    let mut cfg = EngineConfig::paper_default();
    cfg.max_cycles = Some(unbounded.makespan_cycles - 1);
    let mut p = RandomPolicy::new(0);
    assert!(matches!(
        execute(&w, &layout, &mut p, cfg),
        Err(Error::DeadlineExceeded { .. })
    ));
}

#[test]
fn experiment_deadline_threads_through_every_policy() {
    let app = lams::workloads::suite::shape(lams::workloads::Scale::Tiny);
    for kind in [
        PolicyKind::Random,
        PolicyKind::RoundRobin,
        PolicyKind::Locality,
        PolicyKind::LocalityMap,
    ] {
        let tight = Experiment::isolated(&app, MachineConfig::paper_default())
            .with_deadline_cycles(10)
            .run(kind);
        assert!(
            matches!(tight, Err(Error::DeadlineExceeded { .. })),
            "{kind:?} ignored the deadline: {tight:?}"
        );
        let free = Experiment::isolated(&app, MachineConfig::paper_default()).run(kind);
        let generous = Experiment::isolated(&app, MachineConfig::paper_default())
            .with_deadline_cycles(u64::MAX)
            .run(kind);
        assert_eq!(
            generous.unwrap().makespan_cycles,
            free.unwrap().makespan_cycles,
            "{kind:?} perturbed by a generous deadline"
        );
    }
}

#[test]
fn an_lsm_budget_refuses_only_its_pilots_overrun() {
    // Under a budget, LSM answers what it answers unbudgeted whenever its
    // pilot (LS on the linear layout) and its answer fit: a ladder
    // candidate that overruns is not better, not the run's error.
    use lams::workloads::{suite, Scale};
    let machine = MachineConfig::paper_default().with_cores(4);
    let lsm = |exp: Experiment, budget| {
        let run = exp
            .with_deadline_cycles(budget)
            .run(PolicyKind::LocalityMap);
        run.map(|r| r.makespan_cycles)
    };
    let usonic = || Experiment::isolated(&suite::usonic(Scale::Tiny), machine);
    let mix3 = || Experiment::concurrent(&suite::mix(3, Scale::Tiny), machine);
    assert_eq!(lsm(usonic(), 13_506), Ok(13_506));
    assert_eq!(lsm(mix3(), 33_198), Ok(32_974));
    // At its own answer mix-3 is refused: its pilot ends at 33,198, and
    // the pilot's overrun is the request's.
    let refused = Error::DeadlineExceeded {
        budget_cycles: 32_974,
        elapsed_cycles: 33_045,
    };
    assert_eq!(lsm(mix3(), 32_974), Err(refused));
}

#[test]
fn deadline_and_arrivals_compose_in_both_orders() {
    // Ordering 1: the open-system run fits its budget — the deadline is
    // invisible and the result is bit-identical to the unbounded run
    // (arrival metrics included, via the Debug compare).
    let app = lams::workloads::suite::shape(lams::workloads::Scale::Tiny);
    let arrivals = ArrivalConfig::poisson(800, 42);
    let free = Experiment::isolated(&app, MachineConfig::paper_default())
        .with_arrivals(arrivals)
        .run(PolicyKind::RoundRobin)
        .unwrap();
    assert!(free.arrivals.is_some(), "open run must report metrics");
    let bounded = Experiment::isolated(&app, MachineConfig::paper_default())
        .with_arrivals(arrivals)
        .with_deadline_cycles(free.makespan_cycles)
        .run(PolicyKind::RoundRobin)
        .unwrap();
    assert_eq!(format!("{bounded:?}"), format!("{free:?}"));
    // One cycle short fails, typed.
    let short = Experiment::isolated(&app, MachineConfig::paper_default())
        .with_arrivals(arrivals)
        .with_deadline_cycles(free.makespan_cycles - 1)
        .run(PolicyKind::RoundRobin);
    assert!(matches!(short, Err(Error::DeadlineExceeded { .. })));

    // Ordering 2: the *stream* outlives the budget — at a trickle load
    // the first arrivals land far past any tight deadline, so the run
    // must fail cleanly on the pending-arrival event (no panic, no
    // index into a process that never arrived, no hang on an engine
    // whose cores are all idle).
    let err = Experiment::isolated(&app, MachineConfig::paper_default())
        .with_arrivals(ArrivalConfig::poisson(1, 42))
        .with_deadline_cycles(10)
        .run(PolicyKind::RoundRobin)
        .unwrap_err();
    match err {
        Error::DeadlineExceeded {
            budget_cycles,
            elapsed_cycles,
        } => {
            assert_eq!(budget_cycles, 10);
            assert!(elapsed_cycles > budget_cycles);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn queue_saturation_sheds_typed_and_deterministically() {
    // Fourfold overload against a 1-deep admission queue (a Tiny mix)
    // and a 2-deep one (a 192-process synthetic pipeline): the run must
    // shed with the typed error, and every repeat must shed at the
    // same depth and cycle — overload handling is as deterministic as
    // the simulation itself.
    let overload = ArrivalConfig::poisson(4000, 7);
    let machine = MachineConfig::paper_default();
    let mix = lams::workloads::suite::mix(4, lams::workloads::Scale::Tiny);
    let pipeline = lams::workloads::synthetic_app(lams::workloads::SyntheticConfig {
        seed: 0xA221,
        stages: 6,
        procs_per_stage: 32,
        dim: 96,
        max_halo: 2,
    });
    for (exp, queue_capacity) in [
        (Experiment::concurrent(&mix, machine), 1),
        (Experiment::isolated(&pipeline, machine), 2),
    ] {
        let exp = exp.with_arrivals(overload.with_queue_capacity(queue_capacity));
        let reference = match exp.run(PolicyKind::RoundRobin) {
            Err(Error::QueueSaturated {
                capacity,
                depth,
                at_cycle,
            }) => {
                assert_eq!(capacity, queue_capacity);
                assert!(depth as u64 > capacity, "shed depth exceeds capacity");
                (capacity, depth, at_cycle)
            }
            other => panic!("expected QueueSaturated, got {other:?}"),
        };
        for _ in 0..3 {
            match exp.run(PolicyKind::RoundRobin) {
                Err(Error::QueueSaturated {
                    capacity,
                    depth,
                    at_cycle,
                }) => assert_eq!((capacity, depth, at_cycle), reference),
                other => panic!("expected QueueSaturated, got {other:?}"),
            }
        }
    }
}

#[test]
fn malformed_service_requests_are_typed_errors_never_panics() {
    // The daemon's parser must answer every hostile line with a typed
    // error (or a recognised request) — no panic, no abort.
    let hostile = [
        "",
        "   ",
        "# comment",
        "run",
        "run id=",
        "run id=1",
        "run id=1 app=shape",
        "run id=1 app=shape scale=tiny",
        "run id=1 app=shape scale=tiny policy=quantum",
        "run id=1 app=shape scale=galactic policy=rs",
        "run id=1 app=shape scale=tiny policy=rs policy=ls",
        "run id=1 app=shape scale=tiny policy=rs cores=zero",
        "run id=1 app=shape scale=tiny policy=rs deadline=-3",
        "run id=1 app=shape scale=tiny policy=rs bogus_key=1",
        "run id=1 app=shape scale=tiny policy=rs stray-token",
        "run id=1 app=shape scale=tiny policy=rs arrivals=",
        "run id=1 app=shape scale=tiny policy=rs arrivals=poisson",
        "run id=1 app=shape scale=tiny policy=rs arrivals=gauss:0.8:1",
        "run id=1 app=shape scale=tiny policy=rs arrivals=poisson:0:1",
        "run id=1 app=shape scale=tiny policy=rs arrivals=poisson:0.8:1:2:3",
        "run id=1 app=shape scale=tiny policy=rs arrivals=poisson:0.8:1 arrivals=poisson:0.8:1",
        "replay id=1 policy=rs",
        "replay id=1 file=/tmp/x.ltr policy=lsm",
        "warp id=1 speed=9",
        "run id=\u{0} app=shape scale=tiny policy=rs",
        "ping id=1 extra=field",
    ];
    for line in hostile {
        // Must return, never unwind.
        let outcome = lams::serve::Request::parse(line);
        if let Err(e) = outcome {
            let resp = e.response().to_string();
            assert!(resp.starts_with("err "), "{line:?} -> {resp}");
            assert!(!resp.contains('\n'), "{line:?} -> multi-line error");
        }
    }
    // And the recoverable-id contract: a parse error on a line that did
    // carry an id echoes it back so the client can correlate.
    let err =
        lams::serve::Request::parse("run id=req-7 app=shape scale=tiny policy=warp").unwrap_err();
    assert!(err.response().to_string().starts_with("err id=req-7 "));
}
