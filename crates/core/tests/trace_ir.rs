//! Differential tests for the compiled-trace engine:
//! executing the compiled programs must be **bit-identical** to the
//! per-op oracle (`support/oracle.rs`) walking the reference op stream
//! it writes from the application specs — makespans, dispatch sequences,
//! per-process execution records and cache statistics — across
//! policies, core counts, preemption quanta, remapped layouts and bus
//! modes. (The `.ltr` record→replay round trip is held to the same
//! oracle by the scenario generator, `tests/scenarios.rs`.)

use lams_core::{
    EngineConfig, LocalityPolicy, Policy, RandomPolicy, RoundRobinPolicy, RunResult, SharingMatrix,
};
use lams_layout::Layout;
use lams_mpsoc::{BusConfig, CoreId, MachineConfig};
use lams_procgraph::ProcessId;
use lams_workloads::{suite, AppSpec, Scale, Workload};

#[path = "support/oracle.rs"]
mod oracle;
#[path = "support/quantum.rs"]
mod quantum;

/// An owned [`oracle::PolicyFactory`].
type PolicyFactory = Box<oracle::PolicyFactory<'static>>;

/// Runs one policy, its quantum replaced by `quantum` where that is
/// `Some`, through the IR engine and the oracle, asserts exact equality,
/// and returns the engine's result.
fn assert_ir_matches_scalar(
    app: &AppSpec,
    w: &Workload,
    layout: &Layout,
    make_policy: &oracle::PolicyFactory<'_>,
    machine: MachineConfig,
    quantum: Option<u64>,
) -> RunResult {
    let make = || quantum::with_quantum(make_policy(), quantum);
    let cfg = EngineConfig::from(machine);
    oracle::check(std::slice::from_ref(app), w, layout, &make, cfg).expect("engine runs")
}

#[test]
fn ir_matches_scalar_across_suite_and_policies() {
    for app in suite::all(Scale::Tiny) {
        let w = Workload::single(app.clone()).unwrap();
        let layout = Layout::linear(w.arrays());
        let sharing = SharingMatrix::from_workload(&w);
        let policies: Vec<(&str, PolicyFactory)> = vec![
            ("rs", Box::new(|| Box::new(RandomPolicy::new(12345)))),
            ("rrs", Box::new(|| Box::new(RoundRobinPolicy::new(5_000)))),
            (
                "ls",
                Box::new(move || Box::new(LocalityPolicy::new(sharing.clone(), 8))),
            ),
        ];
        for (name, make) in &policies {
            // 4-core suite runs meet the oracle in `bus.rs` and `prop.rs`.
            for cores in [1usize, 8] {
                let machine = MachineConfig::paper_default().with_cores(cores);
                let r = assert_ir_matches_scalar(&app, &w, &layout, make, machine, None);
                assert!(r.makespan_cycles > 0, "{name} on {cores} cores");
            }
        }
    }
}

#[test]
fn ir_matches_scalar_under_tight_quanta() {
    // Tiny quanta force preemptions that split runs mid-line and
    // mid-round — the hardest splitting cases for the IR cursor.
    let app = suite::shape(Scale::Tiny);
    let w = Workload::single(app.clone()).unwrap();
    let layout = Layout::linear(w.arrays());
    for quantum in [77u64, 100, 333, 1_000] {
        let make: Box<dyn Fn() -> Box<dyn Policy>> = Box::new(|| Box::new(RandomPolicy::new(7)));
        let machine = MachineConfig::paper_default().with_cores(4);
        let r = assert_ir_matches_scalar(&app, &w, &layout, &make, machine, Some(quantum));
        assert!(
            r.processes.values().any(|e| e.dispatches > 1),
            "quantum {quantum} caused no preemption"
        );
    }
}

#[test]
fn ir_matches_scalar_on_remapped_layouts() {
    // Remapped arrays make addresses piecewise affine: the compiler
    // must split runs at half-page chunk crossings.
    use lams_layout::{HalfPage, RemapAssignment};
    for app in suite::all(Scale::Tiny) {
        let w = Workload::single(app.clone()).unwrap();
        let mut asg = RemapAssignment::new();
        for (id, _) in w.arrays().iter() {
            asg.assign(
                id,
                if id.index() % 2 == 0 {
                    HalfPage::Lower
                } else {
                    HalfPage::Upper
                },
            );
        }
        let cache = lams_mpsoc::CacheConfig::paper_default();
        let layout = Layout::remapped(w.arrays(), &cache, &asg);
        let make: Box<dyn Fn() -> Box<dyn Policy>> =
            Box::new(|| Box::new(RoundRobinPolicy::new(10_000)));
        assert_ir_matches_scalar(
            &app,
            &w,
            &layout,
            &make,
            MachineConfig::paper_default(),
            None,
        );
    }
}

/// Satellite: the engine under an **FCFS** bus (misses parked at their
/// pre-op clock and granted one per heap pop, on the same path as
/// windowed arbitration — `crates/core/tests/bus.rs`) is pinned
/// differentially — the IR engine and the per-op oracle, which
/// takes its grants inline, agree op-for-op under contention, and the
/// bus actually costs time relative to the uncontended machine.
#[test]
fn bus_mode_batching_is_differentially_pinned() {
    let app = suite::track(Scale::Tiny);
    let w = Workload::single(app.clone()).unwrap();
    let layout = Layout::linear(w.arrays());
    let make: Box<dyn Fn() -> Box<dyn Policy>> = Box::new(|| Box::new(RandomPolicy::new(3)));
    let no_bus = MachineConfig::paper_default().with_cores(4);
    let bus = no_bus.with_bus(BusConfig::fcfs(12));
    let free = assert_ir_matches_scalar(&app, &w, &layout, &make, no_bus, None);
    let contended = assert_ir_matches_scalar(&app, &w, &layout, &make, bus, None);
    // The arbiter actually engaged (and only under the bus config).
    // Makespan and even busy cycles may move either way — arbitration
    // shifts dispatch timing and with it the policy's placement and
    // cache behaviour — so bus waits are the direct observable.
    assert_eq!(free.machine.total_bus_wait_cycles, 0);
    assert!(
        contended.machine.total_bus_wait_cycles > 0,
        "no bus contention ever occurred"
    );
    assert_ne!(
        format!("{free:?}"),
        format!("{contended:?}"),
        "bus model changed nothing"
    );
}

#[test]
fn bundle_sharing_reads_one_pass_and_matches_the_footprints() {
    // `from_bundle` collects each program's addresses from its first
    // pass only; at Paper scale programs store three passes or more, so
    // a footprint that stopped short of a whole pass would show here.
    let workloads = suite::all(Scale::Paper)
        .into_iter()
        .map(|app| Workload::single(app).unwrap())
        .chain((1..=6).map(|t| Workload::concurrent(suite::mix(t, Scale::Paper)).unwrap()));
    let mut repeated = 0;
    for w in workloads {
        let bundle = w.record(&Layout::linear(w.arrays()));
        repeated += bundle
            .records
            .iter()
            .filter(|r| r.program.passes() >= 3)
            .count();
        assert_eq!(
            SharingMatrix::from_bundle(&bundle),
            SharingMatrix::from_workload(&w),
            "{}",
            w.name()
        );
    }
    assert!(repeated > 0, "no Paper-scale program stores several passes");
}
