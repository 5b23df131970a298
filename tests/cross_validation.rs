//! Cross-validation between the symbolic layer and the execution layer:
//! the Presburger-computed data sets must match exactly what the
//! reference op streams (written from the specs by the oracle's
//! `scalar` support) actually touch, for every process of every suite
//! application, under both the linear and a remapped layout — plus the
//! golden fixed-seed makespans that pin the simulator's results across
//! perf rewrites.

use std::collections::BTreeSet;
use std::sync::Arc;

use lams::core::{
    execute, ArrivalConfig, ArrivalPlan, ArtifactCache, EngineConfig, Experiment, LocalityPolicy,
    Policy, PolicyKind, ScenarioMatrix, SharingMatrix, SweepRunner,
};
use lams::layout::{HalfPage, Layout, RemapAssignment};
use lams::mpsoc::{BusConfig, CacheConfig, MachineConfig};
use lams::workloads::{suite, synthetic_app, AppSpec, Scale, SyntheticConfig, Workload};

#[path = "../crates/core/tests/support/oracle.rs"]
mod oracle;

use oracle::scalar;

/// Collects the first byte address of each access of each process's
/// reference stream; compares with the footprint predicted by the data
/// set mapped through the same layout.
fn check_workload(app: &AppSpec, w: &Workload, layout: &Layout) {
    let streams = scalar::op_streams(std::slice::from_ref(app), layout);
    for p in w.process_ids() {
        let traced: BTreeSet<i64> = streams[p.as_usize()]
            .iter()
            .filter_map(|op| op.addr())
            .map(|addr| addr as i64)
            .collect();
        let mut predicted = BTreeSet::new();
        for (&array, elems) in w.data_set(p).iter() {
            for e in elems.iter() {
                predicted.insert(layout.addr(array, e) as i64);
            }
        }
        assert_eq!(
            traced,
            predicted,
            "footprint mismatch for {} ({})",
            w.process(p).name,
            p
        );
    }
}

#[test]
fn traces_match_presburger_footprints_linear() {
    for app in suite::all(Scale::Tiny) {
        let w = Workload::single(app.clone()).unwrap();
        let layout = Layout::linear(w.arrays());
        check_workload(&app, &w, &layout);
    }
}

/// The workload's layout with every other array remapped, alternating
/// lower and upper half pages.
fn remap_every_other(w: &Workload) -> Layout {
    let mut asg = RemapAssignment::new();
    for (id, _) in w.arrays().iter() {
        if id.index() % 2 == 0 {
            asg.assign(
                id,
                if id.index() % 4 == 0 {
                    HalfPage::Lower
                } else {
                    HalfPage::Upper
                },
            );
        }
    }
    Layout::remapped(w.arrays(), &CacheConfig::paper_default(), &asg)
}

#[test]
fn traces_match_presburger_footprints_remapped() {
    for app in suite::all(Scale::Tiny) {
        let w = Workload::single(app.clone()).unwrap();
        // Remap every other array; footprints must still agree.
        check_workload(&app, &w, &remap_every_other(&w));
    }
}

/// Golden `.ltr` bytes: FNV-1a over the concatenated
/// `Workload::record(..).to_bytes()` of every fig6 app at Tiny scale,
/// on the linear layout and on the every-other-array remap. Nothing
/// else pins what a recorded trace file holds byte for byte, so a
/// change to the IR's block shapes, the builder's merging or the
/// encoder shows here even when every makespan stays put.
#[test]
fn golden_ltr_bytes_are_reproduced_exactly() {
    let fnv1a = |h: u64, bytes: &[u8]| {
        bytes.iter().fold(h, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
    };
    let (mut linear, mut remapped) = (0xCBF2_9CE4_8422_2325, 0xCBF2_9CE4_8422_2325);
    for app in suite::all(Scale::Tiny) {
        let w = Workload::single(app).expect("valid app");
        linear = fnv1a(linear, &w.record(&Layout::linear(w.arrays())).to_bytes());
        remapped = fnv1a(remapped, &w.record(&remap_every_other(&w)).to_bytes());
    }
    assert_eq!(
        (linear, remapped),
        (0xa8a7_7cd4_311a_b786, 0x0a5a_c480_f817_4e05),
        "recorded .ltr bytes drifted: got (0x{linear:016x}, 0x{remapped:016x})"
    );
}

#[test]
fn trace_lengths_match_declared() {
    for app in suite::all(Scale::Tiny) {
        let w = Workload::single(app.clone()).unwrap();
        let streams = scalar::op_streams(&[app], &Layout::linear(w.arrays()));
        assert_eq!(streams.len(), w.num_processes());
        for p in w.process_ids() {
            let n = streams[p.as_usize()].len() as u64;
            assert_eq!(n, w.trace_len(p), "{}", w.process(p).name);
        }
    }
}

/// One golden table: `(app, policy, makespan)` rows in fig6 order.
type GoldenGrid = [(&'static str, PolicyKind, u64)];

/// Golden fixed-seed makespans, recorded from the **seed engine**
/// (one-op-at-a-time dispatch loop, `Vec`-of-`Vec` cache, PR 1 baseline)
/// before the hot-path rewrite. The optimized engine must reproduce
/// every value exactly: the event-horizon batching, the flat-slab cache
/// and the O(1) shadow are performance changes only, bit-identical in
/// simulated behaviour. If an intentional *model* change ever shifts
/// these numbers, re-record them from the failing assertion's "got"
/// value (every golden in this file prints it) and say so in the
/// changelog.
///
/// Setup: every Table 1 app at Tiny scale, Table 2 machine (8 cores),
/// RS seed 12345, default RRS quantum.
const GOLDEN_FIG6_TINY: &GoldenGrid = &[
    ("Med-Im04", PolicyKind::Random, 5307),
    ("Med-Im04", PolicyKind::RoundRobin, 5007),
    ("Med-Im04", PolicyKind::Locality, 4707),
    ("MxM", PolicyKind::Random, 10339),
    ("MxM", PolicyKind::RoundRobin, 10189),
    ("MxM", PolicyKind::Locality, 10189),
    ("Radar", PolicyKind::Random, 10272),
    ("Radar", PolicyKind::RoundRobin, 10272),
    ("Radar", PolicyKind::Locality, 10122),
    ("Shape", PolicyKind::Random, 8431),
    ("Shape", PolicyKind::RoundRobin, 8431),
    ("Shape", PolicyKind::Locality, 7756),
    ("Track", PolicyKind::Random, 9088),
    ("Track", PolicyKind::RoundRobin, 9088),
    ("Track", PolicyKind::Locality, 8488),
    ("Usonic", PolicyKind::Random, 9200),
    ("Usonic", PolicyKind::RoundRobin, 8708),
    ("Usonic", PolicyKind::Locality, 7358),
];

#[test]
fn golden_fig6_makespans_are_reproduced_exactly() {
    for &(name, kind, expected) in GOLDEN_FIG6_TINY {
        let app = suite::by_name(name, Scale::Tiny).expect("suite app");
        let exp = Experiment::isolated(&app, MachineConfig::paper_default()).with_seed(12345);
        let got = exp.run(kind).expect("policy runs").makespan_cycles;
        assert_eq!(
            got, expected,
            "golden makespan drifted for {name}/{kind}: got {got}, recorded {expected}"
        );
    }
}

/// Golden fixed-seed makespans for **bus mode**: the fig6 Tiny grid on
/// the Table 2 machine behind a contended time-windowed bus
/// (`BusConfig::windowed(20, 256)` — 20-cycle transfers granted at
/// 256-cycle epoch boundaries). Recorded from the PR 5 windowed-arbiter
/// engine, whose schedules are pinned differentially against the per-op
/// reference in `crates/core/tests/bus.rs`; any future engine change
/// that silently shifts contended schedules fails here. Re-record (and
/// say so in the changelog) only for intentional *model* changes.
const GOLDEN_FIG6_TINY_BUS: &GoldenGrid = &[
    ("Med-Im04", PolicyKind::Random, 13953),
    ("Med-Im04", PolicyKind::RoundRobin, 12713),
    ("Med-Im04", PolicyKind::Locality, 11855),
    ("MxM", PolicyKind::Random, 20593),
    ("MxM", PolicyKind::RoundRobin, 20593),
    ("MxM", PolicyKind::Locality, 20593),
    ("Radar", PolicyKind::Random, 26737),
    ("Radar", PolicyKind::RoundRobin, 26721),
    ("Radar", PolicyKind::Locality, 26225),
    ("Shape", PolicyKind::Random, 20873),
    ("Shape", PolicyKind::RoundRobin, 34185),
    ("Shape", PolicyKind::Locality, 18825),
    ("Track", PolicyKind::Random, 18693),
    ("Track", PolicyKind::RoundRobin, 27653),
    ("Track", PolicyKind::Locality, 16953),
    ("Usonic", PolicyKind::Random, 20849),
    ("Usonic", PolicyKind::RoundRobin, 21361),
    ("Usonic", PolicyKind::Locality, 17265),
];

/// The same grid behind a contended **FCFS** bus (`BusConfig::fcfs(20)`),
/// recorded from the PR 22 engine — the last one that ran FCFS on a
/// path of its own (every batch capped at the second-smallest busy
/// clock) — before ISSUE 23 parked FCFS misses like windowed ones. The
/// park key, the single grant per heap pop and the eager preemption of
/// `docs/bus-model.md` must reproduce that engine's schedules exactly.
const GOLDEN_FIG6_TINY_FCFS: &GoldenGrid = &[
    ("Med-Im04", PolicyKind::Random, 7811),
    ("Med-Im04", PolicyKind::RoundRobin, 7095),
    ("Med-Im04", PolicyKind::Locality, 6905),
    ("MxM", PolicyKind::Random, 11830),
    ("MxM", PolicyKind::RoundRobin, 11830),
    ("MxM", PolicyKind::Locality, 11830),
    ("Radar", PolicyKind::Random, 14873),
    ("Radar", PolicyKind::RoundRobin, 14890),
    ("Radar", PolicyKind::Locality, 14743),
    ("Shape", PolicyKind::Random, 8784),
    ("Shape", PolicyKind::RoundRobin, 8770),
    ("Shape", PolicyKind::Locality, 8092),
    ("Track", PolicyKind::Random, 9174),
    ("Track", PolicyKind::RoundRobin, 9194),
    ("Track", PolicyKind::Locality, 8584),
    ("Usonic", PolicyKind::Random, 11808),
    ("Usonic", PolicyKind::RoundRobin, 12182),
    ("Usonic", PolicyKind::Locality, 9879),
];

/// Each contended golden grid: the bus, its table, and FNV-1a over the
/// table's makespan stream — one pinned number per grid (the bus-free
/// grid's counterpart is 0xd7f2a86da3cb3e3d, pinned in
/// `crates/core/tests/memo.rs`).
fn golden_bus_grids() -> [(BusConfig, &'static GoldenGrid, u64); 2] {
    [
        (
            BusConfig::windowed(20, 256),
            GOLDEN_FIG6_TINY_BUS,
            0xe822b756b2a7a793,
        ),
        (
            BusConfig::fcfs(20),
            GOLDEN_FIG6_TINY_FCFS,
            0x075e4c8ea776cce2,
        ),
    ]
}

#[test]
fn golden_bus_mode_makespans_are_reproduced_exactly() {
    for (bus, table, checksum) in golden_bus_grids() {
        let machine = MachineConfig::paper_default().with_bus(bus);
        let mut sum: u64 = 0xCBF2_9CE4_8422_2325;
        for &(name, kind, expected) in table {
            let app = suite::by_name(name, Scale::Tiny).expect("suite app");
            let exp = Experiment::isolated(&app, machine).with_seed(12345);
            let got = exp.run(kind).expect("policy runs").makespan_cycles;
            assert_eq!(
                got, expected,
                "golden makespan drifted for {name}/{kind} under {bus}: got {got}, recorded {expected}"
            );
            for b in got.to_le_bytes() {
                sum ^= b as u64;
                sum = sum.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        assert_eq!(
            sum, checksum,
            "golden checksum drifted under {bus}: got 0x{sum:016x}"
        );
    }
}

/// The same contended grids through the sweep subsystem: reports are
/// bit-identical at 1 and 4 worker threads and reproduce the goldens —
/// both arbiters stay deterministic under the parallel runner.
#[test]
fn golden_bus_mode_grid_is_thread_invariant() {
    let kinds = [
        PolicyKind::Random,
        PolicyKind::RoundRobin,
        PolicyKind::Locality,
    ];
    for (bus, table, _) in golden_bus_grids() {
        let machine = MachineConfig::paper_default().with_bus(bus);
        let mut reference = None;
        for threads in [1usize, 4] {
            // A fresh memo per run, shared by the whole grid.
            let memo = ArtifactCache::shared();
            let mut matrix = ScenarioMatrix::new();
            for app in suite::all(Scale::Tiny) {
                let exp = Experiment::isolated(&app, machine)
                    .with_seed(12345)
                    .with_memo(Arc::clone(&memo));
                matrix.push_all(&app.name, &exp, &kinds);
            }
            let reports = matrix
                .run(&SweepRunner::new(threads))
                .expect("bus-mode sweep runs");
            let makespans: Vec<u64> = reports
                .iter()
                .flat_map(|r| r.outcomes().iter().map(|o| o.result.makespan_cycles))
                .collect();
            assert_eq!(
                makespans,
                table.iter().map(|&(_, _, m)| m).collect::<Vec<_>>(),
                "sweep drifted from the goldens under {bus} at {threads} threads"
            );
            let dbg = format!("{reports:?}");
            match &reference {
                None => reference = Some(dbg),
                Some(r) => assert_eq!(r, &dbg, "reports drifted under {bus} at {threads} threads"),
            }
        }
    }
}

/// The engine also stays deterministic across repeated in-process runs
/// (policy state, hash maps and heap ordering leak no nondeterminism).
#[test]
fn golden_runs_are_repeatable_in_process() {
    let app = suite::usonic(Scale::Tiny);
    let exp = Experiment::isolated(&app, MachineConfig::paper_default()).with_seed(12345);
    let a = exp.run(PolicyKind::Locality).expect("runs");
    let b = exp.run(PolicyKind::Locality).expect("runs");
    assert_eq!(a.makespan_cycles, b.makespan_cycles);
    assert_eq!(a.core_sequences, b.core_sequences);
}

/// LS makespan of one app run straight through `execute` on the linear
/// layout — the set-up the Small-scale goldens below share.
fn ls_makespan(app: AppSpec, cfg: EngineConfig) -> u64 {
    let w = Workload::single(app).expect("valid app");
    let layout = Layout::linear(w.arrays());
    let sharing = SharingMatrix::from_workload(&w);
    let mut policy = LocalityPolicy::new(sharing, cfg.machine.num_cores);
    execute(&w, &layout, &mut policy, cfg)
        .expect("engine runs")
        .makespan_cycles
}

/// Small-scale LS goldens on the Table 2 machine: Shape out of both
/// simulators (the engine on compiled programs and the per-op oracle on
/// the reference op stream, otherwise pinned only against each other), and the
/// whole suite summed behind a 20-cycle bus under each arbiter (the
/// FCFS sum was recorded from the engine's former second-min-cap path
/// and must survive its removal).
#[test]
fn golden_small_scale_ls_makespans_are_reproduced_exactly() {
    let machine = MachineConfig::paper_default();
    let app = suite::shape(Scale::Small);
    let w = Workload::single(app.clone()).expect("valid app");
    let sharing = SharingMatrix::from_workload(&w);
    let make =
        || -> Box<dyn Policy> { Box::new(LocalityPolicy::new(sharing.clone(), machine.num_cores)) };
    let layout = Layout::linear(w.arrays());
    let shape = oracle::check(&[app], &w, &layout, &make, machine.into()).expect("engine runs");
    assert_eq!(shape.makespan_cycles, 28037, "Shape/Small LS drifted");
    for (bus, expected) in [
        (BusConfig::fcfs(20), 245527),
        (BusConfig::windowed(20, 256), 461648),
    ] {
        let cfg = EngineConfig::from(machine.with_bus(bus));
        let sum: u64 = suite::all(Scale::Small)
            .into_iter()
            .map(|app| ls_makespan(app, cfg))
            .sum();
        assert_eq!(sum, expected, "Small LS makespan sum drifted under {bus:?}");
    }
}

/// Golden 3C split: `(cold, capacity, conflict)` misses summed over the
/// fig6 grid at Large scale (every Table 1 app under RS, RRS and LS,
/// Table 2 machine, RS seed 12345). The makespan goldens cannot see how
/// misses split, since no simulated time depends on the split. Recorded
/// from the cache that touched its fully-associative shadow on every
/// hit, before the shadow was brought up to date only at misses; Large
/// is the smallest scale at which replaying the hits out of last-touch
/// order moves the sums. The split is kept only by a machine that
/// explains its misses; a plain one reads 0 on all three.
#[test]
fn golden_fig6_three_c_split_is_reproduced_exactly() {
    let mut sums = (0, 0, 0);
    let machine = MachineConfig::paper_default().with_explain(true);
    for app in suite::all(Scale::Large) {
        let exp = Experiment::isolated(&app, machine).with_seed(12345);
        for kind in [
            PolicyKind::Random,
            PolicyKind::RoundRobin,
            PolicyKind::Locality,
        ] {
            let c = exp.run(kind).expect("policy runs").machine.cache;
            sums.0 += c.cold_misses;
            sums.1 += c.capacity_misses;
            sums.2 += c.conflict_misses;
        }
    }
    assert_eq!(sums, (28763, 275, 15036), "3C split drifted: got {sums:?}");
}

/// Golden arrival-plan checksum: the seeded splitmix64 + inverse-CDF
/// generator is part of the reproducibility contract — a platform- or
/// refactor-induced drift in the stream silently changes every
/// open-system result, so the checksum is pinned the same way the fig6
/// makespans are. Re-record only for intentional generator changes,
/// and say so in the changelog.
const GOLDEN_ARRIVAL_CHECKSUM: u64 = 0xb7e9f9d6092b7ee7;

#[test]
fn golden_arrival_plan_checksum_is_stable() {
    let w = Workload::single(suite::shape(Scale::Tiny)).unwrap();
    let service: Vec<u64> = w.process_ids().map(|p| w.trace_len(p)).collect();
    let config = ArrivalConfig::poisson(800, 42);
    let plan = ArrivalPlan::generate(config, &service, 8);
    assert_eq!(plan.len(), service.len());
    assert_eq!(
        plan.checksum(),
        GOLDEN_ARRIVAL_CHECKSUM,
        "arrival generator drifted (got 0x{:016x})",
        plan.checksum()
    );
    // Same seed reproduces the stream; any other seed must not.
    let again = ArrivalPlan::generate(config, &service, 8);
    assert_eq!(plan.checksum(), again.checksum());
    let other = ArrivalPlan::generate(ArrivalConfig::poisson(800, 43), &service, 8);
    assert_ne!(plan.checksum(), other.checksum());
}

/// The same generator at scale: a million-process Poisson stream over
/// the Huge-scale Shape service lengths (cycled) — span and checksum are
/// pure functions of the seed, on any host.
#[test]
fn golden_million_process_arrival_plan_is_stable() {
    let w = Workload::single(suite::shape(Scale::Huge)).unwrap();
    let lens: Vec<u64> = w.process_ids().map(|p| w.trace_len(p)).collect();
    let service: Vec<u64> = lens.iter().copied().cycle().take(1_000_000).collect();
    let plan = ArrivalPlan::generate(ArrivalConfig::poisson(900, 42), &service, 8);
    assert_eq!(
        (plan.len(), plan.span(), plan.checksum()),
        (1_000_000, 19_115_505_265, 0xd010a52060ade9a8)
    );
}

/// Golden open-system run: a 192-process synthetic pipeline admitted by
/// a 0.9-load Poisson stream under RRS. Everything is simulated cycles,
/// so makespan, sojourn p99 and queue peak are exact, and a second run
/// reproduces the whole result.
#[test]
fn golden_open_pipeline_run_is_reproduced_exactly() {
    let app = synthetic_app(SyntheticConfig {
        seed: 0xA221,
        stages: 6,
        procs_per_stage: 32,
        dim: 96,
        max_halo: 2,
    });
    let exp = Experiment::isolated(&app, MachineConfig::paper_default())
        .with_arrivals(ArrivalConfig::poisson(900, 42));
    let first = exp.run(PolicyKind::RoundRobin).expect("open run completes");
    let m = first.arrivals.as_ref().expect("open run reports metrics");
    assert_eq!(
        (first.makespan_cycles, m.sojourn.p99, m.queue_depth_peak),
        (509568, 437812, 24)
    );
    let second = exp.run(PolicyKind::RoundRobin).expect("open run completes");
    assert_eq!(format!("{second:?}"), format!("{first:?}"));
}

/// The open-system fig6 Tiny grid through the sweep subsystem: reports
/// (makespans *and* steady-state arrival metrics — the Debug compare
/// covers both) are bit-identical at 1, 4 and 8 worker threads, with
/// the artifact memo disabled or shared. Arrival admission must add no
/// thread- or cache-dependent state to the engine.
#[test]
fn open_system_grid_is_thread_and_memo_invariant() {
    let arrivals = ArrivalConfig::poisson(900, 42);
    let mut reference = None;
    for threads in [1usize, 4, 8] {
        for memo in [ArtifactCache::disabled(), ArtifactCache::shared()] {
            let mut matrix = ScenarioMatrix::new();
            for app in suite::all(Scale::Tiny) {
                let exp = Experiment::isolated(&app, MachineConfig::paper_default())
                    .with_seed(12345)
                    .with_arrivals(arrivals)
                    .with_memo(Arc::clone(&memo));
                matrix.push_all(&app.name, &exp, PolicyKind::ALL);
            }
            let reports = matrix
                .run(&SweepRunner::new(threads))
                .expect("open-system sweep runs");
            let dbg = format!("{reports:?}");
            match &reference {
                None => reference = Some(dbg),
                Some(r) => assert_eq!(r, &dbg, "open-system reports drifted at {threads} threads"),
            }
        }
    }
}

#[test]
fn sharing_matrix_matches_trace_overlap() {
    // The sharing matrix (symbolic) must equal the overlap of traced
    // element addresses (operational) for a representative app.
    let app = suite::shape(Scale::Tiny);
    let w = Workload::single(app.clone()).unwrap();
    let layout = Layout::linear(w.arrays());
    let m = lams::core::SharingMatrix::from_workload(&w);
    let footprints: Vec<BTreeSet<u64>> = scalar::op_streams(&[app], &layout)
        .iter()
        .map(|ops| ops.iter().filter_map(|op| op.addr()).collect())
        .collect();
    for (i, p) in w.process_ids().enumerate() {
        for (j, q) in w.process_ids().enumerate() {
            if i < j {
                let overlap = footprints[i].intersection(&footprints[j]).count() as u64;
                assert_eq!(
                    m.get(p, q),
                    overlap,
                    "sharing mismatch between {} and {}",
                    w.process(p).name,
                    w.process(q).name
                );
            }
        }
    }
}
