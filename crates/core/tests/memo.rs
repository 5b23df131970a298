//! Tests for the artifact memo ([`lams_core::memo`]): cached and
//! uncached sweeps of the fig6 Tiny grid are **bit-identical** at any
//! thread count and pinned to its makespan checksum, the counters show
//! the reuse the memo exists for and balance under concurrency, and
//! property tests hold memo keys (content fingerprints) to collide only
//! for identical (workload, layout) content. That every memo mode
//! answers what the oracle answers is the scenario generator's check
//! (`tests/scenarios.rs`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use lams_core::{
    ArtifactCache, EvictionPolicy, Experiment, PolicyKind, RunResult, ScenarioMatrix, SweepRunner,
};
use lams_layout::{ArrayDecl, ArrayTable, HalfPage, Layout, RemapAssignment};
use lams_mpsoc::{machine_fingerprint, BusConfig, CacheConfig, MachineConfig};
use lams_presburger::{AffineExpr, AffineMap, IterSpace};
use lams_workloads::{suite, AccessSpec, AppSpec, ProcessSpec, Scale, Workload};

/// The fig6-style golden matrix on `memo`: every suite app at Tiny
/// scale under RS/RRS/LS on the Table 2 machine, RS seed 12345 —
/// exactly the grid whose makespans the `0xd7f2a86da3cb3e3d` checksum
/// below pins.
fn golden_matrix(memo: &Arc<ArtifactCache>) -> ScenarioMatrix {
    let kinds = [
        PolicyKind::Random,
        PolicyKind::RoundRobin,
        PolicyKind::Locality,
    ];
    let mut m = ScenarioMatrix::new();
    for app in suite::all(Scale::Tiny) {
        let exp = Experiment::isolated(&app, MachineConfig::paper_default())
            .with_seed(12345)
            .with_memo(Arc::clone(memo));
        m.push_all(&app.name, &exp, &kinds);
    }
    m
}

/// FNV-1a over the makespan stream (the repo benchmark re-derives it
/// in `benchmark/src/check.rs`) — the one number that pins the whole
/// grid across PRs.
fn checksum(makespans: &[u64]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for m in makespans {
        for b in m.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn report_makespans(reports: &[lams_core::ComparisonReport]) -> Vec<u64> {
    reports
        .iter()
        .flat_map(|r| r.outcomes().iter().map(|o| o.result.makespan_cycles))
        .collect()
}

#[test]
fn cached_sweep_is_bit_identical_to_uncached_and_checksum_pinned() {
    // Uncached reference: the pass-through cache recomputes everything,
    // exactly the pre-memo behaviour.
    let uncached = ArtifactCache::disabled();
    let reference = golden_matrix(&uncached)
        .run(&SweepRunner::sequential())
        .expect("uncached sweep runs");
    assert_eq!(uncached.stats().hits(), 0, "disabled cache must not hit");

    // The golden checksum recorded since PR 1 (per-run makespans in
    // tests/cross_validation.rs): memoization must not move it.
    assert_eq!(
        checksum(&report_makespans(&reference)),
        0xd7f2a86da3cb3e3d,
        "uncached fig6 Tiny checksum drifted"
    );

    for threads in [1usize, 4] {
        let memo = ArtifactCache::shared();
        let cached = golden_matrix(&memo)
            .run(&SweepRunner::new(threads))
            .expect("cached sweep runs");
        assert_eq!(
            format!("{cached:?}"),
            format!("{reference:?}"),
            "cached sweep drifted from uncached at {threads} threads"
        );
        assert_eq!(
            checksum(&report_makespans(&cached)),
            0xd7f2a86da3cb3e3d,
            "cached fig6 Tiny checksum drifted at {threads} threads"
        );
        // Hit counters are deterministic only sequentially: concurrent
        // workers racing on a cold slot each count a miss (both compute,
        // first publisher wins), so at 4 threads only the results — not
        // the counters — are pinned.
        if threads == 1 {
            let stats = memo.stats();
            assert!(
                stats.hits() > 0,
                "policy-dense matrix must hit the memo: {stats}"
            );
            // Three policies per app share one compiled program set.
            assert!(
                stats.program_hits >= 6,
                "each app's programs should be reused across its policies: {stats}"
            );
        }
    }
}

#[test]
fn repeated_lsm_runs_reuse_every_artifact() {
    let apps = vec![suite::shape(Scale::Tiny), suite::track(Scale::Tiny)];
    let exp = Experiment::concurrent(&apps, MachineConfig::paper_default().with_cores(4));
    let (first, art_first) = exp.run_lsm().expect("lsm runs");
    // The ladder's candidates remap a strict subset of the arrays, so
    // the untouched processes' programs come from the per-process slot;
    // the plain LS run *is* the pilot LSM's phase 1 filled.
    let stats = exp.memo().stats();
    assert!(stats.per_process_hits > 0, "no per-process reuse: {stats}");
    exp.run(PolicyKind::Locality).expect("ls runs");
    let stats_after_first = exp.memo().stats();
    assert!(
        stats_after_first.pilot_hits > stats.pilot_hits,
        "LS and the LSM pilot should share one slot: {stats_after_first}"
    );
    let (second, art_second) = exp.run_lsm().expect("lsm runs again");
    let stats_after_second = exp.memo().stats();

    assert_eq!(first.makespan_cycles, second.makespan_cycles);
    assert_eq!(format!("{art_first:?}"), format!("{art_second:?}"));
    // The second run pays for no new artifact at all.
    assert_eq!(
        stats_after_first.misses(),
        stats_after_second.misses(),
        "a repeated LSM run must not recompute artifacts"
    );
    assert!(stats_after_second.hits() > stats_after_first.hits());
}

/// A bounded cache at `capacity` (the policy argument is a vestige:
/// there is one eviction algorithm).
fn bounded(capacity: usize) -> Arc<ArtifactCache> {
    Arc::new(ArtifactCache::bounded(capacity, EvictionPolicy::default()))
}

#[test]
fn tight_capacity_actually_evicts_and_still_serves() {
    // A dense matrix against a one-entry cache: the single slot must
    // churn (evictions observable) while results stay correct (checked
    // against the fig6 checksum like the unbounded path).
    let memo = bounded(1);
    let reports = golden_matrix(&memo)
        .run(&SweepRunner::sequential())
        .expect("bounded sweep runs");
    assert_eq!(
        checksum(&report_makespans(&reports)),
        0xd7f2a86da3cb3e3d,
        "fig6 Tiny checksum drifted under capacity 1"
    );
    let stats = memo.stats();
    assert!(stats.evictions > 0, "{stats}");
    assert!(stats.occupancy_entries <= 1, "{stats}");
    // MemoStats::Display carries the occupancy block for bounded
    // caches (the service's `stats` verb and BENCH_service rely on
    // the fields being populated).
    let rendered = stats.to_string();
    assert!(
        rendered.contains("entries") && rendered.contains("evictions"),
        "{rendered}"
    );
}

#[test]
fn bounded_counters_account_under_concurrency() {
    // Hammer a tiny bounded cache from 8 threads with lookups of 8
    // distinct workloads; whatever the interleaving, the books must
    // balance.
    let workloads: Vec<Workload> = (0..8)
        .map(|i| {
            build_workload(WorkloadParams {
                n: 16 + i,
                span: 4,
                shift: 0,
                compute: 1,
                dep: false,
            })
        })
        .collect();
    // Each workload's LS run on the linear layout, the value its
    // `ls_result` slot must serve whichever thread fills it.
    let machine = MachineConfig::paper_default();
    let linear: Vec<Layout> = workloads
        .iter()
        .map(|w| Layout::linear(w.arrays()))
        .collect();
    let expected: Vec<RunResult> = workloads
        .iter()
        .map(|w| {
            let exp = Experiment::for_workload(w.clone(), machine);
            exp.run(PolicyKind::Locality).expect("LS runs")
        })
        .collect();
    const THREADS: usize = 8;
    const ROUNDS: usize = 4;
    let memo = bounded(4);
    let filling = AtomicBool::new(true);
    std::thread::scope(|s| {
        // A reader polls while the fillers run: every snapshot is taken
        // under the cache's one lock, so even mid-race it never shows
        // more residents than the capacity, nor more insertions than
        // counted misses.
        let reader = s.spawn(|| {
            let mut reads = 0u64;
            while filling.load(Ordering::Acquire) || reads == 0 {
                let stats = memo.stats();
                assert!(stats.occupancy_entries <= 4, "mid-race: {stats}");
                assert!(
                    stats.occupancy_entries + stats.evictions <= stats.misses(),
                    "mid-race, more insertions than misses: {stats}"
                );
                reads += 1;
            }
        });
        let fillers: Vec<_> = (0..THREADS)
            .map(|t| {
                let memo = &memo;
                let workloads = &workloads;
                let (machine, linear, expected) = (&machine, &linear, &expected);
                s.spawn(move || {
                    for r in 0..ROUNDS {
                        // Stagger the start so threads collide on
                        // different keys.
                        for i in 0..workloads.len() {
                            let k = (i + t + r) % workloads.len();
                            let w = &workloads[k];
                            let fill = || Ok(expected[k].clone());
                            let ls = memo.ls_result(w, machine, &linear[k], fill).unwrap();
                            assert_eq!(ls.makespan_cycles, expected[k].makespan_cycles);
                            let programs = memo.programs(w, &linear[k]);
                            assert_eq!(programs.len(), w.num_processes());
                        }
                    }
                })
            })
            .collect();
        // Stop the reader before surfacing a filler's panic, or the
        // scope would wait on it forever.
        let filled: Vec<_> = fillers.into_iter().map(|f| f.join()).collect();
        filling.store(false, Ordering::Release);
        reader.join().unwrap();
        for result in filled {
            result.unwrap();
        }
    });
    let stats = memo.stats();
    // One LS-result and one program-set lookup per step, and each
    // program-set miss looks up both of its workload's processes.
    let steps = (THREADS * ROUNDS * workloads.len()) as u64;
    let lookups = 2 * steps + 2 * stats.program_misses;
    assert_eq!(
        stats.hits() + stats.misses(),
        lookups,
        "every lookup counts exactly once: {stats}"
    );
    assert_eq!(stats.pilot_hits + stats.pilot_misses, steps, "{stats}");
    assert_eq!(stats.program_hits + stats.program_misses, steps, "{stats}");
    assert!(stats.occupancy_entries <= 4, "{stats}");
    // At least 16 distinct entries pushed through 4 slots: eviction must
    // have occurred, and each eviction (and each resident entry)
    // is backed by a counted miss that inserted it.
    assert!(stats.evictions > 0, "{stats}");
    assert!(
        stats.occupancy_entries + stats.evictions <= stats.misses(),
        "more insertions than misses: {stats}"
    );
}

/// Parameters of a tiny two-process synthetic app. Every field is
/// observable in the workload's simulated behaviour, so two parameter
/// sets are equal iff the workloads have identical content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WorkloadParams {
    /// Array length (both arrays).
    n: i64,
    /// Iteration count of each process (`<= n`).
    span: i64,
    /// Element offset of the second process's window.
    shift: i64,
    /// Compute cycles per iteration.
    compute: u64,
    /// Whether process 1 depends on process 0.
    dep: bool,
}

fn build_workload(p: WorkloadParams) -> Workload {
    let mut arrays = ArrayTable::new();
    let a = arrays.push(ArrayDecl::new("A", vec![p.n], 4));
    let b = arrays.push(ArrayDecl::new("B", vec![p.n], 4));
    let mk = |nm: &str, lo: i64, hi: i64| ProcessSpec {
        name: nm.to_string(),
        space: IterSpace::builder().dim_range("i", lo, hi).build().unwrap(),
        accesses: vec![
            AccessSpec::read(a, AffineMap::new(vec![AffineExpr::var("i")])),
            AccessSpec::write(b, AffineMap::new(vec![AffineExpr::var("i")])),
        ],
        compute_cycles_per_iter: p.compute,
    };
    let app = AppSpec {
        name: "fp-probe".into(),
        description: "fingerprint probe".into(),
        arrays,
        processes: vec![mk("p0", 0, p.span), mk("p1", p.shift, p.shift + p.span)],
        deps: if p.dep { vec![(0, 1)] } else { vec![] },
    };
    Workload::single(app).expect("probe app is valid")
}

fn workload_params() -> impl Strategy<Value = WorkloadParams> {
    (16i64..32, 4i64..12, 0i64..4, 1u64..5, 0u8..2).prop_map(|(n, span, shift, compute, dep)| {
        WorkloadParams {
            n,
            span,
            shift,
            compute,
            dep: dep == 1,
        }
    })
}

/// A remap assignment over the probe's two arrays, as drawn values:
/// 0 = linear, 1 = lower half, 2 = upper half.
fn layout_for(w: &Workload, code: (u8, u8)) -> Layout {
    let mut asg = RemapAssignment::new();
    let ids: Vec<_> = w.arrays().iter().map(|(id, _)| id).collect();
    for (&id, &c) in ids.iter().zip([code.0, code.1].iter()) {
        match c {
            1 => asg.assign(id, HalfPage::Lower),
            2 => asg.assign(id, HalfPage::Upper),
            _ => {}
        }
    }
    if asg.is_empty() {
        Layout::linear(w.arrays())
    } else {
        Layout::remapped(w.arrays(), &CacheConfig::paper_default(), &asg)
    }
}

/// A drawn bus configuration: `None`, FCFS, or windowed — the machine
/// axis the windowed-arbiter PR added to [`machine_fingerprint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BusParams {
    /// 0 = no bus, 1 = FCFS, 2 = windowed.
    mode: u8,
    occupancy: u64,
    window: u64,
}

fn bus_params() -> impl Strategy<Value = BusParams> {
    (0u8..3, 0u64..4, 1u64..5).prop_map(|(mode, occ, win)| BusParams {
        mode,
        // Small discrete grids so draws collide often and the `==`
        // direction of the iff is actually exercised.
        occupancy: occ * 10,
        window: win * 64,
    })
}

fn machine_for(p: BusParams) -> MachineConfig {
    let base = MachineConfig::paper_default();
    match p.mode {
        0 => base,
        1 => base.with_bus(BusConfig::fcfs(p.occupancy)),
        _ => base.with_bus(BusConfig::windowed(p.occupancy, p.window)),
    }
}

/// The fields of `BusParams` the simulation (and hence the fingerprint)
/// can observe: the window is irrelevant without a windowed bus.
fn observable(p: BusParams) -> (u8, u64, u64) {
    match p.mode {
        0 => (0, 0, 0),
        1 => (1, p.occupancy, 0),
        _ => (2, p.occupancy, p.window),
    }
}

/// Like [`build_workload`], but each process touches **one private
/// array** (p0 → A, p1 → B): the disjoint-touch shape whose delta keys
/// must survive a remap of the *other* process's array — the reuse the
/// per-process program slot exists for.
fn build_split_workload(p: WorkloadParams) -> Workload {
    let mut arrays = ArrayTable::new();
    let a = arrays.push(ArrayDecl::new("A", vec![p.n], 4));
    let b = arrays.push(ArrayDecl::new("B", vec![p.n], 4));
    let mk = |nm: &str, arr, lo: i64, hi: i64| ProcessSpec {
        name: nm.to_string(),
        space: IterSpace::builder().dim_range("i", lo, hi).build().unwrap(),
        accesses: vec![
            AccessSpec::read(arr, AffineMap::new(vec![AffineExpr::var("i")])),
            AccessSpec::write(arr, AffineMap::new(vec![AffineExpr::var("i")])),
        ],
        compute_cycles_per_iter: p.compute,
    };
    let app = AppSpec {
        name: "delta-probe".into(),
        description: "delta key probe".into(),
        arrays,
        processes: vec![
            mk("p0", a, 0, p.span),
            mk("p1", b, p.shift, p.shift + p.span),
        ],
        deps: if p.dep { vec![(0, 1)] } else { vec![] },
    };
    Workload::single(app).expect("probe app is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tentpole soundness: two (process, candidate-layout) pairs may
    /// share a delta key **only** when the effective restricted layouts
    /// compile byte-identical programs — the invariant that makes
    /// serving one process's compiled program to another lookup safe.
    #[test]
    fn delta_keys_collide_only_for_byte_identical_programs(
        wp in workload_params(),
        split in 0u8..2,
        ca in (0u8..3, 0u8..3),
        cb in (0u8..3, 0u8..3),
    ) {
        let w = if split == 1 { build_split_workload(wp) } else { build_workload(wp) };
        let (la, lb) = (layout_for(&w, ca), layout_for(&w, cb));
        for proc in w.process_ids() {
            let touched = w.arrays_of(proc);
            let key_a = (w.process_fingerprint(proc), la.restricted_fingerprint(&touched));
            let key_b = (w.process_fingerprint(proc), lb.restricted_fingerprint(&touched));
            if key_a == key_b {
                prop_assert_eq!(
                    w.compile_trace(proc, &la),
                    w.compile_trace(proc, &lb),
                    "equal delta key must mean byte-identical programs ({:?} vs {:?})",
                    ca, cb
                );
            }
            // The key is a pure function of content: recomputed, it
            // cannot drift.
            prop_assert_eq!(
                key_a,
                (w.process_fingerprint(proc), la.restricted_fingerprint(&touched))
            );
        }
        // Workload level: an equal delta fingerprint means every
        // process compiles identically — identical engine input, hence
        // the ladder may resolve the candidate from the pilot's result.
        if w.delta_fingerprint(&la) == w.delta_fingerprint(&lb) {
            for proc in w.process_ids() {
                prop_assert_eq!(w.compile_trace(proc, &la), w.compile_trace(proc, &lb));
            }
        }
        // The positive direction the slot exists for: a process whose
        // (sole, unremapped) array is untouched by the candidate's remap
        // keeps its key and program even though the whole-layout
        // fingerprints differ.
        if split == 1 && ca.0 == 0 && cb.0 == 0 {
            let p0 = w.process_ids().next().expect("two processes");
            let touched = w.arrays_of(p0);
            prop_assert_eq!(
                la.restricted_fingerprint(&touched),
                lb.restricted_fingerprint(&touched),
                "remap-disjoint process must keep its restricted key ({:?} vs {:?})",
                ca, cb
            );
            prop_assert_eq!(w.compile_trace(p0, &la), w.compile_trace(p0, &lb));
        }
    }

    /// Machine fingerprints — the pilot memo's machine axis — collide
    /// only for identical bus configurations: a memoized pilot can
    /// never alias across bus modes, occupancies or arbiter windows.
    #[test]
    fn machine_fingerprints_collide_only_for_identical_bus_configs(
        pa in bus_params(),
        pb in bus_params(),
    ) {
        let (ma, mb) = (machine_for(pa), machine_for(pb));
        prop_assert_eq!(
            machine_fingerprint(&ma) == machine_fingerprint(&mb),
            observable(pa) == observable(pb),
            "bus configs {:?} vs {:?}", pa, pb
        );
        // Rebuilt from the same params: always equal.
        prop_assert_eq!(machine_fingerprint(&machine_for(pa)), machine_fingerprint(&ma));
    }

    /// Operationally: one cache, two pilot lookups for the same
    /// workload on two machines — a shared slot iff the bus configs
    /// agree, so LS results simulated under one arbitration mode are
    /// never served to a sweep running another.
    #[test]
    fn pilot_cache_keys_collide_only_for_identical_bus_configs(
        wp in workload_params(),
        pa in bus_params(),
        pb in bus_params(),
    ) {
        let w = build_workload(wp);
        let (ma, mb) = (machine_for(pa), machine_for(pb));
        let memo = ArtifactCache::new();
        let layout = Layout::linear(w.arrays());
        let sharing = lams_core::SharingMatrix::from_workload(&w);
        let run = |machine: &MachineConfig| {
            memo.ls_result(&w, machine, &layout, || {
                let mut p = lams_core::LocalityPolicy::new(sharing.clone(), machine.num_cores);
                lams_core::execute(&w, &layout, &mut p, lams_core::EngineConfig::from(*machine))
            })
            .expect("pilot runs")
        };
        let ra = run(&ma);
        let rb = run(&mb);
        let stats = memo.stats();
        let same = observable(pa) == observable(pb);
        prop_assert_eq!(stats.pilot_hits, u64::from(same));
        prop_assert_eq!(stats.pilot_misses, 2 - u64::from(same));
        if same {
            prop_assert_eq!(ra.makespan_cycles, rb.makespan_cycles);
        }
    }

    /// Workload fingerprints collide only for identical content: equal
    /// parameters (independently rebuilt workloads) fingerprint equal,
    /// different parameters fingerprint different.
    #[test]
    fn workload_fingerprints_collide_only_for_identical_content(
        pa in workload_params(),
        pb in workload_params(),
    ) {
        let (wa, wb) = (build_workload(pa), build_workload(pb));
        prop_assert_eq!(
            wa.fingerprint() == wb.fingerprint(),
            pa == pb,
            "params {:?} vs {:?}", pa, pb
        );
        // Rebuilt from the same params: always equal.
        prop_assert_eq!(build_workload(pa).fingerprint(), wa.fingerprint());
    }

    /// Restricted layout fingerprints — the primitive every program and
    /// LS-result key is built from — collide only for identical
    /// placement of the listed arrays (here: all of them).
    #[test]
    fn layout_fingerprints_collide_only_for_identical_content(
        p in workload_params(),
        ca in (0u8..3, 0u8..3),
        cb in (0u8..3, 0u8..3),
    ) {
        let w = build_workload(p);
        let all: Vec<_> = w.arrays().iter().map(|(id, _)| id).collect();
        let (la, lb) = (layout_for(&w, ca), layout_for(&w, cb));
        prop_assert_eq!(
            la.restricted_fingerprint(&all) == lb.restricted_fingerprint(&all),
            ca == cb
        );
        prop_assert_eq!(
            layout_for(&w, ca).restricted_fingerprint(&all),
            la.restricted_fingerprint(&all)
        );
    }

    /// The memo's program-set key is the workload fingerprint paired
    /// with the workload's delta key for the layout: two lookups share
    /// a slot iff both contents are identical (every probe process
    /// touches both arrays, so no remap is unobservable).
    #[test]
    fn program_cache_keys_collide_only_for_identical_workload_and_layout(
        pa in workload_params(),
        pb in workload_params(),
        ca in (0u8..3, 0u8..3),
        cb in (0u8..3, 0u8..3),
    ) {
        let (wa, wb) = (build_workload(pa), build_workload(pb));
        let (la, lb) = (layout_for(&wa, ca), layout_for(&wb, cb));
        let key_a = (wa.fingerprint(), wa.delta_fingerprint(&la));
        let key_b = (wb.fingerprint(), wb.delta_fingerprint(&lb));
        prop_assert_eq!(key_a == key_b, pa == pb && ca == cb);

        // Operationally: one cache, two lookups — a shared slot iff the
        // keys agree (checked through hit counters).
        let memo = ArtifactCache::new();
        memo.programs(&wa, &la);
        memo.programs(&wb, &lb);
        let stats = memo.stats();
        let expected_hits = u64::from(key_a == key_b);
        prop_assert_eq!(stats.program_hits, expected_hits);
        prop_assert_eq!(stats.program_misses, 2 - expected_hits);
    }
}
