//! The trace compiler against the reference op stream: every compiled
//! program decodes to exactly the stream `support/scalar.rs` writes
//! from the spec, op for op, on linear and remapped layouts — over
//! random synthetic applications and over the whole suite.

use proptest::prelude::*;

use lams_layout::{ArrayDecl, ArrayTable, HalfPage, Layout, RemapAssignment};
use lams_mpsoc::{CacheConfig, TraceOp};
use lams_presburger::{AffineExpr, AffineMap, IterSpace};
use lams_workloads::{
    suite, synthetic_app, AccessSpec, AppSpec, ProcessSpec, Scale, SyntheticConfig, Workload,
};

#[path = "support/scalar.rs"]
mod scalar;

/// Asserts that every process of `Workload::concurrent(apps)` compiles
/// to the reference stream and to its declared length.
fn check(apps: &[AppSpec], w: &Workload, layout: &Layout) {
    let streams = scalar::op_streams(apps, layout);
    assert_eq!(streams.len(), w.num_processes());
    for p in w.process_ids() {
        let reference = &streams[p.as_usize()];
        let prog = w.compile_trace(p, layout);
        assert_eq!(prog.len_ops(), w.trace_len(p), "{}", w.process(p).name);
        assert_eq!(
            prog.len_ops(),
            reference.len() as u64,
            "{}",
            w.process(p).name
        );
        let first_diff = prog
            .iter()
            .zip(reference)
            .position(|(got, want)| got != *want);
        assert_eq!(
            first_diff,
            None,
            "first differing op of {}",
            w.process(p).name
        );
    }
}

/// Every array remapped, halves alternating, onto a cache whose half
/// page is 128 bytes: each synthetic array splits into many chunks, so
/// the compiler must cut its strided runs at every chunk crossing.
fn chunked_layout(w: &Workload) -> Layout {
    let mut asg = RemapAssignment::new();
    for (id, _) in w.arrays().iter() {
        asg.assign(
            id,
            [HalfPage::Lower, HalfPage::Upper][id.index() as usize % 2],
        );
    }
    let tiny = CacheConfig::new(512, 2, 32).expect("valid geometry");
    Layout::remapped(w.arrays(), &tiny, &asg)
}

/// Every other suite array remapped on the Table 2 cache.
fn suite_remapped_layout(w: &Workload) -> Layout {
    let mut asg = RemapAssignment::new();
    for (id, _) in w.arrays().iter() {
        if id.index() % 2 == 0 {
            let half = if id.index() % 4 == 0 {
                HalfPage::Lower
            } else {
                HalfPage::Upper
            };
            asg.assign(id, half);
        }
    }
    Layout::remapped(w.arrays(), &CacheConfig::paper_default(), &asg)
}

fn arb_config() -> impl Strategy<Value = SyntheticConfig> {
    (0u64..256, 1usize..4, 1usize..6, 8i64..24, 0i64..4).prop_map(
        |(seed, stages, pps, dim, halo)| SyntheticConfig {
            seed,
            stages,
            procs_per_stage: pps,
            dim,
            max_halo: halo,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compiled_programs_decode_to_the_reference_stream(cfg in arb_config(), chunked in 0usize..2) {
        let app = synthetic_app(cfg);
        let w = Workload::single(app.clone()).expect("synthetic apps are valid");
        let layout = if chunked == 1 { chunked_layout(&w) } else { Layout::linear(w.arrays()) };
        check(&[app], &w, &layout);
    }
}

#[test]
fn suite_traces_compile_exactly_linear() {
    for app in suite::all(Scale::Tiny) {
        let w = Workload::single(app.clone()).unwrap();
        check(&[app], &w, &Layout::linear(w.arrays()));
    }
}

#[test]
fn suite_traces_compile_exactly_remapped() {
    for app in suite::all(Scale::Tiny) {
        let w = Workload::single(app.clone()).unwrap();
        check(&[app], &w, &suite_remapped_layout(&w));
    }
}

/// A concurrent mix numbers the second application's processes and
/// arrays after the first's; the reference must number them alike.
#[test]
fn concurrent_mix_compiles_exactly() {
    let apps = vec![suite::shape(Scale::Tiny), suite::track(Scale::Tiny)];
    let w = Workload::concurrent(apps.clone()).unwrap();
    check(&apps, &w, &Layout::linear(w.arrays()));
    check(&apps, &w, &suite_remapped_layout(&w));
}

/// Every suite process whose outer `rep` dimension no subscript reads
/// stores one pass, run `rep`'s extent (`Scale::passes` of its base)
/// times, at every scale that lengthens runs; a process that falls
/// back to one stored pass fails here. The folded programs still
/// decode to the reference stream.
#[test]
fn suite_processes_store_one_pass() {
    for scale in [Scale::Paper, Scale::Large, Scale::Huge] {
        let apps = suite::all(scale);
        let w = Workload::concurrent(apps.clone()).unwrap();
        let layout = Layout::linear(w.arrays());
        let specs = apps.iter().flat_map(|app| &app.processes);
        let mut repeated = 0;
        for (p, spec) in w.process_ids().zip(specs) {
            let dims = spec.space.dims();
            let rep_unread = dims.len() >= 2
                && spec
                    .accesses
                    .iter()
                    .all(|a| a.map.outputs().iter().all(|e| e.coeff(dims[0].name()) == 0));
            if !rep_unread {
                continue;
            }
            let (lo, hi) = spec.space.bounding_box().unwrap()[0];
            let prog = w.compile_trace(p, &layout);
            assert_eq!(
                prog.passes(),
                (hi - lo + 1) as u64,
                "{} at {scale}",
                spec.name
            );
            repeated += 1;
        }
        // All but MxM's 18 processes, whose subscripts read every loop.
        assert_eq!((repeated, w.num_processes()), (106, 124), "at {scale}");
        if scale == Scale::Paper {
            check(&apps, &w, &layout);
        }
    }
}

/// One process over `space` on a 64×64 array `A` and a 64-element `B`.
fn one_process_app(space: IterSpace, accesses: Vec<AccessSpec>) -> AppSpec {
    let mut arrays = ArrayTable::new();
    arrays.push(ArrayDecl::new("A", vec![64, 64], 4));
    arrays.push(ArrayDecl::new("B", vec![64], 4));
    AppSpec {
        name: "t".into(),
        description: "reference test".into(),
        arrays,
        processes: vec![ProcessSpec {
            name: "p".into(),
            space,
            accesses,
            compute_cycles_per_iter: 3,
        }],
        deps: vec![],
    }
}

/// The reference itself, against addresses worked out by hand: points
/// in row-major order, accesses then one `Compute` per point.
#[test]
fn box_trace_order_and_length() {
    let space = IterSpace::builder()
        .dim_range("i", 0, 2)
        .dim_range("j", 0, 3)
        .build()
        .unwrap();
    let a = lams_layout::ArrayId::new(0);
    let app = one_process_app(
        space,
        vec![AccessSpec::read(a, AffineMap::identity(["i", "j"]))],
    );
    let layout = Layout::linear(&app.arrays);
    let ops = &scalar::op_streams(&[app], &layout)[0];
    assert_eq!(ops.len(), 6 * 2);
    let at = |i: i64, j: i64| layout.addr(a, i * 64 + j);
    assert_eq!(ops[0], TraceOp::read(at(0, 0)));
    assert_eq!(ops[1], TraceOp::compute(3));
    assert_eq!(ops[2], TraceOp::read(at(0, 1)));
    assert_eq!(ops[6], TraceOp::read(at(1, 0)));
}

/// A read and a write per point resolve through the layout, and a
/// constant subscript pins its dimension.
#[test]
fn trace_resolves_addresses() {
    let space = IterSpace::builder().dim_range("i", 0, 32).build().unwrap();
    let (a, b) = (lams_layout::ArrayId::new(0), lams_layout::ArrayId::new(1));
    let app = one_process_app(
        space,
        vec![
            AccessSpec::read(
                a,
                AffineMap::new(vec![AffineExpr::var("i"), AffineExpr::constant(5)]),
            ),
            AccessSpec::write(b, AffineMap::new(vec![AffineExpr::var("i")])),
        ],
    );
    let layout = Layout::linear(&app.arrays);
    let ops = &scalar::op_streams(&[app], &layout)[0];
    assert_eq!(ops.len(), 32 * 3);
    assert_eq!(ops[0], TraceOp::read(layout.addr(a, 5)));
    assert_eq!(ops[1], TraceOp::write(layout.addr(b, 0)));
    assert_eq!(ops[2], TraceOp::compute(3));
    assert_eq!(ops[3], TraceOp::read(layout.addr(a, 64 + 5)));
}
