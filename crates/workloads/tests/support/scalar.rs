//! The reference op stream of a workload, written from its public spec
//! and `docs/trace-format.md` alone (`#[path]`-included by
//! `crates/workloads/tests`, by the engine oracle in
//! `crates/core/tests/support/oracle.rs` and through it by the root
//! `tests/cross_validation.rs`; compiled into no library).
//!
//! It reads nothing `Workload` derives — no resolved box, no linearised
//! coefficients, no compiled program — so it checks the trace compiler
//! and the resolution in `build.rs` instead of sharing their inputs.
//! For each process, in the order `Workload::concurrent` numbers them:
//! every point of `IterSpace::bounding_box` in lexicographic order; at
//! each point every access in program order, its subscripts evaluated
//! term by term and folded row-major against `ArrayDecl::extents`, its
//! address from `Layout::addr_checked`; then one `Compute`. Every
//! subscript and every address is bounds-checked, in release too.
#![allow(dead_code)] // each including suite uses a subset

use lams_layout::{ArrayId, Layout};
use lams_mpsoc::TraceOp;
use lams_presburger::{AffineExpr, Var};
use lams_workloads::{AccessKind, AppSpec, ProcessSpec};

/// The op stream of every process of `Workload::concurrent(apps)`
/// under `layout`, indexed by process id.
pub fn op_streams(apps: &[AppSpec], layout: &Layout) -> Vec<Vec<TraceOp>> {
    let mut streams = Vec::new();
    // Global array ids: each application's table follows the previous
    // applications' tables.
    let mut array_base = 0;
    for app in apps {
        for p in &app.processes {
            streams.push(process_ops(app, p, array_base, layout));
        }
        array_base += app.arrays.len() as u32;
    }
    streams
}

fn process_ops(app: &AppSpec, p: &ProcessSpec, array_base: u32, layout: &Layout) -> Vec<TraceOp> {
    let bbox = p.space.bounding_box().expect("a box has bounds");
    let mut ops = Vec::new();
    for point in box_points(&bbox) {
        for a in &p.accesses {
            let decl = app.arrays.get(a.array).expect("declared array");
            // Row-major: ((s0·n1 + s1)·n2 + s2)…
            let mut index = 0;
            for (e, &extent) in a.map.outputs().iter().zip(decl.extents()) {
                let s = subscript(e, p.space.dims(), &point);
                assert!(
                    (0..extent).contains(&s),
                    "{}: subscript {s} outside [0, {extent}) at {point:?}",
                    p.name
                );
                index = index * extent + s;
            }
            let array = ArrayId::new(array_base + a.array.index());
            let addr = layout
                .addr_checked(array, index)
                .expect("every access lies inside its array");
            ops.push(TraceOp::Access {
                addr,
                write: a.kind == AccessKind::Write,
            });
        }
        ops.push(TraceOp::Compute(p.compute_cycles_per_iter));
    }
    ops
}

/// Every point of the inclusive box, in lexicographic order (none when
/// any range is empty).
fn box_points(bbox: &[(i64, i64)]) -> Vec<Vec<i64>> {
    bbox.iter().fold(vec![Vec::new()], |points, &(lo, hi)| {
        points
            .iter()
            .flat_map(|p| (lo..=hi).map(move |x| [p.as_slice(), &[x]].concat()))
            .collect()
    })
}

/// `e` at `point`, where `dims[k]` names `point[k]`.
fn subscript(e: &AffineExpr, dims: &[Var], point: &[i64]) -> i64 {
    let mut value = e.constant_part();
    for (d, &x) in dims.iter().zip(point) {
        value += e.coeff(d.name()) * x;
    }
    value
}
