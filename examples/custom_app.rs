//! Building a custom application against the public API: a two-stage
//! stencil pipeline, its Presburger-derived sharing matrix, and a
//! four-policy comparison.
//!
//! This is the path a user takes to model *their* embedded workload:
//! declare arrays, describe each process as an affine loop nest, add
//! dependences, and hand the spec to the experiment harness.
//!
//! ```text
//! cargo run --release --example custom_app
//! ```

use lams::core::{Experiment, PolicyKind, SharingMatrix};
use lams::layout::{ArrayDecl, ArrayTable};
use lams::mpsoc::MachineConfig;
use lams::presburger::{AffineExpr, AffineMap, IterSpace};
use lams::workloads::{AccessSpec, AppSpec, ProcessSpec, Workload};

fn main() {
    let n = 48i64; // image side
    let p = 4i64; // processes per stage
    let rows = n / p;

    // Arrays: input image, blurred intermediate, gradient output, and a
    // small shared kernel.
    let mut arrays = ArrayTable::new();
    let img = arrays.push(ArrayDecl::new("IMG", vec![n, n], 4));
    let blur = arrays.push(ArrayDecl::new("BLUR", vec![n, n], 4));
    let grad = arrays.push(ArrayDecl::new("GRAD", vec![n, n], 4));
    let kern = arrays.push(ArrayDecl::new("KERN", vec![n], 4));

    let i = || AffineExpr::var("i");
    let j = || AffineExpr::var("j");
    let at = |r0: i64, r1: i64| {
        IterSpace::builder()
            .dim_range("i", r0, r1)
            .dim_range("j", 0, n)
            .build()
            .expect("valid space")
    };

    let mut processes = Vec::new();
    let mut deps = Vec::new();
    // Stage 1: blur rows [k*rows, (k+1)*rows) with a one-row halo.
    for k in 0..p {
        let (lo, hi) = ((k * rows - 1).max(0), ((k + 1) * rows + 1).min(n));
        processes.push(ProcessSpec {
            name: format!("blur.{k}"),
            space: at(lo, hi),
            accesses: vec![
                AccessSpec::read(img, AffineMap::new(vec![i(), j()])),
                AccessSpec::read(kern, AffineMap::new(vec![j()])),
                AccessSpec::write(blur, AffineMap::new(vec![i(), j()])),
            ],
            compute_cycles_per_iter: 3,
        });
    }
    // Stage 2: gradient over the same row blocks; block k consumes the
    // blur written by processes k-1, k, k+1 (halo).
    for k in 0..p {
        processes.push(ProcessSpec {
            name: format!("grad.{k}"),
            space: at(k * rows, (k + 1) * rows),
            accesses: vec![
                AccessSpec::read(blur, AffineMap::new(vec![i(), j()])),
                AccessSpec::write(grad, AffineMap::new(vec![i(), j()])),
            ],
            compute_cycles_per_iter: 2,
        });
        for m in (k - 1).max(0)..=(k + 1).min(p - 1) {
            deps.push((m as usize, (p + k) as usize));
        }
    }

    let app = AppSpec {
        name: "stencil2".into(),
        description: "custom two-stage stencil pipeline".into(),
        arrays,
        processes,
        deps,
    };

    // Inspect the sharing structure the scheduler will exploit.
    let w = Workload::single(app.clone()).expect("valid app");
    let m = SharingMatrix::from_workload(&w);
    println!("sharing matrix (elements shared per process pair):");
    println!("{m}");

    // Four-policy comparison on a 4-core machine; the report prints
    // conflict misses, so the runs split their misses.
    let machine = MachineConfig::paper_default()
        .with_cores(4)
        .with_explain(true);
    let report = Experiment::isolated(&app, machine)
        .run_all(PolicyKind::ALL)
        .expect("simulation succeeds");
    println!("{report}");
}
