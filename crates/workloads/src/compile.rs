//! Lowering resolved processes into the trace IR.
//!
//! A process's op stream (`docs/trace-format.md`) visits every point of
//! its box and evaluates every access's affine map there. This module
//! lowers the same affine description **once** into a
//! [`lams_trace::Program`]:
//!
//! * the **box** is lowered analytically — one RLE'd loop block per
//!   innermost-loop span, with per-access address lanes whose strides
//!   are the innermost affine coefficients scaled to bytes. Contiguous
//!   rows merge into single blocks in the builder, so e.g. a unit-stride
//!   2-D sweep becomes one block;
//! * **remapped arrays** (the Figure 4 layout transform) have piecewise
//!   affine addresses: within one half-page chunk the stride is
//!   unchanged, at a chunk boundary the address jumps by a page. Spans
//!   are split at the earliest chunk crossing of any lane, keeping every
//!   emitted lane exactly affine;
//! * a **pass dimension** — an outer dim 0 that no subscript reads, the
//!   suite's `rep` — is lowered for its first value only, and the
//!   program stores that pass once with its count
//!   ([`ProgramBuilder::passes`], `docs/trace-format.md` "Passes").
//!
//! In both cases the program decodes to that op stream op for op:
//! `crates/workloads/tests/compile.rs` holds it to a reference written
//! from the spec alone, and the engine oracle, fed by the same
//! reference, pins it end to end.

use lams_layout::Layout;
use lams_trace::{Lane, Program, ProgramBuilder};

use crate::build::ResolvedProcess;

/// Number of inner-loop steps (starting from byte offset `rel`, moving
/// `se` bytes per step) that stay inside the current `h`-byte chunk —
/// the span over which a remapped array's addresses remain affine.
fn chunk_run(rel: u64, se: i64, h: u64) -> u64 {
    if se == 0 {
        u64::MAX
    } else if se > 0 {
        let boundary = (rel / h + 1) * h;
        (boundary - rel).div_ceil(se as u64)
    } else {
        let boundary = (rel / h) * h;
        (rel - boundary) / se.unsigned_abs() + 1
    }
}

/// Lowers one process's trace against `layout`.
pub(crate) fn compile(proc: &ResolvedProcess, layout: &Layout) -> Program {
    if proc.bbox.iter().any(|&(lo, hi)| hi < lo) {
        return Program::new();
    }
    let inner = proc.bbox.len() - 1;
    let (ilo, ihi) = proc.bbox[inner];
    let n_inner = (ihi - ilo + 1) as u64;
    // Per-access constants: byte stride per inner step, element size,
    // and whether the array's addresses are piecewise (remapped).
    struct LaneSpec {
        elem_bytes: u64,
        byte_stride: i64,
        remapped: bool,
    }
    let specs: Vec<LaneSpec> = proc
        .accesses
        .iter()
        .map(|a| {
            let eb = layout.elem_bytes(a.array);
            LaneSpec {
                elem_bytes: eb,
                byte_stride: a.coeffs[inner] * eb as i64,
                remapped: layout.remap_offset(a.array).is_some(),
            }
        })
        .collect();
    let half_page = layout.half_page();

    // A pass dimension: an outer dim 0 that no subscript reads repeats
    // one pass over the same addresses, so only its first value is
    // lowered and the program repeats that pass.
    let mut bbox = proc.bbox.clone();
    let passes = if inner > 0 && proc.accesses.iter().all(|a| a.coeffs[0] == 0) {
        let (lo, hi) = bbox[0];
        bbox[0] = (lo, lo);
        (hi - lo + 1) as u64
    } else {
        1
    };

    let mut outer: Vec<i64> = Vec::with_capacity(inner);
    let mut lanes: Vec<Lane> = Vec::with_capacity(proc.accesses.len());
    let mut lin0: Vec<i64> = vec![0; proc.accesses.len()];
    ProgramBuilder::passes(passes, |b| {
        outer.clear();
        outer.extend(bbox[..inner].iter().map(|&(lo, _)| lo));
        loop {
            // Linear element index of each access at the inner lower bound.
            for (l0, a) in lin0.iter_mut().zip(&proc.accesses) {
                let mut lin = a.constant + a.coeffs[inner] * ilo;
                for (c, x) in a.coeffs[..inner].iter().zip(&outer) {
                    lin += c * x;
                }
                *l0 = lin;
            }
            // Emit the inner loop, split at the earliest chunk crossing of
            // any remapped lane so every lane stays exactly affine.
            let mut i = 0u64;
            while i < n_inner {
                let mut steps = n_inner - i;
                lanes.clear();
                for ((a, spec), &l0) in proc.accesses.iter().zip(&specs).zip(&lin0) {
                    let lin = l0 + a.coeffs[inner] * i as i64;
                    if spec.remapped {
                        let rel = lin as u64 * spec.elem_bytes;
                        steps = steps.min(chunk_run(rel, spec.byte_stride, half_page));
                    }
                    lanes.push(Lane {
                        base: layout.addr(a.array, lin),
                        stride: spec.byte_stride,
                        write: a.write,
                    });
                }
                b.push_loop(&lanes, steps, proc.compute);
                i += steps;
            }
            // Odometer step over the outer dimensions.
            let mut k = outer.len();
            loop {
                if k == 0 {
                    return;
                }
                k -= 1;
                if outer[k] < bbox[k].1 {
                    outer[k] += 1;
                    for (x, bb) in outer.iter_mut().zip(&bbox).skip(k + 1) {
                        *x = bb.0;
                    }
                    break;
                }
                outer[k] = bbox[k].0;
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use crate::{suite, AccessSpec, AppSpec, ProcessSpec, Scale, Workload};
    use lams_layout::{ArrayDecl, ArrayTable, Layout};
    use lams_presburger::{AffineMap, IterSpace};

    #[test]
    fn unit_stride_sweep_collapses_to_one_block() {
        // A contiguous row-major identity access over a 2-D box merges
        // across rows into a single loop block.
        let mut arrays = ArrayTable::new();
        let a = arrays.push(ArrayDecl::new("A", vec![16, 16], 4));
        let app = AppSpec {
            name: "sweep".into(),
            description: "contiguous".into(),
            arrays,
            processes: vec![ProcessSpec {
                name: "p".into(),
                // Full 16-element rows: row-major identity access is
                // contiguous across rows.
                space: IterSpace::builder()
                    .dim_range("i", 0, 16)
                    .dim_range("j", 0, 16)
                    .build()
                    .unwrap(),
                accesses: vec![AccessSpec::read(a, AffineMap::identity(["i", "j"]))],
                compute_cycles_per_iter: 1,
            }],
            deps: vec![],
        };
        let w = Workload::single(app).unwrap();
        let layout = Layout::linear(w.arrays());
        let prog = w.compile_trace(w.process_ids().next().unwrap(), &layout);
        assert_eq!(prog.blocks().len(), 1, "{:?}", prog.blocks());
        assert_eq!(prog.len_ops(), 16 * 16 * 2);
    }

    #[test]
    fn compression_is_substantial_on_the_suite() {
        // The IR must be much smaller than the op stream it decodes to.
        for app in suite::all(Scale::Tiny) {
            let w = Workload::single(app).unwrap();
            let layout = Layout::linear(w.arrays());
            for p in w.process_ids() {
                let prog = w.compile_trace(p, &layout);
                let blocks = prog.blocks().len() as u64;
                assert!(
                    blocks * 4 <= prog.len_ops().max(4),
                    "{}: {} blocks for {} ops",
                    w.process(p).name,
                    blocks,
                    prog.len_ops()
                );
            }
        }
    }
}
