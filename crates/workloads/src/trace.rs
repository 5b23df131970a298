//! Lazy memory-trace generation for a resolved process.

use lams_layout::Layout;
use lams_mpsoc::TraceOp;

use crate::build::ResolvedProcess;

/// Iteration points for spaces of up to this many dimensions live in an
/// inline fixed array — no per-process heap indirection on the hot path.
const MAX_INLINE_DIMS: usize = 8;

/// Storage for the current iteration point. The Table 1 applications are
/// all 2–3 dimensional, so the inline variant is the only one exercised
/// in practice; the heap spill keeps arbitrarily high-dimensional
/// user-defined spaces working.
#[derive(Debug, Clone)]
enum PointBuf {
    Inline([i64; MAX_INLINE_DIMS]),
    Heap(Vec<i64>),
}

/// Iterator yielding a process's trace operations in program order:
/// for each iteration point (lexicographic), its array accesses followed
/// by one `Compute` op.
///
/// Created by [`crate::Workload::trace`]. The trace is generated on the
/// fly — nothing is materialized — so traces of millions of references
/// cost no memory.
#[derive(Debug, Clone)]
pub struct Trace<'a> {
    proc: &'a ResolvedProcess,
    layout: &'a Layout,
    /// Current iteration point; meaningful only while `alive`.
    point: PointBuf,
    /// Number of live dimensions in `point`.
    ndims: usize,
    /// `false` once the space is exhausted (or empty from the start).
    alive: bool,
    /// Next access index within the current iteration;
    /// `== accesses.len()` means the Compute op is next.
    cursor: usize,
}

impl<'a> Trace<'a> {
    pub(crate) fn new(proc: &'a ResolvedProcess, layout: &'a Layout) -> Self {
        let ndims = proc.dims.len();
        let point = if ndims <= MAX_INLINE_DIMS {
            let mut buf = [0i64; MAX_INLINE_DIMS];
            for (x, &(lo, _)) in buf.iter_mut().zip(&proc.bbox) {
                *x = lo;
            }
            PointBuf::Inline(buf)
        } else {
            PointBuf::Heap(proc.bbox.iter().map(|&(lo, _)| lo).collect())
        };
        Trace {
            proc,
            layout,
            point,
            ndims,
            alive: proc.bbox.iter().all(|&(lo, hi)| lo <= hi),
            cursor: 0,
        }
    }

    /// Odometer step to the next box point; returns `false` on wrap-out.
    fn advance(proc: &ResolvedProcess, p: &mut [i64]) -> bool {
        let mut k = p.len();
        while k > 0 {
            k -= 1;
            if p[k] < proc.bbox[k].1 {
                p[k] += 1;
                for (x, b) in p.iter_mut().zip(&proc.bbox).skip(k + 1) {
                    *x = b.0;
                }
                return true;
            }
        }
        false
    }

    /// The current iteration point as a slice.
    #[inline]
    fn point_slice(&self) -> &[i64] {
        match &self.point {
            PointBuf::Inline(buf) => &buf[..self.ndims],
            PointBuf::Heap(v) => v,
        }
    }

    /// Steps the iteration point after the Compute op.
    fn step_point(&mut self) {
        let p = match &mut self.point {
            PointBuf::Inline(buf) => &mut buf[..self.ndims],
            PointBuf::Heap(v) => &mut v[..],
        };
        self.alive = Self::advance(self.proc, p);
        self.cursor = 0;
    }
}

impl Iterator for Trace<'_> {
    type Item = TraceOp;

    #[inline]
    fn next(&mut self) -> Option<TraceOp> {
        if !self.alive {
            return None;
        }
        if self.cursor < self.proc.accesses.len() {
            let a = &self.proc.accesses[self.cursor];
            self.cursor += 1;
            let mut lin = a.constant;
            for (c, x) in a.coeffs.iter().zip(self.point_slice()) {
                lin += c * x;
            }
            let addr = self.layout.addr(a.array, lin);
            Some(TraceOp::Access {
                addr,
                write: a.write,
            })
        } else {
            let op = TraceOp::Compute(self.proc.compute);
            self.step_point();
            Some(op)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if !self.alive {
            (0, Some(0))
        } else {
            // Lower bound: the remainder of the current iteration.
            let per_iter = self.proc.accesses.len() + 1;
            let remaining_this_iter = per_iter - self.cursor;
            (
                remaining_this_iter,
                Some(self.proc.num_iters as usize * per_iter),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{AccessSpec, AppSpec, ProcessSpec, Workload};
    use lams_layout::{ArrayDecl, ArrayTable, Layout};
    use lams_mpsoc::TraceOp;
    use lams_presburger::{AffineExpr, AffineMap, IterSpace};
    use lams_procgraph::ProcessId;

    fn app_with_space(space: IterSpace) -> AppSpec {
        let mut arrays = ArrayTable::new();
        let a = arrays.push(ArrayDecl::new("A", vec![64, 64], 4));
        AppSpec {
            name: "t".into(),
            description: "trace test".into(),
            arrays,
            processes: vec![ProcessSpec {
                name: "p".into(),
                space,
                accesses: vec![AccessSpec::read(a, AffineMap::identity(["i", "j"]))],
                compute_cycles_per_iter: 3,
            }],
            deps: vec![],
        }
    }

    #[test]
    fn box_trace_order_and_length() {
        let space = IterSpace::builder()
            .dim_range("i", 0, 2)
            .dim_range("j", 0, 3)
            .build()
            .unwrap();
        let w = Workload::single(app_with_space(space)).unwrap();
        let layout = Layout::linear(w.arrays());
        let ops: Vec<_> = w.trace(ProcessId::new(0), &layout).collect();
        assert_eq!(ops.len(), 6 * 2);
        // Row-major: A[0][0], A[0][1], A[0][2], A[1][0]...
        let base = match ops[0] {
            TraceOp::Access { addr, .. } => addr,
            _ => unreachable!(),
        };
        let expect = |i: i64, j: i64| base + ((i * 64 + j) as u64) * 4;
        assert_eq!(ops[2], TraceOp::read(expect(0, 1)));
        assert_eq!(ops[6], TraceOp::read(expect(1, 0)));
        assert_eq!(ops[1], TraceOp::compute(3));
    }

    #[test]
    fn trace_is_restartable() {
        let space = IterSpace::builder().dim_range("i", 0, 4).build().unwrap();
        let mut app = app_with_space(space);
        // 1-D access map for the 2-D array: fix the column.
        app.processes[0].accesses[0].map =
            AffineMap::new(vec![AffineExpr::var("i"), AffineExpr::constant(5)]);
        let w = Workload::single(app).unwrap();
        let layout = Layout::linear(w.arrays());
        let t1: Vec<_> = w.trace(ProcessId::new(0), &layout).collect();
        let t2: Vec<_> = w.trace(ProcessId::new(0), &layout).collect();
        assert_eq!(t1, t2);
        assert_eq!(t1.len(), 8);
    }
}
