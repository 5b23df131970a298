//! The six Table 1 applications.
//!
//! Each module builds one application as an [`crate::AppSpec`]. The
//! originals are proprietary embedded image/video codes; these stand-ins
//! reproduce the structural properties the paper's scheduler observes —
//! staged pipelines of 9–37 processes, affine array accesses over
//! row/column/quadrant slices, halo overlaps, producer→consumer
//! intermediates and small shared lookup tables (see the crate docs).
//!
//! Conventions shared by all six:
//!
//! * iteration spaces carry an outer `rep` dimension (pass count), then
//!   the spatial dimensions with the innermost varying fastest,
//! * elements are 4 bytes (single-precision data),
//! * per-process working sets are a few KB — commensurate with the 8 KB
//!   per-core L1 of Table 2, so inherited cache state is worth real time.

pub mod med_im04;
pub mod mxm;
pub mod radar;
pub mod shape;
pub mod track;
pub mod usonic;

use lams_presburger::{AffineExpr, AffineMap, IterSpace};

/// Shorthand: variable expression.
pub(crate) fn v(name: &str) -> AffineExpr {
    AffineExpr::var(name)
}

/// Shorthand: constant expression.
pub(crate) fn k(c: i64) -> AffineExpr {
    AffineExpr::constant(c)
}

/// 1-D access map.
pub(crate) fn map1(e0: AffineExpr) -> AffineMap {
    AffineMap::new(vec![e0])
}

/// 2-D access map.
pub(crate) fn map2(e0: AffineExpr, e1: AffineExpr) -> AffineMap {
    AffineMap::new(vec![e0, e1])
}

/// 3-D access map.
pub(crate) fn map3(e0: AffineExpr, e1: AffineExpr, e2: AffineExpr) -> AffineMap {
    AffineMap::new(vec![e0, e1, e2])
}

/// Iteration space `(rep, i, j)`: `rep` passes over rows `[r0, r1)` and
/// columns `[0, cols)`.
pub(crate) fn rows_space(passes: i64, r0: i64, r1: i64, cols: i64) -> IterSpace {
    IterSpace::builder()
        .dim_range("rep", 0, passes)
        .dim_range("i", r0, r1)
        .dim_range("j", 0, cols)
        .build()
        .expect("valid row space")
}

/// Iteration space `(rep, i)`, one-dimensional.
pub(crate) fn line_space(passes: i64, lo: i64, hi: i64) -> IterSpace {
    IterSpace::builder()
        .dim_range("rep", 0, passes)
        .dim_range("i", lo, hi)
        .build()
        .expect("valid line space")
}

/// Clamped halo extension of a row block `[k*r, (k+1)*r)` by `h` rows on
/// each side, within `[0, n)`.
pub(crate) fn halo(kk: i64, r: i64, h: i64, n: i64) -> (i64, i64) {
    (((kk * r) - h).max(0), ((kk + 1) * r + h).min(n))
}

/// Extents of an `n x n` working array with *allocation padding*: enough
/// extra rows that the array's byte size is ≡ half a cache page
/// (2 KB for the paper's 8 KB 2-way cache) modulo a full page (4 KB).
///
/// Contiguously allocated arrays of exact page-multiple sizes would make
/// every same-index row slice of every array in an application map to
/// the *same* cache sets — a pathological self-conflict layout no real
/// toolchain produces (headers, alignment and guard zones stagger
/// allocations in practice). The padding rows are never accessed; they
/// only shift the bases of subsequent arrays by half a page, which is
/// exactly the stagger that keeps same-index slices of consecutive
/// arrays set-disjoint. Cross-*application* alignment remains arbitrary
/// (applications stack at whatever offset the previous one ended), which
/// is the conflict source the paper's LSM targets in Figure 7.
pub(crate) fn padded(n: i64) -> Vec<i64> {
    // pad_rows * n * 4 == 2048 (mod 4096); all suite dims divide 512.
    let pad_rows = (512 / n).max(1);
    vec![n + pad_rows, n]
}

/// Like [`padded`], but for a 3-D `[planes, n, n]` array: pads the middle
/// dimension so consecutive *planes* stagger by half a page instead of
/// landing on identical cache sets.
pub(crate) fn padded3(planes: i64, n: i64) -> Vec<i64> {
    let pad_rows = (512 / n).max(1);
    vec![planes, n + pad_rows, n]
}

#[cfg(test)]
mod tests {
    use crate::{suite, Scale, Workload};
    use lams_procgraph::ProcessId;

    /// Table 1 constraint: process counts lie in the paper's 9..=37
    /// range, with Shape the smallest (9) and Usonic the largest (37).
    #[test]
    fn process_counts_match_table1_range() {
        let counts: Vec<(String, usize)> = suite::all(Scale::Tiny)
            .into_iter()
            .map(|a| (a.name.clone(), a.num_processes()))
            .collect();
        for (name, n) in &counts {
            assert!(
                (9..=37).contains(n),
                "{name} has {n} processes, outside Table 1 range"
            );
        }
        assert_eq!(counts.iter().map(|(_, n)| *n).min(), Some(9));
        assert_eq!(counts.iter().map(|(_, n)| *n).max(), Some(37));
    }

    /// All six build successfully at every scale and validate.
    #[test]
    fn all_apps_build_at_all_scales() {
        for scale in [Scale::Tiny, Scale::Small] {
            for app in suite::all(scale) {
                app.validate()
                    .unwrap_or_else(|e| panic!("{}: {e}", app.name));
                let w = Workload::single(app).unwrap();
                assert!(w.num_processes() >= 9);
            }
        }
    }

    /// Every application exhibits non-trivial intra-task sharing — the
    /// property the paper's entire approach rests on.
    #[test]
    fn apps_have_intra_task_sharing() {
        for app in suite::all(Scale::Tiny) {
            let name = app.name.clone();
            let w = Workload::single(app).unwrap();
            let n = w.num_processes() as u32;
            let mut shared_pairs = 0;
            for p in 0..n {
                for q in (p + 1)..n {
                    if w.data_set(ProcessId::new(p))
                        .shared_len(w.data_set(ProcessId::new(q)))
                        > 0
                    {
                        shared_pairs += 1;
                    }
                }
            }
            assert!(
                shared_pairs >= 4,
                "{name}: only {shared_pairs} sharing pairs"
            );
        }
    }

    /// Dependences are present and acyclic (EPG builds) in every app.
    #[test]
    fn apps_have_dependences() {
        for app in suite::all(Scale::Tiny) {
            assert!(!app.deps.is_empty(), "{}: no dependences", app.name);
            let num_deps = app.deps.len();
            let w = Workload::single(app).unwrap();
            assert!(w.epg().num_edges() >= num_deps);
            // At least one root and at least one non-root.
            let roots = w.epg().roots().count();
            assert!(roots >= 1 && roots < w.num_processes());
        }
    }
}
