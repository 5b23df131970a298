//! Declarative application specifications.

use std::fmt;

use lams_layout::{ArrayId, ArrayTable};
use lams_presburger::{AffineMap, IterSpace};

use crate::{Error, Result};

/// Whether an access reads or writes the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store (write-allocate; latency-identical to a load in the
    /// simulator).
    Write,
}

/// One array reference inside a process's loop nest: which array, and the
/// affine map from iteration variables to array subscripts.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessSpec {
    /// The accessed array (app-local id).
    pub array: ArrayId,
    /// Subscript function (arity must equal the array's rank).
    pub map: AffineMap,
    /// Read or write.
    pub kind: AccessKind,
}

impl AccessSpec {
    /// A read access.
    pub fn read(array: ArrayId, map: AffineMap) -> Self {
        AccessSpec {
            array,
            map,
            kind: AccessKind::Read,
        }
    }

    /// A write access.
    pub fn write(array: ArrayId, map: AffineMap) -> Self {
        AccessSpec {
            array,
            map,
            kind: AccessKind::Write,
        }
    }
}

/// One process: an iteration space plus the ordered list of array
/// accesses performed in each iteration, plus a per-iteration
/// computation cost.
///
/// This mirrors the paper's Figure 1 decomposition: `Task[i1]` of Prog1
/// is the process with space `{[i2] : 0 <= i2 < 3000}` and accesses
/// `A[1000*i1 + i2][5]` (read) and `B[i1]` (read+write).
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessSpec {
    /// Human-readable name, e.g. `"mxm.s1.3"`.
    pub name: String,
    /// The iteration space: a box of one or more dimensions, walked in
    /// lexicographic order.
    pub space: IterSpace,
    /// Accesses per iteration, in program order.
    pub accesses: Vec<AccessSpec>,
    /// ALU cycles per iteration (in addition to memory latency).
    pub compute_cycles_per_iter: u64,
}

/// A whole application (a *task* in the paper's vocabulary): arrays,
/// processes and intra-task dependences.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Application name (Table 1 name for suite members).
    pub name: String,
    /// One-line description (Table 1's "Brief Description").
    pub description: String,
    /// The arrays the application owns.
    pub arrays: ArrayTable,
    /// The processes, in local index order.
    pub processes: Vec<ProcessSpec>,
    /// Intra-task dependences as local process index pairs
    /// `(from, to)`: `to` may only start after `from` completes.
    pub deps: Vec<(usize, usize)>,
}

impl AppSpec {
    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.processes.len()
    }

    /// Checks internal consistency: every access references a declared
    /// array with matching rank, every subscript stays inside its
    /// extent over the whole iteration box (its closed-form minimum and
    /// maximum lie in `0..extent`; an empty box touches nothing and is
    /// not checked), and dependence indices are in range.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found.
    pub fn validate(&self) -> Result<()> {
        self.resolve().map(drop)
    }

    /// [`AppSpec::validate`], keeping what it resolves: every access as
    /// a [`Linear`] form, in process order and then program order.
    pub(crate) fn resolve(&self) -> Result<Vec<Linear>> {
        if self.processes.is_empty() {
            return Err(Error::NoProcesses(self.name.clone()));
        }
        let mut out = Vec::with_capacity(self.processes.iter().map(|p| p.accesses.len()).sum());
        for (pi, p) in self.processes.iter().enumerate() {
            let (dims, bbox) = (p.space.dims(), p.space.bounds());
            let empty = p.space.is_empty();
            for a in &p.accesses {
                let decl = self.arrays.get(a.array).ok_or(Error::UnknownArray {
                    app: self.name.clone(),
                    process: pi,
                    array: a.array.index(),
                })?;
                let extents = decl.extents();
                if a.map.arity() != extents.len() {
                    return Err(Error::AccessArity {
                        app: self.name.clone(),
                        process: pi,
                        got: a.map.arity(),
                        expected: extents.len(),
                    });
                }
                let mut lin = Linear {
                    coeffs: vec![0; dims.len()],
                    constant: 0,
                    unbound: false,
                };
                for (dim, (e, &extent)) in a.map.outputs().iter().zip(extents).enumerate() {
                    // Row-major: subscript `dim` steps over every element
                    // of the dimensions after it.
                    let stride: i64 = extents[dim + 1..].iter().product();
                    lin.constant += e.constant_part() * stride;
                    // An affine subscript is extreme at a box corner:
                    // each term at whichever end its sign favours.
                    let (mut lo, mut hi) = (e.constant_part(), e.constant_part());
                    let mut terms = 0;
                    for ((d, &(dlo, dhi)), x) in dims.iter().zip(bbox).zip(&mut lin.coeffs) {
                        let c = e.coeff(d);
                        terms += usize::from(c != 0);
                        *x += c * stride;
                        let (at_lo, at_hi) = (c.saturating_mul(dlo), c.saturating_mul(dhi));
                        lo = lo.saturating_add(at_lo.min(at_hi));
                        hi = hi.saturating_add(at_lo.max(at_hi));
                    }
                    lin.unbound |= terms != e.vars().count();
                    if !empty && (lo < 0 || hi >= extent) {
                        return Err(Error::SubscriptOutOfBounds {
                            app: self.name.clone(),
                            process: pi,
                            array: a.array.index(),
                            dim,
                            lo,
                            hi,
                            extent,
                        });
                    }
                }
                out.push(lin);
            }
        }
        for &(from, to) in &self.deps {
            if from >= self.processes.len() || to >= self.processes.len() || from == to {
                return Err(Error::BadDependence {
                    app: self.name.clone(),
                    edge: (from, to),
                });
            }
        }
        Ok(out)
    }
}

/// One access resolved against its process's box: the subscripts
/// folded row-major over the array's extents into one coefficient per
/// box dimension plus a constant, so the element index at point `x` is
/// `constant + Σ coeffs[d] * x[d]`.
#[derive(Debug)]
pub(crate) struct Linear {
    pub(crate) coeffs: Vec<i64>,
    pub(crate) constant: i64,
    /// Some subscript names a variable that is not a box dimension; the
    /// coefficients leave it out.
    pub(crate) unbound: bool,
}

impl fmt::Display for AppSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} processes, {} arrays, {} deps)",
            self.name,
            self.processes.len(),
            self.arrays.len(),
            self.deps.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lams_layout::ArrayDecl;
    use lams_presburger::AffineExpr;

    fn one_proc_app() -> AppSpec {
        let mut arrays = ArrayTable::new();
        let a = arrays.push(ArrayDecl::new("A", vec![16], 4));
        AppSpec {
            name: "t".into(),
            description: "test".into(),
            arrays,
            processes: vec![ProcessSpec {
                name: "p0".into(),
                space: IterSpace::builder().dim_range("i", 0, 16).build().unwrap(),
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
    fn valid_app_passes() {
        one_proc_app().validate().unwrap();
    }

    #[test]
    fn unknown_array_rejected() {
        let mut app = one_proc_app();
        app.processes[0].accesses[0].array = ArrayId::new(5);
        assert!(matches!(app.validate(), Err(Error::UnknownArray { .. })));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut app = one_proc_app();
        app.processes[0].accesses[0].map =
            AffineMap::new(vec![AffineExpr::var("i"), AffineExpr::constant(0)]);
        assert!(matches!(app.validate(), Err(Error::AccessArity { .. })));
        assert_eq!(
            crate::Workload::single(app.clone()).unwrap_err(),
            app.validate().unwrap_err()
        );
    }

    #[test]
    fn out_of_bounds_subscripts_rejected() {
        // `A[i-1]` over `0 <= i < 16` on a 16-element array reads A[-1].
        let mut app = one_proc_app();
        app.processes[0].accesses[0].map =
            AffineMap::new(vec![AffineExpr::var("i") + AffineExpr::constant(-1)]);
        let err = app.validate().unwrap_err();
        assert_eq!(
            err,
            Error::SubscriptOutOfBounds {
                app: "t".into(),
                process: 0,
                array: 0,
                dim: 0,
                lo: -1,
                hi: 14,
                extent: 16,
            }
        );
        assert_eq!(
            err.to_string(),
            "t: process 0 subscript 0 of array 0 spans [-1, 14], outside [0, 16)"
        );
        // `A[15-i]` spans [0, 15] (a negative coefficient takes its
        // minimum at the top of the range); `A[16-i]` reaches A[16].
        app.processes[0].accesses[0].map =
            AffineMap::new(vec![AffineExpr::term("i", -1) + AffineExpr::constant(15)]);
        app.validate().unwrap();
        app.processes[0].accesses[0].map =
            AffineMap::new(vec![AffineExpr::term("i", -1) + AffineExpr::constant(16)]);
        assert!(matches!(
            app.validate(),
            Err(Error::SubscriptOutOfBounds { lo: 1, hi: 16, .. })
        ));
        // An empty box touches nothing, whatever its subscripts say.
        app.processes[0].space = IterSpace::builder().dim_range("i", 0, 0).build().unwrap();
        app.validate().unwrap();
    }

    #[test]
    fn bad_dep_rejected() {
        let mut app = one_proc_app();
        app.deps.push((0, 3));
        assert!(matches!(app.validate(), Err(Error::BadDependence { .. })));
        app.deps.clear();
        app.deps.push((0, 0));
        assert!(matches!(app.validate(), Err(Error::BadDependence { .. })));
    }

    #[test]
    fn empty_app_rejected() {
        let mut app = one_proc_app();
        app.processes.clear();
        assert!(matches!(app.validate(), Err(Error::NoProcesses(_))));
    }
}
