//! Affine access functions from iteration vectors to array subscripts.

use std::fmt;

use crate::{AffineExpr, Error, Result, Var};

/// An affine map `Z^n -> Z^m`: one [`AffineExpr`] per output dimension.
///
/// In the paper's running example the access `A[i1*1000 + i2][5]` is the
/// map `(i1, i2) -> (1000*i1 + i2, 5)`; against an `8000 × 10` array it
/// linearizes row-major to `10000*i1 + 10*i2 + 5`:
///
/// ```
/// use lams_presburger::{AffineExpr, AffineMap};
///
/// let access = AffineMap::new(vec![
///     AffineExpr::term("i1", 1000) + AffineExpr::term("i2", 1),
///     AffineExpr::constant(5),
/// ]);
/// let lin = access.linearized(&[8000, 10]).unwrap();
/// assert_eq!((lin.coeff("i1"), lin.coeff("i2")), (10_000, 10));
/// assert_eq!(lin.constant_part(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AffineMap {
    outputs: Vec<AffineExpr>,
}

impl AffineMap {
    /// Creates a map from its output expressions.
    pub fn new(outputs: Vec<AffineExpr>) -> Self {
        AffineMap { outputs }
    }

    /// The identity map on the given variables.
    pub fn identity<I, V>(vars: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Var>,
    {
        AffineMap {
            outputs: vars
                .into_iter()
                .map(|v| AffineExpr::var(v.into()))
                .collect(),
        }
    }

    /// Number of output dimensions.
    pub fn arity(&self) -> usize {
        self.outputs.len()
    }

    /// The output expressions, in order.
    pub fn outputs(&self) -> &[AffineExpr] {
        &self.outputs
    }

    /// The `k`-th output expression.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.arity()`.
    pub fn output(&self, k: usize) -> &AffineExpr {
        &self.outputs[k]
    }

    /// Collapses a multi-dimensional map into the single affine expression
    /// giving the row-major *linearized* index for an array with the given
    /// dimension extents.
    ///
    /// For extents `[n0, n1, …]` the linear index of subscript
    /// `(e0, e1, …)` is `e0*n1*…*n_{m-1} + e1*n2*… + … + e_{m-1}`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ArityMismatch`] when `extents.len()` differs from
    /// the map's arity.
    pub fn linearized(&self, extents: &[i64]) -> Result<AffineExpr> {
        if extents.len() != self.outputs.len() {
            return Err(Error::ArityMismatch {
                got: self.outputs.len(),
                expected: extents.len(),
            });
        }
        let mut acc = AffineExpr::zero();
        let mut scale = 1i64;
        for (e, n) in self.outputs.iter().zip(extents).rev() {
            acc = acc + e.scale(scale);
            scale *= n;
        }
        Ok(acc)
    }

    /// All variables mentioned by any output.
    pub fn vars(&self) -> Vec<Var> {
        let mut vs: Vec<Var> = self
            .outputs
            .iter()
            .flat_map(|e| e.vars().cloned())
            .collect();
        vs.sort();
        vs.dedup();
        vs
    }
}

impl fmt::Display for AffineMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (k, e) in self.outputs.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity() {
        let m = AffineMap::identity(["i", "j"]);
        assert_eq!(m.outputs(), [AffineExpr::var("i"), AffineExpr::var("j")]);
        assert_eq!(m.vars(), [Var::new("i"), Var::new("j")]);
    }

    #[test]
    fn paper_access_map() {
        let m = AffineMap::new(vec![
            AffineExpr::term("i1", 1000) + AffineExpr::term("i2", 1),
            AffineExpr::constant(5),
        ]);
        assert_eq!(m.arity(), 2);
        assert_eq!(m.output(0).coeff("i1"), 1000);
        assert_eq!(m.output(1), &AffineExpr::constant(5));
    }

    #[test]
    fn linearization_row_major() {
        // A is 8000 x 10; A[d1][d2] linearizes to d1*10 + d2.
        let m = AffineMap::new(vec![
            AffineExpr::term("i1", 1000) + AffineExpr::term("i2", 1),
            AffineExpr::constant(5),
        ]);
        let lin = m.linearized(&[8000, 10]).unwrap();
        assert_eq!(lin.coeff("i1"), 10_000);
        assert_eq!(lin.coeff("i2"), 10);
        assert_eq!(lin.constant_part(), 5);
    }

    #[test]
    fn linearization_arity_mismatch() {
        let m = AffineMap::new(vec![AffineExpr::var("i")]);
        assert_eq!(
            m.linearized(&[4, 4]),
            Err(Error::ArityMismatch {
                got: 1,
                expected: 2
            })
        );
    }

    #[test]
    fn display() {
        let m = AffineMap::new(vec![AffineExpr::var("i"), AffineExpr::constant(5)]);
        assert_eq!(m.to_string(), "(i, 5)");
    }
}
