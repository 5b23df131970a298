//! Box iteration spaces: membership, counting, bounds, images.

use std::fmt;

use crate::{AffineMap, Error, IndexSet, Result, Var};

/// Most sparse-offset combinations [`IterSpace::image_1d`] enumerates
/// before it gives up with [`Error::TooLarge`].
const SPARSE_BUDGET: u128 = 1 << 28;

/// An integer iteration space: ordered dimensions, each ranging over
/// an inclusive interval — an axis-aligned box.
///
/// Mirrors the paper's `IS` sets, e.g.
/// `IS1 = {[i1,i2] : 0 <= i1 < 8 && 0 <= i2 < 3000}`:
///
/// ```
/// use lams_presburger::IterSpace;
///
/// let is1 = IterSpace::builder()
///     .dim_range("i1", 0, 8)
///     .dim_range("i2", 0, 3000)
///     .build()?;
/// assert_eq!(is1.count()?, 8 * 3000);
/// assert!(is1.contains(&[7, 2999])?);
/// assert!(!is1.contains(&[8, 0])?);
/// # Ok::<(), lams_presburger::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterSpace {
    dims: Vec<Var>,
    /// Inclusive `(lo, hi)` per dimension; `(0, -1)` in every
    /// dimension when any range is empty.
    bounds: Vec<(i64, i64)>,
}

impl IterSpace {
    /// Starts building a space.
    pub fn builder() -> IterSpaceBuilder {
        IterSpaceBuilder::default()
    }

    /// The ordered dimension variables.
    pub fn dims(&self) -> &[Var] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Membership test for a positional point.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ArityMismatch`] when the point has the wrong
    /// arity.
    pub fn contains(&self, point: &[i64]) -> Result<bool> {
        if point.len() != self.dims.len() {
            return Err(Error::ArityMismatch {
                got: point.len(),
                expected: self.dims.len(),
            });
        }
        Ok(point
            .iter()
            .zip(&self.bounds)
            .all(|(&x, &(lo, hi))| lo <= x && x <= hi))
    }

    /// Integer bounding box `(lo, hi)` (both inclusive) per dimension:
    /// the box itself. An empty space reports the marker `(0, -1)` in
    /// every dimension.
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` keeps the signature callers bind to.
    pub fn bounding_box(&self) -> Result<Vec<(i64, i64)>> {
        Ok(self.bounds.clone())
    }

    /// The box, borrowed: [`IterSpace::bounding_box`] without the copy.
    pub fn bounds(&self) -> &[(i64, i64)] {
        &self.bounds
    }

    /// Whether the box holds no point.
    pub fn is_empty(&self) -> bool {
        self.bounds.iter().any(|&(lo, hi)| hi < lo)
    }

    /// Exact number of integer points, saturating at `u64::MAX`.
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` keeps the signature callers bind to.
    pub fn count(&self) -> Result<u64> {
        let n = self.bounds.iter().fold(1u128, |n, &(lo, hi)| {
            n.saturating_mul((i128::from(hi) - i128::from(lo) + 1) as u128)
        });
        Ok(n.min(u128::from(u64::MAX)) as u64)
    }

    /// Computes the exact image of the space under a 1-output affine map
    /// as an [`IndexSet`] of linearized indices, in closed form: the
    /// dimensions are split into a maximal "dense" group (whose combined
    /// strides tile a contiguous interval) and the remaining sparse
    /// dimensions, whose offsets are enumerated.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ArityMismatch`] when `map.arity() != 1`,
    /// [`Error::UnboundVariable`] when the map names a variable that is
    /// not a dimension, and [`Error::TooLarge`] when the sparse
    /// dimensions have too many offset combinations.
    pub fn image_1d(&self, map: &AffineMap) -> Result<IndexSet> {
        if map.arity() != 1 {
            return Err(Error::ArityMismatch {
                got: map.arity(),
                expected: 1,
            });
        }
        let expr = map.output(0);
        if let Some(v) = expr.vars().find(|v| !self.dims.contains(v)) {
            return Err(Error::UnboundVariable(v.name().to_owned()));
        }
        if self.is_empty() {
            return Ok(IndexSet::new());
        }
        let coeffs: Vec<i64> = self.dims.iter().map(|d| expr.coeff(d)).collect();
        box_image(&self.bounds, &coeffs, expr.constant_part())
    }

    /// [`IterSpace::image_1d`] of `constant + Σ coeffs[d] · x_d`, with
    /// the expression given positionally: `coeffs[d]` multiplies
    /// dimension `d`. The same closed form, with no names to resolve.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ArityMismatch`] when `coeffs.len()` differs from
    /// the rank and [`Error::TooLarge`] when the sparse dimensions have
    /// too many offset combinations.
    pub fn linear_image(&self, coeffs: &[i64], constant: i64) -> Result<IndexSet> {
        if coeffs.len() != self.rank() {
            return Err(Error::ArityMismatch {
                got: coeffs.len(),
                expected: self.rank(),
            });
        }
        if self.is_empty() {
            return Ok(IndexSet::new());
        }
        box_image(&self.bounds, coeffs, constant)
    }
}

/// Closed-form image of a non-empty box under `constant + Σ coeffs[d] ·
/// x_d`.
fn box_image(bounds: &[(i64, i64)], coeffs: &[i64], constant: i64) -> Result<IndexSet> {
    // Gather (|coeff|, extent-1) per mentioned dim and the base value.
    let mut base = constant;
    let mut terms: Vec<(i64, i64)> = Vec::new(); // (|c|, n) with n = hi-lo
    for (&c, &(lo, hi)) in coeffs.iter().zip(bounds) {
        if c == 0 {
            continue;
        }
        base += if c > 0 { c * lo } else { c * hi };
        let n = hi - lo;
        if n > 0 {
            terms.push((c.abs(), n));
        }
    }
    if terms.is_empty() {
        return Ok(IndexSet::from_range(base, base + 1));
    }
    terms.sort_unstable();
    // Greedy maximal dense prefix: dims whose strides tile an interval.
    let mut dense_width: i64 = 0; // image of dense prefix is [0, dense_width]
    let mut split = 0;
    for (k, &(c, n)) in terms.iter().enumerate() {
        if c <= dense_width + 1 {
            dense_width += c * n;
            split = k + 1;
        } else {
            break;
        }
    }
    let sparse = &terms[split..];
    // Enumerate sparse combinations; each contributes an interval of
    // width dense_width+1 at its offset.
    let mut combos: u128 = 1;
    for &(_, n) in sparse {
        combos = combos.saturating_mul((n + 1) as u128);
    }
    if combos > SPARSE_BUDGET {
        return Err(Error::TooLarge {
            estimated: combos,
            budget: SPARSE_BUDGET,
        });
    }
    let mut out = IndexSet::new();
    let mut idx: Vec<i64> = vec![0; sparse.len()];
    loop {
        let offset: i64 = sparse.iter().zip(&idx).map(|(&(c, _), &x)| c * x).sum();
        out.insert_range(base + offset, base + offset + dense_width + 1);
        let mut k = sparse.len();
        loop {
            if k == 0 {
                return Ok(out);
            }
            k -= 1;
            if idx[k] < sparse[k].1 {
                idx[k] += 1;
                for x in &mut idx[k + 1..] {
                    *x = 0;
                }
                break;
            }
        }
    }
}

impl fmt::Display for IterSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{[")?;
        for (k, d) in self.dims.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "] :")?;
        for (k, (d, (lo, hi))) in self.dims.iter().zip(&self.bounds).enumerate() {
            if k > 0 {
                write!(f, " &&")?;
            }
            write!(f, " {lo} <= {d} <= {hi}")?;
        }
        write!(f, "}}")
    }
}

/// Builder for [`IterSpace`].
///
/// See [`IterSpace::builder`].
#[derive(Debug, Clone, Default)]
pub struct IterSpaceBuilder {
    dims: Vec<Var>,
    bounds: Vec<(i64, i64)>,
}

impl IterSpaceBuilder {
    /// Declares a dimension with the half-open range `[lo, hi)`.
    pub fn dim_range(mut self, name: impl Into<Var>, lo: i64, hi: i64) -> Self {
        self.dims.push(name.into());
        self.bounds.push((lo, hi - 1));
        self
    }

    /// Declares a dimension pinned to a single value (`name == value`),
    /// like the paper's `i1 = k` process slices.
    pub fn dim_eq(mut self, name: impl Into<Var>, value: i64) -> Self {
        self.dims.push(name.into());
        self.bounds.push((value, value));
        self
    }

    /// Finishes the build.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MalformedSpace`] when no dimension was declared
    /// and [`Error::DuplicateDimension`] for repeated dimension names.
    pub fn build(self) -> Result<IterSpace> {
        if self.dims.is_empty() {
            return Err(Error::MalformedSpace("no dimensions".to_owned()));
        }
        // A box has a handful of dimensions: pairwise beats a set.
        for (k, d) in self.dims.iter().enumerate() {
            if self.dims[..k].contains(d) {
                return Err(Error::DuplicateDimension(d.name().to_owned()));
            }
        }
        let empty = self.bounds.iter().any(|&(lo, hi)| hi < lo);
        Ok(IterSpace {
            bounds: if empty {
                vec![(0, -1); self.dims.len()]
            } else {
                self.bounds
            },
            dims: self.dims,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AffineExpr;

    fn is1() -> IterSpace {
        IterSpace::builder()
            .dim_range("i1", 0, 8)
            .dim_range("i2", 0, 3000)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates() {
        let dup = IterSpace::builder()
            .dim_range("i", 0, 4)
            .dim_range("i", 0, 4)
            .build();
        assert_eq!(dup.unwrap_err(), Error::DuplicateDimension("i".into()));
    }

    #[test]
    fn builder_refuses_an_empty_dimension_list() {
        // A rank-0 box would count one point that no loop nest visits.
        assert!(matches!(
            IterSpace::builder().build(),
            Err(Error::MalformedSpace(_))
        ));
    }

    #[test]
    fn paper_is1_count_and_membership() {
        let s = is1();
        assert_eq!(s.count().unwrap(), 24_000);
        assert!(s.contains(&[0, 0]).unwrap());
        assert!(s.contains(&[7, 2999]).unwrap());
        assert!(!s.contains(&[-1, 0]).unwrap());
        assert!(!s.contains(&[0, 3000]).unwrap());
        assert!(matches!(
            s.contains(&[0]),
            Err(Error::ArityMismatch {
                got: 1,
                expected: 2
            })
        ));
    }

    #[test]
    fn process_slice_via_dim_eq() {
        // IS1,k for k = 3.
        let s = IterSpace::builder()
            .dim_eq("i1", 3)
            .dim_range("i2", 0, 3000)
            .build()
            .unwrap();
        assert_eq!(s.count().unwrap(), 3000);
        assert_eq!(s.bounding_box().unwrap()[0], (3, 3));
    }

    #[test]
    fn empty_space() {
        let s = IterSpace::builder()
            .dim_range("i", 0, 4)
            .dim_range("j", 5, 5)
            .build()
            .unwrap();
        assert_eq!(s.count().unwrap(), 0);
        assert_eq!(s.bounding_box().unwrap(), vec![(0, -1); 2]);
        assert!(!s.contains(&[0, 5]).unwrap());
        let m = AffineMap::new(vec![AffineExpr::var("i")]);
        assert!(s.image_1d(&m).unwrap().is_empty());
    }

    #[test]
    fn image_dense_row_access() {
        // d = 1000*k + i2, i2 in [0,3000): contiguous rows.
        let s = IterSpace::builder()
            .dim_range("i2", 0, 3000)
            .build()
            .unwrap();
        for k in 0..4 {
            let m = AffineMap::new(vec![AffineExpr::var("i2") + AffineExpr::constant(1000 * k)]);
            let img = s.image_1d(&m).unwrap();
            assert_eq!(img, IndexSet::from_range(1000 * k, 1000 * k + 3000));
        }
    }

    #[test]
    fn image_strided_column_access() {
        // d = 10*i + 5, i in [0,8): stride 10.
        let s = IterSpace::builder().dim_range("i", 0, 8).build().unwrap();
        let m = AffineMap::new(vec![AffineExpr::term("i", 10) + AffineExpr::constant(5)]);
        let img = s.image_1d(&m).unwrap();
        assert_eq!(img.len(), 8);
        assert!(img.contains(5));
        assert!(img.contains(75));
        assert!(!img.contains(10));
    }

    #[test]
    fn image_2d_dense_tile() {
        // d = 100*i + j, i in [0,4), j in [0,100): fully dense [0,400).
        let s = IterSpace::builder()
            .dim_range("i", 0, 4)
            .dim_range("j", 0, 100)
            .build()
            .unwrap();
        let m = AffineMap::new(vec![AffineExpr::term("i", 100) + AffineExpr::term("j", 1)]);
        assert_eq!(s.image_1d(&m).unwrap(), IndexSet::from_range(0, 400));
    }

    #[test]
    fn image_2d_with_gap() {
        // d = 100*i + j, i in [0,3), j in [0,10): 3 blocks of 10.
        let s = IterSpace::builder()
            .dim_range("i", 0, 3)
            .dim_range("j", 0, 10)
            .build()
            .unwrap();
        let m = AffineMap::new(vec![AffineExpr::term("i", 100) + AffineExpr::term("j", 1)]);
        let img = s.image_1d(&m).unwrap();
        assert_eq!(img.len(), 30);
        assert_eq!(img.intervals().len(), 3);
        assert!(img.contains(209));
        assert!(!img.contains(50));
    }

    #[test]
    fn image_negative_coefficient() {
        // d = -i, i in [0,5): {-4..0}.
        let s = IterSpace::builder().dim_range("i", 0, 5).build().unwrap();
        let m = AffineMap::new(vec![AffineExpr::term("i", -1)]);
        let img = s.image_1d(&m).unwrap();
        assert_eq!(img, IndexSet::from_range(-4, 1));
    }

    #[test]
    fn image_of_an_undeclared_variable_is_an_error() {
        // `k` is not a dimension: it has no value to read, not 0.
        let s = IterSpace::builder().dim_range("i", 0, 4).build().unwrap();
        let m = AffineMap::new(vec![AffineExpr::var("i") + AffineExpr::term("k", 10)]);
        assert_eq!(s.image_1d(&m), Err(Error::UnboundVariable("k".into())));
        let empty = IterSpace::builder().dim_range("i", 4, 0).build().unwrap();
        assert_eq!(empty.image_1d(&m), Err(Error::UnboundVariable("k".into())));
    }

    #[test]
    fn too_large_budget_error() {
        // Two sparse dimensions of 2^15 offsets each: 2^30 combinations.
        let s = IterSpace::builder()
            .dim_range("i", 0, 1 << 15)
            .dim_range("j", 0, 1 << 15)
            .build()
            .unwrap();
        let m = AffineMap::new(vec![
            AffineExpr::term("i", 1 << 20) + AffineExpr::term("j", 1 << 40),
        ]);
        assert!(matches!(s.image_1d(&m), Err(Error::TooLarge { .. })));
        assert_eq!(s.linear_image(&[1 << 20, 1 << 40], 0), s.image_1d(&m));
        // count() is closed-form at any size.
        assert_eq!(s.count().unwrap(), 1u64 << 30);
    }

    #[test]
    fn display() {
        let s = IterSpace::builder()
            .dim_range("i", 0, 2)
            .dim_eq("j", 5)
            .build()
            .unwrap();
        assert_eq!(s.to_string(), "{[i,j] : 0 <= i <= 1 && 5 <= j <= 5}");
    }
}
