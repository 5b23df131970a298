//! Bounded iteration spaces: membership, enumeration, counting, images.

use std::fmt;

use crate::fm;
use crate::{
    AffineExpr, AffineMap, Constraint, ConstraintKind, ConstraintSystem, Error, IndexSet, Result,
    Var,
};

/// What [`fm::var_bounds`] returns for one variable: `None` when the
/// system is empty, else its `(lower, upper)` bounds where finite.
type VarBounds = Option<(Option<i64>, Option<i64>)>;

/// Default budget for exact enumeration (number of bounding-box points).
///
/// Spaces larger than this must be handled symbolically (see
/// [`IterSpace::image_1d`], which has closed-form fast paths) or with an
/// explicit larger budget.
pub const DEFAULT_ENUM_BUDGET: u128 = 1 << 28;

/// A bounded integer iteration space: ordered dimensions plus a
/// conjunction of affine constraints.
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
    system: ConstraintSystem,
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

    /// The constraint system.
    pub fn system(&self) -> &ConstraintSystem {
        &self.system
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Membership test for a positional point.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnboundVariable`] if a constraint mentions a
    /// variable that is not a dimension (prevented by the builder) or the
    /// point has the wrong arity.
    pub fn contains(&self, point: &[i64]) -> Result<bool> {
        if point.len() != self.dims.len() {
            return Err(Error::ArityMismatch {
                got: point.len(),
                expected: self.dims.len(),
            });
        }
        self.system.holds_point(&self.dims, point)
    }

    /// Integer bounding box `(lo, hi)` (both inclusive) per dimension.
    ///
    /// The bounds of a [unit box](IterSpace::is_unit_box) are read
    /// straight off its constraints; every other space derives them by
    /// Fourier–Motzkin projection, one [`fm::var_bounds`] per dimension.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unbounded`] when some dimension has no finite
    /// bound. Returns an empty `Vec` wrapped in `Ok` only for rank-0
    /// spaces; an infeasible system yields `Ok` with an empty marker box
    /// `(0, -1)` in every dimension.
    pub fn bounding_box(&self) -> Result<Vec<(i64, i64)>> {
        let unit = self.unit_bounds();
        let mut out = Vec::with_capacity(self.dims.len());
        for (k, d) in self.dims.iter().enumerate() {
            let bounds = match &unit {
                Some(unit) => unit[k],
                None => fm::var_bounds(&self.system, d),
            };
            match bounds {
                None => {
                    // Infeasible: report an empty box.
                    return Ok(vec![(0, -1); self.dims.len()]);
                }
                Some((Some(lo), Some(hi))) => out.push((lo, hi)),
                Some(_) => return Err(Error::Unbounded(d.name().to_owned())),
            }
        }
        Ok(out)
    }

    /// Whether every constraint is an inequality or equality with
    /// coefficient `±1` on exactly one dimension — an axis-aligned box
    /// whose bounds are written in its constraints, which is what
    /// [`IterSpaceBuilder::dim_range`] and [`IterSpaceBuilder::dim_eq`]
    /// produce and what constraint normalization makes of every
    /// single-variable constraint except an equality with no integer
    /// solution (`2x == 5`). [`IterSpace::bounding_box`] needs no
    /// elimination for such a space.
    pub fn is_unit_box(&self) -> bool {
        self.unit_bounds().is_some()
    }

    /// For a unit box, what [`fm::var_bounds`] would return for each
    /// dimension in turn; `None` for any other space. A dimension whose
    /// bounds cross empties the whole system, and projection notices
    /// that whichever dimension it is asked about, so then every entry
    /// is `None`.
    fn unit_bounds(&self) -> Option<Vec<VarBounds>> {
        let mut bounds: Vec<(Option<i64>, Option<i64>)> = vec![(None, None); self.dims.len()];
        for c in self.system.constraints() {
            let mut terms = c.expr().terms();
            let (Some((var, a)), None) = (terms.next(), terms.next()) else {
                return None;
            };
            if a != 1 && a != -1 {
                return None;
            }
            let (lo, hi) = &mut bounds[self.dims.iter().position(|d| d == var)?];
            // With a = ±1, `a*x + d >= 0` bounds x by -a*d: from below
            // when a > 0, from above when a < 0; `== 0` does both.
            let x = -a * c.expr().constant_part();
            let eq = c.kind() == ConstraintKind::EqZero;
            if eq || a > 0 {
                *lo = Some(lo.map_or(x, |l| l.max(x)));
            }
            if eq || a < 0 {
                *hi = Some(hi.map_or(x, |h| h.min(x)));
            }
        }
        let empty = bounds
            .iter()
            .any(|b| matches!(b, (Some(lo), Some(hi)) if lo > hi));
        Some(bounds.into_iter().map(|b| (!empty).then_some(b)).collect())
    }

    /// Whether every constraint mentions at most one dimension (the space
    /// is an axis-aligned box, possibly empty).
    pub fn is_box(&self) -> bool {
        self.system
            .constraints()
            .iter()
            .all(|c| c.expr().num_vars() <= 1)
    }

    /// Visits every point of the space in lexicographic order, reusing a
    /// single buffer (no per-point allocation).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unbounded`] for unbounded spaces and
    /// [`Error::TooLarge`] when the bounding box exceeds `budget`.
    pub fn for_each_point<F>(&self, budget: u128, mut f: F) -> Result<()>
    where
        F: FnMut(&[i64]),
    {
        let bbox = self.bounding_box()?;
        let mut volume: u128 = 1;
        for &(lo, hi) in &bbox {
            if hi < lo {
                return Ok(()); // empty space
            }
            volume = volume.saturating_mul((hi - lo + 1) as u128);
        }
        if volume > budget {
            return Err(Error::TooLarge {
                estimated: volume,
                budget,
            });
        }
        if self.dims.is_empty() {
            return Ok(());
        }
        let mut point: Vec<i64> = bbox.iter().map(|&(lo, _)| lo).collect();
        let is_box = self.is_box();
        loop {
            if is_box || self.system.holds_point(&self.dims, &point)? {
                f(&point);
            }
            // Odometer increment, last dimension fastest.
            let mut k = self.dims.len();
            loop {
                if k == 0 {
                    return Ok(());
                }
                k -= 1;
                if point[k] < bbox[k].1 {
                    point[k] += 1;
                    for (j, p) in point.iter_mut().enumerate().skip(k + 1) {
                        *p = bbox[j].0;
                    }
                    break;
                }
            }
        }
    }

    /// Iterates over all points (allocating a `Vec` per point). Prefer
    /// [`IterSpace::for_each_point`] on hot paths.
    ///
    /// # Errors
    ///
    /// Same conditions as [`IterSpace::for_each_point`].
    pub fn iter(&self) -> Result<PointIter<'_>> {
        let bbox = self.bounding_box()?;
        let empty = bbox.iter().any(|&(lo, hi)| hi < lo) || self.dims.is_empty();
        let mut volume: u128 = 1;
        for &(lo, hi) in &bbox {
            if hi >= lo {
                volume = volume.saturating_mul((hi - lo + 1) as u128);
            }
        }
        if !empty && volume > DEFAULT_ENUM_BUDGET {
            return Err(Error::TooLarge {
                estimated: volume,
                budget: DEFAULT_ENUM_BUDGET,
            });
        }
        Ok(PointIter {
            space: self,
            bbox: bbox.clone(),
            next: if empty {
                None
            } else {
                Some(bbox.iter().map(|&(lo, _)| lo).collect())
            },
        })
    }

    /// Exact number of integer points.
    ///
    /// # Errors
    ///
    /// Same conditions as [`IterSpace::for_each_point`] with the default
    /// budget.
    pub fn count(&self) -> Result<u64> {
        // Fast path: boxes count in closed form.
        if self.is_box() {
            let bbox = self.bounding_box()?;
            let mut n: u128 = 1;
            for &(lo, hi) in &bbox {
                if hi < lo {
                    return Ok(0);
                }
                n = n.saturating_mul((hi - lo + 1) as u128);
            }
            return Ok(n.min(u64::MAX as u128) as u64);
        }
        let mut n = 0u64;
        self.for_each_point(DEFAULT_ENUM_BUDGET, |_| n += 1)?;
        Ok(n)
    }

    /// Whether the space contains no integer points.
    ///
    /// # Errors
    ///
    /// Same conditions as [`IterSpace::count`].
    pub fn is_empty_set(&self) -> Result<bool> {
        if fm::is_empty_rational(&self.system) {
            return Ok(true);
        }
        Ok(self.count()? == 0)
    }

    /// Intersects two spaces over the same dimension list.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MalformedSpace`] when the dimension lists differ.
    pub fn intersect(&self, other: &IterSpace) -> Result<IterSpace> {
        if self.dims != other.dims {
            return Err(Error::MalformedSpace(format!(
                "dimension mismatch: {:?} vs {:?}",
                self.dims, other.dims
            )));
        }
        Ok(IterSpace {
            dims: self.dims.clone(),
            system: self.system.and(&other.system),
        })
    }

    /// Computes the exact image of the space under a 1-output affine map
    /// as an [`IndexSet`] of linearized indices.
    ///
    /// Box-shaped spaces use closed-form interval arithmetic: the
    /// dimensions are split into a maximal "dense" group (whose combined
    /// strides tile a contiguous interval) and the remaining sparse
    /// dimensions, which are enumerated. Non-box spaces fall back to point
    /// enumeration under the default budget.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unbounded`] / [`Error::TooLarge`] like
    /// enumeration, and [`Error::ArityMismatch`] when `map.arity() != 1`.
    pub fn image_1d(&self, map: &AffineMap) -> Result<IndexSet> {
        if map.arity() != 1 {
            return Err(Error::ArityMismatch {
                got: map.arity(),
                expected: 1,
            });
        }
        let expr = map.output(0);
        if self.is_box() {
            return self.box_image(expr);
        }
        let mut out = IndexSet::new();
        let dims = self.dims.clone();
        let mut err = None;
        self.for_each_point(DEFAULT_ENUM_BUDGET, |pt| match expr.eval_point(&dims, pt) {
            Ok(v) => out.insert(v),
            Err(e) => err = Some(e),
        })?;
        match err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Closed-form image of a box under an affine expression.
    fn box_image(&self, expr: &AffineExpr) -> Result<IndexSet> {
        let bbox = self.bounding_box()?;
        if bbox.iter().any(|&(lo, hi)| hi < lo) {
            return Ok(IndexSet::new());
        }
        // Gather (|coeff|, extent-1) per mentioned dim and the base value.
        let mut base = expr.constant_part();
        let mut terms: Vec<(i64, i64)> = Vec::new(); // (|c|, n) with n = hi-lo
        for (k, d) in self.dims.iter().enumerate() {
            let c = expr.coeff(d.clone());
            if c == 0 {
                continue;
            }
            let (lo, hi) = bbox[k];
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
        if combos > DEFAULT_ENUM_BUDGET {
            return Err(Error::TooLarge {
                estimated: combos,
                budget: DEFAULT_ENUM_BUDGET,
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
        write!(f, "] : {}}}", self.system)
    }
}

/// Builder for [`IterSpace`].
///
/// See [`IterSpace::builder`].
#[derive(Debug, Clone, Default)]
pub struct IterSpaceBuilder {
    dims: Vec<Var>,
    system: ConstraintSystem,
}

impl IterSpaceBuilder {
    /// Declares a dimension without bounds (bounds must then come from
    /// explicit constraints).
    pub fn dim(mut self, name: impl Into<Var>) -> Self {
        self.dims.push(name.into());
        self
    }

    /// Declares a dimension with the half-open range `[lo, hi)`.
    pub fn dim_range(mut self, name: impl Into<Var>, lo: i64, hi: i64) -> Self {
        let v = name.into();
        self.dims.push(v.clone());
        self.system.push(Constraint::ge(
            AffineExpr::var(v.clone()),
            AffineExpr::constant(lo),
        ));
        self.system
            .push(Constraint::lt(AffineExpr::var(v), AffineExpr::constant(hi)));
        self
    }

    /// Declares a dimension pinned to a single value (`name == value`),
    /// like the paper's `i1 = k` process slices.
    pub fn dim_eq(mut self, name: impl Into<Var>, value: i64) -> Self {
        let v = name.into();
        self.dims.push(v.clone());
        self.system.push(Constraint::eq(
            AffineExpr::var(v),
            AffineExpr::constant(value),
        ));
        self
    }

    /// Adds an arbitrary constraint over already-declared dimensions.
    pub fn constraint(mut self, c: Constraint) -> Self {
        self.system.push(c);
        self
    }

    /// Finishes the build.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DuplicateDimension`] for repeated dimension names
    /// and [`Error::UnboundVariable`] when a constraint mentions an
    /// undeclared variable.
    pub fn build(self) -> Result<IterSpace> {
        let mut seen = std::collections::BTreeSet::new();
        for d in &self.dims {
            if !seen.insert(d.clone()) {
                return Err(Error::DuplicateDimension(d.name().to_owned()));
            }
        }
        for c in self.system.constraints() {
            for v in c.expr().vars() {
                if !seen.contains(v) {
                    return Err(Error::UnboundVariable(v.name().to_owned()));
                }
            }
        }
        Ok(IterSpace {
            dims: self.dims,
            system: self.system,
        })
    }
}

/// Iterator over the points of an [`IterSpace`] in lexicographic order.
///
/// Produced by [`IterSpace::iter`].
#[derive(Debug)]
pub struct PointIter<'a> {
    space: &'a IterSpace,
    bbox: Vec<(i64, i64)>,
    next: Option<Vec<i64>>,
}

impl Iterator for PointIter<'_> {
    type Item = Vec<i64>;

    fn next(&mut self) -> Option<Vec<i64>> {
        loop {
            let current = self.next.clone()?;
            // Compute successor.
            let mut succ = current.clone();
            let mut k = succ.len();
            let mut done = true;
            while k > 0 {
                k -= 1;
                if succ[k] < self.bbox[k].1 {
                    succ[k] += 1;
                    for (s, b) in succ.iter_mut().zip(&self.bbox).skip(k + 1) {
                        *s = b.0;
                    }
                    done = false;
                    break;
                }
            }
            self.next = if done { None } else { Some(succ) };
            if self
                .space
                .system
                .holds_point(&self.space.dims, &current)
                .unwrap_or(false)
            {
                return Some(current);
            }
            self.next.as_ref()?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

        let unbound = IterSpace::builder()
            .dim_range("i", 0, 4)
            .constraint(Constraint::ge(
                AffineExpr::var("z"),
                AffineExpr::constant(0),
            ))
            .build();
        assert_eq!(unbound.unwrap_err(), Error::UnboundVariable("z".into()));
    }

    #[test]
    fn paper_is1_count_and_membership() {
        let s = is1();
        assert_eq!(s.count().unwrap(), 24_000);
        assert!(s.contains(&[0, 0]).unwrap());
        assert!(s.contains(&[7, 2999]).unwrap());
        assert!(!s.contains(&[-1, 0]).unwrap());
        assert!(!s.contains(&[0, 3000]).unwrap());
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
    fn triangular_space_counts_by_enumeration() {
        // { (i, j) : 0 <= i < 5, 0 <= j <= i } has 15 points.
        let s = IterSpace::builder()
            .dim_range("i", 0, 5)
            .dim_range("j", 0, 5)
            .constraint(Constraint::le(AffineExpr::var("j"), AffineExpr::var("i")))
            .build()
            .unwrap();
        assert!(!s.is_box());
        assert_eq!(s.count().unwrap(), 15);
    }

    #[test]
    fn empty_space() {
        let s = IterSpace::builder().dim_range("i", 5, 5).build().unwrap();
        assert_eq!(s.count().unwrap(), 0);
        assert!(s.is_empty_set().unwrap());
        assert_eq!(s.iter().unwrap().count(), 0);
    }

    #[test]
    fn iteration_order_lexicographic() {
        let s = IterSpace::builder()
            .dim_range("a", 0, 2)
            .dim_range("b", 0, 2)
            .build()
            .unwrap();
        let pts: Vec<Vec<i64>> = s.iter().unwrap().collect();
        assert_eq!(pts, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn for_each_matches_iter() {
        let s = IterSpace::builder()
            .dim_range("i", 0, 4)
            .dim_range("j", 0, 4)
            .constraint(Constraint::lt(AffineExpr::var("j"), AffineExpr::var("i")))
            .build()
            .unwrap();
        let mut seen = Vec::new();
        s.for_each_point(DEFAULT_ENUM_BUDGET, |p| seen.push(p.to_vec()))
            .unwrap();
        let from_iter: Vec<Vec<i64>> = s.iter().unwrap().collect();
        assert_eq!(seen, from_iter);
        assert_eq!(seen.len(), 6);
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
    fn image_matches_enumeration_on_nonbox() {
        // Triangular: d = 4*i + j for j <= i.
        let s = IterSpace::builder()
            .dim_range("i", 0, 4)
            .dim_range("j", 0, 4)
            .constraint(Constraint::le(AffineExpr::var("j"), AffineExpr::var("i")))
            .build()
            .unwrap();
        let m = AffineMap::new(vec![AffineExpr::term("i", 4) + AffineExpr::var("j")]);
        let img = s.image_1d(&m).unwrap();
        let expect: IndexSet = s.iter().unwrap().map(|p| 4 * p[0] + p[1]).collect();
        assert_eq!(img, expect);
    }

    #[test]
    fn unbounded_space_is_error() {
        let s = IterSpace::builder().dim("i").build().unwrap();
        assert!(matches!(s.count(), Err(Error::Unbounded(_))));
    }

    #[test]
    fn too_large_budget_error() {
        let s = IterSpace::builder()
            .dim_range("i", 0, 1 << 20)
            .dim_range("j", 0, 1 << 20)
            .build()
            .unwrap();
        assert!(matches!(
            s.for_each_point(1 << 10, |_| {}),
            Err(Error::TooLarge { .. })
        ));
        // count() still succeeds via the box fast path.
        assert_eq!(s.count().unwrap(), 1u64 << 40);
    }

    #[test]
    fn intersect_requires_same_dims() {
        let a = is1();
        let b = IterSpace::builder().dim_range("x", 0, 4).build().unwrap();
        assert!(a.intersect(&b).is_err());
        let c = IterSpace::builder()
            .dim_range("i1", 2, 10)
            .dim_range("i2", 0, 3000)
            .build();
        // same dims, different bounds -> overlap 2..8
        let c = c.unwrap();
        // dims orders differ? both i1,i2 so fine
        let i = a.intersect(&c).unwrap();
        assert_eq!(i.count().unwrap(), 6 * 3000);
    }

    #[test]
    fn display() {
        let s = IterSpace::builder().dim_range("i", 0, 2).build().unwrap();
        let d = s.to_string();
        assert!(d.starts_with("{[i] :"));
    }
}
