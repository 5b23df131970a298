//! `IterSpace::bounding_box` reads the bounds of a unit box straight
//! off its constraints and leaves every other space to Fourier–Motzkin.
//! Differential test: over random spaces on both sides of that choice
//! the answer equals the per-dimension `fm::var_bounds` derivation — in
//! value and in error — and `count` / `image_1d` / `for_each_point`
//! built on it agree with brute-force enumeration.

use proptest::prelude::*;

use lams_presburger::fm;
use lams_presburger::{AffineExpr, AffineMap, Constraint, Error, IndexSet, IterSpace};

/// How one dimension is constrained: a shape code and two small
/// constants.
type DimShape = (u8, i64, i64);

/// Every constant the generator writes keeps feasible points inside
/// this window, so brute force over it is exhaustive for bounded spaces.
const WINDOW: std::ops::RangeInclusive<i64> = -8..=12;

fn var(k: usize) -> AffineExpr {
    AffineExpr::var(format!("x{k}"))
}

fn constant(c: i64) -> AffineExpr {
    AffineExpr::constant(c)
}

/// Builds the space and says whether every constraint in it is a
/// unit-coefficient one on a single dimension.
fn build(dims: &[DimShape], extra: u8) -> (IterSpace, bool) {
    let mut b = IterSpace::builder();
    let mut unit = true;
    for (k, &(shape, a, len)) in dims.iter().enumerate() {
        let name = format!("x{k}");
        let scaled = |coeff| AffineExpr::term(format!("x{k}"), coeff);
        b = match shape {
            // Ranges: single-point and wider, then possibly empty.
            0..=7 => b.dim_range(name, a, a + len.max(1)),
            8 => b.dim_range(name, a, a + len),
            9 | 10 => b.dim_eq(name, a),
            // One side missing, or no constraint at all.
            11 => b.dim(name).constraint(Constraint::ge(var(k), constant(a))),
            12 => b.dim(name).constraint(Constraint::le(var(k), constant(a))),
            13 => b.dim(name),
            // `3x >= 7`-style: normalization tightens these to unit
            // constraints, rounding toward the feasible side.
            14 | 15 => b
                .dim(name)
                .constraint(Constraint::ge(scaled(3), constant(a)))
                .constraint(Constraint::le(scaled(2), constant(a + len + 9))),
            // `2x == 2a + 1` has no integer solution but a rational one
            // inside the range: only the dimension itself knows.
            16 => {
                unit = false;
                b.dim_range(name, a - 2, a + 3)
                    .constraint(Constraint::eq(scaled(2), constant(2 * a + 1)))
            }
            // Several bounds on one dimension, possibly crossing.
            17 => b
                .dim_range(name, a, a + 4)
                .constraint(Constraint::le(var(k), constant(a + len))),
            18 => b
                .dim_eq(name, a)
                .constraint(Constraint::ge(var(k), constant(a + len))),
            _ => b
                .dim_eq(name, a)
                .constraint(Constraint::eq(var(k), constant(a + len.min(1)))),
        };
    }
    b = match extra {
        0 => {
            unit = false;
            b.constraint(Constraint::unsatisfiable())
        }
        1 => {
            unit = false;
            b.constraint(Constraint::ge_zero(constant(3)))
        }
        2 | 3 if dims.len() >= 2 => {
            unit = false;
            let (first, last) = (var(0), var(dims.len() - 1));
            b.constraint(if extra == 2 {
                Constraint::le(first, last)
            } else {
                Constraint::le(first + last, constant(4))
            })
        }
        _ => b,
    };
    (b.build().expect("generated spaces are well-formed"), unit)
}

/// The reference: one Fourier–Motzkin projection per dimension, in
/// order, the first empty or unbounded answer deciding.
fn fm_bounding_box(s: &IterSpace) -> Result<Vec<(i64, i64)>, Error> {
    let mut out = Vec::new();
    for d in s.dims() {
        match fm::var_bounds(s.system(), d) {
            None => return Ok(vec![(0, -1); s.rank()]),
            Some((Some(lo), Some(hi))) => out.push((lo, hi)),
            Some(_) => return Err(Error::Unbounded(d.name().to_owned())),
        }
    }
    Ok(out)
}

/// Every member point inside [`WINDOW`], in lexicographic order, found
/// by testing candidates against the constraints: each coordinate
/// ranges over the window values that no constraint on that dimension
/// alone rules out, and every combination is then tested whole.
fn brute_force(s: &IterSpace) -> Vec<Vec<i64>> {
    let mut points = vec![Vec::new()];
    for d in s.dims() {
        let allowed: Vec<i64> = WINDOW
            .filter(|&x| {
                s.system()
                    .constraints()
                    .iter()
                    .filter(|c| c.expr().vars().eq([d]))
                    .all(|c| c.holds_point(std::slice::from_ref(d), &[x]).expect("bound"))
            })
            .collect();
        points = points
            .iter()
            .flat_map(|p| allowed.iter().map(move |&x| [p.as_slice(), &[x]].concat()))
            .collect();
    }
    points.retain(|p| s.contains(p).expect("arity matches"));
    points
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn bounding_box_equals_the_fourier_motzkin_derivation(
        dims in prop::collection::vec((0u8..20, -4i64..5, -2i64..5), 4..5),
        rank in 0usize..17,
        extra in 0u8..16,
        coeffs in prop::collection::vec(-3i64..4, 5..6),
    ) {
        // Rank 0 once in 17, ranks 1 to 4 equally often.
        let (space, unit) = build(&dims[..rank.div_ceil(4)], extra);
        prop_assert_eq!(space.is_unit_box(), unit, "{}", space);
        let bbox = space.bounding_box();
        prop_assert_eq!(&bbox, &fm_bounding_box(&space), "{}", space);

        let map = AffineMap::new(vec![AffineExpr::from_terms(
            (0..space.rank()).map(|k| (format!("x{k}"), coeffs[k])),
            coeffs[4],
        )]);
        let Ok(bbox) = bbox else {
            // Unbounded: everything built on the box fails the same way.
            let err = fm_bounding_box(&space).unwrap_err();
            prop_assert_eq!(space.count(), Err(err.clone()), "{}", space);
            prop_assert_eq!(space.image_1d(&map), Err(err), "{}", space);
            return Ok(());
        };
        // Rank 0 is left alone: `count()` calls it one point (the empty
        // product) while enumeration visits none.
        if space.rank() == 0 {
            return Ok(());
        }
        for &(lo, hi) in &bbox {
            prop_assert!(lo > hi || (WINDOW.contains(&lo) && WINDOW.contains(&hi)), "{}", space);
        }
        let points = brute_force(&space);
        prop_assert_eq!(space.count(), Ok(points.len() as u64), "{}", space);
        let mut visited = Vec::new();
        space
            .for_each_point(1 << 20, |p| visited.push(p.to_vec()))
            .expect("bounded and small");
        prop_assert_eq!(&visited, &points, "{}", space);
        let image: IndexSet = points
            .iter()
            .map(|p| map.output(0).eval_point(space.dims(), p).expect("dims bound"))
            .collect();
        prop_assert_eq!(space.image_1d(&map), Ok(image), "{}", space);
    }
}
