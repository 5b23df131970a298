//! Property-based tests: IndexSet algebra against a naive BTreeSet model,
//! and every box query against brute-force enumeration.

use std::collections::BTreeSet;

use proptest::prelude::*;

use lams_presburger::{AffineExpr, AffineMap, IndexSet, IterSpace};

/// A small random IndexSet together with its reference model.
fn arb_set() -> impl Strategy<Value = (IndexSet, BTreeSet<i64>)> {
    prop::collection::vec((-200i64..200, 0i64..40), 0..12).prop_map(|ranges| {
        let mut s = IndexSet::new();
        let mut m = BTreeSet::new();
        for (start, len) in ranges {
            s.insert_range(start, start + len);
            m.extend(start..start + len);
        }
        (s, m)
    })
}

/// Every point of the half-open ranges, in lexicographic order.
fn enumerate(ranges: &[(i64, i64)]) -> Vec<Vec<i64>> {
    ranges.iter().fold(vec![Vec::new()], |points, &(lo, hi)| {
        points
            .iter()
            .flat_map(|p| (lo..hi).map(move |x| [p.as_slice(), &[x]].concat()))
            .collect()
    })
}

proptest! {
    #[test]
    fn canonical_form_invariants((s, m) in arb_set()) {
        // Sorted, disjoint, non-adjacent, non-empty runs.
        let runs = s.intervals();
        for w in runs.windows(2) {
            prop_assert!(w[0].end < w[1].start, "runs must be disjoint and non-adjacent");
        }
        for r in runs {
            prop_assert!(r.start < r.end, "runs must be non-empty");
        }
        prop_assert_eq!(s.len(), m.len() as u64);
        prop_assert_eq!(s.iter().collect::<Vec<_>>(), m.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn union_matches_model((a, ma) in arb_set(), (b, mb) in arb_set()) {
        let u = a.union(&b);
        let mu: BTreeSet<i64> = ma.union(&mb).copied().collect();
        prop_assert_eq!(u.iter().collect::<Vec<_>>(), mu.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn intersect_matches_model((a, ma) in arb_set(), (b, mb) in arb_set()) {
        let i = a.intersect(&b);
        let mi: BTreeSet<i64> = ma.intersection(&mb).copied().collect();
        prop_assert_eq!(i.iter().collect::<Vec<_>>(), mi.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn algebra_laws((a, _) in arb_set(), (b, _) in arb_set(), (c, _) in arb_set()) {
        // Commutativity.
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        // Associativity of union.
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        // Distribution: a ∩ (b ∪ c) = (a∩b) ∪ (a∩c).
        prop_assert_eq!(
            a.intersect(&b.union(&c)),
            a.intersect(&b).union(&a.intersect(&c))
        );
        // Inclusion–exclusion on cardinalities.
        prop_assert_eq!(
            a.union(&b).len() + a.intersect(&b).len(),
            a.len() + b.len()
        );
    }

    #[test]
    fn contains_matches_model((a, ma) in arb_set(), probe in -250i64..250) {
        prop_assert_eq!(a.contains(probe), ma.contains(&probe));
    }

    #[test]
    fn coarsen_matches_model((a, ma) in arb_set(), k in 1i64..17) {
        let c = a.coarsen(k);
        let mc: BTreeSet<i64> = ma.iter().map(|x| x.div_euclid(k)).collect();
        prop_assert_eq!(c.iter().collect::<Vec<_>>(), mc.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn box_image_matches_bruteforce(
        lo1 in -5i64..5, n1 in 1i64..6,
        lo2 in -5i64..5, n2 in 1i64..6,
        c1 in -12i64..12, c2 in -12i64..12, c0 in -20i64..20,
    ) {
        let space = IterSpace::builder()
            .dim_range("i", lo1, lo1 + n1)
            .dim_range("j", lo2, lo2 + n2)
            .build().unwrap();
        let expr = AffineExpr::term("i", c1) + AffineExpr::term("j", c2)
            + AffineExpr::constant(c0);
        let map = AffineMap::new(vec![expr]);
        let img = space.image_1d(&map).unwrap();
        let mut brute = BTreeSet::new();
        for i in lo1..lo1 + n1 {
            for j in lo2..lo2 + n2 {
                brute.insert(c1 * i + c2 * j + c0);
            }
        }
        prop_assert_eq!(
            img.iter().collect::<Vec<_>>(),
            brute.into_iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn count_matches_iter(
        n1 in 1i64..8, n2 in 1i64..8,
    ) {
        let space = IterSpace::builder()
            .dim_range("i", 0, n1)
            .dim_range("j", 0, n2)
            .build().unwrap();
        prop_assert_eq!(space.count().unwrap() as usize, enumerate(&[(0, n1), (0, n2)]).len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn box_queries_match_enumeration(
        dims in prop::collection::vec((0u8..3, -6i64..6, -1i64..5), 1..5),
        coeffs in prop::collection::vec(-12i64..12, 4..5),
        c0 in -20i64..20,
        probe in prop::collection::vec(-8i64..12, 4..5),
    ) {
        // Ranks 1 to 4. A dimension is `dim_eq(a)` one time in three,
        // else `dim_range(a, a + len)`; `len <= 0` gives an empty range,
        // and so an empty box.
        let mut builder = IterSpace::builder();
        let mut ranges = Vec::new();
        for (k, &(shape, a, len)) in dims.iter().enumerate() {
            let name = format!("x{k}");
            if shape == 0 {
                builder = builder.dim_eq(name, a);
                ranges.push((a, a + 1));
            } else {
                builder = builder.dim_range(name, a, a + len);
                ranges.push((a, a + len));
            }
        }
        let space = builder.build().expect("distinct dimension names");
        let points = enumerate(&ranges);

        let expected_bbox = if points.is_empty() {
            vec![(0, -1); ranges.len()]
        } else {
            ranges.iter().map(|&(lo, hi)| (lo, hi - 1)).collect()
        };
        prop_assert_eq!(space.bounding_box(), Ok(expected_bbox), "{}", space);
        prop_assert_eq!(space.count(), Ok(points.len() as u64), "{}", space);

        let probe = &probe[..ranges.len()];
        let member = ranges.iter().zip(probe).all(|(&(lo, hi), x)| (lo..hi).contains(x));
        prop_assert_eq!(space.contains(probe), Ok(member), "{} at {:?}", space, probe);

        let expr = (0..ranges.len()).fold(AffineExpr::constant(c0), |e, k| {
            e + AffineExpr::term(format!("x{k}"), coeffs[k])
        });
        let image: IndexSet = points
            .iter()
            .map(|p| c0 + p.iter().zip(&coeffs).map(|(x, c)| x * c).sum::<i64>())
            .collect();
        prop_assert_eq!(space.image_1d(&AffineMap::new(vec![expr])), Ok(image), "{}", space);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn positional_image_matches_the_symbolic_route(
        dims in prop::collection::vec((-6i64..6, -1i64..5), 1..5),
        outputs in prop::collection::vec(
            (prop::collection::vec(-9i64..9, 4..5), -20i64..20, 1i64..7),
            1..4,
        ),
    ) {
        // A rank 1–4 box (empty when some `len <= 0`) and an arity 1–3
        // map over it, each output `c0 + Σ c[k] x_k` into an extent.
        let mut builder = IterSpace::builder();
        for (k, &(a, len)) in dims.iter().enumerate() {
            builder = builder.dim_range(format!("x{k}"), a, a + len);
        }
        let space = builder.build().expect("distinct dimension names");
        let rank = dims.len();
        let map = AffineMap::new(
            outputs
                .iter()
                .map(|(c, c0, _)| {
                    (0..rank).fold(AffineExpr::constant(*c0), |e, k| {
                        e + AffineExpr::term(format!("x{k}"), c[k])
                    })
                })
                .collect(),
        );
        let extents: Vec<i64> = outputs.iter().map(|&(_, _, n)| n).collect();

        // Row-major by hand: output `j` scales by the extents after it.
        let mut coeffs = vec![0i64; rank];
        let mut constant = 0i64;
        for (j, (c, c0, _)) in outputs.iter().enumerate() {
            let stride: i64 = extents[j + 1..].iter().product();
            for (k, x) in coeffs.iter_mut().enumerate() {
                *x += c[k] * stride;
            }
            constant += c0 * stride;
        }

        let lin = map.linearized(&extents).expect("arity matches");
        for (k, &c) in coeffs.iter().enumerate() {
            prop_assert_eq!(lin.coeff(format!("x{k}").as_str()), c);
        }
        prop_assert_eq!(lin.constant_part(), constant);
        prop_assert_eq!(
            space.linear_image(&coeffs, constant),
            space.image_1d(&AffineMap::new(vec![lin])),
            "{}", space
        );
    }
}

#[test]
fn positional_image_refuses_a_wrong_rank() {
    let space = IterSpace::builder().dim_range("i", 0, 4).build().unwrap();
    assert_eq!(
        space.linear_image(&[1, 2], 0),
        Err(lams_presburger::Error::ArityMismatch {
            got: 2,
            expected: 1
        })
    );
}
