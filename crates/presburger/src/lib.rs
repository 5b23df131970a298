//! Presburger-arithmetic-lite machinery for capturing inter-process data
//! sharing, as used in Section 2 of *Kandemir & Chen, "Locality-Aware
//! Process Scheduling for Embedded MPSoCs", DATE 2005*.
//!
//! The paper expresses per-process iteration sets, the data sets they touch,
//! and pairwise shared sets using Presburger formulas such as
//!
//! ```text
//! IS1,k = {[i1,i2] : i1 = k && 0 <= i2 < 3000}
//! DS1,k = {[d1,d2] : d1 = i1*1000 + i2 && d2 = 5 && [i1,i2] in IS1,k}
//! SS1,k,p = DS1,k ∩ DS1,p
//! ```
//!
//! Every iteration set the paper writes is a box — each dimension either
//! pinned (`i1 = k`) or ranging over an interval — and the data and
//! shared sets are affine images and intersections of such boxes. This
//! crate implements exactly that fragment:
//!
//! * [`AffineExpr`] — integer affine expressions over named variables,
//! * [`IterSpace`] — box iteration spaces with membership tests, exact
//!   closed-form counting and exact affine images,
//! * [`AffineMap`] — affine access functions from iterations to array
//!   subscripts,
//! * [`IndexSet`] — exact, canonical unions of integer intervals over
//!   linearized array indices (the workhorse behind footprints),
//! * [`DataSet`] — per-array footprints with exact intersection
//!   cardinality, i.e. the `|SS_{k,p}|` entries of the sharing matrix in
//!   Figure 2(a) of the paper.
//!
//! # Example: the paper's running example (Prog1)
//!
//! Process `k` of Prog1 executes `B[i1] += A[i1*1000 + i2][5]` for
//! `i1 = k`, `0 <= i2 < 3000`, i.e. it touches rows `1000k .. 1000k+3000`
//! of array `A`. Adjacent processes therefore share 2000 rows, processes
//! two apart share 1000, and farther pairs share nothing — the exact
//! pattern of Figure 2(a):
//!
//! ```
//! use lams_presburger::{AffineExpr, AffineMap, IterSpace};
//!
//! fn rows_of(k: i64) -> lams_presburger::IndexSet {
//!     let is = IterSpace::builder()
//!         .dim_range("i2", 0, 3000)
//!         .build()
//!         .unwrap();
//!     // d1 = 1000*k + i2
//!     let map = AffineMap::new(vec![
//!         AffineExpr::term("i2", 1) + AffineExpr::constant(1000 * k),
//!     ]);
//!     is.image_1d(&map).unwrap()
//! }
//!
//! let shared_adjacent = rows_of(0).intersect(&rows_of(1));
//! let shared_two_apart = rows_of(0).intersect(&rows_of(2));
//! let shared_far = rows_of(0).intersect(&rows_of(3));
//! assert_eq!(shared_adjacent.len(), 2000);
//! assert_eq!(shared_two_apart.len(), 1000);
//! assert_eq!(shared_far.len(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod error;
mod expr;
mod iset;
mod map;
mod space;

pub use dataset::DataSet;
pub use error::{Error, Result};
pub use expr::{AffineExpr, Var};
pub use iset::{IndexSet, Interval};
pub use map::AffineMap;
pub use space::{IterSpace, IterSpaceBuilder};
