//! Data mapping and conflict-avoiding array re-layout, implementing
//! Section 3 (Figures 4 and 5) of *Kandemir & Chen, "Locality-Aware
//! Process Scheduling for Embedded MPSoCs", DATE 2005*.
//!
//! The paper reduces conflict misses between processes that share a core
//! but no data by *re-layouting* their arrays: each array is split into
//! chunks of half a cache page (`page = cache size / associativity`) and
//! the chunks are placed so that arrays with different half-page offsets
//! `b ∈ {0, C/2}` can never map to the same cache sets:
//!
//! ```text
//! addr'(A[x]) = 2·addr(A[x]) − addr(A[x]) mod (C/2) + b
//! ```
//!
//! This crate provides:
//!
//! * [`ArrayId`] / [`ArrayDecl`] / [`ArrayTable`] — array declarations,
//! * [`Layout`] — element-index → byte-address mapping, either the plain
//!   row-major allocation or the Figure 4 chunked remap per array,
//! * [`ConflictMatrix`] — estimated cache-set conflicts between array
//!   pairs, given their footprints and the cache geometry,
//! * [`relayout_pass`] — the greedy Figure 5 algorithm choosing which
//!   arrays to re-layout (threshold `T` defaults to the paper's "average
//!   number of conflicts across all pairs"),
//! * [`HalfPage`] / [`RemapAssignment`] — the resulting `b` assignments.
//!
//! A note on memory use: the paper interleaves two re-layouted arrays into
//! one region (Figure 4(b)); this implementation gives every re-layouted
//! array its own doubled region instead. Cache-set behaviour — the only
//! thing the experiments observe — is identical, because set indices
//! depend on `addr mod C` only, and bases are page-aligned.
//!
//! ```
//! use lams_layout::{ArrayDecl, ArrayTable, HalfPage, Layout, RemapAssignment};
//! use lams_mpsoc::CacheConfig;
//!
//! let mut table = ArrayTable::new();
//! let k1 = table.push(ArrayDecl::new("K1", vec![1024], 4));
//! let k2 = table.push(ArrayDecl::new("K2", vec![1024], 4));
//!
//! let cache = CacheConfig::paper_default();
//! let mut asg = RemapAssignment::new();
//! asg.assign(k1, HalfPage::Lower);
//! asg.assign(k2, HalfPage::Upper);
//! let layout = Layout::remapped(&table, &cache, &asg);
//!
//! // Elements of K1 and K2 can never share a cache set.
//! let s1 = cache.set_of(layout.addr(k1, 0));
//! let s2 = cache.set_of(layout.addr(k2, 0));
//! assert_ne!(s1, s2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Determinism: no host clock, worker id or hash order (docs/invariants.md).
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
#![deny(clippy::iter_over_hash_type)]

mod array;
mod conflict;
mod error;
mod layout;
mod relayout;

pub use array::{ArrayDecl, ArrayId, ArrayTable};
pub use conflict::ConflictMatrix;
pub use error::{Error, Result};
pub use layout::Layout;
pub use relayout::{relayout_pass, AdjacentArrays, HalfPage, RemapAssignment};
