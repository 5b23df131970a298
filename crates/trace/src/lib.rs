//! Compiled trace IR with binary record/replay — the trace level of the
//! LAMS hot path.
//!
//! A process's op stream re-evaluates affine maps one op at a time;
//! this crate gives traces a compiled form instead:
//!
//! * [`Program`] — a compact program of innermost-loop rounds: RLE'd
//!   [`Block::Loop`]s and access-free compute [`Block::Burst`]s, whose
//!   decoded stream is the original trace **op for op**;
//! * [`ProgramBuilder`] — builds programs from loop pushes (affine
//!   lowering), merging a push into the previous loop when it
//!   continues it, so contiguous rows collapse to one block;
//! * [`Cursor`] — a resumable decode position that is both an
//!   [`Iterator`] of [`lams_mpsoc::TraceOp`]s and a
//!   [`lams_mpsoc::TraceSource`], so the machine's batched executor
//!   ([`lams_mpsoc::Machine::exec_source_until`]) can run whole windows
//!   of rounds between preemption points and split a round at the
//!   exact quantum/event-horizon op;
//! * [`TraceBundle`] — a workload's programs plus dependence edges,
//!   serialized in the versioned little-endian `.ltr` format (see
//!   `docs/trace-format.md`) so any simulation can be recorded and any
//!   external trace replayed through the full policy/sweep stack.
//!
//! ```
//! use lams_mpsoc::TraceOp;
//! use lams_trace::{Lane, ProgramBuilder, TraceBundle, TraceRecord};
//!
//! // Push ten rows of a loop: `read(a[i]); compute(2)` over 100 `i`...
//! let mut b = ProgramBuilder::new();
//! for row in 0..10u64 {
//!     let a = Lane { base: row * 400, stride: 4, write: false };
//!     b.push_loop(&[a], 100, 2);
//! }
//! let program = b.finish();
//! assert_eq!(program.len_ops(), 2000);
//! assert_eq!(program.blocks().len(), 1); // contiguous rows: one block
//! assert_eq!(program.iter().nth(2), Some(TraceOp::read(4)));
//!
//! // ...bundle it, serialize, and get it back bit-identically.
//! let bundle = TraceBundle {
//!     name: "demo".into(),
//!     records: vec![TraceRecord { name: "p0".into(), program }],
//!     edges: vec![],
//! };
//! let bytes = bundle.to_bytes();
//! assert_eq!(TraceBundle::from_bytes(&bytes).unwrap(), bundle);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Determinism: no host clock, worker id or hash order (docs/invariants.md).
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
#![deny(clippy::iter_over_hash_type)]

mod builder;
mod bundle;
mod cursor;
mod error;
mod ir;
mod ltr;

pub use builder::ProgramBuilder;
pub use bundle::{TraceBundle, TraceRecord};
pub use cursor::Cursor;
pub use error::{Error, Result};
pub use ir::{Block, Lane, LoopBlock, Program};
pub use ltr::{LTR_MAGIC, LTR_VERSION};
