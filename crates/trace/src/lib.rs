//! Compiled stride-run trace IR with binary record/replay — the trace
//! level of the LAMS hot path.
//!
//! A process's op stream re-evaluates affine maps one op at a time;
//! this crate gives traces a compiled form instead:
//!
//! * [`Program`] — a compact block program of strided [`Run`]s,
//!   compute [`Block::Burst`]s and RLE'd innermost [`Block::Loop`]s
//!   whose decoded stream is the original trace **op for op**;
//! * [`ProgramBuilder`] — builds programs from raw op streams
//!   (recording) or structured loop pushes (affine lowering), with
//!   run-length merging across contiguous rows;
//! * [`Cursor`] — a resumable decode position that is both an
//!   [`Iterator`] of [`lams_mpsoc::TraceOp`]s and a
//!   [`lams_mpsoc::TraceSource`], so the machine's batched executor
//!   ([`lams_mpsoc::Machine::exec_source_until`]) can run whole runs
//!   between preemption points and split a run at the exact
//!   quantum/event-horizon op;
//! * [`TraceBundle`] — a workload's programs plus dependence edges,
//!   serialized in the versioned little-endian `.ltr` format (see
//!   `docs/trace-format.md`) so any simulation can be recorded and any
//!   external trace replayed through the full policy/sweep stack.
//!
//! ```
//! use lams_mpsoc::TraceOp;
//! use lams_trace::{ProgramBuilder, TraceBundle, TraceRecord};
//!
//! // Record a small op stream...
//! let mut b = ProgramBuilder::new();
//! for i in 0..1000u64 {
//!     b.push_op(TraceOp::read(i * 4));
//!     b.push_op(TraceOp::compute(2));
//! }
//! let program = b.finish();
//! assert_eq!(program.len_ops(), 2000);
//! assert_eq!(program.blocks().len(), 1); // RLE'd to one loop block
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
pub use ir::{Block, Lane, LoopBlock, Program, Run};
pub use ltr::{LTR_MAGIC, LTR_VERSION};
