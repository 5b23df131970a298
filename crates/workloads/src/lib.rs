//! The application workloads of *Kandemir & Chen, DATE 2005*: the six
//! array-intensive embedded benchmarks of Table 1, the Prog1/Prog2
//! running example of Figure 1, and a seeded synthetic generator.
//!
//! The paper evaluates its scheduler on six image/video-processing
//! applications (Med-Im04, MxM, Radar, Shape, Track, Usonic) whose
//! process counts range from 9 to 37. The originals are proprietary;
//! this crate provides synthetic stand-ins with the properties the
//! scheduler actually observes — it sees footprints, sharing and
//! dependences, never the computation itself:
//!
//! * staged, pipeline-parallel structure with 9–37 processes per task,
//! * affine array accesses over row/column slices with halo overlaps,
//!   producer→consumer intermediates and small shared lookup tables —
//!   hence heavy *intra-task* data sharing,
//! * zero *inter-task* sharing (each application owns its arrays),
//! * working sets comparable to the 8 KB per-core L1 of Table 2.
//!
//! Applications are described declaratively ([`AppSpec`], [`ProcessSpec`],
//! [`AccessSpec`]) and compiled by [`Workload`] into
//!
//! * an extended process graph ([`lams_procgraph::ProcessGraph`]),
//! * exact per-process data sets computed symbolically with
//!   [`lams_presburger`] (the Section 2 machinery),
//! * per-process memory traces compiled into the trace IR
//!   ([`lams_trace::Program`]) against a [`lams_layout::Layout`].
//!
//! ```
//! use lams_workloads::{suite, Scale, Workload};
//! use lams_layout::Layout;
//!
//! let app = suite::shape(Scale::Tiny);
//! let w = Workload::single(app).unwrap();
//! assert_eq!(w.num_processes(), 9); // Table 1: Shape has 9 processes
//!
//! // Exact footprints come from the Presburger machinery:
//! let p0 = w.process_ids().next().unwrap();
//! assert!(w.data_set(p0).total_len() > 0);
//!
//! // Traces compile against a layout, to the declared op count:
//! let layout = Layout::linear(w.arrays());
//! assert_eq!(w.compile_trace(p0, &layout).len_ops(), w.trace_len(p0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Determinism: no host clock, worker id or hash order (docs/invariants.md).
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
#![deny(clippy::iter_over_hash_type)]

mod apps;
mod build;
mod compile;
mod error;
mod prog;
mod scale;
mod spec;
pub mod suite;
mod synthetic;

pub use build::{ProcessHandle, Workload};
pub use error::{Error, Result};
pub use prog::{prog1, prog2};
pub use scale::Scale;
pub use spec::{AccessKind, AccessSpec, AppSpec, ProcessSpec};
pub use synthetic::{synthetic_app, SyntheticConfig};
