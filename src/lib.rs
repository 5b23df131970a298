//! # LAMS — Locality-Aware MPSoC Scheduling
//!
//! A full reproduction of *Kandemir & Chen, "Locality-Aware Process
//! Scheduling for Embedded MPSoCs", DATE 2005*, as a Rust workspace.
//!
//! This facade crate re-exports every sub-crate under a stable prefix so
//! applications can depend on a single crate:
//!
//! * [`presburger`] — affine sets and exact footprint algebra (Section 2),
//! * [`procgraph`] — process graphs and extended process graphs,
//! * [`mpsoc`] — the MPSoC simulator substrate (cores, caches, memory),
//! * [`trace`] — the compiled trace IR and the `.ltr` binary
//!   record/replay format,
//! * [`layout`] — conflict analysis and the Figure 4/5 data re-layout,
//! * [`workloads`] — the six Table 1 applications and the Figure 1 example,
//! * [`core`] — the sharing matrix, the four schedulers (RS / RRS / LS /
//!   LSM) and the experiment API (Figures 6 and 7),
//! * [`serve`] — the long-lived sweep service: line-delimited scenario
//!   requests over stdin/stdout or TCP onto a hardened worker pool
//!   sharing one bounded artifact cache.
//!
//! ## Quickstart
//!
//! ```
//! use lams::core::{Experiment, PolicyKind};
//! use lams::mpsoc::MachineConfig;
//! use lams::workloads::{Scale, suite};
//!
//! // Schedule one application in isolation under all four policies
//! // (a single bar group of the paper's Figure 6).
//! let app = suite::mxm(Scale::Tiny);
//! let machine = MachineConfig::paper_default();
//! let report = Experiment::isolated(&app, machine)
//!     .run_all(&[PolicyKind::Random, PolicyKind::RoundRobin,
//!                PolicyKind::Locality, PolicyKind::LocalityMap])
//!     .expect("simulation succeeds");
//! // Locality-aware scheduling should not be slower than random.
//! assert!(report.seconds(PolicyKind::Locality) <= report.seconds(PolicyKind::Random) * 1.05);
//! ```

pub use lams_core as core;
pub use lams_layout as layout;
pub use lams_mpsoc as mpsoc;
pub use lams_presburger as presburger;
pub use lams_procgraph as procgraph;
pub use lams_serve as serve;
pub use lams_trace as trace;
pub use lams_workloads as workloads;
