//! Shared helpers for the paper-reproduction binaries.
//!
//! The real content of this crate is its binaries. `repro` writes the
//! checked-in `REPRO.md` of *Kandemir & Chen, DATE 2005*: Tables 1–2,
//! Figure 2, and Figures 6–7 at every scale with a count of where the
//! paper's orderings hold. `fig6` and `fig7` print one scale of Figures
//! 6–7 with every column, and `sweep` and `ablation` vary one knob;
//! `trace_tool` goes beyond the paper. Host-time measurement lives in `benchmark/` (see
//! `BENCHMARK.json`), not here.
//!
//! Every binary reads its flags through [`lams_core::Fields::from_flags`],
//! the reader of a `lams-serve` request line in `--key value` spelling,
//! and refuses an unknown, repeated or valueless flag and a positional
//! argument ([`flag_error`], exit 2). The figure and table binaries read
//! them through one [`Figure`]; `fig6`, `fig7` and `sweep` declare each
//! bar group or sweep point as a [`lams_core::Scenario`], the value a
//! `run` line and `trace_tool run` parse to, and run the groups on a
//! [`lams_core::SweepRunner`]: `--threads N` fans the jobs across N
//! workers, with bit-identical results for any N. A group that fails is
//! an `error: SCENARIO: ERROR` line and exit 1. Every binary prints
//! through [`emit()`], so a closed stdout (`| head -1`) ends it quietly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod figure;
pub mod render;

pub use args::{exit_with, flag_error};
pub use figure::Figure;
pub use render::{bar_chart, csv_table, emit};
