//! Shared helpers for the paper-reproduction binaries.
//!
//! The real content of this crate is its binaries: `table1`, `table2`,
//! `fig2a`, `fig6`, `fig7`, `sweep` and `ablation` each regenerate one
//! table or figure of *Kandemir & Chen, DATE 2005*; `trace_tool` goes
//! beyond it. Host-time measurement lives in `benchmark/` (see
//! `BENCHMARK.json`), not here.
//!
//! `fig6`, `fig7`, `sweep` and `ablation` read their flags through one
//! [`Figure`]. The first three declare each bar group or sweep point as
//! a [`lams_core::Scenario`], the value a `lams-serve` `run` line and
//! `trace_tool run` parse to, and run the groups on a
//! [`lams_core::SweepRunner`]: `--threads N` fans the jobs across N
//! workers, with bit-identical results for any N. Every binary refuses
//! a `--flag` it does not read, and prints through [`emit()`], so a
//! closed stdout (`| head -1`) ends it quietly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod figure;
pub mod render;

pub use args::{flag, flag_value, refuse_unknown_flags, try_flag};
pub use figure::Figure;
pub use render::{bar_chart, csv_table, emit};
