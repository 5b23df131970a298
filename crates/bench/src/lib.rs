//! Shared helpers for the paper-reproduction binaries.
//!
//! The real content of this crate is its binaries: `table1`, `table2`,
//! `fig2a`, `fig6`, `fig7`, `sweep` and `ablation` each regenerate one
//! table or figure of *Kandemir & Chen, DATE 2005*; `diag` and
//! `trace_tool` go beyond it. Host-time measurement lives in
//! `benchmark/` (see `BENCHMARK.json`), not here.
//!
//! Every simulation-running binary declares its experiment grid as a
//! [`lams_core::ScenarioMatrix`] and takes a `--threads N` flag that
//! fans the jobs across a [`lams_core::SweepRunner`]; results are
//! bit-identical for any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod render;

pub use args::{flag, flag_value, try_flag};
pub use render::{bar_chart, csv_table};
