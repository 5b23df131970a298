//! Regenerates **Figure 6** of the paper: execution times of the six
//! applications scheduled *in isolation* under RS, RRS, LS and LSM.
//!
//! ```text
//! cargo run --release -p lams-bench --bin fig6 -- \
//!     [--scale tiny|small|paper|large|huge] [--threads N] \
//!     [--bus fcfs:OCC|windowed:OCC:WINDOW] \
//!     [--arrivals poisson|burst|diurnal:LOAD:SEED[:QCAP]]
//! ```
//!
//! One [`lams_core::Scenario`] per application (`app=NAME`), each run
//! under the four policies on `--threads N` workers with bit-identical
//! output. Defaults to the `large` sweep scale. Prints a CSV block (one
//! row per application x policy) followed by an ASCII bar chart shaped
//! like the paper's figure.

use lams_bench::Figure;
use lams_core::Source;
use lams_workloads::{suite, Scale};

fn main() {
    let known = ["scale", "threads", "bus", "arrivals"];
    let fig = Figure::read("fig6", &known, Scale::Large);
    fig.header(format_args!(
        "Figure 6 reproduction — isolated execution, scale {}, {}",
        fig.scale,
        fig.machine()
    ));
    let groups: Vec<_> = suite::NAMES
        .iter()
        .map(|&name| {
            let mut app = fig.base();
            app.source = Source::App {
                name: name.into(),
                scale: fig.scale,
            };
            (name.to_string(), app)
        })
        .collect();
    fig.bars(
        "app",
        "Figure 6: execution time, applications in isolation",
        &groups,
    );
}
