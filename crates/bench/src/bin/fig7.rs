//! Regenerates **Figure 7** of the paper: overall completion times of
//! *concurrent* application mixes `|T| = 1..6` under RS, RRS, LS, LSM.
//!
//! `|T| = t` runs the first `t` Table 1 applications concurrently
//! (Med-Im04; +MxM; +Radar; …), exactly the paper's cumulative setup.
//!
//! ```text
//! cargo run --release -p lams-bench --bin fig7 -- \
//!     [--scale tiny|small|paper|large|huge] [--threads N] \
//!     [--bus fcfs:OCC|windowed:OCC:WINDOW] \
//!     [--arrivals poisson|burst|diurnal:LOAD:SEED[:QCAP]]
//! ```
//!
//! One [`lams_core::Scenario`] per mix (`mix=1..6`), each run under the
//! four policies on `--threads N` workers with bit-identical output.
//! Defaults to the `large` sweep scale.

use lams_bench::Figure;
use lams_workloads::Scale;

fn main() {
    let known = ["scale", "threads", "bus", "arrivals"];
    let fig = Figure::read("fig7", &known, Scale::Large);
    fig.header(format_args!(
        "Figure 7 reproduction — concurrent execution, scale {}, {}",
        fig.scale,
        fig.machine()
    ));
    let groups: Vec<_> = (1..=6)
        .map(|t| (format!("|T|={t}"), fig.with("mix", t)))
        .collect();
    fig.bars(
        "num_tasks",
        "Figure 7: completion time, concurrent application mixes",
        &groups,
    );
}
