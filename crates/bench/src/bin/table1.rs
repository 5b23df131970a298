//! Regenerates **Table 1** of the paper: the application suite, with the
//! structural properties this reproduction gives each member.
//!
//! ```text
//! cargo run --release -p lams-bench --bin table1 -- \
//!     [--scale tiny|small|paper|large|huge] [--threads N]
//! ```
//!
//! Each application's row (workload build + sharing analysis) is an
//! independent job fanned through a [`lams_core::SweepRunner`]; rows
//! print in Table 1 order for any `--threads N`.

use lams_bench::{emit, Figure};
use lams_core::SharingMatrix;
use lams_workloads::{suite, Scale, Workload};

fn main() {
    let Figure { scale, runner, .. } = Figure::read("table1", &["scale", "threads"], Scale::Small);

    emit!("Table 1 reproduction — applications used in this study (scale {scale})");
    emit!(
        "{:<10} {:<42} {:>6} {:>7} {:>6} {:>7} {:>9}",
        "app",
        "description",
        "procs",
        "arrays",
        "edges",
        "levels",
        "sharing%"
    );
    let apps = suite::all(scale);
    let rows = runner.run(apps.len(), |i| {
        let app = &apps[i];
        let name = app.name.clone();
        let desc = app.description.clone();
        let w = Workload::single(app.clone()).expect("valid suite app");
        let m = SharingMatrix::from_workload(&w);
        let n = w.num_processes();
        let mut sharing_pairs = 0usize;
        for p in w.process_ids() {
            for q in w.process_ids() {
                if p < q && m.get(p, q) > 0 {
                    sharing_pairs += 1;
                }
            }
        }
        let total_pairs = n * (n - 1) / 2;
        format!(
            "{:<10} {:<42} {:>6} {:>7} {:>6} {:>7} {:>8.1}%",
            name,
            desc,
            n,
            w.arrays().len(),
            w.epg().num_edges(),
            w.epg().levels().len(),
            100.0 * sharing_pairs as f64 / total_pairs as f64,
        )
    });
    for row in rows {
        emit(row);
    }
    emit!();
    emit("Paper: process counts vary between 9 and 37 across the suite.");
}
