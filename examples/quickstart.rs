//! Quickstart: run one Table 1 application under all four schedulers of
//! the paper and print the comparison.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lams::core::{Experiment, PolicyKind};
use lams::mpsoc::{EnergyModel, MachineConfig};
use lams::workloads::{suite, Scale};

fn main() {
    // The paper's Table 2 machine: 8 cores @ 200 MHz, private 8 KB
    // 2-way L1 caches, 2-cycle hits, 75-cycle off-chip accesses. The
    // report prints conflict misses, so the runs split their misses.
    let machine = MachineConfig::paper_default().with_explain(true);

    // One application from Table 1 (visual tracking control).
    let app = suite::track(Scale::Small);
    println!("running {} on {machine}\n", app.name);

    // RS / RRS / LS / LSM, exactly the paper's four-way comparison.
    let report = Experiment::isolated(&app, machine)
        .run_all(PolicyKind::ALL)
        .expect("simulation succeeds");

    println!("{report}");

    // The power angle: fewer off-chip accesses = less energy.
    let energy = EnergyModel::embedded_default();
    for &kind in PolicyKind::ALL {
        println!(
            "cache energy under {kind}: {:.3} mJ",
            report.energy_mj(kind, &energy)
        );
    }

    let speedup = report.speedup(PolicyKind::Locality, PolicyKind::Random);
    println!("\nlocality-aware speedup over random scheduling: {speedup:.2}x");
}
