//! Regenerates **Table 2** of the paper: the default simulation
//! parameters, as realized by this reproduction's machine model.
//!
//! ```text
//! cargo run --release -p lams-bench --bin table2 [--threads N]
//! ```
//!
//! Accepts `--threads` for interface uniformity with the other harness
//! binaries, but runs no simulations — there is nothing to fan out.

use lams_bench::flag;
use lams_core::Policy as _;
use lams_mpsoc::{EnergyModel, MachineConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let _: Option<usize> = flag(&args, "--threads");
    let m = MachineConfig::paper_default();
    let e = EnergyModel::embedded_default();

    println!("Table 2 reproduction — default simulation parameters");
    println!("{:<38} Value", "Parameter");
    println!("{:<38} {}", "Number of processors", m.num_cores);
    println!(
        "{:<38} {}KB, {}-way",
        "Data cache per processor",
        m.cache.size_bytes / 1024,
        m.cache.associativity
    );
    println!("{:<38} {} cycles", "Cache access latency", m.hit_latency);
    println!(
        "{:<38} {} cycles",
        "Off-chip memory access latency", m.miss_latency
    );
    println!("{:<38} {} MHz", "Processor speed", m.clock_hz / 1_000_000);
    println!();
    println!("Derived / reproduction-specific:");
    println!(
        "{:<38} {} B (not stated in the paper)",
        "Cache line size", m.cache.line_bytes
    );
    println!("{:<38} {}", "Cache sets", m.cache.num_sets());
    println!(
        "{:<38} {} B (= size / associativity; footnote 1)",
        "Cache page",
        m.cache.page_bytes()
    );
    println!(
        "{:<38} {:.2} nJ / {:.2} nJ",
        "Access energy (on-chip / off-chip)", e.cache_access_nj, e.offchip_access_nj
    );
    println!(
        "{:<38} {} cycles (50 us; not stated in the paper)",
        "RRS preemption quantum",
        lams_core::RoundRobinPolicy::default()
            .quantum()
            .unwrap_or(0)
    );
}
