//! Regenerates **Table 2** of the paper: the default simulation
//! parameters, as realized by this reproduction's machine model.
//!
//! ```text
//! cargo run --release -p lams-bench --bin table2 [--threads N]
//! ```
//!
//! Accepts `--threads` for interface uniformity with the other harness
//! binaries, but runs no simulations — there is nothing to fan out.

use lams_bench::{emit, Figure};
use lams_core::Policy as _;
use lams_mpsoc::{EnergyModel, MachineConfig};
use lams_workloads::Scale;

fn main() {
    Figure::read("table2", &["threads"], Scale::Small);
    let m = MachineConfig::paper_default();
    let e = EnergyModel::embedded_default();

    emit!("Table 2 reproduction — default simulation parameters");
    emit!("{:<38} Value", "Parameter");
    emit!("{:<38} {}", "Number of processors", m.num_cores);
    emit!(
        "{:<38} {}KB, {}-way",
        "Data cache per processor",
        m.cache.size_bytes / 1024,
        m.cache.associativity
    );
    emit!("{:<38} {} cycles", "Cache access latency", m.hit_latency);
    emit!(
        "{:<38} {} cycles",
        "Off-chip memory access latency",
        m.miss_latency
    );
    emit!("{:<38} {} MHz", "Processor speed", m.clock_hz / 1_000_000);
    emit!();
    emit!("Derived / reproduction-specific:");
    emit!(
        "{:<38} {} B (not stated in the paper)",
        "Cache line size",
        m.cache.line_bytes
    );
    emit!("{:<38} {}", "Cache sets", m.cache.num_sets());
    emit!(
        "{:<38} {} B (= size / associativity; footnote 1)",
        "Cache page",
        m.cache.page_bytes()
    );
    emit!(
        "{:<38} {:.2} nJ / {:.2} nJ",
        "Access energy (on-chip / off-chip)",
        e.cache_access_nj,
        e.offchip_access_nj
    );
    emit!(
        "{:<38} {} cycles (50 us; not stated in the paper)",
        "RRS preemption quantum",
        lams_core::RoundRobinPolicy::default()
            .quantum()
            .unwrap_or(0)
    );
}
