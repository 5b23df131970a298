//! Sensitivity sweep — backs the paper's claim that "our savings are
//! consistent across several simulation parameters" (Section 1/4).
//!
//! Sweeps cache size, associativity, core count and the RRS quantum on a
//! fixed concurrent mix, reporting all four schedulers at every point.
//!
//! ```text
//! cargo run --release -p lams-bench --bin sweep -- \
//!     [--scale tiny|small|paper|large|huge] [--tasks 4] [--threads N] \
//!     [--bus fcfs:OCC|windowed:OCC:WINDOW] \
//!     [--arrivals poisson|burst|diurnal:LOAD:SEED[:QCAP]]
//! ```
//!
//! With `--bus`, every sweep point runs behind the given shared-bus
//! contention model, and the grid gains a bus axis sweeping the
//! transfer occupancy around the requested value: halved, as given and
//! doubled. An occupancy that cannot be doubled is a usage error.
//!
//! Each of the 17 sweep points is the base scenario `mix=TASKS` with one
//! key set (`cache=4096:2:32`, `cores=16`, `quantum=1000`, …), run under
//! the four policies on `--threads N` workers with bit-identical output.

use lams_bench::{csv_table, emit, exit_with, Figure};
use lams_core::{PolicyKind, Scenario, DEFAULT_QUANTUM};
use lams_mpsoc::BusConfig;
use lams_workloads::Scale;

fn main() {
    let known = ["scale", "tasks", "threads", "bus", "arrivals"];
    let fig = Figure::read("sweep", &known, Scale::Small);
    fig.header(format_args!(
        "Sensitivity sweep — |T|={}, scale {} (baseline {})",
        fig.tasks,
        fig.scale,
        fig.machine()
    ));

    // The sweep grid, declared as data: (group label, scenario).
    let mut points: Vec<(String, Scenario)> = Vec::new();
    for kb in [4u64, 8, 16, 32] {
        let cache = format!("{}:2:32", kb * 1024);
        points.push((format!("# cache size {kb} KB"), fig.with("cache", cache)));
    }
    // Direct-mapped is the conflict-dominated regime where the LSM data
    // mapping matters most.
    for assoc in [1u64, 2, 4, 8] {
        let cache = format!("8192:{assoc}:32");
        points.push((format!("# associativity {assoc}"), fig.with("cache", cache)));
    }
    for cores in [2usize, 4, 8, 16] {
        points.push((format!("# cores {cores}"), fig.with("cores", cores)));
    }
    for quantum in [1_000u64, 5_000, 10_000, 50_000, 200_000] {
        points.push((format!("# quantum {quantum}"), fig.with("quantum", quantum)));
    }
    if let Some(bus) = fig.base().bus {
        // Bus axis: sweep the transfer occupancy around the requested
        // value (halved, as given, doubled) under the same mode.
        let occ = bus.occupancy_cycles;
        let Some(doubled) = occ.checked_mul(2) else {
            let e = format!("bad --bus '{bus}': its doubled occupancy overflows");
            exit_with(2, e);
        };
        for occupancy_cycles in [occ / 2, occ, doubled] {
            let bus = BusConfig {
                occupancy_cycles,
                ..bus
            };
            let label = format!("# bus occupancy {occupancy_cycles}");
            points.push((label, fig.with("bus", bus)));
        }
    }

    let reports = fig.run(&points).unwrap_or_else(|e| exit_with(1, e));
    let header = "cache_kb,assoc,cores,quantum,policy,cycles,misses,seconds,conflict_misses,capacity_misses,remapped";
    let mut rows = Vec::new();
    for ((label, s), report) in points.iter().zip(&reports) {
        rows.push(label.clone());
        let machine = s.machine();
        for &k in PolicyKind::ALL {
            let o = report.outcome(k).expect("ran");
            rows.push(format!(
                "{},{},{},{},{},{},{},{:.6},{},{},{}",
                machine.cache.size_bytes / 1024,
                machine.cache.associativity,
                machine.num_cores,
                s.quantum.unwrap_or(DEFAULT_QUANTUM),
                k,
                o.result.makespan_cycles,
                o.result.machine.cache.misses,
                o.result.seconds,
                o.result.machine.cache.conflict_misses,
                o.result.machine.cache.capacity_misses,
                o.remapped_arrays,
            ));
        }
    }
    emit(csv_table(header, &rows));
}
