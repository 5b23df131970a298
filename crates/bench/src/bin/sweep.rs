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
//! transfer occupancy around the requested value.
//!
//! The 17 sweep points × four policies are declared as one
//! [`ScenarioMatrix`] (68 jobs) and executed on a [`SweepRunner`];
//! `--threads N` fans the jobs across N workers with bit-identical
//! output.

use lams_bench::{csv_table, flag};
use lams_core::{ArrivalConfig, Experiment, PolicyKind, ScenarioMatrix, SweepRunner};
use lams_mpsoc::{BusConfig, CacheConfig, MachineConfig};
use lams_workloads::suite;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = flag(&args, "--scale").unwrap_or_default();
    let tasks = flag(&args, "--tasks").unwrap_or(4).clamp(1, 6);
    let runner = SweepRunner::new(flag(&args, "--threads").unwrap_or(1));
    let mix = suite::mix(tasks, scale);
    // It prints conflict and capacity misses: ask for the miss split.
    let mut base = MachineConfig::paper_default().with_explain(true);
    let bus: Option<BusConfig> = flag(&args, "--bus");
    if let Some(bus) = bus {
        base = base.with_bus(bus);
    }
    let arrivals: Option<ArrivalConfig> = flag(&args, "--arrivals");

    println!(
        "Sensitivity sweep — |T|={tasks}, scale {scale} (baseline {base}), {} thread(s)",
        runner.threads()
    );
    // Open-system axis: the marker line only appears when the flag is
    // given, so batch output stays byte-identical.
    if let Some(a) = arrivals {
        println!("arrivals {a}");
    }

    // The sweep grid, declared as data: (group label, machine, quantum).
    let mut points: Vec<(String, MachineConfig, u64)> = Vec::new();
    for kb in [4u64, 8, 16, 32] {
        let cache = CacheConfig::new(kb * 1024, 2, 32).expect("valid cache");
        points.push((
            format!("# cache size {kb} KB"),
            base.with_cache(cache),
            10_000,
        ));
    }
    // Direct-mapped is the conflict-dominated regime where the LSM data
    // mapping matters most.
    for assoc in [1u64, 2, 4, 8] {
        let cache = CacheConfig::new(8 * 1024, assoc, 32).expect("valid cache");
        points.push((
            format!("# associativity {assoc}"),
            base.with_cache(cache),
            10_000,
        ));
    }
    for cores in [2usize, 4, 8, 16] {
        points.push((format!("# cores {cores}"), base.with_cores(cores), 10_000));
    }
    for quantum in [1_000u64, 5_000, 10_000, 50_000, 200_000] {
        points.push((format!("# quantum {quantum}"), base, quantum));
    }
    if let Some(bus) = bus {
        // Bus axis: sweep the transfer occupancy around the requested
        // value (halved, as given, doubled) under the same mode.
        for scale in [1u64, 2, 4] {
            let occ = bus.occupancy_cycles * scale / 2;
            let swept = BusConfig {
                occupancy_cycles: occ,
                ..bus
            };
            points.push((
                format!("# bus occupancy {occ}"),
                base.with_bus(swept),
                10_000,
            ));
        }
    }

    let mut matrix = ScenarioMatrix::new();
    for (label, machine, quantum) in &points {
        let mut exp = Experiment::concurrent(&mix, *machine).with_quantum(*quantum);
        if let Some(a) = arrivals {
            exp = exp.with_arrivals(a);
        }
        matrix.push_all(label, &exp, PolicyKind::ALL);
    }
    let reports = matrix.run(&runner).expect("simulation succeeds");
    // One report per sweep point: a duplicated point label would merge
    // reports and shift every subsequent row's metadata silently.
    assert_eq!(
        reports.len(),
        points.len(),
        "sweep point labels must be unique"
    );

    let header = "cache_kb,assoc,cores,quantum,policy,cycles,misses,seconds,conflict_misses,capacity_misses,remapped";
    let mut rows = Vec::new();
    for ((label, machine, quantum), report) in points.iter().zip(&reports) {
        rows.push(label.clone());
        for &k in PolicyKind::ALL {
            let o = report.outcome(k).expect("ran");
            rows.push(format!(
                "{},{},{},{},{},{},{},{:.6},{},{},{}",
                machine.cache.size_bytes / 1024,
                machine.cache.associativity,
                machine.num_cores,
                quantum,
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

    println!("{}", csv_table(header, &rows));
}
