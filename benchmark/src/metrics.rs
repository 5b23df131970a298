//! The metric tables: names, units and directions, the same as in
//! `BENCHMARK.json` (`tests/contract.rs` holds the two together).

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decl {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Relative worsening that counts as a regression (end-to-end
    /// metrics only; per-layer metrics have none and carry 0).
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        higher_is_better: false,
        bound,
    }
}

const fn higher(name: &'static str, unit: &'static str, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        higher_is_better: true,
        bound,
    }
}

/// The end-to-end metrics, measured with tracing off.
pub const END_TO_END: [Decl; 11] = [
    lower("setup_s", "s", 0.25),
    lower("wall_s", "s", 0.25),
    lower("cpu_s", "s", 0.25),
    higher("jobs_per_s", "1/s", 0.25),
    higher("sim_mops_per_s", "Mops/s", 0.25),
    lower("latency_p50_ms", "ms", 0.25),
    lower("latency_p95_ms", "ms", 0.25),
    lower("peak_rss_mb", "MB", 0.25),
    lower("sim_makespan_cycles", "cycles", 0.05),
    higher("sim_hit_rate", "ratio", 0.002),
    higher("ls_gain_pct", "%", 0.15),
];

/// End-to-end metrics in simulated time: under one seed they repeat
/// exactly, whatever the host does.
pub const SIMULATED: [&str; 3] = ["sim_makespan_cycles", "sim_hit_rate", "ls_gain_pct"];

/// The per-layer metrics, measured by the traced pass. A layer that a
/// workload leaves idle reads 0 on it.
pub const PER_LAYER: [Decl; 58] = [
    lower("presburger.footprint_s", "s", 0.0),
    lower("presburger.footprints", "count", 0.0),
    lower("procgraph.epg_build_s", "s", 0.0),
    lower("procgraph.edges", "count", 0.0),
    lower("workloads.build_s", "s", 0.0),
    lower("workloads.compile_s", "s", 0.0),
    higher("workloads.compile_mops_per_s", "Mops/s", 0.0),
    lower("workloads.trace_ops", "count", 0.0),
    higher("trace.decode_mops_per_s", "Mops/s", 0.0),
    lower("trace.ltr_decode_s", "s", 0.0),
    lower("trace.ltr_bytes", "bytes", 0.0),
    lower("layout.histogram_s", "s", 0.0),
    lower("layout.relayout_s", "s", 0.0),
    lower("layout.remapped_arrays", "count", 0.0),
    higher("mpsoc.exec_mops_per_s", "Mops/s", 0.0),
    higher("mpsoc.cache.hits", "count", 0.0),
    lower("mpsoc.cache.misses", "count", 0.0),
    lower("mpsoc.cache.conflict_misses", "count", 0.0),
    higher("mpsoc.bus.fcfs_mops_per_s", "Mops/s", 0.0),
    higher("mpsoc.bus.windowed_mops_per_s", "Mops/s", 0.0),
    lower("mpsoc.bus.wait_cycles", "cycles", 0.0),
    lower("mpsoc.bus.transfers", "count", 0.0),
    lower("core.sharing_s", "s", 0.0),
    lower("core.engine_s", "s", 0.0),
    lower("core.engine_self_s", "s", 0.0),
    lower("core.engine.ns_per_op", "ns", 0.0),
    lower("core.engine.processes", "count", 0.0),
    lower("core.lsm_s", "s", 0.0),
    lower("core.lsm.pilot_s", "s", 0.0),
    lower("core.lsm.candidate_runs", "count", 0.0),
    higher("core.lsm.gain_pct", "%", 0.0),
    higher("core.sweep.speedup", "ratio", 0.0),
    higher("core.sweep.efficiency", "ratio", 0.0),
    lower("core.sweep.jobs", "count", 0.0),
    higher("core.memo.hits", "count", 0.0),
    lower("core.memo.misses", "count", 0.0),
    higher("core.memo.hit_rate", "ratio", 0.0),
    lower("core.memo.evictions", "count", 0.0),
    lower("core.memo.occupancy", "count", 0.0),
    lower("core.memo.warm_lookup_ns", "ns", 0.0),
    higher("core.memo.saved_share", "ratio", 0.0),
    higher("core.arrivals.plan_mprocs_per_s", "Mprocs/s", 0.0),
    lower("core.arrivals.sojourn_p50_cycles", "cycles", 0.0),
    lower("core.arrivals.sojourn_p99_cycles", "cycles", 0.0),
    lower("core.arrivals.queue_depth_peak", "count", 0.0),
    higher("core.arrivals.utilization_mean", "ratio", 0.0),
    lower("serve.protocol.parse_ns", "ns", 0.0),
    lower("serve.protocol.format_ns", "ns", 0.0),
    lower("serve.pool.execute_ms_p50", "ms", 0.0),
    lower("serve.pool.handoff_us", "us", 0.0),
    lower("serve.pool.shed", "count", 0.0),
    higher("serve.pool.completed", "count", 0.0),
    lower("serve.server.inmem_ms_per_req", "ms", 0.0),
    lower("serve.server.socket_ms_p50", "ms", 0.0),
    lower("trace.overhead_pct", "%", 0.0),
    higher("trace.stage_coverage", "ratio", 0.0),
    lower("trace.walks", "count", 0.0),
    lower("trace.spans", "count", 0.0),
];

/// Pairs measured values with their declarations, in table order.
///
/// # Panics
///
/// Panics when `values` does not name exactly the table's metrics: a
/// run must print every metric of its pass.
pub fn fill(table: &[Decl], values: &[(&str, f64)]) -> Vec<crate::measure::Metric> {
    assert_eq!(table.len(), values.len(), "a metric is missing or extra");
    table
        .iter()
        .map(|decl| {
            let value = values
                .iter()
                .find(|(name, _)| *name == decl.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", decl.name))
                .1;
            crate::measure::Metric {
                name: decl.name,
                value,
                unit: decl.unit,
            }
        })
        .collect()
}
