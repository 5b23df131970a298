//! One run of one workload: set-up, the timed or traced section, the
//! output checks and the metrics.

use std::path::PathBuf;
use std::time::Instant;

use lams_core::{Experiment, PolicyKind, RunResult};
use lams_mpsoc::BusMode;
use lams_serve::ServerConfig;

use crate::batch::Batch;
use crate::check;
use crate::layers::Counts;
use crate::serve::{Load, Serve};
use crate::spans::Recorder;
use crate::stats::{median, percentile};
use crate::{host, jobs, metrics, requests, Rep, Shape};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Latency samples a run must collect before it may stop, so that the
/// 95th percentile has ten samples beyond it.
const MIN_LATENCY_SAMPLES: usize = 200;
/// Sweep workers and client connections: the cores of the host this
/// benchmark was sized on, never more than the host grants.
pub fn threads() -> usize {
    host::cpus_available().min(2)
}

/// The arguments of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Derives the RS seeds, the arrival seeds and the request order.
    pub seed: u64,
    /// How long the timed (or traced) section measures.
    pub seconds: u64,
    /// Traced pass (per-layer metrics) instead of the untraced one
    /// (end-to-end metrics).
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value, all digits.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// Whether every output check held.
    pub correct: bool,
    /// Jobs or requests attempted in the measured section.
    pub attempted: usize,
    /// Attempts that erred, were refused, or answered wrongly.
    pub failed: usize,
    /// The metrics of the pass that ran.
    pub metrics: Vec<Metric>,
}

impl RunOutput {
    /// The result line the driver reads.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `v` with all its digits; non-finite values (a harness bug) as null,
/// which the driver refuses.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A workload ready to repeat.
enum Driver {
    Batch(Batch),
    Serve(Box<Serve>),
}

impl Driver {
    /// Builds the workload's inputs from `seed` and, for the serve
    /// workloads, records the bundles and starts the daemon.
    fn set_up(workload: &str, seed: u64) -> Driver {
        let ltr_dir = || -> PathBuf {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("ltr-{}", std::process::id()))
        };
        match workload {
            "grid_batch" => Driver::Batch(Batch::new(jobs::grid_batch(seed))),
            "lsm_ladder" => Driver::Batch(Batch::new(jobs::lsm_ladder(seed))),
            "bus_contended" => Driver::Batch(Batch::new(jobs::bus_contended(seed))),
            "open_arrivals" => {
                Driver::Batch(Batch::new(jobs::open_arrivals(seed)).with_arrival_plan(seed))
            }
            "serve_closed" => Driver::Serve(Box::new(Serve::start(
                requests::serve_closed(seed),
                seed,
                Load::Closed {
                    connections: threads(),
                },
                ServerConfig::default(),
                &ltr_dir(),
            ))),
            "serve_pipelined" => Driver::Serve(Box::new(Serve::start(
                requests::serve_pipelined(seed),
                seed,
                Load::Pipelined { window: 8 },
                ServerConfig {
                    cache_capacity: Some(48),
                    ..ServerConfig::default()
                },
                &ltr_dir(),
            ))),
            other => unreachable!("main rejects unknown workload '{other}'"),
        }
    }

    fn shape(&self) -> Shape {
        match self {
            Driver::Batch(b) => b.shape(),
            Driver::Serve(s) => s.shape().clone(),
        }
    }

    fn run(&mut self, threads: usize) -> Rep {
        match self {
            Driver::Batch(b) => b.run(threads, true).rep,
            Driver::Serve(s) => s.run(),
        }
    }

    fn stop(self) {
        if let Driver::Serve(s) = self {
            s.stop();
        }
    }
}

/// Runs `workload` once and returns what the driver reads.
pub fn run(workload: &str, args: Args) -> RunOutput {
    println!(
        "info workload={workload} seed={} seconds={} trace={} cpus_available={} threads={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::cpus_available(),
        threads()
    );
    if args.trace {
        traced(workload, args)
    } else {
        untraced(workload, args)
    }
}

/// One set-up: the repo goldens, the inputs, the daemon, and a
/// discarded warm-up repetition, which is also the reference the timed
/// repetitions must reproduce.
fn set_up(workload: &str, seed: u64) -> (Driver, Rep, bool) {
    let goldens = check::repo_goldens_hold();
    let mut driver = Driver::set_up(workload, seed);
    let warm_up = driver.run(threads());
    (driver, warm_up, goldens)
}

/// Jobs of `rep` that failed: erred, refused, or differing from
/// `reference`.
fn failed_jobs(rep: &Rep, reference: &Rep) -> usize {
    let wrong = rep
        .outcomes
        .iter()
        .zip(&reference.outcomes)
        .filter(|(got, want)| got.is_none() || got != want)
        .count();
    wrong + usize::from(rep.extra != reference.extra)
}

/// Whether the reference repetition is itself right: nothing failed in
/// it, and under `--seed 1` it matches the pinned checksum.
fn reference_holds(workload: &str, seed: u64, reference: &Rep) -> bool {
    let complete = reference.outcomes.iter().all(Option::is_some);
    let sum = reference.checksum();
    println!("info checksum=0x{sum:016x}");
    let pinned = seed != 1 || check::pinned_seed1(workload) == Some(sum);
    if !pinned {
        println!("info checksum differs from the pinned --seed 1 value");
    }
    complete && pinned
}

/// The untraced pass: end-to-end metrics.
fn untraced(workload: &str, args: Args) -> RunOutput {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some((driver, _, _)) = last.take() {
            Driver::stop(driver);
        }
        let t = Instant::now();
        last = Some(set_up(workload, args.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (mut driver, reference, goldens) = last.expect("at least one set-up");
    let shape = driver.shape();

    let cpu_before = host::cpu_seconds();
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while start.elapsed().as_secs_f64() < args.seconds as f64
        || reps.len() * shape.jobs < MIN_LATENCY_SAMPLES
    {
        reps.push(driver.run(threads()));
    }
    let timed_s = start.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu_before;
    driver.stop();

    let attempted = reps.len() * shape.jobs;
    let failed: usize = reps.iter().map(|r| failed_jobs(r, &reference)).sum();
    let refused: usize = reps.iter().map(|r| r.refused).sum();
    let correct = goldens && failed == 0 && reference_holds(workload, args.seed, &reference);
    if !goldens {
        println!("info the repo golden checksums did not reproduce");
    }

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let latencies: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    let p50 = percentile(&latencies, 50.0).expect("enough latency samples");
    let p95 = percentile(&latencies, 95.0).expect("enough latency samples");
    assert_eq!(
        p95.pct, 95.0,
        "the loop above collects enough samples for p95"
    );
    let sim = SimTotals::of(&reference, &shape);
    println!(
        "info repetitions={} jobs_per_repetition={} sent={attempted} ok={} failed={failed} refused={refused} latency_samples={}",
        reps.len(),
        shape.jobs,
        attempted - failed,
        p95.samples,
    );

    let metrics = [
        ("setup_s", median(&setup_s)),
        ("wall_s", median(&walls)),
        ("cpu_s", cpu_s / reps.len() as f64),
        ("jobs_per_s", (attempted - failed) as f64 / timed_s),
        (
            "sim_mops_per_s",
            shape.sim_ops as f64 * reps.len() as f64 / timed_s / 1e6,
        ),
        ("latency_p50_ms", p50.value),
        ("latency_p95_ms", p95.value),
        ("peak_rss_mb", host::peak_rss_mb()),
        ("sim_makespan_cycles", sim.makespan as f64),
        ("sim_hit_rate", sim.hit_rate()),
        ("ls_gain_pct", sim.ls_gain_pct),
    ];
    RunOutput {
        correct,
        attempted,
        failed,
        metrics: metrics::fill(&metrics::END_TO_END, &metrics),
    }
}

/// Simulated totals over one repetition's job set.
struct SimTotals {
    makespan: u64,
    hits: u64,
    misses: u64,
    ls_gain_pct: f64,
    lsm_gain_pct: f64,
}

impl SimTotals {
    fn of(rep: &Rep, shape: &Shape) -> SimTotals {
        let of = |i: usize| rep.outcomes[i].unwrap_or_default();
        let done = rep.outcomes.iter().flatten();
        let gain = |pairs: &[(usize, usize)]| {
            let (base, better) = pairs.iter().fold((0u64, 0u64), |(b, g), &(i, j)| {
                (b + of(i).makespan, g + of(j).makespan)
            });
            if base == 0 {
                0.0
            } else {
                100.0 * (base as f64 - better as f64) / base as f64
            }
        };
        SimTotals {
            makespan: done.clone().map(|o| o.makespan).sum(),
            hits: done.clone().map(|o| o.hits).sum(),
            misses: done.map(|o| o.misses).sum(),
            ls_gain_pct: gain(&shape.ls_pairs),
            lsm_gain_pct: gain(&shape.lsm_pairs),
        }
    }

    fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses) as f64
    }
}

/// Simulated facts the per-layer metrics take from full engine results.
#[derive(Default)]
struct ResultTotals {
    conflict_misses: u64,
    bus_wait_cycles: u64,
    bus_transfers: u64,
    processes: u64,
    open_jobs: u64,
    sojourn_p50: u64,
    sojourn_p99: u64,
    queue_peak: u64,
    utilization: f64,
}

impl ResultTotals {
    fn add(&mut self, r: &RunResult, on_bus: bool) {
        self.conflict_misses += r.machine.cache.conflict_misses;
        self.processes += r.processes.len() as u64;
        if on_bus {
            self.bus_wait_cycles += r.machine.total_bus_wait_cycles;
            // Every miss is one bus transfer.
            self.bus_transfers += r.machine.cache.misses;
        }
        if let Some(a) = &r.arrivals {
            self.open_jobs += 1;
            self.sojourn_p50 += a.sojourn.p50;
            self.sojourn_p99 += a.sojourn.p99;
            self.queue_peak = self.queue_peak.max(a.queue_depth_peak as u64);
            self.utilization +=
                a.core_utilization.iter().sum::<f64>() / a.core_utilization.len().max(1) as f64;
        }
    }

    fn per_open_job(&self, total: f64) -> f64 {
        if self.open_jobs == 0 {
            0.0
        } else {
            total / self.open_jobs as f64
        }
    }
}

/// Median time of a warm LS-result lookup through `Experiment::run`.
fn warm_lookup_ns(exp: &Experiment) -> f64 {
    exp.run(PolicyKind::Locality).expect("LS runs");
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(exp.run(PolicyKind::Locality).expect("LS runs"));
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced pass: per-layer metrics and the span dump.
fn traced(workload: &str, args: Args) -> RunOutput {
    let (mut driver, reference, goldens) = set_up(workload, args.seed);
    let shape = driver.shape();
    let sim = SimTotals::of(&reference, &shape);
    let n = threads();

    // Untraced references, with the same code the untraced pass times.
    let untraced_wall = median(&[0; 3].map(|_| driver.run(n).wall_s));
    let mut one_thread_walls = Vec::new();
    let mut uncached_wall = 0.0;
    let mut memo_stats: Vec<(String, f64)> = Vec::new();
    let mut lookup_ns = 0.0;
    if let Driver::Batch(b) = &driver {
        uncached_wall = median(&[0; 3].map(|_| b.run(n, false).rep.wall_s));
        let stats = b.run(n, true).memo;
        memo_stats = vec![
            ("hits".into(), stats.hits() as f64),
            ("misses".into(), stats.misses() as f64),
            ("hit_rate".into(), stats.hit_rate()),
            ("evictions".into(), stats.evictions as f64),
            ("occupancy".into(), stats.occupancy_entries as f64),
        ];
        let g = b.list().groups().next().expect("a workload has jobs");
        lookup_ns = warm_lookup_ns(&Experiment::concurrent(&g.apps.specs(g.scale), g.machine()));
    }

    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    let mut totals = ResultTotals::default();
    let mut walk_walls = Vec::new();
    let mut stage_ratios = Vec::new();
    let mut failed = 0;
    let mut refused = 0;
    let mut lsm_memo_misses = 0u64;
    let mut pilot_s = 0.0;
    let mut engine_by_bus = [(0u64, 0.0f64); 3];
    let mut serve_samples = ServeSamples::default();
    let start = Instant::now();
    while walk_walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds as f64 {
        let first_span = rec.spans().len();
        let rep = match &mut driver {
            Driver::Batch(b) => {
                // The one-thread repetition the walk is held against
                // runs right before it, so host drift hits both alike.
                one_thread_walls.push(b.run(1, true).rep.wall_s);
                let w = b.walk(&mut rec, &mut counts);
                lsm_memo_misses += w.lsm_memo_misses;
                pilot_s += w.pilot_s;
                let buses: Vec<_> = b
                    .list()
                    .groups()
                    .flat_map(|g| vec![g.bus; g.jobs.len()])
                    .collect();
                for (result, bus) in w.results.iter().zip(&buses) {
                    if let Some(r) = result {
                        totals.add(r, bus.is_some());
                    }
                }
                for &(job, ops, s) in &w.engine {
                    let slot = match buses[job].map(|bus| bus.mode) {
                        None => 0,
                        Some(BusMode::Fcfs) => 1,
                        Some(BusMode::Windowed { .. }) => 2,
                    };
                    engine_by_bus[slot].0 += ops;
                    engine_by_bus[slot].1 += s;
                }
                w.rep()
            }
            Driver::Serve(s) => {
                let w = s.walk(&mut rec, &mut counts);
                for (scenario, r) in s.scenarios().iter().zip(s.expected()) {
                    let on_bus = matches!(scenario, requests::Scenario::Run { bus: true, .. });
                    totals.add(r, on_bus);
                }
                for &(ops, ns, on_bus) in &w.engine {
                    let slot = if on_bus { 2 } else { 0 };
                    engine_by_bus[slot].0 += ops;
                    engine_by_bus[slot].1 += ns as f64 / 1e9;
                }
                serve_samples.extend(&w);
                w.rep
            }
        };
        let walked_s: f64 = rec.spans()[first_span..]
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum();
        if let Some(&one_thread) = one_thread_walls.last() {
            stage_ratios.push(walked_s / one_thread);
        }
        walk_walls.push(rep.wall_s);
        failed += failed_jobs(&rep, &reference);
        refused += rep.refused;
    }
    let walks = walk_walls.len() as f64;
    if let Driver::Serve(s) = &mut driver {
        memo_stats = s.stats();
        lookup_ns = warm_lookup_ns(&s.scenarios()[0].experiment());
    }
    driver.stop();

    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).expect("out dir is creatable");
    let trace_path = out_dir.join(format!("trace-{workload}.json"));
    std::fs::write(&trace_path, rec.to_json()).expect("trace file is writable");

    // Stage-sum checks: the walked stages must account for the time the
    // untraced code takes for the same jobs.
    let coverage = match workload {
        // Self times against the traced request latency.
        "serve_closed" | "serve_pipelined" => rec.coverage(),
        // Walked jobs against the one-thread repetition before them.
        _ => median(&stage_ratios),
    };
    let tolerance = match workload {
        "serve_closed" => Some(0.05),
        "grid_batch" => Some(0.10),
        _ => None,
    };
    let stages_add_up = tolerance.is_none_or(|t| (coverage - 1.0).abs() <= t);
    println!(
        "info walks={} spans={} trace={} stage_coverage={coverage:.4} stage_sum_check={}",
        walk_walls.len(),
        rec.spans().len(),
        trace_path.display(),
        match tolerance {
            Some(t) if stages_add_up => format!("pass(within {t})"),
            Some(t) => format!("FAIL(outside {t})"),
            None => "not-enforced".to_string(),
        }
    );

    let attempted = walk_walls.len() * shape.jobs;
    println!(
        "info sent={attempted} ok={} failed={failed} refused={refused}",
        attempted - failed
    );
    let correct =
        goldens && failed == 0 && stages_add_up && reference_holds(workload, args.seed, &reference);

    let per_walk = |v: f64| v / walks;
    let total = |name: &str| per_walk(rec.total_s(name));
    let stat = |key: &str| {
        memo_stats
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |&(_, v)| v)
    };
    let speedup = if one_thread_walls.is_empty() {
        0.0
    } else {
        ratio(median(&one_thread_walls), untraced_wall)
    };
    let engine_ops: u64 = engine_by_bus.iter().map(|&(ops, _)| ops).sum();
    let mops = |(ops, s): (u64, f64)| ratio(ops as f64 / 1e6, s);
    let metrics = [
        ("presburger.footprint_s", total("presburger.footprint")),
        ("presburger.footprints", per_walk(counts.footprints as f64)),
        ("procgraph.epg_build_s", total("procgraph.epg_build")),
        ("procgraph.edges", per_walk(counts.edges as f64)),
        ("workloads.build_s", total("workloads.build")),
        ("workloads.compile_s", total("workloads.compile")),
        (
            "workloads.compile_mops_per_s",
            ratio(
                counts.compiled_ops as f64 / 1e6,
                rec.total_s("workloads.compile"),
            ),
        ),
        ("workloads.trace_ops", per_walk(counts.compiled_ops as f64)),
        (
            "trace.decode_mops_per_s",
            ratio(counts.decoded_ops as f64 / 1e6, rec.total_s("trace.decode")),
        ),
        ("trace.ltr_decode_s", total("trace.ltr_decode")),
        ("trace.ltr_bytes", per_walk(serve_samples.ltr_bytes as f64)),
        ("layout.histogram_s", total("layout.histogram")),
        ("layout.relayout_s", total("layout.relayout")),
        (
            "layout.remapped_arrays",
            per_walk(counts.remapped_arrays as f64),
        ),
        (
            "mpsoc.exec_mops_per_s",
            ratio(counts.exec_ops as f64 / 1e6, rec.total_s("mpsoc.exec")),
        ),
        ("mpsoc.cache.hits", sim.hits as f64),
        ("mpsoc.cache.misses", sim.misses as f64),
        (
            "mpsoc.cache.conflict_misses",
            per_walk(totals.conflict_misses as f64),
        ),
        ("mpsoc.bus.fcfs_mops_per_s", mops(engine_by_bus[1])),
        ("mpsoc.bus.windowed_mops_per_s", mops(engine_by_bus[2])),
        (
            "mpsoc.bus.wait_cycles",
            per_walk(totals.bus_wait_cycles as f64),
        ),
        ("mpsoc.bus.transfers", per_walk(totals.bus_transfers as f64)),
        ("core.sharing_s", total("core.sharing")),
        ("core.engine_s", total("core.engine")),
        ("core.engine_self_s", per_walk(rec.self_s("core.engine"))),
        (
            "core.engine.ns_per_op",
            ratio(rec.total_s("core.engine") * 1e9, engine_ops as f64),
        ),
        ("core.engine.processes", per_walk(totals.processes as f64)),
        ("core.lsm_s", total("core.lsm")),
        ("core.lsm.pilot_s", per_walk(pilot_s)),
        ("core.lsm.candidate_runs", per_walk(lsm_memo_misses as f64)),
        ("core.lsm.gain_pct", sim.lsm_gain_pct),
        ("core.sweep.speedup", speedup),
        ("core.sweep.efficiency", speedup / n as f64),
        ("core.sweep.jobs", shape.jobs as f64),
        ("core.memo.hits", stat("hits")),
        ("core.memo.misses", stat("misses")),
        ("core.memo.hit_rate", stat("hit_rate")),
        ("core.memo.evictions", stat("evictions")),
        ("core.memo.occupancy", stat("occupancy")),
        ("core.memo.warm_lookup_ns", lookup_ns),
        (
            "core.memo.saved_share",
            if uncached_wall > 0.0 {
                1.0 - untraced_wall / uncached_wall
            } else {
                0.0
            },
        ),
        (
            "core.arrivals.plan_mprocs_per_s",
            ratio(
                walks * crate::batch::PLAN_PROCESSES as f64 / 1e6,
                rec.total_s("core.arrivals.plan"),
            ),
        ),
        (
            "core.arrivals.sojourn_p50_cycles",
            totals.per_open_job(totals.sojourn_p50 as f64),
        ),
        (
            "core.arrivals.sojourn_p99_cycles",
            totals.per_open_job(totals.sojourn_p99 as f64),
        ),
        ("core.arrivals.queue_depth_peak", totals.queue_peak as f64),
        (
            "core.arrivals.utilization_mean",
            totals.per_open_job(totals.utilization),
        ),
        (
            "serve.protocol.parse_ns",
            serve_samples.median_of(|s| &s.parse_ns),
        ),
        (
            "serve.protocol.format_ns",
            serve_samples.median_of(|s| &s.format_ns),
        ),
        (
            "serve.pool.execute_ms_p50",
            serve_samples.median_of(|s| &s.execute_ms),
        ),
        (
            "serve.pool.handoff_us",
            serve_samples.median_of(|s| &s.handoff_us),
        ),
        ("serve.pool.shed", stat("shed")),
        ("serve.pool.completed", stat("completed")),
        (
            "serve.server.inmem_ms_per_req",
            ratio(
                serve_samples.inmem_ms.iter().sum(),
                serve_samples.inmem_ms.len() as f64,
            ),
        ),
        (
            "serve.server.socket_ms_p50",
            serve_samples.median_of(|s| &s.socket_ms),
        ),
        (
            "trace.overhead_pct",
            100.0 * (ratio(median(&walk_walls), untraced_wall) - 1.0),
        ),
        ("trace.stage_coverage", coverage),
        ("trace.walks", walks),
        ("trace.spans", rec.spans().len() as f64),
    ];
    RunOutput {
        correct,
        attempted,
        failed,
        metrics: metrics::fill(&metrics::PER_LAYER, &metrics),
    }
}

/// Per-request stage samples accumulated over the serve walks.
#[derive(Default)]
struct ServeSamples {
    parse_ns: Vec<f64>,
    format_ns: Vec<f64>,
    execute_ms: Vec<f64>,
    handoff_us: Vec<f64>,
    inmem_ms: Vec<f64>,
    socket_ms: Vec<f64>,
    ltr_bytes: u64,
}

impl ServeSamples {
    fn extend(&mut self, w: &crate::serve::TracedServe) {
        self.parse_ns.extend(&w.parse_ns);
        self.format_ns.extend(&w.format_ns);
        self.execute_ms.extend(&w.execute_ms);
        self.handoff_us.extend(&w.handoff_us);
        self.inmem_ms.extend(&w.inmem_ms);
        self.socket_ms.extend(&w.socket_ms);
        self.ltr_bytes += w.ltr_bytes;
    }

    /// Median of one sample list; 0 when the workload has no requests.
    fn median_of(&self, pick: impl Fn(&ServeSamples) -> &Vec<f64>) -> f64 {
        let v = pick(self);
        if v.is_empty() {
            0.0
        } else {
            median(v)
        }
    }
}
