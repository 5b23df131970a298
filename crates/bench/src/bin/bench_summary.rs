//! Headless perf tracker: runs the cache and engine micro-benches plus a
//! fixed-seed fig6-style golden sweep and writes `BENCH_hotpath.json` at
//! the workspace root, so the perf trajectory is machine-readable from
//! PR 1 onward. Since PR 2 it also times a fig6-style [`ScenarioMatrix`]
//! at 1 and 4 sweep threads and writes `BENCH_sweep.json` (threads,
//! wall-clock, jobs/sec). Since PR 3 it additionally writes
//! `BENCH_trace.json`: end-to-end engine throughput in scalar vs
//! compiled-IR trace mode (the fig6-style win), trace-generation
//! micro-benches, and `.ltr` encode/decode throughput.
//!
//! Since PR 4 it also times an LSM-heavy matrix with the artifact memo
//! disabled vs shared and writes `BENCH_memo.json` (hit/miss counters,
//! hit rate, cached-vs-uncached wall-clock).
//!
//! Since PR 5 it also times a contended fig6-style matrix under FCFS vs
//! time-windowed bus arbitration and writes `BENCH_bus.json`: FCFS
//! serializes the engine op-by-op (second-smallest-clock horizons),
//! windowed mode restores full event-horizon batching — the recorded
//! `speedup` is the engine-throughput win of the windowed arbiter.
//!
//! Since PR 6 it also drives the `lams-serve` daemon over a loopback
//! TCP connection with a repeated-scenario request stream and writes
//! `BENCH_service.json`: requests/sec, p50/p99/max round-trip latency
//! and the shared artifact cache's hit rate under service load.
//!
//! Since PR 7 `BENCH_memo.json` gains a `ladder` subsection: a
//! threshold-ladder matrix timed uncached vs delta-keyed per-process
//! reuse, recording `speedup_vs_uncached`. The `bench_gate` bin
//! compares fresh summaries against the checked-in baselines in CI.
//!
//! Since PR 10 it also writes `BENCH_arrivals.json`: a million-process
//! Poisson arrival plan generated over Huge-scale service lengths
//! (bit-stable span/checksum plus generation throughput), an
//! open-system engine run on a many-process synthetic pipeline at 0.9
//! offered load (steady-state latency percentiles, run twice to pin
//! determinism), and a typed-shed probe against a bounded queue.
//!
//! Usage:
//! `cargo run --release -p lams-bench --bin bench_summary [out.json] [sweep.json] [trace.json] [memo.json] [bus.json] [service.json] [arrivals.json]`
//!
//! The makespan checksum must stay constant across perf PRs (bit-identical
//! simulation results); the throughput numbers are expected to move.

use std::hint::black_box;
use std::time::Instant;

use lams_core::{
    execute, ArrivalConfig, ArrivalPlan, ArtifactCache, EngineConfig, Error as CoreError,
    Experiment, LocalityPolicy, MemoStats, PolicyKind, ScenarioMatrix, SharingMatrix, SweepRunner,
    TraceMode,
};
use lams_layout::Layout;
use lams_mpsoc::{BusConfig, Cache, CacheConfig, MachineConfig};
use lams_workloads::{suite, synthetic_app, Scale, SyntheticConfig, Workload};

/// Median ns/iter of `f` over `samples` timed samples of `iters` calls.
fn time_ns<F: FnMut()>(mut f: F, iters: u64, samples: usize) -> f64 {
    let mut per_iter: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.total_cmp(b));
    per_iter[per_iter.len() / 2]
}

fn cache_melems_per_s(classify: bool) -> f64 {
    const N: u64 = 10_000;
    let addrs: Vec<u64> = (0..N).map(|i| (i * 52) % 32768).collect();
    let ns = time_ns(
        || {
            let mut cache = Cache::new(CacheConfig::paper_default(), classify);
            for &a in &addrs {
                black_box(cache.access(a));
            }
            black_box(cache.stats().misses);
        },
        8,
        9,
    );
    N as f64 / ns * 1e3
}

struct EngineBench {
    wall_ms: f64,
    makespan: u64,
    sim_mops_per_s: f64,
}

fn engine_bench_mode(mode: TraceMode) -> EngineBench {
    let w = Workload::single(suite::shape(Scale::Small)).expect("valid app");
    let layout = Layout::linear(w.arrays());
    let sharing = SharingMatrix::from_workload(&w);
    let machine = MachineConfig::paper_default();
    let cfg = EngineConfig::from(machine).with_trace_mode(mode);
    let total_ops: u64 = w.process_ids().map(|p| w.trace_len(p)).sum();
    let mut makespan = 0;
    let ns = time_ns(
        || {
            let mut p = LocalityPolicy::new(sharing.clone(), machine.num_cores);
            makespan = execute(&w, &layout, &mut p, cfg)
                .expect("engine runs")
                .makespan_cycles;
        },
        3,
        9,
    );
    EngineBench {
        wall_ms: ns / 1e6,
        makespan,
        sim_mops_per_s: total_ops as f64 / ns * 1e3,
    }
}

fn engine_bench() -> EngineBench {
    engine_bench_mode(TraceMode::default())
}

struct TraceBench {
    scalar_gen_mops: f64,
    compile_mops: f64,
    decode_mops: f64,
    engine_scalar: EngineBench,
    engine_ir: EngineBench,
    ltr_bytes: u64,
    ltr_ops: u64,
    encode_mops: f64,
    decode_ltr_mops: f64,
}

/// Trace-level benches: scalar generation vs IR compile/decode, the
/// end-to-end engine in both trace modes (same makespan, different
/// wall-clock — the fig6-style win), and `.ltr` encode/decode
/// throughput.
fn trace_bench() -> TraceBench {
    let w = Workload::single(suite::shape(Scale::Small)).expect("valid app");
    let layout = Layout::linear(w.arrays());
    let total_ops: u64 = w.process_ids().map(|p| w.trace_len(p)).sum();

    let scalar_ns = time_ns(
        || {
            for p in w.process_ids() {
                black_box(w.trace(p, &layout).count());
            }
        },
        3,
        9,
    );
    let compile_ns = time_ns(
        || {
            black_box(w.compile_traces(&layout));
        },
        3,
        9,
    );
    let programs = w.compile_traces(&layout);
    let decode_ns = time_ns(
        || {
            for p in programs.iter() {
                black_box(p.iter().count());
            }
        },
        3,
        9,
    );

    let bundle = w.record(&layout);
    let bytes = bundle.to_bytes();
    let encode_ns = time_ns(
        || {
            black_box(bundle.to_bytes());
        },
        3,
        9,
    );
    let decode_ltr_ns = time_ns(
        || {
            black_box(lams_trace::TraceBundle::from_bytes(&bytes).expect("decodes"));
        },
        3,
        9,
    );

    let engine_scalar = engine_bench_mode(TraceMode::Scalar);
    let engine_ir = engine_bench_mode(TraceMode::Ir);
    assert_eq!(
        engine_scalar.makespan, engine_ir.makespan,
        "trace modes must be bit-identical"
    );
    let per_op = |ns: f64| total_ops as f64 / ns * 1e3;
    TraceBench {
        scalar_gen_mops: per_op(scalar_ns),
        compile_mops: per_op(compile_ns),
        decode_mops: per_op(decode_ns),
        engine_scalar,
        engine_ir,
        ltr_bytes: bytes.len() as u64,
        ltr_ops: bundle.total_ops(),
        encode_mops: per_op(encode_ns),
        decode_ltr_mops: per_op(decode_ltr_ns),
    }
}

/// Fixed-seed fig6-style golden sweep: every suite app at Tiny scale
/// under RS/RRS/LS on the Table 2 machine. Returns `(name, policy,
/// makespan)` triples.
fn golden_sweep() -> Vec<(String, &'static str, u64)> {
    let kinds = [
        (PolicyKind::Random, "RS"),
        (PolicyKind::RoundRobin, "RRS"),
        (PolicyKind::Locality, "LS"),
    ];
    let mut rows = Vec::new();
    for app in suite::all(Scale::Tiny) {
        let exp = Experiment::isolated(&app, MachineConfig::paper_default()).with_seed(12345);
        for (kind, label) in kinds {
            let r = exp.run(kind).expect("policy runs");
            rows.push((app.name.clone(), label, r.makespan_cycles));
        }
    }
    rows
}

/// The fig6-style sweep matrix the throughput bench times: every suite
/// app at Small scale under two RS seeds, two RRS quanta and LS — 30
/// independent jobs of comparable size (LSM is excluded: its inner
/// ladder would make job sizes wildly uneven and skew the scaling
/// number).
fn sweep_matrix() -> ScenarioMatrix {
    let machine = MachineConfig::paper_default();
    let mut m = ScenarioMatrix::new();
    for app in suite::all(Scale::Small) {
        let exp = Experiment::isolated(&app, machine);
        m.push(&app.name, exp.clone().with_seed(12345), PolicyKind::Random);
        m.push(&app.name, exp.clone().with_seed(99), PolicyKind::Random);
        m.push(
            &app.name,
            exp.clone().with_quantum(10_000),
            PolicyKind::RoundRobin,
        );
        m.push(
            &app.name,
            exp.clone().with_quantum(50_000),
            PolicyKind::RoundRobin,
        );
        m.push(&app.name, exp, PolicyKind::Locality);
    }
    m
}

/// The LSM-heavy matrix `BENCH_memo.json` times: the `|T|` = 2 and 3
/// concurrent mixes at Tiny scale under all four policies. LSM's pilot
/// plus candidate ladder re-simulates each workload several times and
/// every policy shares the workload's compiled traces — exactly the
/// redundancy the artifact memo removes.
fn memo_matrix() -> ScenarioMatrix {
    let machine = MachineConfig::paper_default();
    let mut m = ScenarioMatrix::new();
    for t in 2..=3 {
        let apps = suite::mix(t, Scale::Tiny);
        let exp = Experiment::concurrent(&apps, machine).with_seed(12345);
        m.push_all(format!("mix{t}"), &exp, PolicyKind::ALL);
    }
    m
}

struct MemoBench {
    jobs: usize,
    groups: usize,
    uncached_ms: f64,
    cached_ms: f64,
    speedup: f64,
    stats: MemoStats,
    identical: bool,
}

/// Times the LSM-heavy matrix with the memo disabled (the pre-memo
/// path: every job recompiles traces and rebuilds sharing/pilot state)
/// vs a fresh shared cache per run, asserting the reports stay
/// byte-identical.
fn memo_bench(samples: usize) -> MemoBench {
    let matrix = memo_matrix();
    let runner = SweepRunner::sequential();
    let mut uncached_csv = String::new();
    let uncached_ns = time_ns(
        || {
            let reports = matrix
                .run_with_memo(&runner, &ArtifactCache::disabled())
                .expect("uncached sweep runs");
            uncached_csv = reports.iter().map(|r| r.to_csv()).collect();
            black_box(&uncached_csv);
        },
        1,
        samples,
    );
    let mut cached_csv = String::new();
    let mut stats = MemoStats::default();
    let cached_ns = time_ns(
        || {
            // A fresh cache per sample: the measured win is intra-matrix
            // reuse, not warm-start carry-over between samples.
            let memo = ArtifactCache::shared();
            let reports = matrix
                .run_with_memo(&runner, &memo)
                .expect("cached sweep runs");
            cached_csv = reports.iter().map(|r| r.to_csv()).collect();
            stats = memo.stats();
            black_box(&cached_csv);
        },
        1,
        samples,
    );
    MemoBench {
        jobs: matrix.len(),
        groups: matrix.groups().len(),
        uncached_ms: uncached_ns / 1e6,
        cached_ms: cached_ns / 1e6,
        speedup: uncached_ns / cached_ns,
        stats,
        identical: uncached_csv == cached_csv,
    }
}

/// The threshold-ladder matrix the delta-key bench times: one Tiny
/// `|T|` = 3 mix swept at several relayout thresholds (each an
/// independent LSM job re-running the pilot and much of the candidate
/// ladder) plus the default LSM and plain LS. Whole-artifact keying
/// (PR 4) already shares compiled traces across the jobs; delta keying
/// additionally resolves every repeated (machine, delta-key) ladder
/// rung from the memoized LS result without re-simulating — that gap
/// is what the three-way timing isolates.
fn ladder_matrix() -> ScenarioMatrix {
    let machine = MachineConfig::paper_default();
    let apps = suite::mix(3, Scale::Tiny);
    let exp = Experiment::concurrent(&apps, machine).with_seed(12345);
    let mut m = ScenarioMatrix::new();
    m.push("ladder", exp.clone(), PolicyKind::Locality);
    m.push("ladder", exp.clone(), PolicyKind::LocalityMap);
    for t in [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
        m.push(
            "ladder",
            exp.clone().with_relayout_threshold(t),
            PolicyKind::LocalityMap,
        );
    }
    m
}

struct LadderBench {
    jobs: usize,
    uncached_ms: f64,
    delta_ms: f64,
    speedup_vs_uncached: f64,
    pilot_hits: u64,
    per_process_hits: u64,
    identical: bool,
}

/// Times the threshold ladder two ways — memo disabled and delta-keyed
/// reuse — asserting both sweeps report byte-identical results.
fn ladder_bench(samples: usize) -> LadderBench {
    let matrix = ladder_matrix();
    let runner = SweepRunner::sequential();
    let time_mode = |fresh_memo: fn() -> std::sync::Arc<ArtifactCache>| {
        let mut csv = String::new();
        let mut hits = (0, 0);
        let ns = time_ns(
            || {
                // A fresh cache per sample, as in `memo_bench`: the win
                // measured is intra-matrix reuse only.
                let memo = fresh_memo();
                let reports = matrix
                    .run_with_memo(&runner, &memo)
                    .expect("ladder sweep runs");
                csv = reports.iter().map(|r| r.to_csv()).collect();
                let s = memo.stats();
                hits = (s.pilot_hits, s.per_process_hits);
                black_box(&csv);
            },
            1,
            samples,
        );
        (ns, csv, hits)
    };
    let (uncached_ns, uncached_csv, _) = time_mode(ArtifactCache::disabled);
    let (delta_ns, delta_csv, (pilot_hits, per_process_hits)) = time_mode(ArtifactCache::shared);
    LadderBench {
        jobs: matrix.len(),
        uncached_ms: uncached_ns / 1e6,
        delta_ms: delta_ns / 1e6,
        speedup_vs_uncached: uncached_ns / delta_ns,
        pilot_hits,
        per_process_hits,
        identical: uncached_csv == delta_csv,
    }
}

struct BusBenchRun {
    wall_ms: f64,
    sim_mops_per_s: f64,
    makespan: u64,
    bus_wait_cycles: u64,
}

struct BusBench {
    total_ops: u64,
    fcfs: BusBenchRun,
    windowed: BusBenchRun,
    /// Engine-throughput win of windowed arbitration over the FCFS
    /// path on the same contended matrix (sim ops are identical, so
    /// this equals the wall-clock ratio).
    speedup: f64,
}

/// The contended-matrix bench behind `BENCH_bus.json`: every suite app
/// at Small scale under LS on the Table 2 machine with a 20-cycle
/// shared bus, arbitrated FCFS vs in 256-cycle windows. FCFS forces
/// the engine to cap batches at the second-smallest busy clock —
/// effectively per-op dispatch under contention — while the windowed
/// arbiter restores full event-horizon batching (misses park at epoch
/// boundaries); the throughput ratio is the restored-batching win.
/// Simulated *schedules* differ between the modes (they are different
/// contention models); simulated *work* (trace ops) is identical.
fn bus_bench() -> BusBench {
    // Layouts and sharing matrices are deterministic, mode-independent
    // setup — built once outside the timed region so the recorded
    // speedup measures the engine alone.
    let apps: Vec<(Workload, Layout, SharingMatrix)> = suite::all(Scale::Small)
        .into_iter()
        .map(|a| {
            let w = Workload::single(a).expect("valid app");
            let layout = Layout::linear(w.arrays());
            let sharing = SharingMatrix::from_workload(&w);
            (w, layout, sharing)
        })
        .collect();
    let total_ops: u64 = apps
        .iter()
        .map(|(w, _, _)| w.process_ids().map(|p| w.trace_len(p)).sum::<u64>())
        .sum();
    let run = |bus: BusConfig| {
        let machine = MachineConfig::paper_default().with_bus(bus);
        let mut makespan = 0u64;
        let mut bus_wait = 0u64;
        let ns = time_ns(
            || {
                makespan = 0;
                bus_wait = 0;
                for (w, layout, sharing) in &apps {
                    let mut p = LocalityPolicy::new(sharing.clone(), machine.num_cores);
                    let r = execute(w, layout, &mut p, EngineConfig::from(machine))
                        .expect("engine runs");
                    makespan += r.makespan_cycles;
                    bus_wait += r.machine.total_bus_wait_cycles;
                }
                black_box(makespan);
            },
            1,
            7,
        );
        BusBenchRun {
            wall_ms: ns / 1e6,
            sim_mops_per_s: total_ops as f64 / ns * 1e3,
            makespan,
            bus_wait_cycles: bus_wait,
        }
    };
    let fcfs = run(BusConfig::fcfs(20));
    let windowed = run(BusConfig::windowed(20, 256));
    let speedup = fcfs.wall_ms / windowed.wall_ms;
    BusBench {
        total_ops,
        fcfs,
        windowed,
        speedup,
    }
}

struct SweepBenchRun {
    threads: usize,
    wall_ms: f64,
    jobs_per_s: f64,
    csv: String,
}

/// Times `matrix.run` at each thread count (median of `samples`) and
/// returns per-thread-count wall-clock, throughput and the concatenated
/// report CSVs (which must be identical across thread counts).
fn sweep_bench(
    matrix: &ScenarioMatrix,
    thread_counts: &[usize],
    samples: usize,
) -> Vec<SweepBenchRun> {
    thread_counts
        .iter()
        .map(|&threads| {
            let runner = SweepRunner::new(threads);
            let mut csv = String::new();
            let ns = time_ns(
                || {
                    let reports = matrix.run(&runner).expect("sweep runs");
                    csv = reports.iter().map(|r| r.to_csv()).collect();
                    black_box(&csv);
                },
                1,
                samples,
            );
            SweepBenchRun {
                threads,
                wall_ms: ns / 1e6,
                jobs_per_s: matrix.len() as f64 / ns * 1e9,
                csv,
            }
        })
        .collect()
}

struct ServiceBench {
    requests: usize,
    workers: usize,
    wall_ms: f64,
    requests_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    hits: u64,
    misses: u64,
    hit_rate: f64,
}

/// Drives a live `lams-serve` daemon over loopback TCP with a
/// repeated-scenario stream (every suite-triple app under RS/RRS/LS,
/// several rounds) and measures synchronous round-trip latency. A
/// warm-up round fills the shared artifact cache, so the measured
/// stream is the steady state a sweep front-end sees.
fn service_bench(rounds: usize) -> ServiceBench {
    use lams_serve::{ServerConfig, TcpServer};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let config = ServerConfig::default();
    let workers = config.workers;
    let server = TcpServer::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let handle = server.spawn().expect("spawn accept loop");

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut ask = |line: &str| -> String {
        writeln!(writer, "{line}").expect("write request");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read response");
        resp.trim_end().to_string()
    };
    let field = |line: &str, key: &str| -> String {
        line.split_ascii_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{key}=")[..]))
            .unwrap_or_else(|| panic!("no {key}= in {line}"))
            .to_string()
    };

    let apps = ["shape", "track", "usonic"];
    let policies = ["rs", "rrs", "ls"];
    for app in apps {
        for policy in policies {
            let resp = ask(&format!("run id=warm app={app} scale=tiny policy={policy}"));
            assert!(resp.starts_with("ok "), "warm-up failed: {resp}");
        }
    }

    let mut latencies_ms = Vec::with_capacity(rounds * apps.len() * policies.len());
    let start = Instant::now();
    for round in 0..rounds {
        for app in apps {
            for policy in policies {
                let t = Instant::now();
                let resp = ask(&format!(
                    "run id={round} app={app} scale=tiny policy={policy}"
                ));
                latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                assert!(resp.starts_with("ok "), "request failed: {resp}");
            }
        }
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let stats = ask("stats id=stats");
    let hits: u64 = field(&stats, "hits").parse().expect("hits");
    let misses: u64 = field(&stats, "misses").parse().expect("misses");
    let hit_rate: f64 = field(&stats, "hit_rate").parse().expect("hit_rate");
    let bye = ask("shutdown id=bye");
    assert!(bye.starts_with("ok "), "shutdown failed: {bye}");
    handle.wait().expect("accept loop exits");

    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let n = latencies_ms.len();
    let pct = |p: usize| latencies_ms[(n * p / 100).min(n - 1)];
    ServiceBench {
        requests: n,
        workers,
        wall_ms,
        requests_per_s: n as f64 / wall_ms * 1e3,
        p50_ms: pct(50),
        p99_ms: pct(99),
        max_ms: latencies_ms[n - 1],
        hits,
        misses,
        hit_rate,
    }
}

struct ArrivalsBench {
    plan_processes: usize,
    plan_span_cycles: u64,
    plan_checksum: u64,
    gen_ms: f64,
    gen_mprocs_per_s: f64,
    open_processes: usize,
    makespan_cycles: u64,
    arrival_span_cycles: u64,
    queue_depth_peak: usize,
    sojourn_p50: u64,
    sojourn_p99: u64,
    queueing_p99: u64,
    utilization_mean: f64,
    wall_ms: f64,
    sim_procs_per_s: f64,
    deterministic: bool,
    saturation_typed: bool,
}

/// The open-system bench behind `BENCH_arrivals.json`, in three parts.
///
/// * **plan** — a million-process Poisson stream generated over the
///   Huge-scale Shape app's analytic per-process service lengths
///   (cycled to a million entries; the generator never touches
///   traces). The span and checksum are pure functions of the seed —
///   exact-gated — while the generation throughput tracks perf.
/// * **open** — a real open-system engine run: a 192-process synthetic
///   pipeline admitted by a 0.9-offered-load Poisson stream under RRS,
///   run twice to pin that makespan, latency percentiles and queue
///   peak are bit-identical (everything is simulated cycles, so the
///   makespan is exact-gated across machines too).
/// * **saturation** — the same pipeline at 4x offered load against a
///   2-deep admission queue must shed with the typed
///   [`QueueSaturated`](CoreError::QueueSaturated) error, never a
///   panic or a silent drop.
fn arrivals_bench() -> ArrivalsBench {
    const STREAM: usize = 1_000_000;
    let huge = Workload::single(suite::shape(Scale::Huge)).expect("valid app");
    let huge_lens: Vec<u64> = huge.process_ids().map(|p| huge.trace_len(p)).collect();
    let service: Vec<u64> = (0..STREAM)
        .map(|i| huge_lens[i % huge_lens.len()])
        .collect();
    let config = ArrivalConfig::poisson(900, 42);
    let cores = MachineConfig::paper_default().num_cores;
    let mut plan = ArrivalPlan::generate(config, &service, cores);
    let gen_ns = time_ns(
        || {
            plan = ArrivalPlan::generate(config, &service, cores);
            black_box(plan.len());
        },
        1,
        5,
    );

    let app = synthetic_app(SyntheticConfig {
        seed: 0xA221,
        stages: 6,
        procs_per_stage: 32,
        dim: 96,
        max_halo: 2,
    });
    let machine = MachineConfig::paper_default();
    let exp = Experiment::isolated(&app, machine).with_arrivals(ArrivalConfig::poisson(900, 42));
    let start = Instant::now();
    let first = exp.run(PolicyKind::RoundRobin).expect("open run completes");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let second = exp.run(PolicyKind::RoundRobin).expect("open run completes");
    let m = first.arrivals.as_ref().expect("open run reports metrics");
    let deterministic = first.makespan_cycles == second.makespan_cycles
        && second.arrivals.as_ref() == Some(m)
        && ArrivalPlan::generate(config, &service, cores).checksum() == plan.checksum();
    let utilization_mean =
        m.core_utilization.iter().sum::<f64>() / m.core_utilization.len().max(1) as f64;

    let sat = Experiment::isolated(&app, machine)
        .with_arrivals(ArrivalConfig::poisson(4000, 7).with_queue_capacity(2));
    let saturation_typed = matches!(
        sat.run(PolicyKind::RoundRobin),
        Err(CoreError::QueueSaturated { .. })
    );

    ArrivalsBench {
        plan_processes: plan.len(),
        plan_span_cycles: plan.span(),
        plan_checksum: plan.checksum(),
        gen_ms: gen_ns / 1e6,
        gen_mprocs_per_s: STREAM as f64 / gen_ns * 1e3,
        open_processes: m.completed,
        makespan_cycles: first.makespan_cycles,
        arrival_span_cycles: m.arrival_span_cycles,
        queue_depth_peak: m.queue_depth_peak,
        sojourn_p50: m.sojourn.p50,
        sojourn_p99: m.sojourn.p99,
        queueing_p99: m.queueing.p99,
        utilization_mean,
        wall_ms,
        sim_procs_per_s: m.completed as f64 / wall_ms * 1e3,
        deterministic,
        saturation_typed,
    }
}

/// FNV-1a over the makespan stream — one number to eyeball across PRs.
fn checksum(rows: &[(String, &'static str, u64)]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for (_, _, m) in rows {
        for b in m.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_hotpath.json".to_string());
    let sweep_out = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "BENCH_sweep.json".to_string());
    let trace_out = std::env::args()
        .nth(3)
        .unwrap_or_else(|| "BENCH_trace.json".to_string());
    let memo_out = std::env::args()
        .nth(4)
        .unwrap_or_else(|| "BENCH_memo.json".to_string());
    let bus_out = std::env::args()
        .nth(5)
        .unwrap_or_else(|| "BENCH_bus.json".to_string());
    let service_out = std::env::args()
        .nth(6)
        .unwrap_or_else(|| "BENCH_service.json".to_string());
    let arrivals_out = std::env::args()
        .nth(7)
        .unwrap_or_else(|| "BENCH_arrivals.json".to_string());

    eprintln!("bench_summary: cache micro-benches...");
    let plain = cache_melems_per_s(false);
    let classified = cache_melems_per_s(true);
    eprintln!("  access_plain      {plain:.2} Melem/s");
    eprintln!("  access_classified {classified:.2} Melem/s");

    eprintln!("bench_summary: engine micro-bench (LS, Shape, Small)...");
    let eng = engine_bench();
    eprintln!(
        "  ls_shape_small    {:.3} ms  ({:.2} sim Mops/s, makespan {})",
        eng.wall_ms, eng.sim_mops_per_s, eng.makespan
    );

    eprintln!("bench_summary: fig6-style golden sweep (Tiny)...");
    let rows = golden_sweep();
    let sum = checksum(&rows);
    eprintln!("  {} runs, makespan checksum 0x{sum:016x}", rows.len());

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": 1,\n");
    json.push_str("  \"cache\": {\n");
    json.push_str(&format!("    \"access_plain_melems_per_s\": {plain:.3},\n"));
    json.push_str(&format!(
        "    \"access_classified_melems_per_s\": {classified:.3}\n"
    ));
    json.push_str("  },\n");
    json.push_str("  \"engine\": {\n");
    json.push_str(&format!("    \"ls_shape_small_ms\": {:.4},\n", eng.wall_ms));
    json.push_str(&format!(
        "    \"sim_mops_per_s\": {:.3},\n",
        eng.sim_mops_per_s
    ));
    json.push_str(&format!("    \"makespan_cycles\": {}\n", eng.makespan));
    json.push_str("  },\n");
    json.push_str("  \"golden\": {\n");
    json.push_str(&format!("    \"makespan_checksum\": \"0x{sum:016x}\",\n"));
    json.push_str("    \"runs\": [\n");
    for (i, (name, policy, makespan)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!(
            "      {{\"app\": \"{name}\", \"policy\": \"{policy}\", \"makespan_cycles\": {makespan}}}{comma}\n"
        ));
    }
    json.push_str("    ]\n");
    json.push_str("  }\n");
    json.push_str("}\n");

    std::fs::write(&out, json).expect("write bench summary");
    eprintln!("bench_summary: wrote {out}");

    eprintln!("bench_summary: fig6-style scenario-matrix sweep (Small, 30 jobs)...");
    let matrix = sweep_matrix();
    let runs = sweep_bench(&matrix, &[1, 4], 5);
    let identical = runs.iter().all(|r| r.csv == runs[0].csv);
    assert!(identical, "sweep reports diverged across thread counts");
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    for r in &runs {
        eprintln!(
            "  threads={} {:>8.3} ms  ({:.1} jobs/s)",
            r.threads, r.wall_ms, r.jobs_per_s
        );
    }
    let speedup = runs[0].wall_ms / runs[runs.len() - 1].wall_ms;
    eprintln!("  speedup {speedup:.2}x on {cpus} available CPU(s), reports bit-identical");

    let mut sj = String::new();
    sj.push_str("{\n");
    sj.push_str("  \"schema\": 1,\n");
    sj.push_str(&format!("  \"cpus_available\": {cpus},\n"));
    sj.push_str("  \"matrix\": {\"style\": \"fig6\", \"scale\": \"small\", ");
    sj.push_str(&format!(
        "\"jobs\": {}, \"groups\": {}}},\n",
        matrix.len(),
        matrix.groups().len()
    ));
    sj.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let comma = if i + 1 == runs.len() { "" } else { "," };
        sj.push_str(&format!(
            "    {{\"threads\": {}, \"wall_ms\": {:.4}, \"jobs_per_s\": {:.2}}}{comma}\n",
            r.threads, r.wall_ms, r.jobs_per_s
        ));
    }
    sj.push_str("  ],\n");
    sj.push_str(&format!("  \"speedup_vs_1_thread\": {speedup:.3},\n"));
    sj.push_str(&format!("  \"reports_identical\": {identical}\n"));
    sj.push_str("}\n");
    std::fs::write(&sweep_out, sj).expect("write sweep summary");
    eprintln!("bench_summary: wrote {sweep_out}");

    eprintln!("bench_summary: trace IR benches (Shape, Small)...");
    let tb = trace_bench();
    let engine_speedup = tb.engine_scalar.wall_ms / tb.engine_ir.wall_ms;
    eprintln!(
        "  trace_gen        scalar {:.2} Mops/s, compile {:.2} Mops/s, decode {:.2} Mops/s",
        tb.scalar_gen_mops, tb.compile_mops, tb.decode_mops
    );
    eprintln!(
        "  engine ls_shape  scalar {:.3} ms vs IR {:.3} ms ({engine_speedup:.2}x, makespan {})",
        tb.engine_scalar.wall_ms, tb.engine_ir.wall_ms, tb.engine_ir.makespan
    );
    eprintln!(
        "  ltr              {} ops -> {} bytes ({:.2} bits/op), encode {:.2} Mops/s, decode {:.2} Mops/s",
        tb.ltr_ops,
        tb.ltr_bytes,
        tb.ltr_bytes as f64 * 8.0 / tb.ltr_ops as f64,
        tb.encode_mops,
        tb.decode_ltr_mops
    );

    let mut tj = String::new();
    tj.push_str("{\n");
    tj.push_str("  \"schema\": 1,\n");
    tj.push_str("  \"trace_gen\": {\n");
    tj.push_str(&format!(
        "    \"scalar_mops_per_s\": {:.3},\n",
        tb.scalar_gen_mops
    ));
    tj.push_str(&format!(
        "    \"ir_compile_mops_per_s\": {:.3},\n",
        tb.compile_mops
    ));
    tj.push_str(&format!(
        "    \"ir_decode_mops_per_s\": {:.3}\n",
        tb.decode_mops
    ));
    tj.push_str("  },\n");
    tj.push_str("  \"engine_ls_shape_small\": {\n");
    tj.push_str(&format!(
        "    \"scalar_ms\": {:.4},\n",
        tb.engine_scalar.wall_ms
    ));
    tj.push_str(&format!("    \"ir_ms\": {:.4},\n", tb.engine_ir.wall_ms));
    tj.push_str(&format!(
        "    \"scalar_sim_mops_per_s\": {:.3},\n",
        tb.engine_scalar.sim_mops_per_s
    ));
    tj.push_str(&format!(
        "    \"ir_sim_mops_per_s\": {:.3},\n",
        tb.engine_ir.sim_mops_per_s
    ));
    tj.push_str(&format!("    \"speedup\": {engine_speedup:.3},\n"));
    tj.push_str(&format!(
        "    \"makespan_cycles\": {},\n",
        tb.engine_ir.makespan
    ));
    tj.push_str(&format!(
        "    \"modes_bit_identical\": {}\n",
        tb.engine_scalar.makespan == tb.engine_ir.makespan
    ));
    tj.push_str("  },\n");
    tj.push_str("  \"ltr\": {\n");
    tj.push_str(&format!("    \"ops\": {},\n", tb.ltr_ops));
    tj.push_str(&format!("    \"bytes\": {},\n", tb.ltr_bytes));
    tj.push_str(&format!(
        "    \"bits_per_op\": {:.3},\n",
        tb.ltr_bytes as f64 * 8.0 / tb.ltr_ops as f64
    ));
    tj.push_str(&format!(
        "    \"encode_mops_per_s\": {:.3},\n",
        tb.encode_mops
    ));
    tj.push_str(&format!(
        "    \"decode_mops_per_s\": {:.3}\n",
        tb.decode_ltr_mops
    ));
    tj.push_str("  }\n");
    tj.push_str("}\n");
    std::fs::write(&trace_out, tj).expect("write trace summary");
    eprintln!("bench_summary: wrote {trace_out}");

    eprintln!("bench_summary: artifact-memo bench (LSM-heavy Tiny mixes)...");
    let mb = memo_bench(5);
    assert!(mb.identical, "cached and uncached sweep reports diverged");
    let s = mb.stats;
    eprintln!(
        "  matrix           {} jobs / {} groups: uncached {:.3} ms vs cached {:.3} ms ({:.2}x)",
        mb.jobs, mb.groups, mb.uncached_ms, mb.cached_ms, mb.speedup
    );
    eprintln!("  memo             {s}");

    eprintln!("bench_summary: delta-key ladder bench (Tiny mix3 threshold ladder)...");
    let lb = ladder_bench(5);
    assert!(
        lb.identical,
        "ladder reports diverged across uncached / delta-keyed"
    );
    eprintln!(
        "  ladder           {} jobs: uncached {:.3} ms, delta {:.3} ms",
        lb.jobs, lb.uncached_ms, lb.delta_ms
    );
    eprintln!(
        "  speedup          {:.2}x vs uncached ({} ls-result hits, {} per-process hits)",
        lb.speedup_vs_uncached, lb.pilot_hits, lb.per_process_hits
    );

    let mut mj = String::new();
    mj.push_str("{\n");
    mj.push_str("  \"schema\": 1,\n");
    mj.push_str("  \"matrix\": {\"style\": \"lsm-mixes\", \"scale\": \"tiny\", ");
    mj.push_str(&format!(
        "\"jobs\": {}, \"groups\": {}}},\n",
        mb.jobs, mb.groups
    ));
    mj.push_str(&format!("  \"uncached_ms\": {:.4},\n", mb.uncached_ms));
    mj.push_str(&format!("  \"cached_ms\": {:.4},\n", mb.cached_ms));
    mj.push_str(&format!("  \"speedup\": {:.3},\n", mb.speedup));
    mj.push_str(&format!("  \"reports_identical\": {},\n", mb.identical));
    mj.push_str("  \"memo\": {\n");
    mj.push_str(&format!("    \"hits\": {},\n", s.hits()));
    mj.push_str(&format!("    \"misses\": {},\n", s.misses()));
    mj.push_str(&format!("    \"hit_rate\": {:.4},\n", s.hit_rate()));
    mj.push_str(&format!("    \"program_hits\": {},\n", s.program_hits));
    mj.push_str(&format!("    \"program_misses\": {},\n", s.program_misses));
    mj.push_str(&format!(
        "    \"per_process_hits\": {},\n",
        s.per_process_hits
    ));
    mj.push_str(&format!(
        "    \"per_process_misses\": {},\n",
        s.per_process_misses
    ));
    mj.push_str(&format!("    \"sharing_hits\": {},\n", s.sharing_hits));
    mj.push_str(&format!("    \"sharing_misses\": {},\n", s.sharing_misses));
    mj.push_str(&format!("    \"pilot_hits\": {},\n", s.pilot_hits));
    mj.push_str(&format!("    \"pilot_misses\": {},\n", s.pilot_misses));
    mj.push_str(&format!("    \"weight_hits\": {},\n", s.weight_hits));
    mj.push_str(&format!("    \"weight_misses\": {}\n", s.weight_misses));
    mj.push_str("  },\n");
    mj.push_str("  \"ladder\": {\n");
    mj.push_str(&format!(
        "    \"matrix\": {{\"style\": \"threshold-ladder\", \"scale\": \"tiny\", \"jobs\": {}}},\n",
        lb.jobs
    ));
    mj.push_str(&format!("    \"uncached_ms\": {:.4},\n", lb.uncached_ms));
    mj.push_str(&format!("    \"delta_keyed_ms\": {:.4},\n", lb.delta_ms));
    mj.push_str(&format!(
        "    \"speedup_vs_uncached\": {:.3},\n",
        lb.speedup_vs_uncached
    ));
    mj.push_str(&format!("    \"ls_result_hits\": {},\n", lb.pilot_hits));
    mj.push_str(&format!(
        "    \"per_process_hits\": {},\n",
        lb.per_process_hits
    ));
    mj.push_str(&format!("    \"reports_identical\": {}\n", lb.identical));
    mj.push_str("  }\n");
    mj.push_str("}\n");
    std::fs::write(&memo_out, mj).expect("write memo summary");
    eprintln!("bench_summary: wrote {memo_out}");

    eprintln!("bench_summary: bus-arbitration bench (LS suite, Small, contended)...");
    let bb = bus_bench();
    eprintln!(
        "  fcfs             {:>8.3} ms  ({:.2} sim Mops/s, makespan sum {}, waits {})",
        bb.fcfs.wall_ms, bb.fcfs.sim_mops_per_s, bb.fcfs.makespan, bb.fcfs.bus_wait_cycles
    );
    eprintln!(
        "  windowed/256     {:>8.3} ms  ({:.2} sim Mops/s, makespan sum {}, waits {})",
        bb.windowed.wall_ms,
        bb.windowed.sim_mops_per_s,
        bb.windowed.makespan,
        bb.windowed.bus_wait_cycles
    );
    eprintln!(
        "  speedup          {:.2}x engine throughput (windowed vs FCFS)",
        bb.speedup
    );

    let mut bj = String::new();
    bj.push_str("{\n");
    bj.push_str("  \"schema\": 1,\n");
    bj.push_str("  \"matrix\": {\"style\": \"fig6-ls\", \"scale\": \"small\", ");
    bj.push_str(&format!(
        "\"occupancy_cycles\": 20, \"window_cycles\": 256, \"total_ops\": {}}},\n",
        bb.total_ops
    ));
    let run_json = |r: &BusBenchRun| {
        format!(
            "{{\"wall_ms\": {:.4}, \"sim_mops_per_s\": {:.3}, \"makespan_sum_cycles\": {}, \"bus_wait_cycles\": {}}}",
            r.wall_ms, r.sim_mops_per_s, r.makespan, r.bus_wait_cycles
        )
    };
    bj.push_str(&format!("  \"fcfs\": {},\n", run_json(&bb.fcfs)));
    bj.push_str(&format!("  \"windowed\": {},\n", run_json(&bb.windowed)));
    bj.push_str(&format!("  \"speedup\": {:.3}\n", bb.speedup));
    bj.push_str("}\n");
    std::fs::write(&bus_out, bj).expect("write bus summary");
    eprintln!("bench_summary: wrote {bus_out}");

    eprintln!("bench_summary: service bench (lams-serve over loopback TCP, Tiny stream)...");
    let vb = service_bench(5);
    eprintln!(
        "  stream           {} requests in {:.3} ms ({:.1} req/s, {} workers)",
        vb.requests, vb.wall_ms, vb.requests_per_s, vb.workers
    );
    eprintln!(
        "  latency          p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        vb.p50_ms, vb.p99_ms, vb.max_ms
    );
    eprintln!(
        "  cache            {} hits / {} misses ({:.1}% hit rate)",
        vb.hits,
        vb.misses,
        vb.hit_rate * 100.0
    );

    let mut vj = String::new();
    vj.push_str("{\n");
    vj.push_str("  \"schema\": 1,\n");
    vj.push_str("  \"stream\": {\"style\": \"repeated-fig6\", \"scale\": \"tiny\", ");
    vj.push_str(&format!(
        "\"requests\": {}, \"workers\": {}}},\n",
        vb.requests, vb.workers
    ));
    vj.push_str(&format!("  \"wall_ms\": {:.4},\n", vb.wall_ms));
    vj.push_str(&format!(
        "  \"requests_per_s\": {:.2},\n",
        vb.requests_per_s
    ));
    vj.push_str("  \"latency_ms\": {\n");
    vj.push_str(&format!("    \"p50\": {:.4},\n", vb.p50_ms));
    vj.push_str(&format!("    \"p99\": {:.4},\n", vb.p99_ms));
    vj.push_str(&format!("    \"max\": {:.4}\n", vb.max_ms));
    vj.push_str("  },\n");
    vj.push_str("  \"cache\": {\n");
    vj.push_str(&format!("    \"hits\": {},\n", vb.hits));
    vj.push_str(&format!("    \"misses\": {},\n", vb.misses));
    vj.push_str(&format!("    \"hit_rate\": {:.4}\n", vb.hit_rate));
    vj.push_str("  }\n");
    vj.push_str("}\n");
    std::fs::write(&service_out, vj).expect("write service summary");
    eprintln!("bench_summary: wrote {service_out}");

    eprintln!("bench_summary: open-system arrivals bench (1M-process plan, synthetic pipeline)...");
    let ab = arrivals_bench();
    assert!(ab.deterministic, "open-system runs diverged across repeats");
    assert!(ab.saturation_typed, "overload did not shed typed");
    eprintln!(
        "  plan             {} processes in {:.3} ms ({:.2} Mprocs/s, span {} cycles, checksum 0x{:016x})",
        ab.plan_processes, ab.gen_ms, ab.gen_mprocs_per_s, ab.plan_span_cycles, ab.plan_checksum
    );
    eprintln!(
        "  open run         {} processes, makespan {} cycles in {:.3} ms ({:.1} procs/s, queue peak {})",
        ab.open_processes, ab.makespan_cycles, ab.wall_ms, ab.sim_procs_per_s, ab.queue_depth_peak
    );
    eprintln!(
        "  latency          sojourn p50 {} / p99 {} cycles, queueing p99 {} cycles, utilization {:.3}",
        ab.sojourn_p50, ab.sojourn_p99, ab.queueing_p99, ab.utilization_mean
    );

    let mut aj = String::new();
    aj.push_str("{\n");
    aj.push_str("  \"schema\": 1,\n");
    aj.push_str("  \"plan\": {\n");
    aj.push_str("    \"style\": \"poisson-huge-shape\",\n");
    aj.push_str(&format!("    \"processes\": {},\n", ab.plan_processes));
    aj.push_str("    \"load_milli\": 900, \"seed\": 42,\n");
    aj.push_str(&format!("    \"span_cycles\": {},\n", ab.plan_span_cycles));
    aj.push_str(&format!(
        "    \"checksum\": \"0x{:016x}\",\n",
        ab.plan_checksum
    ));
    aj.push_str(&format!("    \"gen_ms\": {:.4},\n", ab.gen_ms));
    aj.push_str(&format!(
        "    \"gen_mprocs_per_s\": {:.3}\n",
        ab.gen_mprocs_per_s
    ));
    aj.push_str("  },\n");
    aj.push_str("  \"open\": {\n");
    aj.push_str("    \"style\": \"synthetic-pipeline\", \"policy\": \"RRS\",\n");
    aj.push_str("    \"load_milli\": 900, \"arrival_seed\": 42,\n");
    aj.push_str(&format!("    \"processes\": {},\n", ab.open_processes));
    aj.push_str(&format!(
        "    \"makespan_cycles\": {},\n",
        ab.makespan_cycles
    ));
    aj.push_str(&format!(
        "    \"arrival_span_cycles\": {},\n",
        ab.arrival_span_cycles
    ));
    aj.push_str(&format!(
        "    \"queue_depth_peak\": {},\n",
        ab.queue_depth_peak
    ));
    aj.push_str(&format!(
        "    \"sojourn_p50_cycles\": {},\n",
        ab.sojourn_p50
    ));
    aj.push_str(&format!(
        "    \"sojourn_p99_cycles\": {},\n",
        ab.sojourn_p99
    ));
    aj.push_str(&format!(
        "    \"queueing_p99_cycles\": {},\n",
        ab.queueing_p99
    ));
    aj.push_str(&format!(
        "    \"utilization_mean\": {:.4},\n",
        ab.utilization_mean
    ));
    aj.push_str(&format!("    \"wall_ms\": {:.4},\n", ab.wall_ms));
    aj.push_str(&format!(
        "    \"sim_procs_per_s\": {:.2},\n",
        ab.sim_procs_per_s
    ));
    aj.push_str(&format!("    \"deterministic\": {}\n", ab.deterministic));
    aj.push_str("  },\n");
    aj.push_str(&format!(
        "  \"saturation_typed\": {}\n",
        ab.saturation_typed
    ));
    aj.push_str("}\n");
    std::fs::write(&arrivals_out, aj).expect("write arrivals summary");
    eprintln!("bench_summary: wrote {arrivals_out}");
}
