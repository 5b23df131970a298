//! Service-level failure injection for `lams-serve`: every hardening
//! claim is exercised end-to-end — panics isolated per job, deadlines
//! enforced deterministically, overload shed with `busy`, corrupt
//! `.ltr` bytes and malformed request lines answered without killing
//! the daemon, and graceful drain under all of it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use lams_core::{execute_bundle, ArtifactCache, EngineConfig, RandomPolicy};
use lams_layout::Layout;
use lams_mpsoc::MachineConfig;
use lams_serve::{Exit, FaultPlan, PoolConfig, ServerConfig, Service, TcpServer, Work, WorkerPool};
use lams_trace::{ProgramBuilder, TraceBundle, TraceRecord};
use lams_workloads::{suite, Scale, Workload};

/// Runs `input` through an in-process service and returns the response
/// lines (the stdio transport without the process boundary).
fn serve_lines(config: ServerConfig, input: &str) -> (Vec<String>, Exit, Service) {
    let service = Service::new(config);
    let mut out = Vec::new();
    let exit = service
        .serve(&mut BufReader::new(input.as_bytes()), &mut out)
        .expect("in-memory serve cannot fail on I/O");
    let lines = String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(str::to_owned)
        .collect();
    (lines, exit, service)
}

/// Extracts `key=` from a response line (msg-style trailing fields
/// excluded).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_ascii_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")[..]))
}

#[test]
fn end_to_end_over_tcp_with_cache_reuse_and_shutdown() {
    let server = TcpServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut ask = |line: &str| -> String {
        writeln!(writer, "{line}").expect("write");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read");
        resp.trim_end().to_string()
    };

    assert_eq!(ask("ping id=0"), "ok id=0 pong=1");
    let first = ask("run id=1 app=shape scale=tiny policy=ls");
    assert!(first.starts_with("ok id=1 "), "{first}");
    let makespan = field(&first, "makespan")
        .expect("makespan field")
        .to_string();

    // The same scenario again: identical result, served warmer.
    let second = ask("run id=2 app=shape scale=tiny policy=ls");
    assert_eq!(field(&second, "makespan"), Some(makespan.as_str()));
    let stats = ask("stats id=3");
    let hits: u64 = field(&stats, "hits").unwrap().parse().unwrap();
    assert!(hits > 0, "repeat scenario must hit the cache: {stats}");

    // Malformed requests are answered, not fatal.
    let bad = ask("run id=4 app=shape scale=tiny policy=warp9");
    assert!(bad.starts_with("err id=4 code=bad_request"), "{bad}");
    let bad = ask("flarp id=5");
    assert!(bad.starts_with("err id=5 code=bad_request"), "{bad}");
    // An unknown app is a clean error too.
    let bad = ask("run id=6 app=nonesuch scale=tiny policy=rs");
    assert!(bad.starts_with("err id=6 code=bad_request"), "{bad}");
    // ...and the daemon still works.
    let again = ask("run id=7 app=shape scale=tiny policy=ls");
    assert_eq!(field(&again, "makespan"), Some(makespan.as_str()));

    let bye = ask("shutdown id=8");
    assert_eq!(bye, "ok id=8 draining=1");
    handle.wait().expect("accept loop exits cleanly");
}

#[test]
fn oversized_lines_are_rejected_and_the_stream_survives() {
    let flood = "x".repeat(lams_serve::MAX_LINE_BYTES * 3);
    let input = format!("run id=1 app={flood} scale=tiny policy=rs\nping id=2\n");
    let (lines, exit, service) = serve_lines(ServerConfig::default(), &input);
    service.drain();
    assert_eq!(exit, Exit::Eof);
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert!(
        lines[0].starts_with("err id=- code=oversized"),
        "{}",
        lines[0]
    );
    assert_eq!(lines[1], "ok id=2 pong=1");
}

#[test]
fn injected_panic_is_isolated_to_its_job() {
    // Fault plan: the second admitted job (seq 1) panics.
    let config = ServerConfig {
        workers: 1,
        fault_plan: FaultPlan::parse("panic:1").unwrap(),
        ..ServerConfig::default()
    };
    let input = "\
run id=a app=shape scale=tiny policy=rs\n\
run id=b app=shape scale=tiny policy=rs\n\
run id=c app=shape scale=tiny policy=rs\n";
    let (lines, _, service) = serve_lines(config, input);
    assert_eq!(lines.len(), 3, "{lines:?}");
    assert!(lines[0].starts_with("ok id=a "), "{}", lines[0]);
    assert!(
        lines[1].starts_with("err id=b code=job_panicked"),
        "{}",
        lines[1]
    );
    assert!(lines[1].contains("injected fault"), "{}", lines[1]);
    // The worker survived the panic and produced the identical result.
    assert!(lines[2].starts_with("ok id=c "), "{}", lines[2]);
    assert_eq!(field(&lines[2], "makespan"), field(&lines[0], "makespan"));
    let stats = service.service_stats();
    assert_eq!((stats.completed, stats.panicked), (3, 1));
    service.drain();
}

#[test]
fn zero_quantum_and_zero_cores_never_reach_a_worker() {
    // Malformed, not faulty: inside a job `quantum=0` trips
    // `RoundRobinPolicy::new`'s assert (`job_panicked`, a backtrace, the
    // `panicked` counter) and `cores=0` is an `internal` error.
    let input = "\
run id=1 app=shape scale=tiny policy=rrs quantum=0\n\
run id=2 app=shape scale=tiny policy=rrs cores=0\n\
replay id=3 file=unread.ltr policy=rrs quantum=0\n\
replay id=4 file=unread.ltr policy=rrs cores=0\n\
run id=5 app=shape scale=tiny policy=rrs quantum=1 cores=1\n";
    let (lines, _, service) = serve_lines(ServerConfig::default(), input);
    service.drain();
    assert_eq!(lines.len(), 5, "{lines:?}");
    for (i, line) in lines[..4].iter().enumerate() {
        let want = format!("err id={} code=bad_request", i + 1);
        assert!(line.starts_with(&want), "{line}");
    }
    assert!(lines[4].starts_with("ok id=5 "), "{}", lines[4]);
    let stats = service.service_stats();
    assert_eq!(
        (stats.submitted, stats.completed, stats.panicked),
        (1, 1, 0)
    );
}

#[test]
fn deadlines_are_deterministic_and_non_perturbing() {
    // An absurdly tight server-wide budget: everything misses it.
    let config = ServerConfig {
        default_deadline: Some(10),
        ..ServerConfig::default()
    };
    let input = "run id=1 app=shape scale=tiny policy=ls\n";
    let (lines, _, service) = serve_lines(config, input);
    service.drain();
    assert!(
        lines[0].starts_with("err id=1 code=deadline_exceeded"),
        "{}",
        lines[0]
    );

    // A generous per-request budget overrides the default and the
    // result is bit-identical to the unbudgeted run.
    let config = ServerConfig {
        default_deadline: Some(10),
        ..ServerConfig::default()
    };
    let input = "\
run id=1 app=shape scale=tiny policy=ls deadline=100000000\n\
run id=2 app=shape scale=tiny policy=ls deadline=100000000\n";
    let (budgeted, _, service) = serve_lines(config, input);
    service.drain();
    let (free, _, service) = serve_lines(
        ServerConfig::default(),
        "run id=1 app=shape scale=tiny policy=ls\n",
    );
    service.drain();
    assert!(budgeted[0].starts_with("ok id=1 "), "{}", budgeted[0]);
    assert_eq!(field(&budgeted[0], "makespan"), field(&free[0], "makespan"));
    // Deterministic: the same request always gets the same verdict.
    assert_eq!(
        field(&budgeted[1], "makespan"),
        field(&budgeted[0], "makespan")
    );
}

#[test]
fn overload_sheds_with_busy_and_recovers() {
    // One worker, one queue slot, and the first job stalls: a pipelined
    // flood must shed deterministically-ordered busy responses while
    // the admitted jobs still answer.
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        fault_plan: FaultPlan::parse("stall:0:300").unwrap(),
        ..ServerConfig::default()
    };
    let input: String = (1..=8)
        .map(|i| format!("run id={i} app=shape scale=tiny policy=rs\n"))
        .collect();
    let (lines, _, service) = serve_lines(config, &input);
    assert_eq!(lines.len(), 8, "{lines:?}");
    // Responses stay in request order even under shedding.
    for (i, line) in lines.iter().enumerate() {
        assert_eq!(
            field(line, "id"),
            Some(format!("{}", i + 1).as_str()),
            "{line}"
        );
    }
    let ok = lines.iter().filter(|l| l.starts_with("ok ")).count();
    let busy = lines.iter().filter(|l| l.contains("code=busy")).count();
    // The flood lands before the stalled worker frees the queue, so at
    // least the first job completes and most of the rest are shed (how
    // many squeeze in depends on thread scheduling).
    assert!(ok >= 1, "the first admitted job must finish: {lines:?}");
    assert!(
        busy >= 1,
        "flood against a 1-deep queue must shed: {lines:?}"
    );
    assert_eq!(ok + busy, 8, "{lines:?}");
    assert_eq!(service.service_stats().shed, busy as u64);
    service.drain();
    // After drain, late submissions are refused, not lost in a void.
    let pool_stats = service.service_stats();
    assert_eq!(pool_stats.completed, ok as u64);
}

#[test]
fn corrupt_ltr_replays_fail_cleanly_and_valid_ones_match_direct_runs() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("lams_serve_test_{}.ltr", std::process::id()));
    let corrupt_path = dir.join(format!("lams_serve_test_{}_bad.ltr", std::process::id()));
    let truncated_path = dir.join(format!("lams_serve_test_{}_cut.ltr", std::process::id()));

    // Record a bundle and its direct-replay reference result.
    let w = Workload::single(suite::shape(Scale::Tiny)).unwrap();
    let layout = Layout::linear(w.arrays());
    let bundle = w.record(&layout);
    let bytes = bundle.to_bytes();
    std::fs::write(&path, &bytes).unwrap();
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0xFF;
    std::fs::write(&corrupt_path, &flipped).unwrap();
    std::fs::write(&truncated_path, &bytes[..bytes.len() / 3]).unwrap();
    let direct = {
        let mut p = RandomPolicy::new(0);
        execute_bundle(
            &bundle,
            &mut p,
            EngineConfig::from(MachineConfig::paper_default()),
        )
        .unwrap()
    };

    let input = format!(
        "replay id=ok file={} policy=rs\n\
         replay id=bad file={} policy=rs\n\
         replay id=cut file={} policy=rs\n\
         replay id=gone file={}/does-not-exist.ltr policy=rs\n\
         replay id=ok2 file={} policy=rs\n",
        path.display(),
        corrupt_path.display(),
        truncated_path.display(),
        dir.display(),
        path.display(),
    );
    let (lines, _, service) = serve_lines(ServerConfig::default(), &input);
    service.drain();
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&corrupt_path).ok();
    std::fs::remove_file(&truncated_path).ok();

    assert_eq!(lines.len(), 5, "{lines:?}");
    assert!(lines[0].starts_with("ok id=ok "), "{}", lines[0]);
    assert_eq!(
        field(&lines[0], "makespan").unwrap(),
        direct.makespan_cycles.to_string(),
        "served replay drifted from direct replay"
    );
    assert!(
        lines[1].starts_with("err id=bad code=bad_trace"),
        "{}",
        lines[1]
    );
    assert!(
        lines[2].starts_with("err id=cut code=bad_trace"),
        "{}",
        lines[2]
    );
    assert!(
        lines[3].starts_with("err id=gone code=bad_request"),
        "{}",
        lines[3]
    );
    // The daemon survived every bad bundle.
    assert!(lines[4].starts_with("ok id=ok2 "), "{}", lines[4]);
}

#[test]
fn clock_overflowing_replays_fail_cleanly_and_the_connection_lives_on() {
    // A checksum-valid bundle whose compute ops cost `u64::MAX - 1`
    // cycles each: replaying it would carry a core clock past `u64::MAX`.
    let mut b = ProgramBuilder::new();
    b.push_loop(&[], 1, 1000);
    b.push_loop(&[], 1000, u64::MAX - 1);
    let bundle = TraceBundle {
        name: "overflow".into(),
        records: vec![TraceRecord {
            name: "p0".into(),
            program: b.finish(),
        }],
        edges: vec![],
    };
    let dir = std::env::temp_dir();
    let path = dir.join(format!("lams_serve_test_{}_big.ltr", std::process::id()));
    std::fs::write(&path, bundle.to_bytes()).unwrap();
    let input = format!(
        "replay id=big file={} policy=rs\n\
         replay id=big2 file={} policy=rrs deadline=1000000\n\
         ping id=after\n",
        path.display(),
        path.display(),
    );
    let (lines, _, service) = serve_lines(ServerConfig::default(), &input);
    service.drain();
    std::fs::remove_file(&path).ok();

    assert_eq!(lines.len(), 3, "{lines:?}");
    for (line, id) in lines.iter().zip(["big", "big2"]) {
        assert!(line.starts_with(&format!("err id={id} ")), "{line}");
        assert!(line.contains("overflow"), "{line}");
    }
    assert!(lines[2].starts_with("ok id=after"), "{}", lines[2]);
}

#[test]
fn seeded_fault_campaign_is_reproducible_and_survivable() {
    const JOBS: u64 = 24;
    let plan = FaultPlan::seeded(7, JOBS);
    assert_eq!(
        plan,
        FaultPlan::seeded(7, JOBS),
        "plan must be deterministic"
    );
    let panicking: Vec<u64> = (0..JOBS).filter(|&s| plan.panics_at(s)).collect();
    assert!(
        !panicking.is_empty(),
        "seed 7 over 24 jobs should panic somewhere"
    );

    // Drive the pool directly (single worker → admission order == line
    // order) and check the fault plan maps exactly onto responses.
    let pool = WorkerPool::new(
        PoolConfig {
            workers: 1,
            queue_depth: JOBS as usize,
            default_deadline: None,
            fault_plan: plan.clone(),
        },
        ArtifactCache::shared(),
    );
    let receivers: Vec<_> = (0..JOBS)
        .map(|i| {
            let line = format!("run id={i} app=shape scale=tiny policy=rs");
            let Some(lams_serve::Request::Run(req)) = lams_serve::Request::parse(&line).unwrap()
            else {
                panic!("not a run request");
            };
            pool.submit(Work::Run(req))
        })
        .collect();
    let mut ok_makespans = Vec::new();
    for (i, rx) in receivers.into_iter().enumerate() {
        let response = rx.recv().expect("every job answers");
        assert_eq!(response.id(), i.to_string());
        if plan.panics_at(i as u64) {
            assert!(!response.is_ok(), "job {i} should have panicked");
            assert!(response.to_string().contains("job_panicked"), "{response}");
        } else {
            assert!(response.is_ok(), "job {i} should succeed: {response}");
            if let lams_serve::Response::Ok { fields, .. } = &response {
                let m = fields.iter().find(|(k, _)| *k == "makespan").unwrap();
                ok_makespans.push(m.1.clone());
            }
        }
    }
    assert!(ok_makespans.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(pool.service_stats().panicked, panicking.len() as u64);
    pool.drain();
}

#[test]
fn bounded_service_cache_evicts_and_stays_correct() {
    // A capacity-2 cache behind the service: distinct scenarios churn
    // it, repeats still answer identically to a cold server.
    let config = ServerConfig {
        cache_capacity: Some(2),
        ..ServerConfig::default()
    };
    let apps = ["shape", "track", "usonic"];
    let mut input = String::new();
    for round in 0..2 {
        for (i, app) in apps.iter().enumerate() {
            input.push_str(&format!(
                "run id={round}-{i} app={app} scale=tiny policy=ls\n"
            ));
        }
    }
    input.push_str("stats id=end\n");
    let (lines, _, service) = serve_lines(config, &input);
    service.drain();
    assert_eq!(lines.len(), 7, "{lines:?}");
    // Round 2 answers equal round 1 answers app-for-app.
    for i in 0..3 {
        assert_eq!(
            field(&lines[i], "makespan"),
            field(&lines[i + 3], "makespan"),
            "{} vs {}",
            lines[i],
            lines[i + 3]
        );
    }
    let stats = &lines[6];
    let occupancy: u64 = field(stats, "occupancy").unwrap().parse().unwrap();
    let evictions: u64 = field(stats, "evictions").unwrap().parse().unwrap();
    assert!(occupancy <= 2, "{stats}");
    assert!(
        evictions > 0,
        "three apps through two slots must evict: {stats}"
    );
    assert_eq!(field(stats, "capacity"), Some("2"), "{stats}");
    // The `stats` wire format after `ok id=end`: clients and the repo
    // benchmark read these 16 keys, in this order.
    let keys: Vec<&str> = stats
        .split_ascii_whitespace()
        .skip(2)
        .filter_map(|tok| tok.split_once('=').map(|(k, _)| k))
        .collect();
    assert_eq!(
        keys,
        [
            "hits",
            "misses",
            "hit_rate",
            "program_hits",
            "program_misses",
            "per_process_hits",
            "per_process_misses",
            "pilot_hits",
            "pilot_misses",
            "occupancy",
            "capacity",
            "evictions",
            "submitted",
            "completed",
            "shed",
            "panicked",
        ],
        "{stats}"
    );
}

#[test]
fn shared_cache_is_one_instance_across_connections() {
    // Two TCP connections, same scenario: the second connection's
    // request must be served from the cache the first one filled.
    let server = TcpServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");

    let ask_once = |line: &str| -> String {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        writeln!(writer, "{line}").expect("write");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read");
        resp.trim_end().to_string()
    };

    let a = ask_once("run id=1 app=track scale=tiny policy=lsm");
    let b = ask_once("run id=2 app=track scale=tiny policy=lsm");
    assert!(a.starts_with("ok "), "{a}");
    assert_eq!(field(&a, "makespan"), field(&b, "makespan"));
    let stats = ask_once("stats id=3");
    let hits: u64 = field(&stats, "hits").unwrap().parse().unwrap();
    assert!(hits > 0, "cross-connection reuse must hit: {stats}");
    let bye = ask_once("shutdown id=4");
    assert_eq!(bye, "ok id=4 draining=1");
    handle.wait().expect("accept loop exits");
}
