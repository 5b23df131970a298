//! The two serve workloads: an in-process `lams-serve` daemon on a
//! loopback port, driven by a well-behaved client.
//!
//! The client sets `TCP_NODELAY`, sends each request with one
//! `write_all` and reads the answer with a buffered `read_line`, so a
//! stall it measures is the server's.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lams_core::{ArtifactCache, PolicyKind, RunResult};
use lams_layout::Layout;
use lams_serve::{
    execute_work, PoolConfig, Request, ServerConfig, Service, TcpServer, TcpServerHandle, Work,
    WorkerPool,
};
use lams_trace::TraceBundle;
use lams_workloads::Workload;

use crate::check::Outcome;
use crate::jobs::suite_app;
use crate::layers::{self, Counts};
use crate::requests::{round_order, Scenario, RECORDED};
use crate::spans::Recorder;
use crate::{Rep, Shape};

/// How the client drives the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Closed loop: this many connections, one request outstanding on
    /// each.
    Closed {
        /// Client connections.
        connections: usize,
    },
    /// One connection with up to `window` requests outstanding.
    Pipelined {
        /// Outstanding-request window (below the daemon's queue depth,
        /// so nothing is shed).
        window: usize,
    },
}

/// One client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let writer = TcpStream::connect(addr).expect("daemon accepts connections");
        writer.set_nodelay(true).expect("TCP_NODELAY");
        let reader = BufReader::new(writer.try_clone().expect("socket clones"));
        Conn { writer, reader }
    }

    fn send(&mut self, line: &str) {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        self.writer
            .write_all(buf.as_bytes())
            .expect("request written");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("response read");
        line
    }
}

/// What one response line said.
enum Answer {
    Ok(Outcome),
    Busy,
    Failed,
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_ascii_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

fn parse_answer(line: &str) -> Answer {
    if line.starts_with("ok ") {
        let num = |key| field(line, key).and_then(|v| v.parse().ok());
        match (num("makespan"), num("cache_hits"), num("cache_misses")) {
            (Some(makespan), Some(hits), Some(misses)) => Answer::Ok(Outcome {
                makespan,
                hits,
                misses,
            }),
            _ => Answer::Failed,
        }
    } else if field(line, "code") == Some("busy") {
        Answer::Busy
    } else {
        Answer::Failed
    }
}

/// A serve workload with its daemon running.
pub struct Serve {
    set: Vec<Scenario>,
    seed: u64,
    load: Load,
    config: ServerConfig,
    ltr_dir: PathBuf,
    /// What the library computes for each scenario.
    expected: Vec<RunResult>,
    shape: Shape,
    conns: Vec<Conn>,
    daemon: Option<TcpServerHandle>,
    round: usize,
}

impl Serve {
    /// Records the `.ltr` bundles into `ltr_dir`, computes the expected
    /// answers with the library, starts the daemon and connects.
    pub fn start(
        set: Vec<Scenario>,
        seed: u64,
        load: Load,
        config: ServerConfig,
        ltr_dir: &Path,
    ) -> Serve {
        std::fs::create_dir_all(ltr_dir).expect("temp .ltr dir is creatable");
        let memo = ArtifactCache::shared();
        let mut expected = Vec::with_capacity(set.len());
        let mut shape = Shape {
            jobs: set.len(),
            ..Shape::default()
        };
        for s in &set {
            let exp = s.experiment().with_memo(Arc::clone(&memo));
            shape.sim_ops += exp.workload().total_trace_ops();
            expected.push(exp.run(s.policy()).expect("scenario runs in the library"));
        }
        if set.iter().any(|s| matches!(s, Scenario::Replay { .. })) {
            for (file, &(app, scale)) in RECORDED.iter().enumerate() {
                let workload = Workload::single(suite_app(app, scale)).expect("valid suite app");
                workload
                    .record(&Layout::linear(workload.arrays()))
                    .write_file(ltr_dir.join(format!("{file}.ltr")))
                    .expect("bundle written");
            }
        }
        let keys: Vec<_> = set.iter().map(|s| (s.policy(), s.inputs())).collect();
        shape.pair_up(&keys);
        let daemon = TcpServer::bind("127.0.0.1:0", config.clone())
            .expect("loopback port binds")
            .spawn()
            .expect("daemon starts");
        let connections = match load {
            Load::Closed { connections } => connections,
            Load::Pipelined { .. } => 1,
        };
        let conns = (0..connections)
            .map(|_| Conn::open(daemon.addr()))
            .collect();
        Serve {
            set,
            seed,
            load,
            config,
            ltr_dir: ltr_dir.to_path_buf(),
            expected,
            shape,
            conns,
            daemon: Some(daemon),
            round: 0,
        }
    }

    /// Static facts about the request set.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// What the library computes for each scenario, in scenario order.
    pub fn expected(&self) -> &[RunResult] {
        &self.expected
    }

    /// The scenario set.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.set
    }

    fn ltr_dir(&self) -> &str {
        self.ltr_dir.to_str().expect("utf-8 temp path")
    }

    /// The request lines of the next round, in sending order, each with
    /// the scenario it asks.
    fn next_round(&mut self) -> Vec<(usize, String)> {
        let round = self.round;
        self.round += 1;
        round_order(self.seed, round, self.set.len())
            .into_iter()
            .map(|i| {
                let line = self.set[i].line(&format!("{round}.{i}"), self.ltr_dir());
                (i, line)
            })
            .collect()
    }

    /// One round: every scenario asked once. Outcomes come back in
    /// scenario order whatever order they were asked in.
    pub fn run(&mut self) -> Rep {
        let lines = self.next_round();
        let start = Instant::now();
        let answers: Vec<(usize, String, f64)> = match self.load {
            Load::Closed { .. } => closed_round(&mut self.conns, &lines),
            Load::Pipelined { window } => pipelined_round(&mut self.conns[0], &lines, window),
        };
        let wall_s = start.elapsed().as_secs_f64();
        let mut rep = self.empty_rep();
        rep.wall_s = wall_s;
        for (scenario, line, ms) in answers {
            self.record(&mut rep, scenario, &line, ms);
        }
        rep
    }

    fn empty_rep(&self) -> Rep {
        Rep {
            wall_s: 0.0,
            outcomes: vec![None; self.set.len()],
            refused: 0,
            latencies_ms: vec![0.0; self.set.len()],
            extra: 0,
        }
    }

    /// Files one answer under its scenario. A wrong answer is a failed
    /// request, not a result.
    fn record(&self, rep: &mut Rep, scenario: usize, answer: &str, ms: f64) {
        rep.latencies_ms[scenario] = ms;
        match parse_answer(answer) {
            Answer::Ok(o) if o == Outcome::from(&self.expected[scenario]) => {
                rep.outcomes[scenario] = Some(o);
            }
            Answer::Ok(_) | Answer::Failed => {}
            Answer::Busy => rep.refused += 1,
        }
    }

    /// The daemon's `stats` line as `(key, value)` pairs.
    pub fn stats(&mut self) -> Vec<(String, f64)> {
        let conn = &mut self.conns[0];
        conn.send("stats id=stats");
        conn.recv()
            .split_ascii_whitespace()
            .filter_map(|tok| {
                let (k, v) = tok.split_once('=')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect()
    }

    /// Asks the daemon to drain, waits for it, and removes the recorded
    /// bundles.
    pub fn stop(mut self) {
        self.shutdown().expect("daemon drains cleanly");
    }

    fn shutdown(&mut self) -> std::io::Result<()> {
        let Some(daemon) = self.daemon.take() else {
            return Ok(());
        };
        let mut bye = TcpStream::connect(daemon.addr())?;
        bye.write_all(b"shutdown id=bye\n")?;
        // The daemon stops accepting only once this answer is written.
        BufReader::new(&bye).read_line(&mut String::new())?;
        // Connection threads end at EOF; the accept loop joins them.
        self.conns.clear();
        drop(bye);
        let _ = std::fs::remove_dir_all(&self.ltr_dir);
        daemon.wait()
    }
}

impl Drop for Serve {
    /// A run that panics still stops its daemon; errors are ignored
    /// here and reported by [`Serve::stop`].
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Closed loop: each connection takes the next unasked request when its
/// previous one is answered.
fn closed_round(conns: &mut [Conn], lines: &[(usize, String)]) -> Vec<(usize, String, f64)> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let clients: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                scope.spawn(|| {
                    let mut answers = Vec::new();
                    while let Some((scenario, line)) =
                        lines.get(next.fetch_add(1, Ordering::Relaxed))
                    {
                        let t = Instant::now();
                        conn.send(line);
                        let answer = conn.recv();
                        answers.push((*scenario, answer, t.elapsed().as_secs_f64() * 1e3));
                    }
                    answers
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread does not panic"))
            .collect()
    })
}

/// Pipelined: keep `window` requests outstanding; the daemon answers in
/// request order.
fn pipelined_round(
    conn: &mut Conn,
    lines: &[(usize, String)],
    window: usize,
) -> Vec<(usize, String, f64)> {
    let mut sent_at = std::collections::VecDeque::with_capacity(window);
    let mut answers = Vec::with_capacity(lines.len());
    let mut next = 0;
    while answers.len() < lines.len() {
        while next < lines.len() && sent_at.len() < window {
            sent_at.push_back(Instant::now());
            conn.send(&lines[next].1);
            next += 1;
        }
        let answer = conn.recv();
        let t = sent_at.pop_front().expect("a request is outstanding");
        let scenario = lines[answers.len()].0;
        answers.push((scenario, answer, t.elapsed().as_secs_f64() * 1e3));
    }
    answers
}

/// What the traced walk of one round produced.
pub struct TracedServe {
    /// The checked part: one request at a time over one connection.
    pub rep: Rep,
    /// `Request::parse` time per request, ns.
    pub parse_ns: Vec<f64>,
    /// `Response` formatting time per request, ns.
    pub format_ns: Vec<f64>,
    /// `execute_work` time per request, ms.
    pub execute_ms: Vec<f64>,
    /// `WorkerPool` submit-to-receive time minus execute, µs.
    pub handoff_us: Vec<f64>,
    /// `Service::serve` over in-memory streams per request, ms.
    pub inmem_ms: Vec<f64>,
    /// TCP latency minus parse, execute and format, ms.
    pub socket_ms: Vec<f64>,
    /// Bytes of `.ltr` bundles decoded.
    pub ltr_bytes: u64,
    /// Per engine request: nominal trace ops, ns, and whether it ran
    /// under the bus model.
    pub engine: Vec<(u64, u64, bool)>,
}

impl Serve {
    /// Sends one round over a single connection, one request at a time,
    /// and after each answer replays the stages the daemon went through
    /// in-process: the line loop over in-memory streams, parse, pool
    /// hand-off, execute (with the layers below it) and format — each
    /// against a cache warmed the same way as the daemon's.
    pub fn walk(&mut self, rec: &mut Recorder, counts: &mut Counts) -> TracedServe {
        let lines = self.next_round();
        // In-process stand-ins for the daemon's stages. Each gets a
        // cache of its own, fed the same request sequence as the
        // daemon's, so a bounded cache evicts for every stand-in as it
        // does for the daemon instead of finding what the previous
        // stand-in just computed.
        let new_cache = || match self.config.cache_capacity {
            Some(cap) => Arc::new(ArtifactCache::bounded(cap, self.config.eviction)),
            None => ArtifactCache::shared(),
        };
        let service = Service::new(self.config.clone());
        let pool = WorkerPool::new(PoolConfig::default(), new_cache());
        let (cache, engine_cache) = (new_cache(), new_cache());
        for (scenario, line) in &lines {
            serve_in_memory(&service, line);
            let work = parse_work(line).expect("generated requests parse");
            let _ = pool.submit(work.clone()).recv();
            execute_work(&work, None, &cache);
            if let Scenario::Run { .. } = self.set[*scenario] {
                let exp = self.set[*scenario]
                    .experiment()
                    .with_memo(Arc::clone(&engine_cache));
                let _ = exp.run(self.set[*scenario].policy());
            }
        }

        let mut out = TracedServe {
            rep: self.empty_rep(),
            parse_ns: Vec::new(),
            format_ns: Vec::new(),
            execute_ms: Vec::new(),
            handoff_us: Vec::new(),
            inmem_ms: Vec::new(),
            socket_ms: Vec::new(),
            ltr_bytes: 0,
            engine: Vec::new(),
        };
        let start = Instant::now();
        for (scenario, line) in &lines {
            let id = *scenario;
            let (root, answer) = rec.span("serve.request", id, None, |_, _| {
                self.conns[0].send(line);
                self.conns[0].recv()
            });
            let tcp_ns = rec.duration_ns(root) as f64;
            self.record(&mut out.rep, id, &answer, tcp_ns / 1e6);

            let (inmem, ()) = rec.replay("serve.server.inmem", id, root, || {
                serve_in_memory(&service, line);
            });
            let (parse, work) = rec.replay("serve.protocol.parse", id, inmem, || parse_work(line));
            let work = work.expect("generated requests parse");
            let (roundtrip, _) = rec.replay("serve.pool.roundtrip", id, inmem, || {
                pool.submit(work.clone())
                    .recv()
                    .expect("pool answers every job")
            });
            let (execute, response) = rec.replay("serve.pool.execute", id, roundtrip, || {
                execute_work(&work, None, &cache)
            });
            let (format, text) =
                rec.replay("serve.protocol.format", id, inmem, || response.to_string());
            std::hint::black_box(text);
            self.replay_execute(rec, id, execute, &engine_cache, counts, &mut out);

            let ns = |span| rec.duration_ns(span) as f64;
            out.inmem_ms.push(ns(inmem) / 1e6);
            out.parse_ns.push(ns(parse));
            out.format_ns.push(ns(format));
            out.execute_ms.push(ns(execute) / 1e6);
            out.handoff_us
                .push((ns(roundtrip) - ns(execute)).max(0.0) / 1e3);
            out.socket_ms
                .push((tcp_ns - ns(parse) - ns(execute) - ns(format)).max(0.0) / 1e6);
        }
        out.rep.wall_s = start.elapsed().as_secs_f64();
        pool.drain();
        service.drain();
        out
    }

    /// The layers below `execute_work` for one scenario, replayed as
    /// children of its `execute` span.
    fn replay_execute(
        &self,
        rec: &mut Recorder,
        id: usize,
        execute: usize,
        cache: &Arc<ArtifactCache>,
        counts: &mut Counts,
        out: &mut TracedServe,
    ) {
        let scenario = self.set[id];
        if let Scenario::Replay { file, .. } = scenario {
            let bytes = std::fs::read(self.ltr_dir.join(format!("{file}.ltr")))
                .expect("recorded bundle is readable");
            out.ltr_bytes += bytes.len() as u64;
            rec.replay("trace.ltr_decode", id, execute, || {
                std::hint::black_box(TraceBundle::from_bytes(&bytes).expect("bundle decodes"));
            });
            return;
        }
        // `execute_run` rebuilds the workload on every request.
        let (app, _) = scenario.app();
        let (build, ()) = rec.replay("workloads.build", id, execute, || {
            std::hint::black_box(Workload::single(app.clone()).expect("valid suite app"));
        });
        layers::replay_build(rec, id, build, &[app], counts);
        // The run itself, against the cache in the state the earlier
        // requests left it in.
        let exp = scenario.experiment().with_memo(Arc::clone(cache));
        let policy = scenario.policy();
        let on_bus = matches!(scenario, Scenario::Run { bus: true, .. });
        if policy == PolicyKind::LocalityMap {
            let (run, artifacts) = rec.replay("core.lsm", id, execute, || {
                exp.run_lsm().expect("scenario runs").1
            });
            counts.remapped_arrays += artifacts.assignment.len() as u64;
            layers::replay_lsm_layout(rec, id, run, &exp, &artifacts, None);
            return;
        }
        let before = cache.stats().misses();
        let (run, ()) = rec.replay("core.engine", id, execute, || {
            std::hint::black_box(exp.run(policy).expect("scenario runs"));
        });
        out.engine.push((
            exp.workload().total_trace_ops(),
            rec.duration_ns(run),
            on_bus,
        ));
        // An evicted artifact was recomputed inside the run.
        let recomputed = cache.stats().misses() > before;
        let programs = if recomputed {
            layers::replay_compile(rec, id, run, exp.workload(), counts)
        } else {
            exp.workload()
                .compile_traces(&Layout::linear(exp.workload().arrays()))
        };
        // A warm LS request is answered from the memo without simulating.
        if policy != PolicyKind::Locality || recomputed {
            layers::replay_machine(rec, id, run, exp.machine(), &programs, counts);
        }
    }
}

fn parse_work(line: &str) -> Option<Work> {
    match Request::parse(line) {
        Ok(Some(Request::Run(r))) => Some(Work::Run(r)),
        Ok(Some(Request::Replay(r))) => Some(Work::Replay(r)),
        _ => None,
    }
}

/// One request through `Service::serve` with in-memory streams.
fn serve_in_memory(service: &Service, line: &str) {
    let input = format!("{line}\n");
    let mut output = Vec::new();
    service
        .serve(&mut BufReader::new(input.as_bytes()), &mut output)
        .expect("in-memory streams do not fail");
    std::hint::black_box(output);
}
