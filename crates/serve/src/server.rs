//! Transports: the line-loop shared by stdin/stdout and TCP serving.
//!
//! One [`Service`] owns the worker pool and the shared
//! [`ArtifactCache`]; any number of line streams can be served against
//! it concurrently (each TCP connection gets its own thread, the pool
//! multiplexes the actual simulation work). Requests on a stream are
//! **pipelined**: simulation requests are admitted as they are read,
//! and a dedicated writer thread emits responses strictly in request
//! order, each as soon as it is ready — a synchronous client gets its
//! answer promptly, and a client that floods requests without reading
//! drives the busy-shedding path. Each response is one whole line in
//! one `write`, and accepted TCP connections run with `TCP_NODELAY`
//! (`docs/service-protocol.md`, "Transport").

use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

use lams_core::{ArtifactCache, EvictionPolicy};

use crate::fault::FaultPlan;
use crate::pool::{PoolConfig, ServiceStats, Work, WorkerPool};
use crate::protocol::{ErrorCode, Request, Response, MAX_LINE_BYTES, NO_ID};

/// Everything the daemon can be configured with.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads.
    pub workers: usize,
    /// Bounded admission-queue depth.
    pub queue_depth: usize,
    /// Artifact-cache capacity in entries; `None` is unbounded.
    pub cache_capacity: Option<usize>,
    /// Selects nothing: [`EvictionPolicy`] has one variant (SIEVE).
    /// The field stays only because the frozen repo benchmark passes
    /// `config.eviction` to [`ArtifactCache::bounded`].
    pub eviction: EvictionPolicy,
    /// Simulated-cycle budget applied to requests that carry none.
    pub default_deadline: Option<u64>,
    /// Injected faults (empty in production).
    pub fault_plan: FaultPlan,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_depth: 16,
            cache_capacity: None,
            eviction: EvictionPolicy::default(),
            default_deadline: None,
            fault_plan: FaultPlan::none(),
        }
    }
}

/// The transport-independent daemon core: pool + cache + line loop.
pub struct Service {
    pool: WorkerPool,
}

/// What ended a [`Service::serve`] loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// The input stream reached EOF.
    Eof,
    /// A `shutdown` request was served.
    Shutdown,
}

impl Service {
    /// Builds the cache and spawns the pool per `config`.
    pub fn new(config: ServerConfig) -> Self {
        let cache = match config.cache_capacity {
            Some(cap) => Arc::new(ArtifactCache::bounded(cap, config.eviction)),
            None => ArtifactCache::shared(),
        };
        let pool = WorkerPool::new(
            PoolConfig {
                workers: config.workers,
                queue_depth: config.queue_depth,
                default_deadline: config.default_deadline,
                fault_plan: config.fault_plan,
            },
            cache,
        );
        Service { pool }
    }

    /// The shared artifact cache (for stats and benchmarks).
    pub fn cache(&self) -> &Arc<ArtifactCache> {
        self.pool.cache()
    }

    /// Service-level counters.
    pub fn service_stats(&self) -> ServiceStats {
        self.pool.service_stats()
    }

    /// Graceful drain (idempotent): finish admitted jobs, join workers.
    pub fn drain(&self) {
        self.pool.drain();
    }

    /// The `stats` response payload.
    fn stats_response(&self, id: &str) -> Response {
        let memo = self.cache().stats();
        let svc = self.pool.service_stats();
        Response::ok(
            id,
            vec![
                ("hits", memo.hits().to_string()),
                ("misses", memo.misses().to_string()),
                ("hit_rate", format!("{:.4}", memo.hit_rate())),
                ("program_hits", memo.program_hits.to_string()),
                ("program_misses", memo.program_misses.to_string()),
                ("per_process_hits", memo.per_process_hits.to_string()),
                ("per_process_misses", memo.per_process_misses.to_string()),
                ("pilot_hits", memo.pilot_hits.to_string()),
                ("pilot_misses", memo.pilot_misses.to_string()),
                ("occupancy", memo.occupancy_entries.to_string()),
                (
                    "capacity",
                    memo.capacity_entries
                        .map_or("unbounded".to_string(), |c| c.to_string()),
                ),
                ("evictions", memo.evictions.to_string()),
                ("submitted", svc.submitted.to_string()),
                ("completed", svc.completed.to_string()),
                ("shed", svc.shed.to_string()),
                ("panicked", svc.panicked.to_string()),
            ],
        )
    }

    /// Serves one line stream until EOF or a `shutdown` request.
    ///
    /// Requests are pipelined: simulation requests are admitted to the
    /// pool as they are read, while a scoped writer thread emits
    /// responses strictly in request order, each as soon as it is
    /// ready. `stats` is a barrier: its payload is computed only after
    /// every earlier response on the stream has been written, so the
    /// counters it reports cover all preceding requests.
    ///
    /// # Errors
    ///
    /// Propagates transport I/O errors (a closed connection mid-write
    /// is an `Err`, not a panic).
    pub fn serve<R, W>(&self, reader: &mut R, writer: &mut W) -> io::Result<Exit>
    where
        R: BufRead,
        W: Write + Send,
    {
        let (tx, rx) = std::sync::mpsc::channel::<Slot>();
        std::thread::scope(|scope| {
            let writer_thread = scope.spawn(move || -> io::Result<()> {
                // One buffer, one `write_all` per response line: a line
                // handed to a socket in fragments costs a syscall and a
                // segment per fragment, and the second small segment
                // waits out the peer's delayed ACK.
                let mut line = String::new();
                for slot in rx {
                    let response = match slot {
                        Slot::Ready(response) => response,
                        Slot::Job(job) => job.recv().unwrap_or_else(|_| {
                            // Worker vanished without answering (cannot
                            // happen — responses are sent even for
                            // panicking jobs — but a daemon must not
                            // hang on the impossible).
                            Response::err(
                                NO_ID,
                                ErrorCode::Internal,
                                "job dropped without response",
                            )
                        }),
                        // Reaching this slot means every earlier
                        // response was written, so every earlier job
                        // has completed: the counters are settled.
                        Slot::Stats { id } => self.stats_response(&id),
                    };
                    line.clear();
                    // Formatting into a `String` cannot fail.
                    let _ = writeln!(line, "{response}");
                    writer.write_all(line.as_bytes())?;
                    writer.flush()?;
                }
                Ok(())
            });
            let read_result = self.read_loop(reader, &tx);
            drop(tx);
            let write_result = writer_thread
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("response writer panicked")));
            let exit = read_result?;
            write_result?;
            Ok(exit)
        })
    }

    /// Reads and admits requests, handing ordered response slots to the
    /// writer thread.
    fn read_loop<R: BufRead>(&self, reader: &mut R, tx: &Sender<Slot>) -> io::Result<Exit> {
        loop {
            let slot = match read_line_bounded(reader, MAX_LINE_BYTES)? {
                None => return Ok(Exit::Eof),
                Some(Line::Oversized) => Slot::Ready(Response::err(
                    NO_ID,
                    ErrorCode::Oversized,
                    format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                )),
                Some(Line::Text(line)) => match Request::parse(&line) {
                    Err(e) => Slot::Ready(e.response()),
                    Ok(None) => continue,
                    Ok(Some(Request::Run(r))) => Slot::Job(self.pool.submit(Work::Run(r))),
                    Ok(Some(Request::Replay(r))) => Slot::Job(self.pool.submit(Work::Replay(r))),
                    Ok(Some(Request::Ping { id })) => {
                        Slot::Ready(Response::ok(&id, vec![("pong", "1".into())]))
                    }
                    Ok(Some(Request::Stats { id })) => Slot::Stats { id },
                    Ok(Some(Request::Shutdown { id })) => {
                        let _ = tx.send(Slot::Ready(Response::ok(
                            &id,
                            vec![("draining", "1".into())],
                        )));
                        return Ok(Exit::Shutdown);
                    }
                },
            };
            if tx.send(slot).is_err() {
                // The writer died: the connection was torn down
                // mid-write. Stop reading; the I/O error surfaces from
                // the writer thread's join.
                return Ok(Exit::Eof);
            }
        }
    }
}

/// One ordered response slot handed to the writer thread: already
/// resolved, a pool job still running, or a stats barrier whose payload
/// is computed only once every earlier slot has been written.
enum Slot {
    Ready(Response),
    Job(Receiver<Response>),
    Stats { id: String },
}

enum Line {
    Text(String),
    Oversized,
}

/// Reads one `\n`-terminated line of at most `limit` bytes. Longer
/// lines are consumed to their end **without buffering them whole** and
/// reported as [`Line::Oversized`]; EOF before any byte yields `None`.
fn read_line_bounded<R: BufRead>(reader: &mut R, limit: usize) -> io::Result<Option<Line>> {
    // The window is limit + 2 so a line of exactly `limit` content
    // bytes still fits with its `\r\n` terminator.
    let mut buf = Vec::new();
    let n = (&mut *reader)
        .take(limit as u64 + 2)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        if buf.len() > limit {
            return Ok(Some(Line::Oversized));
        }
    } else if buf.len() > limit {
        // No terminator inside the window: skip the rest of the
        // oversized line, chunk by chunk, never holding it whole.
        loop {
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                break;
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    reader.consume(i + 1);
                    break;
                }
                None => {
                    let len = chunk.len();
                    reader.consume(len);
                }
            }
        }
        return Ok(Some(Line::Oversized));
    }
    Ok(Some(Line::Text(String::from_utf8_lossy(&buf).into_owned())))
}

/// Serves stdin/stdout until EOF or `shutdown`, then drains.
///
/// # Errors
///
/// Propagates I/O errors from the standard streams.
pub fn serve_stdio(config: ServerConfig) -> io::Result<()> {
    let service = Service::new(config);
    let stdin = io::stdin();
    let mut reader = stdin.lock();
    // `Stdout` (not the lock guard) so the writer thread can own writes.
    let mut writer = io::stdout();
    let _ = service.serve(&mut reader, &mut writer)?;
    service.drain();
    Ok(())
}

/// A TCP front-end over one shared [`Service`].
pub struct TcpServer {
    listener: TcpListener,
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
}

impl TcpServer {
    /// Binds `addr` (use port 0 for an ephemeral test port).
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn bind(addr: &str, config: ServerConfig) -> io::Result<TcpServer> {
        Ok(TcpServer {
            listener: TcpListener::bind(addr)?,
            service: Arc::new(Service::new(config)),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts connections until a `shutdown` request arrives on any of
    /// them, joining finished connection threads on each accept, then
    /// joins the live ones and drains the pool.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop errors (per-connection I/O errors only
    /// end that connection).
    pub fn run(self) -> io::Result<()> {
        let addr = self.local_addr()?;
        let mut conns = Vec::new();
        for stream in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            let service = Arc::clone(&self.service);
            let stop = Arc::clone(&self.stop);
            let handle = std::thread::spawn(move || {
                if handle_connection(&service, stream) == Some(Exit::Shutdown) {
                    stop.store(true, Ordering::SeqCst);
                    // Unblock the accept loop so it can observe the flag.
                    let _ = TcpStream::connect(addr);
                }
            });
            reap(&mut conns);
            conns.push(handle);
        }
        for h in conns {
            let _ = h.join();
        }
        self.service.drain();
        Ok(())
    }

    /// Runs the accept loop on a background thread (for tests and the
    /// in-process benchmark). The handle joins on [`TcpServerHandle::wait`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors resolving the bound address.
    pub fn spawn(self) -> io::Result<TcpServerHandle> {
        let addr = self.local_addr()?;
        let thread = std::thread::spawn(move || self.run());
        Ok(TcpServerHandle { addr, thread })
    }
}

/// Joins the finished threads in `conns` and keeps the live ones.
fn reap<T>(conns: &mut Vec<std::thread::JoinHandle<T>>) {
    for h in conns.extract_if(.., |h| h.is_finished()) {
        let _ = h.join();
    }
}

fn handle_connection(service: &Service, stream: TcpStream) -> Option<Exit> {
    // Responses are whole lines written once each; Nagle would only
    // hold back-to-back pipelined responses for the peer's ACK. A
    // socket that refuses the option still serves, just slower.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return None,
    };
    let mut reader = BufReader::new(stream);
    service.serve(&mut reader, &mut writer).ok()
}

/// A running background [`TcpServer`].
pub struct TcpServerHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<io::Result<()>>,
}

impl TcpServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the accept loop to finish (after a `shutdown` request
    /// was served on some connection).
    ///
    /// # Errors
    ///
    /// Propagates the accept loop's I/O error, if any.
    pub fn wait(self) -> io::Result<()> {
        self.thread
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("server accept loop panicked")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reap_joins_finished_connections_and_keeps_live_ones() {
        let (release, wait) = std::sync::mpsc::channel::<()>();
        let live = std::thread::spawn(move || wait.recv().is_ok());
        let done: Vec<_> = (0..3).map(|_| std::thread::spawn(|| true)).collect();
        while !done.iter().all(std::thread::JoinHandle::is_finished) {
            std::thread::yield_now();
        }
        let mut conns: Vec<_> = done.into_iter().chain([live]).collect();
        reap(&mut conns);
        assert_eq!(conns.len(), 1, "the finished threads are joined");
        assert!(!conns[0].is_finished(), "the live thread is kept");
        // A reap with nothing finished keeps everything.
        reap(&mut conns);
        assert_eq!(conns.len(), 1);
        release.send(()).unwrap();
        assert!(conns.pop().unwrap().join().unwrap());
    }

    #[test]
    fn bounded_reader_caps_lines_without_buffering_them() {
        let long = format!("run id=1 {}\nping id=2\n", "x".repeat(MAX_LINE_BYTES * 4));
        let mut reader = io::BufReader::new(long.as_bytes());
        match read_line_bounded(&mut reader, MAX_LINE_BYTES).unwrap() {
            Some(Line::Oversized) => {}
            _ => panic!("expected oversized"),
        }
        // The next line is intact.
        match read_line_bounded(&mut reader, MAX_LINE_BYTES).unwrap() {
            Some(Line::Text(t)) => assert_eq!(t, "ping id=2"),
            _ => panic!("expected text"),
        }
        assert!(read_line_bounded(&mut reader, MAX_LINE_BYTES)
            .unwrap()
            .is_none());
    }

    #[test]
    fn exact_limit_lines_pass_and_crlf_is_stripped() {
        let payload = "y".repeat(MAX_LINE_BYTES);
        let data = format!("{payload}\r\n");
        let mut reader = io::BufReader::new(data.as_bytes());
        match read_line_bounded(&mut reader, MAX_LINE_BYTES).unwrap() {
            Some(Line::Text(t)) => assert_eq!(t, payload),
            _ => panic!("expected text at exactly the limit"),
        }
    }
}
