//! The persistent worker pool: bounded admission, panic isolation, and
//! graceful drain.
//!
//! Scenario requests are enqueued by [`WorkerPool::submit`] into a
//! **bounded** queue; when the queue is full the request is shed
//! immediately with [`ErrorCode::Busy`] instead of buffering without
//! limit — under overload the server answers fast-and-honest rather
//! than slow-and-doomed. A fixed set of worker threads (spawned once,
//! reused for the life of the pool) drains the queue; every job runs
//! under `catch_unwind`, so a panicking job answers its own request
//! with [`ErrorCode::JobPanicked`] while the worker, its siblings, and
//! the shared [`ArtifactCache`] all survive. All pool mutexes recover
//! poisoning: a panic between lock and unlock (only possible inside
//! the injected-fault window, since queue critical sections are single
//! operations) must not wedge the daemon.
//!
//! [`WorkerPool::drain`] is the graceful path: already-admitted jobs
//! finish and answer, new submissions are refused with
//! [`ErrorCode::ShuttingDown`], and the call returns once every worker
//! has exited.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use lams_core::sweep::panic_message;
use lams_core::{ArtifactCache, Scenario, Source};

use crate::fault::FaultPlan;
use crate::protocol::{ErrorCode, Response, ScenarioRequest};

/// A unit of pool work (the subset of requests that simulate). Both
/// verbs carry one scenario and run the same way; the verb only names
/// the source.
#[derive(Debug, Clone, PartialEq)]
pub enum Work {
    /// A `run` request.
    Run(ScenarioRequest),
    /// A `replay` request.
    Replay(ScenarioRequest),
}

impl Work {
    fn request(&self) -> &ScenarioRequest {
        let (Work::Run(r) | Work::Replay(r)) = self;
        r
    }

    fn id(&self) -> &str {
        &self.request().id
    }
}

/// Pool sizing and hardening knobs.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads (at least 1).
    pub workers: usize,
    /// Maximum queued-but-unstarted jobs before submissions shed with
    /// `busy`.
    pub queue_depth: usize,
    /// Simulated-cycle budget applied to requests that carry none.
    pub default_deadline: Option<u64>,
    /// Injected faults (empty in production).
    pub fault_plan: FaultPlan,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 2,
            queue_depth: 16,
            default_deadline: None,
            fault_plan: FaultPlan::none(),
        }
    }
}

/// Service-level counters (monotonic; see [`WorkerPool::service_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs fully executed (including ones that answered with an
    /// error).
    pub completed: u64,
    /// Submissions refused with `busy`.
    pub shed: u64,
    /// Jobs that panicked and were isolated.
    pub panicked: u64,
}

struct Job {
    seq: u64,
    work: Work,
    tx: Sender<Response>,
}

#[derive(Default)]
struct QueueState {
    queue: std::collections::VecDeque<Job>,
    draining: bool,
}

struct Inner {
    state: Mutex<QueueState>,
    work_ready: Condvar,
    cache: Arc<ArtifactCache>,
    config: PoolConfig,
    submitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    panicked: AtomicU64,
}

fn lock_state(inner: &Inner) -> std::sync::MutexGuard<'_, QueueState> {
    inner.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The persistent worker pool (see the module docs).
pub struct WorkerPool {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawns `config.workers` threads sharing `cache`.
    pub fn new(config: PoolConfig, cache: Arc<ArtifactCache>) -> Self {
        let inner = Arc::new(Inner {
            state: Mutex::new(QueueState::default()),
            work_ready: Condvar::new(),
            cache,
            config: config.clone(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        WorkerPool {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// The shared artifact cache.
    pub fn cache(&self) -> &Arc<ArtifactCache> {
        &self.inner.cache
    }

    /// Enqueues `work`; the response arrives on the returned channel.
    /// Shedding (`busy`) and refusal during drain (`shutting_down`) are
    /// *also* delivered through the channel, so callers handle exactly
    /// one path.
    pub fn submit(&self, work: Work) -> Receiver<Response> {
        let (tx, rx) = channel();
        let mut state = lock_state(&self.inner);
        if state.draining {
            let _ = tx.send(Response::err(
                work.id(),
                ErrorCode::ShuttingDown,
                "server is draining; request refused",
            ));
            return rx;
        }
        if state.queue.len() >= self.inner.config.queue_depth {
            self.inner.shed.fetch_add(1, Ordering::Relaxed);
            let _ = tx.send(Response::err(
                work.id(),
                ErrorCode::Busy,
                format!(
                    "admission queue full (depth {}); retry later",
                    self.inner.config.queue_depth
                ),
            ));
            return rx;
        }
        let seq = self.inner.submitted.fetch_add(1, Ordering::Relaxed);
        state.queue.push_back(Job { seq, work, tx });
        drop(state);
        self.inner.work_ready.notify_one();
        rx
    }

    /// Counter snapshot.
    pub fn service_stats(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            shed: self.inner.shed.load(Ordering::Relaxed),
            panicked: self.inner.panicked.load(Ordering::Relaxed),
        }
    }

    /// Graceful drain: refuse new work, finish admitted jobs, join all
    /// workers. Idempotent.
    pub fn drain(&self) {
        lock_state(&self.inner).draining = true;
        self.inner.work_ready.notify_all();
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(PoisonError::into_inner));
        for h in handles {
            // A worker can only terminate by observing the drain flag;
            // its jobs are panic-isolated, so join errors are
            // impossible in practice — but a hardened pool does not
            // propagate one into the caller either way.
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut state = lock_state(inner);
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.draining {
                    return;
                }
                state = inner
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let response = run_isolated(inner, &job);
        inner.completed.fetch_add(1, Ordering::Relaxed);
        // The submitter may have hung up (connection dropped); the job
        // still completed and the counters still account for it.
        let _ = job.tx.send(response);
    }
}

/// Executes one job under `catch_unwind`, converting a panic — injected
/// or genuine — into a `job_panicked` error response.
fn run_isolated(inner: &Inner, job: &Job) -> Response {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Some(ms) = inner.config.fault_plan.stall_ms(job.seq) {
            std::thread::sleep(Duration::from_millis(ms));
        }
        if inner.config.fault_plan.panics_at(job.seq) {
            #[expect(
                clippy::panic,
                reason = "deliberate fault injection: this panic exercises the catch_unwind isolation right below, which converts it into a job_panicked error response"
            )]
            {
                panic!("injected fault: panic on job {}", job.seq);
            }
        }
        execute_work(&job.work, inner.config.default_deadline, &inner.cache)
    }));
    match outcome {
        Ok(response) => response,
        Err(payload) => {
            inner.panicked.fetch_add(1, Ordering::Relaxed);
            Response::err(
                job.work.id(),
                ErrorCode::JobPanicked,
                panic_message(payload),
            )
        }
    }
}

/// Executes one unit of work (also called directly, without a pool, by
/// the repo benchmark's traced pass in `benchmark/src/serve.rs`).
/// `default_deadline` applies when the scenario carries none.
pub fn execute_work(
    work: &Work,
    default_deadline: Option<u64>,
    cache: &Arc<ArtifactCache>,
) -> Response {
    let ScenarioRequest { id, scenario } = work.request();
    let budgeted = Scenario {
        deadline: scenario.deadline.or(default_deadline),
        ..scenario.clone()
    };
    let (name, r) = match budgeted.run(scenario.machine(), cache) {
        Ok(run) => run,
        Err(e) => return Response::from_core_error(id, &e),
    };
    let mut fields = match &scenario.source {
        Source::App { name, .. } => vec![("app", name.clone())],
        // A mix answers with its applications' names joined by `+`.
        Source::Mix { .. } => vec![("app", name)],
        Source::File(_) => Vec::new(),
    };
    fields.extend([
        ("policy", scenario.policy.abbrev().to_ascii_lowercase()),
        ("makespan", r.makespan_cycles.to_string()),
        ("cache_hits", r.machine.cache.hits.to_string()),
        ("cache_misses", r.machine.cache.misses.to_string()),
        ("processes", r.processes.len().to_string()),
    ]);
    if let Some(m) = &r.arrivals {
        fields.extend([
            ("arrived", m.completed.to_string()),
            ("queue_peak", m.queue_depth_peak.to_string()),
            ("sojourn_p50", m.sojourn.p50.to_string()),
            ("sojourn_p99", m.sojourn.p99.to_string()),
            ("queueing_p99", m.queueing.p99.to_string()),
        ]);
    }
    Response::ok(id, fields)
}
