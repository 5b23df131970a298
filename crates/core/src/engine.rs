//! The event-driven scheduling engine: dispatches processes onto the
//! MPSoC in global time order, honouring dependences and preemption.
//!
//! # Hot-path design
//!
//! The engine advances the busy core with the smallest local clock, a
//! batch of trace ops at a time. One run is a private `Engine`:
//! `run_engine` alternates a dispatch pass with handing the minimum
//! `(key, Event)` heap entry to the method for its kind, which returns
//! when that event fires next. Every batch ends in `Running::end_batch`,
//! the one place that says why.
//!
//! * the heap holds one entry per busy core (replaced in place after each
//!   batch while the core stays busy, popped when it idles) plus at most
//!   one [`Event::Arrival`], the next pending admission;
//! * the selected core runs its compiled trace program in a tight inner
//!   loop ([`Machine::exec_source_until`] over a [`Cursor`]) until the
//!   next *event horizon* — its own quantum end or the next
//!   gated-dispatch opportunity. Cores without either run arbitrarily
//!   far ahead of their siblings, because private caches make their op
//!   streams independent;
//! * the events a batch ends with (completion, preemption) are not
//!   processed at discovery: they are re-queued into the heap at the
//!   exact `(clock, core)` scheduling position at which the seed's
//!   one-op-at-a-time loop would have discovered them, and fire when
//!   they reach the heap minimum (see [`RunState`]) — so events,
//!   dispatches and policy callbacks happen in precisely the seed
//!   engine's order;
//! * a shared bus adds one event and no horizon term: execution
//!   between misses never touches the bus, and a miss on a contended
//!   bus *parks* the core ([`lams_mpsoc::BatchOutcome::parked`]) at the
//!   scheduling key the machine names — re-queued into the heap as an
//!   ordinary deferred event. When it reaches the heap minimum no
//!   earlier request can still be issued (any core able to issue one
//!   would have had a smaller key), so
//!   [`Machine::complete_bus_access`] takes the grant
//!   deterministically. Which key that is, and what the grant covers,
//!   is the bus mode's business and lives in `lams_mpsoc` (see
//!   `docs/bus-model.md`); the engine names no bus mode;
//! * the dispatch gate ([`Gate`]: the cycle, plus one, at which an idle
//!   core could first start a ready process) is cached, and recomputed
//!   only after the four events that can move it: a dispatch, a
//!   completion, a preemption and an admission. The dispatch guard and
//!   an executing batch's horizon both read the cached value, so a
//!   batch ended by a bus miss costs one heap update and no ready-set
//!   scan. A debug-build witness in [`Engine::gate`] recomputes it on
//!   every dispatch pass and asserts that the cache agrees;
//! * the miss split is paid for only when asked: `run_engine` reads
//!   [`MachineConfig::explain`] once and runs an `Engine` over a
//!   [`Plain`] or an [`Explain`] machine, which schedule alike.
//!
//! Batching is exact, not approximate: makespans, dispatch sequences
//! and cache statistics are bit-identical to the seed engine
//! (differentially tested against the one naive per-op simulator in
//! `crates/core/tests/support/oracle.rs` — batch and open-system runs,
//! both bus modes, deadlines — and golden-checked in
//! `tests/cross_validation.rs`). The one behavioural refinement is for
//! policies whose `select` *refuses* to dispatch while ready work and
//! an eligible idle core exist: they are re-asked at the next
//! scheduling event rather than after every op, which is what the
//! [`Policy`](crate::Policy) contract documents. None of the shipped
//! policies refuse.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;

use lams_layout::Layout;
use lams_mpsoc::{
    BatchOutcome, Classifier, CoreId, Explain, Machine, MachineConfig, MachineStats, Plain,
};
use lams_procgraph::{EpgBuilder, ProcessGraph, ProcessId, ReadyTracker};
use lams_trace::{Cursor, Program, TraceBundle};
use lams_workloads::Workload;

use crate::arrivals::{ArrivalConfig, ArrivalMetrics, ArrivalPlan};
use crate::{Error, Policy, Result};

/// Engine configuration: the machine plus an optional per-run deadline
/// and an optional open-system arrival stream. The preemption quantum is
/// the policy's ([`Policy::quantum`]).
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// The simulated machine.
    pub machine: MachineConfig,
    /// Per-run budget in **simulated cycles**: the run fails with
    /// [`Error::DeadlineExceeded`] once the global clock (the engine's
    /// minimum busy-core key) passes this bound. `None` (the default)
    /// never deadlines. Simulated time is the deterministic proxy for
    /// work — a scenario either always fits its budget or never does,
    /// regardless of host load or thread count — which is what lets a
    /// long-lived service (`lams-serve`) bound how long one pathological
    /// scenario can hold a worker without breaking bit-reproducibility
    /// for every request it accepts.
    pub max_cycles: Option<u64>,
    /// Open-system mode: when set, processes are not all ready at cycle
    /// zero but *arrive* on the deterministic seeded stream described by
    /// the config ([`crate::arrivals`]). Arrivals ride the engine's
    /// deferred-event heap (as `Event::Arrival` entries), admission
    /// re-invokes the policy's placement, and the result additionally
    /// carries steady-state metrics ([`RunResult::arrivals`]). `None`
    /// (the default) is the paper's batch mode, bit-identical to
    /// pre-arrival engines.
    pub arrivals: Option<ArrivalConfig>,
}

impl EngineConfig {
    /// Engine over the paper's Table 2 machine.
    pub fn paper_default() -> Self {
        MachineConfig::paper_default().into()
    }

    /// Builder-style per-run deadline in simulated cycles (see
    /// [`EngineConfig::max_cycles`]).
    pub fn with_deadline_cycles(mut self, budget: u64) -> Self {
        self.max_cycles = Some(budget);
        self
    }

    /// Builder-style open-system arrival stream (see
    /// [`EngineConfig::arrivals`]).
    pub fn with_arrivals(mut self, arrivals: ArrivalConfig) -> Self {
        self.arrivals = Some(arrivals);
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::paper_default()
    }
}

impl From<MachineConfig> for EngineConfig {
    fn from(machine: MachineConfig) -> Self {
        EngineConfig {
            machine,
            max_cycles: None,
            arrivals: None,
        }
    }
}

/// Where and when one process executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessExec {
    /// Core that completed the process (the last core it ran on, for
    /// preempted processes).
    pub core: CoreId,
    /// Cycle at which the process first started executing.
    pub start: u64,
    /// Cycle at which it completed.
    pub finish: u64,
    /// Number of times it was dispatched (1 without preemption).
    pub dispatches: u32,
}

/// The result of one engine run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Completion time of the whole workload, in cycles.
    pub makespan_cycles: u64,
    /// Completion time in seconds at the machine's clock.
    pub seconds: f64,
    /// Aggregated machine statistics (cache behaviour, busy cycles).
    pub machine: MachineStats,
    /// Dispatch sequence per core (repeats possible under preemption).
    /// `windows(2)` of each inner vector gives the paper's "successively
    /// scheduled on the same core" pairs.
    pub core_sequences: Vec<Vec<ProcessId>>,
    /// Per-process execution record.
    pub processes: BTreeMap<ProcessId, ProcessExec>,
    /// Steady-state metrics of an open-system run (latency percentiles,
    /// queue-depth peak, per-core utilization). `None` in batch mode
    /// ([`EngineConfig::arrivals`] unset).
    pub arrivals: Option<ArrivalMetrics>,
}

impl RunResult {
    /// Processes per core, deduplicated, in first-dispatch order.
    pub fn placement(&self) -> Vec<Vec<ProcessId>> {
        self.core_sequences
            .iter()
            .map(|seq| {
                let mut seen = std::collections::BTreeSet::new();
                seq.iter().copied().filter(|p| seen.insert(*p)).collect()
            })
            .collect()
    }
}

impl fmt::Display for RunResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} processes in {} cycles ({:.4}s), cache {}",
            self.processes.len(),
            self.makespan_cycles,
            self.seconds,
            self.machine.cache
        )
    }
}

/// The subject of an event-heap entry. The heap orders entries by
/// `(key, Event)`, and declaration order is the tie order: at an equal
/// key every core event fires, in core order, before the arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// The busy core's next step; its [`RunState`] says which.
    Core(CoreId),
    /// Admission of every process arriving by the key's cycle
    /// ([`EngineConfig::arrivals`]); the entry then moves to the next
    /// arrival. The heap is therefore never empty while arrivals remain,
    /// which keeps a too-tight deadline a clean
    /// [`Error::DeadlineExceeded`] and not an [`Error::EngineStalled`].
    Arrival,
}

/// What a busy core's heap entry represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    /// The core has trace ops left to execute.
    Executing,
    /// The trace is exhausted; the completion event fires when the
    /// core's `(finish_clock, core)` entry becomes the heap minimum —
    /// exactly when the seed engine's next selection of this core would
    /// have discovered the empty trace.
    FinishPending,
    /// The quantum was crossed; the preemption event fires when the
    /// crossing op's `(pre_op_clock, core)` entry becomes the heap
    /// minimum — the op's scheduling position in the seed engine, which
    /// fired the preemption immediately after executing it. The key is
    /// the machine's ([`lams_mpsoc::BatchOutcome::preempt_key`]), which
    /// also says where a quantum crossed by a *bus-stalled* access
    /// ([`RunState::BusPending`]) fires.
    PreemptPending,
    /// A miss latched a request on a contended bus and the core is
    /// stalled with the access cost unapplied. Its heap entry carries
    /// the key the machine parked it at
    /// ([`lams_mpsoc::BatchOutcome::parked`]): when it becomes the heap
    /// minimum, every busy core's key, and hence clock, is at or past
    /// it, and any idle-core dispatch eligible before it would have
    /// produced a smaller heap entry first — so no request that must be
    /// granted before this one can still be issued.
    BusPending,
}

struct Running<'a> {
    pid: ProcessId,
    trace: Cursor<'a>,
    quantum_end: Option<u64>,
    state: RunState,
}

impl Running<'_> {
    /// Sets the [`RunState`] of the reason a batch ended at clock `now`,
    /// and returns that state's key.
    fn end_batch(&mut self, now: u64, outcome: BatchOutcome) -> u64 {
        let (state, key) = match (outcome.parked, outcome.exhausted) {
            // The miss cost applies, and the quantum check happens, when
            // the parked entry pops.
            (Some(parked), _) => (RunState::BusPending, parked),
            (None, true) => (RunState::FinishPending, now),
            _ if self.quantum_end.is_some_and(|qe| now >= qe) => {
                (RunState::PreemptPending, outcome.preempt_key)
            }
            _ => (RunState::Executing, now),
        };
        self.state = state;
        key
    }
}

/// The dispatch gate: when some arrived process is ready and some core
/// idles, `at` is the minimum over idle cores `c` of
/// `max(clock_c, min_ready_at) + 1`. Dispatch is allowed once every busy
/// key reaches `at`, and an executing batch must stop there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Gate {
    /// The earliest `ready_at` over the arrived ready processes.
    min_ready_at: u64,
    /// The gate cycle itself.
    at: u64,
}

/// Executes `workload` on the configured machine under `policy`, with
/// array addresses resolved through `layout`.
///
/// Each process's trace is first compiled into a trace program
/// ([`Workload::compile_traces`]) and executed batchwise. Compilation
/// happens per call; use [`execute_cached`] to share one compiled
/// program set across runs (the LSM candidate ladder and policy-dense
/// sweep matrices re-execute each workload many times).
///
/// The engine maintains one clock per core and always advances the busy
/// core with the smallest local clock, so cross-core interactions (the
/// optional shared bus) are simulated in correct global-time order.
/// Caches persist across process switches on a core — the reuse that the
/// locality-aware policy exploits.
///
/// # Errors
///
/// * [`Error::EngineStalled`] when the policy refuses to dispatch while
///   every core idles and processes are ready,
/// * [`Error::DeadlineExceeded`] / [`Error::QueueSaturated`] when the
///   configured budget or admission-queue capacity is exceeded,
/// * simulator/graph errors are propagated.
pub fn execute(
    workload: &Workload,
    layout: &Layout,
    policy: &mut dyn Policy,
    config: impl Into<EngineConfig>,
) -> Result<RunResult> {
    let programs = workload.compile_traces(layout);
    let program = |p: ProcessId| &programs[p.as_usize()];
    run_engine(workload.epg(), &program, policy, config.into())
}

/// [`execute`] with the compiled trace programs served from `memo`
/// ([`crate::memo::ArtifactCache`]): the program set for `(workload,
/// layout)` is compiled at most once per cache and shared (`Arc`)
/// across every subsequent run — sweep jobs, LSM ladder candidates,
/// repeated policy comparisons. Results are bit-identical to
/// [`execute`] for any thread count; only the compile work is shared,
/// never simulation state.
///
/// # Errors
///
/// As for [`execute`].
pub fn execute_cached(
    workload: &Workload,
    layout: &Layout,
    policy: &mut dyn Policy,
    config: impl Into<EngineConfig>,
    memo: &crate::memo::ArtifactCache,
) -> Result<RunResult> {
    let programs = memo.programs(workload, layout);
    let program = |p: ProcessId| &*programs[p.as_usize()];
    run_engine(workload.epg(), &program, policy, config.into())
}

/// Replays a recorded [`TraceBundle`] (`.ltr` record/replay) under
/// `policy`: the bundle's programs execute on the configured machine
/// honouring the bundle's dependence edges — the full scheduling stack,
/// no symbolic workload required. A bundle recorded with
/// [`Workload::record`] replays to results bit-identical to executing
/// the workload directly.
///
/// # Errors
///
/// * [`Error::Graph`](crate::Error) when the bundle's edges are
///   malformed (self-edges, duplicates, cycles),
/// * engine errors as for [`execute`].
pub fn execute_bundle(
    bundle: &TraceBundle,
    policy: &mut dyn Policy,
    config: impl Into<EngineConfig>,
) -> Result<RunResult> {
    let mut builder = EpgBuilder::new();
    for i in 0..bundle.records.len() {
        builder.add_process(ProcessId::new(i as u32))?;
    }
    for &(from, to) in &bundle.edges {
        builder.add_edge(ProcessId::new(from), ProcessId::new(to))?;
    }
    let program = |p: ProcessId| &bundle.records[p.as_usize()].program;
    run_engine(&builder.build()?, &program, policy, config.into())
}

/// The engine proper: runs the processes of `epg` under `policy`, each
/// executing the compiled trace `program(pid)` names, on a machine that
/// splits its misses only when [`MachineConfig::explain`] asks.
fn run_engine<'a>(
    epg: &ProcessGraph,
    program: &dyn Fn(ProcessId) -> &'a Program,
    policy: &mut dyn Policy,
    config: EngineConfig,
) -> Result<RunResult> {
    if config.machine.explain {
        run::<Explain>(epg, program, policy, config)
    } else {
        run::<Plain>(epg, program, policy, config)
    }
}

/// [`run_engine`] on a machine of classifier `C`.
fn run<'a, C: Classifier>(
    epg: &ProcessGraph,
    program: &dyn Fn(ProcessId) -> &'a Program,
    policy: &mut dyn Policy,
    config: EngineConfig,
) -> Result<RunResult> {
    let mut engine = Engine::<C>::new(epg, program, policy, config)?;
    loop {
        engine.dispatch()?;
        let Some(&Reverse((key, event))) = engine.events.peek() else {
            if engine.tracker.all_done() {
                break;
            }
            return Err(Error::EngineStalled {
                ready: engine.tracker.ready_len(),
            });
        };
        // Deadline: the top key is the global scheduling position, so
        // `key > budget` means the simulation provably cannot complete
        // within the budget (every remaining event is at `>= key`). A run
        // whose makespan fits the budget never trips this — all its keys
        // are `<= makespan <= budget` — so accepted results are
        // bit-identical to an unbudgeted run.
        if let Some(budget) = config.max_cycles.filter(|&b| key > b) {
            return Err(Error::DeadlineExceeded {
                budget_cycles: budget,
                elapsed_cycles: key,
            });
        }
        // Each handler returns the key at which its event fires next,
        // which replaces the entry in place, or `None` to drop it.
        let next = match event {
            Event::Arrival => engine.admit(key)?,
            Event::Core(core) => match engine.running[core].as_ref().expect("core is busy").state {
                RunState::Executing => Some(engine.run_batch(core, key)?),
                RunState::BusPending => Some(engine.grant_bus(core)?),
                RunState::PreemptPending => engine.preempt(core)?,
                RunState::FinishPending => engine.complete(core, key)?,
            },
        };
        let mut top = engine.events.peek_mut().expect("the entry is still on top");
        match next {
            Some(next) => *top = Reverse((next, event)),
            None => drop(PeekMut::pop(top)),
        }
    }
    engine.finish()
}

/// The state of one engine run, with one method per event kind.
struct Engine<'a, 'r, C: Classifier> {
    program: &'r dyn Fn(ProcessId) -> &'a Program,
    policy: &'r mut dyn Policy,
    config: EngineConfig,
    /// The open-system arrival plan; `None` in batch mode.
    plan: Option<ArrivalPlan>,
    machine: Machine<C>,
    tracker: ReadyTracker,
    // Per-pid state, indexed by `ProcessId::as_usize`: when it became
    // dispatchable, a preempted one's cursor, where and when it ran.
    ready_at: Vec<u64>,
    paused: Vec<Option<Cursor<'a>>>,
    execs: Vec<Option<ProcessExec>>,
    // Per-core state: the busy slot, and what each core ran.
    running: Vec<Option<Running<'a>>>,
    core_sequences: Vec<Vec<ProcessId>>,
    /// Every process below this index has arrived. Admission walks the
    /// plan in process-id order, which is also non-decreasing arrival
    /// order; in batch mode every process has arrived up front.
    next_arrival: usize,
    /// Admitted-and-ready queue depth: +1 when a process becomes
    /// dispatchable (a root at cycle 0 in batch mode, admission,
    /// dependence completion, preemption re-entry), −1 on dispatch. The
    /// capacity bound sheds on admission-driven growth only.
    queued: usize,
    queue_peak: usize,
    /// A core's key is its clock while executing, or its deferred event's
    /// scheduling position: `peek` is the next scheduling position, which
    /// for dispatch gating is the seed engine's minimum busy clock.
    events: BinaryHeap<Reverse<(u64, Event)>>,
    /// The cached dispatch gate, read through [`Engine::gate`] and
    /// marked dirty by dispatch, completion, preemption and admission.
    gate: Option<Gate>,
    gate_dirty: bool,
    // Scratch buffers reused across dispatch passes.
    ready_vec: Vec<ProcessId>,
    idle: Vec<(CoreId, Option<ProcessId>, u64)>,
}

impl<'a, 'r, C: Classifier> Engine<'a, 'r, C> {
    /// In open-system mode the arrival plan is derived here, once:
    /// service demand is each program's op count, which equals the
    /// workload's declared trace length whatever the layout (the layout
    /// only moves addresses, never op counts), so open-system runs stay
    /// comparable across LSM candidate layouts and `.ltr` replays.
    fn new(
        epg: &ProcessGraph,
        program: &'r dyn Fn(ProcessId) -> &'a Program,
        policy: &'r mut dyn Policy,
        config: EngineConfig,
    ) -> Result<Self> {
        let n = epg.len();
        let plan = config.arrivals.map(|a| {
            let service: Vec<u64> = (0..n)
                .map(|i| program(ProcessId::new(i as u32)).len_ops())
                .collect();
            ArrivalPlan::generate(a, &service, config.machine.num_cores)
        });
        let machine = Machine::try_build(config.machine)?;
        let cores = machine.num_cores();
        let first_arrival = plan.as_ref().filter(|p| !p.is_empty()).map(|p| p.time(0));
        let mut events = BinaryHeap::with_capacity(cores + 1);
        events.extend(first_arrival.map(|at| Reverse((at, Event::Arrival))));
        let mut engine = Engine {
            program,
            policy,
            config,
            plan,
            machine,
            tracker: ReadyTracker::new(epg),
            ready_at: vec![0; n],
            paused: vec![None; n],
            execs: vec![None; n],
            running: (0..cores).map(|_| None).collect(),
            core_sequences: vec![Vec::new(); cores],
            next_arrival: if config.arrivals.is_some() { 0 } else { n },
            queued: 0,
            queue_peak: 0,
            events,
            gate: None,
            gate_dirty: true,
            ready_vec: Vec::new(),
            idle: Vec::new(),
        };
        // Roots are dependence-ready at time zero; in batch mode they are
        // also dispatchable, in open mode they wait for their arrival.
        if engine.plan.is_none() {
            for p in engine.tracker.ready().collect::<Vec<_>>() {
                engine.enqueue(p, 0);
                engine.policy.on_ready(p, 0);
            }
        }
        Ok(engine)
    }

    fn core_clock(&self, core: CoreId) -> u64 {
        self.machine.core_clock(core).expect("core in range")
    }

    /// Marks `pid` dispatchable from cycle `at` and counts it queued.
    fn enqueue(&mut self, pid: ProcessId, at: u64) {
        self.ready_at[pid.as_usize()] = at;
        self.queued += 1;
        self.queue_peak = self.queue_peak.max(self.queued);
    }

    /// Computes the dispatch gate from scratch: `None` when no arrived
    /// process is ready or no core idles.
    fn compute_gate(&self) -> Option<Gate> {
        let min_ready_at = self
            .tracker
            .ready()
            .filter(|p| p.as_usize() < self.next_arrival)
            .map(|p| self.ready_at[p.as_usize()])
            .min()?;
        let at = (0..self.running.len())
            .filter(|&c| self.running[c].is_none())
            .map(|c| self.core_clock(c).max(min_ready_at) + 1)
            .min()?;
        Some(Gate { min_ready_at, at })
    }

    /// The dispatch gate, recomputed if dirty. Witness: every read of the
    /// cache (the dispatch guard, the idle filter, the batch horizon)
    /// sees a from-scratch recomputation. The oracle suites alone miss a
    /// gate stale on the low side of a horizon: an early split is exact.
    fn gate(&mut self) -> Option<Gate> {
        if self.gate_dirty {
            self.gate = self.compute_gate();
            self.gate_dirty = false;
        }
        debug_assert_eq!(self.gate, self.compute_gate(), "stale dispatch gate");
        self.gate
    }

    /// Dispatches ready processes onto idle cores, one at a time, in the
    /// policy's preferred core order (re-ranked after every dispatch so
    /// the policy sees the shrinking ready set).
    ///
    /// Event-ordering rule: a dispatch at time `t` must not happen while
    /// some busy core could still produce an event (completion,
    /// preemption) at a time `<= t` — otherwise simultaneous completions
    /// become visible one at a time and the policy commits to stale
    /// information. Busy cores whose clocks are `<= t` are advanced
    /// first; dispatching resumes once every busy clock is strictly
    /// ahead of the candidate start time. The cached gate says whether
    /// any idle core passes that test, so a batch that changed no
    /// schedule state returns here without a ready-set scan.
    fn dispatch(&mut self) -> Result<()> {
        loop {
            let min_busy_clock = self.events.peek().map(|&Reverse((t, _))| t);
            let Some(Gate { min_ready_at, .. }) = self
                .gate()
                .filter(|g| min_busy_clock.is_none_or(|mb| g.at <= mb))
            else {
                return Ok(());
            };
            let arrived = self.next_arrival;
            self.ready_vec.clear();
            self.ready_vec
                .extend(self.tracker.ready().filter(|p| p.as_usize() < arrived));
            self.idle.clear();
            for c in (0..self.running.len()).filter(|&c| self.running[c].is_none()) {
                let clock = self.core_clock(c);
                if min_busy_clock.is_none_or(|mb| clock.max(min_ready_at) < mb) {
                    self.idle
                        .push((c, self.core_sequences[c].last().copied(), clock));
                }
            }
            debug_assert!(!self.idle.is_empty(), "the gate admits an idle core");
            let order = self.policy.rank_idle(&self.idle, &self.ready_vec);
            debug_assert!(
                order
                    .iter()
                    .all(|c| self.idle.iter().any(|&(ic, _, _)| ic == *c)),
                "rank_idle must return idle cores"
            );
            let Some((core, pid)) = order.into_iter().find_map(|core| {
                let last = self.core_sequences[core].last().copied();
                Some((core, self.policy.select(core, last, &self.ready_vec)?))
            }) else {
                return Ok(());
            };
            self.tracker.start(pid)?;
            self.gate_dirty = true;
            self.queued -= 1;
            let ready_at = self.ready_at[pid.as_usize()];
            let start = self.core_clock(core).max(ready_at);
            self.machine.wait_until(core, start)?;
            let trace = self.paused[pid.as_usize()]
                .take()
                .unwrap_or_else(|| Cursor::new((self.program)(pid)));
            self.running[core] = Some(Running {
                pid,
                trace,
                quantum_end: self.policy.quantum().map(|q| start.saturating_add(q)),
                state: RunState::Executing,
            });
            self.events.push(Reverse((start, Event::Core(core))));
            self.core_sequences[core].push(pid);
            self.execs[pid.as_usize()]
                .get_or_insert(ProcessExec {
                    core,
                    start,
                    finish: 0,
                    dispatches: 0,
                })
                .dispatches += 1;
        }
    }

    /// Runs the core's process up to the next event horizon: nothing the
    /// policy can observe changes before (a) this core's quantum
    /// expires, or (b) a gated idle core becomes eligible for dispatch
    /// (every busy clock passes its earliest start). Completion,
    /// preemption and contended misses need no horizon — they end the
    /// batch on their own and are re-queued as deferred events at their
    /// exact scheduling position.
    fn run_batch(&mut self, core: CoreId, key: u64) -> Result<u64> {
        debug_assert_eq!(self.core_clock(core), key, "stale heap entry");
        let slot = self.running[core].as_mut().expect("core is busy");
        let mut horizon = slot.quantum_end.unwrap_or(u64::MAX);
        // Cap batches just past the deadline so one unbounded batch (a
        // quantum-free core running a huge trace) cannot blow arbitrarily
        // far past the budget before the check in `run_engine` sees it.
        // Splitting a batch never changes results — batching is exact —
        // it only bounds the overshoot to one op's cost.
        if let Some(budget) = self.config.max_cycles {
            horizon = horizon.min(budget.saturating_add(1));
        }
        // `dispatch` left the gate clean and checked, and nothing since
        // changed schedule state.
        if let Some(gate) = self.gate {
            horizon = horizon.min(gate.at);
        }
        let outcome = self
            .machine
            .exec_source_until(core, &mut slot.trace, horizon)?;
        Ok(slot.end_batch(self.machine.core_clock(core)?, outcome))
    }

    /// Takes the bus grant, since no earlier request can still be issued
    /// (see [`RunState::BusPending`]), and applies the miss cost. This is
    /// policy-invisible: the core resumes at its true clock, or preempts
    /// if the access crossed the quantum, like after any other batch.
    fn grant_bus(&mut self, core: CoreId) -> Result<u64> {
        let slot = self.running[core].as_mut().expect("core is busy");
        let outcome = self.machine.complete_bus_access(core)?;
        Ok(slot.end_batch(self.machine.core_clock(core)?, outcome))
    }

    /// Preempts the core's process: ready again at the core's *post-op*
    /// clock, as in the seed engine (the key was the crossing op's
    /// pre-op clock).
    fn preempt(&mut self, core: CoreId) -> Result<Option<u64>> {
        let slot = self.running[core].take().expect("core is busy");
        let now = self.core_clock(core);
        self.gate_dirty = true;
        self.paused[slot.pid.as_usize()] = Some(slot.trace);
        self.tracker.preempt(slot.pid)?;
        self.enqueue(slot.pid, now);
        self.policy.on_preempt(slot.pid, now);
        Ok(None)
    }

    /// Completes the core's process and enqueues every successor it leaves
    /// dependence-ready that has arrived (admission announces the rest).
    fn complete(&mut self, core: CoreId, key: u64) -> Result<Option<u64>> {
        let pid = self.running[core].take().expect("core is busy").pid;
        let now = self.core_clock(core);
        debug_assert_eq!(now, key, "completion key is the finish clock");
        self.gate_dirty = true;
        if let Some(e) = &mut self.execs[pid.as_usize()] {
            e.finish = now;
            e.core = core;
        }
        for succ in self.tracker.complete(pid)? {
            if succ.as_usize() < self.next_arrival {
                self.enqueue(succ, now);
                self.policy.on_ready(succ, now);
            }
        }
        Ok(None)
    }

    /// Admits every process arriving by cycle `key`: marks it arrived
    /// and, when its dependences are already met, enqueues it and
    /// announces it via `Policy::on_ready`. Placement is re-invoked
    /// naturally: the next dispatch pass re-ranks with the grown set.
    fn admit(&mut self, key: u64) -> Result<Option<u64>> {
        let plan = self.plan.as_ref().expect("arrival event implies a plan");
        let (first, n) = (self.next_arrival, self.ready_at.len());
        self.next_arrival = (first..n).find(|&i| plan.time(i) > key).unwrap_or(n);
        let next = (self.next_arrival < n).then(|| plan.time(self.next_arrival));
        self.gate_dirty = true;
        for i in first..self.next_arrival {
            let pid = ProcessId::new(i as u32);
            // Dependence-ready: not started, since it had not arrived.
            if self.tracker.is_ready(pid) {
                self.enqueue(pid, key);
                self.policy.on_ready(pid, key);
                if let Some(cap) = self.config.arrivals.and_then(|a| a.queue_capacity) {
                    if self.queued as u64 > cap {
                        return Err(Error::QueueSaturated {
                            capacity: cap,
                            depth: self.queued,
                            at_cycle: key,
                        });
                    }
                }
            }
        }
        Ok(next)
    }

    /// The run's result, once every process completed.
    fn finish(self) -> Result<RunResult> {
        let stats = self.machine.stats();
        let processes: BTreeMap<ProcessId, ProcessExec> = self
            .execs
            .into_iter()
            .enumerate()
            .filter_map(|(i, e)| Some((ProcessId::new(i as u32), e?)))
            .collect();
        let arrivals = match &self.plan {
            None => None,
            Some(plan) => {
                let core_busy = (0..self.running.len())
                    .map(|c| Ok(self.machine.core_stats(c)?.busy_cycles))
                    .collect::<Result<Vec<u64>>>()?;
                Some(ArrivalMetrics::collect(
                    processes
                        .iter()
                        .map(|(p, e)| (plan.arrival(*p), e.start, e.finish)),
                    self.queue_peak,
                    &core_busy,
                    stats.makespan_cycles,
                    plan,
                ))
            }
        };
        Ok(RunResult {
            makespan_cycles: stats.makespan_cycles,
            seconds: self.config.machine.cycles_to_seconds(stats.makespan_cycles),
            machine: stats,
            core_sequences: self.core_sequences,
            processes,
            arrivals,
        })
    }
}

#[cfg(test)]
#[path = "../tests/support/quantum.rs"]
mod quantum;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LocalityPolicy, RandomPolicy, RoundRobinPolicy, SharingMatrix};
    use lams_workloads::{prog1, suite, Scale};

    fn small_machine(cores: usize) -> EngineConfig {
        MachineConfig::paper_default().with_cores(cores).into()
    }

    fn run_policy(workload: &Workload, policy: &mut dyn Policy, cores: usize) -> RunResult {
        let layout = Layout::linear(workload.arrays());
        execute(workload, &layout, policy, small_machine(cores)).unwrap()
    }

    #[test]
    fn all_processes_complete_under_every_policy() {
        let w = Workload::single(suite::shape(Scale::Tiny)).unwrap();
        let sharing = SharingMatrix::from_workload(&w);
        let policies: Vec<Box<dyn Policy>> = vec![
            Box::new(RandomPolicy::new(1)),
            Box::new(RoundRobinPolicy::new(5_000)),
            Box::new(LocalityPolicy::new(sharing, 4)),
        ];
        for mut p in policies {
            let r = run_policy(&w, p.as_mut(), 4);
            assert_eq!(r.processes.len(), 9, "{} lost processes", p.name());
            assert!(r.makespan_cycles > 0);
            assert!(r
                .processes
                .values()
                .all(|e| e.finish > e.start || e.finish >= e.start));
        }
    }

    #[test]
    fn dependences_are_respected_in_time() {
        let w = Workload::single(suite::track(Scale::Tiny)).unwrap();
        let mut p = RandomPolicy::new(3);
        let r = run_policy(&w, &mut p, 4);
        let g = w.epg();
        for pid in w.process_ids() {
            for succ in g.succs(pid).unwrap() {
                assert!(
                    r.processes[&succ].start >= r.processes[&pid].finish,
                    "{succ} started before {pid} finished"
                );
            }
        }
    }

    #[test]
    fn engine_is_deterministic() {
        let w = Workload::single(suite::usonic(Scale::Tiny)).unwrap();
        let run = |seed| {
            let mut p = RandomPolicy::new(seed);
            let r = run_policy(&w, &mut p, 8);
            (r.makespan_cycles, r.core_sequences.clone())
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn preemption_produces_multiple_dispatches() {
        let w = Workload::single(prog1()).unwrap();
        // Tiny quantum: every process needs several dispatches.
        let mut p = RoundRobinPolicy::new(1_000);
        let r = run_policy(&w, &mut p, 4);
        assert!(
            r.processes.values().any(|e| e.dispatches > 1),
            "no preemption with a 1000-cycle quantum"
        );
        // Everything still completes exactly once.
        assert_eq!(r.processes.len(), 8);
    }

    #[test]
    fn single_core_serializes_everything() {
        let w = Workload::single(suite::shape(Scale::Tiny)).unwrap();
        let mut p = RandomPolicy::new(5);
        let r = run_policy(&w, &mut p, 1);
        assert_eq!(r.core_sequences[0].len(), 9);
        // Makespan equals the core's busy time (no idle gaps on 1 core
        // since something is always ready).
        assert_eq!(r.makespan_cycles, r.machine.total_busy_cycles);
    }

    #[test]
    fn locality_policy_chains_sharing_processes() {
        // Prog1 on 4 cores under LS: successive processes on a core
        // should share data wherever possible.
        let w = Workload::single(prog1()).unwrap();
        let sharing = SharingMatrix::from_workload(&w);
        let mut ls = LocalityPolicy::new(sharing.clone(), 4);
        let r = run_policy(&w, &mut ls, 4);
        let mut chained_pairs = 0;
        let mut sharing_pairs = 0;
        for seq in &r.core_sequences {
            for pair in seq.windows(2) {
                chained_pairs += 1;
                if sharing.get(pair[0], pair[1]) > 0 {
                    sharing_pairs += 1;
                }
            }
        }
        assert_eq!(
            chained_pairs, 4,
            "8 processes on 4 cores = 1 chain pair each"
        );
        // Greedy core-by-core selection (as in the paper's Figure 3)
        // cannot guarantee every chain shares: after {0,1,4,7} run in
        // round one, three cores grab the sharing partners {2,3,6} and
        // the last core takes the leftover. At least 3 of 4 chains must
        // share, though.
        assert!(
            sharing_pairs >= 3,
            "LS failed to chain sharing processes: {:?}",
            r.core_sequences
        );
    }

    #[test]
    fn a_policy_quantum_forces_preemption_on_ls() {
        let w = Workload::single(prog1()).unwrap();
        let sharing = SharingMatrix::from_workload(&w);
        let ls = Box::new(LocalityPolicy::new(sharing, 4));
        let mut ls = quantum::with_quantum(ls, Some(500));
        let r = run_policy(&w, ls.as_mut(), 4);
        assert!(r.processes.values().any(|e| e.dispatches > 1));
    }

    #[test]
    fn makespan_not_less_than_critical_path_work() {
        let w = Workload::single(suite::mxm(Scale::Tiny)).unwrap();
        let mut p = RandomPolicy::new(0);
        let r = run_policy(&w, &mut p, 8);
        // Sanity: makespan at least the busiest core's cycles / cores.
        assert!(r.makespan_cycles * 8 >= r.machine.total_busy_cycles);
    }

    use crate::arrivals::ArrivalConfig;

    fn run_open(
        workload: &Workload,
        policy: &mut dyn Policy,
        cores: usize,
        arrivals: ArrivalConfig,
    ) -> Result<RunResult> {
        let layout = Layout::linear(workload.arrays());
        let cfg = small_machine(cores).with_arrivals(arrivals);
        execute(workload, &layout, policy, cfg)
    }

    #[test]
    fn open_system_admits_every_process_and_reports_metrics() {
        let w = Workload::single(suite::shape(Scale::Tiny)).unwrap();
        let mut p = RandomPolicy::new(1);
        let cfg = ArrivalConfig::poisson(800, 42);
        let r = run_open(&w, &mut p, 4, cfg).unwrap();
        assert_eq!(r.processes.len(), 9, "open run lost processes");
        let m = r.arrivals.as_ref().expect("open run carries metrics");
        assert_eq!(m.completed, 9);
        assert_eq!(m.core_utilization.len(), 4);
        assert!(m.core_utilization.iter().all(|&u| (0.0..=1.0).contains(&u)));
        assert!(m.sojourn.max >= m.sojourn.p50);
        assert!(m.queueing.max <= m.sojourn.max);
        assert_ne!(m.plan_checksum, 0);
        // No process may start before it arrived.
        let plan = ArrivalPlan::generate(
            cfg,
            &w.process_ids().map(|p| w.trace_len(p)).collect::<Vec<_>>(),
            4,
        );
        for (pid, e) in &r.processes {
            assert!(
                e.start >= plan.arrival(*pid),
                "{pid} started at {} before arriving at {}",
                e.start,
                plan.arrival(*pid)
            );
        }
    }

    #[test]
    fn open_system_runs_are_deterministic() {
        let w = Workload::single(suite::track(Scale::Tiny)).unwrap();
        let run = || {
            let mut p = RoundRobinPolicy::new(2_000);
            format!(
                "{:?}",
                run_open(&w, &mut p, 4, ArrivalConfig::poisson(900, 7)).unwrap()
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn arrival_seed_changes_the_schedule() {
        let w = Workload::single(suite::shape(Scale::Tiny)).unwrap();
        let run = |seed| {
            let mut p = RandomPolicy::new(1);
            run_open(&w, &mut p, 4, ArrivalConfig::poisson(500, seed))
                .unwrap()
                .makespan_cycles
        };
        assert_ne!(run(11), run(12), "seed must steer the arrival stream");
    }

    #[test]
    fn batch_results_carry_no_arrival_metrics() {
        let w = Workload::single(suite::shape(Scale::Tiny)).unwrap();
        let mut p = RandomPolicy::new(1);
        let r = run_policy(&w, &mut p, 4);
        assert!(r.arrivals.is_none());
    }

    #[test]
    fn zero_capacity_queue_sheds_on_first_admission() {
        let w = Workload::single(suite::shape(Scale::Tiny)).unwrap();
        let mut p = RandomPolicy::new(1);
        let cfg = ArrivalConfig::poisson(800, 42).with_queue_capacity(0);
        let err = run_open(&w, &mut p, 4, cfg).unwrap_err();
        assert!(
            matches!(
                err,
                Error::QueueSaturated {
                    capacity: 0,
                    depth: 1,
                    ..
                }
            ),
            "wanted QueueSaturated, got {err:?}"
        );
    }

    #[test]
    fn arrival_stream_outliving_the_budget_is_a_clean_deadline() {
        // Load 0.001 stretches inter-arrivals by ~1000x: the first
        // arrival event alone sits far past a tiny budget, so the run
        // must fail DeadlineExceeded (never EngineStalled, never spin).
        let w = Workload::single(suite::shape(Scale::Tiny)).unwrap();
        let layout = Layout::linear(w.arrays());
        let mut p = RandomPolicy::new(1);
        let mut cfg = small_machine(4).with_arrivals(ArrivalConfig::poisson(1, 3));
        cfg.max_cycles = Some(10);
        let err = execute(&w, &layout, &mut p, cfg).unwrap_err();
        assert!(
            matches!(
                err,
                Error::DeadlineExceeded {
                    budget_cycles: 10,
                    ..
                }
            ),
            "wanted DeadlineExceeded, got {err:?}"
        );
    }
}
