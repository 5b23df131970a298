//! The event-driven scheduling engine: dispatches processes onto the
//! MPSoC in global time order, honouring dependences and preemption.
//!
//! # Hot-path design
//!
//! The engine advances the busy core with the smallest local clock. The
//! seed implementation re-collected the ready set, rescanned every core
//! for the minimum busy clock and re-entered the dispatch loop after
//! *every trace op* — O(cores + ready) of allocation and scanning per
//! simulated memory reference. This implementation batches instead:
//!
//! * busy cores live in a small min-heap holding exactly one entry per
//!   busy core (popped on selection, re-pushed after the batch while
//!   the core stays busy);
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
//! * the ready/idle scratch vectors are reused across iterations.
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
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;

use lams_layout::Layout;
use lams_mpsoc::{CoreId, Machine, MachineConfig, MachineStats};
use lams_procgraph::{EpgBuilder, ProcessGraph, ProcessId, ReadyTracker};
use lams_trace::{Cursor, Program, TraceBundle};
use lams_workloads::Workload;

use crate::arrivals::{ArrivalConfig, ArrivalMetrics, ArrivalPlan};
use crate::{Error, Policy, Result};

/// Engine configuration: the machine plus an optional quantum override
/// (normally the quantum comes from the policy), an optional per-run
/// deadline and an optional open-system arrival stream.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// The simulated machine.
    pub machine: MachineConfig,
    /// When set, overrides the policy's preemption quantum.
    pub quantum_override: Option<u64>,
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
    /// deferred-event heap (as `RunState::ArrivalPending` entries), admission
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
            quantum_override: None,
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
    /// granted before this one can still be issued, and
    /// [`Machine::complete_bus_access`] takes the grant
    /// deterministically.
    BusPending,
    /// An open-system arrival event ([`EngineConfig::arrivals`]). These
    /// entries belong to no core: they are keyed `(arrival_cycle,
    /// sentinel)` where the sentinel index is one past the last real
    /// core, so an arrival fires in exact global order with every other
    /// deferred event (and, sorting after real cores at an equal key,
    /// only once all events of that cycle have been processed). When it
    /// pops, every process arriving at that cycle is admitted — marked
    /// arrived, enqueued if its dependences are already met, announced
    /// via `Policy::on_ready` — and the next pending arrival is
    /// re-queued. The heap is therefore never empty while arrivals
    /// remain, which is what keeps a too-tight deadline a clean
    /// [`Error::DeadlineExceeded`] instead of an
    /// [`Error::EngineStalled`] misclassification.
    ArrivalPending,
}

struct Running<'a> {
    pid: ProcessId,
    trace: Cursor<'a>,
    quantum_end: Option<u64>,
    state: RunState,
}

/// Executes `workload` on the configured machine under `policy`, with
/// array addresses resolved through `layout`.
///
/// Each process's trace is first compiled into a stride-run program
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
    run_engine(
        workload.epg(),
        &|p| &programs[p.as_usize()],
        policy,
        config.into(),
    )
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
    run_engine(
        workload.epg(),
        &|p| &programs[p.as_usize()],
        policy,
        config.into(),
    )
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
    run_engine(
        &builder.build()?,
        &|p| &bundle.records[p.as_usize()].program,
        policy,
        config.into(),
    )
}

/// The engine proper: runs the processes of `epg` under `policy`, each
/// executing the compiled trace `program(pid)` names.
///
/// In open-system mode the arrival plan is derived here, once: service
/// demand is each program's op count, which equals the workload's
/// declared trace length whatever the layout (the layout only moves
/// addresses, never op counts), so open-system runs stay comparable
/// across LSM candidate layouts and `.ltr` replays.
fn run_engine<'a>(
    epg: &ProcessGraph,
    program: &dyn Fn(ProcessId) -> &'a Program,
    policy: &mut dyn Policy,
    config: EngineConfig,
) -> Result<RunResult> {
    let n = epg.len();
    let plan = config.arrivals.map(|a| {
        let service: Vec<u64> = (0..n)
            .map(|i| program(ProcessId::new(i as u32)).len_ops())
            .collect();
        ArrivalPlan::generate(a, &service, config.machine.num_cores)
    });
    let mut machine = Machine::try_new(config.machine)?;
    let cores = machine.num_cores();
    let mut tracker = ReadyTracker::new(epg);
    let mut ready_at: BTreeMap<ProcessId, u64> = BTreeMap::new();
    let mut paused: BTreeMap<ProcessId, Cursor<'a>> = BTreeMap::new();
    let mut running: Vec<Option<Running<'_>>> = (0..cores).map(|_| None).collect();
    let mut last_on_core: Vec<Option<ProcessId>> = vec![None; cores];
    let mut core_sequences: Vec<Vec<ProcessId>> = vec![Vec::new(); cores];
    let mut execs: BTreeMap<ProcessId, ProcessExec> = BTreeMap::new();
    let quantum = |p: &dyn Policy| config.quantum_override.or(p.quantum());

    // Open-system admission state. In batch mode (`plan` is `None`)
    // every process has "arrived" up front and the per-event filters
    // below pass everything through — bit-identical to the pre-arrival
    // engine. Arrival events carry the sentinel index `cores` (one past
    // the last real core) in the busy heap; the pop handler resolves it
    // to [`RunState::ArrivalPending`] before touching any per-core slot.
    let open = plan.is_some();
    let arrival_key: usize = cores;
    let mut arrived: Vec<bool> = vec![!open; n];
    let mut dep_ready: Vec<bool> = vec![false; n];
    let mut next_arrival: usize = 0;
    // Admitted-and-ready queue accounting (open mode only): +1 when a
    // process becomes dispatchable (admission, dependence completion,
    // preemption re-entry), −1 on dispatch. The capacity bound sheds
    // on *admission-driven* growth; preemption re-entries only move the
    // high-water mark.
    let mut queued: usize = 0;
    let mut queue_peak: usize = 0;

    // Scratch buffers reused across iterations, and the busy-core
    // min-heap: exactly one entry per busy core (popped on selection,
    // re-pushed after each batch while the core stays busy). An entry's
    // key is the core's clock while executing, or the deferred event's
    // scheduling position after its batch ended in one — either way
    // `peek` is the next scheduling position, which for dispatch gating
    // coincides with the seed engine's minimum busy clock.
    let mut ready_vec: Vec<ProcessId> = Vec::new();
    let mut idle: Vec<(CoreId, Option<ProcessId>, u64)> = Vec::new();
    let mut busy: BinaryHeap<Reverse<(u64, CoreId)>> = BinaryHeap::with_capacity(cores);

    // Roots are dependence-ready at time zero; in batch mode they are
    // also immediately dispatchable, in open mode they wait for their
    // arrival event.
    for p in tracker.ready().collect::<Vec<_>>() {
        dep_ready[p.as_usize()] = true;
        if !open {
            ready_at.insert(p, 0);
            policy.on_ready(p, 0);
        }
    }
    if let Some(plan) = &plan {
        if !plan.is_empty() {
            busy.push(Reverse((plan.time(0), arrival_key)));
        }
    }

    loop {
        // Dispatch ready processes onto idle cores, one at a time, in the
        // policy's preferred core order (re-ranked after every dispatch so
        // the policy sees the shrinking ready set).
        //
        // Event-ordering rule: a dispatch at time `t` must not happen
        // while some busy core could still produce an event (completion,
        // preemption) at a time `<= t` — otherwise simultaneous
        // completions become visible one at a time and the policy commits
        // to stale information. Busy cores whose clocks are `<= t` are
        // advanced first; dispatching resumes once every busy clock is
        // strictly ahead of the candidate start time.
        loop {
            ready_vec.clear();
            ready_vec.extend(tracker.ready().filter(|p| arrived[p.as_usize()]));
            if ready_vec.is_empty() {
                break;
            }
            let min_busy_clock = busy.peek().map(|&Reverse((t, _))| t);
            let min_ready_at = ready_vec
                .iter()
                .map(|p| ready_at.get(p).copied().unwrap_or(0))
                .min()
                .unwrap_or(0);
            idle.clear();
            for c in 0..cores {
                if running[c].is_none() {
                    let clock = machine.core_clock(c).expect("core in range");
                    let earliest_start = clock.max(min_ready_at);
                    if min_busy_clock.is_none_or(|mb| earliest_start < mb) {
                        idle.push((c, last_on_core[c], clock));
                    }
                }
            }
            if idle.is_empty() {
                break;
            }
            let order = policy.rank_idle(&idle, &ready_vec);
            debug_assert!(
                order
                    .iter()
                    .all(|c| idle.iter().any(|&(ic, _, _)| ic == *c)),
                "rank_idle must return idle cores"
            );
            let mut dispatched = false;
            for core in order {
                let Some(pid) = policy.select(core, last_on_core[core], &ready_vec) else {
                    continue;
                };
                tracker.start(pid)?;
                if open {
                    queued -= 1;
                }
                let start = machine
                    .core_clock(core)?
                    .max(ready_at.get(&pid).copied().unwrap_or(0));
                machine.wait_until(core, start)?;
                let trace = paused
                    .remove(&pid)
                    .unwrap_or_else(|| Cursor::new(program(pid)));
                let quantum_end = quantum(policy).map(|q| start + q);
                running[core] = Some(Running {
                    pid,
                    trace,
                    quantum_end,
                    state: RunState::Executing,
                });
                busy.push(Reverse((start, core)));
                core_sequences[core].push(pid);
                last_on_core[core] = Some(pid);
                execs
                    .entry(pid)
                    .and_modify(|e| e.dispatches += 1)
                    .or_insert(ProcessExec {
                        core,
                        start,
                        finish: 0,
                        dispatches: 1,
                    });
                dispatched = true;
                break; // re-rank with the updated ready set
            }
            if !dispatched {
                break;
            }
        }

        // Select the busy core whose entry has the smallest (key, core).
        // An entry's key is the core's clock while executing, or a
        // deferred event's scheduling position once its batch ended in a
        // completion or preemption.
        let Some(Reverse((key, core))) = busy.pop() else {
            if tracker.all_done() {
                break;
            }
            return Err(Error::EngineStalled {
                ready: tracker.ready_len(),
            });
        };
        // Deadline: the popped key is the global scheduling position, so
        // `key > budget` means the simulation provably cannot complete
        // within the budget (every remaining event is at `>= key`). A run
        // whose makespan fits the budget never trips this — all its keys
        // are `<= makespan <= budget` — so accepted results are
        // bit-identical to an unbudgeted run.
        if let Some(budget) = config.max_cycles {
            if key > budget {
                return Err(Error::DeadlineExceeded {
                    budget_cycles: budget,
                    elapsed_cycles: key,
                });
            }
        }
        let state = if core == arrival_key {
            RunState::ArrivalPending
        } else {
            running[core].as_ref().expect("core is busy").state
        };
        let outcome = match state {
            RunState::ArrivalPending => {
                // Admit every process arriving at this cycle: mark it
                // arrived and, when its dependences are already met,
                // enqueue it (placement is re-invoked naturally — the
                // dispatch loop above re-ranks and re-selects with the
                // grown ready set on the next iteration). The admission
                // cursor walks the plan in process-id order, which is
                // also non-decreasing arrival order.
                let plan = plan.as_ref().expect("arrival event implies a plan");
                while next_arrival < n && plan.time(next_arrival) <= key {
                    let pid = ProcessId::new(next_arrival as u32);
                    arrived[next_arrival] = true;
                    if dep_ready[next_arrival] {
                        ready_at.insert(pid, key);
                        policy.on_ready(pid, key);
                        queued += 1;
                        queue_peak = queue_peak.max(queued);
                        if let Some(cap) = config.arrivals.and_then(|a| a.queue_capacity) {
                            if queued as u64 > cap {
                                return Err(Error::QueueSaturated {
                                    capacity: cap,
                                    depth: queued,
                                    at_cycle: key,
                                });
                            }
                        }
                    }
                    next_arrival += 1;
                }
                if next_arrival < n {
                    busy.push(Reverse((plan.time(next_arrival), arrival_key)));
                }
                continue;
            }
            RunState::FinishPending => {
                let now = machine.core_clock(core)?;
                debug_assert_eq!(now, key, "completion key is the finish clock");
                let Running { pid, .. } = running[core].take().expect("core is busy");
                if let Some(e) = execs.get_mut(&pid) {
                    e.finish = now;
                    e.core = core;
                }
                for succ in tracker.complete(pid)? {
                    dep_ready[succ.as_usize()] = true;
                    if arrived[succ.as_usize()] {
                        ready_at.insert(succ, now);
                        policy.on_ready(succ, now);
                        if open {
                            queued += 1;
                            queue_peak = queue_peak.max(queued);
                        }
                    }
                    // Not yet arrived: admission (above) announces it,
                    // at its arrival cycle, which is later than `now`.
                }
                continue;
            }
            RunState::PreemptPending => {
                // Ready again at the core's *post-op* clock, as in the
                // seed engine (the key was the crossing op's pre-clock).
                let now = machine.core_clock(core)?;
                let Running { pid, trace, .. } = running[core].take().expect("core is busy");
                paused.insert(pid, trace);
                tracker.preempt(pid)?;
                ready_at.insert(pid, now);
                policy.on_preempt(pid, now);
                if open {
                    // Re-entry, not admission: counts toward the queue
                    // high-water mark but never sheds (see above).
                    queued += 1;
                    queue_peak = queue_peak.max(queued);
                }
                continue;
            }
            // No request that precedes this one can still be issued
            // (see the RunState docs): take the grant and apply the
            // miss cost. The completion is policy-invisible — below, the
            // core resumes at its true clock, or preempts if the access
            // crossed the quantum, like after any other batch.
            RunState::BusPending => machine.complete_bus_access(core)?,
            RunState::Executing => {
                debug_assert_eq!(machine.core_clock(core)?, key, "stale heap entry");
                // Event horizon: nothing the policy can observe changes
                // before (a) this core's quantum expires, or (b) a gated
                // idle core becomes eligible for dispatch (every busy
                // clock passes its earliest start). Completion,
                // preemption and contended misses need no horizon —
                // they end the batch on their own and are re-queued as
                // deferred events at their exact scheduling position.
                let slot = running[core].as_ref().expect("core is busy");
                let mut horizon = slot.quantum_end.unwrap_or(u64::MAX);
                // Cap batches just past the deadline so one unbounded
                // batch (a quantum-free core running a huge trace)
                // cannot blow arbitrarily far past the budget before the
                // check above sees it. Splitting a batch never changes
                // results — batching is exact — it only bounds the
                // overshoot to one op's cost.
                if let Some(budget) = config.max_cycles {
                    horizon = horizon.min(budget.saturating_add(1));
                }
                let min_ready_at = tracker
                    .ready()
                    .filter(|p| arrived[p.as_usize()])
                    .map(|p| ready_at.get(&p).copied().unwrap_or(0))
                    .min();
                if let Some(min_ready_at) = min_ready_at {
                    for (c, slot) in running.iter().enumerate() {
                        if slot.is_none() {
                            let gate = machine.core_clock(c)?.max(min_ready_at) + 1;
                            horizon = horizon.min(gate);
                        }
                    }
                }
                let slot = running[core].as_mut().expect("core is busy");
                machine.exec_source_until(core, &mut slot.trace, horizon)?
            }
        };

        let slot = running[core].as_mut().expect("core is busy");
        let now = machine.core_clock(core)?;
        if let Some(key) = outcome.parked {
            // A miss on a contended bus latched its request: park the
            // core at the machine's key. The cost applies (and the
            // quantum check happens) when the entry pops.
            slot.state = RunState::BusPending;
            busy.push(Reverse((key, core)));
        } else if outcome.exhausted {
            // Defer: the seed engine discovered an empty trace at the
            // *next selection* of this core, i.e. when (finish, core)
            // becomes the minimum key.
            slot.state = RunState::FinishPending;
            busy.push(Reverse((now, core)));
        } else if slot.quantum_end.is_some_and(|qe| now >= qe) {
            // Defer to the crossing op's key (see RunState docs).
            slot.state = RunState::PreemptPending;
            busy.push(Reverse((outcome.preempt_key, core)));
        } else {
            slot.state = RunState::Executing;
            busy.push(Reverse((now, core)));
        }
    }

    let stats = machine.stats();
    let arrival_metrics = match &plan {
        None => None,
        Some(plan) => {
            let mut core_busy = Vec::with_capacity(cores);
            for c in 0..cores {
                core_busy.push(machine.core_stats(c)?.busy_cycles);
            }
            Some(ArrivalMetrics::collect(
                execs
                    .iter()
                    .map(|(p, e)| (plan.arrival(*p), e.start, e.finish)),
                queue_peak,
                &core_busy,
                stats.makespan_cycles,
                plan,
            ))
        }
    };
    Ok(RunResult {
        makespan_cycles: stats.makespan_cycles,
        seconds: config.machine.cycles_to_seconds(stats.makespan_cycles),
        machine: stats,
        core_sequences,
        processes: execs,
        arrivals: arrival_metrics,
    })
}

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
    fn quantum_override_forces_preemption_on_ls() {
        let w = Workload::single(prog1()).unwrap();
        let sharing = SharingMatrix::from_workload(&w);
        let mut ls = LocalityPolicy::new(sharing, 4);
        let layout = Layout::linear(w.arrays());
        let mut cfg = small_machine(4);
        cfg.quantum_override = Some(500);
        let r = execute(&w, &layout, &mut ls, cfg).unwrap();
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
