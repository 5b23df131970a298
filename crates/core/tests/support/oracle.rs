//! The one reference simulator: a deliberately naive model of the
//! scheduling engine that every differential test compares
//! [`lams_core::execute`] against (`#[path]`-included by the suites in
//! `crates/core/tests` and by the root `tests/cross_validation.rs`;
//! compiled into no library).
//!
//! It re-collects the ready set, rescans every core and re-enters the
//! dispatch loop after *every* trace op — the seed engine's loop — with
//! no batching, no IR, no heap and no memo, and it is fed by the scalar
//! [`Workload::trace`] iterator, so agreeing with it also cross-checks
//! the trace compiler. Because it always advances the minimum
//! `(key, core)` position by exactly one op, it issues bus requests in
//! global time order. Slow but obviously time-ordered: the batched
//! engine must reproduce its schedules, statistics and typed errors bit
//! for bit, in batch and open-system mode, under both bus modes, with
//! and without a deadline.
//!
//! It shares no model with what it checks, either: every op runs on the
//! naive machine of `crates/mpsoc/tests/support/naive.rs` — linear-scan
//! caches and 3C shadow, and bus rules written from
//! `docs/bus-model.md` — never on `lams_mpsoc`'s cache, arbiter or
//! executors. Its global `(clock, core)` order *is* FCFS order, so a
//! miss on a bus without epochs is granted the moment it issues; only on
//! a bus with epochs does a missing core wait, keyed at its boundary.
//!
//! Where the loop has to *encode* an engine convention instead of
//! deriving it, the comment at that spot says so.
#![allow(dead_code)] // each including suite uses a subset

use std::collections::BTreeMap;

use lams_core::{execute, ArrivalPlan, EngineConfig, Error, Policy, ProcessExec, RunResult};
use lams_layout::Layout;
use lams_mpsoc::{CoreId, MachineStats};
use lams_procgraph::{ProcessId, ReadyTracker};
use lams_workloads::{Trace, Workload};

#[path = "../../../mpsoc/tests/support/naive.rs"]
mod naive;

use naive::NaiveMachine;

/// Everything the differential tests compare, from either simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    /// Makespan, bus waits, busy cycles, cache hits/misses and 3C split.
    pub machine: MachineStats,
    pub core_sequences: Vec<Vec<ProcessId>>,
    /// Per process: completing core, first start, finish, dispatches.
    pub processes: BTreeMap<ProcessId, ProcessExec>,
    /// Open-system runs only: `(queue_depth_peak, plan checksum)`.
    pub arrivals: Option<(usize, u64)>,
}

/// Projects an engine result onto the compared fields.
pub fn observe(r: &RunResult) -> Observed {
    Observed {
        machine: r.machine.clone(),
        core_sequences: r.core_sequences.clone(),
        processes: r.processes.clone(),
        arrivals: r
            .arrivals
            .as_ref()
            .map(|m| (m.queue_depth_peak, m.plan_checksum)),
    }
}

/// A fresh-policy factory: engine and oracle each get their own instance.
pub type PolicyFactory<'a> = dyn Fn() -> Box<dyn Policy> + 'a;

/// Runs the engine and the oracle on one configuration and asserts they
/// agree — on every [`Observed`] field, or on the typed error field by
/// field. Returns the engine's outcome.
pub fn check(
    workload: &Workload,
    layout: &Layout,
    make: &PolicyFactory<'_>,
    config: EngineConfig,
) -> Result<RunResult, Error> {
    let got = execute(workload, layout, make().as_mut(), config);
    let want = simulate(workload, layout, make().as_mut(), config);
    assert_eq!(
        got.as_ref().map(observe).map_err(Clone::clone),
        want,
        "engine (left) diverged from the oracle (right): {} under {} with {config:?}",
        workload.name(),
        make().name(),
    );
    got
}

struct Slot<'a> {
    pid: ProcessId,
    trace: Trace<'a>,
    quantum_end: Option<u64>,
    /// The quantum was crossed by a bus-stalled access: preempt at the
    /// next selection instead of eagerly.
    lazy_preempt: bool,
}

/// The naive simulation of `workload` under `policy`.
pub fn simulate(
    workload: &Workload,
    layout: &Layout,
    policy: &mut dyn Policy,
    config: EngineConfig,
) -> Result<Observed, Error> {
    config.machine.validate()?;
    let mut machine = NaiveMachine::new(config.machine);
    let cores = machine.num_cores();
    let n = workload.num_processes();
    let mut tracker = ReadyTracker::new(workload.epg());
    let mut ready_at: BTreeMap<ProcessId, u64> = BTreeMap::new();
    let mut paused: BTreeMap<ProcessId, Trace<'_>> = BTreeMap::new();
    // Blocked-on-bus cores: the latched request's epoch boundary is the
    // core's scheduling key until the access completes. Only a window
    // of two cycles or more has epochs to wait for.
    let epochs = config
        .machine
        .bus
        .is_some_and(|b| b.window().is_some_and(|w| w > 1));
    let mut blocked: Vec<Option<u64>> = vec![None; cores];
    let mut running: Vec<Option<Slot<'_>>> = (0..cores).map(|_| None).collect();
    let mut last_on_core: Vec<Option<ProcessId>> = vec![None; cores];
    let mut core_sequences: Vec<Vec<ProcessId>> = vec![Vec::new(); cores];
    let mut execs: BTreeMap<ProcessId, ProcessExec> = BTreeMap::new();

    // Open system: a process is dispatchable once it has *arrived* and
    // its dependences are met. Service demand is the declared scalar
    // trace length (the engine reads the compiled programs' op counts).
    let plan = config.arrivals.map(|a| {
        let service: Vec<u64> = workload
            .process_ids()
            .map(|p| workload.trace_len(p))
            .collect();
        ArrivalPlan::generate(a, &service, cores)
    });
    let mut arrived = vec![plan.is_none(); n];
    let mut next_arrival = 0;
    // Admitted-and-ready queue depth and its high-water mark.
    let (mut queued, mut queue_peak) = (0usize, 0usize);

    if plan.is_none() {
        for p in tracker.ready().collect::<Vec<_>>() {
            ready_at.insert(p, 0);
            policy.on_ready(p, 0);
            queued += 1;
        }
    }

    // The next scheduling position: the smallest (key, index) over
    // busy cores — keyed at their clock, or at their epoch boundary
    // while bus-blocked — and the pending arrival, which carries the
    // index one past the last core so it sorts after every core
    // event of the same cycle (engine convention).
    let next_event = |machine: &NaiveMachine,
                      running: &[Option<Slot<'_>>],
                      blocked: &[Option<u64>],
                      next_arrival: usize| {
        let busy = (0..cores)
            .filter(|&c| running[c].is_some())
            .map(|c| (blocked[c].unwrap_or_else(|| machine.clock(c)), c));
        let arrival = plan.as_ref().filter(|_| next_arrival < n);
        busy.chain(arrival.map(|p| (p.time(next_arrival), cores)))
            .min()
    };

    loop {
        // Dispatch ready processes onto idle cores one at a time. A
        // dispatch at time `t` must wait until no pending event could
        // still fire at a time `<= t`.
        loop {
            let ready: Vec<ProcessId> = tracker.ready().filter(|p| arrived[p.as_usize()]).collect();
            let Some(min_ready_at) = ready.iter().map(|p| ready_at[p]).min() else {
                break;
            };
            let horizon = next_event(&machine, &running, &blocked, next_arrival).map(|(t, _)| t);
            let idle: Vec<(CoreId, Option<ProcessId>, u64)> = (0..cores)
                .filter(|&c| running[c].is_none())
                .map(|c| (c, last_on_core[c], machine.clock(c)))
                .filter(|&(_, _, clock)| horizon.is_none_or(|h| clock.max(min_ready_at) < h))
                .collect();
            if idle.is_empty() {
                break;
            }
            let pick = policy
                .rank_idle(&idle, &ready)
                .into_iter()
                .find_map(|c| Some((c, policy.select(c, last_on_core[c], &ready)?)));
            let Some((core, pid)) = pick else { break };
            tracker.start(pid)?;
            queued -= 1;
            let start = machine.clock(core).max(ready_at[&pid]);
            machine.wait_until(core, start);
            running[core] = Some(Slot {
                pid,
                trace: paused
                    .remove(&pid)
                    .unwrap_or_else(|| workload.trace(pid, layout)),
                quantum_end: config
                    .quantum_override
                    .or(policy.quantum())
                    .map(|q| start + q),
                lazy_preempt: false,
            });
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
        }

        let Some((key, core)) = next_event(&machine, &running, &blocked, next_arrival) else {
            assert!(tracker.all_done(), "oracle stalled");
            break;
        };
        // Nothing can happen before `key` any more, so a key past the
        // budget means the run cannot finish within it.
        if let Some(budget) = config.max_cycles.filter(|&b| key > b) {
            return Err(Error::DeadlineExceeded {
                budget_cycles: budget,
                elapsed_cycles: key,
            });
        }
        if core == cores {
            // Admit everything arriving at this cycle, in id order. Only
            // admission-driven growth can overflow the bounded queue.
            let plan = plan.as_ref().expect("arrival event implies a plan");
            while next_arrival < n && plan.time(next_arrival) <= key {
                let pid = ProcessId::new(next_arrival as u32);
                arrived[next_arrival] = true;
                next_arrival += 1;
                if tracker.is_ready(pid) {
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
            }
            continue;
        }

        let slot = running[core].as_mut().expect("selected core is busy");
        let crossed =
            |m: &NaiveMachine, s: &Slot<'_>| s.quantum_end.is_some_and(|qe| m.clock(core) >= qe);
        let preempt = if blocked[core].take().is_some() {
            // The blocked core's boundary reached the front: every
            // same-epoch request is latched, so the batch resolves in
            // (request-time, core-id) order and the stalled access
            // completes. Engine convention (`docs/bus-model.md`): a
            // quantum crossed by a bus-stalled access preempts lazily,
            // at the core's next selection — position (completion
            // clock, core) — because the crossing is only decidable
            // once the epoch grant exists. All other crossings preempt
            // eagerly, as in the seed engine.
            machine.complete(core);
            slot.lazy_preempt = crossed(&machine, slot);
            false
        } else if slot.lazy_preempt {
            true
        } else if let Some(op) = slot.trace.next() {
            if let Some(key) = machine.issue(core, op) {
                if epochs {
                    // The grant waits for every same-boundary request.
                    blocked[core] = Some(key);
                } else {
                    // This op is the globally earliest, so
                    // `max(request, bus_free)` is its FCFS grant now.
                    machine.complete(core);
                }
            }
            blocked[core].is_none() && crossed(&machine, slot)
        } else {
            // The empty trace is discovered at the core's next
            // selection, i.e. at position (finish clock, core).
            let now = machine.clock(core);
            let pid = slot.pid;
            running[core] = None;
            let e = execs
                .get_mut(&pid)
                .expect("completed process was dispatched");
            (e.finish, e.core) = (now, core);
            for succ in tracker.complete(pid)? {
                // Not yet arrived: admission announces it later.
                if arrived[succ.as_usize()] {
                    ready_at.insert(succ, now);
                    policy.on_ready(succ, now);
                    queued += 1;
                    queue_peak = queue_peak.max(queued);
                }
            }
            continue;
        };
        if preempt {
            // Re-entry, not admission: moves the peak, never sheds.
            let Slot { pid, trace, .. } = running[core].take().expect("selected core is busy");
            paused.insert(pid, trace);
            tracker.preempt(pid)?;
            let now = machine.clock(core);
            ready_at.insert(pid, now);
            policy.on_preempt(pid, now);
            queued += 1;
            queue_peak = queue_peak.max(queued);
        }
    }

    Ok(Observed {
        machine: machine.stats(),
        core_sequences,
        processes: execs,
        arrivals: plan.map(|p| (queue_peak, p.checksum())),
    })
}
