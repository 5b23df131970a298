//! The scheduling-policy abstraction shared by the four schedulers.

use std::fmt;
use std::sync::Arc;

use lams_mpsoc::CoreId;
use lams_procgraph::ProcessId;

use crate::{LocalityPolicy, RandomPolicy, RoundRobinPolicy, SharingMatrix};

/// A process scheduling policy, driven by the engine ([`crate::execute`]).
///
/// The engine calls [`Policy::on_ready`] whenever a process becomes
/// dispatchable (its dependences resolved, or it was preempted back into
/// the ready state) and [`Policy::select`] whenever a core is idle and at
/// least one process is ready. A policy returning `Some(p)` commits `p`
/// to that core; returning `None` leaves the core idle until the next
/// scheduling event.
///
/// # Contract
///
/// A policy must eventually dispatch every ready process: if every core
/// is idle and `select` still returns `None` for all of them, the engine
/// reports [`crate::Error::EngineStalled`].
pub trait Policy {
    /// Short name for reports (e.g. `"LS"`).
    fn name(&self) -> &str;

    /// A process became ready at `now` (engine cycles).
    fn on_ready(&mut self, p: ProcessId, now: u64);

    /// A running process was preempted at `now` and is ready again.
    /// Defaults to treating it like a fresh ready event.
    fn on_preempt(&mut self, p: ProcessId, now: u64) {
        self.on_ready(p, now);
    }

    /// Chooses the next process for `core` from `ready` (ascending ids).
    /// `last` is the process most recently *dispatched* on this core, if
    /// any — the paper's "previous scheduled process on core\[k\]".
    fn select(
        &mut self,
        core: CoreId,
        last: Option<ProcessId>,
        ready: &[ProcessId],
    ) -> Option<ProcessId>;

    /// Orders the idle cores for dispatch when several cores are free at
    /// once. Entries are `(core, last_dispatched, local_clock)`; the
    /// engine offers `select` to cores in the returned order and
    /// re-ranks after every dispatch.
    ///
    /// The default is earliest-clock-first (FCFS over cores). The
    /// locality-aware policy overrides this so that the core whose
    /// *previous* process shares the most data with some ready process
    /// gets first pick — without this, a newly-ready consumer would be
    /// grabbed by whichever core happened to idle longest, squandering
    /// the producer's cache contents.
    fn rank_idle(
        &mut self,
        idle: &[(CoreId, Option<ProcessId>, u64)],
        ready: &[ProcessId],
    ) -> Vec<CoreId> {
        let _ = ready;
        let mut order: Vec<(u64, CoreId)> = idle.iter().map(|&(c, _, t)| (t, c)).collect();
        order.sort_unstable();
        order.into_iter().map(|(_, c)| c).collect()
    }

    /// Preemption quantum in cycles; `None` runs processes to completion.
    fn quantum(&self) -> Option<u64> {
        None
    }
}

/// The four schedulers evaluated in Section 4 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// RS — random core assignment, run to completion.
    Random,
    /// RRS — preemptive FCFS from one shared FIFO ready queue.
    RoundRobin,
    /// LS — locality-aware scheduling (Figure 3), no data mapping.
    Locality,
    /// LSM — LS plus the conflict-avoiding data mapping (Figures 4–5).
    LocalityMap,
}

impl PolicyKind {
    /// All four, in the paper's presentation order.
    pub const ALL: &'static [PolicyKind] = &[
        PolicyKind::Random,
        PolicyKind::RoundRobin,
        PolicyKind::Locality,
        PolicyKind::LocalityMap,
    ];

    /// The paper's abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            PolicyKind::Random => "RS",
            PolicyKind::RoundRobin => "RRS",
            PolicyKind::Locality => "LS",
            PolicyKind::LocalityMap => "LSM",
        }
    }

    /// The scheduler of this kind on a `cores`-core machine: RS draws
    /// from `seed`, RRS preempts every `quantum` cycles, and LS and LSM
    /// schedule by the matrix `sharing` builds, called only for them.
    /// LSM schedules as LS; its data mapping is the layout the caller
    /// runs it on ([`Experiment`](crate::Experiment)).
    ///
    /// # Panics
    ///
    /// Panics for RRS when `quantum` is 0.
    pub fn scheduler(
        self,
        seed: u64,
        quantum: u64,
        cores: usize,
        sharing: impl FnOnce() -> Arc<SharingMatrix>,
    ) -> Box<dyn Policy> {
        match self {
            PolicyKind::Random => Box::new(RandomPolicy::new(seed)),
            PolicyKind::RoundRobin => Box::new(RoundRobinPolicy::new(quantum)),
            PolicyKind::Locality | PolicyKind::LocalityMap => {
                Box::new(LocalityPolicy::new(sharing(), cores))
            }
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = String;

    /// Parses an abbreviation (`rs`, `rrs`, `ls`, `lsm`) in any case.
    fn from_str(s: &str) -> std::result::Result<Self, String> {
        PolicyKind::ALL
            .iter()
            .copied()
            .find(|k| k.abbrev().eq_ignore_ascii_case(s))
            .ok_or_else(|| format!("unknown policy '{s}' (expected rs|rrs|ls|lsm)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abbreviations() {
        assert_eq!(PolicyKind::Random.to_string(), "RS");
        assert_eq!(PolicyKind::RoundRobin.to_string(), "RRS");
        assert_eq!(PolicyKind::Locality.to_string(), "LS");
        assert_eq!(PolicyKind::LocalityMap.to_string(), "LSM");
        assert_eq!(PolicyKind::ALL.len(), 4);
    }

    #[test]
    fn names_round_trip_in_any_case() {
        for &k in PolicyKind::ALL {
            let name = k.to_string();
            assert_eq!(name.parse(), Ok(k));
            assert_eq!(name.to_ascii_lowercase().parse(), Ok(k));
        }
        assert_eq!("Lsm".parse(), Ok(PolicyKind::LocalityMap));
        assert!("warp9".parse::<PolicyKind>().is_err());
    }

    #[test]
    fn scheduler_builds_the_matrix_only_for_locality_kinds() {
        let matrix = || -> Arc<SharingMatrix> { panic!("RS and RRS never read a matrix") };
        assert_eq!(PolicyKind::Random.scheduler(1, 5, 4, matrix).name(), "RS");
        assert_eq!(
            PolicyKind::RoundRobin.scheduler(1, 5, 4, matrix).name(),
            "RRS"
        );
        let w = lams_workloads::Workload::single(lams_workloads::prog1()).unwrap();
        let built = || Arc::new(SharingMatrix::from_workload(&w));
        assert_eq!(PolicyKind::Locality.scheduler(1, 5, 4, built).name(), "LS");
        assert_eq!(
            PolicyKind::LocalityMap.scheduler(1, 5, 4, built).name(),
            "LS"
        );
        assert_eq!(
            PolicyKind::RoundRobin.scheduler(1, 5, 4, matrix).quantum(),
            Some(5)
        );
    }
}
