//! LS — the locality-aware scheduling heuristic (Section 3, Figure 3).

use std::collections::BTreeSet;
use std::sync::Arc;

use lams_mpsoc::CoreId;
use lams_procgraph::ProcessId;

use crate::{Policy, SharingMatrix};

/// The paper's greedy locality-aware scheduler (Figure 3).
///
/// Two phases:
///
/// 1. **Initialization** — the dependence-free processes are the
///    candidates for the first round. If there are more candidates than
///    cores, the candidate with the *maximum* total sharing with the
///    other candidates is evicted repeatedly until exactly `X` remain
///    (concurrent processes that share data would only duplicate lines
///    across private caches, so the first concurrent wave should share as
///    little as possible). Evicted candidates return to the pool and are
///    scheduled later by phase 2.
/// 2. **Steady state** — whenever a core frees up, the ready process with
///    the *maximum* sharing with the process that previously ran on that
///    core is dispatched there (`|SS_{i,j}| >= |SS_{i,k}|` for all `k`),
///    maximizing reuse of the cache contents the previous process left
///    behind.
///
/// Ties break toward the smallest process id, making the schedule
/// deterministic. Processes run to completion (no quantum), as in the
/// paper.
#[derive(Debug, Clone)]
pub struct LocalityPolicy {
    /// Shared, not owned: an LSM run hands one matrix to its pilot and
    /// every ladder candidate
    /// ([`PolicyKind::scheduler`](crate::PolicyKind::scheduler)), so the
    /// policy borrows it via `Arc` instead of cloning O(n²) data.
    sharing: Arc<SharingMatrix>,
    num_cores: usize,
    /// Thinning toggle: `false` reproduces the paper exactly; `true`
    /// skips the initialization phase (ablation A1, the `ablation`
    /// binary in `crates/bench`).
    skip_initial_thinning: bool,
    /// The thinned first-round candidate set, drained by early selects;
    /// `None` once phase 1 is over.
    first_round: Option<BTreeSet<ProcessId>>,
    initialized: bool,
}

impl LocalityPolicy {
    /// Creates the policy for a machine with `num_cores` cores. Accepts
    /// the matrix owned (tests, one-off runs) or `Arc`-shared (memoized
    /// sweeps) — `impl Into<Arc<_>>` covers both without a copy.
    pub fn new(sharing: impl Into<Arc<SharingMatrix>>, num_cores: usize) -> Self {
        LocalityPolicy {
            sharing: sharing.into(),
            num_cores,
            skip_initial_thinning: false,
            first_round: None,
            initialized: false,
        }
    }

    /// Disables the Figure 3 initialization phase (for ablation).
    pub fn without_initial_thinning(mut self) -> Self {
        self.skip_initial_thinning = true;
        self
    }

    /// Phase 1: thin the candidate set to at most `num_cores` members by
    /// repeatedly evicting the max-total-sharing candidate.
    fn thin(&self, ready: &[ProcessId]) -> BTreeSet<ProcessId> {
        let mut in_set: BTreeSet<ProcessId> = ready.iter().copied().collect();
        while in_set.len() > self.num_cores {
            let evict = in_set
                .iter()
                .copied()
                .max_by_key(|&p| {
                    (
                        self.sharing
                            .total_with(p, in_set.iter().copied().filter(|&q| q != p)),
                        // Deterministic tie-break: prefer evicting the
                        // *largest* id so low ids stay in round one.
                        p,
                    )
                })
                .expect("non-empty candidate set");
            in_set.remove(&evict);
        }
        in_set
    }
}

impl Policy for LocalityPolicy {
    fn name(&self) -> &str {
        "LS"
    }

    fn on_ready(&mut self, _p: ProcessId, _now: u64) {}

    fn select(
        &mut self,
        _core: CoreId,
        last: Option<ProcessId>,
        ready: &[ProcessId],
    ) -> Option<ProcessId> {
        if ready.is_empty() {
            return None;
        }
        if !self.initialized {
            self.initialized = true;
            if !self.skip_initial_thinning {
                self.first_round = Some(self.thin(ready));
            }
        }
        // Phase 1: drain the thinned set.
        if let Some(set) = &mut self.first_round {
            let pick = set.iter().copied().find(|p| ready.contains(p));
            match pick {
                Some(p) => {
                    set.remove(&p);
                    if set.is_empty() {
                        self.first_round = None;
                    }
                    return Some(p);
                }
                None => self.first_round = None,
            }
        }
        // Phase 2: maximize sharing with the previous process on this
        // core; ties (and cores with no history) take the smallest id.
        match last {
            Some(prev) => ready.iter().copied().max_by(|&a, &b| {
                self.sharing
                    .get(prev, a)
                    .cmp(&self.sharing.get(prev, b))
                    // On equal sharing prefer the smaller id: reverse
                    // the id ordering under `max_by`.
                    .then_with(|| b.cmp(&a))
            }),
            None => ready.first().copied(),
        }
    }

    /// The core that can realize the most reuse picks first: idle cores
    /// are ordered by the best sharing between their previous process and
    /// any ready process, descending (then clock, then id). Without this
    /// a newly-ready consumer would go to whichever core idled longest,
    /// wasting the producer's cache contents.
    fn rank_idle(
        &mut self,
        idle: &[(CoreId, Option<ProcessId>, u64)],
        ready: &[ProcessId],
    ) -> Vec<CoreId> {
        let mut scored: Vec<(u64, u64, CoreId)> = idle
            .iter()
            .map(|&(core, last, clock)| {
                let best = last
                    .map(|prev| {
                        ready
                            .iter()
                            .map(|&q| self.sharing.get(prev, q))
                            .max()
                            .unwrap_or(0)
                    })
                    .unwrap_or(0);
                (u64::MAX - best, clock, core)
            })
            .collect();
        scored.sort_unstable();
        scored.into_iter().map(|(_, _, c)| c).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lams_workloads::{prog1, Workload};

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn prog1_sharing() -> SharingMatrix {
        let w = Workload::single(prog1()).unwrap();
        SharingMatrix::from_workload(&w)
    }

    #[test]
    fn initial_thinning_minimizes_mutual_sharing() {
        // Prog1 on 4 cores: 8 candidates must thin to 4. Neighbouring
        // processes share the most, so a maximally-spread subset like
        // {0, 3, 5(or others), 7} should survive — crucially, no
        // *adjacent* pair survives unless unavoidable.
        let m = prog1_sharing();
        let ls = LocalityPolicy::new(m, 4);
        let ready: Vec<ProcessId> = (0..8).map(pid).collect();
        let survivors = ls.thin(&ready);
        assert_eq!(survivors.len(), 4);
        let ids: Vec<u32> = survivors.iter().map(|p| p.index()).collect();
        // End processes (0 and 7) have the least total sharing and must
        // survive the greedy eviction.
        assert!(
            ids.contains(&0),
            "P0 evicted despite minimal sharing: {ids:?}"
        );
        assert!(
            ids.contains(&7),
            "P7 evicted despite minimal sharing: {ids:?}"
        );
    }

    #[test]
    fn steady_state_picks_max_sharing_successor() {
        let m = prog1_sharing();
        let mut ls = LocalityPolicy::new(m, 4);
        // Skip phase 1 for this unit test. Previous process on the core
        // was P3; P2 and P4 share 2000 with it, P1/P5 share 1000.
        // Smallest id among the 2000-sharers wins.
        ls.initialized = true;
        let ready = vec![pid(1), pid(2), pid(4), pid(5)];
        assert_eq!(ls.select(0, Some(pid(3)), &ready), Some(pid(2)));
        // Without P2: P4 wins.
        let ready = vec![pid(1), pid(4), pid(5)];
        assert_eq!(ls.select(0, Some(pid(3)), &ready), Some(pid(4)));
        // No sharing at all: smallest id.
        let ready = vec![pid(6), pid(7)];
        assert_eq!(ls.select(0, Some(pid(0)), &ready), Some(pid(6)));
    }

    #[test]
    fn fresh_core_takes_smallest_ready() {
        let m = prog1_sharing();
        let mut ls = LocalityPolicy::new(m, 8);
        ls.initialized = true;
        // The engine always passes the ready set in ascending id order.
        assert_eq!(ls.select(2, None, &[pid(3), pid(5)]), Some(pid(3)));
    }

    #[test]
    fn first_round_drains_thinned_set() {
        let m = prog1_sharing();
        let mut ls = LocalityPolicy::new(m, 4);
        let ready: Vec<ProcessId> = (0..8).map(pid).collect();
        let mut first_round_picks = BTreeSet::new();
        for core in 0..4 {
            let p = ls.select(core, None, &ready).unwrap();
            first_round_picks.insert(p);
        }
        assert_eq!(first_round_picks.len(), 4);
        assert!(ls.first_round.is_none(), "phase 1 must end after X picks");
        // Later selects use phase 2.
        let p = ls.select(0, Some(pid(0)), &[pid(1)]).unwrap();
        assert_eq!(p, pid(1));
    }

    #[test]
    fn thinning_can_be_disabled() {
        let m = prog1_sharing();
        let mut ls = LocalityPolicy::new(m, 4).without_initial_thinning();
        let ready: Vec<ProcessId> = (0..8).map(pid).collect();
        // With no last process and no thinning, first pick is simply P0.
        assert_eq!(ls.select(0, None, &ready), Some(pid(0)));
        assert!(ls.first_round.is_none());
    }

    #[test]
    fn runs_to_completion() {
        assert_eq!(LocalityPolicy::new(prog1_sharing(), 4).quantum(), None);
    }
}
