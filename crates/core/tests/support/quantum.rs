//! The one way a test gives a scheduler a preemption quantum it does not
//! have: [`with_quantum`] wraps any [`Policy`] in an adapter that
//! delegates every method to it and overrides only [`Policy::quantum`].
//! The engine and the oracle both read the quantum from the policy
//! alone, so wrapping LS or RS crosses those policies with quanta the
//! way RRS is run.
//!
//! `#[path]`-included by the quantum-crossing suites in
//! `crates/core/tests`, the engine's unit tests and the root
//! `tests/failure_injection.rs`. It names its types through `super`, so
//! the including module brings `Policy`, `CoreId` and `ProcessId` into
//! scope.

use super::{CoreId, Policy, ProcessId};

/// `policy` with its quantum replaced by `quantum` where that is `Some`;
/// `None` keeps the policy's own.
pub fn with_quantum(policy: Box<dyn Policy>, quantum: Option<u64>) -> Box<dyn Policy> {
    Box::new(WithQuantum { policy, quantum })
}

struct WithQuantum {
    policy: Box<dyn Policy>,
    quantum: Option<u64>,
}

impl Policy for WithQuantum {
    fn name(&self) -> &str {
        self.policy.name()
    }

    fn on_ready(&mut self, p: ProcessId, now: u64) {
        self.policy.on_ready(p, now);
    }

    fn on_preempt(&mut self, p: ProcessId, now: u64) {
        self.policy.on_preempt(p, now);
    }

    fn select(
        &mut self,
        core: CoreId,
        last: Option<ProcessId>,
        ready: &[ProcessId],
    ) -> Option<ProcessId> {
        self.policy.select(core, last, ready)
    }

    fn rank_idle(
        &mut self,
        idle: &[(CoreId, Option<ProcessId>, u64)],
        ready: &[ProcessId],
    ) -> Vec<CoreId> {
        self.policy.rank_idle(idle, ready)
    }

    fn quantum(&self) -> Option<u64> {
        self.quantum.or(self.policy.quantum())
    }
}
