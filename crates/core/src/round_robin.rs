//! RRS — round-robin scheduling (Section 4, strategy 2).

use std::collections::VecDeque;

use lams_mpsoc::CoreId;
use lams_procgraph::ProcessId;

use crate::Policy;

/// Default preemption quantum in cycles: 10 000 cycles = 50 µs at the
/// paper's 200 MHz — a fine-grained embedded RTOS tick. The paper does
/// not state its quantum; the `lams-bench` sweep binary explores the
/// sensitivity to this choice.
pub const DEFAULT_QUANTUM: u64 = 10_000;

/// The paper's RRS: "a preemptive FCFS scheduling ... a ready queue for
/// processes (as FIFO). New processes are added to the tail of the
/// queue, and the scheduler selects the first process from the ready
/// queue, sets a timer, and schedules it. When the timer is off, the
/// process relinquishes the core ... all cores take their processes from
/// a common ready queue."
#[derive(Debug, Clone)]
pub struct RoundRobinPolicy {
    queue: VecDeque<ProcessId>,
    quantum: u64,
}

impl RoundRobinPolicy {
    /// Creates the policy with the given preemption quantum (cycles).
    ///
    /// # Panics
    ///
    /// Panics when `quantum == 0`.
    pub fn new(quantum: u64) -> Self {
        assert!(quantum > 0, "quantum must be non-zero");
        RoundRobinPolicy {
            queue: VecDeque::new(),
            quantum,
        }
    }
}

impl Default for RoundRobinPolicy {
    fn default() -> Self {
        RoundRobinPolicy::new(DEFAULT_QUANTUM)
    }
}

impl Policy for RoundRobinPolicy {
    fn name(&self) -> &str {
        "RRS"
    }

    /// New ready processes join the tail of the shared queue.
    fn on_ready(&mut self, p: ProcessId, _now: u64) {
        debug_assert!(!self.queue.contains(&p), "{p} enqueued twice");
        self.queue.push_back(p);
    }

    /// Preempted processes also rejoin at the tail (FCFS re-queue).
    fn on_preempt(&mut self, p: ProcessId, now: u64) {
        self.on_ready(p, now);
    }

    fn select(
        &mut self,
        _core: CoreId,
        _last: Option<ProcessId>,
        ready: &[ProcessId],
    ) -> Option<ProcessId> {
        let head = self.queue.pop_front()?;
        debug_assert!(
            ready.contains(&head),
            "queue head {head} not in engine ready set"
        );
        Some(head)
    }

    fn quantum(&self) -> Option<u64> {
        Some(self.quantum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn fifo_order() {
        let mut p = RoundRobinPolicy::new(100);
        p.on_ready(pid(2), 0);
        p.on_ready(pid(0), 0);
        p.on_ready(pid(1), 0);
        let ready = vec![pid(0), pid(1), pid(2)];
        assert_eq!(p.select(0, None, &ready), Some(pid(2)));
        assert_eq!(p.select(1, None, &ready), Some(pid(0)));
        assert_eq!(p.select(2, None, &ready), Some(pid(1)));
        assert_eq!(p.select(3, None, &ready), None);
    }

    #[test]
    fn preempted_goes_to_tail() {
        let mut p = RoundRobinPolicy::new(100);
        p.on_ready(pid(0), 0);
        p.on_ready(pid(1), 0);
        let ready = vec![pid(0), pid(1)];
        assert_eq!(p.select(0, None, &ready), Some(pid(0)));
        p.on_preempt(pid(0), 100);
        assert_eq!(p.select(0, None, &ready), Some(pid(1)));
        assert_eq!(p.select(0, None, &ready), Some(pid(0)));
    }

    #[test]
    fn quantum_is_reported() {
        assert_eq!(RoundRobinPolicy::new(123).quantum(), Some(123));
        assert_eq!(RoundRobinPolicy::default().quantum(), Some(DEFAULT_QUANTUM));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_quantum_rejected() {
        let _ = RoundRobinPolicy::new(0);
    }
}
