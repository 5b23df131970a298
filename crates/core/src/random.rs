//! RS — random scheduling (Section 4, strategy 1).

use lams_mpsoc::{CoreId, SplitMix64};
use lams_procgraph::ProcessId;

use crate::Policy;

/// The paper's baseline RS: "each process is assigned to an available
/// core randomly without any concern for data reuse. Once scheduled,
/// each process runs to completion."
///
/// Seeded for reproducibility; two policies with the same seed produce
/// identical schedules on identical workloads.
#[derive(Debug, Clone)]
pub struct RandomPolicy {
    rng: SplitMix64,
}

impl RandomPolicy {
    /// Creates the policy with an RNG seed.
    pub fn new(seed: u64) -> Self {
        RandomPolicy {
            rng: SplitMix64::new(seed),
        }
    }
}

impl Default for RandomPolicy {
    fn default() -> Self {
        RandomPolicy::new(0)
    }
}

impl Policy for RandomPolicy {
    fn name(&self) -> &str {
        "RS"
    }

    fn on_ready(&mut self, _p: ProcessId, _now: u64) {}

    fn select(
        &mut self,
        _core: CoreId,
        _last: Option<ProcessId>,
        ready: &[ProcessId],
    ) -> Option<ProcessId> {
        if ready.is_empty() {
            None
        } else {
            Some(ready[(self.rng.next_u64() % ready.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn picks_from_ready_only() {
        let mut p = RandomPolicy::new(7);
        let ready = vec![pid(3), pid(5), pid(9)];
        for _ in 0..50 {
            let got = p.select(0, None, &ready).unwrap();
            assert!(ready.contains(&got));
        }
        assert_eq!(p.select(0, None, &[]), None);
    }

    #[test]
    fn deterministic_per_seed() {
        let ready: Vec<ProcessId> = (0..10).map(pid).collect();
        let run = |seed| {
            let mut p = RandomPolicy::new(seed);
            (0..20)
                .map(|_| p.select(0, None, &ready).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn runs_to_completion() {
        assert_eq!(RandomPolicy::default().quantum(), None);
    }
}
