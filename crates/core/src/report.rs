//! Comparison reports across scheduling strategies.

use std::fmt;

use lams_mpsoc::{EnergyModel, MachineConfig};

use crate::{PolicyKind, RunResult};

/// One policy's outcome within a comparison.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Which scheduler ran.
    pub kind: PolicyKind,
    /// The engine result.
    pub result: RunResult,
    /// Arrays remapped by the data-mapping phase (0 except for LSM).
    pub remapped_arrays: usize,
}

/// Results of running one workload under several schedulers — one bar
/// group of Figure 6, or one `|T|` cluster of Figure 7.
#[derive(Debug, Clone)]
pub struct ComparisonReport {
    workload: String,
    machine: MachineConfig,
    outcomes: Vec<RunOutcome>,
}

impl ComparisonReport {
    pub(crate) fn new(workload: String, machine: MachineConfig, outcomes: Vec<RunOutcome>) -> Self {
        ComparisonReport {
            workload,
            machine,
            outcomes,
        }
    }

    /// The workload name.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// The machine configuration used.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// All outcomes, in run order.
    pub fn outcomes(&self) -> &[RunOutcome] {
        &self.outcomes
    }

    /// The outcome for one scheduler, if it was run.
    pub fn outcome(&self, kind: PolicyKind) -> Option<&RunOutcome> {
        self.outcomes.iter().find(|o| o.kind == kind)
    }

    /// Completion time in cycles.
    ///
    /// # Panics
    ///
    /// Panics when `kind` was not part of the comparison.
    pub fn cycles(&self, kind: PolicyKind) -> u64 {
        self.expect(kind).result.makespan_cycles
    }

    /// Completion time in seconds.
    ///
    /// # Panics
    ///
    /// Panics when `kind` was not part of the comparison.
    pub fn seconds(&self, kind: PolicyKind) -> f64 {
        self.expect(kind).result.seconds
    }

    /// Speedup of `kind` relative to `base` (`> 1` means faster).
    ///
    /// # Panics
    ///
    /// Panics when either policy was not part of the comparison.
    pub fn speedup(&self, kind: PolicyKind, base: PolicyKind) -> f64 {
        self.cycles(base) as f64 / self.cycles(kind) as f64
    }

    /// Cache energy of a run under the given model, in millijoules.
    ///
    /// # Panics
    ///
    /// Panics when `kind` was not part of the comparison.
    pub fn energy_mj(&self, kind: PolicyKind, model: &EnergyModel) -> f64 {
        model.energy_mj(&self.expect(kind).result.machine.cache)
    }

    fn expect(&self, kind: PolicyKind) -> &RunOutcome {
        self.outcome(kind)
            .unwrap_or_else(|| panic!("policy {kind} was not part of this comparison"))
    }
}

impl fmt::Display for ComparisonReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "workload {} on {}", self.workload, self.machine)?;
        writeln!(
            f,
            "{:<6} {:>14} {:>10} {:>9} {:>12} {:>10} {:>9}",
            "policy", "cycles", "seconds", "hit-rate", "misses", "conflicts", "vs-RS"
        )?;
        let base = self
            .outcome(PolicyKind::Random)
            .map(|o| o.result.makespan_cycles);
        for o in &self.outcomes {
            let c = &o.result.machine.cache;
            let vs = base
                .map(|b| format!("{:.2}x", b as f64 / o.result.makespan_cycles as f64))
                .unwrap_or_else(|| "-".into());
            writeln!(
                f,
                "{:<6} {:>14} {:>10.4} {:>8.1}% {:>12} {:>10} {:>9}",
                o.kind.to_string(),
                o.result.makespan_cycles,
                o.result.seconds,
                c.hit_rate() * 100.0,
                c.misses,
                c.conflict_misses,
                vs
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Experiment;
    use lams_workloads::{suite, Scale};

    fn report() -> ComparisonReport {
        let app = suite::shape(Scale::Tiny);
        Experiment::isolated(&app, MachineConfig::paper_default().with_cores(4))
            .run_all(PolicyKind::ALL)
            .unwrap()
    }

    #[test]
    fn accessors_and_speedups() {
        let r = report();
        assert_eq!(r.workload(), "Shape");
        assert_eq!(r.outcomes().len(), 4);
        for &k in PolicyKind::ALL {
            assert!(r.cycles(k) > 0);
            assert!(r.seconds(k) > 0.0);
        }
        let s = r.speedup(PolicyKind::Locality, PolicyKind::Random);
        assert!(s > 0.0);
        assert!((r.speedup(PolicyKind::Random, PolicyKind::Random) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not part of this comparison")]
    fn missing_policy_panics() {
        let app = suite::shape(Scale::Tiny);
        let r = Experiment::isolated(&app, MachineConfig::paper_default().with_cores(4))
            .run_all(&[PolicyKind::Random])
            .unwrap();
        let _ = r.cycles(PolicyKind::Locality);
    }

    #[test]
    fn display_contains_all_policies() {
        let text = report().to_string();
        for &k in PolicyKind::ALL {
            assert!(text.contains(k.abbrev()));
        }
    }

    #[test]
    fn energy_reporting() {
        let r = report();
        let m = EnergyModel::embedded_default();
        for &k in PolicyKind::ALL {
            assert!(r.energy_mj(k, &m) > 0.0);
        }
    }
}
