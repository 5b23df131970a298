//! The primary contribution of *Kandemir & Chen, "Locality-Aware Process
//! Scheduling for Embedded MPSoCs", DATE 2005*: data-reuse-oriented
//! process scheduling for cache-based embedded MPSoCs.
//!
//! The paper's scheduler rests on two complementary ideas:
//!
//! 1. **Processes that share no data should run on different cores**
//!    (concurrent sharing only duplicates lines across private caches),
//!    while **processes that cannot run concurrently but share data
//!    should run back-to-back on the same core**, so the successor finds
//!    the shared lines already resident.
//! 2. When two processes that share *nothing* do end up successive on a
//!    core, their arrays should be **re-layouted** (Figures 4–5,
//!    implemented in [`lams_layout`]) so they stop evicting each other
//!    through conflict misses.
//!
//! This crate implements:
//!
//! * [`SharingMatrix`] — `M[p][q] = |DS_p ∩ DS_q|` from the exact
//!   Presburger footprints (Section 2, Figure 2(a)),
//! * the four schedulers of Section 4 behind one [`Policy`] trait:
//!   [`RandomPolicy`] (RS), [`RoundRobinPolicy`] (RRS, shared FIFO +
//!   preemption quantum), [`LocalityPolicy`] (LS, the Figure 3 greedy
//!   heuristic) and LSM (= LS plus the data-mapping phase, orchestrated
//!   by [`Experiment`]),
//! * [`execute`] — an event-driven engine that dispatches processes onto
//!   the [`lams_mpsoc::Machine`] in global time order, honouring
//!   dependences and preemption, with per-core cache persistence,
//! * [`Experiment`] / [`ComparisonReport`] — the paper's experimental
//!   harness: isolated applications (Figure 6) and concurrent mixes
//!   (Figure 7) under all four policies,
//! * [`sweep`] — the scenario-matrix subsystem: [`ScenarioMatrix`]
//!   enumerates independent (workload × machine × policy × knob) jobs
//!   and [`SweepRunner`] executes them across scoped threads with
//!   results bit-identical to sequential execution,
//! * [`memo`] — the [`ArtifactCache`]: an `Arc`-shared memo (one map
//!   under one mutex) of three kinds — compiled trace program sets,
//!   per-process programs and Locality (pilot) runs — keyed on content
//!   fingerprints, so policy-dense
//!   matrices and the LSM candidate ladder pay for each shared artifact once
//!   (results stay bit-identical to the uncached path),
//! * [`Scenario`] — one scenario (source, policy, knobs) in the
//!   `key=value` grammar `lams-serve` and `trace_tool` both read, with
//!   one validation and one [`Scenario::run`].
//!
//! ```
//! use lams_core::{Experiment, PolicyKind};
//! use lams_mpsoc::MachineConfig;
//! use lams_workloads::{suite, Scale};
//!
//! let app = suite::track(Scale::Tiny);
//! let report = Experiment::isolated(&app, MachineConfig::paper_default())
//!     .run_all(PolicyKind::ALL)
//!     .unwrap();
//! // Every policy completes the same work.
//! assert!(report.seconds(PolicyKind::Locality) > 0.0);
//! println!("{report}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Determinism: no host clock, worker id or hash order (docs/invariants.md).
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
#![deny(clippy::iter_over_hash_type)]

pub mod arrivals;
mod engine;
mod error;
mod experiment;
mod locality;
pub mod memo;
mod policy;
mod random;
pub mod replacement;
mod report;
mod round_robin;
mod scenario;
mod sharing;
pub mod sweep;

pub use arrivals::{ArrivalConfig, ArrivalMetrics, ArrivalPlan, ArrivalShape, LatencyPercentiles};
pub use engine::{execute, execute_bundle, execute_cached, EngineConfig, ProcessExec, RunResult};
pub use error::{Error, Result};
pub use experiment::{Experiment, LsmArtifacts};
pub use locality::LocalityPolicy;
pub use memo::{ArtifactCache, MemoStats};
pub use policy::{Policy, PolicyKind};
pub use random::RandomPolicy;
pub use replacement::EvictionPolicy;
pub use report::{ComparisonReport, RunOutcome};
pub use round_robin::{RoundRobinPolicy, DEFAULT_QUANTUM};
pub use scenario::{in_range, FieldError, Fields, Loaded, Parsed, Scenario, Source};
pub use sharing::SharingMatrix;
pub use sweep::{ScenarioMatrix, SweepJob, SweepRunner};

#[cfg(test)]
mod tests {
    /// Liveness witness for the root `clippy.toml`: if it stops being
    /// read, this `expect` goes unfulfilled and the clippy step fails
    /// (`docs/invariants.md`).
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "deliberate: worker identity and an order-free hash traversal"
    )]
    fn determinism_rules_are_live() {
        let map = std::collections::HashMap::from([(1, 2), (3, 4)]);
        let _worker = std::thread::current();
        assert_eq!(map.values().sum::<i32>(), 6);
    }
}
