//! The repo benchmark: six workloads from the batch figure grid to the
//! loopback daemon, end-to-end metrics measured with tracing off, and a
//! traced pass that attributes the time to the repo's layers from the
//! outside. See `README.md` beside the manifest for the contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod check;
pub mod host;
pub mod jobs;
pub mod layers;
pub mod measure;
pub mod metrics;
pub mod report;
pub mod requests;
pub mod rng;
pub mod serve;
pub mod spans;
pub mod stats;

use check::Outcome;

/// The six workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 6] = [
    "grid_batch",
    "lsm_ladder",
    "bus_contended",
    "open_arrivals",
    "serve_closed",
    "serve_pipelined",
];

/// The checked and timed result of one repetition of a workload's fixed
/// job set.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// Wall time of the repetition in seconds.
    pub wall_s: f64,
    /// Simulated outcome per job, in job order; `None` when the job
    /// returned an error.
    pub outcomes: Vec<Option<Outcome>>,
    /// Requests the daemon shed with `busy` (they are also `None`
    /// above).
    pub refused: usize,
    /// Per-job latency in ms: request written to response read for the
    /// serve workloads, job set submitted to that job's result existing
    /// for the batch ones.
    pub latencies_ms: Vec<f64>,
    /// One more word folded into the repetition's checksum (the
    /// arrival plan's checksum; 0 when there is none).
    pub extra: u64,
}

impl Rep {
    /// The repetition's output checksum: every job's outcome in job
    /// order (a failed job folds as zeros), then [`Rep::extra`].
    pub fn checksum(&self) -> u64 {
        let mut h = check::Fnv::default();
        for o in &self.outcomes {
            let o = o.unwrap_or_default();
            h.push(o.makespan);
            h.push(o.hits);
            h.push(o.misses);
        }
        h.push(self.extra);
        h.finish()
    }
}

/// Static facts about a workload's job set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Shape {
    /// Jobs (scenario runs or requests) per repetition.
    pub jobs: usize,
    /// Nominal simulated trace ops per repetition: the sum of
    /// `Workload::total_trace_ops` over each job's workload.
    pub sim_ops: u64,
    /// `(RRS job, LS job)` index pairs on the same inputs.
    pub ls_pairs: Vec<(usize, usize)>,
    /// `(LS job, LSM job)` index pairs on the same inputs.
    pub lsm_pairs: Vec<(usize, usize)>,
}

impl Shape {
    /// Fills the gain pairs from each job's policy and inputs: an LS job
    /// pairs with the RRS job on equal inputs, an LSM job with the LS
    /// one. A job with no inputs key (a fixed-threshold LSM run, a
    /// replay) pairs with nothing.
    pub fn pair_up<K: PartialEq>(&mut self, jobs: &[(lams_core::PolicyKind, Option<K>)]) {
        use lams_core::PolicyKind::{Locality, LocalityMap, RoundRobin};
        let partner = |policy, inputs: &Option<K>| {
            jobs.iter()
                .position(|(p, k)| *p == policy && k.is_some() && k == inputs)
        };
        for (i, (policy, inputs)) in jobs.iter().enumerate() {
            if *policy == Locality {
                self.ls_pairs
                    .extend(partner(RoundRobin, inputs).map(|rrs| (rrs, i)));
            } else if *policy == LocalityMap {
                self.lsm_pairs
                    .extend(partner(Locality, inputs).map(|ls| (ls, i)));
            }
        }
    }
}
