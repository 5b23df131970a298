//! Error type for scheduling and experiments.

use std::fmt;

/// Result alias using the crate's [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while scheduling or running experiments.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// The policy declined to dispatch although processes were ready and
    /// every core was idle (a policy contract violation).
    EngineStalled {
        /// Number of ready-but-undispatched processes.
        ready: usize,
    },
    /// The run exceeded its per-request simulated-cycle budget (see
    /// [`EngineConfig::with_deadline_cycles`](crate::EngineConfig)).
    /// Deterministic: a scenario either always fits its budget or never
    /// does, independent of wall-clock load or thread count.
    DeadlineExceeded {
        /// The configured budget, in simulated cycles.
        budget_cycles: u64,
        /// The global simulated clock when the budget check fired.
        elapsed_cycles: u64,
    },
    /// An open-system run's bounded ready queue overflowed: arrivals
    /// outpaced service (offered load > 1) past the configured
    /// capacity (see
    /// [`ArrivalConfig::with_queue_capacity`](crate::ArrivalConfig)).
    /// Deterministic: the shed always fires at the same admission, at
    /// the same simulated cycle, independent of thread count.
    QueueSaturated {
        /// The configured ready-queue capacity.
        capacity: u64,
        /// The queue depth that exceeded it.
        depth: usize,
        /// The global simulated clock at the saturating admission.
        at_cycle: u64,
    },
    /// A sweep job panicked. The panic was caught at the job boundary
    /// ([`SweepRunner::run_weighted_caught`](crate::SweepRunner::run_weighted_caught)),
    /// so only this job failed — sibling jobs and the worker pool survive.
    JobPanicked {
        /// Enumeration index of the panicking job.
        job: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// Simulator error.
    Mpsoc(lams_mpsoc::Error),
    /// Process-graph error.
    Graph(lams_procgraph::Error),
    /// Workload error.
    Workload(lams_workloads::Error),
    /// Layout error.
    Layout(lams_layout::Error),
    /// A scenario named no suite application
    /// ([`lams_workloads::suite::by_name`]).
    UnknownApp(String),
    /// A scenario's `.ltr` file could not be read.
    Unreadable {
        /// The path as the scenario gave it.
        path: String,
        /// The I/O error.
        reason: String,
    },
    /// A scenario's `.ltr` file failed to decode.
    Trace(lams_trace::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::EngineStalled { ready } => {
                write!(f, "policy stalled the engine with {ready} ready processes")
            }
            Error::DeadlineExceeded {
                budget_cycles,
                elapsed_cycles,
            } => write!(
                f,
                "run exceeded its {budget_cycles}-cycle budget at cycle {elapsed_cycles}"
            ),
            Error::QueueSaturated {
                capacity,
                depth,
                at_cycle,
            } => write!(
                f,
                "arrival queue saturated: depth {depth} exceeds capacity {capacity} at cycle {at_cycle}"
            ),
            Error::JobPanicked { job, message } => {
                write!(f, "sweep job {job} panicked: {message}")
            }
            Error::Mpsoc(e) => write!(f, "machine: {e}"),
            Error::Graph(e) => write!(f, "process graph: {e}"),
            Error::Workload(e) => write!(f, "workload: {e}"),
            Error::Layout(e) => write!(f, "layout: {e}"),
            Error::UnknownApp(name) => write!(f, "unknown app '{name}'"),
            Error::Unreadable { path, reason } => write!(f, "cannot read '{path}': {reason}"),
            Error::Trace(e) => write!(f, "trace: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Mpsoc(e) => Some(e),
            Error::Graph(e) => Some(e),
            Error::Workload(e) => Some(e),
            Error::Layout(e) => Some(e),
            Error::Trace(e) => Some(e),
            Error::EngineStalled { .. }
            | Error::UnknownApp(_)
            | Error::Unreadable { .. }
            | Error::DeadlineExceeded { .. }
            | Error::QueueSaturated { .. }
            | Error::JobPanicked { .. } => None,
        }
    }
}

impl From<lams_mpsoc::Error> for Error {
    fn from(e: lams_mpsoc::Error) -> Self {
        Error::Mpsoc(e)
    }
}

impl From<lams_procgraph::Error> for Error {
    fn from(e: lams_procgraph::Error) -> Self {
        Error::Graph(e)
    }
}

impl From<lams_workloads::Error> for Error {
    fn from(e: lams_workloads::Error) -> Self {
        Error::Workload(e)
    }
}

impl From<lams_layout::Error> for Error {
    fn from(e: lams_layout::Error) -> Self {
        Error::Layout(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = Error::EngineStalled { ready: 3 };
        assert_eq!(
            e.to_string(),
            "policy stalled the engine with 3 ready processes"
        );
        let q = Error::QueueSaturated {
            capacity: 4,
            depth: 5,
            at_cycle: 1000,
        };
        assert_eq!(
            q.to_string(),
            "arrival queue saturated: depth 5 exceeds capacity 4 at cycle 1000"
        );
    }
}
