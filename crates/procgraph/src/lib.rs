//! Process graphs (PG) and extended process graphs (EPG) for embedded
//! MPSoC scheduling, after Section 3 of *Kandemir & Chen, DATE 2005*.
//!
//! In the paper's framework each task is represented by a *process graph*:
//! nodes are processes `P_{i,j}` and a directed edge `P_{i,j} -> P_{i,k}`
//! means the latter may only execute once the former has finished. The
//! *extended process graph* additionally contains inter-task dependence
//! edges. The scheduling problem is defined over the EPG.
//!
//! This crate provides:
//!
//! * [`TaskId`] / [`ProcessId`] — typed identifiers,
//! * [`Task`] — a named task with its member processes,
//! * [`ProcessGraph`] — a validated DAG over processes (used both for
//!   per-task PGs and the merged EPG),
//! * [`EpgBuilder`] — fluent construction of an EPG from tasks plus
//!   inter-task edges,
//! * [`ReadyTracker`] — incremental ready-set maintenance for scheduling
//!   engines,
//! * DAG utilities: topological order, cycle detection, levels
//!   (wavefronts), critical path.
//!
//! ```
//! use lams_procgraph::{EpgBuilder, ProcessId, Task, TaskId};
//!
//! // A two-stage pipeline task: p0 -> p2, p1 -> p2.
//! let t = Task::new(TaskId::new(0), "demo", 3);
//! let mut b = EpgBuilder::new();
//! b.add_task(&t)?;
//! b.add_edge(t.process(0), t.process(2))?;
//! b.add_edge(t.process(1), t.process(2))?;
//! let epg = b.build()?;
//!
//! assert_eq!(epg.roots().count(), 2);
//! let order = epg.topo_order();
//! assert_eq!(order.last(), Some(&t.process(2)));
//! # Ok::<(), lams_procgraph::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
mod graph;
mod ids;
mod ready;
mod task;

pub use builder::EpgBuilder;
pub use error::{Error, Result};
pub use graph::ProcessGraph;
pub use ids::{ProcessId, TaskId};
pub use ready::ReadyTracker;
pub use task::Task;
