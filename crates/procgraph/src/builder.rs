//! Fluent construction of extended process graphs.

use crate::{ProcessGraph, ProcessId, Result, Task};

/// Builds an extended process graph (EPG) from tasks plus dependence
/// edges, both intra-task and inter-task.
///
/// The paper distinguishes the per-task process graph (PG) from the
/// extended process graph (EPG) that also carries inter-task dependences;
/// with this builder both kinds of edges are added through
/// [`EpgBuilder::add_edge`] — the underlying graph records which task owns
/// each process, so the distinction can be recovered via
/// [`ProcessGraph::task_of`].
#[derive(Debug, Clone, Default)]
pub struct EpgBuilder {
    graph: ProcessGraph,
}

impl EpgBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        EpgBuilder::default()
    }

    /// Registers every process of `task` as a node.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::DuplicateProcess`] when tasks overlap in
    /// process-id space (use [`Task::with_base`] to give each task a
    /// distinct range).
    pub fn add_task(&mut self, task: &Task) -> Result<&mut Self> {
        for p in task.processes() {
            self.graph.add_node(p, Some(task.id()))?;
        }
        Ok(self)
    }

    /// Adds a single process that belongs to no task.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::DuplicateProcess`] on repeats.
    pub fn add_process(&mut self, p: ProcessId) -> Result<&mut Self> {
        self.graph.add_node(p, None)?;
        Ok(self)
    }

    /// Adds a dependence edge (intra- or inter-task).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ProcessGraph::add_edge`].
    pub fn add_edge(&mut self, from: ProcessId, to: ProcessId) -> Result<&mut Self> {
        self.graph.add_edge(from, to)?;
        Ok(self)
    }

    /// Finishes the build, yielding the EPG.
    ///
    /// # Errors
    ///
    /// Currently infallible (validation happens en route); kept fallible
    /// for future invariants.
    pub fn build(self) -> Result<ProcessGraph> {
        Ok(self.graph)
    }

    /// Read access to the graph under construction.
    pub fn graph(&self) -> &ProcessGraph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskId;

    #[test]
    fn builds_multi_task_epg() {
        let t0 = Task::new(TaskId::new(0), "a", 3);
        let t1 = Task::with_base(TaskId::new(1), "b", ProcessId::new(3), 2);
        let mut b = EpgBuilder::new();
        b.add_task(&t0).unwrap();
        b.add_task(&t1).unwrap();
        // inter-task dependence: last of t0 -> first of t1
        b.add_edge(t0.process(2), t1.process(0)).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.len(), 5);
        assert_eq!(g.task_of(t0.process(1)), Some(TaskId::new(0)));
        assert_eq!(g.task_of(t1.process(0)), Some(TaskId::new(1)));
        assert!(!g.is_reachable(t0.process(2), t1.process(1)));
        assert!(g.is_reachable(t0.process(2), t1.process(0)));
    }

    #[test]
    fn overlapping_tasks_rejected() {
        let t0 = Task::new(TaskId::new(0), "a", 3);
        let t1 = Task::new(TaskId::new(1), "b", 2); // also starts at P0
        let mut b = EpgBuilder::new();
        b.add_task(&t0).unwrap();
        assert!(b.add_task(&t1).is_err());
    }

    #[test]
    fn freestanding_process() {
        let mut b = EpgBuilder::new();
        b.add_process(ProcessId::new(7)).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.task_of(ProcessId::new(7)), None);
    }
}
