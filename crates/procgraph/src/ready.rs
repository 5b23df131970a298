//! Incremental ready-set maintenance for scheduling engines.

use std::collections::{BTreeMap, BTreeSet};

use crate::{Error, ProcessGraph, ProcessId, Result};

/// Tracks which processes are ready (all dependences satisfied), running,
/// or completed, as a scheduler dispatches work.
///
/// This is the mutable runtime companion of a [`ProcessGraph`]: the
/// engine repeatedly takes ready processes, marks them running, and on
/// completion learns which successors became ready.
///
/// ```
/// use lams_procgraph::{ProcessGraph, ProcessId, ReadyTracker};
///
/// let mut g = ProcessGraph::new();
/// let (a, b) = (ProcessId::new(0), ProcessId::new(1));
/// g.add_node(a, None)?;
/// g.add_node(b, None)?;
/// g.add_edge(a, b)?;
///
/// let mut rt = ReadyTracker::new(&g);
/// assert_eq!(rt.ready().collect::<Vec<_>>(), vec![a]);
/// rt.start(a)?;
/// let newly = rt.complete(a)?;
/// assert_eq!(newly, vec![b]);
/// assert!(rt.is_ready(b));
/// # Ok::<(), lams_procgraph::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReadyTracker {
    remaining_preds: BTreeMap<ProcessId, usize>,
    succs: BTreeMap<ProcessId, Vec<ProcessId>>,
    ready: BTreeSet<ProcessId>,
    running: BTreeSet<ProcessId>,
    completed: BTreeSet<ProcessId>,
}

impl ReadyTracker {
    /// Initializes the tracker from a graph; every root starts ready.
    pub fn new(graph: &ProcessGraph) -> Self {
        let mut remaining_preds = BTreeMap::new();
        let mut succs = BTreeMap::new();
        let mut ready = BTreeSet::new();
        for p in graph.processes() {
            let d = graph.in_degree(p);
            remaining_preds.insert(p, d);
            succs.insert(p, graph.succs(p).expect("node exists").collect::<Vec<_>>());
            if d == 0 {
                ready.insert(p);
            }
        }
        ReadyTracker {
            remaining_preds,
            succs,
            ready,
            running: BTreeSet::new(),
            completed: BTreeSet::new(),
        }
    }

    /// The current ready set, ascending by id.
    pub fn ready(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.ready.iter().copied()
    }

    /// Number of ready processes.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Whether `p` is currently ready.
    pub fn is_ready(&self, p: ProcessId) -> bool {
        self.ready.contains(&p)
    }

    /// Whether every process has completed.
    pub fn all_done(&self) -> bool {
        self.completed.len() == self.remaining_preds.len()
    }

    /// Number of processes not yet completed.
    pub fn outstanding(&self) -> usize {
        self.remaining_preds.len() - self.completed.len()
    }

    /// Marks a ready process as running (dispatched to a core).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownProcess`] if `p` is not currently ready.
    pub fn start(&mut self, p: ProcessId) -> Result<()> {
        if !self.ready.remove(&p) {
            return Err(Error::UnknownProcess(p));
        }
        self.running.insert(p);
        Ok(())
    }

    /// Returns a preempted (running) process to the ready set.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownProcess`] if `p` is not running.
    pub fn preempt(&mut self, p: ProcessId) -> Result<()> {
        if !self.running.remove(&p) {
            return Err(Error::UnknownProcess(p));
        }
        self.ready.insert(p);
        Ok(())
    }

    /// Marks a running process as completed and returns the successors
    /// that became ready as a result (ascending by id).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownProcess`] if `p` is not running.
    pub fn complete(&mut self, p: ProcessId) -> Result<Vec<ProcessId>> {
        if !self.running.remove(&p) {
            return Err(Error::UnknownProcess(p));
        }
        self.completed.insert(p);
        let mut newly = Vec::new();
        for &s in self.succs.get(&p).into_iter().flatten() {
            let d = self
                .remaining_preds
                .get_mut(&s)
                .expect("successor is a node");
            *d -= 1;
            if *d == 0 {
                self.ready.insert(s);
                newly.push(s);
            }
        }
        Ok(newly)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn diamond() -> ProcessGraph {
        let mut g = ProcessGraph::new();
        for i in 0..4 {
            g.add_node(p(i), None).unwrap();
        }
        g.add_edge(p(0), p(1)).unwrap();
        g.add_edge(p(0), p(2)).unwrap();
        g.add_edge(p(1), p(3)).unwrap();
        g.add_edge(p(2), p(3)).unwrap();
        g
    }

    #[test]
    fn ready_evolution_through_diamond() {
        let g = diamond();
        let mut rt = ReadyTracker::new(&g);
        assert_eq!(rt.ready().collect::<Vec<_>>(), vec![p(0)]);
        rt.start(p(0)).unwrap();
        assert_eq!(rt.ready_len(), 0);
        let newly = rt.complete(p(0)).unwrap();
        assert_eq!(newly, vec![p(1), p(2)]);

        rt.start(p(1)).unwrap();
        rt.start(p(2)).unwrap();
        assert_eq!(rt.complete(p(1)).unwrap(), vec![]); // p3 still blocked
        assert_eq!(rt.complete(p(2)).unwrap(), vec![p(3)]);
        rt.start(p(3)).unwrap();
        rt.complete(p(3)).unwrap();
        assert!(rt.all_done());
        assert_eq!(rt.outstanding(), 0);
    }

    #[test]
    fn start_requires_ready() {
        let g = diamond();
        let mut rt = ReadyTracker::new(&g);
        assert_eq!(rt.start(p(3)), Err(Error::UnknownProcess(p(3))));
    }

    #[test]
    fn complete_requires_running() {
        let g = diamond();
        let mut rt = ReadyTracker::new(&g);
        assert!(rt.complete(p(0)).is_err());
    }

    #[test]
    fn preemption_round_trip() {
        let g = diamond();
        let mut rt = ReadyTracker::new(&g);
        rt.start(p(0)).unwrap();
        rt.preempt(p(0)).unwrap();
        assert!(rt.is_ready(p(0)));
        assert!(rt.preempt(p(0)).is_err()); // not running any more
        rt.start(p(0)).unwrap();
        rt.complete(p(0)).unwrap();
    }
}
