//! The dependence DAG over processes (used for both PGs and EPGs).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::{Error, ProcessId, Result, TaskId};

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Node {
    task: Option<TaskId>,
    preds: BTreeSet<ProcessId>,
    succs: BTreeSet<ProcessId>,
}

/// A validated dependence DAG over processes.
///
/// Edges mean "must finish before": an edge `a -> b` says `b` can only
/// start once `a` has completed. The structure is kept acyclic by
/// construction — [`ProcessGraph::add_edge`] rejects edges that would
/// close a cycle — so every query can assume DAG-ness.
///
/// All internal collections are ordered, making every traversal
/// deterministic for a given construction sequence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcessGraph {
    nodes: BTreeMap<ProcessId, Node>,
    num_edges: usize,
}

impl ProcessGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        ProcessGraph::default()
    }

    /// Adds a process node, optionally recording which task owns it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DuplicateProcess`] if the node already exists.
    pub fn add_node(&mut self, p: ProcessId, task: Option<TaskId>) -> Result<()> {
        if self.nodes.contains_key(&p) {
            return Err(Error::DuplicateProcess(p));
        }
        self.nodes.insert(
            p,
            Node {
                task,
                ..Node::default()
            },
        );
        Ok(())
    }

    /// Adds a dependence edge `from -> to` (idempotent for repeats).
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownProcess`] if either endpoint is absent,
    /// * [`Error::SelfDependence`] for `from == to`,
    /// * [`Error::WouldCycle`] if `from` is reachable from `to`.
    pub fn add_edge(&mut self, from: ProcessId, to: ProcessId) -> Result<()> {
        if from == to {
            return Err(Error::SelfDependence(from));
        }
        if !self.nodes.contains_key(&from) {
            return Err(Error::UnknownProcess(from));
        }
        if !self.nodes.contains_key(&to) {
            return Err(Error::UnknownProcess(to));
        }
        if self.nodes[&from].succs.contains(&to) {
            return Ok(()); // already present
        }
        if self.is_reachable(to, from) {
            return Err(Error::WouldCycle { from, to });
        }
        self.nodes.get_mut(&from).expect("checked").succs.insert(to);
        self.nodes.get_mut(&to).expect("checked").preds.insert(from);
        self.num_edges += 1;
        Ok(())
    }

    /// Whether `dst` is reachable from `src` along dependence edges.
    pub fn is_reachable(&self, src: ProcessId, dst: ProcessId) -> bool {
        if src == dst {
            return true;
        }
        // A process with no successors reaches nothing else. When edges
        // are added in topological order, each new edge's head has none
        // yet, so building a pipeline's graph allocates no search state.
        if self.nodes.get(&src).is_none_or(|n| n.succs.is_empty()) {
            return false;
        }
        let mut seen = BTreeSet::new();
        let mut stack = vec![src];
        while let Some(p) = stack.pop() {
            if !seen.insert(p) {
                continue;
            }
            if let Some(n) = self.nodes.get(&p) {
                for &s in &n.succs {
                    if s == dst {
                        return true;
                    }
                    stack.push(s);
                }
            }
        }
        false
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no processes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of dependence edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Whether `p` is a node.
    pub fn contains(&self, p: ProcessId) -> bool {
        self.nodes.contains_key(&p)
    }

    /// The owning task of `p`, when recorded.
    pub fn task_of(&self, p: ProcessId) -> Option<TaskId> {
        self.nodes.get(&p).and_then(|n| n.task)
    }

    /// All process ids, ascending.
    pub fn processes(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.nodes.keys().copied()
    }

    /// Direct predecessors (dependences) of `p`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownProcess`] for absent nodes.
    pub fn preds(&self, p: ProcessId) -> Result<impl Iterator<Item = ProcessId> + '_> {
        self.nodes
            .get(&p)
            .map(|n| n.preds.iter().copied())
            .ok_or(Error::UnknownProcess(p))
    }

    /// Direct successors (dependents) of `p`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownProcess`] for absent nodes.
    pub fn succs(&self, p: ProcessId) -> Result<impl Iterator<Item = ProcessId> + '_> {
        self.nodes
            .get(&p)
            .map(|n| n.succs.iter().copied())
            .ok_or(Error::UnknownProcess(p))
    }

    /// In-degree of `p` (0 for absent nodes).
    pub fn in_degree(&self, p: ProcessId) -> usize {
        self.nodes.get(&p).map_or(0, |n| n.preds.len())
    }

    /// Out-degree of `p` (0 for absent nodes).
    pub fn out_degree(&self, p: ProcessId) -> usize {
        self.nodes.get(&p).map_or(0, |n| n.succs.len())
    }

    /// Processes with no incoming dependence edge — the paper's
    /// "independent processes" that seed the first scheduling round.
    pub fn roots(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.nodes
            .iter()
            .filter(|(_, n)| n.preds.is_empty())
            .map(|(&p, _)| p)
    }

    /// Processes with no outgoing edges.
    pub fn leaves(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.nodes
            .iter()
            .filter(|(_, n)| n.succs.is_empty())
            .map(|(&p, _)| p)
    }

    /// A topological order (Kahn's algorithm; ties broken by ascending
    /// process id, so the result is deterministic).
    pub fn topo_order(&self) -> Vec<ProcessId> {
        let mut indeg: BTreeMap<ProcessId, usize> = self
            .nodes
            .iter()
            .map(|(&p, n)| (p, n.preds.len()))
            .collect();
        let mut ready: BTreeSet<ProcessId> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&p, _)| p)
            .collect();
        let mut out = Vec::with_capacity(self.nodes.len());
        while let Some(&p) = ready.iter().next() {
            ready.remove(&p);
            out.push(p);
            for &s in &self.nodes[&p].succs {
                let d = indeg.get_mut(&s).expect("succ exists");
                *d -= 1;
                if *d == 0 {
                    ready.insert(s);
                }
            }
        }
        debug_assert_eq!(
            out.len(),
            self.nodes.len(),
            "graph is a DAG by construction"
        );
        out
    }

    /// Level (wavefront) decomposition: `levels()[k]` contains the
    /// processes whose longest dependence chain from a root has length
    /// `k`. Processes in the same level are mutually independent only in
    /// the chain-length sense, not necessarily pairwise.
    pub fn levels(&self) -> Vec<Vec<ProcessId>> {
        let order = self.topo_order();
        let mut level: BTreeMap<ProcessId, usize> = BTreeMap::new();
        let mut max_level = 0;
        for p in &order {
            let l = self.nodes[p]
                .preds
                .iter()
                .map(|q| level[q] + 1)
                .max()
                .unwrap_or(0);
            level.insert(*p, l);
            max_level = max_level.max(l);
        }
        let mut out = vec![Vec::new(); if order.is_empty() { 0 } else { max_level + 1 }];
        for p in order {
            out[level[&p]].push(p);
        }
        out
    }
}

impl fmt::Display for ProcessGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ProcessGraph({} processes, {} edges)",
            self.len(),
            self.num_edges()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn diamond() -> ProcessGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut g = ProcessGraph::new();
        for i in 0..4 {
            g.add_node(p(i), Some(TaskId::new(0))).unwrap();
        }
        g.add_edge(p(0), p(1)).unwrap();
        g.add_edge(p(0), p(2)).unwrap();
        g.add_edge(p(1), p(3)).unwrap();
        g.add_edge(p(2), p(3)).unwrap();
        g
    }

    #[test]
    fn duplicate_node_rejected() {
        let mut g = ProcessGraph::new();
        g.add_node(p(0), None).unwrap();
        assert_eq!(g.add_node(p(0), None), Err(Error::DuplicateProcess(p(0))));
    }

    #[test]
    fn edge_validation() {
        let mut g = ProcessGraph::new();
        g.add_node(p(0), None).unwrap();
        assert_eq!(g.add_edge(p(0), p(0)), Err(Error::SelfDependence(p(0))));
        assert_eq!(g.add_edge(p(0), p(1)), Err(Error::UnknownProcess(p(1))));
        assert_eq!(g.add_edge(p(9), p(0)), Err(Error::UnknownProcess(p(9))));
    }

    #[test]
    fn cycle_rejected() {
        let mut g = ProcessGraph::new();
        for i in 0..3 {
            g.add_node(p(i), None).unwrap();
        }
        g.add_edge(p(0), p(1)).unwrap();
        g.add_edge(p(1), p(2)).unwrap();
        assert_eq!(
            g.add_edge(p(2), p(0)),
            Err(Error::WouldCycle {
                from: p(2),
                to: p(0)
            })
        );
        // Graph unchanged by failed insert.
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn duplicate_edge_is_idempotent() {
        let mut g = diamond();
        g.add_edge(p(0), p(1)).unwrap();
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn degrees_roots_leaves() {
        let g = diamond();
        assert_eq!(g.in_degree(p(3)), 2);
        assert_eq!(g.out_degree(p(0)), 2);
        assert_eq!(g.roots().collect::<Vec<_>>(), vec![p(0)]);
        assert_eq!(g.leaves().collect::<Vec<_>>(), vec![p(3)]);
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let order = g.topo_order();
        assert_eq!(order.len(), 4);
        let pos = |x: ProcessId| order.iter().position(|&y| y == x).unwrap();
        assert!(pos(p(0)) < pos(p(1)));
        assert!(pos(p(0)) < pos(p(2)));
        assert!(pos(p(1)) < pos(p(3)));
        assert!(pos(p(2)) < pos(p(3)));
    }

    #[test]
    fn levels_decomposition() {
        let g = diamond();
        let levels = g.levels();
        assert_eq!(levels, vec![vec![p(0)], vec![p(1), p(2)], vec![p(3)]]);
    }

    #[test]
    fn reachability() {
        let g = diamond();
        assert!(g.is_reachable(p(0), p(3)));
        assert!(!g.is_reachable(p(1), p(2)));
        assert!(g.is_reachable(p(2), p(2)));
    }

    #[test]
    fn empty_graph() {
        let g = ProcessGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.topo_order(), Vec::<ProcessId>::new());
        assert_eq!(g.levels(), Vec::<Vec<ProcessId>>::new());
    }
}
