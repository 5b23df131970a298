//! The longest weighted path through a process graph: a lower bound on
//! any schedule's makespan, for the tests that hold the engine to it
//! (`#[path]`-included by `crates/procgraph/tests/prop.rs` and, beside
//! the engine oracle, by `crates/core/tests/prop.rs`; compiled into no
//! library).

use std::collections::BTreeMap;

use lams_procgraph::{ProcessGraph, ProcessId};

/// Longest weighted path through the DAG `g`, with node weights given
/// by `weight`. Returns `(total_weight, path)`; the empty graph yields
/// `(0, [])`.
pub fn critical_path(
    g: &ProcessGraph,
    mut weight: impl FnMut(ProcessId) -> u64,
) -> (u64, Vec<ProcessId>) {
    let mut best: BTreeMap<ProcessId, (u64, Option<ProcessId>)> = BTreeMap::new();
    for p in g.topo_order() {
        let w = weight(p);
        let (pre, via) = g
            .preds(p)
            .expect("a node of the graph")
            .map(|q| (best[&q].0, Some(q)))
            .max_by_key(|&(cost, _)| cost)
            .unwrap_or((0, None));
        best.insert(p, (pre + w, via));
    }
    let Some((&end, &(total, _))) = best.iter().max_by_key(|(_, &(cost, _))| cost) else {
        return (0, Vec::new());
    };
    let mut path = vec![end];
    let mut cur = end;
    while let Some(prev) = best[&cur].1 {
        path.push(prev);
        cur = prev;
    }
    path.reverse();
    (total, path)
}
