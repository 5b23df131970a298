//! Property tests over random DAGs: construction safety, topological
//! order validity, level consistency and ready-tracker liveness — and
//! the critical path of the test support.

use proptest::prelude::*;

use lams_procgraph::{ProcessGraph, ProcessId, ReadyTracker};

#[path = "support/critical_path.rs"]
mod critical_path;
use critical_path::critical_path;

/// Builds a random DAG by only adding forward edges (i -> j with i < j),
/// which can never create a cycle — so every `add_edge` must succeed.
fn arb_dag() -> impl Strategy<Value = ProcessGraph> {
    (2u32..20, prop::collection::vec((0u32..20, 0u32..20), 0..60)).prop_map(|(n, raw_edges)| {
        let mut g = ProcessGraph::new();
        for i in 0..n {
            g.add_node(ProcessId::new(i), None).unwrap();
        }
        for (a, b) in raw_edges {
            let (a, b) = (a % n, b % n);
            if a < b {
                g.add_edge(ProcessId::new(a), ProcessId::new(b)).unwrap();
            }
        }
        g
    })
}

proptest! {
    #[test]
    fn topo_order_is_valid(g in arb_dag()) {
        let order = g.topo_order();
        prop_assert_eq!(order.len(), g.len());
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(k, &p)| (p, k)).collect();
        for p in g.processes() {
            for s in g.succs(p).unwrap() {
                prop_assert!(pos[&p] < pos[&s], "edge {p} -> {s} violated");
            }
        }
    }

    #[test]
    fn levels_partition_and_respect_edges(g in arb_dag()) {
        let levels = g.levels();
        let total: usize = levels.iter().map(Vec::len).sum();
        prop_assert_eq!(total, g.len());
        let level_of: std::collections::HashMap<_, _> = levels
            .iter()
            .enumerate()
            .flat_map(|(k, ps)| ps.iter().map(move |&p| (p, k)))
            .collect();
        for p in g.processes() {
            for s in g.succs(p).unwrap() {
                prop_assert!(level_of[&p] < level_of[&s]);
            }
        }
    }

    #[test]
    fn random_edge_insertion_never_creates_cycle(
        n in 2u32..15,
        edges in prop::collection::vec((0u32..15, 0u32..15), 0..80),
    ) {
        // Arbitrary (possibly backward) edges: some will be rejected, but
        // the surviving graph must always topo-sort completely.
        let mut g = ProcessGraph::new();
        for i in 0..n {
            g.add_node(ProcessId::new(i), None).unwrap();
        }
        for (a, b) in edges {
            let (a, b) = (ProcessId::new(a % n), ProcessId::new(b % n));
            let _ = g.add_edge(a, b); // Err is fine; must not corrupt
        }
        prop_assert_eq!(g.topo_order().len(), g.len());
    }

    #[test]
    fn ready_tracker_drains_any_dag(g in arb_dag()) {
        // Repeatedly start+complete the smallest ready process; every
        // process must eventually complete exactly once.
        let mut rt = ReadyTracker::new(&g);
        let mut completed = 0;
        while !rt.all_done() {
            let p = rt.ready().next().expect("non-empty ready set on a DAG");
            rt.start(p).unwrap();
            rt.complete(p).unwrap();
            completed += 1;
            prop_assert!(completed <= g.len(), "livelock");
        }
        prop_assert_eq!(completed, g.len());
    }

    #[test]
    fn critical_path_bounds(g in arb_dag()) {
        let (total, path) = critical_path(&g, |_| 1);
        prop_assert_eq!(total as usize, path.len());
        prop_assert_eq!(path.len(), g.levels().len());
        for w in path.windows(2) {
            prop_assert!(g.succs(w[0]).unwrap().any(|s| s == w[1]));
        }
    }
}

/// The diamond `0 -> {1, 2} -> 3` with node 2 heavy: the path runs
/// through it.
#[test]
fn critical_path_weighted() {
    let p = ProcessId::new;
    let mut g = ProcessGraph::new();
    for i in 0..4 {
        g.add_node(p(i), None).unwrap();
    }
    for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
        g.add_edge(p(a), p(b)).unwrap();
    }
    let (total, path) = critical_path(&g, |q| if q == p(2) { 100 } else { 1 });
    assert_eq!(total, 102);
    assert_eq!(path, vec![p(0), p(2), p(3)]);
}

#[test]
fn critical_path_of_the_empty_graph_is_empty() {
    assert_eq!(critical_path(&ProcessGraph::new(), |_| 1), (0, vec![]));
}
