//! The Figure 4/5 data-mapping machinery in isolation: three arrays that
//! collide in the cache (a 2-way cache absorbs any *pair*, so three
//! co-resident colliding arrays are the minimal thrash scenario), the
//! conflict matrix that detects it, the greedy re-layout pass that
//! separates them, and a direct demonstration of the half-page
//! non-conflict guarantee on the simulated cache.
//!
//! ```text
//! cargo run --release --example data_mapping
//! ```

use lams::layout::{
    relayout_pass, AdjacentArrays, ArrayDecl, ArrayId, ArrayTable, ConflictMatrix, Layout,
};
use lams::mpsoc::{Cache, CacheConfig};
use lams::presburger::IndexSet;

/// Interleaved sweep over several arrays, three passes — the access
/// pattern of a process (or successive processes on one core) juggling
/// all of them.
fn thrash(cache_cfg: &CacheConfig, layout: &Layout, arrays: &[ArrayId], n: i64) -> u64 {
    let mut cache = Cache::new(*cache_cfg);
    for _ in 0..3 {
        for idx in 0..n {
            for &a in arrays {
                cache.access(layout.addr(a, idx));
            }
        }
    }
    cache.stats().conflict_misses
}

fn main() {
    let cache = CacheConfig::paper_default();
    let n = 1024i64; // 4 KB arrays: exactly one cache page each

    // Three same-size arrays allocated back to back: every K1[i], K2[i],
    // K3[i] triple maps to the same 2-way cache set — guaranteed thrash.
    let mut table = ArrayTable::new();
    let k1 = table.push(ArrayDecl::new("K1", vec![n], 4));
    let k2 = table.push(ArrayDecl::new("K2", vec![n], 4));
    let k3 = table.push(ArrayDecl::new("K3", vec![n], 4));
    let ids = [k1, k2, k3];

    let linear = Layout::linear(&table);
    println!("original layout (Figure 4a):");
    for &a in &ids {
        println!(
            "  {} base {:#07x} (set of element 0: {})",
            table.get(a).expect("known").name(),
            linear.addr(a, 0),
            cache.set_of(linear.addr(a, 0))
        );
    }
    let before = thrash(&cache, &linear, &ids, n);
    println!("  conflict misses under an interleaved sweep: {before}");
    assert!(before > 0, "three aligned arrays must thrash a 2-way cache");

    // Detect: conflict matrix from cache-set histograms.
    let all = IndexSet::from_range(0, n);
    let hists: Vec<Vec<u64>> = ids
        .iter()
        .map(|&a| linear.set_histogram(a, &all, &cache).expect("covered"))
        .collect();
    let conflicts = ConflictMatrix::from_histograms(&hists);
    println!(
        "  conflict-matrix entries: M[K1][K2]={} M[K1][K3]={} M[K2][K3]={}",
        conflicts.get(k1, k2),
        conflicts.get(k1, k3),
        conflicts.get(k2, k3)
    );

    // Repair: the Figure 5 pass assigns opposite half-pages.
    let mut adjacent = AdjacentArrays::new();
    adjacent.insert_within(&ids); // all accessed by the same process
    let assignment = relayout_pass(&conflicts, &adjacent, Some(0.0));
    println!("\nre-layout decision (Figure 5):");
    for (array, half) in assignment.iter() {
        println!("  {} -> {half}", table.get(array).expect("known").name());
    }

    let remapped = Layout::remapped(&table, &cache, &assignment);
    println!("\nremapped layout (Figure 4b):");
    println!(
        "  addr'(e) = 2·addr(e) − addr(e) mod {} + b,  b ∈ {{0, {}}}",
        cache.page_bytes() / 2,
        cache.page_bytes() / 2
    );
    let after = thrash(&cache, &remapped, &ids, n);
    println!("  conflict misses under the same sweep: {after}");

    assert!(after < before, "re-layout must remove the conflicts");
    println!("\nconflict misses eliminated: {before} -> {after}");
}
