//! The inter-process sharing matrix (Section 2, Figure 2(a)).

use std::fmt;

use lams_procgraph::ProcessId;
use lams_workloads::Workload;

/// Symmetric matrix `M[p][q] = |DS_p ∩ DS_q|`: the number of data
/// elements shared by each process pair, computed from the exact
/// Presburger footprints of the workload.
///
/// This is the paper's Figure 2(a) table; it drives both decisions of
/// the Figure 3 scheduler (spread concurrent sharers, chain sequential
/// sharers).
///
/// ```
/// use lams_core::SharingMatrix;
/// use lams_procgraph::ProcessId;
/// use lams_workloads::{prog1, Workload};
///
/// let w = Workload::single(prog1()).unwrap();
/// let m = SharingMatrix::from_workload(&w);
/// // Figure 2(a): adjacent processes share 2000 elements.
/// assert_eq!(m.get(ProcessId::new(0), ProcessId::new(1)), 2000);
/// assert_eq!(m.get(ProcessId::new(0), ProcessId::new(2)), 1000);
/// assert_eq!(m.get(ProcessId::new(0), ProcessId::new(4)), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharingMatrix {
    n: usize,
    data: Vec<u64>,
}

impl SharingMatrix {
    /// Builds the matrix from a workload's per-process data sets at
    /// element granularity (the paper's formulation).
    pub fn from_workload(workload: &Workload) -> Self {
        let n = workload.num_processes();
        let mut m = SharingMatrix {
            n,
            data: vec![0; n * n],
        };
        let ids: Vec<ProcessId> = workload.process_ids().collect();
        for (i, &p) in ids.iter().enumerate() {
            for &q in &ids[i + 1..] {
                let v = workload.data_set(p).shared_len(workload.data_set(q));
                m.set(p, q, v);
            }
        }
        m
    }

    /// Builds the matrix from a recorded [`lams_trace::TraceBundle`]:
    /// per-process footprints are the distinct addresses each program
    /// touches, and sharing is their pairwise overlap.
    ///
    /// For a bundle recorded from a [`Workload`] this equals
    /// [`SharingMatrix::from_workload`] exactly — array regions are
    /// disjoint and element addresses injective, so address overlap *is*
    /// element overlap — which is what makes `.ltr` replay reproduce
    /// locality-aware schedules bit-identically. For externally captured
    /// traces it is the natural operational definition.
    pub fn from_bundle(bundle: &lams_trace::TraceBundle) -> Self {
        let n = bundle.records.len();
        let mut m = SharingMatrix {
            n,
            data: vec![0; n * n],
        };
        // Sorted, deduplicated footprint vectors: bundles can carry
        // millions of references per process, and a two-pointer merge
        // over contiguous memory beats tree-set intersection there.
        // Every pass of a program replays the same blocks, so the first
        // pass holds its whole footprint.
        let footprints: Vec<Vec<u64>> = bundle
            .records
            .iter()
            .map(|r| {
                let pass_ops = r.program.len_ops() / r.program.passes().max(1);
                let mut addrs: Vec<u64> = (r.program.iter().take(pass_ops as usize))
                    .filter_map(|op| op.addr())
                    .collect();
                addrs.sort_unstable();
                addrs.dedup();
                addrs
            })
            .collect();
        let overlap = |a: &[u64], b: &[u64]| -> u64 {
            let (mut i, mut j, mut count) = (0usize, 0usize, 0u64);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        count += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
            count
        };
        for i in 0..n {
            for j in i + 1..n {
                let v = overlap(&footprints[i], &footprints[j]);
                m.set(ProcessId::new(i as u32), ProcessId::new(j as u32), v);
            }
        }
        m
    }

    /// Builds the matrix at cache-line granularity: footprints are first
    /// mapped through `layout` to byte addresses and coarsened to lines.
    /// An ablation alternative to the paper's element counting — two
    /// processes sharing parts of the same lines reuse cache contents
    /// even when they share no element.
    pub fn from_workload_lines(
        workload: &Workload,
        layout: &lams_layout::Layout,
        line_bytes: u64,
    ) -> Self {
        let n = workload.num_processes();
        let mut m = SharingMatrix {
            n,
            data: vec![0; n * n],
        };
        let ids: Vec<ProcessId> = workload.process_ids().collect();
        // Pre-compute per-process line sets.
        let line_sets: Vec<lams_presburger::IndexSet> = ids
            .iter()
            .map(|&p| {
                let mut lines = lams_presburger::IndexSet::new();
                for (&arr, elems) in workload.data_set(p).iter() {
                    let bytes = layout
                        .byte_footprint(arr, elems)
                        .expect("workload arrays are covered by the layout");
                    lines = lines.union(&bytes.coarsen(line_bytes as i64));
                }
                lines
            })
            .collect();
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                let v = line_sets[i].intersect(&line_sets[j]).len();
                m.set(ids[i], ids[j], v);
            }
        }
        m
    }

    /// Matrix dimension (process count).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Shared-element count for a pair (diagonal reads 0).
    ///
    /// # Panics
    ///
    /// Panics when an id is out of range.
    pub fn get(&self, p: ProcessId, q: ProcessId) -> u64 {
        assert!(p.as_usize() < self.n && q.as_usize() < self.n, "id range");
        if p == q {
            return 0;
        }
        self.data[p.as_usize() * self.n + q.as_usize()]
    }

    fn set(&mut self, p: ProcessId, q: ProcessId, v: u64) {
        if p == q {
            return;
        }
        self.data[p.as_usize() * self.n + q.as_usize()] = v;
        self.data[q.as_usize() * self.n + p.as_usize()] = v;
    }

    /// Total sharing of `p` with a set of candidates — the
    /// `Σ_{q ∈ IN} M[p][q]` of the Figure 3 initialization.
    pub fn total_with<I>(&self, p: ProcessId, candidates: I) -> u64
    where
        I: IntoIterator<Item = ProcessId>,
    {
        candidates.into_iter().map(|q| self.get(p, q)).sum()
    }

    /// Renders the matrix in the triangular style of Figure 2(a).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str("      ");
        for q in 0..self.n {
            out.push_str(&format!("{:>7}", format!("P{q}")));
        }
        out.push('\n');
        for p in 0..self.n {
            out.push_str(&format!("{:<6}", format!("P{p}")));
            for q in 0..=p {
                if p == q {
                    out.push_str(&format!("{:>7}", "-"));
                } else {
                    out.push_str(&format!("{:>7}", self.data[p * self.n + q]));
                }
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for SharingMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lams_workloads::{prog1, suite, Scale, Workload};

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn figure_2a_exact() {
        let w = Workload::single(prog1()).unwrap();
        let m = SharingMatrix::from_workload(&w);
        // The full Figure 2(a) pattern.
        let expect = |p: i64, q: i64| match (p - q).abs() {
            1 => 2000,
            2 => 1000,
            _ => 0,
        };
        for p in 0..8 {
            for q in 0..8 {
                if p != q {
                    assert_eq!(
                        m.get(pid(p as u32), pid(q as u32)),
                        expect(p, q),
                        "M[{p}][{q}]"
                    );
                }
            }
        }
    }

    #[test]
    fn symmetric_and_zero_diagonal() {
        let w = Workload::single(suite::shape(Scale::Tiny)).unwrap();
        let m = SharingMatrix::from_workload(&w);
        for p in 0..m.len() as u32 {
            assert_eq!(m.get(pid(p), pid(p)), 0);
            for q in 0..m.len() as u32 {
                assert_eq!(m.get(pid(p), pid(q)), m.get(pid(q), pid(p)));
            }
        }
    }

    #[test]
    fn total_with_sums_row() {
        let w = Workload::single(prog1()).unwrap();
        let m = SharingMatrix::from_workload(&w);
        let total = m.total_with(pid(0), (0..8).map(pid));
        assert_eq!(total, 2000 + 1000);
        // Middle process has both neighbours on both sides.
        let total = m.total_with(pid(3), (0..8).map(pid));
        assert_eq!(total, 2 * 2000 + 2 * 1000);
    }

    #[test]
    fn line_granularity_at_least_element_sharing_for_dense_rows() {
        let w = Workload::single(prog1()).unwrap();
        let layout = lams_layout::Layout::linear(w.arrays());
        let me = SharingMatrix::from_workload(&w);
        let ml = SharingMatrix::from_workload_lines(&w, &layout, 32);
        // Processes 0 and 1 share 2000 elements of A; each accessed
        // element (stride 40 bytes) occupies its own 32-byte line, so
        // that contributes 2000 shared lines. On top of that the whole
        // 8-element B array is one line, which P0 (touching B[0]) and P1
        // (touching B[1]) *false-share* — line granularity legitimately
        // sees one more shared unit than element granularity.
        assert_eq!(me.get(pid(0), pid(1)), 2000);
        assert_eq!(ml.get(pid(0), pid(1)), 2001);
        // Distant processes share no A rows but still false-share B.
        assert_eq!(ml.get(pid(0), pid(4)), 1);
    }

    #[test]
    fn table_rendering() {
        let w = Workload::single(prog1()).unwrap();
        let m = SharingMatrix::from_workload(&w);
        let t = m.to_table();
        assert!(t.contains("P7"));
        assert!(t.contains("2000"));
        assert!(t.contains('-'));
    }
}
