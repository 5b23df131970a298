//! Element-index → byte-address mapping, plain or remapped.

use std::fmt;

use lams_mpsoc::CacheConfig;
use lams_presburger::IndexSet;

use crate::relayout::RemapAssignment;
use crate::{ArrayId, ArrayTable, Error, Result};

/// Alignment of un-remapped array bases (one cache line of the paper's
/// default cache); keeps adjacent arrays from sharing a line without
/// perturbing set mapping.
const LINE_ALIGN: u64 = 32;

/// Maps `(array, linear element index)` to byte addresses.
///
/// Two modes per array, chosen at construction:
///
/// * **linear** — the array occupies a contiguous region: `base + index *
///   elem_bytes`. This is the paper's "original memory layout"
///   (Figure 4(a)).
/// * **remapped** — the Figure 4(b) transform: the array's bytes are cut
///   into chunks of half a cache page (`C/2`); chunk `k` is placed at
///   `base + k·C + b`, i.e. `addr' = 2·addr − addr mod (C/2) + b` relative
///   to the region base, with `b ∈ {0, C/2}`. Arrays with different `b`
///   can never map to the same cache set (the bases are page-aligned).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    bases: Vec<u64>,
    elem_bytes: Vec<u64>,
    num_elems: Vec<u64>,
    /// Per-array `b` offset; `None` = linear placement.
    remap_b: Vec<Option<u64>>,
    /// Half cache-page size (`C/2`), meaningful when any array is remapped.
    half_page: u64,
}

impl Layout {
    /// Plain contiguous allocation of every array, in id order, with
    /// line-aligned bases (Figure 4(a)).
    pub fn linear(table: &ArrayTable) -> Self {
        Layout::build(table, 2 * LINE_ALIGN, &RemapAssignment::new())
    }

    /// Allocation applying the Figure 4 remap to the arrays named in
    /// `assignment` (others stay linear). Remapped regions are aligned to
    /// the cache page so the half-page guarantee holds.
    ///
    /// Arrays that are *not* remapped receive exactly the same addresses
    /// as under [`Layout::linear`] — the remapped regions are carved out
    /// *after* the linear arena. This keeps LS-vs-LSM comparisons honest:
    /// only the re-layouted arrays move.
    pub fn remapped(table: &ArrayTable, cache: &CacheConfig, assignment: &RemapAssignment) -> Self {
        Layout::build(table, cache.page_bytes(), assignment)
    }

    fn build(table: &ArrayTable, page_bytes: u64, assignment: &RemapAssignment) -> Self {
        let half_page = page_bytes / 2;
        let n = table.len();
        let mut bases = vec![0u64; n];
        let mut elem_bytes = Vec::with_capacity(n);
        let mut num_elems = Vec::with_capacity(n);
        let mut remap_b = Vec::with_capacity(n);
        // Pass 1: linear arena, identical regardless of the assignment.
        let mut cursor = 0u64;
        for (id, decl) in table.iter() {
            cursor = cursor.next_multiple_of(decl.align().max(LINE_ALIGN));
            bases[id.as_usize()] = cursor;
            cursor += decl.size_bytes();
            elem_bytes.push(decl.elem_bytes());
            num_elems.push(decl.num_elems());
            remap_b.push(assignment.b_offset(id, half_page));
        }
        // Pass 2: remapped arrays move to doubled, page-aligned regions
        // past the linear arena (their linear slots become unused holes).
        for (id, decl) in table.iter() {
            if remap_b[id.as_usize()].is_some() {
                cursor = cursor.next_multiple_of(page_bytes.max(LINE_ALIGN));
                bases[id.as_usize()] = cursor;
                cursor += 2 * decl.size_bytes().next_multiple_of(half_page.max(1));
            }
        }
        Layout {
            bases,
            elem_bytes,
            num_elems,
            remap_b,
            half_page,
        }
    }

    /// Number of arrays covered.
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    /// Whether the layout covers no arrays.
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }

    /// Whether `array` uses the Figure 4 remap, and with which `b`.
    pub fn remap_offset(&self, array: ArrayId) -> Option<u64> {
        self.remap_b.get(array.as_usize()).copied().flatten()
    }

    /// Element size in bytes of `array` (as covered by this layout).
    ///
    /// # Panics
    ///
    /// Panics when the array is out of range.
    pub fn elem_bytes(&self, array: ArrayId) -> u64 {
        self.elem_bytes[array.as_usize()]
    }

    /// The half-cache-page chunk size (`C/2`) remapped arrays are cut
    /// into — the span over which a remapped array's addresses stay
    /// affine (trace compilers split strided runs at chunk boundaries).
    pub fn half_page(&self) -> u64 {
        self.half_page
    }

    /// Content fingerprint of the layout **restricted to** the given
    /// arrays — the per-process memo key primitive behind delta-keyed
    /// memoization (`lams_core::memo::ArtifactCache`).
    ///
    /// Hashes exactly the layout data that can influence the addresses
    /// (and therefore the compiled trace program) of a process touching
    /// only `arrays`: each listed array's id, base, element size,
    /// element count and remap offset, plus the half-page chunk size
    /// **only when at least one listed array is remapped** — unremapped
    /// arrays ignore `half_page` entirely, and hashing it
    /// unconditionally would spuriously split the linear layout
    /// (`half_page` = one line pair) from a remapped candidate
    /// (`half_page` = C/2) for processes the remap never touches.
    /// Equal restricted fingerprints therefore imply byte-identical
    /// compiled programs for any process whose touched-array set is
    /// `arrays` (soundness proptested in `crates/core/tests/memo.rs`).
    ///
    /// `arrays` must be sorted by id (callers pass
    /// `Workload::arrays_of`, which is) so independently built but
    /// identical restrictions hash equal.
    #[deny(unused_variables)]
    pub fn restricted_fingerprint(&self, arrays: &[ArrayId]) -> lams_mpsoc::Fingerprint {
        // No `..`: a new field fails the build here until it is hashed
        // (docs/invariants.md).
        let Layout {
            bases,
            elem_bytes,
            num_elems,
            remap_b,
            half_page,
        } = self;
        debug_assert!(
            arrays.windows(2).all(|w| w[0] < w[1]),
            "restriction array list must be sorted and duplicate-free"
        );
        let mut h = lams_mpsoc::FingerprintHasher::new("lams.layout.restricted");
        h.write_len(arrays.len());
        let mut any_remapped = false;
        for &a in arrays {
            let i = a.as_usize();
            h.write_u32(a.index());
            h.write_u64(bases[i]);
            h.write_u64(elem_bytes[i]);
            h.write_u64(num_elems[i]);
            match remap_b[i] {
                None => h.write_bool(false),
                Some(b) => {
                    any_remapped = true;
                    h.write_bool(true);
                    h.write_u64(b);
                }
            }
        }
        // Chunking metadata only matters once a remapped lane exists.
        h.write_bool(any_remapped);
        if any_remapped {
            h.write_u64(*half_page);
        }
        h.finish()
    }

    /// Byte address of the first byte of element `index` of `array`.
    ///
    /// This is the hot path of trace compilation, so it does *not*
    /// bounds-check in release builds; [`Layout::addr_checked`] does.
    ///
    /// # Panics
    ///
    /// Panics (debug builds only) when the array or index is out of
    /// range.
    #[inline]
    pub fn addr(&self, array: ArrayId, index: i64) -> u64 {
        let a = array.as_usize();
        debug_assert!(a < self.bases.len(), "unknown array {array}");
        debug_assert!(
            index >= 0 && (index as u64) < self.num_elems[a],
            "index {index} out of bounds for {array}"
        );
        let rel = index as u64 * self.elem_bytes[a];
        let base = self.bases[a];
        match self.remap_b[a] {
            None => base + rel,
            Some(b) => {
                let chunk = rel / self.half_page;
                let off = rel % self.half_page;
                base + chunk * (2 * self.half_page) + off + b
            }
        }
    }

    /// Checked variant of [`Layout::addr`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownArray`] / [`Error::IndexOutOfBounds`].
    pub fn addr_checked(&self, array: ArrayId, index: i64) -> Result<u64> {
        let a = array.as_usize();
        if a >= self.bases.len() {
            return Err(Error::UnknownArray(array));
        }
        if index < 0 || index as u64 >= self.num_elems[a] {
            return Err(Error::IndexOutOfBounds {
                array,
                index,
                len: self.num_elems[a],
            });
        }
        Ok(self.addr(array, index))
    }

    /// The byte-address footprint covered by a set of element indices
    /// (every byte of every element), exact even under remapping.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownArray`] for uncovered arrays.
    pub fn byte_footprint(&self, array: ArrayId, elems: &IndexSet) -> Result<IndexSet> {
        let a = array.as_usize();
        if a >= self.bases.len() {
            return Err(Error::UnknownArray(array));
        }
        let eb = self.elem_bytes[a] as i64;
        let base = self.bases[a] as i64;
        let mut out = IndexSet::new();
        for iv in elems.intervals() {
            let (rs, re) = (iv.start * eb, iv.end * eb); // relative byte range
            match self.remap_b[a] {
                None => out.insert_range(base + rs, base + re),
                Some(b) => {
                    // Split [rs, re) on half-page chunk boundaries.
                    let hp = self.half_page as i64;
                    let mut s = rs;
                    while s < re {
                        let chunk = s / hp;
                        let chunk_end = (chunk + 1) * hp;
                        let e = re.min(chunk_end);
                        let off = s - chunk * hp;
                        let dst = base + chunk * 2 * hp + off + b as i64;
                        out.insert_range(dst, dst + (e - s));
                        s = e;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Histogram of *distinct cache lines per cache set* occupied by the
    /// given element footprint — the raw material of the conflict matrix.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownArray`] for uncovered arrays.
    pub fn set_histogram(
        &self,
        array: ArrayId,
        elems: &IndexSet,
        cache: &CacheConfig,
    ) -> Result<Vec<u64>> {
        let bytes = self.byte_footprint(array, elems)?;
        let lines = bytes.coarsen(cache.line_bytes as i64);
        let num_sets = cache.num_sets() as i64;
        let mut hist = vec![0u64; num_sets as usize];
        for iv in lines.intervals() {
            let total = iv.end - iv.start;
            // Lines in [start, end) hit set (line mod num_sets); distribute.
            let full = total / num_sets;
            for h in hist.iter_mut() {
                *h += full as u64;
            }
            let rem = total % num_sets;
            for k in 0..rem {
                let s = ((iv.start + k).rem_euclid(num_sets)) as usize;
                hist[s] += 1;
            }
        }
        Ok(hist)
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let remapped = self.remap_b.iter().filter(|b| b.is_some()).count();
        write!(f, "Layout({} arrays, {} remapped)", self.len(), remapped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relayout::HalfPage;
    use crate::ArrayDecl;

    fn table2() -> (ArrayTable, ArrayId, ArrayId) {
        let mut t = ArrayTable::new();
        let a = t.push(ArrayDecl::new("K1", vec![4096], 4)); // 16 KB
        let b = t.push(ArrayDecl::new("K2", vec![4096], 4));
        (t, a, b)
    }

    #[test]
    fn linear_is_contiguous() {
        let (t, a, b) = table2();
        let l = Layout::linear(&t);
        assert_eq!(l.addr(a, 0) + 4, l.addr(a, 1));
        assert!(l.addr(b, 0) >= l.addr(a, 4095) + 4);
        assert_eq!(l.remap_offset(a), None);
    }

    #[test]
    fn addr_checked_validates() {
        let (t, a, _) = table2();
        let l = Layout::linear(&t);
        assert!(l.addr_checked(a, 0).is_ok());
        assert!(matches!(
            l.addr_checked(a, 4096),
            Err(Error::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            l.addr_checked(ArrayId::new(9), 0),
            Err(Error::UnknownArray(_))
        ));
    }

    #[test]
    fn remap_formula_matches_paper() {
        // addr' = 2*addr - addr mod (C/2) + b, relative to a page-aligned
        // base. C = 4096 for the paper's cache.
        let (t, a, b) = table2();
        let cache = CacheConfig::paper_default();
        let mut asg = RemapAssignment::new();
        asg.assign(a, HalfPage::Lower);
        asg.assign(b, HalfPage::Upper);
        let l = Layout::remapped(&t, &cache, &asg);
        let hp = cache.page_bytes() / 2; // 2048
        let base_a = l.addr(a, 0);
        assert_eq!(base_a % cache.page_bytes(), 0, "page aligned");
        for &idx in &[0i64, 1, 511, 512, 513, 1024, 4095] {
            let rel = idx as u64 * 4;
            let expect = base_a + 2 * rel - rel % hp;
            assert_eq!(l.addr(a, idx), expect, "paper formula at {idx}");
        }
        // Upper-half array: same formula plus b = C/2.
        let base_b = l.addr(b, 0) - hp;
        assert_eq!(base_b % cache.page_bytes(), 0);
        assert_eq!(l.remap_offset(b), Some(hp));
    }

    #[test]
    fn opposite_halves_never_share_a_set() {
        let (t, a, b) = table2();
        let cache = CacheConfig::paper_default();
        let mut asg = RemapAssignment::new();
        asg.assign(a, HalfPage::Lower);
        asg.assign(b, HalfPage::Upper);
        let l = Layout::remapped(&t, &cache, &asg);
        use std::collections::BTreeSet;
        let sets_a: BTreeSet<u64> = (0..4096).map(|i| cache.set_of(l.addr(a, i))).collect();
        let sets_b: BTreeSet<u64> = (0..4096).map(|i| cache.set_of(l.addr(b, i))).collect();
        assert!(sets_a.is_disjoint(&sets_b), "Figure 4 guarantee violated");
        // Each array still spans its full half of the sets.
        assert_eq!(sets_a.len() as u64, cache.num_sets() / 2);
        assert_eq!(sets_b.len() as u64, cache.num_sets() / 2);
    }

    #[test]
    fn byte_footprint_linear() {
        let (t, a, _) = table2();
        let l = Layout::linear(&t);
        let fp = l.byte_footprint(a, &IndexSet::from_range(0, 8)).unwrap();
        assert_eq!(fp.len(), 32); // 8 elements * 4 bytes
        let base = l.addr(a, 0) as i64;
        assert_eq!(fp, IndexSet::from_range(base, base + 32));
    }

    #[test]
    fn byte_footprint_remapped_matches_addr() {
        let (t, a, b) = table2();
        let cache = CacheConfig::paper_default();
        let mut asg = RemapAssignment::new();
        asg.assign(a, HalfPage::Upper);
        let _ = b;
        let l = Layout::remapped(&t, &cache, &asg);
        // Cross-check the footprint against per-element addresses around a
        // chunk boundary (element 512 starts chunk 1 at 4B elements).
        let elems = IndexSet::from_range(500, 520);
        let fp = l.byte_footprint(a, &elems).unwrap();
        for idx in 500..520 {
            let addr = l.addr(a, idx) as i64;
            for byte in 0..4 {
                assert!(fp.contains(addr + byte), "byte {byte} of elem {idx}");
            }
        }
        assert_eq!(fp.len(), 20 * 4);
    }

    #[test]
    fn set_histogram_counts_lines() {
        let mut t = ArrayTable::new();
        // 1024 elements * 4B = 4 KB = exactly one cache page => each set
        // of the 8KB/2-way cache gets exactly one line.
        let a = t.push(ArrayDecl::new("A", vec![1024], 4));
        let l = Layout::linear(&t);
        let cache = CacheConfig::paper_default();
        let h = l
            .set_histogram(a, &IndexSet::from_range(0, 1024), &cache)
            .unwrap();
        assert_eq!(h.len(), 128);
        assert!(h.iter().all(|&c| c == 1));
    }

    #[test]
    fn restricted_fingerprint_ignores_unlisted_arrays() {
        let (t, a, b) = table2();
        let cache = CacheConfig::paper_default();
        let linear = Layout::linear(&t);
        let mut asg = RemapAssignment::new();
        asg.assign(b, HalfPage::Lower);
        let rb = Layout::remapped(&t, &cache, &asg);
        // Remapping only `b` leaves `a`'s addresses untouched (pass-1
        // arena), so the restriction to `a` is key-equal across the two
        // layouts — exactly the reuse the per-process memo needs — while
        // the restriction to `b` must split.
        assert_eq!(
            linear.restricted_fingerprint(&[a]),
            rb.restricted_fingerprint(&[a])
        );
        assert_ne!(
            linear.restricted_fingerprint(&[b]),
            rb.restricted_fingerprint(&[b])
        );
        // Once the listed set contains a remapped array, half_page is
        // part of the key.
        assert_ne!(
            linear.restricted_fingerprint(&[a, b]),
            rb.restricted_fingerprint(&[a, b])
        );
    }

    #[test]
    fn restricted_fingerprint_separates_array_identity_and_set_size() {
        let (t, a, b) = table2();
        let l = Layout::linear(&t);
        assert_ne!(
            l.restricted_fingerprint(&[a]),
            l.restricted_fingerprint(&[b])
        );
        assert_ne!(
            l.restricted_fingerprint(&[a]),
            l.restricted_fingerprint(&[a, b])
        );
        assert_eq!(
            l.restricted_fingerprint(&[a, b]),
            Layout::linear(&t).restricted_fingerprint(&[a, b])
        );
    }

    #[test]
    fn display() {
        let (t, ..) = table2();
        assert_eq!(
            Layout::linear(&t).to_string(),
            "Layout(2 arrays, 0 remapped)"
        );
    }
}
