//! Exact sets of integer indices, stored as canonical sorted intervals.
//!
//! Array footprints of affine loop nests are unions of (often contiguous,
//! sometimes strided) index ranges. [`IndexSet`] keeps a canonical form —
//! sorted, pairwise-disjoint, non-adjacent half-open intervals — so that
//! set algebra (union / intersection) and cardinality are
//! exact and fast, which is what the sharing-matrix computation of the
//! paper's Section 2 needs.

use std::fmt;

/// A half-open interval `[start, end)` of `i64` indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Interval {
    /// Inclusive lower end.
    pub start: i64,
    /// Exclusive upper end.
    pub end: i64,
}

impl Interval {
    /// Creates `[start, end)`. Empty when `start >= end`.
    pub fn new(start: i64, end: i64) -> Self {
        Interval { start, end }
    }

    /// Number of integers contained.
    pub fn len(&self) -> u64 {
        if self.end > self.start {
            (self.end - self.start) as u64
        } else {
            0
        }
    }

    /// Whether the interval contains no integers.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Whether `x` lies in the interval.
    pub fn contains(&self, x: i64) -> bool {
        self.start <= x && x < self.end
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// An exact set of `i64` indices represented as canonical intervals.
///
/// ```
/// use lams_presburger::IndexSet;
///
/// let a = IndexSet::from_range(0, 3000);
/// let b = IndexSet::from_range(1000, 4000);
/// assert_eq!(a.intersect(&b).len(), 2000);   // the Figure 2(a) overlap
/// assert_eq!(a.union(&b).len(), 4000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct IndexSet {
    /// Sorted, disjoint, non-adjacent, all non-empty.
    runs: Vec<Interval>,
}

impl IndexSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        IndexSet::default()
    }

    /// Creates the set `[start, end)`.
    pub fn from_range(start: i64, end: i64) -> Self {
        let mut s = IndexSet::new();
        s.insert_range(start, end);
        s
    }

    /// Inserts the range `[start, end)`.
    pub fn insert_range(&mut self, start: i64, end: i64) {
        if start >= end {
            return;
        }
        let iv = Interval::new(start, end);
        // Find insertion window of runs overlapping or adjacent to iv.
        let lo = self.runs.partition_point(|r| r.end < iv.start);
        let hi = self.runs.partition_point(|r| r.start <= iv.end);
        if lo == hi {
            self.runs.insert(lo, iv);
            return;
        }
        let new_start = iv.start.min(self.runs[lo].start);
        let new_end = iv.end.max(self.runs[hi - 1].end);
        self.runs.drain(lo..hi);
        self.runs.insert(lo, Interval::new(new_start, new_end));
    }

    /// Inserts a single index.
    pub fn insert(&mut self, x: i64) {
        self.insert_range(x, x + 1);
    }

    /// The canonical intervals, sorted and disjoint.
    pub fn intervals(&self) -> &[Interval] {
        &self.runs
    }

    /// Exact number of indices in the set.
    pub fn len(&self) -> u64 {
        self.runs.iter().map(Interval::len).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Smallest contained index, if any.
    pub fn min(&self) -> Option<i64> {
        self.runs.first().map(|r| r.start)
    }

    /// Largest contained index, if any.
    pub fn max(&self) -> Option<i64> {
        self.runs.last().map(|r| r.end - 1)
    }

    /// Membership test (binary search).
    pub fn contains(&self, x: i64) -> bool {
        let idx = self.runs.partition_point(|r| r.end <= x);
        self.runs.get(idx).is_some_and(|r| r.contains(x))
    }

    /// Set intersection (linear merge).
    pub fn intersect(&self, other: &IndexSet) -> IndexSet {
        let (mut i, mut j) = (0, 0);
        let mut out = IndexSet::new();
        while i < self.runs.len() && j < other.runs.len() {
            let a = self.runs[i];
            let b = other.runs[j];
            let s = a.start.max(b.start);
            let e = a.end.min(b.end);
            if s < e {
                // Disjointness of inputs guarantees output stays canonical
                // when appended in order.
                out.runs.push(Interval::new(s, e));
            }
            if a.end <= b.end {
                i += 1;
            } else {
                j += 1;
            }
        }
        out
    }

    /// Set union (linear merge).
    pub fn union(&self, other: &IndexSet) -> IndexSet {
        let mut out = IndexSet::new();
        let mut pending: Option<Interval> = None;
        let mut i = 0;
        let mut j = 0;
        loop {
            let next = match (self.runs.get(i), other.runs.get(j)) {
                (Some(&a), Some(&b)) => {
                    if a.start <= b.start {
                        i += 1;
                        a
                    } else {
                        j += 1;
                        b
                    }
                }
                (Some(&a), None) => {
                    i += 1;
                    a
                }
                (None, Some(&b)) => {
                    j += 1;
                    b
                }
                (None, None) => break,
            };
            match pending {
                None => pending = Some(next),
                Some(p) if next.start <= p.end => {
                    pending = Some(Interval::new(p.start, p.end.max(next.end)));
                }
                Some(p) => {
                    out.runs.push(p);
                    pending = Some(next);
                }
            }
        }
        if let Some(p) = pending {
            out.runs.push(p);
        }
        out
    }

    /// Iterates over every contained index in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            runs: &self.runs,
            run: 0,
            next: self.runs.first().map_or(0, |r| r.start),
        }
    }

    /// Maps each index `x` to `x / k` (floor division, `k >= 1`),
    /// deduplicating. This converts element indices to cache-line or
    /// page indices.
    ///
    /// # Panics
    ///
    /// Panics if `k <= 0`.
    pub fn coarsen(&self, k: i64) -> IndexSet {
        assert!(k >= 1, "coarsening factor must be >= 1");
        let mut out = IndexSet::new();
        for r in &self.runs {
            out.insert_range(r.start.div_euclid(k), (r.end - 1).div_euclid(k) + 1);
        }
        out
    }
}

impl FromIterator<i64> for IndexSet {
    fn from_iter<I: IntoIterator<Item = i64>>(iter: I) -> Self {
        let mut v: Vec<i64> = iter.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        let mut s = IndexSet::new();
        for x in v {
            // Appending in sorted order: extend the last run or push.
            match s.runs.last_mut() {
                Some(last) if last.end == x => last.end = x + 1,
                _ => s.runs.push(Interval::new(x, x + 1)),
            }
        }
        s
    }
}

impl Extend<i64> for IndexSet {
    fn extend<I: IntoIterator<Item = i64>>(&mut self, iter: I) {
        for x in iter {
            self.insert(x);
        }
    }
}

impl<'a> IntoIterator for &'a IndexSet {
    type Item = i64;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the indices of an [`IndexSet`], ascending.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    runs: &'a [Interval],
    run: usize,
    next: i64,
}

impl Iterator for Iter<'_> {
    type Item = i64;

    fn next(&mut self) -> Option<i64> {
        let r = self.runs.get(self.run)?;
        let x = self.next;
        if x + 1 < r.end {
            self.next = x + 1;
        } else {
            self.run += 1;
            if let Some(nr) = self.runs.get(self.run) {
                self.next = nr.start;
            }
        }
        Some(x)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining: u64 = self
            .runs
            .get(self.run)
            .map(|r| (r.end - self.next) as u64)
            .unwrap_or(0)
            + self.runs[(self.run + 1).min(self.runs.len())..]
                .iter()
                .map(Interval::len)
                .sum::<u64>();
        (remaining as usize, Some(remaining as usize))
    }
}

impl fmt::Display for IndexSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, r) in self.runs.iter().enumerate() {
            if k > 0 {
                write!(f, " ∪ ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set() {
        let s = IndexSet::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.min(), None);
        assert!(!s.contains(0));
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn from_range_and_contains() {
        let s = IndexSet::from_range(10, 20);
        assert_eq!(s.len(), 10);
        assert!(s.contains(10));
        assert!(s.contains(19));
        assert!(!s.contains(20));
        assert!(!s.contains(9));
        assert_eq!(s.min(), Some(10));
        assert_eq!(s.max(), Some(19));
    }

    #[test]
    fn degenerate_range_is_empty() {
        assert!(IndexSet::from_range(5, 5).is_empty());
        assert!(IndexSet::from_range(7, 3).is_empty());
    }

    #[test]
    fn insert_merges_overlapping_and_adjacent() {
        let mut s = IndexSet::from_range(0, 5);
        s.insert_range(5, 10); // adjacent: must merge
        assert_eq!(s.intervals().len(), 1);
        assert_eq!(s.len(), 10);
        s.insert_range(20, 25);
        assert_eq!(s.intervals().len(), 2);
        s.insert_range(3, 22); // bridges both
        assert_eq!(s.intervals().len(), 1);
        assert_eq!(s.len(), 25);
    }

    #[test]
    fn insert_before_and_between() {
        let mut s = IndexSet::from_range(10, 12);
        s.insert_range(0, 2);
        s.insert_range(5, 6);
        assert_eq!(s.intervals().len(), 3);
        assert_eq!(s.len(), 5);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 5, 10, 11]);
    }

    #[test]
    fn paper_sharing_counts() {
        // Rows of A touched by Prog1 processes 0..4 (1000k .. 1000k+3000).
        let ds: Vec<IndexSet> = (0..4)
            .map(|k| IndexSet::from_range(1000 * k, 1000 * k + 3000))
            .collect();
        assert_eq!(ds[0].intersect(&ds[1]).len(), 2000);
        assert_eq!(ds[0].intersect(&ds[2]).len(), 1000);
        assert_eq!(ds[0].intersect(&ds[3]).len(), 0);
    }

    #[test]
    fn union_of_disjoint_and_overlapping() {
        let a = IndexSet::from_range(0, 10);
        let b = IndexSet::from_range(20, 30);
        let u = a.union(&b);
        assert_eq!(u.len(), 20);
        assert_eq!(u.intervals().len(), 2);
        let c = IndexSet::from_range(5, 25);
        let v = u.union(&c);
        assert_eq!(v.intervals().len(), 1);
        assert_eq!(v.len(), 30);
    }

    #[test]
    fn from_iterator_canonicalizes() {
        let s: IndexSet = vec![5, 3, 4, 9, 3, 10].into_iter().collect();
        assert_eq!(s.len(), 5);
        assert_eq!(s.intervals().len(), 2); // [3,6) and [9,11)
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 4, 5, 9, 10]);
    }

    #[test]
    fn coarsen_to_lines() {
        // Elements 0..100 on 32-element lines -> lines 0..4 (ceil(100/32)).
        let s = IndexSet::from_range(0, 100).coarsen(32);
        assert_eq!(s.len(), 4);
        // Strided elements hit distinct lines.
        let t: IndexSet = [0, 64, 128, 192].into_iter().collect();
        assert_eq!(t.coarsen(32).len(), 4);
        // Negative indices floor correctly.
        let n = IndexSet::from_range(-5, 5).coarsen(4);
        assert_eq!(n.iter().collect::<Vec<_>>(), vec![-2, -1, 0, 1]);
    }

    #[test]
    fn intersection_is_commutative_and_bounded() {
        let a = IndexSet::from_range(0, 50).union(&IndexSet::from_range(80, 120));
        let b = IndexSet::from_range(40, 90);
        let ab = a.intersect(&b);
        let ba = b.intersect(&a);
        assert_eq!(ab, ba);
        assert!(ab.len() <= a.len().min(b.len()));
        assert_eq!(ab.len(), 20);
    }

    #[test]
    fn display_formats_runs() {
        let s = IndexSet::from_range(0, 2).union(&IndexSet::from_range(5, 6));
        assert_eq!(s.to_string(), "{[0, 2) ∪ [5, 6)}");
        assert_eq!(IndexSet::new().to_string(), "{}");
    }
}
