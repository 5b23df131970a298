//! Per-array data footprints and shared-set cardinalities.

use std::collections::BTreeMap;
use std::fmt;

use crate::IndexSet;

/// The set of data elements a process touches: one [`IndexSet`] of
/// linearized element indices per array, keyed by an array identifier.
///
/// This is the paper's `DS` set; [`DataSet::shared_len`] computes the
/// cardinality of the shared set `SS = DS_k ∩ DS_p`, the entry of the
/// sharing matrix of Figure 2(a).
///
/// The key type `K` is generic so that callers can use their own array
/// identifiers (the workload crate uses a compact `ArrayId`).
///
/// ```
/// use lams_presburger::{DataSet, IndexSet};
///
/// let mut p0: DataSet<&str> = DataSet::new();
/// p0.insert("A", IndexSet::from_range(0, 3000));
/// let mut p1: DataSet<&str> = DataSet::new();
/// p1.insert("A", IndexSet::from_range(1000, 4000));
/// p1.insert("B", IndexSet::from_range(0, 10));
///
/// assert_eq!(p0.shared_len(&p1), 2000);
/// assert_eq!(p1.shared_len(&p0), 2000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DataSet<K: Ord> {
    per_array: BTreeMap<K, IndexSet>,
}

impl<K: Ord + Clone> DataSet<K> {
    /// Creates an empty data set.
    pub fn new() -> Self {
        DataSet {
            per_array: BTreeMap::new(),
        }
    }

    /// Adds (unions) a footprint for `array`.
    pub fn insert(&mut self, array: K, indices: IndexSet) {
        if indices.is_empty() {
            return;
        }
        match self.per_array.get_mut(&array) {
            Some(existing) => *existing = existing.union(&indices),
            None => {
                self.per_array.insert(array, indices);
            }
        }
    }

    /// The footprint on `array`, if any.
    pub fn get(&self, array: &K) -> Option<&IndexSet> {
        self.per_array.get(array)
    }

    /// Iterates over `(array, footprint)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &IndexSet)> + '_ {
        self.per_array.iter()
    }

    /// The arrays with a non-empty footprint.
    pub fn arrays(&self) -> impl Iterator<Item = &K> + '_ {
        self.per_array.keys()
    }

    /// Total number of distinct elements across all arrays.
    pub fn total_len(&self) -> u64 {
        self.per_array.values().map(IndexSet::len).sum()
    }

    /// Whether no array has a footprint.
    pub fn is_empty(&self) -> bool {
        self.per_array.is_empty()
    }

    /// `|self ∩ other|` — the sharing-matrix entry for a process pair.
    pub fn shared_len(&self, other: &DataSet<K>) -> u64 {
        self.per_array
            .iter()
            .filter_map(|(k, a)| other.per_array.get(k).map(|b| a.intersect(b).len()))
            .sum()
    }

    /// Maps element footprints to coarser blocks (e.g. cache lines) by
    /// dividing indices by `k`, per array.
    ///
    /// # Panics
    ///
    /// Panics if `k <= 0`.
    pub fn coarsen(&self, k: i64) -> DataSet<K> {
        DataSet {
            per_array: self
                .per_array
                .iter()
                .map(|(key, s)| (key.clone(), s.coarsen(k)))
                .collect(),
        }
    }
}

impl<K: Ord + Clone> FromIterator<(K, IndexSet)> for DataSet<K> {
    fn from_iter<I: IntoIterator<Item = (K, IndexSet)>>(iter: I) -> Self {
        let mut ds = DataSet::new();
        for (k, s) in iter {
            ds.insert(k, s);
        }
        ds
    }
}

impl<K: Ord + fmt::Display> fmt::Display for DataSet<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DataSet{{")?;
        for (i, (k, s)) in self.per_array.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: |{}|", s.len())?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_unions() {
        let mut ds: DataSet<u32> = DataSet::new();
        ds.insert(0, IndexSet::from_range(0, 10));
        ds.insert(0, IndexSet::from_range(5, 20));
        assert_eq!(ds.get(&0).unwrap().len(), 20);
        assert_eq!(ds.total_len(), 20);
    }

    #[test]
    fn empty_footprint_is_ignored() {
        let mut ds: DataSet<u32> = DataSet::new();
        ds.insert(1, IndexSet::new());
        assert!(ds.is_empty());
    }

    #[test]
    fn sharing_respects_array_identity() {
        let mut a: DataSet<&str> = DataSet::new();
        a.insert("A", IndexSet::from_range(0, 100));
        let mut b: DataSet<&str> = DataSet::new();
        b.insert("D", IndexSet::from_range(0, 100));
        // Same index ranges on *different* arrays share nothing —
        // exactly why Prog1 and Prog2 in the paper share no data.
        assert_eq!(a.shared_len(&b), 0);
    }

    #[test]
    fn sharing_is_symmetric() {
        let mut a: DataSet<u8> = DataSet::new();
        a.insert(0, IndexSet::from_range(0, 3000));
        a.insert(1, IndexSet::from_range(0, 8));
        let mut b: DataSet<u8> = DataSet::new();
        b.insert(0, IndexSet::from_range(1000, 4000));
        assert_eq!(a.shared_len(&b), b.shared_len(&a));
        assert_eq!(a.shared_len(&b), 2000);
    }

    #[test]
    fn coarsen_to_cache_lines() {
        let mut a: DataSet<u8> = DataSet::new();
        a.insert(0, IndexSet::from_range(0, 64));
        let lines = a.coarsen(8);
        assert_eq!(lines.get(&0).unwrap().len(), 8);
    }

    #[test]
    fn from_iterator() {
        let ds: DataSet<&str> = [
            ("A", IndexSet::from_range(0, 4)),
            ("B", IndexSet::from_range(0, 4)),
            ("A", IndexSet::from_range(2, 8)),
        ]
        .into_iter()
        .collect();
        assert_eq!(ds.get(&"A").unwrap().len(), 8);
        assert_eq!(ds.total_len(), 12);
    }

    #[test]
    fn display() {
        let mut ds: DataSet<&str> = DataSet::new();
        ds.insert("A", IndexSet::from_range(0, 4));
        assert_eq!(ds.to_string(), "DataSet{A: |4|}");
    }
}
