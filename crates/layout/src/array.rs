//! Array declarations and the array table.

use std::fmt;

/// Identifier of an array within an [`ArrayTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ArrayId(u32);

impl ArrayId {
    /// Creates an id from a raw index (normally produced by
    /// [`ArrayTable::push`]).
    pub const fn new(raw: u32) -> Self {
        ArrayId(raw)
    }

    /// The raw index.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// The raw index as `usize`.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// Declaration of one application array: name, dimension extents and
/// element size in bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDecl {
    name: String,
    extents: Vec<i64>,
    elem_bytes: u64,
    align: u64,
}

impl ArrayDecl {
    /// Creates a declaration.
    ///
    /// # Panics
    ///
    /// Panics when any extent is non-positive or `elem_bytes == 0`.
    pub fn new(name: impl Into<String>, extents: Vec<i64>, elem_bytes: u64) -> Self {
        assert!(
            extents.iter().all(|&e| e > 0),
            "array extents must be positive"
        );
        assert!(elem_bytes > 0, "element size must be non-zero");
        ArrayDecl {
            name: name.into(),
            extents,
            elem_bytes,
            align: 1,
        }
    }

    /// The base-address alignment requirement (1 = none beyond the
    /// layout's default line alignment).
    pub fn align(&self) -> u64 {
        self.align
    }

    /// The array's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The dimension extents.
    pub fn extents(&self) -> &[i64] {
        &self.extents
    }

    /// Element size in bytes.
    pub fn elem_bytes(&self) -> u64 {
        self.elem_bytes
    }

    /// Total number of elements.
    pub fn num_elems(&self) -> u64 {
        self.extents.iter().product::<i64>() as u64
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.num_elems() * self.elem_bytes
    }
}

impl fmt::Display for ArrayDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        for e in &self.extents {
            write!(f, "[{e}]")?;
        }
        write!(f, " ({}B elems)", self.elem_bytes)
    }
}

/// The set of arrays of a workload, indexed by [`ArrayId`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArrayTable {
    decls: Vec<ArrayDecl>,
}

impl ArrayTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ArrayTable::default()
    }

    /// Registers an array, returning its id.
    pub fn push(&mut self, decl: ArrayDecl) -> ArrayId {
        let id = ArrayId::new(self.decls.len() as u32);
        self.decls.push(decl);
        id
    }

    /// The declaration for `id`, if present.
    pub fn get(&self, id: ArrayId) -> Option<&ArrayDecl> {
        self.decls.get(id.as_usize())
    }

    /// Finds an array by name.
    pub fn by_name(&self, name: &str) -> Option<ArrayId> {
        self.decls
            .iter()
            .position(|d| d.name() == name)
            .map(|i| ArrayId::new(i as u32))
    }

    /// Number of arrays.
    pub fn len(&self) -> usize {
        self.decls.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.decls.is_empty()
    }

    /// Iterates `(id, decl)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ArrayId, &ArrayDecl)> + '_ {
        self.decls
            .iter()
            .enumerate()
            .map(|(i, d)| (ArrayId::new(i as u32), d))
    }

    /// Overrides the alignment requirement of an existing array.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range or `align` is not a power of two.
    pub fn set_align(&mut self, id: ArrayId, align: u64) {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        self.decls[id.as_usize()].align = align;
    }

    /// Merges another table into this one, returning the id offset that
    /// was applied to the other table's ids (old id `k` becomes
    /// `ArrayId::new(offset + k.index())`).
    pub fn merge(&mut self, other: &ArrayTable) -> u32 {
        let offset = self.decls.len() as u32;
        self.decls.extend(other.decls.iter().cloned());
        offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decl_sizes() {
        let d = ArrayDecl::new("A", vec![8000, 10], 4);
        assert_eq!(d.num_elems(), 80_000);
        assert_eq!(d.size_bytes(), 320_000);
        assert_eq!(d.to_string(), "A[8000][10] (4B elems)");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_rejected() {
        let _ = ArrayDecl::new("A", vec![0], 4);
    }

    #[test]
    fn table_roundtrip() {
        let mut t = ArrayTable::new();
        let a = t.push(ArrayDecl::new("A", vec![16], 4));
        let b = t.push(ArrayDecl::new("B", vec![8], 8));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a).unwrap().name(), "A");
        assert_eq!(t.by_name("B"), Some(b));
        assert_eq!(t.by_name("zz"), None);
        assert_eq!(t.iter().count(), 2);
    }

    #[test]
    fn merge_offsets_ids() {
        let mut t1 = ArrayTable::new();
        t1.push(ArrayDecl::new("A", vec![4], 4));
        let mut t2 = ArrayTable::new();
        let b_old = t2.push(ArrayDecl::new("B", vec![4], 4));
        let off = t1.merge(&t2);
        assert_eq!(off, 1);
        let b_new = ArrayId::new(off + b_old.index());
        assert_eq!(t1.get(b_new).unwrap().name(), "B");
    }
}
