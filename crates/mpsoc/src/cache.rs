//! Set-associative LRU cache with 3C miss classification.
//!
//! This is the simulator's innermost hot path — every memory reference of
//! every simulated process goes through [`Cache::access`] — so the data
//! structures are chosen for O(1), allocation-free accesses:
//!
//! * the set-associative directory is one flat slab of [`Way`] slots
//!   (`set * associativity + way`), probed linearly (associativity is
//!   small) with power-of-two shift/mask indexing — no `Vec<Vec<_>>`
//!   pointer chasing;
//! * the fully-associative 3C shadow is an intrusive doubly-linked LRU
//!   list over a slab of nodes plus an open-addressing `line -> node`
//!   index ([`LineTable`]: one multiply-shift hash and ~1 linear probe),
//!   replacing the seed's `HashMap` + `BTreeMap` (SipHash plus tree
//!   rebalancing on every access).
//!
//! Fast-path invariants (checked by `crates/mpsoc/tests/prop.rs` against
//! the naive reference machine of `crates/mpsoc/tests/support/naive.rs`,
//! whose per-set directories and shadow are scanned linearly):
//!
//! * way stamps are distinct (the access clock strictly increases), so
//!   the per-set LRU victim is unique — eviction choices are
//!   bit-identical to any stamp-based implementation;
//! * a `stamp == 0` way slot is empty (the clock starts at 1);
//! * the shadow list is ordered head = least recently touched to
//!   tail = most recently touched, and its membership equals what an
//!   unbounded-stamp FA LRU of `num_lines` capacity would hold.

use crate::{CacheConfig, CacheStats};

/// What kind of miss an access was, per Hill's 3C model.
///
/// * `Cold` — the line was never referenced before.
/// * `Capacity` — a fully-associative cache of the same capacity would
///   also have missed.
/// * `Conflict` — the fully-associative shadow cache would have hit; the
///   miss is due to limited associativity. These are the misses the
///   paper's data re-layout (Figures 4–5) eliminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissKind {
    /// First-ever reference to the line.
    Cold,
    /// Would miss even fully associative.
    Capacity,
    /// Caused by limited associativity (mapping conflicts).
    Conflict,
}

/// Outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was resident.
    Hit,
    /// The line was not resident, and why.
    Miss(MissKind),
}

impl AccessOutcome {
    /// Whether the access hit.
    pub fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// One way slot of the flat set-associative directory. `stamp == 0`
/// means empty (the access clock starts at 1).
#[derive(Debug, Clone, Copy)]
struct Way {
    line: u64,
    stamp: u64,
}

const EMPTY: Way = Way { line: 0, stamp: 0 };

/// Slot value marking an empty [`LineTable`] slot.
const VACANT: u32 = u32::MAX;

/// Minimal open-addressing hash table from cache-line numbers to `u32`
/// payloads: Fibonacci multiply-shift hashing, linear probing at a load
/// factor of at most 1/2, backward-shift deletion (no tombstones).
///
/// This is the cheapest possible index for the hot path's single-word
/// keys — one multiply plus on average about one slot probe — replacing
/// the seed's SipHash `HashMap`/`HashSet`. `value == VACANT` marks an
/// empty slot, so payloads must stay below `u32::MAX` (node indices and
/// the set marker do).
#[derive(Debug, Clone)]
struct LineTable {
    /// (line, value) pairs; `value == VACANT` means empty.
    slots: Box<[(u64, u32)]>,
    mask: usize,
    shift: u32,
    len: usize,
}

impl LineTable {
    fn with_capacity(cap: usize) -> Self {
        // At least 2x the expected population, and at least 8 slots.
        let slots = (cap.max(4) * 2).next_power_of_two();
        LineTable {
            slots: vec![(0, VACANT); slots].into_boxed_slice(),
            mask: slots - 1,
            shift: 64 - slots.trailing_zeros(),
            len: 0,
        }
    }

    #[inline]
    fn bucket(&self, line: u64) -> usize {
        // Fibonacci hashing spreads consecutive line numbers well.
        (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    #[inline]
    fn get(&self, line: u64) -> Option<u32> {
        let mut i = self.bucket(line);
        loop {
            let (key, value) = self.slots[i & self.mask];
            if value == VACANT {
                return None;
            }
            if key == line {
                return Some(value);
            }
            i += 1;
        }
    }

    /// Inserts a line that is **not** present (callers check first).
    #[inline]
    fn insert(&mut self, line: u64, value: u32) {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mut i = self.bucket(line);
        loop {
            let slot = &mut self.slots[i & self.mask];
            if slot.1 == VACANT {
                *slot = (line, value);
                self.len += 1;
                return;
            }
            debug_assert_ne!(slot.0, line, "duplicate insert");
            i += 1;
        }
    }

    /// Removes a line that **is** present, with backward-shift deletion
    /// so probe chains stay dense (no tombstones).
    #[inline]
    fn remove(&mut self, line: u64) {
        let mut i = self.bucket(line);
        loop {
            let idx = i & self.mask;
            debug_assert_ne!(self.slots[idx].1, VACANT, "removing absent line");
            if self.slots[idx].0 == line {
                break;
            }
            i += 1;
        }
        let mut hole = i & self.mask;
        let mut j = hole;
        loop {
            j = (j + 1) & self.mask;
            let (key, value) = self.slots[j];
            if value == VACANT {
                break;
            }
            // Shift back entries whose home bucket does not lie in the
            // (cyclic) open interval (hole, j].
            let home = self.bucket(key) & self.mask;
            let dist_home = j.wrapping_sub(home) & self.mask;
            let dist_hole = j.wrapping_sub(hole) & self.mask;
            if dist_home >= dist_hole {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole].1 = VACANT;
        self.len -= 1;
    }

    #[cold]
    fn grow(&mut self) {
        let old = std::mem::replace(&mut self.slots, vec![(0, VACANT); 0].into_boxed_slice());
        let slots = old.len() * 2;
        self.slots = vec![(0, VACANT); slots].into_boxed_slice();
        self.mask = slots - 1;
        self.shift = 64 - slots.trailing_zeros();
        self.len = 0;
        for (key, value) in old.iter().copied() {
            if value != VACANT {
                self.insert(key, value);
            }
        }
    }
}

/// Sentinel node index for the shadow's intrusive list.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    line: u64,
    prev: u32,
    next: u32,
}

/// Fully-associative LRU shadow of `cap` lines: an intrusive
/// doubly-linked list (head = LRU, tail = MRU) over a slab of nodes,
/// indexed by a [`LineTable`]. All operations are O(1).
#[derive(Debug, Clone)]
struct Shadow {
    cap: usize,
    index: LineTable,
    nodes: Vec<Node>,
    head: u32,
    tail: u32,
}

impl Shadow {
    fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        Shadow {
            cap,
            index: LineTable::with_capacity(cap),
            nodes: Vec::with_capacity(cap),
            head: NIL,
            tail: NIL,
        }
    }

    #[inline]
    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = self.nodes[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    #[inline]
    fn push_mru(&mut self, i: u32) {
        let node = &mut self.nodes[i as usize];
        node.prev = self.tail;
        node.next = NIL;
        match self.tail {
            NIL => self.head = i,
            t => self.nodes[t as usize].next = i,
        }
        self.tail = i;
    }

    /// Touches `line` (insert or refresh at MRU, evicting the LRU line
    /// when full) and returns whether it was already present.
    #[inline]
    fn touch(&mut self, line: u64) -> bool {
        if let Some(i) = self.index.get(line) {
            if self.tail != i {
                self.unlink(i);
                self.push_mru(i);
            }
            return true;
        }
        if self.nodes.len() == self.cap {
            // Full: evict the LRU head and reuse its node slot.
            let victim = self.head;
            let old_line = self.nodes[victim as usize].line;
            self.index.remove(old_line);
            self.unlink(victim);
            self.nodes[victim as usize].line = line;
            self.push_mru(victim);
            self.index.insert(line, victim);
        } else {
            let i = self.nodes.len() as u32;
            self.nodes.push(Node {
                line,
                prev: NIL,
                next: NIL,
            });
            self.push_mru(i);
            self.index.insert(line, i);
        }
        false
    }
}

/// A private, set-associative, write-allocate LRU cache.
///
/// Addresses are byte addresses; the cache tracks resident *lines*.
/// Writes and reads are treated identically for residency (write-allocate,
/// no write-back latency modelling — the paper's evaluation is
/// latency-per-access driven).
///
/// ```
/// use lams_mpsoc::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::paper_default());
/// assert!(!c.access(0x1000).is_hit()); // cold
/// assert!(c.access(0x1000).is_hit());
/// assert!(c.access(0x101f).is_hit()); // same 32-byte line
/// assert!(!c.access(0x1020).is_hit()); // next line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `addr >> line_shift` is the line number.
    line_shift: u32,
    /// `line & set_mask` is the set index (num_sets is a power of two).
    set_mask: u64,
    assoc: usize,
    /// Flat way storage: `ways[set * assoc .. (set + 1) * assoc]`.
    ways: Box<[Way]>,
    clock: u64,
    stats: CacheStats,
    /// Fully-associative LRU shadow of equal capacity (3C machinery).
    shadow: Shadow,
    /// Lines ever seen (for cold-miss detection).
    seen: LineTable,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics when `config` fails [`CacheConfig::validate`] — shift/mask
    /// indexing requires the power-of-two geometry the validator
    /// guarantees.
    pub fn new(config: CacheConfig) -> Self {
        config
            .validate()
            .expect("cache geometry must be valid (powers of two)");
        let num_sets = config.num_sets() as usize;
        let assoc = config.associativity as usize;
        Cache {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: config.num_sets() - 1,
            assoc,
            ways: vec![EMPTY; num_sets * assoc].into_boxed_slice(),
            clock: 0,
            stats: CacheStats::default(),
            shadow: Shadow::new(config.num_lines() as usize),
            seen: LineTable::with_capacity(config.num_lines() as usize),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Whether a byte address is currently resident.
    pub fn is_resident(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        self.ways[set * self.assoc..(set + 1) * self.assoc]
            .iter()
            .any(|w| w.stamp != 0 && w.line == line)
    }

    /// Number of currently resident lines.
    pub fn resident_lines(&self) -> usize {
        self.ways.iter().filter(|w| w.stamp != 0).count()
    }

    /// Performs one access (read or write — residency behaviour is
    /// identical) and returns the outcome, updating statistics.
    #[inline]
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        self.clock += 1;
        let line = addr >> self.line_shift;
        let set_base = (line & self.set_mask) as usize * self.assoc;
        let set = &mut self.ways[set_base..set_base + self.assoc];

        // Probe all ways, tracking the LRU victim as we go. Stamps are
        // distinct (the clock strictly increases), so the minimum is
        // unique and matches the seed implementation's victim choice.
        let mut victim = 0usize;
        let mut victim_stamp = u64::MAX;
        for (i, w) in set.iter_mut().enumerate() {
            if w.stamp != 0 && w.line == line {
                w.stamp = self.clock;
                self.stats.hits += 1;
                self.shadow.touch(line);
                return AccessOutcome::Hit;
            }
            if w.stamp < victim_stamp {
                victim_stamp = w.stamp;
                victim = i;
            }
        }

        // Miss: classify before refreshing the shadow.
        let is_new = self.seen.get(line).is_none();
        if is_new {
            self.seen.insert(line, 0);
        }
        let in_shadow = self.shadow.touch(line);
        let kind = if is_new {
            MissKind::Cold
        } else if in_shadow {
            MissKind::Conflict
        } else {
            MissKind::Capacity
        };

        // Fill the empty slot with the smallest stamp, or evict the LRU
        // way (victim_stamp != 0 means every way is occupied).
        if victim_stamp != 0 {
            self.stats.evictions += 1;
        }
        set[victim] = Way {
            line,
            stamp: self.clock,
        };

        self.stats.misses += 1;
        match kind {
            MissKind::Cold => self.stats.cold_misses += 1,
            MissKind::Capacity => self.stats.capacity_misses += 1,
            MissKind::Conflict => self.stats.conflict_misses += 1,
        }
        AccessOutcome::Miss(kind)
    }

    /// Bulk-applies `rounds` rounds of guaranteed hits over `lines`
    /// (one access per line per round, lines in access order within a
    /// round) — bit-identical in final state (way stamps, shadow order)
    /// and statistics to calling [`Cache::access`] for each of the
    /// `lines.len() * rounds` accesses individually.
    ///
    /// The caller must guarantee every covered access *would* hit: each
    /// line is resident at entry and is re-touched every round with no
    /// intervening misses (hits never evict, so residency is stable
    /// across the window). [`crate::Machine::exec_source_until`]
    /// establishes this by probing one full round per window and
    /// bounding the window at the first lane line-boundary crossing.
    pub(crate) fn bulk_hit_rounds(
        &mut self,
        lines: impl ExactSizeIterator<Item = u64> + Clone,
        rounds: u64,
    ) {
        let m = lines.len() as u64;
        debug_assert!(m > 0 && rounds > 0, "empty bulk window");
        let start = self.clock;
        self.clock += m * rounds;
        self.stats.hits += m * rounds;
        for (j, line) in lines.clone().enumerate() {
            // Final stamp: the access clock of this lane's touch in the
            // last round (a later lane on the same line overwrites, as
            // per-op execution would).
            self.stamp_resident(line, start + (rounds - 1) * m + j as u64 + 1);
        }
        // Per-op, the window's final shadow order is the order of the
        // last round's touches — touching once per lane in lane order
        // reaches the same state.
        for line in lines {
            self.shadow.touch(line);
        }
    }

    /// Re-stamps a resident line (bulk-hit bookkeeping).
    fn stamp_resident(&mut self, line: u64, stamp: u64) {
        let set_base = (line & self.set_mask) as usize * self.assoc;
        for w in &mut self.ways[set_base..set_base + self.assoc] {
            if w.stamp != 0 && w.line == line {
                w.stamp = stamp;
                return;
            }
        }
        debug_assert!(false, "bulk hit on a non-resident line {line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheConfig {
        // 4 lines of 16 bytes, 2-way => 2 sets, page = 32 B.
        CacheConfig::new(64, 2, 16).unwrap()
    }

    #[test]
    fn hit_after_fill() {
        let mut c = Cache::new(tiny());
        assert_eq!(c.access(0), AccessOutcome::Miss(MissKind::Cold));
        assert_eq!(c.access(15), AccessOutcome::Hit); // same line
        assert_eq!(c.access(16), AccessOutcome::Miss(MissKind::Cold));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = Cache::new(tiny());
        // Lines 0, 2, 4 all map to set 0 (even line indices, 2 sets).
        c.access(0); // line 0 -> set 0
        c.access(2 * 16); // line 2 -> set 0
        c.access(4 * 16); // line 4 -> set 0, evicts line 0 (LRU)
        assert!(!c.is_resident(0));
        assert!(c.is_resident(2 * 16));
        assert!(c.is_resident(4 * 16));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn lru_respects_recency() {
        let mut c = Cache::new(tiny());
        c.access(0);
        c.access(2 * 16);
        c.access(0); // refresh line 0
        c.access(4 * 16); // should evict line 2 now
        assert!(c.is_resident(0));
        assert!(!c.is_resident(2 * 16));
    }

    #[test]
    fn conflict_vs_capacity_classification() {
        // Direct-mapped, 2 lines of 16 B: lines 0 and 2 collide in set 0
        // while the cache has capacity for both.
        let cfg = CacheConfig::new(32, 1, 16).unwrap();
        let mut c = Cache::new(cfg);
        c.access(0); // cold
        c.access(2 * 16); // cold, evicts 0 in the direct-mapped cache
        let out = c.access(0); // shadow (FA, 2 lines) still holds 0
        assert_eq!(out, AccessOutcome::Miss(MissKind::Conflict));
        assert_eq!(c.stats().conflict_misses, 1);
    }

    #[test]
    fn capacity_miss_when_working_set_exceeds_cache() {
        let cfg = CacheConfig::new(32, 2, 16).unwrap(); // FA, 2 lines
        let mut c = Cache::new(cfg);
        // Touch 3 distinct lines cyclically: steady-state misses are
        // capacity (the FA shadow of equal size also misses).
        for _ in 0..4 {
            for line in 0..3u64 {
                c.access(line * 16);
            }
        }
        assert_eq!(c.stats().conflict_misses, 0);
        assert!(c.stats().capacity_misses > 0);
        assert_eq!(c.stats().cold_misses, 3);
    }

    #[test]
    fn cold_misses_counted_once_per_line() {
        let mut c = Cache::new(tiny());
        for _ in 0..3 {
            for line in 0..8u64 {
                c.access(line * 16);
            }
        }
        assert_eq!(c.stats().cold_misses, 8);
    }

    #[test]
    fn invalid_geometry_panics() {
        let bad = CacheConfig {
            size_bytes: 8000, // not a power of two
            associativity: 2,
            line_bytes: 32,
        };
        assert!(std::panic::catch_unwind(|| Cache::new(bad)).is_err());
    }

    #[test]
    fn paper_cache_distinct_pages_no_conflict() {
        // Two arrays laid out in *different* half-pages of the paper's
        // 8 KB 2-way cache never conflict: they map to disjoint sets.
        let cfg = CacheConfig::paper_default();
        let mut c = Cache::new(cfg);
        // 2 KB half-page. Array 1 lives in the low half of each page,
        // array 2 in the high half; two page-strided chunks each, so the
        // combined working set (256 lines) exactly fills the cache and
        // each set holds exactly `associativity` lines.
        let half_page = cfg.page_bytes() / 2;
        for rep in 0..3 {
            let _ = rep;
            for chunk in 0..2u64 {
                let base1 = chunk * cfg.page_bytes();
                let base2 = chunk * cfg.page_bytes() + half_page;
                for off in (0..half_page).step_by(32) {
                    c.access(base1 + off);
                    c.access(base2 + off);
                }
            }
        }
        assert_eq!(c.stats().conflict_misses, 0);
        // And everything fits: after the cold pass it is all hits.
        assert_eq!(c.stats().misses, c.stats().cold_misses);
    }
}
