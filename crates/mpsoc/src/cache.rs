//! Set-associative LRU cache, with 3C miss classification when asked.
//!
//! This is the simulator's innermost hot path — every memory reference of
//! every simulated process goes through [`Cache::access`] — so the data
//! structures are chosen for O(1), allocation-free accesses. The set-
//! associative directory is one flat slab of [`Way`] slots (`set *
//! associativity + way`), probed linearly (associativity is small) with
//! power-of-two shift/mask indexing — no `Vec<Vec<_>>` pointer chasing.
//!
//! How misses are accounted is the cache's type parameter, a
//! [`Classifier`], chosen once per run ([`crate::MachineConfig::explain`]):
//!
//! * [`Plain`] (the default) keeps the way slab, the access clock and
//!   the hit, miss and eviction counts, and nothing else. A hit re-stamps
//!   its way; a miss fills or evicts. No scheduling decision, memo key,
//!   checksum or wire response reads more than this.
//! * [`Explain`] adds Hill's cold/capacity/conflict split ([`MissKind`]),
//!   which explains *why* the paper's data re-layout helps. It keeps a
//!   fully-associative LRU shadow: an intrusive doubly-linked list over a
//!   slab of nodes plus one open-addressing table over every line ever
//!   touched ([`LineTable`]: one multiply-shift hash, ~1 probe) whose
//!   value is the line's node, or [`OUT`] once evicted, so a miss
//!   classifies with one probe (absent: cold, `OUT`: capacity, a node:
//!   conflict). Hits do not touch the shadow. An FA LRU's state depends
//!   only on the order of each line's last touch (the LRU stack
//!   property), so a hit lists its way as dirty and the next miss, the
//!   shadow's only reader, replays the dirty ways in stamp order before
//!   it classifies.
//!
//! The two differ only in calls on the classifier, with no runtime
//! branch between them; both hit, miss and evict alike. Running
//! [`Plain`] where nothing asks for the split took the repo benchmark's
//! `wall_s@grid_batch` from 0.110 s to 0.071 s and
//! `wall_s@bus_contended` from 0.149 s to 0.112 s (medians of 12
//! alternating pairs on a 2-vCPU host, every pair faster).
//!
//! Fast-path invariants (checked by `crates/mpsoc/tests/prop.rs` against
//! the naive reference machine of `crates/mpsoc/tests/support/naive.rs`,
//! whose per-set directories and eager shadow are scanned linearly):
//!
//! * way stamps are distinct (the access clock strictly increases), so
//!   the per-set LRU victim and the replay order are unique;
//! * a `stamp == 0` way slot is empty (the clock starts at 1);
//! * a line stays in the way it was filled into until a fill evicts
//!   it (a hit only re-stamps), so the way [`Cache::access_slot`]
//!   reports answers "still resident?" in one compare
//!   ([`Cache::holds`]);
//! * under [`Explain`], the dirty list holds each way whose stamp is
//!   above `synced` (the last miss's clock) once, so it never outgrows
//!   `num_lines`; only a miss evicts, so a dirty way still holds the
//!   line it hit;
//! * after a miss's sync the shadow runs LRU (head) to MRU (tail) and
//!   holds what an FA LRU of `num_lines` lines touched by every access
//!   so far would.

use std::fmt;

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

/// Outcome of a single cache access. `K` is what a miss reports: its
/// [`MissKind`] on an [`Explain`] cache, `()` on a [`Plain`] one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome<K = MissKind> {
    /// The line was resident.
    Hit,
    /// The line was not resident, and why when the cache explains.
    Miss(K),
}

impl<K> AccessOutcome<K> {
    /// Whether the access hit.
    pub fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// One way slot of the flat set-associative directory. `stamp == 0`
/// means empty (the access clock starts at 1).
#[derive(Debug, Clone, Copy)]
pub struct Way {
    line: u64,
    stamp: u64,
}

const EMPTY: Way = Way { line: 0, stamp: 0 };

/// Slot value marking an empty [`LineTable`] slot.
const VACANT: u32 = u32::MAX;

/// [`LineTable`] value of a line seen before but evicted from the shadow.
const OUT: u32 = u32::MAX - 1;

/// Minimal open-addressing hash table from cache-line numbers to `u32`
/// payloads: Fibonacci multiply-shift hashing, linear probing at a load
/// factor of at most 1/2, no deletion.
///
/// This is the cheapest possible index for the hot path's single-word
/// keys — one multiply plus on average about one slot probe — replacing
/// the seed's SipHash `HashMap`/`HashSet`. `value == VACANT` marks an
/// empty slot, so payloads must stay below `u32::MAX` ([`OUT`] and node
/// indices, which [`CacheConfig::validate`] bounds, do).
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

    /// Sets `line`'s value, inserting the line if it is absent.
    #[inline]
    fn put(&mut self, line: u64, value: u32) {
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
            if slot.0 == line {
                slot.1 = value;
                return;
            }
            i += 1;
        }
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
                self.put(key, value);
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
/// indexed by a [`LineTable`] that also remembers every line it has
/// evicted. All operations are O(1).
#[derive(Debug, Clone)]
struct Shadow {
    cap: usize,
    /// Every line ever touched: its node, or [`OUT`] once evicted.
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

    /// Touches `line` (refresh at MRU, or insert there, evicting the LRU
    /// line when full) and returns how a miss on it classifies: cold if
    /// it was never touched, capacity if the shadow had evicted it,
    /// conflict if the shadow still held it.
    #[inline]
    fn touch(&mut self, line: u64) -> MissKind {
        let kind = match self.index.get(line) {
            None => MissKind::Cold,
            Some(OUT) => MissKind::Capacity,
            Some(i) => {
                if self.tail != i {
                    self.unlink(i);
                    self.push_mru(i);
                }
                return MissKind::Conflict;
            }
        };
        let i = if self.nodes.len() == self.cap {
            // Full: evict the LRU head and reuse its node slot.
            let victim = self.head;
            self.index.put(self.nodes[victim as usize].line, OUT);
            self.unlink(victim);
            self.nodes[victim as usize].line = line;
            victim
        } else {
            self.nodes.push(Node {
                line,
                prev: NIL,
                next: NIL,
            });
            (self.nodes.len() - 1) as u32
        };
        self.push_mru(i);
        self.index.put(line, i);
        kind
    }
}

/// How a [`Cache`] (and a [`crate::Machine`]) accounts its misses:
/// [`Plain`] or [`Explain`], fixed for the cache's lifetime. Its methods
/// are the cache's hooks, called on every hit and miss; some take the
/// cache's private types, so no other crate can implement the trait.
pub trait Classifier: Clone + fmt::Debug {
    /// What a miss reports ([`AccessOutcome::Miss`]).
    type Kind: Copy + fmt::Debug + Eq;

    /// The empty state of a cache of `num_lines` lines.
    #[doc(hidden)]
    fn with_lines(num_lines: usize) -> Self;

    /// A hit re-stamps way `slot`, whose stamp was `old`.
    #[doc(hidden)]
    fn hit(&mut self, slot: usize, old: u64);

    /// A miss on `line` at access clock `clock`, before its fill
    /// overwrites a way: classifies it and counts its kind in `stats`.
    #[doc(hidden)]
    fn miss(&mut self, ways: &[Way], line: u64, clock: u64, stats: &mut CacheStats) -> Self::Kind;

    /// [`Cache::repeat_pass`]'s share: moves what the classifier keeps
    /// on by `k` passes of the pass since `from`. `shift` is what the
    /// access clock moves by.
    #[doc(hidden)]
    fn repeat_pass(&mut self, from: &CacheMark, shift: u64, k: u64, stats: &mut CacheStats);
}

/// The default [`Classifier`]: no miss split. The split counters of
/// [`CacheStats`] stay 0.
#[derive(Debug, Clone, Copy)]
pub struct Plain;

impl Classifier for Plain {
    type Kind = ();

    #[inline]
    fn with_lines(_: usize) -> Self {
        Plain
    }

    #[inline]
    fn hit(&mut self, _: usize, _: u64) {}

    #[inline]
    fn miss(&mut self, _: &[Way], _: u64, _: u64, _: &mut CacheStats) {}

    #[inline]
    fn repeat_pass(&mut self, _: &CacheMark, _: u64, _: u64, _: &mut CacheStats) {}
}

/// The [`Classifier`] that splits misses into cold, capacity and
/// conflict ([`MissKind`]) by a lazily synced fully-associative shadow
/// (module docs).
#[derive(Debug, Clone)]
pub struct Explain {
    /// Fully-associative LRU shadow of equal capacity.
    shadow: Shadow,
    /// Way slots hit since the last miss, each once, for the next sync.
    dirty: Vec<u32>,
    /// Access clock of the last miss, when the shadow was last synced.
    synced: u64,
}

impl Explain {
    /// Replays the hits since the last miss into the shadow, one touch
    /// per dirty way in stamp order: the order of each line's last touch.
    fn sync_shadow(&mut self, ways: &[Way], clock: u64) {
        self.dirty
            .sort_unstable_by_key(|&slot| ways[slot as usize].stamp);
        for &slot in &self.dirty {
            self.shadow.touch(ways[slot as usize].line);
        }
        self.dirty.clear();
        self.synced = clock;
    }
}

impl Classifier for Explain {
    type Kind = MissKind;

    fn with_lines(num_lines: usize) -> Self {
        Explain {
            shadow: Shadow::new(num_lines),
            dirty: Vec::with_capacity(num_lines),
            synced: 0,
        }
    }

    /// Lists the way dirty on its first hit since the last miss (its old
    /// stamp is at most `synced`).
    #[inline]
    fn hit(&mut self, slot: usize, old: u64) {
        if old <= self.synced {
            self.dirty.push(slot as u32);
        }
    }

    /// Brings the shadow up to date, then classifies.
    #[inline]
    fn miss(&mut self, ways: &[Way], line: u64, clock: u64, stats: &mut CacheStats) -> MissKind {
        self.sync_shadow(ways, clock);
        let kind = self.shadow.touch(line);
        match kind {
            MissKind::Cold => stats.cold_misses += 1,
            MissKind::Capacity => stats.capacity_misses += 1,
            MissKind::Conflict => stats.conflict_misses += 1,
        }
        kind
    }

    /// The split counters and, if the pass missed, the sync clock move
    /// on; the shadow and the dirty list end as they are.
    fn repeat_pass(&mut self, from: &CacheMark, shift: u64, k: u64, s: &mut CacheStats) {
        if self.synced > from.clock {
            self.synced += shift;
        }
        let f = &from.stats;
        s.cold_misses += k * (s.cold_misses - f.cold_misses);
        s.capacity_misses += k * (s.capacity_misses - f.capacity_misses);
        s.conflict_misses += k * (s.conflict_misses - f.conflict_misses);
    }
}

/// A private, set-associative, write-allocate LRU cache.
///
/// Addresses are byte addresses; the cache tracks resident *lines*.
/// Writes and reads are treated identically for residency (write-allocate,
/// no write-back latency modelling — the paper's evaluation is
/// latency-per-access driven). `C` says whether misses are split by
/// kind ([`Classifier`]); [`Cache::new`] builds a [`Plain`] cache and
/// [`Cache::build`] either.
///
/// ```
/// use lams_mpsoc::{AccessOutcome, Cache, CacheConfig, Explain, MissKind};
///
/// let mut c = Cache::new(CacheConfig::paper_default());
/// assert!(!c.access(0x1000).is_hit()); // cold
/// assert!(c.access(0x1000).is_hit());
/// assert!(c.access(0x101f).is_hit()); // same 32-byte line
/// assert!(!c.access(0x1020).is_hit()); // next line
///
/// let mut c = Cache::<Explain>::build(CacheConfig::paper_default());
/// assert_eq!(c.access(0x1000), AccessOutcome::Miss(MissKind::Cold));
/// assert_eq!(c.stats().cold_misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache<C: Classifier = Plain> {
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
    class: C,
}

impl Cache<Plain> {
    /// Creates an empty [`Plain`] cache.
    ///
    /// # Panics
    ///
    /// As for [`Cache::build`].
    pub fn new(config: CacheConfig) -> Self {
        Cache::build(config)
    }
}

impl<C: Classifier> Cache<C> {
    /// Creates an empty cache of either [`Classifier`]:
    /// `Cache::<Explain>::build(config)`.
    ///
    /// # Panics
    ///
    /// Panics when `config` fails [`CacheConfig::validate`] — shift/mask
    /// indexing requires the power-of-two geometry the validator
    /// guarantees.
    pub fn build(config: CacheConfig) -> Self {
        config
            .validate()
            .expect("cache geometry must be valid (powers of two)");
        let num_lines = config.num_lines() as usize;
        Cache {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: config.num_sets() - 1,
            assoc: config.associativity as usize,
            ways: vec![EMPTY; num_lines].into_boxed_slice(),
            clock: 0,
            stats: CacheStats::default(),
            class: C::with_lines(num_lines),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics. The split counters read 0 on a [`Plain`]
    /// cache.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Whether a byte address is currently resident.
    pub fn is_resident(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set_base = (line & self.set_mask) as usize * self.assoc;
        (set_base..set_base + self.assoc).any(|slot| self.holds(slot, line))
    }

    /// Whether way `slot` holds `line` — in O(1), where
    /// [`Cache::is_resident`] scans the set. A line never moves between
    /// ways, so the way [`Cache::access_slot`] reported for a line holds
    /// it until a fill evicts it.
    #[inline]
    pub(crate) fn holds(&self, slot: usize, line: u64) -> bool {
        let w = self.ways[slot];
        w.stamp != 0 && w.line == line
    }

    /// Number of currently resident lines.
    pub fn resident_lines(&self) -> usize {
        self.ways.iter().filter(|w| w.stamp != 0).count()
    }

    /// Performs one access (read or write — residency behaviour is
    /// identical) and returns the outcome, updating statistics.
    #[inline]
    pub fn access(&mut self, addr: u64) -> AccessOutcome<C::Kind> {
        self.access_slot(addr).0
    }

    /// [`Cache::access`], also returning the way slot it hit or filled:
    /// the one that now holds the line.
    #[inline]
    pub(crate) fn access_slot(&mut self, addr: u64) -> (AccessOutcome<C::Kind>, usize) {
        self.clock += 1;
        let line = addr >> self.line_shift;
        let set_base = (line & self.set_mask) as usize * self.assoc;

        // Probe all ways, tracking the LRU victim as we go. Stamps are
        // distinct (the clock strictly increases), so the minimum is
        // unique and matches the seed implementation's victim choice.
        let mut victim = set_base;
        let mut victim_stamp = u64::MAX;
        for slot in set_base..set_base + self.assoc {
            let w = self.ways[slot];
            if w.stamp != 0 && w.line == line {
                self.restamp(slot, self.clock);
                self.stats.hits += 1;
                return (AccessOutcome::Hit, slot);
            }
            if w.stamp < victim_stamp {
                victim_stamp = w.stamp;
                victim = slot;
            }
        }

        // Miss: classify (before the fill, which may overwrite a way
        // the classifier still reads).
        let kind = self
            .class
            .miss(&self.ways, line, self.clock, &mut self.stats);

        // Fill the empty slot with the smallest stamp, or evict the LRU
        // way (victim_stamp != 0 means every way is occupied).
        if victim_stamp != 0 {
            self.stats.evictions += 1;
        }
        self.ways[victim] = Way {
            line,
            stamp: self.clock,
        };
        self.stats.misses += 1;
        (AccessOutcome::Miss(kind), victim)
    }

    /// Bulk-applies `rounds` rounds of guaranteed hits over `lanes`,
    /// each the way slot a lane hits and the line that slot holds (one
    /// access per lane per round, lanes in access order within a round)
    /// — bit-identical in final state and statistics to calling
    /// [`Cache::access`] for each of the `lanes.len() * rounds` accesses
    /// individually: each way takes its last touch's stamp, and the
    /// classifier hears of it as of any hit.
    ///
    /// The caller must guarantee every covered access *would* hit in
    /// its slot: each slot holds its line at entry and is re-touched
    /// every round with no intervening misses (hits never evict, so the
    /// slots are stable across the window).
    /// [`crate::Machine::exec_source_until`] establishes this by probing
    /// one full round per window, keeping the slots that round reported
    /// ([`Cache::access_slot`]), and bounding the window at the first
    /// lane line-boundary crossing.
    pub(crate) fn bulk_hit_rounds(
        &mut self,
        lanes: impl ExactSizeIterator<Item = (usize, u64)>,
        rounds: u64,
    ) {
        let m = lanes.len() as u64;
        debug_assert!(m > 0 && rounds > 0, "empty bulk window");
        // The access clock of the last round's first touch, less one.
        let last = self.clock + (rounds - 1) * m;
        self.clock += m * rounds;
        self.stats.hits += m * rounds;
        for (j, (slot, line)) in lanes.enumerate() {
            debug_assert!(
                self.holds(slot, line),
                "bulk hit on way {slot}, which does not hold line {line}"
            );
            // Final stamp: the access clock of this lane's touch in the
            // last round (a later lane on the same line overwrites, as
            // per-op execution would).
            self.restamp(slot, last + j as u64 + 1);
        }
    }

    /// Re-stamps way `slot` on a hit, and tells the classifier.
    #[inline]
    fn restamp(&mut self, slot: usize, stamp: u64) {
        let w = &mut self.ways[slot];
        self.class.hit(slot, w.stamp);
        w.stamp = stamp;
    }

    /// The state [`Cache::repeat_pass`] measures a pass from.
    pub(crate) fn mark(&self) -> CacheMark {
        CacheMark {
            clock: self.clock,
            stats: self.stats,
        }
    }

    /// Repeats `k` more times the pass run since `from`, which must have
    /// started at an LRU fixed point of that pass (see
    /// [`crate::Machine::exec_source_until`]): every counter the cache
    /// keeps, the access clock, the stamp of each way the pass touched
    /// and whatever the classifier keeps move on by `k` times what the
    /// pass moved them. Each repetition would touch the same lines in
    /// the same order and miss, hit and evict the same way, so only the
    /// stamps of the touched ways rise, by the same amount.
    pub(crate) fn repeat_pass(&mut self, from: &CacheMark, k: u64) {
        let shift = k * (self.clock - from.clock);
        for w in self.ways.iter_mut().filter(|w| w.stamp > from.clock) {
            w.stamp += shift;
        }
        self.clock += shift;
        let (s, f) = (&mut self.stats, &from.stats);
        s.hits += k * (s.hits - f.hits);
        s.misses += k * (s.misses - f.misses);
        s.evictions += k * (s.evictions - f.evictions);
        self.class.repeat_pass(from, shift, k, s);
    }
}

/// A cache's access clock and counters at the start of a pass
/// ([`Cache::mark`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheMark {
    clock: u64,
    stats: CacheStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheConfig {
        // 4 lines of 16 bytes, 2-way => 2 sets, page = 32 B.
        CacheConfig::new(64, 2, 16).unwrap()
    }

    fn explain(cfg: CacheConfig) -> Cache<Explain> {
        Cache::build(cfg)
    }

    #[test]
    fn hit_after_fill() {
        let mut c = explain(tiny());
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
        let mut c = explain(cfg);
        c.access(0); // cold
        c.access(2 * 16); // cold, evicts 0 in the direct-mapped cache
        let out = c.access(0); // shadow (FA, 2 lines) still holds 0
        assert_eq!(out, AccessOutcome::Miss(MissKind::Conflict));
        assert_eq!(c.stats().conflict_misses, 1);
    }

    #[test]
    fn shadow_replays_hits_in_last_touch_order() {
        // Direct-mapped, 2 lines of 16 B: line 0 in set 0, line 1 in set 1.
        let cfg = CacheConfig::new(32, 1, 16).unwrap();
        let mut c = explain(cfg);
        c.access(0); // cold
        c.access(16); // cold; shadow LRU -> MRU: [0, 1]
                      // Between two misses, first hits 0 then 1, last touches 1 then 0:
                      // the shadow must end at [1, 0], not at the first-hit order.
        for addr in [0, 16, 0] {
            assert!(c.access(addr).is_hit());
        }
        // Line 2 (set 0) evicts line 0 from the cache and the shadow's LRU
        // line — 1, so the shadow is [0, 2].
        assert_eq!(c.access(32), AccessOutcome::Miss(MissKind::Cold));
        assert_eq!(c.access(0), AccessOutcome::Miss(MissKind::Conflict));
        assert!(c.access(16).is_hit());
        // The shadow is [2, 0]; the hit on 1 re-enters it at the next
        // miss's replay and evicts 2, so 2's miss is capacity.
        assert_eq!(c.access(32), AccessOutcome::Miss(MissKind::Capacity));
    }

    #[test]
    fn bulk_hits_reach_the_shadow() {
        // The machine only bulk-applies hits right after probing the same
        // lines, which already lists them dirty; the contract does not
        // need that, so a bulk hit must list its way itself.
        let cfg = CacheConfig::new(32, 1, 16).unwrap();
        let mut c = explain(cfg);
        c.access(0);
        c.access(16); // shadow [0, 1]
        c.bulk_hit_rounds(std::iter::once((0, 0)), 3); // [1, 0] at the next sync
        assert_eq!(c.access(32), AccessOutcome::Miss(MissKind::Cold)); // [0, 2]
        assert_eq!(c.access(0), AccessOutcome::Miss(MissKind::Conflict));
        assert_eq!(c.stats().hits, 3);
    }

    /// Per set, its `(line, stamp)` pairs in stamp order.
    fn sets<C: Classifier>(c: &Cache<C>) -> Vec<Vec<(u64, u64)>> {
        c.ways
            .chunks(c.assoc)
            .map(|set| {
                let mut set: Vec<(u64, u64)> = set
                    .iter()
                    .filter(|w| w.stamp != 0)
                    .map(|w| (w.line, w.stamp))
                    .collect();
                set.sort_unstable_by_key(|&(_, stamp)| stamp);
                set
            })
            .collect()
    }

    /// The sets; the sync clock; the dirty lines in stamp order; the
    /// shadow's lines from LRU to MRU.
    type Order = (Vec<Vec<(u64, u64)>>, u64, Vec<u64>, Vec<u64>);

    /// The state that decides every future outcome, without slots.
    fn order(c: &Cache<Explain>) -> Order {
        let x = &c.class;
        let mut dirty: Vec<&Way> = x.dirty.iter().map(|&s| &c.ways[s as usize]).collect();
        dirty.sort_unstable_by_key(|w| w.stamp);
        let mut shadow = Vec::new();
        let mut i = x.shadow.head;
        while i != NIL {
            shadow.push(x.shadow.nodes[i as usize].line);
            i = x.shadow.nodes[i as usize].next;
        }
        let dirty = dirty.iter().map(|w| w.line).collect();
        (sets(c), x.synced, dirty, shadow)
    }

    /// Skipping `k` passes of a pass with [`Cache::repeat_pass`] ends in
    /// the same counters, clock and `state` as running them, and the
    /// two caches go on alike.
    fn check_repeated_pass<C: Classifier, S>(state: fn(&Cache<C>) -> S)
    where
        S: PartialEq + fmt::Debug,
    {
        // 8 lines of 16 B, 2-way => 4 sets. Each pass leaves sets 2 and 3
        // alone (set 3 empty, set 2 holding a line from before): one
        // pass thrashes set 0, one thrashes set 0 and ends in hits, one
        // never misses after the first.
        let cfg = CacheConfig::new(128, 2, 16).unwrap();
        let before = [2u64, 1, 5];
        let passes: [&[u64]; 3] = [&[0, 4, 8, 1], &[0, 4, 8, 1, 5, 1, 5], &[1, 5, 0, 1]];
        for pass in passes {
            for k in [1, 2, 7] {
                let run = |c: &mut Cache<C>, lines: &[u64]| {
                    for &line in lines {
                        c.access(line * 16);
                    }
                };
                let mut skipped = Cache::<C>::build(cfg);
                let mut stepped = Cache::<C>::build(cfg);
                for c in [&mut skipped, &mut stepped] {
                    run(c, &before);
                    run(c, pass);
                }
                let mark = skipped.mark();
                run(&mut skipped, pass);
                skipped.repeat_pass(&mark, k);
                for _ in 0..=k {
                    run(&mut stepped, pass);
                }
                assert_eq!(skipped.stats, stepped.stats, "{pass:?} x {k}");
                assert_eq!(skipped.clock, stepped.clock);
                assert_eq!(state(&skipped), state(&stepped), "{pass:?} x {k}");
                // And they go on alike.
                let probe = [3, 7, 2, 0, 6, 1, 4, 5];
                let outcomes = |c: &mut Cache<C>| probe.map(|line| c.access(line * 16));
                assert_eq!(outcomes(&mut skipped), outcomes(&mut stepped));
            }
        }
    }

    #[test]
    fn repeated_pass_equals_running_it() {
        check_repeated_pass(order);
    }

    #[test]
    fn repeated_pass_equals_running_it_plain() {
        check_repeated_pass::<Plain, _>(sets);
    }

    #[test]
    fn capacity_miss_when_working_set_exceeds_cache() {
        let cfg = CacheConfig::new(32, 2, 16).unwrap(); // FA, 2 lines
        let mut c = explain(cfg);
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
        let mut c = explain(tiny());
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
        let mut c = explain(cfg);
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
