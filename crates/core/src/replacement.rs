//! The SIEVE table behind [`ArtifactCache`](crate::memo): one map from
//! key to value that also keeps the replacement order a bounded cache
//! evicts in.
//!
//! One algorithm is implemented, **SIEVE**, over an intrusive
//! doubly-linked slab (no per-touch allocation): entries never move; a
//! lookup sets the entry's visited bit (O(1)); new entries are inserted
//! at the head; a hand sweeps from the oldest entry toward the newest,
//! clearing visited bits and evicting the first unvisited entry, and
//! wraps to the tail when it falls off the head. An entry that is never
//! looked up again is therefore demoted on the hand's first visit (the
//! "quick demotion" property of the SIEVE algorithm), while touched
//! survivors stay resident across sweeps.
//!
//! The order is deterministic given the same lookup/insert sequence,
//! and it never affects simulation *results* — every cached artifact is
//! a pure function of its key, so eviction only changes when an
//! artifact is recomputed, never what it contains. The scenario
//! generator (`tests/scenarios.rs`) holds runs on bounded caches of
//! capacity 0, 1 and 3 and on
//! [`ArtifactCache::disabled`](crate::ArtifactCache::disabled) to one
//! oracle.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::Hash;

/// The replacement algorithm a bounded cache evicts with. A vestige of
/// a three-way knob: exact LRU and a second-chance ring were selectable
/// beside SIEVE until measurement showed the ring to be the same
/// algorithm in code and LRU to miss about 1.7x as often under the
/// service's traffic (`docs/memoization.md`). The one-variant type, the
/// policy argument of
/// [`ArtifactCache::bounded`](crate::ArtifactCache::bounded) and the
/// `ServerConfig::eviction` field of `lams-serve` survive only because
/// the frozen repo benchmark (`benchmark/src/serve.rs`) passes one into
/// the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvictionPolicy {
    /// SIEVE: FIFO order with a lazily-promoting scan hand.
    #[default]
    Sieve,
}

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node<K> {
    key: K,
    prev: usize,
    next: usize,
    visited: bool,
}

/// A key → value map in SIEVE eviction order.
///
/// The list runs head (newest) to tail (oldest); `prev` points toward
/// the head, `next` toward the tail. Freed slab slots are recycled so
/// a long-lived cache at capacity allocates nothing per insert.
#[derive(Debug)]
pub(crate) struct Sieve<K, V> {
    nodes: Vec<Node<K>>,
    /// The only index: each resident key's slab node and value.
    /// Evicting a key drops its value here.
    entries: HashMap<K, (usize, V)>,
    head: usize,
    tail: usize,
    hand: usize,
    free: Vec<usize>,
}

impl<K: Eq + Hash + Copy, V> Sieve<K, V> {
    pub(crate) fn new() -> Self {
        Sieve {
            nodes: Vec::new(),
            entries: HashMap::new(),
            head: NIL,
            tail: NIL,
            hand: NIL,
            free: Vec::new(),
        }
    }

    /// Number of resident keys.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The value of `key`, marking the entry visited (a hit).
    pub(crate) fn get(&mut self, key: &K) -> Option<&V> {
        let (at, value) = self.entries.get(key)?;
        self.nodes[*at].visited = true;
        Some(value)
    }

    /// Publishes `value` under `key` at the head of the order and
    /// returns the resident value. A key already present keeps its
    /// value (first-writer-wins: a racing publisher lost) and the
    /// publish counts as a hit on it.
    pub(crate) fn insert(&mut self, key: K, value: V) -> &V {
        match self.entries.entry(key) {
            Entry::Occupied(e) => {
                let (at, value) = e.into_mut();
                self.nodes[*at].visited = true;
                value
            }
            Entry::Vacant(e) => {
                let node = Node {
                    key,
                    prev: NIL,
                    next: self.head,
                    visited: false,
                };
                let at = match self.free.pop() {
                    Some(slot) => {
                        self.nodes[slot] = node;
                        slot
                    }
                    None => {
                        self.nodes.push(node);
                        self.nodes.len() - 1
                    }
                };
                if self.head != NIL {
                    self.nodes[self.head].prev = at;
                }
                self.head = at;
                if self.tail == NIL {
                    self.tail = at;
                }
                &e.insert((at, value)).1
            }
        }
    }

    /// Picks the next victim, drops it with its value and returns its
    /// key. Returns `None` when empty.
    pub(crate) fn evict(&mut self) -> Option<K> {
        if self.entries.is_empty() {
            return None;
        }
        // The scan walks tail-ward entries toward the head, clearing
        // visited bits, and wraps to the tail when it runs off; it
        // terminates because each pass clears bits and an entry can be
        // skipped at most once per sweep. The hand never points at an
        // entry inserted after the current sweep began, because new
        // entries land at the head, ahead of it.
        let mut at = if self.hand == NIL {
            self.tail
        } else {
            self.hand
        };
        while self.nodes[at].visited {
            self.nodes[at].visited = false;
            at = self.nodes[at].prev;
            if at == NIL {
                at = self.tail;
            }
        }
        // Advance the hand off the victim, then unlink it.
        let (prev, next) = (self.nodes[at].prev, self.nodes[at].next);
        self.hand = prev;
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        let key = self.nodes[at].key;
        self.entries.remove(&key);
        self.free.push(at);
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn drain<K: Eq + Hash + Copy, V>(t: &mut Sieve<K, V>) -> Vec<K> {
        std::iter::from_fn(|| t.evict()).collect()
    }

    /// A table of `keys` inserted oldest first, each valued by itself.
    fn sieve_of(keys: impl IntoIterator<Item = u8>) -> Sieve<u8, u8> {
        let mut t = Sieve::new();
        for k in keys {
            t.insert(k, k);
        }
        t
    }

    #[test]
    fn touched_entries_get_a_second_chance() {
        let mut t = sieve_of(0..4);
        assert_eq!(t.get(&0), Some(&0));
        assert_eq!(t.get(&1), Some(&1));
        // Scan from the tail (0): 0 and 1 are visited — cleared and
        // skipped; 2 is the first unvisited victim.
        assert_eq!(t.evict(), Some(2));
        // Hand resumes past 2: 3 unvisited, then wraps to the cleared 0.
        assert_eq!(t.evict(), Some(3));
        assert_eq!(drain(&mut t), vec![0, 1]);
        assert_eq!(t.len(), 0);
        assert_eq!(t.evict(), None);
    }

    #[test]
    fn sieve_quickly_demotes_untouched_newcomers() {
        let mut t = sieve_of(0..3);
        t.get(&0);
        assert_eq!(t.evict(), Some(1), "oldest unvisited goes first");
        // A new entry lands at the head, in the resumed hand's path:
        // untouched, it is demoted on the hand's first visit ("quick
        // demotion"), before the once-touched survivor 0.
        t.insert(9, 9);
        assert_eq!(t.evict(), Some(2));
        assert_eq!(drain(&mut t), vec![9, 0]);
    }

    #[test]
    fn reinserting_an_evicted_key_works() {
        let mut t = sieve_of([1, 2]);
        assert!(t.evict().is_some());
        t.insert(1, 1);
        t.insert(3, 3);
        let mut rest = drain(&mut t);
        rest.sort_unstable();
        assert_eq!(rest.len(), 3);
    }

    /// SIEVE as its published pseudocode states it, over a plain `Vec`
    /// (index 0 = oldest, end = newest) with O(n) everything: the
    /// reference the slab table is held against.
    #[derive(Default)]
    struct NaiveSieve {
        /// `(key, visited)`, oldest first.
        queue: Vec<(u8, bool)>,
        /// Index of the entry the hand points at; `None` = start from
        /// the oldest.
        hand: Option<usize>,
    }

    impl NaiveSieve {
        fn touch(&mut self, key: u8) {
            if let Some(e) = self.queue.iter_mut().find(|e| e.0 == key) {
                e.1 = true;
            }
        }

        fn insert(&mut self, key: u8) {
            if self.queue.iter().any(|e| e.0 == key) {
                self.touch(key);
            } else {
                self.queue.push((key, false));
            }
        }

        fn evict(&mut self) -> Option<u8> {
            if self.queue.is_empty() {
                return None;
            }
            let mut at = self.hand.unwrap_or(0);
            while self.queue[at].1 {
                self.queue[at].1 = false;
                at = (at + 1) % self.queue.len();
            }
            let (key, _) = self.queue.remove(at);
            // The next-newer entry slid into `at`; past the newest, the
            // next sweep restarts from the oldest.
            self.hand = (at < self.queue.len()).then_some(at);
            Some(key)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Model differential: random insert/touch/evict sequences over
        /// a small key space (so reinserts of evicted keys, touches of
        /// unknown keys and hand wrap-arounds all occur) must pick the
        /// same victims and keep the same length as the naive SIEVE,
        /// and a lookup finds exactly the keys the model holds.
        #[test]
        fn interleaved_insert_touch_evict_stays_consistent(
            ops in prop::collection::vec((0u8..3, 0u8..24), 1..400),
        ) {
            let mut table = Sieve::new();
            let mut model = NaiveSieve::default();
            for (op, key) in ops {
                match op {
                    0 => {
                        prop_assert_eq!(*table.insert(key, key), key);
                        model.insert(key);
                    }
                    1 => {
                        let resident = model.queue.iter().any(|e| e.0 == key);
                        prop_assert_eq!(table.get(&key).copied(), resident.then_some(key));
                        model.touch(key);
                    }
                    _ => prop_assert_eq!(table.evict(), model.evict()),
                }
                prop_assert_eq!(table.len(), model.queue.len());
            }
            let rest: Vec<u8> = std::iter::from_fn(|| model.evict()).collect();
            prop_assert_eq!(drain(&mut table), rest);
        }
    }
}
