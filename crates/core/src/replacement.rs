//! Eviction order for the bounded [`ArtifactCache`](crate::memo): the
//! replacement bookkeeping behind a capacity-limited memo.
//!
//! The cache's entries themselves stay in the lock-striped map
//! ([`crate::memo`]); this module only tracks which key should be
//! evicted next. One algorithm is implemented, **SIEVE**, over an
//! intrusive doubly-linked slab (no per-touch allocation): entries
//! never move; a touch sets the entry's visited bit (O(1)); new entries
//! are inserted at the head; a hand sweeps from the oldest entry toward
//! the newest, clearing visited bits and evicting the first unvisited
//! entry, and wraps to the tail when it falls off the head. An entry
//! that is never touched is therefore demoted on the hand's first visit
//! (the "quick demotion" property of the SIEVE algorithm), while
//! touched survivors stay resident across sweeps.
//!
//! The order is deterministic given the same touch/insert sequence, and
//! it never affects simulation *results* — every cached artifact is a
//! pure function of its key, so eviction only changes when an artifact
//! is recomputed, never what it contains. The differential tests in
//! `crates/core/tests/memo.rs` hold a bounded cache bit-identical to
//! [`ArtifactCache::disabled`](crate::ArtifactCache::disabled) for
//! every capacity, including 0 and 1.

use std::collections::HashMap;
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

/// Replacement-order bookkeeping: a key set in eviction order.
///
/// The list runs head (newest) to tail (oldest); `prev` points toward
/// the head, `next` toward the tail. Freed slab slots are recycled so
/// a long-lived cache at capacity allocates nothing per insert.
#[derive(Debug)]
pub(crate) struct ReplacementTracker<K> {
    nodes: Vec<Node<K>>,
    index: HashMap<K, usize>,
    head: usize,
    tail: usize,
    hand: usize,
    free: Vec<usize>,
}

impl<K: Eq + Hash + Copy> ReplacementTracker<K> {
    pub(crate) fn new() -> Self {
        ReplacementTracker {
            nodes: Vec::new(),
            index: HashMap::new(),
            head: NIL,
            tail: NIL,
            hand: NIL,
            free: Vec::new(),
        }
    }

    /// Number of tracked keys.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Records a cache hit on `key`. Unknown keys (already evicted by a
    /// racing worker) are ignored.
    pub(crate) fn touch(&mut self, key: &K) {
        if let Some(&at) = self.index.get(key) {
            self.nodes[at].visited = true;
        }
    }

    /// Tracks a newly published `key` at the head of the order. Keys
    /// already present (a racing publisher lost first-writer-wins) are
    /// treated as a touch.
    pub(crate) fn insert(&mut self, key: K) {
        if self.index.contains_key(&key) {
            self.touch(&key);
            return;
        }
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
        self.index.insert(key, at);
    }

    /// Picks and removes the victim to evict next. Returns `None` when
    /// empty.
    pub(crate) fn evict(&mut self) -> Option<K> {
        if self.index.is_empty() {
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
        self.index.remove(&key);
        self.free.push(at);
        Some(key)
    }
}

/// Debug-build runtime witness of the cache's lock-order invariant: the
/// tracker lock (which guards this module's bookkeeping) may only be
/// taken while the taking thread holds **no** stripe lock — the reverse
/// nesting (stripe under tracker) is eviction's allowed direction.
///
/// This is the enforcing mechanism for the lock-order invariant
/// (`docs/invariants.md`): every stripe acquisition and every tracker
/// acquisition in `memo.rs` goes through it, so any path that nests them
/// the wrong way — through trait dispatch or callbacks included — fails
/// on every debug/test run. A new nested lock pair extends this module.
/// Release builds compile both operations to nothing.
pub(crate) mod lock_witness {
    #[cfg(debug_assertions)]
    use std::cell::Cell;

    #[cfg(debug_assertions)]
    thread_local! {
        /// Stripe locks currently held by this thread.
        static STRIPES_HELD: Cell<usize> = const { Cell::new(0) };
    }

    /// RAII marker for one held stripe lock. Declare it immediately
    /// after the stripe guard, so it drops (in reverse declaration
    /// order) just before the guard releases.
    #[must_use]
    pub(crate) struct StripeWitness {
        /// Prevents construction without [`StripeWitness::acquire`].
        _priv: (),
    }

    impl StripeWitness {
        pub(crate) fn acquire() -> StripeWitness {
            #[cfg(debug_assertions)]
            STRIPES_HELD.with(|c| c.set(c.get() + 1));
            StripeWitness { _priv: () }
        }
    }

    impl Drop for StripeWitness {
        fn drop(&mut self) {
            #[cfg(debug_assertions)]
            STRIPES_HELD.with(|c| c.set(c.get() - 1));
        }
    }

    /// Asserts (debug builds only) that this thread holds no stripe
    /// lock. Call immediately before acquiring the tracker lock.
    pub(crate) fn assert_no_stripe_held() {
        #[cfg(debug_assertions)]
        STRIPES_HELD.with(|c| {
            debug_assert_eq!(
                c.get(),
                0,
                "tracker lock requested while a stripe lock is held — \
                 stripe→tracker nesting deadlocks against eviction's \
                 tracker→stripe direction"
            );
        });
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        #[cfg(debug_assertions)]
        #[should_panic(expected = "stripe lock is held")]
        fn stripe_then_tracker_is_caught() {
            let _w = StripeWitness::acquire();
            assert_no_stripe_held();
        }

        #[test]
        fn witness_releases_on_drop() {
            {
                let _w = StripeWitness::acquire();
            }
            assert_no_stripe_held();
        }

        #[test]
        fn nested_witnesses_count() {
            let _a = StripeWitness::acquire();
            {
                let _b = StripeWitness::acquire();
            }
            // Still one outstanding: dropping `_b` must not zero the
            // count. (Indirectly observed: no panic on drop underflow
            // when `_a` goes out of scope.)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn drain<K: Eq + Hash + Copy>(t: &mut ReplacementTracker<K>) -> Vec<K> {
        std::iter::from_fn(|| t.evict()).collect()
    }

    #[test]
    fn touched_entries_get_a_second_chance() {
        let mut t = ReplacementTracker::new();
        for k in 0..4 {
            t.insert(k);
        }
        t.touch(&0);
        t.touch(&1);
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
        let mut t = ReplacementTracker::new();
        for k in 0..3 {
            t.insert(k);
        }
        t.touch(&0);
        assert_eq!(t.evict(), Some(1), "oldest unvisited goes first");
        // A new entry lands at the head, in the resumed hand's path:
        // untouched, it is demoted on the hand's first visit ("quick
        // demotion"), before the once-touched survivor 0.
        t.insert(9);
        assert_eq!(t.evict(), Some(2));
        assert_eq!(drain(&mut t), vec![9, 0]);
    }

    #[test]
    fn reinserting_an_evicted_key_works() {
        let mut t = ReplacementTracker::new();
        t.insert(1);
        t.insert(2);
        assert!(t.evict().is_some());
        t.insert(1);
        t.insert(3);
        let mut rest = drain(&mut t);
        rest.sort_unstable();
        assert_eq!(rest.len(), 3);
    }

    /// SIEVE as its published pseudocode states it, over a plain `Vec`
    /// (index 0 = oldest, end = newest) with O(n) everything: the
    /// reference the slab tracker is held against.
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
        /// same victims and keep the same length as the naive SIEVE.
        #[test]
        fn interleaved_insert_touch_evict_stays_consistent(
            ops in prop::collection::vec((0u8..3, 0u8..24), 1..400),
        ) {
            let mut tracker = ReplacementTracker::new();
            let mut model = NaiveSieve::default();
            for (op, key) in ops {
                match op {
                    0 => {
                        tracker.insert(key);
                        model.insert(key);
                    }
                    1 => {
                        tracker.touch(&key);
                        model.touch(key);
                    }
                    _ => prop_assert_eq!(tracker.evict(), model.evict()),
                }
                prop_assert_eq!(tracker.len(), model.queue.len());
            }
            let rest: Vec<u8> = std::iter::from_fn(|| model.evict()).collect();
            prop_assert_eq!(drain(&mut tracker), rest);
        }
    }
}
