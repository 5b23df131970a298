//! Cross-experiment artifact memoization: [`ArtifactCache`].
//!
//! The paper's evaluation re-simulates each workload many times — LSM
//! alone runs a pilot plus a whole ladder of candidate layouts, and a
//! [`ScenarioMatrix`](crate::ScenarioMatrix) multiplies that across
//! policies and knobs. Before this module, every one of those runs
//! recompiled the trace IR ([`Workload::compile_traces`]) and rebuilt
//! the [`SharingMatrix`] and Locality pilot from scratch, even though
//! those artifacts depend only on the workload (and machine), not on
//! the policy or knob under test.
//!
//! [`ArtifactCache`] is an `Arc`-shared memo: one lock-striped map from
//! a kind-tagged key to an artifact, holding five kinds of entry:
//!
//! * **compiled trace program sets**, keyed on `(workload fingerprint,
//!   delta key)` where the delta key
//!   ([`Workload::delta_fingerprint`]) hashes each process's layout
//!   restricted to its touched arrays — consumed by
//!   [`execute_cached`](crate::execute_cached) instead of recompiling
//!   per engine run;
//! * **per-process compiled programs**, keyed on `(process content
//!   fingerprint, layout-restricted fingerprint)` — the delta
//!   granularity: a whole-set miss assembles the set process by
//!   process, so a candidate layout that remaps arrays a process never
//!   touches reuses that process's pilot-compiled
//!   [`Program`] verbatim;
//! * **sharing matrices**, keyed on the workload fingerprint — consumed
//!   by every Locality/LSM policy construction;
//! * **LS results**, keyed on `(workload, machine ⊕ layout delta key)`
//!   — the Locality schedule on a given layout. The linear-layout entry
//!   is the classic *pilot* (simultaneously the LS result of a policy
//!   comparison and phase 1 of every LSM run); candidate-layout entries
//!   let the LSM threshold ladder skip re-simulating any candidate
//!   whose effective layout it (or a sibling job) has already run;
//! * **workload weights** (total trace ops), keyed on the workload
//!   fingerprint — the up-front cost proxy
//!   [`SweepJob::weight`](crate::SweepJob) feeds the longest-job-first
//!   queue, computed once per workload instead of once per job.
//!
//! # Sharing semantics
//!
//! Keys are 128-bit **content fingerprints**
//! ([`lams_mpsoc::Fingerprint`]): structural hashes of everything the
//! artifact depends on, so independently constructed but identical
//! workloads/layouts share entries and any structural difference keys a
//! different slot. Entries are immutable once published and
//! **first-writer-wins**: when two workers race to compute the same
//! artifact, both compute it (the lock is never held during a compute,
//! which also keeps recursive fills — a pilot run filling the program
//! cache — deadlock-free), and whichever publishes first supplies the
//! value everyone shares. Because every cached artifact is a pure
//! function of its key, the race is benign and results are
//! **bit-identical to the uncached path for any thread count**
//! (differentially tested in `crates/core/tests/memo.rs`, pinned by the
//! fig6 goldens in `tests/cross_validation.rs`).
//!
//! There is no *staleness* invalidation: workloads and layouts are
//! immutable after construction, so a fingerprint never goes stale and
//! an entry is never wrong. What a long-lived process does need is a
//! **memory bound** — a batch sweep drops its cache wholesale, but a
//! daemon's cache would otherwise grow with every distinct scenario it
//! ever served. [`ArtifactCache::bounded`] therefore caps the entry
//! count, evicting in SIEVE order (see [`crate::replacement`]).
//! Eviction is *safe by construction*: every artifact is a pure
//! function of its key, so evicting early only means recomputing later
//! — any capacity, including 0, stays bit-identical to an unbounded or
//! disabled cache (differentially tested in
//! `crates/core/tests/memo.rs`).
//!
//! Hit/miss/eviction/occupancy counters are kept per cache
//! ([`MemoStats`]) and surfaced by the daemon's `stats` response, the
//! figure binaries' `memo` line and the repo benchmark's `core.memo.*`.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use lams_layout::Layout;
use lams_mpsoc::{machine_fingerprint, Fingerprint, MachineConfig};
use lams_trace::Program;
use lams_workloads::Workload;

use crate::replacement::{lock_witness, EvictionPolicy, ReplacementTracker};
use crate::{Result, RunResult, SharingMatrix};

/// Number of lock stripes of the map. Sweeps run at most a few dozen
/// workers; 16 stripes keep contention negligible without bloating the
/// (per-experiment) cache.
const STRIPES: usize = 16;

/// One lock-striped hash map: `STRIPES` independent `Mutex<HashMap>`
/// shards, so concurrent fills of different artifacts rarely contend.
///
/// Stripe locks recover poisoning (`PoisonError::into_inner`): the maps
/// hold immutable published values, every critical section is a single
/// `HashMap` operation, and a panicking sweep job must never wedge the
/// cache for the jobs (or service requests) that share it.
struct Striped<K, V> {
    shards: Vec<Mutex<HashMap<K, V>>>,
}

impl<K: Eq + Hash, V: Clone> Striped<K, V> {
    fn new() -> Self {
        Striped {
            shards: (0..STRIPES).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn get(&self, stripe: usize, key: &K) -> Option<V> {
        let shard = self.shards[stripe]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let _held = lock_witness::StripeWitness::acquire();
        shard.get(key).cloned()
    }

    /// Publishes `value` unless another writer got there first; returns
    /// the winning value (first-writer-wins) and whether *this* call
    /// inserted it — the signal the bounded cache uses to track the
    /// entry exactly once.
    fn publish(&self, stripe: usize, key: K, value: V) -> (V, bool) {
        let mut shard = self.shards[stripe]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let _held = lock_witness::StripeWitness::acquire();
        match shard.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => (e.get().clone(), false),
            std::collections::hash_map::Entry::Vacant(e) => (e.insert(value).clone(), true),
        }
    }

    /// Drops `key` (eviction); absent keys are a no-op.
    fn remove(&self, stripe: usize, key: &K) {
        let mut shard = self.shards[stripe]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let _held = lock_witness::StripeWitness::acquire();
        shard.remove(key);
    }

    /// Total entries across all stripes.
    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
                let _held = lock_witness::StripeWitness::acquire();
                shard.len()
            })
            .sum()
    }
}

/// The five artifact kinds; the discriminant indexes the hit/miss
/// counter block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Program,
    ProcProgram,
    Sharing,
    Pilot,
    Weight,
}

/// The key of one cache entry, uniform across the five artifact kinds
/// so one map and one replacement order span the whole cache (a pilot
/// can evict a program set and vice versa — total occupancy is what a
/// server budgets, not per-kind occupancy). The kind tag keeps kinds
/// that key on the same fingerprint (a workload's sharing matrix and
/// its weight) apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SlotKey {
    kind: Kind,
    a: Fingerprint,
    b: Fingerprint,
}

impl SlotKey {
    /// A key over one fingerprint (the kinds that depend on the
    /// workload alone).
    fn single(kind: Kind, a: Fingerprint) -> Self {
        let b = Fingerprint(0, 0);
        SlotKey { kind, a, b }
    }

    /// Stripe index. Folds **both** fingerprints (and both words of
    /// each, so correlated halves cannot skew the distribution): sweeps
    /// typically hold one of the pair constant (one machine config
    /// across a whole matrix, one layout across many workloads), and
    /// striping on the varying half alone would serialize every lookup
    /// of that kind on a single stripe.
    fn stripe(&self) -> usize {
        ((self.a.0 ^ self.a.1 ^ self.b.0 ^ self.b.1) as usize) & (STRIPES - 1)
    }
}

/// One cached value: a small enum over the five value types, every
/// variant a cheap clone (`Arc` or `u64`).
#[derive(Clone)]
enum Artifact {
    Programs(Arc<[Arc<Program>]>),
    ProcProgram(Arc<Program>),
    Sharing(Arc<SharingMatrix>),
    LsResult(Arc<RunResult>),
    Weight(u64),
}

/// Hit/miss counters per artifact kind, plus eviction and occupancy
/// accounting for bounded caches (see [`ArtifactCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Compiled-program-set lookups served from the cache.
    pub program_hits: u64,
    /// Compiled-program-set lookups that had to compile.
    pub program_misses: u64,
    /// Per-process compiled-program lookups served from the cache (the
    /// delta-key granularity: each set-level miss assembles its set via
    /// one per-process lookup per process).
    pub per_process_hits: u64,
    /// Per-process compiled-program lookups that had to compile.
    pub per_process_misses: u64,
    /// Sharing-matrix lookups served from the cache.
    pub sharing_hits: u64,
    /// Sharing-matrix lookups that had to compute.
    pub sharing_misses: u64,
    /// LS-result lookups (pilot and candidate layouts) served from the
    /// cache.
    pub pilot_hits: u64,
    /// LS-result lookups that had to simulate.
    pub pilot_misses: u64,
    /// Workload-weight lookups served from the cache.
    pub weight_hits: u64,
    /// Workload-weight lookups that had to count trace ops.
    pub weight_misses: u64,
    /// Entries evicted to stay within a bounded cache's capacity
    /// (always 0 for unbounded and disabled caches).
    pub evictions: u64,
    /// Entries currently resident, across all five artifact kinds.
    pub occupancy_entries: u64,
    /// The configured capacity; `None` for unbounded (and disabled)
    /// caches.
    pub capacity_entries: Option<u64>,
}

impl MemoStats {
    /// Total lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.program_hits
            + self.per_process_hits
            + self.sharing_hits
            + self.pilot_hits
            + self.weight_hits
    }

    /// Total lookups that had to compute the artifact.
    pub fn misses(&self) -> u64 {
        self.program_misses
            + self.per_process_misses
            + self.sharing_misses
            + self.pilot_misses
            + self.weight_misses
    }

    /// `hits / (hits + misses)`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }
}

impl fmt::Display for MemoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate; programs {}/{}, per-process {}/{}, sharing {}/{}, ls-results {}/{}, weights {}/{})",
            self.hits(),
            self.misses(),
            self.hit_rate() * 100.0,
            self.program_hits,
            self.program_misses,
            self.per_process_hits,
            self.per_process_misses,
            self.sharing_hits,
            self.sharing_misses,
            self.pilot_hits,
            self.pilot_misses,
            self.weight_hits,
            self.weight_misses,
        )?;
        if let Some(cap) = self.capacity_entries {
            write!(
                f,
                "; {}/{cap} entries, {} evictions",
                self.occupancy_entries, self.evictions
            )?;
        }
        Ok(())
    }
}

/// The `Arc`-shared artifact memo (see the module docs).
///
/// Every [`Experiment`](crate::Experiment) owns one (fresh by default,
/// shareable via
/// [`Experiment::with_memo`](crate::Experiment::with_memo)), and
/// [`ScenarioMatrix::run`](crate::ScenarioMatrix::run) threads one
/// cache through all of a sweep's workers. [`ArtifactCache::disabled`]
/// builds a pass-through instance that always recomputes — the uncached
/// reference the differential tests compare against.
pub struct ArtifactCache {
    enabled: bool,
    /// Maximum resident entries across all five kinds; `None` is
    /// unbounded (the batch-sweep default).
    capacity: Option<usize>,
    slots: Striped<SlotKey, Artifact>,
    /// Replacement order for bounded caches. Lock ordering: the tracker
    /// lock is only ever taken while holding **no** stripe lock, and
    /// stripe locks for victim removal are taken *under* it — one
    /// consistent order, so hits, publishes and evictions cannot
    /// deadlock.
    tracker: Mutex<ReplacementTracker<SlotKey>>,
    /// `[hits, misses]` per [`Kind`].
    lookups: [[AtomicU64; 2]; Kind::Weight as usize + 1],
    evictions: AtomicU64,
}

impl ArtifactCache {
    /// A fresh, empty, enabled, **unbounded** cache (the batch-sweep
    /// default: the cache lives as long as the sweep and is dropped
    /// wholesale).
    pub fn new() -> Self {
        ArtifactCache {
            enabled: true,
            capacity: None,
            slots: Striped::new(),
            tracker: Mutex::new(ReplacementTracker::new()),
            lookups: Default::default(),
            evictions: AtomicU64::new(0),
        }
    }

    /// A fresh enabled cache bounded to at most `capacity_entries`
    /// resident entries (across all five artifact kinds), evicting in
    /// SIEVE order. Capacity 0 stores nothing (every lookup recomputes
    /// but counters still move); capacity 1 holds exactly one entry.
    ///
    /// Any capacity is **bit-identical** to unbounded/disabled — every
    /// artifact is a pure function of its key, so eviction only trades
    /// recompute time for memory (differential proptests in
    /// `crates/core/tests/memo.rs`).
    ///
    /// The policy argument selects nothing: [`EvictionPolicy`] has one
    /// variant, and the parameter stays only because the frozen repo
    /// benchmark calls `bounded(cap, config.eviction)`.
    pub fn bounded(capacity_entries: usize, _policy: EvictionPolicy) -> Self {
        ArtifactCache {
            capacity: Some(capacity_entries),
            ..ArtifactCache::new()
        }
    }

    /// A fresh enabled cache behind `Arc`, ready to share across
    /// experiments and sweep workers.
    pub fn shared() -> Arc<Self> {
        Arc::new(ArtifactCache::new())
    }

    /// A pass-through cache: every lookup recomputes, nothing is stored
    /// and no counters move. This is exactly the pre-memo behaviour,
    /// kept as the reference side of the cached-vs-uncached
    /// differential tests and benchmarks.
    pub fn disabled() -> Arc<Self> {
        Arc::new(ArtifactCache {
            enabled: false,
            ..ArtifactCache::new()
        })
    }

    /// Whether lookups may be served from the cache.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The configured capacity in entries; `None` for unbounded.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Whether publishes may store entries (bounded-to-zero caches keep
    /// the map empty and skip all replacement bookkeeping).
    fn stores(&self) -> bool {
        self.capacity != Some(0)
    }

    /// Records a served hit in the replacement order (no-op when
    /// unbounded — there is nothing to rank).
    fn note_hit(&self, key: SlotKey) {
        if self.capacity.is_some() {
            lock_witness::assert_no_stripe_held();
            self.tracker
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .touch(&key);
        }
    }

    /// Tracks a publish outcome and evicts down to capacity. `inserted`
    /// is [`Striped::publish`]'s flag: only the racer that actually
    /// inserted tracks the entry; losers record a touch.
    fn admit(&self, key: SlotKey, inserted: bool) {
        let Some(cap) = self.capacity else { return };
        lock_witness::assert_no_stripe_held();
        let mut tracker = self.tracker.lock().unwrap_or_else(PoisonError::into_inner);
        if inserted {
            tracker.insert(key);
        } else {
            tracker.touch(&key);
        }
        while tracker.len() > cap {
            let Some(victim) = tracker.evict() else { break };
            self.slots.remove(victim.stripe(), &victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The one lookup path behind every public entry point: key →
    /// stripe lookup → count → compute → publish → admit. A disabled
    /// cache computes without building the key; `compute` runs with no
    /// lock held (see the module docs), and its error is propagated
    /// without caching anything.
    fn get_or_try_compute<E>(
        &self,
        key: impl FnOnce() -> SlotKey,
        compute: impl FnOnce() -> std::result::Result<Artifact, E>,
    ) -> std::result::Result<Artifact, E> {
        if !self.enabled {
            return compute();
        }
        let key = key();
        let stripe = key.stripe();
        let counters = &self.lookups[key.kind as usize];
        if let Some(hit) = self.slots.get(stripe, &key) {
            counters[0].fetch_add(1, Ordering::Relaxed);
            self.note_hit(key);
            return Ok(hit);
        }
        counters[1].fetch_add(1, Ordering::Relaxed);
        let computed = compute()?;
        if !self.stores() {
            return Ok(computed);
        }
        let (value, inserted) = self.slots.publish(stripe, key, computed);
        self.admit(key, inserted);
        Ok(value)
    }

    /// [`ArtifactCache::get_or_try_compute`] for the kinds whose
    /// compute cannot fail.
    fn get_or_compute(
        &self,
        key: impl FnOnce() -> SlotKey,
        compute: impl FnOnce() -> Artifact,
    ) -> Artifact {
        match self.get_or_try_compute(key, || Ok::<_, std::convert::Infallible>(compute())) {
            Ok(artifact) => artifact,
            Err(never) => match never {},
        }
    }

    /// The compiled trace program set of `workload` against `layout`
    /// (index = process id), compiling on first use.
    ///
    /// The set is keyed on the workload's **delta key** for the layout
    /// ([`Workload::delta_fingerprint`]) — so two layouts that differ
    /// only on arrays no process touches share one set — and a
    /// set-level miss assembles the set through the **per-process**
    /// slot: each process looks up `(process content fingerprint,
    /// layout restricted to its touched arrays)` and only the processes
    /// whose effective layout actually changed recompile. A ladder
    /// candidate that remaps 2 of 40 processes' arrays compiles 2
    /// programs and reuses 38 from the pilot.
    pub fn programs(&self, workload: &Workload, layout: &Layout) -> Arc<[Arc<Program>]> {
        let set = self.get_or_compute(
            || SlotKey {
                kind: Kind::Program,
                a: workload.fingerprint(),
                b: workload.delta_fingerprint(layout),
            },
            || {
                Artifact::Programs(
                    workload
                        .process_ids()
                        .map(|p| self.proc_program(workload, p, layout))
                        .collect(),
                )
            },
        );
        let Artifact::Programs(set) = set else {
            unreachable!("a Program key holds a program set")
        };
        set
    }

    /// One process's compiled program against `layout`, keyed on
    /// `(process content fingerprint, effective-layout-restriction
    /// fingerprint)` — the delta-granularity slot. Soundness rests on
    /// [`Layout::restricted_fingerprint`]: the compiler reads nothing
    /// of the layout beyond the touched arrays' placement (plus the
    /// chunk size when one of them is remapped), so equal keys imply a
    /// byte-identical [`Program`]. First-writer-wins and bounded
    /// eviction behave exactly as for the other four slot kinds.
    fn proc_program(
        &self,
        workload: &Workload,
        p: lams_procgraph::ProcessId,
        layout: &Layout,
    ) -> Arc<Program> {
        let program = self.get_or_compute(
            || SlotKey {
                kind: Kind::ProcProgram,
                a: workload.process_fingerprint(p),
                b: layout.restricted_fingerprint(&workload.arrays_of(p)),
            },
            || Artifact::ProcProgram(Arc::new(workload.compile_trace(p, layout))),
        );
        let Artifact::ProcProgram(program) = program else {
            unreachable!("a ProcProgram key holds one program")
        };
        program
    }

    /// The workload's [`SharingMatrix`], computed on first use.
    pub fn sharing(&self, workload: &Workload) -> Arc<SharingMatrix> {
        let matrix = self.get_or_compute(
            || SlotKey::single(Kind::Sharing, workload.fingerprint()),
            || Artifact::Sharing(Arc::new(SharingMatrix::from_workload(workload))),
        );
        let Artifact::Sharing(matrix) = matrix else {
            unreachable!("a Sharing key holds a sharing matrix")
        };
        matrix
    }

    /// The LS run of `workload` against an arbitrary `layout` on
    /// `machine`, keyed on `(workload fingerprint, machine ⊕ layout
    /// delta key)`. This is the run-granularity reuse of the delta
    /// scheme: an LS simulation depends on nothing but the workload,
    /// the machine (same fingerprint ⇒ same cores, cache, latencies,
    /// bus arbitration) and the compiled per-process programs — which
    /// the delta key ([`Workload::delta_fingerprint`]) pins
    /// byte-for-byte. LS has no
    /// quantum and no seed, and the sharing matrix it schedules by is a
    /// pure function of the workload, so equal keys imply a
    /// bit-identical [`RunResult`] including every per-process hit/miss
    /// summary. Candidates whose remap leaves every touched array in
    /// place (delta key = the pilot's) resolve to the pilot entry
    /// without simulating; threshold-ladder siblings that derive the
    /// same effective assignment share one simulation.
    ///
    /// A run's deadline cap is deliberately *not* part of the key,
    /// matching the pilot slot's historical contract: errors (including
    /// deadline overruns) are never cached, and runs that fit their
    /// deadline are bit-identical to unbudgeted ones. A hit may
    /// therefore hold a run longer than the *caller's* budget, which
    /// the memo never sees: the caller enforces it on what it is
    /// served, as [`Experiment`](crate::Experiment) does.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error without caching it.
    pub fn ls_result<F>(
        &self,
        workload: &Workload,
        machine: &MachineConfig,
        layout: &Layout,
        compute: F,
    ) -> Result<Arc<RunResult>>
    where
        F: FnOnce() -> Result<RunResult>,
    {
        let result = self.get_or_try_compute(
            || {
                let mut h = lams_mpsoc::FingerprintHasher::new("lams.ls-key");
                h.write_fingerprint(machine_fingerprint(machine));
                h.write_fingerprint(workload.delta_fingerprint(layout));
                SlotKey {
                    kind: Kind::Pilot,
                    a: workload.fingerprint(),
                    b: h.finish(),
                }
            },
            || compute().map(|r| Artifact::LsResult(Arc::new(r))),
        )?;
        let Artifact::LsResult(result) = result else {
            unreachable!("a Pilot key holds an LS result")
        };
        Ok(result)
    }

    /// The workload's total trace-op count
    /// ([`Workload::total_trace_ops`]), the raw material of
    /// [`SweepJob::weight`](crate::SweepJob::weight) — computed once
    /// per workload so enumerating the longest-job-first queue is
    /// O(workloads), not O(jobs).
    pub fn workload_weight(&self, workload: &Workload) -> u64 {
        let weight = self.get_or_compute(
            || SlotKey::single(Kind::Weight, workload.fingerprint()),
            || Artifact::Weight(workload.total_trace_ops()),
        );
        let Artifact::Weight(weight) = weight else {
            unreachable!("a Weight key holds a trace-op count")
        };
        weight
    }

    /// Snapshot of the hit/miss/eviction counters and occupancy.
    pub fn stats(&self) -> MemoStats {
        let c = |kind: Kind, miss: usize| self.lookups[kind as usize][miss].load(Ordering::Relaxed);
        MemoStats {
            program_hits: c(Kind::Program, 0),
            program_misses: c(Kind::Program, 1),
            per_process_hits: c(Kind::ProcProgram, 0),
            per_process_misses: c(Kind::ProcProgram, 1),
            sharing_hits: c(Kind::Sharing, 0),
            sharing_misses: c(Kind::Sharing, 1),
            pilot_hits: c(Kind::Pilot, 0),
            pilot_misses: c(Kind::Pilot, 1),
            weight_hits: c(Kind::Weight, 0),
            weight_misses: c(Kind::Weight, 1),
            evictions: self.evictions.load(Ordering::Relaxed),
            occupancy_entries: self.slots.len() as u64,
            capacity_entries: self.capacity.map(|c| c as u64),
        }
    }
}

impl Default for ArtifactCache {
    fn default() -> Self {
        ArtifactCache::new()
    }
}

impl fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("enabled", &self.enabled)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lams_workloads::{suite, Scale};

    fn workload() -> Workload {
        Workload::single(suite::shape(Scale::Tiny)).unwrap()
    }

    #[test]
    fn programs_hit_on_second_lookup_and_match_direct_compilation() {
        let memo = ArtifactCache::new();
        let w = workload();
        let layout = Layout::linear(w.arrays());
        let a = memo.programs(&w, &layout);
        let b = memo.programs(&w, &layout);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must share the Arc");
        let direct = w.compile_traces(&layout);
        assert_eq!(a.len(), direct.len());
        for (x, y) in a.iter().zip(direct.iter()) {
            assert_eq!(x.fingerprint(), y.fingerprint());
        }
        let s = memo.stats();
        assert_eq!((s.program_hits, s.program_misses), (1, 1));
    }

    #[test]
    fn distinct_layouts_key_distinct_slots() {
        let memo = ArtifactCache::new();
        let w = workload();
        let linear = Layout::linear(w.arrays());
        let mut asg = lams_layout::RemapAssignment::new();
        let first = w.arrays().iter().next().unwrap().0;
        asg.assign(first, lams_layout::HalfPage::Lower);
        let remapped =
            Layout::remapped(w.arrays(), &lams_mpsoc::CacheConfig::paper_default(), &asg);
        let a = memo.programs(&w, &linear);
        let b = memo.programs(&w, &remapped);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(memo.stats().program_misses, 2);
    }

    #[test]
    fn sharing_and_weight_memoize_per_workload() {
        let memo = ArtifactCache::new();
        let w = workload();
        let s1 = memo.sharing(&w);
        let s2 = memo.sharing(&w);
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(*s1, SharingMatrix::from_workload(&w));
        assert_eq!(memo.workload_weight(&w), w.total_trace_ops());
        assert_eq!(memo.workload_weight(&w), w.total_trace_ops());
        let s = memo.stats();
        assert_eq!((s.sharing_hits, s.sharing_misses), (1, 1));
        assert_eq!((s.weight_hits, s.weight_misses), (1, 1));
    }

    #[test]
    fn disabled_cache_never_hits_and_counts_nothing() {
        let memo = ArtifactCache::disabled();
        let w = workload();
        let layout = Layout::linear(w.arrays());
        let a = memo.programs(&w, &layout);
        let b = memo.programs(&w, &layout);
        assert!(!Arc::ptr_eq(&a, &b), "disabled cache must recompute");
        memo.sharing(&w);
        memo.workload_weight(&w);
        assert_eq!(memo.stats(), MemoStats::default());
        assert!(!memo.is_enabled());
    }

    #[test]
    fn pilot_errors_are_not_cached() {
        let memo = ArtifactCache::new();
        let w = workload();
        let machine = MachineConfig::paper_default();
        let linear = Layout::linear(w.arrays());
        let err = memo.ls_result(&w, &machine, &linear, || {
            Err(crate::Error::EngineStalled { ready: 1 })
        });
        assert!(err.is_err());
        // The failed fill left no entry: the next lookup computes.
        let ok = memo
            .ls_result(&w, &machine, &linear, || {
                crate::Experiment::for_workload(w.clone(), machine).run(crate::PolicyKind::Locality)
            })
            .unwrap();
        assert!(ok.makespan_cycles > 0);
        let s = memo.stats();
        assert_eq!((s.pilot_hits, s.pilot_misses), (0, 2));
    }

    #[test]
    fn per_process_slots_reuse_programs_across_disjoint_remaps() {
        // A two-app mix shares no arrays across apps, so remapping only
        // the last array (touched by the second app alone) must let
        // every first-app process reuse its linear-layout program.
        let apps = vec![suite::shape(Scale::Tiny), suite::track(Scale::Tiny)];
        let w = Workload::concurrent(apps).unwrap();
        let memo = ArtifactCache::new();
        let linear = Layout::linear(w.arrays());
        let a = memo.programs(&w, &linear);
        let last = lams_layout::ArrayId::new((w.arrays().len() - 1) as u32);
        let mut asg = lams_layout::RemapAssignment::new();
        asg.assign(last, lams_layout::HalfPage::Lower);
        let remapped =
            Layout::remapped(w.arrays(), &lams_mpsoc::CacheConfig::paper_default(), &asg);
        let b = memo.programs(&w, &remapped);
        let untouched: Vec<_> = w
            .process_ids()
            .filter(|&p| !w.arrays_of(p).contains(&last))
            .collect();
        assert!(!untouched.is_empty(), "mix must have disjoint processes");
        for &p in &untouched {
            assert!(
                Arc::ptr_eq(&a[p.as_usize()], &b[p.as_usize()]),
                "disjoint process {p} must reuse its compiled program"
            );
        }
        let s = memo.stats();
        assert_eq!(s.program_misses, 2, "two distinct delta keys");
        assert_eq!(s.per_process_hits as usize, untouched.len());
        assert_eq!(
            s.per_process_misses as usize,
            2 * w.num_processes() - untouched.len()
        );
    }

    #[test]
    fn ls_result_on_linear_layout_shares_the_pilot_slot() {
        let memo = ArtifactCache::new();
        let w = workload();
        let machine = MachineConfig::paper_default();
        let pilot = memo
            .ls_result(&w, &machine, &Layout::linear(w.arrays()), || {
                crate::Experiment::for_workload(w.clone(), machine).run(crate::PolicyKind::Locality)
            })
            .unwrap();
        // The pilot *is* the linear-layout LS result: looking it up
        // through the generalized entry point must hit, not simulate.
        let again = memo
            .ls_result(&w, &machine, &Layout::linear(w.arrays()), || {
                panic!("linear ls_result must be served from the pilot fill")
            })
            .unwrap();
        assert!(Arc::ptr_eq(&pilot, &again));
        let s = memo.stats();
        assert_eq!((s.pilot_hits, s.pilot_misses), (1, 1));
    }

    #[test]
    fn first_writer_wins_under_racing_fills() {
        let memo = ArtifactCache::new();
        let w = workload();
        let layout = Layout::linear(w.arrays());
        let sets: Vec<Arc<[Arc<Program>]>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| memo.programs(&w, &layout)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for pair in sets.windows(2) {
            assert!(
                Arc::ptr_eq(&pair[0], &pair[1]),
                "all racers must converge on one published set"
            );
        }
        let s = memo.stats();
        assert_eq!(s.program_hits + s.program_misses, 4);
        assert!(s.program_misses >= 1);
    }
}
