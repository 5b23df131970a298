//! Cross-experiment artifact memoization: [`ArtifactCache`].
//!
//! The paper's evaluation re-simulates each workload many times — LSM
//! alone runs a pilot plus a whole ladder of candidate layouts, and a
//! [`ScenarioMatrix`](crate::ScenarioMatrix) multiplies that across
//! policies and knobs. Before this module, every one of those runs
//! recompiled the trace IR ([`Workload::compile_traces`]) and re-ran
//! the Locality pilot from scratch, even though those artifacts depend
//! only on the workload (and machine), not on the policy or knob under
//! test.
//!
//! [`ArtifactCache`] is an `Arc`-shared memo: one map under one lock
//! from a kind-tagged key to an artifact, holding three kinds of entry:
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
//! * **LS results**, keyed on `(workload, machine ⊕ layout delta key)`
//!   — the Locality schedule on a given layout. The linear-layout entry
//!   is the classic *pilot* (simultaneously the LS result of a policy
//!   comparison and phase 1 of every LSM run); candidate-layout entries
//!   let the LSM threshold ladder skip re-simulating any candidate
//!   whose effective layout it (or a sibling job) has already run.
//!
//! Each kind earns its slot by a measured end-to-end effect, recorded
//! in `docs/memoization.md`. A workload's total trace-op count, cheap to
//! sum, is read directly and not memoized; nor is its
//! [`SharingMatrix`](crate::SharingMatrix), which an LS or LSM run
//! builds once, only when no LS result is cached for it.
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
//! (checked against the oracle in `tests/scenarios.rs`, pinned by the
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
//! disabled cache (checked against the oracle in
//! `tests/scenarios.rs`).
//!
//! Hit/miss/eviction/occupancy counters are kept per cache
//! ([`MemoStats`]) and surfaced by the daemon's `stats` response, the
//! figure binaries' `memo` line and the repo benchmark's `core.memo.*`.

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use lams_layout::Layout;
use lams_mpsoc::{machine_fingerprint, Fingerprint, MachineConfig};
use lams_trace::Program;
use lams_workloads::Workload;

use crate::replacement::{EvictionPolicy, Sieve};
use crate::{Result, RunResult};

/// The three artifact kinds; the discriminant indexes
/// [`Table::lookups`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Program,
    ProcProgram,
    Pilot,
}

/// The key of one cache entry, uniform across the three artifact kinds
/// so one map and one replacement order span the whole cache (a pilot
/// can evict a program set and vice versa — total occupancy is what a
/// server budgets, not per-kind occupancy). The kind tag keeps kinds
/// that key on the same fingerprint (a workload's program sets and LS
/// results) apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SlotKey {
    kind: Kind,
    a: Fingerprint,
    b: Fingerprint,
}

/// One cached value: a small enum over the three value types, every
/// variant a cheap clone (an `Arc`).
#[derive(Clone)]
enum Artifact {
    Programs(Arc<[Arc<Program>]>),
    ProcProgram(Arc<Program>),
    LsResult(Arc<RunResult>),
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
    /// LS-result lookups (pilot and candidate layouts) served from the
    /// cache.
    pub pilot_hits: u64,
    /// LS-result lookups that had to simulate.
    pub pilot_misses: u64,
    /// Entries evicted to stay within a bounded cache's capacity
    /// (always 0 for unbounded and disabled caches).
    pub evictions: u64,
    /// Entries currently resident, across all three artifact kinds.
    pub occupancy_entries: u64,
    /// The configured capacity; `None` for unbounded (and disabled)
    /// caches.
    pub capacity_entries: Option<u64>,
}

impl MemoStats {
    /// Total lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.program_hits + self.per_process_hits + self.pilot_hits
    }

    /// Total lookups that had to compute the artifact.
    pub fn misses(&self) -> u64 {
        self.program_misses + self.per_process_misses + self.pilot_misses
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
            "{} hits / {} misses ({:.1}% hit rate; programs {}/{}, per-process {}/{}, ls-results {}/{})",
            self.hits(),
            self.misses(),
            self.hit_rate() * 100.0,
            self.program_hits,
            self.program_misses,
            self.per_process_hits,
            self.per_process_misses,
            self.pilot_hits,
            self.pilot_misses,
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
/// [`Experiment::with_memo`](crate::Experiment::with_memo)) and is its
/// only owner: each job of a [`ScenarioMatrix`](crate::ScenarioMatrix)
/// runs on its experiment's memo, so a sweep shares one cache across its
/// workers by giving it to every experiment. [`ArtifactCache::disabled`]
/// builds a pass-through instance that always recomputes — the uncached
/// reference the differential tests compare against.
pub struct ArtifactCache {
    enabled: bool,
    /// The cache's only shared state. No compute ever runs under it.
    table: Mutex<Table>,
}

/// Everything an [`ArtifactCache`] mutates, behind its one lock: the
/// entries (one SIEVE table, whose map is the only index) and the
/// counters [`ArtifactCache::stats`] reports, so a snapshot is always
/// coherent and occupancy never exceeds capacity.
struct Table {
    /// Maximum resident entries across all three kinds; `None` is
    /// unbounded (the batch-sweep default) and never evicts.
    capacity: Option<usize>,
    slots: Sieve<SlotKey, Artifact>,
    /// `[hits, misses]` per [`Kind`].
    lookups: [[u64; 2]; Kind::Pilot as usize + 1],
    evictions: u64,
}

impl Table {
    fn new(capacity: Option<usize>) -> Self {
        Table {
            capacity,
            slots: Sieve::new(),
            lookups: Default::default(),
            evictions: 0,
        }
    }

    /// Counts a lookup of `key` and serves it if resident (a hit marks
    /// the entry visited).
    fn lookup(&mut self, key: &SlotKey) -> Option<Artifact> {
        let hit = self.slots.get(key).cloned();
        self.lookups[key.kind as usize][usize::from(hit.is_none())] += 1;
        hit
    }

    /// Publishes a computed `value` first-writer-wins (a loser's copy is
    /// dropped and the publish touches the winner), evicts down to
    /// capacity, and returns the value every caller shares. Capacity 0
    /// stores nothing, so it never evicts either.
    fn publish(&mut self, key: SlotKey, value: Artifact) -> Artifact {
        if self.capacity == Some(0) {
            return value;
        }
        let value = self.slots.insert(key, value).clone();
        while self.capacity.is_some_and(|cap| self.slots.len() > cap) {
            self.slots.evict();
            self.evictions += 1;
        }
        value
    }
}

impl ArtifactCache {
    /// A fresh, empty, enabled, **unbounded** cache (the batch-sweep
    /// default: the cache lives as long as the sweep and is dropped
    /// wholesale).
    pub fn new() -> Self {
        ArtifactCache {
            enabled: true,
            table: Mutex::new(Table::new(None)),
        }
    }

    /// A fresh enabled cache bounded to at most `capacity_entries`
    /// resident entries (across all three artifact kinds), evicting in
    /// SIEVE order. Capacity 0 stores nothing (every lookup recomputes
    /// but counters still move); capacity 1 holds exactly one entry.
    ///
    /// Any capacity is **bit-identical** to unbounded/disabled — every
    /// artifact is a pure function of its key, so eviction only trades
    /// recompute time for memory (checked against the oracle in
    /// `tests/scenarios.rs`).
    ///
    /// The policy argument selects nothing: [`EvictionPolicy`] has one
    /// variant, and the parameter stays only because the frozen repo
    /// benchmark calls `bounded(cap, config.eviction)`.
    pub fn bounded(capacity_entries: usize, _policy: EvictionPolicy) -> Self {
        ArtifactCache {
            table: Mutex::new(Table::new(Some(capacity_entries))),
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

    /// The table. A poisoned lock is recovered
    /// (`PoisonError::into_inner`): no compute runs under it, every
    /// critical section is a probe or a publish, and a panicking sweep
    /// job must never wedge the cache for the jobs (or service
    /// requests) that share it.
    fn table(&self) -> MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The one lookup path behind every public entry point: key → lock,
    /// probe and count → compute → lock and publish. A disabled cache
    /// computes without building the key; `compute` runs with no lock
    /// held (see the module docs), and its error is propagated without
    /// caching anything.
    fn get_or_try_compute<E>(
        &self,
        key: impl FnOnce() -> SlotKey,
        compute: impl FnOnce() -> std::result::Result<Artifact, E>,
    ) -> std::result::Result<Artifact, E> {
        if !self.enabled {
            return compute();
        }
        let key = key();
        // Each guard drops at the end of its statement: `compute` may
        // fill other entries of this cache.
        let hit = self.table().lookup(&key);
        if let Some(hit) = hit {
            return Ok(hit);
        }
        let computed = compute()?;
        Ok(self.table().publish(key, computed))
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
    /// eviction behave exactly as for the other two slot kinds.
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
    /// served. [`Experiment`](crate::Experiment) re-runs an LS hit over
    /// its budget, which fails with exactly the cold run's error, and
    /// counts an LSM candidate's hit over its budget as no better than
    /// the pilot, without re-running it.
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

    /// Snapshot of the hit/miss/eviction counters and occupancy, read
    /// under the one lock.
    pub fn stats(&self) -> MemoStats {
        let table = self.table();
        let c = |kind: Kind, miss: usize| table.lookups[kind as usize][miss];
        MemoStats {
            program_hits: c(Kind::Program, 0),
            program_misses: c(Kind::Program, 1),
            per_process_hits: c(Kind::ProcProgram, 0),
            per_process_misses: c(Kind::ProcProgram, 1),
            pilot_hits: c(Kind::Pilot, 0),
            pilot_misses: c(Kind::Pilot, 1),
            evictions: table.evictions,
            occupancy_entries: table.slots.len() as u64,
            capacity_entries: table.capacity.map(|c| c as u64),
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

    /// The LS run of `w` on the linear layout, computed without a memo.
    fn ls_run(w: &Workload) -> Result<RunResult> {
        let machine = MachineConfig::paper_default();
        crate::Experiment::for_workload(w.clone(), machine).run(crate::PolicyKind::Locality)
    }

    #[test]
    fn ls_results_memoize_per_workload() {
        let memo = ArtifactCache::new();
        let w = workload();
        let (machine, linear) = (MachineConfig::paper_default(), Layout::linear(w.arrays()));
        let r1 = memo
            .ls_result(&w, &machine, &linear, || ls_run(&w))
            .unwrap();
        let r2 = memo
            .ls_result(&w, &machine, &linear, || ls_run(&w))
            .unwrap();
        assert!(Arc::ptr_eq(&r1, &r2));
        assert_eq!(r1.makespan_cycles, ls_run(&w).unwrap().makespan_cycles);
        let s = memo.stats();
        assert_eq!((s.pilot_hits, s.pilot_misses), (1, 1));
    }

    #[test]
    fn disabled_cache_never_hits_and_counts_nothing() {
        let memo = ArtifactCache::disabled();
        let w = workload();
        let layout = Layout::linear(w.arrays());
        let a = memo.programs(&w, &layout);
        let b = memo.programs(&w, &layout);
        assert!(!Arc::ptr_eq(&a, &b), "disabled cache must recompute");
        let machine = MachineConfig::paper_default();
        memo.ls_result(&w, &machine, &layout, || ls_run(&w))
            .unwrap();
        assert_eq!(memo.stats(), MemoStats::default());
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
