//! An execution-driven embedded-MPSoC simulator: the substrate standing in
//! for the Simics full-system simulator used in Section 4 of *Kandemir &
//! Chen, "Locality-Aware Process Scheduling for Embedded MPSoCs",
//! DATE 2005*.
//!
//! The paper's evaluation measures task completion time on an 8-core MPSoC
//! where each core has a private 8 KB 2-way L1 cache (2-cycle access),
//! off-chip memory costs 75 cycles, and the cores run at 200 MHz
//! (Table 2). Everything the scheduling comparison depends on is the
//! *cache behaviour under different process-to-core mappings*, which this
//! crate models exactly:
//!
//! * [`CacheConfig`] / [`MachineConfig`] — geometry and latencies, with
//!   [`MachineConfig::paper_default`] reproducing Table 2,
//! * [`Cache`] — set-associative LRU with hit/miss statistics, and
//!   cold/capacity/conflict (3C) miss classification when its
//!   [`Classifier`] is [`Explain`],
//! * [`TraceOp`] — per-process memory-reference streams (never
//!   materialized: generators yield ops lazily),
//! * [`BusConfig`] — optional shared-bus contention for off-chip
//!   accesses, with FCFS and time-windowed ([`BusMode`]) arbitration,
//! * [`Machine`] — N cores with private caches and per-core clocks; a
//!   scheduling engine runs compiled traces ([`TraceSource`]) on cores
//!   and orders their contended misses in global time. Its caches'
//!   classifier is its type parameter, chosen once per run by
//!   [`MachineConfig::explain`],
//! * [`EnergyModel`] — on-chip vs off-chip access energy, supporting the
//!   paper's power-saving claims.
//!
//! What is deliberately *not* modelled (and why it does not affect the
//! reproduction): instruction caches (the array-intensive loop kernels of
//! the paper's benchmarks are loop-resident and affect all schedulers
//! equally) and OS/device overheads (constant across policies): both
//! cancel out of every between-policy comparison the paper reports.
//!
//! # Cost model
//!
//! Per trace op, as [`Machine::exec_source_until`] runs it:
//!
//! * `Compute(c)` costs `c` cycles;
//! * an access that hits costs `hit_latency`;
//! * an access that misses costs `hit_latency + miss_latency` (probe
//!   plus off-chip fetch), plus bus waiting when a contended bus is
//!   configured (request issued at `core_clock + hit_latency`, granted
//!   FCFS in global time order or latched at time-window boundaries —
//!   see [`BusMode`] and `docs/bus-model.md`).
//!
//! Every cost advances only the executing core's local clock. What a
//! core does between two misses depends on no other core (the caches
//! are private), so only the misses on a contended bus need ordering:
//! there the horizon executors *park* the core
//! ([`BatchOutcome::parked`]) at the scheduling key its bus mode
//! dictates, and [`Machine::complete_bus_access`] takes the grant once
//! the engine has brought every other core up to that key. The engine
//! batches cores independently between misses under either mode.
//!
//! # Fast-path invariants
//!
//! The hot path is allocation-free and O(1) per access:
//!
//! * [`Cache`] stores ways in one flat slab (`set * associativity +
//!   way`, `stamp == 0` = empty) with shift/mask set indexing — valid
//!   because [`CacheConfig`] validation guarantees power-of-two
//!   geometry. Way stamps strictly increase, so the per-set LRU victim
//!   is unique and matches any stamp-ordered implementation.
//! * The split of misses costs nothing unless asked for. A [`Plain`]
//!   cache, the default, keeps the way slab, the clock and the hit,
//!   miss and eviction counts; its classifier hooks are empty and
//!   inline away, with no runtime branch. An [`Explain`] cache adds the
//!   3C shadow: an intrusive doubly-linked LRU over a slab plus one
//!   multiply-shift table over every line ever touched; a hit only
//!   lists its way, and the next miss replays the list before it
//!   classifies. The engine reads [`MachineConfig::explain`] once per
//!   run and instantiates the machine as one or the other. Skipping
//!   the shadow where nothing asks for the split cut the engine's time
//!   per op on the repo benchmark's `grid_batch` by about 38 % (2-vCPU
//!   host; `cache.rs` has the end-to-end figures).
//! * [`Machine::exec_source_until`] — the executor the scheduling
//!   engine calls — runs a compiled program ([`TraceSource`]) up to an
//!   event horizon, collapsing guaranteed-hit spans into arithmetic;
//!   per-core cache statistics are snapshotted lazily by
//!   [`Machine::core_stats`]/[`Machine::stats`] rather than copied per
//!   op. A window of hit rounds opens after one probed round and
//!   carries the way slot each lane hit or filled there, in a scratch
//!   buffer the machine owns: whether every lane's line survived the
//!   round is one compare per lane, and the window restamps those
//!   ways by slot, so each set is scanned once per window, by the
//!   probe. It serves every machine, bus or not, and both
//!   classifiers. Against rescanning each set twice more per window,
//!   this took the repo benchmark's `wall_s@grid_batch` from 0.090 s
//!   to 0.074 s (medians of 12 alternating pairs, 2-vCPU host; most of
//!   the fall is RRS re-warming a preempted process's pass).
//! * A repeated pass costs one pass. When the source is whole passes of
//!   one op sequence `P` ([`TraceSource::pass`]), the executor
//!   fast-forwards. Let `f(S)` be the LRU state after running `P` from
//!   state `S`. LRU has the stack property (Mattson et al., 1970): each
//!   set, and an explaining cache's fully-associative shadow, holds its
//!   most recently used distinct lines in recency order. So
//!   `f(f(S)) = f(S)`: after `P` the lines of `P` lead in an order only
//!   `P` decides, and the rest keep their order behind them.
//!   After one pass every line of `P` has also been seen, so no later
//!   miss is cold. Hence every pass after the first that one batch runs
//!   has the same hits, misses of each kind, evictions and cycles, and
//!   ends in the same state up to a uniform shift of the stamps. The
//!   executor measures the second whole pass and adds that pass's
//!   deltas `k` times for the `k` passes left that end strictly before
//!   the horizon. A bus changes nothing here: on a contended bus a miss
//!   parks the batch, so a pass measured inside one batch never missed
//!   and cost no arbitration, and neither do its repeats.
//! * Every batch equals executing its ops one at a time: the same
//!   statistics, clocks, [`BatchOutcome`], resident lines and per-set
//!   LRU order. Which slot of a thrashing set holds which line may
//!   differ, and no result reads slots.
//! * The reference model lives in the tests, not here: a naive
//!   machine (`crates/mpsoc/tests/support/naive.rs` — per-set `Vec`
//!   caches, a linear fully-associative shadow, the bus rules written
//!   from `docs/bus-model.md`) that `crates/mpsoc/tests/prop.rs` holds
//!   [`Machine::exec_source_until`] bit-identical to, and that the
//!   engine's test oracle (`crates/core/tests/support/oracle.rs`) runs
//!   one op at a time.
//! * Batching preserves bit-identical results: the engine only runs a
//!   core ahead where no other core can observe it (to the next event
//!   horizon or its next contended miss), so cache, bus and makespan
//!   state equal the one-op-at-a-time schedule. Verified
//!   differentially against that oracle and by the golden makespans
//!   in `tests/cross_validation.rs`.
//!
//! ```
//! use lams_mpsoc::{Cache, CacheConfig, Explain};
//!
//! let mut c = Cache::<Explain>::build(CacheConfig::paper_default());
//! // Two passes over the same 1 KiB: the second pass hits in L1.
//! for pass in 0..2 {
//!     for a in (0..1024u64).step_by(4) {
//!         c.access(a);
//!     }
//!     if pass == 0 {
//!         assert_eq!(c.stats().misses, 1024 / 32);
//!         assert_eq!(c.stats().cold_misses, c.stats().misses);
//!     }
//! }
//! assert!(c.stats().hit_rate() > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Determinism: no host clock, worker id or hash order (docs/invariants.md).
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
#![deny(clippy::iter_over_hash_type)]

mod bus;
mod cache;
mod config;
mod energy;
mod error;
mod fingerprint;
mod machine;
mod source;
mod stats;
mod trace;

pub use cache::{AccessOutcome, Cache, Classifier, Explain, MissKind, Plain};
pub use config::{BusConfig, BusMode, CacheConfig, MachineConfig};
pub use energy::EnergyModel;
pub use error::{Error, Result};
pub use fingerprint::{machine_fingerprint, Fingerprint, FingerprintHasher, SplitMix64};
pub use machine::{BatchOutcome, CoreId, Machine};
pub use source::{Segment, SegmentLane, TraceSource};
pub use stats::{CacheStats, CoreStats, MachineStats};
pub use trace::{TraceOp, TraceStats};
