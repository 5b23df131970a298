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
//! * [`Cache`] — set-associative LRU with hit/miss statistics and
//!   cold/capacity/conflict (3C) miss classification,
//! * [`TraceOp`] — per-process memory-reference streams (never
//!   materialized: generators yield ops lazily),
//! * [`BusConfig`] — optional shared-bus contention for off-chip
//!   accesses, with FCFS and time-windowed ([`BusMode`]) arbitration,
//! * [`Machine`] — N cores with private caches and per-core clocks; a
//!   scheduling engine runs compiled traces ([`TraceSource`]) on cores
//!   and orders their contended misses in global time,
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
//! * The 3C shadow directory is an intrusive doubly-linked LRU over a
//!   slab plus an open-addressing multiply-shift index table — no
//!   SipHash, no `BTreeMap`.
//! * [`Machine::exec_source_until`] — the executor the scheduling
//!   engine calls — runs a compiled program ([`TraceSource`]) up to an
//!   event horizon, collapsing guaranteed-hit spans into arithmetic;
//!   per-core cache statistics are snapshotted lazily by
//!   [`Machine::core_stats`]/[`Machine::stats`] rather than copied per
//!   op.
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
//! use lams_mpsoc::{Cache, CacheConfig};
//!
//! let mut c = Cache::new(CacheConfig::paper_default());
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

pub use cache::{AccessOutcome, Cache, MissKind};
pub use config::{BusConfig, BusMode, CacheConfig, MachineConfig};
pub use energy::EnergyModel;
pub use error::{Error, Result};
pub use fingerprint::{machine_fingerprint, Fingerprint, FingerprintHasher};
pub use machine::{BatchOutcome, CoreId, Machine};
pub use source::{Segment, SegmentLane, TraceSource};
pub use stats::{CacheStats, CoreStats, MachineStats};
pub use trace::{ParseTraceOpError, TraceOp, TraceStats};
