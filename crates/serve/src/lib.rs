//! `lams-serve` — the long-lived sweep service.
//!
//! The batch binaries (`fig6`, `sweep`, …) build a workload, simulate,
//! print, and exit; every invocation pays trace compilation and pilot
//! simulation from scratch, and a crash loses nothing because nothing
//! outlives the process. A *service* inverts both properties: one
//! process answers many scenario requests, so the shared
//! [`ArtifactCache`](lams_core::ArtifactCache) finally earns its keep
//! across requests — and every failure mode that a batch run could
//! shrug off (a panicking job, a runaway simulation, a malformed
//! request, a flood) must now be survived, not merely reported.
//!
//! The crate is std-only (no async runtime, no serialization
//! dependency): a line-delimited `key=value` protocol
//! ([`protocol`]) served over stdin/stdout or TCP ([`server`]), a
//! persistent worker pool with bounded admission and panic isolation
//! ([`pool`]), and deterministic fault injection for the tests that
//! prove the hardening ([`fault`]).
//!
//! # Hardening inventory
//!
//! * **Bounded memory** — [`ServerConfig::cache_capacity`] caps the
//!   artifact cache (SIEVE eviction, see `docs/memoization.md`); any
//!   capacity is bit-identical to unbounded, only slower.
//! * **Panic isolation** — every job runs under `catch_unwind`; a
//!   panicking job answers `err … code=job_panicked` and the worker
//!   survives. Poisoned mutexes are recovered everywhere.
//! * **Deadlines** — [`ServerConfig::default_deadline`] (or a
//!   per-request `deadline=` field) bounds each run in *simulated*
//!   cycles — deterministic, host-independent admission control.
//! * **Backpressure** — the admission queue is bounded
//!   ([`ServerConfig::queue_depth`]); overload is answered immediately
//!   with `err … code=busy`.
//! * **Graceful drain** — `shutdown` finishes admitted jobs, refuses
//!   new ones, and joins every worker before exit.
//!
//! # Example (in-process)
//!
//! ```
//! use lams_serve::{Service, ServerConfig, Exit};
//! use std::io::BufReader;
//!
//! let service = Service::new(ServerConfig::default());
//! let input = b"ping id=1\nrun id=2 app=shape scale=tiny policy=ls\nshutdown id=3\n";
//! let mut out = Vec::new();
//! let exit = service.serve(&mut BufReader::new(&input[..]), &mut out).unwrap();
//! assert_eq!(exit, Exit::Shutdown);
//! service.drain();
//! let text = String::from_utf8(out).unwrap();
//! assert!(text.starts_with("ok id=1 pong=1\n"), "{text}");
//! assert!(text.contains("ok id=2 app=shape"), "{text}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic policy: the request path never unwinds (docs/invariants.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod fault;
pub mod pool;
pub mod protocol;
pub mod server;

pub use fault::{Fault, FaultPlan};
pub use pool::{execute_work, PoolConfig, ServiceStats, Work, WorkerPool};
pub use protocol::{
    ErrorCode, ParseError, Request, Response, ScenarioRequest, MAX_LINE_BYTES, NO_ID,
};
pub use server::{serve_stdio, Exit, ServerConfig, Service, TcpServer, TcpServerHandle};
