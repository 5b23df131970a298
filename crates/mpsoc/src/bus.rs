//! Shared off-chip bus arbitration: FCFS and time-windowed epochs.
//!
//! The paper's Table 2 models memory as a flat 75-cycle latency; the bus
//! is an optional extension used by the sensitivity sweeps: each
//! off-chip transfer occupies the bus for a configurable number of
//! cycles and requests are ordered by the configured [`BusMode`].
//!
//! # Two arbitration disciplines
//!
//! * **FCFS** ([`BusMode::Fcfs`]): a request at time `r` is granted at
//!   `max(r, bus_free)`, requests being served in the global `(pre-op
//!   clock, core-id)` order of the accesses that issue them.
//! * **Windowed** ([`BusMode::Windowed`]): time is divided into epochs
//!   of `window_cycles`. A request at time `r` is *latched* at the next
//!   epoch boundary `B(r) = ceil(r / window) * window`, and every
//!   request latched at one boundary is granted there in
//!   `(request-time, core-id)` order, each occupying the bus for
//!   `occupancy_cycles` starting at `max(boundary, bus_free)`.
//!
//! In both, a requesting core stalls until its grant, so it has at most
//! one request outstanding and — crucially — its execution *between*
//! misses never depends on other cores' progress. That is what lets the
//! engine batch every core to full event horizons under either mode;
//! see `docs/bus-model.md`.
//!
//! With `window_cycles == 1`, `B(r) = r` and windowed arbitration is
//! bit-identical to FCFS (pinned differentially in
//! `crates/core/tests/bus.rs`). A zero-occupancy bus never contends in
//! either mode: the machine builds no arbiter for it, so every grant is
//! immediate, equivalent to no bus at all.
//!
//! The arbiter is deferred: a missing core *latches* its request and
//! parks ([`crate::BatchOutcome::parked`]), and the grant is taken by
//! [`crate::Machine::complete_bus_access`] once no earlier request can
//! still arrive — the whole boundary batch on a bus with epochs, that
//! one request on a bus without.
//!
//! ```
//! use lams_mpsoc::{
//!     BusConfig, Machine, MachineConfig, Segment, SegmentLane, TraceSource,
//! };
//!
//! /// A one-read trace.
//! struct Read(Option<u64>);
//!
//! impl TraceSource for Read {
//!     fn peek_segment(&mut self) -> Option<Segment> {
//!         let base = self.0?;
//!         Some(Segment::Run { base, stride: 0, count: 1, write: false })
//!     }
//!     fn lanes(&self) -> &[SegmentLane] {
//!         &[]
//!     }
//!     fn advance(&mut self, _ops: u64) {
//!         self.0 = None;
//!     }
//! }
//!
//! // A 50-cycle window, 10 cycles per transfer. Cores 1 and 0 both miss
//! // at clock 0 (request 0 + hit latency 2): both park at boundary 50.
//! let bus = BusConfig::windowed(10, 50);
//! let mut m = Machine::new(MachineConfig::paper_default().with_bus(bus));
//! for core in [1, 0] {
//!     let mut read = Read(Some(core as u64 * 4096));
//!     let out = m.exec_source_until(core, &mut read, u64::MAX).unwrap();
//!     assert_eq!(out.parked, Some(50));
//! }
//! // Completing either resolves the batch in (request, core) order:
//! // core 0 is granted at 50, core 1 behind it at 60.
//! m.complete_bus_access(1).unwrap();
//! m.complete_bus_access(0).unwrap();
//! assert_eq!(m.core_stats(0).unwrap().bus_wait_cycles, 50 - 2);
//! assert_eq!(m.core_stats(1).unwrap().bus_wait_cycles, 60 - 2);
//! assert_eq!(m.core_clock(1).unwrap(), 2 + 75 + 58);
//! ```

use crate::{BusConfig, CoreId};

/// The epoch boundary a request arriving at `r` is latched at.
#[inline]
fn boundary_of(r: u64, window: u64) -> u64 {
    debug_assert!(window > 0, "validated window");
    r.div_ceil(window).saturating_mul(window)
}

/// One latched request awaiting its grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Waiting {
    /// Request arrival time.
    request: u64,
    /// Epoch boundary the request is latched at; `None` on a bus
    /// without epochs, where it is granted on its own.
    boundary: Option<u64>,
    /// Grant time once the boundary batch has been resolved.
    grant: Option<u64>,
}

/// A contended shared bus serializing off-chip transfers under a
/// [`crate::BusMode`].
#[derive(Debug, Clone)]
pub(crate) struct Arbiter {
    config: BusConfig,
    /// Time the bus finishes every transfer granted so far.
    next_free: u64,
    /// Per-core latched request; at most one per core — a stalled core
    /// cannot issue another.
    waiting: Vec<Option<Waiting>>,
}

impl Arbiter {
    /// Creates an idle bus serving `num_cores` cores; `None` for a bus
    /// that never contends ([`BusConfig::defers`] is false: zero
    /// occupancy), whose grants are immediate — a miss behind it costs
    /// what it costs without a bus.
    pub(crate) fn new(config: BusConfig, num_cores: usize) -> Option<Self> {
        config.defers().then(|| Arbiter {
            config,
            next_free: 0,
            waiting: vec![None; num_cores],
        })
    }

    /// The bus configuration.
    pub(crate) fn config(&self) -> &BusConfig {
        &self.config
    }

    /// Latches a request from `core` arriving at `request`, returning
    /// the epoch boundary it will be resolved at — `None` on a bus
    /// without epochs (FCFS, or a 1-cycle window). The grant is
    /// computed by [`Arbiter::complete`].
    ///
    /// # Panics
    ///
    /// Panics if the core already has a latched request (a stalled core
    /// cannot issue).
    pub(crate) fn latch(&mut self, core: CoreId, request: u64) -> Option<u64> {
        let boundary = self.config.epoch().map(|w| boundary_of(request, w));
        let slot = &mut self.waiting[core];
        assert!(slot.is_none(), "core {core} already has a latched request");
        *slot = Some(Waiting {
            request,
            boundary,
            grant: None,
        });
        boundary
    }

    /// Grants `core`'s latched request at `max(at, bus_free)`, occupying
    /// the bus for the configured cycles.
    fn grant(&mut self, core: CoreId, at: u64) {
        let mut w = self.waiting[core].expect("granted core is waiting");
        let grant = at.max(self.next_free);
        self.next_free = grant + self.config.occupancy_cycles;
        w.grant = Some(grant);
        self.waiting[core] = Some(w);
    }

    /// Resolves every yet-ungranted request latched at `boundary`: they
    /// are served in `(request-time, core-id)` order, each granted at
    /// `max(boundary, bus_free)`.
    fn resolve(&mut self, boundary: u64) {
        let mut batch: Vec<(u64, CoreId)> = self
            .waiting
            .iter()
            .enumerate()
            .filter_map(|(core, w)| match w {
                Some(w) if w.boundary == Some(boundary) && w.grant.is_none() => {
                    Some((w.request, core))
                }
                _ => None,
            })
            .collect();
        batch.sort_unstable();
        for (_, core) in batch {
            self.grant(core, boundary);
        }
    }

    /// Takes `core`'s `(request, grant)` pair, granting it first if
    /// needed: together with its whole boundary batch on a bus with
    /// epochs, alone at `max(request, bus_free)` on a bus without. The
    /// caller (the scheduling engine via
    /// [`crate::Machine::complete_bus_access`]) must only call this
    /// once no earlier request can still arrive — i.e. when the key the
    /// core parked at ([`crate::BatchOutcome::parked`]) has become the
    /// minimum pending scheduling position.
    ///
    /// A bus without epochs grants **one request per call**, never
    /// every latched request of equal request time: between two cores
    /// parked at the same clock `t`, a third whose entry is also keyed
    /// `t` (resumed, or cut at a dispatch gate) may still issue at `t`,
    /// and FCFS order `(pre-op clock, core-id)` puts it between them.
    ///
    /// Returns `None` when the core has no latched request.
    pub(crate) fn complete(&mut self, core: CoreId) -> Option<(u64, u64)> {
        let w = self.waiting.get(core).copied().flatten()?;
        if w.grant.is_none() {
            match w.boundary {
                Some(boundary) => self.resolve(boundary),
                None => self.grant(core, w.request),
            }
        }
        let w = self.waiting[core].take().expect("request still latched");
        Some((w.request, w.grant.expect("request granted")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Latches and at once completes `core`'s request at `r`, returning
    /// its grant — in-order issue, one request at a time, on a bus
    /// without epochs.
    fn grant_now(b: &mut Arbiter, core: CoreId, r: u64) -> u64 {
        assert_eq!(b.latch(core, r), None, "no epochs");
        b.complete(core).expect("latched").1
    }

    #[test]
    fn fcfs_arbitration() {
        let mut b = Arbiter::new(BusConfig::fcfs(5), 4).expect("contended");
        assert_eq!(b.latch(0, 0), None, "FCFS has no epochs");
        assert_eq!(b.complete(0), Some((0, 0)));
        assert_eq!(grant_now(&mut b, 1, 1), 5);
        assert_eq!(grant_now(&mut b, 2, 2), 10);
    }

    #[test]
    fn idle_bus_grants_immediately() {
        let mut b = Arbiter::new(BusConfig::fcfs(5), 4).expect("contended");
        grant_now(&mut b, 0, 0);
        assert_eq!(grant_now(&mut b, 1, 100), 100);
        // That transfer keeps the bus until 105.
        assert_eq!(grant_now(&mut b, 2, 101), 105);
    }

    #[test]
    fn boundary_snaps_up_to_the_next_multiple() {
        assert_eq!(boundary_of(0, 8), 0);
        assert_eq!(boundary_of(1, 8), 8);
        assert_eq!(boundary_of(8, 8), 8);
        assert_eq!(boundary_of(9, 8), 16);
        // Window 1 is the identity on integer clocks: windowed == FCFS.
        for r in [0, 1, 7, 100] {
            assert_eq!(boundary_of(r, 1), r);
        }
    }

    #[test]
    fn windowed_acquire_with_window_one_matches_fcfs() {
        let mut fcfs = Arbiter::new(BusConfig::fcfs(7), 2).expect("contended");
        let mut win = Arbiter::new(BusConfig::windowed(7, 1), 2).expect("contended");
        for (i, now) in [0u64, 0, 3, 3, 25, 26, 100].into_iter().enumerate() {
            let core = i % 2;
            assert_eq!(
                grant_now(&mut fcfs, core, now),
                grant_now(&mut win, core, now),
                "at {now}"
            );
        }
    }

    #[test]
    fn latch_and_complete_resolve_a_boundary_batch_in_request_order() {
        let mut b = Arbiter::new(BusConfig::windowed(10, 50), 3).expect("contended");
        // Three requests in epoch (0, 50]; latched out of arrival order.
        assert_eq!(b.latch(2, 30), Some(50));
        assert_eq!(b.latch(0, 41), Some(50));
        assert_eq!(b.latch(1, 30), Some(50));
        // Completion in any core order: grants follow (request, core).
        assert_eq!(b.complete(0), Some((41, 70)));
        assert_eq!(b.complete(1), Some((30, 50)));
        assert_eq!(b.complete(2), Some((30, 60)));
        assert_eq!(b.complete(0), None, "request consumed");
    }

    #[test]
    fn without_epochs_complete_grants_one_request_per_call() {
        for config in [BusConfig::fcfs(10), BusConfig::windowed(10, 1)] {
            let mut b = Arbiter::new(config, 3).expect("contended");
            assert_eq!(b.latch(0, 30), None);
            assert_eq!(b.latch(2, 30), None);
            // Core 0 is granted alone; core 2's equal request time does
            // not pull it into the grant...
            assert_eq!(b.complete(0), Some((30, 30)));
            // ...so a core that issues in between is served in between.
            assert_eq!(b.latch(1, 30), None);
            assert_eq!(b.complete(1), Some((30, 40)));
            assert_eq!(b.complete(2), Some((30, 50)));
        }
    }

    #[test]
    fn deferred_batches_match_in_order_immediate_acquires() {
        // Latching a boundary's requests and completing them equals the
        // in-order recurrence `grant = max(B(r), bus_free)`.
        let reqs = [(0usize, 3u64), (1, 3), (0, 22), (1, 57), (0, 58)];
        let mut bus_free = 0;
        let grants_imm: Vec<u64> = reqs
            .iter()
            .map(|&(_, r)| {
                let grant = boundary_of(r, 16).max(bus_free);
                bus_free = grant + 9;
                grant
            })
            .collect();
        let mut def = Arbiter::new(BusConfig::windowed(9, 16), 2).expect("contended");
        let mut grants_def = Vec::new();
        // Latch + complete epoch by epoch (requests above are sorted).
        let mut i = 0;
        while i < reqs.len() {
            let b = boundary_of(reqs[i].1, 16);
            let mut batch = Vec::new();
            while i < reqs.len() && boundary_of(reqs[i].1, 16) == b {
                def.latch(reqs[i].0, reqs[i].1);
                batch.push(reqs[i].0);
                i += 1;
            }
            for core in batch {
                grants_def.push(def.complete(core).expect("latched").1);
            }
        }
        assert_eq!(grants_imm, grants_def);
    }

    #[test]
    fn zero_occupancy_never_waits() {
        // A zero-cost transfer never contends: no arbiter, no parking.
        assert!(Arbiter::new(BusConfig::windowed(0, 64), 2).is_none());
        assert!(Arbiter::new(BusConfig::fcfs(0), 2).is_none());
        assert!(Arbiter::new(BusConfig::fcfs(1), 2).is_some());
    }
}
