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
//! either mode: every grant is immediate and waits are zero, equivalent
//! to no bus at all.
//!
//! The arbiter offers both an *immediate* interface
//! ([`Arbiter::acquire`]) for drivers that issue requests in global
//! time order (one op at a time, smallest clock first — the reference
//! semantics the test oracle runs FCFS through), and a *deferred*
//! interface ([`Arbiter::latch`] / [`Arbiter::complete`]) for the
//! batched engine, which parks a missing core and takes its grant once
//! no earlier request can still arrive: the whole boundary batch on a
//! bus with epochs, that one request on a bus without.
//!
//! ```
//! use lams_mpsoc::{Arbiter, BusConfig};
//!
//! let mut bus = Arbiter::new(BusConfig::fcfs(10), 2);
//! assert_eq!(bus.acquire(100), 100); // idle bus: immediate grant
//! assert_eq!(bus.acquire(100), 110); // second request waits
//! assert_eq!(bus.acquire(130), 130); // after the bus drains
//!
//! // Windowed: grants snap to the next 50-cycle boundary.
//! let mut bus = Arbiter::new(BusConfig::windowed(10, 50), 2);
//! assert_eq!(bus.acquire(101), 150);
//! assert_eq!(bus.acquire(102), 160); // same epoch: queued behind
//! assert_eq!(bus.acquire(150), 170); // boundary request: after backlog
//! ```

use crate::{BusConfig, BusMode, CoreId};

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

/// A shared bus serializing off-chip transfers under a [`BusMode`].
#[derive(Debug, Clone)]
pub struct Arbiter {
    config: BusConfig,
    /// Time the bus finishes every transfer granted so far.
    next_free: u64,
    transfers: u64,
    total_wait: u64,
    /// Per-core latched request (deferred interface); at most one per
    /// core — a stalled core cannot issue another.
    waiting: Vec<Option<Waiting>>,
}

impl Arbiter {
    /// Creates an idle bus serving `num_cores` cores.
    pub fn new(config: BusConfig, num_cores: usize) -> Self {
        Arbiter {
            config,
            next_free: 0,
            transfers: 0,
            total_wait: 0,
            waiting: vec![None; num_cores],
        }
    }

    /// The bus configuration.
    pub fn config(&self) -> &BusConfig {
        &self.config
    }

    /// Whether a miss must park and wait for the engine to grant it
    /// instead of being granted inline ([`BusConfig::defers`]): any
    /// non-zero occupancy. A zero-cost transfer never contends.
    #[inline]
    pub fn defers(&self) -> bool {
        self.config.defers()
    }

    /// Requests the bus at time `now` and returns the grant time
    /// (`>= now`), occupying the bus for the configured cycles.
    ///
    /// In FCFS mode the grant is `max(now, bus_free)`. In windowed mode
    /// the grant is `max(B(now), bus_free)` with `B` the next epoch
    /// boundary — **exact** windowed semantics when the caller issues
    /// requests in global `(request-time, core-id)` order (then the
    /// grant recurrence equals per-boundary batch resolution), which is
    /// how [`crate::Machine::exec_op`] drives it. A zero-occupancy bus
    /// grants at `now` unconditionally.
    pub fn acquire(&mut self, now: u64) -> u64 {
        if self.config.occupancy_cycles == 0 {
            // A zero-cost transfer never contends: grant immediately and
            // leave `next_free` untouched, so the result is independent
            // of the order requests are issued in (the engine batches
            // freely over a zero-occupancy bus in either mode).
            self.transfers += 1;
            return now;
        }
        let at = match self.config.mode {
            BusMode::Fcfs => now,
            BusMode::Windowed { window_cycles } => boundary_of(now, window_cycles),
        };
        self.serve(now, at)
    }

    /// Serves a request issued at `request` no earlier than `at`: the
    /// grant is `max(at, bus_free)` and occupies the bus for the
    /// configured cycles.
    fn serve(&mut self, request: u64, at: u64) -> u64 {
        let grant = at.max(self.next_free);
        self.next_free = grant + self.config.occupancy_cycles;
        self.transfers += 1;
        self.total_wait += grant - request;
        grant
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
    pub fn latch(&mut self, core: CoreId, request: u64) -> Option<u64> {
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

    /// Grants `core`'s latched request, no earlier than `at`.
    fn grant(&mut self, core: CoreId, at: u64) {
        let mut w = self.waiting[core].expect("granted core is waiting");
        w.grant = Some(self.serve(w.request, at));
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
    pub fn complete(&mut self, core: CoreId) -> Option<(u64, u64)> {
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

    /// Number of transfers granted so far.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Total cycles requests spent waiting for grants.
    pub fn total_wait(&self) -> u64 {
        self.total_wait
    }

    /// Time at which the bus next becomes free.
    pub fn next_free(&self) -> u64 {
        self.next_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcfs_arbitration() {
        let mut b = Arbiter::new(BusConfig::fcfs(5), 4);
        assert_eq!(b.acquire(0), 0);
        assert_eq!(b.acquire(1), 5);
        assert_eq!(b.acquire(2), 10);
        assert_eq!(b.transfers(), 3);
        assert_eq!(b.total_wait(), (5 - 1) + (10 - 2));
        assert!(b.defers(), "a contended bus parks in either mode");
    }

    #[test]
    fn idle_bus_grants_immediately() {
        let mut b = Arbiter::new(BusConfig::fcfs(5), 4);
        b.acquire(0);
        assert_eq!(b.acquire(100), 100);
        assert_eq!(b.next_free(), 105);
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
        let mut fcfs = Arbiter::new(BusConfig::fcfs(7), 2);
        let mut win = Arbiter::new(BusConfig::windowed(7, 1), 2);
        for now in [0u64, 0, 3, 3, 25, 26, 100] {
            assert_eq!(fcfs.acquire(now), win.acquire(now), "at {now}");
        }
        assert_eq!(fcfs.total_wait(), win.total_wait());
    }

    #[test]
    fn latch_and_complete_resolve_a_boundary_batch_in_request_order() {
        let mut b = Arbiter::new(BusConfig::windowed(10, 50), 3);
        assert!(b.defers());
        // Three requests in epoch (0, 50]; latched out of arrival order.
        assert_eq!(b.latch(2, 30), Some(50));
        assert_eq!(b.latch(0, 41), Some(50));
        assert_eq!(b.latch(1, 30), Some(50));
        // Completion in any core order: grants follow (request, core).
        assert_eq!(b.complete(0), Some((41, 70)));
        assert_eq!(b.complete(1), Some((30, 50)));
        assert_eq!(b.complete(2), Some((30, 60)));
        assert_eq!(b.transfers(), 3);
        assert_eq!(b.total_wait(), (50 - 30) + (60 - 30) + (70 - 41));
        assert_eq!(b.complete(0), None, "request consumed");
    }

    #[test]
    fn without_epochs_complete_grants_one_request_per_call() {
        for config in [BusConfig::fcfs(10), BusConfig::windowed(10, 1)] {
            let mut b = Arbiter::new(config, 3);
            assert_eq!(b.latch(0, 30), None);
            assert_eq!(b.latch(2, 30), None);
            // Core 0 is granted alone; core 2's equal request time does
            // not pull it into the grant...
            assert_eq!(b.complete(0), Some((30, 30)));
            assert_eq!(b.transfers(), 1);
            // ...so a core that issues in between is served in between.
            assert_eq!(b.latch(1, 30), None);
            assert_eq!(b.complete(1), Some((30, 40)));
            assert_eq!(b.complete(2), Some((30, 50)));
            assert_eq!(b.total_wait(), 10 + 20);
        }
    }

    #[test]
    fn deferred_batches_match_in_order_immediate_acquires() {
        // Driving the immediate interface in global time order equals
        // latch/complete batch resolution.
        let reqs = [(0usize, 3u64), (1, 3), (0, 22), (1, 57), (0, 58)];
        let mut imm = Arbiter::new(BusConfig::windowed(9, 16), 2);
        let grants_imm: Vec<u64> = reqs.iter().map(|&(_, r)| imm.acquire(r)).collect();
        let mut def = Arbiter::new(BusConfig::windowed(9, 16), 2);
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
        assert_eq!(imm.total_wait(), def.total_wait());
    }

    #[test]
    fn zero_occupancy_never_waits() {
        let mut b = Arbiter::new(BusConfig::windowed(0, 64), 2);
        assert!(!b.defers(), "zero-cost transfers never park");
        assert_eq!(b.acquire(13), 13);
        assert_eq!(b.acquire(13), 13);
        assert_eq!(b.total_wait(), 0);
        let mut b = Arbiter::new(BusConfig::fcfs(0), 2);
        assert_eq!(b.acquire(5), 5);
        assert_eq!(b.acquire(5), 5);
        assert_eq!(b.total_wait(), 0);
    }
}
