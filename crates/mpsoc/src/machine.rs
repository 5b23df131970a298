//! The MPSoC machine: N cores with private caches and per-core clocks.

use std::fmt;

use crate::bus::Arbiter;
use crate::cache::CacheMark;
use crate::{
    Cache, Classifier, CoreStats, Error, MachineConfig, MachineStats, Plain, Result, Segment,
    TraceSource,
};

/// Index of a processor core.
pub type CoreId = usize;

#[derive(Debug, Clone)]
struct Core<C: Classifier> {
    cache: Cache<C>,
    clock: u64,
    /// Running counters *except* `cache`, which is snapshotted lazily
    /// from the core's cache by [`Machine::core_stats`] — copying the
    /// cache counters on every op was a measurable hot-path cost.
    stats: CoreStats,
}

impl<C: Classifier> Core<C> {
    /// Advances the clock by `cost` busy cycles over `ops` completed
    /// ops; `None` is a cost that overflowed before it got here.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ClockOverflow`] for `core`, charging nothing,
    /// when the clock would pass `u64::MAX`.
    #[inline]
    fn charge(&mut self, core: CoreId, cost: Option<u64>, ops: u64) -> Result<()> {
        let clock = cost
            .and_then(|cost| self.clock.checked_add(cost))
            .ok_or(Error::ClockOverflow { core })?;
        self.stats.busy_cycles += clock - self.clock;
        self.stats.ops += ops;
        self.clock = clock;
        Ok(())
    }
}

/// Result of a batched [`Machine::exec_source_until`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Trace operations *completed* in this batch (a parked access — see
    /// [`BatchOutcome::parked`] — completes later and is not counted).
    pub ops: u64,
    /// Whether the trace iterator was exhausted (the process finished).
    pub exhausted: bool,
    /// The scheduling position at which a quantum preemption fires if
    /// the batch's final op crossed the quantum. It is that op's
    /// *pre-op* clock (the clock at entry when no op ran): the seed
    /// engine fired a preemption right after the crossing op, whose
    /// scheduling position is its pre-op clock. The one exception is an
    /// access that stalled for an epoch grant, which
    /// [`Machine::complete_bus_access`] keys at its completion clock.
    pub preempt_key: u64,
    /// `Some(key)` when the batch stopped at a miss on a contended bus
    /// ([`crate::BusConfig::defers`], either [`crate::BusMode`]): the
    /// core is stalled (its clock still at the access's pre-op clock,
    /// the cache already probed) until
    /// [`Machine::complete_bus_access`] applies the granted cost. The
    /// value is the core's next scheduling position, the key at which
    /// no earlier request can arrive any more: the epoch boundary the
    /// request resolves at when the window is two cycles or more, the
    /// access's own pre-op clock under FCFS and a 1-cycle window.
    pub parked: Option<u64>,
}

/// An embedded MPSoC: cores with private L1 caches sharing off-chip
/// memory (optionally through a contended bus).
///
/// The machine itself is *passive*: a scheduling engine decides which
/// process trace executes on which core and feeds it compiled trace
/// programs via [`Machine::exec_source_until`]. Each core has its own
/// clock; executing an op on a core advances only that core's clock, and
/// a miss on a contended bus parks the core until the engine has brought
/// every other core up to its key ([`Machine::complete_bus_access`]).
///
/// Caches persist across process switches on a core — that persistence is
/// precisely the data reuse the paper's locality-aware scheduler exploits.
///
/// `C` is the caches' [`Classifier`]: [`Plain`] by default, or
/// [`crate::Explain`] for the cold/capacity/conflict split. Both simulate
/// alike; only [`CacheStats`](crate::CacheStats)' split differs.
#[derive(Debug, Clone)]
pub struct Machine<C: Classifier = Plain> {
    config: MachineConfig,
    cores: Vec<Core<C>>,
    /// The contended bus, when one is configured (a zero-occupancy bus
    /// never contends and gets no arbiter).
    bus: Option<Arbiter>,
    /// Scratch of [`Machine::exec_source_until`]: each lane's address
    /// and way slot in the round it probed last.
    probed: Vec<(u64, usize)>,
}

/// Outcome of executing one memory access on a core.
enum Access {
    /// The access completed; the core's clock and stats are updated.
    Done {
        /// The way slot that holds the line now.
        slot: usize,
    },
    /// A miss latched a request on a contended bus: the cache was
    /// probed and updated, but the clock/stats cost is pending until
    /// [`Machine::complete_bus_access`].
    Parked {
        /// The core's scheduling key while stalled
        /// ([`BatchOutcome::parked`]).
        key: u64,
    },
}

impl Machine<Plain> {
    /// Creates a [`Plain`] machine with cold caches and all clocks at
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`Machine::try_new`] for a fallible variant.
    pub fn new(config: MachineConfig) -> Self {
        Machine::try_new(config).expect("invalid machine configuration")
    }

    /// Fallible constructor of a [`Plain`] machine.
    ///
    /// # Errors
    ///
    /// As for [`Machine::try_build`].
    pub fn try_new(config: MachineConfig) -> Result<Self> {
        Machine::try_build(config)
    }
}

impl<C: Classifier> Machine<C> {
    /// Fallible constructor of a machine of either [`Classifier`]:
    /// `Machine::<Explain>::try_build(config)`. It does not read
    /// [`MachineConfig::explain`]; the caller picks `C` by it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the configuration fails
    /// validation.
    pub fn try_build(config: MachineConfig) -> Result<Self> {
        config.validate()?;
        let cores = (0..config.num_cores)
            .map(|_| Core {
                cache: Cache::build(config.cache),
                clock: 0,
                stats: CoreStats::default(),
            })
            .collect();
        Ok(Machine {
            config,
            cores,
            bus: config.bus.and_then(|b| Arbiter::new(b, config.num_cores)),
            probed: Vec::new(),
        })
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    fn core(&self, core: CoreId) -> Result<&Core<C>> {
        self.cores.get(core).ok_or(Error::NoSuchCore {
            core,
            num_cores: self.cores.len(),
        })
    }

    fn core_mut(&mut self, core: CoreId) -> Result<&mut Core<C>> {
        let n = self.cores.len();
        self.cores
            .get_mut(core)
            .ok_or(Error::NoSuchCore { core, num_cores: n })
    }

    /// Executes one memory access on a core. A miss on a contended bus
    /// latches a request and returns [`Access::Parked`] *without*
    /// advancing the clock or stats (the probe still updates the cache —
    /// residency is timing-independent).
    #[inline]
    fn exec_access(
        core: CoreId,
        c: &mut Core<C>,
        bus: &mut Option<Arbiter>,
        config: &MachineConfig,
        addr: u64,
    ) -> Result<Access> {
        let (outcome, slot) = c.cache.access_slot(addr);
        let cost = if outcome.is_hit() {
            Some(config.hit_latency)
        } else if let Some(bus) = bus {
            let request_at = c
                .clock
                .checked_add(config.hit_latency)
                .ok_or(Error::ClockOverflow { core })?;
            return Ok(Access::Parked {
                key: bus.latch(core, request_at).unwrap_or(c.clock),
            });
        } else {
            config.hit_latency.checked_add(config.miss_latency)
        };
        c.charge(core, cost, 1)?;
        Ok(Access::Done { slot })
    }

    /// Completes a parked access on `core` (see
    /// [`BatchOutcome::parked`]): takes its grant — resolving the whole
    /// epoch batch on a bus with epochs, this one request on a bus
    /// without — applies the miss cost `hit_latency + miss_latency +
    /// (grant - request)` to the core's clock and statistics, and
    /// returns the completed one-op outcome.
    ///
    /// Its [`BatchOutcome::preempt_key`] is where the preemption fires
    /// when the access crossed the quantum. Without epochs that is the
    /// access's pre-op clock, like any other op's (and it is the key
    /// the core was parked at, so the preemption fires at once). After
    /// an epoch stall it is the *completion* clock: the pre-op clock
    /// lies before the boundary the schedule has already reached, and
    /// the stall cannot be interrupted.
    ///
    /// The caller must not invoke this before the key the access parked
    /// at has become the minimum pending scheduling position across
    /// cores — otherwise a not-yet-issued earlier request could be
    /// granted late. The engine guarantees this by keying the parked
    /// core at that key in the busy heap.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchCore`] for an out-of-range core,
    /// [`Error::NoParkedAccess`] when the core has nothing parked and
    /// [`Error::ClockOverflow`] when the granted cost would carry the
    /// core's clock past `u64::MAX`.
    pub fn complete_bus_access(&mut self, core: CoreId) -> Result<BatchOutcome> {
        let n = self.cores.len();
        let c = self
            .cores
            .get_mut(core)
            .ok_or(Error::NoSuchCore { core, num_cores: n })?;
        let bus = self.bus.as_mut().ok_or(Error::NoParkedAccess { core })?;
        let (request, grant) = bus.complete(core).ok_or(Error::NoParkedAccess { core })?;
        let wait = grant - request;
        let cost = (self.config.hit_latency)
            .checked_add(self.config.miss_latency)
            .and_then(|miss| miss.checked_add(wait));
        let start = c.clock;
        c.charge(core, cost, 1)?;
        c.stats.bus_wait_cycles += wait;
        Ok(BatchOutcome {
            ops: 1,
            exhausted: false,
            preempt_key: if bus.config().epoch().is_some() {
                c.clock
            } else {
                start
            },
            parked: None,
        })
    }

    /// Executes trace ops from a batched [`TraceSource`] on `core` until
    /// the core's clock reaches `horizon` or the source is exhausted.
    /// **At least one op is executed** when the source is non-empty,
    /// even if the clock is already at or past `horizon` — the
    /// one-op-per-selection semantics when two core clocks tie.
    ///
    /// The result equals executing the decoded op stream one op at a
    /// time: the same statistics, clock, [`BatchOutcome`], resident
    /// lines and per-set LRU order (which slot of a thrashing set holds
    /// which line may differ); `crates/mpsoc/tests/prop.rs` holds it to
    /// the naive per-op machine of its test support. Where a per-op
    /// executor probes the cache for every access, this one exploits two
    /// exact structural facts. The first: within [`Segment::Rounds`],
    /// after one fully probed round that left every lane's line
    /// resident (every lane hit, or the round's misses evicted none of
    /// its lines), residency cannot change (hits never evict) until some
    /// lane crosses a line boundary — so whole rounds, compute ops
    /// included, collapse to one bulk stamp update plus clock
    /// arithmetic. The probed round keeps, per lane, the way slot it
    /// hit or filled; a line never moves between ways, so "every
    /// lane's line survived" is one compare per lane (does that way
    /// still hold the line?), and the window restamps those ways
    /// without scanning a set again. A [`Segment::Access`] (the rest of
    /// a round a preemption split) is one probe.
    ///
    /// Horizon checks stay per-op-exact: every bulk op has a fixed,
    /// known cost (guaranteed hit or constant compute), so the op that
    /// first reaches the horizon is located arithmetically — Burst
    /// windows are cut at exactly that op, while Rounds windows stop
    /// strictly before the horizon and hand over to the per-op probe.
    /// An op with *arbitration-dependent* cost (a miss in bus mode) is
    /// never bulked — any future bulk extension to bus-visible ops must
    /// keep that property or bit-identity breaks. On a
    /// contended bus, in either mode, a probed miss latches its request
    /// and **parks** the batch ([`BatchOutcome::parked`]) — the clock
    /// stays at the access's pre-op value until
    /// [`Machine::complete_bus_access`] applies the granted cost; the
    /// bulk-collapsed spans are all guaranteed hits, so everything
    /// between two misses still reduces to arithmetic.
    ///
    /// The second fact is the LRU fixed point of a repeated pass (crate
    /// docs, "Fast-path invariants"). At each pass boundary the source
    /// reports ([`TraceSource::pass`]): the first boundary of the batch
    /// skips nothing; the second is the fixed point, where the core is
    /// marked; at the third the core has run one steady pass, and skips
    /// the `k` passes left that end strictly before `horizon` by adding
    /// `k` times that pass's deltas — to the clock, busy cycles and ops,
    /// the cache counters, the access clock, the stamps of the ways the
    /// pass touched and, on an explaining machine whose pass missed, the
    /// shadow's sync clock. The
    /// preemption key moves with the clock. The same loop serves a
    /// machine with a bus: there a miss parks the batch, so a pass
    /// measured inside one batch has no miss, costs no arbitration, and
    /// its repeats are as exact as on a bus-free machine.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchCore`] for an out-of-range core and
    /// [`Error::ClockOverflow`] when an op's cost would carry the
    /// core's clock past `u64::MAX`.
    pub fn exec_source_until<S: TraceSource>(
        &mut self,
        core: CoreId,
        src: &mut S,
        horizon: u64,
    ) -> Result<BatchOutcome> {
        let n = self.cores.len();
        let c = self
            .cores
            .get_mut(core)
            .ok_or(Error::NoSuchCore { core, num_cores: n })?;
        let hit_lat = self.config.hit_latency;
        let shift = self.config.cache.line_bytes.trailing_zeros();
        let mut executed = 0u64;
        let mut last_op_start = c.clock;
        let done = |executed, last_op_start, exhausted| {
            Ok(BatchOutcome {
                ops: executed,
                exhausted,
                preempt_key: last_op_start,
                parked: None,
            })
        };
        // A probed access parked on a contended bus: the in-flight op is
        // consumed from the source (its cache probe already happened)
        // and completes via `complete_bus_access`.
        let parked = |executed, last_op_start, key| {
            Ok(BatchOutcome {
                ops: executed,
                exhausted: false,
                preempt_key: last_op_start,
                parked: Some(key),
            })
        };

        let probed = &mut self.probed;
        let mut meter = PassMeter::default();
        loop {
            if let Some((_, left)) = src.pass() {
                meter.boundary(
                    core,
                    c,
                    src,
                    left,
                    horizon,
                    &mut executed,
                    &mut last_op_start,
                )?;
            }
            let Some(seg) = src.peek_segment() else {
                return done(executed, last_op_start, true);
            };
            match seg {
                Segment::Burst { cycles, repeat } => {
                    debug_assert!(repeat > 0, "empty burst segment");
                    // Ops until the per-op loop would stop: the first op
                    // whose post-clock reaches the horizon (zero-cycle
                    // computes never advance the clock, so they all
                    // execute). The batch's first op runs regardless.
                    let t = if c.clock >= horizon {
                        debug_assert_eq!(executed, 0, "missed a horizon stop");
                        1
                    } else if cycles == 0 {
                        repeat
                    } else {
                        repeat.min((horizon - c.clock).div_ceil(cycles))
                    };
                    c.charge(core, t.checked_mul(cycles), t)?;
                    last_op_start = c.clock - cycles;
                    executed += t;
                    src.advance(t);
                    if c.clock >= horizon {
                        return done(executed, last_op_start, false);
                    }
                }
                Segment::Access { addr, write: _ } => {
                    last_op_start = c.clock;
                    let access = Self::exec_access(core, c, &mut self.bus, &self.config, addr)?;
                    src.advance(1);
                    if let Access::Parked { key } = access {
                        return parked(executed, last_op_start, key);
                    }
                    executed += 1;
                    if c.clock >= horizon {
                        return done(executed, last_op_start, false);
                    }
                }
                Segment::Rounds { rounds, cycles } => {
                    let lanes = src.lanes();
                    let m = lanes.len() as u64;
                    debug_assert!(m > 0 && rounds > 0, "degenerate rounds segment");
                    // Saturating: a round that costs more than `u64::MAX`
                    // never fits a window below the horizon.
                    let round_cost = m.saturating_mul(hit_lat).saturating_add(cycles);
                    let mut consumed = 0u64;
                    let mut r = 0u64;
                    'rounds: while r < rounds {
                        // Probe one full round op-by-op, keeping each
                        // lane's address and the way that holds its line.
                        probed.clear();
                        for lane in lanes {
                            last_op_start = c.clock;
                            let addr = lane.addr_at(r);
                            let slot = match Self::exec_access(
                                core,
                                c,
                                &mut self.bus,
                                &self.config,
                                addr,
                            )? {
                                Access::Done { slot } => slot,
                                Access::Parked { key } => {
                                    src.advance(consumed + 1);
                                    return parked(executed, last_op_start, key);
                                }
                            };
                            probed.push((addr, slot));
                            executed += 1;
                            consumed += 1;
                            if c.clock >= horizon {
                                src.advance(consumed);
                                return done(executed, last_op_start, false);
                            }
                        }
                        last_op_start = c.clock;
                        c.charge(core, Some(cycles), 1)?;
                        executed += 1;
                        consumed += 1;
                        r += 1;
                        if c.clock >= horizon {
                            src.advance(consumed);
                            return done(executed, last_op_start, false);
                        }
                        // The round opens a window when every lane's line
                        // survived it: when the way the lane hit or
                        // filled still holds it (a line never moves
                        // between ways; a later lane's miss may have
                        // evicted it).
                        if r == rounds
                            || !probed
                                .iter()
                                .all(|&(addr, slot)| c.cache.holds(slot, addr >> shift))
                        {
                            continue 'rounds;
                        }
                        // Hit-stable window: every lane re-reads the
                        // line it touched in the probed round (r - 1),
                        // still in the same way. Hits never evict, so
                        // the ways are stable until the first lane
                        // line-boundary crossing. A lane hit before the
                        // round's miss is restamped in bulk as it would
                        // be per op, which lists it dirty for the shadow.
                        let mut w = rounds - r;
                        for (lane, &(addr, _)) in lanes.iter().zip(probed.iter()) {
                            w = w.min(same_line_ops(addr, lane.stride, w, shift));
                            if w == 0 {
                                continue 'rounds;
                            }
                        }
                        // Whole rounds ending strictly below the horizon
                        // (round_cost >= hit_lat >= 1; clock < horizon);
                        // the division only when the window reaches it.
                        let room = horizon - 1 - c.clock;
                        if w.checked_mul(round_cost).is_none_or(|cost| cost > room) {
                            w = room / round_cost;
                            if w == 0 {
                                continue 'rounds;
                            }
                        }
                        c.cache.bulk_hit_rounds(
                            probed.iter().map(|&(addr, slot)| (slot, addr >> shift)),
                            w,
                        );
                        c.charge(core, Some(w * round_cost), w * (m + 1))?;
                        // The window's final op is its last compute.
                        last_op_start = c.clock - cycles;
                        executed += w * (m + 1);
                        consumed += w * (m + 1);
                        r += w;
                    }
                    src.advance(consumed);
                }
            }
        }
    }

    /// The core's current local clock.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchCore`] for an out-of-range core.
    pub fn core_clock(&self, core: CoreId) -> Result<u64> {
        Ok(self.core(core)?.clock)
    }

    /// Advances a core's clock to at least `to` (idle waiting, e.g. for a
    /// dependence to resolve). Does nothing when the clock is already
    /// past `to`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchCore`] for an out-of-range core.
    pub fn wait_until(&mut self, core: CoreId, to: u64) -> Result<()> {
        let c = self.core_mut(core)?;
        c.clock = c.clock.max(to);
        Ok(())
    }

    /// The core's statistics, with the cache counters snapshotted at
    /// call time (they are not accumulated per-op on the hot path).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchCore`] for an out-of-range core.
    pub fn core_stats(&self, core: CoreId) -> Result<CoreStats> {
        let c = self.core(core)?;
        let mut stats = c.stats;
        stats.cache = *c.cache.stats();
        Ok(stats)
    }

    /// Aggregated machine statistics.
    pub fn stats(&self) -> MachineStats {
        let mut s = MachineStats::default();
        for c in &self.cores {
            s.cache += *c.cache.stats();
            s.total_busy_cycles += c.stats.busy_cycles;
            s.total_bus_wait_cycles += c.stats.bus_wait_cycles;
            s.makespan_cycles = s.makespan_cycles.max(c.clock);
        }
        s
    }

    /// The maximum core clock — the completion time so far.
    pub fn makespan(&self) -> u64 {
        self.cores.iter().map(|c| c.clock).max().unwrap_or(0)
    }
}

/// The pass boundaries one batch has crossed, and the core at the
/// latest one after the first.
#[derive(Default)]
struct PassMeter {
    seen: u32,
    clock: u64,
    executed: u64,
    cache: CacheMark,
}

impl PassMeter {
    /// At a pass boundary with `left` passes to go: from the third
    /// boundary on, the pass since the last mark started at an LRU
    /// fixed point, so the next `k` passes repeat it exactly — `k` is
    /// every pass left that ends strictly before `horizon` — and are
    /// applied at once. From the second boundary on, marks the core.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn boundary<C: Classifier, S: TraceSource>(
        &mut self,
        core: CoreId,
        c: &mut Core<C>,
        src: &mut S,
        left: u64,
        horizon: u64,
        executed: &mut u64,
        last_op_start: &mut u64,
    ) -> Result<()> {
        self.seen += 1;
        if self.seen >= 3 {
            let cycles = c.clock - self.clock;
            let ops = *executed - self.executed;
            debug_assert_eq!(src.pass().map(|(pass_ops, _)| pass_ops), Some(ops));
            // The clock is below the horizon here: every op that
            // reaches it ends the batch.
            let k = match cycles {
                0 => left,
                d => left.min((horizon - 1 - c.clock) / d),
            };
            if k > 0 {
                c.charge(core, k.checked_mul(cycles), k * ops)?;
                c.cache.repeat_pass(&self.cache, k);
                src.skip_passes(k);
                *executed += k * ops;
                *last_op_start += k * cycles;
            }
        }
        if self.seen >= 2 {
            self.clock = c.clock;
            self.executed = *executed;
            self.cache = c.cache.mark();
        }
        Ok(())
    }
}

/// How many of the `remaining` upcoming strided ops (`addr + stride`,
/// `addr + 2*stride`, …) still fall in the cache line of `addr`.
#[inline]
fn same_line_ops(addr: u64, stride: i64, remaining: u64, line_shift: u32) -> u64 {
    if stride == 0 {
        return remaining;
    }
    // Bytes left in the line in the stride's direction.
    let mask = (1u64 << line_shift) - 1;
    let room = if stride > 0 {
        !addr & mask
    } else {
        addr & mask
    };
    let step = stride.unsigned_abs();
    let ops = if step.is_power_of_two() {
        room >> step.trailing_zeros()
    } else {
        room / step
    };
    ops.min(remaining)
}

impl<C: Classifier> fmt::Display for Machine<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Machine[{}] @ {}", self.config, self.makespan())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use crate::{BusConfig, SegmentLane, TraceOp};

    /// Scalar ops as a [`TraceSource`], one single-op segment each.
    struct Ops(VecDeque<TraceOp>);

    fn ops(list: &[TraceOp]) -> Ops {
        Ops(list.iter().copied().collect())
    }

    impl TraceSource for Ops {
        fn peek_segment(&mut self) -> Option<Segment> {
            Some(match *self.0.front()? {
                TraceOp::Compute(cycles) => Segment::Burst { cycles, repeat: 1 },
                TraceOp::Access { addr, write } => Segment::Access { addr, write },
            })
        }

        fn lanes(&self) -> &[SegmentLane] {
            &[]
        }

        fn advance(&mut self, ops: u64) {
            self.0.drain(..ops as usize);
        }
    }

    /// Executes one op on `core` as a caller issuing one op at a time
    /// would — a parked miss is granted at once — and returns its cost.
    fn exec(m: &mut Machine, core: CoreId, op: TraceOp) -> u64 {
        let before = m.core_clock(core).unwrap();
        let out = m.exec_source_until(core, &mut ops(&[op]), 0).unwrap();
        if out.parked.is_some() {
            m.complete_bus_access(core).unwrap();
        }
        m.core_clock(core).unwrap() - before
    }

    fn machine() -> Machine {
        Machine::new(MachineConfig::paper_default())
    }

    #[test]
    fn compute_costs_its_cycles() {
        let mut m = machine();
        assert_eq!(exec(&mut m, 0, TraceOp::compute(10)), 10);
        assert_eq!(m.core_clock(0).unwrap(), 10);
        assert_eq!(m.core_clock(1).unwrap(), 0);
    }

    #[test]
    fn hit_and_miss_latencies() {
        let mut m = machine();
        // Cold miss: 2 + 75.
        assert_eq!(exec(&mut m, 0, TraceOp::read(0)), 77);
        // Hit on same line: 2.
        assert_eq!(exec(&mut m, 0, TraceOp::read(4)), 2);
        assert_eq!(m.core_clock(0).unwrap(), 79);
        let s = m.core_stats(0).unwrap();
        assert_eq!(s.cache.hits, 1);
        assert_eq!(s.cache.misses, 1);
        assert_eq!(s.ops, 2);
    }

    #[test]
    fn caches_are_private() {
        let mut m = machine();
        exec(&mut m, 0, TraceOp::read(0));
        // Same address on another core misses again: private caches.
        assert_eq!(exec(&mut m, 1, TraceOp::read(0)), 77);
    }

    #[test]
    fn cache_persists_across_virtual_process_switch() {
        let mut m = machine();
        // "Process 1" loads a line; "process 2" on the same core reuses it.
        exec(&mut m, 0, TraceOp::read(128));
        assert_eq!(exec(&mut m, 0, TraceOp::read(128)), 2);
    }

    #[test]
    fn wait_until_moves_clock_monotonically() {
        let mut m = machine();
        m.wait_until(0, 100).unwrap();
        assert_eq!(m.core_clock(0).unwrap(), 100);
        m.wait_until(0, 50).unwrap();
        assert_eq!(m.core_clock(0).unwrap(), 100);
    }

    #[test]
    fn out_of_range_core_is_error() {
        let mut m = machine();
        assert!(matches!(
            m.exec_source_until(8, &mut ops(&[TraceOp::read(0)]), 0),
            Err(Error::NoSuchCore { core: 8, .. })
        ));
        assert!(matches!(
            m.complete_bus_access(8),
            Err(Error::NoSuchCore { core: 8, .. })
        ));
        assert!(m.core_clock(100).is_err());
    }

    #[test]
    fn bus_contention_serializes_misses() {
        let cfg = MachineConfig::paper_default().with_bus(BusConfig::fcfs(20));
        let mut m = Machine::new(cfg);
        // Both cores miss at their local time 0; the second is delayed.
        assert_eq!(exec(&mut m, 0, TraceOp::read(0)), 77);
        assert_eq!(exec(&mut m, 1, TraceOp::read(4096)), 77 + 20);
        assert_eq!(m.core_stats(1).unwrap().bus_wait_cycles, 20);
    }

    #[test]
    fn windowed_grants_snap_to_epoch_boundaries() {
        let cfg = MachineConfig::paper_default().with_bus(BusConfig::windowed(20, 50));
        let mut m = Machine::new(cfg);
        // Miss at clock 0: request at 0 + hit(2) = 2, granted at the
        // epoch boundary 50 -> wait 48, cost 77 + 48.
        assert_eq!(exec(&mut m, 0, TraceOp::read(0)), 77 + 48);
        assert_eq!(m.core_stats(0).unwrap().bus_wait_cycles, 48);
        // Same-epoch second core queues behind: request 2, grant 70.
        assert_eq!(exec(&mut m, 1, TraceOp::read(4096)), 77 + 68);
        assert_eq!(m.stats().total_bus_wait_cycles, 48 + 68);
    }

    #[test]
    fn windowed_batch_parks_and_completes() {
        let cfg = MachineConfig::paper_default().with_bus(BusConfig::windowed(20, 50));
        let mut m = Machine::new(cfg);
        let mut src = ops(&[TraceOp::compute(10), TraceOp::read(0), TraceOp::read(4)]);
        let out = m.exec_source_until(0, &mut src, u64::MAX).unwrap();
        // The compute completed; the miss latched at boundary 50 (request
        // 10 + 2 = 12) and parked with the clock still at its pre-op 10.
        assert_eq!(out.ops, 1);
        assert_eq!(out.parked, Some(50));
        assert_eq!(out.preempt_key, 10);
        assert!(!out.exhausted);
        assert_eq!(m.core_clock(0).unwrap(), 10);
        // The probe already updated the cache (1 miss recorded).
        assert_eq!(m.core_stats(0).unwrap().cache.misses, 1);
        // Completing applies cost 77 + (50 - 12) and the one-op outcome.
        let done = m.complete_bus_access(0).unwrap();
        assert_eq!(done.ops, 1);
        assert_eq!(m.core_clock(0).unwrap(), 10 + 77 + 38);
        assert_eq!(m.core_stats(0).unwrap().bus_wait_cycles, 38);
        // A quantum crossed during an epoch stall preempts at completion.
        assert_eq!(done.preempt_key, 10 + 77 + 38);
        // Nothing left parked; the guaranteed hit then executes inline.
        assert!(matches!(
            m.complete_bus_access(0),
            Err(Error::NoParkedAccess { core: 0 })
        ));
        let out = m.exec_source_until(0, &mut src, u64::MAX).unwrap();
        assert_eq!(out.ops, 1);
        assert!(out.exhausted);
        assert_eq!(m.core_stats(0).unwrap().cache.hits, 1);
    }

    #[test]
    fn fcfs_batch_parks_at_its_pre_op_clock_and_is_granted_alone() {
        for bus in [BusConfig::fcfs(20), BusConfig::windowed(20, 1)] {
            let mut m = Machine::new(MachineConfig::paper_default().with_bus(bus));
            // Both cores miss at pre-op clock 10 (request 12) and park there.
            for (core, addr) in [(0, 0), (1, 4096)] {
                let mut src = ops(&[TraceOp::compute(10), TraceOp::read(addr)]);
                let out = m.exec_source_until(core, &mut src, u64::MAX).unwrap();
                assert_eq!((out.ops, out.parked, out.preempt_key), (1, Some(10), 10));
            }
            // One grant per completion, eager preemption key.
            assert_eq!(m.complete_bus_access(0).unwrap().preempt_key, 10);
            assert_eq!(m.core_clock(0).unwrap(), 10 + 77);
            assert_eq!(m.core_clock(1).unwrap(), 10, "core 1 still parked");
            assert_eq!(m.complete_bus_access(1).unwrap().preempt_key, 10);
            assert_eq!(m.core_clock(1).unwrap(), 10 + 77 + 20);
            assert_eq!(m.core_stats(1).unwrap().bus_wait_cycles, 20);
        }
    }

    #[test]
    fn makespan_is_max_clock() {
        let mut m = machine();
        exec(&mut m, 0, TraceOp::compute(10));
        exec(&mut m, 3, TraceOp::compute(30));
        assert_eq!(m.makespan(), 30);
        let s = m.stats();
        assert_eq!(s.makespan_cycles, 30);
        assert_eq!(s.total_busy_cycles, 40);
    }
}
