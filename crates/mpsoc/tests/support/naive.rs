//! The naive reference machine: what `lams_mpsoc::Machine` computes,
//! written the obvious way, one op at a time. It is shared through
//! `#[path]` by `crates/mpsoc/tests/prop.rs`, which holds the batched
//! `Machine::exec_source_until` bit-identical to it, and by the engine's
//! oracle, `crates/core/tests/support/oracle.rs`, which runs every
//! simulated op through it. It borrows plain data types from
//! `lams_mpsoc` (configs, statistics, trace ops) and none of its model:
//! no cache, shadow, arbiter or machine.
//!
//! * **Caches**: one `Vec` of `(line, last use)` per set, scanned
//!   linearly; a miss in a full set evicts the least recently used
//!   line.
//! * **3C**: a miss to a line never seen before is cold; otherwise it is
//!   a conflict miss if a fully-associative LRU cache of the same
//!   capacity (the *shadow*, touched by every access) still holds the
//!   line, and a capacity miss if not.
//! * **Cost**: a compute op costs its cycles, a hit `hit_latency`, a
//!   miss `hit_latency + miss_latency` plus its bus wait. Only the
//!   executing core's clock moves.
//! * **Bus** (`docs/bus-model.md`): a miss requests the bus at
//!   `r = clock + hit_latency`. On a bus of non-zero occupancy it
//!   *parks* ([`NaiveMachine::issue`]) until [`NaiveMachine::complete`]
//!   grants it. Without epochs (FCFS, or a 1-cycle window) the request
//!   is granted alone at `max(r, bus_free)`. With a window `W >= 2` it
//!   is latched at `B(r) = ceil(r / W) * W`, and every request latched at
//!   one boundary is granted there in `(r, core)` order, each at
//!   `max(B(r), bus_free)`. Each grant holds the bus for the occupancy.
#![allow(dead_code)] // each including suite uses a subset

use lams_mpsoc::{
    AccessOutcome, CacheConfig, CacheStats, CoreStats, MachineConfig, MachineStats, MissKind,
    TraceOp,
};

/// A set-associative LRU cache with 3C classification, by linear scans.
#[derive(Debug, Clone)]
pub struct NaiveCache {
    cfg: CacheConfig,
    /// Access counter: the "last use" stamp of the current access.
    clock: u64,
    /// `sets[s]` holds `(line, last use)` pairs.
    sets: Vec<Vec<(u64, u64)>>,
    /// Fully-associative shadow of `num_lines` capacity: `(line, last
    /// use)` pairs.
    shadow: Vec<(u64, u64)>,
    /// Lines ever seen.
    seen: Vec<u64>,
    stats: CacheStats,
}

impl NaiveCache {
    pub fn new(cfg: CacheConfig) -> Self {
        NaiveCache {
            cfg,
            clock: 0,
            sets: vec![Vec::new(); cfg.num_sets() as usize],
            shadow: Vec::new(),
            seen: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    pub fn is_resident(&self, addr: u64) -> bool {
        let line = addr / self.cfg.line_bytes;
        self.sets.iter().flatten().any(|e| e.0 == line)
    }

    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    fn shadow_touch(&mut self, line: u64) {
        if let Some(e) = self.shadow.iter_mut().find(|e| e.0 == line) {
            e.1 = self.clock;
        } else {
            self.shadow.push((line, self.clock));
            if self.shadow.len() > self.cfg.num_lines() as usize {
                let lru = self
                    .shadow
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.1)
                    .map(|(i, _)| i)
                    .unwrap();
                self.shadow.swap_remove(lru);
            }
        }
    }

    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        self.clock += 1;
        let line = addr / self.cfg.line_bytes;
        let set = (line % self.cfg.num_sets()) as usize;
        if let Some(e) = self.sets[set].iter_mut().find(|e| e.0 == line) {
            e.1 = self.clock;
            self.shadow_touch(line);
            self.stats.hits += 1;
            return AccessOutcome::Hit;
        }
        let kind = if !self.seen.contains(&line) {
            self.seen.push(line);
            MissKind::Cold
        } else if self.shadow.iter().any(|e| e.0 == line) {
            MissKind::Conflict
        } else {
            MissKind::Capacity
        };
        self.shadow_touch(line);
        if self.sets[set].len() >= self.cfg.associativity as usize {
            let lru = self.sets[set]
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.1)
                .map(|(i, _)| i)
                .unwrap();
            self.sets[set].swap_remove(lru);
            self.stats.evictions += 1;
        }
        self.sets[set].push((line, self.clock));
        self.stats.misses += 1;
        match kind {
            MissKind::Cold => self.stats.cold_misses += 1,
            MissKind::Capacity => self.stats.capacity_misses += 1,
            MissKind::Conflict => self.stats.conflict_misses += 1,
        }
        AccessOutcome::Miss(kind)
    }
}

/// A miss waiting for the bus.
#[derive(Debug, Clone, Copy)]
struct Request {
    /// When the miss asked for the bus: pre-op clock + hit latency.
    at: u64,
    /// The epoch boundary it is latched at, on a bus with epochs.
    boundary: Option<u64>,
    /// Its grant, once decided.
    grant: Option<u64>,
}

#[derive(Debug, Clone)]
struct NaiveCore {
    cache: NaiveCache,
    clock: u64,
    busy_cycles: u64,
    bus_wait_cycles: u64,
    ops: u64,
    parked: Option<Request>,
}

/// Cores with private naive caches and per-core clocks behind an
/// optional shared bus.
#[derive(Debug, Clone)]
pub struct NaiveMachine {
    config: MachineConfig,
    cores: Vec<NaiveCore>,
    /// When the bus finishes every transfer granted so far.
    bus_free: u64,
    /// Transfers granted on a contended bus.
    pub transfers: u64,
    /// Cycles those transfers waited, `grant - request` summed.
    pub total_wait: u64,
}

impl NaiveMachine {
    pub fn new(config: MachineConfig) -> Self {
        let core = NaiveCore {
            cache: NaiveCache::new(config.cache),
            clock: 0,
            busy_cycles: 0,
            bus_wait_cycles: 0,
            ops: 0,
            parked: None,
        };
        NaiveMachine {
            config,
            cores: vec![core; config.num_cores],
            bus_free: 0,
            transfers: 0,
            total_wait: 0,
        }
    }

    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    pub fn clock(&self, core: usize) -> u64 {
        self.cores[core].clock
    }

    /// Idles `core` until `to`, if its clock is earlier.
    pub fn wait_until(&mut self, core: usize, to: u64) {
        let c = &mut self.cores[core];
        c.clock = c.clock.max(to);
    }

    /// The epoch length, when grants wait for boundaries.
    fn window(&self) -> Option<u64> {
        self.config.bus?.window().filter(|&w| w >= 2)
    }

    fn contended(&self) -> bool {
        self.config.bus.is_some_and(|b| b.occupancy_cycles > 0)
    }

    fn charge(&mut self, core: usize, cost: u64) {
        let c = &mut self.cores[core];
        c.clock += cost;
        c.busy_cycles += cost;
        c.ops += 1;
    }

    /// Executes `op` on `core`. Returns `Some(key)` when a miss parked
    /// on a contended bus, with the core's clock still before the op:
    /// `key` is the boundary the request is latched at on a bus with
    /// epochs, the pre-op clock on a bus without.
    pub fn issue(&mut self, core: usize, op: TraceOp) -> Option<u64> {
        assert!(
            self.cores[core].parked.is_none(),
            "a stalled core issues nothing"
        );
        let (hit, miss) = (self.config.hit_latency, self.config.miss_latency);
        let addr = match op {
            TraceOp::Compute(cycles) => {
                self.charge(core, cycles);
                return None;
            }
            TraceOp::Access { addr, .. } => addr,
        };
        if self.cores[core].cache.access(addr).is_hit() {
            self.charge(core, hit);
            return None;
        }
        if !self.contended() {
            self.charge(core, hit + miss);
            return None;
        }
        let clock = self.cores[core].clock;
        let at = clock + hit;
        let boundary = self.window().map(|w| at.div_ceil(w) * w);
        self.cores[core].parked = Some(Request {
            at,
            boundary,
            grant: None,
        });
        Some(boundary.unwrap_or(clock))
    }

    /// Grants the bus at `max(at, bus_free)`.
    fn grant(&mut self, core: usize, at: u64) {
        let grant = at.max(self.bus_free);
        self.bus_free = grant + self.config.bus.expect("contended bus").occupancy_cycles;
        let request = self.cores[core].parked.as_mut().expect("parked");
        request.grant = Some(grant);
        self.transfers += 1;
        self.total_wait += grant - request.at;
    }

    /// Completes `core`'s parked miss: grants it (with its whole
    /// boundary batch, on a bus with epochs) unless that already
    /// happened, and charges the miss with its wait. Returns the
    /// preemption key of the access: its completion clock after an
    /// epoch stall, its pre-op clock otherwise.
    pub fn complete(&mut self, core: usize) -> u64 {
        let request = self.cores[core].parked.expect("a parked miss");
        if request.grant.is_none() {
            match request.boundary {
                None => self.grant(core, request.at),
                Some(b) => {
                    let mut batch: Vec<(u64, usize)> = (0..self.cores.len())
                        .filter_map(|c| {
                            let r = self.cores[c].parked?;
                            (r.boundary == Some(b) && r.grant.is_none()).then_some((r.at, c))
                        })
                        .collect();
                    batch.sort();
                    for (_, c) in batch {
                        self.grant(c, b);
                    }
                }
            }
        }
        let c = &mut self.cores[core];
        let request = c.parked.take().expect("a parked miss");
        let wait = request.grant.expect("granted") - request.at;
        let pre_op = c.clock;
        c.bus_wait_cycles += wait;
        self.charge(
            core,
            self.config.hit_latency + self.config.miss_latency + wait,
        );
        match request.boundary {
            Some(_) => self.cores[core].clock,
            None => pre_op,
        }
    }

    pub fn core_stats(&self, core: usize) -> CoreStats {
        let c = &self.cores[core];
        CoreStats {
            busy_cycles: c.busy_cycles,
            bus_wait_cycles: c.bus_wait_cycles,
            ops: c.ops,
            cache: c.cache.stats(),
        }
    }

    pub fn stats(&self) -> MachineStats {
        let mut s = MachineStats::default();
        for c in &self.cores {
            s.cache += c.cache.stats();
            s.total_busy_cycles += c.busy_cycles;
            s.total_bus_wait_cycles += c.bus_wait_cycles;
            s.makespan_cycles = s.makespan_cycles.max(c.clock);
        }
        s
    }
}
