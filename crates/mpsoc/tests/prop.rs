//! Property tests for the machine model: LRU inclusion, 3C accounting,
//! determinism, capacity invariants, and differential checks of the
//! optimized cache and the batched executor against the naive reference
//! machine of `support/naive.rs`, alone, over repeated passes, and with
//! cores contending for a bus.

use proptest::prelude::*;

use lams_mpsoc::{
    BatchOutcome, BusConfig, Cache, CacheConfig, CacheStats, Classifier, Explain, Machine,
    MachineConfig, Plain, Segment, SegmentLane, TraceOp, TraceSource,
};

#[path = "support/naive.rs"]
mod naive;

use naive::{NaiveCache, NaiveMachine};

fn arb_trace() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..4096, 1..400)
}

/// One test segment: a [`Segment`] plus the lanes a `Rounds` segment
/// references.
#[derive(Debug, Clone)]
struct TestSeg {
    seg: Segment,
    lanes: Vec<SegmentLane>,
}

/// A [`TraceSource`] over a fixed segment list, supporting mid-segment
/// resumption exactly like a compiled-program cursor: a partially
/// consumed burst re-peeks shortened, and a partially consumed round
/// is re-exposed op-wise.
struct VecSource {
    segs: Vec<TestSeg>,
    idx: usize,
    consumed: u64,
    lane_buf: Vec<SegmentLane>,
    /// Segments per pass when `segs` is one body repeated, else 0.
    period: usize,
}

impl VecSource {
    fn new(segs: Vec<TestSeg>) -> Self {
        VecSource {
            segs,
            idx: 0,
            consumed: 0,
            lane_buf: Vec::new(),
            period: 0,
        }
    }

    /// `passes` copies of `body`, reporting its passes like a compiled
    /// program's cursor.
    fn repeated(body: &[TestSeg], passes: usize) -> Self {
        VecSource {
            period: body.len(),
            ..VecSource::new(repeat(body, passes))
        }
    }
}

impl TraceSource for VecSource {
    fn peek_segment(&mut self) -> Option<Segment> {
        let ts = self.segs.get(self.idx)?;
        Some(match ts.seg {
            Segment::Access { .. } => ts.seg,
            Segment::Burst { cycles, repeat } => Segment::Burst {
                cycles,
                repeat: repeat - self.consumed,
            },
            Segment::Rounds { rounds, cycles } => {
                let m = ts.lanes.len() as u64;
                let r = self.consumed / (m + 1);
                let lane = self.consumed % (m + 1);
                if lane > 0 {
                    if lane < m {
                        let l = ts.lanes[lane as usize];
                        Segment::Access {
                            addr: l.addr_at(r),
                            write: l.write,
                        }
                    } else {
                        Segment::Burst { cycles, repeat: 1 }
                    }
                } else {
                    self.lane_buf.clear();
                    self.lane_buf.extend(ts.lanes.iter().map(|l| SegmentLane {
                        addr: l.addr_at(r),
                        ..*l
                    }));
                    Segment::Rounds {
                        rounds: rounds - r,
                        cycles,
                    }
                }
            }
        })
    }

    fn lanes(&self) -> &[SegmentLane] {
        &self.lane_buf
    }

    fn advance(&mut self, ops: u64) {
        self.consumed += ops;
        let total = self.segs[self.idx].seg.ops(self.segs[self.idx].lanes.len());
        assert!(self.consumed <= total, "advance past segment");
        if self.consumed == total {
            self.idx += 1;
            self.consumed = 0;
        }
    }

    fn pass(&self) -> Option<(u64, u64)> {
        let left = self
            .segs
            .len()
            .checked_sub(self.idx)?
            .checked_div(self.period)?;
        if self.consumed != 0 || !self.idx.is_multiple_of(self.period) || left == 0 {
            return None;
        }
        let ops = self.segs[..self.period]
            .iter()
            .map(|ts| ts.seg.ops(ts.lanes.len()));
        Some((ops.sum(), left as u64))
    }

    fn skip_passes(&mut self, k: u64) {
        assert!(
            self.pass().is_some_and(|(_, left)| k <= left),
            "skip off a boundary"
        );
        self.idx += k as usize * self.period;
    }
}

/// `passes` copies of `body`.
fn repeat(body: &[TestSeg], passes: usize) -> Vec<TestSeg> {
    std::iter::repeat_n(body, passes)
        .flatten()
        .cloned()
        .collect()
}

/// One single-op segment per op: a source that never collapses
/// anything.
fn single_op_segments(ops: &[TraceOp]) -> Vec<TestSeg> {
    ops.iter()
        .map(|&op| TestSeg {
            seg: match op {
                TraceOp::Access { addr, write } => Segment::Access { addr, write },
                TraceOp::Compute(cycles) => Segment::Burst { cycles, repeat: 1 },
            },
            lanes: Vec::new(),
        })
        .collect()
}

/// Decodes a segment list into its scalar trace-op stream.
fn decode_segments(segs: &[TestSeg]) -> Vec<TraceOp> {
    let mut ops = Vec::new();
    for ts in segs {
        match ts.seg {
            Segment::Access { addr, write } => ops.push(TraceOp::Access { addr, write }),
            Segment::Burst { cycles, repeat } => {
                ops.extend(std::iter::repeat_n(
                    TraceOp::Compute(cycles),
                    repeat as usize,
                ));
            }
            Segment::Rounds { rounds, cycles } => {
                for r in 0..rounds {
                    for l in &ts.lanes {
                        ops.push(TraceOp::Access {
                            addr: l.addr_at(r),
                            write: l.write,
                        });
                    }
                    ops.push(TraceOp::Compute(cycles));
                }
            }
        }
    }
    ops
}

/// Random segment lists mixing single accesses, bursts and multi-lane
/// rounds, with strides spanning sub-line, line-crossing, zero and
/// negative cases.
fn arb_segments() -> impl Strategy<Value = Vec<TestSeg>> {
    let lane = (0u64..4096, -80i64..80, 0u8..2).prop_map(|(addr, stride, write)| SegmentLane {
        addr: addr + 1024, // keep negative strides above address zero
        stride,
        write: write == 1,
    });
    let seg = (
        0usize..3,
        lane.clone(),
        prop::collection::vec(lane, 1..4),
        1u64..40,
        0u64..6,
    )
        .prop_map(|(kind, l, lanes, count, cycles)| match kind {
            0 => TestSeg {
                seg: Segment::Access {
                    addr: l.addr,
                    write: l.write,
                },
                lanes: Vec::new(),
            },
            1 => TestSeg {
                seg: Segment::Burst {
                    cycles,
                    repeat: count,
                },
                lanes: Vec::new(),
            },
            _ => TestSeg {
                seg: Segment::Rounds {
                    rounds: count,
                    cycles,
                },
                lanes,
            },
        });
    prop::collection::vec(seg, 1..12)
}

/// `Rounds` segments whose 2–4 lanes crowd one set of the 512 B 2-way
/// cache with 32 B lines the machine props use: each lane starts a
/// whole number of 256 B set strides past a shared base, at any byte of
/// its line, and steps less than a line per round. Up to
/// associativity + 2 distinct lines meet in one set, so a later lane's
/// miss can evict the line an earlier lane of the same round hit or
/// filled; equal strides apart put two lanes on one line.
fn arb_crowded_rounds() -> impl Strategy<Value = Vec<TestSeg>> {
    let lane = (0u64..4, 0u64..32, -8i64..9, 0u8..2);
    let seg = (
        0u64..128,
        prop::collection::vec(lane, 2..5),
        1u64..40,
        0u64..6,
    )
        .prop_map(|(line, lanes, rounds, cycles)| TestSeg {
            seg: Segment::Rounds { rounds, cycles },
            lanes: lanes
                .into_iter()
                .map(|(k, offset, stride, write)| SegmentLane {
                    addr: 1024 + line * 32 + k * 256 + offset,
                    stride,
                    write: write == 1,
                })
                .collect(),
        });
    prop::collection::vec(seg, 1..6)
}

/// Runs `ops` on the naive machine's `core` one op at a time until its
/// clock reaches `horizon` (at least one op) or a miss parks — the
/// per-op meaning of one `exec_source_until` batch.
fn naive_until(
    m: &mut NaiveMachine,
    core: usize,
    ops: &mut impl Iterator<Item = TraceOp>,
    horizon: u64,
) -> BatchOutcome {
    let mut out = BatchOutcome {
        ops: 0,
        exhausted: false,
        preempt_key: m.clock(core),
        parked: None,
    };
    loop {
        let Some(op) = ops.next() else {
            out.exhausted = true;
            return out;
        };
        out.preempt_key = m.clock(core);
        out.parked = m.issue(core, op);
        if out.parked.is_some() {
            return out;
        }
        out.ops += 1;
        if m.clock(core) >= horizon {
            return out;
        }
    }
}

/// An adversarial probe of the last `max_lines` distinct lines `ops`
/// touch: from the last touch back (most recent first: every miss then
/// classifies by stack distance), twice, then their neighbours. Run on
/// copies of two machines, it surfaces a residency, LRU-order or shadow
/// divergence that their counters did not show as a differing outcome.
fn lru_probe(ops: &[TraceOp], max_lines: usize) -> Vec<TraceOp> {
    let mut lines: Vec<u64> = Vec::new();
    for addr in ops.iter().rev().filter_map(TraceOp::addr) {
        if lines.len() == max_lines {
            break;
        }
        if !lines.contains(&(addr / 32)) {
            lines.push(addr / 32);
        }
    }
    [&lines, &lines]
        .into_iter()
        .flatten()
        .map(|line| line * 32)
        .chain(lines.iter().map(|line| (line ^ 1) * 32))
        .map(TraceOp::read)
        .collect()
}

/// Runs `segs` on core 0 of both machines to the same horizons — the
/// batched executor on `fast`, the decoded ops one at a time on `slow`,
/// the `i`-th horizon `steps[i % steps.len()]` past the core's clock —
/// and asserts equal outcomes, clocks and statistics after every batch
/// and every completed bus access, and there, unless `probe_lines` is
/// 0, equal outcomes of the [`lru_probe`] of that many lines of the ops
/// run so far, on copies of both.
fn run_in_step<C: Classifier>(
    fast: &mut Machine<C>,
    slow: &mut NaiveMachine,
    segs: Vec<TestSeg>,
    steps: &[u64],
    probe_lines: usize,
) -> Result<(), TestCaseError> {
    let all = decode_segments(&segs);
    let mut ops = all.iter().copied();
    let mut src = VecSource::new(segs);
    for i in 0.. {
        let h = slow.clock(0) + steps[i % steps.len()];
        let got = fast.exec_source_until(0, &mut src, h).unwrap();
        let want = naive_until(slow, 0, &mut ops, h);
        prop_assert_eq!(got, want, "batch outcome diverged at horizon {}", h);
        prop_assert_eq!(fast.core_clock(0).unwrap(), slow.clock(0));
        prop_assert_eq!(fast.core_stats(0).unwrap(), slow.core_stats(0));
        if got.parked.is_some() {
            // One core: nothing else can still request, so the grant is
            // due now.
            let got = fast.complete_bus_access(0).unwrap();
            let want = BatchOutcome {
                ops: 1,
                exhausted: false,
                preempt_key: slow.complete(0),
                parked: None,
            };
            prop_assert_eq!(got, want, "completion diverged");
            prop_assert_eq!(fast.core_clock(0).unwrap(), slow.clock(0));
            prop_assert_eq!(fast.core_stats(0).unwrap(), slow.core_stats(0));
        }
        if probe_lines > 0 {
            let probe = lru_probe(&all[..all.len() - ops.len()], probe_lines);
            let segs = single_op_segments(&probe);
            run_in_step(&mut fast.clone(), &mut slow.clone(), segs, &[0], 0)?;
        }
        if got.exhausted {
            break;
        }
    }
    Ok(())
}

/// The per-op horizons of a repeated body worth stopping at, as
/// absolute clocks: each pass boundary, one cycle either side of it,
/// points inside each pass, the end and past it. `boundaries` holds the
/// core's clock at every pass boundary, start and end included.
fn pass_horizons(boundaries: &[u64], picks: &[(usize, u8, u64)]) -> Vec<u64> {
    let end = *boundaries.last().expect("at least the start");
    let mut hs: Vec<u64> = picks
        .iter()
        .map(|&(i, kind, frac)| {
            let i = i % boundaries.len();
            let (b, next) = (boundaries[i], boundaries.get(i + 1).copied().unwrap_or(end));
            match kind {
                0 => b,
                1 => b.saturating_sub(1),
                2 => b + 1,
                3 => b + (next - b) * frac / 100,
                _ => end + 1 + frac,
            }
        })
        .collect();
    hs.sort_unstable();
    hs
}

/// Runs `passes` copies of `body` on core 0 of both machines — as one
/// source that reports its passes on `fast`, decoded one op at a time on
/// `slow` — batch by batch to each of `horizons` and then to the end,
/// and asserts after every batch and completed bus access equal
/// outcomes, clocks and statistics and, by an adversarial probe
/// sequence run on copies of both machines, equal residency and LRU
/// order.
fn run_passes<C: Classifier>(
    cfg: MachineConfig,
    body: &[TestSeg],
    passes: usize,
    horizons: &[u64],
) -> Result<(), TestCaseError> {
    let mut fast = Machine::<C>::try_build(cfg).unwrap();
    let mut slow = NaiveMachine::new(cfg);
    let ops = decode_segments(&repeat(body, passes));
    let probe = lru_probe(&decode_segments(body), usize::MAX);
    let mut src = VecSource::repeated(body, passes);
    let mut ops = ops.into_iter();
    let mut horizons = horizons.iter().copied().chain(std::iter::repeat(u64::MAX));
    loop {
        let h = horizons.next().expect("endless");
        let mut got = fast.exec_source_until(0, &mut src, h).unwrap();
        let want = naive_until(&mut slow, 0, &mut ops, h);
        prop_assert_eq!(got, want, "batch outcome diverged at horizon {}", h);
        if got.parked.is_some() {
            got = fast.complete_bus_access(0).unwrap();
            let preempt_key = slow.complete(0);
            prop_assert_eq!(got.preempt_key, preempt_key, "completion diverged");
        } else {
            // Stopped at the horizon or the end, where a skip may have
            // just landed.
            let segs = single_op_segments(&probe);
            run_in_step(&mut fast.clone(), &mut slow.clone(), segs, &[0], 0)?;
        }
        prop_assert_eq!(fast.core_clock(0).unwrap(), slow.clock(0));
        prop_assert_eq!(fast.core_stats(0).unwrap(), slow.core_stats(0));
        if got.exhausted {
            return Ok(());
        }
    }
}

/// The core's clock at every pass boundary of `passes` copies of `body`,
/// run alone on the naive machine.
fn boundary_clocks(cfg: MachineConfig, body: &[TestSeg], passes: usize) -> Vec<u64> {
    let mut m = NaiveMachine::new(cfg);
    let pass = decode_segments(body);
    let mut clocks = vec![0];
    for _ in 0..passes {
        for &op in &pass {
            if m.issue(0, op).is_some() {
                m.complete(0);
            }
        }
        clocks.push(m.clock(0));
    }
    clocks
}

const OCCUPANCIES: [u64; 4] = [1, 9, 20, 75];
const WINDOWS: [u64; 4] = [1, 4, 64, 1000];

/// Drives per-core programs on the machine the way the engine does —
/// batched `exec_source_until` to an unbounded horizon, parked cores
/// re-keyed at whatever `BatchOutcome::parked` names, minimum key first
/// — and returns the machine.
fn drive_batched<C: Classifier>(cfg: MachineConfig, programs: &[Vec<TestSeg>]) -> Machine<C> {
    #[derive(Clone, Copy, PartialEq)]
    enum St {
        Run,
        Parked(u64),
        Done,
    }
    let mut m = Machine::<C>::try_build(cfg).unwrap();
    let mut srcs: Vec<VecSource> = programs.iter().cloned().map(VecSource::new).collect();
    let mut st = vec![St::Run; programs.len()];
    loop {
        let next = (0..programs.len())
            .filter_map(|c| match st[c] {
                St::Run => Some((m.core_clock(c).unwrap(), c)),
                St::Parked(b) => Some((b, c)),
                St::Done => None,
            })
            .min();
        let Some((_, c)) = next else { break };
        match st[c] {
            St::Parked(_) => {
                m.complete_bus_access(c).unwrap();
                st[c] = St::Run;
            }
            St::Run => {
                let out = m.exec_source_until(c, &mut srcs[c], u64::MAX).unwrap();
                st[c] = match out.parked {
                    Some(b) => St::Parked(b),
                    None => {
                        assert!(out.exhausted, "unbounded horizon only stops at the end");
                        St::Done
                    }
                };
            }
            St::Done => unreachable!(),
        }
    }
    m
}

/// Drives the same programs' decoded ops through the naive machine one
/// op at a time in global `(key, core)` order, a core keyed at its clock
/// or, while its miss waits for the bus, at its park key.
fn drive_per_op(cfg: MachineConfig, programs: &[Vec<TestSeg>]) -> NaiveMachine {
    let mut m = NaiveMachine::new(cfg);
    let mut streams: Vec<_> = programs
        .iter()
        .map(|p| decode_segments(p).into_iter().peekable())
        .collect();
    let mut parked: Vec<Option<u64>> = vec![None; programs.len()];
    loop {
        let next = (0..programs.len())
            .filter_map(|c| match parked[c] {
                Some(key) => Some((key, c)),
                None => streams[c].peek().map(|_| (m.clock(c), c)),
            })
            .min();
        let Some((_, c)) = next else { break };
        if parked[c].take().is_some() {
            m.complete(c);
        } else {
            let op = streams[c].next().expect("peeked");
            parked[c] = m.issue(c, op);
        }
    }
    m
}

/// [`run_in_step`] on a `C` machine, probing after every batch the
/// last twice as many lines as the cache holds.
fn source_executor_matches<C: Classifier>(
    cfg: MachineConfig,
    segs: Vec<TestSeg>,
    steps: &[u64],
) -> Result<(), TestCaseError> {
    let mut fast = Machine::<C>::try_build(cfg).unwrap();
    let mut slow = NaiveMachine::new(cfg);
    let probe_lines = 2 * cfg.cache.num_lines() as usize;
    run_in_step(&mut fast, &mut slow, segs, steps, probe_lines)
}

/// [`drive_batched`] on a `C` machine equals [`drive_per_op`], core by
/// core, and the bus stats conserve.
fn parked_batches_match<C: Classifier>(
    cfg: MachineConfig,
    programs: &[Vec<TestSeg>],
) -> Result<(), TestCaseError> {
    let batched = drive_batched::<C>(cfg, programs);
    let per_op = drive_per_op(cfg, programs);
    let mut wait_sum = 0;
    let mut miss_sum = 0;
    for c in 0..programs.len() {
        prop_assert_eq!(
            batched.core_clock(c).unwrap(),
            per_op.clock(c),
            "core {} clock",
            c
        );
        let bs = batched.core_stats(c).unwrap();
        prop_assert_eq!(bs, per_op.core_stats(c), "core {} stats", c);
        wait_sum += bs.bus_wait_cycles;
        miss_sum += bs.cache.misses;
    }
    prop_assert_eq!(wait_sum, per_op.total_wait, "wait conservation");
    prop_assert_eq!(
        miss_sum,
        per_op.transfers,
        "every miss transfers exactly once"
    );
    Ok(())
}

proptest! {
    /// LRU inclusion: with the same number of sets and line size, doubling
    /// the associativity can never increase misses (each set is an
    /// independent fully-associative LRU whose capacity grows).
    #[test]
    fn lru_inclusion_in_associativity(addrs in arb_trace()) {
        // 16 sets x 16B lines; 1-way vs 2-way vs 4-way.
        let cfgs = [
            CacheConfig::new(16 * 16, 1, 16).unwrap(),
            CacheConfig::new(16 * 16 * 2, 2, 16).unwrap(),
            CacheConfig::new(16 * 16 * 4, 4, 16).unwrap(),
        ];
        let mut misses = Vec::new();
        for cfg in cfgs {
            prop_assert_eq!(cfg.num_sets(), 16);
            let mut c = Cache::new(cfg);
            for &a in &addrs {
                c.access(a);
            }
            misses.push(c.stats().misses);
        }
        prop_assert!(misses[1] <= misses[0], "2-way missed more than 1-way");
        prop_assert!(misses[2] <= misses[1], "4-way missed more than 2-way");
    }

    /// 3C accounting: cold + capacity + conflict == misses, and cold
    /// misses equal the number of distinct lines touched... at most.
    #[test]
    fn three_c_accounting(addrs in arb_trace()) {
        let cfg = CacheConfig::new(256, 2, 16).unwrap();
        let mut c = Cache::<Explain>::build(cfg);
        for &a in &addrs {
            c.access(a);
        }
        let s = *c.stats();
        prop_assert_eq!(s.cold_misses + s.capacity_misses + s.conflict_misses, s.misses);
        let distinct_lines: std::collections::HashSet<u64> =
            addrs.iter().map(|&a| cfg.line_of(a)).collect();
        prop_assert_eq!(s.cold_misses, distinct_lines.len() as u64);
        prop_assert_eq!(s.hits + s.misses, addrs.len() as u64);
    }

    /// A fully-associative cache has no conflict misses, ever.
    #[test]
    fn fully_associative_has_no_conflicts(addrs in arb_trace()) {
        let cfg = CacheConfig::new(256, 16, 16).unwrap(); // 16 lines, FA
        let mut c = Cache::<Explain>::build(cfg);
        for &a in &addrs {
            c.access(a);
        }
        prop_assert_eq!(c.stats().conflict_misses, 0);
    }

    /// Replaying a trace on a fresh cache gives identical statistics.
    #[test]
    fn determinism(addrs in arb_trace()) {
        let cfg = CacheConfig::new(512, 2, 32).unwrap();
        let run = |addrs: &[u64]| {
            let mut c = Cache::new(cfg);
            for &a in addrs {
                c.access(a);
            }
            *c.stats()
        };
        prop_assert_eq!(run(&addrs), run(&addrs));
    }

    /// The cache never holds more lines than its capacity, and residency
    /// implies a subsequent access hits.
    #[test]
    fn capacity_and_residency(addrs in arb_trace()) {
        let cfg = CacheConfig::new(256, 2, 16).unwrap();
        let mut c = Cache::new(cfg);
        for &a in &addrs {
            c.access(a);
            prop_assert!(c.resident_lines() as u64 <= cfg.num_lines());
        }
        let last = *addrs.last().unwrap();
        prop_assert!(c.is_resident(last));
        prop_assert!(c.access(last).is_hit());
    }

    /// Differential: the optimized cache agrees with the naive reference
    /// model on the outcome *and 3C kind* of every access, across
    /// geometries (direct-mapped, 2/4-way, fully-associative); a plain
    /// cache on the outcome and every counter but the split, which it
    /// reads as 0.
    #[test]
    fn optimized_cache_matches_reference(addrs in arb_trace(), geom in 0usize..4) {
        let cfg = [
            CacheConfig::new(256, 1, 16).unwrap(),  // direct-mapped
            CacheConfig::new(256, 2, 16).unwrap(),  // 2-way
            CacheConfig::new(512, 4, 32).unwrap(),  // 4-way
            CacheConfig::new(256, 16, 16).unwrap(), // fully associative
        ][geom];
        let mut fast = Cache::<Explain>::build(cfg);
        let mut plain = Cache::new(cfg);
        let mut slow = NaiveCache::new(cfg);
        for (i, &a) in addrs.iter().enumerate() {
            let f = fast.access(a);
            let p = plain.access(a);
            let s = slow.access(a);
            prop_assert_eq!(f, s, "access {} (addr {:#x}) diverged", i, a);
            prop_assert_eq!(p.is_hit(), s.is_hit(), "plain access {} diverged", i);
        }
        // Residency and every counter, evictions included, agree too.
        for &a in &addrs {
            prop_assert_eq!(fast.is_resident(a), slow.is_resident(a));
            prop_assert_eq!(plain.is_resident(a), slow.is_resident(a));
        }
        prop_assert_eq!(fast.resident_lines(), slow.resident_lines());
        prop_assert_eq!(*fast.stats(), slow.stats());
        // The plain cache keeps every counter but the split.
        let unsplit = CacheStats {
            cold_misses: 0,
            capacity_misses: 0,
            conflict_misses: 0,
            ..slow.stats()
        };
        prop_assert_eq!(*plain.stats(), unsplit);
    }

    /// Differential on hit-heavy traces: ~600 accesses over ~40 lines, so
    /// most accesses hit and lines are re-hit in every order between two
    /// misses — the shadow the optimized cache brings up to date only at
    /// a miss must classify every miss as the naive cache's shadow,
    /// touched on every access, does.
    #[test]
    fn hit_heavy_cache_matches_reference(
        lines in prop::collection::vec(0u64..40, 500..700),
        geom in 0usize..4,
    ) {
        let cfg = [
            CacheConfig::new(256, 1, 16).unwrap(),  // direct-mapped
            CacheConfig::new(256, 2, 16).unwrap(),  // 2-way
            CacheConfig::new(512, 4, 32).unwrap(),  // 4-way
            CacheConfig::new(256, 16, 16).unwrap(), // fully associative
        ][geom];
        let mut fast = Cache::<Explain>::build(cfg);
        let mut slow = NaiveCache::new(cfg);
        for (i, &line) in lines.iter().enumerate() {
            let a = line * cfg.line_bytes;
            prop_assert_eq!(fast.access(a), slow.access(a), "access {} (line {}) diverged", i, line);
        }
        prop_assert_eq!(*fast.stats(), slow.stats());
    }

    /// Differential: the batched segment executor
    /// (`Machine::exec_source_until`, completing parked misses through
    /// `complete_bus_access`) is bit-identical to the naive machine
    /// running the decoded op stream one op at a time to the same
    /// horizons — same `BatchOutcome`s (ops, exhaustion, preemption
    /// keys, park keys), same clocks, same statistics, and the same
    /// final cache state — across random segment programs and
    /// arbitrary horizon schedules, without a bus, under FCFS
    /// contention, and under windowed arbitration — on a plain machine
    /// and an explaining one. Every program ends in rounds whose lanes
    /// crowd one set, where a round's own misses evict its lines.
    #[test]
    fn source_executor_matches_per_op_executor(
        segs in arb_segments(),
        crowded in arb_crowded_rounds(),
        steps in prop::collection::vec(0u64..300, 1..40),
        bus_mode in 0u8..3,
        explain in 0usize..2,
    ) {
        let segs: Vec<TestSeg> = segs.into_iter().chain(crowded).collect();
        // A small 2-way cache so evictions and conflicts actually occur.
        let mut cfg = MachineConfig::paper_default().with_cores(1);
        cfg.cache = CacheConfig::new(512, 2, 32).unwrap();
        match bus_mode {
            1 => cfg.bus = Some(BusConfig::fcfs(9)),
            2 => cfg.bus = Some(BusConfig::windowed(9, 32)),
            _ => {}
        }
        cfg.explain = explain == 1;
        if cfg.explain {
            source_executor_matches::<Explain>(cfg, segs, &steps)?;
        } else {
            source_executor_matches::<Plain>(cfg, segs, &steps)?;
        }
    }

    /// Machine-level: an access costs a hit or a miss latency, a compute
    /// op its cycles; a core's clock is the sum of its op costs, the
    /// makespan the max over cores, busy cycles the sum over cores.
    #[test]
    fn machine_time_accounting(
        ops in prop::collection::vec((0usize..4, 0u64..2048, 0u64..10), 1..200)
    ) {
        let mut m = Machine::new(MachineConfig::paper_default().with_cores(4));
        let mut per_core = [0u64; 4];
        for (core, addr, compute) in ops {
            let two = [TraceOp::read(addr), TraceOp::compute(compute)];
            let mut src = VecSource::new(single_op_segments(&two));
            let mut costs = [0u64; 2];
            for cost in &mut costs {
                let before = m.core_clock(core).unwrap();
                let out = m.exec_source_until(core, &mut src, 0).unwrap();
                prop_assert_eq!(out.ops, 1, "horizon 0 runs exactly one op");
                *cost = m.core_clock(core).unwrap() - before;
            }
            prop_assert!(costs[0] == 2 || costs[0] == 77, "access cost {}", costs[0]);
            prop_assert_eq!(costs[1], compute);
            per_core[core] += costs[0] + costs[1];
        }
        for (core, &expected) in per_core.iter().enumerate() {
            prop_assert_eq!(m.core_clock(core).unwrap(), expected);
        }
        prop_assert_eq!(m.makespan(), *per_core.iter().max().unwrap());
        prop_assert_eq!(m.stats().total_busy_cycles, per_core.iter().sum::<u64>());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Differential over repeated passes, where a core skips every
    /// pass after it has measured one from the LRU fixed point: a
    /// random body repeated 3–12 times, stopped at horizons on, beside
    /// and between pass boundaries and past the end, equals the naive
    /// machine after every batch — without a bus, under FCFS and under
    /// windowed arbitration, on a plain machine and an explaining one.
    #[test]
    fn repeated_passes_match_per_op_executor(
        body in arb_segments(),
        passes in 3usize..13,
        picks in prop::collection::vec((0usize..14, 0u8..5, 0u64..100), 0..8),
        geom in 0usize..2,
        explain in 0usize..2,
    ) {
        for bus in [None, Some(BusConfig::fcfs(9)), Some(BusConfig::windowed(9, 32))] {
            let mut cfg = MachineConfig::paper_default().with_cores(1);
            // Small caches, so steady passes still miss and evict.
            cfg.cache = CacheConfig::new([512, 256][geom], [2, 1][geom], 32).unwrap();
            cfg.bus = bus;
            cfg.explain = explain == 1;
            let horizons = pass_horizons(&boundary_clocks(cfg, &body, passes), &picks);
            if cfg.explain {
                run_passes::<Explain>(cfg, &body, passes, &horizons)?;
            } else {
                run_passes::<Plain>(cfg, &body, passes, &horizons)?;
            }
        }
    }

    /// Machine-level differential across cores: engine-style batches,
    /// with parked cores keyed at `BatchOutcome::parked` and completed
    /// when their key is the minimum, equal the naive machine issuing
    /// one op at a time in global order — every core's clock and
    /// statistics — and the bus stats conserve: per-core waits sum to
    /// the naive bus's total wait, and transfers equal misses. Every
    /// window, the 1-cycle one included, and FCFS (index
    /// `WINDOWS.len()`): each parks, at its own key. On a plain machine
    /// and an explaining one.
    #[test]
    fn parked_batches_match_per_op_grants_and_conserve_stats(
        programs in prop::collection::vec(arb_segments(), 1..5),
        occ_i in 0usize..OCCUPANCIES.len(),
        win_i in 0usize..=WINDOWS.len(),
        explain in 0usize..2,
    ) {
        let mut cfg = MachineConfig::paper_default().with_cores(programs.len());
        cfg.cache = CacheConfig::new(512, 2, 32).unwrap();
        cfg = cfg.with_bus(match WINDOWS.get(win_i) {
            Some(&window) => BusConfig::windowed(OCCUPANCIES[occ_i], window),
            None => BusConfig::fcfs(OCCUPANCIES[occ_i]),
        });
        cfg.explain = explain == 1;
        if cfg.explain {
            parked_batches_match::<Explain>(cfg, &programs)?;
        } else {
            parked_batches_match::<Plain>(cfg, &programs)?;
        }
    }
}
