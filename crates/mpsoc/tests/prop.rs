//! Property tests for the machine model: LRU inclusion, 3C accounting,
//! determinism, capacity invariants, and differential checks of the
//! optimized cache and the batched executor against the naive reference
//! machine of `support/naive.rs`, alone and with cores contending for a
//! bus.

use proptest::prelude::*;

use lams_mpsoc::{
    BatchOutcome, BusConfig, Cache, CacheConfig, Machine, MachineConfig, Segment, SegmentLane,
    TraceOp, TraceSource,
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
/// resumption exactly like a compiled-program cursor: partially
/// consumed runs/bursts re-peek shifted, and a partially consumed round
/// is re-exposed op-wise.
struct VecSource {
    segs: Vec<TestSeg>,
    idx: usize,
    consumed: u64,
    lane_buf: Vec<SegmentLane>,
}

impl VecSource {
    fn new(segs: Vec<TestSeg>) -> Self {
        VecSource {
            segs,
            idx: 0,
            consumed: 0,
            lane_buf: Vec::new(),
        }
    }
}

impl TraceSource for VecSource {
    fn peek_segment(&mut self) -> Option<Segment> {
        let ts = self.segs.get(self.idx)?;
        Some(match ts.seg {
            Segment::Run {
                base,
                stride,
                count,
                write,
            } => Segment::Run {
                base: base.wrapping_add(stride.wrapping_mul(self.consumed as i64) as u64),
                stride,
                count: count - self.consumed,
                write,
            },
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
                        Segment::Run {
                            base: l.addr_at(r),
                            stride: l.stride,
                            count: 1,
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
}

/// One single-op segment per op: a source that never collapses
/// anything.
fn single_op_segments(ops: &[TraceOp]) -> Vec<TestSeg> {
    ops.iter()
        .map(|&op| TestSeg {
            seg: match op {
                TraceOp::Access { addr, write } => Segment::Run {
                    base: addr,
                    stride: 0,
                    count: 1,
                    write,
                },
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
            Segment::Run {
                base,
                stride,
                count,
                write,
            } => {
                for i in 0..count {
                    ops.push(TraceOp::Access {
                        addr: base.wrapping_add(stride.wrapping_mul(i as i64) as u64),
                        write,
                    });
                }
            }
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

/// Random segment lists mixing runs, bursts and multi-lane rounds, with
/// strides spanning sub-line, line-crossing, zero and negative cases.
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
                seg: Segment::Run {
                    base: l.addr,
                    stride: l.stride,
                    count,
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

/// Runs `segs` on core 0 of both machines to the same horizons — the
/// batched executor on `fast`, the decoded ops one at a time on `slow`,
/// the `i`-th horizon `steps[i % steps.len()]` past the core's clock —
/// and asserts equal outcomes, clocks and statistics after every batch
/// and every completed bus access.
fn run_in_step(
    fast: &mut Machine,
    slow: &mut NaiveMachine,
    segs: Vec<TestSeg>,
    steps: &[u64],
) -> Result<(), TestCaseError> {
    let mut ops = decode_segments(&segs).into_iter();
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
        } else if got.exhausted {
            break;
        }
    }
    Ok(())
}

const OCCUPANCIES: [u64; 4] = [1, 9, 20, 75];
const WINDOWS: [u64; 4] = [1, 4, 64, 1000];

/// Drives per-core programs on the machine the way the engine does —
/// batched `exec_source_until` to an unbounded horizon, parked cores
/// re-keyed at whatever `BatchOutcome::parked` names, minimum key first
/// — and returns the machine.
fn drive_batched(cfg: MachineConfig, programs: &[Vec<TestSeg>]) -> Machine {
    #[derive(Clone, Copy, PartialEq)]
    enum St {
        Run,
        Parked(u64),
        Done,
    }
    let mut m = Machine::new(cfg);
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
        let mut c = Cache::new(cfg);
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
        let mut c = Cache::new(cfg);
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
    /// geometries (direct-mapped, 2/4-way, fully-associative).
    #[test]
    fn optimized_cache_matches_reference(addrs in arb_trace(), geom in 0usize..4) {
        let cfg = [
            CacheConfig::new(256, 1, 16).unwrap(),  // direct-mapped
            CacheConfig::new(256, 2, 16).unwrap(),  // 2-way
            CacheConfig::new(512, 4, 32).unwrap(),  // 4-way
            CacheConfig::new(256, 16, 16).unwrap(), // fully associative
        ][geom];
        let mut fast = Cache::new(cfg);
        let mut slow = NaiveCache::new(cfg);
        for (i, &a) in addrs.iter().enumerate() {
            let f = fast.access(a);
            let s = slow.access(a);
            prop_assert_eq!(f, s, "access {} (addr {:#x}) diverged", i, a);
        }
        // Residency and every counter, evictions included, agree too.
        for &a in &addrs {
            prop_assert_eq!(fast.is_resident(a), slow.is_resident(a));
        }
        prop_assert_eq!(fast.resident_lines(), slow.resident_lines());
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
    /// contention, and under windowed arbitration.
    #[test]
    fn source_executor_matches_per_op_executor(
        segs in arb_segments(),
        steps in prop::collection::vec(0u64..300, 1..40),
        bus_mode in 0u8..3,
    ) {
        // A small 2-way cache so evictions and conflicts actually occur.
        let mut cfg = MachineConfig::paper_default().with_cores(1);
        cfg.cache = CacheConfig::new(512, 2, 32).unwrap();
        match bus_mode {
            1 => cfg.bus = Some(BusConfig::fcfs(9)),
            2 => cfg.bus = Some(BusConfig::windowed(9, 32)),
            _ => {}
        }
        let mut fast = Machine::new(cfg);
        let mut slow = NaiveMachine::new(cfg);
        let probe: Vec<TraceOp> = decode_segments(&segs)
            .iter()
            .filter_map(TraceOp::addr)
            .map(|addr| TraceOp::read(addr ^ 32))
            .collect();
        run_in_step(&mut fast, &mut slow, segs, &steps)?;
        // Final cache state (stamps, shadow order) must agree too: replay
        // an adversarial probe sequence one op per batch on both — any
        // stamp or shadow divergence surfaces as a differing outcome.
        run_in_step(&mut fast, &mut slow, single_op_segments(&probe), &[0])?;
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

    /// The textual trace-op form (`trace_tool inspect`'s output) is a
    /// lossless round trip: Display then FromStr is the identity for
    /// every op, across the full u64 domain.
    #[test]
    fn trace_op_text_form_round_trips(
        kind in 0u8..3,
        value in (0u64..u64::MAX).prop_map(|v| v.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    ) {
        let op = match kind {
            0 => TraceOp::read(value),
            1 => TraceOp::write(value),
            _ => TraceOp::compute(value),
        };
        let text = op.to_string();
        prop_assert_eq!(text.parse::<TraceOp>(), Ok(op), "text {:?}", text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Machine-level differential across cores: engine-style batches,
    /// with parked cores keyed at `BatchOutcome::parked` and completed
    /// when their key is the minimum, equal the naive machine issuing
    /// one op at a time in global order — every core's clock and
    /// statistics — and the bus stats conserve: per-core waits sum to
    /// the naive bus's total wait, and transfers equal misses. Every
    /// window, the 1-cycle one included, and FCFS (index
    /// `WINDOWS.len()`): each parks, at its own key.
    #[test]
    fn parked_batches_match_per_op_grants_and_conserve_stats(
        programs in prop::collection::vec(arb_segments(), 1..5),
        occ_i in 0usize..OCCUPANCIES.len(),
        win_i in 0usize..=WINDOWS.len(),
    ) {
        let mut cfg = MachineConfig::paper_default().with_cores(programs.len());
        cfg.cache = CacheConfig::new(512, 2, 32).unwrap();
        cfg = cfg.with_bus(match WINDOWS.get(win_i) {
            Some(&window) => BusConfig::windowed(OCCUPANCIES[occ_i], window),
            None => BusConfig::fcfs(OCCUPANCIES[occ_i]),
        });
        let batched = drive_batched(cfg, &programs);
        let per_op = drive_per_op(cfg, &programs);
        let mut wait_sum = 0;
        let mut miss_sum = 0;
        for c in 0..programs.len() {
            prop_assert_eq!(batched.core_clock(c).unwrap(), per_op.clock(c), "core {} clock", c);
            let bs = batched.core_stats(c).unwrap();
            prop_assert_eq!(bs, per_op.core_stats(c), "core {} stats", c);
            wait_sum += bs.bus_wait_cycles;
            miss_sum += bs.cache.misses;
        }
        prop_assert_eq!(wait_sum, per_op.total_wait, "wait conservation");
        prop_assert_eq!(miss_sum, per_op.transfers, "every miss transfers exactly once");
    }
}
