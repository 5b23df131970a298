//! Cursors over compiled trace programs.

use lams_mpsoc::{Segment, SegmentLane, TraceOp, TraceSource};

use crate::{Block, Program};

/// A resumable position in a [`Program`]'s decoded op stream.
///
/// A cursor is two things at once:
///
/// * an [`Iterator`] of [`TraceOp`]s — the scalar decode, used by
///   differential tests, `trace_tool inspect` and anything that wants
///   the literal stream;
/// * a [`TraceSource`] — the batched view consumed by
///   [`lams_mpsoc::Machine::exec_source_until`], which can stop
///   mid-segment at an event horizon (quantum end, gated dispatch) and
///   resume later at the exact op. Both views advance the same cursor
///   and decode identical streams.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    prog: &'a Program,
    /// Current pass (`== prog.passes` once done).
    pass: u64,
    /// Current block index within the pass.
    block: usize,
    /// Position within the block: ops emitted for [`Block::Burst`]; the
    /// current round for [`Block::Loop`].
    r: u64,
    /// Within-round lane cursor (loops only); `== lane_len` means the
    /// round's compute op is next.
    lane: u32,
    /// Scratch for [`TraceSource::lanes`]: the current loop's lanes
    /// shifted to the peeked segment's round 0.
    lane_buf: Vec<SegmentLane>,
    /// Ops not yet emitted.
    remaining: u64,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `prog`.
    pub fn new(prog: &'a Program) -> Self {
        Cursor {
            prog,
            pass: 0,
            block: 0,
            r: 0,
            lane: 0,
            lane_buf: Vec::new(),
            remaining: prog.len_ops(),
        }
    }

    /// Ops not yet emitted.
    pub fn remaining_ops(&self) -> u64 {
        self.remaining
    }

    /// Whether the stream is exhausted.
    pub fn is_done(&self) -> bool {
        self.pass == self.prog.passes
    }

    /// Position in ops within the current block.
    fn block_pos(&self) -> u64 {
        match self.prog.blocks[self.block] {
            Block::Burst { .. } => self.r,
            Block::Loop(lp) => self.r * (lp.lane_len as u64 + 1) + self.lane as u64,
        }
    }

    fn next_block(&mut self) {
        self.block += 1;
        self.r = 0;
        self.lane = 0;
        if self.block == self.prog.blocks.len() {
            self.block = 0;
            self.pass += 1;
        }
    }

    fn lane_addr(lane: &crate::Lane, r: u64) -> u64 {
        lane.base
            .wrapping_add(lane.stride.wrapping_mul(r as i64) as u64)
    }
}

impl Iterator for Cursor<'_> {
    type Item = TraceOp;

    fn next(&mut self) -> Option<TraceOp> {
        if self.is_done() {
            return None;
        }
        let op = match self.prog.blocks[self.block] {
            Block::Burst { cycles, repeat } => {
                self.r += 1;
                if self.r == repeat {
                    self.next_block();
                }
                TraceOp::Compute(cycles)
            }
            Block::Loop(lp) => {
                let lanes = self.prog.lanes_of(&lp);
                if (self.lane as usize) < lanes.len() {
                    let lane = &lanes[self.lane as usize];
                    let addr = Self::lane_addr(lane, self.r);
                    self.lane += 1;
                    TraceOp::Access {
                        addr,
                        write: lane.write,
                    }
                } else {
                    self.lane = 0;
                    self.r += 1;
                    if self.r == lp.times {
                        self.next_block();
                    }
                    TraceOp::Compute(lp.cycles)
                }
            }
        };
        self.remaining -= 1;
        Some(op)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

impl TraceSource for Cursor<'_> {
    fn peek_segment(&mut self) -> Option<Segment> {
        if self.is_done() {
            return None;
        }
        Some(match self.prog.blocks[self.block] {
            Block::Burst { cycles, repeat } => Segment::Burst {
                cycles,
                repeat: repeat - self.r,
            },
            Block::Loop(lp) => {
                let lanes = self.prog.lanes_of(&lp);
                if self.lane > 0 {
                    // Mid-round resumption (a preemption split the
                    // round): emit the rest of this round op-wise.
                    if (self.lane as usize) < lanes.len() {
                        let lane = &lanes[self.lane as usize];
                        Segment::Access {
                            addr: Self::lane_addr(lane, self.r),
                            write: lane.write,
                        }
                    } else {
                        Segment::Burst {
                            cycles: lp.cycles,
                            repeat: 1,
                        }
                    }
                } else {
                    self.lane_buf.clear();
                    self.lane_buf.extend(lanes.iter().map(|l| SegmentLane {
                        addr: Self::lane_addr(l, self.r),
                        stride: l.stride,
                        write: l.write,
                    }));
                    Segment::Rounds {
                        rounds: lp.times - self.r,
                        cycles: lp.cycles,
                    }
                }
            }
        })
    }

    fn lanes(&self) -> &[SegmentLane] {
        &self.lane_buf
    }

    fn advance(&mut self, ops: u64) {
        debug_assert!(ops <= self.remaining, "advance past end");
        if ops == 0 {
            return;
        }
        self.remaining -= ops;
        let total = self.prog.blocks[self.block].ops();
        let pos = self.block_pos() + ops;
        debug_assert!(pos <= total, "advance crossed a block boundary");
        if pos == total {
            self.next_block();
            return;
        }
        match self.prog.blocks[self.block] {
            Block::Burst { .. } => self.r = pos,
            Block::Loop(lp) => {
                let len = lp.lane_len as u64 + 1;
                self.r = pos / len;
                self.lane = (pos % len) as u32;
            }
        }
    }

    fn pass(&self) -> Option<(u64, u64)> {
        let passes = self.prog.passes;
        if passes < 2 || self.is_done() || self.block != 0 || self.r != 0 || self.lane != 0 {
            return None;
        }
        Some((self.prog.ops / passes, passes - self.pass))
    }

    fn skip_passes(&mut self, k: u64) {
        let Some((pass_ops, left)) = self.pass() else {
            debug_assert_eq!(k, 0, "skipped passes off a pass boundary");
            return;
        };
        debug_assert!(k <= left, "skipped {k} of {left} passes");
        self.pass += k;
        self.remaining -= k * pass_ops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lane, ProgramBuilder};

    fn sample() -> Program {
        let mut b = ProgramBuilder::new();
        b.push_loop(
            &[
                Lane {
                    base: 0,
                    stride: 4,
                    write: false,
                },
                Lane {
                    base: 1024,
                    stride: 8,
                    write: true,
                },
            ],
            6,
            3,
        );
        b.push_loop(&[], 2, 9);
        b.push_loop(
            &[Lane {
                base: 5000,
                stride: 0,
                write: false,
            }],
            1,
            0,
        );
        b.finish()
    }

    #[test]
    fn source_view_decodes_like_iterator() {
        let p = sample();
        let scalar: Vec<TraceOp> = p.iter().collect();
        // Walk the TraceSource view op-wise by advancing one op at a
        // time and decoding each segment head manually.
        let mut cur = Cursor::new(&p);
        let mut ops = Vec::new();
        while let Some(seg) = cur.peek_segment() {
            match seg {
                Segment::Access { addr, write } => ops.push(TraceOp::Access { addr, write }),
                Segment::Burst { cycles, .. } => ops.push(TraceOp::Compute(cycles)),
                Segment::Rounds { cycles, .. } => {
                    let lanes: Vec<SegmentLane> = cur.lanes().to_vec();
                    // Consume exactly one round, one op at a time.
                    for l in &lanes {
                        ops.push(TraceOp::Access {
                            addr: l.addr,
                            write: l.write,
                        });
                        cur.advance(1);
                    }
                    ops.push(TraceOp::Compute(cycles));
                    cur.advance(1);
                    continue;
                }
            }
            cur.advance(1);
        }
        assert_eq!(ops, scalar);
    }

    #[test]
    fn advance_resumes_mid_round() {
        let p = sample();
        let scalar: Vec<TraceOp> = p.iter().collect();
        for split in 0..scalar.len() as u64 {
            let mut cur = Cursor::new(&p);
            // Advance in odd chunks to land mid-round.
            let mut left = split;
            while left > 0 {
                let seg = cur.peek_segment().expect("not done");
                let seg_ops = seg.ops(cur.lanes().len());
                let take = left.min(seg_ops);
                cur.advance(take);
                left -= take;
            }
            let tail: Vec<TraceOp> = cur.collect();
            assert_eq!(tail, scalar[split as usize..], "split at {split}");
        }
    }

    #[test]
    fn empty_program_is_done() {
        let p = Program::new();
        let mut cur = Cursor::new(&p);
        assert!(cur.is_done());
        assert_eq!(cur.peek_segment(), None);
        assert_eq!(cur.next(), None);
    }
}
