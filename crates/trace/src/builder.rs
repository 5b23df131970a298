//! Building (compiling) trace programs.

use crate::{Block, Lane, LoopBlock, Program};

/// Builds a [`Program`] whose decoded op stream is exactly the sequence
/// of loop pushes ([`ProgramBuilder::push_loop`]). A push that
/// seamlessly continues the previous loop block is merged into it, so
/// a contiguous row-major sweep collapses to a single block no matter
/// how many rows the compiler pushed; an access-free push extends a
/// preceding burst of the same cycles.
///
/// A program of repeated passes is built from one of them:
/// [`ProgramBuilder::passes`] lowers a single pass and stores it once
/// with the count.
///
/// Exactness is differentially tested: `crates/trace/tests/prop.rs`
/// expands random push sequences by hand and compares, and holds every
/// folded program to the one its passes' pushes build.
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    blocks: Vec<Block>,
    lanes: Vec<Lane>,
    ops: u64,
}

impl ProgramBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Appends a whole loop: `times` rounds of one access per lane
    /// followed by `Compute(cycles)`. No lanes make a compute burst, and
    /// `times == 0` appends nothing, so no block decodes to zero ops. A
    /// loop that seamlessly continues the previous loop block (same
    /// shape, strides and cycles, bases advanced by exactly `times *
    /// stride`) is merged into it.
    pub fn push_loop(&mut self, lanes: &[Lane], times: u64, cycles: u64) {
        if times == 0 {
            return;
        }
        if lanes.is_empty() {
            self.ops += times;
            if let Some(Block::Burst { cycles: c, repeat }) = self.blocks.last_mut() {
                if *c == cycles {
                    *repeat += times;
                    return;
                }
            }
            self.blocks.push(Block::Burst {
                cycles,
                repeat: times,
            });
            return;
        }
        self.ops += times * (lanes.len() as u64 + 1);
        if self.try_merge_loop(lanes, times, cycles) {
            return;
        }
        let lane_start = self.lanes.len() as u32;
        self.lanes.extend_from_slice(lanes);
        if times == 1 {
            // Canonical single-round form: strides are meaningless.
            for l in &mut self.lanes[lane_start as usize..] {
                l.stride = 0;
            }
        }
        self.blocks.push(Block::Loop(LoopBlock {
            times,
            cycles,
            lane_start,
            lane_len: lanes.len() as u32,
        }));
    }

    /// Tries to merge a structured loop into the last block.
    fn try_merge_loop(&mut self, lanes: &[Lane], times: u64, cycles: u64) -> bool {
        let Some(Block::Loop(lp)) = self.blocks.last_mut() else {
            return false;
        };
        if lp.lane_len as usize != lanes.len() || lp.cycles != cycles {
            return false;
        }
        let prev = &mut self.lanes[lp.lane_start as usize..(lp.lane_start + lp.lane_len) as usize];
        if prev.iter().zip(lanes).any(|(p, l)| p.write != l.write) {
            return false;
        }
        // The continuation stride: what the previous block's stride must
        // be for the new loop's round 0 to be its round `times`.
        let t = lp.times as i64;
        let strides_continue = |strides: &[i64]| {
            prev.iter()
                .zip(lanes)
                .zip(strides)
                .all(|((p, l), &s)| p.base.wrapping_add(s.wrapping_mul(t) as u64) == l.base)
        };
        if lp.times == 1 {
            // The previous block's strides are unlocked: adopt the new
            // loop's strides if its bases sit one step after the
            // previous bases (for times == 1 the new strides are free
            // too — derive them from the base gap).
            let derived: Vec<i64> = prev
                .iter()
                .zip(lanes)
                .map(|(p, l)| l.base.wrapping_sub(p.base) as i64)
                .collect();
            let adopted: Vec<i64> = if times == 1 {
                derived.clone()
            } else {
                lanes.iter().map(|l| l.stride).collect()
            };
            if adopted != derived {
                return false;
            }
            for (p, s) in prev.iter_mut().zip(&adopted) {
                p.stride = *s;
            }
            lp.times += times;
            true
        } else {
            let prev_strides: Vec<i64> = prev.iter().map(|p| p.stride).collect();
            if !strides_continue(&prev_strides) {
                return false;
            }
            if times > 1 && prev.iter().zip(lanes).any(|(p, l)| p.stride != l.stride) {
                return false;
            }
            lp.times += times;
            true
        }
    }

    /// Whether the first round of the first block, pushed after the
    /// last block, could merge into it. Only then may a second pass
    /// build other blocks than the first one did: a pass whose first
    /// push opens a new block leaves every later push facing what it
    /// faced in the pass before. The probe is one round, which merges
    /// whenever the first push could.
    fn seam_merges(&self) -> bool {
        let (Some(&first), Some(&last)) = (self.blocks.first(), self.blocks.last()) else {
            return false;
        };
        // A block as the push that rebuilds it: lanes, rounds, cycles.
        let push = |b: Block| match b {
            Block::Loop(lp) => (
                &self.lanes[lp.lane_start as usize..][..lp.lane_len as usize],
                lp.times,
                lp.cycles,
            ),
            Block::Burst { cycles, repeat } => (&[][..], repeat, cycles),
        };
        let mut probe = ProgramBuilder::new();
        let (lanes, times, cycles) = push(last);
        probe.push_loop(lanes, times, cycles);
        let (lanes, _, cycles) = push(first);
        probe.push_loop(lanes, 1, cycles);
        probe.blocks.len() == 1
    }

    /// The program that running `push_pass` on one builder `passes`
    /// times builds, from one run of it where it can: at three passes
    /// or more, unless the next pass could merge into the last block of
    /// the one before, one pass is stored with the count. Otherwise
    /// every pass is pushed and the result is finished like
    /// [`ProgramBuilder::finish`]. `push_pass` must push the same loops
    /// each time it runs.
    pub fn passes(passes: u64, mut push_pass: impl FnMut(&mut ProgramBuilder)) -> Program {
        if passes == 0 {
            return Program::new();
        }
        let mut b = ProgramBuilder::new();
        push_pass(&mut b);
        if passes < 3 || b.seam_merges() {
            for _ in 1..passes {
                push_pass(&mut b);
            }
            return b.finish();
        }
        b.finish_passes(passes)
    }

    /// Finishes the build. A block sequence that is one body repeated
    /// at least three times is stored as the body and its pass count.
    pub fn finish(self) -> Program {
        self.finish_passes(1)
    }

    /// The program that runs the pushes so far `passes` times.
    fn finish_passes(self, passes: u64) -> Program {
        debug_assert_eq!(
            self.ops,
            self.blocks.iter().map(Block::ops).sum::<u64>(),
            "op accounting drifted"
        );
        Program::from_parts(self.blocks, self.lanes, self.ops * passes, passes)
    }
}

#[cfg(test)]
mod tests {
    use lams_mpsoc::TraceOp;

    use super::*;

    fn decode(p: &Program) -> Vec<TraceOp> {
        p.iter().collect()
    }

    fn lane(base: u64, write: bool) -> Lane {
        Lane {
            base,
            stride: 0,
            write,
        }
    }

    #[test]
    fn op_stream_round_trips() {
        // Three single-round pushes that continue one another.
        let mut b = ProgramBuilder::new();
        for i in 0..3u64 {
            b.push_loop(&[lane(i * 4, false), lane(64 + i * 4, true)], 1, 5);
        }
        let p = b.finish();
        let mut ops = Vec::new();
        for i in 0..3u64 {
            ops.extend([
                TraceOp::read(i * 4),
                TraceOp::write(64 + i * 4),
                TraceOp::compute(5),
            ]);
        }
        assert_eq!(decode(&p), ops);
        // Three rounds RLE into one loop block.
        assert_eq!(p.blocks().len(), 1);
        assert_eq!(p.len_ops(), 9);
    }

    #[test]
    fn structured_rows_merge_when_contiguous() {
        // Two "rows" of 4 unit-stride accesses that are contiguous in
        // memory: one block.
        let mut b = ProgramBuilder::new();
        for row in 0..2u64 {
            b.push_loop(
                &[Lane {
                    base: row * 16,
                    stride: 4,
                    write: false,
                }],
                4,
                1,
            );
        }
        let p = b.finish();
        assert_eq!(p.blocks().len(), 1, "{:?}", p.blocks());
        assert_eq!(p.len_ops(), 16);
        match p.blocks()[0] {
            Block::Loop(lp) => assert_eq!(lp.times, 8),
            ref b => panic!("expected loop, got {b:?}"),
        }
    }

    #[test]
    fn non_contiguous_rows_stay_separate() {
        let mut b = ProgramBuilder::new();
        for row in 0..2u64 {
            b.push_loop(
                &[Lane {
                    base: row * 1024,
                    stride: 4,
                    write: false,
                }],
                4,
                1,
            );
        }
        let p = b.finish();
        assert_eq!(p.blocks().len(), 2);
    }

    #[test]
    fn bursts_merge_across_pushes() {
        let mut b = ProgramBuilder::new();
        b.push_loop(&[], 1, 7);
        b.push_loop(&[], 2, 7);
        b.push_loop(&[lane(0, false)], 0, 7); // no rounds: no block
        b.push_loop(&[], 1, 8);
        let p = b.finish();
        assert_eq!(
            p.blocks(),
            [
                Block::Burst {
                    cycles: 7,
                    repeat: 3
                },
                Block::Burst {
                    cycles: 8,
                    repeat: 1
                },
            ]
        );
        assert_eq!(p.len_ops(), 4);
    }

    #[test]
    fn write_flag_breaks_rle() {
        let mut b = ProgramBuilder::new();
        b.push_loop(&[lane(0, false)], 1, 1);
        b.push_loop(&[lane(4, true)], 1, 1);
        let p = b.finish();
        assert_eq!(p.blocks().len(), 2);
        assert_eq!(
            decode(&p),
            vec![
                TraceOp::read(0),
                TraceOp::compute(1),
                TraceOp::write(4),
                TraceOp::compute(1),
            ]
        );
    }

    #[test]
    fn stride_break_splits_loops() {
        let mut b = ProgramBuilder::new();
        for base in [0, 4, 8, 100] {
            // 100 breaks the +4 pattern.
            b.push_loop(&[lane(base, false)], 1, 1);
        }
        let p = b.finish();
        assert_eq!(p.blocks().len(), 2);
        assert_eq!(p.len_ops(), 8);
    }
}
