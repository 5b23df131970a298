//! The trace IR: programs of innermost-loop rounds, blocks and lanes.

use lams_mpsoc::TraceStats;

/// One access lane of a [`Block::Loop`]: in round `r` of the loop the
/// lane emits an access at `base + r * stride`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lane {
    /// Address accessed in round 0.
    pub base: u64,
    /// Per-round address increment. Irrelevant (and canonically zero)
    /// when the owning loop runs a single round.
    pub stride: i64,
    /// Whether the lane's accesses are stores.
    pub write: bool,
}

/// A run-length-encoded innermost loop: `times` rounds, each emitting
/// one access per lane (in lane order) followed by one
/// `Compute(cycles)` op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopBlock {
    /// Number of rounds.
    pub times: u64,
    /// Cycles of the compute op closing each round.
    pub cycles: u64,
    /// Start of the loop's lanes in [`Program::lanes`].
    pub lane_start: u32,
    /// Number of lanes (`> 0`; access-free loops are encoded as
    /// [`Block::Burst`]).
    pub lane_len: u32,
}

/// One block of a trace program: a run of innermost-loop rounds, with
/// or without accesses. Every block decodes to at least one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Block {
    /// `repeat` consecutive `Compute(cycles)` ops (`repeat > 0`): the
    /// rounds of an access-free loop.
    Burst {
        /// Cycles per compute op.
        cycles: u64,
        /// Number of compute ops.
        repeat: u64,
    },
    /// An RLE'd innermost loop of interleaved accesses and computes
    /// (`times > 0`).
    Loop(LoopBlock),
}

impl Block {
    /// Number of trace ops the block decodes to.
    pub fn ops(&self) -> u64 {
        match *self {
            Block::Burst { repeat, .. } => repeat,
            Block::Loop(lp) => lp.times * (lp.lane_len as u64 + 1),
        }
    }
}

/// A compiled trace program: a compact block sequence whose decoded op
/// stream ([`Program::iter`]) is **exactly** the trace it was compiled
/// or recorded from, op for op.
///
/// Programs are built by [`crate::ProgramBuilder`] from loop pushes (a
/// push of no lanes is a compute burst), executed batchwise
/// through [`crate::Cursor`] (a [`lams_mpsoc::TraceSource`]), and
/// serialized in the `.ltr` binary format (see `docs/trace-format.md`).
///
/// A `Program` is also the unit of per-process memoization: the
/// artifact cache shares one compiled program across every layout
/// whose *restricted* view (the arrays this process touches) is
/// unchanged, so the derived `PartialEq` doubles as the soundness
/// oracle for those delta keys — equal keys must imply structurally
/// equal programs, which this equality (blocks, lanes, op count)
/// witnesses field for field (see `docs/memoization.md`).
///
/// One field is derived rather than stored: the pass structure, which
/// [`crate::Cursor`] reports through [`lams_mpsoc::TraceSource::pass`].
/// It is computed whenever a program is built or decoded, and never
/// serialized or fingerprinted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    pub(crate) blocks: Vec<Block>,
    pub(crate) lanes: Vec<Lane>,
    pub(crate) ops: u64,
    /// Blocks per pass: the smallest `p` such that the block sequence
    /// is one body of `p` blocks repeated at least three times, or 0.
    pub(crate) period: usize,
}

impl Program {
    /// An empty program (decodes to no ops).
    pub fn new() -> Self {
        Program::default()
    }

    /// A program over validated blocks and lanes, with its pass
    /// structure derived.
    pub(crate) fn from_parts(blocks: Vec<Block>, lanes: Vec<Lane>, ops: u64) -> Self {
        let period = pass_period(&blocks, &lanes);
        Program {
            blocks,
            lanes,
            ops,
            period,
        }
    }

    /// The block sequence.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The lane arena (loops reference sub-slices of it).
    pub fn lanes(&self) -> &[Lane] {
        &self.lanes
    }

    /// The lanes of one loop block.
    ///
    /// # Panics
    ///
    /// Panics when the block's lane range is out of bounds (impossible
    /// for programs built by [`crate::ProgramBuilder`] or decoded from a
    /// validated `.ltr` file).
    pub fn lanes_of(&self, lp: &LoopBlock) -> &[Lane] {
        &self.lanes[lp.lane_start as usize..(lp.lane_start + lp.lane_len) as usize]
    }

    /// Total number of trace ops the program decodes to.
    pub fn len_ops(&self) -> u64 {
        self.ops
    }

    /// Whether the program decodes to no ops.
    pub fn is_empty(&self) -> bool {
        self.ops == 0
    }

    /// Decodes the program into its trace-op stream.
    pub fn iter(&self) -> crate::Cursor<'_> {
        crate::Cursor::new(self)
    }

    /// Content fingerprint of the block/lane structure — O(blocks), no
    /// decoding. Two programs fingerprint equal iff their IR is
    /// identical, so this is a cheap way to assert that a memoized
    /// program set matches a freshly compiled one (see
    /// `lams_core::memo` and `crates/core/tests/memo.rs`).
    pub fn fingerprint(&self) -> lams_mpsoc::Fingerprint {
        let mut h = lams_mpsoc::FingerprintHasher::new("lams.program");
        h.write_u64(self.ops);
        h.write_len(self.blocks.len());
        // Tags start at 1: tag 0 is retired (as in `.ltr`), and
        // renumbering would move every fingerprint.
        for b in &self.blocks {
            match *b {
                Block::Burst { cycles, repeat } => {
                    h.write_u32(1);
                    h.write_u64(cycles);
                    h.write_u64(repeat);
                }
                Block::Loop(lp) => {
                    h.write_u32(2);
                    h.write_u64(lp.times);
                    h.write_u64(lp.cycles);
                    h.write_u32(lp.lane_start);
                    h.write_u32(lp.lane_len);
                }
            }
        }
        h.write_len(self.lanes.len());
        for lane in &self.lanes {
            h.write_u64(lane.base);
            h.write_i64(lane.stride);
            h.write_bool(lane.write);
        }
        h.finish()
    }

    /// Summary statistics of the decoded stream, computed arithmetically
    /// from the blocks (no decoding).
    pub fn stats(&self) -> TraceStats {
        let mut s = TraceStats::default();
        for b in &self.blocks {
            match *b {
                Block::Burst { cycles, repeat } => s.compute_cycles += cycles * repeat,
                Block::Loop(lp) => {
                    s.accesses += lp.times * lp.lane_len as u64;
                    s.writes +=
                        lp.times * self.lanes_of(&lp).iter().filter(|l| l.write).count() as u64;
                    s.compute_cycles += lp.times * lp.cycles;
                }
            }
        }
        s
    }
}

/// The smallest block period `p` such that `blocks` is one body of `p`
/// blocks repeated at least three times, or 0: the shortest border of
/// the sequence (Knuth–Morris–Pratt failure function), kept only when
/// its period divides the length.
fn pass_period(blocks: &[Block], lanes: &[Lane]) -> usize {
    let lanes_of = |lp: &LoopBlock| &lanes[lp.lane_start as usize..][..lp.lane_len as usize];
    let same = |a: &Block, b: &Block| match (a, b) {
        (Block::Loop(x), Block::Loop(y)) => {
            x.times == y.times && x.cycles == y.cycles && lanes_of(x) == lanes_of(y)
        }
        _ => a == b,
    };
    let n = blocks.len();
    let mut border = vec![0usize; n];
    let mut k = 0;
    for i in 1..n {
        while k > 0 && !same(&blocks[i], &blocks[k]) {
            k = border[k - 1];
        }
        if same(&blocks[i], &blocks[k]) {
            k += 1;
        }
        border[i] = k;
    }
    let p = n - border.last().unwrap_or(&0);
    if n > 0 && n.is_multiple_of(p) && n / p >= 3 {
        p
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_op_counts() {
        assert_eq!(
            Block::Burst {
                cycles: 2,
                repeat: 3
            }
            .ops(),
            3
        );
        assert_eq!(
            Block::Loop(LoopBlock {
                times: 5,
                cycles: 1,
                lane_start: 0,
                lane_len: 2
            })
            .ops(),
            15
        );
    }

    #[test]
    fn stats_are_arithmetic() {
        let mut p = crate::ProgramBuilder::new();
        p.push_loop(
            &[
                Lane {
                    base: 0,
                    stride: 4,
                    write: false,
                },
                Lane {
                    base: 1024,
                    stride: 4,
                    write: true,
                },
            ],
            10,
            3,
        );
        let p = p.finish();
        let s = p.stats();
        assert_eq!(s.accesses, 20);
        assert_eq!(s.writes, 10);
        assert_eq!(s.compute_cycles, 30);
        let mut folded = TraceStats::default();
        p.iter().for_each(|op| folded.record(op));
        assert_eq!(s, folded);
    }
}
