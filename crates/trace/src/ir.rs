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

    /// The block with its lanes `shift` places further into the arena.
    pub(crate) fn shifted(self, shift: u32) -> Block {
        match self {
            Block::Loop(lp) => Block::Loop(LoopBlock {
                lane_start: lp.lane_start.wrapping_add(shift),
                ..lp
            }),
            burst => burst,
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
/// A program stores one **pass**: its blocks and lanes are a body that
/// the stream runs [`Program::passes`] times, each pass addressing
/// the same data. A stream that is one body repeated at least three
/// times is always stored folded, however it was built or decoded, and
/// any other stream as one pass, so two programs of one block
/// sequence are the same value.
///
/// A `Program` is also the unit of per-process memoization: the
/// artifact cache shares one compiled program across every layout
/// whose *restricted* view (the arrays this process touches) is
/// unchanged, so the derived `PartialEq` doubles as the soundness
/// oracle for those delta keys — equal keys must imply structurally
/// equal programs, which this equality (body, passes, op count)
/// witnesses field for field (see `docs/memoization.md`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    pub(crate) blocks: Vec<Block>,
    pub(crate) lanes: Vec<Lane>,
    /// Times the body runs: 0 for the empty program, 1 for a stream
    /// that is no body repeated three times or more, else at least 3.
    pub(crate) passes: u64,
    /// Ops of the whole stream, every pass included.
    pub(crate) ops: u64,
}

impl Program {
    /// An empty program (decodes to no ops).
    pub fn new() -> Self {
        Program::default()
    }

    /// The program whose stream is `passes` (1, or at least 3) copies
    /// of the one that `blocks` and `lanes` decode to, `ops` ops in
    /// all: stored folded when that stream is one body repeated at
    /// least three times, and as one pass otherwise.
    pub(crate) fn from_parts(
        mut blocks: Vec<Block>,
        mut lanes: Vec<Lane>,
        ops: u64,
        passes: u64,
    ) -> Self {
        debug_assert!(passes == 1 || passes >= 3, "{passes} passes stored folded");
        if blocks.is_empty() {
            return Program::new();
        }
        let period = pass_period(&blocks, &lanes);
        let copies = blocks.len() / period;
        let passes = passes * copies as u64;
        if passes < 3 {
            return Program {
                blocks,
                lanes,
                passes: 1,
                ops,
            };
        }
        blocks.truncate(period);
        lanes.truncate(lanes.len() / copies);
        Program {
            blocks,
            lanes,
            passes,
            ops,
        }
    }

    /// The block sequence of one pass.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The lane arena of one pass (loops reference sub-slices of it).
    pub fn lanes(&self) -> &[Lane] {
        &self.lanes
    }

    /// How many times the stream runs [`Program::blocks`]: 0 for the
    /// empty program, else 1 or at least 3.
    pub fn passes(&self) -> u64 {
        self.passes
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

    /// Every pass's blocks in stream order, as the `.ltr` byte layout
    /// writes them: pass `k` reads lanes `k * lanes().len()` on.
    pub(crate) fn unrolled_blocks(&self) -> impl Iterator<Item = Block> + '_ {
        (0..self.passes).flat_map(move |k| {
            let shift = (k * self.lanes.len() as u64) as u32;
            self.blocks.iter().map(move |b| b.shifted(shift))
        })
    }

    /// Every pass's lanes, in the order [`Program::unrolled_blocks`]
    /// addresses them.
    pub(crate) fn unrolled_lanes(&self) -> impl Iterator<Item = &Lane> {
        (0..self.passes).flat_map(move |_| &self.lanes)
    }

    /// Content fingerprint of the whole block sequence with its lanes,
    /// every pass written out — O(blocks × passes), no decoding. Two
    /// programs fingerprint equal iff their IR is identical, so this is
    /// a cheap way to assert that a memoized program set matches a
    /// freshly compiled one (see `lams_core::memo` and
    /// `crates/core/tests/memo.rs`).
    pub fn fingerprint(&self) -> lams_mpsoc::Fingerprint {
        let mut h = lams_mpsoc::FingerprintHasher::new("lams.program");
        h.write_u64(self.ops);
        h.write_len(self.blocks.len() * self.passes as usize);
        // Tags start at 1: tag 0 is retired (as in `.ltr`), and
        // renumbering would move every fingerprint.
        for b in self.unrolled_blocks() {
            match b {
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
        h.write_len(self.lanes.len() * self.passes as usize);
        for lane in self.unrolled_lanes() {
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
        TraceStats {
            accesses: s.accesses * self.passes,
            writes: s.writes * self.passes,
            compute_cycles: s.compute_cycles * self.passes,
        }
    }
}

/// The smallest `p` dividing `blocks.len()` such that `blocks` and
/// `lanes` are one body of `p` blocks and its lanes repeated, or
/// `blocks.len()`. The candidate is the shortest border of the
/// sequence (Knuth–Morris–Pratt failure function), comparing loops by
/// their lanes' contents; it is kept only when the arena is the body's
/// arena repeated and every copy addresses its own copy of it, so that
/// the folded program writes back the same blocks and lanes.
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
    let copies = n / p;
    if copies < 2 || !n.is_multiple_of(p) || !lanes.len().is_multiple_of(copies) {
        return n;
    }
    let body_lanes = lanes.len() / copies;
    let folds = blocks.iter().enumerate().all(|(j, b)| {
        let shift = (j / p * body_lanes) as u32;
        *b == blocks[j % p].shifted(shift)
            && match blocks[j % p] {
                Block::Loop(lp) => (lp.lane_start + lp.lane_len) as usize <= body_lanes,
                Block::Burst { .. } => true,
            }
    }) && lanes
        .iter()
        .enumerate()
        .all(|(i, l)| *l == lanes[i % body_lanes]);
    if folds {
        p
    } else {
        n
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
