//! Batched trace sources: the interface between compiled stride-run
//! trace programs (the `lams-trace` IR) and the machine's batched
//! executor [`crate::Machine::exec_source_until`].
//!
//! A scalar trace hands the machine one [`crate::TraceOp`] at a time, so
//! every simulated memory reference pays iterator dispatch, affine
//! address evaluation and a full cache probe. A [`TraceSource`] instead
//! exposes the *structure* of the op stream — strided runs, compute
//! bursts and innermost-loop rounds — which lets the executor:
//!
//! * collapse consecutive same-line accesses of a [`Segment::Run`] into
//!   one probe plus an arithmetic bulk update (immediately re-accessed
//!   lines always hit);
//! * collapse whole [`Segment::Rounds`] windows (one access per lane
//!   plus a compute op, repeated) into a single bulk update while every
//!   lane stays inside its current cache line — hits never evict, so
//!   once a full round hits, residency is provably stable until a lane
//!   crosses a line boundary.
//!
//! Both collapses are **exact**: final cache state (way stamps, shadow
//! order, statistics), core clock, per-op horizon checks and the
//! preemption key ([`crate::BatchOutcome::preempt_key`]) are
//! bit-identical to executing the decoded ops one at a time.
//! Differential property tests in `crates/mpsoc/tests/prop.rs` hold
//! that contract over random programs, against the naive per-op
//! machine of `crates/mpsoc/tests/support/naive.rs`.

/// One lane of a [`Segment::Rounds`] segment: the access template
/// `addr + r * stride` for round `r` of the segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentLane {
    /// Address accessed at round 0 of the segment.
    pub addr: u64,
    /// Per-round address increment (may be negative or zero).
    pub stride: i64,
    /// Whether the lane's accesses are stores (informational; residency
    /// treatment is identical).
    pub write: bool,
}

impl SegmentLane {
    /// The lane's address at round `r` of the segment.
    #[inline]
    pub fn addr_at(&self, r: u64) -> u64 {
        self.addr
            .wrapping_add(self.stride.wrapping_mul(r as i64) as u64)
    }
}

/// One structurally batched chunk of a trace-op stream.
///
/// Every segment decodes to a definite sequence of [`crate::TraceOp`]s;
/// [`Segment::ops`] gives its length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    /// `count` consecutive accesses at `base`, `base + stride`,
    /// `base + 2*stride`, … with nothing in between.
    Run {
        /// Address of the first access.
        base: u64,
        /// Per-access address increment.
        stride: i64,
        /// Number of accesses (`> 0`).
        count: u64,
        /// Whether the accesses are stores.
        write: bool,
    },
    /// `repeat` consecutive `Compute(cycles)` ops.
    Burst {
        /// Cycles per compute op.
        cycles: u64,
        /// Number of compute ops (`> 0`).
        repeat: u64,
    },
    /// `rounds` repetitions of: one access per lane (in lane order, see
    /// [`TraceSource::lanes`]), then one `Compute(cycles)` op — the
    /// shape of an innermost affine loop.
    Rounds {
        /// Number of rounds (`> 0`). Lane count must be `> 0` (an
        /// access-free loop is a [`Segment::Burst`]).
        rounds: u64,
        /// Cycles of the compute op closing each round.
        cycles: u64,
    },
}

impl Segment {
    /// Number of trace ops the segment decodes to, given the source's
    /// current lane count (only [`Segment::Rounds`] uses it).
    pub fn ops(&self, lanes: usize) -> u64 {
        match *self {
            Segment::Run { count, .. } => count,
            Segment::Burst { repeat, .. } => repeat,
            Segment::Rounds { rounds, .. } => rounds * (lanes as u64 + 1),
        }
    }
}

/// A trace-op stream exposed as batched segments, with an explicit
/// consumption cursor so the executor can stop mid-segment at an event
/// horizon and resume later at the exact op.
pub trait TraceSource {
    /// The segment starting at the cursor, **without** consuming it;
    /// `None` when the trace is exhausted. Repeated calls without an
    /// intervening [`TraceSource::advance`] return the same segment.
    fn peek_segment(&mut self) -> Option<Segment>;

    /// Lane templates for the most recently peeked [`Segment::Rounds`]
    /// (addresses are relative to that segment's round 0).
    fn lanes(&self) -> &[SegmentLane];

    /// Consumes `ops` trace ops; at most the peeked segment's length
    /// ([`Segment::ops`]).
    fn advance(&mut self, ops: u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_addressing_handles_signs() {
        let up = SegmentLane {
            addr: 100,
            stride: 8,
            write: false,
        };
        assert_eq!(up.addr_at(0), 100);
        assert_eq!(up.addr_at(3), 124);
        let down = SegmentLane {
            addr: 100,
            stride: -8,
            write: true,
        };
        assert_eq!(down.addr_at(2), 84);
        let flat = SegmentLane {
            addr: 7,
            stride: 0,
            write: false,
        };
        assert_eq!(flat.addr_at(1_000_000), 7);
    }

    #[test]
    fn segment_op_counts() {
        let run = Segment::Run {
            base: 0,
            stride: 4,
            count: 9,
            write: false,
        };
        assert_eq!(run.ops(0), 9);
        let burst = Segment::Burst {
            cycles: 3,
            repeat: 5,
        };
        assert_eq!(burst.ops(7), 5);
        let rounds = Segment::Rounds {
            rounds: 10,
            cycles: 1,
        };
        assert_eq!(rounds.ops(3), 40);
    }
}
