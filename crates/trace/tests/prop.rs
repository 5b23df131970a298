//! Property tests for the trace IR: building a program from any
//! sequence of loop pushes and decoding it back gives the pushes'
//! explicit expansion, `.ltr` serialization round-trips bit-exactly,
//! and the batched [`TraceSource`] view of a cursor decodes the same
//! stream as its scalar [`Iterator`] view at every split point.

use proptest::prelude::*;

use lams_mpsoc::{Segment, TraceOp, TraceSource};
use lams_trace::{Cursor, Lane, Program, ProgramBuilder, TraceBundle, TraceRecord};

/// One `ProgramBuilder::push_loop` call.
#[derive(Debug, Clone)]
struct Push {
    lanes: Vec<Lane>,
    times: u64,
    cycles: u64,
}

/// A push sequence, and how many of its pushes must merge into the
/// block before them.
#[derive(Debug, Clone)]
struct Pushes {
    pushes: Vec<Push>,
    merges: usize,
}

/// Random push sequences: compute bursts (no lanes), fresh loops,
/// single-round loops, seamless continuations of the previous push
/// (which must merge when that push ran two rounds or more, or was a
/// burst), and continuations broken by one lane's stride, write flag
/// or base.
fn arb_pushes() -> impl Strategy<Value = Pushes> {
    let lane = (0u64..2048, -12i64..13, 0u8..2).prop_map(|(base, stride, write)| Lane {
        base: base + 4096,
        stride: stride * 4,
        write: write == 1,
    });
    let chunk = (
        0u8..7, // kind: burst / loop / single round / continue / stride, write or base break
        prop::collection::vec(lane, 1..4),
        1u64..12,  // rounds
        0u64..4,   // cycles
        0usize..4, // lane to break
    );
    prop::collection::vec(chunk, 0usize..10).prop_map(|chunks| {
        let mut out = Pushes {
            pushes: Vec::new(),
            merges: 0,
        };
        for (kind, lanes, times, cycles, pick) in chunks {
            let fresh = Push {
                lanes,
                times,
                cycles,
            };
            let push = match (kind, out.pushes.last()) {
                (0, _) => Push {
                    lanes: Vec::new(),
                    ..fresh
                },
                (1, _) | (3.., None) => fresh,
                (2, _) => Push { times: 1, ..fresh },
                (3.., Some(prev)) => {
                    // Round 0 of the new push is round `prev.times` of
                    // the previous one.
                    let mut next = Push {
                        lanes: prev.lanes.clone(),
                        times,
                        cycles: prev.cycles,
                    };
                    for l in &mut next.lanes {
                        l.base = l
                            .base
                            .wrapping_add(l.stride.wrapping_mul(prev.times as i64) as u64);
                    }
                    if kind == 3 {
                        out.merges += usize::from(prev.lanes.is_empty() || prev.times > 1);
                    } else if let Some(l) = next.lanes.get_mut(pick % prev.lanes.len().max(1)) {
                        match kind {
                            4 => {
                                l.stride += 4;
                                next.times = next.times.max(2);
                            }
                            5 => l.write = !l.write,
                            // The next row of a sweep whose rows are not
                            // contiguous.
                            _ => l.base = l.base.wrapping_add(64 * (pick as u64 + 1)),
                        }
                    }
                    next
                }
            };
            out.pushes.push(push);
        }
        out
    })
}

fn build(pushes: &[Push]) -> Program {
    let mut b = ProgramBuilder::new();
    for p in pushes {
        b.push_loop(&p.lanes, p.times, p.cycles);
    }
    b.finish()
}

/// The op stream the pushes describe, written out round by round.
fn expand(pushes: &[Push]) -> Vec<TraceOp> {
    let mut ops = Vec::new();
    for p in pushes {
        for r in 0..p.times {
            for l in &p.lanes {
                ops.push(TraceOp::Access {
                    addr: l.base.wrapping_add(l.stride.wrapping_mul(r as i64) as u64),
                    write: l.write,
                });
            }
            ops.push(TraceOp::Compute(p.cycles));
        }
    }
    ops
}

/// Decodes a cursor through its batched `TraceSource` interface,
/// consuming `chunk` ops at a time (1 = fully op-wise), expanding each
/// peeked segment manually.
fn decode_via_source(prog: &Program, chunk: u64) -> Vec<TraceOp> {
    let mut cur = Cursor::new(prog);
    let mut ops = Vec::new();
    while let Some(seg) = cur.peek_segment() {
        let lanes: Vec<_> = cur.lanes().to_vec();
        let seg_ops = seg.ops(lanes.len());
        let take = chunk.min(seg_ops).max(1);
        // Expand the first `take` ops of the segment.
        for k in 0..take {
            match seg {
                Segment::Access { addr, write } => ops.push(TraceOp::Access { addr, write }),
                Segment::Burst { cycles, .. } => ops.push(TraceOp::Compute(cycles)),
                Segment::Rounds { cycles, .. } => {
                    let m = lanes.len() as u64;
                    let (r, lane) = (k / (m + 1), k % (m + 1));
                    if lane < m {
                        let l = lanes[lane as usize];
                        ops.push(TraceOp::Access {
                            addr: l.addr_at(r),
                            write: l.write,
                        });
                    } else {
                        ops.push(TraceOp::Compute(cycles));
                    }
                }
            }
        }
        cur.advance(take);
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Building a program from pushes and decoding it gives the pushes'
    /// expansion, and every continuation merged into the block before.
    #[test]
    fn record_decode_is_identity(p in arb_pushes()) {
        let prog = build(&p.pushes);
        let ops = expand(&p.pushes);
        prop_assert_eq!(prog.len_ops(), ops.len() as u64);
        let decoded: Vec<TraceOp> = prog.iter().collect();
        prop_assert_eq!(decoded, ops);
        prop_assert!(
            prog.blocks().len() <= p.pushes.len() - p.merges,
            "{} blocks from {} pushes with {} merges",
            prog.blocks().len(),
            p.pushes.len(),
            p.merges
        );
    }

    /// The arithmetic program statistics equal the folded stream stats.
    #[test]
    fn program_stats_match_stream(p in arb_pushes()) {
        let prog = build(&p.pushes);
        let ops = expand(&p.pushes);
        let mut folded = lams_mpsoc::TraceStats::default();
        ops.iter().for_each(|&op| folded.record(op));
        prop_assert_eq!(prog.stats(), folded);
    }

    /// The batched TraceSource view decodes the same stream as the
    /// scalar Iterator view, for any consumption chunk size (including
    /// chunk sizes that split rounds mid-way).
    #[test]
    fn source_view_equals_iterator_view(p in arb_pushes(), chunk in 1u64..17) {
        let prog = build(&p.pushes);
        prop_assert_eq!(decode_via_source(&prog, chunk), expand(&p.pushes));
    }

    /// `.ltr` bytes round-trip bit-exactly, and re-encoding is stable.
    #[test]
    fn ltr_round_trips(streams in prop::collection::vec(arb_pushes(), 1usize..4)) {
        let records: Vec<TraceRecord> = streams
            .iter()
            .enumerate()
            .map(|(i, p)| TraceRecord { name: format!("p{i}"), program: build(&p.pushes) })
            .collect();
        let n = records.len() as u32;
        let bundle = TraceBundle {
            name: "prop".into(),
            records,
            edges: (1..n).map(|i| (i - 1, i)).collect(),
        };
        let bytes = bundle.to_bytes();
        let back = TraceBundle::from_bytes(&bytes).expect("decodes");
        prop_assert_eq!(&back, &bundle);
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    /// Single-byte corruption anywhere in the stream is always caught
    /// (checksum, magic, version or a structural validation error) —
    /// never silently decoded to a *different* bundle.
    #[test]
    fn corruption_never_decodes_silently(p in arb_pushes(), pos_seed in 0u64..10_000, bit in 0u8..8) {
        let bundle = TraceBundle {
            name: "c".into(),
            records: vec![TraceRecord { name: "p0".into(), program: build(&p.pushes) }],
            edges: vec![],
        };
        let mut bytes = bundle.to_bytes();
        let pos = (pos_seed as usize) % bytes.len();
        bytes[pos] ^= 1 << bit;
        match TraceBundle::from_bytes(&bytes) {
            Err(_) => {}
            // A flip in the checksum's own bytes cannot be detected as
            // such... but then the checksum no longer matches the
            // payload, so decode must still fail. Reaching Ok is only
            // legal if we flipped a bit and flipped it back (impossible
            // with a single xor), so any Ok must equal the original —
            // which the checksum makes impossible too. Treat as failure.
            Ok(decoded) => prop_assert_eq!(decoded, bundle, "corrupted stream decoded"),
        }
    }
}
