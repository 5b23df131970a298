//! Property tests for the stride-run IR: recording any op stream and
//! decoding it back is the identity, `.ltr` serialization round-trips
//! bit-exactly, and the batched [`TraceSource`] view of a cursor decodes
//! the same stream as its scalar [`Iterator`] view at every split point.

use proptest::prelude::*;

use lams_mpsoc::{Segment, TraceOp, TraceSource};
use lams_trace::{Cursor, Program, ProgramBuilder, TraceBundle, TraceRecord};

/// Random op streams with enough structure for the RLE to engage
/// (strided rounds) and enough irregularity to break it (jumps, mixed
/// writes, stray computes, trailing accesses).
fn arb_ops() -> impl Strategy<Value = Vec<TraceOp>> {
    let chunk = (
        0u64..3,    // kind: strided rounds / burst / irregular
        0u64..2048, // base
        -12i64..13, // element stride (scaled by 4)
        1u64..12,   // length
        0u64..4,    // cycles
        0u8..2,     // write flag
    )
        .prop_map(|(kind, base, stride, len, cycles, write)| {
            let base = base + 4096;
            let mut ops = Vec::new();
            match kind {
                0 => {
                    for i in 0..len {
                        ops.push(TraceOp::Access {
                            addr: base.wrapping_add((stride * 4 * i as i64) as u64),
                            write: write == 1,
                        });
                        ops.push(TraceOp::Compute(cycles));
                    }
                }
                1 => {
                    for _ in 0..len {
                        ops.push(TraceOp::Compute(cycles));
                    }
                }
                _ => {
                    // Irregular: pseudo-random addresses from a weak mix.
                    let mut x = base;
                    for i in 0..len {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                        ops.push(TraceOp::Access {
                            addr: x % 65536,
                            write: (x >> 7) & 1 == 1,
                        });
                        if i % 3 == 0 {
                            ops.push(TraceOp::Compute(cycles + i % 2));
                        }
                    }
                }
            }
            ops
        });
    prop::collection::vec(chunk, 0usize..8).prop_map(|chunks| chunks.concat())
}

fn record(ops: &[TraceOp]) -> Program {
    let mut b = ProgramBuilder::new();
    for &op in ops {
        b.push_op(op);
    }
    b.finish()
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
                Segment::Run {
                    base,
                    stride,
                    write,
                    ..
                } => ops.push(TraceOp::Access {
                    addr: base.wrapping_add(stride.wrapping_mul(k as i64) as u64),
                    write,
                }),
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

    /// Recording an op stream and decoding the program is the identity.
    #[test]
    fn record_decode_is_identity(ops in arb_ops()) {
        let prog = record(&ops);
        prop_assert_eq!(prog.len_ops(), ops.len() as u64);
        let decoded: Vec<TraceOp> = prog.iter().collect();
        prop_assert_eq!(decoded, ops);
    }

    /// The arithmetic program statistics equal the folded stream stats.
    #[test]
    fn program_stats_match_stream(ops in arb_ops()) {
        let prog = record(&ops);
        let mut folded = lams_mpsoc::TraceStats::default();
        ops.iter().for_each(|&op| folded.record(op));
        prop_assert_eq!(prog.stats(), folded);
    }

    /// The batched TraceSource view decodes the same stream as the
    /// scalar Iterator view, for any consumption chunk size (including
    /// chunk sizes that split rounds mid-way).
    #[test]
    fn source_view_equals_iterator_view(ops in arb_ops(), chunk in 1u64..17) {
        let prog = record(&ops);
        prop_assert_eq!(decode_via_source(&prog, chunk), ops);
    }

    /// `.ltr` bytes round-trip bit-exactly, and re-encoding is stable.
    #[test]
    fn ltr_round_trips(streams in prop::collection::vec(arb_ops(), 1usize..4)) {
        let records: Vec<TraceRecord> = streams
            .iter()
            .enumerate()
            .map(|(i, ops)| TraceRecord { name: format!("p{i}"), program: record(ops) })
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
    fn corruption_never_decodes_silently(ops in arb_ops(), pos_seed in 0u64..10_000, bit in 0u8..8) {
        let bundle = TraceBundle {
            name: "c".into(),
            records: vec![TraceRecord { name: "p0".into(), program: record(&ops) }],
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
