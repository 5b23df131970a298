//! Property tests for the trace IR: building a program from any
//! sequence of loop pushes and decoding it back gives the pushes'
//! explicit expansion, `.ltr` serialization round-trips bit-exactly,
//! the batched [`TraceSource`] view of a cursor decodes the same
//! stream as its scalar [`Iterator`] view at every split point, a
//! program's stored passes are exactly its repeated body, and building
//! one pass of a repeated body gives the program every pass builds.

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

/// `passes` copies of a body that opens with a one-lane marker loop
/// below every address `arb_pushes` draws and closes with a burst of
/// cycles it never draws, so no pass merges into the next and the body
/// is the shortest period; with `perturb = Some((pass, push, lane))`
/// that pass moves one lane base of its `push`-th push (the marker at
/// 0), cyclically over the pushes with lanes.
fn repeat(body: &[Push], passes: usize, perturb: Option<(usize, usize, usize)>) -> Vec<Push> {
    let marker = Push {
        lanes: vec![Lane {
            base: 64,
            stride: 0,
            write: false,
        }],
        times: 2,
        cycles: 1,
    };
    let closer = Push {
        lanes: Vec::new(),
        times: 1,
        cycles: 99,
    };
    let mut out = Vec::new();
    for pass in 0..passes {
        let mut one: Vec<Push> = std::iter::once(marker.clone())
            .chain(body.iter().cloned())
            .chain([closer.clone()])
            .collect();
        if let Some((_, push, lane)) = perturb.filter(|&(p, ..)| p == pass) {
            let mut with_lanes: Vec<&mut Push> =
                one.iter_mut().filter(|p| !p.lanes.is_empty()).collect();
            let n = with_lanes.len();
            let p = &mut with_lanes[push % n];
            let n = p.lanes.len();
            p.lanes[lane % n].base += 4;
        }
        out.extend(one);
    }
    out
}

/// `.ltr` bytes of a one-record bundle holding `program`.
fn ltr_bytes(program: &Program) -> Vec<u8> {
    TraceBundle {
        name: "passes".into(),
        records: vec![TraceRecord {
            name: "p0".into(),
            program: program.clone(),
        }],
        edges: vec![],
    }
    .to_bytes()
}

/// `body` with one of four seams: as drawn; bursts of equal cycles at
/// both ends; a stride-0 loop at both ends, which continues itself;
/// or a last loop that the first one continues.
fn with_seam(mut body: Vec<Push>, seam: u8) -> Vec<Push> {
    let lane = |base, stride| Lane {
        base,
        stride,
        write: false,
    };
    let (head, tail) = match seam {
        1 => {
            let burst = Push {
                lanes: Vec::new(),
                times: 2,
                cycles: 7,
            };
            (burst.clone(), burst)
        }
        2 => {
            let still = Push {
                lanes: vec![lane(64, 0)],
                times: 3,
                cycles: 1,
            };
            (still.clone(), still)
        }
        3 => (
            Push {
                lanes: vec![lane(512, 4), lane(1024, -8)],
                times: 3,
                cycles: 2,
            },
            Push {
                lanes: vec![lane(512 - 12, 4), lane(1024 + 24, -8)],
                times: 3,
                cycles: 2,
            },
        ),
        _ => return body,
    };
    body.insert(0, head);
    body.push(tail);
    body
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Building one pass with `ProgramBuilder::passes` gives the program
    /// that pushing every pass builds — the same value, stream, `.ltr`
    /// bytes, fingerprint and pass — also where a pass merges into the
    /// one before it.
    #[test]
    fn one_pass_builds_what_every_pass_builds(
        p in arb_pushes(),
        n in 1u64..6,
        seam in 0u8..4,
    ) {
        let body = with_seam(p.pushes, seam);
        let every: Vec<Push> = (0..n).flat_map(|_| body.iter().cloned()).collect();
        let explicit = build(&every);
        let folded = ProgramBuilder::passes(n, |b| {
            for push in &body {
                b.push_loop(&push.lanes, push.times, push.cycles);
            }
        });
        prop_assert_eq!(folded.iter().collect::<Vec<_>>(), expand(&every));
        prop_assert_eq!(ltr_bytes(&folded), ltr_bytes(&explicit));
        prop_assert_eq!(folded.fingerprint(), explicit.fingerprint());
        prop_assert_eq!(Cursor::new(&folded).pass(), Cursor::new(&explicit).pass());
        prop_assert_eq!(&folded, &explicit);
    }

    /// A body repeated three times or more reports its pass at every
    /// boundary, with the passes left; moving one lane base in any one
    /// pass removes that period.
    #[test]
    fn repeated_bodies_report_their_passes(
        p in arb_pushes(),
        passes in 3usize..8,
        perturb in (0usize..8, 0usize..10, 0usize..4),
    ) {
        let prog = build(&repeat(&p.pushes, passes, None));
        let pass_ops = prog.len_ops() / passes as u64;
        let mut cur = Cursor::new(&prog);
        for left in (1..=passes as u64).rev() {
            prop_assert_eq!(cur.pass(), Some((pass_ops, left)));
            for _ in 0..pass_ops {
                cur.next();
                if !cur.remaining_ops().is_multiple_of(pass_ops) {
                    prop_assert_eq!(cur.pass(), None);
                }
            }
        }
        prop_assert_eq!(cur.pass(), None, "no pass starts at the end");
        let perturb = (perturb.0 % passes, perturb.1, perturb.2);
        let bent = build(&repeat(&p.pushes, passes, Some(perturb)));
        prop_assert_eq!(bent.len_ops(), prog.len_ops());
        prop_assert_eq!(Cursor::new(&bent).pass(), None, "perturbed pass {}", perturb.0);
    }

    /// Wherever a cursor reports a pass, the rest of the stream is that
    /// many copies of one pass, and skipping `k` passes lands where
    /// `k * pass_ops` calls of `next` do — also from a pass boundary
    /// inside the program.
    #[test]
    fn skipped_passes_decode_like_stepped_ones(
        p in arb_pushes(),
        repeated in 0usize..2,
        passes in 3usize..7,
        (from, k) in (0u64..7, 0u64..7),
    ) {
        let pushes = if repeated == 1 { repeat(&p.pushes, passes, None) } else { p.pushes };
        let prog = build(&pushes);
        let ops: Vec<TraceOp> = prog.iter().collect();
        let Some((pass_ops, total)) = Cursor::new(&prog).pass() else {
            prop_assert_eq!(repeated, 0, "a repeated body reports its pass");
            return Ok(());
        };
        prop_assert_eq!(pass_ops * total, ops.len() as u64);
        let n = pass_ops as usize;
        prop_assert!(ops.chunks(n).all(|pass| pass == &ops[..n]), "passes differ");
        let from = from % total;
        let k = k % (total - from + 1);
        let mut skipped = Cursor::new(&prog);
        let mut stepped = Cursor::new(&prog);
        for _ in 0..from * pass_ops {
            skipped.next();
            stepped.next();
        }
        prop_assert_eq!(skipped.pass(), Some((pass_ops, total - from)));
        skipped.skip_passes(k);
        for _ in 0..k * pass_ops {
            stepped.next();
        }
        prop_assert_eq!(skipped.remaining_ops(), stepped.remaining_ops());
        prop_assert_eq!(skipped.pass(), stepped.pass());
        prop_assert_eq!(skipped.collect::<Vec<_>>(), stepped.collect::<Vec<_>>());
    }

    /// The pass survives an `.ltr` round trip, and the encoding of a
    /// repeated program is the one the format has always written.
    #[test]
    fn ltr_round_trip_keeps_the_pass(p in arb_pushes(), passes in 3usize..6) {
        let program = build(&repeat(&p.pushes, passes, None));
        let bundle = TraceBundle {
            name: "passes".into(),
            records: vec![TraceRecord { name: "p0".into(), program }],
            edges: vec![],
        };
        let back = TraceBundle::from_bytes(&bundle.to_bytes()).expect("decodes");
        let pass = |b: &TraceBundle| Cursor::new(&b.records[0].program).pass();
        prop_assert_eq!(pass(&back), pass(&bundle));
        prop_assert!(pass(&back).is_some());
        prop_assert_eq!(
            back.records[0].program.fingerprint(),
            bundle.records[0].program.fingerprint()
        );
    }

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

/// Three passes of a two-block body encode to exactly the bytes version
/// 1 always wrote: the stored pass count is neither serialized nor
/// fingerprinted.
#[test]
fn repeated_program_bytes_and_fingerprint_are_pinned() {
    let mut b = ProgramBuilder::new();
    for _ in 0..3 {
        let lanes = [Lane {
            base: 4096,
            stride: 4,
            write: true,
        }];
        b.push_loop(&lanes, 8, 2);
        b.push_loop(&[], 3, 5);
    }
    let program = b.finish();
    assert_eq!((program.blocks().len(), program.passes()), (2, 3));
    assert_eq!(Cursor::new(&program).pass(), Some((19, 3)));
    let bundle = TraceBundle {
        name: "pin".into(),
        records: vec![TraceRecord {
            name: "p0".into(),
            program,
        }],
        edges: vec![],
    };
    let hex: String = bundle
        .to_bytes()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(hex, PINNED_LTR);
    assert_eq!(
        format!("{}", bundle.records[0].program.fingerprint()),
        PINNED_FINGERPRINT
    );
}

/// Written by the encoder before programs derived their passes.
const PINNED_LTR: &str = "4c54524301000370696e010002703003802008018020080180200801060208020001010503020802010101050302080202010105036fa8d42bb2b45165";
const PINNED_FINGERPRINT: &str = "0b73f0cd65751b6a632ad9b058ea00a1";
