//! The `.ltr` binary trace format: a versioned little-endian encoding
//! of a [`crate::TraceBundle`] (see `docs/trace-format.md` for the
//! byte-level specification).
//!
//! Layout (version 1):
//!
//! ```text
//! magic    b"LTRC"                      4 bytes
//! version  u16 little-endian            2 bytes   (= 1)
//! payload  (varint-encoded, see below)
//! checksum u64 little-endian            8 bytes   FNV-1a over magic..payload
//! ```
//!
//! All integers in the payload are LEB128 varints; signed fields
//! (strides) are zigzag-mapped first. Strings are a varint length
//! followed by UTF-8 bytes. The payload is:
//!
//! ```text
//! bundle name : string
//! nprocs      : varint
//! nedges      : varint
//! edges       : nedges × (from varint, to varint)
//! processes   : nprocs × process
//!
//! process := name string
//!            nlanes varint, lanes  × { base varint, stride zigzag, write u8 }
//!            nblocks varint, block × { tag u8, fields }
//!
//! block tag 1 (Burst) : cycles varint, repeat varint
//! block tag 2 (Loop)  : times varint, cycles varint,
//!                       lane_start varint, lane_len varint
//! ```
//!
//! Tag 0 is retired: decode refuses it like any unknown tag. Decode
//! also refuses a block that decodes to no ops (`repeat == 0`,
//! `times == 0`) and a loop of no lanes.

use crate::{Block, Error, Lane, LoopBlock, Program, Result, TraceBundle, TraceRecord};

/// Stream magic.
pub const LTR_MAGIC: [u8; 4] = *b"LTRC";
/// Current format version.
pub const LTR_VERSION: u16 = 1;

const TAG_BURST: u8 = 1;
const TAG_LOOP: u8 = 2;

/// FNV-1a over a byte slice (the trailing integrity checksum).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked reader over the payload bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(Error::Truncated)?;
        let s = self.bytes.get(self.pos..end).ok_or(Error::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn byte(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for i in 0..10 {
            let b = self.byte()?;
            // The 10th byte may only carry the final bit of a u64.
            if i == 9 && b > 1 {
                return Err(Error::BadVarint);
            }
            v |= ((b & 0x7F) as u64) << (7 * i);
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(Error::BadVarint)
    }

    fn zigzag(&mut self) -> Result<i64> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    fn boolean(&mut self) -> Result<bool> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(Error::BadBool(b)),
        }
    }

    fn string(&mut self) -> Result<String> {
        let len = self.varint()?;
        let len = usize::try_from(len).map_err(|_| Error::Truncated)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Error::BadUtf8)
    }
}

/// Writes every pass of `p`: the byte layout has no pass count, and
/// decoding folds the repetition back.
fn encode_program(out: &mut Vec<u8>, p: &Program) {
    put_varint(out, p.lanes.len() as u64 * p.passes);
    for l in p.unrolled_lanes() {
        put_varint(out, l.base);
        put_zigzag(out, l.stride);
        put_bool(out, l.write);
    }
    put_varint(out, p.blocks.len() as u64 * p.passes);
    for b in p.unrolled_blocks() {
        match b {
            Block::Burst { cycles, repeat } => {
                out.push(TAG_BURST);
                put_varint(out, cycles);
                put_varint(out, repeat);
            }
            Block::Loop(lp) => {
                out.push(TAG_LOOP);
                put_varint(out, lp.times);
                put_varint(out, lp.cycles);
                put_varint(out, lp.lane_start as u64);
                put_varint(out, lp.lane_len as u64);
            }
        }
    }
}

fn decode_program(r: &mut Reader<'_>) -> Result<Program> {
    let nlanes = r.varint()?;
    // Reject absurd counts before allocating (a truncated stream cannot
    // hold more entries than bytes).
    if nlanes > r.bytes.len() as u64 {
        return Err(Error::Truncated);
    }
    let mut lanes = Vec::with_capacity(nlanes as usize);
    for _ in 0..nlanes {
        lanes.push(Lane {
            base: r.varint()?,
            stride: r.zigzag()?,
            write: r.boolean()?,
        });
    }
    let nblocks = r.varint()?;
    if nblocks > r.bytes.len() as u64 {
        return Err(Error::Truncated);
    }
    let mut blocks = Vec::with_capacity(nblocks as usize);
    let mut ops = 0u64;
    for _ in 0..nblocks {
        let block = match r.byte()? {
            TAG_BURST => Block::Burst {
                cycles: r.varint()?,
                repeat: r.varint()?,
            },
            TAG_LOOP => {
                let lp = LoopBlock {
                    times: r.varint()?,
                    cycles: r.varint()?,
                    lane_start: u32::try_from(r.varint()?)
                        .map_err(|_| Error::LaneRangeOutOfBounds)?,
                    lane_len: u32::try_from(r.varint()?)
                        .map_err(|_| Error::LaneRangeOutOfBounds)?,
                };
                // Access-free repetition must be a Burst: the batched
                // executors rely on loops having at least one lane.
                if lp.lane_len == 0 {
                    return Err(Error::EmptyLoopBlock);
                }
                let end = lp
                    .lane_start
                    .checked_add(lp.lane_len)
                    .ok_or(Error::LaneRangeOutOfBounds)?;
                if end as usize > lanes.len() {
                    return Err(Error::LaneRangeOutOfBounds);
                }
                Block::Loop(lp)
            }
            t => return Err(Error::BadBlockTag(t)),
        };
        // Crafted streams can carry astronomically large counts; keep
        // the program's op accounting (and Block::ops itself) from
        // wrapping instead of trusting the checksum's author.
        let block_ops = match block {
            Block::Burst { repeat, .. } => repeat,
            Block::Loop(lp) => lp
                .times
                .checked_mul(lp.lane_len as u64 + 1)
                .ok_or(Error::OpCountOverflow)?,
        };
        if block_ops == 0 {
            return Err(Error::EmptyBlock);
        }
        ops = ops.checked_add(block_ops).ok_or(Error::OpCountOverflow)?;
        blocks.push(block);
    }
    Ok(Program::from_parts(blocks, lanes, ops, 1))
}

/// Encodes a bundle into `.ltr` bytes.
pub(crate) fn encode(bundle: &TraceBundle) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&LTR_MAGIC);
    out.extend_from_slice(&LTR_VERSION.to_le_bytes());
    put_str(&mut out, &bundle.name);
    put_varint(&mut out, bundle.records.len() as u64);
    put_varint(&mut out, bundle.edges.len() as u64);
    for &(from, to) in &bundle.edges {
        put_varint(&mut out, from as u64);
        put_varint(&mut out, to as u64);
    }
    for rec in &bundle.records {
        put_str(&mut out, &rec.name);
        encode_program(&mut out, &rec.program);
    }
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Decodes `.ltr` bytes into a bundle.
pub(crate) fn decode(bytes: &[u8]) -> Result<TraceBundle> {
    if bytes.len() < LTR_MAGIC.len() + 2 + 8 {
        return Err(Error::Truncated);
    }
    if bytes[..4] != LTR_MAGIC {
        return Err(Error::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != LTR_VERSION {
        return Err(Error::UnsupportedVersion(version));
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    let computed = fnv1a(payload);
    if stored != computed {
        return Err(Error::ChecksumMismatch { stored, computed });
    }
    let mut r = Reader {
        bytes: payload,
        pos: 6,
    };
    let name = r.string()?;
    let nprocs = r.varint()?;
    let nedges = r.varint()?;
    if nprocs > payload.len() as u64 || nedges > payload.len() as u64 {
        return Err(Error::Truncated);
    }
    let nprocs32 = u32::try_from(nprocs).map_err(|_| Error::Truncated)?;
    let mut edges = Vec::with_capacity(nedges as usize);
    for _ in 0..nedges {
        let from = u32::try_from(r.varint()?).map_err(|_| Error::Truncated)?;
        let to = u32::try_from(r.varint()?).map_err(|_| Error::Truncated)?;
        for index in [from, to] {
            if index >= nprocs32 {
                return Err(Error::EdgeOutOfBounds {
                    index,
                    procs: nprocs32,
                });
            }
        }
        edges.push((from, to));
    }
    let mut records = Vec::with_capacity(nprocs as usize);
    for _ in 0..nprocs {
        let name = r.string()?;
        let program = decode_program(&mut r)?;
        records.push(TraceRecord { name, program });
    }
    if r.pos != payload.len() {
        return Err(Error::TrailingBytes(payload.len() - r.pos));
    }
    Ok(TraceBundle {
        name,
        records,
        edges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader {
                bytes: &buf,
                pos: 0,
            };
            assert_eq!(r.varint().unwrap(), v);
            assert_eq!(r.pos, buf.len());
        }
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            put_zigzag(&mut buf, v);
            let mut r = Reader {
                bytes: &buf,
                pos: 0,
            };
            assert_eq!(r.zigzag().unwrap(), v);
        }
    }

    #[test]
    fn overlong_varint_rejected() {
        let mut r = Reader {
            bytes: &[0x80; 11],
            pos: 0,
        };
        assert_eq!(r.varint(), Err(Error::BadVarint));
    }

    /// Wraps one hand-built (possibly degenerate) program in a bundle
    /// and encodes it — the encoder is structure-blind, so this is how
    /// a malicious or buggy writer's bytes look.
    fn encode_raw(blocks: Vec<Block>, lanes: Vec<Lane>) -> Vec<u8> {
        encode(&TraceBundle {
            name: "bad".into(),
            records: vec![TraceRecord {
                name: "p0".into(),
                program: Program {
                    blocks,
                    lanes,
                    passes: 1,
                    ops: 0,
                },
            }],
            edges: vec![],
        })
    }

    #[test]
    fn shared_lanes_stay_one_pass() {
        // Three equal loops over three equal lanes repeat a body in
        // content, but every loop reads the first lane: a folded
        // program would write each pass its own lane back instead.
        let lane = Lane {
            base: 64,
            stride: 4,
            write: false,
        };
        let lp = Block::Loop(LoopBlock {
            times: 2,
            cycles: 1,
            lane_start: 0,
            lane_len: 1,
        });
        let bytes = encode_raw(vec![lp; 3], vec![lane; 3]);
        let bundle = decode(&bytes).unwrap();
        let p = &bundle.records[0].program;
        assert_eq!((p.blocks().len(), p.passes()), (3, 1));
        assert_eq!(encode(&bundle), bytes);
    }

    #[test]
    fn zero_lane_loop_is_rejected() {
        // A checksum-valid stream with Loop{lane_len: 0} must not reach
        // the executors (they divide by the round length).
        let bytes = encode_raw(
            vec![Block::Loop(LoopBlock {
                times: 5,
                cycles: 0,
                lane_start: 0,
                lane_len: 0,
            })],
            vec![],
        );
        assert_eq!(decode(&bytes).unwrap_err(), Error::EmptyLoopBlock);
    }

    #[test]
    fn op_count_overflow_is_rejected() {
        let lane = Lane {
            base: 0,
            stride: 4,
            write: false,
        };
        // times * (lane_len + 1) wraps u64.
        let bytes = encode_raw(
            vec![Block::Loop(LoopBlock {
                times: u64::MAX,
                cycles: 1,
                lane_start: 0,
                lane_len: 1,
            })],
            vec![lane],
        );
        assert_eq!(decode(&bytes).unwrap_err(), Error::OpCountOverflow);
        // Two bursts whose repeats sum past u64::MAX wrap the total.
        let burst = |repeat| Block::Burst { cycles: 1, repeat };
        let bytes = encode_raw(vec![burst(u64::MAX), burst(2)], vec![]);
        assert_eq!(decode(&bytes).unwrap_err(), Error::OpCountOverflow);
    }

    #[test]
    fn retired_tag_and_zero_op_blocks_are_rejected() {
        let lane = Lane {
            base: 0,
            stride: 0,
            write: false,
        };
        let empty_loop = Block::Loop(LoopBlock {
            times: 0,
            cycles: 1,
            lane_start: 0,
            lane_len: 1,
        });
        let bytes = encode_raw(vec![empty_loop], vec![lane]);
        assert_eq!(decode(&bytes).unwrap_err(), Error::EmptyBlock);
        let empty_burst = Block::Burst {
            cycles: 1,
            repeat: 0,
        };
        let bytes = encode_raw(vec![empty_burst], vec![]);
        assert_eq!(decode(&bytes).unwrap_err(), Error::EmptyBlock);
        // Tag 0 in place of a one-op burst's tag 1, resealed: its
        // fields (`cycles`, `repeat`) are three bytes before the sum.
        let mut bytes = encode_raw(
            vec![Block::Burst {
                cycles: 1,
                repeat: 1,
            }],
            vec![],
        );
        let sum_at = bytes.len() - 8;
        assert_eq!(bytes[sum_at - 3], TAG_BURST);
        bytes[sum_at - 3] = 0;
        let sum = fnv1a(&bytes[..sum_at]);
        bytes[sum_at..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(decode(&bytes).unwrap_err(), Error::BadBlockTag(0));
    }
}
