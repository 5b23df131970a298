//! Bundles: a whole workload's compiled traces plus its dependence
//! edges — the unit the `.ltr` format stores and the replay path runs.

use std::path::Path;

use crate::{ltr, Program, Result};

/// One process's compiled trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceRecord {
    /// Human-readable process name (`"app.stage.k"`).
    pub name: String,
    /// The compiled trace program.
    pub program: Program,
}

/// A recorded workload: per-process trace programs plus the dependence
/// edges of the extended process graph. Everything a scheduling engine
/// needs to replay the workload under any policy — including traces
/// captured outside this simulator, once lowered to the IR.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceBundle {
    /// Workload name.
    pub name: String,
    /// Per-process records; the index is the process id.
    pub records: Vec<TraceRecord>,
    /// Dependence edges `(from, to)` over record indices.
    pub edges: Vec<(u32, u32)>,
}

impl TraceBundle {
    /// Total trace ops across all records.
    pub fn total_ops(&self) -> u64 {
        self.records.iter().map(|r| r.program.len_ops()).sum()
    }

    /// Serializes the bundle into `.ltr` bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        ltr::encode(self)
    }

    /// Decodes a bundle from `.ltr` bytes.
    ///
    /// # Errors
    ///
    /// Returns a decode [`crate::Error`] for malformed, truncated or
    /// corrupted streams.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        ltr::decode(bytes)
    }

    /// Writes the bundle to a file.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Io`] when the write fails.
    pub fn write_file(&self, path: impl AsRef<Path>) -> Result<()> {
        std::fs::write(path, self.to_bytes()).map_err(|e| crate::Error::Io(e.to_string()))
    }

    /// Reads a bundle from a file.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Io`] when the read fails, or a decode
    /// error for malformed content.
    pub fn read_file(path: impl AsRef<Path>) -> Result<Self> {
        let bytes = std::fs::read(path).map_err(|e| crate::Error::Io(e.to_string()))?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Error, Lane, ProgramBuilder};

    fn sample() -> TraceBundle {
        let mut b0 = ProgramBuilder::new();
        b0.push_loop(
            &[
                Lane {
                    base: 0,
                    stride: 4,
                    write: false,
                },
                Lane {
                    base: 4096,
                    stride: -8,
                    write: true,
                },
            ],
            100,
            7,
        );
        let mut b1 = ProgramBuilder::new();
        b1.push_loop(&[], 1, 3);
        b1.push_loop(
            &[Lane {
                base: 64,
                stride: 0,
                write: false,
            }],
            1,
            0,
        );
        TraceBundle {
            name: "sample".into(),
            records: vec![
                TraceRecord {
                    name: "p0".into(),
                    program: b0.finish(),
                },
                TraceRecord {
                    name: "p1".into(),
                    program: b1.finish(),
                },
            ],
            edges: vec![(0, 1)],
        }
    }

    #[test]
    fn bytes_round_trip_exactly() {
        let b = sample();
        let bytes = b.to_bytes();
        let back = TraceBundle::from_bytes(&bytes).unwrap();
        assert_eq!(back, b);
        // Re-encoding is byte-stable.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = sample().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            TraceBundle::from_bytes(&bytes),
            Err(Error::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_and_bad_magic_are_detected() {
        let bytes = sample().to_bytes();
        assert_eq!(
            TraceBundle::from_bytes(&bytes[..bytes.len() - 1]).unwrap_err(),
            Error::ChecksumMismatch {
                stored: u64::from_le_bytes(
                    bytes[bytes.len() - 9..bytes.len() - 1].try_into().unwrap()
                ),
                computed: {
                    // Recompute over the shortened payload.
                    let payload = &bytes[..bytes.len() - 9];
                    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
                    for &x in payload {
                        h ^= x as u64;
                        h = h.wrapping_mul(0x0000_0100_0000_01B3);
                    }
                    h
                }
            }
        );
        assert_eq!(TraceBundle::from_bytes(&[]).unwrap_err(), Error::Truncated);
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(TraceBundle::from_bytes(&bad).unwrap_err(), Error::BadMagic);
        let mut newer = bytes;
        newer[4] = 0xFF;
        // Version is checked before the checksum: future readers must be
        // able to say "too new" without knowing the payload rules.
        assert_eq!(
            TraceBundle::from_bytes(&newer).unwrap_err(),
            Error::UnsupportedVersion(u16::from_le_bytes([0xFF, newer[5]]))
        );
    }

    #[test]
    fn edge_bounds_are_validated() {
        let mut b = sample();
        b.edges.push((0, 9));
        let bytes = b.to_bytes();
        assert_eq!(
            TraceBundle::from_bytes(&bytes).unwrap_err(),
            Error::EdgeOutOfBounds { index: 9, procs: 2 }
        );
    }
}
