//! Error type for `.ltr` decoding.

use std::fmt;

/// Result alias using the crate's [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors decoding an `.ltr` byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The stream does not start with the `LTRC` magic.
    BadMagic,
    /// The format version is newer than this reader understands.
    UnsupportedVersion(u16),
    /// The stream ended inside a field.
    Truncated,
    /// A varint ran past 10 bytes (not a canonical LEB128 u64).
    BadVarint,
    /// An unknown block tag byte.
    BadBlockTag(u8),
    /// A boolean field held a byte other than 0 or 1.
    BadBool(u8),
    /// A loop block's lane range lies outside the lane arena.
    LaneRangeOutOfBounds,
    /// A loop block declares zero lanes (access-free repetition must be
    /// encoded as a burst block; the executors rely on it).
    EmptyLoopBlock,
    /// A block decodes to no ops: a loop of zero rounds or a burst of
    /// zero repeats (the builder never writes one).
    EmptyBlock,
    /// The program's total decoded op count overflows `u64`.
    OpCountOverflow,
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// The trailing FNV-1a checksum does not match the payload.
    ChecksumMismatch {
        /// Checksum stored in the stream.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// Bytes remain after the checksum.
    TrailingBytes(usize),
    /// An edge references a process index outside the bundle.
    EdgeOutOfBounds {
        /// The offending process index.
        index: u32,
        /// Number of processes in the bundle.
        procs: u32,
    },
    /// File I/O failed (message only; `std::io::Error` is not `Clone`).
    Io(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::BadMagic => write!(f, "not an .ltr stream (bad magic)"),
            Error::UnsupportedVersion(v) => write!(f, "unsupported .ltr version {v}"),
            Error::Truncated => write!(f, ".ltr stream truncated"),
            Error::BadVarint => write!(f, "malformed varint in .ltr stream"),
            Error::BadBlockTag(t) => write!(f, "unknown .ltr block tag {t}"),
            Error::BadBool(b) => write!(f, "invalid boolean byte {b} in .ltr stream"),
            Error::LaneRangeOutOfBounds => write!(f, ".ltr loop block lane range out of bounds"),
            Error::EmptyLoopBlock => write!(f, ".ltr loop block declares zero lanes"),
            Error::EmptyBlock => write!(f, ".ltr block decodes to no ops"),
            Error::OpCountOverflow => write!(f, ".ltr program op count overflows u64"),
            Error::BadUtf8 => write!(f, ".ltr string is not valid UTF-8"),
            Error::ChecksumMismatch { stored, computed } => write!(
                f,
                ".ltr checksum mismatch: stored 0x{stored:016x}, computed 0x{computed:016x}"
            ),
            Error::TrailingBytes(n) => write!(f, "{n} trailing bytes after .ltr checksum"),
            Error::EdgeOutOfBounds { index, procs } => write!(
                f,
                ".ltr edge references process {index} of a {procs}-process bundle"
            ),
            Error::Io(msg) => write!(f, ".ltr i/o error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}
