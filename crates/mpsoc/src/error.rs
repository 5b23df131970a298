//! Error type for simulator configuration and execution.

use std::fmt;

/// Result alias using the crate's [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by simulator configuration or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A cache/machine parameter is invalid (not a power of two, zero…).
    InvalidConfig(String),
    /// A core index is out of range.
    NoSuchCore {
        /// Requested core.
        core: usize,
        /// Number of cores in the machine.
        num_cores: usize,
    },
    /// [`complete_bus_access`](crate::Machine::complete_bus_access) was
    /// called on a core with no parked bus request.
    NoParkedAccess {
        /// The core in question.
        core: usize,
    },
    /// An op's cost would carry the core's clock past `u64::MAX` (a
    /// trace whose op costs no real run can reach, such as a crafted
    /// `.ltr` bundle).
    ClockOverflow {
        /// The core in question.
        core: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::NoSuchCore { core, num_cores } => {
                write!(f, "core {core} out of range (machine has {num_cores})")
            }
            Error::NoParkedAccess { core } => {
                write!(f, "core {core} has no parked bus access to complete")
            }
            Error::ClockOverflow { core } => {
                write!(f, "core {core}'s clock would overflow u64 cycles")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = Error::NoSuchCore {
            core: 9,
            num_cores: 8,
        };
        assert_eq!(e.to_string(), "core 9 out of range (machine has 8)");
    }
}
