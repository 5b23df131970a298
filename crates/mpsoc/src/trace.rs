//! Memory-reference trace operations.

use std::fmt;

/// One operation of a process's execution trace.
///
/// A trace is a stream of `TraceOp`s (`docs/trace-format.md`); a core
/// executes it op by op, or in batches that end at the same op a
/// per-op walk would stop at, which is what allows quantum preemption
/// at arbitrary points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceOp {
    /// A memory access at a byte address. `write` is informational —
    /// residency and latency treatment is identical (write-allocate).
    Access {
        /// Byte address accessed.
        addr: u64,
        /// Whether the access is a store.
        write: bool,
    },
    /// Pure computation consuming the given number of cycles.
    Compute(u64),
}

impl TraceOp {
    /// A read access.
    pub fn read(addr: u64) -> Self {
        TraceOp::Access { addr, write: false }
    }

    /// A write access.
    pub fn write(addr: u64) -> Self {
        TraceOp::Access { addr, write: true }
    }

    /// A computation burst.
    pub fn compute(cycles: u64) -> Self {
        TraceOp::Compute(cycles)
    }

    /// The accessed address, when the op is an access.
    pub fn addr(&self) -> Option<u64> {
        match self {
            TraceOp::Access { addr, .. } => Some(*addr),
            TraceOp::Compute(_) => None,
        }
    }

    /// Whether this op is a memory access.
    pub fn is_access(&self) -> bool {
        matches!(self, TraceOp::Access { .. })
    }
}

impl fmt::Display for TraceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceOp::Access { addr, write: false } => write!(f, "R 0x{addr:x}"),
            TraceOp::Access { addr, write: true } => write!(f, "W 0x{addr:x}"),
            TraceOp::Compute(c) => write!(f, "C {c}"),
        }
    }
}

/// Summary statistics of a trace (computed while streaming).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Number of memory accesses.
    pub accesses: u64,
    /// Number of store accesses.
    pub writes: u64,
    /// Total pure-compute cycles.
    pub compute_cycles: u64,
}

impl TraceStats {
    /// Folds one op into the summary.
    pub fn record(&mut self, op: TraceOp) {
        match op {
            TraceOp::Access { write, .. } => {
                self.accesses += 1;
                if write {
                    self.writes += 1;
                }
            }
            TraceOp::Compute(c) => self.compute_cycles += c,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(TraceOp::read(4).addr(), Some(4));
        assert!(TraceOp::read(4).is_access());
        assert!(!TraceOp::compute(10).is_access());
        assert_eq!(TraceOp::compute(10).addr(), None);
    }

    #[test]
    fn stats_fold() {
        let mut s = TraceStats::default();
        for op in [
            TraceOp::read(0),
            TraceOp::write(32),
            TraceOp::compute(5),
            TraceOp::compute(7),
        ] {
            s.record(op);
        }
        assert_eq!(s.accesses, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.compute_cycles, 12);
    }

    #[test]
    fn display() {
        assert_eq!(TraceOp::read(255).to_string(), "R 0xff");
        assert_eq!(TraceOp::write(16).to_string(), "W 0x10");
        assert_eq!(TraceOp::compute(3).to_string(), "C 3");
    }
}
