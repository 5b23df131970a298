//! Per-cache, per-core and machine-level statistics.

use std::fmt;
use std::ops::AddAssign;

/// Hit/miss counters of one cache, with its 3C miss classification.
///
/// The three split counters (`cold_misses`, `capacity_misses`,
/// `conflict_misses`) are kept only by a cache that explains its misses
/// ([`crate::Explain`], [`crate::MachineConfig::explain`]); a
/// [`crate::Plain`] one reads 0 on all three.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that found the line resident.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Misses to never-seen lines.
    pub cold_misses: u64,
    /// Misses a fully-associative cache of equal size would share.
    pub capacity_misses: u64,
    /// Misses caused by limited associativity (what the paper's data
    /// re-layout removes).
    pub conflict_misses: u64,
    /// Lines evicted.
    pub evictions: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; 0 for an untouched cache.
    pub fn hit_rate(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

impl AddAssign for CacheStats {
    fn add_assign(&mut self, o: CacheStats) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.cold_misses += o.cold_misses;
        self.capacity_misses += o.capacity_misses;
        self.conflict_misses += o.conflict_misses;
        self.evictions += o.evictions;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits {} misses {} (cold {}, capacity {}, conflict {}), hit rate {:.1}%",
            self.hits,
            self.misses,
            self.cold_misses,
            self.capacity_misses,
            self.conflict_misses,
            self.hit_rate() * 100.0
        )
    }
}

/// Execution counters of one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Cycles spent executing (accesses + compute + memory stalls).
    pub busy_cycles: u64,
    /// Cycles spent waiting on the shared bus (0 without a bus model).
    pub bus_wait_cycles: u64,
    /// Trace operations executed.
    pub ops: u64,
    /// The core's cache statistics.
    pub cache: CacheStats,
}

impl fmt::Display for CoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "busy {} cycles, {} ops, cache: {}",
            self.busy_cycles, self.ops, self.cache
        )
    }
}

/// Whole-machine aggregate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MachineStats {
    /// Sum of per-core cache stats.
    pub cache: CacheStats,
    /// Sum of busy cycles over cores.
    pub total_busy_cycles: u64,
    /// Sum of bus-wait cycles over cores (0 without a bus model).
    pub total_bus_wait_cycles: u64,
    /// Maximum core clock (the makespan so far).
    pub makespan_cycles: u64,
}

impl fmt::Display for MachineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "makespan {} cycles, busy {} cycles, cache: {}",
            self.makespan_cycles, self.total_busy_cycles, self.cache
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..CacheStats::default()
        };
        assert_eq!(s.accesses(), 4);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = CacheStats {
            hits: 1,
            misses: 2,
            cold_misses: 1,
            capacity_misses: 1,
            conflict_misses: 0,
            evictions: 0,
        };
        a += CacheStats {
            hits: 10,
            misses: 1,
            cold_misses: 0,
            capacity_misses: 0,
            conflict_misses: 1,
            evictions: 3,
        };
        assert_eq!(a.hits, 11);
        assert_eq!(a.misses, 3);
        assert_eq!(a.conflict_misses, 1);
        assert_eq!(a.evictions, 3);
    }

    #[test]
    fn display_nonempty() {
        assert!(!CacheStats::default().to_string().is_empty());
        assert!(!CoreStats::default().to_string().is_empty());
        assert!(!MachineStats::default().to_string().is_empty());
    }
}
