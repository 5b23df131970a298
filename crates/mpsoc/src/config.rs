//! Cache and machine configuration, with the paper's Table 2 defaults.

use std::fmt;

use crate::{Error, Result};

/// Geometry of one private L1 data cache.
///
/// The paper's "cache page" (footnote 1: *size of a cache page = cache
/// size / cache associativity*) is exposed as [`CacheConfig::page_bytes`];
/// it is the unit the Figure 4 data re-layout works in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes (power of two).
    pub size_bytes: u64,
    /// Number of ways (power of two, `>= 1`).
    pub associativity: u64,
    /// Line (block) size in bytes (power of two).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// The paper's Table 2 cache: 8 KB, 2-way. Table 2 does not state a
    /// line size; 32 B is typical for embedded L1s of the period and is
    /// used throughout.
    pub fn paper_default() -> Self {
        CacheConfig {
            size_bytes: 8 * 1024,
            associativity: 2,
            line_bytes: 32,
        }
    }

    /// Creates a config after validating the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] unless all parameters are powers
    /// of two, `line_bytes <= size_bytes`, and
    /// `associativity * line_bytes <= size_bytes`.
    pub fn new(size_bytes: u64, associativity: u64, line_bytes: u64) -> Result<Self> {
        let c = CacheConfig {
            size_bytes,
            associativity,
            line_bytes,
        };
        c.validate()?;
        Ok(c)
    }

    /// Validates the geometry (see [`CacheConfig::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] with a description of the
    /// offending parameter.
    pub fn validate(&self) -> Result<()> {
        let pow2 = |x: u64| x != 0 && x & (x - 1) == 0;
        if !pow2(self.size_bytes) {
            return Err(Error::InvalidConfig(format!(
                "cache size {} is not a power of two",
                self.size_bytes
            )));
        }
        if !pow2(self.associativity) {
            return Err(Error::InvalidConfig(format!(
                "associativity {} is not a power of two",
                self.associativity
            )));
        }
        if !pow2(self.line_bytes) {
            return Err(Error::InvalidConfig(format!(
                "line size {} is not a power of two",
                self.line_bytes
            )));
        }
        if self.associativity * self.line_bytes > self.size_bytes {
            return Err(Error::InvalidConfig(
                "associativity * line size exceeds cache size".into(),
            ));
        }
        Ok(())
    }

    /// Total number of cache lines.
    pub fn num_lines(&self) -> u64 {
        self.size_bytes / self.line_bytes
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.num_lines() / self.associativity
    }

    /// The paper's cache-page size: `size / associativity`.
    pub fn page_bytes(&self) -> u64 {
        self.size_bytes / self.associativity
    }

    /// Line index of a byte address.
    ///
    /// Uses shift indexing — valid because [`CacheConfig::new`] /
    /// [`CacheConfig::validate`] guarantee `line_bytes` is a power of
    /// two. Constructing an unvalidated config by literal and calling
    /// this with a non-power-of-two geometry returns garbage; the
    /// simulator ([`crate::Cache::new`]) validates at construction.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_bytes.trailing_zeros()
    }

    /// Set index of a byte address (mask indexing; see
    /// [`CacheConfig::line_of`] for the power-of-two requirement).
    #[inline]
    pub fn set_of(&self, addr: u64) -> u64 {
        self.line_of(addr) & (self.num_sets() - 1)
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::paper_default()
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}KB {}-way, {}B lines",
            self.size_bytes / 1024,
            self.associativity,
            self.line_bytes
        )
    }
}

/// How the shared bus orders off-chip transfer requests.
///
/// Both modes are deterministic and both are simulated the same way: a
/// miss on a contended bus parks its core, and the grant is taken when
/// the parked core reaches the front of the scheduling order. They
/// differ in *when* a request is granted, and hence in the key a parked
/// core waits at (see `docs/bus-model.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BusMode {
    /// First-come-first-served: every request is granted at
    /// `max(request_time, bus_free)`, in the exact global `(pre-op
    /// clock, core-id)` order of the missing accesses. This is the
    /// reference model.
    #[default]
    Fcfs,
    /// Time-windowed arbitration: a request arriving at time `r` is
    /// latched at the next epoch boundary `ceil(r / window) * window`
    /// and granted there, with all same-boundary requests served in
    /// `(request-time, core-id)` order. `window_cycles == 1` is
    /// bit-identical to [`BusMode::Fcfs`].
    Windowed {
        /// Epoch length in cycles (`>= 1`).
        window_cycles: u64,
    },
}

impl fmt::Display for BusMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusMode::Fcfs => write!(f, "fcfs"),
            BusMode::Windowed { window_cycles } => write!(f, "windowed/{window_cycles}"),
        }
    }
}

/// Shared-bus contention model for off-chip accesses (an optional
/// extension beyond Table 2's fixed-latency memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BusConfig {
    /// Cycles the bus is occupied per off-chip transfer. Zero means the
    /// bus never contends: every request is granted immediately in
    /// either mode, equivalent to `bus: None`.
    pub occupancy_cycles: u64,
    /// Request-ordering discipline (defaults to [`BusMode::Fcfs`]).
    pub mode: BusMode,
}

impl BusConfig {
    /// First-come-first-served bus occupying `occupancy_cycles` per
    /// transfer.
    pub fn fcfs(occupancy_cycles: u64) -> Self {
        BusConfig {
            occupancy_cycles,
            mode: BusMode::Fcfs,
        }
    }

    /// Time-windowed bus: transfers are granted at `window_cycles`
    /// epoch boundaries.
    pub fn windowed(occupancy_cycles: u64, window_cycles: u64) -> Self {
        BusConfig {
            occupancy_cycles,
            mode: BusMode::Windowed { window_cycles },
        }
    }

    /// The arbitration window, when windowed.
    pub fn window(&self) -> Option<u64> {
        match self.mode {
            BusMode::Fcfs => None,
            BusMode::Windowed { window_cycles } => Some(window_cycles),
        }
    }

    /// Whether a miss parks until the scheduling engine grants it
    /// ([`crate::BatchOutcome::parked`]): any contended bus, in either
    /// mode. A zero-occupancy bus never waits, so its grants are
    /// immediate and order-independent.
    pub fn defers(&self) -> bool {
        self.occupancy_cycles > 0
    }

    /// The epoch length when grants wait for epoch boundaries: a window
    /// of at least two cycles. FCFS and a 1-cycle window (`B(r) = r`)
    /// have no epochs — a request is granted at `max(r, bus_free)`.
    pub(crate) fn epoch(&self) -> Option<u64> {
        self.window().filter(|&w| w > 1)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a zero-cycle window.
    pub fn validate(&self) -> Result<()> {
        if let BusMode::Windowed { window_cycles: 0 } = self.mode {
            return Err(Error::InvalidConfig(
                "bus window must be at least one cycle".into(),
            ));
        }
        Ok(())
    }
}

impl std::str::FromStr for BusConfig {
    type Err = Error;

    /// Parses a bus spec, `fcfs:OCC` or `windowed:OCC:WINDOW` (the mode
    /// name in any case), into a validated configuration.
    fn from_str(s: &str) -> Result<Self> {
        let bad = || {
            Error::InvalidConfig(format!(
                "bus spec '{s}' is not fcfs:OCC or windowed:OCC:WINDOW"
            ))
        };
        let mut parts = s.split(':');
        let mode = parts.next().unwrap_or_default().to_ascii_lowercase();
        let mut cycles = || parts.next().and_then(|p| p.parse().ok()).ok_or_else(bad);
        let bus = match mode.as_str() {
            "fcfs" => BusConfig::fcfs(cycles()?),
            "windowed" => BusConfig::windowed(cycles()?, cycles()?),
            _ => return Err(bad()),
        };
        if parts.next().is_some() {
            return Err(bad());
        }
        bus.validate()?;
        Ok(bus)
    }
}

impl fmt::Display for BusConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} x{}cy", self.mode, self.occupancy_cycles)
    }
}

/// Full machine description (Table 2 of the paper plus extensions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Number of processor cores.
    pub num_cores: usize,
    /// Private per-core L1 data cache.
    pub cache: CacheConfig,
    /// Cache access latency in cycles (Table 2: 2).
    pub hit_latency: u64,
    /// Off-chip memory access latency in cycles (Table 2: 75).
    pub miss_latency: u64,
    /// Core clock in Hz (Table 2: 200 MHz).
    pub clock_hz: u64,
    /// Optional shared-bus contention; `None` models the paper's
    /// fixed-latency memory.
    pub bus: Option<BusConfig>,
}

impl MachineConfig {
    /// Table 2: 8 cores, 8 KB 2-way caches, 2-cycle hit, 75-cycle miss,
    /// 200 MHz, no bus contention.
    pub fn paper_default() -> Self {
        MachineConfig {
            num_cores: 8,
            cache: CacheConfig::paper_default(),
            hit_latency: 2,
            miss_latency: 75,
            clock_hz: 200_000_000,
            bus: None,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for zero cores/latencies/clock or
    /// invalid cache geometry.
    pub fn validate(&self) -> Result<()> {
        if self.num_cores == 0 {
            return Err(Error::InvalidConfig(
                "machine needs at least one core".into(),
            ));
        }
        if self.clock_hz == 0 {
            return Err(Error::InvalidConfig("clock must be non-zero".into()));
        }
        if self.hit_latency == 0 {
            return Err(Error::InvalidConfig("hit latency must be non-zero".into()));
        }
        if self.miss_latency < self.hit_latency {
            return Err(Error::InvalidConfig(
                "miss latency below hit latency".into(),
            ));
        }
        if let Some(bus) = &self.bus {
            bus.validate()?;
        }
        self.cache.validate()
    }

    /// Converts a cycle count to seconds at this machine's clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz as f64
    }

    /// Builder-style override of the core count.
    pub fn with_cores(mut self, n: usize) -> Self {
        self.num_cores = n;
        self
    }

    /// Builder-style override of the cache geometry.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Builder-style bus contention.
    pub fn with_bus(mut self, bus: BusConfig) -> Self {
        self.bus = Some(bus);
        self
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::paper_default()
    }
}

impl fmt::Display for MachineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cores @ {} MHz, cache {}, hit {}cy, miss {}cy",
            self.num_cores,
            self.clock_hz / 1_000_000,
            self.cache,
            self.hit_latency,
            self.miss_latency
        )?;
        if let Some(bus) = &self.bus {
            write!(f, ", bus {bus}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table2() {
        let m = MachineConfig::paper_default();
        assert_eq!(m.num_cores, 8);
        assert_eq!(m.cache.size_bytes, 8192);
        assert_eq!(m.cache.associativity, 2);
        assert_eq!(m.hit_latency, 2);
        assert_eq!(m.miss_latency, 75);
        assert_eq!(m.clock_hz, 200_000_000);
        m.validate().unwrap();
    }

    #[test]
    fn cache_derived_geometry() {
        let c = CacheConfig::paper_default();
        assert_eq!(c.num_lines(), 256);
        assert_eq!(c.num_sets(), 128);
        // Footnote 1: page = size / assoc = 4 KB.
        assert_eq!(c.page_bytes(), 4096);
        assert_eq!(c.line_of(64), 2);
        assert_eq!(c.set_of(64), 2);
        // Address one page apart maps to the same set.
        assert_eq!(c.set_of(100), c.set_of(100 + c.page_bytes()));
    }

    #[test]
    fn validation_rejects_bad_geometry() {
        assert!(CacheConfig::new(8000, 2, 32).is_err()); // not pow2
        assert!(CacheConfig::new(8192, 3, 32).is_err());
        assert!(CacheConfig::new(8192, 2, 33).is_err());
        assert!(CacheConfig::new(64, 4, 32).is_err()); // assoc*line > size
        assert!(CacheConfig::new(8192, 2, 32).is_ok());
    }

    #[test]
    fn machine_validation() {
        let mut m = MachineConfig::paper_default();
        m.num_cores = 0;
        assert!(m.validate().is_err());
        let mut m = MachineConfig::paper_default();
        m.miss_latency = 1;
        assert!(m.validate().is_err());
    }

    #[test]
    fn cycle_conversion() {
        let m = MachineConfig::paper_default();
        assert_eq!(m.cycles_to_seconds(200_000_000), 1.0);
        assert_eq!(m.cycles_to_seconds(100_000_000), 0.5);
    }

    #[test]
    fn display() {
        let m = MachineConfig::paper_default();
        let s = m.to_string();
        assert!(s.contains("8 cores @ 200 MHz"));
        assert!(s.contains("8KB 2-way"));
        assert!(!s.contains("bus"));
        let s = m.with_bus(BusConfig::windowed(20, 64)).to_string();
        assert!(s.contains("bus windowed/64 x20cy"), "{s}");
    }

    #[test]
    fn bus_config_validation() {
        assert!(BusConfig::fcfs(0).validate().is_ok());
        assert!(BusConfig::windowed(20, 1).validate().is_ok());
        assert!(BusConfig::windowed(20, 0).validate().is_err());
        let m = MachineConfig::paper_default().with_bus(BusConfig::windowed(20, 0));
        assert!(m.validate().is_err());
    }

    #[test]
    fn bus_spec_parsing() {
        let parse = |s: &str| s.parse::<BusConfig>().ok();
        assert_eq!(parse("fcfs:20"), Some(BusConfig::fcfs(20)));
        assert_eq!(parse("windowed:20:256"), Some(BusConfig::windowed(20, 256)));
        assert_eq!(parse("FCFS:7"), Some(BusConfig::fcfs(7)));
        assert_eq!(parse("fcfs"), None);
        assert_eq!(parse("fcfs:x"), None);
        assert_eq!(parse("windowed:20"), None);
        assert_eq!(parse("windowed:20:0"), None, "zero window invalid");
        assert_eq!(parse("windowed:20:256:9"), None);
        assert_eq!(parse("tdm:20"), None);
        assert_eq!(parse(""), None);
    }

    #[test]
    fn bus_config_accessors() {
        assert_eq!(BusConfig::fcfs(9).window(), None);
        assert_eq!(BusConfig::windowed(9, 128).window(), Some(128));
        assert_eq!(BusMode::default(), BusMode::Fcfs);
    }
}
