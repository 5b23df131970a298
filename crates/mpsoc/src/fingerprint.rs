//! Content fingerprints: 128-bit structural hashes used as memo keys.
//!
//! The sweep subsystem memoizes expensive artifacts (compiled trace
//! programs, sharing matrices, pilot runs) across jobs. Memo keys must
//! be **content** fingerprints — two workloads or layouts that describe
//! the same simulation must key to the same slot no matter how they were
//! constructed, and any structural difference must (with overwhelming
//! probability) change the key.
//!
//! [`FingerprintHasher`] runs two independent 64-bit FNV-1a streams over
//! the same byte sequence, giving a 128-bit [`Fingerprint`]. FNV-1a is
//! not cryptographic; it is deterministic, dependency-free, allocation
//! free, and at 128 bits the collision probability for the handful of
//! artifacts a sweep produces is negligible (birthday bound ~2⁻⁶⁴ per
//! pair). Correctness therefore *relies* on fingerprints, which is why
//! the field-by-field feeding below is length-prefixed: every variable
//! length component is preceded by its length so concatenation ambiguity
//! cannot alias two different structures.

use std::fmt;

/// A 128-bit content fingerprint (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub u64, pub u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0, self.1)
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
/// Offset basis of the second stream: the first basis re-hashed through
/// one FNV step with a distinct seed byte, so the two streams never
/// agree.
const FNV_OFFSET_B: u64 = (FNV_OFFSET ^ 0xA5).wrapping_mul(FNV_PRIME);

/// Incremental builder for [`Fingerprint`]s.
///
/// All `write_*` helpers feed fixed-width little-endian encodings, so a
/// fingerprint is a pure function of the value sequence fed in (never of
/// platform layout). Feed variable-length data through [`write_len`]
/// first (or use [`write_bytes`]/[`write_str`], which do so themselves).
///
/// [`write_len`]: FingerprintHasher::write_len
/// [`write_bytes`]: FingerprintHasher::write_bytes
/// [`write_str`]: FingerprintHasher::write_str
#[derive(Debug, Clone)]
pub struct FingerprintHasher {
    a: u64,
    b: u64,
}

impl FingerprintHasher {
    /// A fresh hasher, optionally domain-separated by `tag` so e.g. a
    /// workload and a layout with coincidentally equal byte streams can
    /// never collide.
    pub fn new(tag: &str) -> Self {
        let mut h = FingerprintHasher {
            a: FNV_OFFSET,
            b: FNV_OFFSET_B,
        };
        h.write_str(tag);
        h
    }

    /// Feeds raw bytes *without* a length prefix. Only use for
    /// fixed-width data; variable-length payloads go through
    /// [`FingerprintHasher::write_bytes`].
    pub fn write_raw(&mut self, bytes: &[u8]) {
        for &x in bytes {
            self.a = (self.a ^ x as u64).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ x as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a length-prefixed byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_len(bytes.len());
        self.write_raw(bytes);
    }

    /// Feeds a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Feeds a collection length (`usize` as `u64`).
    pub fn write_len(&mut self, len: usize) {
        self.write_u64(len as u64);
    }

    /// Feeds one `u64`.
    pub fn write_u64(&mut self, x: u64) {
        self.write_raw(&x.to_le_bytes());
    }

    /// Feeds one `i64`.
    pub fn write_i64(&mut self, x: i64) {
        self.write_raw(&x.to_le_bytes());
    }

    /// Feeds one `u32`.
    pub fn write_u32(&mut self, x: u32) {
        self.write_raw(&x.to_le_bytes());
    }

    /// Feeds one `bool`.
    pub fn write_bool(&mut self, x: bool) {
        self.write_raw(&[x as u8]);
    }

    /// Feeds a whole [`Fingerprint`] (both 64-bit words), the
    /// composition primitive for *restricted* and *combined* keys: a
    /// delta key over per-process restricted layout fingerprints, or a
    /// (machine, layout-delta) pair folded into one pilot key. Feeding
    /// the 128-bit digest rather than re-feeding the underlying fields
    /// keeps composed keys O(1) per component and preserves the
    /// collision bound of the components.
    pub fn write_fingerprint(&mut self, fp: Fingerprint) {
        self.write_u64(fp.0);
        self.write_u64(fp.1);
    }

    /// Finishes the two streams into a [`Fingerprint`].
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.a, self.b)
    }
}

/// Content fingerprint of a [`MachineConfig`](crate::MachineConfig):
/// every field that influences simulation results.
#[deny(unused_variables)]
pub fn machine_fingerprint(m: &crate::MachineConfig) -> Fingerprint {
    // No `..`: a new field fails the build here until it is hashed
    // (docs/invariants.md).
    let crate::MachineConfig {
        num_cores,
        cache:
            crate::CacheConfig {
                size_bytes,
                associativity,
                line_bytes,
            },
        hit_latency,
        miss_latency,
        clock_hz,
        bus,
    } = *m;
    let mut h = FingerprintHasher::new("lams.machine");
    h.write_u64(num_cores as u64);
    h.write_u64(size_bytes);
    h.write_u64(associativity);
    h.write_u64(line_bytes);
    h.write_u64(hit_latency);
    h.write_u64(miss_latency);
    h.write_u64(clock_hz);
    match bus {
        None => h.write_bool(false),
        Some(crate::BusConfig {
            occupancy_cycles,
            mode,
        }) => {
            h.write_bool(true);
            h.write_u64(occupancy_cycles);
            // The arbitration mode changes simulated schedules, so
            // memoized pilots must never alias across it: feed a
            // discriminant plus the windowed epoch length.
            match mode {
                crate::BusMode::Fcfs => h.write_u64(0),
                crate::BusMode::Windowed { window_cycles } => {
                    h.write_u64(1);
                    h.write_u64(window_cycles);
                }
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BusConfig, MachineConfig};

    #[test]
    fn deterministic_and_tag_separated() {
        let fp = |tag: &str, xs: &[u64]| {
            let mut h = FingerprintHasher::new(tag);
            for &x in xs {
                h.write_u64(x);
            }
            h.finish()
        };
        assert_eq!(fp("t", &[1, 2, 3]), fp("t", &[1, 2, 3]));
        assert_ne!(fp("t", &[1, 2, 3]), fp("u", &[1, 2, 3]));
        assert_ne!(fp("t", &[1, 2, 3]), fp("t", &[1, 2, 4]));
    }

    #[test]
    fn length_prefix_disambiguates_concatenation() {
        let fp = |parts: &[&str]| {
            let mut h = FingerprintHasher::new("t");
            for p in parts {
                h.write_str(p);
            }
            h.finish()
        };
        assert_ne!(fp(&["ab", "c"]), fp(&["a", "bc"]));
        assert_ne!(fp(&["ab"]), fp(&["ab", ""]));
    }

    #[test]
    fn machine_fingerprint_covers_every_knob() {
        let base = MachineConfig::paper_default();
        let fp = machine_fingerprint(&base);
        assert_eq!(fp, machine_fingerprint(&base.clone()));
        assert_ne!(fp, machine_fingerprint(&base.with_cores(4)));
        assert_ne!(fp, machine_fingerprint(&base.with_bus(BusConfig::fcfs(4))));
        let scalar_knobs: [fn(&mut MachineConfig); 6] = [
            |m| m.miss_latency += 1,
            |m| m.hit_latency += 1,
            |m| m.clock_hz += 1,
            |m| m.cache.size_bytes *= 2,
            |m| m.cache.associativity *= 2,
            |m| m.cache.line_bytes *= 2,
        ];
        for (i, perturb) in scalar_knobs.iter().enumerate() {
            let mut moved = base;
            perturb(&mut moved);
            assert_ne!(fp, machine_fingerprint(&moved), "scalar knob {i}");
        }
        let bused = machine_fingerprint(&base.with_bus(BusConfig::windowed(4, 64)));
        for other in [BusConfig::windowed(5, 64), BusConfig::windowed(4, 65)] {
            assert_ne!(bused, machine_fingerprint(&base.with_bus(other)));
        }
    }

    #[test]
    fn machine_fingerprint_separates_bus_modes_and_windows() {
        let base = MachineConfig::paper_default();
        let fcfs = machine_fingerprint(&base.with_bus(BusConfig::fcfs(20)));
        let w1 = machine_fingerprint(&base.with_bus(BusConfig::windowed(20, 1)));
        let w64 = machine_fingerprint(&base.with_bus(BusConfig::windowed(20, 64)));
        // Windowed w=1 *simulates* identically to FCFS, but it is a
        // distinct configuration; keys never alias across modes.
        assert_ne!(fcfs, w1);
        assert_ne!(w1, w64);
        assert_ne!(fcfs, w64);
        assert_eq!(
            w64,
            machine_fingerprint(&base.with_bus(BusConfig::windowed(20, 64)))
        );
    }
}
