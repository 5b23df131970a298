//! Problem-size scaling for the benchmark suite.

use std::fmt;

/// How large to build each application's arrays and iteration counts.
///
/// The paper reports wall-clock seconds on a 200 MHz MPSoC; simulating
/// the full problem sizes is unnecessary for reproducing the *relative*
/// behaviour of the four schedulers, so the suite is generated at one of
/// five scales:
///
/// * `Tiny` — minimal sizes for unit tests (sub-second full runs),
/// * `Small` — the default for examples and quick experiments,
/// * `Paper` — the size used by the `lams-bench` harness for the
///   Figure 6 / Figure 7 reproductions,
/// * `Large` — the multi-second sweep size the parallel scenario runner
///   is built for (hundreds of thousands of references per workload),
/// * `Huge` — million-reference traces, for stress runs and scaling
///   studies on the fast engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Minimal, for tests.
    Tiny,
    /// Default, for examples.
    #[default]
    Small,
    /// Benchmark-harness size.
    Paper,
    /// Parallel-sweep size (16x the `Small` pass counts).
    Large,
    /// Million-reference traces (64x the `Small` pass counts).
    Huge,
}

impl Scale {
    /// A baseline grid dimension `n`, scaled. `base` is the `Small` value
    /// and must be divisible by 2 so that `Tiny` stays well-formed.
    ///
    /// `Paper`, `Large` and `Huge` deliberately keep the `Small`
    /// dimensions: the suite's working sets are sized against the fixed
    /// 8 KB L1 of Table 2, and inflating footprints past the cache would
    /// change the *mechanism* under study (conflict/reuse behaviour)
    /// rather than just the run length. Longer runs come from
    /// [`Scale::passes`].
    pub fn dim(self, base: i64) -> i64 {
        match self {
            Scale::Tiny => (base / 2).max(8),
            Scale::Small | Scale::Paper | Scale::Large | Scale::Huge => base,
        }
    }

    /// Scales a repetition (pass) count: `Paper` quadruples it to
    /// lengthen runs for stable benchmark timing; `Large` and `Huge`
    /// multiply further (16x / 64x) so sweep-level parallelism has
    /// multi-second, million-reference work to chew on while every
    /// footprint stays cache-relative.
    pub fn passes(self, base: i64) -> i64 {
        match self {
            Scale::Tiny | Scale::Small => base,
            Scale::Paper => base * 4,
            Scale::Large => base * 16,
            Scale::Huge => base * 64,
        }
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scale::Tiny => write!(f, "tiny"),
            Scale::Small => write!(f, "small"),
            Scale::Paper => write!(f, "paper"),
            Scale::Large => write!(f, "large"),
            Scale::Huge => write!(f, "huge"),
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    /// Parses a [`Display`](fmt::Display) name (`tiny`, `small`,
    /// `paper`, `large`, `huge`) in any case.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "paper" => Ok(Scale::Paper),
            "large" => Ok(Scale::Large),
            "huge" => Ok(Scale::Huge),
            _ => Err(format!(
                "unknown scale '{s}' (expected tiny|small|paper|large|huge)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_and_passes_scale_as_documented() {
        assert!(Scale::Tiny.dim(64) < Scale::Small.dim(64));
        assert_eq!(Scale::Small.dim(64), 64);
        // Paper keeps footprints, lengthens runs.
        assert_eq!(Scale::Paper.dim(64), 64);
        assert_eq!(Scale::Tiny.dim(64), 32);
        // Floor for very small bases.
        assert_eq!(Scale::Tiny.dim(8), 8);
        assert_eq!(Scale::Small.passes(2), 2);
        assert_eq!(Scale::Paper.passes(2), 8);
        // Sweep scales keep footprints too, and only lengthen runs.
        assert_eq!(Scale::Large.dim(64), 64);
        assert_eq!(Scale::Huge.dim(64), 64);
        assert_eq!(Scale::Large.passes(2), 32);
        assert_eq!(Scale::Huge.passes(2), 128);
    }

    #[test]
    fn names_round_trip_in_any_case() {
        for scale in [
            Scale::Tiny,
            Scale::Small,
            Scale::Paper,
            Scale::Large,
            Scale::Huge,
        ] {
            let name = scale.to_string();
            assert_eq!(name.parse(), Ok(scale));
            assert_eq!(name.to_ascii_uppercase().parse(), Ok(scale));
        }
        assert_eq!("Paper".parse(), Ok(Scale::Paper));
        assert!("smal".parse::<Scale>().is_err());
    }

    #[test]
    fn default_is_small() {
        assert_eq!(Scale::default(), Scale::Small);
    }
}
