//! Seeded random application generation, for property tests and
//! parameter sweeps beyond the fixed Table 1 suite.

use lams_layout::{ArrayDecl, ArrayTable};
use lams_mpsoc::SplitMix64;

use super::apps::{map1, map2, rows_space, v};
use crate::{AccessSpec, AppSpec, ProcessSpec};

/// Parameters for [`synthetic_app`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticConfig {
    /// RNG seed (same seed ⇒ identical app).
    pub seed: u64,
    /// Number of pipeline stages (>= 1).
    pub stages: usize,
    /// Processes per stage (>= 1).
    pub procs_per_stage: usize,
    /// Grid dimension `n` (rows = cols); rows are split across the
    /// stage's processes.
    pub dim: i64,
    /// Maximum halo rows added on each side of a process's row block.
    pub max_halo: i64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            seed: 0xC0FFEE,
            stages: 3,
            procs_per_stage: 8,
            dim: 32,
            max_halo: 2,
        }
    }
}

/// Generates a staged pipeline application resembling the Table 1 suite:
/// each stage reads the previous stage's output array over row blocks
/// (with a random halo), optionally consults a small shared table, and
/// writes its own output array. Dependences connect producing processes
/// to the consumers whose (halo-extended) row blocks they feed.
///
/// The construction is fully deterministic in `config.seed`.
///
/// ```
/// use lams_workloads::{synthetic_app, SyntheticConfig, Workload};
///
/// let app = synthetic_app(SyntheticConfig::default());
/// let same = synthetic_app(SyntheticConfig::default());
/// assert_eq!(app, same);
/// let w = Workload::single(app).unwrap();
/// assert_eq!(w.num_processes(), 24);
/// ```
pub fn synthetic_app(config: SyntheticConfig) -> AppSpec {
    let mut rng = SplitMix64::new(config.seed);
    let stages = config.stages.max(1);
    let pps = config.procs_per_stage.max(1) as i64;
    let n = config.dim.max(pps); // at least one row per process
    let r = n / pps;

    let mut arrays = ArrayTable::new();
    let mut stage_arrays = Vec::with_capacity(stages + 1);
    for s in 0..=stages {
        stage_arrays.push(arrays.push(ArrayDecl::new(format!("D{s}"), vec![n, n], 4)));
    }
    let table = arrays.push(ArrayDecl::new("TBL", vec![n], 4));

    let mut processes = Vec::new();
    let mut deps = Vec::new();
    for s in 0..stages {
        let input = stage_arrays[s];
        let output = stage_arrays[s + 1];
        for kk in 0..pps {
            let h = if config.max_halo > 0 {
                (rng.next_u64() % (config.max_halo as u64 + 1)) as i64
            } else {
                0
            };
            let lo = (kk * r - h).max(0);
            let hi = ((kk + 1) * r + h).min(n);
            let passes = 1 + (rng.next_u64() % 2) as i64;
            let mut accesses = vec![AccessSpec::read(input, map2(v("i"), v("j")))];
            if rng.next_u64() < 1 << 63 {
                accesses.push(AccessSpec::read(table, map1(v("j"))));
            }
            accesses.push(AccessSpec::write(output, map2(v("i"), v("j"))));
            processes.push(ProcessSpec {
                name: format!("syn.s{s}.{kk}"),
                space: rows_space(passes, lo, hi, n),
                accesses,
                compute_cycles_per_iter: 1 + rng.next_u64() % 4,
            });
            if s > 0 {
                // Depend on the previous-stage processes whose row blocks
                // intersect [lo, hi).
                for m in 0..pps {
                    let plo = m * r;
                    let phi = (m + 1) * r;
                    // The producer wrote rows [plo-h', phi+h') but its core
                    // block certainly covers [plo, phi).
                    if plo < hi && lo < phi {
                        let from = ((s - 1) as i64 * pps + m) as usize;
                        let to = (s as i64 * pps + kk) as usize;
                        deps.push((from, to));
                    }
                }
            }
        }
    }

    AppSpec {
        name: format!("Synthetic-{:x}", config.seed),
        description: "randomly generated staged pipeline".into(),
        arrays,
        processes,
        deps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    #[test]
    fn deterministic_in_seed() {
        let a = synthetic_app(SyntheticConfig::default());
        let b = synthetic_app(SyntheticConfig::default());
        assert_eq!(a, b);
        let c = synthetic_app(SyntheticConfig {
            seed: 42,
            ..SyntheticConfig::default()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn builds_and_validates() {
        for seed in 0..8 {
            let app = synthetic_app(SyntheticConfig {
                seed,
                stages: 2 + (seed as usize % 3),
                procs_per_stage: 4,
                dim: 16,
                max_halo: 2,
            });
            app.validate().unwrap();
            let w = Workload::single(app).unwrap();
            assert!(w.num_processes() >= 8);
            assert!(w.epg().num_edges() > 0);
        }
    }

    #[test]
    fn single_stage_has_no_deps() {
        let app = synthetic_app(SyntheticConfig {
            stages: 1,
            ..SyntheticConfig::default()
        });
        assert!(app.deps.is_empty());
    }
}
