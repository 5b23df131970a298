//! Output checks: what makes a job count as failed.
//!
//! Every job's (makespan, L1 hits, L1 misses) is folded, in job order,
//! into one FNV-1a checksum per repetition. For `--seed 1` the checksum
//! is pinned below; for any other seed the first repetition is the
//! reference. Set-up also re-derives the repo's two golden checksums
//! with `bench_summary`'s algorithm, so a harness that drifted from the
//! repo's own notion of "the same results" fails before it times
//! anything.

use lams_core::{Experiment, PolicyKind};
use lams_mpsoc::{BusConfig, MachineConfig};
use lams_workloads::{suite, Scale};

/// The simulated outcome of one job that the checks compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Outcome {
    /// Simulated makespan in cycles.
    pub makespan: u64,
    /// L1 hits summed over cores.
    pub hits: u64,
    /// L1 misses summed over cores.
    pub misses: u64,
}

impl From<&lams_core::RunResult> for Outcome {
    fn from(r: &lams_core::RunResult) -> Self {
        Outcome {
            makespan: r.makespan_cycles,
            hits: r.machine.cache.hits,
            misses: r.machine.cache.misses,
        }
    }
}

/// FNV-1a over little-endian `u64`s, as `bench_summary` folds makespans.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Folds one value in.
    pub fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The checksum so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The repo's bus-free golden: fig6 Tiny, RS seed 12345, RS/RRS/LS.
pub const GOLDEN_BUS_FREE: u64 = 0xd7f2_a86d_a3cb_3e3d;
/// The same grid under `BusConfig::windowed(20, 256)`.
pub const GOLDEN_WINDOWED: u64 = 0xe822_b756_b2a7_a793;

/// Re-derives one repo golden: FNV-1a over the makespans of the fig6
/// Tiny grid on `machine`.
fn golden(machine: MachineConfig) -> u64 {
    let mut h = Fnv::default();
    for app in suite::all(Scale::Tiny) {
        let exp = Experiment::isolated(&app, machine).with_seed(12345);
        for kind in [
            PolicyKind::Random,
            PolicyKind::RoundRobin,
            PolicyKind::Locality,
        ] {
            h.push(exp.run(kind).expect("golden scenario runs").makespan_cycles);
        }
    }
    h.finish()
}

/// Whether both repo goldens reproduce.
pub fn repo_goldens_hold() -> bool {
    let base = MachineConfig::paper_default();
    golden(base) == GOLDEN_BUS_FREE
        && golden(base.with_bus(BusConfig::windowed(20, 256))) == GOLDEN_WINDOWED
}

/// The pinned `--seed 1` checksum of `workload`; `None` for a name that
/// is not a workload.
pub fn pinned_seed1(workload: &str) -> Option<u64> {
    PINNED_SEED1
        .iter()
        .find(|(name, _)| *name == workload)
        .map(|&(_, sum)| sum)
}

/// Recorded from this harness at the commit that added it. A change
/// that moves one of these changed simulated results.
const PINNED_SEED1: [(&str, u64); 6] = [
    ("grid_batch", 0xfd6e_d984_10f9_151e),
    ("lsm_ladder", 0xfe69_4d33_ca81_6c93),
    ("bus_contended", 0x569f_9297_1fba_f199),
    ("open_arrivals", 0xd267_a3f4_557f_4664),
    ("serve_closed", 0x7a9e_5267_29b3_bcbb),
    ("serve_pipelined", 0x94d4_04ec_de31_89ee),
];
