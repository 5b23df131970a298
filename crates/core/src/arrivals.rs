//! Open-system arrival processes: deterministic seeded generators that
//! turn the batch engine into a queueing system.
//!
//! The paper (and the fig6/fig7 harness) schedules a *fixed batch* of
//! processes, all ready at cycle zero. Real MPSoC and datacenter
//! schedulers face an *open* system: work arrives over time at a load
//! factor, queues, and departs. This module supplies the arrival side of
//! that model:
//!
//! * [`ArrivalConfig`] — the knob set (shape, offered load, seed, ready
//!   queue bound), `Copy`. Open-system runs bypass the memo's result
//!   slots (`Experiment::run`, on the experiment's one memo), so they
//!   can never alias batch runs there;
//! * [`ArrivalPlan`] — the materialized per-process arrival cycles,
//!   generated once per run from the config, the per-process service
//!   demands and the core count. Generation is **bit-deterministic**:
//!   splitmix64 draws, inverse-CDF exponentials through a
//!   software natural log built from IEEE basic operations only (no
//!   `libm` transcendentals, whose last-bit behaviour is
//!   platform-defined), so the same `(config, workload, machine)`
//!   produces the same plan on every host, thread count and memo state.
//!   Each gap is rounded from a table-driven log, `ln_fast`, unless the
//!   error bound on it brackets a rounding boundary of the gap; then
//!   the series `ln_det` decides, so every gap is `ln_det`'s. The plan
//!   checksum is folded in as the arrivals are generated;
//! * [`ArrivalMetrics`] — the steady-state results the engine reports
//!   next to makespan: queueing/sojourn latency percentiles over
//!   **simulated cycles**, the ready-queue high-water mark, and per-core
//!   utilization.
//!
//! Generator math and determinism rules are documented in
//! `docs/arrivals.md`.

use lams_mpsoc::SplitMix64;
use lams_procgraph::ProcessId;

/// The arrival-stream shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalShape {
    /// Memoryless stream: exponential inter-arrival gaps at the
    /// configured load (inverse-CDF draws).
    Poisson,
    /// Bursty stream: geometric bursts of 1–8 simultaneous arrivals,
    /// separated by exponential gaps scaled by the burst size so the
    /// long-run offered load matches the configured one.
    Burst,
    /// Daily-cycle stream: a Poisson stream whose instantaneous rate is
    /// modulated by a triangle wave between 0.5× and 1.5× the base
    /// rate over a fixed period of 64 mean gaps.
    Diurnal,
}

impl ArrivalShape {
    /// The wire/CLI name (`poisson`, `burst`, `diurnal`).
    pub fn as_str(self) -> &'static str {
        match self {
            ArrivalShape::Poisson => "poisson",
            ArrivalShape::Burst => "burst",
            ArrivalShape::Diurnal => "diurnal",
        }
    }
}

impl std::fmt::Display for ArrivalShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Deterministic open-system arrival configuration.
///
/// `Copy` so [`EngineConfig`](crate::EngineConfig) stays `Copy`; the
/// load is stored in **thousandths** (`800` = 0.8) so the config is
/// `Eq`/hashable and fingerprints exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrivalConfig {
    /// Stream shape (Poisson / burst / diurnal).
    pub shape: ArrivalShape,
    /// Offered load in thousandths of the machine's aggregate service
    /// capacity: `1000` means arrivals carry exactly as much service
    /// demand per cycle as all cores combined can retire.
    pub load_milli: u64,
    /// Generator seed (splitmix64 stream).
    pub seed: u64,
    /// Bound on the admitted-and-ready queue. An *arrival* that would
    /// push the queue past this bound sheds the whole run with the
    /// typed [`Error::QueueSaturated`](crate::Error::QueueSaturated) —
    /// the deterministic overload outcome at load > 1. `None` (the
    /// default) never sheds. Preemption re-entries are exempt: the
    /// bound is an admission control, not a drop of accepted work.
    pub queue_capacity: Option<u64>,
}

impl ArrivalConfig {
    /// A Poisson stream at `load_milli` thousandths of capacity.
    pub fn poisson(load_milli: u64, seed: u64) -> Self {
        ArrivalConfig {
            shape: ArrivalShape::Poisson,
            load_milli,
            seed,
            queue_capacity: None,
        }
    }

    /// Builder-style ready-queue bound (see
    /// [`ArrivalConfig::queue_capacity`]).
    pub fn with_queue_capacity(mut self, cap: u64) -> Self {
        self.queue_capacity = Some(cap);
        self
    }

    /// Builder-style shape override (the ctor defaults to Poisson).
    pub fn with_shape(mut self, shape: ArrivalShape) -> Self {
        self.shape = shape;
        self
    }
}

impl std::str::FromStr for ArrivalConfig {
    type Err = String;

    /// Parses the CLI / service syntax
    /// `SHAPE:LOAD:SEED[:QCAP]`, e.g. `poisson:0.8:7` or
    /// `burst:1.25:42:256` (the shape name in any case). `LOAD` is a
    /// decimal load factor (rounded to thousandths), `SEED` the
    /// generator seed, and the optional `QCAP` the ready-queue bound.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown shapes, malformed
    /// numbers, non-positive loads, or trailing fields.
    fn from_str(s: &str) -> std::result::Result<ArrivalConfig, String> {
        let mut parts = s.split(':');
        let shape = match parts.next().map(str::to_ascii_lowercase).as_deref() {
            Some("poisson") => ArrivalShape::Poisson,
            Some("burst") => ArrivalShape::Burst,
            Some("diurnal") => ArrivalShape::Diurnal,
            Some(other) => {
                return Err(format!(
                    "unknown arrival shape '{other}' (expected poisson|burst|diurnal)"
                ))
            }
            None => return Err("empty arrival spec".into()),
        };
        let load_str = parts
            .next()
            .ok_or_else(|| format!("arrivals '{s}': missing load (SHAPE:LOAD:SEED[:QCAP])"))?;
        let load: f64 = load_str
            .parse()
            .map_err(|_| format!("arrivals '{s}': bad load '{load_str}'"))?;
        if load.is_nan() || load <= 0.0 || load > 1000.0 {
            return Err(format!(
                "arrivals '{s}': load must be in (0, 1000], got {load_str}"
            ));
        }
        // At least one thousandth, which `generate` runs anyway: a
        // load that rounds to 0 would print as `0.000`, a load this
        // parse refuses.
        let load_milli = ((load * 1000.0 + 0.5) as u64).max(1);
        let seed_str = parts
            .next()
            .ok_or_else(|| format!("arrivals '{s}': missing seed (SHAPE:LOAD:SEED[:QCAP])"))?;
        let seed: u64 = seed_str
            .parse()
            .map_err(|_| format!("arrivals '{s}': bad seed '{seed_str}'"))?;
        let queue_capacity = match parts.next() {
            None => None,
            Some(cap_str) => Some(
                cap_str
                    .parse::<u64>()
                    .map_err(|_| format!("arrivals '{s}': bad queue capacity '{cap_str}'"))?,
            ),
        };
        if parts.next().is_some() {
            return Err(format!(
                "arrivals '{s}': trailing fields (expected SHAPE:LOAD:SEED[:QCAP])"
            ));
        }
        Ok(ArrivalConfig {
            shape,
            load_milli,
            seed,
            queue_capacity,
        })
    }
}

impl std::fmt::Display for ArrivalConfig {
    /// Writes the `SHAPE:LOAD:SEED[:QCAP]` spec [`FromStr`](std::str::FromStr)
    /// reads.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}.{:03}:{}",
            self.shape,
            self.load_milli / 1000,
            self.load_milli % 1000,
            self.seed
        )?;
        if let Some(cap) = self.queue_capacity {
            write!(f, ":{cap}")?;
        }
        Ok(())
    }
}

/// A uniform draw in `(0, 1]` from 53 random bits (never 0, so
/// `ln` below is always defined).
fn unit(rng: &mut SplitMix64) -> f64 {
    ((rng.next_u64() >> 11) + 1) as f64 / 9_007_199_254_740_992.0 // 2^53
}

/// Natural log from IEEE basic operations only (`+ - * /` are
/// correctly rounded per IEEE 754 and therefore bit-identical on every
/// conforming host; `f64::ln` goes through the platform's libm, whose
/// last bits are not). Decomposes `x = m·2^e` with `m ∈ [1, 2)` and
/// sums the atanh series for `ln m`. Accurate to well under 1 ulp of
/// the cycle quantization that consumes it. The reference every gap
/// is rounded from; `const` so that [`LN_TABLE`] is its values.
const fn ln_det(x: f64) -> f64 {
    debug_assert!(x > 0.0 && x.is_finite());
    let bits = x.to_bits();
    let e = ((bits >> 52) & 0x7FF) as i64 - 1023;
    let m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | (1023u64 << 52));
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let mut term = t;
    let mut sum = 0.0;
    let mut k = 1.0;
    loop {
        let add = term / k;
        sum += add;
        if add < 1e-18 && add > -1e-18 {
            break;
        }
        term *= t2;
        k += 2.0;
    }
    2.0 * sum + (e as f64) * std::f64::consts::LN_2
}

/// `ln_det(1 + j/128)` for `j = 0..=128`, evaluated at compile time.
const LN_TABLE: [f64; 129] = {
    let mut table = [0.0; 129];
    let mut j = 0;
    while j < table.len() {
        table[j] = ln_det(1.0 + j as f64 / 128.0);
        j += 1;
    }
    table
};

/// Natural log from [`LN_TABLE`] and one division, within
/// [`LN_FAST_ERROR`] of [`ln_det`] on every draw in `[2^-53, 1]`.
/// With `x = m·2^e` and `c = 1 + j/128` the table point nearest `m`,
/// `ln x = ln c + 2·atanh(s) + e·ln 2` where `s = (m − c)/(m + c)`;
/// `|s| < 1/512`, so four odd terms of the atanh series reach well
/// below an ulp. The sum is ordered like `ln_det`'s, which adds the
/// same rounded `e·ln 2` last.
fn ln_fast(x: f64) -> f64 {
    let bits = x.to_bits();
    let e = ((bits >> 52) & 0x7FF) as i64 - 1023;
    let frac = bits & 0x000F_FFFF_FFFF_FFFF;
    let m = f64::from_bits(frac | (1023u64 << 52));
    // `m − 1 = frac / 2^52`: the nearest `j / 128` rounds `frac / 2^45`.
    let j = ((frac + (1 << 44)) >> 45) as usize;
    let c = 1.0 + j as f64 / 128.0;
    let s = (m - c) / (m + c);
    let s2 = s * s;
    let atanh2 = s * (2.0 + s2 * (2.0 / 3.0 + s2 * (2.0 / 5.0 + s2 * (2.0 / 7.0))));
    (LN_TABLE[j] + atanh2) + (e as f64) * std::f64::consts::LN_2
}

/// A bound on `|ln_fast(u) − ln_det(u)|` over every draw `u`, with a
/// hundredfold margin over the largest difference the unit tests find.
const LN_FAST_ERROR: f64 = 1e-12;

/// The gap `-ln_det(u) · mean`, rounded to the nearest cycle.
///
/// The rounding `l ↦ (-l·mean + 0.5) as u64` is monotone in `l`
/// (correctly rounded `*` and `+` and the saturating cast all are), and
/// `ln_det(u)` lies within [`LN_FAST_ERROR`] of `ln_fast(u)`, so the
/// rounded ends of that interval bracket it as well. When both ends
/// round to one gap, that is `ln_det`'s gap; otherwise `ln_det` is
/// evaluated.
fn gap(u: f64, mean: f64) -> u64 {
    let round = |l: f64| (-l * mean + 0.5) as u64;
    let l = ln_fast(u);
    let below = round(l + LN_FAST_ERROR);
    if below == round(l - LN_FAST_ERROR) {
        below
    } else {
        round(ln_det(u))
    }
}

/// An exponential inter-arrival draw with the given mean, in cycles
/// (rounded to nearest; simultaneous arrivals are legal).
fn exp_gap(rng: &mut SplitMix64, mean: f64) -> u64 {
    gap(unit(rng), mean)
}

/// FNV-1a offset basis: the checksum of the empty plan.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// The FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// `FNV_PRIME^k` for `k = 0..=8`.
const FNV_PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < powers.len() {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

/// One arrival cycle folded into an FNV-1a checksum, byte-wise and
/// little-endian. A zero byte XORs nothing in, so the high zero bytes
/// of `t` are one multiply by a power of the prime, which shortens the
/// serial chain from eight multiplies to six for a cycle below 2^40.
fn fnv1a(mut sum: u64, t: u64) -> u64 {
    let len = 8 - t.leading_zeros() as usize / 8;
    for &b in &t.to_le_bytes()[..len] {
        sum ^= b as u64;
        sum = sum.wrapping_mul(FNV_PRIME);
    }
    sum.wrapping_mul(FNV_PRIME_POWERS[8 - len])
}

/// The diurnal period, in mean inter-arrival gaps.
const DIURNAL_PERIOD_GAPS: f64 = 64.0;

/// The materialized arrival schedule: one arrival cycle per process, in
/// process-id order with non-decreasing times (a time that would pass
/// `u64::MAX` saturates there). Generated once per run
/// and never cached, which keeps the memo free of plan aliasing. Its
/// checksum is computed as it is generated. A million-process plan
/// (the Huge Shape service lengths cycled, load 0.9, 8 cores) takes
/// about 35 ms on a 2-vCPU Xeon host, checksum included: a median over
/// 21 seeds, against 72 ms plus a 14 ms checksum pass with `ln_det` on
/// every draw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalPlan {
    arrivals: Vec<u64>,
    checksum: u64,
}

impl ArrivalPlan {
    /// Generates the plan for `service[p]` cycles of per-process service
    /// demand on a `cores`-core machine.
    ///
    /// The base rate follows from the load identity: at offered load
    /// `L`, arrivals must carry `L × cores` cycles of service demand per
    /// cycle, so with mean demand `S̄` the mean inter-arrival gap is
    /// `S̄ / (L × cores)` cycles. Shapes modulate around that base (see
    /// [`ArrivalShape`]); the empty workload yields the empty plan.
    pub fn generate(config: ArrivalConfig, service: &[u64], cores: usize) -> ArrivalPlan {
        let n = service.len();
        let mut plan = ArrivalPlan {
            arrivals: Vec::with_capacity(n),
            checksum: FNV_OFFSET,
        };
        if n == 0 {
            return plan;
        }
        let total: u128 = service.iter().map(|&s| s as u128).sum();
        let mean_service = ((total / n as u128) as u64).max(1);
        let load_milli = config.load_milli.max(1);
        let inter_mean = (mean_service as f64 * 1000.0) / (load_milli as f64 * cores.max(1) as f64);
        let mut rng = SplitMix64::new(config.seed);
        let mut t: u64 = 0;
        match config.shape {
            ArrivalShape::Poisson => {
                for _ in 0..n {
                    t = t.saturating_add(exp_gap(&mut rng, inter_mean));
                    plan.push(t);
                }
            }
            ArrivalShape::Burst => {
                let mut left_in_burst = 0u64;
                for _ in 0..n {
                    if left_in_burst == 0 {
                        let burst = 1 + (rng.next_u64() % 8);
                        t = t.saturating_add(exp_gap(&mut rng, inter_mean * burst as f64));
                        left_in_burst = burst;
                    }
                    left_in_burst -= 1;
                    plan.push(t);
                }
            }
            ArrivalShape::Diurnal => {
                let period = inter_mean * DIURNAL_PERIOD_GAPS;
                for _ in 0..n {
                    // Triangle wave over the phase: rate factor in
                    // [0.5, 1.5], so gaps stretch off-peak and compress
                    // at the peak.
                    let phase = (t as f64) / period;
                    let frac = phase - (phase as u64) as f64;
                    let tri = 1.0 - (2.0 * frac - 1.0).abs();
                    let factor = 0.5 + tri;
                    t = t.saturating_add(exp_gap(&mut rng, inter_mean / factor));
                    plan.push(t);
                }
            }
        }
        plan
    }

    /// Appends arrival cycle `t` and folds it into the checksum.
    fn push(&mut self, t: u64) {
        self.arrivals.push(t);
        self.checksum = fnv1a(self.checksum, t);
    }

    /// Number of arrivals (one per process).
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Arrival cycle of process `p`.
    pub fn arrival(&self, p: ProcessId) -> u64 {
        self.arrivals[p.as_usize()]
    }

    /// Arrival cycle by process index (the engine's admission cursor).
    pub fn time(&self, index: usize) -> u64 {
        self.arrivals[index]
    }

    /// The last arrival's cycle (0 for the empty plan).
    pub fn span(&self) -> u64 {
        self.arrivals.last().copied().unwrap_or(0)
    }

    /// FNV-1a over the arrival cycles' little-endian bytes, stored when
    /// the plan was generated — the seed-stability golden
    /// (`tests/cross_validation.rs` pins one for a fixed config).
    pub fn checksum(&self) -> u64 {
        self.checksum
    }
}

/// Nearest-rank latency percentiles in **simulated cycles** (exact
/// integers — no float aggregation, so they are bit-stable goldens).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyPercentiles {
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum.
    pub max: u64,
}

impl LatencyPercentiles {
    /// Nearest-rank percentiles of `samples` (sorted in place).
    fn from_samples(samples: &mut [u64]) -> LatencyPercentiles {
        samples.sort_unstable();
        let at = |q_num: usize, q_den: usize| -> u64 {
            if samples.is_empty() {
                return 0;
            }
            let rank = (samples.len() * q_num).div_ceil(q_den);
            samples[rank.max(1) - 1]
        };
        LatencyPercentiles {
            p50: at(50, 100),
            p90: at(90, 100),
            p99: at(99, 100),
            max: samples.last().copied().unwrap_or(0),
        }
    }
}

/// Steady-state metrics of one open-system run, reported next to the
/// makespan in [`RunResult`](crate::RunResult). All latencies are
/// simulated cycles; nothing here depends on host time, thread count or
/// memo state.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalMetrics {
    /// Processes that arrived, ran and completed (the whole workload —
    /// a run that sheds or deadlines returns an error, not metrics).
    pub completed: usize,
    /// Arrival → first dispatch, per process.
    pub queueing: LatencyPercentiles,
    /// Arrival → completion, per process.
    pub sojourn: LatencyPercentiles,
    /// High-water mark of the admitted-and-ready queue (arrived,
    /// dependence-ready, not yet dispatched — preempted re-entries
    /// included).
    pub queue_depth_peak: usize,
    /// Per-core busy fraction of the makespan.
    pub core_utilization: Vec<f64>,
    /// Cycle of the last arrival.
    pub arrival_span_cycles: u64,
    /// [`ArrivalPlan::checksum`] of the plan this run admitted.
    pub plan_checksum: u64,
}

impl ArrivalMetrics {
    /// Builds the metrics from per-process `(arrival, first-start,
    /// finish)` triples plus the queue peak and per-core busy cycles.
    pub(crate) fn collect(
        triples: impl Iterator<Item = (u64, u64, u64)>,
        queue_depth_peak: usize,
        core_busy: &[u64],
        makespan: u64,
        plan: &ArrivalPlan,
    ) -> ArrivalMetrics {
        let mut queueing = Vec::new();
        let mut sojourn = Vec::new();
        for (arrival, start, finish) in triples {
            queueing.push(start.saturating_sub(arrival));
            sojourn.push(finish.saturating_sub(arrival));
        }
        let completed = sojourn.len();
        ArrivalMetrics {
            completed,
            queueing: LatencyPercentiles::from_samples(&mut queueing),
            sojourn: LatencyPercentiles::from_samples(&mut sojourn),
            queue_depth_peak,
            core_utilization: core_busy
                .iter()
                .map(|&b| {
                    if makespan == 0 {
                        0.0
                    } else {
                        b as f64 / makespan as f64
                    }
                })
                .collect(),
            arrival_span_cycles: plan.span(),
            plan_checksum: plan.checksum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(shape: ArrivalShape) -> ArrivalConfig {
        ArrivalConfig {
            shape,
            load_milli: 800,
            seed: 7,
            queue_capacity: None,
        }
    }

    /// Whether the full case counts run: in release, where they take
    /// about a second. A debug run takes a sample of each.
    const FULL: bool = !cfg!(debug_assertions);

    /// The reference generator: every gap rounded from `ln_det`, and
    /// the checksum a second, plain byte-wise FNV-1a pass over the
    /// finished plan.
    fn reference_plan(config: ArrivalConfig, service: &[u64], cores: usize) -> (Vec<u64>, u64) {
        fn exp_gap(rng: &mut SplitMix64, mean: f64) -> u64 {
            let draw = -ln_det(unit(rng)) * mean;
            (draw + 0.5) as u64
        }
        let n = service.len();
        if n == 0 {
            return (Vec::new(), 0xCBF2_9CE4_8422_2325);
        }
        let total: u128 = service.iter().map(|&s| s as u128).sum();
        let mean_service = ((total / n as u128) as u64).max(1);
        let load_milli = config.load_milli.max(1);
        let inter_mean = (mean_service as f64 * 1000.0) / (load_milli as f64 * cores.max(1) as f64);
        let mut rng = SplitMix64::new(config.seed);
        let mut arrivals = Vec::with_capacity(n);
        let mut t: u64 = 0;
        match config.shape {
            ArrivalShape::Poisson => {
                for _ in 0..n {
                    t = t.saturating_add(exp_gap(&mut rng, inter_mean));
                    arrivals.push(t);
                }
            }
            ArrivalShape::Burst => {
                let mut left_in_burst = 0u64;
                for _ in 0..n {
                    if left_in_burst == 0 {
                        let burst = 1 + (rng.next_u64() % 8);
                        t = t.saturating_add(exp_gap(&mut rng, inter_mean * burst as f64));
                        left_in_burst = burst;
                    }
                    left_in_burst -= 1;
                    arrivals.push(t);
                }
            }
            ArrivalShape::Diurnal => {
                let period = inter_mean * DIURNAL_PERIOD_GAPS;
                for _ in 0..n {
                    let phase = (t as f64) / period;
                    let frac = phase - (phase as u64) as f64;
                    let tri = 1.0 - (2.0 * frac - 1.0).abs();
                    let factor = 0.5 + tri;
                    t = t.saturating_add(exp_gap(&mut rng, inter_mean / factor));
                    arrivals.push(t);
                }
            }
        }
        let mut sum: u64 = 0xCBF2_9CE4_8422_2325;
        for &t in &arrivals {
            for b in t.to_le_bytes() {
                sum ^= b as u64;
                sum = sum.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        (arrivals, sum)
    }

    #[test]
    fn plans_match_the_reference_generator() {
        let n: u64 = if FULL { 1000 } else { 60 };
        let seeds: &[u64] = if FULL {
            &[
                0,
                1,
                7,
                42,
                1000,
                12345,
                0xDEAD_BEEF,
                u64::MAX - 2,
                u64::MAX,
            ]
        } else {
            &[7, u64::MAX]
        };
        // Mean service from 1 cycle to about 2^40, uniform and varied.
        let services: [Vec<u64>; 4] = [
            vec![1; n as usize],
            (0..n).map(|i| 1 + (i * 7919) % 5000).collect(),
            (0..n)
                .map(|i| (1 << 20) + (i * 104_729) % (1 << 18))
                .collect(),
            (0..n).map(|i| (1 << 40) - (i % 5) * 999_983).collect(),
        ];
        for shape in [
            ArrivalShape::Poisson,
            ArrivalShape::Burst,
            ArrivalShape::Diurnal,
        ] {
            for &seed in seeds {
                for load_milli in [1, 9, 250, 800, 1000, 4321, 1_000_000] {
                    for cores in [1, 3, 8, 64] {
                        for service in &services {
                            let config = ArrivalConfig {
                                shape,
                                load_milli,
                                seed,
                                queue_capacity: None,
                            };
                            let plan = ArrivalPlan::generate(config, service, cores);
                            let (arrivals, checksum) = reference_plan(config, service, cores);
                            assert!(
                                plan.arrivals == arrivals && plan.checksum() == checksum,
                                "{config} on {cores} cores, service {}..: plan differs",
                                service[0]
                            );
                        }
                    }
                }
            }
        }
        assert_eq!(
            ArrivalPlan::generate(cfg(ArrivalShape::Poisson), &[], 8).checksum(),
            reference_plan(cfg(ArrivalShape::Poisson), &[], 8).1
        );
    }

    #[test]
    fn a_plan_past_u64_max_saturates_instead_of_wrapping() {
        // A mean gap of about 2^60 cycles: the plan passes u64::MAX
        // within a few dozen arrivals, and before saturation it wrapped
        // 1,226 times.
        let service = [1u64 << 50; 20_000];
        for shape in [
            ArrivalShape::Poisson,
            ArrivalShape::Burst,
            ArrivalShape::Diurnal,
        ] {
            let config = ArrivalConfig::poisson(1, 7).with_shape(shape);
            let plan = ArrivalPlan::generate(config, &service, 1);
            assert!(
                plan.arrivals.windows(2).all(|w| w[0] <= w[1]),
                "{config}: the plan decreases"
            );
            assert_eq!(plan.arrivals.last(), Some(&u64::MAX), "{config}");
            let (arrivals, checksum) = reference_plan(config, &service, 1);
            assert!(
                plan.arrivals == arrivals && plan.checksum() == checksum,
                "{config}"
            );
        }
    }

    fn assert_ln_close(x: f64) {
        let d = (ln_fast(x) - ln_det(x)).abs();
        assert!(
            d <= LN_FAST_ERROR / 100.0,
            "|ln_fast({x:e}) - ln_det({x:e})| = {d:e}"
        );
    }

    #[test]
    fn ln_fast_stays_within_a_hundredth_of_its_bound() {
        let powers: Vec<f64> = (0..=53).map(|e| f64::from_bits((1023 - e) << 52)).collect();
        assert_eq!(powers[53], 1.0 / 9_007_199_254_740_992.0);
        // Every table point `k = 2j` and every cell edge between two
        // points (odd `k`), with their neighbouring floats, scaled by
        // each power of two in the draw range.
        for k in 0..=256 {
            let m = 1.0 + k as f64 / 256.0;
            for x in [m.next_down(), m, m.next_up()] {
                if (1.0..2.0).contains(&x) {
                    for &p in &powers[1..] {
                        assert_ln_close(x * p);
                    }
                }
            }
        }
        for &p in &powers {
            assert_ln_close(p);
        }
        let mut rng = SplitMix64::new(2024);
        for _ in 0..if FULL { 4_000_000 } else { 100_000 } {
            assert_ln_close(unit(&mut rng));
        }
    }

    /// Where `ln_fast` and `ln_det` differ in bits, a `mean` that puts a
    /// rounding boundary between their gaps must still get `ln_det`'s.
    #[test]
    fn a_gap_the_bound_cannot_settle_is_ln_det_s() {
        let round = |l: f64, mean: f64| (-l * mean + 0.5) as u64;
        let mut rng = SplitMix64::new(99);
        let mut split = 0;
        for i in 0..if FULL { 200_000 } else { 20_000 } {
            let before = rng.clone();
            let u = unit(&mut rng);
            let (fast, exact) = (ln_fast(u), ln_det(u));
            if fast == exact {
                continue;
            }
            // Aim `-exact · mean + 0.5` at the boundary below cycle
            // `target`, then walk `mean` an ulp at a time across it.
            let target = 10 + i % 5000;
            let mut mean = (target as f64 - 0.5) / -exact;
            for _ in 0..64 {
                mean = mean.next_down();
            }
            for _ in 0..128 {
                if round(fast, mean) != round(exact, mean) {
                    assert_eq!(
                        exp_gap(&mut before.clone(), mean),
                        round(exact, mean),
                        "u = {u:e}, mean = {mean:e}"
                    );
                    split += 1;
                    break;
                }
                mean = mean.next_up();
            }
        }
        assert!(split >= 100, "only {split} draws split by a boundary");
    }

    #[test]
    fn a_load_below_a_thousandth_parses_to_one() {
        let c: ArrivalConfig = "poisson:0.0001:1".parse().unwrap();
        assert_eq!(c.load_milli, 1);
        assert_eq!(c.to_string(), "poisson:0.001:1");
        let s: crate::Scenario = "app=shape scale=tiny policy=rs arrivals=poisson:0.0001:1"
            .parse()
            .unwrap();
        assert_eq!(s.to_string().parse(), Ok(s));
    }

    #[test]
    fn plans_are_deterministic_and_monotone() {
        let service = vec![1000u64; 500];
        for shape in [
            ArrivalShape::Poisson,
            ArrivalShape::Burst,
            ArrivalShape::Diurnal,
        ] {
            let a = ArrivalPlan::generate(cfg(shape), &service, 8);
            let b = ArrivalPlan::generate(cfg(shape), &service, 8);
            assert_eq!(a, b, "{shape} plan not reproducible");
            assert!(
                a.arrivals.windows(2).all(|w| w[0] <= w[1]),
                "{shape} arrivals must be non-decreasing"
            );
            assert_eq!(a.checksum(), b.checksum());
        }
    }

    #[test]
    fn seeds_and_shapes_change_the_stream() {
        let service = vec![1000u64; 200];
        let base = ArrivalPlan::generate(cfg(ArrivalShape::Poisson), &service, 8);
        let reseeded = ArrivalPlan::generate(
            ArrivalConfig {
                seed: 8,
                ..cfg(ArrivalShape::Poisson)
            },
            &service,
            8,
        );
        assert_ne!(base, reseeded);
        let bursty = ArrivalPlan::generate(cfg(ArrivalShape::Burst), &service, 8);
        assert_ne!(base, bursty);
    }

    #[test]
    fn poisson_mean_gap_tracks_the_load() {
        // 2000 arrivals at load 0.8 on 8 cores with mean service 1000:
        // expected mean gap = 1000 / (0.8 * 8) = 156.25 cycles.
        let service = vec![1000u64; 2000];
        let plan = ArrivalPlan::generate(cfg(ArrivalShape::Poisson), &service, 8);
        let mean = plan.span() as f64 / plan.len() as f64;
        assert!(
            (mean - 156.25).abs() < 10.0,
            "mean inter-arrival {mean} far from 156.25"
        );
    }

    #[test]
    fn burst_shape_produces_simultaneous_arrivals() {
        let service = vec![1000u64; 200];
        let plan = ArrivalPlan::generate(cfg(ArrivalShape::Burst), &service, 8);
        let simultaneous = plan.arrivals.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(simultaneous > 20, "bursts must overlap: {simultaneous}");
    }

    #[test]
    fn ln_det_matches_known_values() {
        for (x, expect) in [
            (1.0, 0.0),
            (std::f64::consts::E, 1.0),
            (2.0, std::f64::consts::LN_2),
            (0.5, -std::f64::consts::LN_2),
            (1e-9, -20.723_265_836_946_41),
        ] {
            assert!(
                (ln_det(x) - expect).abs() < 1e-12,
                "ln({x}) = {} != {expect}",
                ln_det(x)
            );
        }
    }

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        let c: ArrivalConfig = "poisson:0.8:7".parse().unwrap();
        assert_eq!(c, ArrivalConfig::poisson(800, 7));
        assert_eq!("Poisson:0.8:7".parse(), Ok(c));
        let c: ArrivalConfig = "burst:1.25:42:256".parse().unwrap();
        assert_eq!(c.shape, ArrivalShape::Burst);
        assert_eq!(c.load_milli, 1250);
        assert_eq!(c.queue_capacity, Some(256));
        assert_eq!(c.to_string(), "burst:1.250:42:256");
        for bad in [
            "",
            "poisson",
            "poisson:0.8",
            "poisson:zero:7",
            "poisson:0:7",
            "poisson:-1:7",
            "poisson:0.8:x",
            "poisson:0.8:7:cap",
            "poisson:0.8:7:1:extra",
            "warp:0.8:7",
        ] {
            assert!(bad.parse::<ArrivalConfig>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s: Vec<u64> = (1..=100).collect();
        let p = LatencyPercentiles::from_samples(&mut s);
        assert_eq!(p.p50, 50);
        assert_eq!(p.p90, 90);
        assert_eq!(p.p99, 99);
        assert_eq!(p.max, 100);
        let mut one = vec![42u64];
        let p = LatencyPercentiles::from_samples(&mut one);
        assert_eq!((p.p50, p.p99, p.max), (42, 42, 42));
    }
}
