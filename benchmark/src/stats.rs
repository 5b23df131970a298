//! Medians and percentiles. A percentile is only ever reported with at
//! least [`MIN_BEYOND`] samples beyond it, and always with its sample
//! count.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice: a metric with no samples is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A reported percentile: its rank, value, and how many samples back it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The rank actually reported, in percent.
    pub pct: f64,
    /// The sample at that rank (nearest-rank method).
    pub value: f64,
    /// Total samples in the distribution.
    pub samples: usize,
}

/// The highest percentile of `PERCENTILE_LADDER` that is at most
/// `wanted` and still has [`MIN_BEYOND`] of `samples` beyond it; `None`
/// when even the median has fewer.
pub fn reportable_pct(samples: usize, wanted: f64) -> Option<f64> {
    const PERCENTILE_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];
    PERCENTILE_LADDER
        .into_iter()
        .rev()
        .filter(|&p| p <= wanted)
        .find(|&p| samples_beyond(samples, p) >= MIN_BEYOND)
}

/// Samples strictly above the nearest-rank position of `pct`.
pub fn samples_beyond(samples: usize, pct: f64) -> usize {
    samples.saturating_sub(nearest_rank(samples, pct))
}

/// 1-based nearest-rank position of `pct` among `samples` values.
fn nearest_rank(samples: usize, pct: f64) -> usize {
    ((pct / 100.0 * samples as f64).ceil() as usize).clamp(1, samples.max(1))
}

/// The `wanted` percentile of `values`, degraded to the highest rank
/// that keeps [`MIN_BEYOND`] samples beyond it; `None` when there are
/// too few samples for any.
pub fn percentile(values: &[f64], wanted: f64) -> Option<Percentile> {
    let pct = reportable_pct(values.len(), wanted)?;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Percentile {
        pct,
        value: v[nearest_rank(v.len(), pct) - 1],
        samples: v.len(),
    })
}
