//! A percentile is never reported with fewer than ten samples beyond it.

use lams_benchmark::stats::{median, percentile, reportable_pct, samples_beyond, MIN_BEYOND};

#[test]
fn no_reported_percentile_has_fewer_than_ten_samples_beyond_it() {
    for samples in 0..3000 {
        for wanted in [50.0, 75.0, 90.0, 95.0, 99.0, 99.9] {
            if let Some(pct) = reportable_pct(samples, wanted) {
                assert!(pct <= wanted);
                assert!(
                    samples_beyond(samples, pct) >= MIN_BEYOND,
                    "p{pct} of {samples} samples"
                );
            }
        }
    }
}

#[test]
fn too_few_samples_report_nothing() {
    assert_eq!(reportable_pct(0, 95.0), None);
    assert_eq!(reportable_pct(19, 95.0), None);
    assert_eq!(reportable_pct(20, 95.0), Some(50.0));
}

#[test]
fn p95_needs_two_hundred_samples() {
    assert_eq!(reportable_pct(199, 95.0), Some(90.0));
    assert_eq!(reportable_pct(200, 95.0), Some(95.0));
    // A lower request is never raised.
    assert_eq!(reportable_pct(100_000, 50.0), Some(50.0));
}

#[test]
fn percentile_uses_the_nearest_rank_and_states_its_samples() {
    let values: Vec<f64> = (1..=200).rev().map(f64::from).collect();
    let p95 = percentile(&values, 95.0).unwrap();
    assert_eq!((p95.pct, p95.value, p95.samples), (95.0, 190.0, 200));
    let p50 = percentile(&values, 50.0).unwrap();
    assert_eq!((p50.pct, p50.value), (50.0, 100.0));
    assert_eq!(percentile(&values[..5], 50.0), None);
}

#[test]
fn median_of_even_and_odd_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}
