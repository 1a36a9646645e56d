//! Acceptance pins for the windowed telemetry types.
//!
//! 1. The windowed quantile rule must agree with
//!    `swim_core::stats::Ecdf::quantile` **bit-for-bit over the
//!    retained window** — the same contract `tests/nearest_rank_ecdf.rs`
//!    pins for the shared nearest-rank index, extended to rotation: whatever
//!    samples the window retains, the quantile the window reports is
//!    exactly the Ecdf answer for those samples.
//! 2. Memory is **O(buckets), not O(requests)**: however many values a
//!    resident process records, the retained sample count never
//!    exceeds `buckets * sample_cap`.

use proptest::prelude::*;
use swim_core::stats::Ecdf;
use swim_obs::{WindowedCounter, WindowedHistogram};

fn ecdf_quantile(samples: &[u64], p: f64) -> f64 {
    Ecdf::new(samples.iter().map(|&v| v as f64).collect()).quantile(p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Record a random value stream at random (monotone) times over a
    /// rotating window, then check every quantile the snapshot can be
    /// asked for against Ecdf on the snapshot's own retained samples.
    #[test]
    fn windowed_quantiles_match_ecdf_on_the_retained_window(
        events in prop::collection::vec((0u64..500, 0u64..1_000_000_000_000), 1..150),
        width_ms in 1u64..5_000,
        buckets in 1usize..12,
        p in -0.25f64..1.25,
    ) {
        let mut now = 0;
        let h = WindowedHistogram::new(width_ms, buckets);
        for &(advance, value) in &events {
            now += advance;
            h.record_at(now, value);
        }
        let summary = h.summary_at(now);
        prop_assert!(summary.count >= 1, "the last event is always in-window");
        let ours = summary.quantile(p).expect("retained window is non-empty");
        let theirs = ecdf_quantile(&summary.retained, p);
        prop_assert_eq!((ours as f64).to_bits(), theirs.to_bits());
        // The retained set is a subset of what was recorded, sorted.
        prop_assert!(summary.retained.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(summary.retained.len() as u64 <= summary.count);
    }

    /// With no thinning (cap above the record count) and no rotation
    /// (everything inside one window), the window retains *every*
    /// sample, so windowed quantiles equal Ecdf on the full stream.
    #[test]
    fn without_rotation_or_thinning_the_window_is_exact(
        values in prop::collection::vec(0u64..1_000_000_000, 1..200),
        p in 0.0f64..=1.0,
    ) {
        let h = WindowedHistogram::with_sample_cap(60_000, 4, 4096);
        for &v in &values {
            h.record_at(1_000, v);
        }
        let summary = h.summary_at(1_500);
        prop_assert_eq!(summary.count as usize, values.len());
        prop_assert_eq!(summary.retained.len(), values.len());
        let ours = summary.quantile(p).expect("non-empty");
        let theirs = ecdf_quantile(&summary.retained, p);
        prop_assert_eq!((ours as f64).to_bits(), theirs.to_bits());
    }

    /// O(buckets) memory: retained samples never exceed
    /// `buckets * sample_cap` no matter how many values are recorded,
    /// while count/sum stay exact.
    #[test]
    fn retention_is_bounded_by_buckets_not_requests(
        records in 1usize..5_000,
        cap in 1usize..32,
        buckets in 1usize..6,
    ) {
        let mut now = 0;
        let h = WindowedHistogram::with_sample_cap(100, buckets, cap);
        for i in 0..records {
            // Spread over time so several buckets fill and rotate.
            if i % 7 == 0 {
                now += 37;
            }
            h.record_at(now, i as u64);
        }
        prop_assert!(
            h.retained_len() <= buckets * cap,
            "retained {} > buckets {} * cap {}",
            h.retained_len(),
            buckets,
            cap
        );
        let summary = h.summary_at(now);
        prop_assert!(summary.retained.len() <= buckets * cap);
        prop_assert!(summary.count as usize <= records);
    }
}

/// A server-shaped scenario: a minute-long window under a million
/// records holds its memory bound where a store of every sample would
/// grow with them. This is the resident-process footgun test.
#[test]
fn server_scale_recording_stays_o_buckets() {
    let mut now = 0;
    let h = WindowedHistogram::with_sample_cap(5_000, 12, 64); // 60 s window
    let total = 1_000_000u64;
    for i in 0..total {
        if i % 10_000 == 0 {
            now += 700;
        }
        h.record_at(now, i % 977);
    }
    assert!(
        h.retained_len() <= 12 * 64,
        "retained {} samples for {total} records",
        h.retained_len()
    );
    let summary = h.summary_at(now);
    assert!(summary.count > 0);
    assert!(summary.quantile(0.99).is_some());
    // The counter companion is O(buckets) by construction; totals stay
    // exact for the in-window portion.
    let c = WindowedCounter::new(5_000, 12);
    for _ in 0..1000 {
        c.add_at(now, 1);
    }
    assert_eq!(c.summary_at(now).count, 1000);
}
