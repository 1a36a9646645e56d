//! The shared nearest-rank index, `nearest_rank`, must select what
//! `swim_core::stats::Ecdf::quantile` selects **bit-for-bit**: it is the
//! one rule behind swim-obs windowed quantiles, swim-query's `pN`
//! aggregates and swim-sim's latency percentiles, and none of them may
//! disagree with the paper-facing CDFs.
//!
//! The samples here are `u64`s indexed by `nearest_rank`; `Ecdf` works
//! on `f64`.
//! For the sample magnitudes obs records (nanosecond durations, byte
//! counts — all well below 2^53 in tests, and order-preserving even
//! above), `u64 as f64` is monotone over the sampled range, so feeding
//! both sides the same values makes "same selected rank" equivalent to
//! "bit-identical result". The proptest below also draws values near
//! `u64::MAX` to exercise the conversion at the top of the range.

use proptest::prelude::*;
use swim_core::stats::Ecdf;
use swim_obs::{nearest_rank, quantile_of_sorted};

/// The Ecdf-side answer for the same integer samples.
fn ecdf_quantile(samples: &[u64], p: f64) -> f64 {
    Ecdf::new(samples.iter().map(|&v| v as f64).collect()).quantile(p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For any non-empty sample and any p (including outside [0,1]),
    /// the shared index selects a value whose f64 image is exactly
    /// Ecdf::quantile of the f64 image of the samples.
    #[test]
    fn histogram_quantile_matches_ecdf_bit_for_bit(
        mut samples in prop::collection::vec(0u64..1_000_000_000_000, 1..200),
        p in -0.25f64..1.25,
    ) {
        samples.sort_unstable();
        let ours = samples[nearest_rank(p, samples.len())];
        let theirs = ecdf_quantile(&samples, p);
        prop_assert_eq!((ours as f64).to_bits(), theirs.to_bits());
    }

    /// Same agreement at the top of the u64 range, where f64 rounds:
    /// rank selection happens on identically-ordered data, so the
    /// selected element's f64 image still matches exactly.
    #[test]
    fn agreement_holds_near_u64_max(
        mut samples in prop::collection::vec(u64::MAX - 1_000_000..u64::MAX, 1..50),
        p in 0.0f64..=1.0,
    ) {
        samples.sort_unstable();
        let ours = samples[nearest_rank(p, samples.len())];
        let theirs = ecdf_quantile(&samples, p);
        prop_assert_eq!((ours as f64).to_bits(), theirs.to_bits());
    }

    /// p = 0 and p = 1 select min and max on both sides.
    #[test]
    fn endpoints_select_min_and_max(
        mut samples in prop::collection::vec(0u64..u64::MAX, 1..100),
    ) {
        samples.sort_unstable();
        prop_assert_eq!(nearest_rank(0.0, samples.len()), 0);
        prop_assert_eq!(nearest_rank(1.0, samples.len()), samples.len() - 1);
        prop_assert_eq!(ecdf_quantile(&samples, 0.0).to_bits(), (samples[0] as f64).to_bits());
        prop_assert_eq!(
            ecdf_quantile(&samples, 1.0).to_bits(),
            (*samples.last().unwrap() as f64).to_bits()
        );
    }
}

/// Edge cases the issue pins explicitly: len 0 / 1 / 2 at p = 0 / 1
/// (and the median for len 2, where nearest-rank picks the *lower*).
#[test]
fn edge_cases_len_0_1_2() {
    // len 0: no index exists, so the slice reader returns None;
    // Ecdf::quantile panics by contract.
    assert_eq!(quantile_of_sorted(&[], 0.0), None);
    assert_eq!(quantile_of_sorted(&[], 1.0), None);
    assert!(std::panic::catch_unwind(|| Ecdf::new(vec![]).quantile(0.5)).is_err());

    // len 1: every p selects the only sample.
    for p in [0.0, 0.25, 0.5, 1.0] {
        assert_eq!(nearest_rank(p, 1), 0);
        assert_eq!(ecdf_quantile(&[42], p), 42.0);
    }

    // len 2: p=0 → min, p=0.5 → lower (nearest-rank), p=1 → max.
    for (p, want) in [(0.0, 10u64), (0.5, 10), (0.75, 99), (1.0, 99)] {
        assert_eq!([10, 99][nearest_rank(p, 2)], want);
        assert_eq!(ecdf_quantile(&[10, 99], p), want as f64);
    }
}
