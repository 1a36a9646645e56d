//! The paper's burstiness metric (§5.2, Fig. 8): the vector of
//! nth-percentile-to-median ratios of an hourly load signal.
//!
//! Interpreting the resulting curve as "a cumulative distribution of
//! arrival rates per time unit, normalized by the median arrival rate":
//! a more *horizontal* curve is a more bursty workload; a vertical line is
//! a constant-rate workload. The headline scalar is the
//! peak-to-median ratio (100th percentile over median).

use crate::stats::Ecdf;

/// One point of the burstiness curve: percentile `n` and the ratio of the
/// nth percentile to the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstinessPoint {
    /// Percentile in `[0, 100]`.
    pub percentile: f64,
    /// nth-percentile value divided by the median.
    pub ratio: f64,
}

/// The burstiness profile of one hourly load signal.
#[derive(Debug, Clone, PartialEq)]
pub struct Burstiness {
    /// Curve points, ordered by percentile.
    pub points: Vec<BurstinessPoint>,
    /// Peak-to-median ratio (the §5.2 headline: 9:1 … 260:1).
    pub peak_to_median: f64,
}

impl Burstiness {
    /// Compute the burstiness profile of an hourly signal. Returns `None`
    /// when the signal is empty or its median is zero (ratio undefined).
    ///
    /// `percentiles` defaults (when empty) to 1..=100 in steps of 1.
    pub fn of(signal: &[f64], percentiles: &[f64]) -> Option<Burstiness> {
        if signal.is_empty() {
            return None;
        }
        let ecdf = Ecdf::new(signal.to_vec());
        let median = ecdf.median();
        if median <= 0.0 {
            return None;
        }
        let default: Vec<f64>;
        let ps: &[f64] = if percentiles.is_empty() {
            default = (1..=100).map(|i| i as f64).collect();
            &default
        } else {
            percentiles
        };
        let points: Vec<BurstinessPoint> = ps
            .iter()
            .map(|&p| BurstinessPoint {
                percentile: p,
                ratio: ecdf.quantile(p / 100.0) / median,
            })
            .collect();
        Some(Burstiness {
            points,
            peak_to_median: ecdf.max() / median,
        })
    }

    /// Ratio at a given percentile (linear scan; curves are ≤ 100 points).
    #[cfg(test)]
    fn ratio_at(&self, percentile: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| (p.percentile - percentile).abs() < 1e-9)
            .map(|p| p.ratio)
    }
}

/// Reference sinusoidal signal for Fig. 8's comparison curves:
/// `sine + offset`, sampled hourly over `hours` hours with a 24-hour
/// period. The paper scales two variants: min-max range equal to the mean
/// (`sine + 2`) and to 10 % of the mean (`sine + 20`).
pub fn sine_reference(offset: f64, hours: usize) -> Vec<f64> {
    (0..hours)
        .map(|h| (h as f64 / 24.0 * std::f64::consts::TAU).sin() + offset)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_signal_is_vertical() {
        let b = Burstiness::of(&[5.0; 100], &[]).unwrap();
        assert!((b.peak_to_median - 1.0).abs() < 1e-12);
        assert!(b.points.iter().all(|p| (p.ratio - 1.0).abs() < 1e-12));
    }

    #[test]
    fn bursty_signal_has_high_peak_ratio() {
        let mut signal = vec![1.0; 99];
        signal.push(260.0);
        let b = Burstiness::of(&signal, &[]).unwrap();
        assert!((b.peak_to_median - 260.0).abs() < 1e-9);
        // 50th percentile is the median → ratio 1.
        assert!((b.ratio_at(50.0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ratios_are_monotone_in_percentile() {
        let signal: Vec<f64> = (1..=200).map(|i| (i as f64).powf(1.5)).collect();
        let b = Burstiness::of(&signal, &[]).unwrap();
        assert!(b.points.windows(2).all(|w| w[0].ratio <= w[1].ratio));
    }

    #[test]
    fn zero_median_returns_none() {
        assert!(Burstiness::of(&[0.0, 0.0, 0.0, 10.0], &[]).is_none());
        assert!(Burstiness::of(&[], &[]).is_none());
    }

    #[test]
    fn sine_reference_bounds() {
        // sine + 2 swings in [1, 3]: min-max range (2) equals the mean (2).
        let s = sine_reference(2.0, 24 * 7);
        let max = s.iter().cloned().fold(f64::MIN, f64::max);
        let min = s.iter().cloned().fold(f64::MAX, f64::min);
        assert!((max - 3.0).abs() < 1e-6);
        assert!((min - 1.0).abs() < 1e-6);
        let b = Burstiness::of(&s, &[]).unwrap();
        // Sinusoids are barely bursty: peak-to-median well under 2.
        assert!(b.peak_to_median < 2.0, "sine p2m {}", b.peak_to_median);
    }

    #[test]
    fn sine20_less_bursty_than_sine2() {
        let b2 = Burstiness::of(&sine_reference(2.0, 24 * 7), &[]).unwrap();
        let b20 = Burstiness::of(&sine_reference(20.0, 24 * 7), &[]).unwrap();
        assert!(b20.peak_to_median < b2.peak_to_median);
    }

    #[test]
    fn custom_percentiles_respected() {
        let signal: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let b = Burstiness::of(&signal, &[90.0, 99.0]).unwrap();
        assert_eq!(b.points.len(), 2);
        assert!((b.ratio_at(90.0).unwrap() - 90.0 / 50.0).abs() < 1e-9);
    }
}
