//! Discrete Fourier analysis for diurnal-pattern detection (§5.1).
//!
//! The paper notes that "some workloads exhibit daily diurnal patterns,
//! revealed by Fourier analysis". This module implements a plain DFT over
//! hourly signals and a detector that reports whether the 24-hour
//! component stands out from the spectrum's noise floor.

/// Magnitude spectrum of a real-valued signal (DC component excluded).
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    /// Number of input samples.
    pub n: usize,
    /// `magnitudes[k-1]` is the magnitude of frequency bin `k`
    /// (`k` cycles over the whole signal), for `k = 1..=n/2`.
    pub magnitudes: Vec<f64>,
}

impl Spectrum {
    /// Compute the DFT magnitude spectrum of `signal`. O(n²) — hourly
    /// signals here are at most a few thousand points, where the naive
    /// transform is fast enough and dependency-free.
    pub fn of(signal: &[f64]) -> Spectrum {
        let n = signal.len();
        let half = n / 2;
        let mut magnitudes = Vec::with_capacity(half);
        for k in 1..=half {
            let mut re = 0.0;
            let mut im = 0.0;
            for (t, &x) in signal.iter().enumerate() {
                let angle = std::f64::consts::TAU * k as f64 * t as f64 / n as f64;
                re += x * angle.cos();
                im -= x * angle.sin();
            }
            magnitudes.push((re * re + im * im).sqrt());
        }
        Spectrum { n, magnitudes }
    }

    /// Magnitude at the frequency corresponding to `period` samples per
    /// cycle, linearly interpolating between the two nearest bins when the
    /// signal length is not a multiple of the period.
    pub fn magnitude_at_period(&self, period: f64) -> Option<f64> {
        if self.magnitudes.is_empty() || period <= 0.0 {
            return None;
        }
        let k = self.n as f64 / period;
        if k < 1.0 || k > self.magnitudes.len() as f64 {
            return None;
        }
        let lo = k.floor() as usize;
        let hi = k.ceil() as usize;
        let m_lo = self.magnitudes[lo - 1];
        if lo == hi {
            return Some(m_lo);
        }
        let m_hi = self.magnitudes[(hi - 1).min(self.magnitudes.len() - 1)];
        let t = k - lo as f64;
        Some(m_lo + t * (m_hi - m_lo))
    }

    /// Median magnitude across all bins — the spectrum noise floor.
    pub fn noise_floor(&self) -> f64 {
        if self.magnitudes.is_empty() {
            return 0.0;
        }
        let mut sorted = self.magnitudes.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        sorted[sorted.len() / 2]
    }
}

/// Result of diurnal detection on an hourly signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalDetection {
    /// Magnitude of the 24-hour component.
    pub daily_magnitude: f64,
    /// Spectrum noise floor (median bin magnitude).
    pub noise_floor: f64,
    /// `daily_magnitude / noise_floor`; the signal-to-noise of the daily
    /// cycle.
    pub snr: f64,
    /// `true` iff the daily component exceeds the detection threshold.
    pub detected: bool,
}

/// Detect a daily cycle in an hourly signal. `threshold` is the SNR above
/// which the 24-hour bin counts as detected (3.0 is a reasonable default:
/// the daily bin must be 3× the median bin).
pub fn detect_diurnal(hourly_signal: &[f64], threshold: f64) -> Option<DiurnalDetection> {
    if hourly_signal.len() < 48 {
        return None; // need at least two days to see a daily cycle
    }
    let spectrum = Spectrum::of(hourly_signal);
    let daily = spectrum.magnitude_at_period(24.0)?;
    let floor = spectrum.noise_floor();
    let snr = if floor > 0.0 {
        daily / floor
    } else {
        f64::INFINITY
    };
    Some(DiurnalDetection {
        daily_magnitude: daily,
        noise_floor: floor,
        snr,
        detected: snr >= threshold,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn daily_sine(hours: usize, amplitude: f64, base: f64) -> Vec<f64> {
        (0..hours)
            .map(|h| base + amplitude * (h as f64 / 24.0 * std::f64::consts::TAU).sin())
            .collect()
    }

    #[test]
    fn pure_daily_sine_is_detected() {
        let signal = daily_sine(24 * 14, 10.0, 100.0);
        let d = detect_diurnal(&signal, 3.0).unwrap();
        assert!(d.detected, "snr {}", d.snr);
        assert!(d.snr > 10.0);
    }

    #[test]
    fn white_noise_is_not_detected() {
        // Deterministic pseudo-noise (LCG) — flat spectrum.
        let mut x: u64 = 12345;
        let signal: Vec<f64> = (0..24 * 14)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as f64 / (1u64 << 31) as f64
            })
            .collect();
        let d = detect_diurnal(&signal, 3.0).unwrap();
        assert!(!d.detected, "snr {}", d.snr);
    }

    #[test]
    fn spectrum_peak_at_daily_bin() {
        let hours = 24 * 10;
        let signal = daily_sine(hours, 5.0, 0.0);
        let s = Spectrum::of(&signal);
        // Bin k = hours/24 = 10 must dominate.
        let peak_bin = s
            .magnitudes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0
            + 1;
        assert_eq!(peak_bin, 10);
    }

    #[test]
    fn short_signals_are_rejected() {
        assert!(detect_diurnal(&daily_sine(24, 1.0, 0.0), 3.0).is_none());
    }

    #[test]
    fn magnitude_at_period_bounds() {
        let s = Spectrum::of(&daily_sine(96, 1.0, 0.0));
        assert!(s.magnitude_at_period(0.0).is_none());
        assert!(s.magnitude_at_period(1.0).is_none()); // beyond Nyquist
        assert!(s.magnitude_at_period(24.0).is_some());
    }

    #[test]
    fn weekly_cycle_distinguished_from_daily() {
        // A 7-day cycle should not trip the daily detector.
        let hours = 24 * 28;
        let signal: Vec<f64> = (0..hours)
            .map(|h| 100.0 + 10.0 * (h as f64 / (24.0 * 7.0) * std::f64::consts::TAU).sin())
            .collect();
        let d = detect_diurnal(&signal, 3.0).unwrap();
        assert!(
            !d.detected,
            "weekly cycle misdetected as daily, snr {}",
            d.snr
        );
    }
}
