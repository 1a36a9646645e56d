//! Job arrival process: a non-homogeneous Poisson process with diurnal
//! modulation and heavy-tailed per-hour burst multipliers.
//!
//! §5 of the paper finds cluster load to be "bursty and unpredictable",
//! with hourly peak-to-median ratios between 9:1 and 260:1 (Fig. 8), far
//! above a sinusoidal diurnal. We model the hourly submission rate as
//!
//! ```text
//! rate(h) = base · diurnal(h) · burst(h)
//! ```
//!
//! where `diurnal` is a raised cosine with per-workload amplitude (some
//! workloads show Fourier-detectable daily cycles — e.g. FB-2010 job
//! submissions) and `burst` is a log-normal multiplier with per-workload
//! sigma producing the published peak-to-median bands. Within an hour,
//! arrivals are Poisson (exponential gaps).

use crate::dist::{poisson, LogNormal};
use rand::rngs::StdRng;
use rand::Rng;
use swim_trace::time::HOUR;
use swim_trace::Timestamp;

/// Parameters of one workload's arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalModel {
    /// Mean jobs per hour over the whole trace.
    pub jobs_per_hour: f64,
    /// Diurnal amplitude in `[0, 1)`: 0 = flat, 0.5 = daily ±50 % swing.
    pub diurnal_amplitude: f64,
    /// Hour of day (0–23) at which the diurnal peak falls.
    pub peak_hour: f64,
    /// ln-space sigma of the per-hour burst multiplier. 0 = no bursts;
    /// 1.0 yields peak-to-median ≈ 10–30:1 over a multi-week trace, 1.6
    /// pushes towards the CC-b-like 100–260:1 extremes.
    pub burst_sigma: f64,
}

impl ArrivalModel {
    /// A flat Poisson process (no diurnal, no bursts) — the baseline for
    /// the arrival-process ablation.
    #[cfg(test)]
    pub(crate) fn flat(jobs_per_hour: f64) -> Self {
        ArrivalModel {
            jobs_per_hour,
            diurnal_amplitude: 0.0,
            peak_hour: 0.0,
            burst_sigma: 0.0,
        }
    }

    /// Diurnal rate factor for a given absolute hour index (mean 1 over a day).
    pub fn diurnal_factor(&self, hour_index: u64) -> f64 {
        if self.diurnal_amplitude == 0.0 {
            return 1.0;
        }
        let hour_of_day = (hour_index % 24) as f64;
        let phase = (hour_of_day - self.peak_hour) / 24.0 * std::f64::consts::TAU;
        1.0 + self.diurnal_amplitude * phase.cos()
    }

    /// Sample the submission instants for a trace of `hours` hours.
    /// Returned timestamps are sorted and lie in `[0, hours·3600)`.
    #[cfg(test)]
    pub(crate) fn sample_arrivals<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        hours: u64,
    ) -> Vec<Timestamp> {
        self.sample_arrivals_with_intensity(rng, hours)
            .into_iter()
            .map(|(t, _)| t)
            .collect()
    }

    /// Like [`ArrivalModel::sample_arrivals`], but each arrival also
    /// carries the burst intensity of its hour (the burst multiplier,
    /// normalized to long-run mean 1). Generators use the intensity to
    /// make burst *excess* arrivals predominantly small interactive jobs
    /// — the §1/§7 "interactive, semi-streaming analysis" storms — which
    /// is what keeps jobs/hour only weakly correlated with bytes/hour
    /// (Fig. 9) while the submission rate swings by orders of magnitude.
    /// The batch oracle [`ArrivalModel::stream`] is tested against.
    #[cfg(test)]
    pub(crate) fn sample_arrivals_with_intensity<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        hours: u64,
    ) -> Vec<(Timestamp, f64)> {
        let mut out = Vec::with_capacity((self.jobs_per_hour * hours as f64) as usize + 16);
        for h in 0..hours {
            let (intensity, count) = self.draw_hour(rng, h);
            let base = h * HOUR;
            let mut offsets = SortedOffsets::new(count);
            for _ in 0..count {
                out.push((Timestamp::from_secs(base + offsets.next(rng)), intensity));
            }
        }
        // Hours are emitted in order and offsets ascend within each hour,
        // so the result is already globally sorted — no O(n log n) pass.
        out
    }

    /// Draw one hour of the process: the burst intensity (normalized to
    /// long-run mean 1) and the Poisson arrival count. Shared by the batch
    /// sampler and [`ArrivalStream`] so both consume the RNG identically.
    fn draw_hour<R: Rng + ?Sized>(&self, rng: &mut R, hour: u64) -> (f64, u64) {
        let mut rate = self.jobs_per_hour * self.diurnal_factor(hour);
        let mut intensity = 1.0;
        if self.burst_sigma > 0.0 {
            let b = LogNormal::from_median(1.0, self.burst_sigma);
            // Divide by the log-normal mean so the long-run average rate
            // stays `jobs_per_hour` despite the heavy tail.
            intensity = b.sample(rng) / b.mean();
            rate *= intensity;
        }
        (intensity, poisson(rng, rate))
    }

    /// The arrival process: an iterator of `(submit, intensity)` pairs
    /// in O(1) memory, bit-identical to the batch sampler its tests hold
    /// it to when driven by an identically seeded RNG.
    pub fn stream(self, rng: StdRng, hours: u64) -> ArrivalStream {
        ArrivalStream {
            model: self,
            hours,
            rng,
            hour: 0,
            current: None,
        }
    }

    /// Sample inter-arrival gaps for a *stationary* stream at the model's
    /// mean rate — used by replay tools that only need gaps, not absolute
    /// hours.
    #[cfg(test)]
    pub(crate) fn sample_gap<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let rate = self.jobs_per_hour.max(f64::MIN_POSITIVE) / HOUR as f64;
        crate::dist::Exponential::new(rate).sample(rng)
    }
}

/// Ascending uniform order statistics over one hour, generated one at a
/// time in O(1) memory: for `n` uniforms on `[0, 1)`, the ascending
/// sequence satisfies `x_i = 1 − (1 − x_{i−1})·(1 − Uᵢ)^{1/(n−i+1)}`,
/// which lets the streaming generator emit sorted within-hour offsets
/// without buffering (or sorting) the hour's arrivals.
#[derive(Debug, Clone)]
struct SortedOffsets {
    remaining: u64,
    last: f64,
}

impl SortedOffsets {
    fn new(count: u64) -> Self {
        SortedOffsets {
            remaining: count,
            last: 0.0,
        }
    }

    /// Next offset in seconds, in `[0, HOUR)`, non-decreasing across calls.
    fn next<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        debug_assert!(self.remaining > 0);
        let u: f64 = rng.random();
        self.last = 1.0 - (1.0 - self.last) * (1.0 - u).powf(1.0 / self.remaining as f64);
        self.remaining -= 1;
        ((self.last * HOUR as f64) as u64).min(HOUR - 1)
    }
}

/// Streaming arrival process: yields `(submit, intensity)` pairs in
/// ascending submit order using O(1) state — one hour's `(intensity,
/// count)` draw plus the order-statistics recurrence. Created by
/// [`ArrivalModel::stream`]; consumes the RNG exactly like the batch
/// sampler, so a batch and a stream seeded identically agree bit for bit.
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    model: ArrivalModel,
    hours: u64,
    rng: StdRng,
    hour: u64,
    current: Option<HourState>,
}

#[derive(Debug, Clone)]
struct HourState {
    base: u64,
    intensity: f64,
    offsets: SortedOffsets,
}

impl Iterator for ArrivalStream {
    type Item = (Timestamp, f64);

    fn next(&mut self) -> Option<(Timestamp, f64)> {
        loop {
            if let Some(h) = &mut self.current {
                if h.offsets.remaining > 0 {
                    let t = Timestamp::from_secs(h.base + h.offsets.next(&mut self.rng));
                    return Some((t, h.intensity));
                }
                self.current = None;
            }
            if self.hour >= self.hours {
                return None;
            }
            let h = self.hour;
            self.hour += 1;
            let (intensity, count) = self.model.draw_hour(&mut self.rng, h);
            if count > 0 {
                self.current = Some(HourState {
                    base: h * HOUR,
                    intensity,
                    offsets: SortedOffsets::new(count),
                });
            }
        }
    }
}

/// Peak-to-median ratio of hourly counts — the scalar headline of the
/// paper's burstiness metric (the full vector version lives in
/// `swim-core::burstiness`). Returns `None` when the median is zero.
pub fn peak_to_median(hourly_counts: &[u64]) -> Option<f64> {
    if hourly_counts.is_empty() {
        return None;
    }
    let mut sorted: Vec<u64> = hourly_counts.to_vec();
    sorted.sort_unstable();
    let median = sorted[sorted.len() / 2];
    if median == 0 {
        return None;
    }
    let peak = *sorted.last().unwrap();
    Some(peak as f64 / median as f64)
}

/// Bucket sorted timestamps into hourly counts over `hours` buckets.
pub fn hourly_counts(arrivals: &[Timestamp], hours: u64) -> Vec<u64> {
    let mut counts = vec![0u64; hours as usize];
    for t in arrivals {
        let h = t.hour_bucket();
        if h < hours {
            counts[h as usize] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn flat_model_hits_mean_rate() {
        let mut rng = StdRng::seed_from_u64(10);
        let m = ArrivalModel::flat(50.0);
        let hours = 24 * 14;
        let arrivals = m.sample_arrivals(&mut rng, hours);
        let per_hour = arrivals.len() as f64 / hours as f64;
        assert!((per_hour - 50.0).abs() < 2.0, "rate {per_hour}");
    }

    #[test]
    fn arrivals_are_sorted_and_in_range() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = ArrivalModel {
            jobs_per_hour: 20.0,
            diurnal_amplitude: 0.5,
            peak_hour: 14.0,
            burst_sigma: 1.0,
        };
        let arrivals = m.sample_arrivals(&mut rng, 48);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert!(arrivals.iter().all(|t| t.secs() < 48 * HOUR));
    }

    #[test]
    fn diurnal_factor_peaks_at_peak_hour() {
        let m = ArrivalModel {
            jobs_per_hour: 1.0,
            diurnal_amplitude: 0.5,
            peak_hour: 14.0,
            burst_sigma: 0.0,
        };
        assert!((m.diurnal_factor(14) - 1.5).abs() < 1e-9);
        assert!((m.diurnal_factor(2) - 0.5).abs() < 1e-9);
        // Mean over a day is 1.
        let mean: f64 = (0..24).map(|h| m.diurnal_factor(h)).sum::<f64>() / 24.0;
        assert!((mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bursty_model_is_burstier_than_flat() {
        let mut rng = StdRng::seed_from_u64(12);
        let hours = 24 * 30;
        let flat = ArrivalModel::flat(40.0);
        let bursty = ArrivalModel {
            jobs_per_hour: 40.0,
            diurnal_amplitude: 0.0,
            peak_hour: 0.0,
            burst_sigma: 1.3,
        };
        let f = peak_to_median(&hourly_counts(
            &flat.sample_arrivals(&mut rng, hours),
            hours,
        ))
        .unwrap();
        let b = peak_to_median(&hourly_counts(
            &bursty.sample_arrivals(&mut rng, hours),
            hours,
        ))
        .unwrap();
        assert!(b > 2.0 * f, "bursty {b} vs flat {f}");
        assert!(b >= 5.0, "bursty model should exceed 5:1, got {b}");
    }

    #[test]
    fn burst_normalization_preserves_mean_rate() {
        let mut rng = StdRng::seed_from_u64(13);
        let m = ArrivalModel {
            jobs_per_hour: 100.0,
            diurnal_amplitude: 0.0,
            peak_hour: 0.0,
            burst_sigma: 1.0,
        };
        let hours = 24 * 60;
        let arrivals = m.sample_arrivals(&mut rng, hours);
        let per_hour = arrivals.len() as f64 / hours as f64;
        assert!(
            (per_hour / 100.0 - 1.0).abs() < 0.15,
            "mean rate drifted to {per_hour}"
        );
    }

    #[test]
    fn peak_to_median_edge_cases() {
        assert_eq!(peak_to_median(&[]), None);
        assert_eq!(peak_to_median(&[0, 0, 5]), None); // median 0
        assert_eq!(peak_to_median(&[2, 2, 8]), Some(4.0));
    }

    #[test]
    fn hourly_counts_buckets_correctly() {
        let arrivals = vec![
            Timestamp::from_secs(0),
            Timestamp::from_secs(HOUR - 1),
            Timestamp::from_secs(HOUR),
            Timestamp::from_secs(10 * HOUR),
        ];
        let counts = hourly_counts(&arrivals, 4);
        assert_eq!(counts, vec![2, 1, 0, 0]); // last arrival out of range
    }

    #[test]
    fn stream_matches_batch_bit_for_bit() {
        let m = ArrivalModel {
            jobs_per_hour: 35.0,
            diurnal_amplitude: 0.4,
            peak_hour: 11.0,
            burst_sigma: 1.2,
        };
        let hours = 24 * 4;
        let mut batch_rng = StdRng::seed_from_u64(77);
        let batch = m.sample_arrivals_with_intensity(&mut batch_rng, hours);
        let streamed: Vec<(Timestamp, f64)> = m.stream(StdRng::seed_from_u64(77), hours).collect();
        assert_eq!(batch, streamed);
        assert!(!batch.is_empty());
    }

    #[test]
    fn sorted_offsets_ascend_and_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut os = SortedOffsets::new(500);
        let mut last = 0;
        for _ in 0..500 {
            let off = os.next(&mut rng);
            assert!(off >= last && off < HOUR, "offset {off} after {last}");
            last = off;
        }
    }

    #[test]
    fn gap_sampler_mean_matches_rate() {
        let mut rng = StdRng::seed_from_u64(14);
        let m = ArrivalModel::flat(3600.0); // one per second
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| m.sample_gap(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean gap {mean}");
    }
}
