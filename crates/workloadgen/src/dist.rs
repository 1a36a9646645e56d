//! Statistical distributions used by the generators.
//!
//! Only `rand`'s uniform source is assumed; everything else (normal via
//! Box–Muller, log-normal, exponential, bounded Zipf, categorical) is
//! implemented here.

use rand::Rng;

/// Sample a standard normal via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid u1 == 0 exactly (ln(0) = -inf).
    let u1: f64 = loop {
        let u: f64 = rng.random();
        if u > f64::MIN_POSITIVE {
            break u;
        }
    };
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Log-normal distribution parameterized by the *median* (`exp(mu)`) and
/// the shape `sigma` (std-dev of the underlying normal, in ln-space).
///
/// Generators jitter Table 2 centroids with this: the centroid is the
/// median, `sigma` controls within-cluster spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// From median and ln-space sigma. `median` must be > 0 and finite;
    /// `sigma` must be >= 0 and finite.
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(
            median > 0.0 && median.is_finite(),
            "median must be positive"
        );
        assert!(
            sigma >= 0.0 && sigma.is_finite(),
            "sigma must be non-negative"
        );
        LogNormal {
            mu: median.ln(),
            sigma,
        }
    }

    /// Sample one value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }

    /// The distribution mean `exp(mu + sigma²/2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

/// Exponential distribution with the given rate `lambda` (mean `1/lambda`).
/// Used for Poisson inter-arrival gaps inside an hour bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// From rate; `lambda` must be positive and finite.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda > 0.0 && lambda.is_finite(),
            "lambda must be positive"
        );
        Exponential { lambda }
    }

    /// Sample one value via inverse transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = loop {
            let u: f64 = rng.random();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        -u.ln() / self.lambda
    }
}

/// Sample a Poisson count with mean `lambda`.
///
/// Knuth's product method for small `lambda`, normal approximation above
/// 30 (hour buckets in big workloads can have thousands of arrivals; exact
/// sampling there is needless work).
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        let x = lambda + lambda.sqrt() * standard_normal(rng);
        return if x < 0.0 { 0 } else { x.round() as u64 };
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0f64;
    loop {
        p *= rng.random::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Bounded Zipf distribution over ranks `1..=n` with exponent `s`:
/// `P(k) ∝ k^-s`.
///
/// Uses Devroye's rejection method, which is O(1) per sample for any `n`,
/// so the file population may grow while sampling stays cheap. The paper's
/// measured exponent is ≈ 5/6 across all workloads (Fig. 2) — "Zipf-like
/// distributions of the same shape".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zipf {
    n: u64,
    s: f64,
    /// `H(1/2)` and `H(n + 1/2)`: the dominating curve's mass bounds.
    h_min: f64,
    h_max: f64,
    /// [`dominating_peak`] of `s`.
    peak: f64,
}

impl Zipf {
    /// Zipf over `1..=n` with exponent `s` (`n >= 1`, `s > 0`, `s != 1` is
    /// not required — the rejection sampler handles s = 1 too).
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n >= 1, "population must be non-empty");
        assert!(s > 0.0 && s.is_finite(), "exponent must be positive");
        Zipf {
            n,
            s,
            h_min: big_h(s, 0.5),
            h_max: big_h(s, n as f64 + 0.5),
            peak: dominating_peak(s),
        }
    }

    /// The same exponent over `1..=n` (`n >= 1`): only `H(n + 1/2)` is
    /// computed, so a sampler over a growing population pays for the
    /// exponent's constants once.
    pub fn with_n(self, n: u64) -> Self {
        assert!(n >= 1, "population must be non-empty");
        let h_max = big_h(self.s, n as f64 + 0.5);
        Zipf { n, h_max, ..self }
    }

    /// Sample one rank in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.n == 1 {
            return 1;
        }
        // Devroye, "Non-Uniform Random Variate Generation", ch. X.6:
        // rejection from a dominating curve built on the integral of x^-s.
        let n = self.n as f64;
        let s = self.s;
        let h_inv = |y: f64| -> f64 {
            if (s - 1.0).abs() < 1e-12 {
                y.exp()
            } else {
                (1.0 + y * (1.0 - s)).powf(1.0 / (1.0 - s))
            }
        };
        loop {
            let u: f64 = rng.random();
            let y = self.h_min + u * (self.h_max - self.h_min);
            let x = h_inv(y);
            // `x + 0.5` is positive, so the cast floors it.
            let k = ((x + 0.5) as u64 as f64).clamp(1.0, n);
            // Accept with probability proportional to the ratio of the true
            // pmf at k to the dominating density mass over [k-1/2, k+1/2].
            let mass = big_h(s, k + 0.5) - big_h(s, k - 0.5);
            let ratio = (k.powf(-s)) / mass.max(f64::MIN_POSITIVE);
            let accept = ratio / self.peak;
            if rng.random::<f64>() < accept {
                return k as u64;
            }
        }
    }
}

/// `H(x)`, the integral of `x^-s`: `(x^(1-s) - 1) / (1-s)` for s != 1,
/// `ln x` else.
fn big_h(s: f64, x: f64) -> f64 {
    if (s - 1.0).abs() < 1e-12 {
        x.ln()
    } else {
        (x.powf(1.0 - s) - 1.0) / (1.0 - s)
    }
}

/// Upper bound of `k^-s / (H(k+1/2) - H(k-1/2))` over `k >= 1`, used to
/// normalize the acceptance ratio to (0, 1]. The ratio is maximized at
/// k = 1; evaluate there.
fn dominating_peak(s: f64) -> f64 {
    1.0 / (big_h(s, 1.5) - big_h(s, 0.5))
}

/// Weighted categorical sampler over `0..weights.len()` using cumulative
/// sums + binary search. Rejects non-finite and negative weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    cumulative: Vec<f64>,
    total: f64,
}

impl Categorical {
    /// Build from non-negative weights; at least one must be positive.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "need at least one weight");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for &w in weights {
            assert!(w >= 0.0 && w.is_finite(), "weights must be finite and >= 0");
            total += w;
            cumulative.push(total);
        }
        assert!(total > 0.0, "at least one weight must be positive");
        Categorical { cumulative, total }
    }

    /// Sample one index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let x: f64 = rng.random::<f64>() * self.total;
        match self
            .cumulative
            .binary_search_by(|probe| probe.partial_cmp(&x).expect("finite"))
        {
            Ok(i) => (i + 1).min(self.cumulative.len() - 1),
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }

    /// Number of categories.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.cumulative.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_median_recovery() {
        let mut r = rng();
        let d = LogNormal::from_median(1000.0, 0.7);
        let mut samples: Vec<f64> = (0..10_001).map(|_| d.sample(&mut r)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[5000];
        assert!(
            (median / 1000.0 - 1.0).abs() < 0.1,
            "sample median {median} vs 1000"
        );
        assert!((d.mean() - (1000f64.ln() + 0.245).exp()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "median must be positive")]
    fn lognormal_rejects_zero_median() {
        LogNormal::from_median(0.0, 1.0);
    }

    #[test]
    fn exponential_mean_recovery() {
        let mut r = rng();
        let d = Exponential::new(0.25);
        let n = 20_000;
        let mean = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn poisson_small_and_large_lambda() {
        let mut r = rng();
        for &lambda in &[0.5, 5.0, 200.0] {
            let n = 10_000;
            let mean = (0..n).map(|_| poisson(&mut r, lambda) as f64).sum::<f64>() / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.08,
                "lambda {lambda}: mean {mean}"
            );
        }
        assert_eq!(poisson(&mut r, 0.0), 0);
        assert_eq!(poisson(&mut r, -3.0), 0);
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let mut r = rng();
        let z = Zipf::new(1000, 5.0 / 6.0);
        let n = 50_000;
        let mut counts = vec![0u64; 1001];
        for _ in 0..n {
            let k = z.sample(&mut r);
            assert!((1..=1000).contains(&k));
            counts[k as usize] += 1;
        }
        // Rank 1 must be the most frequent, and far above the tail.
        let max_rank = counts
            .iter()
            .enumerate()
            .skip(1)
            .max_by_key(|(_, &c)| c)
            .unwrap()
            .0;
        assert_eq!(max_rank, 1);
        assert!(counts[1] > 20 * counts[900].max(1));
    }

    #[test]
    fn zipf_exponent_recovered_by_regression() {
        // Frequency of rank k should be ∝ k^-s; fit log(freq) ~ log(rank).
        let mut r = rng();
        let s_true = 5.0 / 6.0;
        let z = Zipf::new(500, s_true);
        let mut counts = vec![0u64; 501];
        for _ in 0..200_000 {
            counts[z.sample(&mut r) as usize] += 1;
        }
        let pts: Vec<(f64, f64)> = (1..=100)
            .filter(|&k| counts[k] > 0)
            .map(|k| ((k as f64).ln(), (counts[k] as f64).ln()))
            .collect();
        let n = pts.len() as f64;
        let sx: f64 = pts.iter().map(|p| p.0).sum();
        let sy: f64 = pts.iter().map(|p| p.1).sum();
        let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
        let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        assert!(
            (slope + s_true).abs() < 0.08,
            "fitted slope {slope}, expected {}",
            -s_true
        );
    }

    #[test]
    fn zipf_handles_singleton_and_s_equal_one() {
        let mut r = rng();
        assert_eq!(Zipf::new(1, 0.9).sample(&mut r), 1);
        let z = Zipf::new(100, 1.0);
        for _ in 0..1000 {
            assert!((1..=100).contains(&z.sample(&mut r)));
        }
    }

    #[test]
    fn categorical_respects_weights() {
        let mut r = rng();
        let c = Categorical::new(&[8.0, 1.0, 1.0]);
        let n = 30_000;
        let mut counts = [0u64; 3];
        for _ in 0..n {
            counts[c.sample(&mut r)] += 1;
        }
        let f0 = counts[0] as f64 / n as f64;
        assert!((f0 - 0.8).abs() < 0.02, "f0 {f0}");
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn categorical_zero_weight_never_sampled() {
        let mut r = rng();
        let c = Categorical::new(&[1.0, 0.0, 1.0]);
        for _ in 0..5_000 {
            assert_ne!(c.sample(&mut r), 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least one weight must be positive")]
    fn categorical_rejects_all_zero() {
        Categorical::new(&[0.0, 0.0]);
    }

    #[test]
    fn determinism_same_seed_same_stream() {
        let d = LogNormal::from_median(50.0, 1.0);
        let a: Vec<f64> = (0..10)
            .map(|_| d.sample(&mut StdRng::seed_from_u64(9)))
            .collect();
        let b: Vec<f64> = (0..10)
            .map(|_| d.sample(&mut StdRng::seed_from_u64(9)))
            .collect();
        assert_eq!(a, b);
    }
}
