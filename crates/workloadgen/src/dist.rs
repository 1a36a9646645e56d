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

/// Bounded Zipf-like distribution over ranks `1..=n` with exponent `s`.
///
/// Drawn by inverting the curve Devroye's rejection method uses as its
/// envelope, built on the integral `H` of `x^-s`, which is O(1) per sample
/// for any `n`, so the file population may grow while sampling stays
/// cheap. The paper's measured exponent is ≈ 5/6 across all workloads
/// (Fig. 2) — "Zipf-like distributions of the same shape".
///
/// What it draws is the envelope, not `k^-s`: `P(k) ∝ H(k + 1/2) -
/// H(k - 1/2)` (rank 1 gets its mass over `[1/2, 3/2]`). Devroye's
/// acceptance test would compare a second uniform with a ratio that is at
/// least 1 at every rank, so it cannot reject and is not computed; the
/// uniform is still drawn, because the generator goldens are pinned to
/// the RNG stream of the full rejection sampler (the tests keep it as the
/// oracle).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zipf {
    n: u64,
    s: f64,
    /// `H(1/2)` and `H(n + 1/2)`: the dominating curve's mass bounds.
    h_min: f64,
    h_max: f64,
}

impl Zipf {
    /// Zipf over `1..=n` with exponent `s` (`n >= 1`, `s > 0`; s = 1 is
    /// allowed).
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n >= 1, "population must be non-empty");
        assert!(s > 0.0 && s.is_finite(), "exponent must be positive");
        Zipf {
            n,
            s,
            h_min: big_h(s, 0.5),
            h_max: big_h(s, n as f64 + 0.5),
        }
    }

    /// Resize to `1..=n` (`n >= 1`), keeping the exponent's constants:
    /// only `H(n + 1/2)` is recomputed, and only when `n` changes, so a
    /// sampler over a growing population pays for the exponent once.
    pub fn set_n(&mut self, n: u64) {
        assert!(n >= 1, "population must be non-empty");
        if n != self.n {
            self.n = n;
            self.h_max = big_h(self.s, n as f64 + 0.5);
        }
    }

    /// Sample one rank in `1..=n`: the rank the dominating curve puts at
    /// a uniform draw (Devroye, "Non-Uniform Random Variate Generation",
    /// ch. X.6).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.n == 1 {
            return 1;
        }
        let s = self.s;
        let y = self.h_min + rng.random::<f64>() * (self.h_max - self.h_min);
        let x = if (s - 1.0).abs() < 1e-12 {
            y.exp()
        } else {
            (1.0 + y * (1.0 - s)).powf(1.0 / (1.0 - s))
        };
        // The acceptance test's uniform: see the type's doc.
        let _: f64 = rng.random();
        // `x + 0.5` is positive, so the cast floors it.
        ((x + 0.5) as u64).clamp(1, self.n)
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

    /// `k^-s / (H(k+1/2) - H(k-1/2))` at k = 1, the normalizer of the
    /// old acceptance ratio. It is the ratio's *minimum*, not its maximum:
    /// `x^-s` is convex, so its mass over `[k-1/2, k+1/2]` exceeds `k^-s`
    /// by a share that shrinks as `k` grows, and the ratio rises from here
    /// towards 1. Normalized by it, acceptance is exactly 1 at k = 1 and
    /// above 1 beyond (up to 1.074 for s = 5/6 and 1.099 for s = 1), so no
    /// rank is rejected.
    fn dominating_peak(s: f64) -> f64 {
        1.0 / (big_h(s, 1.5) - big_h(s, 0.5))
    }

    /// The old acceptance probability at rank `k`: the true pmf at `k`
    /// over the dominating curve's mass on `[k - 1/2, k + 1/2]`,
    /// normalized by [`dominating_peak`].
    fn acceptance(s: f64, k: f64) -> f64 {
        let mass = big_h(s, k + 0.5) - big_h(s, k - 0.5);
        let ratio = (k.powf(-s)) / mass.max(f64::MIN_POSITIVE);
        ratio / dominating_peak(s)
    }

    /// `Zipf::sample` as it was when it ran Devroye's rejection test: the
    /// oracle the sampler without it is held to.
    fn devroye_reference<R: Rng + ?Sized>(z: &Zipf, rng: &mut R) -> u64 {
        if z.n == 1 {
            return 1;
        }
        let n = z.n as f64;
        let s = z.s;
        let h_inv = |y: f64| -> f64 {
            if (s - 1.0).abs() < 1e-12 {
                y.exp()
            } else {
                (1.0 + y * (1.0 - s)).powf(1.0 / (1.0 - s))
            }
        };
        loop {
            let u: f64 = rng.random();
            let y = z.h_min + u * (z.h_max - z.h_min);
            let x = h_inv(y);
            let k = ((x + 0.5) as u64 as f64).clamp(1.0, n);
            if rng.random::<f64>() < acceptance(s, k) {
                return k as u64;
            }
        }
    }

    #[test]
    fn skipping_the_acceptance_arithmetic_changes_no_draw() {
        use rand::RngCore;
        for s in [0.5, 5.0 / 6.0, 1.0, 1.5, 2.0] {
            for n in [1, 2, 32, 4096, 1 << 18] {
                let z = Zipf::new(n, s);
                let seed = n ^ s.to_bits();
                let (mut fast, mut oracle) =
                    (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                for _ in 0..100_000 {
                    assert_eq!(
                        z.sample(&mut fast),
                        devroye_reference(&z, &mut oracle),
                        "s {s}, n {n}"
                    );
                }
                assert_eq!(fast.next_u64(), oracle.next_u64(), "s {s}, n {n}");
            }
        }
    }

    #[test]
    fn acceptance_never_falls_below_one_for_the_exponents_in_use() {
        let n = crate::files::PopulationBounds::default().max_files as u64;
        for s in [5.0 / 6.0, 1.0] {
            assert_eq!(acceptance(s, 1.0), 1.0, "s {s}");
            for k in 1..=n {
                let accept = acceptance(s, k as f64);
                assert!(accept >= 1.0, "s {s}: acceptance {accept} at rank {k}");
            }
        }
    }

    #[test]
    fn set_n_resizes_like_a_fresh_sampler() {
        let mut z = Zipf::new(1, 5.0 / 6.0);
        for n in [7, 7, 4096, 2, 1] {
            z.set_n(n);
            assert_eq!(z, Zipf::new(n, 5.0 / 6.0));
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
