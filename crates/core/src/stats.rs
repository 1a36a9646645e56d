//! Statistical primitives: empirical CDFs/quantiles, descriptive stats,
//! Pearson correlation and ordinary least squares.

/// An empirical cumulative distribution over a finite sample.
///
/// Every figure-1-style CDF in the paper is one of these; the harness
/// reads it at quantiles to print the published curves.
///
/// ```
/// use swim_core::stats::Ecdf;
///
/// let sizes = Ecdf::new(vec![1.0, 2.0, 2.0, 8.0, 100.0]);
/// assert_eq!(sizes.median(), 2.0);
/// assert_eq!(sizes.quantile(1.0), 100.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from samples; NaNs are rejected.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "samples must not contain NaN"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Ecdf { sorted: samples }
    }

    /// Quantile at probability `p ∈ [0, 1]` using nearest-rank. Panics on
    /// an empty sample.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty sample");
        let p = p.clamp(0.0, 1.0);
        if p == 0.0 {
            return self.sorted[0];
        }
        let rank = (p * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        *self.sorted.first().expect("non-empty")
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }
}

/// Pearson correlation coefficient of two equal-length series.
///
/// Returns 0 when either series is constant (the paper's correlation bars,
/// Fig. 9, treat degenerate hours-long flat series as uncorrelated rather
/// than undefined).
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "series must have equal length");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    let mx = xs.iter().sum::<f64>() / nf;
    let my = ys.iter().sum::<f64>() / nf;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for i in 0..n {
        let dx = xs[i] - mx;
        let dy = ys[i] - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// Result of a simple linear regression `y = slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Regression {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
}

/// Ordinary least squares over `(x, y)` points. Needs ≥ 2 points with
/// non-constant `x`.
pub fn ols(points: &[(f64, f64)]) -> Option<Regression> {
    let n = points.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / nf;
    let my = points.iter().map(|p| p.1).sum::<f64>() / nf;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for &(x, y) in points {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r_squared = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Some(Regression {
        slope,
        intercept,
        r_squared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_cdf_and_quantiles() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(0.5), 2.0);
        assert_eq!(e.quantile(1.0), 4.0);
        assert_eq!(e.median(), 2.0);
    }

    #[test]
    fn ecdf_is_monotone() {
        let e = Ecdf::new(vec![5.0, 1.0, 9.0, 2.0, 2.0, 7.0]);
        let mut last = e.min();
        for p in (0..=100).map(|i| i as f64 / 100.0) {
            let q = e.quantile(p);
            assert!(q >= last);
            last = q;
        }
    }

    #[test]
    #[should_panic(expected = "quantile of empty sample")]
    fn ecdf_empty_quantile_panics() {
        Ecdf::new(vec![]).quantile(0.5);
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let up = [2.0, 4.0, 6.0, 8.0];
        let down = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &up) - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &down) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_series_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn ols_fits_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 - 2.0)).collect();
        let r = ols(&pts).unwrap();
        assert!((r.slope - 3.0).abs() < 1e-12);
        assert!((r.intercept + 2.0).abs() < 1e-12);
        assert!((r.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ols_rejects_degenerate_inputs() {
        assert!(ols(&[(1.0, 2.0)]).is_none());
        assert!(ols(&[(1.0, 2.0), (1.0, 3.0)]).is_none());
    }
}
