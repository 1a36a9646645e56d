//! [`DataSize`]: a byte-count newtype with the log-scale formatting used
//! throughout the paper's figures (1 B … TB axes on log scale).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// Number of bytes moved by one stage of a job (input, shuffle, or output).
///
/// The paper's workloads span *at least* six orders of magnitude in per-job
/// data size (Fig. 1), so this type offers log-scale binning helpers in
/// addition to ordinary arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DataSize(u64);

/// One kibibyte-free kilobyte: the paper uses decimal axis labels (KB/MB/GB/TB).
pub const KB: u64 = 1_000;
/// One megabyte (decimal).
pub const MB: u64 = 1_000_000;
/// One gigabyte (decimal).
pub const GB: u64 = 1_000_000_000;
/// One terabyte (decimal).
pub const TB: u64 = 1_000_000_000_000;
/// One petabyte (decimal).
pub const PB: u64 = 1_000_000_000_000_000;

/// `x.round() as u64` for `0 < x < 2^64`, by an integer cast in place
/// of a libm call. The truncation `t` is exact, and so is `x - t`: below
/// 2^52 it is `x`'s fraction, and from 2^52 on `x` is an integer and it
/// is 0. So halves round away from zero, as `round` rounds them.
#[inline]
pub(crate) fn round_in_range(x: f64) -> u64 {
    let t = x as u64;
    t + u64::from(x - t as f64 >= 0.5)
}

impl DataSize {
    /// Zero bytes.
    pub const ZERO: DataSize = DataSize(0);

    /// Construct from a raw byte count.
    #[inline]
    pub const fn from_bytes(bytes: u64) -> Self {
        DataSize(bytes)
    }

    /// Construct from kilobytes (decimal).
    #[inline]
    pub const fn from_kb(kb: u64) -> Self {
        DataSize(kb * KB)
    }

    /// Construct from megabytes (decimal).
    #[inline]
    pub const fn from_mb(mb: u64) -> Self {
        DataSize(mb * MB)
    }

    /// Construct from gigabytes (decimal).
    #[inline]
    pub const fn from_gb(gb: u64) -> Self {
        DataSize(gb * GB)
    }

    /// Construct from terabytes (decimal).
    #[inline]
    pub const fn from_tb(tb: u64) -> Self {
        DataSize(tb * TB)
    }

    /// Construct from a floating-point byte count, clamping negatives to 0.
    ///
    /// Generators sample sizes from continuous distributions; this is the
    /// single funnel through which those samples become byte counts.
    #[inline]
    pub fn from_f64(bytes: f64) -> Self {
        if bytes.is_nan() || bytes <= 0.0 {
            DataSize(0)
        } else if bytes >= u64::MAX as f64 {
            DataSize(u64::MAX)
        } else {
            DataSize(round_in_range(bytes))
        }
    }

    /// Raw byte count.
    #[inline]
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// Byte count as `f64` (for statistics).
    #[inline]
    pub const fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// `true` iff zero bytes.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: DataSize) -> DataSize {
        DataSize(self.0.saturating_sub(rhs.0))
    }

    /// Multiply by a non-negative scale factor (used by scale-down).
    ///
    /// The multiplication is f64-mediated, so values above 2^53 bytes
    /// (≈ 9 PB) may round by a few bytes even at `factor = 1.0`.
    #[inline]
    pub fn scale(self, factor: f64) -> DataSize {
        DataSize::from_f64(self.0 as f64 * factor)
    }
}

impl Add for DataSize {
    type Output = DataSize;
    #[inline]
    fn add(self, rhs: DataSize) -> DataSize {
        DataSize(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for DataSize {
    #[inline]
    fn add_assign(&mut self, rhs: DataSize) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for DataSize {
    type Output = DataSize;
    #[inline]
    fn sub(self, rhs: DataSize) -> DataSize {
        DataSize(self.0.saturating_sub(rhs.0))
    }
}

impl Sum for DataSize {
    fn sum<I: Iterator<Item = DataSize>>(iter: I) -> DataSize {
        iter.fold(DataSize::ZERO, |acc, x| acc + x)
    }
}

impl fmt::Display for DataSize {
    /// Human-readable rendering with the paper's decimal units:
    /// `0 B`, `4.6 KB`, `21 MB`, `1.2 TB`, …
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        let (value, unit) = if b >= PB {
            (b as f64 / PB as f64, "PB")
        } else if b >= TB {
            (b as f64 / TB as f64, "TB")
        } else if b >= GB {
            (b as f64 / GB as f64, "GB")
        } else if b >= MB {
            (b as f64 / MB as f64, "MB")
        } else if b >= KB {
            (b as f64 / KB as f64, "KB")
        } else {
            return write!(f, "{b} B");
        };
        if value >= 100.0 {
            write!(f, "{value:.0} {unit}")
        } else if value >= 10.0 {
            write!(f, "{value:.1} {unit}")
        } else {
            write!(f, "{value:.2} {unit}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(DataSize::from_kb(1).bytes(), 1_000);
        assert_eq!(DataSize::from_mb(2).bytes(), 2_000_000);
        assert_eq!(DataSize::from_gb(3).bytes(), 3 * GB);
        assert_eq!(DataSize::from_tb(4).bytes(), 4 * TB);
    }

    #[test]
    fn rounding_by_cast_is_f64_round() {
        let below_2_64 = f64::from_bits((u64::MAX as f64).to_bits() - 1);
        let mut grid = vec![0.49999999999999994, 0.5, 1.5, 2.5, 2.0_f64.powi(52) + 0.5];
        grid.extend([2.0_f64.powi(53), 2.0_f64.powi(63), below_2_64]);
        grid.extend((0..64).map(|k| f64::from(k) + 0.5));
        grid.extend((1..64).flat_map(|e| {
            let p = 2.0_f64.powi(e);
            [
                p - 0.5,
                p,
                p + 0.5,
                f64::from_bits(p.to_bits() - 1),
                f64::from_bits(p.to_bits() + 1),
            ]
        }));
        for x in grid.into_iter().filter(|&x| x > 0.0 && x < u64::MAX as f64) {
            assert_eq!(round_in_range(x), x.round() as u64, "{x:e}");
        }
    }

    #[test]
    fn from_f64_clamps() {
        assert_eq!(DataSize::from_f64(-1.0), DataSize::ZERO);
        assert_eq!(DataSize::from_f64(f64::NAN), DataSize::ZERO);
        assert_eq!(DataSize::from_f64(1.6), DataSize::from_bytes(2));
        assert_eq!(DataSize::from_f64(f64::INFINITY).bytes(), u64::MAX);
    }

    #[test]
    fn display_uses_decimal_units() {
        assert_eq!(DataSize::from_bytes(999).to_string(), "999 B");
        assert_eq!(DataSize::from_bytes(4_600).to_string(), "4.60 KB");
        assert_eq!(DataSize::from_mb(51).to_string(), "51.0 MB");
        assert_eq!(DataSize::from_bytes(1_200 * GB).to_string(), "1.20 TB");
        assert_eq!(DataSize::from_bytes(18 * PB).to_string(), "18.0 PB");
    }

    #[test]
    fn arithmetic_saturates() {
        let max = DataSize::from_bytes(u64::MAX);
        assert_eq!(max + DataSize::from_bytes(1), max);
        assert_eq!(DataSize::ZERO - DataSize::from_bytes(5), DataSize::ZERO);
    }

    #[test]
    fn sum_accumulates() {
        let total: DataSize = [1u64, 2, 3].into_iter().map(DataSize::from_bytes).sum();
        assert_eq!(total.bytes(), 6);
    }

    #[test]
    fn scale_rounds() {
        assert_eq!(DataSize::from_bytes(10).scale(0.25).bytes(), 3);
        assert_eq!(DataSize::from_bytes(10).scale(0.0).bytes(), 0);
    }

    #[test]
    fn ordering_is_byte_ordering() {
        assert!(DataSize::from_kb(1) < DataSize::from_mb(1));
    }
}
