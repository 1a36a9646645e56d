//! The paper's number formats: ratios, percentages and decimal byte
//! sizes, as the experiments and the comparison battery print them.
//! Tables and sparklines are [`swim_obs::render`]'s.

/// Format a ratio like `31:1`.
pub fn ratio(r: f64) -> String {
    if r >= 10.0 {
        format!("{:.0}:1", r)
    } else {
        format!("{:.1}:1", r)
    }
}

/// Format a fraction as a percentage with sensible precision.
pub fn pct(f: f64) -> String {
    let p = f * 100.0;
    if p >= 10.0 {
        format!("{p:.0}%")
    } else if p >= 1.0 {
        format!("{p:.1}%")
    } else {
        format!("{p:.2}%")
    }
}

/// Format a byte count in the paper's decimal units.
pub fn bytes(b: f64) -> String {
    swim_trace::DataSize::from_f64(b).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(31.2), "31:1");
        assert_eq!(ratio(9.4), "9.4:1");
        assert_eq!(pct(0.80), "80%");
        assert_eq!(pct(0.056), "5.6%");
        assert_eq!(pct(0.0012), "0.12%");
        assert_eq!(bytes(1.2e12), "1.20 TB");
    }

    #[test]
    fn ratio_rounding_edges() {
        // The 10.0 boundary switches precision: just below it one decimal
        // is kept (9.96 rounds to 10.0:1), from 10.0 the decimal drops.
        assert_eq!(ratio(9.96), "10.0:1");
        assert_eq!(ratio(10.0), "10:1");
        assert_eq!(ratio(9.44), "9.4:1");
        assert_eq!(ratio(0.0), "0.0:1");
        // {:.0} uses round-half-to-even: 10.5 rounds down, 11.5 up.
        assert_eq!(ratio(10.5), "10:1");
        assert_eq!(ratio(11.5), "12:1");
    }

    #[test]
    fn pct_rounding_edges() {
        // Precision steps at 1 % and 10 %.
        assert_eq!(pct(0.0999), "10.0%");
        assert_eq!(pct(0.1), "10%");
        assert_eq!(pct(0.00999), "1.00%");
        assert_eq!(pct(0.01), "1.0%");
        assert_eq!(pct(0.0), "0.00%");
        assert_eq!(pct(1.0), "100%");
        // Over-unity fractions render as >100 % rather than clamping.
        assert_eq!(pct(1.5), "150%");
        assert_eq!(pct(0.005), "0.50%");
    }

    #[test]
    fn bytes_rounding_edges() {
        assert_eq!(bytes(0.0), "0 B");
        assert_eq!(bytes(999.0), "999 B");
        assert_eq!(bytes(1e3), "1.00 KB");
        assert_eq!(bytes(1e6), "1.00 MB");
        assert_eq!(bytes(1.5e9), "1.50 GB");
        assert_eq!(bytes(1e15), "1.00 PB");
    }
}
