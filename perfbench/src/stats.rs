//! Order statistics for the printed summaries.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between order statistics. Panics on an empty slice, which would be a
/// benchmark bug.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `(q1, median, q3)` of `values`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    (
        quantile(values, 0.25),
        quantile(values, 0.5),
        quantile(values, 0.75),
    )
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0, 3.0));
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), (2.0, 3.0, 4.0));
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.95), 9.5);
    }
}
