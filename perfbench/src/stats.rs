//! Percentiles over measured samples.

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks; NaN for an empty slice. Infinite samples (failed requests) sort
/// last, so a tail percentile that reaches them is infinite.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi || sorted[hi] == sorted[lo] {
        return sorted[lo];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; NaN for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Microseconds in a duration, with sub-microsecond digits.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_keep_failures_last() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile(&[5.0], 0.99), 5.0);
        let with_failure = [1.0, 2.0, f64::INFINITY];
        assert_eq!(quantile(&with_failure, 1.0), f64::INFINITY);
        assert_eq!(quantile(&with_failure, 0.5), 2.0);
        assert!(quantile(&[], 0.5).is_nan());
    }
}
