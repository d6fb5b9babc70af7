//! Order statistics over latency samples.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; with fewer, the value is one or two outliers.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // The small slack keeps a product that is a whole number in exact
    // arithmetic, such as (1 - 10/199) * 199, from rounding up a rank.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile not above `wanted` that still has
/// [`MIN_SAMPLES_BEYOND`] samples beyond it, never below the median.
/// `tail_quantile(200, 0.95) == 0.95`; `tail_quantile(100, 0.95) == 0.90`.
pub fn tail_quantile(n: usize, wanted: f64) -> f64 {
    if n == 0 {
        return 0.5;
    }
    let supported = 1.0 - MIN_SAMPLES_BEYOND as f64 / n as f64;
    wanted.min(supported).max(0.5)
}

/// Sort in place and return the median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// Mean of a slice; 0 for an empty one.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
