//! Order statistics shared by every phase.

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile of nanosecond samples, in milliseconds.
pub fn quantile_ms(ns: &[u64], q: f64) -> f64 {
    let ms: Vec<f64> = ns.iter().map(|&v| v as f64 / 1e6).collect();
    quantile(&ms, q)
}
