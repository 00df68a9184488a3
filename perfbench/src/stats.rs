//! Small statistics helpers.

use rda_trace::Log2Hist;
use std::collections::BTreeMap;

/// Median (mean of the middle two for an even count; NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q`-quantile (NaN when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Geometric mean of positive values (0 when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The `q`-quantile of several log2 histograms merged, answered like
/// `Log2Hist::quantile`: the upper bound of the bucket holding the
/// rank, clamped to the largest recorded value.
pub fn merged_quantile<'a>(hists: impl IntoIterator<Item = &'a Log2Hist>, q: f64) -> u64 {
    let mut buckets: BTreeMap<u64, u64> = BTreeMap::new();
    let mut max = 0;
    for h in hists {
        for (upper, n) in h.nonzero_buckets() {
            *buckets.entry(upper).or_default() += n;
        }
        max = max.max(h.max());
    }
    let count: u64 = buckets.values().sum();
    if count == 0 {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0;
    for (upper, n) in buckets {
        seen += n;
        if seen >= rank {
            return upper.min(max);
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn merged_quantile_matches_a_single_histogram() {
        let (mut a, mut b, mut all) = (Log2Hist::new(), Log2Hist::new(), Log2Hist::new());
        for v in [3u64, 70, 900, 5_000, 12] {
            a.record(v);
            all.record(v);
        }
        for v in [1u64 << 20, 44, 8] {
            b.record(v);
            all.record(v);
        }
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(merged_quantile([&a, &b], q), all.quantile(q));
        }
    }
}
