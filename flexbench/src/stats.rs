//! Order statistics for pass times and run-to-run comparisons.

/// Minimum number of samples that must lie beyond a reported
/// percentile: p50 needs 20 samples, p90 needs 100.
pub const TAIL_SAMPLES: usize = 10;

/// The `pct`-th percentile of `samples` (nearest rank), or `None` when
/// fewer than [`TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(samples: &[f64], pct: u32) -> Option<f64> {
    assert!((1..100).contains(&pct), "percentile {pct} out of range");
    if samples.len() * (100 - pct as usize) < TAIL_SAMPLES * 100 {
        return None;
    }
    nearest_rank(samples, pct)
}

/// The median by the same nearest rank as [`percentile`], without its
/// sample-count guard; `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    nearest_rank(values, 50)
}

fn nearest_rank(samples: &[f64], pct: u32) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (samples.len() * pct as usize).div_ceil(100).max(1);
    Some(sorted[rank - 1])
}

/// The three quartiles, as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) computes them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some([q(1), q(2), q(3)])
}
