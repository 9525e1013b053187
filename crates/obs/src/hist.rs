//! Log-bucketed latency histograms (HDR-style).
//!
//! A [`Histogram`] records `u64` samples (microseconds, by convention)
//! into power-of-two octaves subdivided into four linear sub-buckets —
//! the classic HDR layout at two significant bits of precision. That
//! keeps the memory footprint constant (256 `u64` cells) while bounding
//! the relative quantization error of any reported quantile to < 25%
//! across the full `u64` range. Count, sum, min, and max are tracked
//! exactly; only the quantiles are bucketed.
//!
//! Emission is byte-stable: [`Histogram::to_json`] renders fixed keys
//! in fixed order with only the non-empty buckets, and
//! [`Histogram::prom_lines`] renders the cumulative
//! Prometheus-text-format bucket series.
//!
//! ```
//! use flexsim_obs::hist::Histogram;
//!
//! let mut h = Histogram::new();
//! for us in [100, 200, 300, 40_000] {
//!     h.observe(us);
//! }
//! assert_eq!(h.count(), 4);
//! assert_eq!(h.max(), 40_000);
//! assert!(h.quantile(0.50) >= 200 && h.quantile(0.50) < 300);
//! ```

use flexsim_testkit::json::Json;
use std::fmt::Write as _;

/// Number of buckets: 4 sub-buckets × up to 63 octaves, capped at 256.
const BUCKETS: usize = 256;

/// A fixed-size log-bucketed histogram of `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// The bucket index of `v`: identity below 4, then
/// `octave * 4 + sub` where each octave `[2^k, 2^(k+1))` splits into
/// four equal sub-buckets.
fn bucket_index(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let msb = 63 - u64::from(v.leading_zeros()); // >= 2
    let octave = msb - 1;
    let sub = (v >> (msb - 2)) & 3;
    ((octave * 4 + sub) as usize).min(BUCKETS - 1)
}

/// The largest value that maps into bucket `i` (inclusive upper bound).
fn bucket_upper(i: usize) -> u64 {
    if i < 4 {
        return i as u64;
    }
    let octave = (i / 4) as u32;
    let sub = (i % 4) as u64;
    let width = 1u64 << (octave - 1);
    // Lower bound of the sub-bucket plus its width, minus one; the top
    // octave's last sub-bucket saturates at u64::MAX (callers clamp
    // quantiles to the exact max anyway).
    1u64.checked_shl(octave + 1)
        .unwrap_or(u64::MAX)
        .saturating_add((sub + 1).saturating_mul(width))
        .saturating_sub(1)
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Exact number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// first bucket whose cumulative count reaches `ceil(q * count)`,
    /// clamped to the exact max (0 when empty). `quantile(0.5)` is the
    /// p50, `quantile(0.99)` the p99.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(inclusive_upper_bound, count)` pairs in
    /// ascending order.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper(i), c))
            .collect()
    }

    /// Byte-stable JSON: fixed keys in fixed order, non-empty buckets
    /// only.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::Int(self.count as i64)),
            ("sum", Json::Int(self.sum as i64)),
            ("min", Json::Int(self.min() as i64)),
            ("max", Json::Int(self.max as i64)),
            ("p50", Json::Int(self.quantile(0.50) as i64)),
            ("p90", Json::Int(self.quantile(0.90) as i64)),
            ("p99", Json::Int(self.quantile(0.99) as i64)),
            (
                "buckets",
                Json::arr(
                    self.buckets()
                        .into_iter()
                        .map(|(le, c)| Json::arr([Json::Int(le as i64), Json::Int(c as i64)])),
                ),
            ),
        ])
    }

    /// Prometheus text-format lines for a histogram metric named
    /// `name` (cumulative `_bucket{le=…}` series plus `_sum` and
    /// `_count`).
    pub fn prom_lines(&self, name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (le, c) in self.buckets() {
            cumulative += c;
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", self.count);
        let _ = writeln!(out, "{name}_sum {}", self.sum);
        let _ = writeln!(out, "{name}_count {}", self.count);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_map_to_identity_buckets() {
        for v in 0..4u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_are_monotonic_and_consistent() {
        // Every value's bucket upper bound is >= the value, and bucket
        // index is monotonic in the value.
        let mut values: Vec<u64> = Vec::new();
        for shift in 0..50u64 {
            for off in [0u64, 1, 2, 3] {
                values.push((1u64 << shift) + off * ((1u64 << shift) / 4).max(1));
            }
        }
        values.sort_unstable();
        let mut last_idx = 0usize;
        for v in values {
            let idx = bucket_index(v);
            assert!(bucket_upper(idx) >= v, "v={v} idx={idx}");
            assert!(idx >= last_idx, "v={v} idx={idx} last={last_idx}");
            last_idx = idx;
        }
    }

    #[test]
    fn quantiles_bound_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10_000);
        for (q, exact) in [(0.50, 5_000.0), (0.90, 9_000.0), (0.99, 9_900.0)] {
            let got = h.quantile(q) as f64;
            assert!(
                got >= exact && got <= exact * 1.25,
                "q={q}: got {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert!(h.buckets().is_empty());
    }

    #[test]
    fn json_emission_is_byte_stable() {
        let mut h = Histogram::new();
        h.observe(5);
        h.observe(5);
        h.observe(1000);
        let first = h.to_json().compact();
        assert_eq!(first, h.to_json().compact());
        assert!(first.contains("\"count\":3"), "{first}");
        assert!(first.contains("\"p50\":5"), "{first}");
    }

    #[test]
    fn prom_lines_are_cumulative() {
        let mut h = Histogram::new();
        h.observe(1);
        h.observe(2);
        h.observe(2);
        let prom = h.prom_lines("t_us");
        assert!(prom.contains("t_us_bucket{le=\"1\"} 1"), "{prom}");
        assert!(prom.contains("t_us_bucket{le=\"2\"} 3"), "{prom}");
        assert!(prom.contains("t_us_bucket{le=\"+Inf\"} 3"), "{prom}");
        assert!(prom.contains("t_us_sum 5"), "{prom}");
        assert!(prom.contains("t_us_count 3"), "{prom}");
    }

    #[test]
    fn power_of_two_edges_start_new_buckets_exactly() {
        for shift in 2..62u64 {
            let edge = 1u64 << shift;
            let below = bucket_index(edge - 1);
            let at = bucket_index(edge);
            assert!(at > below, "2^{shift} shares a bucket with 2^{shift}-1");
            // The bucket below ends exactly at the edge — an octave
            // boundary never blurs values across it.
            assert_eq!(bucket_upper(below), edge - 1, "2^{shift}");
        }
    }

    #[test]
    fn single_sample_pins_every_percentile() {
        let mut h = Histogram::new();
        h.observe(42);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 42);
        assert_eq!(h.max(), 42);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 42, "q={q}");
        }
        // 42's bucket tops out at 47, but quantiles clamp to the exact
        // max — a single sample is reported exactly, never bucketed up.
        assert!(bucket_upper(bucket_index(42)) > 42);
    }

    #[test]
    fn min_max_and_sum_stay_exact_across_octaves() {
        let mut h = Histogram::new();
        for v in [7u64, 1 << 10, (1 << 20) + 3] {
            h.observe(v);
        }
        assert_eq!(h.min(), 7);
        assert_eq!(h.max(), (1 << 20) + 3);
        assert_eq!(h.sum(), 7 + (1 << 10) + (1 << 20) + 3);
        assert_eq!(h.quantile(1.0), (1 << 20) + 3);
    }

    #[test]
    fn huge_values_saturate_the_last_bucket() {
        let mut h = Histogram::new();
        h.observe(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }
}
