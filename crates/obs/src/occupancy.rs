//! Run-length-encoded per-layer occupancy timelines.
//!
//! Works for any architecture and any layer length: a timeline is a
//! sequence of `(cycles, busy_fraction)` segments, so a million-cycle
//! DianNao layer that alternates two occupancy levels stores two
//! segments instead of a million samples.
//! [`crate::cycles::LayerTimeline::occupancy`] builds one from a
//! cycle-event stream.

use std::fmt;

/// Occupancy over one layer's simulated lifetime, as run-length-encoded
/// `(cycles, busy_fraction)` segments.
#[derive(Clone, Debug, PartialEq)]
pub struct OccupancyTimeline {
    pe_count: u32,
    // Invariant: no zero-length segments, consecutive fracs differ.
    segments: Vec<(u64, f64)>,
}

impl OccupancyTimeline {
    /// Builds a timeline from `(cycles, busy_fraction)` segments,
    /// dropping empty segments and merging consecutive equal fractions.
    /// Fractions are clamped to `[0, 1]`.
    pub fn from_segments(pe_count: u32, segments: Vec<(u64, f64)>) -> OccupancyTimeline {
        let mut merged: Vec<(u64, f64)> = Vec::with_capacity(segments.len());
        for (cycles, frac) in segments {
            if cycles == 0 {
                continue;
            }
            let frac = frac.clamp(0.0, 1.0);
            match merged.last_mut() {
                Some((c, f)) if *f == frac => *c += cycles,
                _ => merged.push((cycles, frac)),
            }
        }
        OccupancyTimeline {
            pe_count,
            segments: merged,
        }
    }

    /// PEs in the engine this timeline describes.
    pub fn pe_count(&self) -> u32 {
        self.pe_count
    }

    /// The run-length-encoded `(cycles, busy_fraction)` segments.
    pub fn segments(&self) -> &[(u64, f64)] {
        &self.segments
    }

    /// Total cycles covered.
    pub fn cycles(&self) -> u64 {
        self.segments.iter().map(|(c, _)| c).sum()
    }

    /// Cycle-weighted mean busy fraction (0 for an empty timeline).
    pub fn utilization(&self) -> f64 {
        let total = self.cycles();
        if total == 0 {
            return 0.0;
        }
        let busy: f64 = self.segments.iter().map(|&(c, f)| c as f64 * f).sum();
        busy / total as f64
    }

    /// Fraction of cycles at full occupancy.
    pub fn full_cycles_fraction(&self) -> f64 {
        let total = self.cycles();
        if total == 0 {
            return 0.0;
        }
        let full: u64 = self
            .segments
            .iter()
            .filter(|&&(_, f)| f >= 1.0)
            .map(|(c, _)| c)
            .sum();
        full as f64 / total as f64
    }

    /// Renders the timeline as a `width`-character sparkline, each
    /// character the cycle-weighted mean occupancy of its time bucket
    /// (`' '` = idle, `'█'` = full).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn sparkline(&self, width: usize) -> String {
        assert!(width > 0, "sparkline width must be non-zero");
        const LEVELS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let total = self.cycles();
        if total == 0 {
            return " ".repeat(width);
        }
        // Walk buckets and segments together: both advance
        // monotonically, so the whole render is O(segments + width).
        let mut out = String::with_capacity(width * 3);
        let mut seg = 0usize;
        let mut seg_start = 0u64; // first cycle of segments[seg]
        for i in 0..width {
            // Bucket [lo, hi) in cycles, covering the full range.
            let lo = (i as u64 * total) / width as u64;
            let hi = (((i + 1) as u64 * total) / width as u64)
                .max(lo + 1)
                .min(total);
            while seg_start + self.segments[seg].0 <= lo {
                seg_start += self.segments[seg].0;
                seg += 1;
            }
            let mut busy = 0.0f64;
            let (mut s, mut s_start) = (seg, seg_start);
            let mut cursor = lo;
            while cursor < hi {
                let (len, frac) = self.segments[s];
                let seg_end = s_start + len;
                let step = seg_end.min(hi) - cursor;
                busy += step as f64 * frac;
                cursor += step;
                if cursor >= seg_end {
                    s_start = seg_end;
                    s += 1;
                }
            }
            let mean = busy / (hi - lo) as f64;
            let level = (mean * 8.0).round() as usize;
            out.push(LEVELS[level.min(8)]);
        }
        out
    }

    /// Occupancy histogram over `buckets` equal occupancy ranges:
    /// element `i` counts cycles with busy fraction in
    /// `[i/buckets, (i+1)/buckets)`; the last bucket additionally
    /// includes fraction exactly 1.0.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    pub fn histogram(&self, buckets: usize) -> Vec<u64> {
        assert!(buckets > 0, "histogram needs at least one bucket");
        let mut out = vec![0u64; buckets];
        for &(cycles, frac) in &self.segments {
            let idx = if frac >= 1.0 {
                buckets - 1
            } else {
                // frac < 1.0, so idx < buckets without clamping.
                (frac * buckets as f64) as usize
            };
            out[idx.min(buckets - 1)] += cycles;
        }
        out
    }
}

impl fmt::Display for OccupancyTimeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {:.1}% mean, {:.0}% full cycles, {} cycles",
            self.sparkline(48),
            self.utilization() * 100.0,
            self.full_cycles_fraction() * 100.0,
            self.cycles()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_and_drops_empty_segments() {
        let tl =
            OccupancyTimeline::from_segments(16, vec![(5, 0.5), (0, 0.9), (5, 0.5), (10, 1.0)]);
        assert_eq!(tl.segments(), &[(10, 0.5), (10, 1.0)]);
        assert_eq!(tl.cycles(), 20);
        assert!((tl.utilization() - 0.75).abs() < 1e-12);
        assert!((tl.full_cycles_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_timeline_is_zero() {
        let tl = OccupancyTimeline::from_segments(16, vec![]);
        assert_eq!(tl.cycles(), 0);
        assert_eq!(tl.utilization(), 0.0);
        assert_eq!(tl.sparkline(4), "    ");
        assert_eq!(tl.histogram(4), vec![0, 0, 0, 0]);
    }

    #[test]
    fn sparkline_integrates_across_segment_boundaries() {
        // 8 cycles idle then 8 cycles full: halves of the line differ.
        let tl = OccupancyTimeline::from_segments(4, vec![(8, 0.0), (8, 1.0)]);
        assert_eq!(tl.sparkline(4), "  ██");
        // One bucket spanning both segments averages to half.
        assert_eq!(tl.sparkline(1), "▄");
    }

    #[test]
    fn histogram_last_bucket_is_inclusive() {
        let tl = OccupancyTimeline::from_segments(4, vec![(3, 1.0), (2, 0.0), (5, 0.5)]);
        let hist = tl.histogram(4);
        // 1.0 lands in the last bucket, not out of range.
        assert_eq!(hist, vec![2, 0, 5, 3]);
        assert_eq!(hist.iter().sum::<u64>(), tl.cycles());
        // Single-bucket histogram holds everything.
        assert_eq!(tl.histogram(1), vec![10]);
    }

    #[test]
    fn fractions_clamp_into_range() {
        let tl = OccupancyTimeline::from_segments(4, vec![(4, 1.5), (4, -0.25)]);
        assert_eq!(tl.segments(), &[(4, 1.0), (4, 0.0)]);
        assert_eq!(tl.histogram(2), vec![4, 4]);
    }

    #[test]
    fn display_is_compact() {
        let tl = OccupancyTimeline::from_segments(4, vec![(10, 0.5)]);
        let s = tl.to_string();
        assert!(s.contains("cycles"));
        assert!(s.contains('%'));
    }
}
