//! A fixed probe of the host's speed, and pass times normalised by it.
//!
//! Other tenants of a shared host slow compute-bound code down by up to
//! 2x for seconds at a time, which no statistic of one run's wall times
//! undoes. So a timed pass runs between two yardstick runs — integer
//! chains, a small convolution and map-and-vector churn, code no change
//! to the simulators touches — and [`normalise`] scales its wall time by
//! how much slower than [`REF_S`] the yardstick ran on either side of
//! it. The result reads in seconds of a host on which the yardstick
//! takes [`REF_S`]: on a quiet one, close to wall time.
//!
//! The same probe and constant as `flexbench`'s yardstick, so that the
//! two harnesses' normalised times read on one scale.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The yardstick's time on a quiet host: the fastest of 1000 runs back
/// to back on a 2-vCPU Intel Xeon VM at 2.1 GHz. Fixed, so that the
/// normalised times of two commits compare.
pub const REF_S: f64 = 2.3e-3;

/// Runs the yardstick once and returns its time in seconds.
pub fn run() -> f64 {
    let t0 = Instant::now();
    black_box(chains(black_box(300_000)));
    black_box(conv(black_box(8)));
    black_box(churn(black_box(4)));
    t0.elapsed().as_secs_f64()
}

/// `wall_s` of a pass scaled by [`REF_S`] over the mean of the
/// yardstick times `before_s` and `after_s` measured either side of it.
pub fn normalise(wall_s: f64, before_s: f64, after_s: f64) -> f64 {
    wall_s * 2.0 * REF_S / (before_s + after_s)
}

/// Eight independent multiply-add chains: the execution units.
fn chains(steps: u64) -> u64 {
    let mut s = [1u64; 8];
    for i in 0..steps {
        for (k, v) in s.iter_mut().enumerate() {
            *v = v
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i ^ k as u64);
        }
    }
    s.iter().fold(0, |a, v| a ^ v)
}

/// A direct 3x3 convolution of 16 Q7.8 input maps (30x30) into `maps`
/// output maps: loads from L1 and the multipliers.
fn conv(maps: usize) -> i64 {
    const N: usize = 16;
    const R: usize = 28;
    const K: usize = 3;
    let side = R + K - 1;
    let x: Vec<i16> = (0..N * side * side)
        .map(|i| (i * 7 % 251) as i16 - 125)
        .collect();
    let w: Vec<i16> = (0..maps * N * K * K)
        .map(|i| (i * 13 % 127) as i16 - 63)
        .collect();
    let mut sum = 0i64;
    for m in 0..maps {
        for y in 0..R {
            for c in 0..R {
                let mut acc = 0i32;
                for n in 0..N {
                    for ky in 0..K {
                        let row = &x[(n * side + y + ky) * side + c..][..K];
                        let taps = &w[((m * N + n) * K + ky) * K..][..K];
                        for (a, b) in row.iter().zip(taps) {
                            acc += i32::from(*a) * i32::from(*b);
                        }
                    }
                }
                sum += i64::from(acc >> 8);
            }
        }
    }
    sum
}

/// Builds and drops ordered maps of small vectors: the allocator,
/// pointer chasing and branches.
fn churn(reps: u64) -> u64 {
    let mut total = 0u64;
    for rep in 0..reps {
        let mut map = BTreeMap::new();
        for i in 0..2000u64 {
            map.insert(
                (i * 2_654_435_761 + rep) % 10_007,
                vec![i; (i % 16) as usize],
            );
        }
        total += map.values().map(|v| v.len() as u64).sum::<u64>();
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_between_two_slow_yardstick_runs_normalises_to_half() {
        let slow = 2.0 * REF_S;
        assert!((normalise(0.1, slow, slow) - 0.05).abs() < 1e-12);
        // A quiet host leaves wall time as it is; the mean of the two
        // neighbours, not either one alone, sets the scale.
        assert!((normalise(0.1, REF_S, REF_S) - 0.1).abs() < 1e-12);
        assert!((normalise(0.1, REF_S, 3.0 * REF_S) - 0.05).abs() < 1e-12);
    }
}
