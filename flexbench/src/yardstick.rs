//! A fixed probe of the host's speed, and pass times normalized by it.
//!
//! Other tenants of a shared host slow compute-bound code down by up to
//! 2x for seconds to minutes at a time: on a 2-vCPU VM the median pass
//! of whole 20 s runs moved by up to 75% between runs. No statistic of
//! one run undoes a slowdown that covers the whole run. So the run times
//! the yardstick — integer chains, a small convolution and map-and-vector
//! churn, code of the benchmark's own that no change to the simulator
//! touches — between the calls of every pass, and scales each stretch of
//! call time by how much slower than [`REF_S`] the yardstick ran on
//! either side of it. The result reads in seconds of a host on which the
//! yardstick takes [`REF_S`]: on a quiet one, close to wall time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The yardstick's time on a quiet host: the fastest of 1000 runs back
/// to back on a 2-vCPU Intel Xeon VM at 2.1 GHz. Fixed, so that the
/// normalized times of two commits compare.
pub const REF_S: f64 = 2.3e-3;

/// Pass calls run back to back for at most this long before the
/// yardstick runs again.
pub const EVERY: Duration = Duration::from_millis(25);

/// Runs the yardstick once and returns its time in seconds.
pub fn run() -> f64 {
    let t0 = Instant::now();
    black_box(chains(black_box(300_000)));
    black_box(conv(black_box(8)));
    black_box(churn(black_box(4)));
    t0.elapsed().as_secs_f64()
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

/// Call time normalized by the yardstick. Each stretch of call time
/// between two yardstick runs is scaled by [`REF_S`] over the mean of
/// those two runs.
pub(crate) struct Meter {
    last_run: Instant,
    last_s: f64,
    segment_s: f64,
    normalized_s: f64,
    slowdowns: Vec<f64>,
}

impl Meter {
    /// A meter whose first yardstick run is now.
    pub(crate) fn new() -> Meter {
        let mut m = Meter {
            last_run: Instant::now(),
            last_s: 0.0,
            segment_s: 0.0,
            normalized_s: 0.0,
            slowdowns: Vec::new(),
        };
        m.last_s = m.yardstick();
        m
    }

    fn yardstick(&mut self) -> f64 {
        let s = run();
        self.last_run = Instant::now();
        self.slowdowns.push(s / REF_S);
        s
    }

    /// Runs the yardstick, closing the stretch of call time since the
    /// last run, and returns the factor that stretch was scaled by.
    pub(crate) fn close(&mut self) -> f64 {
        let s = self.yardstick();
        let factor = 2.0 * REF_S / (self.last_s + s);
        self.normalized_s += self.segment_s * factor;
        self.segment_s = 0.0;
        self.last_s = s;
        factor
    }

    /// Runs the yardstick if [`EVERY`] has passed since it last ran.
    pub(crate) fn tick(&mut self) {
        if self.last_run.elapsed() >= EVERY {
            self.close();
        }
    }

    /// Adds the wall time of one call to the open stretch.
    pub(crate) fn add(&mut self, call: Duration) {
        self.segment_s += call.as_secs_f64();
    }

    /// The normalized time of the stretches closed since the last take.
    pub(crate) fn take(&mut self) -> f64 {
        std::mem::take(&mut self.normalized_s)
    }

    /// Every yardstick time so far, each divided by [`REF_S`].
    pub(crate) fn slowdowns(&self) -> &[f64] {
        &self.slowdowns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stretch_is_scaled_by_the_mean_of_the_runs_around_it() {
        let mut m = Meter::new();
        m.add(Duration::from_millis(6));
        m.add(Duration::from_millis(4));
        let factor = m.close();
        let &[a, b] = m.slowdowns() else {
            panic!("two yardstick runs, got {:?}", m.slowdowns())
        };
        assert!((factor - 2.0 / (a + b)).abs() < 1e-12);
        assert!((m.take() - 0.010 * factor).abs() < 1e-12);
        // Nothing is left to take, and an empty stretch adds nothing.
        assert_eq!(m.take(), 0.0);
        m.close();
        assert_eq!(m.take(), 0.0);
    }
}
