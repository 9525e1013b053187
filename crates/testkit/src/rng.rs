//! Deterministic pseudorandom numbers without external crates.
//!
//! [`SplitMix64`] is the 64-bit finalizer-based generator of Steele,
//! Lea & Flood ("Fast splittable pseudorandom number generators",
//! OOPSLA'14). It passes BigCrush, needs only a single `u64` of state,
//! and — critically for a verification harness — is trivially
//! reproducible from a printed seed on any platform.

use std::ops::RangeInclusive;

/// A 64-bit SplitMix64 generator.
///
/// # Example
///
/// ```
/// use flexsim_testkit::rng::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let v: i16 = a.gen_range(-512i16..=512);
/// assert!((-512..=512).contains(&v));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Alias for [`SplitMix64::new`], mirroring the `rand` idiom the
    /// workspace used before going hermetic.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self::new(seed)
    }

    /// Next raw 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `u64` in `[0, n)`. `n` must be nonzero.
    ///
    /// Uses rejection from the top of the range, so the distribution is
    /// exactly uniform (no modulo bias).
    pub fn bounded(&mut self, n: u64) -> u64 {
        assert!(n > 0, "bounded(0) is meaningless");
        // Largest multiple of n that fits in u64.
        let zone = u64::MAX - (u64::MAX % n + 1) % n;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % n;
            }
        }
    }

    /// Uniform boolean.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform value in an inclusive range of any primitive integer
    /// type.
    pub fn gen_range<T: RangeSample>(&mut self, range: RangeInclusive<T>) -> T {
        T::sample(self, range)
    }

    /// Fills a byte slice with random data.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Uniformly chooses one element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "choose from empty slice");
        &slice[self.bounded(slice.len() as u64) as usize]
    }

    /// Derives an independent child generator (the "split" in
    /// SplitMix). Used by the property harness to give every case its
    /// own printable seed.
    pub fn split(&mut self) -> (u64, SplitMix64) {
        let seed = self.next_u64();
        (seed, SplitMix64::new(seed))
    }
}

/// Integer types that can be sampled uniformly from an inclusive range.
pub trait RangeSample: Copy + PartialOrd {
    /// Samples uniformly from `range` (inclusive on both ends).
    fn sample(rng: &mut SplitMix64, range: RangeInclusive<Self>) -> Self;
}

macro_rules! impl_range_sample_signed {
    ($($t:ty),*) => {$(
        impl RangeSample for $t {
            // `isize`/`usize` have no `From` into the 128-bit domain,
            // so the widening casts below must stay `as` casts.
            #[allow(clippy::cast_lossless)]
            fn sample(rng: &mut SplitMix64, range: RangeInclusive<Self>) -> Self {
                let (lo, hi) = (*range.start(), *range.end());
                assert!(lo <= hi, "empty sample range");
                let span = (hi as i128 - lo as i128) as u128;
                if span >= u64::MAX as u128 {
                    return rng.next_u64() as Self;
                }
                let off = rng.bounded(span as u64 + 1);
                (lo as i128 + off as i128) as Self
            }
        }
    )*};
}

macro_rules! impl_range_sample_unsigned {
    ($($t:ty),*) => {$(
        impl RangeSample for $t {
            // `isize`/`usize` have no `From` into the 128-bit domain,
            // so the widening casts below must stay `as` casts.
            #[allow(clippy::cast_lossless)]
            fn sample(rng: &mut SplitMix64, range: RangeInclusive<Self>) -> Self {
                let (lo, hi) = (*range.start(), *range.end());
                assert!(lo <= hi, "empty sample range");
                let span = hi as u128 - lo as u128;
                if span >= u64::MAX as u128 {
                    return rng.next_u64() as Self;
                }
                let off = rng.bounded(span as u64 + 1);
                (lo as u128 + off as u128) as Self
            }
        }
    )*};
}

impl_range_sample_signed!(i8, i16, i32, i64, isize);
impl_range_sample_unsigned!(u8, u16, u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(SplitMix64::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn known_splitmix_vector() {
        // Reference values for seed 1234567 from the public-domain
        // SplitMix64 C implementation (Vigna).
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn ranges_stay_in_bounds_and_hit_ends() {
        let mut r = SplitMix64::new(7);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..2000 {
            let v = r.gen_range(-3i16..=3);
            assert!((-3..=3).contains(&v));
            lo_seen |= v == -3;
            hi_seen |= v == 3;
        }
        assert!(lo_seen && hi_seen, "uniform sampler never hit an endpoint");
        assert_eq!(r.gen_range(5usize..=5), 5);
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = SplitMix64::new(9);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50-element shuffle left input in order");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = SplitMix64::new(11);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn split_streams_are_independent() {
        let mut parent = SplitMix64::new(3);
        let (seed, mut child) = parent.split();
        assert_eq!(SplitMix64::new(seed).next_u64(), child.next_u64());
    }
}
