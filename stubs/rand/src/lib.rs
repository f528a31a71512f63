//! Offline stub of `rand`, providing the small API surface this workspace
//! uses: [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], and
//! [`Rng::gen_range`] over floating-point and integer ranges.
//!
//! The generator is xoshiro256++ seeded through splitmix64 — not the real
//! `StdRng` (ChaCha12), but a high-quality deterministic PRNG that is more
//! than adequate for test-data generation and Monte-Carlo baselines.

use std::ops::{Range, RangeInclusive};

/// Core random-number-generator trait (stub of `rand::RngCore` + `Rng`).
pub trait Rng {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform sample from `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    /// A sample of a type with a canonical uniform distribution.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// A biased coin flip.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seeding trait (stub of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types with a canonical "standard" uniform distribution.
pub trait Standard: Sized {
    /// Draws the standard sample from `rng`.
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges that can be sampled uniformly (stub of
/// `rand::distributions::uniform::SampleRange`).
pub trait SampleRange<T> {
    /// Draws one sample.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        let u = f64::sample_standard(rng);
        let v = self.start + u * (self.end - self.start);
        // Guard against rounding up to the excluded endpoint.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        lo + f64::sample_standard(rng) * (hi - lo)
    }
}

macro_rules! int_range {
    ($($ty:ty),*) => {$(
        impl SampleRange<$ty> for Range<$ty> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $ty
            }
        }
        impl SampleRange<$ty> for RangeInclusive<$ty> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64 + 1;
                lo + (rng.next_u64() % span) as $ty
            }
        }
    )*};
}

int_range!(usize, u64, u32, u16, u8);

/// Named generators (stub of `rand::rngs`).
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// Deterministic xoshiro256++ generator (stub of `rand::rngs::StdRng`).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        fn splitmix(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = seed;
            let s = [
                Self::splitmix(&mut state),
                Self::splitmix(&mut state),
                Self::splitmix(&mut state),
                Self::splitmix(&mut state),
            ];
            StdRng { s }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let [mut s0, mut s1, mut s2, mut s3] = self.s;
            let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            s2 ^= s0;
            s3 ^= s1;
            s1 ^= s2;
            s0 ^= s3;
            s2 ^= t;
            s3 = s3.rotate_left(45);
            self.s = [s0, s1, s2, s3];
            result
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn deterministic_and_uniformish() {
            let mut a = StdRng::seed_from_u64(42);
            let mut b = StdRng::seed_from_u64(42);
            assert_eq!(a.next_u64(), b.next_u64());
            let mut mean = 0.0;
            for _ in 0..10_000 {
                let x = a.gen_range(0.0..1.0);
                assert!((0.0..1.0).contains(&x));
                mean += x;
            }
            mean /= 10_000.0;
            assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        }
    }
}
