//! Offline stand-in for `rand` 0.8: the traits and the few sampling
//! methods this workspace calls. Streams differ from the published crate's,
//! so models trained under it differ too (same code path, other weights).

use std::ops::{Range, RangeInclusive};

/// A source of random bits.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::gen` can produce: floats, uniform in `[0, 1)`.
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_ranges {
    ($($ty:ty),*) => {$(
        impl SampleRange<$ty> for Range<$ty> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "cannot sample an empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                // Widening multiply maps 64 random bits onto the span with
                // a bias below 2^-64 per value, which no caller can see.
                let offset = (rng.next_u64() as u128 * span) >> 64;
                (self.start as i128 + offset as i128) as $ty
            }
        }

        impl SampleRange<$ty> for RangeInclusive<$ty> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample an empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let offset = (rng.next_u64() as u128 * span) >> 64;
                (lo as i128 + offset as i128) as $ty
            }
        }
    )*};
}

int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_ranges {
    ($($ty:ty),*) => {$(
        impl SampleRange<$ty> for Range<$ty> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "cannot sample an empty range");
                let x = self.start + (self.end - self.start) * <$ty as Standard>::sample(rng);
                // Rounding can land on the excluded end point.
                if x < self.end { x } else { self.start }
            }
        }

        impl SampleRange<$ty> for RangeInclusive<$ty> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample an empty range");
                lo + (hi - lo) * <$ty as Standard>::sample(rng)
            }
        }
    )*};
}

float_ranges!(f32, f64);

/// Sampling helpers, available on every generator.
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    use crate::{Rng, RngCore};

    /// Random operations on slices.
    pub trait SliceRandom {
        type Item;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }
    }
}
