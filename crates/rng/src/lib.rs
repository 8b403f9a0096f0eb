//! The workspace's one seeded generator. Every trained weight, generated
//! city and masked position is a function of a `u64` seed through this
//! stream — xoshiro256++ seeded by four splitmix64 steps — so changing
//! any arithmetic here changes every committed number; `tests/golden.rs`
//! pins it. Not cryptographic.

use std::ops::{Range, RangeInclusive};

/// The splitmix64 increment.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finaliser of `x + γ`: a stateless 64-bit mixer (retry
/// jitter, rendezvous scores) and the step that seeds [`Rng`].
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++: same seed, same stream, on every host.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator for `seed`: its state is the first four outputs of the
    /// splitmix64 sequence that starts at `seed`.
    pub fn seed_from_u64(seed: u64) -> Rng {
        let word = |i| splitmix64(seed.wrapping_add(GAMMA.wrapping_mul(i as u64)));
        Rng {
            s: std::array::from_fn(word),
        }
    }

    /// The next 64 bits of the stream; every other draw consumes exactly one.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)` from the top 24 bits.
    pub fn f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `range`: `lo..hi` or `lo..=hi` over `u32`, `i32`, `usize`,
    /// `f32` or `f64`. Panics on an empty range.
    pub fn range<R: range::Uniform>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// `true` with probability `p`. Panics unless `0 <= p <= 1`.
    pub fn bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        self.f64() < p
    }

    /// Fisher–Yates from the top down.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0..=i));
        }
    }
}

/// Private module, public trait: callers can pass the ranges below to
/// [`Rng::range`] but cannot name `Uniform`, so nothing outside implements it.
mod range {
    use super::{Range, RangeInclusive, Rng};

    pub trait Uniform {
        type Output;
        fn sample(self, rng: &mut Rng) -> Self::Output;
    }

    /// `lo` plus 64 random bits scaled onto `span` by a widening multiply
    /// (bias below 2^-64 per value).
    fn offset(rng: &mut Rng, lo: i128, span: i128) -> i128 {
        assert!(span > 0, "cannot sample an empty range");
        lo + ((rng.next_u64() as u128 * span as u128) >> 64) as i128
    }

    macro_rules! int_ranges {
        ($($ty:ty),*) => {$(
            impl Uniform for Range<$ty> {
                type Output = $ty;
                fn sample(self, rng: &mut Rng) -> $ty {
                    let lo = self.start as i128;
                    offset(rng, lo, self.end as i128 - lo) as $ty
                }
            }
            impl Uniform for RangeInclusive<$ty> {
                type Output = $ty;
                fn sample(self, rng: &mut Rng) -> $ty {
                    let lo = *self.start() as i128;
                    offset(rng, lo, *self.end() as i128 - lo + 1) as $ty
                }
            }
        )*};
    }
    int_ranges!(u32, i32, usize);

    macro_rules! float_ranges {
        ($($ty:ident),*) => {$(
            impl Uniform for Range<$ty> {
                type Output = $ty;
                fn sample(self, rng: &mut Rng) -> $ty {
                    assert!(self.start < self.end, "cannot sample an empty range");
                    let x = self.start + (self.end - self.start) * rng.$ty();
                    // Rounding can land on the excluded end point.
                    if x < self.end { x } else { self.start }
                }
            }
            impl Uniform for RangeInclusive<$ty> {
                type Output = $ty;
                fn sample(self, rng: &mut Rng) -> $ty {
                    let (lo, hi) = self.into_inner();
                    assert!(lo <= hi, "cannot sample an empty range");
                    lo + (hi - lo) * rng.$ty()
                }
            }
        )*};
    }
    float_ranges!(f32, f64);
}
