//! Offline stand-in for `rand_chacha`: the type names the workspace seeds,
//! backed by xoshiro256++ (seeded through splitmix64) instead of ChaCha.
//! Deterministic per seed, statistically sound, not the published stream.

use rand::{RngCore, SeedableRng};

/// xoshiro256++ under the name the workspace imports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaCha8Rng {
    s: [u64; 4],
}

pub type ChaCha12Rng = ChaCha8Rng;
pub type ChaCha20Rng = ChaCha8Rng;

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        ChaCha8Rng {
            s: [next(), next(), next(), next()],
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}
