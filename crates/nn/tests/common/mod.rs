//! Seeded case generation shared by the nn equivalence suites: one
//! splitmix64 stream per case, so the suites need no registry crate and a
//! failure reproduces from its seed alone.
#![allow(dead_code)]

use std::ops::Range;

use kamel_nn::Matrix;

/// One case's value stream.
pub struct Gen(u64);

impl Gen {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in the half-open `range`.
    pub fn usize_in(&mut self, range: Range<usize>) -> usize {
        range.start + (self.next_u64() % (range.end - range.start) as u64) as usize
    }

    /// Uniform in the half-open `range` (24 random mantissa bits).
    pub fn f32_in(&mut self, range: Range<f32>) -> f32 {
        let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        range.start + unit * (range.end - range.start)
    }

    pub fn vec_f32(&mut self, len: usize, range: Range<f32>) -> Vec<f32> {
        (0..len).map(|_| self.f32_in(range.clone())).collect()
    }

    /// `len` int8 codes in `-127..=127`.
    pub fn vec_i8(&mut self, len: usize) -> Vec<i8> {
        (0..len)
            .map(|_| (self.usize_in(0..255) as i32 - 127) as i8)
            .collect()
    }

    /// A `rows × cols` matrix with entries in `range`.
    pub fn matrix(&mut self, rows: usize, cols: usize, range: Range<f32>) -> Matrix {
        Matrix::from_vec(rows, cols, self.vec_f32(rows * cols, range))
    }

    /// A `(sequence, masked position)` request: 1 to `max_len` ids in
    /// `[0, vocab)`.
    pub fn request(&mut self, vocab: usize, max_len: usize) -> (Vec<u32>, usize) {
        let len = self.usize_in(1..max_len + 1);
        let ids = (0..len).map(|_| self.usize_in(0..vocab) as u32).collect();
        (ids, self.usize_in(0..len))
    }
}

/// Names the failing case when an assertion inside it panics.
struct SeedOnPanic(u64);

impl Drop for SeedOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing case: seed {}", self.0);
        }
    }
}

/// Runs `case` once per seed in `0..cases`, each on its own stream.
pub fn for_each_case(cases: u64, mut case: impl FnMut(&mut Gen)) {
    for seed in 0..cases {
        let _guard = SeedOnPanic(seed);
        case(&mut Gen(seed.wrapping_mul(0xD1B5_4A32_D192_ED03)));
    }
}
