//! The shared seeded case generator (`tests/common/cases.rs`) plus the
//! `Matrix` / request helpers the nn equivalence suites draw on top of it.
#![allow(dead_code)]

use std::ops::Range;

use kamel_nn::Matrix;

include!("../../../../tests/common/cases.rs");

impl Gen {
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
