//! AVX2 kernels: one 8-lane `ymm` register per canonical 8-slot
//! accumulator.
//!
//! Every reduction keeps the scalar reference's lane assignment (lane
//! `l` sees elements `8k + l`) and combines lanes sequentially after the
//! vector loop, so results are bit-identical to [`super::scalar`].
//! Multiplies and adds stay separate instructions — **no FMA** — because
//! the scalar reference rounds twice per multiply-add (see the module
//! docs of [`super`]).
//!
//! # Safety
//! Every function is `#[target_feature(enable = "avx2")]`: callers must
//! ensure the host supports AVX2 (the dispatcher in [`super`] only
//! routes here when `is_x86_feature_detected!("avx2")` held).

#![allow(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::*;

/// Dot product; bit-identical to [`super::scalar::dot`].
#[target_feature(enable = "avx2")]
pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    let n8 = a.len() / 8 * 8;
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i < n8 {
        let va = _mm256_loadu_ps(a.as_ptr().add(i));
        let vb = _mm256_loadu_ps(b.as_ptr().add(i));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
        i += 8;
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    let mut s: f32 = lanes.iter().sum();
    while i < a.len() {
        s += a[i] * b[i];
        i += 1;
    }
    s
}

/// `out[i] += a * x[i]`; element-wise, identical to the scalar loop.
#[target_feature(enable = "avx2")]
pub unsafe fn axpy(out: &mut [f32], a: f32, x: &[f32]) {
    let n8 = out.len() / 8 * 8;
    let va = _mm256_set1_ps(a);
    let mut i = 0;
    while i < n8 {
        let vx = _mm256_loadu_ps(x.as_ptr().add(i));
        let vo = _mm256_loadu_ps(out.as_ptr().add(i));
        _mm256_storeu_ps(
            out.as_mut_ptr().add(i),
            _mm256_add_ps(vo, _mm256_mul_ps(va, vx)),
        );
        i += 8;
    }
    while i < out.len() {
        out[i] += a * x[i];
        i += 1;
    }
}

/// `out[i] += x[i]`.
#[target_feature(enable = "avx2")]
pub unsafe fn add_assign(out: &mut [f32], x: &[f32]) {
    let n8 = out.len() / 8 * 8;
    let mut i = 0;
    while i < n8 {
        let vx = _mm256_loadu_ps(x.as_ptr().add(i));
        let vo = _mm256_loadu_ps(out.as_ptr().add(i));
        _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_add_ps(vo, vx));
        i += 8;
    }
    while i < out.len() {
        out[i] += x[i];
        i += 1;
    }
}

/// `out[i] = a[i] + b[i]`.
#[target_feature(enable = "avx2")]
pub unsafe fn add(a: &[f32], b: &[f32], out: &mut [f32]) {
    let n8 = out.len() / 8 * 8;
    let mut i = 0;
    while i < n8 {
        let va = _mm256_loadu_ps(a.as_ptr().add(i));
        let vb = _mm256_loadu_ps(b.as_ptr().add(i));
        _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_add_ps(va, vb));
        i += 8;
    }
    while i < out.len() {
        out[i] = a[i] + b[i];
        i += 1;
    }
}

/// `out[i] *= s`.
#[target_feature(enable = "avx2")]
pub unsafe fn scale(out: &mut [f32], s: f32) {
    let n8 = out.len() / 8 * 8;
    let vs = _mm256_set1_ps(s);
    let mut i = 0;
    while i < n8 {
        let vo = _mm256_loadu_ps(out.as_ptr().add(i));
        _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_mul_ps(vo, vs));
        i += 8;
    }
    while i < out.len() {
        out[i] *= s;
        i += 1;
    }
}

/// 8-lane maximum; bit-identical to [`super::scalar::max`] for non-NaN
/// input.
#[target_feature(enable = "avx2")]
pub unsafe fn max(x: &[f32]) -> f32 {
    let n8 = x.len() / 8 * 8;
    let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
    let mut i = 0;
    while i < n8 {
        acc = _mm256_max_ps(acc, _mm256_loadu_ps(x.as_ptr().add(i)));
        i += 8;
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    let mut m = lanes[0];
    for &lane in &lanes[1..] {
        m = m.max(lane);
    }
    while i < x.len() {
        m = m.max(x[i]);
        i += 1;
    }
    m
}

/// 8-lane sum; bit-identical to [`super::scalar::sum`].
#[target_feature(enable = "avx2")]
pub unsafe fn sum(x: &[f32]) -> f32 {
    let n8 = x.len() / 8 * 8;
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i < n8 {
        acc = _mm256_add_ps(acc, _mm256_loadu_ps(x.as_ptr().add(i)));
        i += 8;
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    let mut s: f32 = lanes.iter().sum();
    while i < x.len() {
        s += x[i];
        i += 1;
    }
    s
}

/// 8-lane `Σ (x[i] - mean)²`; bit-identical to
/// [`super::scalar::sum_sq_diff`].
#[target_feature(enable = "avx2")]
pub unsafe fn sum_sq_diff(x: &[f32], mean: f32) -> f32 {
    let n8 = x.len() / 8 * 8;
    let vm = _mm256_set1_ps(mean);
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i < n8 {
        let d = _mm256_sub_ps(_mm256_loadu_ps(x.as_ptr().add(i)), vm);
        acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
        i += 8;
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    let mut s: f32 = lanes.iter().sum();
    while i < x.len() {
        let d = x[i] - mean;
        s += d * d;
        i += 1;
    }
    s
}

/// 8-lane replica of [`crate::math::exp_f32`]: the same IEEE-exact
/// operation sequence (min/max clamp, `floor`-based range reduction,
/// Cody–Waite subtraction, Horner polynomial with separate mul/add,
/// exponent-field scale), so every lane is bit-identical to the scalar
/// call.
#[target_feature(enable = "avx2")]
unsafe fn exp_ps(x: __m256) -> __m256 {
    let x = _mm256_max_ps(x, _mm256_set1_ps(crate::math::EXP_LO));
    let x = _mm256_min_ps(x, _mm256_set1_ps(crate::math::EXP_HI));
    let log2e = _mm256_set1_ps(std::f32::consts::LOG2_E);
    let half = _mm256_set1_ps(0.5);
    let fx = _mm256_floor_ps(_mm256_add_ps(_mm256_mul_ps(x, log2e), half));
    let r = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(crate::math::LN2_HI)));
    let r = _mm256_sub_ps(r, _mm256_mul_ps(fx, _mm256_set1_ps(crate::math::LN2_LO)));
    let z = _mm256_mul_ps(r, r);
    let poly = crate::math::EXP_POLY;
    let mut y = _mm256_set1_ps(poly[0]);
    for c in &poly[1..] {
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(*c));
    }
    y = _mm256_add_ps(_mm256_mul_ps(y, z), r);
    y = _mm256_add_ps(y, _mm256_set1_ps(1.0));
    // 2^n: (n + 127) << 23 in the exponent field, exact after the clamp.
    let n = _mm256_cvttps_epi32(fx);
    let pow2n = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
        n,
        _mm256_set1_epi32(127),
    )));
    _mm256_mul_ps(y, pow2n)
}

/// GELU, fully in-register: the tanh-argument polynomial in the scalar
/// reference's exact multiply/add order, `tanh` via [`exp_ps`] — the
/// 8-lane replica of the `math::tanh_f32` sequence the scalar path calls
/// — so outputs are bit-identical to [`super::scalar::gelu_map`].
#[target_feature(enable = "avx2")]
pub unsafe fn gelu_map(x: &[f32], out: &mut [f32]) {
    const C: f32 = 0.797_884_6; // sqrt(2/pi), as in `layers::gelu`
    let n8 = x.len() / 8 * 8;
    let vc = _mm256_set1_ps(C);
    let vk = _mm256_set1_ps(0.044_715);
    let half = _mm256_set1_ps(0.5);
    let one = _mm256_set1_ps(1.0);
    let sat = _mm256_set1_ps(9.0);
    let nsat = _mm256_set1_ps(-9.0);
    let mut i = 0;
    while i < n8 {
        let vx = _mm256_loadu_ps(x.as_ptr().add(i));
        // ((0.044715 * x) * x) * x — same association as the scalar code.
        let x3 = _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(vk, vx), vx), vx);
        let inner = _mm256_mul_ps(vc, _mm256_add_ps(vx, x3));
        // tanh(inner) exactly as `math::tanh_f32`: clamp, e = exp(2a),
        // (e - 1) / (e + 1) — division is IEEE-exact per lane.
        let a = _mm256_min_ps(_mm256_max_ps(inner, nsat), sat);
        let e = exp_ps(_mm256_add_ps(a, a));
        let vt = _mm256_div_ps(_mm256_sub_ps(e, one), _mm256_add_ps(e, one));
        let vy = _mm256_mul_ps(_mm256_mul_ps(half, vx), _mm256_add_ps(one, vt));
        _mm256_storeu_ps(out.as_mut_ptr().add(i), vy);
        i += 8;
    }
    while i < x.len() {
        out[i] = crate::layers::gelu(x[i]);
        i += 1;
    }
}

/// Softmax core: `row[i] = exp(row[i] - max)`, returning the sum in the
/// canonical 8-lane accumulation order. Bit-identical to
/// [`super::scalar::exp_sum`]: [`exp_ps`] replays the `math::exp_f32`
/// sequence and the accumulator register is the scalar 8-slot layout.
#[target_feature(enable = "avx2")]
pub unsafe fn exp_sum(row: &mut [f32], max: f32) -> f32 {
    let n8 = row.len() / 8 * 8;
    let vmax = _mm256_set1_ps(max);
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i < n8 {
        let e = exp_ps(_mm256_sub_ps(_mm256_loadu_ps(row.as_ptr().add(i)), vmax));
        _mm256_storeu_ps(row.as_mut_ptr().add(i), e);
        acc = _mm256_add_ps(acc, e);
        i += 8;
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    let mut s: f32 = lanes.iter().sum();
    while i < row.len() {
        let e = crate::math::exp_f32(row[i] - max);
        row[i] = e;
        s += e;
        i += 1;
    }
    s
}

/// Fused NN matmul block: `out[ri] += a_row × b` over a whole row chunk
/// with **one** dispatch, register-blocking the output stripe (4 `ymm`
/// accumulators = 32 columns held across the entire `k` loop, so the
/// per-`k` out-row load/store traffic of the axpy-stripe reference
/// disappears). Per output element the `k` axis accumulates ascending
/// with separate mul/add — the exact order of the stripe reference — so
/// results are bit-identical.
#[target_feature(enable = "avx2")]
pub unsafe fn nn_block(a: &[f32], b: &[f32], out: &mut [f32], row0: usize, k: usize, n: usize) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    for ri in 0..rows {
        let a_row = &a[(row0 + ri) * k..(row0 + ri + 1) * k];
        let out_row = &mut out[ri * n..(ri + 1) * n];
        let bp = b.as_ptr();
        let mut j = 0;
        while j + 32 <= n {
            let op = out_row.as_mut_ptr().add(j);
            let mut acc0 = _mm256_loadu_ps(op);
            let mut acc1 = _mm256_loadu_ps(op.add(8));
            let mut acc2 = _mm256_loadu_ps(op.add(16));
            let mut acc3 = _mm256_loadu_ps(op.add(24));
            for (kk, &av) in a_row.iter().enumerate() {
                let va = _mm256_set1_ps(av);
                let bk = bp.add(kk * n + j);
                acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(va, _mm256_loadu_ps(bk)));
                acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(va, _mm256_loadu_ps(bk.add(8))));
                acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(va, _mm256_loadu_ps(bk.add(16))));
                acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(va, _mm256_loadu_ps(bk.add(24))));
            }
            _mm256_storeu_ps(op, acc0);
            _mm256_storeu_ps(op.add(8), acc1);
            _mm256_storeu_ps(op.add(16), acc2);
            _mm256_storeu_ps(op.add(24), acc3);
            j += 32;
        }
        while j + 8 <= n {
            let op = out_row.as_mut_ptr().add(j);
            let mut acc = _mm256_loadu_ps(op);
            for (kk, &av) in a_row.iter().enumerate() {
                let va = _mm256_set1_ps(av);
                acc = _mm256_add_ps(acc, _mm256_mul_ps(va, _mm256_loadu_ps(bp.add(kk * n + j))));
            }
            _mm256_storeu_ps(op, acc);
            j += 8;
        }
        while j < n {
            let mut s = out_row[j];
            for (kk, &av) in a_row.iter().enumerate() {
                s += av * b[kk * n + j];
            }
            out_row[j] = s;
            j += 1;
        }
    }
}

/// Fused NT matmul block: row-by-row dot products, four output columns
/// at a time. The four accumulator registers form independent add chains
/// (hiding `addps` latency, which serializes a single canonical 8-lane
/// accumulator) and share each `a`-row load; each output's own
/// accumulation order — 8-lane vector loop, sequential lane fold,
/// ascending tail — is exactly [`super::scalar::dot`], so results are
/// bit-identical to the per-dot reference.
#[target_feature(enable = "avx2")]
pub unsafe fn nt_block(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    if n == 0 {
        return;
    }
    let k8 = k / 8 * 8;
    for (ri, out_row) in out.chunks_exact_mut(n).enumerate() {
        let a_row = &a[ri * k..(ri + 1) * k];
        let ap = a_row.as_ptr();
        let mut j = 0;
        while j + 4 <= n {
            let b0 = b.as_ptr().add(j * k);
            let b1 = b.as_ptr().add((j + 1) * k);
            let b2 = b.as_ptr().add((j + 2) * k);
            let b3 = b.as_ptr().add((j + 3) * k);
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut acc2 = _mm256_setzero_ps();
            let mut acc3 = _mm256_setzero_ps();
            let mut i = 0;
            while i < k8 {
                let va = _mm256_loadu_ps(ap.add(i));
                acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(va, _mm256_loadu_ps(b0.add(i))));
                acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(va, _mm256_loadu_ps(b1.add(i))));
                acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(va, _mm256_loadu_ps(b2.add(i))));
                acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(va, _mm256_loadu_ps(b3.add(i))));
                i += 8;
            }
            for (t, acc) in [acc0, acc1, acc2, acc3].into_iter().enumerate() {
                let mut lanes = [0.0f32; 8];
                _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
                let mut s: f32 = lanes.iter().sum();
                let bt = &b[(j + t) * k..(j + t + 1) * k];
                for i in k8..k {
                    s += a_row[i] * bt[i];
                }
                out_row[j + t] = s;
            }
            j += 4;
        }
        while j < n {
            out_row[j] = dot(a_row, &b[j * k..(j + 1) * k]);
            j += 1;
        }
    }
}

/// LayerNorm affine step; element-wise, identical to the scalar loop.
#[target_feature(enable = "avx2")]
pub unsafe fn ln_affine(
    x: &[f32],
    mean: f32,
    rstd: f32,
    gamma: &[f32],
    beta: &[f32],
    out: &mut [f32],
) {
    let n8 = x.len() / 8 * 8;
    let vm = _mm256_set1_ps(mean);
    let vr = _mm256_set1_ps(rstd);
    let mut i = 0;
    while i < n8 {
        let h = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x.as_ptr().add(i)), vm), vr);
        let vg = _mm256_loadu_ps(gamma.as_ptr().add(i));
        let vb = _mm256_loadu_ps(beta.as_ptr().add(i));
        _mm256_storeu_ps(
            out.as_mut_ptr().add(i),
            _mm256_add_ps(_mm256_mul_ps(h, vg), vb),
        );
        i += 8;
    }
    while i < x.len() {
        let h = (x[i] - mean) * rstd;
        out[i] = h * gamma[i] + beta[i];
        i += 1;
    }
}

/// Absolute maximum plus an all-finite flag, in one pass. `max` over
/// absolute values is associative for finite input, so the lane fold
/// agrees with [`super::scalar::abs_max_finite`] exactly (the quantizer
/// only uses the maximum when the flag is true). Finiteness is
/// `|v| <= f32::MAX` as an ordered compare, which fails for both NaN
/// and ±inf.
#[target_feature(enable = "avx2")]
pub unsafe fn abs_max_finite(row: &[f32]) -> (f32, bool) {
    let n8 = row.len() / 8 * 8;
    // Clearing the sign bit is `abs` for every input, including NaN.
    let absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
    let vbig = _mm256_set1_ps(f32::MAX);
    let mut vamax = _mm256_setzero_ps();
    let mut vfin = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
    let mut i = 0;
    while i < n8 {
        let vabs = _mm256_and_ps(_mm256_loadu_ps(row.as_ptr().add(i)), absmask);
        // Second operand wins on NaN (`maxps`), so NaN lanes never stick.
        vamax = _mm256_max_ps(vabs, vamax);
        vfin = _mm256_and_ps(vfin, _mm256_cmp_ps::<_CMP_LE_OQ>(vabs, vbig));
        i += 8;
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), vamax);
    let mut amax = lanes[0];
    for &lane in &lanes[1..] {
        amax = crate::math::vmax(lane, amax);
    }
    let mut finite = _mm256_movemask_ps(vfin) == 0xFF;
    while i < row.len() {
        amax = crate::math::vmax(row[i].abs(), amax);
        finite &= row[i].is_finite();
        i += 1;
    }
    (amax, finite)
}

/// Activation quantization: `out[i] = round_ties_even(row[i] * inv)`
/// clamped to ±127, 16 codes per step. `vroundps` nearest is
/// ties-to-even — exactly `f32::round_ties_even` — and the max/min
/// clamp uses the same operand order as the scalar reference, so codes
/// are bit-identical to [`super::scalar::quantize_i8`].
#[target_feature(enable = "avx2")]
pub unsafe fn quantize_i8(row: &[f32], inv: f32, out: &mut [i8]) {
    const NEAREST: i32 = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
    let n16 = row.len() / 16 * 16;
    let vinv = _mm256_set1_ps(inv);
    let lo = _mm256_set1_ps(-127.0);
    let hi = _mm256_set1_ps(127.0);
    let mut i = 0;
    while i < n16 {
        let q0 = _mm256_round_ps::<NEAREST>(_mm256_mul_ps(_mm256_loadu_ps(row.as_ptr().add(i)), vinv));
        let q1 = _mm256_round_ps::<NEAREST>(_mm256_mul_ps(
            _mm256_loadu_ps(row.as_ptr().add(i + 8)),
            vinv,
        ));
        let c0 = _mm256_cvtps_epi32(_mm256_min_ps(_mm256_max_ps(q0, lo), hi));
        let c1 = _mm256_cvtps_epi32(_mm256_min_ps(_mm256_max_ps(q1, lo), hi));
        // packs interleaves 128-bit halves: [c0.lo, c1.lo | c0.hi, c1.hi];
        // the 64-bit permute (0b11011000) restores element order.
        let w16 = _mm256_permute4x64_epi64::<0b1101_1000>(_mm256_packs_epi32(c0, c1));
        let codes = _mm_packs_epi16(
            _mm256_castsi256_si128(w16),
            _mm256_extracti128_si256::<1>(w16),
        );
        _mm_storeu_si128(out.as_mut_ptr().add(i) as *mut __m128i, codes);
        i += 16;
    }
    while i < row.len() {
        let q = (row[i] * inv).round_ties_even();
        out[i] = crate::math::vmin(crate::math::vmax(q, -127.0), 127.0) as i8;
        i += 1;
    }
}

/// Widening `i8 × i8 → i32` dot: 16 bytes per step through
/// `cvtepi8_epi16` + `madd_epi16`. Integer arithmetic is exact, so this
/// equals [`super::scalar::dot_i8`] for any accumulation order.
#[target_feature(enable = "avx2")]
pub unsafe fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    let n16 = a.len() / 16 * 16;
    let mut acc = _mm256_setzero_si256();
    let mut i = 0;
    while i < n16 {
        let va = _mm_loadu_si128(a.as_ptr().add(i) as *const __m128i);
        let vb = _mm_loadu_si128(b.as_ptr().add(i) as *const __m128i);
        let wa = _mm256_cvtepi8_epi16(va);
        let wb = _mm256_cvtepi8_epi16(vb);
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(wa, wb));
        i += 16;
    }
    let mut lanes = [0i32; 8];
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
    let mut s: i32 = lanes.iter().sum();
    while i < a.len() {
        s += a[i] as i32 * b[i] as i32;
        i += 1;
    }
    s
}

/// Whole int8 matvec plus rescale in one dispatch:
/// `out[o] = (Σ_i xq[i]·wq[o·k+i]) as f32 × (x_scale·scales[o]) + bias[o]`.
/// Four weight rows share each activation load; the four row sums reduce
/// together with an integer hadd transpose (exact, so any order matches
/// the scalar fold), and the rescale runs the scalar expression's exact
/// multiply/add sequence in 4 lanes — no FMA — so results are
/// bit-identical to the per-dot reference.
#[target_feature(enable = "avx2")]
pub unsafe fn quant_matvec(
    xq: &[i8],
    x_scale: f32,
    wq: &[i8],
    scales: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    let k = xq.len();
    let n = out.len();
    let n16 = k / 16 * 16;
    let vxs = _mm_set1_ps(x_scale);
    let mut o = 0;
    while o + 4 <= n {
        let mut acc = [_mm256_setzero_si256(); 4];
        let mut i = 0;
        while i < n16 {
            let wa = _mm256_cvtepi8_epi16(_mm_loadu_si128(xq.as_ptr().add(i) as *const __m128i));
            for (t, at) in acc.iter_mut().enumerate() {
                let wb = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                    wq.as_ptr().add((o + t) * k + i) as *const __m128i
                ));
                *at = _mm256_add_epi32(*at, _mm256_madd_epi16(wa, wb));
            }
            i += 16;
        }
        // hadd transpose: one 4-lane register holding the four row sums.
        let h01 = _mm256_hadd_epi32(acc[0], acc[1]);
        let h23 = _mm256_hadd_epi32(acc[2], acc[3]);
        let h = _mm256_hadd_epi32(h01, h23);
        let mut sums =
            _mm_add_epi32(_mm256_castsi256_si128(h), _mm256_extracti128_si256::<1>(h));
        if i < k {
            let mut tails = [0i32; 4];
            for (t, tail) in tails.iter_mut().enumerate() {
                let mut s = 0i32;
                for ii in i..k {
                    s += xq[ii] as i32 * wq[(o + t) * k + ii] as i32;
                }
                *tail = s;
            }
            sums = _mm_add_epi32(sums, _mm_loadu_si128(tails.as_ptr() as *const __m128i));
        }
        let accf = _mm_cvtepi32_ps(sums);
        let vs = _mm_mul_ps(vxs, _mm_loadu_ps(scales.as_ptr().add(o)));
        let vy = _mm_add_ps(_mm_mul_ps(accf, vs), _mm_loadu_ps(bias.as_ptr().add(o)));
        _mm_storeu_ps(out.as_mut_ptr().add(o), vy);
        o += 4;
    }
    while o < n {
        let acc = dot_i8(xq, &wq[o * k..(o + 1) * k]);
        out[o] = acc as f32 * (x_scale * scales[o]) + bias[o];
        o += 1;
    }
}

/// Four int8 dots against four consecutive weight rows (`w.len() == 4 *
/// a.len()`), sharing each activation load and keeping four independent
/// accumulator chains. Integer arithmetic is exact, so this equals four
/// [`super::scalar::dot_i8`] calls.
#[target_feature(enable = "avx2")]
pub unsafe fn dot_i8x4(a: &[i8], w: &[i8]) -> [i32; 4] {
    let k = a.len();
    debug_assert_eq!(w.len(), 4 * k);
    let n16 = k / 16 * 16;
    let mut acc = [_mm256_setzero_si256(); 4];
    let mut i = 0;
    while i < n16 {
        let wa = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(i) as *const __m128i));
        for (t, at) in acc.iter_mut().enumerate() {
            let wb = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                w.as_ptr().add(t * k + i) as *const __m128i
            ));
            *at = _mm256_add_epi32(*at, _mm256_madd_epi16(wa, wb));
        }
        i += 16;
    }
    let mut out = [0i32; 4];
    for (t, (o, at)) in out.iter_mut().zip(acc).enumerate() {
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, at);
        let mut s: i32 = lanes.iter().sum();
        for ii in i..k {
            s += a[ii] as i32 * w[t * k + ii] as i32;
        }
        *o = s;
    }
    out
}
