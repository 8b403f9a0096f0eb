//! SIMD-reproducible transcendental kernels.
//!
//! `exp_f32` and `tanh_f32` replace libm's `exp`/`tanh` on the hot
//! inference paths (softmax, GELU). Unlike libm — whose result bits may
//! differ between a scalar call and any vectorized re-implementation —
//! these are fixed operation sequences built **only from IEEE-exact
//! primitives**: `mul`, `add`, `sub`, `div`, `floor`, comparisons, and
//! integer bit manipulation. Each of those rounds identically per lane in
//! a vector register, so a SIMD backend that replays the same sequence
//! (see `simd::avx2::exp_ps`) produces bit-identical results without
//! giving up lane parallelism.
//!
//! The polynomial is the classic Cephes `expf` kernel (as popularized by
//! the `sse_mathfun` vector math routines): range-reduce by powers of two
//! with a two-step Cody–Waite subtraction, evaluate a degree-5 polynomial
//! in Horner form with separate multiply and add (no FMA — the scalar
//! sequence rounds twice per step, and every backend must match), and
//! scale by `2^n` through exponent-field bit assembly. Relative error is
//! ≲ 2 ulp over the full reduced range — far below anything the model
//! quality metrics can resolve — and `tanh` inherits it through an exact
//! division.

/// Inputs below this produce 0 from [`exp_f32`] (the scale step would
/// need a biased exponent < 0). `exp(-87.3) ≈ 1.2e-38` is already at the
/// edge of normal `f32` range, so the clamp loses nothing that survives a
/// downstream sum.
pub const EXP_LO: f32 = -87.336_54;

/// Inputs above this clamp so the `2^n` scale stays finite: at 88 the
/// reduction gives `n = 127` with half an ulp of slack against rounding
/// up to 128 (which would assemble an infinite scale). `exp(88) ≈
/// 1.65e38` is still within `f32` range.
pub const EXP_HI: f32 = 88.0;

const LOG2E: f32 = std::f32::consts::LOG2_E;
/// Cody–Waite split of ln 2: `LN2_HI` has a short mantissa so
/// `fx * LN2_HI` is near-exact; `LN2_LO` sweeps up the remainder. The
/// full digits are the point — `0.693359375` is exactly representable.
#[allow(clippy::excessive_precision)]
pub(crate) const LN2_HI: f32 = 0.693_359_375;
pub(crate) const LN2_LO: f32 = -2.121_944_4e-4;

/// Degree-5 polynomial for `exp(r) - 1 - r` on `r ∈ [-ln2/2, ln2/2]`
/// (Cephes `expf` coefficients, Horner order fixed by this array order).
#[allow(clippy::excessive_precision)]
pub(crate) const EXP_POLY: [f32; 6] = [
    1.987_569_2e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_5e-1,
    5.000_000_1e-1,
];

/// `max` with the x86 `maxps` / NEON `fmax` operand convention: returns
/// `b` unless `a > b`. The vector backends use the hardware instruction
/// directly; the scalar reference must match its NaN/±0 behavior, which
/// `f32::max` does not.
#[inline]
pub fn vmax(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// `min` with the x86 `minps` operand convention (see [`vmax`]).
#[inline]
pub fn vmin(a: f32, b: f32) -> f32 {
    if a < b {
        a
    } else {
        b
    }
}

/// `e^x` as the canonical SIMD-reproducible operation sequence.
///
/// Every backend's vectorized exponential must replay exactly these
/// operations in this order; `simd::avx2::exp_ps` is the 8-lane replica
/// and the bit-identity property tests compare them across the full input
/// range.
#[inline]
pub fn exp_f32(x: f32) -> f32 {
    let x = vmin(vmax(x, EXP_LO), EXP_HI);
    // n = round(x / ln 2), computed as floor(x·log2e + ½).
    let fx = (x * LOG2E + 0.5).floor();
    // r = x - n·ln 2, in two exact-ish steps (Cody–Waite).
    let r = x - fx * LN2_HI;
    let r = r - fx * LN2_LO;
    let z = r * r;
    let mut y = EXP_POLY[0];
    y = y * r + EXP_POLY[1];
    y = y * r + EXP_POLY[2];
    y = y * r + EXP_POLY[3];
    y = y * r + EXP_POLY[4];
    y = y * r + EXP_POLY[5];
    y = y * z + r;
    y += 1.0;
    // 2^n via exponent-field assembly: exact for -127 ≤ n ≤ 127, which
    // the input clamp guarantees.
    let n = fx as i32;
    let pow2n = f32::from_bits(((n + 127) as u32) << 23);
    y * pow2n
}

/// `tanh(x)` via `(e^{2x} - 1) / (e^{2x} + 1)` with an exact division, so
/// it is SIMD-reproducible wherever [`exp_f32`] is. Saturates (within one
/// ulp of ±1) for |x| ≥ 9.
#[inline]
pub fn tanh_f32(x: f32) -> f32 {
    let x = vmin(vmax(x, -9.0), 9.0);
    let e = exp_f32(x + x);
    (e - 1.0) / (e + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_tracks_libm_to_single_precision() {
        let mut worst = 0.0f64;
        for i in -8000..=8000 {
            let x = i as f32 * 0.01; // [-80, 80]
            let got = exp_f32(x) as f64;
            let want = (x as f64).exp();
            let rel = ((got - want) / want).abs();
            worst = worst.max(rel);
        }
        assert!(worst < 3e-7, "worst relative error {worst}");
    }

    #[test]
    fn exp_edge_behavior() {
        assert_eq!(exp_f32(0.0), 1.0);
        assert_eq!(exp_f32(f32::NEG_INFINITY), exp_f32(EXP_LO));
        assert!(exp_f32(-200.0) >= 0.0);
        assert!(exp_f32(-200.0) < 1.3e-38);
        assert!(exp_f32(1000.0).is_finite(), "clamped, never overflows");
        assert!(exp_f32(EXP_HI) > 1.2e38);
    }

    #[test]
    fn tanh_tracks_libm_and_saturates() {
        let mut worst = 0.0f64;
        for i in -900..=900 {
            let x = i as f32 * 0.01;
            let got = tanh_f32(x) as f64;
            let want = (x as f64).tanh();
            worst = worst.max((got - want).abs());
        }
        assert!(worst < 3e-7, "worst absolute error {worst}");
        assert_eq!(tanh_f32(0.0), 0.0);
        assert!((tanh_f32(50.0) - 1.0).abs() < 1e-6);
        assert!((tanh_f32(-50.0) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn vmin_vmax_follow_hardware_convention() {
        // Returns the second operand on NaN — the `maxps` convention the
        // vector backends inherit from the hardware.
        assert_eq!(vmax(f32::NAN, -9.0), -9.0);
        assert_eq!(vmin(f32::NAN, 9.0), 9.0);
        assert_eq!(vmax(1.0, 2.0), 2.0);
        assert_eq!(vmin(1.0, 2.0), 1.0);
    }
}
