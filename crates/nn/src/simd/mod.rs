//! Explicit SIMD kernels with runtime ISA dispatch.
//!
//! Every hot inner loop of the neural substrate (`dot`, the matmul block
//! kernels' axpy stripes, bias broadcasts, GELU, softmax, LayerNorm
//! statistics, and the int8 serving dot) funnels through this module. A
//! backend is selected **once** per process — AVX2 on x86-64 hosts that
//! report it, NEON on aarch64, a plain-array fallback everywhere else —
//! and can be overridden with `KAMEL_SIMD={auto,avx2,neon,scalar}` or
//! [`set_backend`] (tests and benchmarks sweep backends explicitly).
//!
//! **Bit-identity contract.** Whatever the backend, every kernel performs
//! the *same floating-point operations in the same order* as the scalar
//! reference in [`scalar`]:
//!
//! * Reductions (`dot`, `sum`, `sum_sq_diff`, `max`) accumulate into the
//!   same fixed 8-lane layout the scalar `chunks_exact(8)` loop fills —
//!   lane `l` sees exactly the elements `8k + l` — and the eight lanes
//!   are then combined sequentially (`acc[0] op acc[1] op …`), followed
//!   by the tail elements in ascending order. An AVX2 vector register
//!   *is* that 8-lane accumulator; NEON uses two 4-lane registers for
//!   lanes 0–3 and 4–7.
//! * Element-wise kernels (`axpy`, `add`, `add_assign`, `scale`,
//!   `gelu_map`, `ln_affine`) evaluate the same expression per element,
//!   so vectorizing them cannot change a single rounding.
//! * No FMA. The scalar reference rounds after the multiply and again
//!   after the add; a fused multiply-add rounds once and would diverge in
//!   the last ulp, so the AVX2 kernels deliberately use `mul` + `add`
//!   even when the host reports FMA.
//! * Transcendentals (`exp` in softmax, `tanh` in GELU) run the
//!   [`crate::math`] sequences — fixed chains of IEEE-exact primitives —
//!   so a vector backend evaluates whole lanes (see `avx2::exp_ps`)
//!   instead of falling back to per-lane libm, without changing a bit.
//! * Block kernels ([`nn_block`], [`nt_block`]) dispatch **once per
//!   block**, not once per stripe or per dot: AVX2 keeps output stripes
//!   in registers across the whole `k` loop (NN) and runs four
//!   independent dot chains (NT), while each output element still
//!   accumulates in the canonical order.
//! * Integer kernels (`dot_i8`, `dot_i8x4`) are exact, so any
//!   accumulation order yields identical results by construction.
//!
//! The contract is enforced by seeded property tests
//! (`tests/simd_identity.rs`) that compare every backend against scalar
//! directly, across non-multiple-of-8 tails.

use std::sync::atomic::{AtomicU8, Ordering};

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "aarch64")]
mod neon;
pub(crate) mod scalar;

/// Environment variable that overrides backend auto-detection.
pub const SIMD_ENV: &str = "KAMEL_SIMD";

/// A SIMD backend. All variants exist on every architecture (so configs
/// and tests parse uniformly), but only backends the host supports can be
/// activated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Plain-array reference kernels; the canonical accumulation order.
    Scalar,
    /// 8-lane AVX2 kernels (x86-64).
    Avx2,
    /// 2×4-lane NEON kernels (aarch64).
    Neon,
}

impl Backend {
    /// The ISA name as reported on `/v1/info` and in BENCH_infer.json.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }
}

/// How a raw `KAMEL_SIMD` value resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvIsa {
    /// Not set: auto-detect.
    Unset,
    /// Explicit `auto`: auto-detect.
    Auto,
    /// An explicit backend request (may still be unsupported on this
    /// host, which falls back to detection with a warning).
    Requested(Backend),
    /// Unusable value; carries the warning to surface.
    Invalid(String),
}

/// Interprets a raw `KAMEL_SIMD` value (`None` = unset). Matching is
/// case-insensitive and whitespace-tolerant.
pub fn parse_simd_env(raw: Option<&str>) -> EnvIsa {
    let Some(raw) = raw else {
        return EnvIsa::Unset;
    };
    match raw.trim().to_ascii_lowercase().as_str() {
        "" => EnvIsa::Invalid(format!(
            "{SIMD_ENV} is set but empty; falling back to auto-detection"
        )),
        "auto" => EnvIsa::Auto,
        "scalar" => EnvIsa::Requested(Backend::Scalar),
        "avx2" => EnvIsa::Requested(Backend::Avx2),
        "neon" => EnvIsa::Requested(Backend::Neon),
        other => EnvIsa::Invalid(format!(
            "{SIMD_ENV}=`{other}` is not one of auto/avx2/neon/scalar; \
             falling back to auto-detection"
        )),
    }
}

/// 0 = unresolved; otherwise `Backend` + 1.
static BACKEND: AtomicU8 = AtomicU8::new(0);

fn encode(b: Backend) -> u8 {
    match b {
        Backend::Scalar => 1,
        Backend::Avx2 => 2,
        Backend::Neon => 3,
    }
}

fn decode(v: u8) -> Backend {
    match v {
        2 => Backend::Avx2,
        3 => Backend::Neon,
        _ => Backend::Scalar,
    }
}

/// True when this host can execute `b`'s kernels.
pub fn backend_supported(b: Backend) -> bool {
    match b {
        Backend::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => false,
        Backend::Neon => cfg!(target_arch = "aarch64"),
    }
}

/// Every backend this host can execute, scalar first.
pub fn supported_backends() -> Vec<Backend> {
    [Backend::Scalar, Backend::Avx2, Backend::Neon]
        .into_iter()
        .filter(|&b| backend_supported(b))
        .collect()
}

/// The widest backend this host supports.
fn detect() -> Backend {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return Backend::Avx2;
    }
    #[cfg(target_arch = "aarch64")]
    return Backend::Neon;
    #[allow(unreachable_code)]
    Backend::Scalar
}

/// The active backend, resolving and caching the choice on first use:
/// a prior [`set_backend`] call wins, then `KAMEL_SIMD`, then detection.
/// An unusable or unsupported `KAMEL_SIMD` value is reported on stderr
/// once and detection applies instead.
pub fn backend() -> Backend {
    let cached = BACKEND.load(Ordering::Relaxed);
    if cached != 0 {
        return decode(cached);
    }
    let env = std::env::var(SIMD_ENV).ok();
    let resolved = match parse_simd_env(env.as_deref()) {
        EnvIsa::Unset | EnvIsa::Auto => detect(),
        EnvIsa::Requested(b) if backend_supported(b) => b,
        EnvIsa::Requested(b) => {
            eprintln!(
                "warning: {SIMD_ENV}={} is not supported on this host; using {}",
                b.name(),
                detect().name()
            );
            detect()
        }
        EnvIsa::Invalid(warning) => {
            eprintln!("warning: {warning}");
            detect()
        }
    };
    BACKEND.store(encode(resolved), Ordering::Relaxed);
    resolved
}

/// Forces the active backend (tests and the benchmark backend sweep).
/// Fails when the host cannot execute `b`; results never change either
/// way — only speed does.
pub fn set_backend(b: Backend) -> Result<(), String> {
    if !backend_supported(b) {
        return Err(format!("backend {} is not supported on this host", b.name()));
    }
    BACKEND.store(encode(b), Ordering::Relaxed);
    Ok(())
}

/// The active ISA name (`scalar`/`avx2`/`neon`), as served on `/v1/info`.
pub fn active_isa() -> &'static str {
    backend().name()
}

/// Dense dot product in the canonical 8-lane accumulation order.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::dot(a, b) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::dot(a, b),
        _ => scalar::dot(a, b),
    }
}

/// `out[i] += a * x[i]` — the axpy stripe at the heart of the NN/TN
/// matmul block kernels.
#[inline]
pub fn axpy(out: &mut [f32], a: f32, x: &[f32]) {
    debug_assert_eq!(out.len(), x.len());
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::axpy(out, a, x) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::axpy(out, a, x),
        _ => scalar::axpy(out, a, x),
    }
}

/// `out[i] += x[i]` (bias broadcasts, gradient accumulation).
#[inline]
pub fn add_assign(out: &mut [f32], x: &[f32]) {
    debug_assert_eq!(out.len(), x.len());
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::add_assign(out, x) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::add_assign(out, x),
        _ => scalar::add_assign(out, x),
    }
}

/// `out[i] = a[i] + b[i]` (residual sums).
#[inline]
pub fn add(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::add(a, b, out) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::add(a, b, out),
        _ => scalar::add(a, b, out),
    }
}

/// `out[i] *= s` (attention score scaling, softmax normalization).
#[inline]
pub fn scale(out: &mut [f32], s: f32) {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::scale(out, s) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::scale(out, s),
        _ => scalar::scale(out, s),
    }
}

/// Maximum element in the canonical 8-lane reduction order
/// (`NEG_INFINITY` for an empty slice). `max` is insensitive to
/// association for non-NaN inputs, so all backends agree exactly.
#[inline]
pub fn max(x: &[f32]) -> f32 {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::max(x) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::max(x),
        _ => scalar::max(x),
    }
}

/// Sum in the canonical 8-lane accumulation order (LayerNorm means).
#[inline]
pub fn sum(x: &[f32]) -> f32 {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::sum(x) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::sum(x),
        _ => scalar::sum(x),
    }
}

/// `Σ (x[i] - mean)²` in the canonical 8-lane accumulation order
/// (LayerNorm variances).
#[inline]
pub fn sum_sq_diff(x: &[f32], mean: f32) -> f32 {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::sum_sq_diff(x, mean) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::sum_sq_diff(x, mean),
        _ => scalar::sum_sq_diff(x, mean),
    }
}

/// `out[i] = gelu(x[i])` with the polynomial evaluated in vector lanes
/// and `tanh` per lane — element-wise, so bit-identical across backends.
#[inline]
pub fn gelu_map(x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::gelu_map(x, out) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::gelu_map(x, out),
        _ => scalar::gelu_map(x, out),
    }
}

/// `out[c] = ((x[c] - mean) * rstd) * gamma[c] + beta[c]` — the LayerNorm
/// affine step, element-wise.
#[inline]
pub fn ln_affine(x: &[f32], mean: f32, rstd: f32, gamma: &[f32], beta: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    debug_assert_eq!(x.len(), gamma.len());
    debug_assert_eq!(x.len(), beta.len());
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::ln_affine(x, mean, rstd, gamma, beta, out) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::ln_affine(x, mean, rstd, gamma, beta, out),
        _ => scalar::ln_affine(x, mean, rstd, gamma, beta, out),
    }
}

/// Widening `i8 × i8 → i32` dot product (the int8 serving path). Exact
/// integer arithmetic: every backend returns identical values for any
/// accumulation order.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::dot_i8(a, b) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::dot_i8(a, b),
        _ => scalar::dot_i8(a, b),
    }
}

/// Four int8 dots against four consecutive weight rows packed in `w`
/// (`w.len() == 4 * a.len()`) — the int8 matvec inner step, fused so the
/// activation codes are loaded once and the dispatch happens once per
/// four outputs. Exact integer arithmetic on every backend.
#[inline]
pub fn dot_i8x4(a: &[i8], w: &[i8]) -> [i32; 4] {
    debug_assert_eq!(w.len(), 4 * a.len());
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::dot_i8x4(a, w) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => {
            let k = a.len();
            std::array::from_fn(|t| neon::dot_i8(a, &w[t * k..(t + 1) * k]))
        }
        _ => {
            let k = a.len();
            std::array::from_fn(|t| scalar::dot_i8(a, &w[t * k..(t + 1) * k]))
        }
    }
}

/// Absolute maximum plus an all-finite flag, in one pass — the scale
/// pass of activation quantization. `max` over absolute values is
/// associative for finite rows (the only case the quantizer uses the
/// maximum), so every backend returns identical values.
#[inline]
pub fn abs_max_finite(row: &[f32]) -> (f32, bool) {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::abs_max_finite(row) },
        _ => scalar::abs_max_finite(row),
    }
}

/// Activation quantization: `out[i] = round_ties_even(row[i] * inv)`
/// clamped to ±127. Ties-to-even is the hardware nearest rounding
/// (`vroundps`), and the clamp runs in the same max/min operand order on
/// every backend, so codes are bit-identical.
#[inline]
pub fn quantize_i8(row: &[f32], inv: f32, out: &mut [i8]) {
    debug_assert_eq!(row.len(), out.len());
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::quantize_i8(row, inv, out) },
        _ => scalar::quantize_i8(row, inv, out),
    }
}

/// Reference int8 matvec + rescale, one [`dot_i8`]-style reduction per
/// output row. The rescale expression per output is the contract:
/// `sum as f32 * (x_scale * scales[o]) + bias[o]` with separate
/// multiplies and add.
fn quant_matvec_dots(
    xq: &[i8],
    x_scale: f32,
    wq: &[i8],
    scales: &[f32],
    bias: &[f32],
    out: &mut [f32],
    dot_fn: impl Fn(&[i8], &[i8]) -> i32,
) {
    let k = xq.len();
    for (o, y) in out.iter_mut().enumerate() {
        let acc = dot_fn(xq, &wq[o * k..(o + 1) * k]);
        *y = acc as f32 * (x_scale * scales[o]) + bias[o];
    }
}

/// Whole int8 matvec plus f32 rescale —
/// `out[o] = (xq · wq[o]) as f32 × (x_scale·scales[o]) + bias[o]` with
/// `wq` holding `out.len()` weight rows of length `xq.len()` — in **one**
/// dispatch (the int8 serving hot loop). The integer sums are exact and
/// the rescale runs the same multiply/add sequence on every backend, so
/// results are bit-identical.
#[inline]
pub fn quant_matvec(
    xq: &[i8],
    x_scale: f32,
    wq: &[i8],
    scales: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!(wq.len(), xq.len() * out.len());
    debug_assert_eq!(scales.len(), out.len());
    debug_assert_eq!(bias.len(), out.len());
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::quant_matvec(xq, x_scale, wq, scales, bias, out) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => quant_matvec_dots(xq, x_scale, wq, scales, bias, out, neon::dot_i8),
        _ => quant_matvec_dots(xq, x_scale, wq, scales, bias, out, scalar::dot_i8),
    }
}

/// Softmax core: `row[i] = exp(row[i] - max)` through the
/// SIMD-reproducible [`crate::math::exp_f32`] sequence, returning the sum
/// in the canonical 8-lane accumulation order. One dispatch per row.
#[inline]
pub fn exp_sum(row: &mut [f32], max: f32) -> f32 {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::exp_sum(row, max) },
        _ => scalar::exp_sum(row, max),
    }
}

/// Output-column block width for the stripe-based matmul fallback: the
/// active stripe of the output row plus one stripe of a `b` row stays
/// resident in L1 while the full `k` axis streams past it.
const NN_COL_BLOCK: usize = 1024;

/// Stripe-based NN block — the canonical accumulation order (ascending
/// `k` per output element) expressed as axpy sweeps. Backends without a
/// fused kernel run this with their own axpy.
fn nn_block_stripes(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    row0: usize,
    k: usize,
    n: usize,
    axpy_fn: impl Fn(&mut [f32], f32, &[f32]),
) {
    let rows = out.len() / n;
    for ri in 0..rows {
        let a_row = &a[(row0 + ri) * k..(row0 + ri + 1) * k];
        let out_row = &mut out[ri * n..(ri + 1) * n];
        let mut j0 = 0;
        while j0 < n {
            let j1 = (j0 + NN_COL_BLOCK).min(n);
            // Dense-path assumption: activations are dense, so no
            // zero-skip branch — it defeats vectorization and saves
            // nothing on real inputs.
            for (kk, &av) in a_row.iter().enumerate() {
                axpy_fn(&mut out_row[j0..j1], av, &b[kk * n + j0..kk * n + j1]);
            }
            j0 = j1;
        }
    }
}

/// Per-dot NT block — one [`dot`]-ordered reduction per output element.
fn nt_block_dots(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    dot_fn: impl Fn(&[f32], &[f32]) -> f32,
) {
    for (ri, out_row) in out.chunks_exact_mut(n).enumerate() {
        let a_row = &a[ri * k..(ri + 1) * k];
        for (j, o) in out_row.iter_mut().enumerate() {
            *o = dot_fn(a_row, &b[j * k..(j + 1) * k]);
        }
    }
}

/// NN matmul block kernel: `out (rows×n chunk at row0) += a[row0..] × b`
/// with `a: [m,k]`, `b: [k,n]`. **One dispatch per block**: AVX2 runs a
/// fused register-blocked kernel (the output stripe lives in `ymm`
/// registers across the whole `k` loop); other backends run the
/// axpy-stripe reference. Per output element the `k` axis accumulates in
/// ascending order with separate mul/add on every path, so results are
/// bit-identical across backends.
#[inline]
pub fn nn_block(a: &[f32], b: &[f32], out: &mut [f32], row0: usize, k: usize, n: usize) {
    if n == 0 {
        return;
    }
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::nn_block(a, b, out, row0, k, n) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => nn_block_stripes(a, b, out, row0, k, n, neon::axpy),
        _ => nn_block_stripes(a, b, out, row0, k, n, scalar::axpy),
    }
}

/// NT matmul block kernel: `out = a × bᵀ` with `a: [m,k]`, `b: [n,k]`,
/// `out: [m,n]`. One dispatch per block; AVX2 computes
/// four output dots concurrently (independent accumulator chains hide
/// add latency), each in the canonical [`dot`] order, so results are
/// bit-identical across backends.
#[inline]
pub fn nt_block(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    if n == 0 {
        return;
    }
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { avx2::nt_block(a, b, out, k, n) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => nt_block_dots(a, b, out, k, n, neon::dot),
        _ => nt_block_dots(a, b, out, k, n, scalar::dot),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_accepts_known_isas() {
        assert_eq!(parse_simd_env(None), EnvIsa::Unset);
        assert_eq!(parse_simd_env(Some("auto")), EnvIsa::Auto);
        assert_eq!(parse_simd_env(Some(" AVX2 ")), EnvIsa::Requested(Backend::Avx2));
        assert_eq!(parse_simd_env(Some("neon")), EnvIsa::Requested(Backend::Neon));
        assert_eq!(parse_simd_env(Some("scalar")), EnvIsa::Requested(Backend::Scalar));
    }

    #[test]
    fn env_parsing_rejects_unknown_values() {
        for raw in ["", "  ", "sse2", "avx512", "8"] {
            let EnvIsa::Invalid(warning) = parse_simd_env(Some(raw)) else {
                panic!("`{raw}` must be invalid");
            };
            assert!(warning.contains("falling back"), "{warning}");
        }
    }

    #[test]
    fn scalar_is_always_supported_and_settable() {
        assert!(backend_supported(Backend::Scalar));
        assert!(supported_backends().contains(&Backend::Scalar));
        let before = backend();
        set_backend(Backend::Scalar).unwrap();
        assert_eq!(backend(), Backend::Scalar);
        assert_eq!(active_isa(), "scalar");
        set_backend(before).unwrap();
    }

    #[test]
    fn unsupported_backends_are_refused() {
        for b in [Backend::Avx2, Backend::Neon] {
            if !backend_supported(b) {
                assert!(set_backend(b).is_err());
            }
        }
    }

    #[test]
    fn backend_names_round_trip_through_env_parsing() {
        for b in [Backend::Scalar, Backend::Avx2, Backend::Neon] {
            assert_eq!(parse_simd_env(Some(b.name())), EnvIsa::Requested(b));
        }
    }
}
