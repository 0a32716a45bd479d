//! Explicit SIMD kernels behind a single runtime-detected dispatch point.
//!
//! The evaluation hot path — stamp replay ([`scatter_add`],
//! [`scatter_add_uniform`], [`scatter_add_scaled`]), the dense LU inner
//! row updates ([`crate::linalg::Lu`], real or complex) and the batched
//! sparse complex factor and solves
//! ([`crate::sparse::CSparseLuBatch`]) — was deliberately shaped as
//! fixed-width 4-lane chunks so intrinsics could drop in without changing
//! accumulation order. This module is that drop-in: AVX2 kernels on
//! `x86_64`, and the original scalar 4-lane loops everywhere else (and as
//! the bit-compared oracle under `ADC_FORCE_SCALAR=1`).
//!
//! There is no sparse row-update kernel. The serial sparse factor
//! ([`crate::sparse::SparseLu`], real or complex) eliminates in place
//! along the symbolic elimination schedule, one scalar update per
//! factor entry; MNA factor rows are a handful of entries long, too short
//! for a vector product to pay for its round trip through memory.
//!
//! # Bit-identity contract
//!
//! Optimizer trajectories must not fork between machines or backends, so
//! every kernel here produces **bit-identical** results to its scalar
//! counterpart:
//!
//! - No FMA anywhere. The scalar code rounds each multiply and each
//!   add/subtract separately; the SIMD kernels use elementwise
//!   multiply/add/subtract, which round identically per IEEE-754 lane.
//! - Complex products follow [`Complex`]'s exact expression order
//!   (`re·re − im·im`, `re·im + im·re`) using one rounding per `·`, `+`,
//!   `−` — `_mm256_addsub_pd` gives the same single-rounded results as
//!   the scalar `−`/`+`.
//! - Scattered accumulation (`out[slot] += v` with possibly repeated
//!   slots) is **inherently order-dependent**, and no AVX2 scatter
//!   instruction exists anyway, so the scattered adds always run in scalar
//!   program order on every backend; SIMD only prepares the products
//!   feeding them. `scatter_add`/`scatter_add_uniform` (pure `f64`
//!   scatters with no arithmetic to hoist) therefore use the shared scalar
//!   kernel on all backends by design.
//!
//! # Dispatch
//!
//! [`backend`] detects the instruction set once (`is_x86_feature_detected!`
//! cached in a [`OnceLock`]) and honours the `ADC_FORCE_SCALAR` environment
//! variable (any non-empty value other than `0` forces the scalar oracle) —
//! the CI leg that keeps the fallback path from rotting.

use crate::complex::Complex;
use std::sync::OnceLock;

/// Maximum lane count of the batched factor/solve workspaces
/// ([`crate::sparse::CSparseLuBatch`]): wide enough to fill an AVX2 vector
/// twice, small enough that a chain-sized factor batch stays cache-resident.
pub const MAX_LANES: usize = 8;

/// The instruction-set backend the kernels dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar 4-lane loops — the bit-compared oracle.
    Scalar,
    /// AVX2 256-bit kernels (x86_64, runtime-detected).
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

static BACKEND: OnceLock<Backend> = OnceLock::new();

fn detect() -> Backend {
    if std::env::var_os("ADC_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0") {
        return Backend::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return Backend::Avx2;
    }
    Backend::Scalar
}

/// The active backend, detected once per process (`ADC_FORCE_SCALAR`
/// respected at first use).
#[inline]
pub fn backend() -> Backend {
    *BACKEND.get_or_init(detect)
}

/// Human-readable backend name (benchmark/CI reporting).
pub fn backend_name() -> &'static str {
    match backend() {
        Backend::Scalar => "scalar",
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => "avx2",
    }
}

/// Lane count a `k`-sample batch should be padded to (by duplicating a
/// sample) so the batched row kernels dispatch to full vector groups
/// instead of the scalar fallback: the next multiple of 4 on AVX2. Lanes
/// compute independently, so padding never changes a real lane's bits.
/// The scalar backend gains nothing from alignment and keeps `k`.
pub fn padded_lanes(k: usize) -> usize {
    debug_assert!((1..=MAX_LANES).contains(&k));
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => k.next_multiple_of(4).min(MAX_LANES),
        _ => k,
    }
}

// ---------------------------------------------------------------------------
// Scattered stamp replay.
// ---------------------------------------------------------------------------

/// Accumulates `vals[k]` into `out[slots[k]]` for every `k`, in order —
/// the one shared scatter kernel behind the real Newton Jacobian's stamp
/// replay (dense row-major or CSR value arrays) and, product formation
/// aside, [`scatter_add_scaled`]. Scattered `+=` with repeatable slots is
/// order-dependent and has no AVX2 scatter instruction, so this runs the
/// scalar 4-lane loop on every backend; it exists here so the replay
/// shape lives in exactly one place.
///
/// # Panics
/// Panics if `slots` and `vals` differ in length or a slot is out of range.
pub fn scatter_add(out: &mut [f64], slots: &[usize], vals: &[f64]) {
    assert_eq!(slots.len(), vals.len(), "slot/value length mismatch");
    let mut s4 = slots.chunks_exact(4);
    let mut v4 = vals.chunks_exact(4);
    for (s, v) in (&mut s4).zip(&mut v4) {
        out[s[0]] += v[0];
        out[s[1]] += v[1];
        out[s[2]] += v[2];
        out[s[3]] += v[3];
    }
    for (&s, &v) in s4.remainder().iter().zip(v4.remainder()) {
        out[s] += v;
    }
}

/// Accumulates the constant `v` into every `out[slot]` (the g_min
/// node-diagonal replay), chunked like [`scatter_add`].
///
/// # Panics
/// Panics if a slot is out of range.
pub fn scatter_add_uniform(out: &mut [f64], slots: &[usize], v: f64) {
    let mut s4 = slots.chunks_exact(4);
    for s in &mut s4 {
        out[s[0]] += v;
        out[s[1]] += v;
        out[s[2]] += v;
        out[s[3]] += v;
    }
    for &s in s4.remainder() {
        out[s] += v;
    }
}

/// Accumulates `s · vals[k]` into `out[slots[k]]` for every `k` — the
/// per-sample replay of `s`-scaled capacitive entries. The complex products
/// (`s.re·v`, `s.im·v`) are formed SIMD-wide per 4-lane block; the scattered
/// accumulation stays in scalar program order (slots may repeat).
///
/// # Panics
/// Panics if `slots` and `vals` differ in length or a slot is out of range.
pub fn scatter_add_scaled(out: &mut [Complex], slots: &[usize], vals: &[f64], s: Complex) {
    assert_eq!(slots.len(), vals.len(), "slot/value length mismatch");
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Backend::Avx2` is only returned when AVX2 was detected.
        Backend::Avx2 => unsafe { avx2::scatter_add_scaled(out, slots, vals, s) },
        Backend::Scalar => scatter_add_scaled_scalar(out, slots, vals, s),
    }
}

/// Scalar oracle for [`scatter_add_scaled`] — the original 4-lane kernel,
/// kept verbatim.
pub fn scatter_add_scaled_scalar(out: &mut [Complex], slots: &[usize], vals: &[f64], s: Complex) {
    let mut s4 = slots.chunks_exact(4);
    let mut v4 = vals.chunks_exact(4);
    for (sl, v) in (&mut s4).zip(&mut v4) {
        let prod = [s * v[0], s * v[1], s * v[2], s * v[3]];
        out[sl[0]] += prod[0];
        out[sl[1]] += prod[1];
        out[sl[2]] += prod[2];
        out[sl[3]] += prod[3];
    }
    for (&sl, &v) in s4.remainder().iter().zip(v4.remainder()) {
        out[sl] += s * v;
    }
}

// ---------------------------------------------------------------------------
// Dense LU inner row updates.
// ---------------------------------------------------------------------------

/// `dst[j] -= f · src[j]` — the dense real LU row elimination.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn axpy_sub(dst: &mut [f64], src: &[f64], f: f64) {
    assert_eq!(dst.len(), src.len(), "length mismatch");
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Backend::Avx2` is only returned when AVX2 was detected.
        Backend::Avx2 => unsafe { avx2::axpy_sub(dst, src, f) },
        Backend::Scalar => axpy_sub_scalar(dst, src, f),
    }
}

/// Scalar oracle for [`axpy_sub`].
pub fn axpy_sub_scalar(dst: &mut [f64], src: &[f64], f: f64) {
    for (d, &a) in dst.iter_mut().zip(src) {
        *d -= f * a;
    }
}

/// `dst[j] -= f · src[j]` (complex) — the dense complex LU row elimination.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn caxpy_sub(dst: &mut [Complex], src: &[Complex], f: Complex) {
    assert_eq!(dst.len(), src.len(), "length mismatch");
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Backend::Avx2` is only returned when AVX2 was detected.
        Backend::Avx2 => unsafe { avx2::caxpy_sub(dst, src, f) },
        Backend::Scalar => caxpy_sub_scalar(dst, src, f),
    }
}

/// Scalar oracle for [`caxpy_sub`].
pub fn caxpy_sub_scalar(dst: &mut [Complex], src: &[Complex], f: Complex) {
    for (d, &a) in dst.iter_mut().zip(src) {
        *d -= f * a;
    }
}

// ---------------------------------------------------------------------------
// Batched (struct-of-arrays) complex lanes.
// ---------------------------------------------------------------------------

/// Lane-wise complex division over split re/im arrays:
/// `q[l] = a[l] / b[l]` with results bit-identical to [`Complex`]'s `Div`
/// (Smith's algorithm) per lane — the multiplier/pivot division of the
/// batched sparse complex factor/solve, where per-lane scalar divides
/// otherwise dominate the factor cost.
///
/// The vector form evaluates **one** op sequence for both Smith branches by
/// blending *operands* instead of branching: with `mask = |br| ≥ |bi|`
/// (false on NaN, like the scalar `>=`), `r`'s numerator/denominator, `d`'s
/// addends, and the output numerators are per-lane operand selections such
/// that each lane performs exactly the rounded ops its scalar branch would
/// (using `x + y·r ≡ y·r + x` commutativity where the branches write the
/// sum in opposite order; the non-commutative imaginary-part subtraction is
/// computed both ways and result-blended). Exact-zero denominators
/// (`br == 0 && bi == 0`, where the scalar code divides by literal `+0.0`)
/// are patched per lane with the scalar expression.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn lane_cdiv(qr: &mut [f64], qi: &mut [f64], ar: &[f64], ai: &[f64], br: &[f64], bi: &[f64]) {
    let n = qr.len();
    assert!(
        qi.len() == n && ar.len() == n && ai.len() == n && br.len() == n && bi.len() == n,
        "lane length mismatch"
    );
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Backend::Avx2` is only returned when AVX2 was detected.
        Backend::Avx2 => unsafe { avx2::lane_cdiv(qr, qi, ar, ai, br, bi) },
        Backend::Scalar => lane_cdiv_scalar(qr, qi, ar, ai, br, bi),
    }
}

/// Scalar oracle for [`lane_cdiv`] — per-lane [`Complex`] division.
pub fn lane_cdiv_scalar(
    qr: &mut [f64],
    qi: &mut [f64],
    ar: &[f64],
    ai: &[f64],
    br: &[f64],
    bi: &[f64],
) {
    for l in 0..qr.len() {
        let q = Complex::new(ar[l], ai[l]) / Complex::new(br[l], bi[l]);
        qr[l] = q.re;
        qi[l] = q.im;
    }
}

// ---------------------------------------------------------------------------
// Batched sparse LU kernels (one dispatch per factor or solve).
//
// A lane kernel per *nonzero* would cost a dispatch + call each, which at
// 8 lanes × a handful of flops swamps the arithmetic. These fused kernels
// move every row loop (division included) behind one dispatch so the
// multiplier lanes stay in registers across a row.
//
// All offsets address the batch workspaces' position-major, lane-minor
// layout: lane `l` of factor position `p` lives at `p·lanes + l`.
// ---------------------------------------------------------------------------

/// Shared pivot acceptance test of the batched factor: fails a lane iff
/// the serial check `pivot.norm() < tol` would, using the cheap component
/// screen first (a component beyond `2·tol` proves the norm ≥ `tol`
/// without the hypot). Returns the failing lane's exact pivot magnitude.
#[inline]
fn pivot_fail(f_re: &[f64], f_im: &[f64], dp: usize, lanes: usize, tol: f64) -> Option<f64> {
    for l in 0..lanes {
        let (re, im) = (f_re[dp + l], f_im[dp + l]);
        if !(re.abs() > 2.0 * tol || im.abs() > 2.0 * tol) {
            let m = re.hypot(im);
            if m < tol {
                return Some(m);
            }
        }
    }
    None
}

/// Batched assembly of `Y(s_l) = base + s_l·C` into lane-strided factor
/// storage: broadcast `0.0 + base[k]` at scattered base positions,
/// explicit zeros at the fill-in positions, then the `s`-scaled cap
/// entries accumulated per lane in entry order — exactly the serial
/// `fill(ZERO)` + `+=` + `scatter_add_scaled` result per lane.
///
/// # Panics
/// Panics (via slice indexing) if the scatter maps and lane storage are
/// inconsistent or `s_re`/`s_im` are shorter than `lanes`.
#[allow(clippy::too_many_arguments)]
pub fn lane_assemble(
    f_re: &mut [f64],
    f_im: &mut [f64],
    base: &[Complex],
    scatter: &[usize],
    fill_pos: &[usize],
    cap_slots: &[usize],
    cap_vals: &[f64],
    s_re: &[f64],
    s_im: &[f64],
    lanes: usize,
) {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Backend::Avx2` is only returned when AVX2 was detected.
        Backend::Avx2 if lanes % 4 == 0 => unsafe {
            avx2::lane_assemble(
                f_re, f_im, base, scatter, fill_pos, cap_slots, cap_vals, s_re, s_im, lanes,
            )
        },
        _ => lane_assemble_scalar(
            f_re, f_im, base, scatter, fill_pos, cap_slots, cap_vals, s_re, s_im, lanes,
        ),
    }
}

/// Scalar oracle for [`lane_assemble`].
#[allow(clippy::too_many_arguments)]
pub fn lane_assemble_scalar(
    f_re: &mut [f64],
    f_im: &mut [f64],
    base: &[Complex],
    scatter: &[usize],
    fill_pos: &[usize],
    cap_slots: &[usize],
    cap_vals: &[f64],
    s_re: &[f64],
    s_im: &[f64],
    lanes: usize,
) {
    for (k, &v) in base.iter().enumerate() {
        let p = scatter[k] * lanes;
        f_re[p..p + lanes].fill(0.0 + v.re);
        f_im[p..p + lanes].fill(0.0 + v.im);
    }
    for &fp in fill_pos {
        let p = fp * lanes;
        f_re[p..p + lanes].fill(0.0);
        f_im[p..p + lanes].fill(0.0);
    }
    for (&slot, &c) in cap_slots.iter().zip(cap_vals) {
        let p = scatter[slot] * lanes;
        for (d, &sr) in f_re[p..p + lanes].iter_mut().zip(&s_re[..lanes]) {
            *d += sr * c;
        }
        for (d, &si) in f_im[p..p + lanes].iter_mut().zip(&s_im[..lanes]) {
            *d += si * c;
        }
    }
}

/// Batched level tests `|num(jω)/den(jω)| <= level` of a real-coefficient
/// rational function at `s = j·2π·f` for each frequency in `freqs_hz`,
/// written to `out`. Each lane reproduces the serial Horner evaluation
/// and Smith division (exact-zero denominators included) bit-for-bit and
/// ends in [`Complex::norm_le`], so log-grid magnitude scans can batch
/// points without perturbing the crossing they find.
///
/// # Panics
/// Panics if `out` is shorter than `freqs_hz`.
pub fn rational_le(num: &[f64], den: &[f64], freqs_hz: &[f64], level: f64, out: &mut [bool]) {
    assert!(out.len() >= freqs_hz.len(), "output shorter than input");
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Backend::Avx2` is only returned when AVX2 was detected.
        Backend::Avx2 => unsafe { avx2::rational_le(num, den, freqs_hz, level, out) },
        _ => rational_le_scalar(num, den, freqs_hz, level, out),
    }
}

/// Scalar oracle for [`rational_le`]: exactly the serial
/// `(num.eval_complex(jω) / den.eval_complex(jω)).norm_le(level)` per
/// point.
pub fn rational_le_scalar(
    num: &[f64],
    den: &[f64],
    freqs_hz: &[f64],
    level: f64,
    out: &mut [bool],
) {
    for (o, &f) in out.iter_mut().zip(freqs_hz) {
        let z = Complex::new(0.0, 2.0 * std::f64::consts::PI * f);
        let n = num.iter().rev().fold(Complex::ZERO, |acc, &c| acc * z + c);
        let d = den.iter().rev().fold(Complex::ZERO, |acc, &c| acc * z + c);
        *o = (n / d).norm_le(level);
    }
}

/// The complete batched up-looking elimination over every row, in place
/// in the factor storage via the precomputed elimination schedule
/// (`e_target` maps each update entry of an eliminating row `j` to its
/// position within the row being built — no scatter workspace, no copy
/// in/out), behind **one** dispatch. Returns the first `(step, pivot
/// magnitude)` failing the tolerance, deciding exactly as the serial
/// per-lane `norm() < tol` check would.
///
/// # Panics
/// Panics (via slice indexing) if the symbolic arrays and lane storage
/// are inconsistent.
#[allow(clippy::too_many_arguments)]
pub fn lane_factor_rows(
    f_re: &mut [f64],
    f_im: &mut [f64],
    f_row_ptr: &[usize],
    f_col: &[usize],
    f_diag: &[usize],
    e_target: &[usize],
    lanes: usize,
    tol: f64,
) -> Option<(usize, f64)> {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Backend::Avx2` is only returned when AVX2 was detected.
        Backend::Avx2 if lanes % 4 == 0 => unsafe {
            avx2::lane_factor_rows(f_re, f_im, f_row_ptr, f_col, f_diag, e_target, lanes, tol)
        },
        _ => lane_factor_rows_scalar(f_re, f_im, f_row_ptr, f_col, f_diag, e_target, lanes, tol),
    }
}

/// Scalar oracle for [`lane_factor_rows`].
#[allow(clippy::too_many_arguments)]
// `pos` walks a CSR span and is also needed as `pos * lanes`; an
// enumerate rewrite would obscure the indexing contract.
#[allow(clippy::needless_range_loop)]
pub fn lane_factor_rows_scalar(
    f_re: &mut [f64],
    f_im: &mut [f64],
    f_row_ptr: &[usize],
    f_col: &[usize],
    f_diag: &[usize],
    e_target: &[usize],
    lanes: usize,
    tol: f64,
) -> Option<(usize, f64)> {
    let n = f_diag.len();
    let mut cur = 0usize;
    for i in 0..n {
        for pos in f_row_ptr[i]..f_diag[i] {
            let j = f_col[pos];
            let (d, e) = (f_diag[j] + 1, f_row_ptr[j + 1]);
            let pm = pos * lanes;
            let dpm = f_diag[j] * lanes;
            // Multiplier lanes in place: exactly the scalar operator's
            // Smith division, stored where the L value lives.
            for l in 0..lanes {
                let q = Complex::new(f_re[pm + l], f_im[pm + l])
                    / Complex::new(f_re[dpm + l], f_im[dpm + l]);
                f_re[pm + l] = q.re;
                f_im[pm + l] = q.im;
            }
            for (q, &t) in (d..e).zip(&e_target[cur..cur + (e - d)]) {
                let qm = q * lanes;
                let tm = t * lanes;
                for l in 0..lanes {
                    let pr = f_re[pm + l] * f_re[qm + l] - f_im[pm + l] * f_im[qm + l];
                    let pi = f_re[pm + l] * f_im[qm + l] + f_im[pm + l] * f_re[qm + l];
                    f_re[tm + l] -= pr;
                    f_im[tm + l] -= pi;
                }
            }
            cur += e - d;
        }
        if let Some(pm) = pivot_fail(f_re, f_im, f_diag[i] * lanes, lanes, tol) {
            return Some((i, pm));
        }
    }
    None
}

/// The complete batched forward substitution (`L y = P_r b`, unit
/// diagonal) behind one dispatch, one forward-substitution row per `i`.
///
/// # Panics
/// Panics (via slice indexing) if the symbolic arrays and lane storage
/// are inconsistent.
#[allow(clippy::too_many_arguments)]
pub fn lane_fwd_all(
    y_re: &mut [f64],
    y_im: &mut [f64],
    b: &[Complex],
    row_perm: &[usize],
    f_row_ptr: &[usize],
    f_col: &[usize],
    f_diag: &[usize],
    f_re: &[f64],
    f_im: &[f64],
    lanes: usize,
) {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Backend::Avx2` is only returned when AVX2 was detected.
        Backend::Avx2 if lanes % 4 == 0 => unsafe {
            avx2::lane_fwd_all(
                y_re, y_im, b, row_perm, f_row_ptr, f_col, f_diag, f_re, f_im, lanes,
            )
        },
        _ => lane_fwd_all_scalar(
            y_re, y_im, b, row_perm, f_row_ptr, f_col, f_diag, f_re, f_im, lanes,
        ),
    }
}

/// Scalar oracle for [`lane_fwd_all`].
#[allow(clippy::too_many_arguments)]
pub fn lane_fwd_all_scalar(
    y_re: &mut [f64],
    y_im: &mut [f64],
    b: &[Complex],
    row_perm: &[usize],
    f_row_ptr: &[usize],
    f_col: &[usize],
    f_diag: &[usize],
    f_re: &[f64],
    f_im: &[f64],
    lanes: usize,
) {
    for i in 0..f_diag.len() {
        let bv = b[row_perm[i]];
        let (start, d) = (f_row_ptr[i], f_diag[i]);
        lane_fwd_row_scalar(
            y_re,
            y_im,
            i * lanes,
            bv.re,
            bv.im,
            &f_col[start..d],
            start * lanes,
            f_re,
            f_im,
            lanes,
        );
    }
}

/// The complete batched back substitution (`U x' = y`, pivot division per
/// row) behind one dispatch, one back-substitution row per `i`. Pivots
/// passed the factor's singularity check, so exact-zero divisors are
/// unreachable.
///
/// # Panics
/// Panics (via slice indexing) if the symbolic arrays and lane storage
/// are inconsistent.
#[allow(clippy::too_many_arguments)]
pub fn lane_bwd_all(
    y_re: &mut [f64],
    y_im: &mut [f64],
    f_row_ptr: &[usize],
    f_col: &[usize],
    f_diag: &[usize],
    f_re: &[f64],
    f_im: &[f64],
    lanes: usize,
) {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Backend::Avx2` is only returned when AVX2 was detected.
        Backend::Avx2 if lanes % 4 == 0 => unsafe {
            avx2::lane_bwd_all(y_re, y_im, f_row_ptr, f_col, f_diag, f_re, f_im, lanes)
        },
        _ => lane_bwd_all_scalar(y_re, y_im, f_row_ptr, f_col, f_diag, f_re, f_im, lanes),
    }
}

/// Scalar oracle for [`lane_bwd_all`].
#[allow(clippy::too_many_arguments)]
pub fn lane_bwd_all_scalar(
    y_re: &mut [f64],
    y_im: &mut [f64],
    f_row_ptr: &[usize],
    f_col: &[usize],
    f_diag: &[usize],
    f_re: &[f64],
    f_im: &[f64],
    lanes: usize,
) {
    for i in (0..f_diag.len()).rev() {
        let (d, e) = (f_diag[i], f_row_ptr[i + 1]);
        lane_bwd_row_scalar(
            y_re,
            y_im,
            i * lanes,
            &f_col[d + 1..e],
            (d + 1) * lanes,
            d * lanes,
            f_re,
            f_im,
            lanes,
        );
    }
}

/// One batched forward-substitution row of [`lane_fwd_all_scalar`]:
/// initializes `y[i]` to the broadcast right-hand side, then applies
/// `y[i] -= L_i[c_q] · y[c_q]` over row `i`'s lower entries (`c_q < i`).
/// `im` is `i·lanes` in `y`; `p0` the offset of `cols[0]`'s values in `f`.
#[allow(clippy::too_many_arguments)]
fn lane_fwd_row_scalar(
    y_re: &mut [f64],
    y_im: &mut [f64],
    im: usize,
    b_re: f64,
    b_im: f64,
    cols: &[usize],
    p0: usize,
    f_re: &[f64],
    f_im: &[f64],
    lanes: usize,
) {
    for l in 0..lanes {
        y_re[im + l] = b_re;
        y_im[im + l] = b_im;
    }
    for (q, &c) in cols.iter().enumerate() {
        let cm = c * lanes;
        let p = p0 + q * lanes;
        for l in 0..lanes {
            let pr = f_re[p + l] * y_re[cm + l] - f_im[p + l] * y_im[cm + l];
            let pi = f_re[p + l] * y_im[cm + l] + f_im[p + l] * y_re[cm + l];
            y_re[im + l] -= pr;
            y_im[im + l] -= pi;
        }
    }
}

/// One batched back-substitution row of [`lane_bwd_all_scalar`]: applies
/// `y[i] -= U_i[c_q] · y[c_q]` over row `i`'s upper entries (`c_q > i`),
/// then divides by the pivot `U_ii` per lane (Smith division). `im` is
/// `i·lanes` in `y`, `p0` the offset of `cols[0]`'s values and `dp` the
/// pivot offset in `f`.
#[allow(clippy::too_many_arguments)]
fn lane_bwd_row_scalar(
    y_re: &mut [f64],
    y_im: &mut [f64],
    im: usize,
    cols: &[usize],
    p0: usize,
    dp: usize,
    f_re: &[f64],
    f_im: &[f64],
    lanes: usize,
) {
    for (q, &c) in cols.iter().enumerate() {
        let cm = c * lanes;
        let p = p0 + q * lanes;
        for l in 0..lanes {
            let pr = f_re[p + l] * y_re[cm + l] - f_im[p + l] * y_im[cm + l];
            let pi = f_re[p + l] * y_im[cm + l] + f_im[p + l] * y_re[cm + l];
            y_re[im + l] -= pr;
            y_im[im + l] -= pi;
        }
    }
    for l in 0..lanes {
        let q = Complex::new(y_re[im + l], y_im[im + l]) / Complex::new(f_re[dp + l], f_im[dp + l]);
        y_re[im + l] = q.re;
        y_im[im + l] = q.im;
    }
}

// ---------------------------------------------------------------------------
// AVX2 kernels (x86_64).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use crate::complex::Complex;
    use core::arch::x86_64::*;

    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_sub(dst: &mut [f64], src: &[f64], f: f64) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let fv = _mm256_set1_pd(f);
        let mut i = 0usize;
        while i + 4 <= n {
            let s = _mm256_loadu_pd(sp.add(i));
            let d = _mm256_loadu_pd(dp.add(i));
            let p = _mm256_mul_pd(fv, s);
            _mm256_storeu_pd(dp.add(i), _mm256_sub_pd(d, p));
            i += 4;
        }
        while i < n {
            *dp.add(i) -= f * *sp.add(i);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn caxpy_sub(dst: &mut [Complex], src: &[Complex], f: Complex) {
        let n = dst.len();
        // Complex is #[repr(C)] { re, im }: interleaved [re, im, re, im].
        let dp = dst.as_mut_ptr().cast::<f64>();
        let sp = src.as_ptr().cast::<f64>();
        let fre = _mm256_set1_pd(f.re);
        let fim = _mm256_set1_pd(f.im);
        let mut i = 0usize;
        while i + 2 <= n {
            let v = _mm256_loadu_pd(sp.add(2 * i)); // [r0, i0, r1, i1]
            let t1 = _mm256_mul_pd(fre, v); // [fre·r0, fre·i0, ...]
            let vs = _mm256_permute_pd(v, 0b0101); // [i0, r0, i1, r1]
            let t2 = _mm256_mul_pd(fim, vs); // [fim·i0, fim·r0, ...]
                                             // [t1₀−t2₀, t1₁+t2₁, ...] = [fre·r−fim·i, fre·i+fim·r, ...]:
                                             // single-rounded, exactly Complex::mul.
            let prod = _mm256_addsub_pd(t1, t2);
            let d = _mm256_loadu_pd(dp.add(2 * i));
            _mm256_storeu_pd(dp.add(2 * i), _mm256_sub_pd(d, prod));
            i += 2;
        }
        while i < n {
            let d = &mut *dst.as_mut_ptr().add(i);
            *d -= f * *src.as_ptr().add(i);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn scatter_add_scaled(
        out: &mut [Complex],
        slots: &[usize],
        vals: &[f64],
        s: Complex,
    ) {
        let n = vals.len();
        let sre = _mm256_set1_pd(s.re);
        let sim = _mm256_set1_pd(s.im);
        let mut pre = [0.0f64; 4];
        let mut pim = [0.0f64; 4];
        let mut k = 0usize;
        while k + 4 <= n {
            let v = _mm256_loadu_pd(vals.as_ptr().add(k));
            _mm256_storeu_pd(pre.as_mut_ptr(), _mm256_mul_pd(sre, v));
            _mm256_storeu_pd(pim.as_mut_ptr(), _mm256_mul_pd(sim, v));
            // Scattered accumulation in program order (slots may repeat).
            for lane in 0..4 {
                let o = out.get_unchecked_mut(*slots.get_unchecked(k + lane));
                o.re += pre[lane];
                o.im += pim[lane];
            }
            k += 4;
        }
        while k < n {
            let v = *vals.get_unchecked(k);
            let o = out.get_unchecked_mut(*slots.get_unchecked(k));
            *o += s * v;
            k += 1;
        }
    }

    /// Four-lane Smith division `(ar + i·ai) / (br + i·bi)`, bit-identical
    /// per lane to `Complex::div`'s branchy scalar code by blending
    /// *operands* on the branch predicate `|br| ≥ |bi|` (one rounded op
    /// sequence serves both branches; addition operand order commutes
    /// bitwise, the non-commutative imaginary subtraction is computed both
    /// ways and result-blended). Does **not** reproduce the exact-zero
    /// short-circuit — callers either exclude exact-zero denominators
    /// (factored pivots) or patch those lanes afterwards.
    #[inline(always)]
    unsafe fn smith4(ar: __m256d, ai: __m256d, br: __m256d, bi: __m256d) -> (__m256d, __m256d) {
        let abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fff_ffff_ffff_ffffu64 as i64));
        // Ordered ≥: false on NaN, exactly like the scalar `>=`; all-ones
        // selects the "A" (|br| ≥ |bi|) operands in the blends below.
        let mask =
            _mm256_cmp_pd::<_CMP_GE_OQ>(_mm256_and_pd(br, abs_mask), _mm256_and_pd(bi, abs_mask));
        // r = (A: bi/br, B: br/bi)
        let num = _mm256_blendv_pd(br, bi, mask);
        let den = _mm256_blendv_pd(bi, br, mask);
        let r = _mm256_div_pd(num, den);
        // d = (A: br + bi·r, B: br·r + bi ≡ bi + br·r)
        let d = _mm256_add_pd(den, _mm256_mul_pd(num, r));
        // sel_a = (A: ar, B: ai), sel_b = (A: ai, B: ar)
        let sel_a = _mm256_blendv_pd(ai, ar, mask);
        let sel_b = _mm256_blendv_pd(ar, ai, mask);
        // num_re = (A: ar + ai·r, B: ar·r + ai ≡ ai + ar·r)
        let num_re = _mm256_add_pd(sel_a, _mm256_mul_pd(sel_b, r));
        // num_im = (A: ai − ar·r, B: ai·r − ar), result-blended.
        let t = _mm256_mul_pd(sel_a, r);
        let u = _mm256_sub_pd(ai, t);
        let v = _mm256_sub_pd(t, ar);
        let num_im = _mm256_blendv_pd(v, u, mask);
        (_mm256_div_pd(num_re, d), _mm256_div_pd(num_im, d))
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn lane_cdiv(
        qr: &mut [f64],
        qi: &mut [f64],
        ar: &[f64],
        ai: &[f64],
        br: &[f64],
        bi: &[f64],
    ) {
        let n = qr.len();
        let zero = _mm256_setzero_pd();
        let mut l = 0usize;
        while l + 4 <= n {
            let var = _mm256_loadu_pd(ar.as_ptr().add(l));
            let vai = _mm256_loadu_pd(ai.as_ptr().add(l));
            let vbr = _mm256_loadu_pd(br.as_ptr().add(l));
            let vbi = _mm256_loadu_pd(bi.as_ptr().add(l));
            let (q_re, q_im) = smith4(var, vai, vbr, vbi);
            _mm256_storeu_pd(qr.as_mut_ptr().add(l), q_re);
            _mm256_storeu_pd(qi.as_mut_ptr().add(l), q_im);
            // Exact-zero denominators short-circuit in the scalar code
            // (divide by literal +0.0); patch those lanes to match.
            let zmask = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_EQ_OQ>(vbr, zero),
                _mm256_cmp_pd::<_CMP_EQ_OQ>(vbi, zero),
            );
            let zm = _mm256_movemask_pd(zmask);
            if zm != 0 {
                for lane in 0..4 {
                    if zm & (1 << lane) != 0 {
                        qr[l + lane] = ar[l + lane] / 0.0;
                        qi[l + lane] = ai[l + lane] / 0.0;
                    }
                }
            }
            l += 4;
        }
        while l < n {
            let q = Complex::new(ar[l], ai[l]) / Complex::new(br[l], bi[l]);
            qr[l] = q.re;
            qi[l] = q.im;
            l += 1;
        }
    }

    /// One forward-substitution row of [`lane_fwd_all`], accumulator
    /// lanes held in registers.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn lane_fwd_row(
        y_re: &mut [f64],
        y_im: &mut [f64],
        im: usize,
        b_re: f64,
        b_im: f64,
        cols: &[usize],
        p0: usize,
        f_re: &[f64],
        f_im: &[f64],
        lanes: usize,
    ) {
        debug_assert!(lanes % 4 == 0 && lanes <= super::MAX_LANES);
        let groups = lanes / 4;
        let mut accr = [_mm256_set1_pd(b_re); super::MAX_LANES / 4];
        let mut acci = [_mm256_set1_pd(b_im); super::MAX_LANES / 4];
        for (q, &c) in cols.iter().enumerate() {
            let cm = c * lanes;
            let p = p0 + q * lanes;
            for g in 0..groups {
                let o = 4 * g;
                let ar = _mm256_loadu_pd(f_re[p + o..p + o + 4].as_ptr());
                let ai = _mm256_loadu_pd(f_im[p + o..p + o + 4].as_ptr());
                let br = _mm256_loadu_pd(y_re[cm + o..cm + o + 4].as_ptr());
                let bi = _mm256_loadu_pd(y_im[cm + o..cm + o + 4].as_ptr());
                let pr = _mm256_sub_pd(_mm256_mul_pd(ar, br), _mm256_mul_pd(ai, bi));
                let pi = _mm256_add_pd(_mm256_mul_pd(ar, bi), _mm256_mul_pd(ai, br));
                accr[g] = _mm256_sub_pd(accr[g], pr);
                acci[g] = _mm256_sub_pd(acci[g], pi);
            }
        }
        for g in 0..groups {
            let o = 4 * g;
            _mm256_storeu_pd(y_re[im + o..im + o + 4].as_mut_ptr(), accr[g]);
            _mm256_storeu_pd(y_im[im + o..im + o + 4].as_mut_ptr(), acci[g]);
        }
    }

    /// One back-substitution row of [`lane_bwd_all`], accumulator lanes
    /// held in registers.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn lane_bwd_row(
        y_re: &mut [f64],
        y_im: &mut [f64],
        im: usize,
        cols: &[usize],
        p0: usize,
        dp: usize,
        f_re: &[f64],
        f_im: &[f64],
        lanes: usize,
    ) {
        debug_assert!(lanes % 4 == 0 && lanes <= super::MAX_LANES);
        let groups = lanes / 4;
        let mut accr = [_mm256_setzero_pd(); super::MAX_LANES / 4];
        let mut acci = [_mm256_setzero_pd(); super::MAX_LANES / 4];
        for g in 0..groups {
            let o = 4 * g;
            accr[g] = _mm256_loadu_pd(y_re[im + o..im + o + 4].as_ptr());
            acci[g] = _mm256_loadu_pd(y_im[im + o..im + o + 4].as_ptr());
        }
        for (q, &c) in cols.iter().enumerate() {
            let cm = c * lanes;
            let p = p0 + q * lanes;
            for g in 0..groups {
                let o = 4 * g;
                let ar = _mm256_loadu_pd(f_re[p + o..p + o + 4].as_ptr());
                let ai = _mm256_loadu_pd(f_im[p + o..p + o + 4].as_ptr());
                let br = _mm256_loadu_pd(y_re[cm + o..cm + o + 4].as_ptr());
                let bi = _mm256_loadu_pd(y_im[cm + o..cm + o + 4].as_ptr());
                let pr = _mm256_sub_pd(_mm256_mul_pd(ar, br), _mm256_mul_pd(ai, bi));
                let pi = _mm256_add_pd(_mm256_mul_pd(ar, bi), _mm256_mul_pd(ai, br));
                accr[g] = _mm256_sub_pd(accr[g], pr);
                acci[g] = _mm256_sub_pd(acci[g], pi);
            }
        }
        // Divide by the pivot (excludes exact zero — no patch needed).
        for g in 0..groups {
            let o = 4 * g;
            let pr = _mm256_loadu_pd(f_re[dp + o..dp + o + 4].as_ptr());
            let pi = _mm256_loadu_pd(f_im[dp + o..dp + o + 4].as_ptr());
            let (qr, qi) = smith4(accr[g], acci[g], pr, pi);
            _mm256_storeu_pd(y_re[im + o..im + o + 4].as_mut_ptr(), qr);
            _mm256_storeu_pd(y_im[im + o..im + o + 4].as_mut_ptr(), qi);
        }
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    #[allow(clippy::needless_range_loop)]
    pub unsafe fn lane_factor_rows(
        f_re: &mut [f64],
        f_im: &mut [f64],
        f_row_ptr: &[usize],
        f_col: &[usize],
        f_diag: &[usize],
        e_target: &[usize],
        lanes: usize,
        tol: f64,
    ) -> Option<(usize, f64)> {
        let n = f_diag.len();
        let groups = lanes / 4;
        let mut cur = 0usize;
        for i in 0..n {
            for pos in f_row_ptr[i]..f_diag[i] {
                let j = f_col[pos];
                let (d, e) = (f_diag[j] + 1, f_row_ptr[j + 1]);
                let pm = pos * lanes;
                let dpm = f_diag[j] * lanes;
                // Multiplier lanes in place (≤ 2 register pairs at
                // MAX_LANES = 8). Pivots exclude exact zero, so smith4
                // needs no patch.
                let mut fr = [_mm256_setzero_pd(); super::MAX_LANES / 4];
                let mut fi = [_mm256_setzero_pd(); super::MAX_LANES / 4];
                for g in 0..groups {
                    let o = 4 * g;
                    let wr = _mm256_loadu_pd(f_re[pm + o..pm + o + 4].as_ptr());
                    let wi = _mm256_loadu_pd(f_im[pm + o..pm + o + 4].as_ptr());
                    let pr = _mm256_loadu_pd(f_re[dpm + o..dpm + o + 4].as_ptr());
                    let pi = _mm256_loadu_pd(f_im[dpm + o..dpm + o + 4].as_ptr());
                    let (qr, qi) = smith4(wr, wi, pr, pi);
                    _mm256_storeu_pd(f_re[pm + o..pm + o + 4].as_mut_ptr(), qr);
                    _mm256_storeu_pd(f_im[pm + o..pm + o + 4].as_mut_ptr(), qi);
                    fr[g] = qr;
                    fi[g] = qi;
                }
                for (q, &t) in (d..e).zip(&e_target[cur..cur + (e - d)]) {
                    let qm = q * lanes;
                    let tm = t * lanes;
                    for g in 0..groups {
                        let o = 4 * g;
                        let br = _mm256_loadu_pd(f_re[qm + o..qm + o + 4].as_ptr());
                        let bi = _mm256_loadu_pd(f_im[qm + o..qm + o + 4].as_ptr());
                        let pr = _mm256_sub_pd(_mm256_mul_pd(fr[g], br), _mm256_mul_pd(fi[g], bi));
                        let pi = _mm256_add_pd(_mm256_mul_pd(fr[g], bi), _mm256_mul_pd(fi[g], br));
                        let dr = _mm256_loadu_pd(f_re[tm + o..tm + o + 4].as_ptr());
                        let di = _mm256_loadu_pd(f_im[tm + o..tm + o + 4].as_ptr());
                        _mm256_storeu_pd(
                            f_re[tm + o..tm + o + 4].as_mut_ptr(),
                            _mm256_sub_pd(dr, pr),
                        );
                        _mm256_storeu_pd(
                            f_im[tm + o..tm + o + 4].as_mut_ptr(),
                            _mm256_sub_pd(di, pi),
                        );
                    }
                }
                cur += e - d;
            }
            // Vector screen first: a lane whose |re| or |im| already
            // exceeds 2·tol cannot fail the |pivot| < tol test, so the
            // scalar per-lane check (hypot included) only runs when some
            // lane slips past — which decides exactly as it always does.
            let dp = f_diag[i] * lanes;
            let t2 = _mm256_set1_pd(2.0 * tol);
            let sign = _mm256_set1_pd(-0.0);
            let mut need = 0u32;
            for g in 0..groups {
                let o = 4 * g;
                let ar = _mm256_andnot_pd(sign, _mm256_loadu_pd(f_re[dp + o..dp + o + 4].as_ptr()));
                let ai = _mm256_andnot_pd(sign, _mm256_loadu_pd(f_im[dp + o..dp + o + 4].as_ptr()));
                let pass = _mm256_or_pd(
                    _mm256_cmp_pd::<_CMP_GT_OQ>(ar, t2),
                    _mm256_cmp_pd::<_CMP_GT_OQ>(ai, t2),
                );
                need |= ((!_mm256_movemask_pd(pass) as u32) & 0xF) << (4 * g);
            }
            if need != 0 {
                if let Some(pm) = super::pivot_fail(f_re, f_im, dp, lanes, tol) {
                    return Some((i, pm));
                }
            }
        }
        None
    }

    /// Batched `Y(s) = base + s·C` assembly into lane-strided storage:
    /// broadcast stores at base positions, zero stores at fill-ins, then
    /// the cap accumulation with the lane `s` vectors held in registers.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn lane_assemble(
        f_re: &mut [f64],
        f_im: &mut [f64],
        base: &[Complex],
        scatter: &[usize],
        fill_pos: &[usize],
        cap_slots: &[usize],
        cap_vals: &[f64],
        s_re: &[f64],
        s_im: &[f64],
        lanes: usize,
    ) {
        let groups = lanes / 4;
        for (k, &v) in base.iter().enumerate() {
            let p = scatter[k] * lanes;
            // `0.0 + v` in scalar first, so signed zeros match the
            // serial `fill(ZERO)` + `+=` result exactly.
            let vr = _mm256_set1_pd(0.0 + v.re);
            let vi = _mm256_set1_pd(0.0 + v.im);
            for g in 0..groups {
                let o = 4 * g;
                _mm256_storeu_pd(f_re[p + o..p + o + 4].as_mut_ptr(), vr);
                _mm256_storeu_pd(f_im[p + o..p + o + 4].as_mut_ptr(), vi);
            }
        }
        let z = _mm256_setzero_pd();
        for &fp in fill_pos {
            let p = fp * lanes;
            for g in 0..groups {
                let o = 4 * g;
                _mm256_storeu_pd(f_re[p + o..p + o + 4].as_mut_ptr(), z);
                _mm256_storeu_pd(f_im[p + o..p + o + 4].as_mut_ptr(), z);
            }
        }
        let mut sr = [_mm256_setzero_pd(); super::MAX_LANES / 4];
        let mut si = [_mm256_setzero_pd(); super::MAX_LANES / 4];
        for g in 0..groups {
            let o = 4 * g;
            sr[g] = _mm256_loadu_pd(s_re[o..o + 4].as_ptr());
            si[g] = _mm256_loadu_pd(s_im[o..o + 4].as_ptr());
        }
        for (&slot, &c) in cap_slots.iter().zip(cap_vals) {
            let p = scatter[slot] * lanes;
            let cv = _mm256_set1_pd(c);
            for g in 0..groups {
                let o = 4 * g;
                let dr = _mm256_loadu_pd(f_re[p + o..p + o + 4].as_ptr());
                let di = _mm256_loadu_pd(f_im[p + o..p + o + 4].as_ptr());
                // mul-then-add, never fused: identical to `d + s·c`.
                _mm256_storeu_pd(
                    f_re[p + o..p + o + 4].as_mut_ptr(),
                    _mm256_add_pd(dr, _mm256_mul_pd(sr[g], cv)),
                );
                _mm256_storeu_pd(
                    f_im[p + o..p + o + 4].as_mut_ptr(),
                    _mm256_add_pd(di, _mm256_mul_pd(si[g], cv)),
                );
            }
        }
    }

    /// Four-wide real-coefficient Horner at `z = jω`, kept as the explicit
    /// `(0, ω)` complex multiply (no algebraic simplification, so lane
    /// rounding matches the scalar fold).
    #[inline(always)]
    unsafe fn horner_jw4(coeffs: &[f64], zr: __m256d, zi: __m256d) -> (__m256d, __m256d) {
        let mut ar = _mm256_setzero_pd();
        let mut ai = _mm256_setzero_pd();
        for &c in coeffs.iter().rev() {
            let tr = _mm256_sub_pd(_mm256_mul_pd(ar, zr), _mm256_mul_pd(ai, zi));
            let ti = _mm256_add_pd(_mm256_mul_pd(ar, zi), _mm256_mul_pd(ai, zr));
            ar = _mm256_add_pd(tr, _mm256_set1_pd(c));
            ai = ti;
        }
        (ar, ai)
    }

    /// Four-wide rational level tests: Horner via [`horner_jw4`], Smith
    /// division, then per-lane `norm_le`. Exact-zero denominators are
    /// redone with the scalar `Complex` divide, which short-circuits them.
    #[target_feature(enable = "avx2")]
    pub unsafe fn rational_le(
        num: &[f64],
        den: &[f64],
        freqs_hz: &[f64],
        level: f64,
        out: &mut [bool],
    ) {
        let n = freqs_hz.len();
        let mut i = 0usize;
        while i + 4 <= n {
            let mut w = [0.0f64; 4];
            for (wl, &f) in w.iter_mut().zip(&freqs_hz[i..i + 4]) {
                *wl = 2.0 * std::f64::consts::PI * f;
            }
            let zi = _mm256_loadu_pd(w.as_ptr());
            let zr = _mm256_setzero_pd();
            let (nr, ni) = horner_jw4(num, zr, zi);
            let (dr, di) = horner_jw4(den, zr, zi);
            let (qr, qi) = smith4(nr, ni, dr, di);
            let (mut drb, mut dib, mut qrb, mut qib) =
                ([0.0f64; 4], [0.0f64; 4], [0.0f64; 4], [0.0f64; 4]);
            _mm256_storeu_pd(drb.as_mut_ptr(), dr);
            _mm256_storeu_pd(dib.as_mut_ptr(), di);
            _mm256_storeu_pd(qrb.as_mut_ptr(), qr);
            _mm256_storeu_pd(qib.as_mut_ptr(), qi);
            let (mut nrb, mut nib) = ([0.0f64; 4], [0.0f64; 4]);
            _mm256_storeu_pd(nrb.as_mut_ptr(), nr);
            _mm256_storeu_pd(nib.as_mut_ptr(), ni);
            for l in 0..4 {
                let q = if drb[l] == 0.0 && dib[l] == 0.0 {
                    Complex::new(nrb[l], nib[l]) / Complex::new(drb[l], dib[l])
                } else {
                    Complex::new(qrb[l], qib[l])
                };
                out[i + l] = q.norm_le(level);
            }
            i += 4;
        }
        super::rational_le_scalar(num, den, &freqs_hz[i..], level, &mut out[i..]);
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn lane_fwd_all(
        y_re: &mut [f64],
        y_im: &mut [f64],
        b: &[Complex],
        row_perm: &[usize],
        f_row_ptr: &[usize],
        f_col: &[usize],
        f_diag: &[usize],
        f_re: &[f64],
        f_im: &[f64],
        lanes: usize,
    ) {
        for i in 0..f_diag.len() {
            let bv = b[row_perm[i]];
            let (start, d) = (f_row_ptr[i], f_diag[i]);
            lane_fwd_row(
                y_re,
                y_im,
                i * lanes,
                bv.re,
                bv.im,
                &f_col[start..d],
                start * lanes,
                f_re,
                f_im,
                lanes,
            );
        }
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn lane_bwd_all(
        y_re: &mut [f64],
        y_im: &mut [f64],
        f_row_ptr: &[usize],
        f_col: &[usize],
        f_diag: &[usize],
        f_re: &[f64],
        f_im: &[f64],
        lanes: usize,
    ) {
        for i in (0..f_diag.len()).rev() {
            let (d, e) = (f_diag[i], f_row_ptr[i + 1]);
            lane_bwd_row(
                y_re,
                y_im,
                i * lanes,
                &f_col[d + 1..e],
                (d + 1) * lanes,
                d * lanes,
                f_re,
                f_im,
                lanes,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: f64) -> u64 {
        v.to_bits()
    }

    #[test]
    fn backend_name_is_consistent() {
        let b = backend();
        let name = backend_name();
        match b {
            Backend::Scalar => assert_eq!(name, "scalar"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => assert_eq!(name, "avx2"),
        }
        assert_eq!(backend(), b, "detection is cached");
    }

    #[test]
    fn axpy_sub_matches_scalar_bitwise() {
        for n in [0usize, 1, 3, 4, 7, 16, 33] {
            let src: Vec<f64> = (0..n).map(|i| (i as f64 * 0.731).sin() * 1e3).collect();
            let mut a: Vec<f64> = (0..n).map(|i| (i as f64 * 1.37).cos()).collect();
            let mut b = a.clone();
            let f = -0.62591;
            axpy_sub(&mut a, &src, f);
            axpy_sub_scalar(&mut b, &src, f);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(bits(*x), bits(*y), "n={n}");
            }
        }
    }

    #[test]
    fn caxpy_sub_matches_scalar_bitwise() {
        for n in [0usize, 1, 2, 3, 5, 8, 17] {
            let src: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.3).cos() * 1e-4))
                .collect();
            let mut a: Vec<Complex> = (0..n)
                .map(|i| Complex::new(1.0 + i as f64, -0.25 * i as f64))
                .collect();
            let mut b = a.clone();
            let f = Complex::new(0.37, -1.85);
            caxpy_sub(&mut a, &src, f);
            caxpy_sub_scalar(&mut b, &src, f);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(bits(x.re), bits(y.re), "n={n}");
                assert_eq!(bits(x.im), bits(y.im), "n={n}");
            }
        }
    }

    #[test]
    fn scatter_kernels_match_scalar_bitwise() {
        let slots: Vec<usize> = vec![0, 3, 1, 3, 2, 0, 4, 4, 1, 0, 2];
        let vals: Vec<f64> = (0..slots.len()).map(|k| 0.1 + k as f64 * 0.37).collect();
        let s = Complex::new(0.25, -1.5);

        let mut a = vec![Complex::ZERO; 5];
        let mut b = vec![Complex::ZERO; 5];
        scatter_add_scaled(&mut a, &slots, &vals, s);
        scatter_add_scaled_scalar(&mut b, &slots, &vals, s);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(bits(x.re), bits(y.re));
            assert_eq!(bits(x.im), bits(y.im));
        }
    }

    #[test]
    fn lane_cdiv_matches_scalar_bitwise() {
        // Mixed magnitudes exercise both Smith branches; lanes with exact
        // zero (±0), negative-zero and NaN denominators exercise the
        // short-circuit/unordered paths; 1e-310 exercises subnormals.
        let ar = [1.5, -2.0, 0.3, 1e120, -1e-310, 7.0, 0.0, 3.25, -0.5];
        let ai = [-0.25, 4.0, -1e-310, 2.5, 1e100, -0.125, 1.0, 0.0, 2.0];
        let br = [3.0, 1e-3, 0.0, -0.0, 1e-310, f64::NAN, 2.0, -4.0, 0.5];
        let bi = [0.5, -2e3, 0.0, 0.0, -2e-310, 1.0, f64::NAN, 1e-300, -0.5];
        let n = ar.len();
        for len in [0usize, 1, 2, 3, 4, 5, 7, n] {
            let mut qr1 = vec![0.0f64; len];
            let mut qi1 = vec![0.0f64; len];
            let mut qr2 = vec![0.0f64; len];
            let mut qi2 = vec![0.0f64; len];
            lane_cdiv(
                &mut qr1,
                &mut qi1,
                &ar[..len],
                &ai[..len],
                &br[..len],
                &bi[..len],
            );
            lane_cdiv_scalar(
                &mut qr2,
                &mut qi2,
                &ar[..len],
                &ai[..len],
                &br[..len],
                &bi[..len],
            );
            for l in 0..len {
                assert_eq!(bits(qr1[l]), bits(qr2[l]), "len={len} l={l} re");
                assert_eq!(bits(qi1[l]), bits(qi2[l]), "len={len} l={l} im");
            }
        }
        // And against the Complex operator directly.
        let mut qr = vec![0.0f64; n];
        let mut qi = vec![0.0f64; n];
        lane_cdiv(&mut qr, &mut qi, &ar, &ai, &br, &bi);
        for l in 0..n {
            let q = Complex::new(ar[l], ai[l]) / Complex::new(br[l], bi[l]);
            assert_eq!(bits(qr[l]), bits(q.re), "l={l} re");
            assert_eq!(bits(qi[l]), bits(q.im), "l={l} im");
        }
    }
}
