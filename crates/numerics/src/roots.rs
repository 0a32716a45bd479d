//! Polynomial root finding.
//!
//! The primary entry point is [`poly_roots`], an Aberth–Ehrlich simultaneous
//! iteration polished by a few Newton steps. Degrees 1 and 2 are solved in
//! closed form (with the numerically stable quadratic formula); the
//! iteration is used from degree 3 upward.
//!
//! Transfer functions from the DPI/SFG analysis have modest degree (≤ ~12)
//! but root magnitudes spread over decades, up to ~1e12 rad/s. The
//! iteration therefore starts on the circles of the coefficients' Newton
//! polygon (D. A. Bini, Numer. Algorithms 13, 1996): each edge `i → j` of
//! the upper convex hull of `(k, ln|a_k|)` puts `j − i` starts on the
//! circle of radius `(|a_i|/|a_j|)^(1/(j−i))`, near which that many roots
//! lie. The textbook start, one circle between Cauchy's bounds, needs ~23
//! sweeps per call on the degree 3–4 circuit polynomials and overflows
//! Horner's rule from degree 10 with poles near 1e12 rad/s; the polygon's
//! circles need ~5 sweeps.

use crate::complex::Complex;

/// Maximum Aberth iterations before declaring non-convergence (the best
/// iterate so far is still returned; circuit analysis treats this as a
/// degraded-accuracy result rather than a hard failure).
const MAX_ITER: usize = 200;

/// Convergence tolerance on the relative correction size.
const TOL: f64 = 1e-13;

/// Computes all complex roots of the polynomial with ascending real
/// coefficients `coeffs` (`coeffs[k]` multiplies `x^k`).
///
/// Leading and trailing zero coefficients are handled: trailing structural
/// zeros become roots at the origin; exactly zero leading coefficients
/// reduce the effective degree (a tiny nonzero one does not).
///
/// Returns an empty vector for constant or zero polynomials.
///
/// # Example
/// ```
/// use adc_numerics::roots::poly_roots;
/// let r = poly_roots(&[2.0, -3.0, 1.0]); // (x-1)(x-2)
/// assert_eq!(r.len(), 2);
/// ```
pub fn poly_roots(coeffs: &[f64]) -> Vec<Complex> {
    roots_with(coeffs, aberth)
}

/// Oracle for [`poly_roots`]: the same roots from the Aberth iteration
/// that decides every comparison through `hypot` norms. Kept so tests can
/// pin [`poly_roots`] to it bit for bit.
pub fn poly_roots_reference(coeffs: &[f64]) -> Vec<Complex> {
    roots_with(coeffs, aberth_reference)
}

/// [`poly_roots`] with the Aberth iteration used from degree 3 upward.
fn roots_with(coeffs: &[f64], aberth: fn(&[f64]) -> Vec<Complex>) -> Vec<Complex> {
    // Strip high-order zeros.
    let mut hi = coeffs.len();
    while hi > 0 && coeffs[hi - 1] == 0.0 {
        hi -= 1;
    }
    if hi <= 1 {
        return Vec::new();
    }
    // Roots at the origin from trailing (low-order) zeros.
    let mut lo = 0;
    while lo < hi && coeffs[lo] == 0.0 {
        lo += 1;
    }
    let mut out = vec![Complex::ZERO; lo];
    // Nonzero constant and leading coefficients from here on.
    let work = &coeffs[lo..hi];
    match work.len() {
        0 | 1 => {}
        2 => out.push(Complex::from_real(-work[0] / work[1])),
        3 => out.extend(quadratic_roots(work[0], work[1], work[2])),
        _ => out.extend(aberth(work)),
    }
    out
}

/// Numerically stable quadratic formula for `c + b x + a x²`.
pub fn quadratic_roots(c: f64, b: f64, a: f64) -> Vec<Complex> {
    debug_assert!(a != 0.0);
    let disc = b * b - 4.0 * a * c;
    if disc >= 0.0 {
        let sq = disc.sqrt();
        // q = -(b + sign(b)·sqrt(disc))/2 avoids cancellation.
        let q = -0.5 * (b + sq.copysign(if b == 0.0 { 1.0 } else { b }));
        if q == 0.0 {
            // b == 0 and c == 0: double root at origin.
            return vec![Complex::ZERO, Complex::ZERO];
        }
        vec![Complex::from_real(q / a), Complex::from_real(c / q)]
    } else {
        let re = -b / (2.0 * a);
        let im = (-disc).sqrt() / (2.0 * a);
        vec![Complex::new(re, im), Complex::new(re, -im)]
    }
}

/// Evaluates p and p' at `z` via one Horner pass.
fn eval_with_derivative(coeffs: &[f64], z: Complex) -> (Complex, Complex) {
    let mut p = Complex::ZERO;
    let mut dp = Complex::ZERO;
    for &c in coeffs.iter().rev() {
        dp = dp * z + p;
        p = p * z + c;
    }
    (p, dp)
}

/// Initial guesses on the Newton polygon's circles (module docs), `m`
/// per hull edge of length `m`.
fn initial_guesses(coeffs: &[f64]) -> Vec<Complex> {
    use std::f64::consts::PI;
    let n = coeffs.len() - 1;
    // Scan ascending k; the last hull point goes while it lies on or below
    // the chord from the point before it to the new one.
    let mut hull: Vec<(usize, f64)> = Vec::with_capacity(n + 1);
    for (k, &c) in coeffs.iter().enumerate() {
        if c == 0.0 {
            continue;
        }
        let y = c.abs().ln();
        while let [.., (i0, y0), (i1, y1)] = hull[..] {
            if (y1 - y0) * (k - i0) as f64 > (y - y0) * (i1 - i0) as f64 {
                break;
            }
            hull.pop();
        }
        hull.push((k, y));
    }
    // An irrational angular offset, turned further by each edge's start
    // index, keeps symmetric configurations from stalling the iteration.
    let mut z = Vec::with_capacity(n);
    for edge in hull.windows(2) {
        let ((i, yi), (j, yj)) = (edge[0], edge[1]);
        let m = j - i;
        let r = ((yi - yj) / m as f64).exp().clamp(1e-300, 1e300);
        for q in 0..m {
            let theta =
                2.0 * PI * (q as f64 + 0.354) / m as f64 + 2.0 * PI * i as f64 / n as f64 + 0.5;
            z.push(Complex::from_polar(r, theta));
        }
    }
    z
}

/// Aberth correction `newton / (1 − newton·Σ 1/(z_i − z_j))`, or plain
/// `newton` when `above` says the denominator's norm is not above 1e-300.
fn aberth_step(
    z: &[Complex],
    i: usize,
    newton: Complex,
    above: impl Fn(Complex) -> bool,
) -> Complex {
    // Subtract the repulsion of the other roots.
    let mut sum = Complex::ZERO;
    for (j, &zj) in z.iter().enumerate() {
        if j != i {
            let d = z[i] - zj;
            if d.norm_sqr() > 0.0 {
                sum += d.inv();
            }
        }
    }
    let denom = Complex::ONE - newton * sum;
    if above(denom) {
        newton / denom
    } else {
        newton
    }
}

/// Real-coefficient polynomials have conjugate root sets: snaps tiny
/// imaginary parts to zero.
fn snap_real(z: &mut [Complex]) {
    for zi in z.iter_mut() {
        if zi.im.abs() < 1e-9 * (1.0 + zi.re.abs()) {
            zi.im = 0.0;
        }
    }
}

/// Exactly `c.norm() > 0.0`: `hypot` is +∞ when either part is infinite
/// (even beside a NaN), NaN when a part is NaN and neither is infinite,
/// and otherwise positive unless both parts are zero.
fn norm_positive(c: Complex) -> bool {
    c.re.is_infinite() || c.im.is_infinite() || !(c.is_nan() || c.is_zero())
}

/// Exactly `c.norm() > 1e-300`. Without a NaN part, `hypot` is at least
/// the larger part less 1 ulp, so a part above 2e-300 settles it; every
/// other case asks `hypot`.
fn norm_above_tiny(c: Complex) -> bool {
    (!c.is_nan() && (c.re.abs() > 2e-300 || c.im.abs() > 2e-300)) || c.norm() > 1e-300
}

/// Aberth–Ehrlich simultaneous root refinement. Each comparison is an
/// exact stand-in for the `hypot` comparison [`aberth_reference`] makes,
/// and the convergence ratio is computed only while it can still matter,
/// so both return the same bits.
fn aberth(coeffs: &[f64]) -> Vec<Complex> {
    let n = coeffs.len() - 1;
    let mut z = initial_guesses(coeffs);

    for _ in 0..MAX_ITER {
        // The sweep converges when no relative step reaches TOL (a NaN
        // ratio never counts against it). Once one does, nothing later in
        // the sweep can undo that, so the remaining ratios are skipped.
        let mut converged = true;
        for i in 0..n {
            let (p, dp) = eval_with_derivative(coeffs, z[i]);
            if p.is_zero() {
                continue;
            }
            let newton = if norm_positive(dp) {
                p / dp
            } else {
                Complex::new(TOL, TOL)
            };
            let step = aberth_step(&z, i, newton, norm_above_tiny);
            z[i] -= step;
            if converged && step.norm() / (1.0 + z[i].norm()) >= TOL {
                converged = false;
            }
        }
        if converged {
            break;
        }
    }

    // Newton polish (helps multiple-ish roots settle).
    for zi in z.iter_mut() {
        for _ in 0..3 {
            let (p, dp) = eval_with_derivative(coeffs, *zi);
            if dp.is_zero() {
                break;
            }
            let step = p / dp;
            if !step.is_finite() || step.norm() < 1e-16 * (1.0 + zi.norm()) {
                break;
            }
            *zi -= step;
        }
    }
    snap_real(&mut z);
    z
}

/// The Aberth iteration behind [`poly_roots_reference`]: every decision
/// goes through `hypot`, and every sweep computes every ratio.
fn aberth_reference(coeffs: &[f64]) -> Vec<Complex> {
    let n = coeffs.len() - 1;
    let mut z = initial_guesses(coeffs);

    for _ in 0..MAX_ITER {
        let mut max_step = 0.0_f64;
        for i in 0..n {
            let (p, dp) = eval_with_derivative(coeffs, z[i]);
            if p.norm() == 0.0 {
                continue;
            }
            let newton = if dp.norm() > 0.0 {
                p / dp
            } else {
                Complex::new(TOL, TOL)
            };
            let step = aberth_step(&z, i, newton, |d| d.norm() > 1e-300);
            z[i] -= step;
            let rel = step.norm() / (1.0 + z[i].norm());
            if rel > max_step {
                max_step = rel;
            }
        }
        if max_step < TOL {
            break;
        }
    }

    for zi in z.iter_mut() {
        for _ in 0..3 {
            let (p, dp) = eval_with_derivative(coeffs, *zi);
            if dp.norm() == 0.0 {
                break;
            }
            let step = p / dp;
            if !step.is_finite() || step.norm() < 1e-16 * (1.0 + zi.norm()) {
                break;
            }
            *zi -= step;
        }
    }
    snap_real(&mut z);
    z
}

/// Sorts roots by (real part, imaginary part) — handy for deterministic
/// comparisons in tests and reports.
pub fn sort_roots(mut roots: Vec<Complex>) -> Vec<Complex> {
    roots.sort_by(|a, b| {
        a.re.partial_cmp(&b.re)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.im.partial_cmp(&b.im).unwrap_or(std::cmp::Ordering::Equal))
    });
    roots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::Poly;

    fn assert_root_set(coeffs: &[f64], expected: &[Complex], tol: f64) {
        let got = sort_roots(poly_roots(coeffs));
        let want = sort_roots(expected.to_vec());
        assert_eq!(
            got.len(),
            want.len(),
            "root count mismatch: {got:?} vs {want:?}"
        );
        for (g, w) in got.iter().zip(want.iter()) {
            assert!(
                (*g - *w).norm() < tol * (1.0 + w.norm()),
                "root {g} != expected {w} (all: {got:?})"
            );
        }
    }

    #[test]
    fn linear_and_constant() {
        assert!(poly_roots(&[5.0]).is_empty());
        assert!(poly_roots(&[]).is_empty());
        assert_root_set(&[2.0, 4.0], &[Complex::from_real(-0.5)], 1e-14);
    }

    #[test]
    fn quadratic_real_and_complex() {
        assert_root_set(
            &[2.0, -3.0, 1.0],
            &[Complex::from_real(1.0), Complex::from_real(2.0)],
            1e-12,
        );
        assert_root_set(
            &[5.0, 2.0, 1.0],
            &[Complex::new(-1.0, 2.0), Complex::new(-1.0, -2.0)],
            1e-12,
        );
    }

    #[test]
    fn quadratic_cancellation_resistant() {
        // x^2 - 1e8 x + 1 : roots ~1e8 and ~1e-8
        let r = sort_roots(poly_roots(&[1.0, -1e8, 1.0]));
        assert!((r[0].re - 1e-8).abs() < 1e-14);
        assert!((r[1].re - 1e8).abs() < 1.0);
    }

    #[test]
    fn cubic_known() {
        // (x-1)(x-2)(x-3) = -6 + 11x - 6x^2 + x^3
        assert_root_set(
            &[-6.0, 11.0, -6.0, 1.0],
            &[
                Complex::from_real(1.0),
                Complex::from_real(2.0),
                Complex::from_real(3.0),
            ],
            1e-9,
        );
    }

    #[test]
    fn widely_spread_circuit_poles() {
        // Poles at -1e4, -1e7, -1e9 (rad/s): typical OTA pole spread.
        let p = Poly::from_roots(&[-1e4, -1e7, -1e9]);
        let r = sort_roots(p.roots());
        let want = [-1e9, -1e7, -1e4];
        for (g, w) in r.iter().zip(want.iter()) {
            assert!((g.re - w).abs() < 1e-4 * w.abs(), "{} vs {}", g.re, w);
            assert!(g.im.abs() < 1e-3 * w.abs());
        }
    }

    #[test]
    fn roots_at_origin() {
        // x^2 (x+3)
        let r = sort_roots(poly_roots(&[0.0, 0.0, 3.0, 1.0]));
        assert_eq!(r.len(), 3);
        assert!((r[0].re + 3.0).abs() < 1e-9);
        assert!(r[1].norm() < 1e-12 && r[2].norm() < 1e-12);
    }

    #[test]
    fn conjugate_pair_with_real_root() {
        // (x+2)(x^2 + 2x + 10): roots -2, -1±3i
        let p = &Poly::from_roots(&[-2.0]) * &Poly::new(vec![10.0, 2.0, 1.0]);
        assert_root_set(
            p.coeffs(),
            &[
                Complex::from_real(-2.0),
                Complex::new(-1.0, 3.0),
                Complex::new(-1.0, -3.0),
            ],
            1e-8,
        );
    }

    #[test]
    fn degree_six_random_reconstruction() {
        let true_roots = [-0.5, -1.5, -2.5, 3.0, 4.5, -6.0];
        let p = Poly::from_roots(&true_roots);
        let got = sort_roots(p.roots());
        let mut want: Vec<f64> = true_roots.to_vec();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g.re - w).abs() < 1e-6, "{} vs {}", g.re, w);
        }
    }

    #[test]
    fn double_root_is_found_approximately() {
        // (x+1)^2 (x+5)
        let p = Poly::from_roots(&[-1.0, -1.0, -5.0]);
        let r = sort_roots(p.roots());
        assert_eq!(r.len(), 3);
        assert!((r[0].re + 5.0).abs() < 1e-6);
        // Double roots converge with ~sqrt(eps) accuracy; accept 1e-5.
        assert!((r[1].re + 1.0).abs() < 1e-4);
        assert!((r[2].re + 1.0).abs() < 1e-4);
    }
}
