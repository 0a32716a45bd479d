//! Dense univariate polynomials with real coefficients.
//!
//! Polynomials are stored ascending: `coeffs[k]` multiplies `x^k`. The zero
//! polynomial is represented by an empty coefficient vector. These are the
//! workhorse behind transfer functions `H(s) = N(s)/D(s)` produced by the
//! DPI/SFG layer, so evaluation at complex frequencies and root extraction
//! get particular attention.

use crate::complex::Complex;
use crate::roots;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A dense real-coefficient polynomial, ascending powers.
///
/// # Example
/// ```
/// use adc_numerics::Poly;
/// let p = Poly::new(vec![2.0, 3.0, 1.0]); // 2 + 3x + x^2
/// assert_eq!(p.degree(), Some(2));
/// assert!((p.eval(-1.0) - 0.0).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Poly {
    coeffs: Vec<f64>,
}

impl Poly {
    /// Creates a polynomial from ascending coefficients, trimming trailing
    /// exactly zero high-order terms.
    pub fn new(coeffs: Vec<f64>) -> Self {
        let mut p = Poly { coeffs };
        p.trim();
        p
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { coeffs: Vec::new() }
    }

    /// The constant polynomial `1`.
    pub fn one() -> Self {
        Poly { coeffs: vec![1.0] }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: f64) -> Self {
        Poly::new(vec![c])
    }

    /// Builds the monic polynomial with the given real roots.
    pub fn from_roots(roots: &[f64]) -> Self {
        let mut p = Poly::one();
        for &r in roots {
            p = &p * &Poly::new(vec![-r, 1.0]);
        }
        p
    }

    /// Builds a real polynomial from complex roots.
    ///
    /// Roots must come in conjugate pairs (up to `tol`) for the result to be
    /// real; imaginary residue below `tol` on each final coefficient is
    /// discarded.
    pub fn from_complex_roots(roots: &[Complex]) -> Self {
        let mut c = vec![Complex::ONE];
        for &r in roots {
            let mut next = vec![Complex::ZERO; c.len() + 1];
            for (k, &ck) in c.iter().enumerate() {
                next[k + 1] += ck;
                next[k] -= ck * r;
            }
            c = next;
        }
        Poly::new(c.into_iter().map(|z| z.re).collect())
    }

    /// Ascending coefficients slice (empty for the zero polynomial).
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        if self.coeffs.is_empty() {
            None
        } else {
            Some(self.coeffs.len() - 1)
        }
    }

    /// Leading (highest-order) coefficient, or 0 for the zero polynomial.
    pub fn leading(&self) -> f64 {
        self.coeffs.last().copied().unwrap_or(0.0)
    }

    /// Returns `true` if this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Coefficient of `x^k` (0 beyond the stored degree).
    pub fn coeff(&self, k: usize) -> f64 {
        self.coeffs.get(k).copied().unwrap_or(0.0)
    }

    fn trim(&mut self) {
        while let Some(&c) = self.coeffs.last() {
            if c == 0.0 {
                self.coeffs.pop();
            } else {
                break;
            }
        }
    }

    /// Horner evaluation at a real point.
    pub fn eval(&self, x: f64) -> f64 {
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }

    /// Horner evaluation at a complex point (e.g. `s = jω`).
    pub fn eval_complex(&self, z: Complex) -> Complex {
        self.coeffs
            .iter()
            .rev()
            .fold(Complex::ZERO, |acc, &c| acc * z + c)
    }

    /// Scales all coefficients by `k`.
    pub fn scale(&self, k: f64) -> Poly {
        Poly::new(self.coeffs.iter().map(|&c| c * k).collect())
    }

    /// Polynomial long division: returns `(quotient, remainder)`.
    ///
    /// # Panics
    /// Panics if `divisor` is the zero polynomial.
    pub fn div_rem(&self, divisor: &Poly) -> (Poly, Poly) {
        assert!(!divisor.is_zero(), "division by the zero polynomial");
        let dd = divisor.coeffs.len();
        if self.coeffs.len() < dd {
            return (Poly::zero(), self.clone());
        }
        let mut rem = self.coeffs.clone();
        let mut quot = vec![0.0; self.coeffs.len() - dd + 1];
        let lead = *divisor.coeffs.last().expect("nonzero divisor");
        for k in (0..quot.len()).rev() {
            let q = rem[k + dd - 1] / lead;
            quot[k] = q;
            if q != 0.0 {
                for (j, &dc) in divisor.coeffs.iter().enumerate() {
                    rem[k + j] -= q * dc;
                }
            }
        }
        rem.truncate(dd - 1);
        (Poly::new(quot), Poly::new(rem))
    }

    /// All complex roots via the Aberth–Ehrlich iteration (see
    /// [`crate::roots::poly_roots`]). Returns an empty vector for degree ≤ 0.
    pub fn roots(&self) -> Vec<Complex> {
        roots::poly_roots(&self.coeffs)
    }

    /// Infinity norm of the coefficient vector.
    pub fn coeff_norm(&self) -> f64 {
        self.coeffs.iter().fold(0.0, |m, &c| m.max(c.abs()))
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for (k, &c) in self.coeffs.iter().enumerate().rev() {
            if c == 0.0 {
                continue;
            }
            if !first {
                write!(f, " {} ", if c < 0.0 { "-" } else { "+" })?;
            } else if c < 0.0 {
                write!(f, "-")?;
            }
            let a = c.abs();
            match k {
                0 => write!(f, "{a}")?,
                1 => {
                    if (a - 1.0).abs() > f64::EPSILON {
                        write!(f, "{a}·")?;
                    }
                    write!(f, "x")?;
                }
                _ => {
                    if (a - 1.0).abs() > f64::EPSILON {
                        write!(f, "{a}·")?;
                    }
                    write!(f, "x^{k}")?;
                }
            }
            first = false;
        }
        Ok(())
    }
}

impl Add for &Poly {
    type Output = Poly;
    fn add(self, rhs: &Poly) -> Poly {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let mut c = vec![0.0; n];
        for (k, slot) in c.iter_mut().enumerate() {
            *slot = self.coeff(k) + rhs.coeff(k);
        }
        Poly::new(c)
    }
}

impl Sub for &Poly {
    type Output = Poly;
    fn sub(self, rhs: &Poly) -> Poly {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let mut c = vec![0.0; n];
        for (k, slot) in c.iter_mut().enumerate() {
            *slot = self.coeff(k) - rhs.coeff(k);
        }
        Poly::new(c)
    }
}

impl Mul for &Poly {
    type Output = Poly;
    fn mul(self, rhs: &Poly) -> Poly {
        if self.is_zero() || rhs.is_zero() {
            return Poly::zero();
        }
        let mut c = vec![0.0; self.coeffs.len() + rhs.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (j, &b) in rhs.coeffs.iter().enumerate() {
                c[i + j] += a * b;
            }
        }
        Poly::new(c)
    }
}

impl Neg for &Poly {
    type Output = Poly;
    fn neg(self) -> Poly {
        self.scale(-1.0)
    }
}

impl Add for Poly {
    type Output = Poly;
    fn add(self, rhs: Poly) -> Poly {
        &self + &rhs
    }
}

impl Sub for Poly {
    type Output = Poly;
    fn sub(self, rhs: Poly) -> Poly {
        &self - &rhs
    }
}

impl Mul for Poly {
    type Output = Poly;
    fn mul(self, rhs: Poly) -> Poly {
        &self * &rhs
    }
}

impl Neg for Poly {
    type Output = Poly;
    fn neg(self) -> Poly {
        -&self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_trims_zeros() {
        let p = Poly::new(vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(p.degree(), Some(1));
        assert!(Poly::new(vec![0.0, 0.0]).is_zero());
    }

    #[test]
    fn eval_horner() {
        let p = Poly::new(vec![1.0, -3.0, 2.0]); // 1 - 3x + 2x^2
        assert_eq!(p.eval(0.0), 1.0);
        assert_eq!(p.eval(1.0), 0.0);
        assert_eq!(p.eval(2.0), 3.0);
    }

    #[test]
    fn eval_complex_matches_real_axis() {
        let p = Poly::new(vec![0.5, 1.5, -2.0, 4.0]);
        for x in [-2.0, -0.5, 0.0, 0.3, 7.0] {
            let zc = p.eval_complex(Complex::from_real(x));
            assert!((zc.re - p.eval(x)).abs() < 1e-12);
            assert!(zc.im.abs() < 1e-12);
        }
    }

    #[test]
    fn arithmetic_identities() {
        let a = Poly::new(vec![1.0, 2.0, 3.0]);
        let b = Poly::new(vec![-1.0, 4.0]);
        let sum = &a + &b;
        assert_eq!(sum.coeffs(), &[0.0, 6.0, 3.0]);
        let diff = &sum - &b;
        assert_eq!(diff, a);
        let prod = &a * &b;
        // (1+2x+3x^2)(-1+4x) = -1 +2x +5x^2 +12x^3
        assert_eq!(prod.coeffs(), &[-1.0, 2.0, 5.0, 12.0]);
    }

    #[test]
    fn from_roots_vanishes_at_roots() {
        let p = Poly::from_roots(&[1.0, -2.0, 0.5]);
        for r in [1.0, -2.0, 0.5] {
            assert!(p.eval(r).abs() < 1e-12);
        }
        assert_eq!(p.degree(), Some(3));
        assert!((p.leading() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn from_complex_conjugate_roots_is_real() {
        let roots = [Complex::new(-1.0, 2.0), Complex::new(-1.0, -2.0)];
        let p = Poly::from_complex_roots(&roots);
        // (s+1)^2 + 4 = s^2 + 2s + 5
        assert_eq!(p.coeffs().len(), 3);
        assert!((p.coeff(0) - 5.0).abs() < 1e-12);
        assert!((p.coeff(1) - 2.0).abs() < 1e-12);
        assert!((p.coeff(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn div_rem_reconstructs() {
        let n = Poly::new(vec![2.0, -3.0, 1.0, 5.0]);
        let d = Poly::new(vec![1.0, 1.0]);
        let (q, r) = n.div_rem(&d);
        let back = &(&q * &d) + &r;
        for k in 0..4 {
            assert!((back.coeff(k) - n.coeff(k)).abs() < 1e-12);
        }
        assert!(r.degree().map_or(true, |dr| dr < d.degree().unwrap()));
    }

    #[test]
    fn display_readable() {
        let p = Poly::new(vec![2.0, 0.0, -1.0]);
        let s = p.to_string();
        assert!(s.contains("x^2"));
        assert_eq!(Poly::zero().to_string(), "0");
    }
}
