//! Minimal, fast complex-number type used throughout the workspace.
//!
//! We deliberately implement our own rather than pulling in `num-complex`:
//! the AC analysis, Mason's rule and root finders need only a small surface
//! (arithmetic, norm, argument, exp/sqrt) and keeping it local makes the
//! workspace dependency-free for math.

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Relative gap between `|z|²` and `level²` below which
/// [`Complex::norm_le`], [`Complex::norm_lt`] and [`Complex::norm_gt`]
/// fall back to `hypot`; [`Complex::max_norm`] calls `hypot` for every
/// square within it of the largest.
const NORM_SQR_GUARD: f64 = 1e-12;

/// A complex number `re + i·im` over `f64`.
///
/// # Example
/// ```
/// use adc_numerics::Complex;
/// let j = Complex::I;
/// assert!((j * j + Complex::ONE).norm() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit, `0 + 1i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular coordinates.
    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r·e^{iθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// Euclidean magnitude `|z|`.
    #[inline]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²` (avoids the square root of [`Complex::norm`]).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Exactly `self.norm() <= level`, usually without the `hypot`.
    ///
    /// See [`Complex::norm_gt`] for when the squared norm decides.
    #[inline]
    pub fn norm_le(self, level: f64) -> bool {
        match self.norm_below(level) {
            Some(below) => below,
            None => self.norm() <= level,
        }
    }

    /// Exactly `self.norm() < level`, usually without the `hypot`.
    ///
    /// See [`Complex::norm_gt`] for when the squared norm decides.
    #[inline]
    pub fn norm_lt(self, level: f64) -> bool {
        match self.norm_below(level) {
            Some(below) => below,
            None => self.norm() < level,
        }
    }

    /// Exactly `self.norm() > level`, usually without the `hypot`.
    ///
    /// The squared norm decides when `level ≥ 0`, `norm_sqr()` and
    /// `level²` are both normal, and the two differ by more than a
    /// relative 1e-12. The squares carry at most 3 ulp of rounding error
    /// (an underflowed part's square included) and `hypot` at most 1, so
    /// outside that guard band both sides of the comparison agree. Every
    /// other case — zero, subnormal, infinite or NaN squares, negative or
    /// NaN levels — calls `hypot`.
    #[inline]
    pub fn norm_gt(self, level: f64) -> bool {
        match self.norm_below(level) {
            Some(below) => !below,
            None => self.norm() > level,
        }
    }

    /// `Some(|z| < level)` when the squared norm settles it, else `None`.
    #[inline]
    fn norm_below(self, level: f64) -> Option<bool> {
        if level >= 0.0 {
            let (s, t) = (self.norm_sqr(), level * level);
            if s.is_normal() && t.is_normal() {
                if s < t * (1.0 - NORM_SQR_GUARD) {
                    return Some(true);
                }
                if s > t * (1.0 + NORM_SQR_GUARD) {
                    return Some(false);
                }
            }
        }
        None
    }

    /// Exactly `zs.iter().map(|z| z.norm()).fold(0.0, f64::max)`, with
    /// `hypot` only for the entries whose `norm_sqr()` lies within a
    /// relative 1e-12 of the largest.
    ///
    /// Every other entry's `hypot` lies below the `hypot` of the entry
    /// with the largest square, by the argument of [`Complex::norm_gt`],
    /// so it cannot be the maximum. That needs every square to carry only
    /// its few-ulp error: when any square is subnormal, infinite or NaN,
    /// or is zero while a part is not, the full `hypot` fold runs
    /// instead.
    pub fn max_norm(zs: &[Complex]) -> f64 {
        let mut top = 0.0f64;
        for &z in zs {
            let s = z.norm_sqr();
            if !(s.is_normal() || z.is_zero()) {
                return zs.iter().map(|z| z.norm()).fold(0.0, f64::max);
            }
            top = top.max(s);
        }
        if top == 0.0 {
            return 0.0;
        }
        let floor = top * (1.0 - NORM_SQR_GUARD);
        zs.iter()
            .filter(|z| z.norm_sqr() >= floor)
            .map(|z| z.norm())
            .fold(0.0, f64::max)
    }

    /// Exactly `self.norm() == 0.0`: `hypot` is zero only when both parts
    /// are.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.re == 0.0 && self.im == 0.0
    }

    /// Principal argument in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Uses Smith's algorithm to avoid premature overflow/underflow.
    #[inline]
    pub fn inv(self) -> Self {
        Complex::ONE / self
    }

    /// Returns `true` if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// Returns `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex {
    type Output = Complex;
    /// Smith's algorithm: scale by the larger denominator component.
    fn div(self, rhs: Complex) -> Complex {
        if rhs.re.abs() >= rhs.im.abs() {
            if rhs.re == 0.0 && rhs.im == 0.0 {
                // Division by exact zero: propagate infinities like f64 does.
                return Complex::new(self.re / 0.0, self.im / 0.0);
            }
            let r = rhs.im / rhs.re;
            let d = rhs.re + rhs.im * r;
            Complex::new((self.re + self.im * r) / d, (self.im - self.re * r) / d)
        } else {
            let r = rhs.re / rhs.im;
            let d = rhs.re * r + rhs.im;
            Complex::new((self.re * r + self.im) / d, (self.im * r - self.re) / d)
        }
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Add<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: f64) -> Complex {
        Complex::new(self.re + rhs, self.im)
    }
}

impl Sub<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: f64) -> Complex {
        Complex::new(self.re - rhs, self.im)
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs * self
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: Complex) {
        *self = *self / rhs;
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + b)
    }
}

impl Product for Complex {
    fn product<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ONE, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex, tol: f64) -> bool {
        (a - b).norm() <= tol
    }

    #[test]
    fn basic_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -4.0);
        assert_eq!(a + b, Complex::new(4.0, -2.0));
        assert_eq!(a - b, Complex::new(-2.0, 6.0));
        assert_eq!(a * b, Complex::new(11.0, 2.0));
        assert!(close(a / b * b, a, 1e-14));
    }

    #[test]
    fn division_by_small_numbers_is_stable() {
        let a = Complex::new(1.0, 1.0);
        let b = Complex::new(1e-300, 1e-300);
        let q = a / b;
        assert!(q.is_finite());
        assert!(q.norm() > 1e299);
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex::from_polar(2.5, 0.7);
        assert!((z.norm() - 2.5).abs() < 1e-14);
        assert!((z.arg() - 0.7).abs() < 1e-14);
    }

    #[test]
    fn sum_and_product_fold() {
        let xs = [
            Complex::new(1.0, 0.0),
            Complex::new(0.0, 1.0),
            Complex::new(2.0, 2.0),
        ];
        let s: Complex = xs.iter().copied().sum();
        assert_eq!(s, Complex::new(3.0, 3.0));
        let p: Complex = xs.iter().copied().product();
        assert!(close(
            p,
            Complex::new(1.0, 0.0) * Complex::I * Complex::new(2.0, 2.0),
            1e-14
        ));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn division_by_zero_yields_non_finite() {
        let q = Complex::ONE / Complex::ZERO;
        assert!(!q.is_finite());
    }
}
