//! Dense linear algebra: row-major matrices and LU factorization with
//! partial pivoting, generic over the entry type ([`Scalar`]: `f64` or
//! [`Complex`]).
//!
//! The circuit simulator builds modified-nodal-analysis (MNA) systems of
//! modest size (tens of unknowns); dense LU with partial pivoting is the
//! appropriate tool. The API is **reuse-oriented**: a factorization object
//! ([`Lu`]) owns its pivot and factor buffers and can be refilled in place
//! via [`Lu::factor_into`], and solves write into caller-owned slices via
//! [`Lu::solve_into`] — so a Newton loop or an AC sweep refactors and
//! resolves every iteration without touching the allocator. The allocating
//! entry points ([`Matrix::solve`], [`Matrix::lu`]) remain as thin
//! wrappers over the in-place core. [`Scalar`] is also the entry type of
//! the CSR matrices and sparse LU in [`crate::sparse`].

use crate::complex::Complex;
use crate::{NumResult, NumericsError};
use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Sub, SubAssign};

/// Pivot magnitude below which a matrix is declared numerically singular.
pub(crate) const SINGULAR_TOL: f64 = 1e-300;

/// Entry type of the dense and sparse matrices and their LU
/// factorizations: `f64` for Newton Jacobians, [`Complex`] for the
/// small-signal `Y(s)`.
///
/// # Example
/// ```
/// use adc_numerics::complex::Complex;
/// use adc_numerics::linalg::{Lu, Matrix};
/// // (1+i)·x = 2i  ⇒  x = 1+i
/// let mut a = Matrix::zeros(1, 1);
/// a[(0, 0)] = Complex::new(1.0, 1.0);
/// let mut lu = Lu::with_dim(1);
/// lu.factor_into(&a).unwrap();
/// let mut x = [Complex::ZERO];
/// lu.solve_into(&[Complex::new(0.0, 2.0)], &mut x);
/// assert!((x[0] - Complex::new(1.0, 1.0)).norm() < 1e-14);
/// assert!((lu.det() - Complex::new(1.0, 1.0)).norm() < 1e-14);
/// ```
pub trait Scalar:
    Copy
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + AddAssign
    + SubAssign
{
    /// The additive identity.
    const ZERO: Self;
    /// The real number `x` as an entry.
    fn from_real(x: f64) -> Self;
    /// Magnitude: `abs`, or the complex `norm`.
    fn mag(self) -> f64;
    /// Pivot screen: `true` iff `self.mag() >= t` — same decision as
    /// computing the magnitude, but with a cheap component test that
    /// short-circuits the `hypot` for every healthy pivot (the common
    /// case by ~every pivot of a well-posed system).
    fn mag_ge(self, t: f64) -> bool;
    /// `dst[j] -= f · src[j]`, the dense LU row update, through
    /// [`crate::simd::axpy_sub`] or [`crate::simd::caxpy_sub`].
    fn axpy_sub(dst: &mut [Self], src: &[Self], f: Self);
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    #[inline]
    fn from_real(x: f64) -> f64 {
        x
    }
    #[inline]
    fn mag(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn mag_ge(self, t: f64) -> bool {
        self.abs() >= t
    }
    #[inline]
    fn axpy_sub(dst: &mut [f64], src: &[f64], f: f64) {
        crate::simd::axpy_sub(dst, src, f);
    }
}

impl Scalar for Complex {
    const ZERO: Complex = Complex::ZERO;
    #[inline]
    fn from_real(x: f64) -> Complex {
        Complex::from_real(x)
    }
    #[inline]
    fn mag(self) -> f64 {
        self.norm()
    }
    #[inline]
    fn mag_ge(self, t: f64) -> bool {
        // |z| ≥ max(|re|, |im|), so a component beyond 2t proves |z| ≥ t
        // (2× margin absorbs hypot rounding) without the hypot call; only
        // borderline pivots fall through to the exact norm.
        self.re.abs() > 2.0 * t || self.im.abs() > 2.0 * t || self.norm() >= t
    }
    #[inline]
    fn axpy_sub(dst: &mut [Complex], src: &[Complex], f: Complex) {
        crate::simd::caxpy_sub(dst, src, f);
    }
}

/// Dense row-major matrix of [`Scalar`] entries (`f64` by default).
///
/// # Example
/// ```
/// use adc_numerics::Matrix;
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let x = a.solve(&[3.0, 5.0]).unwrap();
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix<T = f64> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates a zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Resets all entries to zero (reuse storage across Newton iterations).
    pub fn clear(&mut self) {
        self.data.fill(T::ZERO);
    }

    /// Mutable row-major value array: entry `(i, j)` is at `i·cols + j`,
    /// the slot a stamp replay scatters through.
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Adds `v` to entry `(i, j)` — the MNA "stamp" primitive.
    #[inline]
    pub fn add_at(&mut self, i: usize, j: usize, v: T) {
        let c = self.cols;
        self.data[i * c + j] += v;
    }

    /// LU factorization with partial pivoting (allocates a fresh [`Lu`];
    /// reuse-oriented callers should keep one [`Lu`] and call
    /// [`Lu::factor_into`] instead).
    ///
    /// # Errors
    /// Returns [`NumericsError::SingularMatrix`] if a pivot underflows.
    pub fn lu(&self) -> NumResult<Lu<T>> {
        assert_eq!(self.rows, self.cols, "LU requires a square matrix");
        let mut f = Lu::with_dim(self.rows);
        f.factor_into(self)?;
        Ok(f)
    }

    /// Solves `A x = b`, allocating a fresh factorization and solution —
    /// a thin wrapper over [`Lu::factor_into`] + [`Lu::solve_into`]. Hot
    /// loops (Newton iterations, AC sweeps) should hold a [`Lu`] workspace
    /// and use the in-place pair directly.
    ///
    /// # Errors
    /// Returns [`NumericsError::SingularMatrix`] for singular systems.
    pub fn solve(&self, b: &[T]) -> NumResult<Vec<T>> {
        Ok(self.lu()?.solve(b))
    }

    /// Determinant via LU (0 for singular matrices).
    pub fn det(&self) -> T {
        match self.lu() {
            Ok(lu) => lu.det(),
            Err(_) => T::ZERO,
        }
    }
}

impl Matrix {
    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    /// Panics if `x.len()` is not the column count.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Matrix–vector product into a caller-owned buffer (no allocation).
    ///
    /// # Panics
    /// Panics if `x.len()` is not the column count or `y.len()` the row
    /// count.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        assert_eq!(y.len(), self.rows, "dimension mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }

    /// Matrix–matrix product.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn mul_mat(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }
}

impl<T> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        &self.data[i * self.cols + j]
    }
}

impl<T> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        &mut self.data[i * self.cols + j]
    }
}

/// LU factorization (P·A = L·U) with partial pivoting by magnitude,
/// doubling as a reusable factorization workspace: [`Lu::factor_into`]
/// refills the pivot and factor buffers in place, [`Lu::solve_into`]
/// writes the solution into a caller-owned slice — neither allocates after
/// construction. One factorization serves both the determinant (product
/// of pivots, which the numeric TF extraction samples) and any number of
/// solves.
///
/// # Example
/// ```
/// use adc_numerics::linalg::{Lu, Matrix};
/// let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
/// let mut lu = Lu::with_dim(2);
/// let mut x = [0.0; 2];
/// for b in [[10.0, 12.0], [7.0, 9.0]] {
///     lu.factor_into(&a).unwrap(); // reuses the same buffers
///     lu.solve_into(&b, &mut x);
///     let back = a.mul_vec(&x);
///     assert!((back[0] - b[0]).abs() < 1e-12);
///     assert!((back[1] - b[1]).abs() < 1e-12);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Lu<T = f64> {
    n: usize,
    lu: Vec<T>,
    perm: Vec<usize>,
    sign: f64,
}

impl<T: Scalar> Default for Lu<T> {
    fn default() -> Self {
        Lu::with_dim(0)
    }
}

impl<T: Scalar> Lu<T> {
    /// Creates an empty factorization workspace for `n × n` systems.
    /// [`Lu::factor_into`] must succeed before the first solve.
    pub fn with_dim(n: usize) -> Self {
        Lu {
            n,
            lu: vec![T::ZERO; n * n],
            perm: (0..n).collect(),
            sign: 1.0,
        }
    }

    /// Refactors `a` into this workspace's buffers (no allocation when the
    /// dimension is unchanged; resizes once when it grows).
    ///
    /// On error the stored factors are invalid — call again with a
    /// non-singular matrix before solving.
    ///
    /// # Errors
    /// Returns [`NumericsError::SingularMatrix`] if a pivot magnitude
    /// underflows.
    ///
    /// # Panics
    /// Panics if `a` is not square.
    pub fn factor_into(&mut self, a: &Matrix<T>) -> NumResult<()> {
        assert_eq!(a.rows, a.cols, "LU requires a square matrix");
        let n = a.rows;
        if self.n != n {
            self.n = n;
            self.lu.resize(n * n, T::ZERO);
            self.perm.resize(n, 0);
        }
        self.lu.copy_from_slice(&a.data);
        for (i, p) in self.perm.iter_mut().enumerate() {
            *p = i;
        }
        self.sign = 1.0;
        let lu = &mut self.lu;
        for k in 0..n {
            // Partial pivot: find the largest magnitude in column k.
            let mut p = k;
            let mut max = lu[k * n + k].mag();
            for i in (k + 1)..n {
                let v = lu[i * n + k].mag();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            if max < SINGULAR_TOL {
                return Err(NumericsError::SingularMatrix {
                    step: k,
                    pivot: max,
                });
            }
            if p != k {
                for j in 0..n {
                    lu.swap(k * n + j, p * n + j);
                }
                self.perm.swap(k, p);
                self.sign = -self.sign;
            }
            let pivot = lu[k * n + k];
            // Row updates through the SIMD axpy kernel: split below the
            // pivot row so the eliminator row and its targets can be
            // borrowed together.
            let (top, rest) = lu.split_at_mut((k + 1) * n);
            let krow = &top[k * n + k + 1..(k + 1) * n];
            for irow in rest.chunks_exact_mut(n) {
                let f = irow[k] / pivot;
                irow[k] = f;
                if f != T::ZERO {
                    T::axpy_sub(&mut irow[k + 1..n], krow, f);
                }
            }
        }
        Ok(())
    }

    /// Solves `A x = b` into a caller-owned buffer using the stored
    /// factors (no allocation).
    ///
    /// # Panics
    /// Panics if `b.len()` or `x.len()` differs from the matrix dimension.
    pub fn solve_into(&self, b: &[T], x: &mut [T]) {
        assert_eq!(b.len(), self.n, "dimension mismatch");
        assert_eq!(x.len(), self.n, "dimension mismatch");
        let n = self.n;
        // Apply permutation, forward substitution (L has unit diagonal).
        for (xi, &p) in x.iter_mut().zip(self.perm.iter()) {
            *xi = b[p];
        }
        for i in 1..n {
            let mut s = x[i];
            for (j, xj) in x.iter().enumerate().take(i) {
                s -= self.lu[i * n + j] * *xj;
            }
            x[i] = s;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let mut s = x[i];
            for (j, xj) in x.iter().enumerate().take(n).skip(i + 1) {
                s -= self.lu[i * n + j] * *xj;
            }
            x[i] = s / self.lu[i * n + i];
        }
    }

    /// Solves `A x = b` using the stored factors (allocating wrapper over
    /// [`Lu::solve_into`]).
    ///
    /// # Panics
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        let mut x = vec![T::ZERO; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// Determinant from the product of pivots in row order, the
    /// permutation sign first.
    pub fn det(&self) -> T {
        (0..self.n).fold(T::from_real(self.sign), |d, i| d * self.lu[i * self.n + i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_add_matches_scalar_stamps() {
        // Repeated slots must accumulate in traversal order, bit-identical
        // to the scalar add_at loop — including the 4-lane chunk boundary.
        let entries: Vec<(usize, usize, f64)> = vec![
            (0, 0, 1.25),
            (1, 2, -3.5),
            (0, 0, 0.0625),
            (2, 1, 7.0),
            (2, 2, -0.125),
            (1, 2, 2.75),
            (0, 1, 9.5),
        ];
        let mut scalar = Matrix::zeros(3, 3);
        for &(i, j, v) in &entries {
            scalar.add_at(i, j, v);
        }
        let mut chunked = Matrix::zeros(3, 3);
        let slots: Vec<usize> = entries.iter().map(|&(i, j, _)| i * 3 + j).collect();
        let vals: Vec<f64> = entries.iter().map(|&(_, _, v)| v).collect();
        crate::simd::scatter_add(chunked.values_mut(), &slots, &vals);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(scalar[(i, j)].to_bits(), chunked[(i, j)].to_bits());
            }
        }
    }

    #[test]
    fn identity_solve() {
        let a = Matrix::identity(4);
        let b = [1.0, -2.0, 3.0, 0.5];
        let x = a.solve(&b).unwrap();
        for (xi, bi) in x.iter().zip(b.iter()) {
            assert!((xi - bi).abs() < 1e-15);
        }
    }

    #[test]
    fn solve_3x3_known() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let x = a.solve(&[8.0, -11.0, -3.0]).unwrap();
        let want = [2.0, 3.0, -1.0];
        for (xi, wi) in x.iter().zip(want.iter()) {
            assert!((xi - wi).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-15);
        assert!((x[1] - 2.0).abs() < 1e-15);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        match a.solve(&[1.0, 2.0]) {
            Err(NumericsError::SingularMatrix { .. }) => {}
            other => panic!("expected singular error, got {other:?}"),
        }
        assert_eq!(a.det(), 0.0);
    }

    #[test]
    fn det_of_triangular() {
        let a = Matrix::from_rows(&[&[2.0, 5.0, 1.0], &[0.0, 3.0, 7.0], &[0.0, 0.0, -4.0]]);
        assert!((a.det() + 24.0).abs() < 1e-10);
    }

    #[test]
    fn det_sign_tracks_permutation() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!((a.det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn mul_vec_and_mat() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
        let b = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let c = a.mul_mat(&b);
        assert_eq!(c[(0, 0)], 2.0);
        assert_eq!(c[(0, 1)], 1.0);
        assert_eq!(c[(1, 0)], 4.0);
        assert_eq!(c[(1, 1)], 3.0);
    }

    #[test]
    fn lu_reuse_for_multiple_rhs() {
        let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
        let lu = a.lu().unwrap();
        for b in [[7.0, 9.0], [1.0, 0.0], [0.0, 1.0]] {
            let x = lu.solve(&b);
            let back = a.mul_vec(&x);
            for (bi, wi) in back.iter().zip(b.iter()) {
                assert!((bi - wi).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn complex_solve_known() {
        // (1+i) x = 2i  =>  x = 2i/(1+i) = 1 + i
        let mut a = Matrix::<Complex>::zeros(1, 1);
        a[(0, 0)] = Complex::new(1.0, 1.0);
        let x = a.solve(&[Complex::new(0.0, 2.0)]).unwrap();
        assert!((x[0] - Complex::new(1.0, 1.0)).norm() < 1e-14);
    }

    #[test]
    fn complex_solve_2x2_residual() {
        let mut a = Matrix::<Complex>::zeros(2, 2);
        a[(0, 0)] = Complex::new(2.0, 1.0);
        a[(0, 1)] = Complex::new(0.0, -1.0);
        a[(1, 0)] = Complex::new(1.0, 0.0);
        a[(1, 1)] = Complex::new(3.0, 2.0);
        let b = [Complex::new(1.0, 0.0), Complex::new(0.0, 1.0)];
        let x = a.solve(&b).unwrap();
        // residual check
        for i in 0..2 {
            let mut r = -b[i];
            for j in 0..2 {
                r += a[(i, j)] * x[j];
            }
            assert!(r.norm() < 1e-13);
        }
    }

    #[test]
    fn complex_det_known() {
        let mut a = Matrix::<Complex>::zeros(2, 2);
        a[(0, 0)] = Complex::new(1.0, 1.0);
        a[(1, 1)] = Complex::new(2.0, 0.0);
        a[(0, 1)] = Complex::new(0.0, 3.0);
        // triangular: det = (1+i)·2
        assert!((a.det() - Complex::new(2.0, 2.0)).norm() < 1e-14);
        // permuted rows flip sign
        let mut b = Matrix::<Complex>::zeros(2, 2);
        b[(0, 1)] = Complex::ONE;
        b[(1, 0)] = Complex::ONE;
        assert!((b.det() + Complex::ONE).norm() < 1e-14);
        assert_eq!(Matrix::<Complex>::zeros(2, 2).det(), Complex::ZERO);
    }

    #[test]
    fn complex_singular_detected() {
        let a = Matrix::<Complex>::zeros(2, 2);
        assert!(a.solve(&[Complex::ONE, Complex::ONE]).is_err());
    }
}
