//! Dense linear algebra: row-major matrices and LU factorization with
//! partial pivoting, in both real and complex flavors.
//!
//! The circuit simulator builds modified-nodal-analysis (MNA) systems of
//! modest size (tens of unknowns); dense LU with partial pivoting is the
//! appropriate tool. The API is **reuse-oriented**: a factorization object
//! ([`Lu`], [`CLu`]) owns its pivot and factor buffers and can be refilled
//! in place via [`Lu::factor_into`] / [`CLu::factor_into`], and solves write
//! into caller-owned slices via [`Lu::solve_into`] / [`CLu::solve_into`] —
//! so a Newton loop or an AC sweep refactors and resolves every iteration
//! without touching the allocator. The allocating entry points
//! ([`Matrix::solve`], [`CMatrix::solve`], [`Matrix::lu`]) remain as thin
//! wrappers over the in-place core.

use crate::complex::Complex;
use crate::{NumResult, NumericsError};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Pivot magnitude below which a matrix is declared numerically singular.
const SINGULAR_TOL: f64 = 1e-300;

/// Dense row-major `f64` matrix.
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
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

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

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Resets all entries to zero (reuse storage across Newton iterations).
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Mutable row-major value array: entry `(i, j)` is at `i·cols + j`,
    /// the slot a stamp replay scatters through.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Adds `v` to entry `(i, j)` — the MNA "stamp" primitive.
    #[inline]
    pub fn add_at(&mut self, i: usize, j: usize, v: f64) {
        let c = self.cols;
        self.data[i * c + j] += v;
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Matrix–vector product into a caller-owned buffer (no allocation).
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        assert_eq!(y.len(), self.rows, "dimension mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }

    /// Copies another matrix's entries into this one (reuse storage).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn copy_from(&mut self, src: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (src.rows, src.cols),
            "dimension mismatch"
        );
        self.data.copy_from_slice(&src.data);
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

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// LU factorization with partial pivoting (allocates a fresh [`Lu`];
    /// reuse-oriented callers should keep one [`Lu`] and call
    /// [`Lu::factor_into`] instead).
    ///
    /// # Errors
    /// Returns [`NumericsError::SingularMatrix`] if a pivot underflows.
    pub fn lu(&self) -> NumResult<Lu> {
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
    pub fn solve(&self, b: &[f64]) -> NumResult<Vec<f64>> {
        Ok(self.lu()?.solve(b))
    }

    /// Determinant via LU (0 for singular matrices).
    pub fn det(&self) -> f64 {
        match self.lu() {
            Ok(lu) => lu.det(),
            Err(_) => 0.0,
        }
    }

    /// Infinity norm (max absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| {
                self.data[i * self.cols..(i + 1) * self.cols]
                    .iter()
                    .map(|v| v.abs())
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:>12.5e}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

/// LU factorization of a real matrix (P·A = L·U), doubling as a reusable
/// factorization workspace: [`Lu::factor_into`] refills the pivot and
/// factor buffers in place, [`Lu::solve_into`] writes the solution into a
/// caller-owned slice — neither allocates after construction.
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
pub struct Lu {
    n: usize,
    lu: Vec<f64>,
    perm: Vec<usize>,
    sign: f64,
}

impl Default for Lu {
    fn default() -> Self {
        Lu::with_dim(0)
    }
}

impl Lu {
    /// Creates an empty factorization workspace for `n × n` systems.
    /// [`Lu::factor_into`] must succeed before the first solve.
    pub fn with_dim(n: usize) -> Self {
        Lu {
            n,
            lu: vec![0.0; n * n],
            perm: (0..n).collect(),
            sign: 1.0,
        }
    }

    /// System dimension this workspace is sized for.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Refactors `a` into this workspace's buffers (no allocation when the
    /// dimension is unchanged; resizes once when it grows).
    ///
    /// On error the stored factors are invalid — call again with a
    /// non-singular matrix before solving.
    ///
    /// # Errors
    /// Returns [`NumericsError::SingularMatrix`] if a pivot underflows.
    ///
    /// # Panics
    /// Panics if `a` is not square.
    pub fn factor_into(&mut self, a: &Matrix) -> NumResult<()> {
        assert_eq!(a.rows, a.cols, "LU requires a square matrix");
        let n = a.rows;
        if self.n != n {
            self.n = n;
            self.lu.resize(n * n, 0.0);
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
            let mut max = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs();
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
                if f != 0.0 {
                    crate::simd::axpy_sub(&mut irow[k + 1..n], krow, f);
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
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
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
                s -= self.lu[i * n + j] * xj;
            }
            x[i] = s;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let mut s = x[i];
            for (j, xj) in x.iter().enumerate().take(n).skip(i + 1) {
                s -= self.lu[i * n + j] * xj;
            }
            x[i] = s / self.lu[i * n + i];
        }
    }

    /// Solves `A x = b` using the stored factors (allocating wrapper over
    /// [`Lu::solve_into`]).
    ///
    /// # Panics
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// Determinant from the product of pivots.
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.n {
            d *= self.lu[i * self.n + i];
        }
        d
    }
}

/// Dense row-major complex matrix (for AC small-signal analysis).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl CMatrix {
    /// Creates a zero-filled complex matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![Complex::ZERO; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Adds `v` at `(i, j)` — complex MNA stamp.
    #[inline]
    pub fn add_at(&mut self, i: usize, j: usize, v: Complex) {
        let c = self.cols;
        self.data[i * c + j] += v;
    }

    /// Resets all entries to zero (reuse storage across sweep points).
    pub fn clear(&mut self) {
        self.data.fill(Complex::ZERO);
    }

    /// Copies another matrix's entries into this one (reuse storage).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn copy_from(&mut self, src: &CMatrix) {
        assert_eq!(
            (self.rows, self.cols),
            (src.rows, src.cols),
            "dimension mismatch"
        );
        self.data.copy_from_slice(&src.data);
    }

    /// Determinant via LU with partial pivoting (0 for singular) — an
    /// allocating wrapper over [`CLu::factor_into`] + [`CLu::det`].
    pub fn det(&self) -> Complex {
        assert_eq!(self.rows, self.cols, "square matrix required");
        let mut f = CLu::with_dim(self.rows);
        match f.factor_into(self) {
            Ok(()) => f.det(),
            Err(_) => Complex::ZERO,
        }
    }

    /// Solves `A x = b`, allocating a fresh factorization and solution — a
    /// thin wrapper over [`CLu::factor_into`] + [`CLu::solve_into`]. Hot
    /// loops (AC sweeps, TF sampling) should hold a [`CLu`] workspace and
    /// use the in-place pair directly.
    ///
    /// # Errors
    /// Returns [`NumericsError::SingularMatrix`] if a pivot magnitude
    /// underflows.
    pub fn solve(&self, b: &[Complex]) -> NumResult<Vec<Complex>> {
        assert_eq!(self.rows, self.cols, "square system required");
        let mut f = CLu::with_dim(self.rows);
        f.factor_into(self)?;
        let mut x = vec![Complex::ZERO; self.rows];
        f.solve_into(b, &mut x);
        Ok(x)
    }
}

/// LU factorization of a complex matrix (P·A = L·U) with partial pivoting
/// by magnitude — the complex sibling of [`Lu`], reusable in the same way.
///
/// One factorization serves both the determinant (product of pivots, used
/// by the numeric TF extraction) and any number of in-place solves.
///
/// # Example
/// ```
/// use adc_numerics::complex::Complex;
/// use adc_numerics::linalg::{CLu, CMatrix};
/// // (1+i)·x = 2i  ⇒  x = 1+i
/// let mut a = CMatrix::zeros(1, 1);
/// a[(0, 0)] = Complex::new(1.0, 1.0);
/// let mut lu = CLu::with_dim(1);
/// lu.factor_into(&a).unwrap();
/// let mut x = [Complex::ZERO];
/// lu.solve_into(&[Complex::new(0.0, 2.0)], &mut x);
/// assert!((x[0] - Complex::new(1.0, 1.0)).norm() < 1e-14);
/// assert!((lu.det() - Complex::new(1.0, 1.0)).norm() < 1e-14);
/// ```
#[derive(Debug, Clone)]
pub struct CLu {
    n: usize,
    lu: Vec<Complex>,
    perm: Vec<usize>,
    sign: f64,
}

impl Default for CLu {
    fn default() -> Self {
        CLu::with_dim(0)
    }
}

impl CLu {
    /// Creates an empty factorization workspace for `n × n` systems.
    /// [`CLu::factor_into`] must succeed before the first solve.
    pub fn with_dim(n: usize) -> Self {
        CLu {
            n,
            lu: vec![Complex::ZERO; n * n],
            perm: (0..n).collect(),
            sign: 1.0,
        }
    }

    /// System dimension this workspace is sized for.
    pub fn dim(&self) -> usize {
        self.n
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
    pub fn factor_into(&mut self, a: &CMatrix) -> NumResult<()> {
        assert_eq!(a.rows, a.cols, "LU requires a square matrix");
        let n = a.rows;
        if self.n != n {
            self.n = n;
            self.lu.resize(n * n, Complex::ZERO);
            self.perm.resize(n, 0);
        }
        self.lu.copy_from_slice(&a.data);
        for (i, p) in self.perm.iter_mut().enumerate() {
            *p = i;
        }
        self.sign = 1.0;
        let lu = &mut self.lu;
        for k in 0..n {
            let mut p = k;
            let mut max = lu[k * n + k].norm();
            for i in (k + 1)..n {
                let v = lu[i * n + k].norm();
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
            // Complex row updates through the SIMD caxpy kernel (same split
            // shape as the real factorization).
            let (top, rest) = lu.split_at_mut((k + 1) * n);
            let krow = &top[k * n + k + 1..(k + 1) * n];
            for irow in rest.chunks_exact_mut(n) {
                let f = irow[k] / pivot;
                irow[k] = f;
                if f.norm() != 0.0 {
                    crate::simd::caxpy_sub(&mut irow[k + 1..n], krow, f);
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
    pub fn solve_into(&self, b: &[Complex], x: &mut [Complex]) {
        assert_eq!(b.len(), self.n, "dimension mismatch");
        assert_eq!(x.len(), self.n, "dimension mismatch");
        let n = self.n;
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
        for i in (0..n).rev() {
            let mut s = x[i];
            for (j, xj) in x.iter().enumerate().take(n).skip(i + 1) {
                s -= self.lu[i * n + j] * *xj;
            }
            x[i] = s / self.lu[i * n + i];
        }
    }

    /// Determinant from the product of pivots (permutation sign included).
    pub fn det(&self) -> Complex {
        let mut d = Complex::from_real(self.sign);
        for i in 0..self.n {
            d *= self.lu[i * self.n + i];
        }
        d
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex {
        &mut self.data[i * self.cols + j]
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
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.transpose(), a);
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
        let mut a = CMatrix::zeros(1, 1);
        a[(0, 0)] = Complex::new(1.0, 1.0);
        let x = a.solve(&[Complex::new(0.0, 2.0)]).unwrap();
        assert!((x[0] - Complex::new(1.0, 1.0)).norm() < 1e-14);
    }

    #[test]
    fn complex_solve_2x2_residual() {
        let mut a = CMatrix::zeros(2, 2);
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
        let mut a = CMatrix::zeros(2, 2);
        a[(0, 0)] = Complex::new(1.0, 1.0);
        a[(1, 1)] = Complex::new(2.0, 0.0);
        a[(0, 1)] = Complex::new(0.0, 3.0);
        // triangular: det = (1+i)·2
        assert!((a.det() - Complex::new(2.0, 2.0)).norm() < 1e-14);
        // permuted rows flip sign
        let mut b = CMatrix::zeros(2, 2);
        b[(0, 1)] = Complex::ONE;
        b[(1, 0)] = Complex::ONE;
        assert!((b.det() + Complex::ONE).norm() < 1e-14);
        assert_eq!(CMatrix::zeros(2, 2).det(), Complex::ZERO);
    }

    #[test]
    fn complex_singular_detected() {
        let a = CMatrix::zeros(2, 2);
        assert!(a.solve(&[Complex::ONE, Complex::ONE]).is_err());
    }

    #[test]
    fn norm_inf_rowsums() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 0.5]]);
        assert!((a.norm_inf() - 3.5).abs() < 1e-15);
    }
}
