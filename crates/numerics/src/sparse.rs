//! Sparse linear algebra for MNA systems: compressed-sparse-row storage and
//! LU factorization with a **reusable symbolic factorization**, generic
//! over the [`Scalar`] entry type like the dense [`crate::linalg`] types.
//!
//! OTA testbench matrices are ~90 % structural zeros, and the synthesis
//! inner loop refactors the *same sparsity pattern* thousands of times (per
//! Newton iteration, per TF sample). The work is therefore split the way
//! production sparse SPICE engines split it:
//!
//! 1. [`Symbolic::analyze`] — once per circuit topology: a Markowitz
//!    (minimum local fill) pivot ordering is chosen from the structure
//!    alone, the elimination is simulated over row/column bitsets to
//!    predict all fill-in, and the resulting factor pattern plus scatter
//!    maps are frozen.
//! 2. [`SparseLu::factor_into`] — per value change: a numeric
//!    refactorization that follows the frozen pattern with **zero
//!    allocation and no pivot search**, mirroring the reuse contract of
//!    the dense [`crate::linalg::Lu`]. It eliminates in place in the factor
//!    storage along the frozen elimination schedule (`Symbolic::e_target`,
//!    which [`CSparseLuBatch`] walks lane by lane).
//! 3. [`SparseLu::refactor_into`] — per change of a known subset of the
//!    input values (a Newton loop whose nonlinear devices stamp the same
//!    few slots every iteration): [`Symbolic::dependent_rows`] derives once
//!    which factor rows those values reach through the elimination, and
//!    only those rows are refactored. Both refactorizations run through
//!    one row-elimination routine, so the partial one is bit-identical to
//!    a full one.
//! 4. [`SparseLu::solve_into`] and [`SparseLu::det`] — in-place triangular
//!    solves and the determinant from the product of pivots (the quantity
//!    the numeric TF extraction samples).
//!
//! Static pivoting is safe here because MNA structural nonzeros are
//! numerically nonzero in practice (conductance sums with a g_min floor on
//! node diagonals, ±1 incidence entries on branch rows); a pivot that still
//! underflows surfaces as [`NumericsError::SingularMatrix`] so callers can
//! fall back to the dense partial-pivoting oracle.

use crate::complex::Complex;
use crate::linalg::{Matrix, Scalar, SINGULAR_TOL};
use crate::{NumResult, NumericsError};
use std::sync::Arc;

/// Minimum dimension for the sparse path to pay for its indirection.
const SPARSE_MIN_DIM: usize = 9;

/// Maximum structural fill ratio (`nnz / dim²`) at which the sparse path is
/// still expected to beat dense factorization, for OTA-sized systems
/// (calibrated on the dim-18 telescopic testbench in PR 3).
const SPARSE_MAX_FILL: f64 = 0.42;

/// Dimension above which the fill threshold relaxes to
/// [`SPARSE_MAX_FILL_LARGE`]: dense elimination grows as `dim³` while the
/// Markowitz-ordered factor of MNA-shaped patterns grows near-linearly, so
/// the break-even fill rises with dimension. Calibrated on the full-pipeline
/// chain testbenches (dim ≥ 100, ladder-shaped; see EXPERIMENTS.md §6).
const SPARSE_LARGE_DIM: usize = 64;

/// Fill threshold for `dim ≥` [`SPARSE_LARGE_DIM`] systems.
const SPARSE_MAX_FILL_LARGE: f64 = 0.60;

/// Whether a system of dimension `dim` with `nnz` structural nonzeros
/// should take the sparse path. The dense path remains the oracle; this is
/// a pure performance heuristic (tiny or nearly full matrices factor
/// faster densely). The fill threshold is dimension-dependent: at chain
/// scale (dim in the hundreds) sparse wins even on much denser patterns
/// than the OTA-scale break-even.
#[must_use]
pub fn prefer_sparse(dim: usize, nnz: usize) -> bool {
    if dim < SPARSE_MIN_DIM {
        return false;
    }
    let max_fill = if dim >= SPARSE_LARGE_DIM {
        SPARSE_MAX_FILL_LARGE
    } else {
        SPARSE_MAX_FILL
    };
    (nnz as f64) <= max_fill * (dim * dim) as f64
}

/// Immutable sparsity pattern of a square matrix in CSR form, shared (via
/// [`Arc`]) between the value arrays stamped per solve and the symbolic
/// factorization computed once per topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrPattern {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
}

impl CsrPattern {
    /// Builds a pattern from (possibly duplicated) `(row, col)` entries and
    /// returns it together with the **slot map**: `slots[k]` is the
    /// nonzero index that entry `k` accumulates into, so stamp routines can
    /// write values through precomputed indices without any hashing.
    ///
    /// # Panics
    /// Panics if any entry lies outside `n × n`.
    pub fn from_entries(n: usize, entries: &[(usize, usize)]) -> (Arc<CsrPattern>, Vec<usize>) {
        let mut per_row: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(r, c) in entries {
            assert!(r < n && c < n, "entry ({r}, {c}) outside {n}×{n}");
            per_row[r].push(c);
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        row_ptr.push(0);
        for cols in &mut per_row {
            cols.sort_unstable();
            cols.dedup();
            col_idx.extend_from_slice(cols);
            row_ptr.push(col_idx.len());
        }
        let pat = CsrPattern {
            n,
            row_ptr,
            col_idx,
        };
        let slots = entries
            .iter()
            .map(|&(r, c)| pat.find(r, c).expect("entry present by construction"))
            .collect();
        (Arc::new(pat), slots)
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Structural fill ratio `nnz / dim²` (1.0 for an empty pattern).
    pub fn fill_ratio(&self) -> f64 {
        if self.n == 0 {
            1.0
        } else {
            self.nnz() as f64 / (self.n * self.n) as f64
        }
    }

    /// Nonzero index of `(r, c)`, if structurally present.
    pub fn find(&self, r: usize, c: usize) -> Option<usize> {
        let row = &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]];
        row.binary_search(&c).ok().map(|p| self.row_ptr[r] + p)
    }

    /// Column indices of row `r`.
    fn row_cols(&self, r: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
    }
}

/// Sparse matrix of [`Scalar`] entries (`f64` by default): shared
/// [`CsrPattern`] plus a value per nonzero.
#[derive(Debug, Clone)]
pub struct CsrMatrix<T = f64> {
    pattern: Arc<CsrPattern>,
    vals: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Zero matrix over a pattern.
    pub fn zeros(pattern: Arc<CsrPattern>) -> Self {
        let n = pattern.nnz();
        CsrMatrix {
            pattern,
            vals: vec![T::ZERO; n],
        }
    }

    /// The shared sparsity pattern.
    pub fn pattern(&self) -> &Arc<CsrPattern> {
        &self.pattern
    }

    /// The value array, aligned with the pattern's nonzeros.
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// Mutable value array (stamp through slot indices from
    /// [`CsrPattern::from_entries`]).
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.vals
    }

    /// Accumulates `v` into nonzero slot `slot`.
    #[inline]
    pub fn add_slot(&mut self, slot: usize, v: T) {
        self.vals[slot] += v;
    }

    /// Densifies to a [`Matrix`] (oracle comparisons in tests).
    pub fn to_dense(&self) -> Matrix<T> {
        let p = &self.pattern;
        let mut m = Matrix::zeros(p.n, p.n);
        for r in 0..p.n {
            for (idx, &c) in p.row_cols(r).iter().enumerate() {
                m[(r, c)] = self.vals[p.row_ptr[r] + idx];
            }
        }
        m
    }
}

impl CsrMatrix {
    /// Matrix–vector product into a caller-owned buffer (no allocation).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        self.pattern.mul_vec_into(&self.vals, x, y);
    }
}

impl CsrPattern {
    /// `y = A·x` for the matrix with values `vals` on this pattern (a
    /// caller that keeps several value arrays over one pattern multiplies
    /// any of them without copying it into a [`CsrMatrix`]).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn mul_vec_into(&self, vals: &[f64], x: &[f64], y: &mut [f64]) {
        assert_eq!(vals.len(), self.nnz(), "pattern mismatch");
        assert_eq!(x.len(), self.n, "dimension mismatch");
        assert_eq!(y.len(), self.n, "dimension mismatch");
        for (r, yr) in y.iter_mut().enumerate() {
            let mut s = 0.0;
            for (idx, &c) in self.row_cols(r).iter().enumerate() {
                s += vals[self.row_ptr[r] + idx] * x[c];
            }
            *yr = s;
        }
    }
}

/// Symbolic LU factorization of a [`CsrPattern`]: pivot ordering, predicted
/// fill pattern and scatter maps, computed **once per topology** and shared
/// by any number of numeric refactorizations (real or complex). It also
/// answers which factor rows a subset of the input values reaches
/// ([`Symbolic::dependent_rows`]), for refactorizations that change only
/// that subset.
#[derive(Debug, PartialEq)]
pub struct Symbolic {
    n: usize,
    /// Permuted row `i` is original row `row_perm[i]`.
    row_perm: Vec<usize>,
    /// Permuted column `j` is original column `col_perm[j]`.
    col_perm: Vec<usize>,
    /// Parity of the combined row/column permutation (±1), folded into the
    /// determinant.
    sign: f64,
    /// Filled factor pattern (L strictly below + U incl. diagonal), CSR by
    /// permuted row, columns ascending.
    f_row_ptr: Vec<usize>,
    f_col: Vec<usize>,
    /// Absolute index (into `f_col`/factor values) of each row's diagonal.
    f_diag: Vec<usize>,
    /// Input nonzero `k` scatters into factor position `scatter[k]`.
    scatter: Vec<usize>,
    /// Elimination schedule: for each row `i` (ascending), each
    /// eliminating position `pos ∈ row_ptr[i]..f_diag[i]` (ascending), the
    /// factor positions *within row i* receiving row `j = f_col[pos]`'s
    /// update entries `f_diag[j]+1..row_ptr[j+1]`, flattened in order. The
    /// fill closure guarantees every update column exists in row `i`, so
    /// both factorizations — [`SparseLu`] (real or complex) and
    /// [`CSparseLuBatch`] — eliminate in place along this one schedule, in
    /// the scratch-row walk's arithmetic order exactly.
    e_target: Vec<usize>,
    /// The analyzed input pattern (refactor sanity checks).
    pattern: Arc<CsrPattern>,
}

impl Symbolic {
    /// Chooses a fill-reducing pivot order for `pattern` by structural
    /// Markowitz selection (minimize `(r−1)·(c−1)` over remaining
    /// structural nonzeros, preferring diagonal pivots on ties — node
    /// diagonals carry conductance sums and are numerically the safest),
    /// simulates the elimination to predict fill-in, and freezes the factor
    /// pattern plus scatter maps.
    ///
    /// Cost model: the simulation runs over row and column bitsets of the
    /// live pattern, `w = ⌈n/64⌉` words each. Per elimination step, the
    /// Markowitz counts are popcounts of each alive row (column) against
    /// the alive-column (alive-row) mask, O(n·w); the candidate scan
    /// visits only the live bits of the active submatrix, O(nnz_active);
    /// and fill ORs the pivot row into each live row of the pivot column
    /// (and the pivot column into each live column of the pivot row),
    /// O((|R| + |C|)·w). On MNA patterns, where w ≤ 3 up to dim 192 and
    /// the active submatrix stays sparse, that is O(n²) for the whole
    /// analysis — not the dense simulation's O(n³) boolean sweeps, which
    /// at chain scale (dim 110–150) cost more than ten whole chain DC
    /// solves per workspace built. The fill the simulation leaves behind
    /// *is* the factor pattern: it is the same closure a no-pivot
    /// elimination over the
    /// permuted pattern computes, so it is read off the final live set.
    /// [`Symbolic::analyze_reference`] is the dense oracle; both return
    /// identical analyses field for field.
    ///
    /// # Errors
    /// Returns [`NumericsError::SingularMatrix`] if the pattern is
    /// structurally singular (some elimination step has no candidate
    /// pivot).
    pub fn analyze(pattern: &Arc<CsrPattern>) -> NumResult<Arc<Symbolic>> {
        let n = pattern.dim();
        let w = n.div_ceil(64);
        let bit = |i: usize| 1u64 << (i % 64);
        // Live pattern as row bitsets (`rows[r·w..]`) and column bitsets
        // (`cols[c·w..]`), kept in step through the fill.
        let mut rows = vec![0u64; n * w];
        let mut cols = vec![0u64; n * w];
        for r in 0..n {
            for &c in pattern.row_cols(r) {
                rows[r * w + c / 64] |= bit(c);
                cols[c * w + r / 64] |= bit(r);
            }
        }
        // Original entries: static pivots prefer these (see
        // `analyze_reference` for why predicted fill is unsafe).
        let original = rows.clone();
        let mut row_alive = vec![0u64; w];
        for i in 0..n {
            row_alive[i / 64] |= bit(i);
        }
        let mut col_alive = row_alive.clone();
        let mut row_perm = Vec::with_capacity(n);
        let mut col_perm = Vec::with_capacity(n);
        let mut row_cnt = vec![0usize; n];
        let mut col_cnt = vec![0usize; n];
        let mut fill_rows = vec![0u64; w];
        let mut fill_cols = vec![0u64; w];
        for step in 0..n {
            for r in set_bits(&row_alive) {
                row_cnt[r] = popcount_and(&rows[r * w..(r + 1) * w], &col_alive);
            }
            for c in set_bits(&col_alive) {
                col_cnt[c] = popcount_and(&cols[c * w..(c + 1) * w], &row_alive);
            }
            // Same lexicographic selection key as the dense oracle.
            let mut best: Option<(bool, usize, bool, usize, usize)> = None;
            for r in set_bits(&row_alive) {
                let row = &rows[r * w..(r + 1) * w];
                for c in set_bits_and(row, &col_alive) {
                    let cost = (row_cnt[r] - 1) * (col_cnt[c] - 1);
                    let is_fill = original[r * w + c / 64] & bit(c) == 0;
                    let key = (is_fill, cost, r != c, r, c);
                    if best.map_or(true, |bk| key < bk) {
                        best = Some(key);
                    }
                }
            }
            let Some((_, _, _, pr, pc)) = best else {
                return Err(NumericsError::SingularMatrix { step, pivot: 0.0 });
            };
            row_alive[pr / 64] &= !bit(pr);
            col_alive[pc / 64] &= !bit(pc);
            // Fill: every remaining row with an entry in column pc gains
            // every remaining column with an entry in row pr.
            for (k, f) in fill_rows.iter_mut().enumerate() {
                *f = cols[pc * w + k] & row_alive[k];
            }
            for (k, f) in fill_cols.iter_mut().enumerate() {
                *f = rows[pr * w + k] & col_alive[k];
            }
            for r in set_bits(&fill_rows) {
                for (dst, &src) in rows[r * w..(r + 1) * w].iter_mut().zip(&fill_cols) {
                    *dst |= src;
                }
            }
            for c in set_bits(&fill_cols) {
                for (dst, &src) in cols[c * w..(c + 1) * w].iter_mut().zip(&fill_rows) {
                    *dst |= src;
                }
            }
            row_perm.push(pr);
            col_perm.push(pc);
        }

        // Factor pattern: permuted row i holds the final live set of
        // original row `row_perm[i]`, relabelled into permuted columns.
        let mut col_perm_inv = vec![0usize; n];
        for (j, &pc) in col_perm.iter().enumerate() {
            col_perm_inv[pc] = j;
        }
        let mut f_row_ptr = Vec::with_capacity(n + 1);
        let mut f_col = Vec::new();
        let mut f_diag = vec![0usize; n];
        f_row_ptr.push(0);
        for (i, &pr) in row_perm.iter().enumerate() {
            let start = f_col.len();
            f_col.extend(set_bits(&rows[pr * w..(pr + 1) * w]).map(|c| col_perm_inv[c]));
            f_col[start..].sort_unstable();
            f_diag[i] = start + f_col[start..].partition_point(|&j| j < i);
            f_row_ptr.push(f_col.len());
        }
        Ok(Symbolic::freeze(
            pattern, row_perm, col_perm, f_row_ptr, f_col, f_diag,
        ))
    }

    /// Dense oracle for [`Symbolic::analyze`]: the original boolean
    /// simulation of the elimination, O(n²) per step, followed by a second
    /// no-pivot pass over the permuted pattern to recompute the fill. Kept
    /// so tests can pin the bitset analysis to it field for field.
    ///
    /// # Errors
    /// Returns [`NumericsError::SingularMatrix`] if the pattern is
    /// structurally singular (some elimination step has no candidate
    /// pivot).
    pub fn analyze_reference(pattern: &Arc<CsrPattern>) -> NumResult<Arc<Symbolic>> {
        let n = pattern.dim();
        let mut live = vec![false; n * n];
        for r in 0..n {
            for &c in pattern.row_cols(r) {
                live[r * n + c] = true;
            }
        }
        // Original (pre-fill) entries: static pivots prefer these. A
        // predicted-fill position is only "nonzero" if the numeric updates
        // that create it never cancel — and on MNA systems with ±gain
        // controlled-source pairs they regularly cancel *exactly*, which a
        // frozen ordering cannot recover from. Original entries carry
        // element stamps (conductance sums with a g_min floor, ±1 source
        // incidences), the values static pivoting is actually safe on.
        let original = live.clone();
        let mut row_alive = vec![true; n];
        let mut col_alive = vec![true; n];
        let mut row_perm = Vec::with_capacity(n);
        let mut col_perm = Vec::with_capacity(n);
        let mut row_cnt = vec![0usize; n];
        let mut col_cnt = vec![0usize; n];
        for step in 0..n {
            for cnt in row_cnt.iter_mut() {
                *cnt = 0;
            }
            for cnt in col_cnt.iter_mut() {
                *cnt = 0;
            }
            for r in 0..n {
                if !row_alive[r] {
                    continue;
                }
                for c in 0..n {
                    if col_alive[c] && live[r * n + c] {
                        row_cnt[r] += 1;
                        col_cnt[c] += 1;
                    }
                }
            }
            let mut best: Option<(bool, usize, bool, usize, usize)> = None;
            for r in 0..n {
                if !row_alive[r] {
                    continue;
                }
                for c in 0..n {
                    if !col_alive[c] || !live[r * n + c] {
                        continue;
                    }
                    let cost = (row_cnt[r] - 1) * (col_cnt[c] - 1);
                    // Selection key, lexicographic: original entries before
                    // fill, then minimum Markowitz cost, then diagonal
                    // preference, then lowest position (deterministic).
                    let key = (!original[r * n + c], cost, r != c, r, c);
                    let better = match best {
                        None => true,
                        Some(bk) => key < bk,
                    };
                    if better {
                        best = Some(key);
                    }
                }
            }
            let Some((_, _, _, pr, pc)) = best else {
                return Err(NumericsError::SingularMatrix { step, pivot: 0.0 });
            };
            // Predict fill: eliminating (pr, pc) links every remaining row
            // with an entry in column pc to every remaining column with an
            // entry in row pr.
            for r in 0..n {
                if !row_alive[r] || r == pr || !live[r * n + pc] {
                    continue;
                }
                for c in 0..n {
                    if col_alive[c] && c != pc && live[pr * n + c] {
                        live[r * n + c] = true;
                    }
                }
            }
            row_alive[pr] = false;
            col_alive[pc] = false;
            row_perm.push(pr);
            col_perm.push(pc);
        }

        let mut col_perm_inv = vec![0usize; n];
        for (j, &pc) in col_perm.iter().enumerate() {
            col_perm_inv[pc] = j;
        }

        // Recompute the fill pattern in permuted coordinates: the same
        // elimination, now as a plain no-pivot simulation.
        let mut filled = vec![false; n * n];
        for (i, &pr) in row_perm.iter().enumerate() {
            for &c in pattern.row_cols(pr) {
                filled[i * n + col_perm_inv[c]] = true;
            }
        }
        for k in 0..n {
            for i in (k + 1)..n {
                if !filled[i * n + k] {
                    continue;
                }
                for j in (k + 1)..n {
                    if filled[k * n + j] {
                        filled[i * n + j] = true;
                    }
                }
            }
        }

        let mut f_row_ptr = Vec::with_capacity(n + 1);
        let mut f_col = Vec::new();
        let mut f_diag = vec![0usize; n];
        f_row_ptr.push(0);
        for i in 0..n {
            for j in 0..n {
                if filled[i * n + j] {
                    if j == i {
                        f_diag[i] = f_col.len();
                    }
                    f_col.push(j);
                }
            }
            f_row_ptr.push(f_col.len());
        }
        Ok(Symbolic::freeze(
            pattern, row_perm, col_perm, f_row_ptr, f_col, f_diag,
        ))
    }

    /// Freezes an elimination order and its filled factor pattern (CSR by
    /// permuted row, columns ascending, `f_diag` at each row's pivot) into
    /// a [`Symbolic`]: the input scatter map, the in-place elimination
    /// schedule and the permutation parity.
    ///
    /// # Panics
    /// Panics if a row's pivot is missing from its filled pattern.
    fn freeze(
        pattern: &Arc<CsrPattern>,
        row_perm: Vec<usize>,
        col_perm: Vec<usize>,
        f_row_ptr: Vec<usize>,
        f_col: Vec<usize>,
        f_diag: Vec<usize>,
    ) -> Arc<Symbolic> {
        let n = pattern.dim();
        let mut row_perm_inv = vec![0usize; n];
        let mut col_perm_inv = vec![0usize; n];
        for (i, &pr) in row_perm.iter().enumerate() {
            row_perm_inv[pr] = i;
        }
        for (j, &pc) in col_perm.iter().enumerate() {
            col_perm_inv[pc] = j;
        }
        for (i, &d) in f_diag.iter().enumerate() {
            assert!(
                f_col.get(d) == Some(&i),
                "pivot ({i}, {i}) missing from the filled pattern"
            );
        }

        // Scatter map: original nonzero k → factor position.
        let mut scatter = Vec::with_capacity(pattern.nnz());
        for (r, &pi) in row_perm_inv.iter().enumerate() {
            for &c in pattern.row_cols(r) {
                let (i, j) = (pi, col_perm_inv[c]);
                let row = &f_col[f_row_ptr[i]..f_row_ptr[i + 1]];
                let pos = row.binary_search(&j).expect("input entry inside fill");
                scatter.push(f_row_ptr[i] + pos);
            }
        }

        // Elimination schedule: in-row target position of every update.
        let mut e_target = Vec::new();
        let mut colpos = vec![0usize; n];
        for i in 0..n {
            let (start, end) = (f_row_ptr[i], f_row_ptr[i + 1]);
            for pos in start..end {
                colpos[f_col[pos]] = pos;
            }
            for pos in start..f_diag[i] {
                let j = f_col[pos];
                for q in (f_diag[j] + 1)..f_row_ptr[j + 1] {
                    e_target.push(colpos[f_col[q]]);
                }
            }
        }

        let sign = perm_sign(&row_perm) * perm_sign(&col_perm);
        Arc::new(Symbolic {
            n,
            row_perm,
            col_perm,
            sign,
            f_row_ptr,
            f_col,
            f_diag,
            scatter,
            e_target,
            pattern: Arc::clone(pattern),
        })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Nonzeros in the factors (input nonzeros + predicted fill).
    pub fn factor_nnz(&self) -> usize {
        self.f_col.len()
    }

    /// The input pattern this analysis was computed for.
    pub fn pattern(&self) -> &Arc<CsrPattern> {
        &self.pattern
    }

    /// The factor rows that the input nonzeros `varying` (indices into the
    /// analyzed pattern's nonzeros) reach: every permuted row holding one
    /// of them, and every later row that eliminates against a reached row,
    /// transitively. Every other row's factors depend only on the other
    /// input values, so while those stay unchanged,
    /// [`SparseLu::refactor_into`] refactors the reached rows alone.
    ///
    /// # Panics
    /// Panics if a nonzero index lies outside the pattern.
    pub fn dependent_rows(&self, varying: &[usize]) -> DependentRows {
        let p = &self.pattern;
        let mut row_perm_inv = vec![0usize; self.n];
        for (i, &r) in self.row_perm.iter().enumerate() {
            row_perm_inv[r] = i;
        }
        let mut reached = vec![false; self.n];
        for &k in varying {
            assert!(k < p.nnz(), "nonzero {k} outside the pattern");
            // Original row of nonzero k: the last row starting at or
            // before it.
            let r = p.row_ptr.partition_point(|&start| start <= k) - 1;
            reached[row_perm_inv[r]] = true;
        }
        // Rows finish in ascending order, so one ascending sweep closes
        // the set: row i is reached once any row it eliminates against is.
        for i in 0..self.n {
            if !reached[i] {
                let eliminating = &self.f_col[self.f_row_ptr[i]..self.f_diag[i]];
                reached[i] = eliminating.iter().any(|&j| reached[j]);
            }
        }
        let mut out = DependentRows {
            n: self.n,
            rows: Vec::new(),
            inputs: Vec::new(),
        };
        let mut cursor = 0;
        for (i, &reached) in reached.iter().enumerate() {
            if reached {
                out.rows.push((i, cursor));
                let r = self.row_perm[i];
                out.inputs.extend(p.row_ptr[r]..p.row_ptr[r + 1]);
            }
            // Row i's stretch of the schedule: row j's upper entries for
            // every j it eliminates against.
            for &j in &self.f_col[self.f_row_ptr[i]..self.f_diag[i]] {
                cursor += self.f_row_ptr[j + 1] - self.f_diag[j] - 1;
            }
        }
        out
    }
}

/// The factor rows a subset of a pattern's input values reaches, in
/// elimination order ([`Symbolic::dependent_rows`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependentRows {
    /// Dimension of the analysis the rows belong to.
    n: usize,
    /// Permuted row indices, ascending, each with the cursor of its
    /// stretch of the elimination schedule `Symbolic::e_target`.
    rows: Vec<(usize, usize)>,
    /// The input nonzeros that load those rows.
    inputs: Vec<usize>,
}

impl DependentRows {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no row depends on the varying values.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Indices of the set bits of a bitset, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    set_bits_and(words, words)
}

/// Indices of the bits set in both `a` and `b`, ascending.
fn set_bits_and<'a>(a: &'a [u64], b: &'a [u64]) -> impl Iterator<Item = usize> + 'a {
    a.iter().zip(b).enumerate().flat_map(|(k, (&x, &y))| {
        let mut word = x & y;
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let b = word.trailing_zeros() as usize;
                word &= word - 1;
                k * 64 + b
            })
        })
    })
}

/// Number of bits set in both `a` and `b`.
fn popcount_and(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x & y).count_ones() as usize)
        .sum()
}

/// Parity (±1) of a permutation via cycle decomposition.
fn perm_sign(perm: &[usize]) -> f64 {
    let mut seen = vec![false; perm.len()];
    let mut sign = 1.0;
    for start in 0..perm.len() {
        if seen[start] {
            continue;
        }
        let mut len = 0usize;
        let mut i = start;
        while !seen[i] {
            seen[i] = true;
            i = perm[i];
            len += 1;
        }
        if len % 2 == 0 {
            sign = -sign;
        }
    }
    sign
}

/// Guards a refactorization: the matrix must live on the analyzed pattern
/// (pointer fast path, structural equality fallback) or the scatter map
/// would silently place values at wrong factor positions.
fn assert_pattern_matches(pattern: &Arc<CsrPattern>, sym: &Symbolic) {
    assert!(
        Arc::ptr_eq(pattern, sym.pattern()) || pattern == sym.pattern(),
        "matrix pattern differs from the analyzed pattern"
    );
}

/// Numeric factorization following the frozen symbolic pattern: loads
/// every factor row from `avals` (the storage zeroed, then `+= a` through
/// the scatter map) and eliminates the rows in order
/// ([`eliminate_row`]), each schedule stretch following the last.
fn factor_full<T: Scalar>(sym: &Symbolic, avals: &[T], fvals: &mut [T]) -> NumResult<()> {
    assert_eq!(avals.len(), sym.scatter.len(), "pattern mismatch");
    fvals.fill(T::ZERO);
    for (k, &v) in avals.iter().enumerate() {
        fvals[sym.scatter[k]] += v;
    }
    let mut cur = 0;
    for i in 0..sym.n {
        cur = eliminate_row(sym, fvals, i, cur)?;
    }
    Ok(())
}

/// [`factor_full`] of the dependent rows `rows` alone: loads each of them
/// (zeroed, then `+= a` over its input nonzeros — through the injective
/// scatter map exactly the values the full load leaves there, signed zeros
/// included) and eliminates them in order, each from its own schedule
/// cursor. Every other row keeps the factors it holds.
fn factor_dependent<T: Scalar>(
    sym: &Symbolic,
    rows: &DependentRows,
    avals: &[T],
    fvals: &mut [T],
) -> NumResult<()> {
    assert_eq!(avals.len(), sym.scatter.len(), "pattern mismatch");
    for (i, _) in &rows.rows {
        fvals[sym.f_row_ptr[*i]..sym.f_row_ptr[i + 1]].fill(T::ZERO);
    }
    for &k in &rows.inputs {
        fvals[sym.scatter[k]] += avals[k];
    }
    for &(i, cur) in &rows.rows {
        eliminate_row(sym, fvals, i, cur)?;
    }
    Ok(())
}

/// The row elimination of every factorization: up-looking row LU
/// (Doolittle) of the loaded row `i` in place in the factor storage, along
/// the elimination schedule `Symbolic::e_target` from cursor `cur` — zero
/// allocation, no pivot search. Returns the cursor of the next row's
/// stretch.
///
/// Each update is the rounded `f = a_ij / u_jj`, then `a_it -= f · u_jt`
/// over row `j`'s upper entries in column order, rows `j` ascending: the
/// scratch-row walk's operations in its order, so the factors are
/// bit-identical to it. The row's result depends only on its loaded
/// values and the rows it eliminates against, which is why a partial
/// refactorization that eliminates every row a change reaches equals a
/// full one.
///
/// # Errors
/// [`NumericsError::SingularMatrix`] at step `i` when the row's pivot
/// underflows.
#[inline(always)]
fn eliminate_row<T: Scalar>(
    sym: &Symbolic,
    fvals: &mut [T],
    i: usize,
    mut cur: usize,
) -> NumResult<usize> {
    // Eliminate against every finished row j < i in this row's pattern.
    for pos in sym.f_row_ptr[i]..sym.f_diag[i] {
        let j = sym.f_col[pos];
        let f = fvals[pos] / fvals[sym.f_diag[j]];
        fvals[pos] = f;
        let (d, e) = (sym.f_diag[j] + 1, sym.f_row_ptr[j + 1]);
        for (q, &t) in (d..e).zip(&sym.e_target[cur..cur + (e - d)]) {
            fvals[t] -= f * fvals[q];
        }
        cur += e - d;
    }
    let piv = fvals[sym.f_diag[i]];
    if !piv.mag_ge(SINGULAR_TOL) {
        return Err(NumericsError::SingularMatrix {
            step: i,
            pivot: piv.mag(),
        });
    }
    Ok(cur)
}

/// Permuted forward/back substitution using the stored factors.
fn solve_core<T: Scalar>(sym: &Symbolic, fvals: &[T], b: &[T], y: &mut [T], x: &mut [T]) {
    assert_eq!(b.len(), sym.n, "dimension mismatch");
    assert_eq!(x.len(), sym.n, "dimension mismatch");
    // L y = P_r b (unit diagonal).
    for i in 0..sym.n {
        let mut s = b[sym.row_perm[i]];
        for pos in sym.f_row_ptr[i]..sym.f_diag[i] {
            s -= fvals[pos] * y[sym.f_col[pos]];
        }
        y[i] = s;
    }
    // U x' = y, then undo the column permutation.
    for i in (0..sym.n).rev() {
        let mut s = y[i];
        for pos in (sym.f_diag[i] + 1)..sym.f_row_ptr[i + 1] {
            s -= fvals[pos] * y[sym.f_col[pos]];
        }
        y[i] = s / fvals[sym.f_diag[i]];
    }
    for (j, &pc) in sym.col_perm.iter().enumerate() {
        x[pc] = y[j];
    }
}

/// Determinant from the product of pivots in elimination order, the
/// permutation parity folded in first.
fn det_core<T: Scalar>(sym: &Symbolic, fvals: &[T]) -> T {
    sym.f_diag
        .iter()
        .fold(T::from_real(sym.sign), |d, &p| d * fvals[p])
}

/// Reusable sparse LU over a frozen [`Symbolic`] — the sparse sibling of
/// [`crate::linalg::Lu`], real or complex. One factorization serves both
/// [`SparseLu::det`] (TF-extraction sampling) and any number of solves.
/// A Newton loop whose iterations change only a known subset of the values
/// refactors the rows that subset reaches ([`SparseLu::refactor_into`]);
/// the workspace keeps track of whether its factors are valid to build on.
///
/// # Example
/// ```
/// use adc_numerics::sparse::{CsrMatrix, CsrPattern, SparseLu, Symbolic};
/// // [[2, 1], [1, 3]] x = [3, 5]  ⇒  x = [0.8, 1.4]
/// let (pat, slots) = CsrPattern::from_entries(2, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
/// let mut a = CsrMatrix::zeros(pat.clone());
/// for (&s, v) in slots.iter().zip([2.0, 1.0, 1.0, 3.0]) {
///     a.add_slot(s, v);
/// }
/// let sym = Symbolic::analyze(&pat).unwrap();
/// let mut lu = SparseLu::new(sym);
/// lu.factor_into(&a).unwrap();
/// let mut x = [0.0; 2];
/// lu.solve_into(&[3.0, 5.0], &mut x);
/// assert!((x[0] - 0.8).abs() < 1e-12 && (x[1] - 1.4).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct SparseLu<T = f64> {
    sym: Arc<Symbolic>,
    fvals: Vec<T>,
    y: Vec<T>,
    /// `fvals` holds the factors of the last factorization, which
    /// succeeded, and no invalidation came since.
    valid: bool,
}

impl<T: Scalar> SparseLu<T> {
    /// Creates a numeric factorization workspace over a symbolic analysis.
    pub fn new(sym: Arc<Symbolic>) -> Self {
        let (nnz, n) = (sym.factor_nnz(), sym.dim());
        SparseLu {
            sym,
            fvals: vec![T::ZERO; nnz],
            y: vec![T::ZERO; n],
            valid: false,
        }
    }

    /// The shared symbolic factorization.
    pub fn symbolic(&self) -> &Arc<Symbolic> {
        &self.sym
    }

    /// Refactors `a` (same pattern as analyzed) into the frozen fill
    /// pattern — no allocation, no pivot search.
    ///
    /// # Errors
    /// Returns [`NumericsError::SingularMatrix`] if a pivot magnitude
    /// underflows under the static ordering; callers fall back to dense
    /// partial pivoting.
    ///
    /// # Panics
    /// Panics if `a`'s pattern is not the pattern this factorization was
    /// analyzed for (the scatter map is pattern-specific).
    pub fn factor_into(&mut self, a: &CsrMatrix<T>) -> NumResult<()> {
        assert_pattern_matches(a.pattern(), &self.sym);
        let out = factor_full(&self.sym, a.values(), &mut self.fvals);
        self.valid = out.is_ok();
        out
    }

    /// Refactors only the rows of `rows` when the stored factors are
    /// valid, and in full otherwise, with the result of
    /// [`SparseLu::factor_into`] bit for bit (factors, pivot test and
    /// error alike).
    ///
    /// The caller guarantees that, since the last successful
    /// factorization, no input value changed except at the nonzeros `rows`
    /// was derived from ([`Symbolic::dependent_rows`]); before any other
    /// value changes, it calls [`SparseLu::invalidate`]. The factors are
    /// valid after a successful factorization, and not after a failed one
    /// or an invalidation.
    ///
    /// # Errors
    /// As [`SparseLu::factor_into`]: a partial refactorization reports the
    /// same step and pivot, because the rows it skips passed the pivot
    /// test with these very values.
    ///
    /// # Panics
    /// Panics if `a`'s pattern is not the analyzed one, or `rows` belongs
    /// to an analysis of another dimension.
    pub fn refactor_into(&mut self, a: &CsrMatrix<T>, rows: &DependentRows) -> NumResult<()> {
        if !self.valid {
            return self.factor_into(a);
        }
        assert_pattern_matches(a.pattern(), &self.sym);
        assert_eq!(rows.n, self.sym.n, "rows of another analysis");
        let out = factor_dependent(&self.sym, rows, a.values(), &mut self.fvals);
        self.valid = out.is_ok();
        out
    }

    /// Marks the stored factors stale: the next
    /// [`SparseLu::refactor_into`] factors every row.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Solves `A x = b` into a caller-owned buffer using the stored
    /// factors (no allocation).
    ///
    /// # Panics
    /// Panics if `b.len()` or `x.len()` differs from the dimension.
    pub fn solve_into(&mut self, b: &[T], x: &mut [T]) {
        let y = &mut self.y;
        solve_core(&self.sym, &self.fvals, b, y, x);
    }

    /// Determinant from the product of pivots (permutation parity folded
    /// in).
    pub fn det(&self) -> T {
        det_core(&self.sym, &self.fvals)
    }
}

/// Maximum lane count of the batched factor storage.
const ML: usize = crate::simd::MAX_LANES;

/// Batched sparse complex LU over a frozen [`Symbolic`]: factors the same
/// pattern at up to [`crate::simd::MAX_LANES`] frequency samples
/// `Y(s_l) = G + s_l·C` through **one** struct-of-arrays workspace, walking
/// the symbolic traversal (row pointers, scatter maps, permutations) once
/// for all lanes instead of once per sample.
///
/// This is the engine behind det-sampling TF extraction and AC sweeps: the
/// per-sample cost there is dominated by pattern traversal and scattered
/// memory walks that are identical across samples. Splitting values into
/// re/im lane arrays (position-major, lane-minor, stride = the batch's
/// actual lane count so partial batches touch proportionally less memory)
/// lets the elimination and both substitutions run as fused lane kernels
/// ([`crate::simd::lane_factor_rows`], [`crate::simd::lane_fwd_all`],
/// [`crate::simd::lane_bwd_all`]): contiguous complex multiply-subtract
/// updates and Smith divisions over lanes, one dispatch per factor or
/// solve.
///
/// **Bit-identity:** every lane reproduces the serial
/// [`SparseLu::factor_into`] / [`SparseLu::solve_into`] /
/// [`SparseLu::det`] results bit for bit — assembly writes `0.0 + v` at
/// base positions and `+0.0` at fill positions exactly as the serial
/// `fill(ZERO)` + accumulate does (signed zeros included), elimination
/// performs the same rounded operations per lane (no FMA), and the lane
/// division reproduces Smith's branchy scalar division per lane. A pivot
/// underflow in **any** lane fails the whole batch
/// ([`NumericsError::SingularMatrix`]); callers redo the chunk serially so
/// per-sample outcomes (including dense fallbacks) match the serial path
/// exactly.
#[derive(Debug)]
pub struct CSparseLuBatch {
    sym: Arc<Symbolic>,
    lanes: usize,
    /// Factor positions *not* written by the (injective) assembly scatter —
    /// the symbolic fill-in. Zeroed explicitly each factorization instead
    /// of memsetting the whole factor storage.
    fill_pos: Vec<usize>,
    f_re: Vec<f64>,
    f_im: Vec<f64>,
    y_re: Vec<f64>,
    y_im: Vec<f64>,
}

impl CSparseLuBatch {
    /// Creates a batch workspace over a symbolic analysis.
    pub fn new(sym: Arc<Symbolic>) -> Self {
        let (nnz, n) = (sym.factor_nnz(), sym.dim());
        let mut is_base = vec![false; nnz];
        for &p in &sym.scatter {
            is_base[p] = true;
        }
        let fill_pos: Vec<usize> = (0..nnz).filter(|&p| !is_base[p]).collect();
        CSparseLuBatch {
            sym,
            lanes: 0,
            fill_pos,
            f_re: vec![0.0; nnz * ML],
            f_im: vec![0.0; nnz * ML],
            y_re: vec![0.0; n * ML],
            y_im: vec![0.0; n * ML],
        }
    }

    /// Factors `Y(s_l) = base + s_l·C` for every sample in `s`
    /// (`1..=MAX_LANES` lanes). `base` is the value array of the analyzed
    /// pattern; `cap_slots[j]`/`cap_vals[j]` address the `s`-scaled entries
    /// by nonzero slot, exactly as [`crate::simd::scatter_add_scaled`]
    /// replays them.
    ///
    /// # Errors
    /// Returns [`NumericsError::SingularMatrix`] if a pivot magnitude
    /// underflows in **any** lane (the whole batch is then invalid — redo
    /// the samples serially).
    ///
    /// # Panics
    /// Panics if `base` does not match the analyzed pattern's nonzero
    /// count, `cap_slots`/`cap_vals` differ in length, or `s` is empty or
    /// longer than [`crate::simd::MAX_LANES`].
    pub fn factor_scaled(
        &mut self,
        base: &[Complex],
        cap_slots: &[usize],
        cap_vals: &[f64],
        s: &[Complex],
    ) -> NumResult<()> {
        let sym = Arc::clone(&self.sym);
        let lanes = s.len();
        assert!((1..=ML).contains(&lanes), "1..={ML} lanes supported");
        assert_eq!(base.len(), sym.scatter.len(), "pattern mismatch");
        assert_eq!(cap_slots.len(), cap_vals.len(), "cap slot/value mismatch");
        self.lanes = lanes;
        // Re-stride the storage to the batch's actual lane count so a
        // 2-lane batch walks a quarter of an 8-lane batch's memory. The
        // capacity was reserved at MAX_LANES, so this never reallocates;
        // stale contents are fine — every position is written below.
        let nnz = sym.factor_nnz();
        self.f_re.resize(nnz * lanes, 0.0);
        self.f_im.resize(nnz * lanes, 0.0);
        self.y_re.resize(sym.n * lanes, 0.0);
        self.y_im.resize(sym.n * lanes, 0.0);
        // Assemble like the serial path: `0.0 + v` at base positions (the
        // scatter map is injective, so this is exactly the serial
        // `fill(ZERO)` + `+=` result, signed zeros included), explicit
        // `+0.0` at the fill-in positions, then the s-scaled cap entries
        // accumulate in entry order — all behind one kernel dispatch.
        let mut s_re = [0.0f64; ML];
        let mut s_im = [0.0f64; ML];
        for (l, &sl) in s.iter().enumerate() {
            s_re[l] = sl.re;
            s_im[l] = sl.im;
        }
        crate::simd::lane_assemble(
            &mut self.f_re,
            &mut self.f_im,
            base,
            &sym.scatter,
            &self.fill_pos,
            cap_slots,
            cap_vals,
            &s_re[..lanes],
            &s_im[..lanes],
            lanes,
        );
        // Up-looking row elimination, all lanes in lockstep, behind a
        // single kernel dispatch and in place in the factor storage via
        // the precomputed elimination schedule (no scatter workspace, no
        // copy in/out). The eliminating pivots passed the singularity
        // check, so exact-zero divisors never reach the kernel; the check
        // itself decides exactly as the serial per-lane `norm() < tol`
        // test would.
        if let Some((step, pivot)) = crate::simd::lane_factor_rows(
            &mut self.f_re,
            &mut self.f_im,
            &sym.f_row_ptr,
            &sym.f_col,
            &sym.f_diag,
            &sym.e_target,
            lanes,
            SINGULAR_TOL,
        ) {
            return Err(NumericsError::SingularMatrix { step, pivot });
        }
        Ok(())
    }

    /// Solves `Y(s_l) x_l = b` for every factored lane, sharing the single
    /// right-hand side. Lane `l`'s solution lands in
    /// `xs[l·n .. (l+1)·n]`. `xs` may cover fewer lanes than were
    /// factored — only the leading `xs.len() / n` lanes are emitted,
    /// which lets callers discard padding lanes added for vector
    /// alignment.
    ///
    /// # Panics
    /// Panics if no factorization is stored, `b.len()` differs from the
    /// dimension, or `xs.len()` is not a positive multiple of `n` of at
    /// most `lanes·n`.
    pub fn solve_into(&mut self, b: &[Complex], xs: &mut [Complex]) {
        let sym = &self.sym;
        let lanes = self.lanes;
        assert!(lanes > 0, "factor before solving");
        assert_eq!(b.len(), sym.n, "dimension mismatch");
        assert_eq!(xs.len() % sym.n, 0, "output length mismatch");
        let out_lanes = xs.len() / sym.n;
        assert!((1..=lanes).contains(&out_lanes), "output length mismatch");
        // L y = P_r b (unit diagonal), all lanes in lockstep, one kernel
        // dispatch for the whole pass — accumulator lanes in registers.
        crate::simd::lane_fwd_all(
            &mut self.y_re,
            &mut self.y_im,
            b,
            &sym.row_perm,
            &sym.f_row_ptr,
            &sym.f_col,
            &sym.f_diag,
            &self.f_re,
            &self.f_im,
            lanes,
        );
        // U x' = y (fused row update + pivot division; pivots passed the
        // singularity check, so exact-zero divisors never reach the
        // kernel), then undo the column permutation per lane.
        crate::simd::lane_bwd_all(
            &mut self.y_re,
            &mut self.y_im,
            &sym.f_row_ptr,
            &sym.f_col,
            &sym.f_diag,
            &self.f_re,
            &self.f_im,
            lanes,
        );
        for (j, &pc) in sym.col_perm.iter().enumerate() {
            let jm = j * lanes;
            for l in 0..out_lanes {
                xs[l * sym.n + pc] = Complex::new(self.y_re[jm + l], self.y_im[jm + l]);
            }
        }
    }

    /// Determinants of the factored lanes (product of pivots in elimination
    /// order, permutation parity folded in — exactly [`SparseLu::det`] per
    /// lane). `dets` may cover fewer lanes than were factored — only the
    /// leading `dets.len()` lanes are emitted, which lets callers discard
    /// padding lanes added for vector alignment.
    ///
    /// # Panics
    /// Panics if `dets` is empty or longer than the factored lane count.
    pub fn det_into(&self, dets: &mut [Complex]) {
        let m = dets.len();
        assert!((1..=self.lanes).contains(&m), "lane count mismatch");
        let lanes = self.lanes;
        // Position-major walk with all requested lane accumulators live:
        // sequential pivot loads, and the per-lane product (exactly
        // Complex::mul — four rounded multiplies, one rounded sub/add per
        // component) vectorizes across lanes.
        let mut acc_re = [0.0f64; ML];
        let mut acc_im = [0.0f64; ML];
        acc_re[..m].fill(self.sym.sign);
        for i in 0..self.sym.n {
            let p = self.sym.f_diag[i] * lanes;
            let pr = &self.f_re[p..p + m];
            let pi = &self.f_im[p..p + m];
            for l in 0..m {
                let (ar, ai) = (acc_re[l], acc_im[l]);
                acc_re[l] = ar * pr[l] - ai * pi[l];
                acc_im[l] = ar * pi[l] + ai * pr[l];
            }
        }
        for (l, d) in dets.iter_mut().enumerate() {
            *d = Complex::new(acc_re[l], acc_im[l]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scratch-row elimination `eliminate_row` replaced, kept as its
    /// oracle: row `i` is copied into a dense row, eliminated there and
    /// copied back.
    fn factor_scratch_row<T: Scalar>(
        sym: &Symbolic,
        avals: &[T],
        fvals: &mut [T],
    ) -> NumResult<()> {
        let mut w = vec![T::ZERO; sym.n];
        fvals.fill(T::ZERO);
        for (k, &v) in avals.iter().enumerate() {
            fvals[sym.scatter[k]] += v;
        }
        for i in 0..sym.n {
            let (start, end) = (sym.f_row_ptr[i], sym.f_row_ptr[i + 1]);
            for pos in start..end {
                w[sym.f_col[pos]] = fvals[pos];
            }
            for pos in start..sym.f_diag[i] {
                let j = sym.f_col[pos];
                let f = w[j] / fvals[sym.f_diag[j]];
                w[j] = f;
                for q in (sym.f_diag[j] + 1)..sym.f_row_ptr[j + 1] {
                    w[sym.f_col[q]] -= f * fvals[q];
                }
            }
            for pos in start..end {
                fvals[pos] = w[sym.f_col[pos]];
            }
            let piv = fvals[sym.f_diag[i]];
            if !piv.mag_ge(SINGULAR_TOL) {
                return Err(NumericsError::SingularMatrix {
                    step: i,
                    pivot: piv.mag(),
                });
            }
        }
        Ok(())
    }

    /// Bit patterns of real or complex values, for exact comparisons.
    trait Bits: Scalar {
        fn bits(self) -> [u64; 2];
    }

    impl Bits for f64 {
        fn bits(self) -> [u64; 2] {
            [self.to_bits(), 0]
        }
    }

    impl Bits for Complex {
        fn bits(self) -> [u64; 2] {
            [self.re.to_bits(), self.im.to_bits()]
        }
    }

    fn bits<T: Bits>(v: &[T]) -> Vec<[u64; 2]> {
        v.iter().map(|&x| x.bits()).collect()
    }

    /// The step and pivot bits of a failed factorization.
    fn failure(r: &NumResult<()>) -> Option<(usize, u64)> {
        match r {
            Ok(()) => None,
            Err(NumericsError::SingularMatrix { step, pivot }) => Some((*step, pivot.to_bits())),
            Err(e) => unreachable!("{e}"),
        }
    }

    /// Factors `avals` in place and along the scratch-row oracle. Both
    /// succeed, or both stop at the same step with the same pivot bits
    /// (by `underflow_step`, when given); the factor values match bit for
    /// bit, and so do the determinant and the solution of `b` that `det`
    /// and `solve_into` return.
    fn pin_to_scratch_row<T: Bits>(
        sym: &Symbolic,
        avals: &[T],
        b: &[T],
        underflow_step: Option<usize>,
    ) -> proptest::CaseResult {
        let zeros = |len: usize| vec![T::ZERO; len];
        let (mut fast, mut oracle) = (zeros(sym.factor_nnz()), zeros(sym.factor_nnz()));
        let got = factor_full(sym, avals, &mut fast);
        let want = factor_scratch_row(sym, avals, &mut oracle);
        prop_assert_eq!(failure(&got), failure(&want));
        if let Some(k) = underflow_step {
            prop_assert!(
                failure(&got).is_some_and(|(step, _)| step <= k),
                "passed step {}",
                k
            );
        }
        prop_assert!(bits(&fast) == bits(&oracle), "factor values");
        if got.is_ok() {
            prop_assert!(
                det_core(sym, &fast).bits() == det_core(sym, &oracle).bits(),
                "det"
            );
            let (mut y, mut x, mut x_oracle) = (zeros(sym.n), zeros(sym.n), zeros(sym.n));
            solve_core(sym, &fast, b, &mut y, &mut x);
            solve_core(sym, &oracle, b, &mut y, &mut x_oracle);
            prop_assert!(bits(&x) == bits(&x_oracle), "solution");
        }
        Ok(())
    }

    /// Random MNA-shaped system of dimension `n` drawn from `seed`, as
    /// `(row, col, conductance, capacitance)` stamps: node rows with a
    /// g_min floor and a grounded capacitance, a ring of RC couplings plus
    /// random ones, one-sided transconductances, and voltage-source branch
    /// rows with ±1 incidences and structurally zero diagonals.
    fn random_mna_system(n: usize, seed: u64) -> Vec<(usize, usize, f64, f64)> {
        let mut state = seed | 1;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let nodes = n - next(n / 4 + 1);
        let mut out: Vec<_> = (0..nodes).map(|i| (i, i, 1e-3, 1e-2)).collect();
        let random: Vec<_> = (0..=next(nodes))
            .map(|_| (next(nodes), next(nodes)))
            .collect();
        for (a, b) in (0..nodes).map(|i| (i, (i + 1) % nodes)).chain(random) {
            let (g, c) = (
                10f64.powf(next(600) as f64 / 100.0 - 4.0),
                next(100) as f64 * 1e-3,
            );
            if a != b {
                out.extend([(a, a, g, c), (b, b, g, c), (a, b, -g, -c), (b, a, -g, -c)]);
            }
        }
        for _ in 0..next(nodes / 2 + 1) {
            out.push((
                next(nodes),
                next(nodes),
                next(2000) as f64 * 1e-3 - 1.0,
                0.0,
            ));
        }
        // Each source drives a node of its own; every other one floats
        // against the neighbouring node.
        let first = next(nodes);
        for br in nodes..n {
            let p = (first + 2 * (br - nodes)) % nodes;
            out.extend([(p, br, 1.0, 0.0), (br, p, 1.0, 0.0)]);
            if next(2) == 0 {
                let m = (p + 1) % nodes;
                out.extend([(m, br, -1.0, 0.0), (br, m, -1.0, 0.0)]);
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The in-place factor reproduces the scratch-row oracle bit for
        /// bit on random MNA-shaped systems with fill-in, real and complex:
        /// factor values, `det`, the solution, and — with one row scaled
        /// into the subnormals — the `SingularMatrix` step and pivot.
        #[test]
        fn in_place_factor_matches_scratch_row_oracle_bitwise(
            n in 4usize..=48,
            seed in 0u64..u64::MAX,
            omega in 1e-2f64..1e2,
            underflow in proptest::bool::ANY,
        ) {
            let stamps = random_mna_system(n, seed);
            let entries: Vec<_> = stamps.iter().map(|&(r, c, _, _)| (r, c)).collect();
            let (pat, slots) = CsrPattern::from_entries(n, &entries);
            let sym = Symbolic::analyze(&pat);
            prop_assume!(sym.as_ref().is_ok_and(|s| s.factor_nnz() > pat.nnz()));
            let sym = sym.unwrap();
            // Permuted row k is original row `row_perm[k]`: scaled by
            // 1e-310, its pivot underflows at elimination step k.
            let k = underflow.then_some(seed as usize % n);
            let tiny = k.map(|k| sym.row_perm[k]);
            let (mut a, mut ca) = (vec![0.0; pat.nnz()], vec![Complex::ZERO; pat.nnz()]);
            for (&slot, &(r, _, g, c)) in slots.iter().zip(&stamps) {
                let scale = if Some(r) == tiny { 1e-310 } else { 1.0 };
                a[slot] += g * scale;
                ca[slot] += Complex::new(g, omega * c) * scale;
            }
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let cb: Vec<Complex> = b.iter().map(|&v| Complex::new(v, 0.5 - v)).collect();
            pin_to_scratch_row(&sym, &a, &b, k)?;
            pin_to_scratch_row(&sym, &ca, &cb, k)?;
        }
    }

    /// Refactors `lu` with `a` through [`SparseLu::refactor_into`] over
    /// `rows`, and a fresh workspace through [`SparseLu::factor_into`]:
    /// both succeed, or both stop at the same step with the same pivot
    /// bits; on success the factor values, the determinant and the
    /// solution of `b` match bit for bit.
    fn pin_refactor_to_fresh<T: Bits>(
        lu: &mut SparseLu<T>,
        a: &CsrMatrix<T>,
        rows: &DependentRows,
        b: &[T],
    ) -> proptest::CaseResult {
        let mut fresh = SparseLu::new(Arc::clone(lu.symbolic()));
        let want = fresh.factor_into(a);
        let got = lu.refactor_into(a, rows);
        prop_assert_eq!(failure(&got), failure(&want));
        if got.is_ok() {
            prop_assert!(bits(&lu.fvals) == bits(&fresh.fvals), "factor values");
            prop_assert!(lu.det().bits() == fresh.det().bits(), "det");
            let (mut x, mut x_fresh) = (vec![T::ZERO; b.len()], vec![T::ZERO; b.len()]);
            lu.solve_into(b, &mut x);
            fresh.solve_into(b, &mut x_fresh);
            prop_assert!(bits(&x) == bits(&x_fresh), "solution");
        }
        Ok(())
    }

    /// Runs the refactorization sequence of a Newton loop whose varying
    /// values are `varying` (a strict subset of the nonzeros) on the
    /// matrix `value(k, round)`, each round pinned to a fresh full
    /// factorization by [`pin_refactor_to_fresh`]:
    /// 1. a full factorization of round 0, which must succeed;
    /// 2. round 1 changes only the varying values: a partial
    ///    refactorization (or, on a failed round, its error);
    /// 3. after [`SparseLu::invalidate`], round 2 changes every value: a
    ///    full factorization;
    /// 4. round 3 changes only the varying values again: partial when round
    ///    2 succeeded, full when it failed.
    fn pin_refactor_rounds<T: Bits>(
        pat: &Arc<CsrPattern>,
        sym: &Arc<Symbolic>,
        rows: &DependentRows,
        value: impl Fn(usize, usize) -> T,
        b: &[T],
    ) -> proptest::CaseResult {
        let matrix = |round: usize| {
            let mut a = CsrMatrix::zeros(Arc::clone(pat));
            for (k, v) in a.values_mut().iter_mut().enumerate() {
                *v = value(k, round);
            }
            a
        };
        let mut lu = SparseLu::new(Arc::clone(sym));
        prop_assume!(lu.factor_into(&matrix(0)).is_ok());
        pin_refactor_to_fresh(&mut lu, &matrix(1), rows, b)?;
        lu.invalidate();
        pin_refactor_to_fresh(&mut lu, &matrix(2), rows, b)?;
        pin_refactor_to_fresh(&mut lu, &matrix(3), rows, b)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Refactoring only the rows that a random subset of varying input
        /// nonzeros reaches reproduces a fresh full factorization bit for
        /// bit on random MNA-shaped systems with fill-in, real and complex:
        /// factor values, `det` and the solution; after an invalidation
        /// the refactorization runs in full. With one reached row scaled
        /// into the subnormals (its original row varies as a whole), both
        /// stop with the same `SingularMatrix` step and pivot, and the
        /// refactorization after that failed full pass runs in full too.
        #[test]
        fn dependent_row_refactor_matches_full_factor_bitwise(
            n in 4usize..=48,
            seed in 0u64..u64::MAX,
            omega in 1e-2f64..1e2,
            underflow in proptest::bool::ANY,
        ) {
            let stamps = random_mna_system(n, seed);
            let entries: Vec<_> = stamps.iter().map(|&(r, c, _, _)| (r, c)).collect();
            let (pat, slots) = CsrPattern::from_entries(n, &entries);
            let sym = Symbolic::analyze(&pat);
            prop_assume!(sym.as_ref().is_ok_and(|s| s.factor_nnz() > pat.nnz()));
            let sym = sym.unwrap();
            // About one nonzero in eight varies, plus the whole original
            // row of permuted row k when it is to underflow.
            let tiny = underflow.then(|| sym.row_perm[seed as usize % n]);
            let mut state = seed.rotate_left(17) | 1;
            let mut varies = vec![false; pat.nnz()];
            for (k, v) in varies.iter_mut().enumerate() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let row = pat.row_ptr.partition_point(|&start| start <= k) - 1;
                *v = state % 8 == 0 || Some(row) == tiny;
            }
            let varying: Vec<usize> = (0..pat.nnz()).filter(|&k| varies[k]).collect();
            prop_assume!(!varying.is_empty() && varying.len() < pat.nnz());
            let rows = sym.dependent_rows(&varying);
            let (mut g, mut c) = (vec![0.0; pat.nnz()], vec![0.0; pat.nnz()]);
            for (&slot, &(_, _, gv, cv)) in slots.iter().zip(&stamps) {
                g[slot] += gv;
                c[slot] += cv;
            }
            // Round r scales the varying values by a factor of their own
            // and, from round 2 on, every other value by 1.5; rounds 1 and
            // 2 scale the underflow row by 1e-310.
            let scale = |k: usize, round: usize| {
                let own = if varies[k] && round > 0 {
                    1.0 + 0.5 * (k as f64 + 1.7 * round as f64).sin()
                } else if round >= 2 {
                    1.5
                } else {
                    1.0
                };
                let row = pat.row_ptr.partition_point(|&start| start <= k) - 1;
                let sub = if Some(row) == tiny && (1..=2).contains(&round) { 1e-310 } else { 1.0 };
                own * sub
            };
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let cb: Vec<Complex> = b.iter().map(|&v| Complex::new(v, 0.5 - v)).collect();
            pin_refactor_rounds(&pat, &sym, &rows, |k, r| g[k] * scale(k, r), &b)?;
            pin_refactor_rounds(
                &pat,
                &sym,
                &rows,
                |k, r| Complex::new(g[k], omega * c[k]) * scale(k, r),
                &cb,
            )?;
        }
    }

    /// The dependent rows of a chain: a varying value in row 0 of a
    /// lower-bidiagonal system reaches every row through the elimination,
    /// one in the last row reaches that row alone.
    #[test]
    fn dependent_rows_close_over_the_elimination() {
        let n = 6;
        let mut entries = vec![(0, 0)];
        for i in 1..n {
            entries.extend([(i, i - 1), (i, i)]);
        }
        let (pat, _) = CsrPattern::from_entries(n, &entries);
        let sym = Symbolic::analyze(&pat).unwrap();
        let first = pat.find(0, 0).unwrap();
        let last = pat.find(n - 1, n - 1).unwrap();
        let rows_of = |k: usize| -> Vec<usize> {
            sym.dependent_rows(&[k])
                .rows
                .iter()
                .map(|&(i, _)| sym.row_perm[i])
                .collect()
        };
        assert_eq!(rows_of(first), (0..n).collect::<Vec<_>>());
        assert_eq!(rows_of(last), vec![n - 1]);
    }

    /// Builds pattern + matrix from dense-style triplets.
    fn csr_from(n: usize, trips: &[(usize, usize, f64)]) -> (Arc<CsrPattern>, CsrMatrix) {
        let entries: Vec<(usize, usize)> = trips.iter().map(|&(r, c, _)| (r, c)).collect();
        let (pat, slots) = CsrPattern::from_entries(n, &entries);
        let mut m = CsrMatrix::zeros(Arc::clone(&pat));
        for (&slot, &(_, _, v)) in slots.iter().zip(trips) {
            m.add_slot(slot, v);
        }
        (pat, m)
    }

    #[test]
    fn pattern_dedups_and_maps_slots() {
        let (pat, slots) = CsrPattern::from_entries(3, &[(0, 0), (0, 2), (0, 0), (2, 1)]);
        assert_eq!(pat.nnz(), 3);
        assert_eq!(slots[0], slots[2], "duplicate entries share a slot");
        assert_eq!(pat.find(0, 2), Some(slots[1]));
        assert_eq!(pat.find(1, 1), None);
        assert!((pat.fill_ratio() - 3.0 / 9.0).abs() < 1e-15);
    }

    #[test]
    fn solve_matches_dense_small() {
        let trips = [
            (0, 0, 2.0),
            (0, 1, 1.0),
            (0, 2, -1.0),
            (1, 0, -3.0),
            (1, 1, -1.0),
            (1, 2, 2.0),
            (2, 0, -2.0),
            (2, 1, 1.0),
            (2, 2, 2.0),
        ];
        let (pat, a) = csr_from(3, &trips);
        let sym = Symbolic::analyze(&pat).unwrap();
        let mut lu = SparseLu::new(sym);
        lu.factor_into(&a).unwrap();
        let mut x = [0.0; 3];
        lu.solve_into(&[8.0, -11.0, -3.0], &mut x);
        let want = [2.0, 3.0, -1.0];
        for (xi, wi) in x.iter().zip(want.iter()) {
            assert!((xi - wi).abs() < 1e-12, "{x:?}");
        }
        let dense_det = a.to_dense().det();
        assert!((lu.det() - dense_det).abs() < 1e-9 * dense_det.abs().max(1.0));
    }

    #[test]
    fn zero_diagonal_handled_by_ordering() {
        // MNA-style: branch row with structurally zero diagonal.
        let trips = [(0, 0, 1e-3), (0, 1, 1.0), (1, 0, 1.0)];
        let (pat, a) = csr_from(2, &trips);
        let sym = Symbolic::analyze(&pat).unwrap();
        let mut lu = SparseLu::new(sym);
        lu.factor_into(&a).unwrap();
        // [[1e-3, 1], [1, 0]] x = [1, 2] ⇒ x = [2, 1 − 2e-3]
        let mut x = [0.0; 2];
        lu.solve_into(&[1.0, 2.0], &mut x);
        assert!((x[0] - 2.0).abs() < 1e-12, "{x:?}");
        assert!((x[1] - (1.0 - 2e-3)).abs() < 1e-12, "{x:?}");
        assert!((lu.det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn structurally_singular_rejected_at_analysis() {
        let (pat, _slots) = CsrPattern::from_entries(2, &[(0, 0), (1, 0)]);
        assert!(matches!(
            Symbolic::analyze(&pat),
            Err(NumericsError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn numerically_singular_rejected_at_refactor() {
        let trips = [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.0)];
        let (pat, a) = csr_from(2, &trips);
        let sym = Symbolic::analyze(&pat).unwrap();
        let mut lu = SparseLu::new(sym);
        assert!(matches!(
            lu.factor_into(&a),
            Err(NumericsError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn refactor_reuses_symbolic_and_buffers() {
        let trips = [(0, 0, 4.0), (0, 1, 3.0), (1, 0, 6.0), (1, 1, 3.0)];
        let (pat, mut a) = csr_from(2, &trips);
        let sym = Symbolic::analyze(&pat).unwrap();
        let mut lu = SparseLu::new(Arc::clone(&sym));
        for scale in [1.0, 2.0, 0.5] {
            for v in a.values_mut() {
                *v *= scale;
            }
            lu.factor_into(&a).unwrap();
            let mut x = [0.0; 2];
            lu.solve_into(&[10.0, 12.0], &mut x);
            let dense = a.to_dense();
            let back = dense.mul_vec(&x);
            assert!((back[0] - 10.0).abs() < 1e-10 && (back[1] - 12.0).abs() < 1e-10);
            assert!(Arc::ptr_eq(lu.symbolic(), &sym), "symbolic re-shared");
        }
        let _ = pat;
    }

    #[test]
    fn complex_solve_and_det_match_dense() {
        let entries = [(0, 0), (0, 1), (1, 0), (1, 1)];
        let (pat, slots) = CsrPattern::from_entries(2, &entries);
        let mut a = CsrMatrix::zeros(Arc::clone(&pat));
        let vals = [
            Complex::new(2.0, 1.0),
            Complex::new(0.0, -1.0),
            Complex::new(1.0, 0.0),
            Complex::new(3.0, 2.0),
        ];
        for (&s, &v) in slots.iter().zip(vals.iter()) {
            a.add_slot(s, v);
        }
        let sym = Symbolic::analyze(&pat).unwrap();
        let mut lu = SparseLu::new(sym);
        lu.factor_into(&a).unwrap();
        let b = [Complex::new(1.0, 0.0), Complex::new(0.0, 1.0)];
        let mut x = [Complex::ZERO; 2];
        lu.solve_into(&b, &mut x);
        let dense = a.to_dense();
        for i in 0..2 {
            let mut r = -b[i];
            for j in 0..2 {
                r += dense[(i, j)] * x[j];
            }
            assert!(r.norm() < 1e-13, "residual {r:?}");
        }
        assert!((lu.det() - dense.det()).norm() < 1e-12);
    }

    /// The chunked scatter helpers must match the scalar `add_slot` loop
    /// bit for bit, including duplicate slots and non-multiple-of-4
    /// lengths.
    #[test]
    fn chunked_scatter_matches_scalar_loop() {
        let entries: Vec<(usize, usize)> = (0..7).map(|i| (i, (i * 3) % 7)).collect();
        let (pat, slots) = CsrPattern::from_entries(7, &entries);
        // Replay list with repeats and length 4k+2.
        let replay: Vec<usize> = slots.iter().chain(slots.iter().take(3)).copied().collect();
        let vals: Vec<f64> = (0..replay.len()).map(|k| 0.1 + k as f64 * 0.37).collect();

        let mut scalar = CsrMatrix::zeros(Arc::clone(&pat));
        for (&s, &v) in replay.iter().zip(vals.iter()) {
            scalar.add_slot(s, v);
        }
        let mut chunked = CsrMatrix::zeros(Arc::clone(&pat));
        crate::simd::scatter_add(chunked.values_mut(), &replay, &vals);
        assert_eq!(scalar.values(), chunked.values());

        let mut scalar_u = CsrMatrix::zeros(Arc::clone(&pat));
        for &s in &replay {
            scalar_u.add_slot(s, 1e-12);
        }
        let mut chunked_u = CsrMatrix::zeros(Arc::clone(&pat));
        crate::simd::scatter_add_uniform(chunked_u.values_mut(), &replay, 1e-12);
        assert_eq!(scalar_u.values(), chunked_u.values());

        let s = Complex::new(0.25, -1.5);
        let mut cscalar = CsrMatrix::zeros(Arc::clone(&pat));
        for (&sl, &v) in replay.iter().zip(vals.iter()) {
            cscalar.add_slot(sl, s * v);
        }
        let mut cchunked = CsrMatrix::zeros(Arc::clone(&pat));
        crate::simd::scatter_add_scaled(cchunked.values_mut(), &replay, &vals, s);
        assert_eq!(cscalar.values(), cchunked.values());
    }

    /// Batched factor/solve/det must reproduce the serial `SparseLu` path
    /// bit for bit on every lane, for every batch width, including ragged
    /// final chunks.
    #[test]
    fn batched_factor_solve_matches_serial_bitwise() {
        // MNA-shaped complex system: conductance tridiagonal base + a few
        // s-scaled cap entries (some sharing slots with base entries).
        let n = 12;
        let mut entries: Vec<(usize, usize)> = Vec::new();
        for i in 0..n {
            entries.push((i, i));
            if i + 1 < n {
                entries.push((i, i + 1));
                entries.push((i + 1, i));
            }
        }
        let (pat, slots) = CsrPattern::from_entries(n, &entries);
        let mut base = CsrMatrix::zeros(Arc::clone(&pat));
        for (k, &s) in slots.iter().enumerate() {
            let v = Complex::new(1.5 + (k as f64 * 0.61).sin(), 0.0);
            base.add_slot(s, v);
        }
        // Cap replay: diagonal caps plus coupling caps, with a duplicate.
        let mut cap_slots: Vec<usize> = Vec::new();
        let mut cap_vals: Vec<f64> = Vec::new();
        for i in 0..n {
            cap_slots.push(pat.find(i, i).unwrap());
            cap_vals.push(1e-12 * (1.0 + i as f64));
        }
        cap_slots.push(pat.find(0, 1).unwrap());
        cap_vals.push(-2e-13);
        cap_slots.push(pat.find(0, 0).unwrap()); // duplicate slot
        cap_vals.push(3e-13);

        let sym = Symbolic::analyze(&pat).unwrap();
        let b: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.77).cos(), (i as f64 * 0.31).sin()))
            .collect();
        let samples: Vec<Complex> = (0..7)
            .map(|k| Complex::from_polar(1e9, 0.3 + 0.4 * k as f64))
            .collect();

        // Serial oracle per sample.
        let mut serial = SparseLu::new(Arc::clone(&sym));
        let mut y = base.clone();
        let mut serial_dets = Vec::new();
        let mut serial_xs = Vec::new();
        for &s in &samples {
            y.values_mut().copy_from_slice(base.values());
            crate::simd::scatter_add_scaled(y.values_mut(), &cap_slots, &cap_vals, s);
            serial.factor_into(&y).unwrap();
            serial_dets.push(serial.det());
            let mut x = vec![Complex::ZERO; n];
            serial.solve_into(&b, &mut x);
            serial_xs.push(x);
        }

        // Batched, in widths 1..=MAX_LANES over the same samples.
        let mut batch = CSparseLuBatch::new(Arc::clone(&sym));
        for width in 1..=crate::simd::MAX_LANES {
            let mut k0 = 0;
            while k0 < samples.len() {
                let chunk = &samples[k0..(k0 + width).min(samples.len())];
                batch
                    .factor_scaled(base.values(), &cap_slots, &cap_vals, chunk)
                    .unwrap();
                let mut dets = vec![Complex::ZERO; chunk.len()];
                batch.det_into(&mut dets);
                let mut xs = vec![Complex::ZERO; chunk.len() * n];
                batch.solve_into(&b, &mut xs);
                for (l, d) in dets.iter().enumerate() {
                    let want = serial_dets[k0 + l];
                    assert_eq!(d.re.to_bits(), want.re.to_bits(), "width {width}");
                    assert_eq!(d.im.to_bits(), want.im.to_bits(), "width {width}");
                    for (xb, xw) in xs[l * n..(l + 1) * n].iter().zip(&serial_xs[k0 + l]) {
                        assert_eq!(xb.re.to_bits(), xw.re.to_bits(), "width {width}");
                        assert_eq!(xb.im.to_bits(), xw.im.to_bits(), "width {width}");
                    }
                }
                k0 += width;
            }
        }
    }

    /// Any-lane pivot underflow fails the whole batch.
    #[test]
    fn batched_factor_reports_singular_lane() {
        let (pat, slots) = CsrPattern::from_entries(2, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
        let mut base = CsrMatrix::zeros(Arc::clone(&pat));
        // Y(s) = [[1, 1], [1, 1 + s·1]]: singular at s = 0, regular else.
        for &s in &slots {
            base.add_slot(s, Complex::ONE);
        }
        let cap_slots = [pat.find(1, 1).unwrap()];
        let cap_vals = [1.0];
        let sym = Symbolic::analyze(&pat).unwrap();
        let mut batch = CSparseLuBatch::new(sym);
        let good = [Complex::new(0.0, 2.0), Complex::new(0.0, 3.0)];
        assert!(batch
            .factor_scaled(base.values(), &cap_slots, &cap_vals, &good)
            .is_ok());
        let bad = [Complex::new(0.0, 2.0), Complex::ZERO];
        assert!(matches!(
            batch.factor_scaled(base.values(), &cap_slots, &cap_vals, &bad),
            Err(NumericsError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn mul_vec_matches_dense() {
        let trips = [(0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0), (2, 2, -1.0)];
        let (_pat, a) = csr_from(3, &trips);
        let x = [1.0, -2.0, 0.5];
        let mut y = [0.0; 3];
        a.mul_vec_into(&x, &mut y);
        assert_eq!(y, [-4.0, -5.0, -0.5]);
    }

    #[test]
    fn prefer_sparse_heuristic() {
        assert!(!prefer_sparse(4, 4), "tiny systems stay dense");
        assert!(prefer_sparse(20, 80), "20% fill at dim 20 goes sparse");
        assert!(!prefer_sparse(20, 300), "75% fill stays dense");
        // Chain-scale recalibration: at dim ≥ 64 the threshold relaxes —
        // a 50 % fill pattern stays sparse at dim 100 but not at dim 20.
        assert!(!prefer_sparse(20, 200), "50% fill at dim 20 stays dense");
        assert!(prefer_sparse(100, 5000), "50% fill at dim 100 goes sparse");
        assert!(!prefer_sparse(100, 7000), "70% fill stays dense at any dim");
        assert!(
            prefer_sparse(120, 1200),
            "ladder-shaped chain patterns (sub-10% fill) go sparse"
        );
    }

    /// Markowitz ordering keeps fill near-linear on ladder-shaped (chain)
    /// patterns: a block-tridiagonal system — the structure of a pipeline
    /// of locally coupled stages — must factor with O(dim) nonzeros, not
    /// O(dim²).
    #[test]
    fn ladder_pattern_fill_is_near_linear() {
        for blocks in [10usize, 25, 40] {
            let bs = 4; // unknowns per stage block
            let n = blocks * bs;
            let mut entries: Vec<(usize, usize)> = Vec::new();
            for b in 0..blocks {
                let base = b * bs;
                // Dense local block.
                for i in 0..bs {
                    for j in 0..bs {
                        entries.push((base + i, base + j));
                    }
                }
                // One coupling entry to the next block (the inter-stage
                // loading cap of a pipeline).
                if b + 1 < blocks {
                    entries.push((base + bs - 1, base + bs));
                    entries.push((base + bs, base + bs - 1));
                }
            }
            let (pattern, _) = CsrPattern::from_entries(n, &entries);
            let sym = Symbolic::analyze(&pattern).unwrap();
            assert!(
                sym.factor_nnz() <= 6 * n,
                "n = {n}: factor nnz {} not near-linear",
                sym.factor_nnz()
            );
        }
    }

    /// Larger MNA-shaped random system: tridiagonal + random couplings,
    /// sparse result must match the dense oracle.
    #[test]
    fn random_mna_shape_matches_dense_oracle() {
        let n = 24;
        let mut trips: Vec<(usize, usize, f64)> = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..n {
            trips.push((i, i, 1.0 + rnd()));
            if i + 1 < n {
                let g = 0.1 + rnd();
                trips.push((i, i + 1, -g));
                trips.push((i + 1, i, -g));
            }
        }
        for _ in 0..n {
            let (r, c) = ((rnd() * n as f64) as usize, (rnd() * n as f64) as usize);
            trips.push((r.min(n - 1), c.min(n - 1), rnd() - 0.5));
        }
        let (pat, a) = csr_from(n, &trips);
        let sym = Symbolic::analyze(&pat).unwrap();
        let mut lu = SparseLu::new(sym);
        lu.factor_into(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut x = vec![0.0; n];
        lu.solve_into(&b, &mut x);
        let dense = a.to_dense();
        let xd = dense.solve(&b).unwrap();
        for (xs, xr) in x.iter().zip(xd.iter()) {
            assert!((xs - xr).abs() <= 1e-9 * xr.abs().max(1.0), "{xs} vs {xr}");
        }
        let (ds, dd) = (lu.det(), dense.det());
        assert!(
            (ds - dd).abs() <= 1e-6 * dd.abs().max(1e-300),
            "{ds} vs {dd}"
        );
    }
}
