//! The MNA engines: [`Solver`], the dense-or-CSR factorization of a real
//! or complex system, and [`Engine`], the real Newton Jacobian engine
//! behind DC ([`crate::dc`]) and transient ([`crate::tran`]) analysis —
//! the topology binding, the stamp pattern, assembly and factor/solve. The
//! complex small-signal engine behind AC analysis and TF sampling,
//! [`ComplexMnaWorkspace`](crate::linearize::ComplexMnaWorkspace), holds a
//! `Solver<Complex>` the same way.
//!
//! # Slots
//!
//! An engine records the `(row, col)` positions its stamps visit, in visit
//! order, once per topology, and [`Solver::select`] turns each position
//! into a *slot* in the value array: the row-major index `row·dim + col` on
//! the dense engine, the nonzero index on the CSR engine. Assembly replays
//! values through the slots, and repeated positions accumulate in
//! recording order on both engines, so the dense and the sparse system sum
//! the same terms in the same order.
//!
//! The real [`Engine`] records its positions as ordered *segments*.
//! Segment 0 is the per-solve base: the stamps that stay constant for one
//! whole solve or run, restamped at its start so value retuning is picked
//! up. The later segments are replayed on every assembly (g_min and
//! MOSFETs for DC; switches, capacitors, g_min and MOSFETs for transient).
//! A walk that replays a segment yields one value per recorded position,
//! in recording order; stamp walks depend on topology only, never on
//! values, and the length assert of [`simd::scatter_add`] catches a walk
//! that drifts from its segment. The complex engine records the base
//! triplets, then the capacitive ones, and replays the latter scaled by
//! `s` per sample.
//!
//! # The linear cache and the dependent rows
//!
//! Only the last segment, the MOSFET companions, changes from one Newton
//! iteration to the next. [`Engine::load_linear`] therefore caches the
//! Jacobian's values after every segment but the last: the base, switches,
//! capacitors and g_min in transient analysis, the base and g_min in DC.
//! The cache is dropped ([`Engine::drop_linear`]) whenever one of those
//! values changes: when the base is restamped (every solve and run), when
//! a transient run's phase or step size changes (the `set_phase`/`set_dt`
//! re-buffering), at the start of every DC Newton stage (each g_min or
//! source-stepping rung), and on demotion to dense. The next load then
//! reassembles the linear values from the base.
//!
//! Once per engine, the CSR engine's [`Symbolic`] derives the factor rows
//! the last segment's slots reach ([`Symbolic::dependent_rows`]): the rows
//! a MOSFET stamps into, and every later row that eliminates against one of
//! those, transitively — 17 of 124 rows on the 4-3-2 chain's transient
//! Jacobian. While the cache holds, every factorization after the first
//! refactors those rows alone ([`SparseLu::refactor_into`]): the other
//! rows' inputs are the cached values, and the rows they eliminate against
//! are not reached, so their factors are exactly those of the last
//! factorization. The partial and the full factorization run every row
//! through one row-elimination routine with the same operations in the
//! same order, so the result is bit-identical to refactoring in full:
//! factors, pivot test and [`adc_numerics::NumericsError::SingularMatrix`]
//! alike. Dropping the cache marks the factors stale, and so do a singular
//! factorization and an injected `sparse_pivot` fault; the factorization
//! after that runs in full. The dense engine always refactors in full.
//!
//! # Engine choice and the dense fallback
//!
//! [`SolverChoice::Auto`] factors CSR when [`prefer_sparse`] says the
//! pattern is sparse enough and its symbolic analysis succeeds;
//! [`SolverChoice::Sparse`] skips the fill test. Otherwise, and for
//! [`SolverChoice::Dense`], the engine is dense LU with partial pivoting,
//! the oracle. The CSR engine refactors against a pivot order frozen at
//! analysis, so an unlucky pivot can underflow where partial pivoting
//! would not. On the real engine that raises the failure flag. Restamping
//! the base clears the flag, which scopes it to one solve or run. A solve
//! or run that fails after raising it is rerun once on the dense engine,
//! from its nodeset or initial condition, unless it failed by timeout
//! ([`Engine::fall_back`]). A topology rebuild keeps the workspace's
//! original [`SolverChoice`]. The complex engine demotes to dense at the
//! failing sample and refactors it there.

use crate::linearize::SolverChoice;
use crate::mna::MnaMap;
use crate::netlist::Circuit;
use crate::{SpiceError, SpiceResult};
use adc_numerics::linalg::{Lu, Matrix, Scalar};
use adc_numerics::simd;
use adc_numerics::sparse::{
    prefer_sparse, CsrMatrix, CsrPattern, DependentRows, SparseLu, Symbolic,
};
use adc_numerics::NumResult;
use std::ops::Range;
use std::sync::Arc;

/// A stamp pattern being recorded: positions in walk order, split into
/// segments.
#[derive(Debug, Default)]
pub(crate) struct Pattern {
    entries: Vec<(usize, usize)>,
    ends: Vec<usize>,
}

impl Pattern {
    /// Records one stamp position in the current segment.
    pub(crate) fn push(&mut self, row: usize, col: usize) {
        self.entries.push((row, col));
    }

    /// Closes the current segment.
    pub(crate) fn close(&mut self) {
        self.ends.push(self.entries.len());
    }
}

/// A real or complex MNA system's values and their dense or CSR
/// factorization (see the module documentation for the slot contract).
#[derive(Debug)]
pub(crate) enum Solver<T> {
    Dense { jac: Matrix<T>, lu: Lu<T> },
    Sparse { jac: CsrMatrix<T>, lu: SparseLu<T> },
}

impl<T: Scalar> Solver<T> {
    /// The engine `choice` selects for a `dim`-unknown system whose stamps
    /// visit `entries`, and the slot of each entry.
    pub(crate) fn select(
        dim: usize,
        entries: &[(usize, usize)],
        choice: SolverChoice,
    ) -> (Solver<T>, Vec<usize>) {
        if choice != SolverChoice::Dense {
            let (pattern, slots) = CsrPattern::from_entries(dim, entries);
            if choice == SolverChoice::Sparse || prefer_sparse(dim, pattern.nnz()) {
                // A structurally singular pattern gets the dense engine's
                // per-factorization singularity reporting instead.
                if let Ok(sym) = Symbolic::analyze(&pattern) {
                    let solver = Solver::Sparse {
                        jac: CsrMatrix::zeros(pattern),
                        lu: SparseLu::new(sym),
                    };
                    return (solver, slots);
                }
            }
        }
        Solver::dense(dim, entries)
    }

    /// The dense engine for `entries`, and the slot of each entry.
    pub(crate) fn dense(dim: usize, entries: &[(usize, usize)]) -> (Solver<T>, Vec<usize>) {
        let slots = entries.iter().map(|&(r, c)| r * dim + c).collect();
        let solver = Solver::Dense {
            jac: Matrix::zeros(dim, dim),
            lu: Lu::with_dim(dim),
        };
        (solver, slots)
    }

    /// Whether this is the CSR engine.
    #[inline]
    pub(crate) fn is_sparse(&self) -> bool {
        matches!(self, Solver::Sparse { .. })
    }

    /// The CSR engine's symbolic factorization.
    #[inline]
    pub(crate) fn symbolic(&self) -> Option<&Arc<Symbolic>> {
        match self {
            Solver::Dense { .. } => None,
            Solver::Sparse { lu, .. } => Some(lu.symbolic()),
        }
    }

    /// The value array, which the slots index.
    #[inline]
    pub(crate) fn values_mut(&mut self) -> &mut [T] {
        match self {
            Solver::Dense { jac, .. } => jac.values_mut(),
            Solver::Sparse { jac, .. } => jac.values_mut(),
        }
    }

    /// Factors the values as assembled.
    ///
    /// # Errors
    /// [`adc_numerics::NumericsError::SingularMatrix`] when a pivot
    /// underflows.
    #[inline]
    pub(crate) fn factor(&mut self) -> NumResult<()> {
        match self {
            Solver::Dense { jac, lu } => lu.factor_into(jac),
            Solver::Sparse { jac, lu } => lu.factor_into(jac),
        }
    }

    /// [`Solver::factor`], refactoring only `rows` where the CSR factors
    /// allow it ([`SparseLu::refactor_into`]); the dense engine always
    /// factors in full.
    ///
    /// # Errors
    /// As [`Solver::factor`].
    #[inline]
    fn refactor(&mut self, rows: Option<&DependentRows>) -> NumResult<()> {
        match (self, rows) {
            (Solver::Sparse { jac, lu }, Some(rows)) => lu.refactor_into(jac, rows),
            (solver, _) => solver.factor(),
        }
    }

    /// Marks the CSR factors stale, so the next [`Solver::refactor`] runs
    /// in full.
    fn invalidate(&mut self) {
        if let Solver::Sparse { lu, .. } = self {
            lu.invalidate();
        }
    }

    /// Solves with the factors of the last successful [`Solver::factor`].
    #[inline]
    pub(crate) fn solve_into(&mut self, b: &[T], x: &mut [T]) {
        match self {
            Solver::Dense { lu, .. } => lu.solve_into(b, x),
            Solver::Sparse { lu, .. } => lu.solve_into(b, x),
        }
    }

    /// Determinant from the factors of the last successful
    /// [`Solver::factor`].
    #[inline]
    pub(crate) fn det(&self) -> T {
        match self {
            Solver::Dense { lu, .. } => lu.det(),
            Solver::Sparse { lu, .. } => lu.det(),
        }
    }
}

impl Solver<f64> {
    /// `y = J·x` for the values `vals` on this engine's structure (the
    /// slots' value array), in [`Matrix::mul_vec_into`]'s and
    /// [`CsrPattern::mul_vec_into`]'s arithmetic.
    fn mul_vec(&self, vals: &[f64], x: &[f64], y: &mut [f64]) {
        match self {
            Solver::Dense { .. } => {
                assert_eq!(vals.len(), x.len() * y.len(), "dimension mismatch");
                for (yi, row) in y.iter_mut().zip(vals.chunks_exact(x.len())) {
                    *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
                }
            }
            Solver::Sparse { jac, .. } => jac.pattern().mul_vec_into(vals, x, y),
        }
    }
}

/// One topology's Newton Jacobian: the MNA binding, the recorded stamp
/// pattern and the engine that assembles and factors it (see the module
/// documentation for the slot contract, the linear cache and the fallback
/// policy).
#[derive(Debug)]
pub(crate) struct Engine {
    map: MnaMap,
    /// The selection the workspace was created with; rebuilds keep it.
    choice: SolverChoice,
    /// Recorded positions, kept to derive dense slots on demotion.
    entries: Vec<(usize, usize)>,
    /// Slot range of each segment.
    segments: Vec<Range<usize>>,
    slots: Vec<usize>,
    /// Segment 0 stamped alone, aligned with the Jacobian's values.
    base: Vec<f64>,
    /// Every segment but the last, as [`Engine::load_linear`] last
    /// assembled them, aligned with the Jacobian's values.
    linear: Vec<f64>,
    /// `linear` is current: nothing dropped it since it was assembled.
    linear_valid: bool,
    /// The factor rows the last segment's slots reach (CSR engine only).
    dependent: Option<DependentRows>,
    /// Buffered values of the segment being stamped.
    vals: Vec<f64>,
    solver: Solver<f64>,
    /// A sparse refactorization failed since the base was last restamped.
    sparse_failed: bool,
}

impl Engine {
    /// Binds `circuit`'s topology: builds the MNA map, records the stamp
    /// pattern through `record` and selects the engine for `choice`.
    ///
    /// # Errors
    /// [`SpiceError::BadNetlist`] if the circuit has no unknowns.
    pub(crate) fn new(
        circuit: &Circuit,
        choice: SolverChoice,
        record: impl FnOnce(&MnaMap, &mut Pattern),
    ) -> SpiceResult<Engine> {
        let map = MnaMap::new(circuit);
        let dim = map.dim();
        if dim == 0 {
            return Err(SpiceError::BadNetlist("circuit has no unknowns".into()));
        }
        let mut pattern = Pattern::default();
        record(&map, &mut pattern);
        let Pattern { entries, ends } = pattern;
        let segments = ends
            .iter()
            .scan(0, |start, &end| Some(std::mem::replace(start, end)..end))
            .collect::<Vec<_>>();
        let widest = segments.iter().map(|s| s.len()).max().unwrap_or(0);
        let (mut solver, slots) = Solver::select(dim, &entries, choice);
        let dependent = match (solver.symbolic(), segments.last()) {
            (Some(sym), Some(last)) => Some(sym.dependent_rows(&slots[last.clone()])),
            _ => None,
        };
        let len = solver.values_mut().len();
        Ok(Engine {
            map,
            choice,
            entries,
            segments,
            slots,
            base: vec![0.0; len],
            linear: vec![0.0; len],
            linear_valid: false,
            dependent,
            vals: Vec::with_capacity(widest),
            solver,
            sparse_failed: false,
        })
    }

    /// Switches to the dense engine (base zeroed: restamp it next).
    fn demote(&mut self) {
        let dim = self.map.dim();
        (self.solver, self.slots) = Solver::dense(dim, &self.entries);
        self.base = vec![0.0; dim * dim];
        self.linear = vec![0.0; dim * dim];
        self.linear_valid = false;
        self.dependent = None;
    }

    /// The selection this engine was created with.
    pub(crate) fn choice(&self) -> SolverChoice {
        self.choice
    }

    /// The MNA index map.
    pub(crate) fn map(&self) -> &MnaMap {
        &self.map
    }

    /// Whether the Jacobian currently factors sparse.
    pub(crate) fn is_sparse(&self) -> bool {
        self.solver.is_sparse()
    }

    /// Starts a solve or run: restamps segment 0 from `walk`'s values,
    /// drops the linear cache and clears the failure flag.
    pub(crate) fn restamp_base(&mut self, walk: impl FnOnce(&MnaMap, &mut Vec<f64>)) {
        self.vals.clear();
        walk(&self.map, &mut self.vals);
        self.base.fill(0.0);
        simd::scatter_add(
            &mut self.base,
            &self.slots[self.segments[0].clone()],
            &self.vals,
        );
        self.drop_linear();
        self.sparse_failed = false;
    }

    /// Drops the linear cache: the caller changed a value of a segment
    /// before the last. The next [`Engine::load_linear`] reassembles, and
    /// the next factorization runs in full.
    pub(crate) fn drop_linear(&mut self) {
        self.linear_valid = false;
        self.solver.invalidate();
    }

    /// Resets the Jacobian to every segment but the last: the cached values
    /// while the cache holds, else the base plus what `stamp` adds of the
    /// later segments, which then becomes the cache.
    pub(crate) fn load_linear(&mut self, stamp: impl FnOnce(&mut Engine)) {
        if self.linear_valid {
            self.solver.values_mut().copy_from_slice(&self.linear);
            return;
        }
        self.solver.values_mut().copy_from_slice(&self.base);
        stamp(self);
        self.linear.copy_from_slice(self.solver.values_mut());
        self.linear_valid = true;
    }

    /// Adds segment `seg`'s values, `walk` yielding them in recording
    /// order.
    pub(crate) fn stamp(&mut self, seg: usize, walk: impl FnOnce(&MnaMap, &mut Vec<f64>)) {
        self.vals.clear();
        walk(&self.map, &mut self.vals);
        let slots = &self.slots[self.segments[seg].clone()];
        simd::scatter_add(self.solver.values_mut(), slots, &self.vals);
    }

    /// Adds buffered values of segment `seg`, in recording order.
    pub(crate) fn scatter(&mut self, seg: usize, vals: &[f64]) {
        let slots = &self.slots[self.segments[seg].clone()];
        simd::scatter_add(self.solver.values_mut(), slots, vals);
    }

    /// Adds `v` at every slot of segment `seg` (the g_min diagonals).
    pub(crate) fn scatter_uniform(&mut self, seg: usize, v: f64) {
        let slots = &self.slots[self.segments[seg].clone()];
        simd::scatter_add_uniform(self.solver.values_mut(), slots, v);
    }

    /// `y = J·x` with the linear Jacobian [`Engine::load_linear`] loaded.
    pub(crate) fn mul_linear(&self, x: &[f64], y: &mut [f64]) {
        self.solver.mul_vec(&self.linear, x, y);
    }

    /// `y = J₀·x` with the base (segment 0) alone.
    pub(crate) fn mul_base(&self, x: &[f64], y: &mut [f64]) {
        self.solver.mul_vec(&self.base, x, y);
    }

    /// Factors the assembled Jacobian and solves `J·dx = rhs`: on the CSR
    /// engine, only the rows the last segment reaches while the factors
    /// of the cached linear values hold. Returns `false` on a singular
    /// factorization; a sparse one also raises the failure flag, and only a
    /// sparse one consults the `sparse_pivot` fault site, which leaves the
    /// factors stale like a failed factorization.
    pub(crate) fn factor_solve(&mut self, rhs: &[f64], dx: &mut [f64]) -> bool {
        if !self.factor() {
            return false;
        }
        self.solver.solve_into(rhs, dx);
        true
    }

    /// The factorization of [`Engine::factor_solve`].
    fn factor(&mut self) -> bool {
        let sparse = self.solver.is_sparse();
        if sparse && injected_pivot_fault() {
            self.solver.invalidate();
            self.sparse_failed = true;
            return false;
        }
        if self.solver.refactor(self.dependent.as_ref()).is_err() {
            self.sparse_failed |= sparse;
            return false;
        }
        true
    }

    /// The factor rows a refactorization recomputes while the linear
    /// cache holds: the rows the last segment reaches on the CSR engine,
    /// every row on the dense one.
    pub(crate) fn dependent_rows(&self) -> usize {
        self.dependent
            .as_ref()
            .map_or(self.map.dim(), DependentRows::len)
    }

    /// Microseconds per call of a full factorization, a refactorization of
    /// the dependent rows and a solve of `rhs`, on the Jacobian as
    /// assembled, each over `reps` calls. Leaves the factors of the
    /// assembled Jacobian behind.
    ///
    /// # Panics
    /// Panics if the assembled Jacobian is singular.
    pub(crate) fn profile_factor_solve(
        &mut self,
        rhs: &[f64],
        dx: &mut [f64],
        reps: usize,
    ) -> [f64; 3] {
        let full = time_us(reps, || {
            self.solver.invalidate();
            assert!(self.factor(), "singular Jacobian");
        });
        let partial = time_us(reps, || assert!(self.factor(), "singular Jacobian"));
        let solve = time_us(reps, || self.solver.solve_into(rhs, dx));
        [full, partial, solve]
    }

    /// Applies the fallback policy to a finished solve or run: when `out`
    /// failed, not by timeout, after a sparse refactorization failed,
    /// switches to the dense engine and returns `true`; the caller then
    /// restamps the base and reruns. An expired deadline is final: a dense
    /// rerun would only overrun it further.
    pub(crate) fn fall_back<T>(&mut self, out: &SpiceResult<T>) -> bool {
        let rerun =
            self.sparse_failed && matches!(out, Err(e) if !matches!(e, SpiceError::Timeout { .. }));
        if rerun {
            self.demote();
        }
        rerun
    }
}

/// Microseconds per call of `f`, over `reps` calls after one warm-up call.
pub(crate) fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = std::time::Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / reps.max(1) as f64
}

/// Maps an armed fault-injection rule at a solve's `site` (`dc_solve`,
/// `tran_solve`) to the failure the rest of the stack must absorb; a
/// timeout names `analysis`. `Corrupt` has no datum to corrupt at this
/// layer, so it degrades to a convergence failure.
#[cfg(feature = "faults")]
pub(crate) fn injected_solve_fault(
    site: &'static str,
    analysis: &'static str,
) -> Option<SpiceError> {
    use adc_numerics::faults::{self, FaultAction};
    match faults::check(site)? {
        FaultAction::FailConvergence | FaultAction::Corrupt => Some(SpiceError::DcConvergence {
            residual: f64::INFINITY,
            iterations: 0,
        }),
        FaultAction::Panic => panic!("injected fault: {site} panic"),
        FaultAction::Timeout => Some(SpiceError::Timeout {
            analysis,
            iterations: 0,
        }),
    }
}

/// Whether an armed `sparse_pivot` fault fails this refactorization:
/// `Panic` panics, every other action reports an underflowed pivot.
#[cfg(feature = "faults")]
fn injected_pivot_fault() -> bool {
    use adc_numerics::faults::{self, FaultAction};
    match faults::check(faults::SITE_SPARSE_PIVOT) {
        Some(FaultAction::Panic) => panic!("injected fault: sparse_pivot panic"),
        action => action.is_some(),
    }
}

#[cfg(not(feature = "faults"))]
#[inline(always)]
fn injected_pivot_fault() -> bool {
    false
}
