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
use adc_numerics::sparse::{prefer_sparse, CsrMatrix, CsrPattern, SparseLu, Symbolic};
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

/// One topology's Newton Jacobian: the MNA binding, the recorded stamp
/// pattern and the engine that assembles and factors it (see the module
/// documentation for the slot contract and the fallback policy).
#[derive(Debug)]
pub(crate) struct Engine {
    map: MnaMap,
    elem_count: usize,
    /// Wiring fingerprint ([`Circuit::topology_fingerprint`]) the pattern
    /// was recorded for: a rewired circuit with equal node and element
    /// counts must rebuild, not reuse.
    fingerprint: u64,
    /// The selection the workspace was created with; rebuilds keep it.
    choice: SolverChoice,
    /// Recorded positions, kept to derive dense slots on demotion.
    entries: Vec<(usize, usize)>,
    /// Slot range of each segment.
    segments: Vec<Range<usize>>,
    slots: Vec<usize>,
    /// Segment 0 stamped alone, aligned with the Jacobian's values.
    base: Vec<f64>,
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
        Ok(Engine {
            map,
            elem_count: circuit.elements().len(),
            fingerprint: circuit.topology_fingerprint(),
            choice,
            entries,
            segments,
            slots,
            base: vec![0.0; solver.values_mut().len()],
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
    }

    /// Whether this engine was bound to `circuit`'s topology (value
    /// retuning keeps it valid; rewiring or reordering does not).
    pub(crate) fn matches(&self, circuit: &Circuit) -> bool {
        self.elem_count == circuit.elements().len()
            && self.map.matches(circuit)
            && self.fingerprint == circuit.topology_fingerprint()
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

    /// Starts a solve or run: restamps segment 0 from `walk`'s values and
    /// clears the failure flag.
    pub(crate) fn restamp_base(&mut self, walk: impl FnOnce(&MnaMap, &mut Vec<f64>)) {
        self.vals.clear();
        walk(&self.map, &mut self.vals);
        self.base.fill(0.0);
        simd::scatter_add(
            &mut self.base,
            &self.slots[self.segments[0].clone()],
            &self.vals,
        );
        self.sparse_failed = false;
    }

    /// Resets the Jacobian to the base.
    pub(crate) fn load_base(&mut self) {
        self.solver.values_mut().copy_from_slice(&self.base);
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

    /// `y = J·x` with the Jacobian as assembled so far.
    pub(crate) fn mul_vec(&self, x: &[f64], y: &mut [f64]) {
        match &self.solver {
            Solver::Dense { jac, .. } => jac.mul_vec_into(x, y),
            Solver::Sparse { jac, .. } => jac.mul_vec_into(x, y),
        }
    }

    /// Factors the assembled Jacobian and solves `J·dx = rhs`. Returns
    /// `false` on a singular factorization; a sparse one also raises the
    /// failure flag, and only a sparse one consults the `sparse_pivot`
    /// fault site.
    pub(crate) fn factor_solve(&mut self, rhs: &[f64], dx: &mut [f64]) -> bool {
        let sparse = self.solver.is_sparse();
        if (sparse && injected_pivot_fault()) || self.solver.factor().is_err() {
            self.sparse_failed |= sparse;
            return false;
        }
        self.solver.solve_into(rhs, dx);
        true
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
