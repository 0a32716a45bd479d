//! The real-valued Newton Jacobian engine behind DC ([`crate::dc`]) and
//! transient ([`crate::tran`]) analysis: the topology binding, the stamp
//! pattern, the dense-versus-CSR choice, assembly and factor/solve.
//!
//! # Segments and slots
//!
//! A workspace records its stamp pattern once per topology, as ordered
//! *segments* of `(row, col)` positions in exactly the order its stamp
//! walks visit them. Segment 0 is the per-solve base: the stamps that stay
//! constant for one whole solve or run, restamped at its start so value
//! retuning is picked up. The later segments are replayed on every
//! assembly (g_min and MOSFETs for DC; switches, capacitors, g_min and
//! MOSFETs for transient). Each position becomes a *slot*: the row-major
//! index `row·dim + col` on the dense engine, the nonzero index on the CSR
//! engine. A walk that replays a segment yields one value per recorded
//! position, in recording order; stamp walks depend on topology only,
//! never on values, and the length assert of [`simd::scatter_add`] catches
//! a walk that drifts from its segment. Repeated positions accumulate in
//! recording order on both engines, so the dense and the sparse Jacobian
//! sum the same terms in the same order.
//!
//! # Engine choice and the dense fallback
//!
//! [`SolverChoice::Auto`] factors CSR when [`prefer_sparse`] says the
//! pattern is sparse enough and its symbolic analysis succeeds;
//! [`SolverChoice::Sparse`] skips the fill test. Otherwise, and for
//! [`SolverChoice::Dense`], the engine is dense LU with partial pivoting,
//! the oracle. The CSR engine refactors against a pivot order frozen at
//! analysis, so an unlucky pivot can underflow where partial pivoting
//! would not: that raises the engine's failure flag. Restamping the base
//! clears the flag, which scopes it to one solve or run. A solve or run
//! that fails after raising it is rerun once on the dense engine, from its
//! nodeset or initial condition, unless it failed by timeout
//! ([`Engine::fall_back`]). A topology rebuild keeps the workspace's
//! original [`SolverChoice`].

use crate::linearize::SolverChoice;
use crate::mna::MnaMap;
use crate::netlist::Circuit;
use crate::{SpiceError, SpiceResult};
use adc_numerics::linalg::Lu;
use adc_numerics::simd;
use adc_numerics::sparse::{prefer_sparse, CsrMatrix, CsrPattern, SparseLu, Symbolic};
use adc_numerics::Matrix;
use std::ops::Range;

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

/// The factorization behind an [`Engine`].
#[derive(Debug)]
enum Solver {
    Dense { jac: Matrix, lu: Lu },
    Sparse { jac: CsrMatrix, lu: SparseLu },
}

impl Solver {
    fn dense(dim: usize) -> Solver {
        Solver::Dense {
            jac: Matrix::zeros(dim, dim),
            lu: Lu::with_dim(dim),
        }
    }

    /// The Jacobian's value array, which the slots index.
    fn values_mut(&mut self) -> &mut [f64] {
        match self {
            Solver::Dense { jac, .. } => jac.values_mut(),
            Solver::Sparse { jac, .. } => jac.values_mut(),
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
    solver: Solver,
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
        let mut engine = Engine {
            map,
            elem_count: circuit.elements().len(),
            fingerprint: circuit.topology_fingerprint(),
            choice,
            entries,
            segments,
            slots: Vec::new(),
            base: Vec::new(),
            vals: Vec::with_capacity(widest),
            solver: Solver::dense(0),
            sparse_failed: false,
        };
        if choice != SolverChoice::Dense {
            let (pattern, slots) = CsrPattern::from_entries(dim, &engine.entries);
            if choice == SolverChoice::Sparse || prefer_sparse(dim, pattern.nnz()) {
                // A structurally singular pattern gets the dense engine's
                // per-iteration singularity reporting instead.
                if let Ok(sym) = Symbolic::analyze(&pattern) {
                    engine.base = vec![0.0; pattern.nnz()];
                    engine.slots = slots;
                    engine.solver = Solver::Sparse {
                        jac: CsrMatrix::zeros(pattern),
                        lu: SparseLu::new(sym),
                    };
                    return Ok(engine);
                }
            }
        }
        engine.demote();
        Ok(engine)
    }

    /// Switches to the dense engine (base zeroed: restamp it next).
    fn demote(&mut self) {
        let dim = self.map.dim();
        self.slots = self.entries.iter().map(|&(r, c)| r * dim + c).collect();
        self.base = vec![0.0; dim * dim];
        self.solver = Solver::dense(dim);
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
        matches!(self.solver, Solver::Sparse { .. })
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
    /// failure flag.
    pub(crate) fn factor_solve(&mut self, rhs: &[f64], dx: &mut [f64]) -> bool {
        match &mut self.solver {
            Solver::Dense { jac, lu } => {
                if lu.factor_into(jac).is_err() {
                    return false;
                }
                lu.solve_into(rhs, dx);
            }
            Solver::Sparse { jac, lu } => {
                if injected_pivot_fault() || lu.factor_into(jac).is_err() {
                    self.sparse_failed = true;
                    return false;
                }
                lu.solve_into(rhs, dx);
            }
        }
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
