//! Shared small-signal linearization and the complex MNA engine behind AC
//! analysis and numeric TF extraction.
//!
//! [`SmallSignal`] is the **single** linearizer both consumers stamp from:
//! `AcWorkspace` (adc-spice) and `NetTfWorkspace` (adc-sfg) used to carry
//! duplicate element loops that could silently diverge; both now bind the
//! same `(base, cap_entries, b)` triplet lists. The only per-consumer
//! choices left are the floating-node `g_min` (AC uses one, TF extraction
//! must not — it would perturb `det Y(s)`) and the complex frequency the
//! entries are replayed at (`jω` for sweeps, arbitrary `s` for TF
//! sampling). The entries of resistors, source branches, VCVS and VCCS
//! come from [`stamp_constant`], the walk DC and transient analysis stamp
//! them from too, so all three analyses share one rule per linear element;
//! the linearizer itself adds capacitors, switches at their DC state, the
//! AC source values and the MOSFET small-signal model (three
//! [`stamp_vccs`] and five [`stamp_conductance`] stamps per device).
//!
//! [`ComplexMnaWorkspace`] then assembles those entry lists into a dense
//! or a CSR engine, chosen by structural fill ratio exactly as for the
//! real Newton Jacobian (the crate-private `engine` module makes both
//! choices; the CSR engine keeps a reusable symbolic factorization,
//! [`adc_numerics::sparse`]). Both engines address their values through
//! slots: every `factor_at` call only memcpy's the base values and replays
//! the `s`-scaled capacitive slots before an in-place refactorization. On
//! the CSR engine the value array is row-major, so the replayed entries
//! land grouped by destination row.

use crate::engine::Solver;
use crate::mna::{stamp_conductance, stamp_constant, stamp_vccs, MnaMap};
use crate::netlist::{Circuit, Element, ElementId, NodeId};
use crate::op::OperatingPoint;
use crate::{SpiceError, SpiceResult};
use adc_numerics::complex::Complex;
use adc_numerics::simd;
use adc_numerics::sparse::CSparseLuBatch;
use adc_numerics::NumericsError;
use std::sync::Arc;

/// Forces a solver engine for testing/diagnostics; production callers use
/// [`SolverChoice::Auto`] (structural fill ratio decides).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverChoice {
    /// Pick sparse or dense by
    /// [`prefer_sparse`](adc_numerics::sparse::prefer_sparse) (the
    /// default).
    #[default]
    Auto,
    /// Always dense LU with partial pivoting (the oracle).
    Dense,
    /// Always sparse LU with the reusable symbolic factorization.
    Sparse,
}

/// Linearized small-signal system of a circuit at an operating point:
/// frequency-independent `base` stamps, `s`-scaled capacitive entries and
/// the stimulus vector, all as flat triplet lists so downstream engines
/// (dense or sparse, `jω` or general `s`) assemble without re-walking the
/// netlist.
///
/// Rebinding to a retuned circuit reuses every buffer; only a *topology*
/// change (node/element structure) rebuilds the index map.
#[derive(Debug, Clone, Default)]
pub struct SmallSignal {
    map: Option<MnaMap>,
    /// Frequency-independent stamps `(row, col, g)` — conductances, gm's,
    /// source incidence patterns, the optional floating-node g_min.
    pub base: Vec<(usize, usize, f64)>,
    /// `s`-dependent entries `(row, col, ±C)`, replayed per point as `s·C`.
    pub cap_entries: Vec<(usize, usize, f64)>,
    /// Stimulus vector (independent sources' `ac_mag`).
    pub b: Vec<Complex>,
}

impl SmallSignal {
    /// Creates an empty linearizer; buffers are sized on first bind.
    pub fn new() -> Self {
        SmallSignal::default()
    }

    /// The MNA index map.
    ///
    /// # Panics
    /// Panics if called before the first successful [`SmallSignal::bind`].
    pub fn map(&self) -> &MnaMap {
        self.map.as_ref().expect("SmallSignal not bound")
    }

    /// System dimension (0 before the first bind).
    pub fn dim(&self) -> usize {
        self.map.as_ref().map_or(0, MnaMap::dim)
    }

    /// (Re)linearizes `circuit` at `op`. `gmin` > 0 adds that conductance
    /// from every node to ground (AC analysis); pass 0.0 to leave the
    /// system untouched (TF extraction, where it would perturb the sampled
    /// determinant). Returns `true` when the topology changed and any
    /// downstream pattern/symbolic state must be rebuilt.
    ///
    /// # Errors
    /// [`SpiceError::NotFound`] if a MOSFET has no operating-point entry.
    pub fn bind(&mut self, circuit: &Circuit, op: &OperatingPoint, gmin: f64) -> SpiceResult<bool> {
        let topo_changed = !self.map.as_ref().is_some_and(|m| m.matches(circuit));
        if topo_changed {
            let map = MnaMap::new(circuit);
            self.b = vec![Complex::ZERO; map.dim()];
            self.map = Some(map);
        } else {
            self.b.fill(Complex::ZERO);
        }
        self.base.clear();
        self.cap_entries.clear();
        let map = self.map.as_ref().expect("map bound above");
        let base = &mut self.base;
        let caps = &mut self.cap_entries;
        let b = &mut self.b;

        let adm = |list: &mut Vec<(usize, usize, f64)>, a: NodeId, bn: NodeId, g: f64| {
            let (ra, rb) = (map.node_row(a), map.node_row(bn));
            stamp_conductance(ra, rb, g, &mut |r, c, v| list.push((r, c, v)));
        };
        let gm_stamp = |list: &mut Vec<(usize, usize, f64)>,
                        p: NodeId,
                        n: NodeId,
                        cp: NodeId,
                        cn: NodeId,
                        gm: f64| {
            let (rp, rn) = (map.node_row(p), map.node_row(n));
            let (rcp, rcn) = (map.node_row(cp), map.node_row(cn));
            stamp_vccs(rp, rn, rcp, rcn, gm, &mut |r, c, v| list.push((r, c, v)));
        };

        for (idx, e) in circuit.elements().iter().enumerate() {
            stamp_constant(map, idx, e, &mut |r, c, v| base.push((r, c, v)));
            match e {
                Element::Capacitor {
                    a, b: bn, farads, ..
                } => {
                    adm(caps, *a, *bn, *farads);
                }
                Element::Switch {
                    a,
                    b: bn,
                    ron,
                    roff,
                    dc_closed,
                    ..
                } => {
                    let g = 1.0 / if *dc_closed { *ron } else { *roff };
                    adm(base, *a, *bn, g);
                }
                Element::ISource { p, n, ac_mag, .. } => {
                    if let Some(r) = map.node_row(*p) {
                        b[r] -= Complex::from_real(*ac_mag);
                    }
                    if let Some(r) = map.node_row(*n) {
                        b[r] += Complex::from_real(*ac_mag);
                    }
                }
                Element::VSource { ac_mag, .. } => {
                    b[map.branch_row(idx)] = Complex::from_real(*ac_mag);
                }
                Element::Mosfet {
                    name,
                    d,
                    g,
                    s: src,
                    b: bn,
                    ..
                } => {
                    let ev = op.mos_eval_at(ElementId(idx)).ok_or_else(|| {
                        SpiceError::NotFound(format!("operating point for {name}"))
                    })?;
                    // id = gm·vgs + gds·vds + gmb·vbs, current d→s.
                    gm_stamp(base, *d, *src, *g, *src, ev.gm);
                    gm_stamp(base, *d, *src, *d, *src, ev.gds);
                    gm_stamp(base, *d, *src, *bn, *src, ev.gmb);
                    adm(caps, *g, *src, ev.cgs);
                    adm(caps, *g, *d, ev.cgd);
                    adm(caps, *g, *bn, ev.cgb);
                    adm(caps, *src, *bn, ev.csb);
                    adm(caps, *d, *bn, ev.cdb);
                }
                Element::Resistor { .. } | Element::Vcvs { .. } | Element::Vccs { .. } => {}
            }
        }

        if gmin > 0.0 {
            for r in 0..(map.node_count() - 1) {
                base.push((r, r, gmin));
            }
        }
        Ok(topo_changed)
    }
}

/// The `(row, col)` position of every base triplet, then of every
/// capacitive one: the entries the engine's slots are derived from.
fn entries(ss: &SmallSignal) -> Vec<(usize, usize)> {
    ss.base
        .iter()
        .chain(&ss.cap_entries)
        .map(|&(r, c, _)| (r, c))
        .collect()
}

/// Reusable complex MNA engine: assembles a [`SmallSignal`] into a dense or
/// sparse matrix (chosen by structural fill ratio, overridable for tests),
/// then factors `Y(s) = base + s·C` per sample point with zero steady-state
/// allocation. One factorization serves both the linear solve and the
/// determinant — exactly the pair TF extraction samples.
#[derive(Debug, Default)]
pub struct ComplexMnaWorkspace {
    dim: usize,
    choice: SolverChoice,
    /// The engine; `None` until the first bind.
    solver: Option<Solver<Complex>>,
    /// Slot per `SmallSignal::base` triplet, in list order.
    base_slots: Vec<usize>,
    /// Slot per `SmallSignal::cap_entries` triplet, in list order.
    cap_slots: Vec<usize>,
    /// The base triplets accumulated through their slots: the values every
    /// factorization starts from.
    base_vals: Vec<Complex>,
    /// Capacitance per `cap_entries` triplet, gathered per factorization so
    /// the `s·C` replay runs struct-of-arrays through the chunked
    /// [`simd::scatter_add_scaled`] kernel.
    cap_vals: Vec<f64>,
    /// Lane-batched factor/solve workspace over the CSR engine's symbolic
    /// factorization, built lazily on the first batched call.
    batch: Option<CSparseLuBatch>,
    /// Times a symbolic analysis ran (test hook: retuning must not
    /// re-analyze).
    analyses: usize,
}

impl ComplexMnaWorkspace {
    /// Creates an empty engine; storage is built on first bind.
    pub fn new() -> Self {
        ComplexMnaWorkspace::default()
    }

    /// Overrides the automatic sparse/dense selection (takes effect at the
    /// next [`ComplexMnaWorkspace::bind`] with `topo_changed = true`).
    pub fn set_solver(&mut self, choice: SolverChoice) {
        self.choice = choice;
        // Force re-selection on the next bind.
        self.solver = None;
        self.dim = 0;
    }

    /// Whether the engine currently factors sparse.
    pub fn is_sparse(&self) -> bool {
        self.solver.as_ref().is_some_and(Solver::is_sparse)
    }

    /// Number of symbolic analyses performed so far (stays constant across
    /// value retuning of one topology).
    pub fn symbolic_analyses(&self) -> usize {
        self.analyses
    }

    /// Assembles `ss` into the engine. Pass the `topo_changed` flag from
    /// [`SmallSignal::bind`]; when `false`, the pattern, symbolic
    /// factorization and every buffer are reused and only values are
    /// rewritten.
    pub fn bind(&mut self, ss: &SmallSignal, topo_changed: bool) {
        if topo_changed || self.solver.is_none() {
            let (solver, slots) = Solver::select(ss.dim(), &entries(ss), self.choice);
            self.analyses += usize::from(solver.is_sparse());
            self.install(solver, slots, ss.base.len());
        }
        self.dim = ss.dim();
        // Refresh base values through the frozen slot map.
        self.base_vals.fill(Complex::ZERO);
        debug_assert_eq!(self.base_slots.len(), ss.base.len());
        for (&slot, &(_, _, g)) in self.base_slots.iter().zip(ss.base.iter()) {
            self.base_vals[slot] += Complex::from_real(g);
        }
        debug_assert_eq!(self.cap_slots.len(), ss.cap_entries.len());
    }

    /// Switches to `solver`, whose first `base_len` slots address the base
    /// triplets and the rest the capacitive ones (base zeroed: bind next).
    fn install(&mut self, mut solver: Solver<Complex>, mut slots: Vec<usize>, base_len: usize) {
        self.cap_slots = slots.split_off(base_len);
        self.base_slots = slots;
        self.base_vals = vec![Complex::ZERO; solver.values_mut().len()];
        self.cap_vals = Vec::with_capacity(self.cap_slots.len());
        self.solver = Some(solver);
        self.batch = None;
    }

    /// Factors `Y(s) = base + s·C` in place at one complex frequency.
    ///
    /// # Errors
    /// [`NumericsError::SingularMatrix`] when the system is singular at
    /// `s` (dense), or when a pivot underflows under the static sparse
    /// ordering.
    ///
    /// # Panics
    /// Panics if nothing was bound yet, or if `caps` drifted in length
    /// from the bound cap entry list.
    pub fn factor_at(
        &mut self,
        s: Complex,
        caps: &[(usize, usize, f64)],
    ) -> Result<(), NumericsError> {
        let solver = self.solver.as_mut().expect("engine bound");
        // Hard check: a silently truncating zip would drop capacitive
        // admittances and return a plausible but wrong Y(s).
        assert_eq!(
            self.cap_slots.len(),
            caps.len(),
            "cap entry list drifted from bind"
        );
        let y = solver.values_mut();
        y.copy_from_slice(&self.base_vals);
        // Gather the capacitances into a flat array, then replay the
        // s-scaled slots through the fixed-width chunked kernel.
        self.cap_vals.clear();
        self.cap_vals.extend(caps.iter().map(|&(_, _, c)| c));
        simd::scatter_add_scaled(y, &self.cap_slots, &self.cap_vals, s);
        solver.factor()
    }

    /// Solves with the factors from the last [`ComplexMnaWorkspace::factor_at`].
    ///
    /// # Panics
    /// Panics on dimension mismatch or if nothing was factored yet.
    pub fn solve_into(&mut self, b: &[Complex], x: &mut [Complex]) {
        self.solver.as_mut().expect("engine bound").solve_into(b, x);
    }

    /// Determinant from the factors of the last
    /// [`ComplexMnaWorkspace::factor_at`] (product of pivots).
    pub fn det(&self) -> Complex {
        self.solver.as_ref().expect("engine bound").det()
    }

    /// [`ComplexMnaWorkspace::factor_at`] with the engine's fallback policy
    /// applied: a sparse static-pivot underflow demotes the engine to the
    /// dense oracle in place and retries once, so callers never hard-fail
    /// on a numerically unlucky static ordering the dense path would
    /// survive.
    ///
    /// # Errors
    /// [`NumericsError::SingularMatrix`] when the (dense) system is
    /// genuinely singular at `s`.
    pub fn factor_at_or_demote(
        &mut self,
        s: Complex,
        ss: &SmallSignal,
    ) -> Result<(), NumericsError> {
        match self.factor_at(s, &ss.cap_entries) {
            Err(_) if self.is_sparse() => {
                self.demote_to_dense(ss);
                self.factor_at(s, &ss.cap_entries)
            }
            out => out,
        }
    }

    /// Demotes the engine to the dense oracle in place (sparse refactor hit
    /// a numerically unlucky static pivot), rebuilding dense storage from
    /// the bound `ss`.
    pub fn demote_to_dense(&mut self, ss: &SmallSignal) {
        let (solver, slots) = Solver::dense(ss.dim(), &entries(ss));
        self.install(solver, slots, ss.base.len());
        self.bind(ss, false);
    }

    /// Factors, solves and takes determinants at every sample in `s_list`
    /// — the batched equivalent of a
    /// [`ComplexMnaWorkspace::factor_at_or_demote`] +
    /// [`ComplexMnaWorkspace::solve_into`] + [`ComplexMnaWorkspace::det`]
    /// loop, **bit-identical per sample** to that serial loop.
    ///
    /// On the sparse engine, samples run in chunks of up to
    /// [`simd::MAX_LANES`] lanes through one SoA workspace
    /// (symbolic traversal amortized across the chunk). A chunk whose
    /// factorization underflows a pivot in any lane is discarded and redone
    /// serially with the usual demote-to-dense ladder, so per-sample
    /// outcomes — including a mid-stream engine demotion — reproduce the
    /// serial path exactly. The dense engine (pivot order is
    /// value-dependent, so lanes cannot share a traversal) runs serially,
    /// and so does a sample left alone: a one-point call, or the last
    /// sample of a list one longer than a multiple of
    /// [`simd::MAX_LANES`].
    ///
    /// Sample `k`'s solution lands in `xs[k·dim .. (k+1)·dim]`, its
    /// determinant in `dets[k]`.
    ///
    /// # Errors
    /// The failing sample's index and the underlying
    /// [`NumericsError::SingularMatrix`], exactly as the serial loop would
    /// report it. Samples before the failing one hold valid results.
    ///
    /// # Panics
    /// Panics on output length mismatch, or if `ss`'s cap entry list
    /// drifted from the bound slot map.
    pub fn solve_det_batch(
        &mut self,
        s_list: &[Complex],
        ss: &SmallSignal,
        b: &[Complex],
        xs: &mut [Complex],
        dets: &mut [Complex],
    ) -> Result<(), (usize, NumericsError)> {
        let dim = self.dim;
        assert_eq!(xs.len(), s_list.len() * dim, "solution length mismatch");
        assert_eq!(dets.len(), s_list.len(), "determinant length mismatch");
        let mut k0 = 0;
        while k0 < s_list.len() {
            let sym = match self.solver.as_ref().and_then(Solver::symbolic) {
                Some(sym) if s_list.len() - k0 > 1 => sym,
                // Dense (or demoted) engine, or a lone sample, which the
                // serial factorization takes at half the cost of a padded
                // batch: serial, sample by sample.
                _ => {
                    let s = s_list[k0];
                    self.factor_at_or_demote(s, ss).map_err(|e| (k0, e))?;
                    dets[k0] = self.det();
                    self.solve_into(b, &mut xs[k0 * dim..(k0 + 1) * dim]);
                    k0 += 1;
                    continue;
                }
            };
            let take = (s_list.len() - k0).min(simd::MAX_LANES);
            let chunk = &s_list[k0..k0 + take];
            // Pad partial chunks (by duplicating the last sample) up to a
            // vector-friendly lane count so the batched kernels keep full
            // vector dispatch. Lanes compute independently, so the real
            // lanes' bits are unchanged, and a padding lane fails the
            // pivot check iff its duplicated real lane does — the serial
            // recovery below triggers in exactly the same cases.
            let lanes = simd::padded_lanes(take);
            let mut sbuf = [Complex::ZERO; simd::MAX_LANES];
            sbuf[..take].copy_from_slice(chunk);
            sbuf[take..lanes].fill(chunk[take - 1]);
            assert_eq!(
                self.cap_slots.len(),
                ss.cap_entries.len(),
                "cap entry list drifted from bind"
            );
            self.cap_vals.clear();
            self.cap_vals
                .extend(ss.cap_entries.iter().map(|&(_, _, c)| c));
            let batch = self
                .batch
                .get_or_insert_with(|| CSparseLuBatch::new(Arc::clone(sym)));
            if batch
                .factor_scaled(
                    &self.base_vals,
                    &self.cap_slots,
                    &self.cap_vals,
                    &sbuf[..lanes],
                )
                .is_ok()
            {
                batch.det_into(&mut dets[k0..k0 + take]);
                batch.solve_into(b, &mut xs[k0 * dim..(k0 + take) * dim]);
            } else {
                // A lane underflowed: discard the chunk and redo it
                // serially so the per-sample recovery ladder (including
                // demote-to-dense) runs exactly as it would have serially.
                for (off, &s) in chunk.iter().enumerate() {
                    let k = k0 + off;
                    self.factor_at_or_demote(s, ss).map_err(|e| (k, e))?;
                    dets[k] = self.det();
                    self.solve_into(b, &mut xs[k * dim..(k + 1) * dim]);
                }
            }
            k0 += take;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{dc_operating_point, DcOptions};
    use crate::netlist::Circuit;

    fn rc_divider() -> (Circuit, OperatingPoint, NodeId) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource_wave("V1", vin, Circuit::GROUND, 0.0.into(), 1.0);
        c.add_resistor("R1", vin, out, 1e3);
        c.add_capacitor("C1", out, Circuit::GROUND, 1e-9);
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        (c, op, out)
    }

    #[test]
    fn bind_reports_topology_changes() {
        let (c, op, _) = rc_divider();
        let mut ss = SmallSignal::new();
        assert!(ss.bind(&c, &op, 1e-12).unwrap());
        assert!(
            !ss.bind(&c, &op, 1e-12).unwrap(),
            "same topology rebinds in place"
        );
        assert_eq!(ss.dim(), 3); // 2 nodes + 1 branch
        assert_eq!(
            ss.cap_entries.len(),
            1,
            "grounded cap stamps one diagonal entry"
        );
    }

    #[test]
    fn gmin_zero_leaves_base_untouched() {
        let (c, op, _) = rc_divider();
        let mut ss_ac = SmallSignal::new();
        let mut ss_tf = SmallSignal::new();
        ss_ac.bind(&c, &op, 1e-12).unwrap();
        ss_tf.bind(&c, &op, 0.0).unwrap();
        assert_eq!(
            ss_ac.base.len(),
            ss_tf.base.len() + 2,
            "gmin adds one diagonal per node"
        );
    }

    #[test]
    fn sparse_and_dense_engines_agree() {
        let (c, op, out) = rc_divider();
        let mut ss = SmallSignal::new();
        let topo = ss.bind(&c, &op, 1e-12).unwrap();
        let row = ss.map().node_row(out).unwrap();
        let s = Complex::new(0.0, 2.0 * std::f64::consts::PI * 159e3);

        let mut results = Vec::new();
        for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
            let mut eng = ComplexMnaWorkspace::new();
            eng.set_solver(choice);
            eng.bind(&ss, topo);
            assert_eq!(eng.is_sparse(), choice == SolverChoice::Sparse);
            eng.factor_at(s, &ss.cap_entries).unwrap();
            let mut x = vec![Complex::ZERO; ss.dim()];
            let b = ss.b.clone();
            eng.solve_into(&b, &mut x);
            results.push((x[row], eng.det()));
        }
        let (hd, dd) = results[0];
        let (hs, ds) = results[1];
        assert!(
            (hd - hs).norm() <= 1e-12 * hd.norm().max(1e-30),
            "{hd:?} vs {hs:?}"
        );
        assert!((dd - ds).norm() <= 1e-9 * dd.norm(), "{dd:?} vs {ds:?}");
    }

    #[test]
    fn demotion_to_dense_preserves_results() {
        let (c, op, out) = rc_divider();
        let mut ss = SmallSignal::new();
        let topo = ss.bind(&c, &op, 1e-12).unwrap();
        let row = ss.map().node_row(out).unwrap();
        let s = Complex::new(0.0, 1e6);
        let mut eng = ComplexMnaWorkspace::new();
        eng.set_solver(SolverChoice::Sparse);
        eng.bind(&ss, topo);
        eng.factor_at(s, &ss.cap_entries).unwrap();
        let mut xs = vec![Complex::ZERO; ss.dim()];
        let b = ss.b.clone();
        eng.solve_into(&b, &mut xs);
        // Demote in place: engine switches to the dense oracle and keeps
        // producing the same answers for the same bound system.
        eng.demote_to_dense(&ss);
        assert!(!eng.is_sparse());
        eng.factor_at(s, &ss.cap_entries).unwrap();
        let mut xd = vec![Complex::ZERO; ss.dim()];
        eng.solve_into(&b, &mut xd);
        assert!((xs[row] - xd[row]).norm() <= 1e-12 * xd[row].norm().max(1e-30));
    }

    /// The batched factor/solve/det must reproduce the serial
    /// `factor_at_or_demote` + `solve_into` + `det` loop bit for bit on
    /// both engines, including ragged final chunks.
    #[test]
    fn solve_det_batch_matches_serial_loop_bitwise() {
        let (c, op, _) = rc_divider();
        let mut ss = SmallSignal::new();
        let topo = ss.bind(&c, &op, 1e-12).unwrap();
        let dim = ss.dim();
        let b = ss.b.clone();
        let samples: Vec<Complex> = (0..11)
            .map(|k| Complex::from_polar(1e6, 0.2 + 0.5 * k as f64))
            .collect();
        for choice in [SolverChoice::Sparse, SolverChoice::Dense] {
            let mut serial = ComplexMnaWorkspace::new();
            serial.set_solver(choice);
            serial.bind(&ss, topo);
            let mut want_x = Vec::new();
            let mut want_d = Vec::new();
            for &s in &samples {
                serial.factor_at_or_demote(s, &ss).unwrap();
                want_d.push(serial.det());
                let mut x = vec![Complex::ZERO; dim];
                serial.solve_into(&b, &mut x);
                want_x.push(x);
            }

            let mut batched = ComplexMnaWorkspace::new();
            batched.set_solver(choice);
            batched.bind(&ss, topo);
            let mut xs = vec![Complex::ZERO; samples.len() * dim];
            let mut dets = vec![Complex::ZERO; samples.len()];
            batched
                .solve_det_batch(&samples, &ss, &b, &mut xs, &mut dets)
                .unwrap();
            for (k, (wd, wx)) in want_d.iter().zip(&want_x).enumerate() {
                assert_eq!(dets[k].re.to_bits(), wd.re.to_bits(), "{choice:?} k={k}");
                assert_eq!(dets[k].im.to_bits(), wd.im.to_bits(), "{choice:?} k={k}");
                for (xb, xw) in xs[k * dim..(k + 1) * dim].iter().zip(wx) {
                    assert_eq!(xb.re.to_bits(), xw.re.to_bits(), "{choice:?} k={k}");
                    assert_eq!(xb.im.to_bits(), xw.im.to_bits(), "{choice:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn rebinding_same_topology_reuses_symbolic() {
        let (mut c, op, _) = rc_divider();
        let mut ss = SmallSignal::new();
        let topo = ss.bind(&c, &op, 1e-12).unwrap();
        let mut eng = ComplexMnaWorkspace::new();
        eng.set_solver(SolverChoice::Sparse);
        eng.bind(&ss, topo);
        assert_eq!(eng.symbolic_analyses(), 1);
        // Retune and rebind: values change, pattern does not.
        let (rid, _) = c.find_element("R1").unwrap();
        c.set_value(rid, 2e3);
        let topo = ss.bind(&c, &op, 1e-12).unwrap();
        assert!(!topo);
        eng.bind(&ss, topo);
        assert_eq!(eng.symbolic_analyses(), 1, "retune must not re-analyze");
    }
}
