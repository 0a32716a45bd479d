//! Transient analysis: trapezoidal integration with per-step Newton
//! solves and two-phase clocked switches.
//!
//! This engine backs the paper's "when circuits experience large dynamic
//! swing, simulation-based evaluation produces trustworthy results" claim:
//! switched-capacitor MDAC settling is simulated here when the linear
//! small-signal model is not to be trusted.
//!
//! Two paths coexist:
//!
//! * [`transient`] — the seed-era dense fixed-step engine, kept as the
//!   **oracle** with its own element loop: every element restamps a dense
//!   Jacobian each Newton iteration. Slow, simple, trusted.
//! * [`TranWorkspace`] + [`transient_with`] / [`transient_adaptive`] — the
//!   production path, on the Newton Jacobian engine shared with DC
//!   analysis (the crate-private `engine` module: stamp segments and
//!   slots, dense or CSR, and the dense fallback). The companion-model
//!   sparsity pattern is fixed per topology (a capacitor stamps the same
//!   four positions whatever `dt` is; a switch stamps the same four
//!   positions whatever phase is active), so the pattern and symbolic
//!   factorization are frozen once and capacitor/switch/MOSFET restamps
//!   replay through precomputed slots — the timestep loop performs **zero
//!   heap allocation**. Newton warm-starts from the previous timestep, and
//!   [`transient_adaptive`] adds LTE-based step doubling/halving with
//!   clock-edge-aligned breakpoints.
//!
//! Capacitors use the trapezoidal companion model (A-stable, second-order);
//! MOSFETs are evaluated as static nonlinearities — charge storage must be
//! modeled with explicit capacitors, which the OTA templates do.
//!
//! # Newton convergence at a time point
//!
//! The workspace's Newton loop accepts a time point as soon as its iterate
//! is within `NEWTON_VTOL` (1 nV) of the solution, by either of two tests on the
//! largest node-voltage update `dv_k`: the update just applied is below
//! the tolerance, or quadratic convergence puts the next one below it.
//! Near a simple root Newton's error contracts as `e_{k+1} ≈ C·e_k²`, and an
//! update is about the error it removes, so the last two updates estimate
//! the next as `dv_k³ / dv_{k−1}²`; the test trusts that model only for two
//! undamped updates (≤ 1 V), the later one smaller. A smooth point's
//! updates run 1e-2, 1e-5, 1e-11 V: the second test accepts it after the
//! 1e-5 V update, one iteration before the first would. Stall tiers accept
//! the noise-bound limit cycles that neither test reaches
//! (`NEWTON_STALL_VTOL`). Between iterations only the MOSFET companions
//! change, and the shared engine refactors only the factor rows they
//! reach while the phase and the step size hold. The dense oracle
//! [`transient`] keeps the first test alone.

use crate::dc::stamp_mosfets;
#[cfg(feature = "faults")]
use crate::engine::injected_solve_fault;
use crate::engine::Engine;
use crate::linearize::SolverChoice;
use crate::mna::{add_opt, stamp_conductance, stamp_constant, stamp_vccs, MnaMap};
use crate::mosfet::eval_mosfet;
use crate::netlist::{Circuit, ClockPhase, Element, NodeId};
use crate::{SpiceError, SpiceResult};
use adc_numerics::quant::quantize_rel;
use adc_numerics::{Deadline, Matrix};

/// Floating-node leak conductance added to every node diagonal, S.
const TRAN_GMIN: f64 = 1e-12;

/// Newton iterations per time point.
const NEWTON_MAX_ITER: usize = 60;

/// Node-voltage update below which a time point's Newton loop has
/// converged, V.
const NEWTON_VTOL: f64 = 1e-9;

/// Stall-acceptance ceiling of the transient Newton loops, relative to the
/// iterate's node-voltage scale (clamped to ≥ 1 V): an update that is
/// already below `ceiling = NEWTON_STALL_VTOL·max(1, max|vₖ|)` and no
/// longer contracting (reduction by less than 2× per iteration) is
/// float-noise limit cycling above [`NEWTON_VTOL`] — amplified by the stiff
/// companion conductances at small dt — not real residual motion, and the
/// iterate is accepted. Quadratically converging trajectories contract far
/// faster than 2× per step in this regime, so the early accept never fires
/// on a healthy Newton sequence.
const NEWTON_STALL_VTOL: f64 = 1e-5;

/// The stall ceiling for a node-voltage slice (see [`NEWTON_STALL_VTOL`]).
fn stall_ceiling(v: &[f64]) -> f64 {
    let vmax = v.iter().fold(1.0_f64, |m, &x| m.max(x.abs()));
    NEWTON_STALL_VTOL * vmax
}

/// The convergence test of [`TranWorkspace::solve_point`]: whether the
/// Newton update `dv` (the largest node-voltage change, V) just applied,
/// after the update `prev_dv` before it, puts the next update below
/// [`NEWTON_VTOL`] under quadratic convergence.
///
/// Error model: near a simple root, Newton's error contracts as
/// `e_{k+1} ≈ C·e_k²`, and each update is about the error it removes, so
/// `dv_{k+1} ≈ C·dv_k²`. The last two updates estimate
/// `C ≈ dv_k / dv_{k−1}²`, and the next update as `dv_k³ / dv_{k−1}²`:
/// the distance the accepted iterate still is from the solution. The model
/// holds only for full Newton steps inside the region of convergence, so
/// both updates must be undamped (≤ 1 V, the damping threshold) and the
/// later one smaller.
fn next_update_below_tol(dv: f64, prev_dv: f64) -> bool {
    dv <= 1.0 && prev_dv <= 1.0 && dv < prev_dv && dv * dv * dv < NEWTON_VTOL * prev_dv * prev_dv
}

/// Two-phase non-overlapping clock description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clock {
    /// Clock frequency, Hz.
    pub freq: f64,
    /// Non-overlap interval between phases, s.
    pub nonoverlap: f64,
}

impl Clock {
    /// Clock period, s.
    pub fn period(&self) -> f64 {
        1.0 / self.freq
    }

    /// Non-overlap interval as a fraction of the period.
    #[inline]
    fn nonoverlap_frac(&self) -> f64 {
        self.nonoverlap * self.freq
    }

    /// Which phase is active at time `t` (`None` during non-overlap gaps).
    ///
    /// The period position is computed as the fractional part of
    /// `t · freq` — one rounding, no accumulation — rather than
    /// `t.rem_euclid(1/freq)`, whose inexact period drifts the phase
    /// boundaries by ~`t · ε` after many cycles.
    pub fn active_phase(&self, t: f64) -> Option<ClockPhase> {
        let u = t * self.freq;
        let frac = u - u.floor();
        let d = self.nonoverlap_frac();
        if frac < 0.5 - d {
            Some(ClockPhase::Phi1)
        } else if (0.5..1.0 - d).contains(&frac) {
            Some(ClockPhase::Phi2)
        } else {
            None
        }
    }

    /// The next phase boundary strictly after `t`: the end of φ1, the
    /// start of φ2, the end of φ2, or the start of the next period.
    /// Adaptive stepping clamps to these so a step never straddles a
    /// switch transition.
    pub fn next_edge(&self, t: f64) -> f64 {
        let period = self.period();
        let u = t * self.freq;
        let k = u.floor();
        let d = self.nonoverlap_frac();
        let eps = (t.abs() + period) * 1e-12;
        for cycle in 0..2 {
            let base = k + cycle as f64;
            for frac in [0.5 - d, 0.5, 1.0 - d, 1.0] {
                let cand = (base + frac) * period;
                if cand > t + eps {
                    return cand;
                }
            }
        }
        t + period
    }

    /// The `(t_start, t_end)` window during which `phase` is active in
    /// period `period_index` (φ1 opens at the period start, φ2 at the
    /// half-period; both close one non-overlap interval early).
    pub fn phase_window(&self, period_index: usize, phase: ClockPhase) -> (f64, f64) {
        let p = self.period();
        let d = self.nonoverlap_frac();
        let k = period_index as f64;
        match phase {
            ClockPhase::Phi1 => (k * p, (k + 0.5 - d) * p),
            ClockPhase::Phi2 => ((k + 0.5) * p, (k + 1.0 - d) * p),
        }
    }
}

/// Initial condition for the transient run.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum InitialCondition {
    /// All node voltages start at 0.
    #[default]
    Zero,
    /// Start from explicit node voltages indexed by [`crate::netlist::NodeId::index`].
    /// The vector length must equal the circuit's node count (including
    /// ground at index 0).
    Voltages(Vec<f64>),
}

/// Options for [`transient`], [`transient_with`] and [`transient_adaptive`].
#[derive(Debug, Clone)]
pub struct TranOptions {
    /// Stop time, s.
    pub tstop: f64,
    /// Fixed time step, s (ignored by [`transient_adaptive`]).
    pub dt: f64,
    /// Optional two-phase clock driving the switches.
    pub clock: Option<Clock>,
    /// Initial condition.
    pub ic: InitialCondition,
    /// Cooperative wall-clock budget, checked once per timestep (fixed)
    /// or step attempt (adaptive). An expired deadline turns the run into
    /// [`SpiceError::Timeout`]; the default is unlimited and costs
    /// nothing.
    pub deadline: Deadline,
    /// The nodes the caller will read from the [`TranResult`]. Empty
    /// records every node (ground included); otherwise each accepted
    /// sample stores only these nodes' voltages, and reading any other
    /// node from the result panics. Recording never feeds back into the
    /// simulation, so a probed column is bit-identical to the same column
    /// of a full record — the option only decides what the sample store
    /// keeps (a chain sign-off reads its 2–6 stage outputs out of ~130
    /// nodes).
    pub probes: Vec<NodeId>,
}

impl Default for TranOptions {
    fn default() -> Self {
        TranOptions {
            tstop: 1e-6,
            dt: 1e-9,
            clock: None,
            ic: InitialCondition::Zero,
            deadline: Deadline::none(),
            probes: Vec::new(),
        }
    }
}

/// Counters from a transient run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TranStats {
    /// Accepted timesteps (equals the fixed step count on fixed-step runs).
    pub accepted: usize,
    /// Steps rejected by the LTE controller (always 0 on fixed-step runs).
    pub rejected: usize,
    /// Total Newton iterations across all steps.
    pub newton_iters: usize,
    /// Smallest accepted step, s (0 when no steps ran).
    pub min_dt: f64,
    /// Whether the run factored through the CSR engine.
    pub sparse: bool,
}

/// Transient simulation result: a flat sample store (one row per accepted
/// time point, holding every node's voltage with ground at index 0, or
/// only the probed nodes' voltages — see [`TranOptions::probes`]).
#[derive(Debug, Clone)]
pub struct TranResult {
    times: Vec<f64>,
    node_count: usize,
    /// Recorded nodes, in column order; empty when every node is recorded.
    probes: Vec<NodeId>,
    /// Row-major samples, `times.len() × width()`.
    data: Vec<f64>,
    stats: TranStats,
}

impl TranResult {
    /// An empty store recording `probes` (every node when empty) of a
    /// circuit with `node_count` nodes, with room for `samples` rows.
    ///
    /// # Errors
    /// [`SpiceError::BadNetlist`] if a probe is not a node of the circuit.
    fn new(
        node_count: usize,
        probes: &[NodeId],
        samples: usize,
        stats: TranStats,
    ) -> SpiceResult<TranResult> {
        if let Some(p) = probes.iter().find(|p| p.index() >= node_count) {
            return Err(SpiceError::BadNetlist(format!(
                "probe node {} outside the circuit's {node_count} nodes",
                p.index()
            )));
        }
        let mut out = TranResult {
            times: Vec::with_capacity(samples),
            node_count,
            probes: probes.to_vec(),
            data: Vec::new(),
            stats,
        };
        out.data.reserve(samples * out.width());
        Ok(out)
    }

    /// Values stored per sample.
    fn width(&self) -> usize {
        if self.probes.is_empty() {
            self.node_count
        } else {
            self.probes.len()
        }
    }

    /// Column of `node` in a sample row.
    ///
    /// # Panics
    /// Panics if the run probed a node set that excludes `node`.
    fn column(&self, node: NodeId) -> usize {
        if self.probes.is_empty() {
            return node.index();
        }
        self.probes
            .iter()
            .position(|&p| p == node)
            .unwrap_or_else(|| panic!("node {} was not probed", node.index()))
    }

    /// Time axis, s.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Waveform of one node.
    pub fn waveform(&self, node: NodeId) -> Vec<f64> {
        let (col, width) = (self.column(node), self.width());
        (0..self.times.len())
            .map(|k| self.data[k * width + col])
            .collect()
    }

    /// Node voltage at sample `k`.
    pub fn voltage_at(&self, node: NodeId, k: usize) -> f64 {
        self.data[k * self.width() + self.column(node)]
    }

    /// Final node voltage.
    pub fn final_voltage(&self, node: NodeId) -> f64 {
        if self.times.is_empty() {
            0.0
        } else {
            self.voltage_at(node, self.times.len() - 1)
        }
    }

    /// Node voltage at time `t`, linearly interpolated between samples
    /// (clamped to the run's time span). Adaptive runs place samples
    /// unevenly, so probing "the voltage at phase end" goes through here.
    pub fn sample_at(&self, node: NodeId, t: f64) -> f64 {
        if self.times.is_empty() {
            return 0.0;
        }
        let n = self.times.len();
        if t <= self.times[0] {
            return self.voltage_at(node, 0);
        }
        if t >= self.times[n - 1] {
            return self.voltage_at(node, n - 1);
        }
        // First index with time > t; its predecessor brackets t.
        let hi = self.times.partition_point(|&tt| tt <= t);
        let (t0, t1) = (self.times[hi - 1], self.times[hi]);
        let (v0, v1) = (self.voltage_at(node, hi - 1), self.voltage_at(node, hi));
        if t1 <= t0 {
            return v1;
        }
        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    }

    /// Node voltage at the last accepted sample with time ≤ `t` — the
    /// **left limit**. Switched-capacitor waveforms jump discontinuously
    /// when a phase ends and an undriven node snaps to its open-switch
    /// level; probing "the value at phase end" must not interpolate across
    /// that snap (fixed-step runs place no sample exactly on the edge), so
    /// phase-end measurements go through here instead of [`Self::sample_at`].
    pub fn sample_before(&self, node: NodeId, t: f64) -> f64 {
        if self.times.is_empty() {
            return 0.0;
        }
        let hi = self.times.partition_point(|&tt| tt <= t);
        self.voltage_at(node, hi.saturating_sub(1))
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True if the run produced no samples.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Run counters (step/iteration counts, smallest step, engine kind).
    pub fn stats(&self) -> &TranStats {
        &self.stats
    }

    fn push_sample(&mut self, t: f64, x: &[f64]) {
        self.times.push(t);
        if self.probes.is_empty() {
            self.data.push(0.0); // ground
            self.data.extend_from_slice(&x[..self.node_count - 1]);
        } else {
            for p in &self.probes {
                // Node i is unknown i − 1; ground is not an unknown.
                self.data
                    .push(p.index().checked_sub(1).map_or(0.0, |r| x[r]));
            }
        }
    }
}

/// Validates and applies an initial condition onto the unknown vector
/// (node rows only; branch currents start at 0).
fn apply_ic(map: &MnaMap, ic: &InitialCondition, x: &mut [f64]) -> SpiceResult<()> {
    x.fill(0.0);
    if let InitialCondition::Voltages(v0) = ic {
        let nc = map.node_count();
        if v0.len() != nc {
            return Err(SpiceError::BadNetlist(format!(
                "initial condition has {} voltages, circuit has {} nodes",
                v0.len(),
                nc
            )));
        }
        x[..nc - 1].copy_from_slice(&v0[1..]);
    }
    Ok(())
}

/// Precomputed per-switch restamp data: matrix rows and the two
/// conductances the phase toggles between.
#[derive(Debug, Clone, Copy)]
struct SwitchSlot {
    ra: Option<usize>,
    rb: Option<usize>,
    gon: f64,
    goff: f64,
    phase: ClockPhase,
}

/// Precomputed per-capacitor companion data: matrix rows, the companion
/// conductance for the current step size, and the trapezoidal state.
#[derive(Debug, Clone, Copy)]
struct CapSlot {
    ra: Option<usize>,
    rb: Option<usize>,
    farads: f64,
    /// `2C/dt` for the step size currently loaded via `set_dt`.
    geq: f64,
    v_old: f64,
    i_old: f64,
}

/// Slot segments of the transient stamp pattern after the static base
/// (segment 0), in recording order.
const SWITCHES: usize = 1;
const CAPS: usize = 2;
const GMIN: usize = 3;
const MOSFETS: usize = 4;

/// Reusable transient workspace: the MNA map, the stamp pattern and (on
/// the sparse engine) the symbolic factorization are built once per
/// circuit topology; every run restamps the static base, the
/// [`stamp_constant`] entries of every element (so value retuning is
/// picked up), and the timestep loop itself performs **zero
/// heap allocation** — switch and capacitor companion restamps replay
/// buffered values through the frozen slots exactly like the MOSFET
/// restamp path, and Newton warm-starts each step from the previous one.
/// The Jacobian engine is the one shared with DC analysis; the
/// crate-private `engine` module documents its slot contract and fallback
/// policy.
#[derive(Debug)]
pub struct TranWorkspace {
    engine: Engine,
    switches: Vec<SwitchSlot>,
    caps: Vec<CapSlot>,
    /// Buffered switch conductance values (refreshed on phase change only).
    sw_vals: Vec<f64>,
    /// Buffered capacitor companion values (refreshed on dt change only).
    cap_vals: Vec<f64>,
    /// Time-varying source vector: residual = `A·x − b(t)` + MOSFET
    /// currents, where `b` holds source waveforms at `t` and capacitor
    /// history terms.
    b: Vec<f64>,
    res: Vec<f64>,
    dx: Vec<f64>,
    x: Vec<f64>,
    /// Previous accepted solution (reject/restore in the adaptive loop).
    x_prev: Vec<f64>,
    cur_phase: Option<ClockPhase>,
    phase_valid: bool,
    cur_dt: f64,
}

impl TranWorkspace {
    /// Builds the workspace for a circuit topology, selecting the solver
    /// engine by structural fill ratio.
    ///
    /// # Errors
    /// [`SpiceError::BadNetlist`] if the circuit has no unknowns.
    pub fn new(circuit: &Circuit) -> SpiceResult<Self> {
        TranWorkspace::with_solver(circuit, SolverChoice::Auto)
    }

    /// [`TranWorkspace::new`] with an explicit solver-engine choice
    /// (tests/diagnostics; production uses [`SolverChoice::Auto`]).
    ///
    /// # Errors
    /// [`SpiceError::BadNetlist`] if the circuit has no unknowns.
    pub fn with_solver(circuit: &Circuit, choice: SolverChoice) -> SpiceResult<Self> {
        let engine = Engine::new(circuit, choice, |map, p| {
            for (idx, e) in circuit.elements().iter().enumerate() {
                stamp_constant(map, idx, e, &mut |r, c, _| p.push(r, c));
            }
            p.close();
            for e in circuit.elements() {
                if let Element::Switch { a, b, .. } = e {
                    let (ra, rb) = (map.node_row(*a), map.node_row(*b));
                    stamp_conductance(ra, rb, 0.0, &mut |r, c, _| p.push(r, c));
                }
            }
            p.close();
            for e in circuit.elements() {
                if let Element::Capacitor { a, b, .. } = e {
                    let (ra, rb) = (map.node_row(*a), map.node_row(*b));
                    stamp_conductance(ra, rb, 0.0, &mut |r, c, _| p.push(r, c));
                }
            }
            p.close();
            for row in 0..map.node_count() - 1 {
                p.push(row, row);
            }
            p.close();
            let zeros = vec![0.0; map.dim()];
            let mut scratch = zeros.clone();
            stamp_mosfets(circuit, map, &zeros, &mut scratch, &mut |r, c, _| {
                p.push(r, c)
            });
            p.close();
        })?;
        let dim = engine.map().dim();
        Ok(TranWorkspace {
            engine,
            switches: Vec::new(),
            caps: Vec::new(),
            sw_vals: Vec::new(),
            cap_vals: Vec::new(),
            b: vec![0.0; dim],
            res: vec![0.0; dim],
            dx: vec![0.0; dim],
            x: vec![0.0; dim],
            x_prev: vec![0.0; dim],
            cur_phase: None,
            phase_valid: false,
            cur_dt: 0.0,
        })
    }

    /// Whether this workspace was built for `circuit`'s topology (value
    /// retuning keeps it valid; rewiring rebuilds).
    pub fn matches(&self, circuit: &Circuit) -> bool {
        self.engine.map().matches(circuit)
    }

    /// Whether the Newton Jacobian currently factors sparse.
    pub fn is_sparse(&self) -> bool {
        self.engine.is_sparse()
    }

    /// Per-run setup: restamps the static base, applies the initial
    /// condition, (re)collects the switch/capacitor restamp data so value
    /// retuning is picked up and invalidates the phase/dt buffers.
    fn prepare(&mut self, circuit: &Circuit, ic: &InitialCondition) -> SpiceResult<()> {
        if !self.matches(circuit) {
            *self = TranWorkspace::with_solver(circuit, self.engine.choice())?;
        }
        self.engine.restamp_base(|map, vals| {
            for (idx, e) in circuit.elements().iter().enumerate() {
                stamp_constant(map, idx, e, &mut |_, _, v| vals.push(v));
            }
        });
        let map = self.engine.map();
        apply_ic(map, ic, &mut self.x)?;
        self.x_prev.copy_from_slice(&self.x);
        self.switches.clear();
        self.caps.clear();
        for e in circuit.elements() {
            match e {
                Element::Switch {
                    a,
                    b,
                    ron,
                    roff,
                    phase,
                    ..
                } => self.switches.push(SwitchSlot {
                    ra: map.node_row(*a),
                    rb: map.node_row(*b),
                    gon: 1.0 / ron,
                    goff: 1.0 / roff,
                    phase: *phase,
                }),
                Element::Capacitor { a, b, farads, .. } => {
                    let (ra, rb) = (map.node_row(*a), map.node_row(*b));
                    let va = ra.map_or(0.0, |r| self.x[r]);
                    let vb = rb.map_or(0.0, |r| self.x[r]);
                    self.caps.push(CapSlot {
                        ra,
                        rb,
                        farads: *farads,
                        geq: 0.0,
                        v_old: va - vb,
                        i_old: 0.0,
                    });
                }
                _ => {}
            }
        }
        // Pre-size the value buffers so the first set_phase/set_dt in the
        // timestep loop rewrites in place instead of growing.
        let sw_vals = &mut self.sw_vals;
        sw_vals.clear();
        for sw in &self.switches {
            stamp_conductance(sw.ra, sw.rb, sw.goff, &mut |_, _, v| sw_vals.push(v));
        }
        let cap_vals = &mut self.cap_vals;
        cap_vals.clear();
        for cap in &self.caps {
            stamp_conductance(cap.ra, cap.rb, 0.0, &mut |_, _, v| cap_vals.push(v));
        }
        self.phase_valid = false;
        self.cur_dt = 0.0;
        Ok(())
    }

    /// Re-buffers switch conductances when the active phase changes
    /// (no-op while the phase holds — most timesteps), dropping the
    /// engine's linear cache.
    fn set_phase(&mut self, phase: Option<ClockPhase>) {
        if self.phase_valid && self.cur_phase == phase {
            return;
        }
        self.engine.drop_linear();
        self.cur_phase = phase;
        self.phase_valid = true;
        let sw_vals = &mut self.sw_vals;
        sw_vals.clear();
        for sw in &self.switches {
            let g = if phase == Some(sw.phase) {
                sw.gon
            } else {
                sw.goff
            };
            stamp_conductance(sw.ra, sw.rb, g, &mut |_, _, v| sw_vals.push(v));
        }
    }

    /// Re-buffers capacitor companion conductances when the step size
    /// changes (no-op while dt holds), dropping the engine's linear cache.
    fn set_dt(&mut self, dt: f64) {
        if self.cur_dt == dt {
            return;
        }
        self.engine.drop_linear();
        self.cur_dt = dt;
        for cap in &mut self.caps {
            cap.geq = 2.0 * cap.farads / dt;
        }
        let cap_vals = &mut self.cap_vals;
        cap_vals.clear();
        for cap in &self.caps {
            stamp_conductance(cap.ra, cap.rb, cap.geq, &mut |_, _, v| cap_vals.push(v));
        }
    }

    /// Assembles the time-varying source vector at `t`: independent
    /// source waveforms plus the trapezoidal history term
    /// `h = geq·v_old + i_old` of every capacitor.
    fn assemble_b(&mut self, circuit: &Circuit, t: f64) {
        let map = self.engine.map();
        let b = &mut self.b;
        b.fill(0.0);
        for (idx, e) in circuit.elements().iter().enumerate() {
            match e {
                Element::ISource { p, n, wave, .. } => {
                    // Residual is A·x − b, so a current `i` leaving `p`
                    // lands in b with sign −i.
                    let i = wave.value(t);
                    add_opt(b, map.node_row(*p), -i);
                    add_opt(b, map.node_row(*n), i);
                }
                Element::VSource { wave, .. } => {
                    b[map.branch_row(idx)] += wave.value(t);
                }
                _ => {}
            }
        }
        for cap in &self.caps {
            let h = cap.geq * cap.v_old + cap.i_old;
            add_opt(b, cap.ra, h);
            add_opt(b, cap.rb, -h);
        }
    }

    /// Assembles the Jacobian and residual at the current `x` without
    /// allocating: load the linear Jacobian — the static base plus the
    /// buffered switch/capacitor/g_min values scattered through the frozen
    /// slots, which the engine caches until the phase or the step size
    /// changes — evaluate the linear residual as a mat-vec against `b(t)`,
    /// then restamp only the MOSFET companions.
    fn assemble(&mut self, circuit: &Circuit) {
        let engine = &mut self.engine;
        let (x, res) = (&self.x, &mut self.res);
        let (sw_vals, cap_vals) = (&self.sw_vals, &self.cap_vals);
        engine.load_linear(|e| {
            e.scatter(SWITCHES, sw_vals);
            e.scatter(CAPS, cap_vals);
            e.scatter_uniform(GMIN, TRAN_GMIN);
        });
        engine.mul_linear(x, res);
        for (r, bv) in res.iter_mut().zip(self.b.iter()) {
            *r -= *bv;
        }
        engine.stamp(MOSFETS, |map, vals| {
            stamp_mosfets(circuit, map, x, res, &mut |_, _, v| vals.push(v));
        });
    }

    /// Damped Newton at one time point (assemble → solve → update),
    /// warm-started from the current `x`. Returns the iteration count.
    ///
    /// The point is accepted after the update that brings the iterate
    /// within [`NEWTON_VTOL`] of the solution: when the update just applied
    /// is below the tolerance itself, or when quadratic convergence puts
    /// the *next* update below it ([`next_update_below_tol`]). The second
    /// test saves the last iteration of a smooth point, whose updates run
    /// 1e-2, 1e-5, 1e-11 V: the 1e-11 V correction is below the tolerance
    /// before it is computed. The stall tiers below catch the noise-bound
    /// cases neither test reaches.
    fn solve_point(&mut self, circuit: &Circuit, t: f64) -> SpiceResult<usize> {
        let mut prev_dv = f64::INFINITY;
        for it in 0..NEWTON_MAX_ITER {
            self.assemble(circuit);
            // Newton step: J·dx = −res, reusing res as the negated rhs.
            self.res.iter_mut().for_each(|r| *r = -*r);
            if !self.engine.factor_solve(&self.res, &mut self.dx) {
                return Err(SpiceError::Singular(format!("t = {t:.3e}s")));
            }
            let nv = self.engine.map().node_count() - 1;
            let max_dv = self.dx[..nv].iter().fold(0.0_f64, |m, &d| m.max(d.abs()));
            let alpha = if max_dv > 1.0 { 1.0 / max_dv } else { 1.0 };
            for (xi, di) in self.x.iter_mut().zip(self.dx.iter()) {
                *xi += alpha * di;
            }
            if max_dv * alpha < NEWTON_VTOL || next_update_below_tol(max_dv, prev_dv) {
                return Ok(it + 1);
            }
            // Float noise in the device-model evaluations can trap the
            // update in a nanovolt-scale limit cycle just above the
            // tolerance.
            // Once the step is micro-volt small and no longer contracting,
            // the point is solved for every physical purpose — accept it.
            if max_dv < stall_ceiling(&self.x[..nv]) && max_dv > 0.5 * prev_dv {
                return Ok(it + 1);
            }
            prev_dv = max_dv;
        }
        // Noise-bound fallback (see [`NEWTON_STALL_VTOL`]): a multi-level
        // limit cycle whose envelope is still far below any physical
        // bistability is accepted at loop exhaustion; a genuinely
        // non-convergent (volt-scale) cycle stays an error.
        let nv = self.engine.map().node_count() - 1;
        if prev_dv < 100.0 * stall_ceiling(&self.x[..nv]) {
            return Ok(NEWTON_MAX_ITER);
        }
        Err(SpiceError::DcConvergence {
            residual: f64::NAN,
            iterations: NEWTON_MAX_ITER,
        })
    }

    /// Times the pieces of one Newton iteration at the time point the
    /// workspace's last run on `circuit` ended at, each over `reps` calls:
    /// the profile of [`NewtonProfile`]. The run's result is not touched;
    /// the next run starts afresh as always.
    ///
    /// # Panics
    /// Panics if the workspace's last run was not on `circuit`'s topology
    /// or ended without a point to iterate at.
    pub fn profile_newton(&mut self, circuit: &Circuit, reps: usize) -> NewtonProfile {
        use crate::engine::time_us;
        assert!(
            self.matches(circuit) && self.phase_valid,
            "profile a workspace after a run on this circuit"
        );
        self.assemble(circuit);
        let engine = &mut self.engine;
        let (x, res) = (&self.x, &mut self.res);
        let (sw_vals, cap_vals) = (&self.sw_vals, &self.cap_vals);
        let linear_load_us = time_us(reps, || engine.load_linear(|_| {}));
        let linear_restamp_us = time_us(reps, || {
            engine.drop_linear();
            engine.load_linear(|e| {
                e.scatter(SWITCHES, sw_vals);
                e.scatter(CAPS, cap_vals);
                e.scatter_uniform(GMIN, TRAN_GMIN);
            });
        });
        let mat_vec_us = time_us(reps, || engine.mul_linear(x, res));
        // Each call adds its companions again; the factor pieces below
        // run on a Jacobian assembled once more.
        let mosfet_stamp_us = time_us(reps, || {
            engine.stamp(MOSFETS, |map, vals| {
                stamp_mosfets(circuit, map, x, res, &mut |_, _, v| vals.push(v));
            });
        });
        self.assemble(circuit);
        self.res.iter_mut().for_each(|r| *r = -*r);
        let [full_factor_us, refactor_us, solve_us] =
            self.engine
                .profile_factor_solve(&self.res, &mut self.dx, reps);
        NewtonProfile {
            dim: self.engine.map().dim(),
            dependent_rows: self.engine.dependent_rows(),
            linear_load_us,
            linear_restamp_us,
            mat_vec_us,
            mosfet_stamp_us,
            full_factor_us,
            refactor_us,
            solve_us,
        }
    }

    /// Advances every capacitor's trapezoidal state to the just-accepted
    /// solution.
    fn commit_caps(&mut self) {
        let x = &self.x;
        for cap in &mut self.caps {
            let va = cap.ra.map_or(0.0, |r| x[r]);
            let vb = cap.rb.map_or(0.0, |r| x[r]);
            let v_new = va - vb;
            let i_new = cap.geq * (v_new - cap.v_old) - cap.i_old;
            cap.v_old = v_new;
            cap.i_old = i_new;
        }
    }
}

/// Microseconds per call of the pieces of one transient Newton iteration
/// on a workspace's engine ([`TranWorkspace::profile_newton`]), with the
/// size of its system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonProfile {
    /// MNA unknowns.
    pub dim: usize,
    /// Factor rows a refactorization recomputes while the phase and the
    /// step size hold: those the MOSFET stamps reach on the CSR engine,
    /// all of them on the dense one.
    pub dependent_rows: usize,
    /// Reloading the linear Jacobian from the engine's cache.
    pub linear_load_us: f64,
    /// Reassembling the linear Jacobian (the base plus the switch,
    /// capacitor and g_min scatters), as after a phase or step change.
    pub linear_restamp_us: f64,
    /// The linear residual's mat-vec.
    pub mat_vec_us: f64,
    /// Evaluating and stamping every MOSFET companion.
    pub mosfet_stamp_us: f64,
    /// A full factorization.
    pub full_factor_us: f64,
    /// A refactorization of the dependent rows alone.
    pub refactor_us: f64,
    /// The forward and back substitution.
    pub solve_us: f64,
}

/// Tuning for the LTE-based adaptive step controller.
#[derive(Debug, Clone, Copy)]
pub struct TimeStepConfig {
    /// Smallest allowed step, s.
    pub dt_min: f64,
    /// Largest allowed step, s.
    pub dt_max: f64,
    /// First step after t=0 and after every clock-edge breakpoint, s.
    pub dt_init: f64,
}

/// Relative LTE tolerance of the adaptive step controller.
const LTE_RELTOL: f64 = 1e-3;

/// Absolute LTE tolerance of the adaptive step controller, V.
const LTE_ABSTOL: f64 = 1e-6;

/// Step growth factor on low-error acceptance.
const STEP_GROW: f64 = 2.0;

/// Step shrink factor on rejection.
const STEP_SHRINK: f64 = 0.5;

/// Error ratio below which the step grows by [`STEP_GROW`].
const GROW_THRESHOLD: f64 = 0.05;

/// Significant digits the error ratio is quantized to before every
/// accept/reject/grow decision, so sparse and dense engines walk an
/// identical step sequence despite last-ulp assembly differences.
const CONTROL_DIGITS: u32 = 4;

impl Default for TimeStepConfig {
    fn default() -> Self {
        TimeStepConfig {
            dt_min: 1e-13,
            dt_max: 1e-7,
            dt_init: 1e-10,
        }
    }
}

impl TimeStepConfig {
    /// A configuration scaled to a clock: the initial step resolves a
    /// phase window into ~256 slices, the cap keeps at least 8 steps per
    /// window, and the floor leaves 4096× headroom for stiff transitions.
    pub fn for_clock(clock: &Clock) -> Self {
        let w = clock.period() / 2.0;
        TimeStepConfig {
            dt_init: w / 256.0,
            dt_min: w / 256.0 / 4096.0,
            dt_max: w / 8.0,
        }
    }
}

/// Mutable state of the adaptive step controller: the proposed step and a
/// short history of accepted solutions for the divided-difference LTE
/// estimate.
#[derive(Debug, Clone)]
struct TimeStepState {
    /// Step proposed for the next attempt, s.
    dt: f64,
    /// Times of the retained accepted points (oldest → newest).
    hist_t: [f64; 3],
    /// Solutions at those times.
    hist_x: [Vec<f64>; 3],
    /// How many history slots are valid.
    hist_len: usize,
}

impl TimeStepState {
    /// Fresh controller state for a system of dimension `dim`.
    fn new(cfg: &TimeStepConfig, dim: usize) -> Self {
        TimeStepState {
            dt: cfg.dt_init,
            hist_t: [0.0; 3],
            hist_x: [vec![0.0; dim], vec![0.0; dim], vec![0.0; dim]],
            hist_len: 0,
        }
    }

    /// Records an accepted solution (oldest point rotates out).
    fn push_accepted(&mut self, t: f64, x: &[f64]) {
        if self.hist_len < 3 {
            self.hist_t[self.hist_len] = t;
            self.hist_x[self.hist_len].copy_from_slice(x);
            self.hist_len += 1;
        } else {
            self.hist_t.rotate_left(1);
            self.hist_x.rotate_left(1);
            self.hist_t[2] = t;
            self.hist_x[2].copy_from_slice(x);
        }
    }

    /// Drops the history (called at clock-edge breakpoints: the solution
    /// is discontinuous in its derivatives there, so divided differences
    /// across the edge would be meaningless).
    fn clear_history(&mut self) {
        self.hist_len = 0;
    }

    /// Weighted local-truncation-error estimate for a candidate solution
    /// `x_new` at `t_new` against the accepted history: the trapezoidal
    /// LTE is `−h³/12·x‴`, with `x‴ ≈ 6·DD3` from the third divided
    /// difference over the last four points, giving `|LTE| = h³·|DD3|/2`
    /// per unknown. Each node row is weighted by
    /// [`LTE_RELTOL`]`·|x| +` [`LTE_ABSTOL`]
    /// and the maximum ratio is returned: ≤ 1 means the step passes. With
    /// fewer than two history points the estimate is 0 (accept — startup
    /// or just past a breakpoint); with exactly two, a conservative
    /// `h²·|DD2|` second-difference bound is used.
    fn estimate_error_weighted(&self, t_new: f64, x_new: &[f64], node_rows: usize) -> f64 {
        if self.hist_len < 2 {
            return 0.0;
        }
        let mut worst = 0.0_f64;
        if self.hist_len == 2 {
            let (t0, t1) = (self.hist_t[0], self.hist_t[1]);
            let h = t_new - t1;
            for (i, &xn) in x_new.iter().enumerate().take(node_rows) {
                let x0 = self.hist_x[0][i];
                let x1 = self.hist_x[1][i];
                let dd1a = (x1 - x0) / (t1 - t0);
                let dd1b = (xn - x1) / h;
                let dd2 = (dd1b - dd1a) / (t_new - t0);
                let lte = h * h * dd2.abs();
                let w = LTE_RELTOL * xn.abs() + LTE_ABSTOL;
                worst = worst.max(lte / w);
            }
            return worst;
        }
        let (t0, t1, t2) = (self.hist_t[0], self.hist_t[1], self.hist_t[2]);
        let h = t_new - t2;
        for (i, &xn) in x_new.iter().enumerate().take(node_rows) {
            let x0 = self.hist_x[0][i];
            let x1 = self.hist_x[1][i];
            let x2 = self.hist_x[2][i];
            let dd1a = (x1 - x0) / (t1 - t0);
            let dd1b = (x2 - x1) / (t2 - t1);
            let dd1c = (xn - x2) / h;
            let dd2a = (dd1b - dd1a) / (t2 - t0);
            let dd2b = (dd1c - dd1b) / (t_new - t1);
            let dd3 = (dd2b - dd2a) / (t_new - t0);
            let lte = 0.5 * h * h * h * dd3.abs();
            let w = LTE_RELTOL * xn.abs() + LTE_ABSTOL;
            worst = worst.max(lte / w);
        }
        worst
    }
}

impl TranWorkspace {
    /// Fixed-step run through the workspace engines (same stepping and
    /// damping as the dense oracle [`transient`], so the two agree to
    /// solver precision on any circuit).
    fn run_fixed(&mut self, circuit: &Circuit, opts: &TranOptions) -> SpiceResult<TranResult> {
        self.prepare(circuit, &opts.ic)?;
        let n_steps = (opts.tstop / opts.dt).round() as usize;
        let mut out = TranResult::new(
            self.engine.map().node_count(),
            &opts.probes,
            n_steps + 1,
            TranStats {
                sparse: self.is_sparse(),
                ..TranStats::default()
            },
        )?;
        out.push_sample(0.0, &self.x);
        self.set_dt(opts.dt);
        for step in 1..=n_steps {
            if opts.deadline.expired() {
                return Err(SpiceError::Timeout {
                    analysis: "tran",
                    iterations: step - 1,
                });
            }
            let t = step as f64 * opts.dt;
            let phase = opts.clock.as_ref().and_then(|c| c.active_phase(t));
            self.set_phase(phase);
            self.assemble_b(circuit, t);
            match self.solve_point(circuit, t) {
                Ok(iters) => out.stats.newton_iters += iters,
                Err(SpiceError::DcConvergence { residual, .. }) => {
                    return Err(SpiceError::DcConvergence {
                        residual,
                        iterations: step,
                    })
                }
                Err(e) => return Err(e),
            }
            self.commit_caps();
            out.stats.accepted += 1;
            out.push_sample(t, &self.x);
        }
        out.stats.min_dt = if n_steps > 0 { opts.dt } else { 0.0 };
        Ok(out)
    }

    /// Adaptive run: LTE-controlled step doubling/halving with
    /// clock-edge-aligned breakpoints.
    fn run_adaptive(
        &mut self,
        circuit: &Circuit,
        opts: &TranOptions,
        cfg: &TimeStepConfig,
    ) -> SpiceResult<TranResult> {
        self.prepare(circuit, &opts.ic)?;
        let dim = self.engine.map().dim();
        let nv = self.engine.map().node_count() - 1;
        let mut state = TimeStepState::new(cfg, dim);
        let mut out = TranResult::new(
            self.engine.map().node_count(),
            &opts.probes,
            0,
            TranStats {
                sparse: self.is_sparse(),
                min_dt: f64::INFINITY,
                ..TranStats::default()
            },
        )?;
        out.push_sample(0.0, &self.x);
        state.push_accepted(0.0, &self.x);
        let teps = opts.tstop * 1e-12;
        let mut t = 0.0_f64;
        // Attempt cap: generous backstop against a controller that can
        // neither accept nor shrink further.
        let max_attempts = 20_000_000usize;
        let mut attempts = 0usize;
        while t < opts.tstop - teps {
            if opts.deadline.expired() {
                return Err(SpiceError::Timeout {
                    analysis: "tran",
                    iterations: attempts,
                });
            }
            attempts += 1;
            if attempts > max_attempts {
                return Err(SpiceError::DcConvergence {
                    residual: f64::NAN,
                    iterations: attempts,
                });
            }
            let mut dt_step = state.dt.clamp(cfg.dt_min, cfg.dt_max);
            let mut on_edge = false;
            if let Some(clk) = &opts.clock {
                let edge = clk.next_edge(t);
                if edge <= opts.tstop + teps && t + dt_step >= edge - teps {
                    dt_step = edge - t;
                    on_edge = true;
                }
            }
            if t + dt_step > opts.tstop {
                dt_step = opts.tstop - t;
                on_edge = false;
            }
            if dt_step <= 0.0 {
                break;
            }
            let t_new = t + dt_step;
            self.set_dt(dt_step);
            // Phase at the interval midpoint: unambiguous even when the
            // step lands exactly on a phase boundary.
            let phase = opts
                .clock
                .as_ref()
                .and_then(|c| c.active_phase(t + 0.5 * dt_step));
            self.set_phase(phase);
            self.assemble_b(circuit, t_new);
            self.x_prev.copy_from_slice(&self.x);
            let can_shrink = dt_step > cfg.dt_min * (1.0 + 1e-9);
            match self.solve_point(circuit, t_new) {
                Ok(iters) => {
                    out.stats.newton_iters += iters;
                    let err = state.estimate_error_weighted(t_new, &self.x, nv);
                    let err_q = quantize_rel(err, CONTROL_DIGITS);
                    if err_q > 1.0 && can_shrink {
                        self.x.copy_from_slice(&self.x_prev);
                        state.dt = (dt_step * STEP_SHRINK).max(cfg.dt_min);
                        out.stats.rejected += 1;
                        continue;
                    }
                    let had_full_history = state.hist_len == 3;
                    self.commit_caps();
                    t = t_new;
                    state.push_accepted(t, &self.x);
                    out.stats.accepted += 1;
                    out.stats.min_dt = out.stats.min_dt.min(dt_step);
                    out.push_sample(t, &self.x);
                    if on_edge {
                        // Derivatives are discontinuous across a switch
                        // transition: restart the LTE history and step
                        // small into the new phase.
                        state.clear_history();
                        state.push_accepted(t, &self.x);
                        state.dt = cfg.dt_init;
                    } else if err_q < GROW_THRESHOLD && had_full_history {
                        state.dt = (dt_step * STEP_GROW).min(cfg.dt_max);
                    } else {
                        state.dt = dt_step.min(cfg.dt_max);
                    }
                }
                Err(SpiceError::DcConvergence { .. }) if can_shrink => {
                    // Newton trouble is handled like an LTE rejection:
                    // retreat and retry with a smaller step.
                    self.x.copy_from_slice(&self.x_prev);
                    state.dt = (dt_step * STEP_SHRINK).max(cfg.dt_min);
                    out.stats.rejected += 1;
                }
                Err(e) => return Err(e),
            }
        }
        if !out.stats.min_dt.is_finite() {
            out.stats.min_dt = 0.0;
        }
        Ok(out)
    }
}

/// Runs a fixed-step transient simulation through a reusable
/// [`TranWorkspace`] (sparse engine on OTA-sized circuits, dense oracle
/// retried automatically on an unlucky sparse pivot).
///
/// # Errors
/// [`SpiceError::DcConvergence`] if a step's Newton loop fails,
/// [`SpiceError::Singular`] if the Jacobian is singular,
/// [`SpiceError::BadNetlist`] for a malformed initial condition.
pub fn transient_with(
    ws: &mut TranWorkspace,
    circuit: &Circuit,
    opts: &TranOptions,
) -> SpiceResult<TranResult> {
    run_or_dense(ws, |ws| ws.run_fixed(circuit, opts))
}

/// Runs an adaptive-step transient simulation through a reusable
/// [`TranWorkspace`]: trapezoidal LTE control with step doubling/halving
/// ([`TimeStepConfig`]) and clock-edge-aligned breakpoints so phase
/// transitions are never stepped over. `opts.dt` is ignored.
///
/// # Errors
/// [`SpiceError::DcConvergence`] if a step's Newton loop fails at the
/// minimum step, [`SpiceError::Singular`] if the Jacobian is singular,
/// [`SpiceError::BadNetlist`] for a malformed initial condition.
pub fn transient_adaptive(
    ws: &mut TranWorkspace,
    circuit: &Circuit,
    opts: &TranOptions,
    cfg: &TimeStepConfig,
) -> SpiceResult<TranResult> {
    run_or_dense(ws, |ws| ws.run_adaptive(circuit, opts, cfg))
}

/// Runs `run`, and once more on the dense engine when it failed after an
/// underflowed sparse pivot (the fallback policy of the `engine` module).
fn run_or_dense(
    ws: &mut TranWorkspace,
    run: impl Fn(&mut TranWorkspace) -> SpiceResult<TranResult>,
) -> SpiceResult<TranResult> {
    #[cfg(feature = "faults")]
    if let Some(e) = injected_solve_fault(adc_numerics::faults::SITE_TRAN_SOLVE, "tran") {
        return Err(e);
    }
    let out = run(ws);
    if ws.engine.fall_back(&out) {
        return run(ws);
    }
    out
}

/// Per-capacitor trapezoidal state (oracle path).
#[derive(Debug, Clone, Copy)]
struct CapState {
    v_old: f64,
    i_old: f64,
}

/// Runs a fixed-step transient simulation with the seed-era dense engine:
/// every element restamps a freshly cleared dense Jacobian each Newton
/// iteration. Kept as the bit-level oracle the workspace engines are
/// compared against on small circuits.
///
/// # Errors
/// [`SpiceError::DcConvergence`] if a step's Newton loop fails,
/// [`SpiceError::Singular`] if the Jacobian becomes singular,
/// [`SpiceError::BadNetlist`] for a malformed initial condition.
pub fn transient(circuit: &Circuit, opts: &TranOptions) -> SpiceResult<TranResult> {
    let map = MnaMap::new(circuit);
    let dim = map.dim();
    if dim == 0 {
        return Err(SpiceError::BadNetlist("circuit has no unknowns".into()));
    }

    let n_steps = (opts.tstop / opts.dt).round() as usize;
    let mut x = vec![0.0; dim];
    apply_ic(&map, &opts.ic, &mut x)?;

    // Initialize capacitor states from the initial node voltages.
    let cap_elems: Vec<usize> = circuit
        .elements()
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, Element::Capacitor { .. }))
        .map(|(i, _)| i)
        .collect();
    let volt_of = |x: &[f64], node: NodeId| -> f64 {
        match map.node_row(node) {
            Some(r) => x[r],
            None => 0.0,
        }
    };
    let mut cap_states: Vec<CapState> = cap_elems
        .iter()
        .map(|&i| {
            if let Element::Capacitor { a, b, .. } = &circuit.elements()[i] {
                CapState {
                    v_old: volt_of(&x, *a) - volt_of(&x, *b),
                    i_old: 0.0,
                }
            } else {
                unreachable!()
            }
        })
        .collect();

    let mut out = TranResult::new(
        map.node_count(),
        &opts.probes,
        n_steps + 1,
        TranStats {
            min_dt: if n_steps > 0 { opts.dt } else { 0.0 },
            ..TranStats::default()
        },
    )?;
    out.push_sample(0.0, &x);

    let mut jac = Matrix::zeros(dim, dim);
    let mut res = vec![0.0; dim];
    let geq_of = |c: f64| 2.0 * c / opts.dt; // trapezoidal companion

    for step in 1..=n_steps {
        if opts.deadline.expired() {
            return Err(SpiceError::Timeout {
                analysis: "tran",
                iterations: step - 1,
            });
        }
        let t = step as f64 * opts.dt;
        // Newton loop at this time point.
        let mut converged = false;
        let mut prev_dv = f64::INFINITY;
        for _ in 0..NEWTON_MAX_ITER {
            out.stats.newton_iters += 1;
            jac.clear();
            res.iter_mut().for_each(|r| *r = 0.0);
            // g_min for floating nodes.
            for r in 0..(map.node_count() - 1) {
                jac.add_at(r, r, TRAN_GMIN);
                res[r] += TRAN_GMIN * x[r];
            }
            let mut cap_k = 0usize;
            for (idx, e) in circuit.elements().iter().enumerate() {
                match e {
                    Element::Resistor { a, b, ohms, .. } => {
                        let g = 1.0 / ohms;
                        let (ra, rb) = (map.node_row(*a), map.node_row(*b));
                        let dv = volt_of(&x, *a) - volt_of(&x, *b);
                        stamp_conductance(ra, rb, g, &mut |r, c, v| jac.add_at(r, c, v));
                        add_opt(&mut res, ra, g * dv);
                        add_opt(&mut res, rb, -g * dv);
                    }
                    Element::Switch {
                        a,
                        b,
                        ron,
                        roff,
                        phase,
                        ..
                    } => {
                        let closed = match &opts.clock {
                            Some(clk) => clk.active_phase(t) == Some(*phase),
                            None => false,
                        };
                        let g = 1.0 / if closed { *ron } else { *roff };
                        let (ra, rb) = (map.node_row(*a), map.node_row(*b));
                        let dv = volt_of(&x, *a) - volt_of(&x, *b);
                        stamp_conductance(ra, rb, g, &mut |r, c, v| jac.add_at(r, c, v));
                        add_opt(&mut res, ra, g * dv);
                        add_opt(&mut res, rb, -g * dv);
                    }
                    Element::Capacitor { a, b, farads, .. } => {
                        let st = cap_states[cap_k];
                        cap_k += 1;
                        let geq = geq_of(*farads);
                        let (ra, rb) = (map.node_row(*a), map.node_row(*b));
                        let v_new = volt_of(&x, *a) - volt_of(&x, *b);
                        // Trapezoidal: i_new = geq·(v_new − v_old) − i_old
                        let i_new = geq * (v_new - st.v_old) - st.i_old;
                        stamp_conductance(ra, rb, geq, &mut |r, c, v| jac.add_at(r, c, v));
                        add_opt(&mut res, ra, i_new);
                        add_opt(&mut res, rb, -i_new);
                    }
                    Element::ISource { p, n, wave, .. } => {
                        let i = wave.value(t);
                        add_opt(&mut res, map.node_row(*p), i);
                        add_opt(&mut res, map.node_row(*n), -i);
                    }
                    Element::VSource { p, n, wave, .. } => {
                        let br = map.branch_row(idx);
                        let (rp, rn) = (map.node_row(*p), map.node_row(*n));
                        let ib = x[br];
                        add_opt(&mut res, rp, ib);
                        add_opt(&mut res, rn, -ib);
                        if let Some(r) = rp {
                            jac.add_at(r, br, 1.0);
                            jac.add_at(br, r, 1.0);
                        }
                        if let Some(r) = rn {
                            jac.add_at(r, br, -1.0);
                            jac.add_at(br, r, -1.0);
                        }
                        res[br] += volt_of(&x, *p) - volt_of(&x, *n) - wave.value(t);
                    }
                    Element::Vcvs {
                        p, n, cp, cn, gain, ..
                    } => {
                        let br = map.branch_row(idx);
                        let (rp, rn) = (map.node_row(*p), map.node_row(*n));
                        let ib = x[br];
                        add_opt(&mut res, rp, ib);
                        add_opt(&mut res, rn, -ib);
                        if let Some(r) = rp {
                            jac.add_at(r, br, 1.0);
                            jac.add_at(br, r, 1.0);
                        }
                        if let Some(r) = rn {
                            jac.add_at(r, br, -1.0);
                            jac.add_at(br, r, -1.0);
                        }
                        if let Some(r) = map.node_row(*cp) {
                            jac.add_at(br, r, -gain);
                        }
                        if let Some(r) = map.node_row(*cn) {
                            jac.add_at(br, r, *gain);
                        }
                        res[br] += volt_of(&x, *p)
                            - volt_of(&x, *n)
                            - gain * (volt_of(&x, *cp) - volt_of(&x, *cn));
                    }
                    Element::Vccs {
                        p, n, cp, cn, gm, ..
                    } => {
                        let (rp, rn) = (map.node_row(*p), map.node_row(*n));
                        let vc = volt_of(&x, *cp) - volt_of(&x, *cn);
                        let (rcp, rcn) = (map.node_row(*cp), map.node_row(*cn));
                        stamp_vccs(rp, rn, rcp, rcn, *gm, &mut |r, c, v| jac.add_at(r, c, v));
                        add_opt(&mut res, rp, gm * vc);
                        add_opt(&mut res, rn, -gm * vc);
                    }
                    Element::Mosfet {
                        d,
                        g,
                        s,
                        b,
                        model,
                        w,
                        l,
                        ..
                    } => {
                        let ev = eval_mosfet(
                            model,
                            *w,
                            *l,
                            volt_of(&x, *g) - volt_of(&x, *s),
                            volt_of(&x, *d) - volt_of(&x, *s),
                            volt_of(&x, *b) - volt_of(&x, *s),
                        );
                        let (rd, rg, rs, rb) = (
                            map.node_row(*d),
                            map.node_row(*g),
                            map.node_row(*s),
                            map.node_row(*b),
                        );
                        add_opt(&mut res, rd, ev.id);
                        add_opt(&mut res, rs, -ev.id);
                        let gs_total = ev.gm + ev.gds + ev.gmb;
                        for (row, sign) in [(rd, 1.0), (rs, -1.0)] {
                            let Some(r) = row else { continue };
                            if let Some(cg) = rg {
                                jac.add_at(r, cg, sign * ev.gm);
                            }
                            if let Some(cd) = rd {
                                jac.add_at(r, cd, sign * ev.gds);
                            }
                            if let Some(cb) = rb {
                                jac.add_at(r, cb, sign * ev.gmb);
                            }
                            if let Some(cs) = rs {
                                jac.add_at(r, cs, -sign * gs_total);
                            }
                        }
                    }
                }
            }
            let rhs: Vec<f64> = res.iter().map(|&r| -r).collect();
            let dx = jac
                .solve(&rhs)
                .map_err(|e| SpiceError::Singular(format!("t = {t:.3e}s: {e}")))?;
            let nv = map.node_count() - 1;
            let max_dv = dx[..nv].iter().fold(0.0_f64, |m, &d| m.max(d.abs()));
            let alpha = if max_dv > 1.0 { 1.0 / max_dv } else { 1.0 };
            for (xi, di) in x.iter_mut().zip(dx.iter()) {
                *xi += alpha * di;
            }
            if max_dv * alpha < NEWTON_VTOL {
                converged = true;
                break;
            }
            // Same stall acceptance as `TranWorkspace::solve_point`, so the
            // oracle and the workspace walk identical Newton sequences.
            if max_dv < stall_ceiling(&x[..nv]) && max_dv > 0.5 * prev_dv {
                converged = true;
                break;
            }
            prev_dv = max_dv;
        }
        // Same noise-bound fallback as `TranWorkspace::solve_point`.
        if !converged && prev_dv < 100.0 * stall_ceiling(&x[..map.node_count() - 1]) {
            converged = true;
        }
        if !converged {
            return Err(SpiceError::DcConvergence {
                residual: f64::NAN,
                iterations: step,
            });
        }
        // Commit capacitor states.
        let mut cap_k = 0usize;
        for &i in &cap_elems {
            if let Element::Capacitor { a, b, farads, .. } = &circuit.elements()[i] {
                let st = &mut cap_states[cap_k];
                let v_new = volt_of(&x, *a) - volt_of(&x, *b);
                let geq = geq_of(*farads);
                let i_new = geq * (v_new - st.v_old) - st.i_old;
                st.v_old = v_new;
                st.i_old = i_new;
                cap_k += 1;
            }
        }
        out.stats.accepted += 1;
        out.push_sample(t, &x);
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Circuit;
    use crate::waveform::Waveform;

    #[test]
    fn expired_deadline_is_a_typed_timeout() {
        let mut c = Circuit::new();
        let n1 = c.node("n1");
        c.add_vsource("V1", n1, Circuit::GROUND, 1.0);
        let n2 = c.node("n2");
        c.add_resistor("R1", n1, n2, 1e3);
        c.add_capacitor("C1", n2, Circuit::GROUND, 1e-9);
        let opts = TranOptions {
            tstop: 1e-6,
            dt: 1e-9,
            deadline: Deadline::within(std::time::Duration::from_secs(0)),
            ..Default::default()
        };
        // Oracle, fixed-step workspace, and adaptive paths all report the
        // typed timeout.
        for result in [
            transient(&c, &opts),
            transient_with(&mut TranWorkspace::new(&c).unwrap(), &c, &opts),
            transient_adaptive(
                &mut TranWorkspace::new(&c).unwrap(),
                &c,
                &opts,
                &TimeStepConfig::default(),
            ),
        ] {
            match result {
                Err(SpiceError::Timeout {
                    analysis: "tran", ..
                }) => {}
                other => panic!("expected tran timeout, got {other:?}"),
            }
        }
    }

    #[test]
    fn rc_charging_curve() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        let (r, cap) = (1e3, 1e-9);
        c.add_vsource_wave(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 0.0,
                rise: 1e-12,
                fall: 1e-12,
                width: 1.0,
                period: 0.0,
            },
            0.0,
        );
        c.add_resistor("R1", vin, out, r);
        c.add_capacitor("C1", out, Circuit::GROUND, cap);
        let tau = r * cap;
        let result = transient(
            &c,
            &TranOptions {
                tstop: 5.0 * tau,
                dt: tau / 100.0,
                ..Default::default()
            },
        )
        .unwrap();
        // At t = τ the output should be 1 − e⁻¹.
        let idx = 100;
        let v_tau = result.voltage_at(out, idx);
        let want = 1.0 - (-1.0f64).exp();
        assert!((v_tau - want).abs() < 5e-3, "v(τ) = {v_tau}, want {want}");
        assert!((result.final_voltage(out) - 1.0).abs() < 1e-2);
    }

    #[test]
    fn sine_passthrough_amplitude() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        c.add_vsource_wave(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::Sine {
                offset: 0.0,
                ampl: 0.5,
                freq: 1e6,
                delay: 0.0,
                phase: 0.0,
            },
            0.0,
        );
        c.add_resistor("R1", vin, Circuit::GROUND, 1e3);
        let result = transient(
            &c,
            &TranOptions {
                tstop: 1e-6,
                dt: 1e-9,
                ..Default::default()
            },
        )
        .unwrap();
        let w = result.waveform(vin);
        let max = w.iter().cloned().fold(f64::MIN, f64::max);
        assert!((max - 0.5).abs() < 1e-3, "peak {max}");
    }

    fn sample_hold_circuit() -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let cap_node = c.node("hold");
        c.add_vsource("V1", vin, Circuit::GROUND, 1.0);
        c.add_switch("S1", vin, cap_node, 100.0, 1e12, ClockPhase::Phi1, false);
        c.add_capacitor("CH", cap_node, Circuit::GROUND, 1e-12);
        (c, cap_node)
    }

    #[test]
    fn clocked_switch_sample_and_hold() {
        let (c, cap_node) = sample_hold_circuit();
        let clk = Clock {
            freq: 1e6,
            nonoverlap: 10e-9,
        };
        let result = transient(
            &c,
            &TranOptions {
                tstop: 2e-6,
                dt: 1e-9,
                clock: Some(clk),
                ..Default::default()
            },
        )
        .unwrap();
        // After the first φ1 (track) the hold cap should be at 1 V and stay
        // there through φ2.
        let w = result.waveform(cap_node);
        let at = |time: f64| {
            let k = (time / 1e-9).round() as usize;
            w[k.min(w.len() - 1)]
        };
        assert!((at(0.45e-6) - 1.0).abs() < 1e-3, "tracked: {}", at(0.45e-6));
        assert!((at(0.9e-6) - 1.0).abs() < 1e-3, "held: {}", at(0.9e-6));
    }

    #[test]
    fn clock_phases() {
        let clk = Clock {
            freq: 1e6,
            nonoverlap: 50e-9,
        };
        assert_eq!(clk.active_phase(0.1e-6), Some(ClockPhase::Phi1));
        assert_eq!(clk.active_phase(0.47e-6), None); // non-overlap
        assert_eq!(clk.active_phase(0.6e-6), Some(ClockPhase::Phi2));
        assert_eq!(clk.active_phase(0.97e-6), None);
        assert_eq!(clk.active_phase(1.1e-6), Some(ClockPhase::Phi1)); // periodic
    }

    /// Boundary-exact phase windows: with `freq = 1` every time value is a
    /// plain double and the non-overlap boundaries land deterministically.
    #[test]
    fn clock_phase_boundaries_exact() {
        let clk = Clock {
            freq: 1.0,
            nonoverlap: 0.05,
        };
        // Interior of each window.
        assert_eq!(clk.active_phase(0.0), Some(ClockPhase::Phi1));
        assert_eq!(clk.active_phase(0.2), Some(ClockPhase::Phi1));
        assert_eq!(clk.active_phase(0.7), Some(ClockPhase::Phi2));
        // φ1 closes one non-overlap early; φ2 opens exactly at half-period.
        assert_eq!(clk.active_phase(0.45), None);
        assert_eq!(clk.active_phase(0.475), None);
        assert_eq!(clk.active_phase(0.5), Some(ClockPhase::Phi2));
        // φ2 closes one non-overlap early; the next period reopens φ1.
        assert_eq!(clk.active_phase(0.95), None);
        assert_eq!(clk.active_phase(0.99), None);
        assert_eq!(clk.active_phase(1.0), Some(ClockPhase::Phi1));
    }

    /// The rem_euclid formulation drifted at large `t`; the fractional-part
    /// formulation keeps windows aligned after a billion periods.
    #[test]
    fn clock_phase_stable_after_many_periods() {
        for freq in [1.0, 1e6, 40e6] {
            let clk = Clock {
                freq,
                nonoverlap: 0.05 / freq,
            };
            for k in [1u64, 1_000, 1_000_000, 1_000_000_000] {
                let base = k as f64;
                let at = |frac: f64| clk.active_phase((base + frac) / freq);
                assert_eq!(at(0.2), Some(ClockPhase::Phi1), "freq {freq} k {k}");
                assert_eq!(at(0.47), None, "freq {freq} k {k}");
                assert_eq!(at(0.7), Some(ClockPhase::Phi2), "freq {freq} k {k}");
                assert_eq!(at(0.97), None, "freq {freq} k {k}");
            }
        }
    }

    #[test]
    fn next_edge_walks_boundaries() {
        let clk = Clock {
            freq: 1.0,
            nonoverlap: 0.05,
        };
        let mut t = 0.0;
        let mut edges = Vec::new();
        for _ in 0..6 {
            t = clk.next_edge(t);
            edges.push(t);
        }
        let want = [0.45, 0.5, 0.95, 1.0, 1.45, 1.5];
        for (e, w) in edges.iter().zip(want.iter()) {
            assert!((e - w).abs() < 1e-9, "edges {edges:?}");
        }
    }

    #[test]
    fn phase_window_matches_active_phase() {
        let clk = Clock {
            freq: 40e6,
            nonoverlap: 1e-9,
        };
        for k in [0usize, 7, 1000] {
            for phase in [ClockPhase::Phi1, ClockPhase::Phi2] {
                let (s, e) = clk.phase_window(k, phase);
                assert!(e > s);
                assert_eq!(clk.active_phase(0.5 * (s + e)), Some(phase), "k {k}");
                // Just past the window end is non-overlap.
                assert_eq!(clk.active_phase(e + 0.1e-9), None, "k {k}");
            }
        }
    }

    #[test]
    fn ic_voltages_respected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_capacitor("C1", a, Circuit::GROUND, 1e-12);
        c.add_resistor("R1", a, Circuit::GROUND, 1e6);
        let mut v0 = vec![0.0; 2];
        v0[a.index()] = 2.0;
        let result = transient(
            &c,
            &TranOptions {
                tstop: 1e-8,
                dt: 1e-10,
                ic: InitialCondition::Voltages(v0),
                ..Default::default()
            },
        )
        .unwrap();
        // τ = 1 µs, simulate 10 ns → essentially unchanged.
        assert!((result.voltage_at(a, 0) - 2.0).abs() < 1e-9);
        assert!((result.final_voltage(a) - 2.0).abs() < 0.05);
    }

    #[test]
    fn ic_wrong_length_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_capacitor("C1", a, Circuit::GROUND, 1e-12);
        c.add_resistor("R1", a, Circuit::GROUND, 1e6);
        let opts = TranOptions {
            tstop: 1e-9,
            dt: 1e-10,
            ic: InitialCondition::Voltages(vec![0.0; 5]),
            ..Default::default()
        };
        let err = transient(&c, &opts).unwrap_err();
        assert!(matches!(err, SpiceError::BadNetlist(_)), "{err}");
        assert!(err.to_string().contains("5 voltages"), "{err}");
        let mut ws = TranWorkspace::new(&c).unwrap();
        let err = transient_with(&mut ws, &c, &opts).unwrap_err();
        assert!(matches!(err, SpiceError::BadNetlist(_)), "{err}");
        let err = transient_adaptive(&mut ws, &c, &opts, &TimeStepConfig::default()).unwrap_err();
        assert!(matches!(err, SpiceError::BadNetlist(_)), "{err}");
    }

    #[test]
    fn probes_outside_circuit_rejected_and_unprobed_reads_panic() {
        let (c, out) = rc_fixture();
        let opts = TranOptions {
            tstop: 1e-7,
            dt: 1e-8,
            probes: vec![NodeId::from_index(3)],
            ..Default::default()
        };
        let err = transient(&c, &opts).unwrap_err();
        assert!(matches!(err, SpiceError::BadNetlist(_)), "{err}");
        let mut ws = TranWorkspace::new(&c).unwrap();
        let err = transient_with(&mut ws, &c, &opts).unwrap_err();
        assert!(err.to_string().contains("probe node 3"), "{err}");
        let err = transient_adaptive(&mut ws, &c, &opts, &TimeStepConfig::default()).unwrap_err();
        assert!(matches!(err, SpiceError::BadNetlist(_)), "{err}");

        let probed = transient_with(
            &mut ws,
            &c,
            &TranOptions {
                probes: vec![out],
                ..opts
            },
        )
        .unwrap();
        assert_eq!(probed.waveform(out).len(), probed.len());
        let vin = c.find_node("in").unwrap();
        let unprobed = std::panic::catch_unwind(|| probed.voltage_at(vin, 0));
        assert!(unprobed.is_err(), "reading an unprobed node must panic");
    }

    fn rc_fixture() -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource("V1", vin, Circuit::GROUND, 1.0);
        c.add_resistor("R1", vin, out, 1e3);
        c.add_capacitor("C1", out, Circuit::GROUND, 1e-9);
        (c, out)
    }

    #[test]
    fn workspace_fixed_step_matches_oracle() {
        let (c, out) = rc_fixture();
        let opts = TranOptions {
            tstop: 5e-6,
            dt: 1e-8,
            ..Default::default()
        };
        let oracle = transient(&c, &opts).unwrap();
        for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
            let mut ws = TranWorkspace::with_solver(&c, choice).unwrap();
            let got = transient_with(&mut ws, &c, &opts).unwrap();
            assert_eq!(got.len(), oracle.len());
            for k in 0..got.len() {
                let (a, b) = (got.voltage_at(out, k), oracle.voltage_at(out, k));
                assert!((a - b).abs() < 1e-9, "{choice:?} k={k}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn workspace_clocked_matches_oracle() {
        let (c, cap_node) = sample_hold_circuit();
        let opts = TranOptions {
            tstop: 2e-6,
            dt: 1e-9,
            clock: Some(Clock {
                freq: 1e6,
                nonoverlap: 10e-9,
            }),
            ..Default::default()
        };
        let oracle = transient(&c, &opts).unwrap();
        let mut ws = TranWorkspace::new(&c).unwrap();
        let got = transient_with(&mut ws, &c, &opts).unwrap();
        assert_eq!(got.len(), oracle.len());
        for k in 0..got.len() {
            let (a, b) = (got.voltage_at(cap_node, k), oracle.voltage_at(cap_node, k));
            assert!((a - b).abs() < 1e-9, "k={k}: {a} vs {b}");
        }
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        let (c, _) = rc_fixture();
        let opts = TranOptions {
            tstop: 2e-6,
            dt: 1e-8,
            ..Default::default()
        };
        let mut ws = TranWorkspace::new(&c).unwrap();
        let first = transient_with(&mut ws, &c, &opts).unwrap();
        let second = transient_with(&mut ws, &c, &opts).unwrap();
        let mut fresh = TranWorkspace::new(&c).unwrap();
        let third = transient_with(&mut fresh, &c, &opts).unwrap();
        assert_eq!(first.data, second.data);
        assert_eq!(first.data, third.data);
        let cfg = TimeStepConfig::default();
        let a1 = transient_adaptive(&mut ws, &c, &opts, &cfg).unwrap();
        let a2 = transient_adaptive(&mut ws, &c, &opts, &cfg).unwrap();
        assert_eq!(a1.data, a2.data);
        assert_eq!(a1.times, a2.times);
    }

    #[test]
    fn adaptive_rc_matches_analytic_with_fewer_steps() {
        let (c, out) = rc_fixture();
        let tau = 1e3 * 1e-9;
        let opts = TranOptions {
            tstop: 5.0 * tau,
            dt: tau / 1000.0,
            ..Default::default()
        };
        let mut ws = TranWorkspace::new(&c).unwrap();
        let fixed = transient_with(&mut ws, &c, &opts).unwrap();
        let cfg = TimeStepConfig {
            dt_init: tau / 1000.0,
            dt_min: tau / 100_000.0,
            dt_max: tau,
        };
        let adaptive = transient_adaptive(&mut ws, &c, &opts, &cfg).unwrap();
        for frac in [0.5, 1.0, 2.0, 5.0] {
            let t = frac * tau;
            let want = 1.0 - (-frac).exp();
            let got = adaptive.sample_at(out, t);
            assert!((got - want).abs() < 2e-3, "v({frac}τ) = {got}, want {want}");
        }
        let st = adaptive.stats();
        assert!(st.accepted > 0 && st.accepted < fixed.stats().accepted / 4);
        assert!(st.min_dt >= cfg.dt_min && st.min_dt <= cfg.dt_max);
        assert_eq!(fixed.stats().rejected, 0);
    }

    #[test]
    fn adaptive_clocked_sample_hold_hits_breakpoints() {
        let (c, cap_node) = sample_hold_circuit();
        let clk = Clock {
            freq: 1e6,
            nonoverlap: 10e-9,
        };
        let opts = TranOptions {
            tstop: 2e-6,
            dt: 1e-9,
            clock: Some(clk),
            ..Default::default()
        };
        let mut ws = TranWorkspace::new(&c).unwrap();
        let cfg = TimeStepConfig::for_clock(&clk);
        let result = transient_adaptive(&mut ws, &c, &opts, &cfg).unwrap();
        // Every phase edge inside the run must be an exact sample time.
        let mut edge = 0.0;
        loop {
            edge = clk.next_edge(edge);
            if edge > opts.tstop * (1.0 + 1e-9) {
                break;
            }
            assert!(
                result
                    .times()
                    .iter()
                    .any(|&t| (t - edge).abs() < 1e-15 + edge * 1e-12),
                "no sample at edge {edge:e}"
            );
        }
        assert!((result.sample_at(cap_node, 0.4e-6) - 1.0).abs() < 1e-3);
        assert!((result.sample_at(cap_node, 0.9e-6) - 1.0).abs() < 1e-3);
        assert!((result.final_voltage(cap_node) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn sample_at_interpolates() {
        let r = TranResult {
            times: vec![0.0, 1.0, 3.0],
            node_count: 2,
            probes: Vec::new(),
            data: vec![0.0, 0.0, 0.0, 2.0, 0.0, 6.0],
            stats: TranStats::default(),
        };
        let n = NodeId::from_index(1);
        assert_eq!(r.sample_at(n, -1.0), 0.0);
        assert_eq!(r.sample_at(n, 0.5), 1.0);
        assert_eq!(r.sample_at(n, 2.0), 4.0);
        assert_eq!(r.sample_at(n, 9.0), 6.0);
    }
}
