//! DC operating-point analysis: damped Newton–Raphson on the MNA residual,
//! with g_min stepping and source stepping as homotopy fallbacks.
//!
//! This is the "DC simulation to extract small signal values" leg of the
//! paper's hybrid evaluation loop (§3): every synthesis iteration solves the
//! candidate OTA's bias point here, then hands the extracted gm/gds/C to the
//! equation-based transfer-function analysis.
//!
//! Which callers run the homotopy ladder:
//! - [`dc_operating_point`] and [`dc_operating_point_with`] run all of it:
//!   plain Newton, then g_min stepping, then source stepping. The chain DC
//!   of sign-off, AC analysis, the warm path's fallback
//!   ([`dc_operating_point_warm`]) and the tests use them.
//! - [`dc_operating_point_newton`], the synthesis evaluation's cold solve,
//!   stops after plain Newton. On the synthesis testbenches the ladder
//!   never rescued a solve that plain Newton lost (0 of 1 424 on the 32
//!   serial-oracle flows), yet it spent about 300 iterations on each of
//!   them, 9 % of all DC iterations. A failed candidate simply fails; the
//!   flow's retry ladder still escalates a block that keeps failing.
//!   Newton starts from the operating point of the template's nominal
//!   design, which the evaluator solves once with the whole ladder, and
//!   falls back to the node-set/zero guess.

#[cfg(feature = "faults")]
use crate::engine::injected_solve_fault;
use crate::engine::Engine;
use crate::linearize::SolverChoice;
use crate::mna::{add_opt, stamp_conductance, stamp_constant, MnaMap};
use crate::mosfet::eval_mosfet;
use crate::netlist::{Circuit, Element};
use crate::op::{OpLayout, OperatingPoint};
use crate::{SpiceError, SpiceResult};
use adc_numerics::Deadline;
use std::collections::HashMap;
use std::sync::Arc;

/// Largest node-voltage change per damped Newton step, V.
pub const MAX_STEP: f64 = 0.4;

/// Newton step-limiting strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DcDamping {
    /// Scale the whole update vector so the largest node-voltage change
    /// equals [`MAX_STEP`] — the conservative classic that preserves the
    /// Newton direction. The historical default; every flat OTA testbench
    /// solves under it unchanged.
    #[default]
    Global,
    /// Clamp each node-voltage update independently at ±[`MAX_STEP`] (SPICE
    /// per-node voltage limiting). On hierarchical chain testbenches a
    /// wound-up servo output can request hundreds of volts while the
    /// supply is still ramping; global scaling then starves every other
    /// unknown's progress, while per-node limiting lets the independent
    /// parts of a large system converge at their own pace.
    PerNode,
}

/// Options controlling the DC solve.
#[derive(Debug, Clone)]
pub struct DcOptions {
    /// Maximum Newton iterations per homotopy stage.
    pub max_iter: usize,
    /// Voltage-update convergence tolerance, V.
    pub vtol: f64,
    /// KCL residual tolerance, A.
    pub itol: f64,
    /// Baseline diagonal g_min, S.
    pub gmin: f64,
    /// Initial node-voltage guesses by node name (SPICE `.nodeset`).
    pub nodeset: HashMap<String, f64>,
    /// Step-limiting strategy.
    pub damping: DcDamping,
    /// Cooperative wall-clock budget, checked per Newton iteration. An
    /// expired deadline turns the solve into [`SpiceError::Timeout`]
    /// instead of a hang; the default is unlimited and costs nothing.
    pub deadline: Deadline,
}

impl Default for DcOptions {
    fn default() -> Self {
        DcOptions {
            max_iter: 150,
            vtol: 1e-9,
            itol: 1e-9,
            gmin: 1e-12,
            nodeset: HashMap::new(),
            damping: DcDamping::Global,
            deadline: Deadline::none(),
        }
    }
}

/// Walks the constant linear stamps (everything except MOSFETs and g_min):
/// Jacobian entries go through `add(row, col, value)`, independent-source
/// contributions accumulate into `rhs`. Besides [`stamp_constant`], DC
/// stamps each switch at its DC state; capacitors are open. The base
/// segment of the stamp pattern is recorded from this same traversal, so
/// recording and restamping can never disagree on stamp order.
fn stamp_linear(
    circuit: &Circuit,
    map: &MnaMap,
    rhs: &mut [f64],
    add: &mut impl FnMut(usize, usize, f64),
) {
    for (idx, e) in circuit.elements().iter().enumerate() {
        stamp_constant(map, idx, e, add);
        match e {
            Element::Switch {
                a,
                b,
                ron,
                roff,
                dc_closed,
                ..
            } => {
                let g = 1.0 / if *dc_closed { *ron } else { *roff };
                stamp_conductance(map.node_row(*a), map.node_row(*b), g, add);
            }
            Element::ISource { p, n, wave, .. } => {
                // Linear residual is `jac·x − scale·rhs`, so a current `i`
                // leaving `p` lands in the rhs with sign −i.
                let i = wave.dc_value();
                add_opt(rhs, map.node_row(*p), -i);
                add_opt(rhs, map.node_row(*n), i);
            }
            Element::VSource { wave, .. } => rhs[map.branch_row(idx)] += wave.dc_value(),
            _ => {}
        }
    }
}

/// Walks the MOSFET companion stamps at operating point `x`: drain/source
/// currents accumulate into `res`, Jacobian entries go through `add`. The
/// sequence of `add` calls depends only on the topology (ground-ness of
/// terminals), never on values — the invariant the sparse slot replay
/// relies on.
pub(crate) fn stamp_mosfets(
    circuit: &Circuit,
    map: &MnaMap,
    x: &[f64],
    res: &mut [f64],
    add: &mut impl FnMut(usize, usize, f64),
) {
    for e in circuit.elements() {
        let Element::Mosfet {
            d,
            g,
            s,
            b,
            model,
            w,
            l,
            ..
        } = e
        else {
            continue;
        };
        let vd = map.voltage(x, *d);
        let vg = map.voltage(x, *g);
        let vs = map.voltage(x, *s);
        let vb = map.voltage(x, *b);
        let ev = eval_mosfet(model, *w, *l, vg - vs, vd - vs, vb - vs);
        let (rd, rg, rs, rb) = (
            map.node_row(*d),
            map.node_row(*g),
            map.node_row(*s),
            map.node_row(*b),
        );
        // Current leaves the drain (+id) and enters the source (−id).
        add_opt(res, rd, ev.id);
        add_opt(res, rs, -ev.id);
        // ∂id/∂(vg, vd, vb, vs): gm, gds, gmb, −(gm+gds+gmb).
        let gs_total = ev.gm + ev.gds + ev.gmb;
        for (row, sign) in [(rd, 1.0), (rs, -1.0)] {
            let Some(r) = row else { continue };
            if let Some(cg) = rg {
                add(r, cg, sign * ev.gm);
            }
            if let Some(cd) = rd {
                add(r, cd, sign * ev.gds);
            }
            if let Some(cb) = rb {
                add(r, cb, sign * ev.gmb);
            }
            if let Some(cs) = rs {
                add(r, cs, -sign * gs_total);
            }
        }
    }
}

/// Slot segments of the DC stamp pattern after the linear base (segment
/// 0): the g_min node diagonals, then the MOSFET companion entries.
const GMIN: usize = 1;
const MOSFETS: usize = 2;

/// Reusable DC-solve workspace: the MNA map and stamp pattern are bound
/// once per circuit topology, the **constant linear stamps** (resistors,
/// switches, source patterns, controlled sources) are assembled once per
/// solve, and every Newton iteration only copies the linear base back and
/// restamps g_min and the MOSFET companions — the iteration loop performs
/// **zero heap allocation**. The Jacobian engine (dense, or CSR on
/// OTA-sized systems, with the dense fallback on an underflowed sparse
/// pivot) is the one shared with transient analysis; the crate-private
/// `engine` module documents its slot contract and fallback policy.
///
/// Retuned element *values* are picked up automatically (the base is
/// restamped at the start of each [`dc_operating_point_with`] call); a
/// changed *topology* (node or element count, or wiring) rebuilds the
/// workspace with the same [`SolverChoice`].
#[derive(Debug)]
pub struct DcWorkspace {
    engine: Engine,
    /// Constant source vector: linear residual = `base·x − scale·base_rhs`.
    base_rhs: Vec<f64>,
    res: Vec<f64>,
    dx: Vec<f64>,
    x: Vec<f64>,
    x0: Vec<f64>,
    /// `x` holds a converged solution from a previous solve (used by
    /// [`dc_operating_point_warm`] to skip the homotopy ladder).
    warm_valid: bool,
    /// Element names and result slots, shared by every operating point
    /// this workspace returns.
    layout: Arc<OpLayout>,
}

impl DcWorkspace {
    /// Builds the workspace (index map + preallocated buffers) for a
    /// circuit topology, selecting the solver engine by structural fill
    /// ratio.
    ///
    /// # Errors
    /// [`SpiceError::BadNetlist`] if the circuit has no unknowns.
    pub fn new(circuit: &Circuit) -> SpiceResult<Self> {
        DcWorkspace::with_solver(circuit, SolverChoice::Auto)
    }

    /// [`DcWorkspace::new`] with an explicit solver-engine choice
    /// (tests/diagnostics; production uses [`SolverChoice::Auto`]).
    ///
    /// # Errors
    /// [`SpiceError::BadNetlist`] if the circuit has no unknowns.
    pub fn with_solver(circuit: &Circuit, choice: SolverChoice) -> SpiceResult<Self> {
        let engine = Engine::new(circuit, choice, |map, p| {
            let zeros = vec![0.0; map.dim()];
            let mut scratch = zeros.clone();
            stamp_linear(circuit, map, &mut scratch, &mut |r, c, _| p.push(r, c));
            p.close();
            for row in 0..map.node_count() - 1 {
                p.push(row, row);
            }
            p.close();
            stamp_mosfets(circuit, map, &zeros, &mut scratch, &mut |r, c, _| {
                p.push(r, c)
            });
            p.close();
        })?;
        let dim = engine.map().dim();
        let layout = Arc::new(OpLayout::new(circuit, engine.map()));
        Ok(DcWorkspace {
            engine,
            base_rhs: vec![0.0; dim],
            res: vec![0.0; dim],
            dx: vec![0.0; dim],
            x: vec![0.0; dim],
            x0: vec![0.0; dim],
            warm_valid: false,
            layout,
        })
    }

    /// Whether this workspace was built for `circuit`'s topology (same
    /// node count, branch-unknown pattern and element wiring — value
    /// retuning keeps it valid, while a reordered, rewired or
    /// kind-swapped element list rebuilds).
    pub fn matches(&self, circuit: &Circuit) -> bool {
        self.engine.map().matches(circuit)
    }

    /// Whether the Newton Jacobian currently factors sparse.
    pub fn is_sparse(&self) -> bool {
        self.engine.is_sparse()
    }

    /// Starts a solve: consults the `dc_solve` fault site, rebuilds on a
    /// topology change (or re-indexes the element names when only they
    /// changed), then restamps the linear base.
    fn prepare(&mut self, circuit: &Circuit) -> SpiceResult<()> {
        #[cfg(feature = "faults")]
        if let Some(e) = injected_solve_fault(adc_numerics::faults::SITE_DC_SOLVE, "dc") {
            return Err(e);
        }
        if !self.matches(circuit) {
            *self = DcWorkspace::with_solver(circuit, self.engine.choice())?;
        } else if !self.layout.names_match(circuit) {
            self.layout = Arc::new(OpLayout::new(circuit, self.engine.map()));
        }
        self.stamp_linear_base(circuit);
        Ok(())
    }

    /// Stamps the constant linear part (everything except MOSFETs and
    /// g_min) into the engine's base and the source vector.
    fn stamp_linear_base(&mut self, circuit: &Circuit) {
        let rhs = &mut self.base_rhs;
        rhs.fill(0.0);
        self.engine.restamp_base(|map, vals| {
            stamp_linear(circuit, map, rhs, &mut |_, _, v| vals.push(v));
        });
    }

    /// Assembles the Jacobian and residual at the current `x` without
    /// allocating: load the linear base plus g_min (cached by the engine
    /// for the whole Newton stage), evaluate the linear residual as a
    /// mat-vec with the base, add g_min, then restamp the MOSFET
    /// companions.
    ///
    /// `source_scale` multiplies all independent sources (for source
    /// stepping); `gmin` is added from every node to ground, and must stay
    /// the same within a Newton stage.
    fn assemble(&mut self, circuit: &Circuit, gmin: f64, source_scale: f64) {
        let engine = &mut self.engine;
        let (x, res) = (&self.x, &mut self.res);
        engine.load_linear(|e| e.scatter_uniform(GMIN, gmin));
        engine.mul_base(x, res);
        for (r, b) in res.iter_mut().zip(self.base_rhs.iter()) {
            *r -= source_scale * b;
        }
        let nv = engine.map().node_count() - 1;
        for (r, &xi) in res[..nv].iter_mut().zip(x[..nv].iter()) {
            *r += gmin * xi;
        }
        engine.stamp(MOSFETS, |map, vals| {
            stamp_mosfets(circuit, map, x, res, &mut |_, _, v| vals.push(v));
        });
    }
}

/// Result of one Newton stage.
struct NewtonOutcome {
    converged: bool,
    iterations: usize,
    residual: f64,
    /// The stage stopped because [`DcOptions::deadline`] expired, not
    /// because the iteration diverged.
    timed_out: bool,
}

/// Damped Newton on the workspace's `x`. The loop is allocation-free: the
/// Jacobian is copied from the linear base, the LU refactors in place, and
/// the update solves into the preallocated `dx`.
fn newton(
    ws: &mut DcWorkspace,
    circuit: &Circuit,
    opts: &DcOptions,
    gmin: f64,
    source_scale: f64,
    max_iter: usize,
) -> NewtonOutcome {
    // Every stage (a g_min or source-stepping rung) assembles at its own
    // g_min, so none reuses the linear values of the one before.
    ws.engine.drop_linear();
    let mut last_res = f64::INFINITY;
    for it in 0..max_iter {
        // Deadline check at iteration granularity: an unlimited deadline
        // short-circuits to one branch, so the zero-budget path is free.
        if opts.deadline.expired() {
            return NewtonOutcome {
                converged: false,
                iterations: it,
                residual: last_res,
                timed_out: true,
            };
        }
        ws.assemble(circuit, gmin, source_scale);
        let rnorm = ws.res.iter().fold(0.0_f64, |m, &r| m.max(r.abs()));
        last_res = rnorm;
        // Newton step: J·dx = −res, reusing res as the negated rhs.
        ws.res.iter_mut().for_each(|r| *r = -*r);
        if !ws.engine.factor_solve(&ws.res, &mut ws.dx) {
            return NewtonOutcome {
                converged: false,
                iterations: it,
                residual: rnorm,
                timed_out: false,
            };
        }
        // Damping: cap node-voltage updates (the *requested* max update
        // drives the convergence check in both strategies, so a clipped
        // creep can never false-converge).
        let nv = ws.engine.map().node_count() - 1;
        let max_dv = ws.dx[..nv].iter().fold(0.0_f64, |m, &d| m.max(d.abs()));
        let applied_dv = match opts.damping {
            DcDamping::Global => {
                let alpha = if max_dv > MAX_STEP {
                    MAX_STEP / max_dv
                } else {
                    1.0
                };
                for (xi, di) in ws.x.iter_mut().zip(ws.dx.iter()) {
                    *xi += alpha * di;
                }
                max_dv * alpha
            }
            DcDamping::PerNode => {
                for (i, (xi, di)) in ws.x.iter_mut().zip(ws.dx.iter()).enumerate() {
                    if i < nv {
                        *xi += di.clamp(-MAX_STEP, MAX_STEP);
                    } else {
                        // Branch currents are linear unknowns; they follow
                        // the (re-solved) node voltages unclipped.
                        *xi += di;
                    }
                }
                max_dv
            }
        };
        if !ws.x.iter().all(|v| v.is_finite()) {
            return NewtonOutcome {
                converged: false,
                iterations: it,
                residual: f64::INFINITY,
                timed_out: false,
            };
        }
        if applied_dv < opts.vtol && rnorm < opts.itol {
            return NewtonOutcome {
                converged: true,
                iterations: it + 1,
                residual: rnorm,
                timed_out: false,
            };
        }
    }
    NewtonOutcome {
        converged: false,
        iterations: max_iter,
        residual: last_res,
        timed_out: false,
    }
}

/// Computes the DC operating point of a circuit.
///
/// Strategy: plain damped Newton from the node-set/zero initial guess; if
/// that fails, g_min stepping (decade by decade); if that fails, source
/// stepping. This mirrors production SPICE behaviour. The synthesis
/// evaluation stops after the first stage instead
/// ([`dc_operating_point_newton`]).
///
/// # Errors
/// [`SpiceError::DcConvergence`] if all homotopy stages fail;
/// [`SpiceError::Singular`] if the system stays singular (e.g. a floating
/// subcircuit with g_min disabled).
pub fn dc_operating_point(circuit: &Circuit, opts: &DcOptions) -> SpiceResult<OperatingPoint> {
    let mut ws = DcWorkspace::new(circuit)?;
    dc_operating_point_with(&mut ws, circuit, opts)
}

/// [`dc_operating_point`] with a caller-owned reusable [`DcWorkspace`]:
/// across repeated solves of the same topology (a synthesis loop retuning
/// one testbench) the MNA map, Jacobian, LU and solution buffers are all
/// reused and the steady-state Newton iterations never allocate.
///
/// The constant linear stamps are refreshed from the circuit's current
/// element values on every call, so in-place retuning
/// ([`Circuit::set_value`], [`Circuit::set_device_geometry`]) is picked up.
/// A workspace built for a *different topology* is rebuilt transparently.
///
/// # Errors
/// Same contract as [`dc_operating_point`].
pub fn dc_operating_point_with(
    ws: &mut DcWorkspace,
    circuit: &Circuit,
    opts: &DcOptions,
) -> SpiceResult<OperatingPoint> {
    ws.prepare(circuit)?;
    solve_cold_or_dense(ws, circuit, opts)
}

/// Iteration cap for a Newton attempt from a nearby point (a warm start,
/// or the start of [`dc_operating_point_newton`]): a good initial guess
/// converges in a handful of iterations; anything slower falls back to a
/// cold start rather than wandering.
const WARM_MAX_ITER: usize = 40;

/// [`dc_operating_point_with`] that additionally **warm-starts** from the
/// workspace's previous converged solution: in a synthesis loop retuning
/// one testbench, successive candidates sit close in design space, so a
/// plain Newton from the last operating point usually converges in a few
/// iterations and the whole homotopy ladder is skipped. Falls back to the
/// cold-start ladder when the warm attempt fails.
///
/// The converged point can differ from the cold-start one within the
/// solver tolerances (`vtol`/`itol`); use [`dc_operating_point_with`] when
/// bit-reproducibility against a fresh solve matters.
///
/// # Errors
/// Same contract as [`dc_operating_point`].
pub fn dc_operating_point_warm(
    ws: &mut DcWorkspace,
    circuit: &Circuit,
    opts: &DcOptions,
) -> SpiceResult<OperatingPoint> {
    ws.prepare(circuit)?;
    if ws.warm_valid {
        // Converge the warm attempt well past the cold tolerances: a good
        // initial guess makes the extra quadratic-convergence iterations
        // nearly free, and the tighter landing keeps warm-path metrics
        // numerically indistinguishable from a cold solve — so optimizer
        // trajectories don't fork on solver noise.
        let tight = DcOptions {
            max_iter: opts.max_iter,
            vtol: opts.vtol.min(1e-12),
            itol: opts.itol.min(1e-12),
            gmin: opts.gmin,
            nodeset: HashMap::new(),
            damping: opts.damping,
            deadline: opts.deadline,
        };
        let out = newton(ws, circuit, &tight, tight.gmin, 1.0, WARM_MAX_ITER);
        if out.converged {
            return Ok(OperatingPoint::from_solution(circuit, &ws.layout, &ws.x));
        }
        if out.timed_out {
            return Err(SpiceError::Timeout {
                analysis: "dc",
                iterations: out.iterations,
            });
        }
        ws.warm_valid = false;
    }
    solve_cold_or_dense(ws, circuit, opts)
}

/// Runs `solve` on the prepared workspace and reruns it once on the dense
/// engine when it failed after an underflowed sparse pivot (the fallback
/// policy of the `engine` module).
fn solve_or_dense(
    ws: &mut DcWorkspace,
    circuit: &Circuit,
    solve: impl Fn(&mut DcWorkspace) -> SpiceResult<OperatingPoint>,
) -> SpiceResult<OperatingPoint> {
    let out = solve(ws);
    if !ws.engine.fall_back(&out) {
        return out;
    }
    ws.stamp_linear_base(circuit);
    solve(ws)
}

/// [`solve_cold`] with the dense rerun.
fn solve_cold_or_dense(
    ws: &mut DcWorkspace,
    circuit: &Circuit,
    opts: &DcOptions,
) -> SpiceResult<OperatingPoint> {
    solve_or_dense(ws, circuit, |ws| solve_cold(ws, circuit, opts))
}

/// The synthesis evaluation's cold DC: plain damped Newton, and no
/// homotopy ladder (the module documentation says why).
///
/// With a `start` (an MNA solution of this circuit's topology, as
/// [`OperatingPoint::solution`] returns it), Newton first runs from there,
/// capped at 40 iterations like a warm start; when that fails, and without
/// a start, it runs from the node-set/zero initial guess, capped at
/// [`DcOptions::max_iter`]. The synthesis evaluator passes the operating
/// point of its template's nominal design, which depends on the block
/// alone, so an evaluation stays a pure function of the candidate. The
/// dense rerun after an underflowed sparse pivot repeats both attempts.
///
/// # Errors
/// [`SpiceError::DcConvergence`] if Newton does not converge;
/// [`SpiceError::Timeout`] if [`DcOptions::deadline`] expires.
///
/// # Panics
/// Panics if `start` is not as long as the circuit's MNA solution.
pub fn dc_operating_point_newton(
    ws: &mut DcWorkspace,
    circuit: &Circuit,
    opts: &DcOptions,
    start: Option<&[f64]>,
) -> SpiceResult<OperatingPoint> {
    ws.prepare(circuit)?;
    solve_or_dense(ws, circuit, |ws| solve_plain(ws, circuit, opts, start))
}

/// Loads the node-set/zero initial guess into `x` and remembers it in `x0`
/// for the homotopy rungs.
fn load_initial_guess(ws: &mut DcWorkspace, circuit: &Circuit, opts: &DcOptions) {
    ws.x.fill(0.0);
    for (name, v) in &opts.nodeset {
        if let Some(node) = circuit.find_node(name) {
            if let Some(r) = ws.engine.map().node_row(node) {
                ws.x[r] = *v;
            }
        }
    }
    ws.x0.copy_from_slice(&ws.x);
}

/// Turns a finished Newton stage into the solve's result: the operating
/// point when it converged (the workspace then holds a warm-start point),
/// a timeout, or a convergence failure after `iterations` in total.
fn finish(
    ws: &mut DcWorkspace,
    circuit: &Circuit,
    out: &NewtonOutcome,
    iterations: usize,
) -> SpiceResult<OperatingPoint> {
    if out.converged {
        ws.warm_valid = true;
        Ok(OperatingPoint::from_solution(circuit, &ws.layout, &ws.x))
    } else if out.timed_out {
        Err(SpiceError::Timeout {
            analysis: "dc",
            iterations,
        })
    } else {
        Err(SpiceError::DcConvergence {
            residual: out.residual,
            iterations,
        })
    }
}

/// Plain damped Newton on a freshly prepared workspace: from `start`
/// (capped at [`WARM_MAX_ITER`]) when given, then from the node-set/zero
/// initial guess.
fn solve_plain(
    ws: &mut DcWorkspace,
    circuit: &Circuit,
    opts: &DcOptions,
    start: Option<&[f64]>,
) -> SpiceResult<OperatingPoint> {
    ws.warm_valid = false;
    let mut spent = 0;
    if let Some(start) = start {
        ws.x.copy_from_slice(start);
        let out = newton(ws, circuit, opts, opts.gmin, 1.0, WARM_MAX_ITER);
        if out.converged || out.timed_out {
            return finish(ws, circuit, &out, out.iterations);
        }
        spent = out.iterations;
    }
    load_initial_guess(ws, circuit, opts);
    let out = newton(ws, circuit, opts, opts.gmin, 1.0, opts.max_iter);
    finish(ws, circuit, &out, spent + out.iterations)
}

/// Target of g_min stepping when [`DcOptions::gmin`] is disabled (≤ 0):
/// the rungs step down to the default baseline, then the final solve runs
/// without g_min. Stepping towards 0 S itself never ended: the decades
/// underflow to 0, and that rung repeated forever.
const GMIN_STEP_FLOOR: f64 = 1e-12;

/// The cold-start homotopy ladder (plain Newton, then g_min stepping, then
/// source stepping) on a freshly prepared workspace.
fn solve_cold(
    ws: &mut DcWorkspace,
    circuit: &Circuit,
    opts: &DcOptions,
) -> SpiceResult<OperatingPoint> {
    // Stage 1: plain Newton.
    let mut total_iters = match solve_plain(ws, circuit, opts, None) {
        Err(SpiceError::DcConvergence { iterations, .. }) => iterations,
        done => return done,
    };
    let timeout = |iters: usize| SpiceError::Timeout {
        analysis: "dc",
        iterations: iters,
    };

    // Stage 2: g_min stepping, decade by decade down to the baseline
    // (0.99 of it, so rounding cannot drop the last decade).
    ws.x.copy_from_slice(&ws.x0);
    let mut ok = true;
    let target = if opts.gmin > 0.0 {
        opts.gmin
    } else {
        GMIN_STEP_FLOOR
    };
    let mut g = 1e-2;
    while g >= target * 0.99 {
        let out = newton(ws, circuit, opts, g, 1.0, opts.max_iter);
        total_iters += out.iterations;
        if !out.converged {
            if out.timed_out {
                return Err(timeout(total_iters));
            }
            ok = false;
            break;
        }
        g /= 10.0;
    }
    if ok {
        let out = newton(ws, circuit, opts, opts.gmin, 1.0, opts.max_iter);
        total_iters += out.iterations;
        if out.converged || out.timed_out {
            return finish(ws, circuit, &out, total_iters);
        }
    }

    // Stage 3: source stepping (with a mild g_min floor for stability).
    ws.x.copy_from_slice(&ws.x0);
    let mut ok = true;
    let mut last_residual = f64::INFINITY;
    for k in 1..=20 {
        let scale = k as f64 / 20.0;
        let out = newton(ws, circuit, opts, opts.gmin.max(1e-9), scale, opts.max_iter);
        total_iters += out.iterations;
        last_residual = out.residual;
        if !out.converged {
            if out.timed_out {
                return Err(timeout(total_iters));
            }
            ok = false;
            break;
        }
    }
    if ok {
        let out = newton(ws, circuit, opts, opts.gmin, 1.0, opts.max_iter);
        total_iters += out.iterations;
        if out.converged || out.timed_out {
            return finish(ws, circuit, &out, total_iters);
        }
        last_residual = out.residual;
    }

    Err(SpiceError::DcConvergence {
        residual: last_residual,
        iterations: total_iters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::ClockPhase;
    use crate::process::Process;

    #[test]
    fn divider() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource("V1", vin, Circuit::GROUND, 3.0);
        c.add_resistor("R1", vin, out, 1e3);
        c.add_resistor("R2", out, Circuit::GROUND, 2e3);
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        assert!((op.voltage(out) - 2.0).abs() < 1e-8);
        assert!((op.voltage(vin) - 3.0).abs() < 1e-12);
        // Source branch current: 3V across 3k → 1 mA flowing n→p inside.
        assert!((op.branch_current("V1").unwrap() + 1e-3).abs() < 1e-9);
    }

    #[test]
    fn expired_deadline_is_a_typed_timeout() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource("V1", vin, Circuit::GROUND, 3.0);
        c.add_resistor("R1", vin, out, 1e3);
        c.add_resistor("R2", out, Circuit::GROUND, 2e3);
        let opts = DcOptions {
            deadline: adc_numerics::Deadline::within(std::time::Duration::from_secs(0)),
            ..DcOptions::default()
        };
        match dc_operating_point(&c, &opts) {
            Err(SpiceError::Timeout { analysis: "dc", .. }) => {}
            other => panic!("expected dc timeout, got {other:?}"),
        }
        // An unlimited deadline solves identically to the default options.
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        assert!((op.voltage(out) - 2.0).abs() < 1e-8);
    }

    #[test]
    fn warm_solve_respects_deadline() {
        let mut c = Circuit::new();
        let n1 = c.node("n1");
        c.add_isource("I1", Circuit::GROUND, n1, 1e-3);
        c.add_resistor("R1", n1, Circuit::GROUND, 2e3);
        let mut ws = DcWorkspace::new(&c).unwrap();
        // Prime the warm state, then expire the budget.
        dc_operating_point_with(&mut ws, &c, &DcOptions::default()).unwrap();
        let opts = DcOptions {
            deadline: adc_numerics::Deadline::within(std::time::Duration::from_secs(0)),
            ..DcOptions::default()
        };
        match dc_operating_point_warm(&mut ws, &c, &opts) {
            Err(SpiceError::Timeout { analysis: "dc", .. }) => {}
            other => panic!("expected warm dc timeout, got {other:?}"),
        }
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new();
        let n1 = c.node("n1");
        // SPICE convention: current flows p→n through the source, so to push
        // 1 mA into n1 we connect p=gnd, n=n1.
        c.add_isource("I1", Circuit::GROUND, n1, 1e-3);
        c.add_resistor("R1", n1, Circuit::GROUND, 2e3);
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        assert!((op.voltage(n1) - 2.0).abs() < 1e-8);
    }

    #[test]
    fn vcvs_amplifies() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, 0.5);
        c.add_vcvs("E1", b, Circuit::GROUND, a, Circuit::GROUND, -4.0);
        c.add_resistor("RL", b, Circuit::GROUND, 1e3);
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        assert!((op.voltage(b) + 2.0).abs() < 1e-9);
    }

    #[test]
    fn vccs_drives_load() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, 1.0);
        // gm = 1 mS, current p→n = gm·va pulls current out of b... use p=gnd.
        c.add_vccs("G1", Circuit::GROUND, b, a, Circuit::GROUND, 1e-3);
        c.add_resistor("RL", b, Circuit::GROUND, 1e3);
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        // Baseline g_min (1e-12 S) shifts the answer by ~1 nV.
        assert!((op.voltage(b) - 1.0).abs() < 1e-8);
    }

    #[test]
    fn diode_connected_nmos_bias() {
        let p = Process::c025();
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        c.add_vsource("VDD", vdd, Circuit::GROUND, 3.3);
        c.add_resistor("RB", vdd, d, 10e3);
        c.add_mosfet(
            "M1",
            d,
            d,
            Circuit::GROUND,
            Circuit::GROUND,
            p.nmos,
            10e-6,
            1e-6,
        );
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        let vgs = op.voltage(d);
        // Must bias above threshold, below supply.
        assert!(vgs > p.nmos.vto && vgs < 2.0, "vgs = {vgs}");
        // KCL: resistor current equals drain current.
        let ir = (3.3 - vgs) / 10e3;
        let ev = op.mos_eval("M1").unwrap();
        assert!(
            (ev.id - ir).abs() < 1e-6 * ir.max(1e-9),
            "id {} vs ir {}",
            ev.id,
            ir
        );
        assert_eq!(ev.region, crate::mosfet::Region::Saturation);
    }

    /// With g_min disabled, g_min stepping used to divide its conductance
    /// down to 0 S and then repeat that rung forever. Plain Newton needs
    /// more than 10 iterations here, so the solve reaches the ladder; every
    /// rung converges, and the finite schedule ends in the final solve
    /// without g_min. The deadline turns a regression into a timeout
    /// instead of a hang.
    #[test]
    fn gmin_stepping_terminates_with_gmin_disabled() {
        let p = Process::c025();
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        c.add_vsource("VDD", vdd, Circuit::GROUND, 3.3);
        c.add_resistor("RB", vdd, d, 10e3);
        c.add_mosfet(
            "M1",
            d,
            d,
            Circuit::GROUND,
            Circuit::GROUND,
            p.nmos,
            10e-6,
            1e-6,
        );
        let opts = DcOptions {
            gmin: 0.0,
            max_iter: 10,
            deadline: adc_numerics::Deadline::within(std::time::Duration::from_secs(2)),
            ..DcOptions::default()
        };
        let mut ws = DcWorkspace::new(&c).unwrap();
        assert!(
            matches!(
                dc_operating_point_newton(&mut ws, &c, &opts, None),
                Err(SpiceError::DcConvergence { .. })
            ),
            "plain Newton alone must not converge within 10 iterations"
        );
        let op = dc_operating_point_with(&mut ws, &c, &opts).expect("the ladder converges");
        let vgs = op.voltage(d);
        assert!(vgs > p.nmos.vto && vgs < 2.0, "vgs = {vgs}");
        let ir = (3.3 - vgs) / 10e3;
        let id = op.mos_eval("M1").unwrap().id;
        assert!((id - ir).abs() < 1e-6 * ir, "id {id} vs ir {ir}");
    }

    /// The homotopy ladder's solution, bit for bit, on the dense and the
    /// CSR engine, with g_min on and off. Every Newton stage assembles at
    /// its own g_min: a stage that kept the previous rung's linear
    /// Jacobian still converges, an ulp away.
    #[test]
    fn homotopy_ladder_solution_is_pinned() {
        let p = Process::c025();
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        c.add_vsource("VDD", vdd, Circuit::GROUND, 3.3);
        c.add_resistor("RB", vdd, d, 10e3);
        let gnd = Circuit::GROUND;
        c.add_mosfet("M1", d, d, gnd, gnd, p.nmos, 10e-6, 1e-6);
        let pins: [(f64, [u64; 3]); 2] = [
            (
                0.0,
                [
                    0x400a_6666_6666_6666,
                    0x3fed_d452_bc05_bcfe,
                    0xbf2f_091f_e4cb_1adf,
                ],
            ),
            (
                1e-12,
                [
                    0x400a_6666_6666_6666,
                    0x3fed_d452_bb9b_cf9d,
                    0xbf2f_091f_ec38_3a45,
                ],
            ),
        ];
        for (gmin, want) in pins {
            for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
                let opts = DcOptions {
                    gmin,
                    max_iter: 10,
                    ..DcOptions::default()
                };
                let mut ws = DcWorkspace::with_solver(&c, choice).unwrap();
                assert!(
                    dc_operating_point_newton(&mut ws, &c, &opts, None).is_err(),
                    "plain Newton alone must not converge within 10 iterations"
                );
                let op = dc_operating_point_with(&mut ws, &c, &opts).unwrap();
                assert_eq!(ws.is_sparse(), choice == SolverChoice::Sparse);
                let got: Vec<u64> = op.solution().iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "g_min {gmin}, {choice:?}");
            }
        }
    }

    #[test]
    fn common_source_amplifier_bias() {
        let p = Process::c025();
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let g = c.node("g");
        let d = c.node("d");
        c.add_vsource("VDD", vdd, Circuit::GROUND, 3.3);
        c.add_vsource("VG", g, Circuit::GROUND, 0.9);
        c.add_resistor("RD", vdd, d, 5e3);
        c.add_mosfet(
            "M1",
            d,
            g,
            Circuit::GROUND,
            Circuit::GROUND,
            p.nmos,
            20e-6,
            0.5e-6,
        );
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        let vd = op.voltage(d);
        assert!(vd > 0.2 && vd < 3.2, "vd = {vd}");
        let ev = op.mos_eval("M1").unwrap();
        assert!(ev.gm > 0.0);
    }

    #[test]
    fn cascode_stack_converges() {
        let p = Process::c025();
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vb1 = c.node("vb1");
        let vb2 = c.node("vb2");
        let mid = c.node("mid");
        let out = c.node("out");
        c.add_vsource("VDD", vdd, Circuit::GROUND, 3.3);
        c.add_vsource("VB1", vb1, Circuit::GROUND, 0.9);
        c.add_vsource("VB2", vb2, Circuit::GROUND, 1.5);
        c.add_mosfet(
            "M1",
            mid,
            vb1,
            Circuit::GROUND,
            Circuit::GROUND,
            p.nmos,
            2.5e-6,
            0.5e-6,
        );
        c.add_mosfet("M2", out, vb2, mid, Circuit::GROUND, p.nmos, 2.5e-6, 0.5e-6);
        c.add_resistor("RL", vdd, out, 20e3);
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        let vm = op.voltage(mid);
        let vo = op.voltage(out);
        assert!(vm > 0.1 && vm < 1.0, "vmid = {vm}");
        assert!(vo > vm && vo < 3.3, "vout = {vo}");
    }

    #[test]
    fn floating_node_handled_by_gmin() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let f = c.node("float");
        c.add_vsource("V1", a, Circuit::GROUND, 1.0);
        c.add_capacitor("C1", a, f, 1e-12); // cap is open in DC → f floats
        c.add_resistor("R1", a, Circuit::GROUND, 1e3);
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        assert!(op.voltage(f).abs() < 1e-3); // pulled to 0 by gmin
    }

    #[test]
    fn switch_dc_states() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, 1.0);
        c.add_switch("S1", a, b, 100.0, 1e12, ClockPhase::Phi1, true);
        c.add_resistor("RL", b, Circuit::GROUND, 100.0);
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        assert!((op.voltage(b) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn empty_circuit_is_error() {
        let c = Circuit::new();
        assert!(dc_operating_point(&c, &DcOptions::default()).is_err());
    }

    #[test]
    fn pmos_source_follower() {
        let p = Process::c025();
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let g = c.node("g");
        let s = c.node("s");
        c.add_vsource("VDD", vdd, Circuit::GROUND, 3.3);
        c.add_vsource("VG", g, Circuit::GROUND, 1.0);
        // PMOS follower: source above gate by |vgs|.
        c.add_mosfet("M1", Circuit::GROUND, g, s, vdd, p.pmos, 20e-6, 0.5e-6);
        c.add_resistor("RS", vdd, s, 10e3);
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        let vs = op.voltage(s);
        assert!(vs > 1.4 && vs < 2.6, "vs = {vs}");
    }
}
