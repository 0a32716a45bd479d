//! The premise of the TF extraction's conjugate fill.
//!
//! `nettf` factors `Y(s)` only at sample points in the upper half-plane and
//! fills the lower half with the conjugates of those results. That is
//! exact only if a solve at `conj(s)` returns the conjugate of the solve at
//! `s` bit for bit: `G` and `C` are real, so `Y(conj s) = conj Y(s)`, and
//! the complex multiply, Smith division and pivot test the engines use are
//! conjugation-symmetric. This pins it on the OTA testbenches the flow
//! synthesizes, at random sizings and loads, on the batched sparse engine
//! (a full 8-lane chunk, a padded 5-lane chunk and a single lane) and on
//! the serial dense engine.

use pipelined_adc::mdac::opamp::{
    build_telescopic, build_two_stage, OtaTestbench, TelescopicParams, TwoStageParams, VarBound,
};
use pipelined_adc::numerics::complex::Complex;
use pipelined_adc::spice::dc::dc_operating_point;
use pipelined_adc::spice::linearize::{ComplexMnaWorkspace, SmallSignal, SolverChoice};
use pipelined_adc::spice::process::Process;
use pipelined_adc::synth::hybrid::HybridOptions;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SIZINGS: usize = 36;
const LOADS: [f64; 3] = [0.3e-12, 1e-12, 3e-12];
const POINTS_PER_CALL: [usize; 3] = [8, 5, 1];
const SOLVERS: [SolverChoice; 2] = [SolverChoice::Auto, SolverChoice::Dense];

/// A sizing drawn around the template's nominal one, inside its bounds:
/// widths, lengths and capacitors within a factor of 3 (log-uniform),
/// bias voltages within 15 % of their range.
fn draw(rng: &mut StdRng, nominal: &[f64], bounds: &[VarBound]) -> Vec<f64> {
    nominal
        .iter()
        .zip(bounds)
        .map(|(&x, b)| {
            let v = if b.log {
                x * rng.gen_range(-3f64.ln()..3f64.ln()).exp()
            } else {
                x + rng.gen_range(-0.15..0.15) * (b.hi - b.lo)
            };
            v.clamp(b.lo, b.hi)
        })
        .collect()
}

/// Points in the open upper half-plane, radius 1e6–1e10 rad/s.
fn upper_points(rng: &mut StdRng, n: usize) -> Vec<Complex> {
    (0..n)
        .map(|_| {
            let r = 10f64.powf(rng.gen_range(6.0..10.0));
            Complex::from_polar(r, rng.gen_range(0.01..std::f64::consts::PI - 0.01))
        })
        .collect()
}

type Solved = (Result<(), usize>, bool, Vec<Complex>, Vec<Complex>);

/// `solve_det_batch` at `points` on a fresh engine bound to `ss`: the
/// outcome (failing sample on error), whether the engine is still sparse,
/// the solutions and the determinants.
fn solve(ss: &SmallSignal, choice: SolverChoice, points: &[Complex]) -> Solved {
    let dim = ss.dim();
    let mut engine = ComplexMnaWorkspace::new();
    engine.set_solver(choice);
    engine.bind(ss, true);
    let mut xs = vec![Complex::ZERO; points.len() * dim];
    let mut dets = vec![Complex::ZERO; points.len()];
    let outcome = engine
        .solve_det_batch(points, ss, &ss.b, &mut xs, &mut dets)
        .map_err(|(k, _)| k);
    (outcome, engine.is_sparse(), xs, dets)
}

/// Exact conjugate, compared as `f64` values so that ±0 count as equal.
fn is_conj(a: Complex, b: Complex) -> bool {
    a.re == b.re && a.im == -b.im
}

/// Checks every (points per call, solver) case on one testbench, biased
/// with the synthesis evaluator's DC options; returns how many cases it
/// compared, or 0 when the testbench has no DC solution.
fn check_testbench(tb: &OtaTestbench, rng: &mut StdRng, what: &str) -> usize {
    let Ok(op) = dc_operating_point(&tb.circuit, &HybridOptions::default().dc) else {
        return 0;
    };
    let mut ss = SmallSignal::new();
    ss.bind(&tb.circuit, &op, 0.0).unwrap();
    let mut cases = 0;
    for n in POINTS_PER_CALL {
        let points = upper_points(rng, n);
        let conj: Vec<Complex> = points.iter().map(|s| s.conj()).collect();
        for choice in SOLVERS {
            let (up_outcome, up_sparse, up_xs, up_dets) = solve(&ss, choice, &points);
            let (lo_outcome, lo_sparse, lo_xs, lo_dets) = solve(&ss, choice, &conj);
            let case = format!("{what}, {n} points, {choice:?}");
            assert_eq!(up_outcome, lo_outcome, "{case}: outcomes differ");
            assert_eq!(up_sparse, lo_sparse, "{case}: engines differ");
            if choice == SolverChoice::Auto {
                assert!(up_sparse, "{case}: the OTA testbench should factor sparse");
            }
            for (k, (&u, &l)) in up_dets.iter().zip(&lo_dets).enumerate() {
                assert!(is_conj(u, l), "{case}: det {k}: {u:?} vs {l:?}");
            }
            for (i, (&u, &l)) in up_xs.iter().zip(&lo_xs).enumerate() {
                assert!(is_conj(u, l), "{case}: solution entry {i}: {u:?} vs {l:?}");
            }
            cases += 1;
        }
    }
    cases
}

#[test]
fn solves_at_conjugate_points_are_exact_conjugates() {
    let process = Process::c025();
    let mut rng = StdRng::seed_from_u64(0xC0_4A7E);
    let planned = 2 * SIZINGS * LOADS.len() * POINTS_PER_CALL.len() * SOLVERS.len();
    let mut cases = 0;
    for i in 0..SIZINGS {
        let tele = TelescopicParams::from_vec(&draw(
            &mut rng,
            &TelescopicParams::nominal().to_vec(),
            &TelescopicParams::bounds(),
        ));
        let two = TwoStageParams::from_vec(&draw(
            &mut rng,
            &TwoStageParams::nominal().to_vec(),
            &TwoStageParams::bounds(),
        ));
        for c_load in LOADS {
            let tb = build_telescopic(&process, &tele, c_load);
            cases += check_testbench(&tb, &mut rng, &format!("telescopic {i} at {c_load:e} F"));
            let tb = build_two_stage(&process, &two, c_load);
            cases += check_testbench(&tb, &mut rng, &format!("two-stage {i} at {c_load:e} F"));
        }
    }
    // Most sizings near nominal bias; guard against a DC change silently
    // skipping the comparison.
    eprintln!("{cases} of {planned} cases compared");
    assert!(
        10 * cases >= 9 * planned,
        "only {cases} of {planned} cases had a DC solution"
    );
}
