//! Oracle tests for the unity-gain / −3 dB crossing search: the chunked
//! SIMD level scan with exact `norm_le` decisions must find the serial
//! `hypot` scan's bracket bit for bit, and the Newton refinement must
//! land inside it, within `CROSSING_REL_TOL` of the reference's 60-step
//! bisection.

use adc_numerics::complex::Complex;
use adc_numerics::interp::logspace;
use adc_numerics::poly::Poly;
use adc_sfg::tf::Tf;
use proptest::prelude::*;

/// `A0 · Π(1 ± s/z) / Π(1 + s/p)`: real poles and conjugate pole pairs
/// (Q from 0.1 to 3) spread over 1e3–1e11 rad/s, zeros in either
/// half-plane over 1e5–1e12 rad/s, and a signed DC gain.
fn random_stable_tf(gain: f64, poles: &[(f64, f64, bool)], zeros: &[(f64, bool)]) -> Tf {
    let mut den = Poly::one();
    for &(w_exp, q, pair) in poles {
        let w = 10f64.powf(w_exp);
        den = &den
            * &if pair {
                Poly::new(vec![1.0, 1.0 / (q * w), 1.0 / (w * w)])
            } else {
                Poly::new(vec![1.0, 1.0 / w])
            };
    }
    let mut num = Poly::constant(gain);
    for &(z_exp, rhp) in zeros {
        let z = 10f64.powf(z_exp);
        num = &num * &Poly::new(vec![1.0, if rhp { -1.0 / z } else { 1.0 / z }]);
    }
    Tf::new(num, den)
}

/// Agreement, in degrees, of a cancelled TF's phase with the phase of a
/// fresh `Tf` of its polynomials. Both sum at most 13 `atan2` terms over
/// root sets that differ only by rounding; over 20 000 random TFs of the
/// shape below the largest gap was 2.2e-11°, so this leaves a 45× margin
/// and still sits eleven orders below a degree of phase margin.
const SEEDED_PHASE_TOL_DEG: f64 = 1e-9;

/// Points of the search's log grid.
const GRID_POINTS: usize = 100;

/// Agreement of the refined crossing with the reference's bisected one,
/// relative. Both converge to the rounding floor of `|H|` near the
/// crossing; over 400 000 searches of the generator below (50 000 draws ×
/// raw and cancelled × 2 windows × 2 levels) the largest gap was 2.9e-13,
/// at a zero that nearly cancels a pole and flattens the crossing, so
/// this leaves a 340× margin.
const CROSSING_REL_TOL: f64 = 1e-10;

fn bits(f: Option<f64>) -> Option<u64> {
    f.map(f64::to_bits)
}

/// The serial `hypot` scan's bracket: the first grid point with
/// `|H| <= level` and the point before it, or the first grid point twice
/// when `|H|` is already at or below the level there.
fn hypot_bracket(h: &Tf, f_lo: f64, f_hi: f64, level: f64) -> Option<(f64, f64)> {
    let grid = logspace(f_lo, f_hi, GRID_POINTS);
    let k = grid.iter().position(|&f| h.magnitude(f) <= level)?;
    Some((grid[k.saturating_sub(1)], grid[k]))
}

/// Checks the fast search against the reference: `None` exactly when it
/// is, the same bits when both return the first grid point (`f_lo` up to
/// `logspace` rounding), and otherwise a crossing inside the serial
/// `hypot` scan's bracket that agrees with the reference's bisection
/// within `CROSSING_REL_TOL`.
fn check_against_reference(h: &Tf, f_lo: f64, f_hi: f64, level: f64) -> Result<(), String> {
    let fast = h.magnitude_crossing(f_lo, f_hi, level);
    let oracle = h.magnitude_crossing_reference(f_lo, f_hi, level);
    let ctx = || format!("{h} at level {level:e}: {fast:?} vs {oracle:?}");
    let (Some(f), Some(r)) = (fast, oracle) else {
        return if fast.is_none() && oracle.is_none() {
            Ok(())
        } else {
            Err(format!("only one search found a crossing, {}", ctx()))
        };
    };
    let (a, b) =
        hypot_bracket(h, f_lo, f_hi, level).ok_or_else(|| format!("no bracket, {}", ctx()))?;
    if a == b {
        return if bits(fast) == bits(oracle) {
            Ok(())
        } else {
            Err(format!("not the first grid point, {}", ctx()))
        };
    }
    if !(a <= f && f <= b) {
        return Err(format!("outside the bracket [{a:e}, {b:e}], {}", ctx()));
    }
    if (f - r).abs() > CROSSING_REL_TOL * r {
        return Err(format!("relative gap {:e}, {}", (f - r).abs() / r, ctx()));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]
    /// At the hybrid evaluator's unity-gain level and at the `f3db` level
    /// `a0/√2`, over the evaluator's window and a wider one, on the raw TF
    /// and on its pole/zero-cancelled form.
    #[test]
    fn magnitude_crossing_matches_hypot_oracle(
        gain_exp in -1.0f64..5.0,
        negative in proptest::bool::ANY,
        poles in proptest::collection::vec((3.0f64..11.0, 0.1f64..3.0, proptest::bool::ANY), 1..6),
        zeros in proptest::collection::vec((5.0f64..12.0, proptest::bool::ANY), 0..4),
    ) {
        let gain = if negative { -(10f64.powf(gain_exp)) } else { 10f64.powf(gain_exp) };
        let tf = random_stable_tf(gain, &poles, &zeros);
        for h in [tf.clone(), tf.cancel_common_roots(1e-5)] {
            for (f_lo, f_hi) in [(1e4, 50e9), (1.0, 1e12)] {
                for level in [1.0, h.magnitude(f_lo) / 2.0_f64.sqrt()] {
                    let checked = check_against_reference(&h, f_lo, f_hi, level);
                    prop_assert!(checked.is_ok(), "{:?}", checked);
                }
            }
        }
    }
}

/// Edge cases of the scan: a response already below the level at `f_lo`,
/// one that never falls to it, crossings in the first SIMD chunk and in
/// the grid's short tail chunk, NaN/negative/zero levels, and an
/// undamped resonance whose denominator is exactly zero at a grid point.
#[test]
fn magnitude_crossing_edge_cases_match_oracle() {
    let (f_lo, f_hi) = (1e4, 50e9);
    // den(jω) = ω0² − ω·ω is exactly zero at the 38th grid frequency.
    let w0 = 2.0 * std::f64::consts::PI * logspace(f_lo, f_hi, GRID_POINTS)[37];
    let resonance = Tf::new(Poly::constant(3.0), Poly::new(vec![w0 * w0, 0.0, 1.0]));
    let cases = [
        (Tf::constant(0.5), 1.0),
        (Tf::constant(2.0), 1.0),
        (Tf::single_pole(1.5, 2e4), 1.0),
        (Tf::single_pole(1e3, 2.0 * std::f64::consts::PI * 4e7), 1.0),
        (Tf::single_pole(1e3, 1.0), f64::NAN),
        (Tf::single_pole(1e3, 1.0), -1.0),
        (Tf::single_pole(1e3, 1.0), 0.0),
        (resonance.clone(), 1e-15),
        (resonance, 1e-30),
    ];
    for (h, level) in cases {
        check_against_reference(&h, f_lo, f_hi, level).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]
    /// A cancelled TF's phase sums over the roots that survived
    /// cancellation; a fresh `Tf` of the same polynomials re-finds them.
    /// The phases at the evaluator's probe frequency and at the unity
    /// crossing agree within `SEEDED_PHASE_TOL_DEG`.
    #[test]
    fn seeded_phase_matches_refound_roots(
        gain_exp in -1.0f64..5.0,
        negative in proptest::bool::ANY,
        poles in proptest::collection::vec((3.0f64..11.0, 0.1f64..3.0, proptest::bool::ANY), 1..6),
        zeros in proptest::collection::vec((5.0f64..12.0, proptest::bool::ANY), 0..4),
    ) {
        let gain = if negative { -(10f64.powf(gain_exp)) } else { 10f64.powf(gain_exp) };
        let h = random_stable_tf(gain, &poles, &zeros).cancel_common_roots(1e-5);
        let fresh = Tf::new(h.num().clone(), h.den().clone());
        let mut freqs = vec![1e4];
        freqs.extend(h.unity_gain_freq(1e4, 50e9));
        for f in freqs {
            let (seeded, refound) = (h.phase_exact_deg(f), fresh.phase_exact_deg(f));
            prop_assert!((seeded - refound).abs() <= SEEDED_PHASE_TOL_DEG,
                "{} at {:e} Hz: {} vs {}", h, f, seeded, refound);
        }
    }
}

/// Cancellation that leaves one member of a complex pair: the zero
/// `−1e6 + 1i` cancels the pole at `−1e6`, and `−1e6 − 1i` survives alone
/// (the quadratic formula returns all four roots exactly). The
/// re-expanded numerator keeps only the survivor's real part, so it no
/// longer has the survivor as a root; the cancelled TF must then keep
/// empty root caches and stay bit-identical to a fresh `Tf` of its
/// polynomials.
#[test]
fn lone_complex_survivor_is_not_seeded() {
    let tf = Tf::new(
        Poly::new(vec![1e12 + 1.0, 2e6, 1.0]),
        Poly::new(vec![1e15, 1.001e9, 1.0]),
    );
    assert_eq!(
        tf.zeros(),
        vec![Complex::new(-1e6, 1.0), Complex::new(-1e6, -1.0)]
    );
    assert_eq!(
        tf.poles(),
        vec![Complex::from_real(-1e9), Complex::from_real(-1e6)]
    );
    let h = tf.cancel_common_roots(1e-5);
    let fresh = Tf::new(h.num().clone(), h.den().clone());
    assert_eq!(h.zeros(), vec![Complex::from_real(-1e6)]);
    assert_eq!(h.poles(), vec![Complex::from_real(-1e9)]);
    for f in [1e4, 1e5, 159_154.943_091_895_3, 1e6, 1e8, 1e10] {
        assert_eq!(
            h.phase_exact_deg(f).to_bits(),
            fresh.phase_exact_deg(f).to_bits(),
            "phase at {f:e} Hz"
        );
    }
}

/// When every complex survivor keeps its conjugate partner, the cancelled
/// TF's roots are the survivors themselves, bit for bit and in the order
/// cancellation leaves them, while its polynomials are the re-expansion.
#[test]
fn conjugate_closed_survivors_seed_the_root_caches() {
    // Zeros −1e6 ± 1i and −1e3; poles −1e3 (cancels) and −1e9.
    let tf = Tf::new(
        &Poly::new(vec![1e12 + 1.0, 2e6, 1.0]) * &Poly::new(vec![1e3, 1.0]),
        Poly::new(vec![1e12, 1.000001e9, 1.0]),
    );
    let h = tf.cancel_common_roots(1e-5);
    let mut survivors = tf.zeros();
    let k = survivors
        .iter()
        .position(|z| z.im == 0.0)
        .expect("zero at −1e3");
    survivors.swap_remove(k);
    let bits = |zs: &[Complex]| -> Vec<(u64, u64)> {
        zs.iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    };
    assert_eq!(bits(&h.zeros()), bits(&survivors));
    assert_eq!(h.poles().len(), 1);
    assert_eq!(h.poles()[0], Complex::from_real(-1e9));
    let num = Poly::from_complex_roots(&h.zeros()).scale(tf.num().leading());
    assert_eq!(h.num(), &num);
}
