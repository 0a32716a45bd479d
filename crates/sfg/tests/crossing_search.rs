//! Oracle tests for the unity-gain / −3 dB crossing search: the chunked
//! SIMD level scan with exact `norm_le`/`norm_gt` decisions and the
//! early-stopping bisection must return the serial `hypot` search's
//! crossing bit for bit.

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

fn bits(f: Option<f64>) -> Option<u64> {
    f.map(f64::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]
    /// At the hybrid evaluator's unity-gain level and at the `f3db` level
    /// `a0/√2`, over the evaluator's window and a wider one, on the raw TF
    /// and on its pole/zero-cancelled form.
    #[test]
    fn magnitude_crossing_matches_hypot_oracle_bitwise(
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
                    let fast = h.magnitude_crossing(f_lo, f_hi, level);
                    let oracle = h.magnitude_crossing_reference(f_lo, f_hi, level);
                    prop_assert_eq!(bits(fast), bits(oracle), "{} at level {:e}: {:?} vs {:?}",
                        h, level, fast, oracle);
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
    let w0 = 2.0 * std::f64::consts::PI * logspace(f_lo, f_hi, 400)[37];
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
        let fast = h.magnitude_crossing(f_lo, f_hi, level);
        let oracle = h.magnitude_crossing_reference(f_lo, f_hi, level);
        assert_eq!(bits(fast), bits(oracle), "{h} at {level}");
    }
}
