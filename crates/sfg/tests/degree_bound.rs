//! The TF extraction's sample count at the edges of its degree bound.
//!
//! A uniform RC ladder of `n` sections has a capacitor on each of its `n`
//! internal nodes and nowhere else, so the capacitive-row degree bound is
//! exactly `n` and `det Y(s)` has degree `n`. Over `n = 1..=17` the sample
//! count `m = (n + 1).next_power_of_two()` steps through 2, 4, 8, 16 and
//! 32, and `n + 1` lands exactly on 2, 4, 8 and 16, where one sample fewer
//! would alias the leading coefficient onto the constant one. The
//! extracted TF must match the ladder's ABCD-chain response everywhere.

use adc_numerics::complex::Complex;
use adc_numerics::interp::logspace;
use adc_sfg::nettf::{extract_tf, NetTfOptions};
use adc_spice::dc::{dc_operating_point, DcOptions};
use adc_spice::netlist::{Circuit, NodeId};

const R: f64 = 1e3;
const C: f64 = 10e-12;

/// `n` series-R, shunt-C sections driven by an AC source (RC = 1e-8 s, so
/// the poles sit around the default 1e8 rad/s sample radius).
fn rc_ladder(n: usize) -> (Circuit, NodeId) {
    let mut c = Circuit::new();
    let mut prev = c.node("in");
    c.add_vsource_wave("VIN", prev, Circuit::GROUND, 0.0.into(), 1.0);
    for i in 1..=n {
        let node = c.node(&format!("n{i}"));
        c.add_resistor(&format!("R{i}"), prev, node, R);
        c.add_capacitor(&format!("C{i}"), node, Circuit::GROUND, C);
        prev = node;
    }
    (c, prev)
}

/// Open-circuit voltage gain of the ladder at `s`: the product of the
/// sections' ABCD matrices `[[1, R], [0, 1]]·[[1, 0], [sC, 1]]` is
/// `[[A, B], [·, ·]]`, and `Vout/Vin = 1/A`.
fn chain_response(n: usize, s: Complex) -> Complex {
    let one = Complex::ONE;
    let series = [[one, Complex::from_real(R)], [Complex::ZERO, one]];
    let shunt = [[one, Complex::ZERO], [s * C, one]];
    let mul = |a: &[[Complex; 2]; 2], b: &[[Complex; 2]; 2]| {
        let mut p = [[Complex::ZERO; 2]; 2];
        for (i, row) in p.iter_mut().enumerate() {
            for (j, e) in row.iter_mut().enumerate() {
                *e = a[i][0] * b[0][j] + a[i][1] * b[1][j];
            }
        }
        p
    };
    let section = mul(&series, &shunt);
    let mut t = [[one, Complex::ZERO], [Complex::ZERO, one]];
    for _ in 0..n {
        t = mul(&t, &section);
    }
    one / t[0][0]
}

#[test]
fn extraction_matches_rc_ladder_across_sample_counts() {
    let freqs = logspace(1e4, 1e9, 41);
    for n in 1..=17 {
        let (c, out) = rc_ladder(n);
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        let tf = extract_tf(&c, &op, out, &NetTfOptions::default()).unwrap();
        for &f in &freqs {
            let s = Complex::new(0.0, 2.0 * std::f64::consts::PI * f);
            let want = chain_response(n, s);
            let got = tf.eval(s);
            let err = (got - want).norm() / want.norm();
            assert!(
                err <= 1e-8,
                "n = {n}, f = {f:.3e} Hz: extracted {got} vs chain {want} (rel err {err:.2e})"
            );
        }
    }
}
