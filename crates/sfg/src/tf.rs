//! Numeric rational transfer functions and their AC characteristics.
//!
//! Everything the synthesis constraints need — DC gain, unity-gain
//! frequency, phase margin, and the poles and zeros behind them — is read
//! off the numeric rational function here. This is the "fast equation
//! evaluation" leg of the paper's hybrid methodology. In the flow the
//! function comes from [`crate::nettf`], which samples `det Y(s)` of the
//! linearized testbench and interpolates its coefficients; poles and
//! zeros come from the Aberth root finder in `adc_numerics::roots`. The
//! paper's DPI/SFG route ([`crate::dpi`] with Mason's rule) also yields a
//! `Tf`, but no flow runs it: `tests/circuit_sfg_consistency.rs` checks it
//! against `nettf` and AC analysis on small amplifiers.

use adc_numerics::complex::Complex;
use adc_numerics::interp::logspace;
use adc_numerics::poly::Poly;
use std::cell::RefCell;
use std::fmt;
use std::sync::OnceLock;

/// A numeric transfer function `H(s) = num(s)/den(s)`.
///
/// Roots of both polynomials are cached, so repeated phase/stability
/// queries stop re-finding them. A `Tf` made by [`Tf::new`] computes them
/// lazily, and the root finder is deterministic, so the cache holds
/// exactly the bits a fresh computation would. A `Tf` returned by
/// [`Tf::cancel_common_roots`] usually starts with the roots that
/// survived cancellation instead; they agree with a fresh computation on
/// its re-expanded polynomials only to rounding. `PartialEq` compares the
/// polynomials alone, never the cached roots.
#[derive(Debug, Clone)]
pub struct Tf {
    num: Poly,
    den: Poly,
    num_roots: OnceLock<Vec<Complex>>,
    den_roots: OnceLock<Vec<Complex>>,
}

impl PartialEq for Tf {
    fn eq(&self, other: &Self) -> bool {
        self.num == other.num && self.den == other.den
    }
}

/// Summary of the AC characteristics of a transfer function.
#[derive(Debug, Clone, PartialEq)]
pub struct AcCharacteristics {
    /// DC gain (linear, signed).
    pub dc_gain: f64,
    /// DC gain magnitude in dB.
    pub dc_gain_db: f64,
    /// −3 dB bandwidth, Hz (`None` if the response never drops 3 dB).
    pub f3db: Option<f64>,
    /// Unity-gain frequency, Hz (`None` if |H| never crosses 1).
    pub unity_freq: Option<f64>,
    /// Phase margin, degrees (`None` without a unity crossing).
    pub phase_margin_deg: Option<f64>,
    /// Gain–bandwidth product estimate `|A0|·f3db`, Hz.
    pub gbw: Option<f64>,
    /// Poles (rad/s, complex).
    pub poles: Vec<Complex>,
    /// Zeros (rad/s, complex).
    pub zeros: Vec<Complex>,
}

impl Tf {
    /// Creates `num/den`.
    ///
    /// # Panics
    /// Panics if `den` is the zero polynomial.
    pub fn new(num: Poly, den: Poly) -> Self {
        assert!(!den.is_zero(), "transfer function with zero denominator");
        Tf {
            num,
            den,
            num_roots: OnceLock::new(),
            den_roots: OnceLock::new(),
        }
    }

    /// A pure gain.
    pub fn constant(k: f64) -> Self {
        Tf::new(Poly::constant(k), Poly::one())
    }

    /// Single-pole low-pass `k / (1 + s/p)` with pole at `p` rad/s.
    pub fn single_pole(k: f64, pole_rad: f64) -> Self {
        Tf::new(Poly::constant(k), Poly::new(vec![1.0, 1.0 / pole_rad]))
    }

    /// Numerator.
    pub fn num(&self) -> &Poly {
        &self.num
    }

    /// Denominator.
    pub fn den(&self) -> &Poly {
        &self.den
    }

    /// Evaluates `H(s)` at a complex frequency.
    pub fn eval(&self, s: Complex) -> Complex {
        self.num.eval_complex(s) / self.den.eval_complex(s)
    }

    /// Evaluates at `s = j·2πf`.
    pub fn eval_at_freq(&self, f_hz: f64) -> Complex {
        self.eval(Complex::new(0.0, 2.0 * std::f64::consts::PI * f_hz))
    }

    /// Magnitude at a frequency (linear).
    pub fn magnitude(&self, f_hz: f64) -> f64 {
        self.eval_at_freq(f_hz).norm()
    }

    /// DC gain `H(0)` (may be ±∞ for integrators).
    pub fn dc_gain(&self) -> f64 {
        let n = self.num.eval(0.0);
        let d = self.den.eval(0.0);
        n / d
    }

    /// Cached denominator roots (computed on first use).
    fn poles_cached(&self) -> &[Complex] {
        self.den_roots.get_or_init(|| self.den.roots())
    }

    /// Cached numerator roots (computed on first use).
    fn zeros_cached(&self) -> &[Complex] {
        self.num_roots.get_or_init(|| self.num.roots())
    }

    /// Poles in rad/s.
    pub fn poles(&self) -> Vec<Complex> {
        self.poles_cached().to_vec()
    }

    /// Zeros in rad/s.
    pub fn zeros(&self) -> Vec<Complex> {
        self.zeros_cached().to_vec()
    }

    /// Removes matching pole/zero pairs closer than `rel_tol` (relative to
    /// magnitude). Useful after determinant-based extraction.
    ///
    /// The surviving roots are re-expanded into the returned polynomials
    /// and, when each survivor set is closed under conjugation, also seed
    /// its root caches, so that poles, zeros and phase need no second
    /// root-finding. A set that is not closed keeps empty caches: its
    /// re-expansion keeps only real parts and no longer has the survivors
    /// as roots.
    pub fn cancel_common_roots(&self, rel_tol: f64) -> Tf {
        let mut zeros = self.zeros();
        let mut poles = self.poles();
        let num_lead = self.num.leading();
        let den_lead = self.den.leading();
        let mut i = 0;
        while i < zeros.len() {
            let z = zeros[i];
            if let Some(j) = poles
                .iter()
                .position(|p| (*p - z).norm() <= rel_tol * (1.0 + z.norm().max(p.norm())))
            {
                zeros.swap_remove(i);
                poles.swap_remove(j);
            } else {
                i += 1;
            }
        }
        let num = Poly::from_complex_roots(&zeros).scale(num_lead);
        let den = Poly::from_complex_roots(&poles).scale(den_lead);
        let mut tf = Tf::new(num, den);
        if conjugate_closed(&zeros) && conjugate_closed(&poles) {
            tf.num_roots = OnceLock::from(zeros);
            tf.den_roots = OnceLock::from(poles);
        }
        tf
    }

    /// Finds the unity-gain frequency: the first `|H| = 1` crossing in
    /// `[f_lo, f_hi]`, found by [`Tf::magnitude_crossing`].
    pub fn unity_gain_freq(&self, f_lo: f64, f_hi: f64) -> Option<f64> {
        self.magnitude_crossing(f_lo, f_hi, 1.0)
    }

    /// Finds the first frequency where `|H|` falls to `level` (from above).
    ///
    /// A scan upward on a 100-point log grid brackets the first grid
    /// point with `|H| <= level`; a safeguarded Newton iteration on
    /// `ln|H|` over `ln f` then refines the crossing inside that bracket.
    /// Returns the grid's first point (`f_lo` up to rounding) when `|H|`
    /// is already at or below `level` there, and `None` when no grid point
    /// falls to the level.
    pub fn magnitude_crossing(&self, f_lo: f64, f_hi: f64, level: f64) -> Option<f64> {
        // Chunked SIMD level scan: each lane decides the serial
        // `self.magnitude(f) <= level` bit-for-bit (same Horner fold and
        // Smith divide, then `norm_le`, which agrees with `hypot` on every
        // input), and chunk results are walked in grid order, so the
        // first-crossing bracket is exactly the serial scan's. Points
        // computed past the crossing inside a chunk are pure speculation
        // with no side effects.
        const SCAN_CHUNK: usize = 16;
        with_log_grid(f_lo, f_hi, |grid| {
            let mut prev_f = grid[0];
            if self.eval_at_freq(prev_f).norm_le(level) {
                return Some(prev_f);
            }
            let mut below = [false; SCAN_CHUNK];
            let mut idx = 1usize;
            while idx < grid.len() {
                let take = (grid.len() - idx).min(SCAN_CHUNK);
                adc_numerics::simd::rational_le(
                    self.num.coeffs(),
                    self.den.coeffs(),
                    &grid[idx..idx + take],
                    level,
                    &mut below[..take],
                );
                for (&f, &hit) in grid[idx..idx + take].iter().zip(&below[..take]) {
                    if hit {
                        return Some(self.refine_crossing(prev_f, f, level));
                    }
                    prev_f = f;
                }
                idx += take;
            }
            None
        })
    }

    /// Refines a crossing bracketed by `|H(a)| > level >= |H(b)|`.
    ///
    /// Newton's method on `g(f) = ln|H(j2πf)| − ln(level)` over `ln f`,
    /// started from the secant of `g` between the ends. Each evaluation
    /// at `f` moves the end whose `g` has the sign of `g(f)` to `f`; a
    /// Newton step that leaves the bracket (or is NaN) becomes a geometric
    /// bisection step instead. The iteration stops once a Newton step is
    /// shorter than `8ε·f` or no shorter than the one before (the rounding
    /// floor), once the bracket is `8ε` wide relative, or after
    /// [`BISECT_STEPS`] evaluations, so the worst case costs about what
    /// the reference's bisection does, and the result always lies in
    /// `[a, b]`.
    fn refine_crossing(&self, mut a: f64, mut b: f64, level: f64) -> f64 {
        let ln_level = level.ln();
        let (ga, _) = self.log_excess(a, ln_level);
        let (gb, _) = self.log_excess(b, ln_level);
        let mut f = if ga.is_finite() && gb.is_finite() && ga > gb {
            (a.ln() + (b.ln() - a.ln()) * ga / (ga - gb)).exp()
        } else {
            (a * b).sqrt()
        };
        if !(a < f && f < b) {
            f = (a * b).sqrt();
        }
        let tol = 8.0 * f64::EPSILON;
        let mut last = f64::INFINITY;
        for _ in 0..BISECT_STEPS {
            let (g, slope) = self.log_excess(f, ln_level);
            if g == 0.0 {
                return f;
            }
            if g > 0.0 {
                a = f;
            } else {
                b = f;
            }
            let next = f * (-g / slope).exp();
            if a <= next && next <= b {
                let step = (next - f).abs();
                if step <= tol * f || step >= last {
                    return next;
                }
                last = step;
                f = next;
            } else {
                f = (a * b).sqrt();
                if b - a <= tol * b {
                    return f;
                }
            }
        }
        f
    }

    /// `g = ln|H(s)| − ln_level` at `s = j·2πf`, and its slope
    /// `dg/d ln f = Re(s·(N′/N − D′/D))`, from one Horner pass per
    /// polynomial that carries the value and the derivative together.
    fn log_excess(&self, f_hz: f64, ln_level: f64) -> (f64, f64) {
        let s = Complex::new(0.0, 2.0 * std::f64::consts::PI * f_hz);
        let horner = |p: &Poly| {
            let (mut v, mut dv) = (Complex::ZERO, Complex::ZERO);
            for &c in p.coeffs().iter().rev() {
                dv = dv * s + v;
                v = v * s + c;
            }
            (v, dv)
        };
        let (n, dn) = horner(&self.num);
        let (d, dd) = horner(&self.den);
        let g = n.norm().ln() - d.norm().ln() - ln_level;
        (g, (s * (dn / n - dd / d)).re)
    }

    /// Oracle for [`Tf::magnitude_crossing`]: the serial scan of the same
    /// grid, each decision a `hypot` magnitude compared with `level`, and
    /// a full 60-step geometric bisection of the bracket it finds. Tests
    /// pin the fast search's bracket to it bit for bit and its refined
    /// crossing to the bisected one within a tolerance.
    pub fn magnitude_crossing_reference(&self, f_lo: f64, f_hi: f64, level: f64) -> Option<f64> {
        with_log_grid(f_lo, f_hi, |grid| {
            let mut prev_f = grid[0];
            if self.magnitude(prev_f) <= level {
                return Some(prev_f);
            }
            for &f in &grid[1..] {
                if self.magnitude(f) <= level {
                    // Bisect between prev_f and f.
                    let (mut a, mut b) = (prev_f, f);
                    for _ in 0..BISECT_STEPS {
                        let mid = (a * b).sqrt();
                        if self.magnitude(mid) > level {
                            a = mid;
                        } else {
                            b = mid;
                        }
                    }
                    return Some((a * b).sqrt());
                }
                prev_f = f;
            }
            None
        })
    }

    /// −3 dB bandwidth relative to the DC gain.
    pub fn f3db(&self, f_lo: f64, f_hi: f64) -> Option<f64> {
        let a0 = self.magnitude(f_lo);
        self.magnitude_crossing(f_lo, f_hi, a0 / 2.0_f64.sqrt())
    }

    /// Phase margin in degrees: `180°` minus the phase lag accumulated
    /// between `f_lo` and the unity crossing.
    ///
    /// Referencing the lag to the low-frequency phase makes the result
    /// meaningful for inverting and non-inverting amplifiers alike; the
    /// phases themselves come from the pole/zero decomposition (exact, no
    /// unwrapping ambiguity).
    pub fn phase_margin_deg(&self, f_lo: f64, f_hi: f64) -> Option<f64> {
        let fu = self.unity_gain_freq(f_lo, f_hi)?;
        let lag = self.phase_exact_deg(f_lo) - self.phase_exact_deg(fu);
        Some(180.0 - lag)
    }

    /// Exact accumulated phase at `f` from poles/zeros (degrees), counting
    /// each LHP pole's contribution in `(−90°, 0°]` etc. — immune to
    /// principal-value wrapping.
    pub fn phase_exact_deg(&self, f_hz: f64) -> f64 {
        let w = 2.0 * std::f64::consts::PI * f_hz;
        let jw = Complex::new(0.0, w);
        // `0.0 - x` instead of `-x` keeps real-axis roots on the +0 branch
        // of atan2 (negating +0.0 yields −0.0, which flips the angle sign).
        let neg = |r: Complex| Complex::new(0.0 - r.re, 0.0 - r.im);
        let mut phase = if self.dc_gain() < 0.0 { 180.0 } else { 0.0 };
        for &z in self.zeros_cached() {
            phase += (jw - z).arg().to_degrees() - neg(z).arg().to_degrees();
        }
        for &p in self.poles_cached() {
            phase -= (jw - p).arg().to_degrees() - neg(p).arg().to_degrees();
        }
        phase
    }

    /// Computes the full characteristics summary over `[f_lo, f_hi]`.
    pub fn characteristics(&self, f_lo: f64, f_hi: f64) -> AcCharacteristics {
        let a0 = self.dc_gain();
        let f3db = self.f3db(f_lo, f_hi);
        let unity = self.unity_gain_freq(f_lo, f_hi);
        AcCharacteristics {
            dc_gain: a0,
            dc_gain_db: 20.0 * a0.abs().max(1e-300).log10(),
            f3db,
            unity_freq: unity,
            phase_margin_deg: unity
                .map(|fu| 180.0 - (self.phase_exact_deg(f_lo) - self.phase_exact_deg(fu))),
            gbw: f3db.map(|f| a0.abs() * f),
            poles: self.poles(),
            zeros: self.zeros(),
        }
    }
}

impl fmt::Display for Tf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}) / ({})", self.num, self.den)
    }
}

/// Whether every complex root in `roots` has its own partner within
/// `1e-9·(1 + |r|)` of its conjugate `r̄`.
fn conjugate_closed(roots: &[Complex]) -> bool {
    let mut paired = vec![false; roots.len()];
    for (i, &r) in roots.iter().enumerate() {
        if r.im == 0.0 || paired[i] {
            continue;
        }
        paired[i] = true;
        let tol = 1e-9 * (1.0 + r.norm());
        match (0..roots.len()).find(|&j| !paired[j] && (roots[j] - r.conj()).norm() <= tol) {
            Some(j) => paired[j] = true,
            None => return false,
        }
    }
    true
}

/// Evaluation cap of the crossing refinement, and the step count of the
/// reference's bisection.
const BISECT_STEPS: usize = 60;

/// Points in the magnitude-scan log grid: about 15 per decade over the
/// hybrid evaluator's 1e4–5e10 Hz window. The refinement needs only a
/// bracket, so a finer grid changes a result only where `|H|` dips below
/// the level and back between two points of this one.
const GRID_POINTS: usize = 100;

thread_local! {
    /// Memo of recently used scan grids, keyed by the exact endpoint
    /// bits. Evaluators sweep the same `[f_lo, f_hi]` window thousands of
    /// times; `logspace` is deterministic, so a memoized grid is
    /// bit-identical to a fresh one.
    static LOG_GRIDS: RefCell<Vec<(u64, u64, Vec<f64>)>> = const { RefCell::new(Vec::new()) };
}

/// Runs `body` with the (possibly memoized) `GRID_POINTS`-point log grid
/// over `[f_lo, f_hi]`.
fn with_log_grid<R>(f_lo: f64, f_hi: f64, body: impl FnOnce(&[f64]) -> R) -> R {
    let key = (f_lo.to_bits(), f_hi.to_bits());
    LOG_GRIDS.with(|cell| {
        let mut grids = cell.borrow_mut();
        if let Some(g) = grids.iter().find(|&&(a, b, _)| (a, b) == key) {
            return body(&g.2);
        }
        // Bound the memo; evaluation loops use a handful of windows.
        if grids.len() >= 8 {
            grids.remove(0);
        }
        grids.push((key.0, key.1, logspace(f_lo, f_hi, GRID_POINTS)));
        body(&grids.last().expect("just pushed").2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_pole_amp() -> Tf {
        // A0 = 1000, pole at 1 kHz → GBW = 1 MHz
        Tf::single_pole(1000.0, 2.0 * std::f64::consts::PI * 1e3)
    }

    #[test]
    fn dc_gain_and_poles() {
        let h = single_pole_amp();
        assert!((h.dc_gain() - 1000.0).abs() < 1e-9);
        let p = h.poles();
        assert_eq!(p.len(), 1);
        assert!((p[0].re + 2.0 * std::f64::consts::PI * 1e3).abs() < 1.0);
    }

    #[test]
    fn unity_gain_at_gbw() {
        let h = single_pole_amp();
        let fu = h.unity_gain_freq(1.0, 1e9).unwrap();
        assert!((fu - 1e6).abs() < 2e3, "fu = {fu}");
    }

    #[test]
    fn phase_margin_of_single_pole_is_90() {
        let h = single_pole_amp();
        let pm = h.phase_margin_deg(1.0, 1e9).unwrap();
        assert!((pm - 90.0).abs() < 1.0, "pm = {pm}");
    }

    #[test]
    fn two_pole_phase_margin() {
        // A0=1000, p1=1kHz, p2=1MHz = GBW: classic ~51.8° margin point.
        let p1 = Tf::single_pole(1000.0, 2.0 * std::f64::consts::PI * 1e3);
        let p2 = Tf::single_pole(1.0, 2.0 * std::f64::consts::PI * 1e6);
        let h = Tf::new(p1.num() * p2.num(), p1.den() * p2.den());
        let pm = h.phase_margin_deg(1.0, 1e10).unwrap();
        assert!(pm > 45.0 && pm < 60.0, "pm = {pm}");
    }

    #[test]
    fn f3db_of_lowpass() {
        let h = single_pole_amp();
        let f = h.f3db(1.0, 1e9).unwrap();
        assert!((f - 1e3).abs() < 10.0, "f3db = {f}");
        let ch = h.characteristics(1.0, 1e9);
        let gbw = ch.gbw.unwrap();
        assert!((gbw - 1e6).abs() < 2e4, "gbw = {gbw}");
    }

    #[test]
    fn rhp_zero_degrades_phase() {
        // H = (1 - s/z)/(1 + s/p): RHP zero adds phase lag.
        let z = 2.0 * std::f64::consts::PI * 1e6;
        let p = 2.0 * std::f64::consts::PI * 1e3;
        let h = Tf::new(
            Poly::new(vec![1000.0, -1000.0 / z]),
            Poly::new(vec![1.0, 1.0 / p]),
        );
        let ph = h.phase_exact_deg(1e6);
        // pole contributes ≈ −90, RHP zero ≈ −45 at f = z.
        assert!(ph < -120.0, "phase = {ph}");
    }

    #[test]
    fn cancel_common_roots_removes_pairs() {
        // (s+10)(s+1) / (s+10)(s+2) → (s+1)/(s+2)
        let num = Poly::from_roots(&[-10.0, -1.0]);
        let den = Poly::from_roots(&[-10.0, -2.0]);
        let h = Tf::new(num, den).cancel_common_roots(1e-9);
        assert_eq!(h.poles().len(), 1);
        assert_eq!(h.zeros().len(), 1);
        assert!((h.dc_gain() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn magnitude_crossing_none_when_flat() {
        let h = Tf::constant(0.5);
        assert!(h.unity_gain_freq(1.0, 1e9).is_some()); // already below 1 at f_lo
        let h2 = Tf::constant(2.0);
        assert!(h2.unity_gain_freq(1.0, 1e9).is_none());
    }

    #[test]
    fn eval_matches_manual() {
        let h = Tf::new(Poly::new(vec![0.0, 1.0]), Poly::new(vec![1.0, 1.0]));
        // H(s) = s/(1+s) at s = j: j/(1+j) → |H| = 1/√2
        let v = h.eval(Complex::I);
        assert!((v.norm() - 1.0 / 2.0_f64.sqrt()).abs() < 1e-12);
    }
}
