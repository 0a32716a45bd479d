//! Property-based tests on the numerical core: invariants that must hold
//! for arbitrary well-conditioned inputs.

use adc_numerics::complex::Complex;
use adc_numerics::fft::{fft_in_place, fft_real, ifft_in_place};
use adc_numerics::linalg::Matrix;
use adc_numerics::poly::Poly;
use adc_numerics::roots::{poly_roots, poly_roots_reference, sort_roots};
use proptest::prelude::*;

/// `x` moved by `k` representable values (toward +∞ for `k > 0` on
/// positive `x`); `x` itself for non-finite inputs.
fn step_ulps(x: f64, k: i64) -> f64 {
    if !x.is_finite() || x == 0.0 {
        return x;
    }
    let bits = x.to_bits() as i64 + if x > 0.0 { k } else { -k };
    f64::from_bits(bits as u64)
}

proptest! {
    /// Building a polynomial from roots and re-extracting them round-trips.
    #[test]
    fn poly_roots_round_trip(mut roots in proptest::collection::vec(-50.0f64..50.0, 1..6)) {
        // Keep roots separated so multiplicity doesn't blur accuracy.
        roots.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assume!(roots.windows(2).all(|w| (w[1] - w[0]).abs() > 0.5));
        let p = Poly::from_roots(&roots);
        let got = sort_roots(p.roots());
        prop_assert_eq!(got.len(), roots.len());
        for (g, w) in got.iter().zip(roots.iter()) {
            prop_assert!((g.re - w).abs() < 1e-4 * (1.0 + w.abs()), "{} vs {}", g.re, w);
            prop_assert!(g.im.abs() < 1e-4 * (1.0 + w.abs()));
        }
    }

    /// Polynomial multiplication then division round-trips.
    #[test]
    fn poly_mul_div_round_trip(
        a in proptest::collection::vec(-5.0f64..5.0, 1..5),
        b in proptest::collection::vec(-5.0f64..5.0, 2..5),
    ) {
        let pa = Poly::new(a);
        let pb = Poly::new(b);
        prop_assume!(!pa.is_zero() && !pb.is_zero());
        prop_assume!(pb.leading().abs() > 0.1);
        let prod = &pa * &pb;
        let (q, r) = prod.div_rem(&pb);
        for k in 0..=q.degree().unwrap_or(0).max(pa.degree().unwrap_or(0)) {
            prop_assert!((q.coeff(k) - pa.coeff(k)).abs() < 1e-6 * (1.0 + pa.coeff(k).abs()));
        }
        prop_assert!(r.coeff_norm() < 1e-6 * (1.0 + prod.coeff_norm()));
    }

    /// Horner evaluation is linear: (p+q)(x) = p(x) + q(x).
    #[test]
    fn poly_eval_linearity(
        a in proptest::collection::vec(-5.0f64..5.0, 1..6),
        b in proptest::collection::vec(-5.0f64..5.0, 1..6),
        x in -3.0f64..3.0,
    ) {
        let pa = Poly::new(a);
        let pb = Poly::new(b);
        let sum = &pa + &pb;
        prop_assert!((sum.eval(x) - (pa.eval(x) + pb.eval(x))).abs() < 1e-9);
    }

    /// FFT then inverse FFT reproduces the signal.
    #[test]
    fn fft_inverse_round_trip(sig in proptest::collection::vec(-10.0f64..10.0, 1..5)) {
        // Pad to 64 points.
        let mut data: Vec<Complex> = sig.iter().map(|&x| Complex::from_real(x)).collect();
        data.resize(64, Complex::ZERO);
        let orig = data.clone();
        fft_in_place(&mut data);
        ifft_in_place(&mut data);
        for (a, b) in data.iter().zip(orig.iter()) {
            prop_assert!((*a - *b).norm() < 1e-9);
        }
    }

    /// Parseval: time-domain and frequency-domain energies agree.
    #[test]
    fn fft_parseval(sig in proptest::collection::vec(-10.0f64..10.0, 32..33)) {
        let mut padded = sig.clone();
        padded.resize(32, 0.0);
        let te: f64 = padded.iter().map(|x| x * x).sum();
        let spec = fft_real(&padded);
        let fe: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / 32.0;
        prop_assert!((te - fe).abs() < 1e-6 * (1.0 + te));
    }

    /// LU solve leaves a small residual for diagonally dominant systems.
    #[test]
    fn lu_solve_residual(
        vals in proptest::collection::vec(-1.0f64..1.0, 16..17),
        rhs in proptest::collection::vec(-5.0f64..5.0, 4..5),
    ) {
        let n = 4;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = vals[i * n + j];
            }
            a[(i, i)] += 4.0; // diagonal dominance → well-conditioned
        }
        let x = a.solve(&rhs).unwrap();
        let back = a.mul_vec(&x);
        for (bi, ri) in back.iter().zip(rhs.iter()) {
            prop_assert!((bi - ri).abs() < 1e-9);
        }
    }

    /// det(A·B) = det(A)·det(B) for small matrices.
    #[test]
    fn det_multiplicative(
        va in proptest::collection::vec(-2.0f64..2.0, 9..10),
        vb in proptest::collection::vec(-2.0f64..2.0, 9..10),
    ) {
        let mk = |v: &[f64]| {
            let mut m = Matrix::zeros(3, 3);
            for i in 0..3 {
                for j in 0..3 {
                    m[(i, j)] = v[i * 3 + j];
                }
            }
            m
        };
        let a = mk(&va);
        let b = mk(&vb);
        let lhs = a.mul_mat(&b).det();
        let rhs = a.det() * b.det();
        prop_assert!((lhs - rhs).abs() < 1e-8 * (1.0 + rhs.abs()));
    }

    /// Complex arithmetic: division inverts multiplication.
    #[test]
    fn complex_div_inverts_mul(re1 in -10.0f64..10.0, im1 in -10.0f64..10.0,
                               re2 in -10.0f64..10.0, im2 in -10.0f64..10.0) {
        let a = Complex::new(re1, im1);
        let b = Complex::new(re2, im2);
        prop_assume!(b.norm() > 1e-3);
        let q = a * b / b;
        prop_assert!((q - a).norm() < 1e-10 * (1.0 + a.norm()));
    }
}

/// Builds an MNA-shaped random sparse system: strictly diagonally bumped
/// node block plus a few ±1 "branch" couplings with structurally zero
/// diagonals, the exact shape the circuit simulator produces.
fn random_mna_triplets(
    n: usize,
    branches: usize,
    offdiag: &[(usize, usize, f64)],
) -> Vec<(usize, usize, f64)> {
    let nodes = n - branches;
    let mut trips: Vec<(usize, usize, f64)> = Vec::new();
    for i in 0..nodes {
        trips.push((i, i, 1.0)); // conductance floor
    }
    for (k, &(r, c, g)) in offdiag.iter().enumerate() {
        let (r, c) = (r % nodes, c % nodes);
        if r != c {
            // Symmetric conductance stamp.
            trips.push((r, r, g.abs()));
            trips.push((c, c, g.abs()));
            trips.push((r, c, -g.abs()));
            trips.push((c, r, -g.abs()));
        } else {
            trips.push((r, r, g.abs() + 0.1 * k as f64));
        }
    }
    for bidx in 0..branches {
        let br = nodes + bidx;
        let node = bidx % nodes;
        trips.push((node, br, 1.0));
        trips.push((br, node, 1.0));
    }
    trips
}

proptest! {
    /// Sparse LU with the reusable symbolic factorization agrees with the
    /// dense partial-pivoting oracle on solve and determinant across
    /// random MNA-shaped systems.
    #[test]
    fn sparse_lu_matches_dense_oracle(
        offdiag in proptest::collection::vec((0usize..12, 0usize..12, 0.1f64..10.0), 4..20),
        branches in 1usize..4,
        bvals in proptest::collection::vec(-2.0f64..2.0, 16),
    ) {
        use adc_numerics::sparse::{CsrMatrix, CsrPattern, SparseLu, Symbolic};
        let n = 12 + branches;
        let trips = random_mna_triplets(n, branches, &offdiag);
        let entries: Vec<(usize, usize)> = trips.iter().map(|&(r, c, _)| (r, c)).collect();
        let (pat, slots) = CsrPattern::from_entries(n, &entries);
        let mut a = CsrMatrix::zeros(pat.clone());
        for (&s, &(_, _, v)) in slots.iter().zip(trips.iter()) {
            a.add_slot(s, v);
        }
        let sym = Symbolic::analyze(&pat).unwrap();
        let mut lu = SparseLu::new(sym);
        lu.factor_into(&a).unwrap();
        let b = &bvals[..n];
        let mut x = vec![0.0; n];
        lu.solve_into(b, &mut x);
        let dense = a.to_dense();
        let xd = dense.solve(b).unwrap();
        for (xs, xr) in x.iter().zip(xd.iter()) {
            prop_assert!((xs - xr).abs() <= 1e-9 * xr.abs().max(1.0), "{} vs {}", xs, xr);
        }
        let (ds, dd) = (lu.det(), dense.det());
        prop_assert!((ds - dd).abs() <= 1e-8 * dd.abs().max(1e-300), "{} vs {}", ds, dd);
    }

    /// The complex sparse LU agrees with the dense complex oracle: same
    /// pattern, complex values (the `g + s·C` shape TF sampling factors).
    #[test]
    fn complex_sparse_lu_matches_dense_oracle(
        offdiag in proptest::collection::vec((0usize..10, 0usize..10, 0.1f64..10.0), 4..16),
        omega in 0.01f64..100.0,
        bvals in proptest::collection::vec(-2.0f64..2.0, 12),
    ) {
        use adc_numerics::sparse::{CsrMatrix, CsrPattern, SparseLu, Symbolic};
        let branches = 2;
        let n = 10 + branches;
        let trips = random_mna_triplets(n, branches, &offdiag);
        let entries: Vec<(usize, usize)> = trips.iter().map(|&(r, c, _)| (r, c)).collect();
        let (pat, slots) = CsrPattern::from_entries(n, &entries);
        let mut a = CsrMatrix::zeros(pat.clone());
        for (&s, &(_, _, v)) in slots.iter().zip(trips.iter()) {
            // Real conductance plus jω·C-style imaginary part on diagonals.
            a.add_slot(s, Complex::new(v, if v > 0.0 { omega * 1e-2 } else { 0.0 }));
        }
        let sym = Symbolic::analyze(&pat).unwrap();
        let mut lu = SparseLu::new(sym);
        lu.factor_into(&a).unwrap();
        let b: Vec<Complex> = bvals[..n].iter().map(|&v| Complex::new(v, -v)).collect();
        let mut x = vec![Complex::ZERO; n];
        lu.solve_into(&b, &mut x);
        let dense = a.to_dense();
        let xd = dense.solve(&b).unwrap();
        for (xs, xr) in x.iter().zip(xd.iter()) {
            prop_assert!((*xs - *xr).norm() <= 1e-9 * xr.norm().max(1.0), "{:?} vs {:?}", xs, xr);
        }
        let (ds, dd) = (lu.det(), dense.det());
        prop_assert!((ds - dd).norm() <= 1e-8 * dd.norm().max(1e-300), "{:?} vs {:?}", ds, dd);
    }

    /// Refactoring retuned values reuses the frozen symbolic factorization
    /// (same `Arc`, no reallocation) and still matches the dense oracle.
    #[test]
    fn sparse_refactor_reuses_symbolic(
        offdiag in proptest::collection::vec((0usize..8, 0usize..8, 0.1f64..10.0), 4..12),
        scales in proptest::collection::vec(0.25f64..4.0, 3),
    ) {
        use adc_numerics::sparse::{CsrMatrix, CsrPattern, SparseLu, Symbolic};
        use std::sync::Arc;
        let n = 10;
        let trips = random_mna_triplets(n, 2, &offdiag);
        let entries: Vec<(usize, usize)> = trips.iter().map(|&(r, c, _)| (r, c)).collect();
        let (pat, slots) = CsrPattern::from_entries(n, &entries);
        let sym = Symbolic::analyze(&pat).unwrap();
        let mut lu = SparseLu::new(Arc::clone(&sym));
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        for &scale in &scales {
            // "Retune": same pattern, rescaled conductances.
            let mut a = CsrMatrix::zeros(pat.clone());
            for (&s, &(_, _, v)) in slots.iter().zip(trips.iter()) {
                a.add_slot(s, v * scale);
            }
            lu.factor_into(&a).unwrap();
            prop_assert!(Arc::ptr_eq(lu.symbolic(), &sym), "symbolic must be reused");
            let mut x = vec![0.0; n];
            lu.solve_into(&b, &mut x);
            let xd = a.to_dense().solve(&b).unwrap();
            for (xs, xr) in x.iter().zip(xd.iter()) {
                prop_assert!((xs - xr).abs() <= 1e-9 * xr.abs().max(1.0), "{} vs {}", xs, xr);
            }
        }
    }
}

/// Bitwise equality helper for complex slices (property tests below pin
/// the SIMD dispatch to the scalar oracle bit-for-bit, not approximately).
fn assert_bits_eq(a: &[Complex], b: &[Complex]) -> proptest::CaseResult {
    for (x, y) in a.iter().zip(b) {
        prop_assert_eq!(x.re.to_bits(), y.re.to_bits(), "{:?} vs {:?}", x, y);
        prop_assert_eq!(x.im.to_bits(), y.im.to_bits(), "{:?} vs {:?}", x, y);
    }
    Ok(())
}

proptest! {
    /// The dispatched scatter/axpy kernels equal their scalar oracles
    /// bit-for-bit on random slot/value sets — unaligned lengths,
    /// duplicate slots, and subnormal values included. (On CPUs without
    /// SIMD, or under ADC_FORCE_SCALAR=1, both sides run the oracle and
    /// the test degenerates to a tautology — the CI matrix runs both.)
    #[test]
    fn scatter_axpy_kernels_match_scalar_oracles_bitwise(
        vals in proptest::collection::vec(
            prop_oneof![4 => -10.0f64..10.0, 1 => Just(1e-310), 1 => Just(-3.0e-312)],
            1..39,
        ),
        slots in proptest::collection::vec(0usize..24, 1..39),
        fre in -4.0f64..4.0,
        fim in -4.0f64..4.0,
    ) {
        use adc_numerics::simd;
        let k = vals.len().min(slots.len());
        let f = Complex::new(fre, fim);

        // Complex scaled scatter with duplicate slots.
        let init: Vec<Complex> = (0..24).map(|i| Complex::new(0.1 * i as f64, -0.2)).collect();
        let (mut a, mut b) = (init.clone(), init);
        simd::scatter_add_scaled(&mut a, &slots[..k], &vals[..k], f);
        simd::scatter_add_scaled_scalar(&mut b, &slots[..k], &vals[..k], f);
        assert_bits_eq(&a, &b)?;

        // Dense row updates at an unaligned length.
        let mut d1: Vec<f64> = (0..vals.len()).map(|i| 0.3 * i as f64 - 1.0).collect();
        let mut d2 = d1.clone();
        simd::axpy_sub(&mut d1, &vals, fre);
        simd::axpy_sub_scalar(&mut d2, &vals, fre);
        for (x, y) in d1.iter().zip(&d2) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        let csrc: Vec<Complex> = vals.iter().map(|&v| Complex::new(v, 0.5 - v)).collect();
        let mut c1: Vec<Complex> = (0..vals.len()).map(|i| Complex::new(1.0, i as f64)).collect();
        let mut c2 = c1.clone();
        simd::caxpy_sub(&mut c1, &csrc, f);
        simd::caxpy_sub_scalar(&mut c2, &csrc, f);
        assert_bits_eq(&c1, &c2)?;
    }

    /// The split re/im lane Smith division equals its scalar oracle
    /// bit-for-bit at unaligned lane counts, subnormal numerators included.
    #[test]
    fn lane_split_kernels_match_scalar_oracles_bitwise(
        are in proptest::collection::vec(
            prop_oneof![4 => -10.0f64..10.0, 1 => Just(2e-311)], 1..19),
        shift in 0.0f64..1.0,
    ) {
        use adc_numerics::simd;
        let n = are.len();
        let aim: Vec<f64> = are.iter().map(|&v| 0.7 - v).collect();
        let bre: Vec<f64> = (0..n).map(|i| 0.1 + 0.37 * ((i as f64) + shift)).collect();
        let bim: Vec<f64> = (0..n).map(|i| -2.0 + 0.19 * i as f64).collect();
        let (mut qr1, mut qi1): (Vec<f64>, Vec<f64>) = (vec![0.0; n], vec![0.0; n]);
        let (mut qr2, mut qi2) = (qr1.clone(), qi1.clone());
        simd::lane_cdiv(&mut qr1, &mut qi1, &are, &aim, &bre, &bim);
        simd::lane_cdiv_scalar(&mut qr2, &mut qi2, &are, &aim, &bre, &bim);
        for (x, y) in qr1.iter().chain(&qi1).zip(qr2.iter().chain(&qi2)) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The batched assembly kernel equals its scalar oracle bit-for-bit:
    /// random base values, duplicate cap slots, subnormal cap values, and
    /// every lane width 1..=MAX_LANES.
    #[test]
    fn lane_assemble_matches_scalar_oracle_bitwise(
        base_vals in proptest::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 6..20),
        cap_sel in proptest::collection::vec(0usize..64, 1..10),
        cap_mag in prop_oneof![3 => 1e-13f64..1e-11, 1 => Just(4e-310)],
        lanes in 1usize..9,
        sm in 0.5f64..2.0,
    ) {
        use adc_numerics::simd;
        let nnz = base_vals.len() + 2; // two fill-in positions
        let base: Vec<Complex> = base_vals.iter().map(|&(r, i)| Complex::new(r, i)).collect();
        // Injective base scatter (reversed order exercises non-monotonic
        // stores); two trailing factor positions are fill-ins.
        let scatter: Vec<usize> = (0..base.len()).rev().collect();
        let fill_pos = vec![base.len(), base.len() + 1];
        // Cap slots index into `scatter` and may repeat (accumulation
        // order is part of the contract).
        let cap_slots: Vec<usize> = cap_sel.iter().map(|&s| s % base.len()).collect();
        let cap_vals: Vec<f64> = cap_slots.iter().enumerate()
            .map(|(i, _)| cap_mag * (1.0 + i as f64)).collect();
        let s_re: Vec<f64> = (0..lanes).map(|l| sm * (1.0 + 0.1 * l as f64)).collect();
        let s_im: Vec<f64> = (0..lanes).map(|l| -sm * (0.3 + 0.2 * l as f64)).collect();
        let mut f1 = vec![7.5f64; nnz * lanes]; // stale garbage must be overwritten
        let mut g1 = vec![-7.5f64; nnz * lanes];
        let (mut f2, mut g2) = (f1.clone(), g1.clone());
        simd::lane_assemble(&mut f1, &mut g1, &base, &scatter, &fill_pos,
                            &cap_slots, &cap_vals, &s_re, &s_im, lanes);
        simd::lane_assemble_scalar(&mut f2, &mut g2, &base, &scatter, &fill_pos,
                                   &cap_slots, &cap_vals, &s_re, &s_im, lanes);
        for (x, y) in f1.iter().chain(&g1).zip(f2.iter().chain(&g2)) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The batched rational level test equals its scalar oracle and the
    /// serial `hypot` comparison `|num(jω)/den(jω)| <= level` at
    /// unaligned point counts, subnormal coefficients included, with
    /// levels a few ulp either side of a sampled magnitude.
    #[test]
    fn rational_le_matches_scalar_and_serial_oracles(
        num in proptest::collection::vec(
            prop_oneof![4 => -100.0f64..100.0, 1 => Just(6e-309)], 0..8),
        den in proptest::collection::vec(-100.0f64..100.0, 1..10),
        fexp in proptest::collection::vec(0.0f64..9.0, 1..23),
        pick in 0usize..64,
        ulps in -8i64..=8,
    ) {
        use adc_numerics::simd;
        let freqs: Vec<f64> = fexp.iter().map(|&e| 10.0f64.powf(e)).collect();
        let horner = |c: &[f64], z: Complex| c.iter().rev().fold(Complex::ZERO, |acc, &c| acc * z + c);
        let mags: Vec<f64> = freqs
            .iter()
            .map(|&f| {
                let z = Complex::new(0.0, 2.0 * std::f64::consts::PI * f);
                (horner(&num, z) / horner(&den, z)).norm()
            })
            .collect();
        let sampled = mags[pick % mags.len()];
        for level in [sampled, step_ulps(sampled, ulps), 1.0] {
            let mut fast = vec![false; freqs.len()];
            let mut scalar = vec![true; freqs.len()];
            simd::rational_le(&num, &den, &freqs, level, &mut fast);
            simd::rational_le_scalar(&num, &den, &freqs, level, &mut scalar);
            let serial: Vec<bool> = mags.iter().map(|&m| m <= level).collect();
            prop_assert_eq!(&fast, &serial, "level {:e} num {:?} den {:?}", level, &num, &den);
            prop_assert_eq!(&scalar, &serial, "level {:e} num {:?} den {:?}", level, &num, &den);
        }
    }

    /// End-to-end: the batched SoA complex LU (assemble, schedule-driven
    /// factor, forward/backward solve, determinant) is bit-identical to
    /// the serial per-sample factor/solve/det loop on random MNA-shaped
    /// systems with random cap subsets, at every width 1..=MAX_LANES.
    #[test]
    fn batched_complex_lu_matches_serial_bitwise(
        offdiag in proptest::collection::vec((0usize..10, 0usize..10, 0.1f64..10.0), 4..16),
        cap_sel in proptest::collection::vec((0usize..10, 1e-13f64..1e-11), 1..6),
        smag in proptest::collection::vec(1e0f64..1e10, 1..9),
        bvals in proptest::collection::vec(-2.0f64..2.0, 12),
    ) {
        use adc_numerics::simd;
        use adc_numerics::sparse::{CSparseLuBatch, CsrMatrix, CsrPattern, SparseLu, Symbolic};
        use std::sync::Arc;
        let branches = 2;
        let n = 10 + branches;
        let trips = random_mna_triplets(n, branches, &offdiag);
        // Cap entries on node diagonals, appended after the base entries.
        let caps: Vec<(usize, usize, f64)> =
            cap_sel.iter().map(|&(r, c)| (r % (n - branches), r % (n - branches), c)).collect();
        let mut entries: Vec<(usize, usize)> = trips.iter().map(|&(r, c, _)| (r, c)).collect();
        entries.extend(caps.iter().map(|&(r, c, _)| (r, c)));
        let (pat, slots) = CsrPattern::from_entries(n, &entries);
        let (base_slots, cap_slots) = slots.split_at(trips.len());
        let mut base_vals = vec![Complex::ZERO; pat.nnz()];
        for (&s, &(_, _, g)) in base_slots.iter().zip(trips.iter()) {
            base_vals[s] += Complex::from_real(g);
        }
        let cap_vals: Vec<f64> = caps.iter().map(|&(_, _, c)| c).collect();
        let s_list: Vec<Complex> = smag.iter().enumerate()
            .map(|(i, &m)| Complex::from_polar(m, 0.2 + 0.4 * i as f64)).collect();
        let k = s_list.len();
        let b: Vec<Complex> = bvals[..n].iter().map(|&v| Complex::new(v, 0.5 * v)).collect();

        let sym = Symbolic::analyze(&pat).unwrap();
        let mut batch = CSparseLuBatch::new(Arc::clone(&sym));
        let batch_res = batch.factor_scaled(&base_vals, cap_slots, &cap_vals, &s_list);

        // Serial reference: assemble + factor + solve + det per sample.
        let mut y = CsrMatrix::zeros(Arc::clone(&pat));
        let mut lu = SparseLu::new(Arc::clone(&sym));
        let mut serial_x = vec![Complex::ZERO; k * n];
        let mut serial_det = vec![Complex::ZERO; k];
        let mut serial_err = None;
        for (l, &s) in s_list.iter().enumerate() {
            y.values_mut().copy_from_slice(&base_vals);
            simd::scatter_add_scaled(y.values_mut(), cap_slots, &cap_vals, s);
            match lu.factor_into(&y) {
                Ok(()) => {
                    lu.solve_into(&b, &mut serial_x[l * n..(l + 1) * n]);
                    serial_det[l] = lu.det();
                }
                Err(e) => {
                    serial_err = Some(e);
                    break;
                }
            }
        }
        match (batch_res, serial_err) {
            (Err(_), Some(_)) => return Ok(()), // both reject the batch
            (Err(e), None) => prop_assert!(false, "batch-only failure: {e}"),
            (Ok(()), Some(e)) => prop_assert!(false, "serial-only failure: {e}"),
            (Ok(()), None) => {}
        }
        let mut xs = vec![Complex::ZERO; k * n];
        let mut dets = vec![Complex::ZERO; k];
        batch.solve_into(&b, &mut xs);
        batch.det_into(&mut dets);
        assert_bits_eq(&xs, &serial_x)?;
        assert_bits_eq(&dets, &serial_det)?;
    }
}

/// Random MNA-shaped sparsity pattern of dimension `n` drawn from `seed`:
/// node rows with conductance diagonals, a ladder of couplings plus random
/// symmetric (conductance) and one-sided (controlled-source) couplings,
/// and branch rows with ±1 incidences and structurally zero diagonals.
/// With `singular`, the pattern is made structurally singular: a row or a
/// column is emptied, or two rows are reduced to the same single column.
fn random_mna_pattern(n: usize, seed: u64, singular: bool) -> Vec<(usize, usize)> {
    let mut state = seed | 1;
    let mut next = move |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let branches = if n > 2 { next(n / 4 + 1) } else { 0 };
    let nodes = n - branches;
    let mut entries: Vec<(usize, usize)> = (0..nodes).map(|i| (i, i)).collect();
    for i in 1..nodes {
        if next(4) != 0 {
            entries.extend([(i - 1, i), (i, i - 1)]);
        }
    }
    for _ in 0..next(nodes + 1) {
        let (a, b) = (next(nodes), next(nodes));
        entries.extend([(a, b), (b, a)]);
    }
    for _ in 0..next(nodes / 2 + 1) {
        entries.push((next(nodes), next(nodes)));
    }
    for br in nodes..n {
        for _ in 0..1 + next(2) {
            let node = next(nodes);
            entries.extend([(node, br), (br, node)]);
        }
    }
    if singular {
        let (a, b) = (next(n), next(n));
        match next(3) {
            0 => entries.retain(|&(r, _)| r != a),
            1 => entries.retain(|&(_, c)| c != a),
            _ => {
                // n ≥ 2 here, so the offset 1..n keeps r2 ≠ r1.
                let (r1, r2) = (a, (a + 1 + b % (n - 1)) % n);
                entries.retain(|&(r, _)| r != r1 && r != r2);
                entries.extend([(r1, b), (r2, b)]);
            }
        }
    }
    entries
}

proptest! {
    /// The bitset Markowitz analysis reproduces the dense oracle on every
    /// field — both permutations, the determinant sign, the filled factor
    /// pattern (`f_row_ptr`/`f_col`/`f_diag`), the input scatter map and
    /// the elimination schedule — on random MNA-shaped patterns of
    /// dimension 1–200, and fails structurally singular ones at the same
    /// elimination step.
    #[test]
    fn bitset_analysis_matches_dense_oracle(
        n in 1usize..=200,
        seed in 0u64..u64::MAX,
        singular in proptest::bool::ANY,
    ) {
        use adc_numerics::sparse::{CsrPattern, Symbolic};
        let singular = singular && n > 1;
        let (pat, _) = CsrPattern::from_entries(n, &random_mna_pattern(n, seed, singular));
        match (Symbolic::analyze(&pat), Symbolic::analyze_reference(&pat)) {
            // `Symbolic: PartialEq` compares every field; the sign is ±1.0
            // exactly, so `==` on it is a bit comparison.
            (Ok(fast), Ok(oracle)) => prop_assert!(*fast == *oracle, "n {} seed {}", n, seed),
            (Err(fast), Err(oracle)) => prop_assert_eq!(fast, oracle),
            (fast, oracle) => prop_assert!(
                false,
                "n {} seed {}: bitset {:?} vs dense {:?}",
                n,
                seed,
                fast.map(|s| s.factor_nnz()),
                oracle.map(|s| s.factor_nnz())
            ),
        }
        if singular {
            prop_assert!(Symbolic::analyze(&pat).is_err(), "n {} seed {}", n, seed);
        }
    }
}

/// Xorshift stream for the seeded generators below.
struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `10^e` with `e` uniform in `[lo, hi)`.
    fn decade(&mut self, lo: f64, hi: f64) -> f64 {
        let u = self.unit();
        10f64.powf(lo + (hi - lo) * u)
    }

    fn sign(&mut self) -> f64 {
        if self.next() & 1 == 0 {
            1.0
        } else {
            -1.0
        }
    }
}

/// Random circuit-shaped polynomial of degree 1–12 drawn from `seed`.
/// Either a gain times a product of `(1 − s/r)` factors — real roots
/// spread over ten decades in both half-planes, repeated roots and
/// complex-conjugate pairs, the shape TF extraction yields — or free
/// coefficients with magnitudes from 1e-40 to 1e10. A third of the
/// polynomials then get exact zero coefficients (leading, trailing and
/// interior), and one in six a NaN or ±∞ coefficient.
fn random_circuit_poly(seed: u64) -> Vec<f64> {
    let mut rng = Xorshift(seed | 1);
    let degree = 1 + rng.below(12);
    let mut coeffs: Vec<f64> = if rng.below(2) == 0 {
        let mut roots: Vec<Complex> = Vec::new();
        while roots.len() < degree {
            let re = rng.sign() * rng.decade(0.0, 10.0);
            match rng.below(3) {
                0 => roots.push(Complex::from_real(re)),
                1 => roots.extend([Complex::from_real(re); 2]),
                _ => {
                    let im = re.abs() * rng.decade(-3.0, 2.0);
                    roots.extend([Complex::new(-re.abs(), im), Complex::new(-re.abs(), -im)]);
                }
            }
        }
        roots.truncate(degree);
        let mut c = vec![Complex::from_real(rng.sign() * rng.decade(-40.0, 10.0))];
        for r in roots {
            // c · (1 − s/r)
            let t = Complex::ONE / r;
            let mut next = c.clone();
            next.push(Complex::ZERO);
            for (k, &ck) in c.iter().enumerate() {
                next[k + 1] -= ck * t;
            }
            c = next;
        }
        c.into_iter().map(|z| z.re).collect()
    } else {
        (0..=degree)
            .map(|_| rng.sign() * rng.decade(-40.0, 10.0))
            .collect()
    };
    if rng.below(3) == 0 {
        for c in coeffs.iter_mut() {
            if rng.below(4) == 0 {
                *c = 0.0;
            }
        }
    }
    if rng.below(6) == 0 {
        let k = rng.below(coeffs.len());
        coeffs[k] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3)];
    }
    coeffs
}

proptest! {
    // Badly scaled polynomials run both iterations to their 200-sweep
    // cap; 2000 cases keep the root oracle test near half a second.
    #![proptest_config(ProptestConfig::with_cases(2000))]
    /// The exact-decision Aberth iteration returns the `hypot` oracle's
    /// roots bit for bit (NaN payloads included) on random circuit-shaped
    /// polynomials.
    #[test]
    fn poly_roots_match_hypot_oracle_bitwise(seed in 0u64..u64::MAX) {
        let coeffs = random_circuit_poly(seed);
        let (fast, oracle) = (poly_roots(&coeffs), poly_roots_reference(&coeffs));
        prop_assert_eq!(fast.len(), oracle.len(), "coeffs {:?}", &coeffs);
        for (x, y) in fast.iter().zip(&oracle) {
            prop_assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "coeffs {:?}: {:?} vs {:?}", &coeffs, x, y
            );
        }
    }

    /// `norm_le`/`norm_lt`/`norm_gt` equal the `hypot` comparisons on random parts
    /// and levels across the whole exponent range, with each level also
    /// nudged a few ulp around the exact norm.
    #[test]
    fn norm_level_tests_match_hypot_on_random_inputs(
        re_exp in -330.0f64..310.0,
        ratio_exp in -40.0f64..40.0,
        level_exp in -330.0f64..310.0,
        ulps in -8i64..=8,
        signs in 0u8..4,
    ) {
        let re = if signs & 1 == 0 { 10f64.powf(re_exp) } else { -(10f64.powf(re_exp)) };
        let im = if signs & 2 == 0 { re * 10f64.powf(ratio_exp) } else { -re * 10f64.powf(ratio_exp) };
        let z = Complex::new(re, im);
        for level in [10f64.powf(level_exp), z.norm(), step_ulps(z.norm(), ulps)] {
            prop_assert_eq!(z.norm_le(level), z.norm() <= level, "{:?} vs {:e}", z, level);
            prop_assert_eq!(z.norm_lt(level), z.norm() < level, "{:?} vs {:e}", z, level);
            prop_assert_eq!(z.norm_gt(level), z.norm() > level, "{:?} vs {:e}", z, level);
        }
    }
}

/// Random circuit transfer-function polynomial of the given degree drawn
/// from `seed`, with its roots: a gain times `(1 − s/p)` for real roots
/// and `(1 + s/(ω₀Q) + s²/ω₀²)` for complex pairs, moduli log-uniform over
/// 1e3–1e12 rad/s, Q uniform over 0.5–5, real roots in both half-planes.
fn spread_circuit_poly(degree: usize, seed: u64) -> (Vec<f64>, Vec<Complex>) {
    let mut rng = Xorshift(seed | 1);
    let mut coeffs = vec![rng.sign() * rng.decade(-3.0, 3.0)];
    let mut roots = Vec::new();
    let times = |coeffs: &mut Vec<f64>, factor: &[f64]| {
        let mut next = vec![0.0; coeffs.len() + factor.len() - 1];
        for (i, &a) in coeffs.iter().enumerate() {
            for (j, &b) in factor.iter().enumerate() {
                next[i + j] += a * b;
            }
        }
        *coeffs = next;
    };
    while roots.len() < degree {
        let w0 = rng.decade(3.0, 12.0);
        if degree - roots.len() >= 2 && rng.below(2) == 0 {
            let q = 0.5 + 4.5 * rng.unit();
            let (re, im) = (-w0 / (2.0 * q), w0 * (1.0 - 1.0 / (4.0 * q * q)).sqrt());
            roots.extend([Complex::new(re, im), Complex::new(re, -im)]);
            times(&mut coeffs, &[1.0, 1.0 / (w0 * q), 1.0 / (w0 * w0)]);
        } else {
            let p = rng.sign() * w0;
            roots.push(Complex::from_real(p));
            times(&mut coeffs, &[1.0, -1.0 / p]);
        }
    }
    (coeffs, roots)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]
    /// Roots spread over nine decades come back within 1e-9 relative at
    /// every degree 3–12, and bit for bit as the `hypot` oracle returns
    /// them. Guards the start circles: one circle between Cauchy's bounds
    /// overflows Horner's rule here from degree 10 and returns wrong roots.
    #[test]
    fn poly_roots_recover_widely_spread_circuit_roots(
        degree in 3usize..=12,
        seed in 0u64..u64::MAX,
    ) {
        let (coeffs, want) = spread_circuit_poly(degree, seed);
        let (got, oracle) = (poly_roots(&coeffs), poly_roots_reference(&coeffs));
        prop_assert_eq!(got.len(), degree, "coeffs {:?}", &coeffs);
        for (x, y) in got.iter().zip(&oracle) {
            prop_assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "coeffs {:?}: {:?} vs {:?}", &coeffs, x, y
            );
        }
        // Each true root claims the nearest root not yet claimed.
        let mut free = got.clone();
        for r in &want {
            let (k, err) = free
                .iter()
                .map(|z| (*z - *r).norm())
                .enumerate()
                .fold((0, f64::INFINITY), |best, (k, e)| if e < best.1 { (k, e) } else { best });
            prop_assert!(
                err <= 1e-9 * r.norm(),
                "degree {} root {:?}: error {:e}, got {:?}", degree, r, err / r.norm(), &got
            );
            free.swap_remove(k);
        }
    }
}

/// Random slice for the `max_norm` oracle test, drawn from `seed`: 1–64
/// entries whose magnitudes share a band of 0.5, 3 or 40 decades placed
/// anywhere from 1e-320 to 1e300 (or span all of it; one slice in eight
/// sits where the squares turn subnormal), on an axis or at a random
/// angle, or all on one circle. Then, each with its own chance: exact ties of the largest entry
/// (swapped or sign-flipped parts), entries of its norm at other angles,
/// copies of either with one or both parts 1–3 ulp smaller or larger, an
/// all-zero slice, subnormal parts, ±∞ and NaN parts.
fn random_norm_slice(seed: u64) -> Vec<Complex> {
    let mut rng = Xorshift(seed | 1);
    let len = 1 + rng.below(64);
    let (lo, span) = if rng.below(8) == 0 {
        (-162.0 + 6.0 * rng.unit(), 0.5)
    } else {
        let span = [0.5, 3.0, 40.0, 620.0][rng.below(4)];
        (-320.0 + rng.unit() * (620.0 - span), span)
    };
    // One slice in four puts every entry on one circle: their norms tie
    // to within rounding, where the largest square and the largest
    // `hypot` can belong to different entries.
    let circle = rng.below(4) == 0;
    let r = rng.decade(lo, lo + span);
    let mut zs: Vec<Complex> = (0..len)
        .map(|_| {
            if circle {
                return Complex::from_polar(r, std::f64::consts::TAU * rng.unit());
            }
            let m = rng.sign() * rng.decade(lo, lo + span);
            match rng.below(4) {
                0 => Complex::new(m, 0.0),
                1 => Complex::new(-0.0, m),
                _ => Complex::new(m, rng.sign() * m * rng.decade(-3.0, 3.0)),
            }
        })
        .collect();
    let top = *zs
        .iter()
        .max_by(|a, b| a.norm().total_cmp(&b.norm()))
        .expect("non-empty");
    if rng.below(2) == 0 {
        for _ in 0..1 + rng.below(4) {
            let k = rng.below(len);
            zs[k] = match rng.below(3) {
                0 => Complex::new(top.im, top.re),
                1 => Complex::new(-top.re, top.im),
                _ => top.conj(),
            };
        }
    }
    if rng.below(2) == 0 {
        for _ in 0..1 + rng.below(32) {
            let k = rng.below(len);
            let z = if rng.below(4) == 0 {
                top
            } else {
                Complex::from_polar(top.norm(), std::f64::consts::TAU * rng.unit())
            };
            let d = (1 + rng.below(3) as i64) * if rng.below(4) == 0 { 1 } else { -1 };
            zs[k] = match rng.below(4) {
                0 => z,
                1 => Complex::new(step_ulps(z.re, d), z.im),
                2 => Complex::new(z.re, step_ulps(z.im, d)),
                _ => Complex::new(step_ulps(z.re, d), step_ulps(z.im, d)),
            };
        }
    }
    if rng.below(16) == 0 {
        zs.iter_mut().for_each(|z| {
            *z = Complex::new(0.0 * rng.sign(), 0.0 * rng.sign());
        });
    }
    let specials = [5e-324, -2.5e-310, f64::MIN_POSITIVE, 1e-170, 1.5e154];
    if rng.below(6) == 0 {
        let k = rng.below(len);
        zs[k].re = rng.sign() * specials[rng.below(specials.len())];
    }
    if rng.below(8) == 0 {
        let k = rng.below(len);
        zs[k].im = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3)];
    }
    if rng.below(8) == 0 {
        let k = rng.below(len);
        zs[k].re = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3)];
    }
    zs
}

proptest! {
    // One circle slice in about 180 has its largest square and its
    // largest `hypot` on different entries; 20 000 cases take ~0.1 s.
    #![proptest_config(ProptestConfig::with_cases(20000))]
    /// `max_norm` returns the `hypot` fold's maximum bit for bit.
    #[test]
    fn max_norm_matches_hypot_fold_bitwise(seed in 0u64..u64::MAX) {
        let zs = random_norm_slice(seed);
        let fold = zs.iter().map(|z| z.norm()).fold(0.0, f64::max);
        prop_assert_eq!(Complex::max_norm(&zs).to_bits(), fold.to_bits(), "{:?}", &zs);
    }
}

/// `norm_le`/`norm_lt`/`norm_gt` equal the `hypot` comparisons on an adversarial
/// grid: levels 0, negative, subnormal, near the squaring overflow and
/// underflow thresholds and 1e300, each paired with parts whose norm is
/// the level moved by up to 8 ulp either way, and with ±0, ±∞, NaN,
/// subnormal parts and parts whose squares overflow or underflow.
#[test]
fn norm_level_tests_match_hypot_on_adversarial_grid() {
    let levels = [
        0.0,
        -0.0,
        -1.0,
        -1e300,
        5e-324,
        f64::MIN_POSITIVE,
        1e-160,
        1.5e-154,
        1e-100,
        std::f64::consts::FRAC_1_SQRT_2,
        1.0,
        3.3e7,
        1e100,
        1.3e154,
        1e300,
        f64::MAX,
        f64::INFINITY,
        f64::NAN,
    ];
    let specials = [
        0.0,
        -0.0,
        5e-324,
        -2.5e-310,
        f64::MIN_POSITIVE,
        1e-200,
        1e-160,
        1.0,
        1e160,
        -1e200,
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    let mut parts: Vec<Complex> = Vec::new();
    for &a in &specials {
        for &b in &specials {
            parts.push(Complex::new(a, b));
        }
    }
    for &level in &levels {
        for k in -8..=8 {
            let r = step_ulps(level, k);
            // Axis-aligned, 3-4-5 and 45° points of norm ≈ r, plus one
            // with a part whose square underflows.
            parts.extend([
                Complex::new(r, 0.0),
                Complex::new(-0.0, -r),
                Complex::new(0.6 * r, 0.8 * r),
                Complex::new(r / 2f64.sqrt(), -r / 2f64.sqrt()),
                Complex::new(r, 1e-170),
            ]);
        }
    }
    let mut checked = 0usize;
    for z in &parts {
        for &base in &levels {
            for k in -8..=8 {
                let level = step_ulps(base, k);
                assert_eq!(z.norm_le(level), z.norm() <= level, "{z:?} <= {level:e}");
                assert_eq!(z.norm_lt(level), z.norm() < level, "{z:?} < {level:e}");
                assert_eq!(z.norm_gt(level), z.norm() > level, "{z:?} > {level:e}");
                checked += 1;
            }
        }
    }
    assert!(checked > 100_000, "grid too small: {checked}");
}
