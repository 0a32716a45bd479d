//! Radix-2 Cooley–Tukey FFT and spectral windows.
//!
//! Used by the behavioural ADC layer to compute SNDR/SFDR/ENOB from
//! coherently sampled sine-wave tests, mirroring the standard converter
//! characterization flow (IEEE 1241).

use crate::complex::Complex;

/// In-place radix-2 decimation-in-time FFT.
///
/// # Panics
/// Panics if `data.len()` is not a power of two.
pub fn fft_in_place(data: &mut [Complex]) {
    let n = data.len();
    assert!(
        n.is_power_of_two(),
        "FFT length must be a power of two, got {n}"
    );
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::from_polar(1.0, ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex::ONE;
            for k in 0..len / 2 {
                let u = data[i + k];
                let v = data[i + k + len / 2] * w;
                data[i + k] = u + v;
                data[i + k + len / 2] = u - v;
                w *= wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Forward FFT of a real signal; returns the full complex spectrum.
///
/// # Panics
/// Panics if `signal.len()` is not a power of two.
pub fn fft_real(signal: &[f64]) -> Vec<Complex> {
    let mut data: Vec<Complex> = signal.iter().map(|&x| Complex::from_real(x)).collect();
    fft_in_place(&mut data);
    data
}

/// Inverse FFT (in place), normalized by `1/N`.
///
/// # Panics
/// Panics if `data.len()` is not a power of two.
pub fn ifft_in_place(data: &mut [Complex]) {
    for z in data.iter_mut() {
        *z = z.conj();
    }
    fft_in_place(data);
    let n = data.len() as f64;
    for z in data.iter_mut() {
        *z = z.conj() / n;
    }
}

/// Spectral window functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// No window (use with coherent sampling).
    Rectangular,
    /// Hann window.
    Hann,
    /// 4-term Blackman–Harris (−92 dB sidelobes) — the converter-test
    /// standard when coherence cannot be guaranteed.
    BlackmanHarris,
}

impl Window {
    /// Window sample `w[i]` for a length-`n` window.
    pub fn value(self, i: usize, n: usize) -> f64 {
        let x = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
        match self {
            Window::Rectangular => 1.0,
            Window::Hann => 0.5 * (1.0 - x.cos()),
            Window::BlackmanHarris => {
                0.35875 - 0.48829 * x.cos() + 0.14128 * (2.0 * x).cos() - 0.01168 * (3.0 * x).cos()
            }
        }
    }

    /// Fills a vector with the window samples.
    pub fn samples(self, n: usize) -> Vec<f64> {
        (0..n).map(|i| self.value(i, n)).collect()
    }

    /// Coherent gain (mean of the window) — used to renormalize amplitudes.
    pub fn coherent_gain(self, n: usize) -> f64 {
        self.samples(n).iter().sum::<f64>() / n as f64
    }
}

/// Single-sided power spectrum of a real windowed signal.
///
/// Returns `n/2` bins of power (bin 0 = DC). Power is normalized so that a
/// full-scale sine at a coherent bin concentrates its power in that bin
/// (after window coherent-gain correction).
///
/// # Panics
/// Panics if `signal.len()` is not a power of two.
pub fn power_spectrum(signal: &[f64], window: Window) -> Vec<f64> {
    let n = signal.len();
    let w = window.samples(n);
    let cg = window.coherent_gain(n);
    let windowed: Vec<f64> = signal.iter().zip(&w).map(|(&x, &wi)| x * wi).collect();
    let spec = fft_real(&windowed);
    let scale = 1.0 / (n as f64 * cg);
    (0..n / 2)
        .map(|k| {
            let a = spec[k].norm() * scale * if k == 0 { 1.0 } else { 2.0 };
            // power of the sine that bin represents = (amplitude^2)/2
            if k == 0 {
                a * a
            } else {
                a * a / 2.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut d = vec![Complex::ZERO; 8];
        d[0] = Complex::ONE;
        fft_in_place(&mut d);
        for z in d {
            assert!((z - Complex::ONE).norm() < 1e-12);
        }
    }

    #[test]
    fn fft_ifft_round_trip() {
        let sig: Vec<Complex> = (0..64)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut d = sig.clone();
        fft_in_place(&mut d);
        ifft_in_place(&mut d);
        for (a, b) in d.iter().zip(sig.iter()) {
            assert!((*a - *b).norm() < 1e-10);
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let sig: Vec<f64> = (0..128)
            .map(|i| (i as f64 * 0.71).sin() * 0.8 + 0.1)
            .collect();
        let time_energy: f64 = sig.iter().map(|x| x * x).sum();
        let spec = fft_real(&sig);
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / sig.len() as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy);
    }

    #[test]
    fn coherent_sine_lands_in_one_bin() {
        let n = 256;
        let cycles = 13; // coprime with n → coherent
        let sig: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * cycles as f64 * i as f64 / n as f64).sin())
            .collect();
        let ps = power_spectrum(&sig, Window::Rectangular);
        let (peak_bin, &peak) = ps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert_eq!(peak_bin, cycles);
        // Unit-amplitude sine has power 0.5.
        assert!((peak - 0.5).abs() < 1e-9, "peak {peak}");
        // Everything else is numerically zero.
        let rest: f64 = ps
            .iter()
            .enumerate()
            .filter(|(k, _)| *k != cycles)
            .map(|(_, &p)| p)
            .sum();
        assert!(rest < 1e-12);
    }

    #[test]
    fn windows_have_expected_shape() {
        for w in [Window::Hann, Window::BlackmanHarris] {
            let s = w.samples(64);
            // Ends near zero, center near max.
            assert!(s[0] < 0.01);
            assert!(s[32] > 0.9);
        }
        assert_eq!(Window::Rectangular.samples(4), vec![1.0; 4]);
        assert!((Window::Rectangular.coherent_gain(32) - 1.0).abs() < 1e-15);
        assert!((Window::Hann.coherent_gain(1024) - 0.5).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let mut d = vec![Complex::ZERO; 12];
        fft_in_place(&mut d);
    }
}
