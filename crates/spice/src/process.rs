//! Process technology description: a 0.25 µm 3.3 V CMOS node with
//! level-1-style MOS parameters plus passive-component data.
//!
//! The paper targets "a 0.25 µm 3.3 V CMOS process". The authors used a
//! proprietary foundry deck; we substitute published-typical values (see
//! DESIGN.md). Absolute currents differ from the authors' silicon, but every
//! *trend* the topology optimization exploits — gm/I vs overdrive, intrinsic
//! gain vs channel length, capacitance per width — is preserved.

use adc_numerics::quant::Fingerprint;

/// Device polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

impl std::fmt::Display for Polarity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Polarity::Nmos => write!(f, "nmos"),
            Polarity::Pmos => write!(f, "pmos"),
        }
    }
}

/// Level-1-style MOS model card (all SI units).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosModel {
    /// Device polarity.
    pub polarity: Polarity,
    /// Zero-bias threshold voltage, V (positive magnitude for both types).
    pub vto: f64,
    /// Transconductance parameter `µ·Cox`, A/V².
    pub kp: f64,
    /// Body-effect coefficient, √V.
    pub gamma: f64,
    /// Surface potential `2φF`, V.
    pub phi: f64,
    /// Channel-length-modulation coefficient normalized to 1 µm: the
    /// effective λ of a device is `lambda_l / (L in µm)`, 1/V.
    pub lambda_l: f64,
    /// Lateral diffusion per side, m (`Leff = L − 2·LD`).
    pub ld: f64,
    /// Gate-oxide capacitance per area, F/m².
    pub cox: f64,
    /// Gate–source overlap capacitance per width, F/m.
    pub cgso: f64,
    /// Gate–drain overlap capacitance per width, F/m.
    pub cgdo: f64,
    /// Junction capacitance per area (zero bias), F/m².
    pub cj: f64,
    /// Junction sidewall capacitance per length (zero bias), F/m.
    pub cjsw: f64,
    /// Source/drain diffusion length, m (sets junction area `W·LDIFF`).
    pub ldiff: f64,
}

impl MosModel {
    /// Folds every model parameter into a fingerprint (exact bits — model
    /// cards are constants, not derived quantities).
    fn fingerprint_into(&self, fp: Fingerprint) -> Fingerprint {
        fp.add_u64(match self.polarity {
            Polarity::Nmos => 0,
            Polarity::Pmos => 1,
        })
        .add_f64_exact(self.vto)
        .add_f64_exact(self.kp)
        .add_f64_exact(self.gamma)
        .add_f64_exact(self.phi)
        .add_f64_exact(self.lambda_l)
        .add_f64_exact(self.ld)
        .add_f64_exact(self.cox)
        .add_f64_exact(self.cgso)
        .add_f64_exact(self.cgdo)
        .add_f64_exact(self.cj)
        .add_f64_exact(self.cjsw)
        .add_f64_exact(self.ldiff)
    }

    /// Effective channel length for a drawn length `l`.
    pub fn leff(&self, l: f64) -> f64 {
        (l - 2.0 * self.ld).max(1e-9)
    }

    /// Channel-length modulation λ for drawn length `l` (1/V).
    pub fn lambda(&self, l: f64) -> f64 {
        self.lambda_l / (self.leff(l) * 1e6)
    }
}

/// Full process description shared by device models and design layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Process {
    /// Human-readable node name, e.g. `"c025"`.
    pub name: String,
    /// Nominal supply voltage, V.
    pub vdd: f64,
    /// Minimum drawn channel length, m.
    pub lmin: f64,
    /// Minimum drawn width, m.
    pub wmin: f64,
    /// NMOS model card.
    pub nmos: MosModel,
    /// PMOS model card.
    pub pmos: MosModel,
    /// Capacitor density for precision (MiM/poly-poly) caps, F/m².
    pub cap_density: f64,
    /// Relative 1-σ mismatch of a unit capacitor of area `cap_unit_area`.
    pub cap_sigma_unit: f64,
    /// Area of the reference unit capacitor used for `cap_sigma_unit`, m².
    pub cap_unit_area: f64,
}

impl Process {
    /// The 0.25 µm, 3.3 V CMOS process used throughout the paper's
    /// evaluation, with published-typical level-1 parameters.
    pub fn c025() -> Self {
        Process {
            name: "c025".to_string(),
            vdd: 3.3,
            lmin: 0.25e-6,
            wmin: 0.5e-6,
            nmos: MosModel {
                polarity: Polarity::Nmos,
                vto: 0.50,
                kp: 115e-6 * 2.0, // µn·Cox ≈ 230 µA/V² at tox ≈ 5.7 nm
                gamma: 0.45,
                phi: 0.80,
                lambda_l: 0.06,
                ld: 0.02e-6,
                cox: 6.0e-3,
                cgso: 3.0e-10,
                cgdo: 3.0e-10,
                cj: 1.0e-3,
                cjsw: 2.5e-10,
                ldiff: 0.6e-6,
            },
            pmos: MosModel {
                polarity: Polarity::Pmos,
                vto: 0.55,
                kp: 30e-6 * 2.0, // µp·Cox ≈ 60 µA/V²
                gamma: 0.40,
                phi: 0.80,
                lambda_l: 0.08,
                ld: 0.02e-6,
                cox: 6.0e-3,
                cgso: 3.0e-10,
                cgdo: 3.0e-10,
                cj: 1.2e-3,
                cjsw: 3.0e-10,
                ldiff: 0.6e-6,
            },
            cap_density: 1.0e-3,    // 1 fF/µm²
            cap_sigma_unit: 1.5e-3, // 0.15 % 1-σ for the 25 fF unit
            cap_unit_area: 25e-12,  // 25 µm² → 25 fF unit cap
        }
    }

    /// Deterministic fingerprint of the complete process description (name,
    /// supply, geometry limits, both model cards, capacitor data). Two
    /// processes with equal fingerprints produce identical simulation
    /// results for the same netlist — the process component of any
    /// cross-run synthesis cache key.
    pub fn fingerprint(&self) -> u64 {
        let fp = Fingerprint::new()
            .add_str(&self.name)
            .add_f64_exact(self.vdd)
            .add_f64_exact(self.lmin)
            .add_f64_exact(self.wmin);
        let fp = self.nmos.fingerprint_into(fp);
        let fp = self.pmos.fingerprint_into(fp);
        fp.add_f64_exact(self.cap_density)
            .add_f64_exact(self.cap_sigma_unit)
            .add_f64_exact(self.cap_unit_area)
            .finish()
    }
}

impl Default for Process {
    /// The default process is the paper's 0.25 µm node.
    fn default() -> Self {
        Process::c025()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c025_sanity() {
        let p = Process::c025();
        assert_eq!(p.vdd, 3.3);
        assert!(p.nmos.kp > p.pmos.kp, "NMOS must be stronger than PMOS");
        assert!(p.nmos.vto > 0.3 && p.nmos.vto < 0.7);
        assert!(p.lmin == 0.25e-6);
    }

    #[test]
    fn leff_subtracts_lateral_diffusion() {
        let p = Process::c025();
        let l = 0.25e-6;
        assert!((p.nmos.leff(l) - 0.21e-6).abs() < 1e-12);
    }

    #[test]
    fn lambda_decreases_with_length() {
        let p = Process::c025();
        let l_short = p.nmos.lambda(0.25e-6);
        let l_long = p.nmos.lambda(1.0e-6);
        assert!(
            l_short > 2.0 * l_long,
            "λ should drop with L: {l_short} vs {l_long}"
        );
    }

    #[test]
    fn default_is_c025() {
        assert_eq!(Process::default(), Process::c025());
    }

    #[test]
    fn fingerprint_distinguishes_processes() {
        let a = Process::c025();
        assert_eq!(a.fingerprint(), Process::c025().fingerprint());
        let mut b = Process::c025();
        b.vdd = 2.5;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = Process::c025();
        c.nmos.kp *= 1.01;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
