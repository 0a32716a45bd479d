//! # adc-spice
//!
//! A compact circuit-simulation substrate standing in for the commercial
//! SPICE engine the paper's synthesis loop drives: netlists with MOSFETs
//! (level-1-style square-law model with smooth subthreshold), passives and
//! controlled sources; modified nodal analysis with automatic dense/sparse
//! engine selection (CSR + reusable symbolic factorization on OTA-sized
//! systems, dense partial-pivot LU as the oracle); damped-Newton DC
//! operating point with g_min and source-stepping homotopy (sign-off, AC
//! and tests run the whole ladder; the synthesis evaluation stops after
//! plain Newton, because on its testbenches no rung ever rescued a solve,
//! see [`dc`]); a shared
//! small-signal linearizer ([`linearize`]) feeding complex-valued AC
//! sweeps and the numeric TF extraction in adc-sfg; and a trapezoidal
//! transient engine with two-phase clocked switches for switched-capacitor
//! blocks.
//!
//! The paper's hybrid flow (§3) needs exactly this: *"DC simulation to
//! extract small signal values"* feeding an equation-based transfer-function
//! evaluation, plus *"simulation-based evaluation"* where swings are large.
//!
//! ## Example: resistive divider
//!
//! ```
//! use adc_spice::netlist::Circuit;
//! use adc_spice::dc::{dc_operating_point, DcOptions};
//!
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.add_vsource("V1", vin, Circuit::GROUND, 3.0);
//! ckt.add_resistor("R1", vin, out, 1000.0);
//! ckt.add_resistor("R2", out, Circuit::GROUND, 2000.0);
//! let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
//! assert!((op.voltage(out) - 2.0).abs() < 1e-6);
//! ```

pub mod ac;
pub mod dc;
mod engine;
pub mod linearize;
pub mod mna;
pub mod mosfet;
pub mod netlist;
pub mod op;
pub mod process;
pub mod subckt;
pub mod tran;
pub mod waveform;

pub use ac::{ac_sweep, ac_sweep_with, AcWorkspace};
pub use dc::{
    dc_operating_point, dc_operating_point_newton, dc_operating_point_warm,
    dc_operating_point_with, DcOptions, DcWorkspace,
};
pub use linearize::{ComplexMnaWorkspace, SmallSignal, SolverChoice};
pub use netlist::{Circuit, ElementId, NodeId};
pub use op::OperatingPoint;
pub use process::Process;
pub use subckt::{Instance, Subckt};
pub use tran::{
    transient, transient_adaptive, transient_with, Clock, InitialCondition, NewtonProfile,
    TimeStepConfig, TranOptions, TranResult, TranStats, TranWorkspace,
};

/// Errors produced by the simulation engines.
#[derive(Debug, Clone, PartialEq)]
pub enum SpiceError {
    /// The DC Newton iteration (including homotopy fallbacks) failed.
    DcConvergence {
        /// Final residual in amps.
        residual: f64,
        /// Iterations used across all homotopy stages.
        iterations: usize,
    },
    /// The MNA system was singular (floating node, voltage-source loop...).
    Singular(String),
    /// A named element or node was not found.
    NotFound(String),
    /// The netlist is structurally invalid.
    BadNetlist(String),
    /// A cooperative wall-clock deadline expired mid-analysis.
    Timeout {
        /// The analysis that ran out of budget (`"dc"`, `"tran"`...).
        analysis: &'static str,
        /// Iterations or timesteps completed before the budget ran out.
        iterations: usize,
    },
}

impl std::fmt::Display for SpiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpiceError::DcConvergence { residual, iterations } => write!(
                f,
                "DC analysis failed to converge after {iterations} iterations (residual {residual:.3e} A)"
            ),
            SpiceError::Singular(what) => write!(f, "singular MNA system: {what}"),
            SpiceError::NotFound(name) => write!(f, "no such element or node: {name}"),
            SpiceError::BadNetlist(msg) => write!(f, "bad netlist: {msg}"),
            SpiceError::Timeout {
                analysis,
                iterations,
            } => write!(
                f,
                "{analysis} analysis exceeded its wall-clock budget after {iterations} iterations"
            ),
        }
    }
}

impl std::error::Error for SpiceError {}

/// Result alias for simulator operations.
pub type SpiceResult<T> = Result<T, SpiceError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages() {
        let e = SpiceError::DcConvergence {
            residual: 1e-3,
            iterations: 500,
        };
        assert!(e.to_string().contains("converge"));
        assert!(SpiceError::Singular("x".into())
            .to_string()
            .contains("singular"));
        assert!(SpiceError::NotFound("M1".into()).to_string().contains("M1"));
        assert!(SpiceError::BadNetlist("loop".into())
            .to_string()
            .contains("loop"));
        assert!(SpiceError::Timeout {
            analysis: "dc",
            iterations: 12,
        }
        .to_string()
        .contains("budget"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SpiceError>();
    }
}
