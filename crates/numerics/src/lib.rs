//! # adc-numerics
//!
//! Numerical substrate for the pipelined-ADC topology-optimization
//! reproduction: complex arithmetic, real/complex polynomials with robust
//! root finding, dense and sparse CSR linear algebra over one real or
//! complex [`linalg::Scalar`] entry type (dense LU with partial pivoting;
//! sparse LU with a reusable symbolic factorization for MNA-shaped
//! systems), radix-2 FFT with spectral windows, and log-spaced
//! frequency grids.
//!
//! Everything here is written from scratch (no external math crates) so the
//! higher layers — the circuit simulator, the DPI/SFG symbolic analysis and
//! the behavioural ADC models — depend only on this crate.
//!
//! ## Example
//!
//! ```
//! use adc_numerics::poly::Poly;
//!
//! // (s + 1)(s + 2) = s^2 + 3 s + 2
//! let p = Poly::from_roots(&[-1.0, -2.0]);
//! assert!((p.eval(0.0) - 2.0).abs() < 1e-12);
//! let roots = p.roots();
//! assert_eq!(roots.len(), 2);
//! ```

pub mod complex;
pub mod constants;
pub mod deadline;
#[cfg(feature = "faults")]
pub mod faults;
pub mod fft;
pub mod interp;
pub mod linalg;
pub mod poly;
pub mod quant;
pub mod roots;
pub mod simd;
pub mod sparse;

pub use complex::Complex;
pub use deadline::Deadline;
pub use linalg::Matrix;
pub use poly::Poly;

/// Convenience alias used across the workspace for fallible numeric routines.
pub type NumResult<T> = Result<T, NumericsError>;

/// Errors produced by the numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericsError {
    /// A linear system was singular (or numerically singular) at the given
    /// elimination step.
    SingularMatrix {
        /// Pivot index at which elimination broke down.
        step: usize,
        /// Magnitude of the offending pivot.
        pivot: f64,
    },
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Name of the algorithm that failed.
        algorithm: &'static str,
        /// Iterations performed before giving up.
        iterations: usize,
        /// Residual or error estimate at the last iterate.
        residual: f64,
    },
    /// Invalid argument (empty input, mismatched dimensions, bad bracket...).
    InvalidArgument(String),
}

impl std::fmt::Display for NumericsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NumericsError::SingularMatrix { step, pivot } => {
                write!(
                    f,
                    "singular matrix at elimination step {step} (pivot magnitude {pivot:.3e})"
                )
            }
            NumericsError::NoConvergence {
                algorithm,
                iterations,
                residual,
            } => {
                write!(f, "{algorithm} failed to converge after {iterations} iterations (residual {residual:.3e})")
            }
            NumericsError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for NumericsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let e = NumericsError::SingularMatrix {
            step: 3,
            pivot: 1e-18,
        };
        assert!(!e.to_string().is_empty());
        let e = NumericsError::NoConvergence {
            algorithm: "newton",
            iterations: 50,
            residual: 1.0,
        };
        assert!(e.to_string().contains("newton"));
        let e = NumericsError::InvalidArgument("empty".into());
        assert!(e.to_string().contains("empty"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NumericsError>();
    }
}
