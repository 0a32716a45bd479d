//! # adc-behav
//!
//! Behavioural pipelined-ADC simulation: redundant-signed-digit stages with
//! digital error correction, front-end sample-and-hold, nonideality models
//! (finite opamp gain, incomplete settling, capacitor mismatch, comparator
//! offsets, thermal noise, clock jitter), and the standard converter
//! metrics — FFT-based SNDR/SFDR/ENOB and histogram INL/DNL.
//!
//! The paper validates its synthesized MDACs inside a commercial flow; this
//! crate is the equivalent sign-off layer for our reproduction: after the
//! topology optimizer picks `4-3-2…`, the behavioural model confirms the
//! configuration converts at the target resolution with the synthesized
//! block nonidealities.
//!
//! ## Example
//!
//! ```
//! use adc_behav::pipeline::PipelineAdc;
//! use adc_behav::metrics::sine_test;
//!
//! // Ideal 10-bit pipeline: 2-2-2 front-end + 5-bit backend flash.
//! let adc = PipelineAdc::ideal(&[2, 2, 2], 5);
//! assert_eq!(adc.resolution_bits(), 8); // (2-1)+(2-1)+(2-1)+5
//! let m = sine_test(&adc, 4096, 0.95, 12345);
//! assert!(m.enob > 7.8, "ENOB {}", m.enob);
//! ```

pub mod metrics;
pub mod pipeline;
pub mod sha;
pub mod signals;
pub mod stage;

pub use metrics::{sine_test, SpectralMetrics};
pub use pipeline::PipelineAdc;
pub use stage::{StageModel, StageNonideality};
