//! # adc-synth
//!
//! A cell-level analog synthesis engine in the mold of the commercial tools
//! the paper drives (NeoCircuit): a bounded design space, performance
//! constraints with normalized penalties, a simulated-annealing global
//! search with Nelder–Mead refinement, and — key to the paper's
//! methodology — a **hybrid evaluator** that combines DC simulation
//! (operating point, power, saturation checks via `adc-spice`) with
//! equation-based transfer-function analysis (poles/zeros/gain/phase margin
//! via `adc-sfg`) for each candidate sizing.
//!
//! The engine also implements **retargeting**: re-synthesizing a block to a
//! new specification warm-started from a previous solution, which is how the
//! paper's "2–3 weeks for the first synthesis, 1 day for subsequent blocks"
//! asymmetry arises.
//!
//! ## Example: synthesize a toy two-variable design
//!
//! ```
//! use adc_synth::space::{DesignSpace, DesignVar};
//! use adc_synth::constraints::{Constraint, ConstraintKind};
//! use adc_synth::evaluator::{EvalOutcome, Evaluator, Performance};
//! use adc_synth::runner::{SynthConfig, Synthesizer};
//! use adc_numerics::Deadline;
//!
//! struct Toy;
//! impl Evaluator for Toy {
//!     fn evaluate(&self, x: &[f64]) -> EvalOutcome {
//!         let mut p = Performance::new();
//!         p.set("power", x[0] * x[0] + x[1] * x[1]);
//!         p.set("gain", 10.0 * x[0] + x[1]);
//!         EvalOutcome::Ok(p)
//!     }
//! }
//!
//! let space = DesignSpace::new(vec![
//!     DesignVar::linear("a", 0.0, 10.0),
//!     DesignVar::linear("b", 0.0, 10.0),
//! ]);
//! let constraints = vec![Constraint::new("gain", ConstraintKind::AtLeast, 20.0)];
//! let synth = Synthesizer::new(space, constraints, "power");
//! let cfg = SynthConfig { iterations: 4000, seed: 7, ..Default::default() };
//! let run = synth.run(&Toy, &cfg, None, Deadline::none()).unwrap();
//! assert!(run.feasible);
//! assert!(run.best_perf.get("gain").unwrap() >= 19.9);
//! ```

pub mod anneal;
pub mod chain;
pub mod constraints;
pub mod evaluator;
pub mod hybrid;
pub mod neldermead;
pub mod runner;
pub mod space;
pub mod tran_chain;

pub use chain::{ChainEvaluator, ChainOptions, ChainReport};
pub use constraints::{Constraint, ConstraintKind};
pub use evaluator::{EvalOutcome, Evaluator, Performance};
pub use runner::{SynthConfig, SynthError, SynthResult, Synthesizer};
pub use space::{DesignSpace, DesignVar};
pub use tran_chain::{
    TranChainError, TranChainEvaluator, TranChainOptions, TranChainReport, TranChainSetup,
    TranStageReport,
};
