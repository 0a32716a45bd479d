//! Pins `HybridOptions::fingerprint` for the options each rung of the
//! flow's retry ladder evaluates under. The fingerprint is the evaluator
//! component of every block's cache key and provenance chain: if it moves,
//! snapshots saved by an earlier build stop restoring as exact hits, so a
//! change that moves it on purpose bumps `FLOW_CACHE_VERSION` and re-pins
//! the values printed by `cargo test -p adc-synth --test fingerprint_pin
//! -- --nocapture`.

use adc_spice::SolverChoice;
use adc_synth::hybrid::HybridOptions;

#[test]
fn hybrid_options_fingerprint_is_pinned() {
    // Rung 0: the stock options.
    let stock = HybridOptions::default();
    // Rung 1: no DC warm-start reuse.
    let cold = HybridOptions {
        warm_start_local: false,
        ..HybridOptions::default()
    };
    // Rung 2: rung 1 on the dense linear solver.
    let dense = HybridOptions {
        solver: SolverChoice::Dense,
        ..cold.clone()
    };
    let got = [stock.fingerprint(), cold.fingerprint(), dense.fingerprint()];
    println!("{got:#018x?}");
    assert_eq!(
        got,
        [0xf064d4d6528f0d83, 0xc9bd2b9a95252322, 0x18bb4162a83a3b63]
    );
}
