//! Golden end-to-end fingerprint of BayesOpt's proposals.
//!
//! Drives `BayesOpt` over the 8-knob extended space for 96 propose/observe
//! rounds against a deterministic synthetic objective and hashes the bits
//! of every proposal. A change to the GP, the acquisition or the candidate
//! stream that alters any proposal shows up here. Proposals are EI argmaxes
//! over quantized points, so a last-bit posterior change usually does not
//! move one; `gp_differential.rs` pins the posteriors themselves bit for
//! bit. The pinned value holds in both GP modes (incremental and
//! `NOSTOP_PROBE=1`).

use nostop_baselines::bayesopt::BayesOpt;
use nostop_baselines::tuner::Tuner;
use nostop_core::space::ConfigSpace;
use nostop_simcore::fnv1a64;

/// FNV-1a over the proposal sequence, pinned from the pre-tiling scorer.
const GOLDEN: u64 = 0xc5a1_af65_2fe2_dcdd;

/// A smooth bowl in normalized physical units with an interior optimum,
/// plus a deterministic per-round wobble so ties never mask a change. Only
/// IEEE-exact operations, so the value is the same on every platform.
fn objective(space: &ConfigSpace, physical: &[f64], round: usize) -> f64 {
    let centers = [0.2, 0.6, 0.35, 0.7, 0.5, 0.25, 0.4, 0.3];
    let weights = [4.0, 3.0, 1.0, 2.0, 0.5, 1.5, 0.75, 1.25];
    let mut y = 5.0;
    for (i, &v) in physical.iter().enumerate() {
        let p = &space.params[i];
        let d = (v - p.min) / (p.max - p.min) - centers[i];
        y += weights[i] * d * d;
    }
    y + ((round * 7) % 5) as f64 * 0.01
}

#[test]
fn bayesopt_proposals_match_the_golden_fingerprint() {
    let space = ConfigSpace::extended();
    let mut bo = BayesOpt::new(space.clone(), 2021);
    let mut bits = Vec::new();
    for round in 0..96 {
        let p = bo.propose();
        assert_eq!(p.len(), 8);
        for v in &p {
            bits.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        bo.observe(&p, objective(&space, &p, round));
    }
    assert_eq!(bo.evaluations(), 96);
    let hash = fnv1a64(&bits);
    assert_eq!(hash, GOLDEN, "proposal fingerprint {hash:#018x}");
}
