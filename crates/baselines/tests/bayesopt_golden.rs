//! Golden end-to-end fingerprint of BayesOpt's proposals.
//!
//! Drives `BayesOpt` over the 8-knob extended space for 96 propose/observe
//! rounds against a deterministic synthetic objective and hashes the bits
//! of every proposal. A change to the GP, the acquisition or the candidate
//! stream that alters any proposal shows up here. Proposals are EI argmaxes
//! over quantized points, so a last-bit posterior change usually does not
//! move one; `gp_differential.rs` pins the posteriors themselves bit for
//! bit. The pinned value holds in both GP modes (incremental and
//! `NOSTOP_NO_GP_INCREMENTAL=1`).

use nostop_baselines::bayesopt::BayesOpt;
use nostop_baselines::tuner::Tuner;
use nostop_core::space::ConfigSpace;

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

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn bayesopt_proposals_match_the_golden_fingerprint() {
    let space = ConfigSpace::extended();
    let mut bo = BayesOpt::new(space.clone(), 2021);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for round in 0..96 {
        let p = bo.propose();
        assert_eq!(p.len(), 8);
        for v in &p {
            fnv1a(&mut hash, &v.to_bits().to_le_bytes());
        }
        bo.observe(&p, objective(&space, &p, round));
    }
    assert_eq!(bo.evaluations(), 96);
    assert_eq!(hash, GOLDEN, "proposal fingerprint {hash:#018x}");
}
