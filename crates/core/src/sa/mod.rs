//! Generic stochastic-approximation optimizers.
//!
//! The paper builds NoStop on SPSA (Spall 1998): each iteration perturbs
//! *all* parameters simultaneously by `± c_k Δ_k` and estimates the gradient
//! from just **two** noisy objective measurements, regardless of dimension —
//! the property that makes online tuning affordable (§4.2.1). The classic
//! Kiefer–Wolfowitz finite-difference form would need `2p` measurements
//! for `p` parameters.

pub mod gains;
pub mod perturb;
pub mod spsa;

pub use gains::{ConditionReport, GainSchedule};
pub use perturb::BernoulliPerturbation;
pub use spsa::{Proposal, Spsa, SpsaParams, StepInfo};
