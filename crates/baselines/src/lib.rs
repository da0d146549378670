//! Comparator methods for the NoStop evaluation.
//!
//! The paper compares NoStop against three alternatives:
//!
//! * **Bayesian Optimization** (§6.4, Fig. 8) — "among the most commonly
//!   used algorithms in Random Search". Implemented from scratch:
//!   a Gaussian-process surrogate ([`gp`]) over the scaled configuration
//!   space with an RBF kernel and Cholesky solves ([`linalg`]), driven by
//!   the Expected Improvement acquisition ([`acquisition`], [`bayesopt`]).
//! * **Spark Back Pressure** (abstract) — Spark's `PIDRateEstimator`
//!   ([`backpressure`]), which throttles ingestion instead of adapting the
//!   configuration; faithful to Spark's constants.
//! * **Default configuration** (§6.3, Fig. 7) — a static configuration;
//!   the experiment driver simply never tunes.
//!
//! [`random_search`] and [`grid_search`] round out the comparison set, and
//! every configuration-proposing method implements the common
//! [`tuner::Tuner`] trait so the experiment harness can drive them all
//! through the identical measurement procedure NoStop uses.

pub mod acquisition;
pub mod backpressure;
pub mod bayesopt;
pub mod gp;
pub mod grid_search;
pub mod linalg;
pub mod random_search;
pub mod spsa_tuner;
pub mod tuner;

pub use backpressure::PidRateEstimator;
pub use bayesopt::{BayesOpt, CandidatePool, ScoringStats};
pub use grid_search::GridSearch;
pub use random_search::RandomSearch;
pub use spsa_tuner::SpsaTuner;
pub use tuner::Tuner;
