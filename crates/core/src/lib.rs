//! # NoStop — SPSA-based online configuration optimization
//!
//! This crate is the paper's primary contribution: a controller that tunes a
//! running micro-batch streaming system's configuration — batch interval and
//! executor count in the paper's instantiation — *while the system runs*,
//! using Simultaneous Perturbation Stochastic Approximation.
//!
//! ## Structure
//!
//! * [`sa`] — the generic stochastic-approximation machinery: gain
//!   sequences with convergence-condition checking ([`sa::GainSchedule`]),
//!   the Bernoulli ±1 perturbation, and the two-measurement [`sa::Spsa`]
//!   optimizer.
//! * [`space`] — the configuration space: physical parameter ranges,
//!   min–max scaling into a common optimization range (the paper scales
//!   both parameters into `[1, 20]`, §6.2.1), quantization, and bound
//!   clamping (the paper's `checkBound`).
//! * [`objective`] — the penalized objective of Eq. 3:
//!   `BatchInterval + ρ · max(0, BatchProcessingTime − BatchInterval)` with
//!   the ρ ramp of Algorithm 1.
//! * [`policy`] — the operational rules of §5.3–§5.5: the pause rule
//!   (std-dev of the N best delays below S), the input-rate reset rule, and
//!   the metric-collection window (additive increase with a cap).
//! * [`measure`] — Algorithm 2's measurement protocol: apply a
//!   configuration, settle (the settling batch is §5.4's discarded first
//!   batch), and pull a window. NoStop and every tuner measure through it.
//! * [`system`] — the black-box boundary: a [`system::StreamingSystem`]
//!   yields [`system::BatchObservation`]s and accepts configuration writes.
//!   Anything behind this trait can be tuned — the bundled discrete-event
//!   Spark simulator, or a REST client against a live cluster.
//! * [`controller`] — [`controller::NoStop`] itself: Algorithms 1 and 2.
//! * [`trace`] — structured per-round records for the Fig-6 style
//!   optimization-evolution plots.
//! * [`listener`] — the JSON status vector the architecture diagram
//!   (Fig. 4) exchanges between the streaming listener and NoStop.
//!
//! ## Quick start
//!
//! ```
//! use nostop_core::controller::{NoStop, NoStopConfig};
//! use nostop_core::system::{BatchObservation, StreamingSystem};
//!
//! // A toy "system": processing time responds linearly to config.
//! struct Toy { interval: f64, execs: f64, t: f64 }
//! impl StreamingSystem for Toy {
//!     fn apply_config(&mut self, physical: &[f64]) {
//!         self.interval = physical[0];
//!         self.execs = physical[1];
//!     }
//!     fn next_batch(&mut self) -> BatchObservation {
//!         self.t += self.interval;
//!         let proc = 2.0 + 80.0 / self.execs; // more executors -> faster
//!         BatchObservation {
//!             completed_at_s: self.t,
//!             interval_s: self.interval,
//!             processing_s: proc,
//!             scheduling_delay_s: 0.0,
//!             records: (100.0 * self.interval) as u64,
//!             input_rate: 100.0, // constant arrival rate
//!             num_executors: self.execs as u32,
//!             queued_batches: 0,
//!             executor_failures: 0,
//!         }
//!     }
//!     fn now_s(&self) -> f64 { self.t }
//! }
//!
//! let mut sys = Toy { interval: 10.0, execs: 10.0, t: 0.0 };
//! let mut nostop = NoStop::new(NoStopConfig::paper_default(), 42);
//! for _ in 0..30 { nostop.run_round(&mut sys); }
//! let (best, _delay) = nostop.best_config().expect("rounds ran");
//! assert!(best[1] >= 1.0); // a sane executor count was chosen
//! ```

pub mod arbiter;
pub mod controller;
pub mod listener;
pub mod measure;
pub mod objective;
pub mod policy;
pub mod sa;
pub mod scenario;
pub mod space;
pub mod system;
pub mod trace;

pub use arbiter::{ArbiterPolicy, LedgerEvent, LedgerEventKind, ResourceRequest};
pub use controller::{NoStop, NoStopConfig};
pub use objective::PenaltySchedule;
pub use sa::{GainSchedule, Spsa, SpsaParams};
pub use scenario::{ClusterKind, FaultEvent, RateSpec, ScenarioSpec, SkewSpec};
pub use space::{ConfigSpace, ParamSpec};
pub use system::{BatchObservation, Measurement, StreamingSystem};
