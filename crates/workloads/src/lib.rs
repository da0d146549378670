//! The four streaming workloads of the paper (§6.1), as cost models.
//!
//! NoStop treats Spark as a black box that reports batch times, so the
//! simulator models each workload by the work a micro-batch induces, not by
//! its record payloads:
//!
//! * [`cost`] — the per-record/per-task/per-batch cost structure the
//!   discrete-event simulator uses to turn "batch of N records on E
//!   executors" into a processing time. The presets encode the variance
//!   structure the paper reports in §6.3: ML workloads have noisy,
//!   iteration-dependent batch times; WordCount is the most stable; Log
//!   Analyze is complex but steady.
//! * [`memo`] — the memoized task-time kernel the scheduler evaluates those
//!   models through, once per job.
//!
//! [`WorkloadKind`] names the four workloads and binds together their rate
//! ranges (Fig. 5) and cost presets.

pub mod cost;
pub mod kind;
pub mod memo;

pub use cost::CostModel;
pub use kind::WorkloadKind;
pub use memo::{block_prefix, round_duration_us, speed_quotas, JobCostTable, StageCosts};
