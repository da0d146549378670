//! The four streaming workloads of the paper (§6.1), twice over.
//!
//! 1. **Executable kernels** — real implementations a batch of records flows
//!    through: SGD [`logistic`] and [`linear`] regression learners,
//!    map/reduce [`wordcount`], and an Nginx [`loganalyze`] pipeline
//!    (parse → wash → aggregate). These back the examples, calibrate the
//!    cost models, and give integration tests something real to chew on.
//! 2. **Cost models** ([`cost`]) — the per-record/per-task/per-batch cost
//!    structure the discrete-event simulator uses to turn "batch of N
//!    records on E executors" into a processing time, preserving the
//!    qualitative behaviour the paper reports in §6.3: ML workloads have
//!    noisy, iteration-dependent batch times; WordCount is the most stable;
//!    Log Analyze is complex but steady.
//!
//! [`WorkloadKind`] names the four workloads and binds together their rate
//! ranges (Fig. 5), record kinds, kernels, and cost presets.

pub mod calibrate;
pub mod cost;
pub mod kind;
pub mod linear;
pub mod loganalyze;
pub mod logistic;
pub mod memo;
pub mod wordcount;

pub use cost::{CostModel, TaskCost};
pub use kind::WorkloadKind;
pub use linear::StreamingLinearRegression;
pub use loganalyze::{LogAnalyzer, LogSummary};
pub use logistic::StreamingLogisticRegression;
pub use memo::{block_prefix, round_duration_us, speed_quotas, JobCostTable, StageCosts};
pub use wordcount::WordCount;

use nostop_datagen::Record;

/// A streaming job that consumes batches of records.
///
/// All four paper workloads implement this; the examples and the calibration
/// harness drive them uniformly.
pub trait StreamingJob {
    /// Process one micro-batch. Returns the number of *useful* records
    /// consumed (after washing/filtering), which may be less than
    /// `records.len()`.
    fn process_batch(&mut self, records: &[Record]) -> usize;

    /// Human-readable job name.
    fn name(&self) -> &'static str;
}
