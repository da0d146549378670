//! # spark-sim — a discrete-event Spark Streaming simulator
//!
//! The paper modifies Apache Spark 3.0.0 so that batch interval and executor
//! count are tunable at runtime, and evaluates NoStop on a five-node
//! heterogeneous cluster fed by Kafka. Rust has no Spark bindings, so this
//! crate rebuilds the part of Spark Streaming that NoStop interacts with, as
//! a deterministic discrete-event simulation over virtual time:
//!
//! * [`cluster`] — heterogeneous nodes (Table 2 is encoded verbatim as
//!   [`cluster::Cluster::paper_heterogeneous`]), CPU speed factors, and
//!   SSD/HDD disk classes;
//! * [`executor`] — executor lifecycle: placement onto worker nodes, launch
//!   latency, the one-time jar-shipping initialization that pollutes the
//!   first post-change batch (the reason for §5.4's skip-first rule), and
//!   dynamic add/remove without restart;
//! * [`batch`] — the batch divider and queue: records are consumed from the
//!   broker at every interval boundary, batches queue FIFO, and the
//!   scheduling delay of a queued batch is exactly Spark's;
//! * [`scheduler`] — per-job stage/task simulation: tasks = block count
//!   (interval / 200 ms block interval), speed-proportional quota blocks
//!   onto executor slots (waves emerge naturally), per-node speed and
//!   contention, shuffle and sink I/O charged against the node's disk
//!   class, and per-task log-normal noise;
//! * [`superbatch`] — the closed-form fast path: every job is armed, and
//!   each executor×stage block whose node is provably contention- and
//!   fault-quiet over the block's own span collapses to one prefix sum,
//!   bit-identical to the exact per-task path;
//! * [`noise`] — the stochastic environment: multiplicative task noise and
//!   Poisson contention windows per node;
//! * [`fault`] — deterministic fault injection: a [`fault::FaultPlan`] of
//!   [`nostop_core::scenario::FaultEvent`]s schedules executor crashes
//!   (with optional relaunch), node-slowdown windows, receiver outages,
//!   and transient task failures with bounded retry, all replayed off the
//!   DES clock and a dedicated seed fork;
//! * [`metrics`] — a `StreamingListener` equivalent producing
//!   [`metrics::BatchMetrics`] and JSON [`nostop_core::listener::StatusReport`]s;
//! * [`engine`] — [`engine::StreamingEngine`] ties it together: run loop,
//!   runtime reconfiguration (interval changes take effect at the next batch
//!   cut; executor changes launch/retire asynchronously), back-pressure rate
//!   limiting hooks;
//! * [`adapter`] — [`adapter::SimSystem`] implements
//!   [`nostop_core::system::StreamingSystem`], making the simulator tunable
//!   by the NoStop controller exactly as a REST-driven deployment would be;
//! * [`arbiter`] — the fleet executor arbiter: grants/denies/queues tenant
//!   reconfiguration demand against a fleet-wide executor budget under
//!   pluggable policies (fair-share, strict priority, preempt-with-grace),
//!   emitting an auditable allocation ledger;
//! * [`fleet`] — [`fleet::FleetSim`]: N independent engine+controller
//!   tenants stepped in epoch barriers against the shared budget, a pure
//!   function of `(specs, budget, policy)` at any `NOSTOP_JOBS`.
//!
//! Everything is seeded: the same `(cluster, workload, rate process, seed)`
//! quadruple replays bit-for-bit.

pub mod adapter;
pub mod arbiter;
pub mod batch;
pub mod cluster;
pub mod config;
pub mod engine;
pub mod executor;
pub mod fault;
pub mod fleet;
pub mod metrics;
pub mod noise;
pub mod scheduler;
pub mod superbatch;

pub use adapter::SimSystem;
pub use arbiter::{check_ledger_conservation, ArbiterStats, ExecutorArbiter, TenantGrant};
pub use cluster::{Cluster, DiskClass, NodeSpec};
pub use config::{ExtendedConfig, StreamConfig};
pub use engine::{EngineParams, StreamingEngine};
pub use fault::FaultPlan;
pub use fleet::{FleetSim, TenantSpec};
pub use metrics::{BatchMetrics, Listener};
pub use noise::NoiseParams;
pub use scheduler::{JobResult, JobScratch, Speculation};
pub use superbatch::{SuperbatchArm, SuperbatchStats};
