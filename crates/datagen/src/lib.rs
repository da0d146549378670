//! Streaming data generation for the NoStop reproduction.
//!
//! The paper (§6.1–6.2) deploys a data generator *outside* the cluster that
//! sends records to Kafka brokers at a varying rate, spread uniformly over
//! partitions to avoid skew. This crate reproduces that substrate:
//!
//! * [`rate`] — arrival-rate processes: the paper's uniform-random rate in
//!   `[MinRate, MaxRate]` redrawn periodically (§6.2.2), plus constant,
//!   sinusoidal, ramp, surge (e-commerce promotion spikes), and recorded
//!   traces, with composition.
//! * [`adversarial`] — the production-grade nasty cases: flash crowds with
//!   Pareto-sized magnitudes, heavy-tailed record bursts, and correlated
//!   multi-source surges off a shared trigger stream, each wrapping any
//!   base process deterministically.
//! * [`broker`] — a Kafka-like partitioned broker: per-partition FIFO queues
//!   with offsets, uniform round-robin production, consumer polling, lag
//!   accounting, and a producer-side rate limit hook (the knob Spark's back
//!   pressure turns).
//! * [`generator`] — [`generator::StreamGenerator`] ties a rate process to a
//!   broker: advancing virtual time materializes the right (fractional-
//!   accumulated) number of records in each partition.

pub mod adversarial;
pub mod broker;
pub mod generator;
pub mod rate;

pub use adversarial::{CorrelatedSurgeRate, FlashCrowdRate, ParetoBurstRate};
pub use broker::{Broker, BrokerConfig, PartitionId};
pub use generator::{IngestStats, StreamGenerator};
pub use rate::{tenant_seed, RateProcess, RateSpec, RateSpecExt};
