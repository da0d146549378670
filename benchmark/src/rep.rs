//! One repetition of a workload: what it measured, what it checked, and
//! (when traced) what each layer cost.

use nostop_core::system::BatchObservation;
use spark_sim::{StreamingEngine, SuperbatchStats};
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash};

/// Invariant-failure messages kept per repetition; the count is exact.
const MAX_MESSAGES: usize = 8;

/// Output checks: every batch is checked, and every end-of-run invariant.
#[derive(Default)]
pub struct Checks {
    /// Batches checked.
    pub attempted: u64,
    /// Batches or invariants that failed a check.
    pub failed: u64,
    /// The first few failures, for the error stream.
    pub messages: Vec<String>,
}

impl Checks {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(msg);
        }
    }

    /// Check one batch: finite, non-negative fields and a positive
    /// interval.
    pub fn batch(&mut self, b: &BatchObservation) {
        self.attempted += 1;
        let fields = [
            b.completed_at_s,
            b.interval_s,
            b.processing_s,
            b.scheduling_delay_s,
            b.input_rate,
        ];
        if fields.iter().any(|x| !x.is_finite() || *x < 0.0) || b.interval_s <= 0.0 {
            self.fail(format!("bad batch: {b:?}"));
        }
    }

    /// Check an end-of-run invariant.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Record conservation at the end of an engine's run: everything the
    /// source produced is in a completed batch, queued, in flight, lagging
    /// in the broker, or dropped.
    pub fn conservation(&mut self, engine: &StreamingEngine, completed_records: u64) {
        let accounted = completed_records
            + engine.queued_records()
            + engine.in_flight_records()
            + engine.broker_lag()
            + engine.dropped_records();
        let produced = engine.total_produced();
        self.require(produced == accounted, || {
            format!("record conservation: produced {produced} != accounted {accounted}")
        });
    }
}

/// Per-layer counts and times of one traced repetition. Layers a
/// workload does not run stay zero.
#[derive(Default, Clone)]
pub struct Layers {
    pub rate_calls: u64,
    pub rate_ns: u64,
    pub wire_reports: u64,
    pub wire_ns: u64,
    /// Time inside `StreamingSystem` calls: engine, rate and wire.
    pub system_ns: u64,
    pub engine_reconfigs: u64,
    pub controller_rounds: u64,
    /// Time inside `run_round`, the system calls included.
    pub controller_ns: u64,
    pub controller_resets: u64,
    pub fleet_tenant_epochs: u64,
    pub fleet_skipped: u64,
    /// Time inside `step_epoch`, everything it runs included.
    pub fleet_ns: u64,
    pub epoch_ns: Vec<u64>,
    pub arbiter_barriers: u64,
    pub arbiter_sparse: u64,
    pub arbiter_ns: u64,
    pub arbiter_queues: u64,
    pub arbiter_coalesced: u64,
    pub tuner_evals: u64,
    pub propose_ns: u64,
    pub observe_ns: u64,
}

/// Everything one repetition produced.
#[derive(Default)]
pub struct Rep {
    /// Building specs, engines, tenants and tuners, seconds.
    pub setup_s: f64,
    /// The timed phase, seconds; replays are excluded.
    pub wall_s: f64,
    /// Replays, seconds: what tracing adds on top of `wall_s`.
    pub replay_s: f64,
    /// Simulated batches completed, fast-forwarded ones included.
    pub batches: u64,
    pub checks: Checks,
    /// Each job's (engine's) median `BatchObservation::end_to_end_s`.
    pub job_p50: Vec<f64>,
    /// Each job's 99th-percentile `BatchObservation::end_to_end_s`.
    pub job_p99: Vec<f64>,
    /// Batches with processing within the interval (Eq. 2).
    pub stable: u64,
    /// Best objective of every controller or tuner, virtual seconds.
    pub best_objectives: Vec<f64>,
    /// Superbatch counters summed over every engine.
    pub superbatch: SuperbatchStats,
    /// Fingerprint of every output; traced and untraced runs must agree.
    pub digest: u64,
    pub layers: Layers,
}

impl Rep {
    /// Check, count and fingerprint one batch of `job`.
    pub fn observe(
        &mut self,
        job: &mut Histogram,
        b: &BatchObservation,
        hasher: &mut DefaultHasher,
    ) {
        self.checks.batch(b);
        job.add(b.end_to_end_s());
        self.stable += b.is_stable() as u64;
        for x in [
            b.completed_at_s,
            b.interval_s,
            b.processing_s,
            b.scheduling_delay_s,
            b.input_rate,
        ] {
            x.to_bits().hash(hasher);
        }
        (
            b.records,
            b.num_executors,
            b.queued_batches,
            b.executor_failures,
        )
            .hash(hasher);
    }

    /// Close a job: record its median and 99th-percentile delay.
    pub fn end_job(&mut self, job: Histogram) {
        self.job_p50.push(job.quantile(0.50));
        self.job_p99.push(job.quantile(0.99));
    }

    /// Fold an engine's end state into the fingerprint and the superbatch
    /// totals.
    pub fn finish_engine(&mut self, engine: &StreamingEngine, hasher: &mut DefaultHasher) {
        engine.rng_fingerprint().hash(hasher);
        engine.total_produced().hash(hasher);
        let s = engine.superbatch_stats();
        (
            s.fast_batches,
            s.fast_blocks,
            s.armed_blocks,
            s.quiescence_fallbacks,
        )
            .hash(hasher);
        self.superbatch.accumulate(&s);
    }
}

/// An exact histogram of one job's delays: memory grows with the
/// distinct values, not the samples — a steady tenant repeats the same
/// few delays thousands of times.
#[derive(Default)]
pub struct Histogram {
    counts: HashMap<u64, u64>,
    n: u64,
}

impl Histogram {
    /// Count one value.
    pub fn add(&mut self, x: f64) {
        *self.counts.entry(x.to_bits()).or_default() += 1;
        self.n += 1;
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest rank, or NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut values: Vec<(f64, u64)> = self
            .counts
            .iter()
            .map(|(&bits, &c)| (f64::from_bits(bits), c))
            .collect();
        values.sort_by(|a, b| a.0.total_cmp(&b.0));
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n.max(1));
        let mut seen = 0;
        for (x, c) in values {
            seen += c;
            if seen >= rank {
                return x;
            }
        }
        f64::NAN
    }
}

/// A fresh fingerprint hasher. `DefaultHasher::new` uses fixed keys, so
/// fingerprints compare across runs of one build.
pub fn hasher() -> DefaultHasher {
    DefaultHasher::new()
}

/// The `q`-quantile (0 ≤ q ≤ 1) by nearest rank; sorts `xs`.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// The median of `xs`.
pub fn median(mut xs: Vec<f64>) -> f64 {
    quantile(&mut xs, 0.5)
}
