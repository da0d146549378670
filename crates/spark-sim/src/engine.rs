//! The streaming engine: the discrete-event run loop.
//!
//! Two event sources drive the simulation, exactly as in Spark Streaming:
//!
//! * **batch cuts** — every `batch_interval`, the divider consumes what the
//!   receivers ingested from the broker and enqueues a batch;
//! * **job completions** — the FIFO job scheduler runs one job at a time
//!   (Spark's default `spark.streaming.concurrentJobs = 1`); when a job
//!   finishes the next queued batch starts immediately.
//!
//! Runtime reconfiguration follows the paper's semantics: a new batch
//! interval takes effect at the next cut (the divider is re-armed, no
//! restart); executor-count changes launch or retire executors
//! asynchronously ([`crate::executor`]), with launching executors joining
//! mid-job when they become ready and fresh ones paying one-time jar
//! shipping. NoStop "is capable of optimizing system configurations online
//! without rebooting the entire cluster" (§4.3) — so is this engine.

use crate::batch::{Batch, BatchQueue};
use crate::cluster::Cluster;
use crate::config::{ExtendedConfig, StreamConfig};
use crate::executor::ExecutorManager;
use crate::fault::{FaultPlan, FaultState, FaultTimer, TaskFaultCtx};
use crate::metrics::{BatchMetrics, Listener};
use crate::noise::{NoiseModel, NoiseParams};
use crate::scheduler::{simulate_job, tasks_for, JobScratch, Speculation};
use crate::superbatch::{SuperbatchArm, SuperbatchStats};
use nostop_core::scenario::SkewSpec;
use nostop_datagen::broker::{Broker, BrokerConfig};
use nostop_datagen::rate::RateProcess;
use nostop_datagen::StreamGenerator;
use nostop_obs::Recorder;
use nostop_simcore::{probe_mode, SimDuration, SimRng, SimTime};
use nostop_workloads::{CostModel, WorkloadKind};

/// Executor process launch latency.
const LAUNCH_DELAY: SimDuration = SimDuration::from_secs(2);

/// One-time initialization (jar shipping) for a fresh executor's first
/// job — the cost §5.4's skip-first rule keeps out of measurements.
const EXECUTOR_INIT: SimDuration = SimDuration::from_millis(1_500);

/// Kafka partitions (paper: more than the cluster's core count).
const PARTITIONS: usize = 32;

/// Maximum batches waiting in the queue before the divider stops
/// consuming. Further data stays in the broker (Kafka retains it) and is
/// absorbed by large catch-up batches once the queue drains — the actual
/// recovery dynamics of a congested Kafka-direct deployment.
const MAX_QUEUED_BATCHES: usize = 5;

/// Catch-up batches are capped at this multiple of one nominal interval's
/// data (the `maxRatePerPartition` guard every production Kafka-direct
/// deployment sets), so a congested system recovers via bounded batches
/// instead of one unboundedly large one.
const MAX_CATCHUP_FACTOR: f64 = 3.0;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineParams {
    /// The cluster to run on.
    pub cluster: Cluster,
    /// Which workload's cost model drives job simulation.
    pub workload: WorkloadKind,
    /// Spark's block interval (default 200 ms) — tasks per stage =
    /// batch interval / block interval.
    pub block_interval: SimDuration,
    /// Noise environment.
    pub noise: NoiseParams,
    /// Speculative execution (Spark's `spark.speculation`); `None` = off,
    /// matching Spark's default.
    pub speculation: Option<Speculation>,
    /// Completed-batch metrics the listener retains (the memory bound for
    /// long runs). Whole-run aggregates (Welford summaries, stable
    /// fraction counters) are unaffected; only per-batch records older
    /// than the window are dropped. Callers polling `drain_completed`
    /// must do so within this many batches or lose the evicted ones.
    pub metrics_window: usize,
    /// Scheduled faults (crashes, stragglers, outages, task failures).
    /// The default empty plan is byte-identical to a fault-free engine.
    pub faults: FaultPlan,
    /// Partition skew at the broker's produce side. [`SkewSpec::None`]
    /// (the paper's skew-avoidance rule) is byte-identical to a build
    /// without this field; a hot-key spec routes weighted shares to hot
    /// partitions and stretches job cost by the straggling hot task's
    /// share of the critical path.
    pub skew: SkewSpec,
    /// Allow the superbatch fast path: every job is armed, and each
    /// executor×stage block keeps its closed form exactly when its node
    /// is contention- and fault-quiet over the block's span. Results are
    /// bit-identical either way — this switch and the `NOSTOP_PROBE=1` env
    /// override exist for the differential test and for benchmarking the
    /// exact path.
    pub superbatch: bool,
    /// Master seed; all internal streams fork from it.
    pub seed: u64,
}

impl EngineParams {
    /// Paper-style defaults for `workload` on the Table-2 cluster.
    pub fn paper(workload: WorkloadKind, seed: u64) -> Self {
        EngineParams {
            cluster: Cluster::paper_heterogeneous(),
            workload,
            block_interval: SimDuration::from_millis(200),
            noise: NoiseParams::default(),
            speculation: None,
            metrics_window: Listener::DEFAULT_WINDOW,
            faults: FaultPlan::none(),
            skew: SkewSpec::None,
            superbatch: true,
            seed,
        }
    }

    /// The ten-node homogeneous testbed of §3.2 (Figs. 2 and 3).
    pub fn testbed(workload: WorkloadKind, seed: u64) -> Self {
        EngineParams {
            cluster: Cluster::testbed_ten_nodes(),
            ..EngineParams::paper(workload, seed)
        }
    }
}

/// One epoch-boundary snapshot of everything that must be *stationary*
/// between two consecutive controller rounds for the fleet fast path to
/// replay a tenant in closed form. Every field is an integer or a bit
/// pattern — equality is bitwise, with no tolerance anywhere — so two
/// equal shapes plus per-batch template equality prove the engine is on a
/// periodic orbit: the next epoch is the previous one shifted in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuiescenceShape {
    /// Time until the armed divider fires, µs.
    pub next_cut_in_us: u64,
    /// Time since the last successful cut, µs.
    pub since_last_cut_us: u64,
    /// How far the clock leads the production watermark, µs.
    pub ingest_lag_us: u64,
    /// Interval the next batch will be cut with, µs.
    pub interval_us: u64,
    /// Records dropped by outages so far (constant while quiet).
    pub dropped_records: u64,
    /// Live executor count.
    pub executors: u32,
    /// Executor fleet version (bumps on launch/retire/crash).
    pub fleet_version: u64,
    /// The controller's unclamped executor want.
    pub desired_executors: u32,
    /// The fleet cap in force (`u32::MAX` = uncapped).
    pub executor_cap: u32,
    /// Fleet contention pressure, as bits (1.0 exactly when unconstrained).
    pub pressure_bits: u64,
    /// Generator fractional-record carry, as bits.
    pub gen_carry_bits: u64,
    /// Generator last sampled rate, as bits.
    pub gen_rate_bits: u64,
    /// Broker production carry, as bits.
    pub broker_carry_bits: u64,
    /// All three RNG stream positions — unchanged across an epoch means
    /// the epoch drew zero random values.
    pub rng: [u64; 12],
}

/// A passing structural probe at an epoch boundary: the engine is idle
/// (no running job, empty queue, zero broker lag, settled executors) and
/// *may* be quiescent. The cumulative counters let the caller diff two
/// consecutive probes to learn the per-epoch advance it would replay.
#[derive(Debug, Clone, Copy)]
pub struct QuiescenceProbe {
    /// The stationary part, compared bitwise across boundaries.
    pub shape: QuiescenceShape,
    /// Total batches ever cut.
    pub batches_cut: u64,
    /// Broker produced offset per partition.
    pub produced_per_partition: u64,
    /// Superbatch engagement counters.
    pub superbatch_stats: SuperbatchStats,
}

/// A running job: the batch being processed and when it will finish.
#[derive(Debug, Clone, Copy)]
struct RunningJob {
    batch: Batch,
    started_at: SimTime,
    finishes_at: SimTime,
    executors: u32,
    stages: u32,
    busy_cores: SimDuration,
    task_retries: u32,
}

/// The discrete-event Spark Streaming engine.
pub struct StreamingEngine {
    params: EngineParams,
    cost: CostModel,
    clock: SimTime,
    /// Interval used for the *next* cut (pending changes land here).
    current_interval: SimDuration,
    /// Executor target as last applied.
    target_executors: u32,
    /// Fleet-imposed ceiling on the executor target (`u32::MAX` = solo
    /// engine, no arbiter). `apply_config` records the controller's true
    /// want in `target_executors` but hands the executor manager
    /// `want.min(external_cap)`; `min(x, u32::MAX)` is the identity, so an
    /// uncapped engine is bit-identical to a build without this field.
    external_cap: u32,
    executors: ExecutorManager,
    broker: Broker,
    /// Hot-partition load imbalance (`1.0` = uniform). Computed once from
    /// `params.skew`; the per-job cost stretch is derived from it.
    skew_imbalance: f64,
    generator: StreamGenerator,
    noise: NoiseModel,
    /// RNG stream for per-job stage sampling.
    job_rng: SimRng,
    queue: BatchQueue,
    running: Option<RunningJob>,
    next_cut: SimTime,
    last_cut: SimTime,
    /// Records that arrived at the broker since the last successful cut.
    arrived_since_cut: u64,
    listener: Listener,
    /// Absolute-index cursor for `drain_completed` (counts all completed
    /// batches ever, so it survives listener-window eviction).
    drained: u64,
    /// Reusable buffers for the per-job scheduling hot loop.
    scratch: JobScratch,
    /// Pending fault timeline and lazy window queries.
    faults: FaultState,
    /// RNG stream for fault draws (crash victims, task-retry coin flips).
    fault_rng: SimRng,
    /// Sink for records produced during a declared receiver outage; its
    /// counters never mix with the real broker's.
    void_broker: Broker,
    /// Records dropped by receiver outages over the whole run.
    dropped_records: u64,
    /// Executor losses not yet attached to a completed batch.
    pending_failures: u32,
    /// Trace recorder (disabled by default: one cold branch per event
    /// site, no RNG draws, identical simulation either way).
    obs: Recorder,
    /// Use closed-form block results (`params.superbatch` and not
    /// `NOSTOP_PROBE=1`). The probe kernel runs either way, so both modes
    /// consume identical RNG (see [`crate::superbatch`]).
    superbatch_fast: bool,
    /// Superbatch engagement counters.
    superbatch: SuperbatchStats,
}

impl StreamingEngine {
    /// Build an engine with an initial configuration and a rate process.
    pub fn new(params: EngineParams, initial: StreamConfig, rate: Box<dyn RateProcess>) -> Self {
        let cost = CostModel::preset(params.workload);
        let root = SimRng::seed_from_u64(params.seed);
        let mut executors = ExecutorManager::new(params.cluster.clone(), LAUNCH_DELAY);
        executors.bootstrap(initial.num_executors);
        let broker = Broker::new(BrokerConfig {
            partitions: PARTITIONS,
            max_consume_rate: None,
        });
        let broker = match params.skew.weights(PARTITIONS) {
            Some(weights) => broker.with_skew(weights),
            None => broker,
        };
        let skew_imbalance = params.skew.imbalance(PARTITIONS);
        let noise = NoiseModel::new(params.noise, params.cluster.nodes.len(), root.fork(1));
        let job_rng = root.fork(2);
        let fault_rng = root.fork(3);
        let faults = FaultState::new(params.faults.clone());
        let void_broker = Broker::new(BrokerConfig {
            partitions: 1,
            max_consume_rate: None,
        });
        let next_cut = SimTime::ZERO + initial.batch_interval;
        let metrics_window = params.metrics_window;
        let superbatch_fast = params.superbatch && !probe_mode();
        StreamingEngine {
            params,
            cost,
            clock: SimTime::ZERO,
            current_interval: initial.batch_interval,
            target_executors: initial.num_executors,
            external_cap: u32::MAX,
            executors,
            broker,
            skew_imbalance,
            generator: StreamGenerator::new(rate),
            noise,
            job_rng,
            queue: BatchQueue::new(),
            running: None,
            next_cut,
            last_cut: SimTime::ZERO,
            arrived_since_cut: 0,
            listener: Listener::with_window(metrics_window),
            drained: 0,
            scratch: JobScratch::new(),
            faults,
            fault_rng,
            void_broker,
            dropped_records: 0,
            pending_failures: 0,
            obs: Recorder::disabled(),
            superbatch_fast,
            superbatch: SuperbatchStats::default(),
        }
    }

    /// Attach a trace recorder; the engine's events land on its `"engine"`
    /// track. Recording changes no simulation outcome — the recorder draws
    /// no RNG and every timestamp is the DES clock.
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.set_recorder_track(recorder, "engine");
    }

    /// [`set_recorder`](Self::set_recorder) with an explicit track name —
    /// the fleet layer tags each tenant's engine as `"t{i}.engine"` (see
    /// [`nostop_obs::track_name`]) so one shared ring interleaves every
    /// tenant in causal order.
    pub fn set_recorder_track(&mut self, recorder: &Recorder, track: &'static str) {
        self.obs = recorder.with_track(track);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The configuration currently in force (interval = the one the next
    /// batch will be cut with).
    pub fn config(&self) -> StreamConfig {
        StreamConfig::new(self.current_interval, self.target_executors.max(1))
    }

    /// The engine parameters in force (extended applies retarget
    /// `block_interval` and `speculation` here).
    pub fn params(&self) -> &EngineParams {
        &self.params
    }

    /// The cost model currently driving job simulation (the workload base,
    /// or the extended-config overlay after an 8-knob apply).
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Apply a configuration at runtime. The interval re-arms the divider
    /// from the next cut; executor changes start launching/retiring now.
    pub fn apply_config(&mut self, cfg: StreamConfig) {
        if self.obs.is_enabled() {
            let prev = self.executors.count();
            let launching = cfg.num_executors.saturating_sub(prev);
            // A scale-up pays process launch plus first-job jar shipping;
            // the span brackets the divider re-arm + target change, which
            // are instantaneous in virtual time.
            let overhead_us = if launching > 0 {
                (LAUNCH_DELAY + EXECUTOR_INIT).as_micros()
            } else {
                0
            };
            self.obs.enter(
                self.clock,
                "reconfigure",
                &[
                    ("interval_s", cfg.batch_interval.as_secs_f64()),
                    ("executors", cfg.num_executors as f64),
                    ("prev_executors", prev as f64),
                ],
            );
            self.obs.exit(
                self.clock,
                "reconfigure",
                &[
                    ("launching", launching as f64),
                    ("launch_overhead_us", overhead_us as f64),
                ],
            );
            self.obs.add(self.clock, "reconfigurations", 1);
        }
        self.current_interval = cfg.batch_interval;
        // Re-arm the divider: the pending cut moves to the new cadence,
        // but never earlier than now (and never rewinds).
        let candidate = self.clock + cfg.batch_interval;
        if candidate < self.next_cut {
            self.next_cut = candidate;
        }
        self.target_executors = cfg.num_executors;
        self.executors
            .set_target(cfg.num_executors.min(self.external_cap), self.clock);
    }

    /// Apply an extended 8-knob configuration at runtime (the tuner
    /// arena's surface). Batch interval and executors go through
    /// [`StreamingEngine::apply_config`]; block interval and speculation
    /// threshold retarget the real engine mechanics; the remaining knobs
    /// re-derive the cost model from the workload base (never compounding
    /// — the workload preset stays pristine). Safe mid-run: per-job cost
    /// tables are rebuilt from `self.cost` every batch.
    pub fn apply_extended_config(&mut self, ext: &ExtendedConfig) {
        self.params.block_interval = ext.block_interval;
        self.params.speculation = Some(Speculation {
            multiplier: ext.speculation_multiplier,
        });
        self.cost = ext.derive_cost(&CostModel::preset(self.params.workload));
        self.apply_config(ext.stream);
    }

    /// Impose (or lift, with `u32::MAX`) a fleet executor ceiling. The
    /// controller's wanted target is remembered unclamped, so raising the
    /// cap later restores it without a reconfiguration. A no-change call is
    /// a strict no-op — no retargeting, no trace events — which keeps an
    /// uncapped tenant bit-identical to a bare engine.
    pub fn set_executor_cap(&mut self, cap: u32) {
        if cap == self.external_cap {
            return;
        }
        self.external_cap = cap;
        if self.obs.is_enabled() {
            self.obs.instant(
                self.clock,
                "fleet.cap",
                &[
                    ("cap", cap.min(1 << 24) as f64),
                    ("want", self.target_executors as f64),
                ],
            );
        }
        self.executors
            .set_target(self.target_executors.min(cap), self.clock);
    }

    /// The fleet cap currently in force (`u32::MAX` when uncapped).
    pub fn executor_cap(&self) -> u32 {
        self.external_cap
    }

    /// The controller's last requested executor target, before the fleet
    /// cap — the demand signal the arbiter allocates against.
    pub fn desired_executors(&self) -> u32 {
        self.target_executors
    }

    /// Set the fleet contention pressure fed into task execution speed
    /// (1.0 = unconstrained; see [`NoiseModel::set_external_pressure`]).
    /// A no-change call is a strict no-op, so an unpressured tenant stays
    /// bit-identical to a bare engine.
    pub fn set_fleet_pressure(&mut self, pressure: f64) {
        let before = self.noise.external_pressure();
        self.noise.set_external_pressure(pressure);
        let after = self.noise.external_pressure();
        if after != before && self.obs.is_enabled() {
            self.obs
                .instant(self.clock, "fleet.pressure", &[("pressure", after)]);
        }
    }

    /// The fleet contention pressure currently in force.
    pub fn fleet_pressure(&self) -> f64 {
        self.noise.external_pressure()
    }

    /// Set or clear the back-pressure ingestion limit (records/second) —
    /// the knob Spark's `PIDRateEstimator` writes.
    pub fn set_rate_limit(&mut self, limit: Option<f64>) {
        self.broker.set_max_consume_rate(limit);
    }

    /// The listener retaining all completed-batch metrics.
    pub fn listener(&self) -> &Listener {
        &self.listener
    }

    /// How often the superbatch fast path engaged so far.
    pub fn superbatch_stats(&self) -> SuperbatchStats {
        self.superbatch
    }

    /// The engine's three RNG stream positions (noise, job, fault),
    /// concatenated — a determinism fingerprint the differential test
    /// compares bit-for-bit between fast-path and exact-path runs.
    pub fn rng_fingerprint(&self) -> [u64; 12] {
        let mut out = [0u64; 12];
        out[..4].copy_from_slice(&self.noise.rng_state());
        out[4..8].copy_from_slice(&self.job_rng.state());
        out[8..].copy_from_slice(&self.fault_rng.state());
        out
    }

    /// Structural quiescence probe at the current instant, `None` unless
    /// the engine is at an idle fixed point: no running job, empty batch
    /// queue, zero broker lag, no back-pressure limit, no unattributed
    /// executor failures, no mid-window arrivals, and every executor
    /// settled (ready, jar shipped). The shape holds nothing about the
    /// previous batch: the superbatch closed form decides per block from
    /// the block's own span, so no past batch shapes a future epoch. The
    /// fleet fast path calls this at epoch boundaries; see
    /// [`QuiescenceShape`] for what equality across two probes proves.
    pub fn quiescence_probe(&self) -> Option<QuiescenceProbe> {
        if self.running.is_some()
            || !self.queue.is_empty()
            || self.broker.total_lag() != 0
            || self.broker.max_consume_rate().is_some()
            // A skewed broker's stationarity lives in per-partition carries
            // the shape cannot capture; refuse so fast paths never engage.
            || self.broker.is_skewed()
            || self.pending_failures != 0
            || self.arrived_since_cut != 0
        {
            return None;
        }
        let boundary = self.clock;
        if self
            .executors
            .executors()
            .iter()
            .any(|e| e.fresh || e.ready_at > boundary)
        {
            return None;
        }
        Some(QuiescenceProbe {
            shape: QuiescenceShape {
                next_cut_in_us: self.next_cut.saturating_since(boundary).as_micros(),
                since_last_cut_us: boundary.saturating_since(self.last_cut).as_micros(),
                ingest_lag_us: boundary
                    .saturating_since(self.generator.produced_until())
                    .as_micros(),
                interval_us: self.current_interval.as_micros(),
                dropped_records: self.dropped_records,
                executors: self.executors.count(),
                fleet_version: self.executors.fleet_version(),
                desired_executors: self.target_executors,
                executor_cap: self.external_cap,
                pressure_bits: self.noise.external_pressure().to_bits(),
                gen_carry_bits: self.generator.carry_bits(),
                gen_rate_bits: self.generator.last_rate_bits(),
                broker_carry_bits: self.broker.produce_carry_bits(),
                rng: self.rng_fingerprint(),
            },
            batches_cut: self.queue.total_cut(),
            produced_per_partition: self.broker.produced_per_partition(),
            superbatch_stats: self.superbatch,
        })
    }

    /// True when no wake-worthy event can occur in `(from, until]`: no
    /// fault point event or window ([`FaultState::quiet_over`]), no rate-
    /// process change point, and no contention episode on any executor-
    /// occupied node. Together with a stationary [`QuiescenceShape`] this
    /// licenses fast-forwarding the horizon without simulating it.
    pub fn horizon_quiet(&self, from: SimTime, until: SimTime) -> bool {
        self.faults.quiet_over(from, until)
            && self.generator.next_change_at(from) > until
            && self.noise.quiescent_over(
                from,
                until,
                self.executors.executors().iter().map(|e| e.node),
            )
    }

    /// Record a replayed batch: the fleet fast path re-enacts a proven-
    /// periodic epoch by pushing the previous epoch's metrics shifted in
    /// time, advancing the clock exactly as the dense completion event
    /// would. The listener sees the identical `BatchMetrics` a dense step
    /// would have produced.
    pub fn replay_push(&mut self, m: BatchMetrics) {
        debug_assert!(m.completed_at >= self.clock, "replay must move forward");
        self.clock = m.completed_at;
        self.listener.on_batch_completed(m);
    }

    /// Commit one replayed epoch's bookkeeping: shift the divider and cut
    /// watermarks by `delta`, advance production closed-form (`batches`
    /// cut ids, `per_partition` broker offsets at the lag-0 fixed point),
    /// and accumulate the superbatch counters the skipped jobs would have
    /// counted. Valid only after [`Self::replay_push`] advanced the clock
    /// through the epoch and only under a stationary
    /// [`QuiescenceShape`] — the engine state afterwards is bit-identical
    /// to having stepped the epoch densely.
    pub fn fleet_fast_forward(
        &mut self,
        delta: SimDuration,
        batches: u64,
        per_partition: u64,
        stats_delta: &SuperbatchStats,
    ) {
        self.next_cut += delta;
        self.last_cut += delta;
        self.generator.fast_forward(delta);
        self.broker.fast_forward(per_partition);
        self.queue.skip_ids(batches);
        self.superbatch.accumulate(stats_delta);
    }

    /// Batches waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Broker lag (records ingested but not yet pulled into a batch).
    pub fn broker_lag(&self) -> u64 {
        self.broker.total_lag()
    }

    /// Records dropped by declared receiver outages over the whole run.
    pub fn dropped_records(&self) -> u64 {
        self.dropped_records
    }

    /// Records sitting in cut-but-unprocessed batches.
    pub fn queued_records(&self) -> u64 {
        self.queue.queued_records()
    }

    /// Records in the currently running job, if any.
    pub fn in_flight_records(&self) -> u64 {
        self.running.map(|j| j.batch.records).unwrap_or(0)
    }

    /// Everything the source ever produced, whether it reached the broker
    /// or was dropped by an outage. The conservation invariant is
    /// `total_produced == completed + queued + in-flight + broker lag +
    /// dropped` at any event boundary.
    pub fn total_produced(&self) -> u64 {
        self.broker.total_produced() + self.dropped_records
    }

    /// Live executor count (launching ones included).
    pub fn executor_count(&self) -> u32 {
        self.executors.count()
    }

    /// Advance simulation until `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while self.next_event_time() <= t {
            self.step();
        }
        // Bring production (but not batching) up to date.
        self.clock = self.clock.max(t.min(self.next_event_time()));
    }

    /// Advance until `n` more batches complete.
    pub fn run_batches(&mut self, n: u64) {
        let target = self.listener.completed() + n;
        while self.listener.completed() < target {
            self.step();
        }
    }

    /// Completed-batch metrics not yet drained by the caller.
    ///
    /// The cursor is an absolute batch count, so it stays correct across
    /// listener-window eviction; batches evicted before being drained
    /// (the caller waited more than `metrics_window` batches) are lost.
    pub fn drain_completed(&mut self) -> Vec<BatchMetrics> {
        let mut out = Vec::new();
        self.drain_completed_into(&mut out);
        out
    }

    /// Like [`StreamingEngine::drain_completed`], but appends into a
    /// caller-owned buffer — polling loops reuse one allocation instead of
    /// getting a fresh `Vec` per poll.
    pub fn drain_completed_into(&mut self, out: &mut Vec<BatchMetrics>) {
        out.extend_from_slice(self.listener.since(self.drained));
        self.drained = self.listener.completed();
    }

    fn next_event_time(&self) -> SimTime {
        let base = match &self.running {
            Some(job) => self.next_cut.min(job.finishes_at),
            None => self.next_cut,
        };
        base.min(self.faults.next_timer_at())
    }

    /// Process exactly one event (fault, batch cut, or job completion).
    /// Faults win ties: a crash at the instant a job would finish still
    /// hits that job, matching a real cluster where the completion
    /// acknowledgment from a dead executor never arrives.
    fn step(&mut self) {
        let cut = self.next_cut;
        let finish = self.running.map(|j| j.finishes_at).unwrap_or(SimTime::MAX);
        let fault = self.faults.next_timer_at();
        if fault <= cut && fault <= finish {
            self.on_fault();
        } else if finish <= cut {
            self.on_job_finish();
        } else {
            self.on_batch_cut();
        }
    }

    fn on_fault(&mut self) {
        let (at, timer) = self.faults.pop_timer().expect("a fault timer was due");
        self.clock = self.clock.max(at);
        match timer {
            FaultTimer::Crash {
                count,
                relaunch_after,
            } => {
                let lost = self.executors.crash(count, &mut self.fault_rng);
                if lost > 0 {
                    self.pending_failures += lost;
                    if self.obs.is_enabled() {
                        self.obs.instant(
                            self.clock,
                            "fault.crash",
                            &[("requested", count as f64), ("lost", lost as f64)],
                        );
                        self.obs.add(self.clock, "executor_failures", lost as u64);
                    }
                    if let Some(delay) = relaunch_after {
                        self.faults.push_timer(at + delay, FaultTimer::Relaunch);
                    }
                    self.replan_running_job(at, lost);
                }
            }
            FaultTimer::Relaunch => {
                // The cluster manager restores the applied target;
                // replacements launch fresh (delay + jar shipping).
                if self.obs.is_enabled() {
                    self.obs.instant(
                        self.clock,
                        "fault.relaunch",
                        &[("target", self.target_executors as f64)],
                    );
                }
                self.executors
                    .set_target(self.target_executors.min(self.external_cap), self.clock);
            }
        }
    }

    /// Re-plan the in-flight job after `lost` of its executors crashed at
    /// `now`. Spark recomputes lost partitions from lineage on the
    /// survivors: the remaining work is the unfinished tail of the job
    /// plus the finished fraction that lived on the dead executors.
    fn replan_running_job(&mut self, now: SimTime, lost: u32) {
        let Some(job) = self.running else { return };
        let total = job
            .finishes_at
            .saturating_since(job.started_at)
            .as_secs_f64();
        let elapsed = now.saturating_since(job.started_at).as_secs_f64();
        let progress = if total > 0.0 {
            (elapsed / total).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let lost_frac = (lost as f64 / job.executors.max(1) as f64).min(1.0);
        let remaining = (1.0 - progress) + progress * lost_frac;
        let records = ((job.batch.records as f64) * remaining).ceil() as u64;
        let stages = (((job.stages as f64) * remaining).ceil() as u32).max(1);
        let executors = self.executors.executors_mut();
        let result = simulate_job(
            &self.cost,
            records,
            job.batch.interval,
            self.params.block_interval,
            now,
            executors,
            EXECUTOR_INIT,
            &mut self.noise,
            stages,
            self.params.speculation,
            &mut self.scratch,
            Some(TaskFaultCtx {
                state: &self.faults,
                rng: &mut self.fault_rng,
            }),
            // The replan re-simulates part of a job whose superbatch
            // counters were already taken at job start, so it stays unarmed.
            None,
            &self.obs,
        );
        if self.obs.is_enabled() {
            self.obs.instant(
                now,
                "job.replanned",
                &[
                    ("batch_id", job.batch.id as f64),
                    ("lost", lost as f64),
                    ("new_finish_s", result.finished_at.as_secs_f64()),
                ],
            );
        }
        let job = self.running.as_mut().expect("job checked above");
        job.finishes_at = result.finished_at;
        // Busy time actually spent: the pre-crash fraction plus the redo.
        job.busy_cores =
            job.busy_cores.mul_f64(progress) + SimDuration::from_micros(result.busy_core_us);
        job.task_retries += result.task_retries;
    }

    /// Advance production to `t`, routing records produced inside declared
    /// receiver-outage windows into a void sink (counted as dropped)
    /// instead of the broker.
    fn ingest_to(&mut self, t: SimTime) -> u64 {
        if !self.faults.plan().has_outages() {
            return self.generator.advance_to(t, &mut self.broker);
        }
        let mut arrived = 0;
        let mut cur = self.generator.produced_until();
        while cur < t {
            let (end, dropping) = self.faults.outage_segment(cur, t);
            debug_assert!(end > cur, "outage segments must advance");
            if dropping {
                self.dropped_records += self.generator.advance_to(end, &mut self.void_broker);
            } else {
                arrived += self.generator.advance_to(end, &mut self.broker);
            }
            cur = end;
        }
        arrived
    }

    fn on_batch_cut(&mut self) {
        let t = self.next_cut;
        self.clock = t;
        let dropped_before = self.dropped_records;
        // Receivers ingest everything produced up to the cut (minus any
        // declared outage windows, whose production is dropped).
        self.arrived_since_cut += self.ingest_to(t);
        if self.obs.is_enabled() {
            let newly_dropped = self.dropped_records - dropped_before;
            if newly_dropped > 0 {
                self.obs.add(t, "records_dropped", newly_dropped);
            }
        }
        // When the batch queue is saturated the divider blocks: no batch is
        // cut, the data stays in the broker, and the next successful cut
        // absorbs it as a catch-up batch.
        if self.queue.len() < MAX_QUEUED_BATCHES {
            let ingest_window = t.saturating_since(self.last_cut);
            let records = if self.broker.max_consume_rate().is_some() {
                // Back pressure in force: the PID's limit governs.
                self.broker.consume_window(ingest_window.as_secs_f64())
            } else {
                // Bound catch-up batches at a multiple of the nominal
                // interval's data (the maxRatePerPartition guard).
                let nominal = self.generator.current_rate() * self.current_interval.as_secs_f64();
                let cap = (nominal * MAX_CATCHUP_FACTOR).max(1_000.0) as u64;
                self.broker.consume_exact(cap)
            };
            self.queue.push(
                records,
                self.arrived_since_cut,
                t,
                self.current_interval,
                ingest_window,
            );
            self.arrived_since_cut = 0;
            self.last_cut = t;
            if self.obs.is_enabled() {
                self.obs.instant(
                    t,
                    "cut",
                    &[
                        ("records", records as f64),
                        ("queue_len", self.queue.len() as f64),
                    ],
                );
                self.obs.add(t, "batches_cut", 1);
            }
        } else if self.obs.is_enabled() {
            self.obs
                .instant(t, "cut_blocked", &[("queue_len", self.queue.len() as f64)]);
            self.obs.add(t, "cuts_blocked", 1);
        }
        self.next_cut = t + self.current_interval;
        if self.running.is_none() {
            self.try_start_job();
        }
    }

    fn on_job_finish(&mut self) {
        let job = self.running.take().expect("a job was running");
        self.clock = job.finishes_at;
        if self.obs.is_enabled() {
            self.obs.add(job.finishes_at, "batches_completed", 1);
            self.obs
                .add(job.finishes_at, "records_processed", job.batch.records);
            if job.task_retries > 0 {
                self.obs
                    .add(job.finishes_at, "task_retries", job.task_retries as u64);
            }
        }
        self.listener.on_batch_completed(BatchMetrics {
            batch_id: job.batch.id,
            records: job.batch.records,
            submitted_at: job.batch.cut_at,
            started_at: job.started_at,
            completed_at: job.finishes_at,
            interval: job.batch.interval,
            ingest_window: job.batch.ingest_window,
            arrived: job.batch.arrived,
            num_executors: job.executors,
            stages: job.stages,
            busy_cores: job.busy_cores,
            queue_len: self.queue.len() as u32,
            executor_failures: std::mem::take(&mut self.pending_failures),
            task_retries: job.task_retries,
        });
        self.try_start_job();
    }

    fn try_start_job(&mut self) {
        debug_assert!(self.running.is_none());
        let Some(batch) = self.queue.pop() else {
            return;
        };
        let start = self.clock;
        let stages = self.cost.sample_stages(&mut self.job_rng);
        // The job span opens before the scheduler runs so its stage spans
        // nest inside; the exit is emitted right after, at the *planned*
        // finish — the DES computes the whole job synchronously here, and
        // closing eagerly guarantees a snapshot taken between events never
        // sees a dangling span. A mid-job crash appends `job.replanned`.
        if self.obs.is_enabled() {
            self.obs.enter(
                start,
                "job",
                &[
                    ("batch_id", batch.id as f64),
                    ("records", batch.records as f64),
                    ("executors", self.executors.count() as f64),
                ],
            );
        }
        // Hot-key skew stretches the critical path: the task holding the
        // hottest partition's records runs `skew_imbalance`× the fair
        // share, and with `waves` task waves per executor only the last
        // wave waits on it. Modeled as a record-count stretch so the cost
        // kernel, noise, and retries all see the longer job uniformly.
        // Conservation metrics keep the true `batch.records`. The closed
        // form computes from these stretched records like any others, and
        // each block's quiet check runs over the span they imply.
        let cost_records = if self.skew_imbalance > 1.0 {
            let tasks = tasks_for(batch.interval, self.params.block_interval) as f64;
            let execs = self.executors.count().max(1) as f64;
            let waves = (tasks / execs).max(1.0);
            let stretch = 1.0 + (self.skew_imbalance - 1.0) / waves;
            (batch.records as f64 * stretch).round() as u64
        } else {
            batch.records
        };

        // Every job is armed: each executor×stage block keeps its closed
        // form iff its node is contention- and fault-quiet over the
        // block's own span (the speculation veto lives in `simulate_job`).
        // Under the kill switch the blocks are still probed and counted,
        // drawing no RNG, but never used.
        let stats_before = self.superbatch;
        let result = simulate_job(
            &self.cost,
            cost_records,
            batch.interval,
            self.params.block_interval,
            start,
            self.executors.executors_mut(),
            EXECUTOR_INIT,
            &mut self.noise,
            stages,
            self.params.speculation,
            &mut self.scratch,
            Some(TaskFaultCtx {
                state: &self.faults,
                rng: &mut self.fault_rng,
            }),
            Some(SuperbatchArm {
                use_fast: self.superbatch_fast,
                stats: &mut self.superbatch,
            }),
            &self.obs,
        );
        if self.obs.is_enabled() {
            // The fraction of this job's armed blocks that passed their
            // quiet checks (0.0 when speculation kept it unarmed).
            // Mode-independent by construction: eligibility is counted
            // whether or not closed-form results are used.
            let job_stats = self.superbatch.delta_since(&stats_before);
            let superbatch_frac = if job_stats.armed_blocks == 0 {
                0.0
            } else {
                job_stats.eligible_blocks as f64 / job_stats.armed_blocks as f64
            };
            if superbatch_frac == 1.0 {
                self.obs.add(start, "superbatch_eligible", 1);
            }
            self.obs.exit(
                result.finished_at,
                "job",
                &[
                    (
                        "processing_s",
                        result.finished_at.saturating_since(start).as_secs_f64(),
                    ),
                    ("stages", result.stages as f64),
                    ("busy_core_us", result.busy_core_us as f64),
                    ("task_retries", result.task_retries as f64),
                    ("superbatch", superbatch_frac),
                ],
            );
        }
        self.running = Some(RunningJob {
            batch,
            started_at: start,
            finishes_at: result.finished_at,
            executors: self.executors.count(),
            stages: result.stages,
            busy_cores: SimDuration::from_micros(result.busy_core_us),
            task_retries: result.task_retries,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultEvent;
    use nostop_datagen::rate::{ConstantRate, SurgeRate};

    fn engine(rate: f64, interval_s: f64, executors: u32, seed: u64) -> StreamingEngine {
        let mut params = EngineParams::paper(WorkloadKind::LogisticRegression, seed);
        params.noise = NoiseParams::disabled();
        StreamingEngine::new(
            params,
            StreamConfig::new(SimDuration::from_secs_f64(interval_s), executors),
            Box::new(ConstantRate::new(rate)),
        )
    }

    #[test]
    fn batches_complete_at_interval_cadence_when_stable() {
        let mut e = engine(10_000.0, 15.0, 18, 1);
        e.run_batches(10);
        let h = e.listener().history();
        assert_eq!(h.len(), 10);
        // Submissions are one interval apart.
        for pair in h.windows(2) {
            let gap = pair[1].submitted_at - pair[0].submitted_at;
            assert_eq!(gap, SimDuration::from_secs(15));
        }
        // Stable: little to no scheduling delay after warmup.
        assert!(h[9].scheduling_delay() < SimDuration::from_secs(2));
        assert!(e.listener().stable_fraction() > 0.8);
    }

    #[test]
    fn records_per_batch_match_rate_times_interval() {
        let mut e = engine(10_000.0, 10.0, 18, 2);
        e.run_batches(5);
        for m in e.listener().history() {
            // Exact modulo fractional carries across partitions.
            assert!(
                (m.records as i64 - 100_000).unsigned_abs() <= 64,
                "records {}",
                m.records
            );
        }
    }

    #[test]
    fn undersized_interval_builds_queue_and_schedule_delay() {
        // 3 s interval for a workload whose fixed overhead alone exceeds
        // that: queue must grow and scheduling delay must climb — the
        // §3.1 unstable regime.
        let mut e = engine(10_000.0, 3.0, 10, 3);
        e.run_batches(20);
        let h = e.listener().history();
        let early = h[2].scheduling_delay().as_secs_f64();
        let late = h[19].scheduling_delay().as_secs_f64();
        assert!(
            late > early + 5.0,
            "delay must accumulate: {early} -> {late}"
        );
        assert!(e.queue_len() > 0);
        assert!(e.listener().stable_fraction() < 0.2);
    }

    #[test]
    fn interval_change_takes_effect_at_next_cut() {
        let mut e = engine(10_000.0, 10.0, 18, 4);
        e.run_batches(3);
        e.apply_config(StreamConfig::new(SimDuration::from_secs(20), 18));
        e.run_batches(4);
        let h = e.listener().history();
        let last = &h[h.len() - 1];
        assert_eq!(last.interval, SimDuration::from_secs(20));
        assert!(
            (last.records as i64 - 200_000).unsigned_abs() <= 64,
            "twice the records per batch: {}",
            last.records
        );
    }

    #[test]
    fn executor_scale_up_improves_processing_time() {
        let mut slow = engine(10_000.0, 12.0, 6, 5);
        slow.run_batches(8);
        let before = slow
            .listener()
            .recent(3)
            .iter()
            .map(|m| m.processing_time().as_secs_f64())
            .sum::<f64>()
            / 3.0;
        slow.apply_config(StreamConfig::new(SimDuration::from_secs(12), 20));
        slow.run_batches(8);
        let after = slow
            .listener()
            .recent(3)
            .iter()
            .map(|m| m.processing_time().as_secs_f64())
            .sum::<f64>()
            / 3.0;
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn first_batch_after_scale_up_is_slower_than_settled_ones() {
        // The §5.4 skip-first rule exists because of this effect. Use
        // WordCount: its fixed two-stage flow makes single batches
        // comparable (LR's sampled iteration count would drown the signal).
        let mut params = EngineParams::paper(WorkloadKind::WordCount, 6);
        params.noise = NoiseParams::disabled();
        let mut e = StreamingEngine::new(
            params,
            StreamConfig::new(SimDuration::from_secs(15), 10),
            Box::new(ConstantRate::new(100_000.0)),
        );
        e.run_batches(5);
        e.apply_config(StreamConfig::new(SimDuration::from_secs(15), 20));
        e.run_batches(5);
        let h = e.listener().history();
        // The first batch that actually ran on the enlarged executor set
        // pays jar shipping; batches after it are settled.
        let first_at_20 = h
            .iter()
            .position(|m| m.num_executors == 20)
            .expect("scale-up must reach a batch");
        let first_after = h[first_at_20].processing_time().as_secs_f64();
        let settled = h[first_at_20 + 2].processing_time().as_secs_f64();
        assert!(
            first_after > settled,
            "jar shipping visible: {first_after} vs {settled}"
        );
    }

    #[test]
    fn rate_limit_caps_batch_size() {
        let mut e = engine(50_000.0, 10.0, 18, 7);
        e.set_rate_limit(Some(10_000.0));
        e.run_batches(5);
        for m in e.listener().history().iter().skip(1) {
            assert!(
                m.records <= 101_000,
                "capped at ~10k/s × 10s: {}",
                m.records
            );
        }
        assert!(e.broker_lag() > 0, "unconsumed records pile up in broker");
    }

    #[test]
    fn deterministic_replay() {
        let run = |seed: u64| {
            let mut e = engine(10_000.0, 10.0, 12, seed);
            e.run_batches(10);
            e.listener()
                .history()
                .iter()
                .map(|m| (m.records, m.completed_at.as_micros()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn drain_completed_is_incremental() {
        let mut e = engine(10_000.0, 10.0, 18, 8);
        e.run_batches(3);
        assert_eq!(e.drain_completed().len(), 3);
        assert_eq!(e.drain_completed().len(), 0);
        e.run_batches(2);
        // The buffered variant appends and shares the same cursor.
        let mut buf = vec![];
        e.drain_completed_into(&mut buf);
        assert_eq!(buf.len(), 2);
        e.run_batches(1);
        e.drain_completed_into(&mut buf);
        assert_eq!(buf.len(), 3);
        assert_eq!(e.drain_completed().len(), 0);
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut e = engine(10_000.0, 10.0, 18, 9);
        e.run_until(SimTime::from_secs_f64(65.0));
        // 6 cuts happen by t=60; the 6th batch may still be processing.
        let done = e.listener().completed();
        assert!((4..=6).contains(&done), "completed {done}");
        assert!(e.now() <= SimTime::from_secs_f64(66.0));
    }

    #[test]
    fn oversized_intervals_leave_the_engine_idle() {
        // §3.1: with Batch Interval ≫ Batch Processing Time "computing
        // resources are underutilized and Spark engine would sit idle
        // waiting for batches to arrive".
        let idle_at = |interval: f64| {
            let mut e = engine(10_000.0, interval, 18, 11);
            e.run_batches(6);
            e.listener()
                .recent(4)
                .iter()
                .map(|m| m.engine_idle_fraction())
                .sum::<f64>()
                / 4.0
        };
        let near_frontier = idle_at(11.0);
        let oversized = idle_at(35.0);
        assert!(
            oversized > near_frontier + 0.2,
            "idle time grows with the interval: {near_frontier} vs {oversized}"
        );
    }

    #[test]
    fn fig2_crossover_emerges_from_the_engine() {
        // Streaming LR at 10k rec/s on the ten-node testbed: unstable at a
        // 5 s interval, stable at 14 s (Fig. 2's crossover ≈ 10 s).
        let time_at = |interval: f64| {
            let mut params = EngineParams::testbed(WorkloadKind::LogisticRegression, 10);
            params.noise = NoiseParams::disabled();
            let mut e = StreamingEngine::new(
                params,
                StreamConfig::new(SimDuration::from_secs_f64(interval), 10),
                Box::new(ConstantRate::new(10_000.0)),
            );
            e.run_batches(6);
            e.listener()
                .recent(3)
                .iter()
                .map(|m| m.processing_time().as_secs_f64())
                .sum::<f64>()
                / 3.0
        };
        let p5 = time_at(5.0);
        let p14 = time_at(14.0);
        assert!(p5 > 5.0, "unstable below crossover: {p5}");
        assert!(p14 < 14.0, "stable above crossover: {p14}");
    }

    // ---- Superbatch engagement: every job is armed and only the
    // ---- per-block quiet check can take a block off the closed form.
    // ---- Noise is disabled in `engine`, so contention never interferes
    // ---- with these structural asserts.

    /// Per-batch increments of `fast_batches` over the next `n` batches.
    fn fast_deltas(e: &mut StreamingEngine, n: usize) -> Vec<u64> {
        (0..n)
            .map(|_| {
                let before = e.superbatch_stats().fast_batches;
                e.run_batches(1);
                e.superbatch_stats().fast_batches - before
            })
            .collect()
    }

    /// Every job started so far ran wholly on the closed form.
    fn assert_every_job_fast(e: &StreamingEngine, ctx: &str) {
        let started = e.queue.total_cut() - e.queue.len() as u64;
        let s = e.superbatch_stats();
        assert!(started > 0, "{ctx}: no job started");
        assert_eq!(s.fast_batches, started, "{ctx}: {s:?}");
        assert_eq!(s.fast_blocks, s.armed_blocks, "{ctx}: {s:?}");
        assert_eq!(s.quiescence_fallbacks, 0, "{ctx}: {s:?}");
    }

    #[test]
    fn superbatch_engages_on_the_first_batch_after_any_change() {
        // Reconfigure: a new interval and four fresh executors whose
        // one-time init lands inside the next job's blocks.
        let mut e = engine(10_000.0, 15.0, 10, 21);
        e.run_batches(4);
        e.apply_config(StreamConfig::new(SimDuration::from_secs(16), 14));
        let d = fast_deltas(&mut e, 5);
        assert_eq!(d, vec![1; 5], "reconfigure: {d:?}");
        assert_eq!(e.executors.count(), 14);
        assert_every_job_fast(&e, "reconfigure");

        let quiet = |rate: Box<dyn RateProcess>, faults| {
            let mut params = EngineParams::paper(WorkloadKind::LogisticRegression, 22);
            params.noise = NoiseParams::disabled();
            params.faults = FaultPlan::new(faults);
            let cfg = StreamConfig::new(SimDuration::from_secs(15), 14);
            StreamingEngine::new(params, cfg, rate)
        };
        let steady = || Box::new(ConstantRate::new(10_000.0));
        let crash = FaultEvent::ExecutorCrash {
            at: SimTime::from_secs_f64(100.0),
            count: 1,
            relaunch_after: Some(SimDuration::from_secs(30)),
        };
        let outage = FaultEvent::ReceiverOutage {
            from: SimTime::from_secs_f64(95.0),
            until: SimTime::from_secs_f64(110.0),
        };
        let surge = SurgeRate::scheduled(steady(), 1.2, 100.0, 20.0);
        for (ctx, mut e) in [
            ("crash and relaunch", quiet(steady(), vec![crash])),
            ("receiver outage", quiet(steady(), vec![outage])),
            ("rate surge", quiet(Box::new(surge), vec![])),
            // A 3 s interval is far below LR's crossover, so every batch
            // starts behind a non-empty queue.
            ("backlog", engine(10_000.0, 3.0, 10, 26)),
        ] {
            e.run_batches(15);
            assert_every_job_fast(&e, ctx);
            if ctx == "backlog" {
                assert!(e.queue_len() > 0, "the regime must actually be congested");
            }
        }
    }

    #[test]
    fn superbatch_falls_back_per_block_during_slowdown_window() {
        let mut params = EngineParams::paper(WorkloadKind::LogisticRegression, 23);
        params.noise = NoiseParams::disabled();
        params.faults = FaultPlan::new(vec![FaultEvent::NodeSlowdown {
            node: 1,
            from: SimTime::from_secs_f64(100.0),
            until: SimTime::from_secs_f64(140.0),
            factor: 0.8,
        }]);
        let mut e = StreamingEngine::new(
            params,
            StreamConfig::new(SimDuration::from_secs(15), 14),
            Box::new(ConstantRate::new(10_000.0)),
        );
        e.run_batches(6); // through t = 90: window not yet open
        let before = e.superbatch_stats();
        assert_eq!(before.quiescence_fallbacks, 0, "quiet before the window");
        assert!(before.fast_batches >= 3);
        e.run_batches(4); // spans the [100 s, 140 s) slowdown window
        let during = e.superbatch_stats();
        // Every job is armed, but node 1's blocks fail `block_quiet` and
        // fall back per task, while other nodes' blocks stay fast.
        assert!(
            during.quiescence_fallbacks >= 2,
            "window batches keep arming but fall back: {during:?}"
        );
        assert!(
            during.eligible_blocks < during.armed_blocks,
            "dirty blocks must be counted ineligible: {during:?}"
        );
        assert!(
            during.fast_blocks > before.fast_blocks,
            "blocks off the slowed node still go fast: {during:?}"
        );
        let d = fast_deltas(&mut e, 3);
        assert!(
            d[1..].iter().all(|&x| x == 1),
            "whole batches go fast again after the window closes: {d:?}"
        );
    }
}
