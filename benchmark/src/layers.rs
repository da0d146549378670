//! Outside-in layer timing.
//!
//! Nothing here reaches inside a crate. Layers are timed in two ways:
//!
//! * by wrapping the trait objects the program already accepts —
//!   [`RecordingRate`] (`RateProcess`), [`TimedSystem`]
//!   (`StreamingSystem`) and [`TimedTuner`] (`Tuner`);
//! * by replaying recorded calls into a layer's public functions in one
//!   timed loop — [`RateReplay`] (`rate_at` on a rebuilt process),
//!   [`WireReplay`] (the status-report JSON round trip) and
//!   [`ArbiterReplay`] (`arbitrate_sparse`/`arbitrate` on a standalone
//!   arbiter).
//!
//! Timing each `rate_at` call directly would cost more than the call, so
//! the rate wrapper only records the instant and value; the replay then
//! times the same calls back to back and checks every value bit for bit.
//! Replays run between controller rounds, outside every timed span, and
//! the callers subtract their wall time from the traced run.

use nostop_baselines::Tuner;
use nostop_core::arbiter::{ArbiterPolicy, ResourceRequest};
use nostop_core::listener::StatusReport;
use nostop_core::system::{BatchObservation, StreamingSystem};
use nostop_datagen::rate::RateProcess;
use nostop_simcore::SimTime;
use spark_sim::{BatchMetrics, ExecutorArbiter, FleetSim, SimSystem};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Recorded `rate_at` calls move to the shared log in chunks of this many,
/// so the wrapper takes the lock once per chunk rather than once per call.
const RATE_CHUNK: usize = 1 << 12;

/// Replay once this many calls or reports are pending, which bounds the
/// memory a long run holds for replay.
pub const REPLAY_AT: usize = 1 << 18;

fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

type RateLog = Arc<Mutex<Vec<(SimTime, f64)>>>;

/// A `RateProcess` that forwards every trait method to the process it
/// wraps and records each `rate_at` instant with the value returned.
///
/// Every method must be forwarded: without `constant()` the generator
/// loses its dispatch skip, and without `next_change_at()` the fleet's
/// horizon check never passes — either way the wrapped run would measure
/// a different program.
pub struct RecordingRate {
    inner: Box<dyn RateProcess>,
    local: Vec<(SimTime, f64)>,
    log: RateLog,
}

impl RecordingRate {
    fn flush(&mut self) {
        // Called from `Drop` too, so a poisoned lock is skipped rather than
        // unwrapped; the replay then reports the lost calls as mismatches.
        if let Ok(mut log) = self.log.lock() {
            log.append(&mut self.local);
        }
    }
}

impl RateProcess for RecordingRate {
    fn rate_at(&mut self, t: SimTime) -> f64 {
        let r = self.inner.rate_at(t);
        self.local.push((t, r));
        if self.local.len() == RATE_CHUNK {
            self.flush();
        }
        r
    }

    fn bounds(&self) -> Option<(f64, f64)> {
        self.inner.bounds()
    }

    fn constant(&self) -> Option<f64> {
        self.inner.constant()
    }

    fn next_change_at(&self, after: SimTime) -> SimTime {
        self.inner.next_change_at(after)
    }
}

impl Drop for RecordingRate {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Replays recorded `rate_at` calls on a second instance of the process,
/// built from the same spec and seed, and times them in one loop.
pub struct RateReplay {
    shadow: Box<dyn RateProcess>,
    log: RateLog,
    /// The calls being replayed; swapped with the log so neither side
    /// reallocates from scratch each time.
    calls: Vec<(SimTime, f64)>,
    out: Vec<f64>,
    /// Calls replayed.
    pub calls_replayed: u64,
    /// Nanoseconds inside the replayed `rate_at` calls.
    pub ns: u64,
    /// Replayed values that differ from the recorded ones.
    pub mismatches: u64,
}

impl RateReplay {
    /// Calls recorded but not yet replayed (a chunk still held by the
    /// wrapper is not counted until it is flushed).
    pub fn pending(&self) -> usize {
        self.log.lock().expect("rate log poisoned").len()
    }

    /// Replay and clear every pending call.
    pub fn replay(&mut self) {
        std::mem::swap(
            &mut self.calls,
            &mut *self.log.lock().expect("rate log poisoned"),
        );
        self.out.clear();
        self.out.reserve(self.calls.len());
        let start = Instant::now();
        for &(t, _) in &self.calls {
            self.out.push(self.shadow.rate_at(t));
        }
        self.ns += ns_since(start);
        self.calls_replayed += self.calls.len() as u64;
        self.mismatches += self
            .calls
            .iter()
            .zip(&self.out)
            .filter(|((_, recorded), replayed)| recorded.to_bits() != replayed.to_bits())
            .count() as u64;
        self.calls.clear();
    }
}

/// Wrap the process `build()` returns and prepare its replay on a second
/// instance from the same builder. `build` must be a pure function of
/// its captured spec and seed.
pub fn record_rate(build: impl Fn() -> Box<dyn RateProcess>) -> (Box<dyn RateProcess>, RateReplay) {
    let log = RateLog::default();
    let wrapped = RecordingRate {
        inner: build(),
        local: Vec::with_capacity(RATE_CHUNK),
        log: Arc::clone(&log),
    };
    let replay = RateReplay {
        shadow: build(),
        log,
        calls: Vec::new(),
        out: Vec::new(),
        calls_replayed: 0,
        ns: 0,
        mismatches: 0,
    };
    (Box::new(wrapped), replay)
}

/// Replays recorded batches through the status-report wire format — the
/// JSON round trip `SimSystem::next_batch` performs on every batch.
#[derive(Default)]
pub struct WireReplay {
    metrics: Vec<BatchMetrics>,
    /// What the controller received for each batch, when known.
    seen: Vec<BatchObservation>,
    out: Vec<BatchObservation>,
    buf: String,
    /// Reports replayed.
    pub reports: u64,
    /// Nanoseconds inside the replayed round trips.
    pub ns: u64,
    /// Round trips that failed to parse or differ from what was seen.
    pub mismatches: u64,
}

impl WireReplay {
    /// Record one batch; `seen` is the observation the controller got.
    pub fn push(&mut self, m: BatchMetrics, seen: Option<BatchObservation>) {
        self.metrics.push(m);
        self.seen.extend(seen);
    }

    /// Batches recorded but not yet replayed.
    pub fn pending(&self) -> usize {
        self.metrics.len()
    }

    /// Replay and clear every pending batch.
    pub fn replay(&mut self) {
        self.out.clear();
        let mut errors = 0u64;
        let start = Instant::now();
        for m in &self.metrics {
            self.buf.clear();
            m.to_status_report().write_json(&mut self.buf);
            match StatusReport::from_json(&self.buf) {
                Ok(report) => self.out.push(report.to_observation()),
                Err(_) => errors += 1,
            }
        }
        self.ns += ns_since(start);
        self.reports += self.metrics.len() as u64;
        self.mismatches += errors;
        if errors == 0 && !self.seen.is_empty() {
            self.mismatches += (self.seen.len() != self.out.len()) as u64
                + self
                    .seen
                    .iter()
                    .zip(&self.out)
                    .filter(|(a, b)| a != b)
                    .count() as u64;
        }
        self.metrics.clear();
        self.seen.clear();
    }
}

/// A `StreamingSystem` wrapper around [`SimSystem`] that times both
/// trait methods and records each batch for the wire replay.
pub struct TimedSystem {
    /// The wrapped system.
    pub inner: SimSystem,
    /// Nanoseconds inside `next_batch` and `apply_config` — the engine,
    /// its rate process and the wire round trip together.
    pub ns: u64,
    /// `apply_config` calls.
    pub reconfigs: u64,
    /// Batches recorded for the wire replay.
    pub wire: WireReplay,
}

impl TimedSystem {
    /// Wrap `inner`.
    pub fn new(inner: SimSystem) -> Self {
        TimedSystem {
            inner,
            ns: 0,
            reconfigs: 0,
            wire: WireReplay::default(),
        }
    }
}

impl StreamingSystem for TimedSystem {
    fn apply_config(&mut self, physical: &[f64]) {
        let start = Instant::now();
        self.inner.apply_config(physical);
        self.ns += ns_since(start);
        self.reconfigs += 1;
    }

    fn next_batch(&mut self) -> BatchObservation {
        let start = Instant::now();
        let obs = self.inner.next_batch();
        self.ns += ns_since(start);
        let m = *self
            .inner
            .engine()
            .listener()
            .last()
            .expect("next_batch completed a batch");
        self.wire.push(m, Some(obs));
        obs
    }

    fn now_s(&self) -> f64 {
        self.inner.now_s()
    }
}

/// A `Tuner` wrapper that times `propose` and `observe` and forwards the
/// rest.
pub struct TimedTuner<T: Tuner> {
    /// The wrapped tuner.
    pub inner: T,
    /// Nanoseconds inside `propose`.
    pub propose_ns: u64,
    /// Nanoseconds inside `observe`.
    pub observe_ns: u64,
}

impl<T: Tuner> TimedTuner<T> {
    /// Wrap `inner`.
    pub fn new(inner: T) -> Self {
        TimedTuner {
            inner,
            propose_ns: 0,
            observe_ns: 0,
        }
    }
}

impl<T: Tuner> Tuner for TimedTuner<T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn propose(&mut self) -> Vec<f64> {
        let start = Instant::now();
        let p = self.inner.propose();
        self.propose_ns += ns_since(start);
        p
    }

    fn observe(&mut self, physical: &[f64], objective: f64) {
        let start = Instant::now();
        self.inner.observe(physical, objective);
        self.observe_ns += ns_since(start);
    }

    fn best(&self) -> Option<(Vec<f64>, f64)> {
        self.inner.best()
    }

    fn evaluations(&self) -> usize {
        self.inner.evaluations()
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }
}

/// Replays each fleet barrier on a standalone [`ExecutorArbiter`] with
/// the fleet's budget, policy, coalescing threshold and checkpointing.
///
/// After every `step_epoch`, the barrier's requests are rebuilt from
/// public state — each tenant's `desired_executors()`, its spec priority,
/// and the furthest tenant clock as the frontier — and presented the way
/// the fleet's phase B presents them: the sparse pass over changed wants
/// first, with the dense pass as its fallback.
pub struct ArbiterReplay {
    arbiter: ExecutorArbiter,
    priorities: Vec<u32>,
    last_wants: Vec<u32>,
    /// Barriers replayed.
    pub barriers: u64,
    /// Barriers the sparse pass served.
    pub sparse: u64,
    /// Nanoseconds inside `arbitrate_sparse`/`arbitrate`.
    pub ns: u64,
    /// Barriers whose grants differ from the fleet's.
    pub mismatches: u64,
}

impl ArbiterReplay {
    /// A replay arbiter mirroring a fleet built with these arguments.
    pub fn new(
        budget: Option<u32>,
        policy: ArbiterPolicy,
        checkpoint_capacity: usize,
        priorities: Vec<u32>,
    ) -> Self {
        let mut arbiter = ExecutorArbiter::new(budget, policy, FleetSim::DEFAULT_COALESCE_K);
        arbiter.enable_ledger_checkpointing(checkpoint_capacity);
        ArbiterReplay {
            arbiter,
            priorities,
            last_wants: Vec::new(),
            barriers: 0,
            sparse: 0,
            ns: 0,
            mismatches: 0,
        }
    }

    /// The replay arbiter (stats, ledger).
    pub fn arbiter(&self) -> &ExecutorArbiter {
        &self.arbiter
    }

    /// Replay the barrier `fleet` just ran and compare grants exactly.
    pub fn barrier(&mut self, fleet: &FleetSim) {
        let n = fleet.tenants();
        let requests: Vec<ResourceRequest> = (0..n)
            .map(|i| ResourceRequest {
                tenant: i as u32,
                priority: self.priorities[i],
                want: fleet.tenant_system(i).engine().desired_executors(),
            })
            .collect();
        let frontier = (0..n)
            .map(|i| fleet.tenant_system(i).engine().now())
            .max()
            .unwrap_or(SimTime::ZERO);
        let epoch = fleet.epoch() - 1;
        let changed: Option<Vec<usize>> = (self.last_wants.len() == n).then(|| {
            (0..n)
                .filter(|&i| requests[i].want != self.last_wants[i])
                .collect()
        });
        let start = Instant::now();
        let sparse = changed.and_then(|changed| {
            self.arbiter
                .arbitrate_sparse(epoch, frontier, &requests, &changed)
        });
        let served_sparse = sparse.is_some();
        let grants = sparse.unwrap_or_else(|| self.arbiter.arbitrate(epoch, frontier, &requests));
        self.ns += ns_since(start);
        self.barriers += 1;
        self.sparse += served_sparse as u64;
        self.last_wants.clear();
        self.last_wants.extend(requests.iter().map(|r| r.want));
        let fleet_grants = fleet.last_grants();
        let same = grants.len() == fleet_grants.len()
            && grants.iter().zip(fleet_grants).all(|(a, b)| {
                a.tenant == b.tenant
                    && a.granted == b.granted
                    && a.satisfied == b.satisfied
                    && a.pressure.to_bits() == b.pressure.to_bits()
            });
        self.mismatches += !same as u64;
    }
}
