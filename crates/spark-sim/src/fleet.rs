//! Fleet-scale multi-tenant simulation.
//!
//! One shared cluster, N independent streaming jobs ("tenants"), each
//! with its own [`StreamingEngine`], workload, rate process, fault plan,
//! and NoStop controller — all competing for a fleet-wide executor budget
//! owned by the [`ExecutorArbiter`]. This is the deployment the paper's
//! single-job evaluation abstracts away: real clusters run many streaming
//! applications at once, and a controller that optimizes its own job in
//! isolation meets its neighbors through the resource manager.
//!
//! ## Epoch barriers
//!
//! The fleet advances in *epochs*. Each epoch has two phases:
//!
//! * **Phase A (tenant rounds).** Every tenant, in id order, runs exactly
//!   one controller round ([`NoStop::run_round`]) against its own engine.
//!   Tenants share no mutable state — separate engines, separate RNG
//!   forks, separate trace rings — so no tenant's round can observe
//!   another's.
//! * **Phase B (serial barrier).** The fleet collects every tenant's
//!   executor demand (the controller's unclamped want, via
//!   [`StreamingEngine::desired_executors`]) into an id-ordered
//!   [`ResourceRequest`] vector and runs one arbiter pass. The resulting
//!   grants become per-engine executor caps, and the fleet-wide
//!   oversubscription pressure feeds each tenant's noise model (the
//!   noisy-neighbor slowdown).
//!
//! Both phases are serial and id-ordered, so the whole fleet is a pure
//! function of `(tenant specs, budget, policy)` — the determinism battery
//! replays it bit-for-bit, in the fast path and in probe mode.
//!
//! ## Degenerate case
//!
//! A 1-tenant fleet with an unlimited budget grants `want` every barrier,
//! so the cap stays `u32::MAX` (the identity) and the pressure stays
//! exactly `1.0` (a bitwise no-op in the task-speed product) — the fleet
//! run is bit-identical to driving the bare engine directly, which is the
//! headline differential test (`tests/fleet_differential.rs`).
//!
//! ## Sparse stepping
//!
//! At fleet scale most tenants spend most epochs *quiescent*: controller
//! paused at its optimum, constant arrival rate, no faults due, grant
//! unchanged. The fast path classifies each tenant at every epoch
//! boundary (see [`QuiescenceShape`]) and, once a tenant is proven to be
//! on a periodic orbit of some period `p ≤ MAX_PERIOD` — its newest
//! epoch bitwise-identical to the one `p` epochs earlier up to a time
//! shift — replays subsequent epochs phase by phase from the recorded
//! template instead of simulating them. The period is rarely 1: a
//! constant rate leaves the broker's fractional carry cycling every 2 or
//! 4 epochs. The controller round runs for real against a
//! `ReplayDriver` that feeds it the matching phase's observations
//! shifted by whole periods, and the engine's bookkeeping advances in
//! closed form and takes the phase's end shape
//! ([`StreamingEngine::fleet_fast_forward`]). A replayed epoch draws zero
//! RNG and is bit-identical to dense stepping; any wake condition (a
//! scheduled fault, a rate change point, a contention episode, a grant
//! revocation) fails the per-epoch horizon check and drops the tenant
//! back to dense stepping *before* the event. Setting `NOSTOP_PROBE=1`
//! keeps every classification check running but always steps densely —
//! the probe mode CI diffs byte-for-byte against the fast path.

use crate::adapter::SimSystem;
use crate::arbiter::{ExecutorArbiter, TenantGrant};
use crate::config::StreamConfig;
use crate::engine::{EngineParams, QuiescenceProbe, QuiescenceShape, StreamingEngine};
use crate::metrics::BatchMetrics;
use crate::noise::NoiseParams;
use crate::superbatch::SuperbatchStats;
use nostop_core::arbiter::{ArbiterPolicy, ResourceRequest};
use nostop_core::controller::{NoStop, NoStopConfig, RoundOutcome};
use nostop_core::space::{ConfigSpace, ParamSpec};
use nostop_core::system::{BatchObservation, StreamingSystem};
use nostop_datagen::rate::{tenant_seed, RateSpec, RateSpecExt};
use nostop_datagen::IngestStats;
use nostop_obs::{track_name, Recorder};
use nostop_simcore::{fnv1a64, json, probe_mode, SimDuration, SimRng, SimTime};
use nostop_workloads::WorkloadKind;
use std::collections::{BTreeMap, VecDeque};

/// The RNG stream (off the engine's master seed) that builds the
/// tenant's rate process. Streams 1–3 are the engine's own forks
/// (noise, job, fault); the fleet uses 4 for the rate process and 5 for
/// the controller seed. A bare-engine run that forks the same streams
/// reproduces a fleet tenant exactly.
pub const RATE_STREAM: u64 = 4;
/// The RNG stream that derives the controller's seed. See [`RATE_STREAM`].
pub const CONTROLLER_STREAM: u64 = 5;

/// Everything needed to build one fleet tenant. Plain data — the fleet
/// (or a differential test) instantiates engines and controllers from it
/// deterministically.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Engine parameters: cluster, workload, noise, fault plan, and the
    /// tenant's master seed.
    pub params: EngineParams,
    /// Starting configuration.
    pub initial: StreamConfig,
    /// Arrival-rate process, built from [`RATE_STREAM`] of the master
    /// seed.
    pub rate: RateSpec,
    /// Controller configuration.
    pub controller: NoStopConfig,
    /// Arbiter scheduling priority (larger = more important).
    pub priority: u32,
}

impl TenantSpec {
    /// A paper-default tenant: Table-2 cluster, paper controller
    /// defaults, the paper's uniform-random rate, seed derived from
    /// `(fleet_seed, tenant)` via [`tenant_seed`] so fleets of any size
    /// share no RNG streams.
    pub fn paper(workload: WorkloadKind, fleet_seed: u64, tenant: u32) -> Self {
        TenantSpec {
            params: EngineParams::paper(workload, tenant_seed(fleet_seed, tenant)),
            initial: StreamConfig::paper_initial(),
            rate: RateSpec::UniformRandom {
                min_rate: 2_000.0,
                max_rate: 10_000.0,
                hold_secs: 60.0,
            },
            controller: NoStopConfig::paper_default(),
            priority: 1,
        }
    }

    /// A steady tenant: constant arrival rate, noise disabled, no faults
    /// — the workload mix a mature fleet converges to once its
    /// controllers park. Steady tenants reach a periodic orbit after the
    /// controller pauses and its observation window hits the cap, which
    /// is what the sparse fast path fast-forwards; the per-tenant rate
    /// (1,200 + 150·(id mod 5) rec/s) varies with the id so neighboring
    /// tenants stay distinguishable. Parked on 36 s epochs, those rates
    /// produce 1,350 + 168.75·(id mod 5) records per broker partition
    /// per epoch, so the orbit's period is 1, 4, 2, 4 or 1 epochs: the
    /// fractional carry repeats after that many.
    ///
    /// The config space's interval floor is raised to 3 s: the paper
    /// cluster's fixed per-batch overhead (~1.2–1.6 s of task launch and
    /// stage latency at 32 partitions) makes every park at the paper
    /// space's 1 s floor unstable (processing > interval), so a
    /// paper-space controller wakes after every pause and never
    /// quiesces. Use [`WorkloadKind::WordCount`] or
    /// [`WorkloadKind::PageAnalyze`]: the iterative ML workloads draw
    /// per-batch stage counts and so never quiesce.
    pub fn steady(workload: WorkloadKind, fleet_seed: u64, tenant: u32) -> Self {
        let mut params = EngineParams::paper(workload, tenant_seed(fleet_seed, tenant));
        params.noise = NoiseParams::disabled();
        let mut controller = NoStopConfig::paper_default();
        controller.space = ConfigSpace::new(
            vec![
                ParamSpec::new("batch-interval-s", 3.0, 40.0, 0.1),
                ParamSpec::new("num-executors", 1.0, 20.0, 1.0),
            ],
            1.0,
            20.0,
        );
        TenantSpec {
            params,
            initial: StreamConfig::paper_initial(),
            rate: RateSpec::Constant {
                rate: 1_200.0 + 150.0 * (tenant % 5) as f64,
            },
            controller,
            priority: 1,
        }
    }

    /// Build this tenant's engine (rate process from [`RATE_STREAM`]).
    pub fn build_engine(&self) -> StreamingEngine {
        let rate = self
            .rate
            .build(SimRng::seed_from_u64(self.params.seed).fork(RATE_STREAM));
        StreamingEngine::new(self.params.clone(), self.initial, rate)
    }

    /// Build this tenant's controller (seed from [`CONTROLLER_STREAM`]).
    pub fn build_controller(&self) -> NoStop {
        let seed = SimRng::seed_from_u64(self.params.seed)
            .fork(CONTROLLER_STREAM)
            .next_u64();
        NoStop::new(self.controller.clone(), seed)
    }
}

/// The longest orbit period, in epochs, the fast path arms on. The steady
/// fleets' broker carries cycle every 1, 2 or 4 epochs; a longer orbit
/// stays dense, and each tenant's ring and template hold at most this
/// many epochs of batches (plus one in the ring).
pub const MAX_PERIOD: usize = 8;

/// `b` as the dense engine would have produced it `k` periods later on an
/// orbit whose period lasts `period` and cuts `n` batches: all three
/// timestamps shift by `k·period` (exact integer microseconds), the batch
/// id by `k·n`, and every other field — records, interval, ingest window,
/// executors, stages, busy cores — is time-invariant and carries over
/// bitwise ([`BatchMetrics`] holds no floats).
fn shift_batch(b: &BatchMetrics, period: SimDuration, n: u64, k: u64) -> BatchMetrics {
    let shift = period * k;
    BatchMetrics {
        batch_id: b.batch_id + n * k,
        submitted_at: b.submitted_at + shift,
        started_at: b.started_at + shift,
        completed_at: b.completed_at + shift,
        ..*b
    }
}

/// A passing probe at a paused, densely stepped epoch boundary.
#[derive(Clone, Copy)]
struct Boundary {
    probe: QuiescenceProbe,
    /// The engine clock.
    at: SimTime,
    /// `listener.completed()`.
    cursor: u64,
}

/// One epoch between two consecutive passing boundaries: a ring entry
/// while a tenant is watched, one phase of its template once armed.
struct EpochRecord {
    /// The epoch's batches in completion order, copied out of the
    /// listener so arming never depends on how much history it keeps.
    batches: Vec<BatchMetrics>,
    /// Epoch duration, exact integer microseconds.
    delta: SimDuration,
    /// Broker per-partition offset advance over the epoch.
    dpp: u64,
    /// Superbatch counter advance over the epoch.
    stats_delta: SuperbatchStats,
    /// Ingest counter advance over the epoch.
    ingest_delta: IngestStats,
    /// The boundary shape at the epoch's end.
    shape: QuiescenceShape,
}

impl EpochRecord {
    /// The epoch from `from` to `to`, or `None` when it cut no batch or
    /// its batches are not all in the listener.
    fn between(from: &Boundary, to: &Boundary, engine: &StreamingEngine) -> Option<Self> {
        let n = to.probe.batches_cut.checked_sub(from.probe.batches_cut)?;
        let slice = engine.listener().since(from.cursor);
        let delta = to.at.saturating_since(from.at);
        (n > 0
            && to.cursor.checked_sub(from.cursor) == Some(n)
            && slice.len() as u64 == n
            && !delta.is_zero())
        .then(|| EpochRecord {
            batches: slice.to_vec(),
            delta,
            dpp: to
                .probe
                .produced_per_partition
                .saturating_sub(from.probe.produced_per_partition),
            stats_delta: to
                .probe
                .superbatch_stats
                .delta_since(&from.probe.superbatch_stats),
            ingest_delta: to.probe.ingest_stats.delta_since(&from.probe.ingest_stats),
            shape: to.probe.shape,
        })
    }
}

/// Total duration and batch count of `epochs`.
fn span<'a>(epochs: impl Iterator<Item = &'a EpochRecord>) -> (SimDuration, u64) {
    epochs.fold((SimDuration::ZERO, 0), |(d, n), r| {
        (d + r.delta, n + r.batches.len() as u64)
    })
}

/// Why the epochs ending `ring[last - p]` and `ring[last]` do not prove
/// an orbit of period `p`: the first shape field that differs (at the two
/// boundaries, or outside the phase fields anywhere inside the period),
/// `"counters"` when the epochs' durations or counter advances differ,
/// `"slice"` when the batches differ from those a period earlier shifted
/// by the period. `None` when the orbit is proven.
fn orbit_mismatch(ring: &VecDeque<EpochRecord>, p: usize) -> Option<&'static str> {
    let last = ring.len() - 1;
    let (a, b) = (&ring[last - p], &ring[last]);
    if let Some(field) = b.shape.first_difference(&a.shape) {
        return Some(field);
    }
    let period = ring.range(last + 1 - p..);
    if let Some(field) = period
        .clone()
        .find_map(|r| r.shape.invariant_difference(&b.shape))
    {
        return Some(field);
    }
    if a.delta != b.delta
        || a.batches.len() != b.batches.len()
        || a.dpp != b.dpp
        || a.stats_delta != b.stats_delta
        || a.ingest_delta != b.ingest_delta
    {
        return Some("counters");
    }
    let (duration, n) = span(period);
    let repeats = a
        .batches
        .iter()
        .zip(&b.batches)
        .all(|(b1, b2)| *b2 == shift_batch(b1, duration, n, 1));
    (!repeats).then_some("slice")
}

/// The proven-periodic orbit an armed tenant replays.
struct ArmedTemplate {
    /// The orbit's `p` epochs in order (`1 ≤ p ≤ MAX_PERIOD`), each with
    /// its own batches, counter advances and end-of-phase shape.
    phases: Vec<EpochRecord>,
    /// Duration of one period: the phases' deltas summed.
    period: SimDuration,
    /// Batches cut per period.
    per_period: u64,
    /// Clock at the last boundary the tenant reached on the orbit.
    at: SimTime,
    /// `listener.completed()` at that boundary.
    cursor: u64,
    /// Epochs advanced past the arming boundary (replayed or
    /// dense-verified). The next epoch is phase `k mod p` shifted by
    /// `k / p + 1` whole periods.
    k: u64,
}

impl ArmedTemplate {
    /// The phase the next epoch replays, and by how many whole periods
    /// its batches shift.
    fn next(&self) -> (&EpochRecord, u64) {
        let p = self.phases.len() as u64;
        (&self.phases[(self.k % p) as usize], self.k / p + 1)
    }

    /// Step past the next epoch once it was replayed or verified.
    fn advance(&mut self) {
        let (phase, _) = self.next();
        let (delta, n) = (phase.delta, phase.batches.len() as u64);
        self.at += delta;
        self.cursor += n;
        self.k += 1;
    }
}

/// A watched tenant's last boundary and its ring of the epochs before.
struct Watch {
    last: Boundary,
    ring: VecDeque<EpochRecord>,
}

/// Per-tenant quiescence classification. At every paused, densely
/// stepped boundary with a passing probe, the epoch that just ended joins
/// a ring of the last `MAX_PERIOD + 1` epochs; the tenant arms on the
/// smallest period `p` whose end shape, counter advances and shifted
/// batches repeat the epoch `p` earlier. Every check is exact — shape
/// equality covers all RNG stream positions (a quiescent epoch draws zero
/// random values), and batch equality is field-wise on integers.
enum Quiescence {
    /// Not at an idle fixed point (or never probed).
    Cold,
    /// Paused and idle at the last boundary; the ring is not yet long
    /// enough to show a repeat.
    Watching(Box<Watch>),
    /// On a proven periodic orbit; eligible for fast-forward.
    Armed(ArmedTemplate),
}

/// A [`StreamingSystem`] that re-enacts one phase of an armed tenant's
/// orbit against the *real* controller: `next_batch` produces the phase's
/// batches shifted whole periods forward, pushes them into the engine's
/// listener ([`StreamingEngine::replay_push`], which also advances the
/// clock exactly as the dense completion event would), and converts them
/// through the same `StatusReport` the dense wire path uses — the wire
/// format round-trips losslessly, so the controller observes bit-
/// identical values either way. A replayed round must never reconfigure:
/// the controller is paused, and the paused/reset/wake paths never call
/// `apply_config` (enforced by panic).
struct ReplayDriver<'a> {
    engine: &'a mut StreamingEngine,
    batches: &'a [BatchMetrics],
    period: SimDuration,
    per_period: u64,
    /// Whole periods the replayed batches shift.
    periods: u64,
    /// Batches consumed so far; must end at 0 (a reset round) or
    /// `batches.len()` (a full paused window).
    idx: usize,
}

impl StreamingSystem for ReplayDriver<'_> {
    fn apply_config(&mut self, _physical: &[f64]) {
        panic!("fleet fast path: a replayed controller round must not reconfigure");
    }

    fn next_batch(&mut self) -> BatchObservation {
        let base = &self.batches[self.idx];
        self.idx += 1;
        let m = shift_batch(base, self.period, self.per_period, self.periods);
        self.engine.replay_push(m);
        m.to_status_report().to_observation()
    }

    fn now_s(&self) -> f64 {
        self.engine.now().as_secs_f64()
    }
}

/// One tenant at runtime.
struct Tenant {
    id: u32,
    sys: SimSystem,
    ctrl: NoStop,
    priority: u32,
    /// Root of this tenant's private trace ring (disabled unless
    /// [`FleetSim::enable_recorders`] ran). Tracks `t{id}.engine` and
    /// `t{id}.ctrl` hang off it.
    recorder: Recorder,
    /// Quiescence classification, updated at every epoch boundary.
    quiescence: Quiescence,
    /// Set during phase A when the tenant classified as skippable this
    /// epoch (`(from_us, until_us)` of the horizon and the orbit's
    /// period) — mode-independent, feeds the `fleet.fastforward` span and
    /// the counters.
    would_skip: Option<(u64, u64, usize)>,
    /// Whether the epoch was actually fast-forwarded (fast path only).
    skipped: bool,
}

/// The fleet: N tenants stepped in epoch barriers against a shared
/// executor budget. See the module docs.
pub struct FleetSim {
    tenants: Vec<Tenant>,
    arbiter: ExecutorArbiter,
    epoch: u64,
    /// Last barrier's grants, for inspection.
    last_grants: Vec<TenantGrant>,
    /// When false (probe mode, `NOSTOP_PROBE=1`), every
    /// classification check still runs but every epoch steps densely.
    fastpath: bool,
    /// Set by [`FleetSim::enable_recorders`]: per-batch engine trace
    /// events only exist on the dense path, so recording disables actual
    /// fast-forwarding (classification still runs).
    recorders_enabled: bool,
    /// The epochs fast-forwarded at the latest step: `(tenant, from_us,
    /// until_us)`, cleared at the start of every phase A. Outside the
    /// digest; the property battery asserts no span covers a wake event.
    last_skips: Vec<(u32, u64, u64)>,
    /// Tenant-epochs by classification (mode-independent): index 0
    /// counts those not skippable, index `p` those skippable on an orbit
    /// of period `p`.
    would_skip_by_period: [u64; MAX_PERIOD + 1],
    /// Failed arming checks by reason (mode-independent); see
    /// [`FleetSim::arm_failures`].
    arm_failures: BTreeMap<&'static str, u64>,
    /// Epochs actually fast-forwarded (fast path only).
    skipped_epochs: u64,
    /// Root of the fleet's own trace ring (`fleet` track: fast-forward
    /// spans and the skipped-epochs counter).
    fleet_recorder: Recorder,
    /// The `fleet` track off `fleet_recorder`.
    fleet_obs: Recorder,
}

impl FleetSim {
    /// Default simultaneous-reconfiguration threshold for storm
    /// coalescing (K).
    pub const DEFAULT_COALESCE_K: usize = 3;

    /// Build a fleet over `specs` with `budget` executors fleet-wide
    /// (`None` = unlimited) under `policy`.
    pub fn new(specs: &[TenantSpec], budget: Option<u32>, policy: ArbiterPolicy) -> Self {
        let tenants: Vec<Tenant> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| Tenant {
                id: i as u32,
                sys: SimSystem::new(spec.build_engine()),
                ctrl: spec.build_controller(),
                priority: spec.priority,
                recorder: Recorder::disabled(),
                quiescence: Quiescence::Cold,
                would_skip: None,
                skipped: false,
            })
            .collect();
        FleetSim {
            tenants,
            arbiter: ExecutorArbiter::new(budget, policy, Self::DEFAULT_COALESCE_K),
            epoch: 0,
            last_grants: Vec::new(),
            fastpath: !probe_mode(),
            recorders_enabled: false,
            last_skips: Vec::new(),
            would_skip_by_period: [0; MAX_PERIOD + 1],
            arm_failures: BTreeMap::new(),
            skipped_epochs: 0,
            fleet_recorder: Recorder::disabled(),
            fleet_obs: Recorder::disabled(),
        }
    }

    /// Attach a private trace ring of `capacity` events to every tenant
    /// (tracks `t{i}.engine` / `t{i}.ctrl`) and one to the arbiter
    /// (track `arbiter`). Per-tenant rings keep each tenant's trace
    /// free of other tenants' events.
    pub fn enable_recorders(&mut self, capacity: usize) {
        for t in self.tenants.iter_mut() {
            let root = Recorder::ring(capacity);
            let engine_track = track_name(&format!("t{}.engine", t.id));
            let ctrl_track = track_name(&format!("t{}.ctrl", t.id));
            t.sys.engine_mut().set_recorder_track(&root, engine_track);
            t.ctrl.set_recorder_track(&root, ctrl_track);
            t.recorder = root;
        }
        let arb_root = Recorder::ring(capacity);
        self.arbiter.set_recorder(&arb_root);
        self.fleet_recorder = Recorder::ring(capacity);
        self.fleet_obs = self.fleet_recorder.with_track("fleet");
        // Dense stepping emits per-batch engine events a replayed epoch
        // cannot reproduce; with traces on, every epoch steps densely
        // (classification and the fleet.fastforward span still run).
        self.recorders_enabled = true;
    }

    /// Enable (default) or disable the quiescent-tenant fast path. With
    /// it off — equivalently, `NOSTOP_PROBE=1` at build time — every
    /// classification check still runs and every epoch steps densely: the
    /// probe mode the differential battery diffs against.
    pub fn set_fastpath(&mut self, enabled: bool) {
        self.fastpath = enabled;
    }

    /// Whether the fast path is enabled (see [`FleetSim::set_fastpath`]).
    pub fn fastpath_enabled(&self) -> bool {
        self.fastpath
    }

    /// Fold the arbiter's conservation-checked ledger prefix into an
    /// epoch-stamped snapshot whenever the tail outgrows `capacity` (see
    /// [`ExecutorArbiter::enable_ledger_checkpointing`]). Off by default.
    pub fn enable_ledger_checkpointing(&mut self, capacity: usize) {
        self.arbiter.enable_ledger_checkpointing(capacity);
    }

    /// Does nothing: phase A is one serial loop. Kept only because the
    /// benchmark's fleet workload still calls it; the next benchmark
    /// change deletes that call and this method.
    pub fn set_jobs(&mut self, _jobs: usize) {}

    /// Storm-coalescing threshold K (see [`ExecutorArbiter`]).
    pub fn set_coalesce_threshold(&mut self, k: usize) {
        self.arbiter.set_coalesce_threshold(k);
    }

    /// Number of tenants.
    pub fn tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Barriers completed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The arbiter (ledger, stats, allocations).
    pub fn arbiter(&self) -> &ExecutorArbiter {
        &self.arbiter
    }

    /// Tenant `i`'s system (engine + adapter).
    pub fn tenant_system(&self, i: usize) -> &SimSystem {
        &self.tenants[i].sys
    }

    /// Tenant `i`'s controller.
    pub fn tenant_controller(&self, i: usize) -> &NoStop {
        &self.tenants[i].ctrl
    }

    /// Tenant `i`'s trace as JSONL (empty unless recorders are enabled).
    pub fn tenant_trace_jsonl(&self, i: usize) -> String {
        self.tenants[i].recorder.snapshot().to_jsonl()
    }

    /// The grants issued at the most recent barrier.
    pub fn last_grants(&self) -> &[TenantGrant] {
        &self.last_grants
    }

    /// Epochs actually fast-forwarded so far (always 0 in probe mode and
    /// with recorders enabled).
    pub fn total_skipped_epochs(&self) -> u64 {
        self.skipped_epochs
    }

    /// Epochs classified as skippable so far — identical across the fast
    /// path and probe mode, whether or not they were actually skipped.
    pub fn would_skip_epochs(&self) -> u64 {
        self.would_skip_by_period[1..].iter().sum()
    }

    /// Tenant-epochs so far by classification: index 0 counts those not
    /// skippable, index `p` (1..=[`MAX_PERIOD`]) those skippable on an
    /// orbit of period `p`. Identical across the fast path and probe
    /// mode; the entries sum to tenants × epochs.
    pub fn would_skip_by_period(&self) -> [u64; MAX_PERIOD + 1] {
        self.would_skip_by_period
    }

    /// Failed arming checks so far, keyed by reason: the first
    /// [`QuiescenceShape`] field that differed, `"counters"` when an
    /// epoch's duration or counter advances differed, `"slice"` when its
    /// batches differed, were not all in the listener, or numbered none.
    /// A watched
    /// tenant counts one failure per boundary at which its ring held a
    /// repeat candidate and no period up to [`MAX_PERIOD`] fit (keyed by
    /// the longest period tried); an armed tenant stepped densely counts
    /// one when its epoch left the orbit. Identical across the fast path
    /// and probe mode.
    pub fn arm_failures(&self) -> &BTreeMap<&'static str, u64> {
        &self.arm_failures
    }

    /// The epochs fast-forwarded by the latest [`FleetSim::step_epoch`],
    /// as `(tenant, from_us, until_us)` in tenant-id order — outside the
    /// digest; the property battery checks that no span covers a fault or
    /// rate-change event.
    pub fn last_skips(&self) -> &[(u32, u64, u64)] {
        &self.last_skips
    }

    /// The fleet's own trace (fast-forward spans, skipped-epoch counter)
    /// as JSONL — empty unless recorders are enabled.
    pub fn fleet_trace_jsonl(&self) -> String {
        self.fleet_recorder.snapshot().to_jsonl()
    }

    /// Run `n` epochs (one controller round + one arbiter barrier each).
    pub fn run_epochs(&mut self, n: u64) {
        for _ in 0..n {
            self.step_epoch();
        }
    }

    /// One epoch: phase A (id-ordered controller rounds, replayed
    /// in closed form for armed tenants), then phase B (the serial
    /// arbiter barrier: one dense pass over every tenant's demand), then
    /// quiescence classification at the boundary.
    pub fn step_epoch(&mut self) {
        self.phase_a();
        self.phase_b();
        self.classify();
        self.epoch += 1;
    }

    /// One tenant's phase-A round: classify skip eligibility (always),
    /// then either fast-forward the epoch from the armed template or run
    /// the dense controller round. Touches no other tenant's state.
    fn step_tenant(t: &mut Tenant, fastpath: bool, recorders: bool) {
        t.skipped = false;
        t.would_skip = match &t.quiescence {
            // Skippable only when the controller will take the paused
            // path and no wake-worthy event — fault, rate change point,
            // contention episode — lies inside the horizon of the phase
            // to replay. The horizon check runs every epoch, so a
            // fast-forwarded tenant always re-enters dense stepping the
            // epoch before its first scheduled event.
            Quiescence::Armed(tpl) if t.ctrl.is_paused() => {
                let from = t.sys.engine().now();
                let until = from + tpl.next().0.delta;
                t.sys
                    .engine()
                    .horizon_quiet(from, until)
                    .then(|| (from.as_micros(), until.as_micros(), tpl.phases.len()))
            }
            _ => None,
        };
        if t.would_skip.is_none() || !fastpath || recorders {
            // Dense round: either the tenant is not on a provable orbit
            // (not armed, not paused, or a wake event is due inside the
            // horizon), or the skip is suppressed — probe mode and trace
            // recording step densely so the fast path is continuously
            // cross-checked byte-for-byte.
            t.ctrl.run_round(&mut t.sys);
            return;
        }
        let Quiescence::Armed(tpl) = &mut t.quiescence else {
            unreachable!("skip decision implies an armed template");
        };
        let (phase, periods) = tpl.next();
        let n = phase.batches.len();
        let mut driver = ReplayDriver {
            engine: t.sys.engine_mut(),
            batches: &phase.batches,
            period: tpl.period,
            per_period: tpl.per_period,
            periods,
            idx: 0,
        };
        let outcome = t.ctrl.run_round(&mut driver);
        let idx = driver.idx;
        if idx == n {
            // The paused window consumed the whole phase: commit the
            // epoch's closed-form bookkeeping and restore the phase's
            // end shape. The engine is now bit-identical to having
            // stepped the epoch densely.
            t.sys.engine_mut().fleet_fast_forward(
                n as u64,
                phase.dpp,
                &phase.stats_delta,
                phase.ingest_delta,
                &phase.shape,
            );
            t.skipped = true;
            if matches!(outcome, RoundOutcome::Paused { .. }) {
                tpl.advance();
            } else {
                // Woke (or reset after the window): the orbit ended by
                // the controller's own decision — identical to dense —
                // and the tenant re-arms from scratch if it re-settles.
                t.quiescence = Quiescence::Cold;
            }
        } else if idx == 0 {
            // A reset fired at the round head: zero batches consumed,
            // engine untouched — exactly what the dense round would have
            // done. Nothing to commit; the orbit is over.
            t.quiescence = Quiescence::Cold;
        } else {
            panic!("fleet fast path: replayed round consumed {idx} of {n} template batches");
        }
    }

    /// Phase A: every tenant, in id order, runs exactly one controller
    /// round, then its skip span and counters are emitted — identical
    /// across fast-path/probe modes (the span reflects the classification
    /// outcome, not whether the skip was taken).
    fn phase_a(&mut self) {
        self.last_skips.clear();
        let (fastpath, recorders) = (self.fastpath, self.recorders_enabled);
        for t in &mut self.tenants {
            Self::step_tenant(t, fastpath, recorders);
            let id = t.id;
            let period = t.would_skip.map_or(0, |(_, _, p)| p);
            self.would_skip_by_period[period] += 1;
            if let Some((from, until, _)) = t.would_skip {
                if t.skipped {
                    self.skipped_epochs += 1;
                    self.last_skips.push((id, from, until));
                }
                if self.fleet_obs.is_enabled() {
                    let enter = SimTime::from_micros(from);
                    let exit = SimTime::from_micros(until);
                    self.fleet_obs.enter(
                        enter,
                        "fleet.fastforward",
                        &[("tenant", id as f64), ("epoch", self.epoch as f64)],
                    );
                    self.fleet_obs.exit(
                        exit,
                        "fleet.fastforward",
                        &[("horizon_us", (until - from) as f64)],
                    );
                    self.fleet_obs.add(exit, "fleet.fastforward.epochs", 1);
                }
            }
        }
    }

    /// Classify every tenant at the epoch boundary (runs after phase B so
    /// the shape captures the barrier's cap/pressure). A fast-forwarded
    /// tenant still armed was already advanced in phase A — its template
    /// is correct by construction. One that fell cold (it woke, or phase
    /// B demoted it on a grant change) is classified like a dense one,
    /// so its ring restarts at the same boundary in both modes.
    fn classify(&mut self) {
        for t in self.tenants.iter_mut() {
            if t.skipped && matches!(t.quiescence, Quiescence::Armed(_)) {
                continue;
            }
            let state = std::mem::replace(&mut t.quiescence, Quiescence::Cold);
            let (next, failure) = Self::classify_tenant(state, t.sys.engine(), t.ctrl.is_paused());
            t.quiescence = next;
            if let Some(reason) = failure {
                *self.arm_failures.entry(reason).or_insert(0) += 1;
            }
        }
    }

    /// The classification state machine for one densely-stepped tenant,
    /// with the reason of the arming check that failed, if one did. See
    /// [`Quiescence`] for the ring; an armed tenant that was stepped
    /// densely (probe mode, traces on, or a non-quiet horizon) must
    /// reproduce its next phase shifted by whole periods to stay armed —
    /// the continuous cross-check that keeps both modes honest.
    fn classify_tenant(
        state: Quiescence,
        engine: &StreamingEngine,
        paused: bool,
    ) -> (Quiescence, Option<&'static str>) {
        let Some(probe) = paused.then(|| engine.quiescence_probe()).flatten() else {
            return (Quiescence::Cold, None);
        };
        let here = Boundary {
            probe,
            at: engine.now(),
            cursor: engine.listener().completed(),
        };
        let restart = |reason| {
            let ring = VecDeque::new();
            (
                Quiescence::Watching(Box::new(Watch { last: here, ring })),
                reason,
            )
        };
        match state {
            Quiescence::Cold => restart(None),
            Quiescence::Watching(mut watch) => {
                let Some(epoch) = EpochRecord::between(&watch.last, &here, engine) else {
                    return restart(Some("slice"));
                };
                let ring = &mut watch.ring;
                if ring.len() == MAX_PERIOD + 1 {
                    ring.pop_front();
                }
                ring.push_back(epoch);
                let mut failure = None;
                for p in 1..ring.len().min(MAX_PERIOD + 1) {
                    failure = orbit_mismatch(ring, p);
                    if failure.is_none() {
                        let phases: Vec<EpochRecord> = ring.drain(ring.len() - p..).collect();
                        let (period, per_period) = span(phases.iter());
                        let tpl = ArmedTemplate {
                            phases,
                            period,
                            per_period,
                            at: here.at,
                            cursor: here.cursor,
                            k: 0,
                        };
                        return (Quiescence::Armed(tpl), None);
                    }
                }
                watch.last = here;
                (Quiescence::Watching(watch), failure)
            }
            Quiescence::Armed(mut tpl) => {
                let (phase, periods) = tpl.next();
                let n = phase.batches.len() as u64;
                let slice = engine.listener().since(tpl.cursor);
                let failure = if here.at.saturating_since(tpl.at) != phase.delta
                    || here.cursor != tpl.cursor + n
                    || slice.len() as u64 != n
                {
                    Some("counters")
                } else if let Some(field) = here.probe.shape.first_difference(&phase.shape) {
                    Some(field)
                } else if !slice
                    .iter()
                    .zip(&phase.batches)
                    .all(|(b2, b1)| *b2 == shift_batch(b1, tpl.period, tpl.per_period, periods))
                {
                    Some("slice")
                } else {
                    None
                };
                match failure {
                    None => {
                        tpl.advance();
                        (Quiescence::Armed(tpl), None)
                    }
                    Some(_) => restart(failure),
                }
            }
        }
    }

    /// Phase B: collect demand in id order, run one dense arbiter pass
    /// ([`ExecutorArbiter::arbitrate`]) over the whole request vector,
    /// apply caps and pressure. The arbiter's trace timestamps use the
    /// fleet frontier (the furthest tenant clock), which is monotone
    /// across barriers.
    fn phase_b(&mut self) {
        let requests: Vec<ResourceRequest> = self
            .tenants
            .iter()
            .map(|t| ResourceRequest {
                tenant: t.id,
                priority: t.priority,
                want: t.sys.engine().desired_executors(),
            })
            .collect();
        let frontier = self
            .tenants
            .iter()
            .map(|t| t.sys.engine().now())
            .max()
            .unwrap_or(SimTime::ZERO);
        let grants = self.arbiter.arbitrate(self.epoch, frontier, &requests);
        for (t, g) in self.tenants.iter_mut().zip(&grants) {
            // A grant covering the full want means the arbiter imposes
            // nothing: the cap goes to u32::MAX (the identity), so an
            // unconstrained fleet is bit-identical to solo engines. A
            // short grant caps the engine at exactly the allocation
            // (the executor manager floors at 1 — a zero grant parks
            // the tenant on its minimum footprint).
            let cap = if g.granted >= requests[t.id as usize].want {
                u32::MAX
            } else {
                g.granted
            };
            let e = t.sys.engine();
            if cap != e.executor_cap() || g.pressure.to_bits() != e.fleet_pressure().to_bits() {
                // The barrier's assignment is not a bitwise no-op: the
                // tenant's boundary shape is about to change (a grant
                // revocation is a wake condition), so any orbit proof is
                // void. `set_executor_cap`/`set_fleet_pressure` are
                // strict no-ops on equality, so a quiescent tenant's
                // classification survives an unchanged grant untouched.
                t.quiescence = Quiescence::Cold;
            }
            t.sys.engine_mut().set_executor_cap(cap);
            t.sys.engine_mut().set_fleet_pressure(g.pressure);
        }
        self.last_grants = grants;
    }

    /// A deterministic JSONL fleet summary: one line per tenant (clock,
    /// RNG fingerprint, executors, listener totals, controller
    /// progress) followed by one line per arbiter-ledger entry. Two runs
    /// of the same fleet are byte-identical here, in the fast path and in
    /// probe mode — the replay battery's object.
    pub fn summary_jsonl(&self) -> String {
        let mut out = String::new();
        for t in &self.tenants {
            let e = t.sys.engine();
            let fp = e.rng_fingerprint();
            let line = json::obj(vec![
                ("tenant", json::uint(t.id as u64)),
                ("epoch", json::uint(self.epoch)),
                ("nowUs", json::uint(e.now().as_micros())),
                (
                    "rng",
                    json::Json::Arr(fp.iter().map(|&w| json::uint(w)).collect()),
                ),
                ("executors", json::uint(e.executor_count() as u64)),
                ("want", json::uint(e.desired_executors() as u64)),
                ("cap", json::uint(e.executor_cap() as u64)),
                ("produced", json::uint(e.total_produced())),
                ("dropped", json::uint(e.dropped_records())),
                ("queued", json::uint(e.queue_len() as u64)),
                ("rounds", json::uint(t.ctrl.rounds())),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        if let Some(cp) = self.arbiter.checkpoint() {
            out.push_str(&cp.to_json_value().to_string());
            out.push('\n');
        }
        for ev in self.arbiter.ledger() {
            out.push_str(&ev.to_json_value().to_string());
            out.push('\n');
        }
        out
    }

    /// FNV-1a digest of [`FleetSim::summary_jsonl`] — a compact replay
    /// fingerprint for reports and CI diffs.
    pub fn digest(&self) -> u64 {
        fnv1a64(self.summary_jsonl().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_specs(n: u32) -> Vec<TenantSpec> {
        (0..n)
            .map(|i| {
                let mut spec = TenantSpec::paper(WorkloadKind::WordCount, 2026, i);
                spec.priority = 1 + (i % 3);
                spec
            })
            .collect()
    }

    #[test]
    fn fleet_is_a_pure_function_of_specs_and_policy() {
        let run = || {
            let specs = small_specs(4);
            let mut fleet = FleetSim::new(&specs, Some(24), ArbiterPolicy::FairShare);
            fleet.run_epochs(6);
            fleet.summary_jsonl()
        };
        let first = run();
        assert_eq!(first, run(), "a second run changed results");
        assert!(!first.is_empty());
    }

    #[test]
    fn constrained_fleet_caps_and_pressures_tenants() {
        let specs = small_specs(3);
        let mut fleet = FleetSim::new(&specs, Some(6), ArbiterPolicy::FairShare);
        fleet.run_epochs(4);
        // Budget 6 over three tenants wanting ~10 each: everyone is
        // capped and the fleet is oversubscribed.
        let grants = fleet.last_grants();
        assert!(grants.iter().any(|g| !g.satisfied));
        for (i, g) in grants.iter().enumerate() {
            if !g.satisfied {
                let e = fleet.tenant_system(i).engine();
                assert!(e.executor_cap() < u32::MAX);
                assert!(e.fleet_pressure() < 1.0);
            }
        }
        // Conservation held at every ledger entry.
        crate::arbiter::check_ledger_conservation(fleet.arbiter().ledger()).unwrap();
    }

    #[test]
    fn unlimited_budget_leaves_tenants_uncapped() {
        let specs = small_specs(2);
        let mut fleet = FleetSim::new(&specs, None, ArbiterPolicy::FairShare);
        fleet.run_epochs(4);
        for i in 0..2 {
            let e = fleet.tenant_system(i).engine();
            assert_eq!(e.executor_cap(), u32::MAX);
            assert_eq!(e.fleet_pressure(), 1.0);
        }
        assert!(fleet.last_grants().iter().all(|g| g.satisfied));
    }

    #[test]
    fn steady_fleet_fast_forwards_and_matches_probe_mode() {
        let specs: Vec<TenantSpec> = (0..3)
            .map(|i| TenantSpec::steady(WorkloadKind::WordCount, 7, i))
            .collect();
        let mut fast = FleetSim::new(&specs, None, ArbiterPolicy::FairShare);
        fast.set_fastpath(true);
        let mut probe = FleetSim::new(&specs, None, ArbiterPolicy::FairShare);
        probe.set_fastpath(false);
        fast.run_epochs(80);
        probe.run_epochs(80);
        assert_eq!(
            fast.summary_jsonl(),
            probe.summary_jsonl(),
            "fast path diverged from dense stepping"
        );
        assert!(
            fast.total_skipped_epochs() > 0,
            "steady tenants never fast-forwarded"
        );
        assert_eq!(probe.total_skipped_epochs(), 0, "probe mode must not skip");
        assert_eq!(
            fast.would_skip_epochs(),
            probe.would_skip_epochs(),
            "classification diverged between modes"
        );
    }

    #[test]
    fn recorders_stay_per_tenant() {
        let specs = small_specs(2);
        let mut fleet = FleetSim::new(&specs, Some(12), ArbiterPolicy::FairShare);
        fleet.enable_recorders(8_192);
        fleet.run_epochs(3);
        let t0 = fleet.tenant_trace_jsonl(0);
        let t1 = fleet.tenant_trace_jsonl(1);
        if cfg!(feature = "obs-off") {
            assert!(t0.is_empty() && t1.is_empty());
        } else {
            assert!(t0.contains("\"t0.engine\""));
            assert!(!t0.contains("\"t1.engine\""), "tenant rings must not mix");
            assert!(t1.contains("\"t1.engine\""));
        }
    }
}
