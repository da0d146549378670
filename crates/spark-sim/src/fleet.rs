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
//! * **Phase A (tenant-parallel).** Every tenant runs exactly one
//!   controller round ([`NoStop::run_round`]) against its own engine.
//!   Tenants share no mutable state — separate engines, separate RNG
//!   forks, separate trace rings — so phase A is embarrassingly parallel
//!   and its results are independent of worker count and execution order.
//! * **Phase B (serial barrier).** The fleet collects every tenant's
//!   executor demand (the controller's unclamped want, via
//!   [`StreamingEngine::desired_executors`]) into an id-ordered
//!   [`ResourceRequest`] vector and runs one arbiter pass. The resulting
//!   grants become per-engine executor caps, and the fleet-wide
//!   oversubscription pressure feeds each tenant's noise model (the
//!   noisy-neighbor slowdown).
//!
//! Phase B is serial and id-ordered, so the whole fleet is a pure
//! function of `(tenant specs, budget, policy)` — the determinism battery
//! replays it bit-for-bit at any `NOSTOP_JOBS` worker count and under any
//! phase-A execution order.
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
//! boundary (see [`QuiescenceShape`]) and,
//! once a tenant is proven to be on a periodic orbit — two consecutive
//! epochs bitwise-identical up to a time shift — replays subsequent
//! epochs from the recorded template instead of simulating them: the
//! controller round runs for real against a `ReplayDriver` that feeds
//! it the previous epoch's observations shifted by the period, and the
//! engine's bookkeeping advances in closed form
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
use nostop_obs::{track_name, Recorder};
use nostop_simcore::{fnv1a64, jobs_env, json, probe_mode, SimDuration, SimRng, SimTime};
use nostop_workloads::WorkloadKind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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
    /// varies with the id so neighboring tenants stay distinguishable.
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

/// `b` as the dense engine would have produced it `k` epochs later on a
/// periodic orbit of period `delta` cutting `n` batches per epoch: all
/// three timestamps shift by `k·delta` (exact integer microseconds), the
/// batch id by `k·n`, and every other field — records, interval, ingest
/// window, executors, stages, busy cores — is time-invariant and carries
/// over bitwise ([`BatchMetrics`] holds no floats).
fn shift_batch(b: &BatchMetrics, delta: SimDuration, n: u64, k: u64) -> BatchMetrics {
    let shift = delta * k;
    BatchMetrics {
        batch_id: b.batch_id + n * k,
        submitted_at: b.submitted_at + shift,
        started_at: b.started_at + shift,
        completed_at: b.completed_at + shift,
        ..*b
    }
}

/// The proven-periodic epoch an armed tenant replays.
struct ArmedTemplate {
    /// The base epoch's batches, in completion order.
    batches: Vec<BatchMetrics>,
    /// Epoch period, exact integer microseconds.
    delta: SimDuration,
    /// Broker per-partition offset advance over one epoch.
    dpp: u64,
    /// Superbatch counter advance over one epoch.
    stats_delta: SuperbatchStats,
    /// The boundary shape that must hold bitwise at every boundary.
    shape: QuiescenceShape,
    /// Clock at the base epoch's end boundary.
    at: SimTime,
    /// `listener.completed()` at the base boundary.
    cursor: u64,
    /// Epochs advanced past the base epoch (replayed or dense-verified).
    k: u64,
}

/// Per-tenant quiescence classification. Arming takes three consecutive
/// epoch boundaries: one passing structural probe (`Candidate`), a second
/// with a bitwise-equal shape capturing the epoch's batch slice
/// (`Arming`), and a third whose slice reproduces the previous one
/// shifted by exactly the period (`Armed`). Every check is exact — shape
/// equality covers all RNG stream positions (a quiescent epoch draws
/// zero random values), and batch equality is field-wise on integers.
enum Quiescence {
    /// Not at an idle fixed point (or never probed).
    Cold,
    /// One passing probe at an epoch boundary.
    Candidate {
        probe: QuiescenceProbe,
        at: SimTime,
        cursor: u64,
    },
    /// Two consecutive passing probes with the epoch slice between them.
    Arming {
        probe: QuiescenceProbe,
        at: SimTime,
        cursor: u64,
        batches: Vec<BatchMetrics>,
        delta: SimDuration,
        dpp: u64,
        stats_delta: SuperbatchStats,
    },
    /// On a proven periodic orbit; eligible for fast-forward.
    Armed(ArmedTemplate),
}

/// A [`StreamingSystem`] that re-enacts an armed tenant's template epoch
/// against the *real* controller: `next_batch` produces the base epoch's
/// batches shifted `k` periods forward, pushes them into the engine's
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
    delta: SimDuration,
    /// Periods past the template's base epoch this replay enacts.
    k: u64,
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
        let m = shift_batch(base, self.delta, self.batches.len() as u64, self.k);
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
    /// epoch (`(from_us, until_us)` of the horizon) — mode-independent,
    /// feeds the `fleet.fastforward` span and counter.
    would_skip: Option<(u64, u64)>,
    /// Whether the epoch was actually fast-forwarded (fast path only).
    skipped: bool,
}

/// The fleet: N tenants stepped in epoch barriers against a shared
/// executor budget. See the module docs.
pub struct FleetSim {
    tenants: Vec<Tenant>,
    arbiter: ExecutorArbiter,
    epoch: u64,
    /// Phase-A execution order (a permutation of tenant indices). A test
    /// hook: results must not depend on it.
    step_order: Vec<usize>,
    /// Phase-A worker threads.
    jobs: usize,
    /// Last barrier's grants, for inspection.
    last_grants: Vec<TenantGrant>,
    /// When false (probe mode, `NOSTOP_PROBE=1`), every
    /// classification check still runs but every epoch steps densely.
    fastpath: bool,
    /// Set by [`FleetSim::enable_recorders`]: per-batch engine trace
    /// events only exist on the dense path, so recording disables actual
    /// fast-forwarding (classification still runs).
    recorders_enabled: bool,
    /// Each tenant's want at the previous barrier — the delta-driven
    /// barrier presents only the changed tenants to the arbiter.
    last_wants: Vec<u32>,
    /// Every actually fast-forwarded epoch: `(tenant, epoch, from_us,
    /// until_us)`. Outside the digest; the property battery asserts no
    /// span covers a wake event.
    skip_log: Vec<(u32, u64, u64, u64)>,
    /// Epochs classified as skippable (mode-independent).
    would_skip_epochs: u64,
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
    /// (`None` = unlimited) under `policy`. Worker count comes from
    /// `NOSTOP_JOBS` (default 1); it affects wall-clock only, never
    /// results.
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
        let jobs = jobs_env().unwrap_or(1);
        FleetSim {
            step_order: (0..tenants.len()).collect(),
            tenants,
            arbiter: ExecutorArbiter::new(budget, policy, Self::DEFAULT_COALESCE_K),
            epoch: 0,
            jobs,
            last_grants: Vec::new(),
            fastpath: !probe_mode(),
            recorders_enabled: false,
            last_wants: Vec::new(),
            skip_log: Vec::new(),
            would_skip_epochs: 0,
            skipped_epochs: 0,
            fleet_recorder: Recorder::disabled(),
            fleet_obs: Recorder::disabled(),
        }
    }

    /// Attach a private trace ring of `capacity` events to every tenant
    /// (tracks `t{i}.engine` / `t{i}.ctrl`) and one to the arbiter
    /// (track `arbiter`). Per-tenant rings keep phase-A parallelism
    /// race-free *and* byte-deterministic: no cross-tenant interleaving
    /// exists to depend on worker scheduling.
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

    /// Override the phase-A worker count (tests; wall-clock only).
    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = jobs.max(1);
    }

    /// Override the phase-A execution order — must be a permutation of
    /// `0..tenants()`. A determinism test hook: results must be
    /// identical under any order.
    pub fn set_step_order(&mut self, order: Vec<usize>) {
        assert_eq!(
            order.len(),
            self.tenants.len(),
            "order must cover all tenants"
        );
        let mut seen = vec![false; order.len()];
        for &i in &order {
            assert!(i < seen.len() && !seen[i], "order must be a permutation");
            seen[i] = true;
        }
        self.step_order = order;
    }

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
        self.would_skip_epochs
    }

    /// Every fast-forwarded epoch as `(tenant, epoch, from_us,
    /// until_us)` — outside the digest; the property battery checks that
    /// no span covers a fault or rate-change event.
    pub fn skip_log(&self) -> &[(u32, u64, u64, u64)] {
        &self.skip_log
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

    /// One epoch: phase A (tenant-parallel controller rounds, replayed
    /// in closed form for armed tenants), then phase B (the serial,
    /// delta-driven arbiter barrier), then quiescence classification at
    /// the boundary.
    pub fn step_epoch(&mut self) {
        self.phase_a();
        self.phase_b();
        self.classify();
        self.epoch += 1;
    }

    /// One tenant's phase-A round: classify skip eligibility (always),
    /// then either fast-forward the epoch from the armed template or run
    /// the dense controller round. Runs on exactly one worker per tenant
    /// and touches no shared state.
    fn step_tenant(t: &mut Tenant, fastpath: bool, recorders: bool) {
        t.skipped = false;
        t.would_skip = match &t.quiescence {
            // Skippable only when the controller will take the paused
            // path and no wake-worthy event — fault, rate change point,
            // contention episode — lies inside the epoch's horizon. The
            // horizon check runs every epoch, so a fast-forwarded tenant
            // always re-enters dense stepping the epoch before its first
            // scheduled event.
            Quiescence::Armed(tpl) if t.ctrl.is_paused() => {
                let from = t.sys.engine().now();
                let until = from + tpl.delta;
                t.sys
                    .engine()
                    .horizon_quiet(from, until)
                    .then(|| (from.as_micros(), until.as_micros()))
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
        let Quiescence::Armed(tpl) = &t.quiescence else {
            unreachable!("skip decision implies an armed template");
        };
        let n = tpl.batches.len();
        let k = tpl.k + 1;
        let mut driver = ReplayDriver {
            engine: t.sys.engine_mut(),
            batches: &tpl.batches,
            delta: tpl.delta,
            k,
            idx: 0,
        };
        let outcome = t.ctrl.run_round(&mut driver);
        let idx = driver.idx;
        if idx == n {
            // The paused window consumed the whole template: commit the
            // epoch's closed-form bookkeeping. The engine is now bit-
            // identical to having stepped the epoch densely.
            let (delta, dpp, stats_delta) = (tpl.delta, tpl.dpp, tpl.stats_delta);
            t.sys
                .engine_mut()
                .fleet_fast_forward(delta, n as u64, dpp, &stats_delta);
            t.skipped = true;
            if matches!(outcome, RoundOutcome::Paused { .. }) {
                let Quiescence::Armed(tpl) = &mut t.quiescence else {
                    unreachable!();
                };
                tpl.k = k;
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

    /// Phase A: every tenant runs exactly one controller round. Workers
    /// claim contiguous chunks of `step_order` off a shared cursor; each
    /// tenant is touched by exactly one worker, and tenants share no
    /// mutable state, so the outcome is independent of `jobs`, the chunk
    /// size, and the order. Skip spans and counters are emitted serially
    /// in id order afterwards, keeping the fleet trace deterministic.
    fn phase_a(&mut self) {
        let (fastpath, recorders) = (self.fastpath, self.recorders_enabled);
        let jobs = self.jobs.min(self.step_order.len()).max(1);
        if jobs == 1 {
            for &i in &self.step_order {
                Self::step_tenant(&mut self.tenants[i], fastpath, recorders);
            }
        } else {
            let order = &self.step_order;
            // Chunked claiming: one atomic op per chunk instead of per
            // tenant. Sized so every worker gets several claims (load
            // balance) without the cursor becoming a hot line.
            let chunk = (order.len() / (jobs * 4)).clamp(1, 64);
            let slots: Vec<Mutex<&mut Tenant>> = self.tenants.iter_mut().map(Mutex::new).collect();
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..jobs {
                    scope.spawn(|| loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= order.len() {
                            break;
                        }
                        for k in start..(start + chunk).min(order.len()) {
                            let mut guard = slots[order[k]].lock().expect("tenant slot poisoned");
                            let t: &mut Tenant = &mut guard;
                            Self::step_tenant(t, fastpath, recorders);
                        }
                    });
                }
            });
        }
        // Serial, id-ordered bookkeeping: identical across worker counts
        // and across fast-path/probe modes (the span reflects the
        // classification outcome, not whether the skip was taken).
        for i in 0..self.tenants.len() {
            let (id, would_skip, skipped) = {
                let t = &self.tenants[i];
                (t.id, t.would_skip, t.skipped)
            };
            if let Some((from, until)) = would_skip {
                self.would_skip_epochs += 1;
                if skipped {
                    self.skipped_epochs += 1;
                    self.skip_log.push((id, self.epoch, from, until));
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

    /// Classify every densely-stepped tenant at the epoch boundary (runs
    /// after phase B so the shape captures the barrier's cap/pressure).
    /// Fast-forwarded tenants were already advanced in phase A — their
    /// template is correct by construction — and phase B demoted any
    /// tenant whose grant changed.
    fn classify(&mut self) {
        for t in self.tenants.iter_mut() {
            if t.skipped {
                continue;
            }
            let state = std::mem::replace(&mut t.quiescence, Quiescence::Cold);
            t.quiescence = Self::classify_tenant(state, t.sys.engine(), t.ctrl.is_paused());
        }
    }

    /// The classification state machine for one densely-stepped tenant.
    /// See [`Quiescence`] for the arming ladder; an armed tenant that was
    /// stepped densely (probe mode, traces on, or a non-quiet horizon)
    /// must reproduce its template shifted by the period to stay armed —
    /// the continuous cross-check that keeps both modes honest.
    fn classify_tenant(state: Quiescence, engine: &StreamingEngine, paused: bool) -> Quiescence {
        let Some(p) = (if paused {
            engine.quiescence_probe()
        } else {
            None
        }) else {
            return Quiescence::Cold;
        };
        let now = engine.now();
        let completed = engine.listener().completed();
        let restart = |p: QuiescenceProbe| Quiescence::Candidate {
            probe: p,
            at: now,
            cursor: completed,
        };
        match state {
            Quiescence::Cold => restart(p),
            Quiescence::Candidate {
                probe: p0,
                at: t0,
                cursor: c0,
            } => {
                let n = p.batches_cut.saturating_sub(p0.batches_cut);
                let slice = engine.listener().since(c0);
                if p.shape == p0.shape
                    && n > 0
                    && completed.saturating_sub(c0) == n
                    && slice.len() as u64 == n
                {
                    Quiescence::Arming {
                        probe: p,
                        at: now,
                        cursor: completed,
                        batches: slice.to_vec(),
                        delta: now.saturating_since(t0),
                        dpp: p
                            .produced_per_partition
                            .saturating_sub(p0.produced_per_partition),
                        stats_delta: p.superbatch_stats.delta_since(&p0.superbatch_stats),
                    }
                } else {
                    restart(p)
                }
            }
            Quiescence::Arming {
                probe: p1,
                at: t1,
                cursor: c1,
                batches,
                delta,
                dpp,
                stats_delta,
            } => {
                let n = batches.len() as u64;
                let slice = engine.listener().since(c1);
                let ok = p.shape == p1.shape
                    && now.saturating_since(t1) == delta
                    && !delta.is_zero()
                    && p.batches_cut.saturating_sub(p1.batches_cut) == n
                    && p.produced_per_partition
                        .saturating_sub(p1.produced_per_partition)
                        == dpp
                    && p.superbatch_stats.delta_since(&p1.superbatch_stats) == stats_delta
                    && completed.saturating_sub(c1) == n
                    && slice.len() as u64 == n
                    && slice
                        .iter()
                        .zip(&batches)
                        .all(|(b2, b1)| *b2 == shift_batch(b1, delta, n, 1));
                if ok {
                    Quiescence::Armed(ArmedTemplate {
                        batches: slice.to_vec(),
                        delta,
                        dpp,
                        stats_delta,
                        shape: p.shape,
                        at: now,
                        cursor: completed,
                        k: 0,
                    })
                } else {
                    restart(p)
                }
            }
            Quiescence::Armed(tpl) => {
                let n = tpl.batches.len() as u64;
                let k = tpl.k + 1;
                let slice = engine.listener().since(tpl.cursor + tpl.k * n);
                let ok = p.shape == tpl.shape
                    && now.saturating_since(tpl.at) == tpl.delta * k
                    && completed == tpl.cursor + k * n
                    && slice.len() as u64 == n
                    && slice
                        .iter()
                        .zip(&tpl.batches)
                        .all(|(b2, b1)| *b2 == shift_batch(b1, tpl.delta, n, k));
                if ok {
                    Quiescence::Armed(ArmedTemplate { k, ..tpl })
                } else {
                    restart(p)
                }
            }
        }
    }

    /// Phase B: collect demand in id order, arbitrate, apply caps and
    /// pressure. The arbiter's trace timestamps use the fleet frontier
    /// (the furthest tenant clock), which is monotone across barriers.
    ///
    /// The barrier is delta-driven: the fleet tracks every tenant's want
    /// from the previous barrier and presents the arbiter only the
    /// tenants whose demand changed ([`ExecutorArbiter::arbitrate_sparse`]).
    /// The sparse entry point is event- and ledger-identical to the dense
    /// pass and declines (returning `None`, falling back to the dense
    /// pass) whenever any condition it relies on does not hold.
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
        let grants = if self.last_wants.len() == requests.len() {
            let changed: Vec<usize> = requests
                .iter()
                .enumerate()
                .filter(|(i, r)| r.want != self.last_wants[*i])
                .map(|(i, _)| i)
                .collect();
            match self
                .arbiter
                .arbitrate_sparse(self.epoch, frontier, &requests, &changed)
            {
                Some(grants) => grants,
                None => self.arbiter.arbitrate(self.epoch, frontier, &requests),
            }
        } else {
            // First barrier (or the fleet grew): the dense pass seeds
            // every tenant's ledger state.
            self.arbiter.arbitrate(self.epoch, frontier, &requests)
        };
        self.last_wants.clear();
        self.last_wants.extend(requests.iter().map(|r| r.want));
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
    /// of the same fleet are byte-identical here regardless of
    /// `NOSTOP_JOBS` or step order — the replay battery's object.
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
        let run = |jobs: usize| {
            let specs = small_specs(4);
            let mut fleet = FleetSim::new(&specs, Some(24), ArbiterPolicy::FairShare);
            fleet.set_jobs(jobs);
            fleet.run_epochs(6);
            fleet.summary_jsonl()
        };
        let solo = run(1);
        assert_eq!(solo, run(4), "worker count changed results");
        assert!(!solo.is_empty());
    }

    #[test]
    fn step_order_does_not_change_results() {
        let specs = small_specs(5);
        let mut a = FleetSim::new(&specs, Some(20), ArbiterPolicy::StrictPriority);
        a.run_epochs(5);
        let mut b = FleetSim::new(&specs, Some(20), ArbiterPolicy::StrictPriority);
        b.set_step_order(vec![4, 2, 0, 3, 1]);
        b.set_jobs(3);
        b.run_epochs(5);
        assert_eq!(a.summary_jsonl(), b.summary_jsonl());
        assert_eq!(a.digest(), b.digest());
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
