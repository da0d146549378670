//! The NoStop controller — Algorithms 1 and 2.
//!
//! Each *round* of [`NoStop::run_round`] is one pass through Algorithm 1's
//! loop body against a live [`StreamingSystem`]:
//!
//! 1. `needResetCoefficient()` — if the input-rate reset rule has fired,
//!    restart: `k ← 0`, `θ ← θ_initial`, `ρ ← ρ_init` (Table 1).
//! 2. Otherwise, if paused, merely observe a window of batches (growing the
//!    window additively, §5.4) and watch for instability or rate shifts.
//! 3. Otherwise draw `Δ_k`, apply `checkBound(θ ± c_k Δ_k)` to the system
//!    in turn, and run Algorithm 2's *Adjust* ([`crate::measure`]) for
//!    each: reconfigure, settle, average a window of batches, and evaluate
//!    `G = interval + ρ · max(0, processing − interval)`.
//! 4. Step `θ ← checkBound(θ − a_k ĝ)`, ramp ρ, feed the pause rule with
//!    the measured end-to-end delays, and pause when the N best delays
//!    agree to within S.
//!
//! Exactly **two** reconfigurations happen per optimization round,
//! regardless of how many parameters are tuned — SPSA's defining economy.

use crate::measure::{self, Protocol};
use crate::objective::{ranking_objective, PenaltySchedule};
use crate::policy::window::MIN_BATCHES;
use crate::policy::{PauseRule, ResetRule, WindowPolicy};
use crate::sa::{Spsa, SpsaParams};
use crate::space::ConfigSpace;
use crate::system::{Measurement, StreamingSystem};
use crate::trace::{RoundKind, RoundRecord, Trace};
use crate::GainSchedule;
use nostop_obs::Recorder;
use nostop_simcore::{SimRng, SimTime};

/// Starting iterate (Table 1's θ_initial) in every *scaled* coordinate.
/// Paper: `{10, 10}` — near the middle of the `[1, 20]` scaled range.
const THETA_INITIAL_SCALED: f64 = 10.0;

/// Per-iteration cap on the SPSA step, in scaled units: a quarter of the
/// `[1, 20]` scaled range. See [`crate::sa::SpsaParams::max_step`].
const MAX_STEP_SCALED: f64 = 19.0 / 4.0;

/// Reset rule (§5.5): input-rate samples watched.
const RESET_WINDOW: usize = 12;

/// Restart the optimization once this many executor failures accumulate.
/// Executor loss shifts the service-rate regime the way a traffic surge
/// shifts the arrival regime (§5.5), so the same remedy applies: reset
/// coefficients and re-explore rather than inch toward the new optimum
/// with end-of-schedule gains.
const FAILURE_RESET_THRESHOLD: u32 = 3;

/// What callers choose about the controller. Everything else — the pause
/// rule, the measurement window, the step cap, θ_initial — is a paper
/// constant (see [`crate::policy`] and the constants in this module).
#[derive(Debug, Clone)]
pub struct NoStopConfig {
    /// The tunable parameter space (physical ranges + scaling).
    pub space: ConfigSpace,
    /// SPSA gain sequences (paper: `A = 1, a = 10, c = 2`).
    pub gains: GainSchedule,
    /// The ρ penalty ramp (paper: 1.0 + 0.1/iter, capped at 2.0).
    pub penalty: PenaltySchedule,
    /// Reset rule: input-rate std-dev threshold — records/second, or a
    /// fraction of the windowed mean rate when `reset_relative` is set.
    pub reset_threshold_speed: f64,
    /// Interpret `reset_threshold_speed` relative to the mean rate.
    pub reset_relative: bool,
    /// Level-shift detection fraction for the reset rule (`None` = off).
    pub reset_level_fraction: Option<f64>,
    /// Unpause when an observed batch is unstable by more than this factor
    /// (`processing > factor × interval`); 1.0 = any instability.
    pub unpause_instability_factor: f64,
}

impl NoStopConfig {
    /// The paper's §6.2.1 experimental configuration, with a reset
    /// threshold sized for the logistic-regression rate range.
    pub fn paper_default() -> Self {
        NoStopConfig {
            space: ConfigSpace::paper_default(),
            gains: GainSchedule::paper_default(),
            penalty: PenaltySchedule::paper_default(),
            reset_threshold_speed: 4_800.0,
            reset_relative: false,
            reset_level_fraction: Some(0.4),
            unpause_instability_factor: 1.05,
        }
    }

    /// Adapt the reset threshold to a workload's expected rate range. A
    /// uniform rate over `[min, max]` has an in-range sample std of at
    /// most half the width, so the threshold is set at 0.8 × width —
    /// expressed *relative to the mean rate*, so that after a permanent
    /// regime change the bar scales with the new level (the same benign
    /// fluctuation proportion stays benign) instead of firing forever.
    pub fn with_rate_range(mut self, min_rate: f64, max_rate: f64) -> Self {
        assert!(max_rate > min_rate, "invalid rate range");
        let mean = (max_rate + min_rate) / 2.0;
        self.reset_threshold_speed = (max_rate - min_rate) * 0.8 / mean;
        self.reset_relative = true;
        self
    }
}

/// What one controller round did (the caller-visible summary).
#[derive(Debug, Clone, PartialEq)]
pub enum RoundOutcome {
    /// A full SPSA iteration completed.
    Optimized {
        /// Mean end-to-end delay across the two perturbed measurements.
        mean_delay_s: f64,
        /// The new iterate in physical units.
        physical: Vec<f64>,
        /// Whether the controller paused at the end of this round.
        paused: bool,
    },
    /// The controller observed while paused.
    Paused {
        /// The observed window's mean end-to-end delay.
        delay_s: f64,
    },
    /// The reset rule fired and the optimization restarted.
    Reset,
    /// The parked configuration went unstable; optimization resumed
    /// without a coefficient reset.
    Woke,
}

/// The NoStop controller.
pub struct NoStop {
    cfg: NoStopConfig,
    spsa: Spsa,
    penalty: PenaltySchedule,
    pause: PauseRule,
    reset: ResetRule,
    window: WindowPolicy,
    paused: bool,
    trace: Trace,
    round: u64,
    /// Best configuration this episode: `(ranking key, physical config,
    /// measured intrinsic delay)`. The key equals the delay except after a
    /// wake, which demotes it to infinity so fresh measurements displace it.
    best: Option<(f64, Vec<f64>, f64)>,
    /// Total configuration changes applied to the system.
    config_changes: u64,
    /// Trace recorder ("controller" track); disabled by default, so the
    /// uninstrumented controller pays one cold branch per event site.
    obs: Recorder,
}

impl NoStop {
    /// Build a controller. `seed` drives the SPSA perturbation stream.
    pub fn new(cfg: NoStopConfig, seed: u64) -> Self {
        let theta_initial = vec![THETA_INITIAL_SCALED; cfg.space.dim()];
        let spsa = Spsa::new(
            SpsaParams {
                gains: cfg.gains,
                lower: cfg.space.scaled_lower(),
                upper: cfg.space.scaled_upper(),
                max_step: Some(MAX_STEP_SCALED),
            },
            theta_initial,
            SimRng::seed_from_u64(seed),
        );
        let pause = PauseRule::paper_default();
        let mut reset = if cfg.reset_relative {
            ResetRule::relative(cfg.reset_threshold_speed, RESET_WINDOW)
        } else {
            ResetRule::new(cfg.reset_threshold_speed, RESET_WINDOW)
        };
        reset.level_fraction = cfg.reset_level_fraction;
        reset.failure_threshold = Some(FAILURE_RESET_THRESHOLD);
        let window = WindowPolicy::paper_default();
        let penalty = cfg.penalty;
        NoStop {
            cfg,
            spsa,
            penalty,
            pause,
            reset,
            window,
            paused: false,
            trace: Trace::new(),
            round: 0,
            best: None,
            config_changes: 0,
            obs: Recorder::disabled(),
        }
    }

    /// Attach a trace recorder. Controller events land on the
    /// `"controller"` track of `recorder`'s sink, so a single ring can
    /// interleave engine and controller history in causal order.
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.set_recorder_track(recorder, "controller");
    }

    /// [`set_recorder`](Self::set_recorder) with an explicit track name —
    /// fleet runs tag each tenant's controller as `"t{i}.ctrl"` so one
    /// shared ring interleaves every tenant's controllers and engines.
    pub fn set_recorder_track(&mut self, recorder: &Recorder, track: &'static str) {
        self.obs = recorder.with_track(track);
    }

    /// Execute one controller round against `sys`.
    pub fn run_round<S: StreamingSystem>(&mut self, sys: &mut S) -> RoundOutcome {
        // Algorithm 1, loop head: needResetCoefficient().
        if self.reset.needs_reset() {
            return self.do_reset(sys);
        }
        if self.paused {
            return self.paused_round(sys);
        }
        self.optimization_round(sys)
    }

    /// Run `rounds` rounds back to back.
    pub fn run<S: StreamingSystem>(&mut self, sys: &mut S, rounds: u64) {
        for _ in 0..rounds {
            self.run_round(sys);
        }
    }

    fn optimization_round<S: StreamingSystem>(&mut self, sys: &mut S) -> RoundOutcome {
        let k = self.spsa.k();
        let proposal = self.spsa.propose();
        if self.obs.is_enabled() {
            // One span per SPSA iteration, carrying the gain schedule and
            // the current iterate (scaled; first two components cover the
            // paper's 2-parameter space).
            let theta = self.spsa.theta();
            let mut fields = vec![
                ("k", k as f64),
                ("rho", self.penalty.rho()),
                ("a_k", proposal.a_k),
                ("c_k", proposal.c_k),
            ];
            if let Some(t0) = theta.first() {
                fields.push(("theta0", *t0));
            }
            if let Some(t1) = theta.get(1) {
                fields.push(("theta1", *t1));
            }
            self.obs
                .enter(SimTime::from_secs_f64(sys.now_s()), "spsa_iter", &fields);
        }

        // Algorithm 2 (Adjust) at θ⁺ and θ⁻ — two reconfigurations.
        let phys_plus = self.cfg.space.to_physical(&proposal.theta_plus);
        let m_plus = self.measure(sys, &phys_plus);
        self.probe_instant(sys, 1.0, &m_plus);
        if self.reset.needs_reset() {
            return self.abort_iteration(sys);
        }
        let phys_minus = self.cfg.space.to_physical(&proposal.theta_minus);
        let m_minus = self.measure(sys, &phys_minus);
        self.probe_instant(sys, -1.0, &m_minus);
        if self.reset.needs_reset() {
            return self.abort_iteration(sys);
        }

        let y_plus = self
            .penalty
            .objective(m_plus.interval_s, m_plus.processing_s);
        let y_minus = self
            .penalty
            .objective(m_minus.interval_s, m_minus.processing_s);
        let gradient = self.spsa.update(&proposal, y_plus, y_minus).gradient;
        // Algorithm 1: ρ ← min(ρ + 0.1, 2) once per iteration.
        self.penalty.advance();

        // Feed the pause rule and the best-config tracker from the two
        // measurements we already paid for. Both use the *intrinsic*
        // penalized delay of a configuration (interval + ρ-cap-weighted
        // violation of the headroom-adjusted constraint): under the
        // stability constraint, end-to-end delay is equivalent to batch
        // interval (§3.1), and unlike the raw per-batch total delay this
        // metric is not contaminated by queue backlog left over from a
        // previously-visited bad configuration. The cap, unlike the live
        // ρ, keeps it comparable across rounds.
        let rho = self.penalty.rho_max;
        let pd_plus = ranking_objective(m_plus.interval_s, m_plus.processing_s, rho);
        let pd_minus = ranking_objective(m_minus.interval_s, m_minus.processing_s, rho);
        self.pause.record(pd_plus);
        self.pause.record(pd_minus);
        self.track_best(&phys_plus, pd_plus);
        self.track_best(&phys_minus, pd_minus);

        let should_pause = self.pause.should_pause();
        if should_pause {
            self.paused = true;
            // Park the system at the best configuration found ("once NoStop
            // reaches the optimal configuration, it halts", §5.3.5); fall
            // back to the current iterate if nothing better is known.
            let parked = self
                .best
                .as_ref()
                .map(|(_, phys, _)| phys.clone())
                .unwrap_or_else(|| self.cfg.space.to_physical(self.spsa.theta()));
            sys.apply_config(&parked);
            self.config_changes += 1;
            if self.obs.is_enabled() {
                let now = SimTime::from_secs_f64(sys.now_s());
                self.obs.add(now, "config_changes", 1);
                self.obs
                    .instant(now, "paused", &[("parked_interval_s", parked[0])]);
            }
        }

        let grad_norm = gradient.iter().map(|g| g * g).sum::<f64>().sqrt();
        let mean_delay = (m_plus.end_to_end_s + m_minus.end_to_end_s) / 2.0;
        let physical = self.cfg.space.to_physical(self.spsa.theta());
        if self.obs.is_enabled() {
            self.obs.exit(
                SimTime::from_secs_f64(sys.now_s()),
                "spsa_iter",
                &[
                    ("y_plus", y_plus),
                    ("y_minus", y_minus),
                    ("grad_norm", grad_norm),
                    ("paused", if self.paused { 1.0 } else { 0.0 }),
                ],
            );
        }
        self.push_trace(
            sys.now_s(),
            k,
            proposal.a_k,
            proposal.c_k,
            RoundKind::Optimized {
                plus: m_plus,
                minus: m_minus,
                y_plus,
                y_minus,
                grad_norm,
            },
        );
        RoundOutcome::Optimized {
            mean_delay_s: mean_delay,
            physical,
            paused: self.paused,
        }
    }

    fn paused_round<S: StreamingSystem>(&mut self, sys: &mut S) -> RoundOutcome {
        // Observe a window without touching the configuration; grow the
        // window additively (§5.4) so the paused controller becomes
        // increasingly noise-immune, up to the cap.
        let parked_interval = self
            .best
            .as_ref()
            .map(|(_, phys, _)| phys[0])
            .unwrap_or_else(|| self.cfg.space.to_physical(self.spsa.theta())[0]);
        let window = self.window.window();
        let mut batches = Vec::with_capacity(window);
        let mut parked_batches = Vec::new();
        let mut saw_failures = false;
        for _ in 0..window.max(1) {
            let b = sys.next_batch();
            self.reset.record_rate(b.input_rate);
            self.reset.record_failure(b.executor_failures);
            saw_failures |= b.executor_failures > 0;
            if measure::cut_under(&b, parked_interval) {
                parked_batches.push(b);
            }
            batches.push(b);
        }
        self.window.grow();
        let m = Measurement::from_window(&batches);

        // Wake up if the parked configuration has gone unstable — e.g. the
        // data rate drifted past what the optimum can absorb (§5.3.5:
        // "until the system becomes unstable"). Judged only on batches cut
        // under the parked interval; leftover backlog from previously
        // visited configurations is still draining and proves nothing.
        let unstable = if parked_batches.is_empty() {
            false
        } else {
            let pm = Measurement::from_window(&parked_batches);
            pm.processing_s > pm.interval_s * self.cfg.unpause_instability_factor
        };
        if self.reset.needs_reset() {
            return self.do_reset(sys);
        }
        if unstable || saw_failures {
            // §5.3.5: the pause holds "until the system becomes unstable".
            // Instability without a rate shift is a local problem — resume
            // optimization from the current iterate with the current
            // (small) gains rather than restarting from θ_initial. An
            // executor failure forces the same wake pre-emptively: the
            // parked configuration was chosen for a cluster that no longer
            // exists, so re-explore instead of waiting for the queue to
            // prove it.
            return self.wake(sys);
        }

        if self.obs.is_enabled() {
            self.obs.instant(
                SimTime::from_secs_f64(sys.now_s()),
                "paused_observe",
                &[
                    ("delay_s", m.end_to_end_s),
                    ("window", batches.len() as f64),
                ],
            );
        }
        self.push_trace(
            sys.now_s(),
            self.spsa.k(),
            0.0,
            0.0,
            RoundKind::Paused { observed: m },
        );
        RoundOutcome::Paused {
            delay_s: m.end_to_end_s,
        }
    }

    /// Record one SPSA probe measurement: `sign` is +1 at θ⁺ and −1 at
    /// θ⁻. The objective is evaluated with the round's ρ (`advance` has
    /// not run yet), so the instant carries exactly the value the update
    /// below will see.
    fn probe_instant<S: StreamingSystem>(&self, sys: &S, sign: f64, m: &Measurement) {
        if self.obs.is_enabled() {
            self.obs.instant(
                SimTime::from_secs_f64(sys.now_s()),
                "probe",
                &[
                    ("sign", sign),
                    ("y", self.penalty.objective(m.interval_s, m.processing_s)),
                    ("interval_s", m.interval_s),
                    ("processing_s", m.processing_s),
                ],
            );
        }
    }

    /// A mid-iteration reset abandons the open `spsa_iter` span: close it
    /// (marked aborted, so trace consumers do not mistake it for a full
    /// gradient step) before handing the round to `do_reset`.
    fn abort_iteration<S: StreamingSystem>(&mut self, sys: &mut S) -> RoundOutcome {
        if self.obs.is_enabled() {
            self.obs.exit(
                SimTime::from_secs_f64(sys.now_s()),
                "spsa_iter",
                &[("aborted", 1.0)],
            );
        }
        self.do_reset(sys)
    }

    /// Resume optimization after a pause without resetting coefficients:
    /// the episode's stale pause history is dropped and the best config is
    /// demoted (any fresh measurement displaces it — the regime shifted —
    /// but it remains available as a parking fallback), while `k`, θ, and
    /// ρ carry over.
    fn wake<S: StreamingSystem>(&mut self, sys: &mut S) -> RoundOutcome {
        self.paused = false;
        self.pause.clear();
        if let Some((key, _, _)) = &mut self.best {
            *key = f64::INFINITY;
        }
        self.window.shrink_to_min();
        if self.obs.is_enabled() {
            self.obs
                .instant(SimTime::from_secs_f64(sys.now_s()), "woke", &[]);
        }
        self.push_trace(sys.now_s(), self.spsa.k(), 0.0, 0.0, RoundKind::Woke);
        RoundOutcome::Woke
    }

    fn do_reset<S: StreamingSystem>(&mut self, sys: &mut S) -> RoundOutcome {
        // Table 1: resetCoefficient() — k = 0, x = θ_initial. Note that ρ
        // is deliberately NOT reset: Table 1 only names k and x, and
        // keeping the ramped-up penalty prevents the restarted (large-
        // gain) iterations from diving through the stability constraint
        // the way the very first iterations of a run may.
        self.spsa
            .reset(&vec![THETA_INITIAL_SCALED; self.cfg.space.dim()]);
        self.pause.clear();
        self.reset.clear();
        self.window.shrink_to_min();
        self.paused = false;
        self.best = None;
        if self.obs.is_enabled() {
            let now = SimTime::from_secs_f64(sys.now_s());
            self.obs.instant(now, "reset", &[]);
            self.obs.add(now, "resets", 1);
        }
        self.push_trace(sys.now_s(), 0, 0.0, 0.0, RoundKind::Reset);
        RoundOutcome::Reset
    }

    /// Algorithm 2's *Adjust* under [`Protocol::Adjust`]: reconfigure,
    /// settle (the settling batch is §5.4's discarded first batch), and
    /// average the minimum window. Every batch pulled feeds the reset
    /// rule.
    fn measure<S: StreamingSystem>(&mut self, sys: &mut S, physical: &[f64]) -> Measurement {
        if self.obs.is_enabled() {
            let mut fields = vec![("interval_s", physical[0])];
            if let Some(e) = physical.get(1) {
                fields.push(("executors", *e));
            }
            self.obs
                .enter(SimTime::from_secs_f64(sys.now_s()), "measure", &fields);
        }
        sys.apply_config(physical);
        self.config_changes += 1;
        if self.obs.is_enabled() {
            self.obs
                .add(SimTime::from_secs_f64(sys.now_s()), "config_changes", 1);
        }
        let reset = &mut self.reset;
        let window =
            measure::settle_and_pull(sys, physical[0], MIN_BATCHES, Protocol::Adjust, |b| {
                reset.record_rate(b.input_rate);
                reset.record_failure(b.executor_failures);
            });
        let mut m = Measurement::from_window(&window);
        // The objective evaluates the *applied* interval (Algorithm 2 sets
        // `batchInterval = θ_BatchInterval` before reading the status).
        m.interval_s = physical[0];
        if self.obs.is_enabled() {
            self.obs.exit(
                SimTime::from_secs_f64(sys.now_s()),
                "measure",
                &[
                    ("processing_s", m.processing_s),
                    ("end_to_end_s", m.end_to_end_s),
                    ("batches", window.len() as f64),
                ],
            );
        }
        m
    }

    /// Rank configurations by intrinsic penalized delay; the parked
    /// configuration is then naturally a stable one.
    fn track_best(&mut self, physical: &[f64], delay_s: f64) {
        let better = match &self.best {
            None => true,
            Some((best_delay, _, _)) => delay_s < *best_delay,
        };
        if better {
            self.best = Some((delay_s, physical.to_vec(), delay_s));
        }
    }

    fn push_trace(&mut self, t_s: f64, k: u64, a_k: f64, c_k: f64, kind: RoundKind) {
        let theta_scaled = self.spsa.theta().to_vec();
        let theta_physical = self.cfg.space.to_physical(&theta_scaled);
        self.trace.push(RoundRecord {
            round: self.round,
            k,
            t_s,
            theta_scaled,
            theta_physical,
            rho: self.penalty.rho(),
            a_k,
            c_k,
            paused_after: self.paused,
            kind,
        });
        self.round += 1;
    }

    /// The full round-by-round trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Current iterate in scaled space.
    pub fn theta_scaled(&self) -> &[f64] {
        self.spsa.theta()
    }

    /// Current iterate in physical units.
    pub fn current_physical(&self) -> Vec<f64> {
        self.cfg.space.to_physical(self.spsa.theta())
    }

    /// Whether the controller is currently paused at an optimum.
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Completed SPSA iterations in the current episode.
    pub fn k(&self) -> u64 {
        self.spsa.k()
    }

    /// Total rounds executed (all kinds).
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// Total configuration changes applied to the system — the Fig-8
    /// "configure steps" metric.
    pub fn config_changes(&self) -> u64 {
        self.config_changes
    }

    /// Best configuration seen this episode: `(physical, end-to-end delay)`.
    pub fn best_config(&self) -> Option<(Vec<f64>, f64)> {
        self.best
            .as_ref()
            .map(|(_, phys, delay)| (phys.clone(), *delay))
    }

    /// The controller configuration in force.
    pub fn config(&self) -> &NoStopConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::BatchObservation;

    /// An analytic mock system implementing the qualitative Spark model:
    /// processing time rises with records-per-batch, falls with executors
    /// until management overhead wins, plus seeded noise.
    struct MockSystem {
        interval_s: f64,
        executors: f64,
        rate: f64,
        /// Fixed per-batch overhead, seconds (stage scheduling etc.).
        fixed_s: f64,
        /// Accumulated queue backlog, seconds — the compounding cost of
        /// instability that a real batch queue exhibits.
        backlog_s: f64,
        t: f64,
        rng: SimRng,
        noise: f64,
        changes: u64,
        /// Inject `count` executor failures `delay` batches from now; the
        /// failing batch also absorbs a huge recomputation penalty, the
        /// way a real crash-hit batch would.
        fail_in: Option<(u32, u32)>,
    }

    impl MockSystem {
        fn new(rate: f64, noise: f64, seed: u64) -> Self {
            MockSystem {
                interval_s: 10.0,
                executors: 10.0,
                rate,
                fixed_s: 5.5,
                backlog_s: 0.0,
                t: 0.0,
                rng: SimRng::seed_from_u64(seed),
                noise,
                changes: 0,
                fail_in: None,
            }
        }

        fn processing(&mut self) -> f64 {
            // Same qualitative shape as the calibrated Spark model: high
            // fixed overhead, marginal work slope < 0.5 per interval-second
            // at the reference rate, and per-executor management cost.
            let records = self.rate * self.interval_s;
            let work = records * 38e-5; // parallel work, core-seconds
            let mgmt = 0.05 * self.executors;
            (self.fixed_s + work / self.executors + mgmt) * self.rng.noise_factor(self.noise)
        }
    }

    impl StreamingSystem for MockSystem {
        fn apply_config(&mut self, physical: &[f64]) {
            self.interval_s = physical[0];
            self.executors = physical[1].max(1.0);
            self.changes += 1;
        }
        fn next_batch(&mut self) -> BatchObservation {
            self.t += self.interval_s;
            let failures = match self.fail_in.take() {
                Some((0, n)) => n,
                Some((d, n)) => {
                    self.fail_in = Some((d - 1, n));
                    0
                }
                None => 0,
            };
            let mut proc = self.processing();
            if failures > 0 {
                proc += 1_000.0; // lineage recomputation on the crash batch
            }
            // A batch waits for the backlog ahead of it; instability then
            // grows the backlog, stability drains it.
            let sched = self.backlog_s;
            self.backlog_s = (self.backlog_s + proc - self.interval_s).max(0.0);
            BatchObservation {
                completed_at_s: self.t,
                interval_s: self.interval_s,
                processing_s: proc,
                scheduling_delay_s: sched,
                records: (self.rate * self.interval_s) as u64,
                input_rate: self.rate,
                num_executors: self.executors as u32,
                queued_batches: (self.backlog_s / self.interval_s.max(0.001)) as u32,
                executor_failures: failures,
            }
        }
        fn now_s(&self) -> f64 {
            self.t
        }
    }

    fn controller(seed: u64) -> NoStop {
        NoStop::new(NoStopConfig::paper_default(), seed)
    }

    #[test]
    fn drives_interval_down_while_keeping_stability() {
        let mut sys = MockSystem::new(10_000.0, 0.05, 1);
        let mut ns = controller(42);
        ns.run(&mut sys, 60);
        let phys = ns.current_physical();
        let (interval, execs) = (phys[0], phys[1]);
        // For this system the stability frontier at E = 20 sits near
        // I = (5.5 + 0.05·20) / (1 − 3.8/20) ≈ 8 s. The controller should
        // have moved well below the 20.5 s starting interval while staying
        // near-feasible.
        assert!(interval < 16.0, "interval came down: {interval}");
        assert!(execs >= 8.0, "kept enough executors: {execs}");
        // SPSA oscillates around the stability frontier (θ* is an
        // "acceptable area", §4.2.4). What the system actually runs at
        // when NoStop pauses is the *best* configuration found — that one
        // must be near-feasible and a large improvement over the start.
        let (best_phys, best_delay) = ns.best_config().expect("best tracked");
        assert!((1.0..=40.0).contains(&best_phys[0]));
        assert!(
            best_delay < 20.5,
            "intrinsic delay beat the 20.5 s starting interval: {best_delay}"
        );
        sys.apply_config(&best_phys);
        let window: Vec<_> = (0..10).map(|_| sys.next_batch()).collect();
        let mean_proc = Measurement::from_window(&window).processing_s;
        assert!(
            mean_proc < best_phys[0] * 1.4,
            "near-feasible best: proc {mean_proc} vs interval {}",
            best_phys[0]
        );
    }

    #[test]
    #[ignore]
    fn debug_pause_dynamics() {
        let mut sys = MockSystem::new(10_000.0, 0.02, 2);
        let mut ns = controller(7);
        for round in 0..60 {
            let out = ns.run_round(&mut sys);
            match out {
                RoundOutcome::Optimized {
                    mean_delay_s,
                    physical,
                    paused,
                } => {
                    println!("r{round} k={} delay={mean_delay_s:.2} phys={physical:?} paused={paused} tracked={}",
                        ns.k(), ns.pause.tracked());
                }
                other => println!("r{round} {other:?}"),
            }
        }
    }

    #[test]
    fn pauses_once_delays_converge() {
        let mut sys = MockSystem::new(10_000.0, 0.02, 2);
        let mut ns = controller(7);
        let mut paused_at = None;
        for round in 0..200 {
            if let RoundOutcome::Optimized { paused: true, .. } = ns.run_round(&mut sys) {
                paused_at = Some(round);
                break;
            }
        }
        assert!(paused_at.is_some(), "should eventually pause");
        assert!(ns.is_paused());
        // Paused rounds only observe (a marginally-unstable park may wake,
        // which also applies no configuration change).
        let changes_before = ns.config_changes();
        match ns.run_round(&mut sys) {
            RoundOutcome::Paused { .. } | RoundOutcome::Woke => {}
            other => panic!("expected paused observation or wake, got {other:?}"),
        }
        assert_eq!(ns.config_changes(), changes_before);
    }

    #[test]
    fn exactly_two_reconfigurations_per_optimization_round() {
        let mut sys = MockSystem::new(10_000.0, 0.02, 3);
        let mut ns = controller(3);
        let outcome = ns.run_round(&mut sys);
        match outcome {
            RoundOutcome::Optimized { paused, .. } => {
                assert!(!paused, "cannot pause after one round (N=10 needed)");
                assert_eq!(sys.changes, 2, "two Adjust calls per round");
            }
            other => panic!("expected optimization, got {other:?}"),
        }
    }

    #[test]
    fn rate_surge_triggers_reset() {
        let mut sys = MockSystem::new(10_000.0, 0.02, 4);
        let mut ns = controller(11);
        ns.run(&mut sys, 10);
        assert!(ns.k() > 0);
        // 3× surge: well past the paper-default 3000 rec/s threshold.
        sys.rate = 30_000.0;
        let mut saw_reset = false;
        for _ in 0..10 {
            if matches!(ns.run_round(&mut sys), RoundOutcome::Reset) {
                saw_reset = true;
                break;
            }
        }
        assert!(saw_reset, "surge must trigger resetCoefficient()");
        assert_eq!(ns.k(), 0, "k reset to 0");
        assert_eq!(
            ns.theta_scaled(),
            &[10.0, 10.0],
            "iterate back at θ_initial"
        );
    }

    #[test]
    fn paused_controller_wakes_on_instability() {
        let mut sys = MockSystem::new(10_000.0, 0.01, 5);
        let mut ns = controller(13);
        for _ in 0..200 {
            ns.run_round(&mut sys);
            if ns.is_paused() {
                break;
            }
        }
        assert!(ns.is_paused(), "precondition: paused");
        // Degrade the cluster (fixed overhead jumps) without touching the
        // input rate, so only the *instability* wake-up path can fire —
        // the rate-based reset rule sees a perfectly steady stream.
        sys.fixed_s = 12.0;
        let k_before = ns.k();
        let mut woke = false;
        for _ in 0..30 {
            if matches!(ns.run_round(&mut sys), RoundOutcome::Woke) {
                woke = true;
                break;
            }
        }
        assert!(woke, "instability at the parked config must wake NoStop");
        assert!(!ns.is_paused());
        assert_eq!(ns.k(), k_before, "soft wake keeps the iteration count");
    }

    #[test]
    fn executor_failure_wakes_a_paused_controller() {
        let mut sys = MockSystem::new(10_000.0, 0.01, 5);
        let mut ns = controller(13);
        for _ in 0..200 {
            ns.run_round(&mut sys);
            if ns.is_paused() {
                break;
            }
        }
        assert!(ns.is_paused(), "precondition: paused");
        let k_before = ns.k();
        sys.fail_in = Some((0, 1)); // one loss: below the reset threshold of 3
        let mut woke = false;
        for _ in 0..5 {
            if matches!(ns.run_round(&mut sys), RoundOutcome::Woke) {
                woke = true;
                break;
            }
        }
        assert!(
            woke,
            "a single executor loss must wake the parked controller"
        );
        assert!(!ns.is_paused());
        assert_eq!(ns.k(), k_before, "below-threshold failure is a soft wake");
    }

    #[test]
    fn failure_burst_triggers_coefficient_reset() {
        let mut sys = MockSystem::new(10_000.0, 0.02, 4);
        let mut ns = controller(11);
        ns.run(&mut sys, 10);
        assert!(ns.k() > 0);
        sys.fail_in = Some((0, 5)); // past the paper-default threshold of 3
        let mut saw_reset = false;
        for _ in 0..10 {
            if matches!(ns.run_round(&mut sys), RoundOutcome::Reset) {
                saw_reset = true;
                break;
            }
        }
        assert!(
            saw_reset,
            "losing 5 executors must restart the optimization"
        );
        assert_eq!(ns.k(), 0, "k reset to 0");
        assert_eq!(ns.theta_scaled(), &[10.0, 10.0]);
    }

    #[test]
    fn contaminated_batch_is_discarded_from_the_measurement_window() {
        let mut sys = MockSystem::new(10_000.0, 0.02, 3);
        let mut ns = controller(3);
        // Land the crash inside the first measurement window (after the
        // settling batch): the +1000 s recomputation batch must not be
        // averaged into y(θ⁺).
        sys.fail_in = Some((2, 1));
        match ns.run_round(&mut sys) {
            RoundOutcome::Optimized { .. } => {}
            other => panic!("expected optimization, got {other:?}"),
        }
        let rec = ns.trace().rounds.last().expect("round traced");
        match &rec.kind {
            RoundKind::Optimized { plus, minus, .. } => {
                assert!(
                    plus.processing_s < 100.0,
                    "crash batch leaked into the window: {}",
                    plus.processing_s
                );
                assert!(minus.processing_s < 100.0);
            }
            other => panic!("expected an optimized trace record, got {other:?}"),
        }
    }

    #[test]
    fn trace_records_every_round() {
        let mut sys = MockSystem::new(10_000.0, 0.02, 6);
        let mut ns = controller(17);
        ns.run(&mut sys, 25);
        assert_eq!(ns.trace().len(), 25);
        assert_eq!(ns.rounds(), 25);
        assert!(ns.trace().optimization_rounds() > 0);
        assert!(!ns.trace().interval_series().is_empty());
    }

    #[test]
    fn best_config_is_tracked_and_feasible() {
        let mut sys = MockSystem::new(10_000.0, 0.02, 8);
        let mut ns = controller(19);
        ns.run(&mut sys, 40);
        let (phys, delay) = ns.best_config().expect("rounds ran");
        assert_eq!(phys.len(), 2);
        assert!((1.0..=40.0).contains(&phys[0]));
        assert!((1.0..=20.0).contains(&phys[1]));
        assert!(delay > 0.0);
    }

    #[test]
    fn deterministic_given_seeds() {
        let run = || {
            let mut sys = MockSystem::new(10_000.0, 0.05, 9);
            let mut ns = controller(23);
            ns.run(&mut sys, 30);
            (ns.current_physical(), ns.trace().len())
        };
        assert_eq!(run(), run());
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn trace_spans_stay_well_formed_across_resets_and_pauses() {
        let recorder = Recorder::ring(1 << 16);
        let mut sys = MockSystem::new(10_000.0, 0.02, 4);
        let mut ns = controller(11);
        ns.set_recorder(&recorder);
        ns.run(&mut sys, 10);
        // A surge fires the reset rule mid-iteration, exercising the
        // abort path that must still close the open `spsa_iter` span.
        sys.rate = 30_000.0;
        ns.run(&mut sys, 5);
        sys.rate = 10_000.0;
        ns.run(&mut sys, 200);
        assert!(ns.is_paused(), "long quiet run should pause");
        let snap = recorder.snapshot();
        nostop_obs::check_events(&snap.events).expect("well-formed controller trace");
        nostop_obs::check_jsonl(&snap.to_jsonl()).expect("well-formed JSONL");
        let changes = snap
            .counters
            .iter()
            .find(|(name, _)| *name == "config_changes")
            .map(|(_, total)| *total)
            .expect("config_changes counted");
        assert_eq!(changes, ns.config_changes(), "counter mirrors the API");
        let stats = nostop_obs::span_stats(&snap.events);
        assert!(stats.iter().any(|s| s.name == "spsa_iter" && s.count > 1));
        assert!(stats.iter().any(|s| s.name == "measure"));
    }

    #[test]
    fn rho_ramps_during_optimization() {
        let mut sys = MockSystem::new(10_000.0, 0.02, 10);
        let mut ns = controller(29);
        ns.run(&mut sys, 15);
        let rhos: Vec<f64> = ns.trace().rounds.iter().map(|r| r.rho).collect();
        assert!(rhos[0] >= 1.0);
        assert!(
            rhos.last().unwrap() > &rhos[0] || rhos.last().unwrap() >= &2.0,
            "rho ramped: {rhos:?}"
        );
    }
}
