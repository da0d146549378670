//! The stochastic environment.
//!
//! §4.1: "randomness exists in the dynamics of streaming data processing in
//! distributed environments, including network jitters, resource
//! contentions, etc." — NoStop's noise tolerance is a headline design goal,
//! so the simulator must inject realistic noise. Two mechanisms:
//!
//! * **per-task multiplicative noise** — a unit-mean log-normal factor on
//!   every task duration, with per-workload sigma (the cost model's
//!   `noise_sigma`);
//! * **node contention windows** — each node independently suffers Poisson-
//!   arriving slowdown episodes (a co-tenant process, a GC storm) during
//!   which its tasks run at a fraction of normal speed.

use nostop_simcore::{SimDuration, SimRng, SimTime};

/// Noise model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseParams {
    /// Master switch; `false` makes the simulator deterministic apart from
    /// workload iteration sampling.
    pub enabled: bool,
    /// Mean gap between contention episodes per node, seconds.
    pub contention_mean_gap_s: f64,
    /// Duration of one contention episode, seconds.
    pub contention_duration_s: f64,
    /// Speed multiplier while contended (e.g. 0.6 = 40% slower).
    pub contention_slowdown: f64,
}

impl Default for NoiseParams {
    fn default() -> Self {
        NoiseParams {
            enabled: true,
            contention_mean_gap_s: 120.0,
            contention_duration_s: 8.0,
            contention_slowdown: 0.6,
        }
    }
}

impl NoiseParams {
    /// No noise at all — for calibration and deterministic tests.
    pub fn disabled() -> Self {
        NoiseParams {
            enabled: false,
            ..NoiseParams::default()
        }
    }
}

#[derive(Debug, Clone)]
struct NodeContention {
    busy_until: SimTime,
    next_onset: SimTime,
}

/// Stateful noise source. One per engine; forks its own RNG streams.
#[derive(Debug, Clone)]
pub struct NoiseModel {
    params: NoiseParams,
    nodes: Vec<NodeContention>,
    rng: SimRng,
    /// Fleet-wide contention pressure: a multiplicative speed factor the
    /// arbiter applies when aggregate tenant demand exceeds the executor
    /// budget (1.0 = unconstrained). Runtime state, not a `NoiseParams`
    /// knob — it changes between batches as the fleet breathes, and at
    /// exactly 1.0 it is a bitwise no-op on every task duration, which is
    /// what keeps a solo tenant bit-identical to the bare engine.
    pressure: f64,
}

impl NoiseModel {
    /// A model for `node_count` nodes.
    pub fn new(params: NoiseParams, node_count: usize, rng: SimRng) -> Self {
        let mut model = NoiseModel {
            params,
            nodes: Vec::with_capacity(node_count),
            rng,
            pressure: 1.0,
        };
        for _ in 0..node_count {
            let onset = if params.enabled {
                model.rng.exponential(1.0 / params.contention_mean_gap_s)
            } else {
                f64::INFINITY
            };
            model.nodes.push(NodeContention {
                busy_until: SimTime::ZERO,
                next_onset: if onset.is_finite() {
                    SimTime::from_secs_f64(onset)
                } else {
                    SimTime::MAX
                },
            });
        }
        model
    }

    /// The speed factor for a task starting on `node` at instant `t`
    /// (1.0 = unimpeded, `contention_slowdown` during an episode).
    pub fn contention_factor(&mut self, node: usize, t: SimTime) -> f64 {
        if !self.params.enabled {
            return 1.0;
        }
        let gap = self.params.contention_mean_gap_s;
        let dur = self.params.contention_duration_s;
        let state = &mut self.nodes[node];
        // Advance the episode process past `t`.
        while state.next_onset <= t {
            state.busy_until = state.next_onset + SimDuration::from_secs_f64(dur);
            let next_gap = self.rng.exponential(1.0 / gap);
            state.next_onset = state.busy_until + SimDuration::from_secs_f64(next_gap);
        }
        if t < state.busy_until {
            self.params.contention_slowdown
        } else {
            1.0
        }
    }

    /// Fill `out` with one task duration factor per element, in one
    /// burst: unit-mean log-normal with the given sigma (all 1.0 when
    /// noise is disabled). The sampler's tables stay hot in cache across
    /// the burst instead of being evicted by scheduler state between
    /// per-task draws, which is worth ~2× on the draw cost inside the
    /// task loop. `out` is caller-owned storage (the scheduler's arena
    /// lane).
    pub fn fill_task_factors_into(&mut self, sigma: f64, out: &mut [f64]) {
        if !self.params.enabled {
            out.fill(1.0);
            return;
        }
        if sigma <= 0.0 {
            out.fill(1.0);
            return;
        }
        self.rng
            .fill_lognormal_into(-sigma * sigma / 2.0, sigma, out);
    }

    /// True when no contention episode can touch — or even be *observed*
    /// by — a task on any of the given `nodes` in `[from, until]`: each
    /// such node's current episode ended by `from` and its next onset lies
    /// strictly after `until`. Under this condition, per-task
    /// [`contention_factor`](Self::contention_factor) calls anywhere in
    /// the range all return exactly 1.0 and advance nothing (consuming no
    /// RNG), which is the superbatch fast path's license to skip them
    /// wholesale. Only the nodes a job's executors occupy matter: the
    /// exact path never queries any other node, so an idle node's episode
    /// state — lazily advanced, hence arbitrarily stale — must not veto.
    /// Duplicate node indices are fine.
    pub fn quiescent_over(
        &self,
        from: SimTime,
        until: SimTime,
        nodes: impl IntoIterator<Item = usize>,
    ) -> bool {
        nodes.into_iter().all(|i| self.node_quiet(i, from, until))
    }

    /// Single-node [`quiescent_over`](Self::quiescent_over): true when no
    /// contention episode on `node` can touch or be observed by a task in
    /// `[from, until]`. This is the superbatch fast path's per-executor-
    /// block guard — a query that returns true licenses skipping every
    /// `contention_factor(node, ·)` call in the range (they would all
    /// return exactly 1.0 and draw no RNG), while an episode elsewhere
    /// only forces *that* node's blocks onto the exact path.
    #[inline]
    pub fn node_quiet(&self, node: usize, from: SimTime, until: SimTime) -> bool {
        if !self.params.enabled {
            return true;
        }
        let n = &self.nodes[node];
        n.busy_until <= from && n.next_onset > until
    }

    /// The noise RNG's state words (for determinism fingerprints).
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Set the fleet contention pressure (clamped to `(0, 1]`; 1.0 means
    /// unconstrained). Draws no RNG and touches no episode state: pressure
    /// is a pure multiplicative speed factor on task execution.
    pub fn set_external_pressure(&mut self, pressure: f64) {
        self.pressure = if pressure.is_finite() {
            pressure.clamp(0.05, 1.0)
        } else {
            1.0
        };
    }

    /// The current fleet contention pressure (1.0 when unconstrained).
    #[inline]
    pub fn external_pressure(&self) -> f64 {
        self.pressure
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_noise_is_identity() {
        let mut m = NoiseModel::new(NoiseParams::disabled(), 3, SimRng::seed_from_u64(1));
        for i in 0..3 {
            assert_eq!(m.contention_factor(i, SimTime::from_secs_f64(1e6)), 1.0);
        }
        let mut factors = [0.0f64; 5];
        m.fill_task_factors_into(0.5, &mut factors);
        assert_eq!(factors, [1.0; 5]);
    }

    #[test]
    fn contention_happens_at_expected_duty_cycle() {
        let params = NoiseParams {
            enabled: true,
            contention_mean_gap_s: 90.0,
            contention_duration_s: 10.0,
            contention_slowdown: 0.5,
        };
        let mut m = NoiseModel::new(params, 1, SimRng::seed_from_u64(2));
        let mut contended = 0;
        let n = 100_000;
        for i in 0..n {
            if m.contention_factor(0, SimTime::from_secs_f64(i as f64)) < 1.0 {
                contended += 1;
            }
        }
        // Duty cycle = 10 / (90 + 10) = 10%; loose bounds.
        let frac = contended as f64 / n as f64;
        assert!((0.05..0.2).contains(&frac), "duty cycle {frac}");
    }

    #[test]
    fn nodes_are_independent() {
        let mut m = NoiseModel::new(NoiseParams::default(), 2, SimRng::seed_from_u64(3));
        let mut same = 0;
        let mut total = 0;
        for i in 0..20_000 {
            let t = SimTime::from_secs_f64(i as f64);
            let a = m.contention_factor(0, t) < 1.0;
            let b = m.contention_factor(1, t) < 1.0;
            if a {
                total += 1;
                if b {
                    same += 1;
                }
            }
        }
        // If episodes were correlated, same/total would approach 1.
        assert!(total > 0);
        assert!((same as f64 / total as f64) < 0.5, "{same}/{total}");
    }

    #[test]
    fn slice_fill_matches_per_task_draws() {
        let mut m = NoiseModel::new(NoiseParams::default(), 2, SimRng::seed_from_u64(9));
        let mut per_task = m.rng.clone();
        let mut slice_out = [0.0f64; 33];
        m.fill_task_factors_into(0.2, &mut slice_out);
        for x in slice_out {
            assert_eq!(x.to_bits(), per_task.noise_factor(0.2).to_bits());
        }
        assert_eq!(m.rng_state(), per_task.state());
    }

    #[test]
    fn quiescence_looks_ahead_without_advancing() {
        let params = NoiseParams {
            enabled: true,
            contention_mean_gap_s: 50.0,
            contention_duration_s: 5.0,
            contention_slowdown: 0.5,
        };
        let m = NoiseModel::new(params, 1, SimRng::seed_from_u64(3));
        let before = m.rng_state();
        // Find the first onset by probing the pure query at growing spans.
        let mut onset = None;
        for s in 0..10_000 {
            let t = SimTime::from_secs_f64(s as f64);
            if !m.quiescent_over(SimTime::ZERO, t, [0]) {
                onset = Some(s);
                break;
            }
        }
        let onset = onset.expect("an episode must be scheduled");
        if onset > 2 {
            assert!(m.quiescent_over(
                SimTime::ZERO,
                SimTime::from_secs_f64(onset as f64 - 2.0),
                [0]
            ));
        }
        assert_eq!(m.rng_state(), before, "queries draw nothing");
        // Disabled noise is always quiescent.
        let off = NoiseModel::new(NoiseParams::disabled(), 1, SimRng::seed_from_u64(3));
        assert!(off.quiescent_over(SimTime::ZERO, SimTime::from_secs_f64(1e9), [0]));
    }

    #[test]
    fn stale_idle_nodes_do_not_veto_quiescence() {
        let mut m = NoiseModel::new(NoiseParams::default(), 2, SimRng::seed_from_u64(7));
        // Advance node 0 deep into the run, settling on a quiet instant.
        let mut t = SimTime::from_secs_f64(100_000.0);
        while m.contention_factor(0, t) < 1.0 {
            t += SimDuration::from_secs(10);
        }
        assert!(m.quiescent_over(t, t, [0]));
        // Node 1 has never been queried, so its lazily-advanced episode
        // state is stale: its *first* onset (drawn at construction, mean
        // 120 s) lies far in the past. Including an idle node would veto
        // quiescence forever — the filter exists to exclude it.
        assert!(!m.quiescent_over(t, t, [0, 1]));
    }

    #[test]
    fn task_factor_is_unit_mean() {
        let mut m = NoiseModel::new(NoiseParams::default(), 1, SimRng::seed_from_u64(5));
        let n = 100_000;
        let mut factors = vec![0.0f64; n];
        m.fill_task_factors_into(0.2, &mut factors);
        let mean: f64 = factors.iter().sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
    }
}
