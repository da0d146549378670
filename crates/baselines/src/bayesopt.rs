//! The Bayesian-optimization comparator (§6.4, Fig. 8).
//!
//! Standard GP-EI loop over the same scaled configuration space NoStop
//! searches: a handful of random initial probes, then each iteration fits
//! the GP to all observations and proposes the candidate (from a random
//! pool) maximizing Expected Improvement. Each proposal costs **one**
//! system reconfiguration + measurement window — half of SPSA's per-
//! iteration cost — but BO typically needs many more iterations, which is
//! exactly the search-time gap Fig. 8 reports. Model fitting itself rides
//! the incremental GP fast path (O(n²) per observation), so the
//! comparison measures the search strategies rather than the surrogate's
//! refit cost.
//!
//! # Pruned scoring
//!
//! The pool is one flat buffer ([`CandidatePool`]) redrawn in place each
//! proposal. [`CandidatePool::argmax_ei`] runs the GP's screen pass over
//! every candidate (single precision, with a bound `δ` on its error that
//! the GP derives per call), keys each by [`expected_improvement_bound`]
//! at its screened mean less `δ` and at the GP's largest possible
//! variance, and visits candidates by descending key, [`TILE`] at a time
//! through the exact pass, until the next key is below the best EI
//! found. The exact mean is at least `m̃ − δ` and EI only grows as the mean
//! falls or the variance rises, so a pruned candidate's EI is at most its
//! key and it could not have won. EI is scored from the exact pass alone;
//! the result is the first maximum of the full scan, bit for bit
//! (`tests/ei_pruning.rs` holds it to that).

use crate::acquisition::{expected_improvement, expected_improvement_bound};
use crate::gp::{GaussianProcess, Kernel};
use crate::linalg::TILE;
use crate::tuner::{BestTracker, Tuner};
use nostop_core::space::ConfigSpace;
use nostop_simcore::SimRng;

/// How much of the candidate pool reached the exact pass: seed-pure
/// counts, summed over every scored proposal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScoringStats {
    /// Candidates drawn into pools.
    pub pooled: u64,
    /// Candidates that went through the exact pass.
    pub scored: u64,
}

/// A candidate pool, row-major (`dim` coordinates per candidate), and the
/// scratch its pruned EI argmax reuses.
#[derive(Debug, Clone)]
pub struct CandidatePool {
    dim: usize,
    coords: Vec<f64>,
    /// Scratch: the screened means, in pool order.
    means: Vec<f64>,
    /// Scratch: `(key, index)`, sorted into visiting order.
    order: Vec<(f64, usize)>,
    /// Scratch: one tile's exact `(mean, variance)`.
    exact: Vec<(f64, f64)>,
}

impl CandidatePool {
    /// A pool of the candidates in `coords`, `dim` coordinates each.
    pub fn new(dim: usize, coords: Vec<f64>) -> Self {
        assert!(
            dim > 0 && coords.len().is_multiple_of(dim),
            "dimension mismatch"
        );
        CandidatePool {
            dim,
            coords,
            means: Vec::new(),
            order: Vec::new(),
            exact: Vec::new(),
        }
    }

    /// Replace the candidates with `count × dim` coordinates from `draw`,
    /// candidate by candidate.
    pub fn redraw(&mut self, count: usize, draw: impl FnMut() -> f64) {
        self.coords.clear();
        self.coords
            .extend(std::iter::repeat_with(draw).take(count * self.dim));
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.coords.len() / self.dim
    }

    /// True when the pool holds no candidate.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Candidate `i`'s coordinates.
    pub fn candidate(&self, i: usize) -> &[f64] {
        &self.coords[i * self.dim..(i + 1) * self.dim]
    }

    /// The first EI maximum under `gp` with incumbent `best` and margin
    /// `xi` — the smallest index whose EI no candidate beats, `None` when
    /// no EI compares — and the number of candidates that went through the
    /// exact pass. See the module docs.
    pub fn argmax_ei(
        &mut self,
        gp: &GaussianProcess,
        best: f64,
        xi: f64,
    ) -> (Option<usize>, usize) {
        let delta = gp.screen_means(&self.coords, self.dim, &mut self.means);
        let ceiling = gp.max_variance();
        self.order.clear();
        self.order
            .extend(self.means.iter().enumerate().map(|(i, &screened)| {
                // The exact mean is at least `screened − δ`, and EI only
                // grows as the mean falls. A NaN key never prunes: visit it
                // first.
                let key = expected_improvement_bound(screened - delta, ceiling, best, xi);
                (if key.is_nan() { f64::INFINITY } else { key }, i)
            }));
        self.order
            .sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut winner: Option<(f64, usize)> = None;
        let mut scored = 0;
        let mut picks = [0; TILE];
        while scored < self.order.len() {
            // The next tile: up to TILE candidates whose key can still
            // reach the best EI so far. Keys only fall from here on.
            let best_ei = winner.map_or(f64::NEG_INFINITY, |w| w.0);
            let mut len = 0;
            for &(key, i) in self.order[scored..].iter().take(TILE) {
                if key < best_ei {
                    break;
                }
                picks[len] = i;
                len += 1;
            }
            if len == 0 {
                break;
            }
            scored += len;
            gp.exact_posteriors(&self.coords, self.dim, &picks[..len], &mut self.exact);
            for (&i, &(mean, var)) in picks[..len].iter().zip(&self.exact) {
                let ei = expected_improvement(mean, var, best, xi);
                if winner.map_or(ei > f64::NEG_INFINITY, |(w, j)| {
                    ei > w || (ei == w && i < j)
                }) {
                    winner = Some((ei, i));
                }
            }
        }
        (winner.map(|w| w.1), scored)
    }
}

/// GP-EI Bayesian optimization over a [`ConfigSpace`].
pub struct BayesOpt {
    space: ConfigSpace,
    gp: GaussianProcess,
    rng: SimRng,
    tracker: BestTracker,
    /// The proposal awaiting an observation (scaled space).
    pending_scaled: Option<Vec<f64>>,
    /// The candidate pool, redrawn in place every proposal.
    pool: CandidatePool,
    stats: ScoringStats,
}

impl BayesOpt {
    /// A tuner over `space` with default kernel and budget-free operation.
    pub fn new(space: ConfigSpace, seed: u64) -> Self {
        let pool = CandidatePool::new(space.dim(), Vec::new());
        BayesOpt {
            space,
            gp: GaussianProcess::new(Kernel::default()),
            rng: SimRng::seed_from_u64(seed),
            tracker: BestTracker::default(),
            pending_scaled: None,
            pool,
            stats: ScoringStats::default(),
        }
    }

    /// Candidates pooled and candidates that reached the exact pass so
    /// far.
    pub fn scoring_stats(&self) -> ScoringStats {
        self.stats
    }

    fn random_scaled(&mut self) -> Vec<f64> {
        (0..self.space.dim())
            .map(|_| self.rng.uniform(self.space.scaled_lo, self.space.scaled_hi))
            .collect()
    }

    fn propose_scaled(&mut self) -> Vec<f64> {
        if self.gp.len() < N_INITIAL {
            return self.random_scaled();
        }
        let best = self.gp.best_y().expect("observations exist");
        // The fallback, then the pool: the RNG order of the one-at-a-time
        // loop the batched scoring replaced.
        let mut chosen = self.random_scaled();
        let (lo, hi) = (self.space.scaled_lo, self.space.scaled_hi);
        let rng = &mut self.rng;
        self.pool.redraw(N_CANDIDATES, || rng.uniform(lo, hi));
        let (winner, scored) = self.pool.argmax_ei(&self.gp, best, XI);
        self.stats.pooled += N_CANDIDATES as u64;
        self.stats.scored += scored as u64;
        if let Some(i) = winner {
            chosen.copy_from_slice(self.pool.candidate(i));
        }
        chosen
    }
}

/// Random probes before the model drives the search.
const N_INITIAL: usize = 5;
/// Candidate pool size per EI maximization.
const N_CANDIDATES: usize = 256;
/// EI exploration margin.
const XI: f64 = 0.1;

impl Tuner for BayesOpt {
    fn name(&self) -> &'static str {
        "bayesian-optimization"
    }

    fn propose(&mut self) -> Vec<f64> {
        let scaled = self.propose_scaled();
        let physical = self.space.to_physical(&scaled);
        // Store the *quantized* point: the system runs the quantized
        // configuration, so the model must be trained on it.
        self.pending_scaled = Some(self.space.to_scaled(&physical));
        physical
    }

    fn observe(&mut self, physical: &[f64], objective: f64) {
        self.tracker.observe(physical, objective);
        let scaled = self
            .pending_scaled
            .take()
            .unwrap_or_else(|| self.space.to_scaled(physical));
        if objective.is_finite() {
            self.gp.add(scaled, objective);
        }
    }

    fn best(&self) -> Option<(Vec<f64>, f64)> {
        self.tracker.best()
    }

    fn evaluations(&self) -> usize {
        self.tracker.evaluations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A noisy 2-D test objective over the paper space with minimum at
    /// interval ≈ 8 s, executors = 16.
    fn objective(rng: &mut SimRng, physical: &[f64]) -> f64 {
        let (i, e) = (physical[0], physical[1]);
        (i - 8.0).powi(2) / 10.0 + (e - 16.0).powi(2) / 20.0 + 8.0 + rng.normal(0.0, 0.2)
    }

    #[test]
    fn finds_a_near_optimal_configuration() {
        let mut bo = BayesOpt::new(ConfigSpace::paper_default(), 3);
        let mut noise = SimRng::seed_from_u64(9);
        for _ in 0..40 {
            let p = bo.propose();
            let y = objective(&mut noise, &p);
            bo.observe(&p, y);
        }
        let (cfg, obj) = bo.best().expect("40 observations");
        assert!((cfg[0] - 8.0).abs() < 4.0, "interval near 8: {cfg:?}");
        assert!((cfg[1] - 16.0).abs() < 6.0, "executors near 16: {cfg:?}");
        assert!(obj < 10.5, "objective near the floor of 8: {obj}");
        assert_eq!(bo.evaluations(), 40);
    }

    #[test]
    fn proposals_respect_physical_bounds_and_quantization() {
        let mut bo = BayesOpt::new(ConfigSpace::paper_default(), 1);
        for i in 0..30 {
            let p = bo.propose();
            assert!((1.0..=40.0).contains(&p[0]), "{p:?}");
            assert!((1.0..=20.0).contains(&p[1]), "{p:?}");
            assert_eq!(p[1].fract(), 0.0, "executors quantized: {p:?}");
            bo.observe(&p, 10.0 + i as f64 * 0.1);
        }
    }

    #[test]
    fn model_phase_beats_random_phase_on_smooth_objective() {
        let mut bo = BayesOpt::new(ConfigSpace::paper_default(), 7);
        let mut noise = SimRng::seed_from_u64(2);
        let mut random_phase = Vec::new();
        let mut model_phase = Vec::new();
        for i in 0..35 {
            let p = bo.propose();
            let y = objective(&mut noise, &p);
            bo.observe(&p, y);
            if i < N_INITIAL {
                random_phase.push(y);
            } else if i >= 25 {
                model_phase.push(y);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&model_phase) < mean(&random_phase),
            "late proposals should be better: {} vs {}",
            mean(&model_phase),
            mean(&random_phase)
        );
    }

    #[test]
    fn non_finite_observation_does_not_poison_the_model() {
        let mut bo = BayesOpt::new(ConfigSpace::paper_default(), 5);
        let p = bo.propose();
        bo.observe(&p, f64::NAN);
        // Still functional afterwards.
        let p2 = bo.propose();
        bo.observe(&p2, 5.0);
        assert_eq!(bo.best().unwrap().1, 5.0);
    }

    #[test]
    fn scoring_stats_count_the_pool_and_its_survivors() {
        let run = || {
            let mut bo = BayesOpt::new(ConfigSpace::extended(), 13);
            for i in 0..40 {
                let p = bo.propose();
                let y = p.iter().sum::<f64>() * 0.01 + (i % 4) as f64 * 0.1;
                bo.observe(&p, y);
            }
            bo.scoring_stats()
        };
        let stats = run();
        assert_eq!(stats.pooled, (40 - N_INITIAL as u64) * N_CANDIDATES as u64);
        assert!(
            0 < stats.scored && stats.scored < stats.pooled,
            "the exact pass sees a strict subset: {stats:?}"
        );
        assert_eq!(run(), stats, "seed-pure");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut bo = BayesOpt::new(ConfigSpace::paper_default(), 11);
            let mut ys = Vec::new();
            for i in 0..15 {
                let p = bo.propose();
                let y = p[0] + p[1] + (i % 3) as f64;
                bo.observe(&p, y);
                ys.push(p);
            }
            ys
        };
        assert_eq!(run(), run());
    }
}
