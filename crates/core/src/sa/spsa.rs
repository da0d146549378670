//! The SPSA optimizer.
//!
//! One iteration (§5.3, Algorithm 1):
//!
//! 1. draw a Bernoulli-±1 perturbation vector `Δ_k`;
//! 2. measure the noisy objective at `θ_k + c_k Δ_k` and `θ_k − c_k Δ_k`
//!    (bound-clamped — the paper's `checkBound`);
//! 3. form the simultaneous-perturbation gradient estimate
//!    `ĝ_k,i = (y⁺ − y⁻) / (2 c_k Δ_k,i)`;
//! 4. step `θ_{k+1} = checkBound(θ_k − a_k ĝ_k)`.
//!
//! The optimizer exposes both a closure-driven [`Spsa::step`] (for tests and
//! offline use) and a split-phase [`Spsa::propose`]/[`Spsa::update`] pair,
//! which is what the live controller uses: between `propose` and `update`
//! the real system runs for a measurement window under each perturbed
//! configuration.

use super::gains::GainSchedule;
use super::perturb::BernoulliPerturbation;
use nostop_simcore::SimRng;

/// SPSA construction parameters.
#[derive(Debug, Clone)]
pub struct SpsaParams {
    /// Gain sequences; must satisfy the convergence conditions.
    pub gains: GainSchedule,
    /// Per-dimension lower bounds of the (scaled) search space.
    pub lower: Vec<f64>,
    /// Per-dimension upper bounds of the (scaled) search space.
    pub upper: Vec<f64>,
    /// Optional per-dimension cap on `|a_k · ĝ_k,i|` — Spall's practical
    /// recommendation to "limit the magnitude of change in θ" per
    /// iteration, preventing a noisy early gradient from slamming the
    /// iterate wall-to-wall. `None` disables clipping.
    pub max_step: Option<f64>,
}

impl SpsaParams {
    /// Paper setting: both scaled dimensions bounded to `[1, 20]`, gains
    /// `A = 1, a = 10, c = 2` (§6.2.1).
    pub fn paper_default(dim: usize) -> Self {
        SpsaParams {
            gains: GainSchedule::paper_default(),
            lower: vec![1.0; dim],
            upper: vec![20.0; dim],
            // A quarter of the scaled range per iteration.
            max_step: Some(19.0 / 4.0),
        }
    }

    fn validate(&self) {
        assert!(!self.lower.is_empty(), "dimension must be at least 1");
        assert_eq!(self.lower.len(), self.upper.len(), "bound length mismatch");
        for (lo, hi) in self.lower.iter().zip(&self.upper) {
            assert!(lo < hi, "each lower bound must be below its upper bound");
        }
        assert!(
            self.gains.satisfies_convergence(),
            "gain schedule violates SPSA convergence conditions: {:?}",
            self.gains.check_conditions()
        );
    }
}

/// A pending iteration: evaluate the objective at both points, then call
/// [`Spsa::update`].
#[derive(Debug, Clone)]
pub struct Proposal {
    /// Iteration index this proposal belongs to (0-based).
    pub k: u64,
    /// The perturbation vector `Δ_k` (components ±1).
    pub delta: Vec<f64>,
    /// `checkBound(θ_k + c_k Δ_k)`.
    pub theta_plus: Vec<f64>,
    /// `checkBound(θ_k − c_k Δ_k)`.
    pub theta_minus: Vec<f64>,
    /// Gain `a_k` for this iteration.
    pub a_k: f64,
    /// Perturbation size `c_k` for this iteration.
    pub c_k: f64,
}

/// The outcome of one completed iteration.
#[derive(Debug, Clone)]
pub struct StepInfo {
    /// Iteration index (0-based).
    pub k: u64,
    /// Gradient estimate `ĝ_k`.
    pub gradient: Vec<f64>,
    /// The new iterate `θ_{k+1}` (bound-clamped).
    pub theta: Vec<f64>,
    /// `y(θ⁺)` as reported.
    pub y_plus: f64,
    /// `y(θ⁻)` as reported.
    pub y_minus: f64,
}

/// The SPSA optimizer state.
#[derive(Debug, Clone)]
pub struct Spsa {
    params: SpsaParams,
    theta: Vec<f64>,
    k: u64,
    rng: SimRng,
}

impl Spsa {
    /// Start at `theta_initial` (clamped into bounds). Panics on invalid
    /// parameters or a non-convergent gain schedule.
    pub fn new(params: SpsaParams, theta_initial: Vec<f64>, rng: SimRng) -> Self {
        params.validate();
        assert_eq!(
            theta_initial.len(),
            params.lower.len(),
            "theta dimension mismatch"
        );
        let theta = clamp(&theta_initial, &params.lower, &params.upper);
        Spsa {
            params,
            theta,
            k: 0,
            rng,
        }
    }

    /// Current iterate `θ_k`.
    pub fn theta(&self) -> &[f64] {
        &self.theta
    }

    /// Completed iteration count.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.theta.len()
    }

    /// The gain schedule in force.
    pub fn gains(&self) -> &GainSchedule {
        &self.params.gains
    }

    /// Reset to iteration 0 at `theta_initial` — the paper's
    /// `resetCoefficient()` (Table 1), triggered on input-rate shifts.
    pub fn reset(&mut self, theta_initial: &[f64]) {
        assert_eq!(theta_initial.len(), self.theta.len(), "dimension mismatch");
        self.theta = clamp(theta_initial, &self.params.lower, &self.params.upper);
        self.k = 0;
    }

    /// Begin iteration `k`: draw `Δ_k` and produce the two evaluation
    /// points. Does not advance `k` — call [`Spsa::update`] with the
    /// measurements to complete the iteration.
    pub fn propose(&mut self) -> Proposal {
        let a_k = self.params.gains.a_k(self.k);
        let c_k = self.params.gains.c_k(self.k);
        let delta = BernoulliPerturbation.draw_vector(self.theta.len(), &mut self.rng);
        let plus: Vec<f64> = self
            .theta
            .iter()
            .zip(&delta)
            .map(|(t, d)| t + c_k * d)
            .collect();
        let minus: Vec<f64> = self
            .theta
            .iter()
            .zip(&delta)
            .map(|(t, d)| t - c_k * d)
            .collect();
        Proposal {
            k: self.k,
            delta,
            theta_plus: clamp(&plus, &self.params.lower, &self.params.upper),
            theta_minus: clamp(&minus, &self.params.lower, &self.params.upper),
            a_k,
            c_k,
        }
    }

    /// Complete an iteration with the two measurements and step the iterate.
    ///
    /// Stale proposals (from before a [`Spsa::reset`]) are rejected with a
    /// panic: the gradient would be scaled by the wrong gains.
    pub fn update(&mut self, proposal: &Proposal, y_plus: f64, y_minus: f64) -> StepInfo {
        assert_eq!(proposal.k, self.k, "proposal is stale (reset happened?)");
        assert!(
            y_plus.is_finite() && y_minus.is_finite(),
            "objective measurements must be finite"
        );
        let diff = y_plus - y_minus;
        let gradient: Vec<f64> = proposal
            .delta
            .iter()
            .map(|d| diff / (2.0 * proposal.c_k * d))
            .collect();
        let stepped: Vec<f64> = self
            .theta
            .iter()
            .zip(&gradient)
            .map(|(t, g)| {
                let mut step = proposal.a_k * g;
                if let Some(cap) = self.params.max_step {
                    step = step.clamp(-cap, cap);
                }
                t - step
            })
            .collect();
        self.theta = clamp(&stepped, &self.params.lower, &self.params.upper);
        self.k += 1;
        StepInfo {
            k: proposal.k,
            gradient,
            theta: self.theta.clone(),
            y_plus,
            y_minus,
        }
    }

    /// Convenience: run one full iteration against a closure objective.
    pub fn step<F: FnMut(&[f64]) -> f64>(&mut self, mut objective: F) -> StepInfo {
        let p = self.propose();
        let y_plus = objective(&p.theta_plus);
        let y_minus = objective(&p.theta_minus);
        self.update(&p, y_plus, y_minus)
    }

    /// Run `n` iterations against a closure objective; returns the final
    /// iterate.
    pub fn run<F: FnMut(&[f64]) -> f64>(&mut self, n: u64, mut objective: F) -> Vec<f64> {
        for _ in 0..n {
            self.step(&mut objective);
        }
        self.theta.clone()
    }
}

/// The paper's `checkBound`: clamp each component into `[lower, upper]`.
fn clamp(theta: &[f64], lower: &[f64], upper: &[f64]) -> Vec<f64> {
    theta
        .iter()
        .zip(lower.iter().zip(upper))
        .map(|(&t, (&lo, &hi))| t.clamp(lo, hi))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic(center: Vec<f64>) -> impl FnMut(&[f64]) -> f64 {
        move |theta: &[f64]| {
            theta
                .iter()
                .zip(&center)
                .map(|(t, c)| (t - c).powi(2))
                .sum::<f64>()
        }
    }

    fn params(dim: usize) -> SpsaParams {
        SpsaParams {
            gains: GainSchedule {
                a: 2.0,
                big_a: 5.0,
                c: 0.5,
                alpha: 0.602,
                gamma: 0.101,
            },
            lower: vec![0.0; dim],
            upper: vec![20.0; dim],
            max_step: None,
        }
    }

    #[test]
    fn converges_on_noiseless_quadratic() {
        let mut spsa = Spsa::new(params(2), vec![15.0, 3.0], SimRng::seed_from_u64(1));
        let theta = spsa.run(300, quadratic(vec![7.0, 12.0]));
        assert!((theta[0] - 7.0).abs() < 0.5, "theta {theta:?}");
        assert!((theta[1] - 12.0).abs() < 0.5, "theta {theta:?}");
    }

    #[test]
    fn converges_under_noise() {
        let mut noise_rng = SimRng::seed_from_u64(99);
        let mut q = quadratic(vec![10.0, 5.0]);
        let mut spsa = Spsa::new(params(2), vec![2.0, 18.0], SimRng::seed_from_u64(2));
        let theta = spsa.run(800, |t| q(t) + noise_rng.normal(0.0, 1.0));
        assert!((theta[0] - 10.0).abs() < 1.5, "theta {theta:?}");
        assert!((theta[1] - 5.0).abs() < 1.5, "theta {theta:?}");
    }

    #[test]
    fn iterates_respect_bounds() {
        // Optimum outside the feasible box: iterates must stick to the wall.
        let mut spsa = Spsa::new(params(2), vec![10.0, 10.0], SimRng::seed_from_u64(3));
        spsa.run(200, quadratic(vec![30.0, -10.0]));
        for _ in 0..50 {
            let p = spsa.propose();
            for (t, (lo, hi)) in p
                .theta_plus
                .iter()
                .zip(spsa.params.lower.iter().zip(&spsa.params.upper))
            {
                assert!(*t >= *lo && *t <= *hi);
            }
            spsa.update(&p, 0.0, 0.0);
        }
        let theta = spsa.theta();
        assert!(theta[0] > 15.0, "pushed to upper wall: {theta:?}");
        assert!(theta[1] < 5.0, "pushed to lower wall: {theta:?}");
    }

    #[test]
    fn two_measurements_per_iteration_regardless_of_dimension() {
        for dim in [1usize, 2, 5, 20] {
            let mut count = 0u64;
            let mut spsa = Spsa::new(params(dim), vec![10.0; dim], SimRng::seed_from_u64(4));
            spsa.run(10, |t| {
                count += 1;
                t.iter().sum()
            });
            assert_eq!(count, 20, "exactly 2 evals/iter at dim {dim}");
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut spsa = Spsa::new(params(2), vec![10.0, 10.0], SimRng::seed_from_u64(5));
        spsa.run(50, quadratic(vec![0.0, 0.0]));
        assert_eq!(spsa.k(), 50);
        spsa.reset(&[10.0, 10.0]);
        assert_eq!(spsa.k(), 0);
        assert_eq!(spsa.theta(), &[10.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn stale_proposal_is_rejected() {
        let mut spsa = Spsa::new(params(2), vec![10.0, 10.0], SimRng::seed_from_u64(6));
        let p = spsa.propose();
        spsa.reset(&[10.0, 10.0]);
        spsa.step(|_| 0.0); // k advances
        spsa.update(&p, 1.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_measurement_is_rejected() {
        let mut spsa = Spsa::new(params(1), vec![10.0], SimRng::seed_from_u64(7));
        let p = spsa.propose();
        spsa.update(&p, f64::NAN, 1.0);
    }

    #[test]
    #[should_panic(expected = "convergence")]
    fn invalid_gain_schedule_is_rejected_at_construction() {
        let mut p = params(2);
        p.gains.gamma = 0.4; // 2(0.602-0.4) = 0.404 < 1
        let _ = Spsa::new(p, vec![1.0, 1.0], SimRng::seed_from_u64(8));
    }

    #[test]
    fn gradient_sign_matches_measurement_difference() {
        let mut spsa = Spsa::new(params(2), vec![10.0, 10.0], SimRng::seed_from_u64(9));
        let p = spsa.propose();
        let info = spsa.update(&p, 5.0, 1.0); // y+ > y-: move against +delta
        for (g, d) in info.gradient.iter().zip(&p.delta) {
            assert!(g * d > 0.0, "gradient component aligned with delta sign");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut spsa = Spsa::new(params(2), vec![10.0, 10.0], SimRng::seed_from_u64(42));
            spsa.run(100, quadratic(vec![4.0, 16.0]))
        };
        assert_eq!(run(), run());
    }
}
