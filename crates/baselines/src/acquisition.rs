//! Acquisition functions for Bayesian optimization.
//!
//! Expected Improvement for minimization:
//!
//! ```text
//! EI(x) = (y* − μ(x) − ξ) Φ(z) + σ(x) φ(z),   z = (y* − μ(x) − ξ) / σ(x)
//! ```
//!
//! where `y*` is the incumbent (best observed) value and ξ a small
//! exploration margin. Φ/φ are computed via an Abramowitz–Stegun erf
//! approximation — accurate to ~1.5e-7, far below measurement noise.
//!
//! [`expected_improvement_bound`] bounds EI from above over every
//! variance up to a ceiling, from the mean alone; BayesOpt uses it to
//! skip the variance of candidates that cannot win.

/// Standard normal probability density.
pub fn normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Error function, Abramowitz & Stegun 7.1.26 (|ε| ≤ 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal cumulative distribution.
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Expected improvement (minimization) at a point with posterior
/// `(mean, variance)` given incumbent `best` and exploration margin `xi`.
pub fn expected_improvement(mean: f64, variance: f64, best: f64, xi: f64) -> f64 {
    // Guard on *variance*, before the sqrt: a denormal σ² squeezes through
    // a σ-based check yet still produces a subnormal divisor for z, turning
    // EI into ±inf·0 noise. Anything below 1e-18 (σ < 1e-9, ten orders
    // under the posterior's 1e-12 variance floor) deterministically takes
    // the zero-variance branch instead.
    let variance = variance.max(0.0);
    if variance < 1e-18 {
        return (best - mean - xi).max(0.0);
    }
    let sigma = variance.sqrt();
    let improvement = best - mean - xi;
    let z = improvement / sigma;
    (improvement * normal_cdf(z) + sigma * normal_pdf(z)).max(0.0)
}

/// Slack of [`expected_improvement_bound`], per unit of `|y* − μ − ξ| + σ`.
const BOUND_SLACK: f64 = 1e-9;

/// An upper bound on [`expected_improvement`]`(mean, σ², best, xi)` over
/// every `σ² ≤ max_variance`: the EI at `max_variance` plus a slack.
///
/// Exact EI is nondecreasing in σ (`∂EI/∂σ = φ(z) ≥ 0`), so the EI at the
/// largest variance bounds the rest. The erf approximation and rounding
/// break that by a hair: where the bound clamps to 0 a smaller σ can come
/// out a few ulps positive, and a dense scan over `z` and `σ / σ_max`
/// found no excess above 4e-16 × `(|improvement| + σ_max)`. The slack is
/// therefore absolute, `1e-9 × (|improvement| + σ_max)`, not a multiple of
/// the bound, which is 0 exactly where the excess shows up.
pub fn expected_improvement_bound(mean: f64, max_variance: f64, best: f64, xi: f64) -> f64 {
    let improvement = best - mean - xi;
    expected_improvement(mean, max_variance, best, xi)
        + BOUND_SLACK * (improvement.abs() + max_variance.max(0.0).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_matches_known_values() {
        // erf(0) = 0, erf(1) ≈ 0.8427008, erf(−1) = −erf(1), erf(∞) → 1.
        assert!(erf(0.0).abs() < 1e-8);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + erf(1.0)).abs() < 1e-12);
        assert!((erf(5.0) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn cdf_is_monotone_and_symmetric() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-8);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        let mut prev = 0.0;
        for i in -40..=40 {
            let c = normal_cdf(i as f64 / 10.0);
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn ei_prefers_low_mean_at_equal_uncertainty() {
        let best = 10.0;
        let a = expected_improvement(8.0, 1.0, best, 0.0);
        let b = expected_improvement(9.5, 1.0, best, 0.0);
        assert!(a > b);
    }

    #[test]
    fn ei_prefers_uncertainty_at_equal_mean() {
        let best = 10.0;
        let certain = expected_improvement(10.5, 0.01, best, 0.0);
        let uncertain = expected_improvement(10.5, 4.0, best, 0.0);
        assert!(uncertain > certain);
    }

    #[test]
    fn ei_is_nonnegative_and_zero_when_hopeless() {
        assert_eq!(expected_improvement(100.0, 0.0, 10.0, 0.0), 0.0);
        for mean in [0.0, 5.0, 20.0] {
            for var in [0.0, 1.0, 10.0] {
                assert!(expected_improvement(mean, var, 10.0, 0.01) >= 0.0);
            }
        }
    }

    #[test]
    fn tiny_variance_routes_through_zero_variance_branch() {
        // σ² = 0 and σ² = 1e-300 (subnormal σ territory) must hit the
        // deterministic branch: EI is exactly the clamped improvement.
        for var in [0.0, 1e-300] {
            assert_eq!(expected_improvement(8.0, var, 10.0, 0.5), 1.5);
            assert_eq!(expected_improvement(12.0, var, 10.0, 0.0), 0.0);
        }
        // Negative variance (floating-point cancellation upstream) clamps
        // into the same branch rather than producing NaN.
        assert_eq!(expected_improvement(8.0, -1e-9, 10.0, 0.0), 2.0);
        // σ² = 1e-18 sits exactly on the threshold: the analytic branch,
        // with σ = 1e-9 still a normal double, and a finite result that the
        // deterministic branch bounds from below.
        let at_threshold = expected_improvement(8.0, 1e-18, 10.0, 0.0);
        assert!(at_threshold.is_finite());
        assert!((at_threshold - 2.0).abs() < 1e-9, "{at_threshold}");
    }

    #[test]
    fn xi_margin_discounts_marginal_improvements() {
        let no_margin = expected_improvement(9.9, 0.01, 10.0, 0.0);
        let margin = expected_improvement(9.9, 0.01, 10.0, 0.5);
        assert!(no_margin > margin);
    }
}
