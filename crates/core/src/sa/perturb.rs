//! The perturbation distribution for simultaneous perturbation.
//!
//! SPSA's gradient estimate divides by the perturbation components
//! `Δ_ki`, so the distribution must be symmetric around zero, bounded, and
//! have **finite inverse moments** `E|Δ_ki⁻¹|` (§4.2.3). The symmetric
//! Bernoulli ±1 distribution — what the paper uses and Spall recommends —
//! satisfies this trivially, and it is the only one offered. Gaussian and
//! plain-uniform perturbations are famously *invalid* (mass near zero ⇒
//! unbounded inverse moments).

use nostop_simcore::SimRng;

/// The symmetric Bernoulli ±1 distribution (probability ½ each) — the
/// paper's choice (§5.3.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct BernoulliPerturbation;

impl BernoulliPerturbation {
    /// Fill a `dim`-component perturbation vector, one independent ±1
    /// draw per component.
    pub fn draw_vector(&self, dim: usize, rng: &mut SimRng) -> Vec<f64> {
        (0..dim).map(|_| rng.bernoulli_pm1()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bernoulli_draws_only_pm_one() {
        let mut rng = SimRng::seed_from_u64(1);
        let p = BernoulliPerturbation;
        let v = p.draw_vector(10_000, &mut rng);
        assert!(v.iter().all(|&x| x == 1.0 || x == -1.0));
        let mean: f64 = v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn bernoulli_components_are_independent() {
        // Correlation between consecutive components of a long vector
        // should vanish.
        let mut rng = SimRng::seed_from_u64(2);
        let v = BernoulliPerturbation.draw_vector(50_000, &mut rng);
        let corr: f64 = v.windows(2).map(|w| w[0] * w[1]).sum::<f64>() / (v.len() - 1) as f64;
        assert!(corr.abs() < 0.05, "corr {corr}");
    }
}
