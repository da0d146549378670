//! The penalized objective of Eq. 3 and its ρ ramp.
//!
//! SSPO (Definition 3.1) minimizes batch interval subject to the stability
//! constraint `BatchInterval ≥ BatchProcessingTime`. NoStop folds the
//! constraint into the objective as an exact penalty:
//!
//! ```text
//! G(θ) = BatchInterval + ρ · max(0, BatchProcessingTime − BatchInterval)
//! ```
//!
//! §4.2.2 explains the ρ schedule: early in the optimization the gain
//! sequence is large, so a large ρ would produce overshooting gradients;
//! as `k` grows and gains shrink, ρ is raised to keep constraint violations
//! expensive — but capped, lest the penalty drown the minimization goal.
//! Algorithm 1 ramps ρ from 1 by 0.1 per iteration to a cap of 2.

/// The cap of the paper's ρ ramp — also the coefficient used when *ranking*
/// configurations intrinsically (the bench driver's scoring metric), so that
/// ranking and optimization penalize instability identically.
pub const RHO_CAP: f64 = 2.0;

/// The stability headroom fraction used when ranking configurations:
/// processing time must fit within this fraction of the interval before a
/// configuration counts as cleanly stable. Under a varying input rate, a
/// configuration measured exactly at the frontier during a low-rate
/// episode is unstable at the top of the range; requiring headroom parks
/// the system at a configuration that absorbs the whole range. Shared by
/// the controller's pause rule and best-config tracking and by the bench
/// driver's intrinsic scoring, so there is one source of truth for
/// "comfortably stable".
pub const STABILITY_HEADROOM: f64 = 0.85;

/// The ρ penalty schedule of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PenaltySchedule {
    /// Current penalty coefficient.
    rho: f64,
    /// Initial value (Algorithm 1: 1.0).
    pub rho_init: f64,
    /// Per-iteration increment (Algorithm 1: 0.1).
    pub rho_step: f64,
    /// Upper cap (Algorithm 1: 2.0).
    pub rho_max: f64,
}

impl PenaltySchedule {
    /// The paper's schedule: ρ: 1.0 → 2.0 in steps of 0.1.
    pub fn paper_default() -> Self {
        PenaltySchedule {
            rho: 1.0,
            rho_init: 1.0,
            rho_step: 0.1,
            rho_max: RHO_CAP,
        }
    }

    /// A custom schedule; panics unless `0 < init ≤ max` and `step ≥ 0`.
    pub fn new(init: f64, step: f64, max: f64) -> Self {
        assert!(init > 0.0 && init <= max, "need 0 < init <= max");
        assert!(step >= 0.0, "step must be non-negative");
        PenaltySchedule {
            rho: init,
            rho_init: init,
            rho_step: step,
            rho_max: max,
        }
    }

    /// The current coefficient ρ.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Evaluate Eq. 3 with the current ρ. Arguments in seconds.
    pub fn objective(&self, batch_interval_s: f64, processing_time_s: f64) -> f64 {
        batch_interval_s + self.rho * (processing_time_s - batch_interval_s).max(0.0)
    }

    /// Advance the ramp (Algorithm 1 does this once per iteration, after
    /// both measurements): `ρ ← min(ρ + step, max)`.
    pub fn advance(&mut self) {
        self.rho = (self.rho + self.rho_step).min(self.rho_max);
    }

    /// Reset to the initial coefficient — part of `resetCoefficient()`.
    pub fn reset(&mut self) {
        self.rho = self.rho_init;
    }
}

impl Default for PenaltySchedule {
    fn default() -> Self {
        PenaltySchedule::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_configs_pay_only_interval() {
        let p = PenaltySchedule::paper_default();
        // processing < interval: no penalty, G = interval.
        assert_eq!(p.objective(10.0, 8.0), 10.0);
        assert_eq!(p.objective(10.0, 10.0), 10.0);
    }

    #[test]
    fn unstable_configs_pay_penalty() {
        let p = PenaltySchedule::paper_default();
        // processing 12 > interval 10: G = 10 + 1.0 * 2 = 12.
        assert_eq!(p.objective(10.0, 12.0), 12.0);
    }

    #[test]
    fn ramp_follows_algorithm_one() {
        let mut p = PenaltySchedule::paper_default();
        assert_eq!(p.rho(), 1.0);
        for i in 1..=10 {
            p.advance();
            assert!((p.rho() - (1.0 + 0.1 * i as f64)).abs() < 1e-12);
        }
        // Capped at 2.0 thereafter.
        for _ in 0..20 {
            p.advance();
        }
        assert_eq!(p.rho(), 2.0);
    }

    #[test]
    fn ramped_penalty_weights_violation_more() {
        let mut p = PenaltySchedule::paper_default();
        let early = p.objective(10.0, 12.0);
        for _ in 0..20 {
            p.advance();
        }
        let late = p.objective(10.0, 12.0);
        assert_eq!(early, 12.0);
        assert_eq!(late, 14.0); // rho = 2
        assert!(late > early);
    }

    #[test]
    fn reset_restores_initial_rho() {
        let mut p = PenaltySchedule::paper_default();
        p.advance();
        p.advance();
        p.reset();
        assert_eq!(p.rho(), 1.0);
    }

    #[test]
    fn objective_ordering_prefers_smaller_stable_interval() {
        // Among stable configs the smaller interval wins; any unstable
        // config loses to a stable one at the same interval.
        let p = PenaltySchedule::paper_default();
        assert!(p.objective(8.0, 7.0) < p.objective(12.0, 7.0));
        assert!(p.objective(10.0, 9.0) < p.objective(10.0, 11.0));
    }

    #[test]
    #[should_panic(expected = "init")]
    fn invalid_schedule_panics() {
        let _ = PenaltySchedule::new(3.0, 0.1, 2.0);
    }
}
