//! The input-rate reset rule (§5.5).
//!
//! After many SPSA iterations the gain sequence is tiny; a traffic surge
//! (an e-commerce promotion, a spike) would then be chased at a crawl. The
//! paper's remedy: watch the standard deviation of the recent input data
//! rate, and when it exceeds `threshold_speed`, reset the coefficients
//! (`k ← 0, θ ← θ_initial, ρ ← ρ_init`) and restart the optimization.

use nostop_simcore::stats::{Ewma, RollingStats};

/// Watches recent input rates and fires when their variability signals a
/// regime change.
#[derive(Debug, Clone)]
pub struct ResetRule {
    /// Std-dev threshold: records/second when `relative` is false, a
    /// fraction of the windowed mean rate when true.
    pub threshold_speed: f64,
    /// Interpret `threshold_speed` relative to the windowed mean rate.
    /// A relative threshold survives regime changes: after a permanent
    /// surge the new (higher) rate level raises the bar proportionally,
    /// so the rule fires on the *shift* but not forever after it.
    pub relative: bool,
    window: RollingStats,
    min_samples: usize,
    /// Latched once the threshold is crossed; stays set until [`ResetRule::clear`].
    fired: bool,
    /// Slow EWMA of the rate — the baseline for level-shift detection.
    baseline: Ewma,
    /// Fire when the windowed mean deviates from the baseline by more than
    /// this fraction (`None` disables level-shift detection).
    ///
    /// The paper's std-dev rule (§5.5) catches the *transition window*
    /// where old- and new-regime samples mix; it is blind to a clean level
    /// shift whose window has already filled with new-regime samples, and
    /// a dispersion threshold wide enough for benign in-range fluctuation
    /// cannot see a 2× step at all (a step from r to m·r yields a
    /// std/mean ratio of at most (m−1)/(m+1)). The level-shift detector
    /// closes that gap.
    pub level_fraction: Option<f64>,
    /// Cumulative executor failures reported since the last [`ResetRule::clear`].
    failures: u32,
    /// Fire once cumulative executor failures reach this count (`None`
    /// disables failure-triggered resets). Executor loss changes the
    /// effective service rate the same way a traffic surge changes the
    /// arrival rate: the converged θ is stale and the shrunk SPSA gains
    /// would chase the new optimum at a crawl — so re-explore.
    pub failure_threshold: Option<u32>,
}

impl ResetRule {
    /// Watch the last `window` rate samples; fire when their std-dev
    /// exceeds `threshold_speed` (records/s). Requires at least
    /// `window / 2` samples before firing (a half-filled window is enough
    /// evidence, a couple of samples is not).
    pub fn new(threshold_speed: f64, window: usize) -> Self {
        assert!(threshold_speed > 0.0, "threshold must be positive");
        assert!(window >= 4, "window too small to estimate variability");
        ResetRule {
            threshold_speed,
            relative: false,
            window: RollingStats::new(window),
            min_samples: window / 2,
            fired: false,
            baseline: Ewma::new(0.02),
            level_fraction: None,
            failures: 0,
            failure_threshold: None,
        }
    }

    /// A relative rule: fire when the windowed rate std-dev exceeds
    /// `fraction` of the windowed mean rate, or when the windowed mean
    /// shifts from the long-term baseline by more than 40%.
    pub fn relative(fraction: f64, window: usize) -> Self {
        assert!(fraction > 0.0, "fraction must be positive");
        let mut r = ResetRule::new(fraction, window);
        r.relative = true;
        r.level_fraction = Some(0.4);
        r
    }

    /// Record one observed input-rate sample (records/s).
    ///
    /// Detection latches: once the windowed std-dev crosses the threshold,
    /// [`ResetRule::needs_reset`] stays true until [`ResetRule::clear`] —
    /// the controller may poll long after the surge samples have rolled
    /// out of the window (its measurement rounds consume many batches).
    pub fn record_rate(&mut self, rate: f64) {
        if !(rate.is_finite() && rate >= 0.0) {
            return;
        }
        self.window.push(rate);
        let threshold = if self.relative {
            self.threshold_speed * self.window.mean()
        } else {
            self.threshold_speed
        };
        if self.window.len() >= self.min_samples && self.window.std_dev() > threshold {
            self.fired = true;
        }
        // Level-shift detection against the slow baseline.
        if let (Some(frac), Some(base)) = (self.level_fraction, self.baseline.value()) {
            if self.window.len() >= self.min_samples
                && (self.window.mean() - base).abs() > frac * base
            {
                self.fired = true;
            }
        }
        self.baseline.push(rate);
    }

    /// Record `count` executor failures observed in a completed batch.
    /// Latches the reset once cumulative failures since the last
    /// [`ResetRule::clear`] reach `failure_threshold`.
    pub fn record_failure(&mut self, count: u32) {
        if count == 0 {
            return;
        }
        self.failures = self.failures.saturating_add(count);
        if let Some(threshold) = self.failure_threshold {
            if self.failures >= threshold {
                self.fired = true;
            }
        }
    }

    /// Cumulative executor failures since the last [`ResetRule::clear`]
    /// (for telemetry).
    pub fn failure_count(&self) -> u32 {
        self.failures
    }

    /// True once a rate shift has been detected — the paper's
    /// `needResetCoefficient()`.
    pub fn needs_reset(&self) -> bool {
        self.fired
    }

    /// Current windowed std-dev (for telemetry).
    pub fn current_std(&self) -> f64 {
        self.window.std_dev()
    }

    /// Mean rate over the window (for telemetry).
    pub fn mean_rate(&self) -> f64 {
        self.window.mean()
    }

    /// Clear the window and the latch — called right after a reset fires
    /// so the same surge does not retrigger immediately. The level
    /// baseline snaps to the most recent window mean: the new regime is
    /// accepted as normal.
    pub fn clear(&mut self) {
        let level = if self.window.is_empty() {
            None
        } else {
            Some(self.window.mean())
        };
        self.window.clear();
        self.fired = false;
        self.failures = 0;
        self.baseline.reset();
        if let Some(l) = level {
            self.baseline.push(l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_rate_never_fires() {
        let mut r = ResetRule::new(1_000.0, 10);
        for _ in 0..100 {
            r.record_rate(10_000.0);
        }
        assert!(!r.needs_reset());
        assert_eq!(r.current_std(), 0.0);
    }

    #[test]
    fn in_range_fluctuation_tolerated_surge_detected() {
        // Threshold sized for the paper's LR range [7k, 13k]: half the
        // 6k range width.
        let mut r = ResetRule::new(3_000.0, 10);
        // Benign fluctuation across the whole range: std ≈ 1.7k < 3k.
        for i in 0..50 {
            r.record_rate(if i % 2 == 0 { 8_000.0 } else { 12_000.0 });
        }
        assert!(!r.needs_reset(), "std {}", r.current_std());
        // Surge to 3x: the window now mixes 10k-ish and 30k samples.
        for _ in 0..5 {
            r.record_rate(30_000.0);
        }
        assert!(r.needs_reset(), "std {}", r.current_std());
    }

    #[test]
    fn needs_min_samples_before_firing() {
        let mut r = ResetRule::new(10.0, 10);
        r.record_rate(0.0);
        r.record_rate(10_000.0); // wildly variable, but only 2 of 5 required
        assert!(!r.needs_reset());
        for _ in 0..3 {
            r.record_rate(5_000.0);
        }
        assert!(r.needs_reset());
    }

    #[test]
    fn clear_prevents_immediate_retrigger() {
        let mut r = ResetRule::new(100.0, 8);
        for rate in [1_000.0, 9_000.0, 1_000.0, 9_000.0] {
            r.record_rate(rate);
        }
        assert!(r.needs_reset());
        r.clear();
        assert!(!r.needs_reset());
        // Post-surge steady state never refires.
        for _ in 0..20 {
            r.record_rate(9_000.0);
        }
        assert!(!r.needs_reset());
    }

    #[test]
    fn ignores_garbage_samples() {
        let mut r = ResetRule::new(100.0, 8);
        r.record_rate(f64::NAN);
        r.record_rate(-5.0);
        r.record_rate(f64::INFINITY);
        assert_eq!(r.mean_rate(), 0.0);
        assert!(!r.needs_reset());
    }

    #[test]
    #[should_panic(expected = "window")]
    fn tiny_window_panics() {
        let _ = ResetRule::new(1.0, 2);
    }

    #[test]
    fn failures_accumulate_to_the_threshold_then_latch() {
        let mut r = ResetRule::new(1_000.0, 10);
        r.failure_threshold = Some(3);
        r.record_failure(1);
        assert!(!r.needs_reset());
        r.record_failure(0); // no-op
        r.record_failure(1);
        assert!(!r.needs_reset());
        r.record_failure(1);
        assert!(r.needs_reset(), "3 cumulative failures must latch");
        assert_eq!(r.failure_count(), 3);
        r.clear();
        assert!(!r.needs_reset());
        assert_eq!(r.failure_count(), 0);
        // A burst past the threshold fires in one step.
        r.record_failure(5);
        assert!(r.needs_reset());
    }

    #[test]
    fn failures_ignored_when_threshold_disabled() {
        let mut r = ResetRule::new(1_000.0, 10);
        assert_eq!(r.failure_threshold, None);
        r.record_failure(100);
        assert!(!r.needs_reset());
        assert_eq!(r.failure_count(), 100);
    }

    #[test]
    fn level_shift_detector_catches_a_2x_step() {
        // A clean 2x step has std/mean ratio at most 1/3 in the mixing
        // window — invisible to a 0.48 dispersion threshold — but the
        // level detector sees the mean leave the baseline.
        let mut r = ResetRule::relative(0.48, 12);
        for _ in 0..100 {
            r.record_rate(10_000.0);
        }
        assert!(!r.needs_reset());
        for _ in 0..12 {
            r.record_rate(20_000.0);
        }
        assert!(r.needs_reset(), "2x step must fire the level detector");
        r.clear();
        // The new level is accepted: steady 20k never refires.
        for _ in 0..100 {
            r.record_rate(20_000.0);
        }
        assert!(!r.needs_reset());
    }

    #[test]
    fn relative_rule_tracks_regime_changes() {
        // 48% relative threshold: benign fluctuation over [7k, 13k]
        // (std ≤ 3k ≈ 30% of the 10k mean) never fires…
        let mut r = ResetRule::relative(0.48, 12);
        for i in 0..40 {
            r.record_rate(if i % 2 == 0 { 7_000.0 } else { 13_000.0 });
        }
        assert!(!r.needs_reset(), "std {}", r.current_std());
        // …the surge to 2.5x fires…
        for _ in 0..6 {
            r.record_rate(25_000.0);
        }
        assert!(r.needs_reset());
        r.clear();
        // …and the post-surge regime's own (proportionally larger)
        // fluctuation does NOT re-fire: the bar moved with the mean.
        for i in 0..40 {
            r.record_rate(if i % 2 == 0 { 17_500.0 } else { 32_500.0 });
        }
        assert!(!r.needs_reset(), "std {}", r.current_std());
    }
}
