//! The pause rule (§5.3.5).
//!
//! "If the standard deviation of the end-to-end delay resulted from N best
//! configurations is smaller than a threshold S, we pause the optimization
//! process." The paper's experiments use `N = 10`, `S = 1` (§6.2.1).

use nostop_simcore::stats::summarize;

/// §6.2.1 pause rule N: how many best configurations are compared.
const N_BEST: usize = 10;

/// §6.2.1 pause rule S: pause once the std-dev of the N best end-to-end
/// delays falls below this many seconds.
const THRESHOLD_S: f64 = 1.0;

/// Tracks the N best (lowest-delay) configurations seen in the current
/// optimization episode and decides when improvement has stalled.
#[derive(Debug, Clone)]
pub struct PauseRule {
    /// How many best configurations to track (paper: 10).
    pub n_best: usize,
    /// Std-dev threshold in seconds (paper: 1.0).
    pub threshold: f64,
    /// The N lowest delays seen, kept sorted ascending.
    best: Vec<f64>,
}

impl PauseRule {
    /// A rule over the `n_best` lowest delays with threshold `threshold`.
    pub fn new(n_best: usize, threshold: f64) -> Self {
        assert!(n_best >= 2, "need at least two configurations to compare");
        assert!(threshold >= 0.0, "threshold must be non-negative");
        PauseRule {
            n_best,
            threshold,
            best: Vec::with_capacity(n_best + 1),
        }
    }

    /// The paper's setting: N = 10, S = 1 s.
    pub fn paper_default() -> Self {
        PauseRule::new(N_BEST, THRESHOLD_S)
    }

    /// Record the delay a configuration achieved.
    pub fn record(&mut self, delay_s: f64) {
        if !delay_s.is_finite() {
            return;
        }
        let pos = self.best.partition_point(|&d| d <= delay_s);
        self.best.insert(pos, delay_s);
        if self.best.len() > self.n_best {
            self.best.pop();
        }
    }

    /// True when N configurations have been seen and their delay std-dev is
    /// below the threshold.
    pub fn should_pause(&self) -> bool {
        if self.best.len() < self.n_best {
            return false;
        }
        summarize(&self.best).std_dev < self.threshold
    }

    /// The best (lowest) delay recorded this episode.
    pub fn best_delay(&self) -> Option<f64> {
        self.best.first().copied()
    }

    /// Number of configurations currently tracked.
    pub fn tracked(&self) -> usize {
        self.best.len()
    }

    /// Forget the episode (called on reset).
    pub fn clear(&mut self) {
        self.best.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_pause_before_n_samples() {
        let mut r = PauseRule::new(5, 1.0);
        for _ in 0..4 {
            r.record(10.0);
        }
        assert!(!r.should_pause());
        r.record(10.0);
        assert!(r.should_pause());
    }

    #[test]
    fn pause_requires_tight_best_set() {
        let mut r = PauseRule::new(5, 1.0);
        // Scattered delays: std over best 5 is large.
        for d in [10.0, 14.0, 18.0, 22.0, 26.0] {
            r.record(d);
        }
        assert!(!r.should_pause());
        // Converging delays push the scattered ones out of the best set.
        for _ in 0..5 {
            r.record(10.1);
        }
        assert!(r.should_pause());
    }

    #[test]
    fn keeps_only_n_lowest() {
        let mut r = PauseRule::new(3, 0.5);
        for d in [5.0, 1.0, 9.0, 2.0, 3.0, 8.0] {
            r.record(d);
        }
        assert_eq!(r.tracked(), 3);
        assert_eq!(r.best_delay(), Some(1.0));
        // Best three are {1, 2, 3} with std ~0.816 > 0.5.
        assert!(!r.should_pause());
    }

    #[test]
    fn clear_restarts_episode() {
        let mut r = PauseRule::new(2, 10.0);
        r.record(1.0);
        r.record(1.0);
        assert!(r.should_pause());
        r.clear();
        assert!(!r.should_pause());
        assert_eq!(r.best_delay(), None);
    }

    #[test]
    fn non_finite_delays_ignored() {
        let mut r = PauseRule::new(2, 1.0);
        r.record(f64::NAN);
        r.record(f64::INFINITY);
        assert_eq!(r.tracked(), 0);
    }

    #[test]
    fn paper_default_parameters() {
        let r = PauseRule::paper_default();
        assert_eq!(r.n_best, 10);
        assert_eq!(r.threshold, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn degenerate_n_panics() {
        let _ = PauseRule::new(1, 1.0);
    }
}
