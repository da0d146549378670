//! The metric-collection window policy (§5.4).
//!
//! Two rules govern how batches become one measurement:
//!
//! 1. **Skip-first**: the first batch completed after a configuration
//!    change is discarded — Spark ships the application jar to newly added
//!    executors and runs other initialization, inflating that batch's
//!    processing time.
//! 2. **Additive increase, capped**: while the system sits at an optimum,
//!    each newly completed batch grows the averaging window by one, making
//!    the paused controller increasingly noise-immune; a cap keeps it from
//!    going blind to genuine regime changes. When active optimization
//!    resumes, the window snaps back to its minimum so rounds stay cheap.

/// §5.4 skip-first: batches discarded after each reconfiguration. The
/// first batch pays executor start-up and jar shipping.
const SKIP_AFTER_CHANGE: usize = 1;

/// §5.4 window lower bound: batches averaged per measurement during active
/// optimization, and the size the paused window grows from.
const MIN_BATCHES: usize = 3;

/// §5.4 window upper bound: the cap on the additively grown paused window,
/// so a parked controller still sees a regime change within a dozen batches.
const MAX_BATCHES: usize = 12;

/// Governs how many batches feed one performance measurement.
#[derive(Debug, Clone)]
pub struct WindowPolicy {
    /// Batches to skip after each reconfiguration (paper: the first one).
    pub skip_after_change: usize,
    /// Minimum (and initial) averaging window, in batches.
    pub min_batches: usize,
    /// Cap on the grown window, in batches.
    pub max_batches: usize,
    /// Current averaging window.
    current: usize,
}

impl WindowPolicy {
    /// A policy skipping `skip_after_change` batches and averaging over a
    /// window that grows from `min_batches` to `max_batches`.
    pub fn new(skip_after_change: usize, min_batches: usize, max_batches: usize) -> Self {
        assert!(min_batches >= 1, "need at least one batch per measurement");
        assert!(max_batches >= min_batches, "cap below minimum");
        WindowPolicy {
            skip_after_change,
            min_batches,
            max_batches,
            current: min_batches,
        }
    }

    /// The controller's policy: skip 1, average 3, grow to 12.
    pub fn paper_default() -> Self {
        WindowPolicy::new(SKIP_AFTER_CHANGE, MIN_BATCHES, MAX_BATCHES)
    }

    /// Batches to discard right after a configuration change.
    pub fn skip_count(&self) -> usize {
        self.skip_after_change
    }

    /// The current averaging window size.
    pub fn window(&self) -> usize {
        self.current
    }

    /// Additive increase: one more batch per completed batch while at the
    /// optimum, up to the cap (§5.4). Returns the new window.
    pub fn grow(&mut self) -> usize {
        self.current = (self.current + 1).min(self.max_batches);
        self.current
    }

    /// Snap back to the minimum window (a new optimization round started).
    pub fn shrink_to_min(&mut self) {
        self.current = self.min_batches;
    }

    /// True when the window has reached its cap.
    pub fn at_cap(&self) -> bool {
        self.current == self.max_batches
    }
}

impl Default for WindowPolicy {
    fn default() -> Self {
        WindowPolicy::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_additively_to_cap() {
        let mut w = WindowPolicy::new(1, 3, 6);
        assert_eq!(w.window(), 3);
        assert_eq!(w.grow(), 4);
        assert_eq!(w.grow(), 5);
        assert_eq!(w.grow(), 6);
        assert_eq!(w.grow(), 6, "capped");
        assert!(w.at_cap());
    }

    #[test]
    fn shrinks_back_for_active_rounds() {
        let mut w = WindowPolicy::new(1, 3, 10);
        for _ in 0..20 {
            w.grow();
        }
        w.shrink_to_min();
        assert_eq!(w.window(), 3);
        assert!(!w.at_cap());
    }

    #[test]
    fn paper_default_skips_one_batch() {
        let w = WindowPolicy::paper_default();
        assert_eq!(w.skip_count(), 1);
        assert!(w.window() >= 1);
    }

    #[test]
    #[should_panic(expected = "cap below minimum")]
    fn inverted_bounds_panic() {
        let _ = WindowPolicy::new(1, 5, 3);
    }
}
