//! The metric-collection window policy (§5.4).
//!
//! **Additive increase, capped**: while the system sits at an optimum,
//! each newly completed batch grows the averaging window by one, making
//! the paused controller increasingly noise-immune; a cap keeps it from
//! going blind to genuine regime changes. When active optimization
//! resumes, the window snaps back to its minimum so rounds stay cheap.
//!
//! §5.4's other rule, skip-first, lives in [`crate::measure`]: the batch
//! that settles a reconfiguration is the discarded first batch.

/// §5.4 window lower bound: batches averaged per measurement during active
/// optimization, and the size the paused window grows from.
const MIN_BATCHES: usize = 3;

/// §5.4 window upper bound: the cap on the additively grown paused window,
/// so a parked controller still sees a regime change within a dozen batches.
const MAX_BATCHES: usize = 12;

/// Governs how many batches feed one performance measurement.
#[derive(Debug, Clone)]
pub struct WindowPolicy {
    /// Minimum (and initial) averaging window, in batches.
    pub min_batches: usize,
    /// Cap on the grown window, in batches.
    pub max_batches: usize,
    /// Current averaging window.
    current: usize,
}

impl WindowPolicy {
    /// A policy averaging over a window that grows from `min_batches` to
    /// `max_batches`.
    pub fn new(min_batches: usize, max_batches: usize) -> Self {
        assert!(min_batches >= 1, "need at least one batch per measurement");
        assert!(max_batches >= min_batches, "cap below minimum");
        WindowPolicy {
            min_batches,
            max_batches,
            current: min_batches,
        }
    }

    /// The controller's policy: average 3, grow to 12.
    pub fn paper_default() -> Self {
        WindowPolicy::new(MIN_BATCHES, MAX_BATCHES)
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_additively_to_cap() {
        let mut w = WindowPolicy::new(3, 6);
        assert_eq!(w.window(), 3);
        assert_eq!(w.grow(), 4);
        assert_eq!(w.grow(), 5);
        assert_eq!(w.grow(), 6);
        assert_eq!(w.grow(), 6, "capped");
    }

    #[test]
    fn shrinks_back_for_active_rounds() {
        let mut w = WindowPolicy::new(3, 10);
        for _ in 0..20 {
            w.grow();
        }
        w.shrink_to_min();
        assert_eq!(w.window(), 3);
    }

    #[test]
    #[should_panic(expected = "cap below minimum")]
    fn inverted_bounds_panic() {
        let _ = WindowPolicy::new(5, 3);
    }
}
