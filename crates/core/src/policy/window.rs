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
pub const MIN_BATCHES: usize = 3;

/// §5.4 window upper bound: the cap on the additively grown paused window,
/// so a parked controller still sees a regime change within a dozen batches.
const MAX_BATCHES: usize = 12;

/// Governs how many batches feed one performance measurement.
#[derive(Debug, Clone)]
pub struct WindowPolicy {
    /// Current averaging window, in `MIN_BATCHES..=MAX_BATCHES`.
    current: usize,
}

impl WindowPolicy {
    /// The controller's policy: average 3, grow to 12.
    pub fn paper_default() -> Self {
        WindowPolicy {
            current: MIN_BATCHES,
        }
    }

    /// The current averaging window size.
    pub fn window(&self) -> usize {
        self.current
    }

    /// Additive increase: one more batch per completed batch while at the
    /// optimum, up to the cap (§5.4). Returns the new window.
    pub fn grow(&mut self) -> usize {
        self.current = (self.current + 1).min(MAX_BATCHES);
        self.current
    }

    /// Snap back to the minimum window (a new optimization round started).
    pub fn shrink_to_min(&mut self) {
        self.current = MIN_BATCHES;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_additively_to_cap() {
        let mut w = WindowPolicy::paper_default();
        assert_eq!(w.window(), 3);
        for expected in 4..=12 {
            assert_eq!(w.grow(), expected);
        }
        assert_eq!(w.grow(), 12, "capped");
    }

    #[test]
    fn shrinks_back_for_active_rounds() {
        let mut w = WindowPolicy::paper_default();
        for _ in 0..20 {
            w.grow();
        }
        w.shrink_to_min();
        assert_eq!(w.window(), 3);
    }
}
