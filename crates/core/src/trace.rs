//! Structured optimization traces.
//!
//! Every controller round appends one [`RoundRecord`]; the Fig-6 style
//! "optimization evolution" plots (end-to-end delay and batch interval vs.
//! round) come straight out of these, and the experiment harness uses them
//! to count configuration steps for the Fig-8 comparison. A trace lives
//! in memory only: its readers take the series and counts directly, and
//! it has no serialized form.

use crate::system::Measurement;

/// What a controller round did.
#[derive(Debug, Clone, PartialEq)]
pub enum RoundKind {
    /// A full SPSA iteration: two perturbed measurements and a step.
    Optimized {
        /// Measurement at `θ⁺`.
        plus: Measurement,
        /// Measurement at `θ⁻`.
        minus: Measurement,
        /// Objective value `y(θ⁺)`.
        y_plus: f64,
        /// Objective value `y(θ⁻)`.
        y_minus: f64,
        /// Gradient-estimate L2 norm.
        grad_norm: f64,
    },
    /// The controller was paused and merely observed the system.
    Paused {
        /// The observation window's averages.
        observed: Measurement,
    },
    /// The reset rule fired; coefficients and iterate were restarted.
    Reset,
    /// The parked configuration went unstable; optimization resumed
    /// without a reset.
    Woke,
}

/// One controller round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Round index (monotonically increasing across resets).
    pub round: u64,
    /// SPSA iteration index at the *start* of the round.
    pub k: u64,
    /// System time when the round finished, seconds.
    pub t_s: f64,
    /// The iterate `θ` (scaled space) after the round.
    pub theta_scaled: Vec<f64>,
    /// The iterate in physical units after the round.
    pub theta_physical: Vec<f64>,
    /// Penalty coefficient ρ in force during the round.
    pub rho: f64,
    /// Gain `a_k` (0 for paused/reset rounds).
    pub a_k: f64,
    /// Perturbation size `c_k` (0 for paused/reset rounds).
    pub c_k: f64,
    /// Whether the controller is paused after this round.
    pub paused_after: bool,
    /// What happened.
    pub kind: RoundKind,
}

/// The full trace of a controller run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Rounds, in order.
    pub rounds: Vec<RoundRecord>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Append a round.
    pub fn push(&mut self, r: RoundRecord) {
        self.rounds.push(r);
    }

    /// Number of rounds recorded.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// True when no rounds have been recorded.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Rounds that performed an SPSA step (configuration changes = 2 ×
    /// this count — the Fig-8 "configure steps" metric).
    pub fn optimization_rounds(&self) -> usize {
        self.rounds
            .iter()
            .filter(|r| matches!(r.kind, RoundKind::Optimized { .. }))
            .count()
    }

    /// Number of resets that fired.
    pub fn resets(&self) -> usize {
        self.rounds
            .iter()
            .filter(|r| matches!(r.kind, RoundKind::Reset))
            .count()
    }

    /// `(round index, end-to-end delay)` series for Fig-6-style plots,
    /// using the mean of the two perturbed measurements for optimization
    /// rounds and the observed mean for paused rounds.
    pub fn delay_series(&self) -> Vec<(f64, f64)> {
        self.rounds
            .iter()
            .filter_map(|r| match &r.kind {
                RoundKind::Optimized { plus, minus, .. } => Some((
                    r.round as f64,
                    (plus.end_to_end_s + minus.end_to_end_s) / 2.0,
                )),
                RoundKind::Paused { observed } => Some((r.round as f64, observed.end_to_end_s)),
                RoundKind::Reset | RoundKind::Woke => None,
            })
            .collect()
    }

    /// `(round index, batch interval)` series for Fig-6-style plots.
    pub fn interval_series(&self) -> Vec<(f64, f64)> {
        self.rounds
            .iter()
            .map(|r| (r.round as f64, r.theta_physical[0]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meas() -> Measurement {
        Measurement {
            interval_s: 10.0,
            processing_s: 5.0,
            scheduling_delay_s: 0.0,
            end_to_end_s: 15.0,
            input_rate: 1_000.0,
            batches: 3,
        }
    }

    fn record(round: u64, kind: RoundKind, paused: bool) -> RoundRecord {
        RoundRecord {
            round,
            k: round,
            t_s: round as f64 * 60.0,
            theta_scaled: vec![10.0, 10.0],
            theta_physical: vec![20.0, 10.0],
            rho: 1.0,
            a_k: 1.0,
            c_k: 2.0,
            paused_after: paused,
            kind,
        }
    }

    fn optimized() -> RoundKind {
        RoundKind::Optimized {
            plus: meas(),
            minus: meas(),
            y_plus: 10.0,
            y_minus: 11.0,
            grad_norm: 0.5,
        }
    }

    #[test]
    fn counts_round_kinds() {
        let mut t = Trace::new();
        t.push(record(0, optimized(), false));
        t.push(record(1, RoundKind::Reset, false));
        t.push(record(2, optimized(), true));
        t.push(record(3, RoundKind::Paused { observed: meas() }, true));
        assert_eq!(t.len(), 4);
        assert_eq!(t.optimization_rounds(), 2);
        assert_eq!(t.resets(), 1);
    }

    #[test]
    fn series_extract_expected_columns() {
        let mut t = Trace::new();
        t.push(record(0, optimized(), false));
        t.push(record(1, RoundKind::Reset, false));
        t.push(record(2, RoundKind::Paused { observed: meas() }, true));
        let delays = t.delay_series();
        assert_eq!(delays.len(), 2); // reset rounds contribute no delay
        assert_eq!(delays[0], (0.0, 15.0));
        let intervals = t.interval_series();
        assert_eq!(intervals.len(), 3);
        assert_eq!(intervals[0], (0.0, 20.0));
    }
}
