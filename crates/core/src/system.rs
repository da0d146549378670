//! The black-box boundary between NoStop and the system it tunes.
//!
//! §4.2.1: "the Spark execution workflow could be treated as a black box,
//! where the input is the set of control parameters θ and the output is the
//! objective G(θ)." This module is that boundary. Anything that can apply a
//! configuration and report per-batch metrics can be tuned: the bundled
//! discrete-event simulator, or a thin REST client polling a real Spark
//! Streaming listener endpoint (the only integration possible without JVM
//! bindings — see DESIGN.md).

/// Metrics for one completed micro-batch, as a streaming listener reports
/// them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchObservation {
    /// Completion wall/virtual time, seconds since job start.
    pub completed_at_s: f64,
    /// The batch interval this batch was cut with, seconds.
    pub interval_s: f64,
    /// Batch processing time, seconds.
    pub processing_s: f64,
    /// Scheduling delay (queue wait before processing began), seconds.
    pub scheduling_delay_s: f64,
    /// Records in the batch.
    pub records: u64,
    /// Observed ingest rate for this batch, records/second.
    pub input_rate: f64,
    /// Executors live while the batch ran.
    pub num_executors: u32,
    /// Batches still waiting in the queue when this one completed — the
    /// controller's settling barrier watches this drain to zero.
    pub queued_batches: u32,
    /// Executors lost to failures since the previous batch completed
    /// (0 when the platform doesn't report failures). A non-zero value
    /// marks the measurement as fault-contaminated: the controller
    /// discards it from gradient windows and feeds the reset rule.
    pub executor_failures: u32,
}

impl BatchObservation {
    /// End-to-end delay for a worst-case record in this batch: it waits a
    /// full interval in the divider, then the scheduling delay, then the
    /// processing time.
    pub fn end_to_end_s(&self) -> f64 {
        self.interval_s + self.scheduling_delay_s + self.processing_s
    }

    /// True when this batch met the stability constraint (Eq. 2).
    pub fn is_stable(&self) -> bool {
        self.processing_s <= self.interval_s
    }
}

/// An averaged measurement over a window of batches — the `y(θ)` SPSA
/// consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// The interval in force, seconds (taken from the last batch).
    pub interval_s: f64,
    /// Mean processing time over the window, seconds.
    pub processing_s: f64,
    /// Mean scheduling delay over the window, seconds.
    pub scheduling_delay_s: f64,
    /// Mean end-to-end delay over the window, seconds.
    pub end_to_end_s: f64,
    /// Mean input rate over the window, records/second.
    pub input_rate: f64,
    /// Batches averaged.
    pub batches: usize,
}

impl Measurement {
    /// Average a window of observations. Panics on an empty window.
    pub fn from_window(window: &[BatchObservation]) -> Self {
        assert!(!window.is_empty(), "cannot measure an empty window");
        let n = window.len() as f64;
        Measurement {
            interval_s: window.last().unwrap().interval_s,
            processing_s: window.iter().map(|b| b.processing_s).sum::<f64>() / n,
            scheduling_delay_s: window.iter().map(|b| b.scheduling_delay_s).sum::<f64>() / n,
            end_to_end_s: window.iter().map(|b| b.end_to_end_s()).sum::<f64>() / n,
            input_rate: window.iter().map(|b| b.input_rate).sum::<f64>() / n,
            batches: window.len(),
        }
    }
}

/// A tunable streaming system, as NoStop sees it.
pub trait StreamingSystem {
    /// Apply a configuration in *physical* units, in the order declared by
    /// the [`crate::space::ConfigSpace`] — `[batch_interval_s,
    /// num_executors, …]` for the paper's space. Takes effect per the
    /// system's semantics (typically at the next batch boundary).
    fn apply_config(&mut self, physical: &[f64]);

    /// Run the system until the next batch completes and return its
    /// metrics. This is the blocking "getSystemStatus" of Algorithm 2.
    fn next_batch(&mut self) -> BatchObservation;

    /// Current system time in seconds (virtual or wall).
    fn now_s(&self) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(interval: f64, proc: f64, sched: f64) -> BatchObservation {
        BatchObservation {
            completed_at_s: 0.0,
            interval_s: interval,
            processing_s: proc,
            scheduling_delay_s: sched,
            records: 100,
            input_rate: 100.0 / interval,
            num_executors: 4,
            queued_batches: 0,
            executor_failures: 0,
        }
    }

    #[test]
    fn end_to_end_composes_three_terms() {
        let b = obs(10.0, 6.0, 2.0);
        assert_eq!(b.end_to_end_s(), 18.0);
    }

    #[test]
    fn stability_is_the_eq2_constraint() {
        assert!(obs(10.0, 9.9, 0.0).is_stable());
        assert!(obs(10.0, 10.0, 0.0).is_stable());
        assert!(!obs(10.0, 10.1, 0.0).is_stable());
    }

    #[test]
    fn measurement_averages_window() {
        let w = vec![obs(10.0, 4.0, 1.0), obs(10.0, 6.0, 3.0)];
        let m = Measurement::from_window(&w);
        assert_eq!(m.processing_s, 5.0);
        assert_eq!(m.scheduling_delay_s, 2.0);
        assert_eq!(m.end_to_end_s, 17.0);
        assert_eq!(m.batches, 2);
        assert_eq!(m.interval_s, 10.0);
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn empty_window_panics() {
        let _ = Measurement::from_window(&[]);
    }
}
