//! Algorithm 2's measurement protocol, written once.
//!
//! *Adjust* applies a configuration, sleeps until the system has settled,
//! skips the first batch (§5.4: it pays executor start-up and jar
//! shipping) and averages a window. Settling consumes batches until one
//! cut under the applied interval completes with an empty queue; that
//! batch is also the skipped one. A configuration that does not settle
//! within [`SETTLE_CAP`] batches is measured dirty, and its own growing
//! queue makes its objective appropriately ugly.

use crate::system::{BatchObservation, StreamingSystem};

/// Batches consumed at most while settling; under [`Protocol::Adjust`]
/// also the spare budget for discarding failure-hit window batches.
pub const SETTLE_CAP: usize = 15;

/// Which variant of the protocol a caller runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// NoStop's: settling also gives up after `max(20 × interval, 120 s)`
    /// of system time, as a controller polling a live cluster would. A
    /// window batch that absorbed an executor failure measures the crash,
    /// not the configuration, so it is discarded and replaced, up to
    /// [`SETTLE_CAP`] spares; a fault storm beyond that is measured dirty.
    Adjust,
    /// The tuners': settle by batch count alone, keep every window batch.
    Tuner,
}

/// True when `b` was cut under the batch interval `interval_s`. Intervals
/// sit on a 100 ms grid; half a step of tolerance absorbs the wire's
/// millisecond rounding and matches no neighbouring grid point.
pub(crate) fn cut_under(b: &BatchObservation, interval_s: f64) -> bool {
    (b.interval_s - interval_s).abs() < 0.051
}

/// Apply `physical` (`physical[0]` is the batch interval), settle, and
/// return the `window` batches that follow. `feed` sees every batch
/// pulled, settling and discarded ones included, in order.
pub fn measure<S: StreamingSystem + ?Sized>(
    sys: &mut S,
    physical: &[f64],
    window: usize,
    protocol: Protocol,
    feed: impl FnMut(&BatchObservation),
) -> Vec<BatchObservation> {
    sys.apply_config(physical);
    settle_and_pull(sys, physical[0], window, protocol, feed)
}

/// [`measure`] after the caller applied a configuration with batch
/// interval `interval_s` itself (NoStop traces the change in between).
pub(crate) fn settle_and_pull<S: StreamingSystem + ?Sized>(
    sys: &mut S,
    interval_s: f64,
    window: usize,
    protocol: Protocol,
    mut feed: impl FnMut(&BatchObservation),
) -> Vec<BatchObservation> {
    let adjust = protocol == Protocol::Adjust;
    let deadline = adjust.then(|| sys.now_s() + (20.0 * interval_s).max(120.0));
    for _ in 0..SETTLE_CAP {
        let b = sys.next_batch();
        feed(&b);
        let settled = cut_under(&b, interval_s) && b.queued_batches == 0;
        if settled || deadline.is_some_and(|d| sys.now_s() > d) {
            break;
        }
    }
    let mut spares = if adjust { SETTLE_CAP } else { 0 };
    let mut pulled = Vec::with_capacity(window);
    while pulled.len() < window {
        let b = sys.next_batch();
        feed(&b);
        if b.executor_failures > 0 && spares > 0 {
            spares -= 1;
            continue;
        }
        pulled.push(b);
    }
    pulled
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays `(interval_s, queued_batches, executor_failures)` batches in
    /// order; each batch's `processing_s` is its 1-based position, so a
    /// window names the batches it holds.
    struct Script {
        batches: Vec<(f64, u32, u32)>,
        pulled: usize,
        t: f64,
        applied: Vec<Vec<f64>>,
    }

    impl StreamingSystem for Script {
        fn apply_config(&mut self, physical: &[f64]) {
            self.applied.push(physical.to_vec());
        }
        fn next_batch(&mut self) -> BatchObservation {
            let (interval_s, queued_batches, executor_failures) = self.batches[self.pulled];
            self.pulled += 1;
            self.t += interval_s;
            BatchObservation {
                completed_at_s: self.t,
                interval_s,
                processing_s: self.pulled as f64,
                scheduling_delay_s: 0.0,
                records: 0,
                input_rate: 0.0,
                num_executors: 4,
                queued_batches,
                executor_failures,
            }
        }
        fn now_s(&self) -> f64 {
            self.t
        }
    }

    /// Measure `[10 s, 4 executors]` on `script`: the positions of the
    /// window's batches, and of every batch `feed` saw.
    fn run(script: &[(f64, u32, u32)], protocol: Protocol, window: usize) -> (Vec<f64>, Vec<f64>) {
        let mut sys = Script {
            batches: script.to_vec(),
            pulled: 0,
            t: 0.0,
            applied: Vec::new(),
        };
        let mut fed = Vec::new();
        let measured = measure(&mut sys, &[10.0, 4.0], window, protocol, |b| {
            fed.push(b.processing_s)
        });
        assert_eq!(
            sys.applied,
            vec![vec![10.0, 4.0]],
            "one apply per measurement"
        );
        (measured.iter().map(|b| b.processing_s).collect(), fed)
    }

    #[test]
    fn settling_stops_at_the_first_settled_batch_which_is_also_skipped() {
        // Cut under the old interval; cut under the new one with a queue
        // behind it; settled. The window starts after the settled batch.
        let script = [
            (20.0, 0, 0),
            (10.0, 2, 0),
            (10.0, 0, 0),
            (10.0, 0, 0),
            (10.0, 0, 0),
        ];
        for protocol in [Protocol::Adjust, Protocol::Tuner] {
            assert_eq!(run(&script, protocol, 2).0, vec![4.0, 5.0]);
        }
    }

    #[test]
    fn settling_gives_up_at_the_cap_and_measures_dirty() {
        // 1 s batches never match the 10 s target, and 15 of them stay
        // well inside Adjust's 200 s deadline.
        let script = [(1.0, 0, 0); SETTLE_CAP + 2];
        for protocol in [Protocol::Adjust, Protocol::Tuner] {
            assert_eq!(run(&script, protocol, 2).0, vec![16.0, 17.0]);
        }
    }

    #[test]
    fn adjust_stops_settling_at_the_deadline_and_tuner_does_not() {
        // max(20 × 10 s, 120 s) = 200 s: the fifth 50 s batch passes it.
        let script = [(50.0, 0, 0); SETTLE_CAP + 2];
        assert_eq!(run(&script, Protocol::Adjust, 2).0, vec![6.0, 7.0]);
        assert_eq!(run(&script, Protocol::Tuner, 2).0, vec![16.0, 17.0]);
    }

    #[test]
    fn adjust_discards_failure_hit_batches_and_tuner_keeps_them() {
        let script = [
            (10.0, 0, 0),
            (10.0, 0, 1),
            (10.0, 0, 0),
            (10.0, 0, 1),
            (10.0, 0, 0),
        ];
        let (adjust, fed) = run(&script, Protocol::Adjust, 2);
        assert_eq!(adjust, vec![3.0, 5.0]);
        assert_eq!(fed, vec![1.0, 2.0, 3.0, 4.0, 5.0], "feed sees discards too");
        let (tuner, fed) = run(&script, Protocol::Tuner, 2);
        assert_eq!(tuner, vec![2.0, 3.0]);
        assert_eq!(fed, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn adjust_measures_failures_dirty_once_the_spares_run_out() {
        let mut script = vec![(10.0, 0, 1); SETTLE_CAP + 3];
        script[0] = (10.0, 0, 0);
        let (measured, fed) = run(&script, Protocol::Adjust, 2);
        assert_eq!(measured, vec![17.0, 18.0]);
        assert_eq!(fed, (1..=18).map(f64::from).collect::<Vec<_>>());
    }
}
