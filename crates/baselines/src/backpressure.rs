//! Spark Streaming's back-pressure rate controller.
//!
//! The comparator named in the paper's abstract. Spark's
//! `PIDRateEstimator` does not touch batch interval or executors — it
//! *throttles ingestion* so that processing keeps up, trading data
//! freshness (records queue in Kafka) for stability. The implementation
//! mirrors `org.apache.spark.streaming.scheduler.rate.PIDRateEstimator`,
//! including its default gains (proportional 1.0, integral 0.2,
//! derivative 0.0) and minimum rate (100 records/s).

/// A PID estimator for the per-batch ingestion rate limit.
#[derive(Debug, Clone)]
pub struct PidRateEstimator {
    /// Batch interval in seconds (Spark passes it in milliseconds).
    batch_interval_s: f64,
    proportional: f64,
    integral: f64,
    derivative: f64,
    min_rate: f64,
    /// Time of the latest update, seconds.
    latest_time_s: f64,
    /// The latest computed rate (records/s); `None` until the first update.
    latest_rate: Option<f64>,
    latest_error: f64,
}

impl PidRateEstimator {
    /// Spark's defaults for a given batch interval.
    pub fn spark_default(batch_interval_s: f64) -> Self {
        PidRateEstimator::new(batch_interval_s, 1.0, 0.2, 0.0, 100.0)
    }

    /// Full constructor; panics on non-positive interval or negative gains.
    pub fn new(
        batch_interval_s: f64,
        proportional: f64,
        integral: f64,
        derivative: f64,
        min_rate: f64,
    ) -> Self {
        assert!(batch_interval_s > 0.0, "batch interval must be positive");
        assert!(
            proportional >= 0.0 && integral >= 0.0 && derivative >= 0.0,
            "PID gains must be non-negative"
        );
        assert!(min_rate > 0.0, "minimum rate must be positive");
        PidRateEstimator {
            batch_interval_s,
            proportional,
            integral,
            derivative,
            min_rate,
            latest_time_s: -1.0,
            latest_rate: None,
            latest_error: 0.0,
        }
    }

    /// The current rate estimate, if one has been computed.
    pub fn latest_rate(&self) -> Option<f64> {
        self.latest_rate
    }

    /// Compute the new rate limit from one completed batch — the port of
    /// `PIDRateEstimator.compute`.
    ///
    /// * `time_s` — batch completion time (must increase across calls);
    /// * `elements` — records processed in the batch;
    /// * `processing_delay_s` — the batch's processing time;
    /// * `scheduling_delay_s` — the batch's queue wait.
    ///
    /// Returns `Some(new_rate)` when an update is produced (valid inputs,
    /// monotonic time), like Spark's `Option[Double]`.
    pub fn compute(
        &mut self,
        time_s: f64,
        elements: u64,
        processing_delay_s: f64,
        scheduling_delay_s: f64,
    ) -> Option<f64> {
        if time_s <= self.latest_time_s || elements == 0 || processing_delay_s <= 0.0 {
            return None;
        }
        let delay_since_update = time_s - self.latest_time_s;
        // Per-second processing speed of this batch.
        let processing_rate = elements as f64 / processing_delay_s;
        let latest_rate = match self.latest_rate {
            Some(r) => r,
            None => {
                // First valid batch seeds the estimator without an update,
                // exactly like Spark's `firstRun` handling.
                self.latest_time_s = time_s;
                self.latest_rate = Some(processing_rate);
                self.latest_error = 0.0;
                return Some(processing_rate.max(self.min_rate));
            }
        };
        let error = latest_rate - processing_rate;
        // The integral term: how many elements the queue holds, expressed
        // as a rate over the batch interval.
        let historical_error = scheduling_delay_s * processing_rate / self.batch_interval_s;
        let d_error = (error - self.latest_error) / delay_since_update;
        let new_rate = (latest_rate
            - self.proportional * error
            - self.integral * historical_error
            - self.derivative * d_error)
            .max(self.min_rate);
        self.latest_time_s = time_s;
        self.latest_rate = Some(new_rate);
        self.latest_error = error;
        Some(new_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimator() -> PidRateEstimator {
        PidRateEstimator::spark_default(10.0)
    }

    #[test]
    fn first_batch_seeds_the_rate() {
        let mut e = estimator();
        assert_eq!(e.latest_rate(), None);
        let r = e.compute(10.0, 50_000, 5.0, 0.0).unwrap();
        assert_eq!(r, 10_000.0); // 50k records / 5s
        assert_eq!(e.latest_rate(), Some(10_000.0));
    }

    #[test]
    fn overload_reduces_the_rate() {
        let mut e = estimator();
        e.compute(10.0, 100_000, 10.0, 0.0); // seeds at 10k/s
                                             // Next batch: processing slowed to 5k/s with queueing.
        let r = e.compute(25.0, 75_000, 15.0, 5.0).unwrap();
        assert!(r < 10_000.0, "rate must drop under overload: {r}");
    }

    #[test]
    fn scheduling_delay_drives_the_integral_term() {
        let mut quiet = estimator();
        quiet.compute(10.0, 100_000, 10.0, 0.0);
        let r_no_queue = quiet.compute(20.0, 100_000, 10.0, 0.0).unwrap();

        let mut queued = estimator();
        queued.compute(10.0, 100_000, 10.0, 0.0);
        let r_queue = queued.compute(20.0, 100_000, 10.0, 8.0).unwrap();
        assert!(
            r_queue < r_no_queue,
            "queued system must throttle harder: {r_queue} vs {r_no_queue}"
        );
    }

    #[test]
    fn rate_never_falls_below_minimum() {
        let mut e = estimator();
        e.compute(10.0, 1_000, 10.0, 0.0);
        // Catastrophic overload for many batches.
        let mut r = f64::MAX;
        for i in 1..50 {
            if let Some(new) = e.compute(10.0 + i as f64 * 10.0, 1_000, 100.0, 500.0) {
                r = new;
            }
        }
        assert_eq!(r, 100.0, "clamped at Spark's minRate");
    }

    #[test]
    fn invalid_inputs_produce_no_update() {
        let mut e = estimator();
        e.compute(10.0, 1_000, 1.0, 0.0);
        assert!(e.compute(5.0, 1_000, 1.0, 0.0).is_none(), "time went back");
        assert!(e.compute(20.0, 0, 1.0, 0.0).is_none(), "empty batch");
        assert!(e.compute(30.0, 1_000, 0.0, 0.0).is_none(), "zero delay");
    }

    #[test]
    fn steady_state_converges_to_processing_rate() {
        let mut e = estimator();
        // System processes exactly 8k/s, no queueing.
        let mut t = 10.0;
        e.compute(t, 80_000, 10.0, 0.0);
        let mut r = 0.0;
        for _ in 0..20 {
            t += 10.0;
            r = e.compute(t, 80_000, 10.0, 0.0).unwrap();
        }
        assert!((r - 8_000.0).abs() < 50.0, "steady rate {r}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = PidRateEstimator::spark_default(0.0);
    }
}
