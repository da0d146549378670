//! The streaming listener: per-batch metrics and status reporting.
//!
//! Mirrors Spark's `StreamingListener.onBatchCompleted`: every completed
//! batch yields a [`BatchMetrics`] with submission/start/completion times,
//! from which scheduling delay, processing time, and total delay derive the
//! same way Spark's UI computes them. [`Listener`] retains the history, and
//! converts to the JSON [`StatusReport`] wire format of Fig. 4 and to the
//! controller's [`BatchObservation`].

use nostop_core::listener::StatusReport;
use nostop_core::system::BatchObservation;
use nostop_simcore::{SimDuration, SimTime};

/// Metrics for one completed batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchMetrics {
    /// Batch sequence number.
    pub batch_id: u64,
    /// Records processed.
    pub records: u64,
    /// When the divider cut the batch (submission).
    pub submitted_at: SimTime,
    /// When its job started processing.
    pub started_at: SimTime,
    /// When its job finished.
    pub completed_at: SimTime,
    /// The batch interval this batch was cut with.
    pub interval: SimDuration,
    /// Actual receiver ingest window for this batch.
    pub ingest_window: SimDuration,
    /// Records that arrived at the broker during the ingest window.
    pub arrived: u64,
    /// Executors live when the job started.
    pub num_executors: u32,
    /// Stages the job ran.
    pub stages: u32,
    /// Total executor-busy time across the job's tasks.
    pub busy_cores: SimDuration,
    /// Batches left waiting in the queue when this one completed.
    pub queue_len: u32,
    /// Executors lost to injected faults since the previous completed
    /// batch (the first batch to complete after a crash carries it,
    /// whether or not its own job was hit).
    pub executor_failures: u32,
    /// Task attempts re-run due to injected transient failures during
    /// this batch's job.
    pub task_retries: u32,
}

impl BatchMetrics {
    /// Queue wait before processing began.
    pub fn scheduling_delay(&self) -> SimDuration {
        self.started_at.saturating_since(self.submitted_at)
    }

    /// Processing time (Spark UI's "Processing Time").
    pub fn processing_time(&self) -> SimDuration {
        self.completed_at.saturating_since(self.started_at)
    }

    /// Stability per Eq. 2: processing time within the batch interval.
    pub fn is_stable(&self) -> bool {
        self.processing_time() <= self.interval
    }

    /// Executor utilization over the batch interval: busy core-time
    /// divided by `executors × interval`. Near-constant for a fixed rate
    /// (longer intervals carry proportionally more data); dips when fixed
    /// overheads dominate tiny batches.
    pub fn utilization(&self) -> f64 {
        let capacity = self.num_executors as f64 * self.interval.as_secs_f64();
        if capacity <= 0.0 {
            return 0.0;
        }
        (self.busy_cores.as_secs_f64() / capacity).min(1.0)
    }

    /// Fraction of each interval the engine spends idle, waiting for the
    /// next batch: `1 − processing/interval` (0 when congested). §3.1's
    /// over-provisioned regime — "Spark engine would sit idle waiting for
    /// batches to arrive" — is exactly a large value here.
    pub fn engine_idle_fraction(&self) -> f64 {
        let i = self.interval.as_secs_f64();
        if i <= 0.0 {
            return 0.0;
        }
        (1.0 - self.processing_time().as_secs_f64() / i).max(0.0)
    }

    /// Observed ingest rate, records/second, over the actual ingest window.
    pub fn input_rate(&self) -> f64 {
        let secs = self.ingest_window.as_secs_f64();
        let secs = if secs > 0.0 {
            secs
        } else {
            self.interval.as_secs_f64()
        };
        if secs > 0.0 {
            self.arrived as f64 / secs
        } else {
            0.0
        }
    }

    /// Convert to the controller's observation type.
    pub fn to_observation(&self) -> BatchObservation {
        BatchObservation {
            completed_at_s: self.completed_at.as_secs_f64(),
            interval_s: self.interval.as_secs_f64(),
            processing_s: self.processing_time().as_secs_f64(),
            scheduling_delay_s: self.scheduling_delay().as_secs_f64(),
            records: self.records,
            input_rate: self.input_rate(),
            num_executors: self.num_executors,
            queued_batches: self.queue_len,
            executor_failures: self.executor_failures,
        }
    }

    /// Convert to the JSON wire format of Fig. 4.
    pub fn to_status_report(&self) -> StatusReport {
        StatusReport {
            batch_id: self.batch_id,
            submission_time_ms: self.submitted_at.as_micros() / 1_000,
            processing_start_time_ms: self.started_at.as_micros() / 1_000,
            processing_end_time_ms: self.completed_at.as_micros() / 1_000,
            num_records: self.records,
            arrived_records: self.arrived,
            batch_interval_ms: self.interval.as_millis(),
            ingest_window_ms: self.ingest_window.as_millis(),
            num_executors: self.num_executors,
            queued_batches: self.queue_len,
            executor_failures: self.executor_failures,
        }
    }
}

/// Retains a bounded window of completed-batch history plus whole-run
/// aggregates.
///
/// The per-batch history is the only per-batch state in the engine; left
/// unbounded it grows without limit on long runs (a 12-hour fig-7 sweep
/// completes hundreds of thousands of batches). The listener therefore
/// keeps a sliding window of the most recent `window` batches, compacting
/// amortized-O(1): the backing `Vec` holds at most `2 × window` entries
/// and drops the oldest `window` in one `memmove` when it fills. Whole-run
/// aggregates — `completed()`, `stable_fraction()` and the fault counters
/// — count every batch ever completed and are unaffected by eviction.
#[derive(Debug, Clone)]
pub struct Listener {
    /// Retained batches, oldest first (the most recent `≤ 2 × window`).
    history: Vec<BatchMetrics>,
    /// Retention target; memory is bounded by `2 × window` entries.
    window: usize,
    /// Batches dropped off the front of `history` so far.
    evicted: u64,
    /// Batches (ever) that met the stability constraint.
    stable: u64,
    /// Executor losses over the whole run (fault counters survive
    /// eviction like the other aggregates).
    executor_failures: u64,
    /// Task re-runs over the whole run.
    task_retries: u64,
}

impl Default for Listener {
    fn default() -> Self {
        Listener::with_window(Listener::DEFAULT_WINDOW)
    }
}

impl Listener {
    /// Default retention window, in batches. Sized so every experiment in
    /// the paper (hours of virtual time at multi-second intervals) retains
    /// its full history, while unbounded runs stay bounded.
    pub const DEFAULT_WINDOW: usize = 16_384;

    /// An empty listener with the default retention window.
    pub fn new() -> Self {
        Listener::default()
    }

    /// An empty listener retaining at least the `window` most recent
    /// batches (`window` is clamped to ≥ 1).
    pub fn with_window(window: usize) -> Self {
        Listener {
            history: Vec::new(),
            window: window.max(1),
            evicted: 0,
            stable: 0,
            executor_failures: 0,
            task_retries: 0,
        }
    }

    /// Record a completed batch, evicting the oldest window when full.
    pub fn on_batch_completed(&mut self, m: BatchMetrics) {
        if m.is_stable() {
            self.stable += 1;
        }
        self.executor_failures += m.executor_failures as u64;
        self.task_retries += m.task_retries as u64;
        if self.history.len() >= self.window * 2 {
            self.history.drain(..self.window);
            self.evicted += self.window as u64;
        }
        self.history.push(m);
    }

    /// The retained batches, in completion order — the full history until
    /// `completed()` exceeds the window, the most recent slice after.
    pub fn history(&self) -> &[BatchMetrics] {
        &self.history
    }

    /// Batches completed over the whole run (including evicted ones).
    pub fn completed(&self) -> u64 {
        self.evicted + self.history.len() as u64
    }

    /// Retained batches from absolute batch index `from` (0 = the first
    /// batch ever) onward. Batches evicted before `from` was reached are
    /// gone; the slice starts at the oldest retained batch in that case.
    pub fn since(&self, from: u64) -> &[BatchMetrics] {
        let idx = from
            .saturating_sub(self.evicted)
            .min(self.history.len() as u64) as usize;
        &self.history[idx..]
    }

    /// The `n` most recent batches.
    pub fn recent(&self, n: usize) -> &[BatchMetrics] {
        let start = self.history.len().saturating_sub(n);
        &self.history[start..]
    }

    /// The most recent batch, if any.
    pub fn last(&self) -> Option<&BatchMetrics> {
        self.history.last()
    }

    /// Executor losses recorded over the whole run (eviction-proof).
    pub fn executor_failures(&self) -> u64 {
        self.executor_failures
    }

    /// Task re-runs recorded over the whole run (eviction-proof).
    pub fn task_retries(&self) -> u64 {
        self.task_retries
    }

    /// Fraction of all completed batches (whole run, including evicted
    /// ones) that met the stability constraint.
    pub fn stable_fraction(&self) -> f64 {
        let total = self.completed();
        if total == 0 {
            return 1.0;
        }
        self.stable as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(sub: f64, start: f64, end: f64, interval: f64) -> BatchMetrics {
        BatchMetrics {
            batch_id: 1,
            records: 10_000,
            submitted_at: SimTime::from_secs_f64(sub),
            started_at: SimTime::from_secs_f64(start),
            completed_at: SimTime::from_secs_f64(end),
            interval: SimDuration::from_secs_f64(interval),
            ingest_window: SimDuration::from_secs_f64(interval),
            arrived: 10_000,
            busy_cores: SimDuration::from_secs_f64(4.0 * (end - start)),
            num_executors: 8,
            stages: 2,
            queue_len: 0,
            executor_failures: 0,
            task_retries: 0,
        }
    }

    #[test]
    fn delay_decomposition_matches_spark_ui() {
        let m = metrics(100.0, 103.0, 111.0, 10.0);
        assert_eq!(m.scheduling_delay().as_secs_f64(), 3.0);
        assert_eq!(m.processing_time().as_secs_f64(), 8.0);
        assert!(m.is_stable());
        assert_eq!(m.input_rate(), 1_000.0);
    }

    #[test]
    fn instability_detected() {
        let m = metrics(100.0, 100.0, 112.0, 10.0);
        assert!(!m.is_stable());
    }

    #[test]
    fn observation_conversion() {
        let o = metrics(100.0, 103.0, 111.0, 10.0).to_observation();
        assert_eq!(o.processing_s, 8.0);
        assert_eq!(o.scheduling_delay_s, 3.0);
        assert_eq!(o.end_to_end_s(), 10.0 + 3.0 + 8.0);
    }

    #[test]
    fn status_report_round_trips_through_json() {
        let r = metrics(100.0, 103.0, 111.0, 10.0).to_status_report();
        let json = r.to_json();
        let back = StatusReport::from_json(&json).unwrap();
        assert_eq!(back, r);
        let o = back.to_observation();
        assert!((o.processing_s - 8.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_reflects_idle_capacity() {
        // 8 executors, 10 s interval: capacity 80 core-seconds. A job
        // keeping cores busy for 32 core-seconds utilizes 40%.
        let m = metrics(100.0, 100.0, 108.0, 10.0);
        assert!((m.utilization() - 32.0 / 80.0).abs() < 1e-9);
        // Utilization is capped at 1 even for congested accounting.
        let mut over = metrics(0.0, 0.0, 100.0, 1.0);
        over.busy_cores = SimDuration::from_secs(1_000);
        assert_eq!(over.utilization(), 1.0);
        // Idle fraction: 8 s of processing inside a 10 s interval.
        let m = metrics(100.0, 100.0, 108.0, 10.0);
        assert!((m.engine_idle_fraction() - 0.2).abs() < 1e-9);
        // Congested batches are never "idle".
        assert_eq!(metrics(0.0, 0.0, 100.0, 1.0).engine_idle_fraction(), 0.0);
    }

    #[test]
    fn listener_aggregates() {
        let mut l = Listener::new();
        l.on_batch_completed(metrics(0.0, 0.0, 8.0, 10.0));
        l.on_batch_completed(metrics(10.0, 10.0, 16.0, 10.0));
        l.on_batch_completed(metrics(20.0, 20.0, 32.0, 10.0)); // unstable
        assert_eq!(l.completed(), 3);
        assert_eq!(l.recent(2).len(), 2);
        assert_eq!(l.last().unwrap().batch_id, 1);
        assert!((l.stable_fraction() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_listener_is_safe() {
        let l = Listener::new();
        assert_eq!(l.completed(), 0);
        assert!(l.last().is_none());
        assert_eq!(l.stable_fraction(), 1.0);
        assert_eq!(l.recent(5).len(), 0);
    }

    /// A stable batch with a distinguishing id.
    fn batch(id: u64) -> BatchMetrics {
        let t = id as f64 * 10.0;
        let mut m = metrics(t, t, t + 8.0, 10.0);
        m.batch_id = id;
        m
    }

    #[test]
    fn window_cap_evicts_oldest_batches() {
        let mut l = Listener::with_window(4);
        for id in 0..20 {
            l.on_batch_completed(batch(id));
            assert!(l.history().len() <= 8, "backing store exceeded 2x window");
        }
        assert_eq!(l.completed(), 20);
        // The retained slice is a contiguous suffix ending at the newest.
        let ids: Vec<u64> = l.history().iter().map(|m| m.batch_id).collect();
        assert_eq!(l.last().unwrap().batch_id, 19);
        let oldest = 20 - ids.len() as u64;
        assert_eq!(ids, (oldest..20).collect::<Vec<_>>());
    }

    #[test]
    fn aggregates_count_evicted_batches() {
        let mut small = Listener::with_window(2);
        let mut unbounded = Listener::with_window(1_000);
        for id in 0..30 {
            let mut m = batch(id);
            if id % 3 == 0 {
                // Every third batch is unstable (processing > interval).
                m.completed_at = m.started_at + SimDuration::from_secs_f64(12.0);
            }
            small.on_batch_completed(m);
            unbounded.on_batch_completed(m);
        }
        // Whole-run aggregates are identical whether or not eviction ran.
        assert_eq!(small.completed(), unbounded.completed());
        assert_eq!(small.stable_fraction(), unbounded.stable_fraction());
        assert!((small.stable_fraction() - 20.0 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn since_cursor_survives_eviction() {
        let mut l = Listener::with_window(3);
        for id in 0..4 {
            l.on_batch_completed(batch(id));
        }
        // No eviction yet: an exact incremental drain.
        assert_eq!(
            l.since(2).iter().map(|m| m.batch_id).collect::<Vec<_>>(),
            [2, 3]
        );
        let cursor = l.completed(); // 4
        for id in 4..7 {
            l.on_batch_completed(batch(id));
        }
        // The push of batch 6 evicted batches 0..3, but the cursor is
        // still within the retained suffix, so the drain stays exact.
        assert_eq!(l.history().first().unwrap().batch_id, 3);
        let newer: Vec<u64> = l.since(cursor).iter().map(|m| m.batch_id).collect();
        assert_eq!(newer, (4..7).collect::<Vec<_>>());
        for id in 7..10 {
            l.on_batch_completed(batch(id));
        }
        // A cursor older than the retained range degrades to the oldest
        // retained batch instead of panicking or double-counting.
        let all: Vec<u64> = l.since(0).iter().map(|m| m.batch_id).collect();
        assert_eq!(
            all.first(),
            l.history().first().map(|m| m.batch_id).as_ref()
        );
        // A cursor at (or past) the end yields an empty slice.
        assert!(l.since(l.completed()).is_empty());
        assert!(l.since(l.completed() + 5).is_empty());
    }

    #[test]
    fn fault_counters_survive_eviction() {
        let mut l = Listener::with_window(2);
        for id in 0..10 {
            let mut m = batch(id);
            m.executor_failures = if id == 1 { 2 } else { 0 };
            m.task_retries = 3;
            l.on_batch_completed(m);
        }
        // Batch 1 is long evicted; the whole-run counters still know it.
        assert!(l.history().iter().all(|m| m.executor_failures == 0));
        assert_eq!(l.executor_failures(), 2);
        assert_eq!(l.task_retries(), 30);
    }

    #[test]
    fn memory_bounded_under_long_run() {
        let mut l = Listener::with_window(64);
        for id in 0..100_000u64 {
            l.on_batch_completed(batch(id));
        }
        assert_eq!(l.completed(), 100_000);
        assert!(l.history().len() <= 128);
        assert_eq!(l.last().unwrap().batch_id, 99_999);
        assert!((l.stable_fraction() - 1.0).abs() < 1e-12);
    }
}
