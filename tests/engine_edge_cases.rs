//! Edge cases of the simulated engine that the main integration suites
//! do not reach.

use nostop::core::controller::{NoStop, NoStopConfig};
use nostop::core::system::{BatchObservation, StreamingSystem};
use nostop::core::SkewSpec;
use nostop::datagen::rate::{ConstantRate, TraceRate, UniformRandomRate};
use nostop::sim::{
    BatchMetrics, EngineParams, Listener, SimSystem, Speculation, StreamConfig, StreamingEngine,
};
use nostop::simcore::{SimDuration, SimRng};
use nostop::workloads::WorkloadKind;

fn engine(rate: f64, interval_s: f64, execs: u32, seed: u64) -> StreamingEngine {
    StreamingEngine::new(
        EngineParams::paper(WorkloadKind::WordCount, seed),
        StreamConfig::new(SimDuration::from_secs_f64(interval_s), execs),
        Box::new(ConstantRate::new(rate)),
    )
}

#[test]
fn zero_rate_stream_still_completes_empty_batches() {
    // Spark processes empty batches (overheads only); the engine must not
    // stall or divide by zero.
    let mut e = engine(0.0, 10.0, 8, 1);
    e.run_batches(5);
    for m in e.listener().history() {
        assert_eq!(m.records, 0);
        assert!(m.processing_time() > SimDuration::ZERO);
        assert!(m.is_stable());
    }
}

#[test]
fn reapplying_the_identical_config_is_harmless() {
    let mut e = engine(120_000.0, 12.0, 10, 2);
    e.run_batches(3);
    let before = e.listener().recent(1)[0].processing_time();
    for _ in 0..5 {
        e.apply_config(StreamConfig::new(SimDuration::from_secs(12), 10));
    }
    e.run_batches(3);
    let after = e.listener().recent(1)[0].processing_time();
    // No fresh executors were launched, so no jar-shipping penalty.
    let ratio = after.as_secs_f64() / before.as_secs_f64();
    assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
}

#[test]
fn shrinking_the_interval_mid_run_cuts_sooner() {
    let mut e = engine(120_000.0, 30.0, 16, 3);
    e.run_batches(2);
    let t = e.now();
    e.apply_config(StreamConfig::new(SimDuration::from_secs(5), 16));
    e.run_batches(2);
    // The divider re-arms: the next cut happens within ~5 s, not 30.
    let first_new = e
        .listener()
        .history()
        .iter()
        .find(|m| m.interval == SimDuration::from_secs(5))
        .expect("new interval reached");
    assert!(
        first_new.submitted_at.saturating_since(t) <= SimDuration::from_secs(6),
        "re-armed divider cut at {} after {}",
        first_new.submitted_at,
        t
    );
}

#[test]
fn executor_churn_does_not_lose_batches() {
    let mut e = engine(120_000.0, 8.0, 4, 4);
    for i in 0..12u32 {
        e.apply_config(StreamConfig::new(
            SimDuration::from_secs(8),
            2 + (i * 3) % 18,
        ));
        e.run_batches(1);
    }
    // Every batch completed exactly once, ids contiguous.
    let ids: Vec<u64> = e.listener().history().iter().map(|m| m.batch_id).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ids.len(), "no duplicate completions");
    for w in sorted.windows(2) {
        assert_eq!(w[1], w[0] + 1, "no gaps in batch ids");
    }
}

#[test]
fn trace_rate_replay_drives_the_engine() {
    // Replay a recorded trace (CSV round-trip included) through the full
    // stack: rates step exactly at the breakpoints.
    let csv = "t_secs,rate\n0,50000\n60,150000\n";
    let trace = TraceRate::from_csv(csv).expect("parses");
    let mut e = StreamingEngine::new(
        EngineParams::paper(WorkloadKind::WordCount, 5),
        StreamConfig::new(SimDuration::from_secs(10), 16),
        Box::new(trace),
    );
    e.run_batches(10);
    let early: Vec<u64> = e
        .listener()
        .history()
        .iter()
        .filter(|m| m.submitted_at.as_secs_f64() <= 60.0)
        .map(|m| m.records)
        .collect();
    let late: Vec<u64> = e
        .listener()
        .history()
        .iter()
        .filter(|m| m.submitted_at.as_secs_f64() > 70.0)
        .map(|m| m.records)
        .collect();
    assert!(!early.is_empty() && !late.is_empty());
    let early_mean = early.iter().sum::<u64>() / early.len() as u64;
    let late_mean = late.iter().sum::<u64>() / late.len() as u64;
    assert!(
        (450_000..=550_000).contains(&early_mean),
        "early {early_mean}"
    );
    assert!(
        (1_400_000..=1_600_000).contains(&late_mean),
        "late {late_mean}"
    );
}

#[test]
fn minimum_viable_cluster_still_works() {
    // One worker, one core: everything serializes onto a single executor.
    use nostop::sim::{Cluster, DiskClass};
    let mut params = EngineParams::paper(WorkloadKind::WordCount, 6);
    params.cluster = Cluster::homogeneous(1, 1, 1.0, DiskClass::Hdd);
    let mut e = StreamingEngine::new(
        params,
        StreamConfig::new(SimDuration::from_secs(30), 1),
        Box::new(ConstantRate::new(5_000.0)),
    );
    e.run_batches(4);
    assert_eq!(e.listener().completed(), 4);
    assert!(e.listener().history().iter().all(|m| m.num_executors == 1));
}

/// The Lindley recursion of the engine's single FIFO job queue: a batch's
/// job starts when the batch is cut or when the previous batch's job
/// completes, whichever is later. Fed after every completed batch, so the
/// listener's window eviction never hides a pair.
#[derive(Default)]
struct Lindley {
    seen: u64,
    prev: Option<BatchMetrics>,
    pairs: u64,
    /// Pairs whose batch waited for the previous job.
    queued: u64,
}

impl Lindley {
    fn check(&mut self, listener: &Listener) {
        for m in listener.since(self.seen) {
            if let Some(p) = self.prev {
                assert_eq!(m.batch_id, p.batch_id + 1, "batches complete in order");
                assert_eq!(
                    m.started_at,
                    m.submitted_at.max(p.completed_at),
                    "batch {}: started_n != max(submitted_n, completed_n-1)",
                    m.batch_id
                );
                self.pairs += 1;
                self.queued += u64::from(m.started_at > m.submitted_at);
            }
            self.prev = Some(*m);
        }
        self.seen = listener.completed();
    }
}

/// A [`SimSystem`] that checks the recursion behind every batch the
/// controller pulls.
struct Checked {
    sys: SimSystem,
    lindley: Lindley,
}

impl StreamingSystem for Checked {
    fn apply_config(&mut self, physical: &[f64]) {
        self.sys.apply_config(physical);
    }
    fn next_batch(&mut self) -> BatchObservation {
        let b = self.sys.next_batch();
        self.lindley.check(self.sys.engine().listener());
        b
    }
    fn now_s(&self) -> f64 {
        self.sys.now_s()
    }
}

fn paper_engine(
    kind: WorkloadKind,
    seed: u64,
    cfg: StreamConfig,
    skew: SkewSpec,
    speculation: Option<Speculation>,
) -> StreamingEngine {
    let (lo, hi) = kind.paper_rate_range();
    let mut params = EngineParams::paper(kind, seed);
    params.skew = skew;
    params.speculation = speculation;
    StreamingEngine::new(
        params,
        cfg,
        Box::new(UniformRandomRate::new(
            lo,
            hi,
            30.0,
            SimRng::seed_from_u64(seed ^ 0x11D1),
        )),
    )
}

#[test]
fn batches_start_when_cut_or_when_the_previous_job_completes() {
    // Undersized (the queue builds), near the frontier, and oversized.
    let configs = [(4.0, 4), (10.0, 10), (20.5, 16)];
    // Hot keys (as closed-loop-bursty runs them) and speculation (which
    // takes the superbatch's job-level veto) as extra input axes.
    let hot_key = SkewSpec::HotKey {
        hot_fraction: 0.1,
        hot_weight: 8.0,
    };
    let spec = Some(Speculation::default());
    let variants = [
        (SkewSpec::None, None),
        (SkewSpec::None, spec),
        (hot_key, None),
        (hot_key, spec),
    ];
    let (mut pairs, mut queued) = (0, 0);
    for kind in WorkloadKind::ALL {
        for (interval_s, execs) in configs {
            for reconfigure in [false, true] {
                for (skew, speculation) in variants {
                    for seed in [1, 2, 3] {
                        let cfg = StreamConfig::new(SimDuration::from_secs_f64(interval_s), execs);
                        let mut e = paper_engine(kind, seed, cfg, skew, speculation);
                        let mut lindley = Lindley::default();
                        for i in 0..120 {
                            if reconfigure && i == 60 {
                                e.apply_config(StreamConfig::new(SimDuration::from_secs(7), 12));
                            }
                            e.run_batches(1);
                            lindley.check(e.listener());
                        }
                        pairs += lindley.pairs;
                        queued += lindley.queued;
                    }
                }
            }
        }
    }
    assert_eq!(pairs, 4 * 3 * 2 * 4 * 3 * 119);
    assert!(queued > pairs / 10, "the queue built: {queued} of {pairs}");

    // The closed loop: NoStop reconfigures twice per round.
    for kind in WorkloadKind::ALL {
        let (lo, hi) = kind.paper_rate_range();
        let mut sys = Checked {
            sys: SimSystem::new(paper_engine(
                kind,
                4,
                StreamConfig::paper_initial(),
                SkewSpec::None,
                None,
            )),
            lindley: Lindley::default(),
        };
        let mut ns = NoStop::new(NoStopConfig::paper_default().with_rate_range(lo, hi), 4);
        ns.run(&mut sys, 30);
        assert!(
            sys.lindley.pairs > 100,
            "{kind:?}: {} pairs",
            sys.lindley.pairs
        );
    }
}
