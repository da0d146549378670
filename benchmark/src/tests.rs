//! Self-tests: the wrappers forward every method, traced and untraced
//! runs produce the same outputs, the seed determines every output, and
//! the metric tables match `BENCHMARK.json`.
//!
//! `cargo test --release --manifest-path benchmark/Cargo.toml`

use crate::layers::record_rate;
use crate::rep::{Histogram, Rep};
use crate::{bo, closed_loop, fleet, Workload, END_TO_END, PER_LAYER};
use nostop_bench::driver::paper_rate;
use nostop_datagen::rate::{ConstantRate, RateProcess, RateSpecExt};
use nostop_simcore::json::Json;
use nostop_simcore::{SimDuration, SimRng, SimTime};
use nostop_workloads::WorkloadKind;
use spark_sim::{EngineParams, NoiseParams, StreamConfig, StreamingEngine};

fn at(secs: f64) -> SimTime {
    SimTime::from_secs_f64(secs)
}

/// Drive a bare and a wrapped process in lockstep, comparing every trait
/// method, then check the replay reproduces every recorded value.
fn assert_forwards(build: impl Fn() -> Box<dyn RateProcess>) {
    let mut bare = build();
    let (mut wrapped, mut replay) = record_rate(&build);
    for i in 0..5_000 {
        let t = at(i as f64 * 0.7);
        assert_eq!(bare.bounds(), wrapped.bounds());
        assert_eq!(bare.constant(), wrapped.constant());
        assert_eq!(bare.next_change_at(t), wrapped.next_change_at(t));
        assert_eq!(bare.rate_at(t).to_bits(), wrapped.rate_at(t).to_bits());
    }
    drop(wrapped);
    replay.replay();
    assert_eq!(replay.calls_replayed, 5_000);
    assert_eq!(replay.mismatches, 0);
}

#[test]
fn rate_wrapper_forwards_every_method() {
    for kind in WorkloadKind::ALL {
        let rng = SimRng::seed_from_u64(3);
        assert_forwards(|| closed_loop::rate_spec(kind).build(rng.clone()));
        assert_forwards(|| paper_rate(kind, 3));
    }
    assert_forwards(|| Box::new(ConstantRate::new(1_500.0)));
}

/// A wrapper that forwards `rate_at` only, counting the calls.
struct RateOnly {
    inner: ConstantRate,
    calls: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl RateProcess for RateOnly {
    fn rate_at(&mut self, t: SimTime) -> f64 {
        self.calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.rate_at(t)
    }
}

fn quiet_engine(rate: Box<dyn RateProcess>) -> StreamingEngine {
    let mut params = EngineParams::paper(WorkloadKind::WordCount, 11);
    params.noise = NoiseParams::disabled();
    let mut engine = StreamingEngine::new(params, StreamConfig::paper_initial(), rate);
    engine.run_batches(20);
    engine
}

fn horizon_quiet(engine: &StreamingEngine) -> bool {
    let now = engine.now();
    engine.horizon_quiet(now, now + SimDuration::from_secs(60))
}

/// Dropping `constant()` turns the generator's dispatch skip off, and
/// dropping `next_change_at()` turns the fleet's horizon check off: the
/// forwarding wrapper keeps both, so it measures the bare program.
#[test]
fn a_wrapper_that_drops_methods_measures_a_different_program() {
    let bare = quiet_engine(Box::new(ConstantRate::new(1_500.0)));
    assert!(horizon_quiet(&bare));

    let (wrapped, mut replay) = record_rate(|| Box::new(ConstantRate::new(1_500.0)));
    let wrapped = quiet_engine(wrapped);
    assert!(horizon_quiet(&wrapped));
    assert_eq!(wrapped.total_produced(), bare.total_produced());
    drop(wrapped);
    replay.replay();
    assert_eq!(replay.calls_replayed, 0, "the dispatch skip must hold");

    let calls = std::sync::Arc::default();
    let dropping = quiet_engine(Box::new(RateOnly {
        inner: ConstantRate::new(1_500.0),
        calls: std::sync::Arc::clone(&calls),
    }));
    assert!(!horizon_quiet(&dropping));
    assert!(calls.load(std::sync::atomic::Ordering::Relaxed) > 0);
}

/// Small runs of every workload, untraced then traced.
fn small(w: Workload, seed: u64, traced: bool) -> Rep {
    match w {
        Workload::ClosedLoopBursty => closed_loop::run_sized(seed, traced, 4.0 * 3600.0),
        Workload::FleetSteady => fleet::run_sized(seed, traced, 24, 96),
        Workload::BoDim8 => bo::run_sized(seed, traced, 24),
    }
}

fn assert_clean(rep: &Rep) {
    assert_eq!(rep.checks.failed, 0, "{:?}", rep.checks.messages);
    assert!(rep.checks.attempted > 0 && rep.batches > 0);
}

#[test]
fn traced_runs_reproduce_untraced_outputs_on_every_workload() {
    for w in Workload::ALL {
        let bare = small(w, 21, false);
        let traced = small(w, 21, true);
        assert_clean(&bare);
        assert_clean(&traced);
        assert_eq!(bare.digest, traced.digest, "{}", w.name());
        assert_eq!(bare.job_p99, traced.job_p99, "{}", w.name());
        let l = &traced.layers;
        match w {
            Workload::ClosedLoopBursty => {
                assert!(l.rate_calls > 0 && l.wire_reports == traced.batches);
                assert!(l.controller_ns > l.system_ns && l.system_ns > 0);
            }
            Workload::FleetSteady => {
                assert_eq!(l.arbiter_barriers, 96);
                assert!(l.fleet_ns > l.arbiter_ns && l.fleet_skipped > 0);
            }
            Workload::BoDim8 => {
                assert_eq!(l.tuner_evals, 8 * 24);
                assert!(l.rate_calls > 0 && l.propose_ns > 0 && l.observe_ns > 0);
                assert!(l.wire_reports == traced.batches && l.system_ns > 0);
                assert_eq!(l.engine_reconfigs, 8 * 24);
            }
        }
        assert!(bare.replay_s == 0.0 && traced.replay_s > 0.0, "{}", w.name());
    }
}

#[test]
fn the_seed_determines_every_output() {
    for w in Workload::ALL {
        let a = small(w, 5, false);
        let b = small(w, 5, false);
        let c = small(w, 6, false);
        assert_eq!(a.digest, b.digest, "{}", w.name());
        assert_eq!(
            (&a.job_p50, &a.job_p99, &a.best_objectives, a.stable),
            (&b.job_p50, &b.job_p99, &b.best_objectives, b.stable),
            "{}",
            w.name()
        );
        assert_ne!(a.digest, c.digest, "{}", w.name());
    }
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn metric_tables_are_valid_and_match_benchmark_json() {
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
    for name in &all {
        assert!(valid_name(name), "{name}");
    }
    let mut unique = all.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "metric names must be unique");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let bench = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        bench
            .field_array(key)
            .expect(key)
            .iter()
            .map(|m| {
                (
                    m.field_str("name").expect("name").to_string(),
                    m.field_str("unit").expect("unit").to_string(),
                )
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), table(&END_TO_END));
    assert_eq!(listed("per_layer"), table(&PER_LAYER));
    let workloads: Vec<&str> = bench
        .field_array("workloads")
        .expect("workloads")
        .iter()
        .map(|w| w.field_str("name").expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn histogram_quantiles_are_nearest_rank() {
    let mut h = Histogram::default();
    for x in [5.0, 1.0, 3.0, 3.0, 2.0, 4.0, 3.0, 9.0, 3.0, 1.0] {
        h.add(x);
    }
    assert_eq!(h.quantile(0.5), 3.0);
    assert_eq!(h.quantile(0.99), 9.0);
    assert_eq!(h.quantile(0.0), 1.0);
    assert!(Histogram::default().quantile(0.5).is_nan());
}
