//! Cross-crate integration: the Fig-4 JSON boundary, and the baseline
//! tuners driving the simulator through the shared harness.

use nostop::baselines::{BayesOpt, GridSearch, PidRateEstimator, RandomSearch, Tuner};
use nostop::core::listener::StatusReport;
use nostop::core::measure::{measure, Protocol};
use nostop::core::objective::{ranking_objective, RHO_CAP};
use nostop::core::space::ConfigSpace;
use nostop::core::system::{Measurement, StreamingSystem};
use nostop::datagen::rate::ConstantRate;
use nostop::sim::{EngineParams, SimSystem, StreamConfig, StreamingEngine};
use nostop::simcore::SimDuration;
use nostop::workloads::WorkloadKind;

fn sim(kind: WorkloadKind, rate: f64, interval_s: f64, execs: u32, seed: u64) -> SimSystem {
    SimSystem::new(StreamingEngine::new(
        EngineParams::paper(kind, seed),
        StreamConfig::new(SimDuration::from_secs_f64(interval_s), execs),
        Box::new(ConstantRate::new(rate)),
    ))
}

#[test]
fn listener_json_crosses_the_crate_boundary_losslessly() {
    // The simulator emits the Fig-4 wire format; the controller-side
    // parser must reconstruct identical observations.
    let mut engine = StreamingEngine::new(
        EngineParams::paper(WorkloadKind::WordCount, 1),
        StreamConfig::new(SimDuration::from_secs(10), 12),
        Box::new(ConstantRate::new(120_000.0)),
    );
    engine.run_batches(5);
    for m in engine.listener().history() {
        let json = m.to_status_report().to_json();
        let parsed = StatusReport::from_json(&json).expect("wire format parses");
        let direct = m.to_observation();
        let via_json = parsed.to_observation();
        assert_eq!(direct.records, via_json.records);
        assert_eq!(direct.num_executors, via_json.num_executors);
        assert!((direct.processing_s - via_json.processing_s).abs() < 2e-3);
        assert!((direct.input_rate - via_json.input_rate).abs() < 5.0);
        // Required camelCase keys for a non-Rust consumer.
        for key in [
            "batchId",
            "numRecords",
            "arrivedRecords",
            "batchIntervalMs",
            "queuedBatches",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}

#[test]
fn json_without_optional_fields_still_parses() {
    // An external (non-simulator) listener that predates the optional
    // fields must still interoperate.
    let json = r#"{
        "batchId": 9, "submissionTimeMs": 1000, "processingStartTimeMs": 1100,
        "processingEndTimeMs": 5000, "numRecords": 77,
        "batchIntervalMs": 10000, "numExecutors": 3, "queuedBatches": 2
    }"#;
    let r = StatusReport::from_json(json).expect("optional fields default");
    let o = r.to_observation();
    assert_eq!(o.records, 77);
    assert_eq!(o.queued_batches, 2);
    // Rate falls back to records/interval.
    assert!((o.input_rate - 7.7).abs() < 1e-9);
}

#[test]
fn random_search_tunes_the_simulator() {
    let mut sys = sim(WorkloadKind::WordCount, 150_000.0, 20.5, 10, 2);
    let mut rs = RandomSearch::new(ConfigSpace::paper_default(), 2);
    for _ in 0..15 {
        let p = rs.propose();
        let m = Measurement::from_window(&measure(&mut sys, &p, 3, Protocol::Tuner, |_| {}));
        rs.observe(&p, ranking_objective(p[0], m.processing_s, RHO_CAP));
    }
    let (best, obj) = rs.best().expect("15 evaluations");
    assert!(
        obj < 20.5,
        "random search beats the default: {obj} at {best:?}"
    );
}

#[test]
fn grid_search_cost_dwarfs_spsa() {
    // §1's "prohibitively time-consuming" claim, quantified: even a
    // coarse 8×8 grid needs 64 measurements; NoStop pauses after ~a dozen
    // rounds (≈25 reconfigurations).
    let gs = GridSearch::new(ConfigSpace::paper_default(), 8);
    assert_eq!(gs.total_points(), 64);
    // Full resolution (0.1 s × 1 executor): 391 × 20 lattice.
    let full = GridSearch::new(
        ConfigSpace::paper_default(),
        391, // 0.1 s steps across [1, 40]
    );
    assert!(full.total_points() > 150_000);
}

#[test]
fn bayesopt_tunes_the_simulator_end_to_end() {
    let mut sys = sim(WorkloadKind::PageAnalyze, 200_000.0, 20.5, 10, 3);
    let mut bo = BayesOpt::new(ConfigSpace::paper_default(), 3);
    for _ in 0..20 {
        let p = bo.propose();
        let m = Measurement::from_window(&measure(&mut sys, &p, 3, Protocol::Tuner, |_| {}));
        bo.observe(&p, ranking_objective(p[0], m.processing_s, RHO_CAP));
    }
    let (best, obj) = bo.best().expect("20 evaluations");
    assert!(obj < 20.5, "BO beats the default: {obj} at {best:?}");
    assert!((1.0..=40.0).contains(&best[0]));
}

#[test]
fn backpressure_stabilizes_an_undersized_system() {
    // WordCount at 150k rec/s on (5 s, 3 executors) is unstable; the PID
    // must bring scheduling delay under control by shedding ingest.
    let mut sys = sim(WorkloadKind::WordCount, 150_000.0, 5.0, 3, 4);
    let mut pid = PidRateEstimator::spark_default(5.0);
    let mut last_scheds = Vec::new();
    for i in 0..40 {
        let b = sys.next_batch();
        if let Some(limit) = pid.compute(
            b.completed_at_s,
            b.records,
            b.processing_s,
            b.scheduling_delay_s,
        ) {
            sys.engine_mut().set_rate_limit(Some(limit));
        }
        if i >= 30 {
            last_scheds.push(b.scheduling_delay_s);
        }
    }
    let mean_sched = last_scheds.iter().sum::<f64>() / last_scheds.len() as f64;
    assert!(
        mean_sched < 10.0,
        "PID bounded the queue: sched {mean_sched}"
    );
    assert!(
        sys.engine().broker_lag() > 100_000,
        "the shed data accumulates at the source"
    );
}
