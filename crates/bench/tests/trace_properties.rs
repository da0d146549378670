//! Property tests for the observability layer under adversarial schedules.
//!
//! The trace contract — every exit matches the innermost open entry on its
//! track, exits never precede entries, counter totals are monotone — must
//! hold not just on the happy path but across arbitrary fault plans and
//! mid-run reconfigurations. These properties drive a real engine (and, in
//! the deterministic test, a real NoStop controller) through randomized
//! crash/slowdown/outage/flaky-task schedules and validate both the
//! in-memory trace and its JSONL export with the strict checker; the
//! engine property also requires that recording change no batch.

#![cfg(not(feature = "obs-off"))]

use nostop_bench::driver::{nostop_config, paper_rate};
use nostop_core::controller::NoStop;
use nostop_core::scenario::FaultEvent;
use nostop_datagen::rate::ConstantRate;
use nostop_obs::{check_events, check_jsonl, span_stats, Recorder};
use nostop_simcore::{SimDuration, SimTime};
use nostop_workloads::WorkloadKind;
use proptest::prelude::*;
use spark_sim::{EngineParams, FaultPlan, SimSystem, StreamConfig, StreamingEngine};

/// Build a fault plan from raw generated knobs. Times are seconds.
#[allow(clippy::too_many_arguments)]
fn plan(
    crash_at_s: f64,
    crash_count: u32,
    relaunch_s: Option<f64>,
    slow_from_s: f64,
    slow_len_s: f64,
    slow_factor: f64,
    flaky_from_s: f64,
    flaky_len_s: f64,
    flaky_p: f64,
    outage_from_s: f64,
    outage_len_s: f64,
) -> FaultPlan {
    FaultPlan::new(vec![
        FaultEvent::ExecutorCrash {
            at: SimTime::from_secs_f64(crash_at_s),
            count: crash_count,
            relaunch_after: relaunch_s.map(SimDuration::from_secs_f64),
        },
        FaultEvent::NodeSlowdown {
            node: 1,
            from: SimTime::from_secs_f64(slow_from_s),
            until: SimTime::from_secs_f64(slow_from_s + slow_len_s),
            factor: slow_factor,
        },
        FaultEvent::TaskFailures {
            from: SimTime::from_secs_f64(flaky_from_s),
            until: SimTime::from_secs_f64(flaky_from_s + flaky_len_s),
            probability: flaky_p,
        },
        FaultEvent::ReceiverOutage {
            from: SimTime::from_secs_f64(outage_from_s),
            until: SimTime::from_secs_f64(outage_from_s + outage_len_s),
        },
    ])
}

proptest! {
    /// An instrumented engine run — random faults, random mid-run
    /// reconfigurations — always exports a well-formed trace.
    #[test]
    fn engine_trace_is_well_formed_under_random_fault_plans(
        seed in 0u64..1_000,
        crash_at_s in 20.0f64..400.0,
        crash_count in 1u32..6,
        relaunch in 0u64..3,
        slow_from_s in 0.0f64..300.0,
        slow_len_s in 10.0f64..400.0,
        slow_factor in 0.3f64..1.0,
        flaky_from_s in 0.0f64..300.0,
        flaky_len_s in 10.0f64..400.0,
        flaky_p in 0.0f64..0.3,
        outage_from_s in 0.0f64..300.0,
        outage_len_s in 5.0f64..120.0,
        reconfigs in prop::collection::vec((2.0f64..40.0, 2u32..20), 0..4),
    ) {
        let recorder = Recorder::ring(1 << 16);
        let mut params = EngineParams::paper(WorkloadKind::WordCount, seed);
        params.faults = plan(
            crash_at_s,
            crash_count,
            // 0 = capacity gone for good; else relaunch after 30/60 s.
            (relaunch > 0).then_some(30.0 * relaunch as f64),
            slow_from_s,
            slow_len_s,
            slow_factor,
            flaky_from_s,
            flaky_len_s,
            flaky_p,
            outage_from_s,
            outage_len_s,
        );
        let run = |recorder: &Recorder| {
            let mut engine = StreamingEngine::new(
                params.clone(),
                StreamConfig::new(SimDuration::from_secs_f64(10.0), 8),
                Box::new(ConstantRate::new(120_000.0)),
            );
            engine.set_recorder(recorder);
            engine.run_batches(10);
            for &(interval_s, executors) in &reconfigs {
                engine.apply_config(StreamConfig::new(
                    SimDuration::from_secs_f64(interval_s),
                    executors,
                ));
                engine.run_batches(5);
            }
            engine
        };
        let recorded = run(&recorder);

        let snap = recorder.snapshot();
        prop_assert!(snap.dropped == 0, "ring sized to hold the whole run");
        if let Err(e) = check_events(&snap.events) {
            return Err(TestCaseError::fail(format!("in-memory trace: {e}")));
        }
        if let Err(e) = check_jsonl(&snap.to_jsonl()) {
            return Err(TestCaseError::fail(format!("JSONL export: {e}")));
        }
        // Spans completed: at quiescence every job span is closed, so the
        // aggregate view sees as many job exits as entries.
        let stats = span_stats(&snap.events);
        let jobs = stats.iter().find(|s| s.track == "engine" && s.name == "job");
        prop_assert!(jobs.map(|s| s.count > 0).unwrap_or(false), "jobs traced");
        // Reconfigurations counted exactly (one per apply_config call).
        let reconf = snap
            .counters
            .iter()
            .find(|(n, _)| *n == "reconfigurations")
            .map(|(_, t)| *t)
            .unwrap_or(0);
        prop_assert_eq!(reconf, reconfigs.len() as u64);
        // Recording changes no result: the same run with the recorder
        // disabled completes the same batches, field for field.
        let plain = run(&Recorder::disabled());
        prop_assert!(!recorded.listener().history().is_empty());
        prop_assert_eq!(plain.listener().history(), recorded.listener().history());
    }
}

/// The full stack — engine + faults + NoStop controller sharing one sink —
/// produces a well-formed, byte-deterministic trace.
#[test]
fn controller_and_engine_share_a_well_formed_deterministic_trace() {
    let run = || {
        let recorder = Recorder::ring(1 << 16);
        let kind = WorkloadKind::WordCount;
        let mut params = EngineParams::paper(kind, 7);
        params.faults = FaultPlan::new(vec![FaultEvent::ExecutorCrash {
            at: SimTime::from_secs_f64(500.0),
            count: 3,
            relaunch_after: Some(SimDuration::from_secs(45)),
        }]);
        let mut engine = StreamingEngine::new(
            params,
            StreamConfig::paper_initial(),
            paper_rate(kind, 7 ^ 0x7ACE),
        );
        engine.set_recorder(&recorder);
        let mut sys = SimSystem::new(engine);
        let mut ns = NoStop::new(nostop_config(kind), 7);
        ns.set_recorder(&recorder);
        ns.run(&mut sys, 6);
        recorder.to_jsonl()
    };
    let a = run();
    check_jsonl(&a).expect("well-formed combined trace");
    assert!(a.contains("\"track\":\"engine\""), "engine events present");
    assert!(
        a.contains("\"track\":\"controller\""),
        "controller events present"
    );
    assert!(a.contains("\"span\":\"spsa_iter\""));
    assert!(a.contains("fault.crash"), "the crash left a trace event");
    let b = run();
    assert_eq!(a, b, "trace is a pure function of the seed");
}
