//! Property tests for the fault-injection subsystem: arbitrary valid
//! schedules never wedge the engine, never lose records, and never
//! exceed the task-retry bound.

use nostop::core::scenario::FaultEvent;
use nostop::datagen::rate::ConstantRate;
use nostop::sim::{EngineParams, FaultPlan, StreamConfig, StreamingEngine};
use nostop::simcore::{SimDuration, SimTime};
use nostop::workloads::WorkloadKind;
use proptest::prelude::*;

const KIND: WorkloadKind = WorkloadKind::WordCount;
const RATE: f64 = 150_000.0;

fn engine_with(seed: u64, plan: FaultPlan) -> StreamingEngine {
    let mut params = EngineParams::paper(KIND, seed);
    params.faults = plan;
    StreamingEngine::new(
        params,
        StreamConfig::paper_initial(),
        Box::new(ConstantRate::new(RATE)),
    )
}

/// Build a valid multi-event plan from raw draws. Windows are synthesized
/// as `[from, from + len)` so they are never empty, factors stay positive,
/// and probabilities stay inside `[0, 1)` — the validity envelope
/// `FaultEvent::validate` enforces.
#[allow(clippy::too_many_arguments)]
fn synth_plan(
    crash_at: f64,
    crash_count: u32,
    relaunch_s: u64,
    out_from: f64,
    out_len: f64,
    slow_from: f64,
    slow_len: f64,
    slow_factor: f64,
    fail_from: f64,
    fail_len: f64,
    fail_p: f64,
) -> FaultPlan {
    FaultPlan::new(vec![
        FaultEvent::ExecutorCrash {
            at: SimTime::from_secs_f64(crash_at),
            count: crash_count,
            relaunch_after: if relaunch_s == 0 {
                None
            } else {
                Some(SimDuration::from_secs(relaunch_s))
            },
        },
        FaultEvent::ReceiverOutage {
            from: SimTime::from_secs_f64(out_from),
            until: SimTime::from_secs_f64(out_from + out_len),
        },
        FaultEvent::NodeSlowdown {
            node: 1,
            from: SimTime::from_secs_f64(slow_from),
            until: SimTime::from_secs_f64(slow_from + slow_len),
            factor: slow_factor,
        },
        FaultEvent::TaskFailures {
            from: SimTime::from_secs_f64(fail_from),
            until: SimTime::from_secs_f64(fail_from + fail_len),
            probability: fail_p,
        },
    ])
}

proptest! {
    #[test]
    fn arbitrary_schedules_never_deadlock(
        seed in 0u64..1_000,
        crash_at in 20.0f64..400.0,
        crash_count in 1u32..8,
        relaunch_s in 0u64..120,
        out_from in 20.0f64..400.0,
        out_len in 1.0f64..200.0,
        slow_from in 0.0f64..400.0,
        slow_len in 1.0f64..300.0,
        slow_factor in 0.2f64..1.5,
        fail_from in 0.0f64..400.0,
        fail_len in 1.0f64..300.0,
        fail_p in 0.0f64..0.9,
    ) {
        let plan = synth_plan(
            crash_at, crash_count, relaunch_s, out_from, out_len,
            slow_from, slow_len, slow_factor, fail_from, fail_len, fail_p,
        );
        let mut eng = engine_with(seed, plan);
        // The engine must complete every requested batch in strictly
        // advancing time, whatever the schedule throws at it. A wedged
        // event loop would spin here forever; a time regression trips the
        // assert.
        let mut last = SimTime::ZERO;
        for _ in 0..25 {
            eng.run_batches(1);
            let m = *eng.listener().last().expect("batch completed");
            prop_assert!(
                m.completed_at > last,
                "batch completion time did not advance: {:?} after {:?}",
                m.completed_at,
                last
            );
            last = m.completed_at;
            prop_assert!(eng.executor_count() >= 1, "the last executor died");
        }
    }

    #[test]
    fn no_records_are_lost_under_any_schedule(
        seed in 0u64..1_000,
        crash_at in 20.0f64..300.0,
        crash_count in 1u32..6,
        relaunch_s in 0u64..90,
        out_from in 20.0f64..300.0,
        out_len in 1.0f64..150.0,
        fail_from in 0.0f64..300.0,
        fail_len in 1.0f64..200.0,
        fail_p in 0.0f64..0.5,
    ) {
        let plan = synth_plan(
            crash_at, crash_count, relaunch_s, out_from, out_len,
            0.0, 1.0, 1.0, fail_from, fail_len, fail_p,
        );
        let mut eng = engine_with(seed, plan);
        let mut completed = 0u64;
        for _ in 0..30 {
            eng.run_batches(1);
        }
        for m in eng.drain_completed() {
            completed += m.records;
        }
        // Conservation: everything the source produced is in a completed
        // batch, queued, in flight, lagging in the broker, or declared
        // dropped by an outage. Nothing vanishes, nothing is invented.
        prop_assert_eq!(
            eng.total_produced(),
            completed
                + eng.queued_records()
                + eng.in_flight_records()
                + eng.broker_lag()
                + eng.dropped_records(),
            "conservation violated (dropped={})",
            eng.dropped_records()
        );
    }

    #[test]
    fn task_retries_respect_the_bound(
        seed in 0u64..1_000,
        fail_from in 0.0f64..200.0,
        fail_len in 50.0f64..400.0,
        fail_p in 0.05f64..0.9,
        bound in 0u32..5,
    ) {
        // Only failure windows (no crashes): every batch runs exactly one
        // job, so the per-batch retry count is bounded by
        // tasks × max_task_retries.
        let plan = FaultPlan::new(vec![FaultEvent::TaskFailures {
            from: SimTime::from_secs_f64(fail_from),
            until: SimTime::from_secs_f64(fail_from + fail_len),
            probability: fail_p,
        }])
        .with_max_task_retries(bound);
        let mut eng = engine_with(seed, plan);
        for _ in 0..25 {
            eng.run_batches(1);
        }
        for m in eng.drain_completed() {
            // tasks_per_stage = interval / block interval (200 ms), the
            // same formula the scheduler uses.
            let tasks_per_stage = (m.interval.as_micros() / 200_000).max(1) as u32;
            let max = m.stages * tasks_per_stage * bound;
            prop_assert!(
                m.task_retries <= max,
                "batch {} retried {} times, bound {} ({} stages x {} tasks x {})",
                m.batch_id, m.task_retries, max, m.stages, tasks_per_stage, bound
            );
        }
        if bound == 0 {
            prop_assert_eq!(eng.listener().task_retries(), 0u64);
        }
    }
}
