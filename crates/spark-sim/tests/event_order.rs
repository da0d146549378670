//! The engine's same-instant event order. `StreamingEngine::step` takes
//! the earliest of three timers — next fault, running job's finish, next
//! batch cut — and faults win ties: a crash at the very instant a job
//! would finish still hits that job, because the completion
//! acknowledgment from a dead executor never arrives.

use nostop_core::scenario::FaultEvent;
use nostop_datagen::rate::ConstantRate;
use nostop_simcore::{SimDuration, SimTime};
use nostop_workloads::WorkloadKind;
use spark_sim::{BatchMetrics, EngineParams, FaultPlan, StreamConfig, StreamingEngine};

/// The batch whose completion instant the crash is aimed at.
const TARGET: usize = 10;

fn history_with(crash_at: Option<SimTime>) -> Vec<BatchMetrics> {
    let mut params = EngineParams::paper(WorkloadKind::WordCount, 17);
    let crash = |at| FaultEvent::ExecutorCrash {
        at,
        count: 2,
        relaunch_after: None,
    };
    params.faults = FaultPlan::new(crash_at.into_iter().map(crash).collect());
    let mut engine = StreamingEngine::new(
        params,
        StreamConfig::new(SimDuration::from_secs(8), 10),
        Box::new(ConstantRate::new(120_000.0)),
    );
    engine.run_batches(20);
    engine.listener().history().to_vec()
}

#[test]
fn a_crash_at_a_finish_instant_hits_the_finishing_job() {
    let clean = history_with(None);
    let finish = clean[TARGET].completed_at;
    let tied = history_with(Some(finish));
    assert_eq!(tied[..TARGET], clean[..TARGET]);
    let hit = tied[TARGET];
    assert_eq!(hit.batch_id, clean[TARGET].batch_id);
    assert!(hit.executor_failures > 0, "the crash must land on the job");
    assert!(
        hit.completed_at > finish,
        "the replanned job completes later"
    );
}

#[test]
fn a_crash_one_microsecond_after_a_finish_leaves_that_batch_alone() {
    let clean = history_with(None);
    let finish = clean[TARGET].completed_at;
    let late = history_with(Some(finish + SimDuration::from_micros(1)));
    assert_eq!(late[..=TARGET], clean[..=TARGET]);
    // The crash did fire, and a later completion reports it.
    assert!(late[TARGET + 1..].iter().any(|b| b.executor_failures > 0));
}
