//! Differential proof of the superbatch fast path: a run with the
//! closed-form path enabled must be indistinguishable — batch metrics,
//! traces, counters, RNG position — from a run where it is forced off
//! (`EngineParams::superbatch = false`, the same `use_fast = false` state
//! `NOSTOP_PROBE=1` induces; the CI `fastpaths` leg runs this file under
//! both and exercises the env-var route on the binaries). The fast path is an *optimization*,
//! never a model change — these tests are the contract that keeps it one.

use nostop::core::system::StreamingSystem;
use nostop::datagen::rate::ConstantRate;
use nostop::obs::Recorder;
use nostop::sim::{EngineParams, FaultEvent, FaultPlan, SimSystem, StreamConfig, StreamingEngine};
use nostop::simcore::{SimDuration, SimTime};
use nostop::workloads::WorkloadKind;
use proptest::prelude::*;

struct RunOutcome {
    history: Vec<nostop::core::system::BatchObservation>,
    trace: String,
    rng: [u64; 12],
    fast_batches: u64,
    eligible_blocks: u64,
    armed_blocks: u64,
}

/// Run `batches` batches with the fast path on or off, capturing
/// everything an observer could distinguish the modes by.
#[allow(clippy::too_many_arguments)] // scenario knobs, always called in pairs
fn run(
    kind: WorkloadKind,
    seed: u64,
    rate: f64,
    interval_s: f64,
    executors: u32,
    plan: FaultPlan,
    batches: usize,
    fast: bool,
) -> RunOutcome {
    let mut params = EngineParams::paper(kind, seed);
    params.faults = plan;
    params.superbatch = fast;
    let mut engine = StreamingEngine::new(
        params,
        StreamConfig::new(SimDuration::from_secs_f64(interval_s), executors),
        Box::new(ConstantRate::new(rate)),
    );
    let recorder = Recorder::ring(65_536);
    engine.set_recorder(&recorder);
    let mut sys = SimSystem::new(engine);
    let history: Vec<_> = (0..batches).map(|_| sys.next_batch()).collect();
    let stats = sys.engine().superbatch_stats();
    RunOutcome {
        history,
        trace: recorder.snapshot().to_jsonl(),
        rng: sys.engine().rng_fingerprint(),
        fast_batches: stats.fast_batches,
        eligible_blocks: stats.eligible_blocks,
        armed_blocks: stats.armed_blocks,
    }
}

fn assert_identical(auto: &RunOutcome, off: &RunOutcome, ctx: &str) {
    assert_eq!(auto.history, off.history, "{ctx}: batch metrics diverged");
    assert_eq!(auto.rng, off.rng, "{ctx}: RNG position diverged");
    // The trace JSONL includes every span, counter, and the per-job
    // `superbatch` eligibility attribute — eligibility is *counted* in both
    // modes, so even that line must match byte for byte.
    assert_eq!(auto.trace, off.trace, "{ctx}: traces diverged");
    assert_eq!(
        (auto.eligible_blocks, auto.armed_blocks),
        (off.eligible_blocks, off.armed_blocks),
        "{ctx}: eligibility counters diverged"
    );
}

/// Steady paper workloads: the fast path must engage (this is the whole
/// point) and still be invisible in every observable.
#[test]
fn steady_state_is_bit_identical_and_engages() {
    for (kind, rate, execs) in [
        (WorkloadKind::LogisticRegression, 10_000.0, 14),
        (WorkloadKind::LinearRegression, 10_000.0, 14),
        (WorkloadKind::WordCount, 120_000.0, 8),
        (WorkloadKind::PageAnalyze, 120_000.0, 8),
    ] {
        let auto = run(kind, 7, rate, 15.0, execs, FaultPlan::default(), 120, true);
        let off = run(kind, 7, rate, 15.0, execs, FaultPlan::default(), 120, false);
        assert_identical(&auto, &off, &format!("{kind:?}"));
        // Under the global `NOSTOP_PROBE=1` switch (the CI `fastpaths`
        // leg runs this file both ways) even the "auto" run is exact-only
        // — the bit-identity asserts above still carry the full weight;
        // only the engagement expectation changes.
        if nostop::simcore::probe_mode() {
            assert_eq!(auto.fast_batches, 0, "{kind:?}: probe switch ignored");
        } else {
            assert!(
                auto.fast_batches > 60,
                "{kind:?}: fast path barely engaged ({} of 120)",
                auto.fast_batches
            );
        }
        assert_eq!(off.fast_batches, 0, "{kind:?}: kill switch used fast path");
    }
}

proptest! {
    /// Arbitrary fault schedules over arbitrary workloads: crashes,
    /// relaunches, slowdowns, outages, and task-failure windows all perturb
    /// signatures and quiet checks — the two modes must still agree bit
    /// for bit on everything.
    #[test]
    fn faulted_runs_are_bit_identical(
        seed in 0u64..200,
        kind_ix in 0usize..4,
        crash_at in 30.0f64..400.0,
        relaunch_s in 0u64..90,
        out_from in 30.0f64..400.0,
        out_len in 1.0f64..60.0,
        slow_from in 30.0f64..400.0,
        slow_len in 1.0f64..120.0,
        slow_factor in 0.3f64..1.4,
        fail_from in 30.0f64..400.0,
        fail_len in 1.0f64..60.0,
        fail_p in 0.0f64..0.3,
    ) {
        let kind = WorkloadKind::ALL[kind_ix];
        let rate = match kind {
            WorkloadKind::LogisticRegression | WorkloadKind::LinearRegression => 10_000.0,
            _ => 120_000.0,
        };
        let plan = FaultPlan::new(vec![
            FaultEvent::ExecutorCrash {
                at: SimTime::from_secs_f64(crash_at),
                count: 1,
                relaunch_after: (relaunch_s > 0).then(|| SimDuration::from_secs(relaunch_s)),
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
        ]);
        let auto = run(kind, seed, rate, 10.0, 12, plan.clone(), 45, true);
        let off = run(kind, seed, rate, 10.0, 12, plan, 45, false);
        assert_identical(&auto, &off, &format!("{kind:?} seed {seed}"));
    }
}
