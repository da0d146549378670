//! Differential proof of the superbatch fast path: a run with the
//! closed-form path enabled must be indistinguishable — batch metrics,
//! traces, counters, RNG position — from a run where it is forced off
//! (`EngineParams::superbatch = false`, the same `use_fast = false` state
//! `NOSTOP_PROBE=1` induces; the CI `fastpaths` leg runs this file under
//! both and exercises the env-var route on the binaries). The fast path is an *optimization*,
//! never a model change — these tests are the contract that keeps it one.

use nostop::core::system::StreamingSystem;
use nostop::datagen::rate::{ConstantRate, RateProcess, SurgeRate};
use nostop::obs::Recorder;
use nostop::sim::{
    EngineParams, FaultEvent, FaultPlan, SimSystem, StreamConfig, StreamingEngine, SuperbatchStats,
};
use nostop::simcore::{SimDuration, SimTime};
use nostop::workloads::WorkloadKind;
use proptest::prelude::*;

/// One engine run's inputs, shared by the fast and the forced-off run.
#[derive(Clone)]
struct Case {
    kind: WorkloadKind,
    seed: u64,
    rate: f64,
    /// A scheduled surge: (multiplier, onset s, length s).
    surge: Option<(f64, f64, f64)>,
    interval_s: f64,
    executors: u32,
    plan: FaultPlan,
    /// A mid-run `apply_config`: after this many batches, switch to
    /// (interval s, executors).
    reconfigure: Option<(usize, f64, u32)>,
    batches: usize,
}

impl Case {
    fn new(kind: WorkloadKind, seed: u64, interval_s: f64, executors: u32, batches: usize) -> Self {
        let rate = match kind {
            WorkloadKind::LogisticRegression | WorkloadKind::LinearRegression => 10_000.0,
            _ => 120_000.0,
        };
        Case {
            kind,
            seed,
            rate,
            surge: None,
            interval_s,
            executors,
            plan: FaultPlan::default(),
            reconfigure: None,
            batches,
        }
    }
}

struct RunOutcome {
    history: Vec<nostop::core::system::BatchObservation>,
    trace: String,
    rng: [u64; 12],
    stats: SuperbatchStats,
    queue_len: usize,
}

/// Run `case` with the fast path on or off, capturing everything an
/// observer could distinguish the modes by.
fn run(case: &Case, fast: bool) -> RunOutcome {
    let mut params = EngineParams::paper(case.kind, case.seed);
    params.faults = case.plan.clone();
    params.superbatch = fast;
    let mut rate: Box<dyn RateProcess> = Box::new(ConstantRate::new(case.rate));
    if let Some((magnitude, onset, len)) = case.surge {
        rate = Box::new(SurgeRate::scheduled(rate, magnitude, onset, len));
    }
    let mut engine = StreamingEngine::new(
        params,
        StreamConfig::new(SimDuration::from_secs_f64(case.interval_s), case.executors),
        rate,
    );
    let recorder = Recorder::ring(65_536);
    engine.set_recorder(&recorder);
    let mut sys = SimSystem::new(engine);
    let mut history = Vec::with_capacity(case.batches);
    for i in 0..case.batches {
        if let Some((after, interval_s, executors)) = case.reconfigure {
            if i == after {
                sys.engine_mut().apply_config(StreamConfig::new(
                    SimDuration::from_secs_f64(interval_s),
                    executors,
                ));
            }
        }
        history.push(sys.next_batch());
    }
    RunOutcome {
        history,
        trace: recorder.snapshot().to_jsonl(),
        rng: sys.engine().rng_fingerprint(),
        stats: sys.engine().superbatch_stats(),
        queue_len: sys.engine().queue_len(),
    }
}

fn assert_identical(auto: &RunOutcome, off: &RunOutcome, ctx: &str) {
    assert_eq!(auto.history, off.history, "{ctx}: batch metrics diverged");
    assert_eq!(auto.rng, off.rng, "{ctx}: RNG position diverged");
    // The trace JSONL includes every span, counter, and the per-job
    // `superbatch` eligibility attribute — eligibility is *counted* in both
    // modes, so even that line must match byte for byte.
    assert_eq!(auto.trace, off.trace, "{ctx}: traces diverged");
    // Everything but the `fast_*` counters is counted in both modes.
    let counted = |s: &SuperbatchStats| {
        (
            s.eligible_batches,
            s.quiescence_fallbacks,
            s.eligible_blocks,
            s.armed_blocks,
        )
    };
    assert_eq!(
        counted(&auto.stats),
        counted(&off.stats),
        "{ctx}: eligibility counters diverged"
    );
    assert_eq!(
        off.stats.fast_blocks, 0,
        "{ctx}: kill switch used fast path"
    );
}

/// Steady paper workloads: the fast path must engage (this is the whole
/// point) and still be invisible in every observable.
#[test]
fn steady_state_is_bit_identical_and_engages() {
    for (kind, execs) in [
        (WorkloadKind::LogisticRegression, 14),
        (WorkloadKind::LinearRegression, 14),
        (WorkloadKind::WordCount, 8),
        (WorkloadKind::PageAnalyze, 8),
    ] {
        let case = Case::new(kind, 7, 15.0, execs, 120);
        let auto = run(&case, true);
        let off = run(&case, false);
        assert_identical(&auto, &off, &format!("{kind:?}"));
        // Under the global `NOSTOP_PROBE=1` switch (the CI `fastpaths`
        // leg runs this file both ways) even the "auto" run is exact-only
        // — the bit-identity asserts above still carry the full weight;
        // only the engagement expectation changes.
        if nostop::simcore::probe_mode() {
            assert_eq!(auto.stats.fast_batches, 0, "{kind:?}: probe switch ignored");
        } else {
            assert!(
                auto.stats.fast_batches > 60,
                "{kind:?}: fast path barely engaged ({} of 120)",
                auto.stats.fast_batches
            );
        }
    }
}

proptest! {
    /// Arbitrary fault schedules over arbitrary workloads: crashes,
    /// relaunches, slowdowns, outages, and task-failure windows all perturb
    /// the quiet checks — the two modes must still agree bit for bit on
    /// everything.
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
        let case = Case { plan, ..Case::new(kind, seed, 10.0, 12, 45) };
        let auto = run(&case, true);
        let off = run(&case, false);
        assert_identical(&auto, &off, &format!("{kind:?} seed {seed}"));
    }

    /// Churn that used to keep whole batches exact now reaches the
    /// per-block closed form: a mid-run `apply_config` that changes the
    /// interval and launches fresh executors, an undersized interval with
    /// a permanent backlog, and a scheduled rate surge. The two modes must
    /// still agree bit for bit, and the closed form must actually run.
    #[test]
    fn churned_runs_are_bit_identical(
        seed in 0u64..200,
        kind_ix in 0usize..4,
        switch_after in 2usize..20,
        new_interval_s in 5.0f64..20.0,
        added_executors in 1u32..8,
        backlog_interval_s in 1.0f64..3.0,
        magnitude in 1.1f64..3.0,
        onset in 30.0f64..300.0,
        surge_len in 5.0f64..120.0,
    ) {
        let kind = WorkloadKind::ALL[kind_ix];
        let base = Case::new(kind, seed, 10.0, 8, 40);
        let cases = [
            (
                "reconfigure",
                Case {
                    reconfigure: Some((switch_after, new_interval_s, 8 + added_executors)),
                    ..base.clone()
                },
            ),
            ("backlog", Case { interval_s: backlog_interval_s, executors: 2, ..base.clone() }),
            ("surge", Case { surge: Some((magnitude, onset, surge_len)), ..base }),
        ];
        for (what, case) in cases {
            let ctx = format!("{what}: {kind:?} seed {seed}");
            let auto = run(&case, true);
            let off = run(&case, false);
            assert_identical(&auto, &off, &ctx);
            prop_assert!(auto.stats.eligible_blocks > 0, "{ctx}: no quiet block: {:?}", auto.stats);
            if what == "backlog" {
                prop_assert!(auto.queue_len > 0, "{ctx}: the backlog drained");
            }
        }
    }
}
