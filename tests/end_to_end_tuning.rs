//! End-to-end: the NoStop controller tuning the simulated cluster, for
//! every paper workload.

use nostop::core::controller::{NoStop, NoStopConfig, RoundOutcome};
use nostop::core::measure::{measure, Protocol};
use nostop::core::system::{Measurement, StreamingSystem};
use nostop::datagen::rate::UniformRandomRate;
use nostop::sim::{EngineParams, SimSystem, StreamConfig, StreamingEngine};
use nostop::simcore::SimRng;
use nostop::workloads::WorkloadKind;

fn system_for(kind: WorkloadKind, seed: u64) -> SimSystem {
    let (lo, hi) = kind.paper_rate_range();
    SimSystem::new(StreamingEngine::new(
        EngineParams::paper(kind, seed),
        StreamConfig::paper_initial(),
        Box::new(UniformRandomRate::new(
            lo,
            hi,
            30.0,
            SimRng::seed_from_u64(seed ^ 0xABCD),
        )),
    ))
}

fn controller_for(kind: WorkloadKind, seed: u64) -> NoStop {
    let (lo, hi) = kind.paper_rate_range();
    NoStop::new(NoStopConfig::paper_default().with_rate_range(lo, hi), seed)
}

#[test]
fn every_workload_improves_on_the_default_configuration() {
    for kind in WorkloadKind::ALL {
        let mut sys = system_for(kind, 42);
        let mut ns = controller_for(kind, 7);
        ns.run(&mut sys, 40);
        let (best, intrinsic) = ns
            .best_config()
            .unwrap_or_else(|| (ns.current_physical(), f64::INFINITY));
        // The default interval is 20.5 s; a tuned configuration's
        // intrinsic penalized delay must beat just running the default.
        assert!(
            intrinsic < 20.5,
            "{kind}: best intrinsic delay {intrinsic} at {best:?}"
        );
        assert!((1.0..=40.0).contains(&best[0]), "{kind}: {best:?}");
        assert!((1.0..=20.0).contains(&best[1]), "{kind}: {best:?}");
    }
}

#[test]
fn controller_eventually_pauses_on_every_workload() {
    for kind in WorkloadKind::ALL {
        let mut sys = system_for(kind, 11);
        let mut ns = controller_for(kind, 13);
        let mut paused = false;
        for _ in 0..80 {
            ns.run_round(&mut sys);
            if ns.is_paused() {
                paused = true;
                break;
            }
        }
        assert!(paused, "{kind}: never paused in 80 rounds");
    }
}

#[test]
fn two_reconfigurations_per_optimization_round() {
    let mut sys = system_for(WorkloadKind::WordCount, 3);
    let mut ns = controller_for(WorkloadKind::WordCount, 3);
    let mut rounds = 0;
    while rounds < 5 {
        let before = ns.config_changes();
        match ns.run_round(&mut sys) {
            RoundOutcome::Optimized { paused, .. } => {
                rounds += 1;
                let delta = ns.config_changes() - before;
                // Two Adjust calls; pausing parks once more.
                let expected = if paused { 3 } else { 2 };
                assert_eq!(delta, expected);
            }
            _ => break,
        }
    }
    assert!(rounds >= 3, "expected several optimization rounds");
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let mut sys = system_for(WorkloadKind::PageAnalyze, 5);
        let mut ns = controller_for(WorkloadKind::PageAnalyze, 5);
        ns.run(&mut sys, 25);
        (
            ns.current_physical(),
            ns.config_changes(),
            ns.trace().len(),
            sys.now_s().to_bits(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_explore_differently() {
    let final_config = |seed: u64| {
        let mut sys = system_for(WorkloadKind::LinearRegression, seed);
        let mut ns = controller_for(WorkloadKind::LinearRegression, seed);
        ns.run(&mut sys, 15);
        ns.theta_scaled().to_vec()
    };
    assert_ne!(final_config(1), final_config(2));
}

#[test]
fn tuned_configuration_is_near_feasible_on_fresh_system() {
    // Measure the best configuration on a *fresh* system (no residual
    // backlog): mean processing must fit within the interval with modest
    // slack, across the varying rate.
    let kind = WorkloadKind::WordCount;
    let mut sys = system_for(kind, 21);
    let mut ns = controller_for(kind, 23);
    ns.run(&mut sys, 40);
    let (best, _) = ns.best_config().expect("rounds ran");

    let mut fresh = system_for(kind, 99);
    let window = measure(&mut fresh, &best, 10, Protocol::Tuner, |_| {});
    let proc = Measurement::from_window(&window).processing_s;
    assert!(
        proc < best[0] * 1.1,
        "near-feasible: proc {proc} vs interval {}",
        best[0]
    );
}

#[test]
fn trace_round_accounting_is_consistent() {
    let mut sys = system_for(WorkloadKind::LogisticRegression, 31);
    let mut ns = controller_for(WorkloadKind::LogisticRegression, 31);
    ns.run(&mut sys, 30);
    let trace = ns.trace();
    assert_eq!(trace.len() as u64, ns.rounds());
    // Round indices are sequential, times non-decreasing.
    let mut last_t = 0.0;
    for (i, r) in trace.rounds.iter().enumerate() {
        assert_eq!(r.round as usize, i);
        assert!(r.t_s >= last_t, "time must not rewind");
        last_t = r.t_s;
        // Physical iterate always within the space.
        assert!((1.0..=40.0).contains(&r.theta_physical[0]));
        assert!((1.0..=20.0).contains(&r.theta_physical[1]));
        // Rho stays within the schedule's bounds.
        assert!(r.rho >= 1.0 && r.rho <= 2.0);
    }
}
