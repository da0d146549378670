//! Regression tests pinning the paper's qualitative results — the shapes
//! the EXPERIMENTS.md index promises. If a calibration change breaks a
//! figure, these fail before the figure binaries ever run.

use nostop::core::system::{Measurement, StreamingSystem};
use nostop::datagen::rate::ConstantRate;
use nostop::sim::{EngineParams, SimSystem, StreamConfig, StreamingEngine};
use nostop::simcore::stats::summarize;
use nostop::simcore::SimDuration;
use nostop::workloads::{CostModel, WorkloadKind};

fn testbed(interval_s: f64, executors: u32, seed: u64) -> SimSystem {
    SimSystem::new(StreamingEngine::new(
        EngineParams::testbed(WorkloadKind::LogisticRegression, seed),
        StreamConfig::new(SimDuration::from_secs_f64(interval_s), executors),
        Box::new(ConstantRate::new(10_000.0)),
    ))
}

/// Three warm-up batches, then the mean over the next `batches`.
fn steady(sys: &mut SimSystem, batches: usize) -> Measurement {
    for _ in 0..3 {
        sys.next_batch();
    }
    let window: Vec<_> = (0..batches).map(|_| sys.next_batch()).collect();
    Measurement::from_window(&window)
}

#[test]
fn fig2a_processing_time_grows_sublinearly_with_interval() {
    let p6 = steady(&mut testbed(6.0, 10, 1), 8).processing_s;
    let p20 = steady(&mut testbed(20.0, 10, 1), 8).processing_s;
    let p40 = steady(&mut testbed(40.0, 10, 1), 8).processing_s;
    assert!(p20 > p6 && p40 > p20, "monotone: {p6} {p20} {p40}");
    // Sub-linear: slope well below 1 (paper Fig 2a: ≈ 0.3–0.4).
    let slope = (p40 - p6) / 34.0;
    assert!(slope < 0.55, "slope {slope}");
    assert!(slope > 0.1, "but not flat: {slope}");
}

#[test]
fn fig2_crossover_near_ten_seconds() {
    // Below the crossover: unstable (proc > interval); above: stable.
    let p6 = steady(&mut testbed(6.0, 10, 2), 8).processing_s;
    assert!(p6 > 6.0, "unstable at 6 s: {p6}");
    let p14 = steady(&mut testbed(14.0, 10, 2), 8).processing_s;
    assert!(p14 < 14.0, "stable at 14 s: {p14}");
    // The crossover sits in [8, 13] — "around 10 seconds".
    let p8 = steady(&mut testbed(8.0, 10, 2), 8).processing_s;
    let p13 = steady(&mut testbed(13.0, 10, 2), 8).processing_s;
    assert!(p8 > 8.0, "{p8}");
    assert!(p13 < 13.0, "{p13}");
}

#[test]
fn fig2b_schedule_delay_explodes_below_crossover_only() {
    let below = steady(&mut testbed(4.0, 10, 3), 10).scheduling_delay_s;
    let above = steady(&mut testbed(16.0, 10, 3), 10).scheduling_delay_s;
    assert!(below > 5.0, "queueing below the crossover: {below}");
    assert!(above < 1.0, "no queueing above: {above}");
}

#[test]
fn fig3a_executor_count_has_a_u_shape() {
    let p4 = steady(&mut testbed(10.0, 4, 4), 12).processing_s;
    let p10 = steady(&mut testbed(10.0, 10, 4), 12).processing_s;
    let p18 = steady(&mut testbed(10.0, 18, 4), 12).processing_s;
    assert!(p4 > p10 && p10 > p18, "falling arm: {p4} {p10} {p18}");
    // Rising arm: far beyond the optimum, management overhead dominates.
    let p36 = steady(&mut testbed(10.0, 36, 4), 12).processing_s;
    assert!(p36 > p18, "rising arm: {p36} vs {p18}");
}

#[test]
fn fig3_stability_from_about_ten_executors() {
    let p6 = steady(&mut testbed(10.0, 6, 5), 8).processing_s;
    assert!(p6 > 10.0, "6 executors unstable: {p6}");
    // The stability frontier sits near 13 executors in this calibration;
    // 14–16 hover at the knife edge (mean ≈ interval, seed-dependent), so
    // probe a configuration with real headroom for the stable arm.
    let p18 = steady(&mut testbed(10.0, 18, 5), 8).processing_s;
    assert!(p18 < 10.0, "18 executors stable: {p18}");
}

#[test]
fn fig5_rates_respect_paper_ranges() {
    use nostop::datagen::rate::{RateProcess, UniformRandomRate};
    use nostop::simcore::{SimRng, SimTime};
    for kind in WorkloadKind::ALL {
        let (lo, hi) = kind.paper_rate_range();
        let mut r = UniformRandomRate::new(lo, hi, 30.0, SimRng::seed_from_u64(6));
        for t in (0..3_600).step_by(7) {
            let rate = r.rate_at(SimTime::from_micros(t * 1_000_000));
            assert!(
                (lo..=hi).contains(&rate),
                "{kind}: rate {rate} outside [{lo}, {hi}]"
            );
        }
    }
}

#[test]
fn batch_time_variability_ordering_matches_section_6_3() {
    // §6.3: WordCount most stable; ML workloads most dynamic. Measure the
    // coefficient of variation of processing time at a fixed stable
    // configuration per workload.
    let cv = |kind: WorkloadKind| {
        let (lo, hi) = kind.paper_rate_range();
        let rate = (lo + hi) / 2.0;
        let mut sys = SimSystem::new(StreamingEngine::new(
            EngineParams::paper(kind, 7),
            StreamConfig::new(SimDuration::from_secs(20), 18),
            Box::new(ConstantRate::new(rate)),
        ));
        for _ in 0..2 {
            sys.next_batch();
        }
        let procs: Vec<f64> = (0..30).map(|_| sys.next_batch().processing_s).collect();
        let s = summarize(&procs);
        s.std_dev / s.mean
    };
    let wc = cv(WorkloadKind::WordCount);
    let lr = cv(WorkloadKind::LogisticRegression);
    let pa = cv(WorkloadKind::PageAnalyze);
    assert!(wc < lr, "wordcount steadier than LR: {wc} vs {lr}");
    assert!(pa < lr, "log analyze steadier than LR: {pa} vs {lr}");
}

#[test]
fn cost_model_estimates_agree_with_simulation_order_of_magnitude() {
    // The closed-form estimate and the DES must tell the same story (the
    // estimate ignores noise, heterogeneity, and stragglers, so agreement
    // within ~35% is the contract).
    let m = CostModel::preset(WorkloadKind::LogisticRegression);
    let est = m.estimate_processing_secs(100_000, 10, 50);
    let sim = steady(&mut testbed(10.0, 10, 8), 12).processing_s;
    let ratio = sim / est;
    assert!((0.65..1.35).contains(&ratio), "sim {sim} vs estimate {est}");
}
