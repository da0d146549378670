//! Head-to-head: NoStop (SPSA) vs Bayesian optimization vs random search
//! vs the static default, on WordCount under the paper's varying rate.
//!
//! A compact version of the Fig-7/Fig-8 experiments: every method tunes
//! the same simulated cluster through `nostop::core::measure` (NoStop
//! under its `Adjust` protocol, the tuners under `Tuner`), and the final
//! configurations are re-measured on a fresh system for a fair
//! scoreboard.
//!
//! Run with: `cargo run --release --example compare_optimizers`

use nostop::baselines::{BayesOpt, RandomSearch, Tuner};
use nostop::core::controller::{NoStop, NoStopConfig};
use nostop::core::measure::{measure, Protocol};
use nostop::core::objective::{ranking_objective, RHO_CAP};
use nostop::core::space::ConfigSpace;
use nostop::core::system::{Measurement, StreamingSystem};
use nostop::datagen::rate::UniformRandomRate;
use nostop::sim::{EngineParams, SimSystem, StreamConfig, StreamingEngine};
use nostop::simcore::SimRng;
use nostop::workloads::WorkloadKind;

const WORKLOAD: WorkloadKind = WorkloadKind::WordCount;
const BUDGET_ITERS: usize = 30;

fn fresh_system(seed: u64) -> SimSystem {
    let (lo, hi) = WORKLOAD.paper_rate_range();
    SimSystem::new(StreamingEngine::new(
        EngineParams::paper(WORKLOAD, seed),
        StreamConfig::paper_initial(),
        Box::new(UniformRandomRate::new(
            lo,
            hi,
            30.0,
            SimRng::seed_from_u64(seed ^ 0xFF),
        )),
    ))
}

/// Measure a configuration: settle, then average six batches.
fn score(sys: &mut SimSystem, config: &[f64]) -> Measurement {
    Measurement::from_window(&measure(sys, config, 6, Protocol::Tuner, |_| {}))
}

fn drive_tuner(tuner: &mut dyn Tuner, seed: u64) -> (Vec<f64>, f64) {
    let mut sys = fresh_system(seed);
    for _ in 0..BUDGET_ITERS {
        let proposal = tuner.propose();
        let proc = score(&mut sys, &proposal).processing_s;
        // The shared objective: Eq. 3 at the rho cap with headroom.
        tuner.observe(&proposal, ranking_objective(proposal[0], proc, RHO_CAP));
    }
    let (best, _) = tuner.best().expect("the tuner observed every proposal");
    (best, sys.now_s())
}

fn main() {
    println!(
        "tuning {} (rate {:?} rec/s), budget ≈ {BUDGET_ITERS} measurements each\n",
        WORKLOAD,
        WORKLOAD.paper_rate_range()
    );
    let mut results: Vec<(String, Vec<f64>, f64)> = Vec::new();

    // NoStop: 15 rounds = 30 measurements.
    let mut sys = fresh_system(1);
    let (lo, hi) = WORKLOAD.paper_rate_range();
    let mut ns = NoStop::new(NoStopConfig::paper_default().with_rate_range(lo, hi), 1);
    ns.run(&mut sys, BUDGET_ITERS as u64 / 2);
    let best = ns
        .best_config()
        .map(|(c, _)| c)
        .unwrap_or_else(|| ns.current_physical());
    results.push(("nostop (spsa)".into(), best, sys.now_s()));

    // Bayesian optimization.
    let mut bo = BayesOpt::new(ConfigSpace::paper_default(), 2);
    let (best, t) = drive_tuner(&mut bo, 2);
    results.push(("bayesian opt".into(), best, t));

    // Random search.
    let mut rs = RandomSearch::new(ConfigSpace::paper_default(), 3);
    let (best, t) = drive_tuner(&mut rs, 3);
    results.push(("random search".into(), best, t));

    // Static default: no tuning at all.
    let default = StreamConfig::paper_initial().to_physical();
    results.push(("static default".into(), default, 0.0));

    println!(
        "{:<16}{:>10}{:>11}{:>12}{:>13}{:>14}",
        "method", "interval", "executors", "e2e delay", "stable?", "search time"
    );
    for (name, config, search_time) in results {
        // Fair final exam: fresh system, same seed for everyone.
        let mut exam = fresh_system(99);
        let m = score(&mut exam, &config);
        let stable = if m.processing_s <= config[0] {
            "yes"
        } else {
            "no"
        };
        println!(
            "{name:<16}{:>9.1}s{:>11.0}{:>11.1}s{:>13}{:>13.0}s",
            config[0], config[1], m.end_to_end_s, stable, search_time
        );
    }
    println!("\n(the static default is always 'stable' — by wasting interval)");
}
