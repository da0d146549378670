//! Fig. 8 — SPSA (NoStop) vs Bayesian optimization.
//!
//! Protocol (§6.4): repeat each method five times per workload; compare
//! the final optimization result (the best configuration's measured
//! delay), the search time (virtual seconds until convergence), and the
//! configuration steps taken. Expected shape: comparable final delays,
//! with SPSA needing *fewer steps and less search time* — the paper's
//! run-time-efficiency claim.
//!
//! Each `(workload, seed)` pair runs both methods in one independent
//! cell; per-cell numbers are read back in grid order.

use nostop_baselines::BayesOpt;
use nostop_bench::driver::{
    make_system, measure_config, nostop_config, paper_rate, run_nostop, run_tuner,
};
use nostop_bench::report::{grid, pm, print_section, Table};
use nostop_bench::scenario::STATIC_CONFIG;
use nostop_core::trace::RoundKind;
use nostop_simcore::stats::summarize;
use nostop_workloads::WorkloadKind;

const SEEDS: [u64; 5] = [101, 202, 303, 404, 505];
const NOSTOP_ROUNDS: u64 = 30;
const BO_ITERATIONS: usize = 45;
const MEASURE_BATCHES: usize = 10;

/// Per-cell numbers for one method: `(final_delay, search_time, steps)`.
type MethodCell = (f64, f64, f64);

fn evaluate_best(kind: WorkloadKind, seed: u64, best: &[f64]) -> f64 {
    let mut sys = make_system(kind, seed, paper_rate(kind, seed ^ 0xF16));
    measure_config(&mut sys, best, MEASURE_BATCHES).end_to_end_s
}

/// One `(workload, seed)` cell: run NoStop/SPSA and BO back to back.
fn run_cell(kind: WorkloadKind, seed: u64) -> (MethodCell, MethodCell) {
    // --- NoStop / SPSA ---
    let run = run_nostop(kind, seed, NOSTOP_ROUNDS);
    let best = run
        .controller
        .best_config()
        .map(|(p, _)| p)
        .unwrap_or_else(|| run.controller.current_physical());
    let spsa_delay = evaluate_best(kind, seed, &best);
    // Search time: until the controller first paused. Steps to
    // convergence: two reconfigurations per optimization round before
    // the first pause, plus the parking change. A run that never paused
    // counts in full.
    let trace = run.controller.trace();
    let (spsa_time, spsa_steps) = match trace.first_pause() {
        Some(pause) => {
            let searched = trace
                .rounds
                .iter()
                .take_while(|r| !r.paused_after)
                .filter(|r| matches!(r.kind, RoundKind::Optimized { .. }))
                .count();
            (pause.t_s, (searched * 2 + 1) as f64)
        }
        None => (run.virtual_time_s, run.controller.config_changes() as f64),
    };

    // --- Bayesian optimization ---
    let mut sys = make_system(kind, seed, paper_rate(kind, seed ^ 0x0B0));
    let mut tuner = BayesOpt::new(nostop_config(kind).space, seed);
    let bo_run = run_tuner(&mut tuner, &mut sys, BO_ITERATIONS);
    let bo_best = bo_run
        .best
        .map(|(p, _)| p)
        .unwrap_or_else(|| STATIC_CONFIG.to_vec());
    let bo_delay = evaluate_best(kind, seed, &bo_best);
    // BO's convergence point, judged by the *same online stopping rule*
    // NoStop uses: pause when the std-dev of the 10 best objectives falls
    // below 1 s. (A post-hoc "last improvement" criterion would grant BO
    // oracle knowledge.)
    let mut rule = nostop_core::policy::PauseRule::paper_default();
    let mut converged_at: Option<usize> = None;
    for (i, step) in bo_run.history.iter().enumerate() {
        rule.record(step.objective);
        if rule.should_pause() {
            converged_at = Some(i + 1);
            break;
        }
    }
    let steps = converged_at.unwrap_or(bo_run.history.len());
    let bo_time = bo_run
        .history
        .get(steps.saturating_sub(1))
        .map(|s| s.t_s)
        .unwrap_or(bo_run.virtual_time_s);

    (
        (spsa_delay, spsa_time, spsa_steps),
        (bo_delay, bo_time, steps as f64),
    )
}

fn main() {
    let cells = grid(&WorkloadKind::ALL, &SEEDS);
    let results: Vec<_> = cells
        .iter()
        .map(|&(kind, seed)| run_cell(kind, seed))
        .collect();

    let mut table = Table::new(&[
        "workload",
        "method",
        "final e2e_s",
        "search time_s",
        "config steps",
    ]);
    for (w, kind) in WorkloadKind::ALL.iter().enumerate() {
        let per_seed = &results[w * SEEDS.len()..(w + 1) * SEEDS.len()];
        let spsa: Vec<MethodCell> = per_seed.iter().map(|&(s, _)| s).collect();
        let bo: Vec<MethodCell> = per_seed.iter().map(|&(_, b)| b).collect();
        for (name, m) in [("nostop-spsa", &spsa), ("bayesopt", &bo)] {
            let d = summarize(&m.iter().map(|c| c.0).collect::<Vec<_>>());
            let t = summarize(&m.iter().map(|c| c.1).collect::<Vec<_>>());
            let c = summarize(&m.iter().map(|c| c.2).collect::<Vec<_>>());
            table.row(&[
                kind.name().to_string(),
                name.to_string(),
                pm(d.mean, d.std_dev, 1),
                pm(t.mean, t.std_dev, 0),
                pm(c.mean, c.std_dev, 1),
            ]);
        }
    }
    print_section(
        "Fig 8: SPSA vs Bayesian optimization (5 runs each, mean ± std)",
        &table,
    );
    println!(
        "expected shape: comparable final delays; SPSA converges in fewer \
         configuration steps and less search time than BO"
    );
}
