//! Ablation — gain-sequence choices (§5.6).
//!
//! The paper's guidelines: `A` ≈ 10% of expected iterations (they use 1),
//! `a` ≈ half the scaled configuration range (they use 10), `c` ≈ the
//! std-dev of objective measurements (they use 2). This sweep varies `a`
//! and `c` around those values and reports, per pair, how many runs
//! converge, in which round on average, and the tail delay.
//!
//! Each `((a, c), seed)` pair is an independent cell, run in grid order.

use nostop_bench::driver::{make_system, nostop_config, paper_rate};
use nostop_bench::report::{f, grid, mean_or_nan, print_section, Table};
use nostop_core::controller::NoStop;
use nostop_simcore::stats::summarize;
use nostop_workloads::WorkloadKind;

const KIND: WorkloadKind = WorkloadKind::LogisticRegression;
const SEEDS: [u64; 3] = [5, 15, 25];
const ROUNDS: u64 = 40;

const SETTINGS: [(f64, f64); 5] = [
    (10.0, 2.0), // paper setting
    (2.0, 2.0),  // timid steps
    (40.0, 2.0), // wild steps
    (10.0, 0.3), // perturbation below noise
    (10.0, 6.0), // huge perturbation
];

fn run_with(a: f64, c: f64, seed: u64) -> (Option<u64>, f64) {
    let mut cfg = nostop_config(KIND);
    cfg.gains.a = a;
    cfg.gains.c = c;
    let mut sys = make_system(KIND, seed, paper_rate(KIND, seed ^ 0x6A1));
    let mut ns = NoStop::new(cfg, seed);
    ns.run(&mut sys, ROUNDS);
    let converged = ns.trace().first_pause().map(|r| r.round);
    // Mean intrinsic-style delay over the last 10 recorded delays.
    let delays: Vec<f64> = ns.trace().delay_series().iter().map(|&(_, d)| d).collect();
    let tail: Vec<f64> = delays.iter().rev().take(10).copied().collect();
    (converged, mean_or_nan(&tail))
}

fn main() {
    let cells = grid(&SETTINGS, &SEEDS);
    let results: Vec<_> = cells
        .iter()
        .map(|&((a, c), seed)| run_with(a, c, seed))
        .collect();

    let mut table = Table::new(&[
        "a",
        "c",
        "converged runs",
        "mean converge round",
        "tail delay_s (mean over seeds)",
    ]);
    for (s, &(a, c)) in SETTINGS.iter().enumerate() {
        let per_seed = &results[s * SEEDS.len()..(s + 1) * SEEDS.len()];
        let mut converge_rounds = Vec::new();
        let mut tails = Vec::new();
        let mut converged_count = 0;
        for &(conv, tail) in per_seed {
            if let Some(r) = conv {
                converged_count += 1;
                converge_rounds.push(r as f64);
            }
            if tail.is_finite() {
                tails.push(tail);
            }
        }
        let cr = summarize(&converge_rounds);
        let td = summarize(&tails);
        table.row(&[
            f(a, 1),
            f(c, 1),
            format!("{converged_count}/{}", SEEDS.len()),
            if converge_rounds.is_empty() {
                "-".into()
            } else {
                f(cr.mean, 1)
            },
            f(td.mean, 1),
        ]);
    }
    print_section(
        "Ablation §5.6: gain-sequence choices (logistic regression, 40 rounds, 3 seeds)",
        &table,
    );
}
