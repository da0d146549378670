//! Ablation — the ρ penalty ramp and cap (§4.2.2).
//!
//! The paper ramps ρ from 1 to 2 by 0.1/iteration: a small early ρ keeps
//! the first (large-gain) steps from overshooting; the later cap keeps the
//! stability penalty from drowning the interval-minimization goal. This
//! sweep compares: no penalty at all (constraint ignored), fixed large ρ
//! from the start, the paper's ramp, and an enormous cap.
//!
//! Each `(schedule, seed)` pair is an independent cell; per-seed tallies
//! are read back in grid order.

use nostop_bench::driver::{make_system, nostop_config, paper_rate};
use nostop_bench::report::{f, grid, mean_or_nan, print_section, Table};
use nostop_core::controller::NoStop;
use nostop_core::objective::PenaltySchedule;
use nostop_workloads::WorkloadKind;

const KIND: WorkloadKind = WorkloadKind::LogisticRegression;
const SEEDS: [u64; 3] = [9, 19, 29];
const ROUNDS: u64 = 40;

/// One `(schedule, seed)` run's tallies: stable measurements, total
/// measurements, the tail intervals, and whether the run converged.
struct CellOutcome {
    stable: usize,
    total: usize,
    intervals: Vec<f64>,
    converged: bool,
}

fn run_cell(penalty: PenaltySchedule, seed: u64) -> CellOutcome {
    let mut cfg = nostop_config(KIND);
    cfg.penalty = penalty;
    let mut sys = make_system(KIND, seed, paper_rate(KIND, seed ^ 0xABA));
    let mut ns = NoStop::new(cfg, seed);
    ns.run(&mut sys, ROUNDS);
    let converged = ns.trace().first_pause().is_some();
    // Judge the tail iterates: were the measured configs stable, and how
    // small an interval was achieved?
    let mut stable = 0usize;
    let mut total = 0usize;
    let mut intervals = Vec::new();
    for r in ns.trace().rounds.iter().rev().take(10) {
        let before = total;
        for m in r.measurements() {
            total += 1;
            stable += usize::from(m.is_stable());
        }
        if total > before {
            intervals.push(r.theta_physical[0]);
        }
    }
    CellOutcome {
        stable,
        total,
        intervals,
        converged,
    }
}

fn main() {
    let variants: [(&str, PenaltySchedule); 4] = [
        (
            "none (rho=0.01 fixed)",
            PenaltySchedule::new(0.01, 0.0, 0.01),
        ),
        ("paper ramp 1->2 by 0.1", PenaltySchedule::paper_default()),
        (
            "fixed rho=2 from start",
            PenaltySchedule::new(2.0, 0.0, 2.0),
        ),
        ("huge cap 1->10", PenaltySchedule::new(1.0, 0.5, 10.0)),
    ];
    let schedules: Vec<PenaltySchedule> = variants.iter().map(|&(_, p)| p).collect();
    let cells = grid(&schedules, &SEEDS);
    let results: Vec<_> = cells.iter().map(|&(p, seed)| run_cell(p, seed)).collect();

    let mut table = Table::new(&[
        "penalty",
        "tail stable frac",
        "tail mean interval_s",
        "converged runs",
    ]);
    for (v, &(name, _)) in variants.iter().enumerate() {
        let per_seed = &results[v * SEEDS.len()..(v + 1) * SEEDS.len()];
        let stable: usize = per_seed.iter().map(|o| o.stable).sum();
        let total: usize = per_seed.iter().map(|o| o.total).sum();
        let intervals: Vec<f64> = per_seed.iter().flat_map(|o| o.intervals.clone()).collect();
        let converged = per_seed.iter().filter(|o| o.converged).count();
        let stable_frac = if total == 0 {
            0.0
        } else {
            stable as f64 / total as f64
        };
        table.row(&[
            name.to_string(),
            f(stable_frac, 2),
            f(mean_or_nan(&intervals), 1),
            format!("{}/{}", converged, SEEDS.len()),
        ]);
    }
    print_section(
        "Ablation §4.2.2: penalty schedule (logistic regression, 40 rounds, 3 seeds)",
        &table,
    );
    println!(
        "no penalty drives the interval down through the stability \
         constraint; the paper's capped ramp balances stability against \
         interval minimization"
    );
}
