//! Fig. 7 — performance improvement over the default configuration.
//!
//! Protocol (§6.3): for each workload, run the NoStop-managed system five
//! times (different seeds) and measure the end-to-end delay of its
//! *converged* phases — the batches observed while the controller is
//! parked at the optimum it found (NoStop keeps monitoring and re-adapts
//! when the rate moves, so this is the system's steady state under
//! management). Compared against running the default configuration (the
//! middle of the ranges: 20.5 s interval, 10 executors). Reports
//! mean ± std over the five runs. Expected shape: NoStop significantly
//! lower for all four workloads.
//!
//! Each `(workload, seed)` pair is an independent cell; the runs fan out
//! over the [`nostop_bench::parallel`] fabric (`NOSTOP_JOBS` workers) and
//! the report is identical for any worker count.

use nostop_bench::driver::{make_system, managed_delay, measure_config, paper_rate};
use nostop_bench::parallel::{grid, map_cells};
use nostop_bench::report::{f, pm, print_section, Table};
use nostop_simcore::stats::summarize;
use nostop_workloads::WorkloadKind;

const SEEDS: [u64; 5] = [11, 22, 33, 44, 55];
const MEASURE_BATCHES: usize = 12;
const DEFAULT: [f64; 2] = [20.5, 10.0];

/// One `(workload, seed)` cell: the default arm's mean end-to-end delay
/// and the NoStop-managed arm's converged mean.
fn run_cell(kind: WorkloadKind, seed: u64) -> (f64, f64) {
    // Default arm: fresh system, static configuration.
    let mut sys = make_system(kind, seed, paper_rate(kind, seed ^ 0xDEF));
    let default_delay = measure_config(&mut sys, &DEFAULT, MEASURE_BATCHES, 15)
        .end_to_end
        .mean;

    // NoStop arm: the *managed* system — the controller keeps running,
    // exactly what the paper deploys. The measured delay is the mean over
    // the converged (paused) rounds, or the best configuration on a fresh
    // system when the run never settles.
    let (nostop_delay, _) = managed_delay(kind, seed, paper_rate(kind, seed ^ 0x5EED));
    (default_delay, nostop_delay)
}

fn main() {
    let cells = grid(&WorkloadKind::ALL, &SEEDS);
    let results = map_cells(&cells, |&(kind, seed)| run_cell(kind, seed));

    let mut table = Table::new(&["workload", "default e2e_s", "nostop e2e_s", "improvement %"]);
    for (w, kind) in WorkloadKind::ALL.iter().enumerate() {
        let per_seed = &results[w * SEEDS.len()..(w + 1) * SEEDS.len()];
        let default_delays: Vec<f64> = per_seed.iter().map(|&(d, _)| d).collect();
        let nostop_delays: Vec<f64> = per_seed.iter().map(|&(_, n)| n).collect();
        let d = summarize(&default_delays);
        let n = summarize(&nostop_delays);
        let improvement = (d.mean - n.mean) / d.mean * 100.0;
        table.row(&[
            kind.name().to_string(),
            pm(d.mean, d.std_dev, 1),
            pm(n.mean, n.std_dev, 1),
            f(improvement, 1),
        ]);
    }
    print_section(
        "Fig 7: end-to-end delay, default configuration vs NoStop \
         (5 runs each, mean ± std)",
        &table,
    );
}
