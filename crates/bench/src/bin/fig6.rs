//! Fig. 6 — the optimization evolution for the four workloads.
//!
//! One NoStop run per workload under the paper's varying input rate;
//! prints the per-round end-to-end delay and batch-interval series (the
//! two curves of each Fig. 6 panel). Expected shapes: the batch interval
//! descends from the 20.5 s default toward the stability frontier and
//! flattens once the pause rule fires; the ML workloads' traces are the
//! most dynamic (their per-batch iteration counts vary), WordCount's the
//! most stable.
//!
//! This binary is a thin wrapper over the committed `scenarios/fig6-*.json`
//! corpus entries: the experiment definition (workload, seed, round
//! budget, rate process) lives in the scenario files and the system is
//! built through [`nostop_bench::scenario`]; only the Fig-6 presentation
//! remains here.
//!
//! The four workload runs are independent cells; each renders its
//! evolution block to a string and returns it with its summary row.

use nostop_bench::driver::nostop_config;
use nostop_bench::report::{f, print_section, Table};
use nostop_bench::scenario::{build_system, corpus_entry};
use nostop_core::controller::NoStop;
use nostop_workloads::WorkloadKind;
use std::fmt::Write as _;

/// One workload cell: the rendered evolution block plus the summary row.
fn run_cell(kind: WorkloadKind) -> (String, Vec<String>) {
    let spec =
        corpus_entry(&format!("fig6-{}", kind.name()), kind).unwrap_or_else(|e| panic!("{e}"));
    let rounds = spec.rounds.expect("fig6 scenarios declare a round budget");

    let mut sys = build_system(&spec).unwrap_or_else(|e| panic!("{e}"));
    let mut controller = NoStop::new(nostop_config(kind), spec.seed);
    controller.run(&mut sys, rounds);
    let trace = controller.trace();

    let mut block = String::new();
    let _ = writeln!(
        block,
        "--- {} evolution (round, delay_s, interval_s) ---",
        kind.name()
    );
    let delays = trace.delay_series();
    let intervals = trace.interval_series();
    let _ = writeln!(block, "round,delay_s,interval_s");
    for (round, interval) in &intervals {
        let delay = delays
            .iter()
            .find(|(r, _)| r == round)
            .map(|(_, d)| format!("{d:.2}"))
            .unwrap_or_default();
        let _ = writeln!(block, "{round},{delay},{:.1}", interval);
    }

    let phys = controller.current_physical();
    let best = controller
        .best_config()
        .map(|(_, d)| f(d, 2))
        .unwrap_or_else(|| "-".into());
    let converged = trace
        .first_pause()
        .map(|r| r.round.to_string())
        .unwrap_or_else(|| "-".into());
    let row = vec![
        kind.name().to_string(),
        rounds.to_string(),
        trace.resets().to_string(),
        f(phys[0], 1),
        f(phys[1], 0),
        best,
        converged,
    ];
    (block, row)
}

fn main() {
    let results: Vec<_> = WorkloadKind::ALL
        .iter()
        .map(|&kind| run_cell(kind))
        .collect();

    let mut summary = Table::new(&[
        "workload",
        "rounds",
        "resets",
        "final interval_s",
        "final executors",
        "best intrinsic delay_s",
        "converged@round",
    ]);
    for (block, row) in &results {
        println!("{block}");
        summary.row(row);
    }
    print_section("Fig 6: optimization evolution summary (seed 42)", &summary);
}
