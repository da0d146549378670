//! The fabric's byte-identity contract, end to end.
//!
//! Runs a reduced fig7-shaped experiment grid — real engines, real
//! controller, real measurement protocol, rendered to a report string —
//! once with `NOSTOP_JOBS=1` (plain serial loop, no threads) and once
//! with `NOSTOP_JOBS=8` (worker pool racing over the cells), and demands
//! the two rendered reports be byte-identical.
//!
//! This file holds exactly one test: it mutates `NOSTOP_JOBS`, which is
//! process-global state, and integration-test binaries are the only place
//! that is safe to do without racing sibling tests.

use nostop_bench::driver::{make_system, measure_config, paper_rate, run_nostop};
use nostop_bench::parallel::{grid, map_cells};
use nostop_bench::scenario::STATIC_CONFIG;
use nostop_workloads::WorkloadKind;
use std::fmt::Write as _;

const SEEDS: [u64; 2] = [11, 22];

/// A miniature fig7 cell: default-configuration measurement plus a short
/// managed run, rendered with full float precision so any divergence —
/// even in the last ulp — breaks the byte comparison.
fn run_cell(kind: WorkloadKind, seed: u64) -> String {
    let mut sys = make_system(kind, seed, paper_rate(kind, seed ^ 0xDEF));
    let m = measure_config(&mut sys, &STATIC_CONFIG, 4);
    let run = run_nostop(kind, seed, 6);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{},{seed},{m:?},{:?},{}",
        kind.name(),
        run.virtual_time_s,
        run.controller.config_changes(),
    );
    out
}

fn render_report(jobs: usize) -> String {
    std::env::set_var("NOSTOP_JOBS", jobs.to_string());
    let cells = grid(&WorkloadKind::ALL, &SEEDS);
    map_cells(&cells, |&(kind, seed)| run_cell(kind, seed)).concat()
}

#[test]
fn serial_and_parallel_reports_are_byte_identical() {
    let serial = render_report(1);
    let parallel = render_report(8);
    assert_eq!(
        serial.lines().count(),
        WorkloadKind::ALL.len() * SEEDS.len(),
        "sanity: every cell rendered one line"
    );
    assert!(
        serial == parallel,
        "fabric broke byte-identity:\nserial:\n{serial}\nparallel:\n{parallel}"
    );
}
