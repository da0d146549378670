//! NoStop vs Spark Back Pressure vs static default (abstract comparator).
//!
//! Back pressure cannot change batch interval or executors — it throttles
//! ingestion to whatever the (mis)configured system can digest. That keeps
//! the pipeline stable but *silently drops freshness*: records pile up at
//! the source. NoStop instead reconfigures the system to absorb the load.
//! This binary runs all three on logistic regression under the paper's
//! varying rate and reports delay *and* the freshness cost (source lag).
//! The NoStop row goes through [`managed_delay`], as fig7's does, and
//! states on how many seeds the controller settled.
//!
//! Each seed is an independent cell; the three arms share a cell so
//! their per-seed numbers stay paired.

use nostop_bench::driver::{
    make_system, managed_delay, measure_config, paper_rate, run_backpressure,
};
use nostop_bench::report::{f, pm, print_section, Table};
use nostop_bench::scenario::STATIC_CONFIG;
use nostop_simcore::stats::summarize;
use nostop_workloads::WorkloadKind;

const SEEDS: [u64; 5] = [7, 17, 27, 37, 47];
const KIND: WorkloadKind = WorkloadKind::LogisticRegression;
/// A mildly undersized fixed configuration: stable only if throttled.
const FIXED: [f64; 2] = [8.0, 8.0];

/// One seed's numbers: `(static, bp delay, bp lag, bp limit, nostop,
/// nostop settled)`.
fn run_cell(seed: u64) -> (f64, f64, f64, f64, f64, bool) {
    // Static default.
    let mut sys = make_system(KIND, seed, paper_rate(KIND, seed ^ 0xAB));
    let static_delay = measure_config(&mut sys, &STATIC_CONFIG, 12).end_to_end_s;

    // Back pressure on the undersized fixed configuration.
    let bp = run_backpressure(KIND, seed, &FIXED, 20, paper_rate(KIND, seed ^ 0xAB));
    let bp_delay = bp.stats.end_to_end_s;
    let bp_lag = bp.broker_lag as f64;
    let bp_limit = bp.final_rate_limit.unwrap_or(0.0);

    // NoStop-managed system: steady-state converged delay.
    let (ns_delay, settled) = managed_delay(KIND, seed, paper_rate(KIND, seed ^ 0xAB));
    (static_delay, bp_delay, bp_lag, bp_limit, ns_delay, settled)
}

fn main() {
    let results: Vec<_> = SEEDS.iter().map(|&seed| run_cell(seed)).collect();

    let delays_static: Vec<f64> = results.iter().map(|r| r.0).collect();
    let delays_bp: Vec<f64> = results.iter().map(|r| r.1).collect();
    let lag_bp: Vec<f64> = results.iter().map(|r| r.2).collect();
    let limits_bp: Vec<f64> = results.iter().map(|r| r.3).collect();
    let delays_ns: Vec<f64> = results.iter().map(|r| r.4).collect();
    let settled = results.iter().filter(|r| r.5).count();

    let st = summarize(&delays_static);
    let bp = summarize(&delays_bp);
    let ns = summarize(&delays_ns);
    let lag = summarize(&lag_bp);
    let lim = summarize(&limits_bp);

    let mut table = Table::new(&["method", "e2e delay_s", "source lag (records)", "notes"]);
    table.row(&[
        "static default (20.5s, 10ex)".into(),
        pm(st.mean, st.std_dev, 1),
        "0".into(),
        "stable but oversized interval".into(),
    ]);
    table.row(&[
        "back pressure (8s, 8ex fixed)".into(),
        pm(bp.mean, bp.std_dev, 1),
        pm(lag.mean, lag.std_dev, 0),
        format!("ingest throttled to ~{} rec/s", f(lim.mean, 0)),
    ]);
    table.row(&[
        "nostop (managed)".into(),
        pm(ns.mean, ns.std_dev, 1),
        "0".into(),
        format!(
            "reconfigures instead of throttling; settled on {settled} of {} seeds",
            SEEDS.len()
        ),
    ]);
    print_section(
        "NoStop vs Spark Back Pressure vs static default \
         (logistic regression, varying rate, 5 seeds)",
        &table,
    );
}
