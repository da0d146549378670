//! Fig. 2 — effect of batch interval on streaming logistic regression.
//!
//! Paper setup (§3.2): streaming LR on the ten-node local testbed, fixed
//! executors, batch interval swept. Expected shape: (a) batch processing
//! time grows *slowly* (sub-linearly) with the interval and crosses the
//! `y = interval` stability line near 10 s; (b) batch schedule delay is
//! large below the crossover and ≈ 0 above it.

use nostop_bench::driver::steady_window;
use nostop_bench::report::{f, print_section, Table};
use nostop_core::system::Measurement;
use nostop_workloads::WorkloadKind;
use spark_sim::EngineParams;

const EXECUTORS: u32 = 10;
const RATE: f64 = 10_000.0; // records/s, mid LR range
const BATCHES: usize = 8;

fn measure(interval_s: f64, seed: u64) -> (f64, f64) {
    let params = EngineParams::testbed(WorkloadKind::LogisticRegression, seed);
    let m = Measurement::from_window(&steady_window(
        params, interval_s, EXECUTORS, RATE, 3, BATCHES,
    ));
    (m.processing_s, m.scheduling_delay_s)
}

fn main() {
    let mut table = Table::new(&[
        "interval_s",
        "processing_s (2a)",
        "schedule_delay_s (2b)",
        "stable",
    ]);
    let mut crossover = None;
    for interval in [
        2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 18.0, 22.0, 26.0, 30.0, 35.0, 40.0,
    ] {
        let (proc, sched) = measure(interval, 42);
        let stable = proc <= interval;
        if stable && crossover.is_none() {
            crossover = Some(interval);
        }
        table.row(&[f(interval, 1), f(proc, 2), f(sched, 2), stable.to_string()]);
    }
    print_section(
        "Fig 2: batch interval vs processing time & schedule delay \
         (streaming LR, 10-node testbed, 10 executors, 10k rec/s)",
        &table,
    );
    match crossover {
        Some(c) => println!(
            "stability crossover at interval ≈ {c} s (paper: ≈ 10 s); \
             schedule delay collapses above it"
        ),
        None => println!("WARNING: no stable interval found — calibration drifted"),
    }
}
