//! Fig. 3 — effect of executor count on streaming logistic regression.
//!
//! Paper setup (§3.2): fixed batch interval, executor count swept.
//! Expected shape: processing time falls steeply as executors are added
//! (parallelism), bottoms out, and *rises* again once per-executor
//! management overhead dominates; the system is stable from ~10 executors
//! and the end-to-end delay is minimized around 20 (paper: "when the
//! number of executors is around 20 … the smallest end-to-end delay").

use nostop_bench::driver::steady_window;
use nostop_bench::report::{f, print_section, Table};
use nostop_core::system::Measurement;
use nostop_workloads::WorkloadKind;
use spark_sim::EngineParams;

const INTERVAL_S: f64 = 10.0;
const RATE: f64 = 10_000.0;
const BATCHES: usize = 16;

fn measure(executors: u32, seed: u64) -> (f64, f64, f64) {
    let params = EngineParams::testbed(WorkloadKind::LogisticRegression, seed);
    let m = Measurement::from_window(&steady_window(
        params, INTERVAL_S, executors, RATE, 3, BATCHES,
    ));
    (m.processing_s, m.scheduling_delay_s, m.end_to_end_s)
}

fn main() {
    let mut table = Table::new(&[
        "executors",
        "processing_s (3a)",
        "schedule_delay_s (3b)",
        "end_to_end_s",
        "stable",
    ]);
    let mut best: Option<(u32, f64)> = None;
    for executors in [2u32, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24] {
        let (proc, sched, e2e) = measure(executors, 42);
        let stable = proc <= INTERVAL_S;
        if stable {
            let better = best.map(|(_, d)| e2e < d).unwrap_or(true);
            if better {
                best = Some((executors, e2e));
            }
        }
        table.row(&[
            executors.to_string(),
            f(proc, 2),
            f(sched, 2),
            f(e2e, 2),
            stable.to_string(),
        ]);
    }
    print_section(
        "Fig 3: executor count vs processing time & schedule delay \
         (streaming LR, 10-node testbed, 10 s interval, 10k rec/s)",
        &table,
    );
    match best {
        Some((e, d)) => println!(
            "minimum stable end-to-end delay at {e} executors ({d:.2} s) \
             (paper: around 20 executors)"
        ),
        None => println!("WARNING: no stable executor count — calibration drifted"),
    }
}
