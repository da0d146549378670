//! Ablation — speculative execution on the heterogeneous cluster.
//!
//! The paper claims NoStop "tackles hardware heterogeneity in a
//! transparent manner" (§1): the controller never sees node speeds, it
//! just measures batch times. This ablation measures how the *substrate*
//! handles heterogeneity underneath: each row runs WordCount at a fixed
//! `(interval, executors)` configuration with Spark's speculative
//! execution off and on (straggler tasks on the slow Xeon node re-run on
//! faster idle executors) and reports both mean processing times and the
//! share speculation saves.
//!
//! Each `(interval, executors)` row is an independent cell, measuring
//! its no-speculation and with-speculation arms back to back.

use nostop_bench::driver::steady_window;
use nostop_bench::report::{f, print_section, Table};
use nostop_core::system::Measurement;
use nostop_workloads::WorkloadKind;
use spark_sim::scheduler::Speculation;
use spark_sim::EngineParams;

fn mean_proc(speculation: Option<Speculation>, interval_s: f64, executors: u32) -> f64 {
    let mut params = EngineParams::paper(WorkloadKind::WordCount, 7);
    params.speculation = speculation;
    Measurement::from_window(&steady_window(
        params, interval_s, executors, 150_000.0, 2, 10,
    ))
    .processing_s
}

fn main() {
    // The interval sets the tasks per stage (one per 200 ms block):
    // 15 and 20 tasks on as many executors run each stage in one wave;
    // 50 and 100 tasks on 20 executors run it in several.
    const ROWS: [(f64, u32); 4] = [(3.0, 15), (4.0, 20), (10.0, 20), (20.0, 20)];
    let results: Vec<_> = ROWS
        .iter()
        .map(|&(interval, executors)| {
            (
                mean_proc(None, interval, executors),
                mean_proc(Some(Speculation::default()), interval, executors),
            )
        })
        .collect();

    let mut table = Table::new(&[
        "interval_s (tasks)",
        "executors",
        "proc_s no speculation",
        "proc_s with speculation",
        "saved %",
    ]);
    for (&(interval, executors), &(without, with)) in ROWS.iter().zip(&results) {
        table.row(&[
            format!("{interval} ({})", (interval / 0.2) as u32),
            executors.to_string(),
            f(without, 2),
            f(with, 2),
            f((without - with) / without * 100.0, 1),
        ]);
    }
    print_section(
        "Ablation: speculative execution on the Table-2 heterogeneous cluster \
         (WordCount, 150k rec/s)",
        &table,
    );
}
