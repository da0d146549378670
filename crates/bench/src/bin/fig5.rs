//! Fig. 5 — the varying input-rate traces driving each workload.
//!
//! The generator draws a rate uniformly from the workload's range and
//! holds it for 30 s before redrawing (§6.2.2). This binary is a thin
//! wrapper over the committed `scenarios/fig5-*.json` corpus entries: the
//! experiment definition (workload, rate process, rate seed, horizon)
//! lives in the scenario files and is replayed through
//! [`nostop_bench::scenario`]; only the Fig-5 presentation — per-workload
//! CSV trace plus the summary table — remains here.

use nostop_bench::report::{f, print_section, Table};
use nostop_bench::scenario::{corpus_entry, sample_rate};
use nostop_simcore::stats::summarize;
use nostop_workloads::WorkloadKind;

const SAMPLE_EVERY_S: u64 = 10;

fn main() {
    let mut summary = Table::new(&[
        "workload",
        "range (rec/s)",
        "observed min",
        "observed max",
        "observed mean",
    ]);
    for kind in WorkloadKind::ALL {
        let spec =
            corpus_entry(&format!("fig5-{}", kind.name()), kind).unwrap_or_else(|e| panic!("{e}"));
        let samples = sample_rate(&spec, SAMPLE_EVERY_S);
        let s = summarize(&samples.iter().map(|&(_, rate)| rate).collect::<Vec<_>>());
        let (lo, hi) = kind.paper_rate_range();
        summary.row(&[
            kind.name().to_string(),
            format!("[{lo}, {hi}]"),
            f(s.min, 0),
            f(s.max, 0),
            f(s.mean, 0),
        ]);
        println!("--- {} trace (t_s, rate) ---", kind.name());
        println!("x,{}", kind.name());
        for (t, rate) in &samples {
            println!("{t},{rate}");
        }
        println!();
    }
    print_section("Fig 5: input-rate variation per workload (600 s)", &summary);
}
