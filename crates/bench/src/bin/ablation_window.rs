//! Ablation — the metric-collection rules (§5.4).
//!
//! Rule 1: discard the first batch after a configuration change (it pays
//! executor jar shipping). This binary measures the bias that rule
//! removes: the processing time of the first post-scale-up batch vs the
//! settled ones, over many reconfigurations.
//!
//! Rule 2: average over a window of batches. The sweep shows measurement
//! noise (std of the window mean) shrinking as the window grows — and why
//! a couple of batches suffice for SPSA while a paused controller benefits
//! from the additively-grown window.
//!
//! Both sweeps run one independent cell per seed.
//!
//! The rule-2 sweep computes every window mean from the *same* per-seed
//! batch stream — the engine is deterministic and batch streams are
//! prefix-stable, so each seed is simulated once at the widest window and
//! every narrower window reads a prefix of that trace.

use nostop_bench::driver::{fixed_system, steady_window};
use nostop_bench::report::{f, print_section, Table};
use nostop_core::system::StreamingSystem;
use nostop_simcore::stats::{mean, summarize};
use nostop_workloads::WorkloadKind;
use spark_sim::EngineParams;

/// Rule-1 cell: one scale-up run — `(first post-change, two later)`.
fn scale_up_cell(seed: u64) -> Option<(f64, f64)> {
    let params = EngineParams::paper(WorkloadKind::WordCount, seed);
    let mut sys = fixed_system(params, 15.0, 8, 120_000.0, 4);
    // Scale up; the next batches run on fresh executors.
    sys.apply_config(&[15.0, 16.0]);
    let mut post = Vec::new();
    for _ in 0..6 {
        let b = sys.next_batch();
        if b.num_executors == 16 {
            post.push(b.processing_s);
        }
    }
    (post.len() >= 3).then(|| (post[0], post[2]))
}

/// Rule-2 trace: `trace_len` settled processing times for one seed
/// (warm-up batch discarded). Every window size reads a prefix of this.
fn seed_trace(seed: u64, trace_len: usize) -> Vec<f64> {
    let params = EngineParams::paper(WorkloadKind::LogisticRegression, seed);
    steady_window(params, 15.0, 14, 10_000.0, 1, trace_len)
        .iter()
        .map(|b| b.processing_s)
        .collect()
}

/// The std over seeds of the mean of each trace's first `window` batches.
fn window_noise(window: usize, traces: &[Vec<f64>]) -> f64 {
    let means: Vec<f64> = traces.iter().map(|trace| mean(&trace[..window])).collect();
    summarize(&means).std_dev
}

fn main() {
    // --- Rule 1: skip-first bias ---
    let seeds: Vec<u64> = (0..20).collect();
    let pairs: Vec<_> = seeds.iter().map(|&seed| scale_up_cell(seed)).collect();
    let mut first_batch = Vec::new();
    let mut settled = Vec::new();
    for (first, later) in pairs.into_iter().flatten() {
        first_batch.push(first);
        settled.push(later);
    }
    let fb = summarize(&first_batch);
    let st = summarize(&settled);
    let mut t1 = Table::new(&["batch", "processing_s (mean over 20 scale-ups)"]);
    t1.row(&["first after change".into(), f(fb.mean, 2)]);
    t1.row(&["two batches later".into(), f(st.mean, 2)]);
    t1.row(&[
        "bias removed by skip-first".into(),
        format!(
            "{:.2} s ({:.0}%)",
            fb.mean - st.mean,
            (fb.mean / st.mean - 1.0) * 100.0
        ),
    ]);
    print_section("Ablation §5.4 rule 1: first-batch initialization bias", &t1);

    // --- Rule 2: window size vs measurement noise ---
    const WINDOWS: [usize; 5] = [1, 2, 3, 6, 12];
    let trace_len = *WINDOWS.iter().max().expect("non-empty window sweep");
    let trace_seeds: Vec<u64> = (0..24).collect();
    let traces: Vec<_> = trace_seeds
        .iter()
        .map(|&seed| seed_trace(seed, trace_len))
        .collect();
    let mut t2 = Table::new(&["window (batches)", "std of window-mean processing_s"]);
    for window in WINDOWS {
        t2.row(&[window.to_string(), f(window_noise(window, &traces), 3)]);
    }
    print_section(
        "Ablation §5.4 rule 2: averaging window vs measurement noise \
         (LR, iteration-count variance dominates)",
        &t2,
    );
    println!(
        "the first post-change batch is visibly slower (jar shipping); \
         wider windows cut the noise SPSA's gradient sees — at the cost of \
         slower rounds, which is why the window grows only while paused"
    );
}
