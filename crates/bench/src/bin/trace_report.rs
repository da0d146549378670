//! The trace exporter — writes `trace_report.jsonl` and prints a summary.
//!
//! Runs a small grid of instrumented cells — `(workload, fault scenario)`
//! pairs, each a full engine + NoStop controller run with one shared
//! recorder — and emits every cell's trace as JSONL, preceded by a
//! `{"ev":"cell",...}` banner line. The grid goes through the parallel
//! fabric, so the file is **byte-identical for any `NOSTOP_JOBS`**: CI
//! diffs a serial export against an 8-way one, which pins down the whole
//! observability layer (DES timestamps only, per-cell recorders, causal
//! append order) in one check.
//!
//! Each cell's trace is validated with [`nostop_obs::check_jsonl`] before
//! it is written — a malformed trace (unbalanced spans, non-monotone
//! counters) aborts the report rather than shipping garbage.
//!
//! The human summary on stdout aggregates per-cell span statistics and
//! counter totals — the quick look an operator wants before reaching for
//! the raw JSONL. Under `--features obs-off` every trace is empty by
//! construction and the binary degrades to printing headers.

use nostop_bench::driver::{nostop_config, paper_rate};
use nostop_bench::parallel::{jobs, map_cells};
use nostop_core::controller::NoStop;
use nostop_core::scenario::FaultEvent;
use nostop_obs::{check_jsonl, span_stats, Recorder, SpanStat};
use nostop_simcore::json;
use nostop_simcore::{SimDuration, SimTime};
use nostop_workloads::WorkloadKind;
use spark_sim::{EngineParams, FaultPlan, SimSystem, StreamConfig, StreamingEngine};

const SEED: u64 = 7;
/// Controller rounds per cell — enough for spans, probes, faults, and a
/// reconfiguration history without making the CI leg slow.
const ROUNDS: u64 = 8;
/// Ring capacity per cell; sized so no cell evicts (`dropped` stays 0 and
/// the exported counter chain is complete from zero).
const RING: usize = 1 << 16;

const SCENARIOS: [&str; 3] = ["quiet", "crash_relaunch", "degraded"];

fn plan_for(scenario: &str) -> FaultPlan {
    match scenario {
        "quiet" => FaultPlan::none(),
        // A mid-run crash with capacity restored a minute later: exercises
        // the fault instants, the replan path, and the relaunch overhead
        // fields of the reconfigure span.
        "crash_relaunch" => FaultPlan::new(vec![FaultEvent::ExecutorCrash {
            at: SimTime::from_secs_f64(600.0),
            count: 4,
            relaunch_after: Some(SimDuration::from_secs(60)),
        }]),
        // Stragglers + flaky tasks + a receiver outage: retries, drops,
        // and slowdown-stretched stage spans all land in one trace.
        "degraded" => FaultPlan::new(vec![
            FaultEvent::NodeSlowdown {
                node: 1,
                from: SimTime::from_secs_f64(300.0),
                until: SimTime::from_secs_f64(1_500.0),
                factor: 0.5,
            },
            FaultEvent::TaskFailures {
                from: SimTime::from_secs_f64(300.0),
                until: SimTime::from_secs_f64(1_200.0),
                probability: 0.08,
            },
            FaultEvent::ReceiverOutage {
                from: SimTime::from_secs_f64(900.0),
                until: SimTime::from_secs_f64(1_000.0),
            },
        ]),
        other => panic!("unknown scenario `{other}`"),
    }
}

struct CellTrace {
    kind: WorkloadKind,
    scenario: &'static str,
    jsonl: String,
    stats: Vec<SpanStat>,
    counters: Vec<(&'static str, u64)>,
    events: usize,
    dropped: u64,
    virtual_s: f64,
}

fn run_cell(kind: WorkloadKind, scenario: &'static str) -> CellTrace {
    let recorder = Recorder::ring(RING);
    let mut params = EngineParams::paper(kind, SEED);
    params.faults = plan_for(scenario);
    let mut engine = StreamingEngine::new(
        params,
        StreamConfig::paper_initial(),
        paper_rate(kind, SEED ^ 0x7ACE),
    );
    engine.set_recorder(&recorder);
    let mut sys = SimSystem::new(engine);
    let mut ns = NoStop::new(nostop_config(kind), SEED);
    ns.set_recorder(&recorder);
    ns.run(&mut sys, ROUNDS);
    let virtual_s = sys.engine().now().as_secs_f64();

    let snap = recorder.snapshot();
    let jsonl = snap.to_jsonl();
    if let Err(e) = check_jsonl(&jsonl) {
        panic!("{} / {scenario}: malformed trace: {e}", kind.name());
    }
    CellTrace {
        kind,
        scenario,
        stats: span_stats(&snap.events),
        counters: snap.counters,
        events: snap.events.len(),
        dropped: snap.dropped,
        jsonl,
        virtual_s,
    }
}

fn banner(cell: &CellTrace) -> String {
    json::obj(vec![
        ("ev", json::str("cell")),
        ("workload", json::str(cell.kind.name())),
        ("scenario", json::str(cell.scenario)),
        ("seed", json::uint(SEED)),
        ("rounds", json::uint(ROUNDS)),
    ])
    .to_string()
}

fn print_summary(cells: &[CellTrace]) {
    for cell in cells {
        println!(
            "\n== {} / {} — {} events, {} dropped, {:.0} virtual s ==",
            cell.kind.name(),
            cell.scenario,
            cell.events,
            cell.dropped,
            cell.virtual_s
        );
        if !cell.stats.is_empty() {
            println!(
                "  {:<12} {:<12} {:>7} {:>14} {:>12}",
                "track", "span", "count", "total_virt_s", "mean_virt_s"
            );
            for s in &cell.stats {
                let total_s = s.total_us as f64 / 1e6;
                println!(
                    "  {:<12} {:<12} {:>7} {:>14.2} {:>12.2}",
                    s.track,
                    s.name,
                    s.count,
                    total_s,
                    total_s / s.count.max(1) as f64
                );
            }
        }
        if !cell.counters.is_empty() {
            println!("  {:<25} {:>12}", "counter", "total");
            for (name, total) in &cell.counters {
                println!("  {name:<25} {total:>12}");
            }
        }
    }
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace_report.jsonl".to_string());

    let cells: Vec<(WorkloadKind, &'static str)> =
        [WorkloadKind::WordCount, WorkloadKind::LogisticRegression]
            .iter()
            .flat_map(|&k| SCENARIOS.iter().map(move |&s| (k, s)))
            .collect();
    let results = map_cells(&cells, |&(kind, scenario)| run_cell(kind, scenario));

    let mut out = String::new();
    for cell in &results {
        out.push_str(&banner(cell));
        out.push('\n');
        out.push_str(&cell.jsonl);
    }
    std::fs::write(&path, &out).expect("write trace report");

    print_summary(&results);
    eprintln!(
        "\nwrote {path} ({} cells, {} lines, jobs={})",
        results.len(),
        out.lines().count(),
        jobs()
    );
}
