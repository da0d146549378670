//! The scenario-corpus runner — writes `BENCH_scenarios.json`.
//!
//! Replaces the per-figure-binary pattern: every experiment is a
//! committed `scenarios/*.json` file (workload × rate × skew × faults ×
//! cluster × methods), and this one binary replays the whole corpus.
//! Scenarios with methods run a chaos-style grid (NoStop vs Bayesian
//! optimization vs the static default over the horizon); scenarios with
//! no methods are trace-only (the arrival process is sampled and
//! summarized — the Fig-5 protocol).
//!
//! Every cell is a pure function of its spec, so the report is
//! byte-identical from run to run — the `scenarios` CI leg diffs two
//! runs. On top of that, each scenario's cells are fingerprinted with an
//! FNV-1a digest checked against the committed `scenarios/DIGESTS.txt`,
//! so *any* behavioral drift in the engine, combinators, or controller
//! trips the corpus immediately. After an intentional change, regenerate
//! with `scenario_runner --write-digests`.
//!
//! Usage: `scenario_runner [out.json] [--dir scenarios/] [--write-digests]`
//!
//! `--canonicalize` rewrites every corpus file as its canonical pretty
//! serialization and exits — corpus maintenance, not an experiment run.

use nostop_bench::scenario::{
    default_corpus_dir, load_corpus, read_scenario, run_method, sample_rate, workload_of,
};
use nostop_core::scenario::{corpus_files, ScenarioSpec};
use nostop_simcore::fnv1a64;
use nostop_simcore::json::{self, Json};
use nostop_simcore::stats::mean;
use std::path::{Path, PathBuf};

/// Trace-only scenarios sample the rate at this granularity.
const SAMPLE_EVERY_S: u64 = 10;

fn trace_cell(spec: &ScenarioSpec) -> Json {
    let samples = sample_rate(spec, SAMPLE_EVERY_S);
    let rates: Vec<f64> = samples.iter().map(|&(_, r)| r).collect();
    let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = rates.iter().cloned().fold(0.0f64, f64::max);
    // The full trajectory is pinned by a digest instead of being inlined —
    // the corpus stays reviewable while drift anywhere in the rate stack
    // still trips the comparison.
    let mut csv = String::from("t_s,rate\n");
    for (t, r) in &samples {
        csv.push_str(&format!("{t},{r}\n"));
    }
    json::obj(vec![
        ("kind", json::str("trace")),
        ("samples", json::uint(samples.len() as u64)),
        ("sample_every_s", json::uint(SAMPLE_EVERY_S)),
        ("min_rate", json::num(min)),
        ("max_rate", json::num(max)),
        ("mean_rate", json::num(mean(&rates))),
        (
            "trace_digest",
            json::str(format!("{:016x}", fnv1a64(csv.as_bytes()))),
        ),
    ])
}

fn opt_uint(v: Option<u64>) -> Json {
    match v {
        Some(x) => json::uint(x),
        None => Json::Null,
    }
}

fn method_cell(spec: &ScenarioSpec, method: &str) -> Json {
    let (_, r) = run_method(spec, method)
        .unwrap_or_else(|e| panic!("scenario `{}` method `{method}`: {e}", spec.name));
    json::obj(vec![
        ("kind", json::str("method")),
        ("method", json::str(method)),
        ("batches", json::uint(r.batches as u64)),
        ("stable_fraction", json::num(r.stable_fraction)),
        ("mean_delay_s", json::num(r.mean_delay_s)),
        ("mean_processing_s", json::num(r.mean_processing_s)),
        ("final_interval_s", json::num(r.final_interval_s)),
        ("final_executors", json::num(r.final_executors)),
        ("resets", opt_uint(r.resets)),
        ("converged_round", opt_uint(r.converged_round)),
        ("rounds", opt_uint(r.rounds)),
    ])
}

struct Args {
    out: String,
    dir: PathBuf,
    write_digests: bool,
    canonicalize: bool,
}

fn parse_args() -> Args {
    let mut out = "BENCH_scenarios.json".to_string();
    let mut dir = None;
    let mut write_digests = false;
    let mut canonicalize = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--dir" => dir = Some(PathBuf::from(argv.next().expect("--dir needs a path"))),
            "--write-digests" => write_digests = true,
            "--canonicalize" => canonicalize = true,
            flag if flag.starts_with("--") => panic!("unknown flag `{flag}`"),
            positional => out = positional.to_string(),
        }
    }
    Args {
        out,
        dir: dir.unwrap_or_else(default_corpus_dir),
        write_digests,
        canonicalize,
    }
}

/// Rewrite every corpus file as `to_json().to_string_pretty()` so the
/// committed corpus is always in canonical form (a root test enforces it).
fn canonicalize(dir: &Path) -> Result<(), String> {
    for path in corpus_files(dir)? {
        let (text, spec) = read_scenario(&path)?;
        let canonical = format!("{}\n", spec.to_json().to_string_pretty());
        if canonical != text {
            std::fs::write(&path, canonical)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("canonicalized {}", path.display());
        }
    }
    Ok(())
}

/// Report a corpus that cannot be read and exit with status 2.
fn corpus_error<T>(e: String) -> T {
    eprintln!("corpus: {e}");
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    if args.canonicalize {
        canonicalize(&args.dir).unwrap_or_else(corpus_error);
        return;
    }
    let specs = load_corpus(&args.dir).unwrap_or_else(corpus_error);

    // Run each scenario's cells and fingerprint them.
    let mut digests: Vec<(String, String)> = Vec::with_capacity(specs.len());
    let mut scenario_objs = Vec::with_capacity(specs.len());
    for spec in &specs {
        // One cell per method; a trace-only scenario is a single cell.
        let cell_jsons: Vec<Json> = if spec.methods.is_empty() {
            vec![trace_cell(spec)]
        } else {
            spec.methods.iter().map(|m| method_cell(spec, m)).collect()
        };
        let cells_text = Json::Arr(cell_jsons.clone()).to_string_pretty();
        let digest = format!("{:016x}", fnv1a64(cells_text.as_bytes()));
        digests.push((spec.name.clone(), digest.clone()));
        let kind = workload_of(spec).unwrap_or_else(|e| panic!("{e}"));
        scenario_objs.push(json::obj(vec![
            ("name", json::str(spec.name.clone())),
            ("workload", json::str(kind.name())),
            ("cluster", json::str(spec.cluster.name())),
            ("seed", json::uint(spec.seed)),
            ("rate_kind", json::str(spec.rate.kind())),
            ("skewed", Json::Bool(!spec.skew.is_none())),
            ("faults", json::uint(spec.faults.len() as u64)),
            ("horizon_s", json::num(spec.horizon_s)),
            ("digest", json::str(digest)),
            ("cells", Json::Arr(cell_jsons)),
        ]));
    }

    // Digest ledger: default-on check against the committed file, with an
    // explicit rewrite escape hatch for intentional behavior changes.
    let ledger_path = args.dir.join("DIGESTS.txt");
    let ledger_text: String = digests
        .iter()
        .map(|(name, d)| format!("{name} {d}\n"))
        .collect();
    if args.write_digests {
        std::fs::write(&ledger_path, &ledger_text).expect("write DIGESTS.txt");
        eprintln!("wrote {}", ledger_path.display());
    } else if ledger_path.is_file() {
        let committed = std::fs::read_to_string(&ledger_path).expect("read DIGESTS.txt");
        if committed != ledger_text {
            eprintln!("digest mismatch against {}:", ledger_path.display());
            eprintln!("--- committed ---\n{committed}--- computed ---\n{ledger_text}");
            panic!(
                "scenario output drifted; if intentional, regenerate with \
                 `scenario_runner --write-digests` and commit both files"
            );
        }
    }

    let report = json::obj(vec![
        ("schema", json::str("nostop-scenarios/1")),
        ("scenarios", Json::Arr(scenario_objs)),
    ]);
    let text = report.to_string_pretty();
    std::fs::write(&args.out, format!("{text}\n")).expect("write scenario report");
    println!("{text}");
    eprintln!("wrote {}", args.out);
}
