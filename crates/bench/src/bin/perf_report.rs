//! The benchmark trajectory — writes `BENCH_perf.json`.
//!
//! Times two layers and records the numbers the performance work is
//! judged by:
//!
//! 1. **Engine matrix** — the DES hot path, single-threaded: a fixed
//!    matrix of `(workload, interval, executors)` cells, each simulating a
//!    few hundred batches on one `StreamingEngine`. Reported as wall time
//!    and simulated batches per second (the unit the scheduler/broker
//!    optimizations move).
//! 2. **Driver matrix** — the experiment fabric: fig7-style and
//!    fig8-style cell grids run twice, once with `NOSTOP_JOBS=1` and once
//!    with the configured worker count. On a multi-core host the second
//!    pass shows the fan-out speedup; on a single-core host it honestly
//!    shows ~1× (the fabric's value there is the byte-identity contract,
//!    not throughput).
//!
//! Plus three single-cell rows: the incremental GP surrogate fit
//! (`gp_fit_256`, the tuner arena's steady state), the adversarial
//! scenario stack (flash crowds + hot-key skew through the
//! `scenario_runner` library), and the steady multi-tenant fleet. The
//! scenario row also counts the ingest work per batch — `rate_at` calls
//! and produce steps — which is seed-pure, unlike its wall time.
//!
//! The `obs_overhead` row times two matrix cells with the recorder
//! disabled and with a ring recorder. Its ratio depends on the host, so
//! it has no baseline and no gate: the full run writes it, `--smoke`
//! prints it.
//!
//! Also records the peak RSS (`VmHWM` from `/proc/self/status`, a proxy
//! for the bounded-listener memory guarantee) and the worker counts.
//! Non-deterministic by construction (it measures wall time); everything
//! else in the harness stays deterministic.
//!
//! Engine cells run `NOSTOP_PERF_REPEATS` times (default 3) and keep the
//! best wall time — on shared hosts the best-of-N is the least polluted
//! estimate of what the code costs.
//!
//! `perf_report --smoke [path]` is the CI guard: it re-measures the gated
//! rows (engine matrix, `gp_fit_256`, `scenario`, `fleet`) with the full
//! run's own builders, compares each in one loop through
//! [`nostop_bench::smoke`], and exits non-zero if any cell panics, lands
//! more than 25% below the throughput committed in `BENCH_perf.json` (or
//! `path`), or has no usable committed baseline at all (a stale report is
//! a distinct hard failure, never a silent pass). It also prints the
//! ungated `obs_overhead` row and checks that a 2,000-tenant steady fleet
//! fast-forwards. Nothing is written in smoke mode.

use nostop_baselines::BayesOpt;
use nostop_bench::driver::{
    fixed_system, make_system, measure_config, nostop_config, paper_rate, run_nostop, run_tuner,
    steady_fleet,
};
use nostop_bench::parallel::{grid, jobs, map_cells_weighted};
use nostop_bench::report::{best_of, repeats};
use nostop_bench::scenario::run_method;
use nostop_bench::smoke::{Gate, Verdict};
use nostop_core::arbiter::ArbiterPolicy;
use nostop_core::scenario::{ClusterKind, RateSpec, ScenarioSpec, SkewSpec};
use nostop_core::system::StreamingSystem;
use nostop_datagen::IngestStats;
use nostop_obs::Recorder;
use nostop_simcore::json::{self, Json};
use nostop_workloads::{CostModel, WorkloadKind};
use spark_sim::fleet::FleetSim;
use spark_sim::EngineParams;
use std::time::Instant;

const ENGINE_BATCHES: usize = 300;
const DRIVER_SEEDS: [u64; 2] = [11, 22];
const FIG8_ROUNDS: u64 = 12;
const BO_ITERATIONS: usize = 15;

/// Fleet smoke cell: a steady multi-tenant fleet run long enough that
/// most epochs are quiescent, single-threaded so the number tracks
/// per-core work (the worker pool is the driver matrix's story, not this
/// cell's). The cell's story is the sparse fast path: after the arming
/// runway (~25 dense epochs while controllers park and windows cap) the
/// remaining epochs replay in closed form, so epochs/s measures the
/// skip machinery, not the DES.
const FLEET_TENANTS: u32 = 32;
const FLEET_EPOCHS: u64 = 128;
const FLEET_BUDGET: u32 = 640;
/// `--smoke` scale guard: a 2,000-tenant steady fleet must complete with
/// the fast path engaged (skipped epochs > 0).
const SCALE_TENANTS: u32 = 2_000;
const SCALE_EPOCHS: u64 = 40;

/// The committed engine matrix: `(workload, interval_s, executors)`.
const MATRIX: [(WorkloadKind, f64, u32); 6] = [
    (WorkloadKind::LogisticRegression, 15.0, 14),
    (WorkloadKind::LinearRegression, 15.0, 14),
    (WorkloadKind::WordCount, 15.0, 8),
    (WorkloadKind::PageAnalyze, 15.0, 8),
    (WorkloadKind::WordCount, 2.0, 8),
    (WorkloadKind::WordCount, 40.0, 8),
];

/// One engine-matrix cell, best of `repeats`: simulate `ENGINE_BATCHES`
/// batches at a fixed configuration, recording into `obs`. Returns
/// `(virtual_s, best_wall_ms)`, the simulated virtual seconds covered and
/// the best wall time.
fn engine_cell(
    (kind, interval_s, executors): (WorkloadKind, f64, u32),
    obs: &Recorder,
    repeats: usize,
) -> (f64, f64) {
    let run = || {
        let params = EngineParams::paper(kind, 7);
        let mut sys = fixed_system(params, interval_s, executors, matrix_rate(kind), 0);
        sys.engine_mut().set_recorder(obs);
        let mut virtual_s = 0.0;
        for _ in 0..ENGINE_BATCHES {
            virtual_s += sys.next_batch().interval_s;
        }
        virtual_s
    };
    best_of(repeats, "engine cell virtual time", run, |v| v.to_bits())
}

/// The constant rate the engine matrix feeds `kind`, records/s.
fn matrix_rate(kind: WorkloadKind) -> f64 {
    match kind {
        WorkloadKind::LogisticRegression | WorkloadKind::LinearRegression => 10_000.0,
        _ => 120_000.0,
    }
}

/// A fig7-shaped driver cell: measure the default configuration, then a
/// short managed run. Much smaller than the real fig7 cell but the same
/// code path (engine + controller + measurement protocol).
fn fig7_style_cell(kind: WorkloadKind, seed: u64) -> f64 {
    let mut sys = make_system(kind, seed, paper_rate(kind, seed ^ 0xDEF));
    let default = measure_config(&mut sys, &[20.5, 10.0], 8, 15)
        .end_to_end
        .mean;
    let (run, _) = run_nostop(kind, seed, FIG8_ROUNDS);
    default + run.virtual_time_s
}

/// A fig8-shaped driver cell: a short SPSA run plus a short BO run.
fn fig8_style_cell(kind: WorkloadKind, seed: u64) -> f64 {
    let (run, _) = run_nostop(kind, seed, FIG8_ROUNDS);
    let mut sys = make_system(kind, seed, paper_rate(kind, seed ^ 0x0B0));
    let mut tuner = BayesOpt::new(nostop_config(kind).space, seed);
    let bo = run_tuner(&mut tuner, &mut sys, BO_ITERATIONS);
    run.virtual_time_s + bo.virtual_time_s
}

/// Relative host-time weight of one driver cell: the cost model's
/// closed-form estimate for a nominal paper batch. Only the ordering
/// matters (heaviest workloads get scheduled first).
fn cell_weight(kind: WorkloadKind) -> f64 {
    CostModel::preset(kind).estimate_processing_secs((matrix_rate(kind) * 15.0) as u64, 8, 75)
}

/// Time one driver grid at a given worker count; returns `(wall_ms, sum)`
/// where the sum pins the work against dead-code elimination and lets the
/// two passes assert they computed the same thing.
fn time_grid(jobs_env: usize, cell: impl Fn(WorkloadKind, u64) -> f64 + Sync) -> (f64, f64) {
    std::env::set_var("NOSTOP_JOBS", jobs_env.to_string());
    let cells = grid(&WorkloadKind::ALL, &DRIVER_SEEDS);
    let grid_run = || {
        map_cells_weighted(
            &cells,
            |&(kind, _)| cell_weight(kind),
            |&(kind, seed)| cell(kind, seed),
        )
    };
    let (results, wall) = best_of(1, "driver grid", grid_run, |_| ());
    (wall, results.iter().sum())
}

fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The `obs_overhead` row: ns per batch of the WordCount 15 s × 8 and
/// LogisticRegression 15 s × 14 cells, recorder disabled vs a ring, and the ratio.
fn obs_overhead_rows(repeats: usize) -> Vec<Json> {
    let row = |&(kind, interval, executors): &(WorkloadKind, f64, u32)| {
        let ns_per_batch = |obs: &Recorder| {
            let (_, wall) = engine_cell((kind, interval, executors), obs, repeats);
            wall * 1e6 / ENGINE_BATCHES as f64
        };
        let off = ns_per_batch(&Recorder::disabled());
        let ring = ns_per_batch(&Recorder::ring(1 << 14));
        json::obj(vec![
            ("workload", json::str(kind.name())),
            ("interval_s", json::num(interval)),
            ("executors", json::uint(executors as u64)),
            ("disabled_ns_per_batch", json::num(off)),
            ("ring_ns_per_batch", json::num(ring)),
            ("ring_over_disabled", json::num(ring / off)),
        ])
    };
    [MATRIX[2], MATRIX[0]].iter().map(row).collect()
}

/// One fleet cell: run the steady 32-tenant fleet on one worker and
/// return its deterministic digest (pins the work against DCE and lets
/// repeats assert they simulated the same fleet). Steady tenants park
/// and arm, so the bulk of the epochs exercise the quiescent-tenant
/// fast-forward; every barrier is one dense arbiter pass.
fn run_fleet_cell() -> u64 {
    let mut specs = steady_fleet(7, FLEET_TENANTS);
    for (i, spec) in (0..).zip(&mut specs) {
        spec.priority = 1 + (i % 5);
    }
    let mut fleet = FleetSim::new(&specs, Some(FLEET_BUDGET), ArbiterPolicy::FairShare);
    fleet.set_jobs(1);
    fleet.run_epochs(FLEET_EPOCHS);
    fleet.digest()
}

/// The `fleet` section: the best-of-`repeats` fleet cell.
fn fleet_row(repeats: usize) -> Json {
    let (digest, wall) = best_of(repeats, "fleet cell digest", run_fleet_cell, |&d| d);
    json::obj(vec![
        ("tenants", json::uint(FLEET_TENANTS as u64)),
        ("epochs", json::uint(FLEET_EPOCHS)),
        ("budget", json::uint(FLEET_BUDGET as u64)),
        ("policy", json::str(ArbiterPolicy::FairShare.name())),
        ("wall_ms", json::num(wall)),
        (
            "fleet_epochs_per_s",
            json::num(FLEET_EPOCHS as f64 / (wall / 1e3)),
        ),
        ("digest", json::str(format!("{digest:016x}"))),
    ])
}

/// Scenario smoke cell: horizon of the adversarial-arrivals run.
const SCENARIO_HORIZON_S: f64 = 600.0;

/// The inline spec for the scenario cell: flash crowds over a constant
/// base with hot-key partition skew, driven by the static default —
/// exercising the scenario stack end to end (combinators + skewed broker
/// + skew-stretched engine) without any controller variance.
fn scenario_cell_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "perf-smoke".into(),
        workload: "wordcount".into(),
        cluster: ClusterKind::Paper,
        seed: 17,
        rate_seed: None,
        horizon_s: SCENARIO_HORIZON_S,
        rounds: None,
        methods: vec!["static".into()],
        rate: RateSpec::FlashCrowd {
            base: Box::new(RateSpec::Constant { rate: 150_000.0 }),
            mean_gap_secs: 120.0,
            crowd_secs: 45.0,
            pareto_shape: 1.5,
            min_magnitude: 1.5,
            max_magnitude: 3.0,
        },
        skew: SkewSpec::HotKey {
            hot_fraction: 0.125,
            hot_weight: 6.0,
        },
        faults: vec![],
    }
}

/// What one scenario cell simulated: its batch count and the ingest work
/// behind it. All of it is seed-pure.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ScenarioCell {
    batches: u64,
    ingest: IngestStats,
}

impl ScenarioCell {
    /// `count` per simulated batch.
    fn per_batch(&self, count: u64) -> f64 {
        count as f64 / self.batches.max(1) as f64
    }
}

/// One scenario cell: replay the inline adversarial spec with the static
/// default (deterministic — repeats assert they simulated the same run).
fn run_scenario_cell() -> ScenarioCell {
    let spec = scenario_cell_spec();
    let (sys, r) = run_method(&spec, "static").expect("scenario smoke cell runs");
    ScenarioCell {
        batches: r.batches as u64,
        ingest: sys.inner.engine().ingest_stats(),
    }
}

/// The `scenario` section: the best-of-`repeats` scenario cell.
fn scenario_row(repeats: usize) -> Json {
    let (cell, wall) = best_of(repeats, "scenario cell", run_scenario_cell, |&c| c);
    json::obj(vec![
        ("horizon_s", json::num(SCENARIO_HORIZON_S)),
        ("batches", json::uint(cell.batches)),
        ("wall_ms", json::num(wall)),
        (
            "scenario_batches_per_s",
            json::num(cell.batches as f64 / (wall / 1e3)),
        ),
        (
            "rate_calls_per_batch",
            json::num(cell.per_batch(cell.ingest.rate_calls)),
        ),
        (
            "produce_steps_per_batch",
            json::num(cell.per_batch(cell.ingest.produce_steps)),
        ),
    ])
}

/// GP smoke cell: observations in the incremental fit (the tuner arena's
/// surrogate at full budget ×~5).
const GP_OBSERVATIONS: usize = 256;
const GP_DIM: usize = 8;

/// One GP cell: fit a [`GP_OBSERVATIONS`]-point surrogate through the
/// incremental add path (the BayesOpt steady state) and return a
/// posterior checksum that pins the work and lets repeats assert they
/// fitted the same model.
fn run_gp_cell() -> f64 {
    use nostop_baselines::gp::{GaussianProcess, Kernel};
    let mut rng = nostop_simcore::SimRng::seed_from_u64(29);
    let mut gp = GaussianProcess::new(Kernel::default()).with_incremental(true);
    for _ in 0..GP_OBSERVATIONS {
        let x: Vec<f64> = (0..GP_DIM).map(|_| rng.uniform(1.0, 20.0)).collect();
        let y = rng.uniform(-10.0, 10.0);
        gp.add(x, y);
    }
    let (m, v) = gp.posterior(&[10.5; GP_DIM]);
    m + v
}

/// The `gp_fit_256` section: the best-of-`repeats` GP cell.
fn gp_row(repeats: usize) -> Json {
    let (check, wall) = best_of(repeats, "gp cell checksum", run_gp_cell, |c| c.to_bits());
    json::obj(vec![
        ("observations", json::uint(GP_OBSERVATIONS as u64)),
        ("dim", json::uint(GP_DIM as u64)),
        ("wall_ms", json::num(wall)),
        (
            "gp_adds_per_s",
            json::num(GP_OBSERVATIONS as f64 / (wall / 1e3)),
        ),
        ("posterior_check", json::num(check)),
    ])
}

/// The `engine_matrix` section: every [`MATRIX`] cell, best-of-`repeats`.
fn engine_matrix(repeats: usize) -> Json {
    let row = |&(kind, interval, executors): &(WorkloadKind, f64, u32)| {
        let (virtual_s, wall) =
            engine_cell((kind, interval, executors), &Recorder::disabled(), repeats);
        json::obj(vec![
            ("workload", json::str(kind.name())),
            ("interval_s", json::num(interval)),
            ("executors", json::uint(executors as u64)),
            ("batches", json::uint(ENGINE_BATCHES as u64)),
            ("wall_ms", json::num(wall)),
            (
                "sim_batches_per_s",
                json::num(ENGINE_BATCHES as f64 / (wall / 1e3)),
            ),
            ("virtual_s_simulated", json::num(virtual_s)),
        ])
    };
    Json::Arr(MATRIX.iter().map(row).collect())
}

/// Measures one report section, each cell best of the given repeats.
type Builder = fn(usize) -> Json;

/// The gated sections, each with the builder that measures it. The full
/// run writes them and `--smoke` re-measures and compares them, so a new
/// gated row is one entry here.
const GATED: [(Gate, Builder); 4] = [
    (
        Gate {
            section: "engine_matrix",
            keys: &["workload", "interval_s", "executors"],
            field: "sim_batches_per_s",
        },
        engine_matrix,
    ),
    (Gate::single("gp_fit_256", "gp_adds_per_s"), gp_row),
    (
        Gate::single("scenario", "scenario_batches_per_s"),
        scenario_row,
    ),
    (Gate::single("fleet", "fleet_epochs_per_s"), fleet_row),
];

/// The `--smoke` scale check: a 2,000-tenant steady fleet must complete
/// with the fast path engaged (skipped epochs > 0). No committed baseline
/// — this is a functional floor, not a throughput comparison, so it runs
/// once. Returns whether it passed.
fn scale_check() -> bool {
    let start = Instant::now();
    let mut fleet = FleetSim::new(
        &steady_fleet(2026, SCALE_TENANTS),
        None,
        ArbiterPolicy::FairShare,
    );
    fleet.set_jobs(1);
    fleet.enable_ledger_checkpointing(4_096);
    fleet.run_epochs(SCALE_EPOCHS);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let eps = SCALE_EPOCHS as f64 / (wall_ms / 1e3);
    fleet
        .arbiter()
        .check_conservation()
        .expect("2000-tenant ledger conserves");
    let skipped = fleet.total_skipped_epochs();
    let engaged = !fleet.fastpath_enabled() || skipped > 0;
    if !engaged {
        eprintln!("smoke: 2000-tenant steady fleet never fast-forwarded");
    }
    println!(
        "smoke {:<40} {SCALE_TENANTS}t x{SCALE_EPOCHS} {eps:>9.1} ep/s  skipped={skipped} {}",
        "fleet(2000 steady)",
        if engaged { "ok" } else { "FAIL" }
    );
    engaged
}

/// CI smoke guard: re-measure the gated sections and compare them with
/// the committed report at `path`. Returns the process exit code.
fn smoke(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("smoke: cannot read {path}: {e}");
            return 1;
        }
    };
    let committed = Json::parse(&text).expect("committed report parses");
    let repeats = repeats(3);
    let mut regressed = 0;
    let mut stale = 0;
    for (gate, build) in &GATED {
        for check in gate.check(&committed, &build(repeats)) {
            let (fresh, base, verdict) = match check.verdict {
                Verdict::Ok(fresh, committed) => (fresh, committed, "ok"),
                Verdict::Regressed(fresh, committed) => {
                    regressed += 1;
                    (fresh, committed, "FAIL")
                }
                Verdict::Stale(why) => {
                    // Not a pass, and not a regression: nothing got
                    // slower, the committed report must be regenerated.
                    eprintln!(
                        "smoke: {}: {why} — regenerate {path} with `perf_report`",
                        check.label
                    );
                    stale += 1;
                    continue;
                }
            };
            println!(
                "smoke {:<40} {fresh:>11.1} {} vs {base:>11.1} committed  ({:.2}x) {verdict}",
                check.label,
                gate.field,
                fresh / base
            );
        }
    }
    // Printed, never gated: the ratio depends on the host.
    for row in obs_overhead_rows(repeats) {
        println!("smoke obs_overhead {row} (no gate)");
    }
    if !scale_check() {
        regressed += 1;
    }
    if regressed > 0 {
        eprintln!("smoke: {regressed} cell(s) regressed >25% vs {path}");
    }
    if stale > 0 {
        eprintln!(
            "smoke: {stale} cell(s) missing from or unusable in {path} — \
             the committed report is stale, not the code slow"
        );
    }
    if regressed + stale > 0 {
        1
    } else {
        println!(
            "smoke: engine matrix + gp + scenario + fleet cells within 25% of committed throughput"
        );
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke_mode = args.iter().any(|a| a == "--smoke");
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_perf.json".to_string());
    if smoke_mode {
        std::process::exit(smoke(&path));
    }

    let configured_jobs = jobs();
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // --- Layer 1 and the single-cell rows: the gated sections, each
    // cell single-threaded and best-of-N ---
    let repeats = repeats(3);
    let [engine, gp, scenario, fleet] = GATED.map(|(gate, build)| (gate.section, build(repeats)));

    // --- Layer 2: driver grids, serial vs parallel ---
    let mut driver_rows = Vec::new();
    for (name, cell) in [
        (
            "fig7_style",
            &fig7_style_cell as &(dyn Fn(WorkloadKind, u64) -> f64 + Sync),
        ),
        ("fig8_style", &fig8_style_cell),
    ] {
        let (serial_ms, serial_sum) = time_grid(1, cell);
        // With one job the "parallel" pass would re-run the identical
        // serial code and report a fake ~1× "speedup" (previously dressed
        // up as a `degraded` flag). Skip the comparison and say why
        // instead: a single-worker host has no fan-out to measure.
        let comparison = if configured_jobs > 1 {
            let (parallel_ms, parallel_sum) = time_grid(configured_jobs, cell);
            assert_eq!(
                serial_sum.to_bits(),
                parallel_sum.to_bits(),
                "fabric determinism violated in {name}"
            );
            Some((parallel_ms, serial_ms / parallel_ms))
        } else {
            None
        };
        driver_rows.push(json::obj(vec![
            ("grid", json::str(name)),
            (
                "cells",
                json::uint((WorkloadKind::ALL.len() * DRIVER_SEEDS.len()) as u64),
            ),
            ("serial_wall_ms", json::num(serial_ms)),
            (
                "parallel_wall_ms",
                comparison
                    .map(|(ms, _)| json::num(ms))
                    .unwrap_or(Json::Null),
            ),
            ("parallel_jobs", json::uint(configured_jobs as u64)),
            (
                "speedup",
                comparison.map(|(_, s)| json::num(s)).unwrap_or(Json::Null),
            ),
            (
                "parallel_comparison",
                if comparison.is_some() {
                    json::str("measured")
                } else {
                    json::str("n/a: single job configured, nothing to fan out")
                },
            ),
        ]));
    }

    let report = json::obj(vec![
        ("schema", json::str("nostop-perf/1")),
        ("configured_jobs", json::uint(configured_jobs as u64)),
        ("available_parallelism", json::uint(parallelism as u64)),
        ("engine_repeats", json::uint(repeats as u64)),
        engine,
        ("obs_overhead", Json::Arr(obs_overhead_rows(repeats))),
        ("driver_grids", Json::Arr(driver_rows)),
        gp,
        scenario,
        fleet,
        (
            "peak_rss_kb",
            peak_rss_kb().map(json::uint).unwrap_or(Json::Null),
        ),
    ]);

    let text = report.to_string_pretty();
    std::fs::write(&path, format!("{text}\n")).expect("write BENCH_perf.json");
    println!("{text}");
    eprintln!("wrote {path}");
}
