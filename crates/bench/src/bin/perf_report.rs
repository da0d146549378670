//! The benchmark trajectory — writes `BENCH_perf.json`.
//!
//! Records the numbers the performance work is judged by. The **engine
//! matrix** times the DES hot path: a fixed matrix of `(workload,
//! interval, executors)` cells, each simulating a few hundred batches on
//! one `StreamingEngine`. It is reported as wall time and simulated
//! batches per second (the unit the scheduler/broker optimizations move).
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
//! for the bounded-listener memory guarantee) and the host's available
//! parallelism. Non-deterministic by construction (it measures wall
//! time); everything else in the harness stays deterministic.
//!
//! Every cell runs [`REPEATS`] times, in the full run and in `--smoke`
//! alike, and keeps the best wall time — on shared hosts the best-of-N is
//! the least polluted estimate of what the code costs.
//!
//! `perf_report --smoke [path]` is the CI guard: it re-measures the gated
//! rows (engine matrix, `gp_fit_256`, `scenario`, `fleet`) with the full
//! run's own builders, compares each in one loop through
//! [`nostop_bench::smoke`], and exits non-zero if any cell panics, lands
//! more than 25% below the throughput committed in `BENCH_perf.json` (or
//! `path`), or has no usable committed baseline at all (a stale report is
//! a distinct hard failure, never a silent pass). It also prints the
//! ungated `obs_overhead` row. Nothing is written in smoke mode.

use nostop_bench::driver::{fixed_system, steady_fleet};
use nostop_bench::report::best_of;
use nostop_bench::scenario::run_method;
use nostop_bench::smoke::{Gate, Verdict};
use nostop_core::arbiter::ArbiterPolicy;
use nostop_core::scenario::{ClusterKind, RateSpec, ScenarioSpec, SkewSpec};
use nostop_core::system::StreamingSystem;
use nostop_datagen::IngestStats;
use nostop_obs::Recorder;
use nostop_simcore::json::{self, Json};
use nostop_workloads::WorkloadKind;
use spark_sim::fleet::FleetSim;
use spark_sim::EngineParams;

const ENGINE_BATCHES: usize = 300;

/// Runs per cell; each cell keeps its best wall time.
const REPEATS: usize = 5;

/// Fleet smoke cell: a steady multi-tenant fleet run long enough that
/// most epochs are quiescent. The cell's story is the sparse fast path:
/// after the arming runway (~25 dense epochs while controllers park and
/// windows cap) the remaining epochs replay in closed form, so epochs/s
/// measures the skip machinery, not the DES.
const FLEET_TENANTS: u32 = 32;
const FLEET_EPOCHS: u64 = 128;
const FLEET_BUDGET: u32 = 640;

/// The committed engine matrix: `(workload, interval_s, executors)`.
const MATRIX: [(WorkloadKind, f64, u32); 6] = [
    (WorkloadKind::LogisticRegression, 15.0, 14),
    (WorkloadKind::LinearRegression, 15.0, 14),
    (WorkloadKind::WordCount, 15.0, 8),
    (WorkloadKind::PageAnalyze, 15.0, 8),
    (WorkloadKind::WordCount, 2.0, 8),
    (WorkloadKind::WordCount, 40.0, 8),
];

/// One engine-matrix cell, best of [`REPEATS`]: simulate `ENGINE_BATCHES`
/// batches at a fixed configuration, recording into `obs`. Returns
/// `(virtual_s, best_wall_ms)`, the simulated virtual seconds covered and
/// the best wall time.
fn engine_cell(
    (kind, interval_s, executors): (WorkloadKind, f64, u32),
    obs: &Recorder,
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
    best_of(REPEATS, "engine cell virtual time", run, |v| v.to_bits())
}

/// The constant rate the engine matrix feeds `kind`, records/s.
fn matrix_rate(kind: WorkloadKind) -> f64 {
    match kind {
        WorkloadKind::LogisticRegression | WorkloadKind::LinearRegression => 10_000.0,
        _ => 120_000.0,
    }
}

fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The `obs_overhead` row: ns per batch of the WordCount 15 s × 8 and
/// LogisticRegression 15 s × 14 cells, recorder disabled vs a ring, and the ratio.
fn obs_overhead_rows() -> Vec<Json> {
    let row = |&(kind, interval, executors): &(WorkloadKind, f64, u32)| {
        let ns_per_batch = |obs: &Recorder| {
            let (_, wall) = engine_cell((kind, interval, executors), obs);
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

/// One fleet cell: run the steady 32-tenant fleet and return its
/// deterministic digest (pins the work against DCE and lets repeats
/// assert they simulated the same fleet). Steady tenants park and arm,
/// so the bulk of the epochs exercise the quiescent-tenant fast-forward;
/// every barrier is one dense arbiter pass.
fn run_fleet_cell() -> u64 {
    let mut specs = steady_fleet(7, FLEET_TENANTS);
    for (i, spec) in (0..).zip(&mut specs) {
        spec.priority = 1 + (i % 5);
    }
    let mut fleet = FleetSim::new(&specs, Some(FLEET_BUDGET), ArbiterPolicy::FairShare);
    fleet.run_epochs(FLEET_EPOCHS);
    fleet.digest()
}

/// The `fleet` section: the best-of-[`REPEATS`] fleet cell.
fn fleet_row() -> Json {
    let (digest, wall) = best_of(REPEATS, "fleet cell digest", run_fleet_cell, |&d| d);
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

/// The `scenario` section: the best-of-[`REPEATS`] scenario cell.
fn scenario_row() -> Json {
    let (cell, wall) = best_of(REPEATS, "scenario cell", run_scenario_cell, |&c| c);
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

/// The `gp_fit_256` section: the best-of-[`REPEATS`] GP cell.
fn gp_row() -> Json {
    let (check, wall) = best_of(REPEATS, "gp cell checksum", run_gp_cell, |c| c.to_bits());
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

/// The `engine_matrix` section: every [`MATRIX`] cell, best-of-[`REPEATS`].
fn engine_matrix() -> Json {
    let row = |&(kind, interval, executors): &(WorkloadKind, f64, u32)| {
        let (virtual_s, wall) = engine_cell((kind, interval, executors), &Recorder::disabled());
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

/// Measures one report section.
type Builder = fn() -> Json;

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
    let mut regressed = 0;
    let mut stale = 0;
    for (gate, build) in &GATED {
        for check in gate.check(&committed, &build()) {
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
    for row in obs_overhead_rows() {
        println!("smoke obs_overhead {row} (no gate)");
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

    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // --- The engine matrix and the single-cell rows: the gated
    // sections, each cell best-of-N ---
    let [engine, gp, scenario, fleet] = GATED.map(|(gate, build)| (gate.section, build()));

    let report = json::obj(vec![
        ("schema", json::str("nostop-perf/1")),
        ("available_parallelism", json::uint(parallelism as u64)),
        ("engine_repeats", json::uint(REPEATS as u64)),
        engine,
        ("obs_overhead", Json::Arr(obs_overhead_rows())),
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
