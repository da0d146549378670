//! High-dimensional tuner arena — writes `BENCH_tuners.json`.
//!
//! Races the paper's optimizer (SPSA, wrapped as a [`Tuner`] via
//! `SpsaTuner`) against Bayesian optimization, random search, and grid
//! search on the *same* simulated cluster, at two dimensionalities: the
//! paper's 2-knob `ConfigSpace::paper_default()` and the 8-knob
//! `ConfigSpace::extended()` surface. Every method gets an identical
//! evaluation budget per cell; grid search sizes its lattice to the
//! budget with `GridSearch::auto`, which at dim 8 already needs 256
//! points for the *minimum* 2-level lattice — the "prohibitively
//! time-consuming" story of §1, now quantified.
//!
//! Everything printed to **stdout** is a pure function of the arena
//! constants — trajectories, regrets, winners — so CI can diff the output
//! byte-for-byte across runs *and* across the incremental GP fast path
//! and its full-refit probe mode (`NOSTOP_PROBE=1`): the probe factorizes
//! the same kernel matrix with the same summation order, so BayesOpt's
//! proposals are bitwise identical either way. Wall-clock timings go to
//! **stderr** and — as `wall_ms`, best of `NOSTOP_PERF_REPEATS` runs —
//! into the report **file only**; each BayesOpt cell's stderr line also
//! carries the share of its candidate pools that reached the GP's exact
//! pass.
//!
//! The binary is also its own acceptance test: before writing anything it
//! drives two BayesOpt instances over the dim-8 space on a synthetic
//! objective — one pinned to the incremental GP, one to the full-refit
//! probe — and asserts every proposal is bitwise identical.

use nostop_baselines::{BayesOpt, GridSearch, RandomSearch, ScoringStats, SpsaTuner, Tuner};
use nostop_bench::driver::{make_system, paper_rate, run_tuner};
use nostop_bench::report::{best_of, repeats, with_wall};
use nostop_core::space::ConfigSpace;
use nostop_simcore::json::{self, Json};
use nostop_simcore::stats::mean;
use nostop_workloads::WorkloadKind;
use std::time::Instant;

/// Evaluation budget per cell: every method may spend exactly this many
/// configuration measurements (grid stops early if its lattice is
/// smaller).
const EVALS: usize = 48;
/// Seeds per (tuner, dim, workload) group — trajectories are averaged
/// across them, regret is computed per seed before averaging.
const SEEDS: [u64; 3] = [11, 22, 33];
/// The workloads raced (the two cheapest presets keep the arena fast).
const KINDS: [WorkloadKind; 2] = [WorkloadKind::WordCount, WorkloadKind::PageAnalyze];
/// The two configuration surfaces.
const DIMS: [usize; 2] = [2, 8];
/// The four methods, in report order.
const TUNERS: [&str; 4] = ["spsa", "bayesopt", "random", "grid"];

fn space_for(dim: usize) -> ConfigSpace {
    match dim {
        2 => ConfigSpace::paper_default(),
        8 => ConfigSpace::extended(),
        _ => unreachable!("arena dims are 2 and 8"),
    }
}

/// Build a fresh tuner for a cell. Each method gets its own decorrelated
/// RNG stream; grid search is deterministic and ignores the seed.
fn make_tuner(name: &str, dim: usize, seed: u64) -> Box<dyn Tuner> {
    let space = space_for(dim);
    match name {
        "spsa" => Box::new(SpsaTuner::new(space, seed.wrapping_mul(7) + 1)),
        "bayesopt" => Box::new(bayesopt(dim, seed)),
        "random" => Box::new(RandomSearch::new(space, seed.wrapping_mul(7) + 3)),
        "grid" => Box::new(GridSearch::auto(space, EVALS)),
        _ => unreachable!("unknown tuner {name}"),
    }
}

fn bayesopt(dim: usize, seed: u64) -> BayesOpt {
    BayesOpt::new(space_for(dim), seed.wrapping_mul(7) + 2)
}

/// One arena cell: a tuner racing on one workload at one seed.
#[derive(Clone, Copy)]
struct Cell {
    tuner: &'static str,
    dim: usize,
    kind: WorkloadKind,
    seed: u64,
}

/// The deterministic outcome of a cell (plus its host-dependent wall
/// time, which never reaches stdout).
struct CellOut {
    /// Best objective seen after evaluation `i`, padded to [`EVALS`] with
    /// the final value when the tuner finishes its budget early.
    best_so_far: Vec<f64>,
    /// Evaluations actually spent (36 for grid at dim 2, else 48).
    evals_used: usize,
    /// Virtual streaming seconds the search consumed.
    virtual_time_s: f64,
    wall_ms: f64,
    /// BayesOpt's candidates pooled and scored (stderr only).
    scoring: Option<ScoringStats>,
}

fn run_cell(cell: Cell) -> CellOut {
    let label = format!(
        "{} dim{} {} seed{}",
        cell.tuner,
        cell.dim,
        cell.kind.name(),
        cell.seed
    );
    let ((run, scoring), wall_ms) = best_of(
        repeats(1),
        &format!("{label}: trajectory"),
        || {
            let mut sys = make_system(
                cell.kind,
                cell.seed,
                paper_rate(cell.kind, cell.seed ^ 0x5EED),
            );
            if cell.tuner == "bayesopt" {
                let mut bo = bayesopt(cell.dim, cell.seed);
                let run = run_tuner(&mut bo, &mut sys, EVALS);
                (run, Some(bo.scoring_stats()))
            } else {
                let mut tuner = make_tuner(cell.tuner, cell.dim, cell.seed);
                (run_tuner(tuner.as_mut(), &mut sys, EVALS), None)
            }
        },
        |(run, _)| {
            run.history
                .iter()
                .map(|step| step.objective.to_bits())
                .collect::<Vec<_>>()
        },
    );

    let mut best = f64::INFINITY;
    let mut best_so_far = Vec::with_capacity(EVALS);
    for step in &run.history {
        best = best.min(step.objective);
        best_so_far.push(best);
    }
    assert!(best.is_finite(), "{label}: no finite evaluation");
    while best_so_far.len() < EVALS {
        best_so_far.push(best);
    }
    CellOut {
        best_so_far,
        evals_used: run.history.len(),
        virtual_time_s: run.virtual_time_s,
        wall_ms,
        scoring,
    }
}

/// The in-binary acceptance gate: BayesOpt's proposal stream must be
/// bitwise identical whether the GP surrogate extends its Cholesky
/// factor incrementally or refits from scratch. Runs over the dim-8
/// space on a cheap synthetic objective so the gate costs milliseconds.
fn assert_gp_modes_propose_identically() -> usize {
    let space = space_for(8);
    let synthetic = |p: &[f64]| -> f64 {
        p.iter()
            .enumerate()
            .map(|(i, &x)| (x - (i as f64 + 1.0)).powi(2) * 1e-3)
            .sum()
    };
    let mut fast = BayesOpt::new(space.clone(), 4242).with_gp_incremental(true);
    let mut probe = BayesOpt::new(space, 4242).with_gp_incremental(false);
    let iters = 40;
    for step in 0..iters {
        let a = fast.propose();
        let b = probe.propose();
        let identical =
            a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(
            identical,
            "GP mode gate: proposals diverged at step {step}: {a:?} vs {b:?}"
        );
        let y = synthetic(&a);
        fast.observe(&a, y);
        probe.observe(&b, y);
    }
    eprintln!("gp mode gate: {iters} proposals bitwise identical (incremental vs refit)");
    iters
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_tuners.json".to_string());

    let gate_iters = assert_gp_modes_propose_identically();

    // Fixed cell order: tuner-major, then dim, workload, seed.
    let mut cells = Vec::new();
    for tuner in TUNERS {
        for dim in DIMS {
            for kind in KINDS {
                for seed in SEEDS {
                    cells.push(Cell {
                        tuner,
                        dim,
                        kind,
                        seed,
                    });
                }
            }
        }
    }
    let arena_start = Instant::now();
    let outs: Vec<_> = cells.iter().map(|cell| run_cell(*cell)).collect();
    for (cell, out) in cells.iter().zip(&outs) {
        // BayesOpt's scored fraction: the share of its candidate pools
        // that reached the GP's exact pass.
        let scored = out.scoring.map_or(String::new(), |s| {
            format!(
                "  scored {:.1}%",
                100.0 * s.scored as f64 / s.pooled.max(1) as f64
            )
        });
        eprintln!(
            "cell {:<9} dim{} {:<12} seed{:<3} {:>2} evals  {:>8.1} ms{scored}",
            cell.tuner,
            cell.dim,
            cell.kind.name(),
            cell.seed,
            out.evals_used,
            out.wall_ms
        );
    }

    let cell_index = |tuner: &str, dim: usize, kind: WorkloadKind, seed: u64| -> usize {
        cells
            .iter()
            .position(|c| c.tuner == tuner && c.dim == dim && c.kind == kind && c.seed == seed)
            .expect("cell exists")
    };

    // Oracle per (dim, workload, seed): the best final objective any
    // method reached in that group — regret is measured against it.
    let oracle = |dim: usize, kind: WorkloadKind, seed: u64| -> f64 {
        TUNERS
            .iter()
            .map(|t| {
                *outs[cell_index(t, dim, kind, seed)]
                    .best_so_far
                    .last()
                    .expect("padded to EVALS")
            })
            .fold(f64::INFINITY, f64::min)
    };

    // One report row per (tuner, dim, workload): trajectories and
    // regrets averaged across seeds in fixed order.
    let mut rows = Vec::new();
    for tuner in TUNERS {
        for dim in DIMS {
            for kind in KINDS {
                let group: Vec<usize> = SEEDS
                    .iter()
                    .map(|&s| cell_index(tuner, dim, kind, s))
                    .collect();
                let trajectory: Vec<f64> = (0..EVALS)
                    .map(|i| {
                        mean(
                            &group
                                .iter()
                                .map(|&c| outs[c].best_so_far[i])
                                .collect::<Vec<_>>(),
                        )
                    })
                    .collect();
                let regret_trajectory: Vec<f64> = (0..EVALS)
                    .map(|i| {
                        mean(
                            &group
                                .iter()
                                .zip(SEEDS)
                                .map(|(&c, s)| outs[c].best_so_far[i] - oracle(dim, kind, s))
                                .collect::<Vec<_>>(),
                        )
                    })
                    .collect();
                let evals_used = outs[group[0]].evals_used;
                assert!(
                    group.iter().all(|&c| outs[c].evals_used == evals_used),
                    "{tuner} dim{dim}: evaluation count must not depend on the seed"
                );
                let virtual_time_mean = mean(
                    &group
                        .iter()
                        .map(|&c| outs[c].virtual_time_s)
                        .collect::<Vec<_>>(),
                );
                let wall_ms: f64 = group.iter().map(|&c| outs[c].wall_ms).sum();
                let row = json::obj(vec![
                    ("tuner", json::str(tuner)),
                    ("dim", json::uint(dim as u64)),
                    ("workload", json::str(kind.name())),
                    ("evaluations_used", json::uint(evals_used as u64)),
                    (
                        "best_objective_mean",
                        json::num(*trajectory.last().expect("EVALS > 0")),
                    ),
                    (
                        "final_regret_mean",
                        json::num(*regret_trajectory.last().expect("EVALS > 0")),
                    ),
                    ("virtual_time_s_mean", json::num(virtual_time_mean)),
                    ("trajectory", json::f64_array(&trajectory)),
                    ("regret_trajectory", json::f64_array(&regret_trajectory)),
                ]);
                rows.push((row, wall_ms));
            }
        }
    }

    // Per-(dim, workload) summary: the winning method and the group
    // oracle, plus grid's structural footprint at that dimensionality.
    let mut summaries = Vec::new();
    for dim in DIMS {
        for kind in KINDS {
            let final_mean = |t: &str| {
                mean(
                    &SEEDS
                        .iter()
                        .map(|&s| {
                            *outs[cell_index(t, dim, kind, s)]
                                .best_so_far
                                .last()
                                .expect("padded")
                        })
                        .collect::<Vec<_>>(),
                )
            };
            let winner = TUNERS
                .iter()
                .min_by(|a, b| final_mean(a).total_cmp(&final_mean(b)))
                .expect("tuners non-empty");
            let oracle_mean = mean(
                &SEEDS
                    .iter()
                    .map(|&s| oracle(dim, kind, s))
                    .collect::<Vec<_>>(),
            );
            summaries.push(json::obj(vec![
                ("dim", json::uint(dim as u64)),
                ("workload", json::str(kind.name())),
                ("winner", json::str(*winner)),
                ("winner_best_mean", json::num(final_mean(winner))),
                ("oracle_best_mean", json::num(oracle_mean)),
                (
                    "grid_lattice_points",
                    json::uint(GridSearch::auto(space_for(dim), EVALS).total_points() as u64),
                ),
            ]));
        }
    }

    let arena_wall = arena_start.elapsed().as_secs_f64();
    eprintln!("arena: {} cells in {arena_wall:.1} s", cells.len());

    // Two renderings: stdout is a pure function of the arena constants
    // for CI byte-diffs; the file additionally carries wall times.
    let render = |with_timings: bool| {
        let picked: Vec<Json> = rows
            .iter()
            .map(|(row, wall)| {
                if with_timings {
                    with_wall(row, *wall)
                } else {
                    row.clone()
                }
            })
            .collect();
        json::obj(vec![
            ("schema", json::str("nostop-tuners/1")),
            (
                "arena",
                json::obj(vec![
                    ("evaluations_per_cell", json::uint(EVALS as u64)),
                    ("seeds_per_group", json::uint(SEEDS.len() as u64)),
                    (
                        "dims",
                        Json::Arr(DIMS.iter().map(|&d| json::uint(d as u64)).collect()),
                    ),
                    (
                        "workloads",
                        Json::Arr(KINDS.iter().map(|k| json::str(k.name())).collect()),
                    ),
                    (
                        "tuners",
                        Json::Arr(TUNERS.iter().map(|t| json::str(*t)).collect()),
                    ),
                ]),
            ),
            (
                "gp_mode_gate",
                json::obj(vec![
                    ("proposals_compared", json::uint(gate_iters as u64)),
                    ("bitwise_identical", Json::Bool(true)),
                ]),
            ),
            ("rows", Json::Arr(picked)),
            ("summary", Json::Arr(summaries.clone())),
        ])
    };

    let file_text = render(true).to_string_pretty();
    std::fs::write(&path, format!("{file_text}\n")).expect("write BENCH_tuners.json");
    println!("{}", render(false).to_string_pretty());
    eprintln!("wrote {path}");
}
