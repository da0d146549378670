//! Experiment harness for the NoStop reproduction.
//!
//! Every table and figure in the paper's evaluation (§6) has a regenerator
//! binary in `src/bin/`. Experiments run on one of two driver stacks, so
//! that NoStop, Bayesian optimization, back pressure and the static
//! default are measured by identical procedures on identical simulated
//! clusters: [`driver`] (`make_system`/`paper_rate`, `measure_config`,
//! `run_tuner`, `run_backpressure`) and [`scenario`] (a parsed
//! `nostop-scenario/1` spec run through `build_system`/`run_method`). Both
//! share `driver::measure_config`'s settle-and-measure protocol. The
//! binaries that sweep one mechanism at a fixed configuration share
//! `driver::steady_window` (constant rate, warm-up, then a window of
//! batches). [`report`] renders aligned tables and CSV blocks for
//! EXPERIMENTS.md, and [`smoke`] is `perf_report --smoke`'s comparator.
//!
//! | Binary | Reproduces | Stack |
//! |---|---|---|
//! | `table2` | Table 2 — cluster inventory | — |
//! | `fig2` | Fig. 2 — batch interval vs processing time / schedule delay | `driver::steady_window` |
//! | `fig3` | Fig. 3 — executor count vs processing time / schedule delay | `driver::steady_window` |
//! | `fig5` | Fig. 5 — varying input-rate traces for the four workloads | `scenario` |
//! | `fig6` | Fig. 6 — optimization evolution per workload | `driver` + `scenario` |
//! | `fig7` | Fig. 7 — improvement over the default configuration | `driver` |
//! | `fig8` | Fig. 8 — SPSA vs Bayesian optimization | `driver` |
//! | `backpressure_cmp` | abstract — NoStop vs Spark Back Pressure | `driver` |
//! | `ablation_gains` | §5.6 — gain-sequence choices | `driver` |
//! | `ablation_penalty` | §4.2.2 — penalty ramp and cap | `driver` |
//! | `ablation_window` | §5.4 — metric-collection rules | `driver::steady_window` |
//! | `ablation_reset` | §5.5 — input-rate reset rule | `driver` |
//! | `ablation_speculation` | speculative execution on the heterogeneous cluster | `driver::steady_window` |
//! | `chaos_report` | fault grid for every method → `BENCH_chaos.json` | `scenario` |
//! | `fleet_report` | multi-tenant fleet + arbiter → `BENCH_fleet.json` | fleet |
//! | `perf_report` | throughput trajectory → `BENCH_perf.json` | `driver` + `scenario` |
//! | `scenario_runner` | the `scenarios/` corpus → `BENCH_scenarios.json` | `scenario` |
//! | `trace_report` | instrumented runs → `trace_report.jsonl` | `driver` |
//! | `tuner_report` | SPSA/BO/random/grid tuner arena → `BENCH_tuners.json` | `driver` |

pub mod driver;
pub mod parallel;
pub mod report;
pub mod scenario;
pub mod smoke;
