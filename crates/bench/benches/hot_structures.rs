//! Microbenches for the DES hot-path structures, one per optimization:
//! the per-job stage-cost memo vs recomputing the cost kernel per task,
//! the ziggurat normal sampler, the direct JSON writer/parser for the
//! wire-format boundary, the superbatch closed form, the fleet fast path
//! and the incremental GP. These pin the wins the engine-level numbers in
//! `BENCH_perf.json` are built from.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nostop_core::listener::StatusReport;
use nostop_simcore::{SimDuration, SimRng, SimTime};
use nostop_workloads::{block_prefix, round_duration_us, CostModel, JobCostTable, WorkloadKind};
use spark_sim::cluster::Cluster;
use spark_sim::executor::ExecutorManager;
use spark_sim::noise::{NoiseModel, NoiseParams};
use spark_sim::scheduler::simulate_job;
use spark_sim::{JobScratch, SuperbatchArm, SuperbatchStats};
use std::hint::black_box;

fn bench_task_kernel(c: &mut Criterion) {
    // One job's worth of task costs: the memoized table computes each
    // stage class once, the old path re-derived the kernel per task.
    const TASKS_PER_STAGE: u32 = 64;
    const STAGES: u32 = 6;
    const RECORDS: u64 = 1_800_000;
    let cost = CostModel::preset(WorkloadKind::WordCount);
    let base = RECORDS / TASKS_PER_STAGE as u64;
    let mut group = c.benchmark_group("task_kernel");
    group.throughput(Throughput::Elements((TASKS_PER_STAGE * STAGES) as u64));
    group.bench_function("memoized_table", |b| {
        b.iter(|| {
            let table = JobCostTable::new(&cost, RECORDS, TASKS_PER_STAGE, STAGES);
            let mut acc = 0.0;
            for s in 0..STAGES {
                let sc = table.stage(s);
                for task in 0..TASKS_PER_STAGE {
                    let bucket = (task as u64 % 2) as usize;
                    acc += sc.cpu_us[bucket] + sc.shuffle_bytes[bucket];
                }
            }
            black_box(acc)
        });
    });
    group.bench_function("per_task_kernel", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for s in 0..STAGES {
                for task in 0..TASKS_PER_STAGE {
                    let recs = base + task as u64 % 2;
                    let mut w = cost.task_cpu_us(recs);
                    if s + 1 == STAGES {
                        w += cost.sink_us(recs);
                    }
                    let shuffle = if s > 0 { cost.shuffle_bytes(recs) } else { 0.0 };
                    acc += w + shuffle;
                }
            }
            black_box(acc)
        });
    });
    group.finish();
}

fn bench_normal_sampler(c: &mut Criterion) {
    let mut group = c.benchmark_group("rng");
    group.throughput(Throughput::Elements(1));
    group.bench_function("standard_normal", |b| {
        let mut rng = SimRng::seed_from_u64(11);
        b.iter(|| black_box(rng.standard_normal()));
    });
    group.bench_function("noise_factor", |b| {
        let mut rng = SimRng::seed_from_u64(11);
        b.iter(|| black_box(rng.noise_factor(0.08)));
    });
    group.finish();
}

fn bench_json_boundary(c: &mut Criterion) {
    let report = StatusReport {
        batch_id: 4217,
        submission_time_ms: 63_255_000,
        processing_start_time_ms: 63_255_040,
        processing_end_time_ms: 63_268_912,
        num_records: 1_800_000,
        arrived_records: 1_800_321,
        batch_interval_ms: 15_000,
        ingest_window_ms: 15_000,
        num_executors: 14,
        queued_batches: 2,
        executor_failures: 1,
    };
    let encoded = report.to_json();
    let mut group = c.benchmark_group("json_boundary");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("write_reuse_buffer", |b| {
        let mut buf = String::with_capacity(encoded.len());
        b.iter(|| {
            buf.clear();
            report.write_json(&mut buf);
            black_box(buf.len())
        });
    });
    group.bench_function("parse_canonical", |b| {
        b.iter(|| black_box(StatusReport::from_json(&encoded).expect("valid report")));
    });
    group.finish();
}

/// The superbatch arithmetic alone: one executor block of 75 tasks, closed
/// form (`block_prefix` over the pre-drawn noise burst) vs the exact
/// path's per-task arithmetic for the same quiet block (contention and
/// slowdown multiplies by 1.0, round-half-up quantization, busy
/// accumulation). The arithmetic is deliberately near-identical — the
/// closed form's engine-level win comes from skipping the per-task
/// contention/fault queries and memo machinery, which the job-level rows
/// below capture.
fn bench_superbatch_kernel(c: &mut Criterion) {
    const TASKS: usize = 75;
    let mut rng = SimRng::seed_from_u64(13);
    let mut factors = [0.0; TASKS];
    rng.fill_lognormal_into(-0.02, 0.2, &mut factors);
    let (work0, work1) = (61_000.0f64, 61_800.0f64);
    let rem = 40u32;
    let mut group = c.benchmark_group("superbatch_kernel");
    group.throughput(Throughput::Elements(TASKS as u64));
    group.bench_function("closed_form_block", |b| {
        b.iter(|| {
            black_box(block_prefix(
                black_box(1_000_000),
                work0,
                work1,
                0,
                rem,
                &factors,
            ))
        });
    });
    group.bench_function("per_task_loop", |b| {
        b.iter(|| {
            let mut t = black_box(1_000_000u64);
            let mut busy = 0u64;
            for (i, &f) in factors.iter().enumerate() {
                let w = if (i as u32) < rem { work1 } else { work0 };
                let d = round_duration_us(w * f * black_box(1.0) * black_box(1.0));
                t += d;
                busy += d;
            }
            black_box((t, busy))
        });
    });
    group.finish();
}

/// The whole job: armed (per-block closed form) vs unarmed (exact per-task
/// loop) `simulate_job` on a quiet heterogeneous cluster — the end-to-end
/// form of the superbatch fast path, bit-identical by the differential
/// tests, measured here for speed.
fn bench_superbatch_job(c: &mut Criterion) {
    let mut m = ExecutorManager::new(Cluster::paper_heterogeneous(), SimDuration::ZERO);
    m.bootstrap(14);
    let cost = CostModel::preset(WorkloadKind::WordCount);
    let params = NoiseParams {
        contention_mean_gap_s: 1e9, // quiet by construction
        ..NoiseParams::default()
    };
    let mut group = c.benchmark_group("superbatch_job");
    group.throughput(Throughput::Elements(1));
    for (label, armed) in [("exact_per_task", false), ("closed_form_armed", true)] {
        group.bench_function(label, |b| {
            let mut noise = NoiseModel::new(params, 5, SimRng::seed_from_u64(11));
            let mut stats = SuperbatchStats::default();
            let mut scratch = JobScratch::new();
            let mut execs = m.executors().to_vec();
            b.iter(|| {
                let arm = armed.then_some(SuperbatchArm {
                    use_fast: true,
                    stats: &mut stats,
                });
                black_box(simulate_job(
                    &cost,
                    1_800_000,
                    SimDuration::from_secs(15),
                    SimDuration::from_millis(200),
                    SimTime::from_secs_f64(50.0),
                    &mut execs,
                    SimDuration::ZERO,
                    &mut noise,
                    2,
                    None,
                    &mut scratch,
                    None,
                    arm,
                    &nostop_obs::Recorder::disabled(),
                ))
            });
        });
    }
    group.finish();
}

/// The fleet fast path's per-boundary costs: the structural quiescence
/// probe the classifier runs on every parked tenant, and the
/// delta-driven arbiter barrier against the dense pass for a 100-tenant
/// fleet at a steady-demand barrier — the case the sparse entry point
/// exists for.
fn bench_fleet_fastpath(c: &mut Criterion) {
    use nostop_core::arbiter::{ArbiterPolicy, ResourceRequest};
    use spark_sim::arbiter::ExecutorArbiter;
    use spark_sim::fleet::{FleetSim, TenantSpec};

    // A parked steady tenant well into its periodic orbit: the probe is
    // what classification pays per tenant per boundary.
    let mut fleet = FleetSim::new(
        &[TenantSpec::steady(WorkloadKind::WordCount, 7, 0)],
        None,
        ArbiterPolicy::FairShare,
    );
    fleet.run_epochs(40);
    let engine = fleet.tenant_system(0).engine();
    let mut group = c.benchmark_group("fleet_quiescence");
    group.throughput(Throughput::Elements(1));
    group.bench_function("probe", |b| {
        b.iter(|| black_box(engine.quiescence_probe()));
    });
    group.finish();

    const TENANTS: u32 = 100;
    let reqs: Vec<ResourceRequest> = (0..TENANTS)
        .map(|t| ResourceRequest {
            tenant: t,
            priority: 1 + t % 5,
            want: 4 + t % 7,
        })
        .collect();
    let seeded = || {
        let mut arb = ExecutorArbiter::new(Some(1_000), ArbiterPolicy::FairShare, 3);
        arb.enable_ledger_checkpointing(4_096);
        arb.arbitrate(0, SimTime::ZERO, &reqs);
        arb
    };
    let mut group = c.benchmark_group("arbiter_barrier_100");
    group.throughput(Throughput::Elements(TENANTS as u64));
    group.bench_function("dense_unchanged", |b| {
        let mut arb = seeded();
        let mut epoch = 0u64;
        b.iter(|| {
            epoch += 1;
            black_box(arb.arbitrate(epoch, SimTime::from_secs_f64(epoch as f64), &reqs))
        });
    });
    group.bench_function("sparse_unchanged", |b| {
        let mut arb = seeded();
        let mut epoch = 0u64;
        b.iter(|| {
            epoch += 1;
            let grants = arb
                .arbitrate_sparse(epoch, SimTime::from_secs_f64(epoch as f64), &reqs, &[])
                .expect("steady barrier is licensed");
            black_box(grants)
        });
    });
    group.bench_function("sparse_one_changed", |b| {
        let mut arb = seeded();
        let mut reqs = reqs.clone();
        let mut epoch = 0u64;
        b.iter(|| {
            epoch += 1;
            reqs[0].want = 4 + (epoch % 2) as u32;
            let grants = arb
                .arbitrate_sparse(epoch, SimTime::from_secs_f64(epoch as f64), &reqs, &[0])
                .expect("single riser is licensed");
            black_box(grants)
        });
    });
    group.finish();
}

/// The incremental GP fast path against the O(n³) refit probe: one `add`
/// into a GP already holding `n` observations, plus the batched posterior
/// sweep BayesOpt runs per proposal. The two arms produce bitwise-
/// identical models (pinned by `tests/gp_differential.rs`); only the cost
/// differs — the ISSUE gate is incremental ≥5× at n = 256.
fn bench_gp_fast_path(c: &mut Criterion) {
    use criterion::BatchSize;
    use nostop_baselines::gp::{GaussianProcess, Kernel};

    let make_points = |count: usize, seed: u64| -> Vec<(Vec<f64>, f64)> {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let x: Vec<f64> = (0..8).map(|_| rng.uniform(1.0, 20.0)).collect();
                let y = rng.uniform(-10.0, 10.0);
                (x, y)
            })
            .collect()
    };
    let seeded_gp = |n: usize, incremental: bool| -> GaussianProcess {
        let mut gp = GaussianProcess::new(Kernel::default()).with_incremental(incremental);
        for (x, y) in make_points(n, 17) {
            gp.add(x, y);
        }
        gp
    };

    for n in [64usize, 256] {
        let (next_x, next_y) = make_points(1, 99).pop().expect("one point");
        let mut group = c.benchmark_group(format!("gp_add_{n}"));
        group.throughput(Throughput::Elements(1));
        for (label, incremental) in [("incremental", true), ("refit", false)] {
            let base = seeded_gp(n, incremental);
            group.bench_function(label, |b| {
                b.iter_batched(
                    || base.clone(),
                    |mut gp| {
                        gp.add(next_x.clone(), next_y);
                        black_box(gp.len())
                    },
                    BatchSize::SmallInput,
                );
            });
        }
        group.finish();
    }

    // The per-proposal scoring sweep at BayesOpt's shape: its 256-candidate
    // pool at n = 256, dim 8, through the tiled batch vs 256 independent
    // posterior calls (the per-point reference).
    const CANDIDATES: usize = 256;
    let gp = seeded_gp(256, true);
    let cands: Vec<Vec<f64>> = make_points(CANDIDATES, 23)
        .into_iter()
        .map(|(x, _)| x)
        .collect();
    let mut group = c.benchmark_group("gp_posterior_256");
    group.throughput(Throughput::Elements(CANDIDATES as u64));
    group.bench_function("batched", |b| {
        b.iter(|| black_box(gp.posterior_batch(&cands)));
    });
    group.bench_function("per_point", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for cand in &cands {
                let (m, v) = gp.posterior(cand);
                acc += m + v;
            }
            black_box(acc)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_task_kernel,
    bench_normal_sampler,
    bench_json_boundary,
    bench_superbatch_kernel,
    bench_superbatch_job,
    bench_fleet_fastpath,
    bench_gp_fast_path
);
criterion_main!(benches);
