//! Observability overhead: the disabled path must be free.
//!
//! The acceptance bar for the trace layer is that an engine with the
//! default (disabled) recorder runs within noise of the pre-obs engine —
//! each instrumented site costs one predictable cold branch. The
//! `disabled` arm is the default engine, the path `perf_report`'s engine
//! matrix times; the `ring` arm prices what turning the recorder on
//! actually costs, so the gap between the two is the full
//! instrumentation bill. Built with `--features obs-off`, both arms
//! compile to the identical uninstrumented binary.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use nostop_datagen::rate::ConstantRate;
use nostop_obs::Recorder;
use nostop_simcore::SimDuration;
use nostop_workloads::WorkloadKind;
use spark_sim::{EngineParams, StreamConfig, StreamingEngine};
use std::hint::black_box;

const BATCHES: u64 = 50;

fn engine_for(kind: WorkloadKind) -> StreamingEngine {
    let (lo, hi) = kind.paper_rate_range();
    StreamingEngine::new(
        EngineParams::paper(kind, 42),
        StreamConfig::new(SimDuration::from_secs_f64(10.0), 16),
        Box::new(ConstantRate::new((lo + hi) / 2.0)),
    )
}

fn bench_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    group.throughput(Throughput::Elements(BATCHES));
    for kind in [WorkloadKind::WordCount, WorkloadKind::LogisticRegression] {
        group.bench_function(format!("{}/disabled", kind.name()), |b| {
            b.iter_batched(
                || engine_for(kind),
                |mut engine| {
                    engine.run_batches(BATCHES);
                    black_box(engine.listener().completed())
                },
                BatchSize::SmallInput,
            );
        });
        group.bench_function(format!("{}/ring", kind.name()), |b| {
            b.iter_batched(
                || {
                    let mut engine = engine_for(kind);
                    engine.set_recorder(&Recorder::ring(1 << 14));
                    engine
                },
                |mut engine| {
                    engine.run_batches(BATCHES);
                    black_box(engine.listener().completed())
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
