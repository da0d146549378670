//! `fleet-steady`: many steady tenants under a fair-share budget below
//! their total peak demand, stepped on one phase-A worker.
//!
//! It is the only workload where `spark-sim::fleet` classification and
//! fast-forward, and `spark-sim::arbiter`, run. The superbatch closed
//! form carries the dense epochs, and constant rates make the rate layer
//! free.

use crate::layers::ArbiterReplay;
use crate::rep::{hasher, quantile, Histogram, Rep};
use nostop_core::arbiter::ArbiterPolicy;
use nostop_workloads::WorkloadKind;
use spark_sim::{FleetSim, TenantSpec};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Tenants in the fleet.
pub const TENANTS: u32 = 256;
/// Epochs (controller round + arbiter barrier) stepped.
pub const EPOCHS: u64 = 768;
/// Fleet-wide executor budget, below the tenants' total peak demand.
pub const BUDGET: u32 = 2_000;
/// Ledger tail length folded into a checkpoint, bounding memory.
const CHECKPOINT_CAPACITY: usize = 4_096;
/// Batches each tenant's listener retains — far more than one epoch
/// completes, which the quiescence classifier and the per-epoch
/// collection both need.
const METRICS_WINDOW: usize = 256;

/// The tenant specs: WordCount and PageAnalyze alternate, priorities run
/// 1–5, and every tenant seed derives from `seed` via `tenant_seed`.
pub fn specs(seed: u64, tenants: u32) -> Vec<TenantSpec> {
    (0..tenants)
        .map(|i| {
            let kind = if i % 2 == 0 {
                WorkloadKind::WordCount
            } else {
                WorkloadKind::PageAnalyze
            };
            let mut spec = TenantSpec::steady(kind, seed, i);
            spec.priority = 1 + i % 5;
            // Retention only: the benchmark collects every batch each
            // epoch, so the listeners need not hold the whole run.
            spec.params.metrics_window = METRICS_WINDOW;
            spec
        })
        .collect()
}

/// One repetition of `epochs` epochs over `tenants` tenants.
pub fn run_sized(seed: u64, traced: bool, tenants: u32, epochs: u64) -> Rep {
    let mut rep = Rep::default();
    let mut h = hasher();
    let setup = Instant::now();
    let specs = specs(seed, tenants);
    let policy = ArbiterPolicy::FairShare;
    let mut fleet = FleetSim::new(&specs, Some(BUDGET), policy);
    fleet.set_jobs(1);
    fleet.enable_ledger_checkpointing(CHECKPOINT_CAPACITY);
    let mut replay = traced.then(|| {
        ArbiterReplay::new(
            Some(BUDGET),
            policy,
            CHECKPOINT_CAPACITY,
            specs.iter().map(|s| s.priority).collect(),
        )
    });
    rep.setup_s = setup.elapsed().as_secs_f64();

    // The timed phase is the `step_epoch` calls alone; collecting each
    // epoch's batches and replaying its barrier happen between them.
    let n = tenants as usize;
    let mut cursors = vec![0u64; n];
    let mut records = vec![0u64; n];
    let mut jobs: Vec<Histogram> = (0..n).map(|_| Histogram::default()).collect();
    for _ in 0..epochs {
        let start = Instant::now();
        fleet.step_epoch();
        rep.layers.epoch_ns.push(start.elapsed().as_nanos() as u64);
        if let Some(replay) = replay.as_mut() {
            let start = Instant::now();
            replay.barrier(&fleet);
            rep.replay_s += start.elapsed().as_secs_f64();
        }
        for i in 0..n {
            let listener = fleet.tenant_system(i).engine().listener();
            let batches = listener.since(cursors[i]);
            rep.checks.require(
                batches.len() as u64 == listener.completed() - cursors[i],
                || format!("tenant {i}: listener evicted batches before collection"),
            );
            for m in batches {
                records[i] += m.records;
                rep.observe(&mut jobs[i], &m.to_observation(), &mut h);
            }
            cursors[i] = listener.completed();
        }
    }
    let wall_ns: u64 = rep.layers.epoch_ns.iter().sum();
    rep.wall_s = wall_ns as f64 * 1e-9;

    for (i, (&records, job)) in records.iter().zip(jobs).enumerate() {
        rep.end_job(job);
        let engine = fleet.tenant_system(i).engine();
        rep.batches += engine.listener().completed();
        rep.checks.conservation(engine, records);
        rep.finish_engine(engine, &mut h);
        rep.best_objectives.extend(
            fleet
                .tenant_controller(i)
                .best_config()
                .map(|(_, delay)| delay),
        );
    }
    let conservation = fleet.arbiter().check_conservation();
    rep.checks.require(conservation.is_ok(), || {
        format!("arbiter ledger conservation: {conservation:?}")
    });
    fleet.digest().hash(&mut h);
    rep.digest = h.finish();

    let l = &mut rep.layers;
    l.fleet_tenant_epochs = tenants as u64 * epochs;
    l.fleet_skipped = fleet.total_skipped_epochs();
    let stats = fleet.arbiter().stats();
    l.arbiter_queues = stats.queues;
    l.arbiter_coalesced = stats.coalesced_rounds;
    if let Some(replay) = replay {
        l.fleet_ns = l.epoch_ns.iter().sum();
        l.arbiter_barriers = replay.barriers;
        l.arbiter_sparse = replay.sparse;
        l.arbiter_ns = replay.ns;
        rep.checks.require(replay.mismatches == 0, || {
            format!(
                "{} replayed barriers granted differently",
                replay.mismatches
            )
        });
        rep.checks.require(replay.arbiter().stats() == stats, || {
            "replayed arbiter counters differ".to_string()
        });
    }
    rep
}

/// One repetition at the benchmark's size.
pub fn run(seed: u64, traced: bool) -> Rep {
    run_sized(seed, traced, TENANTS, EPOCHS)
}

/// The p-th quantile of the epoch times, milliseconds.
pub fn epoch_ms(epoch_ns: &[u64], q: f64) -> f64 {
    if epoch_ns.is_empty() {
        return 0.0;
    }
    let mut ms: Vec<f64> = epoch_ns.iter().map(|&ns| ns as f64 * 1e-6).collect();
    quantile(&mut ms, q)
}
