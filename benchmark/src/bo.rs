//! `bo-dim8`: `BayesOpt` over the 8-knob `ConfigSpace::extended()`, one
//! cell per paper workload, driven by `driver::run_tuner`'s protocol
//! (settle, then measure 3 batches).
//!
//! The GP carries the run: `propose` scores a batched posterior over 256
//! candidates and `observe` is an incremental add. Extended applies
//! disarm the superbatch closed form, so the engine runs its exact path —
//! the contrast workload for any engine change.

use crate::layers::{record_rate, TimedSystem, TimedTuner};
use crate::rep::{hasher, Histogram, Rep};
use nostop_baselines::{BayesOpt, Tuner};
use nostop_bench::driver::{
    make_system, paper_rate, penalized_objective, run_tuner, stats_of,
};
use nostop_core::space::ConfigSpace;
use nostop_core::system::{BatchObservation, StreamingSystem};
use nostop_simcore::SimRng;
use nostop_workloads::WorkloadKind;
use spark_sim::SimSystem;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

/// Evaluations per (workload, seed) cell.
pub const EVALUATIONS: usize = 256;
/// Cells per paper workload in one repetition.
const CELLS_PER_KIND: u64 = 2;
/// `run_tuner`'s protocol: at most this many settling batches after each
/// apply, then this many measured ones.
const SETTLE_CAP: usize = 15;
const MEASURED: usize = 3;

/// `driver::run_tuner` on a timed system. `run_tuner` takes a bare
/// `SimSystem`, so no wrapper can reach its system calls; this repeats
/// its protocol call for call instead. The traced run must reproduce the
/// untraced run's output digest, which holds the two to the same work.
fn run_tuner_timed(tuner: &mut dyn Tuner, sys: &mut TimedSystem, iterations: usize) {
    for _ in 0..iterations {
        if tuner.finished() {
            break;
        }
        let physical = tuner.propose();
        sys.apply_config(&physical);
        for _ in 0..SETTLE_CAP {
            let b = sys.next_batch();
            if (b.interval_s - physical[0]).abs() < 0.051 && b.queued_batches == 0 {
                break;
            }
        }
        let window: Vec<BatchObservation> = (0..MEASURED).map(|_| sys.next_batch()).collect();
        tuner.observe(&physical, penalized_objective(physical[0], &stats_of(&window)));
    }
}

/// Every stream of one cell, derived from the repetition seed.
struct Seeds {
    engine: u64,
    rate: u64,
    tuner: u64,
}

fn seeds(seed: u64, cell: u64) -> Seeds {
    let root = SimRng::seed_from_u64(seed);
    Seeds {
        engine: root.fork(0x40 + cell).next_u64(),
        rate: root.fork(0x50 + cell).next_u64(),
        tuner: root.fork(0x60 + cell).next_u64(),
    }
}

fn tuner(s: &Seeds) -> BayesOpt {
    BayesOpt::new(ConfigSpace::extended(), s.tuner)
}

/// Score one finished cell: every batch its engine completed, record
/// conservation, and the tuner's best objective.
fn finish(sys: &SimSystem, best: Option<(Vec<f64>, f64)>, rep: &mut Rep, h: &mut DefaultHasher) {
    let engine = sys.engine();
    let listener = engine.listener();
    let history = listener.history();
    rep.checks
        .require(listener.completed() == history.len() as u64, || {
            "listener evicted batches; shorten the cell".to_string()
        });
    rep.batches += listener.completed();
    let mut records = 0u64;
    let mut job = Histogram::default();
    for m in history {
        records += m.records;
        rep.observe(&mut job, &m.to_observation(), h);
    }
    rep.end_job(job);
    rep.checks.conservation(engine, records);
    rep.finish_engine(engine, h);
    if let Some((physical, objective)) = best {
        rep.best_objectives.push(objective);
        physical.iter().for_each(|x| x.to_bits().hash(h));
    }
}

/// One repetition at the benchmark's size.
pub fn run(seed: u64, traced: bool) -> Rep {
    run_sized(seed, traced, EVALUATIONS)
}

/// One repetition: `CELLS_PER_KIND` cells for each paper workload, each
/// of `evaluations` evaluations.
pub fn run_sized(seed: u64, traced: bool, evaluations: usize) -> Rep {
    let mut rep = Rep::default();
    let mut h = hasher();
    let plan: Vec<(WorkloadKind, Seeds)> = (0..CELLS_PER_KIND)
        .flat_map(|round| WorkloadKind::ALL.iter().map(move |&kind| (kind, round)))
        .enumerate()
        .map(|(i, (kind, _))| (kind, seeds(seed, i as u64)))
        .collect();
    let setup = Instant::now();
    if !traced {
        let mut cells: Vec<(SimSystem, BayesOpt)> = plan
            .iter()
            .map(|(kind, s)| {
                (
                    make_system(*kind, s.engine, paper_rate(*kind, s.rate)),
                    tuner(s),
                )
            })
            .collect();
        rep.setup_s = setup.elapsed().as_secs_f64();
        let start = Instant::now();
        for (sys, bo) in &mut cells {
            run_tuner(bo, sys, evaluations);
        }
        rep.wall_s = start.elapsed().as_secs_f64();
        for (sys, bo) in &cells {
            finish(sys, bo.best(), &mut rep, &mut h);
            rep.layers.tuner_evals += bo.evaluations() as u64;
        }
    } else {
        let mut cells: Vec<_> = plan
            .iter()
            .map(|(kind, s)| {
                let (kind, rate_seed) = (*kind, s.rate);
                let (rate, replay) = record_rate(|| paper_rate(kind, rate_seed));
                (
                    TimedSystem::new(make_system(kind, s.engine, rate)),
                    TimedTuner::new(tuner(s)),
                    replay,
                )
            })
            .collect();
        rep.setup_s = setup.elapsed().as_secs_f64();
        let start = Instant::now();
        for (sys, bo, _) in &mut cells {
            run_tuner_timed(bo, sys, evaluations);
        }
        rep.wall_s = start.elapsed().as_secs_f64();
        for (sys, bo, mut rate) in cells {
            let TimedSystem {
                inner,
                ns,
                reconfigs,
                mut wire,
            } = sys;
            finish(&inner, bo.best(), &mut rep, &mut h);
            let replays = Instant::now();
            wire.replay();
            // Dropping the engine flushes the rate wrapper's last chunk.
            drop(inner);
            rate.replay();
            rep.replay_s += replays.elapsed().as_secs_f64();
            let l = &mut rep.layers;
            l.tuner_evals += bo.evaluations() as u64;
            l.propose_ns += bo.propose_ns;
            l.observe_ns += bo.observe_ns;
            l.rate_calls += rate.calls_replayed;
            l.rate_ns += rate.ns;
            l.wire_reports += wire.reports;
            l.wire_ns += wire.ns;
            l.system_ns += ns;
            l.engine_reconfigs += reconfigs;
            rep.checks.require(rate.mismatches == 0, || {
                format!("{} replayed rate values differ", rate.mismatches)
            });
            rep.checks.require(wire.mismatches == 0, || {
                format!("{} replayed status reports differ", wire.mismatches)
            });
        }
    }
    rep.digest = h.finish();
    rep
}
