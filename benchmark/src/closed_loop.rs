//! `closed-loop-bursty`: the paper's closed loop under hostile arrivals.
//!
//! One NoStop controller per paper workload runs on the Table-2 cluster
//! with noise on. Arrivals are the paper's uniform-random rate range
//! wrapped in flash crowds, and hot-key skew stretches every job. Config
//! churn and rate jumps keep the superbatch closed form mostly off, so
//! the exact scheduler/noise path, the rate combinators and the
//! controller carry the run; the arbiter and the GP do not run.

use crate::layers::{record_rate, RateReplay, TimedSystem, REPLAY_AT};
use crate::rep::{hasher, Histogram, Rep};
use nostop_bench::driver::nostop_config;
use nostop_core::controller::{NoStop, RoundOutcome};
use nostop_core::scenario::SkewSpec;
use nostop_core::system::StreamingSystem;
use nostop_datagen::rate::{RateProcess, RateSpec, RateSpecExt};
use nostop_simcore::SimRng;
use nostop_workloads::WorkloadKind;
use spark_sim::{BatchMetrics, EngineParams, SimSystem, StreamConfig, StreamingEngine};
use std::hash::DefaultHasher;
use std::time::Instant;

/// Virtual seconds each controller runs.
pub const HORIZON_S: f64 = 40.0 * 3600.0;

/// Hot-partition weight of the skew. With 4 the stable fraction sits
/// well inside (0, 1), so behaviour changes move it.
const HOT_WEIGHT: f64 = 4.0;

/// The paper's uniform-random range for `kind`, redrawn every 30 s,
/// inside Poisson flash crowds of Pareto magnitude.
pub fn rate_spec(kind: WorkloadKind) -> RateSpec {
    let (min_rate, max_rate) = kind.paper_rate_range();
    RateSpec::FlashCrowd {
        base: Box::new(RateSpec::UniformRandom {
            min_rate,
            max_rate,
            hold_secs: 30.0,
        }),
        mean_gap_secs: 900.0,
        crowd_secs: 120.0,
        pareto_shape: 1.5,
        min_magnitude: 1.3,
        max_magnitude: 3.0,
    }
}

/// The engine parameters for `kind`: Table-2 cluster, noise on, hot keys.
pub fn engine_params(kind: WorkloadKind, seed: u64) -> EngineParams {
    let mut params = EngineParams::paper(kind, seed);
    params.skew = SkewSpec::HotKey {
        hot_fraction: 0.125,
        hot_weight: HOT_WEIGHT,
    };
    params
}

/// Every stream of one controller, derived from the repetition seed.
struct Seeds {
    engine: u64,
    rate: SimRng,
    controller: u64,
}

fn seeds(seed: u64, cell: u64) -> Seeds {
    let root = SimRng::seed_from_u64(seed);
    Seeds {
        engine: root.fork(0x10 + cell).next_u64(),
        rate: root.fork(0x20 + cell),
        controller: root.fork(0x30 + cell).next_u64(),
    }
}

/// How the timed loop reaches a system: bare, or through the wrappers.
trait Harness {
    fn round(&mut self, ns: &mut NoStop) -> RoundOutcome;
    fn engine_mut(&mut self) -> &mut StreamingEngine;
    fn now_s(&self) -> f64;
    /// Replays due between rounds; returns their wall nanoseconds, which
    /// the timed phase excludes.
    fn between_rounds(&mut self) -> u64 {
        0
    }
}

impl Harness for SimSystem {
    fn round(&mut self, ns: &mut NoStop) -> RoundOutcome {
        ns.run_round(self)
    }
    fn engine_mut(&mut self) -> &mut StreamingEngine {
        SimSystem::engine_mut(self)
    }
    fn now_s(&self) -> f64 {
        StreamingSystem::now_s(self)
    }
}

struct Traced {
    sys: TimedSystem,
    rate: RateReplay,
    controller_ns: u64,
}

impl Harness for Traced {
    fn round(&mut self, ns: &mut NoStop) -> RoundOutcome {
        let start = Instant::now();
        let outcome = ns.run_round(&mut self.sys);
        self.controller_ns += start.elapsed().as_nanos() as u64;
        outcome
    }
    fn engine_mut(&mut self) -> &mut StreamingEngine {
        self.sys.inner.engine_mut()
    }
    fn now_s(&self) -> f64 {
        self.sys.now_s()
    }
    fn between_rounds(&mut self) -> u64 {
        if self.sys.wire.pending() < REPLAY_AT && self.rate.pending() < REPLAY_AT {
            return 0;
        }
        let start = Instant::now();
        self.sys.wire.replay();
        self.rate.replay();
        start.elapsed().as_nanos() as u64
    }
}

struct Cell<H> {
    sys: H,
    ns: NoStop,
}

/// Run one controller to `horizon_s`; returns the excluded nanoseconds.
fn drive<H: Harness>(
    cell: &mut Cell<H>,
    horizon_s: f64,
    rep: &mut Rep,
    h: &mut DefaultHasher,
) -> u64 {
    let mut buf: Vec<BatchMetrics> = Vec::new();
    let mut records = 0u64;
    let mut excluded = 0u64;
    let mut job = Histogram::default();
    while cell.sys.now_s() < horizon_s {
        // Flash crowds reset the controller every few rounds, and a reset
        // starts a new episode with no best yet; so every episode's best
        // counts, not only the last one's.
        let episode_best = cell.ns.best_config().map(|(_, delay)| delay);
        if cell.sys.round(&mut cell.ns) == RoundOutcome::Reset {
            rep.layers.controller_resets += 1;
            rep.best_objectives.extend(episode_best);
        }
        cell.sys.engine_mut().drain_completed_into(&mut buf);
        for m in buf.drain(..) {
            records += m.records;
            rep.observe(&mut job, &m.to_observation(), h);
        }
        excluded += cell.sys.between_rounds();
    }
    let engine = cell.sys.engine_mut();
    rep.batches += engine.listener().completed();
    rep.checks.conservation(engine, records);
    rep.finish_engine(engine, h);
    rep.end_job(job);
    rep.layers.controller_rounds += cell.ns.rounds();
    rep.best_objectives
        .extend(cell.ns.best_config().map(|(_, delay)| delay));
    excluded
}

fn system(kind: WorkloadKind, s: &Seeds, rate: Box<dyn RateProcess>) -> SimSystem {
    SimSystem::new(StreamingEngine::new(
        engine_params(kind, s.engine),
        StreamConfig::paper_initial(),
        rate,
    ))
}

/// One repetition at the benchmark's size.
pub fn run(seed: u64, traced: bool) -> Rep {
    run_sized(seed, traced, HORIZON_S)
}

/// One repetition: four controllers, one per paper workload, each run
/// for `horizon_s` virtual seconds.
pub fn run_sized(seed: u64, traced: bool, horizon_s: f64) -> Rep {
    let mut rep = Rep::default();
    let mut h = hasher();
    let setup = Instant::now();
    let plan: Vec<(WorkloadKind, Seeds)> = WorkloadKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &kind)| (kind, seeds(seed, i as u64)))
        .collect();
    if !traced {
        let mut cells: Vec<Cell<SimSystem>> = plan
            .iter()
            .map(|(kind, s)| Cell {
                sys: system(*kind, s, rate_spec(*kind).build(s.rate.clone())),
                ns: NoStop::new(nostop_config(*kind), s.controller),
            })
            .collect();
        rep.setup_s = setup.elapsed().as_secs_f64();
        let start = Instant::now();
        for cell in &mut cells {
            drive(cell, horizon_s, &mut rep, &mut h);
        }
        rep.wall_s = start.elapsed().as_secs_f64();
    } else {
        let mut cells: Vec<Cell<Traced>> = plan
            .iter()
            .map(|(kind, s)| {
                let spec = rate_spec(*kind);
                let rng = s.rate.clone();
                let (rate, replay) = record_rate(|| spec.build(rng.clone()));
                Cell {
                    sys: Traced {
                        sys: TimedSystem::new(system(*kind, s, rate)),
                        rate: replay,
                        controller_ns: 0,
                    },
                    ns: NoStop::new(nostop_config(*kind), s.controller),
                }
            })
            .collect();
        rep.setup_s = setup.elapsed().as_secs_f64();
        let start = Instant::now();
        let mut excluded = 0u64;
        for cell in &mut cells {
            excluded += drive(cell, horizon_s, &mut rep, &mut h);
        }
        let wall_ns = start.elapsed().as_nanos() as u64;
        rep.wall_s = wall_ns.saturating_sub(excluded) as f64 * 1e-9;
        let replays = Instant::now();
        for cell in cells {
            let Traced {
                sys,
                mut rate,
                controller_ns,
            } = cell.sys;
            let TimedSystem {
                inner,
                ns,
                reconfigs,
                mut wire,
            } = sys;
            // Dropping the engine flushes the rate wrapper's last chunk.
            drop(inner);
            rate.replay();
            wire.replay();
            let l = &mut rep.layers;
            l.rate_calls += rate.calls_replayed;
            l.rate_ns += rate.ns;
            l.wire_reports += wire.reports;
            l.wire_ns += wire.ns;
            l.system_ns += ns;
            l.engine_reconfigs += reconfigs;
            l.controller_ns += controller_ns;
            rep.checks.require(rate.mismatches == 0, || {
                format!("{} replayed rate values differ", rate.mismatches)
            });
            rep.checks.require(wire.mismatches == 0, || {
                format!("{} replayed status reports differ", wire.mismatches)
            });
        }
        rep.replay_s = replays.elapsed().as_secs_f64() + excluded as f64 * 1e-9;
    }
    rep.digest = std::hash::Hasher::finish(&h);
    rep
}
