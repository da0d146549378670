//! The NoStop reproduction's benchmark.
//!
//! ```text
//! nostop-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input derives from `--seed`. With `--trace 0` the workload runs
//! untraced, repetition after repetition on seeds derived from `--seed`,
//! until `--seconds` have passed, and the end-to-end metrics are printed.
//! With `--trace 1` the first repetition's seed runs untraced and traced
//! in alternation for `--seconds`, and the per-layer metrics of the
//! median traced run are printed. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! Outputs failing a check make the exit code non-zero.

mod bo;
mod closed_loop;
mod fleet;
mod layers;
mod rep;
#[cfg(test)]
mod tests;

use nostop_simcore::json::{self, Json};
use nostop_simcore::SimRng;
use rep::{median, quantile, Rep};
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, by the names `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ClosedLoopBursty,
    FleetSteady,
    BoDim8,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ClosedLoopBursty,
        Workload::FleetSteady,
        Workload::BoDim8,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ClosedLoopBursty => "closed-loop-bursty",
            Workload::FleetSteady => "fleet-steady",
            Workload::BoDim8 => "bo-dim8",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// End-to-end runs make at least this many repetitions, and the
    /// virtual metrics pool exactly these, so they are a pure function of
    /// the seed whatever the machine's speed. Each workload pools enough
    /// jobs that the metrics move by well under their bounds from one
    /// seed to the next.
    fn virtual_reps(self) -> usize {
        match self {
            Workload::ClosedLoopBursty => 16,
            Workload::FleetSteady => 3,
            Workload::BoDim8 => 22,
        }
    }

    fn run(self, seed: u64, traced: bool) -> Rep {
        match self {
            Workload::ClosedLoopBursty => closed_loop::run(seed, traced),
            Workload::FleetSteady => fleet::run(seed, traced),
            Workload::BoDim8 => bo::run(seed, traced),
        }
    }
}

/// End-to-end metrics: name and unit. Measured untraced.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("sim_batches_per_s", "batches/s"),
    ("peak_rss_mb", "MiB"),
    ("e2e_delay_p50_s", "virtual_s"),
    ("e2e_delay_p99_s", "virtual_s"),
    ("stable_frac", "ratio"),
    ("best_objective_s", "virtual_s"),
];

/// Per-layer metrics: name and unit. Measured traced; every workload
/// prints all of them, zero for a layer it does not run or time apart.
const PER_LAYER: [(&str, &str); 39] = [
    ("rate.calls", "count"),
    ("rate.self_ns", "ns"),
    ("rate.share", "ratio"),
    ("wire.reports", "count"),
    ("wire.self_ns", "ns"),
    ("wire.share", "ratio"),
    ("engine.batches", "count"),
    ("engine.self_ns", "ns"),
    ("engine.share", "ratio"),
    ("engine.ns_per_batch", "ns"),
    ("engine.reconfigs", "count"),
    ("superbatch.fast_batch_ratio", "ratio"),
    ("superbatch.fast_block_ratio", "ratio"),
    ("superbatch.fallbacks", "count"),
    ("controller.rounds", "count"),
    ("controller.self_ns", "ns"),
    ("controller.share", "ratio"),
    ("controller.resets", "count"),
    ("fleet.tenant_epochs", "count"),
    ("fleet.skip_ratio", "ratio"),
    ("fleet.self_ns", "ns"),
    ("fleet.share", "ratio"),
    ("fleet.epoch_ms_p50", "ms"),
    ("fleet.epoch_ms_p99", "ms"),
    ("arbiter.barriers", "count"),
    ("arbiter.sparse_ratio", "ratio"),
    ("arbiter.self_ns", "ns"),
    ("arbiter.share", "ratio"),
    ("arbiter.queues", "count"),
    ("arbiter.coalesced_rounds", "count"),
    ("tuner.evals", "count"),
    ("tuner.propose_ns", "ns"),
    ("tuner.observe_ns", "ns"),
    ("tuner.share", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.wall_ns", "ns"),
    ("trace.runs", "count"),
    ("unattributed.ns", "ns"),
    ("unattributed.share", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: nostop-benchmark --workload <closed-loop-bursty|fleet-steady|bo-dim8> \
--seed <u64> --seconds <positive number> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The seed of repetition `r`: an independent stream off `--seed`.
fn rep_seed(seed: u64, r: usize) -> u64 {
    SimRng::seed_from_u64(seed)
        .fork(0xBE0C_0000 + r as u64)
        .next_u64()
}

/// Peak resident memory of this process so far, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The result line, plus whether every output checked out.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, _, v)| v.is_finite())
    }

    fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, unit, value)| {
                (
                    name,
                    json::obj(vec![("value", json::num(value)), ("unit", json::str(unit))]),
                )
            })
            .collect();
        json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", json::uint(self.attempted.max(1))),
            ("failed", json::uint(self.failed)),
            ("metrics", json::obj(metrics)),
        ])
        .to_string()
    }
}

/// One line per run on the error stream, with any failed checks.
fn log_rep(rep: &Rep, label: &str) {
    eprintln!(
        "{label}: {} batches in {:.4} s (set-up {:.6} s)",
        rep.batches, rep.wall_s, rep.setup_s
    );
    for msg in &rep.checks.messages {
        eprintln!("{label}: check failed: {msg}");
    }
}

/// Untraced repetitions for `seconds`: the end-to-end metrics.
fn end_to_end(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let start = Instant::now();
    let (mut setup, mut rates) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let (mut job_p50, mut job_p99, mut objectives) = (Vec::new(), Vec::new(), Vec::new());
    let (mut stable, mut batches) = (0u64, 0u64);
    let mut rss = f64::NAN;
    let mut r = 0;
    while r < w.virtual_reps() || start.elapsed().as_secs_f64() < seconds {
        let rep = w.run(rep_seed(seed, r), false);
        log_rep(&rep, &format!("rep {r}"));
        setup.push(rep.setup_s);
        rates.push(rep.batches as f64 / rep.wall_s);
        attempted += rep.checks.attempted;
        failed += rep.checks.failed;
        if r < w.virtual_reps() {
            job_p50.extend(rep.job_p50);
            job_p99.extend(rep.job_p99);
            objectives.extend(rep.best_objectives);
            stable += rep.stable;
            batches += rep.checks.attempted;
        }
        r += 1;
        // The peak over the virtual repetitions, so it does not grow with
        // the number of repetitions a faster machine fits in.
        if r == w.virtual_reps() {
            rss = peak_rss_mb();
        }
    }
    let metrics = vec![
        median(setup),
        // Noise on a shared host only ever slows a repetition down, so
        // the rate the fastest tenth of the repetitions reach tracks the
        // program better than the median does.
        quantile(&mut rates, 0.9),
        rss,
        median(job_p50),
        median(job_p99),
        stable as f64 / batches as f64,
        objectives.iter().sum::<f64>() / objectives.len() as f64,
    ];
    Outcome {
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(metrics)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect(),
    }
}

/// The per-layer metrics of one traced repetition.
fn layer_metrics(rep: &Rep, overhead: f64, runs: usize) -> Vec<f64> {
    let l = &rep.layers;
    let f = |x: u64| x as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let wall = rep.wall_s * 1e9;
    // No wrapper reaches a fleet tenant's engine or controller, so on
    // fleet-steady both stay 0 and their time is inside `fleet.self_ns`;
    // the wall there is the `step_epoch` time, so nothing is unattributed.
    let engine = f(l.system_ns) - f(l.rate_ns) - f(l.wire_ns);
    let controller = if l.controller_ns > 0 {
        f(l.controller_ns) - f(l.system_ns)
    } else {
        0.0
    };
    let fleet = f(l.fleet_ns) - f(l.arbiter_ns);
    let tuner = f(l.propose_ns + l.observe_ns);
    let attributed =
        f(l.rate_ns) + f(l.wire_ns) + engine + controller + fleet + f(l.arbiter_ns) + tuner;
    let sb = &rep.superbatch;
    let batches = rep.batches;
    vec![
        f(l.rate_calls),
        f(l.rate_ns),
        f(l.rate_ns) / wall,
        f(l.wire_reports),
        f(l.wire_ns),
        f(l.wire_ns) / wall,
        f(batches),
        engine,
        engine / wall,
        if l.system_ns == 0 {
            0.0
        } else {
            engine / f(batches)
        },
        f(l.engine_reconfigs),
        ratio(sb.fast_batches, batches),
        ratio(sb.fast_blocks, sb.armed_blocks),
        f(sb.quiescence_fallbacks),
        f(l.controller_rounds),
        controller,
        controller / wall,
        f(l.controller_resets),
        f(l.fleet_tenant_epochs),
        ratio(l.fleet_skipped, l.fleet_tenant_epochs),
        fleet,
        fleet / wall,
        fleet::epoch_ms(&l.epoch_ns, 0.50),
        fleet::epoch_ms(&l.epoch_ns, 0.99),
        f(l.arbiter_barriers),
        ratio(l.arbiter_sparse, l.arbiter_barriers),
        f(l.arbiter_ns),
        f(l.arbiter_ns) / wall,
        f(l.arbiter_queues),
        f(l.arbiter_coalesced),
        f(l.tuner_evals),
        f(l.propose_ns),
        f(l.observe_ns),
        tuner / wall,
        overhead,
        wall,
        runs as f64,
        wall - attributed,
        (wall - attributed) / wall,
    ]
}

/// Untraced and traced runs of one seed in alternation for `seconds`:
/// the per-layer metrics of the median traced run.
fn per_layer(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let seed = rep_seed(seed, 0);
    let start = Instant::now();
    let mut pairs: Vec<(Rep, Rep)> = Vec::new();
    let mut failed = 0u64;
    while pairs.is_empty() || start.elapsed().as_secs_f64() < seconds {
        // Alternate which side runs first so neither always runs warm.
        let (bare, traced) = if pairs.len().is_multiple_of(2) {
            let bare = w.run(seed, false);
            (bare, w.run(seed, true))
        } else {
            let traced = w.run(seed, true);
            (w.run(seed, false), traced)
        };
        log_rep(&bare, "untraced");
        log_rep(&traced, "traced");
        failed += bare.checks.failed + traced.checks.failed;
        if bare.digest != traced.digest {
            eprintln!("traced run's output digest differs from the untraced run's");
            failed += 1;
        }
        pairs.push((bare, traced));
    }
    // What tracing costs: the traced run's timed phase plus its replays,
    // against the untraced run's timed phase.
    let overhead = median(
        pairs
            .iter()
            .map(|(bare, traced)| (traced.wall_s + traced.replay_s) / bare.wall_s - 1.0)
            .collect(),
    );
    let attempted = pairs
        .iter()
        .map(|(b, t)| b.checks.attempted + t.checks.attempted)
        .sum();
    let runs = pairs.len();
    pairs.sort_by(|a, b| a.1.wall_s.total_cmp(&b.1.wall_s));
    let (_, traced) = &pairs[(runs - 1) / 2];
    Outcome {
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .zip(layer_metrics(traced, overhead, runs))
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        per_layer(args.workload, args.seed, args.seconds)
    } else {
        end_to_end(args.workload, args.seed, args.seconds)
    };
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
