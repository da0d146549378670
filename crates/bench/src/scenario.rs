//! Scenario-corpus plumbing: load `scenarios/*.json` files, build the
//! simulated system a [`ScenarioSpec`] describes, and drive each declared
//! method over it.
//!
//! This is the library half of the `scenario_runner` binary, split out so
//! the figure binaries can be thin wrappers over committed scenario files
//! (`fig5`/`fig6` load their specs from `scenarios/` and keep only their
//! presentation code) and so tests can drive scenarios directly.
//!
//! Determinism contract: every artifact of a scenario is a pure function
//! of its spec. The arrival process is built from
//! [`ScenarioSpec::effective_rate_seed`] (explicit `rate_seed`, or the
//! experiment drivers' `seed ^ 0x5EED` convention), the engine forks all
//! internal streams from `seed`, and faults/skew are declarative — so a
//! corpus replay is byte-identical across runs.

use crate::driver::{measure_config, nostop_config, penalized_objective};
use nostop_baselines::{BayesOpt, Tuner};
use nostop_core::controller::NoStop;
use nostop_core::scenario::{corpus_files, ClusterKind, FaultEvent, ScenarioSpec};
use nostop_core::system::{BatchObservation, Measurement, StreamingSystem};
use nostop_datagen::rate::{RateProcess, RateSpecExt};
use nostop_simcore::json::Json;
use nostop_simcore::{SimRng, SimTime};
use nostop_workloads::WorkloadKind;
use spark_sim::{EngineParams, FaultPlan, SimSystem, StreamConfig, StreamingEngine};
use std::path::{Path, PathBuf};

/// The static default configuration every comparison uses: the middle of
/// the paper's ranges, a 20.5 s interval and 10 executors.
pub const STATIC_CONFIG: [f64; 2] = [20.5, 10.0];

/// Locate the committed corpus: `./scenarios` relative to the invocation
/// directory, falling back to the repository checkout next to this crate.
pub fn default_corpus_dir() -> PathBuf {
    let cwd = PathBuf::from("scenarios");
    if cwd.is_dir() {
        return cwd;
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// Parse one scenario file's text (schema-checked and validated).
pub fn parse_scenario(text: &str) -> Result<ScenarioSpec, String> {
    let json = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    ScenarioSpec::from_json(&json)
}

/// Read and parse one scenario file, returning its text with the spec.
/// Errors name the file.
pub fn read_scenario(path: &Path) -> Result<(String, ScenarioSpec), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let spec = parse_scenario(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((text, spec))
}

/// Load every scenario in `dir`, in [`corpus_files`] order. Scenario
/// names must be unique across the corpus.
pub fn load_corpus(dir: &Path) -> Result<Vec<ScenarioSpec>, String> {
    let files = corpus_files(dir)?;
    let mut specs = Vec::with_capacity(files.len());
    let mut names = std::collections::BTreeSet::new();
    for path in files {
        let (_, spec) = read_scenario(&path)?;
        if !names.insert(spec.name.clone()) {
            return Err(format!(
                "{}: duplicate scenario name `{}`",
                path.display(),
                spec.name
            ));
        }
        specs.push(spec);
    }
    Ok(specs)
}

/// Resolve the spec's workload name against the canonical list.
pub fn workload_of(spec: &ScenarioSpec) -> Result<WorkloadKind, String> {
    WorkloadKind::from_name(&spec.workload).ok_or_else(|| {
        format!(
            "scenario `{}`: unknown workload `{}`",
            spec.name, spec.workload
        )
    })
}

/// The committed corpus entry `name` (`<name>.json` in
/// [`default_corpus_dir`]), which must run workload `kind`.
pub fn corpus_entry(name: &str, kind: WorkloadKind) -> Result<ScenarioSpec, String> {
    let (_, spec) = read_scenario(&default_corpus_dir().join(format!("{name}.json")))?;
    expect_workload(spec, kind)
}

/// `spec`, if it runs workload `kind`.
fn expect_workload(spec: ScenarioSpec, kind: WorkloadKind) -> Result<ScenarioSpec, String> {
    if workload_of(&spec)? == kind {
        Ok(spec)
    } else {
        Err(format!(
            "scenario `{}` runs workload `{}`, not `{}`",
            spec.name,
            spec.workload,
            kind.name()
        ))
    }
}

/// Instantiate the spec's arrival process off its effective rate seed.
pub fn build_rate(spec: &ScenarioSpec) -> Box<dyn RateProcess> {
    spec.rate
        .build(SimRng::seed_from_u64(spec.effective_rate_seed()))
}

/// Engine parameters for the spec: the declared cluster preset with the
/// spec's faults and skew installed. An empty fault list and `SkewSpec::
/// None` reproduce `EngineParams::paper`/`testbed` exactly, which is what
/// makes the fig wrappers byte-identical to their pre-corpus versions.
/// A node slowdown on a node the preset lacks is an error: it would
/// otherwise be accepted and never fire.
pub fn engine_params(spec: &ScenarioSpec) -> Result<EngineParams, String> {
    let kind = workload_of(spec)?;
    let mut params = match spec.cluster {
        ClusterKind::Paper => EngineParams::paper(kind, spec.seed),
        ClusterKind::Testbed => EngineParams::testbed(kind, spec.seed),
    };
    let nodes = params.cluster.nodes.len();
    for fault in &spec.faults {
        if let FaultEvent::NodeSlowdown { node, .. } = fault {
            if *node >= nodes {
                return Err(format!(
                    "scenario `{}`: node-slowdown on node {node}, but the `{}` cluster has \
                     {nodes} nodes",
                    spec.name,
                    spec.cluster.name()
                ));
            }
        }
    }
    params.faults = FaultPlan::new(spec.faults.clone());
    params.skew = spec.skew;
    Ok(params)
}

/// The full simulated system for a spec (paper-initial configuration).
pub fn build_system(spec: &ScenarioSpec) -> Result<SimSystem, String> {
    let engine = StreamingEngine::new(
        engine_params(spec)?,
        StreamConfig::paper_initial(),
        build_rate(spec),
    );
    Ok(SimSystem::new(engine))
}

/// A [`StreamingSystem`] that remembers every batch it handed out, so a
/// method can be driven by its own protocol and still be scored on the
/// full history (the chaos-grid pattern).
pub struct Recording {
    /// The wrapped system.
    pub inner: SimSystem,
    /// Every observation in completion order.
    pub log: Vec<BatchObservation>,
}

impl Recording {
    /// Build the spec's system wrapped with observation logging.
    pub fn new(spec: &ScenarioSpec) -> Result<Self, String> {
        Ok(Recording {
            inner: build_system(spec)?,
            log: Vec::new(),
        })
    }
}

impl StreamingSystem for Recording {
    fn apply_config(&mut self, physical: &[f64]) {
        self.inner.apply_config(physical);
    }
    fn next_batch(&mut self) -> BatchObservation {
        let b = self.inner.next_batch();
        self.log.push(b);
        b
    }
    fn now_s(&self) -> f64 {
        self.inner.now_s()
    }
}

/// One method's outcome over a scenario.
pub struct MethodResult {
    /// Batches completed over the run.
    pub batches: usize,
    /// Fraction of stable batches (Eq. 2).
    pub stable_fraction: f64,
    /// Mean end-to-end delay, seconds.
    pub mean_delay_s: f64,
    /// Mean processing time, seconds.
    pub mean_processing_s: f64,
    /// Final applied batch interval, seconds.
    pub final_interval_s: f64,
    /// Final executor count.
    pub final_executors: f64,
    /// Controller resets fired (`None` for non-NoStop methods).
    pub resets: Option<u64>,
    /// First round the pause rule fired (`None` = never, or non-NoStop).
    pub converged_round: Option<u64>,
    /// Rounds the controller ran (`None` for non-NoStop methods).
    pub rounds: Option<u64>,
}

/// `(stable fraction, mean end-to-end delay, mean processing time)` of
/// `batches`: the [`Measurement`] window means plus the stable count;
/// all 0 for an empty log.
pub fn log_means(batches: &[BatchObservation]) -> (f64, f64, f64) {
    if batches.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let m = Measurement::from_window(batches);
    let stable = batches.iter().filter(|b| b.is_stable()).count();
    (
        stable as f64 / batches.len() as f64,
        m.end_to_end_s,
        m.processing_s,
    )
}

/// Drive `method` over the spec's horizon (or, for `nostop` with
/// `spec.rounds` set, that many controller rounds — the Fig-6 protocol).
/// Returns the recording it ran on (every batch, and the engine behind
/// them) with the summary over its whole log.
pub fn run_method(spec: &ScenarioSpec, method: &str) -> Result<(Recording, MethodResult), String> {
    let kind = workload_of(spec)?;
    let mut sys = Recording::new(spec)?;
    let horizon = spec.horizon_s;
    let mut resets = None;
    let mut converged_round = None;
    let mut rounds = None;
    let mut final_config: Option<[f64; 2]> = None;
    match method {
        "nostop" => {
            let mut ns = NoStop::new(nostop_config(kind), spec.seed);
            match spec.rounds {
                Some(n) => ns.run(&mut sys, n),
                None => {
                    while sys.now_s() < horizon {
                        ns.run_round(&mut sys);
                    }
                }
            }
            let trace = ns.trace();
            resets = Some(trace.resets() as u64);
            converged_round = trace.first_pause().map(|r| r.round);
            rounds = Some(trace.rounds.len() as u64);
            let phys = ns.current_physical();
            final_config = Some([phys[0], phys[1]]);
        }
        "bo" => {
            let mut bo = BayesOpt::new(nostop_config(kind).space, spec.seed);
            while sys.now_s() < horizon && !bo.finished() {
                let physical = bo.propose();
                let m = measure_config(&mut sys, &physical, 3);
                bo.observe(&physical, penalized_objective(physical[0], &m));
            }
            // Park at the best configuration found and ride out the rest
            // of the horizon — BO has no online recovery story.
            if let Some((best, _)) = bo.best() {
                final_config = Some([best[0], best[1]]);
                sys.apply_config(&best);
            }
            while sys.now_s() < horizon {
                sys.next_batch();
            }
        }
        "static" => {
            sys.apply_config(&STATIC_CONFIG);
            final_config = Some(STATIC_CONFIG);
            while sys.now_s() < horizon {
                sys.next_batch();
            }
        }
        other => return Err(format!("unknown method `{other}`")),
    }
    let log = &sys.log;
    let batches = log.len();
    let (stable_fraction, mean_delay_s, mean_processing_s) = log_means(log);
    let fallback = log.last().map(|b| [b.interval_s, b.num_executors as f64]);
    let [final_interval_s, final_executors] =
        final_config.or(fallback).unwrap_or([f64::NAN, f64::NAN]);
    let result = MethodResult {
        batches,
        stable_fraction,
        mean_delay_s,
        mean_processing_s,
        final_interval_s,
        final_executors,
        resets,
        converged_round,
        rounds,
    };
    Ok((sys, result))
}

/// Sample the spec's arrival process every `every_s` seconds over the
/// horizon — the trace-only protocol for scenarios with no methods
/// (the Fig-5 panels). Returns `(t_s, rate)` pairs.
pub fn sample_rate(spec: &ScenarioSpec, every_s: u64) -> Vec<(u64, f64)> {
    let mut rate = build_rate(spec);
    let horizon = spec.horizon_s as u64;
    (0..=horizon)
        .step_by(every_s.max(1) as usize)
        .map(|t| {
            let at = SimTime::from_micros(t * 1_000_000);
            (t, rate.rate_at(at))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nostop_core::scenario::{RateSpec, SkewSpec};

    fn spec(methods: &[&str]) -> ScenarioSpec {
        ScenarioSpec {
            name: "unit".into(),
            workload: "wordcount".into(),
            cluster: ClusterKind::Paper,
            seed: 11,
            rate_seed: None,
            horizon_s: 300.0,
            rounds: None,
            methods: methods.iter().map(|m| m.to_string()).collect(),
            rate: RateSpec::Constant { rate: 150_000.0 },
            skew: SkewSpec::None,
            faults: Vec::new(),
        }
    }

    #[test]
    fn static_method_runs_to_horizon() {
        let (_, result) = run_method(&spec(&["static"]), "static").unwrap();
        assert!(result.batches > 0);
        assert!(result.mean_processing_s > 0.0);
        assert_eq!(result.final_interval_s, STATIC_CONFIG[0]);
        assert!(result.resets.is_none());
        // The static default is the configuration every system starts in.
        assert_eq!(StreamConfig::paper_initial().to_physical(), STATIC_CONFIG);
    }

    #[test]
    fn an_entry_for_the_wrong_workload_is_an_error() {
        let text = spec(&[]).to_json().to_string_pretty();
        let parsed = parse_scenario(&text).unwrap();
        assert!(expect_workload(parsed.clone(), WorkloadKind::WordCount).is_ok());
        let err = expect_workload(parsed, WorkloadKind::PageAnalyze).unwrap_err();
        assert!(err.contains("`unit`"), "{err}");
        assert!(err.contains("`page-analyze`"), "{err}");
    }

    #[test]
    fn unknown_method_and_workload_error() {
        assert!(run_method(&spec(&[]), "magic").is_err());
        let mut s = spec(&[]);
        s.workload = "nope".into();
        assert!(build_system(&s).is_err());
    }

    #[test]
    fn slowdown_on_a_missing_node_is_rejected() {
        let slowdown = |node| FaultEvent::NodeSlowdown {
            node,
            from: SimTime::from_secs_f64(60.0),
            until: SimTime::from_secs_f64(120.0),
            factor: 0.5,
        };
        let mut s = spec(&[]);
        s.faults = vec![slowdown(99)];
        let err = engine_params(&s).unwrap_err();
        assert!(err.contains("`unit`"), "{err}");
        assert!(err.contains("node 99"), "{err}");
        // The paper cluster's last node is still a valid target.
        s.faults = vec![slowdown(4)];
        assert!(engine_params(&s).is_ok());
    }

    #[test]
    fn rate_sampling_is_deterministic() {
        let s = spec(&[]);
        assert_eq!(sample_rate(&s, 10), sample_rate(&s, 10));
        assert_eq!(sample_rate(&s, 10).len(), 31);
    }

    #[test]
    fn skewed_scenario_is_slower_than_uniform() {
        let uniform = spec(&["static"]);
        let mut skewed = spec(&["static"]);
        skewed.skew = SkewSpec::HotKey {
            hot_fraction: 0.1,
            hot_weight: 8.0,
        };
        let (_, u) = run_method(&uniform, "static").unwrap();
        let (_, s) = run_method(&skewed, "static").unwrap();
        assert!(
            s.mean_processing_s > u.mean_processing_s,
            "hot keys must stretch processing: skewed {} vs uniform {}",
            s.mean_processing_s,
            u.mean_processing_s
        );
    }
}
