//! Declarative scenario wire types: `workload × rate × skew × faults ×
//! cluster × methods` as validated, JSON-round-tripping data.
//!
//! A scenario file is the unit the `scenarios/` corpus is made of: one
//! JSON object describing everything an experiment cell needs — which
//! workload and cluster preset, the arrival-rate process (including the
//! adversarial combinators: flash crowds over a diurnal base, Pareto-sized
//! bursts, correlated multi-source surges), hot-key partition skew, a
//! fault schedule, and the tuning methods to race. The `scenario_runner`
//! binary replays a corpus of these through the parallel fabric; the
//! fig/ablation binaries load committed scenario files instead of
//! hard-coding their parameters.
//!
//! This module owns only the *wire* layer: parse, validate, serialize.
//! Building live processes from a [`RateSpec`] happens in `nostop-datagen`
//! (`RateSpecExt::build`), converting [`FaultSpec`]s into a `FaultPlan`
//! happens in `spark-sim` — this crate depends on neither, so the types
//! can flow in both directions without a dependency cycle.
//!
//! Everything is `Result`-based rather than panicking: scenario files are
//! external input, and a bad file must name its defect, not abort the
//! whole corpus run with a stack trace.

use nostop_simcore::json::{self, Json};

/// Schema tag every scenario file carries.
pub const SCENARIO_SCHEMA: &str = "nostop-scenario/1";

/// The tuning methods a scenario may race (the chaos-grid arms).
pub const KNOWN_METHODS: [&str; 3] = ["nostop", "bo", "static"];

/// A declarative, comparable description of an arrival-rate process.
///
/// Lives here (not in `datagen`) because it is a *wire type*: fleet
/// tenant specs, scenario files, and reports all carry it, and none of
/// them should drag in the live process implementations. The composite
/// variants box their base spec, so a diurnal cycle with superimposed
/// flash crowds is literally `FlashCrowd { base: Sinusoid { .. }, .. }`.
#[derive(Debug, Clone, PartialEq)]
pub enum RateSpec {
    /// A constant rate — the idealized regime prior work assumes.
    Constant {
        /// Records per second.
        rate: f64,
    },
    /// The paper's uniform-random redraw model (§6.2.2).
    UniformRandom {
        /// Lower rate bound.
        min_rate: f64,
        /// Upper rate bound.
        max_rate: f64,
        /// Seconds between redraws.
        hold_secs: f64,
    },
    /// A sinusoidal (diurnal-style) rate.
    Sinusoid {
        /// Mean rate.
        base: f64,
        /// Peak deviation from the mean.
        amplitude: f64,
        /// Full-cycle period in seconds.
        period_secs: f64,
    },
    /// A linear ramp — the "slow drift" regime where NoStop's std-dev
    /// reset trigger never fires.
    Ramp {
        /// Rate at `t = 0`.
        start_rate: f64,
        /// Rate at `t = duration_secs` and beyond.
        end_rate: f64,
        /// Seconds the ramp spans.
        duration_secs: f64,
    },
    /// Poisson surges of fixed magnitude over a constant base (§5.5).
    Surge {
        /// Base records per second between surges.
        base_rate: f64,
        /// Multiplicative surge factor (`>= 1`).
        magnitude: f64,
        /// Surge duration in seconds.
        surge_secs: f64,
        /// Mean seconds between surge onsets (Poisson).
        mean_gap_secs: f64,
    },
    /// Flash crowds over any base: Poisson onsets whose *magnitude* is
    /// drawn per-event from a capped Pareto — most crowds are mild, a
    /// heavy tail is violent. The regime where the reset trigger fires
    /// constantly.
    FlashCrowd {
        /// The underlying process the crowds multiply.
        base: Box<RateSpec>,
        /// Mean seconds between crowd onsets (Poisson).
        mean_gap_secs: f64,
        /// How long each crowd lasts, seconds.
        crowd_secs: f64,
        /// Pareto tail index for the magnitude draw (smaller = heavier).
        pareto_shape: f64,
        /// Smallest crowd magnitude (the Pareto scale), `>= 1`.
        min_magnitude: f64,
        /// Hard cap on the crowd magnitude.
        max_magnitude: f64,
    },
    /// Heavy-tailed burst *arrivals*: Poisson onsets each injecting a
    /// Pareto-sized record count (capped), spread over the burst window
    /// as surplus rate on top of the base.
    ParetoBurst {
        /// The underlying process the bursts ride on.
        base: Box<RateSpec>,
        /// Mean seconds between burst onsets (Poisson).
        mean_gap_secs: f64,
        /// Seconds each burst's records are spread over.
        burst_secs: f64,
        /// Pareto tail index for the burst size (smaller = heavier).
        pareto_shape: f64,
        /// Smallest burst size in records (the Pareto scale).
        min_burst_records: f64,
        /// Hard cap on the burst size in records.
        max_burst_records: f64,
    },
    /// Multi-source surges sharing a trigger stream: every process built
    /// with the same `trigger_seed` surges at the *same instants*
    /// regardless of its own RNG fork — N tenants spike together, the
    /// way correlated production incidents do.
    CorrelatedSurge {
        /// The underlying process each source runs between surges.
        base: Box<RateSpec>,
        /// The shared trigger stream; equal seeds ⇒ equal onset times.
        trigger_seed: u64,
        /// Multiplicative surge factor (`>= 1`).
        magnitude: f64,
        /// Surge duration in seconds.
        surge_secs: f64,
        /// Mean seconds between surge onsets (Poisson).
        mean_gap_secs: f64,
    },
}

fn require(cond: bool, msg: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg.to_string())
    }
}

fn finite_pos(x: f64, what: &str) -> Result<(), String> {
    require(
        x.is_finite() && x > 0.0,
        &format!("{what} must be positive and finite, got {x}"),
    )
}

fn finite_nonneg(x: f64, what: &str) -> Result<(), String> {
    require(
        x.is_finite() && x >= 0.0,
        &format!("{what} must be non-negative and finite, got {x}"),
    )
}

impl RateSpec {
    /// Structural validation; composite variants validate recursively.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            RateSpec::Constant { rate } => finite_nonneg(*rate, "constant rate"),
            RateSpec::UniformRandom {
                min_rate,
                max_rate,
                hold_secs,
            } => {
                finite_nonneg(*min_rate, "min_rate")?;
                require(
                    max_rate.is_finite() && *max_rate >= *min_rate,
                    "max_rate must be finite and >= min_rate",
                )?;
                finite_pos(*hold_secs, "hold_secs")
            }
            RateSpec::Sinusoid {
                base,
                amplitude,
                period_secs,
            } => {
                finite_nonneg(*base, "sinusoid base")?;
                require(amplitude.is_finite(), "amplitude must be finite")?;
                finite_pos(*period_secs, "period_secs")
            }
            RateSpec::Ramp {
                start_rate,
                end_rate,
                duration_secs,
            } => {
                finite_nonneg(*start_rate, "start_rate")?;
                finite_nonneg(*end_rate, "end_rate")?;
                finite_pos(*duration_secs, "duration_secs")
            }
            RateSpec::Surge {
                base_rate,
                magnitude,
                surge_secs,
                mean_gap_secs,
            } => {
                finite_nonneg(*base_rate, "base_rate")?;
                require(
                    magnitude.is_finite() && *magnitude >= 1.0,
                    "surge magnitude must be >= 1",
                )?;
                finite_pos(*surge_secs, "surge_secs")?;
                finite_pos(*mean_gap_secs, "mean_gap_secs")
            }
            RateSpec::FlashCrowd {
                base,
                mean_gap_secs,
                crowd_secs,
                pareto_shape,
                min_magnitude,
                max_magnitude,
            } => {
                base.validate()?;
                finite_pos(*mean_gap_secs, "mean_gap_secs")?;
                finite_pos(*crowd_secs, "crowd_secs")?;
                finite_pos(*pareto_shape, "pareto_shape")?;
                require(
                    min_magnitude.is_finite() && *min_magnitude >= 1.0,
                    "min_magnitude must be >= 1",
                )?;
                require(
                    max_magnitude.is_finite() && *max_magnitude >= *min_magnitude,
                    "max_magnitude must be finite and >= min_magnitude",
                )
            }
            RateSpec::ParetoBurst {
                base,
                mean_gap_secs,
                burst_secs,
                pareto_shape,
                min_burst_records,
                max_burst_records,
            } => {
                base.validate()?;
                finite_pos(*mean_gap_secs, "mean_gap_secs")?;
                finite_pos(*burst_secs, "burst_secs")?;
                finite_pos(*pareto_shape, "pareto_shape")?;
                finite_pos(*min_burst_records, "min_burst_records")?;
                require(
                    max_burst_records.is_finite() && *max_burst_records >= *min_burst_records,
                    "max_burst_records must be finite and >= min_burst_records",
                )
            }
            RateSpec::CorrelatedSurge {
                base,
                magnitude,
                surge_secs,
                mean_gap_secs,
                ..
            } => {
                base.validate()?;
                require(
                    magnitude.is_finite() && *magnitude >= 1.0,
                    "surge magnitude must be >= 1",
                )?;
                finite_pos(*surge_secs, "surge_secs")?;
                finite_pos(*mean_gap_secs, "mean_gap_secs")
            }
        }
    }

    /// Serialize as a tagged JSON object (`{"kind": "...", ...}`).
    pub fn to_json(&self) -> Json {
        match self {
            RateSpec::Constant { rate } => json::obj(vec![
                ("kind", json::str("constant")),
                ("rate", json::num(*rate)),
            ]),
            RateSpec::UniformRandom {
                min_rate,
                max_rate,
                hold_secs,
            } => json::obj(vec![
                ("kind", json::str("uniform-random")),
                ("min_rate", json::num(*min_rate)),
                ("max_rate", json::num(*max_rate)),
                ("hold_secs", json::num(*hold_secs)),
            ]),
            RateSpec::Sinusoid {
                base,
                amplitude,
                period_secs,
            } => json::obj(vec![
                ("kind", json::str("sinusoid")),
                ("base", json::num(*base)),
                ("amplitude", json::num(*amplitude)),
                ("period_secs", json::num(*period_secs)),
            ]),
            RateSpec::Ramp {
                start_rate,
                end_rate,
                duration_secs,
            } => json::obj(vec![
                ("kind", json::str("ramp")),
                ("start_rate", json::num(*start_rate)),
                ("end_rate", json::num(*end_rate)),
                ("duration_secs", json::num(*duration_secs)),
            ]),
            RateSpec::Surge {
                base_rate,
                magnitude,
                surge_secs,
                mean_gap_secs,
            } => json::obj(vec![
                ("kind", json::str("surge")),
                ("base_rate", json::num(*base_rate)),
                ("magnitude", json::num(*magnitude)),
                ("surge_secs", json::num(*surge_secs)),
                ("mean_gap_secs", json::num(*mean_gap_secs)),
            ]),
            RateSpec::FlashCrowd {
                base,
                mean_gap_secs,
                crowd_secs,
                pareto_shape,
                min_magnitude,
                max_magnitude,
            } => json::obj(vec![
                ("kind", json::str("flash-crowd")),
                ("base", base.to_json()),
                ("mean_gap_secs", json::num(*mean_gap_secs)),
                ("crowd_secs", json::num(*crowd_secs)),
                ("pareto_shape", json::num(*pareto_shape)),
                ("min_magnitude", json::num(*min_magnitude)),
                ("max_magnitude", json::num(*max_magnitude)),
            ]),
            RateSpec::ParetoBurst {
                base,
                mean_gap_secs,
                burst_secs,
                pareto_shape,
                min_burst_records,
                max_burst_records,
            } => json::obj(vec![
                ("kind", json::str("pareto-burst")),
                ("base", base.to_json()),
                ("mean_gap_secs", json::num(*mean_gap_secs)),
                ("burst_secs", json::num(*burst_secs)),
                ("pareto_shape", json::num(*pareto_shape)),
                ("min_burst_records", json::num(*min_burst_records)),
                ("max_burst_records", json::num(*max_burst_records)),
            ]),
            RateSpec::CorrelatedSurge {
                base,
                trigger_seed,
                magnitude,
                surge_secs,
                mean_gap_secs,
            } => json::obj(vec![
                ("kind", json::str("correlated-surge")),
                ("base", base.to_json()),
                ("trigger_seed", json::uint(*trigger_seed)),
                ("magnitude", json::num(*magnitude)),
                ("surge_secs", json::num(*surge_secs)),
                ("mean_gap_secs", json::num(*mean_gap_secs)),
            ]),
        }
    }

    /// Parse a tagged JSON object back into a spec (inverse of
    /// [`RateSpec::to_json`]). Does not validate ranges — call
    /// [`RateSpec::validate`] after.
    pub fn from_json(v: &Json) -> Result<RateSpec, String> {
        let kind = v.field_str("kind").map_err(|e| e.to_string())?;
        let f = |key: &str| v.field_f64(key).map_err(|e| format!("rate `{kind}`: {e}"));
        let sub = |key: &str| -> Result<Box<RateSpec>, String> {
            let inner = v
                .get(key)
                .ok_or_else(|| format!("rate `{kind}`: missing `{key}`"))?;
            Ok(Box::new(RateSpec::from_json(inner)?))
        };
        match kind {
            "constant" => Ok(RateSpec::Constant { rate: f("rate")? }),
            "uniform-random" => Ok(RateSpec::UniformRandom {
                min_rate: f("min_rate")?,
                max_rate: f("max_rate")?,
                hold_secs: f("hold_secs")?,
            }),
            "sinusoid" => Ok(RateSpec::Sinusoid {
                base: f("base")?,
                amplitude: f("amplitude")?,
                period_secs: f("period_secs")?,
            }),
            "ramp" => Ok(RateSpec::Ramp {
                start_rate: f("start_rate")?,
                end_rate: f("end_rate")?,
                duration_secs: f("duration_secs")?,
            }),
            "surge" => Ok(RateSpec::Surge {
                base_rate: f("base_rate")?,
                magnitude: f("magnitude")?,
                surge_secs: f("surge_secs")?,
                mean_gap_secs: f("mean_gap_secs")?,
            }),
            "flash-crowd" => Ok(RateSpec::FlashCrowd {
                base: sub("base")?,
                mean_gap_secs: f("mean_gap_secs")?,
                crowd_secs: f("crowd_secs")?,
                pareto_shape: f("pareto_shape")?,
                min_magnitude: f("min_magnitude")?,
                max_magnitude: f("max_magnitude")?,
            }),
            "pareto-burst" => Ok(RateSpec::ParetoBurst {
                base: sub("base")?,
                mean_gap_secs: f("mean_gap_secs")?,
                burst_secs: f("burst_secs")?,
                pareto_shape: f("pareto_shape")?,
                min_burst_records: f("min_burst_records")?,
                max_burst_records: f("max_burst_records")?,
            }),
            "correlated-surge" => Ok(RateSpec::CorrelatedSurge {
                base: sub("base")?,
                trigger_seed: v
                    .field_u64("trigger_seed")
                    .map_err(|e| format!("rate `{kind}`: {e}"))?,
                magnitude: f("magnitude")?,
                surge_secs: f("surge_secs")?,
                mean_gap_secs: f("mean_gap_secs")?,
            }),
            other => Err(format!("unknown rate kind `{other}`")),
        }
    }
}

/// Partition skew applied at the broker's produce side.
///
/// The paper's deployment avoids skew by construction (§6.1: more
/// partitions than cores, uniform keying); production traffic does not.
/// `HotKey` concentrates a `hot_weight`-times-fair share of every produce
/// call onto the first `⌈hot_fraction · partitions⌉` partitions —
/// deterministic (no RNG), conservation-exact modulo per-partition
/// fractional carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SkewSpec {
    /// Uniform production — byte-identical to a build without skew.
    None,
    /// Hot-key skew: a fraction of partitions receives a multiplied share.
    HotKey {
        /// Fraction of partitions that are hot, in `(0, 1)`.
        hot_fraction: f64,
        /// Relative weight of a hot partition vs a cold one, `> 1`.
        hot_weight: f64,
    },
}

impl SkewSpec {
    /// True for the uniform (skew-free) spec.
    pub fn is_none(&self) -> bool {
        matches!(self, SkewSpec::None)
    }

    /// Number of hot partitions for a broker with `partitions` partitions.
    pub fn hot_partitions(&self, partitions: usize) -> usize {
        match self {
            SkewSpec::None => 0,
            SkewSpec::HotKey { hot_fraction, .. } => {
                (((*hot_fraction) * partitions as f64).ceil() as usize).clamp(1, partitions)
            }
        }
    }

    /// Normalized per-partition produce weights (sum = 1), or `None` for
    /// the uniform spec. Hot partitions come first — which partitions are
    /// hot is irrelevant to every consumer of the model (only the weight
    /// *distribution* matters), and a fixed assignment keeps the mapping a
    /// pure function of the spec.
    pub fn weights(&self, partitions: usize) -> Option<Vec<f64>> {
        match self {
            SkewSpec::None => None,
            SkewSpec::HotKey { hot_weight, .. } => {
                let hot = self.hot_partitions(partitions);
                if hot == partitions {
                    return None; // everything hot = uniform
                }
                let total = hot_weight * hot as f64 + (partitions - hot) as f64;
                Some(
                    (0..partitions)
                        .map(|i| {
                            if i < hot {
                                hot_weight / total
                            } else {
                                1.0 / total
                            }
                        })
                        .collect(),
                )
            }
        }
    }

    /// Load imbalance: the hottest partition's share relative to the
    /// uniform share (`1.0` = no skew). This is the factor by which the
    /// task holding the hot partition's records outweighs a fair task.
    pub fn imbalance(&self, partitions: usize) -> f64 {
        match self.weights(partitions) {
            None => 1.0,
            Some(w) => {
                let max = w.iter().cloned().fold(0.0f64, f64::max);
                max * partitions as f64
            }
        }
    }

    /// Structural validation.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            SkewSpec::None => Ok(()),
            SkewSpec::HotKey {
                hot_fraction,
                hot_weight,
            } => {
                require(
                    hot_fraction.is_finite() && *hot_fraction > 0.0 && *hot_fraction < 1.0,
                    "hot_fraction must be in (0, 1)",
                )?;
                require(
                    hot_weight.is_finite() && *hot_weight > 1.0,
                    "hot_weight must be > 1",
                )
            }
        }
    }

    /// Serialize as a tagged JSON object.
    pub fn to_json(&self) -> Json {
        match self {
            SkewSpec::None => json::obj(vec![("kind", json::str("none"))]),
            SkewSpec::HotKey {
                hot_fraction,
                hot_weight,
            } => json::obj(vec![
                ("kind", json::str("hot-key")),
                ("hot_fraction", json::num(*hot_fraction)),
                ("hot_weight", json::num(*hot_weight)),
            ]),
        }
    }

    /// Parse a tagged JSON object (inverse of [`SkewSpec::to_json`]).
    pub fn from_json(v: &Json) -> Result<SkewSpec, String> {
        match v.field_str("kind").map_err(|e| e.to_string())? {
            "none" => Ok(SkewSpec::None),
            "hot-key" => Ok(SkewSpec::HotKey {
                hot_fraction: v.field_f64("hot_fraction").map_err(|e| e.to_string())?,
                hot_weight: v.field_f64("hot_weight").map_err(|e| e.to_string())?,
            }),
            other => Err(format!("unknown skew kind `{other}`")),
        }
    }
}

/// A scheduled fault, in wall-of-wire form: plain seconds instead of
/// `SimTime`, so scenario files stay hand-writable. `spark-sim` converts
/// a list of these into its validated `FaultPlan`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// Kill `count` executors at `at_s`, optionally relaunching after
    /// `relaunch_after_s`.
    ExecutorCrash {
        /// When the crash happens, seconds.
        at_s: f64,
        /// Executors killed.
        count: u32,
        /// Delay until replacements launch (`None` = capacity gone).
        relaunch_after_s: Option<f64>,
    },
    /// Node `node` runs at `factor` × speed in `[from_s, until_s)`.
    NodeSlowdown {
        /// Affected node id.
        node: usize,
        /// Window start, seconds.
        from_s: f64,
        /// Window end, seconds.
        until_s: f64,
        /// Speed multiplier.
        factor: f64,
    },
    /// Receivers down in `[from_s, until_s)`; produced records are dropped.
    ReceiverOutage {
        /// Window start, seconds.
        from_s: f64,
        /// Window end, seconds.
        until_s: f64,
    },
    /// Tasks in `[from_s, until_s)` fail with `probability` per attempt.
    TaskFailures {
        /// Window start, seconds.
        from_s: f64,
        /// Window end, seconds.
        until_s: f64,
        /// Per-attempt failure probability in `[0, 1)`.
        probability: f64,
    },
}

impl FaultSpec {
    /// Structural validation (mirrors `FaultEvent::validate`, but as a
    /// `Result` naming the defect).
    pub fn validate(&self) -> Result<(), String> {
        match self {
            FaultSpec::ExecutorCrash {
                at_s,
                count,
                relaunch_after_s,
            } => {
                finite_nonneg(*at_s, "at_s")?;
                require(*count > 0, "crash must kill at least one executor")?;
                if let Some(r) = relaunch_after_s {
                    finite_pos(*r, "relaunch_after_s")?;
                }
                Ok(())
            }
            FaultSpec::NodeSlowdown {
                from_s,
                until_s,
                factor,
                ..
            } => {
                finite_nonneg(*from_s, "from_s")?;
                require(
                    until_s.is_finite() && until_s > from_s,
                    "slowdown window must be non-empty",
                )?;
                finite_pos(*factor, "slowdown factor")
            }
            FaultSpec::ReceiverOutage { from_s, until_s } => {
                finite_nonneg(*from_s, "from_s")?;
                require(
                    until_s.is_finite() && until_s > from_s,
                    "outage window must be non-empty",
                )
            }
            FaultSpec::TaskFailures {
                from_s,
                until_s,
                probability,
            } => {
                finite_nonneg(*from_s, "from_s")?;
                require(
                    until_s.is_finite() && until_s > from_s,
                    "failure window must be non-empty",
                )?;
                require(
                    (0.0..1.0).contains(probability),
                    "failure probability must be in [0, 1)",
                )
            }
        }
    }

    /// Serialize as a tagged JSON object.
    pub fn to_json(&self) -> Json {
        match self {
            FaultSpec::ExecutorCrash {
                at_s,
                count,
                relaunch_after_s,
            } => {
                let mut fields = vec![
                    ("kind", json::str("executor-crash")),
                    ("at_s", json::num(*at_s)),
                    ("count", json::uint(*count as u64)),
                ];
                if let Some(r) = relaunch_after_s {
                    fields.push(("relaunch_after_s", json::num(*r)));
                }
                json::obj(fields)
            }
            FaultSpec::NodeSlowdown {
                node,
                from_s,
                until_s,
                factor,
            } => json::obj(vec![
                ("kind", json::str("node-slowdown")),
                ("node", json::uint(*node as u64)),
                ("from_s", json::num(*from_s)),
                ("until_s", json::num(*until_s)),
                ("factor", json::num(*factor)),
            ]),
            FaultSpec::ReceiverOutage { from_s, until_s } => json::obj(vec![
                ("kind", json::str("receiver-outage")),
                ("from_s", json::num(*from_s)),
                ("until_s", json::num(*until_s)),
            ]),
            FaultSpec::TaskFailures {
                from_s,
                until_s,
                probability,
            } => json::obj(vec![
                ("kind", json::str("task-failures")),
                ("from_s", json::num(*from_s)),
                ("until_s", json::num(*until_s)),
                ("probability", json::num(*probability)),
            ]),
        }
    }

    /// Parse a tagged JSON object (inverse of [`FaultSpec::to_json`]).
    pub fn from_json(v: &Json) -> Result<FaultSpec, String> {
        let kind = v.field_str("kind").map_err(|e| e.to_string())?;
        let f = |key: &str| v.field_f64(key).map_err(|e| format!("fault `{kind}`: {e}"));
        match kind {
            "executor-crash" => Ok(FaultSpec::ExecutorCrash {
                at_s: f("at_s")?,
                count: {
                    let count = v
                        .field_u64("count")
                        .map_err(|e| format!("fault `{kind}`: {e}"))?;
                    u32::try_from(count).map_err(|_| {
                        format!("fault `{kind}`: field `count` = {count} does not fit in u32")
                    })?
                },
                relaunch_after_s: match v.get("relaunch_after_s") {
                    None | Some(Json::Null) => None,
                    Some(_) => Some(f("relaunch_after_s")?),
                },
            }),
            "node-slowdown" => Ok(FaultSpec::NodeSlowdown {
                node: v
                    .field_u64("node")
                    .map_err(|e| format!("fault `{kind}`: {e}"))? as usize,
                from_s: f("from_s")?,
                until_s: f("until_s")?,
                factor: f("factor")?,
            }),
            "receiver-outage" => Ok(FaultSpec::ReceiverOutage {
                from_s: f("from_s")?,
                until_s: f("until_s")?,
            }),
            "task-failures" => Ok(FaultSpec::TaskFailures {
                from_s: f("from_s")?,
                until_s: f("until_s")?,
                probability: f("probability")?,
            }),
            other => Err(format!("unknown fault kind `{other}`")),
        }
    }
}

/// Which cluster preset a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterKind {
    /// The Table-2 five-node heterogeneous cluster.
    Paper,
    /// The ten-node homogeneous testbed of §3.2.
    Testbed,
}

impl ClusterKind {
    /// Canonical wire name.
    pub fn name(self) -> &'static str {
        match self {
            ClusterKind::Paper => "paper",
            ClusterKind::Testbed => "testbed",
        }
    }

    /// Parse from the canonical name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "paper" => Some(ClusterKind::Paper),
            "testbed" => Some(ClusterKind::Testbed),
            _ => None,
        }
    }
}

/// One validated scenario: everything an experiment cell is a pure
/// function of. See the module docs for the file format.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Unique scenario name (the digest table's key).
    pub name: String,
    /// Workload name, resolved by the runner (`nostop-workloads` owns the
    /// canonical list; this crate only requires it to be non-empty).
    pub workload: String,
    /// Cluster preset.
    pub cluster: ClusterKind,
    /// Master seed; the engine forks all internal streams from it.
    pub seed: u64,
    /// Explicit rate-process seed. `None` derives `seed ^ 0x5EED` — the
    /// experiment drivers' convention, which decorrelates the arrival
    /// process from the engine's internal streams.
    pub rate_seed: Option<u64>,
    /// Virtual horizon each method runs to, seconds.
    pub horizon_s: f64,
    /// When set, the `nostop` method runs this many controller rounds
    /// instead of free-running to the horizon (the Fig-6 protocol).
    pub rounds: Option<u64>,
    /// Methods to race (subset of [`KNOWN_METHODS`]). Empty = trace-only:
    /// the runner samples and digests the rate trajectory without
    /// simulating the engine (the Fig-5 protocol).
    pub methods: Vec<String>,
    /// Arrival-rate process.
    pub rate: RateSpec,
    /// Partition skew.
    pub skew: SkewSpec,
    /// Scheduled faults.
    pub faults: Vec<FaultSpec>,
}

impl ScenarioSpec {
    /// Structural validation of every layer.
    pub fn validate(&self) -> Result<(), String> {
        let ctx = |e: String| format!("scenario `{}`: {e}", self.name);
        require(!self.name.is_empty(), "scenario name must be non-empty")?;
        require(
            self.name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_'),
            &format!("scenario name `{}` must be [A-Za-z0-9_-]", self.name),
        )?;
        require(!self.workload.is_empty(), "workload must be non-empty").map_err(ctx)?;
        finite_pos(self.horizon_s, "horizon_s").map_err(ctx)?;
        if let Some(r) = self.rounds {
            require(r > 0, "rounds must be positive when present").map_err(ctx)?;
        }
        for m in &self.methods {
            require(
                KNOWN_METHODS.contains(&m.as_str()),
                &format!("unknown method `{m}` (known: {KNOWN_METHODS:?})"),
            )
            .map_err(ctx)?;
        }
        self.rate.validate().map_err(ctx)?;
        self.skew.validate().map_err(ctx)?;
        for fault in &self.faults {
            fault.validate().map_err(ctx)?;
        }
        Ok(())
    }

    /// The rate-process seed in force (explicit, or derived from `seed`).
    pub fn effective_rate_seed(&self) -> u64 {
        self.rate_seed.unwrap_or(self.seed ^ 0x5EED)
    }

    /// Serialize the full scenario (inverse of [`ScenarioSpec::from_json`]).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema", json::str(SCENARIO_SCHEMA)),
            ("name", json::str(self.name.clone())),
            ("workload", json::str(self.workload.clone())),
            ("cluster", json::str(self.cluster.name())),
            ("seed", json::uint(self.seed)),
        ];
        if let Some(rs) = self.rate_seed {
            fields.push(("rate_seed", json::uint(rs)));
        }
        fields.push(("horizon_s", json::num(self.horizon_s)));
        if let Some(r) = self.rounds {
            fields.push(("rounds", json::uint(r)));
        }
        fields.push((
            "methods",
            Json::Arr(self.methods.iter().map(|m| json::str(m.clone())).collect()),
        ));
        fields.push(("rate", self.rate.to_json()));
        fields.push(("skew", self.skew.to_json()));
        fields.push((
            "faults",
            Json::Arr(self.faults.iter().map(FaultSpec::to_json).collect()),
        ));
        json::obj(fields)
    }

    /// Parse and structurally check a scenario object. The schema tag must
    /// match [`SCENARIO_SCHEMA`]; unknown tags are a hard error so format
    /// evolution stays explicit.
    pub fn from_json(v: &Json) -> Result<ScenarioSpec, String> {
        let schema = v.field_str("schema").map_err(|e| e.to_string())?;
        require(
            schema == SCENARIO_SCHEMA,
            &format!("unsupported scenario schema `{schema}` (want `{SCENARIO_SCHEMA}`)"),
        )?;
        let methods = v
            .field_array("methods")
            .map_err(|e| e.to_string())?
            .iter()
            .map(|m| {
                m.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "methods must be strings".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let faults = match v.get("faults") {
            None => Vec::new(),
            Some(arr) => arr
                .as_array()
                .ok_or_else(|| "faults must be an array".to_string())?
                .iter()
                .map(FaultSpec::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        };
        let cluster_name = v.field_str("cluster").map_err(|e| e.to_string())?;
        let spec = ScenarioSpec {
            name: v.field_str("name").map_err(|e| e.to_string())?.to_string(),
            workload: v
                .field_str("workload")
                .map_err(|e| e.to_string())?
                .to_string(),
            cluster: ClusterKind::from_name(cluster_name)
                .ok_or_else(|| format!("unknown cluster `{cluster_name}`"))?,
            seed: v.field_u64("seed").map_err(|e| e.to_string())?,
            rate_seed: match v.get("rate_seed") {
                None | Some(Json::Null) => None,
                Some(rs) => Some(rs.as_u64().ok_or("rate_seed must be an integer")?),
            },
            horizon_s: v.field_f64("horizon_s").map_err(|e| e.to_string())?,
            rounds: match v.get("rounds") {
                None | Some(Json::Null) => None,
                Some(r) => Some(r.as_u64().ok_or("rounds must be an integer")?),
            },
            methods,
            rate: RateSpec::from_json(v.get("rate").ok_or_else(|| "missing `rate`".to_string())?)?,
            skew: match v.get("skew") {
                None => SkewSpec::None,
                Some(s) => SkewSpec::from_json(s)?,
            },
            faults,
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adversarial_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "flash-crowd-test".into(),
            workload: "wordcount".into(),
            cluster: ClusterKind::Paper,
            seed: 7,
            rate_seed: None,
            horizon_s: 3_600.0,
            rounds: None,
            methods: vec!["nostop".into(), "bo".into(), "static".into()],
            rate: RateSpec::FlashCrowd {
                base: Box::new(RateSpec::Sinusoid {
                    base: 150_000.0,
                    amplitude: 40_000.0,
                    period_secs: 1_800.0,
                }),
                mean_gap_secs: 240.0,
                crowd_secs: 60.0,
                pareto_shape: 1.5,
                min_magnitude: 1.2,
                max_magnitude: 4.0,
            },
            skew: SkewSpec::HotKey {
                hot_fraction: 0.1,
                hot_weight: 6.0,
            },
            faults: vec![
                FaultSpec::ExecutorCrash {
                    at_s: 900.0,
                    count: 3,
                    relaunch_after_s: Some(60.0),
                },
                FaultSpec::TaskFailures {
                    from_s: 1_000.0,
                    until_s: 1_300.0,
                    probability: 0.1,
                },
            ],
        }
    }

    #[test]
    fn scenario_round_trips_through_json_text() {
        let spec = adversarial_spec();
        spec.validate().expect("spec is valid");
        let text = spec.to_json().to_string_pretty();
        let parsed = ScenarioSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, spec);
        // And the re-serialization is byte-identical (ordered keys).
        assert_eq!(parsed.to_json().to_string_pretty(), text);
    }

    #[test]
    fn every_rate_variant_round_trips() {
        let variants = vec![
            RateSpec::Constant { rate: 500.0 },
            RateSpec::UniformRandom {
                min_rate: 100.0,
                max_rate: 900.0,
                hold_secs: 7.0,
            },
            RateSpec::Sinusoid {
                base: 400.0,
                amplitude: 150.0,
                period_secs: 120.0,
            },
            RateSpec::Ramp {
                start_rate: 100.0,
                end_rate: 600.0,
                duration_secs: 300.0,
            },
            RateSpec::Surge {
                base_rate: 300.0,
                magnitude: 3.0,
                surge_secs: 20.0,
                mean_gap_secs: 90.0,
            },
            RateSpec::ParetoBurst {
                base: Box::new(RateSpec::Constant { rate: 1_000.0 }),
                mean_gap_secs: 60.0,
                burst_secs: 10.0,
                pareto_shape: 1.2,
                min_burst_records: 5_000.0,
                max_burst_records: 200_000.0,
            },
            RateSpec::CorrelatedSurge {
                base: Box::new(RateSpec::Ramp {
                    start_rate: 100.0,
                    end_rate: 400.0,
                    duration_secs: 600.0,
                }),
                trigger_seed: 99,
                magnitude: 2.5,
                surge_secs: 30.0,
                mean_gap_secs: 120.0,
            },
        ];
        for spec in variants {
            spec.validate().expect("variant valid");
            let back = RateSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn validation_names_the_defect() {
        let mut spec = adversarial_spec();
        spec.methods.push("magic".into());
        let err = spec.validate().unwrap_err();
        assert!(err.contains("magic"), "{err}");

        let bad_rate = RateSpec::FlashCrowd {
            base: Box::new(RateSpec::Constant { rate: -1.0 }),
            mean_gap_secs: 240.0,
            crowd_secs: 60.0,
            pareto_shape: 1.5,
            min_magnitude: 1.2,
            max_magnitude: 4.0,
        };
        assert!(bad_rate.validate().is_err(), "nested defect surfaces");

        let bad_skew = SkewSpec::HotKey {
            hot_fraction: 1.5,
            hot_weight: 4.0,
        };
        assert!(bad_skew.validate().is_err());

        let bad_fault = FaultSpec::ReceiverOutage {
            from_s: 10.0,
            until_s: 10.0,
        };
        assert!(bad_fault.validate().is_err());
    }

    #[test]
    fn unknown_kinds_and_schemas_are_rejected() {
        let j = Json::parse(r#"{"kind": "fractal"}"#).unwrap();
        assert!(RateSpec::from_json(&j).is_err());
        assert!(SkewSpec::from_json(&j).is_err());
        assert!(FaultSpec::from_json(&j).is_err());
        let old = Json::parse(r#"{"schema": "nostop-scenario/0", "name": "x"}"#).unwrap();
        assert!(ScenarioSpec::from_json(&old)
            .unwrap_err()
            .contains("schema"));
    }

    #[test]
    fn oversized_crash_count_is_an_error_not_a_wrap() {
        let crash = |count: u64| {
            Json::parse(&format!(
                r#"{{"kind": "executor-crash", "at_s": 60, "count": {count}}}"#
            ))
            .unwrap()
        };
        // 2^32 + 1 would wrap to a 1-executor crash under `as u32`.
        let err = FaultSpec::from_json(&crash(u32::MAX as u64 + 2)).unwrap_err();
        assert!(err.contains("`count` = 4294967297"), "{err}");
        assert!(err.contains("u32"), "{err}");
        assert_eq!(
            FaultSpec::from_json(&crash(u32::MAX as u64)),
            Ok(FaultSpec::ExecutorCrash {
                at_s: 60.0,
                count: u32::MAX,
                relaunch_after_s: None,
            })
        );
    }

    #[test]
    fn seeds_that_would_round_are_rejected() {
        let with_seed = |seed: &str| {
            let text = adversarial_spec()
                .to_json()
                .to_string()
                .replace("\"seed\":7,", &format!("\"seed\":{seed},"));
            ScenarioSpec::from_json(&Json::parse(&text).unwrap())
        };
        // 2^53 + 1 parses to the f64 2^53: loading it as a seed would run
        // a different experiment than the file names.
        assert!(with_seed("9007199254740993").is_err());
        assert!(with_seed("9007199254740992").is_err());
        assert_eq!(with_seed("9007199254740991").unwrap().seed, (1 << 53) - 1);
    }

    #[test]
    fn hot_key_weights_conserve_and_rank() {
        let skew = SkewSpec::HotKey {
            hot_fraction: 0.125,
            hot_weight: 8.0,
        };
        let w = skew.weights(32).expect("skewed");
        assert_eq!(w.len(), 32);
        assert_eq!(skew.hot_partitions(32), 4);
        let sum: f64 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "weights normalize, sum {sum}");
        assert!(w[0] > w[31], "hot partitions outweigh cold ones");
        assert!(
            (w[0] / w[31] - 8.0).abs() < 1e-12,
            "weight ratio is hot_weight"
        );
        // Imbalance: hottest share relative to uniform.
        let imb = skew.imbalance(32);
        assert!((imb - w[0] * 32.0).abs() < 1e-12);
        assert!(imb > 1.0);
        assert_eq!(SkewSpec::None.imbalance(32), 1.0);
        assert_eq!(SkewSpec::None.weights(32), None);
    }

    #[test]
    fn rate_seed_defaults_to_driver_convention() {
        let mut spec = adversarial_spec();
        assert_eq!(spec.effective_rate_seed(), 7 ^ 0x5EED);
        spec.rate_seed = Some(42);
        assert_eq!(spec.effective_rate_seed(), 42);
    }
}
