//! Declarative scenario wire types: `workload × rate × skew × faults ×
//! cluster × methods` as validated, JSON-round-tripping data.
//!
//! A scenario file is the unit the `scenarios/` corpus is made of: one
//! JSON object describing everything an experiment cell needs — which
//! workload and cluster preset, the arrival-rate process (including the
//! adversarial combinators: flash crowds over a diurnal base, Pareto-sized
//! bursts, correlated multi-source surges), hot-key partition skew, a
//! fault schedule, and the tuning methods to race. The `scenario_runner`
//! binary replays a corpus of these through the parallel fabric; `fig5`
//! and `fig6` load their committed scenario files instead of hard-coding
//! their parameters (the other figure and ablation binaries still build
//! theirs in code).
//!
//! Each type's field table (a `wire!` invocation below) is the one
//! place its wire fields are declared: the type, its `kind` tags, both
//! codec directions and the canonical field order all come from it, and
//! each field type's wire form is its `Field` impl. Only `validate`, which
//! holds the domain rules, is written by hand.
//!
//! This module owns only the *wire* layer: parse, validate, serialize.
//! Building live processes from a [`RateSpec`] happens in `nostop-datagen`
//! (`RateSpecExt::build`); the engine reads [`SkewSpec`] and
//! [`FaultEvent`] directly (`spark-sim`'s `FaultPlan` is a list of them).
//! This crate depends on neither, so the types can flow in both
//! directions without a dependency cycle.
//!
//! Everything is `Result`-based rather than panicking: scenario files are
//! external input, and a bad file must name its defect, not abort the
//! whole corpus run with a stack trace.

use nostop_simcore::json::{self, Json};
use nostop_simcore::{SimDuration, SimTime};

/// Schema tag every scenario file carries.
pub const SCENARIO_SCHEMA: &str = "nostop-scenario/1";

/// Kafka partitions of the engine's broker (paper: more than the
/// cluster's core count). Skew validation normalizes the hot-key weights
/// over this many partitions, as the engine does.
pub const BROKER_PARTITIONS: usize = 32;

/// Ceiling on a [`RateSpec`]'s peak, records per second: about 11× the
/// corpus's largest peak, and far from the 2^53 records per batch that the
/// status-report wire refuses.
pub const MAX_RATE_PER_S: f64 = 1e7;

/// Ceiling on a scenario's `horizon_s`, seconds (about 11.6 days): 250×
/// the corpus's longest horizon (4,000 s). A trace-only run samples the
/// rate once per step up to the horizon, and its µs clock overflows `u64`
/// above about 1.8e13 s.
pub const MAX_HORIZON_S: f64 = 1e6;

/// The tuning methods a scenario may race (the chaos-grid arms).
pub const KNOWN_METHODS: [&str; 3] = ["nostop", "bo", "static"];

/// How one field type crosses the wire. `encode` gives the field's JSON
/// value (`None` leaves the key out); `decode` reads the value found at
/// `key` (`None` when the key is absent) and names the key in its errors.
trait Field: Sized {
    fn encode(&self) -> Option<Json>;
    fn decode(v: Option<&Json>, key: &str) -> Result<Self, String>;
}

/// A required field that is absent or of the wrong type.
fn missing(key: &str) -> String {
    json::missing(key).to_string()
}

/// An integer field narrower than `u64`: a value that does not fit is an
/// error, not a wrap.
fn narrow<T: TryFrom<u64>>(v: Option<&Json>, key: &str) -> Result<T, String> {
    let n = u64::decode(v, key)?;
    let name = std::any::type_name::<T>();
    T::try_from(n).map_err(|_| format!("field `{key}` = {n} does not fit in {name}"))
}

/// `Field` impls for the scalar field types, one row each: the encoder
/// of the field value `x`, then the decoder of the wire value `v` at `key`.
macro_rules! scalar_fields {
    ($(
        $(#[$doc:meta])*
        $t:ty: |$x:ident| $enc:expr, |$v:ident, $key:ident| $dec:expr;
    )*) => {$(
        $(#[$doc])*
        impl Field for $t {
            fn encode(&self) -> Option<Json> {
                let $x = self;
                Some($enc)
            }
            fn decode($v: Option<&Json>, $key: &str) -> Result<Self, String> {
                $dec
            }
        }
    )*};
}

scalar_fields! {
    f64: |x| json::num(*x), |v, key| v.and_then(Json::as_f64).ok_or_else(|| missing(key));
    /// Integers from 2^53 up are refused (`Json::as_u64`): they may have
    /// rounded into a different integer when the text was parsed.
    u64: |x| json::uint(*x), |v, key| v.and_then(Json::as_u64).ok_or_else(|| missing(key));
    u32: |x| json::uint(u64::from(*x)), |v, key| narrow(v, key);
    usize: |x| json::uint(*x as u64), |v, key| narrow(v, key);
    String: |x| json::str(x.as_str()), |v, key| {
        v.and_then(Json::as_str).map(str::to_string).ok_or_else(|| missing(key))
    };
    /// Instants travel as plain seconds, so that files stay hand-writable.
    /// The seconds are checked before they are rounded to µs, because
    /// `from_secs_f64` maps NaN and negative values to 0 without a word.
    SimTime: |x| json::num(x.as_secs_f64()), |v, key| {
        let secs = f64::decode(v, key)?;
        finite_nonneg(secs, key).map(|()| SimTime::from_secs_f64(secs))
    };
    /// Spans travel as seconds too, and must be positive.
    SimDuration: |x| json::num(x.as_secs_f64()), |v, key| {
        let secs = f64::decode(v, key)?;
        finite_pos(secs, key).map(|()| SimDuration::from_secs_f64(secs))
    };
    ClusterKind: |x| json::str(x.name()), |v, key| {
        let name = v.and_then(Json::as_str).ok_or_else(|| missing(key))?;
        ClusterKind::from_name(name).ok_or_else(|| format!("unknown cluster `{name}`"))
    };
}

/// `None` leaves the key out; an absent key or `null` reads as `None`.
impl<T: Field> Field for Option<T> {
    fn encode(&self) -> Option<Json> {
        self.as_ref().and_then(T::encode)
    }
    fn decode(v: Option<&Json>, key: &str) -> Result<Self, String> {
        match v {
            None | Some(Json::Null) => Ok(None),
            _ => T::decode(v, key).map(Some),
        }
    }
}

impl<T: Field> Field for Box<T> {
    fn encode(&self) -> Option<Json> {
        T::encode(self)
    }
    fn decode(v: Option<&Json>, key: &str) -> Result<Self, String> {
        T::decode(v, key).map(Box::new)
    }
}

/// An array whose every element has the field type `T`.
impl<T: Field> Field for Vec<T> {
    fn encode(&self) -> Option<Json> {
        Some(Json::Arr(self.iter().filter_map(T::encode).collect()))
    }
    fn decode(v: Option<&Json>, key: &str) -> Result<Self, String> {
        let items = v.and_then(Json::as_array).ok_or_else(|| missing(key))?;
        items.iter().map(|i| T::decode(Some(i), key)).collect()
    }
}

/// Declares a wire type from its field table and generates its codec.
///
/// An enum is a tagged object: each variant is `Name = "kind-tag"`, with
/// its fields, if any, in braces (`name: Type => "wire_key",`). A struct
/// carries a fixed tag instead (the schema); its fields may name the value
/// an absent key stands for (`name: Type = default => "wire_key",`), and
/// its `from_json` also runs the hand-written `validate`. Both emit the
/// type with its docs and derives, `to_json` (the tag, then the fields in
/// table order) and `from_json`; an enum also gets `kind()`, errors that
/// name the variant (``rate `surge`: …``) and the `Field` impl that nests
/// it in another table.
macro_rules! wire {
    (
        $(#[$attr:meta])*
        pub enum $Name:ident as $what:literal {
            $(
                $(#[$vattr:meta])*
                $Variant:ident = $tag:literal $({
                    $($(#[$fattr:meta])* $field:ident: $fty:ty => $key:literal,)*
                })?,
            )*
        }
    ) => {
        $(#[$attr])*
        pub enum $Name {
            $(
                $(#[$vattr])*
                $Variant $({ $($(#[$fattr])* $field: $fty,)* })?,
            )*
        }

        impl $Name {
            /// The tag `to_json` writes as `"kind"`.
            pub fn kind(&self) -> &'static str {
                match self {
                    $($Name::$Variant { .. } => $tag,)*
                }
            }

            /// Serialize as a tagged JSON object (`{"kind": "...", ...}`),
            /// fields in table order.
            pub fn to_json(&self) -> Json {
                let mut fields = vec![("kind", json::str(self.kind()))];
                match self {
                    $($Name::$Variant $({ $($field,)* })? => {
                        $($(fields.extend(Field::encode($field).map(|j| ($key, j)));)*)?
                    })*
                }
                json::obj(fields)
            }

            /// Parse a tagged JSON object (inverse of `to_json`). Ranges
            /// are not checked: call `validate` after.
            pub fn from_json(v: &Json) -> Result<Self, String> {
                let kind = v.field_str("kind").map_err(|e| e.to_string())?;
                let ctx = |e: String| format!("{} `{kind}`: {e}", $what);
                match kind {
                    $($tag => Ok($Name::$Variant $({
                        $($field: <$fty as Field>::decode(v.get($key), $key).map_err(ctx)?,)*
                    })?),)*
                    other => Err(format!("unknown {} kind `{other}`", $what)),
                }
            }
        }

        impl Field for $Name {
            fn encode(&self) -> Option<Json> {
                Some(self.to_json())
            }
            fn decode(v: Option<&Json>, key: &str) -> Result<Self, String> {
                $Name::from_json(v.ok_or_else(|| format!("missing `{key}`"))?)
            }
        }
    };
    (
        $(#[$attr:meta])*
        pub struct $Name:ident as $what:literal, $tag_key:literal = $tag:ident {
            $(
                $(#[$fattr:meta])*
                pub $field:ident: $fty:ty $(= $default:expr)? => $key:literal,
            )*
        }
    ) => {
        $(#[$attr])*
        pub struct $Name {
            $($(#[$fattr])* pub $field: $fty,)*
        }

        impl $Name {
            /// Serialize: the tag, then the fields in table order (inverse
            /// of `from_json`).
            pub fn to_json(&self) -> Json {
                let mut fields = vec![($tag_key, json::str($tag))];
                $(fields.extend(Field::encode(&self.$field).map(|j| ($key, j)));)*
                json::obj(fields)
            }

            /// Parse and validate. The tag must match exactly: an unknown
            /// one is a hard error, so format evolution stays explicit.
            pub fn from_json(v: &Json) -> Result<Self, String> {
                let tag = v.field_str($tag_key).map_err(|e| e.to_string())?;
                require(
                    tag == $tag,
                    &format!("unsupported {} {} `{tag}` (want `{}`)", $what, $tag_key, $tag),
                )?;
                let spec = $Name {
                    $($field: match v.get($key) {
                        $(None => $default,)?
                        value => <$fty as Field>::decode(value, $key)?,
                    },)*
                };
                spec.validate()?;
                Ok(spec)
            }
        }
    };
}

wire! {
    /// A declarative, comparable description of an arrival-rate process.
    ///
    /// Lives here (not in `datagen`) because it is a *wire type*: fleet
    /// tenant specs, scenario files, and reports all carry it, and none of
    /// them should drag in the live process implementations. The composite
    /// variants box their base spec, so a diurnal cycle with superimposed
    /// flash crowds is literally `FlashCrowd { base: Sinusoid { .. }, .. }`.
    #[derive(Debug, Clone, PartialEq)]
    pub enum RateSpec as "rate" {
        /// A constant rate — the idealized regime prior work assumes.
        Constant = "constant" {
            /// Records per second.
            rate: f64 => "rate",
        },
        /// The paper's uniform-random redraw model (§6.2.2).
        UniformRandom = "uniform-random" {
            /// Lower rate bound.
            min_rate: f64 => "min_rate",
            /// Upper rate bound.
            max_rate: f64 => "max_rate",
            /// Seconds between redraws.
            hold_secs: f64 => "hold_secs",
        },
        /// A sinusoidal (diurnal-style) rate.
        Sinusoid = "sinusoid" {
            /// Mean rate.
            base: f64 => "base",
            /// Peak deviation from the mean.
            amplitude: f64 => "amplitude",
            /// Full-cycle period in seconds.
            period_secs: f64 => "period_secs",
        },
        /// A linear ramp — the "slow drift" regime where NoStop's std-dev
        /// reset trigger never fires.
        Ramp = "ramp" {
            /// Rate at `t = 0`.
            start_rate: f64 => "start_rate",
            /// Rate at `t = duration_secs` and beyond.
            end_rate: f64 => "end_rate",
            /// Seconds the ramp spans.
            duration_secs: f64 => "duration_secs",
        },
        /// Poisson surges of fixed magnitude over a constant base (§5.5).
        Surge = "surge" {
            /// Base records per second between surges.
            base_rate: f64 => "base_rate",
            /// Multiplicative surge factor (`>= 1`).
            magnitude: f64 => "magnitude",
            /// Surge duration in seconds.
            surge_secs: f64 => "surge_secs",
            /// Mean seconds between surge onsets (Poisson).
            mean_gap_secs: f64 => "mean_gap_secs",
        },
        /// Flash crowds over any base: Poisson onsets whose *magnitude* is
        /// drawn per-event from a capped Pareto — most crowds are mild, a
        /// heavy tail is violent. The regime where the reset trigger fires
        /// constantly.
        FlashCrowd = "flash-crowd" {
            /// The underlying process the crowds multiply.
            base: Box<RateSpec> => "base",
            /// Mean seconds between crowd onsets (Poisson).
            mean_gap_secs: f64 => "mean_gap_secs",
            /// How long each crowd lasts, seconds.
            crowd_secs: f64 => "crowd_secs",
            /// Pareto tail index for the magnitude draw (smaller = heavier).
            pareto_shape: f64 => "pareto_shape",
            /// Smallest crowd magnitude (the Pareto scale), `>= 1`.
            min_magnitude: f64 => "min_magnitude",
            /// Hard cap on the crowd magnitude.
            max_magnitude: f64 => "max_magnitude",
        },
        /// Heavy-tailed burst *arrivals*: Poisson onsets each injecting a
        /// Pareto-sized record count (capped), spread over the burst window
        /// as surplus rate on top of the base.
        ParetoBurst = "pareto-burst" {
            /// The underlying process the bursts ride on.
            base: Box<RateSpec> => "base",
            /// Mean seconds between burst onsets (Poisson).
            mean_gap_secs: f64 => "mean_gap_secs",
            /// Seconds each burst's records are spread over.
            burst_secs: f64 => "burst_secs",
            /// Pareto tail index for the burst size (smaller = heavier).
            pareto_shape: f64 => "pareto_shape",
            /// Smallest burst size in records (the Pareto scale).
            min_burst_records: f64 => "min_burst_records",
            /// Hard cap on the burst size in records.
            max_burst_records: f64 => "max_burst_records",
        },
        /// Multi-source surges sharing a trigger stream: every process built
        /// with the same `trigger_seed` surges at the *same instants*
        /// regardless of its own RNG fork — N tenants spike together, the
        /// way correlated production incidents do.
        CorrelatedSurge = "correlated-surge" {
            /// The underlying process each source runs between surges.
            base: Box<RateSpec> => "base",
            /// The shared trigger stream; equal seeds ⇒ equal onset times.
            trigger_seed: u64 => "trigger_seed",
            /// Multiplicative surge factor (`>= 1`).
            magnitude: f64 => "magnitude",
            /// Surge duration in seconds.
            surge_secs: f64 => "surge_secs",
            /// Mean seconds between surge onsets (Poisson).
            mean_gap_secs: f64 => "mean_gap_secs",
        },
    }
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

/// A positive, finite duration that also rounds to at least one
/// microsecond: a rate process whose hold, surge, crowd or burst rounds to
/// zero would never move its clock.
fn whole_micros(x: f64, what: &str) -> Result<(), String> {
    finite_pos(x, what)?;
    require(
        SimDuration::from_secs_f64(x) > SimDuration::ZERO,
        &format!("{what} must round to at least 1 µs, got {x}"),
    )
}

fn finite_nonneg(x: f64, what: &str) -> Result<(), String> {
    require(
        x.is_finite() && x >= 0.0,
        &format!("{what} must be non-negative and finite, got {x}"),
    )
}

impl RateSpec {
    /// Structural validation, plus a peak rate that is finite and at most
    /// [`MAX_RATE_PER_S`]; composite variants validate recursively.
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
                whole_micros(*hold_secs, "hold_secs")
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
                whole_micros(*surge_secs, "surge_secs")?;
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
                whole_micros(*crowd_secs, "crowd_secs")?;
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
                whole_micros(*burst_secs, "burst_secs")?;
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
                whole_micros(*surge_secs, "surge_secs")?;
                finite_pos(*mean_gap_secs, "mean_gap_secs")
            }
        }?;
        let peak = self.peak_rate();
        require(
            peak.is_finite() && peak <= MAX_RATE_PER_S,
            &format!("peak rate {peak} rec/s must be finite and at most {MAX_RATE_PER_S}"),
        )
    }

    /// The largest rate one event of this process can produce, records per
    /// second. Composite variants bound their base by its own peak.
    pub fn peak_rate(&self) -> f64 {
        match self {
            RateSpec::Constant { rate } => *rate,
            RateSpec::UniformRandom { max_rate, .. } => *max_rate,
            RateSpec::Sinusoid {
                base, amplitude, ..
            } => base + amplitude.abs(),
            RateSpec::Ramp {
                start_rate,
                end_rate,
                ..
            } => start_rate.max(*end_rate),
            RateSpec::Surge {
                base_rate,
                magnitude,
                ..
            } => base_rate * magnitude,
            RateSpec::FlashCrowd {
                base,
                max_magnitude,
                ..
            } => base.peak_rate() * max_magnitude,
            RateSpec::ParetoBurst {
                base,
                burst_secs,
                max_burst_records,
                ..
            } => base.peak_rate() + max_burst_records / burst_secs,
            RateSpec::CorrelatedSurge {
                base, magnitude, ..
            } => base.peak_rate() * magnitude,
        }
    }
}

wire! {
    /// Partition skew applied at the broker's produce side.
    ///
    /// The paper's deployment avoids skew by construction (§6.1: more
    /// partitions than cores, uniform keying); production traffic does not.
    /// `HotKey` concentrates a `hot_weight`-times-fair share of every produce
    /// call onto the first `⌈hot_fraction · partitions⌉` partitions —
    /// deterministic (no RNG), conservation-exact modulo per-partition
    /// fractional carries.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum SkewSpec as "skew" {
        /// Uniform production — byte-identical to a build without skew.
        None = "none",
        /// Hot-key skew: a fraction of partitions receives a multiplied share.
        HotKey = "hot-key" {
            /// Fraction of partitions that are hot, in `(0, 1)`.
            hot_fraction: f64 => "hot_fraction",
            /// Relative weight of a hot partition vs a cold one, `> 1`.
            hot_weight: f64 => "hot_weight",
        },
    }
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
                )?;
                // A huge weight overflows the normalizing sum, and the
                // normalized weights collapse to zero.
                let weights = self.weights(BROKER_PARTITIONS).unwrap_or_default();
                require(
                    weights.iter().all(|w| w.is_finite() && *w > 0.0),
                    &format!(
                        "hot_weight {hot_weight} leaves normalized weights that are not \
                         positive and finite over {BROKER_PARTITIONS} partitions"
                    ),
                )
            }
        }
    }
}

wire! {
    /// One scheduled fault, on the engine's microsecond clock.
    ///
    /// The scenario format and the engine share this type: scenario files
    /// carry its times as plain seconds (`at_s`, `from_s`, `until_s`,
    /// `relaunch_after_s`) so they stay hand-writable, [`FaultEvent::from_json`]
    /// converts them once at parse time, and `spark-sim`'s `FaultPlan`
    /// replays the typed value.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum FaultEvent as "fault" {
        /// Kill `count` executors at `at` (victims drawn uniformly from the
        /// live set; the set never drops below one). With `relaunch_after`,
        /// the cluster manager restores the target count after that delay —
        /// replacements pay the usual launch latency and jar shipping.
        ExecutorCrash = "executor-crash" {
            /// When the crash happens.
            at: SimTime => "at_s",
            /// Executors killed (capped so at least one survives).
            count: u32 => "count",
            /// Delay until the cluster manager relaunches replacements
            /// (`None` = the capacity is gone for good).
            relaunch_after: Option<SimDuration> => "relaunch_after_s",
        },
        /// Node `node` runs at `factor` × its normal speed in `[from, until)`
        /// — a straggler window (background load, thermal throttling).
        NodeSlowdown = "node-slowdown" {
            /// Affected node id.
            node: usize => "node",
            /// Window start (inclusive).
            from: SimTime => "from_s",
            /// Window end (exclusive).
            until: SimTime => "until_s",
            /// Speed multiplier in `(0, 1]`-ish; values > 1 model a boost.
            factor: f64 => "factor",
        },
        /// Receivers are down in `[from, until)`: records produced by the
        /// source during the window never reach the broker and are counted as
        /// dropped (a Kafka-less receiver loses data; the declared drop keeps
        /// the conservation ledger exact).
        ReceiverOutage = "receiver-outage" {
            /// Window start (inclusive).
            from: SimTime => "from_s",
            /// Window end (exclusive).
            until: SimTime => "until_s",
        },
        /// Tasks scheduled in `[from, until)` fail with `probability` per
        /// attempt and are retried on the same slot, up to the engine's
        /// per-task retry bound.
        TaskFailures = "task-failures" {
            /// Window start (inclusive).
            from: SimTime => "from_s",
            /// Window end (exclusive).
            until: SimTime => "until_s",
            /// Per-attempt failure probability in `[0, 1)`.
            probability: f64 => "probability",
        },
    }
}

/// A fault window must hold at least one microsecond: the engine compares
/// `SimTime`s, so seconds that round to the same µs declare nothing.
fn non_empty_window(what: &str, from: SimTime, until: SimTime) -> Result<(), String> {
    require(
        from < until,
        &format!(
            "{what} window must be non-empty, got [{}, {}) µs",
            from.as_micros(),
            until.as_micros()
        ),
    )
}

impl FaultEvent {
    /// Structural validation on the µs values the engine reads: a positive
    /// crash count, non-empty windows, a positive finite slowdown factor,
    /// and a failure probability in `[0, 1)` (at 1 every task would loop
    /// to the retry bound).
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            FaultEvent::ExecutorCrash { count, .. } => {
                require(count > 0, "crash must kill at least one executor")
            }
            FaultEvent::NodeSlowdown {
                from,
                until,
                factor,
                ..
            } => {
                non_empty_window("slowdown", from, until)?;
                finite_pos(factor, "slowdown factor")
            }
            FaultEvent::ReceiverOutage { from, until } => non_empty_window("outage", from, until),
            FaultEvent::TaskFailures {
                from,
                until,
                probability,
            } => {
                non_empty_window("failure", from, until)?;
                require(
                    (0.0..1.0).contains(&probability),
                    &format!("failure probability must be in [0, 1), got {probability}"),
                )
            }
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
        [ClusterKind::Paper, ClusterKind::Testbed]
            .into_iter()
            .find(|c| c.name() == name)
    }
}

wire! {
    /// One validated scenario: everything an experiment cell is a pure
    /// function of. See the module docs for the file format.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ScenarioSpec as "scenario", "schema" = SCENARIO_SCHEMA {
        /// Unique scenario name (the digest table's key).
        pub name: String => "name",
        /// Workload name, resolved by the runner (`nostop-workloads` owns the
        /// canonical list; this crate only requires it to be non-empty).
        pub workload: String => "workload",
        /// Cluster preset.
        pub cluster: ClusterKind => "cluster",
        /// Master seed; the engine forks all internal streams from it.
        pub seed: u64 => "seed",
        /// Explicit rate-process seed. `None` derives `seed ^ 0x5EED` — the
        /// experiment drivers' convention, which decorrelates the arrival
        /// process from the engine's internal streams.
        pub rate_seed: Option<u64> => "rate_seed",
        /// Virtual horizon each method runs to, seconds.
        pub horizon_s: f64 => "horizon_s",
        /// When set, the `nostop` method runs this many controller rounds
        /// instead of free-running to the horizon (the Fig-6 protocol).
        pub rounds: Option<u64> => "rounds",
        /// Methods to race (subset of [`KNOWN_METHODS`]). Empty = trace-only:
        /// the runner samples and digests the rate trajectory without
        /// simulating the engine (the Fig-5 protocol).
        pub methods: Vec<String> => "methods",
        /// Arrival-rate process.
        pub rate: RateSpec => "rate",
        /// Partition skew.
        pub skew: SkewSpec = SkewSpec::None => "skew",
        /// Scheduled faults.
        pub faults: Vec<FaultEvent> = Vec::new() => "faults",
    }
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
        let h = self.horizon_s;
        require(
            h.is_finite() && h > 0.0 && h <= MAX_HORIZON_S,
            &format!("horizon_s must be positive and at most {MAX_HORIZON_S} s, got {h}"),
        )
        .map_err(ctx)?;
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
                FaultEvent::ExecutorCrash {
                    at: SimTime::from_secs_f64(900.0),
                    count: 3,
                    relaunch_after: Some(SimDuration::from_secs(60)),
                },
                FaultEvent::TaskFailures {
                    from: SimTime::from_secs_f64(1_000.0),
                    until: SimTime::from_secs_f64(1_300.0),
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
    fn every_rate_variant_round_trips_and_bounds_its_peak() {
        let variants = vec![
            RateSpec::Constant { rate: 500.0 },
            RateSpec::UniformRandom {
                min_rate: 100.0,
                max_rate: 900.0,
                hold_secs: 7.0,
            },
            RateSpec::Sinusoid {
                base: 400.0,
                amplitude: -150.0,
                period_secs: 120.0,
            },
            RateSpec::Ramp {
                start_rate: 600.0,
                end_rate: 100.0,
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
        // The largest rate each variant can produce, in order.
        let peaks = [500.0, 900.0, 550.0, 600.0, 900.0, 21_000.0, 1_000.0];
        for (spec, peak) in variants.into_iter().zip(peaks) {
            spec.validate().expect("variant valid");
            assert_eq!(spec.peak_rate(), peak, "{spec:?}");
            let back = RateSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(back, spec);
        }
        assert_eq!(adversarial_spec().rate.peak_rate(), 190_000.0 * 4.0);
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

        let t = SimTime::from_secs_f64;
        let cases = [
            (
                FaultEvent::ReceiverOutage {
                    from: t(10.0),
                    until: t(10.0),
                },
                "outage window must be non-empty",
            ),
            (
                FaultEvent::ExecutorCrash {
                    at: t(1.0),
                    count: 0,
                    relaunch_after: None,
                },
                "at least one executor",
            ),
            (
                FaultEvent::NodeSlowdown {
                    node: 0,
                    from: t(1.0),
                    until: t(2.0),
                    factor: f64::INFINITY,
                },
                "slowdown factor",
            ),
            (
                FaultEvent::TaskFailures {
                    from: t(1.0),
                    until: t(2.0),
                    probability: 1.0,
                },
                "probability",
            ),
            (
                FaultEvent::TaskFailures {
                    from: t(2.0),
                    until: t(1.0),
                    probability: 0.5,
                },
                "failure window must be non-empty",
            ),
        ];
        for (fault, defect) in cases {
            let err = fault.validate().unwrap_err();
            assert!(err.contains(defect), "{fault:?}: {err}");
        }
    }

    #[test]
    fn unknown_kinds_and_schemas_are_rejected() {
        let j = Json::parse(r#"{"kind": "fractal"}"#).unwrap();
        assert!(RateSpec::from_json(&j).is_err());
        assert!(SkewSpec::from_json(&j).is_err());
        assert!(FaultEvent::from_json(&j).is_err());
        let old = Json::parse(r#"{"schema": "nostop-scenario/0", "name": "x"}"#).unwrap();
        assert!(ScenarioSpec::from_json(&old)
            .unwrap_err()
            .contains("schema"));
    }

    #[test]
    fn absent_optional_fields_read_as_their_defaults() {
        let text = r#"{"schema": "nostop-scenario/1", "name": "bare", "workload": "wc",
            "cluster": "testbed", "seed": 3, "rate_seed": null, "horizon_s": 60,
            "methods": [], "rate": {"kind": "constant", "rate": 10}}"#;
        let parse = |text: &str| ScenarioSpec::from_json(&Json::parse(text).unwrap());
        let spec = parse(text).unwrap();
        assert_eq!((spec.rate_seed, spec.rounds), (None, None));
        assert_eq!(spec.skew, SkewSpec::None);
        assert!(spec.faults.is_empty());
        // Required fields have no default, and errors name the key (and,
        // inside a tagged object, the variant).
        let err = parse(&text.replace(r#""methods": [], "#, "")).unwrap_err();
        assert!(err.contains("`methods`"), "{err}");
        let hot_key = Json::parse(r#"{"kind": "hot-key", "hot_weight": 2}"#).unwrap();
        let err = SkewSpec::from_json(&hot_key).unwrap_err();
        assert!(err.starts_with("skew `hot-key`: "), "{err}");
        assert!(err.contains("`hot_fraction`"), "{err}");
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
        let err = FaultEvent::from_json(&crash(u32::MAX as u64 + 2)).unwrap_err();
        assert!(err.contains("`count` = 4294967297"), "{err}");
        assert!(err.contains("u32"), "{err}");
        assert_eq!(
            FaultEvent::from_json(&crash(u32::MAX as u64)),
            Ok(FaultEvent::ExecutorCrash {
                at: SimTime::from_secs_f64(60.0),
                count: u32::MAX,
                relaunch_after: None,
            })
        );
    }

    #[test]
    fn fault_seconds_are_checked_before_rounding() {
        let parse = |text: &str| FaultEvent::from_json(&Json::parse(text).unwrap());
        // `from_secs_f64` would clamp a negative start to 0 without a word.
        let err = parse(r#"{"kind": "receiver-outage", "from_s": -5, "until_s": 10}"#).unwrap_err();
        assert!(err.contains("from_s"), "{err}");
        let err =
            parse(r#"{"kind": "executor-crash", "at_s": 1, "count": 1, "relaunch_after_s": 0}"#)
                .unwrap_err();
        assert!(err.contains("relaunch_after_s"), "{err}");
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
