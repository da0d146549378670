//! Hostile scenario values that used to pass validation and then hang or
//! panic the run: a hold, surge, crowd or burst duration that rounds to
//! zero microseconds, a `hot_weight` whose normalization overflows, a
//! peak rate above `MAX_RATE_PER_S`, a horizon above `MAX_HORIZON_S`, and
//! a fault window whose ends round to the same microsecond. Validation
//! must name each with an error; the values just inside the limits must
//! still build and run.

use nostop_bench::scenario::{default_corpus_dir, parse_scenario, run_method};
use nostop_core::scenario::{
    ClusterKind, ScenarioSpec, SkewSpec, BROKER_PARTITIONS, MAX_HORIZON_S, MAX_RATE_PER_S,
};
use nostop_core::system::StreamingSystem;
use nostop_datagen::adversarial::{FlashCrowdRate, ParetoBurstRate};
use nostop_datagen::broker::{Broker, BrokerConfig};
use nostop_datagen::rate::{ConstantRate, RateSpec, RateSpecExt, SurgeRate, UniformRandomRate};
use nostop_simcore::{SimRng, SimTime};
use std::sync::mpsc;
use std::time::Duration;

fn scenario(rate: RateSpec, skew: SkewSpec) -> ScenarioSpec {
    ScenarioSpec {
        name: "hostile".into(),
        workload: "wordcount".into(),
        cluster: ClusterKind::Paper,
        seed: 1,
        rate_seed: None,
        horizon_s: 60.0,
        rounds: None,
        methods: vec!["static".into()],
        rate,
        skew,
        faults: vec![],
    }
}

fn uniform(hold_secs: f64) -> RateSpec {
    RateSpec::UniformRandom {
        min_rate: 100.0,
        max_rate: 200.0,
        hold_secs,
    }
}

/// Run `work` on a thread under a watchdog: a spec that slipped past
/// validation may spin forever instead of returning.
fn under_watchdog<T: Send + 'static>(work: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || tx.send(work()).ok());
    let out = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("validation or the run hung");
    worker.join().expect("the validation thread panicked");
    out
}

/// Validate `rate`, and if it passes, build it and query it at 1 s, under
/// the watchdog: a duration that rounds to zero would spin the built
/// process forever.
fn validate_under_watchdog(rate: RateSpec) -> Result<(), String> {
    under_watchdog(move || {
        let verdict = scenario(rate.clone(), SkewSpec::None).validate();
        if verdict.is_ok() {
            let mut process = rate.build(SimRng::seed_from_u64(1));
            process.rate_at(SimTime::from_secs_f64(1.0));
        }
        verdict
    })
}

/// The text of a committed corpus scenario, by file stem.
fn corpus(name: &str) -> String {
    std::fs::read_to_string(default_corpus_dir().join(format!("{name}.json")))
        .expect("corpus file reads")
}

fn surge(secs: f64) -> RateSpec {
    RateSpec::Surge {
        base_rate: 100.0,
        magnitude: 2.0,
        surge_secs: secs,
        mean_gap_secs: 1e-9,
    }
}

fn flash_crowd(secs: f64) -> RateSpec {
    RateSpec::FlashCrowd {
        base: Box::new(RateSpec::Constant { rate: 100.0 }),
        mean_gap_secs: 1e-9,
        crowd_secs: secs,
        pareto_shape: 1.5,
        min_magnitude: 1.3,
        max_magnitude: 3.0,
    }
}

/// At most 5 records, so that a 1 µs burst stays under `MAX_RATE_PER_S`.
fn pareto_burst(secs: f64) -> RateSpec {
    RateSpec::ParetoBurst {
        base: Box::new(RateSpec::Constant { rate: 100.0 }),
        mean_gap_secs: 1e-9,
        burst_secs: secs,
        pareto_shape: 1.5,
        min_burst_records: 1.0,
        max_burst_records: 5.0,
    }
}

/// A hold below 0.5 µs rounds to a zero redraw step.
#[test]
fn sub_microsecond_hold_is_rejected_instead_of_hanging() {
    let err = validate_under_watchdog(uniform(4e-7))
        .expect_err("a hold that rounds to 0 µs must not validate");
    assert!(err.contains("hold_secs"), "{err}");
}

/// A 1 ns surge after a 1 ns mean gap advances the onset clock by 0 µs.
#[test]
fn sub_microsecond_surge_is_rejected_instead_of_hanging() {
    let err = validate_under_watchdog(surge(1e-9))
        .expect_err("a surge that rounds to 0 µs must not validate");
    assert!(err.contains("surge_secs"), "{err}");
}

#[test]
fn sub_microsecond_crowd_is_rejected_instead_of_hanging() {
    let err = validate_under_watchdog(flash_crowd(1e-9))
        .expect_err("a crowd that rounds to 0 µs must not validate");
    assert!(err.contains("crowd_secs"), "{err}");
}

#[test]
fn sub_microsecond_burst_is_rejected_instead_of_hanging() {
    let err = validate_under_watchdog(pareto_burst(1e-9))
        .expect_err("a burst that rounds to 0 µs must not validate");
    assert!(err.contains("burst_secs"), "{err}");
}

/// A correlated surge is a surge on a shared trigger stream; the same
/// field guards it.
#[test]
fn sub_microsecond_correlated_surge_is_rejected() {
    let rate = RateSpec::CorrelatedSurge {
        base: Box::new(RateSpec::Constant { rate: 100.0 }),
        trigger_seed: 7,
        magnitude: 2.0,
        surge_secs: 1e-9,
        mean_gap_secs: 1e-9,
    };
    let err = validate_under_watchdog(rate)
        .expect_err("a correlated surge that rounds to 0 µs must not validate");
    assert!(err.contains("surge_secs"), "{err}");
}

#[test]
#[should_panic(expected = "at least 1 µs")]
fn uniform_random_rate_refuses_a_hold_that_rounds_to_zero() {
    let _ = UniformRandomRate::new(100.0, 200.0, 4e-7, SimRng::seed_from_u64(1));
}

#[test]
#[should_panic(expected = "at least 1 µs")]
fn surge_rate_refuses_a_surge_that_rounds_to_zero() {
    let base = Box::new(ConstantRate::new(100.0));
    let _ = SurgeRate::new(base, 2.0, 1e-9, 1e-9, SimRng::seed_from_u64(1));
}

#[test]
#[should_panic(expected = "at least 1 µs")]
fn flash_crowd_rate_refuses_a_crowd_that_rounds_to_zero() {
    let base = Box::new(ConstantRate::new(100.0));
    let _ = FlashCrowdRate::new(base, 1e-9, 1e-9, 1.5, 1.3, 3.0, SimRng::seed_from_u64(1));
}

#[test]
#[should_panic(expected = "at least 1 µs")]
fn pareto_burst_rate_refuses_a_burst_that_rounds_to_zero() {
    let base = Box::new(ConstantRate::new(100.0));
    let _ = ParetoBurstRate::new(base, 1e-9, 1e-9, 1.5, 10.0, 1e3, SimRng::seed_from_u64(1));
}

/// At 1 µs every onset moves the clock, even with a 1 ns mean gap.
#[test]
fn one_microsecond_surge_crowd_and_burst_validate_and_run() {
    for rate in [surge(1e-6), flash_crowd(1e-6), pareto_burst(1e-6)] {
        validate_under_watchdog(rate.clone()).expect("a 1 µs duration is valid");
        let mut process = rate.build(SimRng::seed_from_u64(1));
        let r = process.rate_at(SimTime::from_millis(100));
        assert!(r.is_finite() && r >= 100.0, "{rate:?}: rate {r}");
    }
}

#[test]
fn one_microsecond_hold_validates_and_runs() {
    let rate = uniform(1e-6);
    scenario(rate.clone(), SkewSpec::None)
        .validate()
        .expect("a 1 µs hold is valid");
    let mut process = rate.build(SimRng::seed_from_u64(1));
    let r = process.rate_at(SimTime::from_millis(100));
    assert!((100.0..200.0).contains(&r), "rate {r}");
}

/// `hot_weight: 1e308` is finite and above 1, but the normalizing sum
/// overflows to infinity and every weight collapses to 0, which made the
/// engine's broker panic.
#[test]
fn overflowing_hot_weight_is_a_validation_error() {
    let skew = SkewSpec::HotKey {
        hot_fraction: 0.125,
        hot_weight: 1e308,
    };
    let err = scenario(uniform(30.0), skew)
        .validate()
        .expect_err("a hot weight whose normalization overflows must not validate");
    assert!(err.contains("hot_weight"), "{err}");
}

#[test]
fn huge_but_representable_hot_weight_validates_and_produces() {
    let skew = SkewSpec::HotKey {
        hot_fraction: 0.125,
        hot_weight: 1e300,
    };
    scenario(uniform(30.0), skew)
        .validate()
        .expect("1e300 normalizes to positive finite weights");
    let weights = skew.weights(BROKER_PARTITIONS).expect("skewed");
    let mut broker = Broker::new(BrokerConfig {
        partitions: BROKER_PARTITIONS,
        max_consume_rate: None,
    })
    .with_skew(weights);
    broker.produce(1_000_000);
    let produced = broker.total_produced();
    assert!(
        (1_000_000 - BROKER_PARTITIONS as u64..=1_000_000).contains(&produced),
        "produced {produced}"
    );
}

/// Corpus files with a peak rate raised past `MAX_RATE_PER_S`. `max_rate`
/// 4.3e9 on the Fig-6 LR file used to validate, then build a batch of
/// 1.8e16 records that the status-report wire refuses, which panicked
/// the simulator; a flash crowd multiplies its base's peak.
#[test]
fn corpus_rates_above_the_ceiling_are_validation_errors() {
    // Each value occurs once in its file: `max_rate`, the `base` of the
    // sinusoid under the crowds, and the constant `rate`.
    for (name, from, to) in [
        ("fig6-logistic-regression", ": 13000", ": 4.3e9"),
        ("flash-crowd", ": 150000", ": 4.3e9"),
        ("hot-keys", ": 150000", ": 1e308"),
    ] {
        let err = parse_scenario(&corpus(name).replace(from, to))
            .expect_err("a peak above the ceiling must not validate");
        assert!(err.contains("peak rate"), "{name}: {err}");
    }
}

/// The ceiling itself is valid, and a short NoStop run over it completes.
#[test]
fn rate_at_the_ceiling_validates_and_runs_nostop() {
    let at_ceiling = format!(": {MAX_RATE_PER_S}");
    let spec = parse_scenario(&corpus("hot-keys").replace(": 150000", &at_ceiling))
        .expect("a peak at the ceiling is valid");
    let result = under_watchdog(move || run_method(&spec, "nostop").map(|(_, r)| r))
        .expect("the nostop run completes");
    assert!(result.batches > 0 && result.mean_delay_s.is_finite());
}

/// A trace-only file with `horizon_s: 1e15` used to validate. The trace
/// sampler would then collect 1e14 samples, and its µs clock overflows
/// `u64` above about 1.8e13 s. Only the validation error is asserted: no
/// such spec is ever run.
#[test]
fn horizon_above_the_ceiling_is_a_validation_error() {
    let text = corpus("fig5-wordcount");
    for horizon in ["1e15", "1000001"] {
        let hostile = text.replace(r#""horizon_s": 600"#, &format!(r#""horizon_s": {horizon}"#));
        assert_ne!(hostile, text, "the fig5 file's horizon moved");
        let err =
            parse_scenario(&hostile).expect_err("a horizon above the ceiling must not validate");
        assert!(err.contains("horizon_s"), "{horizon}: {err}");
    }
    let mut spec = parse_scenario(&text).expect("the corpus file is valid");
    spec.horizon_s = MAX_HORIZON_S;
    spec.validate().expect("a horizon at the ceiling is valid");
}

/// The base scenario with `faults` (JSON objects, times in seconds) as its
/// fault list, through the file parser.
fn with_faults(faults: &str) -> Result<ScenarioSpec, String> {
    let text = scenario(uniform(30.0), SkewSpec::None)
        .to_json()
        .to_string();
    assert!(text.contains(r#""faults":[]"#), "{text}");
    parse_scenario(&text.replace(r#""faults":[]"#, &format!(r#""faults":[{faults}]"#)))
}

/// `100.0000001` s is 0.1 µs after `100.0` s: the window checked out in
/// seconds, then rounded to an empty µs window that `build_system`
/// refused with a panic.
#[test]
fn fault_windows_that_round_to_empty_are_rejected() {
    for (fault, defect) in [
        (
            r#"{"kind":"receiver-outage","from_s":100.0,"until_s":100.0000001}"#,
            "outage window must be non-empty",
        ),
        (
            r#"{"kind":"node-slowdown","node":1,"from_s":100.0,"until_s":100.0000001,"factor":0.5}"#,
            "slowdown window must be non-empty",
        ),
        (
            r#"{"kind":"task-failures","from_s":100.0,"until_s":100.0000001,"probability":0.1}"#,
            "failure window must be non-empty",
        ),
    ] {
        let err = with_faults(fault).expect_err("a window that rounds to 0 µs must not validate");
        assert!(err.contains(defect), "{fault}: {err}");
    }
}

/// Both ends are finite seconds, but both saturate the µs clock at
/// `SimTime::MAX`, leaving an empty window.
#[test]
fn fault_window_past_the_clock_is_rejected() {
    let err = with_faults(r#"{"kind":"receiver-outage","from_s":1e300,"until_s":1e301}"#)
        .expect_err("a window past the clock must not validate");
    assert!(err.contains("outage window must be non-empty"), "{err}");
}

/// A 1 µs window is the shortest the engine can replay: all three window
/// kinds validate, build and run to the horizon.
#[test]
fn one_microsecond_fault_windows_build_and_run() {
    let spec = with_faults(concat!(
        r#"{"kind":"receiver-outage","from_s":30.0,"until_s":30.000001},"#,
        r#"{"kind":"node-slowdown","node":1,"from_s":30.0,"until_s":30.000001,"factor":0.5},"#,
        r#"{"kind":"task-failures","from_s":30.0,"until_s":30.000001,"probability":0.1}"#,
    ))
    .expect("1 µs windows are valid");
    let horizon_s = spec.horizon_s;
    let (now_s, result) = under_watchdog(move || {
        run_method(&spec, "static").map(|(sys, result)| (sys.now_s(), result))
    })
    .expect("the static run completes");
    assert!(now_s >= horizon_s, "stopped at {now_s} s");
    assert!(result.batches > 0);
}
