//! Hostile scenario values that used to pass validation and then hang or
//! panic the run: a `hold_secs` that rounds to zero microseconds, and a
//! `hot_weight` so large that normalizing the skew weights overflows.
//! Validation must name each with an error; the values just inside the
//! limits must still build and run.

use nostop_core::scenario::{ClusterKind, ScenarioSpec, SkewSpec, BROKER_PARTITIONS};
use nostop_datagen::broker::{Broker, BrokerConfig};
use nostop_datagen::rate::{RateSpec, RateSpecExt, UniformRandomRate};
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

/// A hold below 0.5 µs rounds to a zero redraw step. It must fail
/// validation; if it did not, the built process would spin forever, so
/// the work runs on a thread under a watchdog.
#[test]
fn sub_microsecond_hold_is_rejected_instead_of_hanging() {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let rate = uniform(4e-7);
        let verdict = scenario(rate.clone(), SkewSpec::None).validate();
        if verdict.is_ok() {
            let mut process = rate.build(SimRng::seed_from_u64(1));
            process.rate_at(SimTime::from_secs_f64(1.0));
        }
        tx.send(verdict).ok();
    });
    let verdict = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("a 0.4 µs hold hung validation or the rate process");
    worker.join().expect("the validation thread panicked");
    let err = verdict.expect_err("a hold that rounds to 0 µs must not validate");
    assert!(err.contains("hold_secs"), "{err}");
}

#[test]
#[should_panic(expected = "at least 1 µs")]
fn uniform_random_rate_refuses_a_hold_that_rounds_to_zero() {
    let _ = UniformRandomRate::new(100.0, 200.0, 4e-7, SimRng::seed_from_u64(1));
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
