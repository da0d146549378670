//! Differential tests for the exact ingest path.
//!
//! The broker keeps skewed production once per weight class, and the
//! generator samples the rate once per constant segment. Each runs here
//! against a test-only reference that does the work the plain way — one
//! state per partition, one `rate_at` per 100 ms step, libm `floor` — on
//! generated inputs, and every output must agree bit for bit.
//!
//! `PROPTEST_CASES` raises the case count (CI runs 2000).

use nostop_datagen::adversarial::{ADV_BASE_STREAM, ADV_EVENT_STREAM};
use nostop_datagen::broker::{Broker, BrokerConfig};
use nostop_datagen::rate::{RateProcess, RateSpec, RateSpecExt, TraceRate};
use nostop_datagen::{IngestStats, StreamGenerator};
use nostop_simcore::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;

// --- Reference broker: one offset and carry per partition --------------

/// The broker as a per-partition model: each partition holds its own
/// produced offset and carry and takes its share of every produce call.
struct RefBroker {
    /// Normalized weights, or `None` for uniform production.
    weights: Option<Vec<f64>>,
    produced: Vec<u64>,
    carry: Vec<f64>,
    consumed: Vec<u64>,
    max_consume_rate: Option<f64>,
    rate_carry: f64,
}

impl RefBroker {
    fn new(partitions: usize, weights: Option<&[f64]>) -> Self {
        let weights = weights.map(|w| {
            let total: f64 = w.iter().sum();
            w.iter().map(|x| x / total).collect()
        });
        RefBroker {
            weights,
            produced: vec![0; partitions],
            carry: vec![0.0; partitions],
            consumed: vec![0; partitions],
            max_consume_rate: None,
            rate_carry: 0.0,
        }
    }

    fn produce(&mut self, count: u64) {
        if count == 0 {
            return;
        }
        let n = self.produced.len();
        for i in 0..n {
            let want = match &self.weights {
                Some(w) => count as f64 * w[i] + self.carry[i],
                None => count as f64 / n as f64 + self.carry[i],
            };
            let whole = want.floor();
            self.carry[i] = want - whole;
            self.produced[i] += whole as u64;
        }
    }

    fn lag_of(&self, i: usize) -> u64 {
        self.produced[i] - self.consumed[i]
    }

    fn lags(&self) -> Vec<u64> {
        (0..self.produced.len()).map(|i| self.lag_of(i)).collect()
    }

    fn total_produced(&self) -> u64 {
        self.produced.iter().sum()
    }

    fn total_lag(&self) -> u64 {
        self.lags().iter().sum()
    }

    fn set_max_consume_rate(&mut self, rate: Option<f64>) {
        self.max_consume_rate = rate.map(|r| r.max(0.0));
        if self.max_consume_rate.is_none() {
            self.rate_carry = 0.0;
        }
    }

    fn consume_window(&mut self, elapsed_secs: f64) -> u64 {
        let lag = self.total_lag();
        let budget = match self.max_consume_rate {
            None => lag,
            Some(rate) => {
                let allowed = rate * elapsed_secs.max(0.0) + self.rate_carry;
                let whole = allowed.floor().max(0.0);
                let take = (whole as u64).min(lag);
                self.rate_carry = (allowed - whole).clamp(0.0, 1.0);
                take
            }
        };
        self.take_uniform(budget);
        budget
    }

    fn consume_exact(&mut self, count: u64) -> u64 {
        let take = count.min(self.total_lag());
        self.take_uniform(take);
        take
    }

    fn take_uniform(&mut self, mut remaining: u64) {
        let n = self.produced.len();
        while remaining > 0 {
            let lagging = (0..n).filter(|&i| self.lag_of(i) > 0).count() as u64;
            if lagging == 0 {
                break;
            }
            let share = (remaining / lagging).max(1);
            for i in 0..n {
                if remaining == 0 {
                    break;
                }
                let lag = self.lag_of(i);
                if lag == 0 {
                    continue;
                }
                let take = share.min(lag).min(remaining);
                self.consumed[i] += take;
                remaining -= take;
            }
        }
    }
}

/// Raw (unnormalized) weights in one of four shapes: all equal, two
/// values at random positions (hot-key style), all distinct, or a few
/// values one ulp apart (distinct classes that a loose grouping merges).
fn weights(rng: &mut SimRng, partitions: usize) -> Vec<f64> {
    match rng.uniform_u64(0, 3) {
        0 => vec![rng.uniform(0.1, 10.0); partitions],
        1 => {
            let (cold, hot) = (rng.uniform(0.1, 3.0), rng.uniform(3.0, 50.0));
            let p_hot = rng.uniform(0.05, 0.95);
            (0..partitions)
                .map(|_| {
                    if rng.uniform(0.0, 1.0) < p_hot {
                        hot
                    } else {
                        cold
                    }
                })
                .collect()
        }
        2 => (0..partitions).map(|_| rng.uniform(0.01, 100.0)).collect(),
        _ => {
            let base = rng.uniform(0.1, 10.0).to_bits();
            (0..partitions)
                .map(|_| f64::from_bits(base + rng.uniform_u64(0, 2)))
                .collect()
        }
    }
}

fn assert_brokers_agree(b: &Broker, r: &RefBroker, step: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(b.partition_lags(), r.lags(), "lags after op {}", step);
    prop_assert_eq!(
        b.total_produced(),
        r.total_produced(),
        "produced after op {}",
        step
    );
    prop_assert_eq!(b.total_lag(), r.total_lag(), "lag after op {}", step);
    Ok(())
}

/// Drive a broker and its reference through one random operation sequence.
fn broker_case(seed: u64, skewed: bool) -> Result<(), TestCaseError> {
    let mut rng = SimRng::seed_from_u64(seed);
    let partitions = rng.uniform_u64(1, 48) as usize;
    let config = BrokerConfig {
        partitions,
        max_consume_rate: None,
    };
    let (mut b, mut r) = if skewed {
        let w = weights(&mut rng, partitions);
        (
            Broker::new(config).with_skew(w.clone()),
            RefBroker::new(partitions, Some(&w)),
        )
    } else {
        (Broker::new(config), RefBroker::new(partitions, None))
    };
    let ops = rng.uniform_u64(1, 80) as usize;
    for step in 0..ops {
        match rng.uniform_u64(0, 9) {
            0..=4 => {
                let count = match rng.uniform_u64(0, 3) {
                    0 => rng.uniform_u64(0, 3),
                    1 => rng.uniform_u64(0, 100),
                    2 => rng.uniform_u64(0, 50_000),
                    _ => rng.uniform_u64(0, 1 << 40),
                };
                b.produce(count);
                r.produce(count);
            }
            5 | 6 => {
                let count = rng.uniform_u64(0, r.total_lag() + 10);
                prop_assert_eq!(b.consume_exact(count), r.consume_exact(count));
            }
            7 | 8 => {
                let secs = rng.uniform(0.0, 20.0);
                prop_assert_eq!(b.consume_window(secs), r.consume_window(secs));
            }
            _ => {
                let limit = if rng.bernoulli(0.3) {
                    None
                } else {
                    Some(rng.uniform(0.0, 5_000.0))
                };
                b.set_max_consume_rate(limit);
                r.set_max_consume_rate(limit);
            }
        }
        assert_brokers_agree(&b, &r, step)?;
    }
    Ok(())
}

// --- Reference generator: one rate_at per 100 ms step ------------------

const INTEGRATION_STEP: SimDuration = SimDuration::from_millis(100);

/// The generator as it integrates without a segment cache: every step
/// samples the rate, and every split uses libm `floor`.
struct RefGenerator {
    rate: Box<dyn RateProcess>,
    produced_until: SimTime,
    carry: f64,
    last_rate: f64,
    steps: u64,
}

impl RefGenerator {
    fn split(&mut self, want: f64) -> u64 {
        let whole = want.floor().max(0.0);
        self.carry = want - whole;
        whole as u64
    }

    fn advance_to(&mut self, t: SimTime, broker: &mut Broker) -> u64 {
        if let Some(r) = self.rate.constant() {
            if self.produced_until >= t {
                return 0;
            }
            let dt = (t - self.produced_until).as_secs_f64();
            self.last_rate = r;
            let n = self.split(r * dt + self.carry);
            self.produced_until = t;
            broker.produce(n);
            return n;
        }
        let mut produced = 0;
        while self.produced_until < t {
            let step_end = (self.produced_until + INTEGRATION_STEP).min(t);
            let dt = (step_end - self.produced_until).as_secs_f64();
            let r = self.rate.rate_at(self.produced_until);
            self.last_rate = r;
            let n = self.split(r * dt + self.carry);
            broker.produce(n);
            self.steps += 1;
            produced += n;
            self.produced_until = step_end;
        }
        produced
    }
}

/// A random rate stack: a leaf process, or a combinator over one.
fn rate_spec(rng: &mut SimRng, depth: u32) -> RateSpec {
    let pick = if depth == 0 {
        rng.uniform_u64(0, 4)
    } else {
        rng.uniform_u64(0, 7)
    };
    // Short holds and gaps put several segment changes inside one step.
    let secs = |rng: &mut SimRng| {
        if rng.bernoulli(0.3) {
            rng.uniform(0.001, 0.3)
        } else {
            rng.uniform(0.3, 40.0)
        }
    };
    match pick {
        0 => RateSpec::Constant {
            rate: rng.uniform(0.0, 200_000.0),
        },
        1 => {
            let min_rate = rng.uniform(0.0, 100_000.0);
            RateSpec::UniformRandom {
                min_rate,
                max_rate: min_rate + rng.uniform(0.0, 100_000.0),
                hold_secs: secs(rng),
            }
        }
        2 => RateSpec::Sinusoid {
            base: rng.uniform(0.0, 50_000.0),
            amplitude: rng.uniform(0.0, 80_000.0),
            period_secs: rng.uniform(1.0, 120.0),
        },
        3 => RateSpec::Ramp {
            start_rate: rng.uniform(0.0, 50_000.0),
            end_rate: rng.uniform(0.0, 50_000.0),
            duration_secs: rng.uniform(0.5, 60.0),
        },
        4 => RateSpec::Surge {
            base_rate: rng.uniform(0.0, 50_000.0),
            magnitude: rng.uniform(1.0, 5.0),
            surge_secs: secs(rng),
            mean_gap_secs: secs(rng),
        },
        5 => RateSpec::FlashCrowd {
            base: Box::new(rate_spec(rng, depth - 1)),
            mean_gap_secs: secs(rng),
            crowd_secs: secs(rng),
            pareto_shape: rng.uniform(0.5, 3.0),
            min_magnitude: 1.2,
            max_magnitude: 4.0,
        },
        6 => RateSpec::ParetoBurst {
            base: Box::new(rate_spec(rng, depth - 1)),
            mean_gap_secs: secs(rng),
            burst_secs: secs(rng),
            pareto_shape: rng.uniform(0.5, 3.0),
            min_burst_records: 100.0,
            max_burst_records: 1e6,
        },
        _ => RateSpec::CorrelatedSurge {
            base: Box::new(rate_spec(rng, depth - 1)),
            trigger_seed: rng.next_u64(),
            magnitude: rng.uniform(1.0, 5.0),
            surge_secs: secs(rng),
            mean_gap_secs: secs(rng),
        },
    }
}

/// What a case integrates: a generated spec, or a recorded trace (the one
/// process `RateSpec` does not describe).
enum Source {
    Spec(RateSpec),
    Trace(Vec<(f64, f64)>),
}

impl Source {
    fn random(rng: &mut SimRng) -> Source {
        if rng.bernoulli(0.15) {
            let points = rng.uniform_u64(1, 30);
            Source::Trace(
                (0..points)
                    .map(|_| (rng.uniform(0.0, 300.0), rng.uniform(0.0, 100_000.0)))
                    .collect(),
            )
        } else {
            Source::Spec(rate_spec(rng, 2))
        }
    }

    fn build(&self, rng: SimRng) -> Box<dyn RateProcess> {
        match self {
            Source::Spec(spec) => spec.build(rng),
            Source::Trace(points) => Box::new(TraceRate::new(points.clone())),
        }
    }
}

fn skewed_broker() -> Broker {
    let mut w = vec![1.0; 32];
    w[..4].fill(4.0);
    Broker::new(BrokerConfig {
        partitions: 32,
        max_consume_rate: None,
    })
    .with_skew(w)
}

/// Integrate `source` with the cached generator and the per-step
/// reference over one random sequence of horizons and watermark jumps.
fn generator_case(source: &Source, seed: u64, plan_seed: u64) -> Result<(), TestCaseError> {
    let mut fast = StreamGenerator::new(source.build(SimRng::seed_from_u64(seed)));
    let mut slow = RefGenerator {
        rate: source.build(SimRng::seed_from_u64(seed)),
        produced_until: SimTime::ZERO,
        carry: 0.0,
        last_rate: 0.0,
        steps: 0,
    };
    let (mut bf, mut bs) = (skewed_broker(), skewed_broker());
    let mut plan = SimRng::seed_from_u64(plan_seed);
    let mut t = SimTime::ZERO;
    let moves = plan.uniform_u64(1, 40);
    for step in 0..moves {
        if plan.bernoulli(0.1) {
            // A watermark jump, as the fleet fast path makes.
            let delta = SimDuration::from_micros(plan.uniform_u64(0, 20_000_000));
            fast.fast_forward(
                fast.produced_until() + delta,
                fast.carry_bits(),
                IngestStats::default(),
            );
            slow.produced_until += delta;
            t = t.max(slow.produced_until);
            continue;
        }
        t += SimDuration::from_micros(match plan.uniform_u64(0, 3) {
            0 => 0,
            1 => plan.uniform_u64(1, 150_000),
            _ => plan.uniform_u64(150_000, 15_000_000),
        });
        let nf = fast.advance_to(t, &mut bf);
        let ns = slow.advance_to(t, &mut bs);
        prop_assert_eq!(nf, ns, "produced at move {}", step);
        prop_assert_eq!(fast.produced_until(), slow.produced_until);
        prop_assert_eq!(
            fast.carry_bits(),
            slow.carry.to_bits(),
            "carry at move {}",
            step
        );
        prop_assert_eq!(
            fast.last_rate_bits(),
            slow.last_rate.to_bits(),
            "rate at move {}",
            step
        );
    }
    prop_assert_eq!(bf.partition_lags(), bs.partition_lags());
    let stats = fast.stats();
    prop_assert!(
        stats.rate_calls <= slow.steps,
        "{} rate calls for {} steps",
        stats.rate_calls,
        slow.steps
    );
    Ok(())
}

proptest! {
    #[test]
    fn class_broker_matches_per_partition_reference(seed in any::<u64>()) {
        broker_case(seed, true)?;
    }

    #[test]
    fn uniform_broker_matches_per_partition_reference(seed in any::<u64>()) {
        broker_case(seed, false)?;
    }

    #[test]
    fn cached_generator_matches_per_step_sampling(
        spec_seed in any::<u64>(),
        seed in any::<u64>(),
        plan_seed in any::<u64>(),
    ) {
        let source = Source::random(&mut SimRng::seed_from_u64(spec_seed));
        generator_case(&source, seed, plan_seed)?;
    }
}

/// The closed-loop benchmark's stack — flash crowds over the paper's
/// uniform-random rate — and a sinusoid, which promises nothing.
#[test]
fn cached_generator_matches_on_named_stacks() {
    let flash_over_uniform = RateSpec::FlashCrowd {
        base: Box::new(RateSpec::UniformRandom {
            min_rate: 7_000.0,
            max_rate: 13_000.0,
            hold_secs: 30.0,
        }),
        mean_gap_secs: 900.0,
        crowd_secs: 120.0,
        pareto_shape: 1.5,
        min_magnitude: 1.3,
        max_magnitude: 3.0,
    };
    let sinusoid = RateSpec::Sinusoid {
        base: 20_000.0,
        amplitude: 30_000.0,
        period_secs: 60.0,
    };
    for spec in [flash_over_uniform, sinusoid] {
        let source = Source::Spec(spec);
        for seed in 0..20 {
            generator_case(&source, seed, seed ^ ADV_BASE_STREAM ^ ADV_EVENT_STREAM)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}

/// Sampling once per segment is the point: on a 30 s hold the generator
/// calls `rate_at` about once per hold, where the reference calls it
/// every 100 ms step.
#[test]
fn rate_is_sampled_once_per_constant_segment() {
    let spec = RateSpec::UniformRandom {
        min_rate: 100.0,
        max_rate: 200.0,
        hold_secs: 30.0,
    };
    let mut g = StreamGenerator::new(spec.build(SimRng::seed_from_u64(3)));
    let mut b = skewed_broker();
    for i in 1..=60u64 {
        g.advance_to(SimTime::from_millis(10_000 * i), &mut b);
    }
    let stats = g.stats();
    assert_eq!(stats.produce_steps, 6_000, "600 s of 100 ms steps");
    assert_eq!(stats.rate_calls, 20, "one sample per 30 s hold");
}
