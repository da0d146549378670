//! The external data generator: rate process → broker.
//!
//! [`StreamGenerator`] integrates a [`RateProcess`] over virtual time and
//! produces the corresponding record counts into a [`Broker`], with
//! fractional-record accumulation so that total production equals the exact
//! integral of the rate (no drift at any step size).
//!
//! Integration runs in 100 ms steps, each sampling the rate at its start.
//! The rate is sampled once per constant segment, not once per step: after
//! each `rate_at` the generator asks the process how long the value holds
//! ([`RateProcess::next_change_at`]) and reuses it for every step that
//! starts before then. A process that promises nothing (a sinusoid, a ramp
//! mid-flight) is sampled every step, as before. The per-step arithmetic is
//! the same either way, so production is bit-identical.

use crate::broker::Broker;
use crate::rate::RateProcess;
use nostop_simcore::{floor_split, SimDuration, SimTime};

/// Integration step for the rate process. Finer steps track fast-changing
/// rates more precisely at a small CPU cost; 100 ms matches Kafka producer
/// batching granularity well.
const INTEGRATION_STEP: SimDuration = SimDuration::from_millis(100);

/// Work the generator has done: seed-pure counts, for perf reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// `RateProcess::rate_at` calls.
    pub rate_calls: u64,
    /// `Broker::produce` calls (integration steps, plus one per
    /// closed-form window of a constant rate).
    pub produce_steps: u64,
}

impl IngestStats {
    /// Field-wise difference `self - before`: the work one window took.
    pub fn delta_since(&self, before: &IngestStats) -> IngestStats {
        IngestStats {
            rate_calls: self.rate_calls - before.rate_calls,
            produce_steps: self.produce_steps - before.produce_steps,
        }
    }
}

/// Drives a broker from an arrival-rate process.
pub struct StreamGenerator {
    rate: Box<dyn RateProcess>,
    /// Where we have integrated production up to.
    produced_until: SimTime,
    /// Fractional record carry.
    carry: f64,
    /// Most recent instantaneous rate (records/s), for observers.
    last_rate: f64,
    /// `last_rate` holds for every step that starts before this instant:
    /// the process's `next_change_at` promise from the last sample.
    rate_valid_until: SimTime,
    /// Rate samples and produce steps taken so far.
    stats: IngestStats,
}

/// `want` split into whole records and the carry, exactly as
/// `whole = want.floor().max(0.0); (whole as u64, want - whole)`: a
/// positive `want` splits without libm, anything else keeps its old
/// result, sign of zero included (`carry_bits` is a stationarity probe).
#[inline]
fn split_want(want: f64) -> (u64, f64) {
    if want > 0.0 {
        return floor_split(want);
    }
    let whole = want.floor().max(0.0);
    (whole as u64, want - whole)
}

impl StreamGenerator {
    /// A generator over `rate` starting at t = 0.
    pub fn new(rate: Box<dyn RateProcess>) -> Self {
        StreamGenerator {
            rate,
            produced_until: SimTime::ZERO,
            carry: 0.0,
            last_rate: 0.0,
            rate_valid_until: SimTime::ZERO,
            stats: IngestStats::default(),
        }
    }

    /// Advance production to instant `t`, producing into `broker`.
    /// Returns the number of records produced by this call.
    pub fn advance_to(&mut self, t: SimTime, broker: &mut Broker) -> u64 {
        // A constant process has an exact closed-form integral, so the
        // whole window collapses to one step: `r * dt + carry`. Stepping
        // would chain the same telescoping sum through per-step floors —
        // identical total up to fractional-carry rounding — while costing
        // `interval / 100 ms` iterations per batch on the engine's hot
        // ingest path.
        if let Some(r) = self.rate.constant() {
            if self.produced_until >= t {
                return 0;
            }
            let dt = (t - self.produced_until).as_secs_f64();
            self.last_rate = r;
            let (n, carry) = split_want(r * dt + self.carry);
            self.carry = carry;
            self.produced_until = t;
            broker.produce(n);
            self.stats.produce_steps += 1;
            return n;
        }
        let mut produced = 0u64;
        while self.produced_until < t {
            let step_end = (self.produced_until + INTEGRATION_STEP).min(t);
            let dt = (step_end - self.produced_until).as_secs_f64();
            // Sample at interval start: step-function integration matches
            // the hold-then-redraw semantics of the paper's generator.
            // Inside a segment the process promised constant, the last
            // sample is that value. The promise is asked for after the
            // sample, since lazy processes refuse stale queries.
            if self.produced_until >= self.rate_valid_until {
                self.last_rate = self.rate.rate_at(self.produced_until);
                self.rate_valid_until = self.rate.next_change_at(self.produced_until);
                self.stats.rate_calls += 1;
            }
            let (n, carry) = split_want(self.last_rate * dt + self.carry);
            self.carry = carry;
            broker.produce(n);
            self.stats.produce_steps += 1;
            produced += n;
            self.produced_until = step_end;
        }
        produced
    }

    /// The instantaneous rate at the last integration step (records/s).
    pub fn current_rate(&self) -> f64 {
        self.last_rate
    }

    /// How far production has been integrated.
    pub fn produced_until(&self) -> SimTime {
        self.produced_until
    }

    /// The earliest instant strictly after `after` at which the rate process
    /// may change value ([`SimTime::MAX`] when it never will). See
    /// [`RateProcess::next_change_at`] for the guarantee.
    pub fn next_change_at(&self, after: SimTime) -> SimTime {
        self.rate.next_change_at(after)
    }

    /// Bit pattern of the fractional record carry — a bitwise stationarity
    /// probe for closed-form fast paths.
    pub fn carry_bits(&self) -> u64 {
        self.carry.to_bits()
    }

    /// Bit pattern of the last sampled instantaneous rate.
    pub fn last_rate_bits(&self) -> u64 {
        self.last_rate.to_bits()
    }

    /// Rate samples and produce steps taken so far.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Move the integration watermark forward to `until`, set the
    /// fractional carry to `carry_bits` and count `work`, the rate samples
    /// and produce steps the skipped window took, without touching the
    /// rate process. Only valid when the caller has already accounted the
    /// window's production elsewhere (the fleet fast path replays a
    /// proven-periodic epoch and restores the watermark, carry and counts
    /// the dense integration had at that point of the orbit).
    pub fn fast_forward(&mut self, until: SimTime, carry_bits: u64, work: IngestStats) {
        debug_assert!(until >= self.produced_until, "watermark must move forward");
        self.produced_until = until;
        self.carry = f64::from_bits(carry_bits);
        self.stats.rate_calls += work.rate_calls;
        self.stats.produce_steps += work.produce_steps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::BrokerConfig;
    use crate::rate::{ConstantRate, RampRate, UniformRandomRate};
    use nostop_simcore::SimRng;

    fn broker() -> Broker {
        Broker::new(BrokerConfig {
            partitions: 4,
            max_consume_rate: None,
        })
    }

    #[test]
    fn constant_rate_integrates_exactly() {
        let mut g = StreamGenerator::new(Box::new(ConstantRate::new(1_000.0)));
        let mut b = broker();
        let produced = g.advance_to(SimTime::from_secs_f64(10.0), &mut b);
        assert_eq!(produced, 10_000);
        assert_eq!(g.current_rate(), 1_000.0);
    }

    #[test]
    fn production_is_independent_of_step_pattern() {
        // Advancing in many small steps vs one big step must produce the
        // same total (carry accumulation, no drift).
        let run = |steps: &[f64]| {
            let mut g = StreamGenerator::new(Box::new(ConstantRate::new(777.0)));
            let mut b = broker();
            let mut total = 0;
            let mut t = 0.0;
            for &dt in steps {
                t += dt;
                total += g.advance_to(SimTime::from_secs_f64(t), &mut b);
            }
            total
        };
        let fine = run(&[0.1; 100]);
        let coarse = run(&[10.0]);
        assert_eq!(fine, coarse);
        assert_eq!(fine, 7_770);
    }

    #[test]
    fn ramp_rate_integrates_to_trapezoid_approximately() {
        let mut g = StreamGenerator::new(Box::new(RampRate::new(0.0, 1_000.0, 10.0)));
        let mut b = broker();
        let produced = g.advance_to(SimTime::from_secs_f64(10.0), &mut b);
        // Exact integral is 5_000; left-Riemann at 100 ms steps gives 4_950.
        assert!((4_900..=5_050).contains(&produced), "produced {produced}");
    }

    #[test]
    fn advance_is_monotone_and_idempotent_at_same_t() {
        let mut g = StreamGenerator::new(Box::new(ConstantRate::new(100.0)));
        let mut b = broker();
        g.advance_to(SimTime::from_secs_f64(5.0), &mut b);
        let again = g.advance_to(SimTime::from_secs_f64(5.0), &mut b);
        assert_eq!(again, 0);
        assert_eq!(g.produced_until(), SimTime::from_secs_f64(5.0));
    }

    /// The constant-rate closed form integrates each window in one step.
    /// Per-window production telescopes to the same sum the stepped path
    /// produces (both equal `r*T + carry_in - carry_out` with carries in
    /// [0,1)), so totals may differ by at most one in-flight fractional
    /// record at any boundary, and the final carry matches the exact
    /// integral's fractional part.
    #[test]
    fn constant_closed_form_matches_stepped_integral() {
        /// Constant in fact, but refuses to say so — forces the slow path.
        struct OpaqueConstant(f64);
        impl crate::rate::RateProcess for OpaqueConstant {
            fn rate_at(&mut self, _t: SimTime) -> f64 {
                self.0
            }
        }
        let rate = 9_731.7;
        let mut fast = StreamGenerator::new(Box::new(ConstantRate::new(rate)));
        let mut slow = StreamGenerator::new(Box::new(OpaqueConstant(rate)));
        let (mut bf, mut bs) = (broker(), broker());
        let mut t = 0.0;
        for &dt in &[0.05, 2.0, 0.13, 15.0, 0.1, 7.77, 40.0] {
            t += dt;
            let at = SimTime::from_secs_f64(t);
            fast.advance_to(at, &mut bf);
            slow.advance_to(at, &mut bs);
            let (f, s) = (bf.total_produced(), bs.total_produced());
            assert!(f.abs_diff(s) <= 4, "fast {f} vs stepped {s} at t={t}");
        }
        let exact = rate * t;
        let f = bf.total_produced() as f64;
        assert!((exact - f).abs() < 5.0, "fast {f} vs integral {exact}");
        assert_eq!(fast.current_rate(), slow.current_rate());
    }

    /// An exactly-representable constant rate over representable windows
    /// produces the exact integral with zero drift, batch after batch.
    #[test]
    fn constant_closed_form_is_exact_for_representable_rates() {
        let mut g = StreamGenerator::new(Box::new(ConstantRate::new(10_000.0)));
        let mut b = broker();
        for i in 1..=20u64 {
            let n = g.advance_to(SimTime::from_secs_f64(15.0 * i as f64), &mut b);
            assert_eq!(n, 150_000, "batch {i}");
        }
    }

    #[test]
    fn fast_forward_moves_watermark_and_restores_carry() {
        let mut g = StreamGenerator::new(Box::new(ConstantRate::new(333.3)));
        let mut b = broker();
        g.advance_to(SimTime::from_secs_f64(3.0), &mut b);
        let carry = g.carry_bits();
        g.advance_to(SimTime::from_secs_f64(3.3), &mut b);
        assert_ne!(g.carry_bits(), carry);
        let before = g.stats();
        let work = IngestStats {
            rate_calls: 3,
            produce_steps: 117,
        };
        g.fast_forward(SimTime::from_secs_f64(15.0), carry, work);
        assert_eq!(g.produced_until(), SimTime::from_secs_f64(15.0));
        assert_eq!(g.carry_bits(), carry);
        assert_eq!(g.stats().delta_since(&before), work, "work is counted");
        assert_eq!(
            g.next_change_at(SimTime::ZERO),
            nostop_simcore::SimTime::MAX
        );
    }

    #[test]
    fn varying_rate_production_within_bounds() {
        let rate = UniformRandomRate::new(7_000.0, 13_000.0, 30.0, SimRng::seed_from_u64(2));
        let mut g = StreamGenerator::new(Box::new(rate));
        let mut b = broker();
        let secs = 300.0;
        let produced = g.advance_to(SimTime::from_secs_f64(secs), &mut b);
        let avg = produced as f64 / secs;
        assert!((7_000.0..=13_000.0).contains(&avg), "avg {avg}");
    }
}
