//! Property-based tests for the simulation primitives.

use nostop_simcore::stats::{mean, percentile, std_dev, RollingStats, Welford};
use nostop_simcore::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;

proptest! {
    #[test]
    fn time_addition_is_associative(a in 0u64..1u64 << 40, b in 0u64..1u64 << 40, c in 0u64..1u64 << 40) {
        let t = SimTime::from_micros(a);
        let d1 = SimDuration::from_micros(b);
        let d2 = SimDuration::from_micros(c);
        prop_assert_eq!((t + d1) + d2, t + (d1 + d2));
    }

    #[test]
    fn time_sub_then_add_round_trips(a in 0u64..1u64 << 40, b in 0u64..1u64 << 40) {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let early = SimTime::from_micros(lo);
        let late = SimTime::from_micros(hi);
        let d = late - early;
        prop_assert_eq!(early + d, late);
        prop_assert_eq!(late.saturating_since(early), d);
        prop_assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn secs_round_trip_within_microsecond(secs in 0.0f64..1e7) {
        let t = SimTime::from_secs_f64(secs);
        prop_assert!((t.as_secs_f64() - secs).abs() < 1e-6);
    }

    #[test]
    fn welford_matches_two_pass_formulas(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        prop_assert!((w.mean() - mean(&xs)).abs() < 1e-6);
        prop_assert!((w.std_dev() - std_dev(&xs)).abs() < 1e-6);
        prop_assert_eq!(w.count(), xs.len() as u64);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert_eq!(w.min(), Some(min));
    }

    #[test]
    fn rolling_stats_equal_tail_statistics(
        xs in prop::collection::vec(0.0f64..1e5, 1..300),
        cap in 1usize..40,
    ) {
        let mut r = RollingStats::new(cap);
        for &x in &xs {
            r.push(x);
        }
        let tail: Vec<f64> = xs.iter().rev().take(cap).rev().copied().collect();
        prop_assert!((r.mean() - mean(&tail)).abs() < 1e-6);
        prop_assert!((r.std_dev() - std_dev(&tail)).abs() < 1e-4);
        prop_assert_eq!(r.len(), tail.len());
    }

    #[test]
    fn percentile_is_bounded_and_monotone(
        xs in prop::collection::vec(-1e4f64..1e4, 1..100),
        q1 in 0.0f64..100.0,
        q2 in 0.0f64..100.0,
    ) {
        let (lo_q, hi_q) = if q1 < q2 { (q1, q2) } else { (q2, q1) };
        let p_lo = percentile(&xs, lo_q).unwrap();
        let p_hi = percentile(&xs, hi_q).unwrap();
        prop_assert!(p_lo <= p_hi + 1e-9);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p_lo >= min - 1e-9 && p_hi <= max + 1e-9);
    }

    #[test]
    fn rng_forks_are_deterministic_and_distinct(seed in any::<u64>(), s1 in 0u64..1000, s2 in 0u64..1000) {
        let parent = SimRng::seed_from_u64(seed);
        let take = |mut r: SimRng| -> Vec<f64> { (0..8).map(|_| r.uniform(0.0, 1.0)).collect() };
        prop_assert_eq!(take(parent.fork(s1)), take(parent.fork(s1)));
        if s1 != s2 {
            prop_assert_ne!(take(parent.fork(s1)), take(parent.fork(s2)));
        }
    }

    #[test]
    fn noise_factor_is_positive_and_finite(seed in any::<u64>(), sigma in 0.0f64..2.0) {
        let mut r = SimRng::seed_from_u64(seed);
        for _ in 0..50 {
            let f = r.noise_factor(sigma);
            prop_assert!(f.is_finite() && f > 0.0);
        }
    }
}
