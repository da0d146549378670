//! Property-based tests for the simulation primitives.

use nostop_simcore::stats::{summarize, RollingStats};
use nostop_simcore::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;

/// Two-pass reference: the mean, then the population σ around it.
fn two_pass(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let m = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n;
    (m, var.sqrt())
}

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
    fn summarize_matches_two_pass_formulas(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = summarize(&xs);
        let (m, sd) = two_pass(&xs);
        prop_assert!((s.mean - m).abs() < 1e-6);
        prop_assert!((s.std_dev - sd).abs() < 1e-6);
        prop_assert_eq!(s.n, xs.len() as u64);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(s.min, min);
        prop_assert_eq!(s.max, max);
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
        let (m, sd) = two_pass(&tail);
        prop_assert!((r.mean() - m).abs() < 1e-6);
        prop_assert!((r.std_dev() - sd).abs() < 1e-4);
        prop_assert_eq!(r.len(), tail.len());
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
