//! Differential suite for BayesOpt's pruned EI argmax.
//!
//! [`CandidatePool::argmax_ei`] keys every candidate by its screened mean
//! less the screen's bound `δ`, and sends a candidate through the exact
//! pass only while that key can still reach the best EI found. Two
//! contracts:
//!
//! 1. **Same argmax.** The pruned argmax is the index the full scan
//!    picks: every candidate through [`GaussianProcess::posterior`] one at
//!    a time, the first maximum winning. Pinned over dims 1–8, 5–299
//!    observations and pools of 1–300 candidates (every remainder mod the
//!    tile width), on random pools and on hostile ones: duplicated
//!    candidates (exact ties at different indices), near-duplicates whose
//!    screened keys tie within `δ`, candidates on observed points under
//!    kernels that drive the variance to its floor, and hopeless pools
//!    where every EI clamps to 0 and index 0 must win. A candidate with a
//!    NaN key (a NaN coordinate) is never pruned.
//! 2. **A sound bound.** `EI(μ, σ²) ≤ expected_improvement_bound(μ − t,
//!    σ²_max)` for σ² on a grid over `(0, σ²_max]`, down through the
//!    zero-variance branch, and `t` on a grid over `[0, δ]`, at
//!    improvements from −40σ to +40σ: a mean the screen overstates by up
//!    to `δ` still keys its candidate at or above its EI.

use nostop_baselines::acquisition::{expected_improvement, expected_improvement_bound};
use nostop_baselines::bayesopt::CandidatePool;
use nostop_baselines::gp::{GaussianProcess, Kernel};
use nostop_simcore::SimRng;
use proptest::prelude::*;

/// BayesOpt's exploration margin.
const XI: f64 = 0.1;

/// The kernels the suite fits: BayesOpt's default; a near-noiseless one,
/// whose variance at an observed point sits near its floor; and one whose
/// signal variance is under the floor, so every variance is the floor.
fn kernel(ix: u32) -> Kernel {
    match ix {
        0 => Kernel::default(),
        1 => Kernel {
            noise_variance: 1e-6,
            ..Kernel::default()
        },
        _ => Kernel {
            signal_variance: 1e-14,
            length_scale: 4.0,
            noise_variance: 1e-30,
        },
    }
}

/// The one-at-a-time loop the pruning replaced: the first maximum wins,
/// and `None` only when no EI compares.
fn full_scan_argmax(gp: &GaussianProcess, pool: &CandidatePool, best: f64) -> Option<usize> {
    let mut best_ei = f64::NEG_INFINITY;
    let mut winner = None;
    for i in 0..pool.len() {
        let (mean, var) = gp.posterior(pool.candidate(i));
        let ei = expected_improvement(mean, var, best, XI);
        if ei > best_ei {
            best_ei = ei;
            winner = Some(i);
        }
    }
    winner
}

/// A random point in the scaled configuration cube `[1, 20]^dim`.
fn point(dim: usize, rng: &mut SimRng) -> Vec<f64> {
    (0..dim).map(|_| rng.uniform(1.0, 20.0)).collect()
}

/// `x` with each coordinate moved by up to 8 `f32` ulps either way: the
/// screen rounds coordinates to `f32`, so a smaller nudge could leave the
/// copies' screened means identical.
fn nudged(x: &[f64], rng: &mut SimRng) -> Vec<f64> {
    x.iter()
        .map(|&v| {
            let ulp = f64::from(f32::EPSILON) * v.abs();
            v + (rng.uniform_u64(0, 16) as f64 - 8.0) * ulp
        })
        .collect()
}

/// Pool `kind` of `size` candidates: 0 random, 1 drawn with repeats from
/// a few distinct points, 2 half copies of observed points, 3 random (the
/// caller makes it hopeless), 4 near-duplicates of a few distinct points.
fn pool(kind: u32, size: usize, observed: &[Vec<f64>], rng: &mut SimRng) -> CandidatePool {
    let dim = observed[0].len();
    let distinct: Vec<Vec<f64>> = (0..size / 4 + 1).map(|_| point(dim, rng)).collect();
    let coords = (0..size)
        .flat_map(|_| match kind {
            1 => distinct[rng.uniform_u64(0, distinct.len() as u64 - 1) as usize].clone(),
            4 => nudged(
                &distinct[rng.uniform_u64(0, distinct.len() as u64 - 1) as usize],
                rng,
            ),
            2 if rng.bernoulli(0.5) => {
                observed[rng.uniform_u64(0, observed.len() as u64 - 1) as usize].clone()
            }
            _ => point(dim, rng),
        })
        .collect();
    CandidatePool::new(dim, coords)
}

proptest! {
    #[test]
    fn pruned_argmax_matches_the_full_scan(
        dim in 1usize..=8,
        n_obs in 5usize..300,
        size in 1usize..=300,
        kind in 0u32..5,
        kernel_ix in 0u32..3,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xE1_9A7E);
        let mut gp = GaussianProcess::new(kernel(kernel_ix));
        let observed: Vec<Vec<f64>> = (0..n_obs).map(|_| point(dim, &mut rng)).collect();
        for (i, x) in observed.iter().enumerate() {
            gp.add(x.clone(), rng.uniform(-5.0, 5.0) + i as f64 * 0.01);
        }
        let mut pool = pool(kind, size, &observed, &mut rng);
        let best = if kind == 3 {
            // Far under every mean: every EI is exactly 0.
            gp.best_y().expect("observed") - 1e6
        } else {
            gp.best_y().expect("observed")
        };
        let want = full_scan_argmax(&gp, &pool, best);
        let (got, scored) = pool.argmax_ei(&gp, best, XI);
        prop_assert_eq!(got, want, "pruned argmax left the first maximum");
        prop_assert!(got.is_some(), "a non-empty pool has a winner");
        prop_assert!((1..=size).contains(&scored), "{} of {} scored", scored, size);
        if kind == 3 {
            prop_assert_eq!(got, Some(0), "all-zero EIs: the first candidate wins");
        }
    }

    #[test]
    fn bound_covers_every_smaller_variance_and_larger_mean(
        z in -40.0f64..40.0,
        log_ceiling in -14.0f64..8.0,
        best in -100.0f64..100.0,
        log_delta in -16.0f64..2.0,
    ) {
        let ceiling = 10f64.powf(log_ceiling);
        let mean = best - XI - z * ceiling.sqrt();
        let delta = 10f64.powf(log_delta);
        // A screened mean within δ of `mean`, less δ, keys at `mean − t`
        // for some t in [0, 2δ]; δ spans 18 decades, so a linear grid over
        // [0, δ] covers that.
        for t in (0..=16).map(|j| delta * j as f64 / 16.0) {
            let key = expected_improvement_bound(mean - t, ceiling, best, XI);
            // A linear grid over (0, ceiling] in σ, then decades below it
            // into the zero-variance branch (σ² < 1e-18).
            let linear = (1..=256).map(|k| ceiling * (k as f64 / 256.0).powi(2));
            let decades = (1..=40).map(|d| ceiling * 10f64.powi(-d));
            for var in linear.chain(decades) {
                let ei = expected_improvement(mean, var, best, XI);
                prop_assert!(
                    ei <= key,
                    "EI {} at σ² {} above the bound {} (z {}, t {}, δ {})",
                    ei, var, key, z, t, delta
                );
            }
        }
    }
}

#[test]
fn an_empty_pool_has_no_winner_and_scores_nothing() {
    let mut gp = GaussianProcess::new(Kernel::default());
    gp.add(vec![1.0, 2.0], 3.0);
    let mut pool = CandidatePool::new(2, Vec::new());
    assert!(pool.is_empty());
    assert_eq!(pool.argmax_ei(&gp, 3.0, XI), (None, 0));
}

#[test]
fn nan_keys_are_never_pruned() {
    // A NaN coordinate makes the mean, and so the key, NaN; its EI still
    // clamps to 0. In a hopeless pool every EI is 0 and the first
    // candidate wins, NaN or not, so pruning it would move the winner.
    let mut rng = SimRng::seed_from_u64(5);
    let mut gp = GaussianProcess::new(Kernel::default());
    let observed: Vec<Vec<f64>> = (0..20).map(|_| point(3, &mut rng)).collect();
    for x in &observed {
        gp.add(x.clone(), rng.uniform(-5.0, 5.0));
    }
    let mut coords: Vec<f64> = (0..40 * 3).map(|_| rng.uniform(1.0, 20.0)).collect();
    coords[1] = f64::NAN;
    let mut pool = CandidatePool::new(3, coords);
    for best in [
        gp.best_y().expect("observed") - 1e6,
        gp.best_y().expect("observed"),
    ] {
        let want = full_scan_argmax(&gp, &pool, best);
        let (got, _) = pool.argmax_ei(&gp, best, XI);
        assert_eq!(got, want, "best {best}");
    }
    assert_eq!(pool.argmax_ei(&gp, -1e6, XI).0, Some(0));
}

#[test]
fn keys_that_tie_within_delta_keep_the_first_maximum() {
    // Copies of a few points nudged by `f32` ulps: their means differ in
    // the last bits the screen resolves, so their screened keys sit within
    // δ of each other, and the first maximum of the full scan must still
    // win.
    for seed in 0..40u64 {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x71E5);
        let dim = 1 + seed as usize % 8;
        let mut gp = GaussianProcess::new(kernel(seed as u32 % 2));
        let observed: Vec<Vec<f64>> = (0..30).map(|_| point(dim, &mut rng)).collect();
        for x in &observed {
            gp.add(x.clone(), rng.uniform(-5.0, 5.0));
        }
        let bases: Vec<Vec<f64>> = (0..3).map(|_| point(dim, &mut rng)).collect();
        let coords: Vec<f64> = (0..64)
            .flat_map(|i| nudged(&bases[i % 3], &mut rng))
            .collect();
        let mut screened = Vec::new();
        let delta = gp.screen_means(&coords, dim, &mut screened);
        let close = screened
            .iter()
            .skip(3)
            .zip(&screened)
            .any(|(a, b)| a != b && (a - b).abs() <= delta);
        assert!(close, "seed {seed}: no two keys within δ {delta}");
        let mut pool = CandidatePool::new(dim, coords);
        let best = gp.best_y().expect("observed");
        let want = full_scan_argmax(&gp, &pool, best);
        assert_eq!(pool.argmax_ei(&gp, best, XI).0, want, "seed {seed}");
    }
}
