//! Differential property suite for the incremental GP fast path.
//!
//! Three contracts, each pinned over randomized problem shapes:
//!
//! 1. **Factor extension** — building a Cholesky factor one border column
//!    at a time with [`Matrix::extend_cholesky`] is bitwise identical to
//!    the full factorization of the final matrix: both paths share the
//!    same unrolled dot kernel and recurrence order.
//! 2. **Batched posterior** — the exact pass
//!    ([`GaussianProcess::exact_posteriors`], picks in a shuffled order)
//!    is bitwise identical to scoring each candidate through
//!    [`GaussianProcess::posterior`] one at a time, and the screen pass
//!    ([`GaussianProcess::screen_means`]) keeps every screened mean within
//!    its bound `δ` of that mean, at up to BayesOpt's 8 knobs, 1–299
//!    observations (BayesOpt runs to 255) and 1–299 candidates: every
//!    observation count mod 4 and every candidate count mod the tile
//!    width. The bound is also held on hostile kernels: a near-noiseless
//!    one (a huge `Σ|α|`), one whose signal variance is under the
//!    variance floor, and a length scale short enough to push the kernel
//!    exponent below −700, where the screen's `exp` returns 0.
//! 3. **Probe equivalence** — a GP fitted through the full-refit probe
//!    path (`with_incremental(false)`, the `NOSTOP_PROBE=1` surface) produces posteriors bitwise identical to the incremental
//!    path on arbitrary add-sequences — after *every* add, not just the
//!    last.
//!
//! The suite is part of the CI `fastpaths` leg, which runs it both plain
//! and under `NOSTOP_PROBE=1` (the env flips which path
//! `GaussianProcess::new` picks, which contract 3 checks; it also pins the
//! two paths against each other explicitly either way).

use nostop_baselines::gp::{GaussianProcess, Kernel};
use nostop_baselines::linalg::Matrix;
use nostop_simcore::{probe_mode, SimRng};
use proptest::prelude::*;

/// A random symmetric positive-definite matrix: `A Aᵀ + n·I` over entries
/// in `[-1, 1]`.
fn random_spd(n: usize, seed: u64) -> Matrix {
    let mut rng = SimRng::seed_from_u64(seed);
    let a: Vec<f64> = (0..n * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
    Matrix::from_fn(n, |i, j| {
        let mut s = 0.0;
        for k in 0..n {
            s += a[i * n + k] * a[j * n + k];
        }
        s + if i == j { n as f64 } else { 0.0 }
    })
}

/// The kernels contract 2 fits: BayesOpt's default; a near-noiseless one,
/// whose `alpha` is huge; one whose signal variance is under the variance
/// floor; and a length scale so short that most kernel exponents fall
/// below −700.
fn kernel(ix: u32) -> Kernel {
    match ix {
        0 => Kernel::default(),
        1 => Kernel {
            noise_variance: 1e-6,
            ..Kernel::default()
        },
        2 => Kernel {
            signal_variance: 1e-14,
            length_scale: 4.0,
            noise_variance: 1e-30,
        },
        _ => Kernel {
            length_scale: 0.1,
            ..Kernel::default()
        },
    }
}

/// Random points in the scaled configuration cube `[1, 20]^dim`.
fn random_points(count: usize, dim: usize, rng: &mut SimRng) -> Vec<Vec<f64>> {
    (0..count)
        .map(|_| (0..dim).map(|_| rng.uniform(1.0, 20.0)).collect())
        .collect()
}

proptest! {
    #[test]
    fn incremental_factor_matches_full_factorization(
        n in 1usize..28,
        seed in 0u64..1_000_000,
    ) {
        let m = random_spd(n, seed);
        let full = m.cholesky().expect("SPD by construction");

        // Grow a factor from empty, one border column at a time.
        let mut grown = Matrix::zeros(0);
        for k in 0..n {
            let col: Vec<f64> = (0..k).map(|j| m.get(k, j)).collect();
            prop_assert!(
                grown.extend_cholesky(&col, m.get(k, k)),
                "border {k} rejected on an SPD matrix"
            );
        }

        prop_assert_eq!(grown.n, full.n);
        for i in 0..n {
            for j in 0..=i {
                let (a, b) = (grown.get(i, j), full.get(i, j));
                prop_assert_eq!(a.to_bits(), b.to_bits(), "L[{i}][{j}]: incremental {a} vs full {b}");
            }
        }
    }

    #[test]
    fn two_pass_scoring_matches_per_point_bitwise(
        dim in 1usize..=8,
        n_obs in 1usize..300,
        n_cand in 1usize..300,
        kernel_ix in 0u32..4,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xBA7C4);
        let mut gp = GaussianProcess::new(kernel(kernel_ix));
        let observed = random_points(n_obs, dim, &mut rng);
        for (i, x) in observed.iter().enumerate() {
            let y = rng.uniform(-5.0, 5.0) + i as f64 * 0.1;
            gp.add(x.clone(), y);
        }
        // Random candidates, a quarter of them on observed points, where
        // the near-noiseless kernel's posterior is sharpest.
        let candidates: Vec<Vec<f64>> = random_points(n_cand, dim, &mut rng)
            .into_iter()
            .map(|c| {
                if rng.bernoulli(0.25) {
                    observed[rng.uniform_u64(0, n_obs as u64 - 1) as usize].clone()
                } else {
                    c
                }
            })
            .collect();
        let pool: Vec<f64> = candidates.concat();
        let mut screened = Vec::new();
        let delta = gp.screen_means(&pool, dim, &mut screened);
        prop_assert_eq!(screened.len(), candidates.len());
        prop_assert!(delta.is_finite() && delta >= 0.0, "δ {}", delta);
        // Survivors reach the exact pass in key order, not pool order.
        let mut picks: Vec<usize> = (0..n_cand).collect();
        for i in (1..n_cand).rev() {
            picks.swap(i, rng.uniform_u64(0, i as u64) as usize);
        }
        let mut exact = Vec::new();
        gp.exact_posteriors(&pool, dim, &picks, &mut exact);
        prop_assert_eq!(exact.len(), picks.len());
        for (&i, &(mean, var)) in picks.iter().zip(&exact) {
            let (m, v) = gp.posterior(&candidates[i]);
            prop_assert_eq!(m.to_bits(), mean.to_bits(), "mean diverged");
            prop_assert_eq!(v.to_bits(), var.to_bits(), "variance diverged");
            prop_assert!(
                (screened[i] - m).abs() <= delta,
                "screened {} vs exact {} beyond δ {}", screened[i], m, delta
            );
        }
    }

    #[test]
    fn probe_refit_tracks_incremental_on_random_add_sequences(
        dim in 1usize..6,
        n_adds in 1usize..32,
        seed in 0u64..1_000_000,
    ) {
        let default_incremental = GaussianProcess::new(Kernel::default()).is_incremental();
        prop_assert_eq!(default_incremental, !probe_mode(), "NOSTOP_PROBE must reach the GP");
        let mut rng = SimRng::seed_from_u64(seed ^ 0x9B0BE);
        let mut fast = GaussianProcess::new(Kernel::default()).with_incremental(true);
        let mut probe = GaussianProcess::new(Kernel::default()).with_incremental(false);
        let probes = random_points(4, dim, &mut rng);
        for x in random_points(n_adds, dim, &mut rng) {
            let y = rng.uniform(-10.0, 10.0);
            fast.add(x.clone(), y);
            probe.add(x, y);
            for p in &probes {
                let (fm, fv) = fast.posterior(p);
                let (pm, pv) = probe.posterior(p);
                let n = fast.len();
                prop_assert_eq!(fm.to_bits(), pm.to_bits(), "mean: incremental {fm} vs refit {pm} at n={n}");
                prop_assert_eq!(fv.to_bits(), pv.to_bits(), "variance: incremental {fv} vs refit {pv} at n={n}");
            }
        }
    }
}
