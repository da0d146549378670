//! Differential property suite for the incremental GP fast path.
//!
//! Three contracts, each pinned over randomized problem shapes:
//!
//! 1. **Factor extension** — building a Cholesky factor one border column
//!    at a time with [`Matrix::extend_cholesky`] is bitwise identical to
//!    the full factorization of the final matrix: both paths share the
//!    same unrolled dot kernel and recurrence order.
//! 2. **Batched posterior** — the mean pass
//!    ([`GaussianProcess::posterior_means`]) and the variance pass
//!    ([`GaussianProcess::posterior_variances`], picks in a shuffled
//!    order) are bitwise identical to scoring each candidate through
//!    [`GaussianProcess::posterior`] one at a time, at up to BayesOpt's
//!    8 knobs, 1–299 observations (BayesOpt runs to 255) and 1–299
//!    candidates: every observation count mod 4 and every candidate
//!    count mod the tile width.
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
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xBA7C4);
        let mut gp = GaussianProcess::new(Kernel::default());
        for (i, x) in random_points(n_obs, dim, &mut rng).into_iter().enumerate() {
            let y = rng.uniform(-5.0, 5.0) + i as f64 * 0.1;
            gp.add(x, y);
        }
        let candidates = random_points(n_cand, dim, &mut rng);
        let pool: Vec<f64> = candidates.concat();
        let mut means = Vec::new();
        gp.posterior_means(&pool, dim, &mut means);
        prop_assert_eq!(means.len(), candidates.len());
        // Survivors reach the variance pass in key order, not pool order.
        let mut picks: Vec<usize> = (0..n_cand).collect();
        for i in (1..n_cand).rev() {
            picks.swap(i, rng.uniform_u64(0, i as u64) as usize);
        }
        let mut vars = Vec::new();
        gp.posterior_variances(&pool, dim, &picks, &mut vars);
        prop_assert_eq!(vars.len(), picks.len());
        for (&i, var) in picks.iter().zip(&vars) {
            let (m, v) = gp.posterior(&candidates[i]);
            prop_assert_eq!(m.to_bits(), means[i].to_bits(), "mean diverged");
            prop_assert_eq!(v.to_bits(), var.to_bits(), "variance diverged");
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
