//! Gaussian-process regression with an RBF kernel.
//!
//! The surrogate model behind the Bayesian-optimization comparator.
//! Observations live in the *scaled* configuration space (every dimension
//! in the same `[1, 20]` range — the same normalization NoStop uses), so a
//! single isotropic length scale is appropriate. Targets are centered; the
//! posterior reverts to the prior mean away from data. Observations are
//! stored as one row-major buffer (`dim` entries per point), and the
//! kernel's `2ℓ²` is computed once per GP.
//!
//! # Fast path
//!
//! Because the Gram matrix depends only on the inputs, adding an
//! observation only *borders* `K + σ_n² I` with one new column — so
//! [`GaussianProcess::add`] extends the existing Cholesky factor with a
//! single forward solve plus diagonal update
//! ([`Matrix::extend_cholesky`], O(n²)) instead of refactoring from
//! scratch (O(n³)). The new point's kernel column is computed once and
//! reused for both the factor extension and the Gram border (kernel-row
//! cache). `alpha` *is* re-solved every add — recentering the targets
//! shifts every entry of `y − ȳ` — but that is two triangular solves,
//! still O(n²).
//!
//! Setting `NOSTOP_NO_GP_INCREMENTAL=1` (or
//! [`GaussianProcess::with_incremental`]`(false)`) routes every add
//! through the full-refit probe path. The two paths share `linalg`'s
//! single dot kernel, making their factors — and therefore posteriors —
//! bitwise identical; the differential suite in
//! `crates/baselines/tests/gp_differential.rs` pins this.
//!
//! # Batched scoring
//!
//! [`GaussianProcess::posterior_batch`] scores candidates in tiles of
//! [`TILE`]: their kernel columns are written interleaved into one
//! `n × TILE` buffer, and [`dot_tile`] serves the mean (`alpha · k*`), the
//! forward solve ([`solve_lower_tile`]) and the variance (`v · v`) for all
//! four at once. Every loop vectorises across the tile's candidates, never
//! along a sum, so each lane keeps the per-point order of operations
//! ([`Kernel::eval`]'s distance sum, [`dot`]'s partial sums) and every
//! output is bitwise equal to [`GaussianProcess::posterior`], which stays
//! as the per-point reference. Nothing here may use a fused multiply-add.

use crate::linalg::{
    cholesky_solve_into, dot, dot_tile, solve_lower_in_place, solve_lower_tile, Matrix, TILE,
};

/// True when the `NOSTOP_NO_GP_INCREMENTAL=1` kill switch is set — new GPs
/// then fit via the full O(n³) refit path so CI can differentially compare
/// it against the incremental path.
fn incremental_disabled_by_env() -> bool {
    std::env::var_os("NOSTOP_NO_GP_INCREMENTAL").is_some_and(|v| v == "1")
}

/// RBF (squared-exponential) kernel hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kernel {
    /// Signal variance σ_f².
    pub signal_variance: f64,
    /// Length scale ℓ (isotropic, scaled space).
    pub length_scale: f64,
    /// Observation noise variance σ_n².
    pub noise_variance: f64,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel {
            signal_variance: 25.0,
            length_scale: 4.0,
            noise_variance: 1.0,
        }
    }
}

impl Kernel {
    /// Kernel value `k(a, b)`.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.eval_with(self.two_l2(), a, b)
    }

    /// The exponent's denominator `2ℓ²`.
    fn two_l2(&self) -> f64 {
        2.0 * self.length_scale * self.length_scale
    }

    /// [`Kernel::eval`] with `2ℓ²` computed by the caller.
    #[inline]
    fn eval_with(&self, two_l2: f64, a: &[f64], b: &[f64]) -> f64 {
        let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum();
        self.of_sq_dist(two_l2, d2)
    }

    /// The kernel value at squared distance `d2`.
    #[inline]
    fn of_sq_dist(&self, two_l2: f64, d2: f64) -> f64 {
        self.signal_variance * (-d2 / two_l2).exp()
    }
}

/// A Gaussian-process regressor.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    kernel: Kernel,
    /// `kernel.two_l2()`, computed once.
    two_l2: f64,
    /// Observed points, row-major: point `i` is `x[i * dim..(i + 1) * dim]`.
    x: Vec<f64>,
    /// Dimension of every observed point; set by the first add.
    dim: usize,
    y: Vec<f64>,
    y_mean: f64,
    /// Cholesky factor of `K + (σ_n² + jitter) I`; dimension `len()`.
    chol: Matrix,
    /// `(K + σ_n² I)⁻¹ (y − ȳ)`.
    alpha: Vec<f64>,
    /// Incremental rank-1 factor updates (default) vs full refit (probe).
    incremental: bool,
    /// Kernel-row cache: the newest point's kernel column, computed once
    /// per add and fed straight into the factor extension.
    kcol: Vec<f64>,
    /// Scratch: centered targets, reused across fits.
    centered: Vec<f64>,
    /// Scratch: Gram matrix for the full-refit probe path.
    gram: Matrix,
}

impl GaussianProcess {
    /// An empty GP with the given kernel.
    pub fn new(kernel: Kernel) -> Self {
        GaussianProcess {
            kernel,
            two_l2: kernel.two_l2(),
            x: Vec::new(),
            dim: 0,
            y: Vec::new(),
            y_mean: 0.0,
            chol: Matrix::zeros(0),
            alpha: Vec::new(),
            incremental: !incremental_disabled_by_env(),
            kcol: Vec::new(),
            centered: Vec::new(),
            gram: Matrix::zeros(0),
        }
    }

    /// Select the fitting path explicitly (tests, benches, probes). The
    /// fitted model is bitwise identical either way; only the cost differs.
    pub fn with_incremental(mut self, incremental: bool) -> Self {
        self.incremental = incremental;
        self
    }

    /// Whether adds go through the incremental fast path.
    pub fn is_incremental(&self) -> bool {
        self.incremental
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when no observations have been added.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// The smallest observed target, if any.
    pub fn best_y(&self) -> Option<f64> {
        self.y.iter().copied().fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(a) => a.min(v),
            })
        })
    }

    fn jitter(&self) -> f64 {
        1e-8 * self.kernel.signal_variance.max(1.0)
    }

    /// Add an observation and refit.
    pub fn add(&mut self, x: Vec<f64>, y: f64) {
        assert!(y.is_finite(), "target must be finite");
        assert!(!x.is_empty(), "a point needs at least one dimension");
        if self.is_empty() {
            self.dim = x.len();
        }
        assert_eq!(self.dim, x.len(), "dimension mismatch");
        if self.incremental {
            // Kernel-row cache: the new point's column, computed once.
            self.kcol.clear();
            for xi in self.x.chunks_exact(self.dim) {
                self.kcol.push(self.kernel.eval_with(self.two_l2, xi, &x));
            }
            let diag = self.kernel.eval_with(self.two_l2, &x, &x)
                + self.kernel.noise_variance
                + self.jitter();
            self.chol.reserve(self.len() + 1);
            if !self.chol.extend_cholesky(&self.kcol, diag) {
                panic!("kernel matrix with noise must be positive definite");
            }
            self.x.extend_from_slice(&x);
            self.y.push(y);
            self.resolve_alpha();
        } else {
            self.x.extend_from_slice(&x);
            self.y.push(y);
            self.refit();
        }
    }

    /// Recenter the targets and re-solve `alpha` from the current factor.
    fn resolve_alpha(&mut self) {
        let n = self.len();
        self.y_mean = self.y.iter().sum::<f64>() / n as f64;
        let y_mean = self.y_mean;
        self.centered.clear();
        self.centered.extend(self.y.iter().map(|v| v - y_mean));
        cholesky_solve_into(&self.chol, &self.centered, &mut self.alpha);
    }

    /// Probe path: rebuild the full Gram matrix and refactor from scratch
    /// into reused scratch storage.
    fn refit(&mut self) {
        let n = self.len();
        let jitter = self.jitter();
        self.gram.n = n;
        self.gram.data.clear();
        self.gram.data.resize(n * n, 0.0);
        for (i, xi) in self.x.chunks_exact(self.dim).enumerate() {
            for (j, xj) in self.x.chunks_exact(self.dim).enumerate() {
                self.gram.data[i * n + j] = self.kernel.eval_with(self.two_l2, xi, xj)
                    + if i == j {
                        self.kernel.noise_variance + jitter
                    } else {
                        0.0
                    };
            }
        }
        if !self.gram.cholesky_into(&mut self.chol) {
            panic!("kernel matrix with noise must be positive definite");
        }
        self.resolve_alpha();
    }

    /// Posterior mean and variance at `x`.
    ///
    /// With no observations this is the prior: `(0-centered mean, σ_f²)`.
    /// Otherwise `x` must have the observations' dimension.
    pub fn posterior(&self, x: &[f64]) -> (f64, f64) {
        if self.is_empty() {
            return (self.y_mean, self.kernel.signal_variance);
        }
        assert_eq!(x.len(), self.dim, "dimension mismatch");
        let k_star: Vec<f64> = self
            .x
            .chunks_exact(self.dim)
            .map(|xi| self.kernel.eval_with(self.two_l2, xi, x))
            .collect();
        let mean = self.y_mean + dot(&k_star, &self.alpha);
        let mut v = k_star;
        solve_lower_in_place(&self.chol, &mut v);
        let var = (self.kernel.eval_with(self.two_l2, x, x) - dot(&v, &v)).max(1e-12);
        (mean, var)
    }

    /// Posterior mean and variance at every candidate, scored [`TILE`]
    /// candidates at a time (see the module docs). Bitwise identical to
    /// calling [`GaussianProcess::posterior`] per point.
    pub fn posterior_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        if self.is_empty() {
            return xs
                .iter()
                .map(|_| (self.y_mean, self.kernel.signal_variance))
                .collect();
        }
        let dim = self.dim;
        for xc in xs {
            assert_eq!(xc.len(), dim, "dimension mismatch");
        }
        let mut out = Vec::with_capacity(xs.len());
        let mut tile = vec![0.0; self.len() * TILE];
        let mut cand = vec![0.0; dim * TILE];
        for group in xs.chunks(TILE) {
            // The group's coordinates, interleaved like the tile; a short
            // last group repeats its last candidate in the spare lanes.
            for (k, slot) in cand.iter_mut().enumerate() {
                *slot = group[(k % TILE).min(group.len() - 1)][k / TILE];
            }
            // k* columns straight into the interleaved layout. Each lane
            // sums its squared distance in `Kernel::eval`'s order (terms
            // are never negative, so the zero start matches `sum`'s).
            for (row, xi) in tile.chunks_exact_mut(TILE).zip(self.x.chunks_exact(dim)) {
                let mut d2 = [0.0; TILE];
                for (&a, lanes) in xi.iter().zip(cand.chunks_exact(TILE)) {
                    for (d, &b) in d2.iter_mut().zip(lanes) {
                        *d += (a - b) * (a - b);
                    }
                }
                for (slot, d2) in row.iter_mut().zip(d2) {
                    *slot = self.kernel.of_sq_dist(self.two_l2, d2);
                }
            }
            let means = dot_tile::<1>(&self.alpha, &tile);
            solve_lower_tile(&self.chol, &mut tile);
            let vv = dot_tile::<TILE>(&tile, &tile);
            for ((xc, mean), vv) in group.iter().zip(means).zip(vv) {
                let var = (self.kernel.eval_with(self.two_l2, xc, xc) - vv).max(1e-12);
                out.push((self.y_mean + mean, var));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gp_with(points: &[(&[f64], f64)]) -> GaussianProcess {
        let mut gp = GaussianProcess::new(Kernel {
            signal_variance: 4.0,
            length_scale: 2.0,
            noise_variance: 1e-4,
        });
        for (x, y) in points {
            gp.add(x.to_vec(), *y);
        }
        gp
    }

    #[test]
    fn empty_gp_returns_prior() {
        let gp = GaussianProcess::new(Kernel::default());
        let (mean, var) = gp.posterior(&[10.0, 10.0]);
        assert_eq!(mean, 0.0);
        assert_eq!(var, Kernel::default().signal_variance);
        assert!(gp.is_empty());
        assert_eq!(gp.best_y(), None);
    }

    #[test]
    fn interpolates_training_points_with_low_noise() {
        let gp = gp_with(&[(&[1.0, 1.0], 3.0), (&[5.0, 5.0], 7.0), (&[9.0, 2.0], 1.0)]);
        for (x, y) in [(&[1.0, 1.0], 3.0), (&[5.0, 5.0], 7.0), (&[9.0, 2.0], 1.0)] {
            let (mean, var) = gp.posterior(x);
            assert!((mean - y).abs() < 0.05, "mean {mean} vs {y}");
            assert!(var < 0.05, "var {var}");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let gp = gp_with(&[(&[5.0, 5.0], 2.0)]);
        let (_, var_near) = gp.posterior(&[5.5, 5.0]);
        let (_, var_far) = gp.posterior(&[19.0, 19.0]);
        assert!(var_far > var_near);
        // Far from data the posterior reverts to the (centered) prior mean.
        let (mean_far, _) = gp.posterior(&[19.0, 19.0]);
        assert!((mean_far - 2.0).abs() < 0.1, "reverts to mean: {mean_far}");
    }

    #[test]
    fn posterior_mean_smoothly_interpolates() {
        let gp = gp_with(&[(&[0.0], 0.0), (&[4.0], 4.0)]);
        let (mid, _) = gp.posterior(&[2.0]);
        assert!(mid > 0.5 && mid < 3.5, "between endpoints: {mid}");
    }

    #[test]
    fn best_y_tracks_minimum() {
        let gp = gp_with(&[(&[1.0], 5.0), (&[2.0], 3.0), (&[3.0], 9.0)]);
        assert_eq!(gp.best_y(), Some(3.0));
        assert_eq!(gp.len(), 3);
    }

    #[test]
    fn handles_many_points_without_numerical_collapse() {
        let mut gp = GaussianProcess::new(Kernel::default());
        for i in 0..120 {
            let x = (i % 20) as f64 + 1.0;
            let y = (x - 10.0).powi(2) / 5.0 + ((i * 7) % 3) as f64 * 0.1;
            gp.add(vec![x, 10.0], y);
        }
        // Posterior at the optimum should be lower than at the edge.
        let (m_opt, _) = gp.posterior(&[10.0, 10.0]);
        let (m_edge, _) = gp.posterior(&[1.0, 10.0]);
        assert!(m_opt < m_edge);
    }

    #[test]
    fn incremental_and_refit_posteriors_are_bitwise_identical() {
        let mut fast = GaussianProcess::new(Kernel::default()).with_incremental(true);
        let mut probe = GaussianProcess::new(Kernel::default()).with_incremental(false);
        for i in 0..40 {
            let x = vec![(i % 13) as f64 + 1.0, (i % 7) as f64 * 2.0 + 1.0];
            let y = (x[0] - 6.0).powi(2) * 0.3 + x[1] * 0.1;
            fast.add(x.clone(), y);
            probe.add(x, y);
            let q = [i as f64 * 0.4 + 1.0, 10.0];
            let (mf, vf) = fast.posterior(&q);
            let (mp, vp) = probe.posterior(&q);
            assert_eq!(mf.to_bits(), mp.to_bits(), "mean at add {i}");
            assert_eq!(vf.to_bits(), vp.to_bits(), "variance at add {i}");
        }
    }

    #[test]
    fn posterior_batch_matches_per_point_bitwise() {
        let gp = gp_with(&[
            (&[1.0, 2.0], 3.0),
            (&[5.0, 5.0], 7.0),
            (&[9.0, 2.0], 1.0),
            (&[3.0, 8.0], 4.0),
            (&[7.0, 6.0], 2.0),
        ]);
        // 33 candidates: eight full tiles and one padded single.
        let cands: Vec<Vec<f64>> = (0..33)
            .map(|i| vec![1.0 + (i % 9) as f64, 1.0 + (i % 5) as f64 * 3.0])
            .collect();
        let batch = gp.posterior_batch(&cands);
        assert_eq!(batch.len(), cands.len());
        for (c, got) in cands.iter().zip(&batch) {
            let want = gp.posterior(c);
            assert_eq!(got.0.to_bits(), want.0.to_bits());
            assert_eq!(got.1.to_bits(), want.1.to_bits());
        }
    }

    #[test]
    fn posterior_batch_on_empty_gp_returns_prior() {
        let gp = GaussianProcess::new(Kernel::default());
        let batch = gp.posterior_batch(&[vec![1.0], vec![2.0]]);
        assert_eq!(batch, vec![(0.0, 25.0), (0.0, 25.0)]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn short_candidate_rejected_by_posterior() {
        let gp = gp_with(&[(&[1.0, 2.0], 3.0)]);
        gp.posterior(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn short_candidate_rejected_by_posterior_batch() {
        let gp = gp_with(&[(&[1.0, 2.0], 3.0)]);
        gp.posterior_batch(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_observation_rejected() {
        let mut gp = gp_with(&[(&[1.0, 2.0], 3.0)]);
        gp.add(vec![1.0, 2.0, 3.0], 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_target_rejected() {
        let mut gp = GaussianProcess::new(Kernel::default());
        gp.add(vec![1.0], f64::INFINITY);
    }
}
