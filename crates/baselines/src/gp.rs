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
//! Setting `NOSTOP_PROBE=1` (or
//! [`GaussianProcess::with_incremental`]`(false)`) routes every add
//! through the full-refit probe path. The two paths share `linalg`'s
//! single dot kernel, making their factors — and therefore posteriors —
//! bitwise identical; the differential suite in
//! `crates/baselines/tests/gp_differential.rs` pins this.
//!
//! # Batched scoring
//!
//! Candidates are scored in two passes over one row-major pool, [`TILE`]
//! at a time; both write a tile's kernel columns interleaved into one
//! `n × TILE` buffer.
//!
//! - The **screen pass** ([`GaussianProcess::screen_means`]) runs over the
//!   whole pool and takes `alpha · k̃*`, where `k̃*` comes from an in-crate
//!   polynomial `exp` with no table and no branch, so the tile loop runs
//!   it at vector width. It returns each candidate's screened mean `m̃`
//!   and one bound `δ` with `|m̃ − m| ≤ δ` for every candidate, `m` being
//!   the exact mean (see [`GaussianProcess::screen_means`] for the
//!   derivation). A screened mean only ranks candidates; it never reaches
//!   an output.
//! - The **exact pass** ([`GaussianProcess::exact_posteriors`]) takes any
//!   picks, in any order, regroups them into tiles, fills their k* once
//!   with libm `exp`, and takes the mean (`alpha · k*`), the forward solve
//!   ([`solve_lower_tile`]) and `v · v`.
//!
//! BayesOpt screens its whole pool and runs the exact pass only over the
//! candidates whose EI bound can still win. Every loop vectorises across
//! the tile's candidates, never along a sum, so each lane keeps the
//! per-point order of operations ([`Kernel::eval`]'s distance sum,
//! [`dot`]'s partial sums) and every exact-pass output is bitwise equal to
//! [`GaussianProcess::posterior`], which stays as the per-point reference,
//! whatever lane or tile a candidate lands in. Nothing here may use a
//! fused multiply-add, the screen's `exp` included.
//!
//! *Width.* Each pass is one `#[inline(always)]` body compiled twice:
//! portably, and on `x86_64` inside an AVX2 `#[target_feature]` wrapper
//! that the pass picks per call when the host has AVX2. IEEE
//! `+ − × ÷` round per lane at any vector width, integer adds and shifts
//! are exact, and rustc never fuses `a * b + c`, so the two builds agree
//! bit for bit; AVX2 only moves four lanes per instruction instead of two.

use crate::linalg::{
    cholesky_solve_into, dot, dot_tile, solve_lower_in_place, solve_lower_tile, Matrix, TILE,
};
use nostop_simcore::probe_mode;

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
    /// `Σ|alpha_j|`, for the screen pass's bound.
    alpha_abs_sum: f64,
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
            alpha_abs_sum: 0.0,
            incremental: !probe_mode(),
            kcol: Vec::new(),
            centered: Vec::new(),
            gram: Matrix::zeros(0),
        }
    }

    /// Select the fitting path explicitly (tests, probes). The
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
    /// Both fitting paths end here.
    fn resolve_alpha(&mut self) {
        let n = self.len();
        self.y_mean = self.y.iter().sum::<f64>() / n as f64;
        let y_mean = self.y_mean;
        self.centered.clear();
        self.centered.extend(self.y.iter().map(|v| v - y_mean));
        cholesky_solve_into(&self.chol, &self.centered, &mut self.alpha);
        self.alpha_abs_sum = self.alpha.iter().map(|a| a.abs()).sum();
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
        let var = (self.kernel.eval_with(self.two_l2, x, x) - dot(&v, &v)).max(VARIANCE_FLOOR);
        (mean, var)
    }

    /// The largest posterior variance any point can have:
    /// `max(σ_f², floor)`. The posterior variance is
    /// `max(k(x, x) − v·v, floor)`, `k(x, x)` is `σ_f² · exp(−0)`, which is
    /// `σ_f²` exactly, and `v·v` is a sum of squares.
    pub fn max_variance(&self) -> f64 {
        self.kernel.signal_variance.max(VARIANCE_FLOOR)
    }

    /// The number of candidates in `xs`, `dim` coordinates each, checked
    /// against the observations' dimension.
    fn pool_len(&self, xs: &[f64], dim: usize) -> usize {
        assert!(dim > 0, "a point needs at least one dimension");
        assert!(
            xs.len().is_multiple_of(dim) && (self.is_empty() || dim == self.dim),
            "dimension mismatch"
        );
        xs.len() / dim
    }

    /// Screen pass: a screened posterior mean `m̃` of every candidate in
    /// `xs` (row-major, `dim` coordinates each) into `out`, scored [`TILE`]
    /// at a time through the polynomial `exp` (see the module docs), and
    /// the bound `δ` on `|m̃ − m|` that holds for every candidate, `m`
    /// being [`GaussianProcess::posterior`]'s mean.
    ///
    /// *The bound.* Both passes share the distance sums and `x = −d²/2ℓ²`,
    /// so each kernel entry differs only in its `exp`. With `u = 2⁻⁵³`,
    /// `A = Σ|α_j|` and `γ_n = n·u / (1 − n·u)`:
    ///
    /// - `|screen_exp(x) − exp(x)| ≤ 1e-13 + 2u` for `x ≤ 0`: both are
    ///   within their relative error of `eˣ ≤ 1`, and below −700, where the
    ///   screen returns 0, `eˣ < 1e-304`. Scaling by `σ_f²` rounds each side
    ///   once more, so `|k̃_j − k_j| ≤ |σ_f²| (1e-13 + 4u)`.
    /// - The two dots sum the same `α_j` in the same order, so
    ///   `|fl(α·k̃) − fl(α·k)| ≤ |σ_f²| A (1e-13 + 4u + 2γ_n (1 + 1e-12))`:
    ///   the entry errors plus each dot's `γ_n` rounding.
    /// - Adding `ȳ` rounds each mean once: `u (|ȳ| + |σ_f²| A (1 + 1e-12))`
    ///   apiece.
    ///
    /// For `n ≤ 10⁴`, `γ_n < 1.2e-12`, so `|m̃ − m| < 2.5e-12 |σ_f²| A +
    /// 2.3e-16 |ȳ|`. `δ = 1e-10 (|ȳ| + |σ_f²| A)` covers that 40 times
    /// over, which also absorbs the rounding of `A` and of `δ` itself.
    /// Past 10⁴ observations `γ_n` grows linearly in `n`, and so does the
    /// factor.
    ///
    /// A NaN coordinate gives a NaN `m̃`, as it gives a NaN `m`. With no
    /// observations every `m̃` is the prior mean exactly and `δ` is 0.
    pub fn screen_means(&self, xs: &[f64], dim: usize, out: &mut Vec<f64>) -> f64 {
        let count = self.pool_len(xs, dim);
        out.clear();
        if self.is_empty() {
            out.resize(count, self.y_mean);
            return 0.0;
        }
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the detection just above proves this host runs AVX2.
            return unsafe { self.screen_avx2(xs, out) };
        }
        self.screen(xs, out)
    }

    /// Exact pass: the posterior `(mean, variance)` of candidates `picks`
    /// of `xs` into `out`, in `picks` order, [`TILE`] picks per tile.
    /// Bitwise equal to [`GaussianProcess::posterior`].
    pub fn exact_posteriors(
        &self,
        xs: &[f64],
        dim: usize,
        picks: &[usize],
        out: &mut Vec<(f64, f64)>,
    ) {
        self.pool_len(xs, dim);
        out.clear();
        if self.is_empty() {
            out.resize(picks.len(), (self.y_mean, self.kernel.signal_variance));
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the detection just above proves this host runs AVX2.
            return unsafe { self.exact_avx2(xs, picks, out) };
        }
        self.exact(xs, picks, out)
    }

    /// [`GaussianProcess::screen`] compiled for AVX2: the same body, four
    /// f64 lanes per register instead of two.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn screen_avx2(&self, xs: &[f64], out: &mut Vec<f64>) -> f64 {
        self.screen(xs, out)
    }

    /// [`GaussianProcess::exact`] compiled for AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn exact_avx2(&self, xs: &[f64], picks: &[usize], out: &mut Vec<(f64, f64)>) {
        self.exact(xs, picks, out)
    }

    /// The screen pass behind [`GaussianProcess::screen_means`], for a
    /// non-empty GP and candidates of its dimension: k̃* and `alpha · k̃*`,
    /// tile by tile in pool order, then `δ`. Always inlined, so each caller
    /// compiles it for its own target features.
    #[inline(always)]
    fn screen(&self, xs: &[f64], out: &mut Vec<f64>) -> f64 {
        let count = xs.len() / self.dim;
        let mut tile = Tile::new(self);
        for start in (0..count).step_by(TILE) {
            let len = (count - start).min(TILE);
            tile.fill(self, xs, |g| start + g.min(len - 1), screen_exp);
            let means = dot_tile::<1>(&self.alpha, &tile.k);
            out.extend(means[..len].iter().map(|m| self.y_mean + m));
        }
        let growth = (self.len() as f64 / 1e4).max(1.0);
        SCREEN_BOUND
            * growth
            * (self.y_mean.abs() + self.kernel.signal_variance.abs() * self.alpha_abs_sum)
    }

    /// The exact pass behind [`GaussianProcess::exact_posteriors`]: k*
    /// once per tile of picks, then `alpha · k*`, the forward solve and
    /// `v · v`. Always inlined, like [`GaussianProcess::screen`].
    #[inline(always)]
    fn exact(&self, xs: &[f64], picks: &[usize], out: &mut Vec<(f64, f64)>) {
        let dim = self.dim;
        let mut tile = Tile::new(self);
        for group in picks.chunks(TILE) {
            tile.fill(self, xs, |g| group[g.min(group.len() - 1)], f64::exp);
            let means = dot_tile::<1>(&self.alpha, &tile.k);
            solve_lower_tile(&self.chol, &mut tile.k);
            let vv = dot_tile::<TILE>(&tile.k, &tile.k);
            for ((&i, m), vv) in group.iter().zip(means).zip(vv) {
                let xc = &xs[i * dim..(i + 1) * dim];
                let var = (self.kernel.eval_with(self.two_l2, xc, xc) - vv).max(VARIANCE_FLOOR);
                out.push((self.y_mean + m, var));
            }
        }
    }
}

/// `δ` per unit of `|ȳ| + |σ_f²| Σ|α|`, up to 10⁴ observations (see
/// [`GaussianProcess::screen_means`]).
const SCREEN_BOUND: f64 = 1e-10;

/// `1 / j!` for `j` in `0..=12`: the Taylor coefficients of [`screen_exp`].
const INV_FACTORIAL: [f64; 13] = [
    1.0,
    1.0,
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5040.0,
    1.0 / 40320.0,
    1.0 / 362880.0,
    1.0 / 3628800.0,
    1.0 / 39916800.0,
    1.0 / 479001600.0,
];

/// `eˣ` for the screen pass: within 1e-13 relative error of libm's `exp`
/// on `[−700, 0]`, 0 below −700 and NaN for NaN. It has no table and no
/// branch, so the tile loop evaluates it at vector width.
///
/// `x = k·ln 2 + r`: adding `1.5·2⁵²` to `x·log₂e` rounds it to the
/// integer `k` and leaves `k` in the sum's low mantissa bits. `r` comes
/// from `x` by Cody–Waite: `LN2_HI` has 21 trailing zero bits, so
/// `k·LN2_HI` and the subtraction from `x` are exact, and `|r| ≤ 0.35`.
/// `eʳ` is its Taylor series to degree 12 (truncation costs under 4e-16
/// relative: `0.35¹³ e^0.35 / 13!` against `eʳ ≥ 0.7`), evaluated by
/// Estrin's scheme, whose chain of dependent operations is a third of
/// Horner's, and with no fused multiply-add. `2ᵏ` is `k + 1023` shifted
/// into the exponent field; the shift drops the sum's own exponent bits.
/// Below −700 the biased exponent could leave its field, so a select (not
/// `f64::max`, which drops NaN) zeroes those lanes.
#[inline(always)]
fn screen_exp(x: f64) -> f64 {
    const SHIFT: f64 = 6755399441055744.0;
    // fdlibm's split of ln 2: the high part has 21 trailing zero bits.
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    let y = x * std::f64::consts::LOG2_E + SHIFT;
    let k = y - SHIFT;
    let r = (x - k * LN2_HI) - k * LN2_LO;
    let c = INV_FACTORIAL;
    let r2 = r * r;
    let r4 = r2 * r2;
    let p = ((c[0] + c[1] * r) + (c[2] + c[3] * r) * r2)
        + ((c[4] + c[5] * r) + (c[6] + c[7] * r) * r2) * r4
        + (((c[8] + c[9] * r) + (c[10] + c[11] * r) * r2) + c[12] * r4) * (r4 * r4);
    let two_k = f64::from_bits(y.to_bits().wrapping_add(1023) << 52);
    let e = p * two_k;
    if x < -700.0 {
        0.0
    } else {
        e
    }
}

/// Floor on the posterior variance.
const VARIANCE_FLOOR: f64 = 1e-12;

/// Scratch for one tile: the `n × TILE` k* columns and the candidates'
/// coordinates, both interleaved (`[j * TILE + g]` is entry `j` of lane
/// `g`).
struct Tile {
    k: Vec<f64>,
    cand: Vec<f64>,
}

impl Tile {
    fn new(gp: &GaussianProcess) -> Self {
        Tile {
            k: vec![0.0; gp.len() * TILE],
            cand: vec![0.0; gp.dim * TILE],
        }
    }

    /// Load lane `g` with candidate `lane(g)` of `xs` and write the lanes'
    /// kernel columns, `σ_f² · exp(−d²/2ℓ²)` through the given `exp`. A
    /// short group names its last candidate again in the spare lanes,
    /// whose outputs the caller drops. Each lane sums its squared distance
    /// in `Kernel::eval`'s order (terms are never negative, so the zero
    /// start matches `sum`'s); with `f64::exp` every entry is bitwise
    /// [`Kernel::eval`]'s.
    #[inline(always)]
    fn fill(
        &mut self,
        gp: &GaussianProcess,
        xs: &[f64],
        lane: impl Fn(usize) -> usize,
        exp: impl Fn(f64) -> f64,
    ) {
        let dim = gp.dim;
        for (k, slot) in self.cand.iter_mut().enumerate() {
            *slot = xs[lane(k % TILE) * dim + k / TILE];
        }
        for (row, xi) in self.k.chunks_exact_mut(TILE).zip(gp.x.chunks_exact(dim)) {
            let mut d2 = [0.0; TILE];
            for (&a, lanes) in xi.iter().zip(self.cand.chunks_exact(TILE)) {
                for (d, &b) in d2.iter_mut().zip(lanes) {
                    *d += (a - b) * (a - b);
                }
            }
            for (slot, d2) in row.iter_mut().zip(d2) {
                *slot = -d2 / gp.two_l2;
            }
        }
        // The exponents first, then one flat map over the tile: its lanes
        // and rows are independent, so a vector `exp` keeps several
        // registers in flight instead of waiting on one row's chain.
        for slot in &mut self.k {
            *slot = gp.kernel.signal_variance * exp(*slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nostop_simcore::SimRng;

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

    /// The exact pass over every candidate of `pool`, after checking
    /// that the screen pass keeps every screened mean within its `δ` of
    /// the exact one.
    fn two_pass(gp: &GaussianProcess, pool: &[f64], dim: usize) -> Vec<(f64, f64)> {
        let (mut screened, mut exact) = (Vec::new(), Vec::new());
        let delta = gp.screen_means(pool, dim, &mut screened);
        let picks: Vec<usize> = (0..screened.len()).collect();
        gp.exact_posteriors(pool, dim, &picks, &mut exact);
        for (s, e) in screened.iter().zip(&exact) {
            assert!(
                (s - e.0).abs() <= delta,
                "screened {s} vs {} ± {delta}",
                e.0
            );
        }
        exact
    }

    #[test]
    fn two_pass_scoring_matches_per_point_bitwise() {
        let gp = gp_with(&[
            (&[1.0, 2.0], 3.0),
            (&[5.0, 5.0], 7.0),
            (&[9.0, 2.0], 1.0),
            (&[3.0, 8.0], 4.0),
            (&[7.0, 6.0], 2.0),
        ]);
        // 33 candidates: four full tiles and one padded single.
        let pool: Vec<f64> = (0..33)
            .flat_map(|i| [1.0 + (i % 9) as f64, 1.0 + (i % 5) as f64 * 3.0])
            .collect();
        let scored = two_pass(&gp, &pool, 2);
        assert_eq!(scored.len(), 33);
        for (c, got) in pool.chunks_exact(2).zip(&scored) {
            let want = gp.posterior(c);
            assert_eq!(got.0.to_bits(), want.0.to_bits());
            assert_eq!(got.1.to_bits(), want.1.to_bits());
        }
        // Picks in any order and repeated come back in pick order.
        let picks = [32, 0, 7, 7, 19];
        let mut exact = Vec::new();
        gp.exact_posteriors(&pool, 2, &picks, &mut exact);
        for (&i, e) in picks.iter().zip(&exact) {
            assert_eq!(e.0.to_bits(), scored[i].0.to_bits(), "pick {i}");
            assert_eq!(e.1.to_bits(), scored[i].1.to_bits(), "pick {i}");
        }
    }

    #[test]
    fn dispatched_passes_match_portable_bodies_bitwise() {
        // On an AVX2 host the public passes run the AVX2 builds of `screen`
        // and `exact`; elsewhere both sides are the portable builds. Eight
        // GPs, dims 1..=8, grow to 300 observations together; each n
        // scores one of them, rotating so every dim meets every n mod 8,
        // with 1..=16 candidates to cover every remainder mod the tile
        // width, and picks every candidate in reverse order. The screen
        // must agree too: its means order the pool, and so decide
        // `ScoringStats`.
        let mut rng = SimRng::seed_from_u64(8);
        let mut gps: Vec<GaussianProcess> = (0..8)
            .map(|_| GaussianProcess::new(Kernel::default()))
            .collect();
        for n in 1..=300usize {
            for (d, gp) in gps.iter_mut().enumerate() {
                let x: Vec<f64> = (0..=d).map(|_| rng.uniform(1.0, 20.0)).collect();
                gp.add(x, rng.uniform(-5.0, 5.0));
            }
            let gp = &gps[(n + n / 8) % 8];
            let dim = gp.dim;
            let count = (n / 8) % (2 * TILE) + 1;
            let pool: Vec<f64> = (0..count * dim).map(|_| rng.uniform(1.0, 20.0)).collect();
            let picks: Vec<usize> = (0..count).rev().collect();
            let (mut portable, mut dispatched) = (Vec::new(), Vec::new());
            let delta = gp.screen(&pool, &mut portable);
            assert_eq!(gp.screen_means(&pool, dim, &mut dispatched), delta);
            let (mut portable_exact, mut dispatched_exact) = (Vec::new(), Vec::new());
            gp.exact(&pool, &picks, &mut portable_exact);
            gp.exact_posteriors(&pool, dim, &picks, &mut dispatched_exact);
            for (m, v) in portable_exact {
                portable.extend([m, v]);
            }
            for (m, v) in dispatched_exact {
                dispatched.extend([m, v]);
            }
            assert_eq!(portable.len(), 3 * count);
            for (p, d) in portable.iter().zip(&dispatched) {
                assert_eq!(p.to_bits(), d.to_bits(), "dim {dim} n {n}");
            }
        }
    }

    #[test]
    fn screen_exp_tracks_libm_and_keeps_nan() {
        // A dense grid over [−700, 0] plus its ends and the values that
        // sit on a reduction boundary (k·ln 2 and half-way between).
        let grid = (0..=700_000).map(|i| -(i as f64) * 1e-3);
        let edges = (0..=1010).flat_map(|k| {
            let x = -(k as f64) * std::f64::consts::LN_2;
            [x, x - 0.5 * std::f64::consts::LN_2]
        });
        for x in grid.chain(edges).filter(|&x| x >= -700.0) {
            let (got, want) = (screen_exp(x), x.exp());
            assert!(
                ((got - want) / want).abs() <= 1e-13,
                "exp({x}): {got} vs {want}"
            );
        }
        assert_eq!(screen_exp(0.0), 1.0);
        assert_eq!(screen_exp(-0.0), 1.0);
        for x in [-700.5, -745.0, -1e6, f64::MIN, f64::NEG_INFINITY] {
            assert_eq!(screen_exp(x), 0.0, "exp({x})");
        }
        assert!(screen_exp(f64::NAN).is_nan());
        assert!(screen_exp(f64::from_bits(u64::MAX)).is_nan(), "any payload");
    }

    #[test]
    fn passes_on_empty_gp_return_prior() {
        let gp = GaussianProcess::new(Kernel::default());
        assert_eq!(
            two_pass(&gp, &[1.0, 2.0], 1),
            vec![(0.0, 25.0), (0.0, 25.0)]
        );
        let mut screened = Vec::new();
        assert_eq!(gp.screen_means(&[1.0, 2.0], 1, &mut screened), 0.0);
        assert_eq!(screened, vec![0.0, 0.0]);
        assert_eq!(gp.max_variance(), 25.0);
    }

    #[test]
    fn max_variance_bounds_every_posterior_variance() {
        // A signal variance under the floor: every variance is the floor.
        let mut gp = GaussianProcess::new(Kernel {
            signal_variance: 1e-14,
            length_scale: 2.0,
            noise_variance: 1e-30,
        });
        gp.add(vec![1.0], 0.0);
        assert_eq!(gp.max_variance(), VARIANCE_FLOOR);
        assert_eq!(gp.posterior(&[1.0]).1, VARIANCE_FLOOR);
        let gp = gp_with(&[(&[1.0, 2.0], 3.0), (&[5.0, 5.0], 7.0)]);
        assert_eq!(gp.max_variance(), 4.0);
        assert_eq!(
            gp.posterior(&[100.0, 100.0]).1,
            4.0,
            "far away: the prior exactly"
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn short_candidate_rejected_by_posterior() {
        let gp = gp_with(&[(&[1.0, 2.0], 3.0)]);
        gp.posterior(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn ragged_pool_rejected_by_the_screen_pass() {
        let gp = gp_with(&[(&[1.0, 2.0], 3.0)]);
        gp.screen_means(&[1.0, 2.0, 1.0], 2, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dimension_rejected_by_the_exact_pass() {
        let gp = gp_with(&[(&[1.0, 2.0], 3.0)]);
        gp.exact_posteriors(&[1.0, 2.0], 1, &[0], &mut Vec::new());
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
