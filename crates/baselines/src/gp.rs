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
//! Candidates are scored in two passes over one row-major pool.
//!
//! - The **screen pass** ([`GaussianProcess::screen_means`]) runs over the
//!   whole pool in single precision, 16 candidates at a time.
//!   It takes `alpha · k̃*`, where `k̃*` comes from `f32` coordinates and an
//!   in-crate `f32` `exp` with no table and no branch, so the tile loop
//!   runs it at vector width. It returns each candidate's screened mean
//!   `m̃` and one bound `δ` with `|m̃ − m| ≤ δ` for every candidate, `m`
//!   being the exact mean (see [`GaussianProcess::screen_means`] for the
//!   derivation). A screened mean only ranks candidates; it never reaches
//!   an output.
//! - The **exact pass** ([`GaussianProcess::exact_posteriors`]) takes any
//!   picks, in any order, regroups them into tiles of [`TILE`], writes
//!   their kernel columns interleaved into one `n × TILE` buffer with libm
//!   `exp`, and takes the mean (`alpha · k*`), the forward solve
//!   ([`solve_lower_tile`]) and `v · v`.
//!
//! BayesOpt screens its whole pool and runs the exact pass only over the
//! candidates whose EI bound can still win. Every loop vectorises across
//! the tile's candidates, never along a sum, so each lane keeps the
//! per-point order of operations ([`Kernel::eval`]'s distance sum,
//! [`dot`]'s partial sums) and every exact-pass output is bitwise equal to
//! [`GaussianProcess::posterior`], which stays as the per-point reference,
//! whatever lane or tile a candidate lands in. Nothing here may use a
//! fused multiply-add, the screen's `exp` included. Single precision stays
//! in the screen: no `f32` value reaches an output, and a CI lint keeps
//! `f32` out of every other source file.
//!
//! *Width.* Each pass is one `#[inline(always)]` body compiled twice:
//! portably, and on `x86_64` inside an AVX2 `#[target_feature]` wrapper
//! that the pass picks per call when the host has AVX2. IEEE
//! `+ − × ÷` and conversions round per lane at any vector width, integer
//! adds and shifts are exact, and rustc never fuses `a * b + c`, so the
//! two builds agree bit for bit; AVX2 only moves eight `f32` (four `f64`)
//! lanes per instruction instead of four (two).

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
    /// The screen's mirror of `x`: each coordinate as `(v − o)·t`,
    /// rounded to `f32`, where `o` is the first observation and
    /// `t = 1/√(2ℓ²)` (see [`GaussianProcess::screen_means`]).
    x32: Vec<f32>,
    /// The largest `|(v − o)·t|` over the observations, before rounding.
    x32_max: f64,
    /// The screen's mirror of `alpha`, rounded to `f32`.
    alpha32: Vec<f32>,
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
            x32: Vec::new(),
            x32_max: 0.0,
            alpha32: Vec::new(),
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
        let t = self.screen_scale();
        let origin: &[f64] = if self.x.is_empty() {
            &x
        } else {
            &self.x[..self.dim]
        };
        for (&v, &o) in x.iter().zip(origin) {
            let z = (v - o) * t;
            self.x32_max = self.x32_max.max(z.abs());
            self.x32.push(z as f32);
        }
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
        self.alpha32.clear();
        self.alpha32.extend(self.alpha.iter().map(|&a| a as f32));
    }

    /// The screen's coordinate scale `t = 1/√(2ℓ²)`: the kernel exponent
    /// of two points is `−Σ((a − b)·t)²`.
    fn screen_scale(&self) -> f64 {
        1.0 / self.two_l2.sqrt()
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
    /// `xs` (row-major, `dim` coordinates each) into `out`, and the bound
    /// `δ` on `|m̃ − m|` that holds for every candidate, `m` being
    /// [`GaussianProcess::posterior`]'s mean.
    ///
    /// *The arithmetic.* A coordinate `v` enters as `z = (v − o)·t`, taken
    /// in `f64` and rounded once to `f32`, where `o` is the first
    /// observation and `t = 1/√(2ℓ²)`; a pair's kernel exponent is then
    /// `x = −Σ(z_a − z_b)²`, with no per-entry scale. The GP keeps the
    /// observations' `z` and `α` as `f32` mirrors, and the pool is
    /// converted once per tile of 16 candidates. Each lane sums its
    /// squared differences in `f32`, takes `exp32` of the exponent, sums
    /// `α_j·k̃_j` in `f32` over blocks of 32 observations, adds each block
    /// total into an `f64` accumulator `S`, and returns `m̃ = ȳ + σ_f²·S`.
    ///
    /// *The bound.* Let `u = 2⁻²⁴` and `U = 2⁻⁵³` be the two unit
    /// roundoffs, `γ_k(u) = k·u/(1 − k·u)`, `ρ = 1e-7` the relative error
    /// of `exp32` on `[−87, 0]` (bounded by a scan of every `f32` there),
    /// `A = Σ|α_j|`, `M` the largest `|z|` over the observations and the
    /// pool (found per call), and `s = D/2ℓ² ≥ 0` a pair's exact exponent
    /// magnitude, `D` its squared distance.
    ///
    /// 1. *Coordinate rounding.* Each `f32` coordinate is within
    ///    `e = (u + 3U)·M + 2⁻¹²⁶` of `(v − o)·t`: the `f64` subtraction and
    ///    scaling, the `f32` rounding, and `2⁻¹²⁶` for subnormals. Over a
    ///    pair's scaled differences `w_i` it moves the squared distance by
    ///    at most `4e·Σ|w_i| + 4·dim·e² ≤ 4e·√(dim·s) + 4·dim·e²`.
    /// 2. *Distance, scale and `exp`.* The `f32` distance rounds each term
    ///    `dim + 2` times; the exact pass's distance and division round
    ///    `dim + 3` times; `t` carries `γ₂(U)`, which `x` sees squared. All
    ///    are relative in `x`: `a = γ_{dim+2}(u) + γ_{dim+7}(U)`. So the
    ///    two exponents differ by at most `a·s + b·√s + c`, and each lies
    ///    within that of `−s`, with
    ///    `b = 4e·√dim·(1 + γ_{dim+2}(u))` and
    ///    `c = 4·dim·e²·(1 + γ_{dim+2}(u)) + dim·(2⁻¹²⁶ + 2⁻¹⁰²²/2ℓ²)`
    ///    (squares that underflow, in `f32` and in `f64`). By
    ///    `b·√s ≤ s/64 + 16b²`, `eˣ` between the two exponents is at most
    ///    `e^{16b²+c}·e^{−κs}` with `κ = 63/64 − a`, and `s·e^{−κs} ≤ 1/κe`,
    ///    `√s·e^{−κs} ≤ 1/√(2κe)`. The two entries therefore differ by at
    ///    most `E = ρ + 2U + 2⁻¹²⁵ + e^{16b²+c}·(a/κe + b/√(2κe) + c)`:
    ///    `exp32`'s error, libm's (one ulp), the cutoff and underflow, and
    ///    the spread of the exponents. `|x|eˣ ≤ 1/e` makes this scale-free,
    ///    with no bound on `s`. Both entries lie in `[0, 1 + ρ]`, so `E` is
    ///    capped at `1 + ρ`, which also covers a distance that overflows
    ///    `f32`.
    /// 3. *`α` rounding* costs `u·A`, and each *block sum* `γ₃₂(u)` of its
    ///    `Σ|α_j k̃_j|`: `γ₃₃(u)·(1 + ρ)(1 + u)·A` together, plus `2⁻¹²⁶`
    ///    per observation for `f32` values that underflow.
    /// 4. *The `f64` fold*, the `σ_f²` scaling, the exact pass's products
    ///    and dot, and the two additions of `ȳ` cost at most
    ///    `γ_{2n+9}(U)·|σ_f²|·A + 2U·|ȳ|`.
    ///
    /// So `δ = (1 + 2⁻⁸)·(|σ_f²|·(A·(E + γ₃₃(u)(1 + ρ)(1 + u) +
    /// γ_{2n+9}(U)) + n·2⁻¹²⁶) + 2U·|ȳ|)`, the factor covering the
    /// second-order products of these terms and the rounding of `A` and of
    /// `δ` itself. It holds for every finite input whose `2ℓ²` is a
    /// positive finite `f64`. A mirror that could overflow a block sum
    /// (`A > 2¹²⁰`) makes `δ` infinite, which keys every candidate at the
    /// top. On BayesOpt's cube (`dim` 8, `M < 3.6`) `δ` is about
    /// `3.4e-6·|σ_f²|·A`; a coordinate far from `o`, at any scale, only
    /// widens `e`.
    ///
    /// A NaN coordinate gives a NaN `m̃`, as it gives a NaN `m`; so can
    /// coordinates past `f32`'s range, whose other entries are 0 and within
    /// the cap. A NaN `m̃` keys its candidate as never pruned. With no
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

    /// [`GaussianProcess::screen`] compiled for AVX2: the same body, eight
    /// `f32` lanes per register instead of four.
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
    /// non-empty GP and candidates of its dimension: per tile, the
    /// candidates' `f32` coordinates, then per block of observations the
    /// exponents, `exp32` and the block sums, folded into `f64`; then `δ`.
    /// Always inlined, so each caller compiles it for its own target
    /// features.
    #[inline(always)]
    fn screen(&self, xs: &[f64], out: &mut Vec<f64>) -> f64 {
        let dim = self.dim;
        let count = xs.len() / dim;
        let (origin, t) = (&self.x[..dim], self.screen_scale());
        // One row of lanes per coordinate; on the stack up to 16
        // dimensions, so BayesOpt's screen allocates nothing.
        let mut stack = [[0.0f32; SCREEN_TILE]; 16];
        let mut heap = Vec::new();
        let lanes = if dim <= stack.len() {
            &mut stack[..dim]
        } else {
            heap.resize(dim, [0.0; SCREEN_TILE]);
            &mut heap[..]
        };
        let mut k = [[0.0f32; SCREEN_TILE]; SCREEN_BLOCK];
        let mut max = self.x32_max;
        for start in (0..count).step_by(SCREEN_TILE) {
            // A short tile names its last candidate again in the spare
            // lanes, whose outputs are dropped.
            for g in 0..SCREEN_TILE {
                let c = (start + g).min(count - 1);
                for ((row, &v), &o) in lanes.iter_mut().zip(&xs[c * dim..]).zip(origin) {
                    let z = (v - o) * t;
                    max = max.max(z.abs());
                    row[g] = z as f32;
                }
            }
            let mut acc = [0.0f64; SCREEN_TILE];
            let blocks = self.x32.chunks(SCREEN_BLOCK * dim);
            for (obs, alpha) in blocks.zip(self.alpha32.chunks(SCREEN_BLOCK)) {
                for (row, xj) in k.iter_mut().zip(obs.chunks_exact(dim)) {
                    let mut d2 = [0.0f32; SCREEN_TILE];
                    for (&a, lane) in xj.iter().zip(lanes.iter()) {
                        for (d, &b) in d2.iter_mut().zip(lane) {
                            *d += (a - b) * (a - b);
                        }
                    }
                    *row = d2;
                }
                // The exponents first, then one flat map over the block:
                // its entries are independent, so several registers of
                // `exp32` are in flight at once.
                for v in k[..alpha.len()].as_flattened_mut() {
                    *v = exp32(-*v);
                }
                let mut block = [0.0f32; SCREEN_TILE];
                for (row, &a) in k.iter().zip(alpha) {
                    for (s, &kv) in block.iter_mut().zip(row) {
                        *s += a * kv;
                    }
                }
                for (acc, s) in acc.iter_mut().zip(block) {
                    *acc += f64::from(s);
                }
            }
            let len = (count - start).min(SCREEN_TILE);
            let sf = self.kernel.signal_variance;
            out.extend(acc[..len].iter().map(|&s| self.y_mean + sf * s));
        }
        self.screen_bound(max)
    }

    /// [`GaussianProcess::screen_means`]'s `δ` for a call whose scaled
    /// coordinates reach `max` in magnitude, term by term as derived there.
    fn screen_bound(&self, max: f64) -> f64 {
        const U: f64 = f64::EPSILON / 2.0;
        const U32: f64 = f32::EPSILON as f64 / 2.0;
        const TINY: f64 = f32::MIN_POSITIVE as f64;
        let gamma = |k: f64, u: f64| {
            if k * u < 0.5 {
                k * u / (1.0 - k * u)
            } else {
                f64::INFINITY
            }
        };
        let a_sum = self.alpha_abs_sum;
        if a_sum > 2f64.powi(120) {
            return f64::INFINITY;
        }
        let (dim, n) = (self.dim as f64, self.len() as f64);
        let e = (U32 + 3.0 * U) * max + TINY;
        let g = gamma(dim + 2.0, U32);
        let a = g + gamma(dim + 7.0, U);
        let b = 4.0 * e * dim.sqrt() * (1.0 + g);
        let c = 4.0 * dim * e * e * (1.0 + g) + dim * (TINY + f64::MIN_POSITIVE / self.two_l2);
        let kappa = 63.0 / 64.0 - a;
        let cap = 1.0 + EXP_REL;
        let entry = if kappa > 0.0 {
            let ke = kappa * std::f64::consts::E;
            let spread = (16.0 * b * b + c).exp() * (a / ke + b / (2.0 * ke).sqrt() + c);
            // `min` also maps a NaN spread (a degenerate kernel) to the cap.
            (EXP_REL + 2.0 * U + 2.0 * TINY + spread).min(cap)
        } else {
            cap
        };
        let sums = gamma(33.0, U32) * (1.0 + EXP_REL) * (1.0 + U32) + gamma(2.0 * n + 9.0, U);
        let sf = self.kernel.signal_variance.abs();
        (1.0 + 1.0 / 256.0)
            * (sf * (a_sum * (entry + sums) + n * TINY) + 2.0 * U * self.y_mean.abs())
    }

    /// The exact pass behind [`GaussianProcess::exact_posteriors`]: k*
    /// once per tile of picks, then `alpha · k*`, the forward solve and
    /// `v · v`. Always inlined, like [`GaussianProcess::screen`].
    #[inline(always)]
    fn exact(&self, xs: &[f64], picks: &[usize], out: &mut Vec<(f64, f64)>) {
        let dim = self.dim;
        let mut tile = Tile::new(self);
        for group in picks.chunks(TILE) {
            tile.fill(self, xs, |g| group[g.min(group.len() - 1)]);
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

/// Candidates per screen tile: two AVX2 registers of `f32`.
const SCREEN_TILE: usize = 16;

/// Observations per `f32` block sum of the screen.
const SCREEN_BLOCK: usize = 32;

/// [`exp32`]'s relative error bound against `eˣ` on `[−87, 0]`. A scan of
/// every `f32` in that range against `f64::exp` found at most 9.05e-8
/// (1.52 units of `2⁻²⁴`); the bound leaves room for `f64::exp`'s own
/// error.
const EXP_REL: f64 = 1e-7;

/// `eˣ` in single precision, for the screen: within [`EXP_REL`] relative
/// error of `eˣ` on `[−87, 0]`, 0 below −87 and NaN for NaN. It has no
/// table and no branch, so the block loop evaluates it at vector width.
///
/// `x = k·ln 2 + r`: adding `1.5·2²³` to `x·log₂e` rounds it to the
/// integer `k` and leaves `k` in the sum's low mantissa bits. `r` comes
/// from `x` by Cody–Waite: `LN2_HI` has 15 trailing zero bits, so
/// `k·LN2_HI` (`|k| ≤ 126`) and the subtraction from `x` are exact, and
/// `|r| ≤ 0.3466`. `eʳ` is `1 + r + r²/2 + c₃r³ + … + c₆r⁶`, a Chebyshev
/// fit of degree 6 whose own error is 1e-8 relative, evaluated by
/// Estrin's scheme with no fused multiply-add. `2ᵏ` is `k + 127` shifted
/// into the exponent field; the shift drops the sum's own exponent bits.
/// Down to −87 the result stays normal. Below it the biased exponent could
/// leave its field, so a select (not `f32::max`, which drops NaN) zeroes
/// those lanes, where `eˣ < 2⁻¹²⁵`.
#[inline(always)]
fn exp32(x: f32) -> f32 {
    const SHIFT: f32 = 12_582_912.0;
    // ln 2 split in two: the high part has 15 trailing zero bits.
    const LN2_HI: f32 = f32::from_bits(0x3f31_8000);
    const LN2_LO: f32 = f32::from_bits(0xb95e_8083);
    // c₃ to c₆ (c₀ = c₁ = 1 and c₂ = 1/2 are exact).
    const C3: f32 = f32::from_bits(0x3e2a_aa3e);
    const C4: f32 = f32::from_bits(0x3d2a_aa74);
    const C5: f32 = f32::from_bits(0x3c09_1edd);
    const C6: f32 = f32::from_bits(0x3ab6_a1a7);
    let y = x * std::f32::consts::LOG2_E + SHIFT;
    let k = y - SHIFT;
    let r = (x - k * LN2_HI) - k * LN2_LO;
    let r2 = r * r;
    let p = 1.0 + (r + ((0.5 + C3 * r) * r2 + ((C4 + C5 * r) + C6 * r2) * (r2 * r2)));
    let two_k = f32::from_bits(y.to_bits().wrapping_add(127) << 23);
    let e = p * two_k;
    if x < -87.0 {
        0.0
    } else {
        e
    }
}

/// Floor on the posterior variance.
const VARIANCE_FLOOR: f64 = 1e-12;

/// The exact pass's scratch for one tile: the `n × TILE` k* columns and
/// the candidates' coordinates, both interleaved (`[j * TILE + g]` is
/// entry `j` of lane `g`).
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
    /// kernel columns, `σ_f² · exp(−d²/2ℓ²)`. A short group names its last
    /// candidate again in the spare lanes, whose outputs the caller drops.
    /// Each lane sums its squared distance in `Kernel::eval`'s order (terms
    /// are never negative, so the zero start matches `sum`'s), so every
    /// entry is bitwise [`Kernel::eval`]'s.
    #[inline(always)]
    fn fill(&mut self, gp: &GaussianProcess, xs: &[f64], lane: impl Fn(usize) -> usize) {
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
        for slot in &mut self.k {
            *slot = gp.kernel.signal_variance * slot.exp();
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
    fn exp32_tracks_libm_and_keeps_nan() {
        // A dense grid over [−87, 0], the values that sit on a reduction
        // boundary (k·ln 2 and half-way between), the last thousand `f32`
        // above the cutoff and magnitudes down to the subnormals.
        let grid = (0..=870_000).map(|i| -(i as f32) * 1e-4);
        let edges = (0..=126).flat_map(|k| {
            let x = -(k as f32) * std::f32::consts::LN_2;
            [x, x - 0.5 * std::f32::consts::LN_2]
        });
        let cutoff = (-87.0f32).to_bits();
        let near_cutoff = (cutoff - 1000..=cutoff).map(f32::from_bits);
        let tiny = (0..150).map(|p| -(2.0f32).powi(-p));
        for x in grid.chain(edges).chain(near_cutoff).chain(tiny) {
            if x < -87.0 {
                continue;
            }
            let (got, want) = (f64::from(exp32(x)), f64::from(x).exp());
            assert!(
                ((got - want) / want).abs() <= EXP_REL,
                "exp({x}): {got} vs {want}"
            );
        }
        assert_eq!(exp32(0.0), 1.0);
        assert_eq!(exp32(-0.0), 1.0);
        let below = f32::from_bits(cutoff + 1);
        for x in [below, -87.5, -100.0, -1e30, f32::MIN, f32::NEG_INFINITY] {
            assert_eq!(exp32(x), 0.0, "exp({x})");
        }
        // Every NaN payload, of either sign.
        for bits in 0x7f80_0001u32..=0x7fff_ffff {
            for sign in [0, 0x8000_0000] {
                let x = f32::from_bits(bits | sign);
                assert!(exp32(x).is_nan(), "exp({bits:#x})");
            }
        }
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
