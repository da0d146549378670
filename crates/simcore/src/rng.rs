//! Seeded randomness for reproducible experiments.
//!
//! [`SimRng`] is a self-contained deterministic generator (xoshiro256++
//! seeded through SplitMix64 — no external dependencies, so the workspace
//! builds hermetically offline) with the distributions this workspace
//! needs and deterministic *stream forking*: every subsystem (receiver
//! noise, task noise, SPSA perturbations, workload iteration counts, …)
//! forks its own independent stream from one experiment seed, so adding an
//! RNG consumer to one subsystem never perturbs another.

use std::sync::OnceLock;

/// SplitMix64 finalizer — used to derive well-mixed child seeds and to
/// expand one `u64` seed into the generator's 256-bit state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Number of equal-area layers in the normal ziggurat.
const ZIG_LAYERS: usize = 256;

/// Where the ziggurat's base layer hands off to the exact tail sampler.
/// This is the canonical 256-layer split point for `exp(-x²/2)`, quoted at
/// full published precision (the trailing digits round into the f64).
#[allow(clippy::excessive_precision)]
const ZIG_R: f64 = 3.654152885361008796;

/// Precomputed ziggurat layer boundaries for the standard normal.
///
/// Layer `k` (for `k ≥ 1`) is the rectangle `[0, x[k-1]] × [y[k-1], y[k]]`:
/// `y` ascends from `exp(-R²/2)` to `1` at the mode, and `x[k] = f⁻¹(y[k])`
/// descends from `R` to `0`. Layers have equal area by construction, so
/// picking a layer uniformly and accepting against the true density is an
/// exact sampler, not an approximation.
struct ZigTables {
    /// Fast-accept pair per layer: `(threshold, width)`. A draw whose
    /// 53-bit uniform `ui` satisfies `ui < threshold` accepts immediately
    /// with `x = ui · width`; the threshold is `floor(2^53 · x[k]/x[k-1])`
    /// (base layer: `floor(2^53 · R/base_width)`), conservatively rounded
    /// down so borderline draws fall through to the exact wedge/tail
    /// checks. One 16-byte load and an integer compare cover ~98% of
    /// draws.
    hot: [(u64, f64); ZIG_LAYERS],
    x: [f64; ZIG_LAYERS],
    y: [f64; ZIG_LAYERS],
}

fn zig_tables() -> &'static ZigTables {
    static TABLES: OnceLock<ZigTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let f = |x: f64| (-0.5 * x * x).exp();
        // Per-layer area: base rectangle plus the tail mass beyond ZIG_R,
        // with the tail integral evaluated by composite Simpson (the
        // integrand decays below 1e-30 well inside the chosen span).
        let tail = {
            let (a, span, n) = (ZIG_R, 10.0, 1 << 14);
            let h = span / n as f64;
            let mut acc = f(a) + f(a + span);
            for i in 1..n {
                acc += f(a + i as f64 * h) * if i % 2 == 1 { 4.0 } else { 2.0 };
            }
            acc * h / 3.0
        };
        let v = ZIG_R * f(ZIG_R) + tail;
        let mut x = [0.0; ZIG_LAYERS];
        let mut y = [0.0; ZIG_LAYERS];
        x[0] = ZIG_R;
        y[0] = f(ZIG_R);
        for k in 1..ZIG_LAYERS {
            y[k] = y[k - 1] + v / x[k - 1];
            x[k] = if y[k] < 1.0 {
                (-2.0 * y[k].ln()).sqrt()
            } else {
                0.0
            };
        }
        // With the canonical R the stack closes at the mode to ~1e-13; pin
        // the top edge so the final wedge interval is exactly [y[254], 1].
        debug_assert!(
            (y[ZIG_LAYERS - 1] - 1.0).abs() < 1e-9,
            "ziggurat layers failed to close at the mode: {}",
            y[ZIG_LAYERS - 1]
        );
        y[ZIG_LAYERS - 1] = 1.0;
        x[ZIG_LAYERS - 1] = 0.0;
        // Pseudo-width of the base layer: its area divided by its height,
        // so a uniform draw across it lands in the tail with the right
        // probability.
        let base_width = v / y[0];
        let two53 = (1u64 << 53) as f64;
        let mut hot = [(0u64, 0.0); ZIG_LAYERS];
        hot[0] = ((two53 * (ZIG_R / base_width)) as u64, base_width / two53);
        for k in 1..ZIG_LAYERS {
            // x[255] = 0 makes the top layer's threshold 0: every draw
            // there takes the wedge path, as it must.
            hot[k] = ((two53 * (x[k] / x[k - 1])) as u64, x[k - 1] / two53);
        }
        ZigTables { hot, x, y }
    })
}

/// `2^(j/32)` for `j in 0..32`, stored as raw IEEE bits — the
/// fractional-power table for [`fast_exp`]. Bits rather than values so the
/// integer exponent `e` folds into the entry with one add (see there).
fn exp2_frac_table() -> &'static [u64; 32] {
    static TABLE: OnceLock<[u64; 32]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0; 32];
        for (j, slot) in t.iter_mut().enumerate() {
            *slot = (j as f64 / 32.0 * std::f64::consts::LN_2).exp().to_bits();
        }
        t
    })
}

/// `32 / ln 2`: scales `x` so the rounded value indexes 2^(1/32) steps.
#[allow(clippy::excessive_precision)]
const INV_LN2_32: f64 = 46.166_241_308_446_828;
/// `ln 2 / 32` in two parts (high part has trailing zero bits, so
/// `k * LN2_32_HI` is exact for the |k| < 2^16 this path produces). Both
/// halves are quoted at full published precision and round into the f64.
#[allow(clippy::excessive_precision)]
const LN2_32_HI: f64 = 6.931_471_803_691_238_164_90e-1 / 32.0;
#[allow(clippy::excessive_precision)]
const LN2_32_LO: f64 = 1.908_214_929_270_587_700_02e-10 / 32.0;

/// `e^x` via table-driven argument reduction: `x = k·(ln2/32) + r`, so
/// `e^x = 2^(k/32) · e^r` with `|r| ≤ ln2/64` small enough for a degree-5
/// Taylor polynomial (error < 3·10⁻¹⁵ relative — about a dozen ulps).
///
/// The simulator draws a multiplicative log-normal noise factor per task,
/// and `exp` was the single hottest libm call on the DES hot path; this
/// runs ~3× faster. Used only where the caller samples a *stochastic*
/// model quantity (noise factors), never where exactness to the last ulp
/// matters (the ziggurat wedge test keeps libm `exp`).
#[inline]
fn fast_exp(x: f64) -> f64 {
    fast_exp_with(x, exp2_frac_table())
}

/// [`fast_exp`] against a pre-fetched fractional-power table — lets burst
/// samplers hoist the `OnceLock` load out of their loops.
#[inline]
fn fast_exp_with(x: f64, frac_bits: &[u64; 32]) -> f64 {
    // Near overflow/underflow, or NaN: defer to libm. One compare covers
    // both guards — NaN fails `<=` — instead of two predicted branches.
    // The negated form is load-bearing: `x.abs() > 500.0` is false for NaN.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(x.abs() <= 500.0) {
        return x.exp();
    }
    // Round-to-nearest via the 1.5·2^52 magic constant (exact for the
    // |x·INV_LN2_32| ≤ 2^15 this path sees) — `f64::round` is a libm call
    // on baseline x86-64 and would cost as much as the exp it replaces.
    const MAGIC: f64 = 6_755_399_441_055_744.0; // 1.5 · 2^52
    let y = x * INV_LN2_32 + MAGIC;
    // The magic sum's low mantissa bits ARE the rounded integer in two's
    // complement (|k| < 2^31 here) — reading them skips the int conversion.
    let ki = y.to_bits() as i32 as i64;
    let k = y - MAGIC;
    let r = (x - k * LN2_32_HI) - k * LN2_32_LO;
    // Degree-5 Taylor in Estrin form: r² and r⁴ compute in parallel, so the
    // dependency chain is ~3 multiplies deep instead of Horner's 5 — the
    // polynomial is the latency bottleneck of the noise-sampling burst.
    let r2 = r * r;
    let r4 = r2 * r2;
    let p = (1.0 + r) + r2 * (0.5 + r * (1.0 / 6.0)) + r4 * (1.0 / 24.0 + r * (1.0 / 120.0));
    // ki = 32·e + j with j in [0, 32): two's-complement mask and arithmetic
    // shift agree on that decomposition for negative ki too.
    let j = (ki & 31) as usize;
    let e = ki >> 5;
    // 2^(j/32) lies in [1, 2), so adding `e` to its exponent field is an
    // exact multiply by 2^e — and power-of-two scaling commutes with
    // rounding, so `(frac·2^e)·p` equals the naive `frac·p·2^e` bit for
    // bit while saving a multiply and the separate scale construction.
    let fs = f64::from_bits(frac_bits[j].wrapping_add((e as u64) << 52));
    fs * p
}

/// A deterministic random source with simulation-oriented helpers.
#[derive(Debug, Clone)]
pub struct SimRng {
    /// xoshiro256++ state.
    s: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Create a generator from an experiment seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        // Expand the seed with sequential SplitMix64 outputs — the
        // initialization xoshiro's authors recommend.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        SimRng { s, seed }
    }

    /// The seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The raw xoshiro256++ state words — a position fingerprint.
    ///
    /// Two generators with equal state (and seed) produce identical future
    /// streams, so comparing states proves two simulations consumed
    /// exactly the same draws. Read-only: state can only advance through
    /// the drawing methods.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Derive an independent child stream identified by `stream`.
    ///
    /// Forking is a pure function of `(seed, stream)` — it does not consume
    /// state from `self` — so subsystems can be initialized in any order.
    pub fn fork(&self, stream: u64) -> SimRng {
        let child = splitmix64(self.seed ^ splitmix64(stream.wrapping_add(0xA5A5_5A5A_1234_5678)));
        SimRng::seed_from_u64(child)
    }

    /// The next raw 64-bit output (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` or `false` with equal probability.
    fn gen_bool(&mut self) -> bool {
        // Use the top bit: xoshiro++'s high bits are its best-mixed.
        self.next_u64() >> 63 == 1
    }

    /// Uniform in `[lo, hi)`. Returns `lo` when the range is empty or inverted.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        let x = lo + self.gen_f64() * (hi - lo);
        // Guard the open upper bound against rounding.
        if x >= hi {
            lo.max(hi - (hi - lo) * f64::EPSILON)
        } else {
            x
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        let span = hi - lo + 1; // hi > lo, so this cannot overflow to 0
        if span == 0 {
            // `[0, u64::MAX]`: every output is in range.
            return self.next_u64();
        }
        // Rejection-free multiply-shift (Lemire); the tiny modulo bias of
        // the plain multiply is corrected by rejecting the biased region.
        let threshold = span.wrapping_neg() % span;
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(span as u128);
            if (m as u64) >= threshold {
                return lo + (m >> 64) as u64;
            }
        }
    }

    /// A standard-normal draw via the ziggurat method.
    ///
    /// One `u64` covers layer choice, sign, and position in the common case
    /// (~98% of draws accept without touching `exp`); wedge and tail
    /// rejection use the exact density, so the distribution is the true
    /// standard normal — only faster to sample than Box–Muller, which paid
    /// `ln`+`sqrt`+`sin`/`cos` on every pair.
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        let t = zig_tables();
        self.standard_normal_with(t)
    }

    /// [`standard_normal`](Self::standard_normal) against a pre-fetched
    /// table reference — lets burst samplers hoist the `OnceLock` load out
    /// of their loops.
    #[inline]
    fn standard_normal_with(&mut self, t: &ZigTables) -> f64 {
        loop {
            let bits = self.next_u64();
            let k = (bits & 0xFF) as usize;
            // Branchless sign: bit 8 of the draw, moved onto the f64 sign
            // bit (bit 63). The magnitude below is always non-negative and
            // finite, so the XOR is exactly IEEE negation — bit-identical
            // to `if neg { -x }` — without a 50/50 branch the predictor
            // can only ever get half right.
            let sign = (bits & 0x100) << 55;
            // 53-bit uniform integer from the bits not spent on layer/sign.
            let ui = bits >> 11;
            let (thresh, w) = t.hot[k];
            // Fast accept: an integer compare that doesn't wait on any
            // floating-point latency. `ui < thresh` implies the draw lands
            // strictly inside the layer's rectangle core (or, for the base
            // layer, left of ZIG_R), so no density check is needed.
            if ui < thresh {
                let x = ui as f64 * w;
                return f64::from_bits(x.to_bits() ^ sign);
            }
            if let Some(x) = self.standard_normal_slow(t, k, ui as f64 * w) {
                return f64::from_bits(x.to_bits() ^ sign);
            }
        }
    }

    /// Wedge/tail path of the ziggurat — exact density checks for the ~2%
    /// of draws the hot table's conservative threshold doesn't cover.
    #[cold]
    fn standard_normal_slow(&mut self, t: &ZigTables, k: usize, x: f64) -> Option<f64> {
        if k == 0 {
            // Base layer: uniform over area/height; beyond ZIG_R this
            // falls through to Marsaglia's exact tail sampler.
            if x < ZIG_R {
                return Some(x);
            }
            loop {
                let ex = -(1.0 - self.gen_f64()).ln() / ZIG_R;
                let ey = -(1.0 - self.gen_f64()).ln();
                if ey + ey > ex * ex {
                    return Some(ZIG_R + ex);
                }
            }
        }
        if x >= t.x[k] {
            // Wedge: accept against the true density.
            let y = t.y[k - 1] + self.gen_f64() * (t.y[k] - t.y[k - 1]);
            if y >= (-0.5 * x * x).exp() {
                return None;
            }
        }
        Some(x)
    }

    /// A normal draw with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev.max(0.0) * self.standard_normal()
    }

    /// A log-normal draw: `exp(N(mu, sigma))`.
    ///
    /// With `mu = -sigma^2 / 2` the draw has unit mean, which is how the
    /// simulator models multiplicative task-time noise without bias. Uses
    /// `fast_exp` — exact to ~3·10⁻¹⁵ relative, a dozen ulps — because
    /// this is the per-task hot distribution.
    #[inline]
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        fast_exp(self.normal(mu, sigma))
    }

    /// Fill a pre-sized slice with log-normal draws, one per element.
    ///
    /// Draw-for-draw identical to one [`lognormal`](Self::lognormal) call
    /// per element — same stream consumption, same arithmetic — but the
    /// ziggurat and `fast_exp` table references are fetched once for the
    /// whole burst and the loop body inlines end to end, instead of paying
    /// a cross-crate call and two `OnceLock` loads per draw. The DES task
    /// loop draws its per-stage noise through this path, into caller-owned
    /// storage (an arena lane) with no length bookkeeping at all.
    pub fn fill_lognormal_into(&mut self, mu: f64, sigma: f64, out: &mut [f64]) {
        let t = zig_tables();
        let frac = exp2_frac_table();
        let s = sigma.max(0.0);
        // Indexed writes into pre-sized storage: no per-element capacity
        // check or length bump in the hot loop. Two passes: the normal
        // draws first (their throughput is bound by the generator's serial
        // state chain), then the exp transform over contiguous memory
        // (pure floating point, pipelines freely) — fusing them would
        // chain the polynomial's latency onto every draw.
        for slot in out.iter_mut() {
            *slot = self.standard_normal_with(t);
        }
        for slot in out.iter_mut() {
            *slot = fast_exp_with(mu + s * *slot, frac);
        }
    }

    /// A unit-mean multiplicative noise factor with coefficient `sigma`.
    #[inline]
    pub fn noise_factor(&mut self, sigma: f64) -> f64 {
        if sigma <= 0.0 {
            return 1.0;
        }
        self.lognormal(-sigma * sigma / 2.0, sigma)
    }

    /// An exponential draw with the given rate (mean `1/rate`).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u: f64 = 1.0 - self.gen_f64();
        -u.ln() / rate
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.gen_f64() < p.clamp(0.0, 1.0)
    }

    /// A symmetric Bernoulli ±1 draw — the SPSA perturbation distribution.
    pub fn bernoulli_pm1(&mut self) -> f64 {
        if self.gen_bool() {
            1.0
        } else {
            -1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forked_streams_are_independent_of_parent_state() {
        let parent = SimRng::seed_from_u64(7);
        let mut used = SimRng::seed_from_u64(7);
        let _ = used.next_u64(); // consume parent state
        let mut f1 = parent.fork(3);
        let mut f2 = used.fork(3);
        for _ in 0..50 {
            assert_eq!(f1.next_u64(), f2.next_u64());
        }
    }

    #[test]
    fn distinct_streams_differ() {
        let parent = SimRng::seed_from_u64(7);
        let a: Vec<u64> = {
            let mut r = parent.fork(1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = parent.fork(2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, b);
    }

    /// `fast_exp` must agree with libm to a few ulps across the full range
    /// the noise path produces, and defer to libm outside it.
    #[test]
    fn fast_exp_matches_libm() {
        let mut r = SimRng::seed_from_u64(9);
        for x in (0..200_000)
            .map(|_| r.uniform(-40.0, 40.0))
            .chain([1.0, -1.0])
        {
            let (fast, exact) = (fast_exp(x), x.exp());
            let rel = ((fast - exact) / exact).abs();
            assert!(rel < 1e-13, "fast_exp({x}) = {fast}, libm {exact}");
        }
        // Exact-agreement cases: r = 0 hits the table entry directly, and
        // the guard band defers to libm outright.
        for x in [0.0, -0.0, 700.0, -745.0, f64::NAN, f64::INFINITY] {
            let (fast, exact) = (fast_exp(x), x.exp());
            assert!(
                fast == exact || (fast.is_nan() && exact.is_nan()),
                "fast_exp({x}) = {fast}, libm {exact}"
            );
        }
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = SimRng::seed_from_u64(123);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "std {}", var.sqrt());
    }

    /// The ziggurat's wedge and tail paths must reproduce the true normal
    /// tail probabilities, not just the bulk moments.
    #[test]
    fn normal_tail_mass_matches_theory() {
        let mut r = SimRng::seed_from_u64(31);
        let n = 400_000;
        let (mut gt1, mut gt3, mut max) = (0u64, 0u64, 0.0f64);
        for _ in 0..n {
            let z = r.standard_normal();
            max = max.max(z.abs());
            if z > 1.0 {
                gt1 += 1;
            }
            if z.abs() > 3.0 {
                gt3 += 1;
            }
        }
        let p1 = gt1 as f64 / n as f64;
        let p3 = gt3 as f64 / n as f64;
        assert!((p1 - 0.1587).abs() < 0.005, "P(z>1) = {p1}");
        assert!((p3 - 0.0027).abs() < 0.001, "P(|z|>3) = {p3}");
        // The tail sampler must produce draws beyond the ziggurat base.
        assert!(max > 3.7, "max |z| = {max}");
    }

    /// The burst sampler must consume the stream and produce values
    /// exactly as per-draw calls do — the DES relies on this to keep
    /// simulated traces identical whichever path draws the noise.
    #[test]
    fn fill_lognormal_matches_per_draw_calls() {
        let (mu, sigma) = (-0.02, 0.2);
        let mut burst_rng = SimRng::seed_from_u64(11);
        let mut burst = vec![0.0; 10_000];
        burst_rng.fill_lognormal_into(mu, sigma, &mut burst);
        let mut single_rng = SimRng::seed_from_u64(11);
        let single: Vec<f64> = (0..10_000)
            .map(|_| single_rng.lognormal(mu, sigma))
            .collect();
        assert_eq!(burst, single);
        assert_eq!(burst_rng.next_u64(), single_rng.next_u64());
    }

    #[test]
    fn noise_factor_has_unit_mean() {
        let mut r = SimRng::seed_from_u64(9);
        let n = 200_000;
        let mean = (0..n).map(|_| r.noise_factor(0.3)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
        assert_eq!(r.noise_factor(0.0), 1.0);
    }

    #[test]
    fn bernoulli_pm1_is_balanced_and_unit_magnitude() {
        let mut r = SimRng::seed_from_u64(77);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let d = r.bernoulli_pm1();
            assert!(d == 1.0 || d == -1.0);
            sum += d;
        }
        assert!((sum / n as f64).abs() < 0.01);
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut r = SimRng::seed_from_u64(5);
        let n = 100_000;
        let mean = (0..n).map(|_| r.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn uniform_edge_cases() {
        let mut r = SimRng::seed_from_u64(1);
        assert_eq!(r.uniform(3.0, 3.0), 3.0);
        assert_eq!(r.uniform(5.0, 2.0), 5.0);
        assert_eq!(r.uniform_u64(9, 9), 9);
        for _ in 0..1000 {
            let x = r.uniform(2.0, 4.0);
            assert!((2.0..4.0).contains(&x));
        }
    }

    #[test]
    fn uniform_u64_covers_the_inclusive_range() {
        let mut r = SimRng::seed_from_u64(3);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            let x = r.uniform_u64(2, 7);
            assert!((2..=7).contains(&x));
            seen[(x - 2) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values reachable: {seen:?}");
    }

    /// The guard edge at |x| = 500 and the extremes beyond it: both sides
    /// of the branch agree with libm, the deferred range is bit-exact
    /// (overflow to ∞, underflow through subnormals to zero), and inputs
    /// that land on half-bucket rounding ties stay within tolerance.
    #[test]
    fn fast_exp_boundary_and_extreme_inputs() {
        let inside = f64::from_bits(500.0f64.to_bits() - 1);
        let outside = f64::from_bits(500.0f64.to_bits() + 1);
        for x in [
            500.0,
            -500.0,
            inside,
            -inside,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324, // smallest subnormal input
            499.999_999,
            -499.999_999,
        ] {
            let (fast, exact) = (fast_exp(x), x.exp());
            let rel = ((fast - exact) / exact).abs();
            assert!(rel < 1e-13, "fast_exp({x}) = {fast}, libm {exact}");
        }
        // Just past the guard and far beyond: the deferral must be
        // bit-exact with libm, including overflow to +∞, graceful
        // underflow into subnormals, and flush to zero.
        for x in [
            outside,
            -outside,
            700.0,
            709.9,  // largest finite exp inputs
            710.0,  // overflows to +inf
            -709.0, // subnormal result
            -745.1, // smallest subnormal results
            -746.0, // underflows to zero
            -1e308,
            1e308,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(
                fast_exp(x).to_bits(),
                x.exp().to_bits(),
                "deferred fast_exp({x}) not bit-exact"
            );
        }
        // Rounding ties of the bucket decomposition: x = (2k+1)·ln2/64
        // puts x·32/ln2 exactly between integers, the worst case for the
        // magic-constant round-to-nearest.
        for k in -80i64..80 {
            let x = (2 * k + 1) as f64 * std::f64::consts::LN_2 / 64.0;
            let (fast, exact) = (fast_exp(x), x.exp());
            let rel = ((fast - exact) / exact).abs();
            assert!(rel < 1e-13, "tie fast_exp({x}) = {fast}, libm {exact}");
        }
    }

    /// Burst-length edge cases: a one-draw burst equals the per-draw call
    /// and writes only its own slot, and a long burst still matches
    /// per-draw exactly. (The empty burst is covered below.)
    #[test]
    fn fill_lognormal_burst_length_edges() {
        // One slot: holds exactly the per-draw value, leaves the prefix
        // alone and the stream where the per-draw call would.
        let mut r = SimRng::seed_from_u64(5);
        let mut out = vec![1.0, 2.0, 0.0];
        let mut single = SimRng::seed_from_u64(5);
        let expect = single.lognormal(0.1, 0.3);
        r.fill_lognormal_into(0.1, 0.3, &mut out[2..]);
        assert_eq!(out, vec![1.0, 2.0, expect]);
        assert_eq!(r.state(), single.state());

        // A long burst matches per-draw element for element.
        let mut burst_rng = SimRng::seed_from_u64(6);
        let mut burst = vec![0.0; 4096];
        burst_rng.fill_lognormal_into(-0.02, 0.2, &mut burst);
        let mut per = SimRng::seed_from_u64(6);
        let singles: Vec<f64> = (0..4096).map(|_| per.lognormal(-0.02, 0.2)).collect();
        assert_eq!(burst, singles);
        assert_eq!(burst_rng.state(), per.state());
    }

    /// Slice-shaped edge cases: an empty slice draws nothing, and a zero
    /// (or negative, clamped) sigma still consumes one normal per slot —
    /// stream parity with the noisy path — while landing exactly on
    /// `exp(mu)`.
    #[test]
    fn fill_lognormal_into_empty_and_degenerate_sigma() {
        let mut r = SimRng::seed_from_u64(7);
        let before = r.state();
        let mut empty: [f64; 0] = [];
        r.fill_lognormal_into(0.0, 1.0, &mut empty);
        assert_eq!(r.state(), before);

        let mut out = [0.0; 8];
        r.fill_lognormal_into(0.25, 0.0, &mut out);
        for v in out {
            assert_eq!(v, fast_exp(0.25));
        }
        // Negative sigma clamps to zero: same values, same consumption.
        let mut neg = SimRng::seed_from_u64(7);
        let mut skip: [f64; 0] = [];
        neg.fill_lognormal_into(0.0, 1.0, &mut skip);
        let mut out_neg = [0.0; 8];
        neg.fill_lognormal_into(0.25, -3.0, &mut out_neg);
        assert_eq!(out, out_neg);
        assert_eq!(r.state(), neg.state());
    }
}
