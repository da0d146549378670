//! Online and windowed statistics.
//!
//! The NoStop policies are statistical: the pause rule compares the standard
//! deviation of the N best delays against a threshold S (§5.3.5), and the
//! reset rule watches the standard deviation of recent input rates (§5.5).
//! Both are built on the utilities here.

use std::collections::VecDeque;

/// Streaming mean/variance via Welford's algorithm — numerically stable and
/// O(1) per sample.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold one sample in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples folded in.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Maximum sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Snapshot as a [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            n: self.n,
            mean: self.mean(),
            std_dev: self.std_dev(),
            min: self.min().unwrap_or(0.0),
            max: self.max().unwrap_or(0.0),
        }
    }
}

/// A compact summary of a sample set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples.
    pub n: u64,
    /// Sample mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

/// Summarize a slice in one pass.
pub fn summarize(xs: &[f64]) -> Summary {
    let mut w = Welford::new();
    for &x in xs {
        w.push(x);
    }
    w.summary()
}

/// Mean of a slice (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation of a slice.
pub fn std_dev(xs: &[f64]) -> f64 {
    summarize(xs).std_dev
}

/// Linear-interpolated percentile (`q` in `[0, 100]`) of an unsorted slice.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let q = q.clamp(0.0, 100.0) / 100.0;
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Fixed-capacity rolling window with O(1) mean/variance queries.
///
/// Used for the input-rate reset rule: push the observed rate of every batch
/// and compare `std_dev()` against `threshold_speed`.
#[derive(Debug, Clone)]
pub struct RollingStats {
    cap: usize,
    buf: VecDeque<f64>,
    sum: f64,
    sum_sq: f64,
}

impl RollingStats {
    /// A window holding at most `cap` samples (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "window capacity must be at least 1");
        RollingStats {
            cap,
            buf: VecDeque::with_capacity(cap),
            sum: 0.0,
            sum_sq: 0.0,
        }
    }

    /// Push a sample, evicting the oldest when full.
    pub fn push(&mut self, x: f64) {
        if self.buf.len() == self.cap {
            if let Some(old) = self.buf.pop_front() {
                self.sum -= old;
                self.sum_sq -= old * old;
            }
        }
        self.buf.push_back(x);
        self.sum += x;
        self.sum_sq += x * x;
    }

    /// Samples currently in the window.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when the window has no samples.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Mean of the windowed samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.buf.is_empty() {
            0.0
        } else {
            self.sum / self.buf.len() as f64
        }
    }

    /// Population standard deviation of the windowed samples.
    pub fn std_dev(&self) -> f64 {
        let n = self.buf.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.sum / n as f64;
        // Guard against tiny negative values from float cancellation.
        let var = (self.sum_sq / n as f64 - mean * mean).max(0.0);
        var.sqrt()
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<f64> {
        self.buf.back().copied()
    }

    /// Iterate over the windowed samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.buf.iter().copied()
    }

    /// Drop all samples.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.sum = 0.0;
        self.sum_sq = 0.0;
    }
}

/// Exponentially weighted moving average.
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Smoothing factor `alpha` in `(0, 1]`; larger tracks faster.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma { alpha, value: None }
    }

    /// Fold a sample in and return the updated average.
    pub fn push(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(prev) => prev + self.alpha * (x - prev),
        };
        self.value = Some(v);
        v
    }

    /// Current average, if any sample has been seen.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Forget all history.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = summarize(&xs);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn welford_empty_and_single() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.std_dev(), 0.0);
        assert_eq!(w.min(), None);
        let mut w = Welford::new();
        w.push(3.5);
        assert_eq!(w.mean(), 3.5);
        assert_eq!(w.std_dev(), 0.0);
        assert_eq!(w.min(), Some(3.5));
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        assert_eq!(percentile(&xs, 50.0), Some(2.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn rolling_window_evicts_oldest() {
        let mut r = RollingStats::new(3);
        for x in [1.0, 2.0, 3.0, 4.0] {
            r.push(x);
        }
        assert_eq!(r.len(), 3);
        assert!((r.mean() - 3.0).abs() < 1e-12);
        let expect = std_dev(&[2.0, 3.0, 4.0]);
        assert!((r.std_dev() - expect).abs() < 1e-9);
        assert_eq!(r.last(), Some(4.0));
    }

    #[test]
    fn rolling_window_matches_batch_stats() {
        let mut r = RollingStats::new(50);
        let mut rng = crate::rng::SimRng::seed_from_u64(11);
        let mut tail = VecDeque::new();
        for _ in 0..500 {
            let x = rng.uniform(0.0, 100.0);
            r.push(x);
            tail.push_back(x);
            if tail.len() > 50 {
                tail.pop_front();
            }
            let xs: Vec<f64> = tail.iter().copied().collect();
            assert!((r.mean() - mean(&xs)).abs() < 1e-9);
            assert!((r.std_dev() - std_dev(&xs)).abs() < 1e-7);
        }
    }

    #[test]
    fn rolling_clear_resets() {
        let mut r = RollingStats::new(4);
        r.push(10.0);
        r.push(20.0);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.std_dev(), 0.0);
    }

    #[test]
    fn ewma_tracks_constant_input() {
        let mut e = Ewma::new(0.3);
        assert_eq!(e.value(), None);
        for _ in 0..100 {
            e.push(7.0);
        }
        assert!((e.value().unwrap() - 7.0).abs() < 1e-12);
        e.reset();
        assert_eq!(e.value(), None);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rolling_zero_capacity_panics() {
        let _ = RollingStats::new(0);
    }
}
