//! Sample-set and windowed statistics.
//!
//! The NoStop policies are statistical: the pause rule compares the standard
//! deviation of the N best delays against a threshold S (§5.3.5), and the
//! reset rule watches the standard deviation of recent input rates (§5.5).
//! Both are built on the utilities here; the experiment reports summarize
//! their per-seed numbers with [`summarize`].

use std::collections::VecDeque;

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

/// Summarize a slice in one pass with Welford's update, which stays
/// numerically stable where the naive `Σx²/n − mean²` cancels. An empty
/// slice summarizes to all zeros, and fewer than two samples have σ = 0.
pub fn summarize(xs: &[f64]) -> Summary {
    let (mut mean, mut m2) = (0.0, 0.0);
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    for (i, &x) in xs.iter().enumerate() {
        let delta = x - mean;
        mean += delta / (i + 1) as f64;
        m2 += delta * (x - mean);
        min = min.min(x);
        max = max.max(x);
    }
    let n = xs.len();
    if n == 0 {
        return Summary::default();
    }
    Summary {
        n: n as u64,
        mean,
        std_dev: if n < 2 { 0.0 } else { (m2 / n as f64).sqrt() },
        min,
        max,
    }
}

/// Mean of a slice (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
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

    /// Two-pass reference: the mean, then the population σ around it.
    fn two_pass(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let m = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n;
        (m, var.sqrt())
    }

    #[test]
    fn summarize_matches_two_pass() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = summarize(&xs);
        let (m, sd) = two_pass(&xs);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12 && (s.mean - m).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12 && (s.std_dev - sd).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn summarize_empty_and_single() {
        assert_eq!(summarize(&[]), Summary::default());
        let one = Summary {
            n: 1,
            mean: 3.5,
            std_dev: 0.0,
            min: 3.5,
            max: 3.5,
        };
        assert_eq!(summarize(&[3.5]), one);
    }

    #[test]
    fn rolling_window_evicts_oldest() {
        let mut r = RollingStats::new(3);
        for x in [1.0, 2.0, 3.0, 4.0] {
            r.push(x);
        }
        assert_eq!(r.len(), 3);
        assert!((r.mean() - 3.0).abs() < 1e-12);
        let (_, expect) = two_pass(&[2.0, 3.0, 4.0]);
        assert!((r.std_dev() - expect).abs() < 1e-9);
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
            let (m, sd) = two_pass(&xs);
            assert!((r.mean() - m).abs() < 1e-9);
            assert!((r.std_dev() - sd).abs() < 1e-7);
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
