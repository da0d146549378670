//! Time-series recording for experiment output.
//!
//! Each figure regenerator collects one or more [`TimeSeries`] and prints
//! them as aligned columns or CSV, mirroring the series plotted in the paper.

use crate::stats::{summarize, Summary};
use crate::time::SimTime;
use std::fmt::Write as _;

/// A named sequence of `(time, value)` samples.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    /// Series name (used as the column header).
    pub name: String,
    /// Samples in insertion order.
    pub points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// An empty series with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a sample at simulation instant `t`.
    pub fn push_at(&mut self, t: SimTime, value: f64) {
        self.points.push((t.as_secs_f64(), value));
    }

    /// Append a sample with an explicit x-coordinate (e.g. iteration index).
    pub fn push(&mut self, x: f64, value: f64) {
        self.points.push((x, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The y-values.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, v)| v).collect()
    }

    /// Statistical summary of the y-values.
    pub fn summary(&self) -> Summary {
        summarize(&self.values())
    }

    /// The final sample, if any.
    pub fn last(&self) -> Option<(f64, f64)> {
        self.points.last().copied()
    }

    /// Render as two-column CSV with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.points.len() * 24 + 16);
        let _ = writeln!(out, "x,{}", self.name);
        for &(x, y) in &self.points {
            let _ = writeln!(out, "{x},{y}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_summary() {
        let mut s = TimeSeries::new("delay");
        s.push(0.0, 10.0);
        s.push(1.0, 20.0);
        s.push_at(SimTime::from_secs_f64(2.0), 30.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.last(), Some((2.0, 30.0)));
        let sum = s.summary();
        assert_eq!(sum.n, 3);
        assert!((sum.mean - 20.0).abs() < 1e-12);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut s = TimeSeries::new("y");
        s.push(1.0, 2.0);
        let csv = s.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("x,y"));
        assert_eq!(lines.next(), Some("1,2"));
    }

    #[test]
    fn empty_series_is_safe() {
        let s = TimeSeries::new("empty");
        assert!(s.is_empty());
        assert_eq!(s.last(), None);
        assert_eq!(s.summary().n, 0);
        assert_eq!(s.to_csv(), "x,empty\n");
    }
}
