//! The configuration space and its scaling.
//!
//! Physical parameters live in heterogeneous units (seconds, executor
//! counts). The paper min–max normalizes every parameter into a common
//! range — `[1, 20]` in the experiments (§5.1, §6.2.1) — so a single gain
//! schedule steps all dimensions commensurately. Physical values are
//! quantized only at the system boundary: executor counts to integers,
//! batch intervals to a configurable step.

/// One tunable physical parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpec {
    /// Human-readable name (e.g. `"batch-interval-s"`).
    pub name: String,
    /// Physical lower bound (inclusive).
    pub min: f64,
    /// Physical upper bound (inclusive).
    pub max: f64,
    /// Quantization step applied when producing a physical value
    /// (e.g. `1.0` for executor counts, `0.1` s for intervals). Zero means
    /// continuous.
    pub quantum: f64,
}

impl ParamSpec {
    /// A new spec; panics unless `min < max` and `quantum ≥ 0`.
    pub fn new(name: impl Into<String>, min: f64, max: f64, quantum: f64) -> Self {
        assert!(min < max, "parameter range must be non-degenerate");
        assert!(quantum >= 0.0, "quantum must be non-negative");
        ParamSpec {
            name: name.into(),
            min,
            max,
            quantum,
        }
    }

    /// Snap a physical value to the quantization grid and clamp into range.
    pub fn quantize(&self, value: f64) -> f64 {
        let v = if self.quantum > 0.0 {
            (value / self.quantum).round() * self.quantum
        } else {
            value
        };
        v.clamp(self.min, self.max)
    }
}

/// A set of tunable parameters with a shared scaled optimization range.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigSpace {
    /// The physical parameters, in a fixed order. Index 0 is batch interval
    /// and index 1 is executor count in the paper's instantiation, but the
    /// space is generic in dimension (the paper's future work tunes more).
    pub params: Vec<ParamSpec>,
    /// The common scaled range `[lo, hi]` every parameter maps onto.
    pub scaled_lo: f64,
    /// Upper end of the scaled range.
    pub scaled_hi: f64,
}

impl ConfigSpace {
    /// A space over `params` scaled into `[scaled_lo, scaled_hi]`.
    pub fn new(params: Vec<ParamSpec>, scaled_lo: f64, scaled_hi: f64) -> Self {
        assert!(!params.is_empty(), "need at least one parameter");
        assert!(scaled_lo < scaled_hi, "scaled range must be non-degenerate");
        ConfigSpace {
            params,
            scaled_lo,
            scaled_hi,
        }
    }

    /// The paper's space (§6.2.1): batch interval ∈ [1, 40] s (0.1 s
    /// quantum — Spark intervals are millisecond-granular), executors
    /// ∈ [1, 20] (integer), both scaled into `[1, 20]`.
    pub fn paper_default() -> Self {
        ConfigSpace::new(
            vec![
                ParamSpec::new("batch-interval-s", 1.0, 40.0, 0.1),
                ParamSpec::new("num-executors", 1.0, 20.0, 1.0),
            ],
            1.0,
            20.0,
        )
    }

    /// The extended 8-knob space for high-dimensional tuning: the paper's
    /// two parameters followed by six further Spark-meaningful knobs, all
    /// mapped onto simulator mechanics by `spark-sim`'s `ExtendedConfig`.
    /// Dimension order is a stable contract — index 0/1 must stay batch
    /// interval/executors so the 2-knob controller and the extended arena
    /// share one physical-vector convention (`StreamConfig::from_physical`
    /// reads a prefix of it).
    pub fn extended() -> Self {
        ConfigSpace::new(
            vec![
                ParamSpec::new("batch-interval-s", 1.0, 40.0, 0.1),
                ParamSpec::new("num-executors", 1.0, 20.0, 1.0),
                ParamSpec::new("shuffle-partitions", 8.0, 256.0, 8.0),
                ParamSpec::new("memory-fraction", 0.2, 0.9, 0.05),
                ParamSpec::new("receiver-parallelism", 1.0, 8.0, 1.0),
                ParamSpec::new("block-interval-ms", 50.0, 1000.0, 50.0),
                ParamSpec::new("locality-wait-s", 0.0, 10.0, 0.5),
                ParamSpec::new("speculation-threshold", 1.1, 3.0, 0.1),
            ],
            1.0,
            20.0,
        )
    }

    /// Number of tunable dimensions.
    pub fn dim(&self) -> usize {
        self.params.len()
    }

    /// Map a physical vector into scaled space (min–max normalization).
    pub fn to_scaled(&self, physical: &[f64]) -> Vec<f64> {
        assert_eq!(physical.len(), self.dim(), "dimension mismatch");
        physical
            .iter()
            .zip(&self.params)
            .map(|(&v, p)| {
                let frac = ((v - p.min) / (p.max - p.min)).clamp(0.0, 1.0);
                self.scaled_lo + frac * (self.scaled_hi - self.scaled_lo)
            })
            .collect()
    }

    /// Map a scaled vector back to physical units, quantizing each
    /// parameter. Scaled inputs outside the range are clamped first
    /// (`checkBound`).
    pub fn to_physical(&self, scaled: &[f64]) -> Vec<f64> {
        assert_eq!(scaled.len(), self.dim(), "dimension mismatch");
        scaled
            .iter()
            .zip(&self.params)
            .map(|(&s, p)| {
                let frac =
                    ((s - self.scaled_lo) / (self.scaled_hi - self.scaled_lo)).clamp(0.0, 1.0);
                p.quantize(p.min + frac * (p.max - p.min))
            })
            .collect()
    }

    /// Clamp a scaled vector into the scaled box (the paper's `checkBound`).
    pub fn clamp_scaled(&self, scaled: &[f64]) -> Vec<f64> {
        scaled
            .iter()
            .map(|&s| s.clamp(self.scaled_lo, self.scaled_hi))
            .collect()
    }

    /// The scaled-space midpoint — the paper's initial point
    /// `θ_initial = {10, 10}` falls out of this for the default space.
    pub fn scaled_midpoint(&self) -> Vec<f64> {
        vec![(self.scaled_lo + self.scaled_hi) / 2.0; self.dim()]
    }

    /// Per-dimension lower bounds in scaled space (all equal by design).
    pub fn scaled_lower(&self) -> Vec<f64> {
        vec![self.scaled_lo; self.dim()]
    }

    /// Per-dimension upper bounds in scaled space.
    pub fn scaled_upper(&self) -> Vec<f64> {
        vec![self.scaled_hi; self.dim()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_shape() {
        let s = ConfigSpace::paper_default();
        assert_eq!(s.dim(), 2);
        assert_eq!(s.scaled_midpoint(), vec![10.5, 10.5]);
        assert_eq!(s.params[0].name, "batch-interval-s");
        assert_eq!(s.params[1].name, "num-executors");
    }

    #[test]
    fn extended_space_shape() {
        let s = ConfigSpace::extended();
        assert_eq!(s.dim(), 8);
        // The paper's two knobs stay at the front, with identical ranges.
        let paper = ConfigSpace::paper_default();
        assert_eq!(s.params[0], paper.params[0]);
        assert_eq!(s.params[1], paper.params[1]);
        // Every knob round-trips through scaling at its endpoints.
        let mins: Vec<f64> = s.params.iter().map(|p| p.min).collect();
        let maxs: Vec<f64> = s.params.iter().map(|p| p.max).collect();
        assert_eq!(s.to_physical(&s.to_scaled(&mins)), mins);
        assert_eq!(s.to_physical(&s.to_scaled(&maxs)), maxs);
        // Quantization respects each knob's grid at the midpoint.
        let mid = s.to_physical(&s.scaled_midpoint());
        assert_eq!(mid[2] % 8.0, 0.0, "shuffle partitions on the grid");
        assert_eq!(mid[4].fract(), 0.0, "receiver parallelism integral");
        assert_eq!(mid[5] % 50.0, 0.0, "block interval on the grid");
    }

    #[test]
    fn scaling_round_trips_at_grid_points() {
        let s = ConfigSpace::paper_default();
        // Executor counts are integers: every integer in [1,20] must
        // round-trip exactly.
        for e in 1..=20 {
            let phys = vec![10.0, e as f64];
            let back = s.to_physical(&s.to_scaled(&phys));
            assert_eq!(back[1], e as f64);
        }
        // Interval quantum 0.1 s.
        for i in [1.0, 5.5, 10.0, 39.9, 40.0] {
            let phys = vec![i, 10.0];
            let back = s.to_physical(&s.to_scaled(&phys));
            assert!((back[0] - i).abs() < 1e-9, "{i} -> {}", back[0]);
        }
    }

    #[test]
    fn endpoints_map_to_endpoints() {
        let s = ConfigSpace::paper_default();
        assert_eq!(s.to_scaled(&[1.0, 1.0]), vec![1.0, 1.0]);
        assert_eq!(s.to_scaled(&[40.0, 20.0]), vec![20.0, 20.0]);
        assert_eq!(s.to_physical(&[1.0, 1.0]), vec![1.0, 1.0]);
        assert_eq!(s.to_physical(&[20.0, 20.0]), vec![40.0, 20.0]);
    }

    #[test]
    fn out_of_range_inputs_are_clamped() {
        let s = ConfigSpace::paper_default();
        let phys = s.to_physical(&[-5.0, 100.0]);
        assert_eq!(phys, vec![1.0, 20.0]);
        let scaled = s.to_scaled(&[0.0, 50.0]);
        assert_eq!(scaled, vec![1.0, 20.0]);
        assert_eq!(s.clamp_scaled(&[0.5, 25.0]), vec![1.0, 20.0]);
    }

    #[test]
    fn quantization_snaps_to_grid() {
        let p = ParamSpec::new("execs", 1.0, 20.0, 1.0);
        assert_eq!(p.quantize(7.4), 7.0);
        assert_eq!(p.quantize(7.5), 8.0);
        assert_eq!(p.quantize(0.2), 1.0);
        assert_eq!(p.quantize(99.0), 20.0);
        let c = ParamSpec::new("cont", 0.0, 1.0, 0.0);
        assert_eq!(c.quantize(0.123456), 0.123456);
    }

    #[test]
    fn custom_three_dimensional_space() {
        // The paper's future work: more parameters. The space is generic.
        let s = ConfigSpace::new(
            vec![
                ParamSpec::new("interval", 1.0, 40.0, 0.1),
                ParamSpec::new("executors", 1.0, 20.0, 1.0),
                ParamSpec::new("parallelism", 8.0, 256.0, 8.0),
            ],
            1.0,
            20.0,
        );
        assert_eq!(s.dim(), 3);
        let phys = s.to_physical(&[10.5, 10.5, 10.5]);
        assert_eq!(phys[2] % 8.0, 0.0, "quantized to grid: {phys:?}");
    }

    #[test]
    #[should_panic(expected = "non-degenerate")]
    fn degenerate_param_range_panics() {
        let _ = ParamSpec::new("bad", 5.0, 5.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_panics() {
        let s = ConfigSpace::paper_default();
        let _ = s.to_scaled(&[1.0]);
    }
}
