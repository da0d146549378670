//! Future work, implemented: tuning more than two parameters (§7).
//!
//! "The SPSA algorithm is able to optimize multiple parameters
//! simultaneously without additional overhead" — each iteration still
//! costs exactly two measurements no matter how many parameters move.
//! This example tunes FOUR parameters of a synthetic streaming system
//! (batch interval, executors, shuffle partitions, memory fraction) and
//! prints the measurement count to prove the 2-per-iteration economy.
//!
//! Run with: `cargo run --release --example multi_parameter`

use nostop::core::controller::{NoStop, NoStopConfig};
use nostop::core::space::{ConfigSpace, ParamSpec};
use nostop::core::system::{BatchObservation, StreamingSystem};
use nostop::simcore::SimRng;

/// A synthetic four-parameter streaming system with a known optimum.
struct FourKnobSystem {
    config: Vec<f64>,
    t: f64,
    batches: u64,
    measurements: u64,
    rng: SimRng,
}

impl FourKnobSystem {
    fn new(seed: u64) -> Self {
        FourKnobSystem {
            config: vec![20.0, 10.0, 64.0, 0.5],
            t: 0.0,
            batches: 0,
            measurements: 0,
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// Processing time: fixed cost, work shrinking with executors, a
    /// shuffle-partition sweet spot near 128, and a memory-fraction sweet
    /// spot near 0.7 (too little spills, too much starves execution).
    fn processing(&mut self) -> f64 {
        let interval = self.config[0];
        let execs = self.config[1].max(1.0);
        let parts = self.config[2];
        let mem = self.config[3];
        let work = 10_000.0 * interval * 38e-5 / execs;
        let partition_penalty = 0.3 * ((parts.ln() - 128.0_f64.ln()).powi(2));
        let memory_penalty = 6.0 * (mem - 0.7).powi(2);
        let fixed = 4.0 + 0.05 * execs;
        (fixed + work + partition_penalty + memory_penalty) * self.rng.noise_factor(0.05)
    }
}

impl StreamingSystem for FourKnobSystem {
    fn apply_config(&mut self, physical: &[f64]) {
        self.config = physical.to_vec();
    }
    fn next_batch(&mut self) -> BatchObservation {
        self.t += self.config[0];
        self.batches += 1;
        self.measurements += 1;
        let proc = self.processing();
        BatchObservation {
            completed_at_s: self.t,
            interval_s: self.config[0],
            processing_s: proc,
            scheduling_delay_s: (proc - self.config[0]).max(0.0),
            records: (10_000.0 * self.config[0]) as u64,
            input_rate: 10_000.0,
            num_executors: self.config[1] as u32,
            queued_batches: 0,
            executor_failures: 0,
        }
    }
    fn now_s(&self) -> f64 {
        self.t
    }
}

fn main() {
    // Four physical parameters, all scaled into the same [1, 20] range.
    let space = ConfigSpace::new(
        vec![
            ParamSpec::new("batch-interval-s", 1.0, 40.0, 0.1),
            ParamSpec::new("num-executors", 1.0, 20.0, 1.0),
            ParamSpec::new("shuffle-partitions", 8.0, 512.0, 8.0),
            ParamSpec::new("memory-fraction", 0.1, 0.9, 0.05),
        ],
        1.0,
        20.0,
    );
    let dim = space.dim();
    let mut cfg = NoStopConfig::paper_default();
    cfg.space = space;
    // A synthetic benchmark has no arrival-rate regime changes.
    cfg.reset_level_fraction = None;

    let mut sys = FourKnobSystem::new(8);
    let mut ns = NoStop::new(cfg, 4);

    println!("tuning 4 parameters simultaneously (2 measurements/iteration):\n");
    for round in [5u64, 10, 20, 40] {
        ns.run(&mut sys, round - ns.rounds());
        let p = ns.current_physical();
        println!(
            "after {:>2} rounds: interval {:>5.1}s  executors {:>2.0}  partitions {:>3.0}  mem {:.2}",
            ns.rounds(),
            p[0],
            p[1],
            p[2],
            p[3]
        );
    }

    let p = ns.current_physical();
    println!("\noptimum reference: partitions near 128, memory near 0.70");
    println!(
        "found:             partitions {:.0}, memory {:.2}",
        p[2], p[3]
    );
    println!(
        "\nmeasurement economy: {} SPSA iterations consumed {} batch \
         measurements\n(finite differences would have needed {} for the same iterations: 2 × {dim} per step)",
        ns.k(),
        sys.measurements,
        ns.k() * 2 * dim as u64
    );
}
