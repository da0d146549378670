//! The bridge between the simulator and the NoStop controller.
//!
//! [`SimSystem`] implements [`StreamingSystem`], so the controller tunes
//! the simulated cluster through exactly the interface a REST-driven
//! deployment would expose. To keep that claim honest, the observation
//! path round-trips through the JSON wire format: the engine's metrics are
//! serialized to a [`StatusReport`] (what a real listener would POST) and
//! parsed back before reaching the controller.

use crate::config::{ExtendedConfig, StreamConfig};
use crate::engine::StreamingEngine;
use nostop_core::listener::StatusReport;
use nostop_core::system::{BatchObservation, StreamingSystem};

/// A simulated cluster exposed as a tunable streaming system.
pub struct SimSystem {
    engine: StreamingEngine,
    /// Reused serialization buffer for the per-batch round-trip.
    json_buf: String,
}

impl SimSystem {
    /// Wrap an engine.
    pub fn new(engine: StreamingEngine) -> Self {
        SimSystem {
            engine,
            json_buf: String::new(),
        }
    }

    /// Access the wrapped engine.
    pub fn engine(&self) -> &StreamingEngine {
        &self.engine
    }

    /// Mutable access to the wrapped engine.
    pub fn engine_mut(&mut self) -> &mut StreamingEngine {
        &mut self.engine
    }
}

impl StreamingSystem for SimSystem {
    fn apply_config(&mut self, physical: &[f64]) {
        // The vector length selects the surface: the paper's 2-knob
        // controller sends `[interval, executors]`; the tuner arena sends
        // the full `ConfigSpace::extended()` vector.
        if physical.len() >= 8 {
            self.engine
                .apply_extended_config(&ExtendedConfig::from_physical(physical));
        } else {
            self.engine
                .apply_config(StreamConfig::from_physical(physical));
        }
    }

    fn next_batch(&mut self) -> BatchObservation {
        self.engine.run_batches(1);
        let metrics = *self
            .engine
            .listener()
            .last()
            .expect("run_batches(1) completed a batch");
        self.json_buf.clear();
        metrics.to_status_report().write_json(&mut self.json_buf);
        StatusReport::from_json(&self.json_buf)
            .expect("wire format must round-trip")
            .to_observation()
    }

    fn now_s(&self) -> f64 {
        self.engine.now().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineParams;
    use crate::noise::NoiseParams;
    use nostop_datagen::rate::ConstantRate;
    use nostop_simcore::SimDuration;
    use nostop_workloads::WorkloadKind;

    fn system(seed: u64) -> SimSystem {
        let mut params = EngineParams::paper(WorkloadKind::LogisticRegression, seed);
        params.noise = NoiseParams::disabled();
        SimSystem::new(StreamingEngine::new(
            params,
            StreamConfig::new(SimDuration::from_secs(15), 12),
            Box::new(ConstantRate::new(10_000.0)),
        ))
    }

    #[test]
    fn next_batch_blocks_until_completion() {
        let mut s = system(1);
        let b1 = s.next_batch();
        let b2 = s.next_batch();
        assert!(b2.completed_at_s > b1.completed_at_s);
        assert!(b1.records > 0);
        assert_eq!(b1.interval_s, 15.0);
    }

    #[test]
    fn apply_config_reaches_engine() {
        let mut s = system(2);
        s.next_batch();
        s.apply_config(&[25.0, 16.0]);
        // Drain until the new interval shows up.
        let mut seen = false;
        for _ in 0..5 {
            if s.next_batch().interval_s == 25.0 {
                seen = true;
                break;
            }
        }
        assert!(seen, "new interval must take effect");
        assert_eq!(s.engine().config().num_executors, 16);
    }

    #[test]
    fn extended_config_reaches_engine_mechanics() {
        let mut s = system(7);
        s.next_batch();
        s.apply_config(&[25.0, 16.0, 128.0, 0.4, 2.0, 400.0, 5.0, 2.0]);
        for _ in 0..5 {
            if s.next_batch().interval_s == 25.0 {
                break;
            }
        }
        let engine = s.engine();
        assert_eq!(engine.config().num_executors, 16);
        // The real mechanics were retargeted...
        assert_eq!(
            engine.params().block_interval,
            SimDuration::from_millis(400)
        );
        assert_eq!(
            engine.params().speculation.map(|sp| sp.multiplier),
            Some(2.0)
        );
        // ...and a narrow 2-knob reconfiguration afterwards keeps the
        // overlay in force (it only re-derives on extended applies).
        s.apply_config(&[20.0, 12.0]);
        assert_eq!(
            s.engine().params().block_interval,
            SimDuration::from_millis(400)
        );
    }

    #[test]
    fn json_roundtrip_and_direct_paths_agree() {
        let mut s = system(3);
        for _ in 0..5 {
            let a = s.next_batch();
            let b = s
                .engine()
                .listener()
                .last()
                .expect("next_batch completed a batch")
                .to_observation();
            // JSON carries millisecond timestamps; agree to 1 ms.
            assert!((a.processing_s - b.processing_s).abs() < 2e-3);
            assert!((a.scheduling_delay_s - b.scheduling_delay_s).abs() < 2e-3);
            assert_eq!(a.records, b.records);
            assert_eq!(a.num_executors, b.num_executors);
        }
    }

    #[test]
    fn now_advances_with_batches() {
        let mut s = system(4);
        let t0 = s.now_s();
        s.next_batch();
        assert!(s.now_s() > t0);
    }
}
