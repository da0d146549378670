//! The superbatch fast path: closed-form batch simulation.
//!
//! A steady stream is overwhelmingly *self-similar*: batch after batch
//! arrives with the same interval, (nearly) the same record count, onto the
//! same executor fleet, with no fault window open and no contention episode
//! in sight. The exact per-task path re-derives the identical schedule
//! every time — the only thing that changes between such batches is the
//! per-task noise stream. This module collapses that case to closed-form
//! arithmetic, at *executor-block* granularity. Every job the engine
//! starts is armed; nothing about the previous batch is consulted, so a
//! reconfiguration, a relaunch or a backlog costs no engagement by
//! itself. The decision is made per executor×stage block:
//!
//! 1. **Per-block closed form** — each executor's contiguous task block is
//!    first computed in closed form
//!    ([`nostop_workloads::memo::block_prefix`]: one multiply-round-add
//!    prefix over the stage's pre-drawn noise burst, no per-task event
//!    scheduling, no contention or fault queries). It starts from the
//!    block's real slot open, so a fresh executor's one-time init and a
//!    launching executor's ready time are already in it.
//! 2. **Per-block quiet check** — the closed form assumed contention
//!    factor 1.0 and no fault window. Knowing the block's would-be end,
//!    the scheduler verifies that assumption via
//!    [`crate::noise::NoiseModel::node_quiet`] and
//!    [`crate::fault::FaultState::block_quiet`]; a dirty block — and only
//!    that block — falls back to the exact per-task loop, which then
//!    advances the episode process and draws exactly as an unarmed run
//!    would.
//!
//! The one job-level veto lives in [`crate::scheduler::simulate_job`]: an
//! engaged speculation pass needs the per-task duration list, which the
//! closed form does not produce, so such jobs run wholly exact.
//!
//! Under the quiet guard the closed form replays the exact path's
//! floating-point op sequence (multiplying a speed by a contention factor
//! of 1.0 is a bitwise no-op), and a quiet block's exact loop consumes no
//! RNG — so fast and exact results (durations, busy sums, traces, RNG
//! position) are bit-identical, which the differential proptest enforces.
//! Block granularity is what keeps engagement high: one contention episode
//! on one node only evicts the blocks it touches, not the whole batch.
//!
//! Under `NOSTOP_PROBE=1` ([`nostop_simcore::probe_mode`]) the engine never
//! *uses* closed-form results, but armed jobs still run every per-block
//! closed form and quiet check (the probe draws no RNG), so both modes
//! consume identical randomness and emit identical traces and eligibility
//! counters — which is what makes the differential test meaningful end to
//! end.

/// Counters describing how often the fast path engaged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuperbatchStats {
    /// Armed batches where every block's result came from the closed form.
    pub fast_batches: u64,
    /// Armed batches where every block passed its quiet check. Equal to
    /// `fast_batches` in auto mode; still counted under the kill switch.
    pub eligible_batches: u64,
    /// Armed batches with at least one dirty block (contention episode or
    /// fault window in range) that ran per-task.
    pub quiescence_fallbacks: u64,
    /// Executor×stage blocks scheduled by the closed form.
    pub fast_blocks: u64,
    /// Blocks that passed the quiet check (counted in both modes).
    pub eligible_blocks: u64,
    /// Blocks probed while armed (eligible or not, used or not).
    pub armed_blocks: u64,
}

impl SuperbatchStats {
    /// Field-wise difference `self - before` — the counters one epoch (or
    /// one job) advanced. Panics in debug builds if `before` is not a
    /// prefix snapshot of `self`.
    pub fn delta_since(&self, before: &SuperbatchStats) -> SuperbatchStats {
        SuperbatchStats {
            fast_batches: self.fast_batches - before.fast_batches,
            eligible_batches: self.eligible_batches - before.eligible_batches,
            quiescence_fallbacks: self.quiescence_fallbacks - before.quiescence_fallbacks,
            fast_blocks: self.fast_blocks - before.fast_blocks,
            eligible_blocks: self.eligible_blocks - before.eligible_blocks,
            armed_blocks: self.armed_blocks - before.armed_blocks,
        }
    }

    /// Field-wise accumulate — the inverse of [`Self::delta_since`], used
    /// by the fleet fast path to account counters for replayed epochs.
    pub fn accumulate(&mut self, delta: &SuperbatchStats) {
        self.fast_batches += delta.fast_batches;
        self.eligible_batches += delta.eligible_batches;
        self.quiescence_fallbacks += delta.quiescence_fallbacks;
        self.fast_blocks += delta.fast_blocks;
        self.eligible_blocks += delta.eligible_blocks;
        self.armed_blocks += delta.armed_blocks;
    }
}

/// Per-job fast-path handle the engine threads into every
/// [`crate::scheduler::simulate_job`] call that starts a job.
///
/// `use_fast` false (the kill switch) still runs every closed form and
/// quiet check — updating the eligibility counters identically — but
/// schedules every block per-task, so auto and disabled modes consume the
/// same RNG and emit the same traces.
pub struct SuperbatchArm<'a> {
    /// Actually use closed-form results (false = probe only).
    pub use_fast: bool,
    /// Engagement counters to update.
    pub stats: &'a mut SuperbatchStats,
}

/// The armed-job schedule must agree bit-for-bit with the unarmed exact
/// path wherever the quiet checks pass — these tests pin the whole-job
/// variant down; the engine-level differential proptest covers traces,
/// metrics, and RNG fingerprints end to end.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::executor::ExecutorManager;
    use crate::noise::{NoiseModel, NoiseParams};
    use crate::scheduler::{simulate_job, JobResult, JobScratch};
    use nostop_obs::Recorder;
    use nostop_simcore::{SimDuration, SimRng, SimTime};
    use nostop_workloads::{CostModel, WorkloadKind};

    fn run(kind: WorkloadKind, arm: Option<(bool, &mut SuperbatchStats)>) -> (JobResult, [u64; 4]) {
        let mut m = ExecutorManager::new(Cluster::paper_heterogeneous(), SimDuration::ZERO);
        m.bootstrap(14);
        let cost = CostModel::preset(kind);
        // Noise enabled but contention pushed far beyond the horizon:
        // quiet by construction, task factors still random.
        let params = NoiseParams {
            contention_mean_gap_s: 1e9,
            ..NoiseParams::default()
        };
        let mut noise = NoiseModel::new(params, 5, SimRng::seed_from_u64(11));
        let mut execs = m.executors().to_vec();
        let result = simulate_job(
            &cost,
            123_457,
            SimDuration::from_secs(15),
            SimDuration::from_millis(200),
            SimTime::from_secs_f64(50.0),
            &mut execs,
            SimDuration::ZERO,
            &mut noise,
            6,
            None,
            &mut JobScratch::new(),
            None,
            arm.map(|(use_fast, stats)| SuperbatchArm { use_fast, stats }),
            &Recorder::disabled(),
        );
        (result, noise.rng_state())
    }

    /// Closed-form (armed), probe-only (kill switch), and plain exact
    /// schedules must be bit-identical on a quiet heterogeneous cluster —
    /// including the RNG position afterwards.
    #[test]
    fn armed_job_matches_exact_path_bit_for_bit() {
        for kind in WorkloadKind::ALL {
            let (exact, rng_exact) = run(kind, None);
            let mut stats = SuperbatchStats::default();
            let (fast, rng_fast) = run(kind, Some((true, &mut stats)));
            assert_eq!(exact, fast, "{kind:?}");
            assert_eq!(rng_exact, rng_fast, "{kind:?}");
            assert_eq!(stats.eligible_blocks, stats.armed_blocks, "{kind:?}");
            assert_eq!(stats.fast_blocks, stats.armed_blocks, "{kind:?}");
            assert!(stats.armed_blocks > 0, "{kind:?}");

            let mut probe_stats = SuperbatchStats::default();
            let (probed, rng_probed) = run(kind, Some((false, &mut probe_stats)));
            assert_eq!(exact, probed, "{kind:?} (probe only)");
            assert_eq!(rng_exact, rng_probed, "{kind:?} (probe only)");
            assert_eq!(probe_stats.eligible_blocks, stats.eligible_blocks);
            assert_eq!(probe_stats.fast_blocks, 0, "kill switch uses nothing");
        }
    }
}
