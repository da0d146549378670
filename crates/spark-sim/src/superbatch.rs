//! The superbatch fast path: closed-form batch simulation.
//!
//! A steady stream is overwhelmingly *self-similar*: batch after batch
//! arrives with the same interval, (nearly) the same record count, onto the
//! same executor fleet, with no fault window open and no contention episode
//! in sight. The exact per-task path re-derives the identical schedule
//! every time — the only thing that changes between such batches is the
//! per-task noise stream. This module collapses that case to closed-form
//! arithmetic, at *executor-block* granularity:
//!
//! 1. **Signature** — a [`BatchSignature`] (interval, record bucket, fleet
//!    version) is [matched](BatchSignature::matches) against the previous
//!    batch's. A hit *arms* the fast path for the job; any
//!    reconfiguration, crash, relaunch, backlog, or out-of-bucket record
//!    change misses and runs the whole job on the exact path.
//! 2. **Per-block closed form** — inside the armed job, each executor's
//!    contiguous task block is first computed in closed form
//!    ([`nostop_workloads::memo::block_prefix`]: one multiply-round-add
//!    prefix over the stage's pre-drawn noise burst, no per-task event
//!    scheduling, no contention or fault queries).
//! 3. **Per-block quiet check** — the closed form assumed contention
//!    factor 1.0 and no fault window. Knowing the block's would-be end,
//!    the scheduler verifies that assumption via
//!    [`crate::noise::NoiseModel::node_quiet`] and
//!    [`crate::fault::FaultState::block_quiet`]; a dirty block — and only
//!    that block — falls back to the exact per-task loop, which then
//!    advances the episode process and draws exactly as an unarmed run
//!    would.
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

/// The per-batch shape fingerprint the fast path keys on.
///
/// Two consecutive batches whose signatures [match](Self::matches) run the
/// same task count and executor fleet (`fleet_version` bumps on every
/// launch/retire/crash) over near-identical record volume, so arming the
/// per-block closed form is worthwhile. The record component is a
/// *bucket*, not an exact count: uniform partitioned brokers deliver a
/// ±(partitions/2)-record wobble around the steady-state volume (the
/// fractional-share carry), which changes per-task work by parts in ten
/// thousand and is fully accounted for by the closed form itself — the
/// fast path always computes from the *current* batch's records, the
/// signature only decides whether to try. Stage count is not part of the
/// signature: it is sampled per job from the job RNG in both paths alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSignature {
    /// Batch interval, µs.
    pub interval_us: u64,
    /// Records in the batch.
    pub records: u64,
    /// [`crate::executor::ExecutorManager::fleet_version`] at job start.
    pub fleet_version: u64,
}

impl BatchSignature {
    /// Steady-state match: equal interval and fleet, and record counts in
    /// the same bucket — within 1/256 (±0.4%) of the larger count, which
    /// absorbs broker partition-carry wobble while a real rate change
    /// (the smallest the paper's workloads see is >10%) still misses.
    pub fn matches(&self, other: &BatchSignature) -> bool {
        self.interval_us == other.interval_us
            && self.fleet_version == other.fleet_version
            && self.records.abs_diff(other.records) <= self.records.max(other.records) >> 8
    }
}

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

/// Per-job fast-path handle threaded into
/// [`crate::scheduler::simulate_job`] when the signature armed the batch.
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

/// Engine-side fast-path state: the previous batch's signature plus the
/// engagement counters.
#[derive(Debug, Default)]
pub(crate) struct SuperbatchState {
    /// Fast path allowed at all (params AND not `NOSTOP_PROBE=1`).
    pub enabled: bool,
    /// Signature of the previous job, if any.
    pub prev: Option<BatchSignature>,
    /// Engagement counters.
    pub stats: SuperbatchStats,
}

impl SuperbatchState {
    /// The fraction of the last job's armed blocks that passed their quiet
    /// checks, given the counter snapshot taken before the job — 1.0 means
    /// the whole batch was closed-form eligible; 0.0 for unarmed jobs.
    /// Identical across auto/disabled modes (eligibility is counted in
    /// both), so the job-span `superbatch` attribute built from it is too.
    pub fn eligible_fraction_since(&self, before: &SuperbatchStats) -> f64 {
        let armed = self.stats.armed_blocks - before.armed_blocks;
        if armed == 0 {
            return 0.0;
        }
        (self.stats.eligible_blocks - before.eligible_blocks) as f64 / armed as f64
    }
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

    #[test]
    fn signature_match_requires_interval_and_fleet_equality() {
        let a = BatchSignature {
            interval_us: 10_000_000,
            records: 150_000,
            fleet_version: 3,
        };
        assert!(a.matches(&a));
        assert!(!a.matches(&BatchSignature {
            fleet_version: 4,
            ..a
        }));
        assert!(!a.matches(&BatchSignature {
            interval_us: 5_000_000,
            ..a
        }));
    }

    #[test]
    fn signature_record_bucket_absorbs_wobble_but_not_rate_changes() {
        let a = BatchSignature {
            interval_us: 10_000_000,
            records: 150_000,
            fleet_version: 3,
        };
        // Broker partition-carry wobble: ±16 records on 150k.
        let wobble = BatchSignature {
            records: 150_016,
            ..a
        };
        assert!(a.matches(&wobble));
        assert!(wobble.matches(&a), "matching is symmetric");
        // A real rate change (+10%) misses.
        let surge = BatchSignature {
            records: 165_000,
            ..a
        };
        assert!(!a.matches(&surge));
        assert!(!surge.matches(&a));
        // Tolerance scales with volume and handles zero.
        let empty = BatchSignature { records: 0, ..a };
        assert!(empty.matches(&empty));
        assert!(!empty.matches(&BatchSignature { records: 300, ..a }));
    }
}
