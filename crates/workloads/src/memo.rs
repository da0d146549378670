//! Memoized task-time kernel.
//!
//! The scheduler's inner loop used to re-derive every task's RNG-independent
//! cost — `task_cpu_us`, `sink_us`, `shuffle_bytes` — from the [`CostModel`]
//! once *per task*, although within a stage those values only depend on the
//! task's record-count bucket (tasks get `base` or `base + 1` records when
//! the batch doesn't divide evenly) and the stage's position (first stage
//! reads no shuffle, last stage pays the sink write). A [`JobCostTable`]
//! hoists that work to once per *job*: the key is
//! `(cost model, records, tasks_per_stage, stages)` — everything the kernel
//! depends on apart from the RNG draws, which stay in the scheduler.
//!
//! The memo is exact, not approximate: it evaluates the same pure functions
//! in the same floating-point operation order the per-task code did, so
//! simulated traces are bit-identical. Invalidation is structural — the
//! table is rebuilt whenever any key component changes (in practice once
//! per job; under a constant-rate source consecutive jobs share the key and
//! the rebuild is a handful of flops either way).

use crate::cost::CostModel;
use nostop_simcore::{floor_split, round_half_up};

/// RNG-independent per-task costs of one stage, for both record-count
/// buckets: index 0 = `base` records, index 1 = `base + 1` (the first
/// `records % tasks` tasks of the stage).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageCosts {
    /// CPU work per bucket, µs — `task_cpu_us`, plus `sink_us` on the
    /// job's last stage (summed in that order, as the per-task code did).
    pub cpu_us: [f64; 2],
    /// Shuffle input per bucket, bytes (zero on the first stage, which
    /// reads from the receivers instead of a previous stage's output).
    pub shuffle_bytes: [f64; 2],
    /// True for every stage after the first: the scheduler charges the
    /// shuffle read against the executing node's disk.
    pub has_shuffle: bool,
}

impl StageCosts {
    fn compute(cost: &CostModel, base: u64, include_sink: bool, include_shuffle: bool) -> Self {
        let mut cpu_us = [0.0; 2];
        let mut shuffle_bytes = [0.0; 2];
        for (v, slot) in cpu_us.iter_mut().enumerate() {
            let recs = base + v as u64;
            let mut w = cost.task_cpu_us(recs);
            if include_sink {
                w += cost.sink_us(recs);
            }
            *slot = w;
            if include_shuffle {
                shuffle_bytes[v] = cost.shuffle_bytes(recs);
            }
        }
        StageCosts {
            cpu_us,
            shuffle_bytes,
            has_shuffle: include_shuffle,
        }
    }
}

/// The memoized kernel for one job: stage-position variants computed once.
///
/// A job's stages fall into at most three cost classes — the first stage
/// (no shuffle input), middle stages, and the last stage (sink write); for
/// a single-stage job the one stage is both first and last.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobCostTable {
    first: StageCosts,
    middle: StageCosts,
    last: StageCosts,
    stages: u32,
}

impl JobCostTable {
    /// Build the table for a job of `stages` stages over `records` records
    /// split across `tasks_per_stage` tasks.
    pub fn new(cost: &CostModel, records: u64, tasks_per_stage: u32, stages: u32) -> Self {
        let base = records / tasks_per_stage.max(1) as u64;
        JobCostTable {
            first: StageCosts::compute(cost, base, stages == 1, false),
            middle: StageCosts::compute(cost, base, false, true),
            last: StageCosts::compute(cost, base, true, true),
            stages,
        }
    }

    /// The cost class of stage `stage` (0-based).
    pub fn stage(&self, stage: u32) -> &StageCosts {
        if stage == 0 {
            &self.first
        } else if stage + 1 == self.stages {
            &self.last
        } else {
            &self.middle
        }
    }
}

/// Integer round-half-up of a nonnegative finite duration in µs, floored
/// at one tick — the simulator's single task-duration quantizer. Kept here
/// so the per-task path and the closed-form makespan share one definition
/// (bit-identical by construction).
#[inline]
pub fn round_duration_us(work_us: f64) -> u64 {
    round_half_up(work_us).max(1)
}

/// Speed-proportional task quotas by largest-remainder apportionment.
///
/// Splits `tasks` tasks over the executors in `speeds` so executor `e`
/// gets `⌊tasks·speed_e/Σspeed⌋` plus possibly one of the leftover tasks,
/// handed out by descending fractional remainder (ties: lowest index).
/// This is the static analogue of duration-greedy list scheduling: on a
/// homogeneous cluster it reproduces greedy's `n mod m` split exactly, and
/// on a heterogeneous one it assigns work in proportion to capacity, which
/// is what greedy converges to over many waves. Being static — independent
/// of per-task durations — it is what makes a per-stage closed-form
/// makespan possible at all.
///
/// `fracs` is caller-provided scratch (≥ `speeds.len()`); `quotas` receives
/// one entry per executor. Panics if `speeds` is empty and `tasks > 0`.
pub fn speed_quotas(speeds: &[f64], tasks: u32, quotas: &mut [u64], fracs: &mut [f64]) {
    assert!(quotas.len() >= speeds.len() && fracs.len() >= speeds.len());
    let total: f64 = speeds.iter().map(|s| s.max(1e-12)).sum();
    let mut assigned: u64 = 0;
    for (e, &speed) in speeds.iter().enumerate() {
        let (q, frac) = floor_split(tasks as f64 * speed.max(1e-12) / total);
        quotas[e] = q;
        fracs[e] = frac;
        assigned += q;
    }
    let mut left = tasks as u64 - assigned.min(tasks as u64);
    // Largest-remainder round: `left < m`, so a repeated max scan is
    // cheaper than sorting and stays allocation-free. Strict `>` keeps
    // ties at the lowest index, deterministically.
    while left > 0 {
        let mut best = 0;
        for e in 1..speeds.len() {
            if fracs[e] > fracs[best] {
                best = e;
            }
        }
        quotas[best] += 1;
        fracs[best] = -1.0;
        left -= 1;
    }
}

/// Closed-form schedule of one executor's contiguous task block.
///
/// The executor opens at `open` (µs) and runs `factors.len()` tasks back
/// to back; the task at global index `start_idx + off` costs its bucket's
/// work (`work1` inside the global heavy prefix `start_idx + off < rem`,
/// `work0` otherwise) times the pre-drawn noise factor `factors[off]`,
/// quantized by [`round_duration_us`]. Returns `(end, busy_us)` — and
/// since the block runs gap-free, `busy == end - open`.
///
/// This *is* the exact per-task simulation of the block for the case of
/// no contention episode, no fault window, and no speculation touching
/// it: the sequential event scheduling collapses to one multiply-round-add
/// prefix per task, with the identical floating-point op order, which is
/// why the superbatch fast path built on it is bit-identical to the exact
/// path wherever its quiet checks claim it applies.
#[inline]
pub fn block_prefix(
    open: u64,
    work0: f64,
    work1: f64,
    start_idx: u32,
    rem: u32,
    factors: &[f64],
) -> (u64, u64) {
    let mut t = open;
    for (off, &factor) in factors.iter().enumerate() {
        let heavy = start_idx + (off as u32) < rem;
        let w = if heavy { work1 } else { work0 };
        t += round_duration_us(w * factor);
    }
    (t, t - open)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadKind;

    /// The memo must agree bit-for-bit with the direct per-task derivation.
    #[test]
    fn table_matches_direct_evaluation() {
        for kind in WorkloadKind::ALL {
            let cost = CostModel::preset(kind);
            for &(records, tasks, stages) in &[
                (150_000u64, 75u32, 8u32),
                (7u64, 3u32, 1u32),
                (0u64, 50u32, 2u32),
            ] {
                let table = JobCostTable::new(&cost, records, tasks, stages);
                let base = records / tasks as u64;
                for stage in 0..stages {
                    let s = table.stage(stage);
                    for v in 0..2u64 {
                        let recs = base + v;
                        let mut expect = cost.task_cpu_us(recs);
                        if stage + 1 == stages {
                            expect += cost.sink_us(recs);
                        }
                        assert_eq!(s.cpu_us[v as usize].to_bits(), expect.to_bits());
                        if stage > 0 {
                            assert!(s.has_shuffle);
                            assert_eq!(
                                s.shuffle_bytes[v as usize].to_bits(),
                                cost.shuffle_bytes(recs).to_bits()
                            );
                        } else {
                            assert!(!s.has_shuffle);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn quotas_match_greedy_on_homogeneous_clusters() {
        // n mod m executors get the +1, lowest indices first — exactly the
        // split duration-greedy scheduling produces for uniform durations.
        let speeds = [1.0; 7];
        let mut quotas = [0u64; 7];
        let mut fracs = [0.0; 7];
        speed_quotas(&speeds, 24, &mut quotas, &mut fracs);
        assert_eq!(quotas, [4, 4, 4, 3, 3, 3, 3]);
        assert_eq!(quotas.iter().sum::<u64>(), 24);
    }

    #[test]
    fn quotas_are_speed_proportional_and_exhaustive() {
        let speeds = [1.0, 0.65, 1.05, 1.05, 0.65];
        let mut quotas = [0u64; 5];
        let mut fracs = [0.0; 5];
        for tasks in [1u32, 5, 75, 113] {
            speed_quotas(&speeds, tasks, &mut quotas, &mut fracs);
            assert_eq!(quotas.iter().sum::<u64>(), tasks as u64, "{tasks}");
            // Proportionality within the ±1 largest-remainder bound.
            let total: f64 = speeds.iter().sum();
            for (e, &q) in quotas.iter().enumerate() {
                let raw = tasks as f64 * speeds[e] / total;
                assert!(
                    (q as f64 - raw).abs() < 1.0 + 1e-9,
                    "executor {e}: quota {q} vs raw {raw}"
                );
            }
        }
    }

    #[test]
    fn block_prefix_runs_gap_free_and_respects_buckets() {
        // Heavy prefix: global indices 0..3. Block starts at index 2, so
        // its first task is heavy and the rest are light.
        let factors = [1.2, 0.8, 1.0];
        let (end, busy) = block_prefix(500, 100.0, 130.0, 2, 3, &factors);
        let want: u64 = round_duration_us(130.0 * 1.2)
            + round_duration_us(100.0 * 0.8)
            + round_duration_us(100.0 * 1.0);
        assert_eq!(busy, want);
        assert_eq!(end, 500 + want, "gap-free: end - open == busy");
        // Empty block is a no-op.
        assert_eq!(block_prefix(500, 100.0, 130.0, 0, 0, &[]), (500, 0));
    }

    #[test]
    fn round_duration_us_is_round_half_up_floored_at_one() {
        assert_eq!(round_duration_us(0.0), 1);
        assert_eq!(round_duration_us(0.49), 1);
        assert_eq!(round_duration_us(1.5), 2);
        assert_eq!(round_duration_us(2.49), 2);
        assert_eq!(round_duration_us(2.5), 3);
        assert_eq!(round_duration_us(1e9 + 0.5), 1_000_000_001);
    }

    #[test]
    fn single_stage_jobs_pay_sink_but_not_shuffle() {
        let cost = CostModel::preset(WorkloadKind::WordCount);
        let table = JobCostTable::new(&cost, 1_000, 10, 1);
        let s = table.stage(0);
        assert!(!s.has_shuffle);
        assert_eq!(
            s.cpu_us[0].to_bits(),
            (cost.task_cpu_us(100) + cost.sink_us(100)).to_bits()
        );
    }
}
