//! Per-job stage/task scheduling.
//!
//! Each batch becomes one Spark job. The job runs a sequence of stages —
//! ML workloads run one stage per SGD iteration (a *sampled* count: the
//! source of their batch-time variability, §6.3), WordCount a map/reduce
//! pair, Log Analyze its four-stage pipeline. A stage splits the batch into
//! tasks — one per block, where the block count is
//! `batch interval / block interval` (Spark's 200 ms default) — and the
//! tasks are assigned to executors as contiguous blocks sized by
//! speed-proportional quotas ([`nostop_workloads::memo::speed_quotas`]):
//! executor `e` runs `≈ n·speed_e/Σspeed` tasks back to back from its slot
//! open. On a homogeneous cluster this is exactly the split duration-greedy
//! list scheduling produces; on a heterogeneous one it is the proportional
//! assignment greedy converges to over many waves — and being *static*, it
//! collapses to a per-stage closed form whenever no per-task state (noise
//! episodes, fault windows, speculation) intervenes, which is what the
//! engine's superbatch fast path exploits. Task *waves*
//! (`⌈tasks / executors⌉`), heterogeneity (per-node speed), disk class
//! (shuffle/sink I/O), contention windows, stragglers, and Fig. 3's
//! executor-count effect (a steep fall that flattens at high counts) all
//! emerge from this model rather than being postulated.
//!
//! Per-job scratch is a single two-lane arena frame
//! ([`nostop_simcore::Arena`]) carved into struct-of-arrays task state —
//! per-executor cursors, memo keys and work values, per-task durations and
//! noise factors — so a job touches two contiguous blocks instead of six
//! scattered `Vec`s and steady state runs allocation-free.

use crate::executor::Executor;
use crate::fault::{TaskFaultCtx, RETRY_OVERHEAD};
use crate::noise::NoiseModel;
use crate::superbatch::SuperbatchArm;
use nostop_obs::Recorder;
use nostop_simcore::{round_half_up, Arena, SimDuration, SimTime};
use nostop_workloads::{block_prefix, round_duration_us, speed_quotas, CostModel, JobCostTable};

/// Tasks per stage for a batch: `batch interval / block interval`,
/// floored at one (Spark cuts one task per block).
#[inline]
pub(crate) fn tasks_for(interval: SimDuration, block_interval: SimDuration) -> u32 {
    ((interval.as_micros() / block_interval.as_micros().max(1)).max(1)) as u32
}

/// Sentinel for an invalid per-executor work memo entry: no real
/// contention factor has these bits (they encode a NaN).
const MEMO_INVALID: u64 = u64::MAX;

/// The outcome of simulating one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobResult {
    /// When the job finished (all stages complete).
    pub finished_at: SimTime,
    /// Stages the job ran (= sampled iteration count for ML workloads).
    pub stages: u32,
    /// Tasks per stage.
    pub tasks_per_stage: u32,
    /// Total executor-busy time across all tasks, µs — the numerator of
    /// the §3.1 resource-utilization story.
    pub busy_core_us: u64,
    /// Task re-runs forced by injected transient failures (0 without a
    /// fault context or outside failure windows).
    pub task_retries: u32,
}

/// Overhead of launching a speculative copy, µs.
const SPECULATION_RELAUNCH_US: f64 = 50_000.0;

/// Minimum tasks in a stage before speculation engages (medians over tiny
/// stages are meaningless).
const SPECULATION_MIN_TASKS: usize = 5;

/// Speculative-execution policy (Spark's `spark.speculation`).
///
/// When a task runs longer than `multiplier` × the stage's median task
/// duration, a speculative copy is launched on an idle executor; whichever
/// finishes first wins. Modeled as capping straggler durations at
/// `multiplier × median + relaunch overhead` and re-summing each
/// executor's block — the straggler's slot frees correspondingly earlier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speculation {
    /// Straggler threshold as a multiple of the stage median (Spark's
    /// `spark.speculation.multiplier`, default 1.5).
    pub multiplier: f64,
}

impl Default for Speculation {
    fn default() -> Self {
        Speculation { multiplier: 1.5 }
    }
}

/// Reusable arena for [`simulate_job`]'s hot loop.
///
/// Every stage needs per-executor cursors and a per-task duration list; a
/// steady-state engine simulates thousands of jobs, so allocating those
/// afresh per job dominated the DES profile. The scratch owns one two-lane
/// bump [`Arena`] from which `simulate_job` carves its whole
/// struct-of-arrays frame — the lanes grow to the high-water mark and are
/// then reused, so steady state runs allocation-free and every stage walks
/// two contiguous blocks. Scratch contents carry no state between calls; a
/// fresh `JobScratch::default()` and a reused one produce identical
/// results.
#[derive(Debug, Default)]
pub struct JobScratch {
    arena: Arena,
}

impl JobScratch {
    /// An empty scratch; lanes grow on first use and are then reused.
    pub fn new() -> Self {
        JobScratch::default()
    }

    /// The backing arena, shared with the engine's superbatch kernel so
    /// the fast and exact paths reuse the same high-water storage.
    pub(crate) fn arena(&mut self) -> &mut Arena {
        &mut self.arena
    }
}

/// Simulate one job over `records` records starting at `start`.
///
/// `executors` is the live set (launching ones join when ready); `fresh`
/// executors pay `executor_init` before their first slot and their flag is
/// cleared. `scratch` provides reusable buffers (see [`JobScratch`]);
/// results are independent of the scratch's prior contents. `faults`
/// threads the engine's fault windows through task placement: slowdown
/// windows scale the slot's speed, and failure windows re-run tasks with
/// a bounded Bernoulli retry loop (`None` is bit-identical to a fault-free
/// build — no extra RNG draws). `superbatch` arms the per-block closed
/// form (see [`crate::superbatch`]): each executor's block is first
/// computed by [`block_prefix`] and kept iff its node is contention- and
/// fault-quiet over the block's own span — bit-identical to the per-task
/// loop there by construction — while dirty blocks fall back task by
/// task; `None` (or an armed job with an engaged speculation pass, whose
/// duration list the closed form cannot produce) runs everything exactly.
/// `obs` receives one span per stage when enabled; a disabled recorder
/// costs one branch per stage and draws no RNG, so the simulated schedule
/// is identical either way. Panics if `executors` is empty — the engine
/// guarantees at least one.
#[allow(clippy::too_many_arguments)]
pub fn simulate_job(
    cost: &CostModel,
    records: u64,
    interval: SimDuration,
    block_interval: SimDuration,
    start: SimTime,
    executors: &mut [Executor],
    executor_init: SimDuration,
    noise: &mut NoiseModel,
    stages: u32,
    speculation: Option<Speculation>,
    scratch: &mut JobScratch,
    mut faults: Option<TaskFaultCtx>,
    superbatch: Option<SuperbatchArm<'_>>,
    obs: &Recorder,
) -> JobResult {
    assert!(!executors.is_empty(), "job needs at least one executor");
    let m = executors.len();
    let tasks_per_stage = tasks_for(interval, block_interval);
    let n = tasks_per_stage as usize;

    // The memoized task-time kernel: every RNG-independent per-task cost,
    // computed once per job instead of once per task (bit-identical — see
    // `nostop_workloads::memo`).
    let table = JobCostTable::new(cost, records, tasks_per_stage, stages);
    // Skip per-task fault-window queries entirely when the plan declares no
    // such window: the queries would return exactly 1.0 / 0.0.
    let query_slowdowns = faults.as_ref().is_some_and(|f| f.state.has_slowdowns());
    let query_failures = faults.as_ref().is_some_and(|f| f.state.has_task_failures());
    // The speculation pass is the only consumer of the per-task duration
    // list; without it the busy sum is accumulated inline.
    let need_durations = speculation.is_some() && tasks_per_stage as usize >= SPECULATION_MIN_TASKS;
    // Superbatch arming: the closed form cannot produce the per-task
    // duration list an engaged speculation pass consumes, so that case
    // stays fully exact. This is the only job-level veto — the engine
    // arms every job it starts.
    let armed = superbatch.is_some() && !need_durations;
    let use_fast = superbatch.as_ref().is_some_and(|a| a.use_fast);
    // Fleet contention pressure: a job-constant speed multiplier from the
    // arbiter (1.0 when unconstrained — and `x * 1.0` is bitwise exact, so
    // an unpressured run is bit-identical to a build without this factor).
    let pressure = noise.external_pressure();
    let mut armed_blocks: u64 = 0;
    let mut eligible_blocks: u64 = 0;
    let mut fast_blocks: u64 = 0;

    // Driver-side serial costs: job submission plus per-executor
    // management bookkeeping (the Fig-3 right arm).
    let serial_us = cost.batch_overhead_us + cost.mgmt_per_executor_us * executors.len() as f64;
    let mut t_us = start.as_micros() + round_half_up(serial_us);

    // Carve the whole job's struct-of-arrays state out of one arena frame:
    // int lane = per-executor init/opens/quotas + per-task durations and
    // the speculation median partition buffer; float lane = per-task noise
    // factors + per-executor speeds and the quota remainder scratch.
    let (ints, floats) = scratch.arena().frame(3 * m + 2 * n, n + 2 * m);
    let (extra_init, ints) = ints.split_at_mut(m);
    let (opens, ints) = ints.split_at_mut(m);
    let (quotas, ints) = ints.split_at_mut(m);
    let (durations, median_buf) = ints.split_at_mut(n);
    let (noise_buf, floats) = floats.split_at_mut(n);
    let (speeds, fracs) = floats.split_at_mut(m);

    // Per-executor one-time initialization (jar shipping) for fresh ones.
    for (slot, e) in extra_init.iter_mut().zip(executors.iter()) {
        *slot = if e.fresh {
            executor_init.as_micros()
        } else {
            0
        };
    }
    for e in executors.iter_mut() {
        e.fresh = false;
    }

    // Static speed-proportional task quotas, fixed for the whole job (the
    // executor set is snapshotted at job start).
    for (slot, e) in speeds.iter_mut().zip(executors.iter()) {
        *slot = e.speed;
    }
    speed_quotas(speeds, tasks_per_stage, quotas, fracs);

    // Spread records over tasks: the first `rem` tasks get one extra record
    // (bucket 1 in the cost table), the rest the base count (bucket 0).
    let rem = (records % tasks_per_stage as u64) as u32;
    let mut busy_core_us: u64 = 0;
    let mut task_retries: u32 = 0;

    for stage in 0..stages {
        let stage_start = t_us + round_half_up(cost.stage_overhead_us);
        if obs.is_enabled() {
            obs.enter(
                SimTime::from_micros(stage_start),
                "stage",
                &[("idx", stage as f64), ("tasks", tasks_per_stage as f64)],
            );
        }
        let costs = table.stage(stage);

        for ((open, e), &init) in opens
            .iter_mut()
            .zip(executors.iter())
            .zip(extra_init.iter())
        {
            *open = stage_start.max(e.ready_at.as_micros()).saturating_add(init);
        }
        // Draw the stage's task noise in one burst — same draws as per-task
        // calls, but the sampler's tables stay cache-hot.
        noise.fill_task_factors_into(cost.noise_sigma, noise_buf);
        let mut stage_end = stage_start;
        let mut stage_busy: u64 = 0;
        let mut next: usize = 0;
        for (idx, e) in executors.iter().enumerate() {
            let quota = quotas[idx] as usize;
            if quota == 0 {
                continue;
            }
            let mut at = opens[idx];
            if armed {
                armed_blocks += 1;
                // Closed-form attempt: schedule the whole block as if its
                // node were quiet — the same flops a quiet per-task run
                // performs (a contention/slowdown factor of 1.0 multiplies
                // bitwise-identically), with no queries and no RNG — then
                // verify that assumption over the block's own span. A quiet
                // verdict makes the closed form exact: every per-task query
                // it skipped would have returned 1.0 and drawn nothing. A
                // dirty block — and only that block — falls through to the
                // per-task loop, which advances the episode process and
                // draws exactly as an unarmed run would.
                let denom = (e.speed * pressure).max(0.05);
                let mut work0 = costs.cpu_us[0] / denom;
                let mut work1 = costs.cpu_us[1] / denom;
                if costs.has_shuffle {
                    let disk = e.disk.throughput_mb_s() * 1e6;
                    work0 += costs.shuffle_bytes[0] / disk * 1e6;
                    work1 += costs.shuffle_bytes[1] / disk * 1e6;
                }
                let (cf_end, cf_busy) = block_prefix(
                    at,
                    work0,
                    work1,
                    next as u32,
                    rem,
                    &noise_buf[next..next + quota],
                );
                let from = SimTime::from_micros(at);
                let until = SimTime::from_micros(cf_end);
                let quiet = noise.node_quiet(e.node, from, until)
                    && match faults.as_ref() {
                        Some(f) if query_slowdowns || query_failures => {
                            f.state.block_quiet(e.node, from, until)
                        }
                        _ => true,
                    };
                if quiet {
                    eligible_blocks += 1;
                    if use_fast {
                        fast_blocks += 1;
                        stage_busy += cf_busy;
                        stage_end = stage_end.max(cf_end);
                        next += quota;
                        continue;
                    }
                }
            }
            // Per-block memo of the deterministic work term, keyed by the
            // two per-task multipliers that can change mid-block — the
            // contention factor and the fault slowdown factor. On a quiet
            // cluster every task after the block's first is a hit, and a
            // miss replays the exact floating-point op sequence of the
            // per-task code, so results are bit-identical.
            let mut memo_key = (MEMO_INVALID, MEMO_INVALID);
            let mut memo_work = [0.0f64; 2];
            for j in next..next + quota {
                let bucket = usize::from((j as u32) < rem);

                // CPU speed and contention scale compute time; an active
                // straggler window slows the node further. The contention
                // query stays per-task (it advances the episode process).
                let cf = noise.contention_factor(e.node, SimTime::from_micros(at));
                let slow = match faults.as_ref() {
                    Some(f) if query_slowdowns => {
                        f.state.slowdown_factor(e.node, SimTime::from_micros(at))
                    }
                    _ => 1.0,
                };
                if memo_key != (cf.to_bits(), slow.to_bits()) {
                    let mut speed = e.speed * cf;
                    speed *= slow;
                    speed *= pressure;
                    let denom = speed.max(0.05);
                    memo_work = [costs.cpu_us[0] / denom, costs.cpu_us[1] / denom];
                    if costs.has_shuffle {
                        // Stages after the first read shuffle output from the
                        // previous stage; charge it against this node's disk.
                        let disk = e.disk.throughput_mb_s() * 1e6;
                        memo_work[0] += costs.shuffle_bytes[0] / disk * 1e6;
                        memo_work[1] += costs.shuffle_bytes[1] / disk * 1e6;
                    }
                    memo_key = (cf.to_bits(), slow.to_bits());
                }
                // Per-task stochastic jitter (pre-drawn for the stage).
                let work_us = memo_work[bucket] * noise_buf[j];
                let mut dur = round_duration_us(work_us);
                // Transient task failures: each attempt inside an active
                // failure window fails independently; a failed attempt is
                // re-run in place, up to the plan's retry bound, and the
                // final attempt always succeeds (bounded-penalty model —
                // real Spark would abort the job after maxFailures).
                if query_failures {
                    if let Some(f) = faults.as_mut() {
                        let p = f.state.task_failure_probability(SimTime::from_micros(at));
                        if p > 0.0 {
                            let bound = f.state.plan().max_task_retries;
                            let mut attempts: u32 = 0;
                            while attempts < bound && f.rng.bernoulli(p) {
                                attempts += 1;
                            }
                            if attempts > 0 {
                                let overhead = RETRY_OVERHEAD.as_micros();
                                dur = dur * (attempts as u64 + 1) + overhead * attempts as u64;
                                task_retries += attempts;
                            }
                        }
                    }
                }
                if need_durations {
                    durations[j] = dur;
                } else {
                    stage_busy += dur;
                }
                at += dur;
            }
            next += quota;
            stage_end = stage_end.max(at);
        }

        // Speculation pass: cap stragglers at multiplier × median +
        // relaunch overhead and re-sum each executor's block from its slot
        // open (the speculative copy on an idle executor wins). The
        // assignment is static, so capping can only shrink the stage.
        if need_durations {
            let spec = speculation.expect("need_durations implies speculation");
            // Median via O(n) selection — no full sort, no fresh Vec.
            median_buf.copy_from_slice(durations);
            let mid = median_buf.len() / 2;
            let (_, &mut median, _) = median_buf.select_nth_unstable(mid);
            let cap = (median as f64 * spec.multiplier + SPECULATION_RELAUNCH_US) as u64;
            if durations.iter().any(|&d| d > cap) {
                for d in durations.iter_mut() {
                    *d = (*d).min(cap);
                }
                stage_end = stage_start;
                let mut next: usize = 0;
                for idx in 0..m {
                    let quota = quotas[idx] as usize;
                    if quota == 0 {
                        continue;
                    }
                    let block: u64 = durations[next..next + quota].iter().sum();
                    stage_end = stage_end.max(opens[idx] + block);
                    next += quota;
                }
            }
            stage_busy = durations.iter().sum::<u64>();
        }
        busy_core_us += stage_busy;
        if obs.is_enabled() {
            obs.exit(
                SimTime::from_micros(stage_end),
                "stage",
                &[("busy_us", stage_busy as f64)],
            );
        }

        // Init is paid once, at the first stage the executor joins.
        for x in extra_init.iter_mut() {
            *x = 0;
        }
        t_us = stage_end;
    }

    if let Some(arm) = superbatch {
        if armed {
            arm.stats.armed_blocks += armed_blocks;
            arm.stats.eligible_blocks += eligible_blocks;
            arm.stats.fast_blocks += fast_blocks;
            if eligible_blocks == armed_blocks {
                arm.stats.eligible_batches += 1;
                if arm.use_fast {
                    arm.stats.fast_batches += 1;
                }
            } else {
                arm.stats.quiescence_fallbacks += 1;
            }
        }
    }

    JobResult {
        finished_at: SimTime::from_micros(t_us),
        stages,
        tasks_per_stage,
        busy_core_us,
        task_retries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, DiskClass};
    use crate::executor::ExecutorManager;
    use crate::noise::NoiseParams;
    use nostop_simcore::SimRng;
    use nostop_workloads::WorkloadKind;

    fn executors(n: u32) -> Vec<Executor> {
        let mut m = ExecutorManager::new(
            Cluster::homogeneous(4, 8, 1.0, DiskClass::Ssd),
            SimDuration::from_secs(2),
        );
        m.bootstrap(n);
        m.executors().to_vec()
    }

    fn quiet_noise() -> NoiseModel {
        NoiseModel::new(NoiseParams::disabled(), 8, SimRng::seed_from_u64(0))
    }

    fn run(records: u64, interval_s: f64, execs: &mut [Executor], stages: u32) -> SimDuration {
        let cost = CostModel::preset(WorkloadKind::LogisticRegression);
        let start = SimTime::from_secs_f64(100.0);
        let r = simulate_job(
            &cost,
            records,
            SimDuration::from_secs_f64(interval_s),
            SimDuration::from_millis(200),
            start,
            execs,
            SimDuration::from_millis(1_500),
            &mut quiet_noise(),
            stages,
            None,
            &mut JobScratch::new(),
            None,
            None,
            &Recorder::disabled(),
        );
        r.finished_at - start
    }

    #[test]
    fn processing_time_grows_with_records() {
        let mut e = executors(10);
        let small = run(10_000, 10.0, &mut e, 8);
        let mut e = executors(10);
        let large = run(200_000, 10.0, &mut e, 8);
        assert!(large > small, "{large} vs {small}");
    }

    #[test]
    fn tasks_follow_block_count() {
        let cost = CostModel::preset(WorkloadKind::WordCount);
        let mut e = executors(10);
        let r = simulate_job(
            &cost,
            100_000,
            SimDuration::from_secs(10),
            SimDuration::from_millis(200),
            SimTime::ZERO,
            &mut e,
            SimDuration::ZERO,
            &mut quiet_noise(),
            2,
            None,
            &mut JobScratch::new(),
            None,
            None,
            &Recorder::disabled(),
        );
        assert_eq!(r.tasks_per_stage, 50);
        assert_eq!(r.stages, 2);
    }

    #[test]
    fn more_executors_speed_up_until_overhead_wins() {
        // Fig 3's fall-then-flatten must emerge from list scheduling +
        // management overhead (fixed 10 s interval, fixed records).
        let time = |n: u32| {
            let mut e = executors(n);
            run(100_000, 10.0, &mut e, 8).as_secs_f64()
        };
        let t2 = time(2);
        let t8 = time(8);
        let t20 = time(20);
        let t32 = time(32);
        assert!(t2 > t8, "{t2} vs {t8}");
        assert!(t8 > t20, "{t8} vs {t20}");
        // At 32 executors the waves stop shrinking (50 tasks: 2 waves
        // either way beyond 25) but management overhead keeps growing.
        assert!(t32 > t20 * 0.95, "{t32} vs {t20}");
    }

    #[test]
    fn fresh_executors_pay_init_once() {
        let cost = CostModel::preset(WorkloadKind::WordCount);
        let mk = || {
            let mut m = ExecutorManager::new(
                Cluster::homogeneous(4, 8, 1.0, DiskClass::Ssd),
                SimDuration::ZERO,
            );
            m.bootstrap(8);
            m.set_target(16, SimTime::ZERO); // 8 fresh ones
            m.executors().to_vec()
        };
        let job = |execs: &mut Vec<Executor>| {
            let start = SimTime::from_secs_f64(10.0);
            simulate_job(
                &cost,
                100_000,
                SimDuration::from_secs(10),
                SimDuration::from_millis(200),
                start,
                execs,
                SimDuration::from_secs(3),
                &mut quiet_noise(),
                2,
                None,
                &mut JobScratch::new(),
                None,
                None,
                &Recorder::disabled(),
            )
            .finished_at
                - start
        };
        let mut fresh = mk();
        let first = job(&mut fresh);
        let second = job(&mut fresh); // init already paid
        assert!(
            first > second,
            "first job pays jar shipping: {first} vs {second}"
        );
        assert!(fresh.iter().all(|e| !e.fresh));
    }

    #[test]
    fn slower_nodes_stretch_the_stage() {
        let cost = CostModel::preset(WorkloadKind::WordCount);
        let mk = |speed: f64| {
            let mut m = ExecutorManager::new(
                Cluster::homogeneous(4, 8, speed, DiskClass::Ssd),
                SimDuration::ZERO,
            );
            m.bootstrap(10);
            m.executors().to_vec()
        };
        let time = |speed: f64| {
            let mut e = mk(speed);
            simulate_job(
                &cost,
                100_000,
                SimDuration::from_secs(10),
                SimDuration::from_millis(200),
                SimTime::ZERO,
                &mut e,
                SimDuration::ZERO,
                &mut quiet_noise(),
                2,
                None,
                &mut JobScratch::new(),
                None,
                None,
                &Recorder::disabled(),
            )
            .finished_at
            .as_secs_f64()
        };
        assert!(time(0.5) > time(1.0), "half-speed nodes take longer");
    }

    #[test]
    fn hdd_pays_more_for_shuffle_stages() {
        let cost = CostModel::preset(WorkloadKind::WordCount); // shuffle_frac 0.3
        let time = |disk: DiskClass| {
            let mut m =
                ExecutorManager::new(Cluster::homogeneous(4, 8, 1.0, disk), SimDuration::ZERO);
            m.bootstrap(10);
            let mut e = m.executors().to_vec();
            simulate_job(
                &cost,
                2_000_000,
                SimDuration::from_secs(10),
                SimDuration::from_millis(200),
                SimTime::ZERO,
                &mut e,
                SimDuration::ZERO,
                &mut quiet_noise(),
                2,
                None,
                &mut JobScratch::new(),
                None,
                None,
                &Recorder::disabled(),
            )
            .finished_at
            .as_secs_f64()
        };
        assert!(time(DiskClass::Hdd) > time(DiskClass::Ssd));
    }

    #[test]
    fn zero_records_still_terminates_with_overheads() {
        let mut e = executors(4);
        let d = run(0, 10.0, &mut e, 8);
        assert!(d > SimDuration::ZERO);
        assert!(d < SimDuration::from_secs(60));
    }

    #[test]
    fn deterministic_without_noise() {
        let a = {
            let mut e = executors(10);
            run(123_456, 10.0, &mut e, 8)
        };
        let b = {
            let mut e = executors(10);
            run(123_456, 10.0, &mut e, 8)
        };
        assert_eq!(a, b);
    }

    #[test]
    fn speculation_rescues_stragglers_on_slow_nodes() {
        // A heterogeneous cluster where some executors run at 30% speed:
        // their tasks are stragglers; with speculation they are re-run on
        // fast idle executors and the stage shortens.
        let cost = CostModel::preset(WorkloadKind::WordCount);
        let mk = || {
            let mut nodes = Cluster::homogeneous(4, 8, 1.0, DiskClass::Ssd);
            nodes.nodes[2].speed = 0.3; // one crippled worker
            let mut m = ExecutorManager::new(nodes, SimDuration::ZERO);
            m.bootstrap(16);
            m.executors().to_vec()
        };
        // 3.2 s interval -> 16 tasks over 16 executors: a single wave, so
        // the slow executors' tasks ARE the critical path. (With many
        // waves the fast executors absorb extra tasks and stragglers do
        // not set the stage end — speculation is correctly a no-op there.)
        let run = |spec: Option<Speculation>| {
            let mut e = mk();
            simulate_job(
                &cost,
                1_000_000,
                SimDuration::from_secs_f64(3.2),
                SimDuration::from_millis(200),
                SimTime::ZERO,
                &mut e,
                SimDuration::ZERO,
                &mut quiet_noise(),
                2,
                spec,
                &mut JobScratch::new(),
                None,
                None,
                &Recorder::disabled(),
            )
            .finished_at
            .as_secs_f64()
        };
        let without = run(None);
        let with = run(Some(Speculation::default()));
        assert!(
            with < without,
            "speculation must shorten the straggling stage: {with} vs {without}"
        );
    }

    #[test]
    fn speculation_is_a_noop_on_homogeneous_quiet_clusters() {
        let cost = CostModel::preset(WorkloadKind::WordCount);
        let run = |spec: Option<Speculation>| {
            let mut e = executors(10);
            simulate_job(
                &cost,
                500_000,
                SimDuration::from_secs(10),
                SimDuration::from_millis(200),
                SimTime::ZERO,
                &mut e,
                SimDuration::ZERO,
                &mut quiet_noise(),
                2,
                spec,
                &mut JobScratch::new(),
                None,
                None,
                &Recorder::disabled(),
            )
            .finished_at
        };
        assert_eq!(run(None), run(Some(Speculation::default())));
    }

    #[test]
    fn speculation_never_lengthens_a_job() {
        // Across noisy seeds, the capped re-schedule can only improve.
        let cost = CostModel::preset(WorkloadKind::LogisticRegression);
        for seed in 0..10u64 {
            let run = |spec: Option<Speculation>| {
                let mut e = executors(12);
                let mut noise =
                    NoiseModel::new(NoiseParams::default(), 8, SimRng::seed_from_u64(seed));
                simulate_job(
                    &cost,
                    100_000,
                    SimDuration::from_secs(10),
                    SimDuration::from_millis(200),
                    SimTime::ZERO,
                    &mut e,
                    SimDuration::ZERO,
                    &mut noise,
                    8,
                    spec,
                    &mut JobScratch::new(),
                    None,
                    None,
                    &Recorder::disabled(),
                )
                .finished_at
            };
            assert!(
                run(Some(Speculation::default())) <= run(None),
                "seed {seed}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one executor")]
    fn empty_executor_set_panics() {
        let mut e: Vec<Executor> = vec![];
        run(100, 10.0, &mut e, 2);
    }
}
