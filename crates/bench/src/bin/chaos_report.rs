//! The chaos grid — writes `BENCH_chaos.json`.
//!
//! Runs every tuning method (NoStop, Bayesian optimization, the static
//! default) against every fault scenario on the same simulated cluster
//! and workload, with the fault injected mid-run at `FAULT_AT`. Each cell
//! records stability before and after the fault and how many post-fault
//! batches it took the method to restore a sustained stable streak —
//! the "recovery" number the fault-injection tests bound.
//!
//! Scenarios (all deterministic, scheduled off the DES clock):
//!
//! * `baseline` — no faults; sanity anchor for the stability columns.
//! * `executor_crash` — 5 executors killed at once, relaunched 60 s later.
//! * `receiver_outage` — the source produces into the void for 2 minutes.
//! * `stragglers` — one node runs at 0.35× speed for 20 minutes.
//! * `task_failures` — 15% per-attempt task failure for 20 minutes.
//!
//! Each scenario is an in-code [`ScenarioSpec`] run through
//! [`run_method`], the scenario driver the `scenarios/` corpus uses. BO
//! parks at its best configuration with no online recovery story, which
//! is exactly what the chaos columns should show.
//!
//! Every cell is a pure function of `(scenario, method, SEED)`, so the
//! grid runs through the parallel fabric and the report is byte-identical
//! for any `NOSTOP_JOBS` — CI diffs the stdout of a serial and an 8-way
//! run.

use nostop_bench::parallel::{jobs, map_cells};
use nostop_bench::scenario::{log_means, run_method};
use nostop_core::scenario::{ClusterKind, FaultEvent, RateSpec, ScenarioSpec, SkewSpec};
use nostop_core::system::BatchObservation;
use nostop_simcore::json::{self, Json};
use nostop_simcore::{SimDuration, SimTime};
use nostop_workloads::WorkloadKind;

const KIND: WorkloadKind = WorkloadKind::WordCount;
const SEED: u64 = 7;
/// Virtual time the fault lands at, seconds.
const FAULT_AT: f64 = 1_200.0;
/// Virtual horizon each cell runs to, seconds.
const HORIZON: f64 = 3_600.0;
/// A method has "recovered" when this many consecutive post-fault batches
/// are stable.
const STREAK: usize = 5;
/// NoStop must re-stabilize within this many post-fault batches on the
/// recoverable scenarios — the bound the fault-injection tests also use.
const RECOVERY_BOUND: i64 = 60;

const SCENARIOS: [&str; 5] = [
    "baseline",
    "executor_crash",
    "receiver_outage",
    "stragglers",
    "task_failures",
];
const METHODS: [&str; 3] = ["nostop", "bo", "static"];

fn faults_for(scenario: &str) -> Vec<FaultEvent> {
    let t = SimTime::from_secs_f64;
    match scenario {
        "baseline" => Vec::new(),
        "executor_crash" => vec![FaultEvent::ExecutorCrash {
            at: t(FAULT_AT),
            count: 5,
            relaunch_after: Some(SimDuration::from_secs(60)),
        }],
        "receiver_outage" => vec![FaultEvent::ReceiverOutage {
            from: t(FAULT_AT),
            until: t(FAULT_AT + 120.0),
        }],
        "stragglers" => vec![FaultEvent::NodeSlowdown {
            node: 2,
            from: t(FAULT_AT),
            until: t(FAULT_AT + 1_200.0),
            factor: 0.35,
        }],
        "task_failures" => vec![FaultEvent::TaskFailures {
            from: t(FAULT_AT),
            until: t(FAULT_AT + 1_200.0),
            probability: 0.15,
        }],
        other => panic!("unknown scenario `{other}`"),
    }
}

/// The paper's WordCount arrivals (uniform over its Fig-5 range, redrawn
/// every 30 s, off the default rate seed `SEED ^ 0x5EED`) on the paper
/// cluster, with the scenario's fault.
fn spec_for(scenario: &str) -> ScenarioSpec {
    let (min_rate, max_rate) = KIND.paper_rate_range();
    ScenarioSpec {
        name: scenario.to_string(),
        workload: KIND.name().to_string(),
        cluster: ClusterKind::Paper,
        seed: SEED,
        rate_seed: None,
        horizon_s: HORIZON,
        rounds: None,
        methods: METHODS.iter().map(|m| m.to_string()).collect(),
        rate: RateSpec::UniformRandom {
            min_rate,
            max_rate,
            hold_secs: 30.0,
        },
        skew: SkewSpec::None,
        faults: faults_for(scenario),
    }
}

struct CellResult {
    scenario: &'static str,
    method: &'static str,
    batches: usize,
    pre_stable: f64,
    post_stable: f64,
    /// Mean end-to-end delay before/after the fault, seconds — the other
    /// axis: the static default is trivially stable at 20.5 s precisely
    /// because it never tries for a lower delay.
    pre_delay: f64,
    post_delay: f64,
    /// Post-fault batches until `STREAK` consecutive stable ones began
    /// (`-1` = never recovered within the horizon).
    recovery_batches: i64,
    dropped_records: u64,
    executor_failures: u64,
    task_retries: u64,
}

fn run_cell(scenario: &'static str, method: &'static str) -> CellResult {
    let (sys, _) = run_method(&spec_for(scenario), method).expect("chaos cells are valid");
    let (pre, post): (Vec<BatchObservation>, Vec<BatchObservation>) =
        sys.log.iter().partition(|b| b.completed_at_s < FAULT_AT);
    let (pre_stable, pre_delay, _) = log_means(&pre);
    let (post_stable, post_delay, _) = log_means(&post);
    let recovery_batches = post
        .windows(STREAK)
        .position(|w| w.iter().all(|b| b.is_stable()))
        .map(|i| i as i64)
        .unwrap_or(-1);
    let listener = sys.inner.engine().listener();
    CellResult {
        scenario,
        method,
        batches: sys.log.len(),
        pre_stable,
        post_stable,
        pre_delay,
        post_delay,
        recovery_batches,
        dropped_records: sys.inner.engine().dropped_records(),
        executor_failures: listener.executor_failures(),
        task_retries: listener.task_retries(),
    }
}
fn main() {
    let cells: Vec<(&'static str, &'static str)> = SCENARIOS
        .iter()
        .flat_map(|&s| METHODS.iter().map(move |&m| (s, m)))
        .collect();
    let results = map_cells(&cells, |&(s, m)| run_cell(s, m));

    // The acceptance contract: NoStop restores a sustained stable streak
    // within a bounded number of post-fault batches on the scenarios a
    // tuner *can* recover from (crash capacity returns; the outage ends).
    for r in &results {
        if r.method == "nostop" && matches!(r.scenario, "executor_crash" | "receiver_outage") {
            assert!(
                (0..=RECOVERY_BOUND).contains(&r.recovery_batches),
                "nostop failed to recover on {}: {} batches (bound {})",
                r.scenario,
                r.recovery_batches,
                RECOVERY_BOUND
            );
        }
    }

    let rows: Vec<Json> = results
        .iter()
        .map(|r| {
            json::obj(vec![
                ("scenario", json::str(r.scenario)),
                ("method", json::str(r.method)),
                ("batches", json::uint(r.batches as u64)),
                ("preStableFraction", json::num(r.pre_stable)),
                ("postStableFraction", json::num(r.post_stable)),
                ("preMeanDelayS", json::num(r.pre_delay)),
                ("postMeanDelayS", json::num(r.post_delay)),
                (
                    "recoveryBatches",
                    if r.recovery_batches < 0 {
                        Json::Null
                    } else {
                        json::uint(r.recovery_batches as u64)
                    },
                ),
                ("droppedRecords", json::uint(r.dropped_records)),
                ("executorFailures", json::uint(r.executor_failures)),
                ("taskRetries", json::uint(r.task_retries)),
            ])
        })
        .collect();

    let report = json::obj(vec![
        ("schema", json::str("nostop-chaos/1")),
        ("workload", json::str(KIND.name())),
        ("seed", json::uint(SEED)),
        ("faultAtS", json::num(FAULT_AT)),
        ("horizonS", json::num(HORIZON)),
        ("recoveryStreak", json::uint(STREAK as u64)),
        ("cells", Json::Arr(rows)),
    ]);

    let text = report.to_string_pretty();
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_chaos.json".to_string());
    std::fs::write(&path, format!("{text}\n")).expect("write BENCH_chaos.json");
    println!("{text}");
    eprintln!("wrote {path} (jobs={})", jobs());
}
