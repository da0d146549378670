//! Fleet-scale benchmark + chaos grid — writes `BENCH_fleet.json`.
//!
//! Exercises the multi-tenant layer at its headline scale: 100-tenant
//! fleets under every arbiter policy, plus a chaos grid that extends the
//! single-job fault drills to *correlated* multi-tenant faults (every
//! tenant in a cell loses executors at the same instant — a rack event —
//! and must recover under whatever budget the arbiter leaves it).
//!
//! Everything printed to **stdout** is a pure function of `(specs,
//! budget, policy)` — digests, ledger counts, arbiter stats — so CI can
//! diff the output byte-for-byte across runs *and* across the fleet fast
//! path and its probe mode (`NOSTOP_PROBE=1`).
//! Wall-clock timings go to **stderr** and — as `wall_ms`, one run per
//! scenario — into the report **file only**; the file is the one artifact
//! allowed to differ between hosts and modes.
//!
//! Before writing anything it asserts that every scenario's ledger
//! conserves the budget and that every tenant's controller ran every
//! epoch. The 2,000-tenant steady scenario additionally exercises ledger
//! checkpointing and requires the fast path to engage (when enabled).

use nostop_bench::driver::steady_fleet;
use nostop_bench::report::with_wall;
use nostop_core::arbiter::ArbiterPolicy;
use nostop_core::scenario::FaultEvent;
use nostop_simcore::json::{self, Json};
use nostop_simcore::{SimDuration, SimTime};
use nostop_workloads::WorkloadKind;
use spark_sim::fleet::{FleetSim, TenantSpec};
use spark_sim::{check_ledger_conservation, FaultPlan};
use std::time::Instant;

/// Headline fleet size.
const FLEET_TENANTS: u32 = 100;
/// Controller rounds per tenant in the policy scenarios.
const FLEET_EPOCHS: u64 = 4;
/// Executor budget for the contended scenarios — far below the ~100×8
/// aggregate demand, so every barrier is a real allocation problem.
const FLEET_BUDGET: u32 = 600;
/// Chaos-grid fleet size and budget (smaller cells, more of them).
const CHAOS_TENANTS: u32 = 12;
const CHAOS_BUDGET: u32 = 72;
const CHAOS_EPOCHS: u64 = 8;
/// The sparse-stepping scenario: a steady fleet at real fleet scale.
const STEADY_TENANTS: u32 = 2_000;
const STEADY_EPOCHS: u64 = 40;
/// Ledger tail capacity for the steady scenario's checkpointing mode.
const STEADY_CHECKPOINT_CAP: usize = 4_096;
/// The instant every tenant in a chaos cell loses executors together.
const CHAOS_CRASH_SECS: f64 = 90.0;

/// The three policies every scenario axis sweeps.
const POLICIES: [ArbiterPolicy; 3] = [
    ArbiterPolicy::FairShare,
    ArbiterPolicy::StrictPriority,
    ArbiterPolicy::PreemptWithGrace { grace_epochs: 2 },
];

/// Mixed-workload, mixed-priority tenant population.
fn fleet_specs(n: u32, fleet_seed: u64) -> Vec<TenantSpec> {
    (0..n)
        .map(|i| {
            let kind = WorkloadKind::ALL[(i % 4) as usize];
            let mut spec = TenantSpec::paper(kind, fleet_seed, i);
            spec.priority = 1 + (i % 5);
            spec
        })
        .collect()
}

/// One deterministic scenario row: run the fleet once, assert
/// conservation, and report digests + arbiter accounting.
/// Returns `(row, wall_ms)` — the wall time goes to stderr and the
/// report *file*, never to stdout.
fn scenario_row(
    name: &str,
    specs: &[TenantSpec],
    budget: Option<u32>,
    policy: ArbiterPolicy,
    epochs: u64,
) -> (Json, f64) {
    let start = Instant::now();
    let mut fleet = FleetSim::new(specs, budget, policy);
    fleet.run_epochs(epochs);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    check_ledger_conservation(fleet.arbiter().ledger())
        .unwrap_or_else(|e| panic!("{name}: ledger conservation violated: {e}"));
    for (i, _) in specs.iter().enumerate() {
        assert_eq!(
            fleet.tenant_controller(i).rounds(),
            epochs,
            "{name}: tenant {i}'s controller stalled"
        );
    }
    let satisfied = fleet.last_grants().iter().filter(|g| g.satisfied).count();
    let stats = fleet.arbiter().stats();
    eprintln!(
        "scenario {name:<28} {:>3} tenants x{epochs} epochs  {wall_ms:>8.1} ms",
        specs.len()
    );
    let row = json::obj(vec![
        ("scenario", json::str(name)),
        ("tenants", json::uint(specs.len() as u64)),
        ("epochs", json::uint(epochs)),
        (
            "budget",
            budget.map(|b| json::uint(b as u64)).unwrap_or(Json::Null),
        ),
        ("policy", json::str(policy.name())),
        ("digest", json::str(format!("{:016x}", fleet.digest()))),
        ("in_use", json::uint(fleet.arbiter().in_use())),
        ("satisfied_tenants", json::uint(satisfied as u64)),
        (
            "ledger_len",
            json::uint(fleet.arbiter().ledger().len() as u64),
        ),
        ("grants", json::uint(stats.grants)),
        ("denies", json::uint(stats.denies)),
        ("queues", json::uint(stats.queues)),
        ("releases", json::uint(stats.releases)),
        ("preemptions", json::uint(stats.preemptions)),
        ("revocations", json::uint(stats.revocations)),
        ("coalesced_rounds", json::uint(stats.coalesced_rounds)),
    ]);
    (row, wall_ms)
}

/// The sparse-stepping scenario: 2,000 steady tenants with ledger
/// checkpointing on. The stdout row carries only mode-independent
/// values (the digest, the classification counters — skippable epochs,
/// their histogram by orbit period, failed arming checks by reason —
/// and the checkpoint base) so the fast path and probe mode print
/// byte-identical reports;
/// the actually-skipped count joins `wall_ms` in the file only.
/// Returns `(stdout_row, wall_ms, skipped_epochs)`.
fn steady_scale_row() -> (Json, f64, u64) {
    let specs = steady_fleet(2026, STEADY_TENANTS);
    let start = Instant::now();
    let mut fleet = FleetSim::new(&specs, None, ArbiterPolicy::FairShare);
    fleet.enable_ledger_checkpointing(STEADY_CHECKPOINT_CAP);
    fleet.run_epochs(STEADY_EPOCHS);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    fleet
        .arbiter()
        .check_conservation()
        .unwrap_or_else(|e| panic!("steady_2000: ledger conservation violated: {e}"));
    if fleet.fastpath_enabled() {
        assert!(
            fleet.total_skipped_epochs() > 0,
            "steady_2000: the fast path never engaged"
        );
    } else {
        assert_eq!(
            fleet.total_skipped_epochs(),
            0,
            "steady_2000: probe mode must never skip"
        );
    }
    eprintln!(
        "scenario {:<28} {STEADY_TENANTS:>3} tenants x{STEADY_EPOCHS} epochs  {wall_ms:>8.1} ms  \
         ({} epochs fast-forwarded)",
        "steady_2000",
        fleet.total_skipped_epochs()
    );
    let row = json::obj(vec![
        ("scenario", json::str("steady_2000")),
        ("tenants", json::uint(STEADY_TENANTS as u64)),
        ("epochs", json::uint(STEADY_EPOCHS)),
        ("budget", Json::Null),
        ("policy", json::str(ArbiterPolicy::FairShare.name())),
        ("digest", json::str(format!("{:016x}", fleet.digest()))),
        ("would_skip_epochs", json::uint(fleet.would_skip_epochs())),
        (
            "would_skip_by_period",
            Json::Arr(
                fleet
                    .would_skip_by_period()
                    .iter()
                    .map(|&n| json::uint(n))
                    .collect(),
            ),
        ),
        (
            "arm_failures",
            json::obj(
                fleet
                    .arm_failures()
                    .iter()
                    .map(|(&reason, &n)| (reason, json::uint(n)))
                    .collect(),
            ),
        ),
        (
            "ledger_checkpoint_base_seq",
            json::uint(fleet.arbiter().base_seq()),
        ),
        (
            "ledger_len",
            json::uint(fleet.arbiter().ledger().len() as u64),
        ),
    ]);
    (row, wall_ms, fleet.total_skipped_epochs())
}

/// Attach the correlated rack fault to every tenant in a population.
fn with_correlated_crash(
    mut specs: Vec<TenantSpec>,
    relaunch: Option<SimDuration>,
) -> Vec<TenantSpec> {
    for spec in specs.iter_mut() {
        spec.params.faults = FaultPlan::new(vec![FaultEvent::ExecutorCrash {
            at: SimTime::from_secs_f64(CHAOS_CRASH_SECS),
            count: 2,
            relaunch_after: relaunch,
        }]);
    }
    specs
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_fleet.json".to_string());

    let specs = fleet_specs(FLEET_TENANTS, 2026);

    // --- Policy scenarios at headline scale ---
    let mut scenario_rows = vec![scenario_row(
        "unconstrained",
        &specs,
        None,
        ArbiterPolicy::FairShare,
        FLEET_EPOCHS,
    )];
    for policy in POLICIES {
        scenario_rows.push(scenario_row(
            &format!("contended_{}", policy.name()),
            &specs,
            Some(FLEET_BUDGET),
            policy,
            FLEET_EPOCHS,
        ));
    }

    // --- Sparse stepping at fleet scale ---
    let (steady_row, steady_wall, steady_skipped) = steady_scale_row();

    // --- Chaos grid: policies × correlated multi-tenant faults ---
    let mut chaos_rows = Vec::new();
    for policy in POLICIES {
        for (fault_name, relaunch) in [
            ("rack_crash_relaunch_30s", Some(SimDuration::from_secs(30))),
            ("rack_crash_permanent", None),
        ] {
            let specs = with_correlated_crash(fleet_specs(CHAOS_TENANTS, 777), relaunch);
            let (mut row, wall) = scenario_row(
                &format!("{}__{fault_name}", policy.name()),
                &specs,
                Some(CHAOS_BUDGET),
                policy,
                CHAOS_EPOCHS,
            );
            if let Json::Obj(fields) = &mut row {
                fields.push(("fault".to_string(), json::str(fault_name)));
                fields.push(("crash_at_s".to_string(), json::num(CHAOS_CRASH_SECS)));
            }
            chaos_rows.push((row, wall));
        }
    }

    // Two renderings of the same report: stdout stays a pure function of
    // (specs, budget, policy) for CI byte-diffs; the file additionally
    // carries wall times and the mode-dependent skip count.
    let render = |with_timings: bool| {
        let steady_file_row = if with_timings {
            let mut r = with_wall(&steady_row, steady_wall);
            if let Json::Obj(fields) = &mut r {
                fields.push(("skipped_epochs".to_string(), json::uint(steady_skipped)));
            }
            r
        } else {
            steady_row.clone()
        };
        let pick = |rows: &[(Json, f64)]| -> Vec<Json> {
            rows.iter()
                .map(|(row, wall)| {
                    if with_timings {
                        with_wall(row, *wall)
                    } else {
                        row.clone()
                    }
                })
                .collect()
        };
        json::obj(vec![
            ("schema", json::str("nostop-fleet/1")),
            ("scenarios", Json::Arr(pick(&scenario_rows))),
            ("steady_scale", steady_file_row),
            ("chaos_grid", Json::Arr(pick(&chaos_rows))),
        ])
    };

    let file_text = render(true).to_string_pretty();
    std::fs::write(&path, format!("{file_text}\n")).expect("write BENCH_fleet.json");
    println!("{}", render(false).to_string_pretty());
    eprintln!("wrote {path}");
}
