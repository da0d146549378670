//! Differential proof of the fleet layer: multi-tenancy is built *around*
//! the single-job engine, never *into* it.
//!
//! Three contracts:
//!
//! 1. **Degenerate fleet ≡ bare engine.** A 1-tenant fleet with an
//!    unlimited budget must be bit-identical — trace JSONL, counters, RNG
//!    fingerprint, controller state — to driving the same engine and
//!    controller directly. The arbiter's cap stays `u32::MAX` (the
//!    identity in `min`) and its pressure stays exactly `1.0` (a bitwise
//!    no-op in the task-speed product), so the fleet plumbing has no
//!    observable at all to hide behind.
//! 2. **Replay at scale.** A 100-tenant contended fleet is a pure
//!    function of `(specs, budget, policy)`: its byte-level summary
//!    (per-tenant RNG fingerprints, clocks, listener totals, plus the
//!    full arbiter ledger) must not change from one run to the next.
//! 3. **One dense pass per barrier.** Phase B is exactly one
//!    [`ExecutorArbiter::arbitrate`] call over the id-ordered demand
//!    vector: a standalone arbiter fed each barrier's requests, rebuilt
//!    from public fleet state, issues the same grants at every barrier
//!    and ends on the same ledger.

use nostop::core::arbiter::{ArbiterPolicy, ResourceRequest};
use nostop::obs::Recorder;
use nostop::sim::arbiter::ExecutorArbiter;
use nostop::sim::fleet::{FleetSim, TenantSpec};
use nostop::simcore::SimTime;
use nostop::workloads::WorkloadKind;

/// Everything an observer could distinguish a tenant run by.
struct RunOutcome {
    trace: String,
    rng: [u64; 12],
    rounds: u64,
    best: Option<(Vec<f64>, f64)>,
    executors: u32,
    produced: u64,
}

/// Drive `spec` for `epochs` controller rounds as a bare (fleet-less)
/// engine + controller pair, using the canonical solo track names.
fn run_bare(spec: &TenantSpec, epochs: u64) -> RunOutcome {
    let mut engine = spec.build_engine();
    let recorder = Recorder::ring(65_536);
    engine.set_recorder(&recorder);
    let mut sys = nostop::sim::SimSystem::new(engine);
    let mut ctrl = spec.build_controller();
    ctrl.set_recorder(&recorder);
    for _ in 0..epochs {
        ctrl.run_round(&mut sys);
    }
    RunOutcome {
        trace: recorder.snapshot().to_jsonl(),
        rng: sys.engine().rng_fingerprint(),
        rounds: ctrl.rounds(),
        best: ctrl.best_config(),
        executors: sys.engine().executor_count(),
        produced: sys.engine().total_produced(),
    }
}

/// Drive the same spec as a 1-tenant fleet with an unlimited budget, then
/// rewrite the tenant-qualified track names to the solo ones so the
/// traces are directly comparable.
fn run_fleet_of_one(spec: &TenantSpec, epochs: u64) -> RunOutcome {
    let mut fleet = FleetSim::new(std::slice::from_ref(spec), None, ArbiterPolicy::FairShare);
    fleet.enable_recorders(65_536);
    fleet.run_epochs(epochs);
    let trace = fleet
        .tenant_trace_jsonl(0)
        .replace("\"track\":\"t0.engine\"", "\"track\":\"engine\"")
        .replace("\"track\":\"t0.ctrl\"", "\"track\":\"controller\"");
    let sys = fleet.tenant_system(0);
    let ctrl = fleet.tenant_controller(0);
    RunOutcome {
        trace,
        rng: sys.engine().rng_fingerprint(),
        rounds: ctrl.rounds(),
        best: ctrl.best_config(),
        executors: sys.engine().executor_count(),
        produced: sys.engine().total_produced(),
    }
}

fn assert_identical(fleet: &RunOutcome, bare: &RunOutcome, ctx: &str) {
    // Trace equality covers every span, instant, *and* the counter
    // trailers (they carry names only, no track), byte for byte.
    assert_eq!(fleet.trace, bare.trace, "{ctx}: traces diverged");
    assert_eq!(fleet.rng, bare.rng, "{ctx}: RNG fingerprints diverged");
    assert_eq!(
        fleet.rounds, bare.rounds,
        "{ctx}: controller rounds diverged"
    );
    assert_eq!(fleet.best, bare.best, "{ctx}: best configs diverged");
    assert_eq!(fleet.executors, bare.executors, "{ctx}: executors diverged");
    assert_eq!(fleet.produced, bare.produced, "{ctx}: produced diverged");
}

/// Contract 1, across all four workloads: an unconstrained 1-tenant fleet
/// is indistinguishable from the bare engine.
#[test]
fn fleet_of_one_is_bit_identical_to_bare_engine() {
    for (i, kind) in WorkloadKind::ALL.iter().enumerate() {
        let spec = TenantSpec::paper(*kind, 40 + i as u64, 0);
        let bare = run_bare(&spec, 12);
        let fleet = run_fleet_of_one(&spec, 12);
        assert_identical(&fleet, &bare, &format!("{kind:?}"));
        // The arbiter's "fleet.cap" / "fleet.pressure" instants fire only
        // on actual changes; an unconstrained fleet must emit none.
        assert!(
            !fleet.trace.contains("fleet.cap") && !fleet.trace.contains("fleet.pressure"),
            "{kind:?}: unconstrained fleet touched the engine"
        );
    }
}

/// A finite budget that still covers every tenant's demand must also be
/// invisible: the arbiter grants in full, caps stay at the identity.
#[test]
fn covering_budget_is_also_invisible() {
    let spec = TenantSpec::paper(WorkloadKind::PageAnalyze, 123, 0);
    let bare = run_bare(&spec, 10);
    let mut fleet = FleetSim::new(
        std::slice::from_ref(&spec),
        Some(10_000),
        ArbiterPolicy::StrictPriority,
    );
    fleet.enable_recorders(65_536);
    fleet.run_epochs(10);
    let trace = fleet
        .tenant_trace_jsonl(0)
        .replace("\"track\":\"t0.engine\"", "\"track\":\"engine\"")
        .replace("\"track\":\"t0.ctrl\"", "\"track\":\"controller\"");
    assert_eq!(trace, bare.trace, "covering budget perturbed the engine");
    assert_eq!(
        fleet.tenant_system(0).engine().rng_fingerprint(),
        bare.rng,
        "covering budget perturbed the RNG"
    );
}

/// Build the big contended fleet of the replay contract: 100 tenants,
/// mixed workloads and priorities, budget far below aggregate demand.
fn big_fleet_specs() -> Vec<TenantSpec> {
    (0..100u32)
        .map(|i| {
            let kind = WorkloadKind::ALL[(i % 4) as usize];
            let mut spec = TenantSpec::paper(kind, 2026, i);
            spec.priority = 1 + (i % 5);
            spec
        })
        .collect()
}

fn run_big_fleet(specs: &[TenantSpec], policy: ArbiterPolicy) -> String {
    let mut fleet = FleetSim::new(specs, Some(600), policy);
    fleet.run_epochs(3);
    fleet.summary_jsonl()
}

/// Contract 2: the 100-tenant summary (per-tenant fingerprints + the full
/// arbiter ledger) replays byte-identically from one run to the next.
/// The CI fleet leg additionally diffs two runs of the `fleet_report`
/// binary.
#[test]
fn hundred_tenant_fleet_replays_byte_identically() {
    for policy in [
        ArbiterPolicy::FairShare,
        ArbiterPolicy::PreemptWithGrace { grace_epochs: 2 },
    ] {
        let specs = big_fleet_specs();
        let first = run_big_fleet(&specs, policy);
        assert!(!first.is_empty());
        assert_eq!(
            first,
            run_big_fleet(&specs, policy),
            "{}: summary changed on replay",
            policy.name(),
        );
    }
}

/// Step `specs` as a fleet for `epochs` barriers and replay each barrier
/// on a standalone arbiter with the fleet's budget, policy and
/// coalescing threshold; returns how many barriers changed some want.
fn replay_barriers(
    specs: &[TenantSpec],
    budget: Option<u32>,
    policy: ArbiterPolicy,
    epochs: u64,
) -> u64 {
    let mut fleet = FleetSim::new(specs, budget, policy);
    let mut arbiter = ExecutorArbiter::new(budget, policy, FleetSim::DEFAULT_COALESCE_K);
    let mut last_wants: Vec<u32> = Vec::new();
    let mut demand_changes = 0;
    for epoch in 0..epochs {
        fleet.step_epoch();
        let requests: Vec<ResourceRequest> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| ResourceRequest {
                tenant: i as u32,
                priority: spec.priority,
                want: fleet.tenant_system(i).engine().desired_executors(),
            })
            .collect();
        let frontier = (0..specs.len())
            .map(|i| fleet.tenant_system(i).engine().now())
            .max()
            .unwrap_or(SimTime::ZERO);
        let wants: Vec<u32> = requests.iter().map(|r| r.want).collect();
        demand_changes += (epoch > 0 && wants != last_wants) as u64;
        last_wants = wants;
        let grants = arbiter.arbitrate(epoch, frontier, &requests);
        assert_eq!(
            fleet.last_grants(),
            grants,
            "{}: grants diverged at barrier {epoch}",
            policy.name()
        );
    }
    assert_eq!(
        fleet.arbiter().ledger(),
        arbiter.ledger(),
        "{}: ledgers diverged",
        policy.name()
    );
    assert_eq!(fleet.arbiter().stats(), arbiter.stats());
    demand_changes
}

/// Contract 3 on a contended 100-tenant fleet (every policy) and on an
/// unconstrained steady fleet whose tenants settle, so that most
/// barriers change no want and the rest change a few.
#[test]
fn phase_b_is_one_dense_arbiter_pass_per_barrier() {
    let specs = big_fleet_specs();
    for policy in [
        ArbiterPolicy::FairShare,
        ArbiterPolicy::StrictPriority,
        ArbiterPolicy::PreemptWithGrace { grace_epochs: 2 },
    ] {
        replay_barriers(&specs, Some(600), policy, 4);
    }
    let kinds = [WorkloadKind::WordCount, WorkloadKind::PageAnalyze];
    let steady: Vec<TenantSpec> = (0..16u32)
        .map(|i| TenantSpec::steady(kinds[i as usize % 2], 2026, i))
        .collect();
    let changes = replay_barriers(&steady, None, ArbiterPolicy::FairShare, 40);
    assert!(
        (1..39).contains(&changes),
        "steady fleet: {changes} of 39 barriers changed demand"
    );
}
