//! Golden fleet scenarios, one per arbiter policy plus the correlated
//! crash drill. The arbiter's unit tests pin the same behaviors at the
//! ledger level with hand-built demand; these run the full fleet —
//! engines, controllers, noise, faults — and check the *system-level*
//! outcome the policy is meant to produce.

use nostop::core::arbiter::{ArbiterPolicy, LedgerEventKind};
use nostop::core::scenario::FaultEvent;
use nostop::sim::fleet::{FleetSim, TenantSpec};
use nostop::sim::{check_ledger_conservation, FaultPlan, StreamConfig};
use nostop::simcore::{SimDuration, SimTime};
use nostop::workloads::WorkloadKind;

fn spec(kind: WorkloadKind, fleet_seed: u64, tenant: u32) -> TenantSpec {
    TenantSpec::paper(kind, fleet_seed, tenant)
}

/// Fair share with one hog: a tenant that starts with (and keeps asking
/// for) a huge executor footprint must not starve the small tenants —
/// max-min gives the small tenants their full demand before the hog gets
/// seconds.
#[test]
fn fair_share_keeps_small_tenants_alive_under_a_hog() {
    let mut specs: Vec<TenantSpec> = (0..4)
        .map(|i| spec(WorkloadKind::WordCount, 77, i))
        .collect();
    // Tenant 0 is the hog: it opens wanting 40 executors.
    specs[0].initial = StreamConfig::new(SimDuration::from_secs(15), 40);
    for s in specs.iter_mut().skip(1) {
        s.initial = StreamConfig::new(SimDuration::from_secs(15), 6);
    }
    let mut fleet = FleetSim::new(&specs, Some(24), ArbiterPolicy::FairShare);
    fleet.run_epochs(6);
    check_ledger_conservation(fleet.arbiter().ledger()).unwrap();

    // Nobody starves: every small tenant holds executors and keeps
    // completing batches (its controller never stalled).
    for i in 1..4 {
        assert!(
            fleet.arbiter().allocation(i) > 0,
            "tenant {i} starved under the hog"
        );
        assert_eq!(fleet.tenant_controller(i).rounds(), 6);
        assert!(fleet.tenant_system(i).engine().total_produced() > 0);
    }
    // And the hog was actually constrained, not the small tenants.
    let hog_grant = fleet.last_grants()[0];
    assert!(
        !hog_grant.satisfied,
        "budget 24 cannot satisfy a 40-want hog"
    );
    assert!(fleet.tenant_system(0).engine().executor_cap() < u32::MAX);
}

/// Strict priority: under a budget crunch the high-priority tenant ends
/// up satisfied while the lowest-priority tenant absorbs the shortage,
/// and every involuntary cut lands on the lowest priority first.
#[test]
fn strict_priority_shields_the_high_priority_tenant() {
    let mut specs: Vec<TenantSpec> = (0..3)
        .map(|i| spec(WorkloadKind::LogisticRegression, 88, i))
        .collect();
    specs[0].priority = 1; // victim
    specs[1].priority = 5;
    specs[2].priority = 9; // shielded
    for s in specs.iter_mut() {
        s.initial = StreamConfig::new(SimDuration::from_secs(15), 12);
    }
    let mut fleet = FleetSim::new(&specs, Some(20), ArbiterPolicy::StrictPriority);
    fleet.run_epochs(6);
    check_ledger_conservation(fleet.arbiter().ledger()).unwrap();

    let grants = fleet.last_grants();
    assert!(
        grants[2].satisfied,
        "top priority must be fully served under strict priority"
    );
    assert!(
        grants[0].granted <= grants[2].granted,
        "lowest priority may not out-hold the highest"
    );
    // Every preemption in the whole run hit a tenant with priority lower
    // than the best-served one: tenant 2 is never a victim.
    assert!(fleet
        .arbiter()
        .ledger()
        .iter()
        .filter(|e| e.kind == LedgerEventKind::Preempt)
        .all(|e| e.tenant != 2));
}

/// Reconfiguration-storm damping: every SPSA controller reconfigures at
/// every epoch, so an N-tenant contended fleet is a standing storm — the
/// arbiter must coalesce each barrier's simultaneous demand changes into
/// one allocation pass instead of reacting per request.
#[test]
fn arbiter_coalesces_simultaneous_reconfigurations() {
    let specs: Vec<TenantSpec> = (0..4)
        .map(|i| spec(WorkloadKind::PageAnalyze, 99, i))
        .collect();
    let mut fleet = FleetSim::new(&specs, Some(16), ArbiterPolicy::FairShare);
    fleet.set_coalesce_threshold(2);
    fleet.run_epochs(8);
    check_ledger_conservation(fleet.arbiter().ledger()).unwrap();

    let stats = fleet.arbiter().stats();
    assert!(
        stats.coalesced_rounds > 0,
        "perturbing controllers must trip the storm detector (K=2)"
    );
    // Damping: the ledger shows at most one batch of decisions per epoch
    // (epochs are the only granularity — no per-request cascades).
    let epochs: std::collections::BTreeSet<u64> =
        fleet.arbiter().ledger().iter().map(|e| e.epoch).collect();
    assert!(epochs.len() as u64 <= fleet.epoch());
}

/// Budget-constrained recovery: all three tenants lose two executors at
/// the same instant (a rack failure) with relaunch pending, under a
/// budget that cannot absorb everyone's recovery at once. The fleet must
/// keep every tenant live, keep the ledger conserving, and end with the
/// pool fully re-utilized — reproducibly.
#[test]
fn correlated_crash_recovers_under_budget() {
    let crash = SimTime::from_secs_f64(90.0);
    let specs: Vec<TenantSpec> = (0..3)
        .map(|i| {
            let mut s = spec(WorkloadKind::WordCount, 123, i);
            s.initial = StreamConfig::new(SimDuration::from_secs(15), 8);
            s.params.faults = FaultPlan::new(vec![FaultEvent::ExecutorCrash {
                at: crash,
                count: 2,
                relaunch_after: Some(SimDuration::from_secs(30)),
            }]);
            s
        })
        .collect();
    let run = || {
        let mut fleet = FleetSim::new(&specs, Some(18), ArbiterPolicy::FairShare);
        fleet.run_epochs(10);
        fleet
    };
    let fleet = run();
    check_ledger_conservation(fleet.arbiter().ledger()).unwrap();
    assert!(fleet.arbiter().in_use() <= 18);
    for i in 0..3 {
        let e = fleet.tenant_system(i).engine();
        assert!(
            e.now() > crash,
            "tenant {i} never reached the crash instant"
        );
        assert!(e.executor_count() >= 1, "tenant {i} died in recovery");
        assert_eq!(
            fleet.tenant_controller(i).rounds(),
            10,
            "tenant {i}'s controller stalled"
        );
    }
    // The drill replays bit-for-bit (correlated faults included).
    assert_eq!(fleet.summary_jsonl(), run().summary_jsonl());
}
