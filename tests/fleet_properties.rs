//! Property battery for the fleet arbiter and the fleet simulation.
//!
//! Random tenant mixes × demand walks × policies (plus correlated fault
//! plans at the fleet level) must always satisfy:
//!
//! * **No deadlock** — every barrier terminates and the run completes
//!   (the arbiter is level-triggered: there is no handshake to lose).
//! * **Conservation** — replaying `in_use_delta` over the ledger from
//!   zero reproduces every entry's `in_use`, which never exceeds the
//!   budget; at every barrier the summed grants equal the arbiter's
//!   in-use total and no tenant holds more than it asked for.
//! * **Grace bound** — every `Revoke` has a matching `Preempt` for the
//!   same tenant exactly `grace_epochs` barriers earlier (zero for the
//!   immediate policies), with at least the revoked amount.
//! * **Liveness** — once aggregate demand fits the budget, every queued
//!   request resolves at the very next barrier.

use nostop::core::arbiter::{ArbiterPolicy, LedgerEventKind, ResourceRequest};
use nostop::core::scenario::FaultEvent;
use nostop::sim::arbiter::{check_ledger_conservation, ExecutorArbiter};
use nostop::sim::fleet::{FleetSim, TenantSpec};
use nostop::sim::FaultPlan;
use nostop::simcore::{SimRng, SimTime};
use nostop::workloads::WorkloadKind;
use proptest::prelude::*;

fn policy_from(ix: usize, grace: u32) -> ArbiterPolicy {
    match ix {
        0 => ArbiterPolicy::FairShare,
        1 => ArbiterPolicy::StrictPriority,
        _ => ArbiterPolicy::PreemptWithGrace {
            grace_epochs: grace,
        },
    }
}

proptest! {
    /// Arbiter-level invariants over random demand walks.
    #[test]
    fn ledger_invariants_hold_over_random_demand(
        seed in 0u64..10_000,
        n in 1usize..12,
        budget in 1u32..200,
        policy_ix in 0usize..3,
        grace in 1u32..5,
        epochs in 5u64..40,
    ) {
        let policy = policy_from(policy_ix, grace);
        let mut arb = ExecutorArbiter::new(Some(budget), policy, 3);
        let mut rng = SimRng::seed_from_u64(seed);
        let priorities: Vec<u32> = (0..n).map(|_| (rng.next_u64() % 4) as u32).collect();
        let mut wants: Vec<u32> = (0..n)
            .map(|_| (rng.next_u64() % (budget as u64 + 20)) as u32)
            .collect();
        let mut epoch = 0u64;
        while epoch < epochs {
            for w in wants.iter_mut() {
                match rng.next_u64() % 4 {
                    0 => *w = w.saturating_add((rng.next_u64() % 8) as u32),
                    1 => *w = w.saturating_sub((rng.next_u64() % 8) as u32),
                    _ => {}
                }
            }
            let reqs: Vec<ResourceRequest> = wants
                .iter()
                .enumerate()
                .map(|(i, &want)| ResourceRequest {
                    tenant: i as u32,
                    priority: priorities[i],
                    want,
                })
                .collect();
            let grants = arb.arbitrate(epoch, SimTime::from_secs_f64(epoch as f64), &reqs);
            // Conservation, live at every barrier.
            prop_assert!(arb.in_use() <= budget as u64);
            prop_assert_eq!(
                grants.iter().map(|g| g.granted as u64).sum::<u64>(),
                arb.in_use()
            );
            for (g, r) in grants.iter().zip(&reqs) {
                prop_assert!(g.granted <= r.want, "tenant holds more than it wants");
            }
            epoch += 1;
        }

        // Liveness: drop demand until it provably fits the budget; the
        // very next barrier must satisfy everyone (queued requests
        // resolve, pressure returns to exactly 1).
        let fit = budget / n as u32;
        let fit_reqs: Vec<ResourceRequest> = (0..n)
            .map(|i| ResourceRequest {
                tenant: i as u32,
                priority: priorities[i],
                want: fit,
            })
            .collect();
        let grants = arb.arbitrate(epoch, SimTime::from_secs_f64(epoch as f64), &fit_reqs);
        prop_assert!(
            grants.iter().all(|g| g.satisfied),
            "demand fits the budget but a queued request did not resolve"
        );
        prop_assert!(grants.iter().all(|g| g.pressure == 1.0));
        // Let any in-flight grace windows mature, then close the books.
        for _ in 0..grace as u64 + 1 {
            epoch += 1;
            let grants = arb.arbitrate(epoch, SimTime::from_secs_f64(epoch as f64), &fit_reqs);
            prop_assert!(grants.iter().all(|g| g.satisfied));
        }
        prop_assert_eq!(arb.pending_revocations(), 0, "a revocation never matured");

        // Conservation, replayed over the full ledger.
        if let Err(e) = check_ledger_conservation(arb.ledger()) {
            prop_assert!(false, "conservation violated: {e}");
        }

        // Grace bound: every Revoke matches a Preempt for the same tenant
        // exactly `grace_epochs` (0 for immediate policies) earlier, with
        // at least the revoked amount.
        let lag = match policy {
            ArbiterPolicy::PreemptWithGrace { grace_epochs } => grace_epochs as u64,
            _ => 0,
        };
        for revoke in arb.ledger().iter().filter(|e| e.kind == LedgerEventKind::Revoke) {
            let matched = arb.ledger().iter().any(|p| {
                p.kind == LedgerEventKind::Preempt
                    && p.tenant == revoke.tenant
                    && p.epoch + lag == revoke.epoch
                    && p.amount >= revoke.amount
            });
            prop_assert!(
                matched,
                "revoke of {} from tenant {} at epoch {} has no preempt {} epochs earlier",
                revoke.amount, revoke.tenant, revoke.epoch, lag
            );
        }
    }

    /// Fleet-level: contended fleets under correlated executor crashes
    /// still conserve the budget and replay byte-identically.
    #[test]
    fn faulted_fleets_conserve_and_replay(
        seed in 0u64..1_000,
        budget in 8u32..48,
        policy_ix in 0usize..3,
        grace in 1u32..4,
        crash_at in 30.0f64..200.0,
    ) {
        let policy = policy_from(policy_ix, grace);
        let specs: Vec<TenantSpec> = (0..3u32)
            .map(|i| {
                let kind = WorkloadKind::ALL[(i as usize) % 4];
                let mut spec = TenantSpec::paper(kind, seed, i);
                spec.priority = 1 + i;
                // Correlated fault: every tenant loses an executor at the
                // same instant (a rack event), recovering under whatever
                // budget the arbiter leaves it.
                spec.params.faults = FaultPlan::new(vec![FaultEvent::ExecutorCrash {
                    at: SimTime::from_secs_f64(crash_at),
                    count: 1,
                    relaunch_after: None,
                }]);
                spec
            })
            .collect();
        let run = || {
            let mut fleet = FleetSim::new(&specs, Some(budget), policy);
            fleet.run_epochs(3);
            let ledger_ok = check_ledger_conservation(fleet.arbiter().ledger());
            let in_use = fleet.arbiter().in_use();
            (fleet.summary_jsonl(), ledger_ok, in_use)
        };
        let (first, ledger_ok, in_use) = run();
        prop_assert!(ledger_ok.is_ok(), "conservation violated: {:?}", ledger_ok);
        prop_assert!(in_use <= budget as u64);
        let (replayed, _, _) = run();
        prop_assert_eq!(first, replayed, "fleet summary changed on replay");
    }
}
