//! Differential proof of the sparse fleet fast path: fast-forwarding
//! quiescent tenants is a pure optimization — bit-for-bit invisible in
//! every observable.
//!
//! Contracts:
//!
//! 1. **Fast path ≡ probe mode.** For any fleet — all four workloads,
//!    contended 100-tenant mixes, steady fleets that actually
//!    fast-forward — the byte-level summary (per-tenant RNG
//!    fingerprints, clocks, listener totals, the full arbiter ledger)
//!    and its digest are identical whether epochs are skipped
//!    (`set_fastpath(true)`, the default) or stepped densely
//!    (`set_fastpath(false)`, the `NOSTOP_PROBE=1` probe; the CI
//!    `fastpaths` leg runs this file under both, and a default fleet must
//!    start in the mode the env selects).
//! 2. **Replay at scale.** The 100-tenant contended digest is a pure
//!    function of `(specs, budget, policy)`: it does not change from one
//!    run to the next, nor in probe mode.
//! 3. **Traces.** With recorders on, both modes step densely (skips are
//!    suppressed so the fast path stays continuously cross-checked) but
//!    the would-skip spans and counters they emit must still match
//!    byte-for-byte.
//! 4. **Wake no later.** A fast-forwarded span never covers a scheduled
//!    fault: the horizon check wakes the tenant into dense stepping at
//!    or before the epoch containing its first wake-worthy event.
//! 5. **Orbits of period p.** Tenants whose broker carry cycles every 2,
//!    4 or 8 epochs arm on that period and fast-forward, with every
//!    tenant's full listener history and final boundary shape identical
//!    to probe mode; a tenant whose carry period exceeds
//!    [`MAX_PERIOD`] is never skipped.

use nostop::core::arbiter::ArbiterPolicy;
use nostop::core::scenario::FaultEvent;
use nostop::datagen::rate::RateSpec;
use nostop::sim::arbiter::check_ledger_conservation;
use nostop::sim::fleet::{FleetSim, TenantSpec, MAX_PERIOD};
use nostop::sim::FaultPlan;
use nostop::simcore::{probe_mode, SimDuration, SimTime};
use nostop::workloads::WorkloadKind;
use proptest::prelude::*;

/// Run `specs` for `epochs` with the fast path on or off and return the
/// full observable state.
fn run_modes(
    specs: &[TenantSpec],
    budget: Option<u32>,
    policy: ArbiterPolicy,
    epochs: u64,
    fastpath: bool,
) -> (FleetSim, String) {
    let mut fleet = FleetSim::new(specs, budget, policy);
    fleet.set_fastpath(fastpath);
    fleet.run_epochs(epochs);
    let summary = fleet.summary_jsonl();
    (fleet, summary)
}

/// Every tenant's full listener history, final boundary shape and ingest
/// work counts match between the two runs — a wrong carry or watermark
/// restore can hide from `summary_jsonl` for several epochs, but not from
/// these.
fn assert_tenants_identical(fast: &FleetSim, probe: &FleetSim) {
    for t in 0..fast.tenants() {
        let (a, b) = (
            fast.tenant_system(t).engine(),
            probe.tenant_system(t).engine(),
        );
        assert_eq!(
            a.listener().since(0),
            b.listener().since(0),
            "tenant {t}: listener histories diverged"
        );
        assert_eq!(
            a.quiescence_probe().map(|p| p.shape),
            b.quiescence_probe().map(|p| p.shape),
            "tenant {t}: final boundary shapes diverged"
        );
        assert_eq!(
            a.ingest_stats(),
            b.ingest_stats(),
            "tenant {t}: ingest work diverged"
        );
    }
}

/// A steady spec's constant arrival rate.
fn constant_rate(spec: &TenantSpec) -> f64 {
    match spec.rate {
        RateSpec::Constant { rate } => rate,
        ref other => panic!("steady tenants have a constant rate, not {other:?}"),
    }
}

fn gcd(a: u128, b: u128) -> u128 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The broker-carry period, in epochs, of a tenant parked on a constant
/// `rate` (a multiple of 1/4 rec/s) that cuts `batches` batches of
/// `interval_us` per epoch: an epoch produces `rate · T` records over the
/// broker's 32 partitions, so the integration state returns after the
/// smallest `m` with `m · rate · T / 32` whole.
fn carry_period(rate: f64, interval_us: u64, batches: u64) -> u64 {
    let rate4 = (rate * 4.0) as u128;
    assert_eq!(
        rate4 as f64,
        rate * 4.0,
        "rate {rate} is not a multiple of 1/4"
    );
    let num = rate4 * (interval_us * batches) as u128;
    let den = 4 * 32 * 1_000_000u128;
    (den / gcd(num, den)) as u64
}

/// Steady tenant `id`, WordCount and PageAnalyze alternating.
fn steady_spec(id: u32, seed: u64) -> TenantSpec {
    let kind = if id.is_multiple_of(2) {
        WorkloadKind::WordCount
    } else {
        WorkloadKind::PageAnalyze
    };
    TenantSpec::steady(kind, seed, id)
}

fn steady_specs(n: u32, seed: u64) -> Vec<TenantSpec> {
    (0..n).map(|i| steady_spec(i, seed)).collect()
}

/// Contract 1 over all four workloads: paper tenants never quiesce (their
/// rate redraws every 60 s), so the fast path must classify zero skips
/// and remain byte-identical to probe mode anyway.
#[test]
fn sparse_stepping_matches_probe_mode_on_every_workload() {
    let default = FleetSim::new(&steady_specs(1, 1), None, ArbiterPolicy::FairShare);
    assert_eq!(
        default.fastpath_enabled(),
        !probe_mode(),
        "NOSTOP_PROBE must reach the fleet"
    );
    for (i, kind) in WorkloadKind::ALL.iter().enumerate() {
        let specs: Vec<TenantSpec> = (0..3u32)
            .map(|t| TenantSpec::paper(*kind, 50 + i as u64, t))
            .collect();
        let (fast, fast_summary) = run_modes(&specs, Some(24), ArbiterPolicy::FairShare, 6, true);
        let (probe, probe_summary) =
            run_modes(&specs, Some(24), ArbiterPolicy::FairShare, 6, false);
        assert_eq!(fast_summary, probe_summary, "{kind:?}: summaries diverged");
        assert_eq!(fast.digest(), probe.digest(), "{kind:?}: digests diverged");
        assert_eq!(
            fast.would_skip_epochs(),
            probe.would_skip_epochs(),
            "{kind:?}: skip classification is mode-dependent"
        );
        assert_eq!(probe.total_skipped_epochs(), 0, "{kind:?}: probe skipped");
        for t in 0..specs.len() {
            assert_eq!(
                fast.tenant_system(t).engine().rng_fingerprint(),
                probe.tenant_system(t).engine().rng_fingerprint(),
                "{kind:?}: tenant {t} RNG diverged"
            );
        }
    }
}

/// Contract 1 where skips actually happen: steady fleets park, arm, and
/// fast-forward; probe mode steps the same epochs densely. Every
/// observable still matches, and the skip counters prove the fast path
/// really fired.
#[test]
fn steady_fleets_fast_forward_and_stay_bit_identical() {
    for policy in [
        ArbiterPolicy::FairShare,
        ArbiterPolicy::PreemptWithGrace { grace_epochs: 2 },
    ] {
        let specs = steady_specs(4, 91);
        let (fast, fast_summary) = run_modes(&specs, None, policy, 70, true);
        let (probe, probe_summary) = run_modes(&specs, None, policy, 70, false);
        assert_eq!(
            fast_summary,
            probe_summary,
            "{}: summaries diverged",
            policy.name()
        );
        assert!(
            fast.total_skipped_epochs() > 0,
            "{}: steady fleet never fast-forwarded",
            policy.name()
        );
        assert_eq!(probe.total_skipped_epochs(), 0);
        assert_eq!(
            fast.would_skip_epochs(),
            probe.would_skip_epochs(),
            "{}: classification disagrees between modes",
            policy.name()
        );
        check_ledger_conservation(fast.arbiter().ledger()).expect("fast-path ledger");
        check_ledger_conservation(probe.arbiter().ledger()).expect("probe ledger");
        assert_tenants_identical(&fast, &probe);
    }
}

/// Steady tenants park at the 3 s interval floor with 12-batch epochs.
const PARKED_INTERVAL_US: u64 = 3_000_000;
const PARKED_BATCHES: u64 = 12;

/// Contract 5 on hand-picked fleets: the tenant ids whose steady rate
/// gives a broker-carry period of 2 (and of 4) at the parked epoch, run
/// as one fleet each. Every tenant really parks on that epoch, arms on
/// exactly that period, and fast-forwards; every observable matches
/// probe mode.
#[test]
fn period_two_and_four_orbits_fast_forward_bit_identically() {
    let seed = 91;
    let steady = |id: u32| steady_spec(id, seed);
    let period_of = |id: u32| {
        carry_period(
            constant_rate(&steady(id)),
            PARKED_INTERVAL_US,
            PARKED_BATCHES,
        )
    };
    for period in [2u64, 4] {
        let ids: Vec<u32> = (0..10).filter(|&id| period_of(id) == period).collect();
        // 1,500 rec/s · 36 s = 54,000 records, 16 mod 32: the carry
        // alternates. 1,350 and 1,650 rec/s leave 24 and 8 mod 32.
        let expected: &[u32] = if period == 2 { &[2, 7] } else { &[1, 3, 6, 8] };
        assert_eq!(ids, expected, "carry arithmetic picked other tenants");
        let specs: Vec<TenantSpec> = ids.iter().map(|&id| steady(id)).collect();
        let run = |fastpath: bool| {
            let mut fleet = FleetSim::new(&specs, None, ArbiterPolicy::FairShare);
            fleet.set_fastpath(fastpath);
            let mut batches = vec![0u64; specs.len()];
            let mut skipped = vec![false; specs.len()];
            for _ in 0..70 {
                let before: Vec<u64> = (0..specs.len())
                    .map(|t| fleet.tenant_system(t).engine().listener().completed())
                    .collect();
                fleet.step_epoch();
                for (t, n) in batches.iter_mut().enumerate() {
                    *n = fleet.tenant_system(t).engine().listener().completed() - before[t];
                }
                for &(t, _, _) in fleet.last_skips() {
                    skipped[t as usize] = true;
                }
            }
            (fleet, batches, skipped)
        };
        let (fast, batches, skipped) = run(true);
        let (probe, _, _) = run(false);
        for (t, &n) in batches.iter().enumerate() {
            let interval = fast.tenant_system(t).engine().config().batch_interval;
            assert_eq!(
                (interval.as_micros(), n),
                (PARKED_INTERVAL_US, PARKED_BATCHES),
                "tenant {}: not parked on the epoch the arithmetic assumed",
                ids[t]
            );
            assert!(
                skipped[t],
                "p={period}: tenant {} was never fast-forwarded",
                ids[t]
            );
        }
        let hist = fast.would_skip_by_period();
        for (p, &count) in hist.iter().enumerate().skip(1) {
            assert_eq!(
                count > 0,
                p as u64 == period,
                "p={period}: skippable epochs by period {hist:?}"
            );
        }
        assert_eq!(hist, probe.would_skip_by_period());
        assert_eq!(fast.arm_failures(), probe.arm_failures());
        assert_eq!(probe.total_skipped_epochs(), 0);
        assert_eq!(fast.summary_jsonl(), probe.summary_jsonl());
        assert_tenants_identical(&fast, &probe);
    }
}

fn contended_specs() -> Vec<TenantSpec> {
    (0..100u32)
        .map(|i| {
            let kind = WorkloadKind::ALL[(i % 4) as usize];
            let mut spec = TenantSpec::paper(kind, 2026, i);
            spec.priority = 1 + (i % 5);
            spec
        })
        .collect()
}

/// Contract 2: the 100-tenant contended digest is identical on replay,
/// and probe mode changes nothing.
#[test]
fn contended_hundred_tenant_digest_replays_and_is_mode_invariant() {
    let specs = contended_specs();
    let digest_at = |fastpath: bool| {
        let mut fleet = FleetSim::new(&specs, Some(600), ArbiterPolicy::FairShare);
        fleet.set_fastpath(fastpath);
        fleet.run_epochs(3);
        fleet.digest()
    };
    let baseline = digest_at(true);
    assert_eq!(baseline, digest_at(true), "digest changed on replay");
    assert_eq!(baseline, digest_at(false), "digest changed in probe mode");
}

/// Contract 3: with recorders on, both modes emit the identical fleet
/// trace (would-skip spans, skipped-epoch counter) and identical
/// per-tenant traces — and a steady fleet's trace does contain the
/// fast-forward spans, so the equality is not vacuous.
#[test]
fn traces_are_identical_across_modes_and_contain_would_skip_spans() {
    let specs = steady_specs(3, 7);
    let traced = |fastpath: bool| {
        let mut fleet = FleetSim::new(&specs, None, ArbiterPolicy::FairShare);
        fleet.set_fastpath(fastpath);
        fleet.enable_recorders(65_536);
        fleet.run_epochs(60);
        let tenant_traces: Vec<String> = (0..specs.len())
            .map(|i| fleet.tenant_trace_jsonl(i))
            .collect();
        (fleet.fleet_trace_jsonl(), tenant_traces, fleet)
    };
    let (fast_fleet_trace, fast_tenant_traces, fast) = traced(true);
    let (probe_fleet_trace, probe_tenant_traces, probe) = traced(false);
    assert_eq!(
        fast_fleet_trace, probe_fleet_trace,
        "fleet traces diverged between modes"
    );
    assert_eq!(
        fast_tenant_traces, probe_tenant_traces,
        "tenant traces diverged between modes"
    );
    assert!(
        fast_fleet_trace.contains("fleet.fastforward"),
        "steady fleet emitted no would-skip spans"
    );
    // Recorders suppress actual skipping in both modes — the fast path
    // is being cross-checked densely — but the classification still runs.
    assert_eq!(fast.total_skipped_epochs(), 0);
    assert_eq!(probe.total_skipped_epochs(), 0);
    assert!(fast.would_skip_epochs() > 0);
    assert_eq!(fast.would_skip_epochs(), probe.would_skip_epochs());
}

proptest! {
    /// Contract 5 over generated orbits: six steady tenants whose
    /// constant rates (8·base + 0, 4, 2, 1, 1/2, 1/4 rec/s) give broker-
    /// carry periods of 1, 2, 4, 8, 16 and 32 epochs at the parked
    /// epoch, optionally under a binding budget whose grants change
    /// mid-period. The fast path matches probe mode, the ledger
    /// conserves, and no epoch is skipped on a parked epoch whose carry
    /// period exceeds `MAX_PERIOD`.
    #[test]
    fn generated_orbits_match_probe_and_skip_only_short_periods(
        seed in 0u64..1_000,
        bases in proptest::collection::vec(140u32..250, 6..7),
        budget_raw in 0u32..40,
        epochs in 40u64..56,
    ) {
        const OFFSETS: [f64; 6] = [0.0, 4.0, 2.0, 1.0, 0.5, 0.25];
        let specs: Vec<TenantSpec> = bases
            .iter()
            .zip(OFFSETS)
            .enumerate()
            .map(|(i, (&base, offset))| {
                let mut spec = steady_spec(i as u32, seed);
                spec.rate = RateSpec::Constant { rate: 8.0 * base as f64 + offset };
                spec
            })
            .collect();
        let designed: Vec<u64> = specs
            .iter()
            .map(|spec| carry_period(constant_rate(spec), PARKED_INTERVAL_US, PARKED_BATCHES))
            .collect();
        prop_assert_eq!(designed, vec![1, 2, 4, 8, 16, 32]);
        // Half the cases run unconstrained; the rest share 16–39
        // executors among six tenants that want up to 20 each.
        let budget = (budget_raw >= 16).then_some(budget_raw);
        let mut fast = FleetSim::new(&specs, budget, ArbiterPolicy::FairShare);
        fast.set_fastpath(true);
        let mut probe = FleetSim::new(&specs, budget, ArbiterPolicy::FairShare);
        probe.set_fastpath(false);
        let mut periods = vec![0u64; specs.len()];
        for epoch in 0..epochs {
            let before: Vec<u64> = (0..specs.len())
                .map(|t| fast.tenant_system(t).engine().listener().completed())
                .collect();
            let skipped_before = fast.total_skipped_epochs();
            fast.step_epoch();
            probe.step_epoch();
            prop_assert_eq!(
                fast.last_skips().len() as u64,
                fast.total_skipped_epochs() - skipped_before,
                "last_skips must hold exactly this epoch's skips"
            );
            for (t, spec) in specs.iter().enumerate() {
                let e = fast.tenant_system(t).engine();
                let n = e.listener().completed() - before[t];
                let interval = e.config().batch_interval.as_micros();
                periods[t] = carry_period(constant_rate(spec), interval, n);
            }
            for &(t, _, _) in fast.last_skips() {
                prop_assert!(
                    periods[t as usize] <= MAX_PERIOD as u64,
                    "tenant {} skipped epoch {} on a carry period of {}",
                    t, epoch, periods[t as usize]
                );
            }
        }
        prop_assert_eq!(fast.summary_jsonl(), probe.summary_jsonl(), "summaries diverged");
        prop_assert_eq!(fast.would_skip_by_period(), probe.would_skip_by_period());
        prop_assert_eq!(fast.arm_failures(), probe.arm_failures());
        prop_assert_eq!(probe.total_skipped_epochs(), 0);
        for (t, _) in specs.iter().enumerate() {
            let (a, b) = (fast.tenant_system(t).engine(), probe.tenant_system(t).engine());
            prop_assert_eq!(a.listener().since(0), b.listener().since(0), "tenant {} history", t);
            prop_assert_eq!(
                a.quiescence_probe().map(|p| p.shape),
                b.quiescence_probe().map(|p| p.shape),
                "tenant {} shape", t
            );
            prop_assert_eq!(a.ingest_stats(), b.ingest_stats(), "tenant {} ingest work", t);
        }
        prop_assert!(check_ledger_conservation(fast.arbiter().ledger()).is_ok());
        prop_assert!(check_ledger_conservation(probe.arbiter().ledger()).is_ok());
    }

    /// Contracts 1 and 4 over random steady fleets with fault plans: the
    /// fast path stays bit-identical to probe mode, and no fast-forwarded
    /// span covers the scheduled crash — the tenant wakes into dense
    /// stepping no later than the epoch before its fault.
    #[test]
    fn faulted_steady_fleets_match_probe_and_wake_before_the_fault(
        seed in 0u64..1_000,
        n in 2u32..5,
        crash_at in 300.0f64..1_500.0,
        relaunch_ix in 0u32..2,
        faulted in 0u32..5,
        epochs in 30u64..45,
    ) {
        let faulted = faulted % n;
        let mut specs = steady_specs(n, seed);
        specs[faulted as usize].params.faults =
            FaultPlan::new(vec![FaultEvent::ExecutorCrash {
                at: SimTime::from_secs_f64(crash_at),
                count: 1,
                relaunch_after: (relaunch_ix == 1).then(|| SimDuration::from_secs(30)),
            }]);
        let mut fast = FleetSim::new(&specs, None, ArbiterPolicy::FairShare);
        fast.set_fastpath(true);
        let mut skips = Vec::new();
        for epoch in 0..epochs {
            fast.step_epoch();
            skips.extend(fast.last_skips().iter().map(|&(t, from, until)| (t, epoch, from, until)));
        }
        let (probe, probe_summary) =
            run_modes(&specs, None, ArbiterPolicy::FairShare, epochs, false);
        prop_assert_eq!(fast.summary_jsonl(), probe_summary, "summaries diverged");
        prop_assert_eq!(probe.total_skipped_epochs(), 0);
        prop_assert_eq!(fast.would_skip_epochs(), probe.would_skip_epochs());
        // Wake no later: the faulted tenant's skip spans must all lie
        // strictly before (or strictly after, for relaunch timers long
        // past) the crash instant — never across it.
        let crash_us = SimTime::from_secs_f64(crash_at).as_micros();
        for (tenant, epoch, from_us, until_us) in skips {
            prop_assert!(until_us > from_us, "empty skip span");
            if tenant == faulted {
                prop_assert!(
                    !(from_us <= crash_us && crash_us <= until_us),
                    "tenant {} fast-forwarded across its crash at {}us \
                     (span {}..{}us, epoch {})",
                    tenant, crash_us, from_us, until_us, epoch
                );
            }
        }
    }
}
