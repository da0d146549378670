//! The fleet executor arbiter.
//!
//! One streaming cluster, N tenant jobs, each with its own NoStop
//! controller asking for executors. The arbiter owns the fleet-wide
//! executor budget and decides, at every fleet barrier (see
//! [`crate::fleet`]), how many executors each tenant may actually hold.
//! Decisions are appended to a ledger of [`LedgerEvent`]s — every grant,
//! denial, queue entry, voluntary release, preemption decision, and
//! matured revocation — so the whole allocation history is auditable,
//! diffable, and checkable against a conservation invariant at every
//! entry.
//!
//! Three properties the test battery holds the arbiter to:
//!
//! * **Determinism.** The arbiter draws no RNG and iterates tenants in id
//!   order (or a priority order derived purely from the requests), so the
//!   ledger is a pure function of (budget, policy, request history).
//! * **Conservation.** `in_use` equals the sum of live allocations after
//!   every ledger entry, never exceeds the budget, and replaying
//!   [`LedgerEventKind::in_use_delta`] from zero reproduces it exactly.
//! * **Bounded grace.** Under [`ArbiterPolicy::PreemptWithGrace`], an
//!   involuntary cut is *decided* (a `Preempt` entry) at one barrier and
//!   *enforced* (a `Revoke` entry) exactly `grace_epochs` barriers later
//!   — by construction, not by scheduling luck. The immediate policies
//!   emit the same `Preempt`/`Revoke` pair within a single barrier, so
//!   `in_use` always moves on `Revoke` and the replay rule is uniform.

use nostop_core::arbiter::{
    ArbiterPolicy, LedgerCheckpoint, LedgerEvent, LedgerEventKind, ResourceRequest,
};
use nostop_obs::Recorder;
use nostop_simcore::SimTime;

/// Cumulative arbiter activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArbiterStats {
    /// Grant entries appended.
    pub grants: u64,
    /// Deny entries appended.
    pub denies: u64,
    /// Queue entries appended.
    pub queues: u64,
    /// Release entries appended.
    pub releases: u64,
    /// Preemption decisions appended.
    pub preemptions: u64,
    /// Matured (enforced) revocations appended.
    pub revocations: u64,
    /// Barriers where at least `coalesce_threshold` tenants changed
    /// their demand simultaneously — a reconfiguration storm handled in
    /// one allocation pass instead of one pass per request.
    pub coalesced_rounds: u64,
}

/// What one tenant is told after a barrier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantGrant {
    /// Tenant id.
    pub tenant: u32,
    /// Executors the tenant may hold right now (its allocation).
    pub granted: u32,
    /// True when the allocation covers the tenant's full want.
    pub satisfied: bool,
    /// Fleet contention pressure to feed the tenant's noise model
    /// (1.0 = unconstrained; below 1.0 the whole fleet is oversubscribed
    /// and every tenant's tasks run proportionally slower — the
    /// noisy-neighbor term).
    pub pressure: f64,
}

/// A preemption decided but not yet enforced (grace policy).
#[derive(Debug, Clone, Copy)]
struct PendingRevocation {
    tenant: usize,
    amount: u64,
    mature_epoch: u64,
}

/// The global executor arbiter. See the module docs.
pub struct ExecutorArbiter {
    /// Fleet executor budget (`u64::MAX` = unlimited).
    budget: u64,
    policy: ArbiterPolicy,
    /// Barriers with at least this many simultaneous demand changes
    /// count as one coalesced storm (0 disables the counter).
    coalesce_threshold: usize,
    /// Live allocation per tenant id.
    alloc: Vec<u64>,
    /// Tenants currently short of their want (a live queued request).
    waiting: Vec<bool>,
    /// Each tenant's want at the previous barrier (storm detection).
    last_want: Vec<Option<u32>>,
    /// Decided-but-unenforced cuts, in decision order.
    revocations: Vec<PendingRevocation>,
    /// The live ledger tail; entry `i` carries seq `base_seq + i`.
    ledger: Vec<LedgerEvent>,
    /// Sequence number of `ledger[0]` (= entries folded into the
    /// checkpoint so far; 0 until a fold happens).
    base_seq: u64,
    /// The folded, conservation-verified ledger prefix, if any.
    checkpoint: Option<LedgerCheckpoint>,
    /// Fold the tail once it exceeds this many entries (`None` = keep
    /// the whole ledger in memory, the default).
    checkpoint_capacity: Option<usize>,
    in_use: u64,
    stats: ArbiterStats,
    /// Recorder for `arbiter.*` instants and counters (its own track).
    obs: Recorder,
}

impl ExecutorArbiter {
    /// An arbiter over `budget` executors (`None` = unlimited) under
    /// `policy`. `coalesce_threshold` is the storm size K counted by
    /// [`ArbiterStats::coalesced_rounds`].
    pub fn new(budget: Option<u32>, policy: ArbiterPolicy, coalesce_threshold: usize) -> Self {
        ExecutorArbiter {
            budget: budget.map(|b| b as u64).unwrap_or(u64::MAX),
            policy,
            coalesce_threshold,
            alloc: Vec::new(),
            waiting: Vec::new(),
            last_want: Vec::new(),
            revocations: Vec::new(),
            ledger: Vec::new(),
            base_seq: 0,
            checkpoint: None,
            checkpoint_capacity: None,
            in_use: 0,
            stats: ArbiterStats::default(),
            obs: Recorder::disabled(),
        }
    }

    /// Attach a trace recorder; arbiter events land on its `"arbiter"`
    /// track.
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.obs = recorder.with_track("arbiter");
    }

    /// Change the storm-coalescing threshold K (0 disables the counter).
    pub fn set_coalesce_threshold(&mut self, k: usize) {
        self.coalesce_threshold = k;
    }

    /// The policy in force.
    pub fn policy(&self) -> ArbiterPolicy {
        self.policy
    }

    /// The budget in force (`u64::MAX` = unlimited).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Executors currently allocated fleet-wide.
    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    /// The tenant's current allocation (0 for unseen tenants).
    pub fn allocation(&self, tenant: usize) -> u64 {
        self.alloc.get(tenant).copied().unwrap_or(0)
    }

    /// The live ledger tail (the full history when checkpointing is off;
    /// otherwise everything since the last fold — see
    /// [`ExecutorArbiter::checkpoint`]).
    pub fn ledger(&self) -> &[LedgerEvent] {
        &self.ledger
    }

    /// Sequence number the next ledger entry will continue from minus the
    /// tail length — i.e. the seq of `ledger()[0]` (0 until a fold).
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// The folded ledger prefix, if checkpointing has folded one.
    pub fn checkpoint(&self) -> Option<&LedgerCheckpoint> {
        self.checkpoint.as_ref()
    }

    /// Bound the in-memory ledger: once the tail exceeds `capacity`
    /// entries, the arbiter verifies conservation over it and folds it
    /// into an epoch-stamped [`LedgerCheckpoint`]. Off by default (the
    /// whole history stays in memory).
    pub fn enable_ledger_checkpointing(&mut self, capacity: usize) {
        self.checkpoint_capacity = Some(capacity);
    }

    /// Check the conservation invariant over everything the arbiter still
    /// holds: the tail replayed from the checkpoint base (or from zero
    /// when no fold has happened). Returns the final in-use total.
    pub fn check_conservation(&self) -> Result<u64, String> {
        let base_in_use = self.checkpoint.map(|c| c.in_use).unwrap_or(0);
        check_ledger_conservation_from(&self.ledger, self.base_seq, base_in_use)
    }

    /// Cumulative activity counters.
    pub fn stats(&self) -> ArbiterStats {
        self.stats
    }

    /// Cuts decided but not yet enforced (grace policy only).
    pub fn pending_revocations(&self) -> usize {
        self.revocations.len()
    }

    fn push_event(
        &mut self,
        now: SimTime,
        epoch: u64,
        tenant: usize,
        kind: LedgerEventKind,
        amount: u64,
    ) {
        debug_assert!(self.in_use <= self.budget, "allocation exceeded budget");
        let event = LedgerEvent {
            epoch,
            seq: self.base_seq + self.ledger.len() as u64,
            tenant: tenant as u32,
            kind,
            amount: amount as u32,
            in_use: self.in_use,
            budget: self.budget,
        };
        self.ledger.push(event);
        if self.obs.is_enabled() {
            let name = match kind {
                LedgerEventKind::Grant => "arbiter.grant",
                LedgerEventKind::Deny => "arbiter.deny",
                LedgerEventKind::Queue => "arbiter.queue",
                LedgerEventKind::Release => "arbiter.release",
                LedgerEventKind::Preempt => "arbiter.preempt",
                LedgerEventKind::Revoke => "arbiter.revoke",
            };
            self.obs.instant(
                now,
                name,
                &[
                    ("tenant", tenant as f64),
                    ("amount", amount as f64),
                    ("in_use", self.in_use as f64),
                ],
            );
            self.obs.add(now, name, 1);
        }
    }

    /// The policy's ideal allocation vector for the given wants — capped
    /// at the budget but ignoring current holdings (the barrier then
    /// moves actual allocations toward these targets, immediately or
    /// with grace).
    fn targets(&self, requests: &[ResourceRequest]) -> Vec<u64> {
        let wants: Vec<u64> = requests.iter().map(|r| r.want as u64).collect();
        if self.budget == u64::MAX {
            return wants;
        }
        match self.policy {
            ArbiterPolicy::FairShare => fair_share(&wants, self.budget),
            ArbiterPolicy::StrictPriority | ArbiterPolicy::PreemptWithGrace { .. } => {
                strict_priority(requests, &wants, self.budget)
            }
        }
    }

    /// Run one fleet barrier: enforce matured revocations, absorb
    /// voluntary releases, recompute policy targets over the presented
    /// demands, and move allocations toward them. `requests[i].tenant`
    /// must equal `i` (the fleet presents a dense, id-ordered vector
    /// every barrier — demand is level-triggered, so there is no
    /// per-request handshake to lose; once aggregate demand fits the
    /// budget again, every queued request resolves at the next barrier).
    pub fn arbitrate(
        &mut self,
        epoch: u64,
        now: SimTime,
        requests: &[ResourceRequest],
    ) -> Vec<TenantGrant> {
        for (i, r) in requests.iter().enumerate() {
            assert_eq!(
                r.tenant as usize, i,
                "requests must be dense and id-ordered"
            );
        }
        if self.alloc.len() < requests.len() {
            self.alloc.resize(requests.len(), 0);
            self.waiting.resize(requests.len(), false);
            self.last_want.resize(requests.len(), None);
        }

        // Storm detection before any mutation: how many tenants changed
        // their demand since the previous barrier?
        if self.coalesce_threshold > 0 {
            let changed = requests
                .iter()
                .enumerate()
                .filter(|(i, r)| self.last_want[*i].is_some_and(|w| w != r.want))
                .count();
            if changed >= self.coalesce_threshold {
                self.stats.coalesced_rounds += 1;
                if self.obs.is_enabled() {
                    self.obs
                        .instant(now, "arbiter.coalesce", &[("requests", changed as f64)]);
                    self.obs.add(now, "arbiter.coalesce", 1);
                }
            }
        }
        for (i, r) in requests.iter().enumerate() {
            self.last_want[i] = Some(r.want);
        }

        // 1. Enforce matured revocations (frees budget for step 4).
        let mut matured = Vec::new();
        self.revocations.retain(|r| {
            if r.mature_epoch <= epoch {
                matured.push(*r);
                false
            } else {
                true
            }
        });
        for r in matured {
            // Voluntary releases since the decision already returned some
            // (or all) of the cut; only the remainder is revoked.
            let cut = r.amount.min(self.alloc[r.tenant]);
            if cut > 0 {
                self.alloc[r.tenant] -= cut;
                self.in_use -= cut;
                self.stats.revocations += 1;
                self.push_event(now, epoch, r.tenant, LedgerEventKind::Revoke, cut);
            }
        }

        // 2. Voluntary releases: a tenant whose want dropped below its
        // allocation gives the difference back immediately.
        for (i, r) in requests.iter().enumerate() {
            let want = r.want as u64;
            if want < self.alloc[i] {
                let delta = self.alloc[i] - want;
                self.alloc[i] = want;
                self.in_use -= delta;
                self.stats.releases += 1;
                // The freed executors cover the oldest pending cuts first.
                let mut remaining = delta;
                for rev in self.revocations.iter_mut().filter(|r| r.tenant == i) {
                    let absorbed = rev.amount.min(remaining);
                    rev.amount -= absorbed;
                    remaining -= absorbed;
                }
                self.revocations.retain(|r| r.amount > 0);
                self.push_event(now, epoch, i, LedgerEventKind::Release, delta);
            }
        }

        // 3. Policy targets over the full demand vector.
        let targets = self.targets(requests);

        // 4a. Involuntary cuts: allocation above target despite live
        // demand. Immediate policies enforce within this barrier
        // (Preempt + Revoke back to back); the grace policy records the
        // decision now and enforces it `grace_epochs` barriers later.
        let grace = match self.policy {
            ArbiterPolicy::PreemptWithGrace { grace_epochs } => Some(grace_epochs as u64),
            _ => None,
        };
        for (i, &target) in targets.iter().enumerate() {
            let pending: u64 = self
                .revocations
                .iter()
                .filter(|r| r.tenant == i)
                .map(|r| r.amount)
                .sum();
            let effective = self.alloc[i].saturating_sub(pending);
            if target < effective {
                let amount = effective - target;
                self.stats.preemptions += 1;
                self.push_event(now, epoch, i, LedgerEventKind::Preempt, amount);
                match grace {
                    Some(g) => self.revocations.push(PendingRevocation {
                        tenant: i,
                        amount,
                        mature_epoch: epoch + g,
                    }),
                    None => {
                        self.alloc[i] -= amount;
                        self.in_use -= amount;
                        self.stats.revocations += 1;
                        self.push_event(now, epoch, i, LedgerEventKind::Revoke, amount);
                    }
                }
            }
        }

        // 4b. Grants, in the policy's service order, limited to budget
        // actually free right now — deferred cuts release their budget
        // only when the matching Revoke matures.
        let order = service_order(self.policy, requests);
        for i in order {
            if targets[i] > self.alloc[i] {
                let free = self.budget.saturating_sub(self.in_use);
                let give = (targets[i] - self.alloc[i]).min(free);
                if give > 0 {
                    self.alloc[i] += give;
                    self.in_use += give;
                    self.stats.grants += 1;
                    self.push_event(now, epoch, i, LedgerEventKind::Grant, give);
                }
            }
        }

        // 4c. Shortfall bookkeeping: Deny (nothing held) or Queue
        // (partially held) on entering the unsatisfied state; satisfied
        // tenants leave the waiting set.
        for (i, r) in requests.iter().enumerate() {
            let want = r.want as u64;
            if self.alloc[i] >= want {
                self.waiting[i] = false;
            } else if !self.waiting[i] {
                self.waiting[i] = true;
                let shortfall = want - self.alloc[i];
                if self.alloc[i] == 0 {
                    self.stats.denies += 1;
                    self.push_event(now, epoch, i, LedgerEventKind::Deny, shortfall);
                } else {
                    self.stats.queues += 1;
                    self.push_event(now, epoch, i, LedgerEventKind::Queue, shortfall);
                }
            }
        }

        // 5. Fleet pressure: oversubscription slows everyone (shared
        // network, disks, shuffle service), proportional to how far
        // aggregate demand exceeds the budget. Exactly 1.0 whenever the
        // budget covers demand, so an unconstrained fleet feeds a
        // bitwise no-op into every tenant's noise model.
        let total_want: u64 = requests.iter().map(|r| r.want as u64).sum();
        let pressure = if self.budget == u64::MAX || total_want <= self.budget {
            1.0
        } else {
            (self.budget as f64 / total_want as f64).max(0.05)
        };

        self.maybe_fold(epoch);

        requests
            .iter()
            .enumerate()
            .map(|(i, r)| TenantGrant {
                tenant: r.tenant,
                granted: self.alloc[i].min(u32::MAX as u64) as u32,
                satisfied: self.alloc[i] >= r.want as u64,
                pressure,
            })
            .collect()
    }

    /// Always declines (`None`): every barrier takes the dense
    /// [`Self::arbitrate`] pass. Kept only because the benchmark's
    /// `ArbiterReplay` still calls it before falling back to the dense
    /// pass; the next benchmark change deletes that call and this method.
    pub fn arbitrate_sparse(
        &mut self,
        _epoch: u64,
        _now: SimTime,
        _requests: &[ResourceRequest],
        _changed: &[usize],
    ) -> Option<Vec<TenantGrant>> {
        None
    }

    /// Fold the ledger tail into the checkpoint once it exceeds the
    /// configured capacity. The tail is conservation-checked *before*
    /// folding, so a checkpoint never hides a corrupt prefix.
    fn maybe_fold(&mut self, epoch: u64) {
        let Some(capacity) = self.checkpoint_capacity else {
            return;
        };
        if self.ledger.len() <= capacity {
            return;
        }
        let base_in_use = self.checkpoint.map(|c| c.in_use).unwrap_or(0);
        check_ledger_conservation_from(&self.ledger, self.base_seq, base_in_use)
            .expect("ledger conservation must hold before folding");
        self.base_seq += self.ledger.len() as u64;
        self.checkpoint = Some(LedgerCheckpoint {
            epoch,
            base_seq: self.base_seq,
            in_use: self.in_use,
            budget: self.budget,
        });
        self.ledger.clear();
    }
}

/// Max-min fair allocation (water-filling) with remainders to lower ids.
fn fair_share(wants: &[u64], budget: u64) -> Vec<u64> {
    let mut target = vec![0u64; wants.len()];
    let mut remaining = budget;
    loop {
        let unsat: Vec<usize> = (0..wants.len()).filter(|&i| target[i] < wants[i]).collect();
        if unsat.is_empty() || remaining == 0 {
            break;
        }
        let share = remaining / unsat.len() as u64;
        if share == 0 {
            // Fewer spare executors than unsatisfied tenants: one each,
            // lowest ids first.
            for &i in unsat.iter().take(remaining as usize) {
                target[i] += 1;
            }
            break;
        }
        let mut used = 0;
        for &i in &unsat {
            let give = share.min(wants[i] - target[i]);
            target[i] += give;
            used += give;
        }
        remaining -= used;
        if used == 0 {
            break;
        }
    }
    target
}

/// Greedy allocation in (priority desc, id asc) order.
fn strict_priority(requests: &[ResourceRequest], wants: &[u64], budget: u64) -> Vec<u64> {
    let mut target = vec![0u64; wants.len()];
    let mut remaining = budget;
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(requests[i].priority), i));
    for i in order {
        let give = wants[i].min(remaining);
        target[i] = give;
        remaining -= give;
    }
    target
}

/// The order grants are handed out in at a barrier.
fn service_order(policy: ArbiterPolicy, requests: &[ResourceRequest]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..requests.len()).collect();
    match policy {
        ArbiterPolicy::FairShare => {}
        ArbiterPolicy::StrictPriority | ArbiterPolicy::PreemptWithGrace { .. } => {
            order.sort_by_key(|&i| (std::cmp::Reverse(requests[i].priority), i));
        }
    }
    order
}

/// Replay a ledger's `in_use` trajectory from zero and check every entry
/// against the conservation invariant (`in_use` after each entry equals
/// the running sum of deltas and never exceeds the budget). Returns the
/// final in-use total.
pub fn check_ledger_conservation(ledger: &[LedgerEvent]) -> Result<u64, String> {
    check_ledger_conservation_from(ledger, 0, 0)
}

/// [`check_ledger_conservation`] for a ledger *tail*: entries must carry
/// dense sequence numbers starting at `base_seq`, and `in_use` replays
/// from `base_in_use` (a [`LedgerCheckpoint`]'s snapshot) instead of
/// zero. Returns the final in-use total.
pub fn check_ledger_conservation_from(
    ledger: &[LedgerEvent],
    base_seq: u64,
    base_in_use: u64,
) -> Result<u64, String> {
    let mut in_use: i64 = base_in_use as i64;
    for (i, e) in ledger.iter().enumerate() {
        if e.seq != base_seq + i as u64 {
            return Err(format!(
                "entry {i}: seq {} is not dense from base {base_seq}",
                e.seq
            ));
        }
        in_use += e.kind.in_use_delta(e.amount);
        if in_use < 0 {
            return Err(format!("entry {i}: in-use went negative ({in_use})"));
        }
        if e.in_use != in_use as u64 {
            return Err(format!(
                "entry {i}: recorded in_use {} != replayed {}",
                e.in_use, in_use
            ));
        }
        if e.in_use > e.budget {
            return Err(format!(
                "entry {i}: in_use {} exceeds budget {}",
                e.in_use, e.budget
            ));
        }
    }
    Ok(in_use as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(tenant: u32, want: u32, priority: u32) -> ResourceRequest {
        ResourceRequest {
            tenant,
            priority,
            want,
        }
    }

    fn run_epochs(
        arb: &mut ExecutorArbiter,
        from: u64,
        rounds: u64,
        requests: &[ResourceRequest],
    ) -> Vec<TenantGrant> {
        let mut last = Vec::new();
        for e in from..from + rounds {
            last = arb.arbitrate(e, SimTime::from_secs_f64(e as f64), requests);
        }
        last
    }

    #[test]
    fn unlimited_budget_grants_everything_immediately() {
        let mut arb = ExecutorArbiter::new(None, ArbiterPolicy::FairShare, 0);
        let grants = arb.arbitrate(0, SimTime::ZERO, &[req(0, 14, 1), req(1, 99, 1)]);
        assert!(grants.iter().all(|g| g.satisfied));
        assert_eq!(grants[1].granted, 99);
        assert_eq!(grants[0].pressure, 1.0);
        check_ledger_conservation(arb.ledger()).unwrap();
    }

    #[test]
    fn fair_share_is_starvation_free_under_a_hog() {
        // Golden scenario: budget 32, one hog wanting 100, three tenants
        // wanting 8. Max-min: everyone small is fully served, the hog
        // gets the rest — nobody starves.
        let mut arb = ExecutorArbiter::new(Some(32), ArbiterPolicy::FairShare, 0);
        let reqs = [req(0, 100, 1), req(1, 8, 1), req(2, 8, 1), req(3, 8, 1)];
        let grants = run_epochs(&mut arb, 0, 3, &reqs);
        assert_eq!(grants[1].granted, 8);
        assert_eq!(grants[2].granted, 8);
        assert_eq!(grants[3].granted, 8);
        assert_eq!(grants[0].granted, 8, "hog gets the remainder, not the pool");
        assert!(!grants[0].satisfied);
        assert!(grants[1].satisfied);
        // Oversubscribed: pressure below 1, shared by everyone.
        assert!(grants[0].pressure < 1.0);
        assert_eq!(grants[0].pressure, grants[1].pressure);
        check_ledger_conservation(arb.ledger()).unwrap();
    }

    #[test]
    fn fair_share_remainders_go_to_lower_ids() {
        let mut arb = ExecutorArbiter::new(Some(10), ArbiterPolicy::FairShare, 0);
        let reqs = [req(0, 9, 1), req(1, 9, 1), req(2, 9, 1)];
        let grants = arb.arbitrate(0, SimTime::ZERO, &reqs);
        assert_eq!(
            grants.iter().map(|g| g.granted).collect::<Vec<_>>(),
            vec![4, 3, 3]
        );
        check_ledger_conservation(arb.ledger()).unwrap();
    }

    #[test]
    fn strict_priority_preempts_immediately_in_order() {
        // Golden scenario: low-priority incumbent holds the pool; a
        // high-priority arrival takes what it needs the same barrier,
        // and the *lowest*-priority victim is cut first.
        let mut arb = ExecutorArbiter::new(Some(32), ArbiterPolicy::StrictPriority, 0);
        run_epochs(&mut arb, 0, 2, &[req(0, 20, 1), req(1, 12, 2)]);
        assert_eq!(arb.allocation(0), 20);
        assert_eq!(arb.allocation(1), 12);
        // Tenant 2 arrives with top priority wanting 16: tenant 0 (the
        // lowest priority) is preempted down to 4; tenant 1 untouched.
        let grants = arb.arbitrate(
            2,
            SimTime::from_secs_f64(2.0),
            &[req(0, 20, 1), req(1, 12, 2), req(2, 16, 9)],
        );
        assert_eq!(grants[2].granted, 16);
        assert_eq!(grants[1].granted, 12);
        assert_eq!(grants[0].granted, 4);
        // The cut is enforced within the same barrier: Preempt + Revoke.
        let kinds: Vec<_> = arb
            .ledger()
            .iter()
            .filter(|e| e.epoch == 2 && e.tenant == 0)
            .map(|e| e.kind)
            .collect();
        // Decision and enforcement land back to back; the victim's
        // still-outstanding shortfall is then queued.
        assert_eq!(
            kinds,
            vec![
                LedgerEventKind::Preempt,
                LedgerEventKind::Revoke,
                LedgerEventKind::Queue,
            ]
        );
        assert_eq!(arb.pending_revocations(), 0);
        check_ledger_conservation(arb.ledger()).unwrap();
    }

    #[test]
    fn grace_defers_the_cut_exactly_grace_epochs() {
        let grace = 3u64;
        let mut arb = ExecutorArbiter::new(
            Some(32),
            ArbiterPolicy::PreemptWithGrace {
                grace_epochs: grace as u32,
            },
            0,
        );
        run_epochs(&mut arb, 0, 2, &[req(0, 32, 1)]);
        assert_eq!(arb.allocation(0), 32);
        // A high-priority tenant arrives at epoch 2 wanting 16.
        let reqs = [req(0, 32, 1), req(1, 16, 9)];
        for e in 2..2 + grace {
            let grants = arb.arbitrate(e, SimTime::from_secs_f64(e as f64), &reqs);
            // During grace the victim keeps its executors and the
            // beneficiary holds nothing (the budget is fully allocated).
            assert_eq!(grants[0].granted, 32, "epoch {e}");
            assert_eq!(grants[1].granted, 0, "epoch {e}");
        }
        // Exactly grace barriers after the decision the cut matures and
        // the freed executors flow to the beneficiary in the same
        // barrier.
        let grants = arb.arbitrate(2 + grace, SimTime::from_secs_f64((2 + grace) as f64), &reqs);
        assert_eq!(grants[0].granted, 16);
        assert_eq!(grants[1].granted, 16);
        let preempt = arb
            .ledger()
            .iter()
            .find(|e| e.kind == LedgerEventKind::Preempt)
            .unwrap();
        let revoke = arb
            .ledger()
            .iter()
            .find(|e| e.kind == LedgerEventKind::Revoke)
            .unwrap();
        assert_eq!(preempt.epoch, 2);
        assert_eq!(revoke.epoch, 2 + grace);
        assert_eq!(revoke.epoch - preempt.epoch, grace);
        // No duplicate decision was recorded while the first matured.
        assert_eq!(arb.stats().preemptions, 1);
        check_ledger_conservation(arb.ledger()).unwrap();
    }

    #[test]
    fn voluntary_release_shrinks_a_pending_revocation() {
        let mut arb = ExecutorArbiter::new(
            Some(32),
            ArbiterPolicy::PreemptWithGrace { grace_epochs: 4 },
            0,
        );
        run_epochs(&mut arb, 0, 1, &[req(0, 32, 1)]);
        arb.arbitrate(
            1,
            SimTime::from_secs_f64(1.0),
            &[req(0, 32, 1), req(1, 16, 9)],
        );
        assert_eq!(arb.pending_revocations(), 1);
        // The victim's controller scales itself down to 10 before the
        // grace expires: the release covers the whole pending cut.
        arb.arbitrate(
            2,
            SimTime::from_secs_f64(2.0),
            &[req(0, 10, 1), req(1, 16, 9)],
        );
        assert_eq!(arb.pending_revocations(), 0, "release absorbed the cut");
        let grants = run_epochs(&mut arb, 3, 4, &[req(0, 10, 1), req(1, 16, 9)]);
        assert_eq!(grants[0].granted, 10, "no revoke fires after absorption");
        assert_eq!(grants[1].granted, 16);
        assert_eq!(arb.stats().revocations, 0);
        check_ledger_conservation(arb.ledger()).unwrap();
    }

    #[test]
    fn storm_coalescing_counts_simultaneous_demand_changes() {
        // Golden scenario: K=4; five tenants all reconfigure at the same
        // barrier — one coalesced round, one allocation pass (one epoch
        // in the ledger), not five.
        let mut arb = ExecutorArbiter::new(Some(64), ArbiterPolicy::FairShare, 4);
        let calm: Vec<_> = (0..5).map(|i| req(i, 8, 1)).collect();
        run_epochs(&mut arb, 0, 2, &calm);
        assert_eq!(arb.stats().coalesced_rounds, 0);
        let storm: Vec<_> = (0..5).map(|i| req(i, 12, 1)).collect();
        arb.arbitrate(2, SimTime::from_secs_f64(2.0), &storm);
        assert_eq!(arb.stats().coalesced_rounds, 1);
        let storm_epochs: std::collections::BTreeSet<u64> = arb
            .ledger()
            .iter()
            .filter(|e| e.kind == LedgerEventKind::Grant && e.epoch >= 2)
            .map(|e| e.epoch)
            .collect();
        assert_eq!(storm_epochs.len(), 1, "one pass served the whole storm");
        // A single tenant changing demand is below K: not a storm.
        let mut one = storm.clone();
        one[3].want = 16;
        arb.arbitrate(3, SimTime::from_secs_f64(3.0), &one);
        assert_eq!(arb.stats().coalesced_rounds, 1);
        check_ledger_conservation(arb.ledger()).unwrap();
    }

    #[test]
    fn queued_requests_resolve_once_demand_fits() {
        let mut arb = ExecutorArbiter::new(Some(18), ArbiterPolicy::FairShare, 0);
        let contended = [req(0, 16, 1), req(1, 16, 1)];
        let grants = run_epochs(&mut arb, 0, 3, &contended);
        assert!(grants.iter().all(|g| !g.satisfied));
        assert!(arb.stats().queues + arb.stats().denies > 0);
        // Tenant 0 finishes its burst; tenant 1's queued request must be
        // fully granted at the very next barrier.
        let relaxed = [req(0, 2, 1), req(1, 16, 1)];
        let grants = arb.arbitrate(3, SimTime::from_secs_f64(3.0), &relaxed);
        assert!(
            grants[1].satisfied,
            "queued demand resolves when budget frees"
        );
        assert_eq!(grants[1].pressure, 1.0, "fleet no longer oversubscribed");
        check_ledger_conservation(arb.ledger()).unwrap();
    }

    #[test]
    fn sparse_entry_point_always_declines_and_touches_nothing() {
        let snapshot = |arb: &ExecutorArbiter| (arb.ledger().to_vec(), arb.stats(), arb.in_use());
        for policy in [
            ArbiterPolicy::FairShare,
            ArbiterPolicy::StrictPriority,
            ArbiterPolicy::PreemptWithGrace { grace_epochs: 2 },
        ] {
            for budget in [None, Some(10), Some(64)] {
                let mut arb = ExecutorArbiter::new(budget, policy, 1);
                let reqs = [req(0, 8, 1), req(1, 12, 3), req(2, 4, 2)];
                let changed = [req(0, 2, 1), req(1, 30, 3), req(2, 4, 2)];
                for warm in [false, true] {
                    if warm {
                        run_epochs(&mut arb, 0, 3, &reqs);
                    }
                    let before = snapshot(&arb);
                    for (reqs, ids) in [(&reqs, &[][..]), (&changed, &[0, 1][..])] {
                        assert!(arb.arbitrate_sparse(3, SimTime::ZERO, reqs, ids).is_none());
                        assert_eq!(snapshot(&arb), before, "declining touched the arbiter");
                    }
                }
            }
        }
    }

    #[test]
    fn checkpoint_folds_preserve_conservation_and_seq_continuity() {
        let mut arb = ExecutorArbiter::new(Some(64), ArbiterPolicy::FairShare, 0);
        arb.enable_ledger_checkpointing(8);
        // Demand flaps every barrier so the ledger grows steadily.
        for e in 0..40u64 {
            let want = if e % 2 == 0 { 10 } else { 20 };
            let reqs = [req(0, want, 1), req(1, 30 - want, 1)];
            arb.arbitrate(e, SimTime::from_secs_f64(e as f64), &reqs);
            arb.check_conservation().unwrap();
        }
        let cp = *arb.checkpoint().expect("a fold must have happened");
        assert!(arb.ledger().len() <= 8, "tail stays bounded");
        assert_eq!(arb.base_seq(), cp.base_seq);
        assert!(cp.base_seq > 0);
        // The tail continues the folded sequence densely.
        if let Some(first) = arb.ledger().first() {
            assert_eq!(first.seq, cp.base_seq);
        }
        // Replaying the tail from the checkpoint lands on the live total.
        assert_eq!(arb.check_conservation().unwrap(), arb.in_use());
    }

    #[test]
    fn checkpointing_changes_no_decisions() {
        let run = |capacity: Option<usize>| {
            let mut arb = ExecutorArbiter::new(Some(24), ArbiterPolicy::StrictPriority, 3);
            if let Some(cap) = capacity {
                arb.enable_ledger_checkpointing(cap);
            }
            let mut out = String::new();
            for e in 0..30u64 {
                let reqs = [
                    req(0, ((e * 7) % 30) as u32, 1),
                    req(1, ((e * 13) % 30) as u32, 2),
                    req(2, ((e * 3) % 30) as u32, 2),
                ];
                for g in arb.arbitrate(e, SimTime::from_secs_f64(e as f64), &reqs) {
                    out.push_str(&format!("{e}:{}={} ", g.tenant, g.granted));
                }
            }
            out.push_str(&format!("{:?}", arb.stats()));
            out
        };
        assert_eq!(run(None), run(Some(6)));
    }

    #[test]
    fn arbitration_is_deterministic() {
        let run = || {
            let mut arb = ExecutorArbiter::new(Some(24), ArbiterPolicy::StrictPriority, 3);
            let mut out = String::new();
            for e in 0..20u64 {
                let reqs = [
                    req(0, ((e * 7) % 30) as u32, 1),
                    req(1, ((e * 13) % 30) as u32, 2),
                    req(2, ((e * 3) % 30) as u32, 2),
                ];
                for g in arb.arbitrate(e, SimTime::from_secs_f64(e as f64), &reqs) {
                    out.push_str(&format!("{e}:{}={} ", g.tenant, g.granted));
                }
            }
            for ev in arb.ledger() {
                out.push_str(&ev.to_json_value().to_string());
            }
            out
        };
        assert_eq!(run(), run());
    }
}
