//! Fleet resource-arbiter wire types.
//!
//! A fleet deployment runs one NoStop controller per streaming job, all
//! competing for a shared executor pool. The arbiter — implemented in
//! `spark-sim::arbiter`, driven by `spark-sim::fleet` — decides, at each
//! fleet barrier, how many executors each tenant's controller may actually
//! hold. These are the policy-agnostic *wire* types that cross the
//! controller/arbiter boundary: the demand a tenant presents, the policy
//! the operator picks, and the append-only ledger the arbiter emits so
//! every grant, denial, and preemption is auditable and replayable.
//!
//! Everything here is plain data. Ledgers serialize deterministically
//! (simcore's writer: insertion-ordered keys, shortest-round-trip
//! numbers), so fleet digests and differential tests diff them
//! byte-for-byte across runs. The JSON is write-only: nothing parses a
//! ledger back.

use nostop_simcore::json::{self, Json};

/// How the arbiter divides a scarce executor budget among tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbiterPolicy {
    /// Max-min fair share: every tenant gets its demand or its fair share
    /// of the budget, whichever is smaller; slack from light tenants is
    /// redistributed (water-filling). Remainders go to lower tenant ids —
    /// deterministic, and starvation-free by construction.
    FairShare,
    /// Strict priority: tenants are served in (priority desc, id asc)
    /// order until the budget runs out. Higher-priority demand preempts
    /// lower-priority allocations *immediately*.
    StrictPriority,
    /// Strict priority, but an involuntary allocation cut (a preemption)
    /// only takes effect `grace_epochs` fleet barriers after the decision
    /// — the victim gets a drain window, and the beneficiary's grant
    /// grows only as the revoked executors actually free.
    PreemptWithGrace {
        /// Barriers between the preemption decision and its enforcement.
        grace_epochs: u32,
    },
}

impl ArbiterPolicy {
    /// Stable string form (used on the wire and in report JSON).
    pub fn name(&self) -> String {
        match self {
            ArbiterPolicy::FairShare => "fair-share".to_string(),
            ArbiterPolicy::StrictPriority => "strict-priority".to_string(),
            ArbiterPolicy::PreemptWithGrace { grace_epochs } => {
                format!("preempt-grace:{grace_epochs}")
            }
        }
    }
}

/// One tenant's demand, as captured at a fleet barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceRequest {
    /// Tenant id (fleet index).
    pub tenant: u32,
    /// Scheduling priority (larger = more important).
    pub priority: u32,
    /// Executors the tenant's controller wants (its unclamped target).
    pub want: u32,
}

/// What happened to some tenant's allocation in one ledger entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerEventKind {
    /// `amount` more executors were granted.
    Grant,
    /// A request received nothing at its decision barrier (`amount` =
    /// the unmet want). The demand stays live and may be granted later.
    Deny,
    /// A request could only be partially met (`amount` = the shortfall
    /// still outstanding). The demand stays live.
    Queue,
    /// The tenant voluntarily gave back `amount` executors (its want
    /// dropped).
    Release,
    /// The policy decided to take `amount` executors away despite live
    /// demand. Under [`ArbiterPolicy::PreemptWithGrace`] the cut lands
    /// later as a [`LedgerEventKind::Revoke`]; otherwise it is immediate.
    Preempt,
    /// A deferred preemption matured: `amount` executors actually left
    /// the tenant's allocation, exactly `grace_epochs` barriers after
    /// the matching [`LedgerEventKind::Preempt`].
    Revoke,
}

impl LedgerEventKind {
    /// Stable string form.
    pub fn name(&self) -> &'static str {
        match self {
            LedgerEventKind::Grant => "grant",
            LedgerEventKind::Deny => "deny",
            LedgerEventKind::Queue => "queue",
            LedgerEventKind::Release => "release",
            LedgerEventKind::Preempt => "preempt",
            LedgerEventKind::Revoke => "revoke",
        }
    }

    /// How this event changes the fleet's in-use executor total:
    /// `+amount`, `-amount`, or none. [`LedgerEventKind::Preempt`] is
    /// bookkeeping-neutral — the allocation moves on the matching
    /// immediate cut's `in_use_after` (non-grace policies) or on the
    /// later [`LedgerEventKind::Revoke`] (grace policy).
    pub fn in_use_delta(&self, amount: u32) -> i64 {
        match self {
            LedgerEventKind::Grant => amount as i64,
            LedgerEventKind::Release | LedgerEventKind::Revoke => -(amount as i64),
            LedgerEventKind::Deny | LedgerEventKind::Queue | LedgerEventKind::Preempt => 0,
        }
    }
}

/// One append-only ledger entry. The sequence of entries fully determines
/// the fleet's allocation state: replaying `in_use_delta` from zero must
/// reproduce every entry's `in_use_after` — the conservation invariant
/// the property battery checks at every entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerEvent {
    /// Fleet barrier the entry was decided at.
    pub epoch: u64,
    /// Position in the ledger (0-based, globally unique, dense).
    pub seq: u64,
    /// Tenant the entry concerns.
    pub tenant: u32,
    /// What happened.
    pub kind: LedgerEventKind,
    /// Executors moved (or outstanding, for Deny/Queue).
    pub amount: u32,
    /// Fleet-wide allocated executors after this entry.
    pub in_use: u64,
    /// The budget in force (`u64::MAX` = unlimited).
    pub budget: u64,
}

impl LedgerEvent {
    /// Serialize as a [`Json`] value (fixed key order).
    pub fn to_json_value(&self) -> Json {
        json::obj(vec![
            ("epoch", json::uint(self.epoch)),
            ("seq", json::uint(self.seq)),
            ("tenant", json::uint(self.tenant as u64)),
            ("kind", json::str(self.kind.name())),
            ("amount", json::uint(self.amount as u64)),
            ("inUse", json::uint(self.in_use)),
            ("budget", json::uint(self.budget)),
        ])
    }
}

/// A folded ledger prefix. Long-lived fleets grow ledgers without bound;
/// past a configured capacity the arbiter verifies the conservation
/// invariant over the in-memory prefix and collapses it into this
/// snapshot: everything replay needs to continue checking the live tail
/// without the folded entries. `base_seq` is the sequence number the
/// next tail entry will carry (= total entries ever folded), and
/// `in_use` is the fleet-wide allocation after the last folded entry —
/// the replay base the tail's deltas accumulate from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerCheckpoint {
    /// Fleet barrier the fold happened at.
    pub epoch: u64,
    /// Sequence number of the first tail entry after the fold.
    pub base_seq: u64,
    /// Fleet-wide allocated executors after the folded prefix.
    pub in_use: u64,
    /// The budget in force (`u64::MAX` = unlimited).
    pub budget: u64,
}

impl LedgerCheckpoint {
    /// Serialize as a [`Json`] value (fixed key order).
    pub fn to_json_value(&self) -> Json {
        json::obj(vec![
            ("checkpoint", json::uint(self.epoch)),
            ("baseSeq", json::uint(self.base_seq)),
            ("inUse", json::uint(self.in_use)),
            ("budget", json::uint(self.budget)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(ArbiterPolicy::FairShare.name(), "fair-share");
        assert_eq!(ArbiterPolicy::StrictPriority.name(), "strict-priority");
        assert_eq!(
            ArbiterPolicy::PreemptWithGrace { grace_epochs: 3 }.name(),
            "preempt-grace:3"
        );
    }

    #[test]
    fn ledger_deltas_are_signed_right() {
        assert_eq!(LedgerEventKind::Grant.in_use_delta(5), 5);
        assert_eq!(LedgerEventKind::Release.in_use_delta(5), -5);
        assert_eq!(LedgerEventKind::Revoke.in_use_delta(2), -2);
        assert_eq!(LedgerEventKind::Preempt.in_use_delta(9), 0);
        assert_eq!(LedgerEventKind::Queue.in_use_delta(9), 0);
    }

    #[test]
    fn ledger_event_json_has_fixed_key_order() {
        let event = LedgerEvent {
            epoch: 17,
            seq: 204,
            tenant: 3,
            kind: LedgerEventKind::Preempt,
            amount: 4,
            in_use: 96,
            budget: 100,
        };
        assert_eq!(
            event.to_json_value().to_string(),
            "{\"epoch\":17,\"seq\":204,\"tenant\":3,\"kind\":\"preempt\",\"amount\":4,\"inUse\":96,\"budget\":100}"
        );
    }

    #[test]
    fn ledger_checkpoint_json_leads_with_its_own_key() {
        let cp = LedgerCheckpoint {
            epoch: 900,
            base_seq: 4_096,
            in_use: 512,
            budget: 640,
        };
        // The lead key distinguishes a checkpoint line from an event line
        // in a mixed JSONL ledger stream.
        assert_eq!(
            cp.to_json_value().to_string(),
            "{\"checkpoint\":900,\"baseSeq\":4096,\"inUse\":512,\"budget\":640}"
        );
    }
}
