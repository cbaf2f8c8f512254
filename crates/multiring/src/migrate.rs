//! Online group migration: the state one daemon keeps per in-flight
//! handoff, plus its lifecycle counters.
//!
//! The protocol itself lives in [`MultiRingEngine`](crate::MultiRingEngine)
//! and is driven entirely by ordered [`MigMsg`](accelring_daemon::packing::MigMsg)
//! deliveries; this module is the bookkeeping. See DESIGN.md §11 for the
//! full state machine and the determinism argument.

use std::collections::BTreeSet;

use accelring_core::{RingIdx, Service};
use bytes::Bytes;

/// A client send caught behind a migration fence, decoded back to its
/// submission parameters so it can be resubmitted verbatim once the
/// group's new home is decided (target ring on commit, source ring on
/// abort). Client-session sequence numbers travel with it, so the
/// duplicate-suppression layer keeps the resubmission exactly-once even
/// if the original escapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeldSend {
    /// Local client the send is on behalf of.
    pub client: String,
    /// Target groups of the multicast.
    pub groups: Vec<String>,
    /// Application payload.
    pub payload: Bytes,
    /// Requested service.
    pub service: Service,
    /// Client-session sequence number (`0` = unsequenced).
    pub seq: u64,
}

/// One in-flight migration, as observed by one daemon. Created when the
/// [`MigOp::Start`](accelring_daemon::packing::MigOp) fence is delivered
/// on the source ring; destroyed by the commit or abort delivered on the
/// same stream — so every daemon creates and destroys it at the same
/// point of the source ring's total order.
#[derive(Debug, Clone)]
pub struct Migration {
    /// The migrating group.
    pub group: String,
    /// The ring the group is leaving.
    pub from: RingIdx,
    /// The ring the group is moving to.
    pub to: RingIdx,
    /// Daemons hosting members of the group at the fence point (computed
    /// from the source ring's group table when the fence is delivered —
    /// identical everywhere, because the table is a pure function of the
    /// source stream).
    pub expected: BTreeSet<u16>,
    /// Daemons whose readiness proof has been delivered on the target
    /// ring. The handoff commits when `expected ⊆ ready`.
    pub ready: BTreeSet<u16>,
    /// This daemon's own sends caught behind the fence, awaiting the
    /// commit/abort decision.
    pub held: Vec<HeldSend>,
    /// Whether this daemon already submitted the commit decision (guards
    /// against re-submitting on every late readiness delivery).
    pub commit_requested: bool,
}

impl Migration {
    /// Whether the readiness barrier is met: every daemon that hosted a
    /// member at the fence point has proven its members are present on
    /// the target ring.
    pub fn barrier_met(&self) -> bool {
        self.expected.iter().all(|d| self.ready.contains(d))
    }
}

/// Lifecycle counters for the migrations a daemon has observed, read
/// through [`MultiRingDaemon::inspect`](crate::MultiRingDaemon::inspect).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationCounters {
    /// Fences delivered (migrations started).
    pub started: u64,
    /// Handoffs committed.
    pub committed: u64,
    /// Migrations aborted (the readiness barrier missed its deadline,
    /// e.g. because the target ring partitioned).
    pub aborted: u64,
    /// Own client submissions caught behind a fence and redirected —
    /// held for the commit/abort decision, or rerouted on the spot when
    /// the decision had already landed.
    pub redirected: u64,
}
