//! What a restarted daemon catches up on, and the counters that show it.
//!
//! A restarted daemon's hazard is not losing the *ordered* state — the
//! rings re-deliver group membership through the total order as soon as
//! it merges back in — but the *derived* state that only exists at each
//! daemon: the live shard map (which ring owns which group after the
//! migrations it slept through) and the per-client dedup watermarks
//! (which session sequences were already ordered, so a client's
//! resubmission after the restart is suppressed instead of delivered
//! twice).
//!
//! Both travel on the total order. Every configuration change is
//! delivered at one position of each ring's order, and after every
//! regular configuration each member orders its versioned map
//! (`TAG_MAP`) and then its watermarks for that ring (`TAG_SEQS`, in
//! self-contained parts of at most the 48 KiB fragment budget; see
//! [`accelring_daemon::packing::seqs_payloads`]). A rejoiner therefore
//! receives the state it lacks right after the position where it
//! rejoined, whatever its size. Its serving gate opens once every ring
//! has delivered the last part of every other member of the latest
//! regular configuration ([`MultiRingEngine::caught_up`](crate::MultiRingEngine::caught_up)).
//!
//! Dedup watermarks are carried **per ring**, never max-merged across
//! rings: a held-send resubmission re-ordered on a group's *new* home
//! ring after a migration must not be suppressed by the watermark its
//! *old* ring set, or the joiner's merged order would diverge from
//! every other observer's.

use std::time::Duration;

/// Per-ring dedup watermarks: `seqs[r]` holds `(client, max_seq)` pairs
/// for ring `r`.
pub type RingSeqs = Vec<Vec<(String, u64)>>;

/// The catch-up counters of one daemon incarnation, read through
/// [`MultiRingDaemon::inspect`](crate::MultiRingDaemon::inspect).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Shard-map epochs adopted from the rings' ordered announcements.
    pub maps_adopted: u64,
    /// Time spent gated (not serving sessions) between (re)start and
    /// catch-up completion.
    pub catchup_wait: Duration,
}
