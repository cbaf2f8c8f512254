//! Merge-clock types for multi-ring ordering.
//!
//! A single ring totally orders its own stream; running R independent
//! rings multiplies ordering throughput but yields R unrelated streams.
//! Multi-Ring Paxos merges them with a deterministic rule paced by time;
//! here the pace is the token round itself. Each ring's leader starts a
//! rotation at `max(round + 1, now in µs)` (see
//! [`crate::Participant::handle_token`]), so the round every data message
//! carries is the time its rotation began, on a clock every ring shares.
//! The merged stream releases messages in global `(round, ring)` order,
//! per-ring FIFO within a round. Because the round is stamped into the
//! message by its ring, every observer computes the identical merged
//! order; a clock offset between hosts moves only when a message can be
//! released, never where.
//!
//! Rounds stay monotone per ring across view changes: the commit token
//! carries the highest round every member has seen, and the new ring's
//! first rotation starts above it.

/// Index of a ring within a multi-ring deployment (`0..R`).
///
/// Distinct from [`crate::RingId`], which names one membership *instance*
/// of one ring; a `RingIdx` names the logical shard and is stable across
/// that shard's view changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RingIdx(u16);

impl RingIdx {
    /// Wraps a raw ring index.
    pub const fn new(idx: u16) -> Self {
        Self(idx)
    }

    /// The raw index.
    pub const fn as_u16(self) -> u16 {
        self.0
    }

    /// The index widened to `usize` for vector addressing.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for RingIdx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ring{}", self.0)
    }
}

/// Global position of a message in the merged multi-ring stream.
///
/// Ordered first by merge slot, then by ring index — the deterministic
/// round-robin tiebreak. Messages stamped with the same key preserve
/// their per-ring delivery order (the merge is stable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MergeKey {
    /// Merge slot: the token round the message was ordered in.
    pub slot: u64,
    /// Ring the message was ordered on (round-robin tiebreak).
    pub ring: RingIdx,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_key_orders_by_slot_then_ring() {
        let a = MergeKey {
            slot: 1,
            ring: RingIdx::new(3),
        };
        let b = MergeKey {
            slot: 2,
            ring: RingIdx::new(0),
        };
        let c = MergeKey {
            slot: 1,
            ring: RingIdx::new(4),
        };
        assert!(a < b);
        assert!(a < c);
        assert!(c < b);
    }

    #[test]
    fn ring_idx_displays_compactly() {
        assert_eq!(RingIdx::new(7).to_string(), "ring7");
    }
}
