//! The deterministic cross-ring merge.
//!
//! Each ring hands the [`Merger`] its own totally ordered stream; the
//! merger interleaves the streams into one total order every observer
//! computes identically. Each entry's merge slot is the token round it
//! was ordered in — a leader-paced clock stamp (see
//! [`accelring_core::Participant::handle_token`]) — and entries are
//! released in global `(slot, ring index)` order, per-ring FIFO within a
//! slot.
//!
//! Crucially, the merged **order** is a pure function of the per-ring
//! streams — slot and ring index are intrinsic to each message — while
//! the per-ring **floors** (how far each ring is known to have
//! progressed) control only *when* entries become releasable. Two
//! observers may release at different times, but never in different
//! orders.
//!
//! A silent ring would stall the merge if only its deliveries raised its
//! floor. The runtime raises it from token visits instead
//! ([`Merger::advance`] with [`accelring_core::Participant::merge_floor`]):
//! a token visit whose departure seq the node has delivered proves that
//! every later message of the ring carries a round at least as large, so
//! an idle ring holds the merge for about one of its rotations. A
//! permanently dead ring is removed with [`Merger::retire`].

use std::collections::VecDeque;

use accelring_core::{RingIdx, Round};

/// One released element of the merged stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergedEntry<T> {
    /// An ordered item from one ring.
    Item {
        /// Ring that ordered it.
        ring: RingIdx,
        /// Merge slot it was released at.
        slot: u64,
        /// The item.
        item: T,
    },
    /// An EVS view-change fence: ring `ring` installed a new regular
    /// configuration at this point of the merged stream. Everything the
    /// ring ordered before its view change merges before the fence,
    /// everything after merges after it.
    Fence {
        /// Ring whose configuration changed.
        ring: RingIdx,
        /// Merge slot the fence was released at.
        slot: u64,
        /// The item carried with the fence (e.g. configuration-change
        /// notifications for local clients).
        item: T,
    },
}

impl<T> MergedEntry<T> {
    /// Ring the entry came from.
    pub fn ring(&self) -> RingIdx {
        match self {
            MergedEntry::Item { ring, .. } | MergedEntry::Fence { ring, .. } => *ring,
        }
    }

    /// Merge slot the entry was released at.
    pub fn slot(&self) -> u64 {
        match self {
            MergedEntry::Item { slot, .. } | MergedEntry::Fence { slot, .. } => *slot,
        }
    }

    /// The carried item, discarding merge metadata.
    pub fn into_item(self) -> T {
        match self {
            MergedEntry::Item { item, .. } | MergedEntry::Fence { item, .. } => item,
        }
    }
}

#[derive(Debug)]
struct Queued<T> {
    slot: u64,
    fence: bool,
    item: T,
}

#[derive(Debug)]
struct RingLane<T> {
    queue: VecDeque<Queued<T>>,
    /// Every future entry of this ring has slot ≥ `floor`; it is also the
    /// ring's last slot, where fences and notifications queue.
    floor: u64,
    /// Retired rings never produce again (treated as floor = ∞).
    retired: bool,
}

impl<T> RingLane<T> {
    fn effective_floor(&self) -> u64 {
        if self.retired {
            u64::MAX
        } else {
            self.floor
        }
    }
}

/// Deterministic round-ordered merger over R totally ordered ring
/// streams.
///
/// Feed each ring's deliveries in its own order via [`push`], its floor
/// via [`advance`] and view changes via [`push_fence`]; each call returns
/// the entries the merged stream can now release. The release order is
/// identical for every observer fed the same per-ring streams,
/// regardless of how the calls interleave across rings.
///
/// [`push`]: Merger::push
/// [`advance`]: Merger::advance
/// [`push_fence`]: Merger::push_fence
#[derive(Debug)]
pub struct Merger<T> {
    rings: Vec<RingLane<T>>,
    /// Highest slot released so far (the delivered-slot cursor a state
    /// snapshot is anchored at: a joiner seeded with this cursor resumes
    /// gap-free at `cursor + 1`).
    cursor: u64,
}

impl<T> Merger<T> {
    /// A merger over `rings` rings.
    pub fn new(rings: u16) -> Merger<T> {
        Merger {
            rings: (0..rings.max(1))
                .map(|_| RingLane {
                    queue: VecDeque::new(),
                    floor: 0,
                    retired: false,
                })
                .collect(),
            cursor: 0,
        }
    }

    /// Highest merge slot released so far (0 before the first release).
    /// Every observer fed the same per-ring streams computes the same
    /// cursor after the same releases — it is the snapshot anchor for
    /// ordered state transfer.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Number of rings being merged.
    pub fn rings(&self) -> u16 {
        self.rings.len() as u16
    }

    fn lane(&mut self, ring: RingIdx) -> &mut RingLane<T> {
        &mut self.rings[ring.as_usize()]
    }

    /// The floor of one ring (∞-as-`u64::MAX` if retired).
    pub fn floor(&self, ring: RingIdx) -> u64 {
        self.rings[ring.as_usize()].effective_floor()
    }

    /// Entries queued but not yet releasable, across all rings.
    pub fn pending(&self) -> usize {
        self.rings.iter().map(|l| l.queue.len()).sum()
    }

    /// Enqueues one ordered item from `ring`, stamped with the token
    /// round it was ordered in, and returns any entries the merged
    /// stream releases as a result.
    pub fn push(&mut self, ring: RingIdx, round: Round, item: T) -> Vec<MergedEntry<T>> {
        let lane = self.lane(ring);
        // Rounds never fall within a ring's stream; the clamp keeps the
        // lane FIFO even if one did.
        let slot = round.as_u64().max(lane.floor);
        lane.floor = slot;
        lane.queue.push_back(Queued {
            slot,
            fence: false,
            item,
        });
        self.drain()
    }

    /// Raises `ring`'s floor to `round` — from a token visit, or from an
    /// ordered delivery that carries no client-visible content — and
    /// returns any entries the merged stream releases as a result. The
    /// caller guarantees that no later entry of the ring carries a
    /// smaller round.
    pub fn advance(&mut self, ring: RingIdx, round: Round) -> Vec<MergedEntry<T>> {
        let lane = self.lane(ring);
        lane.floor = lane.floor.max(round.as_u64());
        self.drain()
    }

    /// Records that `ring` installed a new regular configuration: a fence
    /// entry is queued at the ring's last slot. The new configuration's
    /// rounds start above every round its members have seen, so its
    /// messages merge after the fence.
    pub fn push_fence(&mut self, ring: RingIdx, item: T) -> Vec<MergedEntry<T>> {
        self.queue_at_floor(ring, true, item)
    }

    /// Enqueues an item at `ring`'s last slot without consuming a round
    /// (used for per-ring events that carry no token round, e.g.
    /// transitional-configuration notifications).
    pub fn push_now(&mut self, ring: RingIdx, item: T) -> Vec<MergedEntry<T>> {
        self.queue_at_floor(ring, false, item)
    }

    fn queue_at_floor(&mut self, ring: RingIdx, fence: bool, item: T) -> Vec<MergedEntry<T>> {
        let lane = self.lane(ring);
        let slot = lane.floor;
        lane.queue.push_back(Queued { slot, fence, item });
        self.drain()
    }

    /// Permanently removes `ring` from the merge: its queued entries
    /// still release in order, but its floor no longer gates the
    /// other rings. Called after a rebalance moves the dead ring's
    /// groups elsewhere.
    pub fn retire(&mut self, ring: RingIdx) -> Vec<MergedEntry<T>> {
        self.lane(ring).retired = true;
        self.drain()
    }

    /// Flushes everything still queued, in merge-key order, ignoring
    /// floors. Only sound once no ring will produce again (end of a
    /// simulation, offline journal merging).
    pub fn finish(&mut self) -> Vec<MergedEntry<T>> {
        for lane in &mut self.rings {
            lane.retired = true;
        }
        self.drain()
    }

    /// The smallest `(slot, ring)` among queue heads, if any.
    fn min_head(&self) -> Option<(u64, usize)> {
        self.rings
            .iter()
            .enumerate()
            .filter_map(|(i, lane)| lane.queue.front().map(|q| (q.slot, i)))
            .min()
    }

    /// Releases every entry proven final: the globally minimal queued
    /// key, repeatedly, as long as every *other* ring's floor shows it
    /// can never produce a smaller key.
    fn drain(&mut self) -> Vec<MergedEntry<T>> {
        let mut out = Vec::new();
        while let Some((slot, ring)) = self.min_head() {
            let releasable = self.rings.iter().enumerate().all(|(q, lane)| {
                q == ring
                    || lane.effective_floor() > slot
                    || (lane.effective_floor() == slot && q > ring)
            });
            if !releasable {
                break;
            }
            let q = self.rings[ring].queue.pop_front().expect("head exists");
            self.cursor = self.cursor.max(q.slot);
            let ring = RingIdx::new(ring as u16);
            out.push(if q.fence {
                MergedEntry::Fence {
                    ring,
                    slot: q.slot,
                    item: q.item,
                }
            } else {
                MergedEntry::Item {
                    ring,
                    slot: q.slot,
                    item: q.item,
                }
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R0: RingIdx = RingIdx::new(0);
    const R1: RingIdx = RingIdx::new(1);
    const R2: RingIdx = RingIdx::new(2);

    fn labels<T: Clone>(entries: &[MergedEntry<T>]) -> Vec<T> {
        entries.iter().map(|e| e.clone().into_item()).collect()
    }

    #[test]
    fn single_ring_passes_through_in_order() {
        let mut m: Merger<u32> = Merger::new(1);
        let mut got = Vec::new();
        for (i, round) in [(1u32, 0u64), (2, 0), (3, 1)] {
            got.extend(m.push(R0, Round::new(round), i));
        }
        got.extend(m.finish());
        assert_eq!(labels(&got), vec![1, 2, 3]);
    }

    #[test]
    fn release_waits_for_other_rings_watermark() {
        let mut m: Merger<&str> = Merger::new(2);
        // Ring 0 orders "a" at slot 0. Ring 1's floor is also 0, but
        // anything ring 1 still produces at slot 0 sorts after ring 0's
        // entries, so "a" is already final.
        let got = m.push(R0, Round::new(0), "a");
        assert_eq!(labels(&got), vec!["a"]);
        // Ring 1 at slot 0 now needs ring 0 to pass slot 0.
        assert!(m.push(R1, Round::new(0), "b").is_empty());
        let got = m.advance(R0, Round::new(1));
        assert_eq!(labels(&got), vec!["b"]);
    }

    #[test]
    fn merged_order_is_slot_then_ring() {
        let mut m: Merger<&str> = Merger::new(2);
        let mut got = Vec::new();
        got.extend(m.push(R1, Round::new(0), "r1s0"));
        got.extend(m.push(R1, Round::new(1), "r1s1"));
        got.extend(m.push(R0, Round::new(0), "r0s0"));
        got.extend(m.push(R0, Round::new(1), "r0s1"));
        got.extend(m.finish());
        assert_eq!(labels(&got), vec!["r0s0", "r1s0", "r0s1", "r1s1"]);
    }

    #[test]
    fn merge_order_is_arrival_invariant() {
        // The defining property: any interleaving of the same per-ring
        // streams merges identically.
        let r0 = [(0u64, "a0"), (0, "a1"), (2, "a2")];
        let r1 = [(0u64, "b0"), (1, "b1"), (1, "b2")];
        let r2 = [(3u64, "c0")];
        let feed = |order: &[usize]| {
            let mut m: Merger<&str> = Merger::new(3);
            let (mut i0, mut i1, mut i2) = (0, 0, 0);
            let mut got = Vec::new();
            for &ring in order {
                match ring {
                    0 if i0 < r0.len() => {
                        got.extend(m.push(R0, Round::new(r0[i0].0), r0[i0].1));
                        i0 += 1;
                    }
                    1 if i1 < r1.len() => {
                        got.extend(m.push(R1, Round::new(r1[i1].0), r1[i1].1));
                        i1 += 1;
                    }
                    2 if i2 < r2.len() => {
                        got.extend(m.push(R2, Round::new(r2[i2].0), r2[i2].1));
                        i2 += 1;
                    }
                    _ => {}
                }
            }
            got.extend(m.finish());
            labels(&got)
        };
        let a = feed(&[0, 0, 0, 1, 1, 1, 2]);
        let b = feed(&[2, 1, 0, 1, 0, 1, 0]);
        let c = feed(&[1, 0, 2, 0, 1, 0, 1]);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn idle_ring_floor_unblocks_via_advance() {
        let mut m: Merger<&str> = Merger::new(2);
        assert!(m.push(R1, Round::new(5), "late").is_empty());
        // Ring 0 is idle; its token visits raise the floor without
        // contributing items. A floor *equal* to the blocked slot is not
        // enough for a lower-indexed ring (it may still produce more
        // messages in that round).
        assert!(m.advance(R0, Round::new(3)).is_empty());
        assert!(m.advance(R0, Round::new(5)).is_empty());
        let got = m.advance(R0, Round::new(6));
        assert_eq!(labels(&got), vec!["late"]);
        // A higher-indexed ring needs only to reach the slot.
        assert!(m.push(R0, Round::new(9), "r0").is_empty());
        assert_eq!(labels(&m.advance(R1, Round::new(9))), vec!["r0"]);
    }

    #[test]
    fn fence_orders_between_configurations() {
        let mut m: Merger<&str> = Merger::new(2);
        let mut got = Vec::new();
        got.extend(m.push(R0, Round::new(4), "old"));
        got.extend(m.push_fence(R0, "fence"));
        // The new configuration's rounds start above every round its
        // members saw, so its messages merge after the fence.
        got.extend(m.push(R0, Round::new(9), "new"));
        got.extend(m.push(R0, Round::new(12), "newer"));
        got.extend(m.retire(R1));
        got.extend(m.finish());
        assert_eq!(labels(&got), vec!["old", "fence", "new", "newer"]);
        assert_eq!(got[1].slot(), 4, "the fence sits at the ring's last slot");
        let fence = |e: &MergedEntry<&str>| matches!(e, MergedEntry::Fence { .. });
        assert_eq!(got.iter().position(fence), Some(1));
        // Slots never rewind across the fence.
        let slots: Vec<u64> = got.iter().map(MergedEntry::slot).collect();
        assert!(slots.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn divergent_config_histories_stamp_common_messages_identically() {
        // Two observers of the same ring saw different configuration
        // histories (one transited an extra configuration while
        // partitioned away), yet messages common to both get identical
        // slots: the slot is the message's own round, never a function
        // of the observer's history.
        let run = |extra: bool| {
            let mut m: Merger<&str> = Merger::new(1);
            let mut got = Vec::new();
            got.extend(m.push_fence(R0, "cfg4"));
            got.extend(m.push(R0, Round::new(10), "common1"));
            if extra {
                got.extend(m.push_fence(R0, "cfg8"));
                got.extend(m.push(R0, Round::new(17), "private"));
            }
            got.extend(m.push_fence(R0, "cfg12"));
            got.extend(m.push(R0, Round::new(30), "common2"));
            got.extend(m.finish());
            got.into_iter()
                .filter_map(|e| match e {
                    MergedEntry::Item { slot, item, .. } if item.starts_with("common") => {
                        Some((item, slot))
                    }
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn retire_removes_a_dead_ring_from_the_gate() {
        let mut m: Merger<&str> = Merger::new(3);
        assert!(m.push(R1, Round::new(2), "x").is_empty());
        assert!(m.advance(R2, Round::new(9)).is_empty());
        // Ring 0 is dead. Retiring it leaves rings 1 and 2 to merge.
        let got = m.retire(R0);
        assert_eq!(labels(&got), vec!["x"]);
    }

    #[test]
    fn push_now_orders_at_current_slot() {
        let mut m: Merger<&str> = Merger::new(2);
        let mut got = Vec::new();
        got.extend(m.push(R0, Round::new(1), "a"));
        got.extend(m.push_now(R0, "note"));
        got.extend(m.push(R0, Round::new(2), "b"));
        got.extend(m.retire(R1));
        got.extend(m.finish());
        assert_eq!(labels(&got), vec!["a", "note", "b"]);
    }

    #[test]
    fn cursor_tracks_max_released_slot() {
        let mut m: Merger<&str> = Merger::new(2);
        assert_eq!(m.cursor(), 0);
        // Nothing queued releases while ring 1's watermark lags.
        assert!(m.push(R1, Round::new(3), "late").is_empty());
        assert_eq!(m.cursor(), 0, "queued-but-unreleased must not move it");
        let got = m.advance(R0, Round::new(4));
        assert_eq!(labels(&got), vec!["late"]);
        assert_eq!(m.cursor(), 3);
        // The cursor is a pure function of the released prefix: a second
        // merger fed the same streams lands on the same cursor.
        let mut m2: Merger<&str> = Merger::new(2);
        m2.advance(R0, Round::new(4));
        m2.push(R1, Round::new(3), "late");
        assert_eq!(m2.cursor(), 3);
    }

    #[test]
    fn finish_flushes_everything_in_key_order() {
        let mut m: Merger<&str> = Merger::new(2);
        let mut got = Vec::new();
        got.extend(m.push(R1, Round::new(1), "b"));
        got.extend(m.push(R0, Round::new(1), "a"));
        got.extend(m.push(R0, Round::new(9), "z"));
        got.extend(m.finish());
        assert_eq!(labels(&got), vec!["a", "b", "z"]);
        assert_eq!(m.pending(), 0);
    }
}
