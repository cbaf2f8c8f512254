//! The ordered state-transfer snapshot a rejoining daemon pulls from a
//! peer before it serves clients.
//!
//! A restarted daemon's hazard is not losing the *ordered* state — the
//! rings re-deliver group membership through the total order as soon as
//! it merges back in — but the *derived* state that only exists at each
//! daemon: the live shard map (which ring owns which group after the
//! migrations it slept through) and the per-client dedup
//! watermarks (which session sequences were already ordered, so a
//! client's resubmission after the restart is suppressed instead of
//! delivered twice). This module is the codec for that state.
//!
//! The snapshot travels as the opaque body of a `MAP_PUSH` session
//! frame ([`accelring_daemon::proto::SessionFrame::MapPush`]): the
//! daemon crate frames it, this crate owns its meaning. It is anchored
//! at the responder's released merge-slot cursor ([`RecoverySnapshot::cursor`])
//! — the snapshot fence: everything at or below the cursor is reflected
//! in the snapshot, so a seeded joiner resumes gap-free at `cursor + 1`
//! through the ordinary merged stream.
//!
//! Dedup watermarks are carried **per ring**, never max-merged across
//! rings: a held-send resubmission re-ordered on a group's *new* home
//! ring after a migration must not be suppressed by the watermark its
//! *old* ring set, or the joiner's merged order would diverge from
//! every other observer's.

use std::time::Duration;

use accelring_core::wire::DecodeError;
use accelring_daemon::packing::{map_payload, parse_map, MapMsg};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Longest client name the snapshot codec accepts (matches the session
/// protocol's name bound).
const MAX_NAME: usize = accelring_daemon::proto::MAX_NAME;

/// Per-ring dedup watermarks: `seqs[r]` holds `(client, max_seq)` pairs
/// for ring `r`.
pub type RingSeqs = Vec<Vec<(String, u64)>>;

/// The catch-up counters of one daemon incarnation, read through
/// [`MultiRingDaemon::inspect`](crate::MultiRingDaemon::inspect).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Anti-entropy MAP_PULL requests sent while catching up after a
    /// (re)start.
    pub pulls_sent: u64,
    /// MAP_PUSH snapshots served to catching-up peers.
    pub pushes_served: u64,
    /// Peer snapshots applied (map adopted and dedup watermarks seeded).
    pub snapshots_applied: u64,
    /// Shard-map epochs adopted from the rings' ordered announcements.
    pub maps_adopted: u64,
    /// Time spent gated (not serving sessions) between (re)start and
    /// catch-up completion.
    pub catchup_wait: Duration,
}

/// Everything a rejoining daemon needs to serve safely, as captured by
/// one peer at one point of its merged stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverySnapshot {
    /// The responder's highest observed regular-configuration counter
    /// across its rings. A joiner only trusts snapshots whose epoch is
    /// at least its own observed maximum — a peer still behind the
    /// joiner's view is not a catch-up source.
    pub epoch: u64,
    /// The responder's released merge-slot cursor: the snapshot fence.
    pub cursor: u64,
    /// The responder's shard map (version, ring count, placements).
    pub map: MapMsg,
    /// Per-ring dedup watermarks: `seqs[r]` holds `(client, max_seq)`
    /// pairs for ring `r`.
    pub seqs: RingSeqs,
}

/// Encodes a snapshot as a `MAP_PUSH` body:
/// `[epoch(8 LE), cursor(8 LE), map_len(4 LE), map bytes,
///   n_rings(2 LE), {n(4 LE), {name_len(2 LE), name, seq(8 LE)}*}*]`.
pub fn encode_snapshot(snap: &RecoverySnapshot) -> Bytes {
    let map = map_payload(&snap.map);
    let mut buf = BytesMut::with_capacity(22 + map.len() + 16 * snap.seqs.len());
    buf.put_u64_le(snap.epoch);
    buf.put_u64_le(snap.cursor);
    buf.put_u32_le(map.len() as u32);
    buf.put_slice(&map);
    buf.put_u16_le(snap.seqs.len() as u16);
    for ring in &snap.seqs {
        buf.put_u32_le(ring.len() as u32);
        for (name, seq) in ring {
            buf.put_u16_le(name.len() as u16);
            buf.put_slice(name.as_bytes());
            buf.put_u64_le(*seq);
        }
    }
    buf.freeze()
}

/// Decodes a `MAP_PUSH` body back into a snapshot.
///
/// # Errors
///
/// Returns [`DecodeError`] on malformed input — a recovering daemon
/// must survive a misbehaving peer, so garbage degrades to a retried
/// pull, never a panic.
pub fn decode_snapshot(mut buf: Bytes) -> Result<RecoverySnapshot, DecodeError> {
    if buf.remaining() < 20 {
        return Err(DecodeError::Truncated);
    }
    let epoch = buf.get_u64_le();
    let cursor = buf.get_u64_le();
    let map_len = buf.get_u32_le() as usize;
    if buf.remaining() < map_len {
        return Err(DecodeError::BadLength {
            declared: map_len,
            available: buf.remaining(),
        });
    }
    let map_bytes = buf.split_to(map_len);
    let map = parse_map(&map_bytes).ok_or(DecodeError::Truncated)?;
    if buf.remaining() < 2 {
        return Err(DecodeError::Truncated);
    }
    let n_rings = buf.get_u16_le() as usize;
    let mut seqs = Vec::with_capacity(n_rings.min(64));
    for _ in 0..n_rings {
        if buf.remaining() < 4 {
            return Err(DecodeError::Truncated);
        }
        let n = buf.get_u32_le() as usize;
        let mut ring = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            if buf.remaining() < 2 {
                return Err(DecodeError::Truncated);
            }
            let len = buf.get_u16_le() as usize;
            if len == 0 || len > MAX_NAME || buf.remaining() < len + 8 {
                return Err(DecodeError::BadLength {
                    declared: len,
                    available: buf.remaining(),
                });
            }
            let raw = buf.split_to(len);
            let name = String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::Truncated)?;
            let seq = buf.get_u64_le();
            ring.push((name, seq));
        }
        seqs.push(ring);
    }
    if buf.has_remaining() {
        return Err(DecodeError::BadLength {
            declared: 0,
            available: buf.remaining(),
        });
    }
    Ok(RecoverySnapshot {
        epoch,
        cursor,
        map,
        seqs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> RecoverySnapshot {
        RecoverySnapshot {
            epoch: 12,
            cursor: 9001,
            map: MapMsg {
                version: 7,
                rings: 2,
                sender: 1,
                overrides: vec![("hot".to_string(), 0)],
            },
            seqs: vec![
                vec![("alice".to_string(), 41), ("bob".to_string(), 7)],
                Vec::new(),
            ],
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = snapshot();
        assert_eq!(decode_snapshot(encode_snapshot(&snap)).unwrap(), snap);
        // The degenerate empty snapshot (fresh cluster) round-trips too.
        let empty = RecoverySnapshot {
            epoch: 0,
            cursor: 0,
            map: MapMsg {
                version: 0,
                rings: 1,
                sender: 0,
                overrides: Vec::new(),
            },
            seqs: vec![Vec::new()],
        };
        assert_eq!(decode_snapshot(encode_snapshot(&empty)).unwrap(), empty);
    }

    #[test]
    fn snapshot_truncation_and_trailing_junk_rejected() {
        let full = encode_snapshot(&snapshot());
        for cut in 0..full.len() {
            assert!(
                decode_snapshot(full.slice(..cut)).is_err(),
                "cut at {cut} must not decode"
            );
        }
        let mut padded = full.to_vec();
        padded.push(0);
        assert!(decode_snapshot(Bytes::from(padded)).is_err());
    }

    #[test]
    fn snapshot_rejects_hostile_names() {
        let mut bad = snapshot();
        bad.seqs[0][0].0 = "x".repeat(MAX_NAME + 1);
        assert!(decode_snapshot(encode_snapshot(&bad)).is_err());
        bad.seqs[0][0].0 = String::new();
        assert!(decode_snapshot(encode_snapshot(&bad)).is_err());
    }
}
