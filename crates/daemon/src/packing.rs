//! Fragmentation, as in Spread (Section IV-A3 of the paper): "large
//! messages are fragmented into multiple packets."
//!
//! [`Fragmenter`]/[`Reassembler`] split a client message larger than the
//! packet budget across several ring payloads and rebuild it at the
//! receivers. Because fragments travel through the total order, the
//! pieces of one message arrive contiguously ordered and reassembly
//! needs no reordering logic beyond sequence bookkeeping.
//!
//! A ring payload carries one message. The first byte tags it as a
//! fragment ([`TAG_FRAGMENT`]), a bare message ([`TAG_BARE`]), a part of
//! a daemon's dedup-watermark announcement ([`TAG_SEQS`]), or a
//! multi-ring control message ([`TAG_MIG`], [`TAG_MAP`]). Spread also
//! packs small messages into one packet; this stack does not, because
//! its traffic leaves nothing to pack (DESIGN.md §3b).

use accelring_core::wire::DecodeError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::BTreeMap;

use crate::proto::MAX_NAME;

/// Tag byte identifying a fragment.
pub const TAG_FRAGMENT: u8 = 0xA2;
/// Tag byte identifying a bare (unfragmented) payload.
pub const TAG_BARE: u8 = 0xA0;
/// Tag byte reserved for multi-ring group-migration control messages.
///
/// Migration fences travel through each ring's total order
/// so every observer applies the migration state transition at the same
/// point of the ring's stream — the whole determinism argument rests on
/// it. [`unpack`] rejects the tag, so a plain single-ring group engine
/// drops them silently.
pub const TAG_MIG: u8 = 0xA4;
/// Tag byte reserved for multi-ring shard-map announcements.
///
/// A shard-map epoch rides a ring's total order so every observer of
/// that ring adopts the new group→ring assignment at the same point of
/// the stream. Every member announces its map after each regular
/// configuration, just before its [`TAG_SEQS`] parts, so a restarted
/// daemon holds the live map by the time it holds its peers'
/// watermarks. [`unpack`] rejects the tag, so map frames can never
/// surface as client data.
pub const TAG_MAP: u8 = 0xA5;
/// Tag byte of one part of a daemon's dedup-watermark announcement.
///
/// After each regular configuration every member orders its per-client
/// watermarks for the ring as one or more parts ([`seqs_payloads`]);
/// every engine that delivers a part max-merges it into its own table,
/// so a restarted daemon learns which session sequences its ring
/// already ordered at a known position of the ring's order. Clients
/// cannot forge the tag: their payloads always go out as [`TAG_BARE`]
/// or [`TAG_FRAGMENT`].
pub const TAG_SEQS: u8 = 0xA6;

/// Phase of the group-migration handshake a [`MigMsg`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigOp {
    /// Ordered on the **source** ring: the handoff fence. Delivery
    /// freezes the group on the source; everything the source orders
    /// for the group after this point is dropped identically everywhere.
    Start,
    /// Ordered on the **target** ring by each daemon once it has
    /// replayed its local members' joins there: proof the target can
    /// order traffic and that this daemon's members are present.
    Ready,
    /// Ordered on the **source** ring once the readiness barrier is
    /// met: the commit decision. Racing with [`MigOp::Abort`] on the
    /// same stream, so whichever is delivered first wins — at every
    /// observer identically.
    Commit,
    /// Ordered on the **source** ring by the abort escalation (target
    /// partitioned, readiness never achieved): reopens the group on the
    /// source and flushes held traffic back to it.
    Abort,
    /// Ordered on the **new home** ring after a commit: unfreezes the
    /// group there (a no-op unless an earlier migration away from that
    /// ring had frozen it — the back-migration case).
    Open,
}

impl MigOp {
    fn to_u8(self) -> u8 {
        match self {
            MigOp::Start => 1,
            MigOp::Ready => 2,
            MigOp::Commit => 3,
            MigOp::Abort => 4,
            MigOp::Open => 5,
        }
    }

    fn from_u8(b: u8) -> Option<MigOp> {
        Some(match b {
            1 => MigOp::Start,
            2 => MigOp::Ready,
            3 => MigOp::Commit,
            4 => MigOp::Abort,
            5 => MigOp::Open,
            _ => return None,
        })
    }
}

/// One group-migration control message, ordered on a ring like any
/// other payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigMsg {
    /// Handshake phase.
    pub op: MigOp,
    /// The migrating group.
    pub group: String,
    /// Source ring index.
    pub from: u16,
    /// Target ring index.
    pub to: u16,
    /// Participant id of the daemon that submitted this message (the
    /// readiness barrier counts distinct senders).
    pub sender: u16,
}

/// Encodes a migration control message:
/// `[TAG_MIG, op, from(2 LE), to(2 LE), sender(2 LE), group bytes]`.
pub fn mig_payload(msg: &MigMsg) -> Bytes {
    let mut buf = BytesMut::with_capacity(8 + msg.group.len());
    buf.put_u8(TAG_MIG);
    buf.put_u8(msg.op.to_u8());
    buf.put_u16_le(msg.from);
    buf.put_u16_le(msg.to);
    buf.put_u16_le(msg.sender);
    buf.put_slice(msg.group.as_bytes());
    buf.freeze()
}

/// Recognizes a migration control payload; `None` for anything else
/// (including malformed migration frames — a daemon must survive a
/// misbehaving peer, so garbage degrades to a dropped delivery).
pub fn parse_mig(payload: &[u8]) -> Option<MigMsg> {
    if payload.len() < 8 || payload[0] != TAG_MIG {
        return None;
    }
    let op = MigOp::from_u8(payload[1])?;
    let from = u16::from_le_bytes([payload[2], payload[3]]);
    let to = u16::from_le_bytes([payload[4], payload[5]]);
    let sender = u16::from_le_bytes([payload[6], payload[7]]);
    let group = std::str::from_utf8(&payload[8..]).ok()?.to_string();
    if group.is_empty() {
        return None;
    }
    Some(MigMsg {
        op,
        group,
        from,
        to,
        sender,
    })
}

/// One shard-map announcement, ordered on a ring like any other
/// payload. Carries the full map (version, ring count and every
/// non-default placement) so adoption is idempotent and
/// order-insensitive across rings: observers apply strictly-newer
/// versions and drop the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapMsg {
    /// Monotone map version (bumped on every placement change).
    pub version: u64,
    /// Total ring count the map hashes over.
    pub rings: u16,
    /// Participant id of the daemon that announced this epoch.
    pub sender: u16,
    /// Explicit group→ring placements (groups not listed hash to their
    /// default ring).
    pub overrides: Vec<(String, u16)>,
}

/// Encodes a shard-map announcement:
/// `[TAG_MAP, sender(2 LE), rings(2 LE), version(8 LE),
///   n_overrides(2 LE), {name_len(2 LE), name, ring(2 LE)}*]`.
pub fn map_payload(msg: &MapMsg) -> Bytes {
    let names: usize = msg.overrides.iter().map(|(g, _)| 4 + g.len()).sum();
    let mut buf = BytesMut::with_capacity(15 + names);
    buf.put_u8(TAG_MAP);
    buf.put_u16_le(msg.sender);
    buf.put_u16_le(msg.rings);
    buf.put_u64_le(msg.version);
    buf.put_u16_le(msg.overrides.len() as u16);
    for (group, ring) in &msg.overrides {
        buf.put_u16_le(group.len() as u16);
        buf.put_slice(group.as_bytes());
        buf.put_u16_le(*ring);
    }
    buf.freeze()
}

/// Recognizes a shard-map announcement; `None` for anything else
/// (including malformed map frames — garbage from a misbehaving peer
/// degrades to a dropped delivery, never a panic).
pub fn parse_map(payload: &[u8]) -> Option<MapMsg> {
    if payload.len() < 15 || payload[0] != TAG_MAP {
        return None;
    }
    let mut buf = &payload[1..];
    let sender = buf.get_u16_le();
    let rings = buf.get_u16_le();
    let version = buf.get_u64_le();
    let n_overrides = buf.get_u16_le() as usize;
    let mut overrides = Vec::with_capacity(n_overrides.min(1024));
    for _ in 0..n_overrides {
        if buf.remaining() < 2 {
            return None;
        }
        let len = buf.get_u16_le() as usize;
        if buf.remaining() < len + 2 {
            return None;
        }
        let group = std::str::from_utf8(&buf[..len]).ok()?.to_string();
        if group.is_empty() {
            return None;
        }
        buf.advance(len);
        let ring = buf.get_u16_le();
        overrides.push((group, ring));
    }
    if buf.has_remaining() {
        return None;
    }
    Some(MapMsg {
        version,
        rings,
        sender,
        overrides,
    })
}

/// One part of a dedup-watermark announcement, ordered on a ring like
/// any other payload. Parts are self-contained: max-merge is order-free
/// and idempotent, so a receiver applies each part as it is delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqsMsg {
    /// Whether this is the sender's last part of the announcement.
    pub last: bool,
    /// `(client, max_seq)` watermarks.
    pub seqs: Vec<(String, u64)>,
}

/// Part header: tag (1) + last flag (1) + entry count (2).
const SEQS_HEADER: usize = 1 + 1 + 2;

/// Encodes one announcement part of `len` bytes:
/// `[TAG_SEQS, last(1), n(2 LE), {name_len(2 LE), name, seq(8 LE)}*]`.
fn seqs_part(last: bool, seqs: &[(String, u64)], len: usize) -> Bytes {
    let mut buf = BytesMut::with_capacity(len);
    buf.put_u8(TAG_SEQS);
    buf.put_u8(u8::from(last));
    buf.put_u16_le(seqs.len() as u16);
    for (name, seq) in seqs {
        buf.put_u16_le(name.len() as u16);
        buf.put_slice(name.as_bytes());
        buf.put_u64_le(*seq);
    }
    buf.freeze()
}

/// Splits a watermark table into announcement parts of at most `budget`
/// bytes each, the last one flagged. An empty table is one empty last
/// part, so receivers always learn that the announcement is complete.
///
/// # Panics
///
/// Panics if a name is longer than [`MAX_NAME`] or `budget` cannot hold
/// one entry of the longest name.
pub fn seqs_payloads(seqs: &[(String, u64)], budget: usize) -> Vec<Bytes> {
    assert!(
        budget >= SEQS_HEADER + 2 + MAX_NAME + 8,
        "budget must hold one watermark entry"
    );
    let mut parts = Vec::new();
    let (mut start, mut len) = (0, SEQS_HEADER);
    for (i, (name, _)) in seqs.iter().enumerate() {
        assert!(name.len() <= MAX_NAME, "watermark name over MAX_NAME");
        // Name length (2), name, seq (8).
        let entry = 2 + name.len() + 8;
        if len + entry > budget || i - start == usize::from(u16::MAX) {
            parts.push(seqs_part(false, &seqs[start..i], len));
            (start, len) = (i, SEQS_HEADER);
        }
        len += entry;
    }
    parts.push(seqs_part(true, &seqs[start..], len));
    parts
}

/// Recognizes one watermark announcement part; `None` for anything else,
/// including malformed parts (a truncated or padded body, a flag other
/// than 0 or 1, a name over [`MAX_NAME`] or not UTF-8). Names may be
/// empty: the table holds whatever names the group-message decoder
/// accepted, and every one of them must survive the trip.
pub fn parse_seqs(payload: &[u8]) -> Option<SeqsMsg> {
    if payload.len() < SEQS_HEADER || payload[0] != TAG_SEQS {
        return None;
    }
    let last = match payload[1] {
        0 => false,
        1 => true,
        _ => return None,
    };
    let mut buf = &payload[2..];
    let n = buf.get_u16_le() as usize;
    let mut seqs = Vec::with_capacity(n.min(buf.remaining() / 10));
    for _ in 0..n {
        if buf.remaining() < 2 {
            return None;
        }
        let len = buf.get_u16_le() as usize;
        if len > MAX_NAME || buf.remaining() < len + 8 {
            return None;
        }
        let name = std::str::from_utf8(&buf[..len]).ok()?.to_string();
        buf.advance(len);
        seqs.push((name, buf.get_u64_le()));
    }
    if buf.has_remaining() {
        return None;
    }
    Some(SeqsMsg { last, seqs })
}

/// Wraps a payload as a bare (unfragmented) ring payload.
pub fn bare(payload: Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(1 + payload.len());
    buf.put_u8(TAG_BARE);
    buf.put_slice(&payload);
    buf.freeze()
}

/// Returns the one client message of a bare ring payload.
///
/// # Errors
///
/// Returns [`DecodeError`] for an empty payload or any other tag.
pub fn unpack(mut payload: Bytes) -> Result<Bytes, DecodeError> {
    if payload.is_empty() {
        return Err(DecodeError::Truncated);
    }
    match payload.get_u8() {
        TAG_BARE => Ok(payload),
        other => Err(DecodeError::BadKind(other)),
    }
}

/// Splits one large payload into tagged fragments of at most `budget`
/// bytes each (including the fragment header).
///
/// # Examples
///
/// ```
/// use accelring_daemon::packing::{Fragmenter, Reassembler};
/// use bytes::Bytes;
///
/// let big = Bytes::from(vec![42u8; 5000]);
/// let frags = Fragmenter::new(1400).split(7, big.clone());
/// assert!(frags.len() > 3);
///
/// let mut reassembler = Reassembler::new(64);
/// let mut whole = None;
/// for f in frags {
///     whole = reassembler.push(f).unwrap();
/// }
/// assert_eq!(whole.unwrap(), big);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fragmenter {
    budget: usize,
}

/// Fragment header: tag (1) + message id (8) + index (2) + total (2) +
/// chunk length (4).
const FRAG_HEADER: usize = 1 + 8 + 2 + 2 + 4;

impl Fragmenter {
    /// Creates a fragmenter with the given per-ring-payload budget.
    ///
    /// # Panics
    ///
    /// Panics if `budget` does not exceed the fragment header.
    pub fn new(budget: usize) -> Fragmenter {
        assert!(budget > FRAG_HEADER, "budget must exceed fragment header");
        Fragmenter { budget }
    }

    /// Whether a payload of `len` bytes needs fragmenting under this
    /// budget (as a bare payload it costs one tag byte).
    pub fn needs_split(&self, len: usize) -> bool {
        1 + len > self.budget
    }

    /// Splits `payload` into fragments stamped with `msg_id` (unique per
    /// sender; receivers key reassembly on the ring sender and this id).
    pub fn split(&self, msg_id: u64, payload: Bytes) -> Vec<Bytes> {
        let chunk_size = self.budget - FRAG_HEADER;
        let total = payload.len().div_ceil(chunk_size).max(1);
        assert!(total <= u16::MAX as usize, "payload too large to fragment");
        let mut out = Vec::with_capacity(total);
        let mut rest = payload;
        for idx in 0..total {
            let take = rest.len().min(chunk_size);
            let chunk = rest.split_to(take);
            let mut buf = BytesMut::with_capacity(FRAG_HEADER + chunk.len());
            buf.put_u8(TAG_FRAGMENT);
            buf.put_u64_le(msg_id);
            buf.put_u16_le(idx as u16);
            buf.put_u16_le(total as u16);
            buf.put_u32_le(chunk.len() as u32);
            buf.put_slice(&chunk);
            out.push(buf.freeze());
        }
        out
    }
}

#[derive(Debug)]
struct PartialMessage {
    total: u16,
    received: u16,
    chunks: Vec<Option<Bytes>>,
}

/// Rebuilds fragmented messages. Keyed by message id; the caller must use
/// one reassembler per ring sender (fragment ids are only unique per
/// sender).
#[derive(Debug)]
pub struct Reassembler {
    partial: BTreeMap<u64, PartialMessage>,
    max_partial: usize,
}

impl Reassembler {
    /// Creates a reassembler holding at most `max_partial` incomplete
    /// messages (oldest discarded beyond that, defending against a peer
    /// that never completes its messages).
    pub fn new(max_partial: usize) -> Reassembler {
        Reassembler {
            partial: BTreeMap::new(),
            max_partial: max_partial.max(1),
        }
    }

    /// Number of incomplete messages currently held.
    pub fn pending(&self) -> usize {
        self.partial.len()
    }

    /// Consumes one tagged fragment; returns the whole message when its
    /// last fragment arrives.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for malformed fragments or inconsistent
    /// totals.
    pub fn push(&mut self, mut fragment: Bytes) -> Result<Option<Bytes>, DecodeError> {
        if fragment.remaining() < FRAG_HEADER {
            return Err(DecodeError::Truncated);
        }
        let tag = fragment.get_u8();
        if tag != TAG_FRAGMENT {
            return Err(DecodeError::BadKind(tag));
        }
        let msg_id = fragment.get_u64_le();
        let idx = fragment.get_u16_le() as usize;
        let total = fragment.get_u16_le();
        let len = fragment.get_u32_le() as usize;
        if total == 0 || idx >= total as usize {
            return Err(DecodeError::BadLength {
                declared: idx,
                available: total as usize,
            });
        }
        if fragment.remaining() != len {
            return Err(DecodeError::BadLength {
                declared: len,
                available: fragment.remaining(),
            });
        }

        let entry = self
            .partial
            .entry(msg_id)
            .or_insert_with(|| PartialMessage {
                total,
                received: 0,
                chunks: vec![None; total as usize],
            });
        if entry.total != total {
            self.partial.remove(&msg_id);
            return Err(DecodeError::BadLength {
                declared: total as usize,
                available: 0,
            });
        }
        if entry.chunks[idx].is_none() {
            entry.chunks[idx] = Some(fragment);
            entry.received += 1;
        }
        if entry.received == entry.total {
            let entry = self.partial.remove(&msg_id).expect("present");
            let mut whole = BytesMut::new();
            for chunk in entry.chunks {
                whole.put_slice(&chunk.expect("all chunks received"));
            }
            return Ok(Some(whole.freeze()));
        }
        // Bound memory: discard the oldest partials beyond the cap.
        while self.partial.len() > self.max_partial {
            let oldest = *self.partial.keys().next().expect("non-empty");
            self.partial.remove(&oldest);
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_tags_collide_with_no_framing_tag() {
        for control in [TAG_MIG, TAG_MAP, TAG_SEQS] {
            assert_ne!(control, TAG_BARE);
            assert_ne!(control, TAG_FRAGMENT);
        }
        assert_ne!(TAG_MAP, TAG_MIG);
        assert_ne!(TAG_SEQS, TAG_MIG);
        assert_ne!(TAG_SEQS, TAG_MAP);
    }

    #[test]
    fn seqs_parts_round_trip_and_stay_unpackable() {
        let seqs: Vec<(String, u64)> = (0..40u64)
            .map(|i| (format!("client-{i:02}"), i * 7))
            .chain([(String::new(), 3), ("x".repeat(MAX_NAME), u64::MAX)])
            .collect();
        let parts = seqs_payloads(&seqs, 256);
        assert!(parts.len() > 1, "a small budget splits the table");
        let mut merged = Vec::new();
        for (i, part) in parts.iter().enumerate() {
            assert!(part.len() <= 256, "part {i} is {} bytes", part.len());
            let msg = parse_seqs(part).expect("a well-formed part");
            assert_eq!(
                msg.last,
                i + 1 == parts.len(),
                "only the last part is flagged"
            );
            merged.extend(msg.seqs);
            assert!(matches!(
                unpack(part.clone()),
                Err(DecodeError::BadKind(TAG_SEQS))
            ));
        }
        assert_eq!(merged, seqs);
        // An empty table is one empty, flagged part.
        let empty = seqs_payloads(&[], 256);
        assert_eq!(empty.len(), 1);
        assert_eq!(
            parse_seqs(&empty[0]),
            Some(SeqsMsg {
                last: true,
                seqs: Vec::new()
            })
        );
    }

    #[test]
    fn parse_seqs_rejects_garbage() {
        assert_eq!(parse_seqs(&[]), None);
        assert_eq!(parse_seqs(b"plain data"), None);
        assert_eq!(parse_seqs(&[TAG_MAP, 1, 0, 0]), None);
        let good = seqs_payloads(&[("alice".to_string(), 9)], 256).remove(0);
        for cut in 0..good.len() {
            assert_eq!(parse_seqs(&good[..cut]), None, "cut at {cut}");
        }
        let mut padded = good.to_vec();
        padded.push(0);
        assert_eq!(parse_seqs(&padded), None);
        let mut bad_flag = good.to_vec();
        bad_flag[1] = 2;
        assert_eq!(parse_seqs(&bad_flag), None);
        let mut bad_utf8 = good.to_vec();
        bad_utf8[6] = 0xFF;
        assert_eq!(parse_seqs(&bad_utf8), None);
    }

    #[test]
    fn map_payloads_round_trip_and_stay_unpackable() {
        for msg in [
            MapMsg {
                version: 0,
                rings: 1,
                sender: 0,
                overrides: Vec::new(),
            },
            MapMsg {
                version: u64::MAX,
                rings: 4,
                sender: 2,
                overrides: vec![("hot".to_string(), 0), ("cold-storage".to_string(), 2)],
            },
        ] {
            let payload = map_payload(&msg);
            assert_eq!(parse_map(&payload), Some(msg));
            // A plain single-ring group engine must drop map frames
            // silently, never surface them as client messages.
            assert!(matches!(
                unpack(payload),
                Err(DecodeError::BadKind(TAG_MAP))
            ));
        }
    }

    #[test]
    fn parse_map_rejects_garbage() {
        assert_eq!(parse_map(&[]), None);
        assert_eq!(parse_map(b"plain data"), None);
        assert_eq!(parse_map(&[TAG_MIG]), None);
        let good = map_payload(&MapMsg {
            version: 9,
            rings: 2,
            sender: 1,
            overrides: vec![("g".to_string(), 1)],
        });
        // Every truncation of a valid frame must be rejected, and so
        // must a frame with trailing junk.
        for cut in 0..good.len() {
            assert_eq!(parse_map(&good[..cut]), None, "cut at {cut}");
        }
        let mut padded = good.to_vec();
        padded.push(0);
        assert_eq!(parse_map(&padded), None);
        // Declared counts larger than the body.
        let mut short = good.to_vec();
        short[13] = 0xFF; // n_overrides low byte
        assert_eq!(parse_map(&short), None);
        // Empty group name.
        let empty_name = map_payload(&MapMsg {
            version: 1,
            rings: 2,
            sender: 0,
            overrides: vec![(String::new(), 0)],
        });
        assert_eq!(parse_map(&empty_name), None);
    }

    #[test]
    fn mig_payloads_round_trip_and_stay_unpackable() {
        for op in [
            MigOp::Start,
            MigOp::Ready,
            MigOp::Commit,
            MigOp::Abort,
            MigOp::Open,
        ] {
            let msg = MigMsg {
                op,
                group: "hot-shard".to_string(),
                from: 0,
                to: 3,
                sender: 7,
            };
            let payload = mig_payload(&msg);
            assert_eq!(parse_mig(&payload), Some(msg));
            // The group engine must never surface a migration frame as a
            // client message.
            assert!(matches!(
                unpack(payload),
                Err(DecodeError::BadKind(TAG_MIG))
            ));
        }
    }

    #[test]
    fn parse_mig_rejects_garbage() {
        assert_eq!(parse_mig(&[]), None);
        assert_eq!(parse_mig(b"plain data"), None);
        assert_eq!(parse_mig(&[TAG_MIG, 1, 0, 0, 0, 1]), None); // truncated
        assert_eq!(parse_mig(&[TAG_MIG, 9, 0, 0, 0, 1, 0, 0, b'g']), None); // bad op
        assert_eq!(parse_mig(&[TAG_MIG, 1, 0, 0, 0, 1, 0, 0]), None); // empty group
        assert_eq!(parse_mig(&[TAG_MAP]), None);
        // Non-UTF8 group bytes.
        assert_eq!(parse_mig(&[TAG_MIG, 1, 0, 0, 0, 1, 0, 0, 0xFF]), None);
    }

    #[test]
    fn unpack_rejects_garbage() {
        assert!(unpack(Bytes::new()).is_err());
        assert!(unpack(Bytes::from_static(b"\xff rest")).is_err());
    }

    #[test]
    fn bare_roundtrip() {
        let b = bare(Bytes::from_static(b"payload"));
        assert_eq!(unpack(b).unwrap(), Bytes::from_static(b"payload"));
    }

    #[test]
    fn fragment_roundtrip_exact_multiple() {
        let f = Fragmenter::new(100);
        let chunk = 100 - FRAG_HEADER;
        let payload = Bytes::from(vec![9u8; chunk * 3]);
        let frags = f.split(1, payload.clone());
        assert_eq!(frags.len(), 3);
        let mut r = Reassembler::new(8);
        assert!(r.push(frags[0].clone()).unwrap().is_none());
        assert!(r.push(frags[1].clone()).unwrap().is_none());
        assert_eq!(r.push(frags[2].clone()).unwrap().unwrap(), payload);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn fragment_roundtrip_empty_payload() {
        let f = Fragmenter::new(100);
        let frags = f.split(2, Bytes::new());
        assert_eq!(frags.len(), 1);
        let mut r = Reassembler::new(8);
        assert_eq!(r.push(frags[0].clone()).unwrap().unwrap(), Bytes::new());
    }

    #[test]
    fn duplicate_fragments_ignored() {
        let f = Fragmenter::new(64);
        let payload = Bytes::from(vec![5u8; 200]);
        let frags = f.split(3, payload.clone());
        let mut r = Reassembler::new(8);
        for frag in &frags[..frags.len() - 1] {
            assert!(r.push(frag.clone()).unwrap().is_none());
            assert!(r.push(frag.clone()).unwrap().is_none(), "duplicate ignored");
        }
        assert_eq!(
            r.push(frags.last().unwrap().clone()).unwrap().unwrap(),
            payload
        );
    }

    #[test]
    fn interleaved_messages_reassemble_independently() {
        let f = Fragmenter::new(64);
        let pay_a = Bytes::from(vec![1u8; 150]);
        let pay_b = Bytes::from(vec![2u8; 150]);
        let fa = f.split(10, pay_a.clone());
        let fb = f.split(11, pay_b.clone());
        let mut r = Reassembler::new(8);
        let mut done = Vec::new();
        for (a, b) in fa.iter().zip(fb.iter()) {
            if let Some(m) = r.push(a.clone()).unwrap() {
                done.push(m);
            }
            if let Some(m) = r.push(b.clone()).unwrap() {
                done.push(m);
            }
        }
        assert_eq!(done, vec![pay_a, pay_b]);
    }

    #[test]
    fn reassembler_bounds_partial_messages() {
        let f = Fragmenter::new(64);
        let mut r = Reassembler::new(2);
        // Start four messages but never finish them.
        for id in 0..4u64 {
            let frags = f.split(id, Bytes::from(vec![0u8; 200]));
            r.push(frags[0].clone()).unwrap();
        }
        assert!(
            r.pending() <= 2,
            "partial cap enforced, got {}",
            r.pending()
        );
    }

    #[test]
    fn reassembler_rejects_malformed() {
        let mut r = Reassembler::new(4);
        assert!(r.push(Bytes::from_static(b"short")).is_err());
        assert!(r.push(bare(Bytes::from_static(b"not a fragment"))).is_err());
        // Inconsistent totals for the same id.
        let f64b = Fragmenter::new(64);
        let f128 = Fragmenter::new(128);
        let a = f64b.split(5, Bytes::from(vec![0u8; 300]));
        let b = f128.split(5, Bytes::from(vec![0u8; 300]));
        let mut r = Reassembler::new(4);
        r.push(a[0].clone()).unwrap();
        assert!(r.push(b[0].clone()).is_err());
    }

    #[test]
    fn needs_split_boundary() {
        let f = Fragmenter::new(100);
        assert!(!f.needs_split(99));
        assert!(f.needs_split(100));
    }
}
