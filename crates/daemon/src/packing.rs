//! Message packing and fragmentation, as in Spread (Section IV-A3 of the
//! paper): "Spread includes a built-in ability to pack small messages into
//! a single protocol packet ... large messages are fragmented into
//! multiple packets."
//!
//! * [`Packer`] coalesces several small client messages into one ring
//!   payload, amortizing per-packet protocol and processing costs.
//! * [`Fragmenter`]/[`Reassembler`] split a client message larger than the
//!   packet budget across several ring payloads and rebuild it at the
//!   receivers. Because fragments travel through the total order, the
//!   pieces of one message arrive contiguously ordered and reassembly
//!   needs no reordering logic beyond sequence bookkeeping.
//!
//! Both framings are self-describing: the first byte of a ring payload
//! produced by this module tags it as packed ([`TAG_PACKED`]), a fragment
//! ([`TAG_FRAGMENT`]), or a bare message ([`TAG_BARE`]). The group engine
//! applies them transparently.

use accelring_core::wire::DecodeError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::BTreeMap;

/// Tag byte identifying a packed payload.
pub const TAG_PACKED: u8 = 0xA1;
/// Tag byte identifying a fragment.
pub const TAG_FRAGMENT: u8 = 0xA2;
/// Tag byte identifying a bare (neither packed nor fragmented) payload.
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
/// the stream — this is the ordered half of the crash-recovery catch-up
/// protocol (the anti-entropy `MAP_PULL`/`MAP_PUSH` session frames are
/// the unordered half). [`unpack`] rejects the tag, so map frames can
/// never surface as client data.
pub const TAG_MAP: u8 = 0xA5;

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
/// payload. Carries the full map (version, ring count, retired rings,
/// and every non-default placement) so adoption is idempotent and
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
    /// Retired (permanently dead) ring indices.
    pub retired: Vec<u16>,
    /// Explicit group→ring placements (groups not listed hash to their
    /// default ring).
    pub overrides: Vec<(String, u16)>,
}

/// Encodes a shard-map announcement:
/// `[TAG_MAP, sender(2 LE), rings(2 LE), version(8 LE),
///   n_retired(2 LE), retired*2LE,
///   n_overrides(2 LE), {name_len(2 LE), name, ring(2 LE)}*]`.
pub fn map_payload(msg: &MapMsg) -> Bytes {
    let names: usize = msg.overrides.iter().map(|(g, _)| 4 + g.len()).sum();
    let mut buf = BytesMut::with_capacity(17 + 2 * msg.retired.len() + names);
    buf.put_u8(TAG_MAP);
    buf.put_u16_le(msg.sender);
    buf.put_u16_le(msg.rings);
    buf.put_u64_le(msg.version);
    buf.put_u16_le(msg.retired.len() as u16);
    for r in &msg.retired {
        buf.put_u16_le(*r);
    }
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
    if payload.len() < 17 || payload[0] != TAG_MAP {
        return None;
    }
    let mut buf = &payload[1..];
    let sender = buf.get_u16_le();
    let rings = buf.get_u16_le();
    let version = buf.get_u64_le();
    let n_retired = buf.get_u16_le() as usize;
    if buf.remaining() < 2 * n_retired {
        return None;
    }
    let mut retired = Vec::with_capacity(n_retired);
    for _ in 0..n_retired {
        retired.push(buf.get_u16_le());
    }
    if buf.remaining() < 2 {
        return None;
    }
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
        retired,
        overrides,
    })
}

/// Re-wraps already-unpacked messages as one packed ring payload,
/// without a budget: the messages were on the wire together already
/// (the migration filter uses this to re-frame the survivors of a
/// partially frozen packed delivery).
pub fn pack_all(messages: &[Bytes]) -> Bytes {
    let mut buf = BytesMut::with_capacity(1 + messages.iter().map(|m| 4 + m.len()).sum::<usize>());
    buf.put_u8(TAG_PACKED);
    for m in messages {
        buf.put_u32_le(m.len() as u32);
        buf.put_slice(m);
    }
    buf.freeze()
}

/// Coalesces small payloads into packets of at most `budget` bytes.
///
/// # Examples
///
/// ```
/// use accelring_daemon::packing::{unpack, Packer};
/// use bytes::Bytes;
///
/// let mut packer = Packer::new(64);
/// assert!(packer.push(Bytes::from_static(b"tick 1")).is_empty());
/// assert!(packer.push(Bytes::from_static(b"tick 2")).is_empty());
/// let packet = packer.flush().expect("two messages buffered");
/// let messages = unpack(packet).unwrap();
/// assert_eq!(messages.len(), 2);
/// assert_eq!(&messages[1][..], b"tick 2");
/// ```
#[derive(Debug)]
pub struct Packer {
    budget: usize,
    pending: Vec<Bytes>,
    pending_bytes: usize,
}

impl Packer {
    /// Creates a packer with the given packet budget (payload bytes per
    /// ring message; Spread uses what fits a 1500-byte MTU).
    ///
    /// # Panics
    ///
    /// Panics if `budget` cannot hold even one length-prefixed byte.
    pub fn new(budget: usize) -> Packer {
        assert!(budget > 5, "budget must exceed framing overhead");
        Packer {
            budget,
            pending: Vec::new(),
            pending_bytes: 1, // tag byte
        }
    }

    /// Bytes a message of length `len` occupies inside a packet.
    fn framed(len: usize) -> usize {
        4 + len
    }

    /// Number of messages currently buffered.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Adds a message; returns zero or more *completed* packets (a message
    /// that does not fit the current packet closes it; an oversized
    /// message that can never share a packet is emitted alone as a bare
    /// payload for the fragmenter to handle upstream).
    pub fn push(&mut self, payload: Bytes) -> Vec<Bytes> {
        let mut done = Vec::new();
        if Self::framed(payload.len()) + 1 > self.budget {
            // Never fits: flush what we have and pass the big one through.
            if let Some(packet) = self.flush() {
                done.push(packet);
            }
            done.push(bare(payload));
            return done;
        }
        if self.pending_bytes + Self::framed(payload.len()) > self.budget {
            if let Some(packet) = self.flush() {
                done.push(packet);
            }
        }
        self.pending_bytes += Self::framed(payload.len());
        self.pending.push(payload);
        done
    }

    /// Closes and returns the current packet, if any messages are buffered.
    pub fn flush(&mut self) -> Option<Bytes> {
        if self.pending.is_empty() {
            return None;
        }
        let mut buf = BytesMut::with_capacity(self.pending_bytes);
        buf.put_u8(TAG_PACKED);
        for m in self.pending.drain(..) {
            buf.put_u32_le(m.len() as u32);
            buf.put_slice(&m);
        }
        self.pending_bytes = 1;
        Some(buf.freeze())
    }
}

/// Wraps a payload as a bare (unpacked, unfragmented) ring payload.
pub fn bare(payload: Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(1 + payload.len());
    buf.put_u8(TAG_BARE);
    buf.put_slice(&payload);
    buf.freeze()
}

/// Splits a tagged ring payload back into client messages.
///
/// # Errors
///
/// Returns [`DecodeError`] for malformed packed framing or an unknown tag.
pub fn unpack(mut payload: Bytes) -> Result<Vec<Bytes>, DecodeError> {
    if payload.is_empty() {
        return Err(DecodeError::Truncated);
    }
    match payload.get_u8() {
        TAG_BARE => Ok(vec![payload]),
        TAG_PACKED => {
            let mut out = Vec::new();
            while payload.has_remaining() {
                if payload.remaining() < 4 {
                    return Err(DecodeError::Truncated);
                }
                let len = payload.get_u32_le() as usize;
                if payload.remaining() < len {
                    return Err(DecodeError::BadLength {
                        declared: len,
                        available: payload.remaining(),
                    });
                }
                out.push(payload.split_to(len));
            }
            Ok(out)
        }
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
        assert_ne!(TAG_MIG, TAG_BARE);
        assert_ne!(TAG_MIG, TAG_PACKED);
        assert_ne!(TAG_MIG, TAG_FRAGMENT);
        assert_ne!(TAG_MAP, TAG_BARE);
        assert_ne!(TAG_MAP, TAG_PACKED);
        assert_ne!(TAG_MAP, TAG_FRAGMENT);
        assert_ne!(TAG_MAP, TAG_MIG);
    }

    #[test]
    fn map_payloads_round_trip_and_stay_unpackable() {
        for msg in [
            MapMsg {
                version: 0,
                rings: 1,
                sender: 0,
                retired: Vec::new(),
                overrides: Vec::new(),
            },
            MapMsg {
                version: u64::MAX,
                rings: 4,
                sender: 2,
                retired: vec![1, 3],
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
            retired: vec![0],
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
        short[13] = 0xFF; // n_retired low byte
        assert_eq!(parse_map(&short), None);
        // Empty group name.
        let empty_name = map_payload(&MapMsg {
            version: 1,
            rings: 2,
            sender: 0,
            retired: Vec::new(),
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
    fn pack_all_round_trips_survivors() {
        let msgs = vec![
            Bytes::from_static(b"one"),
            Bytes::from_static(b""),
            Bytes::from_static(b"three"),
        ];
        assert_eq!(unpack(pack_all(&msgs)).unwrap(), msgs);
        // An empty survivor set still frames validly (zero messages).
        assert_eq!(unpack(pack_all(&[])).unwrap(), Vec::<Bytes>::new());
    }

    #[test]
    fn packer_coalesces_until_budget() {
        // Budget 24: tag (1) + one framed 10-byte message (14) = 15 fits;
        // a second framed message would reach 29 and closes the packet.
        let mut p = Packer::new(24);
        assert!(p.push(Bytes::from_static(b"0123456789")).is_empty()); // 14+1
        let out = p.push(Bytes::from_static(b"abcdefghij")); // would exceed 32
        assert_eq!(out.len(), 1, "first packet closed");
        let msgs = unpack(out[0].clone()).unwrap();
        assert_eq!(msgs.len(), 1);
        let rest = p.flush().unwrap();
        assert_eq!(unpack(rest).unwrap()[0], Bytes::from_static(b"abcdefghij"));
    }

    #[test]
    fn packer_packs_many_tiny_messages() {
        let mut p = Packer::new(1350);
        let mut packets = Vec::new();
        for i in 0..100u32 {
            packets.extend(p.push(Bytes::from(i.to_le_bytes().to_vec())));
        }
        packets.extend(p.flush());
        let all: Vec<Bytes> = packets
            .into_iter()
            .flat_map(|pkt| unpack(pkt).unwrap())
            .collect();
        assert_eq!(all.len(), 100);
        for (i, m) in all.iter().enumerate() {
            assert_eq!(m.as_ref(), (i as u32).to_le_bytes());
        }
    }

    #[test]
    fn packer_passes_oversized_through_as_bare() {
        let mut p = Packer::new(32);
        p.push(Bytes::from_static(b"small"));
        let out = p.push(Bytes::from(vec![1u8; 100]));
        assert_eq!(out.len(), 2, "pending packet flushed, then bare payload");
        assert_eq!(
            unpack(out[0].clone()).unwrap()[0],
            Bytes::from_static(b"small")
        );
        assert_eq!(
            unpack(out[1].clone()).unwrap()[0],
            Bytes::from(vec![1u8; 100])
        );
    }

    #[test]
    fn flush_empty_returns_none() {
        let mut p = Packer::new(64);
        assert!(p.flush().is_none());
        assert_eq!(p.pending(), 0);
    }

    #[test]
    fn unpack_rejects_garbage() {
        assert!(unpack(Bytes::new()).is_err());
        assert!(unpack(Bytes::from_static(b"\xff rest")).is_err());
        // Truncated packed framing.
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_PACKED);
        buf.put_u32_le(100);
        buf.put_slice(b"short");
        assert!(unpack(buf.freeze()).is_err());
    }

    #[test]
    fn bare_roundtrip() {
        let b = bare(Bytes::from_static(b"payload"));
        assert_eq!(unpack(b).unwrap(), vec![Bytes::from_static(b"payload")]);
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
