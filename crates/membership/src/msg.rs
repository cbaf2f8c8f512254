//! Membership control messages and their wire codec.
//!
//! Control messages share the data socket with ordinary traffic, framed as
//! [`accelring_core::wire::Kind::Opaque`] datagrams with a one-byte
//! sub-kind.

use std::collections::BTreeSet;

use accelring_core::wire::{self, DecodeError};
use accelring_core::{DataMessage, ParticipantId, RingId, Round, Seq};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Per-member state carried by the commit token: what this member can
/// contribute to recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberInfo {
    /// The member.
    pub pid: ParticipantId,
    /// The ring it is coming from.
    pub old_ring: RingId,
    /// Its all-received-up-to line in the old ring.
    pub local_aru: Seq,
    /// The highest old-ring sequence number it still holds.
    pub highest_held: Seq,
    /// The highest token round it processed or holds a message from. The
    /// new ring's first rotation starts above every member's value.
    pub round: Round,
}

/// The commit token: circulated twice around the forming ring so every
/// member learns every other member's recovery information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitToken {
    /// Identity of the ring being formed.
    pub new_ring: RingId,
    /// Members of the new ring, in ring order.
    pub members: Vec<ParticipantId>,
    /// Recovery info appended by each member during the first rotation.
    pub infos: Vec<MemberInfo>,
    /// Hop counter; the token stops after `2 * members.len() - 1` sends.
    pub hop: u32,
}

impl CommitToken {
    /// Whether every member has contributed its info (second rotation).
    pub fn is_complete(&self) -> bool {
        self.infos.len() == self.members.len()
    }

    /// Recovery info for `pid`, if present.
    pub fn info_of(&self, pid: ParticipantId) -> Option<&MemberInfo> {
        self.infos.iter().find(|i| i.pid == pid)
    }
}

/// Membership control messages (Totem-style).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlMessage {
    /// A join message: the sender's current view of who is alive and who
    /// has failed. Consensus on these two sets forms the new membership.
    Join {
        /// Sender of the join.
        sender: ParticipantId,
        /// Processes the sender believes should be in the membership.
        proc_set: BTreeSet<ParticipantId>,
        /// Processes the sender has given up on.
        fail_set: BTreeSet<ParticipantId>,
        /// Highest ring counter the sender has seen, so the new ring id
        /// exceeds every old one.
        ring_counter: u64,
        /// The sender's gather-attempt counter, incremented every time it
        /// re-enters Gather. Lets receivers distinguish a *fresh*
        /// membership attempt from a straggler rebroadcast even when the
        /// proc/fail sets are identical.
        epoch: u64,
    },
    /// The circulating commit token.
    Commit(CommitToken),
    /// An old-ring message flooded during recovery so every transitional
    /// member ends up holding the same set.
    Recovery {
        /// Who flooded it.
        sender: ParticipantId,
        /// The dissolved ring the message belongs to.
        old_ring: RingId,
        /// The original message, stamps intact.
        msg: DataMessage,
    },
    /// Barrier: the sender has finished flooding and is ready to enter the
    /// new ring. Carries the sender's stable claim of what it holds from
    /// its old ring, so peers complete recovery only once they hold the
    /// union — a bare "done" bit would let a member whose flood was lost
    /// deliver the transitional configuration with a hole its partners
    /// filled, violating virtual synchrony.
    RecoveryDone {
        /// Who is done.
        sender: ParticipantId,
        /// The ring being formed.
        new_ring: RingId,
        /// The dissolved ring the sender is recovering from.
        old_ring: RingId,
        /// Old-ring sequence numbers above the recovery floor the sender
        /// held when it entered Recover (fixed for the whole recovery, so
        /// rebroadcasts are idempotent).
        holds: Vec<Seq>,
    },
    /// Periodic beacon multicast by operational daemons so that rings that
    /// partitioned while idle can discover each other and merge. (In
    /// deployed Spread, daemons of separate rings share the IP-multicast
    /// group, so foreign data serves this purpose; the beacon covers idle
    /// rings and unicast fan-out deployments.)
    Presence {
        /// Who is announcing.
        sender: ParticipantId,
        /// The ring the sender currently belongs to.
        ring_id: RingId,
    },
    /// A member asks its ring leader to turn a possibly resting ring: to
    /// release the token it holds, or to skip its next hold.
    Wake {
        /// Who needs the ring to turn.
        sender: ParticipantId,
        /// The ring that should turn.
        ring_id: RingId,
        /// The round of the last token visit the sender saw. A leader
        /// that has started a later rotation since ignores the wake: that
        /// rotation visits the sender anyway.
        round: Round,
    },
}

impl ControlMessage {
    /// The sender of this control message.
    pub fn sender(&self) -> Option<ParticipantId> {
        match self {
            ControlMessage::Join { sender, .. }
            | ControlMessage::Recovery { sender, .. }
            | ControlMessage::RecoveryDone { sender, .. }
            | ControlMessage::Presence { sender, .. }
            | ControlMessage::Wake { sender, .. } => Some(*sender),
            ControlMessage::Commit(_) => None,
        }
    }
}

const SUB_JOIN: u8 = 16;
const SUB_COMMIT: u8 = 17;
const SUB_RECOVERY: u8 = 18;
const SUB_RECOVERY_DONE: u8 = 19;
const SUB_PRESENCE: u8 = 20;
const SUB_WAKE: u8 = 21;

fn put_ring_id(buf: &mut BytesMut, ring: RingId) {
    buf.put_u16_le(ring.representative().as_u16());
    buf.put_u64_le(ring.counter());
}

fn get_ring_id(buf: &mut Bytes) -> Result<RingId, DecodeError> {
    if buf.remaining() < 10 {
        return Err(DecodeError::Truncated);
    }
    let rep = ParticipantId::new(buf.get_u16_le());
    Ok(RingId::new(rep, buf.get_u64_le()))
}

fn put_pid_set(buf: &mut BytesMut, set: &BTreeSet<ParticipantId>) {
    buf.put_u16_le(set.len() as u16);
    for p in set {
        buf.put_u16_le(p.as_u16());
    }
}

fn get_pid_set(buf: &mut Bytes) -> Result<BTreeSet<ParticipantId>, DecodeError> {
    if buf.remaining() < 2 {
        return Err(DecodeError::Truncated);
    }
    let n = buf.get_u16_le() as usize;
    if buf.remaining() < n * 2 {
        return Err(DecodeError::Truncated);
    }
    Ok((0..n)
        .map(|_| ParticipantId::new(buf.get_u16_le()))
        .collect())
}

/// Encodes a control message into a self-describing datagram (shares the
/// standard envelope, kind [`wire::Kind::Opaque`]).
pub fn encode_control(msg: &ControlMessage) -> Bytes {
    let mut body = BytesMut::with_capacity(256);
    match msg {
        ControlMessage::Join {
            sender,
            proc_set,
            fail_set,
            ring_counter,
            epoch,
        } => {
            body.put_u8(SUB_JOIN);
            body.put_u16_le(sender.as_u16());
            put_pid_set(&mut body, proc_set);
            put_pid_set(&mut body, fail_set);
            body.put_u64_le(*ring_counter);
            body.put_u64_le(*epoch);
        }
        ControlMessage::Commit(ct) => {
            body.put_u8(SUB_COMMIT);
            put_ring_id(&mut body, ct.new_ring);
            body.put_u16_le(ct.members.len() as u16);
            for m in &ct.members {
                body.put_u16_le(m.as_u16());
            }
            body.put_u16_le(ct.infos.len() as u16);
            for i in &ct.infos {
                body.put_u16_le(i.pid.as_u16());
                put_ring_id(&mut body, i.old_ring);
                body.put_u64_le(i.local_aru.as_u64());
                body.put_u64_le(i.highest_held.as_u64());
                body.put_u64_le(i.round.as_u64());
            }
            body.put_u32_le(ct.hop);
        }
        ControlMessage::Recovery {
            sender,
            old_ring,
            msg,
        } => {
            body.put_u8(SUB_RECOVERY);
            body.put_u16_le(sender.as_u16());
            put_ring_id(&mut body, *old_ring);
            let inner = wire::encode_data(msg);
            body.put_u32_le(inner.len() as u32);
            body.put_slice(&inner);
        }
        ControlMessage::RecoveryDone {
            sender,
            new_ring,
            old_ring,
            holds,
        } => {
            body.put_u8(SUB_RECOVERY_DONE);
            body.put_u16_le(sender.as_u16());
            put_ring_id(&mut body, *new_ring);
            put_ring_id(&mut body, *old_ring);
            body.put_u32_le(holds.len() as u32);
            for s in holds {
                body.put_u64_le(s.as_u64());
            }
        }
        ControlMessage::Presence { sender, ring_id } => {
            body.put_u8(SUB_PRESENCE);
            body.put_u16_le(sender.as_u16());
            put_ring_id(&mut body, *ring_id);
        }
        ControlMessage::Wake {
            sender,
            ring_id,
            round,
        } => {
            body.put_u8(SUB_WAKE);
            body.put_u16_le(sender.as_u16());
            put_ring_id(&mut body, *ring_id);
            body.put_u64_le(round.as_u64());
        }
    }
    wire::encode_opaque(&body)
}

/// Decodes a control message from an opaque-framed datagram whose envelope
/// has already been consumed by [`wire::decode_kind`].
///
/// # Errors
///
/// Returns [`DecodeError`] on malformed input.
pub fn decode_control(buf: &mut Bytes) -> Result<ControlMessage, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    match buf.get_u8() {
        SUB_JOIN => {
            if buf.remaining() < 2 {
                return Err(DecodeError::Truncated);
            }
            let sender = ParticipantId::new(buf.get_u16_le());
            let proc_set = get_pid_set(buf)?;
            let fail_set = get_pid_set(buf)?;
            if buf.remaining() < 16 {
                return Err(DecodeError::Truncated);
            }
            Ok(ControlMessage::Join {
                sender,
                proc_set,
                fail_set,
                ring_counter: buf.get_u64_le(),
                epoch: buf.get_u64_le(),
            })
        }
        SUB_COMMIT => {
            let new_ring = get_ring_id(buf)?;
            if buf.remaining() < 2 {
                return Err(DecodeError::Truncated);
            }
            let n = buf.get_u16_le() as usize;
            if buf.remaining() < n * 2 + 2 {
                return Err(DecodeError::Truncated);
            }
            let members = (0..n)
                .map(|_| ParticipantId::new(buf.get_u16_le()))
                .collect();
            let k = buf.get_u16_le() as usize;
            let mut infos = Vec::with_capacity(k);
            for _ in 0..k {
                if buf.remaining() < 2 {
                    return Err(DecodeError::Truncated);
                }
                let pid = ParticipantId::new(buf.get_u16_le());
                let old_ring = get_ring_id(buf)?;
                if buf.remaining() < 24 {
                    return Err(DecodeError::Truncated);
                }
                infos.push(MemberInfo {
                    pid,
                    old_ring,
                    local_aru: Seq::new(buf.get_u64_le()),
                    highest_held: Seq::new(buf.get_u64_le()),
                    round: Round::new(buf.get_u64_le()),
                });
            }
            if buf.remaining() < 4 {
                return Err(DecodeError::Truncated);
            }
            Ok(ControlMessage::Commit(CommitToken {
                new_ring,
                members,
                infos,
                hop: buf.get_u32_le(),
            }))
        }
        SUB_RECOVERY => {
            if buf.remaining() < 2 {
                return Err(DecodeError::Truncated);
            }
            let sender = ParticipantId::new(buf.get_u16_le());
            let old_ring = get_ring_id(buf)?;
            if buf.remaining() < 4 {
                return Err(DecodeError::Truncated);
            }
            let len = buf.get_u32_le() as usize;
            if buf.remaining() < len {
                return Err(DecodeError::BadLength {
                    declared: len,
                    available: buf.remaining(),
                });
            }
            let mut inner = buf.split_to(len);
            let msg = wire::decode_data(&mut inner)?;
            Ok(ControlMessage::Recovery {
                sender,
                old_ring,
                msg,
            })
        }
        SUB_RECOVERY_DONE => {
            if buf.remaining() < 2 {
                return Err(DecodeError::Truncated);
            }
            let sender = ParticipantId::new(buf.get_u16_le());
            let new_ring = get_ring_id(buf)?;
            let old_ring = get_ring_id(buf)?;
            if buf.remaining() < 4 {
                return Err(DecodeError::Truncated);
            }
            let n = buf.get_u32_le() as usize;
            if buf.remaining() < n * 8 {
                return Err(DecodeError::Truncated);
            }
            let holds = (0..n).map(|_| Seq::new(buf.get_u64_le())).collect();
            Ok(ControlMessage::RecoveryDone {
                sender,
                new_ring,
                old_ring,
                holds,
            })
        }
        SUB_PRESENCE => {
            if buf.remaining() < 2 {
                return Err(DecodeError::Truncated);
            }
            let sender = ParticipantId::new(buf.get_u16_le());
            let ring_id = get_ring_id(buf)?;
            Ok(ControlMessage::Presence { sender, ring_id })
        }
        SUB_WAKE => {
            if buf.remaining() < 2 {
                return Err(DecodeError::Truncated);
            }
            let sender = ParticipantId::new(buf.get_u16_le());
            let ring_id = get_ring_id(buf)?;
            if buf.remaining() < 8 {
                return Err(DecodeError::Truncated);
            }
            Ok(ControlMessage::Wake {
                sender,
                ring_id,
                round: Round::new(buf.get_u64_le()),
            })
        }
        other => Err(DecodeError::BadKind(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelring_core::Service;

    fn pid(i: u16) -> ParticipantId {
        ParticipantId::new(i)
    }

    fn sample_commit() -> CommitToken {
        CommitToken {
            new_ring: RingId::new(pid(0), 9),
            members: vec![pid(0), pid(2), pid(5)],
            infos: vec![MemberInfo {
                pid: pid(0),
                old_ring: RingId::new(pid(0), 5),
                local_aru: Seq::new(100),
                highest_held: Seq::new(120),
                round: Round::new(1_760_000_000_000_000),
            }],
            hop: 3,
        }
    }

    fn roundtrip(msg: &ControlMessage) -> ControlMessage {
        let mut framed = encode_control(msg);
        assert_eq!(wire::decode_kind(&mut framed).unwrap(), wire::Kind::Opaque);
        decode_control(&mut framed).unwrap()
    }

    #[test]
    fn join_roundtrip() {
        let msg = ControlMessage::Join {
            sender: pid(3),
            proc_set: [pid(0), pid(1), pid(3)].into_iter().collect(),
            fail_set: [pid(7)].into_iter().collect(),
            ring_counter: 42,
            epoch: 9,
        };
        assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn join_with_empty_sets_roundtrip() {
        let msg = ControlMessage::Join {
            sender: pid(3),
            proc_set: BTreeSet::new(),
            fail_set: BTreeSet::new(),
            ring_counter: 0,
            epoch: 0,
        };
        assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn commit_roundtrip() {
        let msg = ControlMessage::Commit(sample_commit());
        assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn recovery_roundtrip() {
        let msg = ControlMessage::Recovery {
            sender: pid(2),
            old_ring: RingId::new(pid(0), 5),
            msg: DataMessage {
                ring_id: RingId::new(pid(0), 5),
                seq: Seq::new(17),
                pid: pid(4),
                round: Round::new(3),
                service: Service::Safe,
                post_token: true,
                retransmission: false,
                payload: Bytes::from_static(b"old data"),
            },
        };
        assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn recovery_done_roundtrip() {
        let msg = ControlMessage::RecoveryDone {
            sender: pid(6),
            new_ring: RingId::new(pid(0), 13),
            old_ring: RingId::new(pid(2), 9),
            holds: vec![Seq::new(40), Seq::new(41), Seq::new(45)],
        };
        assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn recovery_done_empty_holds_roundtrip() {
        let msg = ControlMessage::RecoveryDone {
            sender: pid(1),
            new_ring: RingId::new(pid(0), 13),
            old_ring: RingId::new(pid(0), 9),
            holds: Vec::new(),
        };
        assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn truncation_rejected() {
        let msg = ControlMessage::Commit(sample_commit());
        let mut full = encode_control(&msg);
        let _ = wire::decode_kind(&mut full).unwrap();
        for cut in 0..full.len() {
            let mut b = full.slice(..cut);
            assert!(decode_control(&mut b).is_err(), "cut {cut} accepted");
        }
    }

    #[test]
    fn commit_token_helpers() {
        let ct = sample_commit();
        assert!(!ct.is_complete());
        assert!(ct.info_of(pid(0)).is_some());
        assert!(ct.info_of(pid(2)).is_none());
    }

    #[test]
    fn presence_roundtrip() {
        let msg = ControlMessage::Presence {
            sender: pid(4),
            ring_id: RingId::new(pid(0), 20),
        };
        assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn wake_roundtrip_and_truncation() {
        let msg = ControlMessage::Wake {
            sender: pid(2),
            ring_id: RingId::new(pid(0), 20),
            round: Round::new(1_760_000_000_000_123),
        };
        assert_eq!(roundtrip(&msg), msg);
        assert_eq!(msg.sender(), Some(pid(2)));
        let mut full = encode_control(&msg);
        let _ = wire::decode_kind(&mut full).unwrap();
        for cut in 0..full.len() {
            let mut b = full.slice(..cut);
            assert!(decode_control(&mut b).is_err(), "cut {cut} accepted");
        }
    }

    #[test]
    fn senders() {
        assert_eq!(
            ControlMessage::RecoveryDone {
                sender: pid(6),
                new_ring: RingId::default(),
                old_ring: RingId::default(),
                holds: Vec::new(),
            }
            .sender(),
            Some(pid(6))
        );
        assert_eq!(ControlMessage::Commit(sample_commit()).sender(), None);
    }
}
