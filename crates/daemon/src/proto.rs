//! The client-level protocol: what a daemon packs into the ordered
//! messages' payloads on behalf of its clients, plus the framed session
//! wire format the reactor frontend speaks with remote clients.
//!
//! Group joins and leaves travel through the same total order as data, so
//! every daemon applies group-membership changes at the same point in the
//! message stream — this is how lightweight (client-level) group
//! membership stays consistent without extra agreement rounds.
//!
//! The session layer ([`SessionFrame`]) is a second, independent codec:
//! one datagram per frame between a client and its daemon's frontend.
//! Clients open a session with HELLO (naming a resume watermark so a
//! reconnect can suppress its own retransmissions), submit group actions
//! with SUBMIT, receive ordered [`ClientEvent`]s as EVENT frames gated by
//! CREDIT grants, and close with BYE. Frames carry the session id rather
//! than relying on the source address, so any number of sessions can
//! multiplex over one socket.

use accelring_core::wire::DecodeError;
use accelring_core::{ParticipantId, Service};
use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::engine::ClientEvent;

/// Maximum length of a client or group name, mirroring Spread's fixed-size
/// descriptive names.
pub const MAX_NAME: usize = 64;
/// Maximum groups addressed by one multi-group multicast.
pub const MAX_GROUPS: usize = 32;

/// A client identity: the daemon it is attached to plus its name (unique
/// per daemon).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId {
    /// The daemon the client is connected to.
    pub daemon: ParticipantId,
    /// The client's name at that daemon.
    pub name: String,
}

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.name, self.daemon)
    }
}

/// What a group-layer message does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupAction {
    /// Application data multicast to one or more groups (open-group
    /// semantics: the sender need not be a member).
    Data {
        /// Target groups.
        groups: Vec<String>,
        /// Application payload.
        payload: Bytes,
    },
    /// The sender joins a group.
    Join {
        /// The group being joined.
        group: String,
    },
    /// The sender leaves a group.
    Leave {
        /// The group being left.
        group: String,
    },
    /// The client disconnected; it leaves every group.
    Disconnect,
}

/// A complete group-layer message: who did what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupMessage {
    /// The client this message is on behalf of.
    pub sender: ClientId,
    /// Client-session sequence number for duplicate suppression across
    /// reconnects; `0` means unsequenced (no suppression). Sequenced
    /// clients stamp data messages from a per-session counter starting at
    /// 1, and every engine remembers the highest sequence seen per client
    /// *name* — so a message resubmitted through a different daemon after
    /// a reconnect is recognized and dropped.
    pub seq: u64,
    /// The operation.
    pub action: GroupAction,
}

/// Errors constructing group messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupProtoError {
    /// A name exceeds [`MAX_NAME`] bytes or is empty.
    BadName(String),
    /// More than [`MAX_GROUPS`] groups in one multicast, or none.
    BadGroupCount(usize),
}

impl std::fmt::Display for GroupProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupProtoError::BadName(n) => write!(f, "invalid name {n:?}"),
            GroupProtoError::BadGroupCount(n) => write!(f, "invalid group count {n}"),
        }
    }
}

impl std::error::Error for GroupProtoError {}

/// Validates a client or group name.
///
/// # Errors
///
/// Returns [`GroupProtoError::BadName`] if empty or longer than
/// [`MAX_NAME`] bytes.
pub fn validate_name(name: &str) -> Result<(), GroupProtoError> {
    if name.is_empty() || name.len() > MAX_NAME {
        return Err(GroupProtoError::BadName(name.to_string()));
    }
    Ok(())
}

const ACT_DATA: u8 = 1;
const ACT_JOIN: u8 = 2;
const ACT_LEAVE: u8 = 3;
const ACT_DISCONNECT: u8 = 4;

fn put_name<B: BufMut>(buf: &mut B, name: &str) {
    buf.put_u16_le(name.len() as u16);
    buf.put_slice(name.as_bytes());
}

fn get_name(buf: &mut Bytes) -> Result<String, DecodeError> {
    if buf.remaining() < 2 {
        return Err(DecodeError::Truncated);
    }
    let len = buf.get_u16_le() as usize;
    if len > MAX_NAME || buf.remaining() < len {
        return Err(DecodeError::BadLength {
            declared: len,
            available: buf.remaining(),
        });
    }
    let raw = buf.split_to(len);
    String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::Truncated)
}

/// Writes a group action with its leading kind byte (shared between the
/// ordered-multicast payload codec and the session SUBMIT frame).
fn put_action<B: BufMut>(buf: &mut B, action: &GroupAction) {
    match action {
        GroupAction::Data { groups, payload } => {
            buf.put_u8(ACT_DATA);
            buf.put_u8(groups.len() as u8);
            for g in groups {
                put_name(buf, g);
            }
            buf.put_u32_le(payload.len() as u32);
            buf.put_slice(payload);
        }
        GroupAction::Join { group } => {
            buf.put_u8(ACT_JOIN);
            put_name(buf, group);
        }
        GroupAction::Leave { group } => {
            buf.put_u8(ACT_LEAVE);
            put_name(buf, group);
        }
        GroupAction::Disconnect => buf.put_u8(ACT_DISCONNECT),
    }
}

/// Reads a group action (kind byte first).
fn get_action(buf: &mut Bytes) -> Result<GroupAction, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    let action = match buf.get_u8() {
        ACT_DATA => {
            if buf.remaining() < 1 {
                return Err(DecodeError::Truncated);
            }
            let n = buf.get_u8() as usize;
            if n == 0 || n > MAX_GROUPS {
                return Err(DecodeError::BadLength {
                    declared: n,
                    available: MAX_GROUPS,
                });
            }
            let mut groups = Vec::with_capacity(n);
            for _ in 0..n {
                groups.push(get_name(buf)?);
            }
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
            GroupAction::Data {
                groups,
                payload: buf.split_to(len),
            }
        }
        ACT_JOIN => GroupAction::Join {
            group: get_name(buf)?,
        },
        ACT_LEAVE => GroupAction::Leave {
            group: get_name(buf)?,
        },
        ACT_DISCONNECT => GroupAction::Disconnect,
        other => return Err(DecodeError::BadKind(other)),
    };
    Ok(action)
}

/// Encodes a group message into an ordered-multicast payload.
pub fn encode_group_message(msg: &GroupMessage) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    buf.put_u16_le(msg.sender.daemon.as_u16());
    put_name(&mut buf, &msg.sender.name);
    buf.put_u64_le(msg.seq);
    put_action(&mut buf, &msg.action);
    buf.freeze()
}

/// Decodes a group message from an ordered-multicast payload.
///
/// # Errors
///
/// Returns [`DecodeError`] on malformed input.
pub fn decode_group_message(buf: &mut Bytes) -> Result<GroupMessage, DecodeError> {
    if buf.remaining() < 2 {
        return Err(DecodeError::Truncated);
    }
    let daemon = ParticipantId::new(buf.get_u16_le());
    let name = get_name(buf)?;
    let sender = ClientId { daemon, name };
    if buf.remaining() < 8 {
        return Err(DecodeError::Truncated);
    }
    let seq = buf.get_u64_le();
    let action = get_action(buf)?;
    Ok(GroupMessage {
        sender,
        seq,
        action,
    })
}

// ---------------------------------------------------------------------------
// Session frames
// ---------------------------------------------------------------------------

const FR_HELLO: u8 = 1;
const FR_WELCOME: u8 = 2;
const FR_SUBMIT: u8 = 3;
pub(crate) const FR_EVENT: u8 = 4;
const FR_CREDIT: u8 = 5;
const FR_BYE: u8 = 6;
const FR_ERROR: u8 = 7;
const FR_MAP_PULL: u8 = 8;
const FR_MAP_PUSH: u8 = 9;
const FR_SVC_QUERY: u8 = 10;
const FR_SVC_REPLY: u8 = 11;

const EV_MESSAGE: u8 = 1;
const EV_VIEW: u8 = 2;
const EV_CONFIG: u8 = 3;
const EV_DISCONNECTED: u8 = 4;

/// Longest free-form string (error reasons) a session frame carries.
/// Longer strings are truncated on encode, never rejected on decode up to
/// this bound.
pub const MAX_REASON: usize = 256;

/// Most members one encoded View event carries (bounds decode allocation;
/// larger views are truncated on encode, which group clients tolerate the
/// same way they tolerate a lost datagram — the next view supersedes).
pub const MAX_VIEW_MEMBERS: usize = 4096;

/// One client↔frontend session datagram.
///
/// Every frame after HELLO carries the session id the daemon assigned in
/// WELCOME, so sessions multiplex freely over shared sockets: the
/// frontend routes by id, never by source address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionFrame {
    /// Client → daemon: open (or resume) a session for `name`.
    Hello {
        /// The client name the session is for.
        name: String,
        /// Highest sequence this client knows was forwarded in a prior
        /// session; `0` for a fresh session. The daemon suppresses later
        /// SUBMITs at or below the session's forwarded watermark, which
        /// starts at zero precisely so deliberate resubmits of in-doubt
        /// sequences (≤ `resume_seq`) still reach the engine, whose
        /// ring-wide dedup decides their fate.
        resume_seq: u64,
        /// Client-chosen value echoed in WELCOME so a retried HELLO can
        /// recognize its own session instead of superseding it.
        nonce: u64,
    },
    /// Daemon → client: the session is open.
    Welcome {
        /// The id all further frames must carry.
        session: u64,
        /// Echo of the HELLO `resume_seq`.
        resume_seq: u64,
        /// Initial event credits granted (the daemon may send this many
        /// EVENT frames before the client must CREDIT more).
        credits: u32,
        /// Echo of the HELLO nonce.
        nonce: u64,
    },
    /// Client → daemon: perform a group action.
    Submit {
        /// The session acting.
        session: u64,
        /// Per-session sequence for duplicate suppression (`0` =
        /// unsequenced, never suppressed).
        seq: u64,
        /// Requested service level.
        service: Service,
        /// The group action (same codec as the ordered payload).
        action: GroupAction,
    },
    /// Daemon → client: one ordered [`ClientEvent`], pre-encoded.
    ///
    /// The body is kept opaque here so the frontend can encode an event
    /// once and fan the same body out to every subscribed session (only
    /// the 9-byte header differs per recipient). Decode it with
    /// [`decode_event_body`].
    Event {
        /// The receiving session.
        session: u64,
        /// The encoded event ([`encode_event_body`]).
        body: Bytes,
    },
    /// Client → daemon: grant more event credits.
    Credit {
        /// The session granting.
        session: u64,
        /// Additional EVENT frames the daemon may now send.
        credits: u32,
    },
    /// Client → daemon: close the session.
    Bye {
        /// The session being closed.
        session: u64,
    },
    /// Daemon → client: the session is dead (also the reply to frames
    /// naming an unknown session, so half-closed clients learn quickly).
    Error {
        /// The session the error is about (`0` if it never opened).
        session: u64,
        /// Human-readable cause, truncated to [`MAX_REASON`].
        reason: String,
    },
    /// Daemon → daemon: anti-entropy request for recovery state. A
    /// rejoining (or lagging) daemon asks a peer's frontend for its
    /// current shard map and state snapshot before it starts serving
    /// clients.
    MapPull {
        /// Requester-chosen value echoed in the push so retried pulls
        /// recognize their own response.
        nonce: u64,
        /// The highest configuration epoch the requester has observed;
        /// a peer still behind this epoch should not be trusted as a
        /// catch-up source.
        want_epoch: u64,
    },
    /// Daemon → daemon: anti-entropy response carrying the responder's
    /// recovery snapshot, whose epoch, merge cursor and map version live
    /// in the body.
    MapPush {
        /// Echo of the pull nonce.
        nonce: u64,
        /// The opaque snapshot (the multi-ring layer owns its codec).
        /// Trailing bytes of the frame, like an EVENT body.
        body: Bytes,
    },
    /// Anyone → daemon: a query against a local service the daemon
    /// hosts, answered outside the ordered path (no session, no
    /// credits — the requester owns retries). The body is opaque here:
    /// the service layered on the daemon owns its codec, exactly as
    /// the multi-ring layer owns the MAP_PUSH body. The replicated KV
    /// store's local reads ride these frames.
    SvcQuery {
        /// Requester-chosen value echoed in the reply so retried
        /// queries recognize their own response.
        nonce: u64,
        /// The opaque query (trailing bytes of the frame).
        body: Bytes,
    },
    /// Daemon → requester: the local service's answer.
    SvcReply {
        /// Echo of the query nonce.
        nonce: u64,
        /// The opaque reply (trailing bytes of the frame).
        body: Bytes,
    },
}

fn put_str<B: BufMut>(buf: &mut B, s: &str, cap: usize) {
    let mut end = s.len().min(cap);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    buf.put_u16_le(end as u16);
    buf.put_slice(&s.as_bytes()[..end]);
}

fn get_str(buf: &mut Bytes, cap: usize) -> Result<String, DecodeError> {
    if buf.remaining() < 2 {
        return Err(DecodeError::Truncated);
    }
    let len = buf.get_u16_le() as usize;
    if len > cap || buf.remaining() < len {
        return Err(DecodeError::BadLength {
            declared: len,
            available: buf.remaining(),
        });
    }
    let raw = buf.split_to(len);
    String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::Truncated)
}

/// Encodes a session frame into a fresh buffer. For the hot event path
/// prefer [`encode_session_frame_into`] with a pooled buffer.
pub fn encode_session_frame(frame: &SessionFrame) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    encode_session_frame_into(&mut buf, frame);
    buf.freeze()
}

/// Encodes a session frame into any writer — the frontend stages frames
/// in pooled leases this way, so framing never allocates on the datapath.
pub fn encode_session_frame_into<B: BufMut>(buf: &mut B, frame: &SessionFrame) {
    match frame {
        SessionFrame::Hello {
            name,
            resume_seq,
            nonce,
        } => {
            buf.put_u8(FR_HELLO);
            put_name(buf, name);
            buf.put_u64_le(*resume_seq);
            buf.put_u64_le(*nonce);
        }
        SessionFrame::Welcome {
            session,
            resume_seq,
            credits,
            nonce,
        } => {
            buf.put_u8(FR_WELCOME);
            buf.put_u64_le(*session);
            buf.put_u64_le(*resume_seq);
            buf.put_u32_le(*credits);
            buf.put_u64_le(*nonce);
        }
        SessionFrame::Submit {
            session,
            seq,
            service,
            action,
        } => {
            buf.put_u8(FR_SUBMIT);
            buf.put_u64_le(*session);
            buf.put_u64_le(*seq);
            buf.put_u8(service.as_u8());
            put_action(buf, action);
        }
        SessionFrame::Event { session, body } => {
            buf.put_u8(FR_EVENT);
            buf.put_u64_le(*session);
            buf.put_slice(body);
        }
        SessionFrame::Credit { session, credits } => {
            buf.put_u8(FR_CREDIT);
            buf.put_u64_le(*session);
            buf.put_u32_le(*credits);
        }
        SessionFrame::Bye { session } => {
            buf.put_u8(FR_BYE);
            buf.put_u64_le(*session);
        }
        SessionFrame::Error { session, reason } => {
            buf.put_u8(FR_ERROR);
            buf.put_u64_le(*session);
            put_str(buf, reason, MAX_REASON);
        }
        SessionFrame::MapPull { nonce, want_epoch } => {
            buf.put_u8(FR_MAP_PULL);
            buf.put_u64_le(*nonce);
            buf.put_u64_le(*want_epoch);
        }
        SessionFrame::MapPush { nonce, body } => {
            buf.put_u8(FR_MAP_PUSH);
            buf.put_u64_le(*nonce);
            // The body is the frame's tail, so it needs no length prefix.
            buf.put_slice(body);
        }
        SessionFrame::SvcQuery { nonce, body } => {
            buf.put_u8(FR_SVC_QUERY);
            buf.put_u64_le(*nonce);
            buf.put_slice(body);
        }
        SessionFrame::SvcReply { nonce, body } => {
            buf.put_u8(FR_SVC_REPLY);
            buf.put_u64_le(*nonce);
            buf.put_slice(body);
        }
    }
}

fn get_u64(buf: &mut Bytes) -> Result<u64, DecodeError> {
    if buf.remaining() < 8 {
        return Err(DecodeError::Truncated);
    }
    Ok(buf.get_u64_le())
}

fn get_u32(buf: &mut Bytes) -> Result<u32, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    Ok(buf.get_u32_le())
}

/// Decodes one session frame (one datagram).
///
/// # Errors
///
/// Returns [`DecodeError`] on malformed input; the frontend counts these
/// and drops the datagram rather than the session.
pub fn decode_session_frame(buf: &mut Bytes) -> Result<SessionFrame, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    let frame = match buf.get_u8() {
        FR_HELLO => SessionFrame::Hello {
            name: get_name(buf)?,
            resume_seq: get_u64(buf)?,
            nonce: get_u64(buf)?,
        },
        FR_WELCOME => SessionFrame::Welcome {
            session: get_u64(buf)?,
            resume_seq: get_u64(buf)?,
            credits: get_u32(buf)?,
            nonce: get_u64(buf)?,
        },
        FR_SUBMIT => {
            let session = get_u64(buf)?;
            let seq = get_u64(buf)?;
            if buf.remaining() < 1 {
                return Err(DecodeError::Truncated);
            }
            let raw = buf.get_u8();
            let service = Service::from_u8(raw).ok_or(DecodeError::BadService(raw))?;
            SessionFrame::Submit {
                session,
                seq,
                service,
                action: get_action(buf)?,
            }
        }
        FR_EVENT => SessionFrame::Event {
            session: get_u64(buf)?,
            body: buf.split_to(buf.remaining()),
        },
        FR_CREDIT => SessionFrame::Credit {
            session: get_u64(buf)?,
            credits: get_u32(buf)?,
        },
        FR_BYE => SessionFrame::Bye {
            session: get_u64(buf)?,
        },
        FR_ERROR => SessionFrame::Error {
            session: get_u64(buf)?,
            reason: get_str(buf, MAX_REASON)?,
        },
        FR_MAP_PULL => SessionFrame::MapPull {
            nonce: get_u64(buf)?,
            want_epoch: get_u64(buf)?,
        },
        FR_MAP_PUSH => SessionFrame::MapPush {
            nonce: get_u64(buf)?,
            body: buf.split_to(buf.remaining()),
        },
        FR_SVC_QUERY => SessionFrame::SvcQuery {
            nonce: get_u64(buf)?,
            body: buf.split_to(buf.remaining()),
        },
        FR_SVC_REPLY => SessionFrame::SvcReply {
            nonce: get_u64(buf)?,
            body: buf.split_to(buf.remaining()),
        },
        other => return Err(DecodeError::BadKind(other)),
    };
    Ok(frame)
}

/// Encodes a [`ClientEvent`] as an EVENT frame body, exactly once per
/// delivery no matter how many sessions receive it.
pub fn encode_event_body(event: &ClientEvent) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    match event {
        ClientEvent::Message {
            sender,
            seq,
            groups,
            payload,
            service,
        } => {
            buf.put_u8(EV_MESSAGE);
            buf.put_u16_le(sender.daemon.as_u16());
            put_name(&mut buf, &sender.name);
            buf.put_u64_le(*seq);
            buf.put_u8(groups.len().min(MAX_GROUPS) as u8);
            for g in groups.iter().take(MAX_GROUPS) {
                put_name(&mut buf, g);
            }
            buf.put_u8(service.as_u8());
            buf.put_u32_le(payload.len() as u32);
            buf.put_slice(payload);
        }
        ClientEvent::View { group, members } => {
            buf.put_u8(EV_VIEW);
            put_name(&mut buf, group);
            buf.put_u32_le(members.len().min(MAX_VIEW_MEMBERS) as u32);
            for m in members.iter().take(MAX_VIEW_MEMBERS) {
                buf.put_u16_le(m.daemon.as_u16());
                put_name(&mut buf, &m.name);
            }
        }
        ClientEvent::Config {
            daemons,
            transitional,
        } => {
            buf.put_u8(EV_CONFIG);
            buf.put_u8(u8::from(*transitional));
            buf.put_u16_le(daemons.len() as u16);
            for d in daemons {
                buf.put_u16_le(d.as_u16());
            }
        }
        ClientEvent::Disconnected { reason } => {
            buf.put_u8(EV_DISCONNECTED);
            put_str(&mut buf, reason, MAX_REASON);
        }
    }
    buf.freeze()
}

/// Decodes an EVENT frame body back into a [`ClientEvent`].
///
/// # Errors
///
/// Returns [`DecodeError`] on malformed input.
pub fn decode_event_body(buf: &mut Bytes) -> Result<ClientEvent, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    let event = match buf.get_u8() {
        EV_MESSAGE => {
            if buf.remaining() < 2 {
                return Err(DecodeError::Truncated);
            }
            let daemon = ParticipantId::new(buf.get_u16_le());
            let name = get_name(buf)?;
            if buf.remaining() < 9 {
                return Err(DecodeError::Truncated);
            }
            let seq = buf.get_u64_le();
            let n = buf.get_u8() as usize;
            if n > MAX_GROUPS {
                return Err(DecodeError::BadLength {
                    declared: n,
                    available: MAX_GROUPS,
                });
            }
            let mut groups = Vec::with_capacity(n);
            for _ in 0..n {
                groups.push(get_name(buf)?);
            }
            if buf.remaining() < 1 {
                return Err(DecodeError::Truncated);
            }
            let raw = buf.get_u8();
            let service = Service::from_u8(raw).ok_or(DecodeError::BadService(raw))?;
            let len = get_u32(buf)? as usize;
            if buf.remaining() < len {
                return Err(DecodeError::BadLength {
                    declared: len,
                    available: buf.remaining(),
                });
            }
            ClientEvent::Message {
                sender: ClientId { daemon, name },
                seq,
                groups,
                payload: buf.split_to(len),
                service,
            }
        }
        EV_VIEW => {
            let group = get_name(buf)?;
            let n = get_u32(buf)? as usize;
            if n > MAX_VIEW_MEMBERS {
                return Err(DecodeError::BadLength {
                    declared: n,
                    available: MAX_VIEW_MEMBERS,
                });
            }
            let mut members = Vec::with_capacity(n.min(256));
            for _ in 0..n {
                if buf.remaining() < 2 {
                    return Err(DecodeError::Truncated);
                }
                let daemon = ParticipantId::new(buf.get_u16_le());
                let name = get_name(buf)?;
                members.push(ClientId { daemon, name });
            }
            ClientEvent::View { group, members }
        }
        EV_CONFIG => {
            if buf.remaining() < 3 {
                return Err(DecodeError::Truncated);
            }
            let transitional = buf.get_u8() != 0;
            let n = buf.get_u16_le() as usize;
            if buf.remaining() < n * 2 {
                return Err(DecodeError::Truncated);
            }
            let daemons = (0..n)
                .map(|_| ParticipantId::new(buf.get_u16_le()))
                .collect();
            ClientEvent::Config {
                daemons,
                transitional,
            }
        }
        EV_DISCONNECTED => ClientEvent::Disconnected {
            reason: get_str(buf, MAX_REASON)?,
        },
        other => return Err(DecodeError::BadKind(other)),
    };
    Ok(event)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(d: u16, name: &str) -> ClientId {
        ClientId {
            daemon: ParticipantId::new(d),
            name: name.to_string(),
        }
    }

    fn roundtrip(msg: &GroupMessage) -> GroupMessage {
        let mut enc = encode_group_message(msg);
        decode_group_message(&mut enc).unwrap()
    }

    #[test]
    fn data_roundtrip() {
        let msg = GroupMessage {
            sender: client(3, "trader-7"),
            seq: 0,
            action: GroupAction::Data {
                groups: vec!["orders".into(), "audit-log".into()],
                payload: Bytes::from_static(b"BUY 100 XYZ"),
            },
        };
        assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn join_leave_disconnect_roundtrip() {
        for action in [
            GroupAction::Join { group: "g".into() },
            GroupAction::Leave { group: "g".into() },
            GroupAction::Disconnect,
        ] {
            let msg = GroupMessage {
                sender: client(0, "c"),
                seq: 0,
                action,
            };
            assert_eq!(roundtrip(&msg), msg);
        }
    }

    #[test]
    fn empty_payload_roundtrip() {
        let msg = GroupMessage {
            sender: client(1, "x"),
            seq: 7,
            action: GroupAction::Data {
                groups: vec!["g".into()],
                payload: Bytes::new(),
            },
        };
        assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let msg = GroupMessage {
            sender: client(3, "client"),
            seq: 42,
            action: GroupAction::Data {
                groups: vec!["group-a".into()],
                payload: Bytes::from_static(b"xy"),
            },
        };
        let full = encode_group_message(&msg);
        for cut in 0..full.len() {
            let mut b = full.slice(..cut);
            assert!(decode_group_message(&mut b).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn rejects_zero_groups() {
        // Hand-craft a data message with zero groups.
        let mut buf = BytesMut::new();
        buf.put_u16_le(0);
        buf.put_u16_le(1);
        buf.put_slice(b"c");
        buf.put_u64_le(0);
        buf.put_u8(ACT_DATA);
        buf.put_u8(0);
        let mut b = buf.freeze();
        assert!(decode_group_message(&mut b).is_err());
    }

    #[test]
    fn rejects_oversized_name() {
        let long = "x".repeat(MAX_NAME + 1);
        assert!(validate_name(&long).is_err());
        assert!(validate_name("").is_err());
        assert!(validate_name("ok-name").is_ok());
    }

    #[test]
    fn client_id_display() {
        assert_eq!(client(2, "abc").to_string(), "abc#P2");
    }

    fn frame_roundtrip(frame: &SessionFrame) -> SessionFrame {
        let mut enc = encode_session_frame(frame);
        decode_session_frame(&mut enc).unwrap()
    }

    #[test]
    fn session_frames_roundtrip() {
        let frames = [
            SessionFrame::Hello {
                name: "trader-7".into(),
                resume_seq: 41,
                nonce: 0xDEAD_BEEF,
            },
            SessionFrame::Welcome {
                session: (3 << 32) | 17,
                resume_seq: 41,
                credits: 256,
                nonce: 0xDEAD_BEEF,
            },
            SessionFrame::Submit {
                session: 9,
                seq: 42,
                service: Service::Safe,
                action: GroupAction::Data {
                    groups: vec!["orders".into()],
                    payload: Bytes::from_static(b"BUY"),
                },
            },
            SessionFrame::Submit {
                session: 9,
                seq: 0,
                service: Service::Agreed,
                action: GroupAction::Disconnect,
            },
            SessionFrame::Credit {
                session: 9,
                credits: 64,
            },
            SessionFrame::Bye { session: 9 },
            SessionFrame::Error {
                session: 0,
                reason: "unknown session".into(),
            },
            SessionFrame::MapPull {
                nonce: 0xFEED,
                want_epoch: 12,
            },
            SessionFrame::MapPush {
                nonce: 0xFEED,
                body: Bytes::from_static(b"opaque snapshot"),
            },
            SessionFrame::MapPush {
                nonce: 1,
                body: Bytes::new(),
            },
            SessionFrame::SvcQuery {
                nonce: 0xBEEF,
                body: Bytes::from_static(b"opaque query"),
            },
            SessionFrame::SvcReply {
                nonce: 0xBEEF,
                body: Bytes::from_static(b"opaque reply"),
            },
            SessionFrame::SvcReply {
                nonce: 2,
                body: Bytes::new(),
            },
        ];
        for frame in &frames {
            assert_eq!(&frame_roundtrip(frame), frame);
        }
    }

    #[test]
    fn event_bodies_roundtrip() {
        let events = [
            ClientEvent::Message {
                sender: client(2, "alice"),
                seq: 7,
                groups: vec!["g1".into(), "g2".into()],
                payload: Bytes::from_static(b"payload"),
                service: Service::Agreed,
            },
            ClientEvent::View {
                group: "g1".into(),
                members: vec![client(0, "a"), client(1, "b")],
            },
            ClientEvent::Config {
                daemons: vec![ParticipantId::new(0), ParticipantId::new(2)],
                transitional: true,
            },
            ClientEvent::Disconnected {
                reason: "daemon shutdown".into(),
            },
        ];
        for event in &events {
            let mut body = encode_event_body(event);
            assert_eq!(&decode_event_body(&mut body).unwrap(), event);
        }
    }

    #[test]
    fn event_frame_body_is_opaque_passthrough() {
        let event = ClientEvent::Message {
            sender: client(0, "a"),
            seq: 0,
            groups: vec!["g".into()],
            payload: Bytes::from_static(b"x"),
            service: Service::Agreed,
        };
        let body = encode_event_body(&event);
        let mut enc = encode_session_frame(&SessionFrame::Event {
            session: 5,
            body: body.clone(),
        });
        match decode_session_frame(&mut enc).unwrap() {
            SessionFrame::Event {
                session,
                body: mut got,
            } => {
                assert_eq!(session, 5);
                assert_eq!(got, body);
                assert_eq!(decode_event_body(&mut got).unwrap(), event);
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn session_frame_truncation_rejected() {
        let frame = SessionFrame::Submit {
            session: 7,
            seq: 3,
            service: Service::Agreed,
            action: GroupAction::Data {
                groups: vec!["group-a".into()],
                payload: Bytes::from_static(b"xy"),
            },
        };
        let full = encode_session_frame(&frame);
        for cut in 0..full.len() {
            let mut b = full.slice(..cut);
            assert!(decode_session_frame(&mut b).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn oversized_reason_is_truncated_on_encode() {
        let frame = SessionFrame::Error {
            session: 1,
            reason: "x".repeat(MAX_REASON * 2),
        };
        match frame_roundtrip(&frame) {
            SessionFrame::Error { reason, .. } => assert_eq!(reason.len(), MAX_REASON),
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn unknown_frame_kind_rejected() {
        let mut b = Bytes::from_static(&[99, 0, 0]);
        assert!(decode_session_frame(&mut b).is_err());
    }

    #[test]
    fn map_pull_push_truncation_rejected() {
        // The push body is the frame tail, so only the fixed header can
        // be truncation-checked — an empty body is a valid frame.
        let pull = encode_session_frame(&SessionFrame::MapPull {
            nonce: 3,
            want_epoch: 4,
        });
        for cut in 0..pull.len() {
            let mut b = pull.slice(..cut);
            assert!(decode_session_frame(&mut b).is_err(), "pull cut {cut}");
        }
        let push = encode_session_frame(&SessionFrame::MapPush {
            nonce: 3,
            body: Bytes::new(),
        });
        for cut in 0..push.len() {
            let mut b = push.slice(..cut);
            assert!(decode_session_frame(&mut b).is_err(), "push cut {cut}");
        }
    }

    #[test]
    fn svc_query_truncation_rejected() {
        // Like MAP_PUSH, the body is the frame tail: only the nonce
        // header can be truncation-checked.
        let query = encode_session_frame(&SessionFrame::SvcQuery {
            nonce: 7,
            body: Bytes::new(),
        });
        for cut in 0..query.len() {
            let mut b = query.slice(..cut);
            assert!(decode_session_frame(&mut b).is_err(), "query cut {cut}");
        }
    }

    #[test]
    fn error_display() {
        assert!(!GroupProtoError::BadName("x".into()).to_string().is_empty());
        assert!(!GroupProtoError::BadGroupCount(0).to_string().is_empty());
    }
}
