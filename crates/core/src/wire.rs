//! Binary wire codec for protocol messages.
//!
//! The format is a fixed little-endian layout with a 4-byte magic and a
//! version byte, so that a socket receiving a stray datagram can cheaply
//! reject it. The codec is shared by the UDP transport, the simulator (which
//! only uses the *lengths*), and the membership crate (which frames its own
//! message kinds through [`encode_opaque`]/[`decode_kind`]).

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::message::{DataMessage, Token};
use crate::types::{ParticipantId, RingId, Round, Seq, Service};

/// Magic bytes prefixed to every datagram: `ARNG`.
pub const MAGIC: u32 = 0x4152_4e47;
/// Wire format version. Version 2: token rounds are leader-paced clock
/// stamps, and the membership commit token carries each member's highest
/// round.
pub const VERSION: u8 = 2;

/// Message kind tags. Kinds `16..=31` are reserved for the membership
/// algorithm (see `accelring-membership`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Kind {
    /// A data message.
    Data = 1,
    /// The circulating token.
    Token = 2,
    /// An opaque higher-layer message (membership, client protocol).
    Opaque = 3,
}

/// Bytes of the common envelope: magic (4) + version (1) + kind (1).
pub const ENVELOPE_LEN: usize = 6;
/// Bytes of an encoded `RingId`: representative (2) + counter (8).
pub const RING_ID_LEN: usize = 10;
/// Bytes of the data-message header, including the envelope.
/// magic+ver+kind (6) + ring id (10) + seq (8) + pid (2) + round (8) +
/// service (1) + flags (1) + payload len (4).
pub const DATA_HEADER_LEN: usize = ENVELOPE_LEN + RING_ID_LEN + 8 + 2 + 8 + 1 + 1 + 4;
/// Bytes of the token header, excluding the rtr list.
/// magic+ver+kind (6) + ring id (10) + token id (8) + round (8) + seq (8) +
/// aru (8) + aru id (2) + fcc (4) + rtr len (4).
pub const TOKEN_HEADER_LEN: usize = ENVELOPE_LEN + RING_ID_LEN + 8 + 8 + 8 + 8 + 2 + 4 + 4;

/// Wire length of a token with `rtr_entries` retransmission requests.
pub const fn token_wire_len(rtr_entries: usize) -> usize {
    TOKEN_HEADER_LEN + 8 * rtr_entries
}

/// Errors produced while decoding a datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer is shorter than the fields require.
    Truncated,
    /// The magic bytes do not match [`MAGIC`].
    BadMagic(u32),
    /// The version byte does not match [`VERSION`].
    BadVersion(u8),
    /// The kind byte is not a known [`Kind`].
    BadKind(u8),
    /// The service byte is not a known [`Service`].
    BadService(u8),
    /// A declared length field exceeds the remaining buffer.
    BadLength {
        /// The length the header declared.
        declared: usize,
        /// The bytes actually available.
        available: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "datagram truncated"),
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::BadKind(k) => write!(f, "unknown message kind {k}"),
            DecodeError::BadService(s) => write!(f, "unknown service level {s}"),
            DecodeError::BadLength {
                declared,
                available,
            } => write!(
                f,
                "declared length {declared} exceeds available {available} bytes"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

const ARU_ID_NONE: u16 = u16::MAX;

fn put_envelope(buf: &mut impl BufMut, kind: Kind) {
    buf.put_u32_le(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(kind as u8);
}

fn put_ring_id(buf: &mut impl BufMut, ring_id: RingId) {
    buf.put_u16_le(ring_id.representative().as_u16());
    buf.put_u64_le(ring_id.counter());
}

fn get_ring_id(buf: &mut impl Buf) -> Result<RingId, DecodeError> {
    if buf.remaining() < RING_ID_LEN {
        return Err(DecodeError::Truncated);
    }
    let rep = ParticipantId::new(buf.get_u16_le());
    let counter = buf.get_u64_le();
    Ok(RingId::new(rep, counter))
}

/// Reads and validates the envelope, returning the message kind.
///
/// # Errors
///
/// Returns [`DecodeError`] if the buffer is truncated or the magic, version,
/// or kind bytes are invalid.
pub fn decode_kind(buf: &mut impl Buf) -> Result<Kind, DecodeError> {
    if buf.remaining() < ENVELOPE_LEN {
        return Err(DecodeError::Truncated);
    }
    let magic = buf.get_u32_le();
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    match buf.get_u8() {
        1 => Ok(Kind::Data),
        2 => Ok(Kind::Token),
        3 => Ok(Kind::Opaque),
        other => Err(DecodeError::BadKind(other)),
    }
}

/// Encodes a data message into a fresh buffer.
///
/// # Examples
///
/// ```
/// use accelring_core::wire;
/// use accelring_core::{DataMessage, ParticipantId, RingId, Round, Seq, Service};
/// use bytes::Bytes;
///
/// let msg = DataMessage {
///     ring_id: RingId::new(ParticipantId::new(0), 1),
///     seq: Seq::new(1),
///     pid: ParticipantId::new(0),
///     round: Round::new(1),
///     service: Service::Agreed,
///     post_token: false,
///     retransmission: false,
///     payload: Bytes::from_static(b"hi"),
/// };
/// let bytes = wire::encode_data(&msg);
/// let back = wire::decode_data(&mut bytes.clone()).unwrap();
/// assert_eq!(back, msg);
/// ```
pub fn encode_data(msg: &DataMessage) -> Bytes {
    let mut buf = BytesMut::with_capacity(DATA_HEADER_LEN + msg.payload.len());
    encode_data_into(msg, &mut buf);
    buf.freeze()
}

/// Encodes a data message into any [`BufMut`] sink — the zero-allocation
/// path used by the transport to encode straight into pooled buffers.
pub fn encode_data_into(msg: &DataMessage, buf: &mut impl BufMut) {
    put_envelope(buf, Kind::Data);
    put_ring_id(buf, msg.ring_id);
    buf.put_u64_le(msg.seq.as_u64());
    buf.put_u16_le(msg.pid.as_u16());
    buf.put_u64_le(msg.round.as_u64());
    buf.put_u8(msg.service.as_u8());
    let flags = (msg.post_token as u8) | ((msg.retransmission as u8) << 1);
    buf.put_u8(flags);
    buf.put_u32_le(msg.payload.len() as u32);
    buf.put_slice(&msg.payload);
}

/// Decodes a data message, consuming the envelope too.
///
/// # Errors
///
/// Returns [`DecodeError`] if the buffer is not a valid data message.
pub fn decode_data(buf: &mut Bytes) -> Result<DataMessage, DecodeError> {
    match decode_kind(buf)? {
        Kind::Data => decode_data_body(buf),
        other => Err(DecodeError::BadKind(other as u8)),
    }
}

/// Decodes a data message body after the envelope has been consumed.
///
/// # Errors
///
/// Returns [`DecodeError`] if the remaining bytes are not a valid body.
pub fn decode_data_body(buf: &mut Bytes) -> Result<DataMessage, DecodeError> {
    let ring_id = get_ring_id(buf)?;
    if buf.remaining() < 8 + 2 + 8 + 1 + 1 + 4 {
        return Err(DecodeError::Truncated);
    }
    let seq = Seq::new(buf.get_u64_le());
    let pid = ParticipantId::new(buf.get_u16_le());
    let round = Round::new(buf.get_u64_le());
    let service_raw = buf.get_u8();
    let service = Service::from_u8(service_raw).ok_or(DecodeError::BadService(service_raw))?;
    let flags = buf.get_u8();
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(DecodeError::BadLength {
            declared: len,
            available: buf.remaining(),
        });
    }
    let payload = buf.split_to(len);
    Ok(DataMessage {
        ring_id,
        seq,
        pid,
        round,
        service,
        post_token: flags & 1 != 0,
        retransmission: flags & 2 != 0,
        payload,
    })
}

/// Encodes a token into a fresh buffer.
pub fn encode_token(token: &Token) -> Bytes {
    let mut buf = BytesMut::with_capacity(token_wire_len(token.rtr.len()));
    encode_token_into(token, &mut buf);
    buf.freeze()
}

/// Encodes a token into any [`BufMut`] sink — the zero-allocation path
/// used by the transport to encode straight into pooled buffers.
pub fn encode_token_into(token: &Token, buf: &mut impl BufMut) {
    put_envelope(buf, Kind::Token);
    put_ring_id(buf, token.ring_id);
    buf.put_u64_le(token.token_id);
    buf.put_u64_le(token.round.as_u64());
    buf.put_u64_le(token.seq.as_u64());
    buf.put_u64_le(token.aru.as_u64());
    buf.put_u16_le(token.aru_id.map_or(ARU_ID_NONE, ParticipantId::as_u16));
    buf.put_u32_le(token.fcc);
    buf.put_u32_le(token.rtr.len() as u32);
    for seq in &token.rtr {
        buf.put_u64_le(seq.as_u64());
    }
}

/// Decodes a token, consuming the envelope too.
///
/// # Errors
///
/// Returns [`DecodeError`] if the buffer is not a valid token.
pub fn decode_token(buf: &mut Bytes) -> Result<Token, DecodeError> {
    match decode_kind(buf)? {
        Kind::Token => decode_token_body(buf),
        other => Err(DecodeError::BadKind(other as u8)),
    }
}

/// Decodes a token body after the envelope has been consumed.
///
/// # Errors
///
/// Returns [`DecodeError`] if the remaining bytes are not a valid body.
pub fn decode_token_body(buf: &mut Bytes) -> Result<Token, DecodeError> {
    let ring_id = get_ring_id(buf)?;
    if buf.remaining() < 8 + 8 + 8 + 8 + 2 + 4 + 4 {
        return Err(DecodeError::Truncated);
    }
    let token_id = buf.get_u64_le();
    let round = Round::new(buf.get_u64_le());
    let seq = Seq::new(buf.get_u64_le());
    let aru = Seq::new(buf.get_u64_le());
    let aru_raw = buf.get_u16_le();
    let aru_id = if aru_raw == ARU_ID_NONE {
        None
    } else {
        Some(ParticipantId::new(aru_raw))
    };
    let fcc = buf.get_u32_le();
    let rtr_len = buf.get_u32_le() as usize;
    if buf.remaining() < rtr_len * 8 {
        return Err(DecodeError::BadLength {
            declared: rtr_len * 8,
            available: buf.remaining(),
        });
    }
    let mut rtr = Vec::with_capacity(rtr_len);
    for _ in 0..rtr_len {
        rtr.push(Seq::new(buf.get_u64_le()));
    }
    Ok(Token {
        ring_id,
        token_id,
        round,
        seq,
        aru,
        aru_id,
        fcc,
        rtr,
    })
}

/// Frames an opaque higher-layer payload (membership / client protocol)
/// with the standard envelope so it can share the data socket.
pub fn encode_opaque(payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(ENVELOPE_LEN + payload.len());
    encode_opaque_into(payload, &mut buf);
    buf.freeze()
}

/// Frames an opaque payload into any [`BufMut`] sink.
pub fn encode_opaque_into(payload: &[u8], buf: &mut impl BufMut) {
    put_envelope(buf, Kind::Opaque);
    buf.put_slice(payload);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data() -> DataMessage {
        DataMessage {
            ring_id: RingId::new(ParticipantId::new(2), 99),
            seq: Seq::new(123_456),
            pid: ParticipantId::new(7),
            round: Round::new(42),
            service: Service::Safe,
            post_token: true,
            retransmission: true,
            payload: Bytes::from_static(b"payload bytes"),
        }
    }

    fn sample_token() -> Token {
        Token {
            ring_id: RingId::new(ParticipantId::new(1), 11),
            token_id: 777,
            round: Round::new(97),
            seq: Seq::new(5000),
            aru: Seq::new(4990),
            aru_id: Some(ParticipantId::new(5)),
            fcc: 160,
            rtr: vec![Seq::new(4991), Seq::new(4993), Seq::new(4999)],
        }
    }

    #[test]
    fn data_roundtrip() {
        let msg = sample_data();
        let mut bytes = encode_data(&msg);
        assert_eq!(bytes.len(), msg.wire_len());
        let back = decode_data(&mut bytes).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn token_roundtrip() {
        let token = sample_token();
        let mut bytes = encode_token(&token);
        assert_eq!(bytes.len(), token.wire_len());
        let back = decode_token(&mut bytes).unwrap();
        assert_eq!(back, token);
    }

    #[test]
    fn token_roundtrip_no_aru_id() {
        let mut token = sample_token();
        token.aru_id = None;
        token.rtr.clear();
        let back = decode_token(&mut encode_token(&token)).unwrap();
        assert_eq!(back, token);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let mut msg = sample_data();
        msg.payload = Bytes::new();
        let back = decode_data(&mut encode_data(&msg)).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = encode_data(&sample_data());
        let mut raw = bytes.to_vec();
        raw[0] ^= 0xFF;
        bytes = Bytes::from(raw);
        assert!(matches!(
            decode_data(&mut bytes),
            Err(DecodeError::BadMagic(_))
        ));
    }

    #[test]
    fn rejects_bad_version() {
        let mut raw = encode_token(&sample_token()).to_vec();
        raw[4] = 9;
        let mut bytes = Bytes::from(raw);
        assert!(matches!(
            decode_token(&mut bytes),
            Err(DecodeError::BadVersion(9))
        ));
    }

    #[test]
    fn rejects_wrong_kind() {
        let mut bytes = encode_token(&sample_token());
        assert!(matches!(
            decode_data(&mut bytes),
            Err(DecodeError::BadKind(_))
        ));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let full = encode_data(&sample_data());
        for cut in 0..full.len() {
            let mut bytes = full.slice(..cut);
            assert!(
                decode_data(&mut bytes).is_err(),
                "decode succeeded at cut {cut}"
            );
        }
    }

    #[test]
    fn rejects_token_truncation_everywhere() {
        let full = encode_token(&sample_token());
        for cut in 0..full.len() {
            let mut bytes = full.slice(..cut);
            assert!(
                decode_token(&mut bytes).is_err(),
                "decode succeeded at cut {cut}"
            );
        }
    }

    #[test]
    fn rejects_bad_service() {
        let msg = sample_data();
        let mut raw = encode_data(&msg).to_vec();
        // service byte sits right after envelope + ring id + seq + pid + round
        let off = ENVELOPE_LEN + RING_ID_LEN + 8 + 2 + 8;
        raw[off] = 250;
        let mut bytes = Bytes::from(raw);
        assert!(matches!(
            decode_data(&mut bytes),
            Err(DecodeError::BadService(250))
        ));
    }

    #[test]
    fn rejects_overlong_declared_payload() {
        let msg = sample_data();
        let mut raw = encode_data(&msg).to_vec();
        let off = DATA_HEADER_LEN - 4;
        raw[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut bytes = Bytes::from(raw);
        assert!(matches!(
            decode_data(&mut bytes),
            Err(DecodeError::BadLength { .. })
        ));
    }

    #[test]
    fn opaque_framing() {
        let mut framed = encode_opaque(b"membership join");
        assert_eq!(decode_kind(&mut framed).unwrap(), Kind::Opaque);
        assert_eq!(&framed[..], b"membership join");
    }

    #[test]
    fn decode_errors_display() {
        // Error messages are lowercase, concise, no trailing punctuation.
        for err in [
            DecodeError::Truncated,
            DecodeError::BadMagic(1),
            DecodeError::BadVersion(2),
            DecodeError::BadKind(3),
            DecodeError::BadService(4),
            DecodeError::BadLength {
                declared: 5,
                available: 1,
            },
        ] {
            let text = err.to_string();
            assert!(!text.is_empty());
            assert!(!text.ends_with('.'));
        }
    }
}
