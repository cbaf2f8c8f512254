//! "Garbage never panics" properties of the session wire. Session
//! frames arrive from any UDP sender, EVENT bodies from the daemon a
//! client talks to, and group messages from the rings, so each decoder
//! must refuse what it cannot read, never panic: arbitrary bytes, every
//! frame, event and action tag followed by arbitrary bytes, and every
//! truncation and single-byte change of a valid encoding of each frame
//! (`SVC_QUERY` included), event and group message.

use accelring_core::{ParticipantId, Service};
use accelring_daemon::proto::{
    decode_event_body, decode_group_message, decode_session_frame, encode_event_body,
    encode_group_message, encode_session_frame,
};
use accelring_daemon::{ClientEvent, ClientId, GroupAction, GroupMessage, SessionFrame};
use bytes::Bytes;
use proptest::prelude::*;

/// Runs `bytes` through every decoder of the session wire, and an EVENT
/// frame's body through the event decoder, as a session client does.
fn decode_everywhere(bytes: &[u8]) {
    if let Ok(SessionFrame::Event { mut body, .. }) =
        decode_session_frame(&mut Bytes::copy_from_slice(bytes))
    {
        let _ = decode_event_body(&mut body);
    }
    let _ = decode_event_body(&mut Bytes::copy_from_slice(bytes));
    let _ = decode_group_message(&mut Bytes::copy_from_slice(bytes));
}

fn garbage() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..256)
}

fn client(daemon: u16, name: &str) -> ClientId {
    ClientId {
        daemon: ParticipantId::new(daemon),
        name: name.to_string(),
    }
}

/// One group action of each kind.
fn actions(payload: &Bytes) -> Vec<GroupAction> {
    vec![
        GroupAction::Data {
            groups: vec!["orders".into(), "kv.3".into()],
            payload: payload.clone(),
        },
        GroupAction::Join {
            group: "orders".into(),
        },
        GroupAction::Leave {
            group: "orders".into(),
        },
        GroupAction::Disconnect,
    ]
}

/// One event of each kind.
fn events(seq: u64, payload: &Bytes) -> Vec<ClientEvent> {
    vec![
        ClientEvent::Message {
            sender: client(2, "alice"),
            seq,
            groups: vec!["g1".into(), "g2".into()],
            payload: payload.clone(),
            service: Service::Safe,
        },
        ClientEvent::View {
            group: "g1".into(),
            members: vec![client(0, "a"), client(1, "bob")],
        },
        ClientEvent::Config {
            daemons: vec![ParticipantId::new(0), ParticipantId::new(2)],
            transitional: true,
        },
        ClientEvent::Disconnected {
            reason: "daemon shutdown".into(),
        },
    ]
}

/// A valid encoding of every session frame, EVENT body and group
/// message shape.
fn valid_encodings(seq: u64, payload: &Bytes) -> Vec<Bytes> {
    let body = payload.clone();
    let mut frames = vec![
        SessionFrame::Hello {
            name: "trader-7".into(),
            resume_seq: seq,
            nonce: seq ^ 0xfeed,
        },
        SessionFrame::Welcome {
            session: seq,
            resume_seq: seq,
            credits: 256,
            nonce: 9,
        },
        SessionFrame::Credit {
            session: seq,
            credits: 64,
        },
        SessionFrame::Bye { session: seq },
        SessionFrame::Error {
            session: seq,
            reason: "unknown session".into(),
        },
        SessionFrame::SvcQuery {
            nonce: seq,
            body: body.clone(),
        },
        SessionFrame::SvcReply { nonce: seq, body },
    ];
    let mut out = Vec::new();
    for action in actions(payload) {
        frames.push(SessionFrame::Submit {
            session: 5,
            seq,
            service: Service::Agreed,
            action: action.clone(),
        });
        out.push(encode_group_message(&GroupMessage {
            sender: client(3, "carol"),
            seq,
            action,
        }));
    }
    for event in events(seq, payload) {
        let body = encode_event_body(&event);
        frames.push(SessionFrame::Event {
            session: 5,
            body: body.clone(),
        });
        out.push(body);
    }
    out.extend(frames.iter().map(encode_session_frame));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// Arbitrary bytes decode or are refused: bare, behind every
    /// possible frame or event tag, and behind a valid group-message
    /// header with every possible action tag.
    #[test]
    fn garbage_never_panics_a_session_decoder(tail in garbage()) {
        decode_everywhere(&tail);
        let disconnect = encode_group_message(&GroupMessage {
            sender: client(1, "carol"),
            seq: 4,
            action: GroupAction::Disconnect,
        });
        // Everything but the action tag, the message's last byte.
        let header = &disconnect[..disconnect.len() - 1];
        for tag in 0..=u8::MAX {
            let mut tagged = vec![tag];
            tagged.extend_from_slice(&tail);
            decode_everywhere(&tagged);
            let mut action = header.to_vec();
            action.push(tag);
            action.extend_from_slice(&tail);
            decode_everywhere(&action);
        }
    }

    /// Every prefix of a valid encoding, and every copy of one with a
    /// single byte changed, decodes or is refused.
    #[test]
    fn damaged_session_encodings_never_panic(
        seq in any::<u64>(),
        payload in garbage(),
        flip in 1u8..=u8::MAX,
    ) {
        for good in valid_encodings(seq, &Bytes::from(payload)) {
            for cut in 0..good.len() {
                decode_everywhere(&good[..cut]);
            }
            for i in 0..good.len() {
                let mut bad = good.to_vec();
                bad[i] ^= flip;
                decode_everywhere(&bad);
            }
        }
    }
}
