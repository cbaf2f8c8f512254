//! Property-based tests of the membership control-message codec.

use std::collections::BTreeSet;

use accelring::core::{wire, DataMessage, ParticipantId, RingId, Round, Seq, Service};
use accelring::membership::{
    decode_control, encode_control, CommitToken, ControlMessage, MemberInfo,
};
use bytes::Bytes;
use proptest::prelude::*;

fn pid_strategy() -> impl Strategy<Value = ParticipantId> {
    any::<u16>().prop_map(ParticipantId::new)
}

fn pid_set_strategy() -> impl Strategy<Value = BTreeSet<ParticipantId>> {
    proptest::collection::btree_set(pid_strategy(), 0..16)
}

fn ring_id_strategy() -> impl Strategy<Value = RingId> {
    (pid_strategy(), any::<u64>()).prop_map(|(rep, c)| RingId::new(rep, c))
}

fn member_info_strategy() -> impl Strategy<Value = MemberInfo> {
    (
        pid_strategy(),
        ring_id_strategy(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(pid, old_ring, aru, held, round)| MemberInfo {
            pid,
            old_ring,
            local_aru: Seq::new(aru.min(held)),
            highest_held: Seq::new(held),
            round: Round::new(round),
        })
}

fn data_message_strategy() -> impl Strategy<Value = DataMessage> {
    (
        ring_id_strategy(),
        any::<u64>(),
        pid_strategy(),
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..256),
        any::<bool>(),
    )
        .prop_map(
            |(ring_id, seq, pid, round, payload, post_token)| DataMessage {
                ring_id,
                seq: Seq::new(seq),
                pid,
                round: Round::new(round),
                service: Service::Safe,
                post_token,
                retransmission: false,
                payload: Bytes::from(payload),
            },
        )
}

fn control_strategy() -> impl Strategy<Value = ControlMessage> {
    prop_oneof![
        (
            pid_strategy(),
            pid_set_strategy(),
            pid_set_strategy(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(sender, proc_set, fail_set, ring_counter, epoch)| {
                ControlMessage::Join {
                    sender,
                    proc_set,
                    fail_set,
                    ring_counter,
                    epoch,
                }
            }),
        (
            ring_id_strategy(),
            proptest::collection::btree_set(pid_strategy(), 1..12),
            proptest::collection::vec(member_info_strategy(), 0..12),
            any::<u32>()
        )
            .prop_map(|(new_ring, members, infos, hop)| {
                ControlMessage::Commit(CommitToken {
                    new_ring,
                    members: members.into_iter().collect(),
                    infos,
                    hop,
                })
            }),
        (pid_strategy(), ring_id_strategy(), data_message_strategy()).prop_map(
            |(sender, old_ring, msg)| ControlMessage::Recovery {
                sender,
                old_ring,
                msg,
            }
        ),
        (
            pid_strategy(),
            ring_id_strategy(),
            ring_id_strategy(),
            proptest::collection::vec(any::<u64>(), 0..24)
        )
            .prop_map(|(sender, new_ring, old_ring, holds)| {
                ControlMessage::RecoveryDone {
                    sender,
                    new_ring,
                    old_ring,
                    holds: holds.into_iter().map(Seq::new).collect(),
                }
            }),
        (pid_strategy(), ring_id_strategy())
            .prop_map(|(sender, ring_id)| { ControlMessage::Presence { sender, ring_id } }),
        (pid_strategy(), ring_id_strategy(), any::<u64>()).prop_map(|(sender, ring_id, round)| {
            ControlMessage::Wake {
                sender,
                ring_id,
                round: Round::new(round),
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn control_message_roundtrip(msg in control_strategy()) {
        let mut framed = encode_control(&msg);
        prop_assert_eq!(wire::decode_kind(&mut framed).unwrap(), wire::Kind::Opaque);
        let decoded = decode_control(&mut framed).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn truncated_control_rejected(msg in control_strategy(), cut_frac in 0.0f64..1.0) {
        let mut framed = encode_control(&msg);
        let _ = wire::decode_kind(&mut framed).unwrap();
        let cut = ((framed.len() as f64) * cut_frac) as usize;
        if cut < framed.len() {
            let mut b = framed.slice(..cut);
            prop_assert!(decode_control(&mut b).is_err());
        }
    }

    #[test]
    fn garbage_control_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let mut b = Bytes::from(bytes);
        let _ = decode_control(&mut b); // any result is fine, panics are not
    }

    #[test]
    fn commit_token_roundtrip(
        new_ring in ring_id_strategy(),
        members in proptest::collection::btree_set(pid_strategy(), 1..12),
        infos in proptest::collection::vec(member_info_strategy(), 1..12),
        hop in any::<u32>(),
    ) {
        // Every member's round survives the trip: the new ring's first
        // rotation starts above their maximum.
        let msg = ControlMessage::Commit(CommitToken {
            new_ring,
            members: members.into_iter().collect(),
            infos,
            hop,
        });
        let mut framed = encode_control(&msg);
        prop_assert_eq!(wire::decode_kind(&mut framed), Ok(wire::Kind::Opaque));
        prop_assert_eq!(decode_control(&mut framed), Ok(msg));
    }

    #[test]
    fn old_version_control_rejected(msg in control_strategy()) {
        let mut raw = encode_control(&msg).to_vec();
        raw[4] = wire::VERSION - 1;
        let mut framed = Bytes::from(raw);
        prop_assert_eq!(
            wire::decode_kind(&mut framed),
            Err(wire::DecodeError::BadVersion(wire::VERSION - 1))
        );
    }
}
