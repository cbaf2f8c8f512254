//! Property-based tests of the core protocol invariants, under arbitrary
//! workloads and loss patterns.

use accelring::core::testing::{LossRule, TestNet};
use accelring::core::{
    wire, DataMessage, ParticipantId, ProtocolConfig, RingId, Round, Seq, Service, Token,
};
use bytes::Bytes;
use proptest::prelude::*;

fn service_strategy() -> impl Strategy<Value = Service> {
    prop_oneof![
        Just(Service::Reliable),
        Just(Service::Fifo),
        Just(Service::Causal),
        Just(Service::Agreed),
        Just(Service::Safe),
    ]
}

fn data_message_strategy() -> impl Strategy<Value = DataMessage> {
    (
        any::<u16>(),
        any::<u64>(),
        any::<u64>(),
        any::<u16>(),
        any::<u64>(),
        service_strategy(),
        any::<bool>(),
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 0..512),
    )
        .prop_map(
            |(rep, counter, seq, pid, round, service, post_token, retransmission, payload)| {
                DataMessage {
                    ring_id: RingId::new(ParticipantId::new(rep), counter),
                    seq: Seq::new(seq),
                    pid: ParticipantId::new(pid),
                    round: Round::new(round),
                    service,
                    post_token,
                    retransmission,
                    payload: Bytes::from(payload),
                }
            },
        )
}

fn token_strategy() -> impl Strategy<Value = Token> {
    (
        any::<u16>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        0u64..1_000_000,
        proptest::option::of(any::<u16>()),
        any::<u32>(),
        proptest::collection::vec(any::<u64>(), 0..64),
    )
        .prop_map(
            |(rep, counter, token_id, round, seq, aru_id, fcc, rtr)| Token {
                ring_id: RingId::new(ParticipantId::new(rep), counter),
                token_id,
                round: Round::new(round),
                seq: Seq::new(seq),
                aru: Seq::new(seq / 2),
                aru_id: aru_id.map(ParticipantId::new),
                fcc,
                rtr: rtr.into_iter().map(Seq::new).collect(),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codec_data_roundtrip(msg in data_message_strategy()) {
        let mut encoded = wire::encode_data(&msg);
        prop_assert_eq!(encoded.len(), msg.wire_len());
        let decoded = wire::decode_data(&mut encoded).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn codec_token_roundtrip(token in token_strategy()) {
        let mut encoded = wire::encode_token(&token);
        prop_assert_eq!(encoded.len(), token.wire_len());
        let decoded = wire::decode_token(&mut encoded).unwrap();
        prop_assert_eq!(decoded, token);
    }

    #[test]
    fn codec_rejects_arbitrary_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Random bytes must never decode (magic check) and never panic.
        let mut buf = Bytes::from(bytes);
        if buf.len() >= 4 && &buf[..4] == wire::MAGIC.to_le_bytes().as_slice() {
            // Even with the right magic, decoding must not panic.
            let _ = wire::decode_data(&mut buf.clone());
            let _ = wire::decode_token(&mut buf);
        } else {
            prop_assert!(wire::decode_data(&mut buf).is_err());
        }
    }

    #[test]
    fn codec_garbage_bodies_never_panic(
        kind in 1u8..=2,
        body in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // A valid envelope in front of random bytes reaches the body
        // decoders; any result is fine, a panic is not.
        let mut raw = wire::MAGIC.to_le_bytes().to_vec();
        raw.extend([wire::VERSION, kind]);
        raw.extend(body);
        let buf = Bytes::from(raw);
        let _ = wire::decode_data(&mut buf.clone());
        let _ = wire::decode_token(&mut buf.clone());
    }

    #[test]
    fn codec_truncated_frames_rejected(
        msg in data_message_strategy(),
        token in token_strategy(),
        cut_frac in 0.0f64..1.0,
    ) {
        let data = wire::encode_data(&msg);
        let cut = (data.len() as f64 * cut_frac) as usize;
        prop_assert!(wire::decode_data(&mut data.slice(..cut)).is_err());
        let tok = wire::encode_token(&token);
        let cut = (tok.len() as f64 * cut_frac) as usize;
        prop_assert!(wire::decode_token(&mut tok.slice(..cut)).is_err());
    }

    #[test]
    fn codec_old_version_rejected(msg in data_message_strategy(), token in token_strategy()) {
        // Version 1 rounds counted rotations; a version-1 frame must not
        // be read as a version-2 clock round.
        for mut raw in [wire::encode_data(&msg).to_vec(), wire::encode_token(&token).to_vec()] {
            raw[4] = wire::VERSION - 1;
            let mut buf = Bytes::from(raw);
            prop_assert_eq!(
                wire::decode_kind(&mut buf),
                Err(wire::DecodeError::BadVersion(wire::VERSION - 1))
            );
        }
    }
}

/// A randomized workload: who submits how many messages at which service.
fn workload_strategy() -> impl Strategy<Value = Vec<(usize, Service)>> {
    proptest::collection::vec((0usize..4, service_strategy()), 1..60)
}

/// Random single-shot loss rules over the first transmissions.
fn loss_strategy() -> impl Strategy<Value = Vec<(usize, u64)>> {
    proptest::collection::vec((0usize..4, 1u64..40), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fundamental invariant: whatever the workload, loss pattern, and
    /// protocol variant, every participant delivers the identical sequence,
    /// FIFO per sender, and nothing is lost or duplicated.
    #[test]
    fn total_order_holds_under_arbitrary_loss(
        workload in workload_strategy(),
        losses in loss_strategy(),
        accelerated in any::<bool>(),
    ) {
        let cfg = if accelerated {
            ProtocolConfig::accelerated(8, 5)
        } else {
            ProtocolConfig::original(8)
        };
        let mut net = TestNet::new(4, cfg);
        for (receiver, seq) in losses {
            net.add_loss(LossRule::drop_seq_once(receiver, seq));
        }
        let mut per_sender_counts = [0u64; 4];
        for (i, &(sender, service)) in workload.iter().enumerate() {
            per_sender_counts[sender] += 1;
            net.submit(sender, Bytes::from(format!("{sender}:{i}")), service);
        }
        // Enough rounds for every window and every retransmission.
        net.run_tokens(40 + 4 * workload.len() as u64);

        let orders = net.delivery_orders();
        prop_assert_eq!(orders[0].len(), workload.len(), "everything delivered");
        for i in 1..4 {
            prop_assert_eq!(&orders[i], &orders[0], "node {} order", i);
        }
        // FIFO per sender: payload indices from one sender appear in
        // submission order.
        for sender in 0..4u16 {
            let indices: Vec<usize> = orders[0]
                .iter()
                .filter(|d| d.sender == ParticipantId::new(sender))
                .map(|d| {
                    std::str::from_utf8(&d.payload)
                        .unwrap()
                        .split(':')
                        .nth(1)
                        .unwrap()
                        .parse()
                        .unwrap()
                })
                .collect();
            prop_assert!(indices.windows(2).all(|w| w[0] < w[1]), "sender {} fifo", sender);
        }
        // No duplicates.
        let mut seqs: Vec<u64> = orders[0].iter().map(|d| d.seq.as_u64()).collect();
        seqs.dedup();
        prop_assert_eq!(seqs.len(), orders[0].len());
    }

    /// Safe delivery implies stability: by the time any participant
    /// delivers a Safe message, every participant has received it.
    #[test]
    fn safe_delivery_implies_all_received(
        n_messages in 1usize..20,
        losses in loss_strategy(),
    ) {
        let mut net = TestNet::new(4, ProtocolConfig::accelerated(8, 5));
        for (receiver, seq) in losses {
            net.add_loss(LossRule::drop_seq_once(receiver, seq));
        }
        for i in 0..n_messages {
            net.submit(i % 4, Bytes::from(format!("m{i}")), Service::Safe);
        }
        net.run_tokens(60 + 4 * n_messages as u64);
        let orders = net.delivery_orders();
        // All delivered everywhere and identically (stability is then
        // witnessed by the fact that nothing was skipped anywhere).
        for i in 0..4 {
            prop_assert_eq!(orders[i].len(), n_messages, "node {}", i);
            prop_assert_eq!(&orders[i], &orders[0]);
        }
        // And the aru machinery discarded them everywhere.
        for s in net.stats() {
            prop_assert!(s.discarded > 0 || n_messages == 0);
        }
    }

    /// Flow control: the global window is never exceeded in any round.
    #[test]
    fn global_window_respected(burst in 1u32..120) {
        let cfg = ProtocolConfig::builder()
            .personal_window(10)
            .accelerated_window(6)
            .global_window(24)
            .build()
            .unwrap();
        let mut net = TestNet::new(4, cfg);
        for i in 0..burst {
            net.submit((i % 4) as usize, Bytes::from(vec![0u8; 16]), Service::Agreed);
        }
        // Run exactly one rotation and count what was sent.
        net.run_tokens(4);
        let sent: u64 = net.stats().iter().map(|s| s.messages_sent).sum();
        // One rotation can exceed the global window by at most one
        // participant's personal window (the fcc reflects the *previous*
        // round), exactly like Totem.
        prop_assert!(sent <= 24 + 10, "sent {} in one rotation", sent);
    }
}
