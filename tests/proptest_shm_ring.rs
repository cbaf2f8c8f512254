//! Property tests of the shared-memory SPSC ring transport.
//!
//! The shm backend moves protocol frames through fixed-slot rings with
//! free-running cursors: a datagram spans one or more contiguous slots, a
//! pad record covers the array seam, and the producer drops (UDP-style)
//! when the ring is full. These tests hammer exactly the states unit
//! tests pick by hand — wrap-around at arbitrary offsets, the full and
//! empty boundaries, send leases recycling across the transport hop while
//! exact-length copies out of a reused receive buffer stay held — and
//! check the transport is byte-transparent: an interleaved stream of
//! token and data frames received over shm parses identically to the
//! same bytes on the UDP wire (mirroring `proptest_pooled_wire`).

use accelring::core::{
    wire, BufferPool, DataMessage, ParticipantId, RingId, Round, Seq, Service, Token,
};
use accelring::transport::{DatagramSocket, RecvBatch, ShmCounters, ShmSocket};
use bytes::Bytes;
use proptest::prelude::*;

/// One shm link with per-side counters, fresh per proptest case.
fn link() -> (
    ShmSocket,
    ShmSocket,
    std::sync::Arc<ShmCounters>,
    std::sync::Arc<ShmCounters>,
) {
    let tx_counters = ShmCounters::new();
    let rx_counters = ShmCounters::new();
    let tx = ShmSocket::bind_ephemeral(tx_counters.clone()).expect("bind tx");
    let rx = ShmSocket::bind_ephemeral(rx_counters.clone()).expect("bind rx");
    (tx, rx, tx_counters, rx_counters)
}

fn drain(rx: &ShmSocket) -> Vec<Vec<u8>> {
    let mut buf = vec![0u8; 70_000];
    let mut out = Vec::new();
    while let Ok((len, _)) = rx.recv_from(&mut buf) {
        out.push(buf[..len].to_vec());
    }
    out
}

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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Wrap-around: bursts of arbitrary-size datagrams (including
    /// multi-slot jumbos) alternate with drains so the cursors lap the
    /// 256-slot ring many times at payload-dependent offsets. Everything
    /// must come out byte-exact and in FIFO order, with nothing dropped.
    #[test]
    fn wraparound_roundtrips_arbitrary_sizes(
        bursts in proptest::collection::vec(
            proptest::collection::vec(1usize..6_000, 1..20),
            1..12,
        ),
    ) {
        let (tx, rx, tx_counters, rx_counters) = link();
        let dest = rx.local_addr();
        let mut sent_total = 0u64;
        for (b, burst) in bursts.iter().enumerate() {
            let mut expected: Vec<Vec<u8>> = Vec::new();
            for (i, &len) in burst.iter().enumerate() {
                let fill = (b * 31 + i) as u8;
                let msg = vec![fill; len];
                tx.send_to(&msg, dest).expect("send");
                expected.push(msg);
                sent_total += 1;
            }
            let got = drain(&rx);
            prop_assert_eq!(&got, &expected, "burst {} must roundtrip in order", b);
        }
        let txs = tx_counters.snapshot();
        let rxs = rx_counters.snapshot();
        prop_assert_eq!(txs.ring_full_drops, 0, "drained bursts never fill the ring");
        prop_assert_eq!(txs.datagrams_published, sent_total);
        prop_assert_eq!(rxs.datagrams_consumed, sent_total);
        prop_assert_eq!(txs.slots_published, rxs.slots_consumed, "no slot leaks");
    }

    /// Full/empty boundaries: an undrained flood hits the ring-full drop
    /// path at an arbitrary fill level. The receiver must get exactly the
    /// accepted prefix (publishes are FIFO, drops are tail drops), the
    /// counters must balance, and the ring must be fully reusable after
    /// the drain empties it.
    #[test]
    fn full_ring_drops_tail_and_recovers(
        len in 1usize..4_000,
        sends in 200usize..600,
    ) {
        let (tx, rx, tx_counters, rx_counters) = link();
        let dest = rx.local_addr();
        for i in 0..sends {
            let msg = vec![(i % 251) as u8; len];
            tx.send_to(&msg, dest).expect("send never errors on full");
        }
        let txs = tx_counters.snapshot();
        prop_assert_eq!(txs.datagrams_published + txs.ring_full_drops, sends as u64);
        // Pad records at the array seam only cost extra capacity, so a
        // flood whose raw slot demand exceeds the ring must overflow.
        let slots_per_msg = (8 + len).div_ceil(2048);
        if sends * slots_per_msg > 256 {
            prop_assert!(txs.ring_full_drops > 0,
                "an undrained flood of {} x {}B must overflow a 256-slot ring", sends, len);
        }

        let got = drain(&rx);
        prop_assert_eq!(got.len() as u64, txs.datagrams_published);
        for (i, msg) in got.iter().enumerate() {
            prop_assert_eq!(msg.len(), len);
            prop_assert!(msg.iter().all(|&b| b == (i % 251) as u8),
                "accepted prefix arrives unreordered and untorn");
        }
        let rxs = rx_counters.snapshot();
        prop_assert_eq!(rxs.datagrams_consumed, txs.datagrams_published);
        prop_assert_eq!(rxs.slots_consumed, txs.slots_published);

        // Empty again: the same ring carries a fresh burst unharmed.
        tx.send_to(b"after the flood", dest).expect("send");
        let got = drain(&rx);
        prop_assert_eq!(got.len(), 1);
        prop_assert_eq!(got[0].as_slice(), b"after the flood");
    }

    /// Lease recycle across the transport hop: frames are encoded into
    /// recycled pooled leases, cross the shm link, land in the receiver's
    /// standing buffer over stale bytes from earlier traffic, and are
    /// copied out at their exact length, with every received copy and
    /// payload slice deliberately held across iterations. Every send
    /// lease comes home while the copies are held, and the copies stay
    /// byte-identical to the frames sent.
    #[test]
    fn pooled_leases_recycle_across_the_link(
        msgs in proptest::collection::vec(data_message_strategy(), 1..24),
        stale in any::<u8>(),
    ) {
        let (tx, rx, _, _) = link();
        let dest = rx.local_addr();
        let send_pool = BufferPool::new(2048, 2);
        let mut batch = RecvBatch::new(1, 2048).expect("map a receive batch");
        let mut received = Vec::new();
        tx.send_to(&[stale; 2048], dest).expect("send");
        batch.recv(&rx, &mut received).expect("recv");
        let mut sent = Vec::new();
        let mut decoded = Vec::new();
        for msg in &msgs {
            let mut lease = send_pool.acquire();
            lease.clear();
            wire::encode_data_into(msg, &mut lease);
            let encoded = lease.freeze();
            tx.send_to(&encoded, dest).expect("send");

            let outcome = batch.recv(&rx, &mut received).expect("recv");
            prop_assert_eq!(outcome.received, 1, "one datagram pending");
            let (copy, from) = received.last().expect("just received");
            prop_assert_eq!(*from, tx.local_addr(), "source address survives the ring");
            prop_assert_eq!(&copy[..], &encoded[..], "transport is byte-transparent");
            decoded.push(wire::decode_data(&mut copy.clone()).unwrap());
            sent.push(encoded.to_vec());
        }
        prop_assert_eq!(send_pool.outstanding(), 0, "every send lease must come home");
        for ((copy, _), frame) in received[1..].iter().zip(&sent) {
            prop_assert_eq!(&copy[..], &frame[..], "held copies stay byte-exact");
        }
        prop_assert_eq!(&decoded, &msgs);
    }

    /// Interleaved token and data frames through one ring parse exactly
    /// as they would off the UDP wire: the shm hop neither reorders,
    /// truncates, nor perturbs a single byte of either frame type.
    #[test]
    fn interleaved_token_and_data_parse_as_on_the_wire(
        tokens in proptest::collection::vec(token_strategy(), 1..12),
        msgs in proptest::collection::vec(data_message_strategy(), 1..12),
    ) {
        let (tx, rx, _, _) = link();
        let dest = rx.local_addr();
        // Interleave: token, data, token, data, ... as on a live ring
        // where data bursts ride between token rotations.
        let mut wire_frames: Vec<(bool, Vec<u8>)> = Vec::new();
        let longest = tokens.len().max(msgs.len());
        for i in 0..longest {
            if let Some(token) = tokens.get(i) {
                wire_frames.push((true, wire::encode_token(token).to_vec()));
            }
            if let Some(msg) = msgs.get(i) {
                wire_frames.push((false, wire::encode_data(msg).to_vec()));
            }
        }
        for (_, frame) in &wire_frames {
            tx.send_to(frame, dest).expect("send");
        }
        let got = drain(&rx);
        prop_assert_eq!(got.len(), wire_frames.len());
        for (received, (is_token, sent)) in got.iter().zip(&wire_frames) {
            prop_assert_eq!(received, sent, "shm bytes identical to wire bytes");
            let mut bytes = Bytes::from(received.clone());
            if *is_token {
                wire::decode_token(&mut bytes).expect("token parses off shm");
            } else {
                wire::decode_data(&mut bytes).expect("data parses off shm");
            }
        }
    }
}
