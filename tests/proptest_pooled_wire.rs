//! Property tests of the wire codec over *reused* buffers.
//!
//! The batched datapath encodes into recycled [`BufLease`]s, and receives
//! into standing buffers whose memory arbitrary earlier traffic has
//! written, copying each datagram out at its exact length before parsing
//! it. These tests hammer exactly that reuse: a small pool cycles the
//! same few buffers through the encode path and one receive buffer takes
//! every datagram, with frozen encodings and received copies deliberately
//! held alive across iterations, and every roundtrip must still be
//! byte-exact.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;

use accelring::core::{
    wire, BufferPool, DataMessage, ParticipantId, RingId, Round, Seq, Service, Token,
};
use accelring::transport::{DatagramSocket, RecvBatch};
use bytes::Bytes;
use proptest::prelude::*;

/// A loopback socket that delivers as the kernel does: each datagram
/// lands at offset 0 of the buffer it is given, over whatever was there.
/// It records the bytes each buffer held just before the write.
#[derive(Debug, Default)]
struct Loopback {
    queue: RefCell<VecDeque<Vec<u8>>>,
    seen: RefCell<Vec<Vec<u8>>>,
}

impl DatagramSocket for Loopback {
    fn send_to(&self, buf: &[u8], _addr: SocketAddr) -> io::Result<usize> {
        self.queue.borrow_mut().push_back(buf.to_vec());
        Ok(buf.len())
    }

    fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        let datagram = self
            .queue
            .borrow_mut()
            .pop_front()
            .ok_or(io::ErrorKind::WouldBlock)?;
        self.seen.borrow_mut().push(buf.to_vec());
        buf[..datagram.len()].copy_from_slice(&datagram);
        Ok((datagram.len(), ([127, 0, 0, 1], 9).into()))
    }
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

    /// Encode path: each message goes through a freshly acquired (and
    /// therefore dirty, recycled) lease; a sliding window of frozen
    /// encodings stays alive so the pool is forced to mix hot reuse with
    /// new allocations mid-sequence.
    #[test]
    fn pooled_encode_roundtrips(msgs in proptest::collection::vec(data_message_strategy(), 1..24)) {
        let pool = BufferPool::new(2048, 2);
        let mut pinned: Vec<Bytes> = Vec::new();
        for msg in &msgs {
            let mut lease = pool.acquire();
            lease.clear();
            wire::encode_data_into(msg, &mut lease);
            let encoded = lease.freeze();
            prop_assert_eq!(encoded.len(), msg.wire_len());
            let decoded = wire::decode_data(&mut encoded.clone()).unwrap();
            prop_assert_eq!(&decoded, msg);
            pinned.push(encoded);
            if pinned.len() > 3 {
                pinned.remove(0); // release the oldest, recycling its buffer
            }
        }
        drop(pinned);
        prop_assert_eq!(pool.outstanding(), 0, "every lease must come home");
    }

    /// Receive path: every datagram lands in one standing receive
    /// buffer that earlier traffic has written (a first datagram of
    /// `stale` bytes fills it), is copied out at its exact length and
    /// parsed from the copy. The buffer is reused exactly as the last
    /// datagram left it, and every copy and payload slice stays
    /// byte-exact while later datagrams overwrite the buffer.
    #[test]
    fn reused_recv_buffer_copies_roundtrip(
        msgs in proptest::collection::vec(data_message_strategy(), 1..24),
        stale in any::<u8>(),
    ) {
        let socket = Loopback::default();
        let mut batch = RecvBatch::new(1, 2048).expect("map a receive batch");
        let mut sent = vec![vec![stale; 2048]];
        sent.extend(msgs.iter().map(|m| wire::encode_data(m).to_vec()));
        let mut received = Vec::new();
        let mut decoded = Vec::new();
        for (k, datagram) in sent.iter().enumerate() {
            socket.send_to(datagram, ([127, 0, 0, 1], 9).into()).unwrap();
            let outcome = batch.recv(&socket, &mut received).unwrap();
            prop_assert_eq!(outcome.received, 1);
            let (copy, _) = &received[k];
            prop_assert_eq!(copy.len(), datagram.len(), "copied at its exact length");
            if k > 0 {
                decoded.push(wire::decode_data(&mut copy.clone()).unwrap());
            }
        }
        // Held across every later receive, the copies and the decoded
        // payload slices are still what was sent.
        for ((copy, _), datagram) in received.iter().zip(&sent) {
            prop_assert_eq!(&copy[..], &datagram[..]);
        }
        prop_assert_eq!(&decoded, &msgs);
        // The buffer was never replaced or cleared: each datagram landed
        // over the bytes of all earlier ones.
        let mut buffer = vec![0u8; 2048];
        for (before, datagram) in socket.seen.borrow().iter().zip(&sent) {
            prop_assert_eq!(before, &buffer);
            buffer[..datagram.len()].copy_from_slice(datagram);
        }
    }

    /// Tokens ride the same pooled encode path as data; interleave them
    /// through one shared pool to catch cross-type offset reuse bugs.
    #[test]
    fn pooled_token_and_data_interleave(
        tokens in proptest::collection::vec(token_strategy(), 1..12),
        msg in data_message_strategy(),
    ) {
        let pool = BufferPool::new(2048, 1);
        for token in &tokens {
            let mut lease = pool.acquire();
            lease.clear();
            wire::encode_token_into(token, &mut lease);
            let encoded = lease.freeze();
            prop_assert_eq!(encoded.len(), token.wire_len());
            let decoded = wire::decode_token(&mut encoded.clone()).unwrap();
            prop_assert_eq!(&decoded, token);

            let mut lease = pool.acquire();
            lease.clear();
            wire::encode_data_into(&msg, &mut lease);
            let decoded = wire::decode_data(&mut lease.freeze()).unwrap();
            prop_assert_eq!(&decoded, &msg);
        }
        prop_assert_eq!(pool.outstanding(), 0, "every lease must come home");
    }
}
