//! Per-layer timings of single public functions, run on the workload's
//! own message shape after the live window (traced runs only).

use std::hint::black_box;
use std::time::Instant;

use accelring_core::testing::TestNet;
use accelring_core::wire::{decode_data, encode_data};
use accelring_core::{DataMessage, ParticipantId, ProtocolConfig, RingId, Round, Seq, Service};
use accelring_daemon::proto::{
    decode_event_body, decode_session_frame, encode_event_body, encode_session_frame,
};
use accelring_daemon::{ClientEvent, ClientId, GroupAction, SessionFrame};
use bytes::Bytes;

use crate::stats::median;
use crate::{Args, Outcome};

/// Timed batches per measurement; the median batch is reported.
const BATCHES: usize = 7;
/// Calls per codec batch.
const CODEC_CALLS: usize = 20_000;
/// Messages each of the 3 in-memory participants submits per batch.
const ORDER_MSGS: usize = 600;

/// Nanoseconds per delivered message of a 3-node in-memory ring running
/// the live stack's protocol configuration, every participant submitting
/// `payload_len`-byte messages.
pub fn order_ns_per_msg(payload_len: usize) -> f64 {
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut net = TestNet::new(3, ProtocolConfig::default());
            let payload = Bytes::from(vec![0xa5u8; payload_len]);
            for _ in 0..ORDER_MSGS {
                for p in 0..3 {
                    net.submit(p, payload.clone(), Service::Agreed);
                }
            }
            let want = 3 * ORDER_MSGS;
            let t = Instant::now();
            while net.delivery_orders().iter().any(|d| d.len() < want) {
                net.run_tokens(16);
            }
            let elapsed = t.elapsed().as_nanos() as f64;
            // Each message is delivered at all three participants; the
            // ring's work per ordered message is the whole elapsed time.
            elapsed / want as f64
        })
        .collect();
    median(&per_batch)
}

fn data_message(payload_len: usize) -> DataMessage {
    DataMessage {
        ring_id: RingId::new(ParticipantId::new(0), 1),
        seq: Seq::new(1_000),
        pid: ParticipantId::new(1),
        round: Round::new(40),
        service: Service::Agreed,
        post_token: true,
        retransmission: false,
        payload: Bytes::from(vec![0x5au8; payload_len]),
    }
}

/// Median nanoseconds per `f()` call over [`BATCHES`] batches.
fn per_call(mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CODEC_CALLS {
                f();
            }
            t.elapsed().as_nanos() as f64 / CODEC_CALLS as f64
        })
        .collect();
    median(&batches)
}

/// `(encode_ns, decode_ns)` of the ring data message carrying one
/// `payload_len`-byte payload.
pub fn wire_codec_ns(payload_len: usize) -> (f64, f64) {
    let msg = data_message(payload_len);
    let encoded = encode_data(&msg);
    assert_eq!(
        decode_data(&mut encoded.clone()).as_ref(),
        Ok(&msg),
        "wire codec round-trips"
    );
    let enc = per_call(|| {
        black_box(encode_data(black_box(&msg)));
    });
    let dec = per_call(|| {
        let mut b = black_box(encoded.clone());
        black_box(decode_data(&mut b).ok());
    });
    (enc, dec)
}

/// Nanoseconds to encode plus decode one session frame, averaged over a
/// SUBMIT and an EVENT frame carrying `payload_len` bytes to `group`.
pub fn session_codec_ns(group: &str, payload_len: usize) -> f64 {
    let payload = Bytes::from(vec![0x3cu8; payload_len]);
    let submit = SessionFrame::Submit {
        session: 7,
        seq: 99,
        service: Service::Agreed,
        action: GroupAction::Data {
            groups: vec![group.to_string()],
            payload: payload.clone(),
        },
    };
    let event = ClientEvent::Message {
        sender: ClientId {
            daemon: ParticipantId::new(1),
            name: "bench-sender".to_string(),
        },
        seq: 99,
        groups: vec![group.to_string()],
        payload,
        service: Service::Agreed,
    };
    let submit_ns = per_call(|| {
        let mut b = encode_session_frame(black_box(&submit));
        black_box(decode_session_frame(&mut b).ok());
    });
    let event_ns = per_call(|| {
        let frame = SessionFrame::Event {
            session: 7,
            body: encode_event_body(black_box(&event)),
        };
        let mut b = encode_session_frame(&frame);
        if let Ok(SessionFrame::Event { mut body, .. }) = decode_session_frame(&mut b) {
            black_box(decode_event_body(&mut body).ok());
        }
    });
    (submit_ns + event_ns) / 2.0
}

/// Records the single-function timings of the core and daemon layers,
/// measured only in traced runs (untraced runs never print them).
pub fn record(o: &mut Outcome, args: &Args, group: &str, payload_len: usize) {
    let (order, (enc, dec), codec) = if args.trace {
        (
            order_ns_per_msg(payload_len),
            wire_codec_ns(payload_len),
            session_codec_ns(group, payload_len),
        )
    } else {
        (0.0, (0.0, 0.0), 0.0)
    };
    o.set("core.order_ns_per_msg", order);
    o.set("core.wire_encode_ns", enc);
    o.set("core.wire_decode_ns", dec);
    o.set("daemon.session_codec_ns", codec);
}
