//! Criterion micro-benchmarks of the protocol state machine: token
//! handling (the per-round cost every participant pays) and data handling
//! (the per-message cost), for both protocol variants.

use accelring_core::testing::TestNet;
use accelring_core::{
    DataMessage, Participant, ParticipantId, ProtocolConfig, Ring, Round, Seq, Service, Token,
};
use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

fn payload(len: usize) -> Bytes {
    Bytes::from(vec![7u8; len])
}

/// Builds a participant mid-stream: ring of 8, a full window queued.
fn loaded_participant(cfg: ProtocolConfig) -> (Participant, Token) {
    let ring = Ring::of_size(8);
    let mut p = Participant::new(ParticipantId::new(0), ring.clone(), cfg).unwrap();
    for _ in 0..cfg.personal_window() {
        p.submit(payload(1350), Service::Agreed).unwrap();
    }
    let token = Token::initial(ring.id());
    (p, token)
}

fn bench_token_handling(c: &mut Criterion) {
    let mut group = c.benchmark_group("token_handling");
    for (name, cfg) in [
        ("original_w20", ProtocolConfig::original(20)),
        ("accelerated_w20_a15", ProtocolConfig::accelerated(20, 15)),
    ] {
        group.throughput(Throughput::Elements(u64::from(cfg.personal_window())));
        group.bench_function(name, |b| {
            b.iter_batched(
                || loaded_participant(cfg),
                |(mut p, token)| {
                    let mut out = Vec::with_capacity(64);
                    p.handle_token(token, 0, &mut out);
                    out
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_data_handling(c: &mut Criterion) {
    let ring = Ring::of_size(8);
    let mut group = c.benchmark_group("data_handling");
    group.throughput(Throughput::Elements(1));
    group.bench_function("in_order_agreed", |b| {
        b.iter_batched(
            || {
                let p = Participant::new(
                    ParticipantId::new(0),
                    ring.clone(),
                    ProtocolConfig::accelerated(20, 15),
                )
                .unwrap();
                let msg = DataMessage {
                    ring_id: ring.id(),
                    seq: Seq::new(1),
                    pid: ParticipantId::new(1),
                    round: Round::new(1),
                    service: Service::Agreed,
                    post_token: false,
                    retransmission: false,
                    payload: payload(1350),
                };
                (p, msg)
            },
            |(mut p, msg)| {
                let mut out = Vec::with_capacity(4);
                p.handle_data(msg, &mut out);
                out
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_full_rounds(c: &mut Criterion) {
    // A complete 8-participant rotation in the in-memory net: 8 token
    // handlings plus all data handlings and deliveries.
    let mut group = c.benchmark_group("full_rotation_8_nodes");
    for (name, cfg) in [
        ("original", ProtocolConfig::original(20)),
        ("accelerated", ProtocolConfig::accelerated(20, 15)),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut net = TestNet::new(8, cfg);
                    for i in 0..8 {
                        for _ in 0..20 {
                            net.submit(i, payload(1350), Service::Agreed);
                        }
                    }
                    net
                },
                |mut net| {
                    net.run_tokens(8);
                    net
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_token_handling, bench_data_handling, bench_full_rounds
}
criterion_main!(benches);
