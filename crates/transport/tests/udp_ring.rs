//! End-to-end tests of the real UDP transport: actual sockets on
//! 127.0.0.1, real threads, real wall-clock timers.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use accelring_core::{ProtocolConfig, Service};
use accelring_membership::MembershipConfig;
use accelring_transport::{spawn_local_ring, AppEvent, NodeHandle, SubmitError};
use bytes::Bytes;

/// Wall-clock timeouts small enough for fast tests but large enough to be
/// robust on a loaded CI machine.
fn test_membership_config() -> MembershipConfig {
    MembershipConfig {
        token_loss_timeout: 300_000_000,      // 300 ms
        token_retransmit_timeout: 80_000_000, // 80 ms
        join_interval: 30_000_000,            // 30 ms
        consensus_timeout: 250_000_000,       // 250 ms
        commit_timeout: 250_000_000,          // 250 ms
        recovery_timeout: 1_000_000_000,      // 1 s
        presence_interval: 100_000_000,       // 100 ms
        gather_settle: 60_000_000,            // 60 ms
    }
}

/// Waits until `handle` installs a regular configuration of `members`
/// daemons.
fn await_ring(handle: &NodeHandle, members: usize) {
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(10) {
        if let Ok(AppEvent::Config(c)) = handle.events().recv_timeout(Duration::from_millis(200)) {
            if !c.transitional && c.members.len() == members {
                return;
            }
        }
    }
    panic!("ring of {members} must form within 10 seconds");
}

/// Collects events from a handle until `count` deliveries arrive or the
/// deadline passes.
fn collect_deliveries(handle: &NodeHandle, count: usize, deadline: Duration) -> Vec<(u16, Bytes)> {
    let start = Instant::now();
    let mut got = Vec::new();
    while got.len() < count && start.elapsed() < deadline {
        match handle.events().recv_timeout(Duration::from_millis(100)) {
            Ok(AppEvent::Delivered(d)) => got.push((d.sender.as_u16(), d.payload)),
            Ok(AppEvent::Config(_)) => {}
            Ok(AppEvent::Fault { reason }) => panic!("node thread died: {reason}"),
            Err(_) => {}
        }
    }
    got
}

#[test]
fn udp_ring_delivers_total_order() {
    let handles = spawn_local_ring(
        4,
        ProtocolConfig::accelerated(20, 15),
        test_membership_config(),
    )
    .expect("spawn ring");

    // Wait for the ring to form (first regular config containing everyone).
    await_ring(&handles[0], 4);

    // Every daemon sends a burst of messages.
    let per_sender = 25;
    for (i, h) in handles.iter().enumerate() {
        for k in 0..per_sender {
            h.submit(
                Bytes::from(format!("{i}:{k}")),
                if k % 5 == 0 {
                    Service::Safe
                } else {
                    Service::Agreed
                },
            )
            .expect("submit");
        }
    }

    let expected = handles.len() * per_sender;
    let orders: Vec<Vec<(u16, Bytes)>> = handles
        .iter()
        .map(|h| collect_deliveries(h, expected, Duration::from_secs(20)))
        .collect();

    for (i, order) in orders.iter().enumerate() {
        assert_eq!(order.len(), expected, "node {i} delivered everything");
        assert_eq!(order, &orders[0], "node {i} delivery order matches node 0");
    }

    // FIFO per sender within the total order.
    let mut last_seen: HashMap<u16, i64> = HashMap::new();
    for (sender, payload) in &orders[0] {
        let text = std::str::from_utf8(payload).unwrap();
        let k: i64 = text.split(':').nth(1).unwrap().parse().unwrap();
        let prev = last_seen.insert(*sender, k);
        assert!(prev.unwrap_or(-1) < k, "sender {sender} FIFO order");
    }

    for h in handles {
        h.shutdown();
    }
}

#[test]
fn held_deliveries_pin_no_transport_buffers() {
    // A node copies each received datagram out of its standing receive
    // buffers at its exact length, so an application that keeps every
    // payload it is delivered holds only those bytes: once the ring is
    // quiet, no pooled buffer is leased out.
    let handles = spawn_local_ring(
        3,
        ProtocolConfig::accelerated(20, 15),
        test_membership_config(),
    )
    .expect("spawn ring");
    for h in &handles {
        await_ring(h, handles.len());
    }
    let total = 1_000;
    let mut sent: Vec<Bytes> = (0..total).map(|k| Bytes::from(format!("m{k}"))).collect();
    for (k, payload) in sent.iter().enumerate() {
        let h = &handles[k % handles.len()];
        while let Err(e) = h.submit(payload.clone(), Service::Agreed) {
            assert_eq!(e, SubmitError::Backlogged, "node stopped");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let held: Vec<Vec<(u16, Bytes)>> = handles
        .iter()
        .map(|h| collect_deliveries(h, total, Duration::from_secs(30)))
        .collect();
    for (i, got) in held.iter().enumerate() {
        assert_eq!(got.len(), total, "node {i} delivered everything");
        assert_eq!(got, &held[0], "node {i} delivery order matches node 0");
    }
    let mut delivered: Vec<Bytes> = held[0].iter().map(|(_, p)| p.clone()).collect();
    delivered.sort();
    sent.sort();
    assert_eq!(delivered, sent);

    let outstanding = || {
        handles
            .iter()
            .map(|h| h.probe().pool_outstanding())
            .sum::<u64>()
    };
    let start = Instant::now();
    while outstanding() > 0 && start.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        outstanding(),
        0,
        "{} held payloads pin pooled buffers",
        held.iter().map(Vec::len).sum::<usize>()
    );
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn udp_singleton_ring_works() {
    let handles = spawn_local_ring(
        1,
        ProtocolConfig::accelerated(10, 5),
        test_membership_config(),
    )
    .expect("spawn singleton");
    handles[0]
        .submit(Bytes::from_static(b"solo"), Service::Safe)
        .expect("submit");
    let got = collect_deliveries(&handles[0], 1, Duration::from_secs(10));
    assert_eq!(got.len(), 1);
    assert_eq!(&got[0].1[..], b"solo");
}

#[test]
fn udp_node_backpressure_parks_refusals_instead_of_shedding() {
    // A four-slot send queue makes the protocol refuse submissions almost
    // at once. The node parks each refusal and stops reading its command
    // queue, so the queue backs up and the caller sees `Backlogged`; an
    // accepted submission is never dropped.
    let protocol = ProtocolConfig::builder()
        .max_send_queue(4)
        .build()
        .expect("valid config");
    let handles = spawn_local_ring(1, protocol, test_membership_config()).expect("spawn singleton");
    let node = &handles[0];
    let mut accepted: u32 = 0;
    let mut backlogged = false;
    for _ in 0..20_000 {
        match node.submit(
            Bytes::from(accepted.to_le_bytes().to_vec()),
            Service::Agreed,
        ) {
            Ok(()) => accepted += 1,
            Err(SubmitError::Backlogged) => {
                backlogged = true;
                break;
            }
            Err(SubmitError::Stopped) => panic!("node stopped while submitting"),
        }
    }
    assert!(backlogged, "{accepted} submits never backed up the queue");

    let got = collect_deliveries(node, accepted as usize, Duration::from_secs(30));
    let delivered: Vec<u32> = got
        .iter()
        .map(|(_, p)| u32::from_le_bytes(p[..].try_into().expect("4-byte payload")))
        .collect();
    assert_eq!(
        delivered.len(),
        accepted as usize,
        "an accepted payload was not delivered"
    );
    assert!(
        delivered.iter().copied().eq(0..accepted),
        "deliveries are not each accepted payload once, in submission order"
    );
    let stats = node.stats();
    assert_eq!(stats.submissions_shed, 0, "a refused submit was shed");
    assert_eq!(stats.submissions, u64::from(accepted));
}

#[test]
fn udp_ring_original_protocol_also_works() {
    let handles = spawn_local_ring(3, ProtocolConfig::original(20), test_membership_config())
        .expect("spawn ring");
    for h in &handles {
        h.submit(Bytes::from_static(b"orig"), Service::Agreed)
            .expect("submit");
    }
    let got = collect_deliveries(&handles[2], 3, Duration::from_secs(15));
    assert_eq!(got.len(), 3, "all three messages delivered");
}

#[test]
fn udp_ring_survives_garbage_datagrams() {
    use accelring_core::ParticipantId;
    use accelring_transport::{AddressBook, BoundNode, NodeAddr, Transport};
    use std::net::UdpSocket;

    // Build the ring manually so we know the addresses to attack. Pinned
    // to UDP regardless of ACCELRING_TRANSPORT: the attack below needs a
    // kernel socket that can actually reach the ring's addresses.
    let bound: Vec<BoundNode> = (0..3)
        .map(|i| BoundNode::bind_on(Transport::Udp, ParticipantId::new(i), "127.0.0.1").unwrap())
        .collect();
    let addrs: Vec<NodeAddr> = bound.iter().map(|b| b.addr().unwrap()).collect();
    let book = AddressBook::new(addrs.clone());
    let handles: Vec<_> = bound
        .into_iter()
        .map(|b| {
            b.start(
                book.clone(),
                ProtocolConfig::accelerated(10, 5),
                test_membership_config(),
            )
            .unwrap()
        })
        .collect();

    // Blast junk at every data and token socket while the ring forms.
    let attacker = UdpSocket::bind("127.0.0.1:0").unwrap();
    for _ in 0..50 {
        for a in &addrs {
            let _ = attacker.send_to(b"\xde\xad\xbe\xef not a protocol message", a.data);
            let _ = attacker.send_to(&[0u8; 3], a.token);
            // Correct magic but truncated body.
            let mut near_valid = accelring_core::wire::MAGIC.to_le_bytes().to_vec();
            near_valid.push(1); // version
            near_valid.push(1); // kind = data, then nothing
            let _ = attacker.send_to(&near_valid, a.data);
        }
    }

    // The ring still forms and orders traffic.
    handles[0]
        .submit(Bytes::from_static(b"through the noise"), Service::Agreed)
        .expect("submit");
    let got = collect_deliveries(&handles[2], 1, Duration::from_secs(15));
    assert_eq!(got.len(), 1);
    assert_eq!(&got[0].1[..], b"through the noise");

    // The junk was counted, not silently discarded.
    let stats = handles[0].stats();
    assert!(
        stats.decode_failures > 0,
        "garbage datagrams must show up in stats: {stats:?}"
    );
    assert!(stats.hot.datagrams_rx > stats.decode_failures);
    assert_eq!(stats.submissions, 1);
}
