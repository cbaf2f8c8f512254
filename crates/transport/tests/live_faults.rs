//! Live fault-path tests: real sockets and threads, with faults injected
//! through the [`FaultPlane`] interposer or the node's own fault hooks.
//!
//! The tests serialize themselves through a file-local mutex: each times
//! a real ring against real timeouts, and concurrent rings skew each
//! other's clocks.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use std::collections::BTreeSet;
use std::net::{SocketAddr, UdpSocket};

use accelring_core::{ParticipantId, ProtocolConfig, Service};
use accelring_membership::MembershipConfig;
use accelring_transport::{
    spawn_local_ring_with, AddressBook, AppEvent, DatagramSocket, FaultPlane, InterposedSocket,
    NodeAddr, NodeHandle, SocketClass,
};
use bytes::Bytes;

/// Serializes the tests in this file even under the default parallel test
/// runner: each spins a real ring against real timers, and concurrent
/// rings starve each other of CPU on small machines.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Base wall-clock config used by the transport test suite.
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

/// Waits until `handle` reports a regular configuration of exactly
/// `members` members, returning how long it took.
fn await_ring_of(handle: &NodeHandle, members: usize, deadline: Duration) -> Option<Duration> {
    let start = Instant::now();
    while start.elapsed() < deadline {
        match handle.events().recv_timeout(Duration::from_millis(50)) {
            Ok(AppEvent::Config(c)) if !c.transitional && c.members.len() == members => {
                return Some(start.elapsed());
            }
            Ok(_) | Err(_) => {}
        }
    }
    None
}

#[test]
fn token_socket_loss_is_repaired_by_retransmit_not_reformation() {
    let _serial = serial();
    // Room for several retransmit rounds (80 ms each) before token loss
    // would be declared.
    let mut membership = test_membership_config();
    membership.token_loss_timeout = 1_200_000_000; // 1.2 s

    let plane = Arc::new(FaultPlane::new(7));
    let handles = spawn_local_ring_with(
        3,
        ProtocolConfig::accelerated(20, 15),
        membership,
        Some(Arc::clone(&plane)),
    )
    .expect("spawn ring");
    assert!(
        await_ring_of(&handles[0], 3, Duration::from_secs(10)).is_some(),
        "ring of 3 must form"
    );
    // Node 0's Config event races the slowest node's Recover→Operational
    // transition; drops armed mid-recovery would hit recovery tokens,
    // which the Operational retransmit timer does not cover.
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(5)
        && !handles
            .iter()
            .all(|h| h.membership_state() == accelring_membership::StateKind::Operational)
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(200));
    let rings_before: u64 = handles.iter().map(NodeHandle::rings_formed).sum();

    // Eat the next few token transmissions — data packets are untouched.
    // A dropped token silences the rotation (the successor never sees
    // it), so only the holder's retransmit timer can revive it; each
    // revival is eaten too until the budget runs out, which is why the
    // budget drains at retransmit-timer cadence rather than instantly.
    plane.drop_next_tokens(3);
    let start = Instant::now();
    loop {
        let retransmits: u64 = handles.iter().map(NodeHandle::tokens_retransmitted).sum();
        if retransmits > 0 && plane.stats().tokens_dropped >= 3 {
            break;
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "retransmit timer never fired: plane={:?} retransmits={retransmits}",
            plane.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The revived token still orders traffic — and the ring never reformed.
    handles[1]
        .submit(Bytes::from_static(b"through the gap"), Service::Agreed)
        .expect("submit");
    let start = Instant::now();
    let mut delivered = false;
    while start.elapsed() < Duration::from_secs(8) && !delivered {
        if let Ok(AppEvent::Delivered(d)) =
            handles[2].events().recv_timeout(Duration::from_millis(50))
        {
            delivered = &d.payload[..] == b"through the gap";
        }
    }
    assert!(delivered, "delivery must complete after the token revives");

    let rings_after: u64 = handles.iter().map(NodeHandle::rings_formed).sum();
    assert_eq!(
        rings_before, rings_after,
        "token-socket loss must be repaired without reforming the ring"
    );
}

/// Two-node harness for comparing the single-send and batched send paths
/// under an identically seeded [`FaultPlane`]: a sender socket wrapped in
/// an [`InterposedSocket`] and a plain receiver socket.
struct FatePath {
    plane: Arc<FaultPlane>,
    sender: InterposedSocket,
    receiver: UdpSocket,
    dest: SocketAddr,
}

impl FatePath {
    fn new(seed: u64) -> FatePath {
        let sender_sock = UdpSocket::bind("127.0.0.1:0").expect("bind sender");
        let receiver = UdpSocket::bind("127.0.0.1:0").expect("bind receiver");
        sender_sock.set_nonblocking(true).expect("nonblocking");
        receiver.set_nonblocking(true).expect("nonblocking");
        let dest = receiver.local_addr().expect("receiver addr");

        let plane = FaultPlane::new(seed);
        // Both nodes' data and token slots must resolve in the plane's
        // address map for partition rules to apply; the unused token
        // addresses just point back at the same sockets.
        plane.register_book(&AddressBook::new(vec![
            NodeAddr {
                pid: ParticipantId::new(0),
                data: sender_sock.local_addr().expect("sender addr"),
                token: sender_sock.local_addr().expect("sender addr"),
            },
            NodeAddr {
                pid: ParticipantId::new(1),
                data: dest,
                token: dest,
            },
        ]));
        let sender = InterposedSocket::new(
            sender_sock,
            ParticipantId::new(0),
            SocketClass::Data,
            Arc::clone(&plane),
        );
        FatePath {
            plane,
            sender,
            receiver,
            dest,
        }
    }

    /// Drains the receiver until it stays quiet, returning the set of
    /// one-byte payload tags that arrived.
    fn drain(&self) -> BTreeSet<u8> {
        let mut got = BTreeSet::new();
        let mut quiet_since = Instant::now();
        let mut buf = [0u8; 64];
        while quiet_since.elapsed() < Duration::from_millis(150) {
            match self.receiver.recv_from(&mut buf) {
                Ok((len, _)) => {
                    assert_eq!(len, 1, "test datagrams are one tag byte");
                    got.insert(buf[0]);
                    quiet_since = Instant::now();
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        got
    }
}

/// The batched send path must be observationally identical to the
/// single-send path under fault injection: the plane consults its seeded
/// random source exactly once per datagram either way, so two planes with
/// the same seed and the same rules must drop, pass, and count the same
/// datagrams — whether those datagrams go out one `send_to` at a time or
/// as one `send_batch` burst.
#[test]
fn fault_semantics_identical_through_batched_send_path() {
    let _serial = serial();
    let tags: Vec<Bytes> = (0u8..48).map(|t| Bytes::from(vec![t])).collect();

    // Phase 1: heavy random loss.
    let single = FatePath::new(42);
    let batched = FatePath::new(42);
    single.plane.set_loss(0.5, 0.0);
    batched.plane.set_loss(0.5, 0.0);

    for tag in &tags {
        let _ = single.sender.send_to(tag, single.dest);
    }
    let batch: Vec<(Bytes, SocketAddr)> = tags.iter().map(|t| (t.clone(), batched.dest)).collect();
    let out = batched.sender.send_batch(&batch);
    assert_eq!(out.errors, 0, "loopback batch must not error");
    assert!(
        out.syscalls < tags.len() as u64,
        "batched path must actually batch: {} syscalls for {} datagrams",
        out.syscalls,
        tags.len()
    );

    let arrived_single = single.drain();
    let arrived_batched = batched.drain();
    assert!(
        !arrived_single.is_empty() && arrived_single.len() < tags.len(),
        "0.5 loss over 48 datagrams must drop some and pass some"
    );
    assert_eq!(
        arrived_single, arrived_batched,
        "same seed + same loss rule must fate the same datagrams"
    );
    assert_eq!(
        single.plane.stats().data_dropped,
        batched.plane.stats().data_dropped,
        "loss accounting must match across send paths"
    );

    // Phase 2: partition blocks everything, on both paths alike.
    single.plane.set_loss(0.0, 0.0);
    batched.plane.set_loss(0.0, 0.0);
    single.plane.partition(&[vec![0], vec![1]]);
    batched.plane.partition(&[vec![0], vec![1]]);
    for tag in &tags {
        let _ = single.sender.send_to(tag, single.dest);
    }
    let out = batched.sender.send_batch(&batch);
    assert_eq!(out.sent, tags.len(), "fate-dropped still counts as sent");
    assert!(single.drain().is_empty(), "partition must block send_to");
    assert!(
        batched.drain().is_empty(),
        "partition must block send_batch"
    );
    assert_eq!(
        single.plane.stats().partition_dropped,
        batched.plane.stats().partition_dropped,
        "partition accounting must match across send paths"
    );

    // Phase 3: heal — every datagram flows again through both paths.
    single.plane.heal();
    batched.plane.heal();
    for tag in &tags {
        let _ = single.sender.send_to(tag, single.dest);
    }
    batched.sender.send_batch(&batch);
    let all: BTreeSet<u8> = (0u8..48).collect();
    assert_eq!(single.drain(), all, "healed plane passes all via send_to");
    assert_eq!(
        batched.drain(),
        all,
        "healed plane passes all via send_batch"
    );
}

/// Every pooled buffer must come home after a ring tears down: recv
/// leases pinned by in-flight deliveries, encode-once fanout slices, and
/// FaultPlane-held copies all drop with the handles and channels. A
/// nonzero residue is a leak in the zero-copy datapath.
#[test]
fn pooled_buffers_all_return_after_ring_shutdown() {
    let _serial = serial();
    let handles = spawn_local_ring_with(
        3,
        ProtocolConfig::accelerated(20, 15),
        test_membership_config(),
        None,
    )
    .expect("spawn ring");
    assert!(
        await_ring_of(&handles[0], 3, Duration::from_secs(10)).is_some(),
        "ring of 3 must form"
    );
    let probes: Vec<_> = handles.iter().map(NodeHandle::probe).collect();

    // Push enough ordered traffic through that pool buffers actually
    // cycle: submissions, fanout, token rotations, deliveries.
    for i in 0u32..200 {
        let payload = Bytes::from(i.to_le_bytes().to_vec());
        let _ = handles[(i % 3) as usize].submit(payload, Service::Agreed);
        if i % 16 == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let start = Instant::now();
    let mut delivered = 0u32;
    while start.elapsed() < Duration::from_secs(10) && delivered < 200 {
        if let Ok(AppEvent::Delivered(_)) =
            handles[0].events().recv_timeout(Duration::from_millis(50))
        {
            delivered += 1;
        }
    }
    assert!(delivered > 0, "ring must deliver under load");

    for h in handles {
        h.shutdown();
    }
    // Delivery payloads pin recv-pool leases until dropped; the channels
    // died with the handles, so the pools must drain promptly.
    let deadline = Instant::now() + Duration::from_secs(3);
    let mut outstanding: u64 = probes.iter().map(|p| p.pool_outstanding()).sum();
    while outstanding > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        outstanding = probes.iter().map(|p| p.pool_outstanding()).sum();
    }
    assert_eq!(outstanding, 0, "pooled buffers leaked past ring shutdown");
}

#[test]
fn panic_in_event_loop_is_contained_and_reported() {
    let _serial = serial();
    let handles = spawn_local_ring_with(
        3,
        ProtocolConfig::accelerated(20, 15),
        test_membership_config(),
        None,
    )
    .expect("spawn ring");
    assert!(
        await_ring_of(&handles[0], 3, Duration::from_secs(10)).is_some(),
        "ring of 3 must form"
    );

    handles[1].inject_panic();

    // The panic is caught, counted, and surfaced as a terminal event.
    let start = Instant::now();
    let mut fault_reason = None;
    while start.elapsed() < Duration::from_secs(5) && fault_reason.is_none() {
        if let Ok(AppEvent::Fault { reason }) =
            handles[1].events().recv_timeout(Duration::from_millis(50))
        {
            fault_reason = Some(reason);
        }
    }
    let reason = fault_reason.expect("panic must surface as AppEvent::Fault");
    assert!(
        reason.contains("fault injection"),
        "fault event carries the panic context, got: {reason}"
    );
    assert_eq!(handles[1].stats().thread_panics, 1);

    // The process survives and the other daemons keep running; they will
    // reform without the dead node once its token silence is noticed.
    assert!(handles[0].is_alive());
    assert!(handles[2].is_alive());
    assert!(
        await_ring_of(&handles[0], 2, Duration::from_secs(10)).is_some(),
        "survivors reform after a peer's thread panics"
    );
}
