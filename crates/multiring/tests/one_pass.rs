//! One pass per wake, counted: a daemon's loop reads only the sockets
//! its wait reported ready, so under steady session traffic a receive
//! call on a ring socket almost always returns a datagram, and the
//! session socket is read only when a client frame is waiting. A loop
//! that re-read every socket on every pass made about four receive calls
//! per ring datagram and thirteen session-socket syscalls per frame.
//!
//! One ring of three daemons with session sockets; a remote sender
//! multicasts 2,000 messages of 64 bytes over one second to a group a
//! remote session at each daemon watches. The counters are summed over
//! the daemons across the send window.
//!
//! The test stands up real sockets and threads; run it single-threaded
//! (`--test-threads=1`) so concurrent rings do not compete for CPU.

use std::thread;
use std::time::{Duration, Instant};

use accelring_core::{FrontendStats, HotPathStats, ProtocolConfig, Service};
use accelring_daemon::{ClientEvent, FrontendOptions, SessionClient};
use accelring_membership::MembershipConfig;
use accelring_multiring::{MultiRingDaemon, MultiRingOptions, ShardMap};
use accelring_transport::spawn_local_ring;
use bytes::Bytes;

const NODES: u16 = 3;
const GROUP: &str = "fanout";
/// Messages the sender multicasts, evenly over [`SEND_WINDOW`].
const MESSAGES: u32 = 2_000;
const SEND_WINDOW: Duration = Duration::from_secs(1);
/// Receive calls per received ring datagram, summed over every ring
/// socket. A pass that reads only ready sockets makes 1.00; the loop
/// that read every socket on every pass made 3.8.
const MAX_RING_RECVS_PER_DATAGRAM: f64 = 1.8;
/// Session-socket syscalls, both directions, per frame a daemon took in
/// or handed out (`submits + events_sent`). Ingesting only when the
/// socket is ready costs 1.0 (one receive per submit, one send per
/// event); ingesting on every pass cost 13.
const MAX_SESSION_SYSCALLS_PER_FRAME: f64 = 2.0;

/// Receive syscalls and datagrams on every ring socket of every daemon.
fn ring_rx(daemons: &[MultiRingDaemon]) -> (u64, u64) {
    let hot: Vec<HotPathStats> = daemons
        .iter()
        .flat_map(MultiRingDaemon::transport_probes)
        .map(|p| p.stats().hot)
        .collect();
    (
        hot.iter().map(|h| h.syscalls_rx).sum(),
        hot.iter().map(|h| h.datagrams_rx).sum(),
    )
}

/// Session-socket syscalls and frames (submits taken, events handed
/// out) of every daemon.
fn session_io(daemons: &[MultiRingDaemon]) -> (u64, u64) {
    let stats: Vec<FrontendStats> = daemons
        .iter()
        .map(MultiRingDaemon::frontend_stats)
        .collect();
    (
        stats.iter().map(|s| s.syscalls).sum(),
        stats.iter().map(|s| s.submits + s.events_sent).sum(),
    )
}

#[test]
fn a_pass_reads_only_the_sockets_its_wait_reported_ready() {
    let handles = spawn_local_ring(
        NODES,
        ProtocolConfig::default(),
        MembershipConfig::for_wall_clock(),
    )
    .expect("ring");
    let options = MultiRingOptions {
        frontend: FrontendOptions::enabled(),
        ..MultiRingOptions::default()
    };
    let daemons: Vec<MultiRingDaemon> = handles
        .into_iter()
        .map(|node| MultiRingDaemon::start_with(vec![node], ShardMap::new(1), options.clone()))
        .collect();
    let addrs: Vec<_> = daemons
        .iter()
        .map(|d| d.session_addr().expect("session socket"))
        .collect();

    // One watcher per daemon, each receiving on a thread of its own until
    // it has every message.
    let mut joined = Vec::new();
    let watchers: Vec<_> = addrs
        .iter()
        .enumerate()
        .map(|(i, &addr)| {
            let (tx, rx) = std::sync::mpsc::channel();
            joined.push(rx);
            thread::spawn(move || {
                let mut c = SessionClient::connect(addr, &format!("watch-{i}")).expect("connect");
                c.join(GROUP).expect("join");
                let deadline = Instant::now() + Duration::from_secs(30);
                let mut viewed = false;
                let mut got = 0;
                while got < MESSAGES && Instant::now() < deadline {
                    match c.recv_event(Duration::from_millis(50)) {
                        Ok(Some(ClientEvent::View { group, .. })) if group == GROUP && !viewed => {
                            viewed = true;
                            tx.send(()).expect("test alive");
                        }
                        Ok(Some(ClientEvent::Message { .. })) => got += 1,
                        _ => {}
                    }
                }
                got
            })
        })
        .collect();
    for rx in &joined {
        rx.recv_timeout(Duration::from_secs(30))
            .expect("every watcher sees its view");
    }
    let sender = SessionClient::connect(addrs[0], "sender").expect("connect");
    thread::sleep(Duration::from_millis(300));

    let (recvs0, datagrams0) = ring_rx(&daemons);
    let (syscalls0, frames0) = session_io(&daemons);
    let payload = Bytes::from(vec![7u8; 64]);
    let start = Instant::now();
    for k in 0..MESSAGES {
        let due = start + SEND_WINDOW * k / MESSAGES;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        sender
            .multicast(&[GROUP], payload.clone(), Service::Agreed)
            .expect("submit");
    }
    for (i, w) in watchers.into_iter().enumerate() {
        assert_eq!(w.join().expect("watcher"), MESSAGES, "watcher {i}");
    }
    // The daemons publish their frontend counters at the end of a pass.
    thread::sleep(Duration::from_millis(100));
    let (recvs1, datagrams1) = ring_rx(&daemons);
    let (syscalls1, frames1) = session_io(&daemons);

    let (recvs, datagrams) = (recvs1 - recvs0, datagrams1 - datagrams0);
    let (syscalls, frames) = (syscalls1 - syscalls0, frames1 - frames0);
    let ring_ratio = recvs as f64 / datagrams as f64;
    let session_ratio = syscalls as f64 / frames as f64;
    println!(
        "ring: {recvs} receive calls for {datagrams} datagrams ({ring_ratio:.2}); \
         session: {syscalls} syscalls for {frames} frames ({session_ratio:.2})"
    );
    assert!(
        ring_ratio < MAX_RING_RECVS_PER_DATAGRAM,
        "{ring_ratio:.2} receive calls per ring datagram: passes read sockets that were not ready"
    );
    assert!(
        session_ratio < MAX_SESSION_SYSCALLS_PER_FRAME,
        "{session_ratio:.2} session syscalls per frame: passes ingested an idle session socket"
    );
    drop(sender);
    for d in daemons {
        d.shutdown();
    }
}
