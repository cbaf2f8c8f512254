//! The remote session path end to end: real UDP rings, real session
//! socket, [`SessionClient`]s speaking the framed wire protocol to the
//! reactor frontend of [`MultiRingDaemon`] — joins, ordered delivery,
//! credit-driven event flow, reconnect-with-resume, exactly-once
//! resubmits, and (over two rings) submissions sharded across rings with
//! events delivered in the merged cross-ring total order.
//!
//! The tests serialize themselves through a file-local mutex: real
//! sockets, real timers, and concurrent rings skew each other's clocks.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use accelring_core::{ProtocolConfig, RingIdx, Service};
use accelring_daemon::{ClientEvent, FrontendOptions, SessionClient};
use accelring_membership::MembershipConfig;
use accelring_multiring::{MultiRingDaemon, MultiRingOptions, ShardMap};
use accelring_transport::spawn_local_multiring;
use bytes::Bytes;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Hash placement on one ring; over two, "left" is pinned to ring 0 and
/// "right" to ring 1.
fn shards(rings: u16) -> ShardMap {
    let mut map = ShardMap::new(rings);
    if rings > 1 {
        map.assign("left", RingIdx::new(0));
        map.assign("right", RingIdx::new(1));
    }
    map
}

/// `nodes` daemons over `rings` localhost rings, session socket open:
/// daemon i owns node i of every ring.
fn spawn_daemons(rings: u16, nodes: u16) -> Vec<MultiRingDaemon> {
    let handles = spawn_local_multiring(
        rings,
        nodes,
        ProtocolConfig::default(),
        MembershipConfig::for_wall_clock(),
        &[],
    )
    .expect("rings stand up");
    let mut columns: Vec<Vec<_>> = (0..nodes).map(|_| Vec::new()).collect();
    for ring in handles {
        for (i, node) in ring.into_iter().enumerate() {
            columns[i].push(node);
        }
    }
    let options = MultiRingOptions {
        frontend: FrontendOptions::enabled(),
        ..MultiRingOptions::default()
    };
    columns
        .into_iter()
        .map(|nodes| MultiRingDaemon::start_with(nodes, shards(rings), options.clone()))
        .collect()
}

/// Waits until the client sees a view of `group` with exactly `n`
/// members, draining other events along the way.
fn await_view(client: &mut SessionClient, group: &str, n: usize, deadline: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if let Ok(Some(ClientEvent::View { group: g, members })) =
            client.recv_event(Duration::from_millis(50))
        {
            if g == group && members.len() == n {
                return true;
            }
        }
    }
    false
}

/// Collects message payloads until `deadline`, stopping early after
/// `want` payloads (0 = drain the whole window).
fn collect_payloads(client: &mut SessionClient, want: usize, deadline: Duration) -> Vec<Bytes> {
    let start = Instant::now();
    let mut got = Vec::new();
    while start.elapsed() < deadline && (want == 0 || got.len() < want) {
        if let Ok(Some(ClientEvent::Message { payload, .. })) =
            client.recv_event(Duration::from_millis(50))
        {
            got.push(payload);
        }
    }
    got
}

#[test]
fn remote_clients_multicast_and_receive_in_order() {
    let _serial = serial();
    let daemons = spawn_daemons(1, 2);
    let addr0 = daemons[0].session_addr().expect("session socket");
    let addr1 = daemons[1].session_addr().expect("session socket");

    let mut alice = SessionClient::connect(addr0, "alice").expect("connect alice");
    let mut bob = SessionClient::connect(addr1, "bob").expect("connect bob");
    alice.join("chat").expect("alice joins");
    bob.join("chat").expect("bob joins");
    assert!(
        await_view(&mut alice, "chat", 2, Duration::from_secs(15)),
        "alice must see the two-member view"
    );
    assert!(
        await_view(&mut bob, "chat", 2, Duration::from_secs(15)),
        "bob must see the two-member view"
    );

    for k in 0..10u32 {
        alice
            .multicast(&["chat"], Bytes::from(format!("m{k}")), Service::Agreed)
            .expect("submit");
    }
    let got = collect_payloads(&mut bob, 10, Duration::from_secs(15));
    let want: Vec<Bytes> = (0..10u32).map(|k| Bytes::from(format!("m{k}"))).collect();
    assert_eq!(got, want, "remote delivery must be complete and in order");

    let fs = daemons[0].frontend_stats();
    assert!(fs.sessions_peak >= 1, "frontend must have served alice");
    assert!(fs.submits >= 11, "joins and multicasts all ride SUBMIT");
    alice.bye();
    bob.bye();
}

#[test]
fn remote_reconnect_and_resubmit_is_exactly_once() {
    let _serial = serial();
    let daemons = spawn_daemons(1, 2);
    let addr0 = daemons[0].session_addr().expect("session socket");
    let addr1 = daemons[1].session_addr().expect("session socket");

    let mut sender = SessionClient::connect(addr0, "sender").expect("connect sender");
    let mut watcher = SessionClient::connect(addr1, "watcher").expect("connect watcher");
    sender.join("g").expect("join");
    watcher.join("g").expect("join");
    assert!(await_view(&mut watcher, "g", 2, Duration::from_secs(15)));

    let seq = sender
        .multicast_sequenced(&["g"], Bytes::from_static(b"in-doubt"), Service::Agreed)
        .expect("sequenced submit");
    let first = collect_payloads(&mut watcher, 1, Duration::from_secs(15));
    assert_eq!(first, vec![Bytes::from_static(b"in-doubt")]);

    // The client loses its daemon connection with the message's fate
    // unknown: reconnect to the *other* daemon resuming the session, and
    // resubmit. The ring-wide session dedup must suppress the copy.
    drop(sender);
    let mut resumed =
        SessionClient::connect_session(addr1, "sender", seq).expect("resume elsewhere");
    resumed
        .resubmit(
            seq,
            &["g"],
            Bytes::from_static(b"in-doubt"),
            Service::Agreed,
        )
        .expect("resubmit");
    resumed
        .multicast_sequenced(&["g"], Bytes::from_static(b"after-resume"), Service::Agreed)
        .expect("fresh submit");

    let after = collect_payloads(&mut watcher, 2, Duration::from_secs(10));
    assert_eq!(
        after,
        vec![Bytes::from_static(b"after-resume")],
        "resubmitted message must be suppressed, new message delivered"
    );
    resumed.bye();
    watcher.bye();
}

#[test]
fn supersede_moves_a_live_session_to_a_new_socket() {
    let _serial = serial();
    let daemons = spawn_daemons(1, 1);
    let addr = daemons[0].session_addr().expect("session socket");

    let mut old = SessionClient::connect(addr, "mover").expect("connect");
    old.join("room").expect("join");
    assert!(await_view(&mut old, "room", 1, Duration::from_secs(15)));

    // Reconnect under the same name without saying BYE: the frontend
    // supersedes the old incarnation in place and the engine-side client
    // (and its membership) must survive.
    let mut fresh =
        SessionClient::connect_session(addr, "mover", old.last_seq()).expect("supersede");
    fresh
        .multicast(&["room"], Bytes::from_static(b"still me"), Service::Agreed)
        .expect("submit on the new socket");
    let got = collect_payloads(&mut fresh, 1, Duration::from_secs(15));
    assert_eq!(
        got,
        vec![Bytes::from_static(b"still me")],
        "membership survives the supersede, so the self-delivery arrives"
    );
    assert!(
        daemons[0].frontend_stats().resumes >= 1,
        "the supersede must be counted as a resume"
    );
    fresh.bye();
}

#[test]
fn remote_sessions_span_rings_through_one_frontend() {
    let _serial = serial();
    let daemons = spawn_daemons(2, 2);
    let addr0 = daemons[0].session_addr().expect("session socket");
    let addr1 = daemons[1].session_addr().expect("session socket");

    // Remote sender on daemon 0, remote watcher on daemon 1; the watcher
    // subscribes to groups sharded onto *different* rings, so its event
    // stream is the deterministic cross-ring merge.
    let sender = SessionClient::connect(addr0, "sender").expect("connect sender");
    let mut watcher = SessionClient::connect(addr1, "watcher").expect("connect watcher");
    watcher.join("left").expect("join left");
    watcher.join("right").expect("join right");
    sender.join("left").expect("join left");
    assert!(
        await_view(&mut watcher, "left", 2, Duration::from_secs(20)),
        "watcher must see sender in the left view"
    );

    for k in 0..5u32 {
        sender
            .multicast(&["left"], Bytes::from(format!("l{k}")), Service::Agreed)
            .expect("submit left");
        sender
            .multicast(&["right"], Bytes::from(format!("r{k}")), Service::Agreed)
            .expect("submit right (open-group: sender is not a member)");
    }
    let got = collect_payloads(&mut watcher, 10, Duration::from_secs(20));
    assert_eq!(got.len(), 10, "all ten messages arrive: {got:?}");
    // Per-ring FIFO survives the merge even if the rings interleave.
    let lefts: Vec<&Bytes> = got.iter().filter(|p| p.starts_with(b"l")).collect();
    let rights: Vec<&Bytes> = got.iter().filter(|p| p.starts_with(b"r")).collect();
    assert_eq!(
        lefts.iter().map(|p| p.as_ref()).collect::<Vec<_>>(),
        (0..5u32)
            .map(|k| format!("l{k}").into_bytes())
            .collect::<Vec<_>>(),
        "left-ring messages stay ordered"
    );
    assert_eq!(
        rights.iter().map(|p| p.as_ref()).collect::<Vec<_>>(),
        (0..5u32)
            .map(|k| format!("r{k}").into_bytes())
            .collect::<Vec<_>>(),
        "right-ring messages stay ordered"
    );

    let fs = daemons[0].frontend_stats();
    assert!(fs.sessions_peak >= 1, "frontend served the remote sender");
    assert!(fs.submits >= 11, "joins and multicasts all ride SUBMIT");
    sender.bye();
    watcher.bye();
}
