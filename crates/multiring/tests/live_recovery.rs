//! Crash recovery on live localhost UDP rings: restart storms, and the
//! ordered catch-up — every member orders its shard map and its dedup
//! watermarks after each regular configuration — that lets a rejoined
//! daemon serve without double-delivering or routing from a stale map.
//!
//! Six scenarios: a seeded restart-storm schedule under steady traffic
//! (every surviving observer sees one identical, gap-free,
//! duplicate-free order, and the rejoiners catch up on the survivors'
//! map and watermarks); a manual storm with map churn, checked against
//! the chaos crate's recovery invariants (no stale-map serving, no
//! dedup-watermark regression — the latter is the regression test for
//! the dedup carry-forward across a same-port rebind); a rejoiner
//! catching up on a watermark table far larger than one datagram; the
//! lowest pid rejoining after a migration; and a remote
//! [`SessionClient`] resuming across its daemon's restart, with a
//! deliberate duplicate retransmission that the recovered watermark
//! must suppress; and a HELLO that reaches a restarted daemon while its
//! gate is closed, welcomed once the gate opens without being resent.
//!
//! Real sockets and threads; run with `--test-threads=1`.

use std::collections::{BTreeMap, BTreeSet};
use std::net::UdpSocket;
use std::time::{Duration, Instant};

use accelring_chaos::churn::{
    check_churn_handoff, check_recovery, ChurnConfig, ChurnKind, ChurnSchedule, RecoveryReport,
};
use accelring_chaos::MsgId;
use accelring_core::{Backoff, RingIdx, Service};
use accelring_daemon::packing::seqs_payloads;
use accelring_daemon::proto::{decode_session_frame, encode_session_frame, SessionFrame};
use accelring_daemon::{ClientEvent, FrontendOptions, SessionClient};
use accelring_multiring::{ChurnCluster, MultiRingClient, MultiRingOptions, ShardMap};
use bytes::Bytes;

const RINGS: u16 = 2;
const HOT_SENDER: u16 = 99;

/// "hot" starts on ring 0 and "cold" pins ring 1, so migrations have a
/// non-idle target and the shard map starts versioned.
fn shards() -> ShardMap {
    let mut map = ShardMap::new(RINGS);
    map.assign("hot", RingIdx::new(0));
    map.assign("cold", RingIdx::new(1));
    map
}

/// Session socket on, so a restarted daemon's serving gate also turns
/// remote clients away until it has caught up.
fn options() -> MultiRingOptions {
    MultiRingOptions {
        frontend: FrontendOptions::enabled(),
        ..MultiRingOptions::default()
    }
}

fn await_view_members(client: &MultiRingClient, group: &str, min_members: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        match client.events().recv_timeout(Duration::from_millis(200)) {
            Ok(ClientEvent::View { group: g, members }) if g == group => {
                if members.len() >= min_members {
                    return;
                }
            }
            Ok(ClientEvent::Disconnected { reason }) => {
                panic!("client {} disconnected: {reason}", client.name())
            }
            Ok(_) | Err(_) => {}
        }
    }
    panic!(
        "client {} never saw a view for {group} with {min_members}+ members",
        client.name()
    );
}

fn send_id(sender: &MultiRingClient, id: MsgId) {
    let mut backoff = Backoff::new(
        Duration::from_millis(10),
        Duration::from_millis(200),
        id.counter,
    );
    loop {
        match sender.multicast_sequenced(&["hot"], Bytes::from(id.payload()), Service::Agreed) {
            Ok(_) => return,
            Err(e) if backoff.attempts() >= 20 => panic!("send {id} failed for good: {e}"),
            Err(_) => std::thread::sleep(backoff.next_delay()),
        }
    }
}

fn collect_ids(client: &MultiRingClient, want: usize, deadline: Duration) -> Vec<MsgId> {
    let start = Instant::now();
    let mut got = Vec::new();
    while got.len() < want && start.elapsed() < deadline {
        match client.events().recv_timeout(Duration::from_millis(200)) {
            Ok(ClientEvent::Message { payload, .. }) => {
                if let Some(id) = MsgId::parse(&payload) {
                    got.push(id);
                }
            }
            Ok(ClientEvent::Disconnected { reason }) => {
                panic!("client {} disconnected: {reason}", client.name())
            }
            Ok(_) | Err(_) => {}
        }
    }
    got
}

/// Polls until daemon `d` holds, on every ring, at least each dedup
/// watermark daemon `survivor` holds; panics past `deadline`.
fn await_watermarks(cluster: &ChurnCluster, d: u16, survivor: u16, deadline: Duration) {
    let start = Instant::now();
    loop {
        let want = cluster.daemon(survivor).export_seqs().expect("survivor up");
        let have = cluster.daemon(d).export_seqs().expect("daemon up");
        let mut missing = Vec::new();
        for (ring, (want, have)) in want.iter().zip(&have).enumerate() {
            let held: BTreeMap<&String, u64> = have.iter().map(|(n, s)| (n, *s)).collect();
            for (name, seq) in want {
                if held.get(name).is_none_or(|h| h < seq) {
                    missing.push((ring, name.clone(), *seq));
                }
            }
        }
        if missing.is_empty() {
            return;
        }
        assert!(
            start.elapsed() < deadline,
            "daemon {d} lacks {} of daemon {survivor}'s watermarks, e.g. {:?}",
            missing.len(),
            &missing[..missing.len().min(3)]
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Polls until daemon `d`'s serving gate opens and its shard map reaches
/// at least `want_version`, returning the final inspect snapshot.
fn await_converged(
    cluster: &ChurnCluster,
    d: u16,
    want_version: u64,
    deadline: Duration,
) -> accelring_multiring::DaemonInspect {
    let start = Instant::now();
    let mut last = cluster.daemon(d).inspect().expect("daemon up");
    while start.elapsed() < deadline {
        last = cluster.daemon(d).inspect().expect("daemon up");
        if !last.catching_up && last.map_version >= want_version {
            return last;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    last
}

#[test]
fn restart_storm_keeps_the_merged_order_gap_free_and_exactly_once() {
    const NODES: u16 = 4;
    let seed = 17;
    let mut cluster = ChurnCluster::start(RINGS, NODES, seed, shards(), options()).expect("up");

    // Durable clients on daemon 0, which storms never cycle.
    let obs_a = cluster.daemon(0).connect("obs-a").expect("connect");
    let obs_b = cluster.daemon(0).connect("obs-b").expect("connect");
    let sender = cluster.daemon(0).connect("src").expect("connect");
    for c in [&obs_a, &obs_b] {
        c.join("hot").expect("join hot");
    }
    for c in [&obs_a, &obs_b] {
        await_view_members(c, "hot", 2);
    }

    // Two correlated crashes of two daemons each, under steady traffic.
    let cfg = ChurnConfig {
        rings: RINGS,
        nodes: NODES,
        groups: vec!["hot".to_string(), "cold".to_string()],
        events: 2,
        min_gap: Duration::from_millis(700),
        max_gap: Duration::from_millis(1200),
        warmup: Duration::from_millis(400),
    };
    let schedule = ChurnSchedule::restart_storm(seed, &cfg, 2);
    let victims: BTreeSet<u16> = schedule
        .events
        .iter()
        .flat_map(|e| match &e.kind {
            ChurnKind::RestartStorm { daemons, .. } => daemons.clone(),
            _ => Vec::new(),
        })
        .collect();
    let last_event = schedule.events.last().expect("non-empty").at;

    let mut sent: BTreeSet<MsgId> = BTreeSet::new();
    let mut fired = 0;
    let start = Instant::now();
    let mut counter = 0;
    while start.elapsed() < last_event + Duration::from_millis(600) || counter < 20 {
        let id = MsgId {
            sender: HOT_SENDER,
            counter,
        };
        send_id(&sender, id);
        sent.insert(id);
        counter += 1;
        cluster
            .apply_due(&schedule, start, &mut fired)
            .expect("storm applies");
        std::thread::sleep(Duration::from_millis(40));
    }
    while fired < schedule.events.len() {
        cluster
            .apply_due(&schedule, start, &mut fired)
            .expect("storm applies");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Every storm victim's final incarnation opens its serving gate on
    // the survivor's shard map.
    let map = cluster.daemon(0).inspect().expect("daemon up").map_version;
    for d in &victims {
        let ins = await_converged(&cluster, *d, map, Duration::from_secs(15));
        assert!(
            !ins.catching_up && ins.map_version >= map,
            "seed {seed}: daemon {d} never caught up: {ins:?}"
        );
    }

    let want = sent.len();
    let a = collect_ids(&obs_a, want, Duration::from_secs(40));
    let b = collect_ids(&obs_b, want, Duration::from_secs(40));
    let violations = check_churn_handoff(&sent, &[(0, a), (1, b)]);
    assert!(
        violations.is_empty(),
        "seed {seed}: storm violations:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // With the traffic landed, each rejoiner holds every watermark the
    // survivor holds.
    for d in &victims {
        await_watermarks(&cluster, *d, 0, Duration::from_secs(10));
    }

    cluster.shutdown();
}

#[test]
fn restart_storm_recovery_invariants_hold_after_map_churn() {
    const NODES: u16 = 3;
    let seed = 29;
    let mut cluster = ChurnCluster::start(RINGS, NODES, seed, shards(), options()).expect("up");

    let observer = cluster.daemon(0).connect("obs").expect("connect");
    let sender = cluster.daemon(1).connect("src").expect("connect");
    observer.join("hot").expect("join hot");
    await_view_members(&observer, "hot", 1);

    // Ten sequenced sends through daemon 1 set its dedup watermark.
    let mut sent: BTreeSet<MsgId> = BTreeSet::new();
    for counter in 0..10 {
        let id = MsgId {
            sender: HOT_SENDER,
            counter,
        };
        send_id(&sender, id);
        sent.insert(id);
    }
    assert_eq!(
        collect_ids(&observer, 10, Duration::from_secs(30)).len(),
        10,
        "workload must land before the storm"
    );

    // Migrate "hot" so the live map moves past what restarted daemons
    // are (deliberately) reborn with — the stale-map injection.
    cluster
        .daemon(0)
        .migrate("hot", RingIdx::new(1))
        .expect("migrate accepted");
    let commit_deadline = Instant::now() + Duration::from_secs(20);
    let inspect = || cluster.daemon(0).inspect().expect("daemon up");
    while inspect().migrations.committed < 1 {
        assert!(
            Instant::now() < commit_deadline,
            "seed {seed}: migration never committed"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Correlated storm: daemons 1 and 2 die together; only daemon 0
    // survives as a catch-up source.
    let seqs_before: Vec<(u16, _)> = [1u16, 2]
        .iter()
        .map(|d| (*d, cluster.daemon(*d).export_seqs().expect("daemon up")))
        .collect();
    cluster.stop_daemon(1);
    cluster.stop_daemon(2);
    std::thread::sleep(Duration::from_millis(400));
    cluster.restart_daemon(1).expect("daemon 1 rebinds");
    cluster.restart_daemon(2).expect("daemon 2 rebinds");
    let map_before = cluster.daemon(0).inspect().expect("daemon up").map_version;

    let mut reports = Vec::new();
    for (d, before) in seqs_before {
        let ins = await_converged(&cluster, d, map_before, Duration::from_secs(20));
        reports.push(RecoveryReport {
            daemon: d,
            map_before,
            map_after: ins.map_version,
            seqs_before: before,
            seqs_after: cluster.daemon(d).export_seqs().expect("daemon up"),
        });
    }
    let violations = check_recovery(&reports);
    assert!(
        violations.is_empty(),
        "seed {seed}: recovery violations:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );

    // The direct regression for the dedup carry-forward: the reborn
    // daemon 1 still holds src's watermark even though no client has
    // spoken to it since the rebind.
    let carried = cluster.daemon(1).export_seqs().expect("daemon up");
    assert!(
        carried
            .iter()
            .flatten()
            .any(|(client, seq)| client == "src" && *seq >= 10),
        "seed {seed}: daemon 1 lost src's dedup watermark across the restart: {carried:?}"
    );
    // And the ordered catch-up engaged: each rejoiner spent time gated
    // and holds every watermark of the survivor.
    for d in [1u16, 2] {
        let recovery = cluster.daemon(d).inspect().expect("daemon up").recovery;
        assert!(
            recovery.catchup_wait > Duration::ZERO,
            "seed {seed}: daemon {d} rejoined without a gated catch-up window"
        );
        await_watermarks(&cluster, d, 0, Duration::from_secs(10));
    }

    cluster.shutdown();
}

#[test]
fn rejoiner_catches_up_on_watermarks_larger_than_a_datagram() {
    const NODES: u16 = 3;
    const CLIENTS: usize = 1_000;
    let seed = 41;
    let mut cluster = ChurnCluster::start(RINGS, NODES, seed, shards(), options()).expect("up");
    let watcher = cluster.daemon(0).connect("watch-0").expect("connect");
    watcher.join("hot").expect("join hot");
    await_view_members(&watcher, "hot", 1);

    // Down for longer than the token-loss timeout: the survivors reform
    // without daemon 2 before anything below is ordered.
    cluster.stop_daemon(2);
    std::thread::sleep(Duration::from_millis(1_500));

    // A thousand clients with 64-byte names order one sequenced message
    // each. Daemon 2's seed, captured at its stop, holds none of these
    // watermarks; its ring 0 table alone is 74 KB, more than a datagram.
    let names: Vec<String> = (0..CLIENTS).map(|i| format!("{i:0>64}")).collect();
    let mut clients = Vec::with_capacity(CLIENTS);
    for (i, name) in names.iter().enumerate() {
        let client = cluster.daemon(i as u16 % 2).connect(name).expect("connect");
        send_id(
            &client,
            MsgId {
                sender: HOT_SENDER,
                counter: i as u64,
            },
        );
        clients.push(client);
    }
    assert_eq!(
        collect_ids(&watcher, CLIENTS, Duration::from_secs(60)).len(),
        CLIENTS,
        "seed {seed}: the workload must land before the restart"
    );

    cluster.restart_daemon(2).expect("daemon 2 rebinds");
    let restarted = Instant::now();
    while cluster.daemon(2).inspect().expect("daemon up").catching_up {
        assert!(
            restarted.elapsed() < Duration::from_secs(2),
            "seed {seed}: daemon 2's gate is still closed"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let gate = restarted.elapsed();
    // The gate opens only once the peers' last watermark parts were
    // delivered, so the table is whole at that moment.
    let ring0 = cluster
        .daemon(2)
        .export_seqs()
        .expect("daemon up")
        .remove(0);
    let held: BTreeMap<&String, u64> = ring0.iter().map(|(n, s)| (n, *s)).collect();
    let missing = names.iter().filter(|n| held.get(n) != Some(&1)).count();
    assert_eq!(missing, 0, "seed {seed}: watermarks missing on ring 0");
    let announced: usize = seqs_payloads(&ring0, 48 * 1024)
        .iter()
        .map(|p| p.len())
        .sum();
    eprintln!(
        "seed {seed}: gate open {gate:?} after the restart; each member's ring-0 \
         announcement is {announced} B"
    );

    // A client in doubt resubmits one of those messages through the
    // rejoiner. A marker the rejoiner orders after it, on the same ring,
    // bounds the wait.
    let watch2 = cluster.daemon(2).connect("watch-2").expect("connect");
    watch2.join("hot").expect("join hot");
    await_view_members(&watch2, "hot", 2);
    let doubt = cluster
        .daemon(2)
        .connect_session(&names[7], 0)
        .expect("connect");
    let dup = MsgId {
        sender: HOT_SENDER,
        counter: 7,
    };
    doubt
        .resubmit(1, &["hot"], Bytes::from(dup.payload()), Service::Agreed)
        .expect("resubmit");
    let marker = MsgId {
        sender: HOT_SENDER,
        counter: CLIENTS as u64,
    };
    send_id(
        &cluster.daemon(2).connect("marker").expect("connect"),
        marker,
    );
    let mut seen = Vec::new();
    while !seen.contains(&marker) {
        let got = collect_ids(&watch2, 1, Duration::from_secs(30));
        assert!(!got.is_empty(), "seed {seed}: the marker never arrived");
        seen.extend(got);
    }
    assert!(
        !seen.contains(&dup),
        "seed {seed}: the resubmission reached a watcher on the rejoiner"
    );
    assert!(
        cluster
            .daemon(2)
            .inspect()
            .expect("daemon up")
            .duplicates_dropped
            >= 1
    );

    cluster.shutdown();
}

#[test]
fn lowest_pid_rejoiner_reaches_the_survivors_map_and_watermarks() {
    const NODES: u16 = 3;
    let seed = 43;
    let mut cluster = ChurnCluster::start(RINGS, NODES, seed, shards(), options()).expect("up");
    let observer = cluster.daemon(1).connect("obs").expect("connect");
    let sender = cluster.daemon(1).connect("src").expect("connect");
    observer.join("hot").expect("join hot");
    await_view_members(&observer, "hot", 1);
    let send = |range: std::ops::Range<u64>| {
        let n = (range.end - range.start) as usize;
        for counter in range {
            send_id(
                &sender,
                MsgId {
                    sender: HOT_SENDER,
                    counter,
                },
            );
        }
        assert_eq!(
            collect_ids(&observer, n, Duration::from_secs(30)).len(),
            n,
            "seed {seed}: traffic must land"
        );
    };
    send(0..5);

    // The migration moves the live map past what daemon 0 is reborn with.
    cluster
        .daemon(1)
        .migrate("hot", RingIdx::new(1))
        .expect("migrate accepted");
    let commit_deadline = Instant::now() + Duration::from_secs(20);
    while cluster
        .daemon(1)
        .inspect()
        .expect("up")
        .migrations
        .committed
        < 1
    {
        assert!(
            Instant::now() < commit_deadline,
            "seed {seed}: migration never committed"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The lowest pid goes down past the token-loss timeout, and the
    // watermarks move on without it.
    cluster.stop_daemon(0);
    std::thread::sleep(Duration::from_millis(1_500));
    send(5..10);
    cluster.restart_daemon(0).expect("daemon 0 rebinds");

    let map = cluster.daemon(1).inspect().expect("daemon up").map_version;
    let ins = await_converged(&cluster, 0, map, Duration::from_secs(20));
    assert!(
        !ins.catching_up && ins.map_version == map,
        "seed {seed}: daemon 0 never reached map {map}: {ins:?}"
    );
    await_watermarks(&cluster, 0, 1, Duration::from_secs(10));

    cluster.shutdown();
}

#[test]
fn session_client_resumes_across_daemon_restart_exactly_once() {
    const NODES: u16 = 3;
    let seed = 31;
    let mut cluster = ChurnCluster::start(RINGS, NODES, seed, shards(), options()).expect("up");

    let watcher = cluster.daemon(0).connect("watch").expect("connect");
    watcher.join("hot").expect("join hot");
    await_view_members(&watcher, "hot", 1);

    let addr = cluster.daemon(2).session_addr().expect("session socket");
    let mut roam = SessionClient::connect(addr, "roam").expect("connect roam");
    let mut sent: BTreeSet<MsgId> = BTreeSet::new();
    for counter in 0..5 {
        let id = MsgId {
            sender: HOT_SENDER,
            counter,
        };
        roam.multicast_sequenced(&["hot"], Bytes::from(id.payload()), Service::Agreed)
            .expect("send");
        sent.insert(id);
    }
    let first = collect_ids(&watcher, 5, Duration::from_secs(30));
    assert_eq!(first.len(), 5, "pre-restart sends must land");
    let watermark = roam.last_seq();

    // Cycle the daemon the session lives on. The restarted incarnation
    // binds a *new* ephemeral session port, so resuming means asking
    // the cluster for the address again.
    cluster.stop_daemon(2);
    std::thread::sleep(Duration::from_millis(300));
    cluster.restart_daemon(2).expect("daemon 2 rebinds");
    let new_addr = cluster.daemon(2).session_addr().expect("session socket");

    // Reconnect with the session watermark. A HELLO sent while the
    // daemon is still catching up is parked (not refused) and answered
    // when the gate opens; retry the whole connect in case the gate
    // outlasts the client's own HELLO retries.
    let deadline = Instant::now() + Duration::from_secs(15);
    let roam = loop {
        match SessionClient::connect_session(new_addr, "roam", watermark) {
            Ok(c) => break c,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "seed {seed}: roam could not resume: {e}"
                );
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    };

    // An in-doubt retransmission: seq 5 was already ordered before the
    // crash, and the recovered watermark must suppress it — without the
    // carry-forward this delivers twice.
    let dup = MsgId {
        sender: HOT_SENDER,
        counter: 4,
    };
    roam.resubmit(
        watermark,
        &["hot"],
        Bytes::from(dup.payload()),
        Service::Agreed,
    )
    .expect("resubmit");
    let mut roam = roam;
    for counter in 5..10 {
        let id = MsgId {
            sender: HOT_SENDER,
            counter,
        };
        roam.multicast_sequenced(&["hot"], Bytes::from(id.payload()), Service::Agreed)
            .expect("send");
        sent.insert(id);
    }

    // The watcher's full stream is the pre-restart batch already
    // drained plus everything after the resume.
    let mut got = first;
    let want = sent.len() - got.len();
    got.extend(collect_ids(&watcher, want, Duration::from_secs(40)));
    let violations = check_churn_handoff(&sent, &[(0, got)]);
    assert!(
        violations.is_empty(),
        "seed {seed}: resume violations:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );

    roam.bye();
    cluster.shutdown();
}

#[test]
fn a_hello_sent_while_gated_is_welcomed_when_the_gate_opens() {
    const NODES: u16 = 3;
    let seed = 47;
    let mut cluster = ChurnCluster::start(RINGS, NODES, seed, shards(), options()).expect("up");
    let watcher = cluster.daemon(0).connect("watch").expect("connect");
    watcher.join("hot").expect("join hot");
    await_view_members(&watcher, "hot", 1);

    cluster.stop_daemon(2);
    std::thread::sleep(Duration::from_millis(300));
    // Ring 1 cannot readmit daemon 2 while its links there are cut, so
    // the restarted daemon's gate stays closed until they return.
    cluster.plane(1).isolate(2);
    cluster.restart_daemon(2).expect("daemon 2 rebinds");
    let addr = cluster.daemon(2).session_addr().expect("session socket");
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
    let nonce = 0x5eed;
    let hello = encode_session_frame(&SessionFrame::Hello {
        name: "parked".to_string(),
        resume_seq: 0,
        nonce,
    });
    socket.send_to(&hello, addr).expect("send the one HELLO");
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        cluster.daemon(2).inspect().expect("daemon up").catching_up,
        "seed {seed}: the gate opened while ring 1 was cut off"
    );
    cluster.plane(1).reconnect(2);
    let reconnected = Instant::now();

    socket
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("read timeout");
    let mut buf = [0u8; 2048];
    loop {
        assert!(
            reconnected.elapsed() < Duration::from_secs(5),
            "seed {seed}: the HELLO sent while gated was never welcomed"
        );
        let Ok((len, _)) = socket.recv_from(&mut buf) else {
            continue;
        };
        let mut frame = Bytes::copy_from_slice(&buf[..len]);
        if let Ok(SessionFrame::Welcome { nonce: n, .. }) = decode_session_frame(&mut frame) {
            if n == nonce {
                break;
            }
        }
    }
    let ins = cluster.daemon(2).inspect().expect("daemon up");
    assert!(
        !ins.catching_up,
        "seed {seed}: welcomed behind a closed gate"
    );
    eprintln!(
        "seed {seed}: WELCOME {:?} after ring 1 reconnected",
        reconnected.elapsed()
    );
    cluster.shutdown();
}
