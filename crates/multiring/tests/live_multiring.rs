//! Live multi-ring smoke: two real localhost UDP rings of three daemons
//! each, an explicit shard map splitting two groups across them, and two
//! merged observers that must see the identical cross-ring total order —
//! through an idle ring (token-visit floors, also after the daemon with
//! participant id 0 died) and through a partition targeted at one ring
//! only. A graceful shutdown drains both rings before its clients are
//! disconnected, and the transport probes keep publishing membership
//! state while the pumps step the nodes. Two 1-ring checks pin the
//! tickless pump: an idle daemon barely wakes, and a dead ring node still
//! reaches its clients at once.
//!
//! These tests stand up real sockets and threads; run them
//! single-threaded (`--test-threads=1`) so concurrent rings do not
//! compete for CPU.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use accelring_core::{ProtocolConfig, RingIdx, Service};
use accelring_daemon::{ClientEvent, FrontendOptions};
use accelring_membership::{MembershipConfig, StateKind};
use accelring_multiring::{MultiRingClient, MultiRingDaemon, MultiRingOptions, ShardMap};
use accelring_transport::{
    spawn_local_multiring, FaultPlane, KillSwitch, NodeHandle, TransportProbe,
};
use bytes::Bytes;

const RINGS: u16 = 2;
const NODES: u16 = 3;

/// Shard map under test: over two rings "left" is ordered by ring 0 and
/// "right" by ring 1; a single ring orders everything.
fn shards(rings: u16) -> ShardMap {
    let mut map = ShardMap::new(rings);
    if rings > 1 {
        map.assign("left", RingIdx::new(0));
        map.assign("right", RingIdx::new(1));
    }
    map
}

/// Spawns `rings` rings of [`NODES`] nodes (optionally fault-planed per
/// ring) and one daemon per participant with `options`, plus each
/// daemon's ring-node kill switches (taken before the nodes move into
/// the pumps).
fn spawn(
    rings: u16,
    planes: &[Option<Arc<FaultPlane>>],
    options: MultiRingOptions,
) -> (Vec<KillSwitch>, Vec<MultiRingDaemon>) {
    let handles = spawn_local_multiring(
        rings,
        NODES,
        ProtocolConfig::default(),
        MembershipConfig::for_wall_clock(),
        planes,
    )
    .expect("rings stand up");
    // handles[ring][node] -> per-daemon columns: daemon i owns node i of
    // every ring.
    let mut columns: Vec<Vec<NodeHandle>> = (0..NODES).map(|_| Vec::new()).collect();
    for ring in handles {
        for (i, node) in ring.into_iter().enumerate() {
            columns[i].push(node);
        }
    }
    let kills = columns
        .iter()
        .flatten()
        .map(NodeHandle::killswitch)
        .collect();
    let daemons = columns
        .into_iter()
        .map(|nodes| MultiRingDaemon::start_with(nodes, shards(rings), options.clone()))
        .collect();
    (kills, daemons)
}

/// Blocks until `client` receives the membership view of `group` that
/// includes itself — the EVS contract: a join is effective (and later
/// sends are ordered after it everywhere) only once the view installing
/// it has been delivered.
fn await_view(client: &MultiRingClient, group: &str) {
    await_view_members(client, group, 1);
}

/// Like [`await_view`], but waits for a view of `group` with at least
/// `min_members` members — how a client observes that a partition has
/// healed and remote members are visible again.
fn await_view_members(client: &MultiRingClient, group: &str, min_members: usize) {
    await_view_where(client, group, &format!("{min_members}+ members"), |n| {
        n >= min_members
    });
}

/// Waits for a view of `group` whose size is at most `max_members` —
/// how a client on the minority side observes that a partition has
/// actually been detected and EVS pruned the unreachable members.
fn await_view_shrunk(client: &MultiRingClient, group: &str, max_members: usize) {
    await_view_where(client, group, &format!("<= {max_members} members"), |n| {
        n <= max_members
    });
}

fn await_view_where(
    client: &MultiRingClient,
    group: &str,
    what: &str,
    accept: impl Fn(usize) -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        match client.events().recv_timeout(Duration::from_millis(200)) {
            Ok(ClientEvent::View { group: g, members }) if g == group => {
                if accept(members.len()) {
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
        "client {} never saw a view for {group} with {what}",
        client.name()
    );
}

/// Drains `client` until `want` messages arrived (or the deadline
/// passes), returning the payloads in merged delivery order.
fn collect_messages(client: &MultiRingClient, want: usize, deadline: Duration) -> Vec<Bytes> {
    let start = Instant::now();
    let mut got = Vec::new();
    while got.len() < want && start.elapsed() < deadline {
        match client.events().recv_timeout(Duration::from_millis(200)) {
            Ok(ClientEvent::Message { payload, .. }) => got.push(payload),
            Ok(ClientEvent::Disconnected { reason }) => {
                panic!("client {} disconnected: {reason}", client.name())
            }
            Ok(_) => {}
            Err(_) => {}
        }
    }
    got
}

#[test]
fn merged_order_is_identical_at_two_live_observers() {
    let (_, daemons) = spawn(RINGS, &[], MultiRingOptions::default());

    // Two observers on different daemons, both subscribed to both groups
    // — their event streams cross the ring boundary.
    let obs_a = daemons[0].connect("obs-a").expect("connect");
    let obs_b = daemons[1].connect("obs-b").expect("connect");
    let sender = daemons[2].connect("sender").expect("connect");
    // One group at a time: the merge orders the two rings' views by
    // round, so awaiting "left" could consume a "right" view merged
    // before it.
    for group in ["left", "right"] {
        for c in [&obs_a, &obs_b] {
            c.join(group).expect("join");
        }
        for c in [&obs_a, &obs_b] {
            await_view(c, group);
        }
    }

    // Interleave submissions across the two rings.
    const PER_RING: usize = 12;
    for i in 0..PER_RING {
        sender
            .multicast(&["left"], Bytes::from(format!("L{i}")), Service::Agreed)
            .expect("send left");
        sender
            .multicast(&["right"], Bytes::from(format!("R{i}")), Service::Agreed)
            .expect("send right");
    }

    let want = 2 * PER_RING;
    let a = collect_messages(&obs_a, want, Duration::from_secs(20));
    let b = collect_messages(&obs_b, want, Duration::from_secs(20));
    assert_eq!(a.len(), want, "observer A saw {}/{want}", a.len());
    assert_eq!(a, b, "merged cross-ring orders diverge");

    for d in daemons {
        d.shutdown();
    }
}

#[test]
fn idle_ring_does_not_stall_the_merge() {
    let (_, daemons) = spawn(RINGS, &[], MultiRingOptions::default());

    let obs = daemons[1].connect("obs").expect("connect");
    for group in ["left", "right"] {
        obs.join(group).expect("join");
        await_view(&obs, group);
    }
    let sender = daemons[0].connect("sender").expect("connect");

    // Only ring 0 ("left") carries traffic, one message per ms for 2 s;
    // ring 1 stays idle and orders nothing. Only its token visits can
    // raise its merge floor, so only they can release ring 0's messages
    // within a few ms.
    const SENDS: usize = 2000;
    let start = Instant::now();
    let mut latencies = thread::scope(|s| {
        let sending = s.spawn(|| {
            let mut sent_at = Vec::with_capacity(SENDS);
            for i in 0..SENDS {
                let due = start + Duration::from_millis(i as u64);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    thread::sleep(wait);
                }
                sent_at.push(Instant::now());
                sender
                    .multicast(&["left"], Bytes::from(i.to_string()), Service::Agreed)
                    .expect("send");
            }
            sent_at
        });
        let mut released = vec![None; SENDS];
        let mut got = 0;
        while got < SENDS && start.elapsed() < Duration::from_secs(30) {
            match obs.events().recv_timeout(Duration::from_millis(200)) {
                Ok(ClientEvent::Message { payload, .. }) => {
                    let i: usize = std::str::from_utf8(&payload)
                        .expect("utf8")
                        .parse()
                        .expect("index");
                    released[i] = Some(Instant::now());
                    got += 1;
                }
                Ok(ClientEvent::Disconnected { reason }) => panic!("disconnected: {reason}"),
                Ok(_) | Err(_) => {}
            }
        }
        let sent_at = sending.join().expect("sender thread");
        assert_eq!(
            got, SENDS,
            "idle ring stalled the merge: released {got}/{SENDS}"
        );
        sent_at
            .into_iter()
            .zip(released)
            .map(|(sent, released)| released.expect("released") - sent)
            .collect::<Vec<Duration>>()
    });
    latencies.sort();
    let median = latencies[SENDS / 2];
    assert!(
        median < Duration::from_millis(5),
        "median release latency {median:?} behind an idle ring"
    );

    for d in daemons {
        d.shutdown();
    }
}

#[test]
fn merge_survives_the_death_of_participant_zero() {
    let (_, mut daemons) = spawn(RINGS, &[], MultiRingOptions::default());

    // A client on daemon 0 in both groups: its removal from the
    // observer's views shows that both rings reformed without daemon 0.
    let doomed = daemons[0].connect("doomed").expect("connect");
    let obs = daemons[2].connect("obs").expect("connect");
    for group in ["left", "right"] {
        for c in [&doomed, &obs] {
            c.join(group).expect("join");
        }
        await_view_members(&obs, group, 2);
    }
    let sender = daemons[1].connect("sender").expect("connect");

    daemons.remove(0).shutdown();
    // Both rings reform without daemon 0; their views may merge in either
    // order.
    let mut pruned = BTreeSet::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while pruned.len() < 2 && Instant::now() < deadline {
        if let Ok(ClientEvent::View { group, members }) =
            obs.events().recv_timeout(Duration::from_millis(200))
        {
            if members.len() == 1 {
                pruned.insert(group);
            }
        }
    }
    assert_eq!(pruned.len(), 2, "both rings reformed: {pruned:?}");

    // Ring 1 stays idle while ring 0 orders 50 messages: the survivors'
    // merge must not wait for an ordered tick from the dead daemon.
    const SENDS: usize = 50;
    for i in 0..SENDS {
        sender
            .multicast(&["left"], Bytes::from(format!("after{i}")), Service::Agreed)
            .expect("send");
    }
    let got = collect_messages(&obs, SENDS, Duration::from_secs(5));
    assert_eq!(
        got.len(),
        SENDS,
        "idle ring stalled the survivors' merge: released {}/{SENDS} in 5 s",
        got.len()
    );

    for d in daemons {
        d.shutdown();
    }
}

#[test]
fn partition_on_one_ring_only_stalls_that_ring_then_recovers() {
    // A fault plane on ring 1 only; ring 0 runs fault-free.
    let plane = FaultPlane::new(7);
    let planes = [None, Some(plane.clone())];
    let (_, daemons) = spawn(RINGS, &planes, MultiRingOptions::default());

    let obs_a = daemons[0].connect("obs-a").expect("connect");
    let obs_b = daemons[1].connect("obs-b").expect("connect");
    // The sender also joins "right": its view of that group is how the
    // test observes the partition healing (EVS prunes the observers
    // from the minority side's view, then restores them on heal).
    let sender = daemons[2].connect("sender").expect("connect");
    for c in [&obs_a, &obs_b] {
        c.join("left").expect("join left");
    }
    for c in [&obs_a, &obs_b] {
        await_view(c, "left");
    }
    for c in [&obs_a, &obs_b, &sender] {
        c.join("right").expect("join right");
    }
    for c in [&obs_a, &obs_b, &sender] {
        await_view_members(c, "right", 3);
    }

    // Partition ring 1 so the observers' daemons keep a majority
    // component {0,1} against the sender's {2}; ring 0 is untouched, so
    // "left" traffic keeps flowing while "right" reforms. The fault is
    // only provably in effect once EVS installs the shrunken views —
    // wait for the minority side's singleton view of "right" before
    // measuring (otherwise a fast test run could heal before the token
    // loss is even detected).
    plane.partition(&[vec![0, 1], vec![2]]);
    await_view_shrunk(&sender, "right", 1);
    for i in 0..6 {
        sender
            .multicast(&["left"], Bytes::from(format!("L{i}")), Service::Agreed)
            .expect("send left");
    }
    let during = collect_messages(&obs_a, 6, Duration::from_secs(20));
    assert_eq!(
        during.len(),
        6,
        "ring-0 traffic must survive a ring-1 partition, got {}/6",
        during.len()
    );

    // Heal. Sends ordered while the sender's ring-1 component is still
    // the minority singleton would (correctly, per EVS) reach nobody —
    // wait until the sender sees the healed three-member view of
    // "right" before measuring cross-ring traffic again.
    plane.heal();
    await_view_members(&sender, "right", 3);
    for i in 0..6 {
        sender
            .multicast(&["right"], Bytes::from(format!("R{i}")), Service::Agreed)
            .expect("send right");
        sender
            .multicast(&["left"], Bytes::from(format!("l{i}")), Service::Agreed)
            .expect("send left");
    }
    let a = collect_messages(&obs_a, 12, Duration::from_secs(30));
    let b_total = 6 + 12;
    let b = collect_messages(&obs_b, b_total, Duration::from_secs(30));
    assert_eq!(a.len(), 12, "post-heal sends missing at A: {}/12", a.len());
    assert_eq!(
        b.len(),
        b_total,
        "post-heal sends missing at B: {}/{b_total}",
        b.len()
    );
    // B saw the partition-era messages first; the tail must match A.
    assert_eq!(
        &b[b.len() - 12..],
        a.as_slice(),
        "post-heal merged orders diverge"
    );

    for d in daemons {
        d.shutdown();
    }
}

#[test]
fn graceful_shutdown_drains_both_rings_before_disconnecting() {
    let (_, mut daemons) = spawn(RINGS, &[], MultiRingOptions::default());

    // The leaver's client and a survivor's client share one group on
    // each ring (joined one ring at a time, so no view is skipped).
    let leaver = daemons[0].connect("leaver").expect("connect");
    let survivor = daemons[1].connect("survivor").expect("connect");
    for group in ["left", "right"] {
        for c in [&leaver, &survivor] {
            c.join(group).expect("join");
        }
        for c in [&leaver, &survivor] {
            await_view_members(c, group, 2);
        }
    }

    // Submit on both rings, then leave at once: the drain must carry
    // both messages around their rings and out of the merge to the
    // local client before its terminal event.
    for group in ["left", "right"] {
        let payload = Bytes::from(format!("parting {group}"));
        leaver
            .multicast(&[group], payload, Service::Agreed)
            .expect("send");
    }
    daemons.remove(0).shutdown_graceful(Duration::from_secs(5));
    let mut got = BTreeSet::new();
    loop {
        match leaver.events().recv_timeout(Duration::from_secs(5)) {
            Ok(ClientEvent::Message { payload, .. }) => {
                got.insert(payload);
            }
            Ok(ClientEvent::Disconnected { .. }) => break,
            Ok(_) => {}
            Err(e) => panic!("no Disconnected after the drain: {e:?}"),
        }
    }
    let want = BTreeSet::from([&b"parting left"[..], &b"parting right"[..]].map(Bytes::from));
    assert_eq!(got, want, "both rings' deliveries precede Disconnected");

    // Both rings' departure configurations prune the leaver's client
    // from the survivor's views.
    let mut pruned = BTreeSet::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while pruned.len() < 2 && Instant::now() < deadline {
        if let Ok(ClientEvent::View { group, members }) =
            survivor.events().recv_timeout(Duration::from_millis(200))
        {
            if members.len() == 1 {
                pruned.insert(group);
            }
        }
    }
    assert_eq!(pruned.len(), 2, "leaver pruned from both views: {pruned:?}");

    for d in daemons {
        d.shutdown();
    }
}

#[test]
fn probes_publish_membership_while_the_pumps_step_the_nodes() {
    let (_, mut daemons) = spawn(RINGS, &[], MultiRingOptions::default());
    let probes: Vec<Vec<TransportProbe>> = daemons
        .iter()
        .map(MultiRingDaemon::transport_probes)
        .collect();
    let deadline = Instant::now() + Duration::from_secs(20);
    while !probes
        .iter()
        .flatten()
        .all(|p| p.membership_state() == StateKind::Operational && p.rings_formed() >= 1)
    {
        assert!(Instant::now() < deadline, "rings never read operational");
        thread::sleep(Duration::from_millis(5));
    }
    let survivors_formed: Vec<u64> = probes[1..]
        .iter()
        .flatten()
        .map(TransportProbe::rings_formed)
        .collect();

    daemons.remove(0).shutdown_graceful(Duration::from_secs(2));
    let last: Vec<u64> = probes[0].iter().map(TransportProbe::ring_counter).collect();
    assert!(last.iter().all(|&c| c > 0), "a formed ring has a counter");

    // Only the survivors' pumps step their nodes now: their probes show
    // each ring reforming without the leaver.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !probes[1..]
        .iter()
        .flatten()
        .zip(&survivors_formed)
        .all(|(p, &before)| p.rings_formed() > before)
    {
        assert!(Instant::now() < deadline, "survivors never reformed");
        thread::sleep(Duration::from_millis(5));
    }
    let still: Vec<u64> = probes[0].iter().map(TransportProbe::ring_counter).collect();
    assert_eq!(still, last, "a stopped node keeps its final ring counter");

    for d in daemons {
        d.shutdown();
    }
}

#[test]
fn idle_daemon_does_not_wake_on_a_fixed_tick() {
    let options = MultiRingOptions {
        frontend: FrontendOptions::enabled(),
        ..MultiRingOptions::default()
    };
    let (_kills, daemons) = spawn(1, &[], options);
    // A view proves the ring is operational; afterwards nothing is due
    // and no client traffic moves.
    let clients: Vec<MultiRingClient> = daemons
        .iter()
        .enumerate()
        .map(|(i, d)| d.connect(&format!("idle-{i}")).expect("connect"))
        .collect();
    for c in &clients {
        c.join("g").expect("join");
    }
    for c in &clients {
        await_view_members(c, "g", NODES as usize);
    }
    std::thread::sleep(Duration::from_millis(100));

    let before: Vec<u64> = daemons.iter().map(|d| d.frontend_stats().wakeups).collect();
    std::thread::sleep(Duration::from_millis(500));
    for (i, d) in daemons.iter().enumerate() {
        let woke = d.frontend_stats().wakeups - before[i];
        assert!(
            woke < 150,
            "idle daemon {i} woke {woke} times in 500 ms with its session socket open"
        );
    }

    for d in daemons {
        d.shutdown();
    }
}

#[test]
fn killed_ring_node_of_an_idle_daemon_disconnects_its_client_promptly() {
    let (kills, daemons) = spawn(1, &[], MultiRingOptions::default());
    // An idle daemon has no deadline due: once its node is dead nothing
    // but the node's exit can wake it.
    let client = daemons[1].connect("orphan").expect("connect");
    client.join("g").expect("join");
    await_view(&client, "g");
    std::thread::sleep(Duration::from_millis(100));
    while client.events().try_recv().is_ok() {}

    let t0 = Instant::now();
    kills[1].kill();
    let mut disconnected = None;
    while disconnected.is_none() && t0.elapsed() < Duration::from_secs(5) {
        if let Ok(ClientEvent::Disconnected { .. }) =
            client.events().recv_timeout(Duration::from_millis(50))
        {
            disconnected = Some(t0.elapsed());
        }
    }
    let took = disconnected.expect("client of a dead ring node must receive Disconnected");
    assert!(
        took < Duration::from_millis(500),
        "Disconnected took {took:?} after the ring node died"
    );

    for d in daemons {
        d.shutdown();
    }
}
