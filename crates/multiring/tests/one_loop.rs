//! A daemon is one thread: once `MultiRingDaemon::start_with` has taken
//! its ring nodes over, every node's bring-up thread is gone and each
//! daemon runs its R rings, engine and frontend in one loop.
//!
//! This file holds a single test on purpose: the count reads every
//! thread of the test process, so no other test may run beside it.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use accelring_core::{ProtocolConfig, RingIdx, Service};
use accelring_daemon::ClientEvent;
use accelring_membership::MembershipConfig;
use accelring_multiring::{MultiRingDaemon, MultiRingOptions, ShardMap};
use accelring_transport::{spawn_local_multiring, NodeHandle};
use bytes::Bytes;

const RINGS: u16 = 2;
const NODES: u16 = 3;

/// How many of this process's threads carry a name starting with
/// `prefix` (`/proc/self/task/*/comm`; the kernel keeps 15 bytes).
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

#[test]
fn a_daemon_with_two_rings_runs_one_thread() {
    let rings = spawn_local_multiring(
        RINGS,
        NODES,
        ProtocolConfig::default(),
        MembershipConfig::for_wall_clock(),
        &[],
    )
    .expect("rings stand up");
    // A thread names itself once it runs; a formed ring has run them all.
    let deadline = Instant::now() + Duration::from_secs(20);
    while !rings.iter().flatten().all(|n| n.rings_formed() > 0) {
        assert!(Instant::now() < deadline, "rings never formed");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        threads_named("accelring-"),
        usize::from(RINGS * NODES),
        "bring-up runs each node on its own thread"
    );

    let mut columns: Vec<Vec<NodeHandle>> = (0..NODES).map(|_| Vec::new()).collect();
    for ring in rings {
        for (i, node) in ring.into_iter().enumerate() {
            columns[i].push(node);
        }
    }
    let mut shards = ShardMap::new(RINGS);
    shards.assign("left", RingIdx::new(0));
    shards.assign("right", RingIdx::new(1));
    let daemons: Vec<MultiRingDaemon> = columns
        .into_iter()
        .map(|nodes| {
            MultiRingDaemon::start_with(nodes, shards.clone(), MultiRingOptions::default())
        })
        .collect();
    assert_eq!(
        threads_named("accelring-"),
        0,
        "no node thread survives the hand-over"
    );

    // The one loop orders on both rings: a message per ring reaches a
    // watcher at another daemon. Every token then passed through every
    // daemon's loop, so each daemon thread has run and named itself.
    let sender = daemons[0].connect("sender").expect("connect sender");
    let watcher = daemons[2].connect("watcher").expect("connect watcher");
    for group in ["left", "right"] {
        watcher.join(group).expect("join");
    }
    let mut views = 0;
    while views < 2 && Instant::now() < deadline {
        if let Ok(ClientEvent::View { .. }) =
            watcher.events().recv_timeout(Duration::from_millis(50))
        {
            views += 1;
        }
    }
    for group in ["left", "right"] {
        sender
            .multicast(&[group], Bytes::from(group), Service::Agreed)
            .expect("multicast");
    }
    let mut got = Vec::new();
    while got.len() < 2 && Instant::now() < deadline {
        if let Ok(ClientEvent::Message { payload, .. }) =
            watcher.events().recv_timeout(Duration::from_millis(50))
        {
            got.push(payload);
        }
    }
    got.sort();
    assert_eq!(got, vec![Bytes::from("left"), Bytes::from("right")]);
    assert_eq!(
        threads_named("multiring-daem"),
        daemons.len(),
        "one thread per daemon"
    );
    assert_eq!(threads_named("accelring-"), 0);

    for d in daemons {
        d.shutdown();
    }
}
