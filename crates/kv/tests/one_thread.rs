//! A KV daemon is one thread: the replica runs in its daemon's loop, so
//! a deployment with a replica on every daemon runs exactly one thread
//! per daemon and no replica thread.
//!
//! This file holds a single test on purpose: the count reads every
//! thread of the test process, so no other test may run beside it.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use accelring_core::{ProtocolConfig, RingIdx};
use accelring_kv::{KvConfig, KvShared, KvStore};
use accelring_membership::MembershipConfig;
use accelring_multiring::{MultiRingDaemon, MultiRingError, MultiRingOptions, ShardMap};
use accelring_transport::{spawn_local_multiring, NodeHandle};

const RINGS: u16 = 2;
const NODES: u16 = 3;
const PARTS: u16 = 4;

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
fn a_daemon_with_a_replica_runs_one_thread() {
    let rings = spawn_local_multiring(
        RINGS,
        NODES,
        ProtocolConfig::default(),
        MembershipConfig::for_wall_clock(),
        &[],
    )
    .expect("rings stand up");
    let mut columns: Vec<Vec<NodeHandle>> = (0..NODES).map(|_| Vec::new()).collect();
    for ring in rings {
        for (i, node) in ring.into_iter().enumerate() {
            columns[i].push(node);
        }
    }
    let mut shards = ShardMap::new(RINGS);
    for p in 0..PARTS {
        shards.assign(&format!("kv.{p}"), RingIdx::new(p % RINGS));
    }
    let shareds: Vec<Arc<KvShared>> = (0..NODES).map(|_| KvShared::new(PARTS)).collect();
    let daemons: Vec<MultiRingDaemon> = columns
        .into_iter()
        .zip(&shareds)
        .map(|(nodes, shared)| {
            let options = MultiRingOptions {
                app_state: Some(shared.clone()),
                ..MultiRingOptions::default()
            };
            MultiRingDaemon::start_with(nodes, shards.clone(), options)
        })
        .collect();
    // Only the daemon's mounted state can attach a replica.
    let stranger = KvConfig {
        partitions: PARTS,
        name: "stranger".to_string(),
        ..KvConfig::default()
    };
    let refused = KvStore::start(&daemons[0], KvShared::new(PARTS), stranger);
    assert_eq!(refused.err(), Some(MultiRingError::AppNotMounted));
    let stores: Vec<KvStore> = daemons
        .iter()
        .zip(&shareds)
        .enumerate()
        .map(|(i, (daemon, shared))| {
            let cfg = KvConfig {
                partitions: PARTS,
                name: format!("replica-{i}"),
                ..KvConfig::default()
            };
            KvStore::start(daemon, shared.clone(), cfg).expect("replica starts")
        })
        .collect();

    // A replica serves once every partition's view named it, so every
    // daemon's loop has run and named its thread.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !shareds.iter().all(|s| s.serving()) {
        assert!(Instant::now() < deadline, "replicas never all served");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(threads_named("kv-"), 0, "no replica thread");
    assert_eq!(
        threads_named("multiring-daem"),
        daemons.len(),
        "one thread per daemon"
    );

    for store in stores {
        store.shutdown();
    }
    for d in daemons {
        d.shutdown();
    }
}
