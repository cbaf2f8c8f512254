//! Replicated KV under churn: the PR 5 smoke schedule — a loss window
//! on the hot ring, an online migration of a KV partition to the other
//! ring, a daemon restart — while a client drives confirmed writes the
//! whole way through. A fresh replica is mounted on the reborn daemon
//! and must catch up through ordered state transfer (the serving
//! replicas multicast their snapshot at its marker); at the end every
//! replica (including the rejoiner) holds the byte-identical machine,
//! every beacon pair at equal positions agrees, and the store reflects
//! exactly the confirmed writes — nothing lost, nothing doubled,
//! nothing reordered.
//!
//! A second test restarts a daemon beside a store larger than one UDP
//! datagram: the daemon's own catch-up (the peers' shard maps and dedup
//! watermarks, ordered on the rings) carries daemon state only, and its
//! gate opens on it within 2 s. The fresh replica mounted there receives
//! the store's snapshot in fragments on the rings and must serve the
//! whole store within 5 s.
//!
//! Real sockets and threads; run with `--test-threads=1`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use accelring_chaos::{check_state_beacons, ChurnSchedule};
use accelring_core::RingIdx;
use accelring_daemon::FrontendOptions;
use accelring_kv::{
    partition_of, KvBeacon, KvClient, KvConfig, KvMachine, KvShared, KvStore, KvWrite,
};
use accelring_multiring::{ChurnCluster, MultiRingOptions, ShardMap};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver};

const RINGS: u16 = 2;
const NODES: u16 = 3;
const PARTS: u16 = 4;
const LONG: Duration = Duration::from_secs(40);

fn shards() -> ShardMap {
    let mut map = ShardMap::new(RINGS);
    for p in 0..PARTS {
        map.assign(&format!("kv.{p}"), RingIdx::new(p % RINGS));
    }
    map
}

fn options_for(shared: &Arc<KvShared>) -> MultiRingOptions {
    MultiRingOptions {
        frontend: FrontendOptions::enabled(),
        app_state: Some(shared.clone()),
        ..MultiRingOptions::default()
    }
}

/// Starts a replica on daemon `i` of `cluster`, streaming beacons after
/// every consumed fragment (the strictest divergence check).
fn mount_replica(
    cluster: &ChurnCluster,
    i: u16,
    shared: Arc<KvShared>,
    name: &str,
    recover: bool,
) -> (KvStore, Receiver<KvBeacon>) {
    let (tx, rx) = unbounded();
    let store = KvStore::start(
        cluster.daemon(i),
        shared,
        KvConfig {
            partitions: PARTS,
            name: name.to_string(),
            recover,
            beacons: Some(tx),
            ..KvConfig::default()
        },
    )
    .expect("replica starts");
    (store, rx)
}

fn await_all_serving(shareds: &[&Arc<KvShared>]) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if shareds.iter().all(|s| s.serving()) {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("replicas never all started serving");
}

fn await_convergence(shareds: &[&Arc<KvShared>]) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(40);
    while Instant::now() < deadline {
        let p: Vec<u64> = shareds.iter().map(|s| s.position()).collect();
        if p.iter().all(|&x| x == p[0]) {
            std::thread::sleep(Duration::from_millis(400));
            let q: Vec<u64> = shareds.iter().map(|s| s.position()).collect();
            if q == p {
                return p[0];
            }
        } else {
            std::thread::sleep(Duration::from_millis(100));
        }
    }
    panic!("replica positions never converged");
}

#[test]
fn kv_workload_survives_migration_and_restart_without_divergence() {
    let seed = 17;
    let shareds: Vec<Arc<KvShared>> = (0..NODES).map(|_| KvShared::new(PARTS)).collect();
    let options: Vec<MultiRingOptions> = shareds.iter().map(options_for).collect();
    let mut cluster =
        ChurnCluster::start_each(RINGS, NODES, seed, shards(), options).expect("cluster up");

    // The reborn daemon 2 will mount a *fresh* machine: swap its options
    // now so the restart fired by the schedule starts the next
    // incarnation with the new shared state already wired in.
    let shared_2b = KvShared::new(PARTS);
    cluster.set_options(2, options_for(&shared_2b));

    let mut stores = Vec::new();
    let mut beacon_rxs = Vec::new();
    for (i, shared) in shareds.iter().enumerate() {
        let (store, rx) = mount_replica(
            &cluster,
            i as u16,
            shared.clone(),
            &format!("replica-{i}"),
            false,
        );
        stores.push(store);
        beacon_rxs.push(rx);
    }
    await_all_serving(&shareds.iter().collect::<Vec<_>>());

    let addr0 = cluster.daemon(0).session_addr().expect("session socket");
    let mut client = KvClient::connect(addr0, "client-a", PARTS).expect("connect");
    client
        .wait_serving(Duration::from_secs(30))
        .expect("replica 0 serves");

    // "kv.0" migrates ring 0 -> ring 1 mid-workload while its source
    // ring drops 3% of packets and daemon 2 cycles.
    let schedule = ChurnSchedule::smoke(seed, "kv.0", 0, 1, 2);
    let last_event = schedule.events.last().expect("non-empty").at;

    // Confirmed writes across all partitions, with a cross-partition
    // transaction every fourth round; `model` tracks what a lossless,
    // exactly-once store must end up holding.
    let mut model: BTreeMap<String, Bytes> = BTreeMap::new();
    let mut fired = 0;
    let start = Instant::now();
    let mut round: u64 = 0;
    while start.elapsed() < last_event + Duration::from_millis(600) || round < 30 {
        let key = format!("churn-{}", round % 8);
        let value = Bytes::from(format!("r{round}"));
        if round % 4 == 3 {
            let other = format!("churn-{}", (round + 1) % 8);
            let seq = client
                .txn(vec![
                    KvWrite::Put {
                        key: key.clone(),
                        value: value.clone(),
                    },
                    KvWrite::Put {
                        key: other.clone(),
                        value: value.clone(),
                    },
                ])
                .expect("txn submit");
            client.confirm(&key, seq, LONG).expect("confirm txn");
            model.insert(other, value.clone());
        } else {
            let seq = client.put(&key, value.clone()).expect("put submit");
            client.confirm(&key, seq, LONG).expect("confirm put");
        }
        model.insert(key, value);
        round += 1;
        cluster
            .apply_due(&schedule, start, &mut fired)
            .expect("churn event applies");
        std::thread::sleep(Duration::from_millis(30));
    }
    while fired < schedule.events.len() {
        cluster
            .apply_due(&schedule, start, &mut fired)
            .expect("churn event applies");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Daemon 2 is back; wait out its daemon-level catch-up, then mount
    // the rejoining replica, which recovers from the snapshot the
    // survivors' replicas multicast at its marker.
    let deadline = Instant::now() + Duration::from_secs(30);
    while cluster.daemon(2).inspect().map(|i| i.catching_up) == Some(true) {
        assert!(
            Instant::now() < deadline,
            "daemon 2 never finished catch-up"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let (store_2b, rx_2b) = mount_replica(&cluster, 2, shared_2b.clone(), "replica-2-inc1", true);
    stores.push(store_2b);
    beacon_rxs.push(rx_2b);
    await_all_serving(&[&shared_2b]);

    // Post-recovery traffic: the rejoiner must track the order live.
    for i in 0..8u64 {
        let key = format!("churn-{}", i % 8);
        let value = Bytes::from(format!("post{i}"));
        let seq = client.put(&key, value.clone()).expect("post-put");
        client.confirm(&key, seq, LONG).expect("confirm post-put");
        model.insert(key, value);
    }

    let replicas = [&shareds[0], &shareds[1], &shared_2b];
    let pos = await_convergence(&replicas);
    assert!(pos > 0, "nothing was consumed");

    // No lost, doubled, or reordered applies: every replica holds the
    // model exactly, and the machines agree byte-for-byte.
    for (i, s) in replicas.iter().enumerate() {
        for (key, want) in &model {
            assert_eq!(
                s.read(key).as_ref(),
                Some(want),
                "replica {i}: key {key} diverges from the confirmed-write model"
            );
        }
        let stats = s.stats();
        assert_eq!(stats.foreign_payloads, 0, "replica {i}: foreign payloads");
        assert_eq!(stats.txns_expired, 0, "replica {i}: expired transactions");
    }
    shareds[0].with_machine(|m0| {
        shareds[1].with_machine(|m| assert_eq!(m0, m, "replica 1 diverged"));
        shared_2b.with_machine(|m| assert_eq!(m0, m, "rejoined replica diverged"));
    });

    // Divergence sweep over every beacon stream — the dead incarnation's
    // included: its prefix must agree with everyone else's.
    let streams: Vec<(usize, Vec<KvBeacon>)> = beacon_rxs
        .iter()
        .enumerate()
        .map(|(i, rx)| (i, rx.try_iter().collect()))
        .collect();
    assert!(
        streams.iter().map(|(_, s)| s.len()).sum::<usize>() > 0,
        "no beacons collected"
    );
    let violations = check_state_beacons(&streams);
    assert!(
        violations.is_empty(),
        "seed {seed}: divergence:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );

    client.close();
    for s in stores {
        s.shutdown();
    }
    cluster.shutdown();
}

#[test]
fn a_restarted_daemon_catches_up_beside_a_store_larger_than_a_datagram() {
    let shareds: Vec<Arc<KvShared>> = (0..NODES).map(|_| KvShared::new(PARTS)).collect();
    let options: Vec<MultiRingOptions> = shareds.iter().map(options_for).collect();
    let mut cluster =
        ChurnCluster::start_each(RINGS, NODES, 23, shards(), options).expect("cluster up");
    let mut stores = Vec::new();
    for (i, shared) in shareds.iter().enumerate() {
        let name = format!("replica-{i}");
        let (store, _) = mount_replica(&cluster, i as u16, shared.clone(), &name, false);
        stores.push(store);
    }
    await_all_serving(&shareds.iter().collect::<Vec<_>>());

    let addr0 = cluster.daemon(0).session_addr().expect("session socket");
    let mut client = KvClient::connect(addr0, "client-big", PARTS).expect("connect");
    client
        .wait_serving(Duration::from_secs(30))
        .expect("replica 0 serves");
    // 1,200 keys of 100 B, in batches whose last write on each
    // partition is confirmed before the next batch goes out.
    for batch in 0..12 {
        let mut last: BTreeMap<String, (String, u64)> = BTreeMap::new();
        for i in 0..100 {
            let key = format!("big-{batch:02}-{i:03}");
            let seq = client.put(&key, vec![b'v'; 100]).expect("put submit");
            last.insert(partition_of(&key, PARTS), (key, seq));
        }
        for (key, seq) in last.values() {
            client.confirm(key, *seq, LONG).expect("confirm put");
        }
    }
    let snapshot = shareds[0].with_machine(|m| m.snapshot().len());
    assert!(
        snapshot > 65_536,
        "the store must outgrow one datagram, its snapshot is {snapshot} bytes"
    );

    // The restarted daemon mounts a fresh machine.
    let shared_2b = KvShared::new(PARTS);
    cluster.set_options(2, options_for(&shared_2b));
    cluster.stop_daemon(2);
    std::thread::sleep(Duration::from_millis(300));
    cluster.restart_daemon(2).expect("daemon 2 restarts");
    let restarted = Instant::now();
    let inspect = loop {
        let inspect = cluster.daemon(2).inspect().expect("daemon 2 runs");
        if !inspect.catching_up || restarted.elapsed() > Duration::from_secs(2) {
            break inspect;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        !inspect.catching_up,
        "daemon 2 still catching up {:?} after its restart",
        restarted.elapsed()
    );
    let survivor = cluster.daemon(0).inspect().expect("daemon 0 runs");
    assert_eq!(
        inspect.map_version, survivor.map_version,
        "daemon 2 opened its gate on a stale map"
    );
    // It holds every dedup watermark the survivors hold.
    let want = cluster.daemon(0).export_seqs().expect("daemon 0 runs");
    let have = cluster.daemon(2).export_seqs().expect("daemon 2 runs");
    for (ring, (want, have)) in want.iter().zip(&have).enumerate() {
        let held: BTreeMap<&String, u64> = have.iter().map(|(n, s)| (n, *s)).collect();
        for (name, seq) in want {
            assert!(
                held.get(name).is_some_and(|h| h >= seq),
                "daemon 2 lacks {name}'s watermark {seq} on ring {ring}"
            );
        }
    }

    // The replica mounted there gets the store, too large for one
    // datagram, as fragments on the rings from each serving peer.
    let (store_2b, _) = mount_replica(&cluster, 2, shared_2b.clone(), "replica-2-inc1", true);
    stores.push(store_2b);
    let mounted = Instant::now();
    while !shared_2b.serving() {
        assert!(
            mounted.elapsed() < Duration::from_secs(5),
            "the replica is not serving {:?} after its mount",
            mounted.elapsed()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let serving_after = mounted.elapsed();
    assert_eq!(shared_2b.with_machine(KvMachine::len), 1_200, "every key");
    let pos = await_convergence(&[&shareds[0], &shareds[1], &shared_2b]);
    assert!(pos > 1_200, "position {pos}");
    // Nothing was written since the marker, so this is the snapshot each
    // serving peer multicast.
    let sent = shareds[0].with_machine(|m| m.snapshot().len());
    eprintln!(
        "replica-2-inc1 served {serving_after:?} after its mount; 2 peers sent {sent} B each"
    );
    shareds[0].with_machine(|m0| {
        shared_2b.with_machine(|m| assert_eq!(m0, m, "the rejoined replica diverged"));
    });
    assert_eq!(shared_2b.stats().foreign_payloads, 0);

    client.close();
    for s in stores {
        s.shutdown();
    }
    cluster.shutdown();
}
