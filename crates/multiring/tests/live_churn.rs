//! Live churn: real localhost UDP rings under a seeded churn schedule
//! — packet loss, an online group migration, a daemon leaving and
//! rejoining — with the chaos crate's handoff checker over every
//! observer's delivery stream.
//!
//! Two scenarios: the smoke schedule commits a migration of a hot group
//! while its source ring drops packets and a daemon cycles (every
//! observer must see one identical, gap-free, duplicate-free order);
//! and a migration whose target ring is partitioned must abort cleanly,
//! with the source ring serving the group throughout.
//!
//! Real sockets and threads; run with `--test-threads=1`.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use accelring_chaos::churn::{check_churn_handoff, ChurnSchedule};
use accelring_chaos::MsgId;
use accelring_core::{Backoff, RingIdx, Service};
use accelring_daemon::ClientEvent;
use accelring_multiring::{
    ChurnCluster, DaemonInspect, MultiRingClient, MultiRingOptions, ShardMap,
};
use bytes::Bytes;

const RINGS: u16 = 2;
const NODES: u16 = 3;
const HOT_SENDER: u16 = 99;

/// "hot" starts on ring 0 and migrates to ring 1; "cold" pins ring 1 so
/// the target carries unrelated traffic state from the start.
fn shards() -> ShardMap {
    let mut map = ShardMap::new(RINGS);
    map.assign("hot", RingIdx::new(0));
    map.assign("cold", RingIdx::new(1));
    map
}

/// Blocks until `client` sees a view of `group` with at least
/// `min_members` members (the EVS join-effective point).
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

/// Sends one workload id on the hot group, retrying transient submit
/// rejections under the shared jittered backoff.
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

/// Drains `client` until `want` workload ids arrived (or the deadline
/// passes), returning them in merged delivery order.
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

/// Polls daemon `d`'s inspect snapshot until `pick` returns a non-zero
/// count, returning it (0 on deadline).
fn await_counter(
    cluster: &ChurnCluster,
    d: u16,
    deadline: Duration,
    pick: impl Fn(&DaemonInspect) -> u64,
) -> u64 {
    let start = Instant::now();
    while start.elapsed() < deadline {
        let n = pick(&cluster.daemon(d).inspect().expect("daemon up"));
        if n > 0 {
            return n;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    0
}

#[test]
fn smoke_schedule_commits_migration_with_identical_gap_free_orders() {
    let seed = 11;
    let mut cluster =
        ChurnCluster::start(RINGS, NODES, seed, shards(), MultiRingOptions::default())
            .expect("cluster up");

    // Observers on the two daemons that are never cycled; the smoke
    // schedule restarts daemon 2, which comes back through the crash
    // recovery path — seeded dedup watermarks plus ring-borne map
    // announces — while the durable clients live elsewhere.
    let obs_a = cluster.daemon(0).connect("obs-a").expect("connect");
    let obs_b = cluster.daemon(1).connect("obs-b").expect("connect");
    let sender = cluster.daemon(0).connect("src").expect("connect");
    for c in [&obs_a, &obs_b] {
        c.join("hot").expect("join hot");
    }
    for c in [&obs_a, &obs_b] {
        await_view_members(c, "hot", 2);
    }

    // One migration of "hot" to ring 1 plus one daemon-2 leave/join,
    // bracketed by a 3% loss window on the source ring.
    let schedule = ChurnSchedule::smoke(seed, "hot", 0, 1, 2);
    let last_event = schedule.events.last().expect("non-empty").at;

    let mut sent: BTreeSet<MsgId> = BTreeSet::new();
    let mut fired = 0;
    let start = Instant::now();
    let mut counter = 0;
    // Steady traffic until well past the final churn event, so sends
    // land before, during, and after the fence and the restart.
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
            .expect("churn event applies");
        std::thread::sleep(Duration::from_millis(40));
    }
    while fired < schedule.events.len() {
        cluster
            .apply_due(&schedule, start, &mut fired)
            .expect("churn event applies");
        std::thread::sleep(Duration::from_millis(20));
    }

    let committed = await_counter(&cluster, 0, Duration::from_secs(20), |s| {
        s.migrations.committed
    });
    assert!(
        committed >= 1,
        "seed {seed}: the smoke migration never committed"
    );
    let migrations = cluster.daemon(0).inspect().expect("daemon up").migrations;
    assert!(
        migrations.started >= migrations.committed && migrations.committed >= 1,
        "seed {seed}: migration counters out of order: {migrations:?}"
    );

    let want = sent.len();
    let a = collect_ids(&obs_a, want, Duration::from_secs(40));
    let b = collect_ids(&obs_b, want, Duration::from_secs(40));
    let violations = check_churn_handoff(&sent, &[(0, a), (1, b)]);
    assert!(
        violations.is_empty(),
        "seed {seed}: handoff violations:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );

    cluster.shutdown();
}

#[test]
fn partitioned_target_ring_aborts_migration_and_source_keeps_serving() {
    let seed = 23;
    let options = MultiRingOptions {
        // Escalate to abort quickly: the barrier provably cannot be met
        // once the target ring is split.
        migration_timeout: Duration::from_millis(1200),
        ..MultiRingOptions::default()
    };
    let cluster = ChurnCluster::start(RINGS, NODES, seed, shards(), options).expect("cluster up");

    // A member on every daemon, so the readiness barrier needs daemon 2
    // — whose target-ring node is about to be cut off.
    let obs_a = cluster.daemon(0).connect("obs-a").expect("connect");
    let obs_b = cluster.daemon(1).connect("obs-b").expect("connect");
    let obs_c = cluster.daemon(2).connect("obs-c").expect("connect");
    let sender = cluster.daemon(0).connect("src").expect("connect");
    for c in [&obs_a, &obs_b, &obs_c] {
        c.join("hot").expect("join hot");
    }
    for c in [&obs_a, &obs_b, &obs_c] {
        await_view_members(c, "hot", 3);
    }

    let mut sent: BTreeSet<MsgId> = BTreeSet::new();
    let mut counter = 0;
    let mut send_batch = |n: u64, sent: &mut BTreeSet<MsgId>| {
        for _ in 0..n {
            let id = MsgId {
                sender: HOT_SENDER,
                counter,
            };
            send_id(&sender, id);
            sent.insert(id);
            counter += 1;
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    send_batch(8, &mut sent);

    // Split the *target* ring so daemon 2's readiness proof can never
    // reach the majority: the barrier stalls and every daemon's abort
    // escalation races to order the abort on the (healthy) source ring.
    cluster.plane(1).partition(&[vec![0, 1], vec![2]]);
    std::thread::sleep(Duration::from_millis(300));
    cluster
        .daemon(0)
        .migrate("hot", RingIdx::new(1))
        .expect("migrate accepted");
    // Sends behind the fence are held for the decision.
    send_batch(8, &mut sent);

    let aborted = await_counter(&cluster, 0, Duration::from_secs(20), |s| {
        s.migrations.aborted
    });
    assert!(aborted >= 1, "seed {seed}: the migration never aborted");
    let migrations = cluster.daemon(0).inspect().expect("daemon up").migrations;
    assert_eq!(
        migrations.committed, 0,
        "seed {seed}: a doomed migration committed"
    );

    // The source ring keeps serving the group after the abort.
    send_batch(8, &mut sent);

    // Daemon 2's merger stalls while its target-ring node sits in a
    // tickless minority singleton; heal before reading obs-c.
    cluster.plane(1).heal();

    let want = sent.len();
    let a = collect_ids(&obs_a, want, Duration::from_secs(40));
    let b = collect_ids(&obs_b, want, Duration::from_secs(40));
    let c = collect_ids(&obs_c, want, Duration::from_secs(40));
    let violations = check_churn_handoff(&sent, &[(0, a), (1, b), (2, c)]);
    assert!(
        violations.is_empty(),
        "seed {seed}: abort-path violations:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );

    cluster.shutdown();
}
