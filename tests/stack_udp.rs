//! Full-stack integration: group clients over real UDP daemons, including
//! a daemon failure with client-visible configuration change and group
//! pruning.

use std::time::{Duration, Instant};

use accelring::core::{ProtocolConfig, Service};
use accelring::daemon::ClientEvent;
use accelring::membership::MembershipConfig;
use accelring::multiring::{MultiRingClient, MultiRingDaemon, ShardMap};
use accelring::transport::spawn_local_ring;
use bytes::Bytes;

fn fast_membership() -> MembershipConfig {
    MembershipConfig {
        token_loss_timeout: 300_000_000,
        token_retransmit_timeout: 80_000_000,
        join_interval: 30_000_000,
        consensus_timeout: 250_000_000,
        commit_timeout: 250_000_000,
        recovery_timeout: 1_000_000_000,
        presence_interval: 100_000_000,
        gather_settle: 60_000_000,
    }
}

fn wait_for_view(
    client: &MultiRingClient,
    group: &str,
    members: usize,
    deadline: Duration,
) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if let Ok(ClientEvent::View {
            group: g,
            members: m,
        }) = client.events().recv_timeout(Duration::from_millis(200))
        {
            if g == group && m.len() == members {
                return true;
            }
        }
    }
    false
}

#[test]
fn group_messaging_and_daemon_failure() {
    let nodes =
        spawn_local_ring(3, ProtocolConfig::accelerated(20, 15), fast_membership()).unwrap();
    let daemons: Vec<MultiRingDaemon> = nodes
        .into_iter()
        .map(|node| MultiRingDaemon::start(vec![node], ShardMap::new(1)))
        .collect();
    let clients: Vec<_> = daemons
        .iter()
        .enumerate()
        .map(|(i, d)| d.connect(&format!("c{i}")).unwrap())
        .collect();

    for c in &clients {
        c.join("work").unwrap();
    }
    assert!(
        wait_for_view(&clients[2], "work", 3, Duration::from_secs(15)),
        "all three clients must appear in the view"
    );

    // Ordered traffic flows to all members.
    clients[0]
        .multicast(&["work"], Bytes::from_static(b"task-1"), Service::Agreed)
        .unwrap();
    let start = Instant::now();
    let mut got = false;
    while start.elapsed() < Duration::from_secs(10) && !got {
        if let Ok(ClientEvent::Message { payload, .. }) =
            clients[1].events().recv_timeout(Duration::from_millis(200))
        {
            got = &payload[..] == b"task-1";
        }
    }
    assert!(got, "client 1 receives the task");

    // Kill daemon 2 (drop shuts down its thread and sockets). The ring
    // reforms; surviving clients see a Config event and a pruned view.
    let mut daemons = daemons;
    let dead = daemons.pop().unwrap();
    dead.shutdown();

    let start = Instant::now();
    let mut saw_shrunk_config = false;
    let mut saw_pruned_view = false;
    while start.elapsed() < Duration::from_secs(20) && !(saw_shrunk_config && saw_pruned_view) {
        match clients[0].events().recv_timeout(Duration::from_millis(200)) {
            Ok(ClientEvent::Config {
                daemons,
                transitional,
            }) if !transitional && daemons.len() == 2 => {
                saw_shrunk_config = true;
            }
            Ok(ClientEvent::View { group, members }) if group == "work" && members.len() == 2 => {
                saw_pruned_view = true;
            }
            _ => {}
        }
    }
    assert!(
        saw_shrunk_config,
        "surviving client sees the 2-daemon config"
    );
    assert!(
        saw_pruned_view,
        "dead daemon's client pruned from the group"
    );

    // The shrunken ring still orders traffic.
    clients[1]
        .multicast(&["work"], Bytes::from_static(b"task-2"), Service::Safe)
        .unwrap();
    let start = Instant::now();
    let mut got = false;
    while start.elapsed() < Duration::from_secs(10) && !got {
        if let Ok(ClientEvent::Message { payload, .. }) =
            clients[0].events().recv_timeout(Duration::from_millis(200))
        {
            got = &payload[..] == b"task-2";
        }
    }
    assert!(got, "post-failure traffic still delivered");
}
