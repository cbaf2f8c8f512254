//! A real cluster on localhost: four UDP daemons (actual sockets, actual
//! threads, membership formation from a cold start) with group-messaging
//! clients on top — the full Spread-style stack.
//!
//! Run with: `cargo run --example udp_cluster`

use std::time::{Duration, Instant};

use accelring::core::{ProtocolConfig, Service};
use accelring::daemon::ClientEvent;
use accelring::membership::MembershipConfig;
use accelring::multiring::{MultiRingDaemon, ShardMap};
use accelring::transport::spawn_local_ring;
use bytes::Bytes;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Fast wall-clock membership timing suitable for a demo.
    let membership = MembershipConfig {
        token_loss_timeout: 300_000_000,
        token_retransmit_timeout: 80_000_000,
        join_interval: 30_000_000,
        consensus_timeout: 250_000_000,
        commit_timeout: 250_000_000,
        recovery_timeout: 1_000_000_000,
        presence_interval: 100_000_000,
        gather_settle: 60_000_000,
    };

    println!("starting 4 daemons on 127.0.0.1 (ephemeral ports)...");
    let nodes = spawn_local_ring(4, ProtocolConfig::accelerated(20, 15), membership)?;
    // One ring: each daemon is the single-ring case of the multi-ring
    // runtime, so the merge passes the ring's total order straight through.
    let daemons: Vec<MultiRingDaemon> = nodes
        .into_iter()
        .map(|node| MultiRingDaemon::start(vec![node], ShardMap::new(1)))
        .collect();

    // One client per daemon; everyone joins #market, clients 0/1 also join
    // #audit.
    let clients: Vec<_> = daemons
        .iter()
        .enumerate()
        .map(|(i, d)| d.connect(&format!("client-{i}")).expect("connect"))
        .collect();
    for c in &clients {
        c.join("market")?;
    }
    clients[0].join("audit")?;
    clients[1].join("audit")?;

    // Wait until client 3 has seen the full #market view (4 members).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match clients[3].events().recv_timeout(Duration::from_millis(200)) {
            Ok(ClientEvent::View { group, members }) if group == "market" && members.len() == 4 => {
                println!("#market view complete: {} members", members.len());
                break;
            }
            Ok(_) => {}
            Err(_) if Instant::now() > deadline => return Err("ring did not form in time".into()),
            Err(_) => {}
        }
    }

    // A multi-group multicast: one send, ordered across both groups.
    clients[2].multicast(
        &["market", "audit"],
        Bytes::from_static(b"TRADE id=7 qty=100"),
        Service::Safe,
    )?;
    clients[0].multicast(
        &["market"],
        Bytes::from_static(b"QUOTE xyz=42"),
        Service::Agreed,
    )?;

    // Every #market member receives both, in the same order.
    for (i, c) in clients.iter().enumerate() {
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.len() < 2 && Instant::now() < deadline {
            if let Ok(ClientEvent::Message {
                sender,
                payload,
                groups,
                ..
            }) = c.events().recv_timeout(Duration::from_millis(200))
            {
                got.push(format!(
                    "{} -> {:?}: {}",
                    sender,
                    groups,
                    String::from_utf8_lossy(&payload)
                ));
            }
        }
        println!("client-{i} received:");
        for line in &got {
            println!("    {line}");
        }
        assert_eq!(got.len(), 2, "client-{i} must receive both messages");
    }

    println!("total order held across a real UDP ring ✓");
    for d in daemons {
        d.shutdown();
    }
    Ok(())
}
