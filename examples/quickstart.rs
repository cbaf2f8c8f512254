//! Quickstart: a real three-daemon Accelerated Ring on localhost UDP,
//! group-messaging clients on top, and totally ordered delivery of
//! Agreed and Safe messages observed end to end.
//!
//! Run with: `cargo run --example quickstart`

use std::time::{Duration, Instant};

use accelring::core::{ProtocolConfig, Service};
use accelring::daemon::ClientEvent;
use accelring::membership::MembershipConfig;
use accelring::multiring::{MultiRingDaemon, ShardMap};
use accelring::transport::spawn_local_ring;
use bytes::Bytes;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Figure 1 configuration: personal window 5, accelerated window 3,
    // with wall-clock membership timing suitable for a demo.
    let cfg = ProtocolConfig::accelerated(5, 3);
    println!("starting 3 daemons on 127.0.0.1 (ephemeral ports)...");
    let nodes = spawn_local_ring(3, cfg, MembershipConfig::for_wall_clock())?;
    // One ring: each daemon is the single-ring case of the multi-ring
    // runtime, so the merge passes the ring's total order straight through.
    let daemons: Vec<MultiRingDaemon> = nodes
        .into_iter()
        .map(|node| MultiRingDaemon::start(vec![node], ShardMap::new(1)))
        .collect();

    // One client per daemon, all subscribed to #updates.
    let clients: Vec<_> = daemons
        .iter()
        .enumerate()
        .map(|(i, d)| d.connect(&format!("client-{i}")).expect("connect"))
        .collect();
    for c in &clients {
        c.join("updates")?;
    }

    // Wait until every client has seen the full view: a join is effective
    // (and later sends are ordered after it everywhere) only once the
    // view installing it has been delivered.
    for (i, c) in clients.iter().enumerate() {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match c.events().recv_timeout(Duration::from_millis(200)) {
                Ok(ClientEvent::View { group, members })
                    if group == "updates" && members.len() == clients.len() =>
                {
                    break;
                }
                Ok(_) => {}
                Err(_) if Instant::now() > deadline => {
                    return Err(format!("client-{i} never saw the full view").into())
                }
                Err(_) => {}
            }
        }
    }
    println!("#updates view complete: {} members", clients.len());

    // Three clients submit interleaved updates, mixing service levels.
    for i in 0..4u32 {
        clients[(i % 3) as usize].multicast(
            &["updates"],
            Bytes::from(format!("update-{i}")),
            if i % 2 == 0 {
                Service::Agreed
            } else {
                Service::Safe
            },
        )?;
    }

    // Every client delivers exactly the same sequence.
    let mut orders: Vec<Vec<String>> = Vec::new();
    for (i, c) in clients.iter().enumerate() {
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.len() < 4 && Instant::now() < deadline {
            if let Ok(ClientEvent::Message {
                sender, payload, ..
            }) = c.events().recv_timeout(Duration::from_millis(200))
            {
                got.push(format!("{sender}: {}", String::from_utf8_lossy(&payload)));
            }
        }
        assert_eq!(got.len(), 4, "client-{i} must deliver all four updates");
        orders.push(got);
    }
    println!("total order as delivered by client-0:");
    for line in &orders[0] {
        println!("  {line}");
    }
    for (i, order) in orders.iter().enumerate().skip(1) {
        assert_eq!(order, &orders[0], "client-{i} diverged from client-0");
    }
    println!("all 3 clients delivered the identical sequence ✓");

    for d in daemons {
        d.shutdown();
    }
    Ok(())
}
