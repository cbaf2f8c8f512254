//! Bringing daemons up commits only the receive-batch pages datagrams
//! touch. Two rings of three daemons with session sockets map nine
//! receive batches of 32 × 64 KiB (18 MiB): one per ring node, made when
//! the rings are spawned, and one per session socket, made by
//! `MultiRingDaemon::start_with`. Zero-filled batches made the resident
//! set grow by most of that; mapped ones leave it to the daemons' own
//! state and threads.
//!
//! Resident memory is `VmRSS` from `/proc/self/status`, so the test is
//! Linux-only. The binary runs without the test harness (`harness =
//! false`) so that the bring-up runs on the main thread alone, as in the
//! daemon binary and in `perfbench`: there glibc serves the batches from
//! the main heap, which zero-fills a reused region, while a spawned
//! test thread's arena hands out fresh pages unwritten and hid most of
//! the cost. No other test shares the process's RSS.

use accelring_core::ProtocolConfig;
use accelring_daemon::FrontendOptions;
use accelring_membership::MembershipConfig;
use accelring_multiring::{MultiRingDaemon, MultiRingOptions, ShardMap};
use accelring_transport::{spawn_local_multiring_on, NodeHandle, Transport};

const RINGS: u16 = 2;
const NODES: u16 = 3;
const KIB: u64 = 1024;
const MIB: u64 = 1 << 20;
/// The bound on bring-up's growth of the resident set: about twice what
/// mapped batches measured on a 2-core x86-64 VM (2.2–2.4 MiB in a debug
/// build, whose code pages fault in too, and 1.1–1.4 MiB in release),
/// and under a third of what zero-filled ones did (15.4 and 14.2 MiB).
const BRING_UP_BOUND: u64 = 4 * MIB;

/// This process's resident set, in bytes.
fn rss() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("a VmRSS line in kB");
    kib * KIB
}

fn main() {
    if cfg!(target_os = "linux") {
        bringing_up_two_rings_of_three_daemons_commits_no_idle_receive_buffers();
        println!(
            "test bringing_up_two_rings_of_three_daemons_commits_no_idle_receive_buffers ... ok"
        );
    }
}

fn bringing_up_two_rings_of_three_daemons_commits_no_idle_receive_buffers() {
    let base = rss();
    let rings = spawn_local_multiring_on(
        Transport::Udp,
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
    let daemons: Vec<MultiRingDaemon> = columns
        .into_iter()
        .map(|nodes| {
            let options = MultiRingOptions {
                frontend: FrontendOptions::enabled(),
                ..MultiRingOptions::default()
            };
            MultiRingDaemon::start_with(nodes, ShardMap::new(RINGS), options)
        })
        .collect();
    assert!(
        daemons.iter().all(|d| d.session_addr().is_some()),
        "every daemon opened its session socket"
    );
    let grown = rss().saturating_sub(base);
    println!(
        "{RINGS} rings × {NODES} daemons with session sockets: +{} KiB",
        grown / KIB
    );
    assert!(
        grown < BRING_UP_BOUND,
        "bringing up {RINGS} rings × {NODES} daemons grew the resident set by {} KiB",
        grown / KIB
    );
    for d in daemons {
        d.shutdown();
    }
}
