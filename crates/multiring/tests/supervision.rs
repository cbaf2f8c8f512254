//! Client session supervision over one real UDP ring, each daemon being
//! the R = 1 case of the multi-ring runtime: daemon death surfaces as a
//! terminal event, reconnect + resubmit is exactly-once, slow remote
//! sessions shed instead of wedging the daemon, graceful shutdown drains,
//! and a submit burst at one daemon does not starve its ring's token.
//!
//! The tests serialize themselves through a file-local mutex: real
//! sockets, real timers, and concurrent rings skew each other's clocks.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use accelring_core::{ProtocolConfig, Service};
use accelring_daemon::{ClientEvent, FrontendOptions, SessionClient};
use accelring_membership::MembershipConfig;
use accelring_multiring::{MultiRingClient, MultiRingDaemon, MultiRingOptions, ShardMap};
use accelring_transport::{spawn_local_ring, KillSwitch, NodeHandle};
use bytes::Bytes;

/// Serializes the tests in this file even under the default parallel test
/// runner: each spins a real ring against real timers, and concurrent
/// rings starve each other of CPU on small machines.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn test_membership_config() -> MembershipConfig {
    MembershipConfig {
        token_loss_timeout: 300_000_000,      // 300 ms
        token_retransmit_timeout: 80_000_000, // 80 ms
        join_interval: 30_000_000,            // 30 ms
        consensus_timeout: 250_000_000,       // 250 ms
        commit_timeout: 250_000_000,          // 250 ms
        recovery_timeout: 1_000_000_000,      // 1 s
        presence_interval: 100_000_000,       // 100 ms
        gather_settle: 60_000_000,            // 60 ms
    }
}

/// Spawns `n` single-ring daemons on a localhost ring, returning each
/// node's kill switch alongside its daemon (the node handle itself is
/// owned by the daemon's pump thread).
fn spawn_daemons(n: u16, options: MultiRingOptions) -> (Vec<KillSwitch>, Vec<MultiRingDaemon>) {
    let nodes = spawn_local_ring(
        n,
        ProtocolConfig::accelerated(20, 15),
        test_membership_config(),
    )
    .expect("ring stands up");
    let kills = nodes.iter().map(NodeHandle::killswitch).collect();
    let daemons = nodes
        .into_iter()
        .map(|node| MultiRingDaemon::start_with(vec![node], ShardMap::new(1), options.clone()))
        .collect();
    (kills, daemons)
}

/// Waits until the client sees a view of `group` with exactly `n` members.
fn await_view(client: &MultiRingClient, group: &str, n: usize, deadline: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if let Ok(ClientEvent::View { group: g, members }) =
            client.events().recv_timeout(Duration::from_millis(50))
        {
            if g == group && members.len() == n {
                return true;
            }
        }
    }
    false
}

/// Drains the client's queue collecting message payloads until `deadline`,
/// stopping early after `want` payloads (0 = drain the whole window).
fn collect_payloads(client: &MultiRingClient, want: usize, deadline: Duration) -> Vec<Bytes> {
    let start = Instant::now();
    let mut got = Vec::new();
    while start.elapsed() < deadline && (want == 0 || got.len() < want) {
        if let Ok(ClientEvent::Message { payload, .. }) =
            client.events().recv_timeout(Duration::from_millis(50))
        {
            got.push(payload);
        }
    }
    got
}

#[test]
fn killed_daemon_disconnects_clients_and_survivors_prune() {
    let _serial = serial();
    let (kills, daemons) = spawn_daemons(3, MultiRingOptions::default());

    let a = daemons[0].connect("a").expect("connect a");
    let b = daemons[1].connect("b").expect("connect b");
    a.join("g").expect("a joins");
    b.join("g").expect("b joins");
    assert!(
        await_view(&a, "g", 2, Duration::from_secs(15)),
        "group forms with both members"
    );
    assert!(await_view(&b, "g", 2, Duration::from_secs(15)));

    // Traffic in flight while the daemon dies.
    b.multicast(&["g"], Bytes::from_static(b"mid-traffic"), Service::Agreed)
        .expect("submit");
    kills[0].kill();

    // The dead daemon's client learns it is orphaned well within the
    // token-loss timeout: supervision reacts to the thread dying, not to
    // the ring noticing the silence.
    let t0 = Instant::now();
    let mut disconnected = None;
    while t0.elapsed() < Duration::from_secs(5) && disconnected.is_none() {
        match a.events().recv_timeout(Duration::from_millis(50)) {
            Ok(ClientEvent::Disconnected { reason }) => disconnected = Some(reason),
            Ok(_) => {}
            Err(_) => {}
        }
    }
    assert!(
        disconnected.is_some(),
        "client of the killed daemon must receive a terminal Disconnected"
    );

    // Survivors reform and prune the dead daemon's client from the view.
    assert!(
        await_view(&b, "g", 1, Duration::from_secs(15)),
        "survivor's view must shrink to the remaining member"
    );
}

#[test]
fn reconnect_and_resubmit_is_exactly_once() {
    let _serial = serial();
    let (kills, daemons) = spawn_daemons(3, MultiRingOptions::default());

    let s = daemons[0].connect("s").expect("connect s");
    let r = daemons[1].connect("r").expect("connect r");
    s.join("g").expect("s joins");
    r.join("g").expect("r joins");
    assert!(await_view(&r, "g", 2, Duration::from_secs(15)));

    // A sequenced send that the sender cannot confirm: the daemon dies
    // right after submitting.
    let seq = s
        .multicast_sequenced(&["g"], Bytes::from_static(b"exactly-once"), Service::Agreed)
        .expect("sequenced send");
    assert_eq!(seq, 1);
    let first = collect_payloads(&r, 1, Duration::from_secs(15));
    assert_eq!(first, vec![Bytes::from_static(b"exactly-once")]);

    kills[0].kill();
    let start = Instant::now();
    let mut orphaned = false;
    while start.elapsed() < Duration::from_secs(5) && !orphaned {
        orphaned = matches!(
            s.events().recv_timeout(Duration::from_millis(50)),
            Ok(ClientEvent::Disconnected { .. })
        );
    }
    assert!(orphaned, "sender must learn its daemon died");
    // Survivors prune the old session before the name is reused ring-wide.
    assert!(
        await_view(&r, "g", 1, Duration::from_secs(15)),
        "survivors prune the dead daemon's client"
    );

    // Reconnect at a surviving daemon, resuming the session watermark, and
    // resubmit the in-doubt message: its fate was actually "delivered", so
    // every engine must drop the copy.
    let s2 = daemons[2]
        .connect_session("s", seq)
        .expect("reconnect at survivor");
    s2.join("g").expect("rejoin");
    assert!(await_view(&r, "g", 2, Duration::from_secs(15)));
    s2.resubmit(
        seq,
        &["g"],
        Bytes::from_static(b"exactly-once"),
        Service::Agreed,
    )
    .expect("resubmit");
    let next = s2
        .multicast_sequenced(&["g"], Bytes::from_static(b"after-resume"), Service::Agreed)
        .expect("new send");
    assert_eq!(next, 2, "session resumes past the watermark");

    // The subscriber sees the new message but never a duplicate of the
    // resubmitted one.
    let after = collect_payloads(&r, 1, Duration::from_secs(15));
    assert_eq!(
        after,
        vec![Bytes::from_static(b"after-resume")],
        "resubmitted message must be suppressed, new message delivered"
    );
    let dupes: u64 = daemons
        .iter()
        .filter_map(MultiRingDaemon::inspect)
        .map(|i| i.duplicates_dropped)
        .sum();
    assert!(
        dupes >= 1,
        "at least one engine must report the suppressed duplicate"
    );
}

#[test]
fn slow_client_sheds_events_instead_of_wedging() {
    let _serial = serial();
    // Remote sessions get 4 credits and a 4-deep EVENT queue: a session
    // that never reads (so never grants more credit) fills its queue
    // after 8 events.
    let options = MultiRingOptions {
        frontend: FrontendOptions {
            session_queue: 4,
            initial_credits: 4,
            ..FrontendOptions::enabled()
        },
        ..MultiRingOptions::default()
    };
    let (_kills, daemons) = spawn_daemons(1, options);
    let addr = daemons[0].session_addr().expect("session socket");

    let slow = SessionClient::connect(addr, "slow").expect("connect slow");
    let fast = daemons[0].connect("fast").expect("connect fast");
    slow.join("g").expect("slow joins");
    fast.join("g").expect("fast joins");
    assert!(await_view(&fast, "g", 2, Duration::from_secs(15)));

    // `slow` never reads its events; `fast` floods the group. The burst
    // must overflow slow's queue — the daemon sheds and counts rather
    // than buffering without bound or wedging.
    for k in 0..64 {
        fast.multicast(&["g"], Bytes::from(format!("m{k}")), Service::Agreed)
            .expect("submit");
    }
    let start = Instant::now();
    while daemons[0].frontend_stats().events_shed() == 0
        && start.elapsed() < Duration::from_secs(10)
    {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        daemons[0].frontend_stats().events_shed() > 0,
        "overflowing a bounded client queue must be counted as shed"
    );

    // The daemon is not wedged: a drained client still sees fresh traffic.
    let _ = collect_payloads(&fast, 0, Duration::from_millis(500));
    fast.multicast(&["g"], Bytes::from_static(b"still alive"), Service::Agreed)
        .expect("submit after shed");
    let start = Instant::now();
    let mut seen = false;
    while start.elapsed() < Duration::from_secs(10) && !seen {
        seen = collect_payloads(&fast, 1, Duration::from_millis(200))
            .iter()
            .any(|p| &p[..] == b"still alive");
    }
    assert!(seen, "daemon keeps serving after shedding");
}

#[test]
fn graceful_shutdown_drains_deliveries_before_disconnecting() {
    let _serial = serial();
    let (_kills, mut daemons) = spawn_daemons(2, MultiRingOptions::default());

    let a = daemons[0].connect("a").expect("connect a");
    let b = daemons[1].connect("b").expect("connect b");
    a.join("g").expect("a joins");
    b.join("g").expect("b joins");
    assert!(await_view(&a, "g", 2, Duration::from_secs(15)));
    assert!(await_view(&b, "g", 2, Duration::from_secs(15)));

    // Submit, then immediately shut down gracefully: the drain must let
    // the message complete its trip around the ring and reach the local
    // client before the terminal event.
    a.multicast(
        &["g"],
        Bytes::from_static(b"parting words"),
        Service::Agreed,
    )
    .expect("submit");
    let d0 = daemons.remove(0);
    d0.shutdown_graceful(Duration::from_secs(5));

    // After shutdown_graceful returns, a's queue holds the self-delivery
    // and then Disconnected, in that order.
    let mut saw_delivery = false;
    let mut saw_disconnect = false;
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(5) && !saw_disconnect {
        match a.events().recv_timeout(Duration::from_millis(50)) {
            Ok(ClientEvent::Message { payload, .. }) => {
                assert!(!saw_disconnect);
                saw_delivery = saw_delivery || &payload[..] == b"parting words";
            }
            Ok(ClientEvent::Disconnected { .. }) => saw_disconnect = true,
            Ok(_) => {}
            Err(_) => {}
        }
    }
    assert!(saw_delivery, "drain must flush the pending delivery");
    assert!(saw_disconnect, "terminal event must follow the drain");

    // The peer also got the message, and its view prunes the departed
    // client (disconnects travel the ordered stream during shutdown).
    let got = collect_payloads(&b, 1, Duration::from_secs(15));
    assert_eq!(got, vec![Bytes::from_static(b"parting words")]);
    assert!(
        await_view(&b, "g", 1, Duration::from_secs(15)),
        "survivor's view prunes the departed daemon's client"
    );
}

#[test]
fn submit_burst_at_one_daemon_does_not_starve_its_ring() {
    const SENDERS: usize = 4;
    const PER_SENDER: u32 = 5_000;
    let _serial = serial();
    let (_kills, daemons) = spawn_daemons(3, MultiRingOptions::default());

    let watcher = daemons[1].connect("watcher").expect("connect watcher");
    watcher.join("burst").expect("watcher joins");
    assert!(await_view(&watcher, "burst", 1, Duration::from_secs(15)));
    let epochs = |daemons: &[MultiRingDaemon]| -> Vec<u64> {
        daemons
            .iter()
            .map(|d| d.inspect().expect("daemon running").max_epoch)
            .collect()
    };
    let before = epochs(&daemons);

    // Every sender floods daemon 0 as fast as its API accepts: the one
    // loop must keep turning the token while it takes the calls.
    let senders: Vec<std::thread::JoinHandle<()>> = (0..SENDERS)
        .map(|i| {
            let client = daemons[0]
                .connect(&format!("sender-{i}"))
                .expect("connect sender");
            std::thread::spawn(move || {
                for n in 0..PER_SENDER {
                    let payload = Bytes::from(format!("{i}:{n}"));
                    client
                        .multicast_sequenced(&["burst"], payload, Service::Agreed)
                        .expect("submit");
                }
            })
        })
        .collect();

    // Exactly once, in per-sender order, at a watcher on another daemon;
    // some arrive while the flood still runs, or the ring stood still.
    let mut next = [0u32; SENDERS];
    let total = SENDERS * PER_SENDER as usize;
    let (mut got, mut during_flood) = (0, 0);
    let start = Instant::now();
    while got < total && start.elapsed() < Duration::from_secs(60) {
        if let Ok(ClientEvent::Message { payload, .. }) =
            watcher.events().recv_timeout(Duration::from_millis(50))
        {
            if senders.iter().any(|s| !s.is_finished()) {
                during_flood += 1;
            }
            let text = std::str::from_utf8(&payload).expect("utf-8 payload");
            let (i, n) = text.split_once(':').expect("sender:n payload");
            let (i, n): (usize, u32) = (i.parse().unwrap(), n.parse().unwrap());
            assert_eq!(
                n, next[i],
                "sender {i}: message {n} out of order or doubled"
            );
            next[i] += 1;
            got += 1;
        }
    }
    for s in senders {
        s.join().expect("sender thread");
    }
    assert!(
        during_flood > 0,
        "the ring must keep ordering while its daemon takes the flood"
    );
    assert_eq!(got, total, "every burst message reaches the watcher");
    assert_eq!(
        epochs(&daemons),
        before,
        "the burst must not cost a token-loss reconfiguration"
    );
}
