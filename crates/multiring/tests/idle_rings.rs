//! Idle rings cost nothing, live: a quiet ring's leader holds the token,
//! so an idle 3-node ring sends only its hold-deadline heartbeat and
//! presence beacons — bare [`NodeHandle`]s and a 2-ring
//! [`MultiRingDaemon`] deployment alike. Work still turns a resting ring
//! at once: a submit at a bare non-leader rings its node's doorbell and
//! wakes the leader, a message ordered on one ring wakes the other,
//! resting ring whose floor holds the merge, and a mounted application's
//! timer that multicasts at a non-leader daemon wakes its ring in the
//! same loop pass. The latency bounds sit far below the hold deadline
//! H = `token_retransmit_timeout / 2` (40 ms here), so they fail if
//! delivery waited for the deadline instead of a wake. A missed bound
//! reports, per ring node, the wakes sent, token holds, tokens
//! retransmitted and datagrams sent since the submit (for a timer, since
//! the previous message arrived), so a lost wake can be told from a late
//! scheduler.
//!
//! These tests stand up real sockets and threads; run them
//! single-threaded (`--test-threads=1`) so concurrent rings do not
//! compete for CPU.

use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use accelring_core::{ProtocolConfig, RingIdx, Service};
use accelring_daemon::ClientEvent;
use accelring_membership::MembershipConfig;
use accelring_multiring::{
    AppOutput, AppState, MultiRingClient, MultiRingDaemon, MultiRingOptions, ShardMap,
};
use accelring_transport::{
    spawn_local_multiring, spawn_local_ring, AppEvent, NodeHandle, TransportProbe,
};
use bytes::Bytes;

const NODES: u16 = 3;
/// The bound on idle traffic, per ring node and second (a spinning token
/// sent about 20,000).
const IDLE_DATAGRAMS_PER_S: u64 = 200;
/// The bound on waking a resting ring: far below the 40 ms hold deadline.
const WAKE_BOUND: Duration = Duration::from_millis(10);
/// Submits timed per test, each after the ring has rested again.
const SUBMITS: usize = 20;
/// Pause between timed submits: longer than the hold deadline, so every
/// submit finds the ring resting.
const REST: Duration = Duration::from_millis(60);

/// Wall-clock timeouts of the live test suites: an 80 ms retransmit
/// timeout, so the hold deadline is 40 ms.
fn membership() -> MembershipConfig {
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

/// The counters a wake-bound failure reports for one ring node.
#[derive(Debug, Clone, Copy)]
struct WakeCounters {
    wakes_sent: u64,
    token_holds: u64,
    tokens_retransmitted: u64,
    datagrams_tx: u64,
}

impl WakeCounters {
    fn read(probe: &TransportProbe) -> WakeCounters {
        WakeCounters {
            wakes_sent: probe.wakes_sent(),
            token_holds: probe.token_holds(),
            tokens_retransmitted: probe.tokens_retransmitted(),
            datagrams_tx: probe.stats().hot.datagrams_tx,
        }
    }
}

/// Every ring node of `daemons` with its probe, named for a report.
fn daemon_probes(daemons: &[MultiRingDaemon]) -> Vec<(String, TransportProbe)> {
    daemons
        .iter()
        .enumerate()
        .flat_map(|(d, daemon)| {
            daemon
                .transport_probes()
                .into_iter()
                .enumerate()
                .map(move |(k, p)| (format!("daemon {d} ring {k}"), p))
        })
        .collect()
}

/// Reads every node's counters, to report against on a missed bound.
fn wake_counters(probes: &[(String, TransportProbe)]) -> Vec<WakeCounters> {
    probes.iter().map(|(_, p)| WakeCounters::read(p)).collect()
}

/// Each node's counter deltas since `before`, one line per node, so a
/// missed wake bound tells a wake that was never sent or a token that
/// was never released from a scheduler that ran late.
fn wake_report(probes: &[(String, TransportProbe)], before: &[WakeCounters]) -> String {
    probes
        .iter()
        .zip(before)
        .map(|((name, probe), b)| {
            let now = WakeCounters::read(probe);
            format!(
                "\n  {name}: wakes sent +{}, token holds +{}, tokens retransmitted +{}, datagrams sent +{}",
                now.wakes_sent - b.wakes_sent,
                now.token_holds - b.token_holds,
                now.tokens_retransmitted - b.tokens_retransmitted,
                now.datagrams_tx - b.datagrams_tx,
            )
        })
        .collect()
}

/// Datagrams each probe's node sent over one second of idleness.
fn idle_datagrams(probes: &[TransportProbe]) -> Vec<u64> {
    let sent = || -> Vec<u64> { probes.iter().map(|p| p.stats().hot.datagrams_tx).collect() };
    let before = sent();
    thread::sleep(Duration::from_secs(1));
    sent().iter().zip(before).map(|(a, b)| a - b).collect()
}

/// A bare 3-node ring, formed and given time to come to rest.
fn resting_bare_ring() -> Vec<NodeHandle> {
    let handles = spawn_local_ring(NODES, ProtocolConfig::default(), membership()).expect("ring");
    for h in &handles {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            assert!(Instant::now() < deadline, "ring of {NODES} never formed");
            match h.events().recv_timeout(Duration::from_millis(200)) {
                Ok(AppEvent::Config(c)) if !c.transitional && c.members.len() == NODES as usize => {
                    break
                }
                Ok(AppEvent::Fault { reason }) => panic!("node died: {reason}"),
                _ => {}
            }
        }
    }
    thread::sleep(Duration::from_millis(300));
    handles
}

#[test]
fn an_idle_bare_ring_sends_almost_nothing() {
    let handles = resting_bare_ring();
    let probes: Vec<TransportProbe> = handles.iter().map(NodeHandle::probe).collect();
    for (i, sent) in idle_datagrams(&probes).into_iter().enumerate() {
        println!("idle node {i}: {sent} datagrams in 1 s");
        assert!(
            sent < IDLE_DATAGRAMS_PER_S,
            "idle node {i} sent {sent} datagrams in 1 s"
        );
    }
}

#[test]
fn a_submit_at_a_bare_non_leader_wakes_the_resting_ring() {
    // Participant 0 leads; participant 1 submits, participant 2 times
    // the delivery.
    let handles = resting_bare_ring();
    let probes: Vec<(String, TransportProbe)> = handles
        .iter()
        .map(|h| (format!("node {}", h.pid()), h.probe()))
        .collect();
    for i in 0..SUBMITS {
        thread::sleep(REST);
        let payload = Bytes::from(format!("wake-{i}"));
        let before = wake_counters(&probes);
        let sent = Instant::now();
        handles[1]
            .submit(payload.clone(), Service::Agreed)
            .expect("submit");
        loop {
            let waited = sent.elapsed();
            assert!(
                waited < WAKE_BOUND,
                "submit {i} not delivered after {waited:?}: the resting ring did not wake{}",
                wake_report(&probes, &before)
            );
            match handles[2].events().recv_timeout(WAKE_BOUND) {
                Ok(AppEvent::Delivered(d)) if d.payload == payload => break,
                Ok(AppEvent::Fault { reason }) => panic!("node died: {reason}"),
                _ => {}
            }
        }
    }
}

/// Two rings of three daemons; "left" is ordered by ring 0 and "right"
/// by ring 1. Returns the daemons once an observer at daemon 1 — a
/// member, not the leader, of both rings — holds views of both groups.
fn resting_deployment() -> (Vec<MultiRingDaemon>, MultiRingClient) {
    let handles = spawn_local_multiring(2, NODES, ProtocolConfig::default(), membership(), &[])
        .expect("rings stand up");
    let mut columns: Vec<Vec<NodeHandle>> = (0..NODES).map(|_| Vec::new()).collect();
    for ring in handles {
        for (i, node) in ring.into_iter().enumerate() {
            columns[i].push(node);
        }
    }
    let daemons: Vec<MultiRingDaemon> = columns
        .into_iter()
        .map(|nodes| {
            let mut map = ShardMap::new(2);
            map.assign("left", RingIdx::new(0));
            map.assign("right", RingIdx::new(1));
            MultiRingDaemon::start(nodes, map)
        })
        .collect();
    let obs = daemons[1].connect("obs").expect("connect");
    for group in ["left", "right"] {
        obs.join(group).expect("join");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            assert!(Instant::now() < deadline, "no view of {group}");
            match obs.events().recv_timeout(Duration::from_millis(200)) {
                Ok(ClientEvent::View { group: g, .. }) if g == group => break,
                Ok(ClientEvent::Disconnected { reason }) => panic!("disconnected: {reason}"),
                _ => {}
            }
        }
    }
    thread::sleep(Duration::from_millis(300));
    (daemons, obs)
}

#[test]
fn an_idle_two_ring_deployment_sends_almost_nothing() {
    let (daemons, _obs) = resting_deployment();
    let probes: Vec<TransportProbe> = daemons
        .iter()
        .flat_map(MultiRingDaemon::transport_probes)
        .collect();
    for (k, sent) in idle_datagrams(&probes).into_iter().enumerate() {
        println!("idle ring node {k}: {sent} datagrams in 1 s");
        assert!(
            sent < IDLE_DATAGRAMS_PER_S,
            "idle ring node {k} sent {sent} datagrams in 1 s"
        );
    }
    for d in daemons {
        d.shutdown();
    }
}

#[test]
fn a_message_on_one_ring_wakes_the_resting_ring_that_holds_the_merge() {
    // Ring 1 ("right") stays idle and rests; every message on ring 0
    // must wait in the merge for ring 1's floor, which only a turn of
    // ring 1 raises.
    let (daemons, obs) = resting_deployment();
    let sender = daemons[2].connect("sender").expect("connect");
    let probes = daemon_probes(&daemons);
    for i in 0..SUBMITS {
        thread::sleep(REST);
        let payload = Bytes::from(format!("left-{i}"));
        let before = wake_counters(&probes);
        let sent = Instant::now();
        sender
            .multicast(&["left"], payload.clone(), Service::Agreed)
            .expect("send");
        loop {
            let waited = sent.elapsed();
            assert!(
                waited < WAKE_BOUND,
                "message {i} not merged after {waited:?}: the resting ring held the merge{}",
                wake_report(&probes, &before)
            );
            match obs.events().recv_timeout(WAKE_BOUND) {
                Ok(ClientEvent::Message { payload: p, .. }) if p == payload => break,
                Ok(ClientEvent::Disconnected { reason }) => panic!("disconnected: {reason}"),
                _ => {}
            }
        }
    }
    for d in daemons {
        d.shutdown();
    }
}

/// A mounted application whose timer multicasts one message to
/// [`TICKS`] per deadline, [`REST`] after the previous one, once armed;
/// it records each deadline.
#[derive(Default)]
struct Ticker {
    state: Mutex<TickerState>,
}

#[derive(Default)]
struct TickerState {
    /// The next deadline; `None` until armed and after the last message.
    next: Option<Instant>,
    /// The deadline of each message sent so far.
    deadlines: Vec<Instant>,
}

/// The group the [`Ticker`] multicasts to.
const TICKS: &str = "ticks";

impl Ticker {
    fn arm(&self) {
        self.state.lock().unwrap().next = Some(Instant::now() + REST);
    }

    fn deadline_of(&self, i: usize) -> Option<Instant> {
        self.state.lock().unwrap().deadlines.get(i).copied()
    }
}

impl AppState for Ticker {
    fn query(&self, _: &Bytes) -> Option<Bytes> {
        None
    }

    fn deliver(&self, _: ClientEvent, _: Instant) -> Vec<AppOutput> {
        Vec::new()
    }

    fn poll(&self, now: Instant) -> Vec<AppOutput> {
        let mut st = self.state.lock().unwrap();
        let Some(due) = st.next.filter(|&due| now >= due) else {
            return Vec::new();
        };
        let i = st.deadlines.len();
        st.deadlines.push(due);
        st.next = (i + 1 < SUBMITS).then(|| now + REST);
        vec![AppOutput::Spanning {
            groups: vec![TICKS.to_string()],
            payload: Bytes::from(format!("tick-{i}")),
            seq: 0,
        }]
    }

    fn deadline(&self) -> Option<Instant> {
        self.state.lock().unwrap().next
    }
}

#[test]
fn an_application_timer_at_a_non_leader_wakes_the_resting_ring() {
    // One ring; participant 0 leads. Daemon 1 runs the ticker, whose
    // multicast is queued by a loop pass that had no ring input; an
    // observer at daemon 2 times each message against its deadline.
    let ticker = Arc::new(Ticker::default());
    let handles = spawn_local_ring(NODES, ProtocolConfig::default(), membership()).expect("ring");
    let daemons: Vec<MultiRingDaemon> = handles
        .into_iter()
        .enumerate()
        .map(|(i, node)| {
            let options = MultiRingOptions {
                app_state: (i == 1).then(|| Arc::clone(&ticker) as Arc<dyn AppState>),
                ..MultiRingOptions::default()
            };
            MultiRingDaemon::start_with(vec![node], ShardMap::new(1), options)
        })
        .collect();
    daemons[1]
        .attach_app(Arc::clone(&ticker) as Arc<dyn AppState>, "ticker", &[])
        .expect("attach");
    let obs = daemons[2].connect("obs").expect("connect");
    obs.join(TICKS).expect("join");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "no view of {TICKS}");
        match obs.events().recv_timeout(Duration::from_millis(200)) {
            Ok(ClientEvent::View { group, .. }) if group == TICKS => break,
            Ok(ClientEvent::Disconnected { reason }) => panic!("disconnected: {reason}"),
            _ => {}
        }
    }
    thread::sleep(Duration::from_millis(300));
    let probes = daemon_probes(&daemons);
    ticker.arm();
    for i in 0..SUBMITS {
        // The deadline falls inside the daemon's loop, so the report
        // counts from when the previous tick arrived.
        let before = wake_counters(&probes);
        let want = Bytes::from(format!("tick-{i}"));
        let limit = Instant::now() + 2 * REST + Duration::from_secs(1);
        loop {
            assert!(Instant::now() < limit, "tick {i} never arrived");
            match obs.events().recv_timeout(Duration::from_millis(200)) {
                Ok(ClientEvent::Message { payload, .. }) if payload == want => break,
                Ok(ClientEvent::Disconnected { reason }) => panic!("disconnected: {reason}"),
                _ => {}
            }
        }
        let waited = ticker.deadline_of(i).expect("sent").elapsed();
        assert!(
            waited < WAKE_BOUND,
            "tick {i} delivered {waited:?} after its deadline: the resting ring did not wake{}",
            wake_report(&probes, &before)
        );
    }
    for d in daemons {
        d.shutdown();
    }
}
