//! The discrete-event simulator: node runtimes (CPU model + dual receive
//! sockets) over the [`Fabric`], driving `accelring-core` participants.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use accelring_core::{
    Action, DataMessage, Delivery, Participant, ProtocolConfig, Ring, Round, Seq, Service, Stats,
    Token,
};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fabric::{Fabric, FabricStats};
use crate::loss::{LossSpec, LossState};
use crate::metrics::LatencyRecorder;
use crate::profiles::{ImplProfile, NetworkProfile};
use crate::time::{SimDuration, SimTime};

/// How application messages are generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Each node's sending client injects fixed-size messages at
    /// `aggregate_bps / n` bits per second of clean application data,
    /// mirroring the paper's daemon/Spread benchmarks.
    FixedRate {
        /// Total offered clean-payload rate across all senders.
        aggregate_bps: u64,
    },
    /// Every node's send queue is topped up at each token visit, so each
    /// participant always sends a full personal window — the paper's
    /// library-prototype methodology for probing maximum throughput.
    Saturating,
}

#[derive(Debug)]
enum EventKind {
    DataArrival { node: usize, msg: DataMessage },
    TokenArrival { node: usize, token: Token },
    Wake { node: usize },
    Inject { node: usize },
}

#[derive(Debug)]
struct Event {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

#[derive(Debug)]
struct SimNode {
    participant: Participant,
    token_q: VecDeque<Token>,
    data_q: VecDeque<DataMessage>,
    cpu_free: SimTime,
    loss: LossState,
    rng: StdRng,
    socket_drops: u64,
    inject_interval: SimDuration,
}

/// One delivery observed at node 0, for offline stream processing (the
/// multi-ring merge harness replays these through its merger).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Simulated delivery time in nanoseconds.
    pub at_ns: u64,
    /// Token round the message was initiated in (the merge key input).
    pub round: Round,
    /// Ring sequence number of the message.
    pub seq: Seq,
    /// Payload length in bytes.
    pub payload_len: usize,
}

/// Aggregated outcome counters of a simulation run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunCounters {
    /// Deliveries (message × receiver pairs) inside the measurement window.
    pub delivered_in_window: u64,
    /// All deliveries over the whole run.
    pub delivered_total: u64,
    /// Data datagrams dropped at full receive sockets.
    pub socket_drops: u64,
    /// Messages dropped by the injected loss model.
    pub loss_drops: u64,
    /// Submissions rejected by full send queues (backpressure).
    pub submit_rejected: u64,
}

/// The simulator: an 8-node (or any-size) ring over a single switch.
///
/// Construct with [`Simulator::new`], then call [`Simulator::run`]. For the
/// paper's experiments use the higher-level [`crate::harness`] API instead.
#[derive(Debug)]
pub struct Simulator {
    nodes: Vec<SimNode>,
    fabric: Fabric,
    events: BinaryHeap<Event>,
    event_seq: u64,
    profile: ImplProfile,
    payload_len: usize,
    service: Service,
    workload: Workload,
    warmup: SimDuration,
    measure: SimDuration,
    horizon: SimTime,
    recorder: LatencyRecorder,
    counters: RunCounters,
    now: SimTime,
    /// Time of the previous token arrival at node 0 and the collected
    /// rotation durations (ns) — the paper's per-round quantity.
    last_rotation_mark: Option<SimTime>,
    rotations_ns: Vec<u64>,
    /// When set, every delivery at node 0 is appended here (enabled by
    /// [`Simulator::with_node0_log`]).
    node0_log: Option<Vec<DeliveryRecord>>,
}

impl Simulator {
    /// Builds a simulator over `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `payload_len < 8` (the payload carries an 8-byte inject
    /// timestamp) or `n == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        n: u16,
        protocol: ProtocolConfig,
        network: NetworkProfile,
        profile: ImplProfile,
        loss: LossSpec,
        workload: Workload,
        payload_len: usize,
        service: Service,
        warmup: SimDuration,
        measure: SimDuration,
        seed: u64,
    ) -> Simulator {
        assert!(payload_len >= 8, "payload must hold an inject timestamp");
        assert!(
            loss.token_rate() == 0.0,
            "the performance simulator has no token-recovery machinery; \
             token-dropping LossSpec::Chaos belongs to the chaos harness"
        );
        let ring = Ring::of_size(n);
        let members = ring.members().to_vec();
        let inject_interval = match workload {
            Workload::FixedRate { aggregate_bps } => {
                let per_node_bps = aggregate_bps as f64 / f64::from(n);
                let msgs_per_sec = per_node_bps / (payload_len as f64 * 8.0);
                SimDuration::from_secs_f64(1.0 / msgs_per_sec)
            }
            Workload::Saturating => SimDuration::ZERO,
        };
        let nodes: Vec<SimNode> = members
            .iter()
            .enumerate()
            .map(|(i, &id)| SimNode {
                participant: Participant::new(id, ring.clone(), protocol)
                    .expect("member of its own ring"),
                token_q: VecDeque::new(),
                data_q: VecDeque::new(),
                cpu_free: SimTime::ZERO,
                loss: LossState::new(loss, &members, i, seed),
                rng: StdRng::seed_from_u64(seed.wrapping_add(i as u64 * 7919)),
                socket_drops: 0,
                inject_interval,
            })
            .collect();
        // Generous drain so in-flight messages settle after injection stops.
        let horizon = SimTime::ZERO + warmup + measure + SimDuration::from_millis(200);
        Simulator {
            fabric: Fabric::new(network, nodes.len()),
            nodes,
            events: BinaryHeap::new(),
            event_seq: 0,
            profile,
            payload_len,
            service,
            workload,
            warmup,
            measure,
            horizon,
            recorder: LatencyRecorder::new(),
            counters: RunCounters::default(),
            now: SimTime::ZERO,
            last_rotation_mark: None,
            rotations_ns: Vec::new(),
            node0_log: None,
        }
    }

    /// Enables recording of every delivery observed at node 0 into
    /// [`SimOutcome::node0_log`] (off by default; the log can be large).
    #[must_use]
    pub fn with_node0_log(mut self) -> Simulator {
        self.node0_log = Some(Vec::new());
        self
    }

    fn schedule(&mut self, time: SimTime, kind: EventKind) {
        self.event_seq += 1;
        self.events.push(Event {
            time,
            seq: self.event_seq,
            kind,
        });
    }

    /// Runs the simulation to its horizon and returns the results.
    pub fn run(mut self) -> SimOutcome {
        // Bootstrap: the membership algorithm has formed the ring and hands
        // the first token to position 0.
        let ring_id = self.nodes[0].participant.ring().id();
        self.schedule(
            SimTime::ZERO,
            EventKind::TokenArrival {
                node: 0,
                token: Token::initial(ring_id),
            },
        );
        if let Workload::FixedRate { .. } = self.workload {
            for i in 0..self.nodes.len() {
                // Stagger starts to avoid phase lockstep.
                let phase = self.nodes[i].rng.random::<f64>();
                let start = SimTime::ZERO
                    + SimDuration::from_nanos(
                        (self.nodes[i].inject_interval.as_nanos() as f64 * phase) as u64,
                    );
                self.schedule(start, EventKind::Inject { node: i });
            }
        }

        while let Some(event) = self.events.pop() {
            if event.time > self.horizon {
                break;
            }
            self.now = event.time;
            match event.kind {
                EventKind::DataArrival { node, msg } => {
                    let cap = self.fabric.network().data_socket_capacity;
                    let n = &mut self.nodes[node];
                    if n.loss.drops(&msg) {
                        self.counters.loss_drops += 1;
                    } else if n.data_q.len() >= cap {
                        n.socket_drops += 1;
                    } else {
                        n.data_q.push_back(msg);
                        self.try_run(node);
                    }
                }
                EventKind::TokenArrival { node, token } => {
                    if node == 0 {
                        // One full rotation completed each time the token
                        // returns to node 0 (within the measure window).
                        let start = SimTime::ZERO + self.warmup;
                        let stop = start + self.measure;
                        if self.now >= start && self.now < stop {
                            if let Some(prev) = self.last_rotation_mark {
                                self.rotations_ns.push(self.now.since(prev).as_nanos());
                            }
                        }
                        self.last_rotation_mark = Some(self.now);
                    }
                    self.nodes[node].token_q.push_back(token);
                    self.try_run(node);
                }
                EventKind::Wake { node } => self.try_run(node),
                EventKind::Inject { node } => {
                    let inject_stop = SimTime::ZERO + self.warmup + self.measure;
                    if self.now < inject_stop {
                        let payload = self.make_payload(self.now);
                        if self.nodes[node]
                            .participant
                            .submit(payload, self.service)
                            .is_err()
                        {
                            self.counters.submit_rejected += 1;
                        }
                        // Next injection with +-10% jitter.
                        let base = self.nodes[node].inject_interval.as_nanos() as f64;
                        let jitter = 0.9 + 0.2 * self.nodes[node].rng.random::<f64>();
                        let next = self.now + SimDuration::from_nanos((base * jitter) as u64);
                        self.schedule(next, EventKind::Inject { node });
                    }
                }
            }
        }

        let mut stats = Vec::with_capacity(self.nodes.len());
        let mut socket_drops = 0;
        for n in &self.nodes {
            stats.push(*n.participant.stats());
            socket_drops += n.socket_drops;
        }
        self.counters.socket_drops = socket_drops;
        SimOutcome {
            latency: self.recorder,
            counters: self.counters,
            fabric: self.fabric.stats(),
            participant_stats: stats,
            payload_len: self.payload_len,
            measure: self.measure,
            nodes: self.nodes.len(),
            rotations_ns: self.rotations_ns,
            node0_log: self.node0_log.unwrap_or_default(),
        }
    }

    fn make_payload(&self, now: SimTime) -> Bytes {
        let mut buf = vec![0u8; self.payload_len];
        buf[..8].copy_from_slice(&now.as_nanos().to_le_bytes());
        Bytes::from(buf)
    }

    /// Runs the node's CPU if it is free and work is waiting.
    fn try_run(&mut self, idx: usize) {
        let now = self.now;
        if self.nodes[idx].cpu_free > now {
            return; // a Wake is already scheduled for when the CPU frees up
        }
        let has_token = !self.nodes[idx].token_q.is_empty();
        let has_data = !self.nodes[idx].data_q.is_empty();
        if !has_token && !has_data {
            return;
        }
        // Section III-D: read the high-priority socket first; fall back to
        // whichever has traffic.
        let take_token =
            has_token && (!has_data || self.nodes[idx].participant.token_has_priority());

        let mut t = now;
        let mut actions = Vec::new();
        if take_token {
            if let Workload::Saturating = self.workload {
                self.refill(idx, now);
            }
            let token = self.nodes[idx]
                .token_q
                .pop_front()
                .expect("checked non-empty");
            t += self.profile.token_proc_cost;
            // Rounds run on virtual time, as on a clocked deployment.
            self.nodes[idx]
                .participant
                .handle_token(token, now.as_nanos() / 1_000, &mut actions);
        } else {
            let msg = self.nodes[idx]
                .data_q
                .pop_front()
                .expect("checked non-empty");
            t += self.profile.recv_cost;
            self.nodes[idx].participant.handle_data(msg, &mut actions);
        }

        let n_nodes = self.nodes.len();
        for action in actions {
            match action {
                Action::Multicast(msg) => {
                    t += self.profile.send_cost;
                    let dests: Vec<usize> = (0..n_nodes).filter(|&d| d != idx).collect();
                    let len = msg.wire_len();
                    for (dest, at) in self.fabric.transmit(idx, len, t, &dests) {
                        self.schedule(
                            at,
                            EventKind::DataArrival {
                                node: dest,
                                msg: msg.clone(),
                            },
                        );
                    }
                }
                Action::SendToken { to, token } => {
                    t += self.profile.token_send_cost;
                    let dest = self.nodes[idx]
                        .participant
                        .ring()
                        .index_of(to)
                        .expect("successor is a member");
                    let len = token.wire_len();
                    for (d, at) in self.fabric.transmit(idx, len, t, &[dest]) {
                        self.schedule(
                            at,
                            EventKind::TokenArrival {
                                node: d,
                                token: token.clone(),
                            },
                        );
                    }
                }
                Action::Deliver(d) => {
                    t += self.profile.deliver_cost;
                    self.record_delivery(idx, &d, t);
                }
                Action::Discard { .. } => {}
            }
        }

        self.nodes[idx].cpu_free = t;
        self.schedule(t, EventKind::Wake { node: idx });
    }

    fn refill(&mut self, idx: usize, now: SimTime) {
        let want = self.nodes[idx].participant.config().personal_window() as usize;
        while self.nodes[idx].participant.send_queue_len() < want {
            let payload = self.make_payload(now);
            if self.nodes[idx]
                .participant
                .submit(payload, self.service)
                .is_err()
            {
                break;
            }
        }
    }

    fn record_delivery(&mut self, idx: usize, d: &Delivery, at: SimTime) {
        if idx == 0 {
            if let Some(log) = &mut self.node0_log {
                log.push(DeliveryRecord {
                    at_ns: at.as_nanos(),
                    round: d.round,
                    seq: d.seq,
                    payload_len: d.payload.len(),
                });
            }
        }
        self.counters.delivered_total += 1;
        let start = SimTime::ZERO + self.warmup;
        let stop = start + self.measure;
        if at >= start && at < stop {
            self.counters.delivered_in_window += 1;
        }
        let inject = SimTime::from_nanos(u64::from_le_bytes(
            d.payload[..8]
                .try_into()
                .expect("payload holds a timestamp"),
        ));
        if inject >= start && inject < stop {
            self.recorder.record(d.sender, at.since(inject));
        }
    }
}

/// Raw outputs of a simulation run, consumed by the harness.
#[derive(Debug)]
pub struct SimOutcome {
    /// Latency samples (per message × receiver, grouped by sender).
    pub latency: LatencyRecorder,
    /// Run counters.
    pub counters: RunCounters,
    /// Fabric counters.
    pub fabric: FabricStats,
    /// Per-participant protocol counters.
    pub participant_stats: Vec<Stats>,
    /// Payload size used.
    pub payload_len: usize,
    /// Measurement window length.
    pub measure: SimDuration,
    /// Number of nodes.
    pub nodes: usize,
    /// Durations of complete token rotations observed during the
    /// measurement window, in nanoseconds.
    pub rotations_ns: Vec<u64>,
    /// Deliveries observed at node 0, in delivery order (empty unless the
    /// run was built with [`Simulator::with_node0_log`]).
    pub node0_log: Vec<DeliveryRecord>,
}

impl SimOutcome {
    /// Measured clean goodput in bits per second: payload bits delivered to
    /// each receiver inside the measurement window, normalized by the number
    /// of receivers (so it is directly comparable with the offered aggregate
    /// sending rate).
    pub fn goodput_bps(&self) -> f64 {
        let bits = self.counters.delivered_in_window as f64 * self.payload_len as f64 * 8.0;
        bits / self.nodes as f64 / self.measure.as_secs_f64()
    }

    /// Total retransmissions multicast across the ring.
    pub fn retransmissions(&self) -> u64 {
        self.participant_stats
            .iter()
            .map(|s| s.retransmissions_sent)
            .sum()
    }

    /// Total new messages multicast across the ring.
    pub fn messages_sent(&self) -> u64 {
        self.participant_stats.iter().map(|s| s.messages_sent).sum()
    }

    /// Mean token-rotation time during the measurement window — the
    /// quantity the paper's analysis centres on ("the accelerated protocol
    /// takes less time to complete a token round").
    pub fn mean_rotation(&self) -> SimDuration {
        if self.rotations_ns.is_empty() {
            return SimDuration::ZERO;
        }
        let sum: u128 = self.rotations_ns.iter().map(|&v| u128::from(v)).sum();
        SimDuration::from_nanos((sum / self.rotations_ns.len() as u128) as u64)
    }

    /// Retransmission rate: retransmissions per original message (can
    /// exceed 1.0 under heavy loss, as in the paper).
    pub fn retransmission_rate(&self) -> f64 {
        let sent = self.messages_sent();
        if sent == 0 {
            0.0
        } else {
            self.retransmissions() as f64 / sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelring_core::Variant;

    fn quick_sim(protocol: ProtocolConfig, rate_mbps: u64, service: Service) -> SimOutcome {
        Simulator::new(
            8,
            protocol,
            NetworkProfile::gigabit(),
            ImplProfile::daemon(),
            LossSpec::None,
            Workload::FixedRate {
                aggregate_bps: rate_mbps * 1_000_000,
            },
            1350,
            service,
            SimDuration::from_millis(30),
            SimDuration::from_millis(80),
            42,
        )
        .run()
    }

    #[test]
    fn moderate_rate_is_fully_delivered() {
        let out = quick_sim(ProtocolConfig::accelerated(20, 15), 200, Service::Agreed);
        let goodput = out.goodput_bps();
        assert!(
            (goodput - 200e6).abs() / 200e6 < 0.05,
            "goodput {goodput:.0} should be within 5% of offered 200 Mbps"
        );
        assert_eq!(out.retransmissions(), 0, "no loss, no retransmissions");
        assert_eq!(out.counters.socket_drops, 0);
        assert_eq!(out.fabric.switch_drops, 0);
    }

    #[test]
    fn latency_samples_are_collected() {
        let out = quick_sim(ProtocolConfig::accelerated(20, 15), 100, Service::Agreed);
        assert!(!out.latency.is_empty());
        let stats = out.latency.stats();
        assert!(stats.mean > SimDuration::ZERO);
        assert!(stats.max >= stats.p99);
        assert!(stats.p99 >= stats.p50);
    }

    #[test]
    fn accelerated_beats_original_latency_at_same_rate() {
        // The paper's headline claim, at a moderate 1-gigabit rate.
        let orig = quick_sim(ProtocolConfig::original(20), 300, Service::Agreed);
        let accel = quick_sim(ProtocolConfig::accelerated(20, 15), 300, Service::Agreed);
        let lo = orig.latency.stats().mean;
        let la = accel.latency.stats().mean;
        assert!(
            la < lo,
            "accelerated mean latency {la} must beat original {lo}"
        );
    }

    #[test]
    fn safe_latency_exceeds_agreed_latency() {
        let agreed = quick_sim(ProtocolConfig::accelerated(20, 15), 200, Service::Agreed);
        let safe = quick_sim(ProtocolConfig::accelerated(20, 15), 200, Service::Safe);
        assert!(safe.latency.stats().mean > agreed.latency.stats().mean);
    }

    #[test]
    fn saturating_workload_reaches_high_goodput() {
        let out = Simulator::new(
            8,
            ProtocolConfig::accelerated(30, 30),
            NetworkProfile::gigabit(),
            ImplProfile::library(),
            LossSpec::None,
            Workload::Saturating,
            1350,
            Service::Agreed,
            SimDuration::from_millis(30),
            SimDuration::from_millis(80),
            7,
        )
        .run();
        let goodput = out.goodput_bps();
        assert!(
            goodput > 800e6,
            "library saturating run should approach line rate, got {goodput:.0}"
        );
    }

    #[test]
    fn loss_causes_retransmissions_and_recovery() {
        let out = Simulator::new(
            8,
            ProtocolConfig::accelerated(20, 15),
            NetworkProfile::ten_gigabit(),
            ImplProfile::daemon(),
            LossSpec::bernoulli(0.05),
            Workload::FixedRate {
                aggregate_bps: 200_000_000,
            },
            1350,
            Service::Agreed,
            SimDuration::from_millis(20),
            SimDuration::from_millis(50),
            3,
        )
        .run();
        assert!(out.counters.loss_drops > 0, "loss model must fire");
        assert!(out.retransmissions() > 0, "losses must be repaired");
        // Goodput still matches the offered rate: recovery works.
        let goodput = out.goodput_bps();
        assert!(
            (goodput - 200e6).abs() / 200e6 < 0.08,
            "goodput {goodput:.0} should stay near offered rate under 5% loss"
        );
    }

    #[test]
    fn node0_log_records_ordered_deliveries() {
        let out = Simulator::new(
            4,
            ProtocolConfig::accelerated(20, 15),
            NetworkProfile::gigabit(),
            ImplProfile::daemon(),
            LossSpec::None,
            Workload::FixedRate {
                aggregate_bps: 50_000_000,
            },
            1350,
            Service::Agreed,
            SimDuration::from_millis(10),
            SimDuration::from_millis(30),
            42,
        )
        .with_node0_log()
        .run();
        assert!(!out.node0_log.is_empty(), "log must capture deliveries");
        // Node 0 delivers in ring order: seqs strictly increase, rounds
        // and timestamps never decrease.
        for w in out.node0_log.windows(2) {
            assert!(w[1].seq > w[0].seq);
            assert!(w[1].round >= w[0].round);
            assert!(w[1].at_ns >= w[0].at_ns);
        }
        // Off by default.
        let plain = quick_sim(ProtocolConfig::accelerated(20, 15), 50, Service::Agreed);
        assert!(plain.node0_log.is_empty());
    }

    #[test]
    fn deterministic_runs() {
        let a = quick_sim(ProtocolConfig::accelerated(20, 15), 150, Service::Agreed);
        let b = quick_sim(ProtocolConfig::accelerated(20, 15), 150, Service::Agreed);
        assert_eq!(a.counters.delivered_total, b.counters.delivered_total);
        assert_eq!(a.latency.stats(), b.latency.stats());
    }

    #[test]
    fn accelerated_rotations_are_shorter() {
        // The mechanism behind every figure: at the same offered rate the
        // accelerated token completes rotations faster.
        let orig = quick_sim(ProtocolConfig::original(20), 400, Service::Agreed);
        let accel = quick_sim(ProtocolConfig::accelerated(20, 15), 400, Service::Agreed);
        assert!(!orig.rotations_ns.is_empty() && !accel.rotations_ns.is_empty());
        let ro = orig.mean_rotation();
        let ra = accel.mean_rotation();
        assert!(
            ra.as_nanos() * 3 < ro.as_nanos() * 2,
            "accelerated rotation {ra} must be well below original {ro}"
        );
    }

    #[test]
    fn overload_saturates_gracefully() {
        // Offer twice what the spread profile can carry on 10Gb: goodput
        // plateaus at the capacity, backpressure rejects the excess, and
        // the simulator stays healthy.
        let cfg = ProtocolConfig::builder()
            .personal_window(20)
            .accelerated_window(15)
            .global_window(160)
            .max_send_queue(256)
            .build()
            .unwrap();
        let out = Simulator::new(
            8,
            cfg,
            NetworkProfile::ten_gigabit(),
            ImplProfile::spread(),
            LossSpec::None,
            Workload::FixedRate {
                aggregate_bps: 5_000_000_000,
            },
            1350,
            Service::Agreed,
            SimDuration::from_millis(20),
            SimDuration::from_millis(60),
            11,
        )
        .run();
        let goodput = out.goodput_bps();
        assert!(
            goodput > 1.5e9 && goodput < 3.0e9,
            "plateau, got {goodput:.0}"
        );
        assert!(
            out.counters.submit_rejected > 0,
            "backpressure must reject excess offered load"
        );
    }

    #[test]
    fn shallow_socket_buffers_drop_but_recover() {
        let mut network = NetworkProfile::ten_gigabit();
        network.data_socket_capacity = 8; // absurdly small kernel buffer
        let out = Simulator::new(
            8,
            ProtocolConfig::accelerated(30, 30),
            network,
            ImplProfile::spread(),
            LossSpec::None,
            Workload::Saturating,
            1350,
            Service::Agreed,
            SimDuration::from_millis(20),
            SimDuration::from_millis(60),
            5,
        )
        .run();
        assert!(out.counters.socket_drops > 0, "tiny buffers must overflow");
        assert!(
            out.retransmissions() > 0,
            "socket drops must be repaired by retransmission"
        );
        let goodput = out.goodput_bps();
        assert!(
            goodput > 1.0e9,
            "recovery keeps most goodput, got {goodput:.0}"
        );
    }

    #[test]
    fn token_socket_is_never_dropped() {
        // Even with overloaded data sockets the token flows (separate
        // socket, paper Section IV-A4) and rounds keep advancing.
        let mut network = NetworkProfile::ten_gigabit();
        network.data_socket_capacity = 8;
        let out = Simulator::new(
            8,
            ProtocolConfig::accelerated(30, 30),
            network,
            ImplProfile::spread(),
            LossSpec::None,
            Workload::Saturating,
            1350,
            Service::Agreed,
            SimDuration::from_millis(20),
            SimDuration::from_millis(60),
            5,
        )
        .run();
        let tokens: u64 = out
            .participant_stats
            .iter()
            .map(|s| s.tokens_processed)
            .sum();
        assert!(tokens > 1000, "token kept circulating, got {tokens}");
    }

    #[test]
    fn original_variant_never_sends_post_token() {
        let out = quick_sim(
            ProtocolConfig::builder()
                .variant(Variant::Original)
                .personal_window(20)
                .accelerated_window(0)
                .global_window(160)
                .build()
                .unwrap(),
            200,
            Service::Agreed,
        );
        assert!(out.counters.delivered_total > 0);
    }
}
