//! A virtual-time cluster for exercising the membership algorithm under
//! crashes, partitions, merges, and token loss.
//!
//! [`Cluster`] wires several [`MembershipDaemon`]s together with a uniform
//! message latency and a partition map. Unlike the performance simulator in
//! `accelring-sim`, it has no bandwidth model — it exists to test membership
//! *logic*, including Extended Virtual Synchrony guarantees.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use accelring_core::{Delivery, ParticipantId, ProtocolConfig, QueueFullError, Service};
use bytes::Bytes;

use crate::config::MembershipConfig;
use crate::daemon::{ConfigChange, Input, MembershipDaemon, Output, StateKind};

/// The kind of packet crossing the virtual network, as seen by a
/// [`NetHook`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// An ordered data message (original or retransmission).
    Data,
    /// The circulating token.
    Token,
    /// A membership control message (join / commit / recover traffic).
    Control,
}

/// What the network does with one packet headed from one node to another.
///
/// `delays` holds one entry per delivered copy, each an *extra* delay in
/// nanoseconds added on top of the cluster's base latency. An empty vector
/// drops the packet; two entries duplicate it; a non-zero entry reorders it
/// past later traffic.
#[derive(Debug, Clone, Default)]
pub struct SendFate {
    /// Extra delay (ns) for each delivered copy of the packet.
    pub delays: Vec<u64>,
}

impl SendFate {
    /// Deliver exactly one copy with no extra delay.
    pub fn deliver() -> SendFate {
        SendFate { delays: vec![0] }
    }

    /// Drop the packet entirely.
    pub fn drop() -> SendFate {
        SendFate { delays: Vec::new() }
    }

    /// Deliver one copy, `extra` nanoseconds late.
    pub fn delayed(extra: u64) -> SendFate {
        SendFate {
            delays: vec![extra],
        }
    }

    /// Deliver one copy per entry, each with its own extra delay.
    pub fn copies(delays: &[u64]) -> SendFate {
        SendFate {
            delays: delays.to_vec(),
        }
    }
}

/// A pluggable fault-injection hook consulted for every packet the cluster
/// would deliver (after crash and partition filtering). Implemented by the
/// chaos harness to inject seeded loss, duplication, and reordering.
pub trait NetHook: std::fmt::Debug {
    /// Decides the fate of one packet. Called once per (sender, receiver)
    /// pair, so a multicast consults the hook independently per receiver —
    /// matching the paper's receiver-side loss model.
    fn on_packet(&mut self, now: u64, from: usize, to: usize, kind: PacketKind) -> SendFate;
}

/// Events [`Cluster::run_for`] processes in a row at one virtual instant
/// before it declares a livelock. Every message takes the cluster's
/// latency to cross, so a healthy cluster handles a few events per node at
/// any instant; a million means inputs keep answering each other without
/// time passing.
const LIVELOCK_EVENTS: u64 = 1_000_000;

/// One entry in a node's interleaved event journal: what the application
/// sitting on top of this daemon observed, in observation order. The
/// interleaving of deliveries and configuration changes is exactly what the
/// EVS invariant checker needs (a delivery belongs to the configuration
/// most recently journaled before it).
#[derive(Debug, Clone)]
pub enum NodeEvent {
    /// An ordered message handed to the application.
    Delivered(Delivery),
    /// A regular or transitional configuration change.
    Config(ConfigChange),
}

#[derive(Debug)]
struct QueuedEvent {
    at: u64,
    seq: u64,
    dest: usize,
    input: Input,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A virtual-time cluster of membership daemons.
///
/// # Examples
///
/// ```
/// use accelring_membership::testing::Cluster;
/// use accelring_membership::{MembershipConfig, StateKind};
/// use accelring_core::ProtocolConfig;
///
/// let mut cluster = Cluster::new(3, ProtocolConfig::default(), MembershipConfig::for_simulation());
/// cluster.run_for(20_000_000); // 20 ms of virtual time
/// assert!(cluster.all_operational());
/// assert_eq!(cluster.ring_of(0).len(), 3);
/// ```
#[derive(Debug)]
pub struct Cluster {
    now: u64,
    nodes: Vec<MembershipDaemon>,
    started: Vec<bool>,
    crashed: Vec<bool>,
    component: Vec<usize>,
    events: BinaryHeap<Reverse<QueuedEvent>>,
    event_seq: u64,
    latency: u64,
    deliveries: Vec<Vec<Delivery>>,
    configs: Vec<Vec<ConfigChange>>,
    /// Interleaved per-node journal of deliveries and config changes.
    journal: Vec<Vec<NodeEvent>>,
    /// Drop the next N token sends (for token-loss tests).
    drop_tokens: u64,
    /// Paused nodes buffer their inputs in `stalled` and fire no timers.
    paused: Vec<bool>,
    stalled: Vec<Vec<Input>>,
    /// The (from, to) route of the most recent token send, if any.
    last_token_route: Option<(usize, usize)>,
    net_hook: Option<Box<dyn NetHook>>,
    memb_config: MembershipConfig,
}

impl Cluster {
    /// Creates and starts `n` daemons with ids `0..n`, all reachable.
    pub fn new(n: u16, proto: ProtocolConfig, memb: MembershipConfig) -> Cluster {
        let mut cluster = Cluster {
            now: 0,
            nodes: (0..n)
                .map(|i| {
                    let book = (0..n).map(ParticipantId::new);
                    MembershipDaemon::new(ParticipantId::new(i), book, proto, memb)
                })
                .collect(),
            started: vec![false; n as usize],
            crashed: vec![false; n as usize],
            component: vec![0; n as usize],
            events: BinaryHeap::new(),
            event_seq: 0,
            latency: 10_000, // 10 us
            deliveries: vec![Vec::new(); n as usize],
            configs: vec![Vec::new(); n as usize],
            journal: vec![Vec::new(); n as usize],
            drop_tokens: 0,
            paused: vec![false; n as usize],
            stalled: vec![Vec::new(); n as usize],
            last_token_route: None,
            net_hook: None,
            memb_config: memb,
        };
        for i in 0..n as usize {
            cluster.start_node(i);
        }
        cluster
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> u64 {
        self.now
    }

    fn start_node(&mut self, i: usize) {
        let mut out = Vec::new();
        self.nodes[i].start(self.now, &mut out);
        self.started[i] = true;
        self.dispatch(i, out);
    }

    fn schedule(&mut self, at: u64, dest: usize, input: Input) {
        self.event_seq += 1;
        self.events.push(Reverse(QueuedEvent {
            at,
            seq: self.event_seq,
            dest,
            input,
        }));
    }

    fn reachable(&self, from: usize, to: usize) -> bool {
        !self.crashed[to] && self.component[from] == self.component[to]
    }

    fn index_of(&self, pid: ParticipantId) -> usize {
        pid.as_usize()
    }

    /// Sends one packet through the virtual network, consulting the
    /// [`NetHook`] (if installed) for its fate.
    fn send(&mut self, from: usize, to: usize, kind: PacketKind, input: Input) {
        let fate = match self.net_hook.as_mut() {
            Some(hook) => hook.on_packet(self.now, from, to, kind),
            None => SendFate::deliver(),
        };
        for extra in fate.delays {
            self.schedule(self.now + self.latency + extra, to, input.clone());
        }
    }

    fn dispatch(&mut self, from: usize, outputs: Vec<Output>) {
        let n = self.nodes.len();
        for output in outputs {
            match output {
                Output::Multicast(msg) => {
                    for to in (0..n).filter(|&t| t != from) {
                        if self.reachable(from, to) {
                            self.send(from, to, PacketKind::Data, Input::Data(msg.clone()));
                        }
                    }
                }
                Output::SendToken { to, token } => {
                    if self.drop_tokens > 0 {
                        self.drop_tokens -= 1;
                        continue;
                    }
                    let dest = self.index_of(to);
                    if dest == from || self.reachable(from, dest) {
                        self.last_token_route = Some((from, dest));
                        self.send(from, dest, PacketKind::Token, Input::Token(token));
                    }
                }
                Output::SendControl { to, msg } => match to {
                    Some(to) => {
                        let dest = self.index_of(to);
                        if dest == from || self.reachable(from, dest) {
                            self.send(from, dest, PacketKind::Control, Input::Control(msg));
                        }
                    }
                    None => {
                        for dest in (0..n).filter(|&t| t != from) {
                            if self.reachable(from, dest) {
                                self.send(
                                    from,
                                    dest,
                                    PacketKind::Control,
                                    Input::Control(msg.clone()),
                                );
                            }
                        }
                    }
                },
                Output::Deliver(d) => {
                    self.journal[from].push(NodeEvent::Delivered(d.clone()));
                    self.deliveries[from].push(d);
                }
                Output::ConfigChange(c) => {
                    self.journal[from].push(NodeEvent::Config(c.clone()));
                    self.configs[from].push(c);
                }
            }
        }
    }

    /// Advances virtual time by `duration` nanoseconds, processing events
    /// and timers.
    ///
    /// # Panics
    ///
    /// Panics once a million events in a row were processed at one
    /// virtual instant: a livelock then fails with its seed instead of
    /// growing the event queue until memory runs out. The message names
    /// the instant and the last event's node and input.
    pub fn run_for(&mut self, duration: u64) {
        enum Next {
            Event,
            Timer(usize, crate::daemon::TimerKind),
        }
        let end = self.now + duration;
        // Events processed in a row without virtual time advancing.
        let mut at_this_instant = 0u64;
        loop {
            let next_event = self.events.peek().map(|Reverse(e)| e.at);
            let next_timer = (0..self.nodes.len())
                .filter(|&i| !self.crashed[i] && !self.paused[i] && self.started[i])
                .filter_map(|i| self.nodes[i].next_timer().map(|(d, k)| (d, i, k)))
                .min();
            let (at, next) = match (next_event, next_timer) {
                (None, None) => break,
                (Some(e), None) => (e, Next::Event),
                (None, Some((t, i, k))) => (t, Next::Timer(i, k)),
                (Some(e), Some((t, i, k))) => {
                    if e <= t {
                        (e, Next::Event)
                    } else {
                        (t, Next::Timer(i, k))
                    }
                }
            };
            if at > end {
                break;
            }
            at_this_instant = if at == self.now {
                at_this_instant + 1
            } else {
                0
            };
            self.now = at;
            match next {
                Next::Timer(node, kind) => {
                    self.livelock_guard(at_this_instant, node, &Input::Timer(kind));
                    let mut out = Vec::new();
                    self.nodes[node].handle(self.now, Input::Timer(kind), &mut out);
                    self.dispatch(node, out);
                }
                Next::Event => {
                    let Reverse(ev) = self.events.pop().expect("peeked event exists");
                    self.livelock_guard(at_this_instant, ev.dest, &ev.input);
                    if self.crashed[ev.dest] {
                        continue;
                    }
                    if self.paused[ev.dest] {
                        // A paused node's NIC keeps receiving; the process
                        // consumes the backlog when it resumes.
                        self.stalled[ev.dest].push(ev.input);
                        continue;
                    }
                    let mut out = Vec::new();
                    self.nodes[ev.dest].handle(self.now, ev.input, &mut out);
                    self.dispatch(ev.dest, out);
                }
            }
        }
        self.now = end;
    }

    fn livelock_guard(&self, at_this_instant: u64, node: usize, input: &Input) {
        assert!(
            at_this_instant < LIVELOCK_EVENTS,
            "livelock: {LIVELOCK_EVENTS} events at virtual time {} ns without time \
             advancing; the last for node {node}: {input:?}",
            self.now
        );
    }

    /// Splits the cluster into partition groups; nodes not named fall into
    /// their own singleton component.
    pub fn partition(&mut self, groups: &[&[usize]]) {
        let n = self.nodes.len();
        for (i, c) in self.component.iter_mut().enumerate() {
            *c = n + i; // default: isolated
        }
        for (gid, group) in groups.iter().enumerate() {
            for &i in *group {
                self.component[i] = gid;
            }
        }
        // Drop in-flight cross-partition traffic, as a real partition would.
        let events = std::mem::take(&mut self.events);
        for Reverse(e) in events {
            // We do not know the sender any more; keep only events whose
            // destination could still plausibly receive them. Conservative:
            // keep everything (stale ring ids are rejected by the daemons).
            self.events.push(Reverse(e));
        }
    }

    /// Reconnects every node into one component.
    pub fn heal(&mut self) {
        for c in self.component.iter_mut() {
            *c = 0;
        }
    }

    /// Crashes a node: it stops processing everything. Any backlog a
    /// paused node accumulated dies with the process.
    pub fn crash(&mut self, i: usize) {
        self.crashed[i] = true;
        self.paused[i] = false;
        self.stalled[i].clear();
    }

    /// Restarts a crashed node as a fresh process (empty state, same id):
    /// it gathers and rejoins the ring, exactly like a recovered daemon
    /// rejoining a Spread configuration. The ring counter survives the
    /// restart, modelling the ring sequence number Totem keeps on stable
    /// storage — without it a recovered daemon could re-form a ring id
    /// already used before the crash, and configuration identifiers would
    /// no longer be unique.
    pub fn restart(&mut self, i: usize) {
        assert!(self.crashed[i], "only crashed nodes can restart");
        let pid = ParticipantId::new(i as u16);
        let proto = *self.nodes[i].protocol_config();
        let memb = self.memb_config;
        let stable_counter = self.nodes[i].max_ring_counter();
        let book = (0..self.nodes.len() as u16).map(ParticipantId::new);
        self.nodes[i] = MembershipDaemon::new(pid, book, proto, memb);
        self.nodes[i].restore_ring_counter(stable_counter);
        self.crashed[i] = false;
        self.start_node(i);
    }

    /// Drops the next `n` token transmissions (token-loss injection).
    pub fn drop_next_tokens(&mut self, n: u64) {
        self.drop_tokens = n;
    }

    /// Installs a [`NetHook`] consulted for every subsequent packet.
    pub fn set_net_hook(&mut self, hook: Box<dyn NetHook>) {
        self.net_hook = Some(hook);
    }

    /// Removes the installed [`NetHook`]; delivery reverts to lossless.
    pub fn clear_net_hook(&mut self) {
        self.net_hook = None;
    }

    /// Pauses a node: its timers stop firing and arriving inputs queue up
    /// until [`Cluster::resume`]. Models a stalled process (GC pause,
    /// debugger stop, CPU starvation) as opposed to a crash.
    pub fn pause(&mut self, i: usize) {
        assert!(!self.crashed[i], "cannot pause a crashed node");
        self.paused[i] = true;
    }

    /// Resumes a paused node; its input backlog is processed immediately
    /// and overdue timers fire at the current virtual time.
    pub fn resume(&mut self, i: usize) {
        if !self.paused[i] {
            return;
        }
        self.paused[i] = false;
        for input in std::mem::take(&mut self.stalled[i]) {
            let mut out = Vec::new();
            self.nodes[i].handle(self.now, input, &mut out);
            self.dispatch(i, out);
        }
        self.wake_step(i);
    }

    /// Runs node `i`'s wake step, as a live ring node does after taking
    /// submits: a resting ring turns for its queued messages. A paused
    /// node runs it on resume.
    fn wake_step(&mut self, i: usize) {
        if self.paused[i] {
            return;
        }
        let mut out = Vec::new();
        self.nodes[i].wake_step(self.now, &mut out);
        self.dispatch(i, out);
    }

    /// Whether node `i` is currently paused.
    pub fn is_paused(&self, i: usize) -> bool {
        self.paused[i]
    }

    /// Whether node `i` is currently crashed.
    pub fn is_crashed(&self, i: usize) -> bool {
        self.crashed[i]
    }

    /// Number of daemons in the cluster (crashed ones included).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false: clusters have at least one node.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The `(from, to)` route of the most recent token transmission, if
    /// any. Lets a fault injector target the current token holder.
    pub fn last_token_route(&self) -> Option<(usize, usize)> {
        self.last_token_route
    }

    /// The interleaved journal of deliveries and config changes observed
    /// at node `i`, in observation order.
    pub fn journal(&self, i: usize) -> &[NodeEvent] {
        &self.journal[i]
    }

    /// Queues an application message at node `i`.
    ///
    /// # Panics
    ///
    /// Panics if the node's send queue is full or the node has crashed.
    pub fn submit(&mut self, i: usize, payload: Bytes, service: Service) {
        self.try_submit(i, payload, service)
            .expect("test queue should not fill");
    }

    /// Queues an application message at node `i`, reporting backpressure
    /// instead of panicking. Used by the chaos harness, whose faults can
    /// legitimately stall the send queue.
    ///
    /// # Panics
    ///
    /// Panics if the node has crashed.
    pub fn try_submit(
        &mut self,
        i: usize,
        payload: Bytes,
        service: Service,
    ) -> Result<(), QueueFullError> {
        assert!(!self.crashed[i], "cannot submit to a crashed node");
        self.nodes[i].submit(payload, service)?;
        self.wake_step(i);
        Ok(())
    }

    /// Whether every live node is Operational.
    pub fn all_operational(&self) -> bool {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.crashed[*i])
            .all(|(_, n)| n.state() == StateKind::Operational)
    }

    /// The membership state of node `i`.
    pub fn state_of(&self, i: usize) -> StateKind {
        self.nodes[i].state()
    }

    /// The ring currently installed at node `i`.
    pub fn ring_of(&self, i: usize) -> Vec<ParticipantId> {
        self.nodes[i].ring().members().to_vec()
    }

    /// Messages delivered at node `i`, in order.
    pub fn deliveries(&self, i: usize) -> &[Delivery] {
        &self.deliveries[i]
    }

    /// Configuration changes delivered at node `i`, in order.
    pub fn configs(&self, i: usize) -> &[ConfigChange] {
        &self.configs[i]
    }

    /// Direct access to a daemon.
    pub fn node(&self, i: usize) -> &MembershipDaemon {
        &self.nodes[i]
    }

    /// Number of queued in-flight events (diagnostics).
    pub fn queue_len(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn cluster(n: u16) -> Cluster {
        Cluster::new(
            n,
            ProtocolConfig::default(),
            MembershipConfig::for_simulation(),
        )
    }

    #[test]
    fn cold_start_forms_full_ring() {
        let mut c = cluster(5);
        c.run_for(30 * MS);
        assert!(c.all_operational());
        let expected: Vec<_> = (0..5).map(ParticipantId::new).collect();
        for i in 0..5 {
            assert_eq!(c.ring_of(i), expected, "node {i} ring");
            let configs = c.configs(i);
            assert!(!configs.is_empty());
            assert!(!configs.last().unwrap().transitional);
            assert_eq!(configs.last().unwrap().members, expected);
        }
    }

    #[test]
    fn messages_flow_after_formation() {
        let mut c = cluster(4);
        c.run_for(30 * MS);
        assert!(c.all_operational());
        for i in 0..4 {
            c.submit(i, Bytes::from(format!("msg-{i}")), Service::Agreed);
        }
        c.run_for(20 * MS);
        let expected: Vec<_> = c.deliveries(0).iter().map(|d| d.payload.clone()).collect();
        assert_eq!(expected.len(), 4);
        for i in 1..4 {
            let got: Vec<_> = c.deliveries(i).iter().map(|d| d.payload.clone()).collect();
            assert_eq!(got, expected, "node {i} delivery order");
        }
    }

    #[test]
    fn safe_messages_flow_after_formation() {
        let mut c = cluster(3);
        c.run_for(30 * MS);
        c.submit(0, Bytes::from_static(b"safe"), Service::Safe);
        c.run_for(20 * MS);
        for i in 0..3 {
            assert_eq!(c.deliveries(i).len(), 1, "node {i}");
            assert_eq!(c.deliveries(i)[0].service, Service::Safe);
        }
    }

    #[test]
    fn single_token_loss_recovers_without_membership_change() {
        let mut c = cluster(3);
        c.run_for(30 * MS);
        assert!(c.all_operational());
        let rings_before: u64 = (0..3).map(|i| c.node(i).stats().rings_formed).sum();
        c.drop_next_tokens(1);
        c.run_for(30 * MS);
        assert!(c.all_operational());
        let rings_after: u64 = (0..3).map(|i| c.node(i).stats().rings_formed).sum();
        assert_eq!(rings_before, rings_after, "no new ring was formed");
        let retransmits: u64 = (0..3).map(|i| c.node(i).stats().tokens_retransmitted).sum();
        assert!(retransmits >= 1, "the retransmit timer repaired the loss");
        // And traffic still flows.
        c.submit(0, Bytes::from_static(b"after"), Service::Agreed);
        c.run_for(10 * MS);
        assert!(c.deliveries(2).iter().any(|d| d.payload == "after"));
    }

    #[test]
    fn crash_shrinks_the_ring() {
        let mut c = cluster(4);
        c.run_for(30 * MS);
        assert!(c.all_operational());
        c.crash(2);
        c.run_for(60 * MS);
        assert!(c.all_operational());
        let expected: Vec<_> = [0u16, 1, 3]
            .iter()
            .map(|&i| ParticipantId::new(i))
            .collect();
        for i in [0usize, 1, 3] {
            assert_eq!(c.ring_of(i), expected, "node {i} ring after crash");
        }
        // Traffic still flows among survivors.
        c.submit(0, Bytes::from_static(b"post-crash"), Service::Agreed);
        c.run_for(10 * MS);
        assert!(c.deliveries(3).iter().any(|d| d.payload == "post-crash"));
    }

    #[test]
    fn partition_forms_two_rings() {
        let mut c = cluster(6);
        c.run_for(30 * MS);
        assert!(c.all_operational());
        c.partition(&[&[0, 1, 2], &[3, 4, 5]]);
        c.run_for(60 * MS);
        assert!(c.all_operational());
        let left: Vec<_> = (0..3u16).map(ParticipantId::new).collect();
        let right: Vec<_> = (3..6u16).map(ParticipantId::new).collect();
        for i in 0..3 {
            assert_eq!(c.ring_of(i), left, "left node {i}");
        }
        for i in 3..6 {
            assert_eq!(c.ring_of(i), right, "right node {i}");
        }
        // Each side orders its own traffic.
        c.submit(0, Bytes::from_static(b"left"), Service::Agreed);
        c.submit(3, Bytes::from_static(b"right"), Service::Agreed);
        c.run_for(20 * MS);
        assert!(c.deliveries(1).iter().any(|d| d.payload == "left"));
        assert!(!c.deliveries(1).iter().any(|d| d.payload == "right"));
        assert!(c.deliveries(4).iter().any(|d| d.payload == "right"));
    }

    #[test]
    fn merge_after_heal() {
        let mut c = cluster(4);
        c.run_for(30 * MS);
        c.partition(&[&[0, 1], &[2, 3]]);
        c.run_for(60 * MS);
        assert!(c.all_operational());
        assert_eq!(c.ring_of(0).len(), 2);
        c.heal();
        c.run_for(80 * MS);
        assert!(c.all_operational());
        let expected: Vec<_> = (0..4u16).map(ParticipantId::new).collect();
        for i in 0..4 {
            assert_eq!(c.ring_of(i), expected, "node {i} after merge");
        }
        c.submit(2, Bytes::from_static(b"merged"), Service::Agreed);
        c.run_for(20 * MS);
        for i in 0..4 {
            assert!(
                c.deliveries(i).iter().any(|d| d.payload == "merged"),
                "node {i} got the post-merge message"
            );
        }
    }

    #[test]
    fn evs_config_sequences_are_consistent() {
        // All members of each regular configuration deliver that
        // configuration with identical membership.
        let mut c = cluster(4);
        c.run_for(30 * MS);
        c.partition(&[&[0, 1], &[2, 3]]);
        c.run_for(60 * MS);
        c.heal();
        c.run_for(80 * MS);
        // Collect regular configs per node.
        for i in 0..4 {
            let regs: Vec<_> = c.configs(i).iter().filter(|cc| !cc.transitional).collect();
            assert!(regs.len() >= 2, "node {i} saw initial + post-merge configs");
            // Each regular config this node delivered includes the node.
            for cc in &regs {
                assert!(
                    cc.members.contains(&ParticipantId::new(i as u16)),
                    "config includes its deliverer"
                );
            }
        }
        // The final config is identical everywhere.
        let last0 = c.configs(0).last().unwrap().clone();
        for i in 1..4 {
            assert_eq!(c.configs(i).last().unwrap().ring_id, last0.ring_id);
            assert_eq!(c.configs(i).last().unwrap().members, last0.members);
        }
    }

    #[test]
    fn transitional_config_delivered_on_membership_change() {
        let mut c = cluster(3);
        c.run_for(30 * MS);
        assert!(c.all_operational());
        c.crash(2);
        c.run_for(60 * MS);
        for i in [0usize, 1] {
            let transitional: Vec<_> = c.configs(i).iter().filter(|cc| cc.transitional).collect();
            assert!(
                !transitional.is_empty(),
                "node {i} delivered a transitional config"
            );
            let t = transitional.last().unwrap();
            // The transitional configuration contains only survivors of the
            // old ring that continued together.
            assert!(t.members.contains(&ParticipantId::new(i as u16)));
            assert!(!t.members.contains(&ParticipantId::new(2)));
        }
    }

    #[test]
    fn crashed_node_rejoins_after_restart() {
        let mut c = cluster(4);
        c.run_for(30 * MS);
        assert!(c.all_operational());
        c.crash(1);
        c.run_for(60 * MS);
        assert_eq!(c.ring_of(0).len(), 3, "survivors shrank the ring");
        c.restart(1);
        c.run_for(60 * MS);
        assert!(c.all_operational());
        let expected: Vec<_> = (0..4u16).map(ParticipantId::new).collect();
        for i in 0..4 {
            assert_eq!(c.ring_of(i), expected, "node {i} sees the full ring again");
        }
        // The rejoined node participates in ordering.
        c.submit(1, Bytes::from_static(b"back"), Service::Safe);
        c.run_for(20 * MS);
        for i in 0..4 {
            assert!(
                c.deliveries(i).iter().any(|d| d.payload == "back"),
                "node {i} received the rejoined node's message"
            );
        }
    }

    #[test]
    fn restart_storm_converges() {
        let mut c = cluster(5);
        c.run_for(30 * MS);
        // Crash and restart several nodes in quick succession.
        c.crash(1);
        c.crash(3);
        c.run_for(10 * MS);
        c.restart(1);
        c.run_for(5 * MS);
        c.restart(3);
        c.run_for(100 * MS);
        assert!(c.all_operational());
        assert_eq!(c.ring_of(0).len(), 5, "everyone back in one ring");
    }

    #[test]
    fn token_loss_during_reformation_still_converges() {
        // Lose a burst of ordering tokens exactly while membership is
        // re-forming (Gather/Commit after a crash): the commit phase must
        // not wedge, and the new ring's initial token must regenerate.
        let mut c = cluster(4);
        c.run_for(30 * MS);
        assert!(c.all_operational());
        c.crash(2);
        c.drop_next_tokens(8);
        c.run_for(120 * MS);
        assert!(c.all_operational());
        assert_eq!(c.ring_of(0).len(), 3);
        c.submit(0, Bytes::from_static(b"post-burst"), Service::Agreed);
        c.run_for(20 * MS);
        for i in [0usize, 1, 3] {
            assert!(
                c.deliveries(i).iter().any(|d| d.payload == "post-burst"),
                "node {i} delivers after the token burst"
            );
        }
    }

    #[test]
    fn token_holder_crash_mid_rotation_recovers() {
        // Crash the daemon the token was just sent to: the token dies with
        // it, the survivors' token-loss timeout fires, and a 3-ring forms.
        let mut c = cluster(4);
        c.run_for(30 * MS);
        assert!(c.all_operational());
        let (_, holder) = c.last_token_route().expect("token is rotating");
        c.crash(holder);
        c.run_for(120 * MS);
        assert!(c.all_operational());
        let survivors: Vec<usize> = (0..4).filter(|&i| i != holder).collect();
        for &i in &survivors {
            assert_eq!(c.ring_of(i).len(), 3, "node {i} ring after holder crash");
            assert!(!c.ring_of(i).contains(&ParticipantId::new(holder as u16)));
        }
        c.submit(
            survivors[0],
            Bytes::from_static(b"sans-holder"),
            Service::Safe,
        );
        c.run_for(20 * MS);
        for &i in &survivors {
            assert!(
                c.deliveries(i).iter().any(|d| d.payload == "sans-holder"),
                "node {i} delivers without the crashed holder"
            );
        }
    }

    #[test]
    fn partition_isolating_single_daemon_forms_singleton() {
        let mut c = cluster(5);
        c.run_for(30 * MS);
        assert!(c.all_operational());
        c.partition(&[&[2], &[0, 1, 3, 4]]);
        c.run_for(80 * MS);
        assert!(c.all_operational());
        // The isolated daemon runs a singleton ring and still self-delivers.
        assert_eq!(c.ring_of(2), vec![ParticipantId::new(2)]);
        c.submit(2, Bytes::from_static(b"alone"), Service::Agreed);
        c.run_for(20 * MS);
        assert!(c.deliveries(2).iter().any(|d| d.payload == "alone"));
        // The majority side excludes it and keeps ordering.
        for i in [0usize, 1, 3, 4] {
            assert_eq!(c.ring_of(i).len(), 4, "node {i} majority ring");
            assert!(!c.deliveries(i).iter().any(|d| d.payload == "alone"));
        }
        // After healing, one ring again; the singleton's message stays
        // confined to its old configuration.
        c.heal();
        c.run_for(100 * MS);
        assert!(c.all_operational());
        for i in 0..5 {
            assert_eq!(c.ring_of(i).len(), 5, "node {i} after heal");
        }
    }

    #[test]
    fn messages_in_flight_at_partition_delivered_consistently() {
        let mut c = cluster(4);
        c.run_for(30 * MS);
        // Submit and immediately partition, so some messages are recovered
        // in the transitional configuration.
        for i in 0..4 {
            c.submit(i, Bytes::from(format!("inflight-{i}")), Service::Agreed);
        }
        c.run_for(200_000); // 0.2 ms: messages sent but maybe not all stable
        c.partition(&[&[0, 1], &[2, 3]]);
        c.run_for(80 * MS);
        assert!(c.all_operational());
        // Within each side, delivery sequences agree on the shared prefix
        // of old-ring messages.
        let d0: Vec<_> = c.deliveries(0).iter().map(|d| d.payload.clone()).collect();
        let d1: Vec<_> = c.deliveries(1).iter().map(|d| d.payload.clone()).collect();
        let common = d0.len().min(d1.len());
        assert_eq!(d0[..common], d1[..common], "left side agrees");
        let d2: Vec<_> = c.deliveries(2).iter().map(|d| d.payload.clone()).collect();
        let d3: Vec<_> = c.deliveries(3).iter().map(|d| d.payload.clone()).collect();
        let common = d2.len().min(d3.len());
        assert_eq!(d2[..common], d3[..common], "right side agrees");
    }

    #[test]
    #[should_panic(expected = "livelock: 1000000 events at virtual time 0 ns")]
    fn a_livelock_fails_instead_of_running_forever() {
        // With every timeout zero, the join rebroadcast re-arms itself at
        // the instant it fires; partitioned, no message grows the queue.
        let mut c = Cluster::new(
            2,
            ProtocolConfig::default(),
            MembershipConfig::for_simulation().scaled(0),
        );
        c.partition(&[&[0], &[1]]);
        c.run_for(MS);
    }
}
