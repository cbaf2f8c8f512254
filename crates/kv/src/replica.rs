//! The replica: mounts a [`KvMachine`] on a [`MultiRingDaemon`], joins
//! every partition group, and applies the merged total order — plus the
//! marker-gated snapshot protocol that lets a rejoining replica catch up
//! without losing or doubling ops.
//!
//! The replica has no thread and no socket: it is a state machine
//! (`AwaitViews → Pull → Serving`) that its daemon's loop drives through
//! the [`AppState`] mount with events, replies and `now`, carrying out
//! the [`AppOutput`]s it returns.
//!
//! ## Ordered state transfer
//!
//! A replica starting with `recovery_peers` set cannot simply copy a
//! peer's state: a snapshot cut *before* the replica's group joins were
//! ordered would miss every op between the cut and the join. The fix is
//! a marker fence ordered through the total order itself:
//!
//! 1. join all partition groups (the joins are ordered on their rings)
//!    and wait until every partition's view names the replica,
//! 2. multicast a [`KvOp::Fence`] *spanning every partition* — per-ring
//!    FIFO puts each fragment after this replica's join on that ring,
//! 3. pull snapshots from peers with [`KvQuery::Snapshot`], one peer at a
//!    time, whose gate makes a peer reply only once it has consumed the
//!    marker on every partition — so the snapshot provably covers
//!    everything ordered before the join,
//! 4. install, then replay the deliveries buffered since the join: the
//!    overlap (ops both in the snapshot and the buffer) is skipped by
//!    the machine's consumption watermarks, the rest applies.
//!
//! If no peer answers within the 5 s recovery deadline, the replica
//! serves from empty state — every peer gone *is* a fresh cluster. A
//! snapshot travels in one `SVC_REPLY` datagram, so a peer whose store
//! has outgrown one datagram cannot answer either (DESIGN.md §14).

use std::collections::BTreeSet;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use accelring_daemon::ClientEvent;
use accelring_multiring::{AppOutput, AppState, MultiRingDaemon, MultiRingError};
use bytes::Bytes;
use crossbeam::channel::Sender;

use crate::machine::{decode_reply, encode_query, KvApplied, KvMachine, KvQuery, KvReply, KvStats};
use crate::op::{encode_op, partition_groups, KvOp};

/// A position/state-hash pair a replica with [`KvConfig::beacons`] set
/// emits after every consumed fragment. Beacons from replicas at the
/// *same position* must carry the same hash — the divergence invariant
/// chaos checkers enforce.
pub type KvBeacon = (u64, u64);

/// How long a starting replica waits to see itself in every partition's
/// membership view before going on anyway. Until the views land, ops are
/// consumed by the ring engines but delivered to nobody — a replica that
/// served earlier would silently miss them.
const VIEW_DEADLINE: Duration = Duration::from_secs(20);
/// How long a recovering replica pulls snapshots before serving from
/// empty state.
const RECOVERY_DEADLINE: Duration = Duration::from_secs(5);
/// How long one peer has to answer a snapshot query before the next peer
/// is asked.
const PEER_WINDOW: Duration = Duration::from_millis(120);
/// The recovery marker's session sequence: the replica's client sends
/// nothing else.
const MARKER_SEQ: u64 = 1;

/// Settings for one [`KvStore`] replica.
#[derive(Debug, Clone)]
pub struct KvConfig {
    /// The key-space split; every replica and client of a deployment
    /// must agree.
    pub partitions: u16,
    /// This replica's client name. Must be unique per incarnation —
    /// the snapshot marker gate keys on it, so a reused name could
    /// satisfy the gate with a previous incarnation's marks.
    pub name: String,
    /// Session addresses of peer daemons to pull a KV snapshot from
    /// before serving. Empty = fresh deployment, serve immediately.
    pub recovery_peers: Vec<SocketAddr>,
    /// Where beacons go, if anywhere: one after every consumed fragment.
    pub beacons: Option<Sender<KvBeacon>>,
    /// Where commit records go, if anywhere (benches time these).
    pub applied: Option<Sender<KvApplied>>,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            partitions: 4,
            name: "kv-replica".to_string(),
            recovery_peers: Vec::new(),
            beacons: None,
            applied: None,
        }
    }
}

/// The state a replica shares with its daemon: the machine behind a
/// lock, the serving gate and the replica itself. Mount it on the daemon via
/// [`MultiRingOptions::app_state`](accelring_multiring::MultiRingOptions)
/// so local-service queries (client reads, peer snapshot pulls) are
/// answered, then hand the same `Arc` to [`KvStore::start`].
pub struct KvShared {
    machine: Mutex<KvMachine>,
    serving: AtomicBool,
    /// The running replica: `None` before [`KvStore::start`] and after
    /// its store stops.
    replica: Mutex<Option<Replica>>,
}

impl std::fmt::Debug for KvShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvShared")
            .field("serving", &self.serving.load(Ordering::Relaxed))
            .finish()
    }
}

impl KvShared {
    /// A fresh shared state over a `partitions`-way key split.
    pub fn new(partitions: u16) -> Arc<KvShared> {
        Arc::new(KvShared {
            machine: Mutex::new(KvMachine::new(partitions)),
            serving: AtomicBool::new(false),
            replica: Mutex::new(None),
        })
    }

    /// Whether the replica has finished recovery and serves reads.
    pub fn serving(&self) -> bool {
        self.serving.load(Ordering::Acquire)
    }

    /// Current value of `key` (local read, no consistency gate).
    pub fn read(&self, key: &str) -> Option<Bytes> {
        self.machine.lock().expect("kv lock").get(key).cloned()
    }

    /// The machine's position clock.
    pub fn position(&self) -> u64 {
        self.machine.lock().expect("kv lock").position()
    }

    /// The machine's state hash (see [`KvMachine::state_hash`]).
    pub fn state_hash(&self) -> u64 {
        self.machine.lock().expect("kv lock").state_hash()
    }

    /// The machine's deterministic counters.
    pub fn stats(&self) -> KvStats {
        self.machine.lock().expect("kv lock").stats()
    }

    /// Runs `f` against the locked machine — escape hatch for tests and
    /// tools that need more than the canned accessors.
    pub fn with_machine<R>(&self, f: impl FnOnce(&KvMachine) -> R) -> R {
        f(&self.machine.lock().expect("kv lock"))
    }

    /// Runs one step of the replica, if one is running.
    fn step(&self, f: impl FnOnce(&mut Replica) -> Vec<AppOutput>) -> Vec<AppOutput> {
        let mut replica = self.replica.lock().expect("kv replica lock");
        replica.as_mut().map(f).unwrap_or_default()
    }
}

impl AppState for KvShared {
    fn query(&self, body: &Bytes) -> Option<Bytes> {
        // A recovering replica must not answer: its watermarks are
        // behind, so a Local read would serve stale state and a
        // snapshot pull would hand out an incomplete machine.
        if !self.serving() {
            return None;
        }
        self.machine.lock().expect("kv lock").answer(body)
    }

    fn deliver(&self, event: ClientEvent, now: Instant) -> Vec<AppOutput> {
        self.step(|r| r.on_event(self, event, now))
    }

    fn reply(&self, nonce: u64, body: &Bytes, now: Instant) -> Vec<AppOutput> {
        self.step(|r| r.on_reply(self, nonce, body, now))
    }

    fn poll(&self, now: Instant) -> Vec<AppOutput> {
        self.step(|r| r.on_tick(self, now))
    }

    fn deadline(&self) -> Option<Instant> {
        let replica = self.replica.lock().expect("kv replica lock");
        replica.as_ref().and_then(Replica::deadline)
    }
}

/// A running replica. Dropping it, or [`KvStore::shutdown`], stops the
/// replica applying and closes the serving gate.
#[derive(Debug)]
pub struct KvStore {
    shared: Arc<KvShared>,
}

impl KvStore {
    /// Arms a replica on `shared`, then attaches its client to `daemon`,
    /// which connects it and joins every partition group. Returns at
    /// once: the daemon's loop runs recovery (the snapshot pull when
    /// [`KvConfig::recovery_peers`] is non-empty) and then applies.
    ///
    /// # Errors
    ///
    /// Returns [`MultiRingError`] when `shared` is not the application
    /// mounted on `daemon`, or the connect or a join is rejected.
    pub fn start(
        daemon: &MultiRingDaemon,
        shared: Arc<KvShared>,
        cfg: KvConfig,
    ) -> Result<KvStore, MultiRingError> {
        let name = cfg.name.clone();
        let parts = partition_groups(cfg.partitions);
        // The pull leaves through the daemon's session socket; without
        // one the replica serves from empty state once its views land.
        let pulls = daemon.session_addr().is_some();
        *shared.replica.lock().expect("kv replica lock") =
            Some(Replica::new(cfg, pulls, Instant::now()));
        let store = KvStore { shared };
        daemon.attach_app(store.shared.clone(), &name, &parts)?;
        Ok(store)
    }

    /// Stops applying and closes the serving gate.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for KvStore {
    fn drop(&mut self) {
        *self.shared.replica.lock().expect("kv replica lock") = None;
        self.shared.serving.store(false, Ordering::Release);
    }
}

/// The replica's state machine (see the module docs).
struct Replica {
    cfg: KvConfig,
    /// Whether snapshot queries can leave (the daemon has a session
    /// socket).
    pulls: bool,
    phase: Phase,
    /// The nonce of the latest snapshot query.
    nonce: u64,
    /// Messages delivered before the gate opened, replayed on top of the
    /// installed snapshot.
    buffered: Vec<ClientEvent>,
}

enum Phase {
    /// Waiting until every partition's view names the replica, or
    /// `until` passes.
    AwaitViews {
        pending: BTreeSet<String>,
        until: Instant,
    },
    /// `peer` was asked for a snapshot covering the marker and has until
    /// `until` (at the latest `deadline`, when the pull ends) to answer.
    Pull {
        peer: usize,
        until: Instant,
        deadline: Instant,
    },
    Serving,
    /// The daemon disconnected the replica's client.
    Stopped,
}

impl Replica {
    fn new(cfg: KvConfig, pulls: bool, now: Instant) -> Replica {
        // Seeded from the per-incarnation name, so a late reply to an
        // earlier replica on the same daemon socket never matches.
        let mut h = DefaultHasher::new();
        cfg.name.hash(&mut h);
        Replica {
            phase: Phase::AwaitViews {
                pending: partition_groups(cfg.partitions).into_iter().collect(),
                until: now + VIEW_DEADLINE,
            },
            cfg,
            pulls,
            nonce: h.finish(),
            buffered: Vec::new(),
        }
    }

    fn deadline(&self) -> Option<Instant> {
        match self.phase {
            Phase::AwaitViews { until, .. } | Phase::Pull { until, .. } => Some(until),
            Phase::Serving | Phase::Stopped => None,
        }
    }

    fn on_event(&mut self, shared: &KvShared, event: ClientEvent, now: Instant) -> Vec<AppOutput> {
        match (&mut self.phase, event) {
            (Phase::Stopped, _) => {}
            (_, ClientEvent::Disconnected { .. }) => {
                shared.serving.store(false, Ordering::Release);
                self.buffered.clear();
                self.phase = Phase::Stopped;
            }
            (Phase::Serving, event) => {
                self.apply(&mut shared.machine.lock().expect("kv lock"), event)
            }
            // Ordered after our join while recovery runs: keep it for
            // replay.
            (_, event @ ClientEvent::Message { .. }) => self.buffered.push(event),
            (Phase::AwaitViews { pending, .. }, ClientEvent::View { group, members }) => {
                if members.iter().any(|m| m.name == self.cfg.name) {
                    pending.remove(&group);
                }
                if pending.is_empty() {
                    return self.views_done(shared, now);
                }
            }
            _ => {}
        }
        Vec::new()
    }

    fn on_reply(
        &mut self,
        shared: &KvShared,
        nonce: u64,
        body: &Bytes,
        now: Instant,
    ) -> Vec<AppOutput> {
        let Phase::Pull { peer, deadline, .. } = self.phase else {
            return Vec::new();
        };
        if nonce != self.nonce {
            return Vec::new();
        }
        match decode_reply(body) {
            Some(KvReply::Snapshot { body }) => {
                // A snapshot that does not decode leaves this peer's
                // window running.
                if let Some(machine) = self.decode_machine(&body) {
                    self.open(shared, Some(machine));
                }
                Vec::new()
            }
            // NotYet: the peer has not consumed our marker everywhere
            // yet — ask the next one.
            _ => vec![self.ask(peer + 1, deadline, now)],
        }
    }

    fn on_tick(&mut self, shared: &KvShared, now: Instant) -> Vec<AppOutput> {
        if self.deadline().is_none_or(|t| now < t) {
            return Vec::new();
        }
        match self.phase {
            Phase::Pull { peer, deadline, .. } if now < deadline => {
                vec![self.ask(peer + 1, deadline, now)]
            }
            Phase::Pull { .. } => {
                self.open(shared, None);
                Vec::new()
            }
            _ => self.views_done(shared, now),
        }
    }

    /// Every partition's view names the replica, or [`VIEW_DEADLINE`]
    /// passed: a fresh deployment, or one that cannot pull, serves at
    /// once; a recovering replica orders its marker and asks the first
    /// peer.
    fn views_done(&mut self, shared: &KvShared, now: Instant) -> Vec<AppOutput> {
        if self.cfg.recovery_peers.is_empty() || !self.pulls {
            self.open(shared, None);
            return Vec::new();
        }
        let parts = partition_groups(self.cfg.partitions);
        let marker = AppOutput::Spanning {
            payload: encode_op(&KvOp::Fence {
                parts: parts.clone(),
            }),
            groups: parts,
            seq: MARKER_SEQ,
        };
        vec![marker, self.ask(0, now + RECOVERY_DEADLINE, now)]
    }

    /// Asks peer `peer` (modulo the peer count) for a snapshot covering
    /// the marker, under a fresh nonce.
    fn ask(&mut self, peer: usize, deadline: Instant, now: Instant) -> AppOutput {
        let peer = peer % self.cfg.recovery_peers.len();
        self.nonce = self.nonce.wrapping_add(1);
        self.phase = Phase::Pull {
            peer,
            until: (now + PEER_WINDOW).min(deadline),
            deadline,
        };
        AppOutput::Query {
            addr: self.cfg.recovery_peers[peer],
            nonce: self.nonce,
            body: encode_query(&KvQuery::Snapshot {
                client: self.cfg.name.clone(),
                min_seq: MARKER_SEQ,
            }),
        }
    }

    fn decode_machine(&self, body: &Bytes) -> Option<KvMachine> {
        KvMachine::from_snapshot(body).filter(|m| m.partitions() == self.cfg.partitions)
    }

    /// Installs `snapshot` if any, replays the buffered messages on top
    /// and opens the serving gate — in one step, so no read sees the
    /// state in between.
    fn open(&mut self, shared: &KvShared, snapshot: Option<KvMachine>) {
        let mut machine = shared.machine.lock().expect("kv lock");
        if let Some(snapshot) = snapshot {
            *machine = snapshot;
        }
        for event in std::mem::take(&mut self.buffered) {
            self.apply(&mut machine, event);
        }
        shared.serving.store(true, Ordering::Release);
        self.phase = Phase::Serving;
    }

    /// Feeds one delivered message to the machine, then reports the
    /// beacon and the commit record it produced.
    fn apply(&self, machine: &mut KvMachine, event: ClientEvent) {
        let ClientEvent::Message {
            sender,
            seq,
            groups,
            payload,
            ..
        } = event
        else {
            return;
        };
        let before = machine.position();
        let applied = machine.ingest(&sender.name, seq, &groups, &payload);
        if let Some(tx) = &self.cfg.beacons {
            if machine.position() > before {
                let _ = tx.send((machine.position(), machine.state_hash()));
            }
        }
        if let (Some(rec), Some(tx)) = (applied, &self.cfg.applied) {
            let _ = tx.send(rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::encode_reply;
    use crate::op::{partition_of, KvWrite};
    use accelring_core::{ParticipantId, Service};
    use accelring_daemon::ClientId;
    use crossbeam::channel::unbounded;

    const PARTS: u16 = 2;
    const NAME: &str = "replica-t";

    fn peers() -> Vec<SocketAddr> {
        vec![
            "127.0.0.1:7001".parse().expect("addr"),
            "127.0.0.1:7002".parse().expect("addr"),
        ]
    }

    /// A shared state with a replica armed at `t0`, as [`KvStore::start`]
    /// arms it on a daemon with a session socket.
    fn armed(cfg: KvConfig, t0: Instant) -> Arc<KvShared> {
        let shared = KvShared::new(PARTS);
        let cfg = KvConfig {
            partitions: PARTS,
            name: NAME.to_string(),
            ..cfg
        };
        *shared.replica.lock().expect("lock") = Some(Replica::new(cfg, true, t0));
        shared
    }

    fn with_peers() -> KvConfig {
        KvConfig {
            recovery_peers: peers(),
            ..KvConfig::default()
        }
    }

    fn client(name: &str) -> ClientId {
        ClientId {
            daemon: ParticipantId::new(0),
            name: name.to_string(),
        }
    }

    fn view(group: &str, members: &[&str]) -> ClientEvent {
        ClientEvent::View {
            group: group.to_string(),
            members: members.iter().map(|m| client(m)).collect(),
        }
    }

    /// Writer `w`'s put of `key`, ordered under session sequence `seq`.
    fn put(seq: u64, key: &str, value: &str) -> ClientEvent {
        ClientEvent::Message {
            sender: client("w"),
            seq,
            groups: vec![partition_of(key, PARTS)],
            payload: encode_op(&KvOp::Write {
                writes: vec![KvWrite::Put {
                    key: key.to_string(),
                    value: Bytes::from(value.to_string()),
                }],
            }),
            service: Service::Agreed,
        }
    }

    /// The snapshot of a machine that consumed `events`.
    fn snapshot_after(events: Vec<ClientEvent>) -> Bytes {
        let mut m = KvMachine::new(PARTS);
        for event in events {
            if let ClientEvent::Message {
                sender,
                seq,
                groups,
                payload,
                ..
            } = event
            {
                m.ingest(&sender.name, seq, &groups, &payload);
            }
        }
        m.snapshot()
    }

    /// Delivers every partition's view naming the replica.
    fn all_views(shared: &KvShared, now: Instant) -> Vec<AppOutput> {
        partition_groups(PARTS)
            .iter()
            .flat_map(|g| shared.deliver(view(g, &[NAME]), now))
            .collect()
    }

    /// The peer address and nonce of the one query in `outputs`.
    fn query_of(outputs: &[AppOutput]) -> (SocketAddr, u64) {
        let queries: Vec<(SocketAddr, u64)> = outputs
            .iter()
            .filter_map(|o| match o {
                AppOutput::Query { addr, nonce, .. } => Some((*addr, *nonce)),
                AppOutput::Spanning { .. } => None,
            })
            .collect();
        assert_eq!(queries.len(), 1, "one query in {outputs:?}");
        queries[0]
    }

    fn not_yet() -> Bytes {
        encode_reply(&KvReply::NotYet { mark: 0 })
    }

    #[test]
    fn without_peers_buffered_messages_apply_in_order_once_every_view_names_the_replica() {
        let t0 = Instant::now();
        let (applied_tx, applied_rx) = unbounded();
        let (beacon_tx, beacon_rx) = unbounded();
        let shared = armed(
            KvConfig {
                applied: Some(applied_tx),
                beacons: Some(beacon_tx),
                ..KvConfig::default()
            },
            t0,
        );
        assert!(shared.deliver(view("kv.0", &[NAME]), t0).is_empty());
        // A view that does not name the replica does not count.
        assert!(shared.deliver(view("kv.1", &["other"]), t0).is_empty());
        shared.deliver(put(1, "k", "a"), t0);
        shared.deliver(put(2, "k", "b"), t0);
        assert!(!shared.serving());
        assert_eq!(shared.position(), 0);

        assert!(shared
            .deliver(view("kv.1", &["other", NAME]), t0)
            .is_empty());
        assert!(shared.serving());
        assert_eq!(shared.deadline(), None);
        assert_eq!(shared.read("k"), Some(Bytes::from("b")));
        let seqs: Vec<u64> = applied_rx.try_iter().map(|rec| rec.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
        let positions: Vec<u64> = beacon_rx.try_iter().map(|(pos, _)| pos).collect();
        assert_eq!(positions, vec![1, 2], "a beacon after every fragment");

        // Serving: deliveries apply as they arrive.
        shared.deliver(put(3, "k", "c"), t0);
        assert_eq!(shared.read("k"), Some(Bytes::from("c")));
    }

    #[test]
    fn views_that_never_arrive_end_at_the_view_deadline() {
        let t0 = Instant::now();
        let shared = armed(KvConfig::default(), t0);
        assert_eq!(shared.deadline(), Some(t0 + VIEW_DEADLINE));
        assert!(shared
            .poll(t0 + VIEW_DEADLINE - Duration::from_millis(1))
            .is_empty());
        assert!(!shared.serving());
        assert!(shared.poll(t0 + VIEW_DEADLINE).is_empty());
        assert!(shared.serving());
    }

    #[test]
    fn the_marker_goes_out_after_the_views_then_the_first_peer_is_asked() {
        let t0 = Instant::now();
        let shared = armed(with_peers(), t0);
        assert!(shared.deliver(view("kv.0", &[NAME]), t0).is_empty());
        let t1 = t0 + Duration::from_millis(3);
        let out = shared.deliver(view("kv.1", &[NAME]), t1);
        assert_eq!(out.len(), 2);
        let parts = partition_groups(PARTS);
        assert_eq!(
            out[0],
            AppOutput::Spanning {
                groups: parts.clone(),
                payload: encode_op(&KvOp::Fence { parts }),
                seq: MARKER_SEQ,
            }
        );
        let AppOutput::Query { addr, body, .. } = &out[1] else {
            panic!("expected a query, got {:?}", out[1]);
        };
        assert_eq!(*addr, peers()[0]);
        assert_eq!(
            crate::machine::decode_query(body),
            Some(KvQuery::Snapshot {
                client: NAME.to_string(),
                min_seq: MARKER_SEQ,
            })
        );
        assert_eq!(shared.deadline(), Some(t1 + PEER_WINDOW));
        assert!(!shared.serving());
    }

    #[test]
    fn not_yet_or_a_silent_peer_moves_the_pull_to_the_next_peer() {
        let t0 = Instant::now();
        let shared = armed(with_peers(), t0);
        let (first, n0) = query_of(&all_views(&shared, t0));
        assert_eq!(first, peers()[0]);

        let (next, n1) = query_of(&shared.reply(n0, &not_yet(), t0));
        assert_eq!(next, peers()[1]);
        assert_ne!(n1, n0);

        // Peer 1 stays silent for its whole window: back to peer 0.
        assert!(shared.poll(t0 + PEER_WINDOW / 2).is_empty());
        let (again, n2) = query_of(&shared.poll(t0 + PEER_WINDOW));
        assert_eq!(again, peers()[0]);
        assert!(n2 != n0 && n2 != n1);
        assert!(!shared.serving());
    }

    #[test]
    fn a_reply_with_a_stale_nonce_is_ignored() {
        let t0 = Instant::now();
        let shared = armed(with_peers(), t0);
        let (_, n0) = query_of(&all_views(&shared, t0));
        let (_, n1) = query_of(&shared.reply(n0, &not_yet(), t0));
        let snapshot = encode_reply(&KvReply::Snapshot {
            body: snapshot_after(vec![put(1, "k", "a")]),
        });
        assert!(shared.reply(n0, &snapshot, t0).is_empty());
        assert!(shared.reply(n1 + 1, &snapshot, t0).is_empty());
        assert!(!shared.serving());
        assert_eq!(shared.position(), 0);
        // The current nonce still lands.
        shared.reply(n1, &snapshot, t0);
        assert!(shared.serving());
    }

    #[test]
    fn a_snapshot_reply_installs_replays_the_buffer_and_opens_the_gate_in_one_step() {
        let t0 = Instant::now();
        let shared = armed(with_peers(), t0);
        // Delivered before the views land and during the pull.
        shared.deliver(put(2, "k", "b"), t0);
        let (_, nonce) = query_of(&all_views(&shared, t0));
        shared.deliver(put(3, "k", "c"), t0);
        // The peer's snapshot already holds seqs 1 and 2.
        let body = snapshot_after(vec![put(1, "k", "a"), put(2, "k", "b")]);
        let reply = encode_reply(&KvReply::Snapshot { body });

        assert!(shared.reply(nonce, &reply, t0).is_empty());
        assert!(shared.serving());
        assert_eq!(shared.read("k"), Some(Bytes::from("c")));
        assert_eq!(shared.position(), 3);
        assert_eq!(shared.stats().replay_skipped, 1, "seq 2 overlapped");
        assert_eq!(shared.deadline(), None);
    }

    #[test]
    fn the_recovery_deadline_serves_empty() {
        let t0 = Instant::now();
        let shared = armed(with_peers(), t0);
        all_views(&shared, t0);
        shared.poll(t0 + RECOVERY_DEADLINE);
        assert!(shared.serving());
        assert_eq!(shared.position(), 0);
        assert_eq!(shared.read("k"), None);
    }

    #[test]
    fn without_a_session_socket_the_replica_goes_straight_to_the_fallbacks() {
        let t0 = Instant::now();
        let shared = KvShared::new(PARTS);
        let cfg = KvConfig {
            partitions: PARTS,
            name: NAME.to_string(),
            ..with_peers()
        };
        *shared.replica.lock().expect("lock") = Some(Replica::new(cfg, false, t0));
        shared.deliver(put(1, "k", "a"), t0);
        assert!(all_views(&shared, t0).is_empty(), "no marker, no query");
        assert!(shared.serving());
        assert_eq!(shared.read("k"), Some(Bytes::from("a")));
    }

    #[test]
    fn disconnected_closes_the_gate() {
        let t0 = Instant::now();
        let shared = armed(KvConfig::default(), t0);
        all_views(&shared, t0);
        assert!(shared.serving());
        let reason = "daemon shutdown".to_string();
        shared.deliver(ClientEvent::Disconnected { reason }, t0);
        assert!(!shared.serving());
        shared.deliver(put(1, "k", "a"), t0);
        assert_eq!(shared.position(), 0, "a stopped replica applies nothing");
        assert_eq!(shared.deadline(), None);
    }
}
