//! The replica: mounts a [`KvMachine`] on a [`MultiRingDaemon`], joins
//! every partition group, and applies the merged total order — plus the
//! ordered state transfer that lets a rejoining replica catch up without
//! losing or doubling ops.
//!
//! The replica has no thread and no socket: it is a state machine
//! (`AwaitViews → Recover → Serving`) that its daemon's loop drives
//! through the [`AppState`] mount with events and `now`, carrying out
//! the [`AppOutput`]s it returns.
//!
//! ## Ordered state transfer
//!
//! A replica started with [`KvConfig::recover`] cannot simply copy a
//! peer's state: a snapshot cut *before* the replica's group joins were
//! ordered would miss every op between the cut and the join. So the
//! snapshot is cut at a point of the total order and travels on it:
//!
//! 1. join every partition group and the replica's *recovery group* —
//!    the group named after the replica — and wait until every one of
//!    those views names the replica,
//! 2. multicast a [`KvOp::Fence`] marker *spanning every partition* —
//!    per-ring FIFO puts each fragment after this replica's join on
//!    that ring,
//! 3. every serving replica that commits the marker multicasts its
//!    [`KvMachine::snapshot`], its state exactly at the marker, to the
//!    recovery group: unsequenced, and split into fragments by the
//!    engine above 48 KiB,
//! 4. install the first snapshot that covers the marker on every
//!    partition, then replay the deliveries buffered since the join: the
//!    overlap (ops both in the snapshot and the buffer) is skipped by the
//!    machine's consumption watermarks, the rest applies. Later copies
//!    are dropped.
//!
//! Only a replica's marker makes a peer send its store: the marker must
//! commit from a sender that is in every partition view the peer holds.
//! A message addressed to no partition group — one on the recovery
//! group — never reaches the machine. A replica whose marker has come
//! back on every partition and that then receives no snapshot for 5 s
//! serves from empty state: no serving peer ordered the marker, so this
//! is a fresh cluster. A marker that never comes back keeps the gate
//! closed.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use accelring_daemon::ClientEvent;
use accelring_multiring::{AppOutput, AppState, MultiRingDaemon, MultiRingError};
use bytes::Bytes;
use crossbeam::channel::Sender;

use crate::machine::{KvApplied, KvMachine, KvStats};
use crate::op::{decode_op, encode_op, partition_groups, KvOp};

/// A position/state-hash pair a replica with [`KvConfig::beacons`] set
/// emits after every consumed fragment. Beacons from replicas at the
/// *same position* must carry the same hash — the divergence invariant
/// chaos checkers enforce.
pub type KvBeacon = (u64, u64);

/// How long a starting replica waits to see itself in every awaited
/// view before going on anyway. Until the views land, ops are consumed
/// by the ring engines but delivered to nobody — a replica that served
/// earlier would silently miss them.
const VIEW_DEADLINE: Duration = Duration::from_secs(20);
/// How long a recovering replica waits for a snapshot once its marker
/// has come back on every partition, before serving from empty state.
const RECOVERY_DEADLINE: Duration = Duration::from_secs(5);
/// The recovery marker's session sequence: the replica's client sends
/// nothing else sequenced.
const MARKER_SEQ: u64 = 1;

/// Settings for one [`KvStore`] replica.
#[derive(Debug, Clone)]
pub struct KvConfig {
    /// The key-space split; every replica and client of a deployment
    /// must agree.
    pub partitions: u16,
    /// This replica's client name, which also names its recovery group.
    /// Must be unique per incarnation: the daemons drop a reused name's
    /// marker as a duplicate of the previous incarnation's, and its
    /// marks would let a snapshot cut before the rejoin pass as one
    /// covering it.
    pub name: String,
    /// Whether the replica rejoins a running deployment and recovers the
    /// store through ordered state transfer before serving. `false` = a
    /// fresh deployment: serve as soon as the views land.
    pub recover: bool,
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
            recover: false,
            beacons: None,
            applied: None,
        }
    }
}

/// The state a replica shares with its daemon: the machine behind a
/// lock, the serving gate and the replica itself. Mount it on the daemon via
/// [`MultiRingOptions::app_state`](accelring_multiring::MultiRingOptions)
/// so client reads (local-service queries) are answered, then hand the
/// same `Arc` to [`KvStore::start`].
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
        // behind, so a read would serve stale state.
        if !self.serving() {
            return None;
        }
        self.machine.lock().expect("kv lock").answer(body)
    }

    fn deliver(&self, event: ClientEvent, now: Instant) -> Vec<AppOutput> {
        self.step(|r| r.on_event(self, event, now))
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
    /// which connects it and joins every partition group (and, with
    /// [`KvConfig::recover`], the replica's recovery group). Returns at
    /// once: the daemon's loop runs recovery and then applies.
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
        let replica = Replica::new(cfg, Instant::now());
        let groups: Vec<String> = replica.awaited().cloned().collect();
        *shared.replica.lock().expect("kv replica lock") = Some(replica);
        let store = KvStore { shared };
        daemon.attach_app(store.shared.clone(), &name, &groups)?;
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
    /// The partition groups, in order.
    parts: Vec<String>,
    phase: Phase,
    /// The latest view of every group the replica's client is in:
    /// member names by group.
    views: BTreeMap<String, BTreeSet<String>>,
    /// Messages delivered before the gate opened, replayed on top of the
    /// installed snapshot.
    buffered: Vec<ClientEvent>,
}

enum Phase {
    /// Waiting until every awaited view names the replica, or `until`
    /// passes.
    AwaitViews {
        until: Instant,
    },
    /// The marker is out. `unseen` holds the partitions it has not come
    /// back on yet; once none is left, the replica serves from empty
    /// state at `until` unless a snapshot lands first.
    Recover {
        unseen: BTreeSet<String>,
        until: Option<Instant>,
    },
    Serving,
    /// The daemon disconnected the replica's client.
    Stopped,
}

impl Replica {
    fn new(cfg: KvConfig, now: Instant) -> Replica {
        Replica {
            parts: partition_groups(cfg.partitions),
            cfg,
            phase: Phase::AwaitViews {
                until: now + VIEW_DEADLINE,
            },
            views: BTreeMap::new(),
            buffered: Vec::new(),
        }
    }

    /// The groups the replica joins and waits to see itself in: every
    /// partition and, when recovering, its recovery group.
    fn awaited(&self) -> impl Iterator<Item = &String> {
        let recovery = self.cfg.recover.then_some(&self.cfg.name);
        self.parts.iter().chain(recovery)
    }

    fn deadline(&self) -> Option<Instant> {
        match self.phase {
            Phase::AwaitViews { until } => Some(until),
            Phase::Recover { until, .. } => until,
            Phase::Serving | Phase::Stopped => None,
        }
    }

    fn on_event(&mut self, shared: &KvShared, event: ClientEvent, now: Instant) -> Vec<AppOutput> {
        match (&mut self.phase, event) {
            (Phase::Stopped, _) | (_, ClientEvent::Config { .. }) => {}
            (_, ClientEvent::Disconnected { .. }) => {
                shared.serving.store(false, Ordering::Release);
                self.buffered.clear();
                self.phase = Phase::Stopped;
            }
            (_, ClientEvent::View { group, members }) => {
                let names = members.into_iter().map(|m| m.name).collect();
                self.views.insert(group, names);
                let named = self.awaited().all(|g| {
                    self.views
                        .get(g)
                        .is_some_and(|m| m.contains(&self.cfg.name))
                });
                if named && matches!(self.phase, Phase::AwaitViews { .. }) {
                    return self.views_done(shared);
                }
            }
            // Addressed to no partition: a message on the recovery group,
            // which the machine never sees.
            (
                _,
                ClientEvent::Message {
                    groups, payload, ..
                },
            ) if !groups.iter().any(|g| self.parts.contains(g)) => {
                self.on_recovery_message(shared, &payload)
            }
            (Phase::Serving, event) => {
                let mut machine = shared.machine.lock().expect("kv lock");
                if let Some(rejoiner) = self.apply(&mut machine, &event) {
                    // The machine stands exactly at the marker: the state
                    // the rejoiner's buffer continues from.
                    return vec![AppOutput::Spanning {
                        groups: vec![rejoiner],
                        payload: machine.snapshot(),
                        seq: 0,
                    }];
                }
            }
            // Ordered after our join while recovery runs: keep it for
            // replay, noting where our own marker has come back.
            (phase, event) => {
                if let (
                    Phase::Recover { unseen, until },
                    ClientEvent::Message {
                        sender,
                        seq: MARKER_SEQ,
                        groups,
                        ..
                    },
                ) = (phase, &event)
                {
                    if sender.name == self.cfg.name {
                        unseen.retain(|g| !groups.contains(g));
                        if unseen.is_empty() {
                            until.get_or_insert(now + RECOVERY_DEADLINE);
                        }
                    }
                }
                self.buffered.push(event);
            }
        }
        Vec::new()
    }

    fn on_tick(&mut self, shared: &KvShared, now: Instant) -> Vec<AppOutput> {
        if self.deadline().is_none_or(|t| now < t) {
            return Vec::new();
        }
        if let Phase::AwaitViews { .. } = self.phase {
            return self.views_done(shared);
        }
        // The marker is back everywhere and no snapshot came.
        self.open(shared, None);
        Vec::new()
    }

    /// Every awaited view names the replica, or [`VIEW_DEADLINE`]
    /// passed: a fresh replica serves at once; a recovering one orders
    /// its marker.
    fn views_done(&mut self, shared: &KvShared) -> Vec<AppOutput> {
        if !self.cfg.recover {
            self.open(shared, None);
            return Vec::new();
        }
        self.phase = Phase::Recover {
            unseen: self.parts.iter().cloned().collect(),
            until: None,
        };
        vec![AppOutput::Spanning {
            payload: encode_op(&KvOp::Fence {
                parts: self.parts.clone(),
            }),
            groups: self.parts.clone(),
            seq: MARKER_SEQ,
        }]
    }

    /// A message on the recovery group: while recovering, a snapshot
    /// that covers this replica's marker on every partition installs;
    /// anything else is dropped.
    fn on_recovery_message(&mut self, shared: &KvShared, payload: &Bytes) {
        if !matches!(self.phase, Phase::Recover { .. }) {
            return;
        }
        let snapshot = KvMachine::from_snapshot(payload).filter(|m| {
            m.partitions() == self.cfg.partitions
                && self
                    .parts
                    .iter()
                    .all(|g| m.mark(g, &self.cfg.name) >= MARKER_SEQ)
        });
        if snapshot.is_some() {
            self.open(shared, snapshot);
        }
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
            self.apply(&mut machine, &event);
        }
        shared.serving.store(true, Ordering::Release);
        self.phase = Phase::Serving;
    }

    /// Feeds one delivered message to the machine and reports the
    /// beacon and the commit record it produced. Returns the sender when
    /// the message committed another replica's recovery marker: a fence
    /// over every partition under [`MARKER_SEQ`] from a sender in every
    /// partition view this replica holds — so neither a client's fence
    /// nor a session's write makes the replicas send their stores.
    fn apply(&self, machine: &mut KvMachine, event: &ClientEvent) -> Option<String> {
        let ClientEvent::Message {
            sender,
            seq,
            groups,
            payload,
            ..
        } = event
        else {
            return None;
        };
        let before = machine.position();
        let applied = machine.ingest(&sender.name, *seq, groups, payload);
        if let Some(tx) = &self.cfg.beacons {
            if machine.position() > before {
                let _ = tx.send((machine.position(), machine.state_hash()));
            }
        }
        let applied = applied?;
        let marker = applied.seq == MARKER_SEQ
            && self.parts.iter().all(|g| {
                self.views
                    .get(g)
                    .is_some_and(|m| m.contains(&applied.client))
            })
            && matches!(decode_op(payload), Some(KvOp::Fence { parts }) if parts == self.parts);
        let rejoiner = marker.then(|| applied.client.clone());
        if let Some(tx) = &self.cfg.applied {
            let _ = tx.send(applied);
        }
        rejoiner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{partition_of, KvWrite};
    use accelring_core::{ParticipantId, Service};
    use accelring_daemon::ClientId;
    use crossbeam::channel::unbounded;
    use proptest::prelude::*;

    const PARTS: u16 = 2;
    const NAME: &str = "replica-t";
    const PEER: &str = "replica-p";

    /// A shared state with a replica armed at `t0`, as [`KvStore::start`]
    /// arms it.
    fn armed(cfg: KvConfig, t0: Instant) -> Arc<KvShared> {
        let shared = KvShared::new(PARTS);
        let cfg = KvConfig {
            partitions: PARTS,
            name: NAME.to_string(),
            ..cfg
        };
        *shared.replica.lock().expect("lock") = Some(Replica::new(cfg, t0));
        shared
    }

    fn recovering() -> KvConfig {
        KvConfig {
            recover: true,
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

    fn message(sender: &str, seq: u64, groups: Vec<String>, payload: Bytes) -> ClientEvent {
        ClientEvent::Message {
            sender: client(sender),
            seq,
            groups,
            payload,
            service: Service::Agreed,
        }
    }

    /// Writer `w`'s put of `key`, ordered under session sequence `seq`.
    fn put(seq: u64, key: &str, value: &str) -> ClientEvent {
        let op = KvOp::Write {
            writes: vec![KvWrite::Put {
                key: key.to_string(),
                value: Bytes::from(value.to_string()),
            }],
        };
        message("w", seq, vec![partition_of(key, PARTS)], encode_op(&op))
    }

    /// `sender`'s fence over `parts`, as delivered on the rings named in
    /// `groups` (one fragment per ring).
    fn fence(sender: &str, seq: u64, parts: &[String], groups: &[String]) -> ClientEvent {
        let op = KvOp::Fence {
            parts: parts.to_vec(),
        };
        message(sender, seq, groups.to_vec(), encode_op(&op))
    }

    /// `sender`'s recovery marker, one fragment per partition.
    fn marker_fragments(sender: &str) -> Vec<ClientEvent> {
        let parts = partition_groups(PARTS);
        parts
            .iter()
            .map(|g| fence(sender, MARKER_SEQ, &parts, std::slice::from_ref(g)))
            .collect()
    }

    /// A message on `NAME`'s recovery group.
    fn on_recovery_group(payload: Bytes) -> ClientEvent {
        message(PEER, 0, vec![NAME.to_string()], payload)
    }

    /// Feeds `events` to `m` as a replica would.
    fn consume(m: &mut KvMachine, events: &[ClientEvent]) {
        for event in events {
            if let ClientEvent::Message {
                sender,
                seq,
                groups,
                payload,
                ..
            } = event
            {
                m.ingest(&sender.name, *seq, groups, payload);
            }
        }
    }

    /// Delivers every partition's view naming `members`, then `NAME`'s
    /// recovery group view.
    fn all_views(shared: &KvShared, members: &[&str], now: Instant) -> Vec<AppOutput> {
        partition_groups(PARTS)
            .iter()
            .chain([&NAME.to_string()])
            .flat_map(|g| shared.deliver(view(g, members), now))
            .collect()
    }

    /// Delivers `events` in order, collecting what the replica put out.
    fn deliver_all(shared: &KvShared, events: Vec<ClientEvent>, now: Instant) -> Vec<AppOutput> {
        events
            .into_iter()
            .flat_map(|e| shared.deliver(e, now))
            .collect()
    }

    #[test]
    fn a_fresh_replica_applies_buffered_messages_in_order_once_every_view_names_it() {
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
    fn the_marker_goes_out_once_the_recovery_group_view_names_the_replica_too() {
        let t0 = Instant::now();
        let shared = armed(recovering(), t0);
        let replica = shared.replica.lock().expect("lock");
        let awaited: Vec<String> = replica
            .as_ref()
            .expect("armed")
            .awaited()
            .cloned()
            .collect();
        assert_eq!(
            awaited,
            ["kv.0", "kv.1", NAME],
            "the groups the replica joins"
        );
        drop(replica);
        for g in partition_groups(PARTS) {
            assert!(shared.deliver(view(&g, &[NAME]), t0).is_empty());
        }
        let out = shared.deliver(view(NAME, &[NAME]), t0);
        let parts = partition_groups(PARTS);
        assert_eq!(
            out,
            vec![AppOutput::Spanning {
                groups: parts.clone(),
                payload: encode_op(&KvOp::Fence { parts }),
                seq: MARKER_SEQ,
            }]
        );
        assert_eq!(
            shared.deadline(),
            None,
            "no deadline until the marker is back"
        );
        assert!(!shared.serving());
    }

    #[test]
    fn a_serving_replica_answers_a_peer_marker_with_one_snapshot_to_its_recovery_group() {
        let t0 = Instant::now();
        let shared = armed(KvConfig::default(), t0);
        all_views(&shared, &[NAME, PEER], t0);
        assert!(shared.serving());
        shared.deliver(put(1, "k", "a"), t0);

        let mut fragments = marker_fragments(PEER);
        let last = fragments.pop().expect("two fragments");
        assert!(deliver_all(&shared, fragments, t0).is_empty());
        let out = shared.deliver(last, t0);
        // The state exactly at the marker, the marker itself included.
        let mut at_marker = KvMachine::new(PARTS);
        consume(&mut at_marker, &[put(1, "k", "a")]);
        consume(&mut at_marker, &marker_fragments(PEER));
        assert_eq!(
            out,
            vec![AppOutput::Spanning {
                groups: vec![PEER.to_string()],
                payload: at_marker.snapshot(),
                seq: 0,
            }]
        );
        // Later ops send nothing.
        assert!(shared.deliver(put(2, "k", "b"), t0).is_empty());
    }

    #[test]
    fn client_fences_and_markers_from_outside_the_views_send_nothing() {
        let t0 = Instant::now();
        let shared = armed(KvConfig::default(), t0);
        // Q is in every partition's view, PEER in kv.0's only.
        shared.deliver(view("kv.0", &[NAME, PEER, "replica-q"]), t0);
        shared.deliver(view("kv.1", &[NAME, "replica-q"]), t0);
        assert!(shared.serving());
        let parts = partition_groups(PARTS);

        // A linearizable read's fence through one partition, even from a
        // sender in every view.
        let one = vec![parts[0].clone()];
        let out = shared.deliver(fence("replica-q", MARKER_SEQ, &one, &one), t0);
        assert!(out.is_empty(), "{out:?}");
        // A spanning fence from a sender missing from kv.1's view, and
        // from a client in no view at all.
        for sender in [PEER, "client-c"] {
            let out = deliver_all(&shared, marker_fragments(sender), t0);
            assert!(out.is_empty(), "{sender}: {out:?}");
        }
        assert_eq!(shared.stats().applied_ops, 3, "every fence committed");
    }

    #[test]
    fn the_first_snapshot_installs_replays_the_buffer_and_later_copies_are_dropped() {
        let t0 = Instant::now();
        let shared = armed(recovering(), t0);
        // Delivered before the views land and while recovery runs.
        shared.deliver(put(2, "k", "b"), t0);
        assert_eq!(all_views(&shared, &[NAME], t0).len(), 1, "the marker");
        deliver_all(&shared, marker_fragments(NAME), t0);
        shared.deliver(put(3, "k", "c"), t0);

        // A snapshot cut before the marker does not cover it.
        let mut before = KvMachine::new(PARTS);
        consume(&mut before, &[put(1, "k", "a"), put(2, "k", "b")]);
        assert!(shared
            .deliver(on_recovery_group(before.snapshot()), t0)
            .is_empty());
        assert!(!shared.serving());

        // The peer's snapshot at the marker holds seq 1, seq 2 and the
        // marker; seq 2 and the marker overlap the buffer.
        let mut at_marker = before;
        consume(&mut at_marker, &marker_fragments(NAME));
        let snapshot = at_marker.snapshot();
        assert!(shared
            .deliver(on_recovery_group(snapshot.clone()), t0)
            .is_empty());
        assert!(shared.serving());
        assert_eq!(shared.read("k"), Some(Bytes::from("c")));
        assert_eq!(shared.deadline(), None);
        let stats = shared.stats();
        assert_eq!(stats.replay_skipped, 3, "seq 2 and both marker fragments");
        let mut straight = at_marker;
        consume(&mut straight, &[put(3, "k", "c")]);
        shared.with_machine(|m| assert_eq!(*m, straight));

        // A second copy, and junk, change nothing and never reach the
        // machine.
        shared.deliver(on_recovery_group(snapshot), t0);
        shared.deliver(on_recovery_group(Bytes::from_static(b"junk")), t0);
        shared.with_machine(|m| assert_eq!(*m, straight));
        assert_eq!(shared.stats().foreign_payloads, 0);
    }

    #[test]
    fn the_empty_state_deadline_starts_once_the_marker_is_back_on_every_partition() {
        let t0 = Instant::now();
        let shared = armed(recovering(), t0);
        all_views(&shared, &[NAME], t0);
        shared.deliver(put(1, "k", "a"), t0);
        // Long past any deadline, the marker still out: the gate holds.
        let late = t0 + VIEW_DEADLINE + RECOVERY_DEADLINE;
        assert!(shared.poll(late).is_empty());
        assert_eq!(shared.deadline(), None);

        let mut fragments = marker_fragments(NAME);
        let last = fragments.pop().expect("two fragments");
        deliver_all(&shared, fragments, late);
        assert_eq!(shared.deadline(), None, "back on one partition only");
        let back = late + Duration::from_millis(7);
        shared.deliver(last, back);
        assert_eq!(shared.deadline(), Some(back + RECOVERY_DEADLINE));

        shared.poll(back + RECOVERY_DEADLINE - Duration::from_millis(1));
        assert!(!shared.serving());
        shared.poll(back + RECOVERY_DEADLINE);
        assert!(shared.serving());
        assert_eq!(shared.read("k"), Some(Bytes::from("a")));
        assert_eq!(shared.position(), 3, "the put and both marker fragments");
    }

    #[test]
    fn disconnected_closes_the_gate() {
        let t0 = Instant::now();
        let shared = armed(KvConfig::default(), t0);
        all_views(&shared, &[NAME], t0);
        assert!(shared.serving());
        let reason = "daemon shutdown".to_string();
        shared.deliver(ClientEvent::Disconnected { reason }, t0);
        assert!(!shared.serving());
        shared.deliver(put(1, "k", "a"), t0);
        assert_eq!(shared.position(), 0, "a stopped replica applies nothing");
        assert_eq!(shared.deadline(), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(100))]

        /// Any member of a recovery group can multicast to it, so the
        /// recovering replica decodes arbitrary bytes there: it never
        /// panics, never serves on them, and its machine never sees them.
        #[test]
        fn arbitrary_bytes_on_the_recovery_group_never_open_the_gate(
            bodies in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..512),
                1..8,
            ),
        ) {
            let t0 = Instant::now();
            let shared = armed(recovering(), t0);
            all_views(&shared, &[NAME], t0);
            deliver_all(&shared, marker_fragments(NAME), t0);
            for body in bodies {
                let out = shared.deliver(on_recovery_group(Bytes::from(body)), t0);
                prop_assert!(out.is_empty());
            }
            prop_assert!(!shared.serving());
            prop_assert_eq!(shared.position(), 0);
        }
    }
}
