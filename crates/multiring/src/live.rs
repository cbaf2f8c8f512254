//! The runnable daemon: a [`MultiRingEngine`] and R ring nodes (one per
//! ring) in one event loop on one thread, serving clients through the
//! session frontend ([`accelring_daemon::frontend`]). A single-ring
//! deployment is the R = 1 case — `ShardMap::new(1)`, one node — and the
//! merge then passes that ring's order straight through. In-process
//! clients attach as channel adapters; with
//! [`FrontendOptions::session_socket`] set the same loop also serves
//! remote [`accelring_daemon::SessionClient`]s over UDP, multiplexed in
//! one slab-indexed session table with fair, credit-gated egress.
//!
//! The pump routes every submission straight into the send queue of the
//! ring the shard map chose, steps each ring's [`RingNode`], feeds the
//! ring's deliveries and configuration changes into the deterministic
//! merge, and hands clients their events in the merged cross-ring total
//! order. When any ring's node dies (a panic in its step, or a kill
//! switch) every connected client receives a terminal
//! [`ClientEvent::Disconnected`] — a multi-ring daemon without all of
//! its rings cannot keep its merge promise. Clients then reconnect to a
//! surviving daemon ([`MultiRingDaemon::connect_session`]) and resubmit
//! in-flight messages under their session sequence numbers; every engine
//! drops the duplicates.
//!
//! ## One loop
//!
//! [`MultiRingDaemon::start_with`] takes the running [`NodeHandle`]s that
//! formed the rings and takes each node's loop over at a step boundary
//! ([`NodeHandle::into_ring_node`]); the events a node published before
//! the hand-over are fed first. Each iteration then takes a bounded batch
//! of in-process commands, one session ingest burst and the engine's
//! packed submissions, steps every ring once and flushes egress within
//! its budget, so a flood at one daemon cannot hold its tokens past the
//! retransmit timeout. A submission a full send queue refuses is replayed
//! after the ring's next step, in which the token drains the queue.
//!
//! An idle iteration parks in one [`Poller`] wait over every ring socket
//! (or shm doorbell), the session socket and a [`Doorbell`] that client
//! handles and kill switches ring. The timeout is the earliest real
//! deadline — a ring's protocol timer, a migration abort escalation, a
//! catch-up pull — with no fixed tick.
//!
//! ## Merge floors from token visits
//!
//! The merge orders by token round, and a ring's leader paces rounds by
//! the clock, so the merge cannot release past a ring until that ring's
//! floor shows it will order nothing earlier. After each step the pump
//! feeds the ring's deliveries into the merge, then raises the ring's
//! floor to [`RingNode::merge_floor`]: the round of the node's latest
//! token visit whose departure seq it has delivered. An idle ring
//! therefore holds the merge for about one of its rotations, and the
//! token visit that raises its floor is the wake that releases the merge.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use accelring_core::{Backoff, FrontendStats, RingIdx, Service};
use accelring_daemon::proto::SessionFrame;
use accelring_daemon::{
    ClientEvent, EngineError, EngineOptions, FrontendOptions, GroupAction, Ingress, SessionMux,
};
use accelring_transport::{
    AppEvent, BellSender, Doorbell, NodeHandle, Poller, RingNode, TransportProbe,
};
use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError};

use crate::engine::{MultiOutput, MultiRingEngine, MultiRingError};
use crate::migrate::MigrationCounters;
use crate::recovery::{
    decode_snapshot, encode_snapshot, RecoveryCounters, RecoverySnapshot, RingSeqs,
};
use crate::shard::ShardMap;

/// How long a daemon started with [`MultiRingOptions::recovery_peers`]
/// keeps its serving gate closed waiting for a catch-up snapshot. Past
/// the deadline it serves anyway — every peer gone is a fresh cluster,
/// and refusing forever would deadlock the first daemon back up.
const CATCHUP_DEADLINE: Duration = Duration::from_secs(5);
/// In-process commands one loop iteration takes at most. Each is one API
/// call, so the cap bounds how long client traffic keeps the loop from
/// stepping its rings.
const CMD_BURST: usize = 64;

/// Replicated application state mounted on a daemon — the hook through
/// which the pump serves local-service queries ([`SessionFrame::SvcQuery`])
/// outside the ordered path and piggybacks application snapshots on the
/// recovery pull path (the `app` section of
/// [`RecoverySnapshot`](crate::recovery::RecoverySnapshot)). The
/// replicated KV store mounts its machine here; the multi-ring layer
/// carries every body blind — the application owns its codecs.
pub trait AppState: Send + Sync {
    /// Answers one opaque local-service query, or `None` to stay silent
    /// (no reply frame is sent; the requester owns retries).
    fn query(&self, body: &Bytes) -> Option<Bytes>;
    /// The application snapshot to piggyback on a recovery push; empty
    /// means "nothing to carry".
    fn snapshot(&self) -> Bytes;
    /// Accepts the application section of a recovery snapshot pulled
    /// from a peer during catch-up. Empty bodies are not delivered.
    fn install(&self, body: &Bytes);
}

/// Runtime settings for a [`MultiRingDaemon`].
#[derive(Clone)]
pub struct MultiRingOptions {
    /// Packing/fragmentation settings for the per-ring engines.
    pub engine: EngineOptions,
    /// How long an in-flight group migration may wait for its readiness
    /// barrier before this daemon escalates to abort (the Abort is
    /// ordered on the source ring, so whichever daemon's escalation
    /// lands first decides for everyone; retries back off with jitter).
    pub migration_timeout: Duration,
    /// Session-frontend tuning; set
    /// [`FrontendOptions::session_socket`] to serve remote
    /// [`accelring_daemon::SessionClient`]s over UDP.
    pub frontend: FrontendOptions,
    /// Session addresses of live peer daemons to pull a catch-up
    /// snapshot from before serving clients. When non-empty (and the
    /// session socket is open) the daemon starts *gated*: HELLO frames
    /// are silently dropped — the client's retry loop covers the window
    /// — until a peer's `MAP_PUSH` snapshot is applied or
    /// [`CATCHUP_DEADLINE`] elapses.
    pub recovery_peers: Vec<SocketAddr>,
    /// Per-ring dedup watermarks to seed the engine with at startup —
    /// the in-process fast path for a supervisor that captured
    /// [`MultiRingDaemon::export_seqs`] before stopping the previous
    /// incarnation. `seqs[r]` holds `(client, max_seq)` pairs for ring
    /// `r`; seeding is monotone, so combining it with a pulled snapshot
    /// is safe.
    pub recovery_seed: Option<RingSeqs>,
    /// Replicated application state mounted on this daemon: serves
    /// local-service queries and rides the recovery pull path. `None`
    /// means no application — queries go unanswered and snapshots carry
    /// an empty `app` section.
    pub app_state: Option<Arc<dyn AppState>>,
}

impl std::fmt::Debug for MultiRingOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiRingOptions")
            .field("engine", &self.engine)
            .field("migration_timeout", &self.migration_timeout)
            .field("frontend", &self.frontend)
            .field("recovery_peers", &self.recovery_peers)
            .field("recovery_seed", &self.recovery_seed)
            .field("app_state", &self.app_state.as_ref().map(|_| "mounted"))
            .finish()
    }
}

impl Default for MultiRingOptions {
    fn default() -> Self {
        MultiRingOptions {
            engine: EngineOptions::default(),
            migration_timeout: Duration::from_secs(3),
            frontend: FrontendOptions::default(),
            recovery_peers: Vec::new(),
            recovery_seed: None,
            app_state: None,
        }
    }
}

/// A point-in-time probe of a daemon's state and counters, read through
/// [`MultiRingDaemon::inspect`]. This is what rejoin benches and chaos
/// checkers poll to decide "has this daemon converged?". The counters
/// cover this incarnation only: a restarted daemon starts from zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonInspect {
    /// The engine's shard-map version.
    pub map_version: u64,
    /// Highest merge slot released to clients so far.
    pub merge_cursor: u64,
    /// Highest regular-configuration counter seen on any ring.
    pub max_epoch: u64,
    /// Whether the serving gate is still closed waiting for catch-up.
    pub catching_up: bool,
    /// Sequenced messages this daemon's engine dropped as duplicates
    /// (client resubmissions of messages already ordered), summed over
    /// rings.
    pub duplicates_dropped: u64,
    /// Lifecycle counters of the group migrations this daemon observed.
    pub migrations: MigrationCounters,
    /// Total time groups spent frozen behind migration fences, from
    /// fence start to commit/abort, summed over the migrations the pump
    /// watched. A migration that starts and ends within one pump
    /// iteration is never watched and adds nothing.
    pub fence_wait: Duration,
    /// Catch-up counters: pulls sent, pushes served, snapshots applied,
    /// map adoptions and time spent gated.
    pub recovery: RecoveryCounters,
}

enum Cmd {
    Connect {
        name: String,
        events: Sender<ClientEvent>,
        resp: Sender<Result<(), MultiRingError>>,
    },
    Join {
        name: String,
        group: String,
        resp: Sender<Result<(), MultiRingError>>,
    },
    Leave {
        name: String,
        group: String,
        resp: Sender<Result<(), MultiRingError>>,
    },
    Multicast {
        name: String,
        groups: Vec<String>,
        payload: Bytes,
        service: Service,
        seq: u64,
        /// Split a cross-ring group set into per-ring fragments instead
        /// of rejecting it (see
        /// [`MultiRingEngine::client_multicast_spanning`]).
        spanning: bool,
        resp: Sender<Result<(), MultiRingError>>,
    },
    Disconnect {
        name: String,
    },
    Migrate {
        group: String,
        to: RingIdx,
        resp: Sender<Result<(), MultiRingError>>,
    },
    ExportSeqs {
        resp: Sender<RingSeqs>,
    },
    Inspect {
        resp: Sender<DaemonInspect>,
    },
    Shutdown,
    ShutdownGraceful {
        drain: Duration,
    },
}

/// A running multi-ring daemon: one transport node per ring plus the
/// routing engine in one event loop on one thread, serving local clients
/// in the merged order.
#[derive(Debug)]
pub struct MultiRingDaemon {
    cmd_tx: BellSender<Cmd>,
    thread: Option<std::thread::JoinHandle<()>>,
    probes: Vec<TransportProbe>,
    shared: Arc<Mutex<FrontendStats>>,
    session_addr: Option<SocketAddr>,
}

impl MultiRingDaemon {
    /// Starts the multi-ring layer over one running transport node per
    /// ring (`nodes[k]` is this daemon's node on ring `k`) with default
    /// options. Each node's thread stops at a step boundary and the
    /// daemon's loop steps the node from then on.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty, its length disagrees with
    /// `shards.rings()`, or the nodes carry different participant ids —
    /// one daemon must be the same participant on every ring.
    pub fn start(nodes: Vec<NodeHandle>, shards: ShardMap) -> MultiRingDaemon {
        MultiRingDaemon::start_with(nodes, shards, MultiRingOptions::default())
    }

    /// Starts the multi-ring layer with explicit options.
    ///
    /// # Panics
    ///
    /// As [`MultiRingDaemon::start`].
    pub fn start_with(
        nodes: Vec<NodeHandle>,
        shards: ShardMap,
        options: MultiRingOptions,
    ) -> MultiRingDaemon {
        assert!(!nodes.is_empty(), "a multi-ring daemon needs rings");
        assert_eq!(
            nodes.len(),
            shards.rings() as usize,
            "one node per shard-map ring"
        );
        let pid = nodes[0].pid();
        assert!(
            nodes.iter().all(|n| n.pid() == pid),
            "one daemon must be the same participant on every ring"
        );
        let bell = Arc::new(Doorbell::new().expect("create pump doorbell"));
        let (cmd_tx, cmd_rx) = unbounded();
        let cmd_tx = BellSender::new(cmd_tx, Arc::clone(&bell));
        // One probe per ring keeps the transport counters readable from
        // outside the pump.
        let probes: Vec<TransportProbe> = nodes.iter().map(NodeHandle::probe).collect();
        let rings: Vec<(RingNode, Vec<AppEvent>)> =
            nodes.into_iter().map(NodeHandle::into_ring_node).collect();
        for (node, _) in &rings {
            node.set_doorbell(Arc::clone(&bell));
        }
        let shared = Arc::new(Mutex::new(FrontendStats::default()));
        let pump_shared = shared.clone();
        // Bound before the thread spawns so the session address is known
        // the moment this constructor returns.
        let mux = SessionMux::new(options.frontend).expect("bind session socket");
        let session_addr = mux.local_addr();
        let thread = std::thread::Builder::new()
            .name(format!("multiring-daemon-{pid}"))
            .spawn(move || pump(rings, shards, cmd_rx, bell, options, mux, pump_shared))
            .expect("spawn multi-ring daemon thread");
        MultiRingDaemon {
            cmd_tx,
            thread: Some(thread),
            probes,
            shared,
            session_addr,
        }
    }

    /// The UDP address remote [`accelring_daemon::SessionClient`]s dial,
    /// or `None` when the session socket is disabled.
    pub fn session_addr(&self) -> Option<SocketAddr> {
        self.session_addr
    }

    /// A snapshot of the session frontend's counters (sessions open,
    /// submits, per-cause sheds, reactor wakeups/syscalls).
    pub fn frontend_stats(&self) -> FrontendStats {
        *self.shared.lock().expect("frontend stats lock")
    }

    /// Clonable per-ring probes onto transport counters and buffer pools
    /// (`probes[k]` watches this daemon's node on ring `k`), readable
    /// even though the nodes live inside the pump thread and outliving
    /// this daemon's shutdown (useful for leak checks).
    pub fn transport_probes(&self) -> Vec<TransportProbe> {
        self.probes.clone()
    }

    /// Connects a new local client with no session history (sequenced
    /// sends start at 1).
    ///
    /// # Errors
    ///
    /// Returns [`MultiRingError`] for invalid or duplicate names.
    pub fn connect(&self, name: &str) -> Result<MultiRingClient, MultiRingError> {
        self.connect_session(name, 0)
    }

    /// Connects a client resuming an earlier session: its next sequenced
    /// multicast is stamped `resume_from + 1`. A client reconnecting after
    /// its daemon died passes the last sequence number it *knows* was
    /// accepted, then re-sends everything after it with
    /// [`MultiRingClient::resubmit`]; engines drop whatever actually made
    /// it through the first time.
    ///
    /// # Errors
    ///
    /// Returns [`MultiRingError`] for invalid or duplicate names, or if
    /// the daemon is no longer running.
    pub fn connect_session(
        &self,
        name: &str,
        resume_from: u64,
    ) -> Result<MultiRingClient, MultiRingError> {
        // Unbounded: the KV replica attaches here, and a bounded adapter
        // would let the frontend shed its ordered deliveries.
        let (event_tx, event_rx) = unbounded();
        let (resp_tx, resp_rx) = bounded(1);
        let _ = self.cmd_tx.send(Cmd::Connect {
            name: name.to_string(),
            events: event_tx,
            resp: resp_tx,
        });
        resp_rx.recv().unwrap_or(Err(MultiRingError::Engine(
            accelring_daemon::EngineError::UnknownClient(name.to_string()),
        )))?;
        Ok(MultiRingClient {
            name: name.to_string(),
            cmd_tx: self.cmd_tx.clone(),
            event_rx,
            next_seq: AtomicU64::new(resume_from),
        })
    }

    /// Starts an online migration of `group` onto ring `to`: the
    /// operator entry point for elastic resharding. Returns as soon as
    /// the Start fence is accepted for submission on the group's source
    /// ring; the handoff itself completes (or aborts, after
    /// [`MultiRingOptions::migration_timeout`]) asynchronously through
    /// the ordered streams. Progress is visible in
    /// [`DaemonInspect::migrations`] through [`MultiRingDaemon::inspect`].
    ///
    /// # Errors
    ///
    /// Returns [`MultiRingError::Migration`] for invalid targets or a
    /// group already migrating.
    pub fn migrate(&self, group: &str, to: RingIdx) -> Result<(), MultiRingError> {
        let (resp_tx, resp_rx) = bounded(1);
        let _ = self.cmd_tx.send(Cmd::Migrate {
            group: group.to_string(),
            to,
            resp: resp_tx,
        });
        resp_rx.recv().unwrap_or(Err(MultiRingError::Migration {
            group: group.to_string(),
            reason: "daemon stopped".to_string(),
        }))
    }

    /// The engine's per-ring dedup watermarks: `seqs[r]` holds
    /// `(client, max_seq)` pairs for ring `r`. A supervisor captures
    /// this before stopping a daemon and hands it to the next
    /// incarnation through [`MultiRingOptions::recovery_seed`], so a
    /// client resubmission across the restart stays suppressed. `None`
    /// when the daemon already stopped.
    pub fn export_seqs(&self) -> Option<RingSeqs> {
        let (resp_tx, resp_rx) = bounded(1);
        let _ = self.cmd_tx.send(Cmd::ExportSeqs { resp: resp_tx });
        resp_rx.recv().ok()
    }

    /// A probe of the daemon's state and counters (shard-map version,
    /// merge cursor, epoch, serving gate, duplicates dropped, migration
    /// and catch-up counters), or `None` when it already stopped.
    pub fn inspect(&self) -> Option<DaemonInspect> {
        let (resp_tx, resp_rx) = bounded(1);
        let _ = self.cmd_tx.send(Cmd::Inspect { resp: resp_tx });
        resp_rx.recv().ok()
    }

    /// Stops the daemon thread and every ring node immediately. Connected
    /// clients receive [`ClientEvent::Disconnected`]; no departure
    /// courtesy is extended to the rings (peers detect the loss via
    /// token-loss timeout).
    pub fn shutdown(mut self) {
        self.stop(Cmd::Shutdown);
    }

    /// Drains and leaves every ring: all rings keep stepping in the one
    /// loop, so every token keeps turning, while pending submissions and
    /// deliveries flush, bounded by `drain` as a whole. Each node
    /// announces its departure as soon as its ring is drained (or when
    /// `drain` runs out), so survivors reform after one gather round
    /// instead of waiting out the token-loss timeout; the departure's
    /// configuration change prunes this daemon's clients from group views
    /// everywhere. Local clients receive their final deliveries, then
    /// [`ClientEvent::Disconnected`].
    pub fn shutdown_graceful(mut self, drain: Duration) {
        self.stop(Cmd::ShutdownGraceful { drain });
    }

    fn stop(&mut self, cmd: Cmd) {
        let _ = self.cmd_tx.send(cmd);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MultiRingDaemon {
    fn drop(&mut self) {
        self.stop(Cmd::Shutdown);
    }
}

/// A client connected to a local [`MultiRingDaemon`]. Its event stream
/// is the daemon's merged cross-ring total order, filtered to this
/// client's groups.
#[derive(Debug)]
pub struct MultiRingClient {
    name: String,
    cmd_tx: BellSender<Cmd>,
    event_rx: Receiver<ClientEvent>,
    next_seq: AtomicU64,
}

impl MultiRingClient {
    /// This client's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The merged stream of messages, views, configuration notices, and
    /// the terminal [`ClientEvent::Disconnected`]. The channel closing
    /// without one also means the daemon is gone.
    pub fn events(&self) -> &Receiver<ClientEvent> {
        &self.event_rx
    }

    /// The last sequence number this client stamped (or the resume
    /// watermark if none yet). Persist this across reconnects.
    pub fn last_seq(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    fn call(
        &self,
        make: impl FnOnce(Sender<Result<(), MultiRingError>>) -> Cmd,
    ) -> Result<(), MultiRingError> {
        let (resp_tx, resp_rx) = bounded(1);
        let _ = self.cmd_tx.send(make(resp_tx));
        resp_rx.recv().unwrap_or(Err(MultiRingError::Engine(
            accelring_daemon::EngineError::UnknownClient(self.name.clone()),
        )))
    }

    /// Joins a group on whichever ring the shard map routes it to.
    ///
    /// # Errors
    ///
    /// Returns [`MultiRingError`] for invalid group names.
    pub fn join(&self, group: &str) -> Result<(), MultiRingError> {
        self.call(|resp| Cmd::Join {
            name: self.name.clone(),
            group: group.to_string(),
            resp,
        })
    }

    /// Leaves a group.
    ///
    /// # Errors
    ///
    /// Returns [`MultiRingError`] for invalid group names.
    pub fn leave(&self, group: &str) -> Result<(), MultiRingError> {
        self.call(|resp| Cmd::Leave {
            name: self.name.clone(),
            group: group.to_string(),
            resp,
        })
    }

    /// Multicasts to one or more groups; all targets must shard onto the
    /// same ring.
    ///
    /// # Errors
    ///
    /// Returns [`MultiRingError::CrossRing`] when the groups span rings,
    /// or the engine's error otherwise.
    pub fn multicast(
        &self,
        groups: &[&str],
        payload: Bytes,
        service: Service,
    ) -> Result<(), MultiRingError> {
        self.send_with_seq(groups, payload, service, 0, false)
    }

    /// Like [`MultiRingClient::multicast`] with the session's next
    /// sequence number stamped on for duplicate suppression; returns it.
    ///
    /// # Errors
    ///
    /// As [`MultiRingClient::multicast`].
    pub fn multicast_sequenced(
        &self,
        groups: &[&str],
        payload: Bytes,
        service: Service,
    ) -> Result<u64, MultiRingError> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.send_with_seq(groups, payload, service, seq, false)?;
        Ok(seq)
    }

    /// Sequenced multicast to groups that may span rings: the send is
    /// split into one fragment per ring (same payload, same sequence),
    /// each covering that ring's subset of the groups. See
    /// [`MultiRingEngine::client_multicast_spanning`] for the commit
    /// rule consumers apply. Returns the stamped sequence.
    ///
    /// # Errors
    ///
    /// As [`MultiRingClient::multicast`], except cross-ring group sets
    /// are accepted.
    pub fn multicast_spanning(
        &self,
        groups: &[&str],
        payload: Bytes,
        service: Service,
    ) -> Result<u64, MultiRingError> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.send_with_seq(groups, payload, service, seq, true)?;
        Ok(seq)
    }

    /// Re-sends a message under an explicit session sequence number after
    /// a reconnect. Delivered at most once: every engine suppresses a
    /// duplicate of a sequence number its ring already ordered.
    ///
    /// # Errors
    ///
    /// As [`MultiRingClient::multicast`].
    pub fn resubmit(
        &self,
        seq: u64,
        groups: &[&str],
        payload: Bytes,
        service: Service,
    ) -> Result<(), MultiRingError> {
        self.send_with_seq(groups, payload, service, seq, false)
    }

    fn send_with_seq(
        &self,
        groups: &[&str],
        payload: Bytes,
        service: Service,
        seq: u64,
        spanning: bool,
    ) -> Result<(), MultiRingError> {
        self.call(|resp| Cmd::Multicast {
            name: self.name.clone(),
            groups: groups.iter().map(|g| g.to_string()).collect(),
            payload,
            service,
            seq,
            spanning,
            resp,
        })
    }

    /// Disconnects, leaving every group.
    pub fn disconnect(self) {
        let _ = self.cmd_tx.send(Cmd::Disconnect {
            name: self.name.clone(),
        });
    }
}

/// Why the pump loop ended.
enum Exit {
    /// Immediate shutdown: no ring courtesy.
    Shutdown,
    /// Graceful shutdown: drain every ring and announce departure.
    Graceful(Duration),
    /// A ring's node is dead (a panic in its step, or a kill).
    RingDead { ring: RingIdx, reason: String },
}

/// Pump-side tracking of one in-flight migration: when to give up and
/// escalate to abort, with jittered backoff between escalations.
struct MigrationWatch {
    started: Instant,
    deadline: Instant,
    backoff: Backoff,
    next_abort: Option<Instant>,
}

/// The serving gate of a daemon that is still catching up: it pulls a
/// state snapshot from its peers under backoff and drops client HELLOs
/// until a snapshot lands (or the deadline passes and it serves anyway).
struct Catchup {
    peers: Vec<SocketAddr>,
    /// Nonce stamped on this incarnation's MAP_PULLs; pushes carrying
    /// any other nonce are someone else's and are ignored.
    nonce: u64,
    started: Instant,
    deadline: Instant,
    backoff: Backoff,
    next_pull: Option<Instant>,
}

struct Pump {
    engine: MultiRingEngine,
    /// This daemon's node on each ring (`nodes[k]` on ring `k`), stepped
    /// inline.
    nodes: Vec<RingNode>,
    /// Per ring, submissions its full send queue refused, replayed in
    /// FIFO order after the ring's next step instead of being dropped —
    /// a held migration flush must not vanish to backpressure.
    retries: Vec<VecDeque<(Bytes, Service)>>,
    /// All client sessions — in-process channel adapters and remote UDP
    /// sessions alike — behind one slab-indexed mux with shared shed
    /// accounting and fair egress.
    mux: SessionMux,
    /// Frontend snapshot store read by [`MultiRingDaemon::frontend_stats`].
    shared: Arc<Mutex<FrontendStats>>,
    /// Highest regular-configuration counter seen on any ring: the view
    /// a catch-up pull advertises and a pushed snapshot carries.
    max_epoch: u64,
    watches: HashMap<String, MigrationWatch>,
    /// Time groups spent behind the fences of watched migrations.
    fence_wait: Duration,
    /// `Some` while the serving gate is closed waiting for catch-up.
    catchup: Option<Catchup>,
    /// Catch-up counters this pump produces; `maps_adopted` stays zero
    /// here and is read from the engine on inspect.
    recovery: RecoveryCounters,
    /// Application state mounted on this daemon (serves SVC_QUERY
    /// frames, rides the recovery pull path).
    app: Option<Arc<dyn AppState>>,
}

impl Pump {
    fn dispatch(&mut self, outputs: Vec<MultiOutput>) {
        for out in outputs {
            match out {
                MultiOutput::Submit {
                    ring,
                    payload,
                    service,
                } => self.submit(ring, payload, service),
                MultiOutput::Local { client, event } => {
                    self.mux.deliver(&client, event);
                }
            }
        }
    }

    /// Queues a submission behind `ring`'s refused ones — sender FIFO is
    /// what orders a daemon's Ready after its join replays — and moves
    /// what fits into the ring's send queue.
    fn submit(&mut self, ring: RingIdx, payload: Bytes, service: Service) {
        self.retries[ring.as_usize()].push_back((payload, service));
        self.replay(ring.as_usize());
    }

    /// Moves ring `k`'s queued submissions into its send queue, in order,
    /// until the queue refuses one.
    fn replay(&mut self, k: usize) {
        while let Some((payload, service)) = self.retries[k].pop_front() {
            if self.nodes[k].submit(payload.clone(), service).is_err() {
                self.retries[k].push_front((payload, service));
                return;
            }
        }
    }

    /// Feeds one ring event into the engine; a fault ends the loop.
    fn on_ring_event(&mut self, ring: RingIdx, event: AppEvent) -> Result<(), Exit> {
        let outputs = match event {
            AppEvent::Delivered(d) => self.engine.on_delivery(ring, &d),
            AppEvent::Config(c) => {
                if !c.transitional {
                    self.max_epoch = self.max_epoch.max(c.ring_id.counter());
                }
                self.engine.on_config_change(ring, &c)
            }
            AppEvent::Fault { reason } => return Err(Exit::RingDead { ring, reason }),
        };
        self.dispatch(outputs);
        Ok(())
    }

    /// Steps ring `k` once: its deliveries and configuration changes go
    /// into the engine, its refused submissions are replayed, and its
    /// merge floor rises to the node's. Returns whether the ring had
    /// input, or the exit when its node died.
    fn step_ring(&mut self, k: usize) -> Result<bool, Exit> {
        let ring = RingIdx::new(k as u16);
        if self.nodes[k].killed() {
            return Err(Exit::RingDead {
                ring,
                reason: "node killed".to_string(),
            });
        }
        let mut events = Vec::new();
        let stepped = self.nodes[k].step(&mut events);
        for event in events {
            self.on_ring_event(ring, event)?;
        }
        let did_work = stepped.map_err(|reason| Exit::RingDead { ring, reason })?;
        self.replay(k);
        let floor = self.nodes[k].merge_floor();
        let outputs = self.engine.advance_floor(ring, floor);
        self.dispatch(outputs);
        Ok(did_work)
    }

    /// Parks until input arrives or the earliest deadline: a ring's
    /// protocol timer or the pump's own. Returns whether the wait ran to
    /// its deadline, or `None` without waiting when ring input, a command
    /// or a kill raced the idle decision.
    fn park(&self, poller: &Poller, bell: &Doorbell, cmd_rx: &Receiver<Cmd>) -> Option<bool> {
        // Non-short-circuiting: every shm endpoint arms its doorbell.
        let ring_ready = self.nodes.iter().fold(false, |r, n| n.prepare_wait() | r);
        if ring_ready || bell.arm(|| !cmd_rx.is_empty() || self.nodes.iter().any(RingNode::killed))
        {
            return None;
        }
        let timers = self.nodes.iter().filter_map(RingNode::next_deadline);
        let deadline = timers.chain(self.next_deadline()).min();
        poller.wait_until(deadline);
        bell.disarm();
        bell.drain();
        Some(deadline.is_some_and(|d| Instant::now() >= d))
    }

    /// Graceful departure from every ring at once: the rings keep
    /// stepping in this loop — so every token keeps turning — until each
    /// has put its queued and refused submissions on the ring and
    /// delivered what it buffered, bounded by the one `drain` deadline.
    /// Each node announces its departure as soon as its ring is drained,
    /// or at the deadline; what the rings deliver meanwhile reaches the
    /// clients through the engine.
    fn leave_rings(&mut self, poller: &mut Poller, drain: Duration) {
        let deadline = Instant::now() + drain;
        let mut left = vec![false; self.nodes.len()];
        while left.contains(&false) {
            let mut ring_input = false;
            for (k, gone) in left.iter_mut().enumerate() {
                if *gone {
                    continue;
                }
                if Instant::now() >= deadline
                    || (self.retries[k].is_empty() && self.nodes[k].drained())
                {
                    self.nodes[k].announce_leave();
                    *gone = true;
                    continue;
                }
                match self.step_ring(k) {
                    Ok(did_work) => ring_input |= did_work,
                    // A dead node cannot announce; its peers time it out.
                    Err(_) => *gone = true,
                }
            }
            self.mux.flush_egress();
            if !ring_input {
                // Only the rings still draining may wake the wait: the
                // drain reads neither the session socket nor commands.
                let live: Vec<&RingNode> = (0..left.len())
                    .filter(|&k| !left[k])
                    .map(|k| &self.nodes[k])
                    .collect();
                poller.set_fds(&live.iter().flat_map(|n| n.poll_fds()).collect::<Vec<_>>());
                if !live.iter().fold(false, |r, n| n.prepare_wait() | r) {
                    let timers = live.iter().filter_map(|n| n.next_deadline());
                    poller.wait_until(timers.chain([deadline]).min());
                }
            }
        }
    }

    /// The earliest instant a timer-driven duty of this pump falls due: a
    /// migration abort escalation, a catch-up pull or the catch-up
    /// deadline. `None` when only input can make work.
    fn next_deadline(&self) -> Option<Instant> {
        let aborts = self
            .watches
            .values()
            .map(|w| w.next_abort.map_or(w.deadline, |t| t.max(w.deadline)));
        let catchup = self
            .catchup
            .as_ref()
            .map(|c| c.next_pull.map_or(c.deadline, |t| t.min(c.deadline)));
        aborts.chain(catchup).min()
    }

    /// Drives migration timeouts and sums the time groups spent behind
    /// the fences of finished migrations.
    fn service_migrations(&mut self, timeout: Duration) {
        let inflight: std::collections::BTreeSet<String> = self
            .engine
            .migrations_in_flight()
            .into_iter()
            .map(|(g, _, _)| g)
            .collect();
        // Decisions that landed: record the fence wait, drop the watch.
        let finished: Vec<String> = self
            .watches
            .keys()
            .filter(|g| !inflight.contains(*g))
            .cloned()
            .collect();
        for g in finished {
            if let Some(w) = self.watches.remove(&g) {
                self.fence_wait += w.started.elapsed();
            }
        }
        let now = Instant::now();
        let pid = self.nodes[0].pid().as_u16();
        for g in &inflight {
            self.watches.entry(g.clone()).or_insert_with(|| {
                let seed = g.bytes().fold(u64::from(pid), |h, b| {
                    h.wrapping_mul(31).wrapping_add(u64::from(b))
                });
                MigrationWatch {
                    started: now,
                    deadline: now + timeout,
                    backoff: Backoff::new(Duration::from_millis(100), Duration::from_secs(1), seed),
                    next_abort: None,
                }
            });
        }
        // Past-deadline migrations: escalate to abort (ordered on the
        // source ring; first escalation to land decides for everyone),
        // re-sending under backoff until the decision comes back.
        let due: Vec<String> = self
            .watches
            .iter()
            .filter(|(g, w)| {
                inflight.contains(*g) && now >= w.deadline && w.next_abort.is_none_or(|t| now >= t)
            })
            .map(|(g, _)| g.clone())
            .collect();
        for g in due {
            let outs = self.engine.abort_migration(&g);
            self.dispatch(outs);
            if let Some(w) = self.watches.get_mut(&g) {
                w.next_abort = Some(Instant::now() + w.backoff.next_delay());
            }
        }
    }

    /// Routes the engine-relevant frames surfaced by one ingest burst of
    /// the session socket.
    fn handle_ingress(&mut self, ingress: &mut Vec<Ingress>) {
        for ing in ingress.drain(..) {
            match ing {
                Ingress::Hello {
                    name,
                    resume_seq,
                    nonce,
                    addr,
                } => {
                    // A daemon still catching up must not welcome
                    // clients onto a stale shard map or unseeded dedup
                    // state. The HELLO is dropped *silently* — an ERROR
                    // reply would make `SessionClient::connect` fail
                    // immediately, while a timeout keeps it in its
                    // retry loop, which comfortably outlasts the gate.
                    if self.catchup.is_some() {
                        continue;
                    }
                    // Split borrow: the mux decides new-vs-resume, the
                    // engine registers genuinely new clients (on every
                    // ring at once).
                    let engine = &mut self.engine;
                    let mux = &mut self.mux;
                    mux.handle_hello(name, resume_seq, nonce, addr, |n| {
                        engine.client_connect(n).map_err(|e| match e {
                            MultiRingError::Engine(e) => e,
                            // `client_connect` cannot raise the
                            // multi-ring-only variants; keep the message
                            // for the ERROR frame if it ever does.
                            other => EngineError::UnknownClient(other.to_string()),
                        })
                    });
                }
                Ingress::Submit {
                    name,
                    seq,
                    service,
                    action,
                } => {
                    let result = match action {
                        GroupAction::Data { groups, payload } => {
                            let refs: Vec<&str> = groups.iter().map(String::as_str).collect();
                            // The wire protocol has no spanning flag, so
                            // a remote cross-ring multicast degrades to
                            // the split-per-ring path instead of being
                            // silently counted away — remote KV clients
                            // reach cross-shard transactions this way.
                            match self.engine.client_multicast_sequenced(
                                &name,
                                &refs,
                                payload.clone(),
                                service,
                                seq,
                            ) {
                                Err(MultiRingError::CrossRing { .. }) => self
                                    .engine
                                    .client_multicast_spanning(&name, &refs, payload, service, seq),
                                other => other,
                            }
                        }
                        GroupAction::Join { group } => self.engine.client_join(&name, &group),
                        GroupAction::Leave { group } => self.engine.client_leave(&name, &group),
                        GroupAction::Disconnect => {
                            let result = self.engine.client_disconnect(&name);
                            self.mux.close_name(&name);
                            result
                        }
                    };
                    match result {
                        Ok(outputs) => self.dispatch(outputs),
                        // Cross-ring multicasts land here too: the wire
                        // protocol has no per-submit reply, so a rejected
                        // remote submit is counted, not answered.
                        Err(_) => self.mux.note_rejected(),
                    }
                }
                Ingress::Bye { name } => {
                    if let Ok(outputs) = self.engine.client_disconnect(&name) {
                        self.dispatch(outputs);
                    }
                }
                Ingress::MapPull {
                    nonce,
                    want_epoch,
                    addr,
                } => {
                    // Serve a state snapshot to a rejoining peer — but
                    // only from trustworthy state: a daemon that is
                    // itself gated, or whose view is behind what the
                    // requester already observed, stays silent and
                    // lets a fresher peer (or the requester's own
                    // deadline) answer.
                    if self.catchup.is_some() || self.max_epoch < want_epoch {
                        continue;
                    }
                    let snap = RecoverySnapshot {
                        epoch: self.max_epoch,
                        cursor: self.engine.merge_cursor(),
                        map: self.engine.map_msg(),
                        seqs: self.engine.export_seqs(),
                        app: self.app.as_ref().map(|a| a.snapshot()).unwrap_or_default(),
                    };
                    let frame = SessionFrame::MapPush {
                        nonce,
                        epoch: snap.epoch,
                        slot: snap.cursor,
                        map_version: snap.map.version,
                        body: encode_snapshot(&snap),
                    };
                    self.mux.send_session_frame(&frame, addr);
                    self.recovery.pushes_served += 1;
                }
                Ingress::MapPush { nonce, body, .. } => {
                    // Only a gated daemon consumes pushes, and only for
                    // the pull nonce it stamped this incarnation; late
                    // or unsolicited pushes are ignored. A malformed
                    // body degrades to the next backoff pull — a
                    // misbehaving peer cannot wedge recovery.
                    let matches = self.catchup.as_ref().is_some_and(|c| c.nonce == nonce);
                    if !matches {
                        continue;
                    }
                    let Ok(snap) = decode_snapshot(body) else {
                        continue;
                    };
                    // Both applications are monotone (strictly-newer
                    // map adoption, max-merged watermarks), so a
                    // snapshot racing this daemon's own ring traffic
                    // is safe in either order.
                    self.engine.adopt_map(&snap.map);
                    self.engine.seed_seqs(&snap.seqs);
                    if !snap.app.is_empty() {
                        if let Some(app) = &self.app {
                            app.install(&snap.app);
                        }
                    }
                    self.max_epoch = self.max_epoch.max(snap.epoch);
                    self.recovery.snapshots_applied += 1;
                    if let Some(c) = self.catchup.take() {
                        self.recovery.catchup_wait += c.started.elapsed();
                    }
                }
                Ingress::SvcQuery { nonce, body, addr } => {
                    // Answered outside the ordered path — but never from
                    // behind the serving gate: a catching-up daemon's
                    // application state is as stale as its shard map.
                    if self.catchup.is_some() {
                        continue;
                    }
                    let reply = self.app.as_ref().and_then(|a| a.query(&body));
                    if let Some(body) = reply {
                        let frame = SessionFrame::SvcReply { nonce, body };
                        self.mux.send_session_frame(&frame, addr);
                    }
                }
            }
        }
    }

    /// Drives the catch-up gate: re-sends MAP_PULLs under backoff and
    /// opens the gate at the deadline if no snapshot ever landed (every
    /// peer gone means this daemon *is* the cluster now).
    fn service_catchup(&mut self) {
        let Some(c) = self.catchup.as_mut() else {
            return;
        };
        let now = Instant::now();
        if now >= c.deadline {
            let c = self.catchup.take().expect("catchup present");
            self.recovery.catchup_wait += c.started.elapsed();
            return;
        }
        if c.next_pull.is_some_and(|t| now < t) {
            return;
        }
        c.next_pull = Some(now + c.backoff.next_delay());
        let nonce = c.nonce;
        let peers = c.peers.clone();
        // Advertise the epoch this daemon has already observed through
        // its reforming rings: a peer that has not seen that far yet is
        // not a catch-up source and stays silent.
        let frame = SessionFrame::MapPull {
            nonce,
            want_epoch: self.max_epoch,
        };
        for addr in &peers {
            self.mux.send_session_frame(&frame, *addr);
        }
        self.recovery.pulls_sent += peers.len() as u64;
    }

    /// Handles one client command; `Some` ends the pump loop.
    fn handle_cmd(&mut self, cmd: Cmd) -> Option<Exit> {
        match cmd {
            Cmd::Connect { name, events, resp } => {
                let result = self.engine.client_connect(&name);
                if result.is_ok() {
                    self.mux.open_adapter(&name, events);
                }
                let _ = resp.send(result);
            }
            Cmd::Join { name, group, resp } => {
                let result = self.engine.client_join(&name, &group);
                let _ = resp.send(result.map(|o| self.dispatch(o)));
            }
            Cmd::Leave { name, group, resp } => {
                let result = self.engine.client_leave(&name, &group);
                let _ = resp.send(result.map(|o| self.dispatch(o)));
            }
            Cmd::Multicast {
                name,
                groups,
                payload,
                service,
                seq,
                spanning,
                resp,
            } => {
                let refs: Vec<&str> = groups.iter().map(String::as_str).collect();
                let result = if spanning {
                    self.engine
                        .client_multicast_spanning(&name, &refs, payload, service, seq)
                } else {
                    self.engine
                        .client_multicast_sequenced(&name, &refs, payload, service, seq)
                };
                let _ = resp.send(result.map(|o| self.dispatch(o)));
            }
            Cmd::Disconnect { name } => {
                if let Ok(outputs) = self.engine.client_disconnect(&name) {
                    self.dispatch(outputs);
                }
                self.mux.close_name(&name);
            }
            Cmd::Migrate { group, to, resp } => {
                let result = self.engine.begin_migration(&group, to);
                let _ = resp.send(result.map(|o| self.dispatch(o)));
            }
            Cmd::ExportSeqs { resp } => {
                let _ = resp.send(self.engine.export_seqs());
            }
            Cmd::Inspect { resp } => {
                let _ = resp.send(DaemonInspect {
                    map_version: self.engine.shards().version(),
                    merge_cursor: self.engine.merge_cursor(),
                    max_epoch: self.max_epoch,
                    catching_up: self.catchup.is_some(),
                    duplicates_dropped: self.engine.duplicates_dropped(),
                    migrations: self.engine.migration_counters(),
                    fence_wait: self.fence_wait,
                    recovery: RecoveryCounters {
                        maps_adopted: self.engine.maps_adopted(),
                        ..self.recovery
                    },
                });
            }
            Cmd::Shutdown => return Some(Exit::Shutdown),
            Cmd::ShutdownGraceful { drain } => {
                // Only flush what is still queued here. Clients are
                // deliberately NOT disconnected through the engine: their
                // routing state must survive the drain so deliveries that
                // complete during it still reach them. Survivors prune
                // this daemon's clients via the departure's configuration
                // change, exactly as they would after a crash — just
                // sooner, thanks to the leave announcement.
                let flushed = self.engine.flush();
                self.dispatch(flushed);
                return Some(Exit::Graceful(drain));
            }
        }
        None
    }

    /// Publishes the frontend counters read by
    /// [`MultiRingDaemon::frontend_stats`].
    fn export_frontend_stats(&self) {
        *self.shared.lock().expect("frontend stats lock") = self.mux.stats();
    }
}

fn pump(
    rings: Vec<(RingNode, Vec<AppEvent>)>,
    shards: ShardMap,
    cmd_rx: Receiver<Cmd>,
    bell: Arc<Doorbell>,
    options: MultiRingOptions,
    mux: SessionMux,
    shared: Arc<Mutex<FrontendStats>>,
) {
    let (nodes, queued): (Vec<RingNode>, Vec<Vec<AppEvent>>) = rings.into_iter().unzip();
    let pid = nodes[0].pid();
    let mut engine = MultiRingEngine::with_options(pid, shards, options.engine);
    // In-process seed first (free), network catch-up second: both are
    // monotone, so layering them can only tighten the dedup watermarks.
    if let Some(seed) = &options.recovery_seed {
        engine.seed_seqs(seed);
    }
    // The serving gate only arms when there is a socket to pull
    // through; an adapter-only daemon cannot reach its peers.
    let catchup = if !options.recovery_peers.is_empty() && mux.local_addr().is_some() {
        let now = Instant::now();
        // Wall-clock entropy keeps a restarted incarnation's nonce from
        // colliding with its predecessor's, so a push answering the old
        // incarnation's pull is ignored (harmless anyway — application
        // is monotone — but the counters stay honest).
        let nonce = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
            ^ (u64::from(pid.as_u16()) << 48);
        Some(Catchup {
            peers: options.recovery_peers.clone(),
            nonce,
            started: now,
            deadline: now + CATCHUP_DEADLINE,
            backoff: Backoff::new(
                Duration::from_millis(10),
                Duration::from_millis(250),
                u64::from(pid.as_u16()),
            ),
            next_pull: None,
        })
    } else {
        None
    };
    let mut p = Pump {
        engine,
        retries: vec![VecDeque::new(); nodes.len()],
        nodes,
        mux,
        shared,
        max_epoch: 0,
        watches: HashMap::new(),
        fence_wait: Duration::ZERO,
        catchup,
        recovery: RecoveryCounters::default(),
        app: options.app_state.clone(),
    };
    // One wait covers every input: ring datagrams and session datagrams
    // wake it through their sockets (or shm doorbells), commands and
    // kills through the pump's doorbell.
    let mut poller = Poller::new();
    let fds: Vec<i32> = p
        .mux
        .poll_fd()
        .into_iter()
        .chain(bell.poll_fd())
        .chain(p.nodes.iter().flat_map(RingNode::poll_fds))
        .collect();
    poller.set_fds(&fds);
    let mut ingress: Vec<Ingress> = Vec::new();
    // `Some(timed_out)` when the iteration follows a wait.
    let mut woke: Option<bool> = None;

    let exit = 'pump: {
        // What each node published before the hand-over goes first.
        for (k, events) in queued.into_iter().enumerate() {
            for event in events {
                if let Err(exit) = p.on_ring_event(RingIdx::new(k as u16), event) {
                    break 'pump exit;
                }
            }
        }
        loop {
            for _ in 0..CMD_BURST {
                match cmd_rx.try_recv() {
                    Ok(cmd) => {
                        if let Some(exit) = p.handle_cmd(cmd) {
                            break 'pump exit;
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    // Every daemon and client handle dropped without
                    // Shutdown.
                    Err(TryRecvError::Disconnected) => break 'pump Exit::Shutdown,
                }
            }
            // Session ingest before the engine flush: submits that just
            // arrived ride the same flush as this iteration's commands.
            p.mux.ingest(&mut ingress);
            if !ingress.is_empty() {
                p.handle_ingress(&mut ingress);
            }
            // Close partially packed payloads so buffered client messages
            // are not held hostage waiting for more traffic; they reach
            // the send queues before the rings step.
            let flushed = p.engine.flush();
            p.dispatch(flushed);

            let mut ring_input = false;
            for k in 0..p.nodes.len() {
                match p.step_ring(k) {
                    Ok(did_work) => ring_input |= did_work,
                    Err(exit) => break 'pump exit,
                }
            }
            // Token visits wake the loop by design and are not counted; a
            // wait that ran to its deadline is, ring input or not, so a
            // fixed tick would show.
            if woke.is_some_and(|timed_out| timed_out || !ring_input) {
                p.mux.note_wakeup();
            }

            p.service_migrations(options.migration_timeout);
            p.service_catchup();
            p.mux.flush_egress();
            p.export_frontend_stats();
            // Park only when the iteration found nothing to do — never
            // while egress is backed up or commands are left over.
            let busy = ring_input || !cmd_rx.is_empty() || p.mux.has_pending_egress();
            woke = if busy {
                None
            } else {
                p.park(&poller, &bell, &cmd_rx)
            };
        }
    };

    let reason = match exit {
        Exit::Shutdown => "daemon shutdown".to_string(),
        Exit::Graceful(drain) => {
            p.leave_rings(&mut poller, drain);
            // No ring will deliver again, so whatever the merge still
            // holds is final.
            let outputs = p.engine.finish();
            p.dispatch(outputs);
            "daemon shutdown".to_string()
        }
        Exit::RingDead { ring, reason } => format!("{ring} died: {reason}"),
    };
    p.mux.flush_egress();
    p.mux.broadcast_disconnected(&reason);
    p.export_frontend_stats();
}
