//! The runnable daemon: a [`MultiRingEngine`] pumped by one thread over R
//! real transport nodes (one per ring), serving clients through the
//! session frontend ([`accelring_daemon::frontend`]). A single-ring
//! deployment is the R = 1 case — `ShardMap::new(1)`, one node — and the
//! merge then passes that ring's order straight through. In-process
//! clients attach as channel adapters; with
//! [`FrontendOptions::session_socket`] set the same reactor also serves
//! remote [`accelring_daemon::SessionClient`]s over UDP, multiplexed in
//! one slab-indexed session table with fair, credit-gated egress.
//!
//! The pump routes every submission to the ring the shard map chose,
//! feeds each ring's deliveries and configuration changes into the
//! deterministic merge, and hands clients their events in the merged
//! cross-ring total order. When any ring's node dies (panic, kill
//! switch, or plain exit) every connected client receives a terminal
//! [`ClientEvent::Disconnected`] — a multi-ring daemon without all of
//! its rings cannot keep its merge promise. Clients then reconnect to a
//! surviving daemon ([`MultiRingDaemon::connect_session`]) and resubmit
//! in-flight messages under their session sequence numbers; every engine
//! drops the duplicates.
//!
//! ## Waking the pump
//!
//! The pump parks in one [`Poller`] wait on the session socket (when
//! open) and a [`Doorbell`] eventfd. Ring nodes ring the doorbell after
//! publishing deliveries, when their merge floor reaches the round the
//! merge head waits for, and when they die; client and daemon handles
//! ring it after every command. Rings are skipped unless the pump is
//! actually parked, so a busy pump costs its producers no syscall. The
//! wait has no fixed tick: its timeout is the next real deadline — a
//! backpressure retry, a migration abort escalation, a catch-up pull —
//! and with none pending the pump sleeps until input arrives.
//!
//! ## Merge floors from token visits
//!
//! The merge orders by token round, and a ring's leader paces rounds by
//! the clock, so the merge cannot release past a ring until that ring's
//! floor shows it will order nothing earlier. Every pump iteration reads
//! each node's [`NodeHandle::merge_floor`] — the round of its latest
//! token visit whose departure seq it has delivered — *before* draining
//! the node's deliveries, and raises the ring's merge floor to it once
//! they are in. An idle ring therefore holds the merge for about one of
//! its rotations, with no ordered traffic of its own. When the merge
//! head is blocked, the pump tells each blocking node the round it waits
//! for ([`NodeHandle::wake_at_floor`]), and the node rings the doorbell
//! once its floor gets there.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use accelring_core::{Backoff, FrontendStats, RingIdx, Round, Service};
use accelring_daemon::proto::SessionFrame;
use accelring_daemon::{
    ClientEvent, EngineError, EngineOptions, FrontendOptions, GroupAction, Ingress, SessionMux,
};
use accelring_transport::{
    AppEvent, BellSender, Doorbell, NodeHandle, Poller, SubmitError, TransportProbe,
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
/// routing engine, serving local clients in the merged order.
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
    /// options.
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
        for node in &nodes {
            node.set_doorbell(Arc::clone(&bell));
        }
        let (cmd_tx, cmd_rx) = unbounded();
        let cmd_tx = BellSender::new(cmd_tx, Arc::clone(&bell));
        // Taken before the handles move into the pump thread: one probe
        // per ring keeps the transport counters readable from outside.
        let probes: Vec<TransportProbe> = nodes.iter().map(NodeHandle::probe).collect();
        let shared = Arc::new(Mutex::new(FrontendStats::default()));
        let pump_shared = shared.clone();
        // Bound before the thread spawns so the session address is known
        // the moment this constructor returns.
        let mux = SessionMux::new(options.frontend).expect("bind session socket");
        let session_addr = mux.local_addr();
        let thread = std::thread::Builder::new()
            .name(format!("multiring-daemon-{pid}"))
            .spawn(move || pump(nodes, shards, cmd_rx, bell, options, mux, pump_shared))
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
    /// even though the node handles live inside the pump thread and
    /// outliving this daemon's shutdown (useful for leak checks).
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

    /// Drains and leaves every ring: pending submissions and deliveries
    /// are flushed (bounded by `drain` on each ring), then each node
    /// announces its departure so survivors reform after one gather round
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
    /// A ring's node is dead (panic, kill, or exit).
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
    /// All client sessions — in-process channel adapters and remote UDP
    /// sessions alike — behind one slab-indexed mux with shared shed
    /// accounting and fair egress.
    mux: SessionMux,
    /// Frontend snapshot store read by [`MultiRingDaemon::frontend_stats`].
    shared: Arc<Mutex<FrontendStats>>,
    /// Highest regular-configuration counter seen on any ring: the view
    /// a catch-up pull advertises and a pushed snapshot carries.
    max_epoch: u64,
    /// Submissions a ring's bounded queue refused, replayed in FIFO
    /// order under jittered backoff instead of being dropped — a held
    /// migration flush must not vanish to backpressure.
    retries: VecDeque<(RingIdx, Bytes, Service)>,
    retry_backoff: Backoff,
    next_retry: Option<Instant>,
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
    fn dispatch(&mut self, outputs: Vec<MultiOutput>, nodes: &[NodeHandle]) {
        for out in outputs {
            match out {
                MultiOutput::Submit {
                    ring,
                    payload,
                    service,
                } => {
                    // Queue behind any pending retry for the same ring:
                    // sender FIFO is what orders a daemon's Ready after
                    // its join replays, so overtaking is not allowed.
                    if self.retries.iter().any(|(r, _, _)| *r == ring) {
                        self.retries.push_back((ring, payload, service));
                        continue;
                    }
                    match nodes[ring.as_usize()].submit(payload.clone(), service) {
                        Ok(()) => {}
                        Err(SubmitError::Backlogged) => {
                            self.retries.push_back((ring, payload, service));
                        }
                        // Ring dying; its Fault event ends the pump.
                        Err(SubmitError::Stopped) => {}
                    }
                }
                MultiOutput::Local { client, event } => {
                    self.mux.deliver(&client, event);
                }
            }
        }
    }

    /// Hands the local events among `outputs` to their sessions, dropping
    /// submissions: used once the rings are gone.
    fn deliver_local(&mut self, outputs: Vec<MultiOutput>) {
        for out in outputs {
            if let MultiOutput::Local { client, event } = out {
                self.mux.deliver(&client, event);
            }
        }
    }

    /// Replays backpressured submissions once their backoff elapses.
    fn flush_retries(&mut self, nodes: &[NodeHandle]) {
        if self.retries.is_empty() {
            return;
        }
        if let Some(t) = self.next_retry {
            if Instant::now() < t {
                return;
            }
        }
        while let Some((ring, payload, service)) = self.retries.pop_front() {
            match nodes[ring.as_usize()].submit(payload.clone(), service) {
                Ok(()) => continue,
                Err(SubmitError::Backlogged) => {
                    self.retries.push_front((ring, payload, service));
                    self.next_retry = Some(Instant::now() + self.retry_backoff.next_delay());
                    return;
                }
                Err(SubmitError::Stopped) => continue,
            }
        }
        self.retry_backoff.reset();
        self.next_retry = None;
    }

    /// The earliest instant a timer-driven duty of this pump falls due: a
    /// backpressure retry, a migration abort escalation, a catch-up pull
    /// or the catch-up deadline. `None` when only input can make work.
    fn next_deadline(&self) -> Option<Instant> {
        let retry =
            (!self.retries.is_empty()).then(|| self.next_retry.unwrap_or_else(Instant::now));
        let aborts = self
            .watches
            .values()
            .map(|w| w.next_abort.map_or(w.deadline, |t| t.max(w.deadline)));
        let catchup = self
            .catchup
            .as_ref()
            .map(|c| c.next_pull.map_or(c.deadline, |t| t.min(c.deadline)));
        retry.into_iter().chain(aborts).chain(catchup).min()
    }

    /// Drives migration timeouts and sums the time groups spent behind
    /// the fences of finished migrations.
    fn service_migrations(&mut self, nodes: &[NodeHandle], timeout: Duration) {
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
        let pid = nodes[0].pid().as_u16();
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
            self.dispatch(outs, nodes);
            if let Some(w) = self.watches.get_mut(&g) {
                w.next_abort = Some(Instant::now() + w.backoff.next_delay());
            }
        }
    }

    /// Routes the engine-relevant frames surfaced by one ingest burst of
    /// the session socket.
    fn handle_ingress(&mut self, ingress: &mut Vec<Ingress>, nodes: &[NodeHandle]) {
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
                        Ok(outputs) => self.dispatch(outputs, nodes),
                        // Cross-ring multicasts land here too: the wire
                        // protocol has no per-submit reply, so a rejected
                        // remote submit is counted, not answered.
                        Err(_) => self.mux.note_rejected(),
                    }
                }
                Ingress::Bye { name } => {
                    if let Ok(outputs) = self.engine.client_disconnect(&name) {
                        self.dispatch(outputs, nodes);
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
    fn handle_cmd(&mut self, cmd: Cmd, nodes: &[NodeHandle]) -> Option<Exit> {
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
                let _ = resp.send(result.map(|o| self.dispatch(o, nodes)));
            }
            Cmd::Leave { name, group, resp } => {
                let result = self.engine.client_leave(&name, &group);
                let _ = resp.send(result.map(|o| self.dispatch(o, nodes)));
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
                let _ = resp.send(result.map(|o| self.dispatch(o, nodes)));
            }
            Cmd::Disconnect { name } => {
                if let Ok(outputs) = self.engine.client_disconnect(&name) {
                    self.dispatch(outputs, nodes);
                }
                self.mux.close_name(&name);
            }
            Cmd::Migrate { group, to, resp } => {
                let result = self.engine.begin_migration(&group, to);
                let _ = resp.send(result.map(|o| self.dispatch(o, nodes)));
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
                self.dispatch(flushed, nodes);
                self.next_retry = None;
                self.flush_retries(nodes);
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
    nodes: Vec<NodeHandle>,
    shards: ShardMap,
    cmd_rx: Receiver<Cmd>,
    bell: Arc<Doorbell>,
    options: MultiRingOptions,
    mux: SessionMux,
    shared: Arc<Mutex<FrontendStats>>,
) {
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
        mux,
        shared,
        max_epoch: 0,
        retries: VecDeque::new(),
        retry_backoff: Backoff::new(
            Duration::from_millis(2),
            Duration::from_millis(250),
            u64::from(pid.as_u16()),
        ),
        next_retry: None,
        watches: HashMap::new(),
        fence_wait: Duration::ZERO,
        catchup,
        recovery: RecoveryCounters::default(),
        app: options.app_state.clone(),
    };
    // One wait covers every input: a session datagram wakes it through
    // the socket, ring events, merge floors and commands through the
    // doorbell.
    let mut poller = Poller::new();
    let fds: Vec<i32> = p.mux.poll_fd().into_iter().chain(bell.poll_fd()).collect();
    poller.set_fds(&fds);
    let mut ingress: Vec<Ingress> = Vec::new();
    // Per ring, the floor the merge head waits for (zero: none).
    let mut wants = vec![Round::ZERO; nodes.len()];

    let exit = 'pump: loop {
        // Park until input arrives or the next deadline — but never while
        // egress is backed up, and never past work that raced the arm.
        // Each node the merge head waits for rings once its floor gets
        // there.
        if !p.mux.has_pending_egress() {
            wants.fill(Round::ZERO);
            for (ring, round) in p.engine.merge_waits() {
                wants[ring.as_usize()] = round;
            }
            for (node, &want) in nodes.iter().zip(&wants) {
                node.wake_at_floor(want);
            }
            let raced = || {
                !cmd_rx.is_empty()
                    || nodes.iter().any(NodeHandle::events_ready)
                    || nodes
                        .iter()
                        .zip(&wants)
                        .any(|(n, &w)| w > Round::ZERO && n.merge_floor() >= w)
            };
            if !bell.arm(raced) {
                poller.wait_until(p.next_deadline());
                bell.disarm();
                bell.drain();
            }
        }
        p.mux.note_wakeup();

        loop {
            match cmd_rx.try_recv() {
                Ok(cmd) => {
                    if let Some(exit) = p.handle_cmd(cmd, &nodes) {
                        break 'pump exit;
                    }
                }
                Err(TryRecvError::Empty) => break,
                // Every daemon and client handle dropped without Shutdown.
                Err(TryRecvError::Disconnected) => break 'pump Exit::Shutdown,
            }
        }
        // Session ingest before the engine flush: submits that just
        // arrived ride the same flush as this tick's command traffic.
        p.mux.ingest(&mut ingress);
        if !ingress.is_empty() {
            p.handle_ingress(&mut ingress, &nodes);
        }
        // Close partially packed payloads so buffered client messages are
        // not held hostage waiting for more traffic.
        let flushed = p.engine.flush();
        p.dispatch(flushed, &nodes);

        for k in 0..nodes.len() {
            let ring = RingIdx::new(k as u16);
            // The floor first: every delivery below it is then already
            // queued, and the loop below takes it before the floor rises.
            let floor = nodes[k].merge_floor();
            loop {
                match nodes[k].events().try_recv() {
                    Ok(AppEvent::Delivered(d)) => {
                        let outputs = p.engine.on_delivery(ring, &d);
                        p.dispatch(outputs, &nodes);
                    }
                    Ok(AppEvent::Config(c)) => {
                        if !c.transitional {
                            p.max_epoch = p.max_epoch.max(c.ring_id.counter());
                        }
                        let outputs = p.engine.on_config_change(ring, &c);
                        p.dispatch(outputs, &nodes);
                    }
                    Ok(AppEvent::Fault { reason }) => {
                        break 'pump Exit::RingDead { ring, reason };
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        break 'pump Exit::RingDead {
                            ring,
                            reason: "node thread exited".to_string(),
                        };
                    }
                }
            }
            let outputs = p.engine.advance_floor(ring, floor);
            p.dispatch(outputs, &nodes);
        }

        p.flush_retries(&nodes);
        p.service_migrations(&nodes, options.migration_timeout);
        p.service_catchup();
        p.mux.flush_egress();
        p.export_frontend_stats();
    };

    match exit {
        Exit::Shutdown => {
            p.mux.flush_egress();
            p.mux.broadcast_disconnected("daemon shutdown");
            for node in nodes {
                node.shutdown();
            }
        }
        Exit::Graceful(drain) => {
            // Each node flushes pending work, announces its departure,
            // and exits; what its ring delivered during the drain still
            // reaches the clients before their terminal event.
            let drained: Vec<Receiver<AppEvent>> =
                nodes.into_iter().map(|node| node.leave(drain)).collect();
            for (k, rx) in drained.iter().enumerate() {
                let ring = RingIdx::new(k as u16);
                while let Ok(ev) = rx.try_recv() {
                    match ev {
                        AppEvent::Delivered(d) => {
                            let outputs = p.engine.on_delivery(ring, &d);
                            p.deliver_local(outputs);
                        }
                        AppEvent::Config(_) => {}
                        AppEvent::Fault { .. } => break,
                    }
                }
            }
            // No ring will deliver again, so whatever the merge still
            // holds is final.
            let outputs = p.engine.finish();
            p.deliver_local(outputs);
            p.mux.flush_egress();
            p.mux.broadcast_disconnected("daemon shutdown");
        }
        Exit::RingDead { ring, reason } => {
            p.mux.flush_egress();
            p.mux
                .broadcast_disconnected(&format!("{ring} died: {reason}"));
            for node in nodes {
                if node.is_alive() {
                    node.shutdown();
                }
            }
        }
    }
    p.export_frontend_stats();
}
