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
//! order. A mounted [`AppState`] with its own client attached
//! ([`MultiRingDaemon::attach_app`]) runs in the same loop: the pump hands
//! it that client's events inline and runs its timers. When any ring's
//! node dies (a panic in its step, or a kill switch) every connected
//! client receives a terminal
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
//! the hand-over are fed first. Each pass then takes a bounded batch of
//! in-process commands and one session ingest burst, steps every ring
//! once and flushes egress within its budget, so a flood at one daemon
//! cannot hold its tokens past the retransmit timeout. A submission a
//! full send queue refuses is replayed after the ring's next step, in
//! which the token drains the queue.
//!
//! Every pass ends in one [`Poller`] wait over every ring socket (or shm
//! doorbell), the session socket and a [`Doorbell`] that client handles
//! and kill switches ring; only backed-up egress or left-over commands
//! skip it. The timeout is the earliest real deadline — a ring's protocol
//! timer, a migration abort escalation, the mounted application's timer —
//! with no fixed tick. The wait reports which descriptors are ready and
//! the next pass reads only those: the session socket is ingested, a
//! ring's sockets received from ([`RingNode::readable`]) and the doorbell
//! drained only when reported. The wait is level-triggered, so a socket
//! a pass left datagrams on wakes the next wait at once. A pass that
//! follows no wait reads everything. Before it parks, a pass turns every
//! ring whose send queue holds submits, since the deliveries, migration
//! aborts and application timers of the pass can queue submits after
//! their ring has stepped.
//!
//! ## Catch-up through the total order
//!
//! A restarted daemon lacks two kinds of derived state: the live shard
//! map and the per-client dedup watermarks. It re-enters every ring
//! through a configuration change, and after every regular configuration
//! each member orders its versioned map and then its watermarks for that
//! ring ([`MultiRingEngine::on_config_change`]), so both reach the
//! rejoiner right after the position where it rejoined. A daemon whose
//! ring nodes were started with a restored ring counter (Totem's
//! stable-storage rule, [`RingNode::restored`]) is a restart: it starts
//! with its serving gate closed, parking HELLOs (the latest per client
//! name, up to a fixed count) and dropping SVC_QUERYs, and opens it once
//! every ring has delivered the last watermark part of every other member
//! of its latest regular configuration ([`MultiRingEngine::caught_up`]).
//! The parked HELLOs are answered as the gate opens, so a client waits
//! for the catch-up and not for its own retry. A daemon alone in its
//! configuration waits for no one, so there is no deadline.
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
//!
//! A quiet ring rests: its leader holds the token until something needs
//! the ring to turn (the token hold of `accelring-membership`). So after
//! stepping the rings the pump asks the engine which rings' floors keep
//! the merge's head entry from releasing ([`MultiRingEngine::merge_gates`])
//! and turns those rings ([`RingNode::turn`]). At the ring's leader the
//! held token goes at once; elsewhere the merge waits one wake hop plus
//! one rotation instead of the rest.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use accelring_core::{Backoff, FrontendStats, RingIdx, Service};
use accelring_daemon::proto::SessionFrame;
use accelring_daemon::{
    ClientEvent, EngineError, FrontendOptions, GroupAction, Ingress, SessionMux,
};
use accelring_transport::{
    AppEvent, BellSender, Doorbell, NodeHandle, Poller, RingNode, TransportProbe,
};
use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError};

use crate::engine::{MultiOutput, MultiRingEngine, MultiRingError};
use crate::migrate::MigrationCounters;
use crate::recovery::{RecoveryCounters, RingSeqs};
use crate::shard::ShardMap;

/// In-process commands one loop iteration takes at most. Each is one API
/// call, so the cap bounds how long client traffic keeps the loop from
/// stepping its rings.
const CMD_BURST: usize = 64;

/// HELLOs a gated daemon parks to answer the moment its gate opens, one
/// per client name. Past this many it drops a HELLO from a new name, and
/// that client's own retry finds the gate open.
const MAX_PARKED_HELLOS: usize = 4096;

/// Replicated application state mounted on a daemon — the hook through
/// which the pump serves local-service queries ([`SessionFrame::SvcQuery`])
/// outside the ordered path and, once the application's own client is
/// attached ([`MultiRingDaemon::attach_app`]), runs the application in the
/// daemon's loop. The replicated KV store mounts its replica here; the
/// multi-ring layer carries every body blind — the application owns its
/// codecs, and its own recovery, which travels on the total order through
/// its client's multicasts (the daemon's own catch-up announcements carry
/// daemon state only). Every method takes `&self`: other threads read the
/// same state.
pub trait AppState: Send + Sync {
    /// Answers one opaque local-service query, or `None` to stay silent
    /// (no reply frame is sent; the requester owns retries).
    fn query(&self, body: &Bytes) -> Option<Bytes>;
    /// One event of the application's own client, in the merged order;
    /// the loop's exit hands it the terminal
    /// [`ClientEvent::Disconnected`].
    fn deliver(&self, event: ClientEvent, now: Instant) -> Vec<AppOutput>;
    /// Runs the application's timers; called once per loop iteration.
    fn poll(&self, now: Instant) -> Vec<AppOutput>;
    /// The earliest instant [`AppState::poll`] has work to do, which
    /// bounds the loop's wait.
    fn deadline(&self) -> Option<Instant>;
}

/// What a mounted application asks of its daemon's loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppOutput {
    /// An Agreed multicast under the application's client, stamped `seq`
    /// (0 = unsequenced), to groups that may span rings (see
    /// [`MultiRingEngine::client_multicast_spanning`]). The engine splits
    /// a body above its 48 KiB fragment budget into fragments.
    Spanning {
        /// The target groups.
        groups: Vec<String>,
        /// The multicast body.
        payload: Bytes,
        /// The client-session sequence to stamp.
        seq: u64,
    },
}

/// Runtime settings for a [`MultiRingDaemon`].
#[derive(Clone)]
pub struct MultiRingOptions {
    /// How long an in-flight group migration may wait for its readiness
    /// barrier before this daemon escalates to abort (the Abort is
    /// ordered on the source ring, so whichever daemon's escalation
    /// lands first decides for everyone; retries back off with jitter).
    pub migration_timeout: Duration,
    /// Session-frontend tuning; set
    /// [`FrontendOptions::session_socket`] to serve remote
    /// [`accelring_daemon::SessionClient`]s over UDP.
    pub frontend: FrontendOptions,
    /// Per-ring dedup watermarks to seed the engine with at startup —
    /// the stable-storage carry-forward of a supervisor that captured
    /// [`MultiRingDaemon::export_seqs`] before stopping the previous
    /// incarnation, and the only source of watermarks when every peer
    /// is down. `seqs[r]` holds `(client, max_seq)` pairs for ring `r`;
    /// seeding is monotone, so combining it with the peers' ordered
    /// announcements is safe.
    pub recovery_seed: Option<RingSeqs>,
    /// Replicated application state mounted on this daemon: serves
    /// local-service queries and, once [`MultiRingDaemon::attach_app`]
    /// attached its client, runs in the daemon's loop. `None` means no
    /// application — queries go unanswered.
    pub app_state: Option<Arc<dyn AppState>>,
}

impl std::fmt::Debug for MultiRingOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiRingOptions")
            .field("migration_timeout", &self.migration_timeout)
            .field("frontend", &self.frontend)
            .field("recovery_seed", &self.recovery_seed)
            .field("app_state", &self.app_state.as_ref().map(|_| "mounted"))
            .finish()
    }
}

impl Default for MultiRingOptions {
    fn default() -> Self {
        MultiRingOptions {
            migration_timeout: Duration::from_secs(3),
            frontend: FrontendOptions::default(),
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
    /// Catch-up counters: map adoptions and time spent gated.
    pub recovery: RecoveryCounters,
}

enum Cmd {
    Connect {
        name: String,
        events: Sender<ClientEvent>,
        resp: Sender<Result<(), MultiRingError>>,
    },
    AttachApp {
        app: Arc<dyn AppState>,
        name: String,
        groups: Vec<String>,
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
        // Unbounded: a bounded adapter would let the frontend shed
        // ordered deliveries that in-process clients count on.
        let (event_tx, event_rx) = unbounded();
        request(&self.cmd_tx, |resp| Cmd::Connect {
            name: name.to_string(),
            events: event_tx,
            resp,
        })
        .unwrap_or_else(|| Err(stopped(name)))?;
        Ok(MultiRingClient {
            name: name.to_string(),
            cmd_tx: self.cmd_tx.clone(),
            event_rx,
            next_seq: AtomicU64::new(resume_from),
        })
    }

    /// Connects the mounted application's own client `name` and joins it
    /// to `groups`. From then on the loop hands that client's events to
    /// [`AppState::deliver`] inline, in the merged order, and carries out
    /// the [`AppOutput`]s the application returns; no channel is involved.
    ///
    /// # Errors
    ///
    /// Returns [`MultiRingError::AppNotMounted`] unless `app` is the
    /// application mounted through [`MultiRingOptions::app_state`], or
    /// the engine's error when the connect or a join is rejected.
    pub fn attach_app(
        &self,
        app: Arc<dyn AppState>,
        name: &str,
        groups: &[String],
    ) -> Result<(), MultiRingError> {
        request(&self.cmd_tx, |resp| Cmd::AttachApp {
            app,
            name: name.to_string(),
            groups: groups.to_vec(),
            resp,
        })
        .unwrap_or_else(|| Err(stopped(name)))
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
        request(&self.cmd_tx, |resp| Cmd::Migrate {
            group: group.to_string(),
            to,
            resp,
        })
        .unwrap_or(Err(MultiRingError::Migration {
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
        request(&self.cmd_tx, |resp| Cmd::ExportSeqs { resp })
    }

    /// A probe of the daemon's state and counters (shard-map version,
    /// merge cursor, epoch, serving gate, duplicates dropped, migration
    /// and catch-up counters), or `None` when it already stopped.
    pub fn inspect(&self) -> Option<DaemonInspect> {
        request(&self.cmd_tx, |resp| Cmd::Inspect { resp })
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

/// Sends the command `make` builds to the loop and waits for its answer;
/// `None` once the loop has stopped.
fn request<T>(cmd_tx: &BellSender<Cmd>, make: impl FnOnce(Sender<T>) -> Cmd) -> Option<T> {
    let (resp_tx, resp_rx) = bounded(1);
    let _ = cmd_tx.send(make(resp_tx));
    resp_rx.recv().ok()
}

/// What a client call returns once the loop has stopped.
fn stopped(name: &str) -> MultiRingError {
    MultiRingError::Engine(EngineError::UnknownClient(name.to_string()))
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
        request(&self.cmd_tx, make).unwrap_or_else(|| Err(stopped(&self.name)))
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
        self.send_with_seq(groups, payload, service, 0)
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
        self.send_with_seq(groups, payload, service, seq)?;
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
        self.send_with_seq(groups, payload, service, seq)
    }

    fn send_with_seq(
        &self,
        groups: &[&str],
        payload: Bytes,
        service: Service,
        seq: u64,
    ) -> Result<(), MultiRingError> {
        self.call(|resp| Cmd::Multicast {
            name: self.name.clone(),
            groups: groups.iter().map(|g| g.to_string()).collect(),
            payload,
            service,
            seq,
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
    /// Highest regular-configuration counter seen on any ring.
    max_epoch: u64,
    watches: HashMap<String, MigrationWatch>,
    /// Time groups spent behind the fences of watched migrations.
    fence_wait: Duration,
    /// When this restarted incarnation started, while its serving gate
    /// is still closed (see the module docs).
    gated_since: Option<Instant>,
    /// HELLOs that arrived while gated, by client name: the latest
    /// `(resume_seq, nonce, addr)` of each.
    parked_hellos: HashMap<String, (u64, u64, SocketAddr)>,
    /// How long the serving gate stayed closed.
    catchup_wait: Duration,
    /// Application state mounted on this daemon (serves SVC_QUERY
    /// frames, runs here once attached).
    app: Option<Arc<dyn AppState>>,
    /// The mounted application's own client, once attached: its events
    /// go to the application instead of a session.
    app_client: Option<String>,
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
                    if self.app_client.as_deref() == Some(client.as_str()) {
                        self.step_app(|app, now| app.deliver(event, now));
                    } else {
                        self.mux.deliver(&client, event);
                    }
                }
            }
        }
    }

    /// The mounted application, once its client is attached.
    fn attached(&self) -> Option<&dyn AppState> {
        self.app_client.as_ref().and(self.app.as_deref())
    }

    /// Runs one step of the attached application and carries out what it
    /// asks of the loop. A no-op until the application's client attaches.
    fn step_app(&mut self, step: impl FnOnce(&dyn AppState, Instant) -> Vec<AppOutput>) {
        let Some(app) = self.attached() else {
            return;
        };
        for out in step(app, Instant::now()) {
            let AppOutput::Spanning {
                groups,
                payload,
                seq,
            } = out;
            let name = self.app_client.as_deref().expect("attached");
            let refs: Vec<&str> = groups.iter().map(String::as_str).collect();
            if let Ok(outputs) =
                self.engine
                    .client_multicast_spanning(name, &refs, payload, Service::Agreed, seq)
            {
                self.dispatch(outputs);
            }
        }
    }

    /// Connects the mounted application's client and joins its groups.
    fn attach_app(
        &mut self,
        app: &Arc<dyn AppState>,
        name: &str,
        groups: &[String],
    ) -> Result<(), MultiRingError> {
        let mounted = self.app.as_ref().map(Arc::as_ptr);
        if !mounted.is_some_and(|a| std::ptr::addr_eq(a, Arc::as_ptr(app))) {
            return Err(MultiRingError::AppNotMounted);
        }
        self.engine.client_connect(name)?;
        self.app_client = Some(name.to_string());
        for group in groups {
            let outputs = self.engine.client_join(name, group)?;
            self.dispatch(outputs);
        }
        Ok(())
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

    /// Steps ring `k` once with `op` ([`RingNode::step`], or
    /// [`RingNode::turn`] to turn a resting ring): its deliveries and
    /// configuration changes go into the engine, its refused submissions
    /// are replayed, and its merge floor rises to the node's. Returns
    /// whether the ring had input, or the exit when its node died.
    fn step_ring(
        &mut self,
        k: usize,
        op: impl FnOnce(&mut RingNode, &mut Vec<AppEvent>) -> Result<bool, String>,
    ) -> Result<bool, Exit> {
        let ring = RingIdx::new(k as u16);
        if self.nodes[k].killed() {
            return Err(Exit::RingDead {
                ring,
                reason: "node killed".to_string(),
            });
        }
        let mut events = Vec::new();
        let stepped = op(&mut self.nodes[k], &mut events);
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
    /// protocol timer or the pump's own. `poller` then holds which
    /// descriptors woke it, and the doorbell is drained only if it rang.
    /// Returns whether the wait ran to its deadline, or `None` without
    /// waiting, every descriptor counting as ready, when ring input, a
    /// command or a kill raced the idle decision.
    fn park(&self, poller: &mut Poller, bell: &Doorbell, cmd_rx: &Receiver<Cmd>) -> Option<bool> {
        // Non-short-circuiting: every shm endpoint arms its doorbell.
        let ring_ready = self.nodes.iter().fold(false, |r, n| n.prepare_wait() | r);
        if ring_ready || bell.arm(|| !cmd_rx.is_empty() || self.nodes.iter().any(RingNode::killed))
        {
            poller.assume_ready();
            return None;
        }
        let timers = self.nodes.iter().filter_map(RingNode::next_deadline);
        let deadline = timers.chain(self.next_deadline()).min();
        poller.wait_until(deadline);
        bell.disarm();
        if bell.poll_fd().is_none_or(|fd| poller.ready(fd)) {
            bell.drain();
        }
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
        // The pass that took the shutdown stepped no ring.
        poller.assume_ready();
        while left.contains(&false) {
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
                let readable = self.nodes[k].readable(poller);
                // A dead node cannot announce; its peers time it out.
                if self.step_ring(k, |n, e| n.step(readable, e)).is_err() {
                    *gone = true;
                }
            }
            self.mux.flush_egress();
            // Only the rings still draining may wake the wait: the drain
            // reads neither the session socket nor commands.
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

    /// The earliest instant a timer-driven duty of this pump falls due: a
    /// migration abort escalation or the attached application's
    /// deadline. `None` when only input can make work.
    fn next_deadline(&self) -> Option<Instant> {
        let aborts = self
            .watches
            .values()
            .map(|w| w.next_abort.map_or(w.deadline, |t| t.max(w.deadline)));
        let app = self.attached().and_then(AppState::deadline);
        aborts.chain(app).min()
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
                    // state. The HELLO is parked, unanswered, until the
                    // gate opens (`service_gate`) — an ERROR reply would
                    // make `SessionClient::connect` fail immediately.
                    // Past the cap it is dropped, and the client's retry
                    // loop outlasts a ring re-formation.
                    if self.gated_since.is_some() {
                        if self.parked_hellos.len() < MAX_PARKED_HELLOS
                            || self.parked_hellos.contains_key(&name)
                        {
                            self.parked_hellos.insert(name, (resume_seq, nonce, addr));
                        }
                        continue;
                    }
                    self.hello(name, resume_seq, nonce, addr);
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
                Ingress::SvcQuery { nonce, body, addr } => {
                    // Answered outside the ordered path — but never from
                    // behind the serving gate: a catching-up daemon's
                    // application state is as stale as its shard map.
                    if self.gated_since.is_some() {
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

    /// Answers one client's HELLO.
    fn hello(&mut self, name: String, resume_seq: u64, nonce: u64, addr: SocketAddr) {
        // Split borrow: the mux decides new-vs-resume, the engine
        // registers genuinely new clients (on every ring at once).
        let engine = &mut self.engine;
        self.mux.handle_hello(name, resume_seq, nonce, addr, |n| {
            engine.client_connect(n).map_err(|e| match e {
                MultiRingError::Engine(e) => e,
                // `client_connect` cannot raise the multi-ring-only
                // variants; keep the message for the ERROR frame if it
                // ever does.
                other => EngineError::UnknownClient(other.to_string()),
            })
        });
    }

    /// Opens the serving gate once every ring has delivered the
    /// watermarks of every other member of its latest regular
    /// configuration, and answers the HELLOs parked behind it.
    fn service_gate(&mut self) {
        if let Some(since) = self.gated_since {
            if self.engine.caught_up() {
                self.catchup_wait = since.elapsed();
                self.gated_since = None;
                for (name, (resume_seq, nonce, addr)) in std::mem::take(&mut self.parked_hellos) {
                    self.hello(name, resume_seq, nonce, addr);
                }
            }
        }
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
            Cmd::AttachApp {
                app,
                name,
                groups,
                resp,
            } => {
                let _ = resp.send(self.attach_app(&app, &name, &groups));
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
                resp,
            } => {
                let refs: Vec<&str> = groups.iter().map(String::as_str).collect();
                let result = self
                    .engine
                    .client_multicast_sequenced(&name, &refs, payload, service, seq);
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
                    catching_up: self.gated_since.is_some(),
                    duplicates_dropped: self.engine.duplicates_dropped(),
                    migrations: self.engine.migration_counters(),
                    fence_wait: self.fence_wait,
                    recovery: RecoveryCounters {
                        maps_adopted: self.engine.maps_adopted(),
                        catchup_wait: self.catchup_wait,
                    },
                });
            }
            Cmd::Shutdown => return Some(Exit::Shutdown),
            Cmd::ShutdownGraceful { drain } => {
                // Clients are deliberately NOT disconnected through the
                // engine: their routing state must survive the drain so
                // deliveries that complete during it still reach them.
                // Survivors prune this daemon's clients via the
                // departure's configuration change, exactly as they would
                // after a crash — just sooner, thanks to the leave
                // announcement.
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
    let mut engine = MultiRingEngine::new(pid, shards);
    // The supervisor's seed first, the peers' ordered announcements
    // later: both are monotone, so layering them can only tighten the
    // dedup watermarks.
    if let Some(seed) = &options.recovery_seed {
        engine.seed_seqs(seed);
    }
    let gated_since = nodes.iter().any(RingNode::restored).then(Instant::now);
    let mut p = Pump {
        engine,
        retries: vec![VecDeque::new(); nodes.len()],
        nodes,
        mux,
        shared,
        max_epoch: 0,
        watches: HashMap::new(),
        fence_wait: Duration::ZERO,
        gated_since,
        parked_hellos: HashMap::new(),
        catchup_wait: Duration::ZERO,
        app: options.app_state.clone(),
        app_client: None,
    };
    // One wait covers every input: ring datagrams and session datagrams
    // wake it through their sockets (or shm doorbells), commands and
    // kills through the pump's doorbell. Each pass reads only what the
    // wait reported ready.
    let mut poller = Poller::new();
    let session_fd = p.mux.poll_fd();
    let fds: Vec<i32> = session_fd
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
            if session_fd.is_some_and(|fd| poller.ready(fd)) {
                p.mux.ingest(&mut ingress);
                p.handle_ingress(&mut ingress);
            }

            let mut ring_input = false;
            for k in 0..p.nodes.len() {
                let readable = p.nodes[k].readable(&poller);
                match p.step_ring(k, |n, e| n.step(readable, e)) {
                    Ok(did_work) => ring_input |= did_work,
                    Err(exit) => break 'pump exit,
                }
            }
            // The merge waits on these rings' floors: turn them, in case
            // they rest.
            for ring in p.engine.merge_gates() {
                match p.step_ring(ring.as_usize(), RingNode::turn) {
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
            p.service_gate();
            p.step_app(|app, now| app.poll(now));
            // Submits queued after their ring stepped (by the deliveries
            // dispatched above, a migration's abort or the application's
            // timers) turn it now: a resting ring would hold them until
            // its hold deadline.
            for k in 0..p.nodes.len() {
                if p.nodes[k].queued() {
                    if let Err(exit) = p.step_ring(k, RingNode::turn) {
                        break 'pump exit;
                    }
                }
            }
            p.mux.flush_egress();
            p.export_frontend_stats();
            // Park after every pass — the wait is level-triggered, so a
            // socket with datagrams left returns it at once — unless
            // egress is backed up or commands are left over; the pass
            // after that reads every socket.
            let busy = !cmd_rx.is_empty() || p.mux.has_pending_egress();
            woke = if busy {
                poller.assume_ready();
                None
            } else {
                p.park(&mut poller, &bell, &cmd_rx)
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
    if let Some(app) = p.attached() {
        app.deliver(ClientEvent::Disconnected { reason }, Instant::now());
    }
    p.export_frontend_stats();
}
