//! The runnable group daemon: a [`GroupEngine`] pumped by a reactor
//! thread over a real UDP transport node, serving in-process clients
//! through channels and remote clients through the session frontend
//! ([`crate::frontend`]).
//!
//! One thread does everything, and it parks in a single `ppoll` (via
//! [`Poller`]) on the session socket plus a [`Doorbell`] eventfd. A
//! remote SUBMIT wakes it the instant the datagram lands; the transport
//! node rings the doorbell after publishing ring events and when it
//! dies, and client handles ring it after every command. The single-ring
//! daemon has no timers of its own, so with no input it sleeps without a
//! timeout. All client sessions — channel adapters and remote sessions
//! alike — live in one slab-indexed [`SessionMux`], sharing fair egress,
//! credit gating, and per-cause shed accounting.
//!
//! The pump supervises its transport node: when the node thread dies
//! (panic, kill switch, or plain exit) every connected client receives a
//! terminal [`ClientEvent::Disconnected`] instead of silently hanging on
//! an event channel that will never speak again. Clients can then
//! reconnect to a surviving daemon and resubmit in-flight messages with
//! session sequence numbers; the replicated engines drop the duplicates.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use accelring_core::{FrontendStats, Service, ShedCause};
use accelring_transport::{
    AppEvent, BellSender, Doorbell, NodeHandle, Poller, TransportProbe, TransportStats,
};
use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError};

use crate::engine::{ClientEvent, EngineError, EngineOptions, EngineOutput, GroupEngine};
use crate::frontend::{FrontendOptions, Ingress, SessionMux};
use crate::proto::GroupAction;

/// Runtime settings for a [`GroupDaemon`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DaemonOptions {
    /// Packing/fragmentation settings for the group engine.
    pub engine: EngineOptions,
    /// Per-client event queue capacity; `None` means unbounded. With a
    /// bounded queue, a client that stops draining its events sheds
    /// `Message`/`View`/`Config` events (counted in
    /// [`DaemonStats::events_shed`]) instead of growing daemon memory
    /// without bound. The terminal [`ClientEvent::Disconnected`] is never
    /// shed — the pump blocks briefly to deliver it, and channel closure
    /// backstops even that.
    pub client_queue: Option<usize>,
    /// Session-frontend tuning; set
    /// [`FrontendOptions::session_socket`] to serve remote
    /// [`crate::frontend::SessionClient`]s over UDP.
    pub frontend: FrontendOptions,
}

/// Counters exported by a running [`GroupDaemon`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Client events dropped across all causes (the sum of the per-cause
    /// counters below).
    pub events_shed: u64,
    /// Events shed because one session's bounded queue was full.
    pub events_shed_slow: u64,
    /// Events shed because the frontend-wide queued-event budget was
    /// exhausted.
    pub events_shed_budget: u64,
    /// Events dropped because their session closed while the delivery
    /// was in flight.
    pub events_shed_race: u64,
    /// Sequenced messages dropped by this daemon's engine as duplicates.
    pub duplicates_dropped: u64,
}

#[derive(Debug, Default)]
struct SharedStats {
    frontend: Mutex<FrontendStats>,
    duplicates_dropped: AtomicU64,
}

enum Cmd {
    Connect {
        name: String,
        events: Sender<ClientEvent>,
        resp: Sender<Result<(), EngineError>>,
    },
    Join {
        name: String,
        group: String,
        resp: Sender<Result<(), EngineError>>,
    },
    Leave {
        name: String,
        group: String,
        resp: Sender<Result<(), EngineError>>,
    },
    Multicast {
        name: String,
        groups: Vec<String>,
        payload: Bytes,
        service: Service,
        seq: u64,
        resp: Sender<Result<(), EngineError>>,
    },
    Disconnect {
        name: String,
    },
    Shutdown,
    ShutdownGraceful {
        drain: Duration,
    },
}

/// A running group daemon: the ordering/membership stack plus the group
/// engine, serving local clients.
#[derive(Debug)]
pub struct GroupDaemon {
    cmd_tx: BellSender<Cmd>,
    thread: Option<JoinHandle<()>>,
    options: DaemonOptions,
    shared: Arc<SharedStats>,
    probe: TransportProbe,
    session_addr: Option<SocketAddr>,
}

impl GroupDaemon {
    /// Starts the group layer on top of a running transport node with
    /// default options.
    pub fn start(node: NodeHandle) -> GroupDaemon {
        GroupDaemon::start_with(node, DaemonOptions::default())
    }

    /// Starts the group layer with explicit packing/fragmentation options
    /// and an unbounded client queue.
    pub fn start_with_options(node: NodeHandle, options: EngineOptions) -> GroupDaemon {
        GroupDaemon::start_with(
            node,
            DaemonOptions {
                engine: options,
                ..DaemonOptions::default()
            },
        )
    }

    /// Starts the group layer with full runtime options.
    pub fn start_with(node: NodeHandle, options: DaemonOptions) -> GroupDaemon {
        let bell = Arc::new(Doorbell::new().expect("create pump doorbell"));
        node.set_doorbell(Arc::clone(&bell));
        let (cmd_tx, cmd_rx) = unbounded();
        let cmd_tx = BellSender::new(cmd_tx, Arc::clone(&bell));
        let shared = Arc::new(SharedStats::default());
        let pump_shared = shared.clone();
        // Taken before the handle moves into the pump thread: the probe
        // keeps the transport counters readable for the daemon's lifetime.
        let probe = node.probe();
        let pump_probe = probe.clone();
        // Bound before the thread spawns so the session address is known
        // the moment this constructor returns.
        let mux = SessionMux::new(options.frontend).expect("bind session socket");
        let session_addr = mux.local_addr();
        let thread = std::thread::Builder::new()
            .name(format!("group-daemon-{}", node.pid()))
            .spawn(move || {
                pump(
                    node,
                    cmd_rx,
                    bell,
                    options.engine,
                    mux,
                    pump_shared,
                    pump_probe,
                )
            })
            .expect("spawn group daemon thread");
        GroupDaemon {
            cmd_tx,
            thread: Some(thread),
            options,
            shared,
            probe,
            session_addr,
        }
    }

    /// The UDP address remote [`crate::frontend::SessionClient`]s dial,
    /// or `None` when the session socket is disabled.
    pub fn session_addr(&self) -> Option<SocketAddr> {
        self.session_addr
    }

    /// A snapshot of the session frontend's counters (sessions open,
    /// submits, per-cause sheds, reactor wakeups/syscalls).
    pub fn frontend_stats(&self) -> FrontendStats {
        *self.shared.frontend.lock().expect("frontend stats lock")
    }

    /// Connects a new local client with no session history (sequenced
    /// sends start at 1).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] for invalid or duplicate names.
    pub fn connect(&self, name: &str) -> Result<GroupClient, EngineError> {
        self.connect_session(name, 0)
    }

    /// Connects a client resuming an earlier session: its next sequenced
    /// multicast is stamped `resume_from + 1`. A client reconnecting after
    /// its daemon died passes the last sequence number it *knows* was
    /// accepted, then re-sends everything after it with
    /// [`GroupClient::resubmit`]; engines drop whatever actually made it
    /// through the first time.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] for invalid or duplicate names, or if the
    /// daemon is no longer running.
    pub fn connect_session(
        &self,
        name: &str,
        resume_from: u64,
    ) -> Result<GroupClient, EngineError> {
        let event_rx = {
            let (event_tx, event_rx) = match self.options.client_queue {
                Some(cap) => bounded(cap),
                None => unbounded(),
            };
            let (resp_tx, resp_rx) = bounded(1);
            let _ = self.cmd_tx.send(Cmd::Connect {
                name: name.to_string(),
                events: event_tx,
                resp: resp_tx,
            });
            resp_rx
                .recv()
                .unwrap_or(Err(EngineError::UnknownClient(name.to_string())))?;
            event_rx
        };
        Ok(GroupClient {
            name: name.to_string(),
            cmd_tx: self.cmd_tx.clone(),
            event_rx,
            next_seq: AtomicU64::new(resume_from),
        })
    }

    /// Current runtime counters.
    pub fn stats(&self) -> DaemonStats {
        let fs = *self.shared.frontend.lock().expect("frontend stats lock");
        DaemonStats {
            events_shed: fs.events_shed(),
            events_shed_slow: fs.shed_slow_session,
            events_shed_budget: fs.shed_global_budget,
            events_shed_race: fs.shed_disconnect_race,
            duplicates_dropped: self.shared.duplicates_dropped.load(Ordering::Relaxed),
        }
    }

    /// A snapshot of the underlying transport node's counters (datagrams,
    /// syscalls, pool hits — the hot-path efficiency numbers), readable
    /// even though the node handle lives inside the pump thread.
    pub fn transport_stats(&self) -> TransportStats {
        self.probe.stats()
    }

    /// A clonable probe onto the node's transport counters and buffer
    /// pools, outliving this daemon's shutdown (useful for leak checks).
    pub fn transport_probe(&self) -> TransportProbe {
        self.probe.clone()
    }

    /// Stops the daemon thread immediately. Connected clients receive
    /// [`ClientEvent::Disconnected`]; no departure courtesy is extended to
    /// the ring (peers detect the loss via token-loss timeout).
    pub fn shutdown(mut self) {
        let _ = self.cmd_tx.send(Cmd::Shutdown);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Gracefully drains and leaves: pending submissions and deliveries
    /// are flushed (bounded by `drain`), then the node announces its
    /// departure so survivors reform after one gather round instead of
    /// waiting out the token-loss timeout; the departure's configuration
    /// change prunes this daemon's clients from group views everywhere.
    /// Local clients receive their final deliveries, then
    /// [`ClientEvent::Disconnected`].
    pub fn shutdown_graceful(mut self, drain: Duration) {
        let _ = self.cmd_tx.send(Cmd::ShutdownGraceful { drain });
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for GroupDaemon {
    fn drop(&mut self) {
        let _ = self.cmd_tx.send(Cmd::Shutdown);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A client connected to a local [`GroupDaemon`].
#[derive(Debug)]
pub struct GroupClient {
    name: String,
    cmd_tx: BellSender<Cmd>,
    event_rx: Receiver<ClientEvent>,
    /// Last session sequence number handed out by
    /// [`GroupClient::multicast_sequenced`].
    next_seq: AtomicU64,
}

impl GroupClient {
    /// This client's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The stream of messages, views, configuration notices, and the
    /// terminal [`ClientEvent::Disconnected`]. The channel closing without
    /// one also means the daemon is gone.
    pub fn events(&self) -> &Receiver<ClientEvent> {
        &self.event_rx
    }

    /// The last sequence number stamped by
    /// [`GroupClient::multicast_sequenced`] (or the resume watermark if
    /// none yet). Persist this across reconnects.
    pub fn last_seq(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    fn call(
        &self,
        make: impl FnOnce(Sender<Result<(), EngineError>>) -> Cmd,
    ) -> Result<(), EngineError> {
        let (resp_tx, resp_rx) = bounded(1);
        let _ = self.cmd_tx.send(make(resp_tx));
        resp_rx
            .recv()
            .unwrap_or(Err(EngineError::UnknownClient(self.name.clone())))
    }

    /// Joins a group.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] for invalid group names.
    pub fn join(&self, group: &str) -> Result<(), EngineError> {
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
    /// Returns [`EngineError`] for invalid group names.
    pub fn leave(&self, group: &str) -> Result<(), EngineError> {
        self.call(|resp| Cmd::Leave {
            name: self.name.clone(),
            group: group.to_string(),
            resp,
        })
    }

    /// Multicasts to one or more groups with cross-group total ordering
    /// (unsequenced: a resubmission after a daemon failure could be
    /// delivered twice; use [`GroupClient::multicast_sequenced`] when that
    /// matters).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] for invalid names or group counts.
    pub fn multicast(
        &self,
        groups: &[&str],
        payload: Bytes,
        service: Service,
    ) -> Result<(), EngineError> {
        self.send_with_seq(groups, payload, service, 0)
    }

    /// Multicasts with the session's next sequence number stamped on the
    /// message, returning that number. If this daemon later dies with the
    /// message's fate unknown, reconnect elsewhere and
    /// [`GroupClient::resubmit`] with the same number: every engine drops
    /// the copy it has already delivered.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] for invalid names or group counts.
    pub fn multicast_sequenced(
        &self,
        groups: &[&str],
        payload: Bytes,
        service: Service,
    ) -> Result<u64, EngineError> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.send_with_seq(groups, payload, service, seq)?;
        Ok(seq)
    }

    /// Re-sends a message under an explicit session sequence number after
    /// a reconnect. Delivered at most once ring-wide: duplicates of an
    /// already-delivered sequence number are suppressed by every engine.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] for invalid names or group counts.
    pub fn resubmit(
        &self,
        seq: u64,
        groups: &[&str],
        payload: Bytes,
        service: Service,
    ) -> Result<(), EngineError> {
        self.send_with_seq(groups, payload, service, seq)
    }

    fn send_with_seq(
        &self,
        groups: &[&str],
        payload: Bytes,
        service: Service,
        seq: u64,
    ) -> Result<(), EngineError> {
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
    Immediate,
    /// Graceful shutdown: drain and announce departure.
    Graceful(Duration),
    /// The transport node is dead (panic, kill, or exit).
    NodeDead(String),
}

struct Pump {
    engine: GroupEngine,
    mux: SessionMux,
    shared: Arc<SharedStats>,
    probe: TransportProbe,
    /// Frontend counters as of the last export, for delta-mirroring the
    /// shed counts into the transport probe.
    reported: FrontendStats,
}

impl Pump {
    fn dispatch(&mut self, outputs: Vec<EngineOutput>, node: &NodeHandle) {
        for out in outputs {
            match out {
                EngineOutput::Submit { payload, service } => {
                    // Engine traffic is low-rate control fan-out; a full
                    // command queue here means the daemon is wedged and the
                    // protocol's own recovery will resynchronize the group.
                    let _ = node.submit(payload, service);
                }
                EngineOutput::Local { client, event } => {
                    self.mux.deliver(&client, event);
                }
            }
        }
    }

    /// Routes the engine-relevant frames surfaced by one ingest burst.
    fn handle_ingress(&mut self, ingress: &mut Vec<Ingress>, node: &NodeHandle) {
        for ing in ingress.drain(..) {
            match ing {
                Ingress::Hello {
                    name,
                    resume_seq,
                    nonce,
                    addr,
                } => {
                    // Split borrow: the mux decides new-vs-resume, the
                    // engine registers genuinely new clients.
                    let engine = &mut self.engine;
                    let mux = &mut self.mux;
                    mux.handle_hello(name, resume_seq, nonce, addr, |n| engine.client_connect(n));
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
                            self.engine
                                .client_multicast_sequenced(&name, &refs, payload, service, seq)
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
                        Ok(outputs) => self.dispatch(outputs, node),
                        Err(_) => self.mux.note_rejected(),
                    }
                }
                Ingress::Bye { name } => {
                    if let Ok(outputs) = self.engine.client_disconnect(&name) {
                        self.dispatch(outputs, node);
                    }
                }
                // Recovery anti-entropy and local services are
                // multi-ring concerns; the single-ring daemon has no
                // shard map to serve or adopt and mounts no application.
                Ingress::MapPull { .. } | Ingress::MapPush { .. } | Ingress::SvcQuery { .. } => {}
            }
        }
    }

    /// Handles one client command; `Some` ends the pump loop.
    fn handle_cmd(&mut self, cmd: Cmd, node: &NodeHandle) -> Option<Exit> {
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
                let _ = resp.send(result.map(|o| self.dispatch(o, node)));
            }
            Cmd::Leave { name, group, resp } => {
                let result = self.engine.client_leave(&name, &group);
                let _ = resp.send(result.map(|o| self.dispatch(o, node)));
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
                let _ = resp.send(result.map(|o| self.dispatch(o, node)));
            }
            Cmd::Disconnect { name } => {
                if let Ok(outputs) = self.engine.client_disconnect(&name) {
                    self.dispatch(outputs, node);
                }
                self.mux.close_name(&name);
            }
            Cmd::Shutdown => return Some(Exit::Immediate),
            Cmd::ShutdownGraceful { drain } => {
                // Only flush partially packed payloads here. Clients are
                // deliberately NOT disconnected through the engine: their
                // routing state must survive the drain so deliveries that
                // complete during it still reach them. Survivors prune
                // this daemon's clients via the departure's configuration
                // change, exactly as they would after a crash — just
                // sooner, thanks to the leave announcement.
                let flushed = self.engine.flush();
                self.dispatch(flushed, node);
                return Some(Exit::Graceful(drain));
            }
        }
        None
    }

    fn on_ring_event(&mut self, ev: AppEvent, node: &NodeHandle) {
        match ev {
            AppEvent::Delivered(d) => {
                let outputs = self.engine.on_delivery(&d);
                self.dispatch(outputs, node);
            }
            AppEvent::Config(c) => {
                let outputs = self.engine.on_config_change(&c);
                self.dispatch(outputs, node);
            }
            // Handled by the callers (reason needed for Disconnected).
            AppEvent::Fault { .. } => {}
        }
    }

    fn export_stats(&mut self) {
        self.shared
            .duplicates_dropped
            .store(self.engine.duplicates_dropped(), Ordering::Relaxed);
        let now = self.mux.stats();
        // Mirror shed deltas into the transport probe so chaos/leak
        // tooling watching TransportStats sees the frontend's drops too.
        let d_slow = now.shed_slow_session - self.reported.shed_slow_session;
        let d_budget = now.shed_global_budget - self.reported.shed_global_budget;
        let d_race = now.shed_disconnect_race - self.reported.shed_disconnect_race;
        if d_slow > 0 {
            self.probe.note_events_shed(ShedCause::SlowSession, d_slow);
        }
        if d_budget > 0 {
            self.probe
                .note_events_shed(ShedCause::GlobalBudget, d_budget);
        }
        if d_race > 0 {
            self.probe
                .note_events_shed(ShedCause::DisconnectRace, d_race);
        }
        self.reported = now;
        *self.shared.frontend.lock().expect("frontend stats lock") = now;
    }
}

fn pump(
    node: NodeHandle,
    cmd_rx: Receiver<Cmd>,
    bell: Arc<Doorbell>,
    options: EngineOptions,
    mux: SessionMux,
    shared: Arc<SharedStats>,
    probe: TransportProbe,
) {
    let mut p = Pump {
        engine: GroupEngine::with_options(node.pid(), options),
        mux,
        shared,
        probe,
        reported: FrontendStats::default(),
    };
    // One wait covers every input: a session datagram wakes it through
    // the socket, ring events and commands through the doorbell.
    let mut poller = Poller::new();
    let fds: Vec<i32> = p.mux.poll_fd().into_iter().chain(bell.poll_fd()).collect();
    poller.set_fds(&fds);
    let mut ingress: Vec<Ingress> = Vec::new();

    let exit = 'pump: loop {
        // Park until input arrives — but never while egress is backed
        // up, and never past work that raced the arm.
        let raced = || !cmd_rx.is_empty() || node.events_ready();
        if !p.mux.has_pending_egress() && !bell.arm(raced) {
            poller.wait_until(None);
            bell.disarm();
            bell.drain();
        }
        p.mux.note_wakeup();

        loop {
            match cmd_rx.try_recv() {
                Ok(cmd) => {
                    if let Some(exit) = p.handle_cmd(cmd, &node) {
                        break 'pump exit;
                    }
                }
                Err(TryRecvError::Empty) => break,
                // Every daemon and client handle dropped without Shutdown.
                Err(TryRecvError::Disconnected) => break 'pump Exit::Immediate,
            }
        }
        // Session ingest before the engine flush: submits that just
        // arrived ride the same flush as this tick's command traffic.
        p.mux.ingest(&mut ingress);
        if !ingress.is_empty() {
            p.handle_ingress(&mut ingress, &node);
        }
        // Close any partially packed payloads so buffered client messages
        // are not held hostage waiting for more traffic.
        let flushed = p.engine.flush();
        p.dispatch(flushed, &node);

        loop {
            match node.events().try_recv() {
                Ok(AppEvent::Fault { reason }) => break 'pump Exit::NodeDead(reason),
                Ok(ev) => p.on_ring_event(ev, &node),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    break 'pump Exit::NodeDead("node thread exited".to_string());
                }
            }
        }
        p.mux.flush_egress();
        p.export_stats();
    };

    match exit {
        Exit::Immediate => {
            p.mux.flush_egress();
            p.mux.broadcast_disconnected("daemon shutdown");
            node.shutdown();
        }
        Exit::Graceful(drain) => {
            // The node flushes pending work, announces its departure, and
            // exits; deliveries produced during the drain still reach the
            // clients before their terminal event.
            let rx = node.leave(drain);
            while let Ok(ev) = rx.try_recv() {
                match ev {
                    AppEvent::Fault { .. } => break,
                    AppEvent::Delivered(d) => {
                        let outputs = p.engine.on_delivery(&d);
                        for out in outputs {
                            if let EngineOutput::Local { client, event } = out {
                                p.mux.deliver(&client, event);
                            }
                        }
                    }
                    AppEvent::Config(_) => {}
                }
            }
            p.mux.flush_egress();
            p.mux.broadcast_disconnected("daemon shutdown");
        }
        Exit::NodeDead(reason) => {
            p.mux.flush_egress();
            p.mux.broadcast_disconnected(&reason);
        }
    }
    p.export_stats();
}
