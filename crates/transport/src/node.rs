//! The ring node: one ring's protocol stack over its two sockets.
//!
//! A [`RingNode`] owns the token and data sockets, the sans-IO
//! [`MembershipDaemon`] (ordering plus membership), the buffer pools and
//! the counters, and holds no thread: whoever owns it calls
//! [`step`](RingNode::step) — one receive batch in the protocol's
//! priority order, then the due timers. The daemon pump
//! (`accelring-multiring`) steps one per ring in its own loop, so a
//! daemon is one OS thread, like the paper's. A bare ring, and every node
//! during bring-up, runs the same node on a thread of its own behind a
//! [`NodeHandle`], which adds a command channel for submits and an event
//! channel for deliveries; [`NodeHandle::into_ring_node`] hands it over.
//!
//! A panic inside a step is caught around the step and counted in
//! [`TransportStats::thread_panics`]; a graceful leave drains pending
//! traffic and announces the departure so survivors reform without
//! waiting out the token-loss timeout.

use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use accelring_core::{
    wire, BufLease, BufferPool, Delivery, HotPathStats, ParticipantId, ProtocolConfig, Round,
    Service, ShmPathStats,
};
use accelring_membership::{
    decode_control, encode_control, ConfigChange, Input, MembershipConfig, MembershipDaemon,
    Output, StateKind,
};
use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError, TrySendError};

use crate::addr::{AddressBook, NodeAddr};
use crate::doorbell::Doorbell;
use crate::fault::{FaultPlane, InterposedSocket, SocketClass};
use crate::poller::Poller;
use crate::shm::{ShmCounters, ShmSocket};
use crate::socket::{DatagramSocket, RecvSlot, SendOutcome};
use crate::Transport;

/// Largest datagram the transport accepts (64 KiB UDP limit).
const MAX_DATAGRAM: usize = 65_536;
/// The poll cap of a bare node's thread: the longest one idle park
/// lasts. A datagram or a due protocol timer wakes the thread sooner;
/// queued commands and the handle's stop, leave and hand-over requests
/// signal no descriptor, so this bounds how long they wait while the node
/// is idle. A node stepped by the daemon pump has no such cap: the pump's
/// commands ring its doorbell.
const IDLE_SLEEP: Duration = Duration::from_micros(200);
/// Capacity of a bare node's command channel. A full channel surfaces as
/// [`SubmitError::Backlogged`] instead of unbounded memory growth when the
/// ring cannot keep up with local submitters.
const COMMAND_QUEUE_CAPACITY: usize = 4096;
/// Datagrams drained from one socket per step. Token priority is
/// re-evaluated between steps, so a burst of data traffic can defer the
/// token by at most this many datagrams.
const RECV_BATCH: usize = 32;
/// Idle buffers each pool parks for reuse. Sized so the working set —
/// the receive leases plus every payload slice the protocol retains
/// until delivery (each pins its whole pooled buffer) — cycles through
/// the free list instead of falling through to the allocator.
const POOL_MAX_FREE: usize = 512;
/// Requested socket buffer depth. Gathered sends deliver a whole
/// window's fanout in one burst; see
/// [`deepen_socket_buffers`] for why the kernel default is too shallow.
const SOCKET_BUFFER_BYTES: i32 = 512 << 10;

/// Best-effort deepening of both sockets' kernel buffers (Linux only; a
/// no-op elsewhere). See `mmsg::set_buffer_sizes` for the rationale.
fn deepen_socket_buffers(data: &UdpSocket, token: &UdpSocket) {
    #[cfg(target_os = "linux")]
    {
        crate::mmsg::set_buffer_sizes(data, SOCKET_BUFFER_BYTES);
        crate::mmsg::set_buffer_sizes(token, SOCKET_BUFFER_BYTES);
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (data, token);
    }
}

/// Counters exported by a running node; every anomaly the event loop
/// swallows (it must keep running) is visible here instead of vanishing.
#[derive(Debug, Default)]
struct StatsInner {
    datagrams_rx: AtomicU64,
    datagrams_tx: AtomicU64,
    syscalls_rx: AtomicU64,
    syscalls_tx: AtomicU64,
    decode_failures: AtomicU64,
    recv_errors: AtomicU64,
    send_errors: AtomicU64,
    submissions: AtomicU64,
    submissions_shed: AtomicU64,
    thread_panics: AtomicU64,
}

/// A point-in-time copy of a node's transport counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportStats {
    /// Datagrams that failed to parse (truncated, unknown kind, garbage).
    pub decode_failures: u64,
    /// `recv` failures other than `WouldBlock`.
    pub recv_errors: u64,
    /// Send failures, counted per failed destination (a partially failed
    /// fanout counts each refusing peer, not the flush).
    pub send_errors: u64,
    /// Client submissions accepted into the ring's send queue
    /// ([`RingNode::submit`], directly or through a [`NodeHandle`]).
    pub submissions: u64,
    /// Client submissions a bare node refused (send queue full) while it
    /// drained for a [`NodeHandle::leave`] or a hand-over. While running,
    /// a refused submission is parked and callers see
    /// [`SubmitError::Backlogged`].
    pub submissions_shed: u64,
    /// Panics caught around a ring step. Each is terminal for the node: a
    /// bare node reports it as an [`AppEvent::Fault`], the daemon pump
    /// disconnects its clients.
    pub thread_panics: u64,
    /// Hot-datapath counters: datagrams, syscall batching, pool behaviour.
    pub hot: HotPathStats,
    /// Shared-memory datapath counters (all zero on a UDP node).
    pub shm: ShmPathStats,
}

impl StatsInner {
    fn snapshot(&self) -> TransportStats {
        TransportStats {
            decode_failures: self.decode_failures.load(Ordering::Relaxed),
            recv_errors: self.recv_errors.load(Ordering::Relaxed),
            send_errors: self.send_errors.load(Ordering::Relaxed),
            submissions: self.submissions.load(Ordering::Relaxed),
            submissions_shed: self.submissions_shed.load(Ordering::Relaxed),
            thread_panics: self.thread_panics.load(Ordering::Relaxed),
            hot: HotPathStats {
                datagrams_rx: self.datagrams_rx.load(Ordering::Relaxed),
                datagrams_tx: self.datagrams_tx.load(Ordering::Relaxed),
                syscalls_rx: self.syscalls_rx.load(Ordering::Relaxed),
                syscalls_tx: self.syscalls_tx.load(Ordering::Relaxed),
                pool_hits: 0,   // filled from the pools by the callers
                pool_misses: 0, // that hold the pool handles
            },
            shm: ShmPathStats::default(), // filled from the ShmCounters
        }
    }
}

/// The stop flag of a node and the doorbell of the loop that steps it:
/// a [`KillSwitch`] sets the flag and rings the doorbell, so a parked
/// loop sees the kill at once.
#[derive(Debug, Default)]
struct KillState {
    stop: AtomicBool,
    bell: OnceLock<Arc<Doorbell>>,
}

/// What a [`NodeHandle`] and its thread share: the handle's requests,
/// checked once per iteration, and the membership observability the
/// thread publishes after every step (relaxed atomics: point-in-time,
/// possibly one step stale).
#[derive(Debug, Default)]
struct DriverShared {
    /// Stop at a step boundary and return the node through the join.
    release: AtomicBool,
    /// Drain for at most `drain_ns`, announce the departure and exit.
    leave: AtomicBool,
    drain_ns: AtomicU64,
    state: AtomicU8,
    rings_formed: AtomicU64,
    tokens_retransmitted: AtomicU64,
    ring_counter: AtomicU64,
}

const STATE_OPERATIONAL: u8 = 0;
const STATE_GATHER: u8 = 1;
const STATE_COMMIT: u8 = 2;
const STATE_RECOVER: u8 = 3;

fn state_to_u8(s: StateKind) -> u8 {
    match s {
        StateKind::Operational => STATE_OPERATIONAL,
        StateKind::Gather => STATE_GATHER,
        StateKind::Commit => STATE_COMMIT,
        StateKind::Recover => STATE_RECOVER,
    }
}

fn state_from_u8(v: u8) -> StateKind {
    match v {
        STATE_OPERATIONAL => StateKind::Operational,
        STATE_GATHER => StateKind::Gather,
        STATE_COMMIT => StateKind::Commit,
        _ => StateKind::Recover,
    }
}

/// Why a [`RingNode::submit`] or [`NodeHandle::submit`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The ring's send queue (or a bare node's command queue) is full;
    /// retry once the ring has stepped again.
    Backlogged,
    /// A bare node's thread has stopped.
    Stopped,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Backlogged => write!(f, "command queue full (backpressure)"),
            SubmitError::Stopped => write!(f, "daemon thread has stopped"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// An event surfaced to the application.
#[derive(Debug, Clone)]
pub enum AppEvent {
    /// A message was delivered in total order.
    Delivered(Delivery),
    /// An EVS configuration change.
    Config(ConfigChange),
    /// A bare node's step panicked (caught around the step). Terminal:
    /// no further events follow and the node must be restarted.
    Fault {
        /// The panic payload, as text.
        reason: String,
    },
}

#[derive(Debug)]
enum Command {
    Submit(Bytes, Service),
    #[doc(hidden)]
    InjectPanic,
}

/// Errors from starting a transport node.
#[derive(Debug)]
pub enum TransportError {
    /// Binding or configuring a socket failed.
    Io(std::io::Error),
    /// The local participant id is missing from the address book.
    NotInAddressBook(ParticipantId),
    /// Binding a specific participant's sockets failed even after retries;
    /// identifies *which* ring member could not come up.
    Bind {
        /// The participant whose sockets failed to bind.
        pid: ParticipantId,
        /// How many attempts were made.
        attempts: usize,
        /// The last bind error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "socket error: {e}"),
            TransportError::NotInAddressBook(p) => {
                write!(f, "participant {p} is not in the address book")
            }
            TransportError::Bind {
                pid,
                attempts,
                source,
            } => write!(
                f,
                "binding sockets for participant {pid} failed after {attempts} attempts: {source}"
            ),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            TransportError::NotInAddressBook(_) => None,
            TransportError::Bind { source, .. } => Some(source),
        }
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// Start-time options beyond the protocol and membership configuration.
#[derive(Debug, Clone, Default)]
pub struct NodeOptions {
    /// Route every send through this fault plane (chaos testing).
    pub plane: Option<Arc<FaultPlane>>,
    /// Stable-storage ring counter from a previous incarnation, so a
    /// restarted daemon never reuses a ring id (see
    /// [`MembershipDaemon::max_ring_counter`]). Read it from the dead
    /// handle via [`NodeHandle::ring_counter`].
    pub restore_ring_counter: u64,
}

/// The bound socket pair of one daemon, on either backend. The token and
/// data sockets always share a backend: a node is entirely on UDP or
/// entirely on shm (peers on the *other* end of each link may differ —
/// addressing, not the socket type, routes a datagram).
// One BoundNode exists per daemon for the instant between bind and
// start, so the shm variant's inline ring handles are not worth boxing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum BoundSockets {
    Udp {
        data: UdpSocket,
        token: UdpSocket,
    },
    Shm {
        data: ShmSocket,
        token: ShmSocket,
        counters: Arc<ShmCounters>,
    },
}

/// A daemon with bound sockets whose addresses can be shared with peers
/// before the event loop starts (two-phase startup so tests can allocate
/// ephemeral ports).
#[derive(Debug)]
pub struct BoundNode {
    pid: ParticipantId,
    sockets: BoundSockets,
}

impl BoundNode {
    /// Binds the two sockets on `ip` with ephemeral ports, on the backend
    /// selected by `ACCELRING_TRANSPORT` (see [`Transport::from_env`]).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] if binding fails.
    pub fn bind(pid: ParticipantId, ip: &str) -> Result<BoundNode, TransportError> {
        Self::bind_on(Transport::from_env(), pid, ip)
    }

    /// Binds the two sockets with ephemeral addresses on an explicit
    /// backend. The shm backend synthesizes its own addresses and ignores
    /// `ip` (shm endpoints live in a process-wide namespace, not an
    /// interface).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] if binding fails.
    pub fn bind_on(
        transport: Transport,
        pid: ParticipantId,
        ip: &str,
    ) -> Result<BoundNode, TransportError> {
        let sockets = match transport {
            Transport::Udp => BoundSockets::Udp {
                data: UdpSocket::bind((ip, 0))?,
                token: UdpSocket::bind((ip, 0))?,
            },
            Transport::Shm => {
                let counters = ShmCounters::new();
                BoundSockets::Shm {
                    data: ShmSocket::bind_ephemeral(Arc::clone(&counters))?,
                    token: ShmSocket::bind_ephemeral(Arc::clone(&counters))?,
                    counters,
                }
            }
        };
        Ok(BoundNode { pid, sockets })
    }

    /// Binds the two sockets to explicit addresses (production daemons use
    /// fixed ports published in the address book), on the backend selected
    /// by `ACCELRING_TRANSPORT`.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] if either bind fails.
    pub fn bind_addrs(
        pid: ParticipantId,
        data: SocketAddr,
        token: SocketAddr,
    ) -> Result<BoundNode, TransportError> {
        Self::bind_addrs_on(Transport::from_env(), pid, data, token)
    }

    /// [`BoundNode::bind_addrs`] on an explicit backend — the restart
    /// path: a daemon rebinding its published addresses after a crash.
    /// On shm the old incarnation's socket must be gone first (the name
    /// frees when it drops), surfacing the same transient `AddrInUse` the
    /// kernel produces, which the callers' retry loops already handle.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] if either bind fails.
    pub fn bind_addrs_on(
        transport: Transport,
        pid: ParticipantId,
        data: SocketAddr,
        token: SocketAddr,
    ) -> Result<BoundNode, TransportError> {
        let sockets = match transport {
            Transport::Udp => BoundSockets::Udp {
                data: UdpSocket::bind(data)?,
                token: UdpSocket::bind(token)?,
            },
            Transport::Shm => {
                let counters = ShmCounters::new();
                BoundSockets::Shm {
                    data: ShmSocket::bind(data, Arc::clone(&counters))?,
                    token: ShmSocket::bind(token, Arc::clone(&counters))?,
                    counters,
                }
            }
        };
        Ok(BoundNode { pid, sockets })
    }

    /// This node's address-book entry.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] if the local addresses cannot be read.
    pub fn addr(&self) -> Result<NodeAddr, TransportError> {
        let (data, token) = match &self.sockets {
            BoundSockets::Udp { data, token } => (data.local_addr()?, token.local_addr()?),
            BoundSockets::Shm { data, token, .. } => (data.local_addr(), token.local_addr()),
        };
        Ok(NodeAddr {
            pid: self.pid,
            data,
            token,
        })
    }

    /// Starts the node on its own thread with default options.
    ///
    /// # Errors
    ///
    /// Returns an error if the sockets cannot be made non-blocking or the
    /// node is missing from `book`.
    pub fn start(
        self,
        book: AddressBook,
        protocol: ProtocolConfig,
        membership: MembershipConfig,
    ) -> Result<NodeHandle, TransportError> {
        self.start_with(book, protocol, membership, NodeOptions::default())
    }

    /// Starts the node on its own thread with explicit [`NodeOptions`]
    /// (fault plane, restored ring counter).
    ///
    /// # Errors
    ///
    /// Returns an error if the sockets cannot be made non-blocking or the
    /// node is missing from `book`.
    pub fn start_with(
        self,
        book: AddressBook,
        protocol: ProtocolConfig,
        membership: MembershipConfig,
        options: NodeOptions,
    ) -> Result<NodeHandle, TransportError> {
        if book.get(self.pid).is_none() {
            return Err(TransportError::NotInAddressBook(self.pid));
        }
        let pid = self.pid;
        // Boxes either backend's socket pair, fault-interposed or bare —
        // the interposer is generic over the socket, so per-link fates
        // apply at slot-publish time on shm exactly as they apply at
        // send time on UDP.
        fn boxed<S: DatagramSocket + 'static>(
            data: S,
            token: S,
            pid: ParticipantId,
            plane: &Option<Arc<FaultPlane>>,
        ) -> (Box<dyn DatagramSocket>, Box<dyn DatagramSocket>) {
            match plane {
                Some(plane) => (
                    Box::new(InterposedSocket::new(
                        data,
                        pid,
                        SocketClass::Data,
                        Arc::clone(plane),
                    )),
                    Box::new(InterposedSocket::new(
                        token,
                        pid,
                        SocketClass::Token,
                        Arc::clone(plane),
                    )),
                ),
                None => (Box::new(data), Box::new(token)),
            }
        }
        let mut shm_counters = None;
        let (data_socket, token_socket) = match self.sockets {
            BoundSockets::Udp { data, token } => {
                // Gathered bursts need kernel buffers deep enough to
                // absorb a whole fanout at once.
                deepen_socket_buffers(&data, &token);
                data.set_nonblocking(true)?;
                token.set_nonblocking(true)?;
                boxed(data, token, pid, &options.plane)
            }
            BoundSockets::Shm {
                data,
                token,
                counters,
            } => {
                shm_counters = Some(counters);
                boxed(data, token, pid, &options.plane)
            }
        };
        let mut daemon = MembershipDaemon::new(pid, protocol, membership);
        daemon.restore_ring_counter(options.restore_ring_counter);
        let node = RingNode {
            pid,
            data_socket,
            token_socket,
            fanout: book.fanout_data(pid),
            book,
            daemon,
            started: false,
            inject_panic: false,
            kill: Arc::default(),
            probe: TransportProbe {
                stats: Arc::default(),
                recv_pool: BufferPool::new(MAX_DATAGRAM, POOL_MAX_FREE),
                send_pool: BufferPool::new(MAX_DATAGRAM, POOL_MAX_FREE),
                shm_counters,
            },
            start: Instant::now(),
            start_unix_ns: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos() as u64),
            outputs: Vec::new(),
            recv_leases: Vec::new(),
            data_batch: Vec::new(),
            token_batch: Vec::new(),
        };
        Ok(NodeHandle::spawn(node))
    }
}

/// A clonable, thread-safe window onto a node's transport counters and
/// buffer pools, usable after the [`NodeHandle`] itself has been handed
/// to a daemon pump (the multi-ring runtime hands these out).
#[derive(Debug, Clone)]
pub struct TransportProbe {
    stats: Arc<StatsInner>,
    recv_pool: BufferPool,
    send_pool: BufferPool,
    shm_counters: Option<Arc<ShmCounters>>,
}

impl TransportProbe {
    /// A snapshot of the node's transport counters, pool counters
    /// included.
    pub fn stats(&self) -> TransportStats {
        let mut s = self.stats.snapshot();
        let (recv, send) = (self.recv_pool.stats(), self.send_pool.stats());
        s.hot.pool_hits = recv.hits + send.hits;
        s.hot.pool_misses = recv.misses + send.misses;
        if let Some(shm) = &self.shm_counters {
            s.shm = shm.snapshot();
        }
        s
    }

    /// Pooled buffers still leased out across both pools. After the node
    /// has shut down and every delivery has been dropped, a nonzero value
    /// is a leak.
    pub fn pool_outstanding(&self) -> u64 {
        self.recv_pool.outstanding() + self.send_pool.outstanding()
    }
}

/// A clonable kill handle for a node, obtainable before the [`NodeHandle`]
/// is handed off (e.g. to a daemon pump). Killing stops the node abruptly
/// — no drain, no departure announcement — which is exactly what crash
/// tests want.
#[derive(Debug, Clone)]
pub struct KillSwitch {
    kill: Arc<KillState>,
}

impl KillSwitch {
    /// Asks the loop stepping the node to stop at its next iteration,
    /// and rings that loop's doorbell (when one is attached with
    /// [`RingNode::set_doorbell`]) so a parked loop sees it at once.
    pub fn kill(&self) {
        self.kill.stop.store(true, Ordering::SeqCst);
        if let Some(bell) = self.kill.bell.get() {
            bell.notify();
        }
    }
}

/// A [`RingNode`] driven by a thread of its own: the bare-ring runtime,
/// and every node's bring-up before a daemon pump takes it over with
/// [`NodeHandle::into_ring_node`].
#[derive(Debug)]
pub struct NodeHandle {
    pid: ParticipantId,
    cmd_tx: Sender<Command>,
    event_rx: Receiver<AppEvent>,
    shared: Arc<DriverShared>,
    kill: Arc<KillState>,
    probe: TransportProbe,
    thread: Option<JoinHandle<RingNode>>,
}

impl NodeHandle {
    fn spawn(node: RingNode) -> NodeHandle {
        let (cmd_tx, cmd_rx) = bounded(COMMAND_QUEUE_CAPACITY);
        let (event_tx, event_rx) = unbounded();
        let shared = Arc::new(DriverShared::default());
        let (pid, kill, probe) = (node.pid, Arc::clone(&node.kill), node.probe.clone());
        let mut poller = Poller::new();
        poller.set_fds(&node.poll_fds().collect::<Vec<_>>());
        let mut driver = Driver {
            node,
            cmd_rx,
            pending_submit: None,
            event_tx,
            shared: Arc::clone(&shared),
            poller,
        };
        let thread = std::thread::Builder::new()
            .name(format!("accelring-{pid}"))
            .spawn(move || {
                driver.run();
                driver.node
            })
            .expect("spawn node thread");
        NodeHandle {
            pid,
            cmd_tx,
            event_rx,
            shared,
            kill,
            probe,
            thread: Some(thread),
        }
    }

    /// The daemon's participant id.
    pub fn pid(&self) -> ParticipantId {
        self.pid
    }

    /// A clonable counters/pools probe that outlives moves of this handle.
    pub fn probe(&self) -> TransportProbe {
        self.probe.clone()
    }

    /// Submits a message for totally ordered multicast.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::Backlogged`] when the bounded command queue
    /// is full — the caller owns the retry/shed decision — and
    /// [`SubmitError::Stopped`] if the node's thread has exited.
    pub fn submit(&self, payload: Bytes, service: Service) -> Result<(), SubmitError> {
        match self.cmd_tx.try_send(Command::Submit(payload, service)) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => Err(SubmitError::Backlogged),
            Err(TrySendError::Disconnected(_)) => Err(SubmitError::Stopped),
        }
    }

    /// A snapshot of the node's transport counters, pool counters
    /// included.
    pub fn stats(&self) -> TransportStats {
        self.probe.stats()
    }

    /// The membership state the node's thread last published.
    pub fn membership_state(&self) -> StateKind {
        state_from_u8(self.shared.state.load(Ordering::Relaxed))
    }

    /// Regular configurations installed so far (membership counter).
    pub fn rings_formed(&self) -> u64 {
        self.shared.rings_formed.load(Ordering::Relaxed)
    }

    /// Tokens resent by the retransmit timer (membership counter).
    pub fn tokens_retransmitted(&self) -> u64 {
        self.shared.tokens_retransmitted.load(Ordering::Relaxed)
    }

    /// The highest ring counter this node has used or observed — Totem's
    /// stable-storage value. Pass it to a restarted incarnation via
    /// [`NodeOptions::restore_ring_counter`]; valid even after the thread
    /// has exited (it keeps the last published value).
    pub fn ring_counter(&self) -> u64 {
        self.shared.ring_counter.load(Ordering::Relaxed)
    }

    /// The stream of deliveries and configuration changes.
    pub fn events(&self) -> &Receiver<AppEvent> {
        &self.event_rx
    }

    /// A clonable kill handle usable after this `NodeHandle` was handed
    /// over (abrupt stop: no drain, no departure announcement).
    pub fn killswitch(&self) -> KillSwitch {
        KillSwitch {
            kill: Arc::clone(&self.kill),
        }
    }

    /// Whether the node's thread is still running.
    pub fn is_alive(&self) -> bool {
        self.thread.as_ref().is_some_and(|t| !t.is_finished())
    }

    /// Forces a panic inside the node's next step (fault-injection hook
    /// for tests of the panic containment path).
    #[doc(hidden)]
    pub fn inject_panic(&self) {
        let _ = self.cmd_tx.send(Command::InjectPanic);
    }

    /// Stops the node's thread at a step boundary and returns the node,
    /// for another loop to step, with the events nobody consumed yet
    /// (feed those first). Queued submissions go into the node first. A
    /// node whose thread already ended comes back killed, or with its
    /// panic's [`AppEvent::Fault`] among the events.
    pub fn into_ring_node(mut self) -> (RingNode, Vec<AppEvent>) {
        self.shared.release.store(true, Ordering::Relaxed);
        let thread = self.thread.take().expect("a live handle owns its thread");
        let node = thread.join().expect("node thread panicked outside a step");
        let events = self.event_rx.try_iter().collect();
        (node, events)
    }

    /// Stops the node's thread and waits for it to exit (as dropping the
    /// handle does).
    pub fn shutdown(self) {}

    /// Leaves the ring gracefully: stops accepting new submissions, keeps
    /// the protocol running until pending submissions and buffered
    /// deliveries drain (bounded by `drain`), then broadcasts a departure
    /// announcement so survivors reform after one gather round instead of
    /// waiting out the token-loss timeout, and exits.
    ///
    /// Returns the event receiver so the caller can collect deliveries
    /// that were produced during the drain.
    pub fn leave(mut self, drain: Duration) -> Receiver<AppEvent> {
        self.shared
            .drain_ns
            .store(drain.as_nanos() as u64, Ordering::Relaxed);
        self.shared.leave.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.event_rx.clone()
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            self.kill.stop.store(true, Ordering::SeqCst);
            let _ = t.join();
        }
    }
}

/// One ring's protocol stack over its two sockets, stepped by whichever
/// loop owns it (see the module docs). It holds no thread and no channel.
#[derive(Debug)]
pub struct RingNode {
    pid: ParticipantId,
    data_socket: Box<dyn DatagramSocket>,
    token_socket: Box<dyn DatagramSocket>,
    book: AddressBook,
    fanout: Vec<SocketAddr>,
    daemon: MembershipDaemon,
    /// Whether the first step has started the membership protocol.
    started: bool,
    /// Set by a bare node's `InjectPanic` command: the next step panics.
    inject_panic: bool,
    kill: Arc<KillState>,
    /// The counters and pools, shared with every [`TransportProbe`].
    probe: TransportProbe,
    /// The node's clock: UNIX-epoch nanoseconds read once at start, plus
    /// the monotonic time elapsed since. Timers stay monotonic, and ring
    /// leaders in every process stamp comparable rounds.
    start: Instant,
    start_unix_ns: u64,
    /// Reused scratch for protocol output (capacity persists).
    outputs: Vec<Output>,
    /// Pre-acquired receive leases, topped up to [`RECV_BATCH`] before
    /// every receive so an idle step costs zero pool traffic.
    recv_leases: Vec<BufLease>,
    /// Reused scratch for the flush (capacity persists).
    data_batch: Vec<(Bytes, SocketAddr)>,
    token_batch: Vec<(Bytes, SocketAddr)>,
}

impl RingNode {
    /// The node's participant id.
    pub fn pid(&self) -> ParticipantId {
        self.pid
    }

    fn now_ns(&self) -> u64 {
        self.start_unix_ns + self.start.elapsed().as_nanos() as u64
    }

    /// One bounded iteration (the first also starts the membership
    /// protocol): one receive batch from the sockets in priority order,
    /// then the due timers. Deliveries and configuration changes go to
    /// `events`. Returns whether anything happened.
    ///
    /// # Errors
    ///
    /// A panic inside the step is caught, counted in
    /// [`TransportStats::thread_panics`] and returned as its message;
    /// the node must not be stepped again.
    pub fn step(&mut self, events: &mut Vec<AppEvent>) -> Result<bool, String> {
        std::panic::catch_unwind(AssertUnwindSafe(|| self.step_inner(events))).map_err(|payload| {
            self.probe
                .stats
                .thread_panics
                .fetch_add(1, Ordering::Relaxed);
            payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string())
        })
    }

    fn step_inner(&mut self, events: &mut Vec<AppEvent>) -> bool {
        if self.inject_panic {
            panic!("fault injection: panic requested by test");
        }
        let mut outputs = std::mem::take(&mut self.outputs);
        let mut did_work = false;
        if !self.started {
            self.started = true;
            let now = self.now_ns();
            self.daemon.start(now, &mut outputs);
            self.flush(&mut outputs, events);
            did_work = true;
        }

        // Sockets, in protocol priority order (Section III-D): when the
        // token has priority, drain the token socket first. One bounded
        // batch per step, so priority is re-evaluated between batches
        // rather than starving the token behind a data flood.
        let token_first = self.daemon.token_has_priority();
        for pick_token in [token_first, !token_first] {
            if self.recv_burst(pick_token, &mut outputs, events) > 0 {
                did_work = true;
                break;
            }
        }

        // Timers.
        while let Some((deadline, kind)) = self.daemon.next_timer() {
            let now = self.now_ns();
            if deadline > now {
                break;
            }
            self.daemon.handle(now, Input::Timer(kind), &mut outputs);
            self.flush(&mut outputs, events);
            did_work = true;
        }
        self.outputs = outputs;
        did_work
    }

    /// Queues a message for totally ordered multicast on this ring.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::Backlogged`] when the send queue is full;
    /// it drains as the token visits this node.
    pub fn submit(&mut self, payload: Bytes, service: Service) -> Result<(), SubmitError> {
        self.daemon
            .submit(payload, service)
            .map_err(|_| SubmitError::Backlogged)?;
        self.probe.stats.submissions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// When the earliest protocol timer falls due, if one is armed.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.daemon.next_timer().map(|(deadline, _)| {
            self.start + Duration::from_nanos(deadline.saturating_sub(self.start_unix_ns))
        })
    }

    /// The sockets' descriptors, for the caller's [`Poller`] (none where
    /// a socket cannot expose one).
    pub fn poll_fds(&self) -> impl Iterator<Item = i32> {
        self.data_socket
            .poll_fd()
            .into_iter()
            .chain(self.token_socket.poll_fd())
    }

    /// Call right before parking on [`poll_fds`](RingNode::poll_fds):
    /// shm endpoints arm their doorbells and re-check for datagrams that
    /// raced the idle decision (see [`DatagramSocket::prepare_wait`]).
    /// Returns true when input is already pending and the caller must
    /// not park.
    pub fn prepare_wait(&self) -> bool {
        // Non-short-circuiting, so both sockets always arm.
        self.data_socket.prepare_wait() | self.token_socket.prepare_wait()
    }

    /// The round of the latest token visit whose departure seq this node
    /// has delivered ([`accelring_core::Participant::merge_floor`]): no
    /// later step delivers a message with a smaller round.
    pub fn merge_floor(&self) -> Round {
        self.daemon.participant().merge_floor()
    }

    /// Whether a [`KillSwitch`] asked this node to stop.
    pub fn killed(&self) -> bool {
        self.kill.stop.load(Ordering::SeqCst)
    }

    /// Attaches the doorbell of the loop that steps this node, for
    /// [`KillSwitch::kill`] to ring. The first doorbell attached stays.
    pub fn set_doorbell(&self, bell: Arc<Doorbell>) {
        let _ = self.kill.bell.set(bell);
    }

    /// Whether a graceful leave may announce now: the node is operational
    /// and its send queue and receive buffer are empty.
    pub fn drained(&self) -> bool {
        let participant = self.daemon.participant();
        self.daemon.state() == StateKind::Operational
            && participant.send_queue_len() == 0
            && participant.buffered() == 0
    }

    /// Announces a graceful departure (twice — it rides UDP) so peers fail
    /// this node by reciprocity and reform after one gather round. Step
    /// the node no more afterwards.
    pub fn announce_leave(&mut self) {
        let mut outputs = std::mem::take(&mut self.outputs);
        for _ in 0..2 {
            self.daemon.announce_leave(&mut outputs);
            self.flush(&mut outputs, &mut Vec::new());
        }
        self.outputs = outputs;
    }

    /// Receive: drain up to [`RECV_BATCH`] datagrams from one
    /// socket in as few syscalls as the platform allows, parse each in
    /// place from its pooled buffer, then flush all resulting output as
    /// gathered bursts. Returns the number of datagrams received.
    fn recv_burst(
        &mut self,
        pick_token: bool,
        outputs: &mut Vec<Output>,
        events: &mut Vec<AppEvent>,
    ) -> usize {
        let stats = &self.probe.stats;
        while self.recv_leases.len() < RECV_BATCH {
            self.recv_leases.push(self.probe.recv_pool.acquire());
        }
        let (outcome, lens) = {
            let socket: &dyn DatagramSocket = if pick_token {
                self.token_socket.as_ref()
            } else {
                self.data_socket.as_ref()
            };
            let mut slots: Vec<RecvSlot<'_>> = self
                .recv_leases
                .iter_mut()
                .map(|l| RecvSlot::new(l.recv_space()))
                .collect();
            let outcome = socket.recv_batch(&mut slots);
            // Filled slots form a prefix; remember their datagram lengths.
            let lens: Vec<usize> = slots
                .iter()
                .take_while(|s| s.addr.is_some())
                .map(|s| s.len)
                .collect();
            (outcome, lens)
        };
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) if e.kind() == ErrorKind::Interrupted => return 0,
            Err(_) => {
                // The loop must survive recv errors (ECONNREFUSED from a
                // peer's ICMP port-unreachable, ...) but not hide them.
                stats.recv_errors.fetch_add(1, Ordering::Relaxed);
                return 0;
            }
        };
        stats
            .syscalls_rx
            .fetch_add(outcome.syscalls, Ordering::Relaxed);
        if outcome.received == 0 {
            return 0;
        }
        stats
            .datagrams_rx
            .fetch_add(outcome.received as u64, Ordering::Relaxed);
        let used: Vec<BufLease> = self.recv_leases.drain(..outcome.received).collect();
        for (lease, len) in used.into_iter().zip(lens) {
            // Freeze only the datagram prefix: the parse reads in place
            // and any payload slice keeps the pooled buffer leased until
            // the protocol discards the message.
            let mut datagram = lease.freeze_prefix(len);
            if let Some(input) = parse_datagram(&mut datagram) {
                let now = self.now_ns();
                self.daemon.handle(now, input, outputs);
            } else {
                stats.decode_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.flush(outputs, events);
        outcome.received
    }

    /// Folds a batch send's outcome into the hot-path counters. UDP send
    /// failures are not retried (the protocol's retransmission machinery
    /// owns recovery) but they are counted per failing destination.
    fn record_send(&self, out: SendOutcome) {
        let stats = &self.probe.stats;
        stats
            .datagrams_tx
            .fetch_add(out.sent as u64, Ordering::Relaxed);
        stats.syscalls_tx.fetch_add(out.syscalls, Ordering::Relaxed);
        stats
            .send_errors
            .fetch_add(out.errors as u64, Ordering::Relaxed);
    }

    /// Flushes protocol output: each multicast is encoded exactly once
    /// into a pooled buffer, its fanout becomes cheap [`Bytes`] clones of
    /// that one encoding, and the whole output burst — token first, then
    /// data — leaves in as few syscalls as [`DatagramSocket::send_batch`]
    /// can manage. The token burst goes out before the data burst:
    /// Accelerated Ring releases the token before the multicast completes
    /// (paper Section III-B), so the successor starts its protocol work
    /// while our data is still leaving. Deliveries and configuration
    /// changes go to `events`.
    fn flush(&mut self, outputs: &mut Vec<Output>, events: &mut Vec<AppEvent>) {
        let mut data_batch = std::mem::take(&mut self.data_batch);
        let mut token_batch = std::mem::take(&mut self.token_batch);
        for output in outputs.drain(..) {
            match output {
                Output::Multicast(msg) => {
                    let mut lease = self.probe.send_pool.acquire();
                    lease.clear();
                    wire::encode_data_into(&msg, &mut lease);
                    let encoded = lease.freeze();
                    for addr in &self.fanout {
                        data_batch.push((encoded.clone(), *addr));
                    }
                }
                Output::SendToken { to, token } => {
                    let mut lease = self.probe.send_pool.acquire();
                    lease.clear();
                    wire::encode_token_into(&token, &mut lease);
                    if let Some(peer) = self.book.get(to) {
                        token_batch.push((lease.freeze(), peer.token));
                    }
                }
                Output::SendControl { to, msg } => {
                    // Control traffic is rare (membership transitions); it
                    // rides the data burst but skips the pool.
                    let encoded = encode_control(&msg);
                    match to {
                        Some(to) => {
                            if to == self.pid {
                                continue;
                            }
                            if let Some(peer) = self.book.get(to) {
                                data_batch.push((encoded, peer.data));
                            }
                        }
                        None => {
                            for addr in &self.fanout {
                                data_batch.push((encoded.clone(), *addr));
                            }
                        }
                    }
                }
                Output::Deliver(d) => events.push(AppEvent::Delivered(d)),
                Output::ConfigChange(c) => events.push(AppEvent::Config(c)),
            }
        }
        if !token_batch.is_empty() {
            let out = self.token_socket.send_batch(&token_batch);
            self.record_send(out);
            token_batch.clear();
        }
        if !data_batch.is_empty() {
            let out = self.data_socket.send_batch(&data_batch);
            self.record_send(out);
            data_batch.clear();
        }
        // Hand the (emptied, capacity-bearing) scratch vectors back.
        self.data_batch = data_batch;
        self.token_batch = token_batch;
    }
}

/// A bare node's thread: steps the [`RingNode`], feeds it the handle's
/// commands and forwards its events on the handle's channel.
struct Driver {
    node: RingNode,
    cmd_rx: Receiver<Command>,
    /// A submission the node refused (send queue full), held here and
    /// retried before the command queue is read again. While it waits,
    /// the queue backs up and clients see [`SubmitError::Backlogged`] —
    /// backpressure instead of a silent shed.
    pending_submit: Option<(Bytes, Service)>,
    event_tx: Sender<AppEvent>,
    shared: Arc<DriverShared>,
    /// Parks the thread on the node's descriptors when idle (empty — and
    /// therefore a plain sleep — when a socket cannot expose one).
    poller: Poller,
}

impl Driver {
    fn run(&mut self) {
        loop {
            if self.node.killed() {
                break;
            }
            if self.shared.release.load(Ordering::Relaxed) {
                self.take_final_commands();
                break;
            }
            if self.shared.leave.load(Ordering::Relaxed) {
                self.drain_and_leave();
                break;
            }
            let mut did_work = self.take_commands();
            match self.step() {
                Some(stepped) => did_work |= stepped,
                None => break,
            }
            self.publish();
            if !did_work {
                self.idle_wait();
            }
        }
        self.publish();
    }

    /// One node step with its events forwarded; `None` once the step
    /// panicked (the fault is reported and the thread must end).
    fn step(&mut self) -> Option<bool> {
        let mut events = Vec::new();
        let result = self.node.step(&mut events);
        for event in events {
            let _ = self.event_tx.send(event);
        }
        match result {
            Ok(did_work) => Some(did_work),
            Err(reason) => {
                let _ = self.event_tx.send(AppEvent::Fault { reason });
                None
            }
        }
    }

    /// Client commands. A submission the node refuses (send queue full)
    /// is parked in `pending_submit` and the queue is left alone until it
    /// fits — the command channel backs up, clients see `Backlogged`, and
    /// this thread spends its cycles on the sockets instead of shedding a
    /// firehose one command at a time. Returns whether anything happened.
    fn take_commands(&mut self) -> bool {
        let mut did_work = false;
        loop {
            let (payload, service) = match self.pending_submit.take() {
                Some(submit) => submit,
                None => match self.cmd_rx.try_recv() {
                    Ok(Command::Submit(payload, service)) => (payload, service),
                    Ok(Command::InjectPanic) => {
                        self.node.inject_panic = true;
                        return true;
                    }
                    Err(TryRecvError::Empty) => return did_work,
                    Err(TryRecvError::Disconnected) => {
                        // Every handle is gone; stop at the top of the loop.
                        self.node.kill.stop.store(true, Ordering::SeqCst);
                        return did_work;
                    }
                },
            };
            if self.node.submit(payload.clone(), service).is_err() {
                self.pending_submit = Some((payload, service));
                return did_work;
            }
            did_work = true;
        }
    }

    /// Hands every queued submission to the node once more; those its
    /// send queue refuses are shed and counted. Queued submissions were
    /// accepted from the caller's point of view, so they go out with a
    /// leave or a hand-over; only commands arriving later are refused.
    fn take_final_commands(&mut self) {
        while self.take_commands() || self.pending_submit.is_some() {
            if self.pending_submit.take().is_some() {
                self.node
                    .probe
                    .stats
                    .submissions_shed
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Graceful departure: keep the protocol running (without new client
    /// commands) until the send queue has gone onto the ring and the
    /// receive buffer has delivered, bounded by the drain budget; then
    /// announce the departure.
    fn drain_and_leave(&mut self) {
        self.take_final_commands();
        let deadline =
            Instant::now() + Duration::from_nanos(self.shared.drain_ns.load(Ordering::Relaxed));
        while Instant::now() < deadline && !self.node.drained() {
            match self.step() {
                Some(true) => {}
                Some(false) => self.idle_wait(),
                None => return,
            }
        }
        self.node.announce_leave();
    }

    /// Idle wait: parks until a datagram lands on either socket, the next
    /// protocol timer is due, or [`IDLE_SLEEP`] passes, whichever is
    /// first. On a busy ring the token is in flight precisely when the
    /// loop has drained its sockets, so a fixed-quantum doze here would
    /// quantize the entire rotation to the sleep granularity; parking on
    /// the descriptors wakes the loop the moment the token lands.
    fn idle_wait(&self) {
        if self.node.prepare_wait() {
            return;
        }
        let cap = Instant::now() + IDLE_SLEEP;
        let deadline = self.node.next_deadline().map_or(cap, |d| d.min(cap));
        self.poller.wait_until(Some(deadline));
    }

    fn publish(&self) {
        let daemon = &self.node.daemon;
        let stats = daemon.stats();
        let shared = &self.shared;
        shared
            .state
            .store(state_to_u8(daemon.state()), Ordering::Relaxed);
        shared
            .rings_formed
            .store(stats.rings_formed, Ordering::Relaxed);
        shared
            .tokens_retransmitted
            .store(stats.tokens_retransmitted, Ordering::Relaxed);
        shared
            .ring_counter
            .store(daemon.max_ring_counter(), Ordering::Relaxed);
    }
}

fn parse_datagram(datagram: &mut Bytes) -> Option<Input> {
    match wire::decode_kind(datagram).ok()? {
        wire::Kind::Data => Some(Input::Data(wire::decode_data_body(datagram).ok()?)),
        wire::Kind::Token => Some(Input::Token(wire::decode_token_body(datagram).ok()?)),
        wire::Kind::Opaque => Some(Input::Control(decode_control(datagram).ok()?)),
    }
}
