//! The single-threaded UDP daemon runtime.
//!
//! One OS thread runs the whole stack (ordering + membership), exactly like
//! the paper's single-threaded daemon implementations: two non-blocking UDP
//! sockets (token and data), read in the protocol's priority order, plus a
//! command channel from local clients.
//!
//! The loop is built to keep running — or, when it cannot, to fail loudly:
//! a panic anywhere in the protocol stack is caught at the thread boundary,
//! counted in [`TransportStats::thread_panics`], and surfaced to the
//! application as a terminal [`AppEvent::Fault`]; a graceful
//! [`NodeHandle::leave`] drains pending traffic and announces the departure
//! so survivors reform without waiting out the token-loss timeout.
//!
//! Events reach the application on a channel. A consumer that parks
//! instead of polling attaches a [`Doorbell`] with
//! [`NodeHandle::set_doorbell`]: the loop rings it after publishing
//! events and on every path that ends the node (panic, exit, kill), and
//! [`NodeHandle::events_ready`] is the re-check the consumer runs after
//! arming it.

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
/// The poll cap: the longest one idle park lasts. A datagram or a due
/// protocol timer wakes the loop sooner; queued commands and the
/// stop/leave flags signal no descriptor, so this bounds how long they
/// wait while the node is idle.
const IDLE_SLEEP: Duration = Duration::from_micros(200);
/// Capacity of the client command channel. A full channel surfaces as
/// [`SubmitError::Backlogged`] instead of unbounded memory growth when the
/// ring cannot keep up with local submitters.
const COMMAND_QUEUE_CAPACITY: usize = 4096;
/// Datagrams drained from one socket per poll iteration. Token priority
/// is re-evaluated between batches, so a burst of data traffic can defer
/// the token by at most this many datagrams.
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
    /// Client submissions accepted into the daemon.
    pub submissions: u64,
    /// Client submissions refused (send queue full) while the node drains
    /// for a graceful [`NodeHandle::leave`]. While running, a refused
    /// submission is parked instead and callers see
    /// [`SubmitError::Backlogged`].
    pub submissions_shed: u64,
    /// Protocol-thread panics caught at the thread boundary (each one is
    /// terminal for the node and accompanied by an [`AppEvent::Fault`]).
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

/// How the event loop wakes a parked consumer of its events: the doorbell
/// the consumer attached (if any), and whether the loop thread has ended
/// — the one terminal state the event channel cannot report as a queued
/// event.
#[derive(Debug, Default)]
struct EventWake {
    bell: OnceLock<Arc<Doorbell>>,
    exited: AtomicBool,
}

impl EventWake {
    fn notify(&self) {
        if let Some(bell) = self.bell.get() {
            bell.notify();
        }
    }
}

/// Membership observability published by the event loop after every step
/// (relaxed atomics: cheap, point-in-time, possibly one step stale), plus
/// the ring's merge floor and the floor the consumer waits for.
#[derive(Debug, Default)]
struct RingInfoInner {
    state: AtomicU8,
    rings_formed: AtomicU64,
    tokens_retransmitted: AtomicU64,
    ring_counter: AtomicU64,
    /// The participant's merge floor, stored after the step's deliveries
    /// were sent: a consumer that loads it and then drains the event
    /// channel holds every delivery below it. SeqCst, like
    /// `floor_wanted`: the store, the loop's load of `floor_wanted`, the
    /// consumer's store of `floor_wanted` and its re-check of the floor
    /// after arming its doorbell form the Dekker handshake, so either
    /// the loop sees the request or the consumer sees the floor.
    merge_floor: AtomicU64,
    /// The floor the consumer's merge head waits for (0: none). The loop
    /// clears it and rings the consumer's doorbell once the floor
    /// reaches it.
    floor_wanted: AtomicU64,
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

/// Why a [`NodeHandle::submit`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The command queue is full; retry after draining deliveries.
    Backlogged,
    /// The daemon thread has stopped.
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
    /// The protocol thread died (panic caught at the thread boundary).
    /// Terminal: no further events follow and the node must be restarted.
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

    /// Starts the event loop on its own thread with default options.
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

    /// Starts the event loop with explicit [`NodeOptions`] (fault plane,
    /// restored ring counter).
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
        let (cmd_tx, cmd_rx) = bounded(COMMAND_QUEUE_CAPACITY);
        let (event_tx, event_rx) = unbounded();
        let stop = Arc::new(AtomicBool::new(false));
        let leave = Arc::new(AtomicBool::new(false));
        let drain_ns = Arc::new(AtomicU64::new(0));
        let stats = Arc::new(StatsInner::default());
        let ring_info = Arc::new(RingInfoInner::default());
        let wake = Arc::new(EventWake::default());
        let recv_pool = BufferPool::new(MAX_DATAGRAM, POOL_MAX_FREE);
        let send_pool = BufferPool::new(MAX_DATAGRAM, POOL_MAX_FREE);
        let thread_ctx = (
            Arc::clone(&stop),
            Arc::clone(&leave),
            Arc::clone(&drain_ns),
            Arc::clone(&stats),
            Arc::clone(&ring_info),
            event_tx.clone(),
            recv_pool.clone(),
            send_pool.clone(),
        );
        let thread_wake = Arc::clone(&wake);
        let thread = std::thread::Builder::new()
            .name(format!("accelring-{pid}"))
            .spawn(move || {
                let (stop, leave, drain_ns, stats, ring_info, fault_tx, recv_pool, send_pool) =
                    thread_ctx;
                let mut daemon = MembershipDaemon::new(pid, protocol, membership);
                daemon.restore_ring_counter(options.restore_ring_counter);
                let mut poller = Poller::new();
                if let (Some(data), Some(token)) = (data_socket.poll_fd(), token_socket.poll_fd()) {
                    poller.set_fds(&[data, token]);
                }
                let mut event_loop = EventLoop {
                    pid,
                    data_socket,
                    token_socket,
                    fanout: book.fanout_data(pid),
                    book,
                    daemon,
                    cmd_rx,
                    pending_submit: None,
                    event_tx,
                    stop,
                    leave,
                    drain_ns,
                    stats: Arc::clone(&stats),
                    ring_info,
                    wake: Arc::clone(&thread_wake),
                    start: Instant::now(),
                    start_unix_ns: std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .map_or(0, |d| d.as_nanos() as u64),
                    recv_pool,
                    send_pool,
                    recv_leases: Vec::new(),
                    data_batch: Vec::new(),
                    token_batch: Vec::new(),
                    poller,
                };
                // The loop must never take the whole process down: a panic
                // in the protocol stack is caught here, counted, and
                // reported as a terminal fault event.
                let result = std::panic::catch_unwind(AssertUnwindSafe(|| event_loop.run()));
                // The loop's own event sender goes first, so a consumer
                // that sees `exited` also sees the channel disconnect.
                drop(event_loop);
                if let Err(payload) = result {
                    stats.thread_panics.fetch_add(1, Ordering::Relaxed);
                    let reason = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    let _ = fault_tx.send(AppEvent::Fault { reason });
                }
                drop(fault_tx);
                // Every exit — panic, stop, kill, leave — is terminal for
                // the consumer, which may be parked with nothing else due.
                thread_wake.exited.store(true, Ordering::SeqCst);
                thread_wake.notify();
            })
            .expect("spawn daemon thread");
        Ok(NodeHandle {
            pid,
            cmd_tx,
            event_rx,
            stop,
            leave,
            drain_ns,
            stats,
            ring_info,
            wake,
            recv_pool,
            send_pool,
            shm_counters,
            thread: Some(thread),
        })
    }
}

/// A clonable, thread-safe window onto a node's transport counters and
/// buffer pools, usable after the [`NodeHandle`] itself has been moved
/// into a pump thread (the daemon and multi-ring runtimes hand these out).
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
/// is handed off (e.g. to a group daemon). Killing stops the event loop
/// abruptly — no drain, no departure announcement — which is exactly what
/// crash tests want.
#[derive(Debug, Clone)]
pub struct KillSwitch {
    stop: Arc<AtomicBool>,
    wake: Arc<EventWake>,
}

impl KillSwitch {
    /// Asks the event loop to exit at its next iteration, and rings the
    /// consumer's doorbell so it re-checks the node at once (the exit
    /// itself rings it again).
    pub fn kill(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.wake.notify();
    }

    /// Whether the kill was already requested.
    pub fn is_killed(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// Handle to a running daemon thread.
#[derive(Debug)]
pub struct NodeHandle {
    pid: ParticipantId,
    cmd_tx: Sender<Command>,
    event_rx: Receiver<AppEvent>,
    stop: Arc<AtomicBool>,
    leave: Arc<AtomicBool>,
    drain_ns: Arc<AtomicU64>,
    stats: Arc<StatsInner>,
    ring_info: Arc<RingInfoInner>,
    wake: Arc<EventWake>,
    recv_pool: BufferPool,
    send_pool: BufferPool,
    shm_counters: Option<Arc<ShmCounters>>,
    thread: Option<JoinHandle<()>>,
}

impl NodeHandle {
    /// The daemon's participant id.
    pub fn pid(&self) -> ParticipantId {
        self.pid
    }

    /// A clonable counters/pools probe that outlives moves of this handle.
    pub fn probe(&self) -> TransportProbe {
        TransportProbe {
            stats: Arc::clone(&self.stats),
            recv_pool: self.recv_pool.clone(),
            send_pool: self.send_pool.clone(),
            shm_counters: self.shm_counters.clone(),
        }
    }

    /// Submits a message for totally ordered multicast.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::Backlogged`] when the bounded command queue
    /// is full — the caller owns the retry/shed decision — and
    /// [`SubmitError::Stopped`] if the daemon thread has exited.
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
        self.probe().stats()
    }

    /// The membership state the event loop last published.
    pub fn membership_state(&self) -> StateKind {
        state_from_u8(self.ring_info.state.load(Ordering::Relaxed))
    }

    /// Regular configurations installed so far (membership counter).
    pub fn rings_formed(&self) -> u64 {
        self.ring_info.rings_formed.load(Ordering::Relaxed)
    }

    /// Tokens resent by the retransmit timer (membership counter).
    pub fn tokens_retransmitted(&self) -> u64 {
        self.ring_info.tokens_retransmitted.load(Ordering::Relaxed)
    }

    /// The highest ring counter this node has used or observed — Totem's
    /// stable-storage value. Pass it to a restarted incarnation via
    /// [`NodeOptions::restore_ring_counter`]; valid even after the thread
    /// has exited (it keeps the last published value).
    pub fn ring_counter(&self) -> u64 {
        self.ring_info.ring_counter.load(Ordering::Relaxed)
    }

    /// The round of the latest token visit whose departure seq this node
    /// has delivered ([`accelring_core::Participant::merge_floor`]): no
    /// delivery the node publishes later carries a smaller round. Read it
    /// *before* draining [`events`](NodeHandle::events); every delivery
    /// below it is then already in the channel.
    pub fn merge_floor(&self) -> Round {
        Round::new(self.ring_info.merge_floor.load(Ordering::SeqCst))
    }

    /// Asks the node to ring the consumer's doorbell once its merge floor
    /// first reaches `round`, replacing any earlier request;
    /// [`Round::ZERO`] cancels it. The node rings once per request, never
    /// once per token visit.
    pub fn wake_at_floor(&self, round: Round) {
        self.ring_info
            .floor_wanted
            .store(round.as_u64(), Ordering::SeqCst);
    }

    /// The stream of deliveries and configuration changes.
    pub fn events(&self) -> &Receiver<AppEvent> {
        &self.event_rx
    }

    /// Attaches the doorbell of the loop that consumes [`events`]: the
    /// node rings it after publishing events and when its thread ends.
    /// Rings are skipped while the consumer is not parked on it. The
    /// first doorbell attached stays for the node's lifetime.
    ///
    /// [`events`]: NodeHandle::events
    pub fn set_doorbell(&self, bell: Arc<Doorbell>) {
        let _ = self.wake.bell.set(bell);
    }

    /// Whether a receive on [`events`](NodeHandle::events) would not
    /// block: an event is queued or the node thread has ended. This is
    /// the re-check a consumer runs after arming its doorbell.
    pub fn events_ready(&self) -> bool {
        !self.event_rx.is_empty() || self.wake.exited.load(Ordering::SeqCst)
    }

    /// A clonable kill handle usable after this `NodeHandle` was moved
    /// elsewhere (abrupt stop: no drain, no departure announcement).
    pub fn killswitch(&self) -> KillSwitch {
        KillSwitch {
            stop: Arc::clone(&self.stop),
            wake: Arc::clone(&self.wake),
        }
    }

    /// Whether the event-loop thread is still running.
    pub fn is_alive(&self) -> bool {
        self.thread.as_ref().is_some_and(|t| !t.is_finished())
    }

    /// Forces a panic inside the event loop (fault-injection hook for
    /// tests of the panic containment path).
    #[doc(hidden)]
    pub fn inject_panic(&self) {
        let _ = self.cmd_tx.send(Command::InjectPanic);
    }

    /// Asks the event loop to stop and waits for the thread to exit.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Leaves the ring gracefully: stops accepting new submissions, keeps
    /// the protocol running until pending submissions and buffered
    /// deliveries drain (bounded by `drain`), then broadcasts a departure
    /// announcement so survivors reform after one gather round instead of
    /// waiting out the token-loss timeout, and exits.
    ///
    /// Returns the event receiver so the caller can collect deliveries
    /// that were produced during the drain.
    pub fn leave(mut self, drain: Duration) -> Receiver<AppEvent> {
        self.drain_ns
            .store(drain.as_nanos() as u64, Ordering::Relaxed);
        self.leave.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.event_rx.clone()
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Everything the daemon thread owns; `run` is the thread body.
struct EventLoop {
    pid: ParticipantId,
    data_socket: Box<dyn DatagramSocket>,
    token_socket: Box<dyn DatagramSocket>,
    book: AddressBook,
    fanout: Vec<SocketAddr>,
    daemon: MembershipDaemon,
    cmd_rx: Receiver<Command>,
    /// A submission the daemon refused (send queue full), held here and
    /// retried before the command queue is read again. While it waits,
    /// the queue backs up and clients see [`SubmitError::Backlogged`] —
    /// backpressure instead of a silent shed.
    pending_submit: Option<(Bytes, Service)>,
    event_tx: Sender<AppEvent>,
    stop: Arc<AtomicBool>,
    leave: Arc<AtomicBool>,
    drain_ns: Arc<AtomicU64>,
    stats: Arc<StatsInner>,
    ring_info: Arc<RingInfoInner>,
    wake: Arc<EventWake>,
    /// The loop's clock: UNIX-epoch nanoseconds read once at start, plus
    /// the monotonic time elapsed since. Timers stay monotonic, and ring
    /// leaders in every process stamp comparable rounds.
    start: Instant,
    start_unix_ns: u64,
    recv_pool: BufferPool,
    send_pool: BufferPool,
    /// Pre-acquired receive leases, topped up to [`RECV_BATCH`] before
    /// every poll so an idle poll costs zero pool traffic.
    recv_leases: Vec<BufLease>,
    /// Reused scratch for the flush (capacity persists).
    data_batch: Vec<(Bytes, SocketAddr)>,
    token_batch: Vec<(Bytes, SocketAddr)>,
    /// Parks the loop on both socket descriptors when idle (empty — and
    /// therefore a plain sleep — when either socket cannot expose one).
    poller: Poller,
}

impl EventLoop {
    fn now_ns(&self) -> u64 {
        self.start_unix_ns + self.start.elapsed().as_nanos() as u64
    }

    fn run(&mut self) {
        let mut outputs = Vec::new();
        let now = self.now_ns();
        self.daemon.start(now, &mut outputs);
        self.flush(&mut outputs);
        loop {
            if self.stop.load(Ordering::Relaxed) {
                self.publish_ring_info();
                return;
            }
            if self.leave.load(Ordering::Relaxed) {
                self.drain_and_leave(&mut outputs);
                return;
            }
            let did_work = self.step(&mut outputs, true);
            self.publish_ring_info();
            if !did_work {
                self.idle_wait();
            }
        }
    }

    /// Idle wait: parks until a datagram lands on either socket, the next
    /// protocol timer is due, or [`IDLE_SLEEP`] passes, whichever is
    /// first. On a busy ring the token is in flight precisely when the
    /// loop has drained its sockets, so a fixed-quantum doze here would
    /// quantize the entire rotation to the sleep granularity; parking on
    /// the descriptors wakes the loop the moment the token lands.
    ///
    /// Both sockets get a [`DatagramSocket::prepare_wait`] call right
    /// before the park (non-short-circuiting, so both always arm): a
    /// userspace transport uses it to arm its doorbell and re-check for
    /// datagrams that raced the idle decision; kernel sockets return
    /// false and rely on `ppoll` level-triggering.
    fn idle_wait(&self) {
        let mut timeout = IDLE_SLEEP;
        if let Some((deadline, _)) = self.daemon.next_timer() {
            timeout = timeout.min(Duration::from_nanos(deadline.saturating_sub(self.now_ns())));
        }
        if self.data_socket.prepare_wait() | self.token_socket.prepare_wait() {
            return;
        }
        self.poller.wait(timeout);
    }

    /// One iteration: client commands (when accepted), one receive batch
    /// from the sockets in priority order, due timers. Returns whether
    /// anything happened.
    fn step(&mut self, outputs: &mut Vec<Output>, accept_commands: bool) -> bool {
        let mut did_work = false;

        // 1. Client commands. A submission the daemon refuses (send
        //    queue full) is parked in `pending_submit` and the queue is
        //    left alone until it fits — the command channel backs up,
        //    clients see `Backlogged`, and this loop spends its cycles on
        //    the sockets instead of shedding a firehose one command at a
        //    time.
        if accept_commands {
            if let Some((payload, service)) = self.pending_submit.take() {
                did_work |= self.submit_or_park(payload, service);
            }
            while self.pending_submit.is_none() {
                match self.cmd_rx.try_recv() {
                    Ok(Command::Submit(payload, service)) => {
                        self.submit_or_park(payload, service);
                        did_work = true;
                    }
                    Ok(Command::InjectPanic) => {
                        panic!("fault injection: panic requested by test")
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        // Every handle is gone; stop at the top of the loop.
                        self.stop.store(true, Ordering::Relaxed);
                        break;
                    }
                }
            }
        }

        // 2. Sockets, in protocol priority order (Section III-D): when the
        //    token has priority, drain the token socket first. One bounded
        //    batch per iteration, so priority is re-evaluated between
        //    batches rather than starving the token behind a data flood.
        let token_first = self.daemon.token_has_priority();
        for pick_token in if token_first {
            [true, false]
        } else {
            [false, true]
        } {
            if self.recv_burst(pick_token, outputs) > 0 {
                did_work = true;
                break; // re-evaluate priority after every batch
            }
        }

        // 3. Timers.
        while let Some((deadline, kind)) = self.daemon.next_timer() {
            if deadline > self.now_ns() {
                break;
            }
            let now = self.now_ns();
            self.daemon.handle(now, Input::Timer(kind), outputs);
            self.flush(outputs);
            did_work = true;
        }

        did_work
    }

    /// Hands a client submission to the protocol, or parks it in
    /// `pending_submit` when the send queue refuses it. Returns whether
    /// it was accepted.
    fn submit_or_park(&mut self, payload: Bytes, service: Service) -> bool {
        match self.daemon.submit(payload.clone(), service) {
            Ok(()) => {
                self.stats.submissions.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => {
                self.pending_submit = Some((payload, service));
                false
            }
        }
    }

    /// Receive: drain up to [`RECV_BATCH`] datagrams from one
    /// socket in as few syscalls as the platform allows, parse each in
    /// place from its pooled buffer, then flush all resulting output as
    /// gathered bursts. Returns the number of datagrams received.
    fn recv_burst(&mut self, pick_token: bool, outputs: &mut Vec<Output>) -> usize {
        while self.recv_leases.len() < RECV_BATCH {
            self.recv_leases.push(self.recv_pool.acquire());
        }
        let (outcome, lens) = {
            let leases = &mut self.recv_leases;
            let socket: &dyn DatagramSocket = if pick_token {
                self.token_socket.as_ref()
            } else {
                self.data_socket.as_ref()
            };
            let mut slots: Vec<RecvSlot<'_>> = leases
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
                self.stats.recv_errors.fetch_add(1, Ordering::Relaxed);
                return 0;
            }
        };
        self.stats
            .syscalls_rx
            .fetch_add(outcome.syscalls, Ordering::Relaxed);
        if outcome.received == 0 {
            return 0;
        }
        self.stats
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
                self.stats.decode_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.flush(outputs);
        outcome.received
    }

    /// Graceful departure: keep the protocol running (without new client
    /// commands) until our send queue has gone onto the ring and the
    /// receive buffer has delivered, bounded by the drain budget; then
    /// announce the departure (twice — it rides UDP) so peers fail us by
    /// reciprocity and reform after one gather round.
    fn drain_and_leave(&mut self, outputs: &mut Vec<Output>) {
        // Submissions already queued when the leave flag was set were
        // accepted from the caller's point of view, so they drain out;
        // only commands arriving after this point are refused.
        if let Some((payload, service)) = self.pending_submit.take() {
            match self.daemon.submit(payload, service) {
                Ok(()) => self.stats.submissions.fetch_add(1, Ordering::Relaxed),
                Err(_) => self.stats.submissions_shed.fetch_add(1, Ordering::Relaxed),
            };
        }
        loop {
            match self.cmd_rx.try_recv() {
                Ok(Command::Submit(payload, service)) => {
                    match self.daemon.submit(payload, service) {
                        Ok(()) => self.stats.submissions.fetch_add(1, Ordering::Relaxed),
                        Err(_) => self.stats.submissions_shed.fetch_add(1, Ordering::Relaxed),
                    };
                }
                Ok(Command::InjectPanic) => panic!("fault injection: panic requested by test"),
                Err(_) => break,
            }
        }
        self.flush(outputs);
        let deadline = Instant::now() + Duration::from_nanos(self.drain_ns.load(Ordering::Relaxed));
        while Instant::now() < deadline {
            let drained = self.daemon.state() == StateKind::Operational
                && self.daemon.participant().send_queue_len() == 0
                && self.daemon.participant().buffered() == 0;
            if drained {
                break;
            }
            if !self.step(outputs, false) {
                self.idle_wait();
            }
        }
        self.daemon.announce_leave(outputs);
        self.flush(outputs);
        self.daemon.announce_leave(outputs);
        self.flush(outputs);
        self.publish_ring_info();
    }

    fn publish_ring_info(&self) {
        let stats = self.daemon.stats();
        self.ring_info
            .state
            .store(state_to_u8(self.daemon.state()), Ordering::Relaxed);
        self.ring_info
            .rings_formed
            .store(stats.rings_formed, Ordering::Relaxed);
        self.ring_info
            .tokens_retransmitted
            .store(stats.tokens_retransmitted, Ordering::Relaxed);
        self.ring_info
            .ring_counter
            .store(self.daemon.max_ring_counter(), Ordering::Relaxed);
        let floor = self.daemon.participant().merge_floor().as_u64();
        self.ring_info.merge_floor.store(floor, Ordering::SeqCst);
        let wanted = &self.ring_info.floor_wanted;
        let want = wanted.load(Ordering::SeqCst);
        if want != 0
            && floor >= want
            && wanted
                .compare_exchange(want, 0, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
        {
            self.wake.notify();
        }
    }

    /// Folds a batch send's outcome into the hot-path counters. UDP send
    /// failures are not retried (the protocol's retransmission machinery
    /// owns recovery) but they are counted per failing destination.
    fn record_send(&self, out: SendOutcome) {
        self.stats
            .datagrams_tx
            .fetch_add(out.sent as u64, Ordering::Relaxed);
        self.stats
            .syscalls_tx
            .fetch_add(out.syscalls, Ordering::Relaxed);
        self.stats
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
    /// while our data is still leaving.
    fn flush(&mut self, outputs: &mut Vec<Output>) {
        let mut data_batch = std::mem::take(&mut self.data_batch);
        let mut token_batch = std::mem::take(&mut self.token_batch);
        let mut published = false;
        for output in outputs.drain(..) {
            match output {
                Output::Multicast(msg) => {
                    let mut lease = self.send_pool.acquire();
                    lease.clear();
                    wire::encode_data_into(&msg, &mut lease);
                    let encoded = lease.freeze();
                    for addr in &self.fanout {
                        data_batch.push((encoded.clone(), *addr));
                    }
                }
                Output::SendToken { to, token } => {
                    let mut lease = self.send_pool.acquire();
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
                Output::Deliver(d) => {
                    let _ = self.event_tx.send(AppEvent::Delivered(d));
                    published = true;
                }
                Output::ConfigChange(c) => {
                    let _ = self.event_tx.send(AppEvent::Config(c));
                    published = true;
                }
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
        // Wake the consumer only once the token is on its way: the ring's
        // rotation is everyone's latency.
        if published {
            self.wake.notify();
        }
    }
}

fn parse_datagram(datagram: &mut Bytes) -> Option<Input> {
    match wire::decode_kind(datagram).ok()? {
        wire::Kind::Data => Some(Input::Data(wire::decode_data_body(datagram).ok()?)),
        wire::Kind::Token => Some(Input::Token(wire::decode_token_body(datagram).ok()?)),
        wire::Kind::Opaque => Some(Input::Control(decode_control(datagram).ok()?)),
    }
}
