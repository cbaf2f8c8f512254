//! The reactor session frontend: one thread, one socket, up to 100k
//! client sessions.
//!
//! The seed served clients through per-client crossbeam channel pairs
//! pumped by a blocking `Select` loop — fine for a handful of in-process
//! clients, a dead end for the daemon-as-fan-in architecture the paper
//! inherits from Spread, where one daemon fronts every application sender
//! on its machine. This module replaces that shape with a reactor:
//!
//! * **One session socket.** Remote clients speak the framed session
//!   protocol of [`crate::proto`] ([`SessionFrame`]) over UDP. Frames
//!   carry the session id, never rely on the source address, so any
//!   number of sessions multiplex over any number of client sockets.
//! * **A slab session table.** Sessions live in a generation-tagged slab
//!   ([`SessionMux`]); a session id is `slot | generation << 32`, so a
//!   reused slot never honors frames addressed to its previous tenant.
//! * **Batched, pooled ingest.** The reactor drains the socket with
//!   `recvmmsg` into pooled leases and parses frames in place — the
//!   submit payload handed to the engine is a slice of the receive
//!   buffer, zero copies on the way in.
//! * **Encode-once fanout.** An event delivered to N subscribed sessions
//!   is encoded once ([`crate::proto::encode_event_body`]); only the
//!   9-byte frame header differs per recipient.
//! * **Credit-gated, fair, bounded egress.** EVENT frames queue per
//!   session, bounded per session *and* by a frontend-wide budget;
//!   overload sheds events with an attributed cause (the `shed_*`
//!   counters of [`FrontendStats`]) instead of growing memory. A round-robin scheduler drains queues
//!   under a per-wakeup budget with `sendmmsg`, so one firehose session
//!   cannot starve ten thousand quiet ones.
//!
//! The old in-process API survives as *adapter sessions*: a channel
//! `Sender<ClientEvent>` registered in the same table, sharing the same
//! shed accounting — which is how every pre-existing test, bench, and
//! example runs unchanged over the new frontend.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

use accelring_core::{Backoff, BufLease, BufferPool, FrontendStats, Service};
use accelring_transport::{DatagramSocket, RecvSlot};
use bytes::{BufMut, Bytes, BytesMut};
use crossbeam::channel::{Sender, TrySendError};

use crate::engine::{ClientEvent, EngineError};
use crate::proto::{
    decode_event_body, decode_session_frame, encode_event_body, encode_session_frame, GroupAction,
    SessionFrame, FR_EVENT,
};

/// Largest session datagram (the UDP limit; submit payloads above the
/// engine's fragment budget never reach the wire anyway).
const MAX_FRAME: usize = 65_536;
/// Datagrams drained per `recvmmsg` burst.
const RECV_BATCH: usize = 32;
/// Pooled receive buffers parked for reuse.
const POOL_MAX_FREE: usize = 64;
/// EVENT frames drained from one session per round-robin turn: small
/// enough for fairness, large enough to amortize the queue bookkeeping.
const RR_CHUNK: usize = 8;
/// How long a terminal [`ClientEvent::Disconnected`] may block on a slow
/// adapter channel before channel closure is left to tell the story.
const DISCONNECT_SEND_TIMEOUT: Duration = Duration::from_secs(1);
/// HELLO retries before [`SessionClient::connect`] gives up.
const HELLO_ATTEMPTS: u32 = 5;
/// Base / cap of the client's full-jitter HELLO retry backoff.
const HELLO_BACKOFF_BASE: Duration = Duration::from_millis(20);
const HELLO_BACKOFF_CAP: Duration = Duration::from_millis(500);
/// Events a [`SessionClient`] consumes before granting the daemon another
/// batch of credits (half the initial window, so the pipe never drains).
const CREDIT_REFRESH: u32 = 64;

/// Tuning for the session frontend. `Copy` so daemon options (and the
/// multi-ring options embedding them) stay plain values.
#[derive(Debug, Clone, Copy)]
pub struct FrontendOptions {
    /// Open a UDP session socket and serve remote sessions. Off by
    /// default: adapter-only daemons skip the socket entirely and the
    /// pump parks on its doorbell alone.
    pub session_socket: bool,
    /// Per-session EVENT queue cap; beyond it events are shed and counted
    /// in [`FrontendStats::shed_slow_session`].
    pub session_queue: usize,
    /// Frontend-wide queued-EVENT budget; beyond it events are shed and
    /// counted in [`FrontendStats::shed_global_budget`] no matter whose
    /// queue had room. This is the bound that keeps 100k sessions' worth
    /// of backlog from growing without limit.
    pub global_queue: usize,
    /// EVENT frames flushed per reactor wakeup across all sessions.
    pub egress_budget: usize,
    /// Credits granted in WELCOME (EVENT frames the daemon may send
    /// before the client must grant more).
    pub initial_credits: u32,
}

impl Default for FrontendOptions {
    fn default() -> Self {
        FrontendOptions {
            session_socket: false,
            session_queue: 256,
            global_queue: 65_536,
            egress_budget: 4096,
            initial_credits: 256,
        }
    }
}

impl FrontendOptions {
    /// Options with the session socket enabled and everything else at
    /// defaults.
    pub fn enabled() -> Self {
        FrontendOptions {
            session_socket: true,
            ..FrontendOptions::default()
        }
    }
}

/// Work the reactor must route through the engine, surfaced by
/// [`SessionMux::ingest`]. Credits and session-level dedup are absorbed
/// inside the mux; only engine-relevant frames bubble up.
#[derive(Debug)]
pub enum Ingress {
    /// A HELLO that needs an engine decision (see
    /// [`SessionMux::handle_hello`]).
    Hello {
        /// Client name.
        name: String,
        /// Resume watermark from the client.
        resume_seq: u64,
        /// Retry-dedup nonce.
        nonce: u64,
        /// Where WELCOME/ERROR replies go.
        addr: SocketAddr,
    },
    /// A SUBMIT that passed session-level dedup.
    Submit {
        /// The submitting client's name.
        name: String,
        /// Session sequence (0 = unsequenced).
        seq: u64,
        /// Requested service.
        service: Service,
        /// The group action.
        action: GroupAction,
    },
    /// A session said BYE (already removed from the table); the engine
    /// should disconnect the named client.
    Bye {
        /// The departing client's name.
        name: String,
    },
    /// A peer daemon asked for recovery state (anti-entropy). The
    /// runtime answers with a MAP_PUSH via
    /// [`SessionMux::send_session_frame`].
    MapPull {
        /// Echoed so the requester recognizes its response.
        nonce: u64,
        /// The requester's highest observed configuration epoch.
        want_epoch: u64,
        /// Where the MAP_PUSH reply goes.
        addr: SocketAddr,
    },
    /// A peer daemon pushed recovery state in response to our pull.
    MapPush {
        /// Echo of our pull nonce.
        nonce: u64,
        /// The responder's highest observed configuration epoch.
        epoch: u64,
        /// The responder's delivered merge-slot cursor.
        slot: u64,
        /// The responder's shard-map version.
        map_version: u64,
        /// The opaque snapshot body (the multi-ring layer decodes it).
        body: Bytes,
    },
    /// A local-service query (no session, no credits). The runtime
    /// answers with an SVC_REPLY via
    /// [`SessionMux::send_session_frame`], or stays silent when no
    /// service is mounted — the requester owns retries.
    SvcQuery {
        /// Echoed so the requester recognizes its response.
        nonce: u64,
        /// The opaque query body (the mounted service decodes it).
        body: Bytes,
        /// Where the SVC_REPLY goes.
        addr: SocketAddr,
    },
}

enum SessionKind {
    /// In-process client behind a channel (the legacy API).
    Adapter { tx: Sender<ClientEvent> },
    /// Remote client behind the session socket.
    Remote {
        addr: SocketAddr,
        nonce: u64,
        /// The HELLO watermark: submits at or below it are resubmits of
        /// in-doubt messages and always pass through to the engine,
        /// whose ring-wide dedup decides their fate.
        resume: u64,
        /// Highest sequence forwarded this session; new submits at or
        /// below it (but above `resume`) are retransmissions and are
        /// dropped here, before they cost ring bandwidth.
        fw: u64,
        credits: u32,
        queue: VecDeque<Bytes>,
        /// Whether this slot is in the egress round-robin ring.
        armed: bool,
    },
}

struct Session {
    gen: u32,
    name: String,
    kind: SessionKind,
}

/// The slab-indexed session table plus the session socket: everything the
/// reactor needs to serve many sessions from one thread.
///
/// Embedded by the daemon pump (`accelring_multiring::live`), so adapter
/// clients and remote sessions share one table, one egress scheduler and
/// one set of shed counters.
pub struct SessionMux {
    opts: FrontendOptions,
    socket: Option<UdpSocket>,
    addr: Option<SocketAddr>,
    slots: Vec<Option<Session>>,
    /// Tenancy count per slot; a session id embeds the generation so a
    /// reused slot ignores its previous tenant's frames.
    gens: Vec<u32>,
    free: Vec<u32>,
    by_name: HashMap<String, u32>,
    /// Round-robin ring of slots with queued frames and credits.
    rr: VecDeque<u32>,
    queued_total: usize,
    pool: BufferPool,
    recv_leases: Vec<BufLease>,
    send_scratch: Vec<(Bytes, SocketAddr)>,
    /// Encode-once memo: the payload identity of the last encoded
    /// Message event and its body. Holding the payload `Bytes` pins the
    /// buffer, so pointer equality cannot alias a new message.
    memo: Option<(Bytes, Bytes)>,
    stats: FrontendStats,
}

impl std::fmt::Debug for SessionMux {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionMux")
            .field("addr", &self.addr)
            .field("sessions_open", &self.stats.sessions_open)
            .finish_non_exhaustive()
    }
}

fn session_id(slot: u32, gen: u32) -> u64 {
    u64::from(slot) | (u64::from(gen) << 32)
}

/// Bumps and returns the tenancy generation of a slot. A free function
/// over the `gens` field alone so callers can hold a live borrow into
/// `slots` at the same time.
fn bump_gen(gens: &mut Vec<u32>, idx: u32) -> u32 {
    while gens.len() <= idx as usize {
        gens.push(0);
    }
    gens[idx as usize] += 1;
    gens[idx as usize]
}

impl SessionMux {
    /// Creates the mux, binding the session socket when
    /// [`FrontendOptions::session_socket`] is set.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the session socket cannot be opened.
    pub fn new(opts: FrontendOptions) -> io::Result<SessionMux> {
        let socket = if opts.session_socket {
            let s = UdpSocket::bind("127.0.0.1:0")?;
            s.set_nonblocking(true)?;
            Some(s)
        } else {
            None
        };
        let addr = match &socket {
            Some(s) => Some(s.local_addr()?),
            None => None,
        };
        Ok(SessionMux {
            opts,
            socket,
            addr,
            slots: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            by_name: HashMap::new(),
            rr: VecDeque::new(),
            queued_total: 0,
            pool: BufferPool::new(MAX_FRAME, POOL_MAX_FREE),
            recv_leases: Vec::new(),
            send_scratch: Vec::new(),
            memo: None,
            stats: FrontendStats::default(),
        })
    }

    /// The session socket's address, if one is open.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// Descriptor to park the reactor on, if the session socket is open
    /// and the platform exposes one.
    pub fn poll_fd(&self) -> Option<i32> {
        self.socket.as_ref().and_then(|s| s.poll_fd())
    }

    /// Counts one reactor wakeup (the pump calls this per wake the rings
    /// did not cause; see [`FrontendStats::wakeups`]).
    pub fn note_wakeup(&mut self) {
        self.stats.wakeups += 1;
    }

    /// A copy of the frontend counters.
    pub fn stats(&self) -> FrontendStats {
        self.stats
    }

    fn alloc_slot(&mut self, name: String, kind: SessionKind) -> u64 {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        let gen = bump_gen(&mut self.gens, idx);
        self.by_name.insert(name.clone(), idx);
        self.slots[idx as usize] = Some(Session { gen, name, kind });
        self.stats.sessions_open += 1;
        self.stats.sessions_peak = self.stats.sessions_peak.max(self.stats.sessions_open);
        session_id(idx, gen)
    }

    fn free_slot(&mut self, idx: u32) -> Option<Session> {
        let sess = self.slots.get_mut(idx as usize)?.take()?;
        self.by_name.remove(&sess.name);
        if let SessionKind::Remote { queue, .. } = &sess.kind {
            self.queued_total -= queue.len();
        }
        self.free.push(idx);
        self.stats.sessions_open -= 1;
        self.stats.closes += 1;
        Some(sess)
    }

    /// Validates a wire session id against the slab, returning the slot
    /// index. Returns no reference so callers keep full use of `self`.
    fn resolve(&self, session: u64) -> Option<u32> {
        let idx = (session & 0xFFFF_FFFF) as u32;
        let gen = (session >> 32) as u32;
        let sess = self.slots.get(idx as usize)?.as_ref()?;
        (sess.gen == gen).then_some(idx)
    }

    /// Registers an in-process adapter session (the caller has already
    /// connected the name at the engine).
    pub fn open_adapter(&mut self, name: &str, tx: Sender<ClientEvent>) {
        self.stats.hellos += 1;
        self.alloc_slot(name.to_string(), SessionKind::Adapter { tx });
    }

    /// Removes the named session without farewell frames (adapter
    /// disconnects, engine-side removals).
    pub fn close_name(&mut self, name: &str) {
        if let Some(idx) = self.by_name.get(name).copied() {
            self.free_slot(idx);
        }
    }

    /// Whether the named session exists.
    pub fn has_session(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// Counts a submit the engine rejected (invalid group name, unknown
    /// client): the frame was well-formed but unusable, which the
    /// frontend surfaces in the same counter as parse failures.
    pub fn note_rejected(&mut self) {
        self.stats.bad_frames += 1;
    }

    fn send_frame(&mut self, frame: &SessionFrame, addr: SocketAddr) {
        if let Some(sock) = &self.socket {
            let encoded = encode_session_frame(frame);
            self.stats.syscalls += 1;
            let _ = DatagramSocket::send_to(sock, &encoded, addr);
        }
    }

    /// Sends one frame to an arbitrary peer address over the session
    /// socket (a no-op when the socket is disabled). The recovery
    /// runtime uses this for daemon-to-daemon MAP_PULL requests and
    /// MAP_PUSH replies, which deliberately bypass the session table and
    /// its credit machinery.
    pub fn send_session_frame(&mut self, frame: &SessionFrame, addr: SocketAddr) {
        self.send_frame(frame, addr);
    }

    /// Resolves a HELLO. The `connect` closure performs the engine-side
    /// client registration when (and only when) this is a genuinely new
    /// name; retried HELLOs are re-welcomed and reconnects of a live
    /// remote session supersede it in place, keeping the engine-side
    /// client (and its group memberships) intact.
    pub fn handle_hello<E>(
        &mut self,
        name: String,
        resume_seq: u64,
        nonce: u64,
        addr: SocketAddr,
        connect: E,
    ) where
        E: FnOnce(&str) -> Result<(), EngineError>,
    {
        if let Some(idx) = self.by_name.get(&name).copied() {
            let sess = self.slots[idx as usize]
                .as_mut()
                .expect("by_name points at a live slot");
            match &mut sess.kind {
                SessionKind::Remote {
                    addr: old_addr,
                    nonce: old_nonce,
                    resume,
                    fw,
                    credits,
                    queue,
                    armed,
                } => {
                    if *old_nonce == nonce {
                        // Retried HELLO: the first WELCOME was lost.
                        let frame = SessionFrame::Welcome {
                            session: session_id(idx, sess.gen),
                            resume_seq: *resume,
                            credits: *credits,
                            nonce,
                        };
                        self.send_frame(&frame, addr);
                        return;
                    }
                    // A new incarnation supersedes the old session in
                    // place: parked events die with the old credit state,
                    // the engine-side client (and group memberships)
                    // survive for the resume.
                    let stale = queue.len();
                    let dead_addr = *old_addr;
                    *old_addr = addr;
                    *old_nonce = nonce;
                    *resume = resume_seq;
                    *fw = resume_seq;
                    *credits = self.opts.initial_credits;
                    queue.clear();
                    *armed = false;
                    let gen = bump_gen(&mut self.gens, idx);
                    sess.gen = gen;
                    self.queued_total -= stale;
                    self.stats.resumes += 1;
                    self.send_frame(
                        &SessionFrame::Error {
                            session: 0,
                            reason: "session superseded".to_string(),
                        },
                        dead_addr,
                    );
                    let welcome = SessionFrame::Welcome {
                        session: session_id(idx, gen),
                        resume_seq,
                        credits: self.opts.initial_credits,
                        nonce,
                    };
                    self.send_frame(&welcome, addr);
                }
                SessionKind::Adapter { .. } => {
                    self.send_frame(
                        &SessionFrame::Error {
                            session: 0,
                            reason: format!("name {name:?} in use by a local client"),
                        },
                        addr,
                    );
                }
            }
            return;
        }
        match connect(&name) {
            Ok(()) | Err(EngineError::DuplicateClient(_)) => {
                if resume_seq > 0 {
                    self.stats.resumes += 1;
                } else {
                    self.stats.hellos += 1;
                }
                let session = self.alloc_slot(
                    name,
                    SessionKind::Remote {
                        addr,
                        nonce,
                        resume: resume_seq,
                        fw: resume_seq,
                        credits: self.opts.initial_credits,
                        queue: VecDeque::new(),
                        armed: false,
                    },
                );
                let welcome = SessionFrame::Welcome {
                    session,
                    resume_seq,
                    credits: self.opts.initial_credits,
                    nonce,
                };
                self.send_frame(&welcome, addr);
            }
            Err(e) => {
                self.send_frame(
                    &SessionFrame::Error {
                        session: 0,
                        reason: e.to_string(),
                    },
                    addr,
                );
            }
        }
    }

    /// Drains the session socket, absorbing CREDIT and dedup internally
    /// and appending engine-relevant work to `out`. Returns how many
    /// datagrams were consumed.
    pub fn ingest(&mut self, out: &mut Vec<Ingress>) -> usize {
        if self.socket.is_none() {
            return 0;
        }
        let mut total = 0;
        loop {
            while self.recv_leases.len() < RECV_BATCH {
                self.recv_leases.push(self.pool.acquire());
            }
            let (outcome, meta) = {
                let sock = self.socket.as_ref().expect("checked above");
                let mut slots: Vec<RecvSlot<'_>> = self
                    .recv_leases
                    .iter_mut()
                    .map(|l| RecvSlot::new(l.recv_space()))
                    .collect();
                let outcome = sock.recv_batch(&mut slots);
                let meta: Vec<(usize, SocketAddr)> = slots
                    .iter()
                    .take_while(|s| s.addr.is_some())
                    .map(|s| (s.len, s.addr.expect("filled slot")))
                    .collect();
                (outcome, meta)
            };
            let outcome = match outcome {
                Ok(o) => o,
                Err(_) => {
                    self.stats.bad_frames += 1;
                    break;
                }
            };
            self.stats.syscalls += outcome.syscalls;
            if outcome.received == 0 {
                break;
            }
            total += outcome.received;
            let used: Vec<BufLease> = self.recv_leases.drain(..outcome.received).collect();
            for (lease, (len, addr)) in used.into_iter().zip(meta) {
                // Parse in place: the frame (and any submit payload it
                // carries) is a slice of the pooled buffer.
                let mut datagram = lease.freeze_prefix(len);
                match decode_session_frame(&mut datagram) {
                    Ok(frame) => self.on_frame(frame, addr, out),
                    Err(_) => self.stats.bad_frames += 1,
                }
            }
            if outcome.received < RECV_BATCH {
                break;
            }
        }
        total
    }

    fn on_frame(&mut self, frame: SessionFrame, addr: SocketAddr, out: &mut Vec<Ingress>) {
        match frame {
            SessionFrame::Hello {
                name,
                resume_seq,
                nonce,
            } => out.push(Ingress::Hello {
                name,
                resume_seq,
                nonce,
                addr,
            }),
            SessionFrame::Submit {
                session,
                seq,
                service,
                action,
            } => {
                let Some(idx) = self.resolve(session) else {
                    self.stats.bad_frames += 1;
                    self.send_frame(
                        &SessionFrame::Error {
                            session,
                            reason: "unknown session".to_string(),
                        },
                        addr,
                    );
                    return;
                };
                let sess = self.slots[idx as usize]
                    .as_mut()
                    .expect("resolve returned a live slot");
                let SessionKind::Remote { resume, fw, .. } = &mut sess.kind else {
                    self.stats.bad_frames += 1;
                    return;
                };
                // Session-level dedup: sequences above the resume
                // watermark must be strictly increasing; at or below it
                // they are deliberate resubmits and pass through to the
                // engine's ring-wide dedup.
                if seq > *resume {
                    if seq <= *fw {
                        self.stats.submits_duplicate += 1;
                        return;
                    }
                    *fw = seq;
                }
                let name = sess.name.clone();
                self.stats.submits += 1;
                out.push(Ingress::Submit {
                    name,
                    seq,
                    service,
                    action,
                });
            }
            SessionFrame::Credit { session, credits } => {
                let Some(idx) = self.resolve(session) else {
                    return;
                };
                let sess = self.slots[idx as usize]
                    .as_mut()
                    .expect("resolve returned a live slot");
                if let SessionKind::Remote {
                    credits: c,
                    queue,
                    armed,
                    ..
                } = &mut sess.kind
                {
                    *c = c.saturating_add(credits);
                    self.stats.credits_granted += 1;
                    if !queue.is_empty() && !*armed {
                        *armed = true;
                        self.rr.push_back(idx);
                    }
                }
            }
            SessionFrame::Bye { session } => {
                let Some(idx) = self.resolve(session) else {
                    return;
                };
                if let Some(sess) = self.free_slot(idx) {
                    out.push(Ingress::Bye { name: sess.name });
                }
            }
            // Recovery anti-entropy rides the session socket but is
            // daemon-to-daemon: no session table entry, no credits —
            // the runtime owns both sides.
            SessionFrame::MapPull { nonce, want_epoch } => out.push(Ingress::MapPull {
                nonce,
                want_epoch,
                addr,
            }),
            SessionFrame::MapPush {
                nonce,
                epoch,
                slot,
                map_version,
                body,
            } => out.push(Ingress::MapPush {
                nonce,
                epoch,
                slot,
                map_version,
                body,
            }),
            SessionFrame::SvcQuery { nonce, body } => {
                self.stats.svc_queries += 1;
                out.push(Ingress::SvcQuery { nonce, body, addr });
            }
            // A reply reaching the daemon socket answers nothing here:
            // requesters receive replies on their own sockets.
            SessionFrame::SvcReply { .. } => {}
            // Daemon-to-client frames arriving at the daemon are noise.
            SessionFrame::Welcome { .. }
            | SessionFrame::Event { .. }
            | SessionFrame::Error { .. } => {
                self.stats.bad_frames += 1;
            }
        }
    }

    /// Routes one engine-emitted event to the named session: adapters
    /// get the event on their channel, remote sessions get an encoded
    /// EVENT frame queued under the credit/shed policy.
    pub fn deliver(&mut self, name: &str, event: ClientEvent) {
        let Some(idx) = self.by_name.get(name).copied() else {
            // The session closed between the engine emitting the event
            // and the reactor routing it.
            self.stats.shed_disconnect_race += 1;
            return;
        };
        let terminal = matches!(event, ClientEvent::Disconnected { .. });
        let sess = self.slots[idx as usize]
            .as_mut()
            .expect("by_name points at a live slot");
        match &mut sess.kind {
            SessionKind::Adapter { tx } => {
                self.stats.events_enqueued += 1;
                if terminal {
                    // Never shed the terminal event; channel closure
                    // backstops even a wedged client.
                    let _ = tx.send_timeout(event, DISCONNECT_SEND_TIMEOUT);
                    self.stats.events_sent += 1;
                    self.free_slot(idx);
                    return;
                }
                match tx.try_send(event) {
                    Ok(()) => self.stats.events_sent += 1,
                    Err(TrySendError::Full(_)) => self.stats.shed_slow_session += 1,
                    Err(TrySendError::Disconnected(_)) => {
                        self.stats.shed_disconnect_race += 1;
                    }
                }
            }
            SessionKind::Remote {
                addr,
                credits,
                queue,
                armed,
                ..
            } => {
                let gen = sess.gen;
                let addr = *addr;
                if terminal {
                    // Terminal frames bypass the credit gate: sent
                    // immediately, then the slot dies.
                    let body = encode_event_body(&event);
                    let frame = SessionFrame::Event {
                        session: session_id(idx, gen),
                        body,
                    };
                    self.send_frame(&frame, addr);
                    self.stats.events_sent += 1;
                    self.free_slot(idx);
                    return;
                }
                self.stats.events_enqueued += 1;
                if self.queued_total >= self.opts.global_queue {
                    self.stats.shed_global_budget += 1;
                    return;
                }
                if queue.len() >= self.opts.session_queue {
                    self.stats.shed_slow_session += 1;
                    return;
                }
                let body = encode_once(&mut self.memo, &event);
                let mut frame = BytesMut::with_capacity(9 + body.len());
                frame.put_u8(FR_EVENT);
                frame.put_u64_le(session_id(idx, gen));
                frame.put_slice(&body);
                queue.push_back(frame.freeze());
                self.queued_total += 1;
                if *credits > 0 && !*armed {
                    *armed = true;
                    self.rr.push_back(idx);
                }
            }
        }
    }

    /// Flushes queued EVENT frames: round-robin across armed sessions,
    /// bounded by credits per session and the egress budget overall, in
    /// as few syscalls as `sendmmsg` allows.
    pub fn flush_egress(&mut self) {
        if self.socket.is_none() || self.rr.is_empty() {
            return;
        }
        let mut budget = self.opts.egress_budget;
        let mut batch = std::mem::take(&mut self.send_scratch);
        batch.clear();
        while budget > 0 {
            let Some(idx) = self.rr.pop_front() else {
                break;
            };
            let Some(sess) = self.slots[idx as usize].as_mut() else {
                continue;
            };
            let SessionKind::Remote {
                addr,
                credits,
                queue,
                armed,
                ..
            } = &mut sess.kind
            else {
                continue;
            };
            let n = (*credits as usize)
                .min(queue.len())
                .min(RR_CHUNK)
                .min(budget);
            for _ in 0..n {
                let frame = queue.pop_front().expect("n <= queue.len()");
                batch.push((frame, *addr));
            }
            *credits -= n as u32;
            self.queued_total -= n;
            budget -= n;
            if !queue.is_empty() && *credits > 0 {
                self.rr.push_back(idx);
            } else {
                *armed = false;
            }
        }
        if !batch.is_empty() {
            let sock = self.socket.as_ref().expect("checked above");
            let out = sock.send_batch(&batch);
            self.stats.syscalls += out.syscalls;
            self.stats.events_sent += out.sent as u64;
        }
        batch.clear();
        self.send_scratch = batch;
    }

    /// Whether any session still has queued egress (the pump should not
    /// park long while this is true).
    pub fn has_pending_egress(&self) -> bool {
        !self.rr.is_empty()
    }

    /// Delivers the terminal event to every session: adapters get a
    /// briefly-blocking channel send, remote sessions get an immediate
    /// EVENT frame. The table is left empty.
    pub fn broadcast_disconnected(&mut self, reason: &str) {
        let indices: Vec<u32> = self.by_name.values().copied().collect();
        for idx in indices {
            let Some(sess) = self.slots[idx as usize].as_ref() else {
                continue;
            };
            let name = sess.name.clone();
            self.deliver(
                &name,
                ClientEvent::Disconnected {
                    reason: reason.to_string(),
                },
            );
        }
    }
}

/// Encodes an event body, reusing the previous encoding when this is the
/// same message fanning out to another subscriber. Identity is the
/// payload `Bytes` (pointer + length); the memo holds that `Bytes`, so
/// the buffer cannot be freed and recycled into a false match. A free
/// function over the memo field alone so [`SessionMux::deliver`] can call
/// it while holding a borrow into the session table.
fn encode_once(memo: &mut Option<(Bytes, Bytes)>, event: &ClientEvent) -> Bytes {
    if let ClientEvent::Message { payload, .. } = event {
        if let Some((memo_payload, memo_body)) = memo {
            if memo_payload.as_ptr() == payload.as_ptr() && memo_payload.len() == payload.len() {
                return memo_body.clone();
            }
        }
        let body = encode_event_body(event);
        *memo = Some((payload.clone(), body.clone()));
        return body;
    }
    encode_event_body(event)
}

// ---------------------------------------------------------------------------
// Remote client
// ---------------------------------------------------------------------------

/// A remote client of a daemon's session frontend: the wire-protocol
/// counterpart of the in-process adapter clients, usable from any
/// process (or host) that can reach the daemon's session socket.
///
/// Mirrors the adapter API where it can; group operations are
/// fire-and-forget datagrams (errors surface as an ERROR frame on the
/// event stream), events arrive through [`SessionClient::recv_event`],
/// which also drives the credit grants that keep the daemon sending.
#[derive(Debug)]
pub struct SessionClient {
    socket: UdpSocket,
    daemon: SocketAddr,
    name: String,
    session: u64,
    next_seq: u64,
    consumed: u32,
    recv_buf: Vec<u8>,
}

impl SessionClient {
    /// Opens a fresh session (sequenced sends start at 1).
    ///
    /// # Errors
    ///
    /// Returns an error if the daemon rejected the name or never
    /// answered [`HELLO_ATTEMPTS`] jittered retries.
    pub fn connect(daemon: SocketAddr, name: &str) -> io::Result<SessionClient> {
        SessionClient::connect_session(daemon, name, 0)
    }

    /// Opens a session resuming an earlier watermark, exactly like the
    /// in-process adapter's `connect_session`: sequenced sends
    /// continue above `resume_from`, and in-doubt sequences at or below
    /// it may be [`SessionClient::resubmit`]ted for at-most-once
    /// redelivery.
    ///
    /// # Errors
    ///
    /// Returns an error if the daemon rejected the session or the HELLO
    /// retries were exhausted.
    pub fn connect_session(
        daemon: SocketAddr,
        name: &str,
        resume_from: u64,
    ) -> io::Result<SessionClient> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        // Nonce from the wall clock and the ephemeral port: unique per
        // connect attempt series, stable across retries of one series.
        let nonce = {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            name.hash(&mut h);
            socket.local_addr()?.hash(&mut h);
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap_or_default()
                .subsec_nanos()
                .hash(&mut h);
            h.finish()
        };
        let hello = encode_session_frame(&SessionFrame::Hello {
            name: name.to_string(),
            resume_seq: resume_from,
            nonce,
        });
        let mut backoff = Backoff::new(HELLO_BACKOFF_BASE, HELLO_BACKOFF_CAP, nonce | 1);
        let mut buf = vec![0u8; MAX_FRAME];
        for _ in 0..HELLO_ATTEMPTS {
            socket.send_to(&hello, daemon)?;
            // Jittered wait for WELCOME doubles as the retry backoff.
            socket.set_read_timeout(Some(backoff.next_delay().max(Duration::from_millis(5))))?;
            loop {
                match socket.recv_from(&mut buf) {
                    Ok((len, from)) if from == daemon => {
                        let mut datagram = Bytes::copy_from_slice(&buf[..len]);
                        match decode_session_frame(&mut datagram) {
                            Ok(SessionFrame::Welcome {
                                session, nonce: n, ..
                            }) if n == nonce => {
                                socket.set_read_timeout(None)?;
                                return Ok(SessionClient {
                                    socket,
                                    daemon,
                                    name: name.to_string(),
                                    session,
                                    next_seq: resume_from,
                                    consumed: 0,
                                    recv_buf: buf,
                                });
                            }
                            Ok(SessionFrame::Error { reason, .. }) => {
                                return Err(io::Error::new(
                                    io::ErrorKind::ConnectionRefused,
                                    reason,
                                ));
                            }
                            _ => continue,
                        }
                    }
                    Ok(_) => continue,
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!("no WELCOME from {daemon} after {HELLO_ATTEMPTS} attempts"),
        ))
    }

    /// This client's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The daemon-assigned session id.
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// The last sequence stamped by
    /// [`SessionClient::multicast_sequenced`] (or the resume watermark).
    pub fn last_seq(&self) -> u64 {
        self.next_seq
    }

    fn submit(&self, seq: u64, service: Service, action: GroupAction) -> io::Result<()> {
        let frame = encode_session_frame(&SessionFrame::Submit {
            session: self.session,
            seq,
            service,
            action,
        });
        self.socket.send_to(&frame, self.daemon)?;
        Ok(())
    }

    /// Joins a group.
    ///
    /// # Errors
    ///
    /// Returns an error if the datagram could not be sent.
    pub fn join(&self, group: &str) -> io::Result<()> {
        self.submit(
            0,
            Service::Agreed,
            GroupAction::Join {
                group: group.to_string(),
            },
        )
    }

    /// Leaves a group.
    ///
    /// # Errors
    ///
    /// Returns an error if the datagram could not be sent.
    pub fn leave(&self, group: &str) -> io::Result<()> {
        self.submit(
            0,
            Service::Agreed,
            GroupAction::Leave {
                group: group.to_string(),
            },
        )
    }

    /// Multicasts unsequenced data to one or more groups.
    ///
    /// # Errors
    ///
    /// Returns an error if the datagram could not be sent.
    pub fn multicast(&self, groups: &[&str], payload: Bytes, service: Service) -> io::Result<()> {
        self.submit(
            0,
            service,
            GroupAction::Data {
                groups: groups.iter().map(|g| (*g).to_string()).collect(),
                payload,
            },
        )
    }

    /// Multicasts with the session's next sequence number stamped,
    /// returning it for possible [`SessionClient::resubmit`] after a
    /// reconnect.
    ///
    /// # Errors
    ///
    /// Returns an error if the datagram could not be sent.
    pub fn multicast_sequenced(
        &mut self,
        groups: &[&str],
        payload: Bytes,
        service: Service,
    ) -> io::Result<u64> {
        let seq = self.next_seq + 1;
        self.submit(
            seq,
            service,
            GroupAction::Data {
                groups: groups.iter().map(|g| (*g).to_string()).collect(),
                payload,
            },
        )?;
        self.next_seq = seq;
        Ok(seq)
    }

    /// Re-sends an in-doubt message under its original sequence number;
    /// engines deliver it at most once ring-wide.
    ///
    /// # Errors
    ///
    /// Returns an error if the datagram could not be sent.
    pub fn resubmit(
        &self,
        seq: u64,
        groups: &[&str],
        payload: Bytes,
        service: Service,
    ) -> io::Result<()> {
        self.submit(
            seq,
            service,
            GroupAction::Data {
                groups: groups.iter().map(|g| (*g).to_string()).collect(),
                payload,
            },
        )
    }

    /// Waits up to `timeout` for the next event. `Ok(None)` means the
    /// wait timed out. Consuming events grants the daemon fresh credits
    /// in batches, keeping the event pipe full without a per-event ack.
    ///
    /// # Errors
    ///
    /// Returns an error on socket failure.
    pub fn recv_event(&mut self, timeout: Duration) -> io::Result<Option<ClientEvent>> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            self.socket.set_read_timeout(Some(remaining))?;
            match self.socket.recv_from(&mut self.recv_buf) {
                Ok((len, from)) if from == self.daemon => {
                    let mut datagram = Bytes::copy_from_slice(&self.recv_buf[..len]);
                    match decode_session_frame(&mut datagram) {
                        Ok(SessionFrame::Event { session, mut body })
                            if session == self.session =>
                        {
                            if let Ok(event) = decode_event_body(&mut body) {
                                self.consumed += 1;
                                if self.consumed >= CREDIT_REFRESH {
                                    let credit = encode_session_frame(&SessionFrame::Credit {
                                        session: self.session,
                                        credits: self.consumed,
                                    });
                                    let _ = self.socket.send_to(&credit, self.daemon);
                                    self.consumed = 0;
                                }
                                return Ok(Some(event));
                            }
                        }
                        Ok(SessionFrame::Error { reason, .. }) => {
                            return Ok(Some(ClientEvent::Disconnected { reason }));
                        }
                        _ => {}
                    }
                }
                Ok(_) => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Closes the session.
    pub fn bye(self) {
        let frame = encode_session_frame(&SessionFrame::Bye {
            session: self.session,
        });
        let _ = self.socket.send_to(&frame, self.daemon);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ClientId;
    use accelring_core::ParticipantId;
    use crossbeam::channel::bounded;

    fn msg(payload: &'static [u8]) -> ClientEvent {
        ClientEvent::Message {
            sender: ClientId {
                daemon: ParticipantId::new(0),
                name: "s".to_string(),
            },
            seq: 0,
            groups: vec!["g".to_string()],
            payload: Bytes::from_static(payload),
            service: Service::Agreed,
        }
    }

    fn recv_frame(sock: &UdpSocket) -> SessionFrame {
        let mut buf = vec![0u8; MAX_FRAME];
        sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let (len, _) = sock.recv_from(&mut buf).unwrap();
        let mut datagram = Bytes::copy_from_slice(&buf[..len]);
        decode_session_frame(&mut datagram).unwrap()
    }

    /// HELLO → WELCOME through the mux, then the session-level dedup
    /// rule: repeats of a forwarded sequence are dropped, sequences at or
    /// below the resume watermark pass through (the engine decides).
    #[test]
    fn hello_then_submit_dedup() {
        let mut mux = SessionMux::new(FrontendOptions::enabled()).unwrap();
        let daemon = mux.local_addr().unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        let hello = encode_session_frame(&SessionFrame::Hello {
            name: "alice".to_string(),
            resume_seq: 3,
            nonce: 7,
        });
        client.send_to(&hello, daemon).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let mut out = Vec::new();
        mux.ingest(&mut out);
        let Some(Ingress::Hello {
            name,
            resume_seq,
            nonce,
            addr,
        }) = out.pop()
        else {
            panic!("expected a HELLO ingress");
        };
        mux.handle_hello(name, resume_seq, nonce, addr, |_| Ok(()));
        let SessionFrame::Welcome {
            session,
            resume_seq,
            ..
        } = recv_frame(&client)
        else {
            panic!("expected WELCOME");
        };
        assert_eq!(resume_seq, 3);

        let submit = |seq: u64| {
            let frame = encode_session_frame(&SessionFrame::Submit {
                session,
                seq,
                service: Service::Agreed,
                action: GroupAction::Data {
                    groups: vec!["g".to_string()],
                    payload: Bytes::from_static(b"x"),
                },
            });
            client.send_to(&frame, daemon).unwrap();
        };
        submit(4); // fresh
        submit(4); // retransmission: dropped at the session
        submit(2); // at/below resume: passes through to the engine
        std::thread::sleep(Duration::from_millis(20));
        out.clear();
        mux.ingest(&mut out);
        let forwarded: Vec<u64> = out
            .iter()
            .filter_map(|i| match i {
                Ingress::Submit { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(forwarded, vec![4, 2]);
        assert_eq!(mux.stats().submits_duplicate, 1);
    }

    /// Egress is credit-gated: the daemon sends at most the granted
    /// window, and a CREDIT frame reopens it.
    #[test]
    fn egress_respects_credits() {
        let opts = FrontendOptions {
            session_socket: true,
            initial_credits: 2,
            ..FrontendOptions::default()
        };
        let mut mux = SessionMux::new(opts).unwrap();
        let daemon = mux.local_addr().unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        let client_addr = client.local_addr().unwrap();
        mux.handle_hello("bob".to_string(), 0, 1, client_addr, |_| Ok(()));
        let SessionFrame::Welcome {
            session, credits, ..
        } = recv_frame(&client)
        else {
            panic!("expected WELCOME");
        };
        assert_eq!(credits, 2);
        for _ in 0..5 {
            mux.deliver("bob", msg(b"ev"));
        }
        mux.flush_egress();
        for _ in 0..2 {
            assert!(matches!(recv_frame(&client), SessionFrame::Event { .. }));
        }
        client
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut buf = [0u8; 64];
        assert!(client.recv_from(&mut buf).is_err(), "window exhausted");

        let credit = encode_session_frame(&SessionFrame::Credit {
            session,
            credits: 3,
        });
        client.send_to(&credit, daemon).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let mut out = Vec::new();
        mux.ingest(&mut out);
        mux.flush_egress();
        for _ in 0..3 {
            assert!(matches!(recv_frame(&client), SessionFrame::Event { .. }));
        }
        assert_eq!(mux.stats().events_sent, 5);
    }

    /// Adapter sessions shed into the per-cause counters when their
    /// channel is full, but the terminal Disconnected always lands.
    #[test]
    fn adapter_sheds_but_terminal_delivers() {
        let mut mux = SessionMux::new(FrontendOptions::default()).unwrap();
        let (tx, rx) = bounded(1);
        mux.open_adapter("carol", tx);
        for _ in 0..3 {
            mux.deliver("carol", msg(b"ev"));
        }
        assert_eq!(mux.stats().shed_slow_session, 2);
        assert!(rx.try_recv().is_ok());
        mux.deliver(
            "carol",
            ClientEvent::Disconnected {
                reason: "bye".to_string(),
            },
        );
        assert!(matches!(
            rx.try_recv(),
            Ok(ClientEvent::Disconnected { .. })
        ));
        assert!(!mux.has_session("carol"), "terminal delivery closes");
        // Deliveries racing the close are attributed, not lost silently.
        mux.deliver("carol", msg(b"late"));
        assert_eq!(mux.stats().shed_disconnect_race, 1);
    }

    /// A reused slot's new generation invalidates the old session id.
    #[test]
    fn stale_session_id_is_rejected() {
        let mut mux = SessionMux::new(FrontendOptions::enabled()).unwrap();
        let daemon = mux.local_addr().unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        mux.handle_hello(
            "dave".to_string(),
            0,
            9,
            client.local_addr().unwrap(),
            |_| Ok(()),
        );
        let SessionFrame::Welcome { session, .. } = recv_frame(&client) else {
            panic!("expected WELCOME");
        };
        mux.close_name("dave");
        mux.handle_hello(
            "erin".to_string(),
            0,
            10,
            client.local_addr().unwrap(),
            |_| Ok(()),
        );
        let SessionFrame::Welcome { session: s2, .. } = recv_frame(&client) else {
            panic!("expected WELCOME");
        };
        assert_ne!(session, s2, "slot reuse must change the session id");
        let stale = encode_session_frame(&SessionFrame::Submit {
            session,
            seq: 1,
            service: Service::Agreed,
            action: GroupAction::Data {
                groups: vec!["g".to_string()],
                payload: Bytes::new(),
            },
        });
        client.send_to(&stale, daemon).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let mut out = Vec::new();
        mux.ingest(&mut out);
        assert!(out.is_empty(), "stale id must not reach the engine");
        assert_eq!(mux.stats().bad_frames, 1);
        assert!(matches!(recv_frame(&client), SessionFrame::Error { .. }));
    }

    /// A HELLO with a new nonce supersedes the live session in place:
    /// same name, fresh generation, parked events dropped.
    #[test]
    fn reconnect_supersedes_in_place() {
        let opts = FrontendOptions {
            session_socket: true,
            initial_credits: 0,
            ..FrontendOptions::default()
        };
        let mut mux = SessionMux::new(opts).unwrap();
        let old = UdpSocket::bind("127.0.0.1:0").unwrap();
        mux.handle_hello("fred".to_string(), 0, 1, old.local_addr().unwrap(), |_| {
            Ok(())
        });
        let SessionFrame::Welcome { session: s1, .. } = recv_frame(&old) else {
            panic!("expected WELCOME");
        };
        mux.deliver("fred", msg(b"parked"));
        let mut connects = 0;
        let new = UdpSocket::bind("127.0.0.1:0").unwrap();
        mux.handle_hello("fred".to_string(), 5, 2, new.local_addr().unwrap(), |_| {
            connects += 1;
            Ok(())
        });
        assert_eq!(connects, 0, "supersede keeps the engine-side client");
        let SessionFrame::Welcome {
            session: s2,
            resume_seq,
            ..
        } = recv_frame(&new)
        else {
            panic!("expected WELCOME on the new socket");
        };
        assert_ne!(s1, s2);
        assert_eq!(resume_seq, 5);
        assert!(matches!(recv_frame(&old), SessionFrame::Error { .. }));
        assert_eq!(mux.stats().resumes, 1);
        assert_eq!(mux.stats().sessions_open, 1);
    }
}
