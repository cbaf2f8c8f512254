//! The Totem-style membership state machine with Extended Virtual Synchrony
//! configuration delivery.
//!
//! [`MembershipDaemon`] wraps an ordering [`Participant`] and takes it
//! through the four Totem membership states:
//!
//! * **Operational** — the ordering protocol runs; token loss and foreign
//!   messages are the failure detectors.
//! * **Gather** — exchange join messages until consensus on a
//!   (processes, failed) pair.
//! * **Commit** — circulate the commit token twice around the forming ring
//!   so every member learns every member's recovery information.
//! * **Recover** — flood messages of dissolving rings so every transitional
//!   member holds the same set, deliver them in the transitional
//!   configuration, then install the new ring.
//!
//! Like the ordering protocol, the daemon is sans-IO: inputs are messages
//! and timer expiries (with an explicit `now` in nanoseconds), outputs are
//! sends, deliveries, and configuration changes.
//!
//! ## Token hold
//!
//! A quiet ring rests instead of spinning, as Totem's representative
//! holds the token under low utilization (corosync's `token_hold`). The
//! ring leader (position 0) keeps an arriving token unprocessed once
//! Q = `QUIET_ROTATIONS` consecutive rotations came back with nothing new
//! (no `rtr` entries, `aru == seq`, `seq` unchanged) while its send queue
//! and receive buffer are empty. An empty buffer means everything is
//! discarded, so every member has Safe-delivered it: Safe delivery never
//! waits on a hold. The leader processes the held token on the first of
//! a local submit, a [`ControlMessage::Wake`] from a member, or the hold
//! deadline H = `token_retransmit_timeout / 2`, and stamps the rotation
//! at release. H stays below the retransmit timeout, so a predecessor
//! never resends a token that is merely held and token-loss detection is
//! unchanged. A member that needs the ring to turn while it may be
//! resting ([`MembershipDaemon::turn`]) sends the leader one wake per
//! token visit. Only the token's timing changes, never its path or its
//! contents.

use std::collections::{BTreeMap, BTreeSet};

use accelring_core::{
    Action, DataMessage, Delivery, Participant, ParticipantId, ProtocolConfig, QueueFullError,
    RecoverySnapshot, Ring, RingId, Round, Seq, Service, Token,
};
use bytes::Bytes;

use crate::config::MembershipConfig;
use crate::msg::{CommitToken, ControlMessage, MemberInfo};

/// Which membership state the daemon is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateKind {
    /// Ordering protocol active.
    Operational,
    /// Exchanging join messages.
    Gather,
    /// Commit token circulating.
    Commit,
    /// Exchanging old-ring messages before installing the new ring.
    Recover,
}

/// Timers the daemon arms; the runtime fires them back via
/// [`Input::Timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimerKind {
    /// No token received for too long (Operational).
    TokenLoss,
    /// Retransmit the last sent token (Operational).
    TokenRetransmit,
    /// Rebroadcast the join message (Gather).
    JoinRebroadcast,
    /// Give up on silent processes (Gather).
    Consensus,
    /// Commit token lost (Commit).
    Commit,
    /// Recovery barrier incomplete (Recover).
    Recovery,
    /// Rebroadcast recovery flood and barrier (Recover).
    RecoveryRebroadcast,
    /// Broadcast the presence beacon (Operational).
    Presence,
    /// The join sets have been stable long enough to evaluate consensus
    /// on a formation that is missing part of the address book (Gather).
    Settle,
    /// Release the token the ring leader holds (Operational).
    TokenHold,
}

/// An input to the daemon.
#[derive(Debug, Clone)]
pub enum Input {
    /// A token received on the token socket.
    Token(Token),
    /// A data message received on the data socket.
    Data(DataMessage),
    /// A membership control message.
    Control(ControlMessage),
    /// A timer previously armed by the daemon has expired.
    Timer(TimerKind),
}

/// An effect the runtime must carry out.
#[derive(Debug, Clone)]
pub enum Output {
    /// Multicast a data message to the ring.
    Multicast(DataMessage),
    /// Send the token to this participant.
    SendToken {
        /// Destination (the ring successor, or ourselves on a singleton
        /// ring).
        to: ParticipantId,
        /// The token.
        token: Token,
    },
    /// Deliver a message to the application.
    Deliver(Delivery),
    /// Send a control message; `to: None` means broadcast.
    SendControl {
        /// Unicast destination, or `None` for broadcast.
        to: Option<ParticipantId>,
        /// The control message.
        msg: ControlMessage,
    },
    /// Deliver a configuration change to the application (EVS).
    ConfigChange(ConfigChange),
}

/// An EVS configuration-change notification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigChange {
    /// Id of the configuration (for a transitional configuration, the id of
    /// the dissolving ring it closes).
    pub ring_id: RingId,
    /// Members of the configuration.
    pub members: Vec<ParticipantId>,
    /// Whether this is a transitional configuration.
    pub transitional: bool,
}

/// Counters for observability and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MembershipStats {
    /// Times the daemon entered Gather.
    pub gathers: u64,
    /// Regular configurations installed.
    pub rings_formed: u64,
    /// Tokens retransmitted by the token-retransmit timer.
    pub tokens_retransmitted: u64,
    /// New-ring messages stashed while not yet operational.
    pub stashed: u64,
    /// Tokens this daemon held as the leader of a resting ring.
    pub token_holds: u64,
    /// Wakes this daemon sent to its ring leader.
    pub wakes_sent: u64,
}

#[derive(Debug, Clone)]
enum Stashed {
    Token(Token),
    Data(DataMessage),
}

#[derive(Debug)]
struct PendingRecovery {
    new_ring: Ring,
    floor: Seq,
    collected: BTreeMap<Seq, DataMessage>,
    done: BTreeSet<ParticipantId>,
    peers: Vec<ParticipantId>,
    /// Seqs above the floor we held when recovery began — advertised on
    /// our RecoveryDone so peers know what equality requires. Frozen at
    /// entry so rebroadcasts are idempotent.
    my_holds: Vec<Seq>,
    /// Union of the holds advertised by same-old-ring peers' barriers.
    /// Recovery may only complete once every one of these is in
    /// `collected` or in our own snapshot; a bare done-bit barrier would
    /// let a member whose flood packets were lost install the transitional
    /// configuration with a hole, breaking virtual synchrony.
    needed: BTreeSet<Seq>,
    /// The highest round any new member has seen; the new ring's first
    /// token carries it, so its rounds start above every old ring's.
    round: Round,
}

const MAX_STASH: usize = 4096;
const MAX_EARLY_FLOODS: usize = 65536;

/// Consecutive quiet rotations after which the ring leader holds the
/// token (see the module docs). It counts rotations rather than time, so
/// it behaves the same in virtual time. Chosen by measurement from 8, 16
/// and 32: the smallest that kept the latency of a ring carrying a
/// message every few rotations within its bounds. It must be at least 2:
/// two quiet rotations have every member send `aru == seq` twice, which
/// Safe-delivers everything before the leader holds.
const QUIET_ROTATIONS: u32 = 8;

/// The token-hold state of one ring membership (see the module docs).
#[derive(Debug, Default)]
struct Rest {
    /// Consecutive quiet token visits: no `rtr` entries, `aru == seq`,
    /// `seq` as it was at the previous visit, and nothing new sent here.
    /// Every member counts its own; each is at most one rotation off the
    /// leader's.
    quiet: u32,
    /// The token's `seq` as it arrived at the previous visit.
    last_seq: Option<Seq>,
    /// The leader's held token.
    held: Option<Token>,
    /// The leader was asked to turn while not holding: it skips its next
    /// hold, so a wake that races the token is not lost.
    wake_pending: bool,
    /// The round of the visit at which this member last sent a wake (one
    /// wake per token visit).
    woke_round: Option<Round>,
}

/// A complete group-communication endpoint: ordering protocol plus
/// membership.
///
/// # Examples
///
/// A node whose only peer never answers forms a singleton ring after its
/// consensus timeout:
///
/// ```
/// use accelring_membership::{Input, MembershipConfig, MembershipDaemon, Output, StateKind, TimerKind};
/// use accelring_core::{ParticipantId, ProtocolConfig};
///
/// let mut d = MembershipDaemon::new(
///     ParticipantId::new(0),
///     [ParticipantId::new(0), ParticipantId::new(1)],
///     ProtocolConfig::default(),
///     MembershipConfig::for_simulation(),
/// );
/// let mut out = Vec::new();
/// d.start(0, &mut out);
/// assert_eq!(d.state(), StateKind::Gather);
///
/// let cfg = MembershipConfig::for_simulation();
/// d.handle(cfg.gather_settle, Input::Timer(TimerKind::Settle), &mut out);
/// d.handle(cfg.consensus_timeout, Input::Timer(TimerKind::Consensus), &mut out);
/// assert_eq!(d.state(), StateKind::Operational);
/// assert!(out.iter().any(|o| matches!(o, Output::ConfigChange(c) if !c.transitional)));
/// ```
#[derive(Debug)]
pub struct MembershipDaemon {
    pid: ParticipantId,
    /// Every participant of the deployment's address book, this one
    /// included. When all of them agree, a ring forms at once.
    book: BTreeSet<ParticipantId>,
    proto_cfg: ProtocolConfig,
    cfg: MembershipConfig,
    state: StateKind,
    participant: Participant,
    started: bool,
    timers: BTreeMap<TimerKind, u64>,
    last_sent_token: Option<Token>,
    // Gather state.
    my_proc: BTreeSet<ParticipantId>,
    my_fail: BTreeSet<ParticipantId>,
    joins: BTreeMap<ParticipantId, (BTreeSet<ParticipantId>, BTreeSet<ParticipantId>)>,
    max_ring_counter: u64,
    consensus_timeout_fired: bool,
    /// Whether the gather-settle period has elapsed. A formation that
    /// lacks part of the address book (a member failed, silent or not
    /// yet heard from) evaluates consensus only afterwards, so in-flight
    /// join chatter cannot race it; one the whole book agrees on does
    /// not wait.
    settled: bool,
    // Snapshot of the dissolving ring.
    snapshot: Option<RecoverySnapshot>,
    pending: Option<PendingRecovery>,
    stash: Vec<Stashed>,
    /// RecoveryDone barriers that arrived before we entered Recover
    /// ourselves (e.g. while the commit token was still on its way to us),
    /// keyed by the forming ring; each sender maps to the old ring it is
    /// recovering from and the seqs it advertised holding.
    early_dones: BTreeMap<RingId, BTreeMap<ParticipantId, (RingId, Vec<Seq>)>>,
    /// Recovery floods that arrived before we entered Recover, with their
    /// senders.
    early_floods: Vec<(ParticipantId, RingId, DataMessage)>,
    /// Our gather-attempt counter, carried on our joins.
    gather_epoch: u64,
    /// The last join content (epoch, proc set, fail set) seen from each
    /// peer, across state changes. Outside Gather, a join identical to the
    /// last one seen from its sender is stale chatter from a straggler and
    /// must not restart membership formation (otherwise in-flight join
    /// rebroadcasts knock committed nodes back to Gather in an endless
    /// storm). The epoch distinguishes a fresh attempt whose sets happen
    /// to repeat an old epoch's sets. An *earlier* join, overtaken by the
    /// one held here, is caught by its ring counter instead
    /// (`predates_ring`).
    seen_joins: BTreeMap<ParticipantId, (u64, BTreeSet<ParticipantId>, BTreeSet<ParticipantId>)>,
    /// Token-hold state; reset whenever the daemon leaves Operational.
    rest: Rest,
    stats: MembershipStats,
}

impl MembershipDaemon {
    /// Creates a daemon that is not yet participating; call
    /// [`MembershipDaemon::start`] to begin gathering.
    ///
    /// `book` lists the participants of the deployment's address book;
    /// `pid` counts as one of them whatever the list says. A gather that
    /// every one of them answers with the same sets forms its ring at
    /// once; any other waits out [`MembershipConfig::gather_settle`].
    pub fn new(
        pid: ParticipantId,
        book: impl IntoIterator<Item = ParticipantId>,
        proto_cfg: ProtocolConfig,
        cfg: MembershipConfig,
    ) -> MembershipDaemon {
        let ring = Ring::new(RingId::new(pid, 0), vec![pid]).expect("singleton ring");
        let participant =
            Participant::new(pid, ring, proto_cfg).expect("member of its own singleton ring");
        let mut book: BTreeSet<ParticipantId> = book.into_iter().collect();
        book.insert(pid);
        MembershipDaemon {
            pid,
            book,
            proto_cfg,
            cfg,
            state: StateKind::Gather,
            participant,
            started: false,
            timers: BTreeMap::new(),
            last_sent_token: None,
            my_proc: BTreeSet::new(),
            my_fail: BTreeSet::new(),
            joins: BTreeMap::new(),
            max_ring_counter: 0,
            consensus_timeout_fired: false,
            settled: false,
            snapshot: None,
            pending: None,
            stash: Vec::new(),
            early_dones: BTreeMap::new(),
            early_floods: Vec::new(),
            gather_epoch: 0,
            seen_joins: BTreeMap::new(),
            rest: Rest::default(),
            stats: MembershipStats::default(),
        }
    }

    /// This daemon's participant id.
    pub fn pid(&self) -> ParticipantId {
        self.pid
    }

    /// Current membership state.
    pub fn state(&self) -> StateKind {
        self.state
    }

    /// The ring currently installed in the ordering participant (the last
    /// regular configuration).
    pub fn ring(&self) -> &Ring {
        self.participant.ring()
    }

    /// The wrapped ordering participant (read-only).
    pub fn participant(&self) -> &Participant {
        &self.participant
    }

    /// Membership counters.
    pub fn stats(&self) -> &MembershipStats {
        &self.stats
    }

    /// The protocol configuration in force.
    pub fn protocol_config(&self) -> &ProtocolConfig {
        &self.proto_cfg
    }

    /// The highest ring counter this daemon has used or observed, the
    /// ring it is on included. Totem stores this on stable storage so
    /// that a recovered daemon never reuses a ring id (EVS requires
    /// configuration identifiers to be unique); a runtime restarting a
    /// daemon should persist this value and hand it back via
    /// [`MembershipDaemon::restore_ring_counter`].
    pub fn max_ring_counter(&self) -> u64 {
        self.max_ring_counter
            .max(self.participant.ring().id().counter())
    }

    /// Restores the stable-storage ring counter after a restart (see
    /// [`MembershipDaemon::max_ring_counter`]). Only ever raises the
    /// counter.
    pub fn restore_ring_counter(&mut self, counter: u64) {
        self.max_ring_counter = self.max_ring_counter.max(counter);
    }

    /// Whether a waiting token should be read before waiting data (Section
    /// III-D of the paper); runtimes use this to order their socket reads.
    pub fn token_has_priority(&self) -> bool {
        self.participant.token_has_priority()
    }

    /// The gather state (proc set, fail set, join senders heard), for
    /// observability and debugging.
    pub fn gather_view(&self) -> (Vec<ParticipantId>, Vec<ParticipantId>, Vec<ParticipantId>) {
        (
            self.my_proc.iter().copied().collect(),
            self.my_fail.iter().copied().collect(),
            self.joins.keys().copied().collect(),
        )
    }

    /// The earliest armed timer, if any: `(deadline_ns, kind)`. The runtime
    /// should call [`MembershipDaemon::handle`] with [`Input::Timer`] when
    /// the deadline passes.
    pub fn next_timer(&self) -> Option<(u64, TimerKind)> {
        self.timers.iter().map(|(&k, &d)| (d, k)).min()
    }

    /// Queues an application message; it is multicast once the daemon is
    /// operational and the token allows, surviving configuration changes.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFullError`] when the send queue is at capacity.
    pub fn submit(&mut self, payload: Bytes, service: Service) -> Result<(), QueueFullError> {
        self.participant.submit(payload, service)
    }

    /// Asks a possibly resting ring to turn. The leader releases the token
    /// it holds, or skips its next hold when the token is away. A member
    /// whose quiet streak says the ring may be resting sends the leader a
    /// [`ControlMessage::Wake`], at most one per token visit. A no-op
    /// outside Operational.
    pub fn turn(&mut self, now: u64, out: &mut Vec<Output>) {
        if !self.started || self.state != StateKind::Operational {
            return;
        }
        if self.is_leader() {
            if self.rest.held.is_some() {
                self.release(now, out);
            } else {
                self.rest.wake_pending = true;
            }
            return;
        }
        let round = self.participant.current_round();
        if self.rest.quiet < QUIET_ROTATIONS - 1 || self.rest.woke_round == Some(round) {
            return;
        }
        self.rest.woke_round = Some(round);
        self.stats.wakes_sent += 1;
        let ring = self.participant.ring();
        out.push(Output::SendControl {
            to: Some(ring.members()[0]),
            msg: ControlMessage::Wake {
                sender: self.pid,
                ring_id: ring.id(),
                round,
            },
        });
    }

    /// The wake step a runtime runs after taking submits: while messages
    /// wait in the send queue, [`turn`](MembershipDaemon::turn) the ring.
    pub fn wake_step(&mut self, now: u64, out: &mut Vec<Output>) {
        if self.participant.send_queue_len() > 0 {
            self.turn(now, out);
        }
    }

    /// Begins participating: enters Gather and broadcasts a join. A daemon
    /// alone in its address book forms its ring at once.
    pub fn start(&mut self, now: u64, out: &mut Vec<Output>) {
        self.started = true;
        self.shift_to_gather(now, out);
        self.check_consensus(now, out);
    }

    /// Announces a clean departure from the ring.
    ///
    /// Broadcasts a join message that lists this process in its own fail
    /// set. By Totem's reciprocity rule peers cannot keep a processor that
    /// has failed them, so every receiver immediately fails the sender and
    /// regathers — the survivors reform after one gather-settle plus
    /// consensus round instead of waiting out the full token-loss timeout.
    /// The settle applies because the leaver, failed, is a member of the
    /// address book the new ring lacks. No new control-message kind is
    /// needed; the departure rides the ordinary join exchange.
    ///
    /// Only meaningful while Operational (a daemon mid-formation just
    /// exits and lets the exchange converge without it); a no-op in any
    /// other state. The caller should flush the outputs and then stop
    /// feeding the daemon: it is left in a departed state and must not be
    /// reused.
    pub fn announce_leave(&mut self, out: &mut Vec<Output>) {
        if !self.started || self.state != StateKind::Operational {
            return;
        }
        self.gather_epoch += 1;
        self.max_ring_counter = self
            .max_ring_counter
            .max(self.participant.ring().id().counter());
        let mut proc_set: BTreeSet<ParticipantId> =
            self.participant.ring().members().iter().copied().collect();
        proc_set.insert(self.pid);
        let mut fail_set = BTreeSet::new();
        fail_set.insert(self.pid);
        out.push(Output::SendControl {
            to: None,
            msg: ControlMessage::Join {
                sender: self.pid,
                proc_set,
                fail_set,
                ring_counter: self.max_ring_counter,
                epoch: self.gather_epoch,
            },
        });
    }

    /// Processes one input at time `now` (nanoseconds, same clock as the
    /// timer deadlines), appending effects to `out`.
    pub fn handle(&mut self, now: u64, input: Input, out: &mut Vec<Output>) {
        assert!(self.started, "call start() before handle()");
        match input {
            Input::Timer(kind) => self.handle_timer(now, kind, out),
            Input::Token(token) => self.handle_token(now, token, out),
            Input::Data(msg) => self.handle_data(now, msg, out),
            Input::Control(msg) => self.handle_control(now, msg, out),
        }
    }

    // ----- timers ---------------------------------------------------------

    fn handle_timer(&mut self, now: u64, kind: TimerKind, out: &mut Vec<Output>) {
        match self.timers.get(&kind) {
            Some(&deadline) if deadline <= now => {
                self.timers.remove(&kind);
            }
            _ => return, // stale or cancelled timer
        }
        match (self.state, kind) {
            (StateKind::Operational, TimerKind::TokenLoss) => self.shift_to_gather(now, out),
            (StateKind::Operational, TimerKind::TokenHold) => self.release(now, out),
            (StateKind::Operational, TimerKind::Presence) => {
                out.push(Output::SendControl {
                    to: None,
                    msg: ControlMessage::Presence {
                        sender: self.pid,
                        ring_id: self.participant.ring().id(),
                    },
                });
                self.timers
                    .insert(TimerKind::Presence, now + self.cfg.presence_interval);
            }
            (StateKind::Operational, TimerKind::TokenRetransmit) => {
                if let Some(token) = self.last_sent_token.clone() {
                    self.stats.tokens_retransmitted += 1;
                    let to = self.participant.ring().successor_of(self.pid);
                    out.push(Output::SendToken { to, token });
                    self.timers.insert(
                        TimerKind::TokenRetransmit,
                        now + self.cfg.token_retransmit_timeout,
                    );
                }
            }
            (StateKind::Gather, TimerKind::JoinRebroadcast) => {
                self.broadcast_join(out);
                self.timers
                    .insert(TimerKind::JoinRebroadcast, now + self.cfg.join_interval);
            }
            (StateKind::Gather, TimerKind::Settle) => {
                self.settled = true;
                self.check_consensus(now, out);
            }
            (StateKind::Gather, TimerKind::Consensus) => {
                self.consensus_timeout_fired = true;
                // Totem fails every member that has not reached consensus:
                // one whose latest join does not carry our sets, or that
                // sent none. A member that crashed after its first join of
                // the gather would otherwise block formation for good.
                let pid = self.pid;
                let unagreed: Vec<ParticipantId> = self
                    .my_proc
                    .iter()
                    .copied()
                    .filter(|&p| p != pid && !self.my_fail.contains(&p) && !self.agrees(p))
                    .collect();
                if !unagreed.is_empty() {
                    self.my_fail.extend(unagreed);
                    self.broadcast_join(out);
                }
                self.timers
                    .insert(TimerKind::Consensus, now + self.cfg.consensus_timeout);
                self.check_consensus(now, out);
            }
            (StateKind::Commit, TimerKind::Commit) => self.shift_to_gather(now, out),
            (StateKind::Recover, TimerKind::Recovery) => self.shift_to_gather(now, out),
            (StateKind::Recover, TimerKind::RecoveryRebroadcast) => {
                self.rebroadcast_recovery(out);
                self.timers
                    .insert(TimerKind::RecoveryRebroadcast, now + self.cfg.join_interval);
            }
            _ => {} // timer no longer relevant in this state
        }
    }

    // ----- operational ----------------------------------------------------

    fn handle_token(&mut self, now: u64, token: Token, out: &mut Vec<Output>) {
        let current = self.participant.ring().id();
        if token.ring_id == current && self.state == StateKind::Operational {
            if self
                .rest
                .held
                .as_ref()
                .is_some_and(|held| token.token_id <= held.token_id)
            {
                return; // a retransmitted copy of the held token
            }
            if self.observe_visit(&token) {
                self.hold(now, token);
                return;
            }
            let seq = token.seq;
            self.process_token(now, token, out);
            if self.last_sent_token.as_ref().is_some_and(|t| t.seq > seq) {
                self.rest.quiet = 0; // this visit sent something new
            }
        } else if self.is_pending_ring(token.ring_id) {
            self.stash_input(Stashed::Token(token));
        } else if token.ring_id.counter() > current.counter()
            && self.state == StateKind::Operational
        {
            // Foreign token from a newer configuration: something merged or
            // reformed without us.
            self.shift_to_gather(now, out);
        }
    }

    fn handle_data(&mut self, now: u64, msg: DataMessage, out: &mut Vec<Output>) {
        let current = self.participant.ring().id();
        if msg.ring_id == current && self.state == StateKind::Operational {
            let mut actions = Vec::new();
            self.participant.handle_data(msg, &mut actions);
            self.emit(actions, out);
        } else if self.is_pending_ring(msg.ring_id) {
            self.stash_input(Stashed::Data(msg));
        } else if msg.ring_id.counter() > current.counter() && self.state == StateKind::Operational
        {
            self.shift_to_gather(now, out);
        }
    }

    fn process_token(&mut self, now: u64, token: Token, out: &mut Vec<Output>) {
        let mut actions = Vec::new();
        // Rounds are paced by this clock: the ring leader starts each
        // rotation at `now` in microseconds (see `Participant::handle_token`).
        self.participant
            .handle_token(token, now / 1_000, &mut actions);
        self.emit(actions, out);
        self.timers
            .insert(TimerKind::TokenLoss, now + self.cfg.token_loss_timeout);
        if self.last_sent_token.is_some() {
            self.timers.insert(
                TimerKind::TokenRetransmit,
                now + self.cfg.token_retransmit_timeout,
            );
        }
    }

    fn is_leader(&self) -> bool {
        self.participant.ring().members()[0] == self.pid
    }

    /// Counts a token visit toward the quiet streak; returns whether the
    /// leader holds the token instead of processing it.
    fn observe_visit(&mut self, token: &Token) -> bool {
        // A stale duplicate is dropped by the participant and counts for
        // nothing. (A singleton ring's token comes back with the id it
        // was sent with.)
        if self
            .last_sent_token
            .as_ref()
            .is_some_and(|t| token.token_id < t.token_id)
        {
            return false;
        }
        let quiet =
            token.rtr.is_empty() && token.aru == token.seq && self.rest.last_seq == Some(token.seq);
        self.rest.quiet = if quiet {
            self.rest.quiet.saturating_add(1)
        } else {
            0
        };
        self.rest.last_seq = Some(token.seq);
        if !self.is_leader() {
            return false;
        }
        let woken = std::mem::take(&mut self.rest.wake_pending);
        !woken
            && self.rest.quiet >= QUIET_ROTATIONS
            && self.participant.send_queue_len() == 0
            && self.participant.buffered() == 0
    }

    /// The leader keeps the token: the ring rests until a submit, a wake
    /// or the hold deadline. The token is in hand, so there is nothing to
    /// retransmit and the loss timer restarts.
    fn hold(&mut self, now: u64, token: Token) {
        self.stats.token_holds += 1;
        self.rest.held = Some(token);
        self.timers.remove(&TimerKind::TokenRetransmit);
        self.timers
            .insert(TimerKind::TokenLoss, now + self.cfg.token_loss_timeout);
        self.timers.insert(
            TimerKind::TokenHold,
            now + self.cfg.token_retransmit_timeout / 2,
        );
    }

    /// Processes the held token now, starting the next rotation at `now`.
    fn release(&mut self, now: u64, out: &mut Vec<Output>) {
        if let Some(token) = self.rest.held.take() {
            self.timers.remove(&TimerKind::TokenHold);
            self.process_token(now, token, out);
        }
    }

    fn emit(&mut self, actions: Vec<Action>, out: &mut Vec<Output>) {
        for action in actions {
            match action {
                Action::Multicast(m) => out.push(Output::Multicast(m)),
                Action::SendToken { to, token } => {
                    self.last_sent_token = Some(token.clone());
                    out.push(Output::SendToken { to, token });
                }
                Action::Deliver(d) => out.push(Output::Deliver(d)),
                Action::Discard { .. } => {}
            }
        }
    }

    // ----- gather ---------------------------------------------------------

    fn shift_to_gather(&mut self, now: u64, out: &mut Vec<Output>) {
        if self.state == StateKind::Operational || self.snapshot.is_none() {
            self.snapshot = Some(self.participant.recovery_snapshot());
        }
        self.stats.gathers += 1;
        self.gather_epoch += 1;
        self.state = StateKind::Gather;
        self.pending = None;
        self.stash.clear();
        self.early_dones.clear();
        self.early_floods.clear();
        self.last_sent_token = None;
        // Every way out of Operational passes here, so recover and
        // install start without a hold.
        self.rest = Rest::default();
        self.my_proc = self.participant.ring().members().iter().copied().collect();
        self.my_proc.insert(self.pid);
        self.my_fail.clear();
        self.joins.clear();
        self.consensus_timeout_fired = false;
        self.settled = false;
        self.max_ring_counter = self
            .max_ring_counter
            .max(self.participant.ring().id().counter());
        self.timers.clear();
        self.timers
            .insert(TimerKind::JoinRebroadcast, now + self.cfg.join_interval);
        self.timers
            .insert(TimerKind::Consensus, now + self.cfg.consensus_timeout);
        self.timers
            .insert(TimerKind::Settle, now + self.cfg.gather_settle);
        self.broadcast_join(out);
    }

    fn broadcast_join(&mut self, out: &mut Vec<Output>) {
        self.joins
            .insert(self.pid, (self.my_proc.clone(), self.my_fail.clone()));
        out.push(Output::SendControl {
            to: None,
            msg: ControlMessage::Join {
                sender: self.pid,
                proc_set: self.my_proc.clone(),
                fail_set: self.my_fail.clone(),
                ring_counter: self.max_ring_counter,
                epoch: self.gather_epoch,
            },
        });
    }

    fn handle_control(&mut self, now: u64, msg: ControlMessage, out: &mut Vec<Output>) {
        match msg {
            ControlMessage::Join {
                sender,
                proc_set,
                fail_set,
                ring_counter,
                epoch,
            } => {
                if sender == self.pid {
                    return; // our own broadcast looped back
                }
                if self.state != StateKind::Gather {
                    if self.seen_joins.get(&sender)
                        == Some(&(epoch, proc_set.clone(), fail_set.clone()))
                    {
                        // A straggler rebroadcasting information we already
                        // acted on: no reason to restart formation.
                        return;
                    }
                    if self.predates_ring(sender, ring_counter) {
                        return;
                    }
                    // A join carrying news means membership is in flux:
                    // regather and absorb it.
                    self.shift_to_gather(now, out);
                }
                self.absorb_join(now, sender, epoch, proc_set, fail_set, ring_counter, out);
            }
            ControlMessage::Commit(ct) => self.handle_commit_token(now, ct, out),
            ControlMessage::Presence { sender, ring_id } => {
                // A beacon from a ring that is not ours and is not stale
                // means a reachable foreign ring exists: merge. The side
                // with the lower counter may ignore the other (stale-looking
                // beacons), but the higher side always triggers and its join
                // broadcasts pull the lower side in.
                if self.state == StateKind::Operational
                    && sender != self.pid
                    && ring_id != self.participant.ring().id()
                    && ring_id.counter() >= self.participant.ring().id().counter()
                {
                    self.shift_to_gather(now, out);
                }
            }
            ControlMessage::Recovery {
                sender,
                old_ring,
                msg: data,
            } => match self.state {
                StateKind::Recover => {
                    if let (Some(snapshot), Some(pending)) = (&self.snapshot, &mut self.pending) {
                        // Only the transitional members' floods count: they
                        // advertise what they flood on their barriers, so
                        // every member collects the same set. A flood from
                        // a process outside the transitional configuration
                        // (still recovering an attempt that failed) would
                        // reach some members and not others.
                        if old_ring == snapshot.ring_id
                            && data.seq > pending.floor
                            && pending.peers.contains(&sender)
                        {
                            pending.collected.entry(data.seq).or_insert(data);
                            // A flood can be the last missing piece once all
                            // barriers are already in.
                            self.check_recovery_complete(now, out);
                        }
                    }
                }
                StateKind::Gather | StateKind::Commit => {
                    // A peer is already recovering a ring we may be about to
                    // join; keep its flood until we know our floor.
                    if self.early_floods.len() < MAX_EARLY_FLOODS {
                        self.early_floods.push((sender, old_ring, data));
                    }
                }
                StateKind::Operational => {}
            },
            ControlMessage::RecoveryDone {
                sender,
                new_ring,
                old_ring,
                holds,
            } => match self.state {
                StateKind::Recover => {
                    if let (Some(snapshot), Some(pending)) = (&self.snapshot, &mut self.pending) {
                        if new_ring == pending.new_ring.id() {
                            pending.done.insert(sender);
                            if old_ring == snapshot.ring_id {
                                pending.needed.extend(holds);
                            }
                            self.check_recovery_complete(now, out);
                        }
                    }
                }
                StateKind::Gather | StateKind::Commit => {
                    // The barrier can arrive before the commit token reaches
                    // us; remember it so we do not stall in Recover.
                    self.early_dones
                        .entry(new_ring)
                        .or_default()
                        .insert(sender, (old_ring, holds));
                }
                StateKind::Operational => {}
            },
            ControlMessage::Wake { ring_id, round, .. } => {
                let answered = self
                    .last_sent_token
                    .as_ref()
                    .is_some_and(|t| t.round > round);
                if ring_id == self.participant.ring().id() && self.is_leader() && !answered {
                    self.turn(now, out);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn absorb_join(
        &mut self,
        now: u64,
        sender: ParticipantId,
        epoch: u64,
        proc_set: BTreeSet<ParticipantId>,
        fail_set: BTreeSet<ParticipantId>,
        ring_counter: u64,
        out: &mut Vec<Output>,
    ) {
        self.max_ring_counter = self.max_ring_counter.max(ring_counter);
        self.seen_joins
            .insert(sender, (epoch, proc_set.clone(), fail_set.clone()));
        let mut changed = false;
        if fail_set.contains(&self.pid) {
            // Totem's reciprocity rule: a processor that has given up on us
            // cannot be in our membership either. We must NOT merge its
            // fail set (it contains us), so we fail the sender instead and
            // let the two sides form separate rings; the presence beacon
            // merges them afterwards with fresh fail sets.
            changed = self.my_fail.insert(sender);
            self.joins.remove(&sender);
        } else {
            for p in &proc_set {
                changed |= self.my_proc.insert(*p);
            }
            for p in &fail_set {
                changed |= self.my_fail.insert(*p);
            }
            self.joins.insert(sender, (proc_set, fail_set));
        }
        if changed {
            // New information restarts the consensus and settle clocks and
            // must be spread.
            self.timers
                .insert(TimerKind::Consensus, now + self.cfg.consensus_timeout);
            self.timers
                .insert(TimerKind::Settle, now + self.cfg.gather_settle);
            self.settled = false;
            self.broadcast_join(out);
        } else if !self.my_fail.contains(&sender) && !self.agrees(sender) {
            // The sender has not heard our sets (a restarted daemon's
            // first join names only itself): answer now rather than at
            // the next rebroadcast. Its union with ours changes it, so the
            // exchange ends after one round trip; a failed sender is
            // never answered, so reciprocal fail sets cannot ping-pong.
            self.broadcast_join(out);
        }
        self.check_consensus(now, out);
    }

    /// Whether every participant of the address book is outside our fail
    /// set and has sent a join whose sets equal ours. Such a formation
    /// has no one left to hear from, so it need not wait out the settle.
    /// A failed participant never counts as agreed: under a partition that
    /// would form singletons at once, and flapping partitions would then
    /// merge and split them without end.
    fn whole_book_agrees(&self) -> bool {
        self.book
            .iter()
            .all(|&p| !self.my_fail.contains(&p) && self.agrees(p))
    }

    /// Whether `p`'s latest join carries our proc and fail sets.
    fn agrees(&self, p: ParticipantId) -> bool {
        self.joins.get(&p).is_some_and(|(proc_set, fail_set)| {
            *proc_set == self.my_proc && *fail_set == self.my_fail
        })
    }

    /// Whether a join reaching us outside Gather predates the ring we are
    /// forming or on: a member of our proc set, not failed, sent it with a
    /// ring counter below ours. We can be in Commit through the
    /// representative's commit token before our own consensus, and the
    /// member's last join, still in flight, then differs from the last one
    /// `seen_joins` holds for it; regathering on it would knock us back
    /// to Gather and our new join would knock the others back in turn.
    fn predates_ring(&self, sender: ParticipantId, ring_counter: u64) -> bool {
        ring_counter < self.max_ring_counter
            && self.my_proc.contains(&sender)
            && !self.my_fail.contains(&sender)
    }

    fn check_consensus(&mut self, now: u64, out: &mut Vec<Output>) {
        let whole_book = self.whole_book_agrees();
        if !self.settled && !whole_book {
            return; // wait out the join-exchange settle period
        }
        debug_assert!(
            !self.my_fail.contains(&self.pid),
            "reciprocity rule keeps us out of our own fail set"
        );
        let members: Vec<ParticipantId> = self
            .my_proc
            .iter()
            .copied()
            .filter(|p| !self.my_fail.contains(p))
            .collect();
        if members.is_empty() {
            return;
        }
        if members.len() == 1 && !self.consensus_timeout_fired && !whole_book {
            // Don't instantly declare a singleton ring at startup: give
            // peers one consensus period to answer.
            return;
        }
        if members.iter().all(|&m| self.agrees(m)) {
            self.form_ring(now, members, out);
        }
    }

    fn member_info(&self) -> MemberInfo {
        let snapshot = self
            .snapshot
            .as_ref()
            .expect("snapshot taken when gathering began");
        MemberInfo {
            pid: self.pid,
            old_ring: snapshot.ring_id,
            local_aru: snapshot.local_aru,
            highest_held: snapshot.highest_held,
            round: snapshot.round,
        }
    }

    fn form_ring(&mut self, now: u64, members: Vec<ParticipantId>, out: &mut Vec<Output>) {
        let rep = members[0];
        self.max_ring_counter += 4;
        let new_ring = RingId::new(rep, self.max_ring_counter);
        self.state = StateKind::Commit;
        self.timers.clear();
        self.timers
            .insert(TimerKind::Commit, now + self.cfg.commit_timeout);
        if rep == self.pid {
            let ct = CommitToken {
                new_ring,
                members: members.clone(),
                infos: vec![self.member_info()],
                hop: 0,
            };
            if members.len() == 1 {
                self.enter_recover(now, ct, out);
            } else {
                out.push(Output::SendControl {
                    to: Some(members[1]),
                    msg: ControlMessage::Commit(CommitToken { hop: 1, ..ct }),
                });
            }
        }
    }

    // ----- commit ---------------------------------------------------------

    fn handle_commit_token(&mut self, now: u64, mut ct: CommitToken, out: &mut Vec<Output>) {
        if !ct.members.contains(&self.pid) {
            return; // a ring forming without us; keep doing what we were doing
        }
        match self.state {
            StateKind::Gather | StateKind::Commit => {
                // The ring being formed must be newer than the ring we are
                // dissolving. A duplicated or reordered commit token from a
                // formation that already completed (its ring installed, then
                // dissolved again) would otherwise be accepted, and its infos
                // — whose old_ring fields predate our snapshot — would yield
                // an empty transitional membership.
                if let Some(snapshot) = &self.snapshot {
                    if ct.new_ring.counter() <= snapshot.ring_id.counter() {
                        return; // stale
                    }
                    // Our info on the token must describe the ring we are
                    // leaving now. One picked up before we installed and
                    // left another ring names an old ring we no longer
                    // recover, and would leave us out of our own
                    // transitional configuration.
                    if ct
                        .info_of(self.pid)
                        .is_some_and(|info| info.old_ring != snapshot.ring_id)
                    {
                        return; // stale
                    }
                }
            }
            StateKind::Recover => return, // second-pass echo, already recovering
            StateKind::Operational => {
                if ct.new_ring.counter() <= self.participant.ring().id().counter() {
                    return; // stale
                }
                // A newer ring is forming that includes us but we missed the
                // gather: fall back to gathering.
                self.shift_to_gather(now, out);
                return;
            }
        }
        // Joins sent before this ring formed now predate it.
        self.max_ring_counter = self.max_ring_counter.max(ct.new_ring.counter());
        let n = ct.members.len() as u32;
        if ct.info_of(self.pid).is_none() {
            ct.infos.push(self.member_info());
        }
        let complete = ct.is_complete();
        let forward = ct.hop < 2 * n - 1;
        if forward {
            let my_idx = ct
                .members
                .iter()
                .position(|&m| m == self.pid)
                .expect("checked membership");
            let next = ct.members[(my_idx + 1) % ct.members.len()];
            let forwarded = CommitToken {
                hop: ct.hop + 1,
                ..ct.clone()
            };
            out.push(Output::SendControl {
                to: Some(next),
                msg: ControlMessage::Commit(forwarded),
            });
        }
        if complete {
            self.enter_recover(now, ct, out);
        } else {
            // First pass: stay in Commit waiting for the full token.
            self.state = StateKind::Commit;
            self.timers.clear();
            self.timers
                .insert(TimerKind::Commit, now + self.cfg.commit_timeout);
        }
    }

    // ----- recover --------------------------------------------------------

    fn enter_recover(&mut self, now: u64, ct: CommitToken, out: &mut Vec<Output>) {
        let ring = Ring::new(ct.new_ring, ct.members.clone()).expect("commit members are distinct");
        let snapshot = self
            .snapshot
            .as_ref()
            .expect("snapshot taken when gathering began");
        let my_old = snapshot.ring_id;
        let peers: Vec<ParticipantId> = ct
            .infos
            .iter()
            .filter(|i| i.old_ring == my_old)
            .map(|i| i.pid)
            .collect();
        let floor = ct
            .infos
            .iter()
            .filter(|i| i.old_ring == my_old)
            .map(|i| i.local_aru)
            .min()
            .unwrap_or(Seq::ZERO);
        let my_holds: Vec<Seq> = snapshot
            .held
            .iter()
            .map(|m| m.seq)
            .filter(|s| *s > floor)
            .collect();
        let mut done = BTreeSet::new();
        let mut needed = BTreeSet::new();
        done.insert(self.pid);
        if let Some(early) = self.early_dones.remove(&ct.new_ring) {
            for (sender, (old_ring, holds)) in early {
                done.insert(sender);
                if old_ring == my_old {
                    needed.extend(holds);
                }
            }
        }
        self.early_dones.clear();
        let mut collected = BTreeMap::new();
        for (sender, old_ring, data) in std::mem::take(&mut self.early_floods) {
            if old_ring == my_old && data.seq > floor && peers.contains(&sender) {
                collected.entry(data.seq).or_insert(data);
            }
        }
        let round = ct
            .infos
            .iter()
            .map(|i| i.round)
            .max()
            .unwrap_or(Round::ZERO);
        self.pending = Some(PendingRecovery {
            new_ring: ring,
            floor,
            collected,
            done,
            peers,
            my_holds,
            needed,
            round,
        });
        self.state = StateKind::Recover;
        self.timers.clear();
        self.timers
            .insert(TimerKind::Recovery, now + self.cfg.recovery_timeout);
        self.timers
            .insert(TimerKind::RecoveryRebroadcast, now + self.cfg.join_interval);
        self.rebroadcast_recovery(out);
        self.check_recovery_complete(now, out);
    }

    fn rebroadcast_recovery(&mut self, out: &mut Vec<Output>) {
        let Some(pending) = &self.pending else { return };
        let Some(snapshot) = &self.snapshot else {
            return;
        };
        // Flood only when a peer might be missing something: everything we
        // hold above the floor (= the minimum aru among transitional
        // members, below which everyone provably holds everything).
        if pending.peers.len() > 1 {
            for m in &snapshot.held {
                if m.seq > pending.floor {
                    out.push(Output::SendControl {
                        to: None,
                        msg: ControlMessage::Recovery {
                            sender: self.pid,
                            old_ring: snapshot.ring_id,
                            msg: m.clone(),
                        },
                    });
                }
            }
        }
        out.push(Output::SendControl {
            to: None,
            msg: ControlMessage::RecoveryDone {
                sender: self.pid,
                new_ring: pending.new_ring.id(),
                old_ring: snapshot.ring_id,
                holds: pending.my_holds.clone(),
            },
        });
    }

    fn check_recovery_complete(&mut self, now: u64, out: &mut Vec<Output>) {
        let Some(pending) = &self.pending else { return };
        let all_done = pending
            .new_ring
            .members()
            .iter()
            .all(|m| pending.done.contains(m));
        if !all_done {
            return;
        }
        // The barrier alone is not enough: a peer's RecoveryDone can arrive
        // while the flood packets it sent are lost. Wait until every seq any
        // same-old-ring peer advertised is actually in hand (the rebroadcast
        // timer refloods until then; the Recovery timeout bails us out if the
        // peer dies).
        if let Some(snapshot) = &self.snapshot {
            let have_all = pending.needed.iter().all(|s| {
                pending.collected.contains_key(s) || snapshot.held.iter().any(|m| m.seq == *s)
            });
            if !have_all {
                return;
            }
        }
        let pending = self.pending.take().expect("checked above");
        let snapshot = self.snapshot.take().expect("snapshot existed to recover");

        // 1. Transitional configuration closes the old ring (skipped for the
        //    cold-start pseudo-ring, which never delivered a regular
        //    configuration).
        if snapshot.ring_id.counter() != 0 {
            out.push(Output::ConfigChange(ConfigChange {
                ring_id: snapshot.ring_id,
                members: pending.peers.clone(),
                transitional: true,
            }));
            // 2. Deliver the old ring's recovered-but-undelivered messages in
            //    sequence order. Every transitional member holds the same set
            //    after the flood, so the orders agree.
            let mut all: BTreeMap<Seq, DataMessage> = pending.collected;
            for m in snapshot.held {
                all.entry(m.seq).or_insert(m);
            }
            for (seq, m) in all {
                if seq >= snapshot.next_delivery {
                    out.push(Output::Deliver(Delivery {
                        seq,
                        sender: m.pid,
                        round: m.round,
                        service: m.service,
                        payload: m.payload,
                    }));
                }
            }
        }

        // 3. The new regular configuration.
        out.push(Output::ConfigChange(ConfigChange {
            ring_id: pending.new_ring.id(),
            members: pending.new_ring.members().to_vec(),
            transitional: false,
        }));
        self.stats.rings_formed += 1;

        // 4. Install and go operational.
        self.participant
            .install_ring(pending.new_ring.clone(), Seq::ZERO);
        self.state = StateKind::Operational;
        self.last_sent_token = None;
        self.timers.clear();
        self.timers
            .insert(TimerKind::TokenLoss, now + self.cfg.token_loss_timeout);
        self.timers
            .insert(TimerKind::Presence, now + self.cfg.presence_interval);

        // 5. The representative starts the ring by processing the initial
        //    token directly, its rounds continuing above every member's.
        if pending.new_ring.members()[0] == self.pid {
            let token = Token {
                round: pending.round,
                ..Token::initial(pending.new_ring.id())
            };
            self.process_token(now, token, out);
        }

        // 6. Replay anything that arrived for the new ring early.
        for stashed in std::mem::take(&mut self.stash) {
            match stashed {
                Stashed::Token(t) => self.process_token(now, t, out),
                Stashed::Data(d) => {
                    let mut actions = Vec::new();
                    self.participant.handle_data(d, &mut actions);
                    self.emit(actions, out);
                }
            }
        }
    }

    fn is_pending_ring(&self, ring_id: RingId) -> bool {
        matches!(self.state, StateKind::Commit | StateKind::Recover)
            && self
                .pending
                .as_ref()
                .is_some_and(|p| p.new_ring.id() == ring_id)
    }

    fn stash_input(&mut self, s: Stashed) {
        if self.stash.len() < MAX_STASH {
            self.stats.stashed += 1;
            self.stash.push(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Daemon `pid` of a deployment whose address book holds 0 and 1
    /// besides it, none of which are running unless a test drives them.
    fn daemon(pid: u16) -> MembershipDaemon {
        MembershipDaemon::new(
            ParticipantId::new(pid),
            [0, 1].map(ParticipantId::new),
            ProtocolConfig::default(),
            MembershipConfig::for_simulation(),
        )
    }

    /// Drives a daemon whose peers never answer through gather-settle and
    /// consensus timeout so it forms its singleton ring; returns the
    /// outputs of the forming step and the time it happened.
    fn form_singleton(d: &mut MembershipDaemon) -> (Vec<Output>, u64) {
        let cfg = MembershipConfig::for_simulation();
        let mut out = Vec::new();
        d.handle(cfg.gather_settle, Input::Timer(TimerKind::Settle), &mut out);
        out.clear();
        d.handle(
            cfg.consensus_timeout,
            Input::Timer(TimerKind::Consensus),
            &mut out,
        );
        (out, cfg.consensus_timeout)
    }

    /// Bare daemons of an address book `0..book` on a lossless network
    /// with the virtual cluster's 10 µs latency; a participant of the book
    /// that is not running never sends or receives anything.
    struct Net {
        now: u64,
        nodes: BTreeMap<ParticipantId, MembershipDaemon>,
        in_flight: BTreeMap<(u64, u64), (ParticipantId, Input)>,
        sent: u64,
    }

    impl Net {
        const LATENCY: u64 = 10_000;

        fn new(book: u16, running: impl IntoIterator<Item = u16>) -> Net {
            let mut net = Net {
                now: 0,
                nodes: BTreeMap::new(),
                in_flight: BTreeMap::new(),
                sent: 0,
            };
            for i in running {
                let pid = ParticipantId::new(i);
                let mut d = MembershipDaemon::new(
                    pid,
                    (0..book).map(ParticipantId::new),
                    ProtocolConfig::default(),
                    MembershipConfig::for_simulation(),
                );
                let mut out = Vec::new();
                d.start(0, &mut out);
                net.nodes.insert(pid, d);
                net.route(pid, out);
            }
            net
        }

        /// Unicasts reach their destination, broadcasts everyone else.
        fn route(&mut self, from: ParticipantId, out: Vec<Output>) {
            let others: Vec<ParticipantId> =
                self.nodes.keys().copied().filter(|&p| p != from).collect();
            for o in out {
                let (to, input) = match o {
                    Output::SendControl { to: Some(to), msg } => (vec![to], Input::Control(msg)),
                    Output::SendControl { to: None, msg } => (others.clone(), Input::Control(msg)),
                    Output::SendToken { to, token } => (vec![to], Input::Token(token)),
                    Output::Multicast(m) => (others.clone(), Input::Data(m)),
                    Output::Deliver(_) | Output::ConfigChange(_) => continue,
                };
                for to in to.into_iter().filter(|p| self.nodes.contains_key(p)) {
                    self.sent += 1;
                    self.in_flight
                        .insert((self.now + Net::LATENCY, self.sent), (to, input.clone()));
                }
            }
        }

        /// Processes messages and timers due up to `until`.
        fn run_until(&mut self, until: u64) {
            loop {
                let message = self.in_flight.keys().next().map(|&(at, _)| at);
                let timer = self
                    .nodes
                    .iter()
                    .filter_map(|(&p, d)| d.next_timer().map(|(at, kind)| (at, p, kind)))
                    .min();
                let Some(at) = message.into_iter().chain(timer.map(|t| t.0)).min() else {
                    break;
                };
                if at > until {
                    break;
                }
                self.now = at;
                let (to, input) = match timer {
                    Some((_, p, kind)) if message != Some(at) => (p, Input::Timer(kind)),
                    _ => self.in_flight.pop_first().expect("peeked").1,
                };
                let mut out = Vec::new();
                self.nodes
                    .get_mut(&to)
                    .expect("routed to a running node")
                    .handle(at, input, &mut out);
                self.route(to, out);
            }
            self.now = until;
        }

        fn node(&self, i: u16) -> &MembershipDaemon {
            &self.nodes[&ParticipantId::new(i)]
        }
    }

    #[test]
    fn starts_in_gather_and_broadcasts_join() {
        let mut d = daemon(0);
        let mut out = Vec::new();
        d.start(0, &mut out);
        assert_eq!(d.state(), StateKind::Gather);
        assert!(matches!(
            out[0],
            Output::SendControl {
                to: None,
                msg: ControlMessage::Join { .. }
            }
        ));
        assert!(d.next_timer().is_some());
    }

    #[test]
    #[should_panic(expected = "call start() before handle()")]
    fn handle_before_start_panics() {
        let mut d = daemon(0);
        let mut out = Vec::new();
        d.handle(0, Input::Timer(TimerKind::Consensus), &mut out);
    }

    #[test]
    fn lone_node_forms_singleton_after_timeout() {
        let mut d = daemon(3);
        let mut out = Vec::new();
        d.start(0, &mut out);
        let (out, _) = form_singleton(&mut d);
        assert_eq!(d.state(), StateKind::Operational);
        let configs: Vec<&ConfigChange> = out
            .iter()
            .filter_map(|o| match o {
                Output::ConfigChange(c) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(
            configs.len(),
            1,
            "cold start delivers only the regular config"
        );
        assert!(!configs[0].transitional);
        assert_eq!(configs[0].members, vec![ParticipantId::new(3)]);
        // The representative started the token around its singleton ring.
        assert!(out
            .iter()
            .any(|o| matches!(o, Output::SendToken { to, .. } if *to == ParticipantId::new(3))));
    }

    #[test]
    fn lone_node_does_not_form_instantly() {
        let mut d = daemon(0);
        let mut out = Vec::new();
        d.start(0, &mut out);
        // Before the consensus timeout the daemon must keep gathering.
        assert_eq!(d.state(), StateKind::Gather);
    }

    #[test]
    fn stale_timer_is_ignored() {
        let mut d = daemon(0);
        let mut out = Vec::new();
        d.start(0, &mut out);
        out.clear();
        // TokenLoss is not armed in Gather; firing it must do nothing.
        d.handle(10, Input::Timer(TimerKind::TokenLoss), &mut out);
        assert!(out.is_empty());
        assert_eq!(d.state(), StateKind::Gather);
    }

    #[test]
    fn two_daemons_reach_consensus_via_joins() {
        let mut a = daemon(0);
        let mut b = daemon(1);
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        a.start(0, &mut out_a);
        b.start(0, &mut out_b);

        // Exchange joins until both sides go quiet.
        for _ in 0..6 {
            let from_a: Vec<_> = std::mem::take(&mut out_a);
            for o in from_a {
                if let Output::SendControl { msg, .. } = o {
                    b.handle(1, Input::Control(msg), &mut out_b);
                }
            }
            let from_b: Vec<_> = std::mem::take(&mut out_b);
            for o in from_b {
                if let Output::SendControl { to, msg } = o {
                    if to.is_none() || to == Some(ParticipantId::new(0)) {
                        a.handle(1, Input::Control(msg), &mut out_a);
                    }
                }
            }
            if out_a.is_empty() && out_b.is_empty() {
                break;
            }
        }
        // Their address book is {0, 1}, and both agree: consensus needs
        // no settle period.
        assert_ne!(a.state(), StateKind::Gather);
        assert_ne!(b.state(), StateKind::Gather);
    }

    #[test]
    fn a_member_reports_the_counter_of_the_ring_it_is_on() {
        // The member that did not form the ring heard only the counter
        // the joins carried (zero at a cold start), yet its stable-storage
        // value must cover the ring it is on: a restart hands the value
        // back, and a runtime tells a restart by it being nonzero.
        let mut net = Net::new(2, 0..2);
        net.run_until(MembershipConfig::for_simulation().consensus_timeout);
        for d in net.nodes.values() {
            assert_eq!(d.state(), StateKind::Operational);
            let ring = d.ring().id().counter();
            assert!(ring > 0);
            assert!(
                d.max_ring_counter() >= ring,
                "{} on ring {ring}",
                d.max_ring_counter()
            );
        }
    }

    #[test]
    fn join_from_unknown_process_interrupts_operational() {
        let mut d = daemon(0);
        let mut out = Vec::new();
        d.start(0, &mut out);
        let cfg = MembershipConfig::for_simulation();
        let (_, t0) = form_singleton(&mut d);
        assert_eq!(d.state(), StateKind::Operational);
        let _ = t0;
        out.clear();
        d.handle(
            cfg.consensus_timeout + 1,
            Input::Control(ControlMessage::Join {
                sender: ParticipantId::new(9),
                proc_set: [ParticipantId::new(9)].into_iter().collect(),
                fail_set: BTreeSet::new(),
                ring_counter: 0,
                epoch: 1,
            }),
            &mut out,
        );
        assert_eq!(d.state(), StateKind::Gather);
        assert!(d.stats().gathers >= 2);
    }

    #[test]
    fn announce_leave_broadcasts_self_failing_join() {
        let mut d = daemon(0);
        let mut out = Vec::new();
        d.start(0, &mut out);
        let (_, _) = form_singleton(&mut d);
        assert_eq!(d.state(), StateKind::Operational);
        out.clear();
        d.announce_leave(&mut out);
        let me = ParticipantId::new(0);
        assert!(
            out.iter().any(|o| matches!(
                o,
                Output::SendControl {
                    to: None,
                    msg: ControlMessage::Join { sender, fail_set, .. }
                } if *sender == me && fail_set.contains(&me)
            )),
            "leave must broadcast a join listing ourselves as failed"
        );
    }

    #[test]
    fn announce_leave_is_noop_while_gathering() {
        let mut d = daemon(0);
        let mut out = Vec::new();
        d.start(0, &mut out);
        assert_eq!(d.state(), StateKind::Gather);
        out.clear();
        d.announce_leave(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn peers_fail_a_clean_leaver_without_token_loss() {
        // A leaver's self-failing join makes an operational peer regather
        // and put the leaver in its fail set immediately (reciprocity),
        // without waiting for the token-loss timer.
        let mut d = daemon(0);
        let mut out = Vec::new();
        d.start(0, &mut out);
        let (_, t0) = form_singleton(&mut d);
        assert_eq!(d.state(), StateKind::Operational);
        out.clear();
        let leaver = ParticipantId::new(7);
        d.handle(
            t0 + 1,
            Input::Control(ControlMessage::Join {
                sender: leaver,
                proc_set: [ParticipantId::new(0), leaver].into_iter().collect(),
                fail_set: [leaver].into_iter().collect(),
                ring_counter: 0,
                epoch: 1,
            }),
            &mut out,
        );
        assert_eq!(d.state(), StateKind::Gather);
        let (_, fail, _) = d.gather_view();
        assert!(fail.contains(&leaver), "reciprocity fails the leaver");
    }

    #[test]
    fn token_loss_triggers_gather() {
        let mut d = daemon(0);
        let mut out = Vec::new();
        d.start(0, &mut out);
        let cfg = MembershipConfig::for_simulation();
        let (_, t0) = form_singleton(&mut d);
        assert_eq!(d.state(), StateKind::Operational);
        out.clear();
        // Do not feed the token back; let the loss timer fire.
        d.handle(
            t0 + cfg.token_loss_timeout,
            Input::Timer(TimerKind::TokenLoss),
            &mut out,
        );
        assert_eq!(d.state(), StateKind::Gather);
    }

    #[test]
    fn token_retransmit_resends_last_token() {
        let mut d = daemon(0);
        let mut out = Vec::new();
        d.start(0, &mut out);
        let cfg = MembershipConfig::for_simulation();
        let (_, t0) = form_singleton(&mut d);
        out.clear();
        d.handle(
            t0 + cfg.token_retransmit_timeout,
            Input::Timer(TimerKind::TokenRetransmit),
            &mut out,
        );
        assert!(
            out.iter().any(|o| matches!(o, Output::SendToken { .. })),
            "token must be retransmitted"
        );
        assert_eq!(d.stats().tokens_retransmitted, 1);
    }

    #[test]
    fn submissions_survive_membership_changes() {
        let mut d = daemon(0);
        let mut out = Vec::new();
        d.start(0, &mut out);
        d.submit(Bytes::from_static(b"queued"), Service::Agreed)
            .unwrap();
        let cfg = MembershipConfig::for_simulation();
        let (mut out, _) = form_singleton(&mut d);
        assert_eq!(d.state(), StateKind::Operational);
        // Token circulates: feed the emitted token back until the queued
        // message is delivered (it may already be in this output batch,
        // since the representative processes the initial token directly).
        for _ in 0..4 {
            if out
                .iter()
                .any(|o| matches!(o, Output::Deliver(del) if del.payload == Bytes::from_static(b"queued")))
            {
                return;
            }
            let token = out
                .iter()
                .find_map(|o| match o {
                    Output::SendToken { token, .. } => Some(token.clone()),
                    _ => None,
                })
                .expect("token in flight");
            out.clear();
            d.handle(cfg.consensus_timeout + 10, Input::Token(token), &mut out);
        }
        panic!("queued message was never delivered");
    }

    #[test]
    fn commit_token_from_gather_is_joined() {
        // A commit token naming us forces us along even if our own gather
        // has not converged.
        let mut d = daemon(1);
        let mut out = Vec::new();
        d.start(0, &mut out);
        out.clear();
        let ct = CommitToken {
            new_ring: RingId::new(ParticipantId::new(0), 8),
            members: vec![ParticipantId::new(0), ParticipantId::new(1)],
            infos: vec![MemberInfo {
                pid: ParticipantId::new(0),
                old_ring: RingId::new(ParticipantId::new(0), 0),
                local_aru: Seq::ZERO,
                highest_held: Seq::ZERO,
                round: Round::ZERO,
            }],
            hop: 1,
        };
        d.handle(5, Input::Control(ControlMessage::Commit(ct)), &mut out);
        // We appended our info (completing it) and entered Recover.
        assert_eq!(d.state(), StateKind::Recover);
        let forwarded = out
            .iter()
            .find_map(|o| match o {
                Output::SendControl {
                    to: Some(to),
                    msg: ControlMessage::Commit(ct),
                } => Some((*to, ct.clone())),
                _ => None,
            })
            .expect("commit token forwarded");
        assert_eq!(forwarded.0, ParticipantId::new(0));
        assert!(forwarded.1.is_complete());
        // And broadcast our recovery barrier.
        assert!(out.iter().any(|o| matches!(
            o,
            Output::SendControl {
                msg: ControlMessage::RecoveryDone { .. },
                ..
            }
        )));
    }

    #[test]
    fn commit_token_excluding_us_is_ignored() {
        let mut d = daemon(5);
        let mut out = Vec::new();
        d.start(0, &mut out);
        out.clear();
        let ct = CommitToken {
            new_ring: RingId::new(ParticipantId::new(0), 8),
            members: vec![ParticipantId::new(0), ParticipantId::new(1)],
            infos: vec![],
            hop: 1,
        };
        d.handle(5, Input::Control(ControlMessage::Commit(ct)), &mut out);
        assert_eq!(d.state(), StateKind::Gather);
        assert!(out.is_empty());
    }

    #[test]
    fn recovery_done_barrier_completes_two_member_ring() {
        let mut d = daemon(1);
        let mut out = Vec::new();
        d.start(0, &mut out);
        out.clear();
        let ct = CommitToken {
            new_ring: RingId::new(ParticipantId::new(0), 8),
            members: vec![ParticipantId::new(0), ParticipantId::new(1)],
            infos: vec![MemberInfo {
                pid: ParticipantId::new(0),
                old_ring: RingId::new(ParticipantId::new(0), 0),
                local_aru: Seq::ZERO,
                highest_held: Seq::ZERO,
                round: Round::ZERO,
            }],
            hop: 1,
        };
        d.handle(5, Input::Control(ControlMessage::Commit(ct)), &mut out);
        assert_eq!(d.state(), StateKind::Recover);
        out.clear();
        d.handle(
            6,
            Input::Control(ControlMessage::RecoveryDone {
                sender: ParticipantId::new(0),
                new_ring: RingId::new(ParticipantId::new(0), 8),
                old_ring: RingId::new(ParticipantId::new(0), 0),
                holds: Vec::new(),
            }),
            &mut out,
        );
        assert_eq!(d.state(), StateKind::Operational);
        let config = out
            .iter()
            .find_map(|o| match o {
                Output::ConfigChange(c) => Some(c.clone()),
                _ => None,
            })
            .expect("regular config delivered");
        assert!(!config.transitional);
        assert_eq!(
            config.members,
            vec![ParticipantId::new(0), ParticipantId::new(1)]
        );
        assert_eq!(d.ring().len(), 2);
    }

    #[test]
    fn new_ring_rounds_start_above_every_members_round() {
        // The representative's clock (a few ns) is far behind the round a
        // member reported: the new ring's first rotation still starts
        // above it, so rounds never fall across configurations.
        let mut d = daemon(0);
        let mut out = Vec::new();
        d.start(0, &mut out);
        out.clear();
        let new_ring = RingId::new(ParticipantId::new(0), 8);
        let ct = CommitToken {
            new_ring,
            members: vec![ParticipantId::new(0), ParticipantId::new(1)],
            infos: vec![MemberInfo {
                pid: ParticipantId::new(1),
                old_ring: RingId::new(ParticipantId::new(1), 0),
                local_aru: Seq::ZERO,
                highest_held: Seq::ZERO,
                round: Round::new(5_000_000),
            }],
            hop: 1,
        };
        d.handle(5, Input::Control(ControlMessage::Commit(ct)), &mut out);
        assert_eq!(d.state(), StateKind::Recover);
        out.clear();
        let done = ControlMessage::RecoveryDone {
            sender: ParticipantId::new(1),
            new_ring,
            old_ring: RingId::new(ParticipantId::new(1), 0),
            holds: Vec::new(),
        };
        d.handle(6, Input::Control(done), &mut out);
        assert_eq!(d.state(), StateKind::Operational);
        let round = out
            .iter()
            .find_map(|o| match o {
                Output::SendToken { token, .. } => Some(token.round),
                _ => None,
            })
            .expect("the representative starts the new ring");
        assert_eq!(round, Round::new(5_000_001));
    }

    #[test]
    fn floods_from_outside_the_transitional_configuration_are_not_delivered() {
        // Daemon 1 was in ring (0, 4) = [0, 1, 2]; ring (0, 8) = [0, 1]
        // forms without 2, which still floods its old-ring messages from
        // a failed attempt. Only 0 and 1 advertise holds, so 1 must not
        // deliver 2's flood: 0 need not have it.
        let pid = ParticipantId::new;
        let mut d = daemon(1);
        let mut out = Vec::new();
        d.start(0, &mut out);
        let old = RingId::new(pid(0), 4);
        let cold = |p: u16| MemberInfo {
            pid: pid(p),
            old_ring: RingId::new(pid(p), 0),
            local_aru: Seq::ZERO,
            highest_held: Seq::ZERO,
            round: Round::ZERO,
        };
        let ct = CommitToken {
            new_ring: old,
            members: vec![pid(0), pid(1), pid(2)],
            infos: vec![cold(0), cold(2)],
            hop: 1,
        };
        d.handle(5, Input::Control(ControlMessage::Commit(ct)), &mut out);
        for p in [0, 2] {
            let done = ControlMessage::RecoveryDone {
                sender: pid(p),
                new_ring: old,
                old_ring: RingId::new(pid(p), 0),
                holds: Vec::new(),
            };
            d.handle(6, Input::Control(done), &mut out);
        }
        assert_eq!(d.state(), StateKind::Operational);
        // A join restarts formation; 2's flood arrives while gathering.
        d.handle(
            7,
            Input::Control(ControlMessage::Join {
                sender: pid(0),
                proc_set: [pid(0), pid(1)].into_iter().collect(),
                fail_set: [pid(2)].into_iter().collect(),
                ring_counter: 4,
                epoch: 9,
            }),
            &mut out,
        );
        assert_eq!(d.state(), StateKind::Gather);
        let flood = |seq: u64| ControlMessage::Recovery {
            sender: pid(2),
            old_ring: old,
            msg: DataMessage {
                ring_id: old,
                seq: Seq::new(seq),
                pid: pid(2),
                round: Round::new(3),
                service: Service::Agreed,
                post_token: false,
                retransmission: false,
                payload: Bytes::from_static(b"only at 2"),
            },
        };
        d.handle(8, Input::Control(flood(1)), &mut out);
        let new_ring = RingId::new(pid(0), 8);
        let info = |p: u16| MemberInfo {
            pid: pid(p),
            old_ring: old,
            local_aru: Seq::ZERO,
            highest_held: Seq::ZERO,
            round: Round::ZERO,
        };
        let ct = CommitToken {
            new_ring,
            members: vec![pid(0), pid(1)],
            infos: vec![info(0)],
            hop: 1,
        };
        d.handle(9, Input::Control(ControlMessage::Commit(ct)), &mut out);
        assert_eq!(d.state(), StateKind::Recover);
        d.handle(10, Input::Control(flood(2)), &mut out);
        out.clear();
        let done = ControlMessage::RecoveryDone {
            sender: pid(0),
            new_ring,
            old_ring: old,
            holds: Vec::new(),
        };
        d.handle(11, Input::Control(done), &mut out);
        assert_eq!(d.state(), StateKind::Operational);
        assert!(
            !out.iter().any(|o| matches!(o, Output::Deliver(_))),
            "a non-member's flood was delivered in the transitional configuration"
        );
    }

    #[test]
    fn a_commit_token_carrying_our_info_from_an_older_ring_is_ignored() {
        // Daemon 1 adds its cold-start info to the first pass of ring
        // (0, 12) = [0, 1, 2], then installs ring (0, 8) = [0, 1] and
        // leaves it. The second pass of (0, 12) still names its
        // cold-start ring: recovering with it would give 1 a
        // transitional configuration without itself.
        let pid = ParticipantId::new;
        let mut d = daemon(1);
        let mut out = Vec::new();
        d.start(0, &mut out);
        let info = |p: u16, ring: RingId| MemberInfo {
            pid: pid(p),
            old_ring: ring,
            local_aru: Seq::ZERO,
            highest_held: Seq::ZERO,
            round: Round::ZERO,
        };
        let cold = |p: u16| info(p, RingId::new(pid(p), 0));
        let later = RingId::new(pid(0), 12);
        let first_pass = CommitToken {
            new_ring: later,
            members: vec![pid(0), pid(1), pid(2)],
            infos: vec![cold(0)],
            hop: 1,
        };
        d.handle(
            5,
            Input::Control(ControlMessage::Commit(first_pass)),
            &mut out,
        );
        assert_eq!(d.state(), StateKind::Commit);
        let ring = RingId::new(pid(0), 8);
        let ct = CommitToken {
            new_ring: ring,
            members: vec![pid(0), pid(1)],
            infos: vec![cold(0)],
            hop: 1,
        };
        d.handle(6, Input::Control(ControlMessage::Commit(ct)), &mut out);
        let done = ControlMessage::RecoveryDone {
            sender: pid(0),
            new_ring: ring,
            old_ring: RingId::new(pid(0), 0),
            holds: Vec::new(),
        };
        d.handle(7, Input::Control(done), &mut out);
        assert_eq!(d.state(), StateKind::Operational);
        d.handle(
            8,
            Input::Control(ControlMessage::Join {
                sender: pid(0),
                proc_set: [pid(0), pid(1), pid(2)].into_iter().collect(),
                fail_set: BTreeSet::new(),
                ring_counter: 8,
                epoch: 3,
            }),
            &mut out,
        );
        assert_eq!(d.state(), StateKind::Gather);
        let second_pass = CommitToken {
            new_ring: later,
            members: vec![pid(0), pid(1), pid(2)],
            infos: vec![cold(0), cold(1), cold(2)],
            hop: 3,
        };
        d.handle(
            9,
            Input::Control(ControlMessage::Commit(second_pass)),
            &mut out,
        );
        assert_eq!(d.state(), StateKind::Gather, "the stale token is ignored");
    }

    // ----- token hold -------------------------------------------------

    const H: u64 = 500_000; // for_simulation's retransmit timeout / 2

    /// Daemon 0 leading a freshly formed ring [0, 1] at t = 6 ns, and the
    /// first token it sent member 1.
    fn leader_pair() -> (MembershipDaemon, Token) {
        let mut d = daemon(0);
        let mut out = Vec::new();
        d.start(0, &mut out);
        let new_ring = RingId::new(ParticipantId::new(0), 8);
        let ct = CommitToken {
            new_ring,
            members: vec![ParticipantId::new(0), ParticipantId::new(1)],
            infos: vec![MemberInfo {
                pid: ParticipantId::new(1),
                old_ring: RingId::new(ParticipantId::new(1), 0),
                local_aru: Seq::ZERO,
                highest_held: Seq::ZERO,
                round: Round::ZERO,
            }],
            hop: 1,
        };
        d.handle(5, Input::Control(ControlMessage::Commit(ct)), &mut out);
        out.clear();
        let done = ControlMessage::RecoveryDone {
            sender: ParticipantId::new(1),
            new_ring,
            old_ring: RingId::new(ParticipantId::new(1), 0),
            holds: Vec::new(),
        };
        d.handle(6, Input::Control(done), &mut out);
        assert_eq!(d.state(), StateKind::Operational);
        let token = sent_token(&out).expect("the leader starts the ring");
        (d, token)
    }

    fn sent_token(out: &[Output]) -> Option<Token> {
        out.iter().find_map(|o| match o {
            Output::SendToken { token, .. } => Some(token.clone()),
            _ => None,
        })
    }

    /// Member 1's visit when it adds nothing and misses nothing.
    fn echo(t: &Token) -> Token {
        Token {
            token_id: t.token_id + 1,
            ..t.clone()
        }
    }

    /// Feeds one token arrival; returns the token sent on, if any.
    fn arrive(d: &mut MembershipDaemon, now: u64, token: Token) -> Option<Token> {
        let mut out = Vec::new();
        d.handle(now, Input::Token(token), &mut out);
        sent_token(&out)
    }

    /// Turns the pair until the leader holds; returns the held token's
    /// successor-to-be and the time.
    fn rest_pair() -> (MembershipDaemon, Token, u64) {
        let (mut d, mut sent) = leader_pair();
        let mut now = 10;
        loop {
            now += 1_000;
            let back = echo(&sent);
            match arrive(&mut d, now, back.clone()) {
                Some(next) => sent = next,
                None => return (d, back, now),
            }
        }
    }

    /// Feeds `n` arrivals member 1 adds nothing to, asserting the leader
    /// turns the token at each; returns the last token sent and the time.
    fn quiet_arrivals(
        d: &mut MembershipDaemon,
        mut sent: Token,
        mut now: u64,
        n: u32,
    ) -> (Token, u64) {
        for i in 0..n {
            now += 1_000;
            sent = arrive(d, now, echo(&sent))
                .unwrap_or_else(|| panic!("held at quiet arrival {} of {n}", i + 1));
        }
        (sent, now)
    }

    #[test]
    fn hold_needs_q_quiet_arrivals_with_aru_equal_seq() {
        // After formation: the first arrival has nothing to compare with,
        // Q - 1 quiet ones turn, the Q-th is held.
        let (mut d, sent) = leader_pair();
        let (sent, now) = quiet_arrivals(&mut d, sent, 10, QUIET_ROTATIONS);
        assert!(arrive(&mut d, now + 1_000, echo(&sent)).is_none());
        assert!(d.rest.held.is_some());
        assert_eq!(d.stats().token_holds, 1);
        assert!(d
            .next_timer()
            .is_some_and(|(at, kind)| kind == TimerKind::TokenHold && at == now + 1_000 + H));

        // A message, then an arrival whose aru lags its seq (member 1
        // missed the message): not quiet, so the streak starts over.
        let (mut d, sent) = leader_pair();
        d.submit(Bytes::from_static(b"m"), Service::Agreed).unwrap();
        let (sent, now) = quiet_arrivals(&mut d, sent, 10, 2);
        assert_eq!(sent.seq, Seq::new(1));
        let lagging = Token {
            aru: Seq::ZERO,
            aru_id: Some(ParticipantId::new(1)),
            ..echo(&sent)
        };
        let sent = arrive(&mut d, now + 1_000, lagging).expect("a lagging ring turns");
        assert_ne!(sent.aru, sent.seq);
        let caught_up = Token {
            aru: sent.seq,
            aru_id: None,
            ..echo(&sent)
        };
        let sent = arrive(&mut d, now + 2_000, caught_up).expect("streak restarted");
        let (sent, now) = quiet_arrivals(&mut d, sent, now + 2_000, QUIET_ROTATIONS - 2);
        assert!(arrive(&mut d, now + 1_000, echo(&sent)).is_none());
        assert_eq!(d.participant().buffered(), 0, "only an empty buffer rests");
    }

    #[test]
    fn no_hold_with_rtr_queued_sends_or_a_pending_wake() {
        let (mut d, _, now) = rest_pair();
        let mut out = Vec::new();
        d.handle(now + H, Input::Timer(TimerKind::TokenHold), &mut out);
        let sent = sent_token(&out).expect("the deadline releases the token");
        // A retransmission request is not quiet, however long the streak.
        let asking = Token {
            rtr: vec![Seq::new(1)],
            ..echo(&sent)
        };
        let sent = arrive(&mut d, now + H + 1_000, asking).expect("rtr turns the ring");
        let cleared = Token {
            rtr: Vec::new(),
            ..echo(&sent)
        };
        let sent = arrive(&mut d, now + H + 2_000, cleared).expect("streak restarted");
        let (sent, now) = quiet_arrivals(&mut d, sent, now + H + 2_000, QUIET_ROTATIONS - 2);
        // Quiet long enough, but a queued send keeps the ring turning.
        d.submit(Bytes::from_static(b"m"), Service::Agreed).unwrap();
        let sent = arrive(&mut d, now + 1_000, echo(&sent)).expect("queued sends turn the ring");
        assert_eq!(d.participant().send_queue_len(), 0);
        let (sent, now) = quiet_arrivals(&mut d, sent, now + 1_000, QUIET_ROTATIONS);
        // A wake that raced the token skips exactly one hold.
        let wake = ControlMessage::Wake {
            sender: ParticipantId::new(1),
            ring_id: sent.ring_id,
            round: sent.round,
        };
        out.clear();
        d.handle(now, Input::Control(wake), &mut out);
        assert!(out.is_empty() && d.rest.held.is_none());
        let sent =
            arrive(&mut d, now + 1_000, echo(&sent)).expect("the pending wake skips the hold");
        assert!(
            arrive(&mut d, now + 2_000, echo(&sent)).is_none(),
            "the next one holds"
        );
    }

    #[test]
    fn release_on_submit_wake_or_deadline_stamps_the_rotation_at_release() {
        // A local submit.
        let (mut d, held, now) = rest_pair();
        d.submit(Bytes::from_static(b"m"), Service::Agreed).unwrap();
        let mut out = Vec::new();
        let at = now + 123_000_000;
        d.wake_step(at, &mut out);
        let sent = sent_token(&out).expect("a submit releases the token");
        assert_eq!(sent.round, Round::new(at / 1_000), "stamped at release");
        assert!(sent.round > held.round.next());
        assert_eq!(
            sent.seq,
            held.seq.advance(1),
            "the submit rides this rotation"
        );
        assert!(d.rest.held.is_none());

        // A member's wake.
        let (mut d, _, now) = rest_pair();
        let round = d.last_sent_token.as_ref().unwrap().round;
        let stale = ControlMessage::Wake {
            sender: ParticipantId::new(1),
            ring_id: RingId::new(ParticipantId::new(0), 8),
            round: Round::new(round.as_u64() - 1),
        };
        out.clear();
        d.handle(now + 5, Input::Control(stale), &mut out);
        assert!(
            d.rest.held.is_some(),
            "a wake a later rotation answered is ignored"
        );
        let wake = ControlMessage::Wake {
            sender: ParticipantId::new(1),
            ring_id: RingId::new(ParticipantId::new(0), 8),
            round,
        };
        d.handle(now + 7_000_000, Input::Control(wake), &mut out);
        let sent = sent_token(&out).expect("a wake releases the token");
        assert_eq!(sent.round, Round::new((now + 7_000_000) / 1_000));

        // The deadline.
        let (mut d, _, now) = rest_pair();
        out.clear();
        d.handle(now + H - 1, Input::Timer(TimerKind::TokenHold), &mut out);
        assert!(
            out.is_empty() && d.rest.held.is_some(),
            "not before the deadline"
        );
        d.handle(now + H, Input::Timer(TimerKind::TokenHold), &mut out);
        let sent = sent_token(&out).expect("the deadline releases the token");
        assert_eq!(sent.round, Round::new((now + H) / 1_000));
    }

    #[test]
    fn a_retransmitted_copy_of_the_held_token_is_dropped() {
        let (mut d, held, now) = rest_pair();
        assert!(
            d.next_timer()
                .is_some_and(|(_, k)| k != TimerKind::TokenRetransmit)
                && !d.timers.contains_key(&TimerKind::TokenRetransmit),
            "a held token needs no retransmission"
        );
        assert!(arrive(&mut d, now + 10, held.clone()).is_none());
        assert!(d.rest.held.is_some());
        let mut out = Vec::new();
        d.handle(now + H, Input::Timer(TimerKind::TokenHold), &mut out);
        let sent = sent_token(&out).expect("released once");
        assert_eq!(sent.token_id, held.token_id + 1);
    }

    #[test]
    fn gather_drops_the_hold() {
        let (mut d, _, now) = rest_pair();
        let mut out = Vec::new();
        d.handle(
            now + 1,
            Input::Control(ControlMessage::Join {
                sender: ParticipantId::new(9),
                proc_set: [ParticipantId::new(9)].into_iter().collect(),
                fail_set: BTreeSet::new(),
                ring_counter: 0,
                epoch: 1,
            }),
            &mut out,
        );
        assert_eq!(d.state(), StateKind::Gather);
        assert!(d.rest.held.is_none());
        assert!(!d.timers.contains_key(&TimerKind::TokenHold));
    }

    #[test]
    fn a_member_sends_one_wake_per_visit_once_the_ring_may_rest() {
        // Daemon 1, the member of ring [0, 1].
        let mut d = daemon(1);
        let mut out = Vec::new();
        d.start(0, &mut out);
        let ring_id = RingId::new(ParticipantId::new(0), 8);
        let ct = CommitToken {
            new_ring: ring_id,
            members: vec![ParticipantId::new(0), ParticipantId::new(1)],
            infos: vec![MemberInfo {
                pid: ParticipantId::new(0),
                old_ring: RingId::new(ParticipantId::new(0), 0),
                local_aru: Seq::ZERO,
                highest_held: Seq::ZERO,
                round: Round::ZERO,
            }],
            hop: 1,
        };
        d.handle(5, Input::Control(ControlMessage::Commit(ct)), &mut out);
        let done = ControlMessage::RecoveryDone {
            sender: ParticipantId::new(0),
            new_ring: ring_id,
            old_ring: RingId::new(ParticipantId::new(0), 0),
            holds: Vec::new(),
        };
        d.handle(6, Input::Control(done), &mut out);
        assert_eq!(d.state(), StateKind::Operational);
        let wakes = |out: &[Output]| {
            out.iter()
                .filter(|o| {
                    matches!(o, Output::SendControl {
                        to: Some(to),
                        msg: ControlMessage::Wake { .. },
                    } if *to == ParticipantId::new(0))
                })
                .count()
        };
        let visit = |d: &mut MembershipDaemon, k: u64| {
            let token = Token {
                token_id: 2 * k + 1,
                round: Round::new(k + 1),
                ..Token::initial(ring_id)
            };
            arrive(d, 1_000 * (k + 1), token).expect("a member passes the token on");
        };
        // The first visit has nothing to compare with; then Q - 2 quiet
        // visits are not enough for the ring to rest.
        for k in 0..u64::from(QUIET_ROTATIONS) - 1 {
            visit(&mut d, k);
        }
        out.clear();
        d.turn(100_000, &mut out);
        assert_eq!(wakes(&out), 0, "the ring cannot be resting yet");
        visit(&mut d, u64::from(QUIET_ROTATIONS) - 1);
        d.turn(100_000, &mut out);
        d.turn(100_001, &mut out);
        d.submit(Bytes::from_static(b"m"), Service::Agreed).unwrap();
        d.wake_step(100_002, &mut out);
        assert_eq!(wakes(&out), 1, "one wake per visit");
        assert_eq!(d.stats().wakes_sent, 1);
        visit(&mut d, u64::from(QUIET_ROTATIONS));
        out.clear();
        d.turn(200_000, &mut out);
        assert_eq!(wakes(&out), 0, "the submit went out: not quiet");
    }

    /// Runs an idle cluster until its leader holds the token: an idle ring
    /// rests, and releases its token once per H, so within 2 H.
    fn run_until_the_leader_holds(c: &mut crate::testing::Cluster) {
        let deadline = c.now() + 2 * H;
        while c.node(0).rest.held.is_none() {
            assert!(c.now() < deadline, "an idle ring rests within 2 H");
            c.run_for(1_000);
        }
    }

    #[test]
    fn a_resting_ring_turns_for_a_submit_at_any_member() {
        use crate::testing::Cluster;
        let mut c = Cluster::new(
            3,
            ProtocolConfig::default(),
            MembershipConfig::for_simulation(),
        );
        c.run_for(30_000_000);
        assert!(c.all_operational());
        run_until_the_leader_holds(&mut c);
        let holds = c.node(0).stats().token_holds;
        // One rotation per hold deadline while idle.
        c.run_for(10 * H);
        let idle_holds = c.node(0).stats().token_holds - holds;
        assert!((9..=11).contains(&idle_holds), "{idle_holds} holds in 10 H");
        // A wake turns the ring within a few hops, far below H.
        c.submit(2, Bytes::from_static(b"woken"), Service::Agreed);
        c.run_for(H / 5);
        for i in 0..3 {
            assert!(
                c.deliveries(i).iter().any(|d| d.payload == "woken"),
                "node {i}"
            );
        }
        assert!(c.node(2).stats().wakes_sent >= 1);
    }

    #[test]
    fn a_safe_message_is_delivered_everywhere_before_the_leader_holds() {
        use crate::testing::Cluster;
        let mut c = Cluster::new(
            3,
            ProtocolConfig::default(),
            MembershipConfig::for_simulation(),
        );
        c.run_for(30_000_000);
        c.submit(1, Bytes::from_static(b"safe"), Service::Safe);
        let holds = c.node(0).stats().token_holds;
        while c.node(0).stats().token_holds == holds {
            c.run_for(1_000);
        }
        for i in 0..3 {
            assert!(
                c.deliveries(i).iter().any(|d| d.payload == "safe"),
                "node {i} Safe-delivered before the rest"
            );
        }
    }

    #[test]
    fn a_dropped_wake_costs_at_most_the_hold_deadline() {
        use crate::testing::{Cluster, NetHook, PacketKind, SendFate};
        #[derive(Debug)]
        struct DropControl;
        impl NetHook for DropControl {
            fn on_packet(&mut self, _: u64, _: usize, _: usize, kind: PacketKind) -> SendFate {
                if kind == PacketKind::Control {
                    SendFate::drop()
                } else {
                    SendFate::deliver()
                }
            }
        }
        let mut c = Cluster::new(
            3,
            ProtocolConfig::default(),
            MembershipConfig::for_simulation(),
        );
        c.run_for(30_000_000);
        run_until_the_leader_holds(&mut c);
        c.set_net_hook(Box::new(DropControl));
        c.submit(1, Bytes::from_static(b"late"), Service::Agreed);
        assert_eq!(
            c.node(1).stats().wakes_sent,
            1,
            "the wake went out, and is lost"
        );
        c.run_for(H + 10 * 30_000);
        for i in 0..3 {
            assert!(
                c.deliveries(i).iter().any(|d| d.payload == "late"),
                "node {i}"
            );
        }
        assert_eq!(c.node(0).stats().gathers, 1, "no reconfiguration");
    }

    // ----- formation without the settle -------------------------------

    fn pids(ids: &[u16]) -> BTreeSet<ParticipantId> {
        ids.iter().copied().map(ParticipantId::new).collect()
    }

    fn join(sender: u16, proc_set: &[u16], fail_set: &[u16], ring_counter: u64) -> Input {
        Input::Control(ControlMessage::Join {
            sender: ParticipantId::new(sender),
            proc_set: pids(proc_set),
            fail_set: pids(fail_set),
            ring_counter,
            epoch: 1,
        })
    }

    fn sent_joins(out: &[Output]) -> Vec<(BTreeSet<ParticipantId>, BTreeSet<ParticipantId>)> {
        out.iter()
            .filter_map(|o| match o {
                Output::SendControl {
                    to: None,
                    msg:
                        ControlMessage::Join {
                            proc_set, fail_set, ..
                        },
                } => Some((proc_set.clone(), fail_set.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn the_whole_book_forms_one_ring_before_the_settle() {
        use crate::testing::Cluster;
        let cfg = MembershipConfig::for_simulation();
        for n in [3u16, 5, 8] {
            let mut c = Cluster::new(n, ProtocolConfig::default(), cfg);
            c.run_for(cfg.gather_settle - 1);
            let everyone: Vec<ParticipantId> = (0..n).map(ParticipantId::new).collect();
            for i in 0..usize::from(n) {
                assert_eq!(
                    c.state_of(i),
                    StateKind::Operational,
                    "{n} daemons: node {i}"
                );
                assert_eq!(c.ring_of(i), everyone, "{n} daemons: node {i}");
            }
            // And no second formation follows.
            c.run_for(10 * cfg.consensus_timeout);
            for i in 0..usize::from(n) {
                assert_eq!(c.node(i).stats().rings_formed, 1, "{n} daemons: node {i}");
                assert_eq!(c.node(i).stats().gathers, 1, "{n} daemons: node {i}");
            }
        }
    }

    #[test]
    fn a_daemon_alone_in_its_book_forms_at_start() {
        let mut d = MembershipDaemon::new(
            ParticipantId::new(0),
            [ParticipantId::new(0)],
            ProtocolConfig::default(),
            MembershipConfig::for_simulation(),
        );
        let mut out = Vec::new();
        d.start(0, &mut out);
        assert_eq!(d.state(), StateKind::Operational);
        assert_eq!(d.ring().members(), [ParticipantId::new(0)]);
    }

    #[test]
    fn a_join_that_predates_the_forming_ring_leaves_commit_alone() {
        // Daemon 1 of {0, 1, 2} enters Commit through the representative's
        // commit token before 2's last join reaches it. That join carries
        // the forming sets, but a lower ring counter: it predates the ring
        // and must not send 1 back to Gather.
        let pid = ParticipantId::new;
        let mut d = MembershipDaemon::new(
            pid(1),
            [0, 1, 2].map(ParticipantId::new),
            ProtocolConfig::default(),
            MembershipConfig::for_simulation(),
        );
        let mut out = Vec::new();
        d.start(0, &mut out);
        d.handle(1, join(0, &[0, 1, 2], &[], 0), &mut out);
        assert_eq!(d.state(), StateKind::Gather, "2 has not answered");
        let cold = |p: u16| MemberInfo {
            pid: pid(p),
            old_ring: RingId::new(pid(p), 0),
            local_aru: Seq::ZERO,
            highest_held: Seq::ZERO,
            round: Round::ZERO,
        };
        let new_ring = RingId::new(pid(0), 4);
        let first_pass = CommitToken {
            new_ring,
            members: vec![pid(0), pid(1), pid(2)],
            infos: vec![cold(0)],
            hop: 1,
        };
        d.handle(
            2,
            Input::Control(ControlMessage::Commit(first_pass)),
            &mut out,
        );
        assert_eq!(d.state(), StateKind::Commit);
        assert_eq!(
            d.max_ring_counter(),
            4,
            "accepting the token raises the counter"
        );
        d.handle(3, join(2, &[0, 1, 2], &[], 0), &mut out);
        assert_eq!(d.state(), StateKind::Commit, "the earlier join is stale");
        let second_pass = CommitToken {
            new_ring,
            members: vec![pid(0), pid(1), pid(2)],
            infos: vec![cold(0), cold(1), cold(2)],
            hop: 4,
        };
        d.handle(
            4,
            Input::Control(ControlMessage::Commit(second_pass)),
            &mut out,
        );
        for p in [0, 2] {
            let done = ControlMessage::RecoveryDone {
                sender: pid(p),
                new_ring,
                old_ring: RingId::new(pid(p), 0),
                holds: Vec::new(),
            };
            d.handle(5, Input::Control(done), &mut out);
        }
        assert_eq!(d.state(), StateKind::Operational);
        assert_eq!(d.ring().id(), new_ring);
        assert_eq!(d.stats().gathers, 1, "never regathered");
    }

    #[test]
    fn a_missing_participant_keeps_the_settle() {
        // Participant 4 of the book 0..5 never runs: the others take
        // today's path, forming without it only once the settle is over.
        let cfg = MembershipConfig::for_simulation();
        let mut net = Net::new(5, 0..4);
        net.run_until(cfg.gather_settle - 1);
        for i in 0..4 {
            assert_eq!(net.node(i).state(), StateKind::Gather, "node {i}");
        }
        net.run_until(cfg.gather_settle + cfg.consensus_timeout);
        let four: Vec<ParticipantId> = (0..4).map(ParticipantId::new).collect();
        for i in 0..4 {
            assert_eq!(net.node(i).state(), StateKind::Operational, "node {i}");
            assert_eq!(net.node(i).ring().members(), four, "node {i}");
            assert_eq!(net.node(i).stats().rings_formed, 1, "node {i}");
        }
    }

    #[test]
    fn failed_peers_never_count_as_agreed() {
        // Both peers gave up on daemon 0, which fails them in turn. Every
        // participant that is not failed (0 alone) agrees, yet no
        // singleton may form before the consensus timeout: under
        // flapping partitions instant singletons merge and split without
        // end.
        let cfg = MembershipConfig::for_simulation();
        let mut d = MembershipDaemon::new(
            ParticipantId::new(0),
            [0, 1, 2].map(ParticipantId::new),
            ProtocolConfig::default(),
            cfg,
        );
        let mut out = Vec::new();
        d.start(0, &mut out);
        d.handle(1, join(1, &[0, 1, 2], &[0], 0), &mut out);
        d.handle(2, join(2, &[0, 1, 2], &[0], 0), &mut out);
        let (_, fail, _) = d.gather_view();
        assert_eq!(fail, vec![ParticipantId::new(1), ParticipantId::new(2)]);
        assert_eq!(d.state(), StateKind::Gather);
        d.handle(
            2 + cfg.gather_settle,
            Input::Timer(TimerKind::Settle),
            &mut out,
        );
        assert_eq!(d.state(), StateKind::Gather, "no singleton at the settle");
        d.handle(
            2 + cfg.consensus_timeout,
            Input::Timer(TimerKind::Consensus),
            &mut out,
        );
        assert_eq!(
            d.state(),
            StateKind::Operational,
            "a singleton at the timeout"
        );
        assert_eq!(d.ring().members(), [ParticipantId::new(0)]);
    }

    #[test]
    fn a_member_that_crashed_after_its_first_join_is_failed_at_the_consensus_timeout() {
        // Daemon 2 crashes right after starting: its first join of the
        // gather is already in flight, so 0 and 1 hold a join from it that
        // never agrees with their sets. The consensus timeout fails it.
        use crate::testing::Cluster;
        let mut c = Cluster::new(
            3,
            ProtocolConfig::default(),
            MembershipConfig::for_simulation(),
        );
        c.crash(2);
        c.run_for(100_000_000);
        let survivors = [ParticipantId::new(0), ParticipantId::new(1)];
        for i in 0..2 {
            assert_eq!(c.state_of(i), StateKind::Operational, "node {i}");
            assert_eq!(c.ring_of(i), survivors, "node {i}");
        }
    }

    #[test]
    fn a_join_that_has_not_heard_us_is_answered_at_once() {
        let mut d = MembershipDaemon::new(
            ParticipantId::new(0),
            [0, 1, 2].map(ParticipantId::new),
            ProtocolConfig::default(),
            MembershipConfig::for_simulation(),
        );
        let mut out = Vec::new();
        d.start(0, &mut out);
        d.handle(1, join(1, &[0, 1, 2], &[], 0), &mut out);
        // A restarted daemon's first join names only itself: it changes
        // nothing here, and is answered with our sets at once.
        out.clear();
        d.handle(2, join(2, &[2], &[], 0), &mut out);
        assert_eq!(sent_joins(&out), vec![(pids(&[0, 1, 2]), pids(&[]))]);
        // A join equal to ours needs no answer.
        out.clear();
        d.handle(3, join(1, &[0, 1, 2], &[], 0), &mut out);
        assert!(sent_joins(&out).is_empty());
        // 1 gives up on us, so we fail it (and tell the others once).
        d.handle(4, join(1, &[0, 1, 2], &[0], 0), &mut out);
        out.clear();
        // A failed sender's join is never answered.
        d.handle(5, join(1, &[1], &[], 0), &mut out);
        assert!(sent_joins(&out).is_empty(), "{out:?}");
    }
}
