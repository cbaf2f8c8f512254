//! The ordering-protocol state machine (Section III of the paper).
//!
//! [`Participant`] is sans-IO: it consumes tokens and data messages and
//! emits [`Action`]s in the exact order they must hit the wire. The caller
//! (the simulator's node runtime, or the UDP transport) owns sockets,
//! queues, and clocks. This separation lets the same protocol code run in
//! deterministic simulation, property-based tests, and production
//! transports.

use std::collections::{BTreeSet, VecDeque};

use bytes::Bytes;

use crate::buffer::{Delivery, RecvBuffer};
use crate::config::ProtocolConfig;
use crate::flow::{self, RoundSendRecord};
use crate::message::{DataMessage, Token};
use crate::priority::PriorityTracker;
use crate::ring::{Ring, RingError};
use crate::stats::Stats;
use crate::types::{ParticipantId, Round, Seq, Service};

/// Upper bound on retransmission requests carried by one token, keeping the
/// token within a single UDP datagram even under catastrophic loss.
pub const MAX_RTR_ENTRIES: usize = 4096;

/// An effect the caller must perform, in order of emission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Multicast a data message to the ring (new message or retransmission).
    Multicast(DataMessage),
    /// Send the token to the ring successor.
    SendToken {
        /// The next participant on the ring.
        to: ParticipantId,
        /// The updated token.
        token: Token,
    },
    /// Hand a message to the application, in total order.
    Deliver(Delivery),
    /// Messages up to this sequence number were garbage-collected; every
    /// member of the configuration has received them (stability).
    Discard {
        /// Highest discarded sequence number.
        up_to: Seq,
    },
}

/// Error returned by [`Participant::submit`] when the send queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFullError {
    /// The configured queue capacity.
    pub capacity: usize,
}

impl std::fmt::Display for QueueFullError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "send queue full (capacity {})", self.capacity)
    }
}

impl std::error::Error for QueueFullError {}

/// The state a configuration change carries out of a dissolving ring: the
/// messages a participant still holds and its delivery/aru lines. Consumed
/// by the membership algorithm's recovery phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverySnapshot {
    /// The ring being dissolved.
    pub ring_id: crate::types::RingId,
    /// Highest sequence number below which everything was received.
    pub local_aru: Seq,
    /// Next sequence number that would have been delivered.
    pub next_delivery: Seq,
    /// Highest sequence number held (or the discard line if nothing is
    /// held).
    pub highest_held: Seq,
    /// Highest round the participant processed or holds a message from.
    /// A new ring starts its rounds above every member's value, so rounds
    /// stay monotone per ring across configurations.
    pub round: Round,
    /// Every message received but not yet discarded, in sequence order.
    pub held: Vec<DataMessage>,
}

/// A protocol participant: one daemon's ordering engine.
///
/// # Examples
///
/// Drive a single-member ring by hand:
///
/// ```
/// use accelring_core::{Action, Participant, ParticipantId, ProtocolConfig, Ring, Service, Token};
/// use bytes::Bytes;
///
/// let ring = Ring::of_size(1);
/// let cfg = ProtocolConfig::accelerated(5, 3);
/// let mut p = Participant::new(ParticipantId::new(0), ring.clone(), cfg)?;
/// p.submit(Bytes::from_static(b"hello"), Service::Agreed)?;
///
/// let mut actions = Vec::new();
/// p.handle_token(Token::initial(ring.id()), 0, &mut actions);
/// assert!(actions.iter().any(|a| matches!(a, Action::Deliver(_))));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Participant {
    id: ParticipantId,
    ring: Ring,
    my_index: usize,
    cfg: ProtocolConfig,
    buffer: RecvBuffer,
    send_queue: VecDeque<(Bytes, Service)>,
    priority: PriorityTracker,
    /// Round of the last token processed.
    round: Round,
    /// `(departure seq, round)` of this participant's token visits whose
    /// departure seq is not yet delivered, one pair per distinct seq.
    visits: VecDeque<(Seq, Round)>,
    /// Round of the latest token visit whose departure seq is delivered.
    merge_floor: Round,
    /// Hop counter of the last token processed (duplicate detection).
    last_token_id: Option<u64>,
    /// `seq` field of the token as received in the previous round; the
    /// accelerated protocol requests retransmissions only up to this value.
    prev_token_seq: Seq,
    /// What this participant multicast last round (fcc accounting).
    last_round_sent: RoundSendRecord,
    /// aru field on the tokens this participant sent in the previous and
    /// current rounds; their minimum is the Safe-delivery / discard line.
    aru_sent_prev: Seq,
    aru_sent_last: Seq,
    stats: Stats,
}

impl Participant {
    /// Creates a participant on a fresh ring whose total order starts at
    /// sequence number 1.
    ///
    /// # Errors
    ///
    /// Returns [`RingError::NotAMember`] if `id` is not in `ring`.
    pub fn new(
        id: ParticipantId,
        ring: Ring,
        cfg: ProtocolConfig,
    ) -> Result<Participant, RingError> {
        Participant::with_start(id, ring, cfg, Seq::ZERO)
    }

    /// Creates a participant on a ring whose total order continues above
    /// `start` (used by the membership algorithm after recovery).
    ///
    /// # Errors
    ///
    /// Returns [`RingError::NotAMember`] if `id` is not in `ring`.
    pub fn with_start(
        id: ParticipantId,
        ring: Ring,
        cfg: ProtocolConfig,
        start: Seq,
    ) -> Result<Participant, RingError> {
        let my_index = ring.index_of(id).ok_or(RingError::NotAMember(id))?;
        let predecessor = ring.predecessor_of(id);
        Ok(Participant {
            id,
            my_index,
            cfg,
            buffer: RecvBuffer::new(start),
            send_queue: VecDeque::new(),
            priority: PriorityTracker::new(cfg.priority(), predecessor),
            round: Round::ZERO,
            visits: VecDeque::new(),
            merge_floor: Round::ZERO,
            last_token_id: None,
            prev_token_seq: start,
            last_round_sent: RoundSendRecord::default(),
            aru_sent_prev: start,
            aru_sent_last: start,
            stats: Stats::default(),
            ring,
        })
    }

    /// This participant's id.
    pub fn id(&self) -> ParticipantId {
        self.id
    }

    /// The current ring configuration.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The protocol configuration.
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// Protocol counters.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Highest sequence number below which everything has been received.
    pub fn local_aru(&self) -> Seq {
        self.buffer.local_aru()
    }

    /// Round of the last token processed.
    pub fn current_round(&self) -> Round {
        self.round
    }

    /// The round of this participant's latest token visit whose departure
    /// seq it has delivered. Every message the ring orders later is
    /// stamped at a later visit, so no later delivery carries a smaller
    /// round: the ring's merge watermark at this node.
    pub fn merge_floor(&self) -> Round {
        self.merge_floor
    }

    /// Messages waiting to be multicast.
    pub fn send_queue_len(&self) -> usize {
        self.send_queue.len()
    }

    /// Messages held in the receive buffer (received, not yet discarded).
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Whether a waiting token should be processed before waiting data
    /// messages (Section III-D). A runtime holding only a token processes it
    /// regardless.
    pub fn token_has_priority(&self) -> bool {
        self.priority.token_has_priority()
    }

    /// Queues an application message for ordered multicast.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFullError`] if the send queue is at capacity; the
    /// caller should apply backpressure to the client.
    pub fn submit(&mut self, payload: Bytes, service: Service) -> Result<(), QueueFullError> {
        if self.send_queue.len() >= self.cfg.max_send_queue() {
            self.stats.submit_rejected += 1;
            return Err(QueueFullError {
                capacity: self.cfg.max_send_queue(),
            });
        }
        self.stats.submitted += 1;
        self.send_queue.push_back((payload, service));
        Ok(())
    }

    /// Installs a new ring configuration produced by the membership
    /// algorithm. The total order restarts above `start`; undelivered
    /// application submissions remain queued and will be sent on the new
    /// ring.
    pub fn install_ring(&mut self, ring: Ring, start: Seq) {
        let my_index = ring
            .index_of(self.id)
            .expect("membership installs rings containing the local participant");
        let predecessor = ring.predecessor_of(self.id);
        self.my_index = my_index;
        self.priority = PriorityTracker::new(self.cfg.priority(), predecessor);
        self.buffer = RecvBuffer::new(start);
        self.round = Round::ZERO;
        self.visits.clear();
        self.last_token_id = None;
        self.prev_token_seq = start;
        self.last_round_sent = RoundSendRecord::default();
        self.aru_sent_prev = start;
        self.aru_sent_last = start;
        self.ring = ring;
    }

    /// Snapshots the state the membership algorithm needs to recover this
    /// participant's messages onto a new ring: everything received but not
    /// yet discarded, plus the delivery and aru lines.
    pub fn recovery_snapshot(&self) -> RecoverySnapshot {
        RecoverySnapshot {
            ring_id: self.ring.id(),
            local_aru: self.buffer.local_aru(),
            next_delivery: self.buffer.next_delivery(),
            highest_held: self.buffer.highest_held(),
            round: self
                .buffer
                .iter_held()
                .map(|m| m.round)
                .fold(self.round, Round::max),
            held: self.buffer.iter_held().cloned().collect(),
        }
    }

    /// Handles a received data message (Section III-C), emitting any
    /// deliveries it unblocks.
    pub fn handle_data(&mut self, msg: DataMessage, out: &mut Vec<Action>) {
        if msg.ring_id != self.ring.id() {
            self.stats.foreign_dropped += 1;
            return;
        }
        self.priority.on_data_processed(&msg);
        if self.buffer.insert(msg) {
            self.stats.messages_received += 1;
            self.deliver_ready(out);
        } else {
            self.stats.duplicate_messages += 1;
        }
    }

    /// Handles the token (Section III-B): answers retransmissions, decides
    /// and stamps this round's new messages, updates and forwards the token,
    /// completes post-token multicasting, and delivers/discards messages.
    ///
    /// `now_us` is the caller's clock in microseconds. The ring leader
    /// starts each rotation at `max(round + 1, now_us)`, so rounds rise
    /// strictly once per rotation and, on a clocked runtime, read as the
    /// time the rotation began. A caller without a clock passes 0 and
    /// rounds count rotations.
    ///
    /// Emitted actions are in wire order: retransmissions and pre-token
    /// multicasts, then the token, then post-token multicasts, then
    /// deliveries and the discard notice.
    pub fn handle_token(&mut self, mut token: Token, now_us: u64, out: &mut Vec<Action>) {
        if token.ring_id != self.ring.id() {
            self.stats.foreign_dropped += 1;
            return;
        }
        if let Some(last) = self.last_token_id {
            if token.token_id <= last {
                self.stats.stale_tokens_dropped += 1;
                return;
            }
        }
        self.last_token_id = Some(token.token_id);
        self.stats.tokens_processed += 1;

        // The ring leader (position 0) starts a new rotation.
        if self.my_index == 0 {
            token.round = token.round.next().max(Round::new(now_us));
        }
        self.round = token.round;

        let received_seq = token.seq;
        let received_aru = token.aru;

        // --- Step 1a: answer retransmission requests (all must go out
        // before the token; otherwise they would be requested again).
        let mut answered = BTreeSet::new();
        for &seq in &token.rtr {
            if let Some(found) = self.buffer.get(seq) {
                out.push(Action::Multicast(found.as_retransmission()));
                answered.insert(seq);
            }
        }
        let num_retrans = answered.len() as u32;
        self.stats.retransmissions_sent += u64::from(num_retrans);

        // --- Step 1b: decide this round's new messages.
        let num_to_send =
            flow::num_to_send(&self.cfg, self.send_queue.len(), token.fcc, num_retrans);
        let (pre, _post) = flow::split_pre_post(num_to_send, self.cfg.accelerated_window());

        // Stamp every message now: the token must reflect all of them even
        // though some are transmitted only after the token (Section III-A:
        // "it has already decided exactly which messages it will send").
        let mut new_messages = Vec::with_capacity(num_to_send as usize);
        for i in 0..num_to_send {
            let (payload, service) = self
                .send_queue
                .pop_front()
                .expect("num_to_send is bounded by the queue length");
            let msg = DataMessage {
                ring_id: self.ring.id(),
                seq: received_seq.advance(u64::from(i) + 1),
                pid: self.id,
                round: self.round,
                service,
                post_token: i >= pre,
                retransmission: false,
                payload,
            };
            // A sender holds its own messages: they enter the receive
            // buffer at decision time.
            self.buffer.insert(msg.clone());
            new_messages.push(msg);
        }
        self.stats.messages_sent += u64::from(num_to_send);

        // --- Step 1c: pre-token multicasting.
        for msg in &new_messages[..pre as usize] {
            out.push(Action::Multicast(msg.clone()));
        }

        // --- Step 2: update the token.
        token.seq = received_seq.advance(u64::from(num_to_send));

        // aru rules (Section III-B2).
        let local = self.buffer.local_aru();
        if local < token.aru {
            token.aru = local;
            token.aru_id = Some(self.id);
        } else if token.aru_id == Some(self.id) {
            token.aru = local;
            if local == token.seq {
                token.aru_id = None;
            }
        } else if token.aru_id.is_none() && received_aru == received_seq {
            token.aru = received_aru.advance(u64::from(num_to_send));
        }
        debug_assert!(token.aru <= token.seq, "aru may never exceed seq");

        // fcc.
        let this_round_sent = RoundSendRecord {
            new_messages: num_to_send,
            retransmissions: num_retrans,
        };
        token.fcc = flow::update_fcc(token.fcc, self.last_round_sent, this_round_sent);
        self.last_round_sent = this_round_sent;

        // rtr: drop answered requests and requests below the stability
        // line, then add our own misses. The accelerated protocol requests
        // only up to the seq of the token received in the *previous* round,
        // so that messages still in flight post-token are not requested.
        let request_limit = if self.cfg.rtr_delayed() {
            self.prev_token_seq
        } else {
            received_seq
        };
        let discard_floor = self.buffer.discarded_up_to();
        let mut rtr: BTreeSet<Seq> = token
            .rtr
            .iter()
            .copied()
            .filter(|s| !answered.contains(s) && *s > discard_floor)
            .collect();
        let budget = MAX_RTR_ENTRIES.saturating_sub(rtr.len());
        let mine = self.buffer.missing_up_to(request_limit, budget);
        for seq in mine {
            if rtr.insert(seq) {
                self.stats.retransmissions_requested += 1;
            }
        }
        token.rtr = rtr.into_iter().collect();
        self.prev_token_seq = received_seq;

        token.token_id += 1;

        // --- Step 2 end: pass the token.
        match self.visits.back_mut() {
            Some((seq, round)) if *seq == token.seq => *round = self.round,
            _ => self.visits.push_back((token.seq, self.round)),
        }
        let successor = self.ring.successor_of(self.id);
        let sent_aru = token.aru;
        out.push(Action::SendToken {
            to: successor,
            token,
        });

        // --- Step 3: post-token multicasting.
        for msg in &new_messages[pre as usize..] {
            out.push(Action::Multicast(msg.clone()));
        }

        // --- Step 4: deliver and discard. Everything at or below the
        // minimum of the arus on the tokens we sent this round and last
        // round is stable (Section III-B4).
        self.aru_sent_prev = self.aru_sent_last;
        self.aru_sent_last = sent_aru;
        let line = self.aru_sent_prev.min(self.aru_sent_last);
        self.buffer.raise_safe_line(line);
        self.deliver_ready(out);
        if line > self.buffer.discarded_up_to() {
            let before = self.buffer.len();
            self.buffer.discard_up_to(line);
            self.stats.discarded += (before - self.buffer.len()) as u64;
            out.push(Action::Discard { up_to: line });
        }

        self.priority.on_token_processed(self.round);
    }

    fn deliver_ready(&mut self, out: &mut Vec<Action>) {
        let mut ready = Vec::new();
        self.buffer.pop_deliverable(&mut ready);
        for d in ready {
            if d.service.requires_stability() {
                self.stats.delivered_safe += 1;
            } else {
                self.stats.delivered_agreed += 1;
            }
            out.push(Action::Deliver(d));
        }
        let next = self.buffer.next_delivery();
        while let Some(&(seq, round)) = self.visits.front() {
            if seq >= next {
                break;
            }
            self.merge_floor = round;
            self.visits.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{LossRule, TestNet};
    use crate::types::RingId;

    fn payload(tag: u64) -> Bytes {
        Bytes::from(tag.to_le_bytes().to_vec())
    }

    #[test]
    fn rejects_non_member() {
        let ring = Ring::of_size(3);
        let err =
            Participant::new(ParticipantId::new(9), ring, ProtocolConfig::default()).unwrap_err();
        assert_eq!(err, RingError::NotAMember(ParticipantId::new(9)));
    }

    #[test]
    fn figure_1_original_schedule() {
        // 3 participants, personal window 5, original protocol: all five
        // messages precede the token.
        let mut net = TestNet::new(3, ProtocolConfig::original(5));
        for p in 0..3 {
            for i in 0..5 {
                net.submit(p, payload(p as u64 * 10 + i), Service::Agreed);
            }
        }
        net.run_tokens(3);
        // Participant 0 sent 1-5, participant 1 sent 6-10, participant 2 11-15.
        let sent = net.multicast_log();
        let firsts: Vec<_> = sent
            .iter()
            .filter(|m| !m.retransmission)
            .map(|m| (m.pid.as_u16(), m.seq.as_u64(), m.post_token))
            .collect();
        assert_eq!(firsts.len(), 15);
        for (pid, seq, post) in &firsts {
            assert!(!post, "original protocol never sends post-token");
            let expected_pid = ((seq - 1) / 5) as u16;
            assert_eq!(*pid, expected_pid);
        }
    }

    #[test]
    fn figure_1_accelerated_schedule() {
        // Personal window 5, accelerated window 3: two messages pre-token,
        // three post-token, same sequence numbers as the original protocol.
        let mut net = TestNet::new(3, ProtocolConfig::accelerated(5, 3));
        for p in 0..3 {
            for i in 0..5 {
                net.submit(p, payload(p as u64 * 10 + i), Service::Agreed);
            }
        }
        net.run_tokens(3);
        let sent = net.multicast_log();
        let firsts: Vec<_> = sent.iter().filter(|m| !m.retransmission).collect();
        assert_eq!(firsts.len(), 15);
        for m in &firsts {
            let offset = (m.seq.as_u64() - 1) % 5; // position within the sender's window
            assert_eq!(
                m.post_token,
                offset >= 2,
                "first two pre-token, last three post-token (seq {})",
                m.seq
            );
        }
        // Sequence numbers identical to the original protocol.
        let mut seqs: Vec<_> = firsts.iter().map(|m| m.seq.as_u64()).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (1..=15).collect::<Vec<_>>());
    }

    #[test]
    fn few_messages_all_sent_post_token() {
        // "If a participant in Figure 1b only had two messages to send, it
        // would send both after the token."
        let mut net = TestNet::new(3, ProtocolConfig::accelerated(5, 3));
        net.submit(0, payload(1), Service::Agreed);
        net.submit(0, payload(2), Service::Agreed);
        net.run_tokens(1);
        let sent = net.multicast_log();
        assert_eq!(sent.len(), 2);
        assert!(sent.iter().all(|m| m.post_token));
    }

    #[test]
    fn all_participants_deliver_same_total_order() {
        let mut net = TestNet::new(4, ProtocolConfig::accelerated(10, 5));
        for p in 0..4 {
            for i in 0..25 {
                net.submit(p, payload(p as u64 * 1000 + i), Service::Agreed);
            }
        }
        net.run_tokens(40);
        let orders = net.delivery_orders();
        assert_eq!(orders[0].len(), 100, "all 100 messages delivered");
        for o in &orders[1..] {
            assert_eq!(o, &orders[0], "identical delivery order everywhere");
        }
    }

    #[test]
    fn total_order_respects_fifo_per_sender() {
        let mut net = TestNet::new(3, ProtocolConfig::accelerated(4, 2));
        for i in 0..12 {
            net.submit(1, payload(i), Service::Agreed);
        }
        net.run_tokens(20);
        let order = &net.delivery_orders()[0];
        let from_one: Vec<u64> = order
            .iter()
            .filter(|d| d.sender == ParticipantId::new(1))
            .map(|d| u64::from_le_bytes(d.payload[..8].try_into().unwrap()))
            .collect();
        assert_eq!(from_one, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn no_retransmissions_without_loss_accelerated() {
        // The key correctness-of-design property: even though the token
        // outruns the data, the delayed request rule means a lossless run
        // never requests retransmissions.
        let mut net = TestNet::new(8, ProtocolConfig::accelerated(20, 20));
        for p in 0..8 {
            for i in 0..100 {
                net.submit(p, payload(i), Service::Agreed);
            }
        }
        net.run_tokens(200);
        for stats in net.stats() {
            assert_eq!(stats.retransmissions_requested, 0);
            assert_eq!(stats.retransmissions_sent, 0);
        }
        assert_eq!(net.delivery_orders()[0].len(), 800);
    }

    #[test]
    fn safe_delivery_requires_two_extra_rounds() {
        let mut net = TestNet::new(3, ProtocolConfig::accelerated(5, 3));
        net.submit(0, payload(7), Service::Safe);
        // After one full rotation nobody has delivered: the aru line needs
        // two tokens from the same participant.
        net.run_tokens(3);
        assert_eq!(net.delivery_orders()[0].len(), 0);
        net.run_tokens(9);
        let orders = net.delivery_orders();
        for o in orders {
            assert_eq!(o.len(), 1);
            assert_eq!(o[0].service, Service::Safe);
        }
    }

    #[test]
    fn safe_blocks_later_agreed_messages() {
        let mut net = TestNet::new(3, ProtocolConfig::accelerated(5, 3));
        net.submit(0, payload(1), Service::Safe);
        net.submit(0, payload(2), Service::Agreed);
        net.run_tokens(12);
        for order in net.delivery_orders() {
            assert_eq!(order.len(), 2);
            assert_eq!(order[0].service, Service::Safe);
            assert_eq!(order[1].service, Service::Agreed);
            assert!(order[0].seq < order[1].seq);
        }
    }

    #[test]
    fn lost_message_recovered_original() {
        let mut net = TestNet::new(3, ProtocolConfig::original(5));
        // Participant 1 loses participant 0's first transmission of seq 2.
        net.add_loss(LossRule::drop_seq_once(1, 2));
        for i in 0..5 {
            net.submit(0, payload(i), Service::Agreed);
        }
        net.run_tokens(9);
        let orders = net.delivery_orders();
        for o in orders {
            assert_eq!(o.len(), 5, "all messages delivered despite loss");
        }
        assert_eq!(orders[1], orders[0]);
        let total_retrans: u64 = net.stats().iter().map(|s| s.retransmissions_sent).sum();
        assert!(total_retrans >= 1, "a retransmission answered the request");
    }

    #[test]
    fn lost_message_recovered_accelerated() {
        let mut net = TestNet::new(3, ProtocolConfig::accelerated(5, 3));
        net.add_loss(LossRule::drop_seq_once(2, 4));
        for i in 0..5 {
            net.submit(0, payload(i), Service::Agreed);
        }
        net.run_tokens(12);
        for o in net.delivery_orders() {
            assert_eq!(o.len(), 5);
        }
    }

    #[test]
    fn accelerated_requests_one_round_later_than_original() {
        // Drop seq 3 for participant 1 and look at which token rotation
        // first carries the request.
        let round_of_first_request = |cfg: ProtocolConfig| -> u64 {
            let mut net = TestNet::new(3, cfg);
            net.add_loss(LossRule::drop_seq_once(1, 3));
            for i in 0..5 {
                net.submit(0, payload(i), Service::Agreed);
            }
            net.run_tokens(15);
            net.first_rtr_round().expect("request must happen")
        };
        let orig = round_of_first_request(ProtocolConfig::original(5));
        let accel = round_of_first_request(ProtocolConfig::accelerated(5, 3));
        assert!(
            accel > orig,
            "accelerated ({accel}) requests later than original ({orig})"
        );
    }

    #[test]
    fn global_window_caps_ring_throughput() {
        let cfg = ProtocolConfig::builder()
            .personal_window(10)
            .accelerated_window(5)
            .global_window(12)
            .build()
            .unwrap();
        let mut net = TestNet::new(4, cfg);
        for p in 0..4 {
            for i in 0..50 {
                net.submit(p, payload(i), Service::Agreed);
            }
        }
        // One rotation: total new messages across the ring <= global window
        // + slack for the fcc lag of one round.
        net.run_tokens(4);
        let sent: u64 = net.stats().iter().map(|s| s.messages_sent).sum();
        assert!(sent <= 12 + 10, "global window respected, got {sent}");
    }

    #[test]
    fn stale_token_dropped() {
        let ring = Ring::of_size(2);
        let cfg = ProtocolConfig::accelerated(5, 3);
        let mut p = Participant::new(ParticipantId::new(0), ring.clone(), cfg).unwrap();
        let mut out = Vec::new();
        let token = Token::initial(ring.id());
        p.handle_token(token.clone(), 0, &mut out);
        assert_eq!(p.stats().tokens_processed, 1);
        let before = out.len();
        p.handle_token(token, 0, &mut out); // same token_id again
        assert_eq!(out.len(), before, "no actions from a stale token");
        assert_eq!(p.stats().stale_tokens_dropped, 1);
    }

    #[test]
    fn foreign_ring_messages_dropped() {
        let ring = Ring::of_size(2);
        let cfg = ProtocolConfig::accelerated(5, 3);
        let mut p = Participant::new(ParticipantId::new(0), ring, cfg).unwrap();
        let mut out = Vec::new();
        let foreign_ring = RingId::new(ParticipantId::new(5), 99);
        p.handle_token(Token::initial(foreign_ring), 0, &mut out);
        p.handle_data(
            DataMessage {
                ring_id: foreign_ring,
                seq: Seq::new(1),
                pid: ParticipantId::new(5),
                round: Round::new(1),
                service: Service::Agreed,
                post_token: false,
                retransmission: false,
                payload: Bytes::new(),
            },
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(p.stats().foreign_dropped, 2);
    }

    #[test]
    fn submit_backpressure() {
        let ring = Ring::of_size(1);
        let cfg = ProtocolConfig::builder().max_send_queue(2).build().unwrap();
        let mut p = Participant::new(ParticipantId::new(0), ring, cfg).unwrap();
        assert!(p.submit(payload(1), Service::Agreed).is_ok());
        assert!(p.submit(payload(2), Service::Agreed).is_ok());
        let err = p.submit(payload(3), Service::Agreed).unwrap_err();
        assert_eq!(err.capacity, 2);
        assert_eq!(p.stats().submit_rejected, 1);
        assert_eq!(p.send_queue_len(), 2);
    }

    #[test]
    fn aru_lowered_by_participant_with_gap() {
        // Participant 1 misses a message; the token aru must drop to its
        // local aru when it forwards the token.
        let mut net = TestNet::new(3, ProtocolConfig::original(5));
        net.add_loss(LossRule::drop_seq_once(1, 1));
        net.submit(0, payload(0), Service::Agreed);
        net.run_tokens(2); // token passed 0 (sends) and 1 (must lower)
        let token = net.last_token().expect("token in flight");
        assert_eq!(token.aru, Seq::ZERO, "participant 1 lowered the aru");
        assert_eq!(token.aru_id, Some(ParticipantId::new(1)));
    }

    #[test]
    fn aru_recovers_after_lowerer_catches_up() {
        let mut net = TestNet::new(3, ProtocolConfig::original(5));
        net.add_loss(LossRule::drop_seq_once(1, 1));
        net.submit(0, payload(0), Service::Agreed);
        net.run_tokens(9);
        let token = net.last_token().expect("token in flight");
        assert_eq!(token.aru, token.seq, "aru caught back up to seq");
        assert_eq!(token.aru_id, None);
    }

    #[test]
    fn discard_only_after_stability() {
        let mut net = TestNet::new(3, ProtocolConfig::accelerated(5, 3));
        net.submit(0, payload(0), Service::Agreed);
        net.run_tokens(2);
        // No participant may have discarded before the aru line moved twice.
        assert!(net.stats().iter().all(|s| s.discarded == 0));
        net.run_tokens(10);
        assert!(net.stats().iter().any(|s| s.discarded > 0));
    }

    #[test]
    fn install_ring_resets_protocol_but_keeps_queue() {
        let ring = Ring::of_size(2);
        let cfg = ProtocolConfig::accelerated(5, 3);
        let mut p = Participant::new(ParticipantId::new(0), ring, cfg).unwrap();
        p.submit(payload(1), Service::Agreed).unwrap();
        let mut out = Vec::new();
        p.handle_token(Token::initial(p.ring().id()), 0, &mut out);
        assert_eq!(p.current_round(), Round::new(1));

        let new_ring = Ring::new(
            RingId::new(ParticipantId::new(0), 5),
            vec![ParticipantId::new(0), ParticipantId::new(3)],
        )
        .unwrap();
        p.submit(payload(2), Service::Agreed).unwrap();
        p.install_ring(new_ring.clone(), Seq::new(50));
        assert_eq!(p.current_round(), Round::ZERO);
        assert_eq!(p.local_aru(), Seq::new(50));
        assert_eq!(p.send_queue_len(), 1, "unsent submission survives");
        assert_eq!(p.ring().id(), new_ring.id());

        // The new ring's token orders the queued message above `start`.
        out.clear();
        p.handle_token(Token::starting_at(new_ring.id(), Seq::new(50)), 0, &mut out);
        let sent: Vec<_> = out
            .iter()
            .filter_map(|a| match a {
                Action::Multicast(m) => Some(m.seq),
                _ => None,
            })
            .collect();
        assert_eq!(sent, vec![Seq::new(51)]);
    }

    #[test]
    fn singleton_ring_delivers_immediately() {
        let ring = Ring::of_size(1);
        let cfg = ProtocolConfig::accelerated(5, 3);
        let mut p = Participant::new(ParticipantId::new(0), ring.clone(), cfg).unwrap();
        p.submit(payload(9), Service::Safe).unwrap();
        let mut out = Vec::new();
        p.handle_token(Token::initial(ring.id()), 0, &mut out);
        let token = out
            .iter()
            .find_map(|a| match a {
                Action::SendToken { token, .. } => Some(token.clone()),
                _ => None,
            })
            .expect("token must be forwarded");
        // Second rotation: aru line covers the message, Safe delivery fires.
        out.clear();
        p.handle_token(token, 0, &mut out);
        assert!(out
            .iter()
            .any(|a| matches!(a, Action::Deliver(d) if d.service == Service::Safe)));
    }

    #[test]
    fn fcc_returns_to_zero_when_idle() {
        let mut net = TestNet::new(3, ProtocolConfig::accelerated(5, 3));
        net.submit(0, payload(0), Service::Agreed);
        net.run_tokens(9);
        let token = net.last_token().expect("token in flight");
        assert_eq!(token.fcc, 0, "idle ring has zero flow-control count");
    }

    #[test]
    fn heavy_loss_many_retransmissions_still_converge() {
        // Drop a whole burst of messages to one receiver, including some
        // retransmissions: convergence must still happen.
        let mut net = TestNet::new(4, ProtocolConfig::accelerated(10, 5));
        for seq in 1..=10 {
            net.add_loss(LossRule::drop_seq_once(1, seq));
        }
        net.add_loss(LossRule::drop_seq_repeatedly(2, 3, 2));
        for p in 0..4 {
            for i in 0..10 {
                net.submit(p, payload(p as u64 * 100 + i), Service::Agreed);
            }
        }
        net.run_tokens(80);
        let orders = net.delivery_orders();
        assert_eq!(orders[0].len(), 40);
        for o in &orders[1..] {
            assert_eq!(o, &orders[0]);
        }
    }

    #[test]
    fn rtr_list_is_bounded() {
        // A participant missing a huge range must cap its requests at
        // MAX_RTR_ENTRIES so the token stays bounded.
        let ring = Ring::of_size(2);
        let cfg = ProtocolConfig::original(5);
        let mut p = Participant::new(ParticipantId::new(1), ring.clone(), cfg).unwrap();
        let mut out = Vec::new();
        let token = Token {
            ring_id: ring.id(),
            token_id: 5,
            round: Round::new(3),
            seq: Seq::new(2 * MAX_RTR_ENTRIES as u64),
            aru: Seq::ZERO,
            aru_id: None,
            fcc: 0,
            rtr: vec![],
        };
        p.handle_token(token, 0, &mut out);
        let sent = out
            .iter()
            .find_map(|a| match a {
                Action::SendToken { token, .. } => Some(token.clone()),
                _ => None,
            })
            .expect("token forwarded");
        assert_eq!(sent.rtr.len(), MAX_RTR_ENTRIES);
        assert_eq!(sent.rtr[0], Seq::new(1));
    }

    #[test]
    fn idle_ring_makes_no_data_traffic() {
        let mut net = TestNet::new(5, ProtocolConfig::accelerated(20, 15));
        net.run_tokens(50);
        assert!(
            net.multicast_log().is_empty(),
            "idle ring sends only tokens"
        );
        let token = net.last_token().unwrap();
        assert_eq!(token.seq, Seq::ZERO);
        assert_eq!(token.fcc, 0);
    }

    #[test]
    fn post_token_flag_respected_per_round_boundary() {
        // With exactly accelerated_window messages queued, all go post
        // token; the *round* stamps must match the token round.
        let mut net = TestNet::new(2, ProtocolConfig::accelerated(6, 3));
        for i in 0..3 {
            net.submit(0, payload(i), Service::Agreed);
        }
        net.run_tokens(2);
        for m in net.multicast_log() {
            assert!(m.post_token);
            assert_eq!(m.round, Round::new(1));
        }
    }

    #[test]
    fn mixed_services_interleave_correctly() {
        let mut net = TestNet::new(3, ProtocolConfig::accelerated(10, 5));
        let services = [
            Service::Agreed,
            Service::Safe,
            Service::Fifo,
            Service::Reliable,
            Service::Causal,
            Service::Safe,
        ];
        for (i, s) in services.iter().enumerate() {
            net.submit(
                i % 3,
                payload(i as u64),
                Service::from_u8(s.as_u8()).unwrap(),
            );
        }
        net.run_tokens(25);
        let orders = net.delivery_orders();
        assert_eq!(orders[0].len(), services.len());
        assert_eq!(orders[1], orders[0]);
        assert_eq!(orders[2], orders[0]);
        // Seq order strictly increasing in delivery.
        let seqs: Vec<u64> = orders[0].iter().map(|d| d.seq.as_u64()).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn merge_floor_bounds_every_later_delivery() {
        // A busy, lossy ring with Safe messages mixed in: whatever floor a
        // participant reports, every message it delivers afterwards
        // carries at least that round, and an idle ring keeps raising it.
        let mut net = TestNet::new(4, ProtocolConfig::accelerated(5, 3));
        for (receiver, seq) in [(1, 3), (2, 7), (3, 12), (1, 40)] {
            net.add_loss(LossRule::drop_seq_once(receiver, seq));
        }
        net.add_loss(LossRule::drop_seq_repeatedly(2, 20, 2));
        for p in 0..4 {
            for i in 0..30u64 {
                let service = if i % 4 == 0 {
                    Service::Safe
                } else {
                    Service::Agreed
                };
                net.submit(p, payload(p as u64 * 100 + i), service);
            }
        }
        let mut seen: Vec<Vec<(usize, Round)>> = vec![Vec::new(); 4];
        for _ in 0..400 {
            net.run_tokens(1);
            for (p, seen) in seen.iter_mut().enumerate() {
                let floor = net.participant(p).merge_floor();
                seen.push((net.delivery_orders()[p].len(), floor));
            }
        }
        for (p, seen) in seen.iter().enumerate() {
            let order = &net.delivery_orders()[p];
            assert_eq!(order.len(), 120, "participant {p} delivered everything");
            for &(delivered, floor) in seen {
                assert!(
                    order[delivered..].iter().all(|d| d.round >= floor),
                    "participant {p}: a delivery after floor {floor} carries a smaller round"
                );
            }
            assert!(
                seen.windows(2).all(|w| w[0].1 <= w[1].1),
                "floors never fall"
            );
            let last = net.participant(p).current_round();
            assert!(
                seen[seen.len() - 1].1 >= Round::new(last.as_u64() - 1),
                "participant {p}: the idle ring's floor trails its round by at most one"
            );
        }
    }

    #[test]
    fn retransmission_keeps_original_stamp() {
        let mut net = TestNet::new(3, ProtocolConfig::original(5));
        net.add_loss(LossRule::drop_seq_once(1, 2));
        for i in 0..3 {
            net.submit(0, payload(i), Service::Agreed);
        }
        net.run_tokens(9);
        let retrans: Vec<_> = net
            .multicast_log()
            .iter()
            .filter(|m| m.retransmission)
            .cloned()
            .collect();
        assert!(!retrans.is_empty());
        for r in retrans {
            assert_eq!(r.seq, Seq::new(2));
            assert_eq!(r.pid, ParticipantId::new(0));
        }
    }
}
