//! A minimal, perfectly ordered in-memory ring for deterministic protocol
//! tests.
//!
//! [`TestNet`] delivers every emitted action through a single global FIFO,
//! which models an idealized loss-free network with zero latency (except for
//! the [`LossRule`]s you install). It is deliberately much simpler than the
//! timing-accurate simulator in `accelring-sim`: use this to test protocol
//! *correctness*, and the simulator to measure protocol *performance*.
//!
//! This module is part of the public API because downstream crates
//! (membership, daemon) reuse it in their own test suites.

use std::collections::VecDeque;

use bytes::Bytes;

use crate::buffer::Delivery;
use crate::config::ProtocolConfig;
use crate::message::{DataMessage, Token};
use crate::participant::{Action, Participant};
use crate::ring::Ring;
use crate::stats::Stats;
use crate::types::{ParticipantId, Seq, Service};

/// A deterministic message-drop rule for [`TestNet`].
#[derive(Debug, Clone)]
pub struct LossRule {
    receiver: usize,
    sender: Option<ParticipantId>,
    seq: Option<Seq>,
    include_retransmissions: bool,
    remaining: u64,
}

impl LossRule {
    /// Drops the first original transmission of sequence number `seq` on its
    /// way to participant `receiver`. Retransmissions get through.
    pub fn drop_seq_once(receiver: usize, seq: u64) -> LossRule {
        LossRule {
            receiver,
            sender: None,
            seq: Some(Seq::new(seq)),
            include_retransmissions: false,
            remaining: 1,
        }
    }

    /// Drops the next `count` original transmissions from `sender` to
    /// `receiver`, whatever their sequence numbers.
    pub fn drop_from_sender(receiver: usize, sender: ParticipantId, count: u64) -> LossRule {
        LossRule {
            receiver,
            sender: Some(sender),
            seq: None,
            include_retransmissions: false,
            remaining: count,
        }
    }

    /// Drops *every* transmission (including retransmissions) of `seq` to
    /// `receiver`, up to `count` times. Useful to test repeated recovery.
    pub fn drop_seq_repeatedly(receiver: usize, seq: u64, count: u64) -> LossRule {
        LossRule {
            receiver,
            sender: None,
            seq: Some(Seq::new(seq)),
            include_retransmissions: true,
            remaining: count,
        }
    }

    fn matches(&mut self, receiver: usize, msg: &DataMessage) -> bool {
        if self.remaining == 0 || receiver != self.receiver {
            return false;
        }
        if !self.include_retransmissions && msg.retransmission {
            return false;
        }
        if let Some(seq) = self.seq {
            if msg.seq != seq {
                return false;
            }
        }
        if let Some(sender) = self.sender {
            if msg.pid != sender {
                return false;
            }
        }
        self.remaining -= 1;
        true
    }
}

#[derive(Debug)]
enum Event {
    Data { to: usize, msg: DataMessage },
    Token { to: usize, token: Token },
}

/// An in-memory ring of [`Participant`]s connected by a global FIFO.
///
/// # Examples
///
/// ```
/// use accelring_core::testing::TestNet;
/// use accelring_core::{ProtocolConfig, Service};
/// use bytes::Bytes;
///
/// let mut net = TestNet::new(3, ProtocolConfig::accelerated(5, 3));
/// net.submit(0, Bytes::from_static(b"a"), Service::Agreed);
/// net.run_tokens(6);
/// assert_eq!(net.delivery_orders()[2].len(), 1);
/// ```
#[derive(Debug)]
pub struct TestNet {
    participants: Vec<Participant>,
    events: VecDeque<Event>,
    loss_rules: Vec<LossRule>,
    multicast_log: Vec<DataMessage>,
    deliveries: Vec<Vec<Delivery>>,
    last_token: Option<Token>,
    first_rtr_round: Option<u64>,
    bootstrapped: bool,
}

impl TestNet {
    /// Creates a ring of `n` participants all running `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u16, cfg: ProtocolConfig) -> TestNet {
        TestNet::with_ring(Ring::of_size(n), cfg)
    }

    /// Creates a test net over an explicit ring.
    pub fn with_ring(ring: Ring, cfg: ProtocolConfig) -> TestNet {
        let participants: Vec<_> = ring
            .members()
            .iter()
            .map(|&id| Participant::new(id, ring.clone(), cfg).expect("member of its own ring"))
            .collect();
        let n = participants.len();
        TestNet {
            participants,
            events: VecDeque::new(),
            loss_rules: Vec::new(),
            multicast_log: Vec::new(),
            deliveries: vec![Vec::new(); n],
            last_token: None,
            first_rtr_round: None,
            bootstrapped: false,
        }
    }

    /// Installs a loss rule.
    pub fn add_loss(&mut self, rule: LossRule) {
        self.loss_rules.push(rule);
    }

    /// Queues an application message at participant `index`.
    ///
    /// # Panics
    ///
    /// Panics if the participant's send queue is full.
    pub fn submit(&mut self, index: usize, payload: Bytes, service: Service) {
        self.participants[index]
            .submit(payload, service)
            .expect("test send queue should not fill");
    }

    /// Processes events until `budget` more tokens have been handled (or the
    /// network goes quiet, which only happens if the token is lost — the
    /// test net never loses tokens).
    pub fn run_tokens(&mut self, budget: u64) {
        if !self.bootstrapped {
            let ring_id = self.participants[0].ring().id();
            self.events.push_back(Event::Token {
                to: 0,
                token: Token::initial(ring_id),
            });
            self.bootstrapped = true;
        }
        let mut processed = 0;
        while processed < budget {
            let Some(event) = self.events.pop_front() else {
                break;
            };
            let mut actions = Vec::new();
            let node = match event {
                Event::Data { to, msg } => {
                    self.participants[to].handle_data(msg, &mut actions);
                    to
                }
                Event::Token { to, token } => {
                    let before = self.participants[to].stats().tokens_processed;
                    // No clock: rounds count rotations.
                    self.participants[to].handle_token(token, 0, &mut actions);
                    if self.participants[to].stats().tokens_processed > before {
                        processed += 1;
                    }
                    to
                }
            };
            self.dispatch(node, actions);
        }
    }

    fn dispatch(&mut self, from: usize, actions: Vec<Action>) {
        let n = self.participants.len();
        for action in actions {
            match action {
                Action::Multicast(msg) => {
                    self.multicast_log.push(msg.clone());
                    for to in (0..n).filter(|&to| to != from) {
                        let dropped = self
                            .loss_rules
                            .iter_mut()
                            .any(|rule| rule.matches(to, &msg));
                        if !dropped {
                            self.events.push_back(Event::Data {
                                to,
                                msg: msg.clone(),
                            });
                        }
                    }
                }
                Action::SendToken { to, token } => {
                    if self.first_rtr_round.is_none() && !token.rtr.is_empty() {
                        self.first_rtr_round = Some(token.round.as_u64());
                    }
                    self.last_token = Some(token.clone());
                    let idx = self.participants[from]
                        .ring()
                        .index_of(to)
                        .expect("successor is a ring member");
                    self.events.push_back(Event::Token { to: idx, token });
                }
                Action::Deliver(d) => self.deliveries[from].push(d),
                Action::Discard { .. } => {}
            }
        }
    }

    /// Every multicast that hit the (virtual) wire, in order, including
    /// retransmissions.
    pub fn multicast_log(&self) -> &[DataMessage] {
        &self.multicast_log
    }

    /// Per-participant delivery sequences.
    pub fn delivery_orders(&self) -> &[Vec<Delivery>] {
        &self.deliveries
    }

    /// Per-participant protocol counters.
    pub fn stats(&self) -> Vec<Stats> {
        self.participants.iter().map(|p| *p.stats()).collect()
    }

    /// Direct access to a participant (e.g. to inspect its aru).
    pub fn participant(&self, index: usize) -> &Participant {
        &self.participants[index]
    }

    /// The most recently forwarded token.
    pub fn last_token(&self) -> Option<&Token> {
        self.last_token.as_ref()
    }

    /// The round of the first token that carried a retransmission request,
    /// if any request was ever made.
    pub fn first_rtr_round(&self) -> Option<u64> {
        self.first_rtr_round
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_ring_keeps_token_circulating() {
        let mut net = TestNet::new(3, ProtocolConfig::accelerated(5, 3));
        net.run_tokens(30);
        let stats = net.stats();
        let total: u64 = stats.iter().map(|s| s.tokens_processed).sum();
        assert_eq!(total, 30);
        // Perfect rotation: each participant processed 10 tokens.
        assert!(stats.iter().all(|s| s.tokens_processed == 10));
    }

    #[test]
    fn loss_rule_sender_filter() {
        let mut rule = LossRule::drop_from_sender(1, ParticipantId::new(0), 2);
        let msg = |pid: u16| DataMessage {
            ring_id: crate::types::RingId::new(ParticipantId::new(0), 1),
            seq: Seq::new(1),
            pid: ParticipantId::new(pid),
            round: crate::types::Round::new(1),
            service: Service::Agreed,
            post_token: false,
            retransmission: false,
            payload: Bytes::new(),
        };
        assert!(!rule.matches(0, &msg(0)), "wrong receiver");
        assert!(!rule.matches(1, &msg(2)), "wrong sender");
        assert!(rule.matches(1, &msg(0)));
        assert!(rule.matches(1, &msg(0)));
        assert!(!rule.matches(1, &msg(0)), "budget exhausted");
    }

    #[test]
    fn repeated_drop_rule_hits_retransmissions() {
        let mut net = TestNet::new(3, ProtocolConfig::original(5));
        net.add_loss(LossRule::drop_seq_repeatedly(1, 1, 2));
        net.submit(0, Bytes::from_static(b"x"), Service::Agreed);
        net.run_tokens(15);
        // Even after dropping the original and the first retransmission,
        // the message eventually arrives.
        assert_eq!(net.delivery_orders()[1].len(), 1);
    }
}
