//! The group engine: translates client operations into ordered multicasts
//! and routes ordered deliveries back to local clients.
//!
//! The engine is pure (no sockets, no threads): runtimes feed it client
//! commands, ordered deliveries, and configuration changes, and carry out
//! the [`EngineOutput`]s it returns. This is the layer that gives the
//! daemon prototype (and Spread) their client–daemon architecture: one
//! engine per daemon serves many clients, and open-group semantics fall
//! out naturally because any client's message is routed by the *receiving*
//! daemons based on the replicated group table.

use std::collections::{BTreeMap, BTreeSet};

use accelring_core::{Delivery, ParticipantId, Service};
use accelring_membership::ConfigChange;
use bytes::Bytes;

use crate::groups::{GroupTable, GroupView};
use crate::packing::{self, Fragmenter, Reassembler, TAG_FRAGMENT, TAG_SEQS};
use crate::proto::{
    decode_group_message, encode_group_message, validate_name, ClientId, GroupAction, GroupMessage,
    GroupProtoError, MAX_GROUPS,
};

/// Ring payloads are capped at this many bytes; larger client messages
/// are fragmented and reassembled transparently. Leaves ample room for
/// ring and UDP headers under the 64 KiB datagram limit.
const FRAGMENT_BUDGET: usize = 48 * 1024;

/// An event delivered to one local client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientEvent {
    /// A group message, in total order.
    Message {
        /// The sending client.
        sender: ClientId,
        /// The sender's client-session sequence (`0` = unsequenced).
        /// Replicated state machines key exactly-once application and
        /// cross-ring fragment reassembly on `(sender.name, seq)`.
        seq: u64,
        /// The groups it was addressed to.
        groups: Vec<String>,
        /// Application payload.
        payload: Bytes,
        /// Service level it was sent with.
        service: Service,
    },
    /// A membership view for a group this client belongs to.
    View {
        /// The group.
        group: String,
        /// The members after the change.
        members: Vec<ClientId>,
    },
    /// The daemon's ring configuration changed (EVS notification,
    /// forwarded to every local client).
    Config {
        /// Daemons in the new configuration.
        daemons: Vec<ParticipantId>,
        /// Whether this is a transitional configuration.
        transitional: bool,
    },
    /// Terminal: the daemon can no longer serve this client (its node
    /// thread died, the daemon is shutting down, or the session was
    /// superseded). No further events follow. Unlike ordinary events this
    /// is never shed when a client's event queue is full — runtimes must
    /// deliver it out of band or block briefly, because a client that
    /// misses it would wait forever on a dead daemon.
    Disconnected {
        /// Human-readable cause (e.g. the panic message of a dead node
        /// thread, or "daemon shutdown").
        reason: String,
    },
}

/// An effect the runtime must carry out for the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineOutput {
    /// Submit this payload for totally ordered multicast.
    Submit {
        /// Encoded group message.
        payload: Bytes,
        /// Requested service.
        service: Service,
    },
    /// Hand an event to a local client.
    Local {
        /// The local client's name.
        client: String,
        /// The event.
        event: ClientEvent,
    },
}

/// Errors from client operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Invalid client or group name, or bad group count.
    Proto(GroupProtoError),
    /// The named client is not connected to this daemon.
    UnknownClient(String),
    /// A client with this name is already connected.
    DuplicateClient(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Proto(e) => write!(f, "{e}"),
            EngineError::UnknownClient(c) => write!(f, "unknown client {c:?}"),
            EngineError::DuplicateClient(c) => write!(f, "client {c:?} already connected"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<GroupProtoError> for EngineError {
    fn from(e: GroupProtoError) -> Self {
        EngineError::Proto(e)
    }
}

/// The per-daemon group engine.
///
/// # Examples
///
/// ```
/// use accelring_core::ParticipantId;
/// use accelring_daemon::engine::GroupEngine;
///
/// let mut engine = GroupEngine::new(ParticipantId::new(0));
/// engine.client_connect("alice")?;
/// let outputs = engine.client_join("alice", "chat")?;
/// assert_eq!(outputs.len(), 1, "join becomes one ordered submission");
/// # Ok::<(), accelring_daemon::engine::EngineError>(())
/// ```
#[derive(Debug)]
pub struct GroupEngine {
    pid: ParticipantId,
    groups: GroupTable,
    local_clients: BTreeSet<String>,
    fragmenter: Fragmenter,
    next_fragment_id: u64,
    /// One reassembler per sending daemon (fragment ids are per-sender).
    reassemblers: BTreeMap<ParticipantId, Reassembler>,
    /// Highest session sequence number seen per client *name*, across every
    /// daemon. Because the ring delivers every daemon the same total order,
    /// all engines agree on this map, and a resubmitted duplicate (same
    /// name, same seq — e.g. after a client reconnects to a different
    /// daemon) is dropped identically everywhere.
    seen_seqs: BTreeMap<String, u64>,
    /// Count of sequenced messages dropped as duplicates.
    duplicates_dropped: u64,
    /// Members of the last regular configuration. A regular configuration
    /// that adds daemons is a merge of previously partitioned components,
    /// and triggers the local-membership re-announcement.
    known_daemons: BTreeSet<ParticipantId>,
    /// The other members of the last regular configuration whose last
    /// [`TAG_SEQS`] part this engine has not delivered since.
    seqs_awaited: BTreeSet<ParticipantId>,
}

impl GroupEngine {
    /// Creates the engine for the daemon with id `pid`.
    pub fn new(pid: ParticipantId) -> GroupEngine {
        GroupEngine {
            pid,
            groups: GroupTable::new(),
            local_clients: BTreeSet::new(),
            fragmenter: Fragmenter::new(FRAGMENT_BUDGET),
            next_fragment_id: 0,
            reassemblers: BTreeMap::new(),
            seen_seqs: BTreeMap::new(),
            duplicates_dropped: 0,
            known_daemons: BTreeSet::new(),
            seqs_awaited: BTreeSet::new(),
        }
    }

    /// Sequenced messages dropped because their session sequence number was
    /// already seen (duplicate suppression after client resubmission).
    pub fn duplicates_dropped(&self) -> u64 {
        self.duplicates_dropped
    }

    /// The highest session sequence number this engine has seen for the
    /// named client, or 0 if none. A reconnecting client resumes stamping
    /// from above this value.
    pub fn last_seq(&self, client: &str) -> u64 {
        self.seen_seqs.get(client).copied().unwrap_or(0)
    }

    /// Every per-client dedup watermark this engine holds, sorted by
    /// client name: what it announces under [`TAG_SEQS`] after each
    /// regular configuration, and what a supervisor carries into a
    /// restarted daemon, which then suppresses client resubmissions it
    /// forgot it already ordered.
    pub fn export_seqs(&self) -> Vec<(String, u64)> {
        self.seen_seqs
            .iter()
            .map(|(name, seq)| (name.clone(), *seq))
            .collect()
    }

    /// Seeds dedup watermarks: a delivered [`TAG_SEQS`] part, or a
    /// supervisor's carry-forward. Max-merge, so seeding is monotone and
    /// idempotent: a watermark this engine has already advanced past is
    /// never regressed, and replaying the same watermarks changes
    /// nothing.
    pub fn seed_seqs(&mut self, seqs: &[(String, u64)]) {
        for (name, seq) in seqs {
            let entry = self.seen_seqs.entry(name.clone()).or_insert(0);
            *entry = (*entry).max(*seq);
        }
    }

    /// Whether this engine holds the watermarks of its latest regular
    /// configuration: it has installed one, and the last [`TAG_SEQS`]
    /// part every other member ordered since has been delivered. A
    /// configuration of this daemon alone has no one to wait for.
    pub fn caught_up(&self) -> bool {
        !self.known_daemons.is_empty() && self.seqs_awaited.is_empty()
    }

    /// Wraps one encoded group message for the ring: fragmented when too
    /// large, bare otherwise.
    fn wrap_submit(&mut self, encoded: Bytes, service: Service) -> Vec<EngineOutput> {
        if self.fragmenter.needs_split(encoded.len()) {
            self.next_fragment_id += 1;
            return self
                .fragmenter
                .split(self.next_fragment_id, encoded)
                .into_iter()
                .map(|payload| EngineOutput::Submit { payload, service })
                .collect();
        }
        vec![EngineOutput::Submit {
            payload: packing::bare(encoded),
            service,
        }]
    }

    /// The daemon id this engine serves.
    pub fn pid(&self) -> ParticipantId {
        self.pid
    }

    /// Read access to the replicated group table.
    pub fn groups(&self) -> &GroupTable {
        &self.groups
    }

    /// Names of locally connected clients.
    pub fn local_clients(&self) -> Vec<String> {
        self.local_clients.iter().cloned().collect()
    }

    fn require_client(&self, name: &str) -> Result<ClientId, EngineError> {
        if !self.local_clients.contains(name) {
            return Err(EngineError::UnknownClient(name.to_string()));
        }
        Ok(ClientId {
            daemon: self.pid,
            name: name.to_string(),
        })
    }

    /// Registers a local client.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid or duplicate names.
    pub fn client_connect(&mut self, name: &str) -> Result<(), EngineError> {
        validate_name(name)?;
        if !self.local_clients.insert(name.to_string()) {
            return Err(EngineError::DuplicateClient(name.to_string()));
        }
        Ok(())
    }

    /// Unregisters a local client; its group departures are multicast so
    /// every daemon prunes it.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownClient`] if not connected.
    pub fn client_disconnect(&mut self, name: &str) -> Result<Vec<EngineOutput>, EngineError> {
        let id = self.require_client(name)?;
        self.local_clients.remove(name);
        let encoded = encode_group_message(&GroupMessage {
            sender: id,
            seq: 0,
            action: GroupAction::Disconnect,
        });
        Ok(self.wrap_submit(encoded, Service::Agreed))
    }

    /// The named client joins `group` (takes effect when the join comes
    /// back through the total order).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown clients or invalid group names.
    pub fn client_join(
        &mut self,
        name: &str,
        group: &str,
    ) -> Result<Vec<EngineOutput>, EngineError> {
        validate_name(group)?;
        let id = self.require_client(name)?;
        let encoded = encode_group_message(&GroupMessage {
            sender: id,
            seq: 0,
            action: GroupAction::Join {
                group: group.to_string(),
            },
        });
        Ok(self.wrap_submit(encoded, Service::Agreed))
    }

    /// The named client leaves `group`.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown clients or invalid group names.
    pub fn client_leave(
        &mut self,
        name: &str,
        group: &str,
    ) -> Result<Vec<EngineOutput>, EngineError> {
        validate_name(group)?;
        let id = self.require_client(name)?;
        let encoded = encode_group_message(&GroupMessage {
            sender: id,
            seq: 0,
            action: GroupAction::Leave {
                group: group.to_string(),
            },
        });
        Ok(self.wrap_submit(encoded, Service::Agreed))
    }

    /// Multicasts `payload` to one or more groups with cross-group total
    /// ordering (Spread's multi-group multicast). The sender need not be a
    /// member of any target group (open-group semantics).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown clients, invalid names, or a bad group
    /// count.
    pub fn client_multicast(
        &mut self,
        name: &str,
        groups: &[&str],
        payload: Bytes,
        service: Service,
    ) -> Result<Vec<EngineOutput>, EngineError> {
        self.client_multicast_sequenced(name, groups, payload, service, 0)
    }

    /// Like [`GroupEngine::client_multicast`], but stamps the message with a
    /// client-session sequence number for duplicate suppression: if `seq`
    /// is nonzero and a message with the same sender name and a sequence
    /// number at least `seq` was already delivered, every engine drops the
    /// message on delivery. Used by reconnecting clients to safely resubmit
    /// messages whose fate was unknown when their daemon died.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown clients, invalid names, or a bad group
    /// count.
    pub fn client_multicast_sequenced(
        &mut self,
        name: &str,
        groups: &[&str],
        payload: Bytes,
        service: Service,
        seq: u64,
    ) -> Result<Vec<EngineOutput>, EngineError> {
        if groups.is_empty() || groups.len() > MAX_GROUPS {
            return Err(EngineError::Proto(GroupProtoError::BadGroupCount(
                groups.len(),
            )));
        }
        for g in groups {
            validate_name(g)?;
        }
        let id = self.require_client(name)?;
        let encoded = encode_group_message(&GroupMessage {
            sender: id,
            seq,
            action: GroupAction::Data {
                groups: groups.iter().map(|g| g.to_string()).collect(),
                payload,
            },
        });
        Ok(self.wrap_submit(encoded, service))
    }

    /// Processes one ordered delivery from the ring, producing local client
    /// events. Undecodable payloads are dropped (a daemon must survive a
    /// misbehaving peer). Fragments are reassembled transparently, and a
    /// [`TAG_SEQS`] part is merged into the watermarks.
    pub fn on_delivery(&mut self, delivery: &Delivery) -> Vec<EngineOutput> {
        let payload = delivery.payload.clone();
        if payload.first() == Some(&TAG_SEQS) {
            if let Some(part) = packing::parse_seqs(&payload) {
                self.seed_seqs(&part.seqs);
                if part.last {
                    self.seqs_awaited.remove(&delivery.sender);
                }
            }
            return Vec::new();
        }
        if payload.first() == Some(&TAG_FRAGMENT) {
            let reassembler = self
                .reassemblers
                .entry(delivery.sender)
                .or_insert_with(|| Reassembler::new(64));
            return match reassembler.push(payload) {
                Ok(Some(whole)) => self.process_group_bytes(whole, delivery.service),
                _ => Vec::new(),
            };
        }
        let Ok(message) = packing::unpack(payload) else {
            return Vec::new();
        };
        self.process_group_bytes(message, delivery.service)
    }

    fn process_group_bytes(&mut self, mut payload: Bytes, service: Service) -> Vec<EngineOutput> {
        let Ok(msg) = decode_group_message(&mut payload) else {
            return Vec::new();
        };
        if msg.seq != 0 {
            // Per-sender FIFO within the total order means a duplicate
            // (resubmitted) message can only arrive with a seq at or below
            // the highest already seen for that name.
            let last = self.seen_seqs.entry(msg.sender.name.clone()).or_insert(0);
            if msg.seq <= *last {
                self.duplicates_dropped += 1;
                return Vec::new();
            }
            *last = msg.seq;
        }
        match msg.action {
            GroupAction::Data { groups, payload } => {
                // Route to local members of the union of the target groups,
                // once per client even when groups overlap.
                let mut targets: BTreeSet<String> = BTreeSet::new();
                for g in &groups {
                    for member in self.groups.members(g) {
                        if member.daemon == self.pid && self.local_clients.contains(&member.name) {
                            targets.insert(member.name);
                        }
                    }
                }
                targets
                    .into_iter()
                    .map(|client| EngineOutput::Local {
                        client,
                        event: ClientEvent::Message {
                            sender: msg.sender.clone(),
                            seq: msg.seq,
                            groups: groups.clone(),
                            payload: payload.clone(),
                            service,
                        },
                    })
                    .collect()
            }
            GroupAction::Join { group } => {
                let view = self.groups.join(&group, msg.sender);
                self.views_to_outputs(vec![view])
            }
            GroupAction::Leave { group } => {
                let view = self.groups.leave(&group, &msg.sender);
                self.views_to_outputs(view.into_iter().collect())
            }
            GroupAction::Disconnect => {
                let views = self.groups.remove_client(&msg.sender);
                self.views_to_outputs(views)
            }
        }
    }

    /// Processes an EVS configuration change: clients of daemons that left
    /// the configuration are pruned from every group, and all local clients
    /// are notified.
    ///
    /// A regular configuration that *adds* daemons is a merge of
    /// previously partitioned components whose group tables diverged
    /// (each side pruned the other's clients). Every daemon then
    /// re-announces its own local clients' memberships as ordered joins:
    /// joins are idempotent at the replicas, so all tables reconverge,
    /// and the resulting views tell every member the group is whole
    /// again.
    ///
    /// After every regular configuration the engine also orders its
    /// watermark table ([`GroupEngine::export_seqs`]) as [`TAG_SEQS`]
    /// parts, and waits for every other member's last part
    /// ([`GroupEngine::caught_up`]). Every member announces, not only a
    /// merging one: a restarted daemon may come back inside the
    /// token-loss timeout, into a configuration of the same members. The
    /// outputs therefore include [`EngineOutput::Submit`]s.
    pub fn on_config_change(&mut self, change: &ConfigChange) -> Vec<EngineOutput> {
        let mut out = Vec::new();
        for client in &self.local_clients {
            out.push(EngineOutput::Local {
                client: client.clone(),
                event: ClientEvent::Config {
                    daemons: change.members.clone(),
                    transitional: change.transitional,
                },
            });
        }
        if !change.transitional {
            let views = self.groups.retain_daemons(&change.members);
            out.extend(self.views_to_outputs(views));
            let merged = !self.known_daemons.is_empty()
                && change
                    .members
                    .iter()
                    .any(|m| !self.known_daemons.contains(m));
            if merged {
                for (group, id) in self.groups.memberships_of_daemon(self.pid) {
                    if !self.local_clients.contains(&id.name) {
                        continue;
                    }
                    let encoded = encode_group_message(&GroupMessage {
                        sender: id,
                        seq: 0,
                        action: GroupAction::Join { group },
                    });
                    out.extend(self.wrap_submit(encoded, Service::Agreed));
                }
            }
            self.known_daemons = change.members.iter().cloned().collect();
            self.seqs_awaited = self.known_daemons.clone();
            self.seqs_awaited.remove(&self.pid);
            for payload in packing::seqs_payloads(&self.export_seqs(), FRAGMENT_BUDGET) {
                out.push(EngineOutput::Submit {
                    payload,
                    service: Service::Agreed,
                });
            }
        }
        out
    }

    fn views_to_outputs(&self, views: Vec<GroupView>) -> Vec<EngineOutput> {
        let mut out = Vec::new();
        for view in views {
            // Every local member of the group gets the view; the causing
            // client gets it too if local (including a leaver, as its
            // confirmation).
            let mut recipients: BTreeSet<String> = view
                .members
                .iter()
                .filter(|m| m.daemon == self.pid && self.local_clients.contains(&m.name))
                .map(|m| m.name.clone())
                .collect();
            if let Some(cause) = &view.cause {
                if cause.daemon == self.pid && self.local_clients.contains(&cause.name) {
                    recipients.insert(cause.name.clone());
                }
            }
            for client in recipients {
                out.push(EngineOutput::Local {
                    client,
                    event: ClientEvent::View {
                        group: view.group.clone(),
                        members: view.members.clone(),
                    },
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelring_core::{RingId, Round, Seq};

    fn delivery_of(payload: Bytes, service: Service, seq: u64) -> Delivery {
        delivery_from(0, payload, service, seq)
    }

    fn delivery_from(sender: u16, payload: Bytes, service: Service, seq: u64) -> Delivery {
        Delivery {
            seq: Seq::new(seq),
            sender: ParticipantId::new(sender),
            round: Round::new(1),
            service,
            payload,
        }
    }

    /// The submitted payloads among `outputs` that carry `TAG_SEQS`
    /// (`seqs == true`) or anything else.
    fn submitted(outputs: &[EngineOutput], seqs: bool) -> Vec<Bytes> {
        outputs
            .iter()
            .filter_map(|o| match o {
                EngineOutput::Submit { payload, .. } if (payload[0] == TAG_SEQS) == seqs => {
                    Some(payload.clone())
                }
                _ => None,
            })
            .collect()
    }

    fn regular(members: &[u16]) -> ConfigChange {
        ConfigChange {
            ring_id: RingId::new(ParticipantId::new(members[0]), 8),
            members: members.iter().map(|&m| ParticipantId::new(m)).collect(),
            transitional: false,
        }
    }

    /// An engine holding `n` watermarks of 64-byte client names.
    fn seeded(pid: u16, n: usize) -> GroupEngine {
        let mut e = GroupEngine::new(ParticipantId::new(pid));
        let seqs: Vec<(String, u64)> = (0..n)
            .map(|i| (format!("{pid}-{i:0>62}"), i as u64 + 1))
            .collect();
        e.seed_seqs(&seqs);
        e
    }

    /// Runs the Submit outputs of `from` through `engines` as ordered
    /// deliveries, returning all local events per engine.
    fn propagate(
        outputs: Vec<EngineOutput>,
        engines: &mut [GroupEngine],
        seq: &mut u64,
    ) -> Vec<Vec<(String, ClientEvent)>> {
        let mut locals = vec![Vec::new(); engines.len()];
        for o in outputs {
            match o {
                EngineOutput::Submit { payload, service } => {
                    *seq += 1;
                    let d = delivery_of(payload, service, *seq);
                    for (i, e) in engines.iter_mut().enumerate() {
                        for out in e.on_delivery(&d) {
                            if let EngineOutput::Local { client, event } = out {
                                locals[i].push((client, event));
                            }
                        }
                    }
                }
                EngineOutput::Local { .. } => unreachable!("client ops only submit"),
            }
        }
        locals
    }

    #[test]
    fn join_produces_views_at_every_daemon_with_members() {
        let mut engines = vec![
            GroupEngine::new(ParticipantId::new(0)),
            GroupEngine::new(ParticipantId::new(1)),
        ];
        engines[0].client_connect("a").unwrap();
        engines[1].client_connect("b").unwrap();
        let mut seq = 0;
        let out = engines[0].client_join("a", "g").unwrap();
        let locals = propagate(out, &mut engines, &mut seq);
        // a (at daemon 0) gets the view; daemon 1 has no members yet.
        assert_eq!(locals[0].len(), 1);
        assert!(locals[1].is_empty());
        let out = engines[1].client_join("b", "g").unwrap();
        let locals = propagate(out, &mut engines, &mut seq);
        assert_eq!(locals[0].len(), 1, "a sees b join");
        assert_eq!(locals[1].len(), 1, "b sees itself join");
        assert_eq!(engines[0].groups().members("g").len(), 2);
        assert_eq!(engines[1].groups().members("g").len(), 2);
    }

    #[test]
    fn data_routed_to_members_only() {
        let mut engines = vec![
            GroupEngine::new(ParticipantId::new(0)),
            GroupEngine::new(ParticipantId::new(1)),
        ];
        engines[0].client_connect("member").unwrap();
        engines[0].client_connect("outsider").unwrap();
        engines[1].client_connect("remote").unwrap();
        let mut seq = 0;
        let out = engines[0].client_join("member", "g").unwrap();
        propagate(out, &mut engines, &mut seq);
        let out = engines[1].client_join("remote", "g").unwrap();
        propagate(out, &mut engines, &mut seq);

        // Open-group semantics: "outsider" sends without being a member.
        let out = engines[0]
            .client_multicast(
                "outsider",
                &["g"],
                Bytes::from_static(b"hi"),
                Service::Agreed,
            )
            .unwrap();
        let locals = propagate(out, &mut engines, &mut seq);
        let names0: Vec<&String> = locals[0].iter().map(|(c, _)| c).collect();
        assert_eq!(names0, vec!["member"], "only the member receives");
        let names1: Vec<&String> = locals[1].iter().map(|(c, _)| c).collect();
        assert_eq!(names1, vec!["remote"]);
    }

    #[test]
    fn multi_group_multicast_deduplicates_recipients() {
        let mut engines = vec![GroupEngine::new(ParticipantId::new(0))];
        engines[0].client_connect("c").unwrap();
        let mut seq = 0;
        for g in ["g1", "g2"] {
            let out = engines[0].client_join("c", g).unwrap();
            propagate(out, &mut engines, &mut seq);
        }
        let out = engines[0]
            .client_multicast(
                "c",
                &["g1", "g2"],
                Bytes::from_static(b"x"),
                Service::Agreed,
            )
            .unwrap();
        let locals = propagate(out, &mut engines, &mut seq);
        assert_eq!(locals[0].len(), 1, "one copy despite two target groups");
        match &locals[0][0].1 {
            ClientEvent::Message { groups, .. } => assert_eq!(groups.len(), 2),
            other => panic!("expected message, got {other:?}"),
        }
    }

    #[test]
    fn disconnect_leaves_all_groups_everywhere() {
        let mut engines = vec![
            GroupEngine::new(ParticipantId::new(0)),
            GroupEngine::new(ParticipantId::new(1)),
        ];
        engines[0].client_connect("a").unwrap();
        engines[1].client_connect("b").unwrap();
        let mut seq = 0;
        for (e, c, g) in [(0usize, "a", "g1"), (0, "a", "g2"), (1, "b", "g1")] {
            let out = engines[e].client_join(c, g).unwrap();
            propagate(out, &mut engines, &mut seq);
        }
        let out = engines[0].client_disconnect("a").unwrap();
        let locals = propagate(out, &mut engines, &mut seq);
        assert!(engines[1].groups().members("g2").is_empty());
        assert_eq!(engines[1].groups().members("g1").len(), 1);
        // b sees the g1 view change.
        assert!(locals[1].iter().any(
            |(c, e)| c == "b" && matches!(e, ClientEvent::View { group, .. } if group == "g1")
        ));
    }

    #[test]
    fn config_change_prunes_departed_daemons() {
        let mut e = GroupEngine::new(ParticipantId::new(0));
        e.client_connect("local").unwrap();
        let mut seq = 0;
        let out = e.client_join("local", "g").unwrap();
        propagate(out, std::slice::from_mut(&mut e), &mut seq);
        // A remote client joins via the ordered stream.
        let remote_join = packing::bare(encode_group_message(&GroupMessage {
            sender: ClientId {
                daemon: ParticipantId::new(5),
                name: "remote".into(),
            },
            seq: 0,
            action: GroupAction::Join { group: "g".into() },
        }));
        e.on_delivery(&delivery_of(remote_join, Service::Agreed, 99));
        assert_eq!(e.groups().members("g").len(), 2);

        // Daemon 5 drops out of the configuration.
        let outputs = e.on_config_change(&ConfigChange {
            ring_id: RingId::new(ParticipantId::new(0), 8),
            members: vec![ParticipantId::new(0)],
            transitional: false,
        });
        assert_eq!(e.groups().members("g").len(), 1);
        // The local client got a Config event and a View event.
        let events: Vec<&ClientEvent> = outputs
            .iter()
            .filter_map(|o| match o {
                EngineOutput::Local { event, .. } => Some(event),
                _ => None,
            })
            .collect();
        assert!(events
            .iter()
            .any(|e| matches!(e, ClientEvent::Config { .. })));
        assert!(events.iter().any(|e| matches!(e, ClientEvent::View { .. })));
    }

    #[test]
    fn merging_config_reannounces_local_memberships() {
        // Two daemons, one local client each, both in "g"; a partition
        // prunes each side's view of the other, and the healing
        // (merging) configuration makes both engines re-announce their
        // local joins so the replicated tables reconverge.
        let d0 = ParticipantId::new(0);
        let d1 = ParticipantId::new(1);
        let mut engines = vec![GroupEngine::new(d0), GroupEngine::new(d1)];
        engines[0].client_connect("a").unwrap();
        engines[1].client_connect("b").unwrap();
        let mut seq = 0;
        for (e, c) in [(0usize, "a"), (1, "b")] {
            let out = engines[e].client_join(c, "g").unwrap();
            propagate(out, &mut engines, &mut seq);
        }
        let full = |counter| ConfigChange {
            ring_id: RingId::new(d0, counter),
            members: vec![d0, d1],
            transitional: false,
        };
        // Installing the first configuration re-announces nothing (the
        // watermark parts every regular configuration carries aside).
        for e in &mut engines {
            assert!(submitted(&e.on_config_change(&full(4)), false).is_empty());
        }
        // Partition: each engine alone. Shrinking re-announces nothing.
        for (i, e) in engines.iter_mut().enumerate() {
            let alone = ConfigChange {
                ring_id: RingId::new(ParticipantId::new(i as u16), 8),
                members: vec![ParticipantId::new(i as u16)],
                transitional: false,
            };
            assert!(submitted(&e.on_config_change(&alone), false).is_empty());
            assert_eq!(e.groups().members("g").len(), 1, "far side pruned");
        }
        // Heal: both engines re-announce their local member, and
        // replaying the announcements through the total order restores
        // the full view everywhere.
        let mut announced = Vec::new();
        for e in &mut engines {
            let outputs = e.on_config_change(&full(12));
            announced.extend(submitted(&outputs, false).into_iter().map(|payload| {
                EngineOutput::Submit {
                    payload,
                    service: Service::Agreed,
                }
            }));
        }
        assert_eq!(
            announced.len(),
            2,
            "each daemon re-announces its local join"
        );
        let locals = propagate(announced, &mut engines, &mut seq);
        for e in &engines {
            assert_eq!(e.groups().members("g").len(), 2, "tables reconverge");
        }
        for (i, name) in ["a", "b"].iter().enumerate() {
            assert!(
                locals[i].iter().any(|(c, ev)| c == *name
                    && matches!(ev, ClientEvent::View { group, members }
                        if group == "g" && members.len() == 2)),
                "{name} hears the restored two-member view"
            );
        }
    }

    #[test]
    fn watermark_parts_stay_under_budget_and_merge_like_one_seed() {
        // 2,000 watermarks of 64-byte names: 148 KB, four parts.
        let mut e = seeded(0, 2_000);
        let parts = submitted(&e.on_config_change(&regular(&[0, 1])), true);
        assert!(parts.len() > 1, "the table must split");
        for (i, part) in parts.iter().enumerate() {
            assert!(part.len() <= FRAGMENT_BUDGET, "part {i}: {} B", part.len());
            let msg = packing::parse_seqs(part).expect("a well-formed part");
            assert_eq!(msg.last, i + 1 == parts.len(), "part {i} flag");
        }
        let mut delivered = GroupEngine::new(ParticipantId::new(1));
        for (i, part) in parts.into_iter().enumerate() {
            delivered.on_delivery(&delivery_from(0, part, Service::Agreed, i as u64 + 1));
        }
        let mut once = GroupEngine::new(ParticipantId::new(1));
        once.seed_seqs(&e.export_seqs());
        assert_eq!(delivered.export_seqs(), once.export_seqs());
        assert_eq!(delivered.export_seqs(), e.export_seqs());
    }

    #[test]
    fn transitional_config_announces_nothing() {
        let mut e = seeded(0, 3);
        let outputs = e.on_config_change(&ConfigChange {
            transitional: true,
            ..regular(&[0, 1])
        });
        assert!(!outputs
            .iter()
            .any(|o| matches!(o, EngineOutput::Submit { .. })));
        assert!(!e.caught_up(), "no regular configuration installed yet");
    }

    #[test]
    fn gate_waits_for_every_other_members_last_part() {
        let mut e = GroupEngine::new(ParticipantId::new(0));
        let own = submitted(&e.on_config_change(&regular(&[0, 1, 2])), true);
        let mut seq = 0;
        let mut deliver = |e: &mut GroupEngine, sender: u16, part: Bytes| {
            seq += 1;
            e.on_delivery(&delivery_from(sender, part, Service::Agreed, seq));
        };
        // Its own announcement does not count.
        for part in own {
            deliver(&mut e, 0, part);
        }
        assert!(!e.caught_up());
        let mut one = seeded(1, 1_000);
        let parts = submitted(&one.on_config_change(&regular(&[0, 1, 2])), true);
        assert_eq!(parts.len(), 2);
        deliver(&mut e, 1, parts[0].clone());
        assert!(!e.caught_up(), "an earlier part does not end the wait");
        deliver(&mut e, 1, parts[1].clone());
        assert!(!e.caught_up(), "member 2 has not announced");
        assert_eq!(e.export_seqs(), one.export_seqs());
        let mut two = seeded(2, 1);
        for part in submitted(&two.on_config_change(&regular(&[0, 1, 2])), true) {
            deliver(&mut e, 2, part);
        }
        assert!(e.caught_up());
        assert_eq!(e.export_seqs().len(), 1_001);
    }

    #[test]
    fn gate_opens_alone_and_resets_on_each_regular_config() {
        let mut e = GroupEngine::new(ParticipantId::new(0));
        assert!(!e.caught_up(), "no configuration yet");
        e.on_config_change(&regular(&[0]));
        assert!(e.caught_up(), "alone, it waits for no one");
        // The same pid set again, as when a peer restarts inside the
        // token-loss timeout, still resets the wait.
        e.on_config_change(&regular(&[0, 1]));
        assert!(!e.caught_up());
        e.on_config_change(&regular(&[0, 1]));
        assert!(!e.caught_up());
        let mut one = GroupEngine::new(ParticipantId::new(1));
        let parts = submitted(&one.on_config_change(&regular(&[0, 1])), true);
        assert_eq!(parts.len(), 1, "an empty table is one part");
        e.on_delivery(&delivery_from(1, parts[0].clone(), Service::Agreed, 1));
        assert!(e.caught_up());
        e.on_config_change(&regular(&[0, 1]));
        assert!(!e.caught_up(), "each regular configuration resets the wait");
    }

    #[test]
    fn transitional_config_does_not_prune() {
        let mut e = GroupEngine::new(ParticipantId::new(0));
        e.client_connect("local").unwrap();
        let remote_join = packing::bare(encode_group_message(&GroupMessage {
            sender: ClientId {
                daemon: ParticipantId::new(5),
                name: "remote".into(),
            },
            seq: 0,
            action: GroupAction::Join { group: "g".into() },
        }));
        e.on_delivery(&delivery_of(remote_join, Service::Agreed, 1));
        e.on_config_change(&ConfigChange {
            ring_id: RingId::new(ParticipantId::new(0), 8),
            members: vec![ParticipantId::new(0)],
            transitional: true,
        });
        assert_eq!(
            e.groups().members("g").len(),
            1,
            "transitional configs do not prune membership"
        );
    }

    #[test]
    fn unknown_and_duplicate_clients_rejected() {
        let mut e = GroupEngine::new(ParticipantId::new(0));
        assert!(matches!(
            e.client_join("ghost", "g"),
            Err(EngineError::UnknownClient(_))
        ));
        e.client_connect("a").unwrap();
        assert!(matches!(
            e.client_connect("a"),
            Err(EngineError::DuplicateClient(_))
        ));
    }

    #[test]
    fn bad_group_counts_rejected() {
        let mut e = GroupEngine::new(ParticipantId::new(0));
        e.client_connect("a").unwrap();
        assert!(e
            .client_multicast("a", &[], Bytes::new(), Service::Agreed)
            .is_err());
        let too_many: Vec<String> = (0..MAX_GROUPS + 1).map(|i| format!("g{i}")).collect();
        let refs: Vec<&str> = too_many.iter().map(String::as_str).collect();
        assert!(e
            .client_multicast("a", &refs, Bytes::new(), Service::Agreed)
            .is_err());
    }

    #[test]
    fn large_message_fragments_and_reassembles() {
        let mut engines = vec![
            GroupEngine::new(ParticipantId::new(0)),
            GroupEngine::new(ParticipantId::new(1)),
        ];
        engines[0].client_connect("a").unwrap();
        engines[1].client_connect("b").unwrap();
        let mut seq = 0;
        let out = engines[1].client_join("b", "g").unwrap();
        propagate(out, &mut engines, &mut seq);

        // 160,000 bytes: more than three 48 KiB ring payloads.
        let big = Bytes::from(
            (0..40_000u32)
                .flat_map(|i| i.to_le_bytes())
                .collect::<Vec<u8>>(),
        );
        let out = engines[0]
            .client_multicast("a", &["g"], big.clone(), Service::Agreed)
            .unwrap();
        assert_eq!(out.len(), 4, "big message must fragment");
        let locals = propagate(out, &mut engines, &mut seq);
        assert_eq!(locals[1].len(), 1, "exactly one reassembled delivery");
        match &locals[1][0].1 {
            ClientEvent::Message { payload, .. } => assert_eq!(payload, &big),
            other => panic!("expected message, got {other:?}"),
        }
    }

    #[test]
    fn sequenced_duplicates_dropped_across_daemons() {
        let mut engines = vec![
            GroupEngine::new(ParticipantId::new(0)),
            GroupEngine::new(ParticipantId::new(1)),
        ];
        engines[0].client_connect("pub").unwrap();
        engines[1].client_connect("sub").unwrap();
        let mut seq = 0;
        let out = engines[1].client_join("sub", "g").unwrap();
        propagate(out, &mut engines, &mut seq);

        // First sequenced send delivers normally.
        let out = engines[0]
            .client_multicast_sequenced(
                "pub",
                &["g"],
                Bytes::from_static(b"m1"),
                Service::Agreed,
                1,
            )
            .unwrap();
        let locals = propagate(out, &mut engines, &mut seq);
        assert_eq!(locals[1].len(), 1);

        // The same client reconnects at daemon 1 and resubmits seq 1, then
        // sends seq 2: the duplicate is suppressed everywhere, the new
        // message goes through.
        engines[1].client_connect("pub").unwrap();
        let dup = engines[1]
            .client_multicast_sequenced(
                "pub",
                &["g"],
                Bytes::from_static(b"m1"),
                Service::Agreed,
                1,
            )
            .unwrap();
        let locals = propagate(dup, &mut engines, &mut seq);
        assert!(locals[1].is_empty(), "duplicate seq must be dropped");
        assert_eq!(engines[0].duplicates_dropped(), 1);
        assert_eq!(engines[1].duplicates_dropped(), 1);
        let fresh = engines[1]
            .client_multicast_sequenced(
                "pub",
                &["g"],
                Bytes::from_static(b"m2"),
                Service::Agreed,
                2,
            )
            .unwrap();
        let locals = propagate(fresh, &mut engines, &mut seq);
        assert_eq!(locals[1].len(), 1, "next seq delivers");
        assert_eq!(engines[0].last_seq("pub"), 2);

        // Unsequenced (seq 0) messages are never suppressed.
        let a = engines[1]
            .client_multicast("pub", &["g"], Bytes::from_static(b"u"), Service::Agreed)
            .unwrap();
        let b = engines[1]
            .client_multicast("pub", &["g"], Bytes::from_static(b"u"), Service::Agreed)
            .unwrap();
        let mut both = a;
        both.extend(b);
        let locals = propagate(both, &mut engines, &mut seq);
        assert_eq!(locals[1].len(), 2, "seq 0 messages always deliver");
    }

    #[test]
    fn undecodable_delivery_is_dropped() {
        let mut e = GroupEngine::new(ParticipantId::new(0));
        let out = e.on_delivery(&delivery_of(
            Bytes::from_static(b"\xff\xff garbage"),
            Service::Agreed,
            1,
        ));
        assert!(out.is_empty());
    }
}
