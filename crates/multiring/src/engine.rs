//! The multi-ring routing engine: one [`GroupEngine`] per ring, a
//! [`ShardMap`] deciding which ring orders which group, and a [`Merger`]
//! folding the R delivery streams back into one total order.
//!
//! Like [`GroupEngine`], the [`MultiRingEngine`] is pure: runtimes feed
//! it client commands plus each ring's deliveries and configuration
//! changes, and carry out the [`MultiOutput`]s — submissions now carry
//! the ring they must be ordered on, and local client events come out
//! already merged across rings. Every daemon running the same shard map
//! over the same per-ring streams emits client events in the same merged
//! order, which is the whole point.

use std::collections::{BTreeMap, BTreeSet};

use accelring_core::{Delivery, ParticipantId, RingIdx, Round, Service};
use accelring_daemon::packing::{self, MapMsg, MigMsg, MigOp};
use accelring_daemon::proto::decode_group_message;
use accelring_daemon::{
    ClientEvent, EngineError, EngineOutput, GroupAction, GroupEngine, GroupMessage,
};
use accelring_membership::ConfigChange;
use bytes::Bytes;

use crate::merge::{MergedEntry, Merger};
use crate::migrate::{HeldSend, Migration, MigrationCounters};
use crate::shard::ShardMap;

/// An effect the runtime must carry out for the multi-ring engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultiOutput {
    /// Submit this payload for totally ordered multicast on one ring.
    Submit {
        /// The ring that must order it.
        ring: RingIdx,
        /// Encoded group message.
        payload: Bytes,
        /// Requested service.
        service: Service,
    },
    /// Hand an event to a local client (already cross-ring merged).
    Local {
        /// The local client's name.
        client: String,
        /// The event.
        event: ClientEvent,
    },
}

/// Errors from multi-ring client operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultiRingError {
    /// The underlying per-ring engine rejected the operation.
    Engine(EngineError),
    /// A multicast addressed groups sharded onto different rings. One
    /// message is ordered by exactly one ring (as in Multi-Ring Paxos);
    /// the caller must split the send or co-locate the groups with
    /// [`ShardMap::assign`].
    CrossRing {
        /// The offending group list.
        groups: Vec<String>,
        /// The distinct rings they map to.
        rings: Vec<RingIdx>,
    },
    /// A migration request was rejected before it touched the wire
    /// (nonexistent target, group already migrating, …).
    Migration {
        /// The group that was asked to move.
        group: String,
        /// Why it cannot.
        reason: String,
    },
    /// An application asked to attach to a daemon that has a different
    /// one mounted, or none (see
    /// [`MultiRingDaemon::attach_app`](crate::MultiRingDaemon::attach_app)).
    AppNotMounted,
}

impl std::fmt::Display for MultiRingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiRingError::Engine(e) => write!(f, "{e}"),
            MultiRingError::CrossRing { groups, rings } => {
                write!(
                    f,
                    "groups {groups:?} span rings {rings:?}; a multicast must target one ring"
                )
            }
            MultiRingError::Migration { group, reason } => {
                write!(f, "cannot migrate group {group:?}: {reason}")
            }
            MultiRingError::AppNotMounted => {
                write!(f, "the application is not the one mounted on this daemon")
            }
        }
    }
}

impl std::error::Error for MultiRingError {}

impl From<EngineError> for MultiRingError {
    fn from(e: EngineError) -> Self {
        MultiRingError::Engine(e)
    }
}

/// The per-daemon multi-ring engine.
#[derive(Debug)]
pub struct MultiRingEngine {
    shards: ShardMap,
    engines: Vec<GroupEngine>,
    merger: Merger<Vec<EngineOutput>>,
    /// Groups each local client has joined (join minus leave), used to
    /// replay joins onto a migrating group's new ring.
    local_joins: BTreeMap<String, BTreeSet<String>>,
    /// Per-ring migration fences: a group in `frozen[r]` has its data
    /// messages dropped when ring `r` orders them. Mutated *only* by
    /// deliveries from ring `r`'s own total order (Start adds on the
    /// source, Abort removes on the source, Open removes on the target),
    /// so every observer of the same streams drops the same messages —
    /// the zero-gap/zero-overlap argument rests on this.
    frozen: Vec<BTreeSet<String>>,
    /// In-flight migrations, keyed by group. Each entry lives on its
    /// own `(group, from)` stream: created by a Start ordered on `from`,
    /// removed by the Commit/Abort ordered on `from`. A group can
    /// briefly hold *two* entries at an observer consuming the rings
    /// with cross-ring skew — a back-migration's Start (on the new
    /// source ring) seen before the previous handoff's Commit (on the
    /// old one) — which is exactly why the key cannot be the group
    /// alone: each decision must find *its* entry by `(from, to)`.
    migrations: BTreeMap<String, Vec<Migration>>,
    /// Readiness proofs delivered on a target ring before this observer
    /// processed the source ring's Start (cross-ring processing skew),
    /// keyed by `(group, from, to)` so a parked proof can only ever be
    /// consumed by the Start of the same migration direction.
    pending_ready: BTreeMap<(String, u16, u16), BTreeSet<u16>>,
    counters: MigrationCounters,
    /// Shard-map epochs adopted from ordered announcements (strictly
    /// newer than the local map at delivery time).
    maps_adopted: u64,
    /// Shard-map announcements this daemon submitted (one per regular
    /// configuration installed while its map was versioned).
    maps_announced: u64,
}

impl MultiRingEngine {
    /// Creates the engine for daemon `pid` over `shards.rings()` rings.
    pub fn new(pid: ParticipantId, shards: ShardMap) -> MultiRingEngine {
        let rings = shards.rings();
        MultiRingEngine {
            shards,
            engines: (0..rings).map(|_| GroupEngine::new(pid)).collect(),
            merger: Merger::new(rings),
            local_joins: BTreeMap::new(),
            frozen: (0..rings).map(|_| BTreeSet::new()).collect(),
            migrations: BTreeMap::new(),
            pending_ready: BTreeMap::new(),
            counters: MigrationCounters::default(),
            maps_adopted: 0,
            maps_announced: 0,
        }
    }

    fn pid(&self) -> ParticipantId {
        self.engines[0].pid()
    }

    /// Number of rings this engine routes over.
    pub fn rings(&self) -> u16 {
        self.shards.rings()
    }

    /// The shard map in force.
    pub fn shards(&self) -> &ShardMap {
        &self.shards
    }

    /// The ring that orders `group` under the current shard map.
    pub fn ring_of(&self, group: &str) -> RingIdx {
        self.shards.ring_of(group)
    }

    /// Raises `ring`'s merge floor to `round` and returns the merged
    /// events this releases. The caller guarantees that every later
    /// delivery of the ring carries a round of at least `round` — the
    /// runtime passes the ring node's
    /// [`merge_floor`](accelring_core::Participant::merge_floor), read
    /// after it fed the step's deliveries in.
    pub fn advance_floor(&mut self, ring: RingIdx, round: Round) -> Vec<MultiOutput> {
        let released = self.merger.advance(ring, round);
        self.release(released)
    }

    /// The rings whose floors keep the merge's head entry from releasing
    /// ([`Merger::gates`]): a resting one must turn before the merge can
    /// move on.
    pub fn merge_gates(&self) -> Vec<RingIdx> {
        self.merger.gates()
    }

    /// Migration lifecycle counters this engine has accumulated.
    pub fn migration_counters(&self) -> MigrationCounters {
        self.counters
    }

    /// Shard-map epochs adopted from ordered announcements.
    pub fn maps_adopted(&self) -> u64 {
        self.maps_adopted
    }

    /// Shard-map announcements this daemon submitted.
    pub fn maps_announced(&self) -> u64 {
        self.maps_announced
    }

    /// The highest merge slot released so far.
    pub fn merge_cursor(&self) -> u64 {
        self.merger.cursor()
    }

    /// The current shard map as an announcement.
    fn map_msg(&self) -> MapMsg {
        MapMsg {
            version: self.shards.version(),
            rings: self.shards.rings(),
            sender: self.pid().as_u16(),
            overrides: self
                .shards
                .placements()
                .into_iter()
                .map(|(g, r)| (g, r.as_u16()))
                .collect(),
        }
    }

    /// Adopts a peer-announced map if strictly newer than the local one
    /// (see [`ShardMap::adopt`]). A map built for a different ring count
    /// is refused: its placements would reroute groups onto rings this
    /// deployment numbers differently.
    fn adopt_map(&mut self, msg: &MapMsg) {
        if msg.rings != self.rings() {
            return;
        }
        let placements: Vec<(String, RingIdx)> = msg
            .overrides
            .iter()
            .map(|(g, r)| (g.clone(), RingIdx::new(*r)))
            .collect();
        if self.shards.adopt(msg.version, &placements) {
            self.maps_adopted += 1;
        }
    }

    /// Every ring's per-client dedup watermarks. Kept per ring, never
    /// max-merged across rings: a resubmission legitimately re-ordered
    /// on a group's *new* home ring must not be suppressed by a
    /// watermark its *old* ring set, or observers' merged orders would
    /// diverge.
    pub fn export_seqs(&self) -> Vec<Vec<(String, u64)>> {
        self.engines.iter().map(GroupEngine::export_seqs).collect()
    }

    /// Seeds per-ring dedup watermarks, as a supervisor carries them into
    /// a restarted daemon (max-merge per ring; extra rings are ignored).
    pub fn seed_seqs(&mut self, seqs: &[Vec<(String, u64)>]) {
        for (engine, ring_seqs) in self.engines.iter_mut().zip(seqs) {
            engine.seed_seqs(ring_seqs);
        }
    }

    /// Whether every ring has delivered the watermarks of every other
    /// member of its latest regular configuration
    /// ([`GroupEngine::caught_up`]). By then each such member's map
    /// announcement, ordered just before, has been delivered too.
    pub fn caught_up(&self) -> bool {
        self.engines.iter().all(GroupEngine::caught_up)
    }

    /// The migrations currently in flight: `(group, from, to)` triples.
    /// The runtime polls this to drive abort timers.
    pub fn migrations_in_flight(&self) -> Vec<(String, RingIdx, RingIdx)> {
        self.migrations
            .values()
            .flatten()
            .map(|m| (m.group.clone(), m.from, m.to))
            .collect()
    }

    /// The in-flight migration of `group`, if any (tests, reports).
    /// Under cross-ring skew a group can hold more than one entry; this
    /// returns the one fencing the group's current local home if
    /// present, else the newest.
    pub fn migration(&self, group: &str) -> Option<&Migration> {
        let home = self.shards.ring_of(group);
        let v = self.migrations.get(group)?;
        v.iter().find(|m| m.from == home).or_else(|| v.last())
    }

    /// Whether `group` is behind a migration fence on `ring` (its data
    /// ordered by that ring is being dropped).
    pub fn is_frozen(&self, ring: RingIdx, group: &str) -> bool {
        self.frozen[ring.as_usize()].contains(group)
    }

    /// Starts an online migration of `group` to ring `to`: returns the
    /// Start fence to submit on the group's current (source) ring. State
    /// changes only when the fence comes back through the source ring's
    /// total order, so a lost submission is simply a migration that
    /// never began.
    ///
    /// # Errors
    ///
    /// Returns [`MultiRingError::Migration`] if the target does not
    /// exist or is the current ring, or if the group is already
    /// migrating or still fenced from an earlier handoff.
    pub fn begin_migration(
        &mut self,
        group: &str,
        to: RingIdx,
    ) -> Result<Vec<MultiOutput>, MultiRingError> {
        let reject = |reason: String| MultiRingError::Migration {
            group: group.to_string(),
            reason,
        };
        accelring_daemon::proto::validate_name(group).map_err(|e| reject(e.to_string()))?;
        let from = self.shards.ring_of(group);
        if to.as_u16() >= self.rings() {
            return Err(reject(format!(
                "target ring {} does not exist",
                to.as_u16()
            )));
        }
        if to == from {
            return Err(reject(format!(
                "group already lives on ring {}",
                to.as_u16()
            )));
        }
        if self.migrations.contains_key(group) {
            return Err(reject("a migration is already in flight".to_string()));
        }
        if self.frozen[from.as_usize()].contains(group) {
            return Err(reject(format!("group is fenced on ring {}", from.as_u16())));
        }
        Ok(self.submit_mig(from, MigOp::Start, group, from, to))
    }

    /// Escalates an in-flight migration to abort: returns the Abort to
    /// submit on the source ring (where it races the commit — whichever
    /// the ring orders first wins, identically at every observer). The
    /// runtime calls this when the readiness barrier misses its
    /// deadline, e.g. because the target ring partitioned. No-op if the
    /// group is not migrating.
    pub fn abort_migration(&mut self, group: &str) -> Vec<MultiOutput> {
        let Some(m) = self.migration(group) else {
            return Vec::new();
        };
        let (from, to) = (m.from, m.to);
        self.submit_mig(from, MigOp::Abort, group, from, to)
    }

    fn submit_mig(
        &mut self,
        ring: RingIdx,
        op: MigOp,
        group: &str,
        from: RingIdx,
        to: RingIdx,
    ) -> Vec<MultiOutput> {
        let payload = packing::mig_payload(&MigMsg {
            op,
            group: group.to_string(),
            from: from.as_u16(),
            to: to.as_u16(),
            sender: self.pid().as_u16(),
        });
        vec![MultiOutput::Submit {
            ring,
            payload,
            service: Service::Agreed,
        }]
    }

    /// Sequenced messages dropped as duplicates, summed over rings.
    pub fn duplicates_dropped(&self) -> u64 {
        self.engines
            .iter()
            .map(GroupEngine::duplicates_dropped)
            .sum()
    }

    /// The highest session sequence number seen for `client` on the ring
    /// that orders `group`-less traffic — across all rings, the max.
    pub fn last_seq(&self, client: &str) -> u64 {
        self.engines
            .iter()
            .map(|e| e.last_seq(client))
            .max()
            .unwrap_or(0)
    }

    fn ring_for_groups(&self, groups: &[&str]) -> Result<RingIdx, MultiRingError> {
        let mut rings: Vec<RingIdx> = groups.iter().map(|g| self.shards.ring_of(g)).collect();
        rings.sort_unstable();
        rings.dedup();
        match rings.as_slice() {
            [one] => Ok(*one),
            _ => Err(MultiRingError::CrossRing {
                groups: groups.iter().map(|g| g.to_string()).collect(),
                rings,
            }),
        }
    }

    fn submits(ring: RingIdx, outputs: Vec<EngineOutput>) -> Vec<MultiOutput> {
        outputs
            .into_iter()
            .map(|out| match out {
                EngineOutput::Submit { payload, service } => MultiOutput::Submit {
                    ring,
                    payload,
                    service,
                },
                // Client operations only ever produce submissions; local
                // events flow exclusively from deliveries, which keeps
                // every client-visible event inside the merged order.
                EngineOutput::Local { client, event } => MultiOutput::Local { client, event },
            })
            .collect()
    }

    /// Registers a local client on every ring (its groups may shard
    /// anywhere).
    ///
    /// # Errors
    ///
    /// Returns an error for invalid or duplicate names.
    pub fn client_connect(&mut self, name: &str) -> Result<(), MultiRingError> {
        for (i, engine) in self.engines.iter_mut().enumerate() {
            if let Err(e) = engine.client_connect(name) {
                // Roll back the rings already joined so a failed connect
                // leaves no trace.
                for engine in self.engines.iter_mut().take(i) {
                    let _ = engine.client_disconnect(name);
                }
                return Err(e.into());
            }
        }
        Ok(())
    }

    /// Unregisters a local client; departures are multicast on every
    /// ring so all replicas prune it.
    ///
    /// # Errors
    ///
    /// Returns [`MultiRingError::Engine`] if not connected.
    pub fn client_disconnect(&mut self, name: &str) -> Result<Vec<MultiOutput>, MultiRingError> {
        let mut out = Vec::new();
        for ring in 0..self.engines.len() {
            let outputs = self.engines[ring].client_disconnect(name)?;
            out.extend(Self::submits(RingIdx::new(ring as u16), outputs));
        }
        self.local_joins.remove(name);
        Ok(out)
    }

    /// The named client joins `group` on the ring the shard map routes
    /// it to.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown clients or invalid group names.
    pub fn client_join(
        &mut self,
        name: &str,
        group: &str,
    ) -> Result<Vec<MultiOutput>, MultiRingError> {
        let ring = self.shards.ring_of(group);
        let outputs = self.engines[ring.as_usize()].client_join(name, group)?;
        self.local_joins
            .entry(name.to_string())
            .or_default()
            .insert(group.to_string());
        Ok(Self::submits(ring, outputs))
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
    ) -> Result<Vec<MultiOutput>, MultiRingError> {
        let ring = self.shards.ring_of(group);
        let outputs = self.engines[ring.as_usize()].client_leave(name, group)?;
        if let Some(joined) = self.local_joins.get_mut(name) {
            joined.remove(group);
        }
        Ok(Self::submits(ring, outputs))
    }

    /// Multicasts `payload` to one or more groups. All target groups
    /// must shard onto the same ring — one message is ordered by exactly
    /// one ring.
    ///
    /// # Errors
    ///
    /// Returns [`MultiRingError::CrossRing`] when the groups span rings,
    /// or the per-ring engine's error otherwise.
    pub fn client_multicast(
        &mut self,
        name: &str,
        groups: &[&str],
        payload: Bytes,
        service: Service,
    ) -> Result<Vec<MultiOutput>, MultiRingError> {
        self.client_multicast_sequenced(name, groups, payload, service, 0)
    }

    /// Like [`MultiRingEngine::client_multicast`] with a client-session
    /// sequence number for duplicate suppression. A given sender name
    /// must keep a group set on one ring for suppression to apply (the
    /// seen-sequence map is per ring).
    ///
    /// # Errors
    ///
    /// Returns [`MultiRingError::CrossRing`] when the groups span rings,
    /// or the per-ring engine's error otherwise.
    pub fn client_multicast_sequenced(
        &mut self,
        name: &str,
        groups: &[&str],
        payload: Bytes,
        service: Service,
        seq: u64,
    ) -> Result<Vec<MultiOutput>, MultiRingError> {
        let ring = self.ring_for_groups(groups)?;
        // A send into a migrating group is held, not submitted: the
        // commit or abort decision flushes it to whichever ring ends up
        // owning the group, after the handoff point in that ring's
        // order. (Only for known clients — errors must still surface.)
        if let Some(mig_group) = groups.iter().find(|g| self.migrations.contains_key(**g)) {
            if self.engines[ring.as_usize()]
                .local_clients()
                .iter()
                .any(|c| c == name)
            {
                let held = HeldSend {
                    client: name.to_string(),
                    groups: groups.iter().map(|g| g.to_string()).collect(),
                    payload,
                    service,
                    seq,
                };
                let mig_group = (*mig_group).to_string();
                self.holding_migration_mut(&mig_group)
                    .expect("checked above")
                    .held
                    .push(held);
                self.counters.redirected += 1;
                return Ok(Vec::new());
            }
        }
        let outputs = self.engines[ring.as_usize()]
            .client_multicast_sequenced(name, groups, payload, service, seq)?;
        Ok(Self::submits(ring, outputs))
    }

    /// Multicasts `payload` to groups that may span rings by splitting
    /// the send into one fragment per ring, each targeting that ring's
    /// subset of the groups (same payload, same sequence). A receiver
    /// subscribed across the span observes one fragment per ring in the
    /// merged order; state machines that need atomicity (the KV store's
    /// cross-shard transactions) buffer fragments by `(sender, seq)`
    /// and commit when every involved group has been covered — the
    /// commit point, the merged position of the last fragment, is a
    /// pure function of the merged stream and therefore identical at
    /// every replica. Per-ring dedup watermarks stay sound: a sender's
    /// sequences remain strictly increasing within each ring because
    /// fragment routing is deterministic in the shard map.
    ///
    /// Groups on one ring degrade to a plain
    /// [`MultiRingEngine::client_multicast_sequenced`].
    ///
    /// # Errors
    ///
    /// Returns the per-ring engine's error (unknown client, invalid
    /// group name). An error on a later ring does not retract fragments
    /// already produced for earlier rings — the caller treats the send
    /// as in-doubt and may resubmit under the same sequence.
    pub fn client_multicast_spanning(
        &mut self,
        name: &str,
        groups: &[&str],
        payload: Bytes,
        service: Service,
        seq: u64,
    ) -> Result<Vec<MultiOutput>, MultiRingError> {
        let mut by_ring: std::collections::BTreeMap<RingIdx, Vec<&str>> =
            std::collections::BTreeMap::new();
        for g in groups {
            by_ring.entry(self.shards.ring_of(g)).or_default().push(g);
        }
        if by_ring.len() <= 1 {
            return self.client_multicast_sequenced(name, groups, payload, service, seq);
        }
        let mut out = Vec::new();
        for subset in by_ring.into_values() {
            // Each fragment re-routes through the sequenced path so a
            // subset whose group is mid-migration is held and flushed
            // exactly like a single-ring send.
            out.extend(self.client_multicast_sequenced(
                name,
                &subset,
                payload.clone(),
                service,
                seq,
            )?);
        }
        Ok(out)
    }

    fn release(&mut self, released: Vec<MergedEntry<Vec<EngineOutput>>>) -> Vec<MultiOutput> {
        released
            .into_iter()
            .flat_map(|entry| entry.into_item())
            .map(|out| match out {
                EngineOutput::Local { client, event } => MultiOutput::Local { client, event },
                // Deliveries never produce submissions.
                EngineOutput::Submit { payload, service } => MultiOutput::Submit {
                    ring: RingIdx::new(0),
                    payload,
                    service,
                },
            })
            .collect()
    }

    /// Processes one ordered delivery from `ring`, producing merged
    /// local client events. Every delivery — including control messages
    /// and undecodable payloads — raises the ring's merge floor to its
    /// round.
    pub fn on_delivery(&mut self, ring: RingIdx, delivery: &Delivery) -> Vec<MultiOutput> {
        if let Some(mig) = packing::parse_mig(&delivery.payload) {
            // Migration control rides the total order so every observer
            // applies the state transition at the same stream position;
            // it raises the merge floor and emits no client events of
            // its own.
            let mut out = self.on_mig_delivery(ring, &mig);
            let released = self.merger.advance(ring, delivery.round);
            out.extend(self.release(released));
            return out;
        }
        if let Some(map) = packing::parse_map(&delivery.payload) {
            // A shard-map epoch announcement: adopt-if-strictly-newer at
            // the same stream position everywhere. Live daemons already
            // at this version drop it; a rejoined daemon routing from a
            // stale map converges here without replaying history.
            self.adopt_map(&map);
            let released = self.merger.advance(ring, delivery.round);
            return self.release(released);
        }
        match self.filter_frozen(ring, &delivery.payload, delivery.service) {
            Some(mut out) => {
                // The message was fenced: pure watermark.
                let released = self.merger.advance(ring, delivery.round);
                out.extend(self.release(released));
                out
            }
            None => self.deliver_to_engine(ring, delivery),
        }
    }

    fn deliver_to_engine(&mut self, ring: RingIdx, delivery: &Delivery) -> Vec<MultiOutput> {
        let outputs = self.engines[ring.as_usize()].on_delivery(delivery);
        let released = if outputs.is_empty() {
            self.merger.advance(ring, delivery.round)
        } else {
            self.merger.push(ring, delivery.round, outputs)
        };
        self.release(released)
    }

    /// Applies the migration fence to one ring payload. A data message
    /// whose target groups are *all* frozen on `ring` is dropped —
    /// identically at every observer, because the frozen sets are a pure
    /// function of the ring streams — and this daemon's own dropped send
    /// is recovered into the migration's held queue (or rerouted outright
    /// if the decision already landed).
    ///
    /// Returns `None` when the delivery passes untouched, otherwise the
    /// redirect submissions of the dropped message. Fragments bypass the
    /// fence (they reassemble identically everywhere, so determinism
    /// holds; the assembled message leaks past the fence exactly once — a
    /// documented limitation for large messages in migrating groups).
    fn filter_frozen(
        &mut self,
        ring: RingIdx,
        payload: &Bytes,
        service: Service,
    ) -> Option<Vec<MultiOutput>> {
        let frozen = &self.frozen[ring.as_usize()];
        if frozen.is_empty() {
            return None;
        }
        let mut message = packing::unpack(payload.clone()).ok()?;
        let gm = decode_group_message(&mut message).ok()?;
        // Membership changes and partially frozen multi-group sends pass
        // through: deterministic either way, and the commit replay
        // reconciles membership on the new home ring.
        let frozen_all = matches!(
            &gm.action,
            GroupAction::Data { groups, .. }
                if !groups.is_empty() && groups.iter().all(|g| frozen.contains(g))
        );
        if !frozen_all {
            return None;
        }
        if gm.sender.daemon != self.pid() {
            return Some(Vec::new());
        }
        Some(self.redirect_own(gm, service))
    }

    /// Recovers one of this daemon's own sends that the fence dropped.
    fn redirect_own(&mut self, gm: GroupMessage, service: Service) -> Vec<MultiOutput> {
        let GroupMessage {
            sender,
            seq,
            action: GroupAction::Data { groups, payload },
        } = gm
        else {
            return Vec::new();
        };
        self.counters.redirected += 1;
        if let Some(g) = groups.iter().find(|g| self.migrations.contains_key(*g)) {
            let g = g.clone();
            self.holding_migration_mut(&g)
                .expect("checked above")
                .held
                .push(HeldSend {
                    client: sender.name,
                    groups,
                    payload,
                    service,
                    seq,
                });
            return Vec::new();
        }
        // The commit (or abort) already landed and removed the
        // migration: the shard map knows the group's home — resubmit
        // there directly. Duplicate suppression makes this exactly-once
        // even if the original also surfaces somewhere.
        let refs: Vec<&str> = groups.iter().map(String::as_str).collect();
        self.client_multicast_sequenced(&sender.name, &refs, payload, service, seq)
            .unwrap_or_default()
    }

    /// Applies one ordered migration control message. Deliveries on the
    /// wrong ring, duplicates, and stale decisions are ignored — the
    /// first decision a stream orders wins, at every observer alike.
    fn on_mig_delivery(&mut self, ring: RingIdx, mig: &MigMsg) -> Vec<MultiOutput> {
        let rings = self.rings();
        if mig.from >= rings || mig.to >= rings || mig.from == mig.to {
            return Vec::new();
        }
        let (from, to) = (RingIdx::new(mig.from), RingIdx::new(mig.to));
        match mig.op {
            MigOp::Start => {
                // Guarded only by *source-stream-pure* state: the fence
                // set of `from` and whether an entry with this `from`
                // already exists (both mutated solely by this ring's
                // deliveries). In particular the group having *some*
                // entry is NOT a reason to ignore — under cross-ring
                // skew a back-migration's Start arrives here while the
                // previous handoff's entry (sourced on the other ring)
                // is still open, and ignoring it would leave this ring
                // unfenced, double-delivering everything past the fence.
                if ring != from
                    || self.frozen[from.as_usize()].contains(&mig.group)
                    || self
                        .migrations
                        .get(&mig.group)
                        .is_some_and(|v| v.iter().any(|m| m.from == from))
                {
                    return Vec::new();
                }
                self.counters.started += 1;
                self.frozen[from.as_usize()].insert(mig.group.clone());
                // The barrier: every daemon hosting a member at the
                // fence point must prove itself on the target ring. The
                // source ring's table is a pure function of the source
                // stream, so `expected` is identical everywhere.
                let expected: BTreeSet<u16> = self.engines[from.as_usize()]
                    .groups()
                    .members(&mig.group)
                    .iter()
                    .map(|c| c.daemon.as_u16())
                    .collect();
                let ready = self
                    .pending_ready
                    .remove(&(mig.group.clone(), mig.from, mig.to))
                    .unwrap_or_default();
                self.migrations
                    .entry(mig.group.clone())
                    .or_default()
                    .push(Migration {
                        group: mig.group.clone(),
                        from,
                        to,
                        expected,
                        ready,
                        held: Vec::new(),
                        commit_requested: false,
                    });
                let mut out = self.replay_joins_onto(&mig.group, to);
                // Sender-FIFO puts this daemon's Ready after its join
                // replays in the target ring's order: when the barrier
                // is met, every member join is already ordered on the
                // target, which is the zero-gap guarantee.
                out.extend(self.submit_mig(to, MigOp::Ready, &mig.group, from, to));
                out.extend(self.maybe_commit(&mig.group, from, to));
                out
            }
            MigOp::Ready => {
                if ring != to {
                    return Vec::new();
                }
                let matched = self
                    .migrations
                    .get_mut(&mig.group)
                    .and_then(|v| v.iter_mut().find(|m| m.from == from && m.to == to))
                    .map(|m| m.ready.insert(mig.sender))
                    .is_some();
                if matched {
                    return self.maybe_commit(&mig.group, from, to);
                }
                // Cross-ring skew: this observer has not yet processed
                // the source ring's Start. Park the proof under the full
                // migration direction so only that Start consumes it.
                self.pending_ready
                    .entry((mig.group.clone(), mig.from, mig.to))
                    .or_default()
                    .insert(mig.sender);
                Vec::new()
            }
            MigOp::Commit => {
                if ring != from {
                    return Vec::new();
                }
                let Some(m) = self.remove_migration(&mig.group, from, to) else {
                    return Vec::new(); // duplicate / already decided
                };
                self.counters.committed += 1;
                self.pending_ready
                    .remove(&(mig.group.clone(), mig.from, mig.to));
                self.shards.assign(&mig.group, to);
                // The group stays frozen on the source: its fence only
                // reopens if a later migration brings the group back and
                // its Open is ordered here.
                let mut out = self.replay_joins_onto(&mig.group, to);
                out.extend(self.replay_leaves_onto(&mig.group, to));
                out.extend(self.submit_mig(to, MigOp::Open, &mig.group, from, to));
                out.extend(self.flush_held(m.held));
                out
            }
            MigOp::Abort => {
                if ring != from {
                    return Vec::new();
                }
                let Some(m) = self.remove_migration(&mig.group, from, to) else {
                    return Vec::new(); // lost the race against a commit
                };
                self.counters.aborted += 1;
                self.pending_ready
                    .remove(&(mig.group.clone(), mig.from, mig.to));
                self.frozen[from.as_usize()].remove(&mig.group);
                // Held sends flush back to the source, which never
                // stopped serving the group's order.
                self.flush_held(m.held)
            }
            MigOp::Open => {
                if ring != to {
                    return Vec::new();
                }
                // Ordered on the group's new home: reopen it there (a
                // no-op unless an earlier migration away from this ring
                // had fenced it — the back-migration case).
                self.frozen[to.as_usize()].remove(&mig.group);
                Vec::new()
            }
        }
    }

    /// The entry a held client send for `group` lands in when any
    /// migration of it is in flight: the one fencing the group's
    /// current local home if present (its decision is the one that
    /// flushes toward the final owner), else the newest entry. `None`
    /// only when no entry exists.
    fn holding_migration_mut(&mut self, group: &str) -> Option<&mut Migration> {
        let home = self.shards.ring_of(group);
        let v = self.migrations.get_mut(group)?;
        if let Some(i) = v.iter().position(|m| m.from == home) {
            v.get_mut(i)
        } else {
            v.last_mut()
        }
    }

    /// Removes and returns the in-flight entry of `group` matching the
    /// exact `(from, to)` direction, dropping the group key once its
    /// last entry is gone.
    fn remove_migration(&mut self, group: &str, from: RingIdx, to: RingIdx) -> Option<Migration> {
        let v = self.migrations.get_mut(group)?;
        let i = v.iter().position(|m| m.from == from && m.to == to)?;
        let m = v.remove(i);
        if v.is_empty() {
            self.migrations.remove(group);
        }
        Some(m)
    }

    /// Submits the commit decision once the readiness barrier is met
    /// (at most once per daemon; delivery-side dedup handles the rest).
    fn maybe_commit(&mut self, group: &str, from: RingIdx, to: RingIdx) -> Vec<MultiOutput> {
        let Some(m) = self
            .migrations
            .get_mut(group)
            .and_then(|v| v.iter_mut().find(|m| m.from == from && m.to == to))
        else {
            return Vec::new();
        };
        if m.commit_requested || !m.barrier_met() {
            return Vec::new();
        }
        m.commit_requested = true;
        self.submit_mig(from, MigOp::Commit, group, from, to)
    }

    /// Replays this daemon's local joins of `group` onto `ring`
    /// (idempotent at the replicas).
    fn replay_joins_onto(&mut self, group: &str, ring: RingIdx) -> Vec<MultiOutput> {
        let clients: Vec<String> = self
            .local_joins
            .iter()
            .filter(|(_, joined)| joined.contains(group))
            .map(|(client, _)| client.clone())
            .collect();
        let mut out = Vec::new();
        for client in clients {
            if let Ok(outputs) = self.engines[ring.as_usize()].client_join(&client, group) {
                out.extend(Self::submits(ring, outputs));
            }
        }
        out
    }

    /// Reconciles mid-migration leavers: a local client that left the
    /// group after the Start replay joined it on the target must leave
    /// there too.
    fn replay_leaves_onto(&mut self, group: &str, ring: RingIdx) -> Vec<MultiOutput> {
        let pid = self.pid();
        let stale: Vec<String> = self.engines[ring.as_usize()]
            .groups()
            .members(group)
            .into_iter()
            .filter(|c| c.daemon == pid)
            .map(|c| c.name)
            .filter(|name| !matches!(self.local_joins.get(name), Some(j) if j.contains(group)))
            .collect();
        let mut out = Vec::new();
        for client in stale {
            if let Ok(outputs) = self.engines[ring.as_usize()].client_leave(&client, group) {
                out.extend(Self::submits(ring, outputs));
            }
        }
        out
    }

    /// Resubmits held sends through the normal routing path (the shard
    /// map now points at the group's post-decision home).
    fn flush_held(&mut self, held: Vec<HeldSend>) -> Vec<MultiOutput> {
        let mut out = Vec::new();
        for h in held {
            let refs: Vec<&str> = h.groups.iter().map(String::as_str).collect();
            if let Ok(outputs) =
                self.client_multicast_sequenced(&h.client, &refs, h.payload, h.service, h.seq)
            {
                out.extend(outputs);
            }
        }
        out
    }

    /// Processes an EVS configuration change on one ring. A regular
    /// configuration fences the ring's position in the merged stream; a
    /// transitional configuration is a plain merged notification.
    pub fn on_config_change(&mut self, ring: RingIdx, change: &ConfigChange) -> Vec<MultiOutput> {
        let mut out = Vec::new();
        if !change.transitional && self.shards.version() > 0 {
            // Every member announces its versioned map after every
            // regular configuration, ahead of the watermark parts the
            // group engine submits below. A restarted daemon re-enters
            // the rings through a configuration change, so the map and
            // watermarks that catch it up are ordered right after that
            // position on the very stream it rejoined, and by the time
            // a peer's last watermark part is delivered, so is its map.
            // Adoption is strictly-newer, so the copies cost only bytes.
            self.maps_announced += 1;
            out.push(MultiOutput::Submit {
                ring,
                payload: packing::map_payload(&self.map_msg()),
                service: Service::Agreed,
            });
        }
        let outputs = self.engines[ring.as_usize()].on_config_change(change);
        // The engine's submissions (watermark parts, and a merging
        // configuration's membership re-announcements) are for *this*
        // ring and leave immediately; only client-visible events enter
        // the merged stream.
        let (submits, locals): (Vec<_>, Vec<_>) = outputs
            .into_iter()
            .partition(|o| matches!(o, EngineOutput::Submit { .. }));
        out.extend(Self::submits(ring, submits));
        let released = if change.transitional {
            self.merger.push_now(ring, locals)
        } else {
            self.merger.push_fence(ring, locals)
        };
        out.extend(self.release(released));
        out
    }

    /// Flushes everything still held in the merger, in merge order.
    /// Only sound when no ring will deliver again (shutdown, offline
    /// journal replay).
    pub fn finish(&mut self) -> Vec<MultiOutput> {
        let released = self.merger.finish();
        self.release(released)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelring_core::Seq;

    const LEFT_RING: RingIdx = RingIdx::new(0);
    const RIGHT_RING: RingIdx = RingIdx::new(1);

    fn two_ring_shards() -> ShardMap {
        let mut shards = ShardMap::new(2);
        shards.assign("left", LEFT_RING);
        shards.assign("right", RIGHT_RING);
        shards
    }

    fn engine(pid: u16) -> MultiRingEngine {
        let mut e = MultiRingEngine::new(ParticipantId::new(pid), two_ring_shards());
        e.client_connect(&format!("c{pid}")).unwrap();
        e
    }

    fn submit_payloads(outputs: &[MultiOutput]) -> Vec<(RingIdx, Bytes, Service)> {
        outputs
            .iter()
            .filter_map(|o| match o {
                MultiOutput::Submit {
                    ring,
                    payload,
                    service,
                } => Some((*ring, payload.clone(), *service)),
                MultiOutput::Local { .. } => None,
            })
            .collect()
    }

    fn delivery(seq: u64, sender: u16, round: u64, payload: Bytes, service: Service) -> Delivery {
        Delivery {
            seq: Seq::new(seq),
            sender: ParticipantId::new(sender),
            round: Round::new(round),
            service,
            payload,
        }
    }

    fn messages(outputs: &[MultiOutput]) -> Vec<String> {
        outputs
            .iter()
            .filter_map(|o| match o {
                MultiOutput::Local {
                    event: ClientEvent::Message { payload, .. },
                    ..
                } => Some(String::from_utf8_lossy(payload).into_owned()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn joins_route_to_the_sharded_ring() {
        let mut e = engine(0);
        let out = e.client_join("c0", "left").unwrap();
        assert_eq!(submit_payloads(&out)[0].0, LEFT_RING);
        let out = e.client_join("c0", "right").unwrap();
        assert_eq!(submit_payloads(&out)[0].0, RIGHT_RING);
    }

    #[test]
    fn cross_ring_multicast_is_rejected() {
        let mut e = engine(0);
        let err = e
            .client_multicast(
                "c0",
                &["left", "right"],
                Bytes::from_static(b"x"),
                Service::Agreed,
            )
            .unwrap_err();
        assert!(matches!(err, MultiRingError::CrossRing { .. }));
        // Same-ring multi-group multicast is fine.
        let mut shards = two_ring_shards();
        shards.assign("also-left", LEFT_RING);
        let mut e = MultiRingEngine::new(ParticipantId::new(0), shards);
        e.client_connect("c0").unwrap();
        let out = e
            .client_multicast(
                "c0",
                &["left", "also-left"],
                Bytes::from_static(b"x"),
                Service::Agreed,
            )
            .unwrap();
        assert_eq!(submit_payloads(&out)[0].0, LEFT_RING);
    }

    #[test]
    fn disconnect_submits_on_every_ring() {
        let mut e = engine(0);
        let out = e.client_disconnect("c0").unwrap();
        let rings: Vec<RingIdx> = submit_payloads(&out).iter().map(|s| s.0).collect();
        assert_eq!(rings, vec![LEFT_RING, RIGHT_RING]);
    }

    /// Drives two observer engines with the same per-ring streams in
    /// different arrival interleavings and returns both merged message
    /// sequences.
    fn merged_orders_for(
        interleave_a: &[usize],
        interleave_b: &[usize],
    ) -> (Vec<String>, Vec<String>) {
        // Build the two per-ring streams once, from a third engine's
        // submissions: two messages on "left", two on "right".
        let mut sender = engine(9);
        let mut streams: Vec<Vec<Delivery>> = vec![Vec::new(), Vec::new()];
        let mut seqs = [0u64, 0u64];
        let mut feed = |ring: RingIdx, round: u64, outs: Vec<MultiOutput>| {
            for (r, payload, service) in submit_payloads(&outs) {
                assert_eq!(r, ring);
                let i = ring.as_usize();
                seqs[i] += 1;
                streams[i].push(delivery(seqs[i], 9, round, payload, service));
            }
        };
        feed(LEFT_RING, 0, sender.client_join("c9", "left").unwrap());
        feed(RIGHT_RING, 0, sender.client_join("c9", "right").unwrap());
        feed(
            LEFT_RING,
            1,
            sender
                .client_multicast("c9", &["left"], Bytes::from_static(b"L1"), Service::Agreed)
                .unwrap(),
        );
        feed(
            RIGHT_RING,
            1,
            sender
                .client_multicast("c9", &["right"], Bytes::from_static(b"R1"), Service::Agreed)
                .unwrap(),
        );
        feed(
            LEFT_RING,
            2,
            sender
                .client_multicast("c9", &["left"], Bytes::from_static(b"L2"), Service::Agreed)
                .unwrap(),
        );
        feed(
            RIGHT_RING,
            3,
            sender
                .client_multicast("c9", &["right"], Bytes::from_static(b"R2"), Service::Agreed)
                .unwrap(),
        );

        let run = |order: &[usize]| {
            let mut obs = MultiRingEngine::new(ParticipantId::new(9), two_ring_shards());
            obs.client_connect("c9").unwrap();
            let mut idx = [0usize, 0usize];
            let mut got = Vec::new();
            for &ring in order {
                if idx[ring] < streams[ring].len() {
                    let d = &streams[ring][idx[ring]];
                    idx[ring] += 1;
                    got.extend(messages(&obs.on_delivery(RingIdx::new(ring as u16), d)));
                }
            }
            got.extend(messages(&obs.finish()));
            got
        };
        (run(interleave_a), run(interleave_b))
    }

    #[test]
    fn merged_client_order_is_arrival_invariant() {
        let (a, b) = merged_orders_for(&[0, 0, 0, 1, 1, 1], &[1, 1, 1, 0, 0, 0]);
        assert_eq!(a.len(), 4, "all four data messages must surface");
        assert_eq!(a, b, "merged order must not depend on arrival timing");
        let (c, d) = merged_orders_for(&[0, 1, 0, 1, 0, 1], &[1, 0, 0, 1, 1, 0]);
        assert_eq!(a, c);
        assert_eq!(c, d);
    }

    #[test]
    fn token_visit_floors_advance_the_merge_without_events() {
        let mut e = engine(0);
        // Feed the join so c0 is a member of "right".
        let join = e.client_join("c0", "right").unwrap();
        let (ring, payload, service) = submit_payloads(&join)[0].clone();
        assert!(e
            .on_delivery(ring, &delivery(1, 0, 0, payload, service))
            .is_empty()); // blocked: ring 0 floor still at 0
                          // A data message on "right" at round 2 is blocked by idle ring 0.
        let m = e
            .client_multicast("c0", &["right"], Bytes::from_static(b"hi"), Service::Agreed)
            .unwrap();
        let (ring, payload, service) = submit_payloads(&m)[0].clone();
        assert!(e
            .on_delivery(ring, &delivery(2, 0, 2, payload, service))
            .is_empty());
        // The head is the join's view at round 0: ring 0 must pass it.
        // Token visits on idle ring 0 raise its floor without any
        // delivery: the view goes first, then the message at round 2.
        let out = e.advance_floor(LEFT_RING, Round::new(2));
        assert!(messages(&out).is_empty());
        let out = e.advance_floor(LEFT_RING, Round::new(3));
        assert_eq!(messages(&out), vec!["hi"]);
    }

    #[test]
    fn regular_config_fences_the_merged_stream() {
        let mut e = engine(0);
        let change = ConfigChange {
            ring_id: accelring_core::RingId::new(ParticipantId::new(0), 1),
            members: vec![ParticipantId::new(0)],
            transitional: false,
        };
        let out = e.on_config_change(RIGHT_RING, &change);
        // The fence releases nothing (both rings at slot 0 and ring 1
        // fences after anything ring 0 could still say at slot 0 — but
        // ring 0's floor equals the slot, so the Config event is held
        // until ring 0 passes slot 0). The only outputs are this
        // daemon's announcements on the reformed ring: its shard map and
        // its watermarks, for lagging peers to adopt.
        assert!(!out.iter().any(|o| matches!(o, MultiOutput::Local { .. })));
        let subs = submit_payloads(&out);
        assert_eq!(subs.len(), 2, "a map and one watermark part");
        assert!(subs.iter().all(|s| s.0 == RIGHT_RING));
        assert!(packing::parse_map(&subs[0].1).is_some());
        assert!(packing::parse_seqs(&subs[1].1).is_some_and(|p| p.last));
        let out = e.advance_floor(LEFT_RING, Round::new(1));
        assert!(out.iter().any(|o| matches!(
            o,
            MultiOutput::Local {
                event: ClientEvent::Config {
                    transitional: false,
                    ..
                },
                ..
            }
        )));
    }

    /// The shard-map announcements among `outputs`.
    fn maps(outputs: &[MultiOutput]) -> Vec<MapMsg> {
        submit_payloads(outputs)
            .iter()
            .filter_map(|(_, payload, _)| packing::parse_map(payload))
            .collect()
    }

    #[test]
    fn map_announced_by_every_member_on_regular_configs() {
        let change = ConfigChange {
            ring_id: accelring_core::RingId::new(ParticipantId::new(0), 1),
            members: vec![ParticipantId::new(0), ParticipantId::new(1)],
            transitional: false,
        };
        // Every member announces, the lowest and the others alike: a
        // restarted daemon may itself be the lowest pid, and its map is
        // the stale one.
        for pid in [0, 1] {
            let mut e = engine(pid);
            let out = e.on_config_change(RIGHT_RING, &change);
            let announced = maps(&out);
            assert_eq!(announced.len(), 1, "pid {pid}");
            assert_eq!(announced[0].version, e.shards().version());
            assert_eq!(announced[0].sender, pid);
            assert!(submit_payloads(&out).iter().all(|s| s.0 == RIGHT_RING));
            assert_eq!(e.maps_announced(), 1);
        }
        // Transitional configs carry no announcement.
        let mut e = engine(0);
        let transitional = ConfigChange {
            transitional: true,
            ..change.clone()
        };
        assert!(submit_payloads(&e.on_config_change(RIGHT_RING, &transitional)).is_empty());
        // A version-0 map is pure hash placement — nothing to say.
        let mut fresh = MultiRingEngine::new(ParticipantId::new(0), ShardMap::new(2));
        assert!(maps(&fresh.on_config_change(RIGHT_RING, &change)).is_empty());
    }

    #[test]
    fn a_members_map_is_ordered_before_its_watermarks() {
        let mut e = engine(1);
        let seqs: Vec<(String, u64)> = (0..1_000)
            .map(|i| (format!("{i:0>64}"), i as u64 + 1))
            .collect();
        e.seed_seqs(&[seqs, Vec::new()]);
        let change = ConfigChange {
            ring_id: accelring_core::RingId::new(ParticipantId::new(0), 1),
            members: vec![ParticipantId::new(0), ParticipantId::new(1)],
            transitional: false,
        };
        let subs = submit_payloads(&e.on_config_change(LEFT_RING, &change));
        assert_eq!(subs.len(), 3, "a map and two watermark parts");
        assert!(
            packing::parse_map(&subs[0].1).is_some(),
            "the map goes first"
        );
        let parts: Vec<_> = subs[1..]
            .iter()
            .map(|s| packing::parse_seqs(&s.1).expect("a watermark part"))
            .collect();
        assert_eq!(
            parts.iter().map(|p| p.last).collect::<Vec<_>>(),
            vec![false, true]
        );
        // Delivered in that order, a stale peer holds the map by the
        // time the last part ends its wait on the ring.
        let mut stale = MultiRingEngine::new(ParticipantId::new(0), ShardMap::new(2));
        stale.on_config_change(LEFT_RING, &change);
        for (i, (_, payload, service)) in subs.into_iter().enumerate() {
            assert!(!stale.engines[0].caught_up());
            stale.on_delivery(LEFT_RING, &delivery(i as u64 + 1, 1, 0, payload, service));
        }
        assert!(stale.engines[0].caught_up());
        assert_eq!(stale.shards().version(), e.shards().version());
        assert_eq!(stale.export_seqs()[0], e.export_seqs()[0]);
        assert!(!stale.caught_up(), "ring 1 has installed no configuration");
    }

    #[test]
    fn stale_observer_converges_through_a_delivered_map_announce() {
        // A daemon that slept through migrations restarts from the
        // initial map; a peer's TAG_MAP announce ordered on the ring
        // brings it to the live placement — and a replayed announce
        // is a no-op.
        let mut e = engine(1);
        assert_eq!(e.ring_of("right"), RIGHT_RING);
        let live = MapMsg {
            version: e.shards().version() + 10,
            rings: 2,
            sender: 0,
            overrides: vec![("left".to_string(), 0), ("right".to_string(), 0)],
        };
        let payload = packing::map_payload(&live);
        let out = e.on_delivery(
            RIGHT_RING,
            &delivery(1, 0, 0, payload.clone(), Service::Agreed),
        );
        assert!(
            messages(&out).is_empty(),
            "a map announce is not client-visible"
        );
        assert_eq!(e.shards().version(), live.version);
        assert_eq!(e.ring_of("right"), LEFT_RING, "stale placement healed");
        assert_eq!(e.maps_adopted(), 1);
        e.on_delivery(RIGHT_RING, &delivery(2, 0, 1, payload, Service::Agreed));
        assert_eq!(e.maps_adopted(), 1, "replay must not re-adopt");
    }

    #[test]
    fn a_map_for_another_ring_count_is_refused() {
        // A newer map announced by a daemon built for three rings must
        // not reroute groups on a two-ring deployment.
        let mut e = engine(1);
        let before = e.shards().version();
        let foreign = MapMsg {
            version: before + 10,
            rings: 3,
            sender: 0,
            overrides: vec![("left".to_string(), 1), ("right".to_string(), 2)],
        };
        let payload = packing::map_payload(&foreign);
        e.on_delivery(RIGHT_RING, &delivery(1, 0, 0, payload, Service::Agreed));
        assert_eq!(e.ring_of("left"), LEFT_RING);
        assert_eq!(e.ring_of("right"), RIGHT_RING);
        assert_eq!(e.shards().version(), before);
        assert_eq!(e.maps_adopted(), 0);
    }

    fn mig_shards() -> ShardMap {
        let mut shards = ShardMap::new(2);
        shards.assign("hot", LEFT_RING);
        shards.assign("cold", RIGHT_RING);
        shards
    }

    /// Two daemons (pids 0 and 1), one local client each, over two
    /// shared ring streams. Submissions are ordered in emission order —
    /// the harness *is* the ring — and deliveries feed back into both
    /// engines until quiescent, so the full migration handshake
    /// (Start → join replays → Ready → Commit → Open → held flush) runs
    /// exactly as it would across a live deployment.
    struct Net {
        engines: Vec<MultiRingEngine>,
        streams: Vec<Vec<Delivery>>,
        cursors: Vec<[usize; 2]>,
        /// `(client, message)` per daemon, in merged delivery order.
        got: Vec<Vec<(String, String)>>,
        /// Submissions to this ring vanish (a partitioned target).
        blackhole: Option<RingIdx>,
    }

    impl Net {
        fn new() -> Net {
            let mut engines: Vec<MultiRingEngine> = (0..2)
                .map(|pid| MultiRingEngine::new(ParticipantId::new(pid), mig_shards()))
                .collect();
            engines[0].client_connect("a").unwrap();
            engines[1].client_connect("b").unwrap();
            Net {
                engines,
                streams: vec![Vec::new(), Vec::new()],
                cursors: vec![[0; 2]; 2],
                got: vec![Vec::new(); 2],
                blackhole: None,
            }
        }

        fn apply(&mut self, daemon: usize, outs: Vec<MultiOutput>) {
            for o in outs {
                match o {
                    MultiOutput::Submit {
                        ring,
                        payload,
                        service,
                    } => {
                        if Some(ring) == self.blackhole {
                            continue;
                        }
                        let s = &mut self.streams[ring.as_usize()];
                        let seq = s.len() as u64 + 1;
                        s.push(delivery(seq, daemon as u16, seq, payload, service));
                    }
                    MultiOutput::Local {
                        client,
                        event: ClientEvent::Message { payload, .. },
                    } => {
                        self.got[daemon]
                            .push((client, String::from_utf8_lossy(&payload).into_owned()));
                    }
                    MultiOutput::Local { .. } => {}
                }
            }
        }

        fn drain(&mut self) {
            loop {
                let mut progressed = false;
                for d in 0..self.engines.len() {
                    for r in 0..2 {
                        while self.cursors[d][r] < self.streams[r].len() {
                            let del = self.streams[r][self.cursors[d][r]].clone();
                            self.cursors[d][r] += 1;
                            let outs = self.engines[d].on_delivery(RingIdx::new(r as u16), &del);
                            self.apply(d, outs);
                            progressed = true;
                        }
                    }
                }
                if !progressed {
                    break;
                }
            }
        }

        fn finish(&mut self) {
            for d in 0..self.engines.len() {
                let outs = self.engines[d].finish();
                self.apply(d, outs);
            }
        }

        fn messages_of(&self, daemon: usize) -> Vec<String> {
            self.got[daemon].iter().map(|(_, m)| m.clone()).collect()
        }
    }

    /// Runs the canonical migration scenario to completion and returns
    /// the harness (streams hold the full per-ring histories).
    fn committed_migration_net() -> Net {
        let mut net = Net::new();
        let outs = net.engines[0].client_join("a", "hot").unwrap();
        net.apply(0, outs);
        let outs = net.engines[1].client_join("b", "hot").unwrap();
        net.apply(1, outs);
        net.drain();
        for (i, m) in ["m1", "m2"].iter().enumerate() {
            let outs = net.engines[0]
                .client_multicast_sequenced(
                    "a",
                    &["hot"],
                    Bytes::from(m.to_string()),
                    Service::Agreed,
                    i as u64 + 1,
                )
                .unwrap();
            net.apply(0, outs);
        }
        net.drain();
        // Operator triggers the migration from daemon 0; a racing send
        // is submitted before daemon 0 processes the fence, so it is
        // ordered on the source *behind* the fence and must be
        // recovered, not lost and not duplicated.
        let outs = net.engines[0].begin_migration("hot", RIGHT_RING).unwrap();
        net.apply(0, outs);
        let outs = net.engines[0]
            .client_multicast_sequenced(
                "a",
                &["hot"],
                Bytes::from_static(b"m3"),
                Service::Agreed,
                3,
            )
            .unwrap();
        net.apply(0, outs);
        net.drain();
        // Post-commit traffic routes to the new home.
        let outs = net.engines[1]
            .client_multicast_sequenced(
                "b",
                &["hot"],
                Bytes::from_static(b"m4"),
                Service::Agreed,
                1,
            )
            .unwrap();
        assert!(
            matches!(
                outs[0],
                MultiOutput::Submit {
                    ring: RIGHT_RING,
                    ..
                }
            ),
            "post-commit sends must route to the target ring"
        );
        net.apply(1, outs);
        net.drain();
        net.finish();
        net
    }

    #[test]
    fn migration_commits_with_zero_gap_and_exactly_once_delivery() {
        let net = committed_migration_net();
        for e in &net.engines {
            assert_eq!(e.ring_of("hot"), RIGHT_RING, "pin must move to target");
            let c = e.migration_counters();
            assert_eq!((c.started, c.committed, c.aborted), (1, 1, 0));
            assert!(e.is_frozen(LEFT_RING, "hot"), "source stays fenced");
            assert!(!e.is_frozen(RIGHT_RING, "hot"));
            assert!(e.migrations_in_flight().is_empty());
        }
        assert_eq!(net.engines[0].migration_counters().redirected, 1);
        assert_eq!(net.engines[1].migration_counters().redirected, 0);
        // Gap-free, overlap-free, identically ordered at both members.
        let want = vec!["m1", "m2", "m3", "m4"];
        assert_eq!(net.messages_of(0), want, "daemon 0 (client a)");
        assert_eq!(net.messages_of(1), want, "daemon 1 (client b)");
    }

    #[test]
    fn migration_handoff_is_arrival_interleaving_invariant() {
        // Replay the recorded per-ring histories of a committed
        // migration into fresh observers under skewed arrival orders —
        // including target-ring-first, which lands Ready and Open before
        // the Start fence — and demand the same merged order every time.
        let net = committed_migration_net();
        let streams = net.streams.clone();
        let replay = |order: &[usize]| -> Vec<String> {
            let mut e = MultiRingEngine::new(ParticipantId::new(0), mig_shards());
            e.client_connect("a").unwrap();
            let _ = e.client_join("a", "hot");
            let mut idx = [0usize; 2];
            let mut got = Vec::new();
            let mut deliver = |e: &mut MultiRingEngine, ring: usize, idx: &mut [usize; 2]| {
                if idx[ring] < streams[ring].len() {
                    let d = streams[ring][idx[ring]].clone();
                    idx[ring] += 1;
                    got_extend(&mut got, &e.on_delivery(RingIdx::new(ring as u16), &d));
                }
            };
            for &ring in order {
                deliver(&mut e, ring, &mut idx);
            }
            for ring in 0..2 {
                while idx[ring] < streams[ring].len() {
                    deliver(&mut e, ring, &mut idx);
                }
            }
            got_extend(&mut got, &e.finish());
            got
        };
        let n = streams[0].len() + streams[1].len();
        let source_first: Vec<usize> = vec![0; n];
        let target_first: Vec<usize> = vec![1; n];
        let alternating: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let a = replay(&source_first);
        let b = replay(&target_first);
        let c = replay(&alternating);
        assert_eq!(a, vec!["m1", "m2", "m3", "m4"]);
        assert_eq!(a, b, "target-ring-first arrival changed the order");
        assert_eq!(a, c, "alternating arrival changed the order");
    }

    fn got_extend(got: &mut Vec<String>, outs: &[MultiOutput]) {
        got.extend(messages(outs));
    }

    #[test]
    fn partitioned_target_aborts_cleanly_and_source_keeps_serving() {
        let mut net = Net::new();
        let outs = net.engines[0].client_join("a", "hot").unwrap();
        net.apply(0, outs);
        let outs = net.engines[1].client_join("b", "hot").unwrap();
        net.apply(1, outs);
        net.drain();
        let outs = net.engines[0]
            .client_multicast_sequenced(
                "a",
                &["hot"],
                Bytes::from_static(b"m1"),
                Service::Agreed,
                1,
            )
            .unwrap();
        net.apply(0, outs);
        net.drain();
        // The target ring partitions away: nothing submitted to it
        // arrives, so the readiness barrier can never be met.
        net.blackhole = Some(RIGHT_RING);
        let outs = net.engines[0].begin_migration("hot", RIGHT_RING).unwrap();
        net.apply(0, outs);
        net.drain();
        for e in &net.engines {
            assert!(e.is_frozen(LEFT_RING, "hot"), "fence must be up");
            assert_eq!(e.migrations_in_flight().len(), 1);
            assert_eq!(e.migration_counters().committed, 0);
        }
        // A send during the fence window is held, not submitted.
        let outs = net.engines[0]
            .client_multicast_sequenced(
                "a",
                &["hot"],
                Bytes::from_static(b"m2"),
                Service::Agreed,
                2,
            )
            .unwrap();
        assert!(outs.is_empty(), "fenced send must be held");
        assert_eq!(net.engines[0].migration_counters().redirected, 1);
        // The runtime's abort escalation fires; the Abort is ordered on
        // the (still healthy) source ring.
        let outs = net.engines[0].abort_migration("hot");
        net.apply(0, outs);
        net.drain();
        net.finish();
        for e in &net.engines {
            assert!(!e.is_frozen(LEFT_RING, "hot"), "abort must lift the fence");
            assert!(e.migrations_in_flight().is_empty());
            let c = e.migration_counters();
            assert_eq!((c.started, c.committed, c.aborted), (1, 0, 1));
            assert_eq!(e.ring_of("hot"), LEFT_RING, "source keeps the group");
        }
        // The held send flushed back to the source: nothing lost.
        assert_eq!(net.messages_of(0), vec!["m1", "m2"]);
        assert_eq!(net.messages_of(1), vec!["m1", "m2"]);
    }

    #[test]
    fn first_decision_ordered_on_the_source_wins() {
        use accelring_daemon::packing::{mig_payload, MigMsg, MigOp};
        let mig = |op| {
            mig_payload(&MigMsg {
                op,
                group: "hot".to_string(),
                from: 0,
                to: 1,
                sender: 0,
            })
        };
        let run = |decisions: [MigOp; 2]| {
            let mut e = MultiRingEngine::new(ParticipantId::new(0), mig_shards());
            e.client_connect("a").unwrap();
            e.on_delivery(
                LEFT_RING,
                &delivery(1, 0, 1, mig(MigOp::Start), Service::Agreed),
            );
            assert!(e.is_frozen(LEFT_RING, "hot"));
            for (i, d) in decisions.into_iter().enumerate() {
                e.on_delivery(
                    LEFT_RING,
                    &delivery(2 + i as u64, 0, 2 + i as u64, mig(d), Service::Agreed),
                );
            }
            e.migration_counters()
        };
        // Commit ordered first: the late abort is ignored.
        let c = run([MigOp::Commit, MigOp::Abort]);
        assert_eq!((c.committed, c.aborted), (1, 0));
        // Abort ordered first: the late commit is ignored.
        let c = run([MigOp::Abort, MigOp::Commit]);
        assert_eq!((c.committed, c.aborted), (0, 1));
    }

    #[test]
    fn begin_migration_rejects_bad_requests() {
        let mut e = MultiRingEngine::new(ParticipantId::new(0), mig_shards());
        e.client_connect("a").unwrap();
        // Same ring, nonexistent ring, empty group name.
        assert!(matches!(
            e.begin_migration("hot", LEFT_RING),
            Err(MultiRingError::Migration { .. })
        ));
        assert!(matches!(
            e.begin_migration("hot", RingIdx::new(7)),
            Err(MultiRingError::Migration { .. })
        ));
        assert!(matches!(
            e.begin_migration("", RIGHT_RING),
            Err(MultiRingError::Migration { .. })
        ));
        // In-flight duplicate.
        use accelring_daemon::packing::{mig_payload, MigMsg, MigOp};
        let start = mig_payload(&MigMsg {
            op: MigOp::Start,
            group: "hot".to_string(),
            from: 0,
            to: 1,
            sender: 0,
        });
        e.on_delivery(LEFT_RING, &delivery(1, 0, 1, start, Service::Agreed));
        assert!(matches!(
            e.begin_migration("hot", RIGHT_RING),
            Err(MultiRingError::Migration { .. })
        ));
    }

    #[test]
    fn failed_connect_rolls_back_all_rings() {
        let mut e = engine(0);
        // "c0" exists on every ring; reconnecting must fail and leave
        // the engines consistent.
        assert!(e.client_connect("c0").is_err());
        assert!(e.client_disconnect("c0").is_ok());
        assert!(e.client_connect("c0").is_ok());
    }
}
