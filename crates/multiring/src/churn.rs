//! Live churn execution: a restartable multi-ring cluster on real
//! localhost UDP sockets that applies
//! [`ChurnKind`](accelring_chaos::churn::ChurnKind) events — per-ring
//! packet loss, online group migration, daemons leaving and rejoining —
//! while tests drive a workload through it.
//!
//! This is the multi-ring counterpart of the chaos crate's single-ring
//! `LiveRun`: the cluster keeps each daemon's bound addresses, each
//! ring's address book, and each ring's fault plane, so a cycled daemon
//! rebinds the *same* ports (peers keep routing to it without a book
//! update) and rejoins every ring it left. Restart uses the shared
//! jittered [`Backoff`] while the dying incarnation's sockets drain.

use std::sync::Arc;
use std::thread::sleep;
use std::time::{Duration, Instant};

use accelring_chaos::churn::{ChurnKind, ChurnSchedule};
use accelring_core::{Backoff, ParticipantId, ProtocolConfig, RingIdx};
use accelring_membership::MembershipConfig;
use accelring_transport::{
    bind_with_retry, AddressBook, BoundNode, FaultPlane, NodeAddr, NodeHandle, NodeOptions,
    TransportError,
};

use crate::live::{MultiRingDaemon, MultiRingOptions};
use crate::recovery::RingSeqs;
use crate::shard::ShardMap;

/// Ring-counter stride restored per incarnation. The pump thread owns a
/// dead daemon's node handles, so its exact final ring counters are not
/// recoverable the way the single-ring chaos runner reads them; instead
/// each incarnation restores `incarnation × stride`, a safe
/// over-approximation — a churn run forms nowhere near a million rings,
/// so the reborn daemon can never reuse a ring id from a past life
/// (the stable-storage rule restarts must follow).
const RING_COUNTER_STRIDE: u64 = 1_000_000;

/// How many rebind attempts a restarting daemon makes before giving up
/// (ports linger briefly while the dead incarnation's threads unwind).
const REBIND_ATTEMPTS: u32 = 50;

/// A multi-ring deployment whose daemons can leave and rejoin, wired
/// through one fault plane per ring.
#[derive(Debug)]
pub struct ChurnCluster {
    rings: u16,
    nodes: u16,
    protocol: ProtocolConfig,
    membership: MembershipConfig,
    /// Per-daemon options: daemon `i` starts (and restarts) with
    /// `options[i]`, so tests can mount per-daemon application state.
    options: Vec<MultiRingOptions>,
    shards: ShardMap,
    /// `addrs[ring][node]`: the fixed ports every incarnation binds.
    addrs: Vec<Vec<NodeAddr>>,
    books: Vec<AddressBook>,
    planes: Vec<Arc<FaultPlane>>,
    daemons: Vec<Option<MultiRingDaemon>>,
    incarnations: Vec<u64>,
    /// Per-daemon dedup watermarks captured at the last stop, seeded
    /// into the next incarnation so a client resubmission across the
    /// restart stays suppressed (the stable-storage rule for session
    /// state, played by the supervisor).
    seqs: Vec<Option<RingSeqs>>,
}

impl ChurnCluster {
    /// Stands up `rings × nodes` transport nodes on localhost with
    /// default protocol/membership timers and one fault plane per ring
    /// (seeded `seed`, `seed + 1`, …), then one multi-ring daemon per
    /// participant.
    ///
    /// # Errors
    ///
    /// Returns the first bind or spawn failure.
    pub fn start(
        rings: u16,
        nodes: u16,
        seed: u64,
        shards: ShardMap,
        options: MultiRingOptions,
    ) -> Result<ChurnCluster, TransportError> {
        let options = (0..nodes).map(|_| options.clone()).collect();
        ChurnCluster::start_each(rings, nodes, seed, shards, options)
    }

    /// Like [`ChurnCluster::start`], but with distinct options per
    /// daemon — how a replicated application mounts each daemon's own
    /// [`app_state`](MultiRingOptions::app_state) from the first
    /// incarnation on.
    ///
    /// # Errors
    ///
    /// Returns the first bind or spawn failure.
    ///
    /// # Panics
    ///
    /// Panics unless `options` has exactly one entry per daemon.
    pub fn start_each(
        rings: u16,
        nodes: u16,
        seed: u64,
        shards: ShardMap,
        options: Vec<MultiRingOptions>,
    ) -> Result<ChurnCluster, TransportError> {
        assert_eq!(rings, shards.rings(), "one ring per shard-map ring");
        assert_eq!(
            options.len(),
            nodes as usize,
            "one options entry per daemon"
        );
        let protocol = ProtocolConfig::default();
        let membership = MembershipConfig::for_wall_clock();
        let mut addrs = Vec::with_capacity(rings as usize);
        let mut books = Vec::with_capacity(rings as usize);
        let mut planes = Vec::with_capacity(rings as usize);
        // handles[ring][node], transposed into per-daemon columns below.
        let mut handles: Vec<Vec<NodeHandle>> = Vec::with_capacity(rings as usize);
        for r in 0..rings {
            let bound: Vec<BoundNode> = (0..nodes)
                .map(|i| bind_with_retry(ParticipantId::new(i), "127.0.0.1"))
                .collect::<Result<_, _>>()?;
            let ring_addrs: Vec<NodeAddr> = bound
                .iter()
                .map(BoundNode::addr)
                .collect::<Result<_, _>>()?;
            let book = AddressBook::new(ring_addrs.clone());
            let plane = FaultPlane::new(seed + u64::from(r));
            plane.register_book(&book);
            let ring_handles = bound
                .into_iter()
                .map(|b| {
                    b.start_with(
                        book.clone(),
                        protocol,
                        membership,
                        NodeOptions {
                            plane: Some(plane.clone()),
                            ..NodeOptions::default()
                        },
                    )
                })
                .collect::<Result<Vec<_>, _>>()?;
            addrs.push(ring_addrs);
            books.push(book);
            planes.push(plane);
            handles.push(ring_handles);
        }
        let mut columns: Vec<Vec<NodeHandle>> = (0..nodes).map(|_| Vec::new()).collect();
        for ring in handles {
            for (i, node) in ring.into_iter().enumerate() {
                columns[i].push(node);
            }
        }
        let daemons = columns
            .into_iter()
            .zip(&options)
            .map(|(column, opts)| {
                Some(MultiRingDaemon::start_with(
                    column,
                    shards.clone(),
                    opts.clone(),
                ))
            })
            .collect();
        Ok(ChurnCluster {
            rings,
            nodes,
            protocol,
            membership,
            options,
            shards,
            addrs,
            books,
            planes,
            daemons,
            incarnations: vec![0; nodes as usize],
            seqs: vec![None; nodes as usize],
        })
    }

    /// Number of daemons (including any currently down).
    pub fn nodes(&self) -> u16 {
        self.nodes
    }

    /// The running daemon with participant id `i`.
    ///
    /// # Panics
    ///
    /// Panics if daemon `i` is currently down.
    pub fn daemon(&self, i: u16) -> &MultiRingDaemon {
        self.daemons[i as usize]
            .as_ref()
            .expect("daemon is currently down")
    }

    /// Replaces the options daemon `i`'s *next* incarnation starts with
    /// (the running incarnation, if any, is untouched). Tests use this
    /// to mount fresh application state before a restart.
    pub fn set_options(&mut self, i: u16, options: MultiRingOptions) {
        self.options[i as usize] = options;
    }

    /// Ring `k`'s fault plane.
    pub fn plane(&self, ring: u16) -> &Arc<FaultPlane> {
        &self.planes[ring as usize]
    }

    /// Gracefully stops daemon `i`: it disconnects its clients and
    /// leaves every ring (the rings reform without it). The daemon's
    /// dedup watermarks are captured first and carried into the next
    /// incarnation by [`ChurnCluster::restart_daemon`].
    pub fn stop_daemon(&mut self, i: u16) {
        if let Some(d) = self.daemons[i as usize].take() {
            if let Some(seqs) = d.export_seqs() {
                self.seqs[i as usize] = Some(seqs);
            }
            d.shutdown();
        }
    }

    /// Rebinds daemon `i`'s original ports on every ring and starts a
    /// fresh incarnation, recovered along both paths of the crash
    /// recovery protocol: the dedup watermarks captured at stop are
    /// seeded in-process, and (when the session socket is enabled) the
    /// rejoining daemon pulls a catch-up snapshot — live shard map
    /// included — from its surviving peers before serving clients.
    /// Shard-map announces on the rings heal whatever the pull missed.
    ///
    /// # Errors
    ///
    /// Returns the bind error if a port cannot be reclaimed within
    /// [`REBIND_ATTEMPTS`], or the spawn failure.
    pub fn restart_daemon(&mut self, i: u16) -> Result<(), TransportError> {
        assert!(
            self.daemons[i as usize].is_none(),
            "stop daemon {i} before restarting it"
        );
        self.incarnations[i as usize] += 1;
        let mut column = Vec::with_capacity(self.rings as usize);
        for r in 0..self.rings as usize {
            let addr = self.addrs[r][i as usize];
            let mut backoff = Backoff::new(
                Duration::from_millis(5),
                Duration::from_millis(100),
                u64::from(i) ^ ((r as u64) << 16),
            );
            let bound = loop {
                match BoundNode::bind_addrs(addr.pid, addr.data, addr.token) {
                    Ok(b) => break b,
                    Err(e) if backoff.attempts() >= REBIND_ATTEMPTS => return Err(e),
                    Err(_) => sleep(backoff.next_delay()),
                }
            };
            let handle = bound.start_with(
                self.books[r].clone(),
                self.protocol,
                self.membership,
                NodeOptions {
                    plane: Some(self.planes[r].clone()),
                    restore_ring_counter: self.incarnations[i as usize] * RING_COUNTER_STRIDE,
                },
            )?;
            column.push(handle);
        }
        let mut options = self.options[i as usize].clone();
        options.recovery_seed = self.seqs[i as usize].clone();
        // Pull catch-up from every daemon currently up; daemons without
        // a session socket leave this empty and recover through seeds
        // and ring-borne map announces alone.
        options.recovery_peers = self
            .daemons
            .iter()
            .flatten()
            .filter_map(MultiRingDaemon::session_addr)
            .collect();
        self.daemons[i as usize] = Some(MultiRingDaemon::start_with(
            column,
            self.shards.clone(),
            options,
        ));
        Ok(())
    }

    /// Applies one churn event. `Migrate` is submitted through the first
    /// live daemon and skipped (not an error) when the engine rejects it
    /// — a seeded schedule cannot know the live shard map, so "already
    /// home" or "already migrating" are expected outcomes. `Restart`
    /// blocks for the configured downtime.
    ///
    /// # Errors
    ///
    /// Returns a restart failure; everything else is infallible.
    pub fn apply(&mut self, kind: &ChurnKind) -> Result<(), TransportError> {
        match kind {
            ChurnKind::Loss { ring, rate } => {
                self.planes[*ring as usize].set_loss(*rate, 0.0);
            }
            ChurnKind::HealLoss { ring } => {
                self.planes[*ring as usize].set_loss(0.0, 0.0);
            }
            ChurnKind::Migrate { group, to } => {
                if let Some(d) = self.daemons.iter().flatten().next() {
                    let _ = d.migrate(group, RingIdx::new(*to));
                }
            }
            ChurnKind::Restart { daemon, down } => {
                self.stop_daemon(*daemon);
                sleep(*down);
                self.restart_daemon(*daemon)?;
            }
            ChurnKind::RestartStorm { daemons, down } => {
                // Correlated crash: every storm member goes down before
                // any comes back, so the survivors reform without them
                // and the rejoiners must catch up from a minority of
                // live peers (or, with everyone else down, from the
                // deadline fallback).
                for d in daemons {
                    self.stop_daemon(*d);
                }
                sleep(*down);
                for d in daemons {
                    self.restart_daemon(*d)?;
                }
            }
        }
        Ok(())
    }

    /// Applies every event of `schedule` whose offset from `start` has
    /// elapsed, beginning at `*fired`, and advances `*fired` past them —
    /// the polling hook a workload loop calls between submissions.
    ///
    /// # Errors
    ///
    /// As [`ChurnCluster::apply`].
    pub fn apply_due(
        &mut self,
        schedule: &ChurnSchedule,
        start: Instant,
        fired: &mut usize,
    ) -> Result<(), TransportError> {
        while let Some(ev) = schedule.events.get(*fired) {
            if start.elapsed() < ev.at {
                break;
            }
            self.apply(&ev.kind)?;
            *fired += 1;
        }
        Ok(())
    }

    /// Stops every daemon that is still up.
    pub fn shutdown(mut self) {
        for i in 0..self.nodes {
            self.stop_daemon(i);
        }
    }
}
