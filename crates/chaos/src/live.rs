//! Live-path chaos: replays a seeded [`FaultSchedule`] against a real
//! localhost UDP ring — actual sockets, actual threads, wall-clock timers
//! — through the transport's in-process fault plane, then runs the same
//! EVS [`checker`](crate::checker) the virtual-time harness uses.
//!
//! The virtual-time runner proves the *protocol core* maintains Extended
//! Virtual Synchrony under faults; this runner proves the *runtime* does:
//! the two-socket event loop, the send-path interposer, kill switches,
//! ring-counter restoration across restarts, and real thread interleaving
//! all sit between the schedule and the checker here.
//!
//! Determinism caveat: the fault *distribution* is seeded (same seed,
//! same schedule, same per-link loss decisions in expectation) but real
//! threads make packet fates nondeterministic run to run. The EVS
//! invariants are interleaving-independent, which is exactly why they are
//! the right thing to check on this path.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use accelring_core::{Backoff, ParticipantId, ProtocolConfig, Service};
use accelring_membership::testing::NodeEvent;
use accelring_membership::{MembershipConfig, StateKind};
use accelring_transport::{
    bind_with_retry_on, AddressBook, AppEvent, BoundNode, FaultPlane, NodeAddr, NodeHandle,
    NodeOptions, Transport, TransportError,
};
use bytes::Bytes;
use crossbeam::channel::Receiver;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checker::{self, CheckerInput, MsgId};
use crate::runner::{ChaosReport, ChaosStats};
use crate::schedule::{FaultKind, FaultSchedule, ScheduleConfig};

/// Shape of one live chaos run.
#[derive(Debug, Clone, Copy)]
pub struct LiveChaosConfig {
    /// Number of daemons on localhost.
    pub nodes: u16,
    /// The seed; determines the schedule and the fault plane's decisions.
    pub seed: u64,
    /// Fault-schedule shape. Event times are interpreted as wall-clock
    /// nanosecond offsets from the start of the workload (after the
    /// initial ring has formed), so gaps must suit the membership timers
    /// below, not the simulator's.
    pub schedule: ScheduleConfig,
    /// Wall-clock gap between workload submissions.
    pub submit_gap: Duration,
    /// Settle window after the final heal (and again after probes).
    pub settle: Duration,
    /// Ordering-protocol parameters.
    pub protocol: ProtocolConfig,
    /// Membership timers (wall-clock scale).
    pub membership: MembershipConfig,
    /// Datagram backend the ring runs on. Every suite built on this
    /// config runs unchanged over UDP loopback or shared-memory rings;
    /// [`LiveChaosConfig::smoke`] defaults it from `ACCELRING_TRANSPORT`.
    pub transport: Transport,
}

impl LiveChaosConfig {
    /// A CI-sized run: three daemons, a couple dozen faults spanning
    /// loss, churn, partitions, token bursts, and daemon crashes, a few
    /// seconds of wall clock in total.
    pub fn smoke(seed: u64) -> LiveChaosConfig {
        let nodes = 3;
        LiveChaosConfig {
            nodes,
            seed,
            schedule: ScheduleConfig {
                nodes: nodes as usize,
                events: 24,
                min_gap_ns: 40_000_000,  // 40 ms
                max_gap_ns: 160_000_000, // 160 ms
                warmup_ns: 300_000_000,  // 300 ms of clean traffic first
            },
            submit_gap: Duration::from_millis(8),
            settle: Duration::from_millis(1500),
            protocol: ProtocolConfig::accelerated(20, 15),
            membership: live_membership_config(),
            transport: Transport::from_env(),
        }
    }

    /// A longer soak for manual runs (`live_chaos` bench binary).
    pub fn soak(seed: u64, nodes: u16, events: usize) -> LiveChaosConfig {
        LiveChaosConfig {
            schedule: ScheduleConfig {
                nodes: nodes as usize,
                events,
                min_gap_ns: 30_000_000,
                max_gap_ns: 200_000_000,
                warmup_ns: 300_000_000,
            },
            ..LiveChaosConfig {
                nodes,
                seed,
                ..LiveChaosConfig::smoke(seed)
            }
        }
    }
}

/// Membership timers small enough for fast tests but robust on a loaded
/// CI machine (same scale as the transport's own end-to-end tests).
pub fn live_membership_config() -> MembershipConfig {
    MembershipConfig {
        token_loss_timeout: 300_000_000,      // 300 ms
        token_retransmit_timeout: 80_000_000, // 80 ms
        join_interval: 30_000_000,            // 30 ms
        consensus_timeout: 250_000_000,       // 250 ms
        commit_timeout: 250_000_000,          // 250 ms
        recovery_timeout: 1_000_000_000,      // 1 s
        presence_interval: 100_000_000,       // 100 ms
        gather_settle: 60_000_000,            // 60 ms
    }
}

/// One live daemon slot: the runner keeps its own clone of the event
/// receiver so journaling survives the handle being dropped on a crash.
struct Slot {
    handle: Option<NodeHandle>,
    events: Receiver<AppEvent>,
    /// Highest ring counter observed, carried into restarts so a reborn
    /// daemon never reuses a ring id (the same stable-storage rule the
    /// simulator's `Cluster::restart` follows).
    ring_counter: u64,
}

struct LiveRun {
    addrs: Vec<NodeAddr>,
    book: AddressBook,
    plane: Arc<FaultPlane>,
    protocol: ProtocolConfig,
    membership: MembershipConfig,
    transport: Transport,
    slots: Vec<Slot>,
    journals: Vec<Vec<NodeEvent>>,
    marks: Vec<Vec<usize>>,
}

impl LiveRun {
    fn start(cfg: &LiveChaosConfig) -> Result<LiveRun, TransportError> {
        let n = cfg.nodes as usize;
        let bound: Vec<BoundNode> = (0..cfg.nodes)
            .map(|i| bind_with_retry_on(cfg.transport, ParticipantId::new(i), "127.0.0.1"))
            .collect::<Result<_, _>>()?;
        let addrs: Vec<NodeAddr> = bound
            .iter()
            .map(BoundNode::addr)
            .collect::<Result<_, _>>()?;
        let book = AddressBook::new(addrs.clone());
        let plane = FaultPlane::new(cfg.seed);
        plane.register_book(&book);
        let slots = bound
            .into_iter()
            .map(|b| {
                let handle = b.start_with(
                    book.clone(),
                    cfg.protocol,
                    cfg.membership,
                    NodeOptions {
                        plane: Some(plane.clone()),
                        ..NodeOptions::default()
                    },
                )?;
                Ok(Slot {
                    events: handle.events().clone(),
                    handle: Some(handle),
                    ring_counter: 0,
                })
            })
            .collect::<Result<_, TransportError>>()?;
        Ok(LiveRun {
            addrs,
            book,
            plane,
            protocol: cfg.protocol,
            membership: cfg.membership,
            transport: cfg.transport,
            slots,
            journals: vec![Vec::new(); n],
            marks: vec![Vec::new(); n],
        })
    }

    /// Moves everything queued on every node's event channel into the
    /// journals (the live counterpart of the simulator's journal).
    fn drain_events(&mut self) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            while let Ok(ev) = slot.events.try_recv() {
                match ev {
                    AppEvent::Delivered(d) => self.journals[i].push(NodeEvent::Delivered(d)),
                    AppEvent::Config(c) => self.journals[i].push(NodeEvent::Config(c)),
                    // A panic would surface as a missing daemon; the
                    // checker's reconvergence invariant catches it.
                    AppEvent::Fault { .. } => {}
                }
            }
            if let Some(h) = &slot.handle {
                slot.ring_counter = slot.ring_counter.max(h.ring_counter());
            }
        }
    }

    fn is_crashed(&self, i: usize) -> bool {
        self.slots[i].handle.is_none()
    }

    fn live_count(&self) -> usize {
        self.slots.iter().filter(|s| s.handle.is_some()).count()
    }

    /// Kills node `i`'s event-loop thread (abrupt, like a process kill:
    /// no departure announcement, peers must detect the loss).
    fn crash(&mut self, i: usize) {
        if let Some(h) = self.slots[i].handle.take() {
            self.slots[i].ring_counter = self.slots[i].ring_counter.max(h.ring_counter());
            h.killswitch().kill();
            h.shutdown();
        }
    }

    /// Restarts node `i` on its original ports, restoring the ring
    /// counter; a fresh incarnation begins in its journal.
    fn restart(&mut self, i: usize) -> Result<(), TransportError> {
        if self.slots[i].handle.is_some() {
            return Ok(());
        }
        // The dead incarnation's remaining events must land before the
        // mark so they are attributed to the right incarnation.
        self.drain_events();
        self.marks[i].push(self.journals[i].len());
        let addr = self.addrs[i];
        // The old sockets close when the killed thread drops them; the
        // ports (or shm names) can take a beat to come free again.
        // Jittered backoff keeps simultaneous restarts from hammering
        // the same instant.
        let mut bound = None;
        let mut backoff = Backoff::new(
            Duration::from_millis(5),
            Duration::from_millis(100),
            u64::from(addr.pid.as_u16()),
        );
        while backoff.attempts() < 50 {
            match BoundNode::bind_addrs_on(self.transport, addr.pid, addr.data, addr.token) {
                Ok(b) => {
                    bound = Some(b);
                    break;
                }
                Err(_) => std::thread::sleep(backoff.next_delay()),
            }
        }
        let bound = bound.ok_or(TransportError::Bind {
            pid: addr.pid,
            attempts: 50,
            source: std::io::Error::new(std::io::ErrorKind::AddrInUse, "port not released"),
        })?;
        let handle = bound.start_with(
            self.book.clone(),
            self.protocol,
            self.membership,
            NodeOptions {
                plane: Some(self.plane.clone()),
                restore_ring_counter: self.slots[i].ring_counter,
            },
        )?;
        self.slots[i].events = handle.events().clone();
        self.slots[i].handle = Some(handle);
        Ok(())
    }

    fn apply_fault(&mut self, kind: &FaultKind, stats: &mut ChaosStats) {
        match kind {
            FaultKind::Crash(i) => {
                if !self.is_crashed(*i) && self.live_count() > 1 {
                    self.crash(*i);
                    stats.events_applied += 1;
                }
            }
            FaultKind::CrashTokenHolder => {
                if let Some((_, holder)) = self.plane.last_token_route() {
                    let i = holder.as_u16() as usize;
                    if i < self.slots.len() && !self.is_crashed(i) && self.live_count() > 1 {
                        self.crash(i);
                        stats.events_applied += 1;
                    }
                }
            }
            FaultKind::Restart(i) => {
                if self.is_crashed(*i) && self.restart(*i).is_ok() {
                    stats.events_applied += 1;
                }
            }
            FaultKind::Partition(groups) => {
                let groups: Vec<Vec<u16>> = groups
                    .iter()
                    .map(|g| g.iter().map(|&i| i as u16).collect())
                    .collect();
                self.plane.partition(&groups);
                stats.events_applied += 1;
            }
            FaultKind::Heal => {
                self.plane.heal();
                stats.events_applied += 1;
            }
            FaultKind::TokenBurst(k) => {
                self.plane.drop_next_tokens(*k);
                stats.events_applied += 1;
            }
            // A real thread cannot be frozen from outside; network
            // isolation is the closest live analogue of a stall (inputs
            // are lost rather than queued, which is a *harsher* fault).
            FaultKind::Pause(i) => {
                self.plane.isolate(*i as u16);
                stats.events_applied += 1;
            }
            FaultKind::Resume(i) => {
                self.plane.reconnect(*i as u16);
                stats.events_applied += 1;
            }
            FaultKind::SetLoss {
                data_rate,
                token_rate,
            } => {
                self.plane.set_loss(*data_rate, *token_rate);
                stats.events_applied += 1;
            }
            FaultKind::SetChurn {
                dup_rate,
                reorder_rate,
                max_extra_delay_ns,
            } => {
                self.plane.set_churn(
                    *dup_rate,
                    *reorder_rate,
                    Duration::from_nanos(*max_extra_delay_ns),
                );
                stats.events_applied += 1;
            }
        }
    }

    /// The last regular configuration node `i` delivered (the live
    /// equivalent of the simulator's `ring_of`).
    fn final_ring(&self, i: usize) -> Vec<ParticipantId> {
        self.journals[i]
            .iter()
            .rev()
            .find_map(|e| match e {
                NodeEvent::Config(c) if !c.transitional => Some(c.members.clone()),
                _ => None,
            })
            .unwrap_or_default()
    }

    fn all_operational(&self) -> bool {
        self.slots
            .iter()
            .all(|s| matches!(&s.handle, Some(h) if h.membership_state() == StateKind::Operational))
    }
}

fn submit_one(
    run: &mut LiveRun,
    rng: &mut StdRng,
    counters: &mut [u64],
    submitted: &mut BTreeSet<MsgId>,
    stats: &mut ChaosStats,
) {
    let live: Vec<usize> = (0..counters.len())
        .filter(|&i| !run.is_crashed(i))
        .collect();
    if live.is_empty() {
        return;
    }
    let node = live[rng.random_range(0..live.len())];
    counters[node] += 1;
    let id = MsgId {
        sender: node as u16,
        counter: counters[node],
    };
    let service = if rng.random_bool(0.25) {
        Service::Safe
    } else {
        Service::Agreed
    };
    let handle = run.slots[node].handle.as_ref().expect("live node");
    match handle.submit(Bytes::from(id.payload()), service) {
        Ok(()) => {
            submitted.insert(id);
            stats.submitted += 1;
        }
        Err(_) => stats.backpressured += 1,
    }
}

/// Replays a seeded fault schedule against a real localhost UDP ring and
/// checks the EVS invariants over what the daemons actually delivered.
///
/// # Errors
///
/// Returns [`TransportError`] if the ring cannot be stood up (bind or
/// spawn failures); fault-induced conditions never error, they show up as
/// checker violations instead.
///
/// # Panics
///
/// Panics if a live slot vanishes outside the crash path (internal
/// invariant).
pub fn run_live_chaos(cfg: LiveChaosConfig) -> Result<ChaosReport, TransportError> {
    run_live_chaos_with_orders(cfg).map(|(report, _)| report)
}

/// [`run_live_chaos`] that additionally returns each node's delivered
/// workload sequence (probe and workload [`MsgId`]s in delivery order,
/// per node) — the raw material for cross-run comparisons, e.g. the
/// shm-vs-UDP transport equivalence test.
///
/// # Errors
///
/// As [`run_live_chaos`].
///
/// # Panics
///
/// As [`run_live_chaos`].
pub fn run_live_chaos_with_orders(
    cfg: LiveChaosConfig,
) -> Result<(ChaosReport, Vec<Vec<MsgId>>), TransportError> {
    let n = cfg.nodes as usize;
    let schedule = FaultSchedule::generate(cfg.seed, cfg.schedule);
    let mut run = LiveRun::start(&cfg)?;
    let mut stats = ChaosStats::default();
    let started = Instant::now();

    // Wait for the initial full ring before any traffic or faults.
    let form_deadline = Instant::now() + Duration::from_secs(15);
    loop {
        run.drain_events();
        let formed = (0..n).all(|i| run.final_ring(i).len() == n);
        if formed && run.all_operational() {
            break;
        }
        assert!(
            Instant::now() < form_deadline,
            "initial ring of {n} must form within 15s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let mut wl_rng = StdRng::seed_from_u64(cfg.seed ^ 0x0077_0B10_AD00_0001);
    let mut counters = vec![0u64; n];
    let mut submitted: BTreeSet<MsgId> = BTreeSet::new();

    // Schedule times are offsets from here.
    let origin = Instant::now();
    let mut next_submit = cfg.submit_gap;
    for event in &schedule.events {
        let fire_at = Duration::from_nanos(event.at);
        while next_submit <= fire_at {
            sleep_until(origin, next_submit);
            run.drain_events();
            submit_one(
                &mut run,
                &mut wl_rng,
                &mut counters,
                &mut submitted,
                &mut stats,
            );
            next_submit += cfg.submit_gap;
        }
        sleep_until(origin, fire_at);
        run.drain_events();
        run.apply_fault(&event.kind, &mut stats);
    }

    // Final heal: undo every standing fault, restart the dead, settle.
    run.plane.quiesce();
    for i in 0..n {
        if run.is_crashed(i) {
            run.restart(i)?;
        }
    }
    std::thread::sleep(cfg.settle);
    for _ in 0..10 {
        run.drain_events();
        if run.all_operational() && (0..n).all(|i| run.final_ring(i).len() == n) {
            break;
        }
        std::thread::sleep(cfg.settle);
    }

    // Post-quiescence probes: one per node, must be delivered everywhere.
    let mut probes = Vec::with_capacity(n);
    #[allow(clippy::needless_range_loop)]
    for node in 0..n {
        counters[node] += 1;
        let id = MsgId {
            sender: node as u16,
            counter: counters[node],
        };
        let handle = run.slots[node].handle.as_ref().expect("restarted node");
        if handle
            .submit(Bytes::from(id.payload()), Service::Safe)
            .is_ok()
        {
            submitted.insert(id);
            probes.push(id);
            stats.submitted += 1;
        } else {
            stats.backpressured += 1;
        }
    }
    // Probes need the full pipeline (order + safe delivery) to finish.
    let probe_deadline = Instant::now() + cfg.settle * 4;
    loop {
        std::thread::sleep(Duration::from_millis(50));
        run.drain_events();
        let all_probed = (0..n).all(|i| {
            let delivered: BTreeSet<MsgId> = run.journals[i]
                .iter()
                .filter_map(|e| match e {
                    NodeEvent::Delivered(d) => MsgId::parse(&d.payload),
                    NodeEvent::Config(_) => None,
                })
                .collect();
            probes.iter().all(|p| delivered.contains(p))
        });
        if all_probed || Instant::now() > probe_deadline {
            break;
        }
    }
    run.drain_events();

    stats.rings_formed = run
        .slots
        .iter()
        .filter_map(|s| s.handle.as_ref().map(NodeHandle::rings_formed))
        .sum();
    stats.end_ns = started.elapsed().as_nanos() as u64;
    stats.delivered = run
        .journals
        .iter()
        .flatten()
        .filter(|e| matches!(e, NodeEvent::Delivered(_)))
        .count() as u64;

    let input = CheckerInput {
        nodes: n,
        journals: run.journals.clone(),
        submitted,
        incarnation_marks: run.marks.clone(),
        probes,
        all_operational: run.all_operational(),
        final_rings: (0..n).map(|i| run.final_ring(i)).collect(),
    };
    let violations = checker::check(&input);
    let orders: Vec<Vec<MsgId>> = run
        .journals
        .iter()
        .map(|journal| {
            journal
                .iter()
                .filter_map(|e| match e {
                    NodeEvent::Delivered(d) => MsgId::parse(&d.payload),
                    NodeEvent::Config(_) => None,
                })
                .collect()
        })
        .collect();
    Ok((
        ChaosReport {
            seed: cfg.seed,
            schedule,
            violations,
            stats,
        },
        orders,
    ))
}

fn sleep_until(origin: Instant, offset: Duration) {
    let target = origin + offset;
    let now = Instant::now();
    if target > now {
        std::thread::sleep(target - now);
    }
}
