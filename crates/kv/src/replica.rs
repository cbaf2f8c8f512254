//! The replica runtime: mounts a [`KvMachine`] on a
//! [`MultiRingDaemon`], joins every partition group, and applies the
//! merged total order — plus the marker-gated snapshot protocol that
//! lets a rejoining replica catch up without losing or doubling ops.
//!
//! ## Ordered state transfer
//!
//! A replica starting with `recovery_peers` set cannot simply copy a
//! peer's state: a snapshot cut *before* the replica's group joins were
//! ordered would miss every op between the cut and the join. The fix is
//! a marker fence ordered through the total order itself:
//!
//! 1. join all partition groups (the joins are ordered on their rings),
//! 2. multicast a [`KvOp::Fence`] *spanning every partition* — per-ring
//!    FIFO puts each fragment after this replica's join on that ring,
//! 3. pull snapshots from peers with [`KvQuery::Snapshot`], whose gate
//!    makes a peer reply only once it has consumed the marker on every
//!    partition — so the snapshot provably covers everything ordered
//!    before the join,
//! 4. install, then replay the deliveries buffered since the join: the
//!    overlap (ops both in the snapshot and the buffer) is skipped by
//!    the machine's consumption watermarks, the rest applies.
//!
//! If no peer answers before the deadline, the replica falls back to
//! the application snapshot piggybacked on the daemon-level recovery
//! pull ([`AppState::install`]), and failing that serves from empty —
//! every peer gone *is* a fresh cluster.

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use accelring_daemon::proto::{decode_session_frame, encode_session_frame};
use accelring_daemon::{ClientEvent, SessionFrame};
use accelring_multiring::{AppState, MultiRingDaemon, MultiRingError};
use bytes::Bytes;
use crossbeam::channel::{bounded, Select, Sender, TryRecvError};

use crate::machine::{decode_reply, encode_query, KvApplied, KvMachine, KvQuery, KvReply, KvStats};
use crate::op::{encode_op, partition_groups, KvOp};
use accelring_core::Service;

/// A position/state-hash pair a replica emits every
/// [`KvConfig::beacon_every`] consumed fragments. Beacons from replicas
/// at the *same position* must carry the same hash — the divergence
/// invariant chaos checkers enforce.
pub type KvBeacon = (u64, u64);

/// Settings for one [`KvStore`] replica.
#[derive(Debug, Clone)]
pub struct KvConfig {
    /// The key-space split; every replica and client of a deployment
    /// must agree.
    pub partitions: u16,
    /// This replica's client name. Must be unique per incarnation —
    /// the snapshot marker gate keys on it, so a reused name could
    /// satisfy the gate with a previous incarnation's marks.
    pub name: String,
    /// Session addresses of peer daemons to pull a KV snapshot from
    /// before serving. Empty = fresh deployment, serve immediately.
    pub recovery_peers: Vec<SocketAddr>,
    /// How long to retry snapshot pulls before falling back (staged
    /// daemon-level snapshot, then empty state).
    pub recovery_deadline: Duration,
    /// Emit a beacon every this many consumed fragments (`0` = never).
    pub beacon_every: u64,
    /// Where beacons go, if anywhere.
    pub beacons: Option<Sender<KvBeacon>>,
    /// Where commit records go, if anywhere (benches time these).
    pub applied: Option<Sender<KvApplied>>,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            partitions: 4,
            name: "kv-replica".to_string(),
            recovery_peers: Vec::new(),
            recovery_deadline: Duration::from_secs(5),
            beacon_every: 0,
            beacons: None,
            applied: None,
        }
    }
}

/// The state a replica shares with its daemon: the machine behind a
/// lock, the serving gate, and the staging slot for daemon-level
/// recovery snapshots. Mount it on the daemon via
/// [`MultiRingOptions::app_state`](accelring_multiring::MultiRingOptions)
/// so local-service queries (client reads, peer snapshot pulls) are
/// answered, then hand the same `Arc` to [`KvStore::start`].
pub struct KvShared {
    machine: Mutex<KvMachine>,
    serving: AtomicBool,
    staged: Mutex<Option<Bytes>>,
}

impl std::fmt::Debug for KvShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvShared")
            .field("serving", &self.serving.load(Ordering::Relaxed))
            .finish()
    }
}

impl KvShared {
    /// A fresh shared state over a `partitions`-way key split.
    pub fn new(partitions: u16) -> Arc<KvShared> {
        Arc::new(KvShared {
            machine: Mutex::new(KvMachine::new(partitions)),
            serving: AtomicBool::new(false),
            staged: Mutex::new(None),
        })
    }

    /// Whether the replica has finished recovery and serves reads.
    pub fn serving(&self) -> bool {
        self.serving.load(Ordering::Acquire)
    }

    /// Current value of `key` (local read, no consistency gate).
    pub fn read(&self, key: &str) -> Option<Bytes> {
        self.machine.lock().expect("kv lock").get(key).cloned()
    }

    /// The machine's position clock.
    pub fn position(&self) -> u64 {
        self.machine.lock().expect("kv lock").position()
    }

    /// The machine's state hash (see [`KvMachine::state_hash`]).
    pub fn state_hash(&self) -> u64 {
        self.machine.lock().expect("kv lock").state_hash()
    }

    /// The machine's deterministic counters.
    pub fn stats(&self) -> KvStats {
        self.machine.lock().expect("kv lock").stats()
    }

    /// Runs `f` against the locked machine — escape hatch for tests and
    /// tools that need more than the canned accessors.
    pub fn with_machine<R>(&self, f: impl FnOnce(&KvMachine) -> R) -> R {
        f(&self.machine.lock().expect("kv lock"))
    }
}

impl AppState for KvShared {
    fn query(&self, body: &Bytes) -> Option<Bytes> {
        // A recovering replica must not answer: its watermarks are
        // behind, so a Local read would serve stale state and a
        // snapshot pull would hand out an incomplete machine.
        if !self.serving() {
            return None;
        }
        self.machine.lock().expect("kv lock").answer(body)
    }

    fn snapshot(&self) -> Bytes {
        if !self.serving() {
            return Bytes::new();
        }
        self.machine.lock().expect("kv lock").snapshot()
    }

    fn install(&self, body: &Bytes) {
        // Staged, not applied: the daemon-level pull races the marker
        // protocol, and a snapshot must never clobber a live machine.
        // The replica thread promotes the staged bytes only as its
        // deadline fallback.
        *self.staged.lock().expect("kv stage lock") = Some(body.clone());
    }
}

/// A running replica: the thread that feeds the shared machine from the
/// daemon's merged event stream.
#[derive(Debug)]
pub struct KvStore {
    ctrl: Sender<()>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl KvStore {
    /// Connects a replica client to `daemon`, joins every partition
    /// group, and spawns the apply thread (running recovery first when
    /// [`KvConfig::recovery_peers`] is non-empty).
    ///
    /// # Errors
    ///
    /// Returns [`MultiRingError`] when the connect or a join is
    /// rejected.
    pub fn start(
        daemon: &MultiRingDaemon,
        shared: Arc<KvShared>,
        cfg: KvConfig,
    ) -> Result<KvStore, MultiRingError> {
        let client = daemon.connect(&cfg.name)?;
        for g in partition_groups(cfg.partitions) {
            client.join(&g)?;
        }
        let (ctrl, ctrl_rx) = bounded::<()>(1);
        let thread = std::thread::Builder::new()
            .name(format!("kv-{}", cfg.name))
            .spawn(move || {
                let mut run = Replica {
                    client,
                    shared,
                    cfg,
                    ctrl: ctrl_rx,
                };
                if run.recover() {
                    run.serve();
                }
                run.shared.serving.store(false, Ordering::Release);
            })
            .expect("spawn kv replica thread");
        Ok(KvStore {
            ctrl,
            thread: Some(thread),
        })
    }

    /// Stops the apply thread and disconnects the replica client.
    pub fn shutdown(mut self) {
        let _ = self.ctrl.send(());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for KvStore {
    fn drop(&mut self) {
        let _ = self.ctrl.send(());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

struct Replica {
    client: accelring_multiring::MultiRingClient,
    shared: Arc<KvShared>,
    cfg: KvConfig,
    ctrl: crossbeam::channel::Receiver<()>,
}

/// What a replica's blocking wait ended with.
enum Wake {
    /// The next merged event.
    Event(ClientEvent),
    /// The wait's deadline passed first.
    Timeout,
    /// Shutdown was requested, or the daemon dropped the client.
    Stop,
}

/// How long a starting replica waits to see itself in every partition's
/// membership view before serving anyway. Until the views land, ops are
/// consumed by the ring engines but delivered to nobody — a replica
/// that served earlier would silently miss them.
const VIEW_DEADLINE: Duration = Duration::from_secs(20);

impl Replica {
    /// Waits for join views, runs the marker-gated snapshot pull when
    /// peers are configured, then opens the serving gate. Returns false
    /// when shutdown or a daemon disconnect cut the wait short.
    fn recover(&mut self) -> bool {
        let parts = partition_groups(self.cfg.partitions);
        let mut buffered: Vec<ClientEvent> = Vec::new();
        if !self.await_views(&parts, &mut buffered) {
            return false;
        }
        if self.cfg.recovery_peers.is_empty() {
            self.shared.serving.store(true, Ordering::Release);
            return buffered.into_iter().all(|ev| self.apply_event(ev));
        }
        let part_refs: Vec<&str> = parts.iter().map(String::as_str).collect();
        let marker = encode_op(&KvOp::Fence {
            parts: parts.clone(),
        });
        let marker_seq = self
            .client
            .multicast_spanning(&part_refs, marker, Service::Agreed)
            .unwrap_or(0);
        let deadline = Instant::now() + self.cfg.recovery_deadline;
        let installed = self.pull_snapshot(marker_seq, deadline, &mut buffered);
        if !installed {
            // Deadline fallback: the daemon-level recovery pull may have
            // staged a peer's machine (MAP_PUSH piggyback). Watermark
            // replay makes installing it safe even though it predates
            // the marker — anything it misses is in the buffer only if
            // it was delivered to us, and anything neither holds was
            // also never ordered for a fresh-empty peer set.
            let staged = self.shared.staged.lock().expect("kv stage lock").take();
            if let Some(body) = staged {
                self.install_snapshot(&body);
            }
        }
        self.shared.serving.store(true, Ordering::Release);
        buffered.into_iter().all(|ev| self.apply_event(ev))
    }

    /// Blocks until the next merged event, shutdown, or `deadline`
    /// (`None`: no deadline), waiting on the control and event channels
    /// together — an idle replica sleeps, and a shutdown wakes it at
    /// once. A requested shutdown wins over queued events.
    fn wait(&self, deadline: Option<Instant>) -> Wake {
        loop {
            if !matches!(self.ctrl.try_recv(), Err(TryRecvError::Empty)) {
                return Wake::Stop;
            }
            match self.client.events().try_recv() {
                Ok(ev) => return Wake::Event(ev),
                Err(TryRecvError::Disconnected) => return Wake::Stop,
                Err(TryRecvError::Empty) => {}
            }
            let mut sel = Select::new();
            sel.recv(&self.ctrl);
            sel.recv(self.client.events());
            match deadline {
                None => {
                    sel.ready();
                }
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if sel.ready_timeout(left).is_err() {
                        return Wake::Timeout;
                    }
                }
            }
        }
    }

    /// Blocks until this replica appears in every partition's membership
    /// view (the EVS contract: its joins are effective everywhere once
    /// the installing views deliver), buffering data events meanwhile.
    /// Returns false on shutdown or a daemon disconnect; past
    /// [`VIEW_DEADLINE`] it gives up waiting and returns true.
    fn await_views(&self, parts: &[String], buffered: &mut Vec<ClientEvent>) -> bool {
        let mut pending: std::collections::BTreeSet<&str> =
            parts.iter().map(String::as_str).collect();
        let deadline = Instant::now() + VIEW_DEADLINE;
        while !pending.is_empty() {
            match self.wait(Some(deadline)) {
                Wake::Event(ClientEvent::View { group, members }) => {
                    if members.iter().any(|m| m.name == self.cfg.name) {
                        pending.remove(group.as_str());
                    }
                }
                // Ordered after our join on its ring while the other
                // views are still in flight — keep it for replay.
                Wake::Event(ev @ ClientEvent::Message { .. }) => buffered.push(ev),
                Wake::Event(ClientEvent::Disconnected { .. }) | Wake::Stop => return false,
                Wake::Event(_) => {}
                Wake::Timeout => break,
            }
        }
        true
    }

    /// Retries [`KvQuery::Snapshot`] against each peer until one's
    /// marker gate opens, buffering our own deliveries meanwhile.
    fn pull_snapshot(
        &mut self,
        marker_seq: u64,
        deadline: Instant,
        buffered: &mut Vec<ClientEvent>,
    ) -> bool {
        let Ok(sock) = UdpSocket::bind(("127.0.0.1", 0)) else {
            return false;
        };
        let _ = sock.set_read_timeout(Some(Duration::from_millis(50)));
        let query = encode_query(&KvQuery::Snapshot {
            client: self.cfg.name.clone(),
            min_seq: marker_seq,
        });
        let mut nonce: u64 = 1;
        let mut buf = vec![0u8; 64 * 1024];
        while Instant::now() < deadline {
            for peer in self.cfg.recovery_peers.clone() {
                nonce += 1;
                let frame = SessionFrame::SvcQuery {
                    nonce,
                    body: query.clone(),
                };
                let _ = sock.send_to(&encode_session_frame(&frame), peer);
                let until = (Instant::now() + Duration::from_millis(120)).min(deadline);
                while Instant::now() < until {
                    self.drain_events(buffered);
                    let Ok((n, _)) = sock.recv_from(&mut buf) else {
                        continue;
                    };
                    let mut bytes = Bytes::copy_from_slice(&buf[..n]);
                    let Ok(SessionFrame::SvcReply { nonce: got, body }) =
                        decode_session_frame(&mut bytes)
                    else {
                        continue;
                    };
                    if got != nonce {
                        continue;
                    }
                    match decode_reply(&body) {
                        Some(KvReply::Snapshot { body }) => {
                            if self.install_snapshot(&body) {
                                return true;
                            }
                        }
                        // NotYet: the peer has not consumed our marker
                        // everywhere yet — back off and retry.
                        _ => break,
                    }
                }
            }
            self.drain_events(buffered);
        }
        false
    }

    fn install_snapshot(&self, body: &Bytes) -> bool {
        let Some(m) = KvMachine::from_snapshot(body) else {
            return false;
        };
        if m.partitions() != self.cfg.partitions {
            return false;
        }
        *self.shared.machine.lock().expect("kv lock") = m;
        true
    }

    fn drain_events(&self, buffered: &mut Vec<ClientEvent>) {
        while let Ok(ev) = self.client.events().try_recv() {
            buffered.push(ev);
        }
    }

    /// The main loop: apply merged events until stopped or disconnected.
    fn serve(&mut self) {
        while let Wake::Event(ev) = self.wait(None) {
            if !self.apply_event(ev) {
                return;
            }
        }
    }

    /// Feeds one event to the machine. Returns `false` on the terminal
    /// disconnect.
    fn apply_event(&self, ev: ClientEvent) -> bool {
        match ev {
            ClientEvent::Message {
                sender,
                seq,
                groups,
                payload,
                ..
            } => {
                let mut m = self.shared.machine.lock().expect("kv lock");
                let before = m.position();
                let applied = m.ingest(&sender.name, seq, &groups, &payload);
                let after = m.position();
                let beacon = self.cfg.beacon_every > 0
                    && after > before
                    && after.is_multiple_of(self.cfg.beacon_every);
                let hash = if beacon { Some(m.state_hash()) } else { None };
                drop(m);
                if let (Some(h), Some(tx)) = (hash, self.cfg.beacons.as_ref()) {
                    let _ = tx.send((after, h));
                }
                if let (Some(rec), Some(tx)) = (applied, self.cfg.applied.as_ref()) {
                    let _ = tx.send(rec);
                }
                true
            }
            ClientEvent::Disconnected { .. } => {
                self.shared.serving.store(false, Ordering::Release);
                false
            }
            _ => true,
        }
    }
}
