//! In-process netem: a seeded fault plane underneath the real UDP sockets.
//!
//! A [`FaultPlane`] is shared by every node of a test ring. Each node's two
//! sockets are wrapped in an [`InterposedSocket`] that consults the plane on
//! every send: per-peer-pair drop, duplication, reordering (as extra delay),
//! Gilbert–Elliott burst loss, asymmetric partitions, and token-socket vs
//! data-socket targeting. Interposition happens on the *send* path, so one
//! verdict covers a directed link and asymmetric partitions come for free.
//!
//! Semantics mirror the simulator's chaos hook (`accelring-chaos`):
//!
//! * tokens are dropped and delayed but never duplicated — a duplicated
//!   token is indistinguishable from the protocol's own retransmission and
//!   would not exercise anything new;
//! * a node can always reach itself (the singleton token loop is exempt);
//! * traffic to addresses the plane does not know (not in the address
//!   book) passes untouched.
//!
//! Determinism: the plane's randomness is seeded, so the *distribution* of
//! faults reproduces across runs, but real threads interleave their sends
//! nondeterministically, so individual packet fates do not — unlike the
//! virtual-time simulator. The EVS invariants checked by `accelring-chaos`
//! must hold under every interleaving, which is exactly what makes the live
//! harness a stronger test than a bit-reproducible one.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::net::{SocketAddr, UdpSocket};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use accelring_core::ParticipantId;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::addr::AddressBook;
use crate::socket::{DatagramSocket, RecvOutcome, RecvSlot, SendOutcome};

/// Which of a node's two sockets a packet left on. The token travels on
/// its own socket (Section III-D), so targeting a class targets a traffic
/// type: [`SocketClass::Token`] carries only the token, and
/// [`SocketClass::Data`] carries ordered data and membership control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SocketClass {
    /// The data socket (ordered messages and membership control).
    Data,
    /// The token socket.
    Token,
}

/// Gilbert–Elliott burst-loss parameters, evaluated per data packet per
/// directed link (each link keeps its own good/bad state).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Probability of moving good → bad, per packet.
    pub p_enter: f64,
    /// Probability of moving bad → good, per packet.
    pub p_exit: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A moderate burst profile: mostly clean, with bursts that drop about
    /// half the packets and last tens of packets.
    pub fn bursty() -> GilbertElliott {
        GilbertElliott {
            p_enter: 0.02,
            p_exit: 0.10,
            loss_good: 0.005,
            loss_bad: 0.5,
        }
    }
}

/// Counters of everything the plane has done to traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlaneStats {
    /// Data/control datagrams dropped by loss models.
    pub data_dropped: u64,
    /// Tokens dropped (bursts and rate loss).
    pub tokens_dropped: u64,
    /// Datagrams duplicated.
    pub duplicated: u64,
    /// Datagrams held back for later release (reordering/delay).
    pub delayed: u64,
    /// Datagrams dropped by partition or isolation rules.
    pub partition_dropped: u64,
}

#[derive(Debug)]
struct PlaneInner {
    rng: StdRng,
    /// Both of a node's socket addresses map to its pid.
    addr_to_pid: HashMap<SocketAddr, u16>,
    pids: Vec<u16>,
    /// Directed links currently blackholed (`from → to`).
    blocked: HashSet<(u16, u16)>,
    data_loss: f64,
    token_loss: f64,
    ge: Option<GilbertElliott>,
    /// Directed links currently in the Gilbert–Elliott bad state.
    ge_bad: HashSet<(u16, u16)>,
    dup_rate: f64,
    reorder_rate: f64,
    max_extra_delay: Duration,
    drop_tokens: u64,
    last_token_route: Option<(ParticipantId, ParticipantId)>,
    stats: FaultPlaneStats,
}

/// What happens to one send: each entry is a copy to put on the wire after
/// that much extra delay (zero = immediately). Empty = dropped.
#[derive(Debug)]
pub(crate) struct SendFate {
    pub(crate) copies: Vec<Duration>,
}

impl SendFate {
    fn deliver() -> SendFate {
        SendFate {
            copies: vec![Duration::ZERO],
        }
    }

    fn drop() -> SendFate {
        SendFate { copies: Vec::new() }
    }
}

/// The shared fault model for one test ring. Cheap to consult (one mutex
/// acquisition per send); all knobs can be turned while traffic flows.
#[derive(Debug)]
pub struct FaultPlane {
    inner: Mutex<PlaneInner>,
}

impl FaultPlane {
    /// A quiet plane (no faults) with a seeded random source.
    pub fn new(seed: u64) -> Arc<FaultPlane> {
        Arc::new(FaultPlane {
            inner: Mutex::new(PlaneInner {
                rng: StdRng::seed_from_u64(seed ^ 0x11FE_11FE_11FE_11FE),
                addr_to_pid: HashMap::new(),
                pids: Vec::new(),
                blocked: HashSet::new(),
                data_loss: 0.0,
                token_loss: 0.0,
                ge: None,
                ge_bad: HashSet::new(),
                dup_rate: 0.0,
                reorder_rate: 0.0,
                max_extra_delay: Duration::ZERO,
                drop_tokens: 0,
                last_token_route: None,
                stats: FaultPlaneStats::default(),
            }),
        })
    }

    /// Teaches the plane which addresses belong to which participant.
    /// Sends to unregistered addresses pass untouched.
    pub fn register_book(&self, book: &AddressBook) {
        let mut inner = self.lock();
        for peer in book.peers() {
            inner.addr_to_pid.insert(peer.data, peer.pid.as_u16());
            inner.addr_to_pid.insert(peer.token, peer.pid.as_u16());
            if !inner.pids.contains(&peer.pid.as_u16()) {
                inner.pids.push(peer.pid.as_u16());
            }
        }
        inner.pids.sort_unstable();
    }

    /// Independent per-packet loss rates for the data and token classes.
    pub fn set_loss(&self, data_rate: f64, token_rate: f64) {
        let mut inner = self.lock();
        inner.data_loss = data_rate;
        inner.token_loss = token_rate;
    }

    /// Enables (or with `None` disables) Gilbert–Elliott burst loss on the
    /// data class; overrides the flat data rate while active.
    pub fn set_gilbert_elliott(&self, ge: Option<GilbertElliott>) {
        let mut inner = self.lock();
        inner.ge = ge;
        inner.ge_bad.clear();
    }

    /// Duplication and reordering churn. Reordered packets are held back a
    /// uniform `0..=max_extra_delay` and released by whichever socket on
    /// the sending node touches the network next, so they overtake traffic
    /// sent in between.
    pub fn set_churn(&self, dup_rate: f64, reorder_rate: f64, max_extra_delay: Duration) {
        let mut inner = self.lock();
        inner.dup_rate = dup_rate;
        inner.reorder_rate = reorder_rate;
        inner.max_extra_delay = max_extra_delay;
    }

    /// Installs a symmetric partition: links inside a group stay up, links
    /// across groups are blackholed both ways. Nodes absent from every
    /// group are isolated completely. Replaces any previous blocks.
    pub fn partition(&self, groups: &[Vec<u16>]) {
        let mut inner = self.lock();
        let group_of = |pid: u16| groups.iter().position(|g| g.contains(&pid));
        let pids = inner.pids.clone();
        inner.blocked.clear();
        for &a in &pids {
            for &b in &pids {
                if a == b {
                    continue;
                }
                match (group_of(a), group_of(b)) {
                    (Some(ga), Some(gb)) if ga == gb => {}
                    _ => {
                        inner.blocked.insert((a, b));
                    }
                }
            }
        }
    }

    /// Blackholes the directed link `from → to` (asymmetric partition:
    /// the reverse direction is untouched).
    pub fn block_one_way(&self, from: u16, to: u16) {
        self.lock().blocked.insert((from, to));
    }

    /// Cuts every link to and from `node`.
    pub fn isolate(&self, node: u16) {
        let mut inner = self.lock();
        let pids = inner.pids.clone();
        for &p in &pids {
            if p != node {
                inner.blocked.insert((node, p));
                inner.blocked.insert((p, node));
            }
        }
    }

    /// Restores every link to and from `node`.
    pub fn reconnect(&self, node: u16) {
        self.lock().blocked.retain(|&(a, b)| a != node && b != node);
    }

    /// Removes all partition and isolation blocks.
    pub fn heal(&self) {
        self.lock().blocked.clear();
    }

    /// Heals partitions and zeroes every loss and churn knob (delayed
    /// packets already held are still released).
    pub fn quiesce(&self) {
        let mut inner = self.lock();
        inner.blocked.clear();
        inner.data_loss = 0.0;
        inner.token_loss = 0.0;
        inner.ge = None;
        inner.ge_bad.clear();
        inner.dup_rate = 0.0;
        inner.reorder_rate = 0.0;
        inner.max_extra_delay = Duration::ZERO;
        inner.drop_tokens = 0;
    }

    /// Drops the next `n` token sends outright (exercises the token
    /// retransmit timer without touching data).
    pub fn drop_next_tokens(&self, n: u64) {
        self.lock().drop_tokens = n;
    }

    /// The `(from, to)` of the most recent token send observed, dropped or
    /// not — a live approximation of "who holds the token".
    pub fn last_token_route(&self) -> Option<(ParticipantId, ParticipantId)> {
        self.lock().last_token_route
    }

    /// A snapshot of what the plane has done so far.
    pub fn stats(&self) -> FaultPlaneStats {
        self.lock().stats
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PlaneInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn fate(&self, from: u16, to: SocketAddr, class: SocketClass) -> SendFate {
        let mut inner = self.lock();
        let Some(&to) = inner.addr_to_pid.get(&to) else {
            return SendFate::deliver();
        };
        if to == from {
            return SendFate::deliver(); // a node always reaches itself
        }
        if class == SocketClass::Token {
            inner.last_token_route = Some((ParticipantId::new(from), ParticipantId::new(to)));
        }
        if inner.blocked.contains(&(from, to)) {
            inner.stats.partition_dropped += 1;
            return SendFate::drop();
        }
        match class {
            SocketClass::Token => {
                if inner.drop_tokens > 0 {
                    inner.drop_tokens -= 1;
                    inner.stats.tokens_dropped += 1;
                    return SendFate::drop();
                }
                let rate = inner.token_loss;
                if rate > 0.0 && inner.rng.random_bool(rate) {
                    inner.stats.tokens_dropped += 1;
                    return SendFate::drop();
                }
            }
            SocketClass::Data => {
                let rate = match inner.ge {
                    Some(ge) => {
                        // Advance this link's two-state chain, then sample
                        // loss at the state we land in.
                        let bad_now = inner.ge_bad.contains(&(from, to));
                        let flip =
                            inner
                                .rng
                                .random_bool(if bad_now { ge.p_exit } else { ge.p_enter });
                        let bad = bad_now != flip;
                        if bad {
                            inner.ge_bad.insert((from, to));
                            ge.loss_bad
                        } else {
                            inner.ge_bad.remove(&(from, to));
                            ge.loss_good
                        }
                    }
                    None => inner.data_loss,
                };
                if rate > 0.0 && inner.rng.random_bool(rate) {
                    inner.stats.data_dropped += 1;
                    return SendFate::drop();
                }
            }
        }
        let mut copies = vec![Duration::ZERO];
        let (reorder_rate, max_extra_delay, dup_rate) =
            (inner.reorder_rate, inner.max_extra_delay, inner.dup_rate);
        if reorder_rate > 0.0 && !max_extra_delay.is_zero() && inner.rng.random_bool(reorder_rate) {
            let max = max_extra_delay.as_nanos() as u64;
            copies[0] = Duration::from_nanos(inner.rng.random_range(1..=max));
            inner.stats.delayed += 1;
        }
        if class == SocketClass::Data && dup_rate > 0.0 && inner.rng.random_bool(dup_rate) {
            copies.push(Duration::ZERO);
            inner.stats.duplicated += 1;
        }
        SendFate { copies }
    }
}

#[derive(Debug)]
struct Held {
    release: Instant,
    seq: u64,
    /// The datagram, held as a cheap reference-counted slice: on the
    /// batched send path this is a clone of the pooled encode buffer, so
    /// delaying or reordering a packet costs no copy.
    buf: Bytes,
    dest: SocketAddr,
}

impl PartialEq for Held {
    fn eq(&self, other: &Self) -> bool {
        self.release == other.release && self.seq == other.seq
    }
}
impl Eq for Held {}
impl PartialOrd for Held {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Held {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.release, self.seq).cmp(&(other.release, other.seq))
    }
}

#[derive(Debug, Default)]
struct HeldQueue {
    heap: BinaryHeap<Reverse<Held>>,
    seq: u64,
}

/// A datagram socket filtered through a [`FaultPlane`].
///
/// Generic over the underlying [`DatagramSocket`], so the same interposer
/// (and therefore every chaos suite) runs over kernel UDP sockets and the
/// shared-memory ring backend alike — for shm, fates are applied at
/// slot-publish time, before the datagram ever reaches a ring.
///
/// Delayed copies are queued inside the socket and released (from the real
/// socket, so the source address stays correct) the next time the event
/// loop touches this socket — the loop polls every few hundred
/// microseconds, which bounds the delay granularity.
#[derive(Debug)]
pub struct InterposedSocket<S: DatagramSocket = UdpSocket> {
    inner: S,
    from: u16,
    class: SocketClass,
    plane: Arc<FaultPlane>,
    held: Mutex<HeldQueue>,
}

impl<S: DatagramSocket> InterposedSocket<S> {
    /// Wraps `inner` (already non-blocking) as `from`'s socket of the
    /// given class.
    pub fn new(
        inner: S,
        from: ParticipantId,
        class: SocketClass,
        plane: Arc<FaultPlane>,
    ) -> InterposedSocket<S> {
        InterposedSocket {
            inner,
            from: from.as_u16(),
            class,
            plane,
            held: Mutex::new(HeldQueue::default()),
        }
    }

    fn release_due(&self) {
        let mut held = self.held.lock().unwrap_or_else(|e| e.into_inner());
        let now = Instant::now();
        while held.heap.peek().is_some_and(|Reverse(h)| h.release <= now) {
            let Reverse(h) = held.heap.pop().expect("peeked");
            // Release-time errors are swallowed: the packet was already
            // fated to be "in the network", where sends do not fail.
            let _ = self.inner.send_to(&h.buf, h.dest);
        }
    }

    fn hold(&self, buf: Bytes, dest: SocketAddr, delay: Duration) {
        let mut held = self.held.lock().unwrap_or_else(|e| e.into_inner());
        held.seq += 1;
        let seq = held.seq;
        held.heap.push(Reverse(Held {
            release: Instant::now() + delay,
            seq,
            buf,
            dest,
        }));
    }
}

impl<S: DatagramSocket> DatagramSocket for InterposedSocket<S> {
    fn send_to(&self, buf: &[u8], addr: SocketAddr) -> std::io::Result<usize> {
        self.release_due();
        let fate = self.plane.fate(self.from, addr, self.class);
        let mut result = Ok(buf.len());
        for delay in fate.copies {
            if delay.is_zero() {
                if let Err(e) = self.inner.send_to(buf, addr) {
                    result = Err(e);
                }
            } else {
                self.hold(Bytes::copy_from_slice(buf), addr, delay);
            }
        }
        result
    }

    fn recv_from(&self, buf: &mut [u8]) -> std::io::Result<(usize, SocketAddr)> {
        self.release_due();
        self.inner.recv_from(buf)
    }

    /// Batched send with per-datagram fate: the plane is consulted for
    /// every datagram exactly as on the single-send path (loss, partition,
    /// duplication, and delay semantics are identical), and the surviving
    /// immediate copies go to the wire in one `sendmmsg` burst.
    fn send_batch(&self, batch: &[(Bytes, SocketAddr)]) -> SendOutcome {
        self.release_due();
        let mut wire: Vec<(Bytes, SocketAddr)> = Vec::with_capacity(batch.len());
        for (buf, addr) in batch {
            let fate = self.plane.fate(self.from, *addr, self.class);
            for delay in fate.copies {
                if delay.is_zero() {
                    wire.push((buf.clone(), *addr));
                } else {
                    self.hold(buf.clone(), *addr, delay);
                }
            }
        }
        let inner_out = self.inner.send_batch(&wire);
        // Fate-dropped and delayed datagrams count as sent: from the
        // node's perspective they entered the network.
        SendOutcome {
            sent: batch.len().saturating_sub(inner_out.errors),
            errors: inner_out.errors,
            syscalls: inner_out.syscalls,
        }
    }

    fn recv_batch(&self, slots: &mut [RecvSlot<'_>]) -> std::io::Result<RecvOutcome> {
        self.release_due();
        self.inner.recv_batch(slots)
    }

    /// Sleeping on the inner fd is sound for held (delayed) datagrams
    /// too: the event loop's idle wait is capped well below any chaos
    /// schedule's delay granularity, so a due release is never stalled
    /// longer than the fixed-quantum doze it replaces.
    fn poll_fd(&self) -> Option<i32> {
        self.inner.poll_fd()
    }

    /// Releases due held datagrams first: a loop reads only the sockets
    /// its wait reported ready, so on a socket it neither reads nor
    /// writes for a while the releases ride its parks.
    fn prepare_wait(&self) -> bool {
        self.release_due();
        self.inner.prepare_wait()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::NodeAddr;

    fn book_of(n: u16) -> (AddressBook, Vec<SocketAddr>) {
        let addrs: Vec<NodeAddr> = (0..n)
            .map(|i| NodeAddr {
                pid: ParticipantId::new(i),
                data: format!("127.0.0.1:{}", 20_000 + 2 * i).parse().unwrap(),
                token: format!("127.0.0.1:{}", 20_001 + 2 * i).parse().unwrap(),
            })
            .collect();
        let data: Vec<SocketAddr> = addrs.iter().map(|a| a.data).collect();
        (AddressBook::new(addrs), data)
    }

    #[test]
    fn quiet_plane_delivers_everything() {
        let (book, data) = book_of(2);
        let plane = FaultPlane::new(1);
        plane.register_book(&book);
        for _ in 0..100 {
            let fate = plane.fate(0, data[1], SocketClass::Data);
            assert_eq!(fate.copies, vec![Duration::ZERO]);
        }
        assert_eq!(plane.stats(), FaultPlaneStats::default());
    }

    #[test]
    fn total_data_loss_drops_all_but_self() {
        let (book, data) = book_of(2);
        let plane = FaultPlane::new(2);
        plane.register_book(&book);
        plane.set_loss(1.0, 0.0);
        assert!(plane.fate(0, data[1], SocketClass::Data).copies.is_empty());
        // Self-sends and the token class are untouched.
        assert!(!plane.fate(0, data[0], SocketClass::Data).copies.is_empty());
        assert!(!plane.fate(0, data[1], SocketClass::Token).copies.is_empty());
        assert!(plane.stats().data_dropped >= 1);
    }

    #[test]
    fn token_burst_counts_down() {
        let (book, data) = book_of(2);
        let plane = FaultPlane::new(3);
        plane.register_book(&book);
        plane.drop_next_tokens(2);
        assert!(plane.fate(0, data[1], SocketClass::Token).copies.is_empty());
        assert!(plane.fate(1, data[0], SocketClass::Token).copies.is_empty());
        assert!(!plane.fate(0, data[1], SocketClass::Token).copies.is_empty());
        assert_eq!(plane.stats().tokens_dropped, 2);
        assert_eq!(
            plane.last_token_route(),
            Some((ParticipantId::new(0), ParticipantId::new(1)))
        );
    }

    #[test]
    fn asymmetric_block_is_one_way() {
        let (book, data) = book_of(2);
        let plane = FaultPlane::new(4);
        plane.register_book(&book);
        plane.block_one_way(0, 1);
        assert!(plane.fate(0, data[1], SocketClass::Data).copies.is_empty());
        assert!(!plane.fate(1, data[0], SocketClass::Data).copies.is_empty());
        plane.heal();
        assert!(!plane.fate(0, data[1], SocketClass::Data).copies.is_empty());
    }

    #[test]
    fn partition_groups_and_isolation() {
        let (book, data) = book_of(4);
        let plane = FaultPlane::new(5);
        plane.register_book(&book);
        // {0,1} | {2} — node 3 in no group is isolated.
        plane.partition(&[vec![0, 1], vec![2]]);
        assert!(!plane.fate(0, data[1], SocketClass::Data).copies.is_empty());
        assert!(plane.fate(0, data[2], SocketClass::Data).copies.is_empty());
        assert!(plane.fate(2, data[1], SocketClass::Data).copies.is_empty());
        assert!(plane.fate(3, data[0], SocketClass::Data).copies.is_empty());
        assert!(plane.fate(1, data[3], SocketClass::Data).copies.is_empty());
        plane.reconnect(3);
        assert!(!plane.fate(3, data[0], SocketClass::Data).copies.is_empty());
        // Still partitioned across {0,1} | {2}.
        assert!(plane.fate(0, data[2], SocketClass::Data).copies.is_empty());
    }

    #[test]
    fn duplication_and_reorder_produce_extra_or_late_copies() {
        let (book, data) = book_of(2);
        let plane = FaultPlane::new(6);
        plane.register_book(&book);
        plane.set_churn(1.0, 0.0, Duration::ZERO);
        let fate = plane.fate(0, data[1], SocketClass::Data);
        assert_eq!(fate.copies.len(), 2, "dup yields two copies");
        // Tokens are never duplicated.
        let fate = plane.fate(0, data[1], SocketClass::Token);
        assert_eq!(fate.copies.len(), 1);
        plane.set_churn(0.0, 1.0, Duration::from_millis(5));
        let fate = plane.fate(0, data[1], SocketClass::Data);
        assert_eq!(fate.copies.len(), 1);
        assert!(!fate.copies[0].is_zero(), "reorder delays the copy");
        assert!(plane.stats().duplicated >= 1);
        assert!(plane.stats().delayed >= 1);
    }

    #[test]
    fn gilbert_elliott_drops_in_bursts() {
        let (book, data) = book_of(2);
        let plane = FaultPlane::new(7);
        plane.register_book(&book);
        plane.set_gilbert_elliott(Some(GilbertElliott {
            p_enter: 0.5,
            p_exit: 0.1,
            loss_good: 0.0,
            loss_bad: 1.0,
        }));
        let dropped = (0..500)
            .filter(|_| plane.fate(0, data[1], SocketClass::Data).copies.is_empty())
            .count();
        // The chain spends most time bad (enter ≫ exit), so well over
        // half the packets must die; exact count is seed-dependent.
        assert!(dropped > 200, "got {dropped}/500 drops");
        plane.set_gilbert_elliott(None);
        assert!(!plane.fate(0, data[1], SocketClass::Data).copies.is_empty());
    }

    #[test]
    fn unknown_destination_passes() {
        let (book, _) = book_of(2);
        let plane = FaultPlane::new(8);
        plane.register_book(&book);
        plane.set_loss(1.0, 1.0);
        plane.partition(&[vec![0], vec![1]]);
        let foreign: SocketAddr = "127.0.0.1:9".parse().unwrap();
        assert!(!plane.fate(0, foreign, SocketClass::Data).copies.is_empty());
    }

    #[test]
    fn batched_send_consults_fate_per_datagram() {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        let c = UdpSocket::bind("127.0.0.1:0").unwrap();
        for s in [&a, &b, &c] {
            s.set_nonblocking(true).unwrap();
        }
        let addrs = vec![
            NodeAddr {
                pid: ParticipantId::new(0),
                data: a.local_addr().unwrap(),
                token: a.local_addr().unwrap(),
            },
            NodeAddr {
                pid: ParticipantId::new(1),
                data: b.local_addr().unwrap(),
                token: b.local_addr().unwrap(),
            },
            NodeAddr {
                pid: ParticipantId::new(2),
                data: c.local_addr().unwrap(),
                token: c.local_addr().unwrap(),
            },
        ];
        let book = AddressBook::new(addrs);
        let plane = FaultPlane::new(10);
        plane.register_book(&book);
        // Blackhole 0→1; 0→2 stays clean. One batch fanning out to both
        // must deliver to 2 only, while still reporting both as "sent".
        plane.block_one_way(0, 1);
        let dest_b = b.local_addr().unwrap();
        let dest_c = c.local_addr().unwrap();
        let sock =
            InterposedSocket::new(a, ParticipantId::new(0), SocketClass::Data, plane.clone());
        let batch = vec![
            (Bytes::from_static(b"to-b"), dest_b),
            (Bytes::from_static(b"to-c"), dest_c),
        ];
        let out = sock.send_batch(&batch);
        assert_eq!(out.sent, 2);
        assert_eq!(out.errors, 0);
        std::thread::sleep(Duration::from_millis(20));
        let mut buf = [0u8; 16];
        assert!(b.recv_from(&mut buf).is_err(), "partitioned link");
        let (len, _) = c.recv_from(&mut buf).unwrap();
        assert_eq!(&buf[..len], b"to-c");
        assert_eq!(plane.stats().partition_dropped, 1);
    }

    #[test]
    fn batched_send_holds_delayed_copies_without_copying() {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        let addrs = vec![
            NodeAddr {
                pid: ParticipantId::new(0),
                data: a.local_addr().unwrap(),
                token: a.local_addr().unwrap(),
            },
            NodeAddr {
                pid: ParticipantId::new(1),
                data: b.local_addr().unwrap(),
                token: b.local_addr().unwrap(),
            },
        ];
        let book = AddressBook::new(addrs);
        let plane = FaultPlane::new(11);
        plane.register_book(&book);
        plane.set_churn(0.0, 1.0, Duration::from_millis(10));
        let dest = b.local_addr().unwrap();
        let sock =
            InterposedSocket::new(a, ParticipantId::new(0), SocketClass::Data, plane.clone());
        let out = sock.send_batch(&[(Bytes::from_static(b"late"), dest)]);
        assert_eq!(out.sent, 1);
        let mut buf = [0u8; 16];
        assert!(b.recv_from(&mut buf).is_err(), "held back");
        std::thread::sleep(Duration::from_millis(25));
        let _ = sock.recv_from(&mut buf); // any touch releases due packets
        std::thread::sleep(Duration::from_millis(5));
        let (len, _) = b.recv_from(&mut buf).unwrap();
        assert_eq!(&buf[..len], b"late");
    }

    #[test]
    fn interposed_socket_delivers_and_delays() {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        let addrs = vec![
            NodeAddr {
                pid: ParticipantId::new(0),
                data: a.local_addr().unwrap(),
                token: a.local_addr().unwrap(),
            },
            NodeAddr {
                pid: ParticipantId::new(1),
                data: b.local_addr().unwrap(),
                token: b.local_addr().unwrap(),
            },
        ];
        let book = AddressBook::new(addrs);
        let plane = FaultPlane::new(9);
        plane.register_book(&book);
        let dest = b.local_addr().unwrap();
        let sock =
            InterposedSocket::new(a, ParticipantId::new(0), SocketClass::Data, plane.clone());

        // Clean pass-through.
        sock.send_to(b"one", dest).unwrap();
        let mut buf = [0u8; 16];
        std::thread::sleep(Duration::from_millis(20));
        let (len, _) = b.recv_from(&mut buf).unwrap();
        assert_eq!(&buf[..len], b"one");

        // Delayed copy arrives after the release deadline passes.
        plane.set_churn(0.0, 1.0, Duration::from_millis(10));
        sock.send_to(b"two", dest).unwrap();
        assert!(b.recv_from(&mut buf).is_err(), "held back");
        std::thread::sleep(Duration::from_millis(25));
        // Any further socket touch releases it.
        let _ = sock.recv_from(&mut buf);
        std::thread::sleep(Duration::from_millis(5));
        let (len, _) = b.recv_from(&mut buf).unwrap();
        assert_eq!(&buf[..len], b"two");
    }
}
