//! Shared-memory intra-host transport: a [`DatagramSocket`] backend over
//! lock-free SPSC ring buffers (ROADMAP item 3, DESIGN.md §15).
//!
//! Colocated daemons pay two syscalls per datagram over UDP loopback even
//! after `sendmmsg` batching amortizes them. This backend removes the
//! kernel from the intra-host path entirely: each directed link between
//! two endpoints is a single-producer single-consumer ring carved out of
//! a host-wide shared segment, datagrams are published by one memcpy into
//! fixed-size slots and a release-store of the tail cursor, and consumed
//! by one memcpy out. Zero syscalls move data; the only syscalls left are
//! the eventfd doorbell writes that wake a parked consumer, and those
//! vanish at saturation because a busy consumer never arms the doorbell.
//!
//! ## Ring protocol
//!
//! A ring is `RING_SLOTS` slots of `SLOT_LEN` bytes plus two cache-line
//! separated free-running cursors: `head` (consumer-owned) and `tail`
//! (producer-owned). A record is an 8-byte header `[len: u32 LE]
//! [kind: u32 LE]` followed by the payload, occupying `ceil((8+len)/
//! SLOT_LEN)` *contiguous* slots; when a record would wrap past the end
//! of the slot array the producer publishes a `PAD` record filling the
//! rest of the array and restarts at slot 0, so payloads are always one
//! contiguous memcpy on both sides. The producer Acquire-loads `head`
//! for the space check and Release-stores `tail` after writing the
//! bytes; the consumer Acquire-loads `tail` and Release-stores `head`
//! after copying out — the classic message-passing pairing, data-race
//! free without any lock.
//!
//! A full ring drops the datagram (counted as
//! [`ring_full_drops`](accelring_core::ShmPathStats::ring_full_drops))
//! and reports it sent, exactly as UDP surfaces a full socket buffer as
//! silent loss; the protocol's retransmission machinery recovers. A
//! blocking send could deadlock two daemons publishing into each other's
//! full rings, so the backend never blocks.
//!
//! ## Doorbell
//!
//! The event loop parks in `ppoll` when idle. Kernel sockets wake it via
//! their fds; shm rings live in userspace, so each endpoint carries a
//! [`Doorbell`]. The consumer's
//! [`prepare_wait`](DatagramSocket::prepare_wait) arms it and only then
//! re-checks its rings; a producer notifies it after every tail publish,
//! writing the eventfd only when the consumer is armed. The eventfd is
//! just another fd in the [`crate::poller::Poller`] set, so mixing shm
//! links with real UDP sockets in one ppoll works unchanged.
//!
//! ## Naming and lifecycle
//!
//! Endpoints register in a process-wide registry keyed by synthetic
//! `127.99.x.y` socket addresses (ephemeral binds) or caller-chosen
//! addresses (rebinds after a restart). The registry holds only `Weak`
//! references: dropping the socket frees the name, so a crashed daemon's
//! restart can rebind its old address once the dead event loop's socket
//! is gone — the same race the UDP path resolves with bind retries.
//! Producers hold `Weak` endpoint references too and lazily re-resolve
//! after a peer restarts, building a fresh ring to the new incarnation;
//! sends to a dead or unknown address succeed and vanish, matching UDP
//! fire-and-forget semantics. Ring memory is carved from mmap'd
//! host-wide segments and recycled through a free list when both sides
//! of a link are gone.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use bytes::Bytes;

use accelring_core::ShmPathStats;

use crate::doorbell::Doorbell;
use crate::socket::{DatagramSocket, RecvOutcome, RecvSlot, SendOutcome};

/// Bytes per ring slot. One slot holds the protocol's common case (a
/// ~1.4 KiB data message plus headers) without internal fragmentation
/// pressure; larger datagrams span contiguous slots.
pub const SLOT_LEN: usize = 2048;

/// Slots per ring: 512 KiB of payload capacity per directed link, the
/// same depth the UDP path provisions via `SO_RCVBUF`.
pub const RING_SLOTS: u64 = 256;

/// Largest datagram the backend accepts — the transport-wide datagram
/// ceiling. `ceil((8 + 65536) / SLOT_LEN) = 33` slots, comfortably under
/// the ring size even after padding.
pub const MAX_SHM_DATAGRAM: usize = 65_536;

const HDR_LEN: usize = 8;
const REC_DATA: u32 = 0;
const REC_PAD: u32 = 1;

/// Cursor block ahead of the slot array: `head` at offset 0 and `tail`
/// at offset 64 so the two sides never share a cache line.
const CTRL_LEN: usize = 128;
const RING_BYTES: usize = CTRL_LEN + RING_SLOTS as usize * SLOT_LEN;

/// Rings carved per mapped segment (8 MiB segments; a 4-node ring uses
/// 24 directed links counting both socket classes).
const SEGMENT_RINGS: usize = 16;
const SEGMENT_BYTES: usize = SEGMENT_RINGS * RING_BYTES;

// ---------------------------------------------------------------------------
// Segment memory: a shared anonymous mapping on Linux (the `mmap` shim
// lives beside the socket calls in `crate::mmsg`), zeroed heap elsewhere.
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
use crate::mmsg::map_segment;

/// Portable fallback: a zeroed heap segment, never freed.
#[cfg(not(target_os = "linux"))]
fn map_segment(len: usize) -> io::Result<*mut u8> {
    use std::alloc::{alloc_zeroed, Layout};
    let layout = Layout::from_size_align(len, 64).expect("segment layout");
    // SAFETY: a valid non-zero-size layout; the segment is never
    // freed (it lives in the process-wide host registry), so the
    // pointer never dangles.
    let p = unsafe { alloc_zeroed(layout) };
    if p.is_null() {
        return Err(io::Error::other("shm segment allocation failed"));
    }
    Ok(p)
}

// ---------------------------------------------------------------------------
// Ring memory: host-wide segments, fixed-size ring blocks, the SPSC ring.
// ---------------------------------------------------------------------------

/// Base pointer of one mapped segment. Segments are owned by the static
/// host registry and never unmapped; `Send` is sound because the pointer
/// is only ever carved into disjoint ring blocks under the registry lock.
#[derive(Debug)]
struct Segment(*mut u8);

// SAFETY: see `Segment` — the raw pointer is only dereferenced through
// `RingBlock`s handed out under the registry lock, each covering a
// disjoint RING_BYTES range.
unsafe impl Send for Segment {}

/// Exclusive ownership of one RING_BYTES range inside a segment, handed
/// out by the host allocator and returned to its free list on drop of
/// the owning ring.
#[derive(Debug)]
struct RingBlock(*mut u8);

// SAFETY: a block is exclusively owned by one `RingShared`; the atomics
// inside it are what the two sides actually share.
unsafe impl Send for RingBlock {}
// SAFETY: as above — all shared access goes through the atomic cursors
// with acquire/release pairing.
unsafe impl Sync for RingBlock {}

/// The raw SPSC ring over one block: free-running u64 cursors plus the
/// slot array. All slot access is ordered by the cursor protocol (see
/// the module docs), so the non-atomic byte copies are data-race free.
#[derive(Debug)]
struct RawRing {
    block: RingBlock,
}

impl RawRing {
    fn new(block: RingBlock) -> RawRing {
        let ring = RawRing { block };
        // Blocks are recycled: a fresh ring must not inherit the previous
        // tenant's cursors.
        ring.head().store(0, Ordering::Relaxed);
        ring.tail().store(0, Ordering::Relaxed);
        ring
    }

    fn head(&self) -> &AtomicU64 {
        // SAFETY: offset 0 of an exclusively-owned, zero-initialized,
        // 64-byte-aligned block; AtomicU64 is valid for any bit pattern.
        unsafe { &*(self.block.0 as *const AtomicU64) }
    }

    fn tail(&self) -> &AtomicU64 {
        // SAFETY: offset 64 of the same block, 8-byte aligned.
        unsafe { &*(self.block.0.add(64) as *const AtomicU64) }
    }

    fn slot(&self, idx: u64) -> *mut u8 {
        debug_assert!(idx < RING_SLOTS);
        // SAFETY: idx < RING_SLOTS keeps the pointer inside the block.
        unsafe { self.block.0.add(CTRL_LEN + idx as usize * SLOT_LEN) }
    }

    fn write_hdr(p: *mut u8, len: u32, kind: u32) {
        // SAFETY: callers pass a slot pointer with at least HDR_LEN bytes
        // of exclusive (cursor-protected) space; slot starts are 8-aligned.
        unsafe {
            (p as *mut u32).write(len.to_le());
            (p.add(4) as *mut u32).write(kind.to_le());
        }
    }

    fn read_hdr(p: *const u8) -> (u32, u32) {
        // SAFETY: as `write_hdr`, on the consumer side of the cursors.
        unsafe {
            (
                u32::from_le((p as *const u32).read()),
                u32::from_le((p.add(4) as *const u32).read()),
            )
        }
    }

    /// Publishes one datagram; returns the slots consumed (pad + data) or
    /// `None` when the ring lacks space.
    fn push(&self, buf: &[u8]) -> Option<u64> {
        let needed = (HDR_LEN + buf.len()).div_ceil(SLOT_LEN) as u64;
        let tail = self.tail().load(Ordering::Relaxed);
        let head = self.head().load(Ordering::Acquire);
        let idx = tail % RING_SLOTS;
        let pad = if idx + needed > RING_SLOTS {
            RING_SLOTS - idx
        } else {
            0
        };
        if tail + pad + needed - head > RING_SLOTS {
            return None;
        }
        if pad > 0 {
            Self::write_hdr(self.slot(idx), 0, REC_PAD);
        }
        let at = if pad > 0 { 0 } else { idx };
        let p = self.slot(at);
        Self::write_hdr(p, buf.len() as u32, REC_DATA);
        // SAFETY: the space check above guarantees `needed` contiguous
        // free slots starting at `at` (pad restarts at slot 0), and the
        // consumer cannot touch them until the Release store below.
        unsafe {
            std::ptr::copy_nonoverlapping(buf.as_ptr(), p.add(HDR_LEN), buf.len());
        }
        self.tail().store(tail + pad + needed, Ordering::Release);
        Some(pad + needed)
    }

    /// Drains one datagram into `out` (truncating like UDP if `out` is
    /// short); returns `(payload_len_written, slots_freed)`.
    fn pop(&self, out: &mut [u8]) -> Option<(usize, u64)> {
        let head = self.head().load(Ordering::Relaxed);
        let tail = self.tail().load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let mut h = head;
        let mut idx = h % RING_SLOTS;
        let (mut len, kind) = Self::read_hdr(self.slot(idx));
        if kind == REC_PAD {
            // A pad is only ever published together with the record that
            // follows it at slot 0, so the ring cannot be empty here.
            h += RING_SLOTS - idx;
            idx = 0;
            debug_assert!(h < tail);
            let (l, k) = Self::read_hdr(self.slot(idx));
            debug_assert_eq!(k, REC_DATA);
            len = l;
        }
        let len = len as usize;
        let n = len.min(out.len());
        // SAFETY: the Acquire load of `tail` ordered these bytes after the
        // producer's writes; the record is contiguous by construction.
        unsafe {
            std::ptr::copy_nonoverlapping(self.slot(idx).add(HDR_LEN), out.as_mut_ptr(), n);
        }
        let slots = (HDR_LEN + len).div_ceil(SLOT_LEN) as u64;
        let freed = (h - head) + slots;
        self.head().store(h + slots, Ordering::Release);
        Some((n, freed))
    }

    /// Consumer-side emptiness probe (used by `prepare_wait`).
    fn has_data(&self) -> bool {
        self.head().load(Ordering::Relaxed) != self.tail().load(Ordering::Acquire)
    }
}

/// One directed link's ring plus its link metadata: the producer's
/// address (reported as the datagram source on receive) and a closed
/// flag the producer raises on drop so the consumer can prune the ring
/// once it has been drained.
#[derive(Debug)]
struct RingShared {
    ring: RawRing,
    src: SocketAddr,
    closed: AtomicBool,
}

impl Drop for RingShared {
    fn drop(&mut self) {
        host_release_block(RingBlock(self.ring.block.0));
    }
}

// ---------------------------------------------------------------------------
// Endpoints and the host registry.
// ---------------------------------------------------------------------------

/// The consumer side of a bound shm address: the inbound ring list
/// producers register into and the doorbell of the sleep/wake protocol.
#[derive(Debug)]
struct EndpointShared {
    addr: SocketAddr,
    inbound: Mutex<Vec<Arc<RingShared>>>,
    /// Bumped on every inbound registration so consumers refresh their
    /// lock-free cached ring list.
    epoch: AtomicU64,
    doorbell: Doorbell,
}

impl EndpointShared {
    fn new(addr: SocketAddr) -> io::Result<EndpointShared> {
        Ok(EndpointShared {
            addr,
            inbound: Mutex::new(Vec::new()),
            epoch: AtomicU64::new(0),
            doorbell: Doorbell::new()?,
        })
    }

    fn register(&self, ring: Arc<RingShared>) {
        self.inbound.lock().expect("shm inbound lock").push(ring);
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Producer half of the wakeup: runs after the tail publish.
    fn notify(&self, counters: &ShmCounters) {
        if self.doorbell.notify() {
            counters.doorbell_rings.fetch_add(1, Ordering::Relaxed);
        }
    }
}

struct HostInner {
    endpoints: HashMap<SocketAddr, Weak<EndpointShared>>,
    segments: Vec<Segment>,
    carved: usize,
    free: Vec<RingBlock>,
    next_ephemeral: u64,
}

fn host() -> &'static Mutex<HostInner> {
    static HOST: OnceLock<Mutex<HostInner>> = OnceLock::new();
    HOST.get_or_init(|| {
        Mutex::new(HostInner {
            endpoints: HashMap::new(),
            segments: Vec::new(),
            carved: SEGMENT_RINGS,
            free: Vec::new(),
            next_ephemeral: 0,
        })
    })
}

/// Carves a fresh ring block, mapping another segment when the current
/// one is exhausted and no recycled block is available.
fn host_alloc_block() -> io::Result<RingBlock> {
    let mut h = host().lock().expect("shm host lock");
    if let Some(b) = h.free.pop() {
        return Ok(b);
    }
    if h.carved == SEGMENT_RINGS {
        let base = map_segment(SEGMENT_BYTES)?;
        h.segments.push(Segment(base));
        h.carved = 0;
    }
    let base = h.segments.last().expect("segment just ensured").0;
    let at = h.carved;
    h.carved += 1;
    // SAFETY: `at < SEGMENT_RINGS` keeps the block inside the segment.
    Ok(RingBlock(unsafe { base.add(at * RING_BYTES) }))
}

fn host_release_block(block: RingBlock) {
    host().lock().expect("shm host lock").free.push(block);
}

fn host_lookup(addr: SocketAddr) -> Option<Arc<EndpointShared>> {
    host()
        .lock()
        .expect("shm host lock")
        .endpoints
        .get(&addr)
        .and_then(Weak::upgrade)
}

/// Registers an endpoint under `addr` (or a synthesized ephemeral address
/// when `addr` is `None`). A still-live registration under the same name
/// fails with `AddrInUse`, mirroring a kernel bind; dead `Weak` entries
/// are reclaimed in place.
fn host_bind(addr: Option<SocketAddr>) -> io::Result<Arc<EndpointShared>> {
    let mut h = host().lock().expect("shm host lock");
    let addr = match addr {
        Some(a) => {
            if h.endpoints.get(&a).is_some_and(|w| w.upgrade().is_some()) {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("shm address {a} already bound"),
                ));
            }
            a
        }
        None => loop {
            let n = h.next_ephemeral;
            h.next_ephemeral += 1;
            let hi = (n / 60_000) as u32;
            let a = SocketAddr::V4(SocketAddrV4::new(
                Ipv4Addr::new(127, 99, ((hi >> 8) & 0xff) as u8, (hi & 0xff) as u8),
                1024 + (n % 60_000) as u16,
            ));
            if h.endpoints.get(&a).is_none_or(|w| w.upgrade().is_none()) {
                break a;
            }
        },
    };
    let ep = Arc::new(EndpointShared::new(addr)?);
    h.endpoints.insert(addr, Arc::downgrade(&ep));
    h.endpoints.retain(|_, w| w.strong_count() > 0);
    Ok(ep)
}

// ---------------------------------------------------------------------------
// Counters.
// ---------------------------------------------------------------------------

/// Shared atomic counters behind [`ShmPathStats`]: one instance per node,
/// shared by its data and token sockets and snapshotted by the transport
/// probe.
#[derive(Debug, Default)]
pub struct ShmCounters {
    slots_published: AtomicU64,
    slots_consumed: AtomicU64,
    datagrams_published: AtomicU64,
    datagrams_consumed: AtomicU64,
    doorbell_rings: AtomicU64,
    doorbell_wakeups: AtomicU64,
    ring_full_drops: AtomicU64,
}

impl ShmCounters {
    /// A fresh all-zero counter block.
    pub fn new() -> Arc<ShmCounters> {
        Arc::new(ShmCounters::default())
    }

    /// Snapshots the counters into the plain stats struct.
    pub fn snapshot(&self) -> ShmPathStats {
        ShmPathStats {
            slots_published: self.slots_published.load(Ordering::Relaxed),
            slots_consumed: self.slots_consumed.load(Ordering::Relaxed),
            datagrams_published: self.datagrams_published.load(Ordering::Relaxed),
            datagrams_consumed: self.datagrams_consumed.load(Ordering::Relaxed),
            doorbell_rings: self.doorbell_rings.load(Ordering::Relaxed),
            doorbell_wakeups: self.doorbell_wakeups.load(Ordering::Relaxed),
            ring_full_drops: self.ring_full_drops.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// The socket.
// ---------------------------------------------------------------------------

/// A producer link to one destination: the peer endpoint (held weakly so
/// a restarted peer is re-resolved) and our ring into it. Dropping the
/// link closes the ring so the consumer can prune it once drained.
#[derive(Debug)]
struct Link {
    endpoint: Weak<EndpointShared>,
    ring: Arc<RingShared>,
}

impl Drop for Link {
    fn drop(&mut self) {
        self.ring.closed.store(true, Ordering::Release);
    }
}

/// Consumer-side cache of the endpoint's inbound ring list, refreshed on
/// epoch change so the hot path takes no lock; `next` rotates the drain
/// start for fairness across producers.
#[derive(Debug, Default)]
struct InboundCache {
    rings: Vec<Arc<RingShared>>,
    epoch: u64,
    next: usize,
}

/// The shared-memory [`DatagramSocket`]: zero syscalls on the datagram
/// path, eventfd doorbell for idle waits, UDP loss semantics under
/// backpressure. Bind one per socket class per daemon, exactly like the
/// UDP pair.
///
/// Interior mutability is `RefCell`, which is sound here: the trait is
/// `Send` but not `Sync`, and every socket is owned by exactly one event
/// loop thread — the *shared* state (rings, doorbells) is all atomics
/// and mutexes.
pub struct ShmSocket {
    local: Arc<EndpointShared>,
    counters: Arc<ShmCounters>,
    links: RefCell<HashMap<SocketAddr, Link>>,
    inbound: RefCell<InboundCache>,
}

impl std::fmt::Debug for ShmSocket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShmSocket")
            .field("addr", &self.local.addr)
            .finish()
    }
}

impl ShmSocket {
    /// Binds a fresh endpoint under a synthesized ephemeral address.
    ///
    /// # Errors
    ///
    /// Propagates doorbell/segment setup failures.
    pub fn bind_ephemeral(counters: Arc<ShmCounters>) -> io::Result<ShmSocket> {
        Ok(ShmSocket::wrap(host_bind(None)?, counters))
    }

    /// Binds the given address, failing with `AddrInUse` while a previous
    /// incarnation's socket is still alive (restart paths retry, exactly
    /// as they do against the kernel).
    ///
    /// # Errors
    ///
    /// `AddrInUse` when the name is still held; otherwise doorbell or
    /// segment setup failures.
    pub fn bind(addr: SocketAddr, counters: Arc<ShmCounters>) -> io::Result<ShmSocket> {
        Ok(ShmSocket::wrap(host_bind(Some(addr))?, counters))
    }

    fn wrap(local: Arc<EndpointShared>, counters: Arc<ShmCounters>) -> ShmSocket {
        ShmSocket {
            local,
            counters,
            links: RefCell::new(HashMap::new()),
            inbound: RefCell::new(InboundCache::default()),
        }
    }

    /// The bound (synthetic) address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local.addr
    }

    /// Resolves (or builds) the link to `addr`; `None` means the peer
    /// does not exist right now and the datagram should vanish.
    fn link_to(&self, addr: SocketAddr) -> io::Result<Option<Arc<EndpointShared>>> {
        let mut links = self.links.borrow_mut();
        if let Some(link) = links.get(&addr) {
            if let Some(ep) = link.endpoint.upgrade() {
                return Ok(Some(ep));
            }
            // Peer endpoint died (crash or rebind): close our ring into
            // the old incarnation and re-resolve below.
            links.remove(&addr);
        }
        let Some(ep) = host_lookup(addr) else {
            return Ok(None);
        };
        let ring = Arc::new(RingShared {
            ring: RawRing::new(host_alloc_block()?),
            src: self.local.addr,
            closed: AtomicBool::new(false),
        });
        ep.register(Arc::clone(&ring));
        links.insert(
            addr,
            Link {
                endpoint: Arc::downgrade(&ep),
                ring,
            },
        );
        Ok(Some(ep))
    }

    /// Publishes one datagram; returns the endpoint to ring the doorbell
    /// of, if the datagram actually landed in a ring.
    fn publish(&self, buf: &[u8], addr: SocketAddr) -> io::Result<Option<Arc<EndpointShared>>> {
        if buf.len() > MAX_SHM_DATAGRAM {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "datagram exceeds shm transport maximum",
            ));
        }
        let Some(ep) = self.link_to(addr)? else {
            // Unknown or dead destination: the datagram vanishes, as UDP
            // datagrams to an unbound port do.
            return Ok(None);
        };
        let links = self.links.borrow();
        let link = links.get(&addr).expect("link just resolved");
        match link.ring.ring.push(buf) {
            Some(slots) => {
                self.counters
                    .slots_published
                    .fetch_add(slots, Ordering::Relaxed);
                self.counters
                    .datagrams_published
                    .fetch_add(1, Ordering::Relaxed);
                Ok(Some(ep))
            }
            None => {
                self.counters
                    .ring_full_drops
                    .fetch_add(1, Ordering::Relaxed);
                Ok(None)
            }
        }
    }

    fn refresh_inbound(&self) {
        let epoch = self.local.epoch.load(Ordering::SeqCst);
        let mut cache = self.inbound.borrow_mut();
        if cache.epoch != epoch {
            cache.rings = self.local.inbound.lock().expect("shm inbound lock").clone();
            cache.epoch = epoch;
        }
    }

    /// Drops rings whose producer is gone and whose slots are drained,
    /// from both the shared inbound list and the local cache. Removed
    /// ring handles are dropped only after the lock is released (ring
    /// drop takes the host lock; see the lock-order note on `host`).
    fn prune_inbound(&self) {
        let mut cache = self.inbound.borrow_mut();
        if !cache
            .rings
            .iter()
            .any(|r| r.closed.load(Ordering::Acquire) && !r.ring.has_data())
        {
            return;
        }
        let mut removed: Vec<Arc<RingShared>> = Vec::new();
        {
            let mut inbound = self.local.inbound.lock().expect("shm inbound lock");
            inbound.retain(|r| {
                let dead = r.closed.load(Ordering::Acquire) && !r.ring.has_data();
                if dead {
                    removed.push(Arc::clone(r));
                }
                !dead
            });
        }
        cache
            .rings
            .retain(|r| !removed.iter().any(|d| Arc::ptr_eq(d, r)));
        drop(cache);
        drop(removed);
    }

    fn pending(&self) -> bool {
        self.refresh_inbound();
        self.inbound
            .borrow()
            .rings
            .iter()
            .any(|r| r.ring.has_data())
    }
}

impl DatagramSocket for ShmSocket {
    fn send_to(&self, buf: &[u8], addr: SocketAddr) -> io::Result<usize> {
        if let Some(ep) = self.publish(buf, addr)? {
            ep.notify(&self.counters);
        }
        Ok(buf.len())
    }

    fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        self.refresh_inbound();
        let mut cache = self.inbound.borrow_mut();
        let n = cache.rings.len();
        for k in 0..n {
            let i = (cache.next + k) % n;
            if let Some((len, slots)) = cache.rings[i].ring.pop(buf) {
                cache.next = (i + 1) % n;
                self.counters
                    .slots_consumed
                    .fetch_add(slots, Ordering::Relaxed);
                self.counters
                    .datagrams_consumed
                    .fetch_add(1, Ordering::Relaxed);
                return Ok((len, cache.rings[i].src));
            }
        }
        Err(io::Error::new(io::ErrorKind::WouldBlock, "shm rings empty"))
    }

    fn send_batch(&self, batch: &[(Bytes, SocketAddr)]) -> SendOutcome {
        let mut out = SendOutcome::default();
        // One doorbell ring per touched endpoint per batch, after all of
        // the batch's slots are published.
        let mut wake: Vec<Arc<EndpointShared>> = Vec::new();
        for (buf, addr) in batch {
            match self.publish(buf, *addr) {
                Ok(Some(ep)) => {
                    out.sent += 1;
                    if !wake.iter().any(|w| Arc::ptr_eq(w, &ep)) {
                        wake.push(ep);
                    }
                }
                // Vanished (unknown peer) and ring-full drops both count
                // as sent: the datagram left the node's hands.
                Ok(None) => out.sent += 1,
                Err(_) => out.errors += 1,
            }
        }
        for ep in wake {
            ep.notify(&self.counters);
        }
        out
    }

    fn recv_batch(&self, slots: &mut [RecvSlot<'_>]) -> io::Result<RecvOutcome> {
        self.refresh_inbound();
        let mut filled = 0;
        {
            let mut cache = self.inbound.borrow_mut();
            let n = cache.rings.len();
            if n > 0 {
                let start = cache.next % n;
                'rings: for k in 0..n {
                    let ring = &cache.rings[(start + k) % n];
                    while filled < slots.len() {
                        match ring.ring.pop(slots[filled].buf) {
                            Some((len, freed)) => {
                                slots[filled].len = len;
                                slots[filled].addr = Some(ring.src);
                                filled += 1;
                                self.counters
                                    .slots_consumed
                                    .fetch_add(freed, Ordering::Relaxed);
                            }
                            None => continue 'rings,
                        }
                    }
                    break;
                }
                cache.next = (start + 1) % n;
            }
        }
        if filled > 0 {
            self.counters
                .datagrams_consumed
                .fetch_add(filled as u64, Ordering::Relaxed);
        } else {
            self.prune_inbound();
        }
        Ok(RecvOutcome {
            received: filled,
            syscalls: 0,
        })
    }

    fn poll_fd(&self) -> Option<i32> {
        self.local.doorbell.poll_fd()
    }

    fn prepare_wait(&self) -> bool {
        if self.local.doorbell.drain() {
            self.counters
                .doorbell_wakeups
                .fetch_add(1, Ordering::Relaxed);
        }
        self.local.doorbell.arm(|| self.pending())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sock() -> ShmSocket {
        ShmSocket::bind_ephemeral(ShmCounters::new()).unwrap()
    }

    fn recv_one(s: &ShmSocket) -> Option<(Vec<u8>, SocketAddr)> {
        let mut buf = vec![0u8; MAX_SHM_DATAGRAM];
        match s.recv_from(&mut buf) {
            Ok((n, a)) => Some((buf[..n].to_vec(), a)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
            Err(e) => panic!("recv: {e}"),
        }
    }

    #[test]
    fn roundtrip_reports_source_address() {
        let a = sock();
        let b = sock();
        a.send_to(b"hello ring", b.local_addr()).unwrap();
        let (payload, from) = recv_one(&b).expect("datagram");
        assert_eq!(payload, b"hello ring");
        assert_eq!(from, a.local_addr());
        assert!(recv_one(&b).is_none());
    }

    #[test]
    fn send_to_unknown_address_vanishes_ok() {
        let a = sock();
        let ghost: SocketAddr = "127.99.255.255:9".parse().unwrap();
        assert_eq!(a.send_to(b"into the void", ghost).unwrap(), 13);
        assert_eq!(a.counters.snapshot().datagrams_published, 0);
    }

    #[test]
    fn wraparound_preserves_order_and_content() {
        let a = sock();
        let b = sock();
        // Far more traffic than one ring holds, drained in lockstep so
        // the cursors lap the slot array many times.
        let mut expect = 0u32;
        for i in 0u32..4000 {
            let msg = vec![(i % 251) as u8; 100 + (i as usize % 900)];
            a.send_to(&msg, b.local_addr()).unwrap();
            if i % 3 == 0 {
                while let Some((got, _)) = recv_one(&b) {
                    assert_eq!(got[0], (expect % 251) as u8);
                    assert_eq!(got.len(), 100 + (expect as usize % 900));
                    expect += 1;
                }
            }
        }
        while let Some((got, _)) = recv_one(&b) {
            assert_eq!(got[0], (expect % 251) as u8);
            expect += 1;
        }
        assert_eq!(expect, 4000);
        assert_eq!(a.counters.snapshot().ring_full_drops, 0);
    }

    #[test]
    fn jumbo_datagram_spans_slots() {
        let a = sock();
        let b = sock();
        let jumbo: Vec<u8> = (0..60_000u32).map(|i| (i % 256) as u8).collect();
        // A small record first so the jumbo lands mid-array and pads.
        a.send_to(b"lead", b.local_addr()).unwrap();
        a.send_to(&jumbo, b.local_addr()).unwrap();
        assert_eq!(recv_one(&b).unwrap().0, b"lead");
        assert_eq!(recv_one(&b).unwrap().0, jumbo);
        let snap = a.counters.snapshot();
        assert!(snap.slots_published >= 30, "jumbo spans many slots");
        assert!(a
            .send_to(&vec![0u8; MAX_SHM_DATAGRAM + 1], b.local_addr())
            .is_err());
    }

    #[test]
    fn full_ring_drops_and_recovers() {
        let a = sock();
        let b = sock();
        let big = vec![7u8; SLOT_LEN * 4];
        let mut sent_ok = 0u64;
        for _ in 0..200 {
            a.send_to(&big, b.local_addr()).unwrap();
        }
        let snap = a.counters.snapshot();
        assert!(snap.ring_full_drops > 0, "ring must saturate");
        while recv_one(&b).is_some() {
            sent_ok += 1;
        }
        assert_eq!(sent_ok, snap.datagrams_published);
        // Drained ring accepts traffic again.
        a.send_to(b"after", b.local_addr()).unwrap();
        assert_eq!(recv_one(&b).unwrap().0, b"after");
    }

    #[test]
    fn named_bind_conflicts_until_dropped() {
        let addr: SocketAddr = "127.99.77.1:4321".parse().unwrap();
        let first = ShmSocket::bind(addr, ShmCounters::new()).unwrap();
        let again = ShmSocket::bind(addr, ShmCounters::new());
        assert_eq!(again.unwrap_err().kind(), io::ErrorKind::AddrInUse);
        drop(first);
        let third = ShmSocket::bind(addr, ShmCounters::new()).unwrap();
        assert_eq!(third.local_addr(), addr);
    }

    #[test]
    fn restarted_peer_gets_fresh_ring() {
        let addr: SocketAddr = "127.99.77.2:4321".parse().unwrap();
        let a = sock();
        let b1 = ShmSocket::bind(addr, ShmCounters::new()).unwrap();
        a.send_to(b"one", addr).unwrap();
        assert_eq!(recv_one(&b1).unwrap().0, b"one");
        drop(b1);
        // Peer gone: sends vanish but still succeed.
        a.send_to(b"lost", addr).unwrap();
        let b2 = ShmSocket::bind(addr, ShmCounters::new()).unwrap();
        a.send_to(b"two", addr).unwrap();
        assert_eq!(recv_one(&b2).unwrap().0, b"two");
        assert!(recv_one(&b2).is_none());
    }

    #[test]
    fn batch_roundtrip_zero_syscalls() {
        let a = sock();
        let b = sock();
        let batch: Vec<(Bytes, SocketAddr)> = (0u8..9)
            .map(|i| (Bytes::from(vec![i; 5 + i as usize]), b.local_addr()))
            .collect();
        let out = a.send_batch(&batch);
        assert_eq!(out.sent, 9);
        assert_eq!(out.errors, 0);
        assert_eq!(out.syscalls, 0);
        let mut bufs = vec![[0u8; 64]; 16];
        let mut slots: Vec<RecvSlot<'_>> = bufs.iter_mut().map(|b| RecvSlot::new(b)).collect();
        let out = b.recv_batch(&mut slots).unwrap();
        assert_eq!(out.received, 9);
        assert_eq!(out.syscalls, 0);
        for (i, slot) in slots.iter().take(9).enumerate() {
            assert_eq!(slot.len, 5 + i);
            assert_eq!(&slot.buf[..slot.len], vec![i as u8; 5 + i].as_slice());
            assert_eq!(slot.addr, Some(a.local_addr()));
        }
        assert!(slots[9].addr.is_none());
    }

    #[test]
    fn prepare_wait_arms_and_detects_pending() {
        // The ring-only-while-armed handshake itself is tested on
        // `Doorbell`; this checks the shm wiring around it.
        let a = sock();
        let b = sock();
        // Empty rings: the wait may proceed, and a send to the armed
        // endpoint is counted as a doorbell ring.
        assert!(!b.prepare_wait());
        a.send_to(b"wake", b.local_addr()).unwrap();
        assert_eq!(a.counters.snapshot().doorbell_rings, 1);
        // The next wait preparation drains the ring, sees the pending
        // datagram, and refuses to sleep.
        assert!(b.prepare_wait());
        let _ = recv_one(&b).unwrap();
    }

    #[test]
    fn self_send_roundtrips() {
        let a = sock();
        a.send_to(b"loop", a.local_addr()).unwrap();
        let (payload, from) = recv_one(&a).unwrap();
        assert_eq!(payload, b"loop");
        assert_eq!(from, a.local_addr());
    }

    #[test]
    fn counters_balance_after_drain() {
        let a = sock();
        let b = sock();
        for i in 0..500u32 {
            a.send_to(&i.to_le_bytes(), b.local_addr()).unwrap();
            if i % 100 == 99 {
                while recv_one(&b).is_some() {}
            }
        }
        while recv_one(&b).is_some() {}
        let tx = a.counters.snapshot();
        let rx = b.counters.snapshot();
        assert_eq!(tx.datagrams_published + tx.ring_full_drops, 500);
        assert_eq!(rx.datagrams_consumed, tx.datagrams_published);
        assert_eq!(tx.slots_published, rx.slots_consumed);
        assert_eq!(
            tx.ring_full_drops, 0,
            "drain every 100 keeps the ring clear"
        );
    }
}
