//! The receive buffer: ordered message storage, local aru tracking, and the
//! delivery engine for Agreed and Safe services (Sections III-B4 and III-C
//! of the paper) — plus the recycling [`BufferPool`] arena the live
//! transport encodes its outputs into.
//!
//! Received datagrams come from no pool: the transport copies each out of
//! a standing receive buffer at its exact length (see
//! `accelring_transport::RecvBatch`), so a message this buffer holds until
//! discard costs its own bytes, not a whole datagram-sized buffer.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bytes::{BufMut, Bytes, Recycle};

use crate::message::DataMessage;
use crate::types::{ParticipantId, Round, Seq, Service};

/// Snapshot of a [`BufferPool`]'s counters.
///
/// `outstanding` is the leak detector: once every encoding has been sent
/// and dropped (on a quiet or stopped node), it must read zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions served from the free list.
    pub hits: u64,
    /// Acquisitions that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers returned to the pool (lease drop or last-reference recycle).
    pub returned: u64,
    /// Returned buffers dropped because the free list was full.
    pub trimmed: u64,
    /// Leases (or frozen [`Bytes`] still alive) not yet returned.
    pub outstanding: u64,
    /// Buffers currently parked on the free list.
    pub free: u64,
}

#[derive(Debug)]
struct PoolInner {
    free: Mutex<Vec<Vec<u8>>>,
    buf_capacity: usize,
    max_free: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    returned: AtomicU64,
    trimmed: AtomicU64,
    outstanding: AtomicU64,
}

impl PoolInner {
    fn give_back(&self, buf: Vec<u8>) {
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
        self.returned.fetch_add(1, Ordering::Relaxed);
        let mut free = self.free.lock().expect("pool free list poisoned");
        if free.len() < self.max_free && buf.capacity() >= self.buf_capacity {
            free.push(buf);
        } else {
            self.trimmed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Recycle for PoolInner {
    fn recycle(&self, buf: Vec<u8>) {
        self.give_back(buf);
    }
}

/// A recycling arena of fixed-capacity byte buffers for the transport's
/// send path.
///
/// Encoded outputs are written into pooled buffers and sent without an
/// intermediate `Vec`. Freezing a lease produces a [`Bytes`] whose
/// backing storage returns to the pool when the *last* reference drops,
/// so one encoding is cloned per fan-out destination and comes home once
/// the burst is sent.
///
/// The pool is cheap to clone (it is an [`Arc`] handle) and safe to share
/// across threads; recycling may fire on whatever thread drops the last
/// reference.
///
/// # Examples
///
/// ```
/// use accelring_core::buffer::BufferPool;
/// use bytes::BufMut;
///
/// let pool = BufferPool::new(1024, 8);
/// let mut lease = pool.acquire();
/// lease.put_slice(b"datagram");
/// let frozen = lease.freeze();
/// assert_eq!(pool.stats().outstanding, 1);
/// drop(frozen);
/// assert_eq!(pool.stats().outstanding, 0);
/// assert_eq!(pool.stats().free, 1);
/// ```
#[derive(Debug, Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl BufferPool {
    /// Creates a pool handing out buffers of at least `buf_capacity` bytes,
    /// parking at most `max_free` idle buffers.
    pub fn new(buf_capacity: usize, max_free: usize) -> BufferPool {
        BufferPool {
            inner: Arc::new(PoolInner {
                free: Mutex::new(Vec::new()),
                buf_capacity,
                max_free,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                returned: AtomicU64::new(0),
                trimmed: AtomicU64::new(0),
                outstanding: AtomicU64::new(0),
            }),
        }
    }

    /// Capacity of the buffers this pool hands out.
    pub fn buf_capacity(&self) -> usize {
        self.inner.buf_capacity
    }

    /// Takes a buffer from the free list, or allocates one on a miss.
    ///
    /// The buffer's *contents and length* are whatever its previous user
    /// left behind — call [`BufLease::clear`] before encoding into it.
    pub fn acquire(&self) -> BufLease {
        let recycled = self
            .inner
            .free
            .lock()
            .expect("pool free list poisoned")
            .pop();
        let buf = match recycled {
            Some(buf) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(self.inner.buf_capacity)
            }
        };
        self.inner.outstanding.fetch_add(1, Ordering::Relaxed);
        BufLease {
            buf: Some(buf),
            pool: Arc::clone(&self.inner),
        }
    }

    /// Leases (or frozen buffers) not yet returned to the pool.
    pub fn outstanding(&self) -> u64 {
        self.inner.outstanding.load(Ordering::Relaxed)
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            returned: self.inner.returned.load(Ordering::Relaxed),
            trimmed: self.inner.trimmed.load(Ordering::Relaxed),
            outstanding: self.inner.outstanding.load(Ordering::Relaxed),
            free: self
                .inner
                .free
                .lock()
                .expect("pool free list poisoned")
                .len() as u64,
        }
    }
}

/// A pooled buffer checked out of a [`BufferPool`].
///
/// Write into it through [`BufMut`], then [`freeze`](BufLease::freeze) it
/// into a [`Bytes`] that recycles on last drop. Dropping an unfrozen
/// lease returns the buffer immediately.
#[derive(Debug)]
pub struct BufLease {
    buf: Option<Vec<u8>>,
    pool: Arc<PoolInner>,
}

impl BufLease {
    fn buf_mut(&mut self) -> &mut Vec<u8> {
        self.buf
            .as_mut()
            .expect("lease buffer present until freeze")
    }

    /// Number of bytes currently written.
    pub fn len(&self) -> usize {
        self.buf.as_ref().map_or(0, Vec::len)
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resets the write position to the start (capacity is kept).
    pub fn clear(&mut self) {
        self.buf_mut().clear();
    }

    /// The bytes written so far.
    pub fn written(&self) -> &[u8] {
        self.buf.as_deref().unwrap_or(&[])
    }

    /// Freezes the whole written length into a recycling [`Bytes`].
    pub fn freeze(mut self) -> Bytes {
        let buf = self.buf.take().expect("lease buffer present until freeze");
        Bytes::with_recycler(buf, Arc::clone(&self.pool) as Arc<dyn Recycle>)
    }
}

impl BufMut for BufLease {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf_mut().extend_from_slice(src);
    }
}

impl Drop for BufLease {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.pool.give_back(buf);
        }
    }
}

/// A message handed to the application, in total order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Position in the total order.
    pub seq: Seq,
    /// Original sender.
    pub sender: ParticipantId,
    /// Round the message was initiated in.
    pub round: Round,
    /// Service level the sender requested.
    pub service: Service,
    /// Application payload.
    pub payload: Bytes,
}

impl Delivery {
    fn from_message(msg: &DataMessage) -> Delivery {
        Delivery {
            seq: msg.seq,
            sender: msg.pid,
            round: msg.round,
            service: msg.service,
            payload: msg.payload.clone(),
        }
    }
}

/// Buffer of received-but-not-yet-discarded messages, ordered by sequence
/// number.
///
/// The buffer tracks three monotone lines through the sequence space:
///
/// * `local_aru` — every message at or below it has been *received*;
/// * the delivery prefix — every message at or below it has been *delivered*
///   to the application (Agreed messages as soon as they are in order, Safe
///   messages once the safe line passes them);
/// * `discarded_up_to` — messages at or below it have been garbage-collected
///   because the token proved that every participant has them.
///
/// # Examples
///
/// ```
/// use accelring_core::buffer::RecvBuffer;
/// use accelring_core::{Seq};
///
/// let buf = RecvBuffer::new(Seq::ZERO);
/// assert_eq!(buf.local_aru(), Seq::ZERO);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RecvBuffer {
    messages: BTreeMap<Seq, DataMessage>,
    local_aru: Seq,
    next_delivery: Seq,
    safe_line: Seq,
    discarded_up_to: Seq,
}

impl RecvBuffer {
    /// Creates a buffer whose total order starts just above `start` (the
    /// membership algorithm passes a nonzero `start` when a new ring
    /// continues an existing order).
    pub fn new(start: Seq) -> RecvBuffer {
        RecvBuffer {
            messages: BTreeMap::new(),
            local_aru: start,
            next_delivery: start.next(),
            safe_line: start,
            discarded_up_to: start,
        }
    }

    /// Highest sequence number such that every message at or below it has
    /// been received.
    pub fn local_aru(&self) -> Seq {
        self.local_aru
    }

    /// The highest sequence number currently cleared for Safe delivery.
    pub fn safe_line(&self) -> Seq {
        self.safe_line
    }

    /// Everything at or below this has been garbage-collected.
    pub fn discarded_up_to(&self) -> Seq {
        self.discarded_up_to
    }

    /// Sequence number of the next message to deliver.
    pub fn next_delivery(&self) -> Seq {
        self.next_delivery
    }

    /// Whether the message with sequence number `seq` is held (received and
    /// not yet discarded).
    pub fn contains(&self, seq: Seq) -> bool {
        self.messages.contains_key(&seq)
    }

    /// Returns the held message with sequence number `seq`, if any.
    /// Used to answer retransmission requests.
    pub fn get(&self, seq: Seq) -> Option<&DataMessage> {
        self.messages.get(&seq)
    }

    /// Number of messages currently held.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Whether the buffer holds no messages.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// Inserts a received (or self-sent) message. Returns `true` if the
    /// message was new, `false` if it was a duplicate or already discarded.
    ///
    /// Advances `local_aru` across any contiguous run the insertion
    /// completes.
    pub fn insert(&mut self, msg: DataMessage) -> bool {
        if msg.seq <= self.discarded_up_to || self.messages.contains_key(&msg.seq) {
            return false;
        }
        let seq = msg.seq;
        self.messages.insert(seq, msg);
        if seq == self.local_aru.next() {
            let mut aru = seq;
            while self.messages.contains_key(&aru.next()) {
                aru = aru.next();
            }
            self.local_aru = aru;
        }
        true
    }

    /// Raises the safe line to `line` (it never moves backwards). Messages
    /// requiring Safe delivery at or below the line become deliverable.
    pub fn raise_safe_line(&mut self, line: Seq) {
        if line > self.safe_line {
            self.safe_line = line;
        }
    }

    /// Drains every message that is now deliverable, in total order:
    /// messages are delivered while they are contiguous (at or below
    /// `local_aru`), stopping early at an undelivered Safe message above the
    /// safe line, because a Safe message blocks everything behind it to
    /// preserve the single total order (Section III-C).
    pub fn pop_deliverable(&mut self, out: &mut Vec<Delivery>) {
        while self.next_delivery <= self.local_aru {
            let msg = self
                .messages
                .get(&self.next_delivery)
                .expect("messages at or below local_aru are held");
            if msg.service.requires_stability() && self.next_delivery > self.safe_line {
                break;
            }
            out.push(Delivery::from_message(msg));
            self.next_delivery = self.next_delivery.next();
        }
    }

    /// Garbage-collects every message at or below `line`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if asked to discard messages that have not been
    /// delivered yet — the protocol only discards below the safe line, and
    /// delivery always precedes discarding in token handling.
    pub fn discard_up_to(&mut self, line: Seq) {
        if line <= self.discarded_up_to {
            return;
        }
        debug_assert!(
            line < self.next_delivery,
            "discarding undelivered messages: line {line}, next delivery {}",
            self.next_delivery
        );
        self.messages = self.messages.split_off(&line.next());
        self.discarded_up_to = line;
    }

    /// Iterates over the held (received, not yet discarded) messages in
    /// sequence order. Used by the membership algorithm to snapshot the
    /// buffer when a configuration change begins.
    pub fn iter_held(&self) -> impl Iterator<Item = &DataMessage> {
        self.messages.values()
    }

    /// The highest sequence number currently held, or the discard line if
    /// the buffer is empty.
    pub fn highest_held(&self) -> Seq {
        self.messages
            .keys()
            .next_back()
            .copied()
            .unwrap_or(self.discarded_up_to)
            .max(self.local_aru)
    }

    /// Collects the sequence numbers in `(local_aru, limit]` that have not
    /// been received — the retransmission requests this participant should
    /// place on the token, capped at `max` entries to bound the token size.
    pub fn missing_up_to(&self, limit: Seq, max: usize) -> Vec<Seq> {
        let mut missing = Vec::new();
        let mut s = self.local_aru.next();
        while s <= limit && missing.len() < max {
            if !self.messages.contains_key(&s) {
                missing.push(s);
            }
            s = s.next();
        }
        missing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RingId;

    fn msg(seq: u64, service: Service) -> DataMessage {
        DataMessage {
            ring_id: RingId::new(ParticipantId::new(0), 1),
            seq: Seq::new(seq),
            pid: ParticipantId::new((seq % 3) as u16),
            round: Round::new(1),
            service,
            post_token: false,
            retransmission: false,
            payload: Bytes::from(seq.to_le_bytes().to_vec()),
        }
    }

    #[test]
    fn aru_advances_over_contiguous_prefix() {
        let mut b = RecvBuffer::new(Seq::ZERO);
        assert!(b.insert(msg(1, Service::Agreed)));
        assert_eq!(b.local_aru(), Seq::new(1));
        assert!(b.insert(msg(3, Service::Agreed)));
        assert_eq!(b.local_aru(), Seq::new(1));
        assert!(b.insert(msg(2, Service::Agreed)));
        assert_eq!(b.local_aru(), Seq::new(3));
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut b = RecvBuffer::new(Seq::ZERO);
        assert!(b.insert(msg(1, Service::Agreed)));
        assert!(!b.insert(msg(1, Service::Agreed)));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn agreed_messages_deliver_in_order() {
        let mut b = RecvBuffer::new(Seq::ZERO);
        b.insert(msg(2, Service::Agreed));
        let mut out = Vec::new();
        b.pop_deliverable(&mut out);
        assert!(out.is_empty(), "gap at 1 blocks delivery");
        b.insert(msg(1, Service::Agreed));
        b.pop_deliverable(&mut out);
        assert_eq!(
            out.iter().map(|d| d.seq.as_u64()).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn safe_message_blocks_until_safe_line() {
        let mut b = RecvBuffer::new(Seq::ZERO);
        b.insert(msg(1, Service::Safe));
        b.insert(msg(2, Service::Agreed));
        let mut out = Vec::new();
        b.pop_deliverable(&mut out);
        assert!(out.is_empty(), "safe msg at 1 blocks everything");
        b.raise_safe_line(Seq::new(1));
        b.pop_deliverable(&mut out);
        assert_eq!(
            out.iter().map(|d| d.seq.as_u64()).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn safe_line_never_regresses() {
        let mut b = RecvBuffer::new(Seq::ZERO);
        b.raise_safe_line(Seq::new(10));
        b.raise_safe_line(Seq::new(5));
        assert_eq!(b.safe_line(), Seq::new(10));
    }

    #[test]
    fn discard_drops_prefix_and_blocks_reinsertion() {
        let mut b = RecvBuffer::new(Seq::ZERO);
        for s in 1..=5 {
            b.insert(msg(s, Service::Agreed));
        }
        let mut out = Vec::new();
        b.pop_deliverable(&mut out);
        b.discard_up_to(Seq::new(3));
        assert_eq!(b.len(), 2);
        assert!(!b.contains(Seq::new(3)));
        assert!(b.contains(Seq::new(4)));
        assert!(
            !b.insert(msg(2, Service::Agreed)),
            "discarded seqs rejected"
        );
        assert_eq!(b.discarded_up_to(), Seq::new(3));
    }

    #[test]
    fn discard_is_idempotent_and_monotone() {
        let mut b = RecvBuffer::new(Seq::ZERO);
        b.insert(msg(1, Service::Agreed));
        let mut out = Vec::new();
        b.pop_deliverable(&mut out);
        b.discard_up_to(Seq::new(1));
        b.discard_up_to(Seq::new(1));
        b.discard_up_to(Seq::ZERO);
        assert_eq!(b.discarded_up_to(), Seq::new(1));
    }

    #[test]
    fn missing_up_to_reports_gaps() {
        let mut b = RecvBuffer::new(Seq::ZERO);
        b.insert(msg(1, Service::Agreed));
        b.insert(msg(3, Service::Agreed));
        b.insert(msg(6, Service::Agreed));
        let missing = b.missing_up_to(Seq::new(7), 100);
        assert_eq!(
            missing.iter().map(|s| s.as_u64()).collect::<Vec<_>>(),
            vec![2, 4, 5, 7]
        );
    }

    #[test]
    fn missing_up_to_respects_cap() {
        let b = RecvBuffer::new(Seq::ZERO);
        let missing = b.missing_up_to(Seq::new(1000), 3);
        assert_eq!(missing.len(), 3);
        assert_eq!(missing[0], Seq::new(1));
    }

    #[test]
    fn missing_up_to_empty_when_limit_below_aru() {
        let mut b = RecvBuffer::new(Seq::ZERO);
        b.insert(msg(1, Service::Agreed));
        assert!(b.missing_up_to(Seq::new(1), 100).is_empty());
        assert!(b.missing_up_to(Seq::ZERO, 100).is_empty());
    }

    #[test]
    fn nonzero_start_offsets_everything() {
        let mut b = RecvBuffer::new(Seq::new(100));
        assert_eq!(b.local_aru(), Seq::new(100));
        assert!(
            !b.insert(msg(100, Service::Agreed)),
            "at start is discarded"
        );
        assert!(b.insert(msg(101, Service::Agreed)));
        assert_eq!(b.local_aru(), Seq::new(101));
        let mut out = Vec::new();
        b.pop_deliverable(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].seq, Seq::new(101));
    }

    #[test]
    fn get_serves_held_messages() {
        let mut b = RecvBuffer::new(Seq::ZERO);
        b.insert(msg(4, Service::Agreed));
        assert!(b.get(Seq::new(4)).is_some());
        assert!(b.get(Seq::new(5)).is_none());
    }

    #[test]
    fn pool_hits_after_recycle() {
        let pool = BufferPool::new(256, 4);
        let lease = pool.acquire();
        assert_eq!(pool.stats().misses, 1);
        drop(lease);
        let stats = pool.stats();
        assert_eq!(stats.returned, 1);
        assert_eq!(stats.free, 1);
        let _again = pool.acquire();
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn frozen_bytes_recycle_on_last_reference() {
        let pool = BufferPool::new(256, 4);
        let mut lease = pool.acquire();
        use bytes::BufMut;
        lease.put_slice(b"header|payload");
        let frozen = lease.freeze().slice(..6);
        assert_eq!(&frozen[..], b"header");
        let slice = frozen.slice(1..3);
        drop(frozen);
        assert_eq!(pool.stats().outstanding, 1, "slice pins the buffer");
        drop(slice);
        let stats = pool.stats();
        assert_eq!(stats.outstanding, 0);
        assert_eq!(stats.free, 1);
    }

    #[test]
    fn pool_trims_beyond_max_free() {
        let pool = BufferPool::new(64, 1);
        let a = pool.acquire();
        let b = pool.acquire();
        drop(a);
        drop(b);
        let stats = pool.stats();
        assert_eq!(stats.free, 1);
        assert_eq!(stats.trimmed, 1);
        assert_eq!(stats.outstanding, 0);
    }

    #[test]
    fn clear_supports_encode_reuse() {
        use bytes::BufMut;
        let pool = BufferPool::new(64, 4);
        let mut lease = pool.acquire();
        lease.put_slice(b"first");
        drop(lease);
        let mut lease = pool.acquire();
        lease.clear();
        lease.put_slice(b"second");
        assert_eq!(lease.written(), b"second");
        assert_eq!(lease.freeze(), "second");
    }

    #[test]
    fn delivery_preserves_message_fields() {
        let mut b = RecvBuffer::new(Seq::ZERO);
        let m = msg(1, Service::Agreed);
        b.insert(m.clone());
        let mut out = Vec::new();
        b.pop_deliverable(&mut out);
        let d = &out[0];
        assert_eq!(d.sender, m.pid);
        assert_eq!(d.round, m.round);
        assert_eq!(d.service, m.service);
        assert_eq!(d.payload, m.payload);
    }
}
