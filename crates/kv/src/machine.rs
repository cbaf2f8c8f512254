//! The deterministic replicated state machine: every daemon feeds its
//! machine the same merged stream of KV fragments, so every machine
//! walks the same state trajectory — that is the whole contract.
//!
//! ## The cross-shard commit rule
//!
//! A multi-key transaction whose partitions live on different rings
//! arrives as one *fragment per ring* (same sender, same sequence, that
//! ring's subset of the involved groups — see
//! [`accelring_multiring::MultiRingEngine::client_multicast_spanning`]).
//! The machine buffers fragments by `(sender, seq)` and commits the op
//! at the merged position of the fragment that completes the involved
//! set. Because the merged order is identical at every observer, so is
//! the commit position — the rule is a pure function of the stream.
//!
//! ## Consumption watermarks and snapshot replay
//!
//! For every `(partition, sender)` pair the machine tracks the highest
//! sequence *consumed* (buffered or applied) on that partition. A
//! sender's sequences are strictly increasing within each partition's
//! ring stream, so the watermark is exact, and it is what makes
//! snapshot transfer safe: a rejoining replica installs a peer's
//! snapshot (state + watermarks + pending buffer) and replays its
//! buffered deliveries — every fragment the snapshot already consumed
//! is skipped by watermark, every fragment past the snapshot applies,
//! and nothing is lost or doubled. The same watermarks back
//! read-your-writes queries.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::op::{decode_op, encode_op, involved_partitions, partition_of, KvOp, KvWrite, MAX_KEY};

/// How many merged positions a pending fragment set may age before it
/// is expired (a fragment lost to a mid-migration dedup edge would
/// otherwise pin its buffer entry forever). Expiry is keyed on the
/// deterministic position clock, so every replica expires the same
/// entry at the same point of the stream.
pub const TXN_PENDING_HORIZON: u64 = 65_536;

/// What became of one committed op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOutcome {
    /// The op's writes were applied (fences count as applied).
    Applied,
    /// A compare-and-swap guard failed; the whole op was dropped.
    CasFailed,
}

/// One committed op, as reported to observers (benches time these,
/// churn checkers replay them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvApplied {
    /// The submitting client's name.
    pub client: String,
    /// The client-session sequence of the op.
    pub seq: u64,
    /// The machine's position clock at commit.
    pub position: u64,
    /// Applied or CAS-aborted.
    pub outcome: KvOutcome,
}

/// A buffered cross-ring op waiting for its remaining fragments.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Pending {
    op: KvOp,
    involved: BTreeSet<String>,
    covered: BTreeSet<String>,
    /// Position of the first fragment, for deterministic expiry.
    at: u64,
}

/// Counters a machine keeps about itself (all deterministic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvStats {
    /// Fragments consumed (the position clock).
    pub position: u64,
    /// Ops committed (fences included).
    pub applied_ops: u64,
    /// Ops aborted by a failing CAS guard.
    pub cas_failed: u64,
    /// Fragments skipped as already consumed (snapshot-replay overlap).
    pub replay_skipped: u64,
    /// Payloads that did not decode as KV ops.
    pub foreign_payloads: u64,
    /// Pending entries expired past [`TXN_PENDING_HORIZON`].
    pub txns_expired: u64,
}

/// The deterministic KV state machine.
#[derive(Debug, Clone)]
pub struct KvMachine {
    partitions: u16,
    data: BTreeMap<String, Bytes>,
    /// `(partition, sender) → highest sequence consumed`.
    marks: BTreeMap<(String, String), u64>,
    /// `(sender, seq) → fragments gathered so far`.
    pending: BTreeMap<(String, u64), Pending>,
    /// Arrival order of pending entries, for horizon expiry.
    arrivals: VecDeque<(u64, (String, u64))>,
    stats: KvStats,
}

/// Semantic equality: everything but the `arrivals` GC queue — which
/// keeps harmless tombstones for already-committed ops (expiry checks
/// the entry's `at` stamp, so stale entries never change behavior) —
/// and [`KvStats::replay_skipped`], a replica-local observation of how
/// much snapshot/replay overlap *this* replica happened to see.
impl PartialEq for KvMachine {
    fn eq(&self, other: &KvMachine) -> bool {
        self.partitions == other.partitions
            && self.data == other.data
            && self.marks == other.marks
            && self.pending == other.pending
            && self.stats.position == other.stats.position
            && self.stats.applied_ops == other.stats.applied_ops
            && self.stats.cas_failed == other.stats.cas_failed
            && self.stats.foreign_payloads == other.stats.foreign_payloads
            && self.stats.txns_expired == other.stats.txns_expired
    }
}

impl Eq for KvMachine {}

impl KvMachine {
    /// A fresh machine over a `partitions`-way key split.
    pub fn new(partitions: u16) -> KvMachine {
        KvMachine {
            partitions: partitions.max(1),
            data: BTreeMap::new(),
            marks: BTreeMap::new(),
            pending: BTreeMap::new(),
            arrivals: VecDeque::new(),
            stats: KvStats::default(),
        }
    }

    /// The partition count this machine splits keys over.
    pub fn partitions(&self) -> u16 {
        self.partitions
    }

    /// The machine's deterministic counters.
    pub fn stats(&self) -> KvStats {
        self.stats
    }

    /// The position clock: fragments consumed so far. Identical at
    /// every replica at the same point of the merged stream — the
    /// coordinate state-hash beacons are compared at.
    pub fn position(&self) -> u64 {
        self.stats.position
    }

    /// How many cross-ring ops are buffered awaiting their remaining
    /// fragments. Zero once every submitted fragment has been consumed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Current value of `key`.
    pub fn get(&self, key: &str) -> Option<&Bytes> {
        self.data.get(key)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The consumption watermark for `(partition, sender)` — the
    /// highest sequence of `sender` consumed on `partition`.
    pub fn mark(&self, partition: &str, sender: &str) -> u64 {
        self.marks
            .get(&(partition.to_string(), sender.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// FNV-1a over the full store plus the applied-op count: equal
    /// hashes at equal positions is the divergence invariant.
    pub fn state_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (k, v) in &self.data {
            eat(&(k.len() as u32).to_le_bytes());
            eat(k.as_bytes());
            eat(&(v.len() as u32).to_le_bytes());
            eat(v);
        }
        eat(&self.stats.applied_ops.to_le_bytes());
        eat(&(self.pending.len() as u64).to_le_bytes());
        h
    }

    /// Whether a read at `min_seq` for `sender` on `key`'s partition is
    /// answerable yet: the watermark must cover the sequence *and* no
    /// earlier op of the sender may still be pending (a buffered
    /// cross-ring transaction is consumed but not applied — serving the
    /// read before it commits would break read-your-writes).
    pub fn read_ready(&self, key: &str, sender: &str, min_seq: u64) -> bool {
        if min_seq == 0 {
            return true;
        }
        let part = partition_of(key, self.partitions);
        if self.mark(&part, sender) < min_seq {
            return false;
        }
        self.pending
            .range((sender.to_string(), 0)..=(sender.to_string(), min_seq))
            .next()
            .is_none()
    }

    /// Consumes one delivered fragment: `sender`/`seq` from the ordered
    /// [`GroupMessage`](accelring_daemon::GroupMessage), `groups` the
    /// delivery's target groups, `payload` the multicast body. Returns
    /// the commit record when this fragment completed an op.
    ///
    /// Non-KV payloads are counted and skipped, and so are unsequenced
    /// ops (`seq` 0): no watermark can tell a replayed copy of one from
    /// a new op, so a rejoiner could apply it twice, once in its peer's
    /// snapshot and once in its replay buffer. Fragments whose sequence
    /// is already at or below the watermark of every target partition
    /// are replay duplicates (snapshot overlap) and are skipped without
    /// advancing the position clock — the snapshot responder already
    /// counted them.
    pub fn ingest(
        &mut self,
        sender: &str,
        seq: u64,
        groups: &[String],
        payload: &Bytes,
    ) -> Option<KvApplied> {
        // An unsequenced op counts as foreign: no watermark dedups it.
        let Some(op) = decode_op(payload).filter(|_| seq > 0) else {
            self.stats.foreign_payloads += 1;
            return None;
        };
        let involved = involved_partitions(&op, self.partitions);
        let touched: BTreeSet<String> = groups
            .iter()
            .filter(|g| involved.contains(*g))
            .cloned()
            .collect();
        if touched.is_empty() && !involved.is_empty() {
            // A fragment routed at groups the op does not involve —
            // only possible for hostile senders; skip deterministically.
            self.stats.foreign_payloads += 1;
            return None;
        }
        if !touched.is_empty() && touched.iter().all(|g| self.mark(g, sender) >= seq) {
            self.stats.replay_skipped += 1;
            return None;
        }
        for g in &touched {
            let m = self
                .marks
                .entry((g.clone(), sender.to_string()))
                .or_insert(0);
            *m = (*m).max(seq);
        }
        self.stats.position += 1;
        self.expire_pending();
        let key = (sender.to_string(), seq);
        let entry = self.pending.entry(key.clone()).or_insert_with(|| {
            self.arrivals.push_back((self.stats.position, key.clone()));
            Pending {
                op: op.clone(),
                involved: involved.clone(),
                covered: BTreeSet::new(),
                at: self.stats.position,
            }
        });
        entry.covered.extend(touched);
        if entry.involved.is_subset(&entry.covered) {
            let done = self.pending.remove(&key).expect("entry just touched");
            return Some(self.commit(sender, seq, done.op));
        }
        None
    }

    fn commit(&mut self, sender: &str, seq: u64, op: KvOp) -> KvApplied {
        let outcome = match &op {
            KvOp::Write { writes } => {
                let guarded = writes.iter().all(|w| match w {
                    KvWrite::Cas { key, expect, .. } => self.data.get(key) == expect.as_ref(),
                    _ => true,
                });
                if guarded {
                    for w in writes {
                        match w {
                            KvWrite::Put { key, value } | KvWrite::Cas { key, value, .. } => {
                                self.data.insert(key.clone(), value.clone());
                            }
                            KvWrite::Del { key } => {
                                self.data.remove(key);
                            }
                        }
                    }
                    KvOutcome::Applied
                } else {
                    self.stats.cas_failed += 1;
                    KvOutcome::CasFailed
                }
            }
            KvOp::Fence { .. } => KvOutcome::Applied,
        };
        self.stats.applied_ops += 1;
        KvApplied {
            client: sender.to_string(),
            seq,
            position: self.stats.position,
            outcome,
        }
    }

    fn expire_pending(&mut self) {
        while let Some((at, key)) = self.arrivals.front() {
            if self.stats.position.saturating_sub(*at) <= TXN_PENDING_HORIZON {
                break;
            }
            let (at, key) = (*at, key.clone());
            self.arrivals.pop_front();
            // The entry may have committed (and its key even been
            // reused) since; only expire the incarnation this arrival
            // recorded.
            if self.pending.get(&key).is_some_and(|p| p.at == at) {
                self.pending.remove(&key);
                self.stats.txns_expired += 1;
            }
        }
    }

    // -- snapshot codec -----------------------------------------------------

    /// Serializes the whole machine (state, watermarks, pending buffer,
    /// counters) for ordered state transfer.
    pub fn snapshot(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64 + 32 * self.data.len());
        buf.put_u16_le(self.partitions);
        buf.put_u64_le(self.stats.position);
        buf.put_u64_le(self.stats.applied_ops);
        buf.put_u64_le(self.stats.cas_failed);
        buf.put_u64_le(self.stats.txns_expired);
        buf.put_u32_le(self.data.len() as u32);
        for (k, v) in &self.data {
            buf.put_u16_le(k.len() as u16);
            buf.put_slice(k.as_bytes());
            buf.put_u32_le(v.len() as u32);
            buf.put_slice(v);
        }
        buf.put_u32_le(self.marks.len() as u32);
        for ((g, c), seq) in &self.marks {
            buf.put_u16_le(g.len() as u16);
            buf.put_slice(g.as_bytes());
            buf.put_u16_le(c.len() as u16);
            buf.put_slice(c.as_bytes());
            buf.put_u64_le(*seq);
        }
        buf.put_u32_le(self.pending.len() as u32);
        for ((c, seq), p) in &self.pending {
            buf.put_u16_le(c.len() as u16);
            buf.put_slice(c.as_bytes());
            buf.put_u64_le(*seq);
            buf.put_u64_le(p.at);
            let op = encode_op(&p.op);
            buf.put_u32_le(op.len() as u32);
            buf.put_slice(&op);
            buf.put_u16_le(p.covered.len() as u16);
            for g in &p.covered {
                buf.put_u16_le(g.len() as u16);
                buf.put_slice(g.as_bytes());
            }
        }
        buf.freeze()
    }

    /// Reconstructs a machine from [`KvMachine::snapshot`] bytes.
    /// `None` on malformed input: a recovering replica decodes whatever
    /// any member multicasts to its recovery group, so it must refuse,
    /// never panic.
    pub fn from_snapshot(body: &Bytes) -> Option<KvMachine> {
        fn lstr(buf: &mut Bytes, cap: usize) -> Option<String> {
            if buf.remaining() < 2 {
                return None;
            }
            let len = buf.get_u16_le() as usize;
            if len > cap || buf.remaining() < len {
                return None;
            }
            String::from_utf8(buf.split_to(len).to_vec()).ok()
        }
        let mut buf = body.clone();
        // Fixed header: partitions + four u64 counters + the data count.
        if buf.remaining() < 38 {
            return None;
        }
        let partitions = buf.get_u16_le();
        let mut m = KvMachine::new(partitions);
        m.stats.position = buf.get_u64_le();
        m.stats.applied_ops = buf.get_u64_le();
        m.stats.cas_failed = buf.get_u64_le();
        m.stats.txns_expired = buf.get_u64_le();
        let n_data = buf.get_u32_le() as usize;
        for _ in 0..n_data {
            let k = lstr(&mut buf, MAX_KEY)?;
            if buf.remaining() < 4 {
                return None;
            }
            let len = buf.get_u32_le() as usize;
            if buf.remaining() < len {
                return None;
            }
            m.data.insert(k, buf.split_to(len));
        }
        if buf.remaining() < 4 {
            return None;
        }
        let n_marks = buf.get_u32_le() as usize;
        for _ in 0..n_marks {
            let g = lstr(&mut buf, MAX_KEY)?;
            let c = lstr(&mut buf, MAX_KEY)?;
            if buf.remaining() < 8 {
                return None;
            }
            m.marks.insert((g, c), buf.get_u64_le());
        }
        if buf.remaining() < 4 {
            return None;
        }
        let n_pending = buf.get_u32_le() as usize;
        for _ in 0..n_pending {
            let c = lstr(&mut buf, MAX_KEY)?;
            if buf.remaining() < 20 {
                return None;
            }
            let seq = buf.get_u64_le();
            let at = buf.get_u64_le();
            let op_len = buf.get_u32_le() as usize;
            if buf.remaining() < op_len {
                return None;
            }
            let op = decode_op(&buf.split_to(op_len))?;
            if buf.remaining() < 2 {
                return None;
            }
            let n_cov = buf.get_u16_le() as usize;
            let mut covered = BTreeSet::new();
            for _ in 0..n_cov {
                covered.insert(lstr(&mut buf, MAX_KEY)?);
            }
            let involved = involved_partitions(&op, partitions);
            let key = (c, seq);
            m.arrivals.push_back((at, key.clone()));
            m.pending.insert(
                key,
                Pending {
                    op,
                    involved,
                    covered,
                    at,
                },
            );
        }
        if buf.has_remaining() {
            return None;
        }
        Some(m)
    }
}

// ---------------------------------------------------------------------------
// Local-service query codec (SVC_QUERY / SVC_REPLY bodies)
// ---------------------------------------------------------------------------

const Q_GET: u8 = 1;

const R_VALUE: u8 = 1;
const R_NOT_YET: u8 = 2;

/// A local read served by a daemon's machine outside the ordered path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvQuery {
    /// Read `key`, but only once the responder's watermark for
    /// `(partition_of(key), client)` reaches `min_seq` (0 = any state).
    Get {
        /// The key read.
        key: String,
        /// The reading session's client name (watermark subject).
        client: String,
        /// The read guard: read-your-writes passes the client's last
        /// write to the partition, linearizable reads pass a fence.
        min_seq: u64,
    },
}

/// A reply to a [`KvQuery`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvReply {
    /// The read, served at `position` with the relevant watermark.
    Value {
        /// Whether the key was bound.
        found: bool,
        /// The value (empty when `found` is false).
        value: Bytes,
        /// The responder's position clock at the read.
        position: u64,
        /// The responder's watermark for the queried (partition,
        /// client).
        mark: u64,
    },
    /// The guard is not satisfied yet; retry. Carries the watermark
    /// the responder has reached so requesters can resubmit in-doubt
    /// writes.
    NotYet {
        /// The responder's current watermark for the subject.
        mark: u64,
    },
}

/// Encodes a query as an SVC_QUERY body.
pub fn encode_query(q: &KvQuery) -> Bytes {
    let KvQuery::Get {
        key,
        client,
        min_seq,
    } = q;
    let mut buf = BytesMut::with_capacity(32);
    buf.put_u8(Q_GET);
    buf.put_u16_le(key.len() as u16);
    buf.put_slice(key.as_bytes());
    buf.put_u16_le(client.len() as u16);
    buf.put_slice(client.as_bytes());
    buf.put_u64_le(*min_seq);
    buf.freeze()
}

fn get_lstr(buf: &mut Bytes, cap: usize) -> Option<String> {
    if buf.remaining() < 2 {
        return None;
    }
    let len = buf.get_u16_le() as usize;
    if len > cap || buf.remaining() < len {
        return None;
    }
    String::from_utf8(buf.split_to(len).to_vec()).ok()
}

/// Decodes an SVC_QUERY body. `None` = not a KV query.
pub fn decode_query(body: &Bytes) -> Option<KvQuery> {
    let mut buf = body.clone();
    if buf.remaining() < 1 || buf.get_u8() != Q_GET {
        return None;
    }
    let q = KvQuery::Get {
        key: get_lstr(&mut buf, MAX_KEY)?,
        client: get_lstr(&mut buf, MAX_KEY)?,
        min_seq: {
            if buf.remaining() < 8 {
                return None;
            }
            buf.get_u64_le()
        },
    };
    if buf.has_remaining() {
        return None;
    }
    Some(q)
}

/// Encodes a reply as an SVC_REPLY body.
pub fn encode_reply(r: &KvReply) -> Bytes {
    let mut buf = BytesMut::with_capacity(32);
    match r {
        KvReply::Value {
            found,
            value,
            position,
            mark,
        } => {
            buf.put_u8(R_VALUE);
            buf.put_u8(u8::from(*found));
            buf.put_u32_le(value.len() as u32);
            buf.put_slice(value);
            buf.put_u64_le(*position);
            buf.put_u64_le(*mark);
        }
        KvReply::NotYet { mark } => {
            buf.put_u8(R_NOT_YET);
            buf.put_u64_le(*mark);
        }
    }
    buf.freeze()
}

/// Decodes an SVC_REPLY body. `None` = not a KV reply.
pub fn decode_reply(body: &Bytes) -> Option<KvReply> {
    let mut buf = body.clone();
    if buf.remaining() < 1 {
        return None;
    }
    let r = match buf.get_u8() {
        R_VALUE => {
            if buf.remaining() < 5 {
                return None;
            }
            let found = buf.get_u8() != 0;
            let len = buf.get_u32_le() as usize;
            if buf.remaining() < len + 16 {
                return None;
            }
            let value = buf.split_to(len);
            KvReply::Value {
                found,
                value,
                position: buf.get_u64_le(),
                mark: buf.get_u64_le(),
            }
        }
        R_NOT_YET => {
            if buf.remaining() < 8 {
                return None;
            }
            KvReply::NotYet {
                mark: buf.get_u64_le(),
            }
        }
        _ => return None,
    };
    if buf.has_remaining() {
        return None;
    }
    Some(r)
}

impl KvMachine {
    /// Answers one local-service query against current state, or `None`
    /// to stay silent (non-KV queries).
    pub fn answer(&self, body: &Bytes) -> Option<Bytes> {
        let KvQuery::Get {
            key,
            client,
            min_seq,
        } = decode_query(body)?;
        let mark = self.mark(&partition_of(&key, self.partitions), &client);
        let reply = if self.read_ready(&key, &client, min_seq) {
            let value = self.data.get(&key);
            KvReply::Value {
                found: value.is_some(),
                value: value.cloned().unwrap_or_default(),
                position: self.stats.position,
                mark,
            }
        } else {
            KvReply::NotYet { mark }
        };
        Some(encode_reply(&reply))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::partition_groups;

    fn put(key: &str, value: &[u8]) -> Bytes {
        encode_op(&KvOp::Write {
            writes: vec![KvWrite::Put {
                key: key.into(),
                value: Bytes::copy_from_slice(value),
            }],
        })
    }

    fn groups_of(key: &str, parts: u16) -> Vec<String> {
        vec![partition_of(key, parts)]
    }

    #[test]
    fn single_key_ops_apply_in_order() {
        let mut m = KvMachine::new(2);
        let g = groups_of("k", 2);
        assert!(m.ingest("a", 1, &g, &put("k", b"1")).is_some());
        assert!(m.ingest("a", 2, &g, &put("k", b"2")).is_some());
        assert_eq!(m.get("k").unwrap().as_ref(), b"2");
        assert_eq!(m.stats().applied_ops, 2);
        assert_eq!(m.position(), 2);
    }

    #[test]
    fn cas_guards_are_atomic() {
        let mut m = KvMachine::new(1);
        let g = partition_groups(1);
        m.ingest("a", 1, &g, &put("x", b"old"));
        // Failing CAS aborts the whole batch: the Put must not land.
        let bad = encode_op(&KvOp::Write {
            writes: vec![
                KvWrite::Put {
                    key: "y".into(),
                    value: Bytes::from_static(b"v"),
                },
                KvWrite::Cas {
                    key: "x".into(),
                    expect: Some(Bytes::from_static(b"wrong")),
                    value: Bytes::from_static(b"new"),
                },
            ],
        });
        let applied = m.ingest("a", 2, &g, &bad).unwrap();
        assert_eq!(applied.outcome, KvOutcome::CasFailed);
        assert!(m.get("y").is_none());
        assert_eq!(m.get("x").unwrap().as_ref(), b"old");
        let good = encode_op(&KvOp::Write {
            writes: vec![KvWrite::Cas {
                key: "x".into(),
                expect: Some(Bytes::from_static(b"old")),
                value: Bytes::from_static(b"new"),
            }],
        });
        assert_eq!(
            m.ingest("a", 3, &g, &good).unwrap().outcome,
            KvOutcome::Applied
        );
        assert_eq!(m.get("x").unwrap().as_ref(), b"new");
    }

    #[test]
    fn cross_partition_txn_commits_on_last_fragment() {
        // Two partitions; a txn touching both arrives as two fragments.
        let parts = 2u16;
        let (ka, kb) = distinct_partition_keys(parts);
        let op = KvOp::Write {
            writes: vec![
                KvWrite::Put {
                    key: ka.clone(),
                    value: Bytes::from_static(b"A"),
                },
                KvWrite::Put {
                    key: kb.clone(),
                    value: Bytes::from_static(b"B"),
                },
            ],
        };
        let payload = encode_op(&op);
        let mut m = KvMachine::new(parts);
        let first = m.ingest("a", 1, &groups_of(&ka, parts), &payload);
        assert!(first.is_none(), "first fragment must buffer");
        assert!(m.get(&ka).is_none(), "no partial application");
        let second = m.ingest("a", 1, &groups_of(&kb, parts), &payload);
        assert_eq!(second.unwrap().outcome, KvOutcome::Applied);
        assert_eq!(m.get(&ka).unwrap().as_ref(), b"A");
        assert_eq!(m.get(&kb).unwrap().as_ref(), b"B");
    }

    /// Two keys hashing to different partitions of a `parts`-way split.
    fn distinct_partition_keys(parts: u16) -> (String, String) {
        let first = "key-0".to_string();
        let p0 = partition_of(&first, parts);
        for i in 1..1000 {
            let k = format!("key-{i}");
            if partition_of(&k, parts) != p0 {
                return (first, k);
            }
        }
        panic!("hash degenerated");
    }

    #[test]
    fn snapshot_replay_skips_consumed_fragments() {
        let parts = 2u16;
        let (ka, kb) = distinct_partition_keys(parts);
        let mut src = KvMachine::new(parts);
        src.ingest("a", 1, &groups_of(&ka, parts), &put(&ka, b"1"));
        // A half-arrived txn sits pending in the snapshot.
        let txn = encode_op(&KvOp::Write {
            writes: vec![
                KvWrite::Put {
                    key: ka.clone(),
                    value: Bytes::from_static(b"t"),
                },
                KvWrite::Put {
                    key: kb.clone(),
                    value: Bytes::from_static(b"t"),
                },
            ],
        });
        assert!(src.ingest("a", 2, &groups_of(&ka, parts), &txn).is_none());
        let snap = src.snapshot();
        let mut dst = KvMachine::from_snapshot(&snap).unwrap();
        assert_eq!(dst, src);
        // Replay both consumed fragments (overlap) plus the completing
        // one: overlaps skip, the completion commits — on both machines
        // identically.
        for m in [&mut src, &mut dst] {
            m.ingest("a", 1, &groups_of(&ka, parts), &put(&ka, b"1"));
            m.ingest("a", 2, &groups_of(&ka, parts), &txn);
            m.ingest("a", 2, &groups_of(&kb, parts), &txn);
        }
        assert_eq!(src.state_hash(), dst.state_hash());
        assert_eq!(src.position(), dst.position());
        assert_eq!(src.get(&kb).unwrap().as_ref(), b"t");
        assert_eq!(src.stats().replay_skipped, 2);
    }

    #[test]
    fn snapshot_codec_rejects_truncation() {
        let mut m = KvMachine::new(2);
        let g = partition_groups(2);
        m.ingest("alice", 1, &g[..1], &put("k", b"v"));
        let snap = m.snapshot();
        for cut in 0..snap.len() {
            assert!(
                KvMachine::from_snapshot(&snap.slice(..cut)).is_none(),
                "cut {cut}"
            );
        }
        let mut padded = snap.to_vec();
        padded.push(7);
        assert!(KvMachine::from_snapshot(&Bytes::from(padded)).is_none());
    }

    #[test]
    fn foreign_payloads_are_skipped() {
        let mut m = KvMachine::new(1);
        let g = partition_groups(1);
        assert!(m
            .ingest("a", 1, &g, &Bytes::from_static(b"not kv"))
            .is_none());
        assert_eq!(m.position(), 0);
        assert_eq!(m.stats().foreign_payloads, 1);
    }

    #[test]
    fn an_unsequenced_op_is_foreign_so_a_replay_cannot_apply_it_twice() {
        // A raw sender's seq-0 op ordered between a rejoiner's join and
        // its marker is in the peer's snapshot and in the rejoiner's
        // replay buffer.
        let g = partition_groups(1);
        let op = put("k", b"v");
        let mut src = KvMachine::new(1);
        src.ingest("raw", 0, &g, &op);
        let mut copy = KvMachine::from_snapshot(&src.snapshot()).unwrap();
        copy.ingest("raw", 0, &g, &op);
        assert_eq!(copy.position(), src.position());
        assert_eq!(copy.stats().applied_ops, src.stats().applied_ops);
        assert_eq!(copy.state_hash(), src.state_hash());
        assert_eq!(copy, src);
        assert_eq!(src.get("k"), None);
        assert_eq!(src.stats().foreign_payloads, 1);
    }

    #[test]
    fn read_ready_tracks_watermarks_and_pending() {
        let parts = 2u16;
        let (ka, kb) = distinct_partition_keys(parts);
        let mut m = KvMachine::new(parts);
        assert!(m.read_ready(&ka, "a", 0));
        assert!(!m.read_ready(&ka, "a", 1));
        m.ingest("a", 1, &groups_of(&ka, parts), &put(&ka, b"1"));
        assert!(m.read_ready(&ka, "a", 1));
        // A consumed-but-pending txn blocks reads at its sequence.
        let txn = encode_op(&KvOp::Write {
            writes: vec![
                KvWrite::Put {
                    key: ka.clone(),
                    value: Bytes::from_static(b"t"),
                },
                KvWrite::Put {
                    key: kb.clone(),
                    value: Bytes::from_static(b"t"),
                },
            ],
        });
        m.ingest("a", 2, &groups_of(&ka, parts), &txn);
        assert!(!m.read_ready(&ka, "a", 2));
        m.ingest("a", 2, &groups_of(&kb, parts), &txn);
        assert!(m.read_ready(&ka, "a", 2));
    }

    #[test]
    fn query_codec_round_trips_and_answers() {
        let queries = [KvQuery::Get {
            key: "k".into(),
            client: "alice".into(),
            min_seq: 9,
        }];
        for q in &queries {
            assert_eq!(decode_query(&encode_query(q)).as_ref(), Some(q));
        }
        let replies = [
            KvReply::Value {
                found: true,
                value: Bytes::from_static(b"v"),
                position: 4,
                mark: 2,
            },
            KvReply::NotYet { mark: 1 },
        ];
        for r in &replies {
            assert_eq!(decode_reply(&encode_reply(r)).as_ref(), Some(r));
        }
        let mut m = KvMachine::new(1);
        m.ingest("a", 1, &partition_groups(1), &put("k", b"v"));
        let body = m
            .answer(&encode_query(&KvQuery::Get {
                key: "k".into(),
                client: "a".into(),
                min_seq: 1,
            }))
            .unwrap();
        match decode_reply(&body).unwrap() {
            KvReply::Value { found, value, .. } => {
                assert!(found);
                assert_eq!(value.as_ref(), b"v");
            }
            other => panic!("wrong reply {other:?}"),
        }
        // Unsatisfied guard → NotYet.
        let body = m
            .answer(&encode_query(&KvQuery::Get {
                key: "k".into(),
                client: "a".into(),
                min_seq: 99,
            }))
            .unwrap();
        assert!(matches!(
            decode_reply(&body).unwrap(),
            KvReply::NotYet { mark: 1 }
        ));
        assert!(m.answer(&Bytes::from_static(b"junk")).is_none());
    }

    #[test]
    fn pending_horizon_expires_deterministically() {
        let parts = 2u16;
        let (ka, kb) = distinct_partition_keys(parts);
        let txn = encode_op(&KvOp::Write {
            writes: vec![
                KvWrite::Put {
                    key: ka.clone(),
                    value: Bytes::from_static(b"t"),
                },
                KvWrite::Put {
                    key: kb.clone(),
                    value: Bytes::from_static(b"t"),
                },
            ],
        });
        let mut a = KvMachine::new(parts);
        let mut b = KvMachine::new(parts);
        for m in [&mut a, &mut b] {
            // Orphan fragment, then a horizon's worth of traffic.
            m.ingest("lost", 1, &groups_of(&ka, parts), &txn);
            for i in 0..=TXN_PENDING_HORIZON {
                m.ingest("w", i + 1, &groups_of(&ka, parts), &put(&ka, b"x"));
            }
            assert_eq!(m.stats().txns_expired, 1);
        }
        assert_eq!(a.state_hash(), b.state_hash());
    }
}
