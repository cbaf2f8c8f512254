//! The ordered KV operation: what a client multicasts and what the
//! machine applies.
//!
//! One [`KvOp`] is one atomic unit in the merged total order. Its keys
//! decide which *partition groups* it targets — the key space is
//! statically split into `partitions` groups named `kv.0 … kv.P-1` by
//! FNV-1a hash, and the shard map spreads those groups across rings —
//! so a single-key write rides one ring while a multi-key transaction
//! whose keys hash to partitions on different rings is split into one
//! fragment per ring by the spanning multicast
//! ([`accelring_multiring::MultiRingEngine::client_multicast_spanning`]).
//! The machine reassembles fragments by `(sender, seq)` and commits at
//! the merged position of the last one.
//!
//! The codec is deliberately magic-prefixed: KV ops share group
//! payloads with nothing else, but a machine fed a foreign payload must
//! skip it, not corrupt state.

use std::collections::BTreeSet;

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Magic prefix every encoded op starts with (`0xKV` in spirit).
const OP_MAGIC: &[u8; 2] = b"K1";

const W_PUT: u8 = 1;
const W_DEL: u8 = 2;
const W_CAS: u8 = 3;

const OP_WRITE: u8 = 1;
const OP_FENCE: u8 = 2;

/// Longest key the codec accepts.
pub const MAX_KEY: usize = 128;
/// Longest value the codec accepts.
pub const MAX_VALUE: usize = 4096;
/// Most writes one transaction may carry.
pub const MAX_WRITES: usize = 16;

/// One write inside an op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvWrite {
    /// Bind `key` to `value`.
    Put {
        /// The key written.
        key: String,
        /// The value stored.
        value: Bytes,
    },
    /// Remove `key` (a no-op when absent).
    Del {
        /// The key removed.
        key: String,
    },
    /// Compare-and-swap: bind `key` to `value` only if its current
    /// value is exactly `expect` (`None` = key must be absent). One
    /// failing CAS aborts the *whole* op — all-or-nothing.
    Cas {
        /// The key swapped.
        key: String,
        /// The required current value (`None` = absent).
        expect: Option<Bytes>,
        /// The value stored on success.
        value: Bytes,
    },
}

impl KvWrite {
    /// The key this write touches.
    pub fn key(&self) -> &str {
        match self {
            KvWrite::Put { key, .. } | KvWrite::Del { key } | KvWrite::Cas { key, .. } => key,
        }
    }
}

/// One atomic unit in the merged order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// An atomic write batch (a single write is the common case, a
    /// multi-key transaction the general one). Involved partitions are
    /// derived from the keys, identically at every replica.
    Write {
        /// The writes, applied in order, all-or-nothing.
        writes: Vec<KvWrite>,
    },
    /// An ordered no-op targeting explicit partitions: read fences
    /// (linearizable reads order one through the key's partition) and
    /// recovery markers (a rejoining replica orders one through *every*
    /// partition, and its peers' snapshots are cut where it commits).
    Fence {
        /// The partition groups the fence covers.
        parts: Vec<String>,
    },
}

/// The partition group `key` belongs to, out of `partitions` total:
/// `kv.{fnv1a64(key) % partitions}`. Every client and every machine of
/// one deployment must agree on `partitions`.
pub fn partition_of(key: &str, partitions: u16) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("kv.{}", h % u64::from(partitions.max(1)))
}

/// All partition group names of a `partitions`-way deployment.
pub fn partition_groups(partitions: u16) -> Vec<String> {
    (0..partitions.max(1)).map(|p| format!("kv.{p}")).collect()
}

/// The partition groups `op` involves — the set a fragment union must
/// cover before the op commits. Pure in the op and the partition count,
/// so every replica derives it identically.
pub fn involved_partitions(op: &KvOp, partitions: u16) -> BTreeSet<String> {
    match op {
        KvOp::Write { writes } => writes
            .iter()
            .map(|w| partition_of(w.key(), partitions))
            .collect(),
        KvOp::Fence { parts } => parts.iter().cloned().collect(),
    }
}

fn put_lstr<B: BufMut>(buf: &mut B, s: &str) {
    buf.put_u16_le(s.len() as u16);
    buf.put_slice(s.as_bytes());
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

fn put_val<B: BufMut>(buf: &mut B, v: &Bytes) {
    buf.put_u32_le(v.len() as u32);
    buf.put_slice(v);
}

fn get_val(buf: &mut Bytes, cap: usize) -> Option<Bytes> {
    if buf.remaining() < 4 {
        return None;
    }
    let len = buf.get_u32_le() as usize;
    if len > cap || buf.remaining() < len {
        return None;
    }
    Some(buf.split_to(len))
}

/// Encodes an op as a group-multicast payload.
pub fn encode_op(op: &KvOp) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    buf.put_slice(OP_MAGIC);
    match op {
        KvOp::Write { writes } => {
            buf.put_u8(OP_WRITE);
            buf.put_u8(writes.len().min(MAX_WRITES) as u8);
            for w in writes.iter().take(MAX_WRITES) {
                match w {
                    KvWrite::Put { key, value } => {
                        buf.put_u8(W_PUT);
                        put_lstr(&mut buf, key);
                        put_val(&mut buf, value);
                    }
                    KvWrite::Del { key } => {
                        buf.put_u8(W_DEL);
                        put_lstr(&mut buf, key);
                    }
                    KvWrite::Cas { key, expect, value } => {
                        buf.put_u8(W_CAS);
                        put_lstr(&mut buf, key);
                        match expect {
                            Some(e) => {
                                buf.put_u8(1);
                                put_val(&mut buf, e);
                            }
                            None => buf.put_u8(0),
                        }
                        put_val(&mut buf, value);
                    }
                }
            }
        }
        KvOp::Fence { parts } => {
            buf.put_u8(OP_FENCE);
            buf.put_u16_le(parts.len() as u16);
            for p in parts {
                put_lstr(&mut buf, p);
            }
        }
    }
    buf.freeze()
}

/// Decodes a group payload back into an op. `None` means "not a KV op"
/// (foreign payload or malformed bytes) — the machine skips it either
/// way, so hostile input degrades to a no-op, never a panic or a
/// divergence.
pub fn decode_op(payload: &Bytes) -> Option<KvOp> {
    let mut buf = payload.clone();
    if buf.remaining() < 3 {
        return None;
    }
    let mut magic = [0u8; 2];
    magic.copy_from_slice(&buf.split_to(2));
    if &magic != OP_MAGIC {
        return None;
    }
    let op = match buf.get_u8() {
        OP_WRITE => {
            if buf.remaining() < 1 {
                return None;
            }
            let n = buf.get_u8() as usize;
            if n > MAX_WRITES {
                return None;
            }
            let mut writes = Vec::with_capacity(n);
            for _ in 0..n {
                if buf.remaining() < 1 {
                    return None;
                }
                let w = match buf.get_u8() {
                    W_PUT => KvWrite::Put {
                        key: get_lstr(&mut buf, MAX_KEY)?,
                        value: get_val(&mut buf, MAX_VALUE)?,
                    },
                    W_DEL => KvWrite::Del {
                        key: get_lstr(&mut buf, MAX_KEY)?,
                    },
                    W_CAS => {
                        let key = get_lstr(&mut buf, MAX_KEY)?;
                        if buf.remaining() < 1 {
                            return None;
                        }
                        let expect = match buf.get_u8() {
                            0 => None,
                            1 => Some(get_val(&mut buf, MAX_VALUE)?),
                            _ => return None,
                        };
                        KvWrite::Cas {
                            key,
                            expect,
                            value: get_val(&mut buf, MAX_VALUE)?,
                        }
                    }
                    _ => return None,
                };
                writes.push(w);
            }
            KvOp::Write { writes }
        }
        OP_FENCE => {
            if buf.remaining() < 2 {
                return None;
            }
            let n = buf.get_u16_le() as usize;
            if n > 4096 {
                return None;
            }
            let mut parts = Vec::with_capacity(n);
            for _ in 0..n {
                parts.push(get_lstr(&mut buf, MAX_KEY)?);
            }
            KvOp::Fence { parts }
        }
        _ => return None,
    };
    if buf.has_remaining() {
        return None;
    }
    Some(op)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops() -> Vec<KvOp> {
        vec![
            KvOp::Write {
                writes: vec![KvWrite::Put {
                    key: "alpha".into(),
                    value: Bytes::from_static(b"1"),
                }],
            },
            KvOp::Write {
                writes: vec![
                    KvWrite::Put {
                        key: "a".into(),
                        value: Bytes::from_static(b"x"),
                    },
                    KvWrite::Del { key: "b".into() },
                    KvWrite::Cas {
                        key: "c".into(),
                        expect: Some(Bytes::from_static(b"old")),
                        value: Bytes::from_static(b"new"),
                    },
                    KvWrite::Cas {
                        key: "d".into(),
                        expect: None,
                        value: Bytes::from_static(b"init"),
                    },
                ],
            },
            KvOp::Write { writes: Vec::new() },
            KvOp::Fence {
                parts: vec!["kv.0".into(), "kv.3".into()],
            },
            KvOp::Fence { parts: Vec::new() },
        ]
    }

    #[test]
    fn ops_round_trip() {
        for op in ops() {
            assert_eq!(decode_op(&encode_op(&op)).as_ref(), Some(&op), "{op:?}");
        }
    }

    #[test]
    fn truncation_and_junk_rejected() {
        for op in ops() {
            let full = encode_op(&op);
            for cut in 0..full.len() {
                assert!(decode_op(&full.slice(..cut)).is_none(), "{op:?} cut {cut}");
            }
            let mut padded = full.to_vec();
            padded.push(0);
            assert!(decode_op(&Bytes::from(padded)).is_none());
        }
        assert!(decode_op(&Bytes::from_static(b"not a kv op")).is_none());
        assert!(decode_op(&Bytes::new()).is_none());
    }

    #[test]
    fn partitioning_is_stable_and_total() {
        // Fixed hash: a key's partition must never change across
        // builds, or every deployed machine would disagree.
        assert_eq!(partition_of("alpha", 4), partition_of("alpha", 4));
        let groups = partition_groups(4);
        assert_eq!(groups.len(), 4);
        for k in ["a", "b", "longer-key", ""] {
            assert!(groups.contains(&partition_of(k, 4)));
        }
        // Degenerate partition counts still route somewhere.
        assert_eq!(partition_of("x", 0), "kv.0");
    }

    #[test]
    fn involved_partitions_derive_from_keys() {
        let op = KvOp::Write {
            writes: vec![
                KvWrite::Put {
                    key: "a".into(),
                    value: Bytes::new(),
                },
                KvWrite::Del { key: "a".into() },
                KvWrite::Put {
                    key: "b".into(),
                    value: Bytes::new(),
                },
            ],
        };
        let parts = involved_partitions(&op, 8);
        assert!(!parts.is_empty() && parts.len() <= 2);
        let fence = KvOp::Fence {
            parts: vec!["kv.1".into()],
        };
        assert_eq!(
            involved_partitions(&fence, 8)
                .into_iter()
                .collect::<Vec<_>>(),
            vec!["kv.1".to_string()]
        );
    }
}
