//! Seeded KV workload generation for tests, soaks, and benches: a
//! deterministic mixed op stream (puts, deletes, CAS, multi-key
//! transactions, fences) pre-split into per-ring fragment streams, and
//! random-but-legal merge interleavings of those streams — exactly the
//! freedom the round-ordered merger has. Feeding any interleaving to a
//! [`KvMachine`](crate::KvMachine) must commit every op exactly once;
//! feeding the *same* interleaving to two machines must produce equal
//! state hashes at every position. The proptest suite, the divergence
//! soak, and the `kv` bench all draw from here so a failing seed
//! reproduces across all three.

use std::collections::{BTreeSet, VecDeque};

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::op::{encode_op, involved_partitions, KvOp, KvWrite};

/// One per-ring slice of an ordered op: what a replica's merged event
/// stream carries for it on that ring.
#[derive(Debug, Clone)]
pub struct Frag {
    /// Submitting client's session name.
    pub client: String,
    /// The client's session sequence (shared by all fragments of one op).
    pub seq: u64,
    /// The involved partition groups that order on this fragment's ring.
    pub groups: Vec<String>,
    /// The encoded [`KvOp`].
    pub payload: Bytes,
}

/// The generator's shard pinning: partition `kv.N` orders on ring
/// `N % rings` — even partitions and odd partitions land on different
/// rings, so multi-key transactions routinely span rings.
///
/// # Panics
///
/// Panics on a partition name not of the `kv.N` form.
pub fn ring_of(part: &str, rings: u16) -> usize {
    part.strip_prefix("kv.")
        .and_then(|n| n.parse::<usize>().ok())
        .expect("partition name of the kv.N form")
        % rings.max(1) as usize
}

/// Generates a seeded workload of three clients over `partitions`
/// partitions spread across `rings` rings, returning the per-ring
/// fragment streams and the set of `(client, seq)` ids submitted.
pub fn gen_workload(
    seed: u64,
    partitions: u16,
    rings: u16,
    ops: u32,
) -> (Vec<Vec<Frag>>, BTreeSet<(String, u64)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let keys: Vec<String> = (0..12).map(|i| format!("k{i}")).collect();
    let clients = ["ann", "bob", "cyd"];
    let mut seqs = [0u64; 3];
    let mut streams: Vec<Vec<Frag>> = (0..rings.max(1)).map(|_| Vec::new()).collect();
    let mut ids = BTreeSet::new();
    for _ in 0..ops {
        let ci = rng.random_range(0..clients.len());
        seqs[ci] += 1;
        let key = |rng: &mut StdRng| keys[rng.random_range(0..keys.len())].clone();
        let value = |rng: &mut StdRng| Bytes::from(format!("v{}", rng.random_range(0..1000u32)));
        let op = match rng.random_range(0..10u32) {
            0..=4 => KvOp::Write {
                writes: vec![KvWrite::Put {
                    key: key(&mut rng),
                    value: value(&mut rng),
                }],
            },
            5 => KvOp::Write {
                writes: vec![KvWrite::Del { key: key(&mut rng) }],
            },
            6 => KvOp::Write {
                writes: vec![KvWrite::Cas {
                    key: key(&mut rng),
                    expect: if rng.random_range(0..2u32) == 0 {
                        None
                    } else {
                        Some(value(&mut rng))
                    },
                    value: value(&mut rng),
                }],
            },
            7 | 8 => {
                let mut picked = BTreeSet::new();
                while picked.len() < 2 + rng.random_range(0..2usize) {
                    picked.insert(key(&mut rng));
                }
                KvOp::Write {
                    writes: picked
                        .into_iter()
                        .map(|k| KvWrite::Put {
                            key: k,
                            value: value(&mut rng),
                        })
                        .collect(),
                }
            }
            _ => KvOp::Fence {
                parts: vec![format!("kv.{}", rng.random_range(0..partitions.max(1)))],
            },
        };
        let payload = encode_op(&op);
        let involved = involved_partitions(&op, partitions);
        ids.insert((clients[ci].to_string(), seqs[ci]));
        for (r, stream) in streams.iter_mut().enumerate() {
            let groups: Vec<String> = involved
                .iter()
                .filter(|p| ring_of(p, rings) == r)
                .cloned()
                .collect();
            if !groups.is_empty() {
                stream.push(Frag {
                    client: clients[ci].to_string(),
                    seq: seqs[ci],
                    groups,
                    payload: payload.clone(),
                });
            }
        }
    }
    (streams, ids)
}

/// One legal merge of the per-ring streams: a seeded random
/// interleaving that preserves each ring's internal order.
pub fn interleave(streams: &[Vec<Frag>], seed: u64) -> Vec<Frag> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queues: Vec<VecDeque<Frag>> = streams
        .iter()
        .map(|r| r.iter().cloned().collect())
        .collect();
    let mut merged = Vec::new();
    loop {
        let live: Vec<usize> = (0..queues.len())
            .filter(|&i| !queues[i].is_empty())
            .collect();
        if live.is_empty() {
            return merged;
        }
        let pick = live[rng.random_range(0..live.len())];
        merged.push(queues[pick].pop_front().expect("non-empty queue"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_reproducible_and_cover_both_rings() {
        let (a, ids_a) = gen_workload(9, 4, 2, 50);
        let (b, ids_b) = gen_workload(9, 4, 2, 50);
        assert_eq!(ids_a, ids_b);
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|s| !s.is_empty()), "a ring got no traffic");
        let ma = interleave(&a, 77);
        let mb = interleave(&b, 77);
        assert_eq!(ma.len(), mb.len());
        assert!(ma
            .iter()
            .zip(&mb)
            .all(|(x, y)| x.client == y.client && x.seq == y.seq && x.payload == y.payload));
    }

    #[test]
    fn interleavings_preserve_per_ring_order() {
        let (streams, _) = gen_workload(3, 4, 2, 60);
        let merged = interleave(&streams, 123);
        for (r, stream) in streams.iter().enumerate() {
            let filtered: Vec<(String, u64)> = merged
                .iter()
                .filter(|f| f.groups.iter().all(|g| ring_of(g, 2) == r))
                .filter(|f| {
                    stream
                        .iter()
                        .any(|s| s.client == f.client && s.seq == f.seq)
                })
                .map(|f| (f.client.clone(), f.seq))
                .collect();
            let original: Vec<(String, u64)> =
                stream.iter().map(|f| (f.client.clone(), f.seq)).collect();
            assert_eq!(filtered, original, "ring {r} order was not preserved");
        }
    }
}
