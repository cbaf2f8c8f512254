//! Properties of the replicated KV machine under randomized workloads:
//! every legal cross-ring fragment stream commits every op exactly
//! once; recovering through a snapshot cut at a random position and
//! replaying a suffix with random overlap lands on the byte-identical
//! machine, agreeing with the straight-through machine on the state
//! hash at every position; and replaying an already-consumed suffix is
//! a no-op. These are the determinism claims the live replicas lean on,
//! checked in-process over ~100 seeded cases per property.
//!
//! The KV codecs decode bytes from the network — ordered payloads,
//! SVC_QUERY and SVC_REPLY bodies, and snapshots, which any member of a
//! recovering replica's recovery group can multicast there — so
//! garbage, truncated and corrupted encodings must be refused, never
//! panic a decoder or the query path (`KvMachine::answer`) any UDP
//! sender reaches.

use std::collections::BTreeSet;

use accelring_chaos::check_state_beacons;
use accelring_kv::workload::{gen_workload, interleave, Frag};
use accelring_kv::{
    decode_op, decode_query, decode_reply, encode_op, encode_query, encode_reply, KvBeacon,
    KvMachine, KvOp, KvQuery, KvReply,
};
use bytes::Bytes;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PARTS: u16 = 4;
const RINGS: u16 = 2;
const OPS: u32 = 60;

/// Feeds `frags` into `m`, returning the `(client, seq)` of every
/// commit record it produced.
fn feed(m: &mut KvMachine, frags: &[Frag]) -> Vec<(String, u64)> {
    frags
        .iter()
        .filter_map(|f| m.ingest(&f.client, f.seq, &f.groups, &f.payload))
        .map(|a| (a.client, a.seq))
        .collect()
}

/// Feeds `frags` into `m`, returning the `(position, state_hash)`
/// beacon after every fragment.
fn beacons(m: &mut KvMachine, frags: &[Frag]) -> Vec<KvBeacon> {
    frags
        .iter()
        .map(|f| {
            m.ingest(&f.client, f.seq, &f.groups, &f.payload);
            (m.position(), m.state_hash())
        })
        .collect()
}

/// A machine halfway through a seeded workload: data, watermarks, and
/// (usually) pending cross-ring transactions.
fn machine_midway(seed: u64) -> (KvMachine, Vec<Frag>) {
    let (rings, _) = gen_workload(seed, PARTS, RINGS, 12);
    let merged = interleave(&rings, seed);
    let mut m = KvMachine::new(PARTS);
    feed(&mut m, &merged[..merged.len() / 2]);
    (m, merged)
}

/// Runs `bytes` through every KV decoder and through `m`'s query path.
/// Refusals are fine; a panic fails the property.
fn decode_everywhere(m: &KvMachine, bytes: &Bytes) {
    let _ = decode_op(bytes);
    let _ = decode_query(bytes);
    let _ = decode_reply(bytes);
    let _ = KvMachine::from_snapshot(bytes);
    let _ = m.answer(bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// Any legal merge interleaving commits every submitted op exactly
    /// once — no op lost to fragment routing, none doubled, none left
    /// pending or expired once its fragments all arrived.
    #[test]
    fn every_interleaving_commits_each_op_exactly_once(seed in any::<u64>()) {
        let (rings, ids) = gen_workload(seed, PARTS, RINGS, OPS);
        for salt in 0..2u64 {
            let merged = interleave(&rings, seed ^ (salt.rotate_left(17) | 1));
            let mut m = KvMachine::new(PARTS);
            let commits = feed(&mut m, &merged);
            let commit_set: BTreeSet<(String, u64)> = commits.iter().cloned().collect();
            prop_assert_eq!(
                commits.len(),
                commit_set.len(),
                "seed {}: an op committed twice",
                seed
            );
            prop_assert_eq!(&commit_set, &ids, "seed {}: commit set diverges", seed);
            let stats = m.stats();
            prop_assert_eq!(stats.txns_expired, 0);
            prop_assert_eq!(stats.foreign_payloads, 0);
            prop_assert_eq!(stats.position, merged.len() as u64);
            prop_assert_eq!(
                m.pending_len(),
                0,
                "seed {}: fully-delivered stream left pending txns",
                seed
            );
        }
    }

    /// Recovering through a snapshot cut anywhere in the stream, then
    /// replaying a suffix that overlaps the snapshot, reaches the same
    /// machine as consuming the stream straight through — the watermark
    /// dedup makes the overlap harmless and the pending-txn table rides
    /// the snapshot. On the way, the two agree on the state hash at
    /// every position both pass: the `kv-divergence` beacon check the
    /// live replicas run.
    #[test]
    fn snapshot_with_overlapping_replay_matches_straight_through(seed in any::<u64>()) {
        let (rings, _) = gen_workload(seed, PARTS, RINGS, OPS);
        let merged = interleave(&rings, seed ^ 0xfeed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0de);
        let cut = rng.random_range(0..=merged.len());
        let overlap = rng.random_range(0..=cut.min(7));

        let mut straight = KvMachine::new(PARTS);
        let straight_beacons = beacons(&mut straight, &merged);

        let mut source = KvMachine::new(PARTS);
        feed(&mut source, &merged[..cut]);
        let snap = source.snapshot();
        let mut recovered = KvMachine::from_snapshot(&snap).expect("snapshot decodes");
        let recovered_beacons = beacons(&mut recovered, &merged[cut - overlap..]);

        prop_assert_eq!(&recovered, &straight, "seed {}: recovery diverged", seed);
        prop_assert_eq!(recovered.state_hash(), straight.state_hash());
        let violations = check_state_beacons(&[(0, straight_beacons), (1, recovered_beacons)]);
        prop_assert!(violations.is_empty(), "seed {}: {:?}", seed, violations);
    }

    /// Replaying an already-consumed suffix changes nothing: positions,
    /// data, and hashes hold still while only the replay counter moves.
    #[test]
    fn duplicate_suffix_replay_is_idempotent(seed in any::<u64>()) {
        let (rings, _) = gen_workload(seed, PARTS, RINGS, OPS);
        let merged = interleave(&rings, seed ^ 0xd00d);
        let mut m = KvMachine::new(PARTS);
        feed(&mut m, &merged);
        let hash = m.state_hash();
        let position = m.position();
        let tail = merged.len() - merged.len().min(11);
        let commits = feed(&mut m, &merged[tail..]);
        prop_assert!(commits.is_empty(), "seed {}: a duplicate committed", seed);
        prop_assert_eq!(m.state_hash(), hash);
        prop_assert_eq!(m.position(), position);
    }

    /// Arbitrary bytes never panic a KV decoder: bare, behind every
    /// possible leading tag byte (queries, replies), and behind the op
    /// magic with every possible op tag.
    #[test]
    fn garbage_never_panics_a_kv_decoder(
        seed in any::<u64>(),
        tail in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let (m, _) = machine_midway(seed);
        decode_everywhere(&m, &Bytes::from(tail.clone()));
        let magic = encode_op(&KvOp::Fence { parts: Vec::new() }).slice(..2);
        for tag in 0..=u8::MAX {
            let mut tagged = vec![tag];
            tagged.extend_from_slice(&tail);
            decode_everywhere(&m, &Bytes::from(tagged));
            let mut op = magic.to_vec();
            op.push(tag);
            op.extend_from_slice(&tail);
            decode_everywhere(&m, &Bytes::from(op));
        }
    }

    /// Every prefix of a valid KV encoding, and every copy of one with a
    /// single byte changed, is decoded or refused without a panic: a
    /// snapshot taken mid-stream, every op of a workload, and every
    /// query and reply shape.
    #[test]
    fn damaged_kv_encodings_never_panic(seed in any::<u64>(), flip in 1u8..=u8::MAX) {
        let (m, merged) = machine_midway(seed);
        let snapshot = m.snapshot();
        let mut valid: Vec<Bytes> = merged.iter().map(|f| f.payload.clone()).collect();
        valid.extend([
            encode_query(&KvQuery::Get {
                key: "k1".into(),
                client: "ann".into(),
                min_seq: 3,
            }),
            encode_reply(&KvReply::Value {
                found: true,
                value: Bytes::from_static(b"v7"),
                position: 9,
                mark: 2,
            }),
            encode_reply(&KvReply::NotYet { mark: 4 }),
            snapshot,
        ]);
        for good in &valid {
            for cut in 0..good.len() {
                decode_everywhere(&m, &good.slice(..cut));
            }
            for i in 0..good.len() {
                let mut bad = good.to_vec();
                bad[i] ^= flip;
                decode_everywhere(&m, &Bytes::from(bad));
            }
        }
    }
}
