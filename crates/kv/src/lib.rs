//! # accelring-kv
//!
//! A replicated in-memory KV store that finally *consumes* the total
//! order the rest of the stack produces: every daemon mounts a
//! deterministic [`KvMachine`] replica, the key space is statically
//! split into partition groups spread across the rings, and clients
//! get ordered writes, atomic cross-shard transactions, exactly-once
//! retry semantics, and three read-consistency modes — all from the
//! ordering substrate, with no KV-specific consensus.
//!
//! The pieces:
//!
//! * [`op`] — the ordered op ([`KvWrite`] batches and [`KvOp::Fence`]
//!   markers), FNV key partitioning, and the magic-prefixed payload
//!   codec.
//! * [`machine`] — the [`KvMachine`]: applies the merged stream,
//!   reassembles cross-ring transaction fragments and commits them at
//!   the deterministic merged position, tracks per-`(partition,
//!   sender)` consumption watermarks, serializes itself for ordered
//!   state transfer, and answers local-service queries.
//! * [`replica`] — [`KvStore`]/[`KvShared`]: the per-daemon replica,
//!   a state machine mounted through
//!   [`AppState`](accelring_multiring::AppState) and run by its daemon's
//!   loop, including the ordered state transfer that recovers a
//!   rejoining replica: serving replicas multicast their snapshot at
//!   its marker, through the total order.
//! * [`client`] — [`KvClient`]: writes over a session, reads over
//!   local-service queries, [`ReadMode`] consistency gates.
//! * [`workload`] — seeded mixed-op workload generation for the
//!   determinism proptests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod machine;
pub mod op;
pub mod replica;
pub mod workload;

pub use client::{KvClient, KvValue, ReadMode};
pub use machine::{
    decode_query, decode_reply, encode_query, encode_reply, KvApplied, KvMachine, KvOutcome,
    KvQuery, KvReply, KvStats, TXN_PENDING_HORIZON,
};
pub use op::{
    decode_op, encode_op, involved_partitions, partition_groups, partition_of, KvOp, KvWrite,
    MAX_KEY, MAX_VALUE, MAX_WRITES,
};
pub use replica::{KvBeacon, KvConfig, KvShared, KvStore};
