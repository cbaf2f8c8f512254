//! # accelring-multiring
//!
//! Multi-ring sharded ordering over the Accelerated Ring stack, after
//! Multi-Ring Paxos (Marandi et al.) and its stretched variant (Benz et
//! al.): R independent rings each order their own shard of the group
//! space, and a deterministic round-ordered merge folds the R totally ordered
//! streams back into one — so a client subscribed to groups on
//! different rings still observes a single total order, while aggregate
//! ordering throughput scales with R instead of being capped by one
//! token rotation.
//!
//! The subsystem has four pieces:
//!
//! * [`ShardMap`] — deterministic group→ring placement: FNV-1a hash by
//!   default and explicit pins on demand. A group moves only by an
//!   online migration whose commit every daemon applies at the same
//!   point of the source ring's total order.
//! * [`Merger`] — the deterministic merge. Each ring's deliveries are
//!   stamped with their token round — a leader-paced clock stamp,
//!   intrinsic to the message and identical at every observer — and
//!   entries release in global `(round, ring)` order. Idle rings are
//!   kept from stalling the merge by floors from token visits, and a
//!   resting ring that gates the merge is turned
//!   ([`Merger::gates`]); EVS view changes appear as explicit fences in
//!   the merged stream.
//! * [`MultiRingEngine`] — the routed daemon layer: one
//!   [`accelring_daemon::GroupEngine`] per ring, submissions routed by
//!   the shard map (a multicast's groups must share a ring), and local
//!   client events released through the merger.
//! * Runtimes — the live UDP daemon over real sockets ([`live`]) runs
//!   the engine; the deterministic scaling harness over `accelring-sim`
//!   fabrics ([`scaling`]) and the chaos harness with the cross-ring
//!   order-agreement invariant ([`chaos`]) drive the [`Merger`] alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod churn;
pub mod engine;
pub mod live;
pub mod merge;
pub mod migrate;
pub mod recovery;
pub mod scaling;
pub mod shard;

pub use chaos::{run_multiring_chaos, MultiRingChaosConfig, MultiRingReport};
pub use churn::ChurnCluster;
pub use engine::{MultiOutput, MultiRingEngine, MultiRingError};
pub use live::{
    AppOutput, AppState, DaemonInspect, MultiRingClient, MultiRingDaemon, MultiRingOptions,
};
pub use merge::{MergedEntry, Merger};
pub use migrate::{HeldSend, Migration, MigrationCounters};
pub use recovery::{RecoveryCounters, RingSeqs};
pub use scaling::{replay_merge, run_scaling, ScalingPoint, ScalingSpec};
pub use shard::ShardMap;
