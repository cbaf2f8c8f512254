//! # accelring
//!
//! A from-scratch Rust reproduction of **"Fast Total Ordering for Modern
//! Data Centers"** (Babay & Amir): the Accelerated Ring totally ordered
//! multicast protocol and everything it stands on.
//!
//! This facade crate re-exports the whole stack:
//!
//! | Layer | Crate | Contents |
//! |---|---|---|
//! | Protocol core | [`core`] | Accelerated Ring + original Totem Ring state machines, flow control, delivery services, wire codec |
//! | Membership | [`membership`] | Totem-style membership with Extended Virtual Synchrony configuration delivery |
//! | Transport | [`transport`] | Single-threaded UDP daemon runtime (separate token/data sockets) |
//! | Groups | [`daemon`] | Client–daemon layer: named groups, open-group semantics, multi-group multicast |
//! | Multi-ring | [`multiring`] | Sharded deployments: shard map, round-ordered merger, elastic resharding, crash recovery |
//! | Replicated KV | [`kv`] | State-machine KV store consuming the total order: cross-shard transactions, exactly-once retries, read-consistency modes |
//! | Simulator | [`sim`] | Deterministic network simulator + the harness regenerating every figure of the paper |
//!
//! ## Quickstart
//!
//! ```
//! use accelring::core::testing::TestNet;
//! use accelring::core::{ProtocolConfig, Service};
//! use bytes::Bytes;
//!
//! let mut net = TestNet::new(3, ProtocolConfig::accelerated(5, 3));
//! net.submit(0, Bytes::from_static(b"event-1"), Service::Agreed);
//! net.submit(2, Bytes::from_static(b"event-2"), Service::Safe);
//! net.run_tokens(12);
//! let orders = net.delivery_orders();
//! assert_eq!(orders[0], orders[1]);
//! assert_eq!(orders[1], orders[2]);
//! ```
//!
//! See the `examples/` directory for runnable demonstrations: a simulated
//! quickstart, the paper's Figure 1 schedule, a replicated key-value store,
//! a real-UDP group-chat cluster, and a partition/merge walk-through.

pub use accelring_core as core;
pub use accelring_daemon as daemon;
pub use accelring_kv as kv;
pub use accelring_membership as membership;
pub use accelring_multiring as multiring;
pub use accelring_sim as sim;
pub use accelring_transport as transport;
