//! # accelring-core
//!
//! A from-scratch, sans-IO implementation of the **Accelerated Ring**
//! total-ordering protocol ("Fast Total Ordering for Modern Data Centers",
//! Babay & Amir), together with the **original Totem Ring** protocol it
//! improves upon.
//!
//! Both protocols arrange participants in a logical ring and circulate a
//! token that provides ordering, stability notification, flow control, and
//! fast failure detection. The Accelerated Ring innovation is that a
//! participant may *release the token before it finishes multicasting*: it
//! updates the token to reflect every message it will send this round, passes
//! the token, and then completes its sends, overlapping its transmissions
//! with its successor's. This shortens every token round, simultaneously
//! raising throughput and lowering latency on modern switched networks.
//!
//! ## Architecture
//!
//! The crate is deliberately free of sockets, clocks, and threads
//! ("sans-IO"): [`Participant`] is a deterministic state machine that
//! consumes [`Token`]s and [`DataMessage`]s and emits [`Action`]s in exact
//! wire order. Runtimes — the deterministic simulator in `accelring-sim`,
//! the UDP transport in `accelring-transport` — own the I/O. This is what
//! makes the protocol testable with property-based tests and reproducible
//! benchmarks.
//!
//! ## Quickstart
//!
//! ```
//! use accelring_core::testing::TestNet;
//! use accelring_core::{ProtocolConfig, Service};
//! use bytes::Bytes;
//!
//! // Three participants running the Accelerated Ring protocol with a
//! // personal window of 5 and an accelerated window of 3 (Figure 1 of the
//! // paper).
//! let mut net = TestNet::new(3, ProtocolConfig::accelerated(5, 3));
//! net.submit(0, Bytes::from_static(b"deposit $10"), Service::Agreed);
//! net.submit(1, Bytes::from_static(b"withdraw $5"), Service::Agreed);
//! net.run_tokens(9);
//!
//! // Every participant delivered the same totally ordered sequence.
//! let orders = net.delivery_orders();
//! assert_eq!(orders[0].len(), 2);
//! assert_eq!(orders[1], orders[0]);
//! assert_eq!(orders[2], orders[0]);
//! ```
//!
//! ## Module map
//!
//! | Module | Paper section | Contents |
//! |---|---|---|
//! | [`types`] | — | ids, sequence numbers, rounds, services |
//! | [`message`] | III-B, III-C | [`Token`] and [`DataMessage`] |
//! | [`wire`] | III-E | binary codec |
//! | [`config`] | III-A | windows, variants, builder |
//! | [`flow`] | III-B1/2 | flow-control arithmetic |
//! | [`buffer`] | III-B4, III-C | receive buffer and delivery engine |
//! | [`mclock`] | — | multi-ring merge keys (round slots, ring indices) |
//! | [`priority`] | III-D | token/data priority policies |
//! | [`ring`] | II | ring membership view |
//! | [`participant`] | III | the protocol state machine |
//! | [`testing`] | — | deterministic in-memory ring for tests |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod buffer;
pub mod config;
pub mod flow;
pub mod mclock;
pub mod message;
pub mod participant;
pub mod priority;
pub mod ring;
pub mod stats;
pub mod testing;
pub mod types;
pub mod wire;

pub use backoff::Backoff;
pub use buffer::{BufLease, BufferPool, Delivery, PoolStats};
pub use config::{
    ConfigError, PriorityMethod, ProtocolConfig, ProtocolConfigBuilder, RtrPolicy, Variant,
};
pub use mclock::{MergeKey, RingIdx};
pub use message::{DataMessage, Token};
pub use participant::{Action, Participant, QueueFullError, RecoverySnapshot, MAX_RTR_ENTRIES};
pub use ring::{Ring, RingError};
pub use stats::{FrontendStats, HotPathStats, PerRingStats, ShmPathStats, Stats};
pub use types::{ParticipantId, RingId, Round, Seq, Service};
pub use wire::DecodeError;

#[cfg(test)]
mod lib_tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Participant>();
        assert_send_sync::<crate::Token>();
        assert_send_sync::<crate::DataMessage>();
        assert_send_sync::<crate::ProtocolConfig>();
        assert_send_sync::<crate::Ring>();
    }
}
