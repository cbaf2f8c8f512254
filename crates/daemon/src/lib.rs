//! # accelring-daemon
//!
//! The client–daemon group-messaging layer of the Accelerated Ring stack —
//! the architecture that made Spread successful (Section I of the paper):
//! a clean separation between middleware and application, one set of
//! daemons serving several applications, and **open group semantics** (a
//! process need not be a member of a group to send to it).
//!
//! Features reproduced from Spread:
//!
//! * named groups with client-level join/leave and membership views;
//! * **multi-group multicast**: one message to the members of multiple
//!   distinct groups, with ordering guaranteed *across* groups because
//!   group routing rides the single ring total order;
//! * descriptive client and group names (the "large headers" the paper
//!   mentions as a cost of the production system);
//! * EVS awareness: clients are told about daemon configuration changes,
//!   and clients of departed daemons are pruned from groups consistently
//!   at every surviving daemon.
//!
//! The pure [`engine::GroupEngine`] is runtime-agnostic, and the
//! [`frontend`] serves its clients. The live daemon runtime that binds
//! both to real transport nodes is `accelring_multiring::MultiRingDaemon`;
//! a single-ring daemon is its one-ring case.
//!
//! ## Example
//!
//! Client calls become ring submissions; the ring's total order (played
//! by hand here) comes back as deliveries that produce client events.
//!
//! ```
//! use accelring_core::{Delivery, ParticipantId, Round, Seq, Service};
//! use accelring_daemon::{ClientEvent, EngineOutput, GroupEngine};
//! use bytes::Bytes;
//!
//! let mut engine = GroupEngine::new(ParticipantId::new(0));
//! engine.client_connect("alice")?;
//! let mut submits = engine.client_join("alice", "chat")?;
//! let hi = Bytes::from_static(b"hi");
//! submits.extend(engine.client_multicast("alice", &["chat"], hi, Service::Agreed)?);
//! let mut events = Vec::new();
//! for (i, out) in submits.into_iter().enumerate() {
//!     let EngineOutput::Submit { payload, service } = out else { continue };
//!     let (seq, sender, round) = (Seq::new(i as u64 + 1), ParticipantId::new(0), Round::new(1));
//!     events.extend(engine.on_delivery(&Delivery { seq, sender, round, service, payload }));
//! }
//! // Alice sees her join's view, then her own message.
//! assert!(matches!(&events[1], EngineOutput::Local { event: ClientEvent::Message { .. }, .. }));
//! # Ok::<(), accelring_daemon::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod frontend;
pub mod groups;
pub mod packing;
pub mod proto;

pub use engine::{ClientEvent, EngineError, EngineOutput, GroupEngine};
pub use frontend::{FrontendOptions, Ingress, SessionClient, SessionMux};
pub use groups::{GroupTable, GroupView};
pub use proto::{
    ClientId, GroupAction, GroupMessage, GroupProtoError, SessionFrame, MAX_GROUPS, MAX_NAME,
};
