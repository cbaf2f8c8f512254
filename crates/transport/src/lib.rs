//! # accelring-transport
//!
//! A single-threaded UDP runtime for the Accelerated Ring stack: one OS
//! thread per daemon drives the ordering protocol and the membership
//! algorithm over two non-blocking UDP sockets per ring, exactly like the
//! paper's daemon implementations (Section III-E). A [`RingNode`] holds
//! one ring's stack without a thread; the daemon pump steps one per ring
//! in its own loop, and a [`NodeHandle`] runs one bare ring on a thread
//! of its own:
//!
//! * the token travels on its own port and socket, so the runtime can read
//!   token and data in the protocol's priority order, and the token is
//!   never lost to a full data buffer;
//! * logical multicast is realized as unicast fan-out to every peer (the
//!   option Spread offers when IP-multicast is unavailable), which also
//!   makes localhost test rings trivial to set up.
//!
//! ## Example: a three-daemon ring on localhost
//!
//! ```no_run
//! use accelring_core::{ParticipantId, ProtocolConfig, Service};
//! use accelring_membership::MembershipConfig;
//! use accelring_transport::{spawn_local_ring, AppEvent};
//! use bytes::Bytes;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let handles = spawn_local_ring(3, ProtocolConfig::default(), MembershipConfig::for_wall_clock())?;
//! handles[0].submit(Bytes::from_static(b"hello"), Service::Agreed)?;
//! if let Ok(AppEvent::Delivered(d)) = handles[2].events().recv() {
//!     println!("delivered {:?}", d.payload);
//! }
//! # Ok(())
//! # }
//! ```

// Unsafe is denied everywhere except the `mmsg` syscall shim, the
// `doorbell` eventfd shim, and the `shm` ring backend, which opt back in
// module-wide — together they are the only unsafe code in the workspace.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
#[allow(unsafe_code)]
pub mod doorbell;
pub mod fault;
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod mmsg;
pub mod node;
pub mod poller;
#[allow(unsafe_code)]
pub mod shm;
pub mod socket;

pub use addr::{AddressBook, NodeAddr};
pub use doorbell::{BellSender, Doorbell};
pub use fault::{FaultPlane, FaultPlaneStats, GilbertElliott, InterposedSocket, SocketClass};
pub use node::{
    AppEvent, BoundNode, KillSwitch, NodeHandle, NodeOptions, RingNode, SubmitError,
    TransportError, TransportProbe, TransportStats,
};
pub use poller::Poller;
pub use shm::{ShmCounters, ShmSocket};
pub use socket::{DatagramSocket, RecvBatch, RecvOutcome, RecvSlot, SendOutcome};

use std::sync::Arc;
use std::time::Duration;

use accelring_core::{Backoff, ParticipantId, ProtocolConfig};
use accelring_membership::MembershipConfig;

/// Which datagram backend a node's sockets run on.
///
/// Every harness binds through [`BoundNode::bind`]/
/// [`BoundNode::bind_addrs`], which consult [`Transport::from_env`] — so
/// `ACCELRING_TRANSPORT=shm` flips an entire test suite or bench onto the
/// shared-memory backend with zero call-site changes. The `_on` variants
/// ([`bind_with_retry_on`], [`spawn_local_ring_on`],
/// [`spawn_local_multiring_on`]) select a backend explicitly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Transport {
    /// Kernel UDP sockets (the default; required between hosts).
    #[default]
    Udp,
    /// In-process shared-memory SPSC rings (see [`shm`]): zero syscalls
    /// on the datagram path for colocated daemons.
    Shm,
}

impl Transport {
    /// Reads the backend from `ACCELRING_TRANSPORT` (`"shm"` selects the
    /// shared-memory backend; anything else, or unset, selects UDP).
    pub fn from_env() -> Transport {
        match std::env::var("ACCELRING_TRANSPORT") {
            Ok(v) if v.eq_ignore_ascii_case("shm") => Transport::Shm,
            _ => Transport::Udp,
        }
    }
}

/// How many times binding one participant's sockets is retried before the
/// whole ring spawn is failed (ephemeral-port collisions are transient).
pub const BIND_ATTEMPTS: usize = 3;

/// Base delay of the full-jitter backoff between bind attempts. Restarted
/// daemons rebinding fixed ports race the kernel releasing them; a jittered
/// pause desynchronizes simultaneous restarts (the same [`Backoff`] policy
/// the reconnect and retry paths use) where the old back-to-back retry
/// burned all its attempts inside the contention window.
pub const BIND_BACKOFF_BASE: Duration = Duration::from_millis(10);
/// Cap on the bind backoff delay.
pub const BIND_BACKOFF_CAP: Duration = Duration::from_millis(200);

/// Binds a node's sockets, retrying transient bind failures a bounded
/// number of times with [`Backoff`] full-jitter pauses in between.
///
/// # Errors
///
/// Returns [`TransportError::Bind`] naming the participant that could not
/// come up after [`BIND_ATTEMPTS`] tries.
pub fn bind_with_retry(pid: ParticipantId, ip: &str) -> Result<BoundNode, TransportError> {
    bind_with_retry_on(Transport::from_env(), pid, ip)
}

/// [`bind_with_retry`] with an explicit backend instead of the
/// environment default.
///
/// # Errors
///
/// Returns [`TransportError::Bind`] naming the participant that could not
/// come up after [`BIND_ATTEMPTS`] tries.
pub fn bind_with_retry_on(
    transport: Transport,
    pid: ParticipantId,
    ip: &str,
) -> Result<BoundNode, TransportError> {
    let mut last = None;
    let mut backoff = Backoff::new(
        BIND_BACKOFF_BASE,
        BIND_BACKOFF_CAP,
        0x1bd1 ^ u64::from(pid.as_u16()),
    );
    for attempt in 0..BIND_ATTEMPTS {
        match BoundNode::bind_on(transport, pid, ip) {
            Ok(b) => return Ok(b),
            Err(TransportError::Io(e)) => last = Some(e),
            Err(other) => return Err(other),
        }
        if attempt + 1 < BIND_ATTEMPTS {
            std::thread::sleep(backoff.next_delay());
        }
    }
    Err(TransportError::Bind {
        pid,
        attempts: BIND_ATTEMPTS,
        source: last.unwrap_or_else(|| std::io::Error::other("bind failed")),
    })
}

/// Convenience: binds and starts `n` daemons on 127.0.0.1 with ephemeral
/// ports, fully meshed, and returns their handles.
///
/// # Errors
///
/// Returns [`TransportError`] if any socket operation fails;
/// [`TransportError::Bind`] identifies the participant whose sockets could
/// not be bound.
pub fn spawn_local_ring(
    n: u16,
    protocol: ProtocolConfig,
    membership: MembershipConfig,
) -> Result<Vec<NodeHandle>, TransportError> {
    spawn_local_ring_with(n, protocol, membership, None)
}

/// Like [`spawn_local_ring`], but routes every node's traffic through the
/// given [`FaultPlane`] (registered with the ring's address book before
/// any node starts).
///
/// # Errors
///
/// Returns [`TransportError`] if any socket operation fails.
pub fn spawn_local_ring_with(
    n: u16,
    protocol: ProtocolConfig,
    membership: MembershipConfig,
    plane: Option<Arc<FaultPlane>>,
) -> Result<Vec<NodeHandle>, TransportError> {
    spawn_local_ring_on(Transport::from_env(), n, protocol, membership, plane)
}

/// [`spawn_local_ring_with`] on an explicit [`Transport`] backend — the
/// switch the chaos suites and benches use to run the same ring over UDP
/// loopback or shared-memory rings.
///
/// # Errors
///
/// Returns [`TransportError`] if any socket operation fails.
pub fn spawn_local_ring_on(
    transport: Transport,
    n: u16,
    protocol: ProtocolConfig,
    membership: MembershipConfig,
    plane: Option<Arc<FaultPlane>>,
) -> Result<Vec<NodeHandle>, TransportError> {
    let bound: Vec<BoundNode> = (0..n)
        .map(|i| bind_with_retry_on(transport, ParticipantId::new(i), "127.0.0.1"))
        .collect::<Result<_, _>>()?;
    let addrs: Vec<NodeAddr> = bound
        .iter()
        .map(BoundNode::addr)
        .collect::<Result<_, _>>()?;
    let book = AddressBook::new(addrs);
    if let Some(plane) = &plane {
        plane.register_book(&book);
    }
    bound
        .into_iter()
        .map(|b| {
            b.start_with(
                book.clone(),
                protocol,
                membership,
                NodeOptions {
                    plane: plane.clone(),
                    ..NodeOptions::default()
                },
            )
        })
        .collect()
}

/// Binds and starts `rings` independent localhost rings of `n` daemons
/// each — the transport of a multi-ring sharded deployment. Returns
/// `handles[ring][node]`.
///
/// `planes[ring]`, when present, routes that ring's traffic (and only
/// that ring's) through the given [`FaultPlane`] — faults are inherently
/// ring-targeted: partitioning ring 1 never perturbs ring 0. Rings
/// beyond `planes.len()` run fault-free.
///
/// # Errors
///
/// Returns [`TransportError`] if any socket operation fails;
/// [`TransportError::Bind`] identifies the participant whose sockets
/// could not be bound.
pub fn spawn_local_multiring(
    rings: u16,
    n: u16,
    protocol: ProtocolConfig,
    membership: MembershipConfig,
    planes: &[Option<Arc<FaultPlane>>],
) -> Result<Vec<Vec<NodeHandle>>, TransportError> {
    spawn_local_multiring_on(
        Transport::from_env(),
        rings,
        n,
        protocol,
        membership,
        planes,
    )
}

/// [`spawn_local_multiring`] on an explicit [`Transport`] backend.
///
/// # Errors
///
/// Returns [`TransportError`] if any socket operation fails;
/// [`TransportError::Bind`] identifies the participant whose sockets
/// could not be bound.
pub fn spawn_local_multiring_on(
    transport: Transport,
    rings: u16,
    n: u16,
    protocol: ProtocolConfig,
    membership: MembershipConfig,
    planes: &[Option<Arc<FaultPlane>>],
) -> Result<Vec<Vec<NodeHandle>>, TransportError> {
    (0..rings)
        .map(|k| {
            let plane = planes.get(k as usize).cloned().flatten();
            spawn_local_ring_on(transport, n, protocol, membership, plane)
        })
        .collect()
}
