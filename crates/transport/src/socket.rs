//! The socket abstraction the event loop runs on.
//!
//! The daemon thread never talks to [`std::net::UdpSocket`] directly; it
//! sends and receives through this trait so a fault-injecting interposer
//! (see [`crate::fault`]) can slot underneath it without the protocol code
//! noticing. Production nodes use plain UDP sockets; chaos tests wrap the
//! same sockets in [`crate::fault::InterposedSocket`].
//!
//! Beyond the one-datagram [`send_to`](DatagramSocket::send_to) /
//! [`recv_from`](DatagramSocket::recv_from) pair, the trait carries a
//! batched API: [`send_batch`](DatagramSocket::send_batch) and
//! [`recv_batch`](DatagramSocket::recv_batch) move many datagrams per
//! syscall (`sendmmsg`/`recvmmsg` on Linux, a portable loop elsewhere) and
//! report how many syscalls they actually issued, so the event loop can
//! account for batching efficiency.

use std::net::{SocketAddr, UdpSocket};

use bytes::Bytes;

/// Outcome of a [`DatagramSocket::send_batch`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendOutcome {
    /// Datagrams accepted by the socket layer. A fault-injecting socket
    /// counts a datagram it deliberately dropped or delayed as sent — from
    /// the node's perspective the packet entered the network.
    pub sent: usize,
    /// Datagrams that failed with a real I/O error (counted per
    /// destination, not per batch).
    pub errors: usize,
    /// Syscalls issued to move the batch.
    pub syscalls: u64,
}

/// Outcome of a [`DatagramSocket::recv_batch`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecvOutcome {
    /// Slots filled with a received datagram (0 = nothing was waiting).
    pub received: usize,
    /// Syscalls issued.
    pub syscalls: u64,
}

/// One receive slot of a batched receive: the caller provides the buffer,
/// the socket fills in length and source address.
#[derive(Debug)]
pub struct RecvSlot<'a> {
    /// Buffer to receive into.
    pub buf: &'a mut [u8],
    /// Bytes received (valid when `addr` is `Some`).
    pub len: usize,
    /// Source address of the datagram, `None` if the slot was not filled.
    pub addr: Option<SocketAddr>,
}

impl<'a> RecvSlot<'a> {
    /// Wraps a buffer as an empty slot.
    pub fn new(buf: &'a mut [u8]) -> RecvSlot<'a> {
        RecvSlot {
            buf,
            len: 0,
            addr: None,
        }
    }
}

/// The standing receive buffers of one event loop, allocated once and
/// handed to every [`recv_batch`](DatagramSocket::recv_batch).
///
/// Each received datagram is copied out at its exact length before
/// anyone parses it, so whatever keeps a message (the protocol until
/// Safe discard, a replicated store for good) holds the message's own
/// bytes rather than a slice pinning a whole 64 KiB buffer, and the
/// buffers are free for the next batch as soon as
/// [`recv`](RecvBatch::recv) returns. Bytes a datagram does not cover
/// keep whatever earlier traffic left there; they are never copied.
#[derive(Debug)]
pub struct RecvBatch {
    bufs: Vec<Vec<u8>>,
}

impl RecvBatch {
    /// The most buffers a batch holds: the slots of one receive live on
    /// the stack, so a receive allocates nothing but the copies.
    pub const MAX: usize = 32;

    /// `count` buffers of `size` bytes each: the most datagrams one
    /// [`recv`](RecvBatch::recv) takes, and the largest it takes whole.
    ///
    /// # Panics
    ///
    /// If `count` exceeds [`RecvBatch::MAX`].
    pub fn new(count: usize, size: usize) -> RecvBatch {
        assert!(
            count <= Self::MAX,
            "a receive batch holds at most {} buffers",
            Self::MAX
        );
        RecvBatch {
            bufs: (0..count).map(|_| vec![0; size]).collect(),
        }
    }

    /// Receives up to one batch from `socket` and appends each datagram,
    /// copied out at its exact length, with its source address to `out`.
    ///
    /// # Errors
    ///
    /// As [`DatagramSocket::recv_batch`]; nothing is appended then.
    pub fn recv(
        &mut self,
        socket: &dyn DatagramSocket,
        out: &mut Vec<(Bytes, SocketAddr)>,
    ) -> std::io::Result<RecvOutcome> {
        let count = self.bufs.len();
        let mut bufs = self.bufs.iter_mut();
        let mut slots: [RecvSlot<'_>; Self::MAX] =
            std::array::from_fn(|_| RecvSlot::new(bufs.next().map_or(&mut [], |b| b)));
        let slots = &mut slots[..count];
        let outcome = socket.recv_batch(slots)?;
        // Filled slots form a prefix.
        out.extend(slots.iter().map_while(|s| {
            s.addr
                .map(|addr| (Bytes::copy_from_slice(&s.buf[..s.len]), addr))
        }));
        Ok(outcome)
    }
}

/// A non-blocking datagram endpoint, as seen by the event loop.
///
/// Implementations must already be in non-blocking mode: `recv_from` on an
/// empty socket returns [`std::io::ErrorKind::WouldBlock`].
pub trait DatagramSocket: Send + std::fmt::Debug {
    /// Sends one datagram to `addr`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; the event loop counts (and
    /// survives) failures rather than retrying.
    fn send_to(&self, buf: &[u8], addr: SocketAddr) -> std::io::Result<usize>;

    /// Receives one datagram.
    ///
    /// # Errors
    ///
    /// `WouldBlock` when no datagram is waiting; other errors are counted
    /// by the event loop.
    fn recv_from(&self, buf: &mut [u8]) -> std::io::Result<(usize, SocketAddr)>;

    /// Sends a batch of datagrams, minimizing syscalls where the platform
    /// allows. Never fails as a whole: per-destination errors are counted
    /// in the outcome and the rest of the batch still goes out.
    ///
    /// The default implementation loops over [`send_to`] — one syscall per
    /// datagram — so any implementor of the two single-datagram methods is
    /// automatically batch-capable.
    ///
    /// [`send_to`]: DatagramSocket::send_to
    fn send_batch(&self, batch: &[(Bytes, SocketAddr)]) -> SendOutcome {
        let mut out = SendOutcome::default();
        for (buf, addr) in batch {
            out.syscalls += 1;
            match self.send_to(buf, *addr) {
                Ok(_) => out.sent += 1,
                Err(_) => out.errors += 1,
            }
        }
        out
    }

    /// Receives up to `slots.len()` datagrams in as few syscalls as the
    /// platform allows. Returns with `received == 0` (not `WouldBlock`)
    /// when nothing is waiting.
    ///
    /// # Errors
    ///
    /// A real I/O error is returned only if it struck before any datagram
    /// was received this call; otherwise the datagrams already in hand are
    /// reported and the error surfaces on the next call.
    fn recv_batch(&self, slots: &mut [RecvSlot<'_>]) -> std::io::Result<RecvOutcome> {
        let mut out = RecvOutcome::default();
        for slot in slots.iter_mut() {
            out.syscalls += 1;
            match self.recv_from(slot.buf) {
                Ok((len, addr)) => {
                    slot.len = len;
                    slot.addr = Some(addr);
                    out.received += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    if out.received == 0 {
                        return Err(e);
                    }
                    break;
                }
            }
        }
        Ok(out)
    }

    /// Raw file descriptor to sleep on when the event loop goes idle, or
    /// `None` if the platform (or the socket wrapper) cannot offer one —
    /// the loop then falls back to a fixed-quantum doze.
    fn poll_fd(&self) -> Option<i32> {
        None
    }

    /// Called by the event loop immediately before parking on
    /// [`poll_fd`](DatagramSocket::poll_fd). Returns `true` when data is
    /// already pending — the loop must skip the sleep and poll again.
    ///
    /// Kernel sockets return `false` unconditionally: their readiness is
    /// level-triggered, so `ppoll` on the fd cannot miss a datagram that
    /// arrived before the park. Userspace transports (the shm ring
    /// backend) use this hook to arm their doorbell and close the
    /// check-then-sleep race: arm, re-check the rings, and only let the
    /// loop sleep when the rings were empty *after* arming.
    fn prepare_wait(&self) -> bool {
        false
    }
}

impl DatagramSocket for UdpSocket {
    fn send_to(&self, buf: &[u8], addr: SocketAddr) -> std::io::Result<usize> {
        UdpSocket::send_to(self, buf, addr)
    }

    fn recv_from(&self, buf: &mut [u8]) -> std::io::Result<(usize, SocketAddr)> {
        UdpSocket::recv_from(self, buf)
    }

    #[cfg(target_os = "linux")]
    fn send_batch(&self, batch: &[(Bytes, SocketAddr)]) -> SendOutcome {
        crate::mmsg::send_batch(self, batch)
    }

    #[cfg(target_os = "linux")]
    fn recv_batch(&self, slots: &mut [RecvSlot<'_>]) -> std::io::Result<RecvOutcome> {
        crate::mmsg::recv_batch(self, slots)
    }

    #[cfg(target_os = "linux")]
    fn poll_fd(&self) -> Option<i32> {
        use std::os::fd::AsRawFd;
        Some(self.as_raw_fd())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (UdpSocket, UdpSocket, SocketAddr) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        let dest = b.local_addr().unwrap();
        (a, b, dest)
    }

    #[test]
    fn batch_roundtrip_over_udp() {
        let (a, b, dest) = pair();
        let batch: Vec<(Bytes, SocketAddr)> = (0u8..5)
            .map(|i| (Bytes::from(vec![i; 3 + i as usize]), dest))
            .collect();
        let out = DatagramSocket::send_batch(&a, &batch);
        assert_eq!(out.sent, 5);
        assert_eq!(out.errors, 0);
        assert!(out.syscalls >= 1);

        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut bufs = vec![[0u8; 64]; 8];
        let mut slots: Vec<RecvSlot<'_>> = bufs.iter_mut().map(|b| RecvSlot::new(b)).collect();
        let out = b.recv_batch(&mut slots).unwrap();
        assert_eq!(out.received, 5);
        assert!(out.syscalls >= 1);
        for (i, slot) in slots.iter().take(5).enumerate() {
            assert_eq!(slot.len, 3 + i);
            assert_eq!(&slot.buf[..slot.len], vec![i as u8; 3 + i].as_slice());
            assert_eq!(slot.addr, Some(a.local_addr().unwrap()));
        }
        assert!(slots[5].addr.is_none());
    }

    #[test]
    fn recv_batch_empty_socket_reports_zero() {
        let (_a, b, _dest) = pair();
        let mut buf = [0u8; 16];
        let mut slots = [RecvSlot::new(&mut buf)];
        let out = b.recv_batch(&mut slots).unwrap();
        assert_eq!(out.received, 0);
        assert!(slots[0].addr.is_none());
    }

    #[test]
    fn send_batch_counts_errors_per_destination() {
        let (a, _b, dest) = pair();
        // An unroutable destination port 0 fails per-datagram; the valid
        // sends around it still go out.
        let bad: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let batch = vec![
            (Bytes::from_static(b"ok1"), dest),
            (Bytes::from_static(b"bad"), bad),
            (Bytes::from_static(b"ok2"), dest),
        ];
        let out = DatagramSocket::send_batch(&a, &batch);
        assert_eq!(out.sent, 2);
        assert_eq!(out.errors, 1);
    }

    #[test]
    fn batch_larger_than_mmsg_chunk() {
        let (a, b, dest) = pair();
        let batch: Vec<(Bytes, SocketAddr)> = (0u16..80)
            .map(|i| (Bytes::from(i.to_le_bytes().to_vec()), dest))
            .collect();
        let out = DatagramSocket::send_batch(&a, &batch);
        assert_eq!(out.sent, 80);
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut total = 0;
        loop {
            let mut bufs = vec![[0u8; 16]; 32];
            let mut slots: Vec<RecvSlot<'_>> = bufs.iter_mut().map(|b| RecvSlot::new(b)).collect();
            let out = b.recv_batch(&mut slots).unwrap();
            if out.received == 0 {
                break;
            }
            total += out.received;
        }
        assert_eq!(total, 80);
    }
}
