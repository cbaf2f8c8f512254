//! `sendmmsg`/`recvmmsg` shim: many datagrams per syscall on Linux.
//!
//! The container deliberately carries no `libc` crate, so the handful of
//! kernel ABI types the two syscalls need (`iovec`, `msghdr`, `mmsghdr`,
//! `sockaddr_in[6]`) are declared here by hand, `#[repr(C)]`, matching the
//! x86-64/aarch64 Linux layouts. Together with the shared-memory ring
//! backend in [`crate::shm`] and the eventfd shim in [`crate::doorbell`]
//! this is the only unsafe code in the workspace; everything above the
//! [`crate::socket::DatagramSocket`] trait stays safe.
//!
//! Batches are chunked to [`MMSG_CHUNK`] headers built on the stack — no
//! heap allocation per syscall. Error semantics mirror the kernel's:
//! `sendmmsg` stops at the first failing message, so the wrapper retries
//! from the failure point and attributes exactly one error to the datagram
//! that refused to go out, then keeps sending the rest of the batch.

use std::io;
use std::net::{SocketAddr, SocketAddrV4, SocketAddrV6, UdpSocket};
use std::os::fd::AsRawFd;
use std::ptr;

use bytes::Bytes;

use crate::poller::PollFd;
use crate::socket::{RecvOutcome, RecvSlot, SendOutcome};

/// Messages per `sendmmsg`/`recvmmsg` invocation (headers live on the
/// stack; 32 already amortizes the syscall to noise).
pub(crate) const MMSG_CHUNK: usize = 32;

const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
/// Size of the largest sockaddr we handle (`sockaddr_in6`).
const SOCKADDR_MAX: usize = 28;

#[repr(C)]
struct IoVec {
    base: *mut std::ffi::c_void,
    len: usize,
}

#[repr(C)]
struct MsgHdr {
    name: *mut std::ffi::c_void,
    namelen: u32,
    iov: *mut IoVec,
    iovlen: usize,
    control: *mut std::ffi::c_void,
    controllen: usize,
    flags: i32,
}

#[repr(C)]
struct MMsgHdr {
    hdr: MsgHdr,
    len: u32,
}

extern "C" {
    fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
    fn recvmmsg(
        fd: i32,
        msgvec: *mut MMsgHdr,
        vlen: u32,
        flags: i32,
        timeout: *mut std::ffi::c_void,
    ) -> i32;
    fn setsockopt(
        fd: i32,
        level: i32,
        optname: i32,
        optval: *const std::ffi::c_void,
        optlen: u32,
    ) -> i32;
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const TimeSpec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

#[repr(C)]
struct TimeSpec {
    sec: i64,
    nsec: i64,
}

/// Blocks until one of `fds` is readable or `timeout` passes; `None`
/// waits for readiness alone. The kernel fills each entry's `revents`;
/// returns false when `ppoll` failed (interrupted, say), and the
/// `revents` then say nothing.
///
/// The event loop's idle wait: a datagram wakes it immediately instead
/// of it sleeping a fixed quantum and finding the token stale — on a
/// busy ring the token spends its life in flight, so fixed-quantum
/// dozing quantizes the whole rotation.
pub(crate) fn wait_readable(fds: &mut [PollFd], timeout: Option<std::time::Duration>) -> bool {
    let ts = timeout.map(|t| TimeSpec {
        sec: t.as_secs() as i64,
        nsec: i64::from(t.subsec_nanos()),
    });
    let ts_ptr = ts.as_ref().map_or(ptr::null(), |t| t as *const TimeSpec);
    // SAFETY: `fds` and `ts` outlive the call and `PollFd` is laid out as
    // the kernel's `struct pollfd`; a null timeout means "no timeout" and
    // a null sigmask "don't touch the signal mask", per the ppoll
    // contract.
    let n = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, ts_ptr, ptr::null()) };
    n >= 0
}

const SOL_SOCKET: i32 = 1;
const SO_RCVBUF: i32 = 8;
const SO_SNDBUF: i32 = 7;

/// Asks the kernel for `bytes`-deep receive and send buffers on `sock`.
///
/// Gathered sends burst a whole encode-once fanout into each receiver at
/// memory speed; the default ~208 KiB receive buffer is about one
/// accelerated window deep, so an unlucky scheduling gap tail-drops the
/// burst and the protocol pays a retransmission round. Best-effort: the
/// kernel clamps to `net.core.{r,w}mem_max` and failure is ignored — the
/// protocol's retransmission machinery still owns correctness.
pub(crate) fn set_buffer_sizes(sock: &UdpSocket, bytes: i32) {
    let fd = sock.as_raw_fd();
    for opt in [SO_RCVBUF, SO_SNDBUF] {
        // SAFETY: optval points at a live i32 for the duration of the
        // call; optlen matches.
        let _ = unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                opt,
                (&bytes as *const i32).cast(),
                std::mem::size_of::<i32>() as u32,
            )
        };
    }
}

const EMPTY_IOV: IoVec = IoVec {
    base: ptr::null_mut(),
    len: 0,
};

const EMPTY_HDR: MMsgHdr = MMsgHdr {
    hdr: MsgHdr {
        name: ptr::null_mut(),
        namelen: 0,
        iov: ptr::null_mut(),
        iovlen: 0,
        control: ptr::null_mut(),
        controllen: 0,
        flags: 0,
    },
    len: 0,
};

/// Serializes `addr` into `buf` as a kernel sockaddr, returning the
/// sockaddr length.
fn write_sockaddr(buf: &mut [u8; SOCKADDR_MAX], addr: SocketAddr) -> u32 {
    match addr {
        SocketAddr::V4(v4) => {
            buf[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
            buf[2..4].copy_from_slice(&v4.port().to_be_bytes());
            buf[4..8].copy_from_slice(&v4.ip().octets());
            buf[8..16].fill(0);
            16
        }
        SocketAddr::V6(v6) => {
            buf[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
            buf[2..4].copy_from_slice(&v6.port().to_be_bytes());
            buf[4..8].copy_from_slice(&v6.flowinfo().to_be_bytes());
            buf[8..24].copy_from_slice(&v6.ip().octets());
            buf[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
            28
        }
    }
}

/// Parses the kernel-filled sockaddr back into a [`SocketAddr`].
fn read_sockaddr(buf: &[u8; SOCKADDR_MAX]) -> io::Result<SocketAddr> {
    let family = u16::from_ne_bytes([buf[0], buf[1]]);
    match family {
        AF_INET => {
            let port = u16::from_be_bytes([buf[2], buf[3]]);
            let ip: [u8; 4] = buf[4..8].try_into().expect("fixed slice");
            Ok(SocketAddr::V4(SocketAddrV4::new(ip.into(), port)))
        }
        AF_INET6 => {
            let port = u16::from_be_bytes([buf[2], buf[3]]);
            let flowinfo = u32::from_be_bytes(buf[4..8].try_into().expect("fixed slice"));
            let ip: [u8; 16] = buf[8..24].try_into().expect("fixed slice");
            let scope = u32::from_ne_bytes(buf[24..28].try_into().expect("fixed slice"));
            Ok(SocketAddr::V6(SocketAddrV6::new(
                ip.into(),
                port,
                flowinfo,
                scope,
            )))
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected sockaddr family {other}"),
        )),
    }
}

/// Sends the whole batch through `sendmmsg`, one syscall per
/// [`MMSG_CHUNK`] datagrams plus one retry syscall per failing
/// destination.
pub(crate) fn send_batch(sock: &UdpSocket, batch: &[(Bytes, SocketAddr)]) -> SendOutcome {
    let fd = sock.as_raw_fd();
    let mut out = SendOutcome::default();
    let mut offset = 0;
    while offset < batch.len() {
        let chunk = &batch[offset..batch.len().min(offset + MMSG_CHUNK)];
        let mut names = [[0u8; SOCKADDR_MAX]; MMSG_CHUNK];
        let mut iovs = [EMPTY_IOV; MMSG_CHUNK];
        let mut hdrs = [EMPTY_HDR; MMSG_CHUNK];
        for (i, (buf, addr)) in chunk.iter().enumerate() {
            let namelen = write_sockaddr(&mut names[i], *addr);
            iovs[i] = IoVec {
                // sendmmsg never writes through the iov; the mut cast is
                // an artifact of iovec being shared with the recv path.
                base: buf.as_ref().as_ptr() as *mut std::ffi::c_void,
                len: buf.len(),
            };
            hdrs[i] = MMsgHdr {
                hdr: MsgHdr {
                    name: names[i].as_mut_ptr().cast(),
                    namelen,
                    iov: &mut iovs[i],
                    iovlen: 1,
                    control: ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            };
        }
        out.syscalls += 1;
        // SAFETY: every pointer in `hdrs` targets stack arrays or the
        // batch's `Bytes`, all of which outlive the call.
        let n = unsafe { sendmmsg(fd, hdrs.as_mut_ptr(), chunk.len() as u32, 0) };
        if n < 1 {
            // The head datagram of the chunk failed; skip just it and
            // carry on with the rest of the batch.
            out.errors += 1;
            offset += 1;
        } else {
            out.sent += n as usize;
            offset += n as usize;
        }
    }
    out
}

/// Fills `slots` through `recvmmsg`; returns `received == 0` when the
/// socket is drained.
pub(crate) fn recv_batch(sock: &UdpSocket, slots: &mut [RecvSlot<'_>]) -> io::Result<RecvOutcome> {
    let fd = sock.as_raw_fd();
    let mut out = RecvOutcome::default();
    let mut offset = 0;
    while offset < slots.len() {
        let chunk_len = (slots.len() - offset).min(MMSG_CHUNK);
        let mut names = [[0u8; SOCKADDR_MAX]; MMSG_CHUNK];
        let mut iovs = [EMPTY_IOV; MMSG_CHUNK];
        let mut hdrs = [EMPTY_HDR; MMSG_CHUNK];
        for (i, slot) in slots[offset..offset + chunk_len].iter_mut().enumerate() {
            iovs[i] = IoVec {
                base: slot.buf.as_mut_ptr().cast(),
                len: slot.buf.len(),
            };
            hdrs[i] = MMsgHdr {
                hdr: MsgHdr {
                    name: names[i].as_mut_ptr().cast(),
                    namelen: SOCKADDR_MAX as u32,
                    iov: &mut iovs[i],
                    iovlen: 1,
                    control: ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            };
        }
        out.syscalls += 1;
        // SAFETY: every pointer in `hdrs` targets stack arrays or the
        // caller's slot buffers, all of which outlive the call; the
        // socket is non-blocking so a null timeout cannot stall.
        let n = unsafe { recvmmsg(fd, hdrs.as_mut_ptr(), chunk_len as u32, 0, ptr::null_mut()) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::WouldBlock || out.received > 0 {
                return Ok(out);
            }
            return Err(e);
        }
        let n = n as usize;
        for (i, slot) in slots[offset..offset + n].iter_mut().enumerate() {
            slot.len = hdrs[i].len as usize;
            slot.addr = Some(read_sockaddr(&names[i])?);
        }
        out.received += n;
        offset += n;
        if n < chunk_len {
            break; // socket drained
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sockaddr_v4_roundtrip() {
        let addr: SocketAddr = "192.0.2.7:4567".parse().unwrap();
        let mut buf = [0u8; SOCKADDR_MAX];
        assert_eq!(write_sockaddr(&mut buf, addr), 16);
        assert_eq!(read_sockaddr(&buf).unwrap(), addr);
    }

    #[test]
    fn sockaddr_v6_roundtrip() {
        let addr: SocketAddr = "[2001:db8::1]:9000".parse().unwrap();
        let mut buf = [0u8; SOCKADDR_MAX];
        assert_eq!(write_sockaddr(&mut buf, addr), 28);
        assert_eq!(read_sockaddr(&buf).unwrap(), addr);
    }

    #[test]
    fn unknown_family_rejected() {
        let mut buf = [0u8; SOCKADDR_MAX];
        buf[0..2].copy_from_slice(&99u16.to_ne_bytes());
        assert!(read_sockaddr(&buf).is_err());
    }

    #[test]
    fn abi_struct_layout() {
        // The hand-declared kernel structs must match the well-known
        // 64-bit Linux sizes, or the syscalls would scribble.
        assert_eq!(std::mem::size_of::<IoVec>(), 16);
        assert_eq!(std::mem::size_of::<MsgHdr>(), 56);
        assert_eq!(std::mem::size_of::<MMsgHdr>(), 64);
        assert_eq!(std::mem::size_of::<PollFd>(), 8);
    }
}
