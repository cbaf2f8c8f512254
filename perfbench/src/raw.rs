//! Many sessions over one client socket, spoken in `daemon::proto` frames:
//! the frontend routes by session id, never by source address, so one
//! socket can hold sessions on several daemons. Session ids are only
//! unique per daemon, so events are matched on `(daemon, id)`.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use accelring_core::Service;
use accelring_daemon::proto::{decode_event_body, decode_session_frame, encode_session_frame};
use accelring_daemon::{ClientEvent, GroupAction, SessionFrame};
use bytes::Bytes;

/// Events consumed per session before a CREDIT frame returns them (the
/// same batching the library client uses).
const CREDIT_BATCH: u32 = 64;
/// Gap between HELLO resends while a session is not yet welcomed.
const HELLO_RESEND: Duration = Duration::from_millis(100);
/// How long opening the sessions may take.
const HELLO_DEADLINE: Duration = Duration::from_secs(10);
/// Receive buffer asked of the kernel for the shared socket. Every session
/// may have a full credit window of EVENT frames in flight, and one socket
/// carries them all: at the default ~208 KiB a brief stall of the
/// receiving thread overflows the buffer and the kernel drops events.
const RECV_BUFFER_BYTES: i32 = 4 << 20;

/// Best-effort deepening of `sock`'s receive buffer (the kernel clamps it
/// to `net.core.rmem_max`); a shallow buffer shows up as lost events,
/// which the workloads count as failures.
#[cfg(target_os = "linux")]
fn deepen_receive_buffer(sock: &UdpSocket) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const u8, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    let bytes = RECV_BUFFER_BYTES.to_ne_bytes();
    // SAFETY: `bytes` outlives the call and `len` is its length; the
    // descriptor is `sock`'s, borrowed for the duration of the call.
    let _ = unsafe {
        setsockopt(
            sock.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            bytes.as_ptr(),
            bytes.len() as u32,
        )
    };
}

#[cfg(not(target_os = "linux"))]
fn deepen_receive_buffer(_sock: &UdpSocket) {}

struct Session {
    daemon: SocketAddr,
    id: u64,
    last_seq: u64,
    consumed: u32,
}

/// Sessions sharing one UDP socket.
pub struct RawSessions {
    sock: UdpSocket,
    sessions: Vec<Session>,
    by_id: HashMap<(SocketAddr, u64), usize>,
    buf: Vec<u8>,
    timeout: Option<Duration>,
}

impl RawSessions {
    /// Opens one session per `(daemon, name)` target, resending HELLOs
    /// until every one is welcomed. Nonces derive from `nonce_base`.
    pub fn open(targets: &[(SocketAddr, String)], nonce_base: u64) -> io::Result<RawSessions> {
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        deepen_receive_buffer(&sock);
        sock.set_read_timeout(Some(Duration::from_millis(10)))?;
        let nonce = |i: usize| nonce_base.wrapping_add(i as u64 + 1);
        let mut ids: Vec<Option<u64>> = vec![None; targets.len()];
        let mut buf = vec![0u8; 64 * 1024];
        let deadline = Instant::now() + HELLO_DEADLINE;
        let mut resend = Instant::now();
        while ids.iter().any(Option::is_none) {
            let now = Instant::now();
            if now >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "sessions not welcomed",
                ));
            }
            if now >= resend {
                for (i, (daemon, name)) in targets.iter().enumerate() {
                    if ids[i].is_none() {
                        let hello = SessionFrame::Hello {
                            name: name.clone(),
                            resume_seq: 0,
                            nonce: nonce(i),
                        };
                        sock.send_to(&encode_session_frame(&hello), daemon)?;
                    }
                }
                resend = now + HELLO_RESEND;
            }
            let Ok((len, _)) = sock.recv_from(&mut buf) else {
                continue;
            };
            let mut datagram = Bytes::copy_from_slice(&buf[..len]);
            match decode_session_frame(&mut datagram) {
                Ok(SessionFrame::Welcome {
                    session, nonce: n, ..
                }) => {
                    if let Some(i) = (0..targets.len()).find(|&i| nonce(i) == n) {
                        ids[i] = Some(session);
                    }
                }
                Ok(SessionFrame::Error { reason, .. }) => {
                    return Err(io::Error::new(io::ErrorKind::ConnectionRefused, reason));
                }
                _ => {}
            }
        }
        let sessions: Vec<Session> = targets
            .iter()
            .zip(ids)
            .map(|((daemon, _), id)| Session {
                daemon: *daemon,
                id: id.expect("every session welcomed"),
                last_seq: 0,
                consumed: 0,
            })
            .collect();
        let by_id = sessions
            .iter()
            .enumerate()
            .map(|(i, s)| ((s.daemon, s.id), i))
            .collect();
        Ok(RawSessions {
            sock,
            sessions,
            by_id,
            buf,
            timeout: Some(Duration::from_millis(10)),
        })
    }

    /// Sends one SUBMIT on session `i`; data sends are sequenced, group
    /// actions are not. Returns the sequence stamped (0 if none).
    pub fn submit(&mut self, i: usize, action: GroupAction) -> io::Result<u64> {
        let s = &mut self.sessions[i];
        let seq = match action {
            GroupAction::Data { .. } => {
                s.last_seq += 1;
                s.last_seq
            }
            _ => 0,
        };
        let frame = SessionFrame::Submit {
            session: s.id,
            seq,
            service: Service::Agreed,
            action,
        };
        self.sock.send_to(&encode_session_frame(&frame), s.daemon)?;
        Ok(seq)
    }

    /// Waits up to `timeout` for the next event on any session, returning
    /// the session index and the event. Consumed events are credited back
    /// in batches. `decode_ns` receives the time spent decoding.
    pub fn recv(
        &mut self,
        timeout: Duration,
        decode_ns: &mut u64,
    ) -> io::Result<Option<(usize, ClientEvent)>> {
        let timeout = timeout.max(Duration::from_micros(50));
        if self.timeout != Some(timeout) {
            self.sock.set_read_timeout(Some(timeout))?;
            self.timeout = Some(timeout);
        }
        let (len, from) = match self.sock.recv_from(&mut self.buf) {
            Ok(got) => got,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(None);
            }
            Err(e) => return Err(e),
        };
        let t = Instant::now();
        let mut datagram = Bytes::copy_from_slice(&self.buf[..len]);
        let decoded = match decode_session_frame(&mut datagram) {
            Ok(SessionFrame::Event { session, mut body }) => self
                .by_id
                .get(&(from, session))
                .copied()
                .zip(decode_event_body(&mut body).ok()),
            Ok(SessionFrame::Error { session, reason }) => self
                .by_id
                .get(&(from, session))
                .map(|&i| (i, ClientEvent::Disconnected { reason })),
            _ => None,
        };
        *decode_ns = t.elapsed().as_nanos() as u64;
        let Some((i, event)) = decoded else {
            return Ok(None);
        };
        let s = &mut self.sessions[i];
        s.consumed += 1;
        if s.consumed >= CREDIT_BATCH {
            let credit = SessionFrame::Credit {
                session: s.id,
                credits: s.consumed,
            };
            s.consumed = 0;
            self.sock
                .send_to(&encode_session_frame(&credit), s.daemon)?;
        }
        Ok(Some((i, event)))
    }

    /// Closes every session.
    pub fn bye(self) {
        for s in &self.sessions {
            let frame = SessionFrame::Bye { session: s.id };
            let _ = self.sock.send_to(&encode_session_frame(&frame), s.daemon);
        }
    }
}
