//! The shared readiness wait used by every event loop in the stack.
//!
//! The daemon's one event loop and a bare ring node's thread
//! ([`crate::node`]) park the same way when idle: `ppoll` on their socket
//! and [`crate::doorbell`] descriptors, capped by the next timer, so input
//! wakes the loop the moment it lands instead of a fixed-quantum doze
//! quantizing the whole pipeline. This type factors that wait into one
//! place — the Linux path rides the hand-rolled `ppoll` FFI in the
//! private `mmsg` module; every other platform degrades to a bounded
//! sleep, which callers must treat as "maybe ready" exactly like a
//! `ppoll` timeout.

use std::time::{Duration, Instant};

/// A reusable readiness waiter over a fixed set of file descriptors.
///
/// `Poller` is deliberately stateless beyond its descriptor list: each
/// [`wait_until`](Poller::wait_until) issues one `ppoll` and returns when
/// a descriptor is readable or the deadline passes. Registering no
/// descriptors turns every wait into a plain bounded sleep.
///
/// # Examples
///
/// ```no_run
/// use std::time::{Duration, Instant};
/// use accelring_transport::Poller;
///
/// let mut poller = Poller::new();
/// poller.set_fds(&[]);
/// // No descriptors: a bounded doze.
/// poller.wait_until(Some(Instant::now() + Duration::from_millis(1)));
/// ```
#[derive(Debug, Default)]
pub struct Poller {
    fds: Vec<i32>,
}

impl Poller {
    /// A poller with no registered descriptors (waits are plain sleeps
    /// until [`set_fds`](Poller::set_fds) is called).
    pub fn new() -> Poller {
        Poller::default()
    }

    /// Replaces the descriptor set future waits park on. `None` entries
    /// of a socket that cannot expose a descriptor are simply skipped by
    /// passing only the `Some` values.
    pub fn set_fds(&mut self, fds: &[i32]) {
        self.fds.clear();
        self.fds.extend_from_slice(fds);
    }

    /// Parks until any registered descriptor is readable or `deadline`
    /// passes; `None` parks until a descriptor is readable, for loops
    /// with no timer pending. A deadline already past returns at once.
    ///
    /// There is no readiness return value on purpose: platforms without
    /// `ppoll` can only sleep, so callers must re-poll their sockets
    /// after every wait regardless of why it ended (the non-blocking
    /// sockets make a spurious re-poll free).
    ///
    /// Without descriptors to park on (or off Linux) the wait degrades to
    /// a sleep of at most 1 ms, so a caller re-checks its inputs at that
    /// pace rather than sleeping forever.
    pub fn wait_until(&self, deadline: Option<Instant>) {
        let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        if timeout.is_some_and(|t| t.is_zero()) {
            return;
        }
        #[cfg(target_os = "linux")]
        if !self.fds.is_empty() {
            crate::mmsg::wait_readable(&self.fds, timeout);
            return;
        }
        std::thread::sleep(timeout.map_or(FALLBACK_DOZE, |t| t.min(FALLBACK_DOZE)));
    }
}

/// The longest [`Poller::wait_until`] sleeps when it has no descriptor to
/// park on.
const FALLBACK_DOZE: Duration = Duration::from_millis(1);

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::UdpSocket;

    #[test]
    fn empty_poller_dozes_at_most_the_fallback() {
        let p = Poller::new();
        let t0 = Instant::now();
        p.wait_until(Some(t0 + Duration::from_secs(5)));
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn past_deadline_returns_immediately() {
        let p = Poller::new();
        let t0 = Instant::now();
        p.wait_until(Some(t0));
        assert!(t0.elapsed() < Duration::from_millis(10));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn readable_fd_cuts_the_wait_short() {
        use std::os::fd::AsRawFd;
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.send_to(b"wake", rx.local_addr().unwrap()).unwrap();
        // Give the loopback datagram a moment to land.
        std::thread::sleep(Duration::from_millis(10));
        let mut p = Poller::new();
        p.set_fds(&[rx.as_raw_fd()]);
        let t0 = Instant::now();
        p.wait_until(Some(t0 + Duration::from_secs(5)));
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "a waiting datagram must wake the poller immediately"
        );
    }
}
