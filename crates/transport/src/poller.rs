//! The shared readiness wait used by every event loop in the stack.
//!
//! The daemon's one event loop and a bare ring node's thread
//! ([`crate::node`]) park the same way when idle: `ppoll` on their socket
//! and [`crate::doorbell`] descriptors, capped by the next timer, so input
//! wakes the loop the moment it lands instead of a fixed-quantum doze
//! quantizing the whole pipeline. This type factors that wait into one
//! place — the Linux path rides the hand-rolled `ppoll` FFI in the
//! private `mmsg` module; every other platform degrades to a bounded
//! sleep.
//!
//! The wait also says which descriptors woke it, so the pass that
//! follows reads only those. A receive call that finds nothing is not
//! free: on a 2-core x86-64 VM a batched receive costs 0.8–1.3 µs, of
//! which the empty `recv` itself is 0.2 µs and the rest is per-call
//! set-up, and a daemon pump that read every socket on every pass spent
//! a fifth of its busy time on receives that found nothing.

use std::time::{Duration, Instant};

/// One entry of the `ppoll` descriptor array (the kernel's
/// `struct pollfd`), kept between waits so a wait allocates nothing.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    pub(crate) fd: i32,
    pub(crate) events: i16,
    pub(crate) revents: i16,
}

/// `POLLIN`: wait for input. Errors and hang-ups are reported whatever
/// `events` asks for.
const POLLIN: i16 = 1;

/// A reusable readiness waiter over a fixed set of file descriptors.
///
/// Each [`wait_until`](Poller::wait_until) issues one `ppoll` and returns
/// when a descriptor is readable or the deadline passes, recording which
/// descriptors came back with any event; [`ready`](Poller::ready) reads
/// that record until the next wait, [`set_fds`](Poller::set_fds) or
/// [`assume_ready`](Poller::assume_ready). Where the poller cannot tell —
/// before the first wait, after a wait that did not reach `ppoll` or
/// failed, or for a descriptor it does not watch — every descriptor
/// counts as ready. Registering no descriptors turns every wait into a
/// plain bounded sleep.
///
/// # Examples
///
/// ```no_run
/// use std::time::{Duration, Instant};
/// use accelring_transport::Poller;
///
/// let mut poller = Poller::new();
/// poller.set_fds(&[]);
/// // No descriptors: a bounded doze, after which anything may be ready.
/// poller.wait_until(Some(Instant::now() + Duration::from_millis(1)));
/// assert!(poller.ready(0));
/// ```
#[derive(Debug, Default)]
pub struct Poller {
    fds: Vec<PollFd>,
    /// Whether the last wait told which descriptors are ready; while it
    /// is false every descriptor counts as ready.
    known: bool,
}

impl Poller {
    /// A poller with no registered descriptors (waits are plain sleeps
    /// until [`set_fds`](Poller::set_fds) is called).
    pub fn new() -> Poller {
        Poller::default()
    }

    /// Replaces the descriptor set future waits park on; until the next
    /// wait every descriptor counts as ready.
    pub fn set_fds(&mut self, fds: &[i32]) {
        self.fds.clear();
        self.fds.extend(fds.iter().map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        }));
        self.known = false;
    }

    /// Parks until any registered descriptor is readable or `deadline`
    /// passes; `None` parks until a descriptor is readable, for loops
    /// with no timer pending. A deadline already past returns at once.
    ///
    /// Afterwards [`ready`](Poller::ready) reports the descriptors `ppoll`
    /// returned with any event, errors included (a receive call reports
    /// them), and none after a timeout. The wait is level-triggered: a
    /// socket that still holds datagrams reports ready again at once.
    /// When the poller cannot tell — no descriptors, a platform without
    /// `ppoll`, a failed or interrupted `ppoll`, a deadline already past —
    /// every descriptor counts as ready.
    ///
    /// Without descriptors to park on (or off Linux) the wait degrades to
    /// a sleep of at most 1 ms, so a caller re-checks its inputs at that
    /// pace rather than sleeping forever.
    pub fn wait_until(&mut self, deadline: Option<Instant>) {
        self.known = false;
        let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        if timeout.is_some_and(|t| t.is_zero()) {
            return;
        }
        #[cfg(target_os = "linux")]
        if !self.fds.is_empty() {
            self.known = crate::mmsg::wait_readable(&mut self.fds, timeout);
            return;
        }
        std::thread::sleep(timeout.map_or(FALLBACK_DOZE, |t| t.min(FALLBACK_DOZE)));
    }

    /// Whether `fd` may have input: the last wait reported it, the wait
    /// could not tell, or `fd` is not registered.
    pub fn ready(&self, fd: i32) -> bool {
        !self.known
            || self
                .fds
                .iter()
                .find(|p| p.fd == fd)
                .is_none_or(|p| p.revents != 0)
    }

    /// Forgets the last wait: every descriptor counts as ready, for a
    /// pass that did not follow a wait.
    pub fn assume_ready(&mut self) {
        self.known = false;
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
        let mut p = Poller::new();
        let t0 = Instant::now();
        p.wait_until(Some(t0 + Duration::from_secs(5)));
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert!(p.ready(3), "a doze cannot tell, so anything may be ready");
    }

    #[test]
    fn past_deadline_returns_immediately() {
        let mut p = Poller::new();
        let t0 = Instant::now();
        p.wait_until(Some(t0));
        assert!(t0.elapsed() < Duration::from_millis(10));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn readable_fd_cuts_the_wait_short() {
        use std::os::fd::AsRawFd;
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let quiet = UdpSocket::bind("127.0.0.1:0").unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.send_to(b"wake", rx.local_addr().unwrap()).unwrap();
        // Give the loopback datagram a moment to land.
        std::thread::sleep(Duration::from_millis(10));
        let mut p = Poller::new();
        p.set_fds(&[quiet.as_raw_fd(), rx.as_raw_fd()]);
        assert!(p.ready(quiet.as_raw_fd()), "no wait yet: all ready");
        let t0 = Instant::now();
        p.wait_until(Some(t0 + Duration::from_secs(5)));
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "a waiting datagram must wake the poller immediately"
        );
        assert!(p.ready(rx.as_raw_fd()));
        assert!(!p.ready(quiet.as_raw_fd()));
        assert!(p.ready(-7), "an unwatched descriptor cannot be ruled out");
        // Level-triggered: the unread datagram reports again.
        p.wait_until(Some(Instant::now() + Duration::from_secs(5)));
        assert!(p.ready(rx.as_raw_fd()));
        p.assume_ready();
        assert!(p.ready(quiet.as_raw_fd()));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_timeout_reports_nothing_ready() {
        use std::os::fd::AsRawFd;
        let quiet = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut p = Poller::new();
        p.set_fds(&[quiet.as_raw_fd()]);
        p.wait_until(Some(Instant::now() + Duration::from_millis(2)));
        assert!(!p.ready(quiet.as_raw_fd()));
    }
}
