//! The idle-wait doorbell: how a thread publishing work wakes an event
//! loop parked in [`crate::poller::Poller`].
//!
//! Kernel sockets wake a parked loop through their descriptors. Work that
//! lives in userspace — shm rings, API commands on a channel, a kill
//! request — has no descriptor, so the consumer owns a [`Doorbell`]: an
//! eventfd it adds to its poll set, plus an `armed` flag. Ring deliveries
//! need none: the daemon's loop steps its ring nodes itself.
//!
//! The handshake is Dekker-style. The consumer [`arm`](Doorbell::arm)s
//! the flag and only then re-checks its inputs (a SeqCst fence between
//! the two): if work slipped in, it disarms and skips the park. A
//! producer publishes its work, fences, and [`notify`](Doorbell::notify)
//! swaps the flag clear, writing the eventfd only if it was set. The two
//! fences order the producer's publish and the consumer's arm in one
//! total order, so at least one side sees the other: either the
//! re-check finds the work or the producer rings. A busy consumer never
//! arms, so producers pay no syscall at all.
//!
//! On non-Linux hosts there is no eventfd: [`poll_fd`](Doorbell::poll_fd)
//! is `None` and the poller's bounded doze stands in for the wakeup, which
//! the "maybe ready" wait contract already allows.

use std::io;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::Arc;

use crossbeam::channel::{SendError, Sender};

#[cfg(target_os = "linux")]
mod sys {
    //! Hand-rolled eventfd declarations, in the same no-dependency style
    //! as `crate::mmsg`.

    use std::ffi::c_void;
    use std::io;

    const EFD_NONBLOCK: i32 = 0o4000;
    const EFD_CLOEXEC: i32 = 0o2000000;

    extern "C" {
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: i32, buf: *const c_void, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    /// A nonblocking eventfd.
    #[derive(Debug)]
    pub(super) struct EventFd {
        fd: i32,
    }

    impl EventFd {
        pub(super) fn new() -> io::Result<EventFd> {
            // SAFETY: plain syscall, no pointers involved.
            let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(EventFd { fd })
        }

        /// Makes the fd readable, waking any `ppoll` parked on it. A full
        /// counter (`EAGAIN`) is fine — the fd is already readable.
        pub(super) fn ring(&self) {
            let one: u64 = 1;
            // SAFETY: writes 8 bytes from a live stack variable to an fd
            // this struct owns.
            let _ = unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
        }

        /// Clears the counter; returns true when it had been rung since
        /// the last drain.
        pub(super) fn drain(&self) -> bool {
            let mut val: u64 = 0;
            // SAFETY: reads at most 8 bytes into a live stack variable
            // from an fd this struct owns (nonblocking: returns EAGAIN
            // rather than parking when the counter is zero).
            let n = unsafe { read(self.fd, (&mut val as *mut u64).cast(), 8) };
            n == 8 && val > 0
        }

        pub(super) fn fd(&self) -> Option<i32> {
            Some(self.fd)
        }
    }

    impl Drop for EventFd {
        fn drop(&mut self) {
            // SAFETY: closing an fd this struct exclusively owns.
            let _ = unsafe { close(self.fd) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    //! Portable fallback: a no-op eventfd without a descriptor.

    use std::io;

    #[derive(Debug)]
    pub(super) struct EventFd;

    impl EventFd {
        pub(super) fn new() -> io::Result<EventFd> {
            Ok(EventFd)
        }

        pub(super) fn ring(&self) {}

        pub(super) fn drain(&self) -> bool {
            false
        }

        pub(super) fn fd(&self) -> Option<i32> {
            None
        }
    }
}

/// An eventfd doorbell with the armed-flag handshake described in the
/// module docs. One consumer parks on it; any number of producers ring
/// it.
///
/// # Examples
///
/// ```
/// use accelring_transport::Doorbell;
///
/// let bell = Doorbell::new().unwrap();
/// // Nothing pending: the consumer may park.
/// assert!(!bell.arm(|| false));
/// // A producer publishing now finds the consumer parked and rings.
/// assert!(bell.notify());
/// ```
#[derive(Debug)]
pub struct Doorbell {
    armed: AtomicBool,
    fd: sys::EventFd,
}

impl Doorbell {
    /// A fresh, disarmed doorbell.
    ///
    /// # Errors
    ///
    /// Propagates eventfd creation failures.
    pub fn new() -> io::Result<Doorbell> {
        Ok(Doorbell {
            armed: AtomicBool::new(false),
            fd: sys::EventFd::new()?,
        })
    }

    /// Producer half: call after publishing work. Writes the eventfd only
    /// when the consumer is parked with the doorbell armed; returns
    /// whether it did.
    pub fn notify(&self) -> bool {
        fence(Ordering::SeqCst);
        if self.armed.load(Ordering::SeqCst) && self.armed.swap(false, Ordering::SeqCst) {
            self.fd.ring();
            return true;
        }
        false
    }

    /// Consumer half, right before parking: arms the doorbell, then runs
    /// `pending` to re-check the inputs. Returns true — and leaves the
    /// doorbell disarmed — when work raced the idle decision and the
    /// consumer must not park.
    pub fn arm(&self, pending: impl FnOnce() -> bool) -> bool {
        self.armed.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if pending() {
            self.armed.store(false, Ordering::SeqCst);
            return true;
        }
        false
    }

    /// Consumer half, after waking: producers stop paying for eventfd
    /// writes while the consumer is busy.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Clears a pending ring so the descriptor stops reading ready;
    /// returns true when the doorbell had been rung since the last drain.
    pub fn drain(&self) -> bool {
        self.fd.drain()
    }

    /// The descriptor to park on, or `None` where eventfds do not exist.
    pub fn poll_fd(&self) -> Option<i32> {
        self.fd.fd()
    }
}

/// A channel sender that rings a [`Doorbell`] after every send, so a
/// command reaches a parked event loop at once instead of at its next
/// timer.
pub struct BellSender<T> {
    tx: Sender<T>,
    bell: Arc<Doorbell>,
}

impl<T> std::fmt::Debug for BellSender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BellSender")
            .field("bell", &self.bell)
            .finish_non_exhaustive()
    }
}

impl<T> Clone for BellSender<T> {
    fn clone(&self) -> BellSender<T> {
        BellSender {
            tx: self.tx.clone(),
            bell: Arc::clone(&self.bell),
        }
    }
}

impl<T> BellSender<T> {
    /// Pairs `tx` with the doorbell of the loop that drains its receiver.
    pub fn new(tx: Sender<T>, bell: Arc<Doorbell>) -> BellSender<T> {
        BellSender { tx, bell }
    }

    /// Sends, then rings the doorbell.
    ///
    /// # Errors
    ///
    /// Returns the message if the receiver is gone.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let result = self.tx.send(msg);
        self.bell.notify();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notify_rings_only_while_armed() {
        let bell = Doorbell::new().unwrap();
        // Disarmed: a producer skips the eventfd entirely.
        assert!(!bell.notify());
        assert!(!bell.drain());
        // Armed with nothing pending: the next publish rings, once.
        assert!(!bell.arm(|| false));
        assert!(bell.notify());
        assert!(!bell.notify(), "the first ring disarms");
        #[cfg(target_os = "linux")]
        assert!(bell.drain(), "the ring is visible on the descriptor");
        assert!(!bell.drain());
    }

    #[test]
    fn arm_then_recheck_catches_work_that_raced_the_idle_decision() {
        use std::sync::atomic::AtomicU64;
        let bell = Doorbell::new().unwrap();
        let queued = AtomicU64::new(0);
        // A producer published *before* the consumer armed: its notify
        // found the doorbell disarmed and did not ring...
        queued.fetch_add(1, Ordering::SeqCst);
        assert!(!bell.notify());
        // ...so the consumer's re-check after arming must see the work,
        // refuse to park, and leave the doorbell disarmed.
        assert!(bell.arm(|| queued.load(Ordering::SeqCst) > 0));
        assert!(
            !bell.notify(),
            "a refused park leaves the doorbell disarmed"
        );
        assert!(!bell.drain());
    }

    #[test]
    fn disarm_after_wake_silences_producers() {
        let bell = Doorbell::new().unwrap();
        assert!(!bell.arm(|| false));
        bell.disarm();
        assert!(!bell.notify());
    }

    #[test]
    fn bell_sender_rings_a_parked_consumer() {
        let bell = Arc::new(Doorbell::new().unwrap());
        let (tx, rx) = crossbeam::channel::unbounded();
        let tx = BellSender::new(tx, Arc::clone(&bell));
        assert!(!bell.arm(|| !rx.is_empty()));
        tx.send(7u8).unwrap();
        #[cfg(target_os = "linux")]
        assert!(bell.drain());
        assert_eq!(rx.try_recv(), Ok(7));
        drop(rx);
        assert!(tx.send(8).is_err());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn ring_wakes_a_poller_parked_without_timeout() {
        use std::time::{Duration, Instant};
        let bell = Arc::new(Doorbell::new().unwrap());
        let mut poller = crate::poller::Poller::new();
        poller.set_fds(&[bell.poll_fd().unwrap()]);
        assert!(!bell.arm(|| false));
        let producer = {
            let bell = Arc::clone(&bell);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                bell.notify()
            })
        };
        let t0 = Instant::now();
        poller.wait_until(None);
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert!(producer.join().unwrap());
    }
}
