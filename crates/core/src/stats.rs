//! Protocol counters, useful for tests, benchmarks, and operational
//! monitoring.

/// Monotonic counters maintained by a [`crate::Participant`].
///
/// All counters start at zero and only increase. They are cheap to read and
/// are used heavily by the integration tests (e.g. to verify that the
/// accelerated protocol does not produce unnecessary retransmissions) and by
/// the benchmark harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Tokens processed (excluding duplicates).
    pub tokens_processed: u64,
    /// Duplicate/stale tokens dropped.
    pub stale_tokens_dropped: u64,
    /// New data messages multicast.
    pub messages_sent: u64,
    /// Retransmissions multicast in answer to `rtr` requests.
    pub retransmissions_sent: u64,
    /// Retransmission requests this participant placed on the token.
    pub retransmissions_requested: u64,
    /// Data messages received and accepted (new to the buffer).
    pub messages_received: u64,
    /// Duplicate data messages dropped.
    pub duplicate_messages: u64,
    /// Tokens or data messages dropped because they belong to a different
    /// ring configuration.
    pub foreign_dropped: u64,
    /// Messages delivered with a service below Safe.
    pub delivered_agreed: u64,
    /// Messages delivered with Safe service.
    pub delivered_safe: u64,
    /// Messages garbage-collected.
    pub discarded: u64,
    /// Messages submitted by the application.
    pub submitted: u64,
    /// Submissions rejected because the send queue was full.
    pub submit_rejected: u64,
}

impl Stats {
    /// Total messages delivered at any service level.
    pub fn delivered_total(&self) -> u64 {
        self.delivered_agreed + self.delivered_safe
    }

    /// Adds every counter of `other` into `self`.
    ///
    /// Used to aggregate counters across participants of one ring, or
    /// across the rings of a multi-ring deployment.
    pub fn absorb(&mut self, other: &Stats) {
        self.tokens_processed += other.tokens_processed;
        self.stale_tokens_dropped += other.stale_tokens_dropped;
        self.messages_sent += other.messages_sent;
        self.retransmissions_sent += other.retransmissions_sent;
        self.retransmissions_requested += other.retransmissions_requested;
        self.messages_received += other.messages_received;
        self.duplicate_messages += other.duplicate_messages;
        self.foreign_dropped += other.foreign_dropped;
        self.delivered_agreed += other.delivered_agreed;
        self.delivered_safe += other.delivered_safe;
        self.discarded += other.discarded;
        self.submitted += other.submitted;
        self.submit_rejected += other.submit_rejected;
    }
}

/// Hot-path counters for a live transport node: datagram volume,
/// syscall batching efficiency and buffer-pool behaviour.
///
/// The `packet_path` microbench derives its headline numbers
/// (datagrams/sec, syscalls/datagram, average batch size) from these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotPathStats {
    /// Datagrams received.
    pub datagrams_rx: u64,
    /// Datagrams sent (counted per destination, after fanout).
    pub datagrams_tx: u64,
    /// `recv`-side syscalls issued (one `recvmmsg` counts once).
    pub syscalls_rx: u64,
    /// `send`-side syscalls issued (one `sendmmsg` counts once).
    pub syscalls_tx: u64,
    /// Buffer-pool acquisitions served from the free list.
    pub pool_hits: u64,
    /// Buffer-pool acquisitions that had to allocate.
    pub pool_misses: u64,
}

impl HotPathStats {
    /// Syscalls per datagram across both directions (the batching win:
    /// 1.0 with one syscall per datagram, below 0.25 at saturation with
    /// batches of 4+).
    pub fn syscalls_per_datagram(&self) -> f64 {
        let datagrams = self.datagrams_rx + self.datagrams_tx;
        if datagrams == 0 {
            return 0.0;
        }
        (self.syscalls_rx + self.syscalls_tx) as f64 / datagrams as f64
    }

    /// Average datagrams moved per syscall (the batch size actually
    /// achieved).
    pub fn datagrams_per_syscall(&self) -> f64 {
        let syscalls = self.syscalls_rx + self.syscalls_tx;
        if syscalls == 0 {
            return 0.0;
        }
        (self.datagrams_rx + self.datagrams_tx) as f64 / syscalls as f64
    }

    /// Adds every counter of `other` into `self` (aggregation across the
    /// nodes of a ring or the rings of a deployment).
    pub fn absorb(&mut self, other: &HotPathStats) {
        self.datagrams_rx += other.datagrams_rx;
        self.datagrams_tx += other.datagrams_tx;
        self.syscalls_rx += other.syscalls_rx;
        self.syscalls_tx += other.syscalls_tx;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
    }
}

/// Counters for the shared-memory intra-host datapath (the `ShmSocket`
/// lock-free SPSC ring backend; see DESIGN.md §15).
///
/// All zero when a node runs over UDP. Slots are the fixed-size ring
/// cells datagrams are published into; a datagram spanning `k` slots
/// counts `k` slots and one datagram. Doorbell counters track the
/// eventfd wakeup protocol: `doorbell_rings` is producer-side eventfd
/// writes (only issued when the consumer armed its wait), and
/// `doorbell_wakeups` is consumer-side drains that found a pending ring
/// — their ratio against `datagrams_consumed` is the shm analogue of
/// datagrams-per-syscall.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShmPathStats {
    /// Ring slots published by the send side (data + pad slots).
    pub slots_published: u64,
    /// Ring slots released by the receive side (data + pad slots).
    pub slots_consumed: u64,
    /// Datagrams published into rings.
    pub datagrams_published: u64,
    /// Datagrams drained out of rings.
    pub datagrams_consumed: u64,
    /// Producer-side eventfd writes (doorbell rung because the consumer
    /// had armed its idle wait).
    pub doorbell_rings: u64,
    /// Consumer-side wait preparations that drained a rung doorbell.
    pub doorbell_wakeups: u64,
    /// Datagrams dropped because the destination ring was full
    /// (backpressure surfaces as UDP-like loss, never as blocking).
    pub ring_full_drops: u64,
}

impl ShmPathStats {
    /// Datagrams drained per doorbell wakeup (batching achieved by the
    /// doorbell protocol; 0.0 when no wakeup occurred, e.g. a saturated
    /// consumer that never slept).
    pub fn datagrams_per_wakeup(&self) -> f64 {
        if self.doorbell_wakeups == 0 {
            return 0.0;
        }
        self.datagrams_consumed as f64 / self.doorbell_wakeups as f64
    }

    /// True when any shm traffic moved (distinguishes a UDP node's
    /// all-zero struct from an idle shm node's).
    pub fn active(&self) -> bool {
        self.datagrams_published != 0 || self.datagrams_consumed != 0 || self.ring_full_drops != 0
    }

    /// Adds every counter of `other` into `self` (aggregation across the
    /// nodes of a ring or the rings of a deployment).
    pub fn absorb(&mut self, other: &ShmPathStats) {
        self.slots_published += other.slots_published;
        self.slots_consumed += other.slots_consumed;
        self.datagrams_published += other.datagrams_published;
        self.datagrams_consumed += other.datagrams_consumed;
        self.doorbell_rings += other.doorbell_rings;
        self.doorbell_wakeups += other.doorbell_wakeups;
        self.ring_full_drops += other.ring_full_drops;
    }
}

/// Counters for an epoll-driven session frontend (one reactor serving
/// many client sessions; see DESIGN.md §12).
///
/// The `session_scaling` bench derives its headline numbers — events/sec,
/// shed rate, reactor syscalls per wakeup — from these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Sessions currently open (remote and in-process adapters).
    pub sessions_open: u64,
    /// Highest concurrent session count observed.
    pub sessions_peak: u64,
    /// HELLO frames accepted (fresh sessions).
    pub hellos: u64,
    /// HELLO frames that resumed an earlier session watermark.
    pub resumes: u64,
    /// Sessions closed (BYE, disconnect, or daemon shutdown).
    pub closes: u64,
    /// SUBMIT frames accepted and forwarded to the engine.
    pub submits: u64,
    /// SUBMIT frames dropped as duplicate retransmissions (session-level
    /// sequence dedup; ring-wide dedup is counted by the engines).
    pub submits_duplicate: u64,
    /// Session frames that failed to parse.
    pub bad_frames: u64,
    /// Events enqueued toward sessions (before credit gating).
    pub events_enqueued: u64,
    /// Event frames actually handed to sessions (sent or queued to an
    /// adapter channel).
    pub events_sent: u64,
    /// Events shed because one session's bounded queue was full.
    pub shed_slow_session: u64,
    /// Events shed because the frontend-wide queue budget was exhausted.
    pub shed_global_budget: u64,
    /// Events shed because their session closed while the event was in
    /// flight.
    pub shed_disconnect_race: u64,
    /// CREDIT frames processed (receiver-driven flow control grants).
    pub credits_granted: u64,
    /// Reactor wakeups the rings did not cause: returns from the daemon
    /// loop's wait that ran to the wait's deadline, or after which no
    /// ring node had input (a session datagram, a command). Token visits
    /// wake the loop by design and are not counted, so an idle daemon
    /// stays near zero while a fixed tick counts about once per tick.
    pub wakeups: u64,
    /// Syscalls issued on the session socket, both directions.
    pub syscalls: u64,
    /// Local-service query frames (SVC_QUERY) answered outside the
    /// ordered path — the KV read path rides these.
    pub svc_queries: u64,
}

impl FrontendStats {
    /// Total events shed across every cause.
    pub fn events_shed(&self) -> u64 {
        self.shed_slow_session + self.shed_global_budget + self.shed_disconnect_race
    }

    /// Session-socket syscalls per reactor wakeup (the batching win on
    /// the client-facing side: many frames move per syscall, many
    /// sessions are served per wakeup).
    pub fn syscalls_per_wakeup(&self) -> f64 {
        if self.wakeups == 0 {
            return 0.0;
        }
        self.syscalls as f64 / self.wakeups as f64
    }

    /// Adds every counter of `other` into `self` (gauges
    /// `sessions_open`/`sessions_peak` take the max instead).
    pub fn absorb(&mut self, other: &FrontendStats) {
        self.sessions_open = self.sessions_open.max(other.sessions_open);
        self.sessions_peak = self.sessions_peak.max(other.sessions_peak);
        self.hellos += other.hellos;
        self.resumes += other.resumes;
        self.closes += other.closes;
        self.submits += other.submits;
        self.submits_duplicate += other.submits_duplicate;
        self.bad_frames += other.bad_frames;
        self.events_enqueued += other.events_enqueued;
        self.events_sent += other.events_sent;
        self.shed_slow_session += other.shed_slow_session;
        self.shed_global_budget += other.shed_global_budget;
        self.shed_disconnect_race += other.shed_disconnect_race;
        self.credits_granted += other.credits_granted;
        self.wakeups += other.wakeups;
        self.syscalls += other.syscalls;
    }
}

/// Protocol counters broken out by ring index in a multi-ring
/// deployment.
///
/// Soak bins and the daemon report use this to attribute throughput and
/// delivery counts to the ring that ordered them, while [`total`]
/// collapses the breakdown for headline numbers.
///
/// [`total`]: PerRingStats::total
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PerRingStats {
    rings: Vec<Stats>,
}

impl PerRingStats {
    /// Counters pre-sized for `rings` rings (all zero).
    pub fn new(rings: usize) -> Self {
        Self {
            rings: vec![Stats::default(); rings],
        }
    }

    /// Number of rings tracked so far.
    pub fn rings(&self) -> usize {
        self.rings.len()
    }

    /// The counters for one ring, zero if the ring was never touched.
    pub fn ring(&self, ring: crate::mclock::RingIdx) -> Stats {
        self.rings.get(ring.as_usize()).copied().unwrap_or_default()
    }

    /// Mutable counters for one ring, growing the table on demand.
    pub fn ring_mut(&mut self, ring: crate::mclock::RingIdx) -> &mut Stats {
        let idx = ring.as_usize();
        if idx >= self.rings.len() {
            self.rings.resize(idx + 1, Stats::default());
        }
        &mut self.rings[idx]
    }

    /// Adds `other`'s counters into the matching rings of `self`.
    pub fn absorb(&mut self, other: &PerRingStats) {
        for (idx, stats) in other.rings.iter().enumerate() {
            self.ring_mut(crate::mclock::RingIdx::new(idx as u16))
                .absorb(stats);
        }
    }

    /// All rings' counters summed into one [`Stats`].
    pub fn total(&self) -> Stats {
        let mut sum = Stats::default();
        for s in &self.rings {
            sum.absorb(s);
        }
        sum
    }

    /// Iterates `(ring index, counters)` pairs in ring order.
    pub fn iter(&self) -> impl Iterator<Item = (crate::mclock::RingIdx, &Stats)> {
        self.rings
            .iter()
            .enumerate()
            .map(|(i, s)| (crate::mclock::RingIdx::new(i as u16), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = Stats::default();
        assert_eq!(s.tokens_processed, 0);
        assert_eq!(s.delivered_total(), 0);
    }

    #[test]
    fn delivered_total_sums_services() {
        let s = Stats {
            delivered_agreed: 3,
            delivered_safe: 4,
            ..Stats::default()
        };
        assert_eq!(s.delivered_total(), 7);
    }

    #[test]
    fn absorb_sums_every_counter() {
        let mut a = Stats {
            tokens_processed: 1,
            messages_sent: 2,
            delivered_agreed: 3,
            submit_rejected: 4,
            ..Stats::default()
        };
        let b = Stats {
            tokens_processed: 10,
            messages_sent: 20,
            delivered_safe: 30,
            submitted: 40,
            ..Stats::default()
        };
        a.absorb(&b);
        assert_eq!(a.tokens_processed, 11);
        assert_eq!(a.messages_sent, 22);
        assert_eq!(a.delivered_total(), 33);
        assert_eq!(a.submitted, 40);
        assert_eq!(a.submit_rejected, 4);
    }

    #[test]
    fn per_ring_stats_grow_and_total() {
        use crate::mclock::RingIdx;
        let mut per = PerRingStats::new(1);
        per.ring_mut(RingIdx::new(0)).delivered_agreed = 5;
        per.ring_mut(RingIdx::new(2)).delivered_agreed = 7;
        assert_eq!(per.rings(), 3);
        assert_eq!(per.ring(RingIdx::new(1)), Stats::default());
        assert_eq!(per.ring(RingIdx::new(9)), Stats::default());
        assert_eq!(per.total().delivered_agreed, 12);
        let labels: Vec<String> = per.iter().map(|(r, _)| r.to_string()).collect();
        assert_eq!(labels, ["ring0", "ring1", "ring2"]);
    }

    #[test]
    fn hot_path_ratios() {
        let hp = HotPathStats {
            datagrams_rx: 60,
            datagrams_tx: 40,
            syscalls_rx: 15,
            syscalls_tx: 10,
            ..HotPathStats::default()
        };
        assert!((hp.syscalls_per_datagram() - 0.25).abs() < 1e-9);
        assert!((hp.datagrams_per_syscall() - 4.0).abs() < 1e-9);
        assert_eq!(HotPathStats::default().syscalls_per_datagram(), 0.0);
        assert_eq!(HotPathStats::default().datagrams_per_syscall(), 0.0);
        // The shm steady state: datagrams flow with zero syscalls. Both
        // ratios must report 0, never NaN.
        let shm_shaped = HotPathStats {
            datagrams_rx: 500,
            datagrams_tx: 500,
            ..HotPathStats::default()
        };
        assert_eq!(shm_shaped.syscalls_per_datagram(), 0.0);
        assert_eq!(shm_shaped.datagrams_per_syscall(), 0.0);
        let mut sum = hp;
        sum.absorb(&hp);
        assert_eq!(sum.datagrams_rx, 120);
        assert_eq!(sum.syscalls_tx, 20);
    }

    #[test]
    fn shm_path_ratios() {
        let shm = ShmPathStats {
            slots_published: 130,
            slots_consumed: 130,
            datagrams_published: 100,
            datagrams_consumed: 100,
            doorbell_rings: 25,
            doorbell_wakeups: 25,
            ring_full_drops: 2,
        };
        assert!((shm.datagrams_per_wakeup() - 4.0).abs() < 1e-9);
        assert!(shm.active());
        assert_eq!(ShmPathStats::default().datagrams_per_wakeup(), 0.0);
        assert!(!ShmPathStats::default().active());
        let mut sum = shm;
        sum.absorb(&shm);
        assert_eq!(sum.datagrams_consumed, 200);
        assert_eq!(sum.ring_full_drops, 4);
        assert_eq!(sum.doorbell_rings, 50);
    }

    #[test]
    fn frontend_stats_totals_and_ratios() {
        let fs = FrontendStats {
            shed_slow_session: 2,
            shed_global_budget: 3,
            shed_disconnect_race: 5,
            wakeups: 4,
            syscalls: 10,
            ..FrontendStats::default()
        };
        assert_eq!(fs.events_shed(), 10);
        assert!((fs.syscalls_per_wakeup() - 2.5).abs() < 1e-9);
        assert_eq!(FrontendStats::default().syscalls_per_wakeup(), 0.0);
        let mut sum = fs;
        sum.absorb(&FrontendStats {
            sessions_open: 7,
            sessions_peak: 9,
            submits: 1,
            ..FrontendStats::default()
        });
        assert_eq!(sum.sessions_open, 7);
        assert_eq!(sum.sessions_peak, 9);
        assert_eq!(sum.submits, 1);
        assert_eq!(sum.events_shed(), 10);
    }

    #[test]
    fn per_ring_absorb_aligns_by_ring() {
        use crate::mclock::RingIdx;
        let mut a = PerRingStats::new(2);
        a.ring_mut(RingIdx::new(0)).submitted = 1;
        let mut b = PerRingStats::new(3);
        b.ring_mut(RingIdx::new(0)).submitted = 2;
        b.ring_mut(RingIdx::new(2)).submitted = 3;
        a.absorb(&b);
        assert_eq!(a.ring(RingIdx::new(0)).submitted, 3);
        assert_eq!(a.ring(RingIdx::new(2)).submitted, 3);
        assert_eq!(a.total().submitted, 6);
    }
}
