//! Counters read from outside the program: the public transport and
//! frontend counters of every daemon plus `/proc/self`, snapshotted at the
//! edges of the measured window and differenced.

use accelring_core::FrontendStats;
use accelring_transport::TransportStats;

use crate::deploy::Deployment;

/// Declares the counter set once so snapshot, delta and test agree on it.
macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Every counter the benchmark reads, summed over all daemons (and,
        /// for transport counters, over every ring node of each daemon).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            /// `self − earlier`, counter by counter. Saturating: a counter
            /// that went backwards (it cannot, but a torn read could) reads
            /// as 0 rather than wrapping.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters {
                    $($field: self.$field.saturating_sub(earlier.$field),)*
                }
            }
        }
    };
}

counters!(
    datagrams_rx,
    datagrams_tx,
    syscalls,
    pool_hits,
    pool_misses,
    ring_payloads,
    submissions_shed,
    decode_failures,
    send_errors,
    shm_datagrams,
    shm_wakeups,
    fe_wakeups,
    fe_syscalls,
    fe_submits,
    fe_svc_queries,
    fe_bad_frames,
    shed_slow,
    shed_budget,
    shed_race,
    cpu_ticks,
    ctx_switches,
);

impl Counters {
    fn add_transport(&mut self, t: &TransportStats) {
        self.datagrams_rx += t.hot.datagrams_rx;
        self.datagrams_tx += t.hot.datagrams_tx;
        self.syscalls += t.hot.syscalls_rx + t.hot.syscalls_tx;
        self.pool_hits += t.hot.pool_hits;
        self.pool_misses += t.hot.pool_misses;
        self.ring_payloads += t.submissions;
        self.submissions_shed += t.submissions_shed;
        self.decode_failures += t.decode_failures;
        self.send_errors += t.send_errors;
        self.shm_datagrams += t.shm.datagrams_consumed;
        self.shm_wakeups += t.shm.doorbell_wakeups;
    }

    fn add_frontend(&mut self, f: &FrontendStats) {
        self.fe_wakeups += f.wakeups;
        self.fe_syscalls += f.syscalls;
        self.fe_submits += f.submits;
        self.fe_svc_queries += f.svc_queries;
        self.fe_bad_frames += f.bad_frames;
        self.shed_slow += f.shed_slow_session;
        self.shed_budget += f.shed_global_budget;
        self.shed_race += f.shed_disconnect_race;
    }

    /// Client-bound events shed, every cause together.
    pub fn events_shed(&self) -> u64 {
        self.shed_slow + self.shed_budget + self.shed_race
    }
}

/// Reads every counter of a running deployment and of this process.
pub fn snapshot(d: &Deployment) -> Counters {
    let mut c = Counters::default();
    for probe in &d.probes {
        c.add_transport(&probe.stats());
    }
    for daemon in &d.daemons {
        c.add_frontend(&daemon.frontend_stats());
    }
    let proc = proc_self();
    c.cpu_ticks = proc.cpu_ticks;
    c.ctx_switches = proc.ctx_switches;
    c
}

/// Highest configuration epoch each daemon has seen (0 for a daemon that
/// already stopped).
pub fn epochs(d: &Deployment) -> Vec<u64> {
    d.daemons
        .iter()
        .map(|m| m.inspect().map_or(0, |i| i.max_epoch))
        .collect()
}

/// Kernel clock ticks per second for `/proc/self/stat` CPU times (the
/// Linux ABI value; `sysconf` is not reachable without libc).
pub const CLK_TCK: f64 = 100.0;

/// What `/proc/self` says about this process.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSelf {
    /// User plus system CPU of every thread, in [`CLK_TCK`] ticks.
    pub cpu_ticks: u64,
    /// Voluntary plus involuntary context switches of every live thread.
    pub ctx_switches: u64,
    pub threads: u64,
    /// Resident set size, KiB.
    pub rss_kib: u64,
}

/// Reads `/proc/self/stat`, `/proc/self/status` and each thread's status
/// (the process-level status file counts only the main thread's context
/// switches). Missing files read as zeros.
pub fn proc_self() -> ProcSelf {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is the first,
    // utime the 12th and stime the 13th.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let mut ctx_switches = 0;
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let s = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
            ctx_switches += status_field(&s, "voluntary_ctxt_switches")
                + status_field(&s, "nonvoluntary_ctxt_switches");
        }
    }
    ProcSelf {
        cpu_ticks: tick(11) + tick(12),
        ctx_switches,
        threads: status_field(&status, "Threads"),
        rss_kib: status_field(&status, "VmRSS"),
    }
}

/// The leading number of a `Name:  value [unit]` line of a status file.
fn status_field(status: &str, name: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_is_per_counter_and_saturating() {
        let before = Counters {
            datagrams_tx: 10,
            fe_wakeups: 5,
            cpu_ticks: 7,
            ..Counters::default()
        };
        let after = Counters {
            datagrams_tx: 25,
            fe_wakeups: 5,
            cpu_ticks: 3,
            shed_race: 2,
            ..Counters::default()
        };
        let d = after.since(&before);
        assert_eq!(d.datagrams_tx, 15);
        assert_eq!(d.fe_wakeups, 0);
        assert_eq!(d.cpu_ticks, 0, "a counter read lower later saturates");
        assert_eq!(d.shed_race, 2);
        assert_eq!(d.events_shed(), 2);
        assert_eq!(after.since(&after), Counters::default());
    }

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nThreads:\t12\nVmRSS:\t  2048 kB\nvoluntary_ctxt_switches:\t5\n\
                 nonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(s, "Threads"), 12);
        assert_eq!(status_field(s, "VmRSS"), 2048);
        assert_eq!(status_field(s, "voluntary_ctxt_switches"), 5);
        assert_eq!(status_field(s, "nonvoluntary_ctxt_switches"), 3);
        assert_eq!(status_field(s, "VmHWM"), 0);
    }

    #[test]
    fn proc_self_reads_this_process() {
        let p = proc_self();
        assert!(p.threads >= 1);
        assert!(p.rss_kib > 0);
    }
}
