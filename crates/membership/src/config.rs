//! Membership timing parameters.

use std::fmt;

/// Timeouts governing failure detection and membership formation, in
/// nanoseconds of whatever clock the runtime feeds the daemon (simulated or
/// wall time).
///
/// The defaults suit the simulator's microsecond-scale rings; real UDP
/// deployments should scale them up (see [`MembershipConfig::for_wall_clock`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipConfig {
    /// No token for this long in Operational state ⇒ assume the ring is
    /// broken and start forming a new membership.
    pub token_loss_timeout: u64,
    /// After sending the token, retransmit it if no successor activity is
    /// seen for this long (recovers isolated token loss without a full
    /// membership change).
    pub token_retransmit_timeout: u64,
    /// Rebroadcast our join message at this interval while gathering.
    pub join_interval: u64,
    /// Processes that have not answered with a join within this long are
    /// added to the fail set.
    pub consensus_timeout: u64,
    /// A commit token missing for this long aborts the attempt and
    /// regathers.
    pub commit_timeout: u64,
    /// Recovery barrier not completed within this long ⇒ regather.
    pub recovery_timeout: u64,
    /// Operational daemons broadcast a presence beacon at this interval so
    /// partitioned-but-idle rings can discover each other and merge.
    pub presence_interval: u64,
    /// Joins are collected for this long (and until the sets stop
    /// changing) before consensus is evaluated on a formation that lacks
    /// part of the address book — a participant failed, silent or not
    /// yet heard from — so that in-flight join rebroadcasts cannot race
    /// it back into Gather. A gather that every participant of the
    /// address book answers with the same sets forms at once, without
    /// this wait; a graceful leave still costs one settle plus a
    /// consensus round.
    pub gather_settle: u64,
}

impl MembershipConfig {
    /// Defaults tuned for simulated time (microsecond-scale token rounds).
    pub fn for_simulation() -> MembershipConfig {
        MembershipConfig {
            token_loss_timeout: 3_000_000,       // 3 ms
            token_retransmit_timeout: 1_000_000, // 1 ms
            join_interval: 1_000_000,            // 1 ms
            consensus_timeout: 5_000_000,        // 5 ms
            commit_timeout: 5_000_000,           // 5 ms
            recovery_timeout: 20_000_000,        // 20 ms
            presence_interval: 2_000_000,        // 2 ms
            gather_settle: 1_000_000,            // 1 ms
        }
    }

    /// Defaults for real networks (milliseconds-scale, comparable to
    /// Spread's defaults).
    pub fn for_wall_clock() -> MembershipConfig {
        MembershipConfig {
            token_loss_timeout: 700_000_000,       // 700 ms
            token_retransmit_timeout: 150_000_000, // 150 ms
            join_interval: 100_000_000,            // 100 ms
            consensus_timeout: 1_000_000_000,      // 1 s
            commit_timeout: 1_000_000_000,         // 1 s
            recovery_timeout: 5_000_000_000,       // 5 s
            presence_interval: 500_000_000,        // 500 ms
            gather_settle: 200_000_000,            // 200 ms
        }
    }

    /// Scales every timeout by an integer factor (useful for stress tests).
    pub fn scaled(mut self, factor: u64) -> MembershipConfig {
        self.token_loss_timeout *= factor;
        self.token_retransmit_timeout *= factor;
        self.join_interval *= factor;
        self.consensus_timeout *= factor;
        self.commit_timeout *= factor;
        self.recovery_timeout *= factor;
        self.presence_interval *= factor;
        self.gather_settle *= factor;
        self
    }
}

impl Default for MembershipConfig {
    fn default() -> Self {
        MembershipConfig::for_simulation()
    }
}

impl fmt::Display for MembershipConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "token-loss {}ns, retransmit {}ns, join {}ns, consensus {}ns",
            self.token_loss_timeout,
            self.token_retransmit_timeout,
            self.join_interval,
            self.consensus_timeout
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_ordered_sensibly() {
        let c = MembershipConfig::for_simulation();
        assert!(c.token_retransmit_timeout < c.token_loss_timeout);
        assert!(c.join_interval <= c.consensus_timeout);
        assert!(c.recovery_timeout >= c.commit_timeout);
    }

    #[test]
    fn wall_clock_is_slower() {
        let sim = MembershipConfig::for_simulation();
        let wall = MembershipConfig::for_wall_clock();
        assert!(wall.token_loss_timeout > sim.token_loss_timeout);
    }

    #[test]
    fn scaling() {
        let c = MembershipConfig::for_simulation().scaled(2);
        assert_eq!(
            c.token_loss_timeout,
            MembershipConfig::for_simulation().token_loss_timeout * 2
        );
    }

    #[test]
    fn display_nonempty() {
        assert!(!MembershipConfig::default().to_string().is_empty());
    }
}
