//! Drives a membership cluster through a seeded fault schedule and
//! checks the EVS invariants afterwards.
//!
//! [`run_chaos`] is the whole harness: generate the [`FaultSchedule`]
//! for the seed, stand up a [`Cluster`] with the fault-injecting
//! [`ChaosNetHook`] installed, replay the schedule while a steady tagged
//! workload flows, then heal everything, let the cluster quiesce, send
//! probe messages, and hand the journals to [`checker::check`]. The
//! whole run is deterministic in the seed: a violation report carries
//! `seed` plus the compact fault trace, and re-running with the same
//! seed replays the identical execution.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;

use accelring_core::{ProtocolConfig, Service};
use accelring_membership::testing::Cluster;
use accelring_membership::MembershipConfig;
use accelring_sim::LossSpec;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checker::{self, CheckerInput, MsgId, Violation};
use crate::hook::{ChaosNetHook, NetKnobs};
use crate::schedule::{FaultKind, FaultSchedule, ScheduleConfig};

/// Everything one chaos run needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Number of daemons.
    pub nodes: u16,
    /// The seed; determines the schedule, the workload, and every
    /// injected fault.
    pub seed: u64,
    /// Fault-schedule shape.
    pub schedule: ScheduleConfig,
    /// Virtual-time gap between workload submissions (ns).
    pub submit_gap_ns: u64,
    /// Quiescence window after the final heal (ns).
    pub settle_ns: u64,
}

impl ChaosConfig {
    /// A fast configuration for the default test suite.
    pub fn smoke(seed: u64) -> ChaosConfig {
        let nodes = 5;
        ChaosConfig {
            nodes,
            seed,
            schedule: ScheduleConfig::smoke(nodes as usize),
            submit_gap_ns: 700_000,
            settle_ns: 400_000_000,
        }
    }

    /// The acceptance-criteria soak shape: `nodes` daemons, `events`
    /// scheduled faults.
    pub fn soak(seed: u64, nodes: u16, events: usize) -> ChaosConfig {
        ChaosConfig {
            nodes,
            seed,
            schedule: ScheduleConfig::soak(nodes as usize, events),
            submit_gap_ns: 500_000,
            settle_ns: 500_000_000,
        }
    }
}

/// Aggregate counters from one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Fault events applied (inapplicable ones skipped, e.g. crashing an
    /// already-crashed token holder).
    pub events_applied: u64,
    /// Workload messages accepted by daemons.
    pub submitted: u64,
    /// Workload submissions rejected with backpressure.
    pub backpressured: u64,
    /// Total deliveries journaled across all nodes.
    pub delivered: u64,
    /// Ring formations summed over all daemons.
    pub rings_formed: u64,
    /// Tokens held by the leaders of resting rings, summed over all
    /// daemons (last incarnations).
    pub token_holds: u64,
    /// Wakes sent to ring leaders, summed over all daemons (last
    /// incarnations).
    pub wakes_sent: u64,
    /// Virtual time at the end of the run (ns).
    pub end_ns: u64,
}

/// The outcome of a chaos run: violations (hopefully none), stats, and
/// the replayable trace.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The seed that reproduces this run.
    pub seed: u64,
    /// The schedule that was replayed.
    pub schedule: FaultSchedule,
    /// Invariant violations found by the checker.
    pub violations: Vec<Violation>,
    /// Aggregate counters.
    pub stats: ChaosStats,
}

impl ChaosReport {
    /// True when the run was EVS-clean.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the report; on violation this includes the seed and the
    /// compact fault trace needed to replay the run.
    pub fn render(&self) -> String {
        let mut out = format!(
            "chaos seed={}: {} events applied, {} submitted ({} backpressured), \
             {} delivered, {} rings formed, {} token holds, {} wakes, {:.1}ms virtual\n",
            self.seed,
            self.stats.events_applied,
            self.stats.submitted,
            self.stats.backpressured,
            self.stats.delivered,
            self.stats.rings_formed,
            self.stats.token_holds,
            self.stats.wakes_sent,
            self.stats.end_ns as f64 / 1e6,
        );
        if self.ok() {
            out.push_str("all EVS invariants hold\n");
        } else {
            out.push_str(&format!(
                "{} INVARIANT VIOLATION(S) — replay with --seed {}\n",
                self.violations.len(),
                self.seed
            ));
            for v in &self.violations {
                out.push_str(&format!("  {v}\n"));
            }
            out.push_str("fault trace:\n");
            out.push_str(&self.schedule.trace());
        }
        out
    }
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Runs one seeded chaos scenario end to end and returns the report.
pub fn run_chaos(cfg: ChaosConfig) -> ChaosReport {
    let (input, schedule, mut stats) = execute(cfg);
    stats.delivered = input
        .journals
        .iter()
        .flatten()
        .filter(|e| matches!(e, accelring_membership::testing::NodeEvent::Delivered(_)))
        .count() as u64;
    let violations = checker::check(&input);
    ChaosReport {
        seed: cfg.seed,
        schedule,
        violations,
        stats,
    }
}

/// Runs the scenario but returns the raw [`CheckerInput`] instead of
/// checking it — the hook the broken-journal fixtures in the test suite
/// use to prove the checker actually fires.
pub fn run_to_input(cfg: ChaosConfig) -> (CheckerInput, FaultSchedule) {
    let (input, schedule, _) = execute(cfg);
    (input, schedule)
}

/// Replays an explicit — possibly transformed — schedule instead of
/// generating one from `cfg.seed`, and returns the raw checker input
/// plus run counters. This is the entry point the multi-ring chaos
/// harness uses: it shields its merged-stream observers with
/// [`FaultSchedule::shield`] and splices in ring-targeted faults before
/// replaying each ring.
///
/// `cfg.seed` still seeds the workload and the network hook, so the run
/// remains fully deterministic in `(cfg, schedule)`.
pub fn run_schedule_to_input(
    cfg: ChaosConfig,
    schedule: &FaultSchedule,
) -> (CheckerInput, ChaosStats) {
    let (input, _, stats) = execute_schedule(cfg, schedule.clone());
    (input, stats)
}

fn execute(cfg: ChaosConfig) -> (CheckerInput, FaultSchedule, ChaosStats) {
    execute_schedule(cfg, FaultSchedule::generate(cfg.seed, cfg.schedule))
}

fn execute_schedule(
    cfg: ChaosConfig,
    schedule: FaultSchedule,
) -> (CheckerInput, FaultSchedule, ChaosStats) {
    let n = cfg.nodes as usize;
    let knobs = Rc::new(RefCell::new(NetKnobs::quiet()));
    let mut cluster = Cluster::new(
        cfg.nodes,
        ProtocolConfig::default(),
        MembershipConfig::for_simulation(),
    );
    cluster.set_net_hook(Box::new(ChaosNetHook::new(cfg.seed, n, Rc::clone(&knobs))));

    let mut wl_rng = StdRng::seed_from_u64(cfg.seed ^ 0x0077_0B10_AD00_0001);
    let mut counters = vec![0u64; n];
    let mut submitted: BTreeSet<MsgId> = BTreeSet::new();
    let mut marks: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut stats = ChaosStats::default();

    // Let the initial ring form before the first fault or submission.
    // (The schedule's own warmup, in case it was built from a different
    // shape than `cfg.schedule`.)
    cluster.run_for(schedule.config.warmup_ns);
    let mut next_submit = cluster.now() + cfg.submit_gap_ns;

    for event in &schedule.events {
        // Interleave the steady workload with fault injection.
        while next_submit <= event.at {
            let gap = next_submit.saturating_sub(cluster.now());
            cluster.run_for(gap);
            submit_one(
                &mut cluster,
                &mut wl_rng,
                &mut counters,
                &mut submitted,
                &mut stats,
            );
            next_submit += cfg.submit_gap_ns;
        }
        cluster.run_for(event.at.saturating_sub(cluster.now()));
        apply_fault(&event.kind, &mut cluster, &knobs, &mut marks, &mut stats);
    }

    // Final heal: undo every standing fault and let the cluster settle.
    {
        let mut k = knobs.borrow_mut();
        k.set_loss(LossSpec::None);
        k.set_churn(0.0, 0.0, 0);
    }
    cluster.heal();
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        if cluster.is_paused(i) {
            cluster.resume(i);
        }
        if cluster.is_crashed(i) {
            marks[i].push(cluster.journal(i).len());
            cluster.restart(i);
        }
    }
    cluster.drop_next_tokens(0);
    // Reconvergence can need several membership rounds after a long
    // fault history; give it bounded extra settle windows.
    cluster.run_for(cfg.settle_ns);
    for _ in 0..10 {
        if cluster.all_operational() && cluster.ring_of(0).len() == n {
            break;
        }
        cluster.run_for(cfg.settle_ns);
    }

    // Post-quiescence probes: one message per node, delivered everywhere,
    // demonstrates self-delivery and that the healed ring orders traffic.
    let mut probes = Vec::with_capacity(n);
    #[allow(clippy::needless_range_loop)]
    for node in 0..n {
        counters[node] += 1;
        let id = MsgId {
            sender: node as u16,
            counter: counters[node],
        };
        if cluster
            .try_submit(node, Bytes::from(id.payload()), Service::Safe)
            .is_ok()
        {
            submitted.insert(id);
            probes.push(id);
            stats.submitted += 1;
        } else {
            stats.backpressured += 1;
        }
    }
    cluster.run_for(cfg.settle_ns);

    stats.rings_formed = (0..n).map(|i| cluster.node(i).stats().rings_formed).sum();
    stats.token_holds = (0..n).map(|i| cluster.node(i).stats().token_holds).sum();
    stats.wakes_sent = (0..n).map(|i| cluster.node(i).stats().wakes_sent).sum();
    stats.end_ns = cluster.now();

    let input = CheckerInput {
        nodes: n,
        journals: (0..n).map(|i| cluster.journal(i).to_vec()).collect(),
        submitted,
        incarnation_marks: marks,
        probes,
        all_operational: cluster.all_operational(),
        final_rings: (0..n).map(|i| cluster.ring_of(i)).collect(),
    };
    (input, schedule, stats)
}

fn submit_one(
    cluster: &mut Cluster,
    rng: &mut StdRng,
    counters: &mut [u64],
    submitted: &mut BTreeSet<MsgId>,
    stats: &mut ChaosStats,
) {
    let n = counters.len();
    let live: Vec<usize> = (0..n).filter(|&i| !cluster.is_crashed(i)).collect();
    if live.is_empty() {
        return;
    }
    let node = live[rng.random_range(0..live.len())];
    counters[node] += 1;
    let id = MsgId {
        sender: node as u16,
        counter: counters[node],
    };
    let service = if rng.random_bool(0.25) {
        Service::Safe
    } else {
        Service::Agreed
    };
    match cluster.try_submit(node, Bytes::from(id.payload()), service) {
        Ok(()) => {
            submitted.insert(id);
            stats.submitted += 1;
        }
        Err(_) => stats.backpressured += 1,
    }
}

fn apply_fault(
    kind: &FaultKind,
    cluster: &mut Cluster,
    knobs: &Rc<RefCell<NetKnobs>>,
    marks: &mut [Vec<usize>],
    stats: &mut ChaosStats,
) {
    match kind {
        FaultKind::Crash(i) => {
            if !cluster.is_crashed(*i) && live_count(cluster) > 1 {
                cluster.crash(*i);
                stats.events_applied += 1;
            }
        }
        FaultKind::CrashTokenHolder => {
            if let Some((_, holder)) = cluster.last_token_route() {
                if !cluster.is_crashed(holder) && live_count(cluster) > 1 {
                    cluster.crash(holder);
                    stats.events_applied += 1;
                }
            }
        }
        FaultKind::Restart(i) => {
            if cluster.is_crashed(*i) {
                marks[*i].push(cluster.journal(*i).len());
                cluster.restart(*i);
                stats.events_applied += 1;
            }
        }
        FaultKind::Partition(groups) => {
            let groups: Vec<&[usize]> = groups.iter().map(|g| g.as_slice()).collect();
            cluster.partition(&groups);
            stats.events_applied += 1;
        }
        FaultKind::Heal => {
            cluster.heal();
            stats.events_applied += 1;
        }
        FaultKind::TokenBurst(k) => {
            cluster.drop_next_tokens(*k);
            stats.events_applied += 1;
        }
        FaultKind::Pause(i) => {
            if !cluster.is_crashed(*i) && !cluster.is_paused(*i) && live_count(cluster) > 1 {
                cluster.pause(*i);
                stats.events_applied += 1;
            }
        }
        FaultKind::Resume(i) => {
            if cluster.is_paused(*i) {
                cluster.resume(*i);
                stats.events_applied += 1;
            }
        }
        FaultKind::SetLoss {
            data_rate,
            token_rate,
        } => {
            knobs
                .borrow_mut()
                .set_loss(LossSpec::chaos(*data_rate, *token_rate));
            stats.events_applied += 1;
        }
        FaultKind::SetChurn {
            dup_rate,
            reorder_rate,
            max_extra_delay_ns,
        } => {
            knobs
                .borrow_mut()
                .set_churn(*dup_rate, *reorder_rate, *max_extra_delay_ns);
            stats.events_applied += 1;
        }
    }
}

fn live_count(cluster: &Cluster) -> usize {
    (0..cluster.len())
        .filter(|&i| !cluster.is_crashed(i) && !cluster.is_paused(i))
        .count()
}
