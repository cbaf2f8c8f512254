//! Multi-ring chaos: R independent seeded chaos runs plus the
//! cross-ring order-agreement invariant over the merged streams.
//!
//! Each ring is a full `accelring-chaos` scenario — its own virtual-time
//! cluster, its own seeded [`FaultSchedule`] — so faults are inherently
//! ring-targeted: a partition on ring 0 never perturbs ring 1, exactly
//! like partitioning one shard's daemon group in a real deployment. On
//! top of the generated schedules the harness splices in the two faults
//! the acceptance criteria call out by name: a partition of ring 0 and a
//! daemon kill (crash + restart) on the last ring.
//!
//! Two designated observer nodes are [shielded](FaultSchedule::shield)
//! on every ring: they keep complete journals, stay together through
//! every partition, and never crash. After the per-ring EVS check, each
//! observer's R journals are folded through the deterministic [`Merger`]
//! by round — regular configurations queue a fence, exactly as
//! [`crate::engine::MultiRingEngine`] does live — and the two merged
//! streams are handed to
//! [`accelring_chaos::checker::check_cross_ring_agreement`]. Every
//! ring's membership runs on the virtual clock, so its leader paces
//! rounds by virtual time, and each commit token carries its members'
//! highest round, so rounds never fall within a ring across
//! configurations. A message's merge slot is then its own round,
//! identical at every observer even when the observers' own
//! configuration histories diverged around it (e.g. one briefly dropped
//! to a singleton view the other never saw).

use accelring_chaos::checker::{self, MsgId, RingMsg, Violation};
use accelring_chaos::runner::{run_schedule_to_input, ChaosConfig, ChaosStats};
use accelring_chaos::schedule::{FaultEvent, FaultKind, FaultSchedule, ScheduleConfig};
use accelring_core::RingIdx;
use accelring_membership::testing::NodeEvent;

use crate::merge::{MergedEntry, Merger};

/// The two journal-keeping observer nodes every ring shields.
pub const OBSERVERS: [usize; 2] = [0, 1];

/// Configuration of one multi-ring chaos run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiRingChaosConfig {
    /// Number of independent rings.
    pub rings: u16,
    /// Daemons per ring.
    pub nodes_per_ring: u16,
    /// Base seed; each ring derives its own schedule and workload seed.
    pub seed: u64,
    /// Fault events generated per ring (before the spliced-in
    /// ring-targeted faults).
    pub events: usize,
}

impl MultiRingChaosConfig {
    /// A fast two-ring configuration for the default test suite.
    pub fn smoke(seed: u64) -> MultiRingChaosConfig {
        MultiRingChaosConfig {
            rings: 2,
            nodes_per_ring: 5,
            seed,
            events: 90,
        }
    }
}

/// The outcome of a multi-ring chaos run.
#[derive(Debug, Clone)]
pub struct MultiRingReport {
    /// The base seed that reproduces the run.
    pub seed: u64,
    /// Number of rings driven.
    pub rings: u16,
    /// All violations: per-ring EVS violations (detail prefixed with the
    /// ring) plus cross-ring order disagreements.
    pub violations: Vec<Violation>,
    /// Per-ring chaos run counters.
    pub per_ring_stats: Vec<ChaosStats>,
    /// Length of each observer's merged stream (must be > 0 for the
    /// cross-ring check to have teeth).
    pub merged_lens: Vec<usize>,
}

impl MultiRingReport {
    /// True when every invariant — per-ring EVS and cross-ring order —
    /// held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders a human-readable summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "multiring chaos seed={} rings={}: merged streams {:?}\n",
            self.seed, self.rings, self.merged_lens
        );
        for (k, s) in self.per_ring_stats.iter().enumerate() {
            out.push_str(&format!(
                "  ring{k}: {} events applied, {} submitted, {} delivered\n",
                s.events_applied, s.submitted, s.delivered
            ));
        }
        if self.ok() {
            out.push_str("all per-ring EVS and cross-ring order invariants hold\n");
        } else {
            out.push_str(&format!(
                "{} INVARIANT VIOLATION(S) — replay with seed {}\n",
                self.violations.len(),
                self.seed
            ));
            for v in &self.violations {
                out.push_str(&format!("  {v}\n"));
            }
        }
        out
    }
}

/// Per-ring seed derivation (golden-ratio salted, like the scaling
/// harness) so rings run uncorrelated schedules and workloads.
fn ring_seed(base: u64, ring: u16) -> u64 {
    base ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(ring) + 1))
}

/// Builds ring `k`'s schedule: generated from the ring seed, observer
/// nodes shielded, and the acceptance-criteria faults spliced in — a
/// partition on ring 0, a daemon kill and later restart on the last
/// ring.
fn ring_schedule(cfg: &MultiRingChaosConfig, shape: ScheduleConfig, ring: u16) -> FaultSchedule {
    let mut schedule = FaultSchedule::generate(ring_seed(cfg.seed, ring), shape).shield(&OBSERVERS);
    let n = cfg.nodes_per_ring as usize;
    let at0 = shape.warmup_ns + 1;
    if ring == 0 {
        // Ring-targeted partition: observers together in the majority
        // side, the tail nodes split off. Only ring 0 sees it.
        let split = n.div_ceil(2).max(OBSERVERS.len() + 1).min(n - 1);
        schedule.events.push(FaultEvent {
            at: at0,
            kind: FaultKind::Partition(vec![(0..split).collect(), (split..n).collect()]),
        });
        schedule.events.push(FaultEvent {
            at: at0 + 20_000_000,
            kind: FaultKind::Heal,
        });
    }
    if ring == cfg.rings - 1 && cfg.rings > 1 {
        // Daemon kill on one ring: crash the last (unshielded) daemon
        // and bring it back as a fresh incarnation.
        schedule.events.push(FaultEvent {
            at: at0,
            kind: FaultKind::Crash(n - 1),
        });
        schedule.events.push(FaultEvent {
            at: at0 + 25_000_000,
            kind: FaultKind::Restart(n - 1),
        });
    }
    schedule.events.sort_by_key(|e| e.at);
    schedule
}

/// Folds one observer's per-ring journals through the deterministic
/// merge and returns the merged `(ring, msg)` stream. Regular
/// configurations queue a fence; transitional configurations and
/// unparseable payloads are skipped — they carry no order of their own.
fn merged_stream(journals: &[&[NodeEvent]], rings: u16) -> Vec<RingMsg> {
    // Fences need a placeholder item; it never reaches the stream.
    const FENCE: RingMsg = (
        u16::MAX,
        MsgId {
            sender: u16::MAX,
            counter: 0,
        },
    );
    let mut merger: Merger<RingMsg> = Merger::new(rings);
    let mut stream = Vec::new();
    let release = |entries: Vec<MergedEntry<RingMsg>>, stream: &mut Vec<RingMsg>| {
        for entry in entries {
            if let MergedEntry::Item { item, .. } = entry {
                stream.push(item);
            }
        }
    };
    for (k, journal) in journals.iter().enumerate() {
        let ring = RingIdx::new(k as u16);
        for ev in *journal {
            match ev {
                NodeEvent::Delivered(d) => {
                    if let Some(id) = MsgId::parse(&d.payload) {
                        release(merger.push(ring, d.round, (k as u16, id)), &mut stream);
                    }
                }
                NodeEvent::Config(c) => {
                    if !c.transitional {
                        release(merger.push_fence(ring, FENCE), &mut stream);
                    }
                }
            }
        }
    }
    release(merger.finish(), &mut stream);
    stream
}

/// Runs one multi-ring chaos scenario: R shielded per-ring chaos runs
/// (with the ring-targeted partition and daemon kill spliced in), the
/// full per-ring EVS check, and the cross-ring order-agreement check
/// over both observers' merged streams.
pub fn run_multiring_chaos(cfg: MultiRingChaosConfig) -> MultiRingReport {
    assert!(cfg.rings >= 1);
    assert!(cfg.nodes_per_ring as usize > OBSERVERS.len());
    let n = cfg.nodes_per_ring as usize;
    let mut shape = ScheduleConfig::smoke(n);
    shape.events = cfg.events;

    let mut violations = Vec::new();
    let mut per_ring_stats = Vec::with_capacity(cfg.rings as usize);
    let mut inputs = Vec::with_capacity(cfg.rings as usize);
    for k in 0..cfg.rings {
        let schedule = ring_schedule(&cfg, shape, k);
        let ring_cfg = ChaosConfig {
            nodes: cfg.nodes_per_ring,
            seed: ring_seed(cfg.seed, k),
            schedule: shape,
            submit_gap_ns: 700_000,
            settle_ns: 400_000_000,
        };
        let (input, mut stats) = run_schedule_to_input(ring_cfg, &schedule);
        stats.delivered = input
            .journals
            .iter()
            .flatten()
            .filter(|e| matches!(e, NodeEvent::Delivered(_)))
            .count() as u64;
        violations.extend(checker::check(&input).into_iter().map(|v| Violation {
            invariant: v.invariant,
            detail: format!("ring{k}: {}", v.detail),
        }));
        per_ring_stats.push(stats);
        inputs.push(input);
    }

    // Fold each observer's R journals through the deterministic merge.
    let mut observers = Vec::with_capacity(OBSERVERS.len());
    let mut merged_lens = Vec::with_capacity(OBSERVERS.len());
    for &node in &OBSERVERS {
        let journals: Vec<&[NodeEvent]> = inputs
            .iter()
            .map(|input| input.journals[node].as_slice())
            .collect();
        let stream = merged_stream(&journals, cfg.rings);
        merged_lens.push(stream.len());
        observers.push((node, stream));
    }
    violations.extend(checker::check_cross_ring_agreement(&observers));

    MultiRingReport {
        seed: cfg.seed,
        rings: cfg.rings,
        violations,
        per_ring_stats,
        merged_lens,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_clean_and_nonempty() {
        let report = run_multiring_chaos(MultiRingChaosConfig::smoke(1));
        assert!(report.ok(), "{}", report.render());
        assert!(report.merged_lens.iter().all(|&l| l > 0));
        assert_eq!(report.per_ring_stats.len(), 2);
        // The spliced-in ring-targeted faults must actually have fired.
        for s in &report.per_ring_stats {
            assert!(s.events_applied > 0);
        }
    }

    #[test]
    fn run_is_deterministic_in_the_seed() {
        let a = run_multiring_chaos(MultiRingChaosConfig::smoke(7));
        let b = run_multiring_chaos(MultiRingChaosConfig::smoke(7));
        assert_eq!(a.merged_lens, b.merged_lens);
        assert_eq!(a.per_ring_stats, b.per_ring_stats);
        assert_eq!(a.violations.len(), b.violations.len());
    }

    #[test]
    fn cross_ring_checker_fires_on_a_swapped_stream() {
        // Sanity: the invariant is not vacuously true. Give two
        // observers the same entries in different relative order.
        let a = vec![
            (
                0u16,
                MsgId {
                    sender: 2,
                    counter: 1,
                },
            ),
            (
                1u16,
                MsgId {
                    sender: 3,
                    counter: 1,
                },
            ),
        ];
        let mut b = a.clone();
        b.swap(0, 1);
        let v = checker::check_cross_ring_agreement(&[(0, a), (1, b)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "cross-ring-order");
    }
}
