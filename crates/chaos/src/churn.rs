//! Churn schedules and the migration-handoff checker.
//!
//! A [`ChurnSchedule`] is the multi-ring counterpart of a
//! [`FaultSchedule`](crate::FaultSchedule): a seeded, wall-clock sequence
//! of *elastic* disturbances — data loss on one ring, an online group
//! migration to another ring, a daemon leaving and rejoining — replayed
//! against live UDP rings while a tagged workload keeps flowing.
//!
//! The handoff invariants are stricter than the single-ring checker's
//! agreed order: because a migration fence releases a deterministic
//! "last slot on the source / first slot on the target" boundary, every
//! observer that stays subscribed through the churn must see the *same
//! complete sequence* — no message lost in the gap between rings
//! (`churn-no-gap`), none delivered on both sides of the fence
//! (`churn-exactly-once`), none invented (`churn-phantom`), and one
//! global order (`churn-order`). [`check_churn_handoff`] checks exactly
//! that against the workload's ground-truth send set.

use std::collections::BTreeSet;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checker::{MsgId, Violation};

/// One elastic disturbance.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnKind {
    /// Set i.i.d. data-packet loss on one ring's fault plane.
    Loss {
        /// Ring whose plane takes the loss.
        ring: u16,
        /// Data-packet drop probability in `[0, 1)`.
        rate: f64,
    },
    /// Clear all loss on one ring's fault plane.
    HealLoss {
        /// Ring whose plane heals.
        ring: u16,
    },
    /// Migrate a group to another ring through the fenced handoff.
    Migrate {
        /// The migrating group.
        group: String,
        /// Target ring. The runner skips the event if the group already
        /// lives there (a seeded generator cannot know the live map).
        to: u16,
    },
    /// One daemon leaves every ring and rejoins after `down`.
    Restart {
        /// The daemon (participant id) to cycle.
        daemon: u16,
        /// How long it stays down before rebinding its ports.
        down: Duration,
    },
    /// A correlated crash: every listed daemon goes down before any
    /// comes back, so the rejoiners catch up from a minority of live
    /// peers — the restart-storm dimension of the recovery protocol.
    RestartStorm {
        /// The daemons (participant ids) to cycle together; never
        /// includes daemon 0, which stays up as a catch-up source.
        daemons: Vec<u16>,
        /// How long the storm members all stay down.
        down: Duration,
    },
}

/// One scheduled disturbance: `kind` fires `at` after the workload
/// starts (after the initial rings have formed and views are installed).
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnEvent {
    /// Wall-clock offset from workload start.
    pub at: Duration,
    /// What happens.
    pub kind: ChurnKind,
}

/// Shape of a generated churn schedule.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Number of rings in the deployment.
    pub rings: u16,
    /// Number of daemons.
    pub nodes: u16,
    /// Groups the generator may migrate.
    pub groups: Vec<String>,
    /// How many events to generate.
    pub events: usize,
    /// Minimum gap between consecutive events.
    pub min_gap: Duration,
    /// Maximum gap between consecutive events.
    pub max_gap: Duration,
    /// Clean-traffic warmup before the first event.
    pub warmup: Duration,
}

/// A seeded churn schedule: same seed, same disturbances at the same
/// offsets.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSchedule {
    /// The generating seed (carried for failure reports).
    pub seed: u64,
    /// Events in firing order.
    pub events: Vec<ChurnEvent>,
}

impl ChurnSchedule {
    /// Generates a randomized schedule from `seed`. Loss events are
    /// paired with heals by the generator so a run never ends with a
    /// lossy plane; migrations pick a uniformly random target ring and
    /// group; restarts never cycle daemon 0, which stays up as a
    /// catch-up source for every rejoiner.
    pub fn generate(seed: u64, cfg: &ChurnConfig) -> ChurnSchedule {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc42_17e5_u64.rotate_left(17));
        let mut at = cfg.warmup;
        let mut events = Vec::with_capacity(cfg.events);
        let gap = |rng: &mut StdRng| {
            let span = cfg.max_gap.saturating_sub(cfg.min_gap);
            cfg.min_gap + span.mul_f64(rng.random::<f64>())
        };
        let mut lossy: BTreeSet<u16> = BTreeSet::new();
        for _ in 0..cfg.events {
            let kind = match rng.random_range(0..4u8) {
                0 => {
                    let ring = rng.random_range(0..cfg.rings);
                    lossy.insert(ring);
                    ChurnKind::Loss {
                        ring,
                        rate: rng.random_range(0.01..0.08),
                    }
                }
                1 if !lossy.is_empty() => {
                    let pick = rng.random_range(0..lossy.len());
                    let ring = *lossy.iter().nth(pick).expect("non-empty");
                    lossy.remove(&ring);
                    ChurnKind::HealLoss { ring }
                }
                2 if !cfg.groups.is_empty() && cfg.rings > 1 => ChurnKind::Migrate {
                    group: cfg.groups[rng.random_range(0..cfg.groups.len())].clone(),
                    to: rng.random_range(0..cfg.rings),
                },
                _ if cfg.nodes > 1 => ChurnKind::Restart {
                    daemon: rng.random_range(1..cfg.nodes),
                    down: Duration::from_millis(rng.random_range(200..600u64)),
                },
                _ => ChurnKind::HealLoss { ring: 0 },
            };
            events.push(ChurnEvent { at, kind });
            at += gap(&mut rng);
        }
        for ring in lossy {
            events.push(ChurnEvent {
                at,
                kind: ChurnKind::HealLoss { ring },
            });
            at += gap(&mut rng);
        }
        ChurnSchedule { seed, events }
    }

    /// The CI-sized schedule: a loss window on the migrating group's
    /// source ring bracketing exactly one migration and one daemon
    /// leave/join — the minimal run that exercises a fenced handoff
    /// under packet loss and a concurrent membership change. Offsets are
    /// jittered by `seed` so repeated CI runs do not all probe the same
    /// interleaving.
    pub fn smoke(seed: u64, group: &str, from: u16, to: u16, restart: u16) -> ChurnSchedule {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5_40ff_u64.rotate_left(31));
        let down = Duration::from_millis(300 + rng.random_range(0..200u64));
        let mut jitter = |base: u64| Duration::from_millis(base + rng.random_range(0..120u64));
        ChurnSchedule {
            seed,
            events: vec![
                ChurnEvent {
                    at: jitter(300),
                    kind: ChurnKind::Loss {
                        ring: from,
                        rate: 0.03,
                    },
                },
                ChurnEvent {
                    at: jitter(600),
                    kind: ChurnKind::Migrate {
                        group: group.to_string(),
                        to,
                    },
                },
                ChurnEvent {
                    at: jitter(900),
                    kind: ChurnKind::Restart {
                        daemon: restart,
                        down,
                    },
                },
                ChurnEvent {
                    at: jitter(1600),
                    kind: ChurnKind::HealLoss { ring: from },
                },
            ],
        }
    }

    /// Generates a restart-storm schedule: `cfg.events` correlated
    /// crashes, each taking down `storm_size` distinct daemons at once
    /// (never daemon 0, the catch-up source every storm leaves up). A
    /// separate generator rather
    /// than a [`ChurnSchedule::generate`] arm so the storm dimension
    /// cannot perturb the draw sequence existing seeds pin down.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= storm_size < cfg.nodes`, i.e. the storm
    /// leaves at least daemon 0 up as a catch-up source.
    pub fn restart_storm(seed: u64, cfg: &ChurnConfig, storm_size: u16) -> ChurnSchedule {
        assert!(
            storm_size >= 1 && storm_size < cfg.nodes,
            "storm must cycle at least one daemon and leave survivors"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0x570_12a3_u64.rotate_left(23));
        let mut at = cfg.warmup;
        let mut events = Vec::with_capacity(cfg.events);
        for _ in 0..cfg.events {
            let mut pool: Vec<u16> = (1..cfg.nodes).collect();
            let mut daemons = Vec::with_capacity(storm_size as usize);
            for _ in 0..storm_size {
                let pick = rng.random_range(0..pool.len());
                daemons.push(pool.swap_remove(pick));
            }
            daemons.sort_unstable();
            events.push(ChurnEvent {
                at,
                kind: ChurnKind::RestartStorm {
                    daemons,
                    down: Duration::from_millis(rng.random_range(200..600u64)),
                },
            });
            let span = cfg.max_gap.saturating_sub(cfg.min_gap);
            at += cfg.min_gap + span.mul_f64(rng.random::<f64>());
        }
        ChurnSchedule { seed, events }
    }
}

/// Checks the handoff invariants over observers that stayed subscribed
/// through the churn, against the workload's ground-truth send set:
///
/// - `churn-phantom`: an observer delivered an id that was never sent;
/// - `churn-exactly-once`: an observer delivered an id twice (a message
///   released on both sides of a fence, or a redirect duplicated);
/// - `churn-no-gap`: a sent id is missing at an observer (lost in the
///   handoff between the source ring's last slot and the target's
///   first);
/// - `churn-order`: two observers disagree on the global sequence.
///   With no-gap and exactly-once holding, every stream is a
///   permutation of `sent`, so agreement means the streams are
///   *identical* — the first index where two differ is reported.
pub fn check_churn_handoff(
    sent: &BTreeSet<MsgId>,
    observers: &[(usize, Vec<MsgId>)],
) -> Vec<Violation> {
    let mut v = Vec::new();
    for (node, stream) in observers {
        let mut seen = BTreeSet::new();
        for id in stream {
            if !sent.contains(id) {
                v.push(Violation {
                    invariant: "churn-phantom",
                    detail: format!("observer {node} delivered {id}, which was never sent"),
                });
            }
            if !seen.insert(*id) {
                v.push(Violation {
                    invariant: "churn-exactly-once",
                    detail: format!("observer {node} delivered {id} more than once"),
                });
            }
        }
        for id in sent {
            if !seen.contains(id) {
                v.push(Violation {
                    invariant: "churn-no-gap",
                    detail: format!("observer {node} never delivered {id}"),
                });
            }
        }
    }
    for i in 0..observers.len() {
        for j in i + 1..observers.len() {
            let (node_i, seq_i) = &observers[i];
            let (node_j, seq_j) = &observers[j];
            if seq_i != seq_j {
                let at = seq_i
                    .iter()
                    .zip(seq_j.iter())
                    .position(|(a, b)| a != b)
                    .unwrap_or(seq_i.len().min(seq_j.len()));
                let show = |s: &[MsgId], at: usize| {
                    s.get(at)
                        .map(MsgId::to_string)
                        .unwrap_or_else(|| "<end>".to_string())
                };
                v.push(Violation {
                    invariant: "churn-order",
                    detail: format!(
                        "observers {node_i} and {node_j} diverge at index {at}: {} vs {}",
                        show(seq_i, at),
                        show(seq_j, at),
                    ),
                });
            }
        }
    }
    v
}

/// What one daemon restart looked like, for [`check_recovery`]: the
/// runner records the cluster's live shard-map version and the victim's
/// dedup watermarks around the cycle, and what the rejoined incarnation
/// ended up serving with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The cycled daemon (participant id).
    pub daemon: u16,
    /// Live shard-map version at a surviving daemon when the victim
    /// came back up.
    pub map_before: u64,
    /// The rejoined incarnation's shard-map version once it served.
    pub map_after: u64,
    /// Per-ring dedup watermarks captured when the victim stopped.
    pub seqs_before: Vec<Vec<(String, u64)>>,
    /// The rejoined incarnation's per-ring dedup watermarks.
    pub seqs_after: Vec<Vec<(String, u64)>>,
}

/// Checks the recovery invariants over a run's restart reports:
///
/// - `recovery-stale-map`: a rejoined daemon served from a shard map
///   older than what the survivors held when it came back — its routing
///   and merge would diverge from every other observer's;
/// - `recovery-dedup-regression`: a watermark the dying incarnation
///   held is missing or lower in the rejoined one (on the same ring),
///   so a client resubmission across the restart would deliver twice.
pub fn check_recovery(reports: &[RecoveryReport]) -> Vec<Violation> {
    let mut v = Vec::new();
    for r in reports {
        if r.map_after < r.map_before {
            v.push(Violation {
                invariant: "recovery-stale-map",
                detail: format!(
                    "daemon {} rejoined serving map v{} while survivors held v{}",
                    r.daemon, r.map_after, r.map_before
                ),
            });
        }
        for (ring, before) in r.seqs_before.iter().enumerate() {
            for (client, seq) in before {
                let after = r
                    .seqs_after
                    .get(ring)
                    .and_then(|ws| ws.iter().find(|(c, _)| c == client))
                    .map(|(_, s)| *s)
                    .unwrap_or(0);
                if after < *seq {
                    v.push(Violation {
                        invariant: "recovery-dedup-regression",
                        detail: format!(
                            "daemon {} ring {ring}: client {client} watermark fell {} -> {after} \
                             across the restart",
                            r.daemon, seq
                        ),
                    });
                }
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(sender: u16, counter: u64) -> MsgId {
        MsgId { sender, counter }
    }

    fn cfg() -> ChurnConfig {
        ChurnConfig {
            rings: 2,
            nodes: 3,
            groups: vec!["hot".into(), "cold".into()],
            events: 12,
            min_gap: Duration::from_millis(50),
            max_gap: Duration::from_millis(200),
            warmup: Duration::from_millis(300),
        }
    }

    #[test]
    fn schedules_are_seed_deterministic() {
        let a = ChurnSchedule::generate(7, &cfg());
        let b = ChurnSchedule::generate(7, &cfg());
        assert_eq!(a, b);
        let c = ChurnSchedule::generate(8, &cfg());
        assert_ne!(a, c, "different seeds should give different schedules");
        assert!(a.events.len() >= 12);
    }

    #[test]
    fn generated_loss_is_always_healed_and_leader_never_cycled() {
        for seed in 0..32 {
            let s = ChurnSchedule::generate(seed, &cfg());
            let mut lossy = BTreeSet::new();
            for e in &s.events {
                match &e.kind {
                    ChurnKind::Loss { ring, .. } => {
                        lossy.insert(*ring);
                    }
                    ChurnKind::HealLoss { ring } => {
                        lossy.remove(ring);
                    }
                    ChurnKind::Restart { daemon, .. } => {
                        assert_ne!(*daemon, 0, "seed {seed} cycles daemon 0");
                    }
                    ChurnKind::RestartStorm { daemons, .. } => {
                        assert!(!daemons.contains(&0), "seed {seed} storms daemon 0");
                    }
                    ChurnKind::Migrate { .. } => {}
                }
            }
            assert!(lossy.is_empty(), "seed {seed} leaves rings lossy");
        }
    }

    #[test]
    fn smoke_is_one_migration_one_restart_bracketed_by_loss() {
        let s = ChurnSchedule::smoke(3, "hot", 0, 1, 2);
        let kinds: Vec<&'static str> = s
            .events
            .iter()
            .map(|e| match &e.kind {
                ChurnKind::Loss { .. } => "loss",
                ChurnKind::HealLoss { .. } => "heal",
                ChurnKind::Migrate { .. } => "migrate",
                ChurnKind::Restart { .. } => "restart",
                ChurnKind::RestartStorm { .. } => "storm",
            })
            .collect();
        assert_eq!(s.events.len(), 4);
        assert_eq!(
            kinds.iter().collect::<BTreeSet<_>>().len(),
            4,
            "smoke should have one event of each kind"
        );
        assert!(
            s.events.windows(2).all(|w| w[0].at <= w[1].at),
            "events out of order"
        );
        assert_eq!(ChurnSchedule::smoke(3, "hot", 0, 1, 2), s);
    }

    #[test]
    fn restart_storms_are_seed_deterministic_and_spare_the_leader() {
        let a = ChurnSchedule::restart_storm(11, &cfg(), 2);
        assert_eq!(a, ChurnSchedule::restart_storm(11, &cfg(), 2));
        assert_ne!(a, ChurnSchedule::restart_storm(12, &cfg(), 2));
        for seed in 0..32 {
            let s = ChurnSchedule::restart_storm(seed, &cfg(), 2);
            assert_eq!(s.events.len(), cfg().events);
            for e in &s.events {
                let ChurnKind::RestartStorm { daemons, .. } = &e.kind else {
                    panic!("seed {seed}: non-storm event {:?}", e.kind);
                };
                assert_eq!(daemons.len(), 2, "seed {seed}: wrong storm size");
                assert!(!daemons.contains(&0), "seed {seed} storms daemon 0");
                let distinct: BTreeSet<&u16> = daemons.iter().collect();
                assert_eq!(distinct.len(), daemons.len(), "seed {seed}: repeat victim");
            }
            assert!(
                s.events.windows(2).all(|w| w[0].at <= w[1].at),
                "seed {seed}: events out of order"
            );
        }
        // Storms must not disturb the draw sequence of the main
        // generator — existing seeds pin its schedules down.
        let before = ChurnSchedule::generate(7, &cfg());
        let _ = ChurnSchedule::restart_storm(7, &cfg(), 2);
        assert_eq!(before, ChurnSchedule::generate(7, &cfg()));
    }

    #[test]
    fn recovery_checker_passes_clean_reports() {
        let r = RecoveryReport {
            daemon: 2,
            map_before: 3,
            map_after: 4,
            seqs_before: vec![vec![("alice".into(), 10)], vec![]],
            seqs_after: vec![vec![("alice".into(), 10), ("bob".into(), 1)], vec![]],
        };
        assert!(check_recovery(&[r]).is_empty());
        // Degenerate: a daemon with no sessions and no map churn.
        let empty = RecoveryReport {
            daemon: 1,
            map_before: 0,
            map_after: 0,
            seqs_before: vec![],
            seqs_after: vec![],
        };
        assert!(check_recovery(&[empty]).is_empty());
    }

    #[test]
    fn recovery_checker_catches_stale_map_and_dedup_regression() {
        let r = RecoveryReport {
            daemon: 2,
            map_before: 5,
            map_after: 4,
            seqs_before: vec![vec![("alice".into(), 10), ("bob".into(), 3)]],
            // alice's watermark fell; bob's moved ring (counts as a
            // regression on ring 0 — watermarks are per-ring).
            seqs_after: vec![vec![("alice".into(), 9)], vec![("bob".into(), 3)]],
        };
        let v = check_recovery(&[r]);
        let invariants: Vec<&str> = v.iter().map(|x| x.invariant).collect();
        assert!(invariants.contains(&"recovery-stale-map"), "{v:?}");
        assert_eq!(
            invariants
                .iter()
                .filter(|i| **i == "recovery-dedup-regression")
                .count(),
            2,
            "{v:?}"
        );
    }

    #[test]
    fn clean_identical_streams_pass() {
        let sent: BTreeSet<MsgId> = (0..5).map(|c| id(9, c)).collect();
        let stream: Vec<MsgId> = vec![id(9, 3), id(9, 0), id(9, 4), id(9, 1), id(9, 2)];
        let v = check_churn_handoff(&sent, &[(0, stream.clone()), (1, stream)]);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn checker_catches_gap_dup_phantom_and_divergence() {
        let sent: BTreeSet<MsgId> = (0..3).map(|c| id(9, c)).collect();
        // Observer 0: duplicates 0, misses 2, invents s9:7; observer 1:
        // clean but ordered differently from observer 0's common prefix.
        let v = check_churn_handoff(
            &sent,
            &[
                (0, vec![id(9, 0), id(9, 0), id(9, 7), id(9, 1)]),
                (1, vec![id(9, 1), id(9, 0), id(9, 2)]),
            ],
        );
        let invariants: BTreeSet<&str> = v.iter().map(|x| x.invariant).collect();
        for want in [
            "churn-phantom",
            "churn-exactly-once",
            "churn-no-gap",
            "churn-order",
        ] {
            assert!(invariants.contains(want), "missing {want} in {v:?}");
        }
    }
}
