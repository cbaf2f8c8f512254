//! The shard map: which ring orders which group.
//!
//! Every daemon holds an identical [`ShardMap`]; a group's ring is a pure
//! function of the map's state, so routing needs no coordination. By
//! default a group hashes to a ring (FNV-1a mod R — stable, seedless,
//! identical on every daemon); explicit placements override the hash for
//! operators who want to co-locate hot groups or balance by hand, exactly
//! like Multi-Ring Paxos' static group-to-ring assignment.
//!
//! A placement changes only through ordered messages: a migration's
//! commit, delivered at the same stream position everywhere, installs it
//! with [`ShardMap::assign`] (idempotent, so every daemon replaying the
//! same commit converges), and a strictly newer announced or pulled map
//! replaces the placements wholesale ([`ShardMap::adopt`]). Every daemon
//! is a member of every ring and stops when any of its ring nodes dies,
//! so no daemon ever outlives a ring to move its groups elsewhere.
//!
//! The map carries a [`version`](ShardMap::version) counter bumped on
//! every placement change; probes and reports use it as a cheap epoch to
//! detect that two daemons are routing from different map states.

use std::collections::BTreeMap;

use accelring_core::RingIdx;

/// Deterministic group-to-ring assignment for an R-ring deployment.
#[derive(Debug, Clone)]
pub struct ShardMap {
    rings: u16,
    overrides: BTreeMap<String, RingIdx>,
    version: u64,
}

/// FNV-1a, the classic seedless string hash: stable across platforms and
/// processes, which is what makes hash placement coordination-free.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl ShardMap {
    /// A map over `rings` rings with pure hash placement.
    ///
    /// Zero rings is clamped to one (a single-ring deployment is just the
    /// ordinary daemon stack).
    pub fn new(rings: u16) -> ShardMap {
        ShardMap {
            rings: rings.max(1),
            overrides: BTreeMap::new(),
            version: 0,
        }
    }

    /// Number of rings in the deployment.
    pub fn rings(&self) -> u16 {
        self.rings
    }

    /// Placement epoch: bumped on every change to any group's placement.
    /// Two maps with equal versions that started identical are identical.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Pins `group` to `ring`, overriding hash placement. Idempotent:
    /// re-pinning a group where it already is changes nothing, version
    /// included, so a replayed migration commit is a no-op.
    ///
    /// Out-of-range rings are reduced mod R so a stale placement can never
    /// route outside the deployment.
    pub fn assign(&mut self, group: &str, ring: RingIdx) {
        let ring = RingIdx::new(ring.as_u16() % self.rings);
        if self.overrides.get(group) != Some(&ring) {
            self.overrides.insert(group.to_string(), ring);
            self.version += 1;
        }
    }

    /// The ring that orders `group`.
    pub fn ring_of(&self, group: &str) -> RingIdx {
        match self.overrides.get(group) {
            Some(r) => *r,
            None => RingIdx::new((fnv1a(group) % u64::from(self.rings)) as u16),
        }
    }

    /// The explicit placements currently in force, sorted by group.
    pub fn placements(&self) -> Vec<(String, RingIdx)> {
        self.overrides
            .iter()
            .map(|(g, r)| (g.clone(), *r))
            .collect()
    }

    /// Adopts a peer-announced map state if it is strictly newer than
    /// this one, replacing the explicit placements wholesale. Returns
    /// whether anything was adopted.
    ///
    /// This is the receive side of shard-map catch-up: announcements ride
    /// the rings' total order, so same-version announcements are
    /// identical and stale ones are dropped — adoption is idempotent and
    /// order-insensitive across rings.
    pub fn adopt(&mut self, version: u64, placements: &[(String, RingIdx)]) -> bool {
        if version <= self.version {
            return false;
        }
        self.overrides = placements
            .iter()
            .map(|(g, r)| (g.clone(), RingIdx::new(r.as_u16() % self.rings)))
            .collect();
        self.version = version;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_placement_is_stable_and_in_range() {
        let m = ShardMap::new(4);
        for g in ["chat", "audit", "metrics", "a", "b", "c"] {
            let r = m.ring_of(g);
            assert!(r.as_u16() < 4);
            assert_eq!(r, m.ring_of(g), "placement must be a pure function");
        }
        // Identically configured maps agree.
        let m2 = ShardMap::new(4);
        assert_eq!(m.ring_of("chat"), m2.ring_of("chat"));
    }

    #[test]
    fn hash_placement_spreads_groups() {
        let m = ShardMap::new(4);
        let mut used = std::collections::BTreeSet::new();
        for i in 0..64 {
            used.insert(m.ring_of(&format!("group-{i}")));
        }
        assert!(used.len() > 1, "64 groups must not all hash to one ring");
    }

    #[test]
    fn explicit_assignment_overrides_hash() {
        let mut m = ShardMap::new(4);
        m.assign("chat", RingIdx::new(3));
        assert_eq!(m.ring_of("chat"), RingIdx::new(3));
    }

    #[test]
    fn assignment_wraps_out_of_range_rings() {
        let mut m = ShardMap::new(2);
        m.assign("g", RingIdx::new(7));
        assert_eq!(m.ring_of("g"), RingIdx::new(1));
    }

    #[test]
    fn zero_rings_clamps_to_single_ring() {
        let m = ShardMap::new(0);
        assert_eq!(m.rings(), 1);
        assert_eq!(m.ring_of("anything"), RingIdx::new(0));
    }

    #[test]
    fn version_tracks_placement_changes_only() {
        let mut m = ShardMap::new(4);
        assert_eq!(m.version(), 0);
        m.assign("g", RingIdx::new(1));
        assert_eq!(m.version(), 1);
        // Every daemon processes the same ordered migration commit;
        // replays are no-ops.
        m.assign("g", RingIdx::new(1));
        assert_eq!(m.version(), 1);
        assert_eq!(m.ring_of("g"), RingIdx::new(1));
        m.assign("g", RingIdx::new(2));
        assert_eq!(m.version(), 2);
    }

    #[test]
    fn adopt_takes_strictly_newer_maps_only() {
        let mut live = ShardMap::new(3);
        live.assign("hot", RingIdx::new(2));
        live.assign("warm", RingIdx::new(1));
        let (v, p) = (live.version(), live.placements());

        // A restarted daemon holding the initial map converges in one
        // adoption.
        let mut stale = ShardMap::new(3);
        assert!(stale.adopt(v, &p));
        assert_eq!(stale.version(), v);
        assert_eq!(stale.ring_of("hot"), RingIdx::new(2));

        // Replay and older announcements are no-ops.
        assert!(!stale.adopt(v, &p), "same version must not re-adopt");
        assert!(!stale.adopt(v - 1, &[]), "older must be dropped");
        assert_eq!(stale.ring_of("hot"), RingIdx::new(2));

        // Adoption replaces placements wholesale: an override the stale
        // map had that the live map dropped must not survive.
        let mut diverged = ShardMap::new(3);
        diverged.assign("ghost", RingIdx::new(0));
        assert!(diverged.adopt(v, &p));
        assert_eq!(diverged.placements(), p, "placements replaced wholesale");
    }
}
