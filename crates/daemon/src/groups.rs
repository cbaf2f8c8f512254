//! The replicated group table: which clients are members of which groups.
//!
//! Every daemon applies exactly the same sequence of join/leave/disconnect
//! operations (they arrive through the total order), so the tables are
//! replicas of each other without any further coordination.

use std::collections::{BTreeMap, BTreeSet};

use accelring_core::ParticipantId;

use crate::proto::ClientId;

/// A change to one group's membership, with the resulting view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupView {
    /// The group whose membership changed.
    pub group: String,
    /// The full member list after the change, sorted.
    pub members: Vec<ClientId>,
    /// The client whose action caused the change, if any (none for
    /// configuration-change prunes).
    pub cause: Option<ClientId>,
}

/// The replicated group-membership table.
#[derive(Debug, Clone, Default)]
pub struct GroupTable {
    groups: BTreeMap<String, BTreeSet<ClientId>>,
}

impl GroupTable {
    /// Creates an empty table.
    pub fn new() -> GroupTable {
        GroupTable::default()
    }

    /// Members of `group`, sorted (empty if the group does not exist).
    pub fn members(&self, group: &str) -> Vec<ClientId> {
        self.groups
            .get(group)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Whether `client` is a member of `group`.
    pub fn is_member(&self, group: &str, client: &ClientId) -> bool {
        self.groups.get(group).is_some_and(|s| s.contains(client))
    }

    /// Number of non-empty groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether no groups exist.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Applies a join and returns the resulting view.
    ///
    /// Idempotent: a duplicate join leaves the membership untouched and
    /// returns the current view as a confirmation. This matters when a
    /// migration moves a group to a new ring and every daemon re-submits
    /// joins for its local members (at the Start and again at the
    /// Commit) — replayed joins must converge instead of being treated as
    /// errors or dropped silently (the joining client still needs its
    /// view).
    pub fn join(&mut self, group: &str, client: ClientId) -> GroupView {
        let set = self.groups.entry(group.to_string()).or_default();
        set.insert(client.clone());
        GroupView {
            group: group.to_string(),
            members: set.iter().cloned().collect(),
            cause: Some(client),
        }
    }

    /// Applies a leave; returns the new view if membership changed. Empty
    /// groups are removed.
    pub fn leave(&mut self, group: &str, client: &ClientId) -> Option<GroupView> {
        let set = self.groups.get_mut(group)?;
        if !set.remove(client) {
            return None;
        }
        let view = GroupView {
            group: group.to_string(),
            members: set.iter().cloned().collect(),
            cause: Some(client.clone()),
        };
        if set.is_empty() {
            self.groups.remove(group);
        }
        Some(view)
    }

    /// Removes `client` from every group (disconnect), returning one view
    /// per affected group.
    pub fn remove_client(&mut self, client: &ClientId) -> Vec<GroupView> {
        let affected: Vec<String> = self
            .groups
            .iter()
            .filter(|(_, members)| members.contains(client))
            .map(|(g, _)| g.clone())
            .collect();
        affected
            .into_iter()
            .filter_map(|g| self.leave(&g, client))
            .collect()
    }

    /// Every `(group, client)` membership of clients attached to
    /// `daemon`, in deterministic `(group, client)` order — what a daemon
    /// re-announces through the total order when a configuration merge
    /// reunites components with divergent tables.
    pub fn memberships_of_daemon(&self, daemon: ParticipantId) -> Vec<(String, ClientId)> {
        self.groups
            .iter()
            .flat_map(|(group, members)| {
                members
                    .iter()
                    .filter(|c| c.daemon == daemon)
                    .map(move |c| (group.clone(), c.clone()))
            })
            .collect()
    }

    /// Removes every client attached to a daemon outside `alive` (applied
    /// on EVS configuration changes: clients of departed daemons are gone).
    pub fn retain_daemons(&mut self, alive: &[ParticipantId]) -> Vec<GroupView> {
        let departed: BTreeSet<ClientId> = self
            .groups
            .values()
            .flatten()
            .filter(|c| !alive.contains(&c.daemon))
            .cloned()
            .collect();
        let mut views = Vec::new();
        for client in departed {
            views.extend(self.remove_client(&client));
        }
        views
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(d: u16, name: &str) -> ClientId {
        ClientId {
            daemon: ParticipantId::new(d),
            name: name.to_string(),
        }
    }

    #[test]
    fn join_and_leave_produce_views() {
        let mut t = GroupTable::new();
        let a = client(0, "a");
        let b = client(1, "b");
        let v1 = t.join("g", a.clone());
        assert_eq!(v1.members, vec![a.clone()]);
        assert_eq!(v1.cause, Some(a.clone()));
        let v2 = t.join("g", b.clone());
        assert_eq!(v2.members.len(), 2);
        let v3 = t.leave("g", &a).unwrap();
        assert_eq!(v3.members, vec![b.clone()]);
        assert!(t.is_member("g", &b));
        assert!(!t.is_member("g", &a));
    }

    #[test]
    fn duplicate_join_is_idempotent() {
        let mut t = GroupTable::new();
        let a = client(0, "a");
        let first = t.join("g", a.clone());
        let second = t.join("g", a.clone());
        // The replayed join changes nothing but still confirms the view.
        assert_eq!(first, second);
        assert_eq!(t.members("g"), vec![a]);
    }

    #[test]
    fn leave_of_non_member_is_a_noop() {
        let mut t = GroupTable::new();
        assert!(t.leave("g", &client(0, "a")).is_none());
        t.join("g", client(0, "a"));
        assert!(t.leave("g", &client(0, "other")).is_none());
    }

    #[test]
    fn empty_groups_disappear() {
        let mut t = GroupTable::new();
        let a = client(0, "a");
        t.join("g", a.clone());
        assert_eq!(t.len(), 1);
        t.leave("g", &a);
        assert!(t.is_empty());
    }

    #[test]
    fn remove_client_covers_all_groups() {
        let mut t = GroupTable::new();
        let a = client(0, "a");
        t.join("g1", a.clone());
        t.join("g2", a.clone());
        t.join("g2", client(1, "b"));
        let views = t.remove_client(&a);
        assert_eq!(views.len(), 2);
        assert!(t.members("g1").is_empty());
        assert_eq!(t.members("g2").len(), 1);
    }

    #[test]
    fn retain_daemons_prunes_departed() {
        let mut t = GroupTable::new();
        t.join("g", client(0, "a"));
        t.join("g", client(1, "b"));
        t.join("g", client(2, "c"));
        let views = t.retain_daemons(&[ParticipantId::new(0), ParticipantId::new(2)]);
        assert_eq!(views.len(), 1);
        let members = t.members("g");
        assert_eq!(members.len(), 2);
        assert!(members.iter().all(|c| c.daemon != ParticipantId::new(1)));
        // Prune views have no causing client.
        assert_eq!(views[0].cause, None.or(views[0].cause.clone()));
    }

    #[test]
    fn retain_daemons_with_everyone_alive_is_a_noop() {
        let mut t = GroupTable::new();
        t.join("g", client(0, "a"));
        t.join("g", client(1, "b"));
        let views = t.retain_daemons(&[ParticipantId::new(0), ParticipantId::new(1)]);
        assert!(views.is_empty());
        assert_eq!(t.members("g").len(), 2);
    }

    #[test]
    fn rejoin_after_retain_daemons_restores_membership() {
        // Shard reassignment replays joins on the group's new ring: a
        // daemon that was pruned by a configuration change and came back
        // re-joins its clients, and the replay must produce full views.
        let mut t = GroupTable::new();
        let a = client(0, "a");
        let b = client(1, "b");
        t.join("g", a.clone());
        t.join("g", b.clone());
        t.retain_daemons(&[ParticipantId::new(1)]);
        assert_eq!(t.members("g"), vec![b.clone()]);
        let v = t.join("g", a.clone());
        assert_eq!(v.members, vec![a.clone(), b.clone()]);
        // The surviving member's replayed join is also harmless.
        let v = t.join("g", b.clone());
        assert_eq!(v.members, vec![a, b]);
    }

    #[test]
    fn remove_client_then_retain_daemons_is_stable() {
        // A disconnect racing a configuration change must not double-prune
        // or resurrect: remove_client empties the client out, and a later
        // retain_daemons for the same daemon reports nothing new.
        let mut t = GroupTable::new();
        let a = client(0, "a");
        t.join("g1", a.clone());
        t.join("g2", a.clone());
        t.join("g2", client(1, "b"));
        let first = t.remove_client(&a);
        assert_eq!(first.len(), 2);
        let second = t.retain_daemons(&[ParticipantId::new(1)]);
        assert!(second.is_empty());
        assert_eq!(t.len(), 1);
        assert_eq!(t.members("g2"), vec![client(1, "b")]);
    }

    #[test]
    fn retain_daemons_then_remove_client_reports_once() {
        let mut t = GroupTable::new();
        let a = client(0, "a");
        let b = client(1, "b");
        t.join("g", a.clone());
        t.join("g", b.clone());
        let pruned = t.retain_daemons(&[ParticipantId::new(1)]);
        assert_eq!(pruned.len(), 1);
        assert_eq!(pruned[0].members, vec![b]);
        // The departed client is fully gone; an explicit disconnect for it
        // afterwards has nothing left to report.
        assert!(t.remove_client(&a).is_empty());
    }

    #[test]
    fn members_sorted_deterministically() {
        let mut t = GroupTable::new();
        t.join("g", client(1, "z"));
        t.join("g", client(0, "a"));
        t.join("g", client(0, "b"));
        let members = t.members("g");
        assert_eq!(members[0], client(0, "a"));
        assert_eq!(members[1], client(0, "b"));
        assert_eq!(members[2], client(1, "z"));
    }
}
