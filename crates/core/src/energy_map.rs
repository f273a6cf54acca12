//! Collateral energy maps and the paper's Algorithm 1.
//!
//! E-Android maintains, for every app, a map from driven entities (other
//! apps, the screen) to the collateral energy charged so far. Link tokens
//! implement the attack-period gating: an entity accrues into a host's map
//! only while at least one live link connects them, and "once all attack
//! lifecycles end, the relation between the driving and driven apps is
//! broken and no extra energy would be charged" (§IV-B).
//!
//! Algorithm 1 (chains): when a begin event `(g → n)` fires, `n` is added
//! not only to `g`'s map but to the map of every app whose map currently
//! contains `g` alive (the *parents*, line 8–10). For service-related
//! events, the driven app's own live map entries are additionally merged
//! into `g` and its parents (lines 11–15) — the "driven app could have
//! already bound several energy intensive services" case.
//!
//! # Hot-path storage
//!
//! The graph interns hosts and driven entities to [`UidSlot`]s and keeps
//! the maps as flat per-slot arrays, plus a *link index*
//! (`live_by_entity`) listing, per driven entity, exactly the hosts holding
//! it alive — so the per-tick [`accrue`](CollateralGraph::accrue) touches
//! only the links an interval's draws actually feed, instead of scanning
//! every open map. Queries, comparison and serialization walk hosts in UID
//! order and entries in entity order, and totals sum in entity order, so
//! results are bit-identical to the original nested-`BTreeMap`
//! implementation; the root test `tests/accounting_oracle.rs` keeps that
//! implementation as a model and checks the graph against it.

use serde::de::Deserializer;
use serde::ser::Serializer;
use serde::{Deserialize, Serialize};

use ea_power::Energy;
use ea_sim::Uid;

use crate::slot::{SlotInterner, UidSlot};
use crate::Entity;

/// One row of a host's collateral map.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CollateralEntry {
    /// Live link tokens connecting the host to this entity. Zero means the
    /// relation is over: the accrued energy stays on record but no more is
    /// added.
    pub links: usize,
    /// Collateral energy accrued while linked.
    pub energy: Energy,
}

/// A link token: `(host, driven entity)`. Begins create them, ends revoke
/// them one-for-one.
pub type LinkToken = (Uid, Entity);

/// One cell of a host's row: the public entry plus whether the cell was
/// ever linked (distinguishes "created, then fully ended with nothing
/// accrued" — which stays on record — from "never existed").
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    entry: CollateralEntry,
    created: bool,
}

/// All collateral energy maps (one per driving app), with Algorithm 1
/// propagation.
///
/// # Example
///
/// ```
/// use ea_core::{CollateralGraph, Entity};
/// use ea_power::Energy;
/// use ea_sim::Uid;
///
/// let a = Uid::from_raw(10_000);
/// let b = Uid::from_raw(10_001);
///
/// let mut graph = CollateralGraph::new();
/// let tokens = graph.begin(a, Entity::App(b), false);
/// graph.accrue(Entity::App(b), Energy::from_joules(5.0));
/// assert!((graph.collateral_total(a).as_joules() - 5.0).abs() < 1e-12);
///
/// graph.end(&tokens);
/// graph.accrue(Entity::App(b), Energy::from_joules(99.0));
/// // The period ended: no further charging.
/// assert!((graph.collateral_total(a).as_joules() - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CollateralGraph {
    interner: SlotInterner,
    /// `rows[host.index()][entity.index()]`, grown lazily.
    rows: Vec<Vec<Cell>>,
    /// Per driven entity: the host slots currently holding it alive.
    live_by_entity: Vec<Vec<u32>>,
    /// Count of live `(host, entity)` relations (not individual links).
    live_relations: usize,
    /// Host slots that ever gained a map entry.
    touched: Vec<bool>,
}

impl CollateralGraph {
    /// An empty graph.
    pub fn new() -> Self {
        CollateralGraph::default()
    }

    fn cell_mut(&mut self, host: UidSlot, entity: UidSlot) -> &mut Cell {
        let rows = &mut self.rows;
        if rows.len() <= host.index() {
            rows.resize_with(host.index() + 1, Vec::new);
        }
        let row = &mut rows[host.index()];
        if row.len() <= entity.index() {
            row.resize_with(entity.index() + 1, Cell::default);
        }
        &mut row[entity.index()]
    }

    fn cell(&self, host: UidSlot, entity: UidSlot) -> Option<&Cell> {
        self.rows.get(host.index())?.get(entity.index())
    }

    fn mark_touched(&mut self, host: UidSlot) {
        if self.touched.len() <= host.index() {
            self.touched.resize(host.index() + 1, false);
        }
        self.touched[host.index()] = true;
    }

    fn is_touched(&self, host: UidSlot) -> bool {
        self.touched.get(host.index()).copied().unwrap_or(false)
    }

    /// Records `entity` as live for `host` in the link index.
    fn index_live(&mut self, host: UidSlot, entity: UidSlot) {
        self.live_relations += 1;
        if self.live_by_entity.len() <= entity.index() {
            self.live_by_entity
                .resize_with(entity.index() + 1, Vec::new);
        }
        self.live_by_entity[entity.index()].push(host.index() as u32);
    }

    fn host_uid(&self, host: UidSlot) -> Uid {
        match self.interner.entity(host) {
            Entity::App(uid) => uid,
            // Hosts are always apps; begin() interns them as such.
            _ => unreachable!("collateral hosts are app entities"),
        }
    }

    fn add_link(&mut self, host: UidSlot, entity: UidSlot, tokens: &mut Vec<LinkToken>) {
        // An app is never collateral to itself.
        if host == entity {
            return;
        }
        let cell = self.cell_mut(host, entity);
        cell.entry.links += 1;
        cell.created = true;
        if cell.entry.links == 1 {
            self.index_live(host, entity);
        }
        self.mark_touched(host);
        tokens.push((self.host_uid(host), self.interner.entity(entity)));
    }

    fn revoke_link(&mut self, host: UidSlot, entity: UidSlot) {
        let Some(cell) = self
            .rows
            .get_mut(host.index())
            .and_then(|row| row.get_mut(entity.index()))
        else {
            return;
        };
        if cell.entry.links == 0 {
            return; // double-end saturates
        }
        cell.entry.links -= 1;
        if cell.entry.links == 0 {
            self.live_relations -= 1;
            if let Some(live) = self.live_by_entity.get_mut(entity.index()) {
                if let Some(position) = live.iter().position(|&h| h as usize == host.index()) {
                    live.swap_remove(position);
                }
            }
        }
    }

    /// `host`'s created cells as `(entity, entry)`, in entity order.
    fn entries_of(&self, host: UidSlot) -> Vec<(Entity, CollateralEntry)> {
        let mut entries: Vec<(Entity, CollateralEntry)> = self
            .rows
            .get(host.index())
            .map(|row| {
                row.iter()
                    .enumerate()
                    .filter(|(_, cell)| cell.created)
                    .map(|(index, cell)| {
                        (self.interner.entity(UidSlot::from_index(index)), cell.entry)
                    })
                    .collect()
            })
            .unwrap_or_default();
        entries.sort_by_key(|&(entity, _)| entity);
        entries
    }

    /// Opens links for a begin event `(driving → driven)` and returns the
    /// created tokens (pass them back to [`end`](Self::end) when the attack
    /// period closes).
    pub fn begin(&mut self, driving: Uid, driven: Entity, service_like: bool) -> Vec<LinkToken> {
        let mut tokens = Vec::new();
        let driving_slot = self.interner.intern_uid(driving);
        let driven_slot = self.interner.intern(driven);

        // Hosts: the driving app plus every app whose map holds the driving
        // app alive (Algorithm 1 lines 8–10). The link index answers "who
        // holds X alive" directly; sorting the parents by uid returns the
        // tokens in host order.
        let mut parents: Vec<UidSlot> = self
            .live_by_entity
            .get(driving_slot.index())
            .map(|live| {
                live.iter()
                    .map(|&h| UidSlot::from_index(h as usize))
                    .collect()
            })
            .unwrap_or_default();
        parents.sort_by_key(|&slot| self.host_uid(slot));
        let mut hosts: Vec<UidSlot> = vec![driving_slot];
        hosts.extend(parents);

        for &host in &hosts {
            self.add_link(host, driven_slot, &mut tokens);
        }

        // Service events merge the driven app's live entries upward
        // (Algorithm 1 lines 11–15), in entity order (slot order is intern
        // order, not entity order).
        if service_like && matches!(driven, Entity::App(_)) {
            let mut children: Vec<UidSlot> = self
                .rows
                .get(driven_slot.index())
                .map(|row| {
                    row.iter()
                        .enumerate()
                        .filter(|(_, cell)| cell.entry.links > 0)
                        .map(|(index, _)| UidSlot::from_index(index))
                        .collect()
                })
                .unwrap_or_default();
            children.sort_by_key(|&slot| self.interner.entity(slot));
            for child in children {
                for &host in &hosts {
                    self.add_link(host, child, &mut tokens);
                }
            }
        }
        tokens
    }

    /// Revokes the tokens a begin created. Idempotence is the caller's
    /// responsibility: pass each token set to `end` exactly once.
    pub fn end(&mut self, tokens: &[LinkToken]) {
        for &(host, entity) in tokens {
            let (Some(host_slot), Some(entity_slot)) = (
                self.interner.slot_of_uid(host),
                self.interner.slot_of(entity),
            ) else {
                continue;
            };
            self.revoke_link(host_slot, entity_slot);
        }
    }

    /// Adds `energy` consumed by `entity` to every host currently linked to
    /// it — the per-interval accrual step of the accounting module. Reads
    /// the link index, so it touches exactly the live relations of
    /// `entity`.
    pub fn accrue(&mut self, entity: Entity, energy: Energy) {
        if energy.is_zero() {
            return;
        }
        let Some(slot) = self.interner.slot_of(entity) else {
            return;
        };
        let Some(live) = self.live_by_entity.get(slot.index()) else {
            return;
        };
        for &host in live {
            self.rows[host as usize][slot.index()].entry.energy += energy;
        }
    }

    /// The live link count from `host` to `entity`.
    pub fn links(&self, host: Uid, entity: Entity) -> usize {
        let (Some(host_slot), Some(entity_slot)) = (
            self.interner.slot_of_uid(host),
            self.interner.slot_of(entity),
        ) else {
            return 0;
        };
        self.cell(host_slot, entity_slot)
            .map(|cell| cell.entry.links)
            .unwrap_or(0)
    }

    /// `host`'s collateral rows (driven entity, accrued energy), including
    /// closed ones with energy on record, in entity order.
    pub fn collateral_of(&self, host: Uid) -> Vec<(Entity, Energy)> {
        let Some(host_slot) = self.interner.slot_of_uid(host) else {
            return Vec::new();
        };
        self.entries_of(host_slot)
            .into_iter()
            .filter(|(_, entry)| !entry.energy.is_zero() || entry.links > 0)
            .map(|(entity, entry)| (entity, entry.energy))
            .collect()
    }

    /// Total collateral energy charged to `host`, summed in entity order.
    pub fn collateral_total(&self, host: Uid) -> Energy {
        let Some(host_slot) = self.interner.slot_of_uid(host) else {
            return Energy::ZERO;
        };
        self.entries_of(host_slot)
            .into_iter()
            .map(|(_, entry)| entry.energy)
            .sum()
    }

    /// All hosts with any collateral record, in UID order.
    pub fn hosts(&self) -> impl Iterator<Item = Uid> + '_ {
        self.host_slots().into_iter().map(|(uid, _)| uid)
    }

    /// Every touched host with its slot, in UID order.
    fn host_slots(&self) -> Vec<(Uid, UidSlot)> {
        let mut hosts: Vec<(Uid, UidSlot)> = self
            .interner
            .iter()
            .filter(|&(slot, _)| self.is_touched(slot))
            .filter_map(|(slot, entity)| entity.uid().map(|uid| (uid, slot)))
            .collect();
        hosts.sort_by_key(|&(uid, _)| uid);
        hosts
    }

    /// Whether any link anywhere is live (used by the overhead fast path:
    /// with no live links, accrual can be skipped wholesale). O(1).
    pub fn any_live_links(&self) -> bool {
        self.live_relations > 0
    }

    /// The canonical nested-pair view the graph serializes to and compares
    /// by: hosts in UID order, entries in entity order, including ended
    /// zero-energy entries (they stay on record).
    fn canonical(&self) -> Vec<(Uid, Vec<(Entity, CollateralEntry)>)> {
        self.host_slots()
            .into_iter()
            .map(|(uid, host_slot)| (uid, self.entries_of(host_slot)))
            .collect()
    }
}

impl PartialEq for CollateralGraph {
    fn eq(&self, other: &Self) -> bool {
        self.canonical() == other.canonical()
    }
}

impl Serialize for CollateralGraph {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Matches the historical `nested_map_pairs` wire format exactly.
        serializer.collect_seq(self.canonical())
    }
}

impl<'de> Deserialize<'de> for CollateralGraph {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let pairs: Vec<(Uid, Vec<(Entity, CollateralEntry)>)> = Vec::deserialize(deserializer)?;
        let mut graph = CollateralGraph::new();
        for (uid, entries) in pairs {
            let host = graph.interner.intern_uid(uid);
            graph.mark_touched(host);
            for (entity, entry) in entries {
                let entity_slot = graph.interner.intern(entity);
                if entry.links > 0 {
                    graph.index_live(host, entity_slot);
                }
                let cell = graph.cell_mut(host, entity_slot);
                cell.entry = entry;
                cell.created = true;
            }
        }
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uid(n: u32) -> Uid {
        Uid::from_raw(10_000 + n)
    }

    #[test]
    fn simple_attack_accrues_only_while_linked() {
        let mut graph = CollateralGraph::new();
        graph.accrue(Entity::App(uid(2)), Energy::from_joules(1.0));
        assert!(
            graph.collateral_total(uid(1)).is_zero(),
            "nothing before begin"
        );

        let tokens = graph.begin(uid(1), Entity::App(uid(2)), false);
        graph.accrue(Entity::App(uid(2)), Energy::from_joules(2.0));
        graph.end(&tokens);
        graph.accrue(Entity::App(uid(2)), Energy::from_joules(4.0));
        assert!((graph.collateral_total(uid(1)).as_joules() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn multi_collateral_attack_counts_energy_once() {
        // Figure 6: A binds B, starts B, interrupts B — three live links,
        // but B's joules are charged to A once each.
        let mut graph = CollateralGraph::new();
        let t1 = graph.begin(uid(1), Entity::App(uid(2)), true);
        let t2 = graph.begin(uid(1), Entity::App(uid(2)), false);
        let t3 = graph.begin(uid(1), Entity::App(uid(2)), false);
        assert_eq!(graph.links(uid(1), Entity::App(uid(2))), 3);

        graph.accrue(Entity::App(uid(2)), Energy::from_joules(10.0));
        assert!((graph.collateral_total(uid(1)).as_joules() - 10.0).abs() < 1e-12);

        // Ending two of three attacks keeps the relation alive.
        graph.end(&t1);
        graph.end(&t2);
        graph.accrue(Entity::App(uid(2)), Energy::from_joules(5.0));
        assert!((graph.collateral_total(uid(1)).as_joules() - 15.0).abs() < 1e-12);

        // Only after the last end does charging stop (§IV-B).
        graph.end(&t3);
        graph.accrue(Entity::App(uid(2)), Energy::from_joules(100.0));
        assert!((graph.collateral_total(uid(1)).as_joules() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn chain_propagates_to_parents() {
        // Figure 7: A binds B; B starts C; C attacks the screen.
        let mut graph = CollateralGraph::new();
        let _ab = graph.begin(uid(1), Entity::App(uid(2)), true);
        let _bc = graph.begin(uid(2), Entity::App(uid(3)), false);
        // A's map gained C through parent propagation.
        assert_eq!(graph.links(uid(1), Entity::App(uid(3))), 1);

        let _cs = graph.begin(uid(3), Entity::Screen, false);
        // The screen lands in C's, B's and A's maps.
        assert_eq!(graph.links(uid(3), Entity::Screen), 1);
        assert_eq!(graph.links(uid(2), Entity::Screen), 1);
        assert_eq!(graph.links(uid(1), Entity::Screen), 1);

        graph.accrue(Entity::Screen, Energy::from_joules(3.0));
        graph.accrue(Entity::App(uid(3)), Energy::from_joules(2.0));
        assert!((graph.collateral_total(uid(1)).as_joules() - 5.0).abs() < 1e-12);
        assert!((graph.collateral_total(uid(2)).as_joules() - 5.0).abs() < 1e-12);
        assert!((graph.collateral_total(uid(3)).as_joules() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn service_merge_pulls_existing_children() {
        // B already binds C (energy-intensive service); then A binds B:
        // Algorithm 1 lines 11–15 give A a link to C immediately.
        let mut graph = CollateralGraph::new();
        let _bc = graph.begin(uid(2), Entity::App(uid(3)), true);
        let ab = graph.begin(uid(1), Entity::App(uid(2)), true);
        assert_eq!(graph.links(uid(1), Entity::App(uid(3))), 1);

        // The merged link is A→B's token: ending A→B revokes it.
        graph.end(&ab);
        assert_eq!(graph.links(uid(1), Entity::App(uid(3))), 0);
        assert_eq!(graph.links(uid(1), Entity::App(uid(2))), 0);
        // B→C is untouched.
        assert_eq!(graph.links(uid(2), Entity::App(uid(3))), 1);
    }

    #[test]
    fn non_service_begin_does_not_merge_children() {
        let mut graph = CollateralGraph::new();
        let _bc = graph.begin(uid(2), Entity::App(uid(3)), true);
        let _ab = graph.begin(uid(1), Entity::App(uid(2)), false);
        assert_eq!(
            graph.links(uid(1), Entity::App(uid(3))),
            0,
            "activity starts do not merge the driven app's map"
        );
    }

    #[test]
    fn ended_entries_keep_their_energy_on_record() {
        let mut graph = CollateralGraph::new();
        let tokens = graph.begin(uid(1), Entity::App(uid(2)), false);
        graph.accrue(Entity::App(uid(2)), Energy::from_joules(7.0));
        graph.end(&tokens);
        let rows = graph.collateral_of(uid(1));
        assert_eq!(rows.len(), 1);
        assert!((rows[0].1.as_joules() - 7.0).abs() < 1e-12);
        assert!(!graph.any_live_links());
    }

    #[test]
    fn self_links_are_refused() {
        let mut graph = CollateralGraph::new();
        let tokens = graph.begin(uid(1), Entity::App(uid(1)), false);
        assert!(tokens.is_empty());
        assert_eq!(graph.links(uid(1), Entity::App(uid(1))), 0);
    }

    #[test]
    fn cycle_does_not_self_charge() {
        // A drives B, B drives A: each gets the other, nobody self-links.
        let mut graph = CollateralGraph::new();
        let _ab = graph.begin(uid(1), Entity::App(uid(2)), false);
        let _ba = graph.begin(uid(2), Entity::App(uid(1)), false);
        assert_eq!(graph.links(uid(1), Entity::App(uid(1))), 0);
        assert_eq!(graph.links(uid(2), Entity::App(uid(2))), 0);
        assert_eq!(graph.links(uid(1), Entity::App(uid(2))), 1);
        assert_eq!(graph.links(uid(2), Entity::App(uid(1))), 1);
    }

    #[test]
    fn end_is_token_exact() {
        let mut graph = CollateralGraph::new();
        let t1 = graph.begin(uid(1), Entity::App(uid(2)), false);
        let _t2 = graph.begin(uid(1), Entity::App(uid(2)), false);
        graph.end(&t1);
        assert_eq!(graph.links(uid(1), Entity::App(uid(2))), 1);
        graph.end(&t1); // double-end of the same token set saturates
        assert_eq!(graph.links(uid(1), Entity::App(uid(2))), 0);
    }

    #[test]
    fn serialized_graphs_round_trip() {
        let mut graph = CollateralGraph::new();
        let ab = graph.begin(uid(1), Entity::App(uid(2)), true);
        let _bs = graph.begin(uid(2), Entity::Screen, false);
        graph.accrue(Entity::App(uid(2)), Energy::from_joules(1.5));
        graph.accrue(Entity::Screen, Energy::from_joules(0.5));
        graph.end(&ab);
        let json = serde_json::to_string(&graph).unwrap();
        let mut roundtrip: CollateralGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(roundtrip, graph);
        assert_eq!(serde_json::to_string(&roundtrip).unwrap(), json);
        // The rebuilt link index keeps accruing exactly the live links.
        roundtrip.accrue(Entity::Screen, Energy::from_joules(1.0));
        graph.accrue(Entity::Screen, Energy::from_joules(1.0));
        assert_eq!(roundtrip, graph);
    }

    #[test]
    fn link_index_tracks_live_relations() {
        let mut graph = CollateralGraph::new();
        assert!(!graph.any_live_links());
        let t1 = graph.begin(uid(1), Entity::App(uid(2)), false);
        let t2 = graph.begin(uid(3), Entity::App(uid(2)), false);
        assert!(graph.any_live_links());
        graph.end(&t1);
        assert!(graph.any_live_links(), "one relation still live");
        graph.end(&t2);
        assert!(!graph.any_live_links());
        // Accrual after full teardown touches nothing.
        graph.accrue(Entity::App(uid(2)), Energy::from_joules(9.0));
        assert!(graph.collateral_total(uid(1)).is_zero());
        assert!(graph.collateral_total(uid(3)).is_zero());
    }
}
