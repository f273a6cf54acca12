//! The energy ledger: who consumed what, by component.
//!
//! # Hot-path storage
//!
//! [`charge`](EnergyLedger::charge) runs once per `(entity, component)` pair
//! per profiler tick, making it the single hottest write in the pipeline.
//! The ledger interns entities to [`UidSlot`]s and keeps one fixed-size
//! `[Energy; N]` row per entity (N = component count), so a charge is two
//! array indexes instead of two tree walks. Every query, comparison, and
//! serialization canonicalizes to entity/component order, and a row sums
//! in component order with exact-zero gaps, which leaves IEEE-754 sums
//! bit-identical to summing only the charged components. The root test
//! `tests/accounting_oracle.rs` checks all of it, down to the serialized
//! bytes, against a nested-`BTreeMap` model.

use std::collections::BTreeMap;

use serde::de::Deserializer;
use serde::ser::Serializer;
use serde::{Deserialize, Serialize};

use ea_power::{Component, Energy};

use crate::slot::SlotInterner;
use crate::Entity;

/// Per-component energy totals for one entity.
pub type ComponentBreakdown = BTreeMap<Component, Energy>;

const COMPONENTS: usize = Component::ALL.len();

/// One dense row: per-component energy plus a bitmask of the components
/// ever charged (distinguishes "never charged" from an exact-zero sum).
#[derive(Debug, Clone, Copy, Default)]
struct LedgerRow {
    energy: [Energy; COMPONENTS],
    mask: u8,
}

impl LedgerRow {
    fn total(&self) -> Energy {
        // Uncharged cells hold exact 0.0; adding them is an IEEE no-op, so
        // this sum is bit-identical to summing only the charged components
        // in component order, as a nested-map ledger adds them.
        self.energy.iter().copied().sum()
    }

    fn breakdown(&self) -> ComponentBreakdown {
        Component::ALL
            .iter()
            .filter(|&&component| self.mask & (1 << component as u8) != 0)
            .map(|&component| (component, self.energy[component as usize]))
            .collect()
    }
}

/// The base double-entry of every profiler: entity × component → energy.
///
/// # Example
///
/// ```
/// use ea_core::{EnergyLedger, Entity};
/// use ea_power::{Component, Energy};
///
/// let mut ledger = EnergyLedger::new();
/// ledger.charge(Entity::Screen, Component::Screen, Energy::from_joules(2.0));
/// ledger.charge(Entity::Screen, Component::Screen, Energy::from_joules(1.0));
/// assert!((ledger.total_of(Entity::Screen).as_joules() - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EnergyLedger {
    interner: SlotInterner,
    rows: Vec<LedgerRow>,
    /// Slots ever charged (fixed slots exist from birth but may stay
    /// empty; apps only get a row by being charged).
    touched: Vec<bool>,
}

impl EnergyLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        EnergyLedger::default()
    }

    /// Adds `energy` consumed by `entity` on `component`.
    #[inline]
    pub fn charge(&mut self, entity: Entity, component: Component, energy: Energy) {
        if energy.is_zero() {
            return;
        }
        let row = self.row_mut(entity);
        row.energy[component as usize] += energy;
        row.mask |= 1 << component as u8;
    }

    /// `entity`'s row, created (and marked charged) if missing. Inlined:
    /// it is the body of [`charge`](Self::charge), the hottest write.
    #[inline]
    fn row_mut(&mut self, entity: Entity) -> &mut LedgerRow {
        let slot = self.interner.intern(entity);
        if self.rows.len() <= slot.index() {
            self.rows.resize_with(slot.index() + 1, LedgerRow::default);
            self.touched.resize(slot.index() + 1, false);
        }
        self.touched[slot.index()] = true;
        &mut self.rows[slot.index()]
    }

    fn row(&self, entity: Entity) -> Option<&LedgerRow> {
        let slot = self.interner.slot_of(entity)?;
        if !self.touched.get(slot.index()).copied().unwrap_or(false) {
            return None;
        }
        self.rows.get(slot.index())
    }

    /// Total energy of one entity across components.
    pub fn total_of(&self, entity: Entity) -> Energy {
        self.row(entity)
            .map(LedgerRow::total)
            .unwrap_or(Energy::ZERO)
    }

    /// The per-component breakdown of one entity.
    pub fn breakdown_of(&self, entity: Entity) -> ComponentBreakdown {
        self.row(entity)
            .map(LedgerRow::breakdown)
            .unwrap_or_default()
    }

    /// Energy of one entity on one component.
    pub fn of(&self, entity: Entity, component: Component) -> Energy {
        self.row(entity)
            .map(|row| row.energy[component as usize])
            .unwrap_or(Energy::ZERO)
    }

    /// All charged entities, in entity order.
    fn sorted_entities(&self) -> Vec<Entity> {
        let mut entities: Vec<Entity> = self
            .interner
            .iter()
            .filter(|&(slot, _)| self.touched.get(slot.index()).copied().unwrap_or(false))
            .map(|(_, entity)| entity)
            .collect();
        entities.sort();
        entities
    }

    /// All entities with any charge, in stable order.
    pub fn entities(&self) -> impl Iterator<Item = Entity> + '_ {
        self.sorted_entities().into_iter()
    }

    /// `(entity, total)` pairs sorted by descending total — the battery
    /// interface ranking.
    pub fn ranking(&self) -> Vec<(Entity, Energy)> {
        let mut rows: Vec<(Entity, Energy)> = self
            .sorted_entities()
            .into_iter()
            .map(|entity| (entity, self.total_of(entity)))
            .collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        rows
    }

    /// Sum over all entities — must equal the battery drain (energy
    /// conservation; property-tested).
    pub fn grand_total(&self) -> Energy {
        self.sorted_entities()
            .into_iter()
            .map(|entity| self.total_of(entity))
            .sum()
    }

    /// An entity's share of the grand total, in percent (the unit of the
    /// paper's Figure 9 bars).
    pub fn percent_of(&self, entity: Entity) -> f64 {
        100.0 * self.total_of(entity).fraction_of(self.grand_total())
    }

    /// The canonical map view the ledger serializes to and compares by.
    fn canonical(&self) -> BTreeMap<Entity, ComponentBreakdown> {
        self.sorted_entities()
            .into_iter()
            .map(|entity| (entity, self.breakdown_of(entity)))
            .collect()
    }
}

impl PartialEq for EnergyLedger {
    fn eq(&self, other: &Self) -> bool {
        self.canonical() == other.canonical()
    }
}

/// The historical wire shape: `{"entries": [[entity, {component: energy}]]}`.
#[derive(Serialize, Deserialize)]
struct Wire {
    #[serde(with = "crate::serde_util::map_pairs")]
    entries: BTreeMap<Entity, ComponentBreakdown>,
}

impl Serialize for EnergyLedger {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        Wire {
            entries: self.canonical(),
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for EnergyLedger {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let wire = Wire::deserialize(deserializer)?;
        let mut ledger = EnergyLedger::new();
        for (entity, breakdown) in wire.entries {
            // Zero entries don't round-trip through charge(); preserve them
            // by writing the row directly.
            let row = ledger.row_mut(entity);
            for (component, energy) in breakdown {
                row.energy[component as usize] = energy;
                row.mask |= 1 << component as u8;
            }
        }
        Ok(ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_sim::Uid;

    fn app(n: u32) -> Entity {
        Entity::App(Uid::from_raw(10_000 + n))
    }

    #[test]
    fn charges_accumulate_per_component() {
        let mut ledger = EnergyLedger::new();
        ledger.charge(app(1), Component::Cpu, Energy::from_joules(1.0));
        ledger.charge(app(1), Component::Cpu, Energy::from_joules(2.0));
        ledger.charge(app(1), Component::Camera, Energy::from_joules(4.0));
        assert!((ledger.of(app(1), Component::Cpu).as_joules() - 3.0).abs() < 1e-12);
        assert!((ledger.total_of(app(1)).as_joules() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn zero_charges_create_no_rows() {
        let mut ledger = EnergyLedger::new();
        ledger.charge(app(1), Component::Cpu, Energy::ZERO);
        assert_eq!(ledger.entities().count(), 0);
    }

    #[test]
    fn ranking_sorts_descending() {
        let mut ledger = EnergyLedger::new();
        ledger.charge(app(1), Component::Cpu, Energy::from_joules(1.0));
        ledger.charge(app(2), Component::Cpu, Energy::from_joules(5.0));
        ledger.charge(Entity::Screen, Component::Screen, Energy::from_joules(3.0));
        let ranking = ledger.ranking();
        assert_eq!(ranking[0].0, app(2));
        assert_eq!(ranking[1].0, Entity::Screen);
        assert_eq!(ranking[2].0, app(1));
    }

    #[test]
    fn percent_sums_to_hundred() {
        let mut ledger = EnergyLedger::new();
        ledger.charge(app(1), Component::Cpu, Energy::from_joules(1.0));
        ledger.charge(app(2), Component::Cpu, Energy::from_joules(3.0));
        let sum: f64 = [app(1), app(2)]
            .iter()
            .map(|&entity| ledger.percent_of(entity))
            .sum();
        assert!((sum - 100.0).abs() < 1e-9);
        assert!((ledger.percent_of(app(2)) - 75.0).abs() < 1e-9);
    }

    #[test]
    fn empty_ledger_percent_is_zero() {
        let ledger = EnergyLedger::new();
        assert_eq!(ledger.percent_of(app(1)), 0.0);
        assert!(ledger.grand_total().is_zero());
    }

    #[test]
    fn serialized_ledgers_round_trip() {
        let mut ledger = EnergyLedger::new();
        // Charge out of entity order to exercise canonicalization.
        ledger.charge(Entity::System, Component::Cpu, Energy::from_joules(0.25));
        ledger.charge(app(9), Component::Wifi, Energy::from_joules(1.0));
        ledger.charge(app(2), Component::Cpu, Energy::from_joules(2.0));
        ledger.charge(Entity::Screen, Component::Screen, Energy::from_joules(3.0));
        let json = serde_json::to_string(&ledger).unwrap();
        let roundtrip: EnergyLedger = serde_json::from_str(&json).unwrap();
        assert_eq!(roundtrip, ledger);
        assert_eq!(serde_json::to_string(&roundtrip).unwrap(), json);
        assert_eq!(roundtrip.breakdown_of(app(9)), ledger.breakdown_of(app(9)));
    }
}
