//! The accounting oracle: the production [`EnergyLedger`] and
//! [`CollateralGraph`] checked against a nested-`BTreeMap` model of each.
//!
//! The production types keep dense, slot-interned rows and a link index
//! for speed. The models below are the original nested-map
//! implementations, kept as they were written: every query walks the maps
//! in key order, every sum adds in entity/component order. The dense
//! storage must be observably identical to them on any operation stream —
//! the same `begin` tokens in the same order, the same entity order,
//! bit-identical totals and byte-identical serialized JSON.

use std::collections::BTreeMap;

use ea_core::{
    CollateralEntry, CollateralGraph, ComponentBreakdown, EnergyLedger, Entity, LinkToken,
};
use ea_power::{Component, Energy};
use ea_sim::Uid;
use proptest::prelude::*;
use serde::Serialize;

/// The nested-map ledger: entity → component → energy.
#[derive(Debug, Clone, Default)]
struct ReferenceLedger {
    entries: BTreeMap<Entity, ComponentBreakdown>,
}

impl ReferenceLedger {
    fn charge(&mut self, entity: Entity, component: Component, energy: Energy) {
        if energy.is_zero() {
            return;
        }
        *self
            .entries
            .entry(entity)
            .or_default()
            .entry(component)
            .or_insert(Energy::ZERO) += energy;
    }

    fn total_of(&self, entity: Entity) -> Energy {
        self.entries
            .get(&entity)
            .map(|breakdown| breakdown.values().copied().sum())
            .unwrap_or(Energy::ZERO)
    }

    fn breakdown_of(&self, entity: Entity) -> ComponentBreakdown {
        self.entries.get(&entity).cloned().unwrap_or_default()
    }

    fn of(&self, entity: Entity, component: Component) -> Energy {
        self.entries
            .get(&entity)
            .and_then(|breakdown| breakdown.get(&component))
            .copied()
            .unwrap_or(Energy::ZERO)
    }

    fn entities(&self) -> Vec<Entity> {
        self.entries.keys().copied().collect()
    }

    /// The ledger's wire shape: `{"entries": [[entity, {component: energy}]]}`.
    fn to_json(&self) -> String {
        #[derive(Serialize)]
        struct Wire {
            entries: Vec<(Entity, ComponentBreakdown)>,
        }
        serde_json::to_string(&Wire {
            entries: self.entries.clone().into_iter().collect(),
        })
        .expect("serialize model ledger")
    }
}

/// The nested-map, scan-all collateral graph: host → driven entity →
/// entry, with Algorithm 1's parent propagation and service merge.
#[derive(Debug, Clone, Default)]
struct ReferenceGraph {
    maps: BTreeMap<Uid, BTreeMap<Entity, CollateralEntry>>,
}

impl ReferenceGraph {
    fn add_link(&mut self, host: Uid, entity: Entity, tokens: &mut Vec<LinkToken>) {
        if entity == Entity::App(host) {
            return;
        }
        self.maps
            .entry(host)
            .or_default()
            .entry(entity)
            .or_default()
            .links += 1;
        tokens.push((host, entity));
    }

    fn parents_of(&self, uid: Uid) -> Vec<Uid> {
        self.maps
            .iter()
            .filter(|(_, map)| {
                map.get(&Entity::App(uid))
                    .is_some_and(|entry| entry.links > 0)
            })
            .map(|(&host, _)| host)
            .collect()
    }

    fn begin(&mut self, driving: Uid, driven: Entity, service_like: bool) -> Vec<LinkToken> {
        let mut tokens = Vec::new();
        let mut hosts = vec![driving];
        hosts.extend(self.parents_of(driving));

        for &host in &hosts {
            self.add_link(host, driven, &mut tokens);
        }

        if service_like {
            if let Entity::App(driven_uid) = driven {
                let children: Vec<Entity> = self
                    .maps
                    .get(&driven_uid)
                    .map(|map| {
                        map.iter()
                            .filter(|(_, entry)| entry.links > 0)
                            .map(|(&entity, _)| entity)
                            .collect()
                    })
                    .unwrap_or_default();
                for child in children {
                    for &host in &hosts {
                        self.add_link(host, child, &mut tokens);
                    }
                }
            }
        }
        tokens
    }

    fn end(&mut self, tokens: &[LinkToken]) {
        for &(host, entity) in tokens {
            if let Some(entry) = self
                .maps
                .get_mut(&host)
                .and_then(|map| map.get_mut(&entity))
            {
                entry.links = entry.links.saturating_sub(1);
            }
        }
    }

    fn accrue(&mut self, entity: Entity, energy: Energy) {
        if energy.is_zero() {
            return;
        }
        for map in self.maps.values_mut() {
            if let Some(entry) = map.get_mut(&entity) {
                if entry.links > 0 {
                    entry.energy += energy;
                }
            }
        }
    }

    fn links(&self, host: Uid, entity: Entity) -> usize {
        self.maps
            .get(&host)
            .and_then(|map| map.get(&entity))
            .map(|entry| entry.links)
            .unwrap_or(0)
    }

    fn collateral_of(&self, host: Uid) -> Vec<(Entity, Energy)> {
        self.maps
            .get(&host)
            .map(|map| {
                map.iter()
                    .filter(|(_, entry)| !entry.energy.is_zero() || entry.links > 0)
                    .map(|(&entity, entry)| (entity, entry.energy))
                    .collect()
            })
            .unwrap_or_default()
    }

    fn collateral_total(&self, host: Uid) -> Energy {
        self.maps
            .get(&host)
            .map(|map| map.values().map(|entry| entry.energy).sum())
            .unwrap_or(Energy::ZERO)
    }

    fn hosts(&self) -> Vec<Uid> {
        self.maps.keys().copied().collect()
    }

    fn any_live_links(&self) -> bool {
        self.maps
            .values()
            .any(|map| map.values().any(|entry| entry.links > 0))
    }

    /// The graph's wire shape: hosts in UID order, entries in entity
    /// order, ended zero-energy entries included.
    fn to_json(&self) -> String {
        let canonical: Vec<(Uid, Vec<(Entity, CollateralEntry)>)> = self
            .maps
            .iter()
            .map(|(&uid, map)| {
                (
                    uid,
                    map.iter()
                        .map(|(&entity, &entry)| (entity, entry))
                        .collect(),
                )
            })
            .collect();
        serde_json::to_string(&canonical).expect("serialize model graph")
    }
}

fn uid(n: u32) -> Uid {
    Uid::from_raw(10_000 + n)
}

/// Asserts the production ledger answers every query as the model does.
fn assert_ledger_matches(dense: &EnergyLedger, model: &ReferenceLedger) {
    let entities: Vec<Entity> = dense.entities().collect();
    assert_eq!(entities, model.entities(), "entity iteration order");
    for &entity in &entities {
        assert_eq!(
            dense.total_of(entity).as_joules().to_bits(),
            model.total_of(entity).as_joules().to_bits(),
            "{entity:?} total"
        );
        assert_eq!(dense.breakdown_of(entity), model.breakdown_of(entity));
        for component in Component::ALL {
            assert_eq!(
                dense.of(entity, component).as_joules().to_bits(),
                model.of(entity, component).as_joules().to_bits(),
                "{entity:?} {component:?}"
            );
        }
    }
    assert_eq!(
        serde_json::to_string(dense).expect("serialize ledger"),
        model.to_json(),
        "serialized bytes"
    );
}

/// Asserts the production graph answers every query as the model does.
fn assert_graph_matches(dense: &CollateralGraph, model: &ReferenceGraph) {
    assert_eq!(dense.any_live_links(), model.any_live_links());
    let hosts: Vec<Uid> = dense.hosts().collect();
    assert_eq!(hosts, model.hosts(), "host order");
    for &host in &hosts {
        // Bit-identical accrual, not approximate: the dense row sums in
        // the order the model adds.
        assert_eq!(
            dense.collateral_total(host).as_joules().to_bits(),
            model.collateral_total(host).as_joules().to_bits(),
            "host {host:?} total"
        );
        assert_eq!(dense.collateral_of(host), model.collateral_of(host));
        for n in 0..6 {
            for entity in [Entity::App(uid(n)), Entity::Screen] {
                assert_eq!(dense.links(host, entity), model.links(host, entity));
            }
        }
    }
    assert_eq!(
        serde_json::to_string(dense).expect("serialize graph"),
        model.to_json(),
        "serialized bytes"
    );
}

#[test]
fn out_of_order_charges_serialize_like_the_model() {
    let mut dense = EnergyLedger::new();
    let mut model = ReferenceLedger::default();
    // Charged out of entity order to exercise canonicalization.
    let charges = [
        (Entity::System, Component::Cpu, 0.25),
        (Entity::App(uid(9)), Component::Wifi, 1.0),
        (Entity::App(uid(2)), Component::Cpu, 2.0),
        (Entity::Screen, Component::Screen, 3.0),
        (Entity::App(uid(2)), Component::Camera, 0.1),
        (Entity::App(uid(2)), Component::Cpu, 0.2),
    ];
    for (entity, component, joules) in charges {
        dense.charge(entity, component, Energy::from_joules(joules));
        model.charge(entity, component, Energy::from_joules(joules));
    }
    assert_ledger_matches(&dense, &model);
}

#[test]
fn chain_with_an_ended_period_serializes_like_the_model() {
    let mut dense = CollateralGraph::new();
    let mut model = ReferenceGraph::default();
    let ab = dense.begin(uid(1), Entity::App(uid(2)), true);
    assert_eq!(ab, model.begin(uid(1), Entity::App(uid(2)), true));
    let bs = dense.begin(uid(2), Entity::Screen, false);
    assert_eq!(bs, model.begin(uid(2), Entity::Screen, false));
    for (entity, joules) in [(Entity::App(uid(2)), 1.5), (Entity::Screen, 0.5)] {
        dense.accrue(entity, Energy::from_joules(joules));
        model.accrue(entity, Energy::from_joules(joules));
    }
    dense.end(&ab);
    model.end(&ab);
    assert_graph_matches(&dense, &model);
}

#[derive(Debug, Clone)]
enum GraphOp {
    Begin {
        driving: u32,
        driven: u32,
        service: bool,
        to_screen: bool,
    },
    EndOldest,
    Accrue {
        entity: u32,
        joules: f64,
        screen: bool,
    },
}

fn graph_op() -> impl Strategy<Value = GraphOp> {
    prop_oneof![
        (0u32..6, 0u32..6, any::<bool>(), any::<bool>()).prop_map(
            |(driving, driven, service, to_screen)| GraphOp::Begin {
                driving,
                driven,
                service,
                to_screen
            }
        ),
        Just(GraphOp::EndOldest),
        (0u32..6, 0.0f64..10.0, any::<bool>()).prop_map(|(entity, joules, screen)| {
            GraphOp::Accrue {
                entity,
                joules,
                screen,
            }
        }),
    ]
}

proptest! {
    #[test]
    fn dense_and_reference_ledgers_agree(
        charges in proptest::collection::vec((0u32..70_000, 0usize..7, 0.001f64..50.0), 1..80),
        to_screen in proptest::collection::vec(any::<bool>(), 1..80)
    ) {
        // The slot-interned dense ledger and the nested-map model must be
        // observationally identical on any charge stream — including uids
        // far outside the interner's direct-index window.
        let mut dense = EnergyLedger::new();
        let mut model = ReferenceLedger::default();
        for (index, (n, component_index, joules)) in charges.iter().enumerate() {
            let entity = if to_screen[index % to_screen.len()] {
                Entity::Screen
            } else {
                Entity::App(uid(*n))
            };
            let energy = Energy::from_joules(*joules);
            dense.charge(entity, Component::ALL[*component_index], energy);
            model.charge(entity, Component::ALL[*component_index], energy);
        }
        assert_ledger_matches(&dense, &model);
    }

    #[test]
    fn dense_and_reference_graphs_agree(
        ops in proptest::collection::vec(graph_op(), 1..150)
    ) {
        let mut dense = CollateralGraph::new();
        let mut model = ReferenceGraph::default();
        let mut open: Vec<Vec<LinkToken>> = Vec::new();
        for op in ops {
            match op {
                GraphOp::Begin { driving, driven, service, to_screen } => {
                    let target = if to_screen { Entity::Screen } else { Entity::App(uid(driven)) };
                    let tokens = dense.begin(uid(driving), target, service);
                    prop_assert_eq!(
                        &tokens,
                        &model.begin(uid(driving), target, service),
                        "begin returns the same tokens"
                    );
                    open.push(tokens);
                }
                GraphOp::EndOldest => {
                    if !open.is_empty() {
                        let tokens = open.remove(0);
                        dense.end(&tokens);
                        model.end(&tokens);
                    }
                }
                GraphOp::Accrue { entity, joules, screen } => {
                    let target = if screen { Entity::Screen } else { Entity::App(uid(entity)) };
                    dense.accrue(target, Energy::from_joules(joules));
                    model.accrue(target, Energy::from_joules(joules));
                }
            }
            prop_assert_eq!(dense.any_live_links(), model.any_live_links());
        }
        assert_graph_matches(&dense, &model);
    }
}
