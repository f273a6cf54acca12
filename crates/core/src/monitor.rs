//! The collateral monitor: lifecycle machines wired to the energy maps.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use ea_framework::TimedEvent;
use ea_power::ComponentDraw;
use ea_sim::{SimDuration, SimTime};
use ea_telemetry::{SinkHandle, TelemetryEvent};

use crate::accounting::collateral_consumers_into;
use crate::{
    AttackId, AttackInfo, CollateralGraph, Entity, LifecycleTracker, LinkToken, Transition,
};
use ea_power::Energy;

/// One attack period as recorded in the monitor's history: the lifecycle
/// info plus when (and whether) it ended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackRecord {
    /// The period's identity, parties, and start time.
    pub info: AttackInfo,
    /// When the period closed; `None` while still open.
    pub ended_at: Option<SimTime>,
}

impl AttackRecord {
    /// Whether the period is still open.
    pub fn is_open(&self) -> bool {
        self.ended_at.is_none()
    }
}

/// E-Android's framework extension plus energy maps, as one unit: feed it
/// the framework event stream and the per-interval component draws; read
/// back the collateral graph.
///
/// # Example
///
/// ```
/// use ea_core::CollateralMonitor;
///
/// let monitor = CollateralMonitor::new();
/// assert_eq!(monitor.graph().hosts().count(), 0);
/// ```
#[derive(Debug, Default)]
pub struct CollateralMonitor {
    tracker: LifecycleTracker,
    graph: CollateralGraph,
    tokens: BTreeMap<AttackId, Vec<LinkToken>>,
    history: Vec<AttackRecord>,
    history_index: BTreeMap<AttackId, usize>,
    telemetry: SinkHandle,
    /// The driving app's collateral total when each open period began, so
    /// the close event can report the energy accrued over the period.
    open_baseline: BTreeMap<AttackId, f64>,
    /// Scratch buffer reused across [`accrue`](Self::accrue) calls so the
    /// per-tick consumer split allocates nothing in steady state.
    consumers_scratch: Vec<(Entity, Energy)>,
}

impl CollateralMonitor {
    /// A monitor with no open attack periods, on the dense graph storage.
    pub fn new() -> Self {
        CollateralMonitor::default()
    }

    /// A monitor whose graph runs on the reference (nested-map) storage —
    /// the pre-optimization baseline used for validation and benchmarking.
    pub fn reference() -> Self {
        CollateralMonitor {
            graph: CollateralGraph::reference(),
            ..CollateralMonitor::default()
        }
    }

    /// Attaches a telemetry sink: attack open/close and lifecycle
    /// transitions are emitted as events, open periods drive the
    /// `attacks_open` gauge, and closed periods bump the per-kind
    /// `collateral_millijoules_total_*` counters.
    pub fn set_telemetry(&mut self, handle: SinkHandle) {
        self.telemetry = handle;
    }

    /// Processes a batch of framework events: attack periods open and close,
    /// links propagate per Algorithm 1.
    pub fn observe(&mut self, events: &[TimedEvent]) {
        let traced = self.telemetry.enabled();
        for event in events {
            for transition in self.tracker.observe(event) {
                if traced {
                    self.emit_transition(&transition);
                }
                match transition {
                    Transition::Begin(info) => {
                        if traced {
                            self.open_baseline.insert(
                                info.id,
                                self.graph.collateral_total(info.driving).as_joules(),
                            );
                        }
                        let tokens = self.graph.begin(
                            info.driving,
                            info.driven,
                            info.kind.is_service_like(),
                        );
                        self.tokens.insert(info.id, tokens);
                        self.history_index.insert(info.id, self.history.len());
                        self.history.push(AttackRecord {
                            info,
                            ended_at: None,
                        });
                    }
                    Transition::End { id, at } => {
                        if let Some(tokens) = self.tokens.remove(&id) {
                            self.graph.end(&tokens);
                        }
                        if let Some(&index) = self.history_index.get(&id) {
                            self.history[index].ended_at = Some(at);
                        }
                        if traced {
                            self.emit_close(id, at);
                        }
                    }
                }
            }
        }
        if traced {
            self.telemetry
                .gauge_set("attacks_open", self.tracker.active_count() as f64);
        }
    }

    fn emit_transition(&self, transition: &Transition) {
        match transition {
            Transition::Begin(info) => {
                self.telemetry.record_event(
                    info.started_at.as_millis() * 1_000,
                    TelemetryEvent::AttackOpened {
                        id: info.id.0,
                        kind: info.kind.label().to_string(),
                        attacker: info.driving.as_raw(),
                    },
                );
                self.telemetry.record_event(
                    info.started_at.as_millis() * 1_000,
                    TelemetryEvent::Lifecycle {
                        uid: info.driving.as_raw(),
                        transition: format!("Begin:{}", info.kind),
                    },
                );
            }
            Transition::End { id, at } => {
                // The AttackClosed payload needs the accrued energy, which
                // `emit_close` computes after the graph has settled; here
                // only the lifecycle edge itself is reported.
                if let Some(&index) = self.history_index.get(id) {
                    let info = &self.history[index].info;
                    self.telemetry.record_event(
                        at.as_millis() * 1_000,
                        TelemetryEvent::Lifecycle {
                            uid: info.driving.as_raw(),
                            transition: format!("End:{}", info.kind),
                        },
                    );
                }
            }
        }
    }

    fn emit_close(&mut self, id: AttackId, at: SimTime) {
        let Some(&index) = self.history_index.get(&id) else {
            return;
        };
        let info = &self.history[index].info;
        let baseline = self.open_baseline.remove(&id).unwrap_or(0.0);
        let accrued = (self.graph.collateral_total(info.driving).as_joules() - baseline).max(0.0);
        self.telemetry.record_event(
            at.as_millis() * 1_000,
            TelemetryEvent::AttackClosed {
                id: id.0,
                kind: info.kind.label().to_string(),
                attacker: info.driving.as_raw(),
                collateral_joules: accrued,
            },
        );
        self.telemetry.counter_add(
            &format!("collateral_millijoules_total_{}", info.kind),
            (accrued * 1_000.0) as u64,
        );
    }

    /// Accrues one interval's component draws into every live collateral
    /// link. Cheap when no attack period is open (the common case — this is
    /// the "almost no extra overhead when disabled/idle" property §VI-B
    /// measures).
    pub fn accrue(&mut self, draws: &[ComponentDraw], dt: SimDuration) {
        if !self.graph.any_live_links() {
            return;
        }
        let mut consumers = std::mem::take(&mut self.consumers_scratch);
        for draw in draws {
            collateral_consumers_into(draw, dt, &mut consumers);
            self.accrue_consumers(&consumers);
        }
        self.consumers_scratch = consumers;
    }

    /// [`accrue`](Self::accrue) with the draws already split into
    /// consumer energies by
    /// [`collateral_consumers_into`](crate::collateral_consumers_into),
    /// in draw order: the form a step that replays its draws uses.
    pub(crate) fn accrue_consumers(&mut self, consumers: &[(Entity, Energy)]) {
        if !self.graph.any_live_links() {
            return;
        }
        for &(entity, energy) in consumers {
            self.graph.accrue(entity, energy);
        }
    }

    /// The collateral energy maps.
    pub fn graph(&self) -> &CollateralGraph {
        &self.graph
    }

    /// The lifecycle machines (open attack periods).
    pub fn tracker(&self) -> &LifecycleTracker {
        &self.tracker
    }

    /// Every attack period ever observed, in begin order — the raw material
    /// of the Figure 6/7 timelines.
    pub fn attack_history(&self) -> &[AttackRecord] {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Entity;
    use ea_framework::{ChangeSource, FrameworkEvent};
    use ea_power::{Component, UsageShare};
    use ea_sim::{SimTime, Uid};

    fn uid(n: u32) -> Uid {
        Uid::from_raw(10_000 + n)
    }

    fn start_event(driving: Uid, driven: Uid) -> TimedEvent {
        TimedEvent {
            at: SimTime::ZERO,
            event: FrameworkEvent::ActivityStarted {
                source: ChangeSource::App(driving),
                driven,
                component: "Main".into(),
                via_resolver: false,
            },
        }
    }

    fn cpu_draw(target: Uid, power_mw: f64) -> ComponentDraw {
        ComponentDraw {
            component: Component::Cpu,
            power_mw,
            users: vec![UsageShare {
                uid: target,
                share: 1.0,
            }],
        }
    }

    #[test]
    fn observe_then_accrue_charges_the_driving_app() {
        let mut monitor = CollateralMonitor::new();
        monitor.observe(&[start_event(uid(1), uid(2))]);
        monitor.accrue(&[cpu_draw(uid(2), 1_000.0)], SimDuration::from_secs(10));
        let total = monitor.graph().collateral_total(uid(1));
        assert!((total.as_joules() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn accrue_without_attacks_is_a_noop() {
        let mut monitor = CollateralMonitor::new();
        monitor.accrue(&[cpu_draw(uid(2), 1_000.0)], SimDuration::from_secs(10));
        assert_eq!(monitor.graph().hosts().count(), 0);
    }

    #[test]
    fn end_event_stops_accrual() {
        let mut monitor = CollateralMonitor::new();
        monitor.observe(&[start_event(uid(1), uid(2))]);
        monitor.accrue(&[cpu_draw(uid(2), 1_000.0)], SimDuration::from_secs(1));
        // The user starts the driven app: the period ends.
        monitor.observe(&[TimedEvent {
            at: SimTime::from_secs(1),
            event: FrameworkEvent::ActivityStarted {
                source: ChangeSource::User,
                driven: uid(2),
                component: "Main".into(),
                via_resolver: false,
            },
        }]);
        monitor.accrue(&[cpu_draw(uid(2), 1_000.0)], SimDuration::from_secs(100));
        let total = monitor.graph().collateral_total(uid(1));
        assert!((total.as_joules() - 1.0).abs() < 1e-9);
        assert_eq!(monitor.tracker().active_count(), 0);
    }

    #[test]
    fn screen_energy_reaches_screen_links() {
        let mut monitor = CollateralMonitor::new();
        monitor.observe(&[TimedEvent {
            at: SimTime::ZERO,
            event: FrameworkEvent::BrightnessChanged {
                source: ChangeSource::App(uid(1)),
                old: 10,
                new: 255,
            },
        }]);
        let screen = ComponentDraw {
            component: Component::Screen,
            power_mw: 900.0,
            users: vec![UsageShare {
                uid: uid(9),
                share: 1.0,
            }],
        };
        monitor.accrue(&[screen], SimDuration::from_secs(10));
        let rows = monitor.graph().collateral_of(uid(1));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, Entity::Screen);
        assert!((rows[0].1.as_joules() - 9.0).abs() < 1e-9);
    }
}
