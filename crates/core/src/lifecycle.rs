//! The five attack-lifecycle state machines of Figure 5.
//!
//! E-Android does not guess at intent: it delimits *attack periods* —
//! spans during which one app is responsible for another entity's energy —
//! from framework events alone. One tracker per mechanism:
//!
//! * **Activity** (Fig. 5a): begins when app A starts app B's activity;
//!   ends when B is started again or brought to the front.
//! * **Interrupting activity** (Fig. 5b): begins when A forcibly displaces
//!   the foreground app B; ends when B returns to the front (or dies).
//! * **Service** (Fig. 5c): begins at cross-app `start`/`bind`; ends at
//!   `stop`/`stopSelf`/`unbind`.
//! * **Screen** (Fig. 5d): begins when an app raises the brightness in
//!   manual mode or flips auto→manual; ends when the app lowers it, the
//!   mode returns to auto, or the user takes over.
//! * **Wakelock** (Fig. 5e): begins when a screen-keeping wakelock is
//!   acquired in the background, or survives its holder leaving the
//!   foreground; ends at release.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use ea_framework::{ChangeSource, ConnectionId, FrameworkEvent, TimedEvent, WakelockId};
use ea_sim::{SimTime, Uid};

use crate::Entity;

/// A unique identifier for one attack period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AttackId(pub u64);

/// Which Figure-5 machine produced an attack period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttackKind {
    /// Fig. 5a — activity started by another app.
    ActivityStart,
    /// Fig. 5b — foreground app forcibly displaced.
    Interruption,
    /// Fig. 5c — cross-app `bindService`.
    ServiceBind,
    /// Fig. 5c — cross-app `startService`.
    ServiceStart,
    /// Fig. 5d — brightness / mode manipulation.
    ScreenConfig,
    /// Fig. 5e — screen wakelock held while not foreground.
    WakelockLeak,
}

impl AttackKind {
    /// Whether Algorithm 1 treats this kind as "service related" (the
    /// driven app's existing collateral map merges into the driving app's).
    pub fn is_service_like(self) -> bool {
        matches!(self, AttackKind::ServiceBind | AttackKind::ServiceStart)
    }

    /// A short stable label, used in telemetry metric names and traces.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AttackKind::ActivityStart => "ActivityStart",
            AttackKind::Interruption => "Interruption",
            AttackKind::ServiceBind => "ServiceBind",
            AttackKind::ServiceStart => "ServiceStart",
            AttackKind::ScreenConfig => "ScreenConfig",
            AttackKind::WakelockLeak => "WakelockLeak",
        }
    }
}

impl std::fmt::Display for AttackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A currently open attack period.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackInfo {
    /// Period id.
    pub id: AttackId,
    /// Producing machine.
    pub kind: AttackKind,
    /// The driving (responsible) app.
    pub driving: Uid,
    /// The driven entity whose energy is collateral.
    pub driven: Entity,
    /// When the period opened.
    pub started_at: SimTime,
}

/// A lifecycle edge produced by [`LifecycleTracker::observe`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Transition {
    /// An attack period opened.
    Begin(AttackInfo),
    /// An attack period closed.
    End {
        /// The period that closed.
        id: AttackId,
        /// When.
        at: SimTime,
    },
}

/// Runs all five state machines over the framework event stream.
///
/// # Example
///
/// ```
/// use ea_core::{AttackKind, LifecycleTracker, Transition};
/// use ea_framework::{ChangeSource, FrameworkEvent, TimedEvent};
/// use ea_sim::{SimTime, Uid};
///
/// let malware = Uid::from_raw(10_000);
/// let victim = Uid::from_raw(10_001);
/// let mut tracker = LifecycleTracker::new();
/// let transitions = tracker.observe(&TimedEvent {
///     at: SimTime::ZERO,
///     event: FrameworkEvent::ActivityStarted {
///         source: ChangeSource::App(malware),
///         driven: victim,
///         component: "Main".into(),
///         via_resolver: false,
///     },
/// });
/// assert!(matches!(&transitions[0], Transition::Begin(info)
///     if info.kind == AttackKind::ActivityStart && info.driving == malware));
/// ```
#[derive(Debug, Default)]
pub struct LifecycleTracker {
    next_id: u64,
    active: BTreeMap<AttackId, AttackInfo>,

    activity_by_driven: BTreeMap<Uid, AttackId>,
    interrupt_by_victim: BTreeMap<Uid, AttackId>,
    bind_by_connection: BTreeMap<ConnectionId, AttackId>,
    start_by_service: BTreeMap<(Uid, String), AttackId>,
    screen_by_driver: BTreeMap<Uid, AttackId>,
    wakelock_by_id: BTreeMap<WakelockId, AttackId>,

    /// Screen-keeping wakelocks currently held: id → holder.
    held_screen_locks: BTreeMap<WakelockId, Uid>,
}

impl LifecycleTracker {
    /// A tracker with no open periods.
    pub fn new() -> Self {
        LifecycleTracker::default()
    }

    /// Number of open periods.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Feeds one framework event through all machines; returns the lifecycle
    /// edges it produced, ends before begins.
    pub fn observe(&mut self, timed: &TimedEvent) -> Vec<Transition> {
        let at = timed.at;
        let mut out = Vec::new();
        match &timed.event {
            FrameworkEvent::ActivityStarted { source, driven, .. } => {
                // Starting the app again ends its previous periods (5a/5b).
                self.end_activity_attacks_on(*driven, at, &mut out);
                if let ChangeSource::App(driving) = source {
                    self.maybe_begin_app_attack(
                        AttackKind::ActivityStart,
                        *driving,
                        *driven,
                        at,
                        &mut out,
                    );
                }
            }
            FrameworkEvent::ActivityMovedToFront { source, uid } => {
                self.end_activity_attacks_on(*uid, at, &mut out);
                if let ChangeSource::App(driving) = source {
                    self.maybe_begin_app_attack(
                        AttackKind::ActivityStart,
                        *driving,
                        *uid,
                        at,
                        &mut out,
                    );
                }
            }
            FrameworkEvent::AppResumedToFront { uid } => {
                self.end_activity_attacks_on(*uid, at, &mut out);
            }
            FrameworkEvent::AppInterrupted {
                interrupter: ChangeSource::App(driving),
                victim,
            } => {
                if let Some(id) = self.interrupt_by_victim.remove(victim) {
                    self.end(id, at, &mut out);
                }
                self.maybe_begin_app_attack(
                    AttackKind::Interruption,
                    *driving,
                    *victim,
                    at,
                    &mut out,
                );
            }
            FrameworkEvent::ServiceBound {
                source: ChangeSource::App(driving),
                driven,
                connection,
                ..
            } => {
                if let Some(info) =
                    self.begin_app_attack(AttackKind::ServiceBind, *driving, *driven, at)
                {
                    self.bind_by_connection.insert(*connection, info.id);
                    out.push(Transition::Begin(info));
                }
            }
            FrameworkEvent::ServiceUnbound { connection, .. } => {
                if let Some(id) = self.bind_by_connection.remove(connection) {
                    self.end(id, at, &mut out);
                }
            }
            FrameworkEvent::ServiceStarted {
                source,
                driven,
                component,
            } => {
                if let Some(id) = self.start_by_service.remove(&(*driven, component.clone())) {
                    self.end(id, at, &mut out);
                }
                if let ChangeSource::App(driving) = source {
                    if let Some(info) =
                        self.begin_app_attack(AttackKind::ServiceStart, *driving, *driven, at)
                    {
                        self.start_by_service
                            .insert((*driven, component.clone()), info.id);
                        out.push(Transition::Begin(info));
                    }
                }
            }
            FrameworkEvent::ServiceStopped {
                driven, component, ..
            } => {
                if let Some(id) = self.start_by_service.remove(&(*driven, component.clone())) {
                    self.end(id, at, &mut out);
                }
            }
            FrameworkEvent::WakelockAcquired {
                uid,
                id,
                kind,
                in_foreground,
            } if kind.keeps_screen_on() && !uid.is_system() => {
                self.held_screen_locks.insert(*id, *uid);
                if !in_foreground {
                    self.begin_wakelock_attack(*id, *uid, at, &mut out);
                }
            }
            FrameworkEvent::WakelockReleased { id, .. } => {
                self.held_screen_locks.remove(id);
                if let Some(attack) = self.wakelock_by_id.remove(id) {
                    self.end(attack, at, &mut out);
                }
            }
            FrameworkEvent::ForegroundChanged {
                from: Some(from), ..
            } => {
                // The departing app still holds screen wakelocks: every such
                // lock opens a leak period (Fig. 5e, "not releasing before
                // entering background").
                let leaked: Vec<WakelockId> = self
                    .held_screen_locks
                    .iter()
                    .filter(|(lock_id, holder)| {
                        **holder == *from && !self.wakelock_by_id.contains_key(lock_id)
                    })
                    .map(|(lock_id, _)| *lock_id)
                    .collect();
                for lock_id in leaked {
                    self.begin_wakelock_attack(lock_id, *from, at, &mut out);
                }
            }
            FrameworkEvent::BrightnessChanged { source, old, new } => match source {
                ChangeSource::App(driving) if !driving.is_system() => {
                    if new > old {
                        self.begin_screen_attack(*driving, at, &mut out);
                    } else if new < old {
                        if let Some(id) = self.screen_by_driver.remove(driving) {
                            self.end(id, at, &mut out);
                        }
                    }
                }
                ChangeSource::User => self.end_all_screen_attacks(at, &mut out),
                _ => {}
            },
            FrameworkEvent::BrightnessModeChanged {
                source, to_manual, ..
            } => match source {
                ChangeSource::App(driving) if !driving.is_system() => {
                    if *to_manual {
                        self.begin_screen_attack(*driving, at, &mut out);
                    } else if let Some(id) = self.screen_by_driver.remove(driving) {
                        self.end(id, at, &mut out);
                    }
                }
                ChangeSource::User => self.end_all_screen_attacks(at, &mut out),
                _ => {}
            },
            FrameworkEvent::ProcessDied { uid } => {
                self.held_screen_locks.retain(|_, holder| holder != uid);
                let involved: Vec<AttackId> = self
                    .active
                    .values()
                    .filter(|info| info.driving == *uid || info.driven == Entity::App(*uid))
                    .map(|info| info.id)
                    .collect();
                for id in involved {
                    self.end(id, at, &mut out);
                }
            }
            _ => {}
        }
        out
    }

    // ------------------------------------------------------------------

    fn fresh_id(&mut self) -> AttackId {
        let id = AttackId(self.next_id);
        self.next_id += 1;
        id
    }

    fn maybe_begin_app_attack(
        &mut self,
        kind: AttackKind,
        driving: Uid,
        driven: Uid,
        at: SimTime,
        out: &mut Vec<Transition>,
    ) {
        if let Some(info) = self.begin_app_attack(kind, driving, driven, at) {
            match kind {
                AttackKind::ActivityStart => {
                    self.activity_by_driven.insert(driven, info.id);
                }
                AttackKind::Interruption => {
                    self.interrupt_by_victim.insert(driven, info.id);
                }
                _ => {}
            }
            out.push(Transition::Begin(info));
        }
    }

    /// Begins an app→app attack if the pair qualifies (distinct, neither a
    /// system app).
    fn begin_app_attack(
        &mut self,
        kind: AttackKind,
        driving: Uid,
        driven: Uid,
        at: SimTime,
    ) -> Option<AttackInfo> {
        if driving == driven || driving.is_system() || driven.is_system() {
            return None;
        }
        let info = AttackInfo {
            id: self.fresh_id(),
            kind,
            driving,
            driven: Entity::App(driven),
            started_at: at,
        };
        self.active.insert(info.id, info.clone());
        Some(info)
    }

    fn begin_screen_attack(&mut self, driving: Uid, at: SimTime, out: &mut Vec<Transition>) {
        if self.screen_by_driver.contains_key(&driving) {
            return; // already attacking; extend the open period
        }
        let info = AttackInfo {
            id: self.fresh_id(),
            kind: AttackKind::ScreenConfig,
            driving,
            driven: Entity::Screen,
            started_at: at,
        };
        self.screen_by_driver.insert(driving, info.id);
        self.active.insert(info.id, info.clone());
        out.push(Transition::Begin(info));
    }

    fn begin_wakelock_attack(
        &mut self,
        lock: WakelockId,
        holder: Uid,
        at: SimTime,
        out: &mut Vec<Transition>,
    ) {
        if self.wakelock_by_id.contains_key(&lock) || holder.is_system() {
            return;
        }
        let info = AttackInfo {
            id: self.fresh_id(),
            kind: AttackKind::WakelockLeak,
            driving: holder,
            driven: Entity::Screen,
            started_at: at,
        };
        self.wakelock_by_id.insert(lock, info.id);
        self.active.insert(info.id, info.clone());
        out.push(Transition::Begin(info));
    }

    fn end_activity_attacks_on(&mut self, driven: Uid, at: SimTime, out: &mut Vec<Transition>) {
        if let Some(id) = self.activity_by_driven.remove(&driven) {
            self.end(id, at, out);
        }
        if let Some(id) = self.interrupt_by_victim.remove(&driven) {
            self.end(id, at, out);
        }
    }

    fn end_all_screen_attacks(&mut self, at: SimTime, out: &mut Vec<Transition>) {
        let ids: Vec<AttackId> = self.screen_by_driver.values().copied().collect();
        self.screen_by_driver.clear();
        for id in ids {
            self.end(id, at, out);
        }
    }

    fn end(&mut self, id: AttackId, at: SimTime, out: &mut Vec<Transition>) {
        if self.active.remove(&id).is_some() {
            // Clean any secondary index still pointing at the period.
            self.activity_by_driven.retain(|_, v| *v != id);
            self.interrupt_by_victim.retain(|_, v| *v != id);
            self.bind_by_connection.retain(|_, v| *v != id);
            self.start_by_service.retain(|_, v| *v != id);
            self.screen_by_driver.retain(|_, v| *v != id);
            self.wakelock_by_id.retain(|_, v| *v != id);
            out.push(Transition::End { id, at });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_framework::WakelockKind;

    fn uid(n: u32) -> Uid {
        Uid::from_raw(10_000 + n)
    }

    fn at(seconds: u64, event: FrameworkEvent) -> TimedEvent {
        TimedEvent {
            at: SimTime::from_secs(seconds),
            event,
        }
    }

    fn started(source: ChangeSource, driven: Uid) -> FrameworkEvent {
        FrameworkEvent::ActivityStarted {
            source,
            driven,
            component: "Main".into(),
            via_resolver: false,
        }
    }

    #[test]
    fn activity_attack_begins_and_ends_on_restart() {
        let mut tracker = LifecycleTracker::new();
        let begins = tracker.observe(&at(0, started(ChangeSource::App(uid(1)), uid(2))));
        assert_eq!(begins.len(), 1);
        assert_eq!(tracker.active_count(), 1);

        // The user starts the driven app themselves: the period closes.
        let ends = tracker.observe(&at(10, started(ChangeSource::User, uid(2))));
        assert!(matches!(ends[0], Transition::End { .. }));
        assert_eq!(tracker.active_count(), 0);
    }

    #[test]
    fn restart_by_other_app_rolls_the_period() {
        let mut tracker = LifecycleTracker::new();
        tracker.observe(&at(0, started(ChangeSource::App(uid(1)), uid(2))));
        let transitions = tracker.observe(&at(5, started(ChangeSource::App(uid(3)), uid(2))));
        // EndLastAttack(app_n), then the new attack begins.
        assert!(matches!(transitions[0], Transition::End { .. }));
        assert!(matches!(&transitions[1], Transition::Begin(info) if info.driving == uid(3)));
        assert_eq!(tracker.active_count(), 1);
    }

    #[test]
    fn same_app_and_system_starts_are_not_attacks() {
        let mut tracker = LifecycleTracker::new();
        assert!(tracker
            .observe(&at(0, started(ChangeSource::App(uid(2)), uid(2))))
            .is_empty());
        assert!(tracker
            .observe(&at(0, started(ChangeSource::User, uid(2))))
            .is_empty());
        let launcher = Uid::from_raw(1_001);
        assert!(tracker
            .observe(&at(0, started(ChangeSource::App(uid(1)), launcher)))
            .is_empty());
    }

    #[test]
    fn interruption_ends_when_victim_returns() {
        let mut tracker = LifecycleTracker::new();
        tracker.observe(&at(
            0,
            FrameworkEvent::AppInterrupted {
                interrupter: ChangeSource::App(uid(9)),
                victim: uid(2),
            },
        ));
        assert_eq!(tracker.active_count(), 1);
        let ends = tracker.observe(&at(30, FrameworkEvent::AppResumedToFront { uid: uid(2) }));
        assert!(matches!(ends[0], Transition::End { .. }));
    }

    #[test]
    fn bind_attack_keyed_by_connection() {
        let mut tracker = LifecycleTracker::new();
        tracker.observe(&at(
            0,
            FrameworkEvent::ServiceBound {
                source: ChangeSource::App(uid(1)),
                driven: uid(2),
                component: "Worker".into(),
                connection: ConnectionId(7),
            },
        ));
        assert_eq!(tracker.active_count(), 1);
        let ends = tracker.observe(&at(
            60,
            FrameworkEvent::ServiceUnbound {
                source: ChangeSource::App(uid(1)),
                driven: uid(2),
                component: "Worker".into(),
                connection: ConnectionId(7),
                still_running: false,
            },
        ));
        assert!(matches!(ends[0], Transition::End { .. }));
        assert_eq!(tracker.active_count(), 0);
    }

    #[test]
    fn started_service_attack_ends_on_stop() {
        let mut tracker = LifecycleTracker::new();
        tracker.observe(&at(
            0,
            FrameworkEvent::ServiceStarted {
                source: ChangeSource::App(uid(1)),
                driven: uid(2),
                component: "Worker".into(),
            },
        ));
        let ends = tracker.observe(&at(
            5,
            FrameworkEvent::ServiceStopped {
                source: ChangeSource::App(uid(2)),
                driven: uid(2),
                component: "Worker".into(),
                still_running: false,
            },
        ));
        assert!(matches!(ends[0], Transition::End { .. }));
    }

    #[test]
    fn background_wakelock_acquire_opens_leak() {
        let mut tracker = LifecycleTracker::new();
        let begins = tracker.observe(&at(
            0,
            FrameworkEvent::WakelockAcquired {
                uid: uid(1),
                id: WakelockId(3),
                kind: WakelockKind::Full,
                in_foreground: false,
            },
        ));
        assert!(matches!(&begins[0], Transition::Begin(info)
            if info.kind == AttackKind::WakelockLeak && info.driven == Entity::Screen));
        let ends = tracker.observe(&at(
            9,
            FrameworkEvent::WakelockReleased {
                uid: uid(1),
                id: WakelockId(3),
                on_death: false,
            },
        ));
        assert!(matches!(ends[0], Transition::End { .. }));
    }

    #[test]
    fn foreground_acquire_leaks_only_after_backgrounding() {
        let mut tracker = LifecycleTracker::new();
        let none = tracker.observe(&at(
            0,
            FrameworkEvent::WakelockAcquired {
                uid: uid(1),
                id: WakelockId(3),
                kind: WakelockKind::Full,
                in_foreground: true,
            },
        ));
        assert!(none.is_empty());
        // The holder leaves the foreground without releasing.
        let begins = tracker.observe(&at(
            10,
            FrameworkEvent::ForegroundChanged {
                from: Some(uid(1)),
                to: Some(uid(2)),
                cause: ea_framework::ForegroundCause::Home,
            },
        ));
        assert!(matches!(&begins[0], Transition::Begin(info)
            if info.kind == AttackKind::WakelockLeak && info.driving == uid(1)));
    }

    #[test]
    fn partial_wakelock_is_not_a_screen_leak() {
        let mut tracker = LifecycleTracker::new();
        let none = tracker.observe(&at(
            0,
            FrameworkEvent::WakelockAcquired {
                uid: uid(1),
                id: WakelockId(3),
                kind: WakelockKind::Partial,
                in_foreground: false,
            },
        ));
        assert!(none.is_empty());
    }

    #[test]
    fn brightness_increase_then_user_override() {
        let mut tracker = LifecycleTracker::new();
        let begins = tracker.observe(&at(
            0,
            FrameworkEvent::BrightnessChanged {
                source: ChangeSource::App(uid(1)),
                old: 10,
                new: 200,
            },
        ));
        assert!(matches!(&begins[0], Transition::Begin(info)
            if info.kind == AttackKind::ScreenConfig));
        // The user resets brightness: every screen attack ends.
        let ends = tracker.observe(&at(
            30,
            FrameworkEvent::BrightnessChanged {
                source: ChangeSource::User,
                old: 200,
                new: 10,
            },
        ));
        assert!(matches!(ends[0], Transition::End { .. }));
        assert_eq!(tracker.active_count(), 0);
    }

    #[test]
    fn brightness_decrease_by_attacker_ends_its_own_attack() {
        let mut tracker = LifecycleTracker::new();
        tracker.observe(&at(
            0,
            FrameworkEvent::BrightnessChanged {
                source: ChangeSource::App(uid(1)),
                old: 10,
                new: 200,
            },
        ));
        let ends = tracker.observe(&at(
            5,
            FrameworkEvent::BrightnessChanged {
                source: ChangeSource::App(uid(1)),
                old: 200,
                new: 10,
            },
        ));
        assert!(matches!(ends[0], Transition::End { .. }));
    }

    #[test]
    fn mode_flip_to_manual_is_an_attack_begin() {
        let mut tracker = LifecycleTracker::new();
        let begins = tracker.observe(&at(
            0,
            FrameworkEvent::BrightnessModeChanged {
                source: ChangeSource::App(uid(1)),
                to_manual: true,
                old: 60,
                new: 255,
            },
        ));
        assert!(matches!(&begins[0], Transition::Begin(info)
            if info.kind == AttackKind::ScreenConfig && info.driving == uid(1)));
    }

    #[test]
    fn repeated_brightness_increases_extend_one_period() {
        let mut tracker = LifecycleTracker::new();
        tracker.observe(&at(
            0,
            FrameworkEvent::BrightnessChanged {
                source: ChangeSource::App(uid(1)),
                old: 10,
                new: 100,
            },
        ));
        let again = tracker.observe(&at(
            1,
            FrameworkEvent::BrightnessChanged {
                source: ChangeSource::App(uid(1)),
                old: 100,
                new: 200,
            },
        ));
        assert!(again.is_empty(), "still the same open period");
        assert_eq!(tracker.active_count(), 1);
    }

    #[test]
    fn process_death_closes_everything_involving_the_app() {
        let mut tracker = LifecycleTracker::new();
        tracker.observe(&at(0, started(ChangeSource::App(uid(1)), uid(2))));
        tracker.observe(&at(
            0,
            FrameworkEvent::ServiceBound {
                source: ChangeSource::App(uid(1)),
                driven: uid(3),
                component: "W".into(),
                connection: ConnectionId(1),
            },
        ));
        assert_eq!(tracker.active_count(), 2);
        tracker.observe(&at(5, FrameworkEvent::ProcessDied { uid: uid(1) }));
        assert_eq!(tracker.active_count(), 0);
    }
}
