//! The `AndroidSystem` orchestrator.
//!
//! One struct owns the kernel substrate (clock, processes, Binder,
//! scheduler) and every framework service the paper instruments (activity
//! manager, task stack, power manager, settings, window state). Public
//! methods mirror the app-visible and user-visible operations; each emits
//! the [`FrameworkEvent`]s that E-Android's monitor consumes.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use ea_chaos::{FaultLog, FrameworkFaults, IntentFate};
use ea_power::{CameraUse, CpuUse, DeviceUsage, RadioUse, ScreenUsage};
use ea_sim::{
    BinderBus, Clock, CpuScheduler, EventQueue, Pid, ProcessTable, SimDuration, SimTime,
    TransactionKind, Uid,
};
use ea_telemetry::{SinkHandle, TelemetryEvent, TelemetrySink};

use crate::{
    ActivityId, ActivityRecord, ActivityState, AppBehavior, AppManifest, Cause, ChangeSource,
    ComponentKind, ConnectionId, ForegroundCause, FrameworkError, FrameworkEvent, Intent,
    IntentLog, IntentLogDump, IntentLogRecorder, LifecycleOp, LifecycleReducer, Permission,
    Routine, ServiceRecord, SettingsProvider, SurfaceFlinger, TaskStack, TimedEvent, Wakelock,
    WakelockId, WakelockKind, INTENT_LOG_CAPACITY,
};

/// Packages installed as system apps at boot. E-Android excludes these from
/// the collateral attack list but still logs their events as chain links.
pub const SYSTEM_PACKAGES: [&str; 3] = ["android.launcher", "android.systemui", "android.resolver"];

/// The process-wide source of usage epochs: every bump draws a value no
/// other system, and no earlier state of this one, has carried. `Relaxed`
/// suffices: the counter publishes no other data, and `fetch_add` alone
/// makes every value unique.
static NEXT_USAGE_EPOCH: AtomicU64 = AtomicU64::new(1);

fn fresh_usage_epoch() -> u64 {
    NEXT_USAGE_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// Result of `start_activity` for implicit intents that need the chooser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StartResult {
    /// The activity started; the driven app's UID.
    Started(Uid),
    /// Several handlers matched; the resolver UI is showing. Candidates are
    /// `(package, component)` pairs; complete with
    /// [`AndroidSystem::user_resolve`].
    NeedsResolver(Vec<(String, String)>),
}

/// Outcome of the user tapping "OK" on an exit dialog (malware #4 hinges on
/// intercepting this tap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapOutcome {
    /// The tap reached the dialog; the app was destroyed.
    AppDestroyed,
    /// A transparent overlay swallowed the tap; the overlay's app is
    /// returned and the dialog was dismissed without destroying anything.
    InterceptedBy(Uid),
}

/// An installed app.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstalledApp {
    /// Sandbox identity.
    pub uid: Uid,
    /// The manifest it was installed with.
    pub manifest: AppManifest,
    /// Resource behaviour profile.
    pub behavior: AppBehavior,
    /// Its process, once anything of it has run.
    pub pid: Option<Pid>,
    /// Extra scripted CPU demand (cores), e.g. video encoding.
    pub extra_demand: f64,
}

impl InstalledApp {
    /// Whether this is a boot-time system app.
    pub fn is_system(&self) -> bool {
        self.uid.is_system()
    }
}

#[derive(Debug, Clone)]
struct PendingResolver {
    caller: Uid,
    candidates: Vec<(Uid, String)>,
}

/// Lifecycle bookkeeping: the desired-state reducer, the bounded
/// per-device intent log, and the optional supervisor-shared mirror.
#[derive(Debug)]
struct LifecycleCore {
    reducer: LifecycleReducer,
    log: IntentLog,
    recorder: Option<Arc<IntentLogRecorder>>,
    /// Scripted framing for the next transitions (attack vector firing,
    /// benign routine), overriding event-intrinsic causes.
    ambient: Option<Cause>,
    /// Transient reconciler framing (`Cause::Sweep`), overriding both.
    sweeping: bool,
}

impl LifecycleCore {
    fn new() -> Self {
        LifecycleCore {
            reducer: LifecycleReducer::new(),
            log: IntentLog::new(INTENT_LOG_CAPACITY),
            recorder: None,
            ambient: None,
            sweeping: false,
        }
    }

    fn resolve(&self, intrinsic: Cause) -> Cause {
        if self.sweeping {
            Cause::Sweep
        } else {
            self.ambient.unwrap_or(intrinsic)
        }
    }
}

/// The simulated Android system. See the crate docs for an end-to-end
/// example.
#[derive(Debug)]
pub struct AndroidSystem {
    clock: Clock,
    processes: ProcessTable,
    binder: BinderBus,
    sched: CpuScheduler,

    apps: BTreeMap<Uid, InstalledApp>,
    packages: BTreeMap<String, Uid>,
    next_uid: Uid,

    activities: BTreeMap<ActivityId, ActivityRecord>,
    stack: TaskStack,
    next_activity: u64,

    services: BTreeMap<(Uid, String), ServiceRecord>,
    connections: BTreeMap<ConnectionId, (Uid, Uid, String)>,
    next_connection: u64,

    wakelocks: BTreeMap<WakelockId, Wakelock>,
    next_wakelock: u64,

    settings: SettingsProvider,
    surfaceflinger: SurfaceFlinger,

    screen_on: bool,
    screen_luma: f64,
    last_user_activity: SimTime,
    screen_timeout: SimDuration,

    camera: Option<CameraUse>,
    audio: BTreeSet<Uid>,
    gps: BTreeSet<Uid>,
    wifi: BTreeMap<Uid, f64>,
    cellular: BTreeMap<Uid, f64>,

    launcher: Uid,
    system_ui: Uid,

    pending_resolver: Option<PendingResolver>,
    quit_dialog_for: Option<Uid>,

    last_foreground: Option<Uid>,
    events: Vec<TimedEvent>,
    recording: bool,
    telemetry: SinkHandle,

    /// Fault injection (chaos testing), when attached.
    faults: Option<Box<FrameworkFaults>>,
    /// Death notifications delayed by binder faults: the wakelocks whose
    /// link-to-death should have fired, due at the scheduled instant.
    deferred_death_locks: EventQueue<WakelockId>,
    /// Last time the power-manager sweep reconciled leaked wakelocks.
    last_fault_sweep: SimTime,
    /// The lifecycle intent core (reducer + log).
    lifecycle: Box<LifecycleCore>,
    /// Bumped at every write a usage snapshot reads; see
    /// [`AndroidSystem::usage_epoch`].
    usage_epoch: u64,
}

impl AndroidSystem {
    /// Boots a device: system apps installed, screen on, launcher in front.
    pub fn new() -> Self {
        let mut system = AndroidSystem {
            clock: Clock::new(),
            processes: ProcessTable::new(),
            binder: BinderBus::new(),
            sched: CpuScheduler::new(4.0),
            apps: BTreeMap::new(),
            packages: BTreeMap::new(),
            next_uid: Uid::FIRST_APP,
            activities: BTreeMap::new(),
            stack: TaskStack::new(),
            next_activity: 1,
            services: BTreeMap::new(),
            connections: BTreeMap::new(),
            next_connection: 1,
            wakelocks: BTreeMap::new(),
            next_wakelock: 1,
            settings: SettingsProvider::new(),
            surfaceflinger: SurfaceFlinger::new(),
            screen_on: true,
            screen_luma: 0.55,
            last_user_activity: SimTime::ZERO,
            screen_timeout: SimDuration::from_secs(30),
            camera: None,
            audio: BTreeSet::new(),
            gps: BTreeSet::new(),
            wifi: BTreeMap::new(),
            cellular: BTreeMap::new(),
            launcher: Uid::from_raw(1_001),
            system_ui: Uid::from_raw(1_002),
            pending_resolver: None,
            quit_dialog_for: None,
            last_foreground: None,
            events: Vec::new(),
            recording: true,
            telemetry: SinkHandle::noop(),
            faults: None,
            deferred_death_locks: EventQueue::new(),
            last_fault_sweep: SimTime::ZERO,
            lifecycle: Box::new(LifecycleCore::new()),
            usage_epoch: fresh_usage_epoch(),
        };
        system.install_system_app(Uid::from_raw(1_001), SYSTEM_PACKAGES[0]);
        system.install_system_app(Uid::from_raw(1_002), SYSTEM_PACKAGES[1]);
        system.install_system_app(Uid::from_raw(1_003), SYSTEM_PACKAGES[2]);
        system.last_foreground = system.current_foreground();
        system
    }

    fn install_system_app(&mut self, uid: Uid, package: &str) {
        // The system UI also owns the popup activities that can interrupt
        // any foreground app (incoming call, full-screen notification) —
        // the "unintentional" interruption vector of §III-A.
        let manifest = AppManifest::builder(package)
            .category("system")
            .activity("Main", true)
            .activity("IncomingCall", true)
            .transparent_activity("Notification", true)
            .build();
        self.apps.insert(
            uid,
            InstalledApp {
                uid,
                manifest,
                behavior: AppBehavior::light().with_background_util(0.0),
                pid: Some(self.processes.spawn(uid, package, self.clock.now())),
                extra_demand: 0.0,
            },
        );
        self.touch_usage();
        self.packages.insert(package.to_string(), uid);
    }

    // ------------------------------------------------------------------
    // Installation & lookup
    // ------------------------------------------------------------------

    /// Installs an app with the default (light) behaviour profile.
    pub fn install(&mut self, manifest: AppManifest) -> Uid {
        self.install_with_behavior(manifest, AppBehavior::default())
    }

    /// Installs an app with an explicit behaviour profile.
    pub fn install_with_behavior(&mut self, manifest: AppManifest, behavior: AppBehavior) -> Uid {
        let uid = self.next_uid;
        self.next_uid = self.next_uid.next();
        self.packages.insert(manifest.package.clone(), uid);
        self.apps.insert(
            uid,
            InstalledApp {
                uid,
                manifest,
                behavior,
                pid: None,
                extra_demand: 0.0,
            },
        );
        uid
    }

    /// Looks up an installed app.
    pub fn app(&self, uid: Uid) -> Option<&InstalledApp> {
        self.apps.get(&uid)
    }

    /// Resolves a package name to its UID.
    pub fn uid_of(&self, package: &str) -> Option<Uid> {
        self.packages.get(package).copied()
    }

    /// The launcher's UID.
    pub fn launcher_uid(&self) -> Uid {
        self.launcher
    }

    /// The system UI's UID.
    pub fn system_ui_uid(&self) -> Uid {
        self.system_ui
    }

    /// All installed user apps, in UID order.
    pub fn user_apps(&self) -> impl Iterator<Item = &InstalledApp> {
        self.apps.values().filter(|app| !app.is_system())
    }

    // ------------------------------------------------------------------
    // Time & introspection
    // ------------------------------------------------------------------

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Whether the panel is lit.
    pub fn screen_is_on(&self) -> bool {
        self.screen_on
    }

    /// The effective brightness (what the backlight does).
    pub fn effective_brightness(&self) -> u8 {
        self.settings.effective_brightness()
    }

    /// Read-only settings access.
    pub fn settings(&self) -> &SettingsProvider {
        &self.settings
    }

    /// Read-only SurfaceFlinger access (the malware #4 side channel).
    pub fn surfaceflinger(&self) -> &SurfaceFlinger {
        &self.surfaceflinger
    }

    /// Read-only process table access.
    pub fn processes(&self) -> &ProcessTable {
        &self.processes
    }

    /// Read-only Binder bus access.
    pub fn binder(&self) -> &BinderBus {
        &self.binder
    }

    /// The app owning the screen right now: the top resumed activity's app,
    /// the launcher when the home screen shows, or `None` with the screen
    /// dark.
    pub fn foreground_uid(&self) -> Option<Uid> {
        self.current_foreground()
    }

    /// All live activity records of `uid` (any state but destroyed).
    pub fn live_activities_of(&self, uid: Uid) -> Vec<&ActivityRecord> {
        self.activities
            .values()
            .filter(|record| record.uid == uid && record.state.is_live())
            .collect()
    }

    /// The running services of `uid` as `(component, record)` pairs.
    pub fn running_services_of(&self, uid: Uid) -> Vec<(&str, &ServiceRecord)> {
        self.services
            .iter()
            .filter(|((owner, _), record)| *owner == uid && record.is_running())
            .map(|((_, component), record)| (component.as_str(), record))
            .collect()
    }

    /// Wakelocks currently held by `uid`.
    pub fn held_wakelocks(&self, uid: Uid) -> Vec<&Wakelock> {
        self.wakelocks
            .values()
            .filter(|lock| lock.uid == uid)
            .collect()
    }

    /// Whether any held wakelock forces the screen on.
    pub fn any_screen_wakelock(&self) -> bool {
        self.wakelocks
            .values()
            .any(|lock| lock.kind.keeps_screen_on())
    }

    /// Whether any wakelock (any level) keeps the CPU awake.
    pub fn any_wakelock(&self) -> bool {
        !self.wakelocks.is_empty()
    }

    /// Drains the framework event stream accumulated since the last call.
    pub fn drain_events(&mut self) -> Vec<TimedEvent> {
        self.maybe_reorder_events();
        std::mem::take(&mut self.events)
    }

    /// Batched form of [`drain_events`](Self::drain_events): swaps the
    /// accumulated events into `out` (cleared first), so one buffer
    /// shuttles between the framework and its observer with no per-step
    /// allocation and observers see exactly one slice per step.
    pub fn drain_events_into(&mut self, out: &mut Vec<TimedEvent>) {
        self.maybe_reorder_events();
        out.clear();
        std::mem::swap(&mut self.events, out);
    }

    /// Event-reorder fault: swaps one adjacent pair of *same-instant*
    /// events before a drain, modelling the unordered arrival of events
    /// that raced within a tick. Cross-instant order is never violated.
    fn maybe_reorder_events(&mut self) {
        let Some(faults) = self.faults.as_mut() else {
            return;
        };
        if let Some(i) = faults.reorder_slice(self.events.len()) {
            if self.events[i].at == self.events[i + 1].at {
                self.events.swap(i, i + 1);
                faults.note_injected("event_reorder");
            }
        }
    }

    // ------------------------------------------------------------------
    // User actions
    // ------------------------------------------------------------------

    /// The user taps an app icon in the launcher.
    pub fn user_launch(&mut self, package: &str) -> Result<Uid, FrameworkError> {
        self.note_user_activity();
        let uid = self
            .uid_of(package)
            .ok_or_else(|| FrameworkError::UnknownPackage(package.to_string()))?;
        let component = self
            .apps
            .get(&uid)
            .and_then(|app| {
                app.manifest
                    .components
                    .iter()
                    .find(|decl| decl.kind == ComponentKind::Activity)
                    .map(|decl| decl.name.clone())
            })
            .ok_or_else(|| FrameworkError::UnknownComponent {
                package: package.to_string(),
                component: String::from("<main activity>"),
            })?;
        self.launch_activity(ChangeSource::User, uid, &component, false)?;
        Ok(uid)
    }

    /// The user presses back: the top activity finishes.
    pub fn user_press_back(&mut self) {
        self.note_user_activity();
        if let Some(top) = self.stack.pop() {
            self.touch_usage();
            self.destroy_activity(top);
            self.refresh_foreground(ForegroundCause::BackNavigation);
            self.recompute_demands();
        }
    }

    /// The user presses home: the foreground task backgrounds.
    pub fn user_press_home(&mut self) {
        self.note_user_activity();
        self.go_home(ChangeSource::User);
    }

    /// An app programmatically opens the home screen (the attack #4 move).
    /// No permission is required — any app can fire `ACTION_MAIN/HOME`.
    pub fn app_open_home(&mut self, caller: Uid) {
        self.record_ipc(caller, self.launcher, TransactionKind::StartActivity);
        self.go_home(ChangeSource::App(caller));
    }

    fn go_home(&mut self, source: ChangeSource) {
        self.dismiss_quit_dialog();
        let previous = self.current_foreground();
        // Every live activity leaves the screen: top-of-stack apps stop.
        let ids: Vec<ActivityId> = self.stack.entries().to_vec();
        for id in ids {
            let state = self.activities.get(&id).map(|record| record.state);
            if matches!(
                state,
                Some(ActivityState::Resumed) | Some(ActivityState::Paused)
            ) {
                self.transition_activity(id, ActivityState::Stopped);
            }
        }
        if let (ChangeSource::App(interrupter), Some(victim)) = (source, previous) {
            if victim != interrupter && !victim.is_system() {
                self.emit(FrameworkEvent::AppInterrupted {
                    interrupter: ChangeSource::App(interrupter),
                    victim,
                });
            }
        }
        self.refresh_foreground(ForegroundCause::Home);
        self.recompute_demands();
    }

    /// The user (or an app with the reorder permission) moves an app's task
    /// to the front without restarting it.
    pub fn move_task_to_front(
        &mut self,
        source: ChangeSource,
        uid: Uid,
    ) -> Result<(), FrameworkError> {
        if source == ChangeSource::User {
            self.note_user_activity();
        }
        if let ChangeSource::App(caller) = source {
            self.record_ipc(caller, uid, TransactionKind::MoveTask);
        }
        let id = self
            .stack
            .entries()
            .iter()
            .rev()
            .copied()
            .find(|id| {
                self.activities
                    .get(id)
                    .is_some_and(|record| record.uid == uid && record.state.is_live())
            })
            .ok_or(FrameworkError::NoSuchApp(uid))?;

        let previous = self.current_foreground();
        if let Some(prev_top) = self.stack.top() {
            if prev_top != id {
                self.transition_activity(prev_top, ActivityState::Stopped);
            }
        }
        self.stack.move_to_front(id);
        self.touch_usage();
        self.transition_activity(id, ActivityState::Resumed);
        self.emit(FrameworkEvent::ActivityMovedToFront { source, uid });
        if let (ChangeSource::App(interrupter), Some(victim)) = (source, previous) {
            if victim != interrupter && victim != uid && !victim.is_system() {
                self.emit(FrameworkEvent::AppInterrupted {
                    interrupter: ChangeSource::App(interrupter),
                    victim,
                });
            }
        }
        self.refresh_foreground(ForegroundCause::MoveToFront);
        self.recompute_demands();
        Ok(())
    }

    /// The user begins quitting the foreground app: its exit dialog pops up
    /// (observable through the SurfaceFlinger side channel).
    pub fn user_begin_quit(&mut self) -> Option<Uid> {
        self.note_user_activity();
        let foreground = self.top_resumed_app()?;
        self.quit_dialog_for = Some(foreground);
        self.surfaceflinger.set_dialog_visible(true);
        Some(foreground)
    }

    /// The user taps where "OK" sits on the exit dialog. If a transparent
    /// overlay has been slid above the dialog, the overlay's app swallows
    /// the tap instead (the malware #4 interception).
    pub fn user_tap_quit_ok(&mut self) -> Option<TapOutcome> {
        self.note_user_activity();
        let victim = self.quit_dialog_for?;
        // Is the top of stack a transparent activity of a different app?
        let interceptor = self.stack.top().and_then(|id| {
            let record = self.activities.get(&id)?;
            (record.transparent && record.uid != victim && record.state == ActivityState::Resumed)
                .then_some(record.uid)
        });
        self.dismiss_quit_dialog();
        match interceptor {
            Some(uid) => Some(TapOutcome::InterceptedBy(uid)),
            None => {
                self.quit_app(victim);
                Some(TapOutcome::AppDestroyed)
            }
        }
    }

    fn dismiss_quit_dialog(&mut self) {
        if self.quit_dialog_for.take().is_some() {
            self.surfaceflinger.set_dialog_visible(false);
        }
    }

    /// An app finishes one of its own activities (`Activity.finish()`): the
    /// top-most live instance of `component` is destroyed and whatever it
    /// covered resumes. Malware #5 uses this to flash its transparent
    /// settings page.
    pub fn finish_activity(&mut self, caller: Uid, component: &str) -> Result<(), FrameworkError> {
        let id = self
            .stack
            .entries()
            .iter()
            .rev()
            .copied()
            .find(|id| {
                self.activities.get(id).is_some_and(|record| {
                    record.uid == caller && record.component == component && record.state.is_live()
                })
            })
            .ok_or_else(|| FrameworkError::UnknownComponent {
                package: String::new(),
                component: component.to_string(),
            })?;
        self.stack.remove(id);
        self.touch_usage();
        self.destroy_activity(id);
        self.refresh_foreground(ForegroundCause::BackNavigation);
        self.recompute_demands();
        Ok(())
    }

    /// Destroys every activity of `uid` (the normal quit path — the process
    /// survives as a cached process, so `Never`-policy wakelocks keep
    /// draining).
    pub fn quit_app(&mut self, uid: Uid) {
        let ids: Vec<ActivityId> = self
            .activities
            .values()
            .filter(|record| record.uid == uid && record.state.is_live())
            .map(|record| record.id)
            .collect();
        for id in ids {
            self.stack.remove(id);
            self.touch_usage();
            self.destroy_activity(id);
        }
        self.refresh_foreground(ForegroundCause::BackNavigation);
        self.recompute_demands();
    }

    /// Force-stops an app: its process is killed, Binder dispatches death
    /// notifications, and link-to-death releases its wakelocks.
    pub fn kill_app(&mut self, uid: Uid) -> Result<(), FrameworkError> {
        let app = self
            .apps
            .get_mut(&uid)
            .ok_or(FrameworkError::NoSuchApp(uid))?;
        let Some(pid) = app.pid.take() else {
            return Ok(());
        };
        let now = self.clock.now();
        self.processes
            .kill(pid, now)
            .map_err(|_| FrameworkError::NoSuchApp(uid))?;
        self.sched.remove(pid);
        self.touch_usage();

        // Kernel side: death notices reach Binder, which fires death links.
        let deaths = self.processes.drain_deaths();
        let fired = self.binder.dispatch_deaths(&deaths);
        for link in fired {
            let id = WakelockId(link.cookie);
            let delay = self
                .faults
                .as_mut()
                .and_then(|faults| faults.death_notification_delay());
            if let Some(delay) = delay {
                // The death notice is stuck in the binder queue: the lock
                // stays held until the (late) notification arrives.
                self.deferred_death_locks.schedule(now + delay, id);
                if let Some(holder) = self.wakelocks.get(&id).map(|lock| lock.uid) {
                    self.record_perturbation(LifecycleOp::DeathDeferred {
                        uid: holder,
                        id,
                        delay_secs: delay.as_millis() / 1_000,
                    });
                }
                continue;
            }
            if let Some(lock) = self.wakelocks.remove(&id) {
                self.emit(FrameworkEvent::WakelockReleased {
                    uid: lock.uid,
                    id,
                    on_death: true,
                });
            }
        }

        // Framework side: tear down the app's components.
        let ids: Vec<ActivityId> = self
            .activities
            .values()
            .filter(|record| record.uid == uid && record.state.is_live())
            .map(|record| record.id)
            .collect();
        for id in ids {
            self.stack.remove(id);
            self.touch_usage();
            self.destroy_activity(id);
        }
        // Services of the app die with the process.
        let mut stopped = Vec::new();
        for ((owner, component), record) in self.services.iter_mut() {
            if *owner == uid && record.is_running() {
                record.started = false;
                let connections: Vec<ConnectionId> = record.bindings.keys().copied().collect();
                for connection in &connections {
                    record.unbind(*connection);
                }
                stopped.push(FrameworkEvent::ServiceStopped {
                    source: ChangeSource::System,
                    driven: *owner,
                    component: component.clone(),
                    still_running: false,
                });
            }
        }
        for event in stopped {
            // Pushed directly (not through `emit`): death teardown stops
            // are recorded even with scenario recording off and skip the
            // telemetry mirror, as they always have.
            self.observe_intent(&event);
            self.events.push(TimedEvent { at: now, event });
        }
        self.connections.retain(|_, (binder, _, _)| *binder != uid);
        // Bindings the dead app held on other apps' services unwind too.
        let mut unbound = Vec::new();
        for ((owner, component), record) in self.services.iter_mut() {
            for connection in record.unbind_all_of(uid) {
                unbound.push((*owner, component.clone(), connection, record.is_running()));
            }
        }
        for (driven, component, connection, still_running) in unbound {
            self.emit(FrameworkEvent::ServiceUnbound {
                source: ChangeSource::System,
                driven,
                component,
                connection,
                still_running,
            });
        }

        self.camera = self.camera.filter(|camera_use| camera_use.uid != uid);
        self.audio.remove(&uid);
        self.gps.remove(&uid);
        self.wifi.remove(&uid);
        self.cellular.remove(&uid);
        self.touch_usage();

        self.emit(FrameworkEvent::ProcessDied { uid });
        self.refresh_foreground(ForegroundCause::ProcessDeath);
        self.recompute_demands();
        Ok(())
    }

    /// The user picks a handler in the resolver chooser.
    pub fn user_resolve(&mut self, package: &str) -> Result<Uid, FrameworkError> {
        self.note_user_activity();
        let pending = self
            .pending_resolver
            .take()
            .ok_or_else(|| FrameworkError::NoHandler(String::from("<no resolver pending>")))?;
        let uid = self
            .uid_of(package)
            .ok_or_else(|| FrameworkError::UnknownPackage(package.to_string()))?;
        let (target, component) = pending
            .candidates
            .iter()
            .find(|(candidate, _)| *candidate == uid)
            .cloned()
            .ok_or_else(|| FrameworkError::UnknownPackage(package.to_string()))?;
        // E-Android tracks both intents and ignores the system chooser: the
        // recorded driving app is the original caller.
        self.launch_activity(ChangeSource::App(pending.caller), target, &component, true)?;
        Ok(target)
    }

    // ------------------------------------------------------------------
    // App actions: activities
    // ------------------------------------------------------------------

    /// `startActivity()`. Explicit intents start directly (exported check
    /// for foreign components); implicit intents resolve, possibly via the
    /// chooser.
    pub fn start_activity(
        &mut self,
        caller: Uid,
        intent: Intent,
    ) -> Result<StartResult, FrameworkError> {
        match intent {
            Intent::Explicit { package, component } => {
                let target = self
                    .uid_of(&package)
                    .ok_or(FrameworkError::UnknownPackage(package.clone()))?;
                self.check_component(
                    caller,
                    target,
                    &package,
                    &component,
                    ComponentKind::Activity,
                )?;
                self.record_ipc(caller, target, TransactionKind::StartActivity);
                self.launch_activity(ChangeSource::App(caller), target, &component, false)?;
                Ok(StartResult::Started(target))
            }
            Intent::Implicit { action } => {
                let candidates = self.implicit_candidates(ComponentKind::Activity, &action);
                match candidates.len() {
                    0 => Err(FrameworkError::NoHandler(action)),
                    1 => {
                        let (target, component) = candidates[0].clone();
                        self.record_ipc(caller, target, TransactionKind::StartActivity);
                        self.launch_activity(ChangeSource::App(caller), target, &component, false)?;
                        Ok(StartResult::Started(target))
                    }
                    _ => {
                        let names = candidates
                            .iter()
                            .map(|(uid, component)| {
                                let package = self
                                    .apps
                                    .get(uid)
                                    .map(|app| app.manifest.package.clone())
                                    .unwrap_or_default();
                                (package, component.clone())
                            })
                            .collect();
                        self.pending_resolver = Some(PendingResolver { caller, candidates });
                        Ok(StartResult::NeedsResolver(names))
                    }
                }
            }
        }
    }

    fn implicit_candidates(&self, kind: ComponentKind, action: &str) -> Vec<(Uid, String)> {
        self.apps
            .values()
            .flat_map(|app| {
                app.manifest
                    .handlers_for(kind, action)
                    .into_iter()
                    .map(|decl| (app.uid, decl.name.clone()))
            })
            .collect()
    }

    fn check_component(
        &self,
        caller: Uid,
        target: Uid,
        package: &str,
        component: &str,
        kind: ComponentKind,
    ) -> Result<(), FrameworkError> {
        let app = self
            .apps
            .get(&target)
            .ok_or(FrameworkError::NoSuchApp(target))?;
        let decl =
            app.manifest
                .component(component)
                .ok_or_else(|| FrameworkError::UnknownComponent {
                    package: package.to_string(),
                    component: component.to_string(),
                })?;
        if decl.kind != kind {
            return Err(FrameworkError::WrongComponentKind {
                package: package.to_string(),
                component: component.to_string(),
            });
        }
        if caller != target && !decl.exported {
            return Err(FrameworkError::NotExported {
                package: package.to_string(),
                component: component.to_string(),
            });
        }
        Ok(())
    }

    fn launch_activity(
        &mut self,
        source: ChangeSource,
        uid: Uid,
        component: &str,
        via_resolver: bool,
    ) -> Result<ActivityId, FrameworkError> {
        self.ensure_process(uid);
        let transparent = self
            .apps
            .get(&uid)
            .and_then(|app| app.manifest.component(component))
            .is_some_and(|decl| decl.transparent);
        // An opaque activity replaces whatever dialog was showing; a
        // transparent overlay leaves it (visually) in place — which is what
        // lets malware #4 cover the exit dialog without cancelling it.
        if !transparent {
            self.dismiss_quit_dialog();
        }

        let previous_foreground = self.current_foreground();

        // The activity being covered pauses (transparent cover) or stops.
        if let Some(top) = self.stack.top() {
            let next_state = if transparent {
                ActivityState::Paused
            } else {
                ActivityState::Stopped
            };
            self.transition_activity(top, next_state);
        }

        let id = ActivityId(self.next_activity);
        self.next_activity += 1;
        self.activities.insert(
            id,
            ActivityRecord {
                id,
                uid,
                component: component.to_string(),
                state: ActivityState::Resumed,
                transparent,
            },
        );
        self.stack.push(id);
        self.touch_usage();
        self.surfaceflinger.add_surface();
        // A launch implies the user (or app) woke the device.
        if !self.screen_on {
            self.set_screen(true);
        }

        self.emit(FrameworkEvent::ActivityStarted {
            source,
            driven: uid,
            component: component.to_string(),
            via_resolver,
        });
        self.emit(FrameworkEvent::ActivityLifecycle {
            uid,
            component: component.to_string(),
            state: ActivityState::Resumed,
        });
        if let (ChangeSource::App(interrupter), Some(victim)) = (source, previous_foreground) {
            if victim != interrupter && victim != uid && !victim.is_system() {
                self.emit(FrameworkEvent::AppInterrupted {
                    interrupter: ChangeSource::App(interrupter),
                    victim,
                });
            }
        }
        self.refresh_foreground(ForegroundCause::ActivityStart);
        self.recompute_demands();
        Ok(id)
    }

    fn destroy_activity(&mut self, id: ActivityId) {
        if let Some(record) = self.activities.get(&id) {
            if record.state.is_live() {
                self.surfaceflinger.remove_surface();
            }
        }
        self.transition_activity(id, ActivityState::Destroyed);
        // Whatever is now on top resumes.
        if let Some(top) = self.stack.top() {
            self.transition_activity(top, ActivityState::Resumed);
        }
    }

    // ------------------------------------------------------------------
    // App actions: services
    // ------------------------------------------------------------------

    /// `startService()`.
    pub fn start_service(
        &mut self,
        caller: Uid,
        intent: Intent,
    ) -> Result<(Uid, String), FrameworkError> {
        let (target, component) = self.resolve_service(caller, intent)?;
        self.record_ipc(caller, target, TransactionKind::StartService);
        self.ensure_process(target);
        self.services
            .entry((target, component.clone()))
            .or_default()
            .started = true;
        self.emit(FrameworkEvent::ServiceStarted {
            source: ChangeSource::App(caller),
            driven: target,
            component: component.clone(),
        });
        self.recompute_demands();
        Ok((target, component))
    }

    /// `stopService()` (or `stopSelf()` when `caller` owns the service).
    pub fn stop_service(&mut self, caller: Uid, intent: Intent) -> Result<bool, FrameworkError> {
        let (target, component) = self.resolve_service(caller, intent)?;
        self.record_ipc(caller, target, TransactionKind::StopService);
        let record = self
            .services
            .get_mut(&(target, component.clone()))
            .ok_or_else(|| FrameworkError::UnknownComponent {
                package: String::new(),
                component: component.clone(),
            })?;
        record.started = false;
        let still_running = record.is_running();
        self.emit(FrameworkEvent::ServiceStopped {
            source: ChangeSource::App(caller),
            driven: target,
            component,
            still_running,
        });
        self.recompute_demands();
        Ok(still_running)
    }

    /// `bindService()`; returns the connection handle.
    pub fn bind_service(
        &mut self,
        caller: Uid,
        intent: Intent,
    ) -> Result<ConnectionId, FrameworkError> {
        let (target, component) = self.resolve_service(caller, intent)?;
        self.record_ipc(caller, target, TransactionKind::BindService);
        self.ensure_process(target);
        let connection = ConnectionId(self.next_connection);
        self.next_connection += 1;
        self.services
            .entry((target, component.clone()))
            .or_default()
            .bind(connection, caller);
        self.connections
            .insert(connection, (caller, target, component.clone()));
        self.emit(FrameworkEvent::ServiceBound {
            source: ChangeSource::App(caller),
            driven: target,
            component,
            connection,
        });
        self.recompute_demands();
        Ok(connection)
    }

    /// `unbindService()`.
    pub fn unbind_service(
        &mut self,
        caller: Uid,
        connection: ConnectionId,
    ) -> Result<(), FrameworkError> {
        let (binder, target, component) = self
            .connections
            .remove(&connection)
            .ok_or(FrameworkError::NoSuchConnection(connection))?;
        debug_assert_eq!(binder, caller, "only the binder unbinds its connection");
        self.record_ipc(caller, target, TransactionKind::UnbindService);
        let still_running = match self.services.get_mut(&(target, component.clone())) {
            Some(record) => {
                record.unbind(connection);
                record.is_running()
            }
            None => false,
        };
        self.emit(FrameworkEvent::ServiceUnbound {
            source: ChangeSource::App(caller),
            driven: target,
            component,
            connection,
            still_running,
        });
        self.recompute_demands();
        Ok(())
    }

    fn resolve_service(
        &self,
        caller: Uid,
        intent: Intent,
    ) -> Result<(Uid, String), FrameworkError> {
        match intent {
            Intent::Explicit { package, component } => {
                let target = self
                    .uid_of(&package)
                    .ok_or(FrameworkError::UnknownPackage(package.clone()))?;
                self.check_component(caller, target, &package, &component, ComponentKind::Service)?;
                Ok((target, component))
            }
            Intent::Implicit { action } => {
                let candidates = self.implicit_candidates(ComponentKind::Service, &action);
                candidates
                    .first()
                    .cloned()
                    .ok_or(FrameworkError::NoHandler(action))
            }
        }
    }

    // ------------------------------------------------------------------
    // App actions: wakelocks
    // ------------------------------------------------------------------

    /// `PowerManager.newWakeLock(...).acquire()`. Requires `WAKE_LOCK`
    /// (system apps are exempt). Registers a Binder death link so the lock
    /// dies with the process.
    pub fn acquire_wakelock(
        &mut self,
        uid: Uid,
        kind: WakelockKind,
    ) -> Result<WakelockId, FrameworkError> {
        self.acquire_wakelock_impl(uid, kind, None)
    }

    /// `WakeLock.acquire(timeout)`: the lock auto-releases after `timeout`
    /// even if the app forgets — the defensive API Android recommends
    /// precisely because of the no-sleep bugs the paper studies.
    pub fn acquire_wakelock_with_timeout(
        &mut self,
        uid: Uid,
        kind: WakelockKind,
        timeout: SimDuration,
    ) -> Result<WakelockId, FrameworkError> {
        let deadline = self.clock.now() + timeout;
        self.acquire_wakelock_impl(uid, kind, Some(deadline))
    }

    fn acquire_wakelock_impl(
        &mut self,
        uid: Uid,
        kind: WakelockKind,
        expires_at: Option<SimTime>,
    ) -> Result<WakelockId, FrameworkError> {
        if !uid.is_system() {
            let app = self.apps.get(&uid).ok_or(FrameworkError::NoSuchApp(uid))?;
            if !app.manifest.has_permission(Permission::WakeLock) {
                return Err(FrameworkError::PermissionDenied {
                    uid,
                    permission: Permission::WakeLock,
                });
            }
        }
        self.ensure_process(uid);
        let pid = self
            .apps
            .get(&uid)
            .and_then(|app| app.pid)
            .ok_or(FrameworkError::NoSuchApp(uid))?;
        self.record_ipc(uid, Uid::SYSTEM, TransactionKind::AcquireWakelock);

        let id = WakelockId(self.next_wakelock);
        self.next_wakelock += 1;
        let in_foreground = self.current_foreground() == Some(uid);
        self.wakelocks.insert(
            id,
            Wakelock {
                id,
                uid,
                pid,
                kind,
                acquired_at: self.clock.now(),
                expires_at,
                acquired_in_foreground: in_foreground,
                release_lost: false,
            },
        );
        self.binder.link_to_death(pid, id.0);
        if kind.keeps_screen_on() && !self.screen_on {
            self.set_screen(true);
        }
        self.emit(FrameworkEvent::WakelockAcquired {
            uid,
            id,
            kind,
            in_foreground,
        });
        Ok(id)
    }

    /// `WakeLock.release()`.
    pub fn release_wakelock(&mut self, uid: Uid, id: WakelockId) -> Result<(), FrameworkError> {
        let lock = self
            .wakelocks
            .get(&id)
            .ok_or(FrameworkError::NoSuchWakelock(id))?;
        if lock.uid != uid {
            return Err(FrameworkError::NotWakelockHolder { uid, id });
        }
        if lock.release_lost {
            // The app already released this lock once and the call was lost
            // in transit; release is idempotent from its point of view.
            return Ok(());
        }
        if let Some(faults) = self.faults.as_mut() {
            if faults.wakelock_release_lost() {
                // The release call never reaches the power manager: the app
                // believes the lock is gone, the kernel still holds it. The
                // periodic sweep reconciles it later. Desired state moves to
                // *released* now — the flag and the reducer's lost set are
                // the same divergence, one per path.
                if let Some(lock) = self.wakelocks.get_mut(&id) {
                    lock.release_lost = true;
                }
                self.record_perturbation(LifecycleOp::ReleaseLost { uid, id });
                return Ok(());
            }
        }
        self.record_ipc(uid, Uid::SYSTEM, TransactionKind::ReleaseWakelock);
        if !self.finish_release(id, false, None) {
            return Err(FrameworkError::NoSuchWakelock(id));
        }
        Ok(())
    }

    /// Converges one wakelock's observed state to *released*: removes
    /// it, unlinks its Binder death hook, notes the detected fault (when
    /// the release is a reconciliation), and emits the release event.
    /// One code path serves the app-driven release, the reconciliation
    /// sweep, and the deferred death delivery, so the three cannot
    /// drift. Returns whether the lock was present.
    fn finish_release(
        &mut self,
        id: WakelockId,
        on_death: bool,
        detected: Option<&'static str>,
    ) -> bool {
        let Some(lock) = self.wakelocks.remove(&id) else {
            return false;
        };
        self.binder.unlink_to_death(lock.pid, id.0);
        if let Some(kind) = detected {
            if let Some(faults) = self.faults.as_mut() {
                faults.note_detected(kind);
            }
        }
        self.emit(FrameworkEvent::WakelockReleased {
            uid: lock.uid,
            id,
            on_death,
        });
        true
    }

    /// Applies an app's wakelock policy when one of its activities reaches
    /// `state`: well-written apps release on pause, buggy ones later or
    /// never.
    fn apply_wakelock_policy(&mut self, uid: Uid, state: ActivityState) {
        let Some(app) = self.apps.get(&uid) else {
            return;
        };
        let policy = app.behavior.wakelock_policy;
        let releases = match state {
            ActivityState::Paused => policy.releases_on_pause(),
            ActivityState::Stopped => policy.releases_on_stop(),
            ActivityState::Destroyed => policy.releases_on_destroy(),
            ActivityState::Resumed => false,
        };
        if !releases {
            return;
        }
        let ids: Vec<WakelockId> = self
            .wakelocks
            .values()
            .filter(|lock| lock.uid == uid)
            .map(|lock| lock.id)
            .collect();
        for id in ids {
            // Release through the normal path; errors impossible by
            // construction.
            let _ = self.release_wakelock(uid, id);
        }
    }

    // ------------------------------------------------------------------
    // App actions: brightness & screen
    // ------------------------------------------------------------------

    /// Writes the manual brightness value through the settings provider.
    /// Apps need `WRITE_SETTINGS`.
    pub fn set_brightness(
        &mut self,
        source: ChangeSource,
        value: u8,
    ) -> Result<(), FrameworkError> {
        self.check_settings_permission(source)?;
        if source == ChangeSource::User {
            self.note_user_activity();
        }
        if let ChangeSource::App(caller) = source {
            self.record_ipc(caller, Uid::SYSTEM, TransactionKind::WriteSetting);
        }
        let (old, new) = self.settings.write_brightness(value);
        self.touch_usage();
        if old != new {
            self.emit(FrameworkEvent::BrightnessChanged { source, old, new });
        }
        Ok(())
    }

    /// Switches between automatic and manual brightness.
    pub fn set_brightness_mode(
        &mut self,
        source: ChangeSource,
        manual: bool,
    ) -> Result<(), FrameworkError> {
        self.check_settings_permission(source)?;
        if source == ChangeSource::User {
            self.note_user_activity();
        }
        if let ChangeSource::App(caller) = source {
            self.record_ipc(caller, Uid::SYSTEM, TransactionKind::WriteSetting);
        }
        let mode = if manual {
            crate::BrightnessMode::Manual
        } else {
            crate::BrightnessMode::Automatic
        };
        if self.settings.mode() == mode {
            return Ok(());
        }
        let (old, new) = self.settings.set_mode(mode);
        self.touch_usage();
        self.emit(FrameworkEvent::BrightnessModeChanged {
            source,
            to_manual: manual,
            old,
            new,
        });
        Ok(())
    }

    /// The ambient-light algorithm updates the automatic value.
    pub fn ambient_brightness(&mut self, value: u8) {
        let (old, new) = self.settings.set_auto_value(value);
        self.touch_usage();
        if old != new {
            self.emit(FrameworkEvent::BrightnessChanged {
                source: ChangeSource::System,
                old,
                new,
            });
        }
    }

    fn check_settings_permission(&self, source: ChangeSource) -> Result<(), FrameworkError> {
        if let ChangeSource::App(uid) = source {
            if uid.is_system() {
                return Ok(());
            }
            let app = self.apps.get(&uid).ok_or(FrameworkError::NoSuchApp(uid))?;
            if !app.manifest.has_permission(Permission::WriteSettings) {
                return Err(FrameworkError::PermissionDenied {
                    uid,
                    permission: Permission::WriteSettings,
                });
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // App actions: other hardware
    // ------------------------------------------------------------------

    /// Opens the camera (preview or recording). Requires `CAMERA`.
    pub fn camera_start(&mut self, uid: Uid, recording: bool) -> Result<(), FrameworkError> {
        let app = self.apps.get(&uid).ok_or(FrameworkError::NoSuchApp(uid))?;
        if !uid.is_system() && !app.manifest.has_permission(Permission::Camera) {
            return Err(FrameworkError::PermissionDenied {
                uid,
                permission: Permission::Camera,
            });
        }
        self.ensure_process(uid);
        self.camera = Some(CameraUse { uid, recording });
        self.touch_usage();
        Ok(())
    }

    /// Closes the camera if `uid` holds it.
    pub fn camera_stop(&mut self, uid: Uid) {
        self.camera = self.camera.filter(|camera_use| camera_use.uid != uid);
        self.touch_usage();
    }

    /// Starts/stops audio playback for `uid`.
    pub fn set_audio(&mut self, uid: Uid, playing: bool) {
        if playing {
            self.ensure_process(uid);
            self.audio.insert(uid);
        } else {
            self.audio.remove(&uid);
        }
        self.touch_usage();
    }

    /// Grabs/releases a GPS session for `uid`.
    pub fn set_gps(&mut self, uid: Uid, holding: bool) {
        if holding {
            self.ensure_process(uid);
            self.gps.insert(uid);
        } else {
            self.gps.remove(&uid);
        }
        self.touch_usage();
    }

    /// Sets the average luminance of the rendered frame, `[0, 1]` — the
    /// content fact OLED panel models consume (dark themes draw less).
    pub fn set_screen_content_luma(&mut self, luma: f64) {
        self.screen_luma = luma.clamp(0.0, 1.0);
        self.touch_usage();
    }

    /// Sets `uid`'s WiFi throughput (0 stops traffic).
    pub fn set_wifi_kbps(&mut self, uid: Uid, kbps: f64) {
        if kbps > 0.0 {
            self.ensure_process(uid);
            self.wifi.insert(uid, kbps);
        } else {
            self.wifi.remove(&uid);
        }
        self.touch_usage();
    }

    /// Sets `uid`'s cellular throughput (0 stops traffic).
    pub fn set_cellular_kbps(&mut self, uid: Uid, kbps: f64) {
        if kbps > 0.0 {
            self.ensure_process(uid);
            self.cellular.insert(uid, kbps);
        } else {
            self.cellular.remove(&uid);
        }
        self.touch_usage();
    }

    /// Adds scripted CPU demand on top of the behaviour profile (e.g. the
    /// video encoder while the camera records).
    pub fn set_extra_demand(&mut self, uid: Uid, cores: f64) {
        if let Some(app) = self.apps.get_mut(&uid) {
            app.extra_demand = cores.max(0.0);
            if cores > 0.0 {
                self.ensure_process(uid);
            }
        }
        self.recompute_demands();
    }

    // ------------------------------------------------------------------
    // Time & device dynamics
    // ------------------------------------------------------------------

    /// Advances simulated time, processing screen timeouts. Call in small
    /// steps (the accounting layer integrates usage between calls).
    pub fn advance(&mut self, span: SimDuration) {
        let mut span = span;
        let mut hiccup = false;
        if let Some(faults) = self.faults.as_mut() {
            span = faults.skew_span(span);
            hiccup = faults.sched_hiccup();
        }
        let _ = self.clock.advance_by(span);
        self.process_deferred_deaths();
        self.sweep_lost_wakelocks();
        if !hiccup {
            // A scheduler hiccup stalls this tick's housekeeping pass —
            // expiries and timeouts land a tick late, exactly the jitter a
            // loaded system_server exhibits.
            self.release_expired_wakelocks();
            self.check_screen_timeout();
        }
        if self.telemetry.enabled() {
            self.telemetry.record_event(
                self.clock.now().as_millis() * 1_000,
                TelemetryEvent::KernelStats {
                    queue_depth: self.events.len(),
                    binder_transactions: self.binder.stats().total,
                    sched_utilization: self.sched.total_utilization(),
                },
            );
        }
    }

    fn release_expired_wakelocks(&mut self) {
        let now = self.clock.now();
        let expired: Vec<(Uid, WakelockId)> = self
            .wakelocks
            .values()
            .filter(|lock| lock.is_expired(now) && !lock.release_lost)
            .map(|lock| (lock.uid, lock.id))
            .collect();
        for (uid, id) in expired {
            let _ = self.release_wakelock(uid, id);
        }
    }

    /// Delivers death notifications a binder fault held back: the wakelock
    /// finally drops once the (delayed) notice arrives.
    fn process_deferred_deaths(&mut self) {
        if self.deferred_death_locks.is_empty() {
            return;
        }
        let now = self.clock.now();
        let mut released = false;
        // Due notices deliver in strict (due-time, schedule-order): the
        // event queue's pop order.
        while self
            .deferred_death_locks
            .peek_time()
            .is_some_and(|at| at <= now)
        {
            let Some(event) = self.deferred_death_locks.pop_next() else {
                break;
            };
            let id = event.payload;
            released |= self.finish_release(id, true, Some("death_delayed"));
        }
        if released {
            self.recompute_demands();
        }
    }

    /// The power manager's periodic reconciliation sweep: wakelocks whose
    /// release call was lost in transit are reclaimed, bounding how long a
    /// leaked lock can keep the device awake.
    fn sweep_lost_wakelocks(&mut self) {
        if self.faults.is_none() {
            return;
        }
        let now = self.clock.now();
        if now.saturating_since(self.last_fault_sweep) < SimDuration::from_secs(30) {
            return;
        }
        self.last_fault_sweep = now;
        // The reconciler's work list: the reducer's desired-released but
        // observed-held locks, in ascending id order.
        let lost = self.lifecycle.reducer.lost_releases();
        let mut released = false;
        self.lifecycle.sweeping = true;
        for id in lost {
            released |= self.finish_release(id, false, Some("wakelock_release_lost"));
        }
        self.lifecycle.sweeping = false;
        if released {
            self.recompute_demands();
        }
    }

    fn check_screen_timeout(&mut self) {
        if self.screen_on
            && !self.any_screen_wakelock()
            && self.clock.now().saturating_since(self.last_user_activity) >= self.screen_timeout
        {
            self.set_screen(false);
        }
    }

    fn set_screen(&mut self, on: bool) {
        if self.screen_on == on {
            return;
        }
        self.screen_on = on;
        self.touch_usage();
        if on {
            self.emit(FrameworkEvent::ScreenTurnedOn);
            if let Some(top) = self.stack.top() {
                self.transition_activity(top, ActivityState::Resumed);
            }
        } else {
            self.emit(FrameworkEvent::ScreenTurnedOff);
            if let Some(top) = self.stack.top() {
                self.transition_activity(top, ActivityState::Paused);
            }
        }
        self.refresh_foreground(ForegroundCause::ScreenPower);
        self.recompute_demands();
    }

    /// Registers user interaction: resets the screen timeout and lights the
    /// panel.
    pub fn note_user_activity(&mut self) {
        self.last_user_activity = self.clock.now();
        if !self.screen_on {
            self.set_screen(true);
        }
    }

    /// The standard broadcast fired when the user unlocks the device.
    /// §V: "some apps would be opened when a user unlocks the screen by
    /// monitoring the ACTION_USER_PRESENT intent" — the malware's stealth
    /// launch vector.
    pub const ACTION_USER_PRESENT: &'static str = "android.intent.action.USER_PRESENT";

    /// Sends a broadcast intent: every installed app with an exported
    /// receiver matching `action` gets its process spawned and the delivery
    /// logged. Returns the receiving apps.
    pub fn send_broadcast(&mut self, source: ChangeSource, action: &str) -> Vec<Uid> {
        if let ChangeSource::App(caller) = source {
            self.record_ipc(caller, Uid::SYSTEM, TransactionKind::Other);
        }
        let receivers: Vec<Uid> = self
            .apps
            .values()
            .filter(|app| {
                !app.manifest
                    .handlers_for(ComponentKind::Receiver, action)
                    .is_empty()
            })
            .map(|app| app.uid)
            .collect();
        let mut delivered = Vec::with_capacity(receivers.len());
        for receiver in receivers {
            let fate = match self.faults.as_mut() {
                Some(faults) => faults.intent_fate(),
                None => IntentFate::Deliver,
            };
            if fate == IntentFate::Drop {
                self.record_perturbation(LifecycleOp::BroadcastDropped {
                    action: action.to_string(),
                    receiver,
                });
                continue;
            }
            if fate == IntentFate::Duplicate {
                self.record_perturbation(LifecycleOp::BroadcastDuplicated {
                    action: action.to_string(),
                    receiver,
                });
            }
            self.ensure_process(receiver);
            self.emit(FrameworkEvent::BroadcastDelivered {
                source,
                action: action.to_string(),
                receiver,
            });
            if fate == IntentFate::Duplicate {
                self.emit(FrameworkEvent::BroadcastDelivered {
                    source,
                    action: action.to_string(),
                    receiver,
                });
            }
            delivered.push(receiver);
        }
        self.recompute_demands();
        delivered
    }

    /// The user wakes and unlocks the device: screen on, timeout reset, and
    /// `ACTION_USER_PRESENT` broadcast to every listening receiver. Returns
    /// the apps whose receivers fired (malware hides in this crowd).
    pub fn user_unlock(&mut self) -> Vec<Uid> {
        self.note_user_activity();
        self.send_broadcast(ChangeSource::System, Self::ACTION_USER_PRESENT)
    }

    /// An incoming call: the system's full-screen call UI lands on top of
    /// whatever is running — "a foreground activity could be easily
    /// interrupted by popup activities, e.g., the activity invoked by a
    /// notification, an incoming call or an alarm" (§III-A). The displaced
    /// app stops; if it mis-releases its wakelock, the no-sleep bug fires
    /// with no malware involved.
    pub fn incoming_call(&mut self) -> Result<(), FrameworkError> {
        self.note_user_activity();
        self.launch_activity(ChangeSource::System, self.system_ui, "IncomingCall", false)
            .map(|_| ())
    }

    /// The call ends: the system UI page finishes and whatever it covered
    /// resumes.
    pub fn end_call(&mut self) -> Result<(), FrameworkError> {
        self.finish_activity(self.system_ui, "IncomingCall")
    }

    /// A transparent full-screen notification pops over the foreground app
    /// (the covered activity pauses rather than stops).
    pub fn show_notification(&mut self) -> Result<(), FrameworkError> {
        self.launch_activity(ChangeSource::System, self.system_ui, "Notification", false)
            .map(|_| ())
    }

    /// The notification is dismissed.
    pub fn dismiss_notification(&mut self) -> Result<(), FrameworkError> {
        self.finish_activity(self.system_ui, "Notification")
    }

    /// Uninstalls an app: force-stop plus removal from the package table.
    /// Returns an error when the package is unknown or is a system app.
    pub fn uninstall(&mut self, package: &str) -> Result<(), FrameworkError> {
        let uid = self
            .uid_of(package)
            .ok_or_else(|| FrameworkError::UnknownPackage(package.to_string()))?;
        if uid.is_system() {
            return Err(FrameworkError::NoSuchApp(uid));
        }
        self.kill_app(uid)?;
        self.packages.remove(package);
        self.apps.remove(&uid);
        self.services.retain(|(owner, _), _| *owner != uid);
        Ok(())
    }

    /// Decomposes `uid`'s current CPU demand into named routines — the
    /// eprof-style view. The parts sum to the demand the scheduler sees for
    /// the app (before any oversubscription scaling).
    pub fn demand_breakdown(&self, uid: Uid) -> Vec<(Routine, f64)> {
        let Some(app) = self.apps.get(&uid) else {
            return Vec::new();
        };
        let alive = app.pid.is_some_and(|pid| self.processes.is_alive(pid));
        if !alive {
            return Vec::new();
        }
        let mut parts = Vec::new();
        if app.extra_demand > 0.0 {
            parts.push((Routine::Scripted, app.extra_demand));
        }
        for ((owner, component), record) in &self.services {
            if *owner == uid && record.is_running() && app.behavior.service_util > 0.0 {
                parts.push((
                    Routine::Service(component.clone()),
                    app.behavior.service_util,
                ));
            }
        }
        let has_live_activity = self
            .activities
            .values()
            .any(|record| record.uid == uid && record.state.is_live());
        let resumed_in_front =
            self.current_foreground() == Some(uid) && self.top_resumed_app() == Some(uid);
        if resumed_in_front {
            if app.behavior.foreground_util > 0.0 {
                parts.push((Routine::ForegroundUi, app.behavior.foreground_util));
            }
        } else if has_live_activity && app.behavior.background_util > 0.0 {
            parts.push((Routine::BackgroundActivity, app.behavior.background_util));
        }
        parts
    }

    /// A value that changes at every write a [`usage_snapshot`] reads:
    /// scheduler demands, process spawns and kills, the screen, the
    /// brightness settings, content luma, camera, audio, GPS, WiFi and
    /// cellular, the activity stack and activity states, and every
    /// emitted framework event. While it holds still the snapshot does
    /// too, so a consumer may keep what it derived from the last one.
    /// Values come from a process-wide counter, so no two systems ever
    /// report the same epoch.
    ///
    /// [`usage_snapshot`]: AndroidSystem::usage_snapshot
    pub fn usage_epoch(&self) -> u64 {
        self.usage_epoch
    }

    /// Builds the current [`DeviceUsage`] snapshot for the power model.
    pub fn usage_snapshot(&self) -> DeviceUsage {
        let mut usage = DeviceUsage::idle();
        self.usage_snapshot_into(&mut usage);
        usage
    }

    /// Zero-allocation form of [`usage_snapshot`](Self::usage_snapshot):
    /// clears and refills `usage`, reusing its vector capacity. CPU slices
    /// stream straight from the scheduler without materializing an
    /// intermediate vector.
    pub fn usage_snapshot_into(&self, usage: &mut DeviceUsage) {
        usage.clear();
        for slice in self.sched.slices() {
            if slice.utilization <= 0.0 {
                continue;
            }
            if let Some(info) = self.processes.get(slice.pid) {
                usage.cpu.push(CpuUse {
                    uid: info.uid,
                    utilization: slice.utilization,
                });
            }
        }
        usage.screen = if self.screen_on {
            ScreenUsage::on(
                self.settings.effective_brightness(),
                self.current_foreground(),
            )
            .with_luma(self.screen_luma)
        } else {
            ScreenUsage::off()
        };
        usage.camera = self.camera;
        usage.audio.extend(self.audio.iter().copied());
        usage.gps.extend(self.gps.iter().copied());
        usage
            .wifi
            .extend(self.wifi.iter().map(|(&uid, &kbps)| RadioUse {
                uid,
                throughput_kbps: kbps,
            }));
        usage
            .cellular
            .extend(self.cellular.iter().map(|(&uid, &kbps)| RadioUse {
                uid,
                throughput_kbps: kbps,
            }));
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Marks the usage snapshot stale: the next [`usage_epoch`] differs
    /// from every earlier one.
    ///
    /// [`usage_epoch`]: AndroidSystem::usage_epoch
    fn touch_usage(&mut self) {
        self.usage_epoch = fresh_usage_epoch();
    }

    fn emit(&mut self, event: FrameworkEvent) {
        self.touch_usage();
        self.observe_intent(&event);
        if self.telemetry.enabled() {
            self.telemetry.record_event(
                self.clock.now().as_millis() * 1_000,
                TelemetryEvent::Framework {
                    kind: event.kind_label().to_string(),
                    uid: event.primary_uid().map(Uid::as_raw),
                },
            );
        }
        if !self.recording {
            return;
        }
        self.events.push(TimedEvent {
            at: self.clock.now(),
            event,
        });
    }

    /// Intent derivation: every lifecycle transition an event announces
    /// is appended to the intent log (with its resolved [`Cause`]) and
    /// folded into the desired-state reducer, regardless of whether
    /// scenario event recording is on. No-op (one branch) for
    /// non-lifecycle events.
    fn observe_intent(&mut self, event: &FrameworkEvent) {
        let core = &mut self.lifecycle;
        let Some(op) = LifecycleOp::from_event(event) else {
            return;
        };
        let cause = core.resolve(Cause::intrinsic(event));
        let intent = core.log.append(self.clock.now(), cause, op);
        core.reducer.apply(&intent);
        if let Some(recorder) = &core.recorder {
            recorder.append(intent);
        }
    }

    /// Records one chaos fault decision as a `Cause::Fault` intent. The
    /// perturbed transition emits no framework event (that is the point
    /// of the fault), so the log is the only audited record of it.
    fn record_perturbation(&mut self, op: LifecycleOp) {
        let core = &mut self.lifecycle;
        let intent = core.log.append(self.clock.now(), Cause::Fault, op);
        core.reducer.apply(&intent);
        if let Some(recorder) = &core.recorder {
            recorder.append(intent);
        }
    }

    /// Attaches a telemetry sink: every framework event is mirrored as a
    /// [`TelemetryEvent::Framework`], and [`advance`](AndroidSystem::advance)
    /// samples kernel statistics each call. The default sink discards
    /// everything.
    pub fn set_telemetry(&mut self, sink: Arc<dyn TelemetrySink>) {
        self.set_telemetry_handle(SinkHandle::new(sink));
    }

    /// [`set_telemetry`](AndroidSystem::set_telemetry) with a pre-wrapped
    /// handle, for callers sharing one handle across layers.
    pub fn set_telemetry_handle(&mut self, handle: SinkHandle) {
        self.telemetry = handle;
    }

    /// The telemetry handle in use (no-op by default).
    pub fn telemetry(&self) -> &SinkHandle {
        &self.telemetry
    }

    /// Attaches a fault injector: binder failures, delayed death
    /// notifications, intent drops/duplicates, lost wakelock releases,
    /// clock skew, event reordering, and scheduler hiccups start firing at
    /// the injector's rates, and the degraded-mode machinery (the deferred
    /// death queue, the power-manager sweep) activates alongside it.
    pub fn attach_faults(&mut self, faults: FrameworkFaults) {
        self.last_fault_sweep = self.clock.now();
        self.faults = Some(Box::new(faults));
    }

    /// Shares the fleet supervisor's intent-log mirror: every intent the
    /// reducer records is also appended to `recorder`, which survives a
    /// panicking device attempt and becomes the `DeviceFailure` log
    /// tail.
    pub fn set_intent_recorder(&mut self, recorder: Arc<IntentLogRecorder>) {
        self.lifecycle.recorder = Some(recorder);
    }

    /// Sets the scripted cause framing for subsequent transitions
    /// (`Cause::Attack` while an attack vector fires, `Cause::Routine`
    /// for benign background scripts). `None` restores event-intrinsic
    /// causes.
    pub fn set_ambient_cause(&mut self, cause: Option<Cause>) {
        self.lifecycle.ambient = cause;
    }

    /// Snapshots the device's intent log.
    pub fn intent_log(&self) -> IntentLogDump {
        self.lifecycle.log.dump()
    }

    /// Read-only access to the desired-state reducer.
    pub fn lifecycle_reducer(&self) -> &LifecycleReducer {
        &self.lifecycle.reducer
    }

    /// Where observed runtime state diverges from the reducer's desired
    /// state. Expected entries are exactly the in-flight convergences —
    /// lost releases awaiting their sweep and deferred death
    /// notifications; anything else is a framework bug.
    pub fn lifecycle_divergence(&self) -> Vec<String> {
        let core = &self.lifecycle;
        let mut out = Vec::new();
        for lock in self.wakelocks.values() {
            if !core.reducer.wants_held(lock.id) {
                out.push(format!("wakelock {} held but desired released", lock.id.0));
            }
        }
        for id in core.reducer.desired_wakelocks() {
            if !self.wakelocks.contains_key(&id) {
                out.push(format!("wakelock {} desired but not held", id.0));
            }
        }
        for (uid, component) in core.reducer.desired_services() {
            let running = self
                .services
                .get(&(uid, component.clone()))
                .is_some_and(ServiceRecord::is_running);
            if !running {
                out.push(format!(
                    "service {}/{component} desired running but stopped",
                    uid.as_raw()
                ));
            }
        }
        if core.reducer.screen_on() != self.screen_on {
            out.push(format!(
                "screen observed {} but desired {}",
                if self.screen_on { "on" } else { "off" },
                if core.reducer.screen_on() {
                    "on"
                } else {
                    "off"
                },
            ));
        }
        out
    }

    /// The injected/detected fault counters, when an injector is attached.
    pub fn fault_log(&self) -> Option<&FaultLog> {
        self.faults.as_deref().map(FrameworkFaults::log)
    }

    /// Enables or disables the E-Android framework extension (event
    /// recording). Stock Android corresponds to `false`; the paper's
    /// Figure 10 compares the two to show the extension "has almost the
    /// same performance overhead as Android".
    pub fn set_event_recording(&mut self, enabled: bool) {
        self.recording = enabled;
        if !enabled {
            self.events.clear();
        }
    }

    /// Whether the framework extension is recording events.
    pub fn event_recording(&self) -> bool {
        self.recording
    }

    fn record_ipc(&mut self, from: Uid, to: Uid, kind: TransactionKind) {
        let pid = self
            .apps
            .get(&from)
            .and_then(|app| app.pid)
            .unwrap_or(Pid::from_raw(0));
        if let Some(faults) = self.faults.as_mut() {
            if faults.binder_transaction_fails() {
                // The first attempt dies in transit; libbinder retries
                // internally, so callers never see the failure — it shows up
                // only as an extra recorded transaction.
                faults.note_detected("binder_failure");
                self.binder.record(self.clock.now(), pid, from, to, kind);
                if self.telemetry.enabled() {
                    self.telemetry.counter_add("chaos_binder_retries", 1);
                }
            }
        }
        self.binder.record(self.clock.now(), pid, from, to, kind);
    }

    fn ensure_process(&mut self, uid: Uid) {
        let needs_spawn = match self.apps.get(&uid) {
            Some(app) => match app.pid {
                Some(pid) => !self.processes.is_alive(pid),
                None => true,
            },
            None => false,
        };
        if needs_spawn {
            let name = self.apps[&uid].manifest.package.clone();
            let pid = self.processes.spawn(uid, name, self.clock.now());
            if let Some(app) = self.apps.get_mut(&uid) {
                app.pid = Some(pid);
            }
            self.touch_usage();
        }
    }

    fn top_resumed_app(&self) -> Option<Uid> {
        let top = self.stack.top()?;
        let record = self.activities.get(&top)?;
        (record.state == ActivityState::Resumed).then_some(record.uid)
    }

    fn current_foreground(&self) -> Option<Uid> {
        if !self.screen_on {
            return None;
        }
        self.top_resumed_app().or(Some(self.launcher))
    }

    fn transition_activity(&mut self, id: ActivityId, state: ActivityState) {
        let Some(record) = self.activities.get_mut(&id) else {
            return;
        };
        if record.state == state || !record.state.is_live() {
            return;
        }
        record.state = state;
        let uid = record.uid;
        let component = record.component.clone();
        self.touch_usage();
        self.emit(FrameworkEvent::ActivityLifecycle {
            uid,
            component,
            state,
        });
        self.apply_wakelock_policy(uid, state);
    }

    fn refresh_foreground(&mut self, cause: ForegroundCause) {
        let current = self.current_foreground();
        if current != self.last_foreground {
            self.emit(FrameworkEvent::ForegroundChanged {
                from: self.last_foreground,
                to: current,
                cause,
            });
            if let Some(uid) = current {
                if !uid.is_system()
                    && matches!(
                        cause,
                        ForegroundCause::MoveToFront
                            | ForegroundCause::BackNavigation
                            | ForegroundCause::ScreenPower
                    )
                {
                    self.emit(FrameworkEvent::AppResumedToFront { uid });
                }
            }
            self.last_foreground = current;
        }
    }

    fn recompute_demands(&mut self) {
        let foreground = self.current_foreground();
        let uids: Vec<Uid> = self.apps.keys().copied().collect();
        for uid in uids {
            let app = &self.apps[&uid];
            let Some(pid) = app.pid else { continue };
            if !self.processes.is_alive(pid) {
                continue;
            }
            let behavior = app.behavior;
            let extra = app.extra_demand;
            let has_live_activity = self
                .activities
                .values()
                .any(|record| record.uid == uid && record.state.is_live());
            let resumed_in_front = foreground == Some(uid) && self.top_resumed_app() == Some(uid);
            let running_services = self
                .services
                .iter()
                .filter(|((owner, _), record)| *owner == uid && record.is_running())
                .count() as f64;

            let mut demand = extra + behavior.service_util * running_services;
            if resumed_in_front {
                demand += behavior.foreground_util;
            } else if has_live_activity {
                demand += behavior.background_util;
            }
            self.sched.set_demand(pid, demand);
        }
        self.touch_usage();
    }
}

impl Default for AndroidSystem {
    fn default() -> Self {
        AndroidSystem::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_manifest(package: &str) -> AppManifest {
        AppManifest::builder(package)
            .activity("Main", true)
            .service("Worker", true)
            .permission(Permission::WakeLock)
            .permission(Permission::WriteSettings)
            .permission(Permission::Camera)
            .build()
    }

    fn boot_two() -> (AndroidSystem, Uid, Uid) {
        let mut android = AndroidSystem::new();
        let a = android.install(demo_manifest("com.a"));
        let b = android.install(demo_manifest("com.b"));
        (android, a, b)
    }

    #[test]
    fn boot_has_launcher_in_front() {
        let android = AndroidSystem::new();
        assert_eq!(android.foreground_uid(), Some(android.launcher_uid()));
        assert!(android.screen_is_on());
    }

    #[test]
    fn user_launch_brings_app_to_front() {
        let (mut android, a, _) = boot_two();
        android.user_launch("com.a").unwrap();
        assert_eq!(android.foreground_uid(), Some(a));
        let events = android.drain_events();
        assert!(events.iter().any(|timed| matches!(
            &timed.event,
            FrameworkEvent::ActivityStarted { source: ChangeSource::User, driven, .. } if *driven == a
        )));
    }

    #[test]
    fn cross_app_start_emits_driving_and_driven() {
        let (mut android, a, b) = boot_two();
        android.user_launch("com.a").unwrap();
        android.drain_events();
        let result = android
            .start_activity(a, Intent::explicit("com.b", "Main"))
            .unwrap();
        assert_eq!(result, StartResult::Started(b));
        assert_eq!(android.foreground_uid(), Some(b));
        let events = android.drain_events();
        assert!(events.iter().any(|timed| matches!(
            &timed.event,
            FrameworkEvent::ActivityStarted { source: ChangeSource::App(driving), driven, .. }
                if *driving == a && *driven == b
        )));
        // a was the foreground and was covered by b, but a itself drove the
        // start, so it is navigation, not an interruption.
        assert!(!events
            .iter()
            .any(|timed| matches!(&timed.event, FrameworkEvent::AppInterrupted { .. })));
    }

    #[test]
    fn unexported_component_is_protected() {
        let mut android = AndroidSystem::new();
        let _a = android.install(demo_manifest("com.a"));
        let closed = android.install(
            AppManifest::builder("com.closed")
                .activity("Secret", false)
                .build(),
        );
        let a = android.uid_of("com.a").unwrap();
        let err = android
            .start_activity(a, Intent::explicit("com.closed", "Secret"))
            .unwrap_err();
        assert!(matches!(err, FrameworkError::NotExported { .. }));
        let _ = closed;
    }

    #[test]
    fn third_party_interruption_is_flagged() {
        let (mut android, a, b) = boot_two();
        let malware = android.install(demo_manifest("com.malware"));
        android.user_launch("com.a").unwrap();
        android.drain_events();
        // Malware (background) starts b's activity over a.
        android
            .start_activity(malware, Intent::explicit("com.b", "Main"))
            .unwrap();
        let events = android.drain_events();
        assert!(events.iter().any(|timed| matches!(
            &timed.event,
            FrameworkEvent::AppInterrupted { interrupter: ChangeSource::App(who), victim }
                if *who == malware && *victim == a
        )));
        let _ = b;
    }

    #[test]
    fn back_pops_and_resumes_previous() {
        let (mut android, a, b) = boot_two();
        android.user_launch("com.a").unwrap();
        android
            .start_activity(a, Intent::explicit("com.b", "Main"))
            .unwrap();
        assert_eq!(android.foreground_uid(), Some(b));
        android.user_press_back();
        assert_eq!(android.foreground_uid(), Some(a));
    }

    #[test]
    fn home_stops_apps_but_keeps_them_alive() {
        let (mut android, a, _) = boot_two();
        android.user_launch("com.a").unwrap();
        android.user_press_home();
        assert_eq!(android.foreground_uid(), Some(android.launcher_uid()));
        let live = android.live_activities_of(a);
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].state, ActivityState::Stopped);
    }

    #[test]
    fn app_opening_home_interrupts_the_victim() {
        let (mut android, a, _) = boot_two();
        let malware = android.install(demo_manifest("com.malware"));
        android.user_launch("com.a").unwrap();
        android.drain_events();
        android.app_open_home(malware);
        let events = android.drain_events();
        assert!(events.iter().any(|timed| matches!(
            &timed.event,
            FrameworkEvent::AppInterrupted { interrupter: ChangeSource::App(who), victim }
                if *who == malware && *victim == a
        )));
    }

    #[test]
    fn move_to_front_restores_without_restart() {
        let (mut android, a, b) = boot_two();
        android.user_launch("com.a").unwrap();
        android
            .start_activity(a, Intent::explicit("com.b", "Main"))
            .unwrap();
        android.drain_events();
        android.move_task_to_front(ChangeSource::User, a).unwrap();
        assert_eq!(android.foreground_uid(), Some(a));
        let events = android.drain_events();
        assert!(events.iter().any(|timed| matches!(
            &timed.event,
            FrameworkEvent::ActivityMovedToFront { uid, .. } if *uid == a
        )));
        assert!(events.iter().any(|timed| matches!(
            &timed.event,
            FrameworkEvent::AppResumedToFront { uid } if *uid == a
        )));
        // No new ActivityStarted for a.
        assert!(!events.iter().any(|timed| matches!(
            &timed.event,
            FrameworkEvent::ActivityStarted { driven, .. } if *driven == a
        )));
        let _ = b;
    }

    #[test]
    fn service_stays_alive_through_foreign_binding() {
        let (mut android, a, b) = boot_two();
        android
            .start_service(b, Intent::explicit("com.b", "Worker"))
            .unwrap();
        let connection = android
            .bind_service(a, Intent::explicit("com.b", "Worker"))
            .unwrap();
        let still_running = android
            .stop_service(b, Intent::explicit("com.b", "Worker"))
            .unwrap();
        assert!(still_running, "attack #3: binding pins the service");
        android.unbind_service(a, connection).unwrap();
        assert!(android.running_services_of(b).is_empty());
    }

    #[test]
    fn wakelock_requires_permission() {
        let mut android = AndroidSystem::new();
        let powerless = android.install(AppManifest::builder("com.powerless").build());
        let err = android
            .acquire_wakelock(powerless, WakelockKind::Full)
            .unwrap_err();
        assert!(matches!(err, FrameworkError::PermissionDenied { .. }));
    }

    #[test]
    fn screen_wakelock_prevents_timeout() {
        let (mut android, a, _) = boot_two();
        android.user_launch("com.a").unwrap();
        let _lock = android
            .acquire_wakelock(a, WakelockKind::ScreenBright)
            .unwrap();
        android.advance(SimDuration::from_secs(120));
        assert!(android.screen_is_on(), "wakelock holds the screen");
    }

    #[test]
    fn screen_times_out_without_wakelock() {
        let (mut android, _, _) = boot_two();
        android.user_launch("com.a").unwrap();
        android.advance(SimDuration::from_secs(31));
        assert!(!android.screen_is_on());
        assert_eq!(android.foreground_uid(), None);
    }

    #[test]
    fn onpause_policy_releases_on_interruption() {
        let mut android = AndroidSystem::new();
        let good = android.install_with_behavior(
            demo_manifest("com.good"),
            AppBehavior::light(), // OnPause policy
        );
        let other = android.install(demo_manifest("com.other"));
        android.user_launch("com.good").unwrap();
        android.acquire_wakelock(good, WakelockKind::Full).unwrap();
        assert_eq!(android.held_wakelocks(good).len(), 1);
        android.user_press_home();
        assert!(android.held_wakelocks(good).is_empty());
        let _ = other;
    }

    #[test]
    fn ondestroy_policy_leaks_across_backgrounding() {
        let mut android = AndroidSystem::new();
        let buggy = android.install_with_behavior(
            demo_manifest("com.buggy"),
            AppBehavior::demo(), // OnDestroy policy
        );
        android.user_launch("com.buggy").unwrap();
        android.acquire_wakelock(buggy, WakelockKind::Full).unwrap();
        android.user_press_home();
        assert_eq!(
            android.held_wakelocks(buggy).len(),
            1,
            "the paper's no-sleep bug: lock survives onStop"
        );
        // Quitting the app (destroy) finally releases.
        android.quit_app(buggy);
        assert!(android.held_wakelocks(buggy).is_empty());
    }

    #[test]
    fn link_to_death_releases_on_kill() {
        let mut android = AndroidSystem::new();
        let evil = android.install_with_behavior(
            demo_manifest("com.evil"),
            AppBehavior::light().with_wakelock_policy(crate::WakelockPolicy::Never),
        );
        android.user_launch("com.evil").unwrap();
        android.acquire_wakelock(evil, WakelockKind::Full).unwrap();
        android.quit_app(evil);
        assert_eq!(
            android.held_wakelocks(evil).len(),
            1,
            "Never survives destroy"
        );
        android.drain_events();
        android.kill_app(evil).unwrap();
        assert!(android.held_wakelocks(evil).is_empty());
        let events = android.drain_events();
        assert!(events.iter().any(|timed| matches!(
            &timed.event,
            FrameworkEvent::WakelockReleased { on_death: true, .. }
        )));
    }

    #[test]
    fn brightness_write_requires_permission() {
        let mut android = AndroidSystem::new();
        let powerless = android.install(AppManifest::builder("com.powerless").build());
        let err = android
            .set_brightness(ChangeSource::App(powerless), 255)
            .unwrap_err();
        assert!(matches!(err, FrameworkError::PermissionDenied { .. }));
        // The user can always write.
        android.set_brightness(ChangeSource::User, 255).unwrap();
        assert_eq!(android.effective_brightness(), 255);
    }

    #[test]
    fn implicit_intent_with_two_handlers_needs_resolver() {
        let mut android = AndroidSystem::new();
        let caller = android.install(demo_manifest("com.caller"));
        let _one = android.install(
            AppManifest::builder("com.one")
                .activity_with_actions("Edit", true, &["EDIT"])
                .build(),
        );
        let two = android.install(
            AppManifest::builder("com.two")
                .activity_with_actions("Edit", true, &["EDIT"])
                .build(),
        );
        let result = android
            .start_activity(caller, Intent::implicit("EDIT"))
            .unwrap();
        let StartResult::NeedsResolver(candidates) = result else {
            panic!("expected resolver");
        };
        assert_eq!(candidates.len(), 2);
        android.drain_events();
        let chosen = android.user_resolve("com.two").unwrap();
        assert_eq!(chosen, two);
        let events = android.drain_events();
        assert!(events.iter().any(|timed| matches!(
            &timed.event,
            FrameworkEvent::ActivityStarted { source: ChangeSource::App(driving), via_resolver: true, .. }
                if *driving == caller
        )));
    }

    #[test]
    fn quit_dialog_interception() {
        let mut android = AndroidSystem::new();
        let victim = android.install(demo_manifest("com.victim"));
        let malware = android.install(
            AppManifest::builder("com.malware")
                .transparent_activity("Ghost", false)
                .build(),
        );
        android.user_launch("com.victim").unwrap();
        let shown_for = android.user_begin_quit().unwrap();
        assert_eq!(shown_for, victim);
        let vm_with_dialog = android.surfaceflinger().shared_vm_kb();
        // Malware slides its transparent page over the dialog.
        android
            .start_activity(malware, Intent::explicit("com.malware", "Ghost"))
            .unwrap();
        let outcome = android.user_tap_quit_ok().unwrap();
        assert_eq!(outcome, TapOutcome::InterceptedBy(malware));
        // Victim is still alive (stopped under the overlay), not destroyed.
        assert!(!android.live_activities_of(victim).is_empty());
        assert!(android.surfaceflinger().shared_vm_kb() < vm_with_dialog + 1_000_000);
    }

    #[test]
    fn quit_without_interception_destroys() {
        let mut android = AndroidSystem::new();
        let victim = android.install(demo_manifest("com.victim"));
        android.user_launch("com.victim").unwrap();
        android.user_begin_quit().unwrap();
        let outcome = android.user_tap_quit_ok().unwrap();
        assert_eq!(outcome, TapOutcome::AppDestroyed);
        assert!(android.live_activities_of(victim).is_empty());
    }

    #[test]
    fn usage_snapshot_reflects_state() {
        let (mut android, a, _) = boot_two();
        android.user_launch("com.a").unwrap();
        android.camera_start(a, true).unwrap();
        android.set_audio(a, true);
        android.set_wifi_kbps(a, 500.0);
        let usage = android.usage_snapshot();
        assert!(usage.screen.on);
        assert_eq!(usage.screen.foreground, Some(a));
        assert_eq!(usage.camera.unwrap().uid, a);
        assert_eq!(usage.audio, vec![a]);
        assert_eq!(usage.wifi.len(), 1);
        assert!(usage.total_cpu() > 0.0, "foreground app demands CPU");
    }

    #[test]
    fn background_app_still_demands_cpu() {
        let mut android = AndroidSystem::new();
        let hog = android.install_with_behavior(demo_manifest("com.hog"), AppBehavior::heavy());
        android.user_launch("com.hog").unwrap();
        let fg_cpu = android.usage_snapshot().total_cpu();
        android.user_press_home();
        let bg = android.usage_snapshot();
        let hog_cpu: f64 = bg
            .cpu
            .iter()
            .filter(|cpu_use| cpu_use.uid == hog)
            .map(|cpu_use| cpu_use.utilization)
            .sum();
        assert!(hog_cpu > 0.0, "attack #2 premise: background apps drain");
        assert!(hog_cpu < fg_cpu);
    }

    #[test]
    fn kill_app_cleans_everything() {
        let (mut android, a, b) = boot_two();
        android.user_launch("com.a").unwrap();
        android
            .bind_service(a, Intent::explicit("com.b", "Worker"))
            .unwrap();
        android.set_wifi_kbps(a, 100.0);
        android.kill_app(a).unwrap();
        assert!(android.live_activities_of(a).is_empty());
        assert!(android.running_services_of(b).is_empty(), "binding unwound");
        assert!(android.usage_snapshot().wifi.is_empty());
    }

    #[test]
    fn timed_wakelock_auto_releases_at_deadline() {
        let (mut android, a, _) = boot_two();
        android.user_launch("com.a").unwrap();
        android.drain_events();
        android
            .acquire_wakelock_with_timeout(
                a,
                WakelockKind::ScreenBright,
                SimDuration::from_secs(40),
            )
            .unwrap();
        android.advance(SimDuration::from_secs(30));
        assert_eq!(
            android.held_wakelocks(a).len(),
            1,
            "still held before deadline"
        );
        assert!(android.screen_is_on());
        android.advance(SimDuration::from_secs(15));
        assert!(android.held_wakelocks(a).is_empty(), "expired at 40 s");
        let events = android.drain_events();
        assert!(events.iter().any(|timed| matches!(
            &timed.event,
            FrameworkEvent::WakelockReleased {
                on_death: false,
                ..
            }
        )));
        // With the lock gone and the user idle, the screen times out too.
        android.advance(SimDuration::from_secs(60));
        assert!(!android.screen_is_on());
    }

    #[test]
    fn incoming_call_interrupts_and_resumes() {
        let (mut android, a, _) = boot_two();
        android.user_launch("com.a").unwrap();
        android.incoming_call().unwrap();
        assert_eq!(android.foreground_uid(), Some(android.system_ui_uid()));
        assert_eq!(
            android.live_activities_of(a)[0].state,
            ActivityState::Stopped,
            "opaque call UI stops the victim"
        );
        android.end_call().unwrap();
        assert_eq!(android.foreground_uid(), Some(a));
    }

    #[test]
    fn call_popup_triggers_the_no_sleep_bug() {
        // A victim with the OnDestroy policy keeps its wakelock across the
        // unintentional interruption — no malware involved.
        let mut android = AndroidSystem::new();
        let victim = android.install_with_behavior(
            demo_manifest("com.victim"),
            AppBehavior::demo(), // OnDestroy policy
        );
        android.user_launch("com.victim").unwrap();
        android
            .acquire_wakelock(victim, WakelockKind::Full)
            .unwrap();
        android.incoming_call().unwrap();
        assert_eq!(android.held_wakelocks(victim).len(), 1, "lock leaks");
    }

    #[test]
    fn notification_popup_only_pauses() {
        let (mut android, a, _) = boot_two();
        android.user_launch("com.a").unwrap();
        android.show_notification().unwrap();
        assert_eq!(
            android.live_activities_of(a)[0].state,
            ActivityState::Paused,
            "transparent popup pauses instead of stopping"
        );
        android.dismiss_notification().unwrap();
        assert_eq!(android.foreground_uid(), Some(a));
    }

    #[test]
    fn uninstall_removes_the_app_entirely() {
        let (mut android, a, b) = boot_two();
        android.user_launch("com.a").unwrap();
        android
            .bind_service(a, Intent::explicit("com.b", "Worker"))
            .unwrap();
        android.uninstall("com.a").unwrap();
        assert!(android.uid_of("com.a").is_none());
        assert!(android.app(a).is_none());
        assert!(
            android.running_services_of(b).is_empty(),
            "bindings unwound"
        );
        assert!(
            android.uninstall("com.a").is_err(),
            "second uninstall fails"
        );
        assert!(
            android.uninstall("android.launcher").is_err(),
            "system apps are protected"
        );
    }

    #[test]
    fn broadcast_reaches_matching_receivers_only() {
        let mut android = AndroidSystem::new();
        let listener = android.install(
            AppManifest::builder("com.listener")
                .receiver("Unlock", true, &[AndroidSystem::ACTION_USER_PRESENT])
                .build(),
        );
        let _deaf = android.install(
            AppManifest::builder("com.deaf")
                .activity("Main", true)
                .build(),
        );
        android.drain_events();

        let receivers = android.user_unlock();
        assert_eq!(receivers, vec![listener]);
        // Delivery spawns the listener's process (the stealth-launch point).
        assert!(android.app(listener).unwrap().pid.is_some());
        let events = android.drain_events();
        assert!(events.iter().any(|timed| matches!(
            &timed.event,
            FrameworkEvent::BroadcastDelivered { receiver, .. } if *receiver == listener
        )));
    }

    #[test]
    fn disabling_event_recording_models_stock_android() {
        let (mut android, _, _) = boot_two();
        android.set_event_recording(false);
        assert!(!android.event_recording());
        android.user_launch("com.a").unwrap();
        assert!(android.drain_events().is_empty());
        android.set_event_recording(true);
        android.user_press_home();
        assert!(!android.drain_events().is_empty());
    }

    #[test]
    fn finish_activity_restores_the_covered_app() {
        let mut android = AndroidSystem::new();
        let victim = android.install(demo_manifest("com.victim"));
        let malware = android.install(
            AppManifest::builder("com.malware")
                .transparent_activity("Ghost", false)
                .permission(Permission::WriteSettings)
                .build(),
        );
        android.user_launch("com.victim").unwrap();
        android
            .start_activity(malware, Intent::explicit("com.malware", "Ghost"))
            .unwrap();
        assert_eq!(android.foreground_uid(), Some(malware));
        android.finish_activity(malware, "Ghost").unwrap();
        assert_eq!(android.foreground_uid(), Some(victim));
        assert!(android.finish_activity(malware, "Ghost").is_err());
    }

    #[test]
    fn transparent_cover_pauses_instead_of_stopping() {
        let mut android = AndroidSystem::new();
        let victim = android.install(demo_manifest("com.victim"));
        let overlay = android.install(
            AppManifest::builder("com.overlay")
                .transparent_activity("Ghost", true)
                .build(),
        );
        android.user_launch("com.victim").unwrap();
        android
            .start_activity(overlay, Intent::explicit("com.overlay", "Ghost"))
            .unwrap();
        let live = android.live_activities_of(victim);
        assert_eq!(live[0].state, ActivityState::Paused);
        assert_eq!(android.foreground_uid(), Some(overlay));
    }
}
