//! The top-level profiler: power integration + attribution + (optionally)
//! collateral monitoring.

use std::sync::Arc;

use ea_framework::{AndroidSystem, TimedEvent};
use ea_power::{Battery, ComponentDraw, DevicePowerModel, DeviceUsage, Energy};
use ea_sim::SimDuration;
use ea_telemetry::{span, SinkHandle, TelemetryEvent, TelemetrySink};

use ea_power::Component;

use crate::accounting::{attribute_into, collateral_consumers_into};
use crate::{
    CollateralGraph, CollateralMonitor, EnergyLedger, Entity, ProfilerChaos, RoutineLedger,
    ScreenPolicy,
};

/// An energy profiler attached to a simulated handset.
///
/// Construct with [`Profiler::android`] for the baseline behaviour (the
/// paper's "Android": attribution only) or [`Profiler::eandroid`] for the
/// full system (baseline **plus** collateral monitoring and energy maps).
/// Drive it with [`step`](Profiler::step)/[`run`](Profiler::run); read the
/// baseline ledger, the collateral graph, and the battery.
///
/// # Example
///
/// ```
/// use ea_core::{Profiler, ScreenPolicy};
/// use ea_framework::{AndroidSystem, AppManifest};
/// use ea_sim::SimDuration;
///
/// let mut android = AndroidSystem::new();
/// android.install(AppManifest::builder("com.demo").activity("Main", true).build());
/// android.user_launch("com.demo").unwrap();
///
/// let mut profiler = Profiler::eandroid(ScreenPolicy::SeparateEntity);
/// profiler.run(&mut android, SimDuration::from_secs(10));
/// assert!(profiler.battery().percent() < 100.0);
/// assert!(profiler.ledger().grand_total().as_joules() > 0.0);
/// ```
#[derive(Debug)]
pub struct Profiler {
    model: DevicePowerModel,
    battery: Battery,
    policy: ScreenPolicy,
    step: SimDuration,
    ledger: EnergyLedger,
    monitor: Option<CollateralMonitor>,
    routines: Option<RoutineLedger>,
    integrated: Energy,
    telemetry: SinkHandle,
    /// Fault injection + counter sanitization, when chaos is attached.
    chaos: Option<Box<ProfilerChaos>>,
    /// What the last recomputed step derived from the device's usage,
    /// replayed while the usage holds still.
    plan: StepPlan,
    /// Scratch buffers recycled across steps so a steady-state tick makes
    /// no heap allocations.
    events_scratch: Vec<TimedEvent>,
    /// Per-interval per-app charge accumulator (telemetry only).
    interval_charges_scratch: Vec<(ea_sim::Uid, f64)>,
    /// Staged telemetry events, flushed to the sink once per traced step.
    staged_events: Vec<TelemetryEvent>,
}

impl Profiler {
    /// Default integration step: 100 ms, fine enough that every scenario
    /// event lands on a boundary error well below 1 %.
    pub const DEFAULT_STEP: SimDuration = SimDuration::from_millis(100);

    /// A baseline profiler (the paper's unmodified "Android" accounting).
    pub fn android(policy: ScreenPolicy) -> Self {
        Profiler {
            model: DevicePowerModel::nexus4(),
            battery: Battery::nexus4(),
            policy,
            step: Self::DEFAULT_STEP,
            ledger: EnergyLedger::new(),
            monitor: None,
            routines: None,
            integrated: Energy::ZERO,
            telemetry: SinkHandle::noop(),
            chaos: None,
            plan: StepPlan::default(),
            events_scratch: Vec::new(),
            interval_charges_scratch: Vec::new(),
            staged_events: Vec::new(),
        }
    }

    /// An E-Android profiler: baseline accounting plus collateral
    /// monitoring.
    pub fn eandroid(policy: ScreenPolicy) -> Self {
        Profiler {
            monitor: Some(CollateralMonitor::new()),
            ..Profiler::android(policy)
        }
    }

    /// Replaces the hardware model (default: Nexus 4 calibration).
    pub fn with_model(mut self, model: DevicePowerModel) -> Self {
        self.model = model;
        self.plan.epoch = None;
        self
    }

    /// Replaces the integration step.
    pub fn with_step(mut self, step: SimDuration) -> Self {
        assert!(!step.is_zero(), "integration step must be positive");
        self.step = step;
        self.plan.epoch = None;
        self
    }

    /// Attaches a telemetry sink: [`step`](Profiler::step) emits
    /// per-interval attribution and battery-drain events, times its hot
    /// paths as spans, and (in E-Android mode) forwards attack open/close
    /// through the collateral monitor. The default sink discards
    /// everything.
    pub fn with_telemetry(mut self, sink: Arc<dyn TelemetrySink>) -> Self {
        self.set_telemetry_handle(SinkHandle::new(sink));
        self
    }

    /// [`with_telemetry`](Profiler::with_telemetry) as a setter, with a
    /// pre-wrapped handle shared across layers.
    pub fn set_telemetry_handle(&mut self, handle: SinkHandle) {
        if let Some(monitor) = &mut self.monitor {
            monitor.set_telemetry(handle.clone());
        }
        self.telemetry = handle;
    }

    /// The telemetry handle in use (no-op by default).
    pub fn telemetry(&self) -> &SinkHandle {
        &self.telemetry
    }

    /// Enables eprof-style routine-level CPU accounting: each app's CPU
    /// energy is additionally split across its foreground UI, background
    /// residue, services, and scripted work.
    pub fn with_routine_accounting(mut self) -> Self {
        self.routines = Some(RoutineLedger::new());
        self
    }

    /// Attaches seeded kernel-counter fault injection: every step the
    /// per-component counter readings pass through the injector and the
    /// counter sanitizer before any energy reaches the ledger. The battery
    /// always drains the true energy; attribution sees the sanitized
    /// (possibly held-last-good, conservation-capped) energy, tagged
    /// [`crate::Confidence::Degraded`] where repaired. A zero-rate plan is
    /// a byte-exact no-op.
    pub fn with_chaos(mut self, faults: ea_chaos::PowerFaults) -> Self {
        self.chaos = Some(Box::new(ProfilerChaos::new(faults)));
        self
    }

    /// The fault-injection state, when chaos is attached.
    pub fn chaos(&self) -> Option<&ProfilerChaos> {
        self.chaos.as_deref()
    }

    /// Whether collateral monitoring is enabled (E-Android mode).
    pub fn is_collateral_enabled(&self) -> bool {
        self.monitor.is_some()
    }

    /// The attribution policy in use.
    pub fn policy(&self) -> ScreenPolicy {
        self.policy
    }

    /// Advances the handset by one integration step and accounts the
    /// interval.
    ///
    /// The profiler keeps a step plan: the usage snapshot, the component
    /// draws, and every draw's attribution charges and collateral
    /// consumers from the last step that recomputed them.
    /// While the framework's [`usage_epoch`] and the radios' outputs hold
    /// still the step replays the plan, applying the same float adds in
    /// the same order, and it rebuilds the plan on the first step where
    /// either moves. Attached chaos rewrites the draws, so a faulted
    /// profiler rebuilds every step. A steady-state step touches the
    /// allocator zero times; with no telemetry sink attached, no event
    /// payloads, timestamps, or spans are constructed at all.
    ///
    /// [`usage_epoch`]: AndroidSystem::usage_epoch
    pub fn step(&mut self, android: &mut AndroidSystem) {
        let traced = self.telemetry.enabled();
        let _step_span = traced.then(|| span(self.telemetry.sink(), "profiler_step"));
        let dt = self.step;
        android.advance(dt);
        android.drain_events_into(&mut self.events_scratch);
        if let Some(monitor) = &mut self.monitor {
            let _observe_span = traced.then(|| span(self.telemetry.sink(), "collateral_observe"));
            monitor.observe(&self.events_scratch);
        }
        let now = android.now();
        let epoch = android.usage_epoch();
        let plan = &mut self.plan;
        // The radios observe every step, replayed or not, so their tails
        // expire on sim time.
        let replay = plan.epoch == Some(epoch) && !self.model.observe_radios(now, &plan.usage);
        if replay {
            #[cfg(debug_assertions)]
            plan.assert_current(android, &mut self.model, dt, self.policy);
        } else {
            android.usage_snapshot_into(&mut plan.usage);
            self.model.draws_into(now, &plan.usage, &mut plan.draws);
        }
        let drained_before = self.battery.drained();
        // Chaos pre-pass: drains the battery with true energy and rescales
        // glitched draws to their sanitized values, so the loop below must
        // not drain again, and the plan must not be replayed.
        let predrained = match &mut self.chaos {
            Some(chaos) => {
                chaos.apply(&mut plan.draws, dt, &mut self.battery, &self.telemetry);
                true
            }
            None => false,
        };
        if !replay {
            plan.derive_from_draws(dt, self.policy);
            plan.epoch = (!predrained).then_some(epoch);
        }
        // Per-app charge this interval, summed over components (telemetry
        // only; the ledger keeps the per-component split).
        let mut interval_charges = std::mem::take(&mut self.interval_charges_scratch);
        interval_charges.clear();
        {
            let _attribute_span = traced.then(|| span(self.telemetry.sink(), "attribute"));
            let attribute_started = traced.then(std::time::Instant::now);
            let mut first = 0;
            for (draw, &(energy, end)) in plan.draws.iter().zip(&plan.spans) {
                self.integrated += energy;
                if !predrained {
                    let _ = self.battery.drain(energy);
                }
                for &(entity, charge) in &plan.charges[first..end] {
                    if traced {
                        if let Some(uid) = entity.uid() {
                            match interval_charges.iter_mut().find(|(u, _)| *u == uid) {
                                Some((_, joules)) => *joules += charge.as_joules(),
                                None => interval_charges.push((uid, charge.as_joules())),
                            }
                        }
                    }
                    self.ledger.charge(entity, draw.component, charge);
                }
                first = end;
                // Routine-level split of each app's CPU energy.
                if draw.component == Component::Cpu {
                    if let Some(routines) = &mut self.routines {
                        for user in &draw.users {
                            let share = energy * user.share.clamp(0.0, 1.0);
                            let parts = android.demand_breakdown(user.uid);
                            routines.charge_split(user.uid, share, &parts);
                        }
                    }
                }
            }
            if let Some(started) = attribute_started {
                self.telemetry.observe(
                    "attribution_interval_us",
                    started.elapsed().as_secs_f64() * 1e6,
                );
            }
        }
        if let Some(monitor) = &mut self.monitor {
            monitor.accrue_consumers(&plan.consumers);
        }
        if traced {
            let mut staged = std::mem::take(&mut self.staged_events);
            self.emit_step_events(android, &interval_charges, drained_before, &mut staged);
            self.staged_events = staged;
        }
        self.interval_charges_scratch = interval_charges;
    }

    /// Per-step telemetry tail, only reached with an enabled sink. Events are staged into a recycled buffer and
    /// flushed through one batched sink call, so an enabled sink costs one
    /// lock round per step instead of one per event; the staged order —
    /// attributions in first-charge order, then the battery drain — matches
    /// the per-event emission byte for byte.
    fn emit_step_events(
        &self,
        android: &AndroidSystem,
        interval_charges: &[(ea_sim::Uid, f64)],
        drained_before: Energy,
        staged: &mut Vec<TelemetryEvent>,
    ) {
        let t_us = android.now().as_millis() * 1_000;
        staged.clear();
        for &(uid, joules) in interval_charges {
            staged.push(TelemetryEvent::Attribution {
                uid: uid.as_raw(),
                joules,
            });
        }
        staged.push(TelemetryEvent::BatteryDrain {
            joules: (self.battery.drained() - drained_before).as_joules(),
            remaining_percent: self.battery.percent(),
        });
        self.telemetry.record_events(t_us, staged);
        self.telemetry
            .gauge_set("battery_percent", self.battery.percent());
    }

    /// Runs for `span` (rounded up to whole steps).
    pub fn run(&mut self, android: &mut AndroidSystem, span: SimDuration) {
        let steps = span.as_millis().div_ceil(self.step.as_millis().max(1));
        for _ in 0..steps {
            self.step(android);
        }
    }

    /// Runs until the battery empties or `cap` elapses; returns whether the
    /// battery died.
    pub fn run_until_empty(&mut self, android: &mut AndroidSystem, cap: SimDuration) -> bool {
        let steps = cap.as_millis().div_ceil(self.step.as_millis().max(1));
        for _ in 0..steps {
            if self.battery.is_empty() {
                return true;
            }
            self.step(android);
        }
        self.battery.is_empty()
    }

    /// The baseline attribution ledger (what the stock battery interface
    /// shows).
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// The collateral energy maps, when running as E-Android.
    pub fn collateral(&self) -> Option<&CollateralGraph> {
        self.monitor.as_ref().map(CollateralMonitor::graph)
    }

    /// The collateral monitor, when running as E-Android.
    pub fn monitor(&self) -> Option<&CollateralMonitor> {
        self.monitor.as_ref()
    }

    /// The battery.
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// The routine-level CPU ledger, when enabled with
    /// [`with_routine_accounting`](Profiler::with_routine_accounting).
    pub fn routines(&self) -> Option<&RoutineLedger> {
        self.routines.as_ref()
    }

    /// Total energy integrated over all steps — equals the ledger's grand
    /// total (conservation) and, until empty, the battery's drained energy.
    pub fn integrated_energy(&self) -> Energy {
        self.integrated
    }
}

/// What the last recomputed step derived from the device's usage: the
/// snapshot, the component draws, each draw's energy and attribution
/// charges, and the collateral consumers' energies. All of it is a
/// function of the usage and the radios' outputs (the step and the policy
/// are fixed per profiler), so a step may replay it while neither moves.
#[derive(Debug, Default)]
struct StepPlan {
    /// The usage epoch the plan was built at; `None` when it must not be
    /// replayed (not built yet, or chaos rewrote its draws).
    epoch: Option<u64>,
    usage: DeviceUsage,
    draws: Vec<ComponentDraw>,
    /// Per draw, in draw order: its interval energy and the end of its
    /// charges in `charges` (each draw's run starts where the last ended).
    spans: Vec<(Energy, usize)>,
    charges: Vec<(Entity, Energy)>,
    /// Every draw's collateral consumers, in draw order.
    consumers: Vec<(Entity, Energy)>,
    /// Attribution scratch, recycled across rebuilds.
    scratch: Vec<(Entity, Energy)>,
}

impl StepPlan {
    /// Recomputes `spans`, `charges` and `consumers` from `draws`.
    fn derive_from_draws(&mut self, dt: SimDuration, policy: ScreenPolicy) {
        self.spans.clear();
        self.charges.clear();
        self.consumers.clear();
        for draw in &self.draws {
            attribute_into(draw, dt, policy, &mut self.scratch);
            self.charges.extend_from_slice(&self.scratch);
            self.spans
                .push((Energy::from_power(draw.power_mw, dt), self.charges.len()));
            collateral_consumers_into(draw, dt, &mut self.scratch);
            self.consumers.extend_from_slice(&self.scratch);
        }
    }

    /// The debug-build oracle on every replayed step: recomputes the
    /// snapshot, the draws, the charges and the consumers from scratch and
    /// asserts the plan still equals them.
    #[cfg(debug_assertions)]
    fn assert_current(
        &self,
        android: &AndroidSystem,
        model: &mut DevicePowerModel,
        dt: SimDuration,
        policy: ScreenPolicy,
    ) {
        let mut fresh = StepPlan {
            usage: android.usage_snapshot(),
            ..StepPlan::default()
        };
        assert_eq!(
            fresh.usage, self.usage,
            "usage snapshot changed without a usage_epoch bump"
        );
        // Observing the radios again at the same instant is idempotent.
        fresh.draws = model.draws(android.now(), &fresh.usage);
        assert_eq!(
            fresh.draws, self.draws,
            "draws changed under a replayed plan"
        );
        fresh.derive_from_draws(dt, policy);
        assert_eq!(fresh.spans, self.spans);
        assert_eq!(fresh.charges, self.charges);
        assert_eq!(fresh.consumers, self.consumers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_framework::{AppManifest, Intent, Permission};

    fn manifest(package: &str) -> AppManifest {
        AppManifest::builder(package)
            .activity("Main", true)
            .service("Worker", true)
            .permission(Permission::WakeLock)
            .build()
    }

    #[test]
    fn conservation_ledger_equals_integrated() {
        let mut android = AndroidSystem::new();
        android.install(manifest("com.a"));
        android.user_launch("com.a").unwrap();
        let mut profiler = Profiler::android(ScreenPolicy::SeparateEntity);
        profiler.run(&mut android, SimDuration::from_secs(60));
        let ledger_total = profiler.ledger().grand_total();
        let integrated = profiler.integrated_energy();
        assert!(
            (ledger_total.as_joules() - integrated.as_joules()).abs() < 1e-6,
            "every joule of draw is attributed: {ledger_total} vs {integrated}"
        );
        assert!((profiler.battery().drained().as_joules() - integrated.as_joules()).abs() < 1e-6);
    }

    #[test]
    fn baseline_profiler_has_no_collateral() {
        let profiler = Profiler::android(ScreenPolicy::ForegroundApp);
        assert!(!profiler.is_collateral_enabled());
        assert!(profiler.collateral().is_none());
    }

    #[test]
    fn eandroid_charges_cross_app_start() {
        let mut android = AndroidSystem::new();
        let a = android.install(manifest("com.a"));
        let b = android.install(manifest("com.b"));
        android.user_launch("com.a").unwrap();
        let mut profiler = Profiler::eandroid(ScreenPolicy::SeparateEntity);
        profiler.run(&mut android, SimDuration::from_secs(5));

        android
            .start_activity(a, Intent::explicit("com.b", "Main"))
            .unwrap();
        profiler.run(&mut android, SimDuration::from_secs(30));

        let graph = profiler.collateral().unwrap();
        let collateral = graph.collateral_total(a);
        assert!(
            collateral.as_joules() > 0.0,
            "a is charged for b's energy while the attack period is open"
        );
        assert!(graph.collateral_total(b).is_zero());
    }

    #[test]
    fn quiet_steps_replay_the_plan_and_chaos_never_does() {
        let mut android = AndroidSystem::new();
        android.install(manifest("com.a"));
        android.user_launch("com.a").unwrap();
        let mut quiet = Profiler::eandroid(ScreenPolicy::SeparateEntity);
        let mut faulted = Profiler::eandroid(ScreenPolicy::SeparateEntity)
            .with_chaos(ea_chaos::FaultPlan::zero(1).power_faults(0));
        quiet.step(&mut android);
        let epoch = android.usage_epoch();
        assert_eq!(quiet.plan.epoch, Some(epoch), "built at the current epoch");
        quiet.step(&mut android);
        assert_eq!(android.usage_epoch(), epoch, "nothing moved");
        assert_eq!(quiet.plan.epoch, Some(epoch), "so the step replayed");

        android.set_audio(android.uid_of("com.a").unwrap(), true);
        quiet.step(&mut android);
        assert_ne!(quiet.plan.epoch, Some(epoch), "a usage write rebuilds");

        faulted.step(&mut android);
        assert_eq!(faulted.plan.epoch, None, "chaos rewrites draws");
    }

    #[test]
    fn run_until_empty_respects_the_cap() {
        let mut android = AndroidSystem::new();
        android.install(manifest("com.a"));
        android.user_launch("com.a").unwrap();
        let mut profiler =
            Profiler::android(ScreenPolicy::SeparateEntity).with_step(SimDuration::from_secs(1));
        let died = profiler.run_until_empty(&mut android, SimDuration::from_secs(30));
        assert!(!died, "a Nexus 4 pack outlives 30 seconds");
        assert!(profiler.battery().percent() > 99.0);
    }

    #[test]
    fn routine_accounting_splits_cpu_energy() {
        let mut android = AndroidSystem::new();
        let app = android.install(manifest("com.a"));
        android.user_launch("com.a").unwrap();
        android
            .start_service(app, Intent::explicit("com.a", "Worker"))
            .unwrap();
        let mut profiler =
            Profiler::android(ScreenPolicy::SeparateEntity).with_routine_accounting();
        profiler.run(&mut android, SimDuration::from_secs(10));

        let routines = profiler.routines().expect("enabled");
        let rows = routines.breakdown_of(app);
        assert!(
            rows.iter()
                .any(|(routine, _)| matches!(routine, ea_framework::Routine::Service(_))),
            "service routine present: {rows:?}"
        );
        assert!(
            rows.iter()
                .any(|(routine, _)| *routine == ea_framework::Routine::ForegroundUi),
            "foreground routine present: {rows:?}"
        );
        // The routine split partitions the app's CPU ledger entry.
        let cpu_total = profiler
            .ledger()
            .of(crate::Entity::App(app), Component::Cpu)
            .as_joules();
        assert!((routines.total_of(app).as_joules() - cpu_total).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "integration step must be positive")]
    fn zero_step_is_rejected() {
        let _ = Profiler::android(ScreenPolicy::SeparateEntity).with_step(SimDuration::ZERO);
    }

    fn busy_handset() -> AndroidSystem {
        let mut android = AndroidSystem::new();
        android.install(manifest("com.a"));
        android.install(manifest("com.b"));
        android.user_launch("com.a").unwrap();
        android
    }

    #[test]
    fn tracing_leaves_accounting_unchanged_and_attributions_sum_to_the_ledger() {
        let run = |traced: bool| {
            let mut android = busy_handset();
            let recorder = Arc::new(ea_telemetry::Recorder::new());
            let mut profiler = Profiler::eandroid(ScreenPolicy::SeparateEntity);
            if traced {
                profiler = profiler.with_telemetry(recorder.clone() as Arc<dyn TelemetrySink>);
            }
            profiler.run(&mut android, SimDuration::from_secs(30));
            (profiler, recorder.events())
        };
        let (bare, none) = run(false);
        let (traced, events) = run(true);
        assert!(none.is_empty(), "an untraced run records nothing");
        assert_eq!(
            serde_json::to_string(bare.ledger()).unwrap(),
            serde_json::to_string(traced.ledger()).unwrap(),
            "tracing must not move a byte of the ledger"
        );
        assert_eq!(
            serde_json::to_string(bare.collateral().unwrap()).unwrap(),
            serde_json::to_string(traced.collateral().unwrap()).unwrap(),
            "tracing must not move a byte of the collateral graph"
        );

        let mut attributed: std::collections::BTreeMap<u32, f64> = Default::default();
        for record in &events {
            if let TelemetryEvent::Attribution { uid, joules } = record.event {
                *attributed.entry(uid).or_default() += joules;
            }
        }
        let ledger = traced.ledger();
        let apps: Vec<u32> = ledger
            .entities()
            .filter_map(|entity| entity.uid().map(ea_sim::Uid::as_raw))
            .collect();
        assert!(!apps.is_empty());
        assert_eq!(
            attributed.keys().copied().collect::<Vec<_>>(),
            apps,
            "every charged app has attribution events, and only those"
        );
        for (uid, joules) in attributed {
            let total = ledger
                .total_of(Entity::App(ea_sim::Uid::from_raw(uid)))
                .as_joules();
            assert!(
                (joules - total).abs() <= 1e-9 * total.abs(),
                "uid {uid}: attribution events sum to {joules} J, ledger says {total} J"
            );
        }
    }
}
