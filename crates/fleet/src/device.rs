//! One device of the fleet: install a sampled app mix, run a scripted
//! day-in-the-life, and distill the outcome into a [`DeviceReport`].
//!
//! The whole simulation is a pure function of `(config, corpus, index)`:
//! the device's RNG is seeded by [`crate::device_seed`], all framework and
//! profiler state is local, and nothing reads clocks or global state, so
//! the same device produces the same report on any worker thread.

use std::collections::BTreeMap;

use ea_apps::demo::{packages, DemoApps, ACTION_VIDEO_CAPTURE};
use ea_apps::malware::{Malware, MALWARE_PACKAGE};
use ea_chaos::{FaultLog, FaultPlan};
use ea_core::{labels_from, Entity, Profiler, ScreenPolicy};
use ea_framework::{
    AndroidSystem, AppManifest, Cause, ChangeSource, Intent, IntentLogRecorder, WakelockKind,
};
use ea_lint::{soundness, Linter};
use ea_sim::{SimDuration, SimRng, Uid};
use ea_telemetry::SinkHandle;
use serde::{Deserialize, Serialize};

use crate::config::{device_seed, FleetConfig};

/// The attack vectors the fleet malware can fire, mirroring the paper's
/// attacks #1/#2/#3/#5 (manual and auto-mode) and #6. Attack #4's
/// tap-jack choreography needs an attended quit dialog, which the random
/// day does not script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttackVector {
    CameraHijack,
    BackgroundApps,
    BindService,
    Brightness,
    BrightnessAutoMode,
    WakelockHold,
}

impl AttackVector {
    const ALL: [AttackVector; 6] = [
        AttackVector::CameraHijack,
        AttackVector::BackgroundApps,
        AttackVector::BindService,
        AttackVector::Brightness,
        AttackVector::BrightnessAutoMode,
        AttackVector::WakelockHold,
    ];

    fn label(self) -> &'static str {
        match self {
            AttackVector::CameraHijack => "camera_hijack",
            AttackVector::BackgroundApps => "background_apps",
            AttackVector::BindService => "bind_service",
            AttackVector::Brightness => "brightness",
            AttackVector::BrightnessAutoMode => "brightness_auto_mode",
            AttackVector::WakelockHold => "wakelock_hold",
        }
    }
}

/// The message prefix of a chaos-injected device panic; the supervisor
/// recognizes it to account the fault as injected-and-caught.
pub const CHAOS_PANIC_PREFIX: &str = "chaos: injected device panic";

/// A partial-progress snapshot the simulation writes after every
/// completed session. When the device later panics, the supervisor
/// salvages the last snapshot into the [`crate::DeviceFailure`] so a
/// crashed device still contributes evidence instead of vanishing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceCheckpoint {
    /// User sessions that fully completed before the crash.
    pub sessions_completed: usize,
    /// Simulated seconds covered by those sessions.
    pub sim_seconds: f64,
    /// Battery energy drained so far, joules.
    pub drained_joules: f64,
}

/// The distilled outcome of one simulated device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceReport {
    /// Device index within the fleet.
    pub index: usize,
    /// The device's derived seed.
    pub seed: u64,
    /// Installed user apps (corpus mix + demo set + malware if infected).
    pub apps_installed: usize,
    /// Whether the energy malware is installed.
    pub infected: bool,
    /// Attack vectors the malware fired (empty when uninfected).
    pub vectors: Vec<String>,
    /// Simulated day length, seconds.
    pub sim_seconds: f64,
    /// Battery energy drained over the day, joules.
    pub drained_joules: f64,
    /// Battery remaining at the end of the day, percent.
    pub battery_percent: f64,
    /// Attack periods the collateral monitor recorded, per kind label.
    pub periods_by_kind: BTreeMap<String, usize>,
    /// Collateral energy per attack kind, joules. A driver hosting several
    /// kinds splits its total proportionally to its per-kind period counts
    /// (the graph does not record per-period energy).
    pub collateral_by_kind: BTreeMap<String, f64>,
    /// Collateral energy charged to each driving package, joules.
    pub drivers: BTreeMap<String, f64>,
    /// Collateral energy consumed by each driven entity (package name,
    /// `screen`, or `system`), joules.
    pub victims: BTreeMap<String, f64>,
    /// Apps the static linter flagged, per predicted attack-kind label.
    pub predicted_apps_by_kind: BTreeMap<String, usize>,
    /// Apps the pre-run lint pass analyzed.
    pub apps_linted: usize,
    /// Diagnostics the pre-run lint pass emitted.
    pub lint_diagnostics: usize,
    /// Dynamically observed `(uid, kind)` pairs the static pass missed.
    /// The superset invariant says this is always zero.
    pub soundness_violations: usize,
    /// Total static energy bound of the pre-run lint report, joules/day
    /// (the sum of every diagnostic's `predicted_joules`). A day-horizon
    /// worst case, so it dominates the device's measured collateral.
    #[serde(default)]
    pub static_predicted_joules: f64,
    /// Faults injected into and detected on this device (counter glitches,
    /// framework faults, fleet faults). Empty on a fault-free run.
    #[serde(default)]
    pub fault_log: FaultLog,
}

/// Simulates device `index` of the fleet and reports the outcome — the one
/// public per-device entry point.
///
/// `attempt` re-keys the injected device panic (so a supervised retry can
/// succeed where the first attempt crashed). `on_checkpoint` fires after
/// every completed session with the device's progress snapshot; the
/// supervisor salvages the last one when a later session panics, and the
/// streaming service forwards them into its ingest lanes. `flight`
/// (usually an [`ea_metrics::FlightRecorder`]) receives every framework
/// and profiler emission. Both are observation only: because the sink sees
/// only sim-time data and emission never feeds back into the simulation,
/// attaching either never changes the report.
///
/// # Panics
///
/// Panics when `index` is listed in `config.panic_devices` (deliberate
/// fault injection; the supervisor catches it and records a
/// [`crate::DeviceFailure`]), and at a fault plan's chosen session.
pub fn simulate_device_observed(
    config: &FleetConfig,
    corpus: &[AppManifest],
    index: usize,
    attempt: u32,
    on_checkpoint: &dyn Fn(DeviceCheckpoint),
    flight: Option<&SinkHandle>,
) -> DeviceReport {
    simulate_device_forensic(config, corpus, index, attempt, on_checkpoint, flight, None)
}

/// [`simulate_device_observed`] with an intent-log mirror: when `intents`
/// is attached, every lifecycle transition the device's framework records
/// is also appended to the shared recorder, which survives a panic
/// unwinding and becomes the [`crate::DeviceFailure`] forensics tail.
/// Observation only — attaching a recorder never changes the report.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_device_forensic(
    config: &FleetConfig,
    corpus: &[AppManifest],
    index: usize,
    attempt: u32,
    on_checkpoint: &dyn Fn(DeviceCheckpoint),
    flight: Option<&SinkHandle>,
    intents: Option<&std::sync::Arc<IntentLogRecorder>>,
) -> DeviceReport {
    assert!(
        !config.panic_devices.contains(&index),
        "injected fault in device {index}"
    );
    let seed = device_seed(config.seed, index);
    let mut rng = SimRng::seed(seed);
    let mut android = AndroidSystem::new();
    if let Some(recorder) = intents {
        android.set_intent_recorder(recorder.clone());
    }
    if let Some(handle) = flight {
        android.set_telemetry_handle(handle.clone());
        // Installs emit nothing, so stamp an attempt-start marker: even a
        // chaos panic at session 0 then leaves a non-empty ring, and the
        // marker delimits attempts when a dump is read alongside retries.
        handle.sink().record_event(
            android.now().as_millis() * 1_000,
            ea_telemetry::TelemetryEvent::Framework {
                kind: String::from("fleet_attempt_start"),
                uid: None,
            },
        );
    }

    // Fleet-level faults for this device's lane. A `None` or zero-rate
    // plan decides nothing, so the fault-free path is byte-identical.
    let plan: Option<&FaultPlan> = config.faults.as_ref().filter(|plan| !plan.is_zero());
    let mut fleet_log = FaultLog::default();
    let lane = index as u64;
    let panic_session = plan
        .and_then(|plan| plan.device_panic_session(lane, attempt, config.sessions.max(1) as u32));
    if let Some(plan) = plan {
        android.attach_faults(plan.framework_faults(lane));
        if plan.device_slow(lane) {
            // A thermally-throttled straggler: burns wall-clock time on its
            // worker without touching the simulation (the report stays
            // byte-identical at any --jobs).
            fleet_log.inject("slow_device");
            fleet_log.detect("slow_device");
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
    }
    let poisoned = plan.map(|plan| plan.poisoned_corpus(corpus.len()));

    // Sample the app mix: `k` distinct corpus manifests.
    let sampled = sample_app_mix(
        config,
        corpus,
        &mut rng,
        poisoned.as_deref(),
        &mut fleet_log,
    );
    let mut launchable: Vec<String> = Vec::with_capacity(sampled.len() + 5);
    for manifest in &sampled {
        launchable.push(manifest.package.clone());
        android.install(manifest.clone());
    }
    let apps = DemoApps::install_all(&mut android);
    for package in [
        packages::MESSAGE,
        packages::CONTACTS,
        packages::MUSIC,
        packages::VICTIM,
        packages::VICTIM2,
    ] {
        launchable.push(package.to_string());
    }

    let infected = rng.chance(config.infection_rate);
    let buggy_day = !infected && rng.chance(config.benign_bug_rate);
    let malware = infected.then(|| Malware::install(&mut android));

    // Static analysis over the full install set, *before* any joule burns:
    // the population-scale counterpart of `eandroid lint`.
    let lint_report = Linter::new().lint_system(&android);

    let mut profiler = Profiler::eandroid(ScreenPolicy::SeparateEntity)
        .with_step(SimDuration::from_millis(config.step_millis.max(1)));
    if let Some(handle) = flight {
        profiler.set_telemetry_handle(handle.clone());
    }
    if config.reference_accounting {
        profiler = profiler.with_reference_accounting();
    }
    if let Some(plan) = plan {
        profiler = profiler.with_chaos(plan.power_faults(lane));
    }

    // Which vectors fire, and in which session. All RNG draws happen
    // whether or not the malware is present, keeping the day scripts of
    // infected and clean devices aligned up to the attack itself.
    let attack_session = rng.range_u64(0, config.sessions.max(1) as u64) as usize;
    let vectors = pick_vectors(&mut rng);

    for session in 0..config.sessions.max(1) {
        assert!(
            panic_session != Some(session as u32),
            "{CHAOS_PANIC_PREFIX} (device {index}, attempt {attempt}, session {session})"
        );
        android.user_unlock();
        let session_secs = 1 + rng.range_u64(1, config.mean_session_secs.max(2) * 2);
        for _ in 0..session_secs {
            android.note_user_activity();
            profiler.run(&mut android, SimDuration::from_secs(1));
            if !rng.chance(0.25) {
                continue;
            }
            user_action(&mut android, &mut profiler, &mut rng, &apps, &launchable);
        }

        if session == attack_session {
            if let Some(mal) = &malware {
                // Frame every transition the attack scripts drive with an
                // explicit cause, so the intent log separates malice from
                // the day's ordinary traffic.
                android.set_ambient_cause(Some(Cause::Attack));
                for &vector in &vectors {
                    fire_vector(&mut android, &mut profiler, mal, &apps, vector);
                }
                android.set_ambient_cause(None);
            } else if buggy_day {
                android.set_ambient_cause(Some(Cause::Routine));
                benign_no_sleep_bug(&mut android, &mut profiler, &apps);
                android.set_ambient_cause(None);
            }
        }

        // Quiet the radios and pocket the phone.
        for manifest in &sampled {
            if let Some(uid) = android.uid_of(&manifest.package) {
                android.set_wifi_kbps(uid, 0.0);
            }
        }
        for uid in [
            apps.message,
            apps.contacts,
            apps.music,
            apps.victim,
            apps.victim2,
        ] {
            android.set_wifi_kbps(uid, 0.0);
        }
        if rng.chance(0.2) {
            let _ = android.incoming_call();
            profiler.run(&mut android, SimDuration::from_secs(rng.range_u64(5, 30)));
            let _ = android.end_call();
        }
        let idle = rng.range_u64(1, config.mean_idle_secs.max(2) * 2);
        profiler.run(&mut android, SimDuration::from_secs(idle));

        on_checkpoint(DeviceCheckpoint {
            sessions_completed: session + 1,
            sim_seconds: android.now().as_secs_f64(),
            drained_joules: profiler.battery().drained().as_joules(),
        });
    }

    distill(
        index,
        seed,
        infected,
        &vectors,
        android,
        profiler,
        &lint_report,
        fleet_log,
    )
}

/// Draws `min_apps..=max_apps` distinct corpus manifests. Poisoned corpus
/// entries (fault injection) are rejected by install-time manifest
/// validation: the draw is logged and redrawn, shrinking the mix only
/// when the healthy pool runs dry.
fn sample_app_mix(
    config: &FleetConfig,
    corpus: &[AppManifest],
    rng: &mut SimRng,
    poisoned: Option<&[bool]>,
    fleet_log: &mut FaultLog,
) -> Vec<AppManifest> {
    if corpus.is_empty() {
        return Vec::new();
    }
    let healthy = match poisoned {
        Some(mask) => mask.iter().filter(|&&bad| !bad).count(),
        None => corpus.len(),
    };
    let lo = config.min_apps.min(healthy);
    let hi = config.max_apps.clamp(lo, healthy);
    let k = if hi > lo {
        lo + rng.range_u64(0, (hi - lo + 1) as u64) as usize
    } else {
        lo
    };
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    let mut rejected: Vec<usize> = Vec::new();
    while chosen.len() < k {
        let candidate = rng.range_u64(0, corpus.len() as u64) as usize;
        if poisoned.is_some_and(|mask| mask[candidate]) {
            if !rejected.contains(&candidate) {
                // First time this device draws the poisoned entry: the
                // installer's validation rejects it, and the draw repeats.
                rejected.push(candidate);
                fleet_log.inject("corpus_poison");
                fleet_log.detect("corpus_poison");
            }
            continue;
        }
        if !chosen.contains(&candidate) {
            chosen.push(candidate);
        }
    }
    chosen.into_iter().map(|i| corpus[i].clone()).collect()
}

/// One to two distinct attack vectors, seeded.
fn pick_vectors(rng: &mut SimRng) -> Vec<AttackVector> {
    let count = 1 + rng.range_u64(0, 2) as usize;
    let mut vectors = Vec::with_capacity(count);
    while vectors.len() < count {
        let candidate =
            AttackVector::ALL[rng.range_u64(0, AttackVector::ALL.len() as u64) as usize];
        if !vectors.contains(&candidate) {
            vectors.push(candidate);
        }
    }
    vectors
}

/// One random attended user action, in the style of `ea_apps::workload`.
fn user_action(
    android: &mut AndroidSystem,
    profiler: &mut Profiler,
    rng: &mut SimRng,
    apps: &DemoApps,
    launchable: &[String],
) {
    match rng.range_u64(0, 10) {
        0..=3 => {
            let index = rng.range_u64(0, launchable.len() as u64) as usize;
            let _ = android.user_launch(&launchable[index]);
        }
        4 => android.user_press_home(),
        5 => android.user_press_back(),
        6 => {
            let _ =
                android.start_service(apps.music, Intent::explicit(packages::MUSIC, "Playback"));
            android.set_audio(apps.music, true);
        }
        7 => {
            android.set_audio(apps.music, false);
            let _ = android.stop_service(apps.music, Intent::explicit(packages::MUSIC, "Playback"));
        }
        8 => {
            if let Some(foreground) = android.foreground_uid() {
                if !foreground.is_system() {
                    android.set_wifi_kbps(foreground, rng.range_f64(100.0, 4_000.0));
                }
            }
        }
        _ => {
            // Film a short clip through the implicit camera intent; the
            // foreground app (demo or corpus) becomes the driving app of a
            // perfectly normal ActivityStart collateral period.
            if let Some(foreground) = android.foreground_uid() {
                if android
                    .start_activity(foreground, Intent::implicit(ACTION_VIDEO_CAPTURE))
                    .is_ok()
                {
                    let _ = android.camera_start(apps.camera, true);
                    android.set_extra_demand(apps.camera, 0.35);
                    for _ in 0..rng.range_u64(2, 8) {
                        android.note_user_activity();
                        profiler.run(android, SimDuration::from_secs(1));
                    }
                    android.camera_stop(apps.camera);
                    android.set_extra_demand(apps.camera, 0.0);
                    android.user_press_back();
                }
            }
        }
    }
}

/// Replays one of the §V attack scripts against the demo victims.
fn fire_vector(
    android: &mut AndroidSystem,
    profiler: &mut Profiler,
    mal: &Malware,
    apps: &DemoApps,
    vector: AttackVector,
) {
    match vector {
        AttackVector::CameraHijack => {
            let _ = android.user_launch(MALWARE_PACKAGE);
            attended(android, profiler, 3);
            if mal
                .attack1_hijack(android, packages::CAMERA, "Record")
                .is_ok()
            {
                let _ = android.camera_start(apps.camera, true);
                android.set_extra_demand(apps.camera, 0.35);
                attended(android, profiler, 20);
                android.camera_stop(apps.camera);
                android.set_extra_demand(apps.camera, 0.0);
            }
        }
        AttackVector::BackgroundApps => {
            let _ = android.user_launch(MALWARE_PACKAGE);
            attended(android, profiler, 3);
            let _ = mal.attack2_background(
                android,
                &[(packages::VICTIM, "Main"), (packages::VICTIM2, "Main")],
            );
            attended(android, profiler, 20);
        }
        AttackVector::BindService => {
            let _ = android.user_launch(packages::VICTIM);
            attended(android, profiler, 3);
            let _ =
                android.start_service(apps.victim, Intent::explicit(packages::VICTIM, "Worker"));
            let _ = mal.attack3_bind(android, packages::VICTIM, "Worker");
            let _ = android.stop_service(apps.victim, Intent::explicit(packages::VICTIM, "Worker"));
            android.user_press_home();
            profiler.run(android, SimDuration::from_secs(20));
        }
        AttackVector::Brightness => {
            let _ = android.user_launch(packages::VICTIM);
            let _ = android.set_brightness(ChangeSource::User, 10);
            attended(android, profiler, 3);
            let _ = mal.attack5_escalate(android, 100);
            attended(android, profiler, 20);
        }
        AttackVector::BrightnessAutoMode => {
            let _ = android.user_launch(packages::VICTIM);
            let _ = android.set_brightness_mode(ChangeSource::User, false);
            android.ambient_brightness(40);
            attended(android, profiler, 3);
            let _ = mal.attack5_hijack_auto_mode(android, 120);
            attended(android, profiler, 20);
        }
        AttackVector::WakelockHold => {
            let _ = android.user_launch(packages::VICTIM);
            let _ = mal.attack6_wakelock(android);
            // Unattended: the held lock defeats the screen auto-off.
            profiler.run(android, SimDuration::from_secs(30));
        }
    }
}

/// The no-malware failure mode: an incoming call displaces an app whose
/// wakelock releases only in `onDestroy`, so the screen burns unattended.
fn benign_no_sleep_bug(android: &mut AndroidSystem, profiler: &mut Profiler, apps: &DemoApps) {
    let _ = android.user_launch(packages::VICTIM);
    let _ = android.acquire_wakelock(apps.victim, WakelockKind::Full);
    attended(android, profiler, 5);
    let _ = android.incoming_call();
    attended(android, profiler, 10);
    let _ = android.end_call();
    android.user_press_home();
    profiler.run(android, SimDuration::from_secs(30));
}

fn attended(android: &mut AndroidSystem, profiler: &mut Profiler, seconds: u64) {
    for _ in 0..seconds {
        android.note_user_activity();
        profiler.run(android, SimDuration::from_secs(1));
    }
}

/// Reads the run's profiler, monitor, and lint report into the report.
#[allow(clippy::too_many_arguments)]
fn distill(
    index: usize,
    seed: u64,
    infected: bool,
    vectors: &[AttackVector],
    android: AndroidSystem,
    profiler: Profiler,
    lint_report: &ea_lint::LintReport,
    mut fault_log: FaultLog,
) -> DeviceReport {
    if let Some(framework_log) = android.fault_log() {
        fault_log.merge(framework_log);
    }
    if let Some(chaos) = profiler.chaos() {
        fault_log.merge(chaos.log());
    }
    let labels = labels_from(&android);
    let entity_label = |entity: Entity| -> String {
        match entity {
            Entity::App(uid) => labels
                .get(&uid)
                .cloned()
                .unwrap_or_else(|| format!("uid:{}", uid.as_raw())),
            Entity::Screen => String::from("screen"),
            Entity::System => String::from("system"),
        }
    };
    let uid_label = |uid: Uid| entity_label(Entity::App(uid));

    let Some(monitor) = profiler.monitor() else {
        unreachable!("fleet devices run E-Android profilers")
    };
    let history = monitor.attack_history();
    let graph = monitor.graph();

    let mut periods_by_kind: BTreeMap<String, usize> = BTreeMap::new();
    let mut periods_by_host: BTreeMap<Uid, BTreeMap<String, usize>> = BTreeMap::new();
    for record in history {
        let kind = record.info.kind.label().to_string();
        *periods_by_kind.entry(kind.clone()).or_default() += 1;
        *periods_by_host
            .entry(record.info.driving)
            .or_default()
            .entry(kind)
            .or_default() += 1;
    }

    let mut drivers: BTreeMap<String, f64> = BTreeMap::new();
    let mut victims: BTreeMap<String, f64> = BTreeMap::new();
    let mut collateral_by_kind: BTreeMap<String, f64> = BTreeMap::new();
    for host in graph.hosts() {
        let total = graph.collateral_total(host).as_joules();
        if total > 0.0 {
            *drivers.entry(uid_label(host)).or_default() += total;
        }
        for (entity, energy) in graph.collateral_of(host) {
            if energy.as_joules() > 0.0 {
                *victims.entry(entity_label(entity)).or_default() += energy.as_joules();
            }
        }
        // Proportional per-kind split of this host's collateral total.
        if let Some(kinds) = periods_by_host.get(&host) {
            let host_periods: usize = kinds.values().sum();
            if host_periods > 0 {
                for (kind, count) in kinds {
                    *collateral_by_kind.entry(kind.clone()).or_default() +=
                        total * *count as f64 / host_periods as f64;
                }
            }
        }
    }

    let mut predicted_apps_by_kind: BTreeMap<String, usize> = BTreeMap::new();
    for app in android.user_apps() {
        for kind in lint_report.predicted_kinds(app.uid.as_raw()) {
            *predicted_apps_by_kind
                .entry(kind.label().to_string())
                .or_default() += 1;
        }
    }
    let observed = soundness::observed_attacks(history);
    let soundness_violations = soundness::check_superset(lint_report, &observed).len();

    DeviceReport {
        index,
        seed,
        apps_installed: android.user_apps().count(),
        infected,
        vectors: if infected {
            vectors.iter().map(|v| v.label().to_string()).collect()
        } else {
            Vec::new()
        },
        sim_seconds: android.now().as_secs_f64(),
        drained_joules: profiler.battery().drained().as_joules(),
        battery_percent: profiler.battery().percent(),
        periods_by_kind,
        collateral_by_kind,
        drivers,
        victims,
        predicted_apps_by_kind,
        apps_linted: lint_report.apps_checked,
        lint_diagnostics: lint_report.len(),
        soundness_violations,
        static_predicted_joules: lint_report.total_predicted_joules(),
        fault_log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_corpus::{generate_corpus, CorpusConfig};

    fn simulate_device(config: &FleetConfig, corpus: &[AppManifest], index: usize) -> DeviceReport {
        simulate_device_observed(config, corpus, index, 0, &|_| {}, None)
    }

    fn corpus_for(config: &FleetConfig) -> Vec<AppManifest> {
        generate_corpus(
            &CorpusConfig {
                size: config.corpus_size,
                ..CorpusConfig::paper()
            },
            config.corpus_seed,
        )
    }

    #[test]
    fn device_is_deterministic() {
        let config = FleetConfig::smoke(1, 99);
        let corpus = corpus_for(&config);
        let a = simulate_device(&config, &corpus, 0);
        let b = simulate_device(&config, &corpus, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn reference_accounting_is_result_equivalent() {
        let config = FleetConfig::smoke(1, 99);
        let corpus = corpus_for(&config);
        let optimized = simulate_device(&config, &corpus, 0);
        let reference = simulate_device(
            &FleetConfig {
                reference_accounting: true,
                ..config
            },
            &corpus,
            0,
        );
        assert_eq!(optimized, reference, "slot-interned path must match");
    }

    #[test]
    fn different_devices_differ() {
        let config = FleetConfig::smoke(2, 7);
        let corpus = corpus_for(&config);
        let a = simulate_device(&config, &corpus, 0);
        let b = simulate_device(&config, &corpus, 1);
        assert_ne!(a.seed, b.seed);
        assert_ne!(a.drained_joules, b.drained_joules);
    }

    #[test]
    fn device_burns_energy_and_lints_its_apps() {
        let config = FleetConfig::smoke(1, 3);
        let corpus = corpus_for(&config);
        let report = simulate_device(&config, &corpus, 0);
        assert!(report.drained_joules > 0.0);
        assert!(report.battery_percent < 100.0);
        assert!(report.sim_seconds > 0.0);
        assert_eq!(report.apps_linted, report.apps_installed);
        assert!(report.lint_diagnostics > 0, "demo set always trips rules");
    }

    #[test]
    fn superset_invariant_holds_per_device() {
        let config = FleetConfig {
            infection_rate: 1.0,
            ..FleetConfig::smoke(4, 11)
        };
        let corpus = corpus_for(&config);
        for index in 0..config.size {
            let report = simulate_device(&config, &corpus, index);
            assert_eq!(
                report.soundness_violations, 0,
                "device {index}: static prediction must cover dynamic observation"
            );
        }
    }

    #[test]
    #[should_panic(expected = "injected fault in device 0")]
    fn fault_injection_panics() {
        let config = FleetConfig {
            panic_devices: vec![0],
            ..FleetConfig::smoke(1, 1)
        };
        let corpus = corpus_for(&config);
        let _ = simulate_device(&config, &corpus, 0);
    }
}
