//! The §VI experiment scenarios.
//!
//! Each [`Scenario`] scripts one of the paper's measurements — the two
//! normal scenes of Figures 9a/9b, the six attacks, and the normal baselines
//! the attack figures compare against — against a freshly booted handset.
//! The caller supplies the [`Profiler`] (baseline "Android" or E-Android,
//! either screen policy); running the same scenario with both profilers is
//! how the paper's side-by-side bars are produced (the simulation is fully
//! deterministic, so the two runs see identical workloads).

use std::sync::Arc;

use ea_core::Profiler;
use ea_framework::{AndroidSystem, ChangeSource, Intent, TapOutcome, WakelockKind};
use ea_sim::{SimDuration, Uid};
use ea_telemetry::{SinkHandle, TelemetrySink};

use crate::demo::{packages, DemoApps, ACTION_VIDEO_CAPTURE};
use crate::malware::Malware;

/// One scripted experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Figure 9a — the Message app films a 30 s video via the Camera
    /// (normal use, same shape as attacks #1/#2).
    Scene1MessageVideo,
    /// Figure 9b — Contacts → Message → Camera hybrid chain (normal use).
    Scene2HybridChain,
    /// Attack #1 — malware hijacks the Camera's exported recorder.
    Attack1CameraHijack,
    /// Attack #2 — malware opens two victims and hides them in background.
    Attack2BackgroundApps,
    /// Attack #3 — malware binds the victim's service and never unbinds.
    Attack3BindService,
    /// Attack #4 — malware intercepts the quit dialog and interrupts the
    /// victim to the background with its wakelock leaked.
    Attack4Interrupt,
    /// Attack #5 — malware escalates brightness from the background.
    Attack5Brightness,
    /// The normal baseline for attack #5 (no escalation).
    Normal5Brightness,
    /// Attack #6 — malware acquires a screen wakelock and never releases.
    Attack6Wakelock,
    /// The normal baseline for attack #6 (screen auto-off after 30 s).
    Normal6Wakelock,
    /// §III-B "Multi- & Hybrid Attack": the malware binds the victim's
    /// service *and* raises the brightness while the victim is foreground.
    MultiAttackSameVictim,
    /// §III-B attack chains: the malware attacks one victim, which
    /// unintentionally involves another.
    HybridAttackChain,
    /// Attack #5's auto-mode variant (§V): the device is in automatic
    /// brightness; the malware stores a higher value and flips to manual so
    /// the dormant value fires, "camouflaged as Android auto screen
    /// settings".
    Attack5AutoMode,
    /// No malware at all: an incoming call interrupts an app with the
    /// classic no-sleep bug (wakelock released only in `onDestroy`). The
    /// paper's closing claim — E-Android "can not only detect energy
    /// malware, but also provide a more accurate energy accounting under
    /// normal conditions".
    BenignNoSleepBug,
}

/// A finished scenario run.
#[derive(Debug)]
pub struct RunOutput {
    /// The handset after the run (apps, framework state).
    pub android: AndroidSystem,
    /// The profiler after the run (ledger, collateral graph, battery).
    pub profiler: Profiler,
    /// UIDs of the demo apps.
    pub apps: DemoApps,
    /// The malware, where the scenario installs one.
    pub malware: Option<Uid>,
}

impl Scenario {
    /// Every scenario, in paper order.
    pub const ALL: [Scenario; 14] = [
        Scenario::Scene1MessageVideo,
        Scenario::Scene2HybridChain,
        Scenario::Attack1CameraHijack,
        Scenario::Attack2BackgroundApps,
        Scenario::Attack3BindService,
        Scenario::Attack4Interrupt,
        Scenario::Attack5Brightness,
        Scenario::Normal5Brightness,
        Scenario::Attack6Wakelock,
        Scenario::Normal6Wakelock,
        Scenario::MultiAttackSameVictim,
        Scenario::HybridAttackChain,
        Scenario::Attack5AutoMode,
        Scenario::BenignNoSleepBug,
    ];

    /// A short identifier for tables and filenames.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Scene1MessageVideo => "scene1_message_video",
            Scenario::Scene2HybridChain => "scene2_hybrid_chain",
            Scenario::Attack1CameraHijack => "attack1_camera_hijack",
            Scenario::Attack2BackgroundApps => "attack2_background_apps",
            Scenario::Attack3BindService => "attack3_bind_service",
            Scenario::Attack4Interrupt => "attack4_interrupt",
            Scenario::Attack5Brightness => "attack5_brightness",
            Scenario::Normal5Brightness => "normal5_brightness",
            Scenario::Attack6Wakelock => "attack6_wakelock",
            Scenario::Normal6Wakelock => "normal6_wakelock",
            Scenario::MultiAttackSameVictim => "multi_attack_same_victim",
            Scenario::HybridAttackChain => "hybrid_attack_chain",
            Scenario::Attack5AutoMode => "attack5_auto_mode",
            Scenario::BenignNoSleepBug => "benign_no_sleep_bug",
        }
    }

    /// Whether the scenario installs and drives the malware.
    pub fn is_attack(self) -> bool {
        !matches!(
            self,
            Scenario::Scene1MessageVideo
                | Scenario::Scene2HybridChain
                | Scenario::Normal5Brightness
                | Scenario::Normal6Wakelock
                | Scenario::BenignNoSleepBug
        )
    }

    /// Runs the scenario from a fresh boot under `profiler`.
    pub fn run(self, profiler: Profiler) -> RunOutput {
        self.run_on(AndroidSystem::new(), profiler)
    }

    /// Runs the scenario on a caller-configured system — how the CLI
    /// attaches framework faults, which must be in place before the first
    /// install. The system must be freshly booted: scenarios script from
    /// a cold start.
    pub fn run_with(self, android: AndroidSystem, profiler: Profiler) -> RunOutput {
        self.run_on(android, profiler)
    }

    /// Runs the scenario with `sink` wired through every layer: the
    /// framework mirrors its events and kernel statistics, and the
    /// profiler emits attribution, battery, attack, and span telemetry.
    /// The simulation itself is unchanged — traced and untraced runs see
    /// identical workloads.
    pub fn run_traced(self, mut profiler: Profiler, sink: Arc<dyn TelemetrySink>) -> RunOutput {
        let handle = SinkHandle::new(sink);
        let mut android = AndroidSystem::new();
        android.set_telemetry_handle(handle.clone());
        profiler.set_telemetry_handle(handle);
        self.run_on(android, profiler)
    }

    /// Runs the scenario under fault injection: the plan's power faults
    /// corrupt the profiler's counter readings and its framework faults
    /// perturb binder, intents, wakelocks, the clock, and the event queue.
    /// `lane` isolates the injector streams (use the device index in fleet
    /// runs); a zero-rate plan is byte-identical to [`Scenario::run`].
    pub fn run_chaos(self, profiler: Profiler, plan: &ea_chaos::FaultPlan, lane: u64) -> RunOutput {
        let mut android = AndroidSystem::new();
        android.attach_faults(plan.framework_faults(lane));
        self.run_on(android, profiler.with_chaos(plan.power_faults(lane)))
    }

    fn run_on(self, mut android: AndroidSystem, mut profiler: Profiler) -> RunOutput {
        let apps = DemoApps::install_all(&mut android);
        let mut malware = None;

        match self {
            Scenario::Scene1MessageVideo => {
                android.user_launch(packages::MESSAGE).unwrap();
                run_attended(&mut android, &mut profiler, 30);
                // "Record video" in the Message UI: an implicit
                // video-capture intent the Camera answers.
                android
                    .start_activity(apps.message, Intent::implicit(ACTION_VIDEO_CAPTURE))
                    .unwrap();
                start_recording(&mut android, apps.camera);
                run_attended(&mut android, &mut profiler, 30);
                stop_recording(&mut android, apps.camera);
                android.user_press_back();
            }
            Scenario::Scene2HybridChain => {
                android.user_launch(packages::CONTACTS).unwrap();
                run_attended(&mut android, &mut profiler, 10);
                android
                    .start_activity(
                        apps.contacts,
                        Intent::explicit(packages::MESSAGE, "Compose"),
                    )
                    .unwrap();
                run_attended(&mut android, &mut profiler, 10);
                android
                    .start_activity(apps.message, Intent::implicit(ACTION_VIDEO_CAPTURE))
                    .unwrap();
                start_recording(&mut android, apps.camera);
                run_attended(&mut android, &mut profiler, 30);
                stop_recording(&mut android, apps.camera);
                android.user_press_back();
            }
            Scenario::Attack1CameraHijack => {
                let mal = Malware::install(&mut android);
                malware = Some(mal.uid);
                android
                    .user_launch(crate::malware::MALWARE_PACKAGE)
                    .unwrap();
                run_attended(&mut android, &mut profiler, 5);
                mal.attack1_hijack(&mut android, packages::CAMERA, "Record")
                    .unwrap();
                start_recording(&mut android, apps.camera);
                run_attended(&mut android, &mut profiler, 60);
                stop_recording(&mut android, apps.camera);
            }
            Scenario::Attack2BackgroundApps => {
                let mal = Malware::install(&mut android);
                malware = Some(mal.uid);
                android
                    .user_launch(crate::malware::MALWARE_PACKAGE)
                    .unwrap();
                run_attended(&mut android, &mut profiler, 5);
                mal.attack2_background(
                    &mut android,
                    &[(packages::VICTIM, "Main"), (packages::VICTIM2, "Main")],
                )
                .unwrap();
                run_attended(&mut android, &mut profiler, 60);
            }
            Scenario::Attack3BindService => {
                let mal = Malware::install(&mut android);
                malware = Some(mal.uid);
                android.user_launch(packages::VICTIM).unwrap();
                run_attended(&mut android, &mut profiler, 5);
                // The victim starts its own worker; the malware's watcher
                // binds it the moment it appears.
                android
                    .start_service(apps.victim, Intent::explicit(packages::VICTIM, "Worker"))
                    .unwrap();
                mal.attack3_bind(&mut android, packages::VICTIM, "Worker")
                    .unwrap();
                // The victim stops it immediately — the binding pins it.
                android
                    .stop_service(apps.victim, Intent::explicit(packages::VICTIM, "Worker"))
                    .unwrap();
                android.user_press_home();
                run_attended(&mut android, &mut profiler, 60);
            }
            Scenario::Attack4Interrupt => {
                let mal = Malware::install(&mut android);
                malware = Some(mal.uid);
                android.user_launch(packages::VICTIM).unwrap();
                android
                    .acquire_wakelock(apps.victim, WakelockKind::Full)
                    .unwrap();
                run_attended(&mut android, &mut profiler, 5);

                let baseline = mal.attack4_calibrate(&android);
                android.user_begin_quit().unwrap();
                assert!(mal.attack4_dialog_visible(&android, baseline));
                mal.attack4_cover_dialog(&mut android).unwrap();
                let outcome = android.user_tap_quit_ok().unwrap();
                assert_eq!(outcome, TapOutcome::InterceptedBy(mal.uid));
                mal.attack4_send_home(&mut android).unwrap();

                // Unattended: the leaked Full wakelock keeps the screen lit.
                profiler.run(&mut android, SimDuration::from_secs(60));
            }
            Scenario::Attack5Brightness => {
                let mal = Malware::install(&mut android);
                malware = Some(mal.uid);
                android.user_launch(packages::VICTIM).unwrap();
                android.set_brightness(ChangeSource::User, 10).unwrap();
                run_attended(&mut android, &mut profiler, 5);
                mal.attack5_escalate(&mut android, 100).unwrap();
                run_attended(&mut android, &mut profiler, 60);
            }
            Scenario::Normal5Brightness => {
                android.user_launch(packages::VICTIM).unwrap();
                android.set_brightness(ChangeSource::User, 10).unwrap();
                run_attended(&mut android, &mut profiler, 5);
                run_attended(&mut android, &mut profiler, 60);
            }
            Scenario::Attack6Wakelock => {
                let mal = Malware::install(&mut android);
                malware = Some(mal.uid);
                android.user_launch(packages::VICTIM).unwrap();
                mal.attack6_wakelock(&mut android).unwrap();
                // Unattended: without the attack the screen would sleep at
                // 30 s; the un-released wakelock defeats the auto-lock.
                profiler.run(&mut android, SimDuration::from_secs(60));
            }
            Scenario::Normal6Wakelock => {
                android.user_launch(packages::VICTIM).unwrap();
                profiler.run(&mut android, SimDuration::from_secs(60));
            }
            Scenario::MultiAttackSameVictim => {
                let mal = Malware::install(&mut android);
                malware = Some(mal.uid);
                android.user_launch(packages::VICTIM).unwrap();
                android.set_brightness(ChangeSource::User, 10).unwrap();
                run_attended(&mut android, &mut profiler, 5);
                // Two simultaneous vectors on the same victim session: pin
                // its service and escalate the brightness while it is in
                // front ("bind a victim's service and increase the
                // brightness when the victim is running in foreground").
                android
                    .start_service(apps.victim, Intent::explicit(packages::VICTIM, "Worker"))
                    .unwrap();
                mal.attack3_bind(&mut android, packages::VICTIM, "Worker")
                    .unwrap();
                android
                    .stop_service(apps.victim, Intent::explicit(packages::VICTIM, "Worker"))
                    .unwrap();
                mal.attack5_escalate(&mut android, 100).unwrap();
                run_attended(&mut android, &mut profiler, 60);
            }
            Scenario::Attack5AutoMode => {
                let mal = Malware::install(&mut android);
                malware = Some(mal.uid);
                android.user_launch(packages::VICTIM).unwrap();
                // The user runs in automatic brightness: ambient light keeps
                // it comfortable.
                android
                    .set_brightness_mode(ChangeSource::User, false)
                    .unwrap();
                android.ambient_brightness(40);
                run_attended(&mut android, &mut profiler, 5);
                mal.attack5_hijack_auto_mode(&mut android, 120).unwrap();
                run_attended(&mut android, &mut profiler, 60);
            }
            Scenario::BenignNoSleepBug => {
                android.user_launch(packages::VICTIM).unwrap();
                android
                    .acquire_wakelock(apps.victim, WakelockKind::Full)
                    .unwrap();
                run_attended(&mut android, &mut profiler, 10);
                // An incoming call displaces the victim; its OnDestroy
                // policy leaks the lock while it is stopped.
                android.incoming_call().unwrap();
                run_attended(&mut android, &mut profiler, 20);
                android.end_call().unwrap();
                // The user walks away without re-opening the victim: the
                // leaked lock keeps the screen burning unattended.
                android.user_press_home();
                profiler.run(&mut android, SimDuration::from_secs(60));
            }
            Scenario::HybridAttackChain => {
                let mal = Malware::install(&mut android);
                malware = Some(mal.uid);
                android
                    .user_launch(crate::malware::MALWARE_PACKAGE)
                    .unwrap();
                run_attended(&mut android, &mut profiler, 5);
                // The malware starts victim #1; victim #1's own flow then
                // starts victim #2 — "an attack on one victim, which
                // unintentionally involves another".
                mal.attack1_hijack(&mut android, packages::VICTIM, "Main")
                    .unwrap();
                run_attended(&mut android, &mut profiler, 5);
                android
                    .start_activity(apps.victim, Intent::explicit(packages::VICTIM2, "Main"))
                    .unwrap();
                run_attended(&mut android, &mut profiler, 60);
            }
        }

        RunOutput {
            android,
            profiler,
            apps,
            malware,
        }
    }
}

/// Runs `seconds` of attended use: the user keeps touching the device, so
/// the screen never times out.
fn run_attended(android: &mut AndroidSystem, profiler: &mut Profiler, seconds: u64) {
    for _ in 0..seconds {
        android.note_user_activity();
        profiler.run(android, SimDuration::from_secs(1));
    }
}

/// The Camera app reacts to its Record activity: sensor on, encoder hot.
fn start_recording(android: &mut AndroidSystem, camera: Uid) {
    android.camera_start(camera, true).unwrap();
    android.set_extra_demand(camera, 0.35);
}

fn stop_recording(android: &mut AndroidSystem, camera: Uid) {
    android.camera_stop(camera);
    android.set_extra_demand(camera, 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_core::{Entity, ScreenPolicy};

    fn eandroid() -> Profiler {
        Profiler::eandroid(ScreenPolicy::SeparateEntity)
    }

    #[test]
    fn scene1_charges_message_with_camera_energy() {
        let run = Scenario::Scene1MessageVideo.run(eandroid());
        let graph = run.profiler.collateral().unwrap();
        let collateral = graph.collateral_total(run.apps.message);
        let camera_own = run.profiler.ledger().total_of(Entity::App(run.apps.camera));
        assert!(collateral.as_joules() > 0.0);
        assert!(
            camera_own.as_joules() > collateral.as_joules() * 0.5,
            "collateral tracks the camera's real consumption"
        );
    }

    #[test]
    fn scene2_chains_to_contacts() {
        let run = Scenario::Scene2HybridChain.run(eandroid());
        let graph = run.profiler.collateral().unwrap();
        // Contacts is charged for Message (direct) and Camera (via chain).
        let rows = graph.collateral_of(run.apps.contacts);
        assert!(rows
            .iter()
            .any(|(entity, energy)| *entity == Entity::App(run.apps.message)
                && energy.as_joules() > 0.0));
        assert!(rows
            .iter()
            .any(|(entity, energy)| *entity == Entity::App(run.apps.camera)
                && energy.as_joules() > 0.0));
    }

    #[test]
    fn every_attack_charges_the_malware() {
        for scenario in Scenario::ALL.into_iter().filter(|s| s.is_attack()) {
            let run = scenario.run(eandroid());
            let malware = run.malware.expect("attack installs malware");
            let graph = run.profiler.collateral().unwrap();
            assert!(
                graph.collateral_total(malware).as_joules() > 0.0,
                "{}: E-Android must charge the malware",
                scenario.name()
            );
        }
    }

    #[test]
    fn attacks_are_invisible_to_baseline_accounting() {
        for scenario in [Scenario::Attack3BindService, Scenario::Attack6Wakelock] {
            let run = scenario.run(Profiler::android(ScreenPolicy::SeparateEntity));
            let malware = run.malware.unwrap();
            let ledger = run.profiler.ledger();
            let malware_share = ledger.percent_of(Entity::App(malware));
            assert!(
                malware_share < 10.0,
                "{}: stock accounting blames the malware for almost nothing ({malware_share:.1}%)",
                scenario.name()
            );
        }
    }

    #[test]
    fn attack6_burns_more_screen_energy_than_normal6() {
        let attack = Scenario::Attack6Wakelock.run(eandroid());
        let normal = Scenario::Normal6Wakelock.run(eandroid());
        let attack_screen = attack.profiler.ledger().total_of(Entity::Screen);
        let normal_screen = normal.profiler.ledger().total_of(Entity::Screen);
        assert!(
            attack_screen.as_joules() > 1.5 * normal_screen.as_joules(),
            "screen forced on for 60 s vs auto-off at 30 s"
        );
    }

    #[test]
    fn attack5_burns_more_than_normal5() {
        let attack = Scenario::Attack5Brightness.run(eandroid());
        let normal = Scenario::Normal5Brightness.run(eandroid());
        assert!(
            attack.profiler.battery().drained().as_joules()
                > normal.profiler.battery().drained().as_joules()
        );
    }

    #[test]
    fn multi_attack_charges_both_vectors_once_each() {
        let run = Scenario::MultiAttackSameVictim.run(eandroid());
        let malware = run.malware.unwrap();
        let graph = run.profiler.collateral().unwrap();
        let rows = graph.collateral_of(malware);
        let victim_energy: f64 = rows
            .iter()
            .filter(|(entity, _)| *entity == Entity::App(run.apps.victim))
            .map(|(_, energy)| energy.as_joules())
            .sum();
        let screen_energy: f64 = rows
            .iter()
            .filter(|(entity, _)| *entity == Entity::Screen)
            .map(|(_, energy)| energy.as_joules())
            .sum();
        assert!(victim_energy > 0.0, "service vector charged");
        assert!(screen_energy > 0.0, "screen vector charged");
        // Single-counting: the victim's charge cannot exceed what the
        // victim itself consumed.
        let consumed = run
            .profiler
            .ledger()
            .total_of(Entity::App(run.apps.victim))
            .as_joules();
        assert!(victim_energy <= consumed + 1e-6);
    }

    #[test]
    fn hybrid_chain_reaches_the_second_victim() {
        let run = Scenario::HybridAttackChain.run(eandroid());
        let malware = run.malware.unwrap();
        let graph = run.profiler.collateral().unwrap();
        let rows = graph.collateral_of(malware);
        assert!(
            rows.iter()
                .any(|(entity, energy)| *entity == Entity::App(run.apps.victim2)
                    && energy.as_joules() > 0.0),
            "victim #2's energy chains back to the malware"
        );
    }

    #[test]
    fn attack5_auto_mode_is_charged_to_the_malware() {
        let run = Scenario::Attack5AutoMode.run(eandroid());
        let malware = run.malware.unwrap();
        let graph = run.profiler.collateral().unwrap();
        let screen_energy: f64 = graph
            .collateral_of(malware)
            .iter()
            .filter(|(entity, _)| *entity == Entity::Screen)
            .map(|(_, energy)| energy.as_joules())
            .sum();
        assert!(
            screen_energy > 10.0,
            "the mode-flip attack charges the screen to the malware, got {screen_energy:.1} J"
        );
        // And the panel really did brighten: 40 (auto) + 120 stored.
        assert_eq!(run.android.effective_brightness(), 160);
    }

    #[test]
    fn benign_bug_is_charged_to_the_buggy_app_itself() {
        // No malware: the victim's own no-sleep bug burns the screen; the
        // collateral map pins it on the victim (more accurate accounting of
        // benign apps, §VII).
        let run = Scenario::BenignNoSleepBug.run(eandroid());
        assert!(run.malware.is_none());
        let graph = run.profiler.collateral().unwrap();
        let rows = graph.collateral_of(run.apps.victim);
        let screen_energy: f64 = rows
            .iter()
            .filter(|(entity, _)| *entity == Entity::Screen)
            .map(|(_, energy)| energy.as_joules())
            .sum();
        assert!(
            screen_energy > 10.0,
            "the leaked wakelock's screen time lands on the victim, got {screen_energy:.1} J"
        );
    }

    #[test]
    fn determinism_same_scenario_same_joules() {
        let a = Scenario::Attack3BindService.run(eandroid());
        let b = Scenario::Attack3BindService.run(eandroid());
        assert_eq!(
            a.profiler.battery().drained(),
            b.profiler.battery().drained()
        );
    }
}
