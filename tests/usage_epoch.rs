//! The usage-epoch contract the profiler's step plan relies on: random
//! sequences of public `AndroidSystem` mutators, interleaved with
//! `advance`, never change `usage_snapshot()` without changing
//! `usage_epoch()`. Run with and without framework fault injection, so
//! the degraded-mode paths (deferred deaths, lost releases, the sweep,
//! scheduler hiccups) are covered too.

use e_android::chaos::{FaultPlan, FaultRates};
use e_android::framework::{
    AndroidSystem, AppBehavior, AppManifest, ChangeSource, Intent, Permission, WakelockKind,
};
use e_android::sim::{SimDuration, Uid};
use proptest::prelude::*;

const APPS: usize = 4;
const ACTION: &str = "com.fuzz.PING";

/// One random public mutation (or a stretch of time).
#[derive(Debug, Clone)]
enum Op {
    Launch(usize),
    StartActivity(usize, usize),
    Back,
    Home,
    AppHome(usize),
    MoveToFront(usize),
    FinishActivity(usize),
    BeginQuit,
    TapQuitOk,
    StartService(usize, usize),
    StopService(usize, usize),
    Bind(usize, usize),
    UnbindAll(usize),
    Wakelock(usize, u8),
    TimedWakelock(usize, u8, u16),
    ReleaseAll(usize),
    Brightness(bool, usize, u8),
    BrightnessMode(bool, usize, bool),
    Ambient(u8),
    Camera(usize, Option<bool>),
    Audio(usize, bool),
    Gps(usize, bool),
    Wifi(usize, u16),
    Cellular(usize, u16),
    Luma(u8),
    ExtraDemand(usize, u8),
    Kill(usize),
    Uninstall(usize),
    Broadcast(usize),
    Unlock,
    UserActivity,
    Call(bool),
    Notification(bool),
    Advance(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let app = 0..APPS;
    prop_oneof![
        app.clone().prop_map(Op::Launch),
        (app.clone(), app.clone()).prop_map(|(a, b)| Op::StartActivity(a, b)),
        Just(Op::Back),
        Just(Op::Home),
        app.clone().prop_map(Op::AppHome),
        app.clone().prop_map(Op::MoveToFront),
        app.clone().prop_map(Op::FinishActivity),
        Just(Op::BeginQuit),
        Just(Op::TapQuitOk),
        (app.clone(), app.clone()).prop_map(|(a, b)| Op::StartService(a, b)),
        (app.clone(), app.clone()).prop_map(|(a, b)| Op::StopService(a, b)),
        (app.clone(), app.clone()).prop_map(|(a, b)| Op::Bind(a, b)),
        app.clone().prop_map(Op::UnbindAll),
        (app.clone(), 0u8..4).prop_map(|(a, k)| Op::Wakelock(a, k)),
        (app.clone(), 0u8..4, 1u16..60).prop_map(|(a, k, s)| Op::TimedWakelock(a, k, s)),
        app.clone().prop_map(Op::ReleaseAll),
        (any::<bool>(), app.clone(), any::<u8>()).prop_map(|(u, a, v)| Op::Brightness(u, a, v)),
        (any::<bool>(), app.clone(), any::<bool>())
            .prop_map(|(u, a, m)| Op::BrightnessMode(u, a, m)),
        any::<u8>().prop_map(Op::Ambient),
        (app.clone(), proptest::option::of(any::<bool>())).prop_map(|(a, r)| Op::Camera(a, r)),
        (app.clone(), any::<bool>()).prop_map(|(a, on)| Op::Audio(a, on)),
        (app.clone(), any::<bool>()).prop_map(|(a, on)| Op::Gps(a, on)),
        (app.clone(), 0u16..3_000).prop_map(|(a, k)| Op::Wifi(a, k)),
        (app.clone(), 0u16..600).prop_map(|(a, k)| Op::Cellular(a, k)),
        any::<u8>().prop_map(Op::Luma),
        (app.clone(), 0u8..4).prop_map(|(a, c)| Op::ExtraDemand(a, c)),
        app.clone().prop_map(Op::Kill),
        app.clone().prop_map(Op::Uninstall),
        app.clone().prop_map(Op::Broadcast),
        Just(Op::Unlock),
        Just(Op::UserActivity),
        any::<bool>().prop_map(Op::Call),
        any::<bool>().prop_map(Op::Notification),
        (1u32..45_000).prop_map(Op::Advance),
    ]
}

fn package(index: usize) -> String {
    format!("com.fuzz.app{index}")
}

fn build(faulted: bool, seed: u64) -> (AndroidSystem, Vec<Uid>) {
    let mut android = AndroidSystem::new();
    if faulted {
        let plan = FaultPlan {
            seed,
            rates: FaultRates {
                binder_failure: 0.3,
                intent_drop: 0.2,
                intent_duplicate: 0.2,
                wakelock_release_lost: 0.3,
                clock_skew: 0.3,
                event_reorder: 0.3,
                sched_hiccup: 0.3,
                ..FaultRates::ZERO
            },
        };
        android.attach_faults(plan.framework_faults(0));
    }
    let uids = (0..APPS)
        .map(|index| {
            android.install_with_behavior(
                AppManifest::builder(package(index))
                    .activity("Main", true)
                    .transparent_activity("Overlay", true)
                    .service("Worker", true)
                    .receiver("Ping", true, &[ACTION])
                    .permission(Permission::WakeLock)
                    .permission(Permission::WriteSettings)
                    .permission(Permission::Camera)
                    .build(),
                AppBehavior::heavy().with_service_util(0.1 * (index + 1) as f64),
            )
        })
        .collect();
    (android, uids)
}

fn wakelock_kind(kind: u8) -> WakelockKind {
    match kind {
        0 => WakelockKind::Partial,
        1 => WakelockKind::ScreenDim,
        2 => WakelockKind::ScreenBright,
        _ => WakelockKind::Full,
    }
}

fn source(user: bool, uid: Uid) -> ChangeSource {
    if user {
        ChangeSource::User
    } else {
        ChangeSource::App(uid)
    }
}

fn apply(android: &mut AndroidSystem, uids: &[Uid], op: &Op) {
    // Any operation may fail (app uninstalled, process dead, lock
    // missing, permission denied); only the epoch contract matters.
    let worker = |b: usize| Intent::explicit(package(b), "Worker");
    match *op {
        Op::Launch(a) => {
            let _ = android.user_launch(&package(a));
        }
        Op::StartActivity(a, b) => {
            let component = if a % 2 == 0 { "Main" } else { "Overlay" };
            let _ = android.start_activity(uids[a], Intent::explicit(package(b), component));
        }
        Op::Back => android.user_press_back(),
        Op::Home => android.user_press_home(),
        Op::AppHome(a) => android.app_open_home(uids[a]),
        Op::MoveToFront(a) => {
            let _ = android.move_task_to_front(ChangeSource::User, uids[a]);
        }
        Op::FinishActivity(a) => {
            let _ = android.finish_activity(uids[a], "Overlay");
        }
        Op::BeginQuit => {
            let _ = android.user_begin_quit();
        }
        Op::TapQuitOk => {
            let _ = android.user_tap_quit_ok();
        }
        Op::StartService(a, b) => {
            let _ = android.start_service(uids[a], worker(b));
        }
        Op::StopService(a, b) => {
            let _ = android.stop_service(uids[a], worker(b));
        }
        Op::Bind(a, b) => {
            let _ = android.bind_service(uids[a], worker(b));
        }
        Op::UnbindAll(a) => {
            let connections: Vec<_> = uids
                .iter()
                .flat_map(|&target| {
                    android
                        .running_services_of(target)
                        .into_iter()
                        .flat_map(|(_, record)| {
                            record
                                .bindings
                                .iter()
                                .filter(|(_, &binder)| binder == uids[a])
                                .map(|(&connection, _)| connection)
                                .collect::<Vec<_>>()
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            for connection in connections {
                let _ = android.unbind_service(uids[a], connection);
            }
        }
        Op::Wakelock(a, kind) => {
            let _ = android.acquire_wakelock(uids[a], wakelock_kind(kind));
        }
        Op::TimedWakelock(a, kind, secs) => {
            let _ = android.acquire_wakelock_with_timeout(
                uids[a],
                wakelock_kind(kind),
                SimDuration::from_secs(u64::from(secs)),
            );
        }
        Op::ReleaseAll(a) => {
            let locks: Vec<_> = android
                .held_wakelocks(uids[a])
                .iter()
                .map(|lock| lock.id)
                .collect();
            for lock in locks {
                let _ = android.release_wakelock(uids[a], lock);
            }
        }
        Op::Brightness(user, a, value) => {
            let _ = android.set_brightness(source(user, uids[a]), value);
        }
        Op::BrightnessMode(user, a, manual) => {
            let _ = android.set_brightness_mode(source(user, uids[a]), manual);
        }
        Op::Ambient(value) => android.ambient_brightness(value),
        Op::Camera(a, Some(recording)) => {
            let _ = android.camera_start(uids[a], recording);
        }
        Op::Camera(a, None) => android.camera_stop(uids[a]),
        Op::Audio(a, playing) => android.set_audio(uids[a], playing),
        Op::Gps(a, holding) => android.set_gps(uids[a], holding),
        Op::Wifi(a, kbps) => android.set_wifi_kbps(uids[a], f64::from(kbps)),
        Op::Cellular(a, kbps) => android.set_cellular_kbps(uids[a], f64::from(kbps)),
        Op::Luma(luma) => android.set_screen_content_luma(f64::from(luma) / 255.0),
        Op::ExtraDemand(a, cores) => android.set_extra_demand(uids[a], f64::from(cores) * 0.3),
        Op::Kill(a) => {
            let _ = android.kill_app(uids[a]);
        }
        Op::Uninstall(a) => {
            let _ = android.uninstall(&package(a));
        }
        Op::Broadcast(a) => {
            let _ = android.send_broadcast(ChangeSource::App(uids[a]), ACTION);
        }
        Op::Unlock => {
            let _ = android.user_unlock();
        }
        Op::UserActivity => android.note_user_activity(),
        Op::Call(true) => {
            let _ = android.incoming_call();
        }
        Op::Call(false) => {
            let _ = android.end_call();
        }
        Op::Notification(true) => {
            let _ = android.show_notification();
        }
        Op::Notification(false) => {
            let _ = android.dismiss_notification();
        }
        Op::Advance(millis) => android.advance(SimDuration::from_millis(u64::from(millis))),
    }
}

/// Applies `ops`, each followed by a 250 ms tick, and checks the
/// contract after every call.
fn check_epoch_contract(faulted: bool, seed: u64, ops: &[Op]) -> Result<(), TestCaseError> {
    let (mut android, uids) = build(faulted, seed);
    let tick = Op::Advance(250);
    let mut epoch = android.usage_epoch();
    let mut usage = android.usage_snapshot();
    for op in ops.iter().flat_map(|op| [op, &tick]) {
        apply(&mut android, &uids, op);
        let (next_epoch, next_usage) = (android.usage_epoch(), android.usage_snapshot());
        if next_usage != usage {
            prop_assert_ne!(
                next_epoch,
                epoch,
                "{:?} changed the usage snapshot without a usage_epoch bump",
                op
            );
        }
        epoch = next_epoch;
        usage = next_usage;
    }
    Ok(())
}

#[test]
fn two_systems_never_share_an_epoch() {
    let a = AndroidSystem::new();
    let b = AndroidSystem::new();
    assert_ne!(a.usage_epoch(), b.usage_epoch());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn usage_never_changes_without_an_epoch_bump(
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        check_epoch_contract(false, 0, &ops)?;
    }

    #[test]
    fn usage_never_changes_without_an_epoch_bump_under_faults(
        seed in any::<u64>(),
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        check_epoch_contract(true, seed, &ops)?;
    }
}
