//! The Figure 3 battery-depletion experiment.
//!
//! "We measure the time duration of the above attacks for consuming the
//! total battery. For each percentage of battery, we record the time until
//! the battery is dead. … For all experiments, we set the wakelock so that
//! the screen will be forced on. We treated the lowest brightness case as
//! the baseline case." (§III-B)

use ea_core::{Profiler, ScreenPolicy};
use ea_framework::{AndroidSystem, AppBehavior, ChangeSource, Intent, WakelockKind};
use ea_sim::SimDuration;

use crate::demo::{self, packages};
use crate::malware::Malware;

/// The five Figure 3 configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepletionCase {
    /// Baseline: lowest brightness, screen forced on.
    BrightnessLow,
    /// Brightness set to 10 — "a small increase … can increase battery
    /// drain".
    Brightness10,
    /// Maximum brightness.
    BrightnessFull,
    /// Baseline plus a bound (never unbound) victim service.
    BindService,
    /// Baseline plus the victim interrupted to the background mid-work.
    InterruptApp,
}

impl DepletionCase {
    /// All cases, in the paper's legend order.
    pub const ALL: [DepletionCase; 5] = [
        DepletionCase::BindService,
        DepletionCase::Brightness10,
        DepletionCase::BrightnessFull,
        DepletionCase::BrightnessLow,
        DepletionCase::InterruptApp,
    ];

    /// The legend label used in Figure 3.
    pub fn label(self) -> &'static str {
        match self {
            DepletionCase::BindService => "Bind_service",
            DepletionCase::Brightness10 => "Brightness_10",
            DepletionCase::BrightnessFull => "Brightness_full",
            DepletionCase::BrightnessLow => "Brightness_low",
            DepletionCase::InterruptApp => "Interrupt_app",
        }
    }
}

/// One sample of the depletion curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepletionPoint {
    /// Wall time, hours.
    pub hours: f64,
    /// Remaining battery, percent.
    pub percent: f64,
}

/// The result of one depletion run.
#[derive(Debug, Clone, PartialEq)]
pub struct DepletionCurve {
    /// Which configuration.
    pub label: &'static str,
    /// `(hours, percent)` samples, one per whole percent.
    pub points: Vec<DepletionPoint>,
    /// Time to a dead battery, hours (capped at the runner's limit).
    pub lifetime_hours: f64,
}

/// Runs one Figure 3 case until the battery dies (or `cap_hours` passes)
/// and returns the percent-vs-time curve, on the default Nexus 4 model.
pub fn run_depletion(case: DepletionCase, cap_hours: u64) -> DepletionCurve {
    run_depletion_with_model(case, cap_hours, ea_power::DevicePowerModel::nexus4())
}

/// Runs one Figure 3 case with a seeded fault plan attached to both the
/// framework and the profiler. A zero-rate plan is a byte-identical
/// no-op relative to [`run_depletion`].
pub fn run_depletion_chaos(
    case: DepletionCase,
    cap_hours: u64,
    plan: &ea_chaos::FaultPlan,
    lane: u64,
) -> DepletionCurve {
    run_depletion_inner(
        case,
        cap_hours,
        ea_power::DevicePowerModel::nexus4(),
        Some((plan, lane)),
    )
}

/// Runs one Figure 3 case on an explicit hardware model — the ablation that
/// shows the attack ordering is not an artifact of the LCD calibration.
pub fn run_depletion_with_model(
    case: DepletionCase,
    cap_hours: u64,
    model: ea_power::DevicePowerModel,
) -> DepletionCurve {
    run_depletion_inner(case, cap_hours, model, None)
}

fn run_depletion_inner(
    case: DepletionCase,
    cap_hours: u64,
    model: ea_power::DevicePowerModel,
    faults: Option<(&ea_chaos::FaultPlan, u64)>,
) -> DepletionCurve {
    let mut android = AndroidSystem::new();

    // The attacked app: nearly-empty demo app. For the interrupt case it is
    // installed mid-task heavy, representing work it never got to finish.
    let victim_behavior = match case {
        DepletionCase::InterruptApp => AppBehavior::demo().with_background_util(0.50),
        _ => AppBehavior::demo(),
    };
    let victim = android.install_with_behavior(
        ea_framework::AppManifest::builder(packages::VICTIM)
            .activity("Main", true)
            .service("Worker", true)
            .permission(ea_framework::Permission::WakeLock)
            .build(),
        victim_behavior,
    );
    let _victim2 = demo::install_victim2(&mut android);

    android.user_launch(packages::VICTIM).unwrap();
    // Screen forced on for every case (§III-B).
    android
        .acquire_wakelock(victim, WakelockKind::ScreenBright)
        .unwrap();

    let brightness = match case {
        DepletionCase::Brightness10 => 10,
        DepletionCase::BrightnessFull => 255,
        _ => 1,
    };
    android
        .set_brightness(ChangeSource::User, brightness)
        .unwrap();

    match case {
        DepletionCase::BindService => {
            let malware = Malware::install(&mut android);
            android
                .start_service(_victim2, Intent::explicit(packages::VICTIM2, "Worker"))
                .unwrap();
            malware
                .attack3_bind(&mut android, packages::VICTIM2, "Worker")
                .unwrap();
            android
                .stop_service(_victim2, Intent::explicit(packages::VICTIM2, "Worker"))
                .unwrap();
        }
        DepletionCase::InterruptApp => {
            let malware = Malware::install(&mut android);
            android.app_open_home(malware.uid);
        }
        _ => {}
    }

    // Battery percentage is all Figure 3 needs: the cheap baseline profiler
    // with a coarse step keeps a 15-hour run fast.
    let mut profiler = Profiler::android(ScreenPolicy::SeparateEntity)
        .with_model(model)
        .with_step(SimDuration::from_secs(5));
    if let Some((plan, lane)) = faults {
        android.attach_faults(plan.framework_faults(lane));
        profiler = profiler.with_chaos(plan.power_faults(lane));
    }

    let mut points = vec![DepletionPoint {
        hours: 0.0,
        percent: 100.0,
    }];
    let mut last_percent = 100.0_f64;
    let cap_steps = cap_hours * 3_600 / 5;
    for _ in 0..cap_steps {
        profiler.step(&mut android);
        let percent = profiler.battery().percent();
        if percent.floor() < last_percent.floor() {
            points.push(DepletionPoint {
                hours: android.now().as_hours_f64(),
                percent,
            });
            last_percent = percent;
        }
        if profiler.battery().is_empty() {
            break;
        }
    }

    DepletionCurve {
        label: case.label(),
        lifetime_hours: android.now().as_hours_f64(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // These runs simulate many hours; keep the cap modest and compare
    // drain rates instead of full lifetimes where possible.

    #[test]
    fn curve_is_monotone_decreasing() {
        let curve = run_depletion(DepletionCase::BrightnessFull, 1);
        for window in curve.points.windows(2) {
            assert!(window[1].hours >= window[0].hours);
            assert!(window[1].percent <= window[0].percent);
        }
    }

    #[test]
    fn attack_ordering_holds_on_oled_hardware() {
        // The same ranking claims must survive a panel swap (Galaxy-Nexus
        // AMOLED instead of the Nexus 4 LCD).
        let drained = |case| {
            let curve = super::run_depletion_with_model(
                case,
                1,
                ea_power::DevicePowerModel::galaxy_nexus(),
            );
            100.0 - curve.points.last().map(|p| p.percent).unwrap_or(100.0)
        };
        let low = drained(DepletionCase::BrightnessLow);
        let full = drained(DepletionCase::BrightnessFull);
        let bind = drained(DepletionCase::BindService);
        assert!(full > low, "brightness still dominates on OLED");
        assert!(bind > low, "service pinning still drains on OLED");
    }

    #[test]
    fn screen_stays_forced_on() {
        // Re-run a short slice and check the wakelock premise holds.
        let mut android = AndroidSystem::new();
        let victim = demo::install_victim(&mut android);
        android.user_launch(packages::VICTIM).unwrap();
        android
            .acquire_wakelock(victim, WakelockKind::ScreenBright)
            .unwrap();
        android.advance(SimDuration::from_secs(3_600));
        assert!(android.screen_is_on());
    }
}
