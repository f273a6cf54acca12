//! The soundness property, under fire: for *random* app sets driven by
//! *random* action sequences, the static lint report taken before the run
//! must predict every `(driving uid, AttackKind)` pair the dynamic
//! monitor records — and every priced diagnostic's `predicted_joules`
//! bound must dominate the collateral energy the profiler attributes per
//! victim. This is the same two-part contract the scenario suite checks,
//! but over the whole configuration space proptest can reach.

use ea_core::{Profiler, ScreenPolicy};
use ea_framework::{
    AndroidSystem, AppBehavior, AppManifest, ChangeSource, Intent, Permission, WakelockKind,
    WakelockPolicy,
};
use ea_lint::soundness::{check_quantitative, check_superset, observed_attacks};
use ea_lint::{AppFacts, LintContext, Linter, RuleId};
use ea_sim::SimDuration;
use proptest::prelude::*;

/// Implicit actions the generator may declare and fire.
const ACTIONS: [&str; 3] = [
    "android.intent.action.SEND",
    "android.intent.action.VIEW",
    "android.media.action.VIDEO_CAPTURE",
];

/// Generator-side description of one app.
#[derive(Debug, Clone)]
struct AppSpec {
    export_main: bool,
    transparent_ghost: bool,
    service: Option<bool>, // Some(exported)
    implicit_action: Option<usize>,
    wake_lock: bool,
    write_settings: bool,
    policy: WakelockPolicy,
}

fn app_spec() -> impl Strategy<Value = AppSpec> {
    (
        (
            any::<bool>(),
            any::<bool>(),
            proptest::option::of(any::<bool>()),
            proptest::option::of(0usize..ACTIONS.len()),
        ),
        (any::<bool>(), any::<bool>(), 0u8..4),
    )
        .prop_map(
            |(
                (export_main, transparent_ghost, service, implicit_action),
                (wake_lock, write_settings, policy),
            )| {
                AppSpec {
                    export_main,
                    transparent_ghost,
                    service,
                    implicit_action,
                    wake_lock,
                    write_settings,
                    policy: match policy {
                        0 => WakelockPolicy::OnPause,
                        1 => WakelockPolicy::OnStop,
                        2 => WakelockPolicy::OnDestroy,
                        _ => WakelockPolicy::Never,
                    },
                }
            },
        )
}

fn manifest_of(index: usize, spec: &AppSpec) -> AppManifest {
    let mut builder = AppManifest::builder(format!("com.prop.app{index}"));
    builder = match spec.implicit_action {
        Some(action) => builder.activity_with_actions("Main", spec.export_main, &[ACTIONS[action]]),
        None => builder.activity("Main", spec.export_main),
    };
    if spec.transparent_ghost {
        builder = builder.transparent_activity("Ghost", false);
    }
    if let Some(exported) = spec.service {
        builder = builder.service("Worker", exported);
    }
    if spec.wake_lock {
        builder = builder.permission(Permission::WakeLock);
    }
    if spec.write_settings {
        builder = builder.permission(Permission::WriteSettings);
    }
    builder.build()
}

/// One random action against the system. App indices are taken modulo the
/// installed count, so every generated op is applicable.
#[derive(Debug, Clone)]
enum Op {
    Launch(usize),
    StartActivity(usize, usize),
    StartImplicit(usize, usize),
    MoveToFront(usize, usize),
    OpenHome(usize),
    BindService(usize, usize),
    StartService(usize, usize),
    AcquireLock(usize, bool),
    Brightness(usize, u8),
    BrightnessMode(usize, bool),
    PressBack,
    Advance(u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..8).prop_map(Op::Launch),
        (0usize..8, 0usize..8).prop_map(|(a, b)| Op::StartActivity(a, b)),
        (0usize..8, 0usize..ACTIONS.len()).prop_map(|(a, n)| Op::StartImplicit(a, n)),
        (0usize..8, 0usize..8).prop_map(|(a, b)| Op::MoveToFront(a, b)),
        (0usize..8).prop_map(Op::OpenHome),
        (0usize..8, 0usize..8).prop_map(|(a, b)| Op::BindService(a, b)),
        (0usize..8, 0usize..8).prop_map(|(a, b)| Op::StartService(a, b)),
        (0usize..8, any::<bool>()).prop_map(|(a, bright)| Op::AcquireLock(a, bright)),
        (0usize..8, any::<u8>()).prop_map(|(a, v)| Op::Brightness(a, v)),
        (0usize..8, any::<bool>()).prop_map(|(a, manual)| Op::BrightnessMode(a, manual)),
        Just(Op::PressBack),
        (1u64..40).prop_map(Op::Advance),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn static_prediction_is_superset_of_dynamic_observation(
        specs in proptest::collection::vec(app_spec(), 1..5),
        ops in proptest::collection::vec(op(), 0..48),
    ) {
        let mut android = AndroidSystem::new();
        let uids: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(index, spec)| {
                android.install_with_behavior(
                    manifest_of(index, spec),
                    AppBehavior::demo().with_wakelock_policy(spec.policy),
                )
            })
            .collect();
        let packages: Vec<String> = uids
            .iter()
            .map(|&uid| android.app(uid).unwrap().manifest.package.clone())
            .collect();

        // Static pass first: the report must already cover whatever the
        // random run manages to do.
        let report = Linter::new().lint_system(&android);

        let mut profiler = Profiler::eandroid(ScreenPolicy::SeparateEntity);
        let n = uids.len();
        for op in &ops {
            // Errors (missing permission, non-exported target, unknown
            // component) are expected outcomes of random driving: the
            // framework refusing an action is itself a soundness-relevant
            // fact, because refused actions must not open attack periods.
            let _ = match *op {
                Op::Launch(a) => android.user_launch(&packages[a % n]).map(|_| ()),
                Op::StartActivity(a, b) => android
                    .start_activity(
                        uids[a % n],
                        Intent::explicit(packages[b % n].clone(), "Main"),
                    )
                    .map(|_| ()),
                Op::StartImplicit(a, action) => android
                    .start_activity(uids[a % n], Intent::implicit(ACTIONS[action]))
                    .map(|_| ()),
                Op::MoveToFront(a, b) => {
                    android.move_task_to_front(ChangeSource::App(uids[a % n]), uids[b % n])
                }
                Op::OpenHome(a) => {
                    android.app_open_home(uids[a % n]);
                    Ok(())
                }
                Op::BindService(a, b) => android
                    .bind_service(
                        uids[a % n],
                        Intent::explicit(packages[b % n].clone(), "Worker"),
                    )
                    .map(|_| ()),
                Op::StartService(a, b) => android
                    .start_service(
                        uids[a % n],
                        Intent::explicit(packages[b % n].clone(), "Worker"),
                    )
                    .map(|_| ()),
                Op::AcquireLock(a, bright) => {
                    let kind = if bright {
                        WakelockKind::ScreenBright
                    } else {
                        WakelockKind::Partial
                    };
                    android.acquire_wakelock(uids[a % n], kind).map(|_| ())
                }
                Op::Brightness(a, value) => {
                    android.set_brightness(ChangeSource::App(uids[a % n]), value)
                }
                Op::BrightnessMode(a, manual) => {
                    android.set_brightness_mode(ChangeSource::App(uids[a % n]), manual)
                }
                Op::PressBack => {
                    android.user_press_back();
                    Ok(())
                }
                Op::Advance(secs) => {
                    profiler.run(&mut android, SimDuration::from_secs(secs));
                    Ok(())
                }
            };
        }
        profiler.run(&mut android, SimDuration::from_secs(5));

        let monitor = profiler.monitor().expect("eandroid profiler has a monitor");

        let observed = observed_attacks(monitor.attack_history());
        let violations = check_superset(&report, &observed);
        prop_assert!(
            violations.is_empty(),
            "static analysis missed dynamic attacks: {:?}",
            violations
        );

        // Quantitative half: every per-victim collateral attribution must
        // sit under every priced diagnostic of its driver.
        let graph = monitor.graph();
        let mut measured: Vec<(u32, f64)> = Vec::new();
        for host in graph.hosts().collect::<Vec<_>>() {
            for (_victim, energy) in graph.collateral_of(host) {
                measured.push((host.as_raw(), energy.as_joules()));
            }
        }
        let undershoots = check_quantitative(&report, &measured);
        prop_assert!(
            undershoots.is_empty(),
            "static bounds undershot measured collateral: {:?}",
            undershoots
        );
    }
}

/// Package names with nested prefixes: `'.'` sorts before `'/'`, so
/// `com.a.b/X` must precede `com.a/Y` in evidence.
const PACKAGES: [&str; 5] = ["com.a", "com.a.b", "com.ab", "com.a.b.c", "org.z"];
const NAMES: [&str; 4] = ["Main", "A", "b", "Z"];

/// One generated app for the evidence oracle: a package drawn from
/// [`PACKAGES`] (so duplicates occur), `(is service, name, exported)`
/// components (possibly none), and an optional background demand.
#[derive(Debug, Clone)]
struct EvidenceSpec {
    package: usize,
    components: Vec<(bool, usize, bool)>,
    background_util: Option<f64>,
}

fn evidence_spec() -> impl Strategy<Value = EvidenceSpec> {
    (
        0..PACKAGES.len(),
        proptest::collection::vec((any::<bool>(), 0..NAMES.len(), any::<bool>()), 0..4),
        proptest::option::of(prop_oneof![Just(0.0), 0.0f64..2.0]),
    )
        .prop_map(|(package, components, background_util)| EvidenceSpec {
            package,
            components,
            background_util,
        })
}

fn facts_of(spec: &EvidenceSpec) -> AppFacts {
    let mut builder = AppManifest::builder(PACKAGES[spec.package]);
    for &(service, name, exported) in &spec.components {
        builder = if service {
            builder.service(NAMES[name], exported)
        } else {
            builder.activity(NAMES[name], exported)
        };
    }
    let mut facts = AppFacts::from_manifest(&builder.build());
    facts.background_util = spec.background_util;
    facts
}

/// The naive evidence code: every app formats and sorts every other
/// app's entries.
mod oracle {
    use ea_framework::ComponentKind;
    use ea_lint::AppFacts;

    fn clip(mut items: Vec<String>) -> Vec<String> {
        items.sort_unstable();
        if items.len() > 3 {
            let extra = items.len() - 3;
            items.truncate(3);
            items.push(format!("+{extra} more"));
        }
        items
    }

    fn others(apps: &[AppFacts], index: usize) -> impl Iterator<Item = &AppFacts> {
        apps.iter()
            .enumerate()
            .filter(move |(i, _)| *i != index)
            .map(|(_, facts)| facts)
    }

    fn exported(apps: &[AppFacts], index: usize, kind: ComponentKind) -> Vec<String> {
        others(apps, index)
            .flat_map(|other| {
                other
                    .exported(kind)
                    .map(move |decl| format!("{}/{}", other.package, decl.name))
            })
            .collect()
    }

    /// `(message, evidence)` of EA0001, EA0002 and EA0003 for app `index`.
    pub fn evidence(apps: &[AppFacts], index: usize) -> [Option<(String, Vec<String>)>; 3] {
        let activities = exported(apps, index, ComponentKind::Activity);
        let hijack = (!activities.is_empty()).then(|| {
            (
                format!(
                    "{} exported activities of other apps are startable from here",
                    activities.len()
                ),
                clip(activities),
            )
        });
        let neighbors = others(apps, index).count();
        let draining: Vec<String> = others(apps, index)
            .filter(|other| other.background_util.unwrap_or(0.0) > 0.0)
            .map(|other| {
                format!(
                    "{} (background demand {:.2} cores)",
                    other.package,
                    other.background_util.unwrap_or(0.0)
                )
            })
            .collect();
        let spray = (neighbors > 0).then(|| {
            (
                format!(
                    "{neighbors} co-installed app(s) can be pushed to the background \
                     (task reordering needs no permission)"
                ),
                clip(draining),
            )
        });
        let services = exported(apps, index, ComponentKind::Service);
        let tether = (!services.is_empty()).then(|| {
            (
                format!(
                    "{} exported services of other apps are bindable from here",
                    services.len()
                ),
                clip(services),
            )
        });
        [hijack, spray, tether]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cross_app_evidence_matches_the_naive_oracle(
        specs in proptest::collection::vec(evidence_spec(), 1..10),
    ) {
        let ctx = LintContext::new(specs.iter().map(facts_of).collect());
        let rules = [RuleId::ComponentHijack, RuleId::BackgroundSpray, RuleId::ServiceTether];
        for (index, facts) in ctx.apps().iter().enumerate() {
            let expected = oracle::evidence(ctx.apps(), index);
            for (rule, expected) in rules.into_iter().zip(expected) {
                let got = rule
                    .check(index, facts, &ctx)
                    .map(|diag| (diag.message, diag.evidence));
                prop_assert_eq!(got, expected, "{:?} for app {}", rule, index);
            }
        }
    }
}
