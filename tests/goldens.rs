//! Committed golden files for the bytes every figure and report is built
//! from: all 14 scenario fingerprints (ledger JSON, collateral-graph
//! JSON, battery-drained bits), Figure 1's scenario under the stock
//! Android profiler, every Figure 3 depletion curve, the hybrid chain at
//! a 50 ms step, the smoke fleet report at several worker counts, a
//! long-day fleet report, a faulted fleet report, and the streamed report
//! at several lane counts.
//!
//! The files under `tests/golden/` are the contract; no second runtime
//! path is consulted. To regenerate after an intentional output change:
//! `GOLDEN_BLESS=1 cargo test --test goldens`, then review the diff under
//! `tests/golden/`.

use std::path::PathBuf;

use e_android::apps::{run_depletion, DepletionCase, RunOutput, Scenario};
use e_android::chaos::{FaultPlan, FaultRates};
use e_android::core::{Profiler, ScreenPolicy};
use e_android::fleet::{render, run_fleet, FleetConfig};
use e_android::framework::{AndroidSystem, AppManifest, Permission, WakelockKind};
use e_android::serve::{run_serve, ServeConfig};
use e_android::sim::SimDuration;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the committed file `name`, or rewrites the
/// file when `GOLDEN_BLESS` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|error| panic!("read golden {}: {error}", path.display()));
    if expected == actual {
        return;
    }
    // Report the structural difference when both sides are JSON: far more
    // readable than two multi-kilobyte strings.
    if let (Ok(a), Ok(b)) = (
        serde_json::from_str::<serde_json::Value>(&expected),
        serde_json::from_str::<serde_json::Value>(actual),
    ) {
        assert_eq!(a, b, "golden {name}: parsed JSON differs");
    }
    panic!("golden {name} is stale; regenerate with GOLDEN_BLESS=1 and review the diff");
}

/// Serialized `(ledger, collateral graph, battery-drained bits)` of one
/// scenario run — everything a figure binary reads.
fn fingerprint(scenario: Scenario, profiler: Profiler) -> (String, String, u64) {
    digest(&scenario.run(profiler))
}

fn digest(run: &RunOutput) -> (String, String, u64) {
    let ledger = serde_json::to_string(run.profiler.ledger()).expect("serialize ledger");
    let graph = match run.profiler.collateral() {
        Some(graph) => serde_json::to_string(graph).expect("serialize graph"),
        None => String::new(),
    };
    let drained = run.profiler.battery().drained().as_joules().to_bits();
    (ledger, graph, drained)
}

/// A [`fingerprint`] rendered as one three-line text file.
fn fingerprint_text((ledger, graph, drained): (String, String, u64)) -> String {
    format!("drained_bits {drained:#018x}\n{ledger}\n{graph}\n")
}

/// The scenario's fingerprint under the full E-Android profiler.
fn scenario_fingerprint(scenario: Scenario) -> String {
    fingerprint_text(fingerprint(
        scenario,
        Profiler::eandroid(ScreenPolicy::SeparateEntity),
    ))
}

#[test]
fn every_scenario_matches_its_golden() {
    for scenario in Scenario::ALL {
        check_golden(
            &format!("scenario/{}.txt", scenario.name()),
            &scenario_fingerprint(scenario),
        );
    }
}

/// Figure 1 runs the stock-Android profiler: no collateral monitor, so
/// the ledger alone carries the bytes.
#[test]
fn fig01_android_fingerprint_matches_its_golden() {
    check_golden(
        "fig01_android.txt",
        &fingerprint_text(fingerprint(
            Scenario::Scene1MessageVideo,
            Profiler::android(ScreenPolicy::SeparateEntity),
        )),
    );
}

/// Every Figure 3 case over a one-hour cap: the label, the lifetime, then
/// one `hours percent` sample per line. `{:?}` prints the shortest string
/// that parses back to the same `f64`, so equal text means equal bits.
#[test]
fn depletion_curves_match_their_golden() {
    let mut text = String::new();
    for case in DepletionCase::ALL {
        let curve = run_depletion(case, 1);
        text.push_str(&format!(
            "{} lifetime_hours {:?}\n",
            curve.label, curve.lifetime_hours
        ));
        for point in &curve.points {
            text.push_str(&format!("{:?} {:?}\n", point.hours, point.percent));
        }
    }
    check_golden("depletion_curves.txt", &text);
}

/// A 50 ms step multiplies the step count 20×, so accumulated float state
/// in the ledger and the collateral graph gets the most rounding to drift.
#[test]
fn fine_step_hybrid_chain_matches_its_golden() {
    check_golden(
        "hybrid_attack_chain_50ms.txt",
        &fingerprint_text(fingerprint(
            Scenario::HybridAttackChain,
            Profiler::eandroid(ScreenPolicy::SeparateEntity)
                .with_step(SimDuration::from_millis(50)),
        )),
    );
}

/// Asserts two JSON texts are byte-identical, reporting the structural
/// difference first when they are not.
fn diff_json(label: &str, left: &str, right: &str) {
    if left == right {
        return;
    }
    // Byte mismatch: parse both and report the structural diff, which is
    // far more readable than two multi-kilobyte strings.
    let a: serde_json::Value = serde_json::from_str(left).expect("left side parses");
    let b: serde_json::Value = serde_json::from_str(right).expect("right side parses");
    assert_eq!(a, b, "{label}: parsed JSON differs");
    panic!("{label}: parsed JSON agrees but bytes differ (serializer drift)");
}

/// Like [`fingerprint`], but with a fault plan attached via the chaos
/// entry point. A zero-rate plan must not move a single byte.
fn fingerprint_chaos(
    scenario: Scenario,
    profiler: Profiler,
    plan: &ea_chaos::FaultPlan,
) -> (String, String, u64) {
    digest(&scenario.run_chaos(profiler, plan, 0))
}

#[test]
fn zero_rate_fault_plan_is_a_byte_identical_noop_on_figure_artifacts() {
    let plan = ea_chaos::FaultPlan::zero(2_026);

    // fig01: stock-Android profiler.
    let bare = fingerprint(
        Scenario::Scene1MessageVideo,
        Profiler::android(ScreenPolicy::SeparateEntity),
    );
    let chaos = fingerprint_chaos(
        Scenario::Scene1MessageVideo,
        Profiler::android(ScreenPolicy::SeparateEntity),
        &plan,
    );
    diff_json("fig01 ledger under zero plan", &chaos.0, &bare.0);
    assert_eq!(chaos.2, bare.2, "fig01 drained-energy bits under zero plan");

    // fig08: full E-Android profiler with the collateral monitor.
    let bare = fingerprint(
        Scenario::Scene2HybridChain,
        Profiler::eandroid(ScreenPolicy::SeparateEntity),
    );
    let chaos = fingerprint_chaos(
        Scenario::Scene2HybridChain,
        Profiler::eandroid(ScreenPolicy::SeparateEntity),
        &plan,
    );
    diff_json("fig08 ledger under zero plan", &chaos.0, &bare.0);
    diff_json("fig08 graph under zero plan", &chaos.1, &bare.1);
    assert_eq!(chaos.2, bare.2, "fig08 drained-energy bits under zero plan");

    // fig03: the depletion race.
    for case in DepletionCase::ALL {
        let bare = run_depletion(case, 1);
        let chaos = ea_apps::run_depletion_chaos(case, 1, &plan, 0);
        assert_eq!(
            bare, chaos,
            "depletion curve {} moved under a zero-rate plan",
            bare.label
        );
    }
}

fn smoke_fleet() -> FleetConfig {
    FleetConfig {
        jobs: 1,
        ..FleetConfig::smoke(6, 2_026)
    }
}

#[test]
fn fleet_report_matches_its_golden_at_every_job_count() {
    for jobs in [1, 4, 8] {
        let (report, _) = run_fleet(&FleetConfig {
            jobs,
            ..smoke_fleet()
        });
        check_golden("fleet_smoke.json", &render::to_json(&report));
    }
}

/// The benchmark's long-day device shape at a small fleet: twelve
/// sessions of ~60 s attended and ~240 s pocketed, so the report pins
/// long idle stretches and the radio tails that expire inside them.
#[test]
fn long_day_fleet_report_matches_its_golden() {
    let config = FleetConfig {
        sessions: 12,
        mean_session_secs: 60,
        mean_idle_secs: 240,
        ..FleetConfig::smoke(3, 2_026)
    };
    for jobs in [1, 4] {
        let (report, _) = run_fleet(&FleetConfig {
            jobs,
            ..config.clone()
        });
        check_golden("fleet_long_day.json", &render::to_json(&report));
    }
}

#[test]
fn faulted_fleet_report_matches_its_golden() {
    let config = FleetConfig {
        faults: Some(FaultPlan::uniform(2_026, 0.35)),
        ..smoke_fleet()
    };
    for jobs in [1, 4, 8] {
        let (report, _) = run_fleet(&FleetConfig {
            jobs,
            ..config.clone()
        });
        let health = &report.health;
        assert!(
            health.devices_retried > 0 && !health.faults_injected.is_empty(),
            "plan must exercise supervision and fault injection: {health:?}"
        );
        check_golden("fleet_faulted.json", &render::to_json(&report));
    }
}

/// Fleet devices never kill an app, so no fleet report carries a deferred
/// binder death notice. This device does: a dozen wakelock holders die
/// under a plan that defers most notices, several at the same instant, so
/// the framework's timer queue pops same-second ties in schedule order.
#[test]
fn deferred_death_notices_match_their_golden() {
    let plan = FaultPlan {
        seed: 2_026,
        rates: FaultRates {
            binder_failure: 0.7,
            ..FaultRates::ZERO
        },
    };
    let mut android = AndroidSystem::new();
    android.attach_faults(plan.framework_faults(0));
    let uids: Vec<_> = (0..12)
        .map(|i| {
            android.install(
                AppManifest::builder(format!("com.example.holder{i}"))
                    .activity("Main", true)
                    .permission(Permission::WakeLock)
                    .build(),
            )
        })
        .collect();
    for (i, &uid) in uids.iter().enumerate() {
        for _ in 0..=i % 3 {
            android
                .acquire_wakelock(uid, WakelockKind::Partial)
                .expect("holder has WAKE_LOCK");
        }
    }
    // Kill in bursts of three per second so due times collide.
    for burst in uids.chunks(3) {
        for &uid in burst {
            android.kill_app(uid).expect("installed");
        }
        android.advance(SimDuration::from_secs(1));
    }
    for _ in 0..40 {
        android.advance(SimDuration::from_secs(1));
    }

    let faults = android.fault_log().expect("faults attached");
    assert!(
        faults.injected.get("death_delayed").is_some_and(|&n| n > 1),
        "plan must defer several death notices: {faults:?}"
    );
    assert!(!android.any_wakelock(), "every deferred notice must land");
    let events = serde_json::to_string(&android.drain_events()).expect("serialize events");
    let log = serde_json::to_string(&android.intent_log()).expect("serialize intent log");
    check_golden("deferred_deaths.txt", &format!("{events}\n{log}\n"));
}

#[test]
fn streamed_report_matches_its_golden_at_every_lane_count() {
    let fleet = FleetConfig {
        jobs: 1,
        ..FleetConfig::smoke(5, 2_026)
    };
    for lanes in [1, 2, 5] {
        let config = ServeConfig {
            lanes,
            ..ServeConfig::new(fleet.clone())
        };
        let (streamed, _) = run_serve(&config, None).expect("no socket: cannot fail");
        check_golden("serve_stream.json", &render::to_json(&streamed));
    }
}
