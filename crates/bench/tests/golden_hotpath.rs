//! Golden byte-identity tests for the hot-loop overhaul.
//!
//! The slot-interned, zero-alloc accounting path is an *optimization*,
//! not a semantic change: every serialized ledger, collateral graph,
//! figure series, and fleet report must be byte-for-byte identical to
//! what the pre-optimization reference path produces. These tests pin
//! that contract on the exact artifacts the paper's figures are built
//! from (fig01's scenario, fig03's depletion curves, fig08's hybrid
//! chain) and on the fleet report at several worker counts.

use ea_apps::{run_depletion, run_depletion_reference, DepletionCase, Scenario};
use ea_core::{Profiler, ScreenPolicy};
use ea_fleet::{render, run_fleet, FleetConfig};
use ea_sim::SimDuration;

/// Serialized `(ledger, collateral graph, battery-drained bits)` of one
/// scenario run — everything a figure binary reads.
fn fingerprint(scenario: Scenario, profiler: Profiler) -> (String, String, u64) {
    let run = scenario.run(profiler);
    let ledger = serde_json::to_string(run.profiler.ledger()).expect("serialize ledger");
    let graph = match run.profiler.collateral() {
        Some(graph) => serde_json::to_string(graph).expect("serialize graph"),
        None => String::new(),
    };
    let drained = run.profiler.battery().drained().as_joules().to_bits();
    (ledger, graph, drained)
}

fn diff_json(label: &str, optimized: &str, reference: &str) {
    if optimized == reference {
        return;
    }
    // Byte mismatch: parse both and report the structural diff, which is
    // far more readable than two multi-kilobyte strings.
    let a: serde_json::Value = serde_json::from_str(optimized).expect("optimized parses");
    let b: serde_json::Value = serde_json::from_str(reference).expect("reference parses");
    assert_eq!(a, b, "{label}: parsed JSON differs between paths");
    panic!("{label}: parsed JSON agrees but bytes differ (serializer drift)");
}

#[test]
fn fig01_scenario_bytes_identical() {
    // Figure 1 runs the stock-Android profiler (no collateral monitor).
    let optimized = fingerprint(
        Scenario::Scene1MessageVideo,
        Profiler::android(ScreenPolicy::SeparateEntity),
    );
    let reference = fingerprint(
        Scenario::Scene1MessageVideo,
        Profiler::android(ScreenPolicy::SeparateEntity).with_reference_accounting(),
    );
    diff_json("fig01 ledger", &optimized.0, &reference.0);
    assert_eq!(optimized.2, reference.2, "fig01 drained-energy bits");
}

#[test]
fn fig08_scenario_bytes_identical() {
    let optimized = fingerprint(
        Scenario::Scene2HybridChain,
        Profiler::eandroid(ScreenPolicy::SeparateEntity),
    );
    let reference = fingerprint(
        Scenario::Scene2HybridChain,
        Profiler::eandroid(ScreenPolicy::SeparateEntity).with_reference_accounting(),
    );
    diff_json("fig08 ledger", &optimized.0, &reference.0);
    diff_json("fig08 collateral graph", &optimized.1, &reference.1);
    assert_eq!(optimized.2, reference.2, "fig08 drained-energy bits");
}

#[test]
fn every_scenario_bytes_identical() {
    for scenario in Scenario::ALL {
        let optimized = fingerprint(scenario, Profiler::eandroid(ScreenPolicy::SeparateEntity));
        let reference = fingerprint(
            scenario,
            Profiler::eandroid(ScreenPolicy::SeparateEntity).with_reference_accounting(),
        );
        let name = scenario.name();
        diff_json(&format!("{name} ledger"), &optimized.0, &reference.0);
        diff_json(&format!("{name} graph"), &optimized.1, &reference.1);
        assert_eq!(optimized.2, reference.2, "{name} drained-energy bits");
    }
}

#[test]
fn fig03_depletion_curves_identical() {
    for case in DepletionCase::ALL {
        let optimized = run_depletion(case, 1);
        let reference = run_depletion_reference(case, 1);
        assert_eq!(
            optimized, reference,
            "depletion curve {} must not depend on the accounting path",
            optimized.label
        );
    }
}

#[test]
fn fine_step_profiles_identical() {
    // A 50 ms step multiplies the hot-loop iteration count 20×, stressing
    // accumulated float state; the paths must still agree bit-for-bit.
    let optimized = Scenario::HybridAttackChain.run(
        Profiler::eandroid(ScreenPolicy::SeparateEntity).with_step(SimDuration::from_millis(50)),
    );
    let reference = Scenario::HybridAttackChain.run(
        Profiler::eandroid(ScreenPolicy::SeparateEntity)
            .with_step(SimDuration::from_millis(50))
            .with_reference_accounting(),
    );
    assert_eq!(
        serde_json::to_string(optimized.profiler.ledger()).unwrap(),
        serde_json::to_string(reference.profiler.ledger()).unwrap(),
    );
    assert_eq!(
        serde_json::to_string(optimized.profiler.collateral().unwrap()).unwrap(),
        serde_json::to_string(reference.profiler.collateral().unwrap()).unwrap(),
    );
}

/// Like [`fingerprint`], but with a fault plan attached via the chaos
/// entry point. A zero-rate plan must not move a single byte.
fn fingerprint_chaos(
    scenario: Scenario,
    profiler: Profiler,
    plan: &ea_chaos::FaultPlan,
) -> (String, String, u64) {
    let run = scenario.run_chaos(profiler, plan, 0);
    let ledger = serde_json::to_string(run.profiler.ledger()).expect("serialize ledger");
    let graph = match run.profiler.collateral() {
        Some(graph) => serde_json::to_string(graph).expect("serialize graph"),
        None => String::new(),
    };
    let drained = run.profiler.battery().drained().as_joules().to_bits();
    (ledger, graph, drained)
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

#[test]
fn fleet_report_bytes_stable_across_jobs_and_paths() {
    let base = FleetConfig {
        jobs: 1,
        ..FleetConfig::smoke(6, 2_026)
    };
    let (report, _) = run_fleet(&base);
    let golden = render::to_json(&report);

    for jobs in [4, 8] {
        let (report, _) = run_fleet(&FleetConfig {
            jobs,
            ..base.clone()
        });
        assert_eq!(
            golden,
            render::to_json(&report),
            "fleet report changed at --jobs {jobs}"
        );
    }

    let (report, _) = run_fleet(&FleetConfig {
        reference_accounting: true,
        ..base
    });
    assert_eq!(
        golden,
        render::to_json(&report),
        "fleet report changed on the reference accounting path"
    );
}
