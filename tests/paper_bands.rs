//! The paper's figures as bands: each test checks a number or an
//! ordering the paper reports, not bytes a previous run produced, so
//! nothing here is rewritten by `GOLDEN_BLESS=1`.

use e_android::apps::{run_depletion, DepletionCase, Scenario};
use e_android::core::{Entity, Profiler, ScreenPolicy};
use e_android::corpus::{analyze, generate_corpus, CorpusConfig};

/// Fig. 2: the share of the 1,124-app corpus with an exported component
/// (72 %), `WAKE_LOCK` (81 %) and `WRITE_SETTINGS` (21 %), each ±4 points.
#[test]
fn paper_corpus_hits_figure2_aggregates() {
    let stats = analyze(&generate_corpus(&CorpusConfig::paper(), 2_017));
    assert!(
        (stats.exported_percent() - 72.0).abs() < 4.0,
        "exported ≈ 72%, got {:.1}",
        stats.exported_percent()
    );
    assert!(
        (stats.wake_lock_percent() - 81.0).abs() < 4.0,
        "WAKE_LOCK ≈ 81%, got {:.1}",
        stats.wake_lock_percent()
    );
    assert!(
        (stats.write_settings_percent() - 21.0).abs() < 4.0,
        "WRITE_SETTINGS ≈ 21%, got {:.1}",
        stats.write_settings_percent()
    );
}

/// Battery percent drained by `case` in its first simulated hour.
fn drained_after_one_hour(case: DepletionCase) -> f64 {
    let curve = run_depletion(case, 1);
    100.0 - curve.points.last().map(|p| p.percent).unwrap_or(100.0)
}

/// Fig. 3: a brighter screen drains the battery faster.
#[test]
fn brightness_ordering_low_10_full() {
    let low = drained_after_one_hour(DepletionCase::BrightnessLow);
    let ten = drained_after_one_hour(DepletionCase::Brightness10);
    let full = drained_after_one_hour(DepletionCase::BrightnessFull);
    assert!(
        low < ten && ten < full,
        "drain rates must rank low < 10 < full: {low:.2} {ten:.2} {full:.2}"
    );
}

/// Fig. 3: the service-binding and interrupt attacks drain faster than
/// the low-brightness baseline.
#[test]
fn attacks_outdrain_the_baseline() {
    let low = drained_after_one_hour(DepletionCase::BrightnessLow);
    let bind = drained_after_one_hour(DepletionCase::BindService);
    let interrupt = drained_after_one_hour(DepletionCase::InterruptApp);
    assert!(bind > low, "bind_service drains faster than baseline");
    assert!(interrupt > low, "interrupt_app drains faster than baseline");
}

/// Fig. 9: E-Android charges collateral energy to the malware in every
/// attack scenario.
#[test]
fn every_attack_charges_the_malware() {
    for scenario in Scenario::ALL.into_iter().filter(|s| s.is_attack()) {
        let run = scenario.run(Profiler::eandroid(ScreenPolicy::SeparateEntity));
        let malware = run.malware.expect("attack installs malware");
        let graph = run.profiler.collateral().unwrap();
        assert!(
            graph.collateral_total(malware).as_joules() > 0.0,
            "{}: E-Android must charge the malware",
            scenario.name()
        );
    }
}

/// Fig. 9: stock Android accounting blames the malware for almost none
/// of what its attacks burn.
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
