//! Old-report compatibility: a schema-v5 fleet report written while the
//! power-kernel, scheduler and lifecycle oracle flags still existed
//! carries `batch_kernel`, `reference_scheduler` and
//! `reference_lifecycle` in its `replay_config`. Those keys are ignored
//! on parse, so the report still replays through `replay_report` and
//! `eandroid replay`.
//!
//! The fixture is a faulted smoke fleet (`FleetConfig::smoke(8, 401)`,
//! `FaultPlan::uniform(401, 0.6)`, one job) rendered by that older code.

use std::path::PathBuf;
use std::process::Command;

use e_android::fleet::{replay_report, FleetReport};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/report_v5_oracle_keys.json")
}

fn fixture_text() -> String {
    std::fs::read_to_string(fixture_path()).expect("read fixture report")
}

#[test]
fn fixture_carries_the_removed_replay_config_keys() {
    let text = fixture_text();
    for key in [
        "\"batch_kernel\"",
        "\"reference_scheduler\"",
        "\"reference_lifecycle\"",
    ] {
        assert!(text.contains(key), "fixture lost {key}");
    }
}

#[test]
fn old_report_parses_and_replays_every_failure() {
    let report: FleetReport = serde_json::from_str(&fixture_text()).expect("old report parses");
    assert_eq!(report.schema_version, 5);
    assert!(
        report.failures.iter().any(|failure| failure
            .intent_log
            .as_ref()
            .is_some_and(|log| !log.is_empty())),
        "fixture must hold a failure with a populated intent-log tail"
    );
    let verdicts = replay_report(&report, 2);
    assert_eq!(verdicts.failures.len(), report.failures.len());
    assert_eq!(verdicts.healthy.len(), 2);
    assert!(verdicts.all_matched(), "old report diverged: {verdicts:?}");
}

#[test]
fn eandroid_replay_accepts_the_old_report() {
    let output = Command::new(env!("CARGO_BIN_EXE_eandroid"))
        .arg("replay")
        .arg(fixture_path())
        .output()
        .expect("run eandroid replay");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "eandroid replay failed: {stdout}{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("failure reproduced"), "{stdout}");
    assert!(!stdout.contains("DIVERGED"), "{stdout}");
}
