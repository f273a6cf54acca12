//! The `eandroid` binary refuses a malformed number instead of running
//! with the flag's default, and `lint --baseline` and `replay` keep an
//! unusable input file apart from a regression or a divergence by their
//! exit codes.

use std::process::{Command, Output};

#[test]
fn unparsable_numeric_flags_exit_non_zero_naming_the_flag() {
    let cases: [(&str, &str); 7] = [
        ("fleet", "--size"),
        ("fleet", "--seed"),
        ("fleet", "--jobs"),
        ("fleet", "--inject-panic"),
        ("fleet", "--flight-recorder"),
        ("serve", "--lanes"),
        ("serve", "--window"),
    ];
    for (command, flag) in cases {
        // A one-device fleet, so a flag that is wrongly ignored fails fast.
        let size: &[&str] = if flag == "--size" {
            &[]
        } else {
            &["--size", "1"]
        };
        let output = Command::new(env!("CARGO_BIN_EXE_eandroid"))
            .arg(command)
            .args(size)
            .args([flag, "abc"])
            .output()
            .unwrap_or_else(|error| panic!("run eandroid {command}: {error}"));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            !output.status.success(),
            "eandroid {command} {flag} abc exited 0"
        );
        assert!(
            stderr.contains(flag) && stderr.contains("abc"),
            "eandroid {command} {flag} abc: stderr does not name the flag: {stderr}"
        );
        assert!(
            output.stdout.is_empty(),
            "eandroid {command} {flag} abc ran anyway"
        );
    }
}

#[test]
fn replay_refuses_an_unparsable_healthy_count() {
    let fixture = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/report_v5_oracle_keys.json");
    let output = Command::new(env!("CARGO_BIN_EXE_eandroid"))
        .arg("replay")
        .arg(fixture)
        .args(["--healthy", "abc"])
        .output()
        .unwrap_or_else(|error| panic!("run eandroid replay: {error}"));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "replay --healthy abc exited 0");
    assert!(
        stderr.contains("--healthy") && stderr.contains("abc"),
        "replay --healthy abc: stderr does not name the flag: {stderr}"
    );
    assert!(
        output.stdout.is_empty(),
        "replay --healthy abc replayed anyway"
    );
}

#[test]
fn replay_exits_2_when_the_report_is_unusable() {
    let dir = std::env::temp_dir().join(format!("ea-cli-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap_or_else(|error| panic!("create {dir:?}: {error}"));
    let truncated = dir.join("truncated.json");
    std::fs::write(&truncated, "{\"schema_version\": 5, \"fleet_seed\"")
        .unwrap_or_else(|error| panic!("write {truncated:?}: {error}"));
    let missing = dir.join("missing.json");
    for (path, message) in [
        (&truncated, "is not a fleet report"),
        (&missing, "cannot read"),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_eandroid"))
            .arg("replay")
            .arg(path)
            .output()
            .unwrap_or_else(|error| panic!("run eandroid replay: {error}"));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{path:?}: {stderr}");
        assert!(stderr.contains(message), "{path:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{path:?}: replayed anyway");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `eandroid lint <args>`.
fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_eandroid"))
        .arg("lint")
        .args(args)
        .output()
        .unwrap_or_else(|error| panic!("run eandroid lint {args:?}: {error}"))
}

#[test]
fn lint_baseline_exits_2_when_unusable_and_1_on_regressions() {
    let dir = std::env::temp_dir().join(format!("ea-cli-baseline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap_or_else(|error| panic!("create {dir:?}: {error}"));
    let write = |name: &str, bytes: &[u8]| {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap_or_else(|error| panic!("write {path:?}: {error}"));
        path.to_string_lossy().into_owned()
    };
    let demo = lint(&["demo", "--json"]);
    assert!(demo.status.success());
    let demo_json = String::from_utf8_lossy(&demo.stdout).into_owned();

    let clean = write("demo.json", demo_json.as_bytes());
    assert_eq!(lint(&["demo", "--baseline", &clean]).status.code(), Some(0));

    let other = lint(&["corpus", "--size", "4", "--json"]);
    let regressed = write("corpus.json", &other.stdout);
    let output = lint(&["demo", "--baseline", &regressed]);
    assert_eq!(output.status.code(), Some(1), "introduced findings");

    let truncated = write("truncated.json", &demo.stdout[..demo.stdout.len() / 2]);
    let schema_v3 = write(
        "v3.json",
        demo_json
            .replacen("\"schema_version\": 2", "\"schema_version\": 3", 1)
            .as_bytes(),
    );
    let missing = dir.join("missing.json").to_string_lossy().into_owned();
    for (path, message) in [
        (&truncated, "invalid baseline"),
        (&schema_v3, "invalid baseline"),
        (&missing, "cannot read baseline"),
    ] {
        let output = lint(&["demo", "--baseline", path]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{path}: {stderr}");
        assert!(stderr.contains(message), "{path}: {stderr}");
        assert!(output.stdout.is_empty(), "{path}: a diff was printed");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
