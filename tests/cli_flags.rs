//! The `eandroid` binary refuses a malformed number instead of running
//! with the flag's default, and `lint --baseline` and `replay` keep an
//! unusable input file apart from a regression or a divergence by their
//! exit codes.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

#[test]
fn unparsable_numeric_flags_exit_non_zero_naming_the_flag() {
    let cases: [(&str, &str); 20] = [
        ("fleet", "--size"),
        ("fleet", "--seed"),
        ("fleet", "--jobs"),
        ("fleet", "--inject-panic"),
        ("fleet", "--flight-recorder"),
        ("serve", "--lanes"),
        ("serve", "--window"),
        ("scenario", "--fault-seed"),
        ("depletion", "--cap-hours"),
        ("corpus", "--seed"),
        ("corpus", "--size"),
        ("micro", "--runs"),
        ("workload", "--seed"),
        ("workload", "--sessions"),
        ("query", "--retries"),
        ("query", "--retry-delay-ms"),
        ("chaos", "--seed"),
        ("chaos", "--fleet-size"),
        ("lint", "--seed"),
        ("lint", "--size"),
    ];
    // Never bound: a query that ignores a bad flag fails to connect.
    let socket = std::env::temp_dir().join(format!("ea-cli-flags-{}.sock", std::process::id()));
    let socket = socket.to_string_lossy();
    for (command, flag) in cases {
        // Leading arguments and cheap settings for the command's other
        // flags, so a flag that is wrongly ignored fails fast.
        let (leading, cheap): (&[&str], &[(&str, &str)]) = match command {
            "scenario" => (&["attack6_wakelock"], &[]),
            "depletion" => (&["Bind_service"], &[]),
            "micro" => (&[], &[("--runs", "1")]),
            "workload" => (&[], &[("--sessions", "1")]),
            "query" => (
                &["--socket", &socket],
                &[("--retries", "1"), ("--retry-delay-ms", "1")],
            ),
            "chaos" => (&["--quick"], &[("--fleet-size", "1")]),
            "lint" => (&["corpus"], &[("--size", "1")]),
            _ => (&[], &[("--size", "1")]),
        };
        let output = Command::new(env!("CARGO_BIN_EXE_eandroid"))
            .arg(command)
            .args(leading)
            .args(
                cheap
                    .iter()
                    .filter(|(cheap_flag, _)| *cheap_flag != flag)
                    .flat_map(|&(cheap_flag, value)| [cheap_flag, value]),
            )
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

/// Runs `eandroid replay <path>`, killing it and failing the test if it
/// has not exited within 20 s.
fn replay_with_deadline(path: &std::path::Path) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_eandroid"))
        .arg("replay")
        .arg(path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|error| panic!("run eandroid replay: {error}"));
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match child.try_wait() {
            Ok(Some(_)) => break,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("eandroid replay {path:?} still running after 20 s");
            }
            Err(error) => panic!("wait for eandroid replay: {error}"),
        }
    }
    child
        .wait_with_output()
        .unwrap_or_else(|error| panic!("collect eandroid replay output: {error}"))
}

#[test]
fn replay_exits_2_when_the_report_is_unusable() {
    let dir = std::env::temp_dir().join(format!("ea-cli-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap_or_else(|error| panic!("create {dir:?}: {error}"));
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap_or_else(|error| panic!("write {path:?}: {error}"));
        path
    };
    let truncated = write("truncated.json", "{\"schema_version\": 5, \"fleet_seed\"");
    let missing = dir.join("missing.json");
    // The v5 fixture with one field of its embedded `replay_config` set
    // to a value no run can finish or use.
    let fixture = std::fs::read_to_string(
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/report_v5_oracle_keys.json"),
    )
    .unwrap_or_else(|error| panic!("read the v5 fixture: {error}"));
    let config_at = fixture
        .find("\"replay_config\"")
        .unwrap_or_else(|| panic!("the v5 fixture embeds no replay_config"));
    let mutate = |field: &str, value: &str| {
        let (head, config) = fixture.split_at(config_at);
        let key = format!("\"{field}\": ");
        let start = config
            .find(&key)
            .unwrap_or_else(|| panic!("replay_config has no {field}"))
            + key.len();
        let end = start
            + config[start..]
                .find([',', '\n'])
                .unwrap_or_else(|| panic!("{field} has no terminator"));
        let text = format!("{head}{}{value}{}", &config[..start], &config[end..]);
        write(&format!("{field}-{value}.json"), &text)
    };
    for (path, message) in [
        (truncated, "is not a fleet report"),
        (missing, "cannot read"),
        (mutate("sessions", "1000000000"), "sessions"),
        (mutate("mean_session_secs", "1000000000000"), "sessions"),
        (mutate("step_millis", "0"), "step_millis"),
        (mutate("min_apps", "50"), "min_apps"),
        (mutate("corpus_size", "0"), "corpus_size"),
    ] {
        let output = replay_with_deadline(&path);
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
