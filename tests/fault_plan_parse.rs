//! Fuzzing the `--faults` plan-file input: a JSON plan with any rate
//! outside `[0, 1]` is refused by `fleet` and `scenario` with exit code 1
//! and a message naming the field, never run and never a panic.

use std::path::PathBuf;
use std::process::Command;

use e_android::chaos::FaultRates;
use proptest::prelude::*;

/// The field names of every rate, in declaration order.
fn rate_fields() -> Vec<&'static str> {
    FaultRates::ZERO
        .named()
        .iter()
        .map(|&(name, _)| name)
        .collect()
}

/// An out-of-range rate of the given kind: negative, just over one, or
/// huge (up to past `f64::MAX`, which parses to infinity or fails).
fn bad_rate(kind: u8, magnitude: f64) -> String {
    match kind % 3 {
        0 => format!("{}", -magnitude.max(1e-9)),
        1 => format!("{}", 1.0 + magnitude.max(1e-9)),
        _ => format!(
            "{}e{}",
            1.0 + magnitude.fract(),
            3 + (magnitude as u32) % 307
        ),
    }
}

fn plan_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ea-fault-plan-{}-{tag}.json", std::process::id()))
}

/// Runs `eandroid <args> --faults <path>` and asserts a clean refusal.
fn assert_refused(args: &[&str], path: &PathBuf, field: &str) {
    let output = Command::new(env!("CARGO_BIN_EXE_eandroid"))
        .args(args)
        .arg("--faults")
        .arg(path)
        .output()
        .unwrap_or_else(|error| panic!("run eandroid {args:?}: {error}"));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(1),
        "eandroid {args:?} with a bad {field}: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "eandroid {args:?} panicked: {stderr}"
    );
    assert!(
        output.stdout.is_empty(),
        "eandroid {args:?} ran with a bad {field}"
    );
    // A rate past f64::MAX is refused by the JSON reader instead, which
    // names no field.
    assert!(
        stderr.contains(field) || !stderr.contains("outside [0, 1]"),
        "eandroid {args:?}: {stderr} does not name {field}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every field, each kind of bad rate, both commands that take
    /// `--faults`; the magnitude is drawn.
    #[test]
    fn any_out_of_range_rate_is_refused(magnitude in 0.0..1e6f64) {
        for field in rate_fields() {
            for kind in 0..3 {
                let path = plan_path(&format!("{field}-{kind}"));
                std::fs::write(
                    &path,
                    format!(r#"{{"seed":3,"rates":{{"{field}":{}}}}}"#, bad_rate(kind, magnitude)),
                )
                .expect("write plan");
                assert_refused(&["fleet", "--size", "1"], &path, field);
                assert_refused(&["scenario", "scene1_message_video"], &path, field);
                let _ = std::fs::remove_file(&path);
            }
        }
    }
}
