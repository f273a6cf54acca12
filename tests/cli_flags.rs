//! The `eandroid` binary refuses a malformed number instead of running
//! with the flag's default.

use std::process::Command;

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
