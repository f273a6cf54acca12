//! Fuzzing the `lint --baseline` input: `render::parse_json` refuses
//! every truncated schema-v2 report and never panics on a mutated one.

use std::sync::OnceLock;

use e_android::corpus::{generate_corpus, CorpusConfig};
use e_android::lint::{render, Linter};
use proptest::prelude::*;

/// A schema-v2 report of a small corpus, as `lint corpus --json` writes
/// it, without its trailing newline.
fn report() -> &'static str {
    static REPORT: OnceLock<String> = OnceLock::new();
    REPORT.get_or_init(|| {
        let config = CorpusConfig {
            size: 8,
            ..CorpusConfig::paper()
        };
        let report = Linter::new().lint_manifests(&generate_corpus(&config, 2_017));
        render::to_json(&report).trim_end().to_string()
    })
}

#[test]
fn the_unmutated_report_parses() {
    let parsed = render::parse_json(report()).unwrap_or_else(|error| panic!("{error}"));
    assert_eq!(parsed.apps_checked, 8);
}

proptest! {
    #[test]
    fn truncated_reports_are_refused(cut in any::<usize>()) {
        let text = report();
        let end = cut % text.len();
        if text.is_char_boundary(end) {
            prop_assert!(render::parse_json(&text[..end]).is_err());
        }
    }

    #[test]
    fn mutated_reports_never_panic(
        edits in proptest::collection::vec(
            (any::<usize>(), proptest::option::of(any::<u8>())),
            1..8,
        ),
    ) {
        let mut bytes = report().as_bytes().to_vec();
        for (at, byte) in edits {
            let at = at % bytes.len();
            match byte {
                Some(byte) => bytes[at] = byte,
                None => {
                    bytes.remove(at);
                }
            }
            if bytes.is_empty() {
                break;
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(parsed) = render::parse_json(&text) {
            // Only well-formed JSON of the same schema is accepted.
            prop_assert!(serde_json::from_str::<serde_json::Value>(&text).is_ok());
            prop_assert_eq!(parsed.schema_version, 2);
        }
    }
}
