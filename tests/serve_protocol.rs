//! Property tests for the query server's request parser: whatever a
//! client sends, `Request::parse` never panics, and it accepts a line
//! only when the line names one of the five ops.

use e_android::serve::Request;
use proptest::collection;
use proptest::prelude::*;

const REQUESTS: [Request; 5] = [
    Request::Ping,
    Request::Snapshot,
    Request::Window,
    Request::Report,
    Request::Shutdown,
];

/// Op names: the five valid ones first, then near misses.
const NAMES: [&str; 10] = [
    "ping", "snapshot", "window", "report", "shutdown", "PING", "pin", "", "report ", "stop",
];

/// The characters JSON and the op names are made of, plus a few that
/// are neither.
const ALPHABET: [char; 26] = [
    '{', '}', '"', ':', ',', '[', ']', ' ', '\\', 'o', 'p', 'i', 'n', 'g', 's', 'h', 'u', 't', 'd',
    'w', 'r', 'e', '0', '-', 'é', '\u{0}',
];

/// Strings over [`ALPHABET`].
fn jsonish_text() -> impl Strategy<Value = String> {
    collection::vec(0..ALPHABET.len(), 0..48)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

/// Arbitrary bytes, decoded lossily as the server decodes a line.
fn any_text() -> impl Strategy<Value = String> {
    collection::vec(any::<u8>(), 0..64)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// A JSON object with one field and maybe a second, paired with the
/// request it must parse to (`None`: it must be refused).
fn json_request() -> impl Strategy<Value = (String, Option<Request>)> {
    let key = prop_oneof![Just("op"), Just("Op"), Just("ops"), Just("")];
    let value = prop_oneof![
        (0..NAMES.len()).prop_map(|i| (format!("{:?}", NAMES[i]), REQUESTS.get(i).copied())),
        any::<i64>().prop_map(|n| (n.to_string(), None)),
        Just((String::from("null"), None)),
        Just((String::from("[\"ping\"]"), None)),
        Just((String::from("{\"op\":\"ping\"}"), None)),
    ];
    (key, value, any::<bool>(), 0usize..3).prop_map(|(key, (value, request), extra, pad)| {
        let pad = " ".repeat(pad);
        let extra = if extra { ",\"x\":1" } else { "" };
        let line = format!("{pad}{{{pad}\"{key}\"{pad}:{pad}{value}{extra}}}{pad}");
        (line, request.filter(|_| key == "op"))
    })
}

proptest! {
    #[test]
    fn arbitrary_lines_never_panic_and_parse_only_to_a_named_op(
        jsonish in jsonish_text(),
        bytes in any_text(),
    ) {
        for line in [&jsonish, &bytes] {
            if let Ok(request) = Request::parse(line) {
                prop_assert!(
                    line.contains(request.op()),
                    "{line:?} parsed to {request:?}"
                );
            }
        }
    }

    #[test]
    fn json_objects_parse_exactly_when_op_names_a_request(case in json_request()) {
        let (line, expected) = case;
        prop_assert_eq!(Request::parse(&line).ok(), expected, "line {:?}", line);
    }

    #[test]
    fn to_line_round_trips_and_its_prefixes_are_refused(
        pick in 0..REQUESTS.len(),
        cut in 0usize..64,
        pad in 0usize..3,
    ) {
        let request = REQUESTS[pick];
        let line = request.to_line();
        let padded = format!("{}{line}{}", " ".repeat(pad), "\t".repeat(pad));
        prop_assert_eq!(Request::parse(&padded), Ok(request));
        let prefix = &line[..cut.min(line.len() - 1)];
        prop_assert!(Request::parse(prefix).is_err(), "prefix {prefix:?} parsed");
    }
}
