//! End-to-end contract tests for the streaming ingest service: the
//! stream-replayed report is byte-identical to the batch oracle at any
//! lane/job count (including under fault plans), the socket query
//! surface answers mid-run with valid schema-tagged JSON, and no client
//! (idle, never reading, newline-less or one too many) can wedge the run
//! or grow the server's memory.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use e_android::chaos::FaultPlan;
use e_android::fleet::{render, run_fleet, FleetConfig, FleetReport};
use e_android::serve::{query, query_with_retry, run_serve, Request, ServeConfig, PONG_SCHEMA};

/// The tentpole guarantee: streaming the same fleet seed through the
/// ingest lanes reproduces the batch report byte for byte, whatever the
/// lane count, and however many jobs the batch engine used.
#[test]
fn stream_replay_is_byte_identical_to_batch_at_any_lane_count() {
    let mut fleet = FleetConfig::smoke(10, 77_001);
    fleet.jobs = 1;
    let (sequential, _) = run_fleet(&fleet);
    fleet.jobs = 4;
    let (parallel, _) = run_fleet(&fleet);
    let oracle = render::to_json(&sequential);
    assert_eq!(oracle, render::to_json(&parallel));

    for lanes in [1, 2, 5] {
        let config = ServeConfig {
            lanes,
            window_events: 16,
            ..ServeConfig::new(fleet.clone())
        };
        let (streamed, stats) = run_serve(&config, None).unwrap_or_else(|error| {
            panic!("serve without a socket cannot fail: {error}");
        });
        assert_eq!(
            oracle,
            render::to_json(&streamed),
            "lanes={lanes} changed the report bytes"
        );
        assert_eq!(stats.lanes, lanes);
    }
}

/// A zero-rate fault plan arms every injector and fires none of them:
/// the streamed report must still match the *unfaulted* batch oracle.
#[test]
fn zero_rate_fault_plan_stream_matches_unfaulted_batch() {
    let fleet = FleetConfig::smoke(6, 31_337);
    let (batch, _) = run_fleet(&fleet);
    let config = ServeConfig {
        lanes: 3,
        ..ServeConfig::new(FleetConfig {
            faults: Some(FaultPlan::zero(99)),
            ..fleet
        })
    };
    let (streamed, _) = run_serve(&config, None)
        .unwrap_or_else(|error| panic!("serve without a socket cannot fail: {error}"));
    assert_eq!(render::to_json(&batch), render::to_json(&streamed));
}

/// An active fault plan (panics, glitches, slow devices) flows through
/// the stream's supervision exactly as through the batch engine's.
#[test]
fn faulted_stream_matches_faulted_batch() {
    let fleet = FleetConfig {
        faults: Some(FaultPlan::uniform(9, 0.3)),
        ..FleetConfig::smoke(6, 44)
    };
    let (batch, _) = run_fleet(&fleet);
    for lanes in [1, 4] {
        let config = ServeConfig {
            lanes,
            ..ServeConfig::new(fleet.clone())
        };
        let (streamed, _) = run_serve(&config, None)
            .unwrap_or_else(|error| panic!("serve without a socket cannot fail: {error}"));
        assert_eq!(
            render::to_json(&batch),
            render::to_json(&streamed),
            "lanes={lanes} changed the faulted report"
        );
    }
}

/// Mid-run socket queries: a `snapshot` answers with valid
/// `ea-metrics/snapshot/v1` JSON while devices are still streaming, and
/// a `report` query blocks until the drained deterministic report.
#[test]
fn snapshot_query_mid_run_returns_valid_schema_json() {
    let socket = std::env::temp_dir().join(format!("ea-serve-test-{}.sock", std::process::id()));
    let fleet = FleetConfig::smoke(12, 5_150);
    let (batch, _) = run_fleet(&fleet);
    let config = ServeConfig {
        lanes: 2,
        socket: Some(socket.clone()),
        // Hold the query server open after drain: the 12-device stream
        // finishes in milliseconds, and without the hold the socket
        // could vanish between our queries.
        hold: true,
        ..ServeConfig::new(fleet)
    };

    let (streamed, stats) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| run_serve(&config, None));
        // Mid-run: the service is binding/streaming right now; retry
        // until the socket answers.
        let snapshot = query_with_retry(&socket, Request::Snapshot, 200, Duration::from_millis(5))
            .unwrap_or_else(|error| panic!("snapshot query failed: {error}"));
        let parsed: e_android::metrics::MetricsSnapshot = serde_json::from_str(&snapshot)
            .unwrap_or_else(|error| panic!("snapshot is not schema JSON: {error}\n{snapshot}"));
        assert_eq!(parsed.schema, "ea-metrics/snapshot/v1");
        assert_eq!(parsed.devices_total, 12);

        let window = query_with_retry(&socket, Request::Window, 5, Duration::from_millis(5))
            .unwrap_or_else(|error| panic!("window query failed: {error}"));
        assert!(
            window.contains("\"schema\":\"ea-serve/window/v1\""),
            "window reply missing schema: {window}"
        );

        // Blocks until drained, then returns the full report as one line.
        let report_line = query_with_retry(&socket, Request::Report, 5, Duration::from_millis(5))
            .unwrap_or_else(|error| panic!("report query failed: {error}"));
        let queried: e_android::fleet::FleetReport = serde_json::from_str(&report_line)
            .unwrap_or_else(|error| panic!("report is not schema JSON: {error}"));
        assert_eq!(render::to_json(&batch), render::to_json(&queried));

        let ack = query_with_retry(&socket, Request::Shutdown, 5, Duration::from_millis(5))
            .unwrap_or_else(|error| panic!("shutdown query failed: {error}"));
        assert!(ack.contains("\"ok\":true"));

        handle
            .join()
            .unwrap_or_else(|_| panic!("serve thread panicked"))
            .unwrap_or_else(|error| panic!("serve failed: {error}"))
    });
    assert_eq!(render::to_json(&batch), render::to_json(&streamed));
    assert!(stats.queries_served >= 4);
    assert!(!socket.exists(), "socket file cleaned up");
}

/// `--hold` keeps the query server answering after the stream drains;
/// a `shutdown` request ends the run.
#[test]
fn held_service_answers_after_drain_until_shutdown() {
    let socket =
        std::env::temp_dir().join(format!("ea-serve-hold-test-{}.sock", std::process::id()));
    let config = ServeConfig {
        lanes: 1,
        hold: true,
        socket: Some(socket.clone()),
        ..ServeConfig::new(FleetConfig::smoke(2, 9))
    };
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| run_serve(&config, None));
        let report_line = query_with_retry(&socket, Request::Report, 200, Duration::from_millis(5))
            .unwrap_or_else(|error| panic!("report query failed: {error}"));
        assert!(report_line.contains("\"devices_completed\":2"));
        // The stream has drained (report answered), yet the service is
        // still up: window totals survive the fold.
        let window = query_with_retry(&socket, Request::Window, 5, Duration::from_millis(5))
            .unwrap_or_else(|error| panic!("window query failed: {error}"));
        assert!(window.contains("\"total_events\":"));
        let ack = query_with_retry(&socket, Request::Shutdown, 5, Duration::from_millis(5))
            .unwrap_or_else(|error| panic!("shutdown query failed: {error}"));
        assert!(ack.contains("\"ok\":true"));
        let (report, _) = handle
            .join()
            .unwrap_or_else(|_| panic!("serve thread panicked"))
            .unwrap_or_else(|error| panic!("serve failed: {error}"));
        assert_eq!(report.devices_completed, 2);
    });
}

/// A socket path private to one test of this process.
fn test_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ea-serve-{tag}-{}.sock", std::process::id()))
}

/// Runs the service on a detached thread. A run that hangs fails its
/// test through [`finished`]'s timeout instead of hanging the suite.
fn spawn_serve(config: ServeConfig) -> mpsc::Receiver<FleetReport> {
    let (sender, receiver) = mpsc::channel();
    std::thread::spawn(move || {
        let (report, _) =
            run_serve(&config, None).unwrap_or_else(|error| panic!("serve failed: {error}"));
        let _ = sender.send(report);
    });
    receiver
}

/// The run's report, failing the test if it takes more than 5 s.
fn finished(run: &mpsc::Receiver<FleetReport>) -> FleetReport {
    run.recv_timeout(Duration::from_secs(5))
        .unwrap_or_else(|error| panic!("run_serve did not return within 5 s: {error}"))
}

/// Sends one request line and reads one reply line.
fn ask(connection: &mut BufReader<UnixStream>, request: &str) -> String {
    connection
        .get_mut()
        .write_all(format!("{request}\n").as_bytes())
        .unwrap_or_else(|error| panic!("send {request}: {error}"));
    let mut reply = String::new();
    connection
        .read_line(&mut reply)
        .unwrap_or_else(|error| panic!("reply to {request}: {error}"));
    reply
}

/// Connects to `socket`, retrying while the service binds it. Reads
/// time out after 5 s, so a server that never answers fails the test.
fn connect(socket: &Path) -> BufReader<UnixStream> {
    let deadline = Instant::now() + Duration::from_secs(5);
    let stream = loop {
        match UnixStream::connect(socket) {
            Ok(stream) => break stream,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
            Err(error) => panic!("cannot connect to {}: {error}", socket.display()),
        }
    };
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap_or_else(|error| panic!("set the client read timeout: {error}"));
    BufReader::new(stream)
}

/// [`connect`], proving the connection is being served by getting a
/// `ping` answered.
fn connect_served(socket: &Path) -> BufReader<UnixStream> {
    let mut connection = connect(socket);
    let pong = ask(&mut connection, "ping");
    assert!(pong.contains(PONG_SCHEMA), "ping reply: {pong}");
    connection
}

/// Asserts the server closed `connection`: end of input, or a reset
/// when the server closed it with unread bytes.
fn assert_closed(connection: &mut BufReader<UnixStream>) {
    let mut rest = Vec::new();
    if let Err(error) = connection.read_to_end(&mut rest) {
        assert_eq!(
            error.kind(),
            ErrorKind::ConnectionReset,
            "connection still open: {error}"
        );
    }
}

/// Without `hold`, the run ends once the stream drains even while an
/// idle client keeps a connection open: the server closes the silent
/// connection instead of waiting on it forever.
#[test]
fn idle_client_cannot_keep_a_drained_run_alive() {
    let socket = test_socket("idle");
    let run = spawn_serve(ServeConfig {
        lanes: 1,
        socket: Some(socket.clone()),
        ..ServeConfig::new(FleetConfig::smoke(16, 2_718))
    });
    let mut idle = connect_served(&socket);
    assert_eq!(finished(&run).devices_completed, 16);
    assert_closed(&mut idle);
}

/// A client that sends `snapshot` and `report` requests but never reads
/// the replies cannot keep the run alive: once the replies fill the
/// socket buffer, the server's write times out and it closes the
/// connection.
#[test]
fn client_that_never_reads_cannot_keep_the_run_alive() {
    let socket = test_socket("deaf");
    let run = spawn_serve(ServeConfig {
        lanes: 1,
        socket: Some(socket.clone()),
        ..ServeConfig::new(FleetConfig::smoke(16, 2_718))
    });
    let deaf = connect_served(&socket);
    let mut writer = deaf
        .get_ref()
        .try_clone()
        .unwrap_or_else(|error| panic!("clone the client socket: {error}"));
    writer
        .set_write_timeout(Some(Duration::from_secs(5)))
        .unwrap_or_else(|error| panic!("set the client write timeout: {error}"));
    // Megabytes of replies, far more than a socket buffer holds.
    writer
        .write_all("snapshot\nreport\n".repeat(2_000).as_bytes())
        .unwrap_or_else(|error| panic!("send the requests: {error}"));
    assert_eq!(finished(&run).devices_completed, 16);
    drop(deaf);
}

/// With `hold`, a `shutdown` from a second connection ends the run while
/// an idle first connection is still open.
#[test]
fn shutdown_ends_a_held_run_despite_an_idle_connection() {
    let socket = test_socket("hold-idle");
    let run = spawn_serve(ServeConfig {
        lanes: 1,
        hold: true,
        socket: Some(socket.clone()),
        ..ServeConfig::new(FleetConfig::smoke(2, 9))
    });
    let mut idle = connect_served(&socket);
    let ack = query(&socket, Request::Shutdown)
        .unwrap_or_else(|error| panic!("shutdown query failed: {error}"));
    assert!(ack.contains("\"ok\":true"), "{ack}");
    assert_eq!(finished(&run).devices_completed, 2);
    assert_closed(&mut idle);
}

/// A client streaming 1 MiB with no newline gets an error line and is
/// closed after the line cap: the server never reads, let alone
/// buffers, the whole megabyte, so the client's write fails.
#[test]
fn newline_less_flood_is_refused_and_closed() {
    const FLOOD: usize = 1 << 20;
    let socket = test_socket("flood");
    let run = spawn_serve(ServeConfig {
        lanes: 1,
        hold: true,
        socket: Some(socket.clone()),
        ..ServeConfig::new(FleetConfig::smoke(2, 9))
    });
    let mut connection = connect_served(&socket);
    let mut writer = connection
        .get_ref()
        .try_clone()
        .unwrap_or_else(|error| panic!("clone the client socket: {error}"));
    let flood = std::thread::spawn(move || writer.write_all(&vec![b'x'; FLOOD]));
    let mut reply = String::new();
    connection
        .read_line(&mut reply)
        .unwrap_or_else(|error| panic!("read the error line: {error}"));
    assert!(
        reply.starts_with("{\"error\":\"bad request: line longer than"),
        "{reply}"
    );
    assert_closed(&mut connection);
    let written = flood
        .join()
        .unwrap_or_else(|_| panic!("flood thread panicked"));
    assert!(written.is_err(), "the server consumed the whole 1 MiB line");
    query(&socket, Request::Shutdown)
        .unwrap_or_else(|error| panic!("shutdown query failed: {error}"));
    finished(&run);
}

/// The query server holds at most 64 live connections; the 65th gets an
/// error line and is closed, and the 64 keep being served.
#[test]
fn connection_past_the_cap_is_refused_with_an_error_line() {
    let socket = test_socket("cap");
    let run = spawn_serve(ServeConfig {
        lanes: 1,
        hold: true,
        socket: Some(socket.clone()),
        ..ServeConfig::new(FleetConfig::smoke(2, 9))
    });
    let mut open: Vec<_> = (0..64).map(|_| connect_served(&socket)).collect();
    let mut refused = connect(&socket);
    let mut reply = String::new();
    refused
        .read_line(&mut reply)
        .unwrap_or_else(|error| panic!("read the refusal: {error}"));
    assert!(reply.contains("too many connections"), "{reply}");
    assert_closed(&mut refused);
    let ack = ask(&mut open[0], "shutdown");
    assert!(ack.contains("\"ok\":true"), "{ack}");
    finished(&run);
}
