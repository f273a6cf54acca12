//! One `run_serve` stream with the open-loop query client.
//!
//! The client is one thread on one persistent connection. It sends
//! `snapshot` and `window` alternately on a fixed schedule — query `k`
//! is due at `connected + k / rate` whether or not earlier replies have
//! arrived — and times every query from its due time, so a stall also
//! charges the queries queued behind it. It stops when a snapshot shows
//! every device finished, asks for the `report`, and closes the
//! connection: the service only returns once every connection is closed.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use ea_fleet::{FleetConfig, FleetReport};
use ea_metrics::SNAPSHOT_SCHEMA;
use ea_serve::{run_serve, Request, ServeConfig, ServeStats, WINDOW_SCHEMA};

use crate::common::cpu_ms;

/// Longest a query reply may take before it counts as timed out.
const QUERY_TIMEOUT: Duration = Duration::from_secs(5);
/// Longest a whole stream may run before the client gives up on it.
const STREAM_LIMIT: Duration = Duration::from_secs(120);

/// What one stream measured.
#[derive(Debug, Default)]
pub struct Session {
    /// `run_serve` call to the client's first connection, seconds.
    pub setup_s: f64,
    /// First connection to the `report` reply, seconds.
    pub stream_s: f64,
    /// Process CPU over the same interval, milliseconds.
    pub cpu_ms: f64,
    /// Query latency from due time to reply, ms, per op.
    pub snapshot_ms: Vec<f64>,
    pub window_ms: Vec<f64>,
    /// Send-to-reply round trips, µs, per op.
    pub snapshot_rtt_us: Vec<f64>,
    pub window_rtt_us: Vec<f64>,
    /// How late each query left relative to its due time, ms.
    pub late_ms: Vec<f64>,
    /// `report` send to reply, ms.
    pub report_wait_ms: f64,
    /// Queries sent (the `report` included) and those that errored or
    /// timed out.
    pub queries: u64,
    pub queries_failed: u64,
    /// The `report` reply, verbatim.
    pub report_reply: String,
    /// What `run_serve` returned (`None` if it failed).
    pub served: Option<(FleetReport, ServeStats)>,
    /// Problems the client saw besides failed queries.
    pub problems: Vec<String>,
}

impl Session {
    pub fn all_latencies_ms(&self) -> Vec<f64> {
        self.snapshot_ms
            .iter()
            .chain(&self.window_ms)
            .copied()
            .collect()
    }
}

/// Streams `fleet` through a one-lane `run_serve` on `socket` while the
/// open-loop client queries it at `rate` queries per second.
pub fn serve_session(fleet: FleetConfig, socket: &Path, rate: f64) -> Session {
    let config = ServeConfig {
        lanes: 1,
        socket: Some(socket.to_path_buf()),
        hold: false,
        ..ServeConfig::new(fleet)
    };
    let period = Duration::from_secs_f64(1.0 / rate.max(1.0));
    let mut session = Session::default();
    std::thread::scope(|scope| {
        let started = Instant::now();
        let server = scope.spawn(|| run_serve(&config, None));
        // Poll without sleeping: a sleeping vCPU can take milliseconds to
        // wake, which would read as set-up time of the service.
        let stream = loop {
            match UnixStream::connect(socket) {
                Ok(stream) => break Some(stream),
                Err(_) if server.is_finished() || started.elapsed() > STREAM_LIMIT => break None,
                Err(_) => std::thread::yield_now(),
            }
        };
        let connected = Instant::now();
        let cpu_at_connect = cpu_ms();
        session.setup_s = connected.duration_since(started).as_secs_f64();
        match stream {
            Some(stream) => drive(&mut session, stream, connected, period),
            None => session
                .problems
                .push(String::from("client never connected")),
        }
        session.stream_s = connected.elapsed().as_secs_f64();
        session.cpu_ms = cpu_ms() - cpu_at_connect;
        match server.join() {
            Ok(Ok(served)) => session.served = Some(served),
            Ok(Err(error)) => session.problems.push(format!("run_serve failed: {error}")),
            Err(_) => session.problems.push(String::from("run_serve panicked")),
        }
    });
    session
}

/// The open-loop query schedule, then `report`, then close.
fn drive(session: &mut Session, stream: UnixStream, connected: Instant, period: Duration) {
    let Ok(write_half) = stream.try_clone() else {
        session
            .problems
            .push(String::from("cannot clone the client socket"));
        return;
    };
    let Ok(control) = stream.try_clone() else {
        session
            .problems
            .push(String::from("cannot clone the client socket"));
        return;
    };
    let mut writer = write_half;
    let _ = control.set_read_timeout(Some(QUERY_TIMEOUT));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    // Sends one request; true when a reply line arrived in `line`.
    let mut ask = |request: Request, line: &mut String| -> bool {
        line.clear();
        let sent = writer
            .write_all(format!("{}\n", request.to_line()).as_bytes())
            .is_ok();
        sent && matches!(reader.read_line(line), Ok(n) if n > 0)
    };

    for k in 0u32.. {
        let due = connected + period * k;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        if connected.elapsed() > STREAM_LIMIT {
            session
                .problems
                .push(String::from("stream ran past its limit"));
            break;
        }
        let request = if k % 2 == 0 {
            Request::Snapshot
        } else {
            Request::Window
        };
        let sent = Instant::now();
        session.late_ms.push(ms(sent.duration_since(due)));
        session.queries += 1;
        let answered = ask(request, &mut line);
        let replied = Instant::now();
        let (from_due, rtt) = (ms(replied.duration_since(due)), ms(replied - sent) * 1e3);
        let reply = answered
            .then(|| serde_json::from_str::<serde_json::Value>(line.trim_end()).ok())
            .flatten();
        let schema = reply
            .as_ref()
            .and_then(|r| r["schema"].as_str().map(String::from));
        match (request, schema.as_deref()) {
            (Request::Snapshot, Some(SNAPSHOT_SCHEMA)) => {
                session.snapshot_ms.push(from_due);
                session.snapshot_rtt_us.push(rtt);
                let count = |key: &str| reply.as_ref().and_then(|r| r[key].as_u64()).unwrap_or(0);
                if count("devices_done") + count("devices_failed") >= count("devices_total") {
                    break;
                }
            }
            (Request::Window, Some(WINDOW_SCHEMA)) => {
                session.window_ms.push(from_due);
                session.window_rtt_us.push(rtt);
            }
            _ => {
                session.queries_failed += 1;
                if !answered {
                    // The connection is gone; nothing more can be asked.
                    session.problems.push(String::from("connection lost"));
                    return;
                }
            }
        }
    }

    // The report is only asked once the stream has drained, so its wait
    // is the final fold, not the remaining simulation.
    let _ = control.set_read_timeout(Some(STREAM_LIMIT));
    let sent = Instant::now();
    session.queries += 1;
    // The reply is compared byte for byte with the batch report later;
    // here it only has to be a report rather than an error.
    if ask(Request::Report, &mut line) && !line.starts_with("{\"error\"") {
        session.report_reply = line.trim_end().to_string();
    } else {
        session.queries_failed += 1;
    }
    session.report_wait_ms = ms(sent.elapsed());
    // Dropping both halves closes the connection, which lets the
    // service's connection thread, and so `run_serve`, return.
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}
