//! Wire types of the streaming service: the in-process lane events the
//! device drivers emit, and the line-delimited JSON request/response
//! protocol the Unix-socket query server speaks.

use ea_fleet::{DeviceCheckpoint, DeviceFailure, DeviceReport};
use serde::{Deserialize, Serialize};

/// Schema tag on every [`crate::WindowStats`] a `window` query returns.
pub const WINDOW_SCHEMA: &str = "ea-serve/window/v1";

/// Schema tag on a `ping` reply.
pub const PONG_SCHEMA: &str = "ea-serve/pong/v1";

/// One event on an ingest lane, emitted by a device-driver thread and
/// consumed by its shard worker. Boxed payloads keep the enum (and so
/// every lane slot) small: most events are a tag plus an index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LaneEvent {
    /// A device came online and started its simulated day.
    Join {
        /// Device index within the fleet.
        index: usize,
    },
    /// A device finished one user session; cumulative progress attached.
    Checkpoint {
        /// Device index within the fleet.
        index: usize,
        /// Progress after the session (cumulative, not a delta).
        snapshot: DeviceCheckpoint,
    },
    /// A device completed its day; the full per-device report.
    Completed(Box<DeviceReport>),
    /// A device was abandoned past its retry budget mid-day.
    Crashed(Box<DeviceFailure>),
    /// A device went offline gracefully (always follows its
    /// [`LaneEvent::Completed`] or [`LaneEvent::Crashed`]).
    Leave {
        /// Device index within the fleet.
        index: usize,
    },
}

impl LaneEvent {
    /// The device index this event concerns.
    #[must_use]
    pub fn index(&self) -> usize {
        match self {
            LaneEvent::Join { index } | LaneEvent::Checkpoint { index, .. } => *index,
            LaneEvent::Completed(report) => report.index,
            LaneEvent::Crashed(failure) => failure.index,
            LaneEvent::Leave { index } => *index,
        }
    }
}

/// One query to the service, a single JSON line on the Unix socket of
/// the form `{"op": "<name>"}`. The wire format is hand-rolled (rather
/// than a serde-tagged enum) so the protocol is nailed down by this
/// file, not by derive-macro behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// The live [`ea_metrics::MetricsSnapshot`] — the same sample the
    /// `--watch` line and heartbeat JSONL render.
    Snapshot,
    /// The current (still-open) ingest window.
    Window,
    /// The final deterministic report; blocks until the stream drains.
    Report,
    /// Stop serving. With `--hold` this is what ends the process.
    Shutdown,
}

impl Request {
    /// Every request, with its wire name.
    const OPS: [(&'static str, Request); 5] = [
        ("ping", Request::Ping),
        ("snapshot", Request::Snapshot),
        ("window", Request::Window),
        ("report", Request::Report),
        ("shutdown", Request::Shutdown),
    ];

    /// The request's wire name.
    #[must_use]
    pub fn op(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Snapshot => "snapshot",
            Request::Window => "window",
            Request::Report => "report",
            Request::Shutdown => "shutdown",
        }
    }

    /// Parses one request line: a JSON object with an `op` field (or,
    /// leniently, the bare op name — handy for `echo snapshot | nc`).
    pub fn parse(line: &str) -> Result<Request, String> {
        let line = line.trim();
        let by_op = |op: &str| {
            Request::OPS
                .iter()
                .find(|(name, _)| *name == op)
                .map(|(_, request)| *request)
                .ok_or_else(|| format!("bad request: unknown op {op:?}"))
        };
        if !line.starts_with('{') {
            return by_op(line.trim_matches('"'));
        }
        let value: serde_json::Value =
            serde_json::from_str(line).map_err(|err| format!("bad request: {err}"))?;
        match &value["op"] {
            serde_json::Value::String(op) => by_op(op),
            _ => Err(String::from("bad request: missing string field \"op\"")),
        }
    }

    /// Serializes the request as one JSON line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        format!("{{\"op\":\"{}\"}}", self.op())
    }
}

/// Reply to a [`Request::Ping`] / [`Request::Shutdown`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ack {
    /// Schema tag ([`PONG_SCHEMA`]).
    pub schema: String,
    /// Always true; errors come back as an `{"error": ...}` object.
    pub ok: bool,
}

impl Ack {
    /// A fresh acknowledgement.
    #[must_use]
    pub fn new() -> Self {
        Ack {
            schema: PONG_SCHEMA.to_string(),
            ok: true,
        }
    }
}

impl Default for Ack {
    fn default() -> Self {
        Ack::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_as_op_tagged_lines() {
        for request in [
            Request::Ping,
            Request::Snapshot,
            Request::Window,
            Request::Report,
            Request::Shutdown,
        ] {
            let line = request.to_line();
            assert!(!line.contains('\n'));
            assert_eq!(Request::parse(&line), Ok(request));
        }
        assert_eq!(
            Request::parse("{\"op\":\"snapshot\"}"),
            Ok(Request::Snapshot)
        );
        assert!(Request::parse("{\"op\":\"nope\"}").is_err());
    }

    #[test]
    fn lane_events_know_their_device() {
        assert_eq!(LaneEvent::Join { index: 3 }.index(), 3);
        assert_eq!(LaneEvent::Leave { index: 9 }.index(), 9);
    }
}
