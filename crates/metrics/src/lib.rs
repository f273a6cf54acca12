//! # ea-metrics — mergeable streaming aggregation and fleet observability
//!
//! The observability layer between `ea-telemetry` (raw event transport)
//! and `ea-fleet` (population-scale simulation). Three pieces:
//!
//! * [`QuantileSketch`] — a fixed-bin DDSketch-style quantile sketch with
//!   data-independent bin boundaries and an associative, commutative
//!   merge. Fleet-wide drain percentiles come off one, byte-identical at
//!   any `--jobs` and within a configured relative error `γ` of the
//!   exact sorted percentiles.
//! * [`FlightRecorder`] — a bounded ring of recent telemetry events per
//!   device, attached to `DeviceFailure` entries so a crashed device
//!   carries its own last moments alongside the checkpoint salvage.
//! * [`FleetObservatory`] — live run-wide health (throughput, worker
//!   utilization, fault counts, drain quantiles) sampled into
//!   [`MetricsSnapshot`]s: rendered by `eandroid fleet --watch`, appended
//!   as JSONL heartbeats, and exposed Prometheus-style by
//!   `eandroid metrics`.
//!
//! The dividing rule, inherited from the fleet's determinism contract:
//! anything that goes *into a report* is simulated-time data and
//! byte-reproducible; anything wall-clock lives here, in snapshots that
//! exist to watch a run, not to compare runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Fallible paths must return errors, not panic: unwrap/expect are
// banned outside tests (DESIGN.md Â§11). Carve-outs need an explicit
// `#[allow]` with a proof of infallibility.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod emit;
mod flight;
mod observatory;
mod sketch;
mod snapshot;

pub use emit::SnapshotEmitter;
pub use flight::{FlightDump, FlightRecorder};
pub use observatory::FleetObservatory;
pub use sketch::QuantileSketch;
pub use snapshot::{MetricsSnapshot, SNAPSHOT_SCHEMA};
