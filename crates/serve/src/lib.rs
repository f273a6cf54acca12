#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Fallible paths must return errors, not panic: unwrap/expect are
// banned outside tests (DESIGN.md §11). Carve-outs need an explicit
// `#[allow]` with a proof of infallibility.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # ea-serve
//!
//! A long-running streaming front end to the `ea-fleet` simulator:
//! simulated devices stream join/checkpoint/outcome events through
//! per-core sharded ingest lanes (bounded channels) into an
//! incrementally-maintained fleet view — windowed attack-kind
//! prevalence, per-kind collateral energy, streaming drain quantiles —
//! queryable mid-run over a local Unix socket with a line-delimited
//! JSON protocol.
//!
//! The batch path remains the golden oracle: replaying the same fleet
//! seed through the stream produces a [`ea_fleet::FleetReport`]
//! **byte-identical** to `ea_fleet::run_fleet`'s, at any lane count,
//! including under a fault plan. See the [`service`] module docs for
//! the three rules that make that hold.
//!
//! ```
//! use ea_fleet::FleetConfig;
//! use ea_serve::{run_serve, ServeConfig};
//!
//! let config = ServeConfig { lanes: 2, ..ServeConfig::new(FleetConfig::smoke(4, 7)) };
//! let (report, stats) = run_serve(&config, None).unwrap();
//! assert_eq!(report.devices_completed, 4);
//! assert!(stats.checkpoints_ingested > 0);
//!
//! let (batch, _) = ea_fleet::run_fleet(&FleetConfig::smoke(4, 7));
//! assert_eq!(ea_fleet::render::to_json(&batch), ea_fleet::render::to_json(&report));
//! ```

pub mod client;
pub mod protocol;
pub mod ring;
pub mod service;
pub mod view;

pub use client::{query, query_with_retry};
pub use protocol::{Ack, LaneEvent, Request, PONG_SCHEMA, WINDOW_SCHEMA};
pub use service::{run_serve, stats_line, ServeConfig, ServeStats};
pub use view::{FleetView, WindowStats};
