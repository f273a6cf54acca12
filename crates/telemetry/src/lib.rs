//! Structured tracing, metrics, and trace export for the E-Android
//! profiling pipeline.
//!
//! Every layer of the stack — the kernel simulation, the Android
//! framework, and the accounting core — reports what it is doing through a
//! [`TelemetrySink`]. The crate provides:
//!
//! * **Typed events** ([`TelemetryEvent`]): framework events, lifecycle
//!   transitions, attack open/close, per-interval attribution, battery
//!   drain ticks, and kernel statistics, all timestamped in simulated
//!   time so traces are deterministic per seed.
//! * **Metrics** (counters, gauges, fixed-bucket histograms) collected by
//!   the [`Recorder`].
//! * **Span timing** of hot paths, measured in host wall-clock time and
//!   kept separate from the deterministic event stream.
//! * **Exporters**: replayable JSONL ([`export::write_jsonl`]) and the
//!   Chrome trace-event format ([`export::write_chrome_trace`]) that
//!   `chrome://tracing` and Perfetto load directly, plus a human-readable
//!   [`TelemetrySummary`].
//!
//! The default sink ([`NoopSink`]) discards everything, so instrumented
//! code pays one virtual call (or less, behind [`TelemetrySink::enabled`])
//! when telemetry is off.
//!
//! ```
//! use ea_telemetry::{Recorder, TelemetryEvent, TelemetrySink};
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(Recorder::new());
//! recorder.record_event(1_000, TelemetryEvent::BatteryDrain {
//!     joules: 0.5,
//!     remaining_percent: 99.9,
//! });
//! recorder.counter_add("events_processed_total", 1);
//! assert_eq!(recorder.events().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod export;
mod recorder;
mod sink;
mod summary;

pub use event::{TelemetryEvent, TraceRecord};
pub use recorder::{
    HistogramSnapshot, MetricSample, Recorder, RecorderMetrics, SpanRecord, HISTOGRAM_BOUNDS,
};
pub use sink::{span, NoopSink, SinkHandle, SpanGuard, SpanId, TelemetrySink};
pub use summary::TelemetrySummary;
