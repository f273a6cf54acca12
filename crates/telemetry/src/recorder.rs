//! The in-memory sink: collects events, metrics, and spans for export.

use crate::{SpanId, TelemetryEvent, TelemetrySink, TraceRecord};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Upper bounds (inclusive) of the fixed histogram buckets, chosen for
/// microsecond-scale latencies; the final implicit bucket is `+inf`.
pub const HISTOGRAM_BOUNDS: [f64; 16] = [
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0,
    25_000.0, 50_000.0, 100_000.0,
];

#[derive(Debug, Clone)]
struct Histogram {
    /// One count per bound in [`HISTOGRAM_BOUNDS`], plus the overflow
    /// bucket at the end.
    counts: [u64; HISTOGRAM_BOUNDS.len() + 1],
    sum: f64,
    total: u64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            counts: [0; HISTOGRAM_BOUNDS.len() + 1],
            sum: 0.0,
            total: 0,
        }
    }

    fn observe(&mut self, value: f64) {
        let bucket = HISTOGRAM_BOUNDS
            .iter()
            .position(|bound| value <= *bound)
            .unwrap_or(HISTOGRAM_BOUNDS.len());
        self.counts[bucket] += 1;
        self.sum += value;
        self.total += 1;
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts; index `i` counts observations `<=
    /// HISTOGRAM_BOUNDS[i]`, the final entry counts the overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

/// Point-in-time copy of every metric the recorder holds.
#[derive(Debug, Clone, Default)]
pub struct RecorderMetrics {
    /// Monotone counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-written gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// One timestamped counter or gauge write, kept so exporters can render
/// metric *time series* (Chrome-trace `"C"` counter tracks) rather than
/// only final totals.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Metric name as passed to `counter_add` / `gauge_set`.
    pub name: String,
    /// Offset from recorder creation, host wall clock, microseconds.
    pub at_us: u64,
    /// Counter value *after* the add, or the gauge value written.
    pub value: f64,
}

/// One completed wall-clock span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name, e.g. `Profiler::step`.
    pub name: String,
    /// Start offset from recorder creation, host wall clock, microseconds.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Nesting depth at entry (0 = outermost).
    pub depth: usize,
}

#[derive(Debug)]
struct OpenSpan {
    id: SpanId,
    name: String,
    start: Instant,
    depth: usize,
}

#[derive(Default)]
struct MetricsState {
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Collects everything the pipeline emits; the sink used by tests, bench
/// binaries, and the trace-export example.
///
/// Events, gauges, and histograms are guarded by short-lived mutexes;
/// counters take the mutex once per name and are lock-free atomics after
/// that. Span timestamps come from the host wall clock and are kept out
/// of the deterministic event stream.
pub struct Recorder {
    epoch: Instant,
    events: Mutex<Vec<TraceRecord>>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    metrics: Mutex<MetricsState>,
    samples: Mutex<Vec<MetricSample>>,
    open_spans: Mutex<Vec<OpenSpan>>,
    finished_spans: Mutex<Vec<SpanRecord>>,
    next_span: AtomicU64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder; the wall-clock epoch for spans starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            metrics: Mutex::new(MetricsState::default()),
            samples: Mutex::new(Vec::new()),
            open_spans: Mutex::new(Vec::new()),
            finished_spans: Mutex::new(Vec::new()),
            next_span: AtomicU64::new(1),
        }
    }

    /// Handle to the named counter; increments through it skip the map
    /// lookup entirely.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        let mut counters = self.counters.lock().expect("counter registry poisoned");
        counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone()
    }

    /// All events recorded so far, in emission order.
    pub fn events(&self) -> Vec<TraceRecord> {
        self.events.lock().expect("event buffer poisoned").clone()
    }

    /// All counter/gauge samples so far, in write order.
    pub fn samples(&self) -> Vec<MetricSample> {
        self.samples.lock().expect("sample buffer poisoned").clone()
    }

    /// Timestamps and stores one metric sample.
    fn sample(&self, name: &str, value: f64) {
        let at_us = self.epoch.elapsed().as_micros() as u64;
        self.samples
            .lock()
            .expect("sample buffer poisoned")
            .push(MetricSample {
                name: name.to_string(),
                at_us,
                value,
            });
    }

    /// All completed spans so far, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.finished_spans
            .lock()
            .expect("span buffer poisoned")
            .clone()
    }

    /// Snapshot of every counter, gauge, and histogram.
    pub fn metrics(&self) -> RecorderMetrics {
        let counters = self
            .counters
            .lock()
            .expect("counter registry poisoned")
            .iter()
            .map(|(name, value)| (name.clone(), value.load(Ordering::Relaxed)))
            .collect();
        let metrics = self.metrics.lock().expect("metrics poisoned");
        RecorderMetrics {
            counters,
            gauges: metrics.gauges.clone(),
            histograms: metrics
                .histograms
                .iter()
                .map(|(name, histogram)| {
                    (
                        name.clone(),
                        HistogramSnapshot {
                            counts: histogram.counts.to_vec(),
                            sum: histogram.sum,
                            count: histogram.total,
                        },
                    )
                })
                .collect(),
        }
    }
}

impl TelemetrySink for Recorder {
    fn record_event(&self, t_us: u64, event: TelemetryEvent) {
        // Bookkeeping counters increment directly (not via `counter_add`)
        // so the per-event totals do not flood the sampled time series.
        self.counter("events_processed_total")
            .fetch_add(1, Ordering::Relaxed);
        self.counter(&format!("events_{}_total", event.label()))
            .fetch_add(1, Ordering::Relaxed);
        self.events
            .lock()
            .expect("event buffer poisoned")
            .push(TraceRecord { t_us, event });
    }

    fn record_events(&self, t_us: u64, events: &[TelemetryEvent]) {
        if events.is_empty() {
            return;
        }
        self.counter("events_processed_total")
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        // One formatted name + counter bump per *distinct* label in the
        // batch, instead of a heap-allocating `format!` per event. A step
        // emits at most a handful of labels, so a linear scan beats a map.
        let mut labels: Vec<(&'static str, u64)> = Vec::new();
        for event in events {
            let label = event.label();
            match labels.iter_mut().find(|(seen, _)| *seen == label) {
                Some((_, count)) => *count += 1,
                None => labels.push((label, 1)),
            }
        }
        for (label, count) in labels {
            self.counter(&format!("events_{label}_total"))
                .fetch_add(count, Ordering::Relaxed);
        }
        let mut buffer = self.events.lock().expect("event buffer poisoned");
        buffer.reserve(events.len());
        buffer.extend(events.iter().map(|event| TraceRecord {
            t_us,
            event: event.clone(),
        }));
    }

    fn counter_add(&self, name: &str, delta: u64) {
        let after = self.counter(name).fetch_add(delta, Ordering::Relaxed) + delta;
        self.sample(name, after as f64);
    }

    fn gauge_set(&self, name: &str, value: f64) {
        {
            let mut metrics = self.metrics.lock().expect("metrics poisoned");
            metrics.gauges.insert(name.to_string(), value);
        }
        self.sample(name, value);
    }

    fn observe(&self, name: &str, value: f64) {
        let mut metrics = self.metrics.lock().expect("metrics poisoned");
        metrics
            .histograms
            .entry(name.to_string())
            .or_insert_with(Histogram::new)
            .observe(value);
    }

    fn span_enter(&self, name: &str) -> SpanId {
        let id = SpanId(self.next_span.fetch_add(1, Ordering::Relaxed));
        let mut open = self.open_spans.lock().expect("span stack poisoned");
        let depth = open.len();
        open.push(OpenSpan {
            id,
            name: name.to_string(),
            start: Instant::now(),
            depth,
        });
        id
    }

    fn span_exit(&self, id: SpanId) {
        let mut open = self.open_spans.lock().expect("span stack poisoned");
        let Some(index) = open.iter().rposition(|span| span.id == id) else {
            return;
        };
        let span = open.remove(index);
        drop(open);
        let end = Instant::now();
        let start_us = span.start.duration_since(self.epoch).as_micros() as u64;
        let dur_us = end.duration_since(span.start).as_micros() as u64;
        let record = SpanRecord {
            name: span.name,
            start_us,
            dur_us,
            depth: span.depth,
        };
        self.observe(&format!("span_us_{}", record.name), record.dur_us as f64);
        self.finished_spans
            .lock()
            .expect("span buffer poisoned")
            .push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let recorder = Recorder::new();
        recorder.counter_add("x", 2);
        recorder.counter_add("x", 3);
        assert_eq!(recorder.metrics().counters["x"], 5);
    }

    #[test]
    fn events_count_themselves() {
        let recorder = Recorder::new();
        recorder.record_event(
            10,
            TelemetryEvent::Attribution {
                uid: 10_001,
                joules: 0.25,
            },
        );
        let metrics = recorder.metrics();
        assert_eq!(metrics.counters["events_processed_total"], 1);
        assert_eq!(metrics.counters["events_attribution_total"], 1);
        assert_eq!(recorder.events().len(), 1);
    }

    #[test]
    fn batched_events_match_singles_byte_for_byte() {
        let batch = [
            TelemetryEvent::Attribution {
                uid: 10_001,
                joules: 0.25,
            },
            TelemetryEvent::Attribution {
                uid: 10_002,
                joules: 0.75,
            },
            TelemetryEvent::BatteryDrain {
                joules: 1.0,
                remaining_percent: 99.5,
            },
        ];
        let singles = Recorder::new();
        for event in &batch {
            singles.record_event(40, event.clone());
        }
        let batched = Recorder::new();
        batched.record_events(40, &batch);
        assert_eq!(singles.events(), batched.events());
        assert_eq!(singles.metrics().counters, batched.metrics().counters);
        let empty = Recorder::new();
        empty.record_events(40, &[]);
        assert!(empty.events().is_empty());
        assert!(empty.metrics().counters.is_empty());
    }

    #[test]
    fn counter_and_gauge_writes_leave_samples() {
        let recorder = Recorder::new();
        recorder.counter_add("requests", 2);
        recorder.counter_add("requests", 3);
        recorder.gauge_set("depth", 7.5);
        let samples = recorder.samples();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].name, "requests");
        assert_eq!(samples[0].value, 2.0, "post-add counter value");
        assert_eq!(samples[1].value, 5.0, "cumulative, not the delta");
        assert_eq!(samples[2].name, "depth");
        assert_eq!(samples[2].value, 7.5);
        assert!(samples.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    #[test]
    fn event_bookkeeping_counters_do_not_flood_samples() {
        let recorder = Recorder::new();
        recorder.record_event(
            10,
            TelemetryEvent::Attribution {
                uid: 10_001,
                joules: 0.25,
            },
        );
        assert_eq!(recorder.metrics().counters["events_processed_total"], 1);
        assert!(
            recorder.samples().is_empty(),
            "per-event totals stay out of the time series"
        );
    }

    #[test]
    fn spans_nest_and_complete() {
        let recorder = Recorder::new();
        let outer = recorder.span_enter("outer");
        let inner = recorder.span_enter("inner");
        recorder.span_exit(inner);
        recorder.span_exit(outer);
        let spans = recorder.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].depth, 0);
    }

    #[test]
    fn histogram_counts_sum_to_total() {
        let recorder = Recorder::new();
        for value in [0.5, 3.0, 80.0, 1e9] {
            recorder.observe("h", value);
        }
        let snapshot = &recorder.metrics().histograms["h"];
        assert_eq!(snapshot.count, 4);
        assert_eq!(snapshot.counts.iter().sum::<u64>(), 4);
        // 1e9 lands in the overflow bucket.
        assert_eq!(*snapshot.counts.last().expect("overflow bucket"), 1);
    }
}
