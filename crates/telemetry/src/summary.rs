//! Human-readable digest of a recorded session.

use crate::{Recorder, RecorderMetrics, SpanRecord, HISTOGRAM_BOUNDS};
use std::collections::BTreeMap;
use std::fmt;

/// A printable digest: event counts, counters, gauges, histogram
/// quantiles, and per-span aggregate timing.
#[derive(Debug, Clone)]
pub struct TelemetrySummary {
    metrics: RecorderMetrics,
    span_count: usize,
    span_totals: BTreeMap<String, (u64, u64)>,
    event_count: usize,
}

impl TelemetrySummary {
    /// Digests everything `recorder` has collected so far.
    pub fn from_recorder(recorder: &Recorder) -> Self {
        let mut span_totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        let spans = recorder.spans();
        for SpanRecord { name, dur_us, .. } in &spans {
            let entry = span_totals.entry(name.clone()).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += dur_us;
        }
        TelemetrySummary {
            metrics: recorder.metrics(),
            span_count: spans.len(),
            span_totals,
            event_count: recorder.events().len(),
        }
    }

    /// Total number of structured events recorded.
    pub fn event_count(&self) -> usize {
        self.event_count
    }

    /// Total number of completed spans.
    pub fn span_count(&self) -> usize {
        self.span_count
    }
}

/// Approximate quantile from fixed-bucket counts: the upper bound of the
/// bucket containing the q-th observation.
fn bucket_quantile(counts: &[u64], total: u64, q: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let rank = (q * total as f64).ceil() as u64;
    let mut seen = 0u64;
    for (index, count) in counts.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return HISTOGRAM_BOUNDS
                .get(index)
                .copied()
                .unwrap_or(f64::INFINITY);
        }
    }
    f64::INFINITY
}

impl fmt::Display for TelemetrySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "telemetry summary")?;
        writeln!(
            f,
            "  events: {} recorded, {} spans completed",
            self.event_count, self.span_count
        )?;
        if !self.metrics.counters.is_empty() {
            writeln!(f, "  counters:")?;
            for (name, value) in &self.metrics.counters {
                writeln!(f, "    {name} = {value}")?;
            }
        }
        if !self.metrics.gauges.is_empty() {
            writeln!(f, "  gauges:")?;
            for (name, value) in &self.metrics.gauges {
                writeln!(f, "    {name} = {value:.3}")?;
            }
        }
        if !self.metrics.histograms.is_empty() {
            writeln!(f, "  histograms (approx p50 / p95 over bucket bounds):")?;
            for (name, histogram) in &self.metrics.histograms {
                let p50 = bucket_quantile(&histogram.counts, histogram.count, 0.50);
                let p95 = bucket_quantile(&histogram.counts, histogram.count, 0.95);
                writeln!(
                    f,
                    "    {name}: n={} mean={:.1} p50<={p50} p95<={p95}",
                    histogram.count,
                    if histogram.count > 0 {
                        histogram.sum / histogram.count as f64
                    } else {
                        0.0
                    },
                )?;
            }
        }
        if !self.span_totals.is_empty() {
            writeln!(f, "  spans:")?;
            for (name, (count, total_us)) in &self.span_totals {
                writeln!(
                    f,
                    "    {name}: {count} calls, {:.3} ms total",
                    *total_us as f64 / 1_000.0
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TelemetryEvent, TelemetrySink};

    #[test]
    fn summary_renders_all_sections() {
        let recorder = Recorder::new();
        recorder.record_event(
            1,
            TelemetryEvent::BatteryDrain {
                joules: 0.1,
                remaining_percent: 99.0,
            },
        );
        recorder.gauge_set("attacks_open", 2.0);
        recorder.observe("attribution_interval_us", 12.0);
        let span = recorder.span_enter("step");
        recorder.span_exit(span);

        let summary = TelemetrySummary::from_recorder(&recorder);
        let text = summary.to_string();
        assert!(text.contains("events_processed_total = 1"));
        assert!(text.contains("attacks_open = 2.000"));
        assert!(text.contains("attribution_interval_us"));
        assert!(text.contains("step: 1 calls"));
        assert_eq!(summary.event_count(), 1);
        assert_eq!(summary.span_count(), 1);
    }

    #[test]
    fn quantiles_pick_bucket_bounds() {
        let mut counts = vec![0u64; HISTOGRAM_BOUNDS.len() + 1];
        counts[2] = 10; // all observations <= 5.0
        assert_eq!(bucket_quantile(&counts, 10, 0.5), 5.0);
        assert_eq!(bucket_quantile(&counts, 10, 0.95), 5.0);
        assert_eq!(bucket_quantile(&counts, 0, 0.5), 0.0);
    }
}
