//! Sim-time windowed metrics, accrued incrementally on the profiler hot
//! path.
//!
//! [`ProfilerMetrics`] is deliberately *not* a [`ea_telemetry::TelemetrySink`]:
//! the sink is a shared `dyn` object behind a virtual call, far too heavy
//! for a per-step touch (a traced step costs several multiples of the
//! bare step; the benchmark's traced run reports it as
//! `trace.overhead_per_s`). This type is a concrete field the profiler
//! owns, and its [`on_step`](ProfilerMetrics::on_step) is a branch plus a
//! handful of adds — the windowed counters, gauge, and the per-window
//! drain histogram all materialize lazily on window rollover, so
//! metrics-on adds next to nothing to a step.

use std::collections::VecDeque;

use crate::QuantileSketch;

/// Shape of the window ring: window width in simulated microseconds and
/// how many closed windows to retain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Width of one window, simulated microseconds.
    pub width_us: u64,
    /// Closed windows retained in the ring; older windows are dropped
    /// (their contribution survives in the totals and the histogram).
    pub windows: usize,
}

impl WindowSpec {
    /// The default shape: 5-second simulated windows, last 12 retained
    /// (a one-minute look-back at the default step).
    pub const DEFAULT: WindowSpec = WindowSpec {
        width_us: 5_000_000,
        windows: 12,
    };

    /// A spec with explicit width and retention.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    #[must_use]
    pub fn new(width_us: u64, windows: usize) -> Self {
        assert!(width_us > 0, "window width must be positive");
        assert!(windows > 0, "must retain at least one window");
        WindowSpec { width_us, windows }
    }
}

impl Default for WindowSpec {
    fn default() -> Self {
        WindowSpec::DEFAULT
    }
}

/// One closed sim-time window: counters plus the end-of-window gauge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsWindow {
    /// Window start, simulated microseconds (aligned to the width).
    pub start_us: u64,
    /// Profiler steps that landed in the window.
    pub steps: u64,
    /// Battery energy drained during the window, joules.
    pub drained_joules: f64,
    /// Gauge: cumulative battery drain at the window's last step, joules.
    pub drained_total_joules: f64,
}

/// Windowed per-profiler metrics: a ring of recent sim-time windows, an
/// all-time total, and a mergeable histogram of per-window drain.
#[derive(Debug, Clone)]
pub struct ProfilerMetrics {
    spec: WindowSpec,
    /// Current (open) window accumulator — the only state `on_step`
    /// touches besides the rollover compare.
    window_start_us: u64,
    window_end_us: u64,
    steps: u64,
    drained_joules: f64,
    drained_total_joules: f64,
    /// Closed windows, oldest first, capped at `spec.windows`.
    ring: VecDeque<MetricsWindow>,
    closed_steps: u64,
    closed_drained_joules: f64,
    /// Per-window drain histogram across *every* closed window, not just
    /// the retained ring.
    window_drain: QuantileSketch,
}

impl ProfilerMetrics {
    /// An empty recorder for the given window shape.
    #[must_use]
    pub fn new(spec: WindowSpec) -> Self {
        ProfilerMetrics {
            spec,
            window_start_us: 0,
            window_end_us: spec.width_us,
            steps: 0,
            drained_joules: 0.0,
            drained_total_joules: 0.0,
            ring: VecDeque::with_capacity(spec.windows + 1),
            closed_steps: 0,
            closed_drained_joules: 0.0,
            window_drain: QuantileSketch::default(),
        }
    }

    /// The window shape in use.
    #[must_use]
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// Accrues one profiler step: `now_us` is simulated time, `delta_j`
    /// the battery energy drained by the step, `total_j` the cumulative
    /// drain gauge. The fast path is one compare and three adds; window
    /// bookkeeping happens only on rollover.
    #[inline]
    pub fn on_step(&mut self, now_us: u64, delta_j: f64, total_j: f64) {
        if now_us >= self.window_end_us {
            self.roll(now_us);
        }
        self.steps += 1;
        self.drained_joules += delta_j;
        self.drained_total_joules = total_j;
    }

    /// Closes the current window into the ring and opens the one
    /// containing `now_us`. Windows no step landed in are skipped, not
    /// emitted empty.
    #[cold]
    #[inline(never)]
    fn roll(&mut self, now_us: u64) {
        self.close_current();
        let start = now_us - now_us % self.spec.width_us;
        self.window_start_us = start;
        self.window_end_us = start + self.spec.width_us;
    }

    fn close_current(&mut self) {
        if self.steps == 0 {
            return;
        }
        self.ring.push_back(MetricsWindow {
            start_us: self.window_start_us,
            steps: self.steps,
            drained_joules: self.drained_joules,
            drained_total_joules: self.drained_total_joules,
        });
        if self.ring.len() > self.spec.windows {
            self.ring.pop_front();
        }
        self.closed_steps += self.steps;
        self.closed_drained_joules += self.drained_joules;
        self.window_drain.record(self.drained_joules);
        self.steps = 0;
        self.drained_joules = 0.0;
    }

    /// Closes the partial window in progress so the ring and histogram
    /// reflect every step seen; call once the run is over.
    pub fn finish(&mut self) {
        self.close_current();
    }

    /// The retained closed windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &MetricsWindow> {
        self.ring.iter()
    }

    /// Steps accrued over the whole run (open window included).
    #[must_use]
    pub fn total_steps(&self) -> u64 {
        self.closed_steps + self.steps
    }

    /// Battery energy drained over the whole run, joules (open window
    /// included).
    #[must_use]
    pub fn total_drained_joules(&self) -> f64 {
        self.closed_drained_joules + self.drained_joules
    }

    /// The per-window drain histogram (closed windows only).
    #[must_use]
    pub fn window_drain(&self) -> &QuantileSketch {
        &self.window_drain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_accrue_into_aligned_windows() {
        let mut metrics = ProfilerMetrics::new(WindowSpec::new(1_000, 4));
        for step in 0..10u64 {
            // 4 steps per 1 ms window at a 250 µs step.
            metrics.on_step(step * 250, 1.0, (step + 1) as f64);
        }
        metrics.finish();
        let windows: Vec<_> = metrics.windows().copied().collect();
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].start_us, 0);
        assert_eq!(windows[0].steps, 4);
        assert_eq!(windows[1].start_us, 1_000);
        assert_eq!(windows[2].start_us, 2_000);
        assert_eq!(windows[2].steps, 2);
        assert_eq!(metrics.total_steps(), 10);
        assert!((metrics.total_drained_joules() - 10.0).abs() < 1e-12);
        assert!((windows[2].drained_total_joules - 10.0).abs() < 1e-12);
    }

    #[test]
    fn ring_drops_oldest_but_totals_keep_everything() {
        let mut metrics = ProfilerMetrics::new(WindowSpec::new(100, 2));
        for step in 0..50u64 {
            metrics.on_step(step * 100, 2.0, 0.0);
        }
        metrics.finish();
        assert_eq!(metrics.windows().count(), 2);
        assert_eq!(metrics.total_steps(), 50);
        assert!((metrics.total_drained_joules() - 100.0).abs() < 1e-9);
        assert_eq!(metrics.window_drain().count(), 50);
    }

    #[test]
    fn idle_gaps_skip_windows_instead_of_emitting_empties() {
        let mut metrics = ProfilerMetrics::new(WindowSpec::new(1_000, 8));
        metrics.on_step(0, 1.0, 1.0);
        metrics.on_step(10_000, 1.0, 2.0);
        metrics.finish();
        let windows: Vec<_> = metrics.windows().copied().collect();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].start_us, 0);
        assert_eq!(windows[1].start_us, 10_000);
    }

    #[test]
    #[should_panic(expected = "window width")]
    fn zero_width_is_rejected() {
        let _ = WindowSpec::new(0, 4);
    }
}
