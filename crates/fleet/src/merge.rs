//! The one report-merge code path: an incremental fold of per-device
//! outcomes into a [`FleetReport`].
//!
//! Both consumers — the batch engine's [`crate::aggregate`] and the
//! `ea-serve` streaming service's drain step — feed the same
//! [`ReportFold`], so there is exactly one definition of how a device
//! becomes fleet-level numbers. The fold is *order-sensitive* in the
//! floating-point sums it keeps, which is why both paths present
//! outcomes in device-index order: the batch engine writes results into
//! an index-keyed slot vector before folding, and the streaming service
//! re-orders its per-shard outcome buffers the same way at drain time.
//! Same order, same bytes.

use std::collections::BTreeMap;

use ea_metrics::QuantileSketch;

use crate::aggregate::{
    DeviceFailure, DeviceRow, DrainPercentiles, FleetHealth, FleetReport, KindPrevalence,
    LintCrossCheck, RankedEntity,
};
use crate::config::FleetConfig;
use crate::device::DeviceReport;

/// How many drivers/victims the ranked tables keep.
const TOP_LIMIT: usize = 10;

/// The report schema version emitted by [`ReportFold::finish`].
///
/// v5 (additive): `DeviceFailure.intent_log` carries the crashed
/// attempt's lifecycle intent-log tail, `FlightDump.intent_tail` mirrors
/// it in the flight-recorder bundle, and `FleetReport.replay_config`
/// embeds the normalized run configuration so `eandroid replay` can
/// re-execute any failure from the report alone.
pub const REPORT_SCHEMA_VERSION: u32 = 5;

/// Builds the drain sketch from a completed-device drain list, the way
/// both engines get their quantiles. The sketch keeps integer bin counts
/// plus a min and a max, so it is bit-for-bit equal to any merge of
/// partial sketches over the same drains, whatever the sharding: that
/// equivalence is what makes the quantiles `--jobs`-independent, and the
/// property tests pin it.
fn sketch_from_drains(drains: &[f64]) -> QuantileSketch {
    let mut sketch = QuantileSketch::new(crate::aggregate::default_gamma());
    for &drained in drains {
        sketch.record(drained);
    }
    sketch
}

/// Ranks an accumulated `(name -> (joules, devices))` map: descending by
/// energy, name as the total tie-break, clipped to the table limit.
fn rank(map: BTreeMap<String, (f64, usize)>) -> Vec<RankedEntity> {
    let mut rows: Vec<RankedEntity> = map
        .into_iter()
        .map(|(name, (joules, devices))| RankedEntity {
            name,
            joules,
            devices,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.joules
            .partial_cmp(&a.joules)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.name.cmp(&b.name))
    });
    rows.truncate(TOP_LIMIT);
    rows
}

/// The incremental report fold: feed device outcomes in index order,
/// then [`finish`](ReportFold::finish) into the deterministic
/// [`FleetReport`].
#[derive(Debug, Default)]
pub struct ReportFold {
    failures: Vec<DeviceFailure>,
    drains: Vec<f64>,
    infected_devices: usize,
    kind_devices: BTreeMap<String, usize>,
    kind_periods: BTreeMap<String, usize>,
    kind_joules: BTreeMap<String, f64>,
    kind_predicted: BTreeMap<String, usize>,
    drivers: BTreeMap<String, (f64, usize)>,
    victims: BTreeMap<String, (f64, usize)>,
    lint: LintCrossCheck,
    devices: Vec<DeviceRow>,
    /// Per-device fault logs folded as they arrive; merged into the
    /// supervisor-provided health section at finish time.
    faults_injected: BTreeMap<String, u64>,
    faults_detected: BTreeMap<String, u64>,
}

impl ReportFold {
    /// An empty fold.
    #[must_use]
    pub fn new() -> Self {
        ReportFold::default()
    }

    /// Folds one device outcome. Callers must present outcomes in
    /// device-index order for the report to be byte-stable.
    pub fn fold(&mut self, outcome: Result<DeviceReport, DeviceFailure>) {
        let report = match outcome {
            Ok(report) => report,
            Err(failure) => {
                self.failures.push(failure);
                return;
            }
        };
        self.drains.push(report.drained_joules);
        if report.infected {
            self.infected_devices += 1;
        }
        for (kind, periods) in &report.periods_by_kind {
            *self.kind_devices.entry(kind.clone()).or_default() += 1;
            *self.kind_periods.entry(kind.clone()).or_default() += periods;
        }
        for (kind, joules) in &report.collateral_by_kind {
            *self.kind_joules.entry(kind.clone()).or_default() += joules;
        }
        for (kind, apps) in &report.predicted_apps_by_kind {
            *self.kind_predicted.entry(kind.clone()).or_default() += apps;
        }
        for (name, joules) in &report.drivers {
            let entry = self.drivers.entry(name.clone()).or_insert((0.0, 0));
            entry.0 += joules;
            entry.1 += 1;
        }
        for (name, joules) in &report.victims {
            let entry = self.victims.entry(name.clone()).or_insert((0.0, 0));
            entry.0 += joules;
            entry.1 += 1;
        }
        self.lint.apps_linted += report.apps_linted;
        self.lint.diagnostics += report.lint_diagnostics;
        self.lint.superset_violations += report.soundness_violations;
        self.lint.static_predicted_joules += report.static_predicted_joules;
        for (kind, count) in &report.fault_log.injected {
            *self.faults_injected.entry(kind.clone()).or_default() += count;
        }
        for (kind, count) in &report.fault_log.detected {
            *self.faults_detected.entry(kind.clone()).or_default() += count;
        }
        self.devices.push(DeviceRow {
            index: report.index,
            seed: report.seed,
            infected: report.infected,
            apps: report.apps_installed,
            drained_joules: report.drained_joules,
        });
    }

    /// Devices folded as completed so far.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.drains.len()
    }

    /// Closes the fold into the report.
    ///
    /// `health` arrives pre-filled with the supervisor's retry accounting
    /// (retried/recovered/abandoned, device-panic counts); the fold adds
    /// every device's fault log and derives the masked counts.
    ///
    /// `drain_sketch` is normally `None`: the fold builds the sketch from
    /// the drains it kept. A `Some` sketch over the same drains gives the
    /// same bytes (the two are interchangeable by construction); the
    /// parameter stays for callers outside the workspace's engines that
    /// already hold one, such as the benchmark's traced run.
    #[must_use]
    pub fn finish(
        self,
        config: &FleetConfig,
        mut health: FleetHealth,
        drain_sketch: Option<QuantileSketch>,
    ) -> FleetReport {
        let devices_completed = self.drains.len();
        let mean = if self.drains.is_empty() {
            0.0
        } else {
            self.drains.iter().sum::<f64>() / self.drains.len() as f64
        };
        // Quantiles come off the mergeable sketch instead of sorting the
        // whole drain vector: same bytes at any shard count, O(bins)
        // reads, and a streaming engine never needs the full vector in
        // one place.
        let sketch = drain_sketch.unwrap_or_else(|| sketch_from_drains(&self.drains));
        let drain_joules = DrainPercentiles {
            p50: sketch.quantile(0.50),
            p90: sketch.quantile(0.90),
            p99: sketch.quantile(0.99),
            mean,
            max: sketch.max(),
            gamma: sketch.gamma(),
        };

        // Union of every kind any table mentions, in label order.
        let mut kinds: Vec<String> = self
            .kind_devices
            .keys()
            .chain(self.kind_predicted.keys())
            .cloned()
            .collect();
        kinds.sort_unstable();
        kinds.dedup();
        let prevalence = kinds
            .into_iter()
            .map(|kind| KindPrevalence {
                devices: self.kind_devices.get(&kind).copied().unwrap_or(0),
                periods: self.kind_periods.get(&kind).copied().unwrap_or(0),
                collateral_joules: self.kind_joules.get(&kind).copied().unwrap_or(0.0),
                statically_predicted_apps: self.kind_predicted.get(&kind).copied().unwrap_or(0),
                kind,
            })
            .collect();

        for (kind, count) in self.faults_injected {
            *health.faults_injected.entry(kind).or_default() += count;
        }
        for (kind, count) in self.faults_detected {
            *health.faults_detected.entry(kind).or_default() += count;
        }
        health.checkpoints_salvaged = self
            .failures
            .iter()
            .filter(|failure| failure.checkpoint.is_some())
            .count();
        for (kind, &injected) in &health.faults_injected {
            let detected = health.faults_detected.get(kind).copied().unwrap_or(0);
            let masked = injected.saturating_sub(detected);
            if masked > 0 {
                health.faults_masked.insert(kind.clone(), masked);
            }
        }

        FleetReport {
            schema_version: REPORT_SCHEMA_VERSION,
            fleet_seed: config.seed,
            fleet_size: config.size,
            corpus_seed: config.corpus_seed,
            corpus_size: config.corpus_size,
            devices_completed,
            failures: self.failures,
            infected_devices: self.infected_devices,
            drain_joules,
            prevalence,
            top_drivers: rank(self.drivers),
            top_victims: rank(self.victims),
            lint: self.lint,
            health,
            devices: self.devices,
            replay_config: config.normalized_for_replay(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_fold_matches_batch_aggregate() {
        let config = FleetConfig {
            size: 3,
            ..FleetConfig::default()
        };
        let outcomes = || -> Vec<Result<DeviceReport, DeviceFailure>> {
            vec![
                Ok(crate::aggregate::tests::device(0, 10.0, true)),
                Err(DeviceFailure {
                    index: 1,
                    seed: 1,
                    message: String::from("boom"),
                    attempts: 3,
                    checkpoint: None,
                    flight_recorder: None,
                    intent_log: None,
                }),
                Ok(crate::aggregate::tests::device(2, 30.0, false)),
            ]
        };
        let via_aggregate = crate::aggregate(&config, outcomes(), FleetHealth::default(), None);
        let mut fold = ReportFold::new();
        for outcome in outcomes() {
            fold.fold(outcome);
        }
        assert_eq!(fold.completed(), 2);
        let via_fold = fold.finish(&config, FleetHealth::default(), None);
        assert_eq!(via_aggregate, via_fold);
    }

    #[test]
    fn rank_is_total_ordered() {
        let map = BTreeMap::from([
            (String::from("b"), (1.0, 1)),
            (String::from("a"), (1.0, 1)),
            (String::from("c"), (5.0, 2)),
        ]);
        let rows = rank(map);
        assert_eq!(rows[0].name, "c");
        assert_eq!(rows[1].name, "a", "ties break by name");
        assert_eq!(rows[2].name, "b");
    }
}
