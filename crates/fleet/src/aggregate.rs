//! Fleet-wide aggregation: the report types, and the batch entry point
//! folding per-device reports, in device-index order, into one
//! [`FleetReport`].
//!
//! The fold itself lives in [`crate::merge::ReportFold`], shared with
//! the `ea-serve` streaming service so batch and streaming runs merge
//! through one code path. The merge is deterministic by construction:
//! the engine hands this module a vector indexed by device — whatever
//! interleaving the worker threads produced — so every accumulator sees
//! the same values in the same order regardless of `--jobs`. Wall-clock
//! facts (throughput, worker utilization) live in
//! [`crate::FleetRunStats`], *outside* the report, so the serialized
//! report is byte-identical for a given `(seed, fleet_size)`.

use std::collections::BTreeMap;

use ea_framework::IntentLogDump;
use ea_metrics::{FlightDump, QuantileSketch};
use serde::{Deserialize, Serialize};

use crate::config::FleetConfig;
use crate::device::{DeviceCheckpoint, DeviceReport};

/// A device whose workload panicked past its retry budget: recorded, not
/// fatal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceFailure {
    /// Device index within the fleet.
    pub index: usize,
    /// The device's derived seed (for replaying the failure alone).
    pub seed: u64,
    /// The captured panic message (of the final attempt).
    pub message: String,
    /// Simulation attempts made, including the first.
    #[serde(default)]
    pub attempts: u32,
    /// The last per-session progress snapshot, salvaged from the crashed
    /// attempt that got furthest.
    #[serde(default)]
    pub checkpoint: Option<DeviceCheckpoint>,
    /// The device's recent telemetry events (sim-time stamped), salvaged
    /// from the final attempt's flight recorder. Present only when the
    /// run enabled `FleetConfig::flight_recorder`.
    #[serde(default)]
    pub flight_recorder: Option<FlightDump>,
    /// The tail of the final attempt's lifecycle intent log, salvaged
    /// through the supervisor's recorder mirror. The supervisor attaches
    /// one to every failure; `None` only in reports written before
    /// intent logs existed.
    /// Together with `checkpoint` this is the replay input:
    /// `eandroid replay` re-executes the device and asserts the fresh
    /// log matches this one byte for byte.
    #[serde(default)]
    pub intent_log: Option<IntentLogDump>,
}

/// The degraded-mode health section of a fleet run: what was injected,
/// what the stack caught, and how the supervisor's retry budget was
/// spent. All-zero on a fault-free run (the section is always present,
/// so a zero-rate plan stays byte-identical to no plan at all).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetHealth {
    /// Faults injected across every device, by taxonomy label.
    pub faults_injected: BTreeMap<String, u64>,
    /// Faults the stack detected or compensated, by taxonomy label.
    pub faults_detected: BTreeMap<String, u64>,
    /// Injected-but-undetected counts, by taxonomy label.
    pub faults_masked: BTreeMap<String, u64>,
    /// Devices that needed at least one retry.
    pub devices_retried: usize,
    /// Retried devices that eventually completed.
    pub devices_recovered: usize,
    /// Devices abandoned after exhausting the retry budget.
    pub devices_abandoned: usize,
    /// Abandoned devices that still salvaged a progress checkpoint.
    pub checkpoints_salvaged: usize,
}

/// Population prevalence of one attack kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KindPrevalence {
    /// The attack-kind label (`ea_core::AttackKind::label`).
    pub kind: String,
    /// Devices that recorded at least one period of this kind.
    pub devices: usize,
    /// Total attack periods across the fleet.
    pub periods: usize,
    /// Total collateral energy attributed to this kind, joules.
    pub collateral_joules: f64,
    /// Apps the static linter flagged for this kind, summed over devices.
    pub statically_predicted_apps: usize,
}

/// Per-device battery-drain distribution. The quantiles are read from
/// the merged per-shard [`QuantileSketch`] — nearest-rank convention,
/// within `gamma` *relative* error of an exact sort, and byte-identical
/// at any `--jobs` because the sketch merge is associative and
/// commutative. `mean` and `max` are exact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrainPercentiles {
    /// Median drain, joules (sketch estimate).
    pub p50: f64,
    /// 90th percentile drain, joules (sketch estimate).
    pub p90: f64,
    /// 99th percentile drain, joules (sketch estimate).
    pub p99: f64,
    /// Mean drain, joules (exact).
    pub mean: f64,
    /// Worst device, joules (exact).
    pub max: f64,
    /// Relative accuracy bound of the quantile estimates.
    #[serde(default = "default_gamma")]
    pub gamma: f64,
}

pub(crate) fn default_gamma() -> f64 {
    QuantileSketch::DEFAULT_GAMMA
}

/// One row of the ranked driver/victim tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedEntity {
    /// Package name, `screen`, or `system`.
    pub name: String,
    /// Total collateral joules across the fleet.
    pub joules: f64,
    /// Devices on which this entity appeared.
    pub devices: usize,
}

/// The population-scale static-vs-dynamic cross-check.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LintCrossCheck {
    /// Apps analyzed, summed over devices.
    pub apps_linted: usize,
    /// Diagnostics emitted, summed over devices.
    pub diagnostics: usize,
    /// Observed `(uid, kind)` pairs with no static prediction, summed over
    /// devices. The superset invariant keeps this at zero.
    pub superset_violations: usize,
    /// Sum over devices of each lint report's total static energy bound,
    /// joules/day. The bound is a day-horizon worst case, so it dominates
    /// the fleet's observed collateral (and in practice its whole drain).
    #[serde(default)]
    pub static_predicted_joules: f64,
}

/// One compact per-device row (enough to audit the percentiles).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceRow {
    /// Device index.
    pub index: usize,
    /// Device seed.
    pub seed: u64,
    /// Whether the malware was installed.
    pub infected: bool,
    /// Installed user apps.
    pub apps: usize,
    /// Battery drain over the day, joules.
    pub drained_joules: f64,
}

/// The fleet-wide aggregate: everything `eandroid fleet` reports.
///
/// Serialization is deterministic: all maps are ordered, all ranked
/// tables are sorted with total tie-breaks, and no wall-clock value is
/// included.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Report schema version (bump on breaking shape changes).
    pub schema_version: u32,
    /// The fleet seed.
    pub fleet_seed: u64,
    /// Devices requested.
    pub fleet_size: usize,
    /// Seed of the shared app corpus.
    pub corpus_seed: u64,
    /// Size of the shared app corpus.
    pub corpus_size: usize,
    /// Devices that completed their day.
    pub devices_completed: usize,
    /// Devices whose workload panicked.
    pub failures: Vec<DeviceFailure>,
    /// Completed devices carrying the malware.
    pub infected_devices: usize,
    /// Per-device battery-drain distribution.
    pub drain_joules: DrainPercentiles,
    /// Attack-kind prevalence across the population, sorted by kind.
    pub prevalence: Vec<KindPrevalence>,
    /// Top collateral drivers (who *caused* the energy), by package.
    pub top_drivers: Vec<RankedEntity>,
    /// Top collateral victims (who *burned* the energy), by package.
    pub top_victims: Vec<RankedEntity>,
    /// Static-vs-dynamic population cross-check.
    pub lint: LintCrossCheck,
    /// Fault-injection and supervision health (all-zero without faults).
    #[serde(default)]
    pub health: FleetHealth,
    /// Compact per-device rows, in index order.
    pub devices: Vec<DeviceRow>,
    /// The simulation-relevant slice of the run's configuration,
    /// normalized so execution-only knobs (worker count, flight-recorder
    /// capacity, a zero-rate fault plan) read as their defaults: any two
    /// runs that must produce identical reports embed identical configs.
    /// `eandroid replay` reads this to re-execute failures from the
    /// report alone.
    #[serde(default)]
    pub replay_config: FleetConfig,
}

/// Folds per-device outcomes (index order) into the fleet report via
/// the shared [`crate::merge::ReportFold`] — the exact code path the
/// `ea-serve` streaming drain uses, so the two cannot diverge.
///
/// `health` arrives pre-filled with the supervisor's retry accounting
/// (retried/recovered/abandoned, device-panic counts); the fold adds
/// every device's fault log and derives the masked counts.
///
/// `drain_sketch` is the merged per-shard drain sketch the engine built
/// while workers ran; pass `None` to have the fold build an identical
/// one from the outcomes (the two are interchangeable by construction).
pub fn aggregate(
    config: &FleetConfig,
    outcomes: Vec<Result<DeviceReport, DeviceFailure>>,
    health: FleetHealth,
    drain_sketch: Option<QuantileSketch>,
) -> FleetReport {
    let mut fold = crate::merge::ReportFold::new();
    for outcome in outcomes {
        fold.fold(outcome);
    }
    fold.finish(config, health, drain_sketch)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn device(index: usize, drained: f64, infected: bool) -> DeviceReport {
        DeviceReport {
            index,
            seed: index as u64,
            apps_installed: 8,
            infected,
            vectors: Vec::new(),
            sim_seconds: 100.0,
            drained_joules: drained,
            battery_percent: 99.0,
            periods_by_kind: BTreeMap::from([(String::from("ActivityStart"), 2)]),
            collateral_by_kind: BTreeMap::from([(String::from("ActivityStart"), 1.5)]),
            drivers: BTreeMap::from([(String::from("com.a"), 1.5)]),
            victims: BTreeMap::from([(String::from("screen"), 1.5)]),
            predicted_apps_by_kind: BTreeMap::from([(String::from("ActivityStart"), 8)]),
            apps_linted: 8,
            lint_diagnostics: 20,
            soundness_violations: 0,
            static_predicted_joules: 50_000.0,
            fault_log: ea_chaos::FaultLog::default(),
        }
    }

    fn sketch_of(drains: &[f64]) -> QuantileSketch {
        let mut sketch = QuantileSketch::default();
        for &drained in drains {
            sketch.record(drained);
        }
        sketch
    }

    #[test]
    fn sketch_quantiles_track_nearest_rank_within_gamma() {
        let drains: Vec<f64> = (1..=100).map(f64::from).collect();
        let sketch = sketch_of(&drains);
        for (q, exact) in [(0.50, 50.0), (0.90, 90.0), (0.99, 99.0)] {
            let estimate = sketch.quantile(q);
            assert!(
                (estimate - exact).abs() / exact <= sketch.gamma(),
                "q={q}: {estimate} vs exact {exact}"
            );
        }
        assert_eq!(sketch_of(&[]).quantile(0.5), 0.0);
        assert_eq!(sketch_of(&[4.0]).quantile(0.99), 4.0);
    }

    #[test]
    fn passed_sketch_equals_locally_built_sketch() {
        let config = FleetConfig {
            size: 2,
            ..FleetConfig::default()
        };
        let outcomes = || vec![Ok(device(0, 10.0, false)), Ok(device(1, 25.0, true))];
        let merged = sketch_of(&[10.0, 25.0]);
        let from_engine = aggregate(&config, outcomes(), FleetHealth::default(), Some(merged));
        let rebuilt = aggregate(&config, outcomes(), FleetHealth::default(), None);
        assert_eq!(from_engine, rebuilt);
    }

    #[test]
    fn aggregate_folds_failures_and_devices() {
        let config = FleetConfig {
            size: 3,
            ..FleetConfig::default()
        };
        let outcomes = vec![
            Ok(device(0, 10.0, true)),
            Err(DeviceFailure {
                index: 1,
                seed: 1,
                message: String::from("boom"),
                attempts: 3,
                checkpoint: Some(DeviceCheckpoint {
                    sessions_completed: 1,
                    sim_seconds: 40.0,
                    drained_joules: 5.0,
                }),
                flight_recorder: None,
                intent_log: None,
            }),
            Ok(device(2, 30.0, false)),
        ];
        let report = aggregate(&config, outcomes, FleetHealth::default(), None);
        assert_eq!(report.devices_completed, 2);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.infected_devices, 1);
        assert_eq!(report.drain_joules.max, 30.0);
        assert_eq!(report.drain_joules.mean, 20.0);
        assert_eq!(report.prevalence.len(), 1);
        assert_eq!(report.prevalence[0].devices, 2);
        assert_eq!(report.prevalence[0].periods, 4);
        assert_eq!(report.top_drivers[0].name, "com.a");
        assert_eq!(report.top_drivers[0].devices, 2);
        assert_eq!(report.lint.apps_linted, 16);
        assert_eq!(report.lint.static_predicted_joules, 100_000.0);
        assert_eq!(report.devices.len(), 2);
        assert_eq!(report.schema_version, 5);
        assert_eq!(report.health.checkpoints_salvaged, 1);
        assert_eq!(report.replay_config, config.normalized_for_replay());
        assert_eq!(report.drain_joules.gamma, QuantileSketch::DEFAULT_GAMMA);
    }

    #[test]
    fn health_folds_device_logs_and_derives_masked() {
        let config = FleetConfig {
            size: 1,
            ..FleetConfig::default()
        };
        let mut victim = device(0, 10.0, false);
        victim.fault_log.inject("counter_reset");
        victim.fault_log.inject("counter_reset");
        victim.fault_log.detect("counter_reset");
        victim.fault_log.inject("intent_drop");
        let report = aggregate(&config, vec![Ok(victim)], FleetHealth::default(), None);
        assert_eq!(report.health.faults_injected["counter_reset"], 2);
        assert_eq!(report.health.faults_detected["counter_reset"], 1);
        assert_eq!(report.health.faults_masked["counter_reset"], 1);
        assert_eq!(report.health.faults_masked["intent_drop"], 1);
    }
}
