//! End-to-end tests of the ea-metrics observability layer: sketch-backed
//! fleet percentiles, the live observatory, heartbeat/exposition formats,
//! and the per-device flight recorder.

use e_android::fleet::{run_fleet, run_fleet_observed, FleetConfig};
use e_android::metrics::{FleetObservatory, QuantileSketch, SNAPSHOT_SCHEMA};
use e_android::telemetry::SinkHandle;

fn exact_nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The golden accuracy check: the report's sketch-backed percentiles stay
/// within the documented `gamma` relative error of an exact sort of the
/// per-device drains.
#[test]
fn fleet_percentiles_are_within_gamma_of_exact_sort() {
    let config = FleetConfig {
        jobs: 4,
        ..FleetConfig::smoke(24, 4_242)
    };
    let (report, _) = run_fleet(&config);
    let mut drains: Vec<f64> = report.devices.iter().map(|d| d.drained_joules).collect();
    drains.sort_by(|a, b| a.partial_cmp(b).expect("finite drains"));

    let gamma = report.drain_joules.gamma;
    assert_eq!(gamma, QuantileSketch::DEFAULT_GAMMA);
    for (q, estimate) in [
        (0.50, report.drain_joules.p50),
        (0.90, report.drain_joules.p90),
        (0.99, report.drain_joules.p99),
    ] {
        let exact = exact_nearest_rank(&drains, q);
        assert!(
            (estimate - exact).abs() <= gamma * exact,
            "p{:.0}: sketch {estimate} vs exact {exact} (gamma {gamma})",
            q * 100.0
        );
    }
    assert_eq!(
        report.drain_joules.max,
        *drains.last().expect("non-empty fleet"),
        "max stays exact"
    );
}

/// The sketch-backed percentiles must be the same bytes at any worker
/// count — including a jobs count that does not divide the fleet.
#[test]
fn sketch_percentiles_are_jobs_independent() {
    let mut config = FleetConfig::smoke(11, 909);
    let mut reports = Vec::new();
    for jobs in [1, 4, 8] {
        config.jobs = jobs;
        let (report, _) = run_fleet(&config);
        reports.push(e_android::fleet::render::to_json(&report));
    }
    assert_eq!(reports[0], reports[1], "jobs 1 vs 4");
    assert_eq!(reports[1], reports[2], "jobs 4 vs 8");
}

/// Attaching an observatory is strictly observational: same bytes out.
#[test]
fn observatory_never_changes_the_report() {
    let config = FleetConfig {
        jobs: 2,
        ..FleetConfig::smoke(6, 33)
    };
    let (plain, _) = run_fleet(&config);
    let observatory = FleetObservatory::new(config.size, 2);
    let (observed, _) = run_fleet_observed(&config, SinkHandle::noop(), Some(&observatory));
    assert_eq!(
        e_android::fleet::render::to_json(&plain),
        e_android::fleet::render::to_json(&observed)
    );

    let snapshot = observatory.snapshot();
    assert_eq!(snapshot.devices_done, plain.devices_completed as u64);
    assert_eq!(snapshot.devices_total, config.size as u64);
    assert!(snapshot.drain_p50_joules > 0.0);
}

/// A chaos-injected device panic must leave a failure entry carrying a
/// non-empty flight-recorder dump (the acceptance criterion of the
/// flight-recorder feature).
#[test]
fn chaos_panic_failures_carry_a_flight_dump() {
    let config = FleetConfig {
        jobs: 2,
        flight_recorder: 64,
        faults: Some(e_android::chaos::FaultPlan {
            seed: 77,
            rates: e_android::chaos::FaultRates {
                device_panic: 0.5,
                ..e_android::chaos::FaultRates::ZERO
            },
        }),
        ..FleetConfig::smoke(8, 31)
    };
    let (report, _) = run_fleet(&config);
    assert!(
        !report.failures.is_empty(),
        "rate 0.5 over 8 devices with a bounded retry budget abandons someone"
    );
    for failure in &report.failures {
        let dump = failure
            .flight_recorder
            .as_ref()
            .expect("flight recorder was on");
        assert_eq!(dump.capacity, 64);
        assert!(
            !dump.is_empty(),
            "device {} died with an empty ring",
            failure.index
        );
    }
    let text = e_android::fleet::render::to_text(&report);
    assert!(text.contains("flight recorder: last"));
}

/// With the recorder off (the default), failures carry no dump and the
/// report is byte-identical to a recorder-on run minus the dump field —
/// i.e. the ring never feeds back into the simulation.
#[test]
fn flight_recorder_is_observational() {
    let base = FleetConfig {
        jobs: 2,
        faults: Some(e_android::chaos::FaultPlan::uniform(9, 0.3)),
        ..FleetConfig::smoke(6, 44)
    };
    let (off, _) = run_fleet(&base);
    let (on, _) = run_fleet(&FleetConfig {
        flight_recorder: 32,
        ..base
    });
    assert_eq!(off.devices_completed, on.devices_completed);
    assert_eq!(off.drain_joules, on.drain_joules);
    assert_eq!(off.prevalence, on.prevalence);
    for (a, b) in off.failures.iter().zip(&on.failures) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.message, b.message);
        assert!(a.flight_recorder.is_none());
        assert!(b.flight_recorder.is_some());
    }
}

/// The heartbeat JSONL line carries the schema tag and the health fields
/// the CI schema validator checks.
#[test]
fn snapshot_jsonl_has_the_documented_schema() {
    let observatory = FleetObservatory::new(4, 2);
    observatory.device_completed(120.0);
    observatory.device_failed();
    let line = observatory.snapshot().to_jsonl();
    let value: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
    assert_eq!(value["schema"].as_str(), Some(SNAPSHOT_SCHEMA));
    for field in [
        "seq",
        "elapsed_ms",
        "devices_total",
        "devices_done",
        "devices_failed",
        "devices_retried",
        "chaos_panics",
        "devices_per_sec",
        "recent_devices_per_sec",
        "worker_busy",
        "drain_gamma",
        "drain_p50_joules",
        "drain_p90_joules",
        "drain_p99_joules",
    ] {
        assert!(value.get(field).is_some(), "missing field {field}");
    }
}

/// The Prometheus exposition is well-formed: HELP/TYPE pairs precede
/// every family and the summary carries quantile labels.
#[test]
fn prometheus_exposition_is_well_formed() {
    let observatory = FleetObservatory::new(4, 2);
    observatory.device_completed(120.0);
    let text = observatory.snapshot().to_prometheus();
    for family in [
        "eandroid_fleet_devices_done",
        "eandroid_fleet_devices_failed",
        "eandroid_fleet_devices_retried",
        "eandroid_fleet_chaos_panics",
        "eandroid_fleet_devices_total",
        "eandroid_fleet_devices_per_sec",
        "eandroid_fleet_drain_joules",
        "eandroid_fleet_worker_busy_ratio",
    ] {
        assert!(text.contains(&format!("# HELP {family} ")), "{family} HELP");
        assert!(text.contains(&format!("# TYPE {family} ")), "{family} TYPE");
    }
    assert!(text.contains("eandroid_fleet_drain_joules{quantile=\"0.5\"}"));
    assert!(text.contains("eandroid_fleet_drain_joules{quantile=\"0.99\"}"));
    assert!(text.contains("eandroid_fleet_worker_busy_ratio{worker=\"1\"}"));
}
