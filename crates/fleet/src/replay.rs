//! Deterministic failure replay: re-execute a crashed device from the
//! report's embedded [`FleetConfig`] and compare the fresh outcome
//! against the recorded forensics bundle — panic message, attempt count,
//! salvaged checkpoint, and the lifecycle intent-log tail.
//!
//! Every device run is a pure function of `(config, corpus, index,
//! attempt)`, so a failure recorded in a [`FleetReport`] is a complete
//! reproduction recipe: regenerate the corpus from `(corpus_seed,
//! corpus_size)`, re-supervise the device under the same retry budget,
//! and the same panic unwinds at the same point with the same intent log
//! behind it. A mismatch means nondeterminism crept into the stack —
//! which is exactly what the CI replay smoke exists to catch.
//!
//! The same machinery doubles as a divergence detector for *healthy*
//! devices: re-simulate a sample of completed devices and compare their
//! fresh reports against the recorded [`DeviceRow`]s bit for bit.

use ea_corpus::{generate_corpus, CorpusConfig};
use ea_framework::AppManifest;
use serde::{Deserialize, Serialize};

use crate::aggregate::{DeviceFailure, DeviceRow, FleetReport};
use crate::config::{device_seed, FleetConfig};
use crate::supervise::{
    install_quiet_hook, supervise_device, QuietPanicsGuard, SuperviseHooks, Supervision,
};

/// The verdict of replaying one recorded [`DeviceFailure`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureReplay {
    /// Device index within the fleet.
    pub index: usize,
    /// Whether the replay reproduced the recorded outcome exactly.
    pub matched: bool,
    /// Human-readable descriptions of every divergence (empty on match).
    pub mismatches: Vec<String>,
    /// Intents the replayed final attempt logged before dying.
    pub replayed_intents: usize,
}

/// The verdict of re-simulating one completed device against its
/// recorded [`DeviceRow`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthyReplay {
    /// Device index within the fleet.
    pub index: usize,
    /// Whether the fresh run matched the recorded row bit for bit.
    pub matched: bool,
    /// Human-readable descriptions of every divergence (empty on match).
    pub mismatches: Vec<String>,
}

/// Everything `eandroid replay` reports for one [`FleetReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayReport {
    /// One verdict per recorded failure, in report order.
    pub failures: Vec<FailureReplay>,
    /// Verdicts for the sampled healthy devices, in index order.
    pub healthy: Vec<HealthyReplay>,
}

impl ReplayReport {
    /// Whether every replayed device reproduced its recorded outcome.
    #[must_use]
    pub fn all_matched(&self) -> bool {
        self.failures.iter().all(|replay| replay.matched)
            && self.healthy.iter().all(|replay| replay.matched)
    }

    /// Total devices replayed (failures plus healthy sample).
    #[must_use]
    pub fn replayed(&self) -> usize {
        self.failures.len() + self.healthy.len()
    }
}

/// Re-executes the failed device under a fresh supervisor and compares
/// the outcome against the recorded bundle. The config is normalized
/// first ([`FleetConfig::normalized_for_replay`]); `config` is typically
/// a report's embedded `replay_config`.
#[must_use]
pub fn replay_failure(
    config: &FleetConfig,
    corpus: &[AppManifest],
    failure: &DeviceFailure,
) -> FailureReplay {
    install_quiet_hook();
    let _quiet = QuietPanicsGuard::enter();
    let replay_config = config.normalized_for_replay();
    let mut mismatches = Vec::new();
    let expected_seed = device_seed(replay_config.seed, failure.index);
    if expected_seed != failure.seed {
        mismatches.push(format!(
            "seed mismatch: config derives {expected_seed:#x} for device {} but the report \
             recorded {:#x} — wrong config for this failure",
            failure.index, failure.seed
        ));
        return FailureReplay {
            index: failure.index,
            matched: false,
            mismatches,
            replayed_intents: 0,
        };
    }

    let mut tally = Supervision::default();
    let outcome = supervise_device(
        &replay_config,
        corpus,
        failure.index,
        &mut tally,
        &SuperviseHooks::default(),
    );

    let mut replayed_intents = 0;
    match outcome {
        Ok(report) => mismatches.push(format!(
            "device completed on replay (drained {:.3} J over {} sessions' worth of day) \
             but originally failed with {:?}",
            report.drained_joules, replay_config.sessions, failure.message
        )),
        Err(replayed) => {
            replayed_intents = replayed.intent_log.as_ref().map_or(0, |log| log.len());
            if replayed.message != failure.message {
                mismatches.push(format!(
                    "panic message diverged: recorded {:?}, replayed {:?}",
                    failure.message, replayed.message
                ));
            }
            if replayed.attempts != failure.attempts {
                mismatches.push(format!(
                    "attempt count diverged: recorded {}, replayed {}",
                    failure.attempts, replayed.attempts
                ));
            }
            if replayed.checkpoint != failure.checkpoint {
                mismatches.push(format!(
                    "salvaged checkpoint diverged: recorded {:?}, replayed {:?}",
                    failure.checkpoint, replayed.checkpoint
                ));
            }
            if let Some(recorded) = &failure.intent_log {
                match &replayed.intent_log {
                    None => mismatches.push(String::from(
                        "replay produced no intent log for a failure that recorded one",
                    )),
                    Some(fresh) => {
                        if let Some(seq) = recorded.first_divergence(fresh) {
                            mismatches.push(format!(
                                "intent log diverged at seq {seq}: recorded {} intents \
                                 ({} dropped), replayed {} ({} dropped)",
                                recorded.len(),
                                recorded.dropped,
                                fresh.len(),
                                fresh.dropped
                            ));
                        }
                    }
                }
            }
        }
    }

    FailureReplay {
        index: failure.index,
        matched: mismatches.is_empty(),
        mismatches,
        replayed_intents,
    }
}

/// Re-simulates a completed device under a fresh supervisor and compares
/// the fresh report against the recorded row. The drain comparison is
/// bit-exact: any floating-point wobble is a determinism bug, not noise.
#[must_use]
pub fn replay_healthy(
    config: &FleetConfig,
    corpus: &[AppManifest],
    row: &DeviceRow,
) -> HealthyReplay {
    install_quiet_hook();
    let _quiet = QuietPanicsGuard::enter();
    let replay_config = config.normalized_for_replay();
    let mut mismatches = Vec::new();
    let mut tally = Supervision::default();
    match supervise_device(
        &replay_config,
        corpus,
        row.index,
        &mut tally,
        &SuperviseHooks::default(),
    ) {
        Err(failure) => mismatches.push(format!(
            "device failed on replay ({:?}) but originally completed",
            failure.message
        )),
        Ok(report) => {
            if report.seed != row.seed {
                mismatches.push(format!(
                    "seed diverged: recorded {:#x}, replayed {:#x}",
                    row.seed, report.seed
                ));
            }
            if report.infected != row.infected {
                mismatches.push(format!(
                    "infection diverged: recorded {}, replayed {}",
                    row.infected, report.infected
                ));
            }
            if report.apps_installed != row.apps {
                mismatches.push(format!(
                    "installed apps diverged: recorded {}, replayed {}",
                    row.apps, report.apps_installed
                ));
            }
            if report.drained_joules.to_bits() != row.drained_joules.to_bits() {
                mismatches.push(format!(
                    "drain diverged: recorded {} J, replayed {} J",
                    row.drained_joules, report.drained_joules
                ));
            }
        }
    }
    HealthyReplay {
        index: row.index,
        matched: mismatches.is_empty(),
        mismatches,
    }
}

/// Replays every recorded failure of `report` plus an evenly-strided
/// sample of up to `healthy_sample` completed devices, regenerating the
/// corpus from the report's embedded config. This is the whole of
/// `eandroid replay`: the report is a self-contained reproduction
/// bundle.
#[must_use]
pub fn replay_report(report: &FleetReport, healthy_sample: usize) -> ReplayReport {
    let config = &report.replay_config;
    let corpus = generate_corpus(
        &CorpusConfig {
            size: config.corpus_size,
            ..CorpusConfig::paper()
        },
        config.corpus_seed,
    );
    let failures = report
        .failures
        .iter()
        .map(|failure| replay_failure(config, &corpus, failure))
        .collect();
    let healthy = if healthy_sample == 0 || report.devices.is_empty() {
        Vec::new()
    } else {
        let stride = (report.devices.len() / healthy_sample).max(1);
        report
            .devices
            .iter()
            .step_by(stride)
            .take(healthy_sample)
            .map(|row| replay_healthy(config, &corpus, row))
            .collect()
    };
    ReplayReport { failures, healthy }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_fleet;

    #[test]
    fn injected_panic_failure_replays_to_the_same_outcome() {
        let config = FleetConfig {
            jobs: 2,
            max_retries: 1,
            panic_devices: vec![1],
            ..FleetConfig::smoke(3, 71)
        };
        let (report, _) = run_fleet(&config);
        assert_eq!(report.failures.len(), 1);
        let replayed = replay_report(&report, 2);
        assert_eq!(replayed.failures.len(), 1);
        assert_eq!(replayed.healthy.len(), 2);
        assert!(
            replayed.all_matched(),
            "replay diverged: {:?}",
            replayed
                .failures
                .iter()
                .flat_map(|r| &r.mismatches)
                .chain(replayed.healthy.iter().flat_map(|r| &r.mismatches))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn chaos_panic_failures_replay_with_matching_intent_logs() {
        let config = FleetConfig {
            jobs: 2,
            max_retries: 0,
            faults: Some(ea_chaos::FaultPlan {
                seed: 55,
                rates: ea_chaos::FaultRates {
                    device_panic: 0.6,
                    ..ea_chaos::FaultRates::uniform(0.2)
                },
            }),
            ..FleetConfig::smoke(6, 41)
        };
        let (report, _) = run_fleet(&config);
        assert!(
            !report.failures.is_empty(),
            "plan must abandon at least one device"
        );
        for failure in &report.failures {
            assert!(
                failure.intent_log.is_some(),
                "reducer path attaches the log tail to every failure"
            );
        }
        let corpus = generate_corpus(
            &CorpusConfig {
                size: config.corpus_size,
                ..CorpusConfig::paper()
            },
            config.corpus_seed,
        );
        for failure in &report.failures {
            let verdict = replay_failure(&report.replay_config, &corpus, failure);
            assert!(
                verdict.matched,
                "device {} diverged: {:?}",
                failure.index, verdict.mismatches
            );
        }
    }

    #[test]
    fn wrong_config_is_called_out_instead_of_replayed() {
        let config = FleetConfig::smoke(2, 9);
        let corpus: Vec<AppManifest> = Vec::new();
        let failure = DeviceFailure {
            index: 0,
            seed: 0xDEAD,
            message: String::from("boom"),
            attempts: 1,
            checkpoint: None,
            flight_recorder: None,
            intent_log: None,
        };
        let verdict = replay_failure(&config, &corpus, &failure);
        assert!(!verdict.matched);
        assert!(verdict.mismatches[0].contains("seed mismatch"));
    }
}
