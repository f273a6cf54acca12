//! Device supervision, shared by the batch engine and the `ea-serve`
//! streaming service: bounded retries with seeded backoff, checkpoint
//! salvage across panics, and quiet worker-panic handling.
//!
//! A panicking device is caught with [`std::panic::catch_unwind`] on the
//! supervising thread, retried up to the config's budget, and finally
//! recorded as a [`DeviceFailure`] — never allowed to abort the run. The
//! default panic hook is wrapped once per process so supervised threads
//! panic silently (the panic becomes a report entry), while every other
//! thread keeps the previous behaviour.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Once};

use ea_framework::{IntentLogRecorder, INTENT_LOG_CAPACITY};
use ea_metrics::{FleetObservatory, FlightRecorder};
use ea_telemetry::SinkHandle;

use crate::aggregate::DeviceFailure;
use crate::config::{device_seed, FleetConfig};
use crate::device::{simulate_device_forensic, DeviceCheckpoint, DeviceReport, CHAOS_PANIC_PREFIX};

thread_local! {
    /// Set while a supervised thread runs a device: the wrapped panic
    /// hook stays quiet for these threads (the panic becomes a report
    /// entry).
    static QUIET_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static HOOK_INIT: Once = Once::new();

/// Wraps the current panic hook (once per process) so threads that opted
/// in via a [`QuietPanicsGuard`] panic silently; everyone else keeps the
/// previous behaviour.
pub fn install_quiet_hook() {
    HOOK_INIT.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|quiet| quiet.get()) {
                previous(info);
            }
        }));
    });
}

/// RAII opt-in to quiet panics on the current thread; dropping restores
/// the thread's previous loudness.
#[derive(Debug)]
pub struct QuietPanicsGuard(());

impl QuietPanicsGuard {
    /// Quiets supervised panics on this thread until the guard drops.
    #[must_use]
    pub fn enter() -> Self {
        QUIET_PANICS.with(|quiet| quiet.set(true));
        QuietPanicsGuard(())
    }
}

impl Drop for QuietPanicsGuard {
    fn drop(&mut self) {
        QUIET_PANICS.with(|quiet| quiet.set(false));
    }
}

/// Extracts the human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        String::from("panic with non-string payload")
    }
}

/// One supervisor's tally, merged into [`crate::FleetHealth`] at the end
/// of the run (pure sums: merge order cannot change the report).
#[derive(Debug, Default, Clone)]
pub struct Supervision {
    /// Devices that needed at least one retry.
    pub retried: usize,
    /// Retried devices that eventually completed.
    pub recovered: usize,
    /// Devices abandoned past the retry budget.
    pub abandoned: usize,
    /// Chaos-injected panics recognized by their message prefix.
    pub chaos_panics: u64,
}

impl Supervision {
    /// Adds another tally into this one (plain sums).
    pub fn merge(&mut self, other: &Supervision) {
        self.retried += other.retried;
        self.recovered += other.recovered;
        self.abandoned += other.abandoned;
        self.chaos_panics += other.chaos_panics;
    }

    /// Seeds a [`crate::FleetHealth`] from this tally — the one place
    /// the supervisor's accounting turns into report fields, shared by
    /// the batch engine and the streaming service. Every chaos panic was
    /// both injected and caught (caught-but-abandoned still counts as
    /// detected: it became a failure entry, not a crashed run).
    #[must_use]
    pub fn health(&self) -> crate::FleetHealth {
        let mut health = crate::FleetHealth {
            devices_retried: self.retried,
            devices_recovered: self.recovered,
            devices_abandoned: self.abandoned,
            ..crate::FleetHealth::default()
        };
        if self.chaos_panics > 0 {
            health
                .faults_injected
                .insert(String::from("device_panic"), self.chaos_panics);
            health
                .faults_detected
                .insert(String::from("device_panic"), self.chaos_panics);
        }
        health
    }
}

/// Side channels a supervisor can attach to one device run. All of them
/// are strictly observational: the device report is byte-identical with
/// or without any hook attached.
#[derive(Default)]
pub struct SuperviseHooks<'a> {
    /// Bounded telemetry ring, reset per attempt and dumped into the
    /// [`DeviceFailure`] on abandonment.
    pub flight: Option<&'a Arc<FlightRecorder>>,
    /// Live run-wide health counters (retries, chaos panics).
    pub observatory: Option<&'a FleetObservatory>,
    /// Called after every completed session with the device's progress
    /// snapshot — the streaming service forwards these into its ingest
    /// lane as checkpoint events. Called inside the panic boundary, so
    /// the hook must tolerate the attempt unwinding right after it runs.
    pub on_checkpoint: Option<&'a (dyn Fn(DeviceCheckpoint) + 'a)>,
}

/// Deterministic per-attempt backoff before a device retry: a short,
/// seeded pause so a transiently-wedged host resource (the fault model
/// for a panic that a retry can survive) gets time to clear.
fn retry_backoff(fleet_seed: u64, index: usize, attempt: u32) -> std::time::Duration {
    let mix = device_seed(fleet_seed ^ u64::from(attempt).wrapping_mul(0x9E37), index);
    std::time::Duration::from_millis(1 + mix % 5)
}

/// Supervises one device: bounded retries with seeded backoff, partial
/// progress salvaged through a checkpoint cell updated by the simulation.
/// The device's lifecycle intent log is mirrored into a recorder that
/// survives the unwinding, reset per attempt and dumped into the
/// [`DeviceFailure`] (and the flight dump's `intent_tail`) on abandonment
/// — the replay input for `eandroid replay`. When a flight recorder is
/// attached, the ring is likewise cleared before every attempt (so a dump
/// never mixes attempts) and snapshotted into the failure.
// The Err arm is the full forensics bundle (checkpoint + flight dump +
// intent-log tail); it only materializes on the cold abandonment path,
// where its size is irrelevant.
#[allow(clippy::result_large_err)]
pub fn supervise_device(
    config: &FleetConfig,
    corpus: &[ea_framework::AppManifest],
    index: usize,
    tally: &mut Supervision,
    hooks: &SuperviseHooks<'_>,
) -> Result<DeviceReport, DeviceFailure> {
    let checkpoint = std::cell::Cell::new(None);
    let intents = Arc::new(IntentLogRecorder::new(INTENT_LOG_CAPACITY));
    let flight_handle = hooks
        .flight
        .map(|recorder| SinkHandle::new(recorder.clone()));
    let mut attempts = 0u32;
    loop {
        if let Some(recorder) = hooks.flight {
            recorder.reset();
        }
        intents.reset();
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            let on_checkpoint = |snapshot: DeviceCheckpoint| {
                checkpoint.set(Some(snapshot));
                if let Some(forward) = hooks.on_checkpoint {
                    forward(snapshot);
                }
            };
            simulate_device_forensic(
                config,
                corpus,
                index,
                attempts,
                &on_checkpoint,
                flight_handle.as_ref(),
                Some(&intents),
            )
        }));
        attempts += 1;
        match result {
            Ok(report) => {
                if attempts > 1 {
                    tally.recovered += 1;
                }
                return Ok(report);
            }
            Err(payload) => {
                let message = panic_message(payload);
                if message.contains(CHAOS_PANIC_PREFIX) {
                    tally.chaos_panics += 1;
                    if let Some(observatory) = hooks.observatory {
                        observatory.chaos_panic();
                    }
                }
                if attempts > config.max_retries {
                    tally.abandoned += 1;
                    let intent_log = intents.dump();
                    // The flight dump and the intent log travel as one
                    // forensics bundle: stitch the log tail into the dump
                    // so either artifact alone suffices for replay.
                    let flight_recorder = hooks.flight.map(|recorder| {
                        let mut dump = recorder.dump();
                        dump.intent_tail = serde_json::to_string(&intent_log)
                            .ok()
                            .and_then(|text| serde_json::from_str(&text).ok());
                        dump
                    });
                    return Err(DeviceFailure {
                        index,
                        seed: device_seed(config.seed, index),
                        message,
                        attempts,
                        checkpoint: checkpoint.get(),
                        flight_recorder,
                        intent_log: Some(intent_log),
                    });
                }
                if attempts == 1 {
                    tally.retried += 1;
                    if let Some(observatory) = hooks.observatory {
                        observatory.device_retried();
                    }
                }
                std::thread::sleep(retry_backoff(config.seed, index, attempts));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_corpus::{generate_corpus, CorpusConfig};

    fn corpus_for(config: &FleetConfig) -> Vec<ea_framework::AppManifest> {
        generate_corpus(
            &CorpusConfig {
                size: config.corpus_size,
                ..CorpusConfig::paper()
            },
            config.corpus_seed,
        )
    }

    #[test]
    fn checkpoint_hook_sees_every_session() {
        let config = FleetConfig::smoke(1, 17);
        let corpus = corpus_for(&config);
        let seen = std::cell::RefCell::new(Vec::new());
        let hook = |snapshot: DeviceCheckpoint| seen.borrow_mut().push(snapshot);
        let hooks = SuperviseHooks {
            on_checkpoint: Some(&hook),
            ..SuperviseHooks::default()
        };
        let mut tally = Supervision::default();
        let report = supervise_device(&config, &corpus, 0, &mut tally, &hooks)
            .unwrap_or_else(|failure| panic!("device failed: {}", failure.message));
        let seen = seen.into_inner();
        assert_eq!(seen.len(), config.sessions);
        let last = seen[seen.len() - 1];
        assert_eq!(last.sessions_completed, config.sessions);
        assert_eq!(last.drained_joules, report.drained_joules);
        assert!(
            seen.windows(2)
                .all(|pair| pair[0].sessions_completed < pair[1].sessions_completed),
            "checkpoints arrive in session order"
        );
    }

    #[test]
    fn abandonment_salvages_the_last_checkpoint() {
        install_quiet_hook();
        let _quiet = QuietPanicsGuard::enter();
        let config = FleetConfig {
            max_retries: 1,
            panic_devices: vec![0],
            ..FleetConfig::smoke(1, 5)
        };
        let corpus = corpus_for(&config);
        let mut tally = Supervision::default();
        let failure =
            match supervise_device(&config, &corpus, 0, &mut tally, &SuperviseHooks::default()) {
                Err(failure) => failure,
                Ok(_) => panic!("panic device must be abandoned"),
            };
        assert_eq!(failure.attempts, 2);
        assert_eq!(tally.abandoned, 1);
        assert_eq!(tally.retried, 1);
        // The injected panic fires before session 0, so no salvage here —
        // but the message is preserved verbatim.
        assert!(failure.message.contains("injected fault"));
    }
}
