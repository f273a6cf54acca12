//! Fleet configuration and the per-device seed schedule.

use ea_chaos::FaultPlan;
use serde::{Deserialize, Serialize};

/// Device `index`'s seed: position `index + 1` of the splitmix64 stream
/// started at the fleet seed (the shared [`ea_core::rng`] helper). Pure
/// function of `(fleet_seed, index)`, so a device's whole simulation is
/// independent of which worker thread runs it and of how many workers
/// exist.
pub fn device_seed(fleet_seed: u64, index: usize) -> u64 {
    ea_core::rng::splitmix64_stream(fleet_seed, index as u64)
}

/// Configuration of one fleet run. Everything that influences the
/// simulation is here; `jobs` only chooses the thread count and never
/// changes the [`crate::FleetReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Fleet seed: every device seed derives from it via splitmix64.
    pub seed: u64,
    /// Number of devices to simulate.
    pub size: usize,
    /// Worker threads; `0` means `std::thread::available_parallelism()`.
    pub jobs: usize,
    /// Seed of the shared synthetic Play corpus the app mixes sample from.
    pub corpus_seed: u64,
    /// Size of the shared corpus (the paper's collection is 1,124).
    pub corpus_size: usize,
    /// Minimum corpus apps installed per device (besides the demo set).
    pub min_apps: usize,
    /// Maximum corpus apps installed per device.
    pub max_apps: usize,
    /// Probability a device carries the energy malware.
    pub infection_rate: f64,
    /// Probability an uninfected device exhibits the benign no-sleep bug.
    pub benign_bug_rate: f64,
    /// User sessions (unlock → interact → pocket) in the scripted day.
    pub sessions: usize,
    /// Mean attended seconds per session.
    pub mean_session_secs: u64,
    /// Mean pocketed seconds between sessions.
    pub mean_idle_secs: u64,
    /// Profiler integration step in milliseconds.
    pub step_millis: u64,
    /// Device indices whose workload deliberately panics (fault-injection
    /// testing of the shard-failure path).
    pub panic_devices: Vec<usize>,
    /// Fault-injection plan, applied to every device on its own lane
    /// (counter glitches, framework faults, device panics, slow devices,
    /// poisoned corpus entries). `None` — or a zero-rate plan — leaves the
    /// report byte-identical to a fault-free run.
    #[serde(default)]
    pub faults: Option<FaultPlan>,
    /// Retries the supervisor grants a panicked device before abandoning
    /// it (the per-device fault budget).
    #[serde(default = "default_max_retries")]
    pub max_retries: u32,
    /// Flight-recorder ring capacity: each device keeps this many recent
    /// telemetry events, attached to its [`crate::DeviceFailure`] if it
    /// is abandoned. `0` (the default) disables the recorder — it routes
    /// every framework/profiler emission through a sink, which costs
    /// several times the bare step (the benchmark's traced run reports it
    /// as `trace.overhead_per_s`), so it is strictly opt-in. The ring is sim-time stamped, so enabling it
    /// never changes the report of devices that complete.
    #[serde(default)]
    pub flight_recorder: usize,
}

fn default_max_retries() -> u32 {
    2
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 2_026,
            size: 64,
            jobs: 0,
            corpus_seed: 2_017,
            corpus_size: 1_124,
            min_apps: 4,
            max_apps: 16,
            infection_rate: 0.30,
            benign_bug_rate: 0.15,
            sessions: 2,
            mean_session_secs: 25,
            mean_idle_secs: 45,
            step_millis: 250,
            panic_devices: Vec::new(),
            faults: None,
            max_retries: default_max_retries(),
            flight_recorder: 0,
        }
    }
}

impl FleetConfig {
    /// A small, fast configuration for tests: tiny corpus, short day.
    pub fn smoke(size: usize, seed: u64) -> Self {
        FleetConfig {
            seed,
            size,
            corpus_size: 48,
            min_apps: 2,
            max_apps: 6,
            sessions: 2,
            mean_session_secs: 10,
            mean_idle_secs: 20,
            ..FleetConfig::default()
        }
    }

    /// This configuration with every execution-only knob reset to its
    /// default: worker count and the flight-recorder capacity. None of these may change a device's
    /// outcome, so two runs that are byte-identical by contract normalize
    /// to the same config — which is what lets [`crate::FleetReport`]
    /// embed it as the replay recipe.
    #[must_use]
    pub fn normalized_for_replay(&self) -> Self {
        FleetConfig {
            jobs: 0,
            flight_recorder: 0,
            // A zero-rate plan is a strict no-op by contract, so it
            // normalizes away: attaching one must not change the report.
            faults: self.faults.filter(|plan| !plan.is_zero()),
            ..self.clone()
        }
    }

    /// The worker-thread count this run will actually use.
    pub fn effective_jobs(&self) -> usize {
        match self.jobs {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_seeds_are_stable_and_distinct() {
        let a = device_seed(42, 0);
        assert_eq!(a, device_seed(42, 0), "pure function of (seed, index)");
        let seeds: Vec<u64> = (0..1_000).map(|i| device_seed(42, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "no collisions in 1k devices");
    }

    #[test]
    fn different_fleet_seeds_give_different_schedules() {
        assert_ne!(device_seed(1, 0), device_seed(2, 0));
    }

    #[test]
    fn missing_defaulted_fields_take_their_defaults() {
        // Only the fields without a `#[serde(default ...)]`.
        let text = r#"{"seed":2026,"size":64,"jobs":0,"corpus_seed":2017,
            "corpus_size":1124,"min_apps":4,"max_apps":16,"infection_rate":0.3,
            "benign_bug_rate":0.15,"sessions":2,"mean_session_secs":25,
            "mean_idle_secs":45,"step_millis":250,"panic_devices":[]}"#;
        let parsed: FleetConfig = serde_json::from_str(text).expect("defaults fill the gaps");
        assert_eq!(parsed, FleetConfig::default());
    }

    #[test]
    fn effective_jobs_resolves_zero() {
        let mut config = FleetConfig {
            jobs: 0,
            ..FleetConfig::default()
        };
        assert!(config.effective_jobs() >= 1);
        config.jobs = 3;
        assert_eq!(config.effective_jobs(), 3);
    }
}
