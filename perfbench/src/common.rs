//! Shared pieces: workload shapes, seeds, process counters, the single
//! per-device entry point, and the fleet-report correctness checks.

use std::time::Instant;

use ea_corpus::{generate_corpus, CorpusConfig};
use ea_fleet::{DeviceCheckpoint, DeviceReport, FleetConfig, FleetReport};
use ea_framework::AppManifest;

/// The four workloads, each loading one layer and starving another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetShortDay,
    FleetLongDay,
    ServeQuery,
    LintCorpus,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fleet_short_day" => Some(Workload::FleetShortDay),
            "fleet_long_day" => Some(Workload::FleetLongDay),
            "serve_query" => Some(Workload::ServeQuery),
            "lint_corpus" => Some(Workload::LintCorpus),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetShortDay => "fleet_short_day",
            Workload::FleetLongDay => "fleet_long_day",
            Workload::ServeQuery => "serve_query",
            Workload::LintCorpus => "lint_corpus",
        }
    }

    /// The device shape this workload simulates (`lint_corpus` simulates
    /// no devices; its traced run probes the default shape). `size` and
    /// `seed` are filled in per fleet.
    ///
    /// Every shape runs one worker: at two workers on a two-CPU host the
    /// fleet's devices/s swung more than 2x between identical runs, at
    /// one worker it stayed within a few percent.
    pub fn device_shape(self, corpus_seed: u64) -> FleetConfig {
        let base = FleetConfig {
            jobs: 1,
            corpus_seed,
            ..FleetConfig::default()
        };
        match self {
            // Sixteen apps and one short session: install plus the
            // pre-run `lint_system` fixpoint is most of a device.
            Workload::FleetShortDay => FleetConfig {
                min_apps: 16,
                max_apps: 16,
                sessions: 1,
                mean_session_secs: 3,
                mean_idle_secs: 3,
                ..base
            },
            // Twelve long sessions: stepping is over 90% of a device.
            Workload::FleetLongDay => FleetConfig {
                sessions: 12,
                mean_session_secs: 60,
                mean_idle_secs: 240,
                ..base
            },
            Workload::ServeQuery | Workload::LintCorpus => base,
        }
    }

    /// Devices per `run_fleet` call or per service stream: short slices,
    /// a tenth to a quarter of a second on a 2 GHz-class core, give a run
    /// many to take the median of. A stream is longer: the client
    /// notices its end to within one snapshot period (10 ms), which must
    /// stay small against it.
    pub fn fleet_size(self) -> usize {
        match self {
            Workload::FleetShortDay => 256,
            Workload::FleetLongDay => 16,
            Workload::ServeQuery | Workload::LintCorpus => 1_024,
        }
    }
}

/// Input `stream` of the workload seed: the corpus seed is stream 0,
/// fleet `n` is stream `n + 1`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    ea_sim::splitmix64_stream(seed, stream)
}

/// The paper's 1,124-app corpus drawn from `corpus_seed`.
pub fn paper_corpus(corpus_seed: u64) -> Vec<AppManifest> {
    generate_corpus(&CorpusConfig::paper(), corpus_seed)
}

/// Times `setup` `rounds` times and returns the last result with every
/// duration in seconds.
pub fn timed_rounds<T>(rounds: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(rounds);
    let mut last = None;
    for _ in 0..rounds.max(1) {
        let started = Instant::now();
        let value = std::hint::black_box(setup());
        times.push(started.elapsed().as_secs_f64());
        last = Some(value);
    }
    (last.expect("at least one round ran"), times)
}

/// The one call into the per-device simulation, shared by the traced
/// runner and the re-simulation check. When the `simulate_device*`
/// family collapses, this line is the only one to change.
pub fn simulate_one(
    config: &FleetConfig,
    corpus: &[AppManifest],
    index: usize,
    on_checkpoint: &dyn Fn(DeviceCheckpoint),
) -> DeviceReport {
    ea_fleet::simulate_device_observed(config, corpus, index, 0, on_checkpoint, None)
}

/// Checks one fleet report: every device accounted for, static ⊇
/// dynamic, and device `probe` re-simulated alone matches its row.
/// Returns the problems found (empty when correct).
pub fn check_fleet_report(
    report: &FleetReport,
    config: &FleetConfig,
    corpus: &[AppManifest],
    probe: usize,
) -> Vec<String> {
    let mut problems = Vec::new();
    if report.devices_completed + report.failures.len() != config.size {
        problems.push(format!(
            "devices_completed {} + failures {} != size {}",
            report.devices_completed,
            report.failures.len(),
            config.size
        ));
    }
    if report.lint.superset_violations != 0 {
        problems.push(format!(
            "lint.superset_violations = {}",
            report.lint.superset_violations
        ));
    }
    match report.devices.iter().find(|row| row.index == probe) {
        None => problems.push(format!("device {probe} has no row")),
        Some(row) => {
            let alone = simulate_one(config, corpus, probe, &|_| {});
            let matches = row.seed == alone.seed
                && row.infected == alone.infected
                && row.apps == alone.apps_installed
                && row.drained_joules.to_bits() == alone.drained_joules.to_bits();
            if !matches {
                problems.push(format!(
                    "device {probe} re-simulated alone differs from its row"
                ));
            }
        }
    }
    problems
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process user plus system CPU time so far, milliseconds: every thread,
/// ended ones included, at nanosecond resolution.
pub fn cpu_ms() -> f64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable `struct timespec` that outlives
    // the call, and the clock id is a constant the kernel accepts.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    if status != 0 {
        return 0.0;
    }
    now.tv_sec as f64 * 1e3 + now.tv_nsec as f64 / 1e6
}

/// Peak resident set size of the process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Linear-interpolated quantile `q` of `values` (sorted in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&mut values.to_vec(), 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
