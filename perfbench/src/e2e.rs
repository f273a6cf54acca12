//! The untraced end-to-end runs: production entry points only
//! (`run_fleet`, `run_serve` and its socket protocol, `generate_corpus`,
//! `Linter::lint_manifests`), default knobs, no probes inside the timed
//! region.

use std::path::Path;
use std::time::Instant;

use ea_fleet::{run_fleet, FleetConfig};
use ea_lint::Linter;

use crate::calibrate::host_factor;
use crate::client::serve_session;
use crate::common::{
    check_fleet_report, cpu_ms, derive_seed, median, paper_corpus, peak_rss_mb, quantile, Workload,
};
use crate::Outcome;

/// Set-up rounds per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 15;
/// Open-loop query rate of the `serve_query` client, queries/s.
pub const QUERY_RATE: f64 = 200.0;

/// What every workload's loop accumulates. The loop times its work in
/// slices of a tenth of a second to a second, each calibrated by the
/// host factor measured just before it, and the figures are slice
/// medians: a slice that a neighbour slowed moves a median far less than
/// a sum.
#[derive(Default)]
struct Tally {
    wall_s: f64,
    rates: Vec<f64>,
    cpu_per_unit: Vec<f64>,
    raw_rates: Vec<f64>,
    factors: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// One slice: `units` of work done in `wall_s` seconds and `cpu_ms`
    /// of process CPU, on a host `factor` times slower than nominal.
    fn add(&mut self, wall_s: f64, cpu_ms: f64, units: f64, factor: f64) {
        self.wall_s += wall_s;
        let rate = units / wall_s.max(1e-9);
        self.raw_rates.push(rate);
        self.factors.push(factor);
        self.rates.push(rate * factor);
        self.cpu_per_unit.push(cpu_ms / units.max(1.0) / factor);
    }

    fn finish(self, workload: Workload, setups: &Setups, out: &mut Outcome) {
        let unit = if workload == Workload::LintCorpus {
            "apps"
        } else {
            "devices"
        };
        let per_s = median(&self.rates);
        let cpu_per_unit = median(&self.cpu_per_unit);
        out.metric("setup_s", median(&setups.calibrated), "s");
        out.metric("units_per_s", per_s, "1/s");
        out.metric("cpu_ms_per_unit", cpu_per_unit, "ms");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        out.note(&format!("{unit}_per_s"), per_s, "1/s");
        let per_unit = if unit == "apps" { "app" } else { "device" };
        out.note(&format!("cpu_ms_per_{per_unit}"), cpu_per_unit, "ms");
        out.note("measured_s", self.wall_s, "s");
        out.note("slices", self.rates.len() as f64, "count");
        out.note("setup_rounds", setups.calibrated.len() as f64, "count");
        out.note("setup_s_raw", median(&setups.raw), "s");
        out.note(&format!("{unit}_per_s_raw"), median(&self.raw_rates), "1/s");
        out.note("host_factor", median(&self.factors), "ratio");
        out.attempted += self.attempted;
        out.failed += self.failed;
        out.problems.extend(self.problems);
    }
}

/// Set-up times of a run, raw and calibrated, seconds.
#[derive(Default)]
struct Setups {
    raw: Vec<f64>,
    calibrated: Vec<f64>,
}

impl Setups {
    fn add(&mut self, raw_s: f64, factor: f64) {
        self.raw.push(raw_s);
        self.calibrated.push(raw_s / factor);
    }
}

/// Runs `setup` `SETUP_ROUNDS` times, each timed and calibrated, and
/// returns its last result.
fn set_up<T>(mut setup: impl FnMut() -> T) -> (T, Setups) {
    let mut setups = Setups::default();
    let mut last = None;
    for _ in 0..SETUP_ROUNDS {
        let factor = host_factor();
        let started = Instant::now();
        let value = std::hint::black_box(setup());
        setups.add(started.elapsed().as_secs_f64(), factor);
        last = Some(value);
    }
    (last.expect("SETUP_ROUNDS is positive"), setups)
}

pub fn run(workload: Workload, seed: u64, seconds: f64, out: &mut Outcome) {
    match workload {
        Workload::FleetShortDay | Workload::FleetLongDay => fleet(workload, seed, seconds, out),
        Workload::ServeQuery => serve(seed, seconds, out),
        Workload::LintCorpus => lint(seed, seconds, out),
    }
}

/// Back-to-back single-worker `run_fleet` calls of the workload's shape.
fn fleet(workload: Workload, seed: u64, seconds: f64, out: &mut Outcome) {
    let corpus_seed = derive_seed(seed, 0);
    let ((corpus, shape), setups) = set_up(|| {
        (
            paper_corpus(corpus_seed),
            workload.device_shape(corpus_seed),
        )
    });
    let size = workload.fleet_size();
    let mut tally = Tally::default();
    let mut fleets = 0u64;
    while fleets == 0 || tally.wall_s < seconds {
        let config = FleetConfig {
            seed: derive_seed(seed, 1 + fleets),
            size,
            ..shape.clone()
        };
        let factor = host_factor();
        let cpu_before = cpu_ms();
        let started = Instant::now();
        let (report, _) = run_fleet(&config);
        tally.add(
            started.elapsed().as_secs_f64(),
            cpu_ms() - cpu_before,
            report.devices_completed as f64,
            factor,
        );
        tally.attempted += size as u64;
        let probe = (derive_seed(seed, u64::MAX - fleets) % size as u64) as usize;
        let problems = check_fleet_report(&report, &config, &corpus, probe);
        tally.failed += if problems.is_empty() {
            report.failures.len() as u64
        } else {
            size as u64
        };
        tally
            .problems
            .extend(problems.into_iter().map(|p| format!("fleet {fleets}: {p}")));
        fleets += 1;
    }
    tally.finish(workload, &setups, out);
}

/// Back-to-back one-lane `run_serve` streams, each queried by the
/// open-loop client and checked against the batch report.
fn serve(seed: u64, seconds: f64, out: &mut Outcome) {
    let workload = Workload::ServeQuery;
    let corpus_seed = derive_seed(seed, 0);
    let corpus = paper_corpus(corpus_seed);
    let shape = workload.device_shape(corpus_seed);
    let size = workload.fleet_size();
    let socket_dir = Path::new(crate::SCRATCH_DIR);
    let mut tally = Tally::default();
    let mut setups = Setups::default();
    let (mut latencies, mut late, mut events) = (Vec::new(), Vec::new(), 0u64);
    let mut streams = 0u64;
    while streams == 0 || tally.wall_s < seconds {
        let config = FleetConfig {
            seed: derive_seed(seed, 1 + streams),
            size,
            ..shape.clone()
        };
        let socket = socket_dir.join(format!("serve-{}-{streams}.sock", std::process::id()));
        let factor = host_factor();
        let mut session = serve_session(config.clone(), &socket, QUERY_RATE);
        setups.add(session.setup_s, factor);
        let completed = session
            .served
            .as_ref()
            .map_or(0.0, |(report, _)| report.devices_completed as f64);
        tally.add(session.stream_s, session.cpu_ms, completed, factor);
        tally.attempted += size as u64 + session.queries;
        tally.failed += session.queries_failed;
        latencies.extend(session.all_latencies_ms());
        late.extend(session.late_ms.iter().copied());

        let mut problems = std::mem::take(&mut session.problems);
        let mut abandoned = 0;
        match session.served.take() {
            Some((report, stats)) => {
                events += stats.events_ingested;
                let probe = (derive_seed(seed, u64::MAX - streams) % size as u64) as usize;
                problems.extend(check_fleet_report(&report, &config, &corpus, probe));
                abandoned = report.failures.len() as u64;
                drop(report);
                // The --jobs/--lanes invariance: the one-lane stream's
                // report equals a two-worker batch run, byte for byte.
                let (batch, _) = run_fleet(&FleetConfig { jobs: 2, ..config });
                if serde_json::to_string(&batch).ok().as_deref() != Some(&session.report_reply) {
                    problems.push(String::from("report reply differs from the batch report"));
                }
            }
            None => problems.push(String::from("run_serve returned no report")),
        }
        tally.failed += if problems.is_empty() {
            abandoned
        } else {
            size as u64
        };
        tally.problems.extend(
            problems
                .into_iter()
                .map(|p| format!("stream {streams}: {p}")),
        );
        streams += 1;
    }
    out.note(
        "events_per_s",
        events as f64 / tally.wall_s.max(1e-9),
        "1/s",
    );
    out.note("query_ms_p50", quantile(&mut latencies, 0.50), "ms");
    out.note("query_ms_p99", quantile(&mut latencies, 0.99), "ms");
    out.note("query_samples", latencies.len() as f64, "count");
    out.note("client_late_ms_p99", quantile(&mut late, 0.99), "ms");
    tally.finish(workload, &setups, out);
}

/// Repeated `Linter::lint_manifests` passes over the paper corpus.
fn lint(seed: u64, seconds: f64, out: &mut Outcome) {
    let corpus_seed = derive_seed(seed, 0);
    let (corpus, setups) = set_up(|| paper_corpus(corpus_seed));
    let mut tally = Tally::default();
    let mut passes = 0u64;
    let mut first_len = None;
    while passes == 0 || tally.wall_s < seconds {
        let factor = host_factor();
        let cpu_before = cpu_ms();
        let started = Instant::now();
        let report = Linter::new().lint_manifests(&corpus);
        tally.add(
            started.elapsed().as_secs_f64(),
            cpu_ms() - cpu_before,
            report.apps_checked as f64,
            factor,
        );
        tally.attempted += corpus.len() as u64;
        let mut problems = Vec::new();
        if report.apps_checked != 1_124 {
            problems.push(format!("apps_checked {} != 1124", report.apps_checked));
        }
        let mut ranks: Vec<usize> = report.diagnostics.iter().map(|d| d.energy_rank).collect();
        ranks.sort_unstable();
        if ranks.iter().enumerate().any(|(i, &rank)| rank != i + 1) {
            problems.push(String::from("energy ranks are not a 1-based permutation"));
        }
        if *first_len.get_or_insert(report.len()) != report.len() {
            problems.push(String::from("diagnostic count changed between passes"));
        }
        if !problems.is_empty() {
            tally.failed += corpus.len() as u64;
        }
        tally
            .problems
            .extend(problems.into_iter().map(|p| format!("pass {passes}: {p}")));
        passes += 1;
    }
    tally.finish(Workload::LintCorpus, &setups, out);
}
