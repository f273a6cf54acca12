//! End-to-end and per-layer benchmark of the E-Android workspace.
//!
//! ```text
//! perfbench --workload <fleet_short_day|fleet_long_day|serve_query|lint_corpus>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload end to end through the production
//! entry points; `--trace 1` runs the per-layer probes instead. The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it name the
//! host and repeat every figure with its unit. See `README.md`.

mod calibrate;
mod client;
mod common;
mod e2e;
mod traced;

use std::fmt::Write as _;
use std::process::ExitCode;

use common::Workload;

/// Working directory for the service's sockets, relative to the current
/// directory; removed when the run ends.
pub const SCRATCH_DIR: &str = ".perfbench-run";

/// What a run measured and whether its outputs checked out.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// The figures the final JSON line carries.
    metrics: Vec<(String, f64, &'static str)>,
    /// Further figures for the human-readable lines only.
    notes: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.push((name.to_string(), value, unit));
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <fleet_short_day|fleet_long_day|serve_query|lint_corpus> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(String::from("--seconds must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(String::from("--trace must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// `nproc`, CPU model, compiler and commit, for every result.
fn host_line(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| String::from("unknown"));
    // Only the current directory's own repository: the benchmark may run
    // from a plain copy of the tree nested inside some other checkout.
    let commit = std::process::Command::new("git")
        .args(["--git-dir", ".git", "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|text| text.trim().to_string())
        .unwrap_or_else(|| String::from("unknown"));
    format!(
        "# host nproc={nproc} cpu={cpu:?} rustc={:?} commit={commit} workload={} seed={} seconds={} trace={}",
        env!("PERFBENCH_RUSTC"),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_line(&args));
    if let Err(error) = std::fs::create_dir_all(SCRATCH_DIR) {
        eprintln!("perfbench: cannot create {SCRATCH_DIR}: {error}");
        return ExitCode::FAILURE;
    }

    let mut outcome = Outcome::default();
    if args.trace {
        traced::run(args.workload, args.seed, args.seconds, &mut outcome);
    } else {
        e2e::run(args.workload, args.seed, args.seconds, &mut outcome);
    }
    let _ = std::fs::remove_dir_all(SCRATCH_DIR);

    for (name, value, _) in &outcome.metrics {
        if !value.is_finite() {
            outcome.problems.push(format!("{name} is not finite"));
        }
    }
    let correct = outcome.problems.is_empty();
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let name = args.workload.name();
    for (metric, value, unit) in outcome.metrics.iter().chain(&outcome.notes) {
        println!("{name} {metric} {value} {unit}");
    }
    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{name} correct={correct} attempted={} failed={} failed_ratio={failed_ratio}",
        outcome.attempted, outcome.failed
    );

    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (metric, value, unit)) in outcome.metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    json.push_str("}}");
    println!("{json}");
    ExitCode::SUCCESS
}
