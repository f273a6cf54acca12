//! `eandroid` — command-line front end to the E-Android reproduction.
//!
//! ```text
//! eandroid scenario <name|all> [--mode android|eandroid] [--policy separate|foreground] [--routines] [--timeline] [--detect]
//! eandroid depletion [<case>|all] [--cap-hours N]
//! eandroid corpus [--seed N] [--size N] [--show-xml]
//! eandroid micro [--runs N]
//! eandroid antutu
//! eandroid workload [--seed N] [--sessions N]
//! eandroid fleet [--size N] [--seed N] [--jobs J] [--json] [--trace <base>] [--faults <rate|plan.json>] [--watch] [--heartbeat <path>] [--flight-recorder N]
//! eandroid replay <report.json> [--healthy N] [--json]
//! eandroid metrics [--size N] [--seed N] [--jobs J] [--json]
//! eandroid serve [--size N] [--seed N] [--lanes L] [--socket <path>] [--hold] [--json] [--watch] [--heartbeat <path>]
//! eandroid query [--socket <path>] <ping|snapshot|window|report|shutdown>
//! eandroid chaos [--seed N] [--fleet-size N] [--quick] [--json]
//! eandroid list
//! eandroid help
//! ```
//!
//! Argument parsing is hand-rolled: the interface is small and the workspace
//! keeps its dependency set minimal (see DESIGN.md §6).

use std::process::ExitCode;

use e_android::apps::{run_depletion, DepletionCase, Scenario};
use e_android::chaos::FaultPlan;
use e_android::core::{
    labels_from, AttackTimeline, BatteryView, DetectorConfig, Profiler, ScreenPolicy,
};
use e_android::corpus::{analyze, generate_corpus, to_manifest_xml, CorpusConfig};
use e_android::fleet::{run_fleet_traced, FleetConfig};
use e_android::framework::AndroidSystem;
use e_android::lint::{render, BaselineDiff, LintSystem, Linter};
use e_android::metrics::{FleetObservatory, SnapshotEmitter};
use e_android::serve::{run_serve, Request, ServeConfig};
use e_android::telemetry::SinkHandle;

const HELP: &str = "\
eandroid — collateral-energy profiling on a simulated Android handset

USAGE:
    eandroid <command> [options]

COMMANDS:
    scenario <name|all>   run a paper scenario and print the battery views
        --mode android|eandroid    profiler mode (default eandroid)
        --policy separate|foreground
                                   screen policy (default separate)
        --routines                 also print the eprof-style routine split
        --timeline                 also print the attack-period timeline
        --detect                   also print the collateral-bug report
        --faults <rate|plan.json>  inject seeded faults (DESIGN.md \u{a7}11)
        --fault-seed N             fault-plan seed (default 2026)
    depletion [<case>|all]  replay the Figure 3 battery race
        --cap-hours N              stop after N simulated hours (default 24)
    corpus                  generate + analyze the Figure 2 corpus
        --seed N                   RNG seed (default 2017)
        --size N                   corpus size (default 1124)
        --show-xml                 print the first manifest as XML
    micro                   run the Figure 10 micro-benchmark matrix
        --runs N                   samples per op/config (default 50)
    antutu                  run the Figure 11 parity benchmark
    lint [demo|corpus]      static collateral-energy analysis (rules EA0001-EA0009)
        --json                     emit the report as JSON (schema v2)
        --baseline <report.json>   diff against a saved JSON report; exit 1
                                   iff new findings are introduced, exit 2
                                   if the baseline is unreadable or malformed
        --rules                    list the rule registry and exit
        --seed N                   corpus RNG seed (default 2017)
        --size N                   corpus size (default 1124)
    workload                simulate a randomized day of phone use
        --seed N                   RNG seed (default 7)
        --sessions N               user sessions (default 10)
    fleet                   simulate a fleet of devices and aggregate
        --size N                   devices to simulate (default 64)
        --seed N                   fleet seed (default 2026)
        --jobs J                   worker threads (default: all cores)
        --json                     emit the deterministic report as JSON
        --trace <base>             export telemetry to <base>.jsonl + <base>.trace.json
        --inject-panic N           fault-inject a panic into device N
        --faults <rate|plan.json>  inject seeded faults into every device
        --watch                    live fleet-health line on stderr while running
        --heartbeat <path>         write JSONL health snapshots to <path>
        --flight-recorder N        keep the last N telemetry events per device,
                                   dumped into the report on device abandonment
    replay <report.json>    re-execute every failure recorded in a fleet
                            report and verify it reproduces exactly; exit 1
                            on a divergence, exit 2 if the report is
                            unreadable, not a fleet report, or embeds a
                            fault rate outside [0, 1]
        --healthy N                also re-simulate N completed devices
                                   and diff them against their rows
        --json                     emit the replay verdicts as JSON
    metrics                 run a fleet and print its health snapshot
        --json                     one JSONL snapshot instead of Prometheus text
        (also accepts the fleet sizing/fault/watch/heartbeat flags above)
    serve                   stream the fleet through the ingest service
        --lanes L                  ingest lanes (default: all cores)
        --window N                 lane events per ingest window (default 64)
        --socket <path>            serve snapshot queries on a Unix socket
        --hold                     keep serving after the stream drains,
                                   until a shutdown query arrives
        (also accepts the fleet sizing/fault/watch/heartbeat flags above;
         the final report is byte-identical to `eandroid fleet`)
    query <op>              query a running serve instance; ops: ping,
                            snapshot, window, report, shutdown
        --socket <path>            the service's socket (required)
        --retries N                connection attempts (default 40)
        --retry-delay-ms N         pause between attempts (default 250)
    chaos                   run the deterministic fault-injection soak
        --seed N                   fault-plan seed (default 2026)
        --fleet-size N             devices in the fleet leg (default 64)
        --quick                    one moderate rate instead of the ladder
        --json                     emit the soak report as JSON
    list                    list scenario and depletion-case names
    help                    this text
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut args = args.iter().map(String::as_str);
    match args.next() {
        Some("scenario") => cmd_scenario(&args.collect::<Vec<_>>()),
        Some("depletion") => cmd_depletion(&args.collect::<Vec<_>>()),
        Some("corpus") => cmd_corpus(&args.collect::<Vec<_>>()),
        Some("micro") => cmd_micro(&args.collect::<Vec<_>>()),
        Some("antutu") => cmd_antutu(),
        Some("lint") => cmd_lint(&args.collect::<Vec<_>>()),
        Some("workload") => cmd_workload(&args.collect::<Vec<_>>()),
        Some("fleet") => cmd_fleet(&args.collect::<Vec<_>>()),
        Some("replay") => cmd_replay(&args.collect::<Vec<_>>()),
        Some("metrics") => cmd_metrics(&args.collect::<Vec<_>>()),
        Some("serve") => cmd_serve(&args.collect::<Vec<_>>()),
        Some("query") => cmd_query(&args.collect::<Vec<_>>()),
        Some("chaos") => cmd_chaos(&args.collect::<Vec<_>>()),
        Some("list") => {
            println!("scenarios:");
            for scenario in Scenario::ALL {
                println!("  {}", scenario.name());
            }
            println!("depletion cases:");
            for case in DepletionCase::ALL {
                println!("  {}", case.label());
            }
            ExitCode::SUCCESS
        }
        Some("help") | None => {
            print!("{HELP}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command: {other}\n");
            print!("{HELP}");
            ExitCode::FAILURE
        }
    }
}

fn flag_value<'a>(args: &[&'a str], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|&arg| arg == flag)
        .and_then(|index| args.get(index + 1).copied())
}

/// `flag`'s value parsed as a `T`, `None` when the flag is absent. A
/// value that does not parse is an error naming `command` and the flag.
fn parse_flag<T: std::str::FromStr>(
    command: &str,
    args: &[&str],
    flag: &str,
) -> Result<Option<T>, String> {
    flag_value(args, flag)
        .map(|value| {
            value
                .parse()
                .map_err(|_| format!("{command}: {flag} expects a number, got {value:?}"))
        })
        .transpose()
}

fn has_flag(args: &[&str], flag: &str) -> bool {
    args.contains(&flag)
}

fn parse_policy(args: &[&str]) -> Result<ScreenPolicy, String> {
    match flag_value(args, "--policy") {
        None | Some("separate") => Ok(ScreenPolicy::SeparateEntity),
        Some("foreground") => Ok(ScreenPolicy::ForegroundApp),
        Some(other) => Err(format!("unknown policy: {other}")),
    }
}

fn cmd_scenario(args: &[&str]) -> ExitCode {
    let Some(&name) = args.first() else {
        eprintln!("scenario: missing name (try `eandroid list`)");
        return ExitCode::FAILURE;
    };
    let policy = match parse_policy(args) {
        Ok(policy) => policy,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let eandroid_mode = match flag_value(args, "--mode") {
        None | Some("eandroid") => true,
        Some("android") => false,
        Some(other) => {
            eprintln!("unknown mode: {other}");
            return ExitCode::FAILURE;
        }
    };

    let fault_seed: u64 = flag_value(args, "--fault-seed")
        .and_then(|value| value.parse().ok())
        .unwrap_or(2_026);
    let faults = match flag_value(args, "--faults") {
        Some(spec) => match FaultPlan::parse(spec, fault_seed) {
            Ok(plan) => Some(plan),
            Err(message) => {
                eprintln!("scenario: {message}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let selected: Vec<Scenario> = if name == "all" {
        Scenario::ALL.to_vec()
    } else {
        match Scenario::ALL.into_iter().find(|s| s.name() == name) {
            Some(scenario) => vec![scenario],
            None => {
                eprintln!("unknown scenario: {name} (try `eandroid list`)");
                return ExitCode::FAILURE;
            }
        }
    };

    for scenario in selected {
        let mut profiler = if eandroid_mode {
            Profiler::eandroid(policy)
        } else {
            Profiler::android(policy)
        };
        if has_flag(args, "--routines") {
            profiler = profiler.with_routine_accounting();
        }
        let mut android = AndroidSystem::new();
        let run = match &faults {
            Some(plan) => {
                // Lanes follow the scenario's position in `Scenario::ALL`
                // so `scenario all --faults R` matches `eandroid chaos`.
                let lane = Scenario::ALL
                    .iter()
                    .position(|s| s.name() == scenario.name())
                    .unwrap_or(0) as u64;
                android.attach_faults(plan.framework_faults(lane));
                scenario.run_with(android, profiler.with_chaos(plan.power_faults(lane)))
            }
            None => scenario.run_with(android, profiler),
        };
        let labels = labels_from(&run.android);

        println!("=== {} ===", scenario.name());
        let mut view = match run.profiler.collateral() {
            Some(graph) => BatteryView::eandroid(run.profiler.ledger(), graph, &labels),
            None => BatteryView::android(run.profiler.ledger(), &labels),
        };
        if let Some(chaos) = run.profiler.chaos() {
            view = view
                .with_degraded(&chaos.degraded_by_entity())
                .with_confidence(chaos.confidence());
        }
        println!("{view}");
        println!(
            "battery: {:.2}% remaining ({:.1} J drained)",
            run.profiler.battery().percent(),
            run.profiler.battery().drained().as_joules()
        );
        if faults.is_some() {
            let mut injected = 0;
            let mut detected = 0;
            if let Some(log) = run.android.fault_log() {
                injected += log.injected_total();
                detected += log.detected_total();
            }
            if let Some(chaos) = run.profiler.chaos() {
                injected += chaos.log().injected_total();
                detected += chaos.log().detected_total();
            }
            println!("faults: {injected} injected, {detected} detected/compensated");
        }

        if has_flag(args, "--timeline") {
            if let Some(monitor) = run.profiler.monitor() {
                println!("\nattack timeline:");
                print!(
                    "{}",
                    AttackTimeline::from_history(monitor.attack_history(), &labels).render()
                );
            }
        }
        if has_flag(args, "--detect") {
            if let Some(monitor) = run.profiler.monitor() {
                let findings = e_android::core::report(
                    run.profiler.ledger(),
                    monitor.graph(),
                    monitor.attack_history(),
                    &DetectorConfig::default(),
                );
                println!("\ncollateral-bug report:");
                for finding in findings {
                    let label = labels
                        .get(&finding.uid)
                        .cloned()
                        .unwrap_or_else(|| format!("uid:{}", finding.uid.as_raw()));
                    println!(
                        "  {label:<26} own {:>8} collateral {:>8} stealth {:>4.0}% flags {:?}",
                        finding.own.to_string(),
                        finding.collateral.to_string(),
                        100.0 * finding.stealth_ratio,
                        finding.flags
                    );
                }
            }
        }
        if has_flag(args, "--routines") {
            if let Some(routines) = run.profiler.routines() {
                println!("\nhottest routines:");
                for (uid, routine, energy) in routines.top(8) {
                    let label = labels
                        .get(&uid)
                        .cloned()
                        .unwrap_or_else(|| format!("uid:{}", uid.as_raw()));
                    println!("  {label:<26} {:<22} {energy}", routine.label());
                }
            }
        }
        println!();
    }
    ExitCode::SUCCESS
}

fn cmd_depletion(args: &[&str]) -> ExitCode {
    let cap_hours: u64 = flag_value(args, "--cap-hours")
        .and_then(|value| value.parse().ok())
        .unwrap_or(24);
    let selected: Vec<DepletionCase> = match args.first() {
        None | Some(&"all") => DepletionCase::ALL.to_vec(),
        Some(&name) if !name.starts_with("--") => {
            match DepletionCase::ALL.into_iter().find(|c| c.label() == name) {
                Some(case) => vec![case],
                None => {
                    eprintln!("unknown depletion case: {name} (try `eandroid list`)");
                    return ExitCode::FAILURE;
                }
            }
        }
        _ => DepletionCase::ALL.to_vec(),
    };
    for case in selected {
        let curve = run_depletion(case, cap_hours);
        println!(
            "{:<16} battery dead after {:>5.1} h",
            curve.label, curve.lifetime_hours
        );
    }
    ExitCode::SUCCESS
}

fn cmd_corpus(args: &[&str]) -> ExitCode {
    let seed: u64 = flag_value(args, "--seed")
        .and_then(|value| value.parse().ok())
        .unwrap_or(2_017);
    let size: usize = flag_value(args, "--size")
        .and_then(|value| value.parse().ok())
        .unwrap_or(1_124);
    let config = CorpusConfig {
        size,
        ..CorpusConfig::paper()
    };
    let corpus = generate_corpus(&config, seed);
    let stats = analyze(&corpus);
    println!("apps: {}", stats.total);
    println!("exported component: {:.1}%", stats.exported_percent());
    println!("WAKE_LOCK:          {:.1}%", stats.wake_lock_percent());
    println!("WRITE_SETTINGS:     {:.1}%", stats.write_settings_percent());
    if has_flag(args, "--show-xml") {
        if let Some(first) = corpus.first() {
            println!("\n{}", to_manifest_xml(first));
        }
    }
    ExitCode::SUCCESS
}

fn cmd_micro(args: &[&str]) -> ExitCode {
    let runs: usize = flag_value(args, "--runs")
        .and_then(|value| value.parse().ok())
        .unwrap_or(50);
    for result in ea_bench::run_micro_matrix(runs) {
        println!(
            "{:<22} {:<20} median {:>8.2} µs",
            result.op,
            result.config,
            result.stats.median as f64 / 1_000.0
        );
    }
    ExitCode::SUCCESS
}

fn cmd_workload(args: &[&str]) -> ExitCode {
    let seed: u64 = flag_value(args, "--seed")
        .and_then(|value| value.parse().ok())
        .unwrap_or(7);
    let sessions: usize = flag_value(args, "--sessions")
        .and_then(|value| value.parse().ok())
        .unwrap_or(10);
    let config = e_android::apps::WorkloadConfig {
        seed,
        sessions,
        ..e_android::apps::WorkloadConfig::default()
    };
    let (android, profiler, summary) =
        e_android::apps::run_workload(config, Profiler::eandroid(ScreenPolicy::SeparateEntity));
    println!(
        "{:.1} simulated minutes, {} actions, battery {:.1}%",
        summary.elapsed_secs / 60.0,
        summary.actions,
        summary.final_percent
    );
    let labels = labels_from(&android);
    let graph = profiler.collateral().expect("eandroid profiler");
    println!(
        "{}",
        BatteryView::eandroid(profiler.ledger(), graph, &labels)
    );
    ExitCode::SUCCESS
}

/// Builds a [`FleetConfig`] from the shared fleet/metrics flag set.
fn parse_fleet_config(command: &str, args: &[&str]) -> Result<FleetConfig, String> {
    let mut config = FleetConfig::default();
    if let Some(size) = parse_flag(command, args, "--size")? {
        config.size = size;
    }
    if let Some(seed) = parse_flag(command, args, "--seed")? {
        config.seed = seed;
    }
    if let Some(jobs) = parse_flag(command, args, "--jobs")? {
        config.jobs = jobs;
    }
    if let Some(index) = parse_flag(command, args, "--inject-panic")? {
        config.panic_devices.push(index);
    }
    if let Some(capacity) = parse_flag(command, args, "--flight-recorder")? {
        config.flight_recorder = capacity;
    }
    if let Some(spec) = flag_value(args, "--faults") {
        match FaultPlan::parse(spec, config.seed) {
            Ok(plan) => config.faults = Some(plan),
            Err(message) => return Err(format!("{command}: {message}")),
        }
    }
    Ok(config)
}

/// Runs the fleet with a live observatory attached and a sampler thread
/// feeding the shared [`SnapshotEmitter`] — the same snapshot path the
/// `serve` service uses, so `--watch` and `--heartbeat` render identical
/// numbers on both commands. A final snapshot is always taken after the
/// run, so even a run shorter than one sampling interval leaves one
/// heartbeat line.
fn run_fleet_with_observatory(
    config: &FleetConfig,
    sink: SinkHandle,
    emitter: &SnapshotEmitter<'_>,
) -> (
    e_android::fleet::FleetReport,
    e_android::fleet::FleetRunStats,
    e_android::metrics::MetricsSnapshot,
) {
    use std::sync::atomic::{AtomicBool, Ordering};

    let jobs = config.effective_jobs().max(1).min(config.size.max(1));
    let observatory = FleetObservatory::new(config.size, jobs);
    let done = AtomicBool::new(false);

    let (report, stats) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(250));
                if done.load(Ordering::Relaxed) {
                    break;
                }
                emitter.emit(&observatory.snapshot(), false);
            }
        });
        let result = e_android::fleet::run_fleet_observed(config, sink, Some(&observatory));
        done.store(true, Ordering::Relaxed);
        if sampler.join().is_err() {
            eprintln!("fleet: snapshot sampler thread panicked");
        }
        result
    });
    let final_snapshot = observatory.snapshot();
    emitter.emit(&final_snapshot, true);
    (report, stats, final_snapshot)
}

fn cmd_fleet(args: &[&str]) -> ExitCode {
    let config = match parse_fleet_config("fleet", args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let trace = flag_value(args, "--trace").map(ea_bench::TraceRequest::to_base);
    let sink = match &trace {
        Some(trace) => SinkHandle::new(trace.sink()),
        None => SinkHandle::noop(),
    };

    let watch = has_flag(args, "--watch");
    let mut heartbeat_file = match flag_value(args, "--heartbeat") {
        Some(path) => match std::fs::File::create(path) {
            Ok(file) => Some(file),
            Err(error) => {
                eprintln!("fleet: cannot create heartbeat file {path}: {error}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let (report, stats) = if watch || heartbeat_file.is_some() {
        let heartbeat = heartbeat_file
            .as_mut()
            .map(|file| file as &mut (dyn std::io::Write + Send));
        let emitter = SnapshotEmitter::new(watch, heartbeat);
        let (report, stats, _) = run_fleet_with_observatory(&config, sink, &emitter);
        (report, stats)
    } else {
        run_fleet_traced(&config, sink)
    };

    // The report is the deterministic artifact; wall-clock facts go to
    // stderr so `--json` output stays byte-identical across job counts.
    if has_flag(args, "--json") {
        print!("{}", e_android::fleet::render::to_json(&report));
    } else {
        print!("{}", e_android::fleet::render::to_text(&report));
    }
    eprintln!("{}", e_android::fleet::render::stats_line(&stats));
    if let Some(trace) = &trace {
        if let Err(error) = trace.finish() {
            eprintln!("fleet: failed to write trace files: {error}");
            return ExitCode::FAILURE;
        }
    }
    // Device failures are data, not a process error: the report carries
    // them and the run still succeeded.
    ExitCode::SUCCESS
}

/// `eandroid replay` — load a saved fleet report and re-execute every
/// recorded [`DeviceFailure`](e_android::fleet::DeviceFailure) from the
/// report's embedded replay config, diffing panic message, attempt
/// count, salvaged checkpoint, and the lifecycle intent-log tail against
/// the recorded bundle. `--healthy N` additionally re-simulates a strided
/// sample of completed devices as a divergence detector. Exits 1 on any
/// mismatch (a divergence means nondeterminism, not noise) and 2 when the
/// report cannot be used, before any device runs.
fn cmd_replay(args: &[&str]) -> ExitCode {
    let path = match args.first() {
        Some(&arg) if !arg.starts_with("--") => arg,
        _ => {
            eprintln!("replay: missing report path (produce one with `eandroid fleet --json`)");
            return ExitCode::FAILURE;
        }
    };
    let healthy: usize = match parse_flag("replay", args, "--healthy") {
        Ok(healthy) => healthy.unwrap_or(0),
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let unusable = ExitCode::from(2);
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("replay: cannot read {path}: {error}");
            return unusable;
        }
    };
    let report: e_android::fleet::FleetReport = match serde_json::from_str(&text) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("replay: {path} is not a fleet report: {error}");
            return unusable;
        }
    };
    if let Some(plan) = &report.replay_config.faults {
        if let Err(error) = plan.rates.validate() {
            eprintln!("replay: {path} embeds a bad fault plan: {error}");
            return unusable;
        }
    }

    let verdicts = e_android::fleet::replay_report(&report, healthy);
    if has_flag(args, "--json") {
        match serde_json::to_string_pretty(&verdicts) {
            Ok(json) => println!("{json}"),
            Err(error) => {
                eprintln!("replay: failed to serialize verdicts: {error}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        for replay in &verdicts.failures {
            if replay.matched {
                println!(
                    "device {:>4}  failure reproduced ({} intents in the replayed log)",
                    replay.index, replay.replayed_intents
                );
            } else {
                println!("device {:>4}  failure DIVERGED", replay.index);
                for mismatch in &replay.mismatches {
                    println!("    {mismatch}");
                }
            }
        }
        for replay in &verdicts.healthy {
            if replay.matched {
                println!(
                    "device {:>4}  healthy, matches its recorded row",
                    replay.index
                );
            } else {
                println!("device {:>4}  healthy replay DIVERGED", replay.index);
                for mismatch in &replay.mismatches {
                    println!("    {mismatch}");
                }
            }
        }
        println!(
            "replayed {} device(s): {} failure(s), {} healthy",
            verdicts.replayed(),
            verdicts.failures.len(),
            verdicts.healthy.len()
        );
    }
    if verdicts.replayed() == 0 {
        eprintln!(
            "replay: report records no failures (add --healthy N to spot-check completed devices)"
        );
    }
    if verdicts.all_matched() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `eandroid metrics` — run a fleet under the observatory and print the
/// final health snapshot as Prometheus-style text (or one JSONL heartbeat
/// with `--json`). The deterministic report itself is discarded: this
/// command is the observability surface, `eandroid fleet` the report one.
fn cmd_metrics(args: &[&str]) -> ExitCode {
    let config = match parse_fleet_config("metrics", args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let watch = has_flag(args, "--watch");
    let mut heartbeat_file = match flag_value(args, "--heartbeat") {
        Some(path) => match std::fs::File::create(path) {
            Ok(file) => Some(file),
            Err(error) => {
                eprintln!("metrics: cannot create heartbeat file {path}: {error}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let heartbeat = heartbeat_file
        .as_mut()
        .map(|file| file as &mut (dyn std::io::Write + Send));
    let emitter = SnapshotEmitter::new(watch, heartbeat);

    let (_report, stats, snapshot) =
        run_fleet_with_observatory(&config, SinkHandle::noop(), &emitter);
    if has_flag(args, "--json") {
        println!("{}", snapshot.to_jsonl());
    } else {
        print!("{}", snapshot.to_prometheus());
    }
    eprintln!("{}", e_android::fleet::render::stats_line(&stats));
    ExitCode::SUCCESS
}

/// Builds a [`ServeConfig`] from the fleet flag set plus the serve flags.
fn parse_serve_config(args: &[&str]) -> Result<ServeConfig, String> {
    let mut config = ServeConfig::new(parse_fleet_config("serve", args)?);
    if let Some(lanes) = parse_flag("serve", args, "--lanes")? {
        config.lanes = lanes;
    }
    if let Some(events) = parse_flag("serve", args, "--window")? {
        config.window_events = events;
    }
    config.socket = flag_value(args, "--socket").map(std::path::PathBuf::from);
    config.hold = has_flag(args, "--hold");
    if config.hold && config.socket.is_none() {
        return Err(String::from(
            "serve: --hold needs --socket (nothing to hold the service open for)",
        ));
    }
    Ok(config)
}

/// `eandroid serve` — stream the configured fleet through the ingest
/// service and print the drained deterministic report, byte-identical
/// to `eandroid fleet` over the same seed/size at any `--lanes`.
fn cmd_serve(args: &[&str]) -> ExitCode {
    let config = match parse_serve_config(args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let watch = has_flag(args, "--watch");
    let mut heartbeat_file = match flag_value(args, "--heartbeat") {
        Some(path) => match std::fs::File::create(path) {
            Ok(file) => Some(file),
            Err(error) => {
                eprintln!("serve: cannot create heartbeat file {path}: {error}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let heartbeat = heartbeat_file
        .as_mut()
        .map(|file| file as &mut (dyn std::io::Write + Send));
    let emitter = SnapshotEmitter::new(watch, heartbeat);

    let (report, stats) = match run_serve(&config, Some(&emitter)) {
        Ok(result) => result,
        Err(error) => {
            eprintln!("serve: {error}");
            return ExitCode::FAILURE;
        }
    };
    if has_flag(args, "--json") {
        print!("{}", e_android::fleet::render::to_json(&report));
    } else {
        print!("{}", e_android::fleet::render::to_text(&report));
    }
    eprintln!("{}", e_android::serve::stats_line(&stats));
    ExitCode::SUCCESS
}

/// `eandroid query` — one request to a running serve instance; prints
/// the raw JSON response line.
fn cmd_query(args: &[&str]) -> ExitCode {
    let Some(socket) = flag_value(args, "--socket") else {
        eprintln!("query: --socket <path> is required");
        return ExitCode::FAILURE;
    };
    // First free-standing argument, skipping flags and their values.
    let value_flags = ["--socket", "--retries", "--retry-delay-ms"];
    let mut op = None;
    let mut iter = args.iter();
    while let Some(&arg) = iter.next() {
        if value_flags.contains(&arg) {
            iter.next();
        } else if !arg.starts_with("--") {
            op = Some(arg);
            break;
        }
    }
    let op = op.unwrap_or("snapshot");
    let request = match Request::parse(op) {
        Ok(request) => request,
        Err(message) => {
            eprintln!("query: {message}");
            return ExitCode::FAILURE;
        }
    };
    let retries: u32 = flag_value(args, "--retries")
        .and_then(|value| value.parse().ok())
        .unwrap_or(40);
    let delay_ms: u64 = flag_value(args, "--retry-delay-ms")
        .and_then(|value| value.parse().ok())
        .unwrap_or(250);
    match e_android::serve::query_with_retry(
        std::path::Path::new(socket),
        request,
        retries,
        std::time::Duration::from_millis(delay_ms),
    ) {
        Ok(reply) => {
            println!("{reply}");
            if reply.starts_with("{\"error\"") {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(error) => {
            eprintln!("query: {error}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_chaos(args: &[&str]) -> ExitCode {
    let mut config = e_android::soak::SoakConfig::default();
    if let Some(seed) = flag_value(args, "--seed").and_then(|value| value.parse().ok()) {
        config.seed = seed;
    }
    if let Some(size) = flag_value(args, "--fleet-size").and_then(|value| value.parse().ok()) {
        config.fleet_size = size;
    }
    config.quick = has_flag(args, "--quick");

    let report = e_android::soak::run_soak(&config);
    if has_flag(args, "--json") {
        match serde_json::to_string_pretty(&report) {
            Ok(json) => println!("{json}"),
            Err(error) => {
                eprintln!("chaos: failed to serialize report: {error}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        println!(
            "chaos soak: {} scenario runs, {} fleet runs (seed {})",
            report.scenario_runs, report.fleet_runs, config.seed
        );
        println!("faults injected:");
        for (kind, count) in &report.faults_injected {
            let detected = report.faults_detected.get(kind).copied().unwrap_or(0);
            println!("  {kind:<24} {count:>7} injected {detected:>7} detected");
        }
        if report.passed() {
            println!("all invariants held");
        } else {
            println!("{} violation(s):", report.violations.len());
            for violation in &report.violations {
                println!("  {violation}");
            }
        }
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_lint(args: &[&str]) -> ExitCode {
    if has_flag(args, "--rules") {
        println!("{:<26} {:<8} description", "rule", "attack");
        for (rule, description) in Linter::new().rule_listing() {
            let attack = rule
                .paper_attack()
                .map(|n| format!("#{n}"))
                .unwrap_or_else(|| String::from("-"));
            println!("{:<26} {:<8} {}", rule.to_string(), attack, description);
        }
        return ExitCode::SUCCESS;
    }

    let target = match args.first() {
        None | Some(&"demo") => "demo",
        Some(&"corpus") => "corpus",
        Some(&flag) if flag.starts_with("--") => "demo",
        Some(&other) => {
            eprintln!("unknown lint target: {other} (expected demo or corpus)");
            return ExitCode::FAILURE;
        }
    };

    let report = if target == "demo" {
        // The paper's testbed: the six demo apps plus the fungame malware.
        let mut android = AndroidSystem::new();
        e_android::apps::DemoApps::install_all(&mut android);
        e_android::apps::Malware::install(&mut android);
        android.lint()
    } else {
        let seed: u64 = flag_value(args, "--seed")
            .and_then(|value| value.parse().ok())
            .unwrap_or(2_017);
        let size: usize = flag_value(args, "--size")
            .and_then(|value| value.parse().ok())
            .unwrap_or(1_124);
        let config = CorpusConfig {
            size,
            ..CorpusConfig::paper()
        };
        let corpus = generate_corpus(&config, seed);
        Linter::new().lint_manifests(&corpus)
    };

    // Revision-regression mode: diff against a saved schema-v2 JSON
    // report. Introduced findings are regressions and exit 1; identical
    // inputs diff clean and exit 0. A baseline that cannot be read or
    // parsed exits 2, so CI can tell it from a regression.
    if let Some(path) = flag_value(args, "--baseline") {
        let baseline_text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("cannot read baseline {path}: {err}");
                return ExitCode::from(2);
            }
        };
        let baseline = match render::parse_json(&baseline_text) {
            Ok(parsed) => parsed,
            Err(err) => {
                eprintln!("invalid baseline {path}: {err}");
                return ExitCode::from(2);
            }
        };
        let diff = BaselineDiff::compare(&baseline, &render::json_report(&report));
        print!("{diff}");
        return if diff.has_regressions() {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    if has_flag(args, "--json") {
        print!("{}", render::to_json(&report));
    } else if target == "demo" {
        print!("{}", render::to_text(&report));
    } else {
        println!(
            "{} diagnostic(s) across {} app(s), total static bound {:.1} kJ/day",
            report.len(),
            report.apps_checked,
            report.total_predicted_joules() / 1_000.0
        );
        for (rule, count) in report.counts_by_rule() {
            println!("  {:<26} {count:>6}", rule.to_string());
        }
    }
    ExitCode::SUCCESS
}

fn cmd_antutu() -> ExitCode {
    for config in ea_bench::OverheadConfig::ALL {
        let score = ea_bench::run_antutu(config, ea_bench::AntutuWorkload::default());
        println!("{:<20} total {:>10.1}", config.label(), score.total);
    }
    ExitCode::SUCCESS
}
