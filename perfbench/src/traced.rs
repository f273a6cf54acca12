//! The traced run: the benchmark times its own calls into each crate's
//! public functions and reports one figure per layer. Nothing here runs
//! inside the program; spans inside the crates are a later change.
//!
//! Every traced run measures every layer, on the workload's device shape
//! (`lint_corpus` probes the default shape), so the per-layer figures of
//! two workloads can be set side by side.

use std::cell::RefCell;
use std::path::Path;
use std::time::{Duration, Instant};

use ea_apps::demo::packages;
use ea_apps::{DemoApps, Malware};
use ea_core::{Profiler, ScreenPolicy};
use ea_fleet::{aggregate, render, run_fleet, FleetConfig, Supervision};
use ea_framework::{AndroidSystem, AppManifest, Intent};
use ea_lint::{AppFacts, LintContext, Linter};
use ea_metrics::{FleetObservatory, QuantileSketch};
use ea_serve::{ring, FleetView, LaneEvent};
use ea_sim::{SimDuration, SimRng};

use crate::client::serve_session;
use crate::common::{
    check_fleet_report, derive_seed, mean, median, paper_corpus, quantile, simulate_one,
    timed_rounds, Workload,
};
use crate::e2e::QUERY_RATE;
use crate::Outcome;

/// Install sets drawn for the framework and lint probes.
const INSTALL_SETS: usize = 128;
/// Simulated seconds of each profiler / advance probe phase.
const PROBE_SECS: u64 = 240;

/// Devices per traced fleet round, and the size of the traced stream.
fn traced_sizes(workload: Workload) -> (usize, usize) {
    match workload {
        Workload::FleetShortDay => (256, 256),
        Workload::FleetLongDay => (12, 16),
        Workload::ServeQuery | Workload::LintCorpus => (128, 256),
    }
}

/// One device as the traced runner saw it.
struct DeviceTimes {
    total_us: f64,
    first_session_us: f64,
    session_us: Vec<f64>,
    distill_us: f64,
}

/// One fleet through the traced runner: the per-device entry point,
/// called sequentially, with a checkpoint callback marking session
/// boundaries, then the fold and the rendering.
struct TracedFleet {
    times: Vec<DeviceTimes>,
    reports: Vec<ea_fleet::DeviceReport>,
    /// The lane events a service would have carried for these devices,
    /// indexed from `offset`.
    events: Vec<LaneEvent>,
    wall_s: f64,
    aggregate_s: f64,
    render_s: f64,
    json: String,
}

fn traced_fleet(config: &FleetConfig, corpus: &[AppManifest], offset: usize) -> TracedFleet {
    let started_fleet = Instant::now();
    let mut fleet = TracedFleet {
        times: Vec::with_capacity(config.size),
        reports: Vec::with_capacity(config.size),
        events: Vec::new(),
        wall_s: 0.0,
        aggregate_s: 0.0,
        render_s: 0.0,
        json: String::new(),
    };
    let us = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e6;
    for index in 0..config.size {
        let marks = RefCell::new(Vec::new());
        let started = Instant::now();
        let report = simulate_one(config, corpus, index, &|snapshot| {
            marks.borrow_mut().push((Instant::now(), snapshot));
        });
        let ended = Instant::now();
        let marks = marks.into_inner();
        let first = marks.first().map_or(ended, |(at, _)| *at);
        let last = marks.last().map_or(started, |(at, _)| *at);
        fleet.times.push(DeviceTimes {
            total_us: us(started, ended),
            first_session_us: us(started, first),
            session_us: marks.windows(2).map(|w| us(w[0].0, w[1].0)).collect(),
            distill_us: us(last, ended),
        });
        let lane_index = offset + index;
        fleet.events.push(LaneEvent::Join { index: lane_index });
        for (_, snapshot) in marks {
            fleet.events.push(LaneEvent::Checkpoint {
                index: lane_index,
                snapshot,
            });
        }
        let mut completed = report.clone();
        completed.index = lane_index;
        fleet.events.push(LaneEvent::Completed(Box::new(completed)));
        fleet.events.push(LaneEvent::Leave { index: lane_index });
        fleet.reports.push(report);
    }

    let mut sketch = QuantileSketch::default();
    for report in &fleet.reports {
        sketch.record(report.drained_joules);
    }
    let outcomes: Vec<_> = fleet.reports.iter().cloned().map(Ok).collect();
    let started = Instant::now();
    let report = aggregate(
        config,
        outcomes,
        Supervision::default().health(),
        Some(sketch),
    );
    fleet.aggregate_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    fleet.json = render::to_json(&report);
    fleet.render_s = started.elapsed().as_secs_f64();
    fleet.wall_s = started_fleet.elapsed().as_secs_f64() - fleet.render_s;
    fleet
}

pub fn run(workload: Workload, seed: u64, seconds: f64, out: &mut Outcome) {
    let corpus_seed = derive_seed(seed, 0);
    let (corpus, generate) = timed_rounds(15, || paper_corpus(corpus_seed));
    let generate_s = median(&generate);
    out.metric("corpus.generate_ms", generate_s * 1e3, "ms");

    let shape = workload.device_shape(corpus_seed);
    let (chunk, stream_size) = traced_sizes(workload);
    // Traced and untraced fleets alternate, which of the two goes first
    // alternating too, so host drift loads both sides alike.
    let rounds = ((seconds / 2.0).round() as usize).clamp(4, 30);
    let mut fleets = Vec::with_capacity(rounds);
    let (mut traced_rates, mut untraced_rates) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        let config = FleetConfig {
            seed: derive_seed(seed, 1 + round as u64),
            size: chunk,
            ..shape.clone()
        };
        let untraced = || {
            let started = Instant::now();
            let (batch, _) = run_fleet(&config);
            (render::to_json(&batch), started.elapsed().as_secs_f64())
        };
        let traced = || traced_fleet(&config, &corpus, round * chunk);
        let ((batch_json, untraced_s), fleet) = if round % 2 == 0 {
            let first = untraced();
            (first, traced())
        } else {
            let fleet = traced();
            (untraced(), fleet)
        };
        out.attempted += chunk as u64;
        if batch_json != fleet.json {
            out.failed += chunk as u64;
            out.problems.push(format!(
                "round {round}: traced runner's report differs from run_fleet's"
            ));
        }
        untraced_rates.push(chunk as f64 / untraced_s);
        // The untraced side pays one corpus generation inside run_fleet.
        traced_rates.push(chunk as f64 / (generate_s + fleet.wall_s));
        fleets.push(fleet);
    }
    let traced_per_s = median(&traced_rates);
    let untraced_per_s = median(&untraced_rates);

    let times: Vec<&DeviceTimes> = fleets.iter().flat_map(|f| &f.times).collect();
    let reports: Vec<&ea_fleet::DeviceReport> = fleets.iter().flat_map(|f| &f.reports).collect();
    let events: Vec<LaneEvent> = fleets
        .iter()
        .flat_map(|f| f.events.iter().cloned())
        .collect();
    let devices = reports.len();
    let mut device_us: Vec<f64> = times.iter().map(|t| t.total_us).collect();
    let device_mean_us = mean(&device_us);
    out.metric("fleet.device_us_p50", quantile(&mut device_us, 0.50), "us");
    out.metric("fleet.device_us_p99", quantile(&mut device_us, 0.99), "us");
    let first_session_us = mean(&times.iter().map(|t| t.first_session_us).collect::<Vec<_>>());
    out.metric("fleet.first_session_us", first_session_us, "us");
    let between: Vec<f64> = times.iter().flat_map(|t| t.session_us.clone()).collect();
    let distill_us = mean(&times.iter().map(|t| t.distill_us).collect::<Vec<_>>());
    out.metric("fleet.distill_us", distill_us, "us");
    let per_fleet =
        |pick: fn(&TracedFleet) -> f64| median(&fleets.iter().map(pick).collect::<Vec<_>>());
    out.metric(
        "fleet.aggregate_ms",
        per_fleet(|f| f.aggregate_s * 1e3),
        "ms",
    );
    out.metric("fleet.render_ms", per_fleet(|f| f.render_s * 1e3), "ms");
    out.metric(
        "fleet.report_bytes",
        per_fleet(|f| f.json.len() as f64),
        "bytes",
    );

    // ea-framework and ea-lint on bench-drawn install sets of the
    // workload's app count.
    let mut rng = SimRng::seed(derive_seed(seed, 2));
    let mut install_us = Vec::new();
    let (mut facts_us, mut context_us, mut rules_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut phase_iterations, mut reach_relaxations) = (0usize, 0usize);
    for _ in 0..INSTALL_SETS {
        let apps = draw_install_set(&shape, &corpus, &mut rng);
        let infected = rng.chance(shape.infection_rate);
        let started = Instant::now();
        let (android, _) = install(apps, infected);
        install_us.push(started.elapsed().as_secs_f64() * 1e6);
        let (facts, context, rules, stats) =
            lint_probe(|| android.user_apps().map(AppFacts::from_installed).collect());
        facts_us.push(facts * 1e6);
        context_us.push(context * 1e6);
        rules_us.push(rules * 1e6);
        phase_iterations += stats.phase_iterations;
        reach_relaxations += stats.reach_relaxations;
    }
    let install_us = mean(&install_us);
    let lint_us = mean(&facts_us) + mean(&context_us) + mean(&rules_us);
    out.metric("framework.install_us", install_us, "us");
    out.metric("lint.facts_us", mean(&facts_us), "us");
    out.metric("lint.context_us", mean(&context_us), "us");
    out.metric("lint.rules_us", mean(&rules_us), "us");
    out.metric("lint.phase_iterations", phase_iterations as f64, "count");
    out.metric("lint.reach_relaxations", reach_relaxations as f64, "count");

    // ea-lint on the whole corpus, alternating with the same pass
    // untraced.
    let (mut corpus_facts, mut corpus_context, mut corpus_rules) =
        (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_lint, mut untraced_lint) = (Vec::new(), Vec::new());
    let mut corpus_stats = None;
    for round in 0..3 {
        let untraced = || {
            let started = Instant::now();
            let report = Linter::new().lint_manifests(&corpus);
            report.apps_checked as f64 / started.elapsed().as_secs_f64()
        };
        let traced = || lint_probe(|| corpus.iter().map(AppFacts::from_manifest).collect());
        let (apps_per_s, (facts, context, rules, stats)) = if round % 2 == 0 {
            let first = untraced();
            (first, traced())
        } else {
            let probe = traced();
            (untraced(), probe)
        };
        untraced_lint.push(apps_per_s);
        traced_lint.push(corpus.len() as f64 / (facts + context + rules));
        corpus_facts.push(facts * 1e3);
        corpus_context.push(context * 1e3);
        corpus_rules.push(rules * 1e3);
        corpus_stats = Some(stats);
    }
    let corpus_stats = corpus_stats.unwrap_or_default();
    out.metric("lint.corpus_facts_ms", median(&corpus_facts), "ms");
    out.metric("lint.corpus_context_ms", median(&corpus_context), "ms");
    out.metric("lint.corpus_rules_ms", median(&corpus_rules), "ms");
    out.metric(
        "lint.corpus_phase_iterations",
        corpus_stats.phase_iterations as f64,
        "count",
    );
    out.metric(
        "lint.corpus_reach_relaxations",
        corpus_stats.reach_relaxations as f64,
        "count",
    );

    // ea-core profiler (with ea-sim and ea-power beneath it), and the
    // framework's own share of a step.
    let (attended_ns, pocketed_ns) = step_probe(&shape, &corpus, &mut rng, true);
    let (advance_attended_ns, advance_pocketed_ns) = step_probe(&shape, &corpus, &mut rng, false);
    out.metric("profiler.step_attended_ns", attended_ns, "ns");
    out.metric("profiler.step_pocketed_ns", pocketed_ns, "ns");
    out.metric(
        "framework.advance_ns",
        (advance_attended_ns + advance_pocketed_ns) / 2.0,
        "ns",
    );

    // What the layer probes leave unexplained of a device: install, the
    // pre-run lint, every step at the probe's attended/pocketed cost
    // (split by the shape's mean session and idle lengths), and distill.
    let steps = mean(&reports.iter().map(|r| r.sim_seconds).collect::<Vec<_>>()) * 1e3
        / shape.step_millis.max(1) as f64;
    let attended_share =
        shape.mean_session_secs as f64 / (shape.mean_session_secs + shape.mean_idle_secs) as f64;
    let step_ns = attended_share * attended_ns + (1.0 - attended_share) * pocketed_ns;
    let stepping_us = steps * step_ns / 1e3;
    let explained_us = install_us + lint_us + stepping_us + distill_us;
    out.metric(
        "fleet.unattributed_share",
        1.0 - explained_us / device_mean_us,
        "ratio",
    );
    // A one-session day has no checkpoint-to-checkpoint interval; its
    // lone session is the modelled stepping time instead.
    let session_us = if between.is_empty() {
        stepping_us
    } else {
        mean(&between)
    };
    out.metric("fleet.session_us", session_us, "us");

    // ea-serve: the view and the ring fed this workload's own events.
    out.metric("serve.view_ingest_ns", view_probe(&events, devices), "ns");
    out.metric("serve.ring_ns_per_event", ring_probe(&events), "ns");

    // ea-metrics: a snapshot of an observatory that saw these devices.
    let observatory = FleetObservatory::new(devices, 1);
    for report in &reports {
        observatory.device_completed(report.drained_joules);
    }
    let snapshot_started = Instant::now();
    let rounds = 2_000;
    for _ in 0..rounds {
        std::hint::black_box(observatory.snapshot().to_jsonl());
    }
    let snapshot_us = snapshot_started.elapsed().as_secs_f64() * 1e6 / rounds as f64;
    out.metric("metrics.snapshot_us", snapshot_us, "us");

    // ea-serve end to end: one queried stream of this shape.
    serve_probe(&shape, seed, stream_size, &corpus, out);

    // Tracing overhead in the workload's own unit: apps for the corpus
    // lint, devices otherwise.
    let (traced, untraced) = if workload == Workload::LintCorpus {
        (median(&traced_lint), median(&untraced_lint))
    } else {
        (traced_per_s, untraced_per_s)
    };
    out.metric("trace.overhead_per_s", traced - untraced, "1/s");
    out.note("traced_units_per_s", traced, "1/s");
    out.note("untraced_units_per_s", untraced, "1/s");
    out.note("traced_devices", devices as f64, "count");
    out.note("host_factor", crate::calibrate::host_factor(), "ratio");
}

/// `k` distinct corpus manifests, `k` drawn like a device of `shape`.
fn draw_install_set(
    shape: &FleetConfig,
    corpus: &[AppManifest],
    rng: &mut SimRng,
) -> Vec<AppManifest> {
    let span = (shape.max_apps - shape.min_apps + 1) as u64;
    let k = shape.min_apps + rng.range_u64(0, span) as usize;
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    while chosen.len() < k.min(corpus.len()) {
        let candidate = rng.range_u64(0, corpus.len() as u64) as usize;
        if !chosen.contains(&candidate) {
            chosen.push(candidate);
        }
    }
    chosen.into_iter().map(|i| corpus[i].clone()).collect()
}

/// A device with `apps`, the demo set, and the malware if `infected`.
fn install(apps: Vec<AppManifest>, infected: bool) -> (AndroidSystem, DemoApps) {
    let mut android = AndroidSystem::new();
    for manifest in apps {
        android.install(manifest);
    }
    let demo = DemoApps::install_all(&mut android);
    if infected {
        Malware::install(&mut android);
    }
    (android, demo)
}

/// Times fact extraction, context construction and the rule pass, in
/// seconds, and returns the solver's work counts.
fn lint_probe(
    facts: impl FnOnce() -> Vec<AppFacts>,
) -> (f64, f64, f64, ea_lint::absint::SolverStats) {
    let started = Instant::now();
    let facts = facts();
    let facts_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let context = LintContext::new(facts);
    let context_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    std::hint::black_box(Linter::new().run(&context));
    let rules_s = started.elapsed().as_secs_f64();
    (facts_s, context_s, rules_s, context.absint().stats())
}

/// Nanoseconds per step while attended (screen on, user active every
/// simulated second, an app in front) and while pocketed (screen timed
/// out, idle): of `Profiler::step` when `profiled`, else of
/// `AndroidSystem::advance`.
fn step_probe(
    shape: &FleetConfig,
    corpus: &[AppManifest],
    rng: &mut SimRng,
    profiled: bool,
) -> (f64, f64) {
    let apps = draw_install_set(shape, corpus, rng);
    let launch = apps.first().map(|app| app.package.clone());
    let (mut android, demo) = install(apps, false);
    let step = SimDuration::from_millis(shape.step_millis.max(1));
    let steps_per_sec = (1_000 / shape.step_millis.max(1)).max(1);
    let mut profiler = Profiler::eandroid(ScreenPolicy::SeparateEntity).with_step(step);
    let mut scratch = Vec::new();
    let mut one_second = |android: &mut AndroidSystem| {
        let started = Instant::now();
        for _ in 0..steps_per_sec {
            if profiled {
                profiler.step(android);
            } else {
                android.advance(step);
            }
        }
        let elapsed = started.elapsed();
        android.drain_events_into(&mut scratch);
        scratch.clear();
        elapsed
    };
    let per_step =
        |total: Duration| total.as_secs_f64() * 1e9 / (PROBE_SECS * steps_per_sec) as f64;
    let playback = || Intent::explicit(packages::MUSIC, "Playback");

    // Attended: a corpus app in front streaming over wifi, music playing.
    android.user_unlock();
    if let Some(package) = &launch {
        let _ = android.user_launch(package);
    }
    let foreground = android.foreground_uid().filter(|uid| !uid.is_system());
    if let Some(uid) = foreground {
        android.set_wifi_kbps(uid, 1_000.0);
    }
    let _ = android.start_service(demo.music, playback());
    android.set_audio(demo.music, true);
    let mut attended = Duration::ZERO;
    for _ in 0..PROBE_SECS {
        android.note_user_activity();
        attended += one_second(&mut android);
    }
    // Pocketed: radios and music off, and the screen left to time out
    // before idle steps are timed.
    if let Some(uid) = foreground {
        android.set_wifi_kbps(uid, 0.0);
    }
    android.set_audio(demo.music, false);
    let _ = android.stop_service(demo.music, playback());
    while android.screen_is_on() && android.now().as_secs_f64() < 4.0 * PROBE_SECS as f64 {
        one_second(&mut android);
    }
    let mut pocketed = Duration::ZERO;
    for _ in 0..PROBE_SECS {
        pocketed += one_second(&mut android);
    }
    (per_step(attended), per_step(pocketed))
}

/// `FleetView::ingest` per event, ns.
fn view_probe(events: &[LaneEvent], devices: usize) -> f64 {
    let mut view = FleetView::new(devices, 64);
    let owned = events.to_vec();
    let started = Instant::now();
    for event in owned {
        view.ingest(event);
    }
    started.elapsed().as_secs_f64() * 1e9 / events.len().max(1) as f64
}

/// One lane's `push_slice` / `recv_slice` transfer of `events`, in the
/// service's 64-event bursts, ns per event.
fn ring_probe(events: &[LaneEvent]) -> f64 {
    const BURST: usize = 64;
    let mut owned = events.to_vec();
    let (producer, consumer) = ring::lane(1_024);
    let started = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut staged = Vec::with_capacity(BURST);
            while !owned.is_empty() {
                let take = owned.len().min(BURST);
                staged.extend(owned.drain(..take));
                if producer.push_slice(&mut staged).is_err() {
                    break;
                }
            }
        });
        let mut burst = Vec::with_capacity(BURST);
        while consumer.recv_slice(&mut burst, BURST) > 0 {
            burst.clear();
        }
    });
    started.elapsed().as_secs_f64() * 1e9 / events.len().max(1) as f64
}

/// One one-lane stream of `size` devices of `shape`, queried open-loop.
fn serve_probe(
    shape: &FleetConfig,
    seed: u64,
    size: usize,
    corpus: &[AppManifest],
    out: &mut Outcome,
) {
    let config = FleetConfig {
        seed: derive_seed(seed, 3),
        size,
        ..shape.clone()
    };
    let socket = Path::new(crate::SCRATCH_DIR).join(format!("traced-{}.sock", std::process::id()));
    let mut session = serve_session(config.clone(), &socket, QUERY_RATE);
    out.attempted += size as u64 + session.queries;
    out.failed += session.queries_failed;
    let mut problems = std::mem::take(&mut session.problems);
    let mut counts = [0u64; 3];
    match &session.served {
        Some((report, stats)) => {
            problems.extend(check_fleet_report(report, &config, corpus, size / 2));
            let (batch, _) = run_fleet(&FleetConfig { jobs: 2, ..config });
            if serde_json::to_string(&batch).ok().as_deref() != Some(&session.report_reply) {
                problems.push(String::from("report reply differs from the batch report"));
            }
            counts = [
                stats.events_ingested,
                stats.checkpoints_ingested,
                stats.queries_served,
            ];
        }
        None => problems.push(String::from("run_serve returned no report")),
    }
    if !problems.is_empty() {
        out.failed += size as u64;
    }
    out.metric("serve.events", counts[0] as f64, "count");
    out.metric("serve.checkpoints", counts[1] as f64, "count");
    out.metric("serve.queries_served", counts[2] as f64, "count");
    out.problems
        .extend(problems.into_iter().map(|p| format!("traced stream: {p}")));
    out.metric(
        "serve.query_rtt_us.snapshot",
        median(&session.snapshot_rtt_us),
        "us",
    );
    out.metric(
        "serve.query_rtt_us.window",
        median(&session.window_rtt_us),
        "us",
    );
    out.metric("serve.report_wait_ms", session.report_wait_ms, "ms");
    out.metric(
        "client.late_ms_p99",
        quantile(&mut session.late_ms, 0.99),
        "ms",
    );
}
