//! The chaos soak harness: every scenario and a fleet, under escalating
//! fault rates, with the degraded-mode invariants checked after each run.
//!
//! The harness asserts five properties (see DESIGN.md §11):
//!
//! 1. **No panic escapes** — whatever the injectors do, a scenario run
//!    either completes or (for fleet devices) becomes a supervised,
//!    recorded failure. The profiling pipeline itself never unwinds.
//! 2. **Conservation** — energy attributed after sanitization never
//!    exceeds the true energy drawn from the battery.
//! 3. **Determinism** — a second run of the same fault plan on the same
//!    lane is byte-identical to the first, and a zero-rate plan is
//!    byte-identical to no plan at all.
//! 4. **Verdict stability** — sub-threshold measurement noise (counter
//!    glitches only) never changes which attacks the monitor detects.
//! 5. **Replay fidelity** — every abandoned device's recorded failure
//!    reproduces exactly when replayed from the report's embedded
//!    config (the `eandroid replay` contract, DESIGN.md §16).

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};

use ea_apps::Scenario;
use ea_chaos::FaultPlan;
use ea_core::{labels_from, BatteryView, Confidence, Profiler, ScreenPolicy};
use ea_fleet::{run_fleet, FleetConfig};
use serde::Serialize;

/// What the soak run exercises.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Root seed: every fault plan derives from it.
    pub seed: u64,
    /// Devices in the fleet leg.
    pub fleet_size: usize,
    /// Quick mode: one moderate rate instead of the full escalation
    /// ladder (the CI smoke setting).
    pub quick: bool,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            seed: 2_026,
            fleet_size: 64,
            quick: false,
        }
    }
}

/// The soak outcome: run counts, fault totals, and every violated
/// invariant (empty means the soak passed).
#[derive(Debug, Clone, Default, Serialize)]
pub struct SoakReport {
    /// Scenario executions performed (all variants counted).
    pub scenario_runs: usize,
    /// Fleet executions performed.
    pub fleet_runs: usize,
    /// Faults injected across every run, by taxonomy label.
    pub faults_injected: BTreeMap<String, u64>,
    /// Faults detected/compensated across every run, by taxonomy label.
    pub faults_detected: BTreeMap<String, u64>,
    /// Invariant violations; the soak passes iff this is empty.
    pub violations: Vec<String>,
}

impl SoakReport {
    /// Whether every invariant held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    fn absorb(&mut self, log: &ea_chaos::FaultLog) {
        for (kind, count) in &log.injected {
            *self.faults_injected.entry(kind.clone()).or_default() += count;
        }
        for (kind, count) in &log.detected {
            *self.faults_detected.entry(kind.clone()).or_default() += count;
        }
    }
}

/// The per-kind attack verdict of one run: how many periods of each
/// attack kind the collateral monitor recorded.
fn verdict(profiler: &Profiler) -> BTreeMap<String, usize> {
    let mut periods = BTreeMap::new();
    if let Some(monitor) = profiler.monitor() {
        for record in monitor.attack_history() {
            *periods
                .entry(record.info.kind.label().to_string())
                .or_default() += 1;
        }
    }
    periods
}

/// The deterministic byte-level summary of one run: the serialized
/// battery view plus the exact drained and ledger-total joules.
fn run_digest(run: &ea_apps::RunOutput) -> String {
    let labels = labels_from(&run.android);
    let view = match run.profiler.collateral() {
        Some(graph) => BatteryView::eandroid(run.profiler.ledger(), graph, &labels),
        None => BatteryView::android(run.profiler.ledger(), &labels),
    };
    let view_json = serde_json::to_string(&view).unwrap_or_default();
    format!(
        "{view_json}|drained={:?}|percent={:?}",
        run.profiler.battery().drained().as_joules(),
        run.profiler.battery().percent()
    )
}

fn profiler() -> Profiler {
    Profiler::eandroid(ScreenPolicy::SeparateEntity)
}

/// Runs the full soak and reports every violated invariant.
pub fn run_soak(config: &SoakConfig) -> SoakReport {
    let mut report = SoakReport::default();
    let escalation: &[f64] = if config.quick {
        &[0.25]
    } else {
        &[0.05, 0.25, 0.5]
    };

    for (ordinal, scenario) in Scenario::ALL.into_iter().enumerate() {
        let lane = ordinal as u64;
        let name = scenario.name();

        // Baseline: no chaos attached at all.
        let baseline = scenario.run(profiler());
        let baseline_digest = run_digest(&baseline);
        let baseline_verdict = verdict(&baseline.profiler);
        report.scenario_runs += 1;

        // Invariant 3a: a zero-rate plan is a byte-identical no-op.
        let zero = scenario.run_chaos(profiler(), &FaultPlan::zero(config.seed), lane);
        report.scenario_runs += 1;
        if run_digest(&zero) != baseline_digest {
            report.violations.push(format!(
                "{name}: zero-rate plan diverged from the no-chaos run"
            ));
        }

        // Invariant 4: sub-threshold counter noise never changes verdicts.
        let noisy = scenario.run_chaos(
            profiler(),
            &FaultPlan::counters_only(config.seed, 0.02),
            lane,
        );
        report.scenario_runs += 1;
        if let Some(chaos) = noisy.profiler.chaos() {
            report.absorb(chaos.log());
        }
        if verdict(&noisy.profiler) != baseline_verdict {
            report.violations.push(format!(
                "{name}: sub-threshold counter noise changed the attack verdict"
            ));
        }

        // Escalation ladder: full fault mix, conservation and rerun
        // identity checked at every rate.
        for &rate in escalation {
            let plan = FaultPlan::uniform(config.seed, rate);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                scenario.run_chaos(profiler(), &plan, lane)
            }));
            report.scenario_runs += 1;
            let run = match outcome {
                Ok(run) => run,
                Err(_) => {
                    report
                        .violations
                        .push(format!("{name}: panic escaped at rate {rate}"));
                    continue;
                }
            };
            if let Some(log) = run.android.fault_log() {
                report.absorb(log);
            }
            if let Some(chaos) = run.profiler.chaos() {
                report.absorb(chaos.log());
                // Invariant 2: conservation.
                if chaos.attributed_joules() > chaos.drawn_joules() + 1e-6 {
                    report.violations.push(format!(
                        "{name}: attributed {:.6} J exceeds drawn {:.6} J at rate {rate}",
                        chaos.attributed_joules(),
                        chaos.drawn_joules()
                    ));
                }
                // Degraded runs must say so on the battery interface.
                if chaos.anomalies() > 0 {
                    let labels = labels_from(&run.android);
                    let view = match run.profiler.collateral() {
                        Some(graph) => BatteryView::eandroid(run.profiler.ledger(), graph, &labels),
                        None => BatteryView::android(run.profiler.ledger(), &labels),
                    }
                    .with_degraded(&chaos.degraded_by_entity())
                    .with_confidence(chaos.confidence());
                    if view.confidence != Confidence::Degraded {
                        report.violations.push(format!(
                            "{name}: anomalies detected but the battery view stayed Exact"
                        ));
                    }
                }
            }

            // Invariant 3b: the same plan on the same lane reproduces the
            // run byte for byte.
            let rerun = panic::catch_unwind(AssertUnwindSafe(|| {
                scenario.run_chaos(profiler(), &plan, lane)
            }));
            report.scenario_runs += 1;
            match rerun {
                Ok(rerun) => {
                    if run_digest(&rerun) != run_digest(&run) {
                        report.violations.push(format!(
                            "{name}: a rerun of the same plan diverged at rate {rate}"
                        ));
                    }
                }
                Err(_) => report
                    .violations
                    .push(format!("{name}: rerun panicked at rate {rate}")),
            }
        }
    }

    soak_fleet(config, &mut report, escalation);
    report
}

/// The fleet leg: supervision, health accounting, and `--jobs`
/// independence under faults.
fn soak_fleet(config: &SoakConfig, report: &mut SoakReport, escalation: &[f64]) {
    let base = FleetConfig {
        jobs: 2,
        ..FleetConfig::smoke(config.fleet_size, config.seed)
    };

    // Invariant 3a at fleet scale: zero-rate plan == no plan, byte for byte.
    let (bare, _) = run_fleet(&base);
    let (zeroed, _) = run_fleet(&FleetConfig {
        faults: Some(FaultPlan::zero(config.seed)),
        ..base.clone()
    });
    report.fleet_runs += 2;
    if ea_fleet::render::to_json(&bare) != ea_fleet::render::to_json(&zeroed) {
        report
            .violations
            .push(String::from("fleet: zero-rate plan diverged from no plan"));
    }

    for &rate in escalation {
        let faulted = FleetConfig {
            faults: Some(FaultPlan::uniform(config.seed ^ 0xC4A0_5EED, rate)),
            jobs: 1,
            ..base.clone()
        };
        let (sequential, _) = run_fleet(&faulted);
        let (parallel, _) = run_fleet(&FleetConfig {
            jobs: 4,
            ..faulted.clone()
        });
        report.fleet_runs += 2;

        // Determinism: the faulted report is --jobs independent.
        if ea_fleet::render::to_json(&sequential) != ea_fleet::render::to_json(&parallel) {
            report.violations.push(format!(
                "fleet: faulted report differs between --jobs 1 and 4 at rate {rate}"
            ));
        }
        // Supervision: every device is accounted for.
        if sequential.devices_completed + sequential.health.devices_abandoned != faulted.size {
            report.violations.push(format!(
                "fleet: {} completed + {} abandoned != {} devices at rate {rate}",
                sequential.devices_completed, sequential.health.devices_abandoned, faulted.size
            ));
        }
        for (kind, count) in &sequential.health.faults_injected {
            *report.faults_injected.entry(kind.clone()).or_default() += count;
        }
        for (kind, count) in &sequential.health.faults_detected {
            *report.faults_detected.entry(kind.clone()).or_default() += count;
        }
        // Health: at a meaningful rate the section must be populated.
        if rate >= 0.2 && sequential.health.faults_injected.is_empty() {
            report.violations.push(format!(
                "fleet: no faults recorded in the health section at rate {rate}"
            ));
        }
        // Every injected device panic must show up in the supervisor's
        // retry accounting (retried, then recovered or abandoned).
        let panics = sequential
            .health
            .faults_injected
            .get("device_panic")
            .copied()
            .unwrap_or(0);
        if panics > 0 && sequential.health.devices_retried == 0 {
            report.violations.push(format!(
                "fleet: {panics} device panic(s) injected but no device was retried at rate {rate}"
            ));
        }
        if sequential.health.devices_retried
            != sequential.health.devices_recovered + sequential.health.devices_abandoned
        {
            report.violations.push(format!(
                "fleet: retried {} != recovered {} + abandoned {} at rate {rate}",
                sequential.health.devices_retried,
                sequential.health.devices_recovered,
                sequential.health.devices_abandoned
            ));
        }
        // Invariant 5: replay fidelity. Every abandoned device's
        // forensics bundle must reproduce the recorded outcome when
        // re-supervised from the report's embedded replay config.
        if !sequential.failures.is_empty() {
            let replayed = ea_fleet::replay_report(&sequential, 0);
            report.fleet_runs += 1;
            for failure in replayed.failures.iter().filter(|f| !f.matched) {
                report.violations.push(format!(
                    "fleet: device {} replay diverged at rate {rate}: {}",
                    failure.index,
                    failure.mismatches.join("; ")
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_soak_passes() {
        let report = run_soak(&SoakConfig {
            seed: 11,
            fleet_size: 8,
            quick: true,
        });
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report.scenario_runs > Scenario::ALL.len() * 4);
        assert!(
            report.faults_injected.values().sum::<u64>() > 0,
            "soak actually injected faults"
        );
    }
}
