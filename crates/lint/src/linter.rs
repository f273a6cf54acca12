//! The linter driver: runs every [`RuleId`] over an app set and collects
//! a report.
//!
//! Three entry points, one engine:
//!
//! * [`Linter::lint_system`] — facts from an [`AndroidSystem`]'s installed
//!   user apps (behaviour profiles included),
//! * [`Linter::lint_manifests`] — facts from bare manifests (the Figure 2
//!   corpus mode),
//! * [`LintSystem::lint`] — the one-call convenience on `AndroidSystem`
//!   itself, inheriting the system's telemetry sink.

use ea_core::AttackKind;
use ea_framework::{AndroidSystem, AppManifest};
use ea_telemetry::{span, SinkHandle};

use crate::diagnostic::{Diagnostic, RuleId};
use crate::facts::AppFacts;
use crate::flow::LintContext;

/// The outcome of one lint pass.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings, sorted by (rule code, package, component) for stable
    /// output, with [`Diagnostic::energy_rank`] assigned by descending
    /// `predicted_joules`.
    pub diagnostics: Vec<Diagnostic>,
    /// How many apps were analyzed.
    pub apps_checked: usize,
}

impl LintReport {
    /// Whether no rule fired.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of diagnostics.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// Every [`AttackKind`] statically predicted for the app with `uid`,
    /// deduplicated, in first-seen order.
    pub fn predicted_kinds(&self, uid: u32) -> Vec<AttackKind> {
        let mut kinds = Vec::new();
        for diag in self.diagnostics.iter().filter(|d| d.uid == Some(uid)) {
            for &kind in &diag.predicted {
                if !kinds.contains(&kind) {
                    kinds.push(kind);
                }
            }
        }
        kinds
    }

    /// Diagnostics per rule, in rule-code order, zero counts included.
    pub fn counts_by_rule(&self) -> Vec<(RuleId, usize)> {
        RuleId::ALL
            .iter()
            .map(|&rule| {
                let count = self.diagnostics.iter().filter(|d| d.rule == rule).count();
                (rule, count)
            })
            .collect()
    }

    /// Diagnostics by descending energy bound (ties broken by the
    /// report's stable sort key) — i.e. in [`Diagnostic::energy_rank`]
    /// order.
    pub fn by_energy(&self) -> Vec<&Diagnostic> {
        let mut out: Vec<&Diagnostic> = self.diagnostics.iter().collect();
        out.sort_by_key(|d| d.energy_rank);
        out
    }

    /// The total static energy bound over all findings, joules/day.
    /// An aggregate exposure figure, not a physical prediction: the same
    /// victim may be counted under several rules.
    pub fn total_predicted_joules(&self) -> f64 {
        self.diagnostics.iter().map(|d| d.predicted_joules).sum()
    }
}

/// Runs every rule over app facts.
pub struct Linter {
    telemetry: SinkHandle,
}

impl Default for Linter {
    fn default() -> Self {
        Linter::new()
    }
}

impl Linter {
    /// A linter with no telemetry.
    pub fn new() -> Linter {
        Linter {
            telemetry: SinkHandle::noop(),
        }
    }

    /// Reports counters and spans through `handle`.
    pub fn with_telemetry(mut self, handle: SinkHandle) -> Linter {
        self.telemetry = handle;
        self
    }

    /// Runs every rule over a prebuilt context.
    pub fn run(&self, ctx: &LintContext) -> LintReport {
        let _pass = span(self.telemetry.sink(), "lint_pass");
        let mut diagnostics = Vec::new();
        for (index, facts) in ctx.apps().iter().enumerate() {
            for rule in RuleId::ALL {
                if let Some(diag) = rule.check(index, facts, ctx) {
                    diagnostics.push(diag);
                }
            }
        }
        diagnostics.sort_by(|a, b| {
            (a.rule.code(), a.package.as_str(), a.component.as_deref()).cmp(&(
                b.rule.code(),
                b.package.as_str(),
                b.component.as_deref(),
            ))
        });
        // Energy ranks: 1-based by descending bound, stable-sort ties by
        // the (rule, package, component) key just established.
        let mut by_energy: Vec<usize> = (0..diagnostics.len()).collect();
        by_energy.sort_by(|&a, &b| {
            diagnostics[b]
                .predicted_joules
                .total_cmp(&diagnostics[a].predicted_joules)
                .then(a.cmp(&b))
        });
        for (rank, index) in by_energy.into_iter().enumerate() {
            diagnostics[index].energy_rank = rank + 1;
        }

        if self.telemetry.enabled() {
            self.telemetry
                .counter_add("lint_apps_checked_total", ctx.apps().len() as u64);
            self.telemetry
                .counter_add("lint_diagnostics_total", diagnostics.len() as u64);
            for diag in &diagnostics {
                self.telemetry.counter_add(
                    &format!("lint_rule_{}_total", diag.rule.code().to_lowercase()),
                    1,
                );
            }
        }
        LintReport {
            diagnostics,
            apps_checked: ctx.apps().len(),
        }
    }

    /// Lints the installed user apps of a running system.
    pub fn lint_system(&self, android: &AndroidSystem) -> LintReport {
        let facts = android.user_apps().map(AppFacts::from_installed).collect();
        self.run(&LintContext::new(facts))
    }

    /// Lints bare manifests (corpus mode; no behaviour facts).
    pub fn lint_manifests(&self, manifests: &[AppManifest]) -> LintReport {
        let facts = manifests.iter().map(AppFacts::from_manifest).collect();
        self.run(&LintContext::new(facts))
    }
}

/// Extension trait giving [`AndroidSystem`] a one-call static analysis
/// pass: `android.lint()` runs every rule over the installed
/// user apps, reporting through the system's telemetry sink.
pub trait LintSystem {
    /// Statically analyzes the installed user apps.
    fn lint(&self) -> LintReport;
}

impl LintSystem for AndroidSystem {
    fn lint(&self) -> LintReport {
        Linter::new()
            .with_telemetry(self.telemetry().clone())
            .lint_system(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_framework::Permission;
    use ea_telemetry::Recorder;
    use std::sync::Arc;

    fn pair() -> Vec<AppManifest> {
        vec![
            AppManifest::builder("com.a")
                .activity("Main", true)
                .permission(Permission::WakeLock)
                .build(),
            AppManifest::builder("com.b").activity("Open", true).build(),
        ]
    }

    #[test]
    fn report_is_sorted_and_counts_match() {
        let report = Linter::new().lint_manifests(&pair());
        assert_eq!(report.apps_checked, 2);
        assert!(!report.is_empty());
        let keys: Vec<(&str, String, Option<String>)> = report
            .diagnostics
            .iter()
            .map(|d| (d.rule.code(), d.package.clone(), d.component.clone()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        let total: usize = report.counts_by_rule().iter().map(|(_, n)| n).sum();
        assert_eq!(total, report.len());
    }

    #[test]
    fn energy_ranks_are_a_permutation_ordered_by_bound() {
        let report = Linter::new().lint_manifests(&pair());
        let mut ranks: Vec<usize> = report.diagnostics.iter().map(|d| d.energy_rank).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (1..=report.len()).collect::<Vec<_>>());
        let by_energy = report.by_energy();
        for pair in by_energy.windows(2) {
            assert!(
                pair[0].predicted_joules >= pair[1].predicted_joules,
                "rank order must follow the bound"
            );
        }
        assert!(report.total_predicted_joules() > 0.0);
    }

    #[test]
    fn system_lint_sees_installed_apps_and_uids() {
        let mut android = AndroidSystem::new();
        for manifest in pair() {
            android.install(manifest);
        }
        let report = android.lint();
        assert_eq!(report.apps_checked, 2);
        let uid = android.uid_of("com.a").unwrap().as_raw();
        assert!(
            report
                .predicted_kinds(uid)
                .contains(&AttackKind::WakelockLeak),
            "WAKE_LOCK app must be flagged for wakelock leaks"
        );
        assert!(report.diagnostics.iter().all(|d| d.uid.is_some()));
    }

    #[test]
    fn lint_pass_reports_telemetry() {
        let recorder = Arc::new(Recorder::new());
        let linter = Linter::new().with_telemetry(SinkHandle::new(recorder.clone()));
        let report = linter.lint_manifests(&pair());
        let metrics = recorder.metrics();
        assert_eq!(metrics.counters.get("lint_apps_checked_total"), Some(&2));
        assert_eq!(
            metrics.counters.get("lint_diagnostics_total"),
            Some(&(report.len() as u64))
        );
    }
}
