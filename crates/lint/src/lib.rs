//! # ea-lint — static collateral-energy analysis
//!
//! The paper's Figure 2 corpus study shows the preconditions of every
//! collateral energy attack are *statically visible*: exported components
//! (72 % of 1,124 Play-store apps), `WAKE_LOCK` (81 %), and
//! `WRITE_SETTINGS` (21 %) sit in the manifest long before any joule is
//! burned. This crate turns that observation into a rule-based analyzer
//! that runs over an installed app set *before* simulation:
//!
//! * **Fact extraction** ([`AppFacts`]) distills each app's manifest and
//!   install-time behaviour (wakelock release policy, background demand).
//! * **Intent-flow pass** ([`LintContext`]) matches implicit intents to
//!   exported handlers across apps and derives chain reachability.
//! * **Rules** ([`RuleId::check`]) — one per paper attack
//!   #1–#6 (`EA0001`–`EA0006`) plus no-sleep-bug, stealth-autostart, and
//!   attack-chain rules — emit typed [`Diagnostic`]s with stable IDs,
//!   severity, evidence, and the predicted [`ea_core::AttackKind`]s.
//! * **Renderers** ([`render::to_text`], [`render::to_json`]) produce
//!   deterministic, golden-testable output.
//! * **Soundness harness** ([`soundness::check_superset`]): static
//!   prediction must be a *superset* of what the dynamic
//!   [`ea_core::CollateralMonitor`] observes — every recorded
//!   `(driving uid, AttackKind)` pair must carry a matching diagnostic.
//!
//! ## Example
//!
//! ```
//! use ea_framework::{AndroidSystem, AppManifest, Permission};
//! use ea_lint::{LintSystem, RuleId};
//!
//! let mut android = AndroidSystem::new();
//! android.install(
//!     AppManifest::builder("com.fungame")
//!         .activity("Game", true)
//!         .permission(Permission::WakeLock)
//!         .permission(Permission::WriteSettings)
//!         .build(),
//! );
//!
//! let report = android.lint();
//! let rules: Vec<RuleId> = report.diagnostics.iter().map(|d| d.rule).collect();
//! assert!(rules.contains(&RuleId::WakelockHold));
//! assert!(rules.contains(&RuleId::SettingsTamper));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Fallible paths must return errors, not panic: unwrap/expect are
// banned outside tests (DESIGN.md §11). Carve-outs need an explicit
// `#[allow]` with a proof of infallibility.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod absint;
pub mod baseline;
mod diagnostic;
mod facts;
mod flow;
mod linter;
pub mod render;
pub mod soundness;

mod rules;

pub use absint::{AbsintSolution, PricedEnvelope, Pricer};
pub use baseline::{BaselineDiff, DiffEntry};
pub use diagnostic::{Diagnostic, RuleId, Severity};
pub use facts::AppFacts;
pub use flow::{Handler, LintContext};
pub use linter::{LintReport, LintSystem, Linter};
