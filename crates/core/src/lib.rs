//! # ea-core — E-Android: collateral-energy-aware profiling
//!
//! This crate is the paper's contribution: energy profiling that accounts
//! for *collateral energy* — energy one app causes another app (or the
//! screen) to consume through IPC, wakelocks, or screen configuration.
//!
//! Following §IV of the paper, it is built from three parts:
//!
//! 1. **Framework extension** — [`LifecycleTracker`] runs the five attack
//!    lifecycle state machines of Figure 5 over the framework event stream;
//!    [`CollateralMonitor`] wires them to the energy maps.
//! 2. **Enhanced accounting** — [`CollateralGraph`] holds per-app collateral
//!    energy maps with the chain/multi-attack propagation of Algorithm 1;
//!    [`Profiler`] integrates the hardware power draws, attributes them
//!    under a baseline [`ScreenPolicy`] (BatteryStats-style or
//!    PowerTutor-style), and accrues collateral while attack periods are
//!    open.
//! 3. **Revised battery interface** — [`BatteryView`] renders both the
//!    stock ranking (which the attacks evade) and the E-Android ranking
//!    with per-app collateral inventories (Figures 1 and 8).
//!
//! ## Example: the paper's motivating scenario
//!
//! ```
//! use ea_core::{BatteryView, Entity, Profiler, ScreenPolicy, labels_from};
//! use ea_framework::{AndroidSystem, AppManifest, Intent, Permission};
//! use ea_sim::SimDuration;
//!
//! let mut android = AndroidSystem::new();
//! let message = android.install(
//!     AppManifest::builder("com.message").activity("Compose", true).build(),
//! );
//! let camera = android.install(
//!     AppManifest::builder("com.camera")
//!         .activity("Record", true)
//!         .permission(Permission::Camera)
//!         .build(),
//! );
//!
//! android.user_launch("com.message").unwrap();
//! let mut profiler = Profiler::eandroid(ScreenPolicy::SeparateEntity);
//! profiler.run(&mut android, SimDuration::from_secs(5));
//!
//! // "Record video" inside Message: the Camera app does the work.
//! android.start_activity(message, Intent::explicit("com.camera", "Record")).unwrap();
//! android.camera_start(camera, true).unwrap();
//! profiler.run(&mut android, SimDuration::from_secs(30));
//!
//! // The stock view blames the Camera; E-Android also charges Message.
//! let graph = profiler.collateral().unwrap();
//! assert!(graph.collateral_total(message).as_joules() > 0.0);
//!
//! let view = BatteryView::eandroid(profiler.ledger(), graph, &labels_from(&android));
//! assert!(view.row(Entity::App(message)).unwrap().total
//!     > profiler.ledger().total_of(Entity::App(message)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accounting;
mod chaos;
mod detector;
mod energy_map;
mod entity;
mod interface;
mod ledger;
mod lifecycle;
mod monitor;
mod profiler;
mod routines;
mod sanitize;
mod serde_util;
mod slot;
mod timeline;

pub use accounting::{
    attribute, attribute_into, collateral_consumers, collateral_consumers_into, ScreenPolicy,
};
pub use chaos::ProfilerChaos;
pub use detector::{flagged, report, CollateralFinding, DetectorConfig, FlagReason};
pub use energy_map::{CollateralEntry, CollateralGraph, LinkToken};
pub use entity::Entity;
pub use interface::{labels_from, BatteryRow, BatteryView};
pub use ledger::{ComponentBreakdown, EnergyLedger};
pub use lifecycle::{AttackId, AttackInfo, AttackKind, LifecycleTracker, Transition};
pub use monitor::{AttackRecord, CollateralMonitor};
pub use profiler::Profiler;
pub use routines::RoutineLedger;
pub use sanitize::{Anomaly, Confidence, CounterSanitizer, Sanitized, QUARANTINE_TICKS};
pub use slot::{SlotInterner, UidSlot};
pub use timeline::{AttackTimeline, TimelineRow};

/// The framework's lifecycle intent vocabulary, re-exported so replay
/// and forensics consumers (`ea-fleet`, the CLI, external tooling) can
/// serialize intent logs without depending on `ea-framework` directly.
pub mod intentlog {
    pub use ea_framework::{
        Cause, IntentLog, IntentLogDump, IntentLogRecorder, LifecycleIntent, LifecycleOp,
        LifecycleReducer, INTENT_LOG_CAPACITY,
    };
}

/// Shared deterministic seeding helpers (the splitmix64 family).
///
/// The actual definitions live in `ea_sim::rng` — the lowest layer every
/// crate already depends on — and are re-exported here so seed-schedule
/// consumers (`ea-fleet`, `ea-chaos`, benchmarks) share one
/// implementation instead of private copies.
pub mod rng {
    pub use ea_sim::rng::{splitmix64, splitmix64_lane, splitmix64_stream, SPLITMIX64_GAMMA};
}
