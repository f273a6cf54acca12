//! # ea-apps — demo apps, the six malware, and scripted scenarios
//!
//! The workload layer of the E-Android reproduction:
//!
//! * [`demo`] — the Message/Camera/Contacts/Music apps of the motivating
//!   scenario plus the near-empty victim apps of §III-B,
//! * [`malware`] — the six collateral-energy malware, implemented exactly as
//!   §V describes (including the SurfaceFlinger UI-inference trick of
//!   malware #4 and the transparent self-closing settings page of #5),
//! * [`scenario`] — the §VI experiment scripts (two normal scenes, six
//!   attacks, two normal baselines) producing Figure 9,
//! * [`depletion`] — the Figure 3 battery-depletion sweep.
//!
//! ## Example
//!
//! ```
//! use ea_apps::scenario::Scenario;
//! use ea_core::{Profiler, ScreenPolicy};
//!
//! let run = Scenario::Attack3BindService.run(Profiler::eandroid(ScreenPolicy::SeparateEntity));
//! let malware = run.malware.unwrap();
//! let charged = run.profiler.collateral().unwrap().collateral_total(malware);
//! assert!(charged.as_joules() > 0.0, "E-Android exposes the malware");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod demo;
pub mod depletion;
pub mod malware;
pub mod scenario;
pub mod workload;

pub use demo::DemoApps;
pub use depletion::{
    run_depletion, run_depletion_chaos, run_depletion_with_model, DepletionCase, DepletionCurve,
    DepletionPoint,
};
pub use malware::{Malware, MALWARE_PACKAGE};
pub use scenario::{RunOutput, Scenario};
pub use workload::{run_workload, WorkloadConfig, WorkloadSummary};
