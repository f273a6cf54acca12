//! # ea-power — smartphone hardware power models and battery
//!
//! This crate replaces the Nexus 4 handset of the E-Android paper with the
//! published model families that the paper's profilers themselves use:
//!
//! * a utilization-based linear-regression **CPU** model with frequency
//!   levels, the PowerTutor/BatteryStats approach ([`CpuModel`]),
//! * a brightness-linear **screen** model — the paper's attacks #5 and #6
//!   hinge on the screen being the dominant consumer ([`ScreenModel`]),
//! * finite-state **radio** models (WiFi, cellular, GPS) with promotion and
//!   *tail* states, following the system-call-tracing line of work the paper
//!   cites ([`WifiModel`], [`CellularModel`], [`GpsModel`]),
//! * constant-power **camera** and **audio** models ([`CameraModel`],
//!   [`AudioModel`]),
//! * a coulomb-counting **battery** calibrated to a Nexus-4-class pack
//!   ([`Battery`]),
//! * [`DevicePowerModel`]: the composition of all of the above, which turns a
//!   [`DeviceUsage`] snapshot into per-component power draws with per-UID
//!   usage shares ([`ComponentDraw`]) — the *facts* that the accounting
//!   policies in `ea-core` attribute to apps.
//!
//! Attribution **policy** (who gets charged for the screen, what counts as
//! collateral) deliberately lives in `ea-core`, not here: this crate reports
//! physics, not blame.
//!
//! ## Example
//!
//! ```
//! use ea_power::{Battery, DevicePowerModel, DeviceUsage, ScreenUsage};
//! use ea_sim::{SimTime, Uid};
//!
//! let mut model = DevicePowerModel::nexus4();
//! let mut usage = DeviceUsage::idle();
//! usage.screen = ScreenUsage::on(200, Some(Uid::FIRST_APP));
//!
//! let draws = model.draws(SimTime::ZERO, &usage);
//! let screen_mw: f64 = draws
//!     .iter()
//!     .filter(|d| d.component == ea_power::Component::Screen)
//!     .map(|d| d.power_mw)
//!     .sum();
//! assert!(screen_mw > 100.0);
//!
//! let mut battery = Battery::nexus4();
//! let _ = battery.drain(ea_power::Energy::from_joules(100.0));
//! assert!(battery.percent() < 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Fallible paths must return errors, not panic: unwrap/expect are
// banned outside tests (DESIGN.md §11). Carve-outs need an explicit
// `#[allow]` with a proof of infallibility.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod audio;
mod battery;
mod calibrate;
mod camera;
mod cellular;
mod coefficients;
mod component;
mod cpu;
mod energy;
mod gps;
mod model;
mod screen;
mod usage;
mod wifi;

pub use audio::AudioModel;
pub use battery::{Battery, DischargeCurve};
pub use calibrate::{fit_power_model, LinearPowerModel, PowerSample};
pub use camera::{CameraMode, CameraModel};
pub use cellular::{CellularModel, CellularState};
pub use coefficients::PowerCoefficients;
pub use component::Component;
pub use cpu::CpuModel;
pub use energy::Energy;
pub use gps::GpsModel;
pub use model::{ComponentDraw, DevicePowerModel, UsageShare};
pub use screen::ScreenModel;
pub use usage::{CameraUse, CpuUse, DeviceUsage, RadioUse, ScreenUsage};
pub use wifi::WifiModel;
