//! Device usage snapshots.
//!
//! A [`DeviceUsage`] is a piecewise-constant description of what every
//! component is doing and *on whose behalf*. The framework bumps its usage
//! epoch whenever anything a snapshot reads changes (activity switch,
//! wakelock, brightness write, camera start…); the profiler rebuilds the
//! snapshot, and the draws and attribution derived from it, only on an
//! epoch change (or when a radio's tail state moves) and integrates power
//! over the steps in between with the snapshot it already has.

use serde::{Deserialize, Serialize};

use ea_sim::Uid;

/// CPU demand attributable to one app over the snapshot interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuUse {
    /// The app.
    pub uid: Uid,
    /// Granted utilization in cores (already scheduled, i.e. the scheduler's
    /// output, not raw demand).
    pub utilization: f64,
}

/// Screen panel state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScreenUsage {
    /// Whether the panel is lit.
    pub on: bool,
    /// Brightness level, 0–255 (Android's settings range).
    pub brightness: u8,
    /// Average luminance of the displayed frame, `[0, 1]` — drives OLED
    /// panel power, ignored by LCD models.
    pub luma: f64,
    /// The app owning the foreground activity, if any. This is a *fact*
    /// consumed by attribution policies; it does not affect the panel's
    /// power draw.
    pub foreground: Option<Uid>,
}

impl ScreenUsage {
    /// A lit screen at `brightness` with `foreground` in front, showing
    /// average content.
    pub fn on(brightness: u8, foreground: Option<Uid>) -> Self {
        ScreenUsage {
            on: true,
            brightness,
            luma: 0.5,
            foreground,
        }
    }

    /// Overrides the displayed content's average luminance.
    pub fn with_luma(mut self, luma: f64) -> Self {
        self.luma = luma.clamp(0.0, 1.0);
        self
    }

    /// A dark screen.
    pub fn off() -> Self {
        ScreenUsage {
            on: false,
            brightness: 0,
            luma: 0.0,
            foreground: None,
        }
    }
}

/// Camera activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CameraUse {
    /// The app holding the camera.
    pub uid: Uid,
    /// Preview vs. active recording (recording draws more).
    pub recording: bool,
}

/// Radio (WiFi/cellular) activity attributable to one app.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RadioUse {
    /// The app.
    pub uid: Uid,
    /// Application-level throughput in kilobits per second.
    pub throughput_kbps: f64,
}

/// A complete piecewise-constant usage snapshot of the handset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct DeviceUsage {
    /// Per-app granted CPU utilization.
    pub cpu: Vec<CpuUse>,
    /// Screen state.
    pub screen: ScreenUsage,
    /// Camera activity, if the camera is open.
    pub camera: Option<CameraUse>,
    /// Apps currently playing audio.
    pub audio: Vec<Uid>,
    /// Apps holding a GPS fix.
    pub gps: Vec<Uid>,
    /// Per-app WiFi traffic.
    pub wifi: Vec<RadioUse>,
    /// Per-app cellular traffic.
    pub cellular: Vec<RadioUse>,
}

impl Default for ScreenUsage {
    fn default() -> Self {
        ScreenUsage::off()
    }
}

impl DeviceUsage {
    /// A fully idle handset: screen off, no CPU demand, radios quiet.
    pub fn idle() -> Self {
        DeviceUsage::default()
    }

    /// Resets to the idle state while keeping every vector's capacity — the
    /// hot-loop companion of [`idle`](Self::idle), used by snapshot
    /// producers that refill the same buffer every tick.
    pub fn clear(&mut self) {
        self.cpu.clear();
        self.screen = ScreenUsage::off();
        self.camera = None;
        self.audio.clear();
        self.gps.clear();
        self.wifi.clear();
        self.cellular.clear();
    }

    /// Total granted CPU utilization across apps, in cores.
    pub fn total_cpu(&self) -> f64 {
        self.cpu.iter().map(|use_| use_.utilization).sum()
    }

    /// Total WiFi throughput across apps, in kbps.
    pub fn total_wifi_kbps(&self) -> f64 {
        self.wifi.iter().map(|use_| use_.throughput_kbps).sum()
    }

    /// Total cellular throughput across apps, in kbps.
    pub fn total_cellular_kbps(&self) -> f64 {
        self.cellular.iter().map(|use_| use_.throughput_kbps).sum()
    }

    /// Whether any component is in use at all (false ⇒ the device could
    /// suspend).
    pub fn is_active(&self) -> bool {
        self.screen.on
            || self.total_cpu() > 0.0
            || self.camera.is_some()
            || !self.audio.is_empty()
            || !self.gps.is_empty()
            || self.total_wifi_kbps() > 0.0
            || self.total_cellular_kbps() > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_is_inactive() {
        assert!(!DeviceUsage::idle().is_active());
    }

    #[test]
    fn screen_on_makes_device_active() {
        let mut usage = DeviceUsage::idle();
        usage.screen = ScreenUsage::on(100, None);
        assert!(usage.is_active());
    }

    #[test]
    fn totals_sum_across_apps() {
        let mut usage = DeviceUsage::idle();
        usage.cpu.push(CpuUse {
            uid: Uid::FIRST_APP,
            utilization: 0.25,
        });
        usage.cpu.push(CpuUse {
            uid: Uid::FIRST_APP.next(),
            utilization: 0.5,
        });
        usage.wifi.push(RadioUse {
            uid: Uid::FIRST_APP,
            throughput_kbps: 300.0,
        });
        assert!((usage.total_cpu() - 0.75).abs() < 1e-12);
        assert!((usage.total_wifi_kbps() - 300.0).abs() < 1e-12);
        assert_eq!(usage.total_cellular_kbps(), 0.0);
    }

    #[test]
    fn default_screen_is_off() {
        assert_eq!(ScreenUsage::default(), ScreenUsage::off());
    }
}
