//! The composed handset power model.

use serde::{Deserialize, Serialize};

use ea_sim::{SimTime, Uid};

use crate::usage::DeviceUsage;
use crate::{
    AudioModel, CameraMode, CameraModel, CellularModel, Component, CpuModel, GpsModel, ScreenModel,
    WifiModel,
};

/// One app's share of a component's power draw over an interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UsageShare {
    /// The app.
    pub uid: Uid,
    /// Fraction of the component's draw attributable to this app's usage,
    /// in `[0, 1]`. Shares across an entry sum to at most 1; the remainder
    /// is unattributed system draw.
    pub share: f64,
}

/// A component's power draw over a snapshot interval, with usage facts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentDraw {
    /// Which component.
    pub component: Component,
    /// Total draw, mW.
    pub power_mw: f64,
    /// Usage-proportional responsibility facts. Empty means purely system
    /// draw. For the screen this carries the *foreground app*; whether the
    /// foreground app is actually billed is the accounting policy's call.
    pub users: Vec<UsageShare>,
}

impl ComponentDraw {
    /// The share attributed to `uid`, or zero.
    pub fn share_of(&self, uid: Uid) -> f64 {
        self.users
            .iter()
            .filter(|user| user.uid == uid)
            .map(|user| user.share)
            .sum()
    }

    /// Sum of all attributed shares (≤ 1).
    pub fn attributed(&self) -> f64 {
        self.users.iter().map(|user| user.share).sum()
    }
}

/// The full handset model: one sub-model per component plus the suspend
/// floor.
///
/// The radio sub-models are stateful (tail tracking), so [`draws`] takes
/// `&mut self` and must be called with non-decreasing timestamps.
///
/// [`draws`]: DevicePowerModel::draws
///
/// # Example
///
/// ```
/// use ea_power::{DevicePowerModel, DeviceUsage, ScreenUsage};
/// use ea_sim::{SimTime, Uid};
///
/// let mut model = DevicePowerModel::nexus4();
/// let mut usage = DeviceUsage::idle();
/// usage.screen = ScreenUsage::on(128, Some(Uid::FIRST_APP));
/// let draws = model.draws(SimTime::ZERO, &usage);
/// assert!(draws.iter().any(|d| d.component == ea_power::Component::Screen));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DevicePowerModel {
    /// CPU model.
    pub cpu: CpuModel,
    /// Screen model.
    pub screen: ScreenModel,
    /// WiFi radio model.
    pub wifi: WifiModel,
    /// Cellular modem model.
    pub cellular: CellularModel,
    /// GPS model.
    pub gps: GpsModel,
    /// Camera model.
    pub camera: CameraModel,
    /// Audio model.
    pub audio: AudioModel,
    /// Whole-device draw while suspended (everything quiet), mW.
    pub suspend_mw: f64,
    /// The radio FSMs' outputs at their last observation.
    #[serde(default)]
    radio_outputs: RadioOutputs,
}

/// One radio's `(power, users)` output at its last observation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct RadioOutput {
    power_mw: f64,
    users: Vec<Uid>,
}

impl RadioOutput {
    /// Records `(power_mw, users)`; true when it differs from the previous
    /// observation.
    fn update(&mut self, power_mw: f64, users: &[Uid]) -> bool {
        if self.power_mw == power_mw && self.users == users {
            return false;
        }
        self.power_mw = power_mw;
        self.users.clear();
        self.users.extend_from_slice(users);
        true
    }
}

/// The WiFi, cellular and GPS outputs, kept so the model can report
/// whether a step moved any of them.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct RadioOutputs {
    wifi: RadioOutput,
    cellular: RadioOutput,
    gps: RadioOutput,
}

impl DevicePowerModel {
    /// The Nexus-4 calibration used throughout the reproduction.
    pub fn nexus4() -> Self {
        DevicePowerModel {
            cpu: CpuModel::nexus4(),
            screen: ScreenModel::nexus4(),
            wifi: WifiModel::nexus4(),
            cellular: CellularModel::nexus4(),
            gps: GpsModel::nexus4(),
            camera: CameraModel::nexus4(),
            audio: AudioModel::nexus4(),
            suspend_mw: 6.0,
            radio_outputs: RadioOutputs::default(),
        }
    }

    /// A Galaxy-Nexus-class handset: same radios, AMOLED panel. Used by the
    /// panel-ablation benches to show the attack shapes are not an LCD
    /// artifact.
    pub fn galaxy_nexus() -> Self {
        DevicePowerModel {
            screen: ScreenModel::galaxy_nexus(),
            ..DevicePowerModel::nexus4()
        }
    }

    /// Computes the per-component draws for the interval ending at `now`
    /// under `usage`.
    ///
    /// When the device is fully idle it is considered suspended and only the
    /// suspend floor is reported (as unattributed CPU-component draw).
    pub fn draws(&mut self, now: SimTime, usage: &DeviceUsage) -> Vec<ComponentDraw> {
        let mut out = Vec::new();
        self.draws_into(now, usage, &mut out);
        out
    }

    /// Observes the WiFi, cellular and GPS state machines at `now` under
    /// `usage` and reports whether any radio's `(power, users)` output
    /// moved since the previous observation. The radios must observe every
    /// interval, idle ones included, because their tails expire on sim
    /// time. Observing twice at the same `now` with the same traffic is
    /// idempotent, so a caller that sees `true` can simply rebuild with
    /// [`draws_into`](Self::draws_into).
    pub fn observe_radios(&mut self, now: SimTime, usage: &DeviceUsage) -> bool {
        let outputs = &mut self.radio_outputs;
        let (wifi_mw, wifi_users) = self.wifi.observe(now, &usage.wifi);
        let wifi_moved = outputs.wifi.update(wifi_mw, wifi_users);
        let (cell_mw, cell_users, _) = self.cellular.observe(now, &usage.cellular);
        let cell_moved = outputs.cellular.update(cell_mw, cell_users);
        let (gps_mw, gps_users) = self.gps.observe(now, &usage.gps);
        let gps_moved = outputs.gps.update(gps_mw, gps_users);
        wifi_moved | cell_moved | gps_moved
    }

    /// Zero-allocation form of [`draws`](Self::draws): writes into `out`,
    /// recycling both the outer vector and the per-draw `users` allocations
    /// left there by the previous tick. At steady state a profiler step
    /// touches the allocator zero times through this path.
    pub fn draws_into(&mut self, now: SimTime, usage: &DeviceUsage, out: &mut Vec<ComponentDraw>) {
        // Reclaim the users allocations from last tick's draws (at most 7).
        let mut pool: [Vec<UsageShare>; 7] = Default::default();
        for (slot, draw) in pool.iter_mut().zip(out.drain(..)) {
            *slot = draw.users;
            slot.clear();
        }
        let mut pool = pool.into_iter();

        self.observe_radios(now, usage);
        let radios = &self.radio_outputs;

        if !usage.is_active() && radios.wifi.users.is_empty() && radios.cellular.users.is_empty() {
            out.push(ComponentDraw {
                component: Component::Cpu,
                power_mw: self.suspend_mw,
                users: pool.next().unwrap_or_default(),
            });
            return;
        }

        // CPU: static awake draw is unattributed; the dynamic part is split
        // by granted utilization.
        let total_util = usage.total_cpu();
        let cpu_mw = self.cpu.power_mw(total_util);
        let dynamic_fraction = if cpu_mw > 0.0 {
            (cpu_mw - self.cpu.awake_mw).max(0.0) / cpu_mw
        } else {
            0.0
        };
        let mut cpu_users = pool.next().unwrap_or_default();
        if total_util > 0.0 {
            cpu_users.extend(
                usage
                    .cpu
                    .iter()
                    .filter(|cpu_use| cpu_use.utilization > 0.0)
                    .map(|cpu_use| UsageShare {
                        uid: cpu_use.uid,
                        share: cpu_use.utilization / total_util * dynamic_fraction,
                    }),
            );
        }
        out.push(ComponentDraw {
            component: Component::Cpu,
            power_mw: cpu_mw,
            users: cpu_users,
        });

        // Screen: all draw is "used by" the foreground app as a fact.
        let screen_mw = self.screen.power_with_content(
            usage.screen.on,
            usage.screen.brightness,
            usage.screen.luma,
        );
        let mut screen_users = pool.next().unwrap_or_default();
        if let (true, Some(uid)) = (usage.screen.on, usage.screen.foreground) {
            screen_users.push(UsageShare { uid, share: 1.0 });
        }
        out.push(ComponentDraw {
            component: Component::Screen,
            power_mw: screen_mw,
            users: screen_users,
        });

        let mut wifi_shares = pool.next().unwrap_or_default();
        fill_equal_shares(&radios.wifi.users, &mut wifi_shares);
        out.push(ComponentDraw {
            component: Component::Wifi,
            power_mw: radios.wifi.power_mw,
            users: wifi_shares,
        });
        let mut cell_shares = pool.next().unwrap_or_default();
        fill_equal_shares(&radios.cellular.users, &mut cell_shares);
        out.push(ComponentDraw {
            component: Component::Cellular,
            power_mw: radios.cellular.power_mw,
            users: cell_shares,
        });
        let mut gps_shares = pool.next().unwrap_or_default();
        fill_equal_shares(&radios.gps.users, &mut gps_shares);
        out.push(ComponentDraw {
            component: Component::Gps,
            power_mw: radios.gps.power_mw,
            users: gps_shares,
        });

        let mut camera_users = pool.next().unwrap_or_default();
        let camera_mw = match usage.camera {
            Some(camera_use) => {
                let mode = if camera_use.recording {
                    CameraMode::Recording
                } else {
                    CameraMode::Preview
                };
                camera_users.push(UsageShare {
                    uid: camera_use.uid,
                    share: 1.0,
                });
                self.camera.power_mw(mode)
            }
            None => 0.0,
        };
        out.push(ComponentDraw {
            component: Component::Camera,
            power_mw: camera_mw,
            users: camera_users,
        });

        let mut audio_users = pool.next().unwrap_or_default();
        fill_equal_shares(&usage.audio, &mut audio_users);
        out.push(ComponentDraw {
            component: Component::Audio,
            power_mw: self.audio.power_mw(!usage.audio.is_empty()),
            users: audio_users,
        });
    }

    /// Total device draw for `usage` at `now`, mW.
    pub fn total_mw(&mut self, now: SimTime, usage: &DeviceUsage) -> f64 {
        self.draws(now, usage)
            .iter()
            .map(|draw| draw.power_mw)
            .sum()
    }
}

fn fill_equal_shares(uids: &[Uid], out: &mut Vec<UsageShare>) {
    if uids.is_empty() {
        return;
    }
    let share = 1.0 / uids.len() as f64;
    out.extend(uids.iter().map(|&uid| UsageShare { uid, share }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::usage::{CameraUse, CpuUse, RadioUse, ScreenUsage};

    fn uid(n: u32) -> Uid {
        Uid::from_raw(10_000 + n)
    }

    #[test]
    fn suspended_device_draws_only_the_floor() {
        let mut model = DevicePowerModel::nexus4();
        let draws = model.draws(SimTime::ZERO, &DeviceUsage::idle());
        assert_eq!(draws.len(), 1);
        assert_eq!(draws[0].power_mw, model.suspend_mw);
        assert!(draws[0].users.is_empty());
    }

    #[test]
    fn screen_draw_carries_foreground_fact() {
        let mut model = DevicePowerModel::nexus4();
        let mut usage = DeviceUsage::idle();
        usage.screen = ScreenUsage::on(128, Some(uid(3)));
        let draws = model.draws(SimTime::ZERO, &usage);
        let screen = draws
            .iter()
            .find(|d| d.component == Component::Screen)
            .unwrap();
        assert!(screen.power_mw > 0.0);
        assert_eq!(screen.users.len(), 1);
        assert_eq!(screen.users[0].uid, uid(3));
    }

    #[test]
    fn cpu_shares_are_utilization_proportional() {
        let mut model = DevicePowerModel::nexus4();
        let mut usage = DeviceUsage::idle();
        usage.cpu = vec![
            CpuUse {
                uid: uid(1),
                utilization: 0.6,
            },
            CpuUse {
                uid: uid(2),
                utilization: 0.2,
            },
        ];
        let draws = model.draws(SimTime::ZERO, &usage);
        let cpu = draws
            .iter()
            .find(|d| d.component == Component::Cpu)
            .unwrap();
        let a = cpu.share_of(uid(1));
        let b = cpu.share_of(uid(2));
        assert!(
            (a / b - 3.0).abs() < 1e-9,
            "3:1 utilization ratio preserved"
        );
        assert!(cpu.attributed() <= 1.0 + 1e-12);
    }

    #[test]
    fn camera_recording_attributed_to_holder() {
        let mut model = DevicePowerModel::nexus4();
        let mut usage = DeviceUsage::idle();
        usage.screen = ScreenUsage::on(100, Some(uid(1)));
        usage.camera = Some(CameraUse {
            uid: uid(2),
            recording: true,
        });
        let draws = model.draws(SimTime::ZERO, &usage);
        let camera = draws
            .iter()
            .find(|d| d.component == Component::Camera)
            .unwrap();
        assert_eq!(camera.users[0].uid, uid(2));
        assert_eq!(camera.power_mw, model.camera.recording_mw);
    }

    #[test]
    fn wifi_tail_keeps_device_accounted_after_traffic() {
        let mut model = DevicePowerModel::nexus4();
        let mut usage = DeviceUsage::idle();
        usage.screen = ScreenUsage::on(10, Some(uid(1)));
        usage.wifi = vec![RadioUse {
            uid: uid(1),
            throughput_kbps: 1_000.0,
        }];
        model.draws(SimTime::ZERO, &usage);

        // Device now idle, but within the wifi tail.
        let idle = DeviceUsage::idle();
        let draws = model.draws(SimTime::from_millis(200), &idle);
        let wifi = draws
            .iter()
            .find(|d| d.component == Component::Wifi)
            .expect("tail keeps the device active");
        assert_eq!(wifi.power_mw, model.wifi.tail_mw);
        assert_eq!(wifi.users[0].uid, uid(1));
    }

    #[test]
    fn observe_radios_reports_only_moved_outputs() {
        let mut model = DevicePowerModel::nexus4();
        let mut usage = DeviceUsage::idle();
        usage.wifi = vec![RadioUse {
            uid: uid(1),
            throughput_kbps: 500.0,
        }];
        assert!(
            model.observe_radios(SimTime::ZERO, &usage),
            "traffic starts"
        );
        assert!(
            !model.observe_radios(SimTime::ZERO, &usage),
            "same instant, same traffic: idempotent"
        );
        assert!(
            !model.observe_radios(SimTime::from_millis(100), &usage),
            "steady traffic"
        );
        let idle = DeviceUsage::idle();
        assert!(
            model.observe_radios(SimTime::from_millis(200), &idle),
            "traffic stops: the tail begins"
        );
        assert!(!model.observe_radios(SimTime::from_millis(300), &idle));
        assert!(
            model.observe_radios(SimTime::from_secs(2), &idle),
            "the tail expires on sim time alone"
        );
        assert!(!model.observe_radios(SimTime::from_secs(3), &idle));
    }

    #[test]
    fn total_is_sum_of_components() {
        let mut model = DevicePowerModel::nexus4();
        let mut usage = DeviceUsage::idle();
        usage.screen = ScreenUsage::on(255, Some(uid(1)));
        usage.cpu = vec![CpuUse {
            uid: uid(1),
            utilization: 0.5,
        }];
        let mut clone = model.clone();
        let total = model.total_mw(SimTime::ZERO, &usage);
        let sum: f64 = clone
            .draws(SimTime::ZERO, &usage)
            .iter()
            .map(|d| d.power_mw)
            .sum();
        assert!((total - sum).abs() < 1e-9);
    }

    #[test]
    fn audio_split_equally() {
        let mut model = DevicePowerModel::nexus4();
        let mut usage = DeviceUsage::idle();
        usage.audio = vec![uid(1), uid(2)];
        let draws = model.draws(SimTime::ZERO, &usage);
        let audio = draws
            .iter()
            .find(|d| d.component == Component::Audio)
            .unwrap();
        assert!((audio.share_of(uid(1)) - 0.5).abs() < 1e-12);
        assert!((audio.attributed() - 1.0).abs() < 1e-12);
    }
}
