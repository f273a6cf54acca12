//! Pricing abstract occupancies into joules per day.
//!
//! The bridge between the lattice and the paper's energy claims: each
//! [`Resource`] maps to a physical power component and a worst-case draw
//! from [`ea_power::PowerCoefficients`] — the same Nexus-4 calibration
//! the simulator drains with. An occupancy of `o` on a resource with
//! ceiling `P` mW prices to `o × P × 86 400 / 1000` joules over an
//! ARENA-style day. Because no dynamic run can hold a resource longer
//! than the day or hotter than the model's ceiling, the priced envelope
//! is an upper bound on anything the [`ea_core::CollateralMonitor`] can
//! attribute — the quantitative half of the soundness contract.

use ea_power::PowerCoefficients;

use super::lattice::{Resource, ResourceState};

/// The day horizon every occupancy is priced over, in seconds.
pub const SECONDS_PER_DAY: f64 = 86_400.0;

/// Physical power components the pricer attributes to, in render order.
pub const COMPONENTS: [&str; 6] = ["cpu", "screen", "radio", "gps", "camera", "audio"];

const CPU: usize = 0;
const SCREEN: usize = 1;
const RADIO: usize = 2;
const GPS: usize = 3;
const CAMERA: usize = 4;
const AUDIO: usize = 5;

/// A priced abstract envelope: total joules/day plus the per-component
/// split (same order as [`COMPONENTS`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PricedEnvelope {
    by: [f64; COMPONENTS.len()],
}

impl PricedEnvelope {
    /// Total bound, joules per day.
    pub fn total_joules(&self) -> f64 {
        self.by.iter().sum()
    }

    /// Non-zero `(component, joules/day)` rows, in component order.
    pub fn breakdown(&self) -> Vec<(&'static str, f64)> {
        COMPONENTS
            .iter()
            .zip(self.by.iter())
            .filter(|(_, &joules)| joules > 0.0)
            .map(|(&component, &joules)| (component, joules))
            .collect()
    }

    /// Adds another envelope component-wise.
    pub fn add(&mut self, other: &PricedEnvelope) {
        for (mine, theirs) in self.by.iter_mut().zip(other.by.iter()) {
            *mine += theirs;
        }
    }

    /// Subtracts component-wise, clamping at zero (floating-point dust
    /// from sum-minus-member aggregation must not go negative).
    pub fn saturating_sub(&mut self, other: &PricedEnvelope) {
        for (mine, theirs) in self.by.iter_mut().zip(other.by.iter()) {
            *mine = (*mine - *theirs).max(0.0);
        }
    }

    /// Whether the bound is zero everywhere.
    pub fn is_zero(&self) -> bool {
        self.by.iter().all(|&joules| joules == 0.0)
    }
}

/// Prices [`ResourceState`]s through a device calibration.
#[derive(Debug, Clone)]
pub struct Pricer {
    coeffs: PowerCoefficients,
}

impl Pricer {
    /// A pricer over the given worst-case coefficients.
    pub fn new(coeffs: PowerCoefficients) -> Pricer {
        Pricer { coeffs }
    }

    fn day_joules(power_mw: f64, occupancy: f64) -> f64 {
        power_mw * occupancy * SECONDS_PER_DAY / 1_000.0
    }

    /// Prices one abstract state: Σ occupancy × component ceiling × day,
    /// plus the awake-floor for any CPU occupancy (an occupied core keeps
    /// the application processor out of suspend).
    pub fn price(&self, state: &ResourceState) -> PricedEnvelope {
        let mut out = PricedEnvelope::default();
        let c = &self.coeffs;
        for resource in Resource::ALL {
            let occ = state.occupancy(resource);
            if occ == 0.0 {
                continue;
            }
            let (slot, mw) = match resource {
                Resource::CpuForeground | Resource::CpuService => (CPU, c.cpu_core_max_mw),
                // Occupancy of the background-CPU resource is in
                // core-days (utilization × residency), so the dynamic
                // ladder is bounded by the top per-core rate.
                Resource::CpuBackground => (CPU, c.cpu_core_max_mw - c.cpu_awake_mw),
                Resource::ScreenOn | Resource::ScreenBright => (SCREEN, c.screen_max_mw),
                Resource::Radio => (RADIO, c.radio_max_mw),
                Resource::Gps => (GPS, c.gps_max_mw),
                Resource::Camera => (CAMERA, c.camera_max_mw),
                Resource::Audio => (AUDIO, c.audio_max_mw),
            };
            out.by[slot] += Self::day_joules(mw, occ);
        }
        let cpu_occupied = [
            Resource::CpuForeground,
            Resource::CpuBackground,
            Resource::CpuService,
        ]
        .iter()
        .any(|&r| state.occupancy(r) > 0.0);
        if cpu_occupied {
            out.by[CPU] += Self::day_joules(c.cpu_awake_mw, 1.0);
        }
        out
    }

    /// The screen held at its ceiling for a whole day (brightness
    /// escalation, attack #5).
    pub fn screen_day(&self) -> PricedEnvelope {
        let mut out = PricedEnvelope::default();
        out.by[SCREEN] = Self::day_joules(self.coeffs.screen_max_mw, 1.0);
        out
    }

    /// A leaked screen wakelock for a whole day: panel ceiling plus the
    /// awake floor the lock imposes on the application processor.
    pub fn wakelock_day(&self) -> PricedEnvelope {
        let mut out = self.screen_day();
        out.by[CPU] = Self::day_joules(self.coeffs.cpu_awake_mw, 1.0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_power::DevicePowerModel;

    fn pricer() -> Pricer {
        Pricer::new(DevicePowerModel::nexus4().coefficients())
    }

    #[test]
    fn pricing_is_monotone_in_the_lattice_order() {
        let mut small = ResourceState::bottom();
        small.raise(Resource::Radio, 0.5);
        let mut big = small.clone();
        big.raise(Resource::Radio, 1.0);
        big.raise(Resource::ScreenOn, 1.0);
        assert!(small.le(&big));
        assert!(pricer().price(&small).total_joules() <= pricer().price(&big).total_joules());
    }

    #[test]
    fn screen_day_matches_the_model_ceiling() {
        let coeffs = DevicePowerModel::nexus4().coefficients();
        let priced = pricer().screen_day();
        let expected = coeffs.screen_max_mw * SECONDS_PER_DAY / 1_000.0;
        assert!((priced.total_joules() - expected).abs() < 1e-9);
        assert_eq!(priced.breakdown(), vec![("screen", expected)]);
    }

    #[test]
    fn cpu_occupancy_includes_the_awake_floor() {
        let mut state = ResourceState::bottom();
        state.raise(Resource::CpuBackground, 0.1);
        let coeffs = DevicePowerModel::nexus4().coefficients();
        let priced = pricer().price(&state);
        let floor = coeffs.cpu_awake_mw * SECONDS_PER_DAY / 1_000.0;
        assert!(priced.total_joules() >= floor, "awake floor always charged");
    }

    #[test]
    fn add_and_sub_are_componentwise() {
        let mut a = pricer().screen_day();
        let b = pricer().wakelock_day();
        a.add(&b);
        a.saturating_sub(&b);
        let roundtrip = a.total_joules();
        let expected = pricer().screen_day().total_joules();
        assert!((roundtrip - expected).abs() < 1e-6);
        a.saturating_sub(&b);
        a.saturating_sub(&b);
        assert!(a.total_joules() >= 0.0, "clamped at zero");
    }
}
