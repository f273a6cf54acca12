//! Lifecycle phases and transfer functions.
//!
//! Each app is abstracted into a three-node lifecycle graph — resident
//! background, foreground session, running service — with the edges the
//! framework actually allows. A transfer function *generates* the
//! resource occupancies a phase can sustain (from the app's manifest and
//! behaviour profile) and each edge *kills* the occupancies that cannot
//! survive the transition (a paused foreground session stops lighting
//! the screen; a well-written `onPause` release drops the wakelock).
//! Everything else flows, which is how a leaked wakelock acquired in one
//! phase haunts every phase reachable from it.
//!
//! Gating choices mirror the framework, not Android folklore: camera use
//! is permission-checked (`Permission::Camera`), while network, GPS, and
//! audio holds are not gated at all — so the sound transfer grants those
//! to every app, which is exactly the paper's point about unchecked
//! collateral surfaces.

use ea_framework::{ComponentKind, Permission, WakelockPolicy};

use super::lattice::{Resource, ResourceState};
use crate::facts::AppFacts;

/// One node of the per-app lifecycle graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Resident in the background (the entry phase: every installed app
    /// is at least this).
    Background,
    /// Holding a foreground session.
    Foreground,
    /// Running or bound as a service.
    Service,
}

impl Phase {
    /// Number of phases per app.
    pub const COUNT: usize = 3;

    /// Every phase, in declaration order.
    pub const ALL: [Phase; Phase::COUNT] = [Phase::Background, Phase::Foreground, Phase::Service];

    /// Dense index for array-backed per-app phase states.
    pub fn index(self) -> usize {
        match self {
            Phase::Background => 0,
            Phase::Foreground => 1,
            Phase::Service => 2,
        }
    }
}

/// Occupancies every phase of a running app can sustain: the
/// framework gates none of these on permissions, and camera only on
/// [`Permission::Camera`].
fn ungated(state: &mut ResourceState, facts: &AppFacts) {
    state.raise(Resource::Radio, 1.0);
    state.raise(Resource::Gps, 1.0);
    state.raise(Resource::Audio, 1.0);
    if facts.has_permission(Permission::Camera) {
        state.raise(Resource::Camera, 1.0);
    }
}

/// The generated (phase-local) occupancies of `phase` for one app.
pub fn generate(phase: Phase, facts: &AppFacts) -> ResourceState {
    let mut state = ResourceState::bottom();
    match phase {
        Phase::Foreground => {
            // A foreground session lights the screen and may pin a core.
            state.raise(Resource::ScreenOn, 1.0);
            state.raise(Resource::CpuForeground, 1.0);
            ungated(&mut state, facts);
        }
        Phase::Background => {
            // The declared background demand, or a full core when it is
            // unknown (corpus mode).
            state.raise(
                Resource::CpuBackground,
                facts.background_util.unwrap_or(1.0),
            );
            // "A screen wakelock acquired while backgrounded leaks
            // immediately regardless of the release policy" — the EA0006
            // precondition, as an occupancy.
            if facts.has_permission(Permission::WakeLock) {
                state.raise(Resource::ScreenBright, 1.0);
            }
            // WRITE_SETTINGS lets the app escalate brightness (EA0005).
            if facts.has_permission(Permission::WriteSettings) {
                state.raise(Resource::ScreenBright, 1.0);
            }
            ungated(&mut state, facts);
        }
        Phase::Service => {
            // A running service pins a core, and a screen wakelock it
            // holds outlives the UI.
            state.raise(Resource::CpuService, 1.0);
            if facts.has_permission(Permission::WakeLock) {
                state.raise(Resource::ScreenBright, 1.0);
            }
            ungated(&mut state, facts);
        }
    }
    state
}

/// Filters the state flowing along the lifecycle edge `from → to`:
/// returns the resources that survive the transition.
pub fn kill(from: Phase, to: Phase, facts: &AppFacts, state: &ResourceState) -> ResourceState {
    let mut out = ResourceState::bottom();
    for resource in Resource::ALL {
        let killed = match resource {
            // Leaving the foreground stops the session's screen and core.
            Resource::ScreenOn | Resource::CpuForeground => to != Phase::Foreground,
            // Foreground work supersedes the background demand bound.
            Resource::CpuBackground => to == Phase::Foreground,
            // A well-written `onPause` release drops the lock when the
            // session pauses; every other policy leaks it across the
            // edge. (`Background` re-generates the leak for *acquired
            // while invisible*, so this kill only refines well-written
            // apps' foreground-held locks.)
            Resource::ScreenBright => {
                from == Phase::Foreground
                    && facts.wakelock_policy == Some(WakelockPolicy::OnPause)
                    && !facts.has_permission(Permission::WriteSettings)
            }
            _ => false,
        };
        if !killed {
            out.raise(resource, state.occupancy(resource));
        }
    }
    out
}

/// The lifecycle edges the framework allows for this app, as
/// `(from, to)` pairs. Entry is [`Phase::Background`]; phases that the
/// manifest cannot reach get no incoming edge and stay ⊥.
pub fn edges(facts: &AppFacts) -> Vec<(Phase, Phase)> {
    let has_activity = facts
        .manifest
        .components
        .iter()
        .any(|decl| decl.kind == ComponentKind::Activity);
    let has_service = facts
        .manifest
        .components
        .iter()
        .any(|decl| decl.kind == ComponentKind::Service);
    let mut out = Vec::new();
    if has_activity {
        out.push((Phase::Background, Phase::Foreground));
        out.push((Phase::Foreground, Phase::Background));
    }
    if has_service {
        out.push((Phase::Background, Phase::Service));
        out.push((Phase::Service, Phase::Background));
    }
    if has_activity && has_service {
        out.push((Phase::Foreground, Phase::Service));
        out.push((Phase::Service, Phase::Foreground));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_framework::AppManifest;

    fn facts(manifest: AppManifest) -> AppFacts {
        AppFacts::from_manifest(&manifest)
    }

    #[test]
    fn foreground_lights_screen_and_pins_core() {
        let state = generate(
            Phase::Foreground,
            &facts(AppManifest::builder("com.a").activity("Main", true).build()),
        );
        assert_eq!(state.occupancy(Resource::ScreenOn), 1.0);
        assert_eq!(state.occupancy(Resource::CpuForeground), 1.0);
        assert_eq!(
            state.occupancy(Resource::Camera),
            0.0,
            "no CAMERA permission"
        );
        assert_eq!(state.occupancy(Resource::Radio), 1.0, "radio is ungated");
    }

    #[test]
    fn camera_requires_the_permission_the_framework_checks() {
        let armed = facts(
            AppManifest::builder("com.cam")
                .permission(Permission::Camera)
                .build(),
        );
        assert_eq!(
            generate(Phase::Background, &armed).occupancy(Resource::Camera),
            1.0
        );
    }

    #[test]
    fn background_demand_uses_behaviour_when_known() {
        let manifest = AppManifest::builder("com.a").build();
        let mut known = facts(manifest.clone());
        known.background_util = Some(0.25);
        assert_eq!(
            generate(Phase::Background, &known).occupancy(Resource::CpuBackground),
            0.25
        );
        let unknown = facts(manifest);
        assert_eq!(
            generate(Phase::Background, &unknown).occupancy(Resource::CpuBackground),
            1.0,
            "corpus mode assumes the ceiling"
        );
    }

    #[test]
    fn on_pause_release_kills_the_foreground_leak_only() {
        let manifest = AppManifest::builder("com.a")
            .activity("Main", true)
            .permission(Permission::WakeLock)
            .build();
        let mut well_written = facts(manifest);
        well_written.wakelock_policy = Some(WakelockPolicy::OnPause);

        let mut fg = generate(Phase::Foreground, &well_written);
        fg.raise(Resource::ScreenBright, 1.0);
        let survived = kill(Phase::Foreground, Phase::Background, &well_written, &fg);
        assert_eq!(survived.occupancy(Resource::ScreenBright), 0.0);

        let mut leaky = well_written.clone();
        leaky.wakelock_policy = Some(WakelockPolicy::OnStop);
        let survived = kill(Phase::Foreground, Phase::Background, &leaky, &fg);
        assert_eq!(survived.occupancy(Resource::ScreenBright), 1.0);
    }

    #[test]
    fn edges_follow_the_manifest() {
        let both = facts(
            AppManifest::builder("com.a")
                .activity("Main", true)
                .service("Worker", false)
                .build(),
        );
        assert_eq!(edges(&both).len(), 6);
        let headless = facts(AppManifest::builder("com.b").build());
        assert!(edges(&headless).is_empty(), "no components, no transitions");
    }
}
