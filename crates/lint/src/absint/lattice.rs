//! The resource-state lattice.
//!
//! An abstract state maps each [`Resource`] to an *occupancy bound*: the
//! fraction of an ARENA-style day the resource may be held, joined with
//! `max`. Occupancies only ever take values the transfer functions write
//! (a finite constant set: `0`, a behaviour-profile utilization, or `1`),
//! so the lattice has finite height and the worklist solver terminates.

/// One abstract device resource an app can occupy.
///
/// These are the lattice dimensions, not the physical power rails: the
/// pricer ([`crate::absint::Pricer`]) maps each to a worst-case draw from
/// [`ea_power::PowerCoefficients`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resource {
    /// A core pinned by a foreground session.
    CpuForeground,
    /// Background CPU demand kept schedulable.
    CpuBackground,
    /// A core pinned by a running/bound service.
    CpuService,
    /// Screen lit by a foreground session.
    ScreenOn,
    /// Screen forced lit (wakelock leak / brightness escalation).
    ScreenBright,
    /// Network radio held active.
    Radio,
    /// GPS receiver held.
    Gps,
    /// Camera pipeline held.
    Camera,
    /// Audio pipeline held.
    Audio,
}

impl Resource {
    /// Number of lattice dimensions.
    pub const COUNT: usize = 9;

    /// Every resource, in declaration order.
    pub const ALL: [Resource; Resource::COUNT] = [
        Resource::CpuForeground,
        Resource::CpuBackground,
        Resource::CpuService,
        Resource::ScreenOn,
        Resource::ScreenBright,
        Resource::Radio,
        Resource::Gps,
        Resource::Camera,
        Resource::Audio,
    ];

    /// Dense index for array-backed states.
    pub fn index(self) -> usize {
        match self {
            Resource::CpuForeground => 0,
            Resource::CpuBackground => 1,
            Resource::CpuService => 2,
            Resource::ScreenOn => 3,
            Resource::ScreenBright => 4,
            Resource::Radio => 5,
            Resource::Gps => 6,
            Resource::Camera => 7,
            Resource::Audio => 8,
        }
    }

    /// Human-readable label, stable for renderers.
    pub fn label(self) -> &'static str {
        match self {
            Resource::CpuForeground => "cpu-foreground",
            Resource::CpuBackground => "cpu-background",
            Resource::CpuService => "cpu-service",
            Resource::ScreenOn => "screen-on",
            Resource::ScreenBright => "screen-bright",
            Resource::Radio => "radio",
            Resource::Gps => "gps",
            Resource::Camera => "camera",
            Resource::Audio => "audio",
        }
    }
}

/// An element of the resource-state lattice: per-resource occupancy
/// bounds (fraction of a day, join = pointwise `max`). `Default` is ⊥ —
/// nothing occupied.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResourceState {
    occ: [f64; Resource::COUNT],
}

impl ResourceState {
    /// The bottom element: every occupancy 0.
    pub fn bottom() -> ResourceState {
        ResourceState::default()
    }

    /// The occupancy bound for `resource`, in `[0, 1]`.
    pub fn occupancy(&self, resource: Resource) -> f64 {
        self.occ[resource.index()]
    }

    /// Raises `resource` to at least `occupancy`. Monotone by
    /// construction: occupancies never decrease.
    pub fn raise(&mut self, resource: Resource, occupancy: f64) {
        let slot = resource.index();
        let clamped = occupancy.clamp(0.0, 1.0);
        if clamped > self.occ[slot] {
            self.occ[slot] = clamped;
        }
    }

    /// Joins `other` into `self`; returns whether anything changed (the
    /// worklist's re-enqueue signal).
    pub fn join_from(&mut self, other: &ResourceState) -> bool {
        let mut changed = false;
        for slot in 0..Resource::COUNT {
            if other.occ[slot] > self.occ[slot] {
                self.occ[slot] = other.occ[slot];
                changed = true;
            }
        }
        changed
    }

    /// The partial order: `self ⊑ other`.
    #[cfg(test)]
    pub(crate) fn le(&self, other: &ResourceState) -> bool {
        (0..Resource::COUNT).all(|slot| self.occ[slot] <= other.occ[slot])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_indices_are_dense_and_unique() {
        let mut seen = [false; Resource::COUNT];
        for resource in Resource::ALL {
            assert!(!seen[resource.index()], "{resource:?} index collides");
            seen[resource.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn raise_is_monotone_and_clamped() {
        let mut state = ResourceState::bottom();
        state.raise(Resource::Radio, 0.5);
        state.raise(Resource::Radio, 0.2);
        assert_eq!(state.occupancy(Resource::Radio), 0.5, "never decreases");
        state.raise(Resource::Radio, 7.0);
        assert_eq!(state.occupancy(Resource::Radio), 1.0, "clamped to a day");
    }

    #[test]
    fn join_is_lub_and_reports_change() {
        let mut a = ResourceState::bottom();
        a.raise(Resource::ScreenOn, 1.0);
        let mut b = ResourceState::bottom();
        b.raise(Resource::ScreenOn, 0.5);
        b.raise(Resource::Gps, 1.0);

        let mut joined = a.clone();
        assert!(joined.join_from(&b));
        assert!(a.le(&joined));
        assert!(b.le(&joined));
        assert_eq!(joined.occupancy(Resource::ScreenOn), 1.0);
        // Idempotent: joining again changes nothing.
        assert!(!joined.join_from(&b));
        assert!(!joined.join_from(&a));
    }

    #[test]
    fn bottom_is_identity_of_join() {
        let mut state = ResourceState::bottom();
        state.raise(Resource::Camera, 1.0);
        let snapshot = state.clone();
        assert!(!state.join_from(&ResourceState::bottom()));
        assert_eq!(state, snapshot);
        assert!(ResourceState::bottom().le(&state));
    }
}
