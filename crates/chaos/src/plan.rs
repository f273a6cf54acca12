//! The fault plan: per-layer rates plus the seed all injectors derive from.

use serde::{Deserialize, Serialize};

use ea_sim::SimRng;

use crate::{FrameworkFaults, PowerFaults};

/// Per-opportunity fault probabilities, one per fault kind in the taxonomy
/// (see DESIGN.md §11). Every rate is a chance in `[0, 1]` evaluated each
/// time the corresponding opportunity arises (a counter read, a binder
/// transaction, a wakelock release, a device attempt, ...).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct FaultRates {
    /// Kernel energy counter resets to zero (per component reading).
    pub counter_reset: f64,
    /// Kernel energy counter jumps backward (per component reading).
    pub counter_backward: f64,
    /// Kernel energy counter sticks at a stale value (per component reading).
    pub counter_stuck: f64,
    /// Kernel energy counter spikes toward saturation (per component reading).
    pub counter_overflow: f64,
    /// Binder transaction fails and is retried; on process death, the death
    /// notification is delayed (per transaction / per death).
    pub binder_failure: f64,
    /// A broadcast intent is dropped before delivery (per receiver).
    pub intent_drop: f64,
    /// A broadcast intent is delivered twice (per receiver).
    pub intent_duplicate: f64,
    /// A wakelock release is lost in transit (per release call).
    pub wakelock_release_lost: f64,
    /// The simulated clock skews by up to ±10 % (per tick).
    pub clock_skew: f64,
    /// Two same-instant events swap order within a tick's slice (per drain).
    pub event_reorder: f64,
    /// The scheduler housekeeping pass stalls for one tick (per tick).
    pub sched_hiccup: f64,
    /// A fleet device panics mid-day (per attempt).
    pub device_panic: f64,
    /// A fleet device runs slow (per device).
    pub slow_device: f64,
    /// A corpus entry is poisoned and fails manifest validation (per entry).
    pub corpus_poison: f64,
}

impl Default for FaultRates {
    fn default() -> Self {
        FaultRates::ZERO
    }
}

impl FaultRates {
    /// All rates zero: attaching this plan is a strict no-op.
    pub const ZERO: FaultRates = FaultRates {
        counter_reset: 0.0,
        counter_backward: 0.0,
        counter_stuck: 0.0,
        counter_overflow: 0.0,
        binder_failure: 0.0,
        intent_drop: 0.0,
        intent_duplicate: 0.0,
        wakelock_release_lost: 0.0,
        clock_skew: 0.0,
        event_reorder: 0.0,
        sched_hiccup: 0.0,
        device_panic: 0.0,
        slow_device: 0.0,
        corpus_poison: 0.0,
    };

    /// Every per-opportunity rate set to `rate`.
    ///
    /// Per-tick/per-reading opportunities arise tens of thousands of times a
    /// run, so the uniform knob is scaled down for them: a `rate` of 0.05
    /// means a 5 % chance per *rare* opportunity (device attempt, wakelock
    /// release) but 0.05 % per reading/tick, keeping fault counts in the
    /// same order of magnitude across kinds.
    #[must_use]
    pub fn uniform(rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        let dense = rate / 100.0;
        FaultRates {
            counter_reset: dense,
            counter_backward: dense,
            counter_stuck: dense,
            counter_overflow: dense,
            binder_failure: dense,
            intent_drop: rate,
            intent_duplicate: rate,
            wakelock_release_lost: rate,
            clock_skew: dense,
            event_reorder: dense,
            sched_hiccup: dense,
            device_panic: rate,
            slow_device: rate,
            corpus_poison: rate / 10.0,
        }
    }

    /// Only the kernel-counter rates set: measurement noise that perturbs
    /// readings but never framework behaviour, so attack verdicts must be
    /// unchanged by construction.
    #[must_use]
    pub fn counters_only(rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        FaultRates {
            counter_reset: rate,
            counter_backward: rate,
            counter_stuck: rate,
            counter_overflow: rate,
            ..FaultRates::ZERO
        }
    }

    /// Whether every rate is exactly zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == FaultRates::ZERO
    }

    /// Every rate with its field name, in declaration order.
    #[must_use]
    pub fn named(&self) -> [(&'static str, f64); 14] {
        [
            ("counter_reset", self.counter_reset),
            ("counter_backward", self.counter_backward),
            ("counter_stuck", self.counter_stuck),
            ("counter_overflow", self.counter_overflow),
            ("binder_failure", self.binder_failure),
            ("intent_drop", self.intent_drop),
            ("intent_duplicate", self.intent_duplicate),
            ("wakelock_release_lost", self.wakelock_release_lost),
            ("clock_skew", self.clock_skew),
            ("event_reorder", self.event_reorder),
            ("sched_hiccup", self.sched_hiccup),
            ("device_panic", self.device_panic),
            ("slow_device", self.slow_device),
            ("corpus_poison", self.corpus_poison),
        ]
    }

    /// Checks that every rate is a finite chance in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Names the first field out of range.
    pub fn validate(&self) -> Result<(), String> {
        match self
            .named()
            .into_iter()
            .find(|(_, rate)| !(0.0..=1.0).contains(rate))
        {
            Some((name, rate)) => Err(format!("fault rate {name} = {rate} is outside [0, 1]")),
            None => Ok(()),
        }
    }
}

/// A seeded fault plan: the rates plus the seed every injector stream is
/// derived from. Two runs with the same plan see byte-identical faults.
///
/// # Example
///
/// ```
/// use ea_chaos::FaultPlan;
///
/// let plan = FaultPlan::uniform(42, 0.05);
/// let mut a = plan.power_faults(3);
/// let mut b = plan.power_faults(3);
/// assert_eq!(a.corrupt(0, 1.0), b.corrupt(0, 1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Root seed for every injector stream.
    pub seed: u64,
    /// Per-kind fault probabilities.
    pub rates: FaultRates,
}

/// Layer tags mixed into the seed so each injector gets an independent
/// stream even for the same lane.
const LANE_POWER: u64 = 0x504f_5745;
const LANE_FRAMEWORK: u64 = 0x4652_414d;
const LANE_PANIC: u64 = 0x5041_4e49;
const LANE_SLOW: u64 = 0x534c_4f57;
const LANE_POISON: u64 = 0x504f_4953;

impl FaultPlan {
    /// A plan with all rates zero — attaching it changes nothing.
    #[must_use]
    pub fn zero(seed: u64) -> Self {
        FaultPlan {
            seed,
            rates: FaultRates::ZERO,
        }
    }

    /// A plan with the uniform rate knob (see [`FaultRates::uniform`]).
    #[must_use]
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            rates: FaultRates::uniform(rate),
        }
    }

    /// A counters-only plan (see [`FaultRates::counters_only`]).
    #[must_use]
    pub fn counters_only(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            rates: FaultRates::counters_only(rate),
        }
    }

    /// Whether the plan injects nothing.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.rates.is_zero()
    }

    /// Parses a `--faults` CLI spec: either a bare rate (`0.05`) applied
    /// uniformly, or a path to a JSON-serialized plan (whose own seed wins).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the spec is neither a rate in
    /// `[0, 1]` nor a readable plan file whose every rate is in `[0, 1]`.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        if let Ok(rate) = spec.parse::<f64>() {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault rate {rate} is outside [0, 1]"));
            }
            return Ok(FaultPlan::uniform(seed, rate));
        }
        let text = std::fs::read_to_string(spec)
            .map_err(|error| format!("cannot read fault plan {spec}: {error}"))?;
        let plan: FaultPlan = serde_json::from_str(&text)
            .map_err(|error| format!("bad fault plan {spec}: {error}"))?;
        plan.rates
            .validate()
            .map_err(|error| format!("bad fault plan {spec}: {error}"))?;
        Ok(plan)
    }

    /// The kernel-counter injector for `lane` (a device index or scenario
    /// ordinal). Streams for different lanes are independent; the same lane
    /// always yields the same stream.
    #[must_use]
    pub fn power_faults(&self, lane: u64) -> PowerFaults {
        PowerFaults::new(self.rates, SimRng::seed(mix(self.seed, lane, LANE_POWER)))
    }

    /// The framework/sim injector for `lane`.
    #[must_use]
    pub fn framework_faults(&self, lane: u64) -> FrameworkFaults {
        FrameworkFaults::new(
            self.rates,
            SimRng::seed(mix(self.seed, lane, LANE_FRAMEWORK)),
        )
    }

    /// At which workload session (if any) device `lane` panics on `attempt`.
    /// Keyed by attempt, so a supervised retry re-rolls and can recover —
    /// transient faults, not deterministic crashes.
    #[must_use]
    pub fn device_panic_session(&self, lane: u64, attempt: u32, sessions: u32) -> Option<u32> {
        if sessions == 0 || self.rates.device_panic <= 0.0 {
            return None;
        }
        let mut rng = SimRng::seed(mix(
            self.seed,
            lane ^ (u64::from(attempt) << 32),
            LANE_PANIC,
        ));
        rng.chance(self.rates.device_panic)
            .then(|| rng.range_u64(0, u64::from(sessions)) as u32)
    }

    /// Whether device `lane` is a slow device.
    #[must_use]
    pub fn device_slow(&self, lane: u64) -> bool {
        if self.rates.slow_device <= 0.0 {
            return false;
        }
        SimRng::seed(mix(self.seed, lane, LANE_SLOW)).chance(self.rates.slow_device)
    }

    /// Which corpus entries are poisoned (fail manifest validation). The
    /// set depends only on the plan and the corpus size, so every device
    /// and every worker sees the same poison.
    #[must_use]
    pub fn poisoned_corpus(&self, len: usize) -> Vec<bool> {
        let mut rng = SimRng::seed(mix(self.seed, len as u64, LANE_POISON));
        (0..len)
            .map(|_| rng.chance(self.rates.corpus_poison))
            .collect()
    }
}

/// splitmix64-style finalizer: decorrelates (seed, lane, layer) triples into
/// independent stream seeds. Shared with the fleet's device-seed schedule
/// through `ea_sim::rng` (re-exported as `ea_core::rng`).
fn mix(seed: u64, lane: u64, layer: u64) -> u64 {
    ea_sim::splitmix64_lane(seed, lane, layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_is_zero() {
        assert!(FaultPlan::zero(1).is_zero());
        assert!(!FaultPlan::uniform(1, 0.1).is_zero());
    }

    #[test]
    fn parse_accepts_rates_and_rejects_garbage() {
        let plan = FaultPlan::parse("0.25", 9).expect("rate parses");
        assert_eq!(plan.seed, 9);
        assert!(FaultPlan::parse("1.5", 9).is_err());
        assert!(FaultPlan::parse("/no/such/plan.json", 9).is_err());
    }

    /// Writes `text` to a per-process temp file and parses it as a
    /// `--faults` plan file.
    fn parse_plan_file(name: &str, text: &str) -> Result<FaultPlan, String> {
        let path = std::env::temp_dir().join(format!("ea-chaos-{}-{name}", std::process::id()));
        std::fs::write(&path, text).expect("write plan file");
        let parsed = FaultPlan::parse(path.to_str().expect("utf-8 temp path"), 0);
        let _ = std::fs::remove_file(&path);
        parsed
    }

    #[test]
    fn plan_file_rates_outside_the_unit_interval_are_refused() {
        for (name, text) in [
            ("panic.json", r#"{"seed":1,"rates":{"device_panic":5.0}}"#),
            ("skew.json", r#"{"seed":1,"rates":{"clock_skew":1e308}}"#),
            ("drop.json", r#"{"seed":1,"rates":{"intent_drop":-0.5}}"#),
        ] {
            let error = parse_plan_file(name, text).expect_err(text);
            let field = text.split('"').nth(5).expect("field name");
            assert!(error.contains(field), "{error} does not name {field}");
        }
    }

    #[test]
    fn partial_plan_file_leaves_unspecified_rates_at_zero() {
        let plan = parse_plan_file("partial.json", r#"{"seed":7,"rates":{"intent_drop":0.2}}"#)
            .expect("a partial rates map parses");
        assert_eq!(plan.seed, 7, "the file's own seed wins");
        assert_eq!(
            plan.rates,
            FaultRates {
                intent_drop: 0.2,
                ..FaultRates::ZERO
            }
        );
        let empty = parse_plan_file("empty.json", r#"{"seed":7,"rates":{}}"#)
            .expect("an empty rates map parses");
        assert!(empty.is_zero());
    }

    #[test]
    fn non_object_plan_file_is_an_error() {
        for (name, text) in [
            ("array.json", "[0.1, 0.2]"),
            ("rates.json", r#"{"seed":7,"rates":[0.2]}"#),
            ("no-rates.json", r#"{"seed":7}"#),
        ] {
            let error = parse_plan_file(name, text).expect_err("not a plan");
            assert!(error.starts_with("bad fault plan"), "{name}: {error}");
        }
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan::uniform(7, 0.1);
        let text = serde_json::to_string(&plan).expect("serializes");
        let back: FaultPlan = serde_json::from_str(&text).expect("parses");
        assert_eq!(plan, back);
    }

    #[test]
    fn panic_sessions_are_per_attempt() {
        let plan = FaultPlan {
            seed: 3,
            rates: FaultRates {
                device_panic: 1.0,
                ..FaultRates::ZERO
            },
        };
        // Rate 1.0: every attempt panics, deterministically.
        assert!(plan.device_panic_session(5, 0, 4).is_some());
        assert_eq!(
            plan.device_panic_session(5, 0, 4),
            plan.device_panic_session(5, 0, 4)
        );
        // Zero plan never panics.
        assert_eq!(FaultPlan::zero(3).device_panic_session(5, 0, 4), None);
    }

    #[test]
    fn poison_set_is_stable() {
        let plan = FaultPlan::uniform(11, 0.5);
        assert_eq!(plan.poisoned_corpus(64), plan.poisoned_corpus(64));
        assert!(FaultPlan::zero(11).poisoned_corpus(64).iter().all(|p| !p));
    }

    #[test]
    fn lanes_are_independent() {
        let plan = FaultPlan {
            seed: 21,
            rates: FaultRates {
                counter_backward: 1.0,
                ..FaultRates::ZERO
            },
        };
        let mut a = plan.power_faults(0);
        let mut b = plan.power_faults(1);
        // Both lanes fire, but the jump magnitudes come from independent
        // streams, so the corrupted readings differ.
        let ra = a.corrupt(0, 1000.0).expect("fires at rate 1.0");
        let rb = b.corrupt(0, 1000.0).expect("fires at rate 1.0");
        assert_ne!(ra.value, rb.value);
    }
}
