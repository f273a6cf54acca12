//! Typed diagnostics with stable rule identifiers.
//!
//! Every finding the analyzer emits is a [`Diagnostic`]: a stable
//! [`RuleId`] (`EA0001-component-hijack`, …), a [`Severity`], the package
//! it is about, the [`AttackKind`]s the rule predicts the app *could*
//! drive dynamically, and human-readable evidence. Rule codes are part of
//! the output contract — renderers sort by them and the golden-file tests
//! pin them — so existing codes must never be renumbered.

use std::fmt;

use ea_core::AttackKind;

/// Stable identifier of one lint rule.
///
/// The numeric codes `EA0001`–`EA0006` correspond one-to-one to the
/// paper's collateral energy attacks #1–#6 (§III); `EA0007`–`EA0009` cover
/// the no-sleep-bug taxonomy, the stealth-autostart surface, and
/// cross-app intent chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum RuleId {
    /// `EA0001`: another app exports an activity this app could hijack
    /// into the foreground (paper attack #1).
    ComponentHijack,
    /// `EA0002`: co-installed apps can be sprayed into the background
    /// where they keep draining (paper attack #2).
    BackgroundSpray,
    /// `EA0003`: another app exports a service this app could bind and
    /// never unbind (paper attack #3).
    ServiceTether,
    /// `EA0004`: this app declares a transparent overlay activity usable
    /// for interrupt-and-tap-jack (paper attack #4).
    OverlayInterrupt,
    /// `EA0005`: this app may rewrite screen brightness settings
    /// (paper attack #5).
    SettingsTamper,
    /// `EA0006`: this app may hold wakelocks while invisible
    /// (paper attack #6).
    WakelockHold,
    /// `EA0007`: wakelock released only in `onStop`/`onDestroy` — the
    /// no-sleep-bug taxonomy's buggy classes.
    NoSleepBug,
    /// `EA0008`: exported receiver for `ACTION_USER_PRESENT`, the
    /// stealth-autostart trigger the paper's malware uses.
    StealthAutostart,
    /// `EA0009`: a cross-app implicit-intent chain of length ≥ 2 starts
    /// at this app (the paper's chain-attack propagation).
    AttackChain,
}

impl RuleId {
    /// Every rule, in code order. [`RuleId`] is `#[non_exhaustive]`;
    /// iterate through this constant rather than matching exhaustively.
    pub const ALL: [RuleId; 9] = [
        RuleId::ComponentHijack,
        RuleId::BackgroundSpray,
        RuleId::ServiceTether,
        RuleId::OverlayInterrupt,
        RuleId::SettingsTamper,
        RuleId::WakelockHold,
        RuleId::NoSleepBug,
        RuleId::StealthAutostart,
        RuleId::AttackChain,
    ];

    /// The stable numeric code, e.g. `"EA0001"`.
    pub fn code(self) -> &'static str {
        match self {
            RuleId::ComponentHijack => "EA0001",
            RuleId::BackgroundSpray => "EA0002",
            RuleId::ServiceTether => "EA0003",
            RuleId::OverlayInterrupt => "EA0004",
            RuleId::SettingsTamper => "EA0005",
            RuleId::WakelockHold => "EA0006",
            RuleId::NoSleepBug => "EA0007",
            RuleId::StealthAutostart => "EA0008",
            RuleId::AttackChain => "EA0009",
        }
    }

    /// The human-readable slug, e.g. `"component-hijack"`.
    pub fn slug(self) -> &'static str {
        match self {
            RuleId::ComponentHijack => "component-hijack",
            RuleId::BackgroundSpray => "background-spray",
            RuleId::ServiceTether => "service-tether",
            RuleId::OverlayInterrupt => "overlay-interrupt",
            RuleId::SettingsTamper => "settings-tamper",
            RuleId::WakelockHold => "wakelock-hold",
            RuleId::NoSleepBug => "no-sleep-bug",
            RuleId::StealthAutostart => "stealth-autostart",
            RuleId::AttackChain => "attack-chain",
        }
    }

    /// The paper attack number (#1–#6) this rule maps to, if any.
    pub fn paper_attack(self) -> Option<u8> {
        match self {
            RuleId::ComponentHijack => Some(1),
            RuleId::BackgroundSpray => Some(2),
            RuleId::ServiceTether => Some(3),
            RuleId::OverlayInterrupt => Some(4),
            RuleId::SettingsTamper => Some(5),
            RuleId::WakelockHold => Some(6),
            _ => None,
        }
    }
}

impl fmt::Display for RuleId {
    /// Formats as the qualified id, e.g. `EA0001-component-hijack`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.code(), self.slug())
    }
}

/// How alarming a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Precondition present but common among benign apps (Figure 2 shows
    /// 72 % of Play-store apps export a component).
    Info,
    /// A pattern the paper associates with buggy or exploitable apps.
    Warning,
    /// A pattern the paper associates with deliberate malware.
    Critical,
}

impl Severity {
    /// Uppercase label used by the text renderer, e.g. `"WARNING"`.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "INFO",
            Severity::Warning => "WARNING",
            Severity::Critical => "CRITICAL",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One finding about one app.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// How alarming the finding is.
    pub severity: Severity,
    /// Package name of the app the finding is about.
    pub package: String,
    /// The app's UID, when linting an installed system (absent in
    /// manifest-only corpus mode).
    pub uid: Option<u32>,
    /// The [`AttackKind`]s this app could drive dynamically if the rule's
    /// precondition is exploited. The soundness harness checks these
    /// against what [`ea_core::CollateralMonitor`] actually observes.
    pub predicted: Vec<AttackKind>,
    /// One-line explanation.
    pub message: String,
    /// Supporting facts (component names, permission strings, chains).
    pub evidence: Vec<String>,
    /// The component the finding anchors to (first transparent overlay,
    /// first autostart receiver, …), when one exists.
    pub component: Option<String>,
    /// Static upper bound on the collateral energy this finding's
    /// exploitation could burn, in joules over an ARENA-style day. Priced
    /// by the abstract interpreter through the device calibration; the
    /// quantitative soundness harness checks it dominates anything the
    /// dynamic monitor attributes.
    pub predicted_joules: f64,
    /// Per-component split of [`Self::predicted_joules`]:
    /// `(component, joules)` rows in renderer order, non-zero only.
    pub energy_breakdown: Vec<(&'static str, f64)>,
    /// 1-based rank of this finding by `predicted_joules`, descending,
    /// within its report (1 = most expensive). Assigned by the linter.
    pub energy_rank: usize,
}

impl Diagnostic {
    /// Whether this diagnostic predicts the given attack kind.
    pub fn predicts(&self, kind: AttackKind) -> bool {
        self.predicted.contains(&kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let codes: Vec<&str> = RuleId::ALL.iter().map(|r| r.code()).collect();
        assert_eq!(
            codes,
            vec![
                "EA0001", "EA0002", "EA0003", "EA0004", "EA0005", "EA0006", "EA0007", "EA0008",
                "EA0009"
            ]
        );
        let mut slugs: Vec<&str> = RuleId::ALL.iter().map(|r| r.slug()).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), RuleId::ALL.len());
    }

    #[test]
    fn first_six_rules_map_to_paper_attacks() {
        for (index, rule) in RuleId::ALL.iter().take(6).enumerate() {
            assert_eq!(rule.paper_attack(), Some(index as u8 + 1));
        }
        assert_eq!(RuleId::NoSleepBug.paper_attack(), None);
    }

    #[test]
    fn display_is_qualified() {
        assert_eq!(
            RuleId::ComponentHijack.to_string(),
            "EA0001-component-hijack"
        );
        assert_eq!(Severity::Critical.to_string(), "CRITICAL");
    }

    #[test]
    fn severity_orders_by_alarm() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Critical);
    }
}
