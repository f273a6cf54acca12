//! One rule per attack, dispatched from [`RuleId`] — the registry.
//!
//! Each rule inspects one app's [`AppFacts`] against the shared
//! [`LintContext`] and emits at most one [`Diagnostic`]. Rules are
//! deliberately *sound over-approximations* of the dynamic attack
//! machines in [`ea_core::LifecycleTracker`]: whenever the framework
//! could let an app open an attack period of some [`AttackKind`], at
//! least one rule predicts that kind for that app. The soundness harness
//! ([`crate::soundness`]) enforces this against every scenario run.
//!
//! Two rules are broader than intuition suggests, on purpose:
//!
//! * [`RuleId::BackgroundSpray`] (`EA0002`) fires whenever *any* other user
//!   app is installed, because `AndroidSystem::move_task_to_front` and
//!   `app_open_home` have **no** permission or exported-component
//!   precondition — any app can displace any task, which is exactly the
//!   paper's point about attack #2.
//! * [`RuleId::WakelockHold`] (`EA0006`) fires on the `WAKE_LOCK` permission
//!   alone, because a screen wakelock acquired while backgrounded leaks
//!   immediately regardless of the release policy.

use ea_core::AttackKind;
use ea_framework::{AndroidSystem, ComponentKind, Permission, WakelockPolicy};

use crate::absint::PricedEnvelope;
use crate::diagnostic::{Diagnostic, RuleId, Severity};
use crate::facts::AppFacts;
use crate::flow::{EvidenceIndex, LintContext};

/// Cap on listed evidence items; the remainder collapses to `+N more`.
const EVIDENCE_LIMIT: usize = 3;

impl RuleId {
    /// One-line description for `--help`-style listings and docs.
    pub fn description(self) -> &'static str {
        match self {
            RuleId::ComponentHijack => "another app exports an activity this app could repeatedly start (attack #1)",
            RuleId::BackgroundSpray => "co-installed apps can be displaced into the draining background (attack #2)",
            RuleId::ServiceTether => "another app exports a service this app could bind and never unbind (attack #3)",
            RuleId::OverlayInterrupt => "declares a transparent overlay activity usable for interrupt-and-tap-jack (attack #4)",
            RuleId::SettingsTamper => "may rewrite screen brightness settings (attack #5)",
            RuleId::WakelockHold => "may hold wakelocks while invisible (attack #6)",
            RuleId::NoSleepBug => "wakelock released only in onStop/onDestroy (no-sleep bug)",
            RuleId::StealthAutostart => "exported receiver wakes the app on screen unlock (stealth autostart)",
            RuleId::AttackChain => "implicit-intent chain of depth >= 2 reachable from here (chain attack)",
        }
    }

    /// Runs this rule on app `index` of `ctx`; `facts == &ctx.apps()[index]`.
    pub fn check(self, index: usize, facts: &AppFacts, ctx: &LintContext) -> Option<Diagnostic> {
        match self {
            RuleId::ComponentHijack => component_hijack(index, facts, ctx),
            RuleId::BackgroundSpray => background_spray(index, facts, ctx),
            RuleId::ServiceTether => service_tether(index, facts, ctx),
            RuleId::OverlayInterrupt => overlay_interrupt(index, facts, ctx),
            RuleId::SettingsTamper => settings_tamper(index, facts, ctx),
            RuleId::WakelockHold => wakelock_hold(index, facts, ctx),
            RuleId::NoSleepBug => no_sleep_bug(index, facts, ctx),
            RuleId::StealthAutostart => stealth_autostart(index, facts, ctx),
            RuleId::AttackChain => attack_chain(index, facts, ctx),
        }
    }
}

fn diagnostic(
    rule: RuleId,
    severity: Severity,
    facts: &AppFacts,
    predicted: Vec<AttackKind>,
    message: String,
    evidence: Vec<String>,
    envelope: PricedEnvelope,
) -> Diagnostic {
    Diagnostic {
        rule,
        severity,
        package: facts.package.clone(),
        uid: facts.uid,
        predicted,
        message,
        evidence,
        component: None,
        predicted_joules: envelope.total_joules(),
        energy_breakdown: envelope.breakdown(),
        energy_rank: 0,
    }
}

/// Sorts then caps listed evidence items; the remainder collapses to
/// `+N more`. Sorting keeps evidence independent of install order.
fn clip(mut items: Vec<String>) -> Vec<String> {
    items.sort_unstable();
    if items.len() > EVIDENCE_LIMIT {
        let extra = items.len() - EVIDENCE_LIMIT;
        items.truncate(EVIDENCE_LIMIT);
        items.push(format!("+{extra} more"));
    }
    items
}

/// [`clip`] over the foreign entries of a context-wide evidence list:
/// they are already sorted, so this only takes the first
/// [`EVIDENCE_LIMIT`] and counts the rest.
fn clip_foreign(list: &EvidenceIndex, index: usize) -> Vec<String> {
    let mut items: Vec<String> = list
        .foreign(index)
        .take(EVIDENCE_LIMIT)
        .map(String::from)
        .collect();
    let count = list.foreign_count(index);
    if count > EVIDENCE_LIMIT {
        items.push(format!("+{} more", count - EVIDENCE_LIMIT));
    }
    items
}

/// `EA0001`: paper attack #1 — start an exported activity of another app
/// over and over ("applications can be readily exploited through their
/// app components").
fn component_hijack(index: usize, facts: &AppFacts, ctx: &LintContext) -> Option<Diagnostic> {
    let victims = &ctx.exported_activities;
    let count = victims.foreign_count(index);
    if count == 0 {
        return None;
    }
    // Bound: the hottest victim held foreground all day, the rest
    // parked draining in the background.
    let envelope = ctx.absint().hijack_envelope(index).unwrap_or_default();
    Some(diagnostic(
        RuleId::ComponentHijack,
        Severity::Info,
        facts,
        vec![AttackKind::ActivityStart],
        format!("{count} exported activities of other apps are startable from here"),
        clip_foreign(victims, index),
        envelope,
    ))
}

/// `EA0002`: paper attack #2 — "a background app definitely drains
/// battery". Task reordering (`move_task_to_front`, `app_open_home`) has
/// no static precondition at all, so this fires whenever any other user
/// app is installed; that breadth is what makes the rule set sound for
/// [`AttackKind::ActivityStart`] and [`AttackKind::Interruption`].
fn background_spray(index: usize, facts: &AppFacts, ctx: &LintContext) -> Option<Diagnostic> {
    let neighbors = ctx.apps().len() - 1;
    if neighbors == 0 {
        return None;
    }
    let draining = &ctx.draining;
    let severity = if draining.foreign_count(index) == 0 {
        Severity::Info
    } else {
        Severity::Warning
    };
    Some(diagnostic(
        RuleId::BackgroundSpray,
        severity,
        facts,
        vec![AttackKind::ActivityStart, AttackKind::Interruption],
        format!(
            "{neighbors} co-installed app(s) can be pushed to the background \
             (task reordering needs no permission)"
        ),
        clip_foreign(draining, index),
        // Bound: every co-installed app displaced into its background
        // envelope at once.
        ctx.absint().spray_envelope(index),
    ))
}

/// `EA0003`: paper attack #3 — bind an exported service and never unbind,
/// pinning the victim's workload alive.
fn service_tether(index: usize, facts: &AppFacts, ctx: &LintContext) -> Option<Diagnostic> {
    let victims = &ctx.exported_services;
    let count = victims.foreign_count(index);
    if count == 0 {
        return None;
    }
    Some(diagnostic(
        RuleId::ServiceTether,
        Severity::Warning,
        facts,
        vec![AttackKind::ServiceBind, AttackKind::ServiceStart],
        format!("{count} exported services of other apps are bindable from here"),
        clip_foreign(victims, index),
        // Bound: every foreign exported service bound concurrently.
        ctx.absint().tether_envelope(index),
    ))
}

/// `EA0004`: paper attack #4 — a transparent activity that interrupts the
/// foreground app and forwards taps to itself (tap-jacking).
fn overlay_interrupt(index: usize, facts: &AppFacts, ctx: &LintContext) -> Option<Diagnostic> {
    let overlays: Vec<String> = facts
        .transparent_activities()
        .map(|decl| decl.name.clone())
        .collect();
    if overlays.is_empty() {
        return None;
    }
    let anchor = facts
        .transparent_activities()
        .next()
        .map(|decl| decl.name.clone());
    let severity = if facts.has_permission(Permission::SystemAlertWindow) {
        Severity::Critical
    } else {
        Severity::Warning
    };
    let mut evidence = clip(overlays);
    if severity == Severity::Critical {
        evidence.push(String::from("also holds SYSTEM_ALERT_WINDOW"));
    }
    let mut diag = diagnostic(
        RuleId::OverlayInterrupt,
        severity,
        facts,
        vec![AttackKind::Interruption],
        String::from("transparent activity can overlay and interrupt the foreground app"),
        evidence,
        // Bound: the hottest foreign app interrupted mid-session.
        ctx.absint().interrupt_envelope(index),
    );
    diag.component = anchor;
    Some(diag)
}

/// `EA0005`: paper attack #5 — rewrite brightness / brightness mode
/// through the settings provider.
fn settings_tamper(_index: usize, facts: &AppFacts, ctx: &LintContext) -> Option<Diagnostic> {
    if !facts.has_permission(Permission::WriteSettings) {
        return None;
    }
    // The paper's attack pairs the settings write with a self-closing
    // transparent settings page so the user never sees it.
    let stealthy = facts.transparent_activities().next().is_some();
    let severity = if stealthy {
        Severity::Critical
    } else {
        Severity::Warning
    };
    let mut evidence = vec![String::from("holds WRITE_SETTINGS")];
    if stealthy {
        evidence.push(String::from(
            "transparent activity available to hide the settings change",
        ));
    }
    Some(diagnostic(
        RuleId::SettingsTamper,
        severity,
        facts,
        vec![AttackKind::ScreenConfig],
        String::from("can escalate screen brightness behind the user's back"),
        evidence,
        // Bound: the panel forced to its ceiling for a whole day.
        ctx.absint().screen_day(),
    ))
}

/// `EA0006`: paper attack #6 — hold a screen wakelock while invisible.
/// Fires on the `WAKE_LOCK` permission alone: a screen lock acquired
/// while backgrounded leaks regardless of release policy, so the
/// permission is the sound precondition for [`AttackKind::WakelockLeak`].
fn wakelock_hold(_index: usize, facts: &AppFacts, ctx: &LintContext) -> Option<Diagnostic> {
    if !facts.has_permission(Permission::WakeLock) {
        return None;
    }
    let (severity, policy_note) = match facts.wakelock_policy {
        Some(WakelockPolicy::Never) => (
            Severity::Critical,
            "never releases wakelocks (malicious per the no-sleep taxonomy)",
        ),
        Some(WakelockPolicy::OnStop) | Some(WakelockPolicy::OnDestroy) => (
            Severity::Warning,
            "releases wakelocks later than onPause (buggy per the no-sleep taxonomy)",
        ),
        Some(WakelockPolicy::OnPause) => (
            Severity::Info,
            "releases wakelocks in onPause (well-written)",
        ),
        _ => (
            Severity::Info,
            "release policy unknown (manifest-only lint)",
        ),
    };
    Some(diagnostic(
        RuleId::WakelockHold,
        severity,
        facts,
        vec![AttackKind::WakelockLeak],
        String::from("WAKE_LOCK permission allows keeping the screen on while invisible"),
        vec![String::from(policy_note)],
        // Bound: a leaked screen wakelock burning for a whole day.
        ctx.absint().wakelock_day(),
    ))
}

/// `EA0007`: the no-sleep-bug taxonomy's buggy classes — wakelocks
/// released only in `onStop`/`onDestroy` keep burning after the user
/// navigates away even with no attacker present.
fn no_sleep_bug(_index: usize, facts: &AppFacts, ctx: &LintContext) -> Option<Diagnostic> {
    if !facts.has_permission(Permission::WakeLock) {
        return None;
    }
    let policy = facts.wakelock_policy?;
    let hook = match policy {
        WakelockPolicy::OnStop => "onStop",
        WakelockPolicy::OnDestroy => "onDestroy",
        _ => return None,
    };
    Some(diagnostic(
        RuleId::NoSleepBug,
        Severity::Warning,
        facts,
        vec![AttackKind::WakelockLeak],
        format!("wakelocks released only in {hook}; paused screens stay lit"),
        vec![format!("release policy: {hook}")],
        // Same physical bound as EA0006: the leak burns a day.
        ctx.absint().wakelock_day(),
    ))
}

/// `EA0008`: an exported receiver for `ACTION_USER_PRESENT` — the
/// paper malware's stealth trigger ("launches itself when the user
/// unlocks the screen"). A surface finding: it predicts no attack kind
/// by itself, it marks the app that can *start* attacking unprompted.
fn stealth_autostart(index: usize, facts: &AppFacts, ctx: &LintContext) -> Option<Diagnostic> {
    let receivers: Vec<String> = facts
        .receivers_for(AndroidSystem::ACTION_USER_PRESENT)
        .into_iter()
        .map(|decl| decl.name.clone())
        .collect();
    if receivers.is_empty() {
        return None;
    }
    let anchor = receivers.first().cloned();
    let mut diag = diagnostic(
        RuleId::StealthAutostart,
        Severity::Warning,
        facts,
        Vec::new(),
        String::from("runs unprompted on every screen unlock"),
        clip(receivers),
        // Bound: the app's own autonomous envelope — everything the
        // fixpoint says it can burn once woken, unprompted.
        ctx.absint().autonomous_price(index).clone(),
    );
    diag.component = anchor;
    Some(diag)
}

/// `EA0009`: the k-hop reachability fixpoint found a cross-app
/// implicit-intent chain of depth ≥ 2 from this app — the static shadow
/// of the paper's chain attacks, where collateral propagates
/// `driving → driven → driven`. Unlike the legacy pass, which paired any
/// two foreign handlers in [`LintContext::handler_index`], the fixpoint
/// respects each hop's *emission vocabulary* (an app only forwards
/// actions its own components declare) and follows chains to any depth,
/// so it both suppresses infeasible two-hop pairs and finds deep chains
/// the old pass provably missed.
fn attack_chain(index: usize, facts: &AppFacts, ctx: &LintContext) -> Option<Diagnostic> {
    let reach = ctx.absint().reachable_from(index);
    let depth = reach.iter().map(|info| info.hops).max().unwrap_or(0);
    if depth < 2 {
        return None;
    }
    // Predict by what the chain's hops ultimately drive.
    let mut predicted = Vec::new();
    for info in &reach {
        let kind = match info.kind {
            ComponentKind::Activity => Some(AttackKind::ActivityStart),
            ComponentKind::Service => Some(AttackKind::ServiceStart),
            ComponentKind::Receiver => None,
        };
        if let Some(kind) = kind {
            if !predicted.contains(&kind) {
                predicted.push(kind);
            }
        }
    }
    // Witness the deepest targets: their paths subsume shallower hops.
    let mut deepest: Vec<&crate::absint::ReachInfo> = reach.iter().collect();
    deepest.sort_by_key(|info| std::cmp::Reverse(info.hops));
    let evidence: Vec<String> = deepest
        .iter()
        .take(EVIDENCE_LIMIT)
        .filter_map(|info| ctx.absint().describe_path(index, info.target))
        .collect();
    Some(diagnostic(
        RuleId::AttackChain,
        Severity::Info,
        facts,
        predicted,
        format!("collateral could propagate along a cross-app intent chain ({depth} hops deep)"),
        evidence,
        // Bound: the whole reach set lit at once — hottest activity
        // target foreground, the rest backgrounded or service-pinned.
        ctx.absint().chain_envelope(index),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_framework::AppManifest;

    fn facts_of(manifests: &[AppManifest]) -> LintContext {
        LintContext::new(manifests.iter().map(AppFacts::from_manifest).collect())
    }

    fn check_one(rule: RuleId, ctx: &LintContext, index: usize) -> Option<Diagnostic> {
        rule.check(index, &ctx.apps()[index], ctx)
    }

    #[test]
    fn hijack_requires_a_foreign_exported_activity() {
        let ctx = facts_of(&[
            AppManifest::builder("com.a")
                .activity("Main", false)
                .build(),
            AppManifest::builder("com.b").activity("Open", true).build(),
        ]);
        let diag = check_one(RuleId::ComponentHijack, &ctx, 0).unwrap();
        assert_eq!(diag.rule, RuleId::ComponentHijack);
        assert!(diag.predicts(AttackKind::ActivityStart));
        assert_eq!(diag.evidence, vec!["com.b/Open"]);
        // com.b sees no foreign exported activity (com.a's is private).
        assert!(check_one(RuleId::ComponentHijack, &ctx, 1).is_none());
    }

    #[test]
    fn spray_fires_with_any_neighbor_and_none_alone() {
        let lonely = facts_of(&[AppManifest::builder("com.a").activity("Main", true).build()]);
        assert!(check_one(RuleId::BackgroundSpray, &lonely, 0).is_none());

        let pair = facts_of(&[
            AppManifest::builder("com.a")
                .activity("Main", false)
                .build(),
            AppManifest::builder("com.b")
                .activity("Main", false)
                .build(),
        ]);
        let diag = check_one(RuleId::BackgroundSpray, &pair, 0).unwrap();
        assert!(diag.predicts(AttackKind::ActivityStart));
        assert!(diag.predicts(AttackKind::Interruption));
        assert_eq!(diag.severity, Severity::Info, "no known background demand");
    }

    #[test]
    fn tether_requires_a_foreign_exported_service() {
        let ctx = facts_of(&[
            AppManifest::builder("com.a").activity("Main", true).build(),
            AppManifest::builder("com.b")
                .service("Worker", true)
                .build(),
        ]);
        let diag = check_one(RuleId::ServiceTether, &ctx, 0).unwrap();
        assert!(diag.predicts(AttackKind::ServiceBind));
        assert!(diag.predicts(AttackKind::ServiceStart));
        assert!(check_one(RuleId::ServiceTether, &ctx, 1).is_none());
    }

    #[test]
    fn overlay_severity_escalates_with_alert_window() {
        let plain = facts_of(&[AppManifest::builder("com.a")
            .transparent_activity("Ghost", false)
            .build()]);
        assert_eq!(
            check_one(RuleId::OverlayInterrupt, &plain, 0)
                .unwrap()
                .severity,
            Severity::Warning
        );

        let armed = facts_of(&[AppManifest::builder("com.a")
            .transparent_activity("Ghost", false)
            .permission(Permission::SystemAlertWindow)
            .build()]);
        assert_eq!(
            check_one(RuleId::OverlayInterrupt, &armed, 0)
                .unwrap()
                .severity,
            Severity::Critical
        );
    }

    #[test]
    fn settings_tamper_needs_write_settings() {
        let no_perm = facts_of(&[AppManifest::builder("com.a").build()]);
        assert!(check_one(RuleId::SettingsTamper, &no_perm, 0).is_none());

        let armed = facts_of(&[AppManifest::builder("com.a")
            .permission(Permission::WriteSettings)
            .transparent_activity("SettingsGhost", false)
            .build()]);
        let diag = check_one(RuleId::SettingsTamper, &armed, 0).unwrap();
        assert_eq!(diag.severity, Severity::Critical);
        assert!(diag.predicts(AttackKind::ScreenConfig));
    }

    #[test]
    fn wakelock_hold_severity_follows_taxonomy() {
        let manifest = AppManifest::builder("com.a")
            .permission(Permission::WakeLock)
            .build();
        let mut facts = AppFacts::from_manifest(&manifest);
        let ctx = LintContext::new(vec![facts.clone()]);

        let unknown = RuleId::WakelockHold.check(0, &facts, &ctx).unwrap();
        assert_eq!(unknown.severity, Severity::Info);

        facts.wakelock_policy = Some(WakelockPolicy::Never);
        assert_eq!(
            RuleId::WakelockHold
                .check(0, &facts, &ctx)
                .unwrap()
                .severity,
            Severity::Critical
        );
        facts.wakelock_policy = Some(WakelockPolicy::OnDestroy);
        assert_eq!(
            RuleId::WakelockHold
                .check(0, &facts, &ctx)
                .unwrap()
                .severity,
            Severity::Warning
        );
    }

    #[test]
    fn no_sleep_bug_only_for_buggy_policies() {
        let manifest = AppManifest::builder("com.a")
            .permission(Permission::WakeLock)
            .build();
        let mut facts = AppFacts::from_manifest(&manifest);
        let ctx = LintContext::new(vec![facts.clone()]);

        assert!(
            RuleId::NoSleepBug.check(0, &facts, &ctx).is_none(),
            "unknown policy"
        );
        facts.wakelock_policy = Some(WakelockPolicy::OnPause);
        assert!(RuleId::NoSleepBug.check(0, &facts, &ctx).is_none());
        facts.wakelock_policy = Some(WakelockPolicy::Never);
        assert!(
            RuleId::NoSleepBug.check(0, &facts, &ctx).is_none(),
            "covered by EA0006"
        );
        facts.wakelock_policy = Some(WakelockPolicy::OnStop);
        assert!(RuleId::NoSleepBug.check(0, &facts, &ctx).is_some());
        facts.wakelock_policy = Some(WakelockPolicy::OnDestroy);
        let diag = RuleId::NoSleepBug.check(0, &facts, &ctx).unwrap();
        assert!(diag.predicts(AttackKind::WakelockLeak));
    }

    #[test]
    fn stealth_autostart_wants_user_present_receiver() {
        let quiet = facts_of(&[AppManifest::builder("com.a")
            .receiver("Boot", true, &["android.intent.action.BOOT_COMPLETED"])
            .build()]);
        assert!(check_one(RuleId::StealthAutostart, &quiet, 0).is_none());

        let armed = facts_of(&[AppManifest::builder("com.a")
            .receiver("Unlock", true, &[AndroidSystem::ACTION_USER_PRESENT])
            .build()]);
        let diag = check_one(RuleId::StealthAutostart, &armed, 0).unwrap();
        assert!(diag.predicted.is_empty(), "surface rule predicts nothing");
    }

    #[test]
    fn chain_rule_follows_emission_vocabulary_to_depth() {
        // origin may emit SEND (its own component declares it); com.b
        // handles SEND and may in turn emit VIEW; com.c handles VIEW as a
        // service. Depth 2 → the rule fires and predicts both hop kinds.
        let ctx = facts_of(&[
            AppManifest::builder("com.origin")
                .activity_with_actions("Composer", false, &["SEND"])
                .build(),
            AppManifest::builder("com.b")
                .activity_with_actions("Share", true, &["SEND"])
                .activity_with_actions("Viewer", false, &["VIEW"])
                .build(),
            AppManifest::builder("com.c")
                .service_with_actions("Open", true, &["VIEW"])
                .build(),
        ]);
        let diag = check_one(RuleId::AttackChain, &ctx, 0).unwrap();
        assert!(diag.predicts(AttackKind::ActivityStart));
        assert!(diag.predicts(AttackKind::ServiceStart));
        assert_eq!(
            diag.evidence[0], "com.origin -[SEND]-> com.b/Share -[VIEW]-> com.c/Open",
            "deepest witness first"
        );
        assert!(diag.predicted_joules > 0.0);
        assert!(diag.message.contains("2 hops deep"));
    }

    #[test]
    fn chain_rule_respects_vocabulary_where_legacy_pairs_fired() {
        // The legacy two-hop enumeration fired for any origin when two
        // foreign handlers existed; the fixpoint knows com.origin declares
        // no action reaching com.b, and com.b's vocabulary (SEND only)
        // cannot forward to com.c (VIEW). Depth stays < 2 → no finding.
        let ctx = facts_of(&[
            AppManifest::builder("com.origin")
                .activity_with_actions("Composer", false, &["OTHER"])
                .build(),
            AppManifest::builder("com.b")
                .activity_with_actions("Share", true, &["SEND"])
                .build(),
            AppManifest::builder("com.c")
                .activity_with_actions("Open", true, &["VIEW"])
                .build(),
        ]);
        let (send, view) = (ctx.handlers_of("SEND"), ctx.handlers_of("VIEW"));
        assert_eq!(
            (send[0].app, view[0].app),
            (1, 2),
            "two foreign handlers in distinct apps: the legacy pass would have fired"
        );
        assert!(check_one(RuleId::AttackChain, &ctx, 0).is_none());
    }
}
