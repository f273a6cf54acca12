//! The cross-app analysis context and implicit-intent flow pass.
//!
//! Rules receive a [`LintContext`] holding every app's [`AppFacts`] plus a
//! precomputed intent-flow graph: for each implicit action declared
//! anywhere in the set, which exported components would the resolver offer
//! as handlers. The k-hop reachability fixpoint ([`AbsintSolution`]) walks
//! that graph to find *attack chains* — paths `U → T1 → … → Tk` where each
//! hop is an implicit intent another app answers — the static shadow of
//! the paper's chain-attack propagation (Algorithm 1 merges collateral
//! maps along exactly these edges).

use std::collections::BTreeMap;

use ea_framework::ComponentKind;
use ea_power::DevicePowerModel;

use crate::absint::{AbsintSolution, Pricer};
use crate::facts::AppFacts;

/// One exported implicit-intent handler somewhere in the app set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Handler {
    /// Index of the owning app in [`LintContext::apps`].
    pub app: usize,
    /// Component class name.
    pub component: String,
    /// Activity, service, or receiver.
    pub kind: ComponentKind,
}

/// One cross-app evidence list: every app's entries, sorted once by the
/// bytes of their text, so each app reads its foreign entries in O(k)
/// instead of formatting and sorting every other app's.
#[derive(Debug)]
pub(crate) struct EvidenceIndex {
    /// `(text, owning app)`, ascending by text bytes.
    entries: Vec<(String, usize)>,
    /// Entries owned by each app.
    owned: Vec<usize>,
}

impl EvidenceIndex {
    fn new(app_count: usize, mut entries: Vec<(String, usize)>) -> EvidenceIndex {
        entries.sort_unstable();
        let mut owned = vec![0; app_count];
        for &(_, owner) in &entries {
            owned[owner] += 1;
        }
        EvidenceIndex { entries, owned }
    }

    /// How many entries apps other than `index` own.
    pub(crate) fn foreign_count(&self, index: usize) -> usize {
        self.entries.len() - self.owned[index]
    }

    /// Entries of apps other than `index`, in byte order of their text.
    pub(crate) fn foreign(&self, index: usize) -> impl Iterator<Item = &str> {
        self.entries
            .iter()
            .filter(move |(_, owner)| *owner != index)
            .map(|(text, _)| text.as_str())
    }
}

/// The cross-app state shared by every rule invocation.
#[derive(Debug)]
pub struct LintContext {
    apps: Vec<AppFacts>,
    /// action → exported handlers, ordered by (app, component).
    handlers: BTreeMap<String, Vec<Handler>>,
    /// Every app's exported activities, as `pkg/name`.
    pub(crate) exported_activities: EvidenceIndex,
    /// Every app's exported services, as `pkg/name`.
    pub(crate) exported_services: EvidenceIndex,
    /// Every app with background CPU demand, as
    /// `pkg (background demand X cores)`.
    pub(crate) draining: EvidenceIndex,
    /// The abstract-interpretation fixpoint over this app set.
    absint: AbsintSolution,
}

impl LintContext {
    /// Builds the context, runs the intent-flow pass, and solves the
    /// abstract-interpretation fixpoint (priced through the Nexus-4
    /// calibration, the device the simulator drains with).
    pub fn new(apps: Vec<AppFacts>) -> LintContext {
        let mut handlers: BTreeMap<String, Vec<Handler>> = BTreeMap::new();
        for (index, facts) in apps.iter().enumerate() {
            for decl in facts.manifest.components.iter().filter(|d| d.exported) {
                for action in &decl.intent_actions {
                    handlers.entry(action.clone()).or_default().push(Handler {
                        app: index,
                        component: decl.name.clone(),
                        kind: decl.kind,
                    });
                }
            }
        }
        let exported = |kind: ComponentKind| {
            let entries = apps
                .iter()
                .enumerate()
                .flat_map(|(index, facts)| {
                    facts
                        .exported(kind)
                        .map(move |decl| (format!("{}/{}", facts.package, decl.name), index))
                })
                .collect();
            EvidenceIndex::new(apps.len(), entries)
        };
        let exported_activities = exported(ComponentKind::Activity);
        let exported_services = exported(ComponentKind::Service);
        let draining = EvidenceIndex::new(
            apps.len(),
            apps.iter()
                .enumerate()
                .filter_map(|(index, facts)| {
                    let util = facts.background_util.filter(|&util| util > 0.0)?;
                    let text = format!("{} (background demand {util:.2} cores)", facts.package);
                    Some((text, index))
                })
                .collect(),
        );
        let pricer = Pricer::new(DevicePowerModel::nexus4().coefficients());
        let absint = AbsintSolution::solve(&apps, &handlers, &pricer);
        LintContext {
            apps,
            handlers,
            exported_activities,
            exported_services,
            draining,
            absint,
        }
    }

    /// Every app under analysis.
    pub fn apps(&self) -> &[AppFacts] {
        &self.apps
    }

    /// The solved abstract-interpretation fixpoint.
    pub fn absint(&self) -> &AbsintSolution {
        &self.absint
    }

    /// The full action → exported-handlers index.
    pub fn handler_index(&self) -> &BTreeMap<String, Vec<Handler>> {
        &self.handlers
    }

    /// Exported handlers for an implicit `action`, across all apps.
    pub fn handlers_of(&self, action: &str) -> &[Handler] {
        self.handlers.get(action).map(Vec::as_slice).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_framework::AppManifest;

    fn ctx() -> LintContext {
        let manifests = [
            AppManifest::builder("com.a").activity("Main", true).build(),
            AppManifest::builder("com.b")
                .activity_with_actions("Share", true, &["SEND"])
                .build(),
            AppManifest::builder("com.c")
                .activity_with_actions("Open", true, &["VIEW"])
                .activity_with_actions("Hidden", false, &["VIEW"])
                .build(),
        ];
        LintContext::new(manifests.iter().map(AppFacts::from_manifest).collect())
    }

    #[test]
    fn flow_pass_indexes_exported_handlers_only() {
        let ctx = ctx();
        assert_eq!(ctx.handlers_of("SEND").len(), 1);
        assert_eq!(ctx.handlers_of("VIEW").len(), 1, "non-exported excluded");
        assert!(ctx.handlers_of("EDIT").is_empty());
    }

    #[test]
    fn handler_index_is_in_action_then_app_order() {
        let ctx = ctx();
        let index: Vec<(&str, &str, &str)> = ctx
            .handler_index()
            .iter()
            .flat_map(|(action, handlers)| {
                handlers.iter().map(|handler| {
                    let package = ctx.apps()[handler.app].package.as_str();
                    (action.as_str(), package, handler.component.as_str())
                })
            })
            .collect();
        assert_eq!(
            index,
            vec![("SEND", "com.b", "Share"), ("VIEW", "com.c", "Open")]
        );
    }
}
