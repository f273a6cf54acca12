//! The worklist fixpoint solver.
//!
//! Two intertwined fixpoints over one worklist discipline:
//!
//! 1. **Lifecycle envelopes** — per app, the three phase nodes of
//!    [`transfer::edges`] are iterated with
//!    `state(n) = generate(n) ⊔ ⨆ kill(e, state(pred))` until nothing
//!    changes. The lattice is finite-height (occupancies from a finite
//!    constant set) and every transfer is monotone, so termination is
//!    structural, not a fuel counter.
//! 2. **k-hop intent reachability** — the cross-app generalization of
//!    the old two-hop pass. An app's *emission vocabulary* is the set of
//!    implicit actions its own components declare (an app that declares
//!    nothing is ⊤: it may emit anything). From each origin, a
//!    min-hop relaxation over `emit(action) → exported handler` edges
//!    runs to fixpoint, keeping one deterministic lexicographically
//!    minimal witness path per target — independent of install order.
//!
//! The solution prices every envelope through [`super::price::Pricer`]
//! and precomputes the package-ordered aggregates the rules query: each
//! rule's price is an aggregate minus the origin's own share, O(1) per
//! app. Reachability keeps one row per origin holding only the targets
//! it reaches, and an app set that declares no implicit-intent handler
//! (the Figure 2 corpus) keeps no rows at all. Together with the
//! evidence lists [`crate::LintContext`] sorts once, a corpus pass is
//! linear in the app count plus the exported components; only the
//! reachability relaxations themselves grow with the intent graph.

use std::collections::{BTreeMap, BTreeSet};

use ea_framework::ComponentKind;

use super::lattice::ResourceState;
use super::price::{PricedEnvelope, Pricer};
use super::transfer::{self, Phase};
use crate::facts::AppFacts;
use crate::flow::Handler;

/// Convergence evidence: how much work the worklists did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Phase-node transfer evaluations until the lifecycle fixpoint.
    pub phase_iterations: usize,
    /// Edge relaxations until the reachability fixpoint.
    pub reach_relaxations: usize,
}

/// One app reachable from an origin through implicit-intent hops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachInfo {
    /// Index of the reached app.
    pub target: usize,
    /// Minimal number of intent hops from the origin.
    pub hops: usize,
    /// The action of the final hop.
    pub action: String,
    /// The handler component the final hop lands in.
    pub component: String,
    /// The handler's component kind (what the chain ultimately drives).
    pub kind: ComponentKind,
}

/// Per-app solved state.
#[derive(Debug, Clone)]
struct AppSolution {
    /// Priced fixpoint envelope of each lifecycle phase ([`Phase::index`]
    /// order).
    phase_prices: [PricedEnvelope; Phase::COUNT],
    /// Priced join of the phases reachable from the resident entry node.
    autonomous_price: PricedEnvelope,
    has_exported_activity: bool,
    has_exported_service: bool,
}

/// One intent-graph edge: an exported handler of an implicit action.
#[derive(Debug)]
struct Edge {
    action: String,
    component: String,
    kind: ComponentKind,
    /// The app owning the handler.
    target: usize,
}

/// A target reached from an origin, with the last hop of its minimal
/// witness path.
#[derive(Debug, Clone, Copy)]
struct Reached {
    hops: usize,
    /// Index into [`AbsintSolution::edges`] of the final hop (its
    /// `target` is the reached app).
    edge: usize,
    /// Row position of the app the final hop leaves; `None` when it
    /// leaves the origin.
    via: Option<usize>,
}

/// The fixpoint solution over one app set.
#[derive(Debug)]
pub struct AbsintSolution {
    apps: Vec<AppSolution>,
    pricer: Pricer,
    /// The intent graph's edges, in the order relaxation visits them.
    edges: Vec<Edge>,
    /// `reach[origin]` — the targets `origin` reaches, in discovery
    /// order. Empty (no rows at all) when no app declares a handler.
    reach: Vec<Vec<Reached>>,
    packages: Vec<String>,
    stats: SolverStats,
    // Package-ordered aggregates for O(1) rule pricing.
    sum_bg_all: PricedEnvelope,
    sum_bg_exported_activity: PricedEnvelope,
    sum_svc_exported_service: PricedEnvelope,
    /// Top-2 foreground prices among exported-activity apps, by
    /// `(total desc, package asc)`.
    top_fg_exported: Vec<usize>,
    /// Top-2 foreground prices among all apps.
    top_fg_all: Vec<usize>,
}

impl AbsintSolution {
    /// Solves the lifecycle and reachability fixpoints for `apps`.
    /// `handlers` is the exported implicit-intent index (action →
    /// handlers).
    pub fn solve(
        apps: &[AppFacts],
        handlers: &BTreeMap<String, Vec<Handler>>,
        pricer: &Pricer,
    ) -> AbsintSolution {
        let mut stats = SolverStats::default();
        let solved: Vec<AppSolution> = apps
            .iter()
            .map(|facts| solve_app(facts, pricer, &mut stats))
            .collect();
        let packages: Vec<String> = apps.iter().map(|f| f.package.clone()).collect();

        let (edges, reach) = solve_reach(apps, handlers, &mut stats);

        // App indices in package order: the canonical iteration order
        // that makes every cross-app float aggregation install-order
        // independent.
        let mut order: Vec<usize> = (0..apps.len()).collect();
        order.sort_by(|&a, &b| packages[a].cmp(&packages[b]));

        // Package-ordered aggregate sums: the per-rule prices are
        // sum-minus-own-contribution, so one O(n) pass serves every app.
        let mut sum_bg_all = PricedEnvelope::default();
        let mut sum_bg_exported_activity = PricedEnvelope::default();
        let mut sum_svc_exported_service = PricedEnvelope::default();
        for &index in &order {
            let app = &solved[index];
            sum_bg_all.add(&app.phase_prices[Phase::Background.index()]);
            if app.has_exported_activity {
                sum_bg_exported_activity.add(&app.phase_prices[Phase::Background.index()]);
            }
            if app.has_exported_service {
                sum_svc_exported_service.add(&app.phase_prices[Phase::Service.index()]);
            }
        }
        let top2 = |candidates: &mut dyn Iterator<Item = usize>| -> Vec<usize> {
            let mut all: Vec<usize> = candidates.collect();
            all.sort_by(|&a, &b| {
                let fa = solved[a].phase_prices[Phase::Foreground.index()].total_joules();
                let fb = solved[b].phase_prices[Phase::Foreground.index()].total_joules();
                fb.total_cmp(&fa)
                    .then_with(|| packages[a].cmp(&packages[b]))
            });
            all.truncate(2);
            all
        };
        let top_fg_exported = top2(
            &mut order
                .iter()
                .copied()
                .filter(|&i| solved[i].has_exported_activity),
        );
        let top_fg_all = top2(&mut order.iter().copied());

        AbsintSolution {
            apps: solved,
            pricer: pricer.clone(),
            edges,
            reach,
            packages,
            stats,
            sum_bg_all,
            sum_bg_exported_activity,
            sum_svc_exported_service,
            top_fg_exported,
            top_fg_all,
        }
    }

    /// Convergence statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Attack #5 bound: the screen held at its ceiling for a day.
    pub fn screen_day(&self) -> PricedEnvelope {
        self.pricer.screen_day()
    }

    /// Attack #6 / no-sleep bound: a leaked screen wakelock for a day.
    pub fn wakelock_day(&self) -> PricedEnvelope {
        self.pricer.wakelock_day()
    }

    /// The priced autonomous envelope (what the app can burn unprompted).
    pub fn autonomous_price(&self, app: usize) -> &PricedEnvelope {
        &self.apps[app].autonomous_price
    }

    /// Attack #1 bound for `origin`: the hottest foreign exported-activity
    /// victim held foreground plus every other one parked draining in the
    /// background. `None` when there is no victim.
    pub fn hijack_envelope(&self, origin: usize) -> Option<PricedEnvelope> {
        let best = self
            .top_fg_exported
            .iter()
            .copied()
            .find(|&candidate| candidate != origin)?;
        let mut env = self.sum_bg_exported_activity.clone();
        if self.apps[origin].has_exported_activity {
            env.saturating_sub(&self.apps[origin].phase_prices[Phase::Background.index()]);
        }
        env.saturating_sub(&self.apps[best].phase_prices[Phase::Background.index()]);
        env.add(&self.apps[best].phase_prices[Phase::Foreground.index()]);
        Some(env)
    }

    /// Attack #2 bound for `origin`: every co-installed app displaced into
    /// its background envelope at once.
    pub fn spray_envelope(&self, origin: usize) -> PricedEnvelope {
        let mut env = self.sum_bg_all.clone();
        env.saturating_sub(&self.apps[origin].phase_prices[Phase::Background.index()]);
        env
    }

    /// Attack #3 bound for `origin`: every foreign exported service bound
    /// and pinned concurrently.
    pub fn tether_envelope(&self, origin: usize) -> PricedEnvelope {
        let mut env = self.sum_svc_exported_service.clone();
        if self.apps[origin].has_exported_service {
            env.saturating_sub(&self.apps[origin].phase_prices[Phase::Service.index()]);
        }
        env
    }

    /// Attack #4 bound for `origin`: the hottest foreign app interrupted
    /// mid-foreground-session.
    pub fn interrupt_envelope(&self, origin: usize) -> PricedEnvelope {
        self.top_fg_all
            .iter()
            .copied()
            .find(|&candidate| candidate != origin)
            .map(|victim| self.apps[victim].phase_prices[Phase::Foreground.index()].clone())
            .unwrap_or_default()
    }

    /// Every app reachable from `origin` through implicit-intent hops,
    /// ordered by `(hops, package)`, app index breaking ties between
    /// duplicate package names.
    pub fn reachable_from(&self, origin: usize) -> Vec<ReachInfo> {
        let Some(row) = self.reach.get(origin) else {
            return Vec::new();
        };
        let mut out: Vec<ReachInfo> = row
            .iter()
            .map(|reached| {
                let edge = &self.edges[reached.edge];
                ReachInfo {
                    target: edge.target,
                    hops: reached.hops,
                    action: edge.action.clone(),
                    component: edge.component.clone(),
                    kind: edge.kind,
                }
            })
            .collect();
        out.sort_by(|a, b| {
            (a.hops, &self.packages[a.target], a.target).cmp(&(
                b.hops,
                &self.packages[b.target],
                b.target,
            ))
        });
        out
    }

    /// The deepest chain from `origin`, in hops (0 = nothing reachable).
    pub fn max_chain_depth(&self, origin: usize) -> usize {
        self.reach
            .get(origin)
            .and_then(|row| row.iter().map(|reached| reached.hops).max())
            .unwrap_or(0)
    }

    /// Renders the minimal witness path to `target`, e.g.
    /// `com.a -[SEND]-> com.b/Share -[VIEW]-> com.c/Open`.
    pub fn describe_path(&self, origin: usize, target: usize) -> Option<String> {
        if origin == target {
            return None;
        }
        let row = self.reach.get(origin)?;
        let mut cursor = row
            .iter()
            .position(|reached| self.edges[reached.edge].target == target);
        // Walk the hops back to the origin, then render forward.
        let mut steps: Vec<&Edge> = Vec::new();
        while let Some(position) = cursor {
            steps.push(&self.edges[row[position].edge]);
            cursor = row[position].via;
        }
        if steps.is_empty() {
            return None;
        }
        let mut out = self.packages[origin].clone();
        for edge in steps.iter().rev() {
            out.push_str(&format!(
                " -[{}]-> {}/{}",
                edge.action, self.packages[edge.target], edge.component
            ));
        }
        Some(out)
    }

    /// Chain-attack bound for `origin`: the hottest activity-entered
    /// target held foreground, the rest of the reach set parked in
    /// background or pinned as services, priced in package order.
    pub fn chain_envelope(&self, origin: usize) -> PricedEnvelope {
        let reach = self.reachable_from(origin);
        let best_activity = reach
            .iter()
            .filter(|info| info.kind == ComponentKind::Activity)
            .max_by(|a, b| {
                let fa = self.apps[a.target].phase_prices[Phase::Foreground.index()].total_joules();
                let fb = self.apps[b.target].phase_prices[Phase::Foreground.index()].total_joules();
                fa.total_cmp(&fb)
                    .then_with(|| self.packages[b.target].cmp(&self.packages[a.target]))
            })
            .map(|info| info.target);
        let mut env = PricedEnvelope::default();
        for info in &reach {
            let prices = &self.apps[info.target].phase_prices;
            match info.kind {
                ComponentKind::Activity if Some(info.target) == best_activity => {
                    env.add(&prices[Phase::Foreground.index()]);
                }
                ComponentKind::Activity | ComponentKind::Receiver => {
                    env.add(&prices[Phase::Background.index()]);
                }
                ComponentKind::Service => {
                    env.add(&prices[Phase::Service.index()]);
                }
            }
        }
        env
    }
}

/// Prices one app's lifecycle fixpoint.
fn solve_app(facts: &AppFacts, pricer: &Pricer, stats: &mut SolverStats) -> AppSolution {
    let (phases, autonomous) = lifecycle_fixpoint(facts, stats);
    AppSolution {
        phase_prices: [
            pricer.price(&phases[0]),
            pricer.price(&phases[1]),
            pricer.price(&phases[2]),
        ],
        autonomous_price: pricer.price(&autonomous),
        has_exported_activity: facts.has_exported_activity(),
        has_exported_service: facts.has_exported_service(),
    }
}

/// Runs the lifecycle worklist for one app to fixpoint: the state of
/// each phase ([`Phase::index`] order) and the join of the phases
/// reachable from the resident entry node.
fn lifecycle_fixpoint(
    facts: &AppFacts,
    stats: &mut SolverStats,
) -> ([ResourceState; Phase::COUNT], ResourceState) {
    let edges = transfer::edges(facts);
    let mut phases = Phase::ALL.map(|phase| transfer::generate(phase, facts));
    // Phases with no incoming edge from the entry stay at their local
    // generation but are unreachable; mark reachability from the entry.
    let mut reachable = [false; Phase::COUNT];
    reachable[Phase::Background.index()] = true;
    let mut changed = true;
    while changed {
        changed = false;
        for &(from, to) in &edges {
            stats.phase_iterations += 1;
            if !reachable[from.index()] {
                continue;
            }
            if !reachable[to.index()] {
                reachable[to.index()] = true;
                changed = true;
            }
            let flowed = transfer::kill(from, to, facts, &phases[from.index()]);
            if phases[to.index()].join_from(&flowed) {
                changed = true;
            }
        }
    }
    let mut autonomous = ResourceState::bottom();
    for phase in Phase::ALL {
        if reachable[phase.index()] {
            autonomous.join_from(&phases[phase.index()]);
        }
    }
    (phases, autonomous)
}

/// The implicit actions an app may plausibly emit: the union of what its
/// own components declare. `None` means ⊤ — an app that declares nothing
/// is assumed able to emit anything (the sound default for opaque code).
fn vocabulary(facts: &AppFacts) -> Option<BTreeSet<&str>> {
    let vocab: BTreeSet<&str> = facts
        .manifest
        .components
        .iter()
        .flat_map(|decl| decl.intent_actions.iter().map(String::as_str))
        .collect();
    if vocab.is_empty() {
        None
    } else {
        Some(vocab)
    }
}

/// Min-hop relaxation from every origin over emission-feasible edges.
/// Returns the flattened edge list and one row of reached targets per
/// origin; no rows when there is no handler.
fn solve_reach(
    apps: &[AppFacts],
    handlers: &BTreeMap<String, Vec<Handler>>,
    stats: &mut SolverStats,
) -> (Vec<Edge>, Vec<Vec<Reached>>) {
    if handlers.is_empty() {
        return (Vec::new(), Vec::new());
    }
    // Edges sorted by (target package, action, component) so witness
    // selection is install-order independent; the stable sort keeps
    // handler-index order among ties.
    let mut edges: Vec<Edge> = handlers
        .iter()
        .flat_map(|(action, hs)| {
            hs.iter().map(move |h| Edge {
                action: action.clone(),
                component: h.component.clone(),
                kind: h.kind,
                target: h.app,
            })
        })
        .collect();
    edges.sort_by(|a, b| {
        (&apps[a.target].package, &a.action, &a.component).cmp(&(
            &apps[b.target].package,
            &b.action,
            &b.component,
        ))
    });
    // Per app, the ascending ids of the edges it can emit, built once;
    // `None` (⊤ vocabulary) emits every edge.
    let emits: Vec<Option<Vec<usize>>> = {
        let mut by_action: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (id, edge) in edges.iter().enumerate() {
            by_action.entry(edge.action.as_str()).or_default().push(id);
        }
        apps.iter()
            .map(|facts| {
                vocabulary(facts).map(|vocab| {
                    let mut ids: Vec<usize> = vocab
                        .iter()
                        .filter_map(|action| by_action.get(action))
                        .flatten()
                        .copied()
                        .collect();
                    ids.sort_unstable();
                    ids
                })
            })
            .collect()
    };
    let every_edge: Vec<usize> = (0..edges.len()).collect();

    let mut seen = vec![false; apps.len()];
    let mut reach: Vec<Vec<Reached>> = Vec::with_capacity(apps.len());
    for origin in 0..apps.len() {
        let mut row: Vec<Reached> = Vec::new();
        // (app, row position of the hop that reached it).
        let mut frontier: Vec<(usize, Option<usize>)> = vec![(origin, None)];
        let mut hops = 0;
        while !frontier.is_empty() {
            hops += 1;
            // Package order within the frontier: the first writer to a
            // target is the lexicographically minimal witness.
            frontier.sort_by(|&(a, _), &(b, _)| apps[a].package.cmp(&apps[b].package));
            let mut next = Vec::new();
            for &(from, via) in &frontier {
                for &edge in emits[from].as_deref().unwrap_or(&every_edge) {
                    stats.reach_relaxations += 1;
                    let target = edges[edge].target;
                    if target == origin || seen[target] {
                        continue;
                    }
                    seen[target] = true;
                    next.push((target, Some(row.len())));
                    row.push(Reached { hops, edge, via });
                }
            }
            frontier = next;
        }
        for reached in &row {
            seen[edges[reached.edge].target] = false;
        }
        reach.push(row);
    }
    (edges, reach)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::LintContext;
    use ea_framework::{AppManifest, Permission};
    use ea_power::DevicePowerModel;

    fn solve(manifests: &[AppManifest]) -> (Vec<AppFacts>, AbsintSolution) {
        let facts: Vec<AppFacts> = manifests.iter().map(AppFacts::from_manifest).collect();
        let ctx = LintContext::new(facts.clone());
        let pricer = Pricer::new(DevicePowerModel::nexus4().coefficients());
        let solution = AbsintSolution::solve(ctx.apps(), ctx.handler_index(), &pricer);
        (facts, solution)
    }

    #[test]
    fn wakelock_leak_flows_across_lifecycle_edges() {
        let facts = AppFacts::from_manifest(
            &AppManifest::builder("com.leaky")
                .activity("Main", true)
                .permission(Permission::WakeLock)
                .build(),
        );
        use super::super::lattice::Resource;
        let mut stats = SolverStats::default();
        let (phases, _) = lifecycle_fixpoint(&facts, &mut stats);
        // The background-acquired leak haunts the foreground phase too.
        let fg = &phases[Phase::Foreground.index()];
        assert_eq!(fg.occupancy(Resource::ScreenBright), 1.0);
        assert!(stats.phase_iterations > 0);
    }

    #[test]
    fn envelope_prices_scale_with_victim_count() {
        let victims: Vec<AppManifest> = (0..4)
            .map(|i| {
                AppManifest::builder(format!("com.victim{i}"))
                    .activity("Main", true)
                    .build()
            })
            .chain([AppManifest::builder("com.origin").build()])
            .collect();
        let (_, solution) = solve(&victims);
        let origin = 4;
        let one_less = solution.hijack_envelope(origin).unwrap().total_joules();
        let spray = solution.spray_envelope(origin).total_joules();
        assert!(one_less > 0.0);
        assert!(spray > 0.0);
        // Tether finds nothing: no exported services anywhere.
        assert!(solution.tether_envelope(origin).is_zero());
    }

    #[test]
    fn reach_follows_emission_vocabulary() {
        // A declares HOP1 internally → can emit HOP1 only. B handles HOP1
        // and declares HOP2 → reaches C at hop 2. C handles HOP2.
        let (_, solution) = solve(&[
            AppManifest::builder("com.a")
                .activity_with_actions("Seed", false, &["HOP1"])
                .build(),
            AppManifest::builder("com.b")
                .activity_with_actions("In", true, &["HOP1"])
                .activity_with_actions("Out", false, &["HOP2"])
                .build(),
            AppManifest::builder("com.c")
                .activity_with_actions("End", true, &["HOP2"])
                .build(),
        ]);
        let reach = solution.reachable_from(0);
        assert_eq!(reach.len(), 2);
        assert_eq!((reach[0].target, reach[0].hops), (1, 1));
        assert_eq!((reach[1].target, reach[1].hops), (2, 2));
        assert_eq!(
            solution.describe_path(0, 2).unwrap(),
            "com.a -[HOP1]-> com.b/In -[HOP2]-> com.c/End"
        );
        // C declares only HOP2, which nobody else handles: dead end.
        assert!(solution.reachable_from(2).is_empty());
    }

    #[test]
    fn rows_hold_only_reached_targets() {
        // No handler anywhere: no rows at all.
        let (_, silent) = solve(&[
            AppManifest::builder("com.a").activity("Main", true).build(),
            AppManifest::builder("com.b")
                .service("Worker", true)
                .build(),
        ]);
        assert!(silent.reach.is_empty());
        assert!(silent.reachable_from(0).is_empty());
        assert_eq!(silent.max_chain_depth(1), 0);

        // One handler: only the origins that reach it hold an entry.
        let (_, single) = solve(&[
            AppManifest::builder("com.a").build(),
            AppManifest::builder("com.b")
                .activity_with_actions("In", true, &["GO"])
                .build(),
            AppManifest::builder("com.c").build(),
        ]);
        let lengths: Vec<usize> = single.reach.iter().map(Vec::len).collect();
        assert_eq!(lengths, vec![1, 0, 1]);
    }

    #[test]
    fn empty_vocabulary_is_top() {
        let (_, solution) = solve(&[
            AppManifest::builder("com.mute").build(),
            AppManifest::builder("com.open")
                .activity_with_actions("Any", true, &["X"])
                .build(),
        ]);
        // com.mute declares nothing → ⊤ → reaches the X handler in 1 hop.
        let reach = solution.reachable_from(0);
        assert_eq!(reach.len(), 1);
        assert_eq!(reach[0].hops, 1);
    }

    #[test]
    fn witness_is_install_order_independent() {
        let a = AppManifest::builder("com.a")
            .activity_with_actions("Seed", false, &["GO"])
            .build();
        let b = AppManifest::builder("com.b")
            .activity_with_actions("H", true, &["GO"])
            .build();
        let c = AppManifest::builder("com.c")
            .activity_with_actions("H", true, &["GO"])
            .build();
        let (_, fwd) = solve(&[a.clone(), b.clone(), c.clone()]);
        let (_, rev) = solve(&[a, c, b]);
        // Same origin package, same targets by package, same witnesses.
        let path_fwd = fwd.describe_path(0, 1).unwrap();
        let rev_target = (0..3).find(|&i| rev.describe_path(0, i).is_some()).unwrap();
        let path_rev = rev.describe_path(0, rev_target).unwrap();
        assert_eq!(path_fwd, "com.a -[GO]-> com.b/H");
        assert_eq!(path_rev, "com.a -[GO]-> com.c/H");
    }
}
