//! The k-hop acceptance world: a four-hop implicit-intent relay that the
//! old two-hop chain pass provably could not report. Five apps form a
//! vocabulary-gated ladder — each rung's action is only emittable by the
//! app one step up — so the only feasible route from the origin to the
//! final handler is four hops long. The fixpoint engine finds it with a
//! full witness; the reach set's hop-≤2 prefix (what a depth-2 analysis
//! sees) misses it; and every legacy two-hop chain ending at the deep
//! target is emission-infeasible, which is exactly why the old pass
//! could never claim it.

use ea_framework::AppManifest;
use ea_lint::{AppFacts, Handler, LintContext, Linter, RuleId};

const WITNESS: &str = "com.hop.a -[hop.ONE]-> com.hop.b/H1 -[hop.TWO]-> com.hop.c/H2 \
                       -[hop.THREE]-> com.hop.d/H3 -[hop.FOUR]-> com.hop.e/H4";

/// `com.hop.a` can emit only `hop.ONE` (declared on an internal activity:
/// vocabulary, not a resolver entry). Each relay app handles the previous
/// rung's action and declares the next one internally.
fn four_hop_world() -> Vec<AppManifest> {
    vec![
        AppManifest::builder("com.hop.a")
            .activity_with_actions("Main", false, &["hop.ONE"])
            .build(),
        AppManifest::builder("com.hop.b")
            .activity_with_actions("H1", true, &["hop.ONE"])
            .activity_with_actions("Emit2", false, &["hop.TWO"])
            .build(),
        AppManifest::builder("com.hop.c")
            .activity_with_actions("H2", true, &["hop.TWO"])
            .activity_with_actions("Emit3", false, &["hop.THREE"])
            .build(),
        AppManifest::builder("com.hop.d")
            .activity_with_actions("H3", true, &["hop.THREE"])
            .activity_with_actions("Emit4", false, &["hop.FOUR"])
            .build(),
        AppManifest::builder("com.hop.e")
            .activity_with_actions("H4", true, &["hop.FOUR"])
            .build(),
    ]
}

fn world_context() -> LintContext {
    LintContext::new(
        four_hop_world()
            .iter()
            .map(AppFacts::from_manifest)
            .collect(),
    )
}

#[test]
fn fixpoint_reaches_the_four_hop_target_with_a_full_witness() {
    let ctx = world_context();
    let absint = ctx.absint();

    assert_eq!(absint.max_chain_depth(0), 4);
    let reach = absint.reachable_from(0);
    assert_eq!(
        reach.iter().map(|r| r.hops).collect::<Vec<_>>(),
        vec![1, 2, 3, 4],
        "each relay app is reached exactly one hop deeper"
    );
    let deepest = reach.last().unwrap();
    assert_eq!(deepest.hops, 4);
    assert_eq!(ctx.apps()[deepest.target].package, "com.hop.e");
    assert_eq!(
        absint.describe_path(0, deepest.target).as_deref(),
        Some(WITNESS)
    );
}

#[test]
fn two_hop_truncation_provably_misses_the_deep_target() {
    let ctx = world_context();
    let apps: Vec<AppFacts> = four_hop_world()
        .iter()
        .map(AppFacts::from_manifest)
        .collect();

    // Min-hop relaxation settles hop k before hop k + 1, so the hop-≤2
    // prefix of the full reach set is what the legacy depth sees.
    let reach: Vec<_> = ctx
        .absint()
        .reachable_from(0)
        .into_iter()
        .filter(|r| r.hops <= 2)
        .collect();
    assert_eq!(
        reach.iter().map(|r| r.hops).max(),
        Some(2),
        "a depth-2 analysis stops at com.hop.c"
    );
    assert!(
        reach.iter().all(|r| apps[r.target].package != "com.hop.e"),
        "the deep target is invisible at depth 2"
    );

    // The legacy two-hop enumeration does mention com.hop.e — but only in
    // emission-blind pairs where somebody along the way cannot actually
    // emit the action attributed to them (the origin can only emit
    // hop.ONE; com.hop.b can only emit hop.ONE and hop.TWO). Every legacy
    // chain ending at the deep target breaks on one of its two hops, so
    // the old pass could never truthfully report the relay.
    let vocabulary = |index: usize| -> Vec<&str> {
        apps[index]
            .manifest
            .components
            .iter()
            .flat_map(|decl| decl.intent_actions.iter().map(String::as_str))
            .collect()
    };
    // The legacy pairs: any foreign first hop, then any handler in a
    // third app, both read straight off the handler index.
    let hops: Vec<(&str, &Handler)> = ctx
        .handler_index()
        .iter()
        .flat_map(|(action, handlers)| handlers.iter().map(move |h| (action.as_str(), h)))
        .collect();
    let mut ending_deep = 0;
    for &(first_action, first) in hops.iter().filter(|(_, h)| h.app != 0) {
        let to_deep = hops
            .iter()
            .filter(|(_, h)| h.app != first.app && apps[h.app].package == "com.hop.e");
        for &(second_action, second) in to_deep {
            ending_deep += 1;
            let first_feasible = vocabulary(0).contains(&first_action);
            let second_feasible = vocabulary(first.app).contains(&second_action);
            assert!(
                !(first_feasible && second_feasible),
                "legacy chain -[{first_action}]-> {}/{} -[{second_action}]-> {}/{} \
                 is emission-feasible after all",
                apps[first.app].package,
                first.component,
                apps[second.app].package,
                second.component,
            );
        }
    }
    assert!(ending_deep > 0, "the blind pass emits bogus pairs");
}

#[test]
fn chain_rule_reports_the_four_hop_path_as_evidence() {
    let report = Linter::new().lint_manifests(&four_hop_world());
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.rule == RuleId::AttackChain && d.package == "com.hop.a")
        .expect("EA0009 must fire for the chain origin");

    assert!(
        diag.message.contains("4 hops deep"),
        "message must quantify the depth: {}",
        diag.message
    );
    assert!(
        diag.evidence.iter().any(|line| line == WITNESS),
        "evidence must carry the full witness path: {:?}",
        diag.evidence
    );
    assert!(diag.predicted_joules > 0.0);
}
