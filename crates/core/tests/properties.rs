//! Property-based tests of the collateral graph (Algorithm 1) and the
//! attribution layer.

use ea_core::{attribute, CollateralGraph, EnergyLedger, Entity, ScreenPolicy};
use ea_power::{Component, ComponentDraw, Energy, UsageShare};
use ea_sim::{SimDuration, Uid};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum GraphOp {
    Begin {
        driving: u32,
        driven: u32,
        service: bool,
        to_screen: bool,
    },
    EndOldest,
    Accrue {
        entity: u32,
        joules: f64,
        screen: bool,
    },
}

fn graph_op() -> impl Strategy<Value = GraphOp> {
    prop_oneof![
        (0u32..6, 0u32..6, any::<bool>(), any::<bool>()).prop_map(
            |(driving, driven, service, to_screen)| GraphOp::Begin {
                driving,
                driven,
                service,
                to_screen
            }
        ),
        Just(GraphOp::EndOldest),
        (0u32..6, 0.0f64..10.0, any::<bool>()).prop_map(|(entity, joules, screen)| {
            GraphOp::Accrue {
                entity,
                joules,
                screen,
            }
        }),
    ]
}

fn uid(n: u32) -> Uid {
    Uid::from_raw(10_000 + n)
}

proptest! {
    #[test]
    fn graph_invariants_under_random_operation_sequences(
        ops in proptest::collection::vec(graph_op(), 1..120)
    ) {
        let mut graph = CollateralGraph::new();
        let mut open: Vec<Vec<ea_core::LinkToken>> = Vec::new();
        let mut last_totals: std::collections::BTreeMap<Uid, f64> = Default::default();

        for op in ops {
            match op {
                GraphOp::Begin { driving, driven, service, to_screen } => {
                    let target = if to_screen { Entity::Screen } else { Entity::App(uid(driven)) };
                    let tokens = graph.begin(uid(driving), target, service);
                    for &(host, entity) in &tokens {
                        prop_assert_ne!(Entity::App(host), entity, "no self links");
                        prop_assert!(graph.links(host, entity) > 0);
                    }
                    open.push(tokens);
                }
                GraphOp::EndOldest => {
                    if !open.is_empty() {
                        let tokens = open.remove(0);
                        graph.end(&tokens);
                    }
                }
                GraphOp::Accrue { entity, joules, screen } => {
                    let target = if screen { Entity::Screen } else { Entity::App(uid(entity)) };
                    graph.accrue(target, Energy::from_joules(joules));
                }
            }
            // Energy per host is monotone nondecreasing.
            for host in graph.hosts() {
                let total = graph.collateral_total(host).as_joules();
                let previous = last_totals.insert(host, total).unwrap_or(0.0);
                prop_assert!(total + 1e-12 >= previous, "accrued energy never shrinks");
            }
        }

        // Ending everything stops all accrual.
        for tokens in open {
            graph.end(&tokens);
        }
        prop_assert!(!graph.any_live_links());
        let before: Vec<f64> = graph.hosts().map(|h| graph.collateral_total(h).as_joules()).collect();
        graph.accrue(Entity::Screen, Energy::from_joules(100.0));
        for n in 0..6 {
            graph.accrue(Entity::App(uid(n)), Energy::from_joules(100.0));
        }
        let after: Vec<f64> = graph.hosts().map(|h| graph.collateral_total(h).as_joules()).collect();
        prop_assert_eq!(before, after, "closed graphs accrue nothing");
    }

    #[test]
    fn attribution_conserves_every_joule(
        power_mw in 0.0f64..5_000.0,
        dt_ms in 1u64..100_000,
        shares in proptest::collection::vec((0u32..8, 0.0f64..0.4), 0..5),
        component_index in 0usize..7,
        policy_separate in any::<bool>()
    ) {
        let component = Component::ALL[component_index];
        let draw = ComponentDraw {
            component,
            power_mw,
            users: shares
                .iter()
                .map(|&(n, share)| UsageShare { uid: uid(n), share })
                .collect(),
        };
        let dt = SimDuration::from_millis(dt_ms);
        let policy = if policy_separate {
            ScreenPolicy::SeparateEntity
        } else {
            ScreenPolicy::ForegroundApp
        };
        let charges = attribute(&draw, dt, policy);
        let charged: f64 = charges.iter().map(|(_, energy)| energy.as_joules()).sum();
        let total = Energy::from_power(power_mw, dt).as_joules();
        prop_assert!((charged - total).abs() < 1e-9, "conservation: {charged} vs {total}");
        for (_, energy) in &charges {
            prop_assert!(energy.as_joules() >= 0.0);
        }
    }

    #[test]
    fn ledger_percentages_partition(
        charges in proptest::collection::vec((0u32..6, 0usize..7, 0.001f64..50.0), 1..40)
    ) {
        let mut ledger = EnergyLedger::new();
        for (n, component_index, joules) in charges {
            ledger.charge(
                Entity::App(uid(n)),
                Component::ALL[component_index],
                Energy::from_joules(joules),
            );
        }
        let percent_sum: f64 = ledger.entities().map(|e| ledger.percent_of(e)).sum();
        prop_assert!((percent_sum - 100.0).abs() < 1e-6);

        let ranking = ledger.ranking();
        for window in ranking.windows(2) {
            prop_assert!(window[0].1 >= window[1].1, "ranking sorted descending");
        }
    }

    #[test]
    fn chain_depth_propagation_reaches_all_ancestors(depth in 1usize..10) {
        // a0 -> a1 -> ... -> a_depth, all service-like; then the leaf
        // attacks the screen: every ancestor's map must hold the screen.
        let mut graph = CollateralGraph::new();
        for level in 0..depth {
            graph.begin(uid(level as u32), Entity::App(uid(level as u32 + 1)), true);
        }
        graph.begin(uid(depth as u32), Entity::Screen, false);
        for level in 0..=depth {
            prop_assert!(graph.links(uid(level as u32), Entity::Screen) > 0,
                "ancestor {level} linked to the screen");
        }
        graph.accrue(Entity::Screen, Energy::from_joules(1.0));
        for level in 0..=depth {
            prop_assert!(graph.collateral_total(uid(level as u32)).as_joules() >= 1.0 - 1e-9);
        }
    }
}

// ---------------------------------------------------------------------------
// Degraded-mode properties (DESIGN.md §11): whatever the glitch stream does,
// the sanitizer keeps attribution conservative and finite.

proptest! {
    #[test]
    fn attribution_never_exceeds_drain_under_arbitrary_glitch_streams(
        seed in any::<u64>(),
        lane in 0u64..8,
        rate in 0.0f64..1.0,
        powers in proptest::collection::vec((0.0f64..3_000.0, 1u64..500), 1..200),
    ) {
        use ea_core::ProfilerChaos;
        use ea_chaos::FaultPlan;
        use ea_power::Battery;
        use ea_telemetry::SinkHandle;

        let plan = FaultPlan::uniform(seed, rate);
        let mut chaos = ProfilerChaos::new(plan.power_faults(lane));
        let mut battery = Battery::nexus4();
        let telemetry = SinkHandle::noop();
        for (power_mw, millis) in powers {
            let mut draws = vec![ComponentDraw {
                component: Component::Cpu,
                power_mw,
                users: vec![UsageShare { uid: uid(1), share: 1.0 }],
            }];
            chaos.apply(
                &mut draws,
                SimDuration::from_millis(millis),
                &mut battery,
                &telemetry,
            );
            prop_assert!(draws[0].power_mw.is_finite() && draws[0].power_mw >= 0.0);
        }
        prop_assert!(chaos.attributed_joules().is_finite());
        prop_assert!(
            chaos.attributed_joules() <= chaos.drawn_joules() + 1e-6,
            "conservation: attributed {} <= drawn {}",
            chaos.attributed_joules(),
            chaos.drawn_joules()
        );
        prop_assert!(chaos.degraded_energy().as_joules() <= chaos.attributed_joules() + 1e-6);
    }

    #[test]
    fn sanitizer_output_is_finite_and_nonnegative_for_any_reading(
        observations in proptest::collection::vec(
            (0u8..4, 0.0f64..100.0, proptest::option::of(-1.0e12f64..1.0e12)),
            1..300,
        ),
    ) {
        use ea_core::CounterSanitizer;

        let mut sanitizer = CounterSanitizer::new();
        for (slot, true_delta, reading) in observations {
            let sanitized = sanitizer.observe(slot, true_delta, reading);
            prop_assert!(sanitized.delta.is_finite());
            prop_assert!(sanitized.delta >= 0.0, "delta {}", sanitized.delta);
        }
    }
}
