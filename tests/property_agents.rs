//! Property-based tests on the agents: every built-in algorithm emits
//! only legal actions for arbitrary instance shapes and seeds, and the
//! full stack is deterministic.

use house_hunting::prelude::*;
use proptest::prelude::*;

/// Drives a colony manually, asserting every chosen action passes the
/// environment's legality check before execution.
fn assert_always_legal(
    n: usize,
    spec: QualitySpec,
    seed: u64,
    mut agents: Colony,
    rounds: u64,
    reveal: bool,
) -> Result<(), TestCaseError> {
    let mut config = ColonyConfig::new(n, spec).seed(seed);
    if reveal {
        config = config.reveal_quality_on_go();
    }
    let mut env = Environment::new(&config).unwrap();
    for round in 1..=rounds {
        let actions: Vec<Action> = agents.iter_mut().map(|agent| agent.choose(round)).collect();
        for (i, action) in actions.iter().enumerate() {
            prop_assert!(
                env.check_action(AntId::new(i), action).is_ok(),
                "round {round}: {} chose illegal {action}",
                agents[i].label()
            );
        }
        let report = env.step(&actions).unwrap();
        for (agent, outcome) in agents.iter_mut().zip(&report.outcomes) {
            agent.observe(round, outcome);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn optimal_ants_always_act_legally(
        n in 1usize..48,
        k in 1usize..6,
        good in 0usize..6,
        seed in any::<u64>(),
    ) {
        let good = good.clamp(1, k);
        assert_always_legal(
            n,
            QualitySpec::good_prefix(k, good),
            seed,
            colony::optimal(n),
            60,
            false,
        )?;
    }

    #[test]
    fn simple_ants_always_act_legally(
        n in 1usize..48,
        k in 1usize..6,
        good in 0usize..6,
        seed in any::<u64>(),
        hardened in any::<bool>(),
    ) {
        let good = good.clamp(1, k);
        let options = if hardened { UrnOptions::hardened() } else { UrnOptions::paper() };
        assert_always_legal(
            n,
            QualitySpec::good_prefix(k, good),
            seed,
            colony::simple_with_options(n, seed, options),
            60,
            hardened,
        )?;
    }

    #[test]
    fn adaptive_and_quality_ants_always_act_legally(
        n in 1usize..48,
        k in 1usize..5,
        seed in any::<u64>(),
        gamma in 0.0f64..4.0,
    ) {
        assert_always_legal(
            n,
            QualitySpec::all_good(k),
            seed,
            colony::adaptive(n, seed),
            60,
            false,
        )?;
        assert_always_legal(
            n,
            QualitySpec::all_good(k),
            seed,
            colony::quality(n, seed, gamma),
            60,
            true,
        )?;
    }

    #[test]
    fn spreaders_always_act_legally(
        n in 1usize..48,
        seed in any::<u64>(),
        strategy_pick in 0usize..3,
    ) {
        let strategy = match strategy_pick {
            0 => SpreadStrategy::WaitAtHome,
            1 => SpreadStrategy::SearchForever,
            _ => SpreadStrategy::Hybrid { search_probability: 0.5 },
        };
        assert_always_legal(
            n,
            QualitySpec::single_good(3, 2),
            seed,
            colony::spreaders(n, seed, strategy),
            60,
            false,
        )?;
    }

    /// Byzantine agents are still model-bound: their chosen actions are
    /// legal even though their goals are adversarial.
    #[test]
    fn adversaries_always_act_legally(
        n in 4usize..32,
        seed in any::<u64>(),
        byz in 1usize..4,
    ) {
        use house_hunting::core::{AnyAgent, BadNestRecruiter, OscillatorAnt};
        let mut agents = colony::simple(n, seed);
        colony::plant_adversaries(&mut agents, byz, |slot| {
            if slot % 2 == 0 {
                AnyAgent::from(BadNestRecruiter::new())
            } else {
                AnyAgent::from(OscillatorAnt::new())
            }
        });
        assert_always_legal(
            n,
            QualitySpec::good_prefix(3, 2),
            seed,
            agents,
            60,
            false,
        )?;
    }

    /// The colony's SoA snapshot columns never drift from the agents
    /// they cache: after **every** executed round — under arbitrary
    /// interleavings of the engine's entry points (materializing,
    /// eliding, and multi-round stepping, which exercise the chunked
    /// phases in all their modes) — each column row reassembles to
    /// exactly the [`AgentSnapshot`] recomputed from the live agent, for
    /// honest, idle, and Byzantine colony mixes alike.
    #[test]
    fn soa_columns_stay_in_sync_with_agent_snapshots(
        n in 2usize..48,
        seed in any::<u64>(),
        mix_pick in 0usize..3,
        threads in 1usize..9,
        ops in proptest::collection::vec(0usize..3, 1..12),
    ) {
        use house_hunting::core::{AgentSnapshot, AnyAgent, BadNestRecruiter, OscillatorAnt};

        let mut agents = colony::simple(n, seed);
        match mix_pick {
            1 => colony::plant_idlers(&mut agents, n / 4),
            2 => colony::plant_adversaries(&mut agents, (n / 8).max(1), |slot| {
                if slot % 2 == 0 {
                    AnyAgent::from(BadNestRecruiter::new())
                } else {
                    AnyAgent::from(OscillatorAnt::new())
                }
            }),
            _ => {}
        }
        let mut sim = ScenarioSpec::new(n, QualitySpec::good_prefix(3, 2))
            .seed(seed)
            .build_simulation(agents)
            .unwrap()
            .with_round_threads(threads);
        for &op in &ops {
            match op {
                0 => { sim.step().unwrap(); }
                1 => { sim.step_in_place().unwrap(); }
                _ => {
                    sim.run_to_convergence(ConvergenceRule::commitment(), 3).unwrap();
                }
            }
            // Collect owned data before comparing.
            let round = sim.round();
            let cached: Vec<_> = {
                let columns = sim.colony().snapshot_columns();
                prop_assert_eq!(columns.len(), n);
                (0..n)
                    .map(|idx| {
                        (
                            columns.get(idx),
                            columns.role(idx),
                            columns.committed(idx),
                            columns.honest(idx),
                            columns.is_final(idx),
                        )
                    })
                    .collect()
            };
            let live: Vec<_> = sim
                .agents()
                .iter()
                .map(|agent| (AgentSnapshot::of(agent), agent.label().to_string()))
                .collect();
            for (idx, ((cached, role, committed, honest, is_final), (live, label))) in
                cached.into_iter().zip(&live).enumerate()
            {
                prop_assert_eq!(
                    &cached, live,
                    "after round {}: column row {} drifted from its agent ({})",
                    round, idx, label
                );
                // The single-column reads agree with the assembled row.
                prop_assert_eq!(role, live.role);
                prop_assert_eq!(committed, live.committed);
                prop_assert_eq!(honest, live.honest);
                prop_assert_eq!(is_final, live.is_final);
                // A committed nest is always one the environment says the
                // ant knows — the commitment column can only name rows of
                // the ant's candidate set.
                if live.honest {
                    if let Some(nest) = live.committed {
                        prop_assert!(
                            sim.env().knows(AntId::new(idx), nest),
                            "ant {} committed to unknown nest {}", idx, nest
                        );
                    }
                }
            }
        }
    }

    /// Same seeds ⇒ identical outcome through the whole stack, including
    /// the perturbed executor.
    #[test]
    fn perturbed_stack_is_deterministic(seed in any::<u64>(), delay in 0.0f64..0.3) {
        use house_hunting::model::faults::{CrashPlan, CrashStyle, DelayPlan};
        let n = 24;
        let build = || {
            ScenarioSpec::new(n, QualitySpec::good_prefix(3, 2))
                .seed(seed)
                .perturbations(Perturbations {
                    crash: CrashPlan::fraction(n, 0.1, 5, CrashStyle::InPlace, seed),
                    delay: DelayPlan::new(delay, seed),
                })
                .build_simulation(colony::simple(n, seed))
                .unwrap()
        };
        let a = build().run_to_convergence(ConvergenceRule::stable_commitment(4), 400).unwrap();
        let b = build().run_to_convergence(ConvergenceRule::stable_commitment(4), 400).unwrap();
        prop_assert_eq!(a.solved, b.solved);
        prop_assert_eq!(a.rounds_run, b.rounds_run);
        prop_assert_eq!(a.replaced_actions, b.replaced_actions);
    }
}
