//! SoA ↔ scalar distribution identity over the whole scenario catalog.
//!
//! The executor ships two renderings of the same round semantics: the
//! struct-of-arrays fast path (`EngineKind::Soa` — fused column passes,
//! batched per-ant RNG draws, optional intra-round chunking) and the
//! scalar oracle (`EngineKind::Scalar` — one match-per-ant pass per
//! phase, always serial). This harness holds them **bit-identical**, not
//! just statistically close: for every catalog scenario and equal seeds,
//!
//! 1. the [`RunOutcome`]s agree exactly (solved round/nest, rounds run,
//!    replaced/illegal action counters);
//! 2. the round-by-round census tallies agree exactly — true nest
//!    populations, honest commitment histograms, role census — checked
//!    in lockstep after every round so a divergence names the first
//!    round it appears in;
//! 3. the SoA engine's agreement with the oracle survives every
//!    intra-round thread count the determinism contract covers
//!    ({1, 2, 8}, plus the CI thread matrix via `HH_ROUND_THREADS`).
//!
//! Scenarios with fault schedules route both engines through the same
//! serial bookkeeping path, so their rows hold trivially; they stay in
//! the sweep anyway — the suite's contract is "the whole catalog", and
//! the rows are cheap insurance against a future engine split.

use house_hunting::prelude::*;
use house_hunting::sim::registry;

/// Trials per scenario for the run-outcome checks (matches the registry
/// conformance suite; the catalog spans colonies up to 4096 ants).
const REPRO_TRIALS: usize = 3;

/// Rounds compared in the lockstep census walk. Convergence for most
/// catalog entries happens within this window; past it the walk has
/// already compared every phase transition the engines disagree on
/// first, and the full-run outcome tests cover the tail.
const LOCKSTEP_ROUNDS: u64 = 96;

/// Intra-round thread counts the SoA engine must match the oracle at.
/// Mirrors `registry_conformance::round_thread_counts`, including the CI
/// thread-matrix extension.
fn round_thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 8];
    if let Ok(matrix) = std::env::var("HH_ROUND_THREADS") {
        let threads: usize = matrix
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("HH_ROUND_THREADS={matrix:?} is not a thread count: {e}"));
        if !counts.contains(&threads) {
            counts.push(threads);
        }
    }
    counts
}

#[test]
fn soa_is_the_default_engine() {
    let scenario = registry::all_scenarios().remove(0);
    assert_eq!(scenario.engine_kind(), EngineKind::Soa);
    let sim = scenario.build(scenario.base_seed()).expect("builds");
    assert_eq!(sim.engine(), EngineKind::Soa);
    let scalar = scenario.clone().engine(EngineKind::Scalar);
    assert_eq!(scalar.engine_kind(), EngineKind::Scalar);
    assert_eq!(
        scalar.build(scalar.base_seed()).expect("builds").engine(),
        EngineKind::Scalar
    );
}

#[test]
fn every_scenario_runs_identically_on_scalar_and_soa() {
    for scenario in registry::all_scenarios() {
        let oracle = scenario
            .clone()
            .engine(EngineKind::Scalar)
            .run_trials_with_workers(REPRO_TRIALS, 2)
            .unwrap_or_else(|e| panic!("{}: scalar trials failed: {e}", scenario.name()));
        assert_eq!(oracle.len(), REPRO_TRIALS);
        for &threads in &round_thread_counts() {
            let soa = scenario
                .clone()
                .engine(EngineKind::Soa)
                .round_threads(threads)
                .run_trials_with_workers(REPRO_TRIALS, 2)
                .unwrap_or_else(|e| {
                    panic!(
                        "{}: SoA trials ({threads} round threads) failed: {e}",
                        scenario.name()
                    )
                });
            assert_eq!(
                oracle,
                soa,
                "{}: SoA engine at {threads} round threads diverged from the scalar oracle",
                scenario.name()
            );
        }
    }
}

#[test]
fn every_scenario_census_matches_round_by_round() {
    for scenario in registry::all_scenarios() {
        let seed = scenario.base_seed();
        let mut scalar = scenario
            .clone()
            .engine(EngineKind::Scalar)
            .build(seed)
            .unwrap_or_else(|e| panic!("{}: scalar build failed: {e}", scenario.name()));
        let mut soa = scenario
            .clone()
            .engine(EngineKind::Soa)
            .round_threads(2)
            .build(seed)
            .unwrap_or_else(|e| panic!("{}: SoA build failed: {e}", scenario.name()));
        let rounds = LOCKSTEP_ROUNDS.min(scenario.round_budget());
        for round in 1..=rounds {
            let scalar_report = scalar.step().unwrap_or_else(|e| {
                panic!("{}: scalar round {round} failed: {e}", scenario.name())
            });
            let soa_report = soa
                .step()
                .unwrap_or_else(|e| panic!("{}: SoA round {round} failed: {e}", scenario.name()));
            assert_eq!(
                scalar_report,
                soa_report,
                "{}: step reports diverged at round {round}",
                scenario.name()
            );
            assert_eq!(
                RoundSnapshot::capture(&scalar),
                RoundSnapshot::capture(&soa),
                "{}: census tallies diverged at round {round}",
                scenario.name()
            );
            assert_eq!(
                scalar.env().counts(),
                soa.env().counts(),
                "{}: nest populations diverged at round {round}",
                scenario.name()
            );
        }
        assert_eq!(
            scalar.env().locations(),
            soa.env().locations(),
            "{}: ant locations diverged after the lockstep walk",
            scenario.name()
        );
        assert_eq!(
            (scalar.replaced_actions(), scalar.illegal_actions()),
            (soa.replaced_actions(), soa.illegal_actions()),
            "{}: sandbox counters diverged after the lockstep walk",
            scenario.name()
        );
    }
}

/// Regression: the quorum NaN sanitization must survive the narrowed
/// outcome types (u32 counts, f32-backed qualities). The detector's
/// threshold arithmetic runs in f64 over tallies that now originate
/// from narrowed fields; a hand-built NaN-fraction rule must still snap
/// to the simple majority — on **both** engines, with identical
/// detections.
#[test]
fn quorum_nan_sanitization_survives_narrowed_types() {
    let scenario = registry::lookup("idle-quarter-128").expect("idle-quarter-128 is registered");
    let seed = scenario.base_seed();
    let run = |engine: EngineKind, rule: ConvergenceRule| {
        scenario
            .clone()
            .engine(engine)
            .rule(rule)
            .run(seed)
            .expect("runs")
    };
    let nan_rule = ConvergenceRule::Quorum {
        fraction: f64::NAN,
        stable_rounds: 1,
    };
    let majority_rule = ConvergenceRule::quorum(0.5, 1);
    let scalar_nan = run(EngineKind::Scalar, nan_rule);
    let soa_nan = run(EngineKind::Soa, nan_rule);
    let majority = run(EngineKind::Soa, majority_rule);
    assert_eq!(scalar_nan, soa_nan, "engines disagree under the NaN rule");
    assert_eq!(
        soa_nan, majority,
        "NaN fraction must sanitize to the simple majority"
    );
    assert!(
        soa_nan.solved.is_some(),
        "the idle colony reaches a majority"
    );
}

/// The chunk split must not leak into results even when the split is
/// degenerate: every bound vector here produces the same execution as
/// the serial oracle (the property suite drives randomized splits; these
/// are the canonical adversarial shapes, pinned).
#[test]
fn adversarial_chunk_bounds_match_the_scalar_oracle() {
    let scenario = registry::lookup("baseline-128").expect("baseline-128 is in the catalog");
    let seed = scenario.base_seed();
    let n = scenario.n();
    let rule = scenario.convergence_rule();
    let budget = scenario.round_budget();
    let mut oracle = scenario
        .clone()
        .engine(EngineKind::Scalar)
        .build(seed)
        .expect("oracle builds");
    let expected = oracle
        .run_to_convergence(rule, budget)
        .expect("oracle runs");

    // Width-1 head chunks, an n-1 cut, and a prime stride.
    let mut bounds_sets: Vec<Vec<usize>> = vec![vec![0, 1, 2, 3, n], vec![0, n - 1, n]];
    let mut prime = vec![0];
    let mut at = 0;
    while at + 7 < n && prime.len() < 15 {
        at += 7;
        prime.push(at);
    }
    prime.push(n);
    bounds_sets.push(prime);
    for bounds in bounds_sets {
        let mut sim = scenario
            .build(seed)
            .expect("SoA builds")
            .with_chunk_bounds(bounds.clone());
        assert!(
            sim.uses_agent_columns(),
            "baseline-128 is a uniform simple colony: the \
             per-algorithm loop must engage"
        );
        let outcome = sim.run_to_convergence(rule, budget).expect("SoA runs");
        assert_eq!(
            expected, outcome,
            "chunk bounds {bounds:?} diverged from the scalar oracle"
        );
    }
}

/// The per-algorithm loop engages exactly for uniform colonies (every
/// ant one simple, adaptive, optimal, quality or spreader variant);
/// idler, heterogeneous and Byzantine mixes dispatch per ant on the
/// `AnyAgent` path.
#[test]
fn agent_columns_engage_for_homogeneous_catalog_entries() {
    let expectations = [
        ("baseline-128", true),
        ("idle-quarter-128", false),
        ("optimal-1024", true),
        ("mega-colony-4096", true),
        ("quality-tie-128", true),
        ("spreader-rumor-512", true),
        ("hetero-simple-adaptive-256", false),
        ("byzantine-handful-96", false),
    ];
    for (name, batched) in expectations {
        let scenario = registry::lookup(name).unwrap_or_else(|| panic!("{name} is registered"));
        let sim = scenario
            .build(scenario.base_seed())
            .unwrap_or_else(|e| panic!("{name} builds: {e}"));
        assert_eq!(
            sim.uses_agent_columns(),
            batched,
            "{name}: unexpected agent-column engagement"
        );
    }
}

/// A colony containing boxed `Custom` agents defeats the homogeneity
/// detection by construction (the concrete type is erased), so the
/// engine must fall back to the `AnyAgent` path — and stay bit-identical
/// to the scalar oracle there, at every covered thread count.
#[test]
fn custom_boxed_agents_fall_back_bit_identically() {
    let n = 96;
    let seed = 4242;
    let build = |engine: EngineKind, threads: usize| {
        let mut agents = colony::simple(n, seed);
        // Behaviourally ordinary simple ants, but boxed: same rounds,
        // different static type.
        agents.replace(17, AnyAgent::custom(SimpleAnt::new(n, 9_000_017)));
        agents.replace(63, AnyAgent::custom(SimpleAnt::new(n, 9_000_063)));
        let config = ColonyConfig::new(n, QualitySpec::good_prefix(4, 2)).seed(seed);
        let env = Environment::new(&config).expect("env builds");
        Simulation::new(env, agents)
            .expect("sim builds")
            .with_engine(engine)
            .with_round_threads(threads)
    };
    let rule = ConvergenceRule::stable_commitment(2);
    let mut oracle = build(EngineKind::Scalar, 1);
    assert!(!oracle.uses_agent_columns());
    let expected = oracle
        .run_to_convergence(rule, 10_000)
        .expect("oracle runs");
    for threads in [1usize, 2, 8] {
        let mut soa = build(EngineKind::Soa, threads);
        assert!(
            !soa.uses_agent_columns(),
            "boxed custom agents must force the AnyAgent fallback"
        );
        let outcome = soa.run_to_convergence(rule, 10_000).expect("SoA runs");
        assert_eq!(
            expected, outcome,
            "mixed colony with custom agents diverged at {threads} round threads"
        );
        assert_eq!(
            oracle.role_census(),
            soa.role_census(),
            "census diverged at {threads} round threads"
        );
    }
}
