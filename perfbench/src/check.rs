//! The correctness checks every run enforces. A failed check stops the
//! run with the workload, scenario, seed, engine and thread count that
//! reproduce it.

use hh_sim::registry::Scenario;
use hh_sim::{ConvergenceRule, EngineKind, RunOutcome};

use crate::workload::{Failure, TrialRecord, Workload, MUST_STAY_UNSOLVED, SIMPLE_OP_ROUNDS};

/// Checks each op's outcome against what the model guarantees: a solved
/// trial chose a good nest, the all-crash colony never converges, a
/// `simple-16k-t2` op runs its whole window unsolved, and a traced op's
/// twin reproduced the untraced run.
pub fn outcomes(
    workload: Workload,
    scenarios: &[Scenario],
    records: &[TrialRecord],
) -> Result<(), Failure> {
    for record in records {
        let scenario = &scenarios[record.scenario];
        let fail = |message: String| Err(Failure::new(workload, scenario, record.seed, message));
        let outcome = &record.outcome;
        if let Some(solved) = outcome.solved.filter(|s| !s.good) {
            return fail(format!("solved on a bad nest: {solved:?}"));
        }
        if scenario.name() == MUST_STAY_UNSOLVED && outcome.solved.is_some() {
            return fail(format!("the all-crash colony converged: {outcome:?}"));
        }
        if workload == Workload::Simple16kT2
            && (outcome.solved.is_some() || outcome.rounds_run != SIMPLE_OP_ROUNDS)
        {
            return fail(format!(
                "a {SIMPLE_OP_ROUNDS}-round op under the never-firing rule ended early: {outcome:?}"
            ));
        }
        if let Some(mismatch) = record.trace.as_ref().and_then(|t| t.twin_mismatch.clone()) {
            return fail(mismatch);
        }
    }
    Ok(())
}

/// Re-runs `seed` on `scenario` to `rule` and `budget` under the scalar
/// oracle, serially, and requires the identical outcome.
pub fn scalar_matches(
    workload: Workload,
    scenario: &Scenario,
    (rule, budget): (ConvergenceRule, u64),
    seed: u64,
    expected: &RunOutcome,
) -> Result<(), Failure> {
    let oracle = scenario.clone().engine(EngineKind::Scalar).round_threads(1);
    let outcome = oracle
        .build(seed)
        .and_then(|mut sim| sim.run_to_convergence(rule, budget))
        .map_err(|err| Failure::new(workload, &oracle, seed, err.to_string()))?;
    if &outcome != expected {
        return Err(Failure::new(
            workload,
            scenario,
            seed,
            format!("{expected:?} differs from the scalar oracle's {outcome:?}"),
        ));
    }
    Ok(())
}

/// The scalar re-run over the first ops of a run (for the sweep, two
/// trials of each scenario).
pub fn scalar_sample(
    workload: Workload,
    scenarios: &[Scenario],
    records: &[TrialRecord],
) -> Result<(), Failure> {
    let sample = match workload {
        Workload::CatalogSweep => 2 * scenarios.len(),
        Workload::Optimal4096 => 8,
        Workload::Simple16kT2 => 1,
    };
    for record in records.iter().take(sample) {
        let scenario = &scenarios[record.scenario];
        let rule = workload.op_rule(scenario);
        scalar_matches(workload, scenario, rule, record.seed, &record.outcome)?;
    }
    Ok(())
}
