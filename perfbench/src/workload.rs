//! The three workloads, one trial ("op") of each, and the closed loop
//! that times them.
//!
//! Every op is a pure function of `(workload seed, trial index)`: trial
//! `t` runs scenario `t % scenarios.len()` on seed
//! `derive_seed(workload_seed, Auxiliary, t)`, so one seed always yields
//! the same inputs and the same simulated outcomes.

use std::hint::black_box;
use std::sync::OnceLock;

use hh_model::recruitment::{pair_ants_into, Pairing};
use hh_model::seeding::{derive_seed, StreamKind};
use hh_sim::registry::{self, Algorithm, ColonyMix, FaultSchedule, QualityProfile, Scenario};
use hh_sim::{
    run_trials_with_workers, ConvergenceRule, Detector, EngineKind, RunOutcome, SimError,
    Simulation,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::stats::{median, peak_rss_mb, timed, Budget, Calibration, REFERENCE_NS};

/// The catalog entries `catalog-sweep` interleaves: every scenario with
/// `n <= 512` (all but `optimal-1024` and `mega-colony-4096`). Listed by
/// name so that a catalog change shows up as a refused run, not as a
/// silently different workload.
pub const CATALOG_SWEEP: [&str; 18] = [
    "baseline-16",
    "baseline-128",
    "all-good-race-256",
    "single-good-needle-128",
    "adaptive-many-nests-512",
    "quality-tie-128",
    "spreader-rumor-512",
    "crash-quarter-128",
    "crash-at-home-64",
    "delay-light-128",
    "mixed-faults-128",
    "idle-quarter-128",
    "idle-third-256",
    "idle-half-256",
    "idle-seventy-256",
    "byzantine-handful-96",
    "hetero-simple-adaptive-256",
    "all-crash-collapse-32",
];

/// The catalog entry that must never converge.
pub const MUST_STAY_UNSOLVED: &str = "all-crash-collapse-32";

/// Rounds per `simple-16k-t2` op: the engine bench's reset window. At
/// n = 16384 the colony commits to one nest near round 75, so the later
/// rounds run after commitment but before the all-final state, which
/// simple ants never report.
pub const SIMPLE_OP_ROUNDS: u64 = 200;

/// Repetitions of `Detector::check` per traced round; one check takes a
/// few nanoseconds, far below the clock's resolution.
const DETECTOR_REPS: u32 = 16;

/// Trial indices at and above this offset are warm-up trials, disjoint
/// from the measured sequence.
pub const WARMUP_BASE: usize = 1 << 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CatalogSweep,
    Optimal4096,
    Simple16kT2,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CatalogSweep,
        Workload::Optimal4096,
        Workload::Simple16kT2,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::CatalogSweep => "catalog-sweep",
            Workload::Optimal4096 => "optimal-4096",
            Workload::Simple16kT2 => "simple-16k-t2",
        }
    }

    /// The scenarios the workload cycles through.
    pub fn scenarios(self) -> Result<Vec<Scenario>, String> {
        match self {
            Workload::CatalogSweep => {
                let catalog = registry::all_scenarios();
                CATALOG_SWEEP
                    .iter()
                    .map(|&name| {
                        catalog
                            .iter()
                            .find(|s| s.name() == name)
                            .cloned()
                            .ok_or_else(|| format!("catalog scenario {name} is not registered"))
                    })
                    .collect()
            }
            Workload::Optimal4096 => registry::all_scenarios()
                .into_iter()
                .find(|s| s.name() == "mega-colony-4096")
                .map(|s| vec![s])
                .ok_or_else(|| "catalog scenario mega-colony-4096 is not registered".to_string()),
            Workload::Simple16kT2 => Ok(vec![Self::simple_16k(2)]),
        }
    }

    /// The uniform simple colony of `simple-16k-t2` at `threads`.
    pub fn simple_16k(threads: usize) -> Scenario {
        Scenario::custom(
            "simple-16k",
            16_384,
            QualityProfile::AllGood { k: 4 },
            FaultSchedule::None,
            ColonyMix::Uniform(Algorithm::Simple),
        )
        .round_threads(threads)
    }

    /// Trial fan-out width: the sweep runs two runner workers, the
    /// single-colony workloads run back to back on one thread.
    pub fn workers(self) -> usize {
        match self {
            Workload::CatalogSweep => 2,
            _ => 1,
        }
    }

    /// Threads one op keeps busy: runner workers or round threads.
    pub fn threads(self, scenarios: &[Scenario]) -> usize {
        let round = scenarios.iter().map(Scenario::intra_round_threads).max();
        self.workers().max(round.unwrap_or(1))
    }

    /// Trials per timed block; throughput is the median over blocks.
    pub fn block(self) -> usize {
        match self {
            Workload::CatalogSweep => 18 * 16,
            Workload::Optimal4096 => 16,
            Workload::Simple16kT2 => 4,
        }
    }

    /// The rule and round budget of one op on `scenario`.
    pub fn op_rule(self, scenario: &Scenario) -> (ConvergenceRule, u64) {
        match self {
            // `all_final` never fires on simple ants: every op runs the
            // whole window.
            Workload::Simple16kT2 => (ConvergenceRule::all_final(), SIMPLE_OP_ROUNDS),
            _ => (scenario.convergence_rule(), scenario.round_budget()),
        }
    }
}

/// The seed of trial `trial` of a run with workload seed `seed`.
pub fn trial_seed(seed: u64, trial: usize) -> u64 {
    derive_seed(seed, StreamKind::Auxiliary, trial as u64)
}

/// What a traced op measured beyond its outcome.
#[derive(Debug, Clone, Default)]
pub struct TraceRecord {
    /// `ScenarioSpec::build_environment`.
    pub env_ns: f64,
    /// `Scenario::colony_for`.
    pub colony_ns: f64,
    /// `Scenario::build`.
    pub build_ns: f64,
    /// The whole `run_to_convergence` call.
    pub run_ns: f64,
    /// Algorithm 1 replayed on every twin round's recruit calls.
    pub replay_ns: f64,
    pub calls: u64,
    pub active: u64,
    pub matched: u64,
    /// Nanoseconds per `Detector::check`, one entry per twin round.
    pub detector_ns: Vec<f64>,
    /// Set when the twin's outcome differs from the untraced run's.
    pub twin_mismatch: Option<String>,
}

/// One op's result.
#[derive(Debug, Clone)]
pub struct TrialRecord {
    pub scenario: usize,
    pub seed: u64,
    pub outcome: RunOutcome,
    /// Wall time of the op (build + run; with tracing, everything the
    /// traced op did).
    pub ns: f64,
    pub trace: Option<TraceRecord>,
}

impl TrialRecord {
    /// Rescales every time in the record by the machine-speed `factor`.
    fn calibrate(&mut self, factor: f64) {
        self.ns *= factor;
        if let Some(t) = &mut self.trace {
            for ns in [
                &mut t.env_ns,
                &mut t.colony_ns,
                &mut t.build_ns,
                &mut t.run_ns,
                &mut t.replay_ns,
            ] {
                *ns *= factor;
            }
            for ns in &mut t.detector_ns {
                *ns *= factor;
            }
        }
    }
}

/// A failed op or check, with what it takes to reproduce it.
#[derive(Debug, Clone)]
pub struct Failure {
    pub workload: &'static str,
    pub scenario: String,
    pub seed: u64,
    pub engine: EngineKind,
    pub threads: usize,
    pub message: String,
}

impl Failure {
    pub fn new(workload: Workload, scenario: &Scenario, seed: u64, message: String) -> Self {
        Self {
            workload: workload.name(),
            scenario: scenario.name().to_string(),
            seed,
            engine: scenario.engine_kind(),
            threads: scenario.intra_round_threads(),
            message,
        }
    }

    /// A failure outside any one scenario.
    pub fn other(workload: Workload, what: &str, seed: u64, message: String) -> Self {
        Self {
            workload: workload.name(),
            scenario: format!("({what})"),
            seed,
            engine: EngineKind::default(),
            threads: 1,
            message,
        }
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "workload={} scenario={} seed={} engine={:?} threads={}: {}",
            self.workload, self.scenario, self.seed, self.engine, self.threads, self.message
        )
    }
}

/// Runs one op and hands back the finished simulation with its record.
/// With `trace`, also times the build layers separately and steps a
/// twin simulation of the same seed round by round to measure the
/// pairing and the detector; the twin must detect the same round and
/// nest as the untraced run, which the caller checks through
/// [`TraceRecord::twin_mismatch`].
pub fn run_op(
    workload: Workload,
    scenario: &Scenario,
    index: usize,
    seed: u64,
    trace: bool,
) -> Result<(TrialRecord, Simulation), SimError> {
    let (rule, budget) = workload.op_rule(scenario);
    let record = |outcome, ns, trace| TrialRecord {
        scenario: index,
        seed,
        outcome,
        ns,
        trace,
    };
    if !trace {
        let (run, ns) = timed(|| -> Result<_, SimError> {
            let mut sim = scenario.build(seed)?;
            let outcome = sim.run_to_convergence(rule, budget)?;
            Ok((outcome, sim))
        });
        let (outcome, sim) = run?;
        return Ok((record(outcome, ns, None), sim));
    }

    let (run, ns) = timed(|| -> Result<_, SimError> {
        let mut rec = TraceRecord::default();
        let spec = scenario.spec_for(seed);
        let (env, env_ns) = timed(|| spec.build_environment());
        black_box(env?);
        rec.env_ns = env_ns;
        rec.colony_ns = timed(|| black_box(scenario.colony_for(seed))).1;
        let (sim, build_ns) = timed(|| scenario.build(seed));
        let mut sim = sim?;
        rec.build_ns = build_ns;
        let (outcome, run_ns) = timed(|| sim.run_to_convergence(rule, budget));
        let outcome = outcome?;
        rec.run_ns = run_ns;
        drop(sim);

        // The twin: same scenario and seed, stepped with `step_in_place`
        // so each round's recruit calls can be read back. Every engine
        // path is bit-identical, so it runs the same process.
        let mut twin = scenario.build(seed)?;
        let mut detector = Detector::new(rule);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pairing = Pairing::default();
        let mut perm = Vec::new();
        let mut solved = None;
        let mut rounds = 0;
        while rounds < budget {
            let report = twin.step_in_place()?;
            let calls = &report.recruitment.calls;
            rec.calls += calls.len() as u64;
            rec.active += calls.iter().filter(|c| c.active).count() as u64;
            rec.matched += report.recruitment.pairs.len() as u64;
            rec.replay_ns += timed(|| {
                pair_ants_into(calls, &mut rng, &mut pairing, &mut perm);
                black_box(pairing.matched_count())
            })
            .1;
            rounds += 1;
            let mut probe = detector.clone();
            let probe_ns = timed(|| {
                for _ in 0..DETECTOR_REPS {
                    black_box(probe.check(black_box(&twin)));
                }
            })
            .1;
            rec.detector_ns.push(probe_ns / f64::from(DETECTOR_REPS));
            if let Some(found) = detector.check(&twin) {
                solved = Some(found);
                break;
            }
        }
        let twin_outcome = RunOutcome {
            solved,
            rounds_run: rounds,
            replaced_actions: twin.replaced_actions(),
            illegal_actions: twin.illegal_actions(),
        };
        if twin_outcome != outcome {
            rec.twin_mismatch = Some(format!(
                "trace rejected: twin outcome {twin_outcome:?} differs from the untraced {outcome:?}"
            ));
        }
        Ok((outcome, rec, twin))
    });
    let (outcome, rec, twin) = run?;
    Ok((record(outcome, ns, Some(rec)), twin))
}

/// One timed block of trials `first..first + count`.
pub struct Block {
    pub records: Vec<TrialRecord>,
    pub wall_ns: f64,
}

/// Runs trials `first..first + count`: through one
/// `run_trials_with_workers` call when the workload fans out, back to
/// back on this thread otherwise.
///
/// The runner takes one rule and budget per call, but the sweep's
/// scenarios each carry their own; so each trial runs to its own rule
/// inside the runner's factory, which hands the finished simulation
/// back for a zero-round no-op run. The runner still owns the fan-out:
/// its threads, its work cursor and its result slots.
pub fn run_block(
    workload: Workload,
    scenarios: &[Scenario],
    seed: u64,
    first: usize,
    count: usize,
    trace: bool,
) -> Result<Block, Failure> {
    let op = |trial: usize| {
        let index = trial % scenarios.len();
        run_op(
            workload,
            &scenarios[index],
            index,
            trial_seed(seed, trial),
            trace,
        )
    };
    let fail = |trial: usize, err: SimError| {
        let scenario = &scenarios[trial % scenarios.len()];
        Failure::new(workload, scenario, trial_seed(seed, trial), err.to_string())
    };
    if workload.workers() == 1 {
        let (records, wall_ns) = timed(|| {
            (first..first + count)
                .map(|trial| {
                    op(trial)
                        .map(|(record, _)| record)
                        .map_err(|err| fail(trial, err))
                })
                .collect::<Result<Vec<_>, _>>()
        });
        return Ok(Block {
            records: records?,
            wall_ns,
        });
    }

    let slots: Vec<OnceLock<TrialRecord>> = (0..count).map(|_| OnceLock::new()).collect();
    let (fanned, wall_ns) = timed(|| {
        run_trials_with_workers(
            count,
            0,
            ConvergenceRule::commitment(),
            workload.workers(),
            |i| {
                op(first + i).map(|(record, sim)| {
                    let _ = slots[i].set(record);
                    sim
                })
            },
        )
    });
    let filled = slots.iter().take_while(|slot| slot.get().is_some()).count();
    fanned.map_err(|err| fail(first + filled, err))?;
    let records = slots.into_iter().filter_map(OnceLock::into_inner).collect();
    Ok(Block { records, wall_ns })
}

/// One timed block of a [`LoopRun`].
pub struct BlockStat {
    pub trials: usize,
    pub ant_rounds: f64,
    /// Measured wall time.
    pub wall_ns: f64,
    /// The machine-speed factor its times are rescaled by (see
    /// [`Calibration`]).
    pub factor: f64,
}

impl BlockStat {
    /// Calibrated wall time.
    pub fn ns(&self) -> f64 {
        self.wall_ns * self.factor
    }
}

/// The timed part of a run: blocks of trials until the budget is spent
/// and at least `min_trials` ran (the exact counts need a fixed prefix
/// of the trial sequence, whatever the machine's speed). Every time in
/// it is calibrated, except the blocks' `wall_ns`.
pub struct LoopRun {
    pub records: Vec<TrialRecord>,
    pub blocks: Vec<BlockStat>,
    /// One timed set-up per block, when asked for.
    pub setup_ns: Vec<f64>,
    /// Peak resident set after the warm-up block, before the run's own
    /// bookkeeping grows with its length.
    pub peak_rss_mb: f64,
}

/// Ops every run makes at least, so the latency percentiles have ten
/// samples beyond p90.
pub const LATENCY_SAMPLES: usize = 100;

impl LoopRun {
    /// `(trials/s, ant-rounds/s)`: medians over blocks, calibrated.
    pub fn throughput(&self) -> (Option<f64>, Option<f64>) {
        let per_s = |f: fn(&BlockStat) -> f64| {
            median(
                &self
                    .blocks
                    .iter()
                    .map(|b| f(b) / (b.ns() * 1e-9))
                    .collect::<Vec<_>>(),
            )
        };
        (per_s(|b| b.trials as f64), per_s(|b| b.ant_rounds))
    }

    /// The same throughputs from the measured wall times, uncalibrated.
    pub fn raw_throughput(&self) -> Option<f64> {
        median(
            &self
                .blocks
                .iter()
                .map(|b| b.trials as f64 / (b.wall_ns * 1e-9))
                .collect::<Vec<_>>(),
        )
    }

    /// Calibrated op latencies in ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.ns * 1e-6).collect()
    }
}

/// Resolves the workload's scenarios and builds one simulation of each:
/// the set-up every run of the workload pays. Returns its wall time.
pub fn set_up(workload: Workload, seed: u64, rep: usize) -> Result<f64, Failure> {
    let (built, ns) = timed(|| -> Result<_, Failure> {
        let scenarios = workload
            .scenarios()
            .map_err(|msg| Failure::other(workload, "catalog", seed, msg))?;
        let count = scenarios.len();
        scenarios
            .iter()
            .enumerate()
            .map(|(i, scenario)| {
                let s = trial_seed(seed, 2 * WARMUP_BASE + rep * count + i);
                scenario
                    .build(s)
                    .map_err(|err| Failure::new(workload, scenario, s, err.to_string()))
            })
            .collect::<Result<Vec<_>, _>>()
    });
    black_box(built?);
    Ok(ns)
}

/// Measurements of the machine's speed on each side of a block that
/// its factor takes the median of: the drift lasts minutes, a single
/// measurement is noisy.
const SPEED_WINDOW: usize = 4;

/// Warms up with one block of trials outside the measured sequence, then
/// runs the closed loop for `seconds`; with `setup`, times one set-up
/// after each block. The machine's speed is measured between blocks;
/// afterwards each block's times are rescaled by the median of the
/// measurements around it.
pub fn closed_loop(
    workload: Workload,
    scenarios: &[Scenario],
    seed: u64,
    seconds: f64,
    min_trials: usize,
    trace: bool,
    setup: bool,
) -> Result<LoopRun, Failure> {
    let mut calibration = Calibration::new(workload.threads(scenarios));
    run_block(
        workload,
        scenarios,
        seed,
        WARMUP_BASE,
        workload.block(),
        trace,
    )?;
    let mut run = LoopRun {
        records: Vec::new(),
        blocks: Vec::new(),
        setup_ns: Vec::new(),
        peak_rss_mb: peak_rss_mb().map_err(|msg| Failure::other(workload, "process", seed, msg))?,
    };
    let mut speeds = vec![calibration.measure()];
    let budget = Budget::new(seconds);
    while !budget.spent() || run.records.len() < min_trials {
        let first = run.records.len();
        let block = run_block(workload, scenarios, seed, first, workload.block(), trace)?;
        if setup {
            run.setup_ns.push(set_up(workload, seed, run.blocks.len())?);
        }
        speeds.push(calibration.measure());
        let ant_rounds: f64 = block
            .records
            .iter()
            .map(|r| (scenarios[r.scenario].n() as u64 * r.outcome.rounds_run) as f64)
            .sum();
        run.blocks.push(BlockStat {
            trials: block.records.len(),
            ant_rounds,
            wall_ns: block.wall_ns,
            factor: 1.0,
        });
        run.records.extend(block.records);
    }

    // Block `i` ran between measurements `i` and `i + 1`.
    let mut first = 0;
    for (i, block) in run.blocks.iter_mut().enumerate() {
        let window =
            &speeds[i.saturating_sub(SPEED_WINDOW)..(i + 2 + SPEED_WINDOW).min(speeds.len())];
        block.factor =
            REFERENCE_NS / median(window).expect("a block has measurements on both sides");
        for record in &mut run.records[first..first + block.trials] {
            record.calibrate(block.factor);
        }
        first += block.trials;
        if let Some(ns) = run.setup_ns.get_mut(i) {
            *ns *= block.factor;
        }
    }
    Ok(run)
}
