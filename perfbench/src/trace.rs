//! The traced run: per-layer metrics, each timed from outside by calling
//! the layer's public function.
//!
//! One run does, in order:
//! 1. an untraced phase (a third of `--seconds`), the baseline for the
//!    tracing overhead and for the runner's efficiency;
//! 2. a traced phase (another third), in which every op also times its
//!    build layers and steps a twin that replays Algorithm 1 and times
//!    the detector;
//! 3. work-bounded extras: a serial re-run of the first blocks (runner),
//!    the workload's ops at one and at two round threads (pool), and a
//!    keyed-coin sweep (seeding).

use std::hint::black_box;

use hh_model::seeding::{DrawKey, StreamKind};
use hh_sim::registry::Scenario;

use crate::stats::{median, quantile, timed, Budget, Calibration, REFERENCE_NS};
use crate::workload::{
    closed_loop, run_block, run_op, trial_seed, BlockStat, Failure, LoopRun, TraceRecord,
    TrialRecord, Workload,
};
use crate::{check, Metric, Report};

/// Traced trials whose counts (rounds, actions, recruit calls) are
/// reported exactly: a fixed prefix, so they repeat for one seed.
fn trace_window(workload: Workload) -> usize {
    match workload {
        Workload::CatalogSweep => 4 * 18,
        Workload::Optimal4096 => 16,
        Workload::Simple16kT2 => 2,
    }
}

/// Ops run at one and at two round threads for `pool.speedup_t2`.
fn pool_pairs(workload: Workload) -> usize {
    match workload {
        Workload::CatalogSweep => 2 * 18,
        Workload::Optimal4096 => 12,
        Workload::Simple16kT2 => 6,
    }
}

/// Seconds of keyed-coin sweeps behind `keyed_hash.ns_per_coin`.
const KEYED_SECONDS: f64 = 0.3;

/// `pool.speedup_t2`: the workload's first ops at round_threads 1 and 2,
/// alternating which runs first, as total time at 1 over total time at
/// 2. The outcomes must be identical (the determinism contract).
fn pool_speedup(workload: Workload, scenarios: &[Scenario], seed: u64) -> Result<f64, Failure> {
    let at = |threads: usize| -> Vec<Scenario> {
        scenarios
            .iter()
            .map(|s| s.clone().round_threads(threads))
            .collect()
    };
    let (one, two) = (at(1), at(2));
    let (mut ns1, mut ns2) = (0.0, 0.0);
    for trial in 0..pool_pairs(workload) {
        let index = trial % scenarios.len();
        let s = trial_seed(seed, trial);
        let run = |set: &[Scenario]| {
            run_op(workload, &set[index], index, s, false)
                .map(|(record, _)| record)
                .map_err(|err| Failure::new(workload, &set[index], s, err.to_string()))
        };
        let (a, b) = if trial % 2 == 0 {
            let a = run(&one)?;
            (a, run(&two)?)
        } else {
            let b = run(&two)?;
            (run(&one)?, b)
        };
        if a.outcome != b.outcome {
            return Err(Failure::new(
                workload,
                &two[index],
                s,
                format!(
                    "{:?} at 2 threads differs from {:?} at 1",
                    b.outcome, a.outcome
                ),
            ));
        }
        ns1 += a.ns;
        ns2 += b.ns;
    }
    Ok(ns1 / ns2)
}

/// Blocks run both fanned out and serially for `runner.parallel_eff`.
const RUNNER_BLOCKS: usize = 4;

/// `runner.parallel_eff` and the serial per-trial times in ms
/// (calibrated). For the sweep, the first blocks run through the runner
/// and serially on this thread, alternating which goes first; the serial
/// re-run must match.
/// The serial workloads bypass the runner: their efficiency is the
/// untraced loop's own, per-op time over wall time.
fn runner_efficiency(
    workload: Workload,
    scenarios: &[Scenario],
    seed: u64,
    base: &LoopRun,
) -> Result<(f64, Vec<f64>), Failure> {
    if workload.workers() == 1 {
        let ms: Vec<f64> = base.records.iter().map(|r| r.ns * 1e-6).collect();
        let wall: f64 = base.blocks.iter().map(BlockStat::ns).sum();
        return Ok((ms.iter().sum::<f64>() * 1e6 / wall, ms));
    }
    let mut calibration = Calibration::new(1);
    let before = calibration.measure();
    let (mut wall, mut ms) = (0.0, Vec::new());
    for b in 0..RUNNER_BLOCKS {
        let first = b * workload.block();
        let serial = || -> Result<Vec<TrialRecord>, Failure> {
            (first..first + workload.block())
                .map(|trial| {
                    let index = trial % scenarios.len();
                    let s = trial_seed(seed, trial);
                    run_op(workload, &scenarios[index], index, s, false)
                        .map(|(record, _)| record)
                        .map_err(|err| {
                            Failure::new(workload, &scenarios[index], s, err.to_string())
                        })
                })
                .collect()
        };
        let fanned = || run_block(workload, scenarios, seed, first, workload.block(), false);
        let (one, many) = if b % 2 == 0 {
            let one = serial()?;
            (one, fanned()?)
        } else {
            let many = fanned()?;
            (serial()?, many)
        };
        for (a, f) in one.iter().zip(&many.records) {
            if a.outcome != f.outcome {
                return Err(Failure::new(
                    workload,
                    &scenarios[a.scenario],
                    a.seed,
                    format!(
                        "serial {:?} differs from fanned-out {:?}",
                        a.outcome, f.outcome
                    ),
                ));
            }
        }
        wall += many.wall_ns;
        ms.extend(one.iter().map(|r| r.ns * 1e-6));
    }
    let eff = ms.iter().sum::<f64>() * 1e6 / (workload.workers() as f64 * wall);
    let factor = REFERENCE_NS / (0.5 * (before + calibration.measure()));
    Ok((eff, ms.iter().map(|m| m * factor).collect()))
}

/// `keyed_hash.ns_per_coin`: `DrawKey::coin` over the workload's keys
/// (one per ant of every scenario it runs), median over sweeps,
/// calibrated like the loop's blocks.
fn keyed_ns_per_coin(scenarios: &[Scenario], seed: u64) -> Option<f64> {
    let mut calibration = Calibration::new(1);
    let before = calibration.measure();
    let n: usize = scenarios.iter().map(Scenario::n).sum();
    let keys: Vec<DrawKey> = (0..n as u64)
        .map(|i| DrawKey::derive(seed, StreamKind::Agent, i))
        .collect();
    let budget = Budget::new(KEYED_SECONDS);
    let mut samples = Vec::new();
    let mut round = 0u64;
    while !budget.spent() || samples.len() < 5 {
        round += 1;
        let (heads, ns) = timed(|| {
            keys.iter()
                .filter(|key| black_box(**key).coin(round, 0.5))
                .count()
        });
        black_box(heads);
        samples.push(ns / n as f64);
    }
    let factor = REFERENCE_NS / (0.5 * (before + calibration.measure()));
    median(&samples).map(|ns| ns * factor)
}

/// Totals over the exact window of traced trials.
#[derive(Default)]
struct Counts {
    rounds: u64,
    replaced: u64,
    illegal: u64,
    calls: u64,
    active: u64,
    matched: u64,
}

fn counts(records: &[TrialRecord]) -> Counts {
    let mut c = Counts::default();
    for r in records {
        c.rounds += r.outcome.rounds_run;
        c.replaced += r.outcome.replaced_actions;
        c.illegal += r.outcome.illegal_actions;
        if let Some(t) = &r.trace {
            c.calls += t.calls;
            c.active += t.active;
            c.matched += t.matched;
        }
    }
    c
}

pub fn run(args: &crate::Args, scenarios: &[Scenario]) -> Result<Report, Failure> {
    let workload = args.workload;
    let seed = args.seed;
    let phase = args.seconds / 3.0;

    let base = closed_loop(workload, scenarios, seed, phase, 0, false, false)?;
    check::outcomes(workload, scenarios, &base.records)?;
    check::scalar_sample(workload, scenarios, &base.records)?;
    let window = trace_window(workload);
    let traced = closed_loop(workload, scenarios, seed, phase, window, true, false)?;
    check::outcomes(workload, scenarios, &traced.records)?;

    let traces: Vec<_> = traced
        .records
        .iter()
        .filter_map(|r| r.trace.as_ref())
        .collect();
    let p50_us = |field: fn(&TraceRecord) -> f64| {
        median(&traces.iter().map(|t| field(t) * 1e-3).collect::<Vec<_>>())
    };
    let round_us: Vec<f64> = traced
        .records
        .iter()
        .filter(|r| r.outcome.rounds_run > 0)
        .filter_map(|r| Some(r.trace.as_ref()?.run_ns * 1e-3 / r.outcome.rounds_run as f64))
        .collect();
    let rounds_total: f64 = traced
        .records
        .iter()
        .map(|r| r.outcome.rounds_run as f64)
        .sum();
    let replay_ns: f64 = traces.iter().map(|t| t.replay_ns).sum();
    let run_ns: f64 = traces.iter().map(|t| t.run_ns).sum();
    let detector_ns: Vec<f64> = traces
        .iter()
        .flat_map(|t| t.detector_ns.iter().copied())
        .collect();
    let exact = counts(&traced.records[..window]);
    let per_round = |x: u64| (exact.rounds > 0).then(|| x as f64 / exact.rounds as f64);

    let (parallel_eff, serial_ms) = runner_efficiency(workload, scenarios, seed, &base)?;

    let speedup = pool_speedup(workload, scenarios, seed)?;
    let coin_ns = keyed_ns_per_coin(scenarios, seed);

    let end_to_end = |run: &LoopRun| {
        let (tps, arps) = run.throughput();
        let ms = run.latencies_ms();
        (tps, arps, quantile(&ms, 0.5), quantile(&ms, 0.9))
    };
    let (tps0, arps0, ms50_0, ms90_0) = end_to_end(&base);
    let (tps1, arps1, ms50_1, ms90_1) = end_to_end(&traced);
    let slowdown = tps0.zip(tps1).map(|(a, b)| a / b);

    let metrics = vec![
        Metric::declared("registry.build_us_p50", p50_us(|t| t.build_ns), "us"),
        Metric::declared("model.env_build_us_p50", p50_us(|t| t.env_ns), "us"),
        Metric::declared("core.colony_build_us_p50", p50_us(|t| t.colony_ns), "us"),
        Metric::declared("executor.round_us_p50", median(&round_us), "us"),
        Metric::declared("executor.rounds", Some(exact.rounds as f64), "count"),
        Metric::declared(
            "executor.replaced_actions",
            Some(exact.replaced as f64),
            "count",
        ),
        Metric::declared(
            "executor.illegal_actions",
            Some(exact.illegal as f64),
            "count",
        ),
        Metric::declared(
            "pairing.us_per_round",
            (rounds_total > 0.0).then(|| replay_ns * 1e-3 / rounds_total),
            "us",
        ),
        Metric::declared(
            "pairing.share",
            (run_ns > 0.0).then(|| replay_ns / run_ns),
            "ratio",
        ),
        Metric::declared("pairing.calls_per_round", per_round(exact.calls), "count"),
        Metric::declared("pairing.active_per_round", per_round(exact.active), "count"),
        Metric::declared(
            "pairing.matched_per_round",
            per_round(exact.matched),
            "count",
        ),
        Metric::declared(
            "pairing.match_ratio",
            (exact.active > 0).then(|| exact.matched as f64 / exact.active as f64),
            "ratio",
        ),
        Metric::declared("keyed_hash.ns_per_coin", coin_ns, "ns"),
        Metric::declared("detector.check_ns_p50", median(&detector_ns), "ns"),
        Metric::declared("pool.speedup_t2", Some(speedup), "x"),
        Metric::declared("runner.parallel_eff", Some(parallel_eff), "ratio"),
        Metric::declared("runner.trial_ms_p50", quantile(&serial_ms, 0.5), "ms"),
        Metric::declared("runner.trial_ms_p90", quantile(&serial_ms, 0.9), "ms"),
        Metric::declared("trace.slowdown", slowdown, "x"),
        Metric::extra("untraced.trials_per_s", tps0, "1/s"),
        Metric::extra("traced.trials_per_s", tps1, "1/s"),
        Metric::extra("untraced.ant_rounds_per_s", arps0, "1/s"),
        Metric::extra("traced.ant_rounds_per_s", arps1, "1/s"),
        Metric::extra("untraced.trial_ms_p50", ms50_0, "ms"),
        Metric::extra("traced.trial_ms_p50", ms50_1, "ms"),
        Metric::extra("untraced.trial_ms_p90", ms90_0, "ms"),
        Metric::extra("traced.trial_ms_p90", ms90_1, "ms"),
    ];
    let detail = vec![
        ("config", crate::config_detail(workload, scenarios)?),
        ("untraced_trials", base.records.len().to_string()),
        ("traced_trials", traced.records.len().to_string()),
        ("exact_basis", format!("\"first {window} traced trials\"")),
        (
            "exact",
            format!(
                "{{\"executor.rounds\":{},\"executor.replaced_actions\":{},\
                 \"executor.illegal_actions\":{},\"pairing.calls\":{},\
                 \"pairing.active\":{},\"pairing.matched\":{}}}",
                exact.rounds,
                exact.replaced,
                exact.illegal,
                exact.calls,
                exact.active,
                exact.matched
            ),
        ),
    ];
    Ok(Report {
        attempted: base.records.len() + traced.records.len(),
        metrics,
        detail,
    })
}
