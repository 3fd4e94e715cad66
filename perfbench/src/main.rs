//! `hh-perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <catalog-sweep|optimal-4096|simple-16k-t2> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (see `README.md`). Each metric is printed on its own line with
//! its unit, then a `detail` line with the recorded configuration and
//! exact counts, and last one JSON result line. Any failed correctness
//! check ends the run with a nonzero exit and no result line.

// Wall-clock reads are banned workspace-wide (clippy.toml mirrors the
// hh_lint `wall-clock` rule); timing is this crate's whole job, and it
// sits outside the engine's determinism contract.
#![allow(clippy::disallowed_methods)]

mod check;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use hh_sim::registry::Scenario;
use hh_sim::RunOutcome;

use crate::stats::{median, quantile};
use crate::workload::{closed_loop, trial_seed, Failure, LoopRun, Workload, LATENCY_SAMPLES};

/// Full solves of the `simple-16k-t2` colony behind its
/// `rounds_to_solve_p50` (its ops stop before consensus by design).
const SOLVE_SAMPLE: usize = 31;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: hh-perfbench --workload <catalog-sweep|optimal-4096|simple-16k-t2> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("seconds {s} is outside 1..=600"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The library reads `HH_TABLE_MIN_ROUNDS` and `HH_DRAW_PLANES`, and the
/// tests `HH_ROUND_THREADS`; the measured configuration is the default
/// one, so any `HH_*` variable refuses the run.
fn refuse_hh_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .map(|(key, _)| key.to_string_lossy().into_owned())
        .filter(|key| key.starts_with("HH_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark measures the default configuration",
            set.join(", ")
        ))
    }
}

/// One reported metric; `None` is a recorded "n/a".
pub struct Metric {
    pub name: &'static str,
    pub value: Option<f64>,
    pub unit: &'static str,
    /// Part of the result line (every declared metric of the mode).
    pub declared: bool,
}

impl Metric {
    pub fn declared(name: &'static str, value: Option<f64>, unit: &'static str) -> Self {
        Self {
            name,
            value,
            unit,
            declared: true,
        }
    }

    pub fn extra(name: &'static str, value: Option<f64>, unit: &'static str) -> Self {
        Self {
            name,
            value,
            unit,
            declared: false,
        }
    }
}

/// What a run prints.
pub struct Report {
    pub attempted: usize,
    pub metrics: Vec<Metric>,
    /// `(key, raw JSON value)` pairs for the `detail` line.
    pub detail: Vec<(&'static str, String)>,
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(value: Option<f64>) -> String {
    match value {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".into(),
    }
}

fn print_report(args: &Args, report: &Report) -> Result<(), String> {
    for m in &report.metrics {
        match m.value {
            Some(v) => println!("metric {} = {v} {}", m.name, m.unit),
            None => println!("metric {} = n/a {}", m.name, m.unit),
        }
    }
    let mut detail: Vec<String> = vec![
        format!("\"workload\":{}", json_str(args.workload.name())),
        format!("\"seed\":{}", args.seed),
        format!("\"seconds\":{}", args.seconds),
        format!("\"trace\":{}", u8::from(args.trace)),
    ];
    detail.extend(
        report
            .detail
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k))),
    );
    let all: Vec<String> = report
        .metrics
        .iter()
        .map(|m| format!("{}:{}", json_str(m.name), json_num(m.value)))
        .collect();
    detail.push(format!("\"metrics\":{{{}}}", all.join(",")));
    println!("detail {{{}}}", detail.join(","));

    let mut declared = Vec::new();
    for m in report.metrics.iter().filter(|m| m.declared) {
        let value = m
            .value
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {} has no finite value", m.name))?;
        declared.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(m.name),
            json_str(m.unit)
        ));
    }
    println!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":0,\"metrics\":{{{}}}}}",
        report.attempted.max(1),
        declared.join(",")
    );
    Ok(())
}

/// FNV-1a over every source file of the engine crates and vendored
/// shims, in path order: the build's identity where no git metadata
/// exists (the benchmark may run from an exported tree).
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if entry.file_name() != "target" {
                    walk(&path, files);
                }
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
            {
                files.push(path);
            }
        }
    }
    let repo = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
    let mut files = Vec::new();
    for root in ["crates", "vendor", "Cargo.toml", "Cargo.lock"] {
        let path = repo.join(root);
        if path.is_dir() {
            walk(&path, &mut files);
        } else if path.exists() {
            files.push(path);
        }
    }
    files.sort();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for file in &files {
        let bytes = std::fs::read(file).unwrap_or_default();
        let name = file.strip_prefix(repo).unwrap_or(file).to_string_lossy();
        for b in name.bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("src-fnv1a-{hash:016x} ({} files)", files.len())
}

/// The configuration a workload ran under, for the `detail` line.
pub fn config_detail(workload: Workload, scenarios: &[Scenario]) -> Result<String, Failure> {
    let mut columns = 0;
    for scenario in scenarios {
        let sim = scenario
            .build(0)
            .map_err(|err| Failure::new(workload, scenario, 0, err.to_string()))?;
        columns += usize::from(sim.uses_agent_columns());
    }
    let engine = scenarios[0].engine_kind();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Ok(format!(
        "{{\"engine\":{},\"round_threads\":{},\"uses_agent_columns\":\"{columns}/{}\",\
         \"workers\":{},\"nproc\":{nproc},\"commit\":{}}}",
        json_str(&format!("{engine:?}")),
        scenarios[0].intra_round_threads(),
        scenarios.len(),
        workload.workers(),
        json_str(&source_digest())
    ))
}

/// Min, quartiles and max of the blocks' machine-speed factors: how far
/// the machine drifted within the run (1 = as fast as when tuned).
fn factor_quartiles(run: &LoopRun) -> String {
    let factors: Vec<f64> = run.blocks.iter().map(|b| b.factor).collect();
    let qs: Vec<String> = [0.0, 0.25, 0.5, 0.75, 1.0]
        .iter()
        .map(|&q| json_num(quantile(&factors, q)))
        .collect();
    format!("[{}]", qs.join(","))
}

/// `(rounds_to_solve_p50, solve_fail_frac)` over `outcomes`, each paired
/// with whether its scenario expects convergence.
fn solve_stats<'a>(
    outcomes: impl Iterator<Item = (&'a RunOutcome, bool)>,
) -> (Option<f64>, Option<f64>) {
    let mut rounds = Vec::new();
    let (mut total, mut misses) = (0usize, 0usize);
    for (outcome, expects) in outcomes {
        total += 1;
        misses += usize::from(outcome.solved.is_some() != expects);
        if let Some(solved) = outcome.solved {
            rounds.push(solved.round as f64);
        }
    }
    let frac = (total > 0).then(|| misses as f64 / total as f64);
    (median(&rounds), frac)
}

/// Trials whose rounds and expectation misses are counted exactly: a
/// fixed prefix of the trial sequence, so both repeat for one seed.
fn exact_window(workload: Workload) -> usize {
    match workload {
        Workload::CatalogSweep => 4 * workload.block(),
        Workload::Optimal4096 => 96,
        Workload::Simple16kT2 => 0,
    }
}

/// Full solves of the `simple-16k-t2` colony under its natural rule;
/// the first is also checked against the scalar oracle.
fn simple_solve_sample(seed: u64) -> Result<Vec<RunOutcome>, Failure> {
    let workload = Workload::Simple16kT2;
    let scenario = Workload::simple_16k(2);
    let rule = (scenario.convergence_rule(), scenario.round_budget());
    let mut outcomes = Vec::with_capacity(SOLVE_SAMPLE);
    for t in 0..SOLVE_SAMPLE {
        let s = trial_seed(seed, t);
        let outcome = scenario
            .run(s)
            .map_err(|err| Failure::new(workload, &scenario, s, err.to_string()))?;
        if outcome.solved.is_some_and(|solved| !solved.good) {
            return Err(Failure::new(
                workload,
                &scenario,
                s,
                format!("solved on a bad nest: {outcome:?}"),
            ));
        }
        if t == 0 {
            check::scalar_matches(workload, &scenario, rule, s, &outcome)?;
        }
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

fn run_untraced(args: &Args, scenarios: &[Scenario]) -> Result<Report, Failure> {
    let workload = args.workload;
    let min_trials = exact_window(workload).max(LATENCY_SAMPLES);
    let run = closed_loop(
        workload,
        scenarios,
        args.seed,
        args.seconds,
        min_trials,
        false,
        true,
    )?;
    check::outcomes(workload, scenarios, &run.records)?;
    check::scalar_sample(workload, scenarios, &run.records)?;
    let (solve_p50, fail_frac, solve_basis) = if workload == Workload::Simple16kT2 {
        let sample = simple_solve_sample(args.seed)?;
        let (p50, frac) = solve_stats(sample.iter().map(|o| (o, true)));
        (p50, frac, format!("{SOLVE_SAMPLE} full solves"))
    } else {
        let window = exact_window(workload);
        let (p50, frac) = solve_stats(
            run.records[..window]
                .iter()
                .map(|r| (&r.outcome, scenarios[r.scenario].expects_convergence())),
        );
        (p50, frac, format!("first {window} trials"))
    };
    let (tps, arps) = run.throughput();
    let latencies = run.latencies_ms();
    let metrics = vec![
        Metric::declared("trials_per_s", tps, "1/s"),
        Metric::declared("ant_rounds_per_s", arps, "1/s"),
        Metric::declared("trial_ms_p50", quantile(&latencies, 0.5), "ms"),
        Metric::declared("trial_ms_p90", quantile(&latencies, 0.9), "ms"),
        Metric::declared("rounds_to_solve_p50", solve_p50, "rounds"),
        Metric::declared("setup_s", median(&run.setup_ns).map(|ns| ns * 1e-9), "s"),
        Metric::declared("peak_rss_mb", Some(run.peak_rss_mb), "MiB"),
        Metric::extra("solve_fail_frac", fail_frac, "1"),
        Metric::extra("uncalibrated.trials_per_s", run.raw_throughput(), "1/s"),
    ];
    let detail = vec![
        ("config", config_detail(workload, scenarios)?),
        ("trials", run.records.len().to_string()),
        ("blocks", run.blocks.len().to_string()),
        ("speed_factor_quartiles", factor_quartiles(&run)),
        ("exact_basis", json_str(&solve_basis)),
        (
            "exact",
            format!(
                "{{\"rounds_to_solve_p50\":{},\"solve_fail_frac\":{}}}",
                json_num(solve_p50),
                json_num(fail_frac)
            ),
        ),
    ];
    Ok(Report {
        attempted: run.records.len(),
        metrics,
        detail,
    })
}

fn run() -> Result<(), (u8, String)> {
    let args = parse_args().map_err(|msg| (2, format!("{msg}\n{USAGE}")))?;
    refuse_hh_environment().map_err(|msg| (2, msg))?;
    let scenarios = args.workload.scenarios().map_err(|msg| (1, msg))?;
    println!(
        "# hh-perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report = if args.trace {
        trace::run(&args, &scenarios)
    } else {
        run_untraced(&args, &scenarios)
    }
    .map_err(|failure| (1, format!("check failed: {failure}")))?;
    print_report(&args, &report).map_err(|msg| (1, msg))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, msg)) => {
            eprintln!("hh-perfbench: {msg}");
            ExitCode::from(code)
        }
    }
}
