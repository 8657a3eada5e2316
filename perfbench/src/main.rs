//! Layered host-time benchmark of the `repro` measurement engine.
//!
//! ```text
//! perfbench --workload <paper-quick|engine-scale|ledger-commit> --seed <n>
//!           --seconds <s> --trace <0|1> [--scratch <dir>]
//! ```
//!
//! `--trace 0` drives the workload through `run_plans_with`, the entry
//! `repro` uses, repeatedly until `--seconds` have passed, and reports the
//! end-to-end metrics over that measured phase, per iteration. `--trace 1` runs one
//! cold-cache and one warm-cache pass, one traced pass that times every call
//! into each layer, and the substrate replays, and reports the per-layer
//! metrics. Every metric is printed as `name value unit`; the last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`.

mod counting;
mod layers;
mod procfs;
mod reference;
mod replay;
mod stats;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use dichotomy_bench::json;
use dichotomy_core::experiments::ExperimentReport;
use dichotomy_core::scenario::{fnv1a_64, run_plans_with, ExecOptions, PlanOutcome};

use reference::Reference;
use workloads::{setup, Setup, Workload};

/// Each timed batch repeats the set-up until it has taken about this long,
/// so a set-up of a few microseconds is still timed well above clock
/// resolution.
const SETUP_BATCH_S: f64 = 0.01;
/// Set-up samples per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 5;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <paper-quick|engine-scale|ledger-commit> \
                     --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scratch = PathBuf::from(".bench_build/perfbench-scratch");
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--scratch" => scratch = PathBuf::from(value),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scratch,
    })
}

/// One reported metric.
struct MetricValue {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Add a metric to a list.
fn push(metrics: &mut Vec<MetricValue>, name: impl Into<String>, value: f64, unit: &'static str) {
    metrics.push(MetricValue {
        name: name.into(),
        value,
        unit,
    });
}

/// What a run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<MetricValue>,
}

impl Outcome {
    fn json(&self) -> Result<String, String> {
        let mut fields = Vec::new();
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite", m.name));
            }
            fields.push(format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(",")
        ))
    }
}

/// Times the workload's set-up. Each of [`SETUP_SAMPLES`] samples is a
/// mean over batches spread across the run (one batch per sample before
/// the first iteration and after each), so every sample sees the same mix
/// of host conditions as the iterations do; `setup_s` is the median
/// sample.
struct SetupClock {
    workload: Workload,
    seed: u64,
    per_batch: usize,
    /// Seconds and set-ups, per sample.
    samples: [(f64, usize); SETUP_SAMPLES],
}

impl SetupClock {
    /// Build the set-up, then double the batch size until one batch takes
    /// [`SETUP_BATCH_S`] (the first, cold build is no guide to the rest).
    fn start(workload: Workload, seed: u64) -> (SetupClock, Setup) {
        let first = setup(workload, seed);
        let mut clock = SetupClock {
            workload,
            seed,
            per_batch: 1,
            samples: [(0.0, 0); SETUP_SAMPLES],
        };
        while clock.time_batch() < SETUP_BATCH_S && clock.per_batch < 1 << 20 {
            clock.per_batch *= 2;
        }
        (clock, first)
    }

    /// Time one batch; return its total seconds.
    fn time_batch(&self) -> f64 {
        let t = Instant::now();
        for _ in 0..self.per_batch {
            std::hint::black_box(setup(self.workload, self.seed));
        }
        t.elapsed().as_secs_f64()
    }

    /// Time one batch into every sample.
    fn batch(&mut self) {
        for i in 0..SETUP_SAMPLES {
            let took = self.time_batch();
            self.samples[i].0 += took;
            self.samples[i].1 += self.per_batch;
        }
    }

    fn median_s(&self) -> f64 {
        let means: Vec<f64> = self.samples.iter().map(|(s, n)| s / *n as f64).collect();
        stats::median(&means).expect("at least one sample")
    }
}

/// Probe slots of a batch, and the slots that failed: panicked (an oracle
/// trip panics its probe), or clamped an event.
fn slot_failures(outcomes: &[PlanOutcome]) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    for o in outcomes {
        attempted += o.probes as u64;
        failed += o.report.failures.len() as u64;
        failed += o
            .report
            .rows
            .iter()
            .flat_map(|r| &r.series)
            .filter(|s| s.events_clamped > 0 || !s.oracles.passed())
            .count() as u64;
    }
    (attempted, failed)
}

/// The deterministic report document of a batch: for paper-quick, the
/// exact bytes `repro --quick --seed <n> --json <path> all` writes.
fn report_json(workload: Workload, seed: u64, setup: &Setup, outcomes: &[PlanOutcome]) -> String {
    let reports: Vec<(String, ExperimentReport)> = setup
        .plans
        .iter()
        .zip(outcomes)
        .map(|((key, _), o)| (key.clone(), o.report.clone()))
        .collect();
    json::document(workload == Workload::PaperQuick, None, seed, &reports)
}

/// Totals over the measured phase of an untraced run.
///
/// The end-to-end figures are these totals per iteration, not medians of
/// the iterations: a shared 2-core host was seen to alternate between two
/// speeds about 1.4x apart. A run's median iteration takes whichever speed
/// held for most of the run, so run medians jump between the two; the
/// phase's totals move with the share of time spent at each, as the
/// reference kernel's mean does, and their ratio to it stays put.
#[derive(Default)]
struct Phase {
    iterations: u64,
    elapsed_s: f64,
    cpu_s: f64,
    receipts: u64,
    events: u64,
}

fn untraced(args: &Args) -> Result<Outcome, String> {
    let (mut setup_clock, setup) = SetupClock::start(args.workload, args.seed);
    setup_clock.batch();
    let plans = setup.plan_refs();
    let exec = ExecOptions::with_jobs(args.workload.jobs());
    let mut phase = Phase::default();
    let mut reference = Reference::default();
    let mut probe_ms = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut digests = Vec::new();
    counting::take();
    let started = Instant::now();
    loop {
        let cpu0 = procfs::cpu_seconds()?;
        let t0 = Instant::now();
        let outcomes = run_plans_with(&plans, &setup.registry, &exec);
        let elapsed_s = t0.elapsed().as_secs_f64();
        let cpu_s = procfs::cpu_seconds()? - cpu0;
        let counts = counting::take();
        let (slots, bad) = slot_failures(&outcomes);
        attempted += slots;
        failed += bad + counts.mismatched;
        probe_ms.extend(
            outcomes
                .iter()
                .flat_map(|o| o.calibration.iter().map(|c| c.wall_ms)),
        );
        let doc = report_json(args.workload, args.seed, &setup, &outcomes);
        digests.push(fnv1a_64(doc.as_bytes()));
        phase.iterations += 1;
        phase.elapsed_s += elapsed_s;
        phase.cpu_s += cpu_s;
        phase.receipts += counts.receipts;
        phase.events += counts.events;
        eprintln!(
            "iteration {}: {elapsed_s:.4} s, cpu {cpu_s:.2} s",
            phase.iterations
        );
        setup_clock.batch();
        reference.sample(args.workload.jobs(), reference::SHARE * elapsed_s)?;
        if started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let deterministic = digests.iter().all(|d| *d == digests[0]);
    println!(
        "workload {} seed {} workers {}: {} iteration(s), {} probe slots, {} failed",
        args.workload.name(),
        args.seed,
        args.workload.jobs(),
        phase.iterations,
        attempted,
        failed
    );
    println!(
        "sim_digest {:016x} ({})",
        digests[0],
        if deterministic {
            "identical on every iteration"
        } else {
            "DIFFERS between iterations"
        }
    );
    let p50 = stats::median(&probe_ms).unwrap_or(f64::NAN);
    println!("probe_p50_ms {p50} ms ({} samples)", probe_ms.len());
    match stats::tail_quantile(&probe_ms, 0.95) {
        Some(p95) => println!("probe_p95_ms {p95} ms ({} samples)", probe_ms.len()),
        None => println!(
            "probe_p95_ms n/a: {} samples leave fewer than {} beyond p95",
            probe_ms.len(),
            stats::MIN_BEYOND
        ),
    }
    println!("probes {attempted} count");
    println!("probes_failed {failed} count");
    let kernel_s = reference.mean_s().expect("sampled after every iteration");
    println!(
        "reference_kernel_s {kernel_s} s (mean of {} runs; nominal {} s)",
        reference.runs(),
        reference::NOMINAL_S
    );
    let n = phase.iterations as f64;
    let raw = [
        ("setup_s", setup_clock.median_s(), "s"),
        ("elapsed_s", phase.elapsed_s / n, "s"),
        ("cpu_s", phase.cpu_s / n, "s"),
        (
            "sim_txns_per_s",
            phase.receipts as f64 / phase.elapsed_s,
            "1/s",
        ),
        (
            "sim_events_per_s",
            phase.events as f64 / phase.elapsed_s,
            "1/s",
        ),
    ];
    let mut metrics = Vec::new();
    for (name, value, unit) in raw {
        println!("raw_{name} {value} {unit}");
        let value = match unit {
            "s" => value * reference::scale(kernel_s),
            _ => value / reference::scale(kernel_s),
        };
        push(&mut metrics, name, value, unit);
    }
    push(&mut metrics, "peak_rss_mb", procfs::peak_rss_mb()?, "MB");
    Ok(Outcome {
        correct: failed == 0 && deterministic,
        attempted,
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some(reference::FLAG) {
        return match reference::serve(argv.nth(1)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced::run(&args)
    } else {
        untraced(&args)
    };
    let (outcome, line) = match result.and_then(|o| o.json().map(|j| (o, j))) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &outcome.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = args(&[
            "--workload",
            "ledger-commit",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Workload::LedgerCommit);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        assert!(args(&[
            "--workload",
            "hit",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "paper-quick",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "paper-quick",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "paper-quick", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut metrics = Vec::new();
        push(&mut metrics, "elapsed_s", 1.25, "s");
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics,
        };
        assert_eq!(
            o.json().unwrap(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"elapsed_s\":{\"value\":1.25,\"unit\":\"s\"}}}"
        );
        let mut bad = Vec::new();
        push(&mut bad, "x", f64::NAN, "s");
        assert!(Outcome { metrics: bad, ..o }.json().is_err());
    }
}
