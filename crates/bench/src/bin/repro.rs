//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p dichotomy-bench --release --bin repro -- all
//! cargo run -p dichotomy-bench --release --bin repro -- fig09
//! cargo run -p dichotomy-bench --release --bin repro -- --quick fig04 fig14
//! cargo run -p dichotomy-bench --release --bin repro -- --list
//! cargo run -p dichotomy-bench --release --bin repro -- --quick --seed 7 --json out.json all
//! cargo run -p dichotomy-bench --release --bin repro -- --quick --jobs 8 \
//!     --bench BENCH_history.json --bench-key "$(git describe --always)" all
//! cargo run -p dichotomy-bench --release --bin repro -- --arrival closed --think-us 500 fig04
//! ```
//!
//! Flags:
//!
//! * `--quick` — scale transaction counts down for smoke runs;
//! * `--list` — print every experiment id with its report title and exit;
//!   experiments whose probes carry a declarative fault schedule are marked
//!   `[faults]`;
//! * `--txns N` — override the per-experiment transaction/record count;
//! * `--seed S` — reseed every run (same seed ⇒ bit-identical output);
//! * `--jobs N` — worker threads for the probe pool (default: the
//!   `DICHOTOMY_JOBS` environment variable, else all available cores). One
//!   pool is shared across *all* requested experiments, so workers stay busy
//!   over experiment boundaries. Output is byte-identical whatever the
//!   worker count;
//! * `--progress` — live per-probe status lines on stderr as probes finish;
//! * `--fail-fast` — stop scheduling probes after the first failure (queued
//!   probes report a labelled "skipped" failure instead of running);
//! * `--arrival open|closed` — override every driving probe's arrival
//!   process: `open` forces the open-loop default, `closed` a closed loop
//!   with each probe's configured client count;
//! * `--think-us N` / `--outstanding N` — the closed-loop override's mean
//!   think time (default 1000 µs) and outstanding cap (default 1); only
//!   valid with `--arrival closed`;
//! * `--metrics exact|streaming` — override every driving probe's metrics
//!   mode: `exact` retains receipts and computes order-statistic
//!   percentiles (the default of every experiment except `scale01`),
//!   `streaming` folds receipts into per-window P² sketches in O(windows)
//!   memory;
//! * `--json PATH` — additionally write all completed reports as JSON. Each
//!   row of a driving experiment carries its windowed time series (`series`:
//!   per-window offered/achieved tps, abort %, p50/p95/p99 latency) — see
//!   `dichotomy_bench::json` for the schema;
//! * `--bench PATH` — **append** per-experiment worker-time timings to the
//!   bench-trajectory history at PATH (created if missing; refuses documents
//!   that are not a `repro-bench-history`);
//! * `--bench-key KEY` — the label of the appended history entry (pass
//!   `git describe`/a date; the run never reads the wall clock for it).
//!   Without the flag the entry is keyed by a stable digest of the run's
//!   own parameters (quick/txns/seed/jobs), so history stays comparable
//!   even where `git describe` is unavailable;
//! * `--cache` — answer probes from the persistent content-addressed result
//!   cache at `.repro-cache/` and store misses back into it. A hit is
//!   byte-identical to a cold run: results are keyed by a hash of every
//!   input that reaches the measurement (system, workload, driver, arrival,
//!   metrics mode, faults, seed, transaction count) and round-trip through
//!   the in-repo codec. `--no-cache` (the default) turns it back off;
//! * `repro cache stats` / `repro cache clear` — inspect or delete the
//!   cache (per schema-tag entry counts and sizes);
//! * `repro lint [--quick] [--txns N] [--seed S] [--json PATH] [ID…]` —
//!   expand the requested experiments (default: all) **without executing
//!   them** and report semantic plan diagnostics (`S0xx`): out-of-horizon
//!   faults, duplicate sweep points, mixed populations that round to a zero
//!   transaction share, measurement windows longer than the run, zero-probe
//!   experiments. The pseudo-id `explore` (part of `all`) lints the
//!   design-space explorer's spec instead (`S008`: a prune configuration
//!   that eliminates every candidate). Exit 1 when any deny-level finding
//!   survives;
//! * `repro explore [--quick] [--txns N] [--seed S] [--jobs N] [--progress]
//!   [--cache] [--keep-frac F] [--min-forecast-tps T] [--max-candidates N]
//!   [--json PATH] [--sched-walls] [--bench PATH] [--bench-key KEY]` — the
//!   design-space explorer: enumerate the system × workload grid, prune
//!   forecast-dominated candidates (every cut is reported), measure the
//!   survivors on the shared probe pool (dedup, cache and LPT scheduling
//!   apply), and report the Pareto front over throughput / p99 latency /
//!   fault-recovery time plus the forecast-calibration summary (Kendall's
//!   τ, per-taxonomy-cell error and correction). Stdout and the `--json`
//!   document are byte-identical across `--jobs` counts and cache states;
//!   `--sched-walls` additionally fills measured walls into the
//!   `calibration.scheduling` entries (trading away that byte-identity).
//!
//! Whatever the flags, duplicate probes *within* a run execute once and fan
//! out to every table cell that needs them, and the deduplicated queue is
//! ordered longest-predicted-first (the `dichotomy-hybrid` forecast model)
//! to shrink the worker pool's makespan. The run prints a dedup summary —
//! `probes: N scheduled, K distinct, D cache hits …` — on stderr, and the
//! `--bench` entries carry per-experiment `dedup_saved_ms`, `cache_hits`
//! and a predicted-vs-actual `calibration` array. Text-only experiments
//! (`tab02`) schedule no probes and are left out of the bench timings.
//!
//! Unknown experiment ids exit nonzero after printing the valid list. An
//! `all` run continues past failures at *probe* granularity: a panicking
//! probe reports NaN columns plus a failure line naming the experiment, row
//! and probe, completed rows are kept, and the run exits nonzero at the end.
//! A panic outside any probe (plan construction itself) is still caught per
//! experiment.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use dichotomy_bench::{
    cache, json, list_experiments, plan_for, ArrivalOverride, RunOptions, EXPERIMENTS,
};
use dichotomy_core::experiments::ExperimentReport;
use dichotomy_core::metrics::MetricsMode;
use dichotomy_core::scenario::{
    panic_text, run_plans_with, ExecOptions, ExperimentPlan, ProbeCache, ProbeStatus,
};
use dichotomy_core::systems::SystemRegistry;

/// Where `--cache` keeps its entries, relative to the working directory.
const CACHE_ROOT: &str = ".repro-cache";

struct Cli {
    options: RunOptions,
    json_path: Option<String>,
    bench_path: Option<String>,
    bench_key: Option<String>,
    jobs: usize,
    progress: bool,
    fail_fast: bool,
    cache: bool,
    list: bool,
    targets: Vec<String>,
}

/// One requested experiment: its plan, or why it has none.
enum Planned {
    Ready(ExperimentPlan),
    Failed(String),
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("cache") {
        std::process::exit(cache_command(&raw[1..]));
    }
    if raw.first().map(String::as_str) == Some("lint") {
        std::process::exit(lint_command(&raw[1..]));
    }
    if raw.first().map(String::as_str) == Some("explore") {
        std::process::exit(explore_command(&raw[1..]));
    }
    let cli = parse_args(raw.into_iter());

    if cli.list {
        for (key, id, title, has_faults) in list_experiments() {
            let marker = if has_faults { " [faults]" } else { "" };
            println!("{key:<8} {id:<10} {title}{marker}");
        }
        return;
    }

    let targets: Vec<&str> = if cli.targets.is_empty() || cli.targets.iter().any(|t| t == "all") {
        EXPERIMENTS.to_vec()
    } else {
        cli.targets.iter().map(String::as_str).collect()
    };
    let total = targets.len();

    // Expand every plan first (plan construction can panic — e.g. malformed
    // sweeps — and must not take the other experiments down), then run all
    // ready plans on ONE shared worker pool.
    let planned: Vec<(&str, Planned)> = targets
        .iter()
        .map(|&id| {
            let plan = match catch_unwind(AssertUnwindSafe(|| plan_for(id, &cli.options))) {
                Ok(Some(plan)) => Planned::Ready(plan),
                Ok(None) => Planned::Failed("not in the dispatch table".to_string()),
                Err(panic) => Planned::Failed(panic_text(panic.as_ref())),
            };
            (id, plan)
        })
        .collect();
    let ready: Vec<(&str, &ExperimentPlan)> = planned
        .iter()
        .filter_map(|(id, p)| match p {
            Planned::Ready(plan) => Some((*id, plan)),
            Planned::Failed(_) => None,
        })
        .collect();

    let progress = |s: &ProbeStatus| {
        let id = ready.get(s.plan).map(|(id, _)| *id).unwrap_or("?");
        let origin = if s.cached {
            " [cached]"
        } else if s.deduped {
            " [dedup]"
        } else {
            ""
        };
        match &s.error {
            Some(e) => eprintln!(
                "[{id}] probe {}/{} '{}' / '{}': FAILED: {e}",
                s.done, s.total, s.row, s.probe
            ),
            None => eprintln!(
                "[{id}] probe {}/{} '{}' / '{}'{origin}",
                s.done, s.total, s.row, s.probe
            ),
        }
    };
    let disk_cache = if cli.cache {
        match cache::DiskCache::open(Path::new(CACHE_ROOT)) {
            Ok(c) => Some(c),
            Err(e) => {
                // A cache that cannot open still measures correctly.
                eprintln!("cannot open {CACHE_ROOT} (running uncached): {e}");
                None
            }
        }
    } else {
        None
    };
    let exec = ExecOptions {
        jobs: cli.jobs,
        progress: if cli.progress { Some(&progress) } else { None },
        fail_fast: cli.fail_fast,
        cache: disk_cache.as_ref().map(|c| c as &dyn ProbeCache),
    };
    let plans: Vec<&ExperimentPlan> = ready.iter().map(|(_, plan)| *plan).collect();
    let mut outcomes = run_plans_with(&plans, &SystemRegistry::with_builtins(), &exec).into_iter();

    let mut completed: Vec<(String, ExperimentReport)> = Vec::new();
    let mut failures: Vec<(&str, String)> = Vec::new();
    let mut timings: Vec<json::BenchTiming> = Vec::new();
    let (mut sum_probes, mut sum_distinct, mut sum_hits) = (0usize, 0usize, 0usize);
    let (mut sum_wall_ms, mut sum_saved_ms) = (0.0f64, 0.0f64);
    for (id, plan) in planned {
        match plan {
            Planned::Ready(plan) => {
                let outcome = outcomes.next().expect("one outcome per ready plan");
                // Text-only experiments (tab02) schedule no probes: a
                // 0-row/0-ms timing entry is noise in the trajectory.
                if plan.probe_count() > 0 {
                    timings.push(json::BenchTiming::from_outcome(id.to_string(), &outcome));
                }
                let report = outcome.report;
                println!("{}", report.render());
                // Per-probe failures: attributable even when many probes ran
                // in parallel — every line names experiment, row and probe.
                for f in &report.failures {
                    failures.push((
                        id,
                        format!("row '{}' probe '{}': {}", f.row, f.probe, f.message),
                    ));
                }
                sum_probes += outcome.probes;
                sum_distinct += outcome.distinct_probes;
                sum_hits += outcome.cache_hits;
                sum_wall_ms += outcome.probe_wall_ms;
                sum_saved_ms += outcome.dedup_saved_ms;
                completed.push((id.to_string(), report));
            }
            Planned::Failed(message) => {
                failures.push((id, message));
                timings.push(json::BenchTiming::empty(id.to_string(), false));
            }
        }
    }
    eprintln!(
        "probes: {sum_probes} scheduled, {sum_distinct} distinct, {sum_hits} cache hits; \
         worker time {sum_wall_ms:.0} ms, dedup saved {sum_saved_ms:.0} ms"
    );

    // Write both output documents before deciding the exit code: a broken
    // --json path must not swallow the --bench document or the failure
    // summary (and vice versa).
    let mut write_failed = false;
    if let Some(path) = &cli.json_path {
        let doc = json::document(
            cli.options.quick,
            cli.options.txns,
            cli.options.seed,
            &completed,
        );
        match std::fs::write(path, doc) {
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                write_failed = true;
            }
            Ok(()) => eprintln!("wrote {} report(s) to {path}", completed.len()),
        }
    }

    if let Some(path) = &cli.bench_path {
        // No explicit key: derive a stable one from the run's own
        // parameters, so trajectories stay comparable where `git describe`
        // is unavailable (tarball checkouts, CI containers without tags).
        let bench_key = cli.bench_key.clone().unwrap_or_else(|| {
            json::stable_bench_key(
                cli.options.quick,
                cli.options.txns,
                cli.options.seed,
                ExecOptions::with_jobs(cli.jobs).effective_jobs(),
            )
        });
        let entry = json::bench_document(
            &bench_key,
            cli.options.quick,
            cli.options.txns,
            cli.options.seed,
            ExecOptions::with_jobs(cli.jobs).effective_jobs(),
            &timings,
        );
        let existing = std::fs::read_to_string(path).ok();
        match json::append_history(existing.as_deref(), entry)
            .map_err(|e| e.to_string())
            .and_then(|doc| std::fs::write(path, doc).map_err(|e| e.to_string()))
        {
            Err(e) => {
                eprintln!("cannot append bench history to {path}: {e}");
                write_failed = true;
            }
            Ok(()) => eprintln!(
                "appended '{bench_key}' ({} experiment timings) to {path}",
                timings.len()
            ),
        }
    }

    if !failures.is_empty() {
        eprintln!(
            "{} failure(s) across {} experiments:",
            failures.len(),
            total
        );
        for (id, msg) in &failures {
            eprintln!("  {id}: {msg}");
        }
    }
    if !failures.is_empty() || write_failed {
        std::process::exit(1);
    }
}

fn parse_args(args: impl Iterator<Item = String>) -> Cli {
    let mut cli = Cli {
        options: RunOptions::default(),
        json_path: None,
        bench_path: None,
        bench_key: None,
        jobs: 0,
        progress: false,
        fail_fast: false,
        cache: false,
        list: false,
        targets: Vec::new(),
    };
    let mut args = args.peekable();
    let mut bad_usage = Vec::new();
    let mut think_us: Option<u64> = None;
    let mut outstanding: Option<u64> = None;
    let mut arrival: Option<String> = None;
    while let Some(arg) = args.next() {
        // Accept both `--flag value` and `--flag=value`.
        let (flag, inline_value) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
            _ => (arg.clone(), None),
        };
        match flag.as_str() {
            "--quick" | "--list" | "--progress" | "--fail-fast" | "--cache" | "--no-cache"
                if inline_value.is_some() =>
            {
                bad_usage.push(format!("flag '{flag}' takes no value"));
            }
            "--quick" => cli.options.quick = true,
            "--list" => cli.list = true,
            "--progress" => cli.progress = true,
            "--fail-fast" => cli.fail_fast = true,
            "--cache" => cli.cache = true,
            "--no-cache" => cli.cache = false,
            "--txns" => {
                if let Some(v) = value_of(&flag, inline_value.clone(), &mut args, &mut bad_usage) {
                    match v.parse::<u64>() {
                        Ok(n) => cli.options.txns = Some(n),
                        Err(_) => bad_usage.push(format!("--txns: '{v}' is not a count")),
                    }
                }
            }
            "--seed" => {
                if let Some(v) = value_of(&flag, inline_value.clone(), &mut args, &mut bad_usage) {
                    match v.parse::<u64>() {
                        Ok(s) => cli.options.seed = s,
                        Err(_) => bad_usage.push(format!("--seed: '{v}' is not a u64")),
                    }
                }
            }
            "--jobs" => {
                if let Some(v) = value_of(&flag, inline_value.clone(), &mut args, &mut bad_usage) {
                    match v.parse::<usize>() {
                        Ok(n) if n >= 1 => cli.jobs = n,
                        _ => bad_usage.push(format!("--jobs: '{v}' is not a worker count ≥ 1")),
                    }
                }
            }
            "--arrival" => {
                if let Some(v) = value_of(&flag, inline_value.clone(), &mut args, &mut bad_usage) {
                    match v.as_str() {
                        "open" | "closed" => arrival = Some(v),
                        _ => bad_usage.push(format!("--arrival: '{v}' is not open|closed")),
                    }
                }
            }
            "--think-us" => {
                if let Some(v) = value_of(&flag, inline_value.clone(), &mut args, &mut bad_usage) {
                    match v.parse::<u64>() {
                        Ok(n) => think_us = Some(n),
                        Err(_) => bad_usage.push(format!("--think-us: '{v}' is not µs")),
                    }
                }
            }
            "--outstanding" => {
                if let Some(v) = value_of(&flag, inline_value.clone(), &mut args, &mut bad_usage) {
                    match v.parse::<u64>() {
                        Ok(n) if n >= 1 => outstanding = Some(n),
                        _ => bad_usage.push(format!("--outstanding: '{v}' is not a cap ≥ 1")),
                    }
                }
            }
            "--json" => {
                if let Some(v) = value_of(&flag, inline_value.clone(), &mut args, &mut bad_usage) {
                    cli.json_path = Some(v);
                }
            }
            "--bench" => {
                if let Some(v) = value_of(&flag, inline_value.clone(), &mut args, &mut bad_usage) {
                    cli.bench_path = Some(v);
                }
            }
            "--bench-key" => {
                if let Some(v) = value_of(&flag, inline_value.clone(), &mut args, &mut bad_usage) {
                    cli.bench_key = Some(v);
                }
            }
            "--metrics" => {
                if let Some(v) = value_of(&flag, inline_value.clone(), &mut args, &mut bad_usage) {
                    match v.as_str() {
                        "exact" => cli.options.metrics = Some(MetricsMode::Exact),
                        "streaming" => cli.options.metrics = Some(MetricsMode::Streaming),
                        _ => bad_usage.push(format!("--metrics: '{v}' is not exact|streaming")),
                    }
                }
            }
            f if f.starts_with("--") => bad_usage.push(format!("unknown flag '{f}'")),
            _ => cli.targets.push(arg),
        }
    }

    cli.options.arrival = match arrival.as_deref() {
        None => {
            if think_us.is_some() || outstanding.is_some() {
                bad_usage.push("--think-us/--outstanding need --arrival closed".to_string());
            }
            None
        }
        Some("open") => {
            if think_us.is_some() || outstanding.is_some() {
                bad_usage.push("--think-us/--outstanding need --arrival closed".to_string());
            }
            Some(ArrivalOverride::Open)
        }
        Some(_) => Some(ArrivalOverride::Closed {
            think_time_us: think_us.unwrap_or(1_000),
            max_outstanding: outstanding.unwrap_or(1),
        }),
    };

    let unknown: Vec<&String> = cli
        .targets
        .iter()
        .filter(|id| id.as_str() != "all" && !EXPERIMENTS.contains(&id.as_str()))
        .collect();
    for id in &unknown {
        bad_usage.push(format!("unknown experiment '{id}'"));
    }
    if !bad_usage.is_empty() {
        for msg in &bad_usage {
            eprintln!("{msg}");
        }
        eprintln!(
            "valid flags: --quick --list --progress --fail-fast --cache --no-cache --txns N \
             --seed S --jobs N --arrival open|closed --think-us N --outstanding N \
             --metrics exact|streaming --json PATH --bench PATH --bench-key KEY"
        );
        eprintln!("subcommands: cache stats|clear, explore, lint");
        eprintln!("valid experiments: all {}", EXPERIMENTS.join(" "));
        std::process::exit(2);
    }
    cli
}

/// `repro cache stats|clear`: inspect or delete the persistent result
/// cache. Returns the process exit code.
fn cache_command(args: &[String]) -> i32 {
    let root = Path::new(CACHE_ROOT);
    match (args.first().map(String::as_str), args.len()) {
        (Some("stats"), 1) => {
            let tags = cache::stats(root);
            if tags.is_empty() {
                println!("cache {CACHE_ROOT}: empty");
            } else {
                for t in &tags {
                    println!(
                        "{}{:<28} {:>6} entries {:>12} bytes",
                        if t.current { "* " } else { "  " },
                        t.tag,
                        t.entries,
                        t.bytes
                    );
                }
                println!("(*: the schema tag current binaries read and write)");
            }
            0
        }
        (Some("clear"), 1) => match cache::clear(root) {
            Ok(()) => {
                println!("cleared {CACHE_ROOT}");
                0
            }
            Err(e) => {
                eprintln!("cannot clear {CACHE_ROOT}: {e}");
                1
            }
        },
        _ => {
            eprintln!("usage: repro cache stats|clear");
            2
        }
    }
}

/// `repro explore` — run the design-space explorer: enumerate the
/// `ExploreSpec` grid, prune by forecast, measure the survivors on the
/// shared probe pool, and report the Pareto front plus the forecast
/// calibration. Exit status: 0 on success, 1 when the spec lints deny
/// (`S008` zero-survivor), a probe fails, or an output path cannot be
/// written, 2 on usage errors.
fn explore_command(args: &[String]) -> i32 {
    let mut quick = false;
    let mut txns_override: Option<u64> = None;
    let mut seed = dichotomy_core::common::rng::DEFAULT_SEED;
    let mut jobs = 0usize;
    let mut progress = false;
    let mut use_cache = false;
    let mut keep_frac: Option<f64> = None;
    let mut min_forecast_tps: Option<f64> = None;
    let mut max_candidates: Option<usize> = None;
    let mut json_path: Option<String> = None;
    let mut sched_walls = false;
    let mut bench_path: Option<String> = None;
    let mut bench_key: Option<String> = None;
    let mut bad_usage: Vec<String> = Vec::new();
    let mut it = args.iter().cloned().peekable();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
            _ => (arg.clone(), None),
        };
        match flag.as_str() {
            "--quick" => quick = true,
            "--progress" => progress = true,
            "--cache" => use_cache = true,
            "--no-cache" => use_cache = false,
            "--sched-walls" => sched_walls = true,
            "--txns" => {
                if let Some(v) = value_of(&flag, inline, &mut it, &mut bad_usage) {
                    match v.parse::<u64>() {
                        Ok(n) => txns_override = Some(n),
                        Err(_) => bad_usage.push(format!("--txns: not a count: '{v}'")),
                    }
                }
            }
            "--seed" => {
                if let Some(v) = value_of(&flag, inline, &mut it, &mut bad_usage) {
                    match v.parse::<u64>() {
                        Ok(s) => seed = s,
                        Err(_) => bad_usage.push(format!("--seed: not a seed: '{v}'")),
                    }
                }
            }
            "--jobs" => {
                if let Some(v) = value_of(&flag, inline, &mut it, &mut bad_usage) {
                    match v.parse::<usize>() {
                        Ok(n) if n >= 1 => jobs = n,
                        _ => bad_usage.push(format!("--jobs: not a worker count ≥ 1: '{v}'")),
                    }
                }
            }
            "--keep-frac" => {
                if let Some(v) = value_of(&flag, inline, &mut it, &mut bad_usage) {
                    match v.parse::<f64>() {
                        Ok(f) if (0.0..=1.0).contains(&f) => keep_frac = Some(f),
                        _ => bad_usage.push(format!("--keep-frac: not a fraction in [0,1]: '{v}'")),
                    }
                }
            }
            "--min-forecast-tps" => {
                if let Some(v) = value_of(&flag, inline, &mut it, &mut bad_usage) {
                    match v.parse::<f64>() {
                        Ok(f) if f >= 0.0 && f.is_finite() => min_forecast_tps = Some(f),
                        _ => bad_usage.push(format!("--min-forecast-tps: not a rate ≥ 0: '{v}'")),
                    }
                }
            }
            "--max-candidates" => {
                if let Some(v) = value_of(&flag, inline, &mut it, &mut bad_usage) {
                    match v.parse::<usize>() {
                        Ok(n) => max_candidates = Some(n),
                        Err(_) => bad_usage.push(format!("--max-candidates: not a count: '{v}'")),
                    }
                }
            }
            "--json" => json_path = value_of(&flag, inline, &mut it, &mut bad_usage),
            "--bench" => bench_path = value_of(&flag, inline, &mut it, &mut bad_usage),
            "--bench-key" => bench_key = value_of(&flag, inline, &mut it, &mut bad_usage),
            _ => bad_usage.push(format!("unknown argument '{arg}'")),
        }
    }
    if !bad_usage.is_empty() {
        for b in &bad_usage {
            eprintln!("repro explore: {b}");
        }
        eprintln!(
            "usage: repro explore [--quick] [--txns N] [--seed S] [--jobs N] [--progress] \
             [--cache|--no-cache] [--keep-frac F] [--min-forecast-tps T] [--max-candidates N] \
             [--json PATH] [--sched-walls] [--bench PATH] [--bench-key KEY]"
        );
        return 2;
    }

    let txns = txns_override.unwrap_or(if quick { 300 } else { 2_000 });
    let mut spec = if quick {
        dichotomy_explore::ExploreSpec::quick(txns, seed)
    } else {
        dichotomy_explore::ExploreSpec::full(txns, seed)
    };
    if let Some(f) = keep_frac {
        spec.prune.keep_frac = f;
    }
    if let Some(t) = min_forecast_tps {
        spec.prune.min_forecast_tps = t;
    }
    if let Some(n) = max_candidates {
        spec.max_candidates = if n == 0 { None } else { Some(n) };
    }

    // Gate on the spec lints before anything executes: an exploration that
    // would measure nothing (S008) is a configuration bug, not an empty
    // result.
    let diags = dichotomy_explore::lint_spec(&spec);
    if dichotomy_core::common::diag::has_deny(&diags) {
        for d in &diags {
            eprintln!("{}", d.render());
        }
        return 1;
    }

    let progress_fn = |s: &ProbeStatus| {
        let origin = if s.cached {
            " [cached]"
        } else if s.deduped {
            " [dedup]"
        } else {
            ""
        };
        match &s.error {
            Some(e) => eprintln!(
                "[explore] probe {}/{} '{}' / '{}': FAILED: {e}",
                s.done, s.total, s.row, s.probe
            ),
            None => eprintln!(
                "[explore] probe {}/{} '{}' / '{}'{origin}",
                s.done, s.total, s.row, s.probe
            ),
        }
    };
    let disk_cache = if use_cache {
        match cache::DiskCache::open(Path::new(CACHE_ROOT)) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("cannot open {CACHE_ROOT} (running uncached): {e}");
                None
            }
        }
    } else {
        None
    };
    let exec = ExecOptions {
        jobs,
        progress: if progress { Some(&progress_fn) } else { None },
        fail_fast: false,
        cache: disk_cache.as_ref().map(|c| c as &dyn ProbeCache),
    };
    let outcome =
        match dichotomy_explore::run_explore(&spec, &SystemRegistry::with_builtins(), &exec) {
            Ok(o) => o,
            Err(e) => {
                // Unreachable after the lint gate, but a belt to its braces.
                eprintln!("repro explore: {e}");
                return 1;
            }
        };

    print!("{}", outcome.render());
    eprintln!(
        "probes: {} scheduled, {} distinct, {} cache hits; worker time {:.0} ms, \
         dedup saved {:.0} ms",
        outcome.plan.probes,
        outcome.plan.distinct_probes,
        outcome.plan.cache_hits,
        outcome.plan.probe_wall_ms,
        outcome.plan.dedup_saved_ms
    );
    for f in &outcome.plan.report.failures {
        eprintln!(
            "repro explore: row '{}' probe '{}': {}",
            f.row, f.probe, f.message
        );
    }

    let mut write_failed = false;
    if let Some(path) = &json_path {
        // The scheduling calibration feed: deterministic predictions always;
        // measured walls only under --sched-walls (cache hits carry none),
        // because walls vary run to run and the default document is compared
        // byte-for-byte across worker counts and cache states.
        let sched: Vec<(String, f64, Option<f64>)> = outcome
            .scheduling
            .iter()
            .map(|(probe, predicted)| {
                let wall = if sched_walls {
                    outcome
                        .plan
                        .calibration
                        .iter()
                        .find(|c| &c.probe == probe)
                        .map(|c| c.wall_ms)
                } else {
                    None
                };
                (probe.clone(), *predicted, wall)
            })
            .collect();
        let doc = json::explore_document(quick, txns, seed, &outcome, &sched);
        match std::fs::write(path, doc) {
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                write_failed = true;
            }
            Ok(()) => eprintln!(
                "wrote the exploration report ({} designs) to {path}",
                outcome.designs.len()
            ),
        }
    }

    if let Some(path) = &bench_path {
        let effective_jobs = ExecOptions::with_jobs(jobs).effective_jobs();
        let timing = json::BenchTiming::from_outcome("explore".to_string(), &outcome.plan);
        let key = bench_key
            .unwrap_or_else(|| json::stable_bench_key(quick, Some(txns), seed, effective_jobs));
        let entry = json::bench_document(&key, quick, Some(txns), seed, effective_jobs, &[timing]);
        let existing = std::fs::read_to_string(path).ok();
        match json::append_history(existing.as_deref(), entry)
            .and_then(|doc| std::fs::write(path, doc).map_err(|e| e.to_string()))
        {
            Err(e) => {
                eprintln!("cannot append bench history to {path}: {e}");
                write_failed = true;
            }
            Ok(()) => eprintln!("appended '{key}' (explore timing) to {path}"),
        }
    }

    if !outcome.plan.report.failures.is_empty() || write_failed {
        1
    } else {
        0
    }
}

/// `repro lint` — expand experiments without executing them and report
/// semantic plan diagnostics (the `S0xx` codes of `dichotomy_core::lint`).
///
/// Loci are keyed by the repro experiment id (`fig04`, `tab02`, …) so the
/// output lines up with `repro --list` and the run commands. The pseudo-id
/// `explore` (included in `all`) lints the `repro explore` spec instead of
/// a plan — `S008` denies a zero-survivor exploration; `--keep-frac` and
/// `--min-forecast-tps` mirror the explore flags so the exact configuration
/// about to run is what gets checked. Exit status: 0 clean (notes/warnings
/// allowed), 1 on any deny-level finding, 2 on usage errors.
fn lint_command(args: &[String]) -> i32 {
    let mut opts = RunOptions::default();
    let mut json_path: Option<String> = None;
    let mut keep_frac: Option<f64> = None;
    let mut min_forecast_tps: Option<f64> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut bad_usage: Vec<String> = Vec::new();
    let mut it = args.iter().cloned().peekable();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg.clone(), None),
        };
        match flag.as_str() {
            "--quick" => opts.quick = true,
            "--keep-frac" => {
                if let Some(v) = value_of(&flag, inline, &mut it, &mut bad_usage) {
                    match v.parse::<f64>() {
                        Ok(f) if (0.0..=1.0).contains(&f) => keep_frac = Some(f),
                        _ => bad_usage.push(format!("--keep-frac: not a fraction in [0,1]: '{v}'")),
                    }
                }
            }
            "--min-forecast-tps" => {
                if let Some(v) = value_of(&flag, inline, &mut it, &mut bad_usage) {
                    match v.parse::<f64>() {
                        Ok(f) if f >= 0.0 && f.is_finite() => min_forecast_tps = Some(f),
                        _ => bad_usage.push(format!("--min-forecast-tps: not a rate ≥ 0: '{v}'")),
                    }
                }
            }
            "--txns" => {
                if let Some(v) = value_of(&flag, inline, &mut it, &mut bad_usage) {
                    match v.parse::<u64>() {
                        Ok(n) => opts.txns = Some(n),
                        Err(_) => bad_usage.push(format!("--txns: not a count: '{v}'")),
                    }
                }
            }
            "--seed" => {
                if let Some(v) = value_of(&flag, inline, &mut it, &mut bad_usage) {
                    match v.parse::<u64>() {
                        Ok(s) => opts.seed = s,
                        Err(_) => bad_usage.push(format!("--seed: not a seed: '{v}'")),
                    }
                }
            }
            "--json" => {
                json_path = value_of(&flag, inline, &mut it, &mut bad_usage);
            }
            _ if flag.starts_with("--") => bad_usage.push(format!("unknown flag '{flag}'")),
            _ => targets.push(arg),
        }
    }
    if !bad_usage.is_empty() {
        for b in &bad_usage {
            eprintln!("repro lint: {b}");
        }
        eprintln!(
            "usage: repro lint [--quick] [--txns N] [--seed S] [--keep-frac F] \
             [--min-forecast-tps T] [--json PATH] [ID...|explore]"
        );
        return 2;
    }

    let all = targets.is_empty() || targets.iter().any(|t| t == "all");
    let want_explore = all || targets.iter().any(|t| t == "explore");
    let ids: Vec<&str> = if all {
        EXPERIMENTS.to_vec()
    } else {
        targets
            .iter()
            .map(String::as_str)
            .filter(|t| *t != "explore")
            .collect()
    };

    let mut diags = Vec::new();
    let mut expanded = 0usize;
    for id in &ids {
        let plan = match catch_unwind(AssertUnwindSafe(|| plan_for(id, &opts))) {
            Ok(Some(plan)) => plan,
            Ok(None) => {
                eprintln!("repro lint: unknown experiment '{id}' (try --list)");
                return 2;
            }
            Err(payload) => {
                eprintln!(
                    "repro lint: expanding '{id}' panicked: {}",
                    panic_text(payload.as_ref())
                );
                return 2;
            }
        };
        expanded += 1;
        diags.extend(dichotomy_core::lint_plan(&plan).into_iter().map(|mut d| {
            // Key loci by the repro id (`fig04`, `tab02`, …), not the plan's
            // report title, so findings line up with the run commands.
            if let dichotomy_core::common::Locus::Plan { experiment, .. } = &mut d.locus {
                *experiment = (*id).to_string();
            }
            d.for_experiment(id)
        }));
    }

    if want_explore {
        // Lint the explore spec exactly as `repro explore` would build it
        // from the same flags.
        let txns = opts.txns.unwrap_or(if opts.quick { 300 } else { 2_000 });
        let mut spec = if opts.quick {
            dichotomy_explore::ExploreSpec::quick(txns, opts.seed)
        } else {
            dichotomy_explore::ExploreSpec::full(txns, opts.seed)
        };
        if let Some(f) = keep_frac {
            spec.prune.keep_frac = f;
        }
        if let Some(t) = min_forecast_tps {
            spec.prune.min_forecast_tps = t;
        }
        expanded += 1;
        diags.extend(dichotomy_explore::lint_spec(&spec));
    }

    for diag in &diags {
        println!("{}", diag.render());
    }
    let denies = diags
        .iter()
        .filter(|d| d.severity == dichotomy_core::common::Severity::Deny)
        .count();
    println!(
        "repro lint: {} experiment{} expanded, {} finding{} ({} deny)",
        expanded,
        if expanded == 1 { "" } else { "s" },
        diags.len(),
        if diags.len() == 1 { "" } else { "s" },
        denies
    );

    if let Some(path) = json_path {
        let doc = dichotomy_core::common::diag::json_document(
            vec![
                ("generator", "repro-lint".into()),
                ("experiments", expanded.into()),
            ],
            &diags,
        );
        if let Err(err) = std::fs::write(&path, doc) {
            eprintln!("repro lint: writing {path}: {err}");
            return 2;
        }
    }

    if dichotomy_core::common::diag::has_deny(&diags) {
        1
    } else {
        0
    }
}

/// The value of `--flag value` / `--flag=value`, or `None` after recording a
/// usage error. A following `--…` token is another flag, never a value.
fn value_of(
    flag: &str,
    inline: Option<String>,
    args: &mut std::iter::Peekable<impl Iterator<Item = String>>,
    bad_usage: &mut Vec<String>,
) -> Option<String> {
    let next_is_value = args.peek().is_some_and(|a| !a.starts_with("--"));
    match inline.or_else(|| if next_is_value { args.next() } else { None }) {
        Some(v) => Some(v),
        None => {
            bad_usage.push(format!("flag '{flag}' needs a value"));
            None
        }
    }
}
