//! Gate CI on the bench-trajectory history.
//!
//! ```text
//! cargo run -p dichotomy-bench --release --bin bench_gate -- BENCH_history.json
//! cargo run -p dichotomy-bench --release --bin bench_gate -- \
//!     --tolerance 0.75 --floor-ms 50 --window 5 BENCH_history.json
//! ```
//!
//! Reads the history document that `repro --bench` and `microbench --bench`
//! append to, and flags wall-clock regressions: for every timing key, the
//! *latest* entry of each run configuration is compared against the median
//! of up to `--window` trailing earlier entries of the *same* configuration
//! (quick/txns/seed/jobs/sched — quick `--jobs 1` timings are never compared
//! against full `--jobs 8` ones). A key regresses when the latest value
//! exceeds the trailing median by more than `--tolerance` (relative) *and*
//! by more than `--floor-ms` (absolute — sub-floor noise on fast cases never
//! gates). Sub-floor *prior* entries are excluded from the baseline median
//! for the same reason: a near-zero wall (a warm-cache run sharing the lane
//! with cold ones) is noise, not a baseline, and would flag every honest
//! cold run as a regression. Keys with fewer than two prior
//! same-configuration entries at/above the floor are reported as
//! "no baseline" and skipped — a median over one noisy sample is not a
//! baseline either.
//!
//! `--require-key KEY` (repeatable) additionally asserts that the
//! trajectory still *covers* a timing key: the key must occur in the history,
//! and the latest entry of every configuration lane in which it ever
//! occurred must contain it. A silently dropped experiment (`scale01` left
//! out of `all`) would otherwise never regress again; with the rule, the
//! next entry of its lane fails the gate.
//!
//! Exit status: 0 when nothing regresses, 1 on any regression or missing
//! required key, 2 on usage or parse errors. Offline and dependency-free,
//! like everything else here.

use dichotomy_core::common::json::{self, Value};
use std::process::ExitCode;

/// One history entry: a run's label, its configuration lane, its timings.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    label: String,
    config: String,
    timings: Vec<Timing>,
}

/// One timing sample of an entry.
#[derive(Debug, Clone, PartialEq)]
struct Timing {
    key: String,
    wall_ms: f64,
    ok: bool,
}

/// Parse every entry out of a bench-history document, in order.
fn parse_history(doc: &str) -> Result<Vec<Entry>, String> {
    let doc = json::parse(doc)?;
    if doc.get("generator").and_then(Value::as_str) != Some("repro-bench-history") {
        return Err("not a repro-bench-history document".to_string());
    }
    let entries = doc
        .get("entries")
        .and_then(Value::as_array)
        .ok_or("history without entries array")?;
    entries
        .iter()
        .map(|entry| {
            // The lane: run configurations whose timings are comparable.
            // `sched` joined the entry header with the cost-predicted
            // scheduler: per-experiment worker time depends on which probes
            // co-run, so lpt-scheduled entries form their own lane. Entries
            // predating the field were first-occurrence-ordered ("fifo").
            let field = |name: &str, absent: &str| match entry.get(name) {
                Some(Value::Str(s)) => s.clone(),
                Some(v) => v.to_string(),
                None => absent.to_string(),
            };
            let config = format!(
                "quick={} txns={} seed={} jobs={} sched={}",
                field("quick", "?"),
                field("txns", "?"),
                field("seed", "?"),
                field("jobs", "?"),
                field("sched", "fifo"),
            );
            let timings = entry
                .get("experiments")
                .and_then(Value::as_array)
                .ok_or("entry without experiments array")?
                .iter()
                .map(|case| {
                    Ok(Timing {
                        key: case
                            .get("key")
                            .and_then(Value::as_str)
                            .ok_or("timing without key")?
                            .to_string(),
                        wall_ms: case
                            .get("wall_ms")
                            .and_then(Value::as_f64)
                            .ok_or("timing without wall_ms")?,
                        ok: case.get("ok").and_then(Value::as_bool) == Some(true),
                    })
                })
                .collect::<Result<_, &str>>()?;
            Ok(Entry {
                label: entry
                    .get("label")
                    .and_then(Value::as_str)
                    .ok_or("entry without label")?
                    .to_string(),
                config,
                timings,
            })
        })
        .collect()
}

/// The nearest-rank median of a non-empty slice.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    values[(values.len() - 1) / 2]
}

struct Gate {
    tolerance: f64,
    floor_ms: f64,
    window: usize,
}

/// Compare the latest sample of every (key, config) trajectory against its
/// trailing median. Returns (regression lines, skipped-baseline count,
/// gated-key count).
fn gate(entries: &[Entry], opts: &Gate) -> (Vec<String>, usize, usize) {
    // Every sample with its entry's label and lane, in append order.
    let samples: Vec<(&Entry, &Timing)> = entries
        .iter()
        .flat_map(|e| e.timings.iter().map(move |t| (e, t)))
        .collect();
    // Trajectories keyed by (key, config), in append order.
    let mut keys: Vec<(&str, &str)> = Vec::new();
    for (e, t) in &samples {
        let id = (t.key.as_str(), e.config.as_str());
        if !keys.contains(&id) {
            keys.push(id);
        }
    }
    let mut regressions = Vec::new();
    let (mut skipped, mut gated) = (0usize, 0usize);
    for (key, config) in keys {
        let series: Vec<(&Entry, &Timing)> = samples
            .iter()
            .filter(|(e, t)| t.key == key && e.config == config && t.ok)
            .copied()
            .collect();
        let Some(((last_entry, last), priors)) = series.split_last() else {
            continue;
        };
        let tail_start = priors.len().saturating_sub(opts.window);
        // Sub-floor priors are noise (e.g. warm-cache entries riding the
        // same lane as cold runs), not baselines — and a single usable
        // sample is too jittery to serve as one on its own.
        let mut window: Vec<f64> = priors[tail_start..]
            .iter()
            .map(|(_, t)| t.wall_ms)
            .filter(|&w| w >= opts.floor_ms)
            .collect();
        if window.len() < 2 {
            skipped += 1;
            continue;
        }
        gated += 1;
        let baseline = median(&mut window);
        let excess = last.wall_ms - baseline;
        if excess > opts.tolerance * baseline && excess > opts.floor_ms {
            regressions.push(format!(
                "{key} [{config}]: {:.1} ms vs trailing median {:.1} ms (+{:.0}%, entry '{}')",
                last.wall_ms,
                baseline,
                100.0 * excess / baseline.max(1e-9),
                last_entry.label,
            ));
        }
    }
    (regressions, skipped, gated)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args)
}

/// The whole command over its arguments (program name excluded).
fn run(args: &[String]) -> ExitCode {
    let mut opts = Gate {
        tolerance: 0.75,
        floor_ms: 50.0,
        window: 5,
    };
    let mut path: Option<String> = None;
    let mut required_keys: Vec<String> = Vec::new();
    let mut bad_usage = false;
    let mut i = 0;
    while i < args.len() {
        let (flag, inline) = match args[i].split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
            _ => (args[i].clone(), None),
        };
        let value = |i: &mut usize| -> Option<String> {
            inline.clone().or_else(|| {
                *i += 1;
                args.get(*i).cloned()
            })
        };
        match flag.as_str() {
            "--tolerance" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(t) => opts.tolerance = t,
                None => bad_usage = true,
            },
            "--floor-ms" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(f) => opts.floor_ms = f,
                None => bad_usage = true,
            },
            "--window" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(w) if w >= 1 => opts.window = w,
                _ => bad_usage = true,
            },
            "--require-key" => match value(&mut i) {
                Some(k) if !k.is_empty() => required_keys.push(k),
                _ => bad_usage = true,
            },
            f if f.starts_with("--") => bad_usage = true,
            _ => match path {
                None => path = Some(args[i].clone()),
                Some(_) => bad_usage = true,
            },
        }
        i += 1;
    }
    let usage = "usage: bench_gate [--tolerance F] [--floor-ms F] [--window N] \
                 [--require-key KEY]... HISTORY.json";
    let Some(path) = path else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    if bad_usage {
        eprintln!("{usage}");
        return ExitCode::from(2);
    }

    let doc = match std::fs::read_to_string(&path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let entries = match parse_history(&doc) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let (regressions, skipped, gated) = gate(&entries, &opts);
    println!(
        "bench_gate: {gated} trajectories gated, {skipped} without baseline \
         (tolerance +{:.0}%, floor {:.0} ms, window {})",
        opts.tolerance * 100.0,
        opts.floor_ms,
        opts.window
    );
    let missing = missing_keys(&entries, &required_keys);
    for line in &missing {
        println!("MISSING KEY: {line}");
    }
    if regressions.is_empty() && missing.is_empty() {
        println!("bench_gate: no wall-clock regressions");
        ExitCode::SUCCESS
    } else {
        for line in &regressions {
            println!("REGRESSION: {line}");
        }
        ExitCode::FAILURE
    }
}

/// One line per `--require-key` coverage failure, in request order: a key
/// with no sample at all, or a lane whose latest entry lacks a key that an
/// earlier entry of the lane had.
fn missing_keys(entries: &[Entry], required: &[String]) -> Vec<String> {
    let has = |e: &Entry, key: &str| e.timings.iter().any(|t| t.key == key);
    let mut missing = Vec::new();
    for key in required {
        if !entries.iter().any(|e| has(e, key)) {
            missing.push(format!("'{key}' has no samples"));
            continue;
        }
        let mut lanes: Vec<&str> = Vec::new();
        for e in entries.iter().filter(|e| has(e, key)) {
            if !lanes.contains(&e.config.as_str()) {
                lanes.push(&e.config);
            }
        }
        for lane in lanes {
            let latest = entries
                .iter()
                .rfind(|e| e.config == lane)
                .expect("the lane has an entry");
            if !has(latest, key) {
                missing.push(format!(
                    "'{key}' is absent from the latest entry of lane [{lane}] ('{}')",
                    latest.label
                ));
            }
        }
    }
    missing
}

#[cfg(test)]
mod tests {
    use super::*;
    use dichotomy_bench::json::{append_history, bench_document, BenchTiming};

    /// A quick seed-7 `repro --bench` entry with the given timings.
    fn entry(label: &str, jobs: usize, timings: &[(&str, f64)]) -> Value {
        let timings: Vec<BenchTiming> = timings
            .iter()
            .map(|&(key, wall_ms)| BenchTiming {
                wall_ms,
                ..BenchTiming::empty(key.to_string(), true)
            })
            .collect();
        bench_document(label, true, None, 7, jobs, &timings)
    }

    fn history(entries: &[Value]) -> String {
        Value::object([
            ("generator", "repro-bench-history".into()),
            ("entries", Value::Array(entries.to_vec())),
        ])
        .to_string()
    }

    #[test]
    fn parses_the_history_format_append_history_writes() {
        let first = entry("a", 1, &[("fig04", 120.5), ("tab02", 3.0)]);
        let doc = append_history(None, first).unwrap();
        let doc = append_history(Some(&doc), entry("b", 4, &[("fig04", 95.0)])).unwrap();
        let entries = parse_history(&doc).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].label, "a");
        assert_eq!(entries[0].timings.len(), 2);
        assert_eq!(entries[0].timings[0].key, "fig04");
        assert_eq!(entries[0].timings[0].wall_ms, 120.5);
        assert!(entries[0].timings[0].ok);
        assert_eq!(
            entries[0].config,
            "quick=true txns=null seed=7 jobs=1 sched=fifo"
        );
        assert_eq!(
            entries[1].config,
            "quick=true txns=null seed=7 jobs=4 sched=lpt"
        );
        assert!(parse_history("junk").is_err());
        assert!(parse_history("{\"generator\":\"repro\",\"entries\":[]}").is_err());
        assert!(parse_history(&history(&[entry("a", 1, &[])])[..40]).is_err());
    }

    #[test]
    fn flat_trajectories_pass_and_spikes_fail() {
        let gate_opts = Gate {
            tolerance: 0.5,
            floor_ms: 10.0,
            window: 5,
        };
        let flat: Vec<Value> = (0..4)
            .map(|i| entry(&format!("e{i}"), 1, &[("fig04", 100.0)]))
            .collect();
        let entries = parse_history(&history(&flat)).unwrap();
        let (regressions, skipped, gated) = gate(&entries, &gate_opts);
        assert!(regressions.is_empty());
        assert_eq!((skipped, gated), (0, 1));

        // The last entry doubles: past tolerance and floor, so it gates.
        let mut spiked = flat.clone();
        spiked.push(entry("spike", 1, &[("fig04", 200.0)]));
        let entries = parse_history(&history(&spiked)).unwrap();
        let (regressions, _, _) = gate(&entries, &gate_opts);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("fig04"));
        assert!(regressions[0].contains("spike"));
    }

    #[test]
    fn sub_floor_priors_never_serve_as_baselines() {
        let gate_opts = Gate {
            tolerance: 0.5,
            floor_ms: 10.0,
            window: 5,
        };
        // The cache lane shape: cold runs interleaved with near-zero warm
        // runs in the same configuration. The warm samples must not drag
        // the median to ~0 and flag the honest cold wall.
        let entries: Vec<Value> = vec![
            entry("cold-1", 4, &[("fig04", 1_000.0)]),
            entry("warm-1", 4, &[("fig04", 1.0)]),
            entry("cold-2", 4, &[("fig04", 1_050.0)]),
            entry("warm-2", 4, &[("fig04", 2.0)]),
            entry("cold-3", 4, &[("fig04", 1_020.0)]),
        ];
        let entries = parse_history(&history(&entries)).unwrap();
        let (regressions, skipped, gated) = gate(&entries, &gate_opts);
        assert!(regressions.is_empty(), "{regressions:?}");
        assert_eq!((skipped, gated), (0, 1));

        // Fewer than two usable priors leaves no baseline: a median over a
        // single (jittery) cold sample must not gate the next cold run.
        let entries: Vec<Value> = vec![
            entry("cold-1", 4, &[("fig04", 1_000.0)]),
            entry("warm-1", 4, &[("fig04", 1.0)]),
            entry("cold-2", 4, &[("fig04", 1_900.0)]),
        ];
        let entries = parse_history(&history(&entries)).unwrap();
        let (regressions, skipped, gated) = gate(&entries, &gate_opts);
        assert!(regressions.is_empty(), "{regressions:?}");
        assert_eq!((skipped, gated), (1, 0));

        // All-sub-floor priors leave no baseline at all: skip, don't gate.
        let entries: Vec<Value> = vec![
            entry("warm-1", 4, &[("fig04", 1.0)]),
            entry("warm-2", 4, &[("fig04", 2.0)]),
            entry("cold-1", 4, &[("fig04", 1_000.0)]),
        ];
        let entries = parse_history(&history(&entries)).unwrap();
        let (regressions, skipped, gated) = gate(&entries, &gate_opts);
        assert!(regressions.is_empty());
        assert_eq!((skipped, gated), (1, 0));
    }

    #[test]
    fn the_floor_absorbs_noise_on_fast_cases() {
        let gate_opts = Gate {
            tolerance: 0.5,
            floor_ms: 10.0,
            window: 5,
        };
        // 2 ms → 5 ms is +150 % but only 3 ms absolute: under the floor.
        let entries: Vec<Value> = vec![
            entry("a", 1, &[("tab02", 2.0)]),
            entry("b", 1, &[("tab02", 2.0)]),
            entry("c", 1, &[("tab02", 5.0)]),
        ];
        let entries = parse_history(&history(&entries)).unwrap();
        let (regressions, _, _) = gate(&entries, &gate_opts);
        assert!(regressions.is_empty());
    }

    #[test]
    fn different_configurations_never_cross_compare() {
        let gate_opts = Gate {
            tolerance: 0.5,
            floor_ms: 10.0,
            window: 5,
        };
        // jobs=1 entries are slow, jobs=4 fast; the latest jobs=4 entry must
        // not be compared against a jobs=1 baseline (or vice versa).
        let entries: Vec<Value> = vec![
            entry("a1", 1, &[("fig04", 400.0)]),
            entry("a2", 4, &[("fig04", 100.0)]),
            entry("b1", 1, &[("fig04", 410.0)]),
            entry("b2", 4, &[("fig04", 105.0)]),
            entry("c1", 1, &[("fig04", 395.0)]),
            entry("c2", 4, &[("fig04", 95.0)]),
        ];
        let entries = parse_history(&history(&entries)).unwrap();
        let (regressions, skipped, gated) = gate(&entries, &gate_opts);
        assert!(regressions.is_empty());
        assert_eq!((skipped, gated), (0, 2));
    }

    #[test]
    fn scheduler_regimes_form_separate_lanes() {
        // Entries written before the `sched` field default to "fifo" and
        // must never baseline an "lpt" entry: the per-experiment worker-time
        // attribution differs between regimes on oversubscribed hosts.
        let gate_opts = Gate {
            tolerance: 0.5,
            floor_ms: 10.0,
            window: 5,
        };
        let mut entries: Vec<Value> = (0..3)
            .map(|i| {
                let mut legacy = entry(&format!("old{i}"), 4, &[("ramp01", 90.0)]);
                if let Value::Object(fields) = &mut legacy {
                    fields.retain(|(name, _)| name != "sched");
                }
                legacy
            })
            .collect();
        // Same quick/txns/seed/jobs, 4x slower — but a different scheduler.
        entries.push(entry("new", 4, &[("ramp01", 360.0)]));
        let entries = parse_history(&history(&entries)).unwrap();
        assert!(entries[2].config.contains("sched=fifo"), "legacy default");
        assert!(entries[3].config.contains("sched=lpt"));
        let (regressions, skipped, gated) = gate(&entries, &gate_opts);
        assert!(regressions.is_empty(), "{regressions:?}");
        assert_eq!((skipped, gated), (1, 1));
    }

    #[test]
    fn require_key_flags_absent_keys_and_accepts_present_ones() {
        let doc = history(&[
            entry("cold", 1, &[("fig04", 10.0), ("scale01", 20.0)]),
            entry("warm", 1, &[("fig04", 1.0), ("scale01", 2.0)]),
        ]);
        let entries = parse_history(&doc).unwrap();
        let keys = |ks: &[&str]| ks.iter().map(|k| k.to_string()).collect::<Vec<_>>();
        assert!(missing_keys(&entries, &keys(&["fig04", "scale01"])).is_empty());
        // Entry labels are not timing keys.
        assert_eq!(
            missing_keys(&entries, &keys(&["chaos01", "fig04", "warm"])),
            vec!["'chaos01' has no samples", "'warm' has no samples"]
        );
        assert!(missing_keys(&[], &[]).is_empty());
    }

    #[test]
    fn a_lane_whose_latest_entry_drops_a_required_key_fails() {
        // scale01 ran in both lanes, then the jobs-1 lane's latest run left
        // it out: an earlier sample no longer proves coverage.
        let mut entries = vec![
            entry("a1", 1, &[("fig04", 100.0), ("scale01", 900.0)]),
            entry("a4", 4, &[("fig04", 60.0), ("scale01", 500.0)]),
            entry("b1", 1, &[("fig04", 100.0)]),
            entry("b4", 4, &[("fig04", 60.0), ("scale01", 500.0)]),
        ];
        let parsed = parse_history(&history(&entries)).unwrap();
        let required = ["scale01".to_string(), "fig04".to_string()];
        let missing = missing_keys(&parsed, &required);
        assert_eq!(missing.len(), 1, "{missing:?}");
        assert!(missing[0].contains("jobs=1") && missing[0].contains("'b1'"));
        // Through the command: exit 1, and 0 once the lane covers it again.
        let path = std::env::temp_dir().join(format!(
            "bench_gate_dropped_key_{}.json",
            std::process::id()
        ));
        let args = |path: &std::path::Path| {
            ["--require-key", "scale01", path.to_str().unwrap()].map(String::from)
        };
        std::fs::write(&path, history(&entries)).unwrap();
        let dropped = run(&args(&path));
        entries.push(entry("c1", 1, &[("fig04", 100.0), ("scale01", 900.0)]));
        std::fs::write(&path, history(&entries)).unwrap();
        let restored = run(&args(&path));
        std::fs::remove_file(&path).unwrap();
        assert_eq!(dropped, ExitCode::FAILURE);
        assert_eq!(restored, ExitCode::SUCCESS);
        // A lane the key never ran in does not need it.
        let fresh_lane = parse_history(&history(&[
            entry("a1", 1, &[("scale01", 900.0)]),
            entry("micro", 2, &[("sha256_1kb", 0.001)]),
        ]))
        .unwrap();
        assert!(missing_keys(&fresh_lane, &required[..1]).is_empty());
    }

    #[test]
    fn entries_with_probe_calibration_arrays_still_parse_to_experiment_walls() {
        // Timing entries carry probe accounting and a nested calibration
        // array with its own `wall_ms` fields; the experiment-level wall is
        // the one read.
        let timing = BenchTiming {
            key: "fig04".into(),
            wall_ms: 42.5,
            rows: 5,
            failed_probes: 0,
            ok: true,
            probes: 8,
            distinct_probes: 7,
            cache_hits: 2,
            dedup_saved_ms: 3.5,
            calibration: vec![dichotomy_core::scenario::ProbeCalibration {
                probe: "etcd".into(),
                predicted: f64::NAN,
                wall_ms: 11.5,
            }],
        };
        let doc = history(&[bench_document("pr8", true, None, 7, 4, &[timing])]);
        let entries = parse_history(&doc).unwrap();
        assert_eq!(
            entries[0].timings.len(),
            1,
            "calibration objects are not timings"
        );
        assert_eq!(entries[0].timings[0].key, "fig04");
        assert_eq!(
            entries[0].timings[0].wall_ms, 42.5,
            "experiment wall, not a probe's"
        );
        assert!(entries[0].timings[0].ok);
    }

    #[test]
    fn short_trajectories_are_skipped_not_gated() {
        let gate_opts = Gate {
            tolerance: 0.5,
            floor_ms: 10.0,
            window: 5,
        };
        // Two entries = one prior: not enough history to call a regression.
        let entries: Vec<Value> = vec![
            entry("a", 1, &[("new_case", 10.0)]),
            entry("b", 1, &[("new_case", 500.0)]),
        ];
        let entries = parse_history(&history(&entries)).unwrap();
        let (regressions, skipped, gated) = gate(&entries, &gate_opts);
        assert!(regressions.is_empty());
        assert_eq!((skipped, gated), (1, 0));
    }
}
