//! The documents `repro` and `microbench` write, built as
//! [`Value`](dichotomy_core::common::json::Value) trees and rendered by the
//! workspace's one JSON writer (`dichotomy_common::json`): field order as
//! built here, floats in Rust's shortest round-trip form, and non-finite
//! values (the `NaN` a missing reported throughput produces) as `null`.
//!
//! Each row additionally carries `series`: one windowed time series per
//! driving probe (`{"name", "events_clamped", "oracles", "window_us",
//! "warmup_us", "windows": [{"start_us", "end_us", "submitted", "committed",
//! "aborted", "offered_tps", "tps", "abort_pct", "p50_us", "p95_us",
//! "p99_us"}]}`) — empty for non-driving probes. `submitted`/`offered_tps`
//! are the offered side of the window (bucketed by submit time);
//! `committed`/`tps` the achieved side. `oracles` is the invariant-oracle
//! report for the probe's run: `[{"name", "violation"}]` with `violation`
//! `null` on a pass (probes reaching the report always pass — a violation
//! becomes a labelled entry in `failures` instead).

use dichotomy_core::common::json::{self, Value};
use dichotomy_core::experiments::{ExperimentReport, RowSeries};
use dichotomy_core::scenario::{fnv1a_64, PlanOutcome, ProbeCalibration};
use dichotomy_explore::ExploreOutcome;

/// One experiment's wall-clock timing, for the `repro --bench` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchTiming {
    /// Experiment key (`fig04`, ...).
    pub key: String,
    /// Wall-clock milliseconds spent running the experiment.
    pub wall_ms: f64,
    /// Rows the report produced (0 when the whole experiment failed).
    pub rows: usize,
    /// Probes that panicked inside the run.
    pub failed_probes: usize,
    /// Whether the experiment completed (false: it panicked outright or was
    /// missing from the dispatch table).
    pub ok: bool,
    /// Probe slots the plan scheduled.
    pub probes: usize,
    /// Distinct probe keys actually executed (or loaded) — the rest were
    /// deduplicated onto these.
    pub distinct_probes: usize,
    /// Distinct probes answered from the result cache.
    pub cache_hits: usize,
    /// Worker milliseconds the probe deduplication saved this experiment
    /// (the representative's wall, once per avoided duplicate).
    pub dedup_saved_ms: f64,
    /// Predicted-vs-actual wall per executed probe, in execution order —
    /// the calibration record of the cost-predicted scheduler.
    pub calibration: Vec<ProbeCalibration>,
}

impl BenchTiming {
    /// A timing entry with the given headline numbers and no probe
    /// accounting (used for plans that failed to expand).
    pub fn empty(key: String, ok: bool) -> Self {
        BenchTiming {
            key,
            wall_ms: 0.0,
            rows: 0,
            failed_probes: 0,
            ok,
            probes: 0,
            distinct_probes: 0,
            cache_hits: 0,
            dedup_saved_ms: 0.0,
            calibration: Vec::new(),
        }
    }

    /// The timing entry of a plan that ran: its probe worker time and probe
    /// accounting.
    pub fn from_outcome(key: String, outcome: &PlanOutcome) -> Self {
        BenchTiming {
            key,
            wall_ms: outcome.probe_wall_ms,
            rows: outcome.report.rows.len(),
            failed_probes: outcome.report.failures.len(),
            ok: true,
            probes: outcome.probes,
            distinct_probes: outcome.distinct_probes,
            cache_hits: outcome.cache_hits,
            dedup_saved_ms: outcome.dedup_saved_ms,
            calibration: outcome.calibration.clone(),
        }
    }
}

/// One report: key, id, title, rows (label, named values, series), probe
/// failures and the preformatted text of qualitative reports.
pub fn report(key: &str, report: &ExperimentReport) -> Value {
    Value::object([
        ("key", key.into()),
        ("id", report.id.into()),
        ("title", report.title.into()),
        (
            "rows",
            Value::array(report.rows.iter().map(|row| {
                Value::object([
                    ("label", (&row.label).into()),
                    (
                        "values",
                        Value::array(row.values.iter().map(|(column, value)| {
                            Value::object([("column", column.into()), ("value", (*value).into())])
                        })),
                    ),
                    ("series", Value::array(row.series.iter().map(row_series))),
                ])
            })),
        ),
        (
            "failures",
            Value::array(report.failures.iter().map(|f| {
                Value::object([
                    ("row", (&f.row).into()),
                    ("probe", (&f.probe).into()),
                    ("index", f.index.into()),
                    ("message", (&f.message).into()),
                ])
            })),
        ),
        ("text", report.text.as_deref().into()),
    ])
}

/// One windowed time series attached to a row.
fn row_series(s: &RowSeries) -> Value {
    Value::object([
        ("name", (&s.name).into()),
        ("events_clamped", s.events_clamped.into()),
        (
            "oracles",
            Value::array(s.oracles.outcomes.iter().map(|o| {
                Value::object([
                    ("name", o.name.into()),
                    ("violation", o.violation.as_deref().into()),
                ])
            })),
        ),
        ("window_us", s.series.window_us.into()),
        ("warmup_us", s.series.warmup_us.into()),
        (
            "windows",
            Value::array(s.series.windows.iter().map(|w| {
                Value::object([
                    ("start_us", w.start_us.into()),
                    ("end_us", w.end_us.into()),
                    ("submitted", w.submitted.into()),
                    ("committed", w.committed.into()),
                    ("aborted", w.aborted.into()),
                    ("offered_tps", w.offered_tps.into()),
                    ("tps", w.throughput_tps.into()),
                    ("abort_pct", w.abort_rate_percent.into()),
                    ("p50_us", w.latency.p50_us.into()),
                    ("p95_us", w.latency.p95_us.into()),
                    ("p99_us", w.latency.p99_us.into()),
                ])
            })),
        ),
    ])
}

/// Serialize a full `repro` run: the options used plus every report.
pub fn document(
    quick: bool,
    txns: Option<u64>,
    seed: u64,
    reports: &[(String, ExperimentReport)],
) -> String {
    Value::object([
        ("generator", "repro".into()),
        ("quick", quick.into()),
        ("txns", txns.into()),
        ("seed", seed.into()),
        (
            "experiments",
            Value::array(reports.iter().map(|(key, rep)| report(key, rep))),
        ),
    ])
    .to_string()
}

/// One `repro --bench` run: the label (`--bench-key`, typically a
/// `git describe`/date tag so the trajectory is keyed per PR), the options
/// and worker count used, the total worker time, and one timing entry per
/// experiment. Entries accumulate in a history document (see
/// [`append_history`]) — `scripts/ci.sh` appends a `--jobs 1` / `--jobs N`
/// pair to `BENCH_history.json` on every run.
pub fn bench_document(
    label: &str,
    quick: bool,
    txns: Option<u64>,
    seed: u64,
    jobs: usize,
    timings: &[BenchTiming],
) -> Value {
    let total_wall_ms: f64 = timings.iter().map(|t| t.wall_ms).sum();
    // The scheduling regime is part of the run configuration: with more
    // than one worker the deduped queue runs longest-predicted-first, which
    // changes which probes contend on oversubscribed hosts — per-experiment
    // worker time is only comparable within one regime, so `bench_gate`
    // folds `sched` into the trajectory lane (absent = the historical
    // "fifo").
    let sched = if jobs > 1 { "lpt" } else { "fifo" };
    Value::object([
        ("generator", "repro-bench".into()),
        ("label", label.into()),
        ("quick", quick.into()),
        ("txns", txns.into()),
        ("seed", seed.into()),
        ("jobs", jobs.into()),
        ("sched", sched.into()),
        ("total_wall_ms", total_wall_ms.into()),
        (
            "experiments",
            Value::array(timings.iter().map(|t| {
                Value::object([
                    ("key", (&t.key).into()),
                    ("wall_ms", t.wall_ms.into()),
                    ("rows", t.rows.into()),
                    ("failed_probes", t.failed_probes.into()),
                    ("ok", t.ok.into()),
                    ("probes", t.probes.into()),
                    ("distinct_probes", t.distinct_probes.into()),
                    ("cache_hits", t.cache_hits.into()),
                    ("dedup_saved_ms", t.dedup_saved_ms.into()),
                    (
                        "calibration",
                        Value::array(t.calibration.iter().map(|c| {
                            Value::object([
                                ("probe", (&c.probe).into()),
                                ("predicted", c.predicted.into()),
                                ("wall_ms", c.wall_ms.into()),
                            ])
                        })),
                    ),
                ])
            })),
        ),
    ])
}

/// Serialize one `repro explore` run.
///
/// The document is deterministic for a given spec: the grid funnel, every
/// pruned candidate (the cut is logged, never silent), every measured
/// design with its Pareto-front flag, and the calibration section —
/// Kendall's τ rank agreement, per-taxonomy-cell forecast error with the
/// fitted correction, and the scheduler's per-probe cost predictions.
/// `scheduling` carries `(probe, predicted, wall_ms)` triples in plan
/// order; `wall_ms` is `None` (→ `null`) unless the caller opted into
/// actual walls (`--sched-walls`), which trades byte-identical output for
/// the predicted-vs-actual feed.
pub fn explore_document(
    quick: bool,
    txns: u64,
    seed: u64,
    outcome: &ExploreOutcome,
    scheduling: &[(String, f64, Option<f64>)],
) -> String {
    // No worker count in the header: the document is byte-compared across
    // `--jobs` values, so only inputs that determine results may appear.
    // Probe accounting likewise stops at the deterministic counters: wall
    // clocks and cache hits vary run to run and would break the
    // byte-identical cold/warm and jobs-1/jobs-N comparisons.
    Value::object([
        ("generator", "repro-explore".into()),
        ("quick", quick.into()),
        ("txns", txns.into()),
        ("seed", seed.into()),
        (
            "grid",
            Value::object([
                ("points", outcome.grid_points.into()),
                ("sampled_out", outcome.sampled_out.into()),
                ("pruned", outcome.cut.len().into()),
                ("measured", outcome.designs.len().into()),
            ]),
        ),
        (
            "pruned",
            Value::array(outcome.cut.iter().map(|c| {
                Value::object([
                    ("name", (&c.name).into()),
                    ("forecast_tps", c.forecast_tps.into()),
                    ("group_best_tps", c.group_best_tps.into()),
                ])
            })),
        ),
        (
            "designs",
            Value::array(outcome.designs.iter().map(|d| {
                Value::object([
                    ("name", (&d.name).into()),
                    ("cell", (&d.cell).into()),
                    ("forecast_tps", d.forecast_tps.into()),
                    ("tps", d.measured_tps.into()),
                    ("p99_ms", d.p99_ms.into()),
                    ("recovery_ms", d.recovery_ms.into()),
                    ("pareto", d.on_front.into()),
                ])
            })),
        ),
        (
            "pareto_front",
            Value::array(
                outcome
                    .designs
                    .iter()
                    .filter(|d| d.on_front)
                    .map(|d| &d.name),
            ),
        ),
        (
            "calibration",
            Value::object([
                ("kendall_tau", outcome.kendall_tau.into()),
                (
                    "cells",
                    Value::array(outcome.cells.iter().map(|c| {
                        Value::object([
                            ("cell", (&c.cell).into()),
                            ("designs", c.designs.into()),
                            ("mean_abs_rel_err", c.mean_abs_rel_err.into()),
                            ("correction", c.correction.into()),
                        ])
                    })),
                ),
                (
                    "scheduling",
                    Value::array(scheduling.iter().map(|(probe, predicted, wall_ms)| {
                        Value::object([
                            ("probe", probe.into()),
                            ("predicted", (*predicted).into()),
                            ("wall_ms", (*wall_ms).into()),
                        ])
                    })),
                ),
            ]),
        ),
        (
            "probes",
            Value::object([
                ("scheduled", outcome.plan.probes.into()),
                ("distinct", outcome.plan.distinct_probes.into()),
            ]),
        ),
    ])
    .to_string()
}

/// The `generator` stamp of a bench-history document.
const HISTORY_GENERATOR: &str = "repro-bench-history";

/// A stable fallback `--bench-key`: a digest of the run's own parameters,
/// for environments where `git describe` has nothing to say (tarball
/// checkouts, shallow CI clones). Identical run configurations map to the
/// same key, so trailing-entry comparisons in the trajectory still line up;
/// the wall clock is never consulted.
pub fn stable_bench_key(quick: bool, txns: Option<u64>, seed: u64, jobs: usize) -> String {
    let params = format!(
        "quick={quick};txns={};seed={seed};jobs={jobs}",
        match txns {
            Some(n) => n.to_string(),
            None => "default".to_string(),
        }
    );
    format!(
        "run-{}{}-j{jobs}-{:08x}",
        if quick { "quick" } else { "full" },
        match txns {
            Some(n) => format!("-t{n}"),
            None => String::new(),
        },
        fnv1a_64(params.as_bytes())
    )
}

/// Append one [`bench_document`] entry to a bench-history document,
/// returning the new document. `existing` is the current file content
/// (`None` or blank starts a fresh history). The history format is
/// `{"generator":"repro-bench-history","entries":[…]}`; a file that does not
/// parse as one is refused rather than silently overwritten. The existing
/// entries are written back unchanged, byte for byte. An entry that is
/// byte-identical to *any* entry already recorded (same label *and*
/// payload — e.g. a re-run script appending the same document twice, or an
/// all-zero warm-cache run) leaves the history unchanged instead of
/// duplicating it.
pub fn append_history(existing: Option<&str>, entry: Value) -> Result<String, String> {
    let mut entries = match existing.map(str::trim) {
        None | Some("") => Vec::new(),
        Some(text) => {
            let refuse = |why: String| {
                format!("not a {HISTORY_GENERATOR} document ({why}; refusing to overwrite)")
            };
            let doc = json::parse(text).map_err(refuse)?;
            if doc.get("generator").and_then(Value::as_str) != Some(HISTORY_GENERATOR) {
                return Err(refuse("wrong generator".to_string()));
            }
            doc.get("entries")
                .and_then(Value::as_array)
                .ok_or_else(|| refuse("no entries array".to_string()))?
                .to_vec()
        }
    };
    let written = entry.to_string();
    if !entries.iter().any(|e| e.to_string() == written) {
        entries.push(entry);
    }
    Ok(Value::object([
        ("generator", HISTORY_GENERATOR.into()),
        ("entries", Value::Array(entries)),
    ])
    .to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dichotomy_core::chaos::{OracleOutcome, OracleReport};
    use dichotomy_core::experiments::Row;
    use dichotomy_core::metrics::{LatencySummary, TimeSeries, TimeWindow};

    fn sample() -> ExperimentReport {
        ExperimentReport {
            id: "Figure 0",
            title: "sample \"quoted\"",
            rows: vec![Row {
                label: "θ=1".into(),
                values: vec![("tps".into(), 12.5), ("missing".into(), f64::NAN)],
                series: Vec::new(),
            }],
            failures: Vec::new(),
            text: None,
        }
    }

    fn sample_with_series() -> ExperimentReport {
        let mut report = sample();
        report.rows[0].series.push(RowSeries {
            name: "etcd".into(),
            events_clamped: 0,
            oracles: OracleReport {
                outcomes: vec![
                    OracleOutcome {
                        name: "receipt-conservation",
                        violation: None,
                    },
                    OracleOutcome {
                        name: "no-duplicate-receipt",
                        violation: Some("transaction receipted \"twice\"".into()),
                    },
                ],
            },
            series: TimeSeries {
                window_us: 1_000,
                warmup_us: 0,
                windows: vec![TimeWindow {
                    start_us: 0,
                    end_us: 1_000,
                    submitted: 4,
                    committed: 3,
                    aborted: 1,
                    offered_tps: 4_000.0,
                    throughput_tps: 3_000.0,
                    abort_rate_percent: 25.0,
                    latency: LatencySummary {
                        mean_us: 10.0,
                        p50_us: 10,
                        p95_us: 12,
                        p99_us: 12,
                        max_us: 12,
                    },
                }],
            },
        });
        report
    }

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        let mut rep = sample();
        rep.text = Some("a\"b\\c\nd\te\u{1}".into());
        assert!(report("k", &rep)
            .to_string()
            .ends_with("\"text\":\"a\\\"b\\\\c\\nd\\te\\u0001\"}"));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let mut rep = sample();
        rep.rows[0].values = vec![
            ("a".into(), 1.5),
            ("b".into(), f64::NAN),
            ("c".into(), f64::INFINITY),
        ];
        assert!(report("k", &rep).to_string().contains(
            "\"values\":[{\"column\":\"a\",\"value\":1.5},{\"column\":\"b\",\"value\":null},\
             {\"column\":\"c\",\"value\":null}]"
        ));
    }

    #[test]
    fn report_serialization_contains_rows_and_nan_as_null() {
        let json = report("fig00", &sample()).to_string();
        assert!(json.starts_with("{\"key\":\"fig00\",\"id\":\"Figure 0\""));
        assert!(json.contains("\"label\":\"θ=1\""));
        assert!(json.contains("{\"column\":\"tps\",\"value\":12.5}"));
        assert!(json.contains("{\"column\":\"missing\",\"value\":null}"));
        assert!(json.contains("\"series\":[]"));
        assert!(json.contains("\"failures\":[]"));
        assert!(json.ends_with("\"text\":null}"));
    }

    #[test]
    fn probe_failures_serialize_with_their_labels() {
        let mut rep = sample();
        rep.failures
            .push(dichotomy_core::experiments::ProbeFailure {
                row: "θ=1".into(),
                probe: "TiKV".into(),
                index: 1,
                message: "cannot build \"TiKV\"".into(),
            });
        let json = report("fig00", &rep).to_string();
        assert!(json.contains(
            "\"failures\":[{\"row\":\"θ=1\",\"probe\":\"TiKV\",\"index\":1,\
             \"message\":\"cannot build \\\"TiKV\\\"\"}]"
        ));
    }

    #[test]
    fn time_series_serialize_per_row() {
        let json = report("fig00", &sample_with_series()).to_string();
        assert!(json.contains(
            "\"series\":[{\"name\":\"etcd\",\"events_clamped\":0,\"oracles\":[\
             {\"name\":\"receipt-conservation\",\"violation\":null},\
             {\"name\":\"no-duplicate-receipt\",\"violation\":\
             \"transaction receipted \\\"twice\\\"\"}],\"window_us\":1000,\
             \"warmup_us\":0,\"windows\":["
        ));
        assert!(json.contains(
            "{\"start_us\":0,\"end_us\":1000,\"submitted\":4,\"committed\":3,\"aborted\":1,\
             \"offered_tps\":4000,\"tps\":3000,\"abort_pct\":25,\"p50_us\":10,\"p95_us\":12,\
             \"p99_us\":12}"
        ));
    }

    #[test]
    fn document_wraps_options_and_reports() {
        let doc = document(true, Some(300), 7, &[("fig00".to_string(), sample())]);
        assert!(doc.starts_with(
            "{\"generator\":\"repro\",\"quick\":true,\"txns\":300,\"seed\":7,\"experiments\":["
        ));
        assert!(doc.ends_with("]}"));
        let doc_default = document(false, None, 7, &[]);
        assert!(doc_default.contains("\"txns\":null"));
        assert!(doc_default.contains("\"experiments\":[]"));
    }

    #[test]
    fn bench_documents_carry_jobs_and_per_experiment_wall_clock() {
        let timings = vec![
            BenchTiming {
                key: "fig04".into(),
                wall_ms: 12.5,
                rows: 5,
                failed_probes: 0,
                ok: true,
                probes: 8,
                distinct_probes: 7,
                cache_hits: 2,
                dedup_saved_ms: 3.5,
                calibration: vec![ProbeCalibration {
                    probe: "etcd".into(),
                    predicted: 1200.0,
                    wall_ms: 11.5,
                }],
            },
            BenchTiming {
                key: "fig09".into(),
                wall_ms: 7.5,
                rows: 0,
                failed_probes: 1,
                ok: false,
                probes: 0,
                distinct_probes: 0,
                cache_hits: 0,
                dedup_saved_ms: 0.0,
                calibration: Vec::new(),
            },
        ];
        let doc = bench_document("pr5-jobs4", true, None, 7, 4, &timings).to_string();
        assert!(doc.starts_with(
            "{\"generator\":\"repro-bench\",\"label\":\"pr5-jobs4\",\"quick\":true,\
             \"txns\":null,\"seed\":7,\"jobs\":4,\"sched\":\"lpt\",\"total_wall_ms\":20,\
             \"experiments\":["
        ));
        assert!(doc.contains(
            "{\"key\":\"fig04\",\"wall_ms\":12.5,\"rows\":5,\"failed_probes\":0,\"ok\":true,\
             \"probes\":8,\"distinct_probes\":7,\"cache_hits\":2,\"dedup_saved_ms\":3.5,\
             \"calibration\":[{\"probe\":\"etcd\",\"predicted\":1200,\"wall_ms\":11.5}]}"
        ));
        assert!(doc.contains(
            "{\"key\":\"fig09\",\"wall_ms\":7.5,\"rows\":0,\"failed_probes\":1,\"ok\":false,\
             \"probes\":0,\"distinct_probes\":0,\"cache_hits\":0,\"dedup_saved_ms\":0,\
             \"calibration\":[]}"
        ));
        assert!(doc.ends_with("]}"));
        let empty = bench_document("x", false, Some(42), 1, 1, &[]).to_string();
        assert!(empty.contains("\"txns\":42") && empty.contains("\"experiments\":[]"));
        assert!(
            empty.contains("\"sched\":\"fifo\""),
            "one worker keeps first-occurrence order"
        );
    }

    #[test]
    fn a_real_bench_document_parses_back_with_its_probe_accounting() {
        use crate::{plan_for, RunOptions};
        use dichotomy_core::scenario::{run_plans_with, ExecOptions};
        use dichotomy_core::systems::SystemRegistry;
        let opts = RunOptions {
            txns: Some(200),
            ..RunOptions::quick()
        };
        let mut plan = plan_for("fig13", &opts).unwrap();
        // A repeated row: its probes deduplicate onto the first row's.
        plan.rows.push(plan.rows[0].clone());
        let outcome = run_plans_with(
            &[&plan],
            &SystemRegistry::with_builtins(),
            &ExecOptions::with_jobs(1),
        )
        .remove(0);
        let timing = BenchTiming::from_outcome("fig13".into(), &outcome);
        let doc = bench_document("real", true, Some(200), 7, 1, &[timing]).to_string();
        let parsed = json::parse(&doc).unwrap();
        assert_eq!(parsed.to_string(), doc);
        let experiment = &parsed.get("experiments").and_then(Value::as_array).unwrap()[0];
        let field = |name: &str| experiment.get(name).and_then(Value::as_f64).unwrap();
        assert!(field("probes") > field("distinct_probes"));
        assert!(field("dedup_saved_ms") > 0.0, "{doc}");
        let calibration = experiment
            .get("calibration")
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(calibration.len() as f64, field("distinct_probes"));
        for c in calibration {
            assert!(!c.get("probe").and_then(Value::as_str).unwrap().is_empty());
            assert!(c.get("predicted").and_then(Value::as_f64).unwrap() > 0.0);
            assert!(c.get("wall_ms").and_then(Value::as_f64).unwrap() >= 0.0);
        }
    }

    #[test]
    fn explore_documents_hold_the_funnel_front_and_calibration() {
        use dichotomy_core::scenario::PlanOutcome;
        use dichotomy_explore::{CellCalibration, CutDesign, Design, ExploreOutcome};
        let design = |name: &str, tps: f64, on_front: bool| Design {
            name: name.into(),
            cell: "StorageBased|Raft|Serial".into(),
            forecast_tps: 100.0,
            measured_tps: tps,
            p99_ms: 2.5,
            recovery_ms: 0.0,
            on_front,
        };
        let outcome = ExploreOutcome {
            grid_points: 14,
            sampled_out: 2,
            cut: vec![CutDesign {
                name: "quorum/n4".into(),
                forecast_tps: 10.0,
                group_best_tps: 100.0,
            }],
            designs: vec![
                design("etcd/n4", 90.0, true),
                design("failed", f64::NAN, false),
            ],
            kendall_tau: f64::NAN,
            cells: vec![CellCalibration {
                cell: "StorageBased|Raft|Serial".into(),
                designs: 1,
                mean_abs_rel_err: 0.1,
                correction: 1.25,
            }],
            scheduling: Vec::new(),
            plan: PlanOutcome {
                report: ExperimentReport {
                    id: "Explore 1",
                    title: "t",
                    rows: Vec::new(),
                    failures: Vec::new(),
                    text: None,
                },
                probe_wall_ms: 123.0,
                probes: 4,
                distinct_probes: 3,
                cache_hits: 1,
                dedup_saved_ms: 0.5,
                calibration: Vec::new(),
            },
        };
        let sched = vec![
            ("etcd/n4".to_string(), 120.0, None),
            ("etcd/n4#chaos".to_string(), 50.0, Some(3.25)),
        ];
        let doc = explore_document(true, 300, 7, &outcome, &sched);
        assert!(doc.starts_with(
            "{\"generator\":\"repro-explore\",\"quick\":true,\"txns\":300,\"seed\":7,\
             \"grid\":{\"points\":14,\"sampled_out\":2,\"pruned\":1,\"measured\":2}"
        ));
        assert!(doc.contains(
            "\"pruned\":[{\"name\":\"quorum/n4\",\"forecast_tps\":10,\"group_best_tps\":100}]"
        ));
        assert!(doc.contains("\"tps\":90") && doc.contains("\"pareto\":true"));
        assert!(doc.contains("\"tps\":null"), "failed design's NaN → null");
        assert!(doc.contains("\"pareto_front\":[\"etcd/n4\"]"));
        assert!(doc.contains("\"calibration\":{\"kendall_tau\":null,\"cells\":["));
        assert!(doc.contains("\"correction\":1.25"));
        assert!(doc.contains("{\"probe\":\"etcd/n4\",\"predicted\":120,\"wall_ms\":null}"));
        assert!(doc.contains("{\"probe\":\"etcd/n4#chaos\",\"predicted\":50,\"wall_ms\":3.25}"));
        assert!(doc.ends_with("\"probes\":{\"scheduled\":4,\"distinct\":3}}"));
        // Wall clocks and cache hits are nondeterministic: they must never
        // reach this document (cold/warm runs are compared byte-for-byte).
        assert!(!doc.contains("cache_hits") && !doc.contains("123"));
    }

    #[test]
    fn bench_history_accumulates_entries_across_appends() {
        let entry = |label: &str| bench_document(label, true, None, 7, 1, &[]);
        // A fresh history wraps the first entry.
        let first = append_history(None, entry("pr5-jobs1")).unwrap();
        assert!(first.starts_with("{\"generator\":\"repro-bench-history\",\"entries\":["));
        assert!(first.ends_with("]}"));
        assert_eq!(first.matches("\"generator\":\"repro-bench\"").count(), 1);
        // Appending keeps earlier entries; whitespace around the document is
        // tolerated (editors add trailing newlines).
        let second = append_history(Some(&format!("{first}\n")), entry("pr6-jobs1")).unwrap();
        assert_eq!(second.matches("\"generator\":\"repro-bench\"").count(), 2);
        assert!(second.contains("\"label\":\"pr5-jobs1\""));
        assert!(second.contains("\"label\":\"pr6-jobs1\""));
        let third = append_history(Some(&second), entry("pr7-jobs4")).unwrap();
        assert_eq!(third.matches("\"label\":").count(), 3);
        // An empty file behaves like a missing one; an alien document is
        // refused, never clobbered.
        assert_eq!(append_history(Some("  \n"), entry("a")).unwrap(), {
            append_history(None, entry("a")).unwrap()
        });
        assert!(append_history(Some("{\"generator\":\"repro\"}"), entry("a")).is_err());
        assert!(append_history(Some("garbage"), entry("a")).is_err());
    }

    #[test]
    fn bench_history_dedupes_byte_identical_entries() {
        let entry = bench_document("same", true, None, 7, 1, &[]);
        let other = bench_document("other", true, None, 7, 1, &[]);
        // Re-appending the identical entry leaves the history unchanged,
        // wherever in the entry list it already sits.
        let first = append_history(None, entry.clone()).unwrap();
        assert_eq!(append_history(Some(&first), entry.clone()).unwrap(), first);
        let two = append_history(Some(&first), other.clone()).unwrap();
        assert_eq!(append_history(Some(&two), entry).unwrap(), two);
        assert_eq!(append_history(Some(&two), other).unwrap(), two);
        // A same-key entry with a *different* payload still appends: re-runs
        // with new numbers are trajectory, not duplication.
        let rerun = bench_document("same", true, None, 9, 1, &[]);
        let three = append_history(Some(&two), rerun).unwrap();
        assert_eq!(three.matches("\"label\":\"same\"").count(), 2);
    }

    #[test]
    fn appending_keeps_every_committed_history_byte() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_history.json");
        let committed = std::fs::read_to_string(path).unwrap();
        let committed = committed.trim();
        assert_eq!(json::parse(committed).unwrap().to_string(), committed);
        let entry = bench_document("appended", true, None, 7, 1, &[]);
        let written = entry.to_string();
        let appended = append_history(Some(committed), entry).unwrap();
        let kept = committed.strip_suffix("]}").unwrap();
        assert_eq!(appended, format!("{kept},{written}]}}"));
    }

    #[test]
    fn stable_bench_key_is_deterministic_and_parameter_sensitive() {
        let key = stable_bench_key(true, None, 7, 1);
        assert_eq!(key, stable_bench_key(true, None, 7, 1));
        assert!(key.starts_with("run-quick-j1-"));
        // Every parameter reaches the digest.
        for different in [
            stable_bench_key(false, None, 7, 1),
            stable_bench_key(true, Some(42), 7, 1),
            stable_bench_key(true, None, 8, 1),
            stable_bench_key(true, None, 7, 2),
        ] {
            assert_ne!(key, different);
        }
    }
}
