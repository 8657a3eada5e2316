//! Smoke coverage of the full experiment dispatch table: every id in
//! `EXPERIMENTS` must produce a non-empty report in quick mode (the quick
//! path scales the heavyweight sweeps down), seeded runs must be bit-for-bit
//! reproducible, and the `--json` document must be valid JSON covering every
//! experiment.

use dichotomy_bench::{json, run_experiment, RunOptions, EXPERIMENTS};
use dichotomy_core::common::json::{parse, Value};
use dichotomy_core::experiments::ExperimentReport;
use dichotomy_core::scenario::ExecOptions;

/// One experiment at quick scale and the default seed.
fn quick(id: &str) -> Option<ExperimentReport> {
    run_experiment(id, &RunOptions::quick(), &ExecOptions::default())
}

#[test]
fn every_experiment_produces_a_nonempty_quick_report() {
    for id in EXPERIMENTS {
        let out = quick(id)
            .unwrap_or_else(|| panic!("experiment '{id}' missing from the dispatch table"))
            .render();
        assert!(
            !out.trim().is_empty(),
            "experiment '{id}' produced an empty report"
        );
    }
}

#[test]
fn quick_reports_are_reproducible() {
    // Everything is seeded; two runs of the same experiment must agree
    // byte for byte. One cheap simulation-backed id suffices here — the full
    // table is covered above and a repro invocation is checked in CI.
    assert_eq!(
        quick("tab05").map(|r| r.render()),
        quick("tab05").map(|r| r.render())
    );
}

#[test]
fn seeded_reports_differ_across_seeds_but_not_within_one() {
    let at_seed = |seed: u64| {
        run_experiment(
            "tab05",
            &RunOptions {
                seed,
                ..RunOptions::quick()
            },
            &ExecOptions::default(),
        )
        .unwrap()
    };
    assert_eq!(at_seed(5).rows, at_seed(5).rows);
    assert_ne!(at_seed(5).rows, at_seed(6).rows);
}

#[test]
fn unknown_ids_are_rejected() {
    assert!(quick("fig99").is_none());
}

#[test]
fn worker_count_does_not_change_a_seeded_report() {
    // The harness-level view of the determinism guarantee: one simulation-
    // backed experiment and the fault scenario, byte-for-byte across worker
    // counts (the exhaustive per-system-kind check lives in dichotomy-core).
    let opts = RunOptions::quick();
    for id in ["tab05", "fault01"] {
        let sequential = run_experiment(id, &opts, &ExecOptions::with_jobs(1)).unwrap();
        let parallel = run_experiment(id, &opts, &ExecOptions::with_jobs(8)).unwrap();
        assert_eq!(sequential, parallel, "{id}");
        assert_eq!(
            json::report(id, &sequential),
            json::report(id, &parallel),
            "{id}"
        );
    }
}

#[test]
fn a_zero_row_plan_serializes_to_a_valid_empty_document() {
    // Regression: an empty sweep expands to a zero-row plan; run_plan must
    // return an empty report and `repro --json` must still emit a document
    // that parses.
    use dichotomy_core::scenario::{run_plan, ExperimentPlan};
    let plan = ExperimentPlan {
        id: "Empty",
        title: "zero rows",
        rows: Vec::new(),
        text: None,
        diagnostics: Vec::new(),
    };
    let report = run_plan(&plan);
    assert!(report.rows.is_empty() && report.failures.is_empty());
    let doc = json::document(true, None, 7, &[("empty".to_string(), report)]);
    let value = parse(&doc).expect("zero-row reports must serialize to valid JSON");
    let experiments = value.get("experiments").and_then(Value::as_array).unwrap();
    assert_eq!(experiments.len(), 1);
    assert!(experiments[0]
        .get("rows")
        .and_then(Value::as_array)
        .unwrap()
        .is_empty());
}

#[test]
fn the_json_document_is_valid_and_covers_every_experiment() {
    // Keep the runtime in check: the cheap ids exercise rows, NaN → null
    // (fig15's missing reported numbers) and preformatted text (tab02).
    let opts = RunOptions::quick();
    let reports: Vec<_> = ["fig13", "fig15", "tab02", "fault01"]
        .iter()
        .map(|id| (id.to_string(), quick(id).unwrap()))
        .collect();
    let doc = json::document(true, None, opts.seed, &reports);
    let value = parse(&doc).expect("repro --json output must parse as JSON");
    assert_eq!(value.to_string(), doc, "parse -> write is the identity");
    // A document cut short anywhere is an error, never a panic.
    let fig13 = json::document(true, None, opts.seed, &reports[..1]);
    for end in (0..fig13.len()).filter(|&i| fig13.is_char_boundary(i)) {
        assert!(parse(&fig13[..end]).is_err(), "{}", &fig13[..end]);
    }

    let experiments = value
        .get("experiments")
        .and_then(Value::as_array)
        .expect("document has an experiments array");
    assert_eq!(experiments.len(), 4);
    // fault01 drives a workload: its row carries a windowed time series.
    let fault01 = &experiments[3];
    let fault_rows = fault01.get("rows").and_then(Value::as_array).unwrap();
    let series = fault_rows[0]
        .get("series")
        .and_then(Value::as_array)
        .expect("driving rows carry a series array");
    assert_eq!(series.len(), 1);
    let windows = series[0]
        .get("windows")
        .and_then(Value::as_array)
        .expect("series has windows");
    assert!(!windows.is_empty());
    assert!(windows[0].get("tps").is_some() && windows[0].get("p95_us").is_some());
    // fig13 carries rows with finite values.
    let fig13 = &experiments[0];
    let rows = fig13.get("rows").and_then(Value::as_array).unwrap();
    assert_eq!(rows.len(), 4);
    // fig15's missing reported numbers serialize as null, not NaN.
    assert!(!doc.contains("NaN"));
    // tab02 is qualitative: empty rows, non-null text.
    let tab02 = &experiments[2];
    assert!(tab02
        .get("rows")
        .and_then(Value::as_array)
        .unwrap()
        .is_empty());
    assert!(tab02
        .get("text")
        .and_then(Value::as_str)
        .is_some_and(|s| s.contains("Quorum")));
}
