//! The traced run: the per-layer split of one workload.
//!
//! 1. Cold pass: `run_plans_with` with a timing [`ProbeCache`] around a
//!    fresh `DiskCache`, storing every result.
//! 2. Warm pass: the same plans again, every result loaded from the cache.
//!    Its reports must be byte-identical to the cold pass's.
//! 3. Traced pass: every distinct probe once, on as many workers as the
//!    workload uses, in the engine's order. Driving probes run through
//!    [`layers::run_traced`]; the few others go through `run_plans_with`.
//! 4. Reference pass: `run_plans_with` untraced and uncached, as in the
//!    untraced run. Its makespan is the base of the tracing overhead, and
//!    its `PlanOutcome` accounting gives the `scenario.*` metrics. It runs
//!    after the traced pass so that neither pays for the process's first
//!    pass (heap growth, cold caches), which the cold pass absorbs.
//! 5. Substrate replays of each distinct workload's records and writes.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use dichotomy_bench::cache::DiskCache;
use dichotomy_core::common::Encode;
use dichotomy_core::scenario::{
    lpt_order, panic_text, predicted_probe_cost, probe_key_bytes, run_plans_with, ExecOptions,
    ExperimentPlan, PlannedRow, PlannedRun, Probe, ProbeCache, ProbeResult,
};
use dichotomy_core::systems::{SystemKind, SystemRegistry};

use crate::layers::{self, Layers, WriteSets};
use crate::replay::Substrates;
use crate::workloads::setup;
use crate::{counting, push, report_json, slot_failures, Args, MetricValue, Outcome};

/// Transactions per distinct workload whose write sets are kept for the
/// substrate replays.
const CAPTURE_TXNS: usize = 20_000;

/// A timing wrapper around the on-disk probe cache.
struct TimedCache {
    inner: DiskCache,
    load_ns: AtomicU64,
    store_ns: AtomicU64,
}

impl ProbeCache for TimedCache {
    fn load(&self, key: &[u8]) -> Option<ProbeResult> {
        let t = Instant::now();
        let r = self.inner.load(key);
        self.load_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    fn store(&self, key: &[u8], result: &ProbeResult) {
        let t = Instant::now();
        self.inner.store(key, result);
        self.store_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// One distinct probe of the traced pass.
struct Item<'p> {
    run: &'p PlannedRun,
    /// The workload key the captured write sets belong to, when this item
    /// captures them.
    capture: Option<Vec<u8>>,
}

/// What one worker of the traced pass produced.
#[derive(Default)]
struct WorkerOut {
    layers: Layers,
    writes: Vec<(Vec<u8>, WriteSets)>,
    failures: Vec<String>,
}

fn run_item(item: &Item, registry: &SystemRegistry, out: &mut WorkerOut) {
    let Probe::Drive {
        system,
        workload,
        driver,
    } = &item.run.probe
    else {
        // Not a `run_workload` probe: run it as the engine would, untraced.
        let plan = ExperimentPlan {
            id: "traced",
            title: "traced",
            rows: vec![PlannedRow {
                label: String::new(),
                runs: vec![item.run.clone()],
            }],
            text: None,
            diagnostics: Vec::new(),
        };
        let outcome = run_plans_with(&[&plan], registry, &ExecOptions::with_jobs(1));
        out.failures.extend(
            outcome
                .iter()
                .flat_map(|o| o.report.failures.iter().map(|f| f.message.clone())),
        );
        return;
    };
    let capture = if item.capture.is_some() {
        CAPTURE_TXNS.min(driver.transactions as usize)
    } else {
        0
    };
    let traced = catch_unwind(AssertUnwindSafe(|| {
        layers::run_traced(registry, system, workload, driver, capture)
    }));
    match traced {
        Ok(run) => {
            out.layers.merge(&run.layers);
            if let Some(key) = &item.capture {
                out.writes.push((key.clone(), run.writes));
            }
            out.failures.extend(run.failure);
        }
        Err(payload) => out.failures.push(panic_text(payload.as_ref())),
    }
}

/// The traced run of `args.workload`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    let jobs = workload.jobs();
    let setup = setup(workload, args.seed);
    let plans = setup.plan_refs();

    // 1 and 2: cold and warm cache passes.
    let cache_dir = args.scratch.join(format!("cache-{}", std::process::id()));
    let _ = fs::remove_dir_all(&cache_dir);
    let cache = TimedCache {
        inner: DiskCache::open(&cache_dir)
            .map_err(|e| format!("cannot open a cache under {}: {e}", cache_dir.display()))?,
        load_ns: AtomicU64::new(0),
        store_ns: AtomicU64::new(0),
    };
    let exec = ExecOptions {
        cache: Some(&cache),
        ..ExecOptions::with_jobs(jobs)
    };
    let cold = run_plans_with(&plans, &setup.registry, &exec);
    let store_ms = cache.store_ns.load(Ordering::Relaxed) as f64 / 1e6;
    cache.load_ns.store(0, Ordering::Relaxed);
    let warm = run_plans_with(&plans, &setup.registry, &exec);
    let load_ms = cache.load_ns.load(Ordering::Relaxed) as f64 / 1e6;
    let cache_bytes = dir_bytes(&cache_dir)?;
    let _ = fs::remove_dir_all(&cache_dir);
    let cold_doc = report_json(workload, args.seed, &setup, &cold);
    let warm_identical = cold_doc == report_json(workload, args.seed, &setup, &warm);
    let warm_hits: usize = warm.iter().map(|o| o.cache_hits).sum();
    let (cold_slots, cold_failed) = slot_failures(&cold);

    // 3: the traced pass over the same distinct probes.
    let mut items: Vec<Item> = Vec::new();
    let mut seen_probes = BTreeSet::new();
    let mut seen_workloads = BTreeMap::new();
    for run in plans.iter().flat_map(|p| &p.rows).flat_map(|r| &r.runs) {
        if !seen_probes.insert(probe_key_bytes(&run.probe)) {
            continue;
        }
        let capture = match &run.probe {
            Probe::Drive { workload, .. } => {
                let key = workload.encode();
                seen_workloads
                    .insert(key.clone(), workload.clone())
                    .is_none()
                    .then_some(key)
            }
            _ => None,
        };
        items.push(Item { run, capture });
    }
    let order: Vec<usize> = if jobs > 1 {
        let costs: Vec<f64> = items
            .iter()
            .map(|i| predicted_probe_cost(&i.run.probe))
            .collect();
        lpt_order(&costs)
    } else {
        (0..items.len()).collect()
    };
    let registry = SystemRegistry::with_builtins();
    let next = AtomicUsize::new(0);
    let t = Instant::now();
    let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = WorkerOut::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&index) = order.get(i) else { break };
                        run_item(&items[index], &registry, &mut out);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker panicked outside a probe"))
            .collect()
    });
    let traced_s = t.elapsed().as_secs_f64();

    // 4: the untraced reference pass.
    counting::take();
    let t = Instant::now();
    let reference = run_plans_with(&plans, &setup.registry, &ExecOptions::with_jobs(jobs));
    let untraced_s = t.elapsed().as_secs_f64();
    let counts = counting::take();
    let (ref_slots, ref_failed) = slot_failures(&reference);
    let distinct: usize = reference.iter().map(|o| o.distinct_probes).sum();

    let mut layers = Layers::default();
    let mut writes = BTreeMap::new();
    let mut failures = Vec::new();
    for out in outs {
        layers.merge(&out.layers);
        writes.extend(out.writes);
        failures.extend(out.failures);
    }

    // 5: substrate replays, one per distinct workload.
    let mut substrates = Substrates::default();
    let t = Instant::now();
    for (key, spec) in &seen_workloads {
        let records = spec.build().initial_records();
        let sets = writes.get(key).map(Vec::as_slice).unwrap_or_default();
        substrates.replay(&records, sets);
    }
    println!(
        "substrate replays: {} distinct workloads, {} MPT inserts, {} MPT updates, {} s",
        seen_workloads.len(),
        substrates.mpt_insert.calls,
        substrates.mpt_update.calls,
        t.elapsed().as_secs_f64()
    );

    // Checks.
    let driver_self = layers.driver_self_ns();
    let same_simulation = (layers.events, layers.arrivals, layers.receipts)
        == (counts.events, counts.arrivals, counts.receipts);
    let cache_complete = warm_hits == distinct;
    let reference_identical = report_json(workload, args.seed, &setup, &reference) == cold_doc;
    for f in &failures {
        println!("traced probe failed: {f}");
    }
    println!(
        "workload {} seed {} workers {}: traced {} distinct probes",
        workload.name(),
        args.seed,
        jobs,
        items.len()
    );
    println!(
        "sim_digest {:016x} (cold pass)",
        dichotomy_core::scenario::fnv1a_64(cold_doc.as_bytes())
    );
    println!(
        "warm-cache reports byte-identical to cold: {warm_identical}; \
         warm hits {warm_hits} of {distinct}"
    );
    println!("reference-pass reports byte-identical to cold: {reference_identical}");
    println!(
        "traced simulation matches untraced (events, arrivals, receipts): {same_simulation} \
         ({}, {}, {} vs {}, {}, {})",
        layers.events,
        layers.arrivals,
        layers.receipts,
        counts.events,
        counts.arrivals,
        counts.receipts
    );
    match &driver_self {
        Ok(own) => println!(
            "self-time check: child layers {} ms + driver.self {} ms = run_workload {} ms",
            layers.children_ns() as f64 / 1e6,
            *own as f64 / 1e6,
            layers.span.ms()
        ),
        Err(e) => println!("self-time check FAILED: {e}"),
    }
    println!(
        "tracing overhead: traced pass {traced_s} s vs untraced reference pass {untraced_s} s"
    );

    let mut metrics = Vec::new();
    per_layer(&mut metrics, &layers, *driver_self.as_ref().unwrap_or(&0));
    let worker_ms: f64 = reference.iter().map(|o| o.probe_wall_ms).sum();
    push(&mut metrics, "scenario.worker.ms", worker_ms, "ms");
    push(
        &mut metrics,
        "scenario.idle.ms",
        jobs as f64 * untraced_s * 1e3 - worker_ms,
        "ms",
    );
    push(
        &mut metrics,
        "scenario.dedup_saved.ms",
        reference.iter().map(|o| o.dedup_saved_ms).sum(),
        "ms",
    );
    push(
        &mut metrics,
        "scenario.distinct_probes",
        distinct as f64,
        "count",
    );
    push(&mut metrics, "cache.store.ms", store_ms, "ms");
    push(&mut metrics, "cache.load.ms", load_ms, "ms");
    push(&mut metrics, "cache.bytes", cache_bytes as f64, "B");
    let per_op = |s: layers::Stat| {
        if s.calls == 0 {
            0.0
        } else {
            s.ns as f64 / s.calls as f64
        }
    };
    push(
        &mut metrics,
        "merkle.mpt.insert.ns",
        per_op(substrates.mpt_insert),
        "ns",
    );
    push(
        &mut metrics,
        "merkle.mpt.update.ns",
        per_op(substrates.mpt_update),
        "ns",
    );
    push(
        &mut metrics,
        "merkle.bucket_tree.put.ns",
        per_op(substrates.bucket_put),
        "ns",
    );
    push(
        &mut metrics,
        "storage.lsm.put.ns",
        per_op(substrates.lsm_put),
        "ns",
    );
    push(
        &mut metrics,
        "storage.mvcc.commit_write.ns",
        per_op(substrates.mvcc_commit),
        "ns",
    );
    push(&mut metrics, "trace.elapsed_s", traced_s, "s");
    push(&mut metrics, "trace.untraced_elapsed_s", untraced_s, "s");
    push(
        &mut metrics,
        "trace.overhead_pct",
        (traced_s / untraced_s - 1.0) * 100.0,
        "%",
    );

    let failed = cold_failed + ref_failed + counts.mismatched + failures.len() as u64;
    Ok(Outcome {
        correct: failed == 0
            && warm_identical
            && reference_identical
            && cache_complete
            && same_simulation
            && driver_self.is_ok(),
        attempted: cold_slots + ref_slots + items.len() as u64,
        failed,
        metrics,
    })
}

/// The layer metrics of the traced `run_workload` spans.
fn per_layer(metrics: &mut Vec<MetricValue>, l: &Layers, driver_self_ns: u64) {
    for (kind, m) in SystemKind::ALL.iter().zip(&l.models) {
        let k = kind.slug();
        push(metrics, format!("systems.{k}.load.ms"), m.load.ms(), "ms");
        push(
            metrics,
            format!("systems.{k}.on_stage.ms"),
            m.on_stage.ms(),
            "ms",
        );
        push(
            metrics,
            format!("systems.{k}.on_stage.calls"),
            m.on_stage.calls as f64,
            "count",
        );
        push(
            metrics,
            format!("systems.{k}.on_arrival.ms"),
            m.on_arrival.ms(),
            "ms",
        );
        push(
            metrics,
            format!("systems.{k}.on_arrival.calls"),
            m.on_arrival.calls as f64,
            "count",
        );
    }
    push(metrics, "systems.completions.ms", l.completions.ms(), "ms");
    push(metrics, "systems.other.ms", l.model_other.ms(), "ms");
    push(metrics, "workload.next_txn.ms", l.next_txn.ms(), "ms");
    push(
        metrics,
        "workload.next_txn.calls",
        l.next_txn.calls as f64,
        "count",
    );
    push(
        metrics,
        "workload.initial_records.ms",
        l.initial_records.ms(),
        "ms",
    );
    push(metrics, "metrics.ms", l.metrics.ms(), "ms");
    push(metrics, "trace.bookkeeping.ms", l.trace.ms(), "ms");
    push(metrics, "driver.self.ms", driver_self_ns as f64 / 1e6, "ms");
    push(metrics, "run_workload.ms", l.span.ms(), "ms");
    push(metrics, "run_workload.calls", l.span.calls as f64, "count");
    push(metrics, "simnet.events", l.events as f64, "count");
    push(metrics, "driver.arrivals", l.arrivals as f64, "count");
}
