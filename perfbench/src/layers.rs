//! Per-layer timing of one `run_workload` call, taken from outside the
//! program.
//!
//! [`TracedSystem`] and [`TracedWorkload`] wrap a built model and workload
//! and time every call the driver makes into them. The calls never nest
//! (the driver calls the workload between model calls, never inside one),
//! so each wrapper span is its layer's self time. What is left of the
//! `run_workload` span after every child layer is the driver's own time:
//! arrival bookkeeping and the simnet event queue ([`Layers::driver_self_ns`]).
//!
//! The metrics layer (`core::metrics` plus the `core::chaos` oracles) runs
//! inside the driver with no call boundary around it, so it is timed two
//! ways. In exact mode it is the tail of the span after the model hands
//! back its receipts. In streaming mode it is interleaved with dispatch, so
//! the wrapper feeds each drained batch, before the driver sees it, to a
//! shadow aggregator and oracle set of its own. That shadow time is charged
//! to `trace` (the tracer's own work inside the span) and, as the estimate
//! of the driver's identical work on the same receipts, to `metrics`; the
//! shadow's end-of-run `finish` is timed after the span and added to
//! `metrics` only.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use dichotomy_core::chaos::{OracleContext, OracleSet};
use dichotomy_core::common::size::StorageBreakdown;
use dichotomy_core::common::{ClientId, Key, Transaction, TxnReceipt, Value};
use dichotomy_core::driver::{run_workload, DriverConfig};
use dichotomy_core::metrics::{MetricsMode, StreamingAggregator};
use dichotomy_core::simnet::StageEvent;
use dichotomy_core::systems::{
    Completion, Engine, SystemKind, SystemRegistry, SystemSpec, TransactionalSystem,
};
use dichotomy_core::workload::{Workload, WorkloadSpec};

/// Calls into one layer and the nanoseconds they took.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// Nanoseconds.
    pub ns: u64,
    /// Calls.
    pub calls: u64,
}

impl Stat {
    fn add(&mut self, d: Duration) {
        self.ns += d.as_nanos() as u64;
        self.calls += 1;
    }

    fn merge(&mut self, other: Stat) {
        self.ns += other.ns;
        self.calls += other.calls;
    }

    /// Milliseconds.
    pub fn ms(&self) -> f64 {
        self.ns as f64 / 1e6
    }
}

/// Per-model handler timings, indexed like [`SystemKind::ALL`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ModelStats {
    /// `load` (bulk load of the initial records).
    pub load: Stat,
    /// `on_stage` (pipeline stage handlers).
    pub on_stage: Stat,
    /// `on_arrival` (admission handlers).
    pub on_arrival: Stat,
}

/// Layer totals over any number of traced `run_workload` calls.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Layers {
    /// Per system kind.
    pub models: [ModelStats; SystemKind::ALL.len()],
    /// Completion and receipt polling (`drain_completions`,
    /// `drain_receipts*`), every model.
    pub completions: Stat,
    /// `attach`, `on_drain` and the remaining model calls, every model.
    pub model_other: Stat,
    /// `Workload::next_transaction`.
    pub next_txn: Stat,
    /// `Workload::initial_records`.
    pub initial_records: Stat,
    /// `core::metrics` plus the `core::chaos` oracles.
    pub metrics: Stat,
    /// The tracer's own bookkeeping inside the span.
    pub trace: Stat,
    /// The `run_workload` spans themselves.
    pub span: Stat,
    /// Events the engines delivered.
    pub events: u64,
    /// Arrivals the drivers issued.
    pub arrivals: u64,
    /// Receipts (committed plus aborted).
    pub receipts: u64,
}

impl Layers {
    /// Add another set of totals into this one.
    pub fn merge(&mut self, other: &Layers) {
        for (mine, theirs) in self.models.iter_mut().zip(&other.models) {
            mine.load.merge(theirs.load);
            mine.on_stage.merge(theirs.on_stage);
            mine.on_arrival.merge(theirs.on_arrival);
        }
        for (mine, theirs) in [
            (&mut self.completions, other.completions),
            (&mut self.model_other, other.model_other),
            (&mut self.next_txn, other.next_txn),
            (&mut self.initial_records, other.initial_records),
            (&mut self.metrics, other.metrics),
            (&mut self.trace, other.trace),
            (&mut self.span, other.span),
        ] {
            mine.merge(theirs);
        }
        self.events += other.events;
        self.arrivals += other.arrivals;
        self.receipts += other.receipts;
    }

    /// Nanoseconds of every child layer of the `run_workload` spans.
    pub fn children_ns(&self) -> u64 {
        let models: u64 = self
            .models
            .iter()
            .map(|m| m.load.ns + m.on_stage.ns + m.on_arrival.ns)
            .sum();
        models
            + self.completions.ns
            + self.model_other.ns
            + self.next_txn.ns
            + self.initial_records.ns
            + self.metrics.ns
            + self.trace.ns
    }

    /// The driver's self time: the spans minus every child layer. An error
    /// means the children overlap (they would have been counted twice).
    pub fn driver_self_ns(&self) -> Result<u64, String> {
        self.span.ns.checked_sub(self.children_ns()).ok_or_else(|| {
            format!(
                "child layers ({} ns) exceed the run_workload spans ({} ns)",
                self.children_ns(),
                self.span.ns
            )
        })
    }
}

fn slot(kind: SystemKind) -> usize {
    SystemKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("SystemKind::ALL lists every kind")
}

/// The write sets of generated transactions, one `(key, value)` list per
/// transaction.
pub type WriteSets = Vec<Vec<(Key, Value)>>;

/// One traced run's mutable state, shared by its two wrappers.
struct ProbeTrace {
    layers: Layers,
    /// When the model last handed back receipts (exact mode: the start of
    /// the metrics tail).
    receipts_done: Option<Instant>,
    /// Streaming mode: the shadow metrics layer.
    shadow: Option<Shadow>,
    /// Write sets of the generated transactions, while capture is on.
    writes: WriteSets,
    capture_left: usize,
}

/// What the driver's streaming metrics layer holds, fed the same receipts.
struct Shadow {
    agg: StreamingAggregator,
    oracles: OracleSet,
}

/// A model whose every call is timed into its layer.
struct TracedSystem<'t> {
    inner: Box<dyn TransactionalSystem>,
    slot: usize,
    trace: &'t RefCell<ProbeTrace>,
}

impl TracedSystem<'_> {
    fn charge(&self, started: Instant, pick: impl FnOnce(&mut Layers) -> &mut Stat) {
        let took = started.elapsed();
        pick(&mut self.trace.borrow_mut().layers).add(took);
    }
}

impl TransactionalSystem for TracedSystem<'_> {
    fn kind(&self) -> SystemKind {
        self.inner.kind()
    }

    fn load(&mut self, records: &[(Key, Value)]) {
        let t = Instant::now();
        self.inner.load(records);
        let s = self.slot;
        self.charge(t, |l| &mut l.models[s].load);
    }

    fn attach(&mut self, engine: &mut Engine) {
        let t = Instant::now();
        self.inner.attach(engine);
        self.charge(t, |l| &mut l.model_other);
    }

    fn on_arrival(&mut self, txn: Transaction, engine: &mut Engine) {
        let t = Instant::now();
        self.inner.on_arrival(txn, engine);
        let s = self.slot;
        self.charge(t, |l| &mut l.models[s].on_arrival);
    }

    fn on_stage(&mut self, event: StageEvent, engine: &mut Engine) {
        let t = Instant::now();
        self.inner.on_stage(event, engine);
        let s = self.slot;
        self.charge(t, |l| &mut l.models[s].on_stage);
    }

    fn on_drain(&mut self, engine: &mut Engine) {
        let t = Instant::now();
        self.inner.on_drain(engine);
        self.charge(t, |l| &mut l.model_other);
    }

    fn drain_receipts(&mut self) -> Vec<TxnReceipt> {
        let t = Instant::now();
        let receipts = self.inner.drain_receipts();
        self.charge(t, |l| &mut l.completions);
        self.trace.borrow_mut().receipts_done = Some(Instant::now());
        receipts
    }

    fn take_completions(&mut self) -> Vec<Completion> {
        let t = Instant::now();
        let completions = self.inner.take_completions();
        self.charge(t, |l| &mut l.completions);
        completions
    }

    fn drain_completions(&mut self, buf: &mut Vec<Completion>) {
        let t = Instant::now();
        self.inner.drain_completions(buf);
        self.charge(t, |l| &mut l.completions);
    }

    fn drain_receipts_into(&mut self, buf: &mut Vec<TxnReceipt>) {
        let t = Instant::now();
        self.inner.drain_receipts_into(buf);
        self.charge(t, |l| &mut l.completions);
        if buf.is_empty() {
            return;
        }
        let mut trace = self.trace.borrow_mut();
        let ProbeTrace { layers, shadow, .. } = &mut *trace;
        if let Some(shadow) = shadow {
            let t = Instant::now();
            for r in buf.iter() {
                shadow.oracles.observe(r);
                shadow.agg.observe(r);
            }
            let took = t.elapsed();
            layers.trace.add(took);
            layers.metrics.add(took);
        }
    }

    fn footprint(&self) -> StorageBreakdown {
        self.inner.footprint()
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
}

/// A workload whose every call is timed into its layer.
struct TracedWorkload<'t> {
    inner: Box<dyn Workload>,
    trace: &'t RefCell<ProbeTrace>,
}

impl Workload for TracedWorkload<'_> {
    fn initial_records(&self) -> Vec<(Key, Value)> {
        let t = Instant::now();
        let records = self.inner.initial_records();
        self.trace
            .borrow_mut()
            .layers
            .initial_records
            .add(t.elapsed());
        records
    }

    fn next_transaction(&mut self, client: ClientId, seq: u64) -> Transaction {
        let t = Instant::now();
        let txn = self.inner.next_transaction(client, seq);
        let took = t.elapsed();
        let mut trace = self.trace.borrow_mut();
        trace.layers.next_txn.add(took);
        if trace.capture_left > 0 {
            let t = Instant::now();
            trace.capture_left -= 1;
            let writes = txn
                .ops
                .iter()
                .filter_map(|op| op.value.clone().map(|v| (op.key.clone(), v)))
                .collect();
            trace.writes.push(writes);
            trace.layers.trace.add(t.elapsed());
        }
        txn
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// What one traced probe produced.
pub struct TracedRun {
    /// Its layer totals.
    pub layers: Layers,
    /// The write sets of its first transactions (when capture was asked for).
    pub writes: WriteSets,
    /// `None` when the run was sound; otherwise why it counts as failed.
    pub failure: Option<String>,
}

/// Build `system` and `workload`, wrap both, and time one `run_workload`
/// call on them. `capture` is how many transactions' write sets to keep for
/// the substrate replays.
pub fn run_traced(
    registry: &SystemRegistry,
    system: &SystemSpec,
    workload: &WorkloadSpec,
    driver: &DriverConfig,
    capture: usize,
) -> TracedRun {
    let inner = registry
        .build(system)
        .unwrap_or_else(|e| panic!("cannot build {}: {e}", system.label()));
    let streaming = driver.metrics == MetricsMode::Streaming;
    let trace = RefCell::new(ProbeTrace {
        layers: Layers::default(),
        receipts_done: None,
        shadow: streaming.then(|| Shadow {
            agg: StreamingAggregator::new(driver.window_us.unwrap_or(1_000_000), driver.warmup_us),
            oracles: OracleSet::standard(),
        }),
        writes: Vec::new(),
        capture_left: capture,
    });
    let (stats, span) = {
        let mut sys = TracedSystem {
            slot: slot(inner.kind()),
            inner,
            trace: &trace,
        };
        let mut wl = TracedWorkload {
            inner: workload.build(),
            trace: &trace,
        };
        let started = Instant::now();
        let stats = run_workload(&mut sys, &mut wl, driver);
        let ended = Instant::now();
        let tail = trace.borrow().receipts_done.map(|t| ended - t);
        if !streaming {
            trace
                .borrow_mut()
                .layers
                .metrics
                .add(tail.expect("exact mode drains receipts once"));
        }
        (stats, ended - started)
    };
    let mut trace = trace.into_inner();
    if let Some(shadow) = trace.shadow.take() {
        let t = Instant::now();
        std::hint::black_box(shadow.agg.finish(stats.makespan_us));
        std::hint::black_box(shadow.oracles.finish(OracleContext {
            arrivals_issued: stats.arrivals_issued,
            events_clamped: stats.events_clamped,
        }));
        trace.layers.metrics.add(t.elapsed());
    }
    let layers = &mut trace.layers;
    layers.span.add(span);
    layers.events += stats.events_delivered;
    layers.arrivals += stats.arrivals_issued;
    let finished = stats.metrics.committed + stats.metrics.aborted();
    layers.receipts += finished;
    let failure = if let Some(v) = stats.oracles.violations().next() {
        Some(format!(
            "oracle '{}' violated: {}",
            v.name,
            v.violation.as_deref().unwrap_or("unspecified")
        ))
    } else if stats.events_clamped > 0 {
        Some(format!("{} events clamped", stats.events_clamped))
    } else if finished != stats.arrivals_issued {
        Some(format!(
            "{finished} transactions finished but {} arrivals issued",
            stats.arrivals_issued
        ))
    } else {
        None
    };
    TracedRun {
        layers: trace.layers,
        writes: trace.writes,
        failure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dichotomy_core::workload::YcsbMix;

    fn layers_with(span_ns: u64, child_ns: u64) -> Layers {
        let mut l = Layers {
            span: Stat {
                ns: span_ns,
                calls: 1,
            },
            ..Layers::default()
        };
        l.models[0].on_stage.ns = child_ns / 2;
        l.next_txn.ns = child_ns - child_ns / 2;
        l
    }

    #[test]
    fn driver_self_is_the_span_minus_every_child() {
        let mut l = Layers::default();
        l.span.ns = 1_000;
        l.models[0].load.ns = 100;
        l.models[3].on_stage.ns = 200;
        l.models[6].on_arrival.ns = 50;
        l.completions.ns = 40;
        l.model_other.ns = 10;
        l.next_txn.ns = 300;
        l.initial_records.ns = 20;
        l.metrics.ns = 60;
        l.trace.ns = 5;
        assert_eq!(l.children_ns(), 785);
        assert_eq!(l.driver_self_ns(), Ok(215));
        assert_eq!(l.children_ns() + l.driver_self_ns().unwrap(), l.span.ns);
    }

    #[test]
    fn overlapping_children_are_an_error_not_a_wrap() {
        assert!(layers_with(100, 101).driver_self_ns().is_err());
        assert_eq!(layers_with(100, 100).driver_self_ns(), Ok(0));
    }

    #[test]
    fn merging_adds_every_field() {
        let mut a = layers_with(1_000, 400);
        a.events = 3;
        let mut b = layers_with(500, 100);
        b.receipts = 2;
        a.merge(&b);
        assert_eq!(a.span.ns, 1_500);
        assert_eq!(a.span.calls, 2);
        assert_eq!(a.children_ns(), 500);
        assert_eq!((a.events, a.receipts), (3, 2));
        assert_eq!(a.driver_self_ns(), Ok(1_000));
    }

    #[test]
    fn a_traced_run_accounts_for_its_whole_span() {
        let workload = WorkloadSpec::ycsb(YcsbMix::UpdateOnly).with_records(200);
        for kind in [SystemKind::Quorum, SystemKind::Etcd] {
            for metrics in [MetricsMode::Exact, MetricsMode::Streaming] {
                let driver = DriverConfig {
                    metrics,
                    ..DriverConfig::saturating(300)
                };
                let run = run_traced(
                    &SystemRegistry::with_builtins(),
                    &SystemSpec::new(kind),
                    &workload,
                    &driver,
                    50,
                );
                assert_eq!(run.failure, None);
                let l = &run.layers;
                let m = l.models[slot(kind)];
                assert_eq!(m.load.calls, 1);
                assert_eq!(m.on_arrival.calls, 300);
                assert_eq!(l.next_txn.calls, 300);
                assert_eq!(l.arrivals, 300);
                assert_eq!(l.receipts, 300);
                assert_eq!(l.events, m.on_arrival.calls + m.on_stage.calls);
                assert!(l.metrics.ns > 0);
                assert_eq!(run.writes.len(), 50);
                assert!(run.writes.iter().all(|w| w.len() == 1));
                let own = l.driver_self_ns().expect("children fit in the span");
                assert_eq!(own + l.children_ns(), l.span.ns);
            }
        }
    }
}
