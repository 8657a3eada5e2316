//! Simulation counters for the untraced runs.
//!
//! `run_plans_with` builds every system through a registry, so the only way
//! to count what a probe simulated without timing it is a registry whose
//! builders wrap each model in [`Counted`]: integer increments per delivered
//! event, no clock reads. Counts land in process-wide totals when the model
//! is dropped at the end of its probe.

use std::sync::atomic::{AtomicU64, Ordering};

use dichotomy_core::common::size::StorageBreakdown;
use dichotomy_core::common::{Key, Transaction, TxnReceipt, Value};
use dichotomy_core::simnet::StageEvent;
use dichotomy_core::systems::{
    Completion, Engine, SystemKind, SystemRegistry, SystemSpec, TransactionalSystem,
};

/// Totals over every [`Counted`] model dropped since the last [`take`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Events delivered to models (arrivals plus stage events).
    pub events: u64,
    /// Arrivals delivered to models.
    pub arrivals: u64,
    /// Receipts (committed plus aborted) the models handed back.
    pub receipts: u64,
    /// Models whose receipts differed from their arrivals at the end of a
    /// probe that did not panic.
    pub mismatched: u64,
}

static EVENTS: AtomicU64 = AtomicU64::new(0);
static ARRIVALS: AtomicU64 = AtomicU64::new(0);
static RECEIPTS: AtomicU64 = AtomicU64::new(0);
static MISMATCHED: AtomicU64 = AtomicU64::new(0);

/// Read and reset the totals.
pub fn take() -> Counts {
    Counts {
        events: EVENTS.swap(0, Ordering::Relaxed),
        arrivals: ARRIVALS.swap(0, Ordering::Relaxed),
        receipts: RECEIPTS.swap(0, Ordering::Relaxed),
        mismatched: MISMATCHED.swap(0, Ordering::Relaxed),
    }
}

/// The built-in registry with every model wrapped in [`Counted`].
pub fn registry() -> SystemRegistry {
    let mut registry = SystemRegistry::new();
    for kind in SystemKind::ALL {
        registry.register(kind, build_counted);
    }
    registry
}

fn build_counted(spec: &SystemSpec) -> Box<dyn TransactionalSystem> {
    let inner = spec
        .build()
        .unwrap_or_else(|e| panic!("cannot build {}: {e}", spec.label()));
    Box::new(Counted {
        inner,
        counts: Counts::default(),
    })
}

/// A model that counts what passes through it and otherwise delegates.
pub struct Counted {
    inner: Box<dyn TransactionalSystem>,
    counts: Counts,
}

impl Drop for Counted {
    fn drop(&mut self) {
        let c = self.counts;
        EVENTS.fetch_add(c.events, Ordering::Relaxed);
        ARRIVALS.fetch_add(c.arrivals, Ordering::Relaxed);
        RECEIPTS.fetch_add(c.receipts, Ordering::Relaxed);
        // A panicking probe is already a failure; do not count it twice.
        if !std::thread::panicking() && c.receipts != c.arrivals {
            MISMATCHED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl TransactionalSystem for Counted {
    fn kind(&self) -> SystemKind {
        self.inner.kind()
    }

    fn load(&mut self, records: &[(Key, Value)]) {
        self.inner.load(records);
    }

    fn attach(&mut self, engine: &mut Engine) {
        self.inner.attach(engine);
    }

    fn on_arrival(&mut self, txn: Transaction, engine: &mut Engine) {
        self.counts.events += 1;
        self.counts.arrivals += 1;
        self.inner.on_arrival(txn, engine);
    }

    fn on_stage(&mut self, event: StageEvent, engine: &mut Engine) {
        self.counts.events += 1;
        self.inner.on_stage(event, engine);
    }

    fn on_drain(&mut self, engine: &mut Engine) {
        self.inner.on_drain(engine);
    }

    fn drain_receipts(&mut self) -> Vec<TxnReceipt> {
        let receipts = self.inner.drain_receipts();
        self.counts.receipts += receipts.len() as u64;
        receipts
    }

    fn take_completions(&mut self) -> Vec<Completion> {
        self.inner.take_completions()
    }

    fn drain_completions(&mut self, buf: &mut Vec<Completion>) {
        self.inner.drain_completions(buf);
    }

    fn drain_receipts_into(&mut self, buf: &mut Vec<TxnReceipt>) {
        self.inner.drain_receipts_into(buf);
        self.counts.receipts += buf.len() as u64;
    }

    fn footprint(&self) -> StorageBreakdown {
        self.inner.footprint()
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
}
