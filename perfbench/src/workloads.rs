//! The three workloads and the plans that define them.
//!
//! Every workload is a list of experiment plans executed through
//! `run_plans_with`, the entry `repro` uses. The seed argument is threaded
//! into every plan, so the same seed gives the same simulated inputs.

use dichotomy_bench::{plan_for, RunOptions, EXPERIMENTS};
use dichotomy_core::driver::DriverConfig;
use dichotomy_core::experiments::scale01_plan;
use dichotomy_core::scenario::{ColumnSpec, ExperimentPlan, Metric, Scenario, Sweep, SystemEntry};
use dichotomy_core::systems::{SystemKind, SystemRegistry, SystemSpec};
use dichotomy_core::workload::{WorkloadSpec, YcsbMix};

use crate::counting;

/// Closed-loop clients of `engine-scale`: scale01's top row.
const ENGINE_CLIENTS: u64 = 1_000_000;
/// Transactions of one `engine-scale` probe. Fewer than the clients, so
/// one probe is the population's first wave: a million think-time draws,
/// this many arrivals in flight at once, and completions polled and handed
/// to the client model, which has no budget left to re-arm them. At 1.1
/// million transactions, where the loop closes, one probe takes about 13 s
/// on a 2-core host, too long to take several iterations within one run.
const ENGINE_TXNS: u64 = 200_000;
/// Preloaded records of `ledger-commit`: far fewer than transactions, so
/// every record is updated many times.
const LEDGER_RECORDS: u64 = 1_000;
/// Transactions of each `ledger-commit` probe.
const LEDGER_TXNS: u64 = 10_000;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All experiments of `repro --quick all`, two workers.
    PaperQuick,
    /// scale01's million-client closed-loop etcd row, one worker.
    EngineScale,
    /// Quorum and Fabric under update-only YCSB, saturating open loop, one
    /// worker.
    LedgerCommit,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperQuick,
        Workload::EngineScale,
        Workload::LedgerCommit,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperQuick => "paper-quick",
            Workload::EngineScale => "engine-scale",
            Workload::LedgerCommit => "ledger-commit",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads of the probe pool.
    pub fn jobs(self) -> usize {
        match self {
            Workload::PaperQuick => 2,
            Workload::EngineScale | Workload::LedgerCommit => 1,
        }
    }
}

/// Everything built before the first probe is dispatched.
pub struct Setup {
    /// `(report key, plan)` in execution order.
    pub plans: Vec<(String, ExperimentPlan)>,
    /// Builds every system, wrapped in a [`counting::Counted`].
    pub registry: SystemRegistry,
}

impl Setup {
    /// The plans as `run_plans_with` takes them.
    pub fn plan_refs(&self) -> Vec<&ExperimentPlan> {
        self.plans.iter().map(|(_, p)| p).collect()
    }
}

/// Expand the workload's plans and build the registry.
pub fn setup(workload: Workload, seed: u64) -> Setup {
    let plans = match workload {
        Workload::PaperQuick => {
            let opts = RunOptions {
                quick: true,
                seed,
                ..RunOptions::default()
            };
            EXPERIMENTS
                .iter()
                .map(|id| {
                    let plan = plan_for(id, &opts).expect("every listed experiment has a plan");
                    (id.to_string(), plan)
                })
                .collect()
        }
        Workload::EngineScale => vec![(
            "scale01".to_string(),
            scale01_plan(ENGINE_TXNS, &[ENGINE_CLIENTS], seed),
        )],
        Workload::LedgerCommit => vec![("ledger-commit".to_string(), ledger_plan(seed))],
    };
    Setup {
        plans,
        registry: counting::registry(),
    }
}

/// Quorum (MPT state trie, a state root per block) and Fabric (MVCC state,
/// serial validator) driven far past their capacity by update-only YCSB
/// over a small record set.
fn ledger_plan(seed: u64) -> ExperimentPlan {
    let columns = || {
        vec![
            ColumnSpec::new("tps", Metric::ThroughputTps),
            ColumnSpec::new("lat_ms", Metric::LatencyMeanMs),
            ColumnSpec::new("abort_%", Metric::AbortPercent),
        ]
    };
    Scenario {
        id: "Ledger commit",
        title: "Quorum and Fabric commit paths under update-only YCSB",
        systems: [SystemKind::Quorum, SystemKind::Fabric]
            .into_iter()
            .map(|kind| SystemEntry {
                spec: SystemSpec::new(kind),
                columns: columns(),
            })
            .collect(),
        workload: WorkloadSpec::ycsb(YcsbMix::UpdateOnly).with_records(LEDGER_RECORDS),
        driver: DriverConfig::saturating(LEDGER_TXNS),
        sweep: Sweep::None,
        row_labels: None,
        faults: None,
        seed,
    }
    .plan()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn the_seed_reaches_every_plan() {
        use dichotomy_core::scenario::{probe_key_bytes, Probe};
        let keys = |seed| {
            setup(Workload::LedgerCommit, seed).plans[0]
                .1
                .rows
                .iter()
                .flat_map(|r| r.runs.iter().map(|run| probe_key_bytes(&run.probe)))
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(7), keys(7));
        assert_ne!(keys(7), keys(8));
        let plan = &setup(Workload::EngineScale, 3).plans[0].1;
        assert_eq!(plan.probe_count(), 1);
        assert!(matches!(plan.rows[0].runs[0].probe, Probe::Drive { .. }));
    }
}
