//! Microbenchmarks over the substrates the system models are built from:
//! hashing, authenticated-index updates, storage-engine writes, OCC
//! validation, consensus-profile commit latencies and the end-to-end
//! per-transaction pipelines of a blockchain vs a database (a miniature
//! Figure 4).
//!
//! ```text
//! cargo run -p dichotomy-bench --release --bin microbench
//! cargo run -p dichotomy-bench --release --bin microbench -- mpt lsm
//! cargo run -p dichotomy-bench --release --bin microbench -- --smoke
//! cargo run -p dichotomy-bench --release --bin microbench -- --smoke \
//!     --bench BENCH_history.json --bench-key microbench-pr6
//! ```
//!
//! This is a dependency-free replacement for the Criterion bench the seed
//! shipped: each benchmark runs a warmup pass, then times `iters` iterations
//! with `std::time::Instant`, excluding per-iteration setup. Arguments filter
//! benchmarks by substring match on the name; `--smoke` scales the iteration
//! counts down so CI can run every case as an engine-hot-path regression
//! check in seconds. `--bench PATH` appends every case's mean per-op time to
//! the same bench-trajectory history `repro --bench` writes (one entry per
//! run, `wall_ms` = ns/op ÷ 10⁶), labelled by `--bench-key` — so wheel-vs-
//! heap and sketch-vs-exact ratios accumulate next to the experiment
//! timings.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dichotomy_bench::json;

use dichotomy_core::common::{hash, ClientId, Key, Operation, Transaction, TxnId, Value};
use dichotomy_core::consensus::{ProtocolKind, ReplicationProfile};
use dichotomy_core::driver::{run_workload, DriverConfig};
use dichotomy_core::merkle::{MerkleBucketTree, MerklePatriciaTrie};
use dichotomy_core::metrics::{LatencySummary, StreamingLatency};
use dichotomy_core::scenario::{
    run_plan_with, ColumnSpec, ExecOptions, Metric, Scenario, Sweep, SystemEntry,
};
use dichotomy_core::simnet::{CostModel, EventQueue, HeapEventQueue, NetworkConfig, SimEngine};
use dichotomy_core::storage::{BPlusTree, KvEngine, LsmTree, MvccStore};
use dichotomy_core::systems::{
    Etcd, EtcdConfig, Quorum, QuorumConfig, SystemKind, SystemRegistry, SystemSpec,
};
use dichotomy_core::txn::OccExecutor;
use dichotomy_core::workload::{WorkloadSpec, YcsbConfig, YcsbMix, YcsbWorkload};

/// Whether `--smoke` was passed: scale iteration counts down for CI.
static SMOKE: AtomicBool = AtomicBool::new(false);

/// Every (case name, mean ns/op) measured this run, for `--bench` recording.
static RESULTS: Mutex<Vec<(String, f64)>> = Mutex::new(Vec::new());

fn effective_iters(iters: u32) -> u32 {
    if SMOKE.load(Ordering::Relaxed) {
        (iters / 20).max(2)
    } else {
        iters
    }
}

/// Time `routine` over `iters` fresh states from `setup` and print a mean
/// ns/op line. The clock covers the routine only: building the state and
/// dropping it afterwards (a 500-record trie, say) are not timed.
fn bench_batched<S, R>(
    name: &str,
    iters: u32,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(&mut S) -> R,
) {
    let iters = effective_iters(iters);
    for _ in 0..(iters / 10).max(1) {
        black_box(routine(&mut setup()));
    }
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let mut state = setup();
        let start = Instant::now();
        let result = routine(&mut state);
        total += start.elapsed();
        black_box(result);
        drop(state);
    }
    let ns_per_op = total.as_nanos() as f64 / iters as f64;
    println!("{name:<34} {iters:>7} iters {ns_per_op:>14.0} ns/op");
    RESULTS.lock().unwrap().push((name.to_string(), ns_per_op));
}

/// Time a self-contained routine (no per-iteration setup).
fn bench<R>(name: &str, iters: u32, mut routine: impl FnMut() -> R) {
    bench_batched(name, iters, || (), |_| routine());
}

fn bench_hashing() {
    let data = vec![0xabu8; 1024];
    bench("sha256_1kb", 2_000, || hash::sha256(&data));
}

fn bench_authenticated_indexes() {
    bench_batched(
        "mpt_insert_1kb",
        300,
        || {
            let mut mpt = MerklePatriciaTrie::new();
            for i in 0..500u64 {
                mpt.insert(&Key::from_str(&format!("user{i:08}")), &Value::filler(100));
            }
            mpt
        },
        |mpt| {
            mpt.insert(&Key::from_str("user00000042"), &Value::filler(1024));
            mpt.root_hash()
        },
    );
    bench_batched(
        "mbt_put_1kb",
        300,
        MerkleBucketTree::fabric_default,
        |mbt| {
            mbt.put(&Key::from_str("user42"), &Value::filler(1024));
            mbt.root_hash()
        },
    );
}

fn bench_storage_engines() {
    bench_batched("lsm_put_1kb", 2_000, LsmTree::new, |t| {
        t.put(Key::from_str("k1"), Value::filler(1024))
    });
    bench_batched("btree_put_1kb", 2_000, BPlusTree::new, |t| {
        t.put(Key::from_str("k1"), Value::filler(1024))
    });
}

fn bench_occ_validation() {
    bench_batched(
        "occ_simulate_validate_commit",
        1_000,
        || {
            let mut store = MvccStore::new();
            let v = store.begin_commit();
            for i in 0..200u64 {
                store.commit_write(Key::from_str(&format!("k{i}")), v, Some(Value::filler(64)));
            }
            (store, OccExecutor::new())
        },
        |(store, occ)| {
            let txn = Transaction::new(
                TxnId::new(ClientId(1), 1),
                vec![Operation::read_modify_write(
                    Key::from_str("k7"),
                    Value::filler(64),
                )],
            );
            let sim = occ.simulate(&txn, store);
            occ.validate_and_commit(&sim, store).unwrap()
        },
    );
}

fn bench_consensus_profiles() {
    for (name, kind) in [
        ("profile_raft_commit_latency", ProtocolKind::Raft),
        ("profile_pbft_commit_latency", ProtocolKind::Pbft),
    ] {
        let profile =
            ReplicationProfile::new(kind, 7, NetworkConfig::lan_1gbps(), CostModel::default());
        bench(name, 10_000, || profile.commit_latency_us(black_box(4096)));
    }
}

fn bench_metric_sketches() {
    // Sketch vs exact over the identical sample set: folding 100k latencies
    // into the three P² sketches of a `StreamingLatency` vs sorting the same
    // vector for exact order statistics. The per-sample sketch cost is what
    // streaming metrics pay per receipt; the exact case additionally scales
    // its O(n log n) sort with window population, which is the memory/time
    // trade `MetricsMode::Streaming` removes.
    const SAMPLES: usize = 100_000;
    let generate = || {
        let mut x = 0x853C_49E6_748F_EA9Bu64;
        (0..SAMPLES)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 250_000
            })
            .collect::<Vec<u64>>()
    };
    bench_batched("latency_sketch_stream_100k", 50, generate, |samples| {
        let mut sketch = StreamingLatency::default();
        for &s in samples.iter() {
            sketch.observe(s);
        }
        sketch.summary()
    });
    bench_batched("latency_exact_sort_100k", 50, generate, |samples| {
        LatencySummary::of(std::mem::take(samples))
    });
}

fn bench_event_engine() {
    // The engine hot path: schedule N events with scattered timestamps and
    // drain them in order.
    bench("event_queue_schedule_pop_10k", 200, || {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..10_000u64 {
            q.schedule_at(i ^ 0x2a5a, i);
        }
        let mut acc = 0u64;
        while let Some((t, _)) = q.pop() {
            acc = acc.wrapping_add(t);
        }
        acc
    });
    // The same schedule-then-drain pattern through the reference
    // `BinaryHeap` queue: the wheel-vs-heap events/sec ratio CI records.
    bench("event_queue_heap_pop_10k", 200, || {
        let mut q: HeapEventQueue<u64> = HeapEventQueue::new();
        for i in 0..10_000u64 {
            q.schedule_at(i ^ 0x2a5a, i);
        }
        let mut acc = 0u64;
        while let Some((t, _)) = q.pop() {
            acc = acc.wrapping_add(t);
        }
        acc
    });
    // Steady-state churn at closed-loop scale: 256k events stay pending
    // while every pop schedules a replacement at a pseudo-random offset
    // (identical xorshift streams for both implementations). This is the
    // shape of the `scale01` million-client run, where the heap pays
    // O(log n) with cache misses on every pop and the wheel does not.
    const CHURN: u64 = 1 << 18;
    let prefill_times = |seed: u64| {
        let mut x = seed;
        std::iter::repeat_with(move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % 1_000_000
        })
    };
    bench_batched(
        "event_queue_wheel_churn_256k",
        20,
        || {
            let mut q: EventQueue<u64> = EventQueue::new();
            for (i, t) in prefill_times(0x9E37_79B9).take(CHURN as usize).enumerate() {
                q.schedule_at(t, i as u64);
            }
            q
        },
        |q| {
            let mut acc = 0u64;
            for (i, dt) in prefill_times(0xD1B5_4A32).take(CHURN as usize).enumerate() {
                let (t, _) = q.pop().expect("queue stays full");
                acc = acc.wrapping_add(t);
                q.schedule_at(q.now() + dt, i as u64);
            }
            acc
        },
    );
    bench_batched(
        "event_queue_heap_churn_256k",
        20,
        || {
            let mut q: HeapEventQueue<u64> = HeapEventQueue::new();
            for (i, t) in prefill_times(0x9E37_79B9).take(CHURN as usize).enumerate() {
                q.schedule_at(t, i as u64);
            }
            q
        },
        |q| {
            let mut acc = 0u64;
            for (i, dt) in prefill_times(0xD1B5_4A32).take(CHURN as usize).enumerate() {
                let (t, _) = q.pop().expect("queue stays full");
                acc = acc.wrapping_add(t);
                q.schedule_at(q.now() + dt, i as u64);
            }
            acc
        },
    );
    // A synthetic service pipeline on the engine: every event books work on
    // one of two processes and reschedules a follow-up stage.
    bench("engine_two_stage_pipeline_5k", 200, || {
        let mut e: SimEngine<(u32, u64)> = SimEngine::new();
        let front = e.add_process("front", 4);
        let back = e.add_process("back", 1);
        for i in 0..5_000u64 {
            e.schedule_at(i * 3, (0, i));
        }
        let mut finished = 0u64;
        while let Some((now, (stage, token))) = e.pop() {
            match stage {
                0 => {
                    let (_, done) = e.service(front, now, 5);
                    e.schedule_at(done, (1, token));
                }
                _ => {
                    e.service(back, now, 2);
                    finished += 1;
                }
            }
        }
        finished
    });
    // The full event loop end to end: driver arrivals + etcd stage events.
    bench("engine_loop_etcd_update_300", 10, || {
        let mut system = Etcd::new(EtcdConfig::default());
        let mut workload = YcsbWorkload::new(YcsbConfig {
            record_count: 500,
            record_size: 200,
            mix: YcsbMix::UpdateOnly,
            ..YcsbConfig::default()
        });
        run_workload(&mut system, &mut workload, &DriverConfig::saturating(300))
    });
}

fn bench_plan_executor() {
    // The plan executor end to end: an 8-probe etcd θ-sweep, sequentially
    // (`jobs=1`) vs on the worker pool (`jobs=0` → all cores). Same seed,
    // byte-identical reports; the delta is the pool's win on this machine.
    let plan = Scenario {
        id: "B",
        title: "plan executor microbench",
        systems: vec![SystemEntry {
            spec: SystemSpec::new(SystemKind::Etcd),
            columns: vec![ColumnSpec::new("tps", Metric::ThroughputTps)],
        }],
        workload: WorkloadSpec::ycsb(YcsbMix::UpdateOnly).with_records(500),
        driver: DriverConfig::saturating(150),
        sweep: Sweep::Theta(vec![0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 0.9, 1.0]),
        row_labels: None,
        faults: None,
        seed: 7,
    }
    .plan();
    let registry = SystemRegistry::with_builtins();
    bench("plan_sequential_8probe_etcd", 6, || {
        run_plan_with(&plan, &registry, &ExecOptions::with_jobs(1))
    });
    bench("plan_parallel_8probe_etcd", 6, || {
        run_plan_with(&plan, &registry, &ExecOptions::default())
    });
}

fn bench_end_to_end() {
    bench("end_to_end_quorum_update_200", 10, || {
        let mut system = Quorum::new(QuorumConfig {
            max_block_txns: 50,
            block_interval_us: 50_000,
            ..QuorumConfig::default()
        });
        let mut workload = YcsbWorkload::new(YcsbConfig {
            record_count: 500,
            record_size: 200,
            mix: YcsbMix::UpdateOnly,
            ..YcsbConfig::default()
        });
        run_workload(&mut system, &mut workload, &DriverConfig::saturating(200))
    });
    bench("end_to_end_etcd_update_200", 10, || {
        let mut system = Etcd::new(EtcdConfig::default());
        let mut workload = YcsbWorkload::new(YcsbConfig {
            record_count: 500,
            record_size: 200,
            mix: YcsbMix::UpdateOnly,
            ..YcsbConfig::default()
        });
        run_workload(&mut system, &mut workload, &DriverConfig::saturating(200))
    });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut filters: Vec<String> = Vec::new();
    let mut bench_path: Option<String> = None;
    let mut bench_key: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if arg == "--smoke" {
            SMOKE.store(true, Ordering::Relaxed);
        } else if let Some(v) = arg.strip_prefix("--bench-key=") {
            bench_key = Some(v.to_string());
        } else if arg == "--bench-key" {
            i += 1;
            bench_key = args.get(i).cloned();
        } else if let Some(v) = arg.strip_prefix("--bench=") {
            bench_path = Some(v.to_string());
        } else if arg == "--bench" {
            i += 1;
            bench_path = args.get(i).cloned();
        } else {
            filters.push(arg.clone());
        }
        i += 1;
    }
    let groups: &[(&str, fn())] = &[
        ("sha256", bench_hashing),
        ("mpt mbt", bench_authenticated_indexes),
        ("lsm btree", bench_storage_engines),
        ("occ", bench_occ_validation),
        ("profile", bench_consensus_profiles),
        ("metrics latency", bench_metric_sketches),
        ("event_queue engine", bench_event_engine),
        ("plan", bench_plan_executor),
        ("end_to_end", bench_end_to_end),
    ];
    for (keys, run) in groups {
        let selected = filters.is_empty()
            || filters
                .iter()
                .any(|f| keys.split(' ').any(|k| k.contains(f.as_str())));
        if selected {
            run();
        }
    }

    // `--bench PATH`: append this run's per-case timings to the same
    // trajectory history `repro --bench` maintains (wall_ms = ns/op ÷ 10⁶),
    // so CI can gate on microbenchmark regressions too.
    if let Some(path) = bench_path {
        let smoke = SMOKE.load(Ordering::Relaxed);
        let timings: Vec<json::BenchTiming> = RESULTS
            .lock()
            .unwrap()
            .iter()
            .map(|(name, ns_per_op)| json::BenchTiming {
                wall_ms: ns_per_op / 1e6,
                ..json::BenchTiming::empty(name.clone(), true)
            })
            .collect();
        let label = bench_key
            .unwrap_or_else(|| format!("microbench-{}", if smoke { "smoke" } else { "full" }));
        let entry = json::bench_document(&label, smoke, None, 0, 1, &timings);
        let existing = std::fs::read_to_string(&path).ok();
        match json::append_history(existing.as_deref(), entry)
            .and_then(|doc| std::fs::write(&path, doc).map_err(|e| e.to_string()))
        {
            Ok(()) => eprintln!(
                "appended '{label}' ({} case timings) to {path}",
                timings.len()
            ),
            Err(e) => {
                eprintln!("cannot append bench history to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
