//! The YCSB core workload with the knobs of Table 3.

use dichotomy_common::rng::{self, Rng, StdRng};
use dichotomy_common::{ClientId, Encode, Key, KeyPair, Operation, Transaction, TxnId, Value};

use crate::zipf::ZipfianGenerator;
use crate::Workload;

/// Read/write mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum YcsbMix {
    /// 100 % writes (the paper's "update" workload).
    UpdateOnly,
    /// 100 % reads (the paper's "query" workload).
    QueryOnly,
    /// Each transaction reads the key, then writes it back (the skew
    /// experiments' "modify" transaction).
    ReadModifyWrite,
    /// A fraction of operations are reads, the rest writes.
    Mixed {
        /// Probability that an operation is a read.
        read_fraction: f64,
    },
}

/// Workload configuration (defaults = the paper's defaults, Table 3).
#[derive(Debug, Clone)]
pub struct YcsbConfig {
    /// Number of pre-loaded records (paper: 100 K for YCSB peak throughput).
    pub record_count: u64,
    /// Record (value) size in bytes; Table 3 default 1 000.
    pub record_size: usize,
    /// Zipfian coefficient θ; Table 3 default 0 (uniform).
    pub zipf_theta: f64,
    /// Operations per transaction; Table 3 default 1.
    pub ops_per_txn: usize,
    /// Read/write mix.
    pub mix: YcsbMix,
    /// Whether transactions carry client signatures (blockchains need them;
    /// databases do not).
    pub sign_transactions: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        YcsbConfig {
            record_count: 100_000,
            record_size: 1_000,
            zipf_theta: 0.0,
            ops_per_txn: 1,
            mix: YcsbMix::UpdateOnly,
            sign_transactions: true,
            seed: dichotomy_common::rng::DEFAULT_SEED,
        }
    }
}

impl Encode for YcsbMix {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            YcsbMix::UpdateOnly => out.push(0),
            YcsbMix::QueryOnly => out.push(1),
            YcsbMix::ReadModifyWrite => out.push(2),
            YcsbMix::Mixed { read_fraction } => {
                out.push(3);
                read_fraction.encode_into(out);
            }
        }
    }
}

impl Encode for YcsbConfig {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.record_count.encode_into(out);
        (self.record_size as u64).encode_into(out);
        self.zipf_theta.encode_into(out);
        (self.ops_per_txn as u64).encode_into(out);
        self.mix.encode_into(out);
        self.sign_transactions.encode_into(out);
        self.seed.encode_into(out);
    }
}

impl YcsbConfig {
    /// The paper's uniform query-only configuration.
    pub fn query_default() -> Self {
        YcsbConfig {
            mix: YcsbMix::QueryOnly,
            ..YcsbConfig::default()
        }
    }

    /// The skew-sweep configuration of Figure 9: single-record
    /// read-modify-write transactions at the given θ.
    pub fn skewed_modify(theta: f64) -> Self {
        YcsbConfig {
            zipf_theta: theta,
            mix: YcsbMix::ReadModifyWrite,
            ..YcsbConfig::default()
        }
    }

    /// The operation-count sweep of Figure 10: `ops` operations per
    /// transaction with the total transaction payload held at 1 000 bytes.
    pub fn op_count_sweep(ops: usize) -> Self {
        let ops = ops.max(1);
        YcsbConfig {
            ops_per_txn: ops,
            record_size: 1_000 / ops,
            mix: YcsbMix::ReadModifyWrite,
            ..YcsbConfig::default()
        }
    }
}

/// The YCSB workload generator.
pub struct YcsbWorkload {
    config: YcsbConfig,
    zipf: ZipfianGenerator,
    rng: StdRng,
}

impl YcsbWorkload {
    /// Build a workload from its configuration.
    pub fn new(config: YcsbConfig) -> Self {
        let zipf = ZipfianGenerator::new(config.record_count, config.zipf_theta, config.seed);
        let rng = rng::seeded(rng::derive_seed(config.seed, "ycsb"));
        YcsbWorkload { config, zipf, rng }
    }

    /// The configuration in use.
    pub fn config(&self) -> &YcsbConfig {
        &self.config
    }

    /// The YCSB-style key for a record index.
    pub fn key_for(index: u64) -> Key {
        Key::from_str(&format!("user{index:012}"))
    }

    fn next_key(&mut self) -> Key {
        Self::key_for(self.zipf.next())
    }

    fn next_value(&mut self) -> Value {
        Value::filler(self.config.record_size.max(1))
    }
}

impl Workload for YcsbWorkload {
    fn initial_records(&self) -> Vec<(Key, Value)> {
        (0..self.config.record_count)
            .map(|i| {
                (
                    Self::key_for(i),
                    Value::filler(self.config.record_size.max(1)),
                )
            })
            .collect()
    }

    fn next_transaction(&mut self, client: ClientId, seq: u64) -> Transaction {
        let mut ops = Vec::with_capacity(self.config.ops_per_txn);
        let mut used = std::collections::BTreeSet::new();
        while ops.len() < self.config.ops_per_txn {
            let key = self.next_key();
            // YCSB transactions touch distinct keys.
            if !used.insert(key.clone()) {
                continue;
            }
            let op = match self.config.mix {
                YcsbMix::UpdateOnly => Operation::write(key, self.next_value()),
                YcsbMix::QueryOnly => Operation::read(key),
                YcsbMix::ReadModifyWrite => Operation::read_modify_write(key, self.next_value()),
                YcsbMix::Mixed { read_fraction } => {
                    if self.rng.gen_bool(read_fraction.clamp(0.0, 1.0)) {
                        Operation::read(key)
                    } else {
                        Operation::write(key, self.next_value())
                    }
                }
            };
            ops.push(op);
        }
        let id = TxnId::new(client, seq);
        if self.config.sign_transactions {
            Transaction::signed(id, ops, 0, &KeyPair::for_client(client.0))
        } else {
            Transaction::new(id, ops)
        }
    }

    fn name(&self) -> &'static str {
        "YCSB"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_records_match_config() {
        let w = YcsbWorkload::new(YcsbConfig {
            record_count: 100,
            record_size: 64,
            ..YcsbConfig::default()
        });
        let records = w.initial_records();
        assert_eq!(records.len(), 100);
        assert!(records.iter().all(|(_, v)| v.len() == 64));
        assert_eq!(records[5].0, YcsbWorkload::key_for(5));
    }

    #[test]
    fn update_only_transactions_are_writes_of_the_right_size() {
        let mut w = YcsbWorkload::new(YcsbConfig {
            record_count: 1000,
            record_size: 100,
            ..YcsbConfig::default()
        });
        let t = w.next_transaction(ClientId(1), 1);
        assert_eq!(t.op_count(), 1);
        assert!(t.ops[0].writes() && !t.ops[0].reads());
        assert_eq!(t.ops[0].value.as_ref().unwrap().len(), 100);
        assert!(t.verify_signature());
    }

    #[test]
    fn query_only_transactions_are_read_only() {
        let mut w = YcsbWorkload::new(YcsbConfig::query_default());
        let t = w.next_transaction(ClientId(2), 1);
        assert!(t.is_read_only());
    }

    #[test]
    fn op_count_sweep_holds_total_payload_constant() {
        for ops in [1usize, 2, 4, 10] {
            let mut w = YcsbWorkload::new(YcsbConfig {
                record_count: 10_000,
                ..YcsbConfig::op_count_sweep(ops)
            });
            let t = w.next_transaction(ClientId(1), 1);
            assert_eq!(t.op_count(), ops);
            let value_bytes: usize = t.ops.iter().map(|o| o.value.as_ref().unwrap().len()).sum();
            assert_eq!(value_bytes, (1000 / ops) * ops);
        }
    }

    #[test]
    fn transactions_touch_distinct_keys() {
        let mut w = YcsbWorkload::new(YcsbConfig {
            record_count: 50,
            ops_per_txn: 10,
            zipf_theta: 0.99,
            mix: YcsbMix::ReadModifyWrite,
            ..YcsbConfig::default()
        });
        for seq in 0..20 {
            let t = w.next_transaction(ClientId(1), seq);
            let mut keys: Vec<_> = t.ops.iter().map(|o| o.key.clone()).collect();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), 10);
        }
    }

    #[test]
    fn skewed_workload_repeats_hot_keys_across_transactions() {
        let mut w = YcsbWorkload::new(YcsbConfig {
            record_count: 10_000,
            ..YcsbConfig::skewed_modify(0.99)
        });
        let mut counts = std::collections::HashMap::new();
        for seq in 0..2000 {
            let t = w.next_transaction(ClientId(1), seq);
            *counts.entry(t.ops[0].key.clone()).or_insert(0u32) += 1;
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max > 50, "hottest key hit {max} times");
    }

    #[test]
    fn mixed_workload_contains_both_reads_and_writes() {
        let mut w = YcsbWorkload::new(YcsbConfig {
            record_count: 1000,
            ops_per_txn: 4,
            mix: YcsbMix::Mixed { read_fraction: 0.5 },
            sign_transactions: false,
            ..YcsbConfig::default()
        });
        let mut reads = 0;
        let mut writes = 0;
        for seq in 0..100 {
            let t = w.next_transaction(ClientId(1), seq);
            assert!(t.signature.is_none());
            for op in &t.ops {
                if op.writes() {
                    writes += 1;
                } else {
                    reads += 1;
                }
            }
        }
        assert!(reads > 50 && writes > 50);
    }
}
