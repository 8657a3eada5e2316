//! Substrate replays: a workload's own initial records and write sets fed
//! into fresh `merkle` and `storage` instances, so a model's `load` and
//! stage-handler time can be split by substrate.
//!
//! Each phase is timed as a whole (one clock pair around a loop) and
//! reported per operation, so timer cost does not inflate the small ops.

use std::hint::black_box;
use std::time::Instant;

use dichotomy_core::common::{Key, Value};
use dichotomy_core::merkle::{MerkleBucketTree, MerklePatriciaTrie};
use dichotomy_core::storage::{KvEngine, LsmTree, MvccStore};

use crate::layers::Stat;

/// Transactions per state root in the MPT update replay (Quorum computes a
/// root per block).
const TXNS_PER_ROOT: usize = 100;

/// Replay totals; `calls` counts operations.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Substrates {
    /// `MerklePatriciaTrie::insert` of the initial records (bulk load, no
    /// root).
    pub mpt_insert: Stat,
    /// `MerklePatriciaTrie::insert` over existing keys, one write set at a
    /// time, with `root_hash` every [`TXNS_PER_ROOT`] transactions; the
    /// root time is spread over the writes.
    pub mpt_update: Stat,
    /// `MerkleBucketTree::put` of the records, then of the writes.
    pub bucket_put: Stat,
    /// `LsmTree::put` of the records, then of the writes.
    pub lsm_put: Stat,
    /// `MvccStore::commit_write` of the records at one version, then of
    /// each write set at its own version.
    pub mvcc_commit: Stat,
}

fn timed(stat: &mut Stat, ops: usize, f: impl FnOnce()) {
    let t = Instant::now();
    f();
    stat.ns += t.elapsed().as_nanos() as u64;
    stat.calls += ops as u64;
}

impl Substrates {
    /// Replay one workload's `records` and `writes` into fresh instances.
    pub fn replay(&mut self, records: &[(Key, Value)], writes: &[Vec<(Key, Value)>]) {
        let write_ops: usize = writes.iter().map(Vec::len).sum();

        let mut mpt = MerklePatriciaTrie::new();
        timed(&mut self.mpt_insert, records.len(), || {
            for (k, v) in records {
                black_box(mpt.insert(k, v));
            }
        });
        timed(&mut self.mpt_update, write_ops, || {
            for block in writes.chunks(TXNS_PER_ROOT) {
                for (k, v) in block.iter().flatten() {
                    black_box(mpt.insert(k, v));
                }
                black_box(mpt.root_hash());
            }
        });

        let mut mbt = MerkleBucketTree::fabric_default();
        timed(&mut self.bucket_put, records.len() + write_ops, || {
            for (k, v) in records.iter().chain(writes.iter().flatten()) {
                black_box(mbt.put(k, v));
            }
        });
        black_box(mbt.root_hash());

        let mut lsm = LsmTree::new();
        timed(&mut self.lsm_put, records.len() + write_ops, || {
            for (k, v) in records.iter().chain(writes.iter().flatten()) {
                lsm.put(k.clone(), v.clone());
            }
        });
        black_box(lsm.len());

        let mut mvcc = MvccStore::new();
        timed(&mut self.mvcc_commit, records.len() + write_ops, || {
            let version = mvcc.begin_commit();
            for (k, v) in records {
                mvcc.commit_write(k.clone(), version, Some(v.clone()));
            }
            for set in writes {
                let version = mvcc.begin_commit();
                for (k, v) in set {
                    mvcc.commit_write(k.clone(), version, Some(v.clone()));
                }
            }
        });
        black_box(mvcc.version_count());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_substrate_counts_its_operations() {
        let records: Vec<(Key, Value)> = (0..50u64)
            .map(|i| (Key::new(i.to_be_bytes().to_vec()), Value::filler(32)))
            .collect();
        let writes: Vec<Vec<(Key, Value)>> = (0..30u64)
            .map(|i| vec![(Key::new((i % 50).to_be_bytes().to_vec()), Value::filler(16))])
            .collect();
        let mut s = Substrates::default();
        s.replay(&records, &writes);
        assert_eq!(s.mpt_insert.calls, 50);
        assert_eq!(s.mpt_update.calls, 30);
        for stat in [s.bucket_put, s.lsm_put, s.mvcc_commit] {
            assert_eq!(stat.calls, 80);
        }
        assert!(s.mpt_insert.ns > 0 && s.mpt_update.ns > 0);
    }
}
