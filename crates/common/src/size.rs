//! Byte-level storage accounting.
//!
//! Figures 12 and 13 of the paper are pure storage-size measurements (bytes
//! per record in state storage, block storage, and under the MBT / MPT
//! authenticated indexes). To regenerate them, every storage component in the
//! workspace reports its footprint through the [`StorageFootprint`] trait,
//! and the helpers here aggregate per-record costs. Payload sizes come from
//! the canonical [`Encode`] byte encoding, so accounting matches what would
//! actually sit on a wire or on disk.

use crate::codec::Encode;

/// Total canonical encoded size of a collection of values, in bytes — the
/// payload term of a [`StorageBreakdown`].
pub fn encoded_bytes<'a, T, I>(items: I) -> u64
where
    T: Encode + 'a,
    I: IntoIterator<Item = &'a T>,
{
    items
        .into_iter()
        .map(|item| item.encoded_len() as u64)
        .sum()
}

/// Breakdown of a component's storage consumption in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageBreakdown {
    /// Bytes holding the raw record payloads (keys + values).
    pub payload_bytes: u64,
    /// Bytes holding index structures over the payloads (tree nodes, bucket
    /// directories, hashes of internal nodes...).
    pub index_bytes: u64,
    /// Bytes holding historical data: ledger blocks, old versions, WAL.
    pub history_bytes: u64,
}

impl StorageBreakdown {
    /// Total footprint in bytes.
    pub fn total(&self) -> u64 {
        self.payload_bytes + self.index_bytes + self.history_bytes
    }

    /// Average bytes consumed per record, given the number of live records.
    /// Returns 0.0 when there are no records.
    pub fn per_record(&self, record_count: u64) -> f64 {
        if record_count == 0 {
            0.0
        } else {
            self.total() as f64 / record_count as f64
        }
    }

    /// Overhead per record beyond the raw payload (the quantity Figure 13
    /// reports for MBT vs MPT).
    pub fn overhead_per_record(&self, record_count: u64) -> f64 {
        if record_count == 0 {
            0.0
        } else {
            (self.index_bytes + self.history_bytes) as f64 / record_count as f64
        }
    }

    /// Element-wise sum of two breakdowns.
    pub fn merged(&self, other: &StorageBreakdown) -> StorageBreakdown {
        StorageBreakdown {
            payload_bytes: self.payload_bytes + other.payload_bytes,
            index_bytes: self.index_bytes + other.index_bytes,
            history_bytes: self.history_bytes + other.history_bytes,
        }
    }
}

impl StorageBreakdown {
    /// A breakdown whose payload term is the canonical encoded size of
    /// `items` (index and history start at zero; callers add their own).
    pub fn of_payload<'a, T, I>(items: I) -> StorageBreakdown
    where
        T: Encode + 'a,
        I: IntoIterator<Item = &'a T>,
    {
        StorageBreakdown {
            payload_bytes: encoded_bytes(items),
            index_bytes: 0,
            history_bytes: 0,
        }
    }
}

impl Encode for StorageBreakdown {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.payload_bytes.encode_into(out);
        self.index_bytes.encode_into(out);
        self.history_bytes.encode_into(out);
    }
    fn encoded_len(&self) -> usize {
        24
    }
}

impl crate::codec::Decode for StorageBreakdown {
    fn decode_from(input: &mut &[u8]) -> Option<Self> {
        Some(StorageBreakdown {
            payload_bytes: u64::decode_from(input)?,
            index_bytes: u64::decode_from(input)?,
            history_bytes: u64::decode_from(input)?,
        })
    }
}

/// Implemented by every component that occupies (simulated) storage.
pub trait StorageFootprint {
    /// Report the component's current footprint.
    fn footprint(&self) -> StorageBreakdown;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_per_record() {
        let b = StorageBreakdown {
            payload_bytes: 1000,
            index_bytes: 240,
            history_bytes: 760,
        };
        assert_eq!(b.total(), 2000);
        assert!((b.per_record(10) - 200.0).abs() < 1e-9);
        assert!((b.overhead_per_record(10) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn zero_records_is_not_a_division_by_zero() {
        let b = StorageBreakdown::default();
        assert_eq!(b.per_record(0), 0.0);
        assert_eq!(b.overhead_per_record(0), 0.0);
    }

    #[test]
    fn encoded_payload_accounting_matches_the_codec() {
        use crate::types::Value;
        let values = [Value::filler(10), Value::filler(100)];
        // Each Value encodes as a 4-byte length prefix plus its payload.
        assert_eq!(encoded_bytes(values.iter()), (4 + 10) + (4 + 100));
        let b = StorageBreakdown::of_payload(values.iter());
        assert_eq!(b.payload_bytes, 118);
        assert_eq!(b.index_bytes, 0);
        assert_eq!(b.total(), 118);
        assert_eq!(b.encoded_len(), b.encode().len());
    }

    #[test]
    fn merged_adds_componentwise() {
        let a = StorageBreakdown {
            payload_bytes: 1,
            index_bytes: 2,
            history_bytes: 3,
        };
        let b = StorageBreakdown {
            payload_bytes: 10,
            index_bytes: 20,
            history_bytes: 30,
        };
        let m = a.merged(&b);
        assert_eq!(m.payload_bytes, 11);
        assert_eq!(m.index_bytes, 22);
        assert_eq!(m.history_bytes, 33);
        assert_eq!(m.total(), 66);
    }
}
