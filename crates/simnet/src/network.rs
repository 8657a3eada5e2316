//! The cluster network model.
//!
//! The paper's testbed is a 96-node cluster on 1 Gb Ethernet. We model the
//! network as a full mesh with a per-message base latency (propagation +
//! kernel/stack overhead) plus a serialization term proportional to message
//! size at the configured bandwidth, and optional random jitter. Crashed
//! nodes and partitions (from [`crate::fault`]) make delivery fail, which the
//! consensus protocols must tolerate.

use dichotomy_common::codec::Encode;
use dichotomy_common::rng::{self, Rng, StdRng};
use dichotomy_common::{NodeId, Timestamp};

use crate::fault::FaultPlan;

/// Static description of the cluster network.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// One-way base latency between two distinct nodes, in µs. LAN default
    /// reflects the paper's in-house 1 Gb Ethernet cluster.
    pub base_latency_us: u64,
    /// Additional uniform jitter bound in µs (actual jitter ∈ [0, bound]).
    pub jitter_us: u64,
    /// Link bandwidth in bytes per microsecond (125 B/µs = 1 Gb/s).
    pub bandwidth_bytes_per_us: f64,
    /// Latency of a node messaging itself (loopback), in µs.
    pub loopback_latency_us: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::lan_1gbps()
    }
}

impl NetworkConfig {
    /// The paper's evaluation network: 1 Gb Ethernet LAN, ~250 µs one-way
    /// application-to-application latency.
    pub fn lan_1gbps() -> Self {
        NetworkConfig {
            base_latency_us: 250,
            jitter_us: 50,
            bandwidth_bytes_per_us: 125.0,
            loopback_latency_us: 5,
        }
    }
}

impl Encode for NetworkConfig {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.base_latency_us.encode_into(out);
        self.jitter_us.encode_into(out);
        self.bandwidth_bytes_per_us.encode_into(out);
        self.loopback_latency_us.encode_into(out);
    }
    fn encoded_len(&self) -> usize {
        32
    }
}

/// The dynamic network: configuration + RNG for jitter + fault plan.
#[derive(Debug)]
pub struct NetworkModel {
    config: NetworkConfig,
    rng: StdRng,
    faults: FaultPlan,
    /// Total bytes handed to the network, for traffic accounting.
    bytes_sent: u64,
    /// Total messages handed to the network.
    messages_sent: u64,
}

impl NetworkModel {
    /// Build a network with the given config and RNG seed.
    pub fn new(config: NetworkConfig, seed: u64) -> Self {
        NetworkModel {
            config,
            rng: rng::seeded(rng::derive_seed(seed, "network")),
            faults: FaultPlan::none(),
            bytes_sent: 0,
            messages_sent: 0,
        }
    }

    /// Install a fault plan (crashes, partitions).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Access the configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Read access to the fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Mutable access to the fault plan (tests inject faults mid-run).
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.faults
    }

    /// One-way delivery delay for a `bytes`-sized message from `from` to
    /// `to`, sent at time `now`. Returns `None` if the message is lost
    /// (receiver crashed or the pair is partitioned at `now`).
    pub fn delay(&mut self, from: NodeId, to: NodeId, bytes: usize, now: Timestamp) -> Option<u64> {
        self.messages_sent += 1;
        self.bytes_sent += bytes as u64;
        if !self.faults.can_deliver(from, to, now) {
            return None;
        }
        if from == to {
            return Some(self.config.loopback_latency_us);
        }
        let serialization = (bytes as f64 / self.config.bandwidth_bytes_per_us) as u64;
        let jitter = if self.config.jitter_us == 0 {
            0
        } else {
            self.rng.gen_range(0..=self.config.jitter_us)
        };
        Some(self.config.base_latency_us + serialization + jitter)
    }

    /// Delay for broadcasting `bytes` from `from` to every node in `peers`
    /// (excluding itself), returning per-peer delays. Lost messages are
    /// `None`. The sender serializes the copies one after another on its
    /// uplink, which is what makes large blocks expensive to disseminate.
    pub fn broadcast(
        &mut self,
        from: NodeId,
        peers: &[NodeId],
        bytes: usize,
        now: Timestamp,
    ) -> Vec<(NodeId, Option<u64>)> {
        let mut out = Vec::with_capacity(peers.len());
        let mut uplink_occupancy = 0u64;
        for &peer in peers {
            if peer == from {
                continue;
            }
            let d = self.delay(from, peer, bytes, now);
            let serialization = (bytes as f64 / self.config.bandwidth_bytes_per_us) as u64;
            uplink_occupancy += serialization;
            out.push((
                peer,
                d.map(|d| d + uplink_occupancy.saturating_sub(serialization)),
            ));
        }
        out
    }

    /// Expected (jitter-free) one-way delay for planning purposes.
    pub fn expected_delay(&self, bytes: usize) -> u64 {
        self.config.base_latency_us
            + (bytes as f64 / self.config.bandwidth_bytes_per_us) as u64
            + self.config.jitter_us / 2
    }

    /// Total bytes offered to the network so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total messages offered to the network so far.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::NodeFault;

    fn net() -> NetworkModel {
        NetworkModel::new(NetworkConfig::lan_1gbps(), 1)
    }

    #[test]
    fn small_message_delay_is_about_base_latency() {
        let mut n = net();
        let d = n.delay(NodeId(0), NodeId(1), 100, 0).unwrap();
        assert!((250..=250 + 50 + 1).contains(&d), "delay {d}");
    }

    #[test]
    fn loopback_is_cheap() {
        let mut n = net();
        assert_eq!(n.delay(NodeId(2), NodeId(2), 10_000, 0), Some(5));
    }

    #[test]
    fn large_messages_pay_serialization() {
        let mut n = net();
        // 1 MB at 125 B/µs = 8000 µs of serialization.
        let d = n.delay(NodeId(0), NodeId(1), 1_000_000, 0).unwrap();
        assert!(d >= 8000 + 250, "delay {d}");
    }

    #[test]
    fn crashed_receiver_drops_messages() {
        let mut n = net();
        n.faults_mut().add(NodeFault::crash(NodeId(1), 100));
        assert!(n.delay(NodeId(0), NodeId(1), 10, 50).is_some());
        assert!(n.delay(NodeId(0), NodeId(1), 10, 150).is_none());
        // Other destinations unaffected.
        assert!(n.delay(NodeId(0), NodeId(2), 10, 150).is_some());
    }

    #[test]
    fn broadcast_skips_self_and_accounts_uplink() {
        let mut n = net();
        let peers = [NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        let out = n.broadcast(NodeId(0), &peers, 125_000, 0);
        assert_eq!(out.len(), 3);
        // Later recipients see strictly larger delays because the sender's
        // uplink serializes the copies (125 kB = 1000 µs per copy).
        let delays: Vec<u64> = out.iter().map(|(_, d)| d.unwrap()).collect();
        assert!(delays[1] > delays[0]);
        assert!(delays[2] > delays[1]);
    }

    #[test]
    fn traffic_accounting_accumulates() {
        let mut n = net();
        n.delay(NodeId(0), NodeId(1), 100, 0);
        n.delay(NodeId(0), NodeId(1), 400, 0);
        assert_eq!(n.bytes_sent(), 500);
        assert_eq!(n.messages_sent(), 2);
    }

    #[test]
    fn expected_delay_is_deterministic() {
        let n = net();
        assert_eq!(n.expected_delay(0), 250 + 25);
        assert_eq!(n.expected_delay(12_500), 250 + 100 + 25);
    }

    #[test]
    fn same_seed_gives_same_jitter_sequence() {
        let mut a = NetworkModel::new(NetworkConfig::lan_1gbps(), 99);
        let mut b = NetworkModel::new(NetworkConfig::lan_1gbps(), 99);
        for _ in 0..20 {
            assert_eq!(
                a.delay(NodeId(0), NodeId(1), 64, 0),
                b.delay(NodeId(0), NodeId(1), 64, 0)
            );
        }
    }
}
