//! Interconnect and cluster-topology cost models.
//!
//! The paper's two testbeds are (§IV, "Testbed"):
//!
//! 1. RTX 3090 servers — 8 GPUs over PCIe 4.0 ×16, servers linked by 1 Gbps
//!    Ethernet;
//! 2. A100 servers — 8 GPUs over NVLink, servers linked by 200 Gbps
//!    InfiniBand.
//!
//! Collective times follow the standard α–β model: a message of `b` bytes
//! over a link costs `α + β·b` where `α` is latency and `β = 1/bandwidth`.


torchgt_compat::json_enum! {
    /// A point-to-point link type with published latency/bandwidth figures.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub enum Interconnect {
        /// PCIe 4.0 ×16: ~32 GB/s, ~5 µs.
        Pcie4x16,
        /// NVLink (A100, aggregated): ~300 GB/s effective per pair, ~2 µs.
        NvLink,
        /// 1 Gbps Ethernet: 125 MB/s, ~50 µs.
        Ethernet1G,
        /// 200 Gbps InfiniBand: 25 GB/s, ~2 µs.
        Infiniband200G,
    }
}

impl Interconnect {
    /// Per-message latency α in seconds.
    pub fn alpha(self) -> f64 {
        match self {
            Interconnect::Pcie4x16 => 5e-6,
            Interconnect::NvLink => 2e-6,
            Interconnect::Ethernet1G => 50e-6,
            Interconnect::Infiniband200G => 2e-6,
        }
    }

    /// Inverse bandwidth β in seconds/byte.
    pub fn beta(self) -> f64 {
        match self {
            Interconnect::Pcie4x16 => 1.0 / 32e9,
            Interconnect::NvLink => 1.0 / 300e9,
            Interconnect::Ethernet1G => 1.0 / 0.125e9,
            Interconnect::Infiniband200G => 1.0 / 25e9,
        }
    }

    /// Time to move `bytes` point-to-point.
    pub(crate) fn p2p_time(self, bytes: usize) -> f64 {
        self.alpha() + self.beta() * bytes as f64
    }
}

/// Abstract α–β cost model of a cluster interconnect: the hook the perf
/// layer's overlap-aware iteration model plugs into. [`ClusterTopology`]
/// is the canonical implementation; analyses that want a hypothetical
/// fabric (or a measured one) implement this instead of hardcoding link
/// constants.
pub trait InterconnectModel {
    /// Number of ranks the model spans.
    fn world_size(&self) -> usize;
    /// Simulated time for one all-to-all moving `bytes_per_rank` per rank.
    fn all_to_all_time(&self, bytes_per_rank: usize) -> f64;
    /// Simulated time for an all-gather of `bytes_per_rank` from each rank.
    fn all_gather_time(&self, bytes_per_rank: usize) -> f64;
    /// Simulated time for a ring all-reduce over `bytes` per rank.
    fn all_reduce_time(&self, bytes: usize) -> f64;
    /// Simulated time for a ring reduce-scatter over `bytes` per rank.
    fn reduce_scatter_time(&self, bytes: usize) -> f64;
}

impl InterconnectModel for ClusterTopology {
    fn world_size(&self) -> usize {
        ClusterTopology::world_size(self)
    }

    fn all_to_all_time(&self, bytes_per_rank: usize) -> f64 {
        ClusterTopology::all_to_all_time(self, bytes_per_rank)
    }

    fn all_gather_time(&self, bytes_per_rank: usize) -> f64 {
        ClusterTopology::all_gather_time(self, bytes_per_rank)
    }

    fn all_reduce_time(&self, bytes: usize) -> f64 {
        ClusterTopology::all_reduce_time(self, bytes)
    }

    fn reduce_scatter_time(&self, bytes: usize) -> f64 {
        ClusterTopology::reduce_scatter_time(self, bytes)
    }
}

torchgt_compat::json_struct! {
    /// A multi-server GPU cluster layout.
    #[derive(Clone, Copy, Debug)]
    pub struct ClusterTopology {
        /// GPUs per server.
        pub gpus_per_server: usize,
        /// Number of servers.
        pub servers: usize,
        /// Intra-server link.
        pub intra: Interconnect,
        /// Inter-server link.
        pub inter: Interconnect,
    }
}

impl ClusterTopology {
    /// Paper testbed ① : RTX 3090 servers (PCIe intra, 1 GbE inter).
    pub fn rtx3090(servers: usize) -> Self {
        Self {
            gpus_per_server: 8,
            servers,
            intra: Interconnect::Pcie4x16,
            inter: Interconnect::Ethernet1G,
        }
    }

    /// Paper testbed ② : A100 servers (NVLink intra, 200 Gb IB inter).
    pub fn a100(servers: usize) -> Self {
        Self {
            gpus_per_server: 8,
            servers,
            intra: Interconnect::NvLink,
            inter: Interconnect::Infiniband200G,
        }
    }

    /// Total GPU count `P`.
    pub fn world_size(&self) -> usize {
        self.gpus_per_server * self.servers
    }

    /// Slowest link a pairwise exchange crosses when ranks span servers.
    fn bottleneck(&self) -> Interconnect {
        if self.servers > 1 {
            self.inter
        } else {
            self.intra
        }
    }

    /// Simulated time for one **all-to-all** where every rank exchanges
    /// `bytes_per_rank` in total (i.e. `bytes_per_rank / P` with each peer).
    ///
    /// This is the collective behind Cluster-aware Graph Parallelism: per-GPU
    /// volume `O(S/P)`, the paper's §III-C complexity analysis.
    pub fn all_to_all_time(&self, bytes_per_rank: usize) -> f64 {
        let p = self.world_size();
        if p <= 1 {
            return 0.0;
        }
        let per_peer = bytes_per_rank / p;
        // Peers on the same server go over `intra`, cross-server peers over
        // `inter`; exchanges proceed in parallel, so the time is the max of
        // the two serialized phases.
        let local_peers = self.gpus_per_server.min(p) - 1;
        let remote_peers = p - 1 - local_peers;
        let t_local = local_peers as f64 * self.intra.p2p_time(per_peer);
        // Cross-server traffic shares the server NIC: all remote bytes from
        // the rank's server funnel through one link.
        let t_remote = if remote_peers > 0 {
            self.inter.alpha() * (remote_peers as f64 / self.gpus_per_server as f64).max(1.0)
                + self.inter.beta() * (remote_peers * per_peer) as f64
        } else {
            0.0
        };
        t_local.max(t_remote)
    }

    /// Simulated time for an **all-gather** of `bytes_per_rank` from every
    /// rank (ring algorithm): each rank ends with `P × bytes_per_rank`.
    /// Communication complexity `O(S)` — this is why the paper prefers
    /// all-to-all.
    pub fn all_gather_time(&self, bytes_per_rank: usize) -> f64 {
        let p = self.world_size();
        if p <= 1 {
            return 0.0;
        }
        let link = self.bottleneck();
        (p - 1) as f64 * link.p2p_time(bytes_per_rank)
    }

    /// Simulated time for a ring **all-reduce** over `bytes` per rank
    /// (2(P−1)/P × bytes over the slowest link).
    pub fn all_reduce_time(&self, bytes: usize) -> f64 {
        let p = self.world_size();
        if p <= 1 {
            return 0.0;
        }
        let link = self.bottleneck();
        let steps = 2 * (p - 1);
        let chunk = bytes / p;
        steps as f64 * link.p2p_time(chunk.max(1))
    }

    /// Simulated time for a **reduce-scatter** (ring, (P−1)/P × bytes).
    pub fn reduce_scatter_time(&self, bytes: usize) -> f64 {
        let p = self.world_size();
        if p <= 1 {
            return 0.0;
        }
        let link = self.bottleneck();
        let chunk = bytes / p;
        (p - 1) as f64 * link.p2p_time(chunk.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_parameters_are_ordered_sanely() {
        // NVLink is the fastest, 1GbE the slowest.
        assert!(Interconnect::NvLink.beta() < Interconnect::Pcie4x16.beta());
        assert!(Interconnect::Pcie4x16.beta() < Interconnect::Ethernet1G.beta());
        assert!(Interconnect::Infiniband200G.beta() < Interconnect::Ethernet1G.beta());
    }

    #[test]
    fn p2p_time_scales_with_bytes() {
        let l = Interconnect::Pcie4x16;
        assert!(l.p2p_time(1 << 20) < l.p2p_time(1 << 24));
        // 1 GiB over 32 GB/s ≈ 33 ms.
        let t = l.p2p_time(1 << 30);
        assert!((0.02..0.05).contains(&t), "t = {t}");
    }

    #[test]
    fn single_gpu_collectives_are_free() {
        let topo = ClusterTopology { gpus_per_server: 1, servers: 1, ..ClusterTopology::a100(1) };
        assert_eq!(topo.all_to_all_time(1 << 20), 0.0);
        assert_eq!(topo.all_reduce_time(1 << 20), 0.0);
    }

    #[test]
    fn all_to_all_beats_all_gather_for_same_payload() {
        // The paper's §III-C claim: all-to-all is O(S/P) per GPU while
        // all-gather is O(S).
        let topo = ClusterTopology::a100(1);
        let bytes = 64 << 20;
        assert!(topo.all_to_all_time(bytes) < topo.all_gather_time(bytes));
    }

    #[test]
    fn multi_server_pays_ethernet_penalty_on_3090() {
        let one = ClusterTopology::rtx3090(1);
        let two = ClusterTopology::rtx3090(2);
        let bytes = 16 << 20;
        assert!(two.all_to_all_time(bytes) > 5.0 * one.all_to_all_time(bytes));
    }

    #[test]
    fn a100_multi_server_scales_gently() {
        let b = 64 << 20;
        let t2 = ClusterTopology::a100(2).all_to_all_time(b);
        let t8 = ClusterTopology::a100(8).all_to_all_time(b);
        // More servers spread the same per-rank volume: should not blow up.
        assert!(t8 < t2 * 4.0, "t2={t2}, t8={t8}");
    }

    #[test]
    fn world_size() {
        assert_eq!(ClusterTopology::a100(3).world_size(), 24);
    }
}
