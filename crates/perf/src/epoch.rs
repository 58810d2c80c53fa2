//! Epoch-time composition: turns a training configuration plus measured
//! layout statistics into simulated per-epoch wall-clock on the paper's
//! hardware. This is what the Table V / VI / Figure 7 / Figure 9 harnesses
//! report.

use crate::gpu::GpuSpec;
use crate::kernels;
use crate::memory::{fits, ModelShape};
use torchgt_comm::ClusterTopology;
use torchgt_sparse::{AccessProfile, LayoutKind};

/// A fully-specified training step for the cost model.
#[derive(Clone, Debug)]
pub struct StepSpec {
    /// Device model.
    pub gpu: GpuSpec,
    /// Cluster layout (world size = parallelism degree `P`).
    pub topology: ClusterTopology,
    /// Model shape.
    pub shape: ModelShape,
    /// Attention layout family.
    pub layout: LayoutKind,
    /// Global sequence length `S`.
    pub seq_len: usize,
    /// Access profile of the attention pattern (ignored for dense/flash).
    pub profile: AccessProfile,
}

torchgt_compat::json_struct! {
    /// Simulated breakdown of one training iteration.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct IterationCost {
        /// Attention forward+backward seconds.
        pub attention: f64,
        /// Projections + FFN + layernorm seconds.
        pub other_compute: f64,
        /// Collective-communication seconds.
        pub comm: f64,
        /// Optimizer step seconds.
        pub optimizer: f64,
        /// True when the step exceeds device memory (the paper's OOM cells).
        pub oom: bool,
    }
}

impl IterationCost {
    /// Total iteration seconds.
    pub fn total(&self) -> f64 {
        self.attention + self.other_compute + self.comm + self.optimizer
    }

    /// Fraction of the iteration spent in attention (the paper's Figure 2
    /// shows > 80% for flash on long sequences).
    pub fn attention_fraction(&self) -> f64 {
        let t = self.total();
        if t > 0.0 {
            self.attention / t
        } else {
            0.0
        }
    }
}

/// Simulated all-to-all volume of one training iteration, for recorders
/// attached to cost-model (non-thread-backed) trainers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllToAllTraffic {
    /// Relayout invocations per iteration.
    pub ops: u64,
    /// Logical message bytes across all invocations.
    pub payload_bytes: u64,
    /// Bytes that cross an interconnect link (`payload · (P−1)/P`; zero on a
    /// single device).
    pub wire_bytes: u64,
}

/// All-to-all traffic implied by one iteration of the §III-C relayout
/// pipeline: 4 all-to-alls per attention call (Q, K, V in + output back),
/// mirrored in the backward pass — 8 per layer, each moving the full
/// `S × d` activation in fp32.
pub fn all_to_all_traffic(spec: &StepSpec) -> AllToAllTraffic {
    let p = spec.topology.world_size().max(1) as u64;
    let ops = 8 * spec.shape.layers as u64;
    let payload_bytes = ops * (spec.seq_len * spec.shape.hidden * 4) as u64;
    AllToAllTraffic { ops, payload_bytes, wire_bytes: payload_bytes * (p - 1) / p }
}

/// Estimate one training iteration (forward + backward + step) on the
/// spec's device and cluster.
pub fn iteration_cost(spec: &StepSpec) -> IterationCost {
    let p = spec.topology.world_size().max(1);
    let gpu = &spec.gpu;
    let d = spec.shape.hidden;
    let l = spec.shape.layers as f64;
    let s_local = spec.seq_len.div_ceil(p);

    let oom = !fits(gpu, &spec.shape, spec.layout, spec.seq_len, spec.profile.nnz, p);

    // Attention: per layer, forward + backward. Sequence parallelism gives
    // each rank the full sequence but 1/P of the heads (all-to-all layout),
    // so per-rank attention work is 1/P of the global total.
    let attn_fwd = match spec.layout {
        LayoutKind::Dense => kernels::dense_attention_fwd(gpu, spec.seq_len, d) / p as f64,
        LayoutKind::Flash => kernels::flash_attention_fwd(gpu, spec.seq_len, d) / p as f64,
        LayoutKind::Topology | LayoutKind::Clustered => {
            kernels::sparse_attention_fwd(gpu, &spec.profile, d) / p as f64
        }
        LayoutKind::ClusterSparse => {
            kernels::cluster_sparse_attention_fwd(gpu, &spec.profile, d) / p as f64
        }
    };
    let attn_bwd = match spec.layout {
        LayoutKind::Dense => kernels::dense_attention_bwd(gpu, spec.seq_len, d) / p as f64,
        LayoutKind::Flash => kernels::flash_attention_bwd(gpu, spec.seq_len, d) / p as f64,
        LayoutKind::Topology | LayoutKind::Clustered => {
            kernels::sparse_attention_bwd(gpu, &spec.profile, d) / p as f64
        }
        LayoutKind::ClusterSparse => {
            kernels::cluster_sparse_attention_bwd(gpu, &spec.profile, d) / p as f64
        }
    };
    let attention = l * (attn_fwd + attn_bwd);

    // Everything else operates on the local S/P shard; backward ≈ 2× forward.
    let per_layer_fwd = kernels::projections_fwd(gpu, s_local, d)
        + kernels::ffn_fwd(gpu, s_local, d)
        + kernels::elementwise(gpu, s_local, d, 6.0);
    let other_compute = l * per_layer_fwd * 3.0;

    // Cluster-aware graph parallelism: two all-to-alls per layer, total
    // message size 4·S·d (3 before attention for Q,K,V + 1 after), i.e.
    // 4·S·d/P bytes per rank — §III-C. Backward mirrors them. NCCL overlaps
    // most of this traffic with the surrounding compute streams; 80% overlap
    // reproduces the paper's ~1.7× throughput per server doubling (Fig. 7a).
    const COMM_EXPOSED: f64 = 0.2;
    let comm = if p > 1 {
        let bytes_per_rank = 4 * spec.seq_len.div_ceil(p) * d * 4;
        COMM_EXPOSED * l * 2.0 * 2.0 * spec.topology.all_to_all_time(bytes_per_rank)
    } else {
        0.0
    };

    // Adam: ~4 passes over parameters + a gradient all-reduce.
    let param_bytes = (spec.shape.param_count() * 4) as f64;
    let mut optimizer = gpu.stream_time(4.0 * param_bytes);
    if p > 1 {
        optimizer += spec.topology.all_reduce_time(param_bytes as usize);
    }

    IterationCost { attention, other_compute, comm, optimizer, oom }
}

/// Simulated epoch time: `iterations × iteration`, with `tokens_total` nodes
/// visited per epoch in sequences of `seq_len`.
pub fn epoch_cost(spec: &StepSpec, tokens_total: usize) -> (IterationCost, f64) {
    let it = iteration_cost(spec);
    let iterations = tokens_total.div_ceil(spec.seq_len.max(1)).max(1);
    (it, it.total() * iterations as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchgt_sparse::dense_profile;

    fn sparse_profile(nnz: usize, run: f64) -> AccessProfile {
        AccessProfile {
            nnz,
            runs: ((nnz as f64 / run) as usize).max(1),
            avg_run_len: run,
            isolated: 0,
            active_rows: 1,
        }
    }

    fn base_spec(layout: LayoutKind, s: usize, profile: AccessProfile) -> StepSpec {
        StepSpec {
            gpu: GpuSpec::rtx3090(),
            topology: ClusterTopology::rtx3090(1),
            shape: ModelShape { layers: 4, hidden: 64, heads: 8 },
            layout,
            seq_len: s,
            profile,
        }
    }

    #[test]
    fn figure2_attention_dominates_flash_iterations() {
        // Figure 2: attention > 80% of iteration time for flash on 64K–512K.
        for s in [64usize << 10, 256 << 10, 512 << 10] {
            let spec = base_spec(LayoutKind::Flash, s, dense_profile(0));
            let it = iteration_cost(&spec);
            assert!(
                it.attention_fraction() > 0.8,
                "S={s}: fraction {}",
                it.attention_fraction()
            );
        }
    }

    #[test]
    fn torchgt_layout_breaks_the_bottleneck() {
        let s = 256 << 10;
        let flash = iteration_cost(&base_spec(LayoutKind::Flash, s, dense_profile(0)));
        let tgt = iteration_cost(&base_spec(
            LayoutKind::ClusterSparse,
            s,
            sparse_profile(s * 25, 12.0),
        ));
        let speedup = flash.total() / tgt.total();
        assert!(speedup > 3.0, "speedup {speedup}");
    }

    #[test]
    fn raw_dense_ooms_at_table5_scale() {
        let s = 256 << 10;
        let it = iteration_cost(&base_spec(LayoutKind::Dense, s, dense_profile(0)));
        assert!(it.oom);
    }

    #[test]
    fn epoch_cost_scales_with_tokens() {
        let spec = base_spec(LayoutKind::Flash, 64 << 10, dense_profile(0));
        let (_, t1) = epoch_cost(&spec, 64 << 10);
        let (_, t4) = epoch_cost(&spec, 256 << 10);
        assert!((t4 / t1 - 4.0).abs() < 0.01);
    }

    #[test]
    fn all_to_all_traffic_scales_with_world() {
        let spec = base_spec(LayoutKind::Flash, 4096, dense_profile(0));
        let t = all_to_all_traffic(&spec);
        let l = spec.shape.layers as u64;
        assert_eq!(t.ops, 8 * l);
        assert_eq!(t.payload_bytes, 8 * l * (4096 * spec.shape.hidden * 4) as u64);
        // rtx3090(1) is one 8-GPU server: 7/8 of the payload crosses links.
        assert_eq!(t.wire_bytes, t.payload_bytes * 7 / 8);
        let mut single = spec;
        single.topology = ClusterTopology { gpus_per_server: 1, servers: 1, ..single.topology };
        assert_eq!(all_to_all_traffic(&single).wire_bytes, 0);
    }

    #[test]
    fn multi_server_comm_appears() {
        let mut spec = base_spec(LayoutKind::ClusterSparse, 1 << 20, sparse_profile(1 << 24, 8.0));
        spec.topology = ClusterTopology::a100(2);
        spec.gpu = GpuSpec::a100();
        let it = iteration_cost(&spec);
        assert!(it.comm > 0.0);
    }

    #[test]
    fn figure7_doubling_gpus_speeds_up_torchgt() {
        // Fixed S = 1024K on A100 servers: 2× servers ⇒ ≥1.5× throughput.
        let make = |servers| {
            let mut s = base_spec(
                LayoutKind::ClusterSparse,
                1 << 20,
                sparse_profile((1usize << 20) * 25, 12.0),
            );
            s.gpu = GpuSpec::a100();
            s.topology = ClusterTopology::a100(servers);
            s
        };
        let t1 = iteration_cost(&make(1)).total();
        let t2 = iteration_cost(&make(2)).total();
        let ratio = t1 / t2;
        assert!(ratio > 1.5, "scaling ratio {ratio}");
    }
}
