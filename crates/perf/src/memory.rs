//! Activation-memory estimation, OOM detection and maximum trainable
//! sequence length.
//!
//! Reproduces the paper's memory findings: GP-RAW's materialised `S²` score
//! matrix OOMs on every large dataset (Table V — "GP-RAW requires over 200 GB
//! … for ogbn-products"), while TorchGT's sharded `O(E + S·d/P)` footprint
//! scales the maximum sequence length almost linearly in the GPU count
//! (Figure 9(a)).

use crate::gpu::GpuSpec;
use torchgt_sparse::LayoutKind;

pub use torchgt_sparse::ModelShape;

/// Per-GPU activation + parameter memory (bytes) of one training step.
///
/// * `seq_len` — global sequence length `S`;
/// * `nnz` — attention-pattern nonzeros (ignored for dense/flash);
/// * `p` — parallelism degree (sequence split across `p` ranks for every
///   layout except [`LayoutKind::Dense`], whose score matrix is
///   unsharded in GP-RAW's naive graph parallelism).
pub fn memory_per_gpu(
    shape: &ModelShape,
    layout: LayoutKind,
    seq_len: usize,
    nnz: usize,
    p: usize,
) -> u64 {
    let p = p.max(1) as u64;
    let s = seq_len as u64;
    let d = shape.hidden as u64;
    let l = shape.layers as u64;
    let heads = shape.heads as u64;
    // Activations that every scheme shards across the sequence dimension:
    // ~10 tensors of [S/P, d] per layer (QKV, attention out, FFN ×4d …).
    let sharded_act = 18 * l * (s / p) * d * 4;
    // Parameters + Adam states are replicated on every rank.
    let params = (shape.param_count() as u64) * 4 * 3;
    // Attention-pattern-specific buffers.
    let attn = match layout {
        // GP-RAW materialises per-head S×S scores and keeps them for
        // backward; the naive graph parallelism cannot shard them.
        LayoutKind::Dense => heads * s * s * 4,
        // Flash never materialises the score matrix.
        LayoutKind::Flash => 8 * (s / p) * d * 4,
        // Sparse variants keep the pattern (indices) plus per-edge
        // coefficients for backward, sharded by rows.
        LayoutKind::Topology | LayoutKind::Clustered | LayoutKind::ClusterSparse => {
            let nz = (nnz as u64) / p;
            nz * (4 + 4 + 8) // coefficient + grad + index pair
        }
    };
    // Graph-encoding bias tables etc. replicated per rank: small, O(S).
    let replicated = 24 * s;
    sharded_act + params + attn + replicated
}

/// Whether a step fits in device memory (with a 10% headroom for the
/// allocator, CUDA context, etc.).
pub fn fits(spec: &GpuSpec, shape: &ModelShape, layout: LayoutKind, s: usize, nnz: usize, p: usize) -> bool {
    let budget = (spec.mem_bytes as f64 * 0.9) as u64;
    memory_per_gpu(shape, layout, s, nnz, p) <= budget
}

/// Largest sequence length trainable on `p` GPUs (binary search over the
/// memory model). `nnz_per_token` carries the graph's average degree so the
/// sparse pattern grows with `S`.
pub fn max_seq_len(
    spec: &GpuSpec,
    shape: &ModelShape,
    layout: LayoutKind,
    nnz_per_token: f64,
    p: usize,
) -> usize {
    let mut lo = 0usize;
    let mut hi = 1usize << 26; // 64M tokens — above anything trainable here
    while lo < hi {
        let mid = lo + (hi - lo + 1) / 2;
        let nnz = (mid as f64 * nnz_per_token) as usize;
        if fits(spec, shape, layout, mid, nnz, p) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Graphormer-slim's and GT's Table IV shapes.
    const SLIM: ModelShape = ModelShape { layers: 4, hidden: 64, heads: 8 };
    const GT: ModelShape = ModelShape { layers: 4, hidden: 128, heads: 8 };

    #[test]
    fn param_count_grows_with_width_and_depth() {
        let large = ModelShape { layers: 12, hidden: 768, heads: 32 };
        assert!(large.param_count() > GT.param_count() && GT.param_count() > SLIM.param_count());
    }

    #[test]
    fn gp_raw_score_matrix_matches_paper_quote() {
        // "GP-RAW requires over 200GB memory to store the attention score of
        // only one attention head" at S = 256K: 256K² × 4 B = 256 GiB ✓.
        let s = 256usize << 10;
        let one_head = (s as u64) * (s as u64) * 4;
        assert!(one_head > 200 * (1u64 << 30));
    }

    #[test]
    fn gp_raw_ooms_on_long_sequences_torchgt_fits() {
        let spec = GpuSpec::rtx3090();
        let shape = SLIM;
        let s = 256 << 10;
        let nnz = s * 25;
        assert!(!fits(&spec, &shape, LayoutKind::Dense, s, nnz, 8), "GP-RAW must OOM");
        assert!(
            fits(&spec, &shape, LayoutKind::ClusterSparse, s, nnz, 8),
            "TorchGT must fit"
        );
    }

    #[test]
    fn max_seq_len_scales_with_gpus_for_torchgt_not_raw() {
        // Figure 9(a): TorchGT's max S grows ~linearly with GPU count; GP-RAW
        // stays nearly flat (the unsharded S² matrix dominates).
        let spec = GpuSpec::a100();
        let shape = SLIM;
        let raw1 = max_seq_len(&spec, &shape, LayoutKind::Dense, 25.0, 1);
        let raw8 = max_seq_len(&spec, &shape, LayoutKind::Dense, 25.0, 8);
        let tgt1 = max_seq_len(&spec, &shape, LayoutKind::ClusterSparse, 25.0, 1);
        let tgt8 = max_seq_len(&spec, &shape, LayoutKind::ClusterSparse, 25.0, 8);
        assert!(
            (raw8 as f64) < 1.3 * raw1 as f64,
            "GP-RAW should stay flat: {raw1} → {raw8}"
        );
        assert!(
            tgt8 as f64 > 2.5 * tgt1 as f64,
            "TorchGT should scale: {tgt1} → {tgt8}"
        );
        // Order-of-magnitude match with the paper: raw tens of K, TorchGT
        // hundreds of K on one GPU.
        assert!((8_000..100_000).contains(&raw1), "raw1 = {raw1}");
        assert!(tgt1 > 100_000, "tgt1 = {tgt1}");
        assert!(tgt8 > 1_000_000, "tgt8 = {tgt8}");
    }

    #[test]
    fn memory_is_monotone_in_s() {
        let shape = GT;
        let a = memory_per_gpu(&shape, LayoutKind::Flash, 1 << 16, 0, 4);
        let b = memory_per_gpu(&shape, LayoutKind::Flash, 1 << 18, 0, 4);
        assert!(b > a);
    }
}
