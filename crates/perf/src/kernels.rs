//! Analytic kernel time models.
//!
//! Converts attention/FFN workloads into simulated GPU time using the
//! roofline style `max(compute, memory)` with efficiency factors per kernel
//! family. Constants are calibrated against the paper's published
//! measurements (Figure 2 breakdowns, Table II backward times, Figure 12
//! attention-kernel sweeps) — see the tests at the bottom of this file for
//! the reproduced relationships.

use crate::gpu::GpuSpec;
use torchgt_sparse::AccessProfile;

/// GEMM efficiency (fraction of peak FLOPs a large dense matmul achieves).
const EFF_GEMM: f64 = 0.60;
/// Plain (unfused) dense attention efficiency — IO-bound Softmax/Dropout
/// between the two matmuls drags it far below GEMM speed.
const EFF_DENSE_ATTN: f64 = 0.25;
/// FlashAttention efficiency — kernel fusion removes the IO-bound steps.
const EFF_FLASH: f64 = 0.70;
/// Coalescing penalty: a gather run of length `r` reaches roughly
/// `r / (r + GATHER_PENALTY)` of peak bandwidth.
const GATHER_PENALTY: f64 = 7.0;
/// Backward pass of scatter/gather kernels pays atomics on top: the paper's
/// Table II shows topology-pattern backward up to 33× slower than dense.
const ATOMIC_BACKWARD_FACTOR: f64 = 2.0;

/// Time for a dense `m×k · k×n` GEMM.
pub(crate) fn gemm_time(spec: &GpuSpec, m: usize, n: usize, k: usize) -> f64 {
    let flops = 2.0 * m as f64 * n as f64 * k as f64;
    let bytes = 4.0 * (m * k + k * n + m * n) as f64;
    spec.compute_time(flops, EFF_GEMM).max(spec.stream_time(bytes))
}

/// Forward time of standard (materialised-scores) dense attention over a
/// sequence of `s` tokens with total hidden `d` split over `heads`.
pub fn dense_attention_fwd(spec: &GpuSpec, s: usize, d: usize) -> f64 {
    let s = s as f64;
    let d = d as f64;
    // QKᵀ and AV: 2 × (2 s² d) FLOPs regardless of head split.
    let flops = 4.0 * s * s * d;
    // Materialised score matrix round-trips memory ~3× (write scores,
    // softmax read+write, AV read).
    let bytes = 3.0 * 4.0 * s * s;
    spec.compute_time(flops, EFF_DENSE_ATTN).max(spec.stream_time(bytes))
}

/// Forward time of FlashAttention (fused, no `s²` traffic). FlashAttention
/// only supports FP16/BF16, so it runs on the tensor cores — this is why
/// the paper's A100 gaps (Table VI) are narrower than the 3090 ones.
pub fn flash_attention_fwd(spec: &GpuSpec, s: usize, d: usize) -> f64 {
    let s_f = s as f64;
    let d_f = d as f64;
    let flops = 4.0 * s_f * s_f * d_f;
    let bytes = 8.0 * 4.0 * s_f * d_f; // Q,K,V read + O write, tiled
    // Tensor-core utilisation improves with the hidden dimension (larger
    // MMA tiles) — the reason the paper's Fig. 12(b) finds flash "more
    // tolerant of larger model sizes" than of longer sequences.
    let eff = EFF_FLASH * (0.55 + 0.45 * (d_f / 256.0).min(1.0));
    spec.tensor_compute_time(flops, eff).max(spec.stream_time(bytes))
}

/// Forward time of sparse attention over an arbitrary access profile
/// (topology-induced or cluster-sparse — the profile's run statistics carry
/// the difference).
pub fn sparse_attention_fwd(spec: &GpuSpec, profile: &AccessProfile, d: usize) -> f64 {
    if profile.nnz == 0 {
        return 0.0;
    }
    let nnz = profile.nnz as f64;
    let d = d as f64;
    let flops = 4.0 * nnz * d;
    // Every attended pair gathers one K row and one V row; coalescing
    // efficiency follows the mean run length.
    let run = profile.avg_run_len.max(1.0);
    let coalesce = run / (run + GATHER_PENALTY);
    let bytes = nnz * d * 4.0 * 2.0 / coalesce;
    spec.compute_time(flops, EFF_GEMM).max(spec.stream_time(bytes))
}

/// Backward time of sparse attention (gather becomes scatter-add ⇒ atomic
/// penalty).
pub fn sparse_attention_bwd(spec: &GpuSpec, profile: &AccessProfile, d: usize) -> f64 {
    2.0 * ATOMIC_BACKWARD_FACTOR * sparse_attention_fwd(spec, profile, d)
}

/// Cache-residency bonus of the cluster-sparse layout: the Auto Tuner sizes
/// clusters so a cluster's K/V working set stays L2-resident and sub-blocks
/// stay L1-resident (the measured ~88% L1 hit rate at `d_b = 16` in the
/// Figure 6 simulation), which multiplies the effective gather bandwidth.
const CLUSTER_CACHE_BONUS: f64 = 4.0;

/// Forward time of cluster-sparse attention (after Elastic Computation
/// Reformation): sparse-pattern FLOPs with cache-boosted gathers.
pub fn cluster_sparse_attention_fwd(spec: &GpuSpec, profile: &AccessProfile, d: usize) -> f64 {
    if profile.nnz == 0 {
        return 0.0;
    }
    let nnz = profile.nnz as f64;
    let d = d as f64;
    let flops = 4.0 * nnz * d;
    let run = profile.avg_run_len.max(1.0);
    let coalesce = (run / (run + GATHER_PENALTY) * CLUSTER_CACHE_BONUS).min(1.0);
    let bytes = nnz * d * 4.0 * 2.0 / coalesce;
    spec.compute_time(flops, EFF_GEMM).max(spec.stream_time(bytes))
}

/// Backward of cluster-sparse attention: sub-block scatter-adds coalesce, so
/// only the plain 2× backward factor applies (no atomic penalty).
pub fn cluster_sparse_attention_bwd(spec: &GpuSpec, profile: &AccessProfile, d: usize) -> f64 {
    2.0 * cluster_sparse_attention_fwd(spec, profile, d)
}

/// Backward time of dense attention (≈2× forward FLOPs, same regime).
pub fn dense_attention_bwd(spec: &GpuSpec, s: usize, d: usize) -> f64 {
    2.0 * dense_attention_fwd(spec, s, d)
}

/// Backward time of FlashAttention (recomputation ⇒ ≈2.5× forward).
pub fn flash_attention_bwd(spec: &GpuSpec, s: usize, d: usize) -> f64 {
    2.5 * flash_attention_fwd(spec, s, d)
}

/// Forward time of a transformer FFN block (`d → 4d → d`).
pub fn ffn_fwd(spec: &GpuSpec, s: usize, d: usize) -> f64 {
    gemm_time(spec, s, 4 * d, d) + gemm_time(spec, s, d, 4 * d)
}

/// Forward time of the QKV + output projections (4 `d×d` GEMMs).
pub fn projections_fwd(spec: &GpuSpec, s: usize, d: usize) -> f64 {
    4.0 * gemm_time(spec, s, d, d)
}

/// Memory-bound elementwise/LayerNorm time over `s×d` activations,
/// `passes` round-trips.
pub fn elementwise(spec: &GpuSpec, s: usize, d: usize, passes: f64) -> f64 {
    spec.stream_time(passes * 4.0 * (s * d) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchgt_sparse::dense_profile;

    fn sparse_profile(nnz: usize, run: f64) -> AccessProfile {
        AccessProfile {
            nnz,
            runs: (nnz as f64 / run) as usize,
            avg_run_len: run,
            isolated: 0,
            active_rows: 1,
        }
    }

    #[test]
    fn flash_beats_unfused_dense() {
        let g = GpuSpec::rtx3090();
        for s in [4096usize, 65_536, 262_144] {
            assert!(flash_attention_fwd(&g, s, 64) < dense_attention_fwd(&g, s, 64));
        }
    }

    #[test]
    fn attention_grows_quadratically_with_s() {
        // Figure 12(a): FlashAttention time grows ~4× per sequence doubling.
        let g = GpuSpec::rtx3090();
        let t1 = flash_attention_fwd(&g, 128 << 10, 64);
        let t2 = flash_attention_fwd(&g, 256 << 10, 64);
        assert!((t2 / t1 - 4.0).abs() < 0.5, "ratio {}", t2 / t1);
    }

    #[test]
    fn sparse_beats_flash_on_sparse_graphs() {
        // ogbn-arxiv-like: S = 64K, E ≈ 30 S nnz ⇒ sparse wins even with
        // poor coalescing (the paper's Fig. 12a shows a modest gap at small
        // S that widens with the sequence).
        let g = GpuSpec::rtx3090();
        let s = 64 << 10;
        let profile = sparse_profile(30 * s, 1.5);
        assert!(sparse_attention_fwd(&g, &profile, 64) < flash_attention_fwd(&g, s, 64));
        assert!(
            cluster_sparse_attention_fwd(&g, &profile, 64)
                < flash_attention_fwd(&g, s, 64) / 4.0
        );
    }

    #[test]
    fn figure12_gap_widens_to_two_orders_at_512k() {
        // Fig. 12(a): at S = 512K TorchGT's attention kernel is up to ~100×
        // faster than FlashAttention; the cluster-sparse kernel must land in
        // that regime.
        let g = GpuSpec::rtx3090();
        let s = 512usize << 10;
        let cluster = sparse_profile(30 * s, 4.0);
        let ratio =
            flash_attention_fwd(&g, s, 64) / cluster_sparse_attention_fwd(&g, &cluster, 64);
        assert!(ratio > 40.0 && ratio < 500.0, "ratio {ratio}");
    }

    #[test]
    fn cluster_cache_bonus_never_exceeds_peak() {
        // Fully contiguous runs already coalesce; the cache bonus must not
        // price above-peak bandwidth.
        let g = GpuSpec::a100();
        let contiguous = sparse_profile(1_000_000, 512.0);
        let plain = sparse_attention_fwd(&g, &contiguous, 64);
        let boosted = cluster_sparse_attention_fwd(&g, &contiguous, 64);
        assert!(boosted >= plain * 0.9, "bonus must clamp at peak bandwidth");
    }

    #[test]
    fn irregular_backward_pays_table2_style_penalty() {
        // Table II: topology backward ≫ dense backward *per nonzero* — the
        // irregular pattern wastes bandwidth. Compare equal-nnz workloads.
        let g = GpuSpec::rtx3090();
        let nnz = 1_000_000;
        let irregular = sparse_profile(nnz, 1.0);
        let contiguous = sparse_profile(nnz, 64.0);
        let t_irr = sparse_attention_bwd(&g, &irregular, 64);
        let t_reg = sparse_attention_bwd(&g, &contiguous, 64);
        assert!(t_irr > 5.0 * t_reg, "irregular {t_irr} vs contiguous {t_reg}");
    }

    #[test]
    fn cluster_sparse_speedup_comes_from_run_length() {
        // The reformation's only effect on the model is a longer avg run —
        // that alone must produce the 2–3× kernel speedup the paper reports.
        let g = GpuSpec::rtx3090();
        let before = sparse_profile(2_000_000, 1.2);
        let after = sparse_profile(2_200_000, 12.0); // slightly more nnz, compact
        let t_before = sparse_attention_fwd(&g, &before, 64);
        let t_after = sparse_attention_fwd(&g, &after, 64);
        assert!(
            t_before / t_after > 2.0,
            "speedup {}",
            t_before / t_after
        );
    }

    #[test]
    fn a100_is_faster_than_3090_on_memory_bound_sparse() {
        let p = sparse_profile(5_000_000, 2.0);
        let t39 = sparse_attention_fwd(&GpuSpec::rtx3090(), &p, 64);
        let ta = sparse_attention_fwd(&GpuSpec::a100(), &p, 64);
        assert!(ta < t39);
    }

    #[test]
    fn dense_profile_plugs_in() {
        let g = GpuSpec::a100();
        let p = dense_profile(4096);
        let t = sparse_attention_fwd(&g, &p, 64);
        assert!(t > 0.0);
    }

    #[test]
    fn gemm_time_positive_and_monotone() {
        let g = GpuSpec::rtx3090();
        assert!(gemm_time(&g, 1024, 64, 64) < gemm_time(&g, 8192, 64, 64));
        assert!(ffn_fwd(&g, 1024, 64) > projections_fwd(&g, 1024, 64) / 4.0);
        assert!(elementwise(&g, 1024, 64, 2.0) > 0.0);
    }
}
