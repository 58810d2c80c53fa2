//! Cluster-sparse sub-block attention kernel.
//!
//! Consumes the [`BlockCsr`] mask produced by the Elastic Computation
//! Reformation and computes masked softmax attention by walking each query
//! row's tiles in block order — the contiguous-access pattern the paper's
//! block-sparse formats exist to enable (§I, third insight). Each row is one
//! [`Backend::sparse_row_fwd`] call — the same row kernel, for all heads at
//! once, that `torchgt_model::attention::sparse` runs over CSR neighbours.
//!
//! Because a block row's tiles are sorted by block column and bits scan
//! row-major inside a tile, the columns of any query row come out in
//! ascending order — CSR neighbour order. Under any one backend the two
//! entry points therefore produce **bit-identical** output for the same
//! mask, which is what the cross-kernel parity suite asserts.

use crate::block_csr::BlockCsr;
use torchgt_tensor::backend::{self, Backend, SparseAttn};
use torchgt_tensor::{Tensor, Workspace};

/// Masked multi-head softmax attention over a block-sparse pattern.
///
/// `q`, `k`, `v` are `[s, d]` with `d = heads × d_head`; `blocks` is the
/// sub-block mask over the same `s` nodes. Returns the `[s, d]` attention
/// output. Rows with no active entries stay zero.
pub fn sub_block_attention(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize, blocks: &BlockCsr) -> Tensor {
    sub_block_attention_ws(q, k, v, heads, blocks, &mut Workspace::new())
}

/// [`sub_block_attention`] drawing scratch and the output from `ws`; the
/// caller gives the returned tensor back to the arena once consumed.
pub fn sub_block_attention_ws(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    blocks: &BlockCsr,
    ws: &mut Workspace,
) -> Tensor {
    sub_block_attention_with(backend::active(), q, k, v, heads, blocks, ws)
}

/// [`sub_block_attention_ws`] on an explicit backend — the hook the
/// backend-differential parity harness uses to compare implementations
/// in-process without touching global dispatch.
pub fn sub_block_attention_with(
    be: Backend,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    blocks: &BlockCsr,
    ws: &mut Workspace,
) -> Tensor {
    let (s, d) = q.shape();
    assert_eq!(k.shape(), (s, d));
    assert_eq!(v.shape(), (s, d));
    assert_eq!(d % heads, 0, "hidden dim must split across heads");
    assert!(
        blocks.block_rows * blocks.db >= s,
        "block mask covers {} rows but sequence has {s}",
        blocks.block_rows * blocks.db
    );
    let attn = SparseAttn::new(heads, d / heads, k.data(), v.data());
    let mut out = ws.take(s, d);
    // Per-head probability scratch and the column list, each sized for the
    // widest possible row and rewritten by every row before it is read.
    let mut scratch = ws.take_buf(heads * s);
    let mut cols = ws.take_idx(s);
    if s > 0 && d > 0 {
        let mut probs: Vec<&mut [f32]> = scratch.chunks_mut(s).collect();
        for (i, o_row) in out.data_mut().chunks_mut(d).enumerate() {
            cols.clear();
            blocks.row_cols_into(i / blocks.db, i % blocks.db, &mut cols);
            be.sparse_row_fwd(&attn, q.row(i), &cols, None, &mut probs, 0, o_row);
        }
    }
    ws.give_idx(cols);
    ws.give_buf(scratch);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchgt_graph::generators::{complete_graph, cycle_graph, path_graph};
    use torchgt_tensor::init;

    fn qkv(s: usize, d: usize) -> (Tensor, Tensor, Tensor) {
        (
            init::normal(s, d, 0.0, 1.0, 41),
            init::normal(s, d, 0.0, 1.0, 42),
            init::normal(s, d, 0.0, 1.0, 43),
        )
    }

    #[test]
    fn rows_are_convex_combinations_of_v() {
        let s = 12;
        let (q, k, v) = qkv(s, 8);
        let b = BlockCsr::from_mask(&complete_graph(s).with_self_loops(), 4);
        let out = sub_block_attention(&q, &k, &v, 2, &b);
        let vmax = v.data().iter().fold(0.0f32, |a, &x| a.max(x.abs()));
        assert!(out.data().iter().all(|&o| o.abs() <= vmax + 1e-4));
    }

    #[test]
    fn isolated_rows_stay_zero() {
        // path_graph without self loops: every node attends to neighbours
        // only; with a single node and no loops the row has no entries.
        let s = 9;
        let (q, k, v) = qkv(s, 4);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for i in 0..(s as u32 - 1) {
            if i != 4 {
                edges.push((i, i + 1));
                edges.push((i + 1, i));
            }
        }
        // Node 4 keeps no incident arc in rows 4's adjacency? Build explicitly:
        let g = torchgt_graph::CsrGraph::from_edges(s, &edges);
        let b = BlockCsr::from_mask(&g, 4);
        let out = sub_block_attention(&q, &k, &v, 2, &b);
        if g.neighbors(4).is_empty() {
            assert!(out.row(4).iter().all(|&x| x == 0.0));
        }
        // Rows with entries are nonzero in general.
        assert!(out.row(0).iter().any(|&x| x != 0.0));
    }

    #[test]
    fn ws_path_is_bitwise_identical_and_allocation_free_when_warm() {
        let s = 14;
        let (q, k, v) = qkv(s, 8);
        let b = BlockCsr::from_mask(&cycle_graph(s).with_self_loops(), 4);
        let cold = sub_block_attention(&q, &k, &v, 2, &b);
        let mut ws = Workspace::new();
        // Pre-dirty the arena so zero-init bugs surface.
        let mut dirty = ws.take(s, 8);
        dirty.data_mut().fill(f32::NAN);
        ws.give(dirty);
        let mut dirty = ws.take_buf(s);
        dirty.fill(f32::NAN);
        ws.give_buf(dirty);
        let warm1 = sub_block_attention_ws(&q, &k, &v, 2, &b, &mut ws);
        assert_eq!(cold.data(), warm1.data());
        ws.give(warm1);
        let stats_before = ws.stats();
        let warm2 = sub_block_attention_ws(&q, &k, &v, 2, &b, &mut ws);
        let stats_after = ws.stats();
        assert_eq!(cold.data(), warm2.data());
        assert_eq!(
            stats_after.alloc_bytes, stats_before.alloc_bytes,
            "warm sub-block attention allocated from the arena"
        );
    }

    #[test]
    fn every_supported_backend_agrees_with_scalar_within_tolerance() {
        let s = 17; // not a multiple of db
        let (q, k, v) = qkv(s, 8);
        let b = BlockCsr::from_mask(&path_graph(s).with_self_loops(), 4);
        let mut ws = Workspace::new();
        let reference = sub_block_attention_with(Backend::Scalar, &q, &k, &v, 2, &b, &mut ws);
        for be in backend::supported() {
            let got = sub_block_attention_with(be, &q, &k, &v, 2, &b, &mut ws);
            for (idx, (&r, &g)) in reference.data().iter().zip(got.data()).enumerate() {
                let tol = 1e-5f32.max(r.abs() * 1e-5);
                assert!(
                    (r - g).abs() <= tol,
                    "{}: idx {idx}: scalar {r} vs {g}",
                    be.name()
                );
            }
            ws.give(got);
        }
    }
}
