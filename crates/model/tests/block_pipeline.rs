//! The tiled transformer block against an unfused replica.
//!
//! `TransformerBlock` runs as row-tile pipelines; the replica below is the
//! same block written the obvious way — one whole-tensor public op after
//! another, a fresh tensor per step, gradients computed apart and then
//! stored. Output, input gradient and **every** parameter gradient must be
//! equal to the bit, at row counts on both sides of every tile boundary.

use torchgt_compat::proptest::prelude::*;
use torchgt_compat::rng::Rng;
use torchgt_graph::CsrGraph;
use torchgt_model::attention::{self, AttnOutput};
use torchgt_model::{AttentionMode, TransformerBlock};
use torchgt_tensor::backend;
use torchgt_tensor::layers::ROW_TILE;
use torchgt_tensor::rng::{derive_seed, rng};
use torchgt_tensor::{init, ops, Tensor, Workspace};

/// Row counts that straddle the tile boundaries, plus the degenerate one.
const EDGE_ROWS: [usize; 5] = [1, ROW_TILE - 1, ROW_TILE, ROW_TILE + 1, 2 * ROW_TILE + 7];

#[derive(Clone, Copy, Debug)]
enum Kernel {
    Sparse,
    Flash,
    Dense,
}

/// A ring plus a stride-7 chord and self-loops: a few edges per token,
/// every row non-empty.
fn ring_mask(s: usize) -> CsrGraph {
    let n = s as u32;
    let edges: Vec<(u32, u32)> = (0..n).flat_map(|i| [(i, (i + 1) % n), (i, (i * 7 + 3) % n)]).collect();
    CsrGraph::from_edges(s, &edges).with_self_loops()
}

fn mode_for<'a>(kernel: Kernel, mask: &'a CsrGraph) -> AttentionMode<'a> {
    match kernel {
        Kernel::Sparse => AttentionMode::Sparse { mask, bias: None },
        Kernel::Flash => AttentionMode::Flash,
        Kernel::Dense => AttentionMode::Dense { bias: None },
    }
}

/// The parent commit's dropout, verbatim: draw the whole mask from
/// `SmallRng(seed, call)` in row-major order, then multiply.
fn dropout_ref(x: &Tensor, p: f32, seed: u64, call: u64) -> (Tensor, Tensor) {
    let mut r = rng(derive_seed(seed, call));
    let keep = 1.0 - p;
    let inv_keep = 1.0 / keep;
    let mask: Vec<f32> = (0..x.len()).map(|_| if r.gen::<f32>() < keep { inv_keep } else { 0.0 }).collect();
    let mask = Tensor::from_vec(x.rows(), x.cols(), mask);
    (ops::mul(x, &mask), mask)
}

fn linear(x: &Tensor, w: &Tensor, b: &Tensor) -> Tensor {
    let mut out = ops::matmul(x, w);
    ops::add_row_broadcast_inplace(&mut out, b);
    out
}

/// `(dx, dW, db)` of `y = x·W + b`.
fn linear_backward(x: &Tensor, w: &Tensor, dy: &Tensor) -> (Tensor, Tensor, Tensor) {
    (ops::matmul_bt(dy, w), ops::matmul_at(x, dy), ops::col_sum(dy))
}

fn layer_norm(x: &Tensor, gamma: &Tensor, beta: &Tensor) -> (Tensor, Tensor, Vec<f32>) {
    let mut out = Tensor::zeros(x.rows(), x.cols());
    let mut xhat = Tensor::zeros(x.rows(), x.cols());
    let mut inv_std = Vec::new();
    ops::layer_norm_stats_into_with(backend::active(), x, gamma, beta, 1e-5, &mut out, &mut xhat, &mut inv_std);
    (out, xhat, inv_std)
}

/// `(dx, dγ, dβ)`.
fn layer_norm_backward(xhat: &Tensor, inv_std: &[f32], gamma: &Tensor, dy: &Tensor) -> (Tensor, Tensor, Tensor) {
    let mut dx = Tensor::zeros(dy.rows(), dy.cols());
    let mut dgamma = Tensor::zeros(1, dy.cols());
    let mut dbeta = Tensor::zeros(1, dy.cols());
    ops::layer_norm_backward_into(xhat, inv_std, gamma, dy, &mut dx, &mut dgamma, &mut dbeta);
    (dx, dgamma, dbeta)
}

struct Replica {
    z: Tensor,
    dx: Tensor,
    /// In `TransformerBlock::params_mut` order.
    grads: Vec<Tensor>,
}

/// The block, unfused. `params` is `TransformerBlock::params_mut` order;
/// `drop` is `Some((p, block_seed, call))` when dropout is live.
#[allow(clippy::too_many_arguments)]
fn replica(
    params: &[Tensor],
    x: &Tensor,
    dz: &Tensor,
    heads: usize,
    kernel: Kernel,
    mask: &CsrGraph,
    drop: Option<(f32, u64, u64)>,
) -> Replica {
    let [g1, b1, wq, bq, wk, bk, wv, bv, wo, bo, g2, b2, w1, c1, w2, c2] = params else {
        panic!("a block has 16 parameters");
    };
    let dropout = |t: Tensor, stream: u64| match drop {
        Some((p, seed, call)) => {
            let (out, mask) = dropout_ref(&t, p, derive_seed(seed, stream), call);
            (out, Some(mask))
        }
        None => (t, None),
    };
    let undrop = |dy: &Tensor, mask: &Option<Tensor>| match mask {
        Some(m) => ops::mul(dy, m),
        None => dy.clone(),
    };

    // Forward.
    let (a, xhat1, inv1) = layer_norm(x, g1, b1);
    let (q, k, v) = (linear(&a, wq, bq), linear(&a, wk, bk), linear(&a, wv, bv));
    let AttnOutput { out: o, cache } = match kernel {
        Kernel::Sparse => attention::sparse(&q, &k, &v, heads, mask, None),
        Kernel::Flash => attention::flash(&q, &k, &v, heads),
        Kernel::Dense => attention::dense(&q, &k, &v, heads, None),
    };
    let (t, mask1) = dropout(linear(&o, wo, bo), 41);
    let y = ops::add(x, &t);
    let (f, xhat2, inv2) = layer_norm(&y, g2, b2);
    let h = linear(&f, w1, c1);
    let mut g = Tensor::zeros(h.rows(), h.cols());
    ops::gelu_into(&h, &mut g);
    let (u, mask2) = dropout(linear(&g, w2, c2), 43);
    let z = ops::add(&y, &u);

    // Backward.
    let du = undrop(dz, &mask2);
    let (dg, dw2, dc2) = linear_backward(&g, w2, &du);
    let mut dh = Tensor::zeros(h.rows(), h.cols());
    ops::gelu_backward_into(&h, &dg, &mut dh);
    let (df, dw1, dc1) = linear_backward(&f, w1, &dh);
    let (mut dy, dg2, db2) = layer_norm_backward(&xhat2, &inv2, g2, &df);
    ops::add_inplace(&mut dy, dz);
    let da = undrop(&dy, &mask1);
    let (dout, dwo, dbo) = linear_backward(&o, wo, &da);
    let grads = match kernel {
        Kernel::Sparse => attention::sparse_backward(&q, &k, &v, heads, mask, &cache, &dout, false),
        Kernel::Flash => attention::flash_backward(&q, &k, &v, heads, &cache, &o, &dout),
        Kernel::Dense => attention::dense_backward(&q, &k, &v, heads, &cache, &dout, false),
    };
    let (mut da_in, dwq, dbq) = linear_backward(&a, wq, &grads.dq);
    let (dak, dwk, dbk) = linear_backward(&a, wk, &grads.dk);
    ops::add_inplace(&mut da_in, &dak);
    let (dav, dwv, dbv) = linear_backward(&a, wv, &grads.dv);
    ops::add_inplace(&mut da_in, &dav);
    let (mut dx, dg1, db1) = layer_norm_backward(&xhat1, &inv1, g1, &da_in);
    ops::add_inplace(&mut dx, &dy);

    let grads = vec![dg1, db1, dwq, dbq, dwk, dbk, dwv, dbv, dwo, dbo, dg2, db2, dw1, dc1, dw2, dc2];
    Replica { z, dx, grads }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[derive(Clone, Copy, Debug)]
struct Case {
    d: usize,
    heads: usize,
    ffn_mult: usize,
    p: f32,
    training: bool,
    kernel: Kernel,
    seed: u64,
}

/// One block against the replica at one row count. The block's forward runs
/// twice first when dropout is live, so the compared pass is mask call 3 and
/// the stream position matters.
fn check(case: Case, rows: usize) -> Result<(), TestCaseError> {
    let Case { d, heads, ffn_mult, p, training, kernel, seed } = case;
    let mut block = TransformerBlock::new(d, heads, ffn_mult, p, seed);
    // Non-trivial norm gains and biases everywhere (they initialise to 1 / 0).
    for (i, param) in block.params_mut().into_iter().enumerate() {
        if param.value.rows() == 1 {
            let mean = if i == 0 || i == 10 { 1.0 } else { 0.0 };
            param.value = init::normal(1, param.value.cols(), mean, 0.2, seed ^ (i as u64 + 1));
        }
    }
    block.set_training(training);
    let params: Vec<Tensor> = block.params_mut().into_iter().map(|p| p.value.clone()).collect();
    let x = init::normal(rows, d, 0.0, 1.0, seed.wrapping_add(100));
    let dz = init::normal(rows, d, 0.0, 1.0, seed.wrapping_add(200));
    let mask = ring_mask(rows);
    let mode = mode_for(kernel, &mask);
    let live = training && p > 0.0;

    let mut ws = Workspace::new();
    for _ in 0..2 {
        let warm = block.forward_ws(&x, &mode, &mut ws);
        ws.give(warm);
    }
    let calls = if live { 2 } else { 0 };
    prop_assert_eq!(block.rng_state(), [calls, calls]);
    let z = block.forward_ws(&x, &mode, &mut ws);
    let want = replica(&params, &x, &dz, heads, kernel, &mask, live.then_some((p, seed, calls + 1)));
    prop_assert_eq!(bits(&z), bits(&want.z), "output, rows {}", rows);
    if !training {
        return Ok(());
    }
    let (dx, _) = block.backward_ws(&dz, &mode, false, &mut ws);
    prop_assert_eq!(bits(&dx), bits(&want.dx), "dx, rows {}", rows);
    for (i, (got, want)) in block.params_mut().into_iter().zip(&want.grads).enumerate() {
        prop_assert_eq!(bits(&got.grad), bits(want), "gradient of parameter {}, rows {}", i, rows);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tiled block ≡ unfused replica over generated shapes, dropout
    /// settings, modes and kernels, at every tile-boundary row count and one
    /// generated one.
    #[test]
    fn tiled_block_equals_unfused_replica(
        d_at in 0usize..3,
        heads_at in 0usize..3,
        ffn_mult in 1usize..3,
        dropout in 0usize..2,
        training in 0usize..4,
        kernel_at in 0usize..3,
        rows in 1usize..301,
        seed in 0u64..1_000_000,
    ) {
        let case = Case {
            d: [8, 16, 64][d_at],
            heads: [1, 2, 4][heads_at],
            ffn_mult: 2 * ffn_mult,
            p: [0.0, 0.1][dropout],
            training: training > 0,
            kernel: [Kernel::Sparse, Kernel::Flash, Kernel::Dense][kernel_at],
            seed,
        };
        for rows in EDGE_ROWS.into_iter().chain([rows]) {
            check(case, rows)?;
        }
    }
}

/// Dropout on, training on, every kernel, at the widest supported shape:
/// the one configuration the generated cases must not be able to miss.
#[test]
fn tiled_block_equals_unfused_replica_with_live_dropout() {
    for kernel in [Kernel::Sparse, Kernel::Flash, Kernel::Dense] {
        let case = Case { d: 64, heads: 4, ffn_mult: 4, p: 0.1, training: true, kernel, seed: 7 };
        for rows in EDGE_ROWS {
            check(case, rows).unwrap_or_else(|e| panic!("{kernel:?}: {e}"));
        }
    }
}

/// Two consecutive training forwards advance each dropout's draw counter by
/// one each; `p == 0` and eval forwards draw nothing.
#[test]
fn training_forwards_advance_the_mask_counters_like_separate_layers() {
    let x = init::normal(ROW_TILE + 3, 16, 0.0, 1.0, 1);
    let mut live = TransformerBlock::new(16, 2, 2, 0.1, 9);
    let y1 = live.forward(&x, &AttentionMode::Flash);
    assert_eq!(live.rng_state(), [1, 1]);
    let y2 = live.forward(&x, &AttentionMode::Flash);
    assert_eq!(live.rng_state(), [2, 2]);
    assert_ne!(y1.data(), y2.data(), "each pass draws a fresh mask");
    live.set_training(false);
    let _ = live.forward(&x, &AttentionMode::Flash);
    assert_eq!(live.rng_state(), [2, 2], "eval draws nothing");
    // Restoring the counters replays the same masks.
    live.set_training(true);
    live.set_rng_state([1, 1]);
    assert_eq!(live.forward(&x, &AttentionMode::Flash).data(), y2.data());

    let mut off = TransformerBlock::new(16, 2, 2, 0.0, 9);
    let _ = off.forward(&x, &AttentionMode::Flash);
    assert_eq!(off.rng_state(), [0, 0], "p = 0 draws nothing");
}

/// No layer owns a private activation buffer any more: once the arena has
/// seen a row count, a step at that row count allocates nothing, however
/// the row counts alternate.
#[test]
fn warm_ws_block_steps_do_not_allocate() {
    let rows = [200usize, 77, 131];
    let inputs: Vec<(Tensor, Tensor, CsrGraph)> = rows
        .iter()
        .map(|&s| (init::normal(s, 32, 0.0, 1.0, s as u64), init::normal(s, 32, 0.0, 1.0, 1 + s as u64), ring_mask(s)))
        .collect();
    for kernel in [Kernel::Sparse, Kernel::Flash] {
        let mut block = TransformerBlock::new(32, 4, 4, 0.1, 3);
        let mut ws = Workspace::new();
        let mut cycle = |ws: &mut Workspace| {
            for (x, dz, mask) in &inputs {
                let mode = mode_for(kernel, mask);
                let z = block.forward_ws(x, &mode, ws);
                let (dx, _) = block.backward_ws(dz, &mode, false, ws);
                ws.give(z);
                ws.give(dx);
            }
        };
        cycle(&mut ws);
        let warm = ws.stats();
        cycle(&mut ws);
        let after = ws.stats();
        assert_eq!(after.alloc_bytes, warm.alloc_bytes, "{kernel:?}: second cycle allocated");
        assert_eq!(after.high_water_bytes, warm.high_water_bytes, "{kernel:?}: peak checkout grew");
    }
}

/// Arena traffic of one block step at the benchmark's shape only goes down:
/// the unfused block checked out 52 buffers (sparse) / 49 (flash) per
/// forward + backward, not counting the layer-private caches it allocated
/// outside the arena. Six of today's are the `Wᵀ` copies the backward makes
/// once instead of letting the GEMM re-gather each weight per row tile.
#[test]
fn block_step_checkouts_stay_below_the_pinned_count() {
    let (s, d) = (1024, 64);
    let x = init::normal(s, d, 0.0, 1.0, 1);
    let dz = init::normal(s, d, 0.0, 1.0, 2);
    let mask = ring_mask(s);
    for (kernel, pinned) in [(Kernel::Sparse, 40), (Kernel::Flash, 37)] {
        let mut block = TransformerBlock::new(d, 4, 4, 0.1, 5);
        let mut ws = Workspace::new();
        let mode = mode_for(kernel, &mask);
        let before = ws.stats().checkouts;
        let z = block.forward_ws(&x, &mode, &mut ws);
        let (dx, _) = block.backward_ws(&dz, &mode, false, &mut ws);
        let step = ws.stats().checkouts - before;
        ws.give(z);
        ws.give(dx);
        assert!(step <= pinned, "{kernel:?}: {step} checkouts per step, pinned at {pinned}");
    }
}
