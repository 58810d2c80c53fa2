//! Attention kernels: dense, flash-style tiled, and topology-sparse — each
//! with a hand-written backward pass.
//!
//! All kernels take *already projected* `Q`, `K`, `V` of shape `[s, d]` with
//! `d = heads × d_head` (head `h` occupies the column block
//! `h·d_head .. (h+1)·d_head`) and return the attention output `[s, d]` plus
//! a cache for the backward pass.
//!
//! Every kernel is a `_ws` function: it reads heads through zero-copy
//! [`TensorView`] column blocks, checks every intermediate out of the
//! caller's [`Workspace`], and (in backward) consumes the cache by value so
//! its buffers return to the arena. The one allocating entry point is
//! [`sparse`], kept for the frozen benchmark.
//!
//! * [`dense_ws`] materialises per-head score matrices — GP-RAW's kernel, the
//!   one that OOMs at scale;
//! * [`flash_ws`] computes the identical function tile by tile — `Q_r·Kᵀ_c`,
//!   online softmax, `P·V_c`, each a register-blocked GEMM — never
//!   materialising `S×S` (FlashAttention's algorithm); it does **not**
//!   support an attention bias, matching the real library's limitation the
//!   paper points out;
//! * [`sparse_ws`] computes softmax over each query's mask neighbours only —
//!   the topology-induced pattern, with optional per-edge bias (Graphormer's
//!   spatial encoding restricted to the pattern). Forward and backward are
//!   loops over query rows, each row one call of the backend's sparse row
//!   kernel ([`Backend::sparse_row_fwd`] / [`Backend::sparse_row_bwd`]) that
//!   handles every head.

use torchgt_compat::par::prelude::*;
use torchgt_graph::CsrGraph;
use torchgt_tensor::backend::{self, Backend, Gemm, SparseAttn, Strided};
use torchgt_tensor::ops;
use torchgt_tensor::{MatRef, Tensor, TensorView, Workspace};

/// Output of an attention forward pass. From a `_ws` kernel, `out` and the
/// cache's buffers belong to the workspace; the matching backward returns
/// them.
pub struct AttnOutput {
    /// `[s, d]` attention result (pre output-projection).
    pub out: Tensor,
    /// Cache consumed by the matching backward function.
    pub cache: AttnCache,
}

/// Saved forward state, variant per kernel.
pub enum AttnCache {
    /// Dense: per-head probability matrices `[s, s]`.
    Dense {
        /// Post-softmax probabilities, one `[s, s]` tensor per head.
        probs: Vec<Tensor>,
    },
    /// Flash: the one statistic backward needs to recompute any
    /// probability tile, `p = exp(score − lse)`.
    Flash {
        /// Log-sum-exp of each query's scaled scores, `[s, heads]`
        /// row-major.
        lse: Vec<f32>,
    },
    /// Sparse: per-head, per-edge probabilities laid out like the mask CSR.
    Sparse {
        /// Per-head edge probabilities in mask CSR order.
        probs: Vec<Vec<f32>>,
    },
    /// Performer: per-head random-feature maps and normalisers.
    Performer {
        /// `φ(Q)` per head, `[s, m]`.
        phi_q: Vec<Tensor>,
        /// `φ(K)` per head, `[s, m]`.
        phi_k: Vec<Tensor>,
        /// Row normalisers `den = φ(Q)·(φ(K)ᵀ·1)` per head.
        denom: Vec<Vec<f32>>,
        /// Pre-normalised numerators `φ(Q)·(φ(K)ᵀ V)` per head, `[s, d_h]`.
        num: Vec<Tensor>,
    },
}

impl AttnCache {
    /// Return every buffer held by the cache to a workspace — used when a
    /// saved forward is discarded without running backward (eval passes).
    pub fn recycle(self, ws: &mut Workspace) {
        match self {
            AttnCache::Dense { probs } => {
                for t in probs {
                    ws.give(t);
                }
            }
            AttnCache::Flash { lse } => ws.give_buf(lse),
            AttnCache::Sparse { probs } => {
                for b in probs {
                    ws.give_buf(b);
                }
            }
            AttnCache::Performer { phi_q, phi_k, denom, num } => {
                for t in phi_q.into_iter().chain(phi_k).chain(num) {
                    ws.give(t);
                }
                for b in denom {
                    ws.give_buf(b);
                }
            }
        }
    }
}

/// Gradients returned by attention backward. From a `_ws` kernel these
/// tensors belong to the workspace; the caller gives them back after the
/// input projections consume them.
pub struct AttnGrads {
    /// Gradient wrt `Q`.
    pub dq: Tensor,
    /// Gradient wrt `K`.
    pub dk: Tensor,
    /// Gradient wrt `V`.
    pub dv: Tensor,
    /// Gradient wrt the bias (dense: `[s, s]` per head summed over heads is
    /// *not* what Graphormer needs, so we keep per-head; sparse: per-edge per
    /// head). `None` when the kernel ran without bias.
    pub dbias: Option<BiasGrad>,
}

/// Bias gradient layouts.
pub enum BiasGrad {
    /// Per-head dense `[s, s]` gradients.
    Dense(Vec<Tensor>),
    /// Per-head per-edge gradients (mask CSR layout).
    Sparse(Vec<Vec<f32>>),
}

impl BiasGrad {
    /// Return the gradient's buffers to a workspace once consumed.
    pub fn recycle(self, ws: &mut Workspace) {
        match self {
            BiasGrad::Dense(tensors) => {
                for t in tensors {
                    ws.give(t);
                }
            }
            BiasGrad::Sparse(bufs) => {
                for b in bufs {
                    ws.give_buf(b);
                }
            }
        }
    }
}

/// Zero-copy view of head `h`'s column block.
fn head_view(t: &Tensor, h: usize, d_head: usize) -> TensorView<'_> {
    t.view_cols(h * d_head, (h + 1) * d_head)
}

fn write_head(dst: &mut Tensor, src: &Tensor, h: usize, d_head: usize) {
    for r in 0..src.rows() {
        let drow = dst.row_mut(r);
        drow[h * d_head..(h + 1) * d_head].copy_from_slice(src.row(r));
    }
}

fn add_head(dst: &mut Tensor, src: &Tensor, h: usize, d_head: usize) {
    let be = backend::active();
    for r in 0..src.rows() {
        let drow = dst.row_mut(r);
        be.add_assign(&mut drow[h * d_head..(h + 1) * d_head], src.row(r));
    }
}

// ---------------------------------------------------------------------------
// Dense attention
// ---------------------------------------------------------------------------

/// Standard dense attention, every intermediate drawn from `ws`. `bias[h]`
/// (optional) is a per-head `[s, s]` additive bias on the pre-softmax scores
/// (Graphormer Eq. 3).
pub fn dense_ws(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    bias: Option<&[Tensor]>,
    ws: &mut Workspace,
) -> AttnOutput {
    let (s, d) = q.shape();
    assert_eq!(k.shape(), (s, d));
    assert_eq!(v.shape(), (s, d));
    assert_eq!(d % heads, 0);
    let d_head = d / heads;
    let scale = 1.0 / (d_head as f32).sqrt();
    // Every head block of `out` is written by `write_head`, `scores` and
    // `oh` by a non-accumulating matmul: none needs the zero fill.
    let mut out = ws.take_uninit(s, d);
    let mut probs = Vec::with_capacity(heads);
    for h in 0..heads {
        let qh = head_view(q, h, d_head);
        let kh = head_view(k, h, d_head);
        let vh = head_view(v, h, d_head);
        let mut scores = ws.take_uninit(s, s);
        ops::matmul_bt_into(&qh, &kh, &mut scores);
        ops::scale_inplace(&mut scores, scale);
        if let Some(b) = bias {
            ops::add_inplace(&mut scores, &b[h]);
        }
        ops::row_softmax_inplace(&mut scores);
        let mut oh = ws.take_uninit(s, d_head);
        ops::matmul_into(&scores, &vh, &mut oh);
        write_head(&mut out, &oh, h, d_head);
        ws.give(oh);
        probs.push(scores);
    }
    AttnOutput { out, cache: AttnCache::Dense { probs } }
}

/// Backward of [`dense_ws`]; consumes the cache, returning its buffers to
/// `ws`.
#[allow(clippy::too_many_arguments)]
pub fn dense_backward_ws(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    cache: AttnCache,
    dout: &Tensor,
    want_bias_grad: bool,
    ws: &mut Workspace,
) -> AttnGrads {
    let probs = match cache {
        AttnCache::Dense { probs } => probs,
        _ => panic!("dense_backward called with wrong cache"),
    };
    let (s, d) = q.shape();
    let d_head = d / heads;
    let scale = 1.0 / (d_head as f32).sqrt();
    let mut dq = ws.take(s, d);
    let mut dk = ws.take(s, d);
    let mut dv = ws.take(s, d);
    let mut dbias = if want_bias_grad { Some(Vec::with_capacity(heads)) } else { None };
    for (h, p) in probs.into_iter().enumerate() {
        let qh = head_view(q, h, d_head);
        let kh = head_view(k, h, d_head);
        let vh = head_view(v, h, d_head);
        let doh = head_view(dout, h, d_head);
        // Per-head temporaries, each fully written by its kernel.
        let mut dp = ws.take_uninit(s, s);
        ops::matmul_bt_into(&doh, &vh, &mut dp);
        let mut dvh = ws.take_uninit(s, d_head);
        ops::matmul_at_into(&p, &doh, &mut dvh);
        let mut ds = ws.take_uninit(s, s);
        ops::row_softmax_backward_into(&p, &dp, &mut ds);
        ws.give(dp);
        ws.give(p);
        if let Some(list) = dbias.as_mut() {
            let mut db = ws.take_uninit(s, s);
            ops::copy_into(&ds, &mut db);
            list.push(db);
        }
        ops::scale_inplace(&mut ds, scale);
        let mut dqh = ws.take_uninit(s, d_head);
        ops::matmul_into(&ds, &kh, &mut dqh);
        let mut dkh = ws.take_uninit(s, d_head);
        ops::matmul_at_into(&ds, &qh, &mut dkh);
        ws.give(ds);
        add_head(&mut dq, &dqh, h, d_head);
        add_head(&mut dk, &dkh, h, d_head);
        add_head(&mut dv, &dvh, h, d_head);
        ws.give(dqh);
        ws.give(dkh);
        ws.give(dvh);
    }
    AttnGrads { dq, dk, dv, dbias: dbias.map(BiasGrad::Dense) }
}

// ---------------------------------------------------------------------------
// Flash-style tiled attention
// ---------------------------------------------------------------------------

/// Query rows per flash tile.
const FLASH_BR: usize = 36;
/// Keys per flash tile. One `BR × BC` f32 score tile is 18 KiB of stack;
/// backward holds two.
const FLASH_BC: usize = 128;

/// `dst = scale · srcᵀ` (`dst` is `[src.cols, src.rows]`): the `B` operand
/// of the `Q·Kᵀ` and `dO·Vᵀ` tile GEMMs, packed once per call so the tiles
/// read contiguous rows.
fn transpose_scaled_into(src: &Tensor, scale: f32, dst: &mut Tensor) {
    let (rows, cols) = src.shape();
    debug_assert_eq!(dst.shape(), (cols, rows));
    let out = dst.data_mut();
    for r in 0..rows {
        for (c, &x) in src.row(r).iter().enumerate() {
            out[c * rows + r] = x * scale;
        }
    }
}

/// One flash tile product.
fn tile_gemm<'a>(
    (m, n, k): (usize, usize, usize),
    a: Strided<'a>,
    b: Strided<'a>,
    ldc: usize,
    accumulate: bool,
) -> Gemm<'a> {
    Gemm { m, n, k, a, b, ldc, accumulate }
}

/// FlashAttention-style forward: streaming softmax over key tiles, no `S×S`
/// materialisation and **no bias support** (the limitation the paper works
/// around); every intermediate is drawn from `ws`.
pub fn flash_ws(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize, ws: &mut Workspace) -> AttnOutput {
    flash_ws_with(backend::active(), q, k, v, heads, ws)
}

/// [`flash_ws`] on an explicit [`Backend`] (parity harness entry point).
///
/// Per head and per `BR × BC` tile: `S = Q_r·(scale·Kᵀ)_c`, then the online
/// softmax — new running max, `P = exp(S − max)`, one rescale of the
/// output rows and of the running denominator — then `O_r += P·V_c`. The
/// output rows are normalised once at the end and `max + ln(denominator)`
/// is saved per row.
pub fn flash_ws_with(
    be: Backend,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    ws: &mut Workspace,
) -> AttnOutput {
    let (s, d) = q.shape();
    assert_eq!(k.shape(), (s, d));
    assert_eq!(v.shape(), (s, d));
    assert_eq!(d % heads, 0);
    let d_head = d / heads;
    let scale = 1.0 / (d_head as f32).sqrt();
    // `out` is defined by each head's first key tile (a non-accumulating
    // product) and `kt` by the transpose.
    let mut out = ws.take_uninit(s, d);
    let mut lse = ws.take_buf(s * heads);
    if s == 0 || d == 0 {
        return AttnOutput { out, cache: AttnCache::Flash { lse } };
    }
    let mut kt = ws.take_uninit(d, s);
    transpose_scaled_into(k, scale, &mut kt);
    // One task per block of query rows: it owns those rows of `out` and
    // `lse` and walks every head and every key tile.
    out.data_mut()
        .par_chunks_mut(FLASH_BR * d)
        .zip(lse.par_chunks_mut(FLASH_BR * heads))
        .enumerate()
        .for_each(|(block, (o_rows, lse_rows))| {
            let r0 = block * FLASH_BR;
            let br = o_rows.len() / d;
            let mut tile = [0.0f32; FLASH_BR * FLASH_BC];
            for h in 0..heads {
                let col = h * d_head;
                let q_r = Strided::row_major(&q.data()[r0 * d + col..], d);
                let mut max = [f32::NEG_INFINITY; FLASH_BR];
                let mut den = [0.0f32; FLASH_BR];
                for c0 in (0..s).step_by(FLASH_BC) {
                    let bc = FLASH_BC.min(s - c0);
                    let kt_c = Strided::row_major(&kt.data()[col * s + c0..], s);
                    be.gemm(&tile_gemm((br, bc, d_head), q_r, kt_c, FLASH_BC, false), &mut tile);
                    for i in 0..br {
                        let scores = &mut tile[i * FLASH_BC..i * FLASH_BC + bc];
                        let new_max = max[i].max(be.max_ignore_nan(scores));
                        let sum = be.exp_minus_max_sum(scores, new_max);
                        // exp(−∞ − finite) = 0 on the first tile; a row that
                        // is still all −∞ keeps its zeros.
                        let rescale = if max[i] == new_max { 1.0 } else { (max[i] - new_max).exp() };
                        den[i] = den[i] * rescale + sum;
                        // The first tile starts the output rows: there is
                        // nothing to rescale (it would be `0 · rescale`).
                        if c0 > 0 {
                            be.scale_assign(&mut o_rows[i * d + col..i * d + col + d_head], rescale);
                        }
                        max[i] = new_max;
                    }
                    let p = Strided::row_major(&tile, FLASH_BC);
                    let v_c = Strided::row_major(&v.data()[c0 * d + col..], d);
                    be.gemm(&tile_gemm((br, d_head, bc), p, v_c, d, c0 > 0), &mut o_rows[col..]);
                }
                for i in 0..br {
                    let den = den[i].max(f32::MIN_POSITIVE);
                    be.div_assign(&mut o_rows[i * d + col..i * d + col + d_head], den);
                    lse_rows[i * heads + h] = max[i] + den.ln();
                }
            }
        });
    ws.give(kt);
    AttnOutput { out, cache: AttnCache::Flash { lse } }
}

/// Backward of [`flash_ws`]: recomputes probabilities per tile from the
/// saved softmax statistics (FlashAttention's recomputation trick); consumes
/// the cache, returning its buffers to `ws`.
#[allow(clippy::too_many_arguments)]
pub fn flash_backward_ws(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    cache: AttnCache,
    out: &Tensor,
    dout: &Tensor,
    ws: &mut Workspace,
) -> AttnGrads {
    flash_backward_ws_with(backend::active(), q, k, v, heads, cache, out, dout, ws)
}

/// [`flash_backward_ws`] on an explicit [`Backend`] (parity harness entry
/// point).
///
/// With `D_i = dO_i·O_i`, per head and per `BR × BC` tile, five GEMMs:
/// `P = exp(Q_r·(scale·Kᵀ)_c − lse)`, `dS = P ∘ (dO_r·Vᵀ_c − D)`,
/// `dQ_r += dS·K_c`, `dK_c += dSᵀ·Q_r`, `dV_c += Pᵀ·dO_r`; the `scale` of
/// `dQ` and `dK` is applied once at the end.
#[allow(clippy::too_many_arguments)]
pub fn flash_backward_ws_with(
    be: Backend,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    cache: AttnCache,
    out: &Tensor,
    dout: &Tensor,
    ws: &mut Workspace,
) -> AttnGrads {
    let lse = match cache {
        AttnCache::Flash { lse } => lse,
        _ => panic!("flash_backward called with wrong cache"),
    };
    let (s, d) = q.shape();
    let d_head = d / heads;
    let scale = 1.0 / (d_head as f32).sqrt();
    let mut dq = ws.take(s, d);
    let mut dk = ws.take(s, d);
    let mut dv = ws.take(s, d);
    let mut kt = ws.take_uninit(d, s);
    transpose_scaled_into(k, scale, &mut kt);
    let mut vt = ws.take_uninit(d, s);
    transpose_scaled_into(v, 1.0, &mut vt);
    let mut delta = ws.take_buf(s * heads);
    for i in 0..s {
        for (h, slot) in delta[i * heads..(i + 1) * heads].iter_mut().enumerate() {
            let head = h * d_head..(h + 1) * d_head;
            *slot = be.dot(&dout.row(i)[head.clone()], &out.row(i)[head]);
        }
    }
    let mut probs = [0.0f32; FLASH_BR * FLASH_BC];
    let mut dscores = [0.0f32; FLASH_BR * FLASH_BC];
    for h in 0..heads {
        let col = h * d_head;
        for r0 in (0..s).step_by(FLASH_BR) {
            let br = FLASH_BR.min(s - r0);
            let q_r = Strided::row_major(&q.data()[r0 * d + col..], d);
            let do_r = Strided::row_major(&dout.data()[r0 * d + col..], d);
            for c0 in (0..s).step_by(FLASH_BC) {
                let bc = FLASH_BC.min(s - c0);
                let kt_c = Strided::row_major(&kt.data()[col * s + c0..], s);
                let vt_c = Strided::row_major(&vt.data()[col * s + c0..], s);
                let k_c = Strided::row_major(&k.data()[c0 * d + col..], d);
                be.gemm(&tile_gemm((br, bc, d_head), q_r, kt_c, FLASH_BC, false), &mut probs);
                for i in 0..br {
                    let stat = (r0 + i) * heads + h;
                    be.exp_minus_max_sum(&mut probs[i * FLASH_BC..i * FLASH_BC + bc], lse[stat]);
                    dscores[i * FLASH_BC..i * FLASH_BC + bc].fill(-delta[stat]);
                }
                be.gemm(&tile_gemm((br, bc, d_head), do_r, vt_c, FLASH_BC, true), &mut dscores);
                for i in 0..br {
                    let row = i * FLASH_BC..i * FLASH_BC + bc;
                    be.mul_assign(&mut dscores[row.clone()], &probs[row]);
                }
                let ds = Strided::row_major(&dscores, FLASH_BC);
                let ds_t = Strided::transposed(&dscores, FLASH_BC);
                let p_t = Strided::transposed(&probs, FLASH_BC);
                let (rows_r, rows_c) = (r0 * d + col, c0 * d + col);
                be.gemm(&tile_gemm((br, d_head, bc), ds, k_c, d, true), &mut dq.data_mut()[rows_r..]);
                be.gemm(&tile_gemm((bc, d_head, br), ds_t, q_r, d, true), &mut dk.data_mut()[rows_c..]);
                be.gemm(&tile_gemm((bc, d_head, br), p_t, do_r, d, true), &mut dv.data_mut()[rows_c..]);
            }
        }
    }
    be.scale_assign(dq.data_mut(), scale);
    be.scale_assign(dk.data_mut(), scale);
    ws.give(kt);
    ws.give(vt);
    ws.give_buf(delta);
    ws.give_buf(lse);
    AttnGrads { dq, dk, dv, dbias: None }
}

// ---------------------------------------------------------------------------
// Topology-sparse attention
// ---------------------------------------------------------------------------

/// [`sparse_ws`] through a fresh arena. The one allocating attention entry
/// point left, kept because the frozen benchmark (`examples/perf_ledger`)
/// pins it and `runtime::parallel::parallel_sparse_attention` calls it;
/// everything else goes through [`sparse_ws`].
pub fn sparse(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    mask: &CsrGraph,
    bias: Option<&[Vec<f32>]>,
) -> AttnOutput {
    sparse_ws(q, k, v, heads, mask, bias, &mut Workspace::new())
}

/// Topology-induced sparse attention: query `i` attends only to
/// `mask.neighbors(i)`. `bias[h]` (optional) stores one bias per edge in the
/// mask's CSR order. Every intermediate is drawn from `ws`.
pub fn sparse_ws(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    mask: &CsrGraph,
    bias: Option<&[Vec<f32>]>,
    ws: &mut Workspace,
) -> AttnOutput {
    sparse_ws_with(backend::active(), q, k, v, heads, mask, bias, ws)
}

/// Query rows per parallel task of the sparse forward.
const SPARSE_BR: usize = 64;

/// Multiply-adds (`2 · edges · d`) below which the sparse forward stays on
/// the calling thread. The thread shim spawns scoped threads per call
/// (≈ 70 µs for two, several times that on a busy host): measured on the
/// 2-core AVX-512 host at `S = 1024, d = 64`, 13.6 edges per token (1.8 M
/// multiply-adds, 0.31 ms) the split ran 1.3–1.5× slower.
const SPARSE_PAR_MIN_MACS: usize = 4 << 20;

/// [`sparse_ws`] on an explicit [`Backend`] (parity harness and bench entry
/// point): a loop over blocks of query rows, each row one
/// [`Backend::sparse_row_fwd`] call that handles every head.
#[allow(clippy::too_many_arguments)]
pub fn sparse_ws_with(
    be: Backend,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    mask: &CsrGraph,
    bias: Option<&[Vec<f32>]>,
    ws: &mut Workspace,
) -> AttnOutput {
    let (s, d) = q.shape();
    assert_eq!(k.shape(), (s, d));
    assert_eq!(v.shape(), (s, d));
    assert_eq!(mask.num_nodes(), s, "mask size must match sequence");
    assert_eq!(d % heads, 0, "hidden dim must split across heads");
    // Each row of `out` is written whole by its `sparse_row_fwd` call.
    let mut out = ws.take_uninit(s, d);
    let mut probs: Vec<Vec<f32>> = (0..heads).map(|_| ws.take_buf(mask.num_arcs())).collect();
    if s == 0 || d == 0 {
        return AttnOutput { out, cache: AttnCache::Sparse { probs } };
    }
    let attn = SparseAttn::new(heads, d / heads, k.data(), v.data());
    let row_ptr = mask.row_ptr();
    // One task per block of query rows: it owns those rows of `out` and
    // their edges of every head's probabilities.
    let block_rows = if 2 * mask.num_arcs() * d >= SPARSE_PAR_MIN_MACS { SPARSE_BR } else { s };
    let mut rest: Vec<&mut [f32]> = probs.iter_mut().map(Vec::as_mut_slice).collect();
    let blocks: Vec<(&mut [f32], Vec<&mut [f32]>)> = out
        .data_mut()
        .chunks_mut(block_rows * d)
        .enumerate()
        .map(|(b, o_rows)| {
            let r0 = b * block_rows;
            let edges = row_ptr[r0 + o_rows.len() / d] - row_ptr[r0];
            let p_rows = rest
                .iter_mut()
                .map(|p| {
                    let (block, tail) = std::mem::take(p).split_at_mut(edges);
                    *p = tail;
                    block
                })
                .collect();
            (o_rows, p_rows)
        })
        .collect();
    blocks.into_par_iter().enumerate().for_each(|(b, (o_rows, mut p_rows))| {
        let r0 = b * block_rows;
        let first = row_ptr[r0];
        let last = row_ptr[r0 + o_rows.len() / d];
        let b_rows: Option<Vec<&[f32]>> = bias.map(|per_head| per_head.iter().map(|e| &e[first..last]).collect());
        for (i, o_row) in (r0..).zip(o_rows.chunks_mut(d)) {
            be.sparse_row_fwd(
                &attn,
                q.row(i),
                mask.neighbors(i),
                b_rows.as_deref(),
                &mut p_rows,
                row_ptr[i] - first,
                o_row,
            );
        }
    });
    AttnOutput { out, cache: AttnCache::Sparse { probs } }
}

/// Backward of [`sparse_ws`]; consumes the cache, returning its buffers to
/// `ws`.
#[allow(clippy::too_many_arguments)]
pub fn sparse_backward_ws(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    mask: &CsrGraph,
    cache: AttnCache,
    dout: &Tensor,
    want_bias_grad: bool,
    ws: &mut Workspace,
) -> AttnGrads {
    sparse_backward_ws_with(backend::active(), q, k, v, heads, mask, cache, dout, want_bias_grad, ws)
}

/// [`sparse_backward_ws`] on an explicit [`Backend`] (parity harness and
/// bench entry point): one [`Backend::sparse_row_bwd`] call per query row,
/// rows ascending — it writes `dq` and the score gradients and adds into
/// the `dk` / `dv` rows of the row's neighbours, straight in `[s, d]`.
#[allow(clippy::too_many_arguments)]
pub fn sparse_backward_ws_with(
    be: Backend,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    mask: &CsrGraph,
    cache: AttnCache,
    dout: &Tensor,
    want_bias_grad: bool,
    ws: &mut Workspace,
) -> AttnGrads {
    let probs = match cache {
        AttnCache::Sparse { probs } => probs,
        _ => panic!("sparse_backward called with wrong cache"),
    };
    let (s, d) = q.shape();
    assert_eq!(dout.shape(), (s, d));
    assert_eq!(mask.num_nodes(), s, "mask size must match sequence");
    assert_eq!(probs.len(), heads, "cache was built for another head count");
    // `dq` rows are written whole by `sparse_row_bwd`; `dk` / `dv` rows
    // are added into, so they start from zero.
    let mut dq = ws.take_uninit(s, d);
    let mut dk = ws.take(s, d);
    let mut dv = ws.take(s, d);
    let mut ds: Vec<Vec<f32>> = (0..heads).map(|_| ws.take_buf(mask.num_arcs())).collect();
    if s > 0 && d > 0 {
        let attn = SparseAttn::new(heads, d / heads, k.data(), v.data());
        let row_ptr = mask.row_ptr();
        let p_heads: Vec<&[f32]> = probs.iter().map(Vec::as_slice).collect();
        let mut ds_heads: Vec<&mut [f32]> = ds.iter_mut().map(Vec::as_mut_slice).collect();
        for (i, dq_row) in dq.data_mut().chunks_mut(d).enumerate() {
            be.sparse_row_bwd(
                &attn,
                q.row(i),
                dout.row(i),
                mask.neighbors(i),
                &p_heads,
                &mut ds_heads,
                row_ptr[i],
                dq_row,
                dk.data_mut(),
                dv.data_mut(),
            );
        }
    }
    probs.into_iter().for_each(|p| ws.give_buf(p));
    let dbias = BiasGrad::Sparse(ds);
    let dbias = if want_bias_grad {
        Some(dbias)
    } else {
        dbias.recycle(ws);
        None
    };
    AttnGrads { dq, dk, dv, dbias }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchgt_graph::generators::complete_graph;
    use torchgt_tensor::gradcheck::{max_abs_diff, numerical_grad};
    use torchgt_tensor::init;

    // The kernels under test, each call through a fresh arena.
    fn dense(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize, bias: Option<&[Tensor]>) -> AttnOutput {
        dense_ws(q, k, v, heads, bias, &mut Workspace::new())
    }

    #[allow(clippy::too_many_arguments)]
    fn dense_backward(
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        heads: usize,
        cache: AttnCache,
        dout: &Tensor,
        want_bias_grad: bool,
    ) -> AttnGrads {
        dense_backward_ws(q, k, v, heads, cache, dout, want_bias_grad, &mut Workspace::new())
    }

    fn flash(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize) -> AttnOutput {
        flash_ws(q, k, v, heads, &mut Workspace::new())
    }

    #[allow(clippy::too_many_arguments)]
    fn flash_backward(
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        heads: usize,
        cache: AttnCache,
        out: &Tensor,
        dout: &Tensor,
    ) -> AttnGrads {
        flash_backward_ws(q, k, v, heads, cache, out, dout, &mut Workspace::new())
    }

    #[allow(clippy::too_many_arguments)]
    fn sparse_backward(
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        heads: usize,
        mask: &CsrGraph,
        cache: AttnCache,
        dout: &Tensor,
        want_bias_grad: bool,
    ) -> AttnGrads {
        sparse_backward_ws(q, k, v, heads, mask, cache, dout, want_bias_grad, &mut Workspace::new())
    }

    fn qkv(s: usize, d: usize) -> (Tensor, Tensor, Tensor) {
        (
            init::normal(s, d, 0.0, 1.0, 1),
            init::normal(s, d, 0.0, 1.0, 2),
            init::normal(s, d, 0.0, 1.0, 3),
        )
    }

    #[test]
    fn dense_rows_are_convex_combinations() {
        let (q, k, v) = qkv(6, 8);
        let r = dense(&q, &k, &v, 2, None);
        // Each output row lies within the range of V rows (convexity proxy:
        // max |out| ≤ max |v|).
        let vmax = v.data().iter().fold(0.0f32, |a, &b| a.max(b.abs()));
        assert!(r.out.data().iter().all(|&o| o.abs() <= vmax + 1e-4));
    }

    #[test]
    fn flash_matches_dense_exactly() {
        let (q, k, v) = qkv(37, 16); // non-multiple of tile width
        let d = dense(&q, &k, &v, 4, None);
        let f = flash(&q, &k, &v, 4);
        assert!(
            max_abs_diff(&d.out, &f.out) < 1e-4,
            "diff {}",
            max_abs_diff(&d.out, &f.out)
        );
    }

    /// Forward and backward against the dense oracle on sequences that
    /// span several tiles in both directions and end in a ragged tile — the
    /// cross-tile rescale, the saved log-sum-exp and the masked GEMM edges
    /// all have to be right for this to hold.
    #[test]
    fn flash_matches_dense_across_tiles_forward_and_backward() {
        let heads = 2;
        let mut ws = Workspace::new();
        for s in [127usize, 129, 300, 1024] {
            for d_head in [8usize, 16, 32] {
                let d = heads * d_head;
                let (q, k, v) = qkv(s, d);
                let upstream = init::normal(s, d, 0.0, 1.0, 41);
                let want = dense_ws(&q, &k, &v, heads, None, &mut ws);
                let got = flash_ws(&q, &k, &v, heads, &mut ws);
                let diff = max_abs_diff(&want.out, &got.out);
                assert!(diff < 1e-4, "S={s} d_head={d_head}: forward diff {diff}");
                let wg = dense_backward_ws(&q, &k, &v, heads, want.cache, &upstream, false, &mut ws);
                let gg = flash_backward_ws(&q, &k, &v, heads, got.cache, &got.out, &upstream, &mut ws);
                for (name, w, g) in [("dq", &wg.dq, &gg.dq), ("dk", &wg.dk, &gg.dk), ("dv", &wg.dv, &gg.dv)] {
                    let diff = max_abs_diff(w, g);
                    assert!(diff < 1e-3, "S={s} d_head={d_head}: {name} diff {diff}");
                }
                for t in [want.out, got.out, wg.dq, wg.dk, wg.dv, gg.dq, gg.dk, gg.dv] {
                    ws.give(t);
                }
            }
        }
    }

    #[test]
    fn flash_backward_matches_numerical_across_tiles() {
        // 140 queries × 140 keys: five row blocks, two key tiles, both ragged.
        let (s, d, heads) = (140, 4, 2);
        let (q, k, v) = qkv(s, d);
        let upstream = init::normal(s, d, 0.0, 1.0, 43);
        let r = flash(&q, &k, &v, heads);
        let g = flash_backward(&q, &k, &v, heads, r.cache, &r.out, &upstream);
        let loss = |qq: &Tensor, kk: &Tensor, vv: &Tensor| {
            let o = flash(qq, kk, vv, heads).out;
            o.data().iter().zip(upstream.data()).map(|(a, b)| a * b).sum::<f32>()
        };
        let nq = numerical_grad(&q, |p| loss(p, &k, &v), 1e-2);
        let nk = numerical_grad(&k, |p| loss(&q, p, &v), 1e-2);
        let nv = numerical_grad(&v, |p| loss(&q, &k, p), 1e-2);
        assert!(max_abs_diff(&g.dq, &nq) < 2e-2, "dq {}", max_abs_diff(&g.dq, &nq));
        assert!(max_abs_diff(&g.dk, &nk) < 2e-2, "dk {}", max_abs_diff(&g.dk, &nk));
        assert!(max_abs_diff(&g.dv, &nv) < 2e-2, "dv {}", max_abs_diff(&g.dv, &nv));
    }

    #[test]
    fn warm_ws_flash_steps_do_not_allocate() {
        let (s, d, heads) = (300, 16, 2);
        let (q, k, v) = qkv(s, d);
        let upstream = init::normal(s, d, 0.0, 1.0, 47);
        let mut ws = Workspace::new();
        let step = |ws: &mut Workspace| {
            let r = flash_ws(&q, &k, &v, heads, ws);
            let g = flash_backward_ws(&q, &k, &v, heads, r.cache, &r.out, &upstream, ws);
            for t in [r.out, g.dq, g.dk, g.dv] {
                ws.give(t);
            }
        };
        step(&mut ws);
        let warm = ws.stats();
        step(&mut ws);
        let after = ws.stats();
        assert_eq!(after.alloc_bytes, warm.alloc_bytes, "warm flash step allocated");
        assert!(after.reuse_hits > warm.reuse_hits);
        // An eval-style forward whose cache is recycled instead of consumed.
        let r = flash_ws(&q, &k, &v, heads, &mut ws);
        r.cache.recycle(&mut ws);
        ws.give(r.out);
        assert_eq!(ws.stats().alloc_bytes, warm.alloc_bytes, "recycled flash forward allocated");
    }

    #[test]
    fn sparse_on_complete_graph_matches_dense() {
        let s = 10;
        let (q, k, v) = qkv(s, 8);
        let mask = complete_graph(s).with_self_loops();
        let d = dense(&q, &k, &v, 2, None);
        let sp = sparse(&q, &k, &v, 2, &mask, None);
        assert!(max_abs_diff(&d.out, &sp.out) < 1e-4);
    }

    #[test]
    fn dirty_shared_arena_matches_fresh_arenas_bitwise() {
        // Same arithmetic through a pre-dirtied shared arena: forward and
        // backward of every kernel must be bit-identical to a call through a
        // fresh arena.
        let s = 9;
        let (q, k, v) = qkv(s, 8);
        let upstream = init::normal(s, 8, 0.0, 1.0, 21);
        let mask = torchgt_graph::generators::cycle_graph(s).with_self_loops();
        let mut ws = Workspace::new();
        let mut dirty = ws.take(s, s);
        dirty.data_mut().fill(f32::NAN);
        ws.give(dirty);

        let a = dense(&q, &k, &v, 2, None);
        let b = dense_ws(&q, &k, &v, 2, None, &mut ws);
        assert_eq!(a.out.data(), b.out.data());
        let ga = dense_backward(&q, &k, &v, 2, a.cache, &upstream, false);
        let gb = dense_backward_ws(&q, &k, &v, 2, b.cache, &upstream, false, &mut ws);
        assert_eq!(ga.dq.data(), gb.dq.data());
        assert_eq!(ga.dk.data(), gb.dk.data());
        assert_eq!(ga.dv.data(), gb.dv.data());
        ws.give(b.out);
        ws.give(gb.dq);
        ws.give(gb.dk);
        ws.give(gb.dv);

        let a = flash(&q, &k, &v, 2);
        let b = flash_ws(&q, &k, &v, 2, &mut ws);
        assert_eq!(a.out.data(), b.out.data());
        let ga = flash_backward(&q, &k, &v, 2, a.cache, &a.out, &upstream);
        let gb = flash_backward_ws(&q, &k, &v, 2, b.cache, &b.out, &upstream, &mut ws);
        assert_eq!(ga.dq.data(), gb.dq.data());
        assert_eq!(ga.dk.data(), gb.dk.data());
        assert_eq!(ga.dv.data(), gb.dv.data());

        let a = sparse(&q, &k, &v, 2, &mask, None);
        let b = sparse_ws(&q, &k, &v, 2, &mask, None, &mut ws);
        assert_eq!(a.out.data(), b.out.data());
        let ga = sparse_backward(&q, &k, &v, 2, &mask, a.cache, &upstream, false);
        let gb = sparse_backward_ws(&q, &k, &v, 2, &mask, b.cache, &upstream, false, &mut ws);
        assert_eq!(ga.dq.data(), gb.dq.data());
        assert_eq!(ga.dk.data(), gb.dk.data());
        assert_eq!(ga.dv.data(), gb.dv.data());

        let a = performer_ws(&q, &k, &v, 2, 16, 5, &mut Workspace::new());
        let b = performer_ws(&q, &k, &v, 2, 16, 5, &mut ws);
        assert_eq!(a.out.data(), b.out.data());
        let ga = performer_backward_ws(&q, &k, &v, 2, 16, 5, a.cache, &upstream, &mut Workspace::new());
        let gb = performer_backward_ws(&q, &k, &v, 2, 16, 5, b.cache, &upstream, &mut ws);
        assert_eq!(ga.dq.data(), gb.dq.data());
        assert_eq!(ga.dk.data(), gb.dk.data());
        assert_eq!(ga.dv.data(), gb.dv.data());
    }

    #[test]
    fn warm_ws_attention_steps_do_not_allocate() {
        let s = 12;
        let (q, k, v) = qkv(s, 8);
        let upstream = init::normal(s, 8, 0.0, 1.0, 23);
        let mask = torchgt_graph::generators::cycle_graph(s).with_self_loops();
        let mut ws = Workspace::new();
        let step = |ws: &mut Workspace| {
            let r = sparse_ws(&q, &k, &v, 2, &mask, None, ws);
            let g = sparse_backward_ws(&q, &k, &v, 2, &mask, r.cache, &upstream, false, ws);
            ws.give(r.out);
            ws.give(g.dq);
            ws.give(g.dk);
            ws.give(g.dv);
        };
        step(&mut ws);
        step(&mut ws);
        let warm = ws.stats();
        step(&mut ws);
        let after = ws.stats();
        assert_eq!(after.alloc_bytes, warm.alloc_bytes, "warm attention step allocated");
        assert!(after.reuse_hits > warm.reuse_hits);
    }

    #[test]
    fn dense_backward_matches_numerical() {
        let (q, k, v) = qkv(5, 6);
        let upstream = init::normal(5, 6, 0.0, 1.0, 9);
        let r = dense(&q, &k, &v, 2, None);
        let g = dense_backward(&q, &k, &v, 2, r.cache, &upstream, false);
        let loss = |qq: &Tensor, kk: &Tensor, vv: &Tensor| {
            let o = dense(qq, kk, vv, 2, None).out;
            o.data().iter().zip(upstream.data()).map(|(a, b)| a * b).sum::<f32>()
        };
        let nq = numerical_grad(&q, |p| loss(p, &k, &v), 1e-2);
        let nk = numerical_grad(&k, |p| loss(&q, p, &v), 1e-2);
        let nv = numerical_grad(&v, |p| loss(&q, &k, p), 1e-2);
        assert!(max_abs_diff(&g.dq, &nq) < 2e-2, "dq {}", max_abs_diff(&g.dq, &nq));
        assert!(max_abs_diff(&g.dk, &nk) < 2e-2, "dk {}", max_abs_diff(&g.dk, &nk));
        assert!(max_abs_diff(&g.dv, &nv) < 2e-2, "dv {}", max_abs_diff(&g.dv, &nv));
    }

    #[test]
    fn flash_backward_matches_dense_backward() {
        let (q, k, v) = qkv(23, 8);
        let upstream = init::normal(23, 8, 0.0, 1.0, 11);
        let dres = dense(&q, &k, &v, 2, None);
        let dg = dense_backward(&q, &k, &v, 2, dres.cache, &upstream, false);
        let fres = flash(&q, &k, &v, 2);
        let fg = flash_backward(&q, &k, &v, 2, fres.cache, &fres.out, &upstream);
        assert!(max_abs_diff(&dg.dq, &fg.dq) < 1e-3);
        assert!(max_abs_diff(&dg.dk, &fg.dk) < 1e-3);
        assert!(max_abs_diff(&dg.dv, &fg.dv) < 1e-3);
    }

    #[test]
    fn sparse_backward_matches_numerical() {
        let s = 8;
        let (q, k, v) = qkv(s, 4);
        let mask = torchgt_graph::generators::cycle_graph(s).with_self_loops();
        let upstream = init::normal(s, 4, 0.0, 1.0, 13);
        let r = sparse(&q, &k, &v, 2, &mask, None);
        let g = sparse_backward(&q, &k, &v, 2, &mask, r.cache, &upstream, false);
        let loss = |qq: &Tensor, kk: &Tensor, vv: &Tensor| {
            let o = sparse(qq, kk, vv, 2, &mask, None).out;
            o.data().iter().zip(upstream.data()).map(|(a, b)| a * b).sum::<f32>()
        };
        let nq = numerical_grad(&q, |p| loss(p, &k, &v), 1e-2);
        let nk = numerical_grad(&k, |p| loss(&q, p, &v), 1e-2);
        let nv = numerical_grad(&v, |p| loss(&q, &k, p), 1e-2);
        assert!(max_abs_diff(&g.dq, &nq) < 2e-2);
        assert!(max_abs_diff(&g.dk, &nk) < 2e-2);
        assert!(max_abs_diff(&g.dv, &nv) < 2e-2);
    }

    #[test]
    fn dense_bias_shifts_attention() {
        let (q, k, v) = qkv(4, 4);
        let mut bias = vec![Tensor::zeros(4, 4), Tensor::zeros(4, 4)];
        // Huge bias towards column 2 in head 0.
        for r in 0..4 {
            bias[0].set(r, 2, 50.0);
        }
        let r = dense(&q, &k, &v, 2, Some(&bias));
        // Head 0 output ≈ V row 2 (head-0 columns).
        for row in 0..4 {
            for t in 0..2 {
                assert!((r.out.get(row, t) - v.get(2, t)).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn sparse_bias_grad_has_edge_layout() {
        let s = 6;
        let (q, k, v) = qkv(s, 4);
        let mask = complete_graph(s).with_self_loops();
        let bias: Vec<Vec<f32>> = vec![vec![0.1; mask.num_arcs()]; 2];
        let r = sparse(&q, &k, &v, 2, &mask, Some(&bias));
        let upstream = init::normal(s, 4, 0.0, 1.0, 17);
        let g = sparse_backward(&q, &k, &v, 2, &mask, r.cache, &upstream, true);
        match g.dbias {
            Some(BiasGrad::Sparse(db)) => {
                assert_eq!(db.len(), 2);
                assert_eq!(db[0].len(), mask.num_arcs());
                assert!(db[0].iter().any(|&x| x != 0.0));
            }
            _ => panic!("expected sparse bias grad"),
        }
    }

    #[test]
    fn sparse_bias_grad_matches_numerical() {
        let s = 5;
        let (q, k, v) = qkv(s, 4);
        let mask = complete_graph(s).with_self_loops();
        let nedges = mask.num_arcs();
        let bias: Vec<Vec<f32>> = vec![
            (0..nedges).map(|e| (e as f32) * 0.01).collect(),
            (0..nedges).map(|e| -(e as f32) * 0.02).collect(),
        ];
        let upstream = init::normal(s, 4, 0.0, 1.0, 19);
        let r = sparse(&q, &k, &v, 2, &mask, Some(&bias));
        let g = sparse_backward(&q, &k, &v, 2, &mask, r.cache, &upstream, true);
        let db = match g.dbias {
            Some(BiasGrad::Sparse(db)) => db,
            _ => unreachable!(),
        };
        // Numerical check on a few edges of head 0.
        for e in [0usize, 3, 7, nedges - 1] {
            let eps = 1e-2;
            let mut bp = bias.clone();
            bp[0][e] += eps;
            let lp: f32 = sparse(&q, &k, &v, 2, &mask, Some(&bp))
                .out
                .data()
                .iter()
                .zip(upstream.data())
                .map(|(a, b)| a * b)
                .sum();
            let mut bm = bias.clone();
            bm[0][e] -= eps;
            let lm: f32 = sparse(&q, &k, &v, 2, &mask, Some(&bm))
                .out
                .data()
                .iter()
                .zip(upstream.data())
                .map(|(a, b)| a * b)
                .sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((db[0][e] - num).abs() < 2e-2, "edge {e}: {} vs {num}", db[0][e]);
        }
    }
}

// ---------------------------------------------------------------------------
// Performer-style linear attention (FAVOR+)
// ---------------------------------------------------------------------------

/// Positive random-feature map `φ(x)_j = exp(w_j·x − ‖x‖²/2)/√m` applied to
/// each (pre-scaled) row.
fn phi_map_ws(x: &Tensor, w: &Tensor, ws: &mut Workspace) -> Tensor {
    let (s, _) = x.shape();
    let m = w.rows();
    let inv_sqrt_m = 1.0 / (m as f32).sqrt();
    let mut proj = ws.take(s, m);
    ops::matmul_bt_into(x, w, &mut proj); // [s, m]
    let mut out = ws.take(s, m);
    for i in 0..s {
        let half_norm: f32 = x.row(i).iter().map(|v| v * v).sum::<f32>() * 0.5;
        let orow = out.row_mut(i);
        for (o, &p) in orow.iter_mut().zip(proj.row(i)) {
            *o = (p - half_norm).exp() * inv_sqrt_m;
        }
    }
    ws.give(proj);
    out
}

/// Backward of [`phi_map_ws`]:
/// `dx_i = (dφ_i ∘ φ_i)·W − (Σ_j dφ_ij φ_ij)·x_i`.
fn phi_map_backward_ws(
    x: &Tensor,
    w: &Tensor,
    phi: &Tensor,
    dphi: &Tensor,
    ws: &mut Workspace,
) -> Tensor {
    let (s, m) = phi.shape();
    let mut weighted = ws.take(s, m);
    ops::mul_into(dphi, phi, &mut weighted); // [s, m]
    let mut dx = ws.take(s, x.cols());
    ops::matmul_into(&weighted, w, &mut dx); // [s, d]
    for i in 0..x.rows() {
        let row_sum: f32 = weighted.row(i).iter().sum();
        for (d, &xv) in dx.row_mut(i).iter_mut().zip(x.row(i)) {
            *d -= row_sum * xv;
        }
    }
    ws.give(weighted);
    dx
}

/// Performer (FAVOR+) linear attention: `O = φ(Q)(φ(K)ᵀV) / φ(Q)(φ(K)ᵀ1)`,
/// an `O(s·m·d)` approximation of softmax attention with `m` positive random
/// features per head. This is the NLP-style approximate attention the paper
/// contrasts against (its ref. [35], Performers): structure-agnostic, so it
/// loses the graph's connectivity information. Every intermediate (including
/// the per-head random feature matrices) is drawn from `ws`.
pub fn performer_ws(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    m_features: usize,
    seed: u64,
    ws: &mut Workspace,
) -> AttnOutput {
    let (s, d) = q.shape();
    let d_head = d / heads;
    // Pre-scale so φ approximates exp(q·k/√d_head).
    let scale = 1.0 / (d_head as f32).powf(0.25);
    let mut out = ws.take(s, d);
    let mut phi_qs = Vec::with_capacity(heads);
    let mut phi_ks = Vec::with_capacity(heads);
    let mut denoms = Vec::with_capacity(heads);
    let mut nums = Vec::with_capacity(heads);
    for h in 0..heads {
        let mut w = ws.take(m_features, d_head);
        torchgt_tensor::init::normal_into(0.0, 1.0, seed.wrapping_add(h as u64), &mut w);
        let mut qh = ws.take(s, d_head);
        ops::scale_into(&head_view(q, h, d_head), scale, &mut qh);
        let mut kh = ws.take(s, d_head);
        ops::scale_into(&head_view(k, h, d_head), scale, &mut kh);
        let vh = head_view(v, h, d_head);
        let phi_q = phi_map_ws(&qh, &w, ws);
        let phi_k = phi_map_ws(&kh, &w, ws);
        ws.give(qh);
        ws.give(kh);
        ws.give(w);
        let mut a = ws.take(m_features, d_head);
        ops::matmul_at_into(&phi_k, &vh, &mut a); // [m, d_head]
        let mut num = ws.take(s, d_head);
        ops::matmul_into(&phi_q, &a, &mut num); // [s, d_head]
        ws.give(a);
        let mut z = ws.take(1, m_features);
        ops::col_sum_into(&phi_k, &mut z); // [1, m]
        let mut den_t = ws.take(s, 1);
        ops::matmul_bt_into(&phi_q, &z, &mut den_t); // [s, 1]
        ws.give(z);
        let mut den = ws.take_buf(s);
        for (i, slot) in den.iter_mut().enumerate() {
            *slot = den_t.get(i, 0).max(1e-9);
        }
        ws.give(den_t);
        let mut oh = ws.take(s, d_head);
        for i in 0..s {
            let inv = 1.0 / den[i];
            for t in 0..d_head {
                oh.set(i, t, num.get(i, t) * inv);
            }
        }
        write_head(&mut out, &oh, h, d_head);
        ws.give(oh);
        phi_qs.push(phi_q);
        phi_ks.push(phi_k);
        denoms.push(den);
        nums.push(num);
    }
    AttnOutput {
        out,
        cache: AttnCache::Performer { phi_q: phi_qs, phi_k: phi_ks, denom: denoms, num: nums },
    }
}

/// Backward of [`performer_ws`] (same `seed`/`m_features` as the forward);
/// consumes the cache, returning its buffers to `ws`.
#[allow(clippy::too_many_arguments)]
pub fn performer_backward_ws(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    m_features: usize,
    seed: u64,
    cache: AttnCache,
    dout: &Tensor,
    ws: &mut Workspace,
) -> AttnGrads {
    let (phi_qs, phi_ks, denoms, nums) = match cache {
        AttnCache::Performer { phi_q, phi_k, denom, num } => (phi_q, phi_k, denom, num),
        _ => panic!("performer_backward called with wrong cache"),
    };
    let (s, d) = q.shape();
    let d_head = d / heads;
    let scale = 1.0 / (d_head as f32).powf(0.25);
    let mut dq = ws.take(s, d);
    let mut dk = ws.take(s, d);
    let mut dv = ws.take(s, d);
    let per_head = phi_qs.into_iter().zip(phi_ks).zip(denoms).zip(nums).enumerate();
    for (h, (((phi_q, phi_k), den), num)) in per_head {
        let mut w = ws.take(m_features, d_head);
        torchgt_tensor::init::normal_into(0.0, 1.0, seed.wrapping_add(h as u64), &mut w);
        let mut qh = ws.take(s, d_head);
        ops::scale_into(&head_view(q, h, d_head), scale, &mut qh);
        let mut kh = ws.take(s, d_head);
        ops::scale_into(&head_view(k, h, d_head), scale, &mut kh);
        let vh = head_view(v, h, d_head);
        let doh = head_view(dout, h, d_head);
        // O = num/den: dnum, dden per row.
        let mut dnum = ws.take(s, d_head);
        let mut dden = ws.take_buf(s);
        for i in 0..s {
            let inv = 1.0 / den[i];
            let mut dot = 0.0f32;
            for t in 0..d_head {
                dnum.set(i, t, doh.row(i)[t] * inv);
                dot += doh.row(i)[t] * num.get(i, t);
            }
            dden[i] = -dot * inv * inv;
        }
        // A = φ(K)ᵀV, z = φ(K)ᵀ1.
        let mut a = ws.take(m_features, d_head);
        ops::matmul_at_into(&phi_k, &vh, &mut a);
        let mut z = ws.take(1, m_features);
        ops::col_sum_into(&phi_k, &mut z); // [1, m]
        // dφ(Q) = dnum·Aᵀ + dden ⊗ z.
        let mut dphi_q = ws.take(s, m_features);
        ops::matmul_bt_into(&dnum, &a, &mut dphi_q);
        for i in 0..s {
            let dd = dden[i];
            for (c, zv) in dphi_q.row_mut(i).iter_mut().zip(z.row(0)) {
                *c += dd * zv;
            }
        }
        ws.give(z);
        // dA = φ(Q)ᵀ dnum; dz = φ(Q)ᵀ dden.
        let mut da = ws.take(m_features, d_head);
        ops::matmul_at_into(&phi_q, &dnum, &mut da); // [m, d_head]
        let mut dz = ws.take_buf(m_features);
        for i in 0..s {
            let dd = dden[i];
            for (j, &pq) in phi_q.row(i).iter().enumerate() {
                dz[j] += dd * pq;
            }
        }
        // dφ(K) = V·dAᵀ + 1⊗dz; dV = φ(K)·dA.
        let mut dphi_k = ws.take(s, m_features);
        ops::matmul_bt_into(&vh, &da, &mut dphi_k);
        for i in 0..s {
            for (c, &dzv) in dphi_k.row_mut(i).iter_mut().zip(&dz) {
                *c += dzv;
            }
        }
        let mut dvh = ws.take(s, d_head);
        ops::matmul_into(&phi_k, &da, &mut dvh);
        ws.give(a);
        ws.give(da);
        ws.give(dnum);
        ws.give_buf(dden);
        ws.give_buf(dz);
        // Through the feature maps, then undo the input scaling.
        let mut dqh = phi_map_backward_ws(&qh, &w, &phi_q, &dphi_q, ws);
        ops::scale_inplace(&mut dqh, scale);
        let mut dkh = phi_map_backward_ws(&kh, &w, &phi_k, &dphi_k, ws);
        ops::scale_inplace(&mut dkh, scale);
        add_head(&mut dq, &dqh, h, d_head);
        add_head(&mut dk, &dkh, h, d_head);
        add_head(&mut dv, &dvh, h, d_head);
        ws.give(dqh);
        ws.give(dkh);
        ws.give(dvh);
        ws.give(dphi_q);
        ws.give(dphi_k);
        ws.give(qh);
        ws.give(kh);
        ws.give(w);
        ws.give(phi_q);
        ws.give(phi_k);
        ws.give(num);
        ws.give_buf(den);
    }
    AttnGrads { dq, dk, dv, dbias: None }
}

#[cfg(test)]
mod performer_tests {
    use super::*;
    use torchgt_tensor::gradcheck::{max_abs_diff, numerical_grad};
    use torchgt_tensor::init;

    // The kernel under test, each call through a fresh arena.
    fn performer(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize, m: usize, seed: u64) -> AttnOutput {
        performer_ws(q, k, v, heads, m, seed, &mut Workspace::new())
    }

    fn qkv(s: usize, d: usize) -> (Tensor, Tensor, Tensor) {
        (
            init::normal(s, d, 0.0, 0.6, 31),
            init::normal(s, d, 0.0, 0.6, 32),
            init::normal(s, d, 0.0, 0.6, 33),
        )
    }

    #[test]
    fn performer_output_is_convex_combination() {
        let (q, k, v) = qkv(8, 8);
        let r = performer(&q, &k, &v, 2, 64, 5);
        // Rows of O are positive-weighted averages of V rows.
        let vmax = v.data().iter().fold(0.0f32, |a, &b| a.max(b.abs()));
        assert!(r.out.data().iter().all(|&o| o.abs() <= vmax + 1e-3));
    }

    #[test]
    fn performer_approximates_dense_softmax() {
        // With many random features the FAVOR+ estimate tracks softmax
        // attention; correlation between outputs should be strong.
        let (q, k, v) = qkv(12, 4);
        let exact = dense_ws(&q, &k, &v, 1, None, &mut Workspace::new()).out;
        let approx = performer(&q, &k, &v, 1, 512, 7).out;
        let mean_exact = exact.mean();
        let mean_approx = approx.mean();
        let mut cov = 0.0f64;
        let mut var_e = 0.0f64;
        let mut var_a = 0.0f64;
        for (e, a) in exact.data().iter().zip(approx.data()) {
            cov += ((e - mean_exact) * (a - mean_approx)) as f64;
            var_e += ((e - mean_exact) * (e - mean_exact)) as f64;
            var_a += ((a - mean_approx) * (a - mean_approx)) as f64;
        }
        let corr = cov / (var_e.sqrt() * var_a.sqrt()).max(1e-12);
        assert!(corr > 0.8, "correlation {corr}");
    }

    #[test]
    fn performer_backward_matches_numerical() {
        let (q, k, v) = qkv(5, 4);
        let upstream = init::normal(5, 4, 0.0, 1.0, 39);
        let r = performer(&q, &k, &v, 2, 16, 3);
        let g = performer_backward_ws(&q, &k, &v, 2, 16, 3, r.cache, &upstream, &mut Workspace::new());
        let loss = |qq: &Tensor, kk: &Tensor, vv: &Tensor| {
            let o = performer(qq, kk, vv, 2, 16, 3).out;
            o.data().iter().zip(upstream.data()).map(|(a, b)| a * b).sum::<f32>()
        };
        let nq = numerical_grad(&q, |p| loss(p, &k, &v), 1e-2);
        let nk = numerical_grad(&k, |p| loss(&q, p, &v), 1e-2);
        let nv = numerical_grad(&v, |p| loss(&q, &k, p), 1e-2);
        assert!(max_abs_diff(&g.dq, &nq) < 3e-2, "dq {}", max_abs_diff(&g.dq, &nq));
        assert!(max_abs_diff(&g.dk, &nk) < 3e-2, "dk {}", max_abs_diff(&g.dk, &nk));
        assert!(max_abs_diff(&g.dv, &nv) < 3e-2, "dv {}", max_abs_diff(&g.dv, &nv));
    }

    #[test]
    fn performer_is_deterministic_per_seed() {
        let (q, k, v) = qkv(6, 4);
        let a = performer(&q, &k, &v, 2, 32, 11).out;
        let b = performer(&q, &k, &v, 2, 32, 11).out;
        let c = performer(&q, &k, &v, 2, 32, 12).out;
        assert_eq!(a.data(), b.data());
        assert_ne!(a.data(), c.data());
    }
}
