//! Backend-differential parity harness.
//!
//! Every compiled kernel backend (scalar, AVX2, AVX-512 — whichever this CPU
//! supports) is fed identical inputs, including NaN/Inf/denormal/negative-zero
//! edge cases and non-contiguous `view_cols` strides, and compared against the
//! scalar reference. Two parity classes, per kernel:
//!
//! | kernel                         | class       | bound                               |
//! |--------------------------------|-------------|-------------------------------------|
//! | `add/sub/mul/scale_into`       | bit-exact   | one IEEE op per element             |
//! | axpy / scale_assign / div      | bit-exact   | same two roundings per element      |
//! | `matmul_into` / `matmul_bt_into` / `matmul_at_into` (dot) | ULP-bounded | `2k·ε·Σ|aᵢbᵢ|`, ε = 6e-8 (`gemm_tile`: ascending `p`, one rounding per term where the ISA has FMA) |
//! | `Backend::gemm` / `gemm_tile`  | as above    | scalar bit-exact vs a naive triple loop, SIMD dot-bounded with the same IEEE classes; edge masks, strides, dirty `C`, `accumulate`, NaN/±Inf/−0 |
//! | `flash_ws_with` / backward     | ULP-bounded | abs 1e-4 / 1e-3 across backends (fused tiles + vector exp) |
//! | `dot`                          | ULP-bounded | `2k·ε·Σ|aᵢbᵢ|`                        |
//! | `dot3` `sum` `sum_sq_diff` `normalize` | ULP-bounded | inside the LayerNorm tiles (`layer_norm_rows`), see below |
//! | `add_assign` `mul_assign` `max_ignore_nan` `exp_minus_max_sum` | per class | called directly on ragged lengths |
//! | `add_bias_rows` `col_sum_rows` `layer_norm_affine_rows` | bit-exact | one-row tiles on ragged lengths |
//! | `layer_norm_grad_rows` (`mul_acc`, `ln_grad_combine`) | bit-exact | small-integer operands, whose row sums are exact in every order |
//! | `gelu_rows` (`gelu`) / `gelu_grad_rows` (`gelu_grad`) | ULP-bounded | one-row tiles, as `gelu_into` / `gelu_backward_into` below |
//! | `row_softmax_into`             | ULP-bounded | rel 1e-5 (vector exp); ±Inf/NaN rows bit-identical |
//! | `gelu_into`                    | ULP-bounded | rel 1e-5 or abs 1e-6 (vector tanh)  |
//! | `gelu_backward_into`           | ULP-bounded | rel 1e-5 or abs 2e-5 (tanh error amplified by the sech² product term) |
//! | `layer_norm_into` / backward   | ULP-bounded | rel 1e-4 or abs 1e-4 (sum/dot reductions) |
//! | `sparse_rows_fwd` / `sparse_rows_bwd` | ULP-bounded | rel 1e-4 or abs 1e-5 (masked dots, vector exp, FMA accumulation); NaN / ±Inf classes match |
//! | `update_clmul` / `update_slicing16` (CRC-32, `torchgt_ckpt::checksum`) | bit-exact | integer arithmetic: both bodies equal a byte-at-a-time shift register on every length, alignment and incoming state |
//! | `dot_i8` / `dot_i8_avx2` (`torchgt_serve::quant`) | bit-exact | integer arithmetic: equals `dot_i8_scalar` on lengths 0..=67 incl. the ±127 / −128 extremes |
//!
//! "Bit-exact" means every output bit matches the scalar backend (NaNs
//! compare equal regardless of payload; signed zeros must match exactly).
//! The file also carries the dispatch-override CLI matrix and the
//! full-trainer gate: 3-epoch pack-of-one `BatchedGraphTrainer` loss histories re-executed
//! under each backend must agree within tolerance.

use std::process::Command;
use torchgt::tensor::backend::{self, Backend};
use torchgt::tensor::{init, ops, MatRef, Tensor, Workspace};
use torchgt_compat::proptest::prelude::*;

// ---------------------------------------------------------------------------
// Comparison helpers
// ---------------------------------------------------------------------------

/// Bit-exact comparison: identical bits, except any-NaN matches any-NaN.
fn assert_bits_eq(kernel: &str, be: Backend, reference: &[f32], got: &[f32]) -> Result<(), TestCaseError> {
    prop_assert_eq!(reference.len(), got.len());
    for (i, (&r, &g)) in reference.iter().zip(got).enumerate() {
        let same = (r.is_nan() && g.is_nan()) || r.to_bits() == g.to_bits();
        prop_assert!(
            same,
            "{kernel} [{}] idx {i}: scalar {r:e} ({:#010x}) vs {g:e} ({:#010x})",
            be.name(),
            r.to_bits(),
            g.to_bits()
        );
    }
    Ok(())
}

/// Tolerance comparison: same non-finite class, else `|Δ| ≤ max(abs, rel·|r|)`.
fn assert_close(
    kernel: &str,
    be: Backend,
    reference: &[f32],
    got: &[f32],
    rel: f32,
    abs: f32,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(reference.len(), got.len());
    for (i, (&r, &g)) in reference.iter().zip(got).enumerate() {
        if r.is_nan() || g.is_nan() {
            prop_assert!(
                r.is_nan() && g.is_nan(),
                "{kernel} [{}] idx {i}: NaN class mismatch: scalar {r} vs {g}",
                be.name()
            );
            continue;
        }
        if r.is_infinite() || g.is_infinite() {
            prop_assert!(
                r == g,
                "{kernel} [{}] idx {i}: infinity mismatch: scalar {r} vs {g}",
                be.name()
            );
            continue;
        }
        let tol = abs.max(rel * r.abs());
        prop_assert!(
            (r - g).abs() <= tol,
            "{kernel} [{}] idx {i}: scalar {r:e} vs {g:e} (|Δ| {:e} > tol {tol:e})",
            be.name(),
            (r - g).abs()
        );
    }
    Ok(())
}

/// Error bound for a `k`-term f32 dot product allowed to reassociate and use
/// FMA: `2·k·ε·Σ|aᵢbᵢ|` with the magnitude sum taken in f64.
fn dot_bound(a: &[f32], b: &[f32]) -> f32 {
    let mag: f64 = a.iter().zip(b).map(|(&x, &y)| (x as f64 * y as f64).abs()).sum();
    (2.0 * a.len() as f64 * 6e-8 * mag).max(1e-30) as f32
}

/// Finite values including denormals, signed zeros, exp-range edges.
fn arb_edge_f32() -> impl Strategy<Value = f32> {
    (0usize..12, -4.0f32..4.0).prop_map(|(pick, x)| match pick {
        0 => 0.0,
        1 => -0.0,
        2 => 1.0e-40,       // positive denormal
        3 => -3.0e-42,      // negative denormal
        4 => f32::MIN_POSITIVE,
        5 => 88.5,          // just above exp overflow threshold
        6 => -88.5,         // just below exp underflow threshold
        7 => 12.5,          // beyond the tanh saturation clamp
        8 => -12.5,
        _ => x,
    })
}

/// Like [`arb_edge_f32`] but also NaN and ±Inf.
fn arb_special_f32() -> impl Strategy<Value = f32> {
    (0usize..15, -4.0f32..4.0).prop_map(|(pick, x)| match pick {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => 1.0e-40,
        6 => -3.0e-42,
        7 => 88.5,
        8 => -88.5,
        _ => x,
    })
}

fn tensor_of(rows: usize, cols: usize, vals: &[f32]) -> Tensor {
    let mut data = Vec::with_capacity(rows * cols);
    for i in 0..rows * cols {
        data.push(vals[i % vals.len()]);
    }
    Tensor::from_vec(rows, cols, data)
}

fn arb_tensor(rows: std::ops::Range<usize>, cols: std::ops::Range<usize>) -> impl Strategy<Value = Tensor> {
    (rows, cols, 0u64..100_000)
        .prop_map(|(r, c, seed)| init::normal(r, c, 0.0, 1.0, seed.wrapping_add(1)))
}

/// A tensor whose entries mix normal draws with edge-case finite values.
fn arb_edge_tensor(rows: std::ops::Range<usize>, cols: std::ops::Range<usize>) -> impl Strategy<Value = Tensor> {
    (rows, cols, 0u64..100_000, collection::vec(arb_edge_f32(), 4..32)).prop_map(
        |(r, c, seed, edges)| {
            let mut t = init::normal(r, c, 0.0, 1.0, seed.wrapping_add(1));
            for (i, v) in t.data_mut().iter_mut().enumerate() {
                if i % 3 == 0 {
                    *v = edges[i % edges.len()];
                }
            }
            t
        },
    )
}

fn non_scalar_backends() -> Vec<Backend> {
    backend::supported().into_iter().filter(|b| *b != Backend::Scalar).collect()
}

// ---------------------------------------------------------------------------
// Property-based cross-backend parity
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `A·B` and `Aᵀ·B` cells are dot products accumulated in ascending `p`;
    /// SIMD backends fuse each step, so they stay inside the dot bound of
    /// the scalar result — including on edge-case inputs (denormals, signed
    /// zeros, exp-range magnitudes).
    #[test]
    fn matmul_kernels_are_bit_exact(a in arb_edge_tensor(1..9, 1..40), seed in 0u64..1000) {
        let b = init::normal(a.cols(), 5, 0.0, 1.0, seed.wrapping_add(7));
        let bt = init::normal(a.rows(), 6, 0.0, 1.0, seed.wrapping_add(11));
        let mut want = Tensor::zeros(a.rows(), b.cols());
        ops::matmul_into_with(Backend::Scalar, &a, &b, &mut want);
        let mut want_at = Tensor::zeros(a.cols(), bt.cols());
        ops::matmul_at_into_with(Backend::Scalar, &a, &bt, &mut want_at);
        let col = |t: &Tensor, j: usize| (0..t.rows()).map(|p| t.get(p, j)).collect::<Vec<f32>>();
        for be in non_scalar_backends() {
            let mut got = Tensor::zeros(a.rows(), b.cols());
            ops::matmul_into_with(be, &a, &b, &mut got);
            assert_fused_close("matmul_into", be, want.data(), got.data(), b.cols(), |i| a.row(i).to_vec(), |j| col(&b, j))?;
            let mut got_at = Tensor::zeros(a.cols(), bt.cols());
            ops::matmul_at_into_with(be, &a, &bt, &mut got_at);
            assert_fused_close("matmul_at_into", be, want_at.data(), got_at.data(), bt.cols(), |i| col(&a, i), |j| col(&bt, j))?;
        }
    }

    /// Elementwise add/sub/mul/scale are bit-exact across backends even on
    /// NaN/Inf/denormal/negative-zero inputs.
    #[test]
    fn elementwise_kernels_are_bit_exact(
        av in collection::vec(arb_special_f32(), 1..70),
        bv in collection::vec(arb_special_f32(), 1..70),
        s in arb_special_f32(),
    ) {
        let n = av.len().min(bv.len());
        let a = tensor_of(2, n, &av);
        let b = tensor_of(2, n, &bv);
        for (name, f) in [
            ("add_into", ops::add_into_with as fn(Backend, &Tensor, &Tensor, &mut Tensor)),
            ("sub_into", ops::sub_into_with),
            ("mul_into", ops::mul_into_with),
        ] {
            let mut want = Tensor::zeros(2, n);
            f(Backend::Scalar, &a, &b, &mut want);
            for be in non_scalar_backends() {
                let mut got = Tensor::zeros(2, n);
                f(be, &a, &b, &mut got);
                assert_bits_eq(name, be, want.data(), got.data())?;
            }
        }
        let mut want = Tensor::zeros(2, n);
        ops::scale_into_with(Backend::Scalar, &a, s, &mut want);
        for be in non_scalar_backends() {
            let mut got = Tensor::zeros(2, n);
            ops::scale_into_with(be, &a, s, &mut got);
            assert_bits_eq("scale_into", be, want.data(), got.data())?;
        }
    }

    /// `matmul_bt_into` cells are dot products: ULP-bounded by the
    /// reassociation + FMA envelope `2k·ε·Σ|aᵢbᵢ|` per cell.
    #[test]
    fn matmul_bt_is_within_dot_bound(a in arb_tensor(1..8, 1..70), seed in 0u64..1000) {
        let b = init::normal(5, a.cols(), 0.0, 1.0, seed.wrapping_add(3));
        let mut want = Tensor::zeros(a.rows(), b.rows());
        ops::matmul_bt_into_with(Backend::Scalar, &a, &b, &mut want);
        for be in non_scalar_backends() {
            let mut got = Tensor::zeros(a.rows(), b.rows());
            ops::matmul_bt_into_with(be, &a, &b, &mut got);
            for r in 0..a.rows() {
                for c in 0..b.rows() {
                    let bound = dot_bound(a.row(r), b.row(c));
                    let (w, g) = (want.get(r, c), got.get(r, c));
                    prop_assert!(
                        (w - g).abs() <= bound,
                        "matmul_bt [{}] ({r},{c}): {w:e} vs {g:e} (bound {bound:e})",
                        be.name()
                    );
                }
            }
        }
    }

    /// Softmax rows agree within relative 1e-5 on finite rows and are
    /// bit-identical on poisoned rows (NaN → all-NaN, ±Inf handled).
    #[test]
    fn row_softmax_parity(x in arb_tensor(1..8, 1..40), specials in collection::vec(arb_special_f32(), 1..12)) {
        let mut poisoned = x.clone();
        for (i, v) in poisoned.data_mut().iter_mut().enumerate() {
            if i % 5 == 0 {
                *v = specials[i % specials.len()];
            }
        }
        for input in [&x, &poisoned] {
            let mut want = Tensor::zeros(input.rows(), input.cols());
            ops::row_softmax_into_with(Backend::Scalar, input, &mut want);
            for be in non_scalar_backends() {
                let mut got = Tensor::zeros(input.rows(), input.cols());
                ops::row_softmax_into_with(be, input, &mut got);
                assert_close("row_softmax", be, want.data(), got.data(), 1e-5, 1e-7)?;
            }
        }
    }

    /// GELU forward/backward within rel 1e-5 / abs 1e-6 (vector tanh); NaN
    /// and ±Inf classifications match the scalar reference exactly.
    #[test]
    fn gelu_parity(x in arb_edge_tensor(1..8, 1..40), seed in 0u64..1000) {
        let dy = init::normal(x.rows(), x.cols(), 0.0, 1.0, seed.wrapping_add(29));
        let mut want = Tensor::zeros(x.rows(), x.cols());
        ops::gelu_into_with(Backend::Scalar, &x, &mut want);
        let mut want_g = Tensor::zeros(x.rows(), x.cols());
        ops::gelu_backward_into_with(Backend::Scalar, &x, &dy, &mut want_g);
        for be in non_scalar_backends() {
            let mut got = Tensor::zeros(x.rows(), x.cols());
            ops::gelu_into_with(be, &x, &mut got);
            assert_close("gelu", be, want.data(), got.data(), 1e-5, 1e-6)?;
            let mut got_g = Tensor::zeros(x.rows(), x.cols());
            ops::gelu_backward_into_with(be, &x, &dy, &mut got_g);
            assert_close("gelu_backward", be, want_g.data(), got_g.data(), 1e-5, 2e-5)?;
        }
    }

    /// LayerNorm forward + backward within rel/abs 1e-4 (sum, dot and dot3
    /// reductions reassociate on SIMD backends).
    #[test]
    fn layer_norm_parity(x in arb_tensor(1..8, 2..40), seed in 0u64..1000) {
        let cols = x.cols();
        let gamma = init::normal(1, cols, 1.0, 0.2, seed.wrapping_add(31));
        let beta = init::normal(1, cols, 0.0, 0.2, seed.wrapping_add(37));
        let dy = init::normal(x.rows(), cols, 0.0, 1.0, seed.wrapping_add(41));
        let run = |be: Backend| {
            let mut out = Tensor::zeros(x.rows(), cols);
            let mut xhat = Tensor::zeros(x.rows(), cols);
            let mut inv_std = Vec::new();
            ops::layer_norm_stats_into_with(be, &x, &gamma, &beta, 1e-5, &mut out, &mut xhat, &mut inv_std);
            let mut plain = Tensor::zeros(x.rows(), cols);
            ops::layer_norm_into_with(be, &x, &gamma, &beta, 1e-5, &mut plain);
            let mut dx = Tensor::zeros(x.rows(), cols);
            let mut dgamma = Tensor::zeros(1, cols);
            let mut dbeta = Tensor::zeros(1, cols);
            ops::layer_norm_backward_into_with(be, &xhat, &inv_std, &gamma, &dy, &mut dx, &mut dgamma, &mut dbeta);
            (out, plain, dx, dgamma, dbeta)
        };
        let (w_out, w_plain, w_dx, w_dg, w_db) = run(Backend::Scalar);
        // The stats-recording forward and the plain one share every rounding.
        prop_assert_eq!(w_out.data(), w_plain.data());
        for be in non_scalar_backends() {
            let (g_out, g_plain, g_dx, g_dg, g_db) = run(be);
            prop_assert_eq!(g_out.data(), g_plain.data());
            assert_close("layer_norm", be, w_out.data(), g_out.data(), 1e-4, 1e-4)?;
            assert_close("layer_norm dx", be, w_dx.data(), g_dx.data(), 1e-4, 1e-4)?;
            assert_close("layer_norm dgamma", be, w_dg.data(), g_dg.data(), 1e-4, 1e-4)?;
            assert_close("layer_norm dbeta", be, w_db.data(), g_db.data(), 1e-4, 1e-4)?;
        }
    }

    /// Kernels fed non-contiguous `view_cols` column blocks see exactly the
    /// strided rows: both matmul forms stay dot-bounded.
    #[test]
    fn strided_views_keep_parity(t in arb_edge_tensor(1..8, 4..24), seed in 0u64..1000) {
        let cols = t.cols();
        let width = 2 + (seed as usize % (cols / 2));
        let start = (seed as usize / 7) % (cols - width);
        let view = t.view_cols(start, start + width);
        let b = init::normal(width, 3, 0.0, 1.0, seed.wrapping_add(43));
        let bt = init::normal(4, width, 0.0, 1.0, seed.wrapping_add(47));
        let mut want = Tensor::zeros(t.rows(), 3);
        ops::matmul_into_with(Backend::Scalar, &view, &b, &mut want);
        let mut want_bt = Tensor::zeros(t.rows(), 4);
        ops::matmul_bt_into_with(Backend::Scalar, &view, &bt, &mut want_bt);
        let mut want_sm = Tensor::zeros(t.rows(), width);
        ops::row_softmax_into_with(Backend::Scalar, &view, &mut want_sm);
        for be in non_scalar_backends() {
            let mut got = Tensor::zeros(t.rows(), 3);
            ops::matmul_into_with(be, &view, &b, &mut got);
            assert_fused_close(
                "matmul_into(view)", be, want.data(), got.data(), 3,
                |i| view.row(i).to_vec(),
                |j| (0..width).map(|p| b.get(p, j)).collect(),
            )?;
            let mut got_bt = Tensor::zeros(t.rows(), 4);
            ops::matmul_bt_into_with(be, &view, &bt, &mut got_bt);
            for r in 0..t.rows() {
                for c in 0..4 {
                    let bound = dot_bound(view.row(r), bt.row(c));
                    let (w, g) = (want_bt.get(r, c), got_bt.get(r, c));
                    prop_assert!(
                        (w - g).abs() <= bound || (w.is_nan() && g.is_nan()),
                        "matmul_bt(view) [{}] ({r},{c}): {w:e} vs {g:e} (bound {bound:e})",
                        be.name()
                    );
                }
            }
            let mut got_sm = Tensor::zeros(t.rows(), width);
            ops::row_softmax_into_with(be, &view, &mut got_sm);
            assert_close("row_softmax(view)", be, want_sm.data(), got_sm.data(), 1e-5, 1e-7)?;
        }
    }
}

// ---------------------------------------------------------------------------
// Level-3 micro-kernel: ragged shapes, strides, dirty outputs, specials
// ---------------------------------------------------------------------------

/// The reference the scalar `gemm_tile` must match bit for bit and the SIMD
/// ones within the dot bound: `c = ((0 + a₀b₀) + a₁b₁) + …`, one rounded
/// multiply and one rounded add per term.
fn naive_gemm(m: usize, n: usize, k: usize, a: impl Fn(usize, usize) -> f32, b: impl Fn(usize, usize) -> f32) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a(i, p) * b(p, j);
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// `got` is a fused evaluation of the dot products `want` holds: same IEEE
/// class where the class is not a finite number, inside the dot bound
/// otherwise.
fn assert_fused_close(
    kernel: &str,
    be: Backend,
    want: &[f32],
    got: &[f32],
    n: usize,
    a_row: impl Fn(usize) -> Vec<f32>,
    b_col: impl Fn(usize) -> Vec<f32>,
) -> Result<(), TestCaseError> {
    for (idx, (&w, &g)) in want.iter().zip(got).enumerate() {
        let (i, j) = (idx / n, idx % n);
        if w.is_nan() || w.is_infinite() {
            prop_assert!(
                (w.is_nan() && g.is_nan()) || w == g,
                "{kernel} [{}] ({i},{j}): class mismatch {w} vs {g}",
                be.name()
            );
            continue;
        }
        let bound = dot_bound(&a_row(i), &b_col(j));
        prop_assert!(
            (w - g).abs() <= bound,
            "{kernel} [{}] ({i},{j}): {w:e} vs {g:e} (bound {bound:e})",
            be.name()
        );
    }
    Ok(())
}

/// A `gemm` result against the naive reference: bit for bit on the scalar
/// backend, [`assert_fused_close`] on the SIMD ones.
fn assert_gemm_close(
    kernel: &str,
    be: Backend,
    want: &[f32],
    got: &[f32],
    n: usize,
    a_row: impl Fn(usize) -> Vec<f32>,
    b_col: impl Fn(usize) -> Vec<f32>,
) -> Result<(), TestCaseError> {
    if be == Backend::Scalar {
        assert_bits_eq(kernel, be, want, got)
    } else {
        assert_fused_close(kernel, be, want, got, n, a_row, b_col)
    }
}

/// Poison roughly one entry in nine with NaN, ±Inf or −0.
fn sprinkle_specials(t: &mut Tensor, specials: &[f32]) {
    for (i, v) in t.data_mut().iter_mut().enumerate() {
        if i % 9 == 4 {
            *v = specials[i % specials.len()];
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// All three matmul forms, on every backend (scalar included), over
    /// ragged `m, n, k` — so every `mr < MR` tile, every tail mask and
    /// `k < 16` occur — with strided `view_cols` operands, NaN-filled output
    /// buffers and NaN/±Inf/−0 inputs: scalar matches the naive triple loop
    /// bit for bit, SIMD stays inside the dot bound with the same IEEE
    /// classes (so `0·NaN` and `0·Inf` still poison exactly the elements
    /// they should, and masked lanes neither leak nor swallow one).
    #[test]
    fn gemm_micro_kernel_matches_naive_on_ragged_shapes(
        m in 1usize..70,
        n in 1usize..70,
        k in 1usize..70,
        seed in 0u64..100_000,
        specials in collection::vec(arb_special_f32(), 3..9),
        poison in 0usize..3,
    ) {
        // Operands live inside wider tensors and are read through views.
        let (pad_l, pad_r) = (seed as usize % 3, (seed as usize / 3) % 4);
        let mut a_wide = init::normal(m, pad_l + k + pad_r, 0.0, 1.0, seed.wrapping_add(1));
        let mut b_wide = init::normal(k, pad_r + n + pad_l, 0.0, 1.0, seed.wrapping_add(2));
        let mut bt_wide = init::normal(n, pad_l + k + pad_r, 0.0, 1.0, seed.wrapping_add(3));
        let mut at_wide = init::normal(k, pad_r + m + pad_l, 0.0, 1.0, seed.wrapping_add(4));
        if poison > 0 {
            sprinkle_specials(&mut a_wide, &specials);
            sprinkle_specials(&mut at_wide, &specials);
        }
        if poison > 1 {
            sprinkle_specials(&mut b_wide, &specials);
            sprinkle_specials(&mut bt_wide, &specials);
        }
        let a = a_wide.view_cols(pad_l, pad_l + k);
        let b = b_wide.view_cols(pad_r, pad_r + n);
        let bt = bt_wide.view_cols(pad_l, pad_l + k);
        let at = at_wide.view_cols(pad_r, pad_r + m);

        let want_nn = naive_gemm(m, n, k, |i, p| a.row(i)[p], |p, j| b.row(p)[j]);
        let want_at = naive_gemm(m, n, k, |i, p| at.row(p)[i], |p, j| b.row(p)[j]);
        let want_bt = naive_gemm(m, n, k, |i, p| a.row(i)[p], |p, j| bt.row(j)[p]);
        for be in backend::supported() {
            let mut got = Tensor::full(m, n, f32::NAN);
            let b_col = |j: usize| (0..k).map(|p| b.row(p)[j]).collect::<Vec<f32>>();
            ops::matmul_into_with(be, &a, &b, &mut got);
            assert_gemm_close("gemm nn", be, &want_nn, got.data(), n, |i| a.row(i).to_vec(), b_col)?;
            let mut got = Tensor::full(m, n, f32::NAN);
            ops::matmul_at_into_with(be, &at, &b, &mut got);
            assert_gemm_close("gemm at", be, &want_at, got.data(), n, |i| (0..k).map(|p| at.row(p)[i]).collect(), b_col)?;
            let mut got = Tensor::full(m, n, f32::NAN);
            ops::matmul_bt_into_with(be, &a, &bt, &mut got);
            assert_gemm_close("gemm bt", be, &want_bt, got.data(), n, |i| a.row(i).to_vec(), |j| bt.row(j).to_vec())?;
        }
    }

    /// `Backend::gemm` itself with `accumulate` and a `C` whose rows are
    /// wider than `n`: the sum starts from `C`'s old contents and the
    /// columns past `n` — where a tile's masked lanes sit — keep every bit.
    #[test]
    fn gemm_accumulates_into_c_and_leaves_row_padding_alone(
        m in 1usize..40,
        n in 1usize..70,
        k in 1usize..40,
        pad in 1usize..20,
        seed in 0u64..100_000,
    ) {
        use torchgt::tensor::backend::{Gemm, Strided};
        let a = init::normal(m, k, 0.0, 1.0, seed.wrapping_add(5));
        let b = init::normal(k, n, 0.0, 1.0, seed.wrapping_add(6));
        let c0 = init::normal(m, n + pad, 0.0, 1.0, seed.wrapping_add(7));
        let ldc = n + pad;
        let mut want = c0.data().to_vec();
        for i in 0..m {
            for j in 0..n {
                let mut acc = want[i * ldc + j];
                for p in 0..k {
                    acc += a.get(i, p) * b.get(p, j);
                }
                want[i * ldc + j] = acc;
            }
        }
        // The old `C` entry is one more term of each dot product.
        let a_row = |i: usize| [a.row(i), &[1.0][..]].concat();
        let b_col = |j: usize| (0..k).map(|p| b.get(p, j)).collect::<Vec<f32>>();
        for be in backend::supported() {
            for transposed_a in [false, true] {
                // The same product with `A` stored as its transpose.
                let at = ops::transpose(&a);
                let a_op = if transposed_a {
                    Strided::transposed(at.data(), m)
                } else {
                    Strided::row_major(a.data(), k)
                };
                let mut c = c0.data().to_vec();
                be.gemm(
                    &Gemm { m, n, k, a: a_op, b: Strided::row_major(b.data(), n), ldc, accumulate: true },
                    &mut c,
                );
                for i in 0..m {
                    let (want_row, got_row) = (&want[i * ldc..(i + 1) * ldc], &c[i * ldc..(i + 1) * ldc]);
                    assert_gemm_close(
                        "gemm accumulate", be, &want_row[..n], &got_row[..n], n,
                        |_| a_row(i),
                        |j| [&b_col(j)[..], &[c0.get(i, j)][..]].concat(),
                    )?;
                    assert_bits_eq("gemm row padding", be, &want_row[n..], &got_row[n..])?;
                }
            }
        }
    }
}

/// Every tail-mask width of every backend, exhaustively: `n` sweeps
/// `1..=70` against row counts on both sides of each `MR` and depths on
/// both sides of a vector. A lane that leaked or was dropped would miss the
/// dot bound by a whole term.
#[test]
fn gemm_edge_masks_are_exhaustively_bit_exact() {
    for n in 1..=70usize {
        for m in [1usize, 5, 6, 7, 8, 9, 13] {
            for k in [1usize, 7, 16, 33] {
                let a = init::normal(m, k, 0.0, 1.0, (n * 131 + m * 17 + k) as u64);
                let b = init::normal(k, n, 0.0, 1.0, (n * 137 + m * 19 + k) as u64);
                let want = naive_gemm(m, n, k, |i, p| a.get(i, p), |p, j| b.get(p, j));
                for be in backend::supported() {
                    let mut got = Tensor::full(m, n, f32::NAN);
                    ops::matmul_into_with(be, &a, &b, &mut got);
                    assert_gemm_close(
                        "gemm edge sweep", be, &want, got.data(), n,
                        |i| a.row(i).to_vec(),
                        |j| (0..k).map(|p| b.get(p, j)).collect(),
                    )
                    .unwrap_or_else(|e| panic!("m={m} n={n} k={k}: {e:?}"));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Flash attention across backends
// ---------------------------------------------------------------------------

/// The flash forward and backward tile passes agree across backends on a
/// multi-tile, ragged-last-tile problem (fused tile GEMMs and the vector
/// `exp` are the only sources of difference).
#[test]
fn flash_attention_agrees_across_backends() {
    use torchgt::model::attention::{flash_backward_ws_with, flash_ws_with};
    let (s, d, heads) = (161, 24, 3);
    let q = init::normal(s, d, 0.0, 1.0, 61);
    let k = init::normal(s, d, 0.0, 1.0, 62);
    let v = init::normal(s, d, 0.0, 1.0, 63);
    let dout = init::normal(s, d, 0.0, 1.0, 64);
    let mut ws = Workspace::new();
    let run = |be: Backend, ws: &mut Workspace| {
        let fwd = flash_ws_with(be, &q, &k, &v, heads, ws);
        let g = flash_backward_ws_with(be, &q, &k, &v, heads, fwd.cache, &fwd.out, &dout, ws);
        (fwd.out, g.dq, g.dk, g.dv)
    };
    let want = run(Backend::Scalar, &mut ws);
    for be in non_scalar_backends() {
        let got = run(be, &mut ws);
        let check = |name: &str, w: &Tensor, g: &Tensor, abs: f32| {
            assert_close(name, be, w.data(), g.data(), 1e-4, abs).unwrap_or_else(|e| panic!("{e:?}"));
        };
        check("flash out", &want.0, &got.0, 1e-4);
        check("flash dq", &want.1, &got.1, 1e-3);
        check("flash dk", &want.2, &got.2, 1e-3);
        check("flash dv", &want.3, &got.3, 1e-3);
    }
}

// ---------------------------------------------------------------------------
// Sparse row tier: `sparse_rows_fwd` / `sparse_rows_bwd` on every backend
// ---------------------------------------------------------------------------

/// One query row of cluster-sparse attention over `KEYS` keys, run as a
/// one-row block, with the `[head][edge]` buffers a caller hands the
/// kernels: the row's edges start at `E0` and both ends of every buffer are
/// padding the kernels must not touch. (Blocks of many rows are checked
/// bit for bit against the row-wise kernels in `torchgt-tensor`'s
/// `backend::lanes::oracle`.)
struct SparseRowCase {
    heads: usize,
    d_head: usize,
    cols: Vec<u32>,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    dout: Tensor,
    bias: Option<Vec<Vec<f32>>>,
}

const KEYS: usize = 128;
const E0: usize = 5;
const PAD: usize = 3;

/// What one backend computed for a [`SparseRowCase`].
struct SparseRowResult {
    probs: Vec<Vec<f32>>,
    out: Vec<f32>,
    ds: Vec<Vec<f32>>,
    dq: Vec<f32>,
    dk: Vec<f32>,
    dv: Vec<f32>,
}

impl SparseRowCase {
    fn new(deg: usize, d_head: usize, heads: usize, with_bias: bool, seed: u64) -> Self {
        let d = heads * d_head;
        // `deg` distinct keys, ascending like a CSR row (37 is coprime to 128).
        let mut cols: Vec<u32> = (0..deg).map(|e| ((e * 37 + seed as usize) % KEYS) as u32).collect();
        cols.sort_unstable();
        let bias = with_bias.then(|| {
            (0..heads)
                .map(|h| init::normal(1, E0 + deg + PAD, 0.0, 1.0, seed + 90 + h as u64).into_vec())
                .collect()
        });
        Self {
            heads,
            d_head,
            cols,
            q: init::normal(1, d, 0.0, 1.0, seed + 1),
            k: init::normal(KEYS, d, 0.0, 1.0, seed + 2),
            v: init::normal(KEYS, d, 0.0, 1.0, seed + 3),
            dout: init::normal(1, d, 0.0, 1.0, seed + 4),
            bias,
        }
    }

    /// Forward, then backward from `probs` (this backend's own when `None`).
    /// Output buffers start out NaN; `dk` / `dv`, which accumulate, start
    /// from a fixed pattern.
    fn run(&self, be: Backend, probs: Option<&[Vec<f32>]>) -> SparseRowResult {
        use torchgt::tensor::backend::{MaskRows, SparseAttn};
        let (d, len) = (self.heads * self.d_head, E0 + self.cols.len() + PAD);
        let attn = SparseAttn::new(self.heads, self.d_head, self.k.data(), self.v.data());
        let row = MaskRows { ptr: &[E0, E0 + self.cols.len()], cols: &self.cols };
        let mut fwd_probs = vec![vec![f32::NAN; len]; self.heads];
        let mut out = vec![f32::NAN; d];
        let bias: Option<Vec<&[f32]>> = self.bias.as_ref().map(|b| b.iter().map(|h| &h[E0..]).collect());
        be.sparse_rows_fwd(
            &attn,
            self.q.data(),
            row,
            bias.as_deref(),
            &mut fwd_probs.iter_mut().map(|p| &mut p[E0..]).collect::<Vec<_>>(),
            &mut out,
        );
        let mut ds = vec![vec![f32::NAN; len]; self.heads];
        let mut dq = vec![f32::NAN; d];
        let mut dk: Vec<f32> = (0..KEYS * d).map(|i| (i % 7) as f32 * 0.25 - 0.5).collect();
        let mut dv = dk.clone();
        be.sparse_rows_bwd(
            &attn,
            self.q.data(),
            self.dout.data(),
            row,
            &probs.unwrap_or(&fwd_probs).iter().map(|p| &p[E0..]).collect::<Vec<_>>(),
            &mut ds.iter_mut().map(|p| &mut p[E0..]).collect::<Vec<_>>(),
            &mut dq,
            &mut dk,
            &mut dv,
        );
        SparseRowResult { probs: fwd_probs, out, ds, dq, dk, dv }
    }

    /// Every backend against scalar, the backward fed the scalar forward's
    /// probabilities so both sides differentiate the same function.
    fn check(&self, what: &str) {
        let want = self.run(Backend::Scalar, None);
        for be in non_scalar_backends() {
            let got = self.run(be, Some(&want.probs));
            let name = |part: &str| {
                format!("sparse row {part} ({what}: deg {} d_head {} heads {})", self.cols.len(), self.d_head, self.heads)
            };
            let close = |part: &str, w: &[f32], g: &[f32]| {
                assert_close(&name(part), be, w, g, 1e-4, 1e-5).unwrap_or_else(|e| panic!("{e:?}"));
            };
            for h in 0..self.heads {
                // Padding on both sides of the row's edges keeps its NaNs.
                close("probs", &want.probs[h], &got.probs[h]);
                close("ds", &want.ds[h], &got.ds[h]);
            }
            close("out", &want.out, &got.out);
            close("dq", &want.dq, &got.dq);
            close("dk", &want.dk, &got.dk);
            close("dv", &want.dv, &got.dv);
        }
    }
}

/// Both block kernels on every backend against scalar: degrees on both sides
/// of each vector width (and none), head widths on both sides of it, one to
/// eight heads, bias on and off.
#[test]
fn sparse_row_kernels_agree_across_backends() {
    for deg in [0usize, 1, 15, 16, 17, 33, 100] {
        for d_head in [2usize, 3, 4, 8, 16, 24, 32] {
            for heads in [1usize, 2, 4, 8] {
                for with_bias in [false, true] {
                    let seed = (deg * 1000 + d_head * 10 + heads) as u64;
                    SparseRowCase::new(deg, d_head, heads, with_bias, seed).check("plain");
                }
            }
        }
    }
}

/// `−∞` bias entries drop their edge (probability exactly zero); a row whose
/// every entry is `−∞` is NaN on every backend alike.
#[test]
fn sparse_row_kernels_handle_infinite_bias() {
    for (deg, d_head, heads) in [(17usize, 16usize, 4usize), (33, 3, 2), (5, 24, 1)] {
        let mut case = SparseRowCase::new(deg, d_head, heads, true, 77);
        for per_head in case.bias.as_mut().unwrap() {
            for (e, b) in per_head.iter_mut().enumerate() {
                if e % 3 == 0 {
                    *b = f32::NEG_INFINITY;
                }
            }
        }
        let scalar = case.run(Backend::Scalar, None);
        assert!(scalar.probs[0][E0 + 1] == 0.0 && scalar.out.iter().all(|x| x.is_finite()));
        case.check("-inf bias on every third edge");
        for per_head in case.bias.as_mut().unwrap() {
            per_head.fill(f32::NEG_INFINITY);
        }
        assert!(case.run(Backend::Scalar, None).out.iter().all(|x| x.is_nan()));
        case.check("all -inf bias");
    }
}

/// A NaN in any operand poisons the same probabilities, outputs and
/// gradients on every backend: NaN scores are ignored by the row maximum
/// and stay NaN, and masked-off lanes neither leak nor swallow one.
#[test]
fn sparse_row_kernels_propagate_nan_alike() {
    for (deg, d_head, heads) in [(13usize, 16usize, 4usize), (17, 3, 2), (40, 24, 2)] {
        let d = heads * d_head;
        type Operand = fn(&mut SparseRowCase) -> &mut Tensor;
        let poisons: [(&str, Operand); 4] = [
            ("NaN in q", |c| &mut c.q),
            ("NaN in k", |c| &mut c.k),
            ("NaN in v", |c| &mut c.v),
            ("NaN in do", |c| &mut c.dout),
        ];
        for (what, operand) in poisons {
            let mut case = SparseRowCase::new(deg, d_head, heads, false, 55);
            // The last column of head 0, in the row of the row's second key.
            let at = case.cols[1] as usize % operand(&mut case).rows() * d + d_head - 1;
            operand(&mut case).data_mut()[at] = f32::NAN;
            let scalar = case.run(Backend::Scalar, None);
            let poisoned = [&scalar.out, &scalar.dq, &scalar.dk, &scalar.dv].iter().any(|t| t.iter().any(|x| x.is_nan()));
            assert!(poisoned, "{what} must reach an output");
            assert!(scalar.out[d - 1].is_finite(), "{what} must not leave head 0");
            case.check(what);
        }
    }
}

/// A head's result depends on its own `d_head` columns only: four heads on
/// `d = 64` equal, bit for bit, two two-head calls on the column halves —
/// forward and backward, on every backend. This is what keeps
/// `parallel_sparse_attention` (heads split across ranks) identical to the
/// single-device kernel.
#[test]
fn sparse_attention_is_independent_of_head_grouping() {
    use torchgt::graph::generators::barabasi_albert;
    use torchgt::model::attention::{sparse_backward_ws_with, sparse_ws_with, BiasGrad};
    let (s, d, heads) = (96, 64, 4);
    let mask = barabasi_albert(s, 6, 9).with_self_loops();
    let q = init::normal(s, d, 0.0, 1.0, 71);
    let k = init::normal(s, d, 0.0, 1.0, 72);
    let v = init::normal(s, d, 0.0, 1.0, 73);
    let dout = init::normal(s, d, 0.0, 1.0, 74);
    let bias: Vec<Vec<f32>> =
        (0..heads).map(|h| init::normal(1, mask.num_arcs(), 0.0, 1.0, 75 + h as u64).into_vec()).collect();
    let mut ws = Workspace::new();
    for be in backend::supported() {
        let mut run = |q: &Tensor, k: &Tensor, v: &Tensor, dout: &Tensor, heads: usize, bias: &[Vec<f32>]| {
            let fwd = sparse_ws_with(be, q, k, v, heads, &mask, Some(bias), &mut ws);
            let g = sparse_backward_ws_with(be, q, k, v, heads, &mask, fwd.cache, dout, true, &mut ws);
            let Some(BiasGrad::Sparse(dbias)) = g.dbias else { panic!("expected a sparse bias gradient") };
            (fwd.out, g.dq, g.dk, g.dv, dbias)
        };
        let whole = run(&q, &k, &v, &dout, heads, &bias);
        for half in 0..2 {
            let cols = |t: &Tensor| t.slice_cols(half * d / 2, (half + 1) * d / 2);
            let part = run(&cols(&q), &cols(&k), &cols(&v), &cols(&dout), heads / 2, &bias[half * 2..half * 2 + 2]);
            for (name, w, p) in [("out", &whole.0, &part.0), ("dq", &whole.1, &part.1), ("dk", &whole.2, &part.2), ("dv", &whole.3, &part.3)] {
                assert_bits_eq(name, be, cols(w).data(), p.data()).unwrap_or_else(|e| panic!("half {half}: {e:?}"));
            }
            for h in 0..2 {
                assert_bits_eq("dbias", be, &whole.4[half * 2 + h], &part.4[h]).unwrap_or_else(|e| panic!("half {half}: {e:?}"));
            }
        }
    }
}

/// A mask large enough for `attention::sparse_ws` to split its rows across
/// workers (`2 · edges · d ≥ 4 Mi` multiply-adds) gives, bit for bit, what
/// one serial walk of the same kernel over the rows, one row per call,
/// gives.
#[test]
fn split_sparse_forward_equals_serial_row_walk() {
    use torchgt::graph::generators::barabasi_albert;
    use torchgt::model::attention::sparse_ws;
    use torchgt::tensor::backend::{MaskRows, SparseAttn};
    let (s, d, heads) = (2048, 64, 4);
    let mask = barabasi_albert(s, 8, 3).with_self_loops();
    assert!(2 * mask.num_arcs() * d >= 4 << 20, "mask too small to cross the split threshold");
    let q = init::normal(s, d, 0.0, 1.0, 81);
    let k = init::normal(s, d, 0.0, 1.0, 82);
    let v = init::normal(s, d, 0.0, 1.0, 83);
    let split = sparse_ws(&q, &k, &v, heads, &mask, None, &mut Workspace::new()).out;
    let attn = SparseAttn::new(heads, d / heads, k.data(), v.data());
    let mut probs = vec![0.0f32; heads * s];
    let mut serial = vec![0.0f32; s * d];
    for (i, out_row) in serial.chunks_mut(d).enumerate() {
        let mut per_head: Vec<&mut [f32]> = probs.chunks_mut(s).collect();
        let row = MaskRows { ptr: &[0, mask.neighbors(i).len()], cols: mask.neighbors(i) };
        backend::active().sparse_rows_fwd(&attn, q.row(i), row, None, &mut per_head, out_row);
    }
    assert_eq!(split.data(), &serial[..]);
}

/// `v` as a row tile of one row.
fn one(v: &[f32]) -> torchgt::tensor::backend::Rows<'_> {
    torchgt::tensor::backend::Rows { data: v, rows: 1, cols: v.len(), ld: v.len() }
}

// ---------------------------------------------------------------------------
// Level-1 primitives called directly (every `pub unsafe fn` of the SIMD
// backends is reached by name from this file)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every slice primitive called directly on ragged lengths (vector body
    /// plus scalar tail) against the scalar backend, each in its parity
    /// class — including the ones `ops` only reaches indirectly and `axpy`,
    /// which the matmuls no longer exercise — and the element-wise row tile
    /// entry points on one-row tiles of the same lengths.
    #[test]
    fn level1_primitives_keep_their_parity_class(
        av in collection::vec(arb_edge_f32(), 1..70),
        bv in collection::vec(-4.0f32..4.0, 70..71),
        cv in collection::vec(-4.0f32..4.0, 70..71),
        s in -3.0f32..3.0,
    ) {
        let n = av.len();
        let (a, b, c) = (&av[..], &bv[..n], &cv[..n]);
        // Small integers: every row sum of them is exact in every order.
        let small = |v: &[f32]| v.iter().map(|x| x.round()).collect::<Vec<f32>>();
        let (ia, ib, ic) = (small(b), small(c), small(&c.iter().rev().copied().collect::<Vec<_>>()));
        let sc = Backend::Scalar;
        for be in non_scalar_backends() {
            // Reductions: ULP-bounded.
            prop_assert!((sc.dot(a, b) - be.dot(a, b)).abs() <= dot_bound(a, b), "dot [{}]", be.name());
            prop_assert_eq!(sc.max_ignore_nan(a).to_bits(), be.max_ignore_nan(a).to_bits());

            // In-place element-wise kernels: bit-exact.
            let run = |f: &dyn Fn(Backend, &mut [f32])| {
                let (mut w, mut g) = (b.to_vec(), b.to_vec());
                f(sc, &mut w);
                f(be, &mut g);
                (w, g)
            };
            let (w, g) = run(&|x, d| x.add(a, c, d));
            assert_bits_eq("add", be, &w, &g)?;
            let (w, g) = run(&|x, d| x.sub(a, c, d));
            assert_bits_eq("sub", be, &w, &g)?;
            let (w, g) = run(&|x, d| x.mul(a, c, d));
            assert_bits_eq("mul", be, &w, &g)?;
            let (w, g) = run(&|x, d| x.scale(a, s, d));
            assert_bits_eq("scale", be, &w, &g)?;
            let (w, g) = run(&|x, d| x.axpy(d, s, a));
            assert_bits_eq("axpy", be, &w, &g)?;
            let (w, g) = run(&|x, d| x.add_assign(d, a));
            assert_bits_eq("add_assign", be, &w, &g)?;
            let (w, g) = run(&|x, d| x.mul_assign(d, a));
            assert_bits_eq("mul_assign", be, &w, &g)?;
            let (w, g) = run(&|x, d| x.scale_assign(d, s));
            assert_bits_eq("scale_assign", be, &w, &g)?;
            let (w, g) = run(&|x, d| x.div_assign(d, s + 3.5));
            assert_bits_eq("div_assign", be, &w, &g)?;

            // Row tiles of one row: the element-wise ones bit-exact.
            let (w, g) = run(&|x, d| x.add_bias_rows(d, a));
            assert_bits_eq("add_bias_rows", be, &w, &g)?;
            let (w, g) = run(&|x, d| x.col_sum_rows(one(a), d));
            assert_bits_eq("col_sum_rows", be, &w, &g)?;
            let (w, g) = run(&|x, d| x.layer_norm_affine_rows(one(a), c, b, d));
            assert_bits_eq("layer_norm_affine_rows", be, &w, &g)?;
            // LayerNorm backward (`mul_acc`, `ln_grad_combine`): bit-exact
            // once its two row sums are, as they are over small integers.
            let grads = |x: Backend| {
                let (mut dx, mut dgamma, mut dbeta) = (vec![f32::NAN; n], b.to_vec(), c.to_vec());
                x.layer_norm_grad_rows(one(&ia), &[1.5], &ib, one(&ic), &mut dx, &mut dgamma, &mut dbeta);
                [dx, dgamma, dbeta]
            };
            for (part, (w, g)) in ["dx", "dgamma", "dbeta"].iter().zip(grads(sc).iter().zip(&grads(be))) {
                assert_bits_eq(&format!("layer_norm_grad_rows {part}"), be, w, g)?;
            }

            // Transcendentals: ULP-bounded.
            let (w, g) = run(&|x, d| { x.exp_minus_max_sum(d, 4.0); });
            assert_close("exp_minus_max_sum", be, &w, &g, 1e-5, 1e-7)?;
            let (w, g) = run(&|x, d| x.gelu_rows(one(a), d));
            assert_close("gelu_rows", be, &w, &g, 1e-5, 1e-6)?;
            let (w, g) = run(&|x, d| x.gelu_grad_rows(one(a), one(c), d));
            assert_close("gelu_grad_rows", be, &w, &g, 1e-5, 2e-5)?;
        }
    }
}

// ---------------------------------------------------------------------------
// Dot-product special-value classification
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dot products over NaN/±Inf/denormal inputs land in the same IEEE
    /// class on every backend (reassociation cannot change whether a NaN or
    /// an infinity contaminates the sum for these inputs).
    #[test]
    fn dot_special_value_classes_match(
        av in collection::vec(arb_special_f32(), 1..70),
        bv in collection::vec(arb_special_f32(), 1..70),
    ) {
        let n = av.len().min(bv.len());
        let (a, b) = (&av[..n], &bv[..n]);
        // Mixed-sign infinite products make the class order-dependent only
        // through NaN, which both orders produce; verify that claim holds.
        let want = Backend::Scalar.dot(a, b);
        for be in non_scalar_backends() {
            let got = be.dot(a, b);
            if want.is_nan() {
                prop_assert!(got.is_nan(), "[{}] scalar NaN vs {got}", be.name());
            } else if want.is_infinite() {
                prop_assert!(got == want, "[{}] scalar {want} vs {got}", be.name());
            } else {
                let bound = dot_bound(a, b);
                prop_assert!(
                    (want - got).abs() <= bound,
                    "[{}] scalar {want:e} vs {got:e} (bound {bound:e})",
                    be.name()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Full-trainer gate: 3-epoch pack-of-one loss histories across backends
// ---------------------------------------------------------------------------

fn graph_trainer_losses(epochs: usize) -> Vec<f32> {
    use torchgt::graph::DatasetKind;
    use torchgt::model::{Gt, GtConfig};
    use torchgt::runtime::{BatchedGraphTrainer, Method, TrainConfig};

    let data = DatasetKind::MalNet.generate_graphs(8, 0.002, 5);
    let mut cfg = TrainConfig::new(Method::GpSparse, 64, epochs);
    cfg.lr = 2e-3;
    let model = Box::new(Gt::new(GtConfig::tiny(data.feat_dim, 5), 9));
    let mut trainer = BatchedGraphTrainer::new(cfg, &data, model, 1);
    (0..epochs).map(|_| trainer.train_epoch().loss).collect()
}

/// Child-process hook for the cross-backend trainer gate: when
/// `TORCHGT_PARITY_OUT` is set, runs 3 trainer epochs under whatever
/// `TORCHGT_BACKEND` the parent chose and writes the loss history there.
/// Without the env var it is a plain (cheap) smoke test of the trainer.
#[test]
fn trainer_loss_probe() {
    let losses = graph_trainer_losses(3);
    assert_eq!(losses.len(), 3);
    assert!(losses.iter().all(|l| l.is_finite()), "non-finite loss: {losses:?}");
    if let Ok(path) = std::env::var("TORCHGT_PARITY_OUT") {
        let body: String = losses.iter().map(|l| format!("{l:e}\n")).collect();
        std::fs::write(&path, body).expect("write parity losses");
    }
}

/// The dispatch backend must not change what the model learns: re-execute
/// the 3-epoch probe under every supported backend and require the loss
/// histories to agree within 2% relative tolerance (reassociated dots and
/// polynomial exp/tanh perturb trajectories by ULPs, not by semantics).
#[test]
fn graph_trainer_loss_history_agrees_across_backends() {
    let exe = std::env::current_exe().expect("test binary path");
    let mut scalar_losses: Option<Vec<f32>> = None;
    for be in backend::supported() {
        let out = std::env::temp_dir().join(format!(
            "torchgt_parity_{}_{}.txt",
            std::process::id(),
            be.name()
        ));
        let status = Command::new(&exe)
            .args(["--exact", "trainer_loss_probe", "--test-threads", "1"])
            .env(backend::ENV_VAR, be.name())
            .env("TORCHGT_PARITY_OUT", &out)
            .status()
            .expect("spawn trainer probe");
        assert!(status.success(), "probe under {} failed: {status}", be.name());
        let body = std::fs::read_to_string(&out).expect("read parity losses");
        let _ = std::fs::remove_file(&out);
        let losses: Vec<f32> = body.lines().map(|l| l.parse().expect("loss f32")).collect();
        assert_eq!(losses.len(), 3, "{}: {body:?}", be.name());
        match &scalar_losses {
            None => {
                assert_eq!(be, Backend::Scalar, "supported() must list scalar first");
                scalar_losses = Some(losses);
            }
            Some(reference) => {
                for (epoch, (&r, &g)) in reference.iter().zip(&losses).enumerate() {
                    assert!(
                        (r - g).abs() <= 0.02 * r.abs().max(0.1),
                        "{}: epoch {epoch} loss {g} diverged from scalar {r}",
                        be.name()
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// CLI dispatch-override matrix
// ---------------------------------------------------------------------------

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_torchgt_cli"))
}

fn train_args(metrics: &std::path::Path) -> Vec<String> {
    [
        "train", "--dataset", "arxiv", "--method", "torchgt", "--epochs", "1", "--scale",
        "0.002", "--seq-len", "64", "--hidden", "16", "--layers", "2", "--heads", "2",
        "--seed", "7", "--metrics",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([metrics.to_string_lossy().into_owned()])
    .collect()
}

/// `--backend scalar` and the detected best backend both drive the CLI end
/// to end, and `--metrics` reports which backend ran.
#[test]
fn cli_backend_override_matrix() {
    for be in [Backend::Scalar, backend::detect_best()] {
        let metrics = std::env::temp_dir().join(format!(
            "torchgt_cli_backend_{}_{}.json",
            std::process::id(),
            be.name()
        ));
        let output = cli()
            .args(train_args(&metrics))
            .args(["--backend", be.name()])
            .env_remove(backend::ENV_VAR)
            .output()
            .expect("run torchgt_cli");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "cli --backend {} failed: {stdout}\n{}",
            be.name(),
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(
            stdout.contains(&format!("kernel backend: {}", be.name())),
            "stdout must announce the backend: {stdout}"
        );
        let report = std::fs::read_to_string(&metrics).expect("metrics written");
        let _ = std::fs::remove_file(&metrics);
        assert!(report.contains("\"backend\""), "metrics missing backend event");
        assert!(
            report.contains(&format!("\"{}\"", be.name())),
            "metrics must name the backend that ran"
        );
    }
}

/// Requesting an unknown or unsupported backend is a clear usage error
/// (exit 2 with a diagnostic), never a SIGILL or a panic.
#[test]
fn cli_rejects_bad_backends_cleanly() {
    for (flag_value, expect) in [
        ("avx999", "unknown kernel backend"),
        ("neon", "unknown kernel backend"),
    ] {
        let metrics = std::env::temp_dir().join(format!(
            "torchgt_cli_badbackend_{}.json",
            std::process::id()
        ));
        let output = cli()
            .args(train_args(&metrics))
            .args(["--backend", flag_value])
            .env_remove(backend::ENV_VAR)
            .output()
            .expect("run torchgt_cli");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "want usage exit: {stderr}");
        assert!(stderr.contains(expect), "unhelpful error: {stderr}");
        assert!(!metrics.exists(), "failed run must not write metrics");
    }
    // The env override takes the same validated path as the flag.
    let output = cli()
        .args(["train", "--dataset", "arxiv", "--epochs", "1", "--scale", "0.002"])
        .env(backend::ENV_VAR, "sse9000")
        .output()
        .expect("run torchgt_cli");
    assert_eq!(output.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("unknown kernel backend"),
        "env override must fail with the same diagnostic"
    );
}

/// Any backend named by `supported()` really runs: a smoke kernel under a
/// forced override executes without SIGILL and matches scalar.
#[test]
fn every_supported_backend_is_exercised_in_process() {
    let a: Vec<f32> = (0..133).map(|i| (i as f32).sin()).collect();
    let b: Vec<f32> = (0..133).map(|i| (i as f32).cos()).collect();
    let want = Backend::Scalar.dot(&a, &b);
    for be in backend::supported() {
        let got = be.dot(&a, &b);
        assert!(
            (want - got).abs() <= dot_bound(&a, &b),
            "{}: {want} vs {got}",
            be.name()
        );
    }
}

// ---------------------------------------------------------------------------
// SIMD kernels outside `tensor::backend`: CRC-32 and the int8 dot
// ---------------------------------------------------------------------------

/// The definition: one bit of one byte at a time through the reflected
/// IEEE shift register.
fn crc_register_bitwise(mut state: u32, bytes: &[u8]) -> u32 {
    for &byte in bytes {
        state ^= byte as u32;
        for _ in 0..8 {
            state = (state >> 1) ^ if state & 1 != 0 { 0xEDB8_8320 } else { 0 };
        }
    }
    state
}

proptest! {
    /// `update_clmul` (where the CPU has PCLMULQDQ) and `update_slicing16`
    /// advance the register exactly as the definition does, from any
    /// incoming state, at any alignment, across the 16- and 64-byte block
    /// boundaries — and so does the public streaming state, cut anywhere.
    #[test]
    fn crc32_bodies_are_bit_exact(
        bytes in proptest::collection::vec(0u8..=255, 0..1500),
        state in 0u32..=u32::MAX,
        offset in 0usize..16,
        cut in 0usize..1500,
    ) {
        use torchgt::ckpt::checksum::{self, Crc32};
        let bytes = &bytes[offset.min(bytes.len())..];
        let want = crc_register_bitwise(state, bytes);
        prop_assert_eq!(checksum::update_slicing16(state, bytes), want, "slicing16, {} bytes", bytes.len());
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("pclmulqdq") {
            // SAFETY: PCLMULQDQ was just detected.
            let got = unsafe { checksum::update_clmul(state, bytes) };
            prop_assert_eq!(got, want, "clmul, {} bytes", bytes.len());
        }
        let (head, tail) = bytes.split_at(cut.min(bytes.len()));
        let mut crc = Crc32::new();
        crc.update(head);
        crc.update(tail);
        prop_assert_eq!(crc.finish(), !crc_register_bitwise(!0, bytes));
        prop_assert_eq!(crc.finish(), torchgt::ckpt::crc32(bytes));
    }
}

proptest! {
    /// `serve::quant::dot_i8` takes its `dot_i8_avx2` body from 16 elements
    /// up (where the CPU has AVX2) and must equal `dot_i8_scalar` on every
    /// length around the 16-lane chunks — integer arithmetic, so exactly —
    /// including the ±127 / −128 extremes whose `madd` pairs come closest
    /// to the i16 × i16 → i32 range.
    #[test]
    fn dot_i8_equals_its_scalar_reference(
        a in proptest::collection::vec(-128i32..=127, 67..68),
        b in proptest::collection::vec(-128i32..=127, 67..68),
        extremes in proptest::collection::vec((0usize..67, 0usize..3, 0usize..3), 0..24),
    ) {
        use torchgt::serve::quant::{dot_i8, dot_i8_scalar};
        let mut a: Vec<i8> = a.into_iter().map(|v| v as i8).collect();
        let mut b: Vec<i8> = b.into_iter().map(|v| v as i8).collect();
        for (at, x, y) in extremes {
            a[at] = [127, -127, -128][x];
            b[at] = [127, -127, -128][y];
        }
        for len in 0..=67 {
            prop_assert_eq!(dot_i8(&a[..len], &b[..len]), dot_i8_scalar(&a[..len], &b[..len]), "len {}", len);
        }
        let (lo, hi) = (vec![i8::MIN; 67], vec![i8::MAX; 67]);
        for len in 0..=67 {
            prop_assert_eq!(dot_i8(&lo[..len], &lo[..len]), 128 * 128 * len as i32);
            prop_assert_eq!(dot_i8(&lo[..len], &hi[..len]), -128 * 127 * len as i32);
        }
    }
}

// ---------------------------------------------------------------------------
// Coverage gate: no SIMD kernel without a parity test
// ---------------------------------------------------------------------------

/// Every SIMD kernel is named, as a whole word, in this file — so a new
/// `unsafe` kernel cannot land without the harness reaching it by name.
/// The kernels are the generic bodies of `backend/lanes.rs` (each
/// `pub(crate) unsafe fn <name><I: Isa>` and each `elementwise_binop!`) and
/// the entry points its `entry_points!` macro stamps out; an ISA file holds
/// exactly one `impl Isa for`, one `entry_points!(` call and no `pub unsafe
/// fn` of its own, so a kernel cannot be re-forked per ISA unnoticed. The
/// same naming rule holds for every `#[target_feature]` function outside
/// `tensor::backend`: the CRC-32 fold of `crates/ckpt/src/checksum.rs` and
/// the int8 dot of `crates/serve/src/quant.rs`.
#[test]
fn every_simd_kernel_is_named_in_this_harness() {
    let harness = include_str!("simd_parity.rs");
    let named = |name: &str| {
        harness
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .any(|word| word == name)
    };
    let ident = |rest: &str| rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect::<String>();

    let lanes = include_str!("../crates/tensor/src/backend/lanes.rs");
    let bodies: Vec<String> = lanes
        .lines()
        .filter_map(|line| {
            let line = line.trim_start();
            let generic = line.strip_prefix("pub(crate) unsafe fn ").filter(|rest| rest.contains("<I: Isa"));
            generic.or_else(|| line.strip_prefix("elementwise_binop!(")).map(ident)
        })
        .filter(|name| !name.is_empty()) // the `$name` inside `elementwise_binop!` itself
        .collect();
    // The entry-point list: `gemm_tile` spelled out, the rest one signature
    // per line, from `macro_rules! entry_points` to its re-export.
    let entries: Vec<String> = lanes
        .lines()
        .skip_while(|line| !line.starts_with("macro_rules! entry_points"))
        .take_while(|line| !line.starts_with("pub(crate) use entry_points"))
        .filter_map(|line| {
            let line = line.trim_start();
            line.strip_prefix("pub unsafe fn ").or_else(|| line.strip_prefix("fn ")).map(ident)
        })
        .collect();
    assert!(bodies.len() > 20, "lanes.rs: found only {} kernel bodies — did the declaration style change?", bodies.len());
    assert!(entries.len() > 20, "lanes.rs: found only {} entry points — did `entry_points!` change shape?", entries.len());
    for kernel in bodies.iter().chain(&entries) {
        assert!(named(kernel), "lanes.rs: SIMD kernel {kernel} is not named in tests/simd_parity.rs");
    }
    for (file, source) in [
        ("avx2.rs", include_str!("../crates/tensor/src/backend/avx2.rs")),
        ("avx512.rs", include_str!("../crates/tensor/src/backend/avx512.rs")),
    ] {
        let count = |needle: &str| source.lines().filter(|line| line.trim_start().starts_with(needle)).count();
        assert_eq!(count("impl Isa for "), 1, "{file}: an ISA file holds exactly one `impl Isa`");
        assert_eq!(count("entry_points!("), 1, "{file}: an ISA file stamps its entry points out exactly once");
        assert_eq!(count("pub unsafe fn "), 0, "{file}: kernels are written once, in lanes.rs — not per ISA");
    }

    // Outside `tensor::backend`: the function each `#[target_feature]`
    // attribute is on, whatever its visibility.
    for (file, source) in [
        ("checksum.rs", include_str!("../crates/ckpt/src/checksum.rs")),
        ("quant.rs", include_str!("../crates/serve/src/quant.rs")),
    ] {
        let mut lines = source.lines().map(str::trim_start);
        let mut kernels = Vec::new();
        while let Some(line) = lines.next() {
            if line.starts_with("#[target_feature") {
                let decl = lines.find(|l| l.contains("fn ")).expect("an attribute is followed by its function");
                kernels.push(ident(decl.split("fn ").nth(1).expect("just matched")));
            }
        }
        assert!(!kernels.is_empty(), "{file}: no #[target_feature] fn found — did the declaration style change?");
        for kernel in kernels {
            assert!(named(&kernel), "{file}: #[target_feature] fn {kernel} is not named in tests/simd_parity.rs");
        }
    }
}
