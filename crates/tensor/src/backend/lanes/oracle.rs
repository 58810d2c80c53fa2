//! Bit-for-bit oracle of the block and tile kernels: the row-wise SIMD
//! sparse kernels and the per-row element-wise loops they replaced, kept
//! verbatim, and tests that `Backend::sparse_rows_{fwd,bwd}` and the
//! element-wise `*_rows` entry points equal them to the bit on every SIMD
//! backend this CPU has.

use super::{
    add_assign, dot, dot3, exp_minus_max_sum, gelu, gelu_grad, ln_grad_combine, max_ignore_nan, mul, mul_acc,
    mul_assign, normalize, scale_assign, sum, sum_sq_diff, Isa,
};
use crate::backend::{avx2::Avx2, avx512::Avx512, Backend, MaskRows, Rows, SparseAttn};
use crate::rng::rng;
use torchgt_compat::rng::{rngs::SmallRng, Rng};

// ---------------------------------------------------------------------------
// The row-wise kernels, as they were
// ---------------------------------------------------------------------------

/// `Σ_{i<n} a[i]·b[i]`: one FMA accumulator, the last vector masked.
///
/// # Safety
/// `a` and `b` are readable for `n` elements.
#[inline(always)]
unsafe fn dot_masked<I: Isa>(a: *const f32, b: *const f32, n: usize) -> f32 {
    let mut acc = I::zero();
    let mut i = 0usize;
    while i < n {
        let m = I::lanes(n - i);
        acc = I::fmadd(I::load_m(a.add(i), m), I::load_m(b.add(i), m), acc);
        i += I::W;
    }
    I::hsum(acc)
}

/// `dst[h][e0 + e] = scale · x_h·m_{cols[e],h} (+ bias[h][e0 + e])` for
/// every head `h` and edge `e`, in one walk of the edges, four at a time.
///
/// # Safety
/// `x` is a `heads·dh` row, `m` a matrix of such rows holding every row
/// `cols` names, and every `bias` / `dst` slice reaches `e0 + cols.len()`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn row_dots<I: Isa>(
    x: *const f32,
    m: *const f32,
    (heads, dh): (usize, usize),
    cols: &[u32],
    scale: f32,
    bias: Option<&[&[f32]]>,
    dst: &mut [&mut [f32]],
    e0: usize,
) {
    let (d, n) = (heads * dh, cols.len());
    let mut e = 0usize;
    while e < n {
        let group = (n - e).min(4);
        // A short last group repeats its last edge; `store_dots4` drops the copies.
        let rows: [*const f32; 4] = std::array::from_fn(
            #[inline(always)]
            |t| m.add(*cols.get_unchecked(e + t.min(group - 1)) as usize * d),
        );
        for h in 0..heads {
            let mut prod = [I::zero(); 4];
            let mut c = h * dh;
            while c < (h + 1) * dh {
                let lm = I::lanes((h + 1) * dh - c);
                let xv = I::load_m(x.add(c), lm);
                for (prod, row) in prod.iter_mut().zip(rows) {
                    *prod = I::fmadd(xv, I::load_m(row.add(c), lm), *prod);
                }
                c += I::W;
            }
            let bias = bias.map(|b| b[h].as_ptr().add(e0 + e));
            I::store_dots4(prod, scale, bias, dst[h].as_mut_ptr().add(e0 + e), group);
        }
        e += 4;
    }
}

/// The forward sparse row: one query row, its columns, every head.
#[allow(clippy::too_many_arguments)]
unsafe fn sparse_row_fwd<I: Isa>(
    a: &SparseAttn<'_>,
    q_row: &[f32],
    cols: &[u32],
    bias: Option<&[&[f32]]>,
    probs: &mut [&mut [f32]],
    e0: usize,
    out_row: &mut [f32],
) {
    let (dh, d, n) = (a.d_head, a.heads * a.d_head, cols.len());
    let (v, out) = (a.v.as_ptr(), out_row.as_mut_ptr());
    row_dots::<I>(q_row.as_ptr(), a.k.as_ptr(), (a.heads, dh), cols, a.scale, bias, probs, e0);
    for p in probs.iter_mut() {
        let p = &mut p[e0..e0 + n];
        let max = max_ignore_nan::<I>(p);
        let den = exp_minus_max_sum::<I>(p, max);
        scale_assign::<I>(p, 1.0 / den.max(f32::MIN_POSITIVE));
    }
    for (h, p) in probs.iter().enumerate() {
        let p = &p[e0..e0 + n];
        // `out_h = Σ p·v_h`, one register per `W` columns of the head.
        let mut c = 0usize;
        while c < dh {
            let (m, col) = (I::lanes(dh - c), h * dh + c);
            let mut acc = I::zero();
            for (e, &j) in cols.iter().enumerate() {
                let vj = I::load_m(v.add(j as usize * d + col), m);
                acc = I::fmadd(I::splat(*p.as_ptr().add(e)), vj, acc);
            }
            I::store_m(out.add(col), m, acc);
            c += I::W;
        }
    }
}

/// The backward sparse row.
#[allow(clippy::too_many_arguments)]
unsafe fn sparse_row_bwd<I: Isa>(
    a: &SparseAttn<'_>,
    q_row: &[f32],
    do_row: &[f32],
    cols: &[u32],
    probs: &[&[f32]],
    ds: &mut [&mut [f32]],
    e0: usize,
    dq_row: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
) {
    let (dh, d, n) = (a.d_head, a.heads * a.d_head, cols.len());
    let (q, dout, k) = (q_row.as_ptr(), do_row.as_ptr(), a.k.as_ptr());
    let (dq, dk, dv) = (dq_row.as_mut_ptr(), dk.as_mut_ptr(), dv.as_mut_ptr());
    // `dp = do_h·v_h`, parked in `ds` until the row sum below is known.
    row_dots::<I>(dout, a.v.as_ptr(), (a.heads, dh), cols, 1.0, None, ds, e0);
    for h in 0..a.heads {
        let p = probs[h].as_ptr().add(e0);
        let dsr = ds[h].as_mut_ptr().add(e0);
        // Softmax Jacobian: `ds = p ∘ (dp − p·dp)`.
        let p_dot_dp = I::splat(dot_masked::<I>(p, dsr, n));
        let mut i = 0usize;
        while i < n {
            let m = I::lanes(n - i);
            let centred = I::sub(I::load_m(dsr.add(i), m), p_dot_dp);
            I::store_m(dsr.add(i), m, I::mul(I::load_m(p.add(i), m), centred));
            i += I::W;
        }
        // `dq_h` in a register; rows `cols[e]` of `dk` and `dv` in place.
        let mut c = 0usize;
        while c < dh {
            let (m, col) = (I::lanes(dh - c), h * dh + c);
            let qv = I::load_m(q.add(col), m);
            let dov = I::load_m(dout.add(col), m);
            let mut acc = I::zero();
            for (e, &j) in cols.iter().enumerate() {
                let at = j as usize * d + col;
                let scaled = I::splat(*dsr.add(e) * a.scale);
                acc = I::fmadd(scaled, I::load_m(k.add(at), m), acc);
                let dk_j = I::fmadd(scaled, qv, I::load_m(dk.add(at), m));
                I::store_m(dk.add(at), m, dk_j);
                let dv_j = I::fmadd(I::splat(*p.add(e)), dov, I::load_m(dv.add(at), m));
                I::store_m(dv.add(at), m, dv_j);
            }
            I::store_m(dq.add(col), m, acc);
            c += I::W;
        }
    }
}

// ---------------------------------------------------------------------------
// The per-row element-wise loops, as they were (one slice kernel per row)
// ---------------------------------------------------------------------------

unsafe fn add_bias_loop<I: Isa>(rows: &mut [f32], bias: &[f32]) {
    for row in rows.chunks_exact_mut(bias.len().max(1)) {
        add_assign::<I>(row, bias);
    }
}

unsafe fn col_sum_loop<I: Isa>(a: Rows<'_>, acc: &mut [f32]) {
    for r in 0..a.rows {
        add_assign::<I>(acc, a.row(r));
    }
}

unsafe fn gelu_loop<I: Isa>(x: Rows<'_>, out: &mut [f32]) {
    for (r, o) in out.chunks_exact_mut(x.cols.max(1)).enumerate() {
        gelu::<I>(x.row(r), o);
    }
}

unsafe fn gelu_grad_loop<I: Isa>(x: Rows<'_>, dy: Rows<'_>, out: &mut [f32]) {
    for (r, o) in out.chunks_exact_mut(x.cols.max(1)).enumerate() {
        gelu_grad::<I>(x.row(r), dy.row(r), o);
    }
}

unsafe fn layer_norm_loop<I: Isa>(
    x: Rows<'_>,
    g: &[f32],
    b: &[f32],
    eps: f32,
    out: &mut [f32],
    mut stats: Option<(&mut [f32], &mut [f32])>,
) {
    let cols = x.cols;
    for (r, out_row) in out.chunks_exact_mut(cols.max(1)).enumerate() {
        let row = x.row(r);
        let mean = sum::<I>(row) / cols as f32;
        let var = sum_sq_diff::<I>(row, mean) / cols as f32;
        let inv_std = 1.0 / (var + eps).sqrt();
        match &mut stats {
            Some((xhat, inv)) => {
                inv[r] = inv_std;
                let xhat_row = &mut xhat[r * cols..(r + 1) * cols];
                normalize::<I>(row, mean, inv_std, xhat_row);
                mul::<I>(xhat_row, g, out_row);
            }
            None => {
                normalize::<I>(row, mean, inv_std, out_row);
                mul_assign::<I>(out_row, g);
            }
        }
        add_assign::<I>(out_row, b);
    }
}

unsafe fn layer_norm_affine_loop<I: Isa>(xhat: Rows<'_>, g: &[f32], b: &[f32], out: &mut [f32]) {
    for (r, out_row) in out.chunks_exact_mut(xhat.cols.max(1)).enumerate() {
        mul::<I>(xhat.row(r), g, out_row);
        add_assign::<I>(out_row, b);
    }
}

#[allow(clippy::too_many_arguments)]
unsafe fn layer_norm_grad_loop<I: Isa>(
    xhat: Rows<'_>,
    inv_std: &[f32],
    g: &[f32],
    dy: Rows<'_>,
    dx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    for (r, dx_row) in dx.chunks_exact_mut(dy.cols.max(1)).enumerate() {
        let (dyr, xr) = (dy.row(r), xhat.row(r));
        mul_acc::<I>(dgamma, dyr, xr);
        add_assign::<I>(dbeta, dyr);
        let sum_dxhat = dot::<I>(dyr, g);
        let sum_dxhat_xhat = dot3::<I>(dyr, g, xr);
        ln_grad_combine::<I>(dyr, g, xr, sum_dxhat, sum_dxhat_xhat, inv_std[r], dx_row);
    }
}

// ---------------------------------------------------------------------------
// Cases
// ---------------------------------------------------------------------------

/// Keys every generated mask draws its columns from (more than the longest
/// row has edges).
const KEYS: usize = 256;
/// NaN padding after the last edge of every `[head][edge]` output buffer.
const PAD: usize = 3;

/// Bit equality, except that any NaN equals any NaN.
fn assert_same(what: &str, want: &[f32], got: &[f32]) {
    assert_eq!(want.len(), got.len(), "{what}: lengths");
    for (i, (&w, &g)) in want.iter().zip(got).enumerate() {
        assert!(
            w.to_bits() == g.to_bits() || (w.is_nan() && g.is_nan()),
            "{what}: element {i} is {g:e} ({:#010x}), the row-wise kernel gave {w:e} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

fn values(n: usize, rng: &mut impl Rng) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
}

/// A block of query rows over [`KEYS`] keys, with every operand.
struct Case {
    heads: usize,
    d_head: usize,
    ptr: Vec<usize>,
    cols: Vec<u32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    dout: Vec<f32>,
    bias: Option<Vec<Vec<f32>>>,
}

/// What one side computed for a [`Case`].
struct Outputs {
    probs: Vec<Vec<f32>>,
    out: Vec<f32>,
    ds: Vec<Vec<f32>>,
    dq: Vec<f32>,
    dk: Vec<f32>,
    dv: Vec<f32>,
}

impl Case {
    /// `degrees.len()` rows; row `i` has `degrees[i]` ascending columns
    /// (repeats allowed) starting at edge `first` of the mask.
    fn new(degrees: &[usize], d_head: usize, heads: usize, with_bias: bool, seed: u64) -> Self {
        let mut rng = rng(seed);
        let d = heads * d_head;
        let first = rng.gen_range(0..50usize);
        let mut ptr = vec![first];
        let mut cols = Vec::new();
        for &n in degrees {
            let mut row: Vec<u32> = (0..n).map(|_| rng.gen_range(0..KEYS as u32)).collect();
            row.sort_unstable();
            cols.extend(row);
            ptr.push(first + cols.len());
        }
        let edges = cols.len();
        let rows = degrees.len();
        let bias = with_bias.then(|| (0..heads).map(|_| values(edges, &mut rng)).collect());
        Self {
            heads,
            d_head,
            ptr,
            cols,
            q: values(rows * d, &mut rng),
            k: values(KEYS * d, &mut rng),
            v: values(KEYS * d, &mut rng),
            dout: values(rows * d, &mut rng),
            bias,
        }
    }

    fn rows(&self) -> usize {
        self.ptr.len() - 1
    }

    /// Output buffers: NaN, so an edge a kernel forgets shows, with the
    /// accumulated `dk` / `dv` starting from a fixed pattern.
    fn fresh(&self) -> Outputs {
        let (d, edges) = (self.heads * self.d_head, self.cols.len());
        let pattern: Vec<f32> = (0..KEYS * d).map(|i| (i % 7) as f32 * 0.25 - 0.5).collect();
        Outputs {
            probs: vec![vec![f32::NAN; edges + PAD]; self.heads],
            out: vec![f32::NAN; self.rows() * d],
            ds: vec![vec![f32::NAN; edges + PAD]; self.heads],
            dq: vec![f32::NAN; self.rows() * d],
            dk: pattern.clone(),
            dv: pattern,
        }
    }

    /// The block entry points over rows `r0..r1` of the case, into `o`.
    fn run_block(&self, be: Backend, r0: usize, r1: usize, o: &mut Outputs) {
        let d = self.heads * self.d_head;
        let attn = SparseAttn::new(self.heads, self.d_head, &self.k, &self.v);
        let (e0, e1) = (self.ptr[r0] - self.ptr[0], self.ptr[r1] - self.ptr[0]);
        let m = MaskRows { ptr: &self.ptr[r0..=r1], cols: &self.cols[e0..e1] };
        let bias: Option<Vec<&[f32]>> = self.bias.as_ref().map(|b| b.iter().map(|h| &h[e0..]).collect());
        let mut probs: Vec<&mut [f32]> = o.probs.iter_mut().map(|p| &mut p[e0..]).collect();
        let rows = r0 * d..r1 * d;
        be.sparse_rows_fwd(&attn, &self.q[rows.clone()], m, bias.as_deref(), &mut probs, &mut o.out[rows.clone()]);
        let probs: Vec<&[f32]> = o.probs.iter().map(|p| &p[e0..]).collect();
        let mut ds: Vec<&mut [f32]> = o.ds.iter_mut().map(|p| &mut p[e0..]).collect();
        let (q, dout) = (&self.q[rows.clone()], &self.dout[rows.clone()]);
        be.sparse_rows_bwd(&attn, q, dout, m, &probs, &mut ds, &mut o.dq[rows], &mut o.dk, &mut o.dv);
    }

    /// The row-wise kernels, one row at a time.
    unsafe fn run_rows<I: Isa>(&self) -> Outputs {
        let d = self.heads * self.d_head;
        let attn = SparseAttn::new(self.heads, self.d_head, &self.k, &self.v);
        let mut o = self.fresh();
        let bias: Option<Vec<&[f32]>> = self.bias.as_ref().map(|b| b.iter().map(Vec::as_slice).collect());
        for i in 0..self.rows() {
            let (e0, e1) = (self.ptr[i] - self.ptr[0], self.ptr[i + 1] - self.ptr[0]);
            let mut probs: Vec<&mut [f32]> = o.probs.iter_mut().map(Vec::as_mut_slice).collect();
            let (q, out) = (&self.q[i * d..(i + 1) * d], &mut o.out[i * d..(i + 1) * d]);
            sparse_row_fwd::<I>(&attn, q, &self.cols[e0..e1], bias.as_deref(), &mut probs, e0, out);
        }
        for i in 0..self.rows() {
            let (e0, e1) = (self.ptr[i] - self.ptr[0], self.ptr[i + 1] - self.ptr[0]);
            let probs: Vec<&[f32]> = o.probs.iter().map(Vec::as_slice).collect();
            let mut ds: Vec<&mut [f32]> = o.ds.iter_mut().map(Vec::as_mut_slice).collect();
            let row = i * d..(i + 1) * d;
            let (q, dout, dq) = (&self.q[row.clone()], &self.dout[row.clone()], &mut o.dq[row]);
            sparse_row_bwd::<I>(&attn, q, dout, &self.cols[e0..e1], &probs, &mut ds, e0, dq, &mut o.dk, &mut o.dv);
        }
        o
    }

    /// The block kernels of `be` — over the whole block, and over the block
    /// cut in two at `cut` — against the row-wise kernels of `I`.
    unsafe fn check<I: Isa>(&self, be: Backend, cut: usize, what: &str) {
        let want = self.run_rows::<I>();
        let mut whole = self.fresh();
        self.run_block(be, 0, self.rows(), &mut whole);
        let mut split = self.fresh();
        self.run_block(be, 0, cut, &mut split);
        self.run_block(be, cut, self.rows(), &mut split);
        let name = |part: &str, how: &str| {
            let degrees: Vec<usize> = self.ptr.windows(2).map(|w| w[1] - w[0]).collect();
            format!(
                "{} {what} ({how}): {part}, d_head {} heads {} bias {}, degrees {degrees:?}",
                be.name(),
                self.d_head,
                self.heads,
                self.bias.is_some()
            )
        };
        for (how, got) in [("whole", &whole), ("split", &split)] {
            for h in 0..self.heads {
                assert_same(&name("probs", how), &want.probs[h], &got.probs[h]);
                assert_same(&name("ds", how), &want.ds[h], &got.ds[h]);
            }
            assert_same(&name("out", how), &want.out, &got.out);
            assert_same(&name("dq", how), &want.dq, &got.dq);
            assert_same(&name("dk", how), &want.dk, &got.dk);
            assert_same(&name("dv", how), &want.dv, &got.dv);
        }
    }
}

/// Runs `$check::<Isa>(backend)` for each SIMD backend this CPU has.
macro_rules! on_each_simd_backend {
    ($check:ident) => {{
        if Backend::Avx2.is_supported() {
            // SAFETY: AVX2 and FMA were just detected.
            unsafe { $check::<Avx2>(Backend::Avx2) }
        }
        if Backend::Avx512.is_supported() {
            // SAFETY: AVX-512F was just detected.
            unsafe { $check::<Avx512>(Backend::Avx512) }
        }
    }};
}

/// Row degrees for one generated block: mostly short rows (the packed-graph
/// regime), with rows on both sides of each vector width and of the longest
/// row run one per lane, empty rows and rows of up to 200 edges mixed in.
fn degrees(rng: &mut impl Rng) -> Vec<usize> {
    const EDGY: [usize; 16] = [0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 48, 64, 100, 150, 200];
    let rows = rng.gen_range(1..40usize);
    (0..rows)
        .map(|_| match rng.gen_range(0..4u32) {
            0 => EDGY[rng.gen_range(0..EDGY.len())],
            _ => rng.gen_range(0..13usize),
        })
        .collect()
}

/// Row degrees of a packed batch of small graphs: every row short, so
/// (nearly) every row runs one per lane.
fn short_degrees(rng: &mut impl Rng) -> Vec<usize> {
    (0..rng.gen_range(1..40usize)).map(|_| rng.gen_range(0..=9usize)).collect()
}

unsafe fn check_generated<I: Isa>(be: Backend) {
    let mut rng = rng(35);
    for d_head in [2usize, 3, 4, 8, 16, 24, 32] {
        for heads in [1usize, 2, 4, 8] {
            for with_bias in [false, true] {
                for degrees in [degrees(&mut rng), short_degrees(&mut rng)] {
                    let cut = rng.gen_range(0..=degrees.len());
                    let case = Case::new(&degrees, d_head, heads, with_bias, rng.gen_range(0..u64::MAX));
                    case.check::<I>(be, cut, "generated");
                }
            }
        }
    }
}

unsafe fn check_infinite_bias<I: Isa>(be: Backend) {
    let degrees = [17usize, 0, 5, 33, 3, 16, 1, 200, 9, 2, 31, 8, 4, 15, 6, 7, 12, 32, 11];
    for (d_head, heads) in [(16usize, 4usize), (3, 2), (24, 1), (8, 2)] {
        let mut case = Case::new(&degrees, d_head, heads, true, 77);
        for per_head in case.bias.as_mut().unwrap() {
            for (e, b) in per_head.iter_mut().enumerate() {
                if e % 3 == 0 {
                    *b = f32::NEG_INFINITY;
                }
            }
        }
        case.check::<I>(be, 5, "-inf bias on every third edge");
        // Every edge of rows 2, 4 (run one per lane) and 7 (run alone)
        // `−∞`: those rows are NaN.
        for row in [2usize, 4, 7] {
            for per_head in case.bias.as_mut().unwrap() {
                per_head[case.ptr[row] - case.ptr[0]..case.ptr[row + 1] - case.ptr[0]].fill(f32::NEG_INFINITY);
            }
        }
        case.check::<I>(be, 11, "rows of all -inf bias");
    }
}

unsafe fn check_nan_operands<I: Isa>(be: Backend) {
    let degrees = [13usize, 4, 0, 17, 40, 2, 9, 16, 33, 5, 1, 6, 3, 8, 12, 7, 10];
    for (d_head, heads) in [(16usize, 4usize), (3, 2), (24, 2), (8, 2)] {
        let d = d_head * heads;
        type Operand = fn(&mut Case) -> &mut Vec<f32>;
        let poisons: [(&str, Operand); 4] =
            [("NaN in q", |c| &mut c.q), ("NaN in k", |c| &mut c.k), ("NaN in v", |c| &mut c.v), ("NaN in do", |c| &mut c.dout)];
        for (what, operand) in poisons {
            let mut case = Case::new(&degrees, d_head, heads, false, 55);
            // The last column of head 0 in row 3 (a query row) or in the
            // key row of row 3's second edge.
            let key = case.cols[case.ptr[3] - case.ptr[0] + 1] as usize;
            let row = if operand(&mut case).len() == KEYS * d { key } else { 3 };
            let at = row * d + d_head - 1;
            operand(&mut case)[at] = f32::NAN;
            case.check::<I>(be, 7, what);
        }
    }
}

#[test]
fn sparse_block_kernels_equal_the_row_wise_kernels_on_generated_masks() {
    on_each_simd_backend!(check_generated);
}

#[test]
fn sparse_block_kernels_equal_the_row_wise_kernels_under_infinite_bias() {
    on_each_simd_backend!(check_infinite_bias);
}

#[test]
fn sparse_block_kernels_equal_the_row_wise_kernels_with_nan_operands() {
    on_each_simd_backend!(check_nan_operands);
}

/// Each element-wise tile entry point against the per-row loop it
/// replaced: strided row tiles, widths on both sides of each vector width,
/// special values in every operand.
unsafe fn check_tiles<I: Isa>(be: Backend) {
    let mut rng = rng(36);
    let operand = |len: usize, rng: &mut SmallRng| {
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0, 1.0e-40, 1.0e30];
        let mut v = values(len, rng);
        for x in v.iter_mut() {
            if rng.gen_range(0..16u32) == 0 {
                *x = specials[rng.gen_range(0..specials.len())];
            }
        }
        v
    };
    for cols in [1usize, 3, 7, 8, 9, 15, 16, 17, 33, 64] {
        for rows in [1usize, 5, 17] {
            let ld = cols + rng.gen_range(0..4usize);
            let (xs, dys) = (operand(rows * ld, &mut rng), operand(rows * ld, &mut rng));
            let (g, b) = (operand(cols, &mut rng), operand(cols, &mut rng));
            let x = Rows { data: &xs, rows, cols, ld };
            let dy = Rows { data: &dys, rows, cols, ld };
            let what = |k: &str| format!("{} {k}, {rows} × {cols} at ld {ld}", be.name());
            let out = || vec![f32::NAN; rows * cols];

            let (mut want, mut got) = (operand(rows * cols, &mut rng), Vec::new());
            got.clone_from(&want);
            add_bias_loop::<I>(&mut want, &g);
            be.add_bias_rows(&mut got, &g);
            assert_same(&what("add_bias_rows"), &want, &got);

            let (mut want, mut got) = (b.clone(), b.clone());
            col_sum_loop::<I>(x, &mut want);
            be.col_sum_rows(x, &mut got);
            assert_same(&what("col_sum_rows"), &want, &got);

            let (mut want, mut got) = (out(), out());
            gelu_loop::<I>(x, &mut want);
            be.gelu_rows(x, &mut got);
            assert_same(&what("gelu_rows"), &want, &got);

            let (mut want, mut got) = (out(), out());
            gelu_grad_loop::<I>(x, dy, &mut want);
            be.gelu_grad_rows(x, dy, &mut got);
            assert_same(&what("gelu_grad_rows"), &want, &got);

            let (mut want, mut got) = (out(), out());
            layer_norm_loop::<I>(x, &g, &b, 1e-5, &mut want, None);
            be.layer_norm_rows(x, &g, &b, 1e-5, &mut got, None);
            assert_same(&what("layer_norm_rows"), &want, &got);

            let (mut want, mut got) = (out(), out());
            let (mut xhat_w, mut xhat_g, mut inv_w, mut inv_g) = (out(), out(), vec![f32::NAN; rows], vec![f32::NAN; rows]);
            layer_norm_loop::<I>(x, &g, &b, 1e-5, &mut want, Some((&mut xhat_w, &mut inv_w)));
            be.layer_norm_rows(x, &g, &b, 1e-5, &mut got, Some((&mut xhat_g, &mut inv_g)));
            assert_same(&what("layer_norm_rows with stats"), &want, &got);
            assert_same(&what("layer_norm_rows x̂"), &xhat_w, &xhat_g);
            assert_same(&what("layer_norm_rows 1/σ"), &inv_w, &inv_g);

            let (mut want, mut got) = (out(), out());
            layer_norm_affine_loop::<I>(x, &g, &b, &mut want);
            be.layer_norm_affine_rows(x, &g, &b, &mut got);
            assert_same(&what("layer_norm_affine_rows"), &want, &got);

            let inv_std = operand(rows, &mut rng);
            let (mut dx_w, mut dx_g) = (out(), out());
            let (mut dg_w, mut db_w) = (g.clone(), b.clone());
            let (mut dg_g, mut db_g) = (g.clone(), b.clone());
            layer_norm_grad_loop::<I>(x, &inv_std, &g, dy, &mut dx_w, &mut dg_w, &mut db_w);
            be.layer_norm_grad_rows(x, &inv_std, &g, dy, &mut dx_g, &mut dg_g, &mut db_g);
            assert_same(&what("layer_norm_grad_rows dx"), &dx_w, &dx_g);
            assert_same(&what("layer_norm_grad_rows dγ"), &dg_w, &dg_g);
            assert_same(&what("layer_norm_grad_rows dβ"), &db_w, &db_g);
        }
    }
}

#[test]
fn row_tile_entry_points_equal_the_per_row_loops() {
    on_each_simd_backend!(check_tiles);
}
