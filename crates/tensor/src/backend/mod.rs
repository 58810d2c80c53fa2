//! Runtime-dispatched SIMD kernel backends.
//!
//! Every hot float kernel in this workspace bottoms out in the slice
//! primitives of this module: a [`Backend`] is picked **once** per process
//! (CPU-feature detection, overridable with `TORCHGT_BACKEND`) and threaded
//! through `ops`, `layers`, the attention kernels and the cluster-sparse
//! sub-block kernel. Two implementations exist, one of them over two ISAs:
//!
//! * [`scalar`] — the original loops, extracted verbatim. This is the
//!   reference semantics; the parity harness validates the others against it.
//! * `lanes` — the one SIMD body: every kernel written once over an `Isa` of
//!   lane primitives (optimise there). `avx2` (256-bit AVX2 + FMA) and
//!   `avx512` (512-bit AVX-512F) each hold their `impl Isa`, their register
//!   tile shape and the `#[target_feature]` entry points `lanes` stamps out.
//!
//! ## Parity policy
//!
//! Primitives fall in two classes, asserted by `tests/simd_parity.rs`:
//!
//! * **Bit-exact**: element-wise ops (`add`/`sub`/`mul`/`scale`/`axpy`/
//!   `mul_acc`/`normalize`/`div_assign`/`ln_grad_combine`). SIMD lanes
//!   perform the same two-rounding `mul`+`add` sequence per element as the
//!   scalar loop (FMA is deliberately **not** used there), so results are
//!   identical to the last bit. `max_ignore_nan` is also bit-exact (max is
//!   exact and NaN operands always lose).
//! * **ULP-bounded**: reductions with vector accumulators (`dot`, `dot3`,
//!   `sum`, `sum_sq_diff`) change the association order, [`Backend::gemm`]
//!   (all three matmuls and the flash-attention tiles) rounds once per
//!   multiply-add where the ISA has FMA, transcendental kernels
//!   (`exp_minus_max_sum`, `gelu`, `gelu_grad`) use a polynomial `exp`
//!   instead of libm, and the sparse row tier does all three. Bounds are
//!   documented per kernel in DESIGN.md and enforced by the harness.
//!
//! Under any **one** backend every kernel is a pure function of its
//! operands: a matmul element depends on its own row of `A` and column of
//! `B` only, a sparse-attention head on its own `d_head` columns only. That
//! is what keeps slab-split ≡ whole and distributed ≡ single-device
//! bit-identical.
//!
//! ## The level-3 tier
//!
//! [`Backend::gemm`] is the one matrix-matrix primitive: a loop over
//! `MR × NR` register tiles, each computed by the backend's `gemm_tile`
//! micro-kernel with its accumulators in registers for the whole `k` loop.
//! Tile shapes are per-backend constants ([`Backend::gemm_tile_shape`]).
//! `A` may have any strides (its elements are broadcast one at a time); a
//! `B` whose rows are not contiguous is repacked, one `KC × NR` stack panel
//! at a time, before the tiles read it.
//!
//! ## The sparse row tier
//!
//! [`Backend::sparse_rows_fwd`] and [`Backend::sparse_rows_bwd`] are the
//! cluster-sparse attention primitive: a block of query rows of the CSR mask
//! ([`MaskRows`]), their `[rows, d]` operands and the per-head `[head][edge]`
//! bias / probability slices in, every head of every row out; the mask is
//! validated once per call. Scores for all heads of a row come from one
//! walk of its edges; `P·V` and `dQ` accumulate in registers and the
//! `dK` / `dV` rows are updated in place, rows ascending; heads of half a
//! vector go two to a vector, each lane's arithmetic unchanged. The forward's
//! softmax runs one row per lane for groups of short rows (`W` rows of a
//! packed batch at once, the horizontal sum's tree rebuilt lane by lane
//! through `Isa::hsum_lanes`) and over masked vectors of one row otherwise
//! (a row of the reformed mask is shorter than one AVX-512 vector, so a
//! scalar tail would be the whole row). Either way each row has the bits of
//! a row-by-row walk, and nothing inside a block is a dispatched call.
//!
//! ## Row tiles
//!
//! The element-wise tail of a transformer block — LayerNorm forward, its
//! affine recompute and backward, bias add, bias gradient, GELU forward and
//! backward — is one dispatched call per row tile ([`Rows`]): the
//! `Backend::*_rows` entry points run the per-row slice kernels inside, so
//! a tile costs one call instead of one per row, with the per-row bits.
//! `scalar.rs` stays the per-row reference.

pub mod scalar;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512;
#[cfg(target_arch = "x86_64")]
mod lanes;

use std::sync::OnceLock;

/// Environment variable overriding backend selection
/// (`scalar` | `avx2` | `avx512`).
pub const ENV_VAR: &str = "TORCHGT_BACKEND";

/// A SIMD instruction-set backend for the slice kernels. `Copy` so hot
/// loops capture it by value — dispatch is a branch on an enum, not an
/// atomic load.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// Portable scalar reference implementation.
    Scalar,
    /// 256-bit AVX2 + FMA.
    Avx2,
    /// 512-bit AVX-512F.
    Avx512,
}

/// A strided read-only matrix operand of [`Backend::gemm`]: element
/// `(i, j)` is `data[i * rs + j * cs]`.
#[derive(Clone, Copy, Debug)]
pub struct Strided<'a> {
    /// Backing storage, starting at element `(0, 0)`.
    pub data: &'a [f32],
    /// Distance between vertically adjacent elements.
    pub rs: usize,
    /// Distance between horizontally adjacent elements.
    pub cs: usize,
}

impl<'a> Strided<'a> {
    /// A row-major matrix with row stride `ld`.
    pub fn row_major(data: &'a [f32], ld: usize) -> Self {
        Self { data, rs: ld, cs: 1 }
    }

    /// The transpose of a row-major matrix with row stride `ld`.
    pub fn transposed(data: &'a [f32], ld: usize) -> Self {
        Self { data, rs: 1, cs: ld }
    }

    /// The same operand from row `i` on.
    pub fn from_row(self, i: usize) -> Self {
        Self { data: self.data.get(i * self.rs..).unwrap_or(&[]), ..self }
    }

    /// Whether every element of a `rows × cols` operand is inside `data`.
    fn covers(&self, rows: usize, cols: usize) -> bool {
        rows == 0 || cols == 0 || (rows - 1) * self.rs + (cols - 1) * self.cs < self.data.len()
    }
}

/// One `C[m×n] (+)= A[m×k] · B[k×n]` problem for [`Backend::gemm`]. Every
/// output element accumulates over `p` in ascending order, with one rounding
/// per multiply-add where the backend has FMA.
#[derive(Clone, Copy, Debug)]
pub struct Gemm<'a> {
    /// Rows of `A` and `C`.
    pub m: usize,
    /// Columns of `B` and `C`.
    pub n: usize,
    /// Columns of `A`, rows of `B`.
    pub k: usize,
    /// Left operand.
    pub a: Strided<'a>,
    /// Right operand.
    pub b: Strided<'a>,
    /// Row stride of `C` (its rows are contiguous).
    pub ldc: usize,
    /// `C += A·B` instead of `C = A·B`.
    pub accumulate: bool,
}

/// One register tile of a [`Gemm`], as handed to a backend's `gemm_tile`:
/// `C[mr×nr] (+)= A[mr×k] · B[k×nr]` with `B`'s rows contiguous.
pub struct Tile<'a> {
    /// Depth of the product.
    pub k: usize,
    /// `A` from the tile's first row on: element `(i, p)` is `a[i*rsa + p*csa]`.
    pub a: &'a [f32],
    /// Row stride of `A`.
    pub rsa: usize,
    /// Column stride of `A`.
    pub csa: usize,
    /// `B` from the tile's first column on: row `p` is `b[p*ldb .. p*ldb + nr]`.
    pub b: &'a [f32],
    /// Row stride of `B`.
    pub ldb: usize,
    /// Row stride of `C`.
    pub ldc: usize,
    /// Rows in this tile, `1 ..= MR`.
    pub mr: usize,
    /// Columns in this tile, `1 ..= NR`.
    pub nr: usize,
    /// See [`Gemm::accumulate`].
    pub accumulate: bool,
}

impl Tile<'_> {
    /// Whether the three operands hold every element the tile touches —
    /// the precondition of the SIMD micro-kernels' raw-pointer loops.
    pub fn in_bounds(&self, c: &[f32]) -> bool {
        let last = |rows: usize, rs: usize, cols: usize, cs: usize| (rows - 1) * rs + (cols - 1) * cs;
        self.mr >= 1
            && self.nr >= 1
            && last(self.mr, self.ldc, self.nr, 1) < c.len()
            && (self.k == 0
                || (last(self.mr, self.rsa, self.k, self.csa) < self.a.len()
                    && last(self.k, self.ldb, self.nr, 1) < self.b.len()))
    }
}

/// What every row of one cluster-sparse attention call shares (see
/// [`Backend::sparse_rows_fwd`]). Head `h` owns columns
/// `h·d_head .. (h+1)·d_head` of each row.
#[derive(Clone, Copy, Debug)]
pub struct SparseAttn<'a> {
    /// Attention heads.
    pub heads: usize,
    /// Columns per head.
    pub d_head: usize,
    /// Score scale, `1/√d_head`.
    pub scale: f32,
    /// `K`, `[s, heads·d_head]` row-major and contiguous.
    pub k: &'a [f32],
    /// `V`, same shape as `K`.
    pub v: &'a [f32],
}

impl<'a> SparseAttn<'a> {
    /// The operands of one call, with the usual `1/√d_head` score scale.
    pub fn new(heads: usize, d_head: usize, k: &'a [f32], v: &'a [f32]) -> Self {
        Self { heads, d_head, scale: 1.0 / (d_head as f32).sqrt(), k, v }
    }

    /// Row width `heads · d_head`, after checking what the SIMD kernels'
    /// raw-pointer loops rely on: `K` and `V` are whole `[s, d]` matrices,
    /// `m` is well formed and every one of its columns names a key row.
    fn checked_width(&self, m: &MaskRows<'_>) -> usize {
        let d = self.heads * self.d_head;
        assert!(d > 0, "sparse rows: heads and d_head must be nonzero");
        let s = self.k.len() / d;
        assert!(
            self.k.len() == self.v.len() && self.k.len() == s * d,
            "sparse rows: K and V must be [s, {d}] and alike"
        );
        let (first, last) = (m.ptr.first(), m.ptr.last());
        assert!(
            first.is_some() && m.ptr.windows(2).all(|w| w[0] <= w[1]) && last.zip(first).map(|(l, f)| l - f) == Some(m.cols.len()),
            "sparse rows: row pointers must ascend from the block's first edge to its last column"
        );
        assert!(m.cols.iter().all(|&j| (j as usize) < s), "sparse rows: column past the last of {s} keys");
        d
    }
}

/// A block of query rows of a CSR attention mask, the unit the sparse
/// kernels take: row `i` (of `ptr.len() − 1`) attends to the keys
/// `cols[ptr[i] − ptr[0] .. ptr[i+1] − ptr[0]]`, and its edges sit at the
/// same positions of every `[head][edge]` slice of the call.
#[derive(Clone, Copy, Debug)]
pub struct MaskRows<'a> {
    /// Row pointers of the block's rows, one more than there are rows, in
    /// the mask's own numbering (only differences are used).
    pub ptr: &'a [usize],
    /// The block's column list, from its first row's first edge on.
    pub cols: &'a [u32],
}

impl MaskRows<'_> {
    /// Query rows in the block.
    pub fn rows(&self) -> usize {
        self.ptr.len().saturating_sub(1)
    }

    /// Row `i`'s edges, as positions in `cols` and the per-head slices.
    #[inline(always)]
    fn edges(&self, i: usize) -> std::ops::Range<usize> {
        self.ptr[i] - self.ptr[0]..self.ptr[i + 1] - self.ptr[0]
    }
}

/// The `[head][edge]` slices of a sparse rows call must name every head and
/// reach the block's last edge.
fn assert_per_head<T: std::ops::Deref<Target = [f32]>>(what: &str, per_head: &[T], heads: usize, end: usize) {
    assert!(
        per_head.len() == heads && per_head.iter().all(|p| p.len() >= end),
        "sparse rows: {what} must hold {heads} heads of at least {end} edges"
    );
}

/// A row tile read in place by the element-wise tile kernels: row `r` of
/// `rows` is `data[r·ld .. r·ld + cols]`.
#[derive(Clone, Copy, Debug)]
pub struct Rows<'a> {
    /// Backing storage, starting at the tile's first row.
    pub data: &'a [f32],
    /// Rows in the tile.
    pub rows: usize,
    /// Floats per row.
    pub cols: usize,
    /// Distance between the starts of adjacent rows, `≥ cols`.
    pub ld: usize,
}

impl<'a> Rows<'a> {
    /// Row `r`.
    #[inline(always)]
    pub(crate) fn row(&self, r: usize) -> &'a [f32] {
        &self.data[r * self.ld..r * self.ld + self.cols]
    }

    /// Panics unless every row is inside `data` and the tile is
    /// `rows × cols`.
    fn check(&self, what: &str, rows: usize, cols: usize) {
        assert!(
            self.rows == rows
                && self.cols == cols
                && self.ld >= cols
                && (rows == 0 || (rows - 1) * self.ld + cols <= self.data.len()),
            "{what}: expected a {rows} × {cols} row tile inside its storage"
        );
    }
}

/// Depth of one repacked `B` panel (see [`Backend::gemm`]).
const PACK_KC: usize = 128;
/// Widest `NR` of any backend — the repacked panel's row capacity.
const PACK_NR: usize = 32;
const _: () = assert!(scalar::NR <= PACK_NR);
#[cfg(target_arch = "x86_64")]
const _: () = assert!(avx2::NR <= PACK_NR && avx512::NR <= PACK_NR);

/// Dispatch a primitive to the selected backend module.
///
/// Safety of the `unsafe` arms: `Backend::Avx2` / `Backend::Avx512` values
/// are only handed out by [`Backend::parse`] / [`detect_best`] /
/// [`active`], all of which verify the required CPU features with
/// `is_x86_feature_detected!` first.
macro_rules! dispatch {
    ($self:ident, $f:ident ( $($arg:expr),* )) => {
        match $self {
            Backend::Scalar => scalar::$f($($arg),*),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => unsafe { avx2::$f($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => unsafe { avx512::$f($($arg),*) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => scalar::$f($($arg),*),
        }
    };
}

impl Backend {
    /// Lower-case name as accepted by [`Backend::parse`] and reported in
    /// metrics.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
        }
    }

    /// Whether the current CPU can execute this backend.
    pub fn is_supported(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Parse a backend name, rejecting names this CPU cannot execute with a
    /// clear error (instead of letting an unsupported instruction SIGILL).
    pub fn parse(name: &str) -> Result<Backend, String> {
        let want = match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Backend::Scalar,
            "avx2" => Backend::Avx2,
            "avx512" => Backend::Avx512,
            other => {
                return Err(format!(
                    "unknown kernel backend `{other}`: expected one of scalar, avx2, avx512"
                ))
            }
        };
        if !want.is_supported() {
            return Err(format!(
                "kernel backend `{}` is not supported by this CPU (supported: {})",
                want.name(),
                supported_names().join(", ")
            ));
        }
        Ok(want)
    }

    // ---- level 3 ----

    /// `(MR, NR)`: the register tile of this backend's `gemm_tile`.
    pub fn gemm_tile_shape(self) -> (usize, usize) {
        match self {
            Backend::Scalar => (scalar::MR, scalar::NR),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => (avx2::MR, avx2::NR),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => (avx512::MR, avx512::NR),
            #[cfg(not(target_arch = "x86_64"))]
            _ => (scalar::MR, scalar::NR),
        }
    }

    /// `C (+)= A·B` over register tiles (see the module docs). `c` starts at
    /// `C`'s element `(0, 0)`. Panics if an operand is too short for its
    /// shape and strides.
    pub fn gemm(self, g: &Gemm<'_>, c: &mut [f32]) {
        let Gemm { m, n, k, a, b, ldc, accumulate } = *g;
        if m == 0 || n == 0 {
            return;
        }
        assert!(ldc >= n && (m - 1) * ldc + n <= c.len(), "gemm: C is shorter than m × n at ldc");
        if k == 0 {
            if !accumulate {
                c.chunks_mut(ldc).take(m).for_each(|row| row[..n].fill(0.0));
            }
            return;
        }
        assert!(a.covers(m, k), "gemm: A is shorter than m × k at its strides");
        assert!(b.covers(k, n), "gemm: B is shorter than k × n at its strides");
        let (mr, nr) = self.gemm_tile_shape();
        let mut tile = Tile {
            k,
            a: a.data,
            rsa: a.rs,
            csa: a.cs,
            b: b.data,
            ldb: b.rs,
            ldc,
            mr,
            nr,
            accumulate,
        };
        if b.cs == 1 {
            for j0 in (0..n).step_by(nr) {
                tile.nr = nr.min(n - j0);
                tile.b = &b.data[j0..];
                for i0 in (0..m).step_by(mr) {
                    tile.mr = mr.min(m - i0);
                    tile.a = &a.data[i0 * a.rs..];
                    self.gemm_tile(&tile, &mut c[i0 * ldc + j0..]);
                }
            }
            return;
        }
        // B's rows are strided (e.g. it is a transpose): copy each
        // `kc × nr` block into a contiguous panel the tiles can vector-load,
        // once per block, reused by every row tile.
        let mut panel = [0.0f32; PACK_KC * PACK_NR];
        tile.ldb = nr;
        for j0 in (0..n).step_by(nr) {
            tile.nr = nr.min(n - j0);
            for p0 in (0..k).step_by(PACK_KC) {
                tile.k = PACK_KC.min(k - p0);
                for jj in 0..tile.nr {
                    let col = &b.data[(j0 + jj) * b.cs + p0 * b.rs..];
                    for p in 0..tile.k {
                        panel[p * nr + jj] = col[p * b.rs];
                    }
                }
                tile.accumulate = accumulate || p0 > 0;
                for i0 in (0..m).step_by(mr) {
                    tile.mr = mr.min(m - i0);
                    tile.a = &a.data[i0 * a.rs + p0 * a.cs..];
                    let t = Tile { b: &panel, ..tile };
                    self.gemm_tile(&t, &mut c[i0 * ldc + j0..]);
                }
            }
        }
    }

    /// One register tile: `c` starts at the tile's element `(0, 0)`.
    #[inline]
    fn gemm_tile(self, t: &Tile<'_>, c: &mut [f32]) {
        debug_assert!(t.in_bounds(c));
        dispatch!(self, gemm_tile(t, c))
    }

    // ---- sparse row tier (ULP-bounded across backends) ----

    /// Forward of a block of query rows of cluster-sparse attention, all
    /// heads: for row `i` and head `h`,
    /// `score[h][e] = scale · q_{i,h}·k_{cols[e],h} (+ bias[h][e])` over the
    /// row's edges `e`, a softmax over them into `probs[h][e]`, and
    /// `out_{i,h} = Σ_e probs[h][e] · v_{cols[e],h}`. `q` and `out` are the
    /// block's `[rows, heads·d_head]` rows.
    ///
    /// NaN scores are ignored by the row maximum and stay NaN; a row with
    /// no edges writes zeros. Panics if an operand is shorter than its shape.
    pub fn sparse_rows_fwd(
        self,
        a: &SparseAttn<'_>,
        q: &[f32],
        m: MaskRows<'_>,
        bias: Option<&[&[f32]]>,
        probs: &mut [&mut [f32]],
        out: &mut [f32],
    ) {
        let d = a.checked_width(&m);
        let n = m.rows() * d;
        assert!(q.len() == n && out.len() == n, "sparse rows: q and out must be {} rows of {d}", m.rows());
        assert_per_head("probs", probs, a.heads, m.cols.len());
        if let Some(b) = bias {
            assert_per_head("bias", b, a.heads, m.cols.len());
        }
        dispatch!(self, sparse_rows_fwd(a, q, m, bias, probs, out))
    }

    /// Backward of [`Backend::sparse_rows_fwd`] for the same block, rows
    /// ascending. With `dp[e] = do_{i,h}·v_{cols[e],h}` it writes the score
    /// gradient `ds[h][e] = p·(dp[e] − Σ p·dp)` (the bias gradient) and
    /// `dq_{i,h} = scale · Σ_e ds·k_{cols[e],h}`, and adds each row's terms
    /// into rows `cols[e]` of `dk` (`scale·ds·q_{i,h}`) and `dv`
    /// (`p·do_{i,h}`), which are `[s, d]` like `K`.
    #[allow(clippy::too_many_arguments)]
    pub fn sparse_rows_bwd(
        self,
        a: &SparseAttn<'_>,
        q: &[f32],
        dout: &[f32],
        m: MaskRows<'_>,
        probs: &[&[f32]],
        ds: &mut [&mut [f32]],
        dq: &mut [f32],
        dk: &mut [f32],
        dv: &mut [f32],
    ) {
        let d = a.checked_width(&m);
        let n = m.rows() * d;
        assert!(
            q.len() == n && dout.len() == n && dq.len() == n,
            "sparse rows: q, do and dq must be {} rows of {d}",
            m.rows()
        );
        assert!(dk.len() == a.k.len() && dv.len() == a.k.len(), "sparse rows: dK and dV must be shaped like K");
        assert_per_head("probs", probs, a.heads, m.cols.len());
        assert_per_head("ds", ds, a.heads, m.cols.len());
        dispatch!(self, sparse_rows_bwd(a, q, dout, m, probs, ds, dq, dk, dv))
    }

    // ---- row tiles (one call per tile; the per-row arithmetic of each
    // ---- backend's slice kernels, so as bit-exact or ULP-bounded as those)

    /// `row += bias` for every `bias.len()`-wide row of `rows` (exact).
    pub fn add_bias_rows(self, rows: &mut [f32], bias: &[f32]) {
        assert!(rows.len().is_multiple_of(bias.len().max(1)), "add_bias_rows: rows must be whole rows of the bias");
        dispatch!(self, add_bias_rows(rows, bias))
    }

    /// `acc += Σ_r a.row(r)`, one row at a time in ascending order (exact).
    pub fn col_sum_rows(self, a: Rows<'_>, acc: &mut [f32]) {
        a.check("col_sum_rows", a.rows, acc.len());
        dispatch!(self, col_sum_rows(a, acc))
    }

    /// GELU (tanh approximation) of every row of `x` into the contiguous
    /// rows of `out`.
    pub fn gelu_rows(self, x: Rows<'_>, out: &mut [f32]) {
        assert_eq!(out.len(), x.rows * x.cols, "gelu_rows: output shape mismatch");
        x.check("gelu_rows", x.rows, x.cols);
        dispatch!(self, gelu_rows(x, out))
    }

    /// `out = gelu'(x) ⊙ dy`, row by row, into the contiguous rows of `out`.
    pub fn gelu_grad_rows(self, x: Rows<'_>, dy: Rows<'_>, out: &mut [f32]) {
        assert_eq!(out.len(), x.rows * x.cols, "gelu_grad_rows: output shape mismatch");
        x.check("gelu_grad_rows", x.rows, x.cols);
        dy.check("gelu_grad_rows", x.rows, x.cols);
        dispatch!(self, gelu_grad_rows(x, dy, out))
    }

    /// LayerNorm of every row of `x` into the contiguous rows of `out`:
    /// `mean = Σx / n`, `var = Σ(x − mean)² / n`, `inv_std = 1/√(var + eps)`,
    /// `out = (x − mean)·inv_std·γ + β`. With `stats = (x̂, inv_std)` it also
    /// records the normalised rows and each row's `inv_std`; the output is
    /// the same to the bit either way.
    pub fn layer_norm_rows(
        self,
        x: Rows<'_>,
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
        out: &mut [f32],
        stats: Option<(&mut [f32], &mut [f32])>,
    ) {
        let (rows, cols) = (x.rows, x.cols);
        x.check("layer_norm_rows", rows, cols);
        assert!(gamma.len() == cols && beta.len() == cols, "layer_norm_rows: gamma and beta must be {cols} wide");
        assert_eq!(out.len(), rows * cols, "layer_norm_rows: output shape mismatch");
        if let Some((xhat, inv_std)) = &stats {
            assert!(xhat.len() == rows * cols && inv_std.len() == rows, "layer_norm_rows: stats shape mismatch");
        }
        dispatch!(self, layer_norm_rows(x, gamma, beta, eps, out, stats))
    }

    /// `out = x̂·γ + β` with the roundings of [`Backend::layer_norm_rows`].
    pub fn layer_norm_affine_rows(self, xhat: Rows<'_>, gamma: &[f32], beta: &[f32], out: &mut [f32]) {
        let cols = xhat.cols;
        xhat.check("layer_norm_affine_rows", xhat.rows, cols);
        assert!(gamma.len() == cols && beta.len() == cols, "layer_norm_affine_rows: gamma and beta must be {cols} wide");
        assert_eq!(out.len(), xhat.rows * cols, "layer_norm_affine_rows: output shape mismatch");
        dispatch!(self, layer_norm_affine_rows(xhat, gamma, beta, out))
    }

    /// LayerNorm backward over the rows of `dy`: the input gradient
    /// `dx = (n·dy·γ − Σdy·γ − x̂·Σdy·γ·x̂) · inv_std / n` into the contiguous
    /// rows of `dx`, and `dγ += dy ⊙ x̂`, `dβ += dy` one row at a time in
    /// ascending order.
    #[allow(clippy::too_many_arguments)]
    pub fn layer_norm_grad_rows(
        self,
        xhat: Rows<'_>,
        inv_std: &[f32],
        gamma: &[f32],
        dy: Rows<'_>,
        dx: &mut [f32],
        dgamma: &mut [f32],
        dbeta: &mut [f32],
    ) {
        let (rows, cols) = (dy.rows, dy.cols);
        dy.check("layer_norm_grad_rows", rows, cols);
        xhat.check("layer_norm_grad_rows", rows, cols);
        assert_eq!(inv_std.len(), rows, "layer_norm_grad_rows: inv_std length mismatch");
        assert!(
            gamma.len() == cols && dgamma.len() == cols && dbeta.len() == cols,
            "layer_norm_grad_rows: gamma, dgamma and dbeta must be {cols} wide"
        );
        assert_eq!(dx.len(), rows * cols, "layer_norm_grad_rows: dx shape mismatch");
        dispatch!(self, layer_norm_grad_rows(xhat, inv_std, gamma, dy, dx, dgamma, dbeta))
    }

    // ---- reductions (ULP-bounded across backends) ----

    /// Dot product `Σ aᵢ·bᵢ`.
    #[inline]
    pub fn dot(self, a: &[f32], b: &[f32]) -> f32 {
        dispatch!(self, dot(a, b))
    }

    /// In-place `rowᵢ = exp(rowᵢ - max)`; returns the sum of the results.
    /// Entries below the exp underflow threshold flush to `0.0`; NaN entries
    /// stay NaN.
    #[inline]
    pub fn exp_minus_max_sum(self, row: &mut [f32], max: f32) -> f32 {
        dispatch!(self, exp_minus_max_sum(row, max))
    }

    // ---- exact kernels (bit-identical across backends) ----

    /// NaN-ignoring maximum, folding from `-∞` (empty slices yield `-∞`).
    #[inline]
    pub fn max_ignore_nan(self, a: &[f32]) -> f32 {
        dispatch!(self, max_ignore_nan(a))
    }

    /// `dst += s · src` (the matmul broadcast-accumulate step; no FMA).
    #[inline]
    pub fn axpy(self, dst: &mut [f32], s: f32, src: &[f32]) {
        dispatch!(self, axpy(dst, s, src))
    }

    /// `out = a + b`.
    #[inline]
    pub fn add(self, a: &[f32], b: &[f32], out: &mut [f32]) {
        dispatch!(self, add(a, b, out))
    }

    /// `out = a - b`.
    #[inline]
    pub fn sub(self, a: &[f32], b: &[f32], out: &mut [f32]) {
        dispatch!(self, sub(a, b, out))
    }

    /// `out = a ⊙ b`.
    #[inline]
    pub fn mul(self, a: &[f32], b: &[f32], out: &mut [f32]) {
        dispatch!(self, mul(a, b, out))
    }

    /// `out = s · a`.
    #[inline]
    pub fn scale(self, a: &[f32], s: f32, out: &mut [f32]) {
        dispatch!(self, scale(a, s, out))
    }

    /// `dst += src`.
    #[inline]
    pub fn add_assign(self, dst: &mut [f32], src: &[f32]) {
        dispatch!(self, add_assign(dst, src))
    }

    /// `dst ⊙= src`.
    #[inline]
    pub fn mul_assign(self, dst: &mut [f32], src: &[f32]) {
        dispatch!(self, mul_assign(dst, src))
    }

    /// `dst *= s`.
    #[inline]
    pub fn scale_assign(self, dst: &mut [f32], s: f32) {
        dispatch!(self, scale_assign(dst, s))
    }

    /// `dst /= s` (true division — same rounding as the scalar loop).
    #[inline]
    pub fn div_assign(self, dst: &mut [f32], s: f32) {
        dispatch!(self, div_assign(dst, s))
    }
}

/// The fastest backend this CPU supports: avx512 → avx2 → scalar.
pub fn detect_best() -> Backend {
    if Backend::Avx512.is_supported() {
        Backend::Avx512
    } else if Backend::Avx2.is_supported() {
        Backend::Avx2
    } else {
        Backend::Scalar
    }
}

/// All backends the current CPU can execute (always includes `Scalar`).
pub fn supported() -> Vec<Backend> {
    [Backend::Scalar, Backend::Avx2, Backend::Avx512]
        .into_iter()
        .filter(|b| b.is_supported())
        .collect()
}

/// Names of all supported backends.
pub fn supported_names() -> Vec<&'static str> {
    supported().into_iter().map(Backend::name).collect()
}

/// Resolve the backend from `TORCHGT_BACKEND` (empty/unset → detection).
pub fn from_env() -> Result<Backend, String> {
    match std::env::var(ENV_VAR) {
        Ok(s) if !s.trim().is_empty() => Backend::parse(&s),
        _ => Ok(detect_best()),
    }
}

/// The process-wide active backend, resolved once on first use. Entry
/// points that want a clean error should call [`from_env`] themselves
/// before touching any kernel; this accessor panics on an invalid override
/// because by the time a kernel runs there is no way to report it.
pub fn active() -> Backend {
    static ACTIVE: OnceLock<Backend> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        from_env().unwrap_or_else(|e| panic!("{e} (fix or unset {ENV_VAR})"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_supported_and_parseable() {
        assert!(Backend::Scalar.is_supported());
        assert_eq!(Backend::parse("scalar").unwrap(), Backend::Scalar);
        assert_eq!(Backend::parse(" SCALAR ").unwrap(), Backend::Scalar);
    }

    #[test]
    fn detect_best_is_supported_and_listed() {
        let best = detect_best();
        assert!(best.is_supported());
        assert!(supported().contains(&best));
        assert!(supported().contains(&Backend::Scalar));
    }

    #[test]
    fn unknown_backend_name_is_a_clear_error() {
        let err = Backend::parse("neon").unwrap_err();
        assert!(err.contains("unknown kernel backend"), "{err}");
        assert!(err.contains("scalar"), "error should list valid names: {err}");
    }

    #[test]
    fn unsupported_backend_is_rejected_not_sigill() {
        // On machines lacking some SIMD tier, requesting it must be a clean
        // Err naming the supported set. On machines that have every tier the
        // loop body is vacuous — the unknown-name case above still runs.
        for name in ["avx2", "avx512"] {
            let want = match name {
                "avx2" => Backend::Avx2,
                _ => Backend::Avx512,
            };
            if !want.is_supported() {
                let err = Backend::parse(name).unwrap_err();
                assert!(err.contains("not supported"), "{err}");
                assert!(err.contains("scalar"), "{err}");
            }
        }
    }

    #[test]
    fn active_backend_is_supported() {
        assert!(active().is_supported());
    }

    #[test]
    fn every_supported_backend_runs_a_smoke_kernel() {
        for be in supported() {
            let a: Vec<f32> = (0..37).map(|i| i as f32 * 0.25 - 4.0).collect();
            let b: Vec<f32> = (0..37).map(|i| 2.0 - i as f32 * 0.125).collect();
            let d = be.dot(&a, &b);
            assert!(d.is_finite(), "{}: dot not finite", be.name());
            let mut out = vec![0.0f32; 37];
            be.add(&a, &b, &mut out);
            assert_eq!(out[3], a[3] + b[3], "{}", be.name());
        }
    }
}
