//! Where one transformer block's time goes at the `node_long` shapes
//! (`S = 1024`, `d = 64`, 4 heads, FFN inner width 256, dropout 0.1).
//!
//! Per sub-layer — QKV projection, output projection + dropout + residual,
//! FFN forward, FFN backward, LayerNorm, dropout, Adam — and for the whole
//! block forward and forward + backward under sparse and flash attention:
//! the **measured** time through the layers, the **floor** for the same
//! shapes (the bare `Backend::gemm` calls and the bare attention kernel the
//! sub-layer cannot do without, timed here on whole tensors), and
//! `overhead_frac = 1 − floor / measured`: the share of the time that is
//! not a GEMM or attention — sweeps between kernels, copies, fills, bias
//! adds, activation functions. LayerNorm, dropout and Adam have no GEMM in
//! them; their floor is 0 and their `overhead_frac` 1 by construction.
//!
//! Clock discipline: one kernel thread (`TORCHGT_THREADS=1`, as the perf
//! ledger pins it), the clock read only between whole operations, one
//! warm-up round to fill the arena, then `REPS` rounds. Each round times the
//! row's floor kernels (each on warm operands) and then its measured
//! operation back to back, so both sides of a ratio see the same state of
//! this shared host:
//! `overhead_frac` is one minus the **median over rounds** of
//! `floor / measured`, which a level shift that lasts longer than a round
//! cannot move. Minimum and median of both sides are reported beside it.
//!
//! The sub-layer rows time the row entry points the block runs (the
//! `*_rows` methods, `Dropout::begin`), each over all `S` rows — the FFN a
//! `ROW_TILE` at a time, as its backward scratch requires.
//! `BENCH_block.json` at the repo root holds one run of an earlier version
//! of this file per side of the change that introduced the row-tile
//! pipelines. Rows land in `target/experiments/BENCH_block.json`.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;
use torchgt_bench::{banner, dump_json, node_long_mask};
use torchgt_compat::json::Value;
use torchgt_graph::CsrGraph;
use torchgt_model::{attention, AttentionMode, Graphormer, GraphormerConfig, SequenceModel, TransformerBlock};
use torchgt_tensor::backend::{self, Backend, Gemm, Strided};
use torchgt_tensor::layers::{row_tiles, LnSaved};
use torchgt_tensor::{init, Adam, Dropout, FeedForward, LayerNorm, Linear, Optimizer, Tensor, Workspace};

const S: usize = 1024;
const D: usize = 64;
const HEADS: usize = 4;
const INNER: usize = 4 * D;
const DROPOUT: f32 = 0.1;
/// Timed rounds per row.
const REPS: usize = 300;

fn timed(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

fn min_median(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    (samples[0], samples[samples.len() / 2])
}

/// One row: `REPS` rounds of (every `floor` kernel, untimed `setup`,
/// `measured`), after one untimed round that warms the arena.
fn row(
    name: &str,
    floor: &[&dyn Fn()],
    mut setup: impl FnMut(),
    mut measured: impl FnMut(),
) -> Value {
    let (mut floor_ms, mut measured_ms, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..=REPS {
        // Each floor kernel runs twice and the second, warm, call counts: a
        // floor is the best the kernel can do, not what the kernel before
        // it in this list left in cache.
        let f = floor.iter().fold(0.0, |ms, kernel| {
            kernel();
            ms + timed(kernel)
        });
        setup();
        let m = timed(&mut measured);
        if round > 0 {
            floor_ms.push(f);
            measured_ms.push(m);
            ratio.push(f / m);
        }
    }
    let (floor, measured) = (min_median(&mut floor_ms), min_median(&mut measured_ms));
    let overhead = 1.0 - min_median(&mut ratio).1;
    println!(
        "{name:<24} {:>9.3} {:>9.3}   {:>9.3} {:>9.3}   {overhead:>6.3}",
        measured.0, measured.1, floor.0, floor.1
    );
    torchgt_compat::json!({
        "name": name,
        "measured_min_ms": measured.0,
        "measured_median_ms": measured.1,
        "floor_min_ms": floor.0,
        "floor_median_ms": floor.1,
        "overhead_frac": overhead,
    })
}

/// The three GEMM forms a `Linear` of `[S, k] → n` runs, on whole tensors.
struct LinearGemms {
    be: Backend,
    k: usize,
    n: usize,
    x: Tensor,
    w: Tensor,
    dy: Tensor,
    out: RefCell<Vec<f32>>,
}

impl LinearGemms {
    fn new(be: Backend, k: usize, n: usize) -> Self {
        Self {
            be,
            k,
            n,
            x: init::normal(S, k, 0.0, 1.0, 1),
            w: init::normal(k, n, 0.0, 0.1, 2),
            dy: init::normal(S, n, 0.0, 1.0, 3),
            out: RefCell::new(vec![0.0; S * k.max(n)]),
        }
    }

    fn gemm(&self, (m, n, k): (usize, usize, usize), a: Strided<'_>, b: Strided<'_>) {
        let mut out = self.out.borrow_mut();
        self.be.gemm(&Gemm { m, n, k, a, b, ldc: n, accumulate: false }, &mut out);
        black_box(out[0]);
    }

    /// Forward, `x·W`.
    fn fwd(&self) {
        let (k, n) = (self.k, self.n);
        self.gemm((S, n, k), Strided::row_major(self.x.data(), k), Strided::row_major(self.w.data(), n));
    }

    /// Input gradient, `dy·Wᵀ`.
    fn dx(&self) {
        let (k, n) = (self.k, self.n);
        self.gemm((S, k, n), Strided::row_major(self.dy.data(), n), Strided::transposed(self.w.data(), n));
    }

    /// Weight gradient, `xᵀ·dy`.
    fn dw(&self) {
        let (k, n) = (self.k, self.n);
        self.gemm((k, n, S), Strided::transposed(self.x.data(), k), Strided::row_major(self.dy.data(), n));
    }
}

/// Bare attention at the block's shape, sparse over `mask` or flash.
struct AttentionKernel<'a> {
    mask: Option<&'a CsrGraph>,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    dout: Tensor,
    ws: RefCell<Workspace>,
}

impl<'a> AttentionKernel<'a> {
    fn new(mask: Option<&'a CsrGraph>) -> Self {
        Self {
            mask,
            q: init::normal(S, D, 0.0, 1.0, 11),
            k: init::normal(S, D, 0.0, 1.0, 12),
            v: init::normal(S, D, 0.0, 1.0, 13),
            dout: init::normal(S, D, 0.0, 1.0, 14),
            ws: RefCell::new(Workspace::new()),
        }
    }

    fn run(&self, backward: bool) {
        let (q, k, v, ws) = (&self.q, &self.k, &self.v, &mut *self.ws.borrow_mut());
        let out = match self.mask {
            Some(m) => attention::sparse_ws(q, k, v, HEADS, m, None, ws),
            None => attention::flash_ws(q, k, v, HEADS, ws),
        };
        if !backward {
            out.cache.recycle(ws);
            return ws.give(out.out);
        }
        let g = match self.mask {
            Some(m) => attention::sparse_backward_ws(q, k, v, HEADS, m, out.cache, &self.dout, false, ws),
            None => attention::flash_backward_ws(q, k, v, HEADS, out.cache, &out.out, &self.dout, ws),
        };
        for t in [out.out, g.dq, g.dk, g.dv] {
            ws.give(t);
        }
    }
}

fn main() {
    if std::env::var_os("TORCHGT_THREADS").is_none() {
        std::env::set_var("TORCHGT_THREADS", "1");
    }
    banner(
        "block_breakdown: one transformer block at the node_long shapes, measured against its GEMM + attention floor",
        "ROADMAP item 3(b), \"close the step, not the kernel\"",
    );
    let be = backend::active();
    println!("backend {}, S {S}, d {D}, heads {HEADS}, ffn {INNER}, dropout {DROPOUT}, {REPS} reps", be.name());
    println!(
        "{:<24} {:>9} {:>9}   {:>9} {:>9}   {:>6}",
        "sub-layer", "min ms", "med ms", "floor min", "floor med", "ovhd"
    );

    let proj = LinearGemms::new(be, D, D);
    let fc1 = LinearGemms::new(be, D, INNER);
    let fc2 = LinearGemms::new(be, INNER, D);
    let (proj_fwd, proj_dx, proj_dw) = (|| proj.fwd(), || proj.dx(), || proj.dw());
    let (fc1_fwd, fc1_dx, fc1_dw) = (|| fc1.fwd(), || fc1.dx(), || fc1.dw());
    let (fc2_fwd, fc2_dx, fc2_dw) = (|| fc2.fwd(), || fc2.dx(), || fc2.dw());
    let mask = node_long_mask();
    assert_eq!(mask.num_nodes(), S);
    let (sparse, flash) = (AttentionKernel::new(Some(&mask)), AttentionKernel::new(None));

    let x = init::normal(S, D, 0.0, 1.0, 21);
    let dy = init::normal(S, D, 0.0, 1.0, 22);
    let ws = RefCell::new(Workspace::new());
    let mut rows = Vec::new();

    // QKV projection: three `[S, d] → d` linears on the same input.
    let qkv: Vec<Linear> = (0..3).map(|i| Linear::new(D, D, 30 + i)).collect();
    let mut out = Tensor::zeros(S, D);
    rows.push(row("qkv_proj", &[&proj_fwd, &proj_fwd, &proj_fwd], || {}, || {
        for l in &qkv {
            l.forward_rows(be, &x, out.data_mut());
        }
    }));

    // Output projection, dropout, residual add.
    let wo = Linear::new(D, D, 33);
    let mut drop = Dropout::new(DROPOUT, 34);
    let (mut drop_mask, mut y) = (Tensor::zeros(S, D), Tensor::zeros(S, D));
    rows.push(row("out_proj_residual", &[&proj_fwd], || {}, || {
        wo.forward_rows(be, &x, out.data_mut());
        drop.begin().expect("training mode").apply(out.data(), drop_mask.data_mut(), y.data_mut());
        be.add_assign(y.data_mut(), x.data());
    }));
    black_box(y.get(0, 0));

    // FFN forward, and backward alone (its forward runs untimed).
    let ffn = RefCell::new(FeedForward::new(D, INNER, 35));
    // The FFN's saved activations `h` and `g`.
    let acts = RefCell::new((Tensor::zeros(S, INNER), Tensor::zeros(S, INNER)));
    let ffn_forward = |out: &mut Tensor| {
        let (ffn, (h, g)) = (&*ffn.borrow(), &mut *acts.borrow_mut());
        for (r0, r1) in row_tiles(S) {
            let (h, g, out) = (h.row_span_mut(r0, r1), g.row_span_mut(r0, r1), out.row_span_mut(r0, r1));
            ffn.forward_rows(be, &x.view_rows(r0, r1), h, g, out);
        }
    };
    rows.push(row("ffn_fwd", &[&fc1_fwd, &fc2_fwd], || {}, || ffn_forward(&mut out)));
    let mut dx = Tensor::zeros(S, D);
    rows.push(row(
        "ffn_bwd",
        &[&fc2_dw, &fc2_dx, &fc1_dw, &fc1_dx],
        || ffn_forward(&mut out),
        || {
            let (ffn, (h, g), ws) = (&mut *ffn.borrow_mut(), &*acts.borrow(), &mut *ws.borrow_mut());
            let mut scratch = ffn.backward_scratch(ws);
            for (r0, r1) in row_tiles(S) {
                let (x, dy) = (x.view_rows(r0, r1), dy.view_rows(r0, r1));
                let (h, g) = (h.view_rows(r0, r1), g.view_rows(r0, r1));
                ffn.backward_rows(be, &mut scratch, &x, &h, &g, &dy, dx.row_span_mut(r0, r1));
            }
            scratch.recycle(ws);
        },
    ));

    // LayerNorm and dropout, forward + backward; Adam over the workload's model.
    let mut ln = LayerNorm::new(D);
    rows.push(row("layer_norm_fwd_bwd", &[], || {}, || {
        let ws = &mut *ws.borrow_mut();
        let mut saved = LnSaved::take(S, D, ws);
        ln.forward_rows(be, &x, out.data_mut(), Some(saved.rows_mut(0, S)));
        ln.backward_rows(be, &saved.xhat, &saved.inv_std, &dy, dx.data_mut());
        saved.recycle(ws);
    }));
    rows.push(row("dropout_fwd_bwd", &[], || {}, || {
        drop.begin().expect("training mode").apply(x.data(), drop_mask.data_mut(), out.data_mut());
        be.mul(dy.data(), drop_mask.data(), dx.data_mut());
    }));
    black_box((out.get(0, 0), dx.get(0, 0)));
    let mut model = Graphormer::new(
        GraphormerConfig {
            feat_dim: 128,
            hidden: D,
            layers: 3,
            heads: HEADS,
            ffn_mult: INNER / D,
            out_dim: 40,
            max_degree: 64,
            max_spd: 8,
            dropout: DROPOUT,
        },
        1,
    );
    let mut opt = Adam::with_lr(1e-3);
    rows.push(row("adam_step", &[], || {}, || opt.step(&mut model.params_mut())));

    // The whole block, training mode: four projections and the FFN forward;
    // backward, a weight and an input gradient for each of the six linears.
    let (sparse_fwd, sparse_both) = (|| sparse.run(false), || sparse.run(true));
    let (flash_fwd, flash_both) = (|| flash.run(false), || flash.run(true));
    let fwd_gemms: [&dyn Fn(); 6] = [&proj_fwd, &proj_fwd, &proj_fwd, &proj_fwd, &fc1_fwd, &fc2_fwd];
    let bwd_gemms: [&dyn Fn(); 12] = [
        &proj_dw, &proj_dx, &proj_dw, &proj_dx, &proj_dw, &proj_dx, &proj_dw, &proj_dx, &fc1_dw, &fc1_dx,
        &fc2_dw, &fc2_dx,
    ];
    type Kernel<'a> = (&'a str, Option<&'a CsrGraph>, &'a dyn Fn(), &'a dyn Fn());
    let kernels: [Kernel<'_>; 2] =
        [("sparse", Some(&mask), &sparse_fwd, &sparse_both), ("flash", None, &flash_fwd, &flash_both)];
    for (name, mask, attn_fwd, attn_both) in kernels {
        let mode = match mask {
            Some(mask) => AttentionMode::Sparse { mask, bias: None },
            None => AttentionMode::Flash,
        };
        let mut block = TransformerBlock::new(D, HEADS, INNER / D, DROPOUT, 40);
        let floor: Vec<&dyn Fn()> = fwd_gemms.iter().copied().chain([attn_fwd]).collect();
        rows.push(row(&format!("block_fwd_{name}"), &floor, || {}, || {
            let z = block.forward_ws(&x, &mode, &mut ws.borrow_mut());
            ws.borrow_mut().give(z);
        }));
        let floor: Vec<&dyn Fn()> = fwd_gemms.iter().chain(&bwd_gemms).copied().chain([attn_both]).collect();
        rows.push(row(&format!("block_fwd_bwd_{name}"), &floor, || {}, || {
            let ws = &mut *ws.borrow_mut();
            let z = block.forward_ws(&x, &mode, ws);
            let (dx, _) = block.backward_ws(&dy, &mode, false, ws);
            ws.give(z);
            ws.give(dx);
        }));
    }

    dump_json(
        "BENCH_block",
        &torchgt_compat::json!({
            "backend": be.name(),
            "threads": std::env::var("TORCHGT_THREADS").unwrap_or_default(),
            "shape": torchgt_compat::json!({"s": S, "d": D, "heads": HEADS, "ffn": INNER, "dropout": DROPOUT}),
            "reps": REPS,
            "rows": rows,
        }),
    );
}
