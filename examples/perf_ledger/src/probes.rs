//! Layer probes: replay one layer's public function on inputs taken from the
//! workload, under a span, so a kernel's cost can be read apart from the
//! training loop that calls it. FLOP and byte figures here are *computed from
//! shapes* (`nnz·d`, `S²·d`), not counted by hardware.

use crate::host;
use crate::ledger::{median, Ledger, Tracer};
use std::hint::black_box;
use std::time::Instant;
use torchgt::comm::{CollectiveKind, DeviceGroup};
use torchgt::graph::CsrGraph;
use torchgt::model::encodings::{edge_spd, laplacian_pe, DegreeEncoding, SpdBias};
use torchgt::model::{attention, SequenceModel};
use torchgt::runtime::parallel::parallel_sparse_attention;
use torchgt::tensor::{backend, init, ops, Adam, Optimizer, Tensor, Workspace};

/// Median milliseconds of `reps` calls after one warm-up call (which fills
/// the workspace pools, as the training loop's steady state has them).
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// The host rows. Returns the measured FMA rate for `pct_host_peak`.
pub fn host_rows(ledger: &mut Ledger, tracer: &mut Tracer) -> f64 {
    tracer.begin("probe.host");
    let fma = host::fma_gflops();
    ledger.set("host.fma_gflops", fma, 3);
    ledger.set("host.stream_gib_per_s", host::stream_gib_per_s(), 3);
    tracer.end();
    fma
}

/// The attention problem one training step of the workload solves.
pub struct AttnShape<'a> {
    pub hidden: usize,
    pub heads: usize,
    /// Induced subgraph of the sequence (what the encodings read).
    pub graph: &'a CsrGraph,
    /// The mask the sparse path attends over.
    pub mask: &'a CsrGraph,
}

/// `tensor.*` kernel rows at the workload's projection/FFN shape
/// `[S×d]·[4d×d]ᵀ`, plus one optimizer step over the model's parameters.
pub fn tensor_rows(
    ledger: &mut Ledger,
    tracer: &mut Tracer,
    s: usize,
    d: usize,
    model: &mut dyn SequenceModel,
    host_fma_gflops: f64,
    reps: usize,
) {
    tracer.begin("probe.tensor");
    let x = init::normal(s, d, 0.0, 1.0, 1);
    let w = init::normal(4 * d, d, 0.0, 0.1, 2);
    let mut y = Tensor::zeros(s, 4 * d);
    let ms = time_ms(reps, || ops::matmul_bt_into(&x, &w, &mut y));
    black_box(y.get(0, 0));
    let gflops = (2 * s * d * 4 * d) as f64 / (ms * 1e-3) / 1e9;
    ledger.set("tensor.matmul_bt.ms", ms, reps);
    ledger.set("tensor.matmul_bt.gflops", gflops, reps);
    if host_fma_gflops > 0.0 {
        ledger.set(
            "tensor.matmul_bt.pct_host_peak",
            100.0 * gflops / host_fma_gflops,
            reps,
        );
    }

    // Softmax over one flash key tile per query row; GELU over the FFN's
    // inner activation.
    let scores = init::normal(s, 128, 0.0, 1.0, 3);
    let mut probs = Tensor::zeros(s, 128);
    ledger.set(
        "tensor.softmax.ms",
        time_ms(reps, || ops::row_softmax_into(&scores, &mut probs)),
        reps,
    );
    let mut act = Tensor::zeros(s, 4 * d);
    ledger.set(
        "tensor.gelu.ms",
        time_ms(reps, || ops::gelu_into(&y, &mut act)),
        reps,
    );
    black_box((probs.get(0, 0), act.get(0, 0)));

    // One Adam step over every parameter of the workload's model (zero
    // gradients: the update's cost does not depend on their values).
    let mut opt = Adam::with_lr(1e-3);
    ledger.set(
        "tensor.adam.ms",
        time_ms(reps, || opt.step(&mut model.params_mut())),
        reps,
    );
    let id = match backend::active() {
        backend::Backend::Scalar => 0.0,
        backend::Backend::Avx2 => 1.0,
        backend::Backend::Avx512 => 2.0,
    };
    ledger.set("tensor.backend", id, 1);
    tracer.end();
}

/// `model.attention.*` rows: sparse and flash forward + backward at the
/// workload's `(S, d, heads, mask)`.
pub fn attention_rows(
    ledger: &mut Ledger,
    tracer: &mut Tracer,
    shape: &AttnShape<'_>,
    reps: usize,
) {
    tracer.begin("probe.attention");
    let (s, d, heads, mask) = (
        shape.mask.num_nodes(),
        shape.hidden,
        shape.heads,
        shape.mask,
    );
    let q = init::normal(s, d, 0.0, 1.0, 11);
    let k = init::normal(s, d, 0.0, 1.0, 12);
    let v = init::normal(s, d, 0.0, 1.0, 13);
    let dout = init::normal(s, d, 0.0, 1.0, 14);
    let mut ws = Workspace::new();

    // Forward and backward are timed apart; the forward inside the backward
    // closure only rebuilds the cache the backward consumes.
    let fwd = time_ms(reps, || {
        let out = attention::sparse_ws(&q, &k, &v, heads, mask, None, &mut ws);
        out.cache.recycle(&mut ws);
        ws.give(out.out);
    });
    let both = time_ms(reps, || {
        let out = attention::sparse_ws(&q, &k, &v, heads, mask, None, &mut ws);
        let g = attention::sparse_backward_ws(
            &q, &k, &v, heads, mask, out.cache, &dout, false, &mut ws,
        );
        ws.give(out.out);
        ws.give(g.dq);
        ws.give(g.dk);
        ws.give(g.dv);
    });
    ledger.set("model.attention.sparse_fwd_ms", fwd, reps);
    ledger.set("model.attention.sparse_bwd_ms", (both - fwd).max(0.0), reps);
    ledger.set(
        "model.attention.sparse_gflops",
        (4 * mask.num_arcs() * d) as f64 / (fwd * 1e-3) / 1e9,
        reps,
    );

    let fwd = time_ms(reps, || {
        let out = attention::flash_ws(&q, &k, &v, heads, &mut ws);
        out.cache.recycle(&mut ws);
        ws.give(out.out);
    });
    let both = time_ms(reps, || {
        let out = attention::flash_ws(&q, &k, &v, heads, &mut ws);
        let g =
            attention::flash_backward_ws(&q, &k, &v, heads, out.cache, &out.out, &dout, &mut ws);
        ws.give(out.out);
        ws.give(g.dq);
        ws.give(g.dk);
        ws.give(g.dv);
    });
    ledger.set("model.attention.flash_fwd_ms", fwd, reps);
    ledger.set("model.attention.flash_bwd_ms", (both - fwd).max(0.0), reps);
    ledger.set(
        "model.attention.flash_gflops",
        (4 * s * s * d) as f64 / (fwd * 1e-3) / 1e9,
        reps,
    );
    ledger.set(
        "sparse.mask.nnz_per_token",
        mask.num_arcs() as f64 / s.max(1) as f64,
        1,
    );
    tracer.end();
}

/// Which structural encodings the workload's model computes per step.
#[derive(Clone, Copy)]
pub enum Encodings {
    /// Graphormer: degree embedding + per-edge SPD bias over the mask.
    Graphormer,
    /// GT: Laplacian positional encoding of the step's graph (`pe_dim`
    /// eigenvectors, 30 power iterations — what `Gt::forward` runs on a
    /// graph it has not just seen).
    Gt { pe_dim: usize },
}

pub fn encoding_rows(
    ledger: &mut Ledger,
    tracer: &mut Tracer,
    shape: &AttnShape<'_>,
    kind: Encodings,
    reps: usize,
) {
    tracer.begin("probe.encodings");
    let mut ws = Workspace::new();
    let ms = match kind {
        Encodings::Graphormer => {
            let mut degree = DegreeEncoding::new(64, shape.hidden, 21);
            let mut spd = SpdBias::new(shape.heads, 8, 22);
            time_ms(reps, || {
                let e = degree.forward_ws(shape.graph, &mut ws);
                ws.give(e);
                for buf in spd.sparse_bias_ws(shape.mask, edge_spd(shape.graph), &mut ws) {
                    ws.give_buf(buf);
                }
            })
        }
        Encodings::Gt { pe_dim } => time_ms(reps, || {
            black_box(laplacian_pe(shape.graph, pe_dim, 30, 23));
        }),
    };
    ledger.set("model.encodings.ms", ms, reps);
    tracer.end();
}

/// `comm.*` probe rows inside a real `DeviceGroup` of `world` ranks:
/// all-reduce at the model's parameter sizes, all-to-all at `[S/P, d]`
/// payloads, and sequence-parallel sparse attention against the
/// single-device kernel. Clocks are read by rank 0 right after a barrier.
pub fn comm_rows(
    ledger: &mut Ledger,
    tracer: &mut Tracer,
    world: usize,
    param_lens: &[usize],
    shape: &AttnShape<'_>,
    reps: usize,
) {
    tracer.begin("probe.comm");
    let (s, d, heads, mask) = (
        shape.mask.num_nodes(),
        shape.hidden,
        shape.heads,
        shape.mask,
    );
    let s_local = s / world;
    let s = s_local * world;

    let group = DeviceGroup::new(world);
    let per_rank = group.run(|comm| {
        let mut reduce_ms = Vec::with_capacity(reps);
        let mut a2a_ms = Vec::with_capacity(reps);
        for _ in 0..=reps {
            comm.barrier();
            let t = Instant::now();
            for &len in param_lens {
                black_box(comm.all_reduce_sum(vec![1.0; len]));
            }
            reduce_ms.push(t.elapsed().as_secs_f64() * 1e3);
            comm.barrier();
            let t = Instant::now();
            let chunks = (0..world)
                .map(|_| vec![1.0f32; s_local * d / world])
                .collect();
            black_box(comm.all_to_all(chunks));
            a2a_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        // Drop the warm-up round.
        (median(&reduce_ms[1..]), median(&a2a_ms[1..]))
    });
    let (reduce_ms, a2a_ms) = per_rank[0];
    ledger.set("comm.allreduce.ms_per_step", reduce_ms, reps);
    let a2a_bytes = (s_local * d * 4) as f64;
    ledger.set(
        "comm.all_to_all.mib_per_s",
        a2a_bytes / (1 << 20) as f64 / (a2a_ms * 1e-3),
        reps,
    );

    // Sequence-parallel attention: exact counts from the group's stats, time
    // from the wall-clock of `run` (read after every rank has joined).
    let mask = if mask.num_nodes() == s {
        mask.clone()
    } else {
        mask.induced_subgraph(&(0..s as u32).collect::<Vec<_>>())
    };
    let q = init::normal(s, d, 0.0, 1.0, 31);
    let k = init::normal(s, d, 0.0, 1.0, 32);
    let v = init::normal(s, d, 0.0, 1.0, 33);
    let single_out = attention::sparse(&q, &k, &v, heads, &mask, None).out;
    let single_ms = time_ms(reps, || {
        black_box(
            attention::sparse(&q, &k, &v, heads, &mask, None)
                .out
                .get(0, 0),
        );
    });
    let group = DeviceGroup::new(world);
    let run_once = |group: &DeviceGroup| {
        group.run(|comm| {
            let r = comm.rank();
            let rows = |t: &Tensor| t.slice_rows(r * s_local, (r + 1) * s_local);
            parallel_sparse_attention(&comm, &rows(&q), &rows(&k), &rows(&v), heads, &mask)
        })
    };
    let shards = run_once(&group);
    let stats = group.stats();
    ledger.set(
        "comm.all_to_all.calls_per_attn",
        stats.ops(CollectiveKind::AllToAll) as f64,
        1,
    );
    ledger.set(
        "comm.all_to_all.bytes_per_token",
        stats.bytes_sent() as f64 / s as f64,
        1,
    );
    let refs: Vec<&Tensor> = shards.iter().collect();
    let dist_out = Tensor::vstack(&refs);
    let max_diff = single_out
        .data()
        .iter()
        .zip(dist_out.data())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    ledger.check(
        "parallel_sparse_attention within 1e-4 of single-device attention::sparse",
        max_diff <= 1e-4,
    );
    let par_ms = time_ms(reps, || {
        black_box(run_once(&group).len());
    });
    ledger.set("comm.seqpar.attn_ms", par_ms, reps);
    ledger.set("comm.seqpar.eff", single_ms / (world as f64 * par_ms), reps);
    tracer.end();
}
