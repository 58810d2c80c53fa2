//! Workspace reuse: real attention forward+backward wall time with a cold
//! arena per iteration (every scratch tensor freshly allocated) versus one
//! persistent arena whose pools are warm after the first step.
//!
//! This isolates the allocator traffic the execution-engine refactor removes
//! from the training loop: both variants run the identical `_ws` kernels, so
//! any gap is purely allocation/zeroing overhead. The outputs are asserted
//! bit-identical, and the warm arena must report zero fresh bytes after the
//! first iteration.
//!
//! A second section replays what `graph_batched` does to an arena: one
//! transformer-block step per packed batch, 64 packs of 8 molecules whose
//! row and arc counts nearly all differ, three epochs through one arena —
//! and prints what the arena ends up holding against the largest step's
//! checkout. (To run it on a tree older than `WorkspaceStats::held_bytes`,
//! delete the `change-only` lines: exact-shape pools never free, so what
//! they hold is what they have allocated.)

use std::collections::HashSet;
use std::time::Instant;
use torchgt_bench::{banner, dump_json};
use torchgt_graph::generators::barabasi_albert;
use torchgt_graph::pack::pack_graphs;
use torchgt_graph::{CsrGraph, DatasetKind};
use torchgt_model::attention::{flash_backward_ws, flash_ws, sparse_backward_ws, sparse_ws};
use torchgt_model::{AttentionMode, TransformerBlock};
use torchgt_tensor::{init, Workspace};

const S: usize = 512;
const D: usize = 64;
const HEADS: usize = 4;
const ITERS: usize = 30;

/// One attention fwd+bwd step through `ws`; returns a checksum of the
/// gradients so the two variants can be compared bit-for-bit.
fn step(kind: &str, mask: &torchgt_graph::CsrGraph, ws: &mut Workspace) -> f64 {
    let q = init::normal(S, D, 0.0, 0.5, 11);
    let k = init::normal(S, D, 0.0, 0.5, 12);
    let v = init::normal(S, D, 0.0, 0.5, 13);
    let dout = init::normal(S, D, 0.0, 0.5, 14);
    let mut checksum = 0.0f64;
    match kind {
        "sparse" => {
            let r = sparse_ws(&q, &k, &v, HEADS, mask, None, ws);
            let g = sparse_backward_ws(&q, &k, &v, HEADS, mask, r.cache, &dout, false, ws);
            checksum += g.dq.data().iter().map(|&x| x as f64).sum::<f64>();
            ws.give(r.out);
            ws.give(g.dq);
            ws.give(g.dk);
            ws.give(g.dv);
        }
        "flash" => {
            let r = flash_ws(&q, &k, &v, HEADS, ws);
            let g = flash_backward_ws(&q, &k, &v, HEADS, r.cache, &r.out, &dout, ws);
            checksum += g.dq.data().iter().map(|&x| x as f64).sum::<f64>();
            ws.give(r.out);
            ws.give(g.dq);
            ws.give(g.dk);
            ws.give(g.dv);
        }
        _ => unreachable!(),
    }
    checksum
}

/// `graph_batched`'s arena traffic: a block forward + backward per pack of
/// `PER_PACK` molecules, `EPOCHS` passes over the same packs in one arena.
fn mixed_shape_trace() -> torchgt_compat::json::Value {
    const GRAPHS: usize = 512;
    const PER_PACK: usize = 8;
    const EPOCHS: usize = 3;
    let data = DatasetKind::OgbgMolpcba.generate_graphs(GRAPHS, 1.0, 1);
    let members: Vec<&CsrGraph> = data.samples.iter().map(|s| &s.graph).collect();
    let masks: Vec<CsrGraph> =
        members.chunks(PER_PACK).map(|pack| pack_graphs(pack).graph.with_self_loops()).collect();
    let distinct = |f: fn(&CsrGraph) -> usize| masks.iter().map(f).collect::<HashSet<_>>().len();
    let (distinct_rows, distinct_arcs) = (distinct(CsrGraph::num_nodes), distinct(CsrGraph::num_arcs));
    let rows = || masks.iter().map(CsrGraph::num_nodes);

    let mut block = TransformerBlock::new(D, HEADS, 4, 0.1, 5);
    let mut ws = Workspace::new();
    let mut alloc_by_epoch = Vec::new();
    for _ in 0..EPOCHS {
        let before = ws.stats().alloc_bytes;
        for mask in &masks {
            let s = mask.num_nodes();
            let (x, dz) = (init::normal(s, D, 0.0, 0.5, 21), init::normal(s, D, 0.0, 0.5, 22));
            let mode = AttentionMode::Sparse { mask, bias: None };
            let z = block.forward_ws(&x, &mode, &mut ws);
            let (dx, _) = block.backward_ws(&dz, &mode, false, &mut ws);
            ws.give(z);
            ws.give(dx);
        }
        alloc_by_epoch.push(ws.stats().alloc_bytes - before);
    }
    let stats = ws.stats();
    #[allow(unused_variables)]
    let held_bytes = stats.alloc_bytes;
    // BEGIN change-only
    let held_bytes = stats.held_bytes;
    // END change-only
    println!(
        "\nmixed shapes: {} packs, rows {}..={} ({distinct_rows} distinct, {distinct_arcs} distinct arc counts), {EPOCHS} epochs",
        masks.len(),
        rows().min().unwrap_or(0),
        rows().max().unwrap_or(0),
    );
    println!(
        "  holds {held_bytes} bytes in {} idle buffers; largest step checked out {} ({:.2}x); \
         fresh bytes per epoch {alloc_by_epoch:?}",
        ws.pooled(),
        stats.high_water_bytes,
        held_bytes as f64 / stats.high_water_bytes as f64,
    );
    torchgt_compat::json!({
        "packs": masks.len(),
        "distinct_row_counts": distinct_rows,
        "distinct_arc_counts": distinct_arcs,
        "epochs": EPOCHS,
        "held_bytes": held_bytes,
        "idle_buffers": ws.pooled(),
        "high_water_bytes": stats.high_water_bytes,
        "held_over_high_water": held_bytes as f64 / stats.high_water_bytes as f64,
        "alloc_bytes_by_epoch": alloc_by_epoch,
        "steady_state_alloc_bytes": alloc_by_epoch[EPOCHS - 1],
    })
}

fn main() {
    banner("workspace_reuse", "execution engine — arena reuse vs per-step allocation");
    let mask = barabasi_albert(S, 4, 7).with_self_loops();
    let mut rows = Vec::new();
    for kind in ["sparse", "flash"] {
        // Cold: a fresh arena per iteration, so every take() allocates.
        let t0 = Instant::now();
        let mut cold_sum = 0.0f64;
        for _ in 0..ITERS {
            let mut ws = Workspace::new();
            cold_sum += step(kind, &mask, &mut ws);
        }
        let cold_s = t0.elapsed().as_secs_f64();

        // Warm: one persistent arena; after the first iteration all scratch
        // shapes are pooled and no fresh bytes are requested.
        let mut ws = Workspace::new();
        let mut warm_sum = step(kind, &mask, &mut ws);
        let after_first = ws.stats().alloc_bytes;
        let t1 = Instant::now();
        for _ in 1..ITERS {
            warm_sum += step(kind, &mask, &mut ws);
        }
        let warm_s = t1.elapsed().as_secs_f64() * ITERS as f64 / (ITERS - 1) as f64;
        let steady_alloc = ws.stats().alloc_bytes - after_first;

        assert_eq!(cold_sum, warm_sum, "{kind}: arena reuse changed the numerics");
        assert_eq!(steady_alloc, 0, "{kind}: warm steps must not allocate");
        let speedup = cold_s / warm_s;
        println!(
            "{kind:>7}: cold {:8.2} ms/iter   warm {:8.2} ms/iter   {speedup:5.2}x   steady-state fresh bytes: {steady_alloc}",
            cold_s / ITERS as f64 * 1e3,
            warm_s / ITERS as f64 * 1e3,
        );
        rows.push(torchgt_compat::json!({
            "kernel": kind,
            "cold_s_per_iter": cold_s / ITERS as f64,
            "warm_s_per_iter": warm_s / ITERS as f64,
            "speedup": speedup,
            "steady_state_alloc_bytes": steady_alloc,
            "reuse_hits": ws.stats().reuse_hits,
        }));
    }
    println!("\nidentical checksums ✓ zero steady-state allocation ✓");
    let mixed = mixed_shape_trace();
    dump_json("workspace_reuse", &torchgt_compat::json!({ "cases": rows, "mixed_shapes": mixed }));
}
