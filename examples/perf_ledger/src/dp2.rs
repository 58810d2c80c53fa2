//! `dp2`: data-parallel training over two ranks (`train_data_parallel`), GT
//! model, GP-Sparse. `comm` does most of the work that is not compute — one
//! gradient all-reduce per parameter per step — and reformation, the Auto
//! Tuner and interleaving are bypassed, so a `sparse`-only change must not
//! move this workload. Sequence-parallel attention is probed at P = 2.

use crate::host::Timed;
use crate::ledger::median;
use crate::probes::{self, AttnShape};
use crate::Ctx;
use std::time::Instant;
use torchgt::model::{Gt, GtConfig, SequenceModel};
use torchgt::prelude::*;
use torchgt::runtime::{prepare_node_dataset, train_data_parallel, DistributedStats};

struct Sizes {
    scale: f64,
    seq_len: usize,
    hidden: usize,
    layers: usize,
    heads: usize,
    epochs_per_call: usize,
    min_calls: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            scale: 0.004,
            seq_len: 128,
            hidden: 32,
            layers: 2,
            heads: 4,
            epochs_per_call: 2,
            min_calls: 2,
        }
    } else {
        Sizes {
            scale: 0.0125,
            seq_len: 512,
            hidden: 64,
            layers: 3,
            heads: 4,
            epochs_per_call: 2,
            min_calls: 3,
        }
    }
}

/// Ranks in the group: two, unless the host has a single core, so ranks
/// never share one.
fn world() -> usize {
    crate::host::nproc().min(2)
}

fn same_history(a: &DistributedStats, b: &DistributedStats) -> bool {
    a.epoch_losses.len() == b.epoch_losses.len()
        && a.epoch_losses
            .iter()
            .zip(&b.epoch_losses)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn run(ctx: &mut Ctx) {
    let z = sizes(ctx.smoke);
    let seed = ctx.seed;
    let world = world();
    let budget = ctx.measure_seconds();
    // The sequence-parallel probe carries a correctness check, so it runs in
    // both modes (fewer repetitions untraced).
    let reps = if ctx.trace { ctx.probe_reps() } else { 2 };

    // Set-up is dataset generation only: `train_data_parallel` prepares the
    // sequences inside every call, so that cost is part of the call.
    let mut setup_s = Vec::new();
    let mut dataset = None;
    ctx.tracer.begin("setup");
    while ctx.more_setups(&setup_s) {
        let (ds, timed) = ctx.clock.time(|| {
            ctx.tracer
                .scope("generate", || {
                    DatasetKind::OgbnArxiv.generate_node(z.scale, seed)
                })
                .0
        });
        setup_s.push(timed);
        dataset = Some(ds);
    }
    ctx.tracer.end();
    let dataset = dataset.expect("at least one set-up ran");
    let gt = GtConfig {
        feat_dim: dataset.feat_dim,
        hidden: z.hidden,
        layers: z.layers,
        heads: z.heads,
        ffn_mult: 4,
        out_dim: dataset.num_classes,
        pe_dim: 8,
        dropout: 0.0,
    };
    let factory = || Box::new(Gt::new(gt, seed)) as Box<dyn SequenceModel>;
    let mut cfg = TrainConfig::new(Method::GpSparse, z.seq_len, z.epochs_per_call);
    cfg.seed = seed;
    let tokens_per_call = (dataset.num_nodes() * z.epochs_per_call) as f64;

    // One call = one timed operation. The clock is read after
    // `DeviceGroup::run` has joined every rank.
    let call = |ctx: &mut Ctx, name: &str, world: usize| {
        let (tracer, clock) = (&mut ctx.tracer, &mut ctx.clock);
        clock.time(|| {
            tracer
                .scope(name, || train_data_parallel(&dataset, cfg, world, factory))
                .0
        })
    };
    let mut calls: Vec<(DistributedStats, Timed)> = Vec::new();
    let start = Instant::now();
    let mut rss_mib = 0.0;
    while calls.len() < z.min_calls || start.elapsed().as_secs_f64() < budget {
        calls.push(call(ctx, "dp_call", world));
        // Read after the first call: every call spawns fresh rank threads,
        // and which of them the allocator hands a new 16 MiB arena varies
        // from run to run, so the high-water mark after later calls does too.
        if calls.len() == 1 {
            rss_mib = crate::ledger::peak_rss_mib();
        }
    }
    // Overlap control: same run with collectives blocking inline. The loss
    // history must not move; the wall-clock ratio is `comm.overlap.speedup`.
    std::env::set_var("TORCHGT_OVERLAP", "off");
    let (blocking, blocking_t) = call(ctx, "dp_call.overlap_off", world);
    std::env::remove_var("TORCHGT_OVERLAP");

    let first = &calls[0].0;
    let ledger = &mut ctx.ledger;
    ledger.check(
        "loss is finite in every epoch",
        first.epoch_losses.iter().all(|l| l.is_finite()),
    );
    ledger.check(
        "loss decreases from the first to the last epoch",
        first.epoch_losses.last() < first.epoch_losses.first(),
    );
    ledger.check(
        "same seed gives a bit-identical loss history on every call",
        calls.iter().all(|(s, _)| same_history(s, first)),
    );
    ledger.check(
        "all-reduce call and byte counts repeat exactly",
        calls
            .iter()
            .all(|(s, _)| s.all_reduces == first.all_reduces && s.grad_bytes == first.grad_bytes),
    );
    ledger.check(
        "loss history is bit-identical with TORCHGT_OVERLAP off",
        same_history(&blocking, first),
    );
    ledger.ops(calls.len() as u64 + 1, 0);

    // Steady calls: all but the first, which pays first-touch page faults.
    let steady: Vec<Timed> = calls[1..].iter().map(|c| c.1).collect();
    let walls: Vec<f64> = steady.iter().map(|t| t.raw_s).collect();
    ctx.rss_mib = Some(rss_mib);
    ctx.report_ops(&setup_s, tokens_per_call, &steady);
    let ledger = &mut ctx.ledger;
    let call_s = median(&walls);

    let prepared = prepare_node_dataset(&dataset, z.seq_len, false, 1, seed);
    let seq = &prepared.sequences[0];
    let shape = AttnShape {
        hidden: z.hidden,
        heads: z.heads,
        graph: &seq.graph,
        mask: &seq.mask,
    };
    let mut model = Gt::new(gt, seed);
    let param_lens: Vec<usize> = model
        .params_mut()
        .iter()
        .map(|p| p.value.data().len())
        .collect();
    probes::comm_rows(ledger, &mut ctx.tracer, world, &param_lens, &shape, reps);

    if !ctx.trace {
        return;
    }
    // `all_reduces` counts every rank's invocations: per rank and epoch, the
    // gradient all-reduces of every step plus one for the epoch's loss. On
    // the seed tree that is one per parameter per step (54); the row is the
    // measured baseline, not an invariant — bucketing may lower it.
    let steps = prepared.sequences.len().div_ceil(world);
    let per_rank_epoch = first.all_reduces as f64 / (world * z.epochs_per_call) as f64;
    let calls_per_step = (per_rank_epoch - 1.0) / steps as f64;
    ledger.set("comm.allreduce.calls_per_step", calls_per_step, 1);
    let steps_per_call = (steps * z.epochs_per_call) as f64;
    ledger.set(
        "comm.allreduce.bytes_per_step",
        first.grad_bytes as f64 / steps_per_call,
        1,
    );
    ledger.set("comm.overlap.speedup", blocking_t.raw_s / call_s, 1);
    let generate_s: Vec<f64> = setup_s.iter().map(|t| t.raw_s).collect();
    ledger.set("graph.generate.s", median(&generate_s), generate_s.len());
    ledger.set(
        "runtime.train_tokens_per_s",
        tokens_per_call / median(&walls),
        walls.len(),
    );
    // Tracing a `train_data_parallel` call means bench-side spans only (the
    // function takes no recorder), so the traced call is the untraced call.
    ledger.set("obs.trace_overhead_frac", 0.0, 0);

    // Single-worker baseline of the same task.
    let (_, single) = call(ctx, "dp_call.world1", 1);
    let ledger = &mut ctx.ledger;
    ledger.set(
        "runtime.dp.scaling_eff",
        single.raw_s / (world as f64 * call_s),
        1,
    );

    let host_fma = probes::host_rows(ledger, &mut ctx.tracer);
    probes::tensor_rows(
        ledger,
        &mut ctx.tracer,
        seq.mask.num_nodes(),
        z.hidden,
        &mut model,
        host_fma,
        reps,
    );
    probes::attention_rows(ledger, &mut ctx.tracer, &shape, reps);
}
