//! `graph_batched`: the same `model`/`tensor` layers used differently —
//! hundreds of short block-diagonal steps (8 molecules packed per sequence),
//! so per-step overhead, encodings, the optimizer and thread fan-out dominate
//! instead of FLOPs. A kernel tuned for long `S` that costs short `S` shows
//! here.

use crate::ledger::median;
use crate::probes::{self, AttnShape, Encodings};
use crate::train::{self, run_epochs};
use crate::Ctx;
use std::sync::Arc;
use std::time::Instant;
use torchgt::graph::{pack_graphs, CsrGraph};
use torchgt::model::{Gt, GtConfig};
use torchgt::prelude::*;
use torchgt::runtime::BatchedGraphTrainer;
use torchgt::sparse::topology_mask;

const BATCH: usize = 8;
const CLASSES: usize = 6;

struct Sizes {
    graphs: usize,
    min_epochs: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            graphs: 160,
            min_epochs: 4,
        }
    } else {
        Sizes {
            graphs: 512,
            min_epochs: 6,
        }
    }
}

fn build(seed: u64, data: &GraphDataset) -> BatchedGraphTrainer {
    let mut cfg = TrainConfig::new(Method::TorchGt, 64, 0);
    cfg.lr = 3e-3;
    cfg.interleave_period = 4;
    cfg.seed = seed;
    let model = Box::new(Gt::new(GtConfig::tiny(data.feat_dim, CLASSES), seed));
    BatchedGraphTrainer::new(cfg, data, model, BATCH)
}

pub fn control_epochs(seed: u64, smoke: bool, epochs: usize) -> Vec<f64> {
    let data = DatasetKind::OgbgMolpcba.generate_graphs(sizes(smoke).graphs, 1.0, seed);
    let mut trainer = build(seed, &data);
    (0..epochs)
        .map(|_| {
            let t = Instant::now();
            Trainer::train_epoch(&mut trainer);
            t.elapsed().as_secs_f64()
        })
        .collect()
}

pub fn run(ctx: &mut Ctx) {
    let z = sizes(ctx.smoke);
    let seed = ctx.seed;
    // Steps are ~200 tokens, so probes need more repetitions to resolve.
    let (budget, reps) = (ctx.measure_seconds(), ctx.probe_reps() * 8);

    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut twin_loss = None;
    let mut built = None;
    ctx.tracer.begin("setup");
    while ctx.more_setups(&setup_s) {
        let i = setup_s.len();
        let ((data, gen_s, trainer), timed) = ctx.clock.time(|| {
            let (data, gen_s) = ctx.tracer.scope("generate", || {
                DatasetKind::OgbgMolpcba.generate_graphs(z.graphs, 1.0, seed)
            });
            let (trainer, _) = ctx.tracer.scope("build", || build(seed, &data));
            (data, gen_s, trainer)
        });
        setup_s.push(timed);
        generate_s.push(gen_s);
        if i == 1 {
            let mut twin = trainer;
            twin_loss = Some(Trainer::train_epoch(&mut twin).loss);
        } else {
            built = Some((data, trainer));
        }
    }
    ctx.tracer.end();
    let (data, mut trainer) = built.expect("at least one set-up ran");
    // Tokens of one epoch: the nodes of the training split (first 80 %).
    let train_graphs = data.len() * 8 / 10;
    let tokens: f64 = data.samples[..train_graphs]
        .iter()
        .map(|s| s.graph.num_nodes() as f64)
        .sum();

    let recorder = ctx.trace.then(|| Arc::new(MemoryRecorder::default()));
    // The batched trainer publishes no per-step or per-epoch traces, so the
    // only split visible from outside is train vs evaluate: the traced run
    // times one extra `evaluate()` after each traced epoch (it does not
    // touch training state) and reports the rest as unattributed.
    let mut eval_s = Vec::new();
    let trace = ctx.trace;
    let run = run_epochs(
        &mut trainer,
        &mut ctx.tracer,
        &mut ctx.clock,
        recorder.as_ref(),
        budget,
        z.min_epochs,
        |_, _| {},
    );
    if trace {
        for _ in 0..3 {
            let t = Instant::now();
            Trainer::evaluate(&mut trainer);
            eval_s.push(t.elapsed().as_secs_f64());
        }
    }

    train::check_history(&mut ctx.ledger, &run);
    if let Some(twin) = twin_loss {
        ctx.ledger.check(
            "same seed gives a bit-identical epoch-0 loss on a second trainer",
            twin.to_bits() == run.stats[0].loss.to_bits(),
        );
    }
    // No accuracy target here: on this stand-in the tiny GT's test accuracy
    // stays at chance (1/6) for the whole window while the training loss
    // falls, so a time-to-accuracy would carry no signal.
    ctx.ledger.ops(run.walls.len() as u64, 0);
    ctx.rss_mib = Some(run.rss_mib);
    ctx.report_ops(&setup_s, tokens, run.steady_timed());

    if !ctx.trace {
        return;
    }
    let report = recorder.expect("traced run has a recorder").report();
    train::report_runtime_rows(&mut ctx.ledger, &mut ctx.tracer, &run, &report, |_| {
        Vec::new()
    });
    let eval = median(&eval_s);
    for (i, &id) in run.span_ids.iter().enumerate() {
        ctx.tracer.add_children(
            id,
            &[("train", (run.walls[i] - eval).max(0.0)), ("eval", eval)],
        );
    }
    let ledger = &mut ctx.ledger;
    ledger.set("runtime.eval.s", eval, eval_s.len());
    // `train` carries no finer split: all of it is unattributed.
    ledger.set(
        "runtime.epoch.unattributed_frac",
        1.0 - eval / median(run.steady()),
        run.steady().len(),
    );
    ledger.set("graph.generate.s", median(&generate_s), generate_s.len());
    ledger.set(
        "runtime.train_tokens_per_s",
        tokens / median(run.steady()),
        run.steady().len(),
    );

    // Probes at the shape of one packed step: the first batch.
    let members: Vec<&CsrGraph> = data.samples[..BATCH].iter().map(|s| &s.graph).collect();
    let packed = pack_graphs(&members);
    let mask = topology_mask(&packed.graph, true);
    let tiny = GtConfig::tiny(data.feat_dim, CLASSES);
    let shape = AttnShape {
        hidden: tiny.hidden,
        heads: tiny.heads,
        graph: &packed.graph,
        mask: &mask,
    };
    let host_fma = probes::host_rows(ledger, &mut ctx.tracer);
    let mut model = Gt::new(tiny, seed);
    probes::tensor_rows(
        ledger,
        &mut ctx.tracer,
        mask.num_nodes(),
        tiny.hidden,
        &mut model,
        host_fma,
        reps,
    );
    probes::attention_rows(ledger, &mut ctx.tracer, &shape, reps);
    probes::encoding_rows(
        ledger,
        &mut ctx.tracer,
        &shape,
        Encodings::Gt {
            pe_dim: tiny.pe_dim,
        },
        reps,
    );

    ctx.par_speedup_row("graph_batched", &run);
}
