//! `stream_ckpt`: out-of-core training from `TGDS` shards with a checkpoint
//! after every epoch. The model is deliberately small (hidden 16, 1 layer)
//! so that `data` (read + CRC + parse + prefetch stall) and `ckpt` (save
//! stall) are a visible share of the epoch; `sparse` reformation and the
//! flash passes are bypassed.

use crate::ledger::median;
use crate::probes::{self, AttnShape};
use crate::train::{self, run_epochs};
use crate::Ctx;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use torchgt::model::{Graphormer, GraphormerConfig};
use torchgt::prelude::*;

struct Sizes {
    scale: f64,
    shard_nodes: usize,
    seq_len: usize,
    min_epochs: usize,
}

const HIDDEN: usize = 16;
const LAYERS: usize = 1;
const HEADS: usize = 2;

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            scale: 0.000_05,
            shard_nodes: 2048,
            seq_len: 256,
            min_epochs: 3,
        }
    } else {
        Sizes {
            scale: 0.0002,
            shard_nodes: 4096,
            seq_len: 512,
            min_epochs: 4,
        }
    }
}

fn open_trainer(z: &Sizes, seed: u64, dir: &Path) -> StreamingTrainer {
    let loader = ShardLoader::open(dir).expect("generated dataset opens");
    TorchGtBuilder::new(Method::GpSparse)
        .seq_len(z.seq_len)
        .hidden(HIDDEN)
        .layers(LAYERS)
        .heads(HEADS)
        .seed(seed)
        .build_streaming(loader)
        .expect("stream_ckpt configuration is valid")
}

pub fn run(ctx: &mut Ctx) {
    let z = sizes(ctx.smoke);
    let seed = ctx.seed;
    let (budget, reps) = (ctx.measure_seconds(), ctx.probe_reps());

    // The dataset on disk is the benchmark's input, written once. Its cost
    // is the `data.datagen` row, not set-up: it is six fsyncs on a shared
    // disk, which take 0.1-1.0 s on the reference sandbox for reasons that
    // have nothing to do with the program.
    let data_dir = ctx.dir.join("shards");
    let (report, gen_s) = ctx.tracer.scope("datagen", || {
        generate_to_dir(
            DatasetKind::OgbnPapers100M,
            z.scale,
            seed,
            &data_dir,
            z.shard_nodes,
        )
        .expect("dataset generation succeeds")
    });
    let datagen_mib_per_s = report.total_bytes as f64 / (1 << 20) as f64 / gen_s;

    // Set-up, repeated: open the dataset (manifest read and validation) and
    // build the trainer (no shard is read during construction). That is
    // about 0.2 ms, so the run repeats it forty times and reports the median.
    let mut setup_s = Vec::new();
    let mut built = None;
    ctx.tracer.begin("setup");
    while ctx.more_setups(&setup_s) {
        let (trainer, timed) = ctx.clock.time(|| {
            ctx.tracer
                .scope("build", || open_trainer(&z, seed, &data_dir))
                .0
        });
        setup_s.push(timed);
        built = Some(trainer);
    }
    ctx.tracer.end();
    let mut trainer = built.expect("at least one set-up ran");
    let tokens = report.manifest.total_nodes as f64;
    let dataset_bytes = report.total_bytes;
    let shards = report.manifest.shards.len() as u64;

    let store =
        CheckpointStore::new(ctx.dir.join("ckpt"), 2).expect("checkpoint directory is creatable");
    let recorder = ctx.trace.then(|| Arc::new(MemoryRecorder::default()));
    let mut save_ms = Vec::new();
    let mut save_bytes = 0u64;
    let mut stall_ms_after = Vec::new();
    let run = run_epochs(
        &mut trainer,
        &mut ctx.tracer,
        &mut ctx.clock,
        recorder.as_ref(),
        budget,
        z.min_epochs,
        |trainer, _| {
            let t = Instant::now();
            let snapshot = Trainer::snapshot(trainer);
            let path = store.save(&snapshot).expect("checkpoint save succeeds");
            save_ms.push(t.elapsed().as_secs_f64() * 1e3);
            save_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
            stall_ms_after.push(trainer.loader().stats().stall_ms);
        },
    );
    let epochs = run.walls.len() as u64;

    // Resume: the latest snapshot restored into a fresh trainer must score
    // exactly what the live trainer scores.
    ctx.tracer.begin("ckpt_load");
    let t = Instant::now();
    let snapshot = store
        .load_latest()
        .expect("checkpoint directory is readable");
    let mut fresh = open_trainer(&z, seed, &data_dir);
    let restored = snapshot.as_ref().map(|s| Trainer::restore(&mut fresh, s));
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    ctx.tracer.end();
    let live = Trainer::evaluate(&mut trainer);
    let resumed = Trainer::evaluate(&mut fresh);

    let stats = trainer.loader().stats();
    let passes = 2 * epochs + 1; // train + evaluate per epoch, one evaluate above
    let ledger = &mut ctx.ledger;
    train::check_history(ledger, &run);
    ledger.check(
        "a snapshot was saved and restores cleanly",
        matches!(restored, Some(Ok(()))),
    );
    ledger.check(
        "evaluate() after load_latest + restore equals the live trainer's",
        live == resumed,
    );
    ledger.check(
        "bytes read = dataset bytes x passes",
        stats.bytes_read == dataset_bytes * passes,
    );
    ledger.check(
        "every shard is delivered exactly once per pass",
        stats.shards_delivered == shards * passes,
    );
    ledger.ops(epochs * 2 + 1, 0);
    ctx.rss_mib = Some(run.rss_mib);
    ctx.report_ops(&setup_s, tokens, run.steady_timed());

    if !ctx.trace {
        return;
    }
    let report = recorder.expect("traced run has a recorder").report();
    // Loader stall per epoch from the cumulative counter; as a span child it
    // is capped to the time the program's own phases leave unexplained (the
    // stall inside `evaluate` is already inside `eval`).
    let stall_s: Vec<f64> = (0..stall_ms_after.len())
        .map(|i| (stall_ms_after[i] - if i == 0 { 0.0 } else { stall_ms_after[i - 1] }) * 1e-3)
        .collect();
    let hook_s = run.hook_s.clone();
    let walls = run.walls.clone();
    let traces = report.epochs.clone();
    train::report_runtime_rows(&mut ctx.ledger, &mut ctx.tracer, &run, &report, |i| {
        let explained = traces
            .iter()
            .find(|t| t.epoch == i)
            .map_or(0.0, |t| t.forward_s + t.backward_s + t.optim_s + t.eval_s);
        let room = (walls[i] - hook_s[i] - explained).max(0.0);
        vec![
            ("loader_stall", stall_s[i].min(room)),
            ("ckpt_save", hook_s[i]),
        ]
    });
    let ledger = &mut ctx.ledger;
    let stall_frac: Vec<f64> = (1..walls.len())
        .map(|i| stall_s[i] / (walls[i] - hook_s[i]))
        .collect();
    ledger.set(
        "data.loader.stall_frac",
        median(&stall_frac),
        stall_frac.len(),
    );
    ledger.set(
        "data.loader.bytes_per_epoch",
        (stats.bytes_read / passes * 2) as f64,
        1,
    );
    ledger.set("data.loader.retries", stats.retries as f64, 1);
    ledger.set("data.datagen.mib_per_s", datagen_mib_per_s, 1);
    ledger.set("ckpt.save.ms_p50", median(&save_ms), save_ms.len());
    ledger.set("ckpt.save.bytes", save_bytes as f64, 1);
    ledger.set("ckpt.load.ms", load_ms, 1);
    let ckpt_frac: Vec<f64> = (1..walls.len()).map(|i| hook_s[i] / walls[i]).collect();
    ledger.set("ckpt.stall_frac", median(&ckpt_frac), ckpt_frac.len());
    ledger.set(
        "runtime.train_tokens_per_s",
        tokens / median(run.steady()),
        run.steady().len(),
    );

    // Drain-only pass at prefetch depth 1: what the loader alone delivers
    // (read + CRC + parse; the files were just written, so this is the page
    // cache, not the disk).
    let (drained, drain_s) = ctx.tracer.scope("probe.loader_drain", || {
        let loader = ShardLoader::open(&data_dir)
            .expect("dataset opens")
            .with_prefetch_depth(1);
        let mut stream = loader.stream_epoch(0);
        let mut n = 0u64;
        while let Ok(Some(_)) = stream.next() {
            n += 1;
        }
        n
    });
    ledger.check("the drain pass delivers every shard", drained == shards);
    ledger.set(
        "data.loader.cold_mib_per_s",
        dataset_bytes as f64 / (1 << 20) as f64 / drain_s,
        1,
    );

    // Kernel probes at the shape of one streamed sequence.
    let dataset = load_node_dataset(&data_dir).expect("dataset reassembles");
    let prepared = torchgt::runtime::prepare_node_dataset(&dataset, z.seq_len, false, 1, seed);
    let seq = &prepared.sequences[0];
    let shape = AttnShape {
        hidden: HIDDEN,
        heads: HEADS,
        graph: &seq.graph,
        mask: &seq.mask,
    };
    let host_fma = probes::host_rows(ledger, &mut ctx.tracer);
    let mut model = Graphormer::new(
        GraphormerConfig {
            feat_dim: dataset.feat_dim,
            hidden: HIDDEN,
            layers: LAYERS,
            heads: HEADS,
            ffn_mult: 4,
            out_dim: dataset.num_classes,
            max_degree: 64,
            max_spd: 8,
            dropout: 0.1,
        },
        seed,
    );
    probes::tensor_rows(
        ledger,
        &mut ctx.tracer,
        seq.mask.num_nodes(),
        HIDDEN,
        &mut model,
        host_fma,
        reps,
    );
    probes::attention_rows(ledger, &mut ctx.tracer, &shape, reps);
}
