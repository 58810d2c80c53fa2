//! `serve_zipf`: the read-only use of the `model`/`tensor` code — train
//! briefly, freeze to int8 (accuracy-gated), save and load the artifact, then
//! serve Zipf(1.1) node queries through the micro-batching `ServeLoop`.
//!
//! Two phases, because they answer different questions. **Open loop**: one
//! generator sends at a fixed 500 queries/s whatever the server does —
//! independent users do not wait for each other — and every latency is
//! counted from the instant the query was *due*, so generator lateness and
//! queueing behind a stall both show. **Closed loop**: 64 queries kept in
//! flight — eight full micro-batches, so the server never waits on the
//! generator thread's wake-up — which gives a capacity number that is
//! continuous and repeatable.
//!
//! The closed loop runs in rounds of 512 queries; a round is one timed
//! operation on the host clock, like an epoch of a training workload.

use crate::ledger::{median, quantile, Ledger, Tracer};
use crate::Ctx;
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};
use torchgt::prelude::*;
use torchgt::serve::batch::pack_queries;
use torchgt::serve::{ego_subgraph, Query, Zipf};
use torchgt_compat::sync::channel::{bounded, unbounded};

const OPEN_QPS: f64 = 500.0;
/// Latency limit on the open loop's p99, from due time. Serving latency
/// here is set by the arrival schedule (a batch of 8 fills in 16 ms) and by
/// the host's stalls — the same program measured a p99 of 27-63 ms in
/// ordinary runs and 91-227 ms in disturbed ones — so it cannot be held
/// within a relative bound, and the limit is placed where only a server that
/// falls behind the 500 queries/s arrives: a backlog growing by 50 queries/s
/// passes it within the phase. A run over the limit, a shed or unanswered
/// query counting as over, fails its operations.
const P99_LIMIT_MS: f64 = 500.0;
const IN_FLIGHT: usize = 64;
const ZIPF_S: f64 = 1.1;
const SERVE: ServeConfig = ServeConfig {
    max_batch: 8,
    latency_budget: Duration::from_millis(25),
    ctx_nodes: 32,
    shed_watermark: None,
    deadline: None,
};

struct Sizes {
    scale: f64,
    seq_len: usize,
    train_epochs: usize,
    /// Queries per closed-loop round.
    round: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            scale: 0.002,
            seq_len: 128,
            train_epochs: 2,
            round: 128,
        }
    } else {
        Sizes {
            scale: 0.01,
            seq_len: 128,
            train_epochs: 2,
            round: 512,
        }
    }
}

/// What one set-up produces and the spans it timed.
struct Ready {
    dataset: NodeDataset,
    frozen: FrozenModel,
    freeze_s: f64,
    load_ms: f64,
    artifact_bytes: u64,
}

fn set_up(
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    dir: &Path,
    seed: u64,
    z: &Sizes,
    tag: usize,
) -> Ready {
    let (dataset, _) = tracer.scope("generate", || {
        DatasetKind::OgbnArxiv.generate_node(z.scale, seed)
    });
    let (mut trainer, _) = tracer.scope("build", || {
        TorchGtBuilder::new(Method::TorchGt)
            .seq_len(z.seq_len)
            .hidden(16)
            .layers(2)
            .heads(2)
            .seed(seed)
            .build_node(&dataset)
            .expect("serve_zipf configuration is valid")
    });
    tracer.scope("train", || {
        for _ in 0..z.train_epochs {
            Trainer::train_epoch(&mut trainer);
        }
    });
    let (frozen, freeze_s) = tracer.scope("freeze", || {
        let calib = CalibSet::from_dataset(&dataset, 128, seed);
        trainer
            .freeze(&calib)
            .expect("int8 freeze passes the accuracy gate")
    });
    let path = dir.join(format!("model-{tag}.tgtf"));
    tracer.scope("artifact_save", || {
        frozen.save(&path).expect("artifact saves")
    });
    let artifact_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let (loaded, load_s) = tracer.scope("artifact_load", || {
        FrozenModel::load(&path).expect("artifact loads")
    });
    ledger.check(
        "the artifact round-trips through save/load",
        loaded == frozen,
    );
    Ready {
        dataset,
        frozen: loaded,
        freeze_s,
        load_ms: load_s * 1e3,
        artifact_bytes,
    }
}

fn serve_loop(ready: &Ready, recorder: RecorderHandle) -> ServeLoop {
    ServeLoop::new(
        &ready.frozen,
        ready.dataset.graph.clone(),
        ready.dataset.features.clone(),
        SERVE,
        recorder,
    )
    .expect("serve loop builds")
}

pub fn run(ctx: &mut Ctx) {
    let z = sizes(ctx.smoke);
    let seed = ctx.seed;

    // Set-up, repeated: everything up to the first query.
    let mut setups = Vec::new();
    let mut ready = None;
    ctx.tracer.begin("setup");
    while ctx.more_setups(&setups) {
        let i = setups.len();
        let (r, timed) = ctx.clock.time(|| {
            let r = set_up(&mut ctx.tracer, &mut ctx.ledger, &ctx.dir, seed, &z, i);
            // Building the loop (executor: dequantize + int8 head) is set-up too.
            drop(serve_loop(&r, torchgt::obs::noop()));
            r
        });
        setups.push(timed);
        ready = Some(r);
    }
    ctx.tracer.end();
    let ready = ready.expect("at least one set-up ran");
    let nodes = ready.dataset.graph.num_nodes();
    let recorder: RecorderHandle = if ctx.trace {
        std::sync::Arc::new(MemoryRecorder::default())
    } else {
        torchgt::obs::noop()
    };
    let open_s = ctx.measure_seconds() * 0.6;
    let closed_s = ctx.measure_seconds() * 0.4;

    // ---- open loop ------------------------------------------------------
    ctx.tracer.begin("open_loop");
    let total = (open_s * OPEN_QPS) as usize;
    let (tx, rx) = bounded::<Query>(total.max(1));
    let (reply_tx, reply_rx) = unbounded::<ServeReply>();
    let mut looped = serve_loop(&ready, recorder.clone());
    let server = thread::spawn(move || looped.run(rx));
    let mut zipf = Zipf::new(nodes, ZIPF_S, seed ^ 0x5E21E);
    let mut late_ms = Vec::with_capacity(total);
    let mut sent_nodes = Vec::with_capacity(total);
    let t0 = Instant::now();
    for i in 0..total {
        let due = t0 + Duration::from_secs_f64(i as f64 / OPEN_QPS);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        let node = zipf.sample() as u32;
        sent_nodes.push(node);
        // Latency is counted from the due time, not the send time.
        tx.send(Query {
            node,
            enqueued: due,
            reply: reply_tx.clone(),
        })
        .expect("server is running");
    }
    drop(tx);
    drop(reply_tx);
    let open_stats = server.join().expect("serve loop thread");
    ctx.tracer.end();
    ctx.rss_mib = Some(crate::ledger::peak_rss_mib());
    let mut latencies_ms = Vec::with_capacity(total);
    let mut answers = Vec::with_capacity(total);
    let mut shed = 0usize;
    while let Ok(reply) = reply_rx.recv() {
        match reply.prediction() {
            Some(p) => {
                latencies_ms.push(p.latency.as_secs_f64() * 1e3);
                answers.push((p.node, p.label));
            }
            None => shed += 1,
        }
    }
    // A shed or unanswered query counts as over any limit.
    let missing = total - latencies_ms.len();
    latencies_ms.extend(std::iter::repeat_n(f64::MAX, missing));

    // ---- closed loop ----------------------------------------------------
    // Rounds of `z.round` queries with `IN_FLIGHT` outstanding; a round is one
    // timed operation, and the host clock samples between rounds (the server
    // sits idle for those few milliseconds with an empty queue).
    ctx.tracer.begin("closed_loop");
    let (tx, rx) = bounded::<Query>(IN_FLIGHT * 2);
    let (reply_tx, reply_rx) = unbounded::<ServeReply>();
    let mut looped = serve_loop(&ready, recorder.clone());
    let server = thread::spawn(move || looped.run(rx));
    let (mut sent, mut answered) = (0u64, 0u64);
    let mut rounds = Vec::new();
    let t0 = Instant::now();
    while rounds.len() < 3 || t0.elapsed().as_secs_f64() < closed_s {
        let (_, timed) = ctx.clock.time(|| {
            let (mut out, mut back) = (0, 0);
            while back < z.round {
                while out < z.round && out - back < IN_FLIGHT {
                    tx.send(Query::new(zipf.sample() as u32, reply_tx.clone()))
                        .expect("server is running");
                    out += 1;
                }
                let reply = reply_rx
                    .recv()
                    .expect("server replies while queries are in flight");
                answered += u64::from(!reply.is_shed());
                back += 1;
            }
            sent += out as u64;
        });
        rounds.push(timed);
    }
    drop(tx);
    drop(reply_tx);
    let closed_stats = server.join().expect("serve loop thread");
    ctx.tracer.end();

    // ---- checks ---------------------------------------------------------
    let ledger = &mut ctx.ledger;
    ledger.check(
        "open loop: exactly one reply per query",
        answers.len() + shed == total,
    );
    ledger.check("open loop: zero shed", shed == 0 && open_stats.shed == 0);
    ledger.check(
        "closed loop: exactly one reply per query, zero shed",
        answered == sent && closed_stats.shed == 0,
    );
    let mut answered_nodes: Vec<u32> = answers.iter().map(|a| a.0).collect();
    answered_nodes.sort_unstable();
    sent_nodes.sort_unstable();
    ledger.check(
        "open loop: replies name the queried nodes",
        answered_nodes == sent_nodes,
    );
    // 64 sampled answers against a direct executor prediction of the same
    // query alone in its batch.
    let mut exec = FrozenExecutor::new(&ready.frozen).expect("executor builds");
    let step = (answers.len() / 64).max(1);
    let agree = answers.iter().step_by(step).take(64).all(|&(node, label)| {
        let sub = ego_subgraph(&ready.dataset.graph, node, SERVE.ctx_nodes);
        let packed = pack_queries(&[sub], &ready.dataset.features, ready.dataset.feat_dim);
        let batch = SequenceBatch {
            features: &packed.features,
            graph: &packed.graph,
            spd: None,
        };
        exec.forward_argmax(&batch, Pattern::Sparse(&packed.mask))[packed.segments[0].0] == label
    });
    ledger.check(
        "64 sampled answers equal a direct FrozenExecutor prediction",
        agree,
    );
    let acc_drop = ready.frozen.f32_acc - ready.frozen.frozen_acc;
    ledger.check(
        "serve.acc_drop is within the freeze gate",
        acc_drop <= FreezeOptions::default().max_acc_drop,
    );
    ledger.ops(total as u64 + sent, (missing + shed) as u64);
    let p50 = median(&latencies_ms);
    let p99 = quantile(&latencies_ms, 0.99);
    // The limit applies to the highest percentile with ten samples beyond
    // it: p99 on a full run, lower on the few hundred queries of `--smoke`.
    let guarded = quantile(&latencies_ms, (1.0 - 10.0 / total as f64).min(0.99));
    ledger.check(
        "open loop: tail latency from due time is within the limit",
        guarded <= P99_LIMIT_MS,
    );

    // Round 0 warms the executor's pools.
    let steady = &rounds[1..];
    println!(
        "open loop: {total} queries at {OPEN_QPS} queries/s, latency from due time p50={p50:.3} p90={:.3} p99={p99:.3} ms",
        quantile(&latencies_ms, 0.9)
    );
    ctx.report_ops(&setups, z.round as f64, steady);
    let ledger = &mut ctx.ledger;

    if !ctx.trace {
        return;
    }
    let round_raw: Vec<f64> = steady.iter().map(|t| t.raw_s).collect();
    ledger.set(
        "serve.capacity_qps",
        z.round as f64 / median(&round_raw),
        steady.len(),
    );
    ledger.set("serve.p50_ms", p50, total);
    ledger.set("serve.p99_ms", p99, total);
    ledger.set("serve.freeze.s", ready.freeze_s, 1);
    ledger.set("serve.artifact.bytes", ready.artifact_bytes as f64, 1);
    ledger.set("serve.load.ms", ready.load_ms, 1);
    ledger.set(
        "serve.batch.avg_size",
        open_stats.avg_batch_size,
        open_stats.batches as usize,
    );
    ledger.set(
        "serve.queue.max_depth",
        open_stats.max_queue_depth as f64,
        1,
    );
    ledger.set("serve.shed_frac", shed as f64 / total.max(1) as f64, total);
    ledger.set("serve.acc_drop", acc_drop, 1);
    ledger.set(
        "serve.gen.late_ms_p99",
        quantile(&late_ms, 0.99),
        late_ms.len(),
    );
    // Serving attaches the recorder to the loop only; its cost is a handful
    // of gauge writes per run, below what two runs can resolve.
    ledger.set("obs.trace_overhead_frac", 0.0, 0);

    // Executor probe: one full micro-batch, forward only.
    let mut probe = Zipf::new(nodes, ZIPF_S, seed ^ 0xBA7C4);
    let subs: Vec<_> = (0..SERVE.max_batch)
        .map(|_| ego_subgraph(&ready.dataset.graph, probe.sample() as u32, SERVE.ctx_nodes))
        .collect();
    let packed = pack_queries(&subs, &ready.dataset.features, ready.dataset.feat_dim);
    let batch = SequenceBatch {
        features: &packed.features,
        graph: &packed.graph,
        spd: None,
    };
    ctx.tracer.begin("probe.executor");
    let reps = if ctx.smoke { 8 } else { 200 };
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(exec.forward_argmax(&batch, Pattern::Sparse(&packed.mask)));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ctx.tracer.end();
    ledger.set("serve.exec.batch_ms", median(&samples), samples.len());
    ledger.set(
        "sparse.mask.nnz_per_token",
        packed.mask.num_arcs() as f64 / packed.mask.num_nodes() as f64,
        1,
    );
}
