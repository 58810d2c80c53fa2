//! Serving under load, measured for the `serve_load` and `serve_overload`
//! benches and their release gates in `tests/gates.rs`.
//!
//! A small Graphormer is trained on the arxiv stand-in, frozen to int8
//! through the accuracy-gated calibration pass, and served through the
//! micro-batching [`ServeLoop`] while client threads offer Zipf(1.1) queries
//! at a sweep of rates. Each rate is one [`LoadRow`]: the loop's stats and
//! the replies the clients' channel received.

use std::error::Error;
use std::time::Duration;
use torchgt::prelude::*;
use torchgt::serve::{freeze::with_dataset, DatasetRef, Query, ServeReply, Zipf};
use torchgt_compat::sync::channel::{bounded, unbounded};

type Result<T> = std::result::Result<T, Box<dyn Error>>;

const SEED: u64 = 7;
const SCALE: f64 = 0.002;
const CLIENTS: usize = 2;
const ZIPF_S: f64 = 1.1;

/// One offered rate of a sweep.
pub struct LoadRow {
    /// Aggregate offered load, queries per second.
    pub offered_qps: f64,
    /// Queries the clients sent.
    pub queries: usize,
    /// What the serve loop recorded.
    pub stats: ServeStats,
    /// Replies that carried a prediction.
    pub answered: u64,
    /// Replies that carried a typed rejection.
    pub shed: u64,
    /// Whether the accepted-query p99 is within the sweep's `slo_ms`.
    pub slo_met: bool,
}

/// What [`serve_load`] or [`serve_overload`] measured.
pub struct ServeSweep {
    /// Int8 tensors in the frozen artifact.
    pub tensors: usize,
    /// Held-out accuracy of the f32 model the artifact was frozen from.
    pub f32_acc: f64,
    /// Held-out accuracy of the quantized artifact.
    pub frozen_acc: f64,
    /// p99 bound of `slo_met`: the batching budget plus an equal execution
    /// allowance, ms.
    pub slo_ms: f64,
    /// One row per offered rate, in sweep order.
    pub rows: Vec<LoadRow>,
}

/// The batching budget plus an equal execution allowance, ms.
fn slo_ms(cfg: &ServeConfig) -> f64 {
    2.0 * cfg.latency_budget.as_secs_f64() * 1e3
}

/// Train two epochs on the arxiv stand-in and freeze to int8.
fn frozen_arxiv() -> Result<(NodeDataset, FrozenModel)> {
    let dataset = DatasetKind::OgbnArxiv.generate_node(SCALE, SEED);
    let mut trainer = TorchGtBuilder::new(Method::TorchGt)
        .seq_len(128)
        .epochs(2)
        .hidden(16)
        .layers(2)
        .heads(2)
        .seed(SEED)
        .build_node(&dataset)?;
    for _ in 0..2 {
        trainer.train_epoch();
    }
    let frozen = trainer.freeze(&CalibSet::from_dataset(&dataset, 128, SEED))?;
    let frozen = with_dataset(frozen, DatasetRef { kind: "arxiv".to_string(), scale: SCALE, seed: SEED });
    Ok((dataset, frozen))
}

/// Offer `queries` Zipf queries at `qps` from `CLIENTS` threads, each
/// sleeping `CLIENTS / qps` between sends, and count the replies.
fn drive(frozen: &FrozenModel, dataset: &NodeDataset, cfg: ServeConfig, queries: usize, qps: f64) -> Result<LoadRow> {
    let slo_ms = slo_ms(&cfg);
    let mut serve_loop =
        ServeLoop::new(frozen, dataset.graph.clone(), dataset.features.clone(), cfg, torchgt::obs::noop())?;
    let (tx, rx) = bounded::<Query>(64);
    let (reply_tx, reply_rx) = unbounded::<ServeReply>();
    let server = std::thread::spawn(move || serve_loop.run(rx));
    let num_nodes = dataset.graph.num_nodes();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (tx, reply_tx) = (tx.clone(), reply_tx.clone());
            let n = queries / CLIENTS + usize::from(c < queries % CLIENTS);
            let pace = Duration::from_secs_f64(CLIENTS as f64 / qps);
            let mut zipf = Zipf::new(num_nodes, ZIPF_S, SEED ^ (c as u64 + 1));
            std::thread::spawn(move || {
                for _ in 0..n {
                    if tx.send(Query::new(zipf.sample() as u32, reply_tx.clone())).is_err() {
                        break;
                    }
                    std::thread::sleep(pace);
                }
            })
        })
        .collect();
    drop((tx, reply_tx));
    for c in clients {
        c.join().map_err(|_| "a client thread panicked")?;
    }
    let stats = server.join().map_err(|_| "the serve loop panicked")?;
    let (mut answered, mut shed) = (0, 0);
    while let Ok(reply) = reply_rx.recv() {
        if reply.is_shed() {
            shed += 1;
        } else {
            answered += 1;
        }
    }
    let slo_met = stats.p99_latency_ms <= slo_ms;
    Ok(LoadRow { offered_qps: qps, queries, stats, answered, shed, slo_met })
}

/// Serve `queries` queries at each rate of `rates` under `cfg`, with the
/// fault plan `faults` installed for the sweep (not for the training).
fn sweep(cfg: ServeConfig, queries: usize, rates: [f64; 3], faults: Option<&str>) -> Result<ServeSweep> {
    let (dataset, frozen) = frozen_arxiv()?;
    if let Some(spec) = faults {
        torchgt::faults::install(spec.parse::<FaultSpec>()?);
    }
    let rows = rates.iter().map(|&qps| drive(&frozen, &dataset, cfg, queries, qps)).collect::<Result<_>>();
    torchgt::faults::clear();
    let (tensors, f32_acc, frozen_acc) = (frozen.tensors.len(), frozen.f32_acc, frozen.frozen_acc);
    Ok(ServeSweep { tensors, f32_acc, frozen_acc, slo_ms: slo_ms(&cfg), rows: rows? })
}

/// 256 queries at 200, 500 and 1,000 queries/s, windows of up to 8 flushed
/// after 25 ms, no admission control: the SLO is 50 ms.
pub fn serve_load() -> Result<ServeSweep> {
    let cfg =
        ServeConfig { max_batch: 8, latency_budget: Duration::from_millis(25), ctx_nodes: 32, ..Default::default() };
    sweep(cfg, 256, [200.0, 500.0, 1000.0], None)
}

/// Serving past saturation. Every batch stalls 4 ms (the fault plane's
/// `serve.slow`), so windows of 8 give the loop a capacity of
/// ≈ 2,000 queries/s whatever the host; 1,200 queries are offered at 0.5×,
/// 1× and 2× that, with a 5 ms budget and shedding past a backlog of 16.
pub fn serve_overload() -> Result<ServeSweep> {
    let cfg = ServeConfig {
        max_batch: 8,
        latency_budget: Duration::from_millis(5),
        ctx_nodes: 32,
        shed_watermark: Some(16),
        ..Default::default()
    };
    sweep(cfg, 1200, [1000.0, 2000.0, 4000.0], Some("seed=7,serve.slow=1@4ms"))
}
