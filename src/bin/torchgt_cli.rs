//! `torchgt` command-line interface.
//!
//! ```text
//! torchgt_cli train  --dataset arxiv --method torchgt --epochs 8 [--scale 0.01]
//!                    [--seq-len 512] [--model graphormer|gt] [--hidden 64]
//!                    [--layers 3] [--heads 8] [--lr 2e-3] [--seed 1]
//!                    [--metrics out.json]
//!                    [--checkpoint-dir dir] [--checkpoint-every 1]
//!                    [--resume] [--crash-after 2]
//! torchgt_cli freeze --dataset arxiv --epochs 2 --out model.tgtf
//!                    [--scheme int8|int16] [--max-drop 0.01] [--calib 256]
//! torchgt_cli serve  --model model.tgtf --queries 256 --qps 500
//!                    [--zipf 1.1] [--max-batch 8] [--budget-ms 50]
//!                    [--metrics out.json]
//! torchgt_cli datagen --dataset papers100m --scale 0.002 --seed 7 \
//!                    --out shards/ [--shard-nodes 16384]
//! torchgt_cli info   --dataset arxiv            # published dataset statistics
//! torchgt_cli maxseq [--gpus 8]                 # Fig. 9(a)-style memory limits
//! torchgt_cli datasets                          # list available stand-ins
//! ```
//!
//! Every subcommand's flags live in a shared [`FlagSpec`] table; the parser
//! is one loop over that table, so adding a flag is one row, and an unknown
//! flag or subcommand is always exit code 2 plus usage. The bare legacy
//! invocation (`torchgt_cli --dataset …`) keeps working as an alias for
//! `train`.
//!
//! `--metrics <path>` attaches an in-memory recorder and writes the full
//! observability report as pretty-printed JSON — for `train` that is span
//! timings, per-epoch phase breakdowns, per-step traces, simulated
//! all-to-all volume, β_thre transitions; for `serve` it is the serving
//! gauges (p50/p99 latency, queue depth, throughput, batch occupancy).
//!
//! `train --checkpoint-dir <dir>` snapshots the full training state every
//! `--checkpoint-every` epochs; `--resume` restores bit-exactly;
//! `--crash-after <n>` simulates a crash (exit code 3, snapshots intact).
//! `train --elastic` runs the distributed supervisor, shrink rung armed, over
//! `--world <P>` simulated ranks (`--lose-rank <rank>@<epoch>` scripts a
//! permanent loss, `--min-ranks`/`--max-retries` bound the recovery ladder).
//! `train --rebalance` runs the closed-loop straggler rebalancer instead
//! (`--slow-rank <r>`/`--slow-delay-ms <ms>` inject a deterministic
//! straggler; `--overlap on|off` toggles async collectives with
//! compute/communication overlap — losses are bit-identical either way).
//!
//! `datagen` writes a sharded on-disk copy of a stand-in dataset (`TGDS`
//! shards plus a `TGDM` manifest); `train --data-dir <dir>` then streams it
//! shard-by-shard through a prefetching loader instead of materialising the
//! whole graph in memory — the epoch losses are bit-identical to the
//! in-memory path, and the run self-reports its peak RSS so scripts can
//! assert the out-of-core claim. Checkpoints taken from a streaming run
//! embed the dataset's manifest hash; `--resume` against a *different*
//! dataset is refused unless `--allow-dataset-mismatch` is passed.
//!
//! `freeze` trains a model, then runs the post-training quantization pass:
//! calibrate on held-out nodes, quantize per-row, and **gate** — the freeze
//! is refused (exit 1) if quantized top-1 accuracy drops more than
//! `--max-drop` below the f32 reference. The artifact lands at `--out` in
//! the CRC-guarded `TGTF` format with dataset provenance embedded, so
//! `serve` can regenerate the identical graph by seed.

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use torchgt::prelude::*;
use torchgt::serve::{DatasetRef, Query, ServeReply, Zipf};
use torchgt::{ModelKind, TorchGtBuilder};
use torchgt_compat::sync::channel::{bounded, unbounded};

/// Exit code of a `--crash-after` simulated crash (distinct from usage and
/// failure codes so scripts can assert on it).
const CRASH_EXIT: u8 = 3;

/// One row of a subcommand's flag table.
struct FlagSpec {
    name: &'static str,
    /// `true`: `--name <value>` (the next argument is consumed).
    /// `false`: a bare switch.
    takes_value: bool,
    help: &'static str,
}

impl FlagSpec {
    const fn value(name: &'static str, help: &'static str) -> Self {
        Self { name, takes_value: true, help }
    }
    const fn switch(name: &'static str, help: &'static str) -> Self {
        Self { name, takes_value: false, help }
    }
}

/// One subcommand: its name, a one-line summary for usage, and its flags.
struct SubSpec {
    name: &'static str,
    summary: &'static str,
    flags: &'static [FlagSpec],
}

const TRAIN_FLAGS: &[FlagSpec] = &[
    FlagSpec::value("dataset", "stand-in dataset (try `torchgt_cli datasets`)"),
    FlagSpec::value("method", "attention method: torchgt|gp-flash|gp-sparse|gp-raw"),
    FlagSpec::value("scale", "dataset scale factor (default sizes to ~2k nodes)"),
    FlagSpec::value("epochs", "training epochs (default 8)"),
    FlagSpec::value("seed", "PRNG seed (default 1)"),
    FlagSpec::value("model", "architecture: graphormer|gt (default graphormer)"),
    FlagSpec::value("seq-len", "sequence length (default 512)"),
    FlagSpec::value("hidden", "hidden width (default 64)"),
    FlagSpec::value("layers", "encoder layers (default 3)"),
    FlagSpec::value("heads", "attention heads (default 8)"),
    FlagSpec::value("lr", "learning rate (default 2e-3)"),
    FlagSpec::value("backend", "kernel backend: scalar|avx2|avx512 (default auto)"),
    FlagSpec::value("metrics", "write the observability report as JSON here"),
    FlagSpec::value("data-dir", "stream a `datagen` shard directory instead of generating in-memory"),
    FlagSpec::switch("shuffle-shards", "out-of-core: seeded per-epoch shard order shuffle"),
    FlagSpec::switch("allow-dataset-mismatch", "resume even if the snapshot's dataset hash differs"),
    FlagSpec::value("checkpoint-dir", "snapshot training state into this directory"),
    FlagSpec::value("checkpoint-every", "snapshot period in epochs (default 1)"),
    FlagSpec::switch("resume", "restore from the latest snapshot and continue"),
    FlagSpec::value("crash-after", "simulate a crash after N completed epochs"),
    FlagSpec::switch("elastic", "elastic data-parallel driver over simulated ranks"),
    FlagSpec::value("world", "elastic/rebalance: initial rank count (default 4)"),
    FlagSpec::value("min-ranks", "elastic: never shrink below this (default 1)"),
    FlagSpec::value("lose-rank", "elastic: scripted permanent loss <rank>@<epoch>"),
    FlagSpec::value("max-retries", "elastic: restore attempts per generation (default 1)"),
    FlagSpec::value("overlap", "async collectives with compute overlap: on|off (default on)"),
    FlagSpec::switch("rebalance", "closed-loop straggler rebalancing over --world simulated ranks"),
    FlagSpec::value("slow-rank", "inject a straggler: global rank slowed on every send"),
    FlagSpec::value("slow-delay-ms", "per-send delay of the --slow-rank straggler (default 1)"),
    FlagSpec::value("faults", "seeded fault plan, e.g. seed=7,disk.read_err=0.2,comm.delay=0.1@1ms"),
];

const FREEZE_FLAGS: &[FlagSpec] = &[
    FlagSpec::value("dataset", "stand-in dataset to train and calibrate on"),
    FlagSpec::value("method", "attention method: torchgt|gp-flash|gp-sparse|gp-raw"),
    FlagSpec::value("scale", "dataset scale factor (default sizes to ~2k nodes)"),
    FlagSpec::value("epochs", "training epochs before the freeze (default 2)"),
    FlagSpec::value("seed", "PRNG seed (default 1)"),
    FlagSpec::value("model", "architecture: graphormer|gt (default graphormer)"),
    FlagSpec::value("seq-len", "sequence length (default 512)"),
    FlagSpec::value("hidden", "hidden width (default 64)"),
    FlagSpec::value("layers", "encoder layers (default 3)"),
    FlagSpec::value("heads", "attention heads (default 8)"),
    FlagSpec::value("lr", "learning rate (default 2e-3)"),
    FlagSpec::value("backend", "kernel backend: scalar|avx2|avx512 (default auto)"),
    FlagSpec::value("data-dir", "train on a `datagen` shard directory (embeds its manifest hash)"),
    FlagSpec::value("out", "where to write the TGTF artifact (default model.tgtf)"),
    FlagSpec::value("calib", "calibration queries from the held-out split (default 256)"),
    FlagSpec::value("scheme", "quantization width: int8|int16 (default int8)"),
    FlagSpec::value("max-drop", "max tolerated top-1 accuracy drop (default 0.01)"),
    FlagSpec::value("faults", "seeded fault plan, e.g. seed=7,disk.read_err=0.2"),
];

const SERVE_FLAGS: &[FlagSpec] = &[
    FlagSpec::value("model", "TGTF artifact to serve (default model.tgtf)"),
    FlagSpec::value("queries", "total load-generator queries (default 256)"),
    FlagSpec::value("qps", "aggregate offered load, queries/sec (default 500)"),
    FlagSpec::value("zipf", "load skew exponent, 0 = uniform (default 1.1)"),
    FlagSpec::value("clients", "concurrent load-generator threads (default 2)"),
    FlagSpec::value("queue", "bounded request-queue capacity (default 64)"),
    FlagSpec::value("max-batch", "micro-batch flush size (default 8)"),
    FlagSpec::value("budget-ms", "micro-batch latency budget in ms (default 50)"),
    FlagSpec::value("ctx", "ego-subgraph context nodes per query (default 32)"),
    FlagSpec::value("backend", "kernel backend: scalar|avx2|avx512 (default auto)"),
    FlagSpec::value("metrics", "write serving gauges as JSON here"),
    FlagSpec::value("dataset", "override the artifact's dataset provenance"),
    FlagSpec::value("scale", "override the artifact's dataset scale"),
    FlagSpec::value("data-seed", "override the artifact's dataset seed"),
    FlagSpec::value("shed-watermark", "shed when the backlog behind a query exceeds this depth"),
    FlagSpec::value("deadline-ms", "shed queries older than this at dequeue"),
    FlagSpec::value("faults", "seeded fault plan, e.g. seed=7,serve.slow=0.1@5ms,serve.burst=0.2@8"),
];

const DATAGEN_FLAGS: &[FlagSpec] = &[
    FlagSpec::value("dataset", "stand-in dataset to shard (try `torchgt_cli datasets`)"),
    FlagSpec::value("scale", "dataset scale factor (default sizes to ~2k nodes)"),
    FlagSpec::value("seed", "generator seed — fully determines dataset content (default 1)"),
    FlagSpec::value("out", "directory for the TGDS shards + TGDM manifest (default data)"),
    FlagSpec::value("shard-nodes", "nodes per shard (default 16384)"),
    FlagSpec::value("faults", "seeded fault plan, e.g. seed=7,disk.read_err=0.2"),
];

const SUBCOMMANDS: &[SubSpec] = &[
    SubSpec {
        name: "train",
        summary: "train a graph transformer on a generated stand-in dataset",
        flags: TRAIN_FLAGS,
    },
    SubSpec {
        name: "freeze",
        summary: "train, then quantize into a TGTF artifact (accuracy-gated)",
        flags: FREEZE_FLAGS,
    },
    SubSpec {
        name: "serve",
        summary: "answer Zipf query traffic from a frozen model, micro-batched",
        flags: SERVE_FLAGS,
    },
    SubSpec {
        name: "datagen",
        summary: "write a stand-in dataset as on-disk TGDS shards for --data-dir",
        flags: DATAGEN_FLAGS,
    },
    SubSpec {
        name: "info",
        summary: "published statistics of a dataset stand-in",
        flags: &[FlagSpec::value("dataset", "dataset to describe")],
    },
    SubSpec {
        name: "maxseq",
        summary: "Fig. 9(a)-style max sequence length per GPU count",
        flags: &[FlagSpec::value("gpus", "GPU counts to sweep (default 8)")],
    },
    SubSpec { name: "datasets", summary: "list available stand-ins", flags: &[] },
];

/// Parse `--key value` / `--switch` arguments against a subcommand's flag
/// table.
fn parse_flags(args: &[String], sub: &SubSpec) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(key) = args[i].strip_prefix("--") else {
            return Err(format!("unexpected argument `{}`", args[i]));
        };
        let Some(spec) = sub.flags.iter().find(|f| f.name == key) else {
            let mut hint = format!("unknown flag `--{key}`");
            if sub.flags.is_empty() {
                hint.push_str(" (this command takes no flags)");
            } else {
                hint.push_str(" (allowed:");
                for f in sub.flags {
                    hint.push_str(" --");
                    hint.push_str(f.name);
                }
                hint.push(')');
            }
            return Err(hint);
        };
        let value = if spec.takes_value {
            i += 1;
            match args.get(i) {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => return Err(format!("flag `--{key}` needs a value ({})", spec.help)),
            }
        } else {
            "true".to_string()
        };
        map.insert(key.to_string(), value);
        i += 1;
    }
    Ok(map)
}

fn dataset_kind(name: &str) -> Option<DatasetKind> {
    Some(match name {
        "arxiv" | "ogbn-arxiv" => DatasetKind::OgbnArxiv,
        "products" | "ogbn-products" => DatasetKind::OgbnProducts,
        "papers" | "papers100m" | "ogbn-papers100m" => DatasetKind::OgbnPapers100M,
        "amazon" => DatasetKind::Amazon,
        "flickr" => DatasetKind::Flickr,
        "aminer" | "aminer-cs" => DatasetKind::AminerCS,
        "pokec" => DatasetKind::Pokec,
        _ => return None,
    })
}

fn method(name: &str) -> Option<Method> {
    Some(match name {
        "torchgt" => Method::TorchGt,
        "gp-flash" | "flash" => Method::GpFlash,
        "gp-sparse" | "sparse" => Method::GpSparse,
        "gp-raw" | "raw" => Method::GpRaw,
        _ => return None,
    })
}

fn usage() -> ExitCode {
    eprintln!("usage: torchgt_cli <subcommand> [--flags]\n\nsubcommands:");
    for sub in SUBCOMMANDS {
        eprintln!("  {:<9} {}", sub.name, sub.summary);
    }
    eprintln!(
        "\nrun `torchgt_cli train --dataset arxiv --method torchgt --epochs 5` to start,\n\
         then `torchgt_cli freeze --out model.tgtf` and `torchgt_cli serve` to deploy"
    );
    ExitCode::from(2)
}

/// Resolve the kernel backend before any tensor work runs: an unknown name
/// or an ISA this CPU lacks must be a usage error here, not a SIGILL (or
/// panic) mid-run. Returns the resolved backend name.
fn resolve_backend(flags: &HashMap<String, String>) -> Result<String, ExitCode> {
    if let Some(name) = flags.get("backend") {
        std::env::set_var(torchgt_tensor::backend::ENV_VAR, name);
    }
    match torchgt_tensor::backend::from_env() {
        Ok(be) => Ok(be.name().to_string()),
        Err(e) => {
            eprintln!("{e}");
            Err(ExitCode::from(2))
        }
    }
}

/// Install the seeded fault plan before any I/O or serving runs: `--faults`
/// takes the same spec grammar as the `TORCHGT_FAULTS` environment variable
/// (the flag wins when both are set), and a malformed spec must be a usage
/// error here, not a mid-run surprise. Returns whether a plan is active.
fn resolve_faults(flags: &HashMap<String, String>) -> Result<bool, ExitCode> {
    if let Some(spec) = flags.get("faults") {
        std::env::set_var(torchgt::faults::ENV_VAR, spec);
    }
    match torchgt::faults::install_from_env() {
        Ok(active) => {
            if active {
                if let Some(spec) = torchgt::faults::installed() {
                    println!("fault injection active (seed {})", spec.seed);
                }
            }
            Ok(active)
        }
        Err(e) => {
            eprintln!("bad fault spec: {e}");
            Err(ExitCode::from(2))
        }
    }
}

/// Generate the node dataset a subcommand runs on, announcing what came out.
/// Returns `(kind, dataset, flag-name, scale, seed)` so freeze can embed the
/// provenance in the artifact.
fn generate_dataset(
    flags: &HashMap<String, String>,
) -> Result<(DatasetKind, NodeDataset, String, f64, u64), ExitCode> {
    let get = |k: &str, d: &str| flags.get(k).cloned().unwrap_or_else(|| d.to_string());
    let name = get("dataset", "arxiv");
    let Some(kind) = dataset_kind(&name) else {
        eprintln!("unknown dataset (try `torchgt_cli datasets`)");
        return Err(ExitCode::from(2));
    };
    let scale: f64 = get("scale", "")
        .parse()
        .unwrap_or_else(|_| (2000.0 / kind.spec().nodes as f64).min(1.0));
    let seed: u64 = get("seed", "1").parse().unwrap_or(1);
    let dataset = kind.generate_node(scale, seed);
    println!(
        "{}-like stand-in: {} nodes, {} edges, {} classes (scale {scale})",
        kind.spec().name,
        dataset.graph.num_nodes(),
        dataset.graph.num_edges(),
        dataset.num_classes
    );
    Ok((kind, dataset, name, scale, seed))
}

/// Build a node trainer from the shared train/freeze hyper-parameter flags.
fn build_trainer(
    flags: &HashMap<String, String>,
    dataset: &NodeDataset,
    m: Method,
    epochs: usize,
    seed: u64,
) -> Result<NodeTrainer, ExitCode> {
    let get = |k: &str, d: &str| flags.get(k).cloned().unwrap_or_else(|| d.to_string());
    let model = match get("model", "graphormer").as_str() {
        "gt" => ModelKind::Gt,
        _ => ModelKind::Graphormer,
    };
    TorchGtBuilder::new(m)
        .model(model)
        .seq_len(get("seq-len", "512").parse().unwrap_or(512))
        .epochs(epochs)
        .hidden(get("hidden", "64").parse().unwrap_or(64))
        .layers(get("layers", "3").parse().unwrap_or(3))
        .heads(get("heads", "8").parse().unwrap_or(8))
        .lr(get("lr", "2e-3").parse().unwrap_or(2e-3))
        .seed(seed)
        .build_node(dataset)
        .map_err(|e| {
            eprintln!("invalid configuration: {e}");
            ExitCode::from(2)
        })
}

fn print_epoch_header() {
    println!(
        "{:>5} {:>9} {:>10} {:>10} {:>12}",
        "epoch", "loss", "train_acc", "test_acc", "sim t (s)"
    );
}

fn print_epoch(s: &EpochStats) {
    println!(
        "{:>5} {:>9.4} {:>10.4} {:>10.4} {:>12.6}",
        s.epoch, s.loss, s.train_acc, s.test_acc, s.sim_seconds
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = args.first() else {
        return usage();
    };
    // Legacy alias: a bare `torchgt_cli --dataset …` invocation is `train`.
    let (command, rest): (&str, &[String]) = if first.starts_with("--") {
        ("train", &args[..])
    } else {
        (first.as_str(), &args[1..])
    };
    let Some(sub) = SUBCOMMANDS.iter().find(|s| s.name == command) else {
        eprintln!("unknown subcommand `{command}`");
        return usage();
    };
    let flags = match parse_flags(rest, sub) {
        Ok(flags) => flags,
        Err(msg) => {
            eprintln!("{msg}");
            return usage();
        }
    };
    match sub.name {
        "datasets" => run_datasets(),
        "info" => run_info(&flags),
        "maxseq" => run_maxseq(&flags),
        "datagen" => run_datagen(&flags),
        "train" => run_train(&flags),
        "freeze" => run_freeze(&flags),
        "serve" => run_serve(&flags),
        _ => usage(),
    }
}

/// Every node-level stand-in with its canonical CLI alias (the inverse of
/// [`dataset_kind`]).
const NODE_KINDS: &[(&str, DatasetKind)] = &[
    ("arxiv", DatasetKind::OgbnArxiv),
    ("products", DatasetKind::OgbnProducts),
    ("papers100m", DatasetKind::OgbnPapers100M),
    ("amazon", DatasetKind::Amazon),
    ("flickr", DatasetKind::Flickr),
    ("aminer", DatasetKind::AminerCS),
    ("pokec", DatasetKind::Pokec),
];

/// Canonical CLI alias for a node-level dataset kind.
fn kind_alias(kind: DatasetKind) -> &'static str {
    NODE_KINDS.iter().find(|(_, k)| *k == kind).map(|(a, _)| *a).unwrap_or("arxiv")
}

/// `datasets`: list the stand-ins with the *effective* (clamped) generation
/// values at each dataset's default scale, so what `train`/`datagen` will
/// actually produce is visible up front rather than the published sizes.
fn run_datasets() -> ExitCode {
    println!("node-level stand-ins (effective generated sizes at the default scale):");
    println!(
        "  {:<11} {:<17} {:>8} {:>6} {:>8} {:>11}",
        "alias", "stand-in for", "nodes", "feats", "classes", "avg degree"
    );
    for &(alias, kind) in NODE_KINDS {
        let spec = kind.spec();
        let scale = (2000.0 / spec.nodes as f64).min(1.0);
        let eff = kind.effective(scale);
        println!(
            "  {:<11} {:<17} {:>8} {:>6} {:>8} {:>11.1}",
            alias, spec.name, eff.nodes, eff.feat_dim, eff.classes, eff.avg_degree
        );
    }
    println!("graph-level (via examples/benches): zinc molpcba malnet");
    ExitCode::SUCCESS
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); `None` on platforms without procfs.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// `datagen`: stream a stand-in dataset to disk as TGDS shards + a TGDM
/// manifest, announcing the effective (clamped) spec and the manifest hash.
fn run_datagen(flags: &HashMap<String, String>) -> ExitCode {
    let get = |k: &str, d: &str| flags.get(k).cloned().unwrap_or_else(|| d.to_string());
    if let Err(code) = resolve_faults(flags) {
        return code;
    }
    let Some(kind) = dataset_kind(&get("dataset", "arxiv")) else {
        eprintln!("unknown dataset (try `torchgt_cli datasets`)");
        return ExitCode::from(2);
    };
    let scale: f64 = get("scale", "")
        .parse()
        .unwrap_or_else(|_| (2000.0 / kind.spec().nodes as f64).min(1.0));
    let seed: u64 = get("seed", "1").parse().unwrap_or(1);
    let out = get("out", "data");
    let shard_nodes: usize = get("shard-nodes", "16384").parse().unwrap_or(16384).max(1);
    let report = match generate_to_dir(kind, scale, seed, Path::new(&out), shard_nodes) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("datagen failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let eff = &report.effective;
    println!(
        "{}-like stand-in at scale {scale}, seed {seed} (effective: {} nodes, {} feats, {} classes, avg degree {:.1})",
        kind.spec().name,
        eff.nodes,
        eff.feat_dim,
        eff.classes,
        eff.avg_degree
    );
    println!(
        "wrote {} shard(s) / {} arcs / {} bytes to {out}",
        report.manifest.shards.len(),
        report.manifest.total_arcs,
        report.total_bytes
    );
    println!("manifest hash: {}", report.hash);
    ExitCode::SUCCESS
}

fn run_info(flags: &HashMap<String, String>) -> ExitCode {
    let get = |k: &str, d: &str| flags.get(k).cloned().unwrap_or_else(|| d.to_string());
    let Some(kind) = dataset_kind(&get("dataset", "arxiv")) else {
        eprintln!("unknown dataset");
        return ExitCode::from(2);
    };
    let spec = kind.spec();
    println!("{}:", spec.name);
    println!("  nodes   {}", spec.nodes);
    println!("  edges   {}", spec.edges);
    println!("  feats   {}", spec.feats);
    println!("  classes {}", spec.classes);
    ExitCode::SUCCESS
}

fn run_maxseq(flags: &HashMap<String, String>) -> ExitCode {
    let get = |k: &str, d: &str| flags.get(k).cloned().unwrap_or_else(|| d.to_string());
    let gpus: usize = get("gpus", "8").parse().unwrap_or(8);
    let spec = GpuSpec::a100();
    let shape = ModelShape::graphormer_slim();
    println!("A100, GPH_Slim, degree-25 graph:");
    for p in 1..=gpus {
        let tgt = torchgt::perf::max_seq_len(&spec, &shape, LayoutKind::ClusterSparse, 25.0, p);
        let raw = torchgt::perf::max_seq_len(&spec, &shape, LayoutKind::Dense, 25.0, p);
        println!("  {p} GPU(s): TorchGT {}K, GP-RAW {}K", tgt >> 10, raw >> 10);
    }
    ExitCode::SUCCESS
}

fn run_train(flags: &HashMap<String, String>) -> ExitCode {
    let get = |k: &str, d: &str| flags.get(k).cloned().unwrap_or_else(|| d.to_string());
    let kernel_backend = match resolve_backend(flags) {
        Ok(name) => name,
        Err(code) => return code,
    };
    println!("kernel backend: {kernel_backend}");
    if let Err(code) = resolve_faults(flags) {
        return code;
    }
    let Some(m) = method(&get("method", "torchgt")) else {
        eprintln!("unknown method (torchgt|gp-flash|gp-sparse|gp-raw)");
        return ExitCode::from(2);
    };
    let epochs: usize = get("epochs", "8").parse().unwrap_or(8);
    if let Some(v) = flags.get("overlap") {
        match v.as_str() {
            "on" | "off" => std::env::set_var("TORCHGT_OVERLAP", v),
            _ => {
                eprintln!("--overlap wants on|off");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(dir) = flags.get("data-dir").cloned() {
        return run_train_streaming(flags, m, epochs, &dir, &kernel_backend);
    }
    let (_, dataset, _, _, seed) = match generate_dataset(flags) {
        Ok(d) => d,
        Err(code) => return code,
    };
    if flags.contains_key("rebalance") {
        if flags.contains_key("elastic") {
            eprintln!("--rebalance and --elastic cannot be combined");
            return ExitCode::from(2);
        }
        return run_rebalance(flags, m, &dataset, epochs, seed);
    }
    if flags.contains_key("elastic") {
        return run_elastic(flags, m, &dataset, epochs, seed);
    }
    let mut node_trainer = match build_trainer(flags, &dataset, m, epochs, seed) {
        Ok(t) => t,
        Err(code) => return code,
    };
    drive_trainer(flags, &mut node_trainer, epochs, &kernel_backend, false)
}

/// The `train --data-dir` path: open the sharded dataset, build a
/// [`StreamingTrainer`] over its prefetching loader, and drive it through
/// the same checkpoint/metrics loop as the in-memory path. Self-reports
/// peak RSS so scripts can assert the out-of-core memory claim.
fn run_train_streaming(
    flags: &HashMap<String, String>,
    m: Method,
    epochs: usize,
    dir: &str,
    kernel_backend: &str,
) -> ExitCode {
    let get = |k: &str, d: &str| flags.get(k).cloned().unwrap_or_else(|| d.to_string());
    if flags.contains_key("elastic") {
        eprintln!("--elastic and --data-dir cannot be combined");
        return ExitCode::from(2);
    }
    if flags.contains_key("rebalance") {
        eprintln!("--rebalance and --data-dir cannot be combined");
        return ExitCode::from(2);
    }
    let seed: u64 = get("seed", "1").parse().unwrap_or(1);
    let loader = match ShardLoader::open(Path::new(dir)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot open sharded dataset {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let loader = if flags.contains_key("shuffle-shards") { loader.with_shuffle(seed) } else { loader };
    let man = loader.manifest();
    println!(
        "streaming {}-like stand-in from {dir}: {} shard(s), {} nodes, {} arcs, {} classes ({})",
        man.kind.spec().name,
        loader.num_shards(),
        man.total_nodes,
        man.total_arcs,
        man.num_classes,
        loader.hash()
    );
    let model = match get("model", "graphormer").as_str() {
        "gt" => ModelKind::Gt,
        _ => ModelKind::Graphormer,
    };
    let built = TorchGtBuilder::new(m)
        .model(model)
        .seq_len(get("seq-len", "512").parse().unwrap_or(512))
        .epochs(epochs)
        .hidden(get("hidden", "64").parse().unwrap_or(64))
        .layers(get("layers", "3").parse().unwrap_or(3))
        .heads(get("heads", "8").parse().unwrap_or(8))
        .lr(get("lr", "2e-3").parse().unwrap_or(2e-3))
        .seed(seed)
        .build_streaming(loader);
    let mut trainer = match built {
        Ok(t) => t,
        Err(e) => {
            eprintln!("invalid configuration: {e}");
            return ExitCode::from(2);
        }
    };
    if flags.contains_key("allow-dataset-mismatch") {
        trainer.set_allow_dataset_mismatch(true);
    }
    drive_trainer(flags, &mut trainer, epochs, kernel_backend, true)
}

/// Shared train-loop driver for any [`Trainer`]: recorder attachment,
/// checkpointed or plain epochs, the metrics dump, and (for out-of-core
/// runs) the peak-RSS self-report.
fn drive_trainer(
    flags: &HashMap<String, String>,
    trainer: &mut dyn Trainer,
    epochs: usize,
    kernel_backend: &str,
    report_rss: bool,
) -> ExitCode {
    let get = |k: &str, d: &str| flags.get(k).cloned().unwrap_or_else(|| d.to_string());
    let recorder = flags.contains_key("metrics").then(|| {
        let mem = Arc::new(MemoryRecorder::default());
        mem.event(torchgt_obs::Event::backend(&kernel_backend));
        trainer.attach_recorder(mem.clone());
        mem
    });
    print_epoch_header();
    let mut interrupted = false;
    if let Some(dir) = flags.get("checkpoint-dir") {
        let store = match CheckpointStore::new(dir.clone(), 3) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot open checkpoint dir {dir}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let opts = CheckpointOptions {
            every: get("checkpoint-every", "1").parse().unwrap_or(1),
            resume: flags.contains_key("resume"),
            crash_after: flags.get("crash-after").and_then(|v| v.parse().ok()),
        };
        let noop = torchgt::obs::noop();
        let rec = recorder.as_ref().map(|mem| mem.clone() as RecorderHandle);
        let outcome =
            match run_with_checkpoints(trainer, &store, &opts, rec.as_ref().unwrap_or(&noop)) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("checkpointed run failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
        if let Some(epoch) = outcome.resumed_from {
            println!("resumed from snapshot at epoch {epoch}");
        }
        outcome.stats.iter().for_each(print_epoch);
        interrupted = outcome.interrupted;
        if interrupted {
            println!(
                "simulated crash after epoch {} (snapshots kept in {dir})",
                trainer.epoch()
            );
        }
    } else {
        for _ in 0..epochs {
            print_epoch(&trainer.train_epoch());
        }
    }
    if report_rss {
        if let Some(bytes) = peak_rss_bytes() {
            println!("peak rss: {bytes} bytes");
            if let Some(mem) = &recorder {
                mem.gauge_set("peak_rss_bytes", bytes as f64);
            }
        }
    }
    let written = recorder.map_or(ExitCode::SUCCESS, |mem| write_metrics(flags, &mem));
    if written != ExitCode::SUCCESS {
        return written;
    }
    if interrupted {
        ExitCode::from(CRASH_EXIT)
    } else {
        ExitCode::SUCCESS
    }
}

/// `freeze`: train, calibrate, quantize, gate, write the TGTF artifact.
fn run_freeze(flags: &HashMap<String, String>) -> ExitCode {
    let get = |k: &str, d: &str| flags.get(k).cloned().unwrap_or_else(|| d.to_string());
    let kernel_backend = match resolve_backend(flags) {
        Ok(name) => name,
        Err(code) => return code,
    };
    println!("kernel backend: {kernel_backend}");
    if let Err(code) = resolve_faults(flags) {
        return code;
    }
    let Some(m) = method(&get("method", "torchgt")) else {
        eprintln!("unknown method (torchgt|gp-flash|gp-sparse|gp-raw)");
        return ExitCode::from(2);
    };
    let scheme = match get("scheme", "int8").as_str() {
        "int8" => QuantScheme::Int8,
        "int16" => QuantScheme::Int16,
        other => {
            eprintln!("unknown scheme `{other}` (int8|int16)");
            return ExitCode::from(2);
        }
    };
    let epochs: usize = get("epochs", "2").parse().unwrap_or(2);
    // `--data-dir` trains on the sharded on-disk dataset and embeds its
    // manifest hash in the artifact; otherwise generate in memory as before.
    let (dataset, prov, manifest_hash, seed) = if let Some(dir) = flags.get("data-dir") {
        let man = match Manifest::load_dir(Path::new(dir)) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("cannot read dataset manifest in {dir}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let dataset = match load_node_dataset(Path::new(dir)) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("cannot load sharded dataset {dir}: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "loaded {}-like stand-in from {dir}: {} nodes, {} classes ({})",
            man.kind.spec().name,
            man.total_nodes,
            man.num_classes,
            man.hash()
        );
        let prov = DatasetRef { kind: kind_alias(man.kind).to_string(), scale: man.scale, seed: man.seed };
        let hash = man.hash();
        let seed: u64 = get("seed", "1").parse().unwrap_or(1);
        (dataset, prov, Some(hash), seed)
    } else {
        let (_, dataset, ds_name, scale, seed) = match generate_dataset(flags) {
            Ok(d) => d,
            Err(code) => return code,
        };
        (dataset, DatasetRef { kind: ds_name, scale, seed }, None, seed)
    };
    let mut trainer = match build_trainer(flags, &dataset, m, epochs, seed) {
        Ok(t) => t,
        Err(code) => return code,
    };
    print_epoch_header();
    for _ in 0..epochs {
        print_epoch(&trainer.train_epoch());
    }
    let calib = CalibSet::from_dataset(&dataset, get("calib", "256").parse().unwrap_or(256), seed);
    let opts =
        FreezeOptions { scheme, max_acc_drop: get("max-drop", "0.01").parse().unwrap_or(0.01) };
    let frozen = match trainer.freeze_with(&calib, opts) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("freeze rejected: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut frozen = torchgt::serve::freeze::with_dataset(frozen, prov);
    if let Some(hash) = manifest_hash {
        frozen = torchgt::serve::freeze::with_dataset_hash(frozen, hash);
    }
    let out = get("out", "model.tgtf");
    if let Err(e) = frozen.save(Path::new(&out)) {
        eprintln!("cannot write frozen model to {out}: {e}");
        return ExitCode::FAILURE;
    }
    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!(
        "frozen: {out} ({bytes} bytes, {:?}, f32 acc {:.4} -> quantized acc {:.4})",
        frozen.scheme, frozen.f32_acc, frozen.frozen_acc
    );
    ExitCode::SUCCESS
}

/// `serve`: load a TGTF artifact, rebuild its graph, and answer Zipf query
/// traffic from concurrent load-generator threads through the micro-batching
/// serve loop.
fn run_serve(flags: &HashMap<String, String>) -> ExitCode {
    let get = |k: &str, d: &str| flags.get(k).cloned().unwrap_or_else(|| d.to_string());
    let kernel_backend = match resolve_backend(flags) {
        Ok(name) => name,
        Err(code) => return code,
    };
    println!("kernel backend: {kernel_backend}");
    if let Err(code) = resolve_faults(flags) {
        return code;
    }
    let model_path = get("model", "model.tgtf");
    let frozen = match FrozenModel::load(Path::new(&model_path)) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot load frozen model {model_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "loaded {model_path}: {} {:?} tensors, calibrated f32 acc {:.4} -> quantized acc {:.4}",
        frozen.tensors.len(),
        frozen.scheme,
        frozen.f32_acc,
        frozen.frozen_acc
    );

    // Dataset: explicit flags override the artifact's embedded provenance.
    let prov = frozen.dataset.clone();
    let ds_name =
        match flags.get("dataset").cloned().or_else(|| prov.as_ref().map(|d| d.kind.clone())) {
            Some(n) => n,
            None => {
                eprintln!(
                    "frozen model carries no dataset provenance; pass --dataset/--scale/--data-seed"
                );
                return ExitCode::from(2);
            }
        };
    let Some(kind) = dataset_kind(&ds_name) else {
        eprintln!("unknown dataset `{ds_name}` (try `torchgt_cli datasets`)");
        return ExitCode::from(2);
    };
    let scale: f64 = flags
        .get("scale")
        .and_then(|v| v.parse().ok())
        .or(prov.as_ref().map(|d| d.scale))
        .unwrap_or_else(|| (2000.0 / kind.spec().nodes as f64).min(1.0));
    let data_seed: u64 = flags
        .get("data-seed")
        .and_then(|v| v.parse().ok())
        .or(prov.as_ref().map(|d| d.seed))
        .unwrap_or(1);
    let dataset = kind.generate_node(scale, data_seed);
    println!(
        "serving {}-like stand-in: {} nodes, {} edges (scale {scale}, seed {data_seed})",
        kind.spec().name,
        dataset.graph.num_nodes(),
        dataset.graph.num_edges()
    );

    let cfg = ServeConfig {
        max_batch: get("max-batch", "8").parse().unwrap_or(8),
        latency_budget: Duration::from_millis(get("budget-ms", "50").parse().unwrap_or(50)),
        ctx_nodes: get("ctx", "32").parse().unwrap_or(32),
        shed_watermark: flags.get("shed-watermark").and_then(|v| v.parse().ok()),
        deadline: flags
            .get("deadline-ms")
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_millis),
    };
    let mem = Arc::new(MemoryRecorder::default());
    mem.event(torchgt_obs::Event::backend(&kernel_backend));
    let mut serve_loop = match ServeLoop::new(
        &frozen,
        dataset.graph.clone(),
        dataset.features.clone(),
        cfg,
        mem.clone() as RecorderHandle,
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start serve loop: {e}");
            return ExitCode::FAILURE;
        }
    };

    let queries: usize = get("queries", "256").parse().unwrap_or(256);
    let qps: f64 = get("qps", "500").parse().unwrap_or(500.0);
    let zipf_s: f64 = get("zipf", "1.1").parse().unwrap_or(1.1);
    let clients: usize = get("clients", "2").parse().unwrap_or(2).max(1);
    let queue: usize = get("queue", "64").parse().unwrap_or(64).max(1);
    println!(
        "offered load: {queries} queries at {qps} qps (Zipf s={zipf_s}) from {clients} client(s), queue cap {queue}"
    );

    let (tx, rx) = bounded::<Query>(queue);
    let (reply_tx, reply_rx) = unbounded::<ServeReply>();
    let server = std::thread::spawn(move || serve_loop.run(rx));
    let num_nodes = dataset.graph.num_nodes();
    // An installed serve-domain fault plan injects arrival bursts: when a
    // burst starts, the client fires `burst_len` queries back-to-back
    // without pacing, driving the queue into the shed watermark.
    let serve_faults = torchgt::faults::serve_plan();
    let mut senders = Vec::with_capacity(clients);
    for c in 0..clients {
        let tx = tx.clone();
        let reply_tx = reply_tx.clone();
        // Split the query count and pace each client so the aggregate
        // offered load is `qps`.
        let n = queries / clients + usize::from(c < queries % clients);
        let pace = Duration::from_secs_f64(clients as f64 / qps.max(1.0));
        let mut zipf = Zipf::new(num_nodes, zipf_s, data_seed ^ (c as u64 + 1));
        senders.push(std::thread::spawn(move || {
            let mut burst_remaining = 0usize;
            for i in 0..n {
                let node = zipf.sample() as u32;
                if tx.send(Query::new(node, reply_tx.clone())).is_err() {
                    break;
                }
                if burst_remaining > 0 {
                    burst_remaining -= 1;
                    continue;
                }
                if let Some((seed, plan)) = serve_faults {
                    if plan.burst_starts(seed, c as u64, i as u64) {
                        burst_remaining = plan.burst_len.saturating_sub(1);
                        continue;
                    }
                }
                std::thread::sleep(pace);
            }
        }));
    }
    drop(tx);
    drop(reply_tx);
    for h in senders {
        let _ = h.join();
    }
    let stats = match server.join() {
        Ok(s) => s,
        Err(_) => {
            eprintln!("serve loop panicked");
            return ExitCode::FAILURE;
        }
    };
    let mut answered = 0u64;
    let mut shed = 0u64;
    while let Ok(reply) = reply_rx.recv() {
        if reply.is_shed() {
            shed += 1;
        } else {
            answered += 1;
        }
    }

    println!(
        "served {} queries in {} batches ({answered} answered, {shed} shed replies delivered)",
        stats.served, stats.batches
    );
    println!(
        "latency: p50 {:.3} ms, p99 {:.3} ms, mean {:.3} ms, max {:.3} ms (accepted queries)",
        stats.p50_latency_ms, stats.p99_latency_ms, stats.mean_latency_ms, stats.max_latency_ms
    );
    println!(
        "throughput {:.1} qps, max queue depth {}, avg batch {:.2}",
        stats.throughput_qps, stats.max_queue_depth, stats.avg_batch_size
    );
    if stats.shed > 0 {
        println!(
            "shed {} ({} queue-full, {} expired, {} draining), handling mean {:.3} ms / max {:.3} ms",
            stats.shed,
            stats.shed_queue_full,
            stats.shed_expired,
            stats.shed_draining,
            stats.shed_handling_ms_mean,
            stats.shed_handling_ms_max
        );
    }
    write_metrics(flags, &mem)
}

/// Write the recorder's report where `--metrics` points, if it was given.
fn write_metrics(flags: &HashMap<String, String>, mem: &MemoryRecorder) -> ExitCode {
    let Some(path) = flags.get("metrics") else {
        return ExitCode::SUCCESS;
    };
    if let Err(e) = std::fs::write(path, mem.report().to_json_string_pretty()) {
        eprintln!("failed to write metrics to {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("metrics written to {path}");
    ExitCode::SUCCESS
}

/// What `train --elastic` and `train --rebalance` share: `--world`, the
/// run's [`TrainConfig`], a GT replica factory over the model flags (the
/// caller picks `dropout`), and the recorder behind `--metrics`, opened
/// with the backend event.
#[allow(clippy::type_complexity)]
fn ranked_setup(
    flags: &HashMap<String, String>,
    m: Method,
    dataset: &NodeDataset,
    epochs: usize,
    seed: u64,
    dropout: f32,
) -> Result<
    (usize, TrainConfig, impl Fn() -> Box<dyn SequenceModel> + Sync, Arc<MemoryRecorder>),
    ExitCode,
> {
    let get = |k: &str, d: &str| flags.get(k).cloned().unwrap_or_else(|| d.to_string());
    let world: usize = get("world", "4").parse().unwrap_or(4).max(1);
    let mut cfg = TrainConfig::new(m, get("seq-len", "512").parse().unwrap_or(512), epochs);
    cfg.lr = get("lr", "2e-3").parse().unwrap_or(2e-3);
    cfg.seed = seed;
    let gt = torchgt::model::GtConfig {
        feat_dim: dataset.feat_dim,
        hidden: get("hidden", "32").parse().unwrap_or(32),
        layers: get("layers", "2").parse().unwrap_or(2),
        heads: get("heads", "4").parse().unwrap_or(4),
        ffn_mult: 4,
        out_dim: dataset.num_classes,
        pe_dim: 8,
        dropout,
    };
    if gt.heads == 0 || gt.hidden % gt.heads != 0 {
        eprintln!("invalid configuration: heads must divide hidden");
        return Err(ExitCode::from(2));
    }
    let factory = move || -> Box<dyn SequenceModel> { Box::new(torchgt::model::Gt::new(gt, seed)) };
    let mem = Arc::new(MemoryRecorder::default());
    mem.event(torchgt_obs::Event::backend(torchgt_tensor::backend::active().name()));
    Ok((world, cfg, factory, mem))
}

/// The `train --rebalance` path: data-parallel training with the
/// closed-loop straggler rebalancer. `--slow-rank`/`--slow-delay-ms`
/// inject a deterministic straggler for the loop to measure and shed;
/// `--overlap` picks blocking vs handle-based async collectives — the
/// epoch losses are bit-identical either way.
fn run_rebalance(
    flags: &HashMap<String, String>,
    m: Method,
    dataset: &NodeDataset,
    epochs: usize,
    seed: u64,
) -> ExitCode {
    // Dropout draws from a per-model RNG stream, so a rank's masks would
    // depend on how many tokens it owns — rebalancing would then change the
    // numerics. Zero keeps losses a pure function of the data, bit-identical
    // across assignments and overlap modes.
    let (world, cfg, factory, mem) = match ranked_setup(flags, m, dataset, epochs, seed, 0.0) {
        Ok(setup) => setup,
        Err(code) => return code,
    };
    let slow_delay_ms: f64 =
        flags.get("slow-delay-ms").and_then(|v| v.parse().ok()).unwrap_or(1.0);
    let plan = match flags.get("slow-rank").map(|s| s.parse::<usize>()) {
        Some(Ok(r)) if r < world => FaultPlan::slow(r, slow_delay_ms / 1e3),
        Some(_) => {
            eprintln!("--slow-rank wants a rank below --world {world}");
            return ExitCode::from(2);
        }
        // No explicit straggler: an installed fault plan's comm domain
        // (--faults comm.*) drives the fabric instead.
        None => torchgt::faults::comm_plan().unwrap_or_default(),
    };
    println!(
        "rebalance run: world {world}, overlap {}{}",
        if torchgt::runtime::overlap_enabled() { "on" } else { "off" },
        plan.slow_rank
            .map(|r| format!(", rank {r} slowed {slow_delay_ms} ms/send"))
            .unwrap_or_default()
    );
    let out = torchgt::runtime::train_data_parallel_rebalance(
        dataset,
        cfg,
        world,
        factory,
        plan,
        Some(torchgt::runtime::RebalancePolicy::default()),
        mem.clone(),
    );
    println!("{:>5} {:>9} {:>11} {:>10}", "epoch", "loss", "imbalance", "wall s");
    for (i, l) in out.stats.epoch_losses.iter().enumerate() {
        mem.epoch(torchgt_obs::EpochTrace {
            epoch: i,
            loss: *l as f64,
            sim_s: out.epoch_seconds[i],
            ..Default::default()
        });
        println!(
            "{:>5} {:>9.4} {:>11.3} {:>10.4}",
            i + 1,
            l,
            out.imbalance_history[i],
            out.epoch_seconds[i]
        );
    }
    println!(
        "{} rebalance(s), {} token(s) moved, final per-rank tokens {:?}",
        out.rebalances, out.moved_tokens, out.final_counts
    );
    mem.gauge_set("rebalances", out.rebalances as f64);
    mem.gauge_set("moved_tokens", out.moved_tokens as f64);
    mem.gauge_set("world", out.stats.world as f64);
    mem.gauge_set("final_imbalance", out.imbalance_history.last().copied().unwrap_or(1.0));
    write_metrics(flags, &mem)
}

/// The `train --elastic` path: data-parallel training over simulated ranks
/// that survives permanent rank loss by shrinking the group and resharding.
fn run_elastic(
    flags: &HashMap<String, String>,
    m: Method,
    dataset: &NodeDataset,
    epochs: usize,
    seed: u64,
) -> ExitCode {
    let get = |k: &str, d: &str| flags.get(k).cloned().unwrap_or_else(|| d.to_string());
    let (world, mut cfg, factory, mem) = match ranked_setup(flags, m, dataset, epochs, seed, 0.1) {
        Ok(setup) => setup,
        Err(code) => return code,
    };
    let lose: Option<RankLoss> = match flags.get("lose-rank").map(|s| s.parse()) {
        Some(Ok(l)) => Some(l),
        Some(Err(e)) => {
            eprintln!("bad --lose-rank (want <rank>@<epoch>): {e}");
            return ExitCode::from(2);
        }
        None => None,
    };
    cfg.recovery.allow_shrink = true;
    cfg.recovery.min_ranks = get("min-ranks", "1").parse().unwrap_or(1);
    cfg.recovery.max_retries = get("max-retries", "1").parse().unwrap_or(1);
    let dir = get(
        "checkpoint-dir",
        &std::env::temp_dir()
            .join(format!("torchgt-elastic-{}", std::process::id()))
            .to_string_lossy(),
    );
    let store = match CheckpointStore::new(dir.clone(), 3) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open checkpoint dir {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "elastic run: world {world}, min ranks {}, max retries {} per generation{}",
        cfg.recovery.min_ranks,
        cfg.recovery.max_retries,
        lose.map(|l| format!(", scripted loss of rank {} at epoch {}", l.rank, l.epoch))
            .unwrap_or_default()
    );
    let out = match train_distributed(&DistributedJob {
        // The comm domain of an installed fault plan (--faults comm.*)
        // drives the elastic fabric; otherwise the fabric is fault-free.
        plan: torchgt::faults::comm_plan().unwrap_or_default(),
        lose,
        store: Some(&store),
        recorder: mem.clone(),
        ..DistributedJob::new(dataset, cfg, world, factory)
    }) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("elastic run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{:>5} {:>9}", "epoch", "loss");
    for (i, l) in out.stats.epoch_losses.iter().enumerate() {
        println!("{:>5} {:>9.4}", i + 1, l);
    }
    println!(
        "finished at world {} (started {}), generation {}, {} restart(s), {} shrink(s), lost ranks {:?}",
        out.final_world,
        out.initial_world,
        out.generation,
        out.restarts,
        out.shrinks,
        out.lost_ranks
    );
    mem.gauge_set("final_world", out.final_world as f64);
    mem.gauge_set("initial_world", out.initial_world as f64);
    mem.gauge_set("generation", out.generation as f64);
    mem.gauge_set("restarts", out.restarts as f64);
    mem.gauge_set("shrinks", out.shrinks as f64);
    write_metrics(flags, &mem)
}
