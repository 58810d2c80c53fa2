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
//! flag or subcommand is always exit code 2 plus usage, and so is a numeric
//! flag whose value does not parse (the error names the flag and the
//! value; nothing falls back to its default). The bare legacy
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
//! `train --rebalance` arms the same supervisor's closed-loop straggler
//! rebalancer, alone or with `--elastic` (`--slow-rank <r>`/`--slow-delay-ms
//! <ms>` inject a deterministic straggler; the losses are bit-identical
//! whether or not the loop moves sequences). Both train GT (`--model gt`,
//! the default there), and each of their flags given without them is a
//! usage error naming it, as is an unknown `--model`. Collectives always
//! overlap communication with compute: there is one, asynchronous, issue
//! path.
//!
//! `datagen` writes a sharded on-disk copy of a stand-in dataset (`TGDS`
//! shards plus a `TGDM` manifest); `train --data-dir <dir>` then streams it
//! shard-by-shard through a prefetching loader instead of materialising the
//! whole graph in memory — the epoch losses are bit-identical to the
//! in-memory path. Every train run self-reports its peak RSS (`peak rss: N
//! bytes`), so scripts can assert the out-of-core claim or compare methods'
//! memory. Checkpoints taken from a streaming run
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
use std::fmt::Display;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use torchgt::model::{Arch, GraphormerConfig, GtConfig};
use torchgt::prelude::*;
use torchgt::serve::{DatasetRef, Query, ServeReply, Zipf};
use torchgt::{ModelKind, TorchGtBuilder};
use torchgt_compat::sync::channel::{bounded, unbounded};

/// Exit code of a `--crash-after` simulated crash (distinct from usage and
/// failure codes so scripts can assert on it).
const CRASH_EXIT: u8 = 3;

type Flags = HashMap<String, String>;

/// What a subcommand returns: `Err` carries the exit code of a usage error,
/// a failure or a simulated crash, its message already printed.
type Run = Result<(), ExitCode>;

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
    FlagSpec::value("model", "architecture: graphormer|gt (default graphormer; gt under --elastic/--rebalance)"),
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
fn parse_flags(args: &[String], sub: &SubSpec) -> Result<Flags, String> {
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

/// A string flag, or `default` when absent.
fn text<'a>(flags: &'a Flags, name: &str, default: &'a str) -> &'a str {
    flags.get(name).map_or(default, String::as_str)
}

/// A numeric flag, `None` when absent. A value that does not parse, or that
/// parses to an infinity or NaN (`f64` reads `inf` and `NaN`), is a usage
/// error naming the flag and the rejected value — never a silent fallback to
/// the default (`--epochs 1O` must not train 8 epochs), and never a number
/// no run can use (`--slow-delay-ms inf` would sleep forever).
fn opt_num<T: FromStr>(flags: &Flags, name: &str) -> Result<Option<T>, ExitCode> {
    let Some(v) = flags.get(name) else { return Ok(None) };
    let finite = v.parse::<f64>().map_or(true, f64::is_finite);
    match v.parse() {
        Ok(n) if finite => Ok(Some(n)),
        Ok(_) => Err(usage_error(format!("invalid value `{v}` for --{name}: expected a finite number"))),
        Err(_) => Err(usage_error(format!("invalid value `{v}` for --{name}: expected a number"))),
    }
}

/// `--scale`, when given: the fraction of the original dataset's size to
/// generate, in (0, 1] — 1.0 is the original size, and anything larger
/// would overflow the node count long before it fit in memory.
fn opt_scale(flags: &Flags) -> Result<Option<f64>, ExitCode> {
    match opt_num::<f64>(flags, "scale")? {
        Some(s) if !(s > 0.0 && s <= 1.0) => {
            Err(usage_error(format!("invalid value `{s}` for --scale: expected a fraction in (0, 1]")))
        }
        scale => Ok(scale),
    }
}

/// A numeric flag, or `default` when absent (see [`opt_num`]).
fn num<T: FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, ExitCode> {
    Ok(opt_num(flags, name)?.unwrap_or(default))
}

/// A count flag, or `default` when absent: 0 is a usage error naming the
/// flag, never a value silently raised to 1.
fn count(flags: &Flags, name: &str, default: usize) -> Result<usize, ExitCode> {
    match num(flags, name, default)? {
        0 => Err(usage_error(format!("--{name} must be at least 1, got 0"))),
        n => Ok(n),
    }
}

/// Print `msg` and return the usage-error exit code (2).
fn usage_error(msg: impl Display) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::from(2)
}

/// Print `msg` and return the failure exit code (1).
fn failure(msg: impl Display) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::FAILURE
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

/// The scale that sizes a stand-in to ~2k nodes (the default `--scale`).
fn default_scale(kind: DatasetKind) -> f64 {
    (2000.0 / kind.spec().nodes as f64).min(1.0)
}

/// The `--method` flag (default `torchgt`).
fn method(flags: &Flags) -> Result<Method, ExitCode> {
    Ok(match text(flags, "method", "torchgt") {
        "torchgt" => Method::TorchGt,
        "gp-flash" | "flash" => Method::GpFlash,
        "gp-sparse" | "sparse" => Method::GpSparse,
        "gp-raw" | "raw" => Method::GpRaw,
        _ => return Err(usage_error("unknown method (torchgt|gp-flash|gp-sparse|gp-raw)")),
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
/// panic) mid-run. Announces and returns the resolved backend name.
fn resolve_backend(flags: &Flags) -> Result<String, ExitCode> {
    if let Some(name) = flags.get("backend") {
        std::env::set_var(torchgt_tensor::backend::ENV_VAR, name);
    }
    let name = torchgt_tensor::backend::from_env().map_err(usage_error)?.name().to_string();
    println!("kernel backend: {name}");
    Ok(name)
}

/// Install the seeded fault plan before any I/O or serving runs: `--faults`
/// takes the same spec grammar as the `TORCHGT_FAULTS` environment variable
/// (the flag wins when both are set), and a malformed spec must be a usage
/// error here, not a mid-run surprise.
fn resolve_faults(flags: &Flags) -> Run {
    if let Some(spec) = flags.get("faults") {
        std::env::set_var(torchgt::faults::ENV_VAR, spec);
    }
    let active =
        torchgt::faults::install_from_env().map_err(|e| usage_error(format!("bad fault spec: {e}")))?;
    if let Some(spec) = torchgt::faults::installed().filter(|_| active) {
        println!("fault injection active (seed {})", spec.seed);
    }
    Ok(())
}

/// The `--dataset` / `--scale` / `--seed` triple shared by `train`,
/// `freeze` and `datagen`.
fn dataset_flags(flags: &Flags) -> Result<(DatasetKind, f64, u64), ExitCode> {
    let kind = dataset_kind(text(flags, "dataset", "arxiv"))
        .ok_or_else(|| usage_error("unknown dataset (try `torchgt_cli datasets`)"))?;
    let scale = opt_scale(flags)?.unwrap_or_else(|| default_scale(kind));
    Ok((kind, scale, num(flags, "seed", 1)?))
}

/// Generate the node dataset a subcommand runs on, announcing what came out.
/// Returns `(dataset, flag-name, scale, seed)` so freeze can embed the
/// provenance in the artifact.
fn generate_dataset(flags: &Flags) -> Result<(NodeDataset, String, f64, u64), ExitCode> {
    let (kind, scale, seed) = dataset_flags(flags)?;
    let dataset = kind.generate_node(scale, seed);
    println!(
        "{}-like stand-in: {} nodes, {} edges, {} classes (scale {scale})",
        kind.spec().name,
        dataset.graph.num_nodes(),
        dataset.graph.num_edges(),
        dataset.num_classes
    );
    Ok((dataset, text(flags, "dataset", "arxiv").to_string(), scale, seed))
}

/// The trainer builder over the shared train/freeze hyper-parameter flags;
/// the caller builds it over an in-memory dataset or a shard stream.
fn trainer_builder(flags: &Flags, m: Method, epochs: usize, seed: u64) -> Result<TorchGtBuilder, ExitCode> {
    Ok(TorchGtBuilder::new(m)
        .model(model_kind(flags)?.unwrap_or(ModelKind::Graphormer))
        .seq_len(num(flags, "seq-len", 512)?)
        .epochs(epochs)
        .hidden(num(flags, "hidden", 64)?)
        .layers(num(flags, "layers", 3)?)
        .heads(num(flags, "heads", 8)?)
        .lr(num(flags, "lr", 2e-3)?)
        .seed(seed))
}

/// `--model`, when given: a model family's name, anything else a usage
/// error.
fn model_kind(flags: &Flags) -> Result<Option<ModelKind>, ExitCode> {
    flags.get("model").map(|s| s.parse().map_err(|e| usage_error(format!("--model: {e}")))).transpose()
}

/// Whether `train` runs the distributed supervisor (`--elastic` /
/// `--rebalance`). A flag read only beside another (a distributed, a
/// checkpoint or a shard-directory flag), given without it, is a usage
/// error naming the flag, and so is a model family the supervisor cannot
/// train. All of it is checked before a dataset is generated.
fn distributed_flags(flags: &Flags) -> Result<bool, ExitCode> {
    let elastic = flags.contains_key("elastic");
    let distributed = elastic || flags.contains_key("rebalance");
    let (both, only) = ((distributed, "--elastic or --rebalance"), (elastic, "--elastic"));
    // The supervisor keeps its own snapshots: `--elastic` stores them in
    // `--checkpoint-dir`, and neither path resumes, crashes or sets a period.
    let store = (!distributed || elastic, "--elastic or a one-process run");
    let ckpt = (flags.contains_key("checkpoint-dir") && !distributed, "--checkpoint-dir on a one-process run");
    let data = (flags.contains_key("data-dir"), "--data-dir");
    let readers = [
        ("world", both), ("slow-rank", both), ("slow-delay-ms", both), ("min-ranks", only), ("lose-rank", only),
        ("max-retries", only), ("checkpoint-dir", store), ("resume", ckpt), ("crash-after", ckpt),
        ("checkpoint-every", ckpt), ("shuffle-shards", data), ("allow-dataset-mismatch", data),
    ];
    if let Some((flag, (_, by))) = readers.into_iter().find(|&(flag, (read, _))| !read && flags.contains_key(flag)) {
        return Err(usage_error(format!("--{flag} is read only with {by}")));
    }
    if let Some(kind) = model_kind(flags)?.filter(|&kind| distributed && kind != ModelKind::Gt) {
        return Err(usage_error(format!("--model {kind}: --elastic and --rebalance train {} only", ModelKind::Gt)));
    }
    Ok(distributed)
}

fn invalid_configuration(e: impl Display) -> ExitCode {
    usage_error(format!("invalid configuration: {e}"))
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
    let run = match sub.name {
        "datasets" => run_datasets(),
        "info" => run_info(&flags),
        "maxseq" => run_maxseq(&flags),
        "datagen" => run_datagen(&flags),
        "train" => run_train(&flags),
        "freeze" => run_freeze(&flags),
        "serve" => run_serve(&flags),
        _ => return usage(),
    };
    run.err().unwrap_or(ExitCode::SUCCESS)
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
fn run_datasets() -> Run {
    println!("node-level stand-ins (effective generated sizes at the default scale):");
    println!(
        "  {:<11} {:<17} {:>8} {:>6} {:>8} {:>11}",
        "alias", "stand-in for", "nodes", "feats", "classes", "avg degree"
    );
    for &(alias, kind) in NODE_KINDS {
        let spec = kind.spec();
        let eff = kind.effective(default_scale(kind));
        println!(
            "  {:<11} {:<17} {:>8} {:>6} {:>8} {:>11.1}",
            alias, spec.name, eff.nodes, eff.feat_dim, eff.classes, eff.avg_degree
        );
    }
    println!("graph-level (via examples/benches): zinc molpcba malnet");
    Ok(())
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); `None` on platforms without procfs.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Print the run's peak RSS as `peak rss: N bytes` (and set the
/// `peak_rss_bytes` gauge of `mem`), where the platform reports it.
fn report_peak_rss(mem: Option<&MemoryRecorder>) {
    if let Some(bytes) = peak_rss_bytes() {
        println!("peak rss: {bytes} bytes");
        if let Some(mem) = mem {
            mem.gauge_set("peak_rss_bytes", bytes as f64);
        }
    }
}

/// `datagen`: stream a stand-in dataset to disk as TGDS shards + a TGDM
/// manifest, announcing the effective (clamped) spec and the manifest hash.
fn run_datagen(flags: &Flags) -> Run {
    resolve_faults(flags)?;
    let (kind, scale, seed) = dataset_flags(flags)?;
    let out = text(flags, "out", "data");
    let shard_nodes = count(flags, "shard-nodes", 16384)?;
    let report = generate_to_dir(kind, scale, seed, Path::new(out), shard_nodes)
        .map_err(|e| failure(format!("datagen failed: {e}")))?;
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
    Ok(())
}

fn run_info(flags: &Flags) -> Run {
    let kind = dataset_kind(text(flags, "dataset", "arxiv")).ok_or_else(|| usage_error("unknown dataset"))?;
    let spec = kind.spec();
    println!("{}:", spec.name);
    println!("  nodes   {}", spec.nodes);
    println!("  edges   {}", spec.edges);
    println!("  feats   {}", spec.feats);
    println!("  classes {}", spec.classes);
    Ok(())
}

fn run_maxseq(flags: &Flags) -> Run {
    let gpus: usize = num(flags, "gpus", 8)?;
    let spec = GpuSpec::a100();
    let shape = Arch::Graphormer(GraphormerConfig::slim(0, 0)).shape();
    println!("A100, GPH_Slim, degree-25 graph:");
    for p in 1..=gpus {
        let tgt = torchgt::perf::max_seq_len(&spec, &shape, LayoutKind::ClusterSparse, 25.0, p);
        let raw = torchgt::perf::max_seq_len(&spec, &shape, LayoutKind::Dense, 25.0, p);
        println!("  {p} GPU(s): TorchGT {}K, GP-RAW {}K", tgt >> 10, raw >> 10);
    }
    Ok(())
}

fn run_train(flags: &Flags) -> Run {
    let kernel_backend = resolve_backend(flags)?;
    resolve_faults(flags)?;
    let m = method(flags)?;
    let epochs: usize = num(flags, "epochs", 8)?;
    let distributed = distributed_flags(flags)?;
    if let Some(dir) = flags.get("data-dir") {
        return run_train_streaming(flags, m, epochs, dir, &kernel_backend);
    }
    let (dataset, _, _, seed) = generate_dataset(flags)?;
    if distributed {
        return run_distributed(flags, m, &dataset, epochs, seed);
    }
    let mut node_trainer =
        trainer_builder(flags, m, epochs, seed)?.build_node(&dataset).map_err(invalid_configuration)?;
    drive_trainer(flags, &mut node_trainer, epochs, &kernel_backend)
}

/// The `train --data-dir` path: open the sharded dataset, build a
/// [`StreamingTrainer`] over its prefetching loader, and drive it through
/// the same checkpoint/metrics loop as the in-memory path.
fn run_train_streaming(flags: &Flags, m: Method, epochs: usize, dir: &str, kernel_backend: &str) -> Run {
    if flags.contains_key("elastic") {
        return Err(usage_error("--elastic and --data-dir cannot be combined"));
    }
    if flags.contains_key("rebalance") {
        return Err(usage_error("--rebalance and --data-dir cannot be combined"));
    }
    let seed: u64 = num(flags, "seed", 1)?;
    let loader = ShardLoader::open(Path::new(dir))
        .map_err(|e| failure(format!("cannot open sharded dataset {dir}: {e}")))?;
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
    let mut trainer =
        trainer_builder(flags, m, epochs, seed)?.build_streaming(loader).map_err(invalid_configuration)?;
    if flags.contains_key("allow-dataset-mismatch") {
        trainer.set_allow_dataset_mismatch(true);
    }
    drive_trainer(flags, &mut trainer, epochs, kernel_backend)
}

/// Shared train-loop driver for any [`Trainer`]: recorder attachment,
/// checkpointed or plain epochs, the peak-RSS self-report and the metrics
/// dump.
fn drive_trainer(flags: &Flags, trainer: &mut dyn Trainer, epochs: usize, kernel_backend: &str) -> Run {
    let recorder = flags.contains_key("metrics").then(|| {
        let mem = Arc::new(MemoryRecorder::default());
        mem.event(torchgt_obs::Event::backend(&kernel_backend));
        trainer.attach_recorder(mem.clone());
        mem
    });
    print_epoch_header();
    let mut interrupted = false;
    if let Some(dir) = flags.get("checkpoint-dir") {
        let store = CheckpointStore::new(dir.clone(), 3)
            .map_err(|e| failure(format!("cannot open checkpoint dir {dir}: {e}")))?;
        let opts = CheckpointOptions {
            every: num(flags, "checkpoint-every", 1)?,
            resume: flags.contains_key("resume"),
            crash_after: opt_num(flags, "crash-after")?,
        };
        let noop = torchgt::obs::noop();
        let rec = recorder.as_ref().map(|mem| mem.clone() as RecorderHandle);
        let outcome = run_with_checkpoints(trainer, &store, &opts, rec.as_ref().unwrap_or(&noop))
            .map_err(|e| failure(format!("checkpointed run failed: {e}")))?;
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
    report_peak_rss(recorder.as_deref());
    if let Some(mem) = recorder {
        write_metrics(flags, &mem)?;
    }
    if interrupted {
        Err(ExitCode::from(CRASH_EXIT))
    } else {
        Ok(())
    }
}

/// `freeze`: train, calibrate, quantize, gate, write the TGTF artifact.
fn run_freeze(flags: &Flags) -> Run {
    resolve_backend(flags)?;
    resolve_faults(flags)?;
    let m = method(flags)?;
    let scheme = match text(flags, "scheme", "int8") {
        "int8" => QuantScheme::Int8,
        "int16" => QuantScheme::Int16,
        other => return Err(usage_error(format!("unknown scheme `{other}` (int8|int16)"))),
    };
    let epochs: usize = num(flags, "epochs", 2)?;
    let calib_queries: usize = num(flags, "calib", 256)?;
    let max_acc_drop = num(flags, "max-drop", 0.01)?;
    // `--data-dir` trains on the sharded on-disk dataset and embeds its
    // manifest hash in the artifact; otherwise generate in memory as before.
    let (dataset, prov, manifest_hash, seed) = if let Some(dir) = flags.get("data-dir") {
        let man = Manifest::load_dir(Path::new(dir))
            .map_err(|e| failure(format!("cannot read dataset manifest in {dir}: {e}")))?;
        let dataset = load_node_dataset(Path::new(dir))
            .map_err(|e| failure(format!("cannot load sharded dataset {dir}: {e}")))?;
        println!(
            "loaded {}-like stand-in from {dir}: {} nodes, {} classes ({})",
            man.kind.spec().name,
            man.total_nodes,
            man.num_classes,
            man.hash()
        );
        let prov = DatasetRef { kind: kind_alias(man.kind).to_string(), scale: man.scale, seed: man.seed };
        (dataset, prov, Some(man.hash()), num(flags, "seed", 1)?)
    } else {
        let (dataset, ds_name, scale, seed) = generate_dataset(flags)?;
        (dataset, DatasetRef { kind: ds_name, scale, seed }, None, seed)
    };
    let mut trainer =
        trainer_builder(flags, m, epochs, seed)?.build_node(&dataset).map_err(invalid_configuration)?;
    print_epoch_header();
    for _ in 0..epochs {
        print_epoch(&trainer.train_epoch());
    }
    let calib = CalibSet::from_dataset(&dataset, calib_queries, seed);
    let frozen = trainer
        .freeze_with(&calib, FreezeOptions { scheme, max_acc_drop })
        .map_err(|e| failure(format!("freeze rejected: {e}")))?;
    let mut frozen = torchgt::serve::freeze::with_dataset(frozen, prov);
    if let Some(hash) = manifest_hash {
        frozen = torchgt::serve::freeze::with_dataset_hash(frozen, hash);
    }
    let out = text(flags, "out", "model.tgtf");
    frozen
        .save(Path::new(out))
        .map_err(|e| failure(format!("cannot write frozen model to {out}: {e}")))?;
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    println!(
        "frozen: {out} ({bytes} bytes, {:?}, f32 acc {:.4} -> quantized acc {:.4})",
        frozen.scheme, frozen.f32_acc, frozen.frozen_acc
    );
    Ok(())
}

/// `serve`: load a TGTF artifact, rebuild its graph, and answer Zipf query
/// traffic from concurrent load-generator threads through the micro-batching
/// serve loop.
fn run_serve(flags: &Flags) -> Run {
    let kernel_backend = resolve_backend(flags)?;
    resolve_faults(flags)?;
    let cfg = ServeConfig {
        max_batch: count(flags, "max-batch", 8)?,
        latency_budget: Duration::from_millis(num(flags, "budget-ms", 50)?),
        ctx_nodes: num(flags, "ctx", 32)?,
        shed_watermark: opt_num(flags, "shed-watermark")?,
        deadline: opt_num(flags, "deadline-ms")?.map(Duration::from_millis),
    };
    let queries: usize = num(flags, "queries", 256)?;
    let qps: f64 = num(flags, "qps", 500.0)?;
    let zipf_s: f64 = num(flags, "zipf", 1.1)?;
    if !(zipf_s.is_finite() && zipf_s >= 0.0) {
        return Err(usage_error(format!("--zipf must be a finite exponent ≥ 0, got {zipf_s}")));
    }
    let clients = count(flags, "clients", 2)?;
    let queue = count(flags, "queue", 64)?;
    let model_path = text(flags, "model", "model.tgtf");
    let frozen = FrozenModel::load(Path::new(model_path))
        .map_err(|e| failure(format!("cannot load frozen model {model_path}: {e}")))?;
    println!(
        "loaded {model_path}: {} {:?} tensors, calibrated f32 acc {:.4} -> quantized acc {:.4}",
        frozen.tensors.len(),
        frozen.scheme,
        frozen.f32_acc,
        frozen.frozen_acc
    );

    // Dataset: explicit flags override the artifact's embedded provenance.
    let prov = frozen.dataset.clone();
    let Some(ds_name) = flags.get("dataset").cloned().or_else(|| prov.as_ref().map(|d| d.kind.clone()))
    else {
        return Err(usage_error(
            "frozen model carries no dataset provenance; pass --dataset/--scale/--data-seed",
        ));
    };
    let kind = dataset_kind(&ds_name)
        .ok_or_else(|| usage_error(format!("unknown dataset `{ds_name}` (try `torchgt_cli datasets`)")))?;
    let scale: f64 = opt_scale(flags)?
        .or(prov.as_ref().map(|d| d.scale))
        .unwrap_or_else(|| default_scale(kind));
    let data_seed: u64 = opt_num(flags, "data-seed")?.or(prov.as_ref().map(|d| d.seed)).unwrap_or(1);
    let dataset = kind.generate_node(scale, data_seed);
    println!(
        "serving {}-like stand-in: {} nodes, {} edges (scale {scale}, seed {data_seed})",
        kind.spec().name,
        dataset.graph.num_nodes(),
        dataset.graph.num_edges()
    );

    let mem = Arc::new(MemoryRecorder::default());
    mem.event(torchgt_obs::Event::backend(&kernel_backend));
    let mut serve_loop = ServeLoop::new(
        &frozen,
        dataset.graph.clone(),
        dataset.features.clone(),
        cfg,
        mem.clone() as RecorderHandle,
    )
    .map_err(|e| failure(format!("cannot start serve loop: {e}")))?;

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
    // Every client paces against one schedule start: its k-th paced send is
    // due at `start + k·pace`, and it sleeps only while ahead of that, so a
    // client that falls behind (a sleep overshoots, a send blocks on a full
    // queue) catches up back to back instead of offering less than `qps`.
    let start = Instant::now();
    let mut senders = Vec::with_capacity(clients);
    for c in 0..clients {
        let tx = tx.clone();
        let reply_tx = reply_tx.clone();
        // Split the query count and pace each client so the aggregate
        // offered load is `qps`.
        let n = queries / clients + usize::from(c < queries % clients);
        let pace = Duration::from_secs_f64(clients as f64 / qps.max(1.0));
        let mut zipf = Zipf::new(num_nodes, zipf_s, data_seed ^ (c as u64 + 1));
        // Returns how many queries the client sent and when the last one
        // left, from `start`.
        senders.push(std::thread::spawn(move || {
            let (mut sent, mut last_send) = (0usize, Duration::ZERO);
            let mut burst_remaining = 0usize;
            let mut paced = 0u32;
            for i in 0..n {
                let node = zipf.sample() as u32;
                if tx.send(Query::new(node, reply_tx.clone())).is_err() {
                    break;
                }
                sent += 1;
                last_send = start.elapsed();
                // Burst queries are unpaced and take no schedule slot, so a
                // burst adds load on top of the paced stream.
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
                paced += 1;
                let due = pace * paced;
                if let Some(ahead) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(ahead);
                }
            }
            (sent, last_send)
        }));
    }
    drop(tx);
    drop(reply_tx);
    let (mut sent, mut send_window, mut panicked) = (0usize, Duration::ZERO, 0usize);
    for handle in senders {
        match handle.join() {
            Ok((n, last)) => {
                sent += n;
                send_window = send_window.max(last);
            }
            Err(_) => panicked += 1,
        }
    }
    let stats = server.join().map_err(|_| failure("serve loop panicked"))?;
    if panicked > 0 {
        return Err(failure(format!("{panicked} load-generator thread(s) panicked")));
    }
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
    let achieved = if send_window > Duration::ZERO { sent as f64 / send_window.as_secs_f64() } else { 0.0 };
    println!(
        "offered {achieved:.0} qps of {qps} requested ({sent} queries sent in {:.3} s)",
        send_window.as_secs_f64()
    );
    let report = mem.report();
    let gauge = |name: &str| report.gauges.iter().find(|g| g.name == name).map_or(0.0, |g| g.value);
    // Span means beside the bucketed medians: a median reads its ≈ 15 %
    // histogram bucket's bound, a mean resolves a smaller change.
    let mean_ms = |path: &str| report.span(path).map_or(0.0, |s| 1e3 * s.total_s / s.count.max(1) as f64);
    println!(
        "per batch: pack p50 {:.3} ms (mean {:.3} ms), forward p50 {:.3} ms (mean {:.3} ms) in {} of {} windows; \
         answered from the table {:.1} % ({} of {})",
        gauge("pack_ms_p50"),
        mean_ms("serve/pack"),
        gauge("forward_ms_p50"),
        mean_ms("serve/forward"),
        stats.forwards,
        stats.batches,
        if stats.served > 0 { 100.0 * stats.answer_hits as f64 / stats.served as f64 } else { 0.0 },
        stats.answer_hits,
        stats.served
    );
    if stats.shed > 0 {
        println!(
            "shed {} ({} queue-full, {} expired, {} draining, {} unknown node), handling mean {:.3} ms / max {:.3} ms",
            stats.shed,
            stats.shed_queue_full,
            stats.shed_expired,
            stats.shed_draining,
            stats.shed_unknown_node,
            stats.shed_handling_ms_mean,
            stats.shed_handling_ms_max
        );
    }
    write_metrics(flags, &mem)
}

/// Write the recorder's report where `--metrics` points, if it was given.
fn write_metrics(flags: &Flags, mem: &MemoryRecorder) -> Run {
    let Some(path) = flags.get("metrics") else {
        return Ok(());
    };
    std::fs::write(path, mem.report().to_json_string_pretty())
        .map_err(|e| failure(format!("failed to write metrics to {path}: {e}")))?;
    println!("metrics written to {path}");
    Ok(())
}

/// The `train --elastic` / `train --rebalance` path: data-parallel training
/// over `--world` simulated ranks, one [`DistributedJob`]. `--elastic` arms
/// the shrink rung over a checkpoint store (`--lose-rank <rank>@<epoch>`
/// scripts a permanent loss, `--min-ranks`/`--max-retries` bound the
/// ladder); `--rebalance` arms the closed-loop straggler rebalancer.
/// `--slow-rank`/`--slow-delay-ms` inject a deterministic straggler;
/// otherwise an installed fault plan's comm domain (`--faults comm.*`)
/// drives the fabric. The epoch losses do not depend on which rank owns
/// which sequence.
fn run_distributed(flags: &Flags, m: Method, dataset: &NodeDataset, epochs: usize, seed: u64) -> Run {
    let world = count(flags, "world", 4)?;
    let mut cfg = TrainConfig::new(m, num(flags, "seq-len", 512)?, epochs);
    cfg.lr = num(flags, "lr", 2e-3)?;
    cfg.seed = seed;
    let (hidden, layers, heads) = (num(flags, "hidden", 32)?, num(flags, "layers", 2)?, num(flags, "heads", 4)?);
    let arch = Arch::Gt(GtConfig { hidden, layers, heads, ..GtConfig::standard(dataset.feat_dim, dataset.num_classes) });
    arch.check().map_err(invalid_configuration)?;
    let factory = move || arch.build(seed);
    let mem = Arc::new(MemoryRecorder::default());
    mem.event(torchgt_obs::Event::backend(torchgt_tensor::backend::active().name()));
    let slow_delay_ms: f64 = num(flags, "slow-delay-ms", 1.0)?;
    let plan = match opt_num::<usize>(flags, "slow-rank")? {
        Some(r) if r < world => FaultPlan::slow(r, slow_delay_ms / 1e3),
        Some(_) => return Err(usage_error(format!("--slow-rank wants a rank below --world {world}"))),
        None => torchgt::faults::comm_plan().unwrap_or_default(),
    };
    let mut job = DistributedJob { plan, recorder: mem.clone(), ..DistributedJob::new(dataset, cfg, world, factory) };
    let store;
    if flags.contains_key("elastic") {
        job.lose = flags
            .get("lose-rank")
            .map(|s| s.parse())
            .transpose()
            .map_err(|e| usage_error(format!("bad --lose-rank (want <rank>@<epoch>): {e}")))?;
        job.cfg.recovery.allow_shrink = true;
        job.cfg.recovery.min_ranks = num(flags, "min-ranks", 1)?;
        job.cfg.recovery.max_retries = num(flags, "max-retries", 1)?;
        let default_dir = std::env::temp_dir().join(format!("torchgt-elastic-{}", std::process::id()));
        let dir = text(flags, "checkpoint-dir", &default_dir.to_string_lossy()).to_string();
        store = CheckpointStore::new(dir.clone(), 3)
            .map_err(|e| failure(format!("cannot open checkpoint dir {dir}: {e}")))?;
        job.store = Some(&store);
        println!(
            "elastic run: world {world}, min ranks {}, max retries {} per generation{}",
            job.cfg.recovery.min_ranks,
            job.cfg.recovery.max_retries,
            job.lose
                .map(|l| format!(", scripted loss of rank {} at epoch {}", l.rank, l.epoch))
                .unwrap_or_default()
        );
    }
    if flags.contains_key("rebalance") {
        job.rebalance = Some(torchgt::runtime::RebalancePolicy::default());
        println!(
            "rebalance run: world {world}{}",
            plan.slow_rank
                .map(|r| format!(", rank {r} slowed {slow_delay_ms} ms/send"))
                .unwrap_or_default()
        );
    }
    let out = train_distributed(&job).map_err(|e| failure(format!("distributed run failed: {e}")))?;
    println!("{:>5} {:>9} {:>11} {:>10}", "epoch", "loss", "imbalance", "wall s");
    let first = out.stats.epoch_losses.len() - out.epoch_seconds.len();
    for (i, l) in out.stats.epoch_losses.iter().enumerate() {
        // Epochs before the last restore were timed by a failed attempt.
        let (imbalance, wall) = match i.checked_sub(first) {
            Some(k) => (format!("{:.3}", out.imbalance_history[k]), out.epoch_seconds[k]),
            None => ("-".to_string(), 0.0),
        };
        mem.epoch(torchgt_obs::EpochTrace { epoch: i, loss: *l as f64, sim_s: wall, ..Default::default() });
        println!("{:>5} {:>9.4} {:>11} {:>10.4}", i + 1, l, imbalance, wall);
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
    println!(
        "{} rebalance(s), {} token(s) moved, final per-rank tokens {:?}",
        out.rebalances, out.moved_tokens, out.final_counts
    );
    mem.gauge_set("final_world", out.final_world as f64);
    mem.gauge_set("initial_world", out.initial_world as f64);
    mem.gauge_set("generation", out.generation as f64);
    mem.gauge_set("restarts", out.restarts as f64);
    mem.gauge_set("shrinks", out.shrinks as f64);
    mem.gauge_set("rebalances", out.rebalances as f64);
    mem.gauge_set("moved_tokens", out.moved_tokens as f64);
    mem.gauge_set("world", out.stats.world as f64);
    mem.gauge_set("final_imbalance", out.imbalance_history.last().copied().unwrap_or(1.0));
    report_peak_rss(Some(&mem));
    write_metrics(flags, &mem)
}
