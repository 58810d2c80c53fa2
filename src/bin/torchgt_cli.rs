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
//! flag or subcommand is always exit code 2 plus usage. Each subcommand then
//! resolves its flags into one typed value before it touches a dataset, a
//! shard, a checkpoint or a model, and the one rule is: **a flag given but
//! not read by that resolution is a usage error (exit 2) naming it**. A
//! mode's settings live only in the variant whose run reads them, so a flag
//! of another mode is never read — `--scale` beside `--data-dir`, `--world`
//! without `--elastic`/`--rebalance`, `--resume` without `--checkpoint-dir`.
//! A numeric flag whose value does not parse is a usage error too (the
//! error names the flag and the value; nothing falls back to its
//! default). The bare legacy
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
//! <ms>` set the straggler of the installed comm fault plan, the fields
//! `comm.slow=<r>@<delay>` fills; the losses are bit-identical whether or
//! not the loop moves sequences). Both train GT only (`--model gt`, the
//! default there). Collectives always overlap communication with compute:
//! there is one, asynchronous, issue path.
//!
//! `datagen` writes a sharded on-disk copy of a stand-in dataset (`TGDS`
//! shards plus a `TGDM` manifest); `train --data-dir <dir>` then streams it
//! shard-by-shard through a prefetching loader instead of materialising the
//! whole graph in memory — the epoch losses are bit-identical to the
//! in-memory path. Every train run self-reports its peak RSS (`peak rss: N
//! bytes`), so scripts can assert the out-of-core claim or compare methods'
//! memory. The shards fix the dataset and its scale. Checkpoints taken from
//! a streaming run embed the dataset's manifest hash; `--resume` against a
//! *different* dataset is refused unless `--allow-dataset-mismatch` is
//! passed.
//!
//! `freeze` trains a model, then runs the post-training quantization pass:
//! calibrate on held-out nodes, quantize per-row, and **gate** — the freeze
//! is refused (exit 1) if quantized top-1 accuracy drops more than
//! `--max-drop` below the f32 reference. The artifact lands at `--out` in
//! the CRC-guarded `TGTF` format with dataset provenance embedded, so
//! `serve` can regenerate the identical graph by seed.

use flags::Flags;
use std::fmt::Display;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use torchgt::model::{Arch, GraphormerConfig, GtConfig};
use torchgt::prelude::*;
use torchgt::serve::{DatasetRef, Query, ServeReply, Zipf};
use torchgt::{ModelKind, TorchGtBuilder};
use torchgt_compat::sync::channel::{bounded, unbounded};
use torchgt_tensor::backend::Backend;

/// Exit code of a `--crash-after` simulated crash (distinct from usage and
/// failure codes so scripts can assert on it).
const CRASH_EXIT: u8 = 3;

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
    FlagSpec::value("hidden", "hidden width (default 64; 32 under --elastic/--rebalance)"),
    FlagSpec::value("layers", "encoder layers (default 3; 2 under --elastic/--rebalance)"),
    FlagSpec::value("heads", "attention heads (default 8; 4 under --elastic/--rebalance)"),
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

/// The flags of one command line. The list is private to this module, so
/// every lookup goes through an accessor that records the read, and
/// [`Flags::finish`] refuses a flag that was given but never read.
mod flags {
    use super::SubSpec;
    use std::str::FromStr;

    /// `(name, value, read)` per given flag in command-line order; a
    /// repeated flag keeps its last value.
    pub(super) struct Flags(Vec<(&'static str, String, bool)>);

    impl Flags {
        /// Parse `--key value` / `--switch` arguments against a subcommand's
        /// flag table.
        pub(super) fn parse(args: &[String], sub: &SubSpec) -> Result<Self, String> {
            let mut given: Vec<(&'static str, String, bool)> = Vec::new();
            let mut args = args.iter();
            while let Some(arg) = args.next() {
                let key = arg.strip_prefix("--").ok_or_else(|| format!("unexpected argument `{arg}`"))?;
                let Some(spec) = sub.flags.iter().find(|f| f.name == key) else {
                    let allowed: String = sub.flags.iter().map(|f| format!(" --{}", f.name)).collect();
                    if allowed.is_empty() {
                        return Err(format!("unknown flag `--{key}` (this command takes no flags)"));
                    }
                    return Err(format!("unknown flag `--{key}` (allowed:{allowed})"));
                };
                let value = if spec.takes_value {
                    match args.next() {
                        Some(v) if !v.starts_with("--") => v.clone(),
                        _ => return Err(format!("flag `--{key}` needs a value ({})", spec.help)),
                    }
                } else {
                    String::new()
                };
                given.retain(|&(name, ..)| name != spec.name);
                given.push((spec.name, value, false));
            }
            Ok(Self(given))
        }

        /// A string flag, `None` when absent.
        pub(super) fn text(&mut self, name: &str) -> Option<String> {
            let (_, value, read) = self.0.iter_mut().find(|(given, ..)| *given == name)?;
            *read = true;
            Some(value.clone())
        }

        /// Whether the switch `name` was given.
        pub(super) fn switch(&mut self, name: &str) -> bool {
            self.text(name).is_some()
        }

        /// A numeric flag, `None` when absent. A value that does not parse,
        /// or that parses to an infinity or NaN (`f64` reads `inf` and
        /// `NaN`), is a usage error naming the flag and the rejected value —
        /// never a silent fallback to the default (`--epochs 1O` must not
        /// train 8 epochs), and never a number no run can use
        /// (`--slow-delay-ms inf` would sleep forever).
        pub(super) fn opt_num<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
            let Some(v) = self.text(name) else { return Ok(None) };
            let finite = v.parse::<f64>().map_or(true, f64::is_finite);
            match v.parse() {
                Ok(n) if finite => Ok(Some(n)),
                Ok(_) => Err(format!("invalid value `{v}` for --{name}: expected a finite number")),
                Err(_) => Err(format!("invalid value `{v}` for --{name}: expected a number")),
            }
        }

        /// A numeric flag, or `default` when absent (see [`Self::opt_num`]).
        pub(super) fn num<T: FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
            Ok(self.opt_num(name)?.unwrap_or(default))
        }

        /// A count flag, or `default` when absent: 0 is a usage error naming
        /// the flag, never a value silently raised to 1.
        pub(super) fn count(&mut self, name: &str, default: usize) -> Result<usize, String> {
            match self.num(name, default)? {
                0 => Err(format!("--{name} must be at least 1, got 0")),
                n => Ok(n),
            }
        }

        /// End the resolution of a `sub` command line: a flag given but not
        /// read is a usage error naming it beside the flags that were read,
        /// which chose the run that does not read it.
        pub(super) fn finish(self, sub: &str) -> Result<(), String> {
            let names = |read: bool| -> String {
                self.0.iter().filter(|&&(.., was_read)| was_read == read).map(|f| format!(" --{}", f.0)).collect()
            };
            let unread = names(false);
            if unread.is_empty() {
                return Ok(());
            }
            Err(format!("`{sub}{}` does not read{unread}: each flag is read only by a run that uses it", names(true)))
        }
    }
}

/// `--scale`, when given: the fraction of the original dataset's size to
/// generate, in (0, 1] — 1.0 is the original size, and anything larger
/// would overflow the node count long before it fit in memory.
fn opt_scale(flags: &mut Flags) -> Result<Option<f64>, String> {
    match flags.opt_num::<f64>("scale")? {
        Some(s) if !(s > 0.0 && s <= 1.0) => {
            Err(format!("invalid value `{s}` for --scale: expected a fraction in (0, 1]"))
        }
        scale => Ok(scale),
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

/// `--dataset`, when given, as a stand-in kind.
fn opt_dataset(flags: &mut Flags) -> Result<Option<DatasetKind>, String> {
    let Some(name) = flags.text("dataset") else { return Ok(None) };
    dataset_kind(&name).map(Some).ok_or_else(|| format!("unknown dataset `{name}` (try `torchgt_cli datasets`)"))
}

/// The `--dataset` (default arxiv) / `--scale` pair of a generated stand-in.
fn generated(flags: &mut Flags) -> Result<(DatasetKind, f64), String> {
    let kind = opt_dataset(flags)?.unwrap_or(DatasetKind::OgbnArxiv);
    Ok((kind, opt_scale(flags)?.unwrap_or_else(|| default_scale(kind))))
}

/// The scale that sizes a stand-in to ~2k nodes (the default `--scale`).
fn default_scale(kind: DatasetKind) -> f64 {
    (2000.0 / kind.spec().nodes as f64).min(1.0)
}

/// `--backend`, when given: a kernel backend this CPU runs — an unknown
/// name or a missing ISA is a usage error here, not a SIGILL mid-run.
fn opt_backend(flags: &mut Flags) -> Result<Option<Backend>, String> {
    flags.text("backend").map(|name| Backend::parse(&name)).transpose()
}

/// `--faults`, when given: a seeded fault plan in the `TORCHGT_FAULTS`
/// grammar; a malformed spec is a usage error here, not a mid-run surprise.
fn opt_faults(flags: &mut Flags) -> Result<Option<FaultSpec>, String> {
    flags.text("faults").map(|spec| spec.parse().map_err(|e| format!("bad fault spec: {e}"))).transpose()
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

/// Install the process-global settings before any tensor work or I/O runs:
/// the kernel backend (`--backend`, else `TORCHGT_BACKEND`, else the
/// fastest this CPU runs), which is announced, and the fault plan.
fn install(backend: Option<Backend>, faults: Option<FaultSpec>) -> Run {
    if let Some(backend) = backend {
        std::env::set_var(torchgt_tensor::backend::ENV_VAR, backend.name());
    }
    println!("kernel backend: {}", torchgt_tensor::backend::from_env().map_err(usage_error)?.name());
    install_faults(faults)
}

/// Install the seeded fault plan: `--faults`, else `TORCHGT_FAULTS`.
fn install_faults(faults: Option<FaultSpec>) -> Run {
    if let Some(spec) = faults {
        torchgt::faults::install(spec);
    } else {
        torchgt::faults::install_from_env().map_err(|e| usage_error(format!("bad fault spec: {e}")))?;
    }
    if let Some(spec) = torchgt::faults::installed() {
        println!("fault injection active (seed {})", spec.seed);
    }
    Ok(())
}

/// Generate the node dataset a subcommand runs on, announcing what came out.
fn generate(kind: DatasetKind, scale: f64, seed: u64) -> NodeDataset {
    let dataset = kind.generate_node(scale, seed);
    println!(
        "{}-like stand-in: {} nodes, {} edges, {} classes (scale {scale})",
        kind.spec().name,
        dataset.graph.num_nodes(),
        dataset.graph.num_edges(),
        dataset.num_classes
    );
    dataset
}

/// What `train` and `freeze` both read, once: the backend and fault plan to
/// install, and the run's one hyper-parameter record — `cfg` carries the
/// method, sequence length, epochs, learning rate and seed, beside the
/// model's family and shape.
struct Fit {
    backend: Option<Backend>,
    faults: Option<FaultSpec>,
    cfg: TrainConfig,
    model: ModelKind,
    hidden: usize,
    layers: usize,
    heads: usize,
}

/// Where a node dataset comes from.
enum Source {
    /// A stand-in generated in memory.
    Generate { kind: DatasetKind, scale: f64 },
    /// A `datagen` shard directory; the shards fix the dataset and its
    /// scale. `train` streams it, in a seeded per-epoch order when
    /// `shuffle`; `freeze` loads it whole.
    Shards { dir: String, shuffle: bool },
}

/// How `train` runs.
enum Driver {
    /// One trainer in this process, over either source.
    OneProcess { source: Source, ckpt: Option<Ckpt> },
    Supervisor(Supervisor),
}

/// `train --checkpoint-dir` on one process; `allow_mismatch` resumes a
/// shard-directory run even if the snapshot's dataset hash differs.
struct Ckpt {
    dir: String,
    opts: CheckpointOptions,
    allow_mismatch: bool,
}

/// The distributed supervisor over `world` simulated ranks of a generated
/// stand-in, with the shrink rung (`elastic`) and/or the closed-loop
/// rebalancer armed. `slow_rank`/`slow_delay_ms` set the straggler of the
/// installed comm fault plan.
struct Supervisor {
    kind: DatasetKind,
    scale: f64,
    world: usize,
    elastic: Option<Elastic>,
    rebalance: bool,
    slow_rank: Option<usize>,
    slow_delay_ms: Option<f64>,
}

/// `train --elastic`: the scripted loss, the recovery ladder, and the
/// snapshot directory (a fresh temporary one when absent).
struct Elastic {
    lose: Option<RankLoss>,
    recovery: RecoveryPolicy,
    dir: Option<String>,
}

struct TrainArgs {
    fit: Fit,
    metrics: Option<String>,
    driver: Driver,
}

struct FreezeArgs {
    fit: Fit,
    source: Source,
    out: String,
    calib: usize,
    opts: FreezeOptions,
}

struct ServeArgs {
    backend: Option<Backend>,
    faults: Option<FaultSpec>,
    metrics: Option<String>,
    model: String,
    cfg: ServeConfig,
    queries: usize,
    qps: f64,
    /// Each client's gap between paced sends, so the aggregate offered
    /// load is `qps`.
    pace: Duration,
    zipf: f64,
    clients: usize,
    queue: usize,
    /// Overrides of the artifact's dataset provenance.
    dataset: Option<DatasetKind>,
    scale: Option<f64>,
    data_seed: Option<u64>,
}

struct DatagenArgs {
    faults: Option<FaultSpec>,
    kind: DatasetKind,
    scale: f64,
    seed: u64,
    out: String,
    shard_nodes: usize,
}

/// A resolved command line: the run it asks for, every flag it was given
/// read and checked.
type Resolved = Box<dyn FnOnce() -> Run>;

/// Resolve a parsed `sub` command line into its typed arguments, bound to
/// the run that takes them. Nothing is read from or written to the disk,
/// the environment or the fault plane until the run is called.
fn resolve(sub: &str, mut flags: Flags) -> Result<Resolved, String> {
    fn bind<T: 'static>(args: T, run: fn(T) -> Run) -> Resolved {
        Box::new(move || run(args))
    }
    let run = match sub {
        "info" => bind(opt_dataset(&mut flags)?.unwrap_or(DatasetKind::OgbnArxiv), run_info),
        "maxseq" => bind(flags.count("gpus", 8)?, run_maxseq),
        "datagen" => bind(read_datagen(&mut flags)?, run_datagen),
        "train" => bind(read_train(&mut flags)?, run_train),
        "freeze" => bind(read_freeze(&mut flags)?, run_freeze),
        "serve" => bind(read_serve(&mut flags)?, run_serve),
        _ => Box::new(run_datasets),
    };
    flags.finish(sub)?;
    Ok(run)
}

/// The flags `train` and `freeze` share. The supervisor trains GT only, on
/// smaller default shapes.
fn read_fit(flags: &mut Flags, epochs: usize, supervisor: bool) -> Result<Fit, String> {
    let method = match flags.text("method").as_deref().unwrap_or("torchgt") {
        "torchgt" => Method::TorchGt,
        "gp-flash" | "flash" => Method::GpFlash,
        "gp-sparse" | "sparse" => Method::GpSparse,
        "gp-raw" | "raw" => Method::GpRaw,
        _ => return Err("unknown method (torchgt|gp-flash|gp-sparse|gp-raw)".into()),
    };
    let model = flags.text("model").map(|s| s.parse().map_err(|e| format!("--model: {e}"))).transpose()?;
    let (model, hidden, layers, heads) = match model {
        Some(kind) if supervisor && kind != ModelKind::Gt => {
            return Err(format!("--model {kind}: --elastic and --rebalance train {} only", ModelKind::Gt))
        }
        _ if supervisor => (ModelKind::Gt, 32, 2, 4),
        model => (model.unwrap_or(ModelKind::Graphormer), 64, 3, 8),
    };
    let mut cfg = TrainConfig::new(method, flags.num("seq-len", 512)?, flags.num("epochs", epochs)?);
    (cfg.lr, cfg.seed) = (flags.num("lr", 2e-3)?, flags.num("seed", 1)?);
    Ok(Fit {
        backend: opt_backend(flags)?,
        faults: opt_faults(flags)?,
        cfg,
        model,
        hidden: flags.num("hidden", hidden)?,
        layers: flags.num("layers", layers)?,
        heads: flags.num("heads", heads)?,
    })
}

/// `train`: a `--data-dir` run streams its shards on one process; otherwise
/// `--elastic`/`--rebalance` choose the supervisor, and a one-process run
/// may checkpoint.
fn read_train(flags: &mut Flags) -> Result<TrainArgs, String> {
    let data_dir = flags.text("data-dir");
    let (elastic, rebalance) = match data_dir {
        None => (flags.switch("elastic"), flags.switch("rebalance")),
        Some(_) => (false, false),
    };
    let driver = if elastic || rebalance {
        let elastic = if elastic {
            let lose = flags.text("lose-rank").map(|s| s.parse()).transpose();
            let lose = lose.map_err(|e| format!("bad --lose-rank (want <rank>@<epoch>): {e}"))?;
            let (min_ranks, max_retries) = (flags.num("min-ranks", 1)?, flags.num("max-retries", 1)?);
            let recovery = RecoveryPolicy { allow_shrink: true, min_ranks, max_retries, ..RecoveryPolicy::default() };
            Some(Elastic { lose, recovery, dir: flags.text("checkpoint-dir") })
        } else {
            None
        };
        let (kind, scale) = generated(flags)?;
        Driver::Supervisor(Supervisor {
            kind,
            scale,
            world: flags.count("world", 4)?,
            elastic,
            rebalance,
            slow_rank: flags.opt_num("slow-rank")?,
            slow_delay_ms: flags.opt_num("slow-delay-ms")?,
        })
    } else {
        let ckpt = match flags.text("checkpoint-dir") {
            Some(dir) => {
                let resume = flags.switch("resume");
                let opts = CheckpointOptions {
                    every: flags.num("checkpoint-every", 1)?,
                    resume,
                    crash_after: flags.opt_num("crash-after")?,
                };
                let allow_mismatch = resume && data_dir.is_some() && flags.switch("allow-dataset-mismatch");
                Some(Ckpt { dir, opts, allow_mismatch })
            }
            None => None,
        };
        let source = match data_dir {
            Some(dir) => Source::Shards { dir, shuffle: flags.switch("shuffle-shards") },
            None => generated(flags).map(|(kind, scale)| Source::Generate { kind, scale })?,
        };
        Driver::OneProcess { source, ckpt }
    };
    let fit = read_fit(flags, 8, matches!(driver, Driver::Supervisor(_)))?;
    Ok(TrainArgs { fit, metrics: flags.text("metrics"), driver })
}

fn read_freeze(flags: &mut Flags) -> Result<FreezeArgs, String> {
    let source = match flags.text("data-dir") {
        Some(dir) => Source::Shards { dir, shuffle: false },
        None => generated(flags).map(|(kind, scale)| Source::Generate { kind, scale })?,
    };
    let scheme = match flags.text("scheme").as_deref().unwrap_or("int8") {
        "int8" => QuantScheme::Int8,
        "int16" => QuantScheme::Int16,
        other => return Err(format!("unknown scheme `{other}` (int8|int16)")),
    };
    Ok(FreezeArgs {
        fit: read_fit(flags, 2, false)?,
        source,
        out: flags.text("out").unwrap_or_else(|| "model.tgtf".into()),
        calib: flags.count("calib", 256)?,
        opts: FreezeOptions { scheme, max_acc_drop: flags.num("max-drop", 0.01)? },
    })
}

fn read_datagen(flags: &mut Flags) -> Result<DatagenArgs, String> {
    let (kind, scale) = generated(flags)?;
    Ok(DatagenArgs {
        faults: opt_faults(flags)?,
        kind,
        scale,
        seed: flags.num("seed", 1)?,
        out: flags.text("out").unwrap_or_else(|| "data".into()),
        shard_nodes: flags.count("shard-nodes", 16384)?,
    })
}

fn read_serve(flags: &mut Flags) -> Result<ServeArgs, String> {
    let cfg = ServeConfig {
        max_batch: flags.count("max-batch", 8)?,
        latency_budget: Duration::from_millis(flags.num("budget-ms", 50)?),
        ctx_nodes: flags.num("ctx", 32)?,
        shed_watermark: flags.opt_num("shed-watermark")?,
        deadline: flags.opt_num("deadline-ms")?.map(Duration::from_millis),
    };
    let (qps, clients): (f64, usize) = (flags.num("qps", 500.0)?, flags.count("clients", 2)?);
    let pace = Some(clients as f64 / qps).filter(|_| qps > 0.0).and_then(|s| Duration::try_from_secs_f64(s).ok());
    let Some(pace) = pace else {
        return Err(format!("invalid value `{qps}` for --qps: expected a rate above 0 queries/sec"));
    };
    let zipf: f64 = flags.num("zipf", 1.1)?;
    if zipf < 0.0 {
        return Err(format!("--zipf must be a finite exponent ≥ 0, got {zipf}"));
    }
    Ok(ServeArgs {
        backend: opt_backend(flags)?,
        faults: opt_faults(flags)?,
        metrics: flags.text("metrics"),
        model: flags.text("model").unwrap_or_else(|| "model.tgtf".into()),
        cfg,
        queries: flags.num("queries", 256)?,
        qps,
        pace,
        zipf,
        clients,
        queue: flags.count("queue", 64)?,
        dataset: opt_dataset(flags)?,
        scale: opt_scale(flags)?,
        data_seed: flags.opt_num("data-seed")?,
    })
}

/// The trainer builder over the resolved hyper-parameters; the caller
/// builds it over an in-memory dataset or a shard stream.
fn trainer_builder(fit: &Fit) -> TorchGtBuilder {
    let cfg = &fit.cfg;
    TorchGtBuilder::new(cfg.method)
        .model(fit.model)
        .seq_len(cfg.seq_len)
        .epochs(cfg.epochs)
        .hidden(fit.hidden)
        .layers(fit.layers)
        .heads(fit.heads)
        .lr(cfg.lr)
        .seed(cfg.seed)
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
    let Ok(flags) = Flags::parse(rest, sub).inspect_err(|msg| eprintln!("{msg}")) else {
        return usage();
    };
    match resolve(sub.name, flags) {
        Ok(run) => run().err().unwrap_or(ExitCode::SUCCESS),
        Err(msg) => usage_error(msg),
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
fn run_datagen(args: DatagenArgs) -> Run {
    install_faults(args.faults)?;
    let DatagenArgs { kind, scale, seed, out, shard_nodes, .. } = args;
    let report = generate_to_dir(kind, scale, seed, Path::new(&out), shard_nodes)
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

fn run_info(kind: DatasetKind) -> Run {
    let spec = kind.spec();
    println!("{}:", spec.name);
    println!("  nodes   {}", spec.nodes);
    println!("  edges   {}", spec.edges);
    println!("  feats   {}", spec.feats);
    println!("  classes {}", spec.classes);
    Ok(())
}

fn run_maxseq(gpus: usize) -> Run {
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

fn run_train(args: TrainArgs) -> Run {
    let TrainArgs { fit, metrics, driver } = args;
    install(fit.backend, fit.faults.clone())?;
    let metrics = metrics.as_deref();
    match driver {
        Driver::OneProcess { source: Source::Shards { dir, shuffle }, ckpt } => {
            run_train_streaming(&fit, &dir, shuffle, ckpt, metrics)
        }
        Driver::OneProcess { source: Source::Generate { kind, scale }, ckpt } => {
            let dataset = generate(kind, scale, fit.cfg.seed);
            let mut node_trainer = trainer_builder(&fit).build_node(&dataset).map_err(invalid_configuration)?;
            drive_trainer(&mut node_trainer, fit.cfg.epochs, ckpt, metrics)
        }
        Driver::Supervisor(supervisor) => run_distributed(&fit, supervisor, metrics),
    }
}

/// The `train --data-dir` path: open the sharded dataset, build a
/// [`StreamingTrainer`] over its prefetching loader, and drive it through
/// the same checkpoint/metrics loop as the in-memory path.
fn run_train_streaming(fit: &Fit, dir: &str, shuffle: bool, ckpt: Option<Ckpt>, metrics: Option<&str>) -> Run {
    let loader = ShardLoader::open(Path::new(dir))
        .map_err(|e| failure(format!("cannot open sharded dataset {dir}: {e}")))?;
    let loader = if shuffle { loader.with_shuffle(fit.cfg.seed) } else { loader };
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
    let mut trainer = trainer_builder(fit).build_streaming(loader).map_err(invalid_configuration)?;
    if ckpt.as_ref().is_some_and(|c| c.allow_mismatch) {
        trainer.set_allow_dataset_mismatch(true);
    }
    drive_trainer(&mut trainer, fit.cfg.epochs, ckpt, metrics)
}

/// Shared train-loop driver for any [`Trainer`]: recorder attachment,
/// checkpointed or plain epochs, the peak-RSS self-report and the metrics
/// dump.
fn drive_trainer(trainer: &mut dyn Trainer, epochs: usize, ckpt: Option<Ckpt>, metrics: Option<&str>) -> Run {
    let recorder = metrics.is_some().then(|| {
        let mem = Arc::new(MemoryRecorder::default());
        mem.event(torchgt_obs::Event::backend(torchgt_tensor::backend::active().name()));
        trainer.attach_recorder(mem.clone());
        mem
    });
    print_epoch_header();
    let mut interrupted = false;
    if let Some(Ckpt { dir, opts, .. }) = ckpt {
        let store = CheckpointStore::new(dir.clone(), 3)
            .map_err(|e| failure(format!("cannot open checkpoint dir {dir}: {e}")))?;
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
        write_metrics(metrics, &mem)?;
    }
    if interrupted {
        Err(ExitCode::from(CRASH_EXIT))
    } else {
        Ok(())
    }
}

/// `freeze`: train, calibrate, quantize, gate, write the TGTF artifact.
fn run_freeze(args: FreezeArgs) -> Run {
    let FreezeArgs { fit, source, out, calib, opts } = args;
    install(fit.backend, fit.faults.clone())?;
    let seed = fit.cfg.seed;
    // A shard directory's manifest hash is embedded in the artifact.
    let (dataset, prov, manifest_hash) = match source {
        Source::Shards { dir, .. } => {
            let man = Manifest::load_dir(Path::new(&dir))
                .map_err(|e| failure(format!("cannot read dataset manifest in {dir}: {e}")))?;
            let dataset = load_node_dataset(Path::new(&dir))
                .map_err(|e| failure(format!("cannot load sharded dataset {dir}: {e}")))?;
            println!(
                "loaded {}-like stand-in from {dir}: {} nodes, {} classes ({})",
                man.kind.spec().name,
                man.total_nodes,
                man.num_classes,
                man.hash()
            );
            let prov = DatasetRef { kind: kind_alias(man.kind).to_string(), scale: man.scale, seed: man.seed };
            (dataset, prov, Some(man.hash()))
        }
        Source::Generate { kind, scale } => {
            (generate(kind, scale, seed), DatasetRef { kind: kind_alias(kind).to_string(), scale, seed }, None)
        }
    };
    let mut trainer = trainer_builder(&fit).build_node(&dataset).map_err(invalid_configuration)?;
    print_epoch_header();
    for _ in 0..fit.cfg.epochs {
        print_epoch(&trainer.train_epoch());
    }
    let calib = CalibSet::from_dataset(&dataset, calib, seed);
    let frozen = trainer.freeze_with(&calib, opts).map_err(|e| failure(format!("freeze rejected: {e}")))?;
    let mut frozen = torchgt::serve::freeze::with_dataset(frozen, prov);
    if let Some(hash) = manifest_hash {
        frozen = torchgt::serve::freeze::with_dataset_hash(frozen, hash);
    }
    frozen
        .save(Path::new(&out))
        .map_err(|e| failure(format!("cannot write frozen model to {out}: {e}")))?;
    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!(
        "frozen: {out} ({bytes} bytes, {:?}, f32 acc {:.4} -> quantized acc {:.4})",
        frozen.scheme, frozen.f32_acc, frozen.frozen_acc
    );
    Ok(())
}

/// `serve`: load a TGTF artifact, rebuild its graph, and answer Zipf query
/// traffic from concurrent load-generator threads through the micro-batching
/// serve loop.
fn run_serve(args: ServeArgs) -> Run {
    install(args.backend, args.faults.clone())?;
    let ServeArgs { queries, qps, pace, zipf: zipf_s, clients, queue, .. } = args;
    let model_path = &args.model;
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
    let kind = match (args.dataset, &prov) {
        (Some(kind), _) => kind,
        (None, Some(prov)) => dataset_kind(&prov.kind)
            .ok_or_else(|| usage_error(format!("unknown dataset `{}` (try `torchgt_cli datasets`)", prov.kind)))?,
        (None, None) => {
            return Err(usage_error("frozen model carries no dataset provenance; pass --dataset/--scale/--data-seed"))
        }
    };
    let scale: f64 = args.scale.or(prov.as_ref().map(|d| d.scale)).unwrap_or_else(|| default_scale(kind));
    let data_seed: u64 = args.data_seed.or(prov.as_ref().map(|d| d.seed)).unwrap_or(1);
    let dataset = kind.generate_node(scale, data_seed);
    println!(
        "serving {}-like stand-in: {} nodes, {} edges (scale {scale}, seed {data_seed})",
        kind.spec().name,
        dataset.graph.num_nodes(),
        dataset.graph.num_edges()
    );

    let mem = Arc::new(MemoryRecorder::default());
    mem.event(torchgt_obs::Event::backend(torchgt_tensor::backend::active().name()));
    let mut serve_loop = ServeLoop::new(
        &frozen,
        dataset.graph.clone(),
        dataset.features.clone(),
        args.cfg,
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
        // Split the query count; each client keeps the resolved pace.
        let n = queries / clients + usize::from(c < queries % clients);
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
    write_metrics(args.metrics.as_deref(), &mem)
}

/// Write the recorder's report where `--metrics` points, if it was given.
fn write_metrics(path: Option<&str>, mem: &MemoryRecorder) -> Run {
    let Some(path) = path else {
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
/// ladder); `--rebalance` arms the closed-loop straggler rebalancer. An
/// installed fault plan's comm domain (`--faults comm.*`) drives the
/// fabric, and `--slow-rank`/`--slow-delay-ms` set its straggler. The epoch
/// losses do not depend on which rank owns which sequence.
fn run_distributed(fit: &Fit, sup: Supervisor, metrics: Option<&str>) -> Run {
    let Supervisor { kind, scale, world, elastic, rebalance, slow_rank, slow_delay_ms } = sup;
    let mut plan = torchgt::faults::comm_plan().unwrap_or_default();
    if slow_rank.is_some() || slow_delay_ms.is_some() {
        plan.slow_rank = slow_rank.or(plan.slow_rank);
        plan.slow_delay_s = slow_delay_ms.unwrap_or(1.0) / 1e3;
    }
    let by = if slow_rank.is_some() { "--slow-rank" } else { "comm.slow" };
    match plan.slow_rank {
        Some(r) if r >= world => return Err(usage_error(format!("{by} {r}: want a rank below --world {world}"))),
        None if slow_delay_ms.is_some() => {
            return Err(usage_error("--slow-delay-ms: no straggler to slow (set --slow-rank or comm.slow)"))
        }
        _ => {}
    }
    let dataset = generate(kind, scale, fit.cfg.seed);
    let (hidden, layers, heads, seed) = (fit.hidden, fit.layers, fit.heads, fit.cfg.seed);
    let arch = Arch::Gt(GtConfig { hidden, layers, heads, ..GtConfig::standard(dataset.feat_dim, dataset.num_classes) });
    arch.check().map_err(invalid_configuration)?;
    let factory = move || arch.build(seed);
    let mem = Arc::new(MemoryRecorder::default());
    mem.event(torchgt_obs::Event::backend(torchgt_tensor::backend::active().name()));
    let job = DistributedJob::new(&dataset, fit.cfg, world, factory);
    let mut job = DistributedJob { plan, recorder: mem.clone(), ..job };
    let store;
    if let Some(Elastic { lose, recovery, dir }) = elastic {
        (job.lose, job.cfg.recovery) = (lose, recovery);
        let dir = dir.unwrap_or_else(|| {
            let default_dir = std::env::temp_dir().join(format!("torchgt-elastic-{}", std::process::id()));
            default_dir.to_string_lossy().into_owned()
        });
        store = CheckpointStore::new(dir.clone(), 3)
            .map_err(|e| failure(format!("cannot open checkpoint dir {dir}: {e}")))?;
        job.store = Some(&store);
        println!(
            "elastic run: world {world}, min ranks {}, max retries {} per generation{}",
            recovery.min_ranks,
            recovery.max_retries,
            lose.map(|l| format!(", scripted loss of rank {} at epoch {}", l.rank, l.epoch)).unwrap_or_default()
        );
    }
    if rebalance {
        job.rebalance = Some(torchgt::runtime::RebalancePolicy::default());
        println!(
            "rebalance run: world {world}{}",
            plan.slow_rank
                .map(|r| format!(", rank {r} slowed {:.3} ms/send", plan.slow_delay_s * 1e3))
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
    write_metrics(metrics, &mem)
}

/// Resolution alone, generated from the flag tables: it touches no disk,
/// environment variable or fault plane, so these cases start no run.
#[cfg(test)]
mod tests {
    use super::*;

    /// Every subcommand with its base modes: `train` one-process, over
    /// `--data-dir` (also resuming), `--elastic` and `--rebalance`, each with
    /// and without `--checkpoint-dir` where that base resolves.
    const BASES: &[(&str, &[&str])] = &[
        ("train", &[]),
        ("train", &["--checkpoint-dir", "ckpts"]),
        ("train", &["--data-dir", "shards"]),
        ("train", &["--data-dir", "shards", "--checkpoint-dir", "ckpts"]),
        ("train", &["--data-dir", "shards", "--checkpoint-dir", "ckpts", "--resume"]),
        ("train", &["--elastic"]),
        ("train", &["--elastic", "--checkpoint-dir", "ckpts"]),
        ("train", &["--rebalance"]),
        ("train", &["--elastic", "--rebalance"]),
        ("freeze", &[]),
        ("freeze", &["--data-dir", "shards"]),
        ("serve", &[]),
        ("datagen", &[]),
        ("info", &[]),
        ("maxseq", &[]),
        ("datasets", &[]),
    ];

    /// A valid value for every value flag of every table.
    fn sample(flag: &str) -> &'static str {
        match flag {
            "dataset" => "products",
            "method" => "gp-sparse",
            "scale" | "max-drop" => "0.01",
            "model" => "gt",
            "lr" => "0.001",
            "backend" => "scalar",
            "metrics" => "m.json",
            "data-dir" => "shards",
            "checkpoint-dir" => "ckpts",
            "out" => "out",
            "lose-rank" => "1@1",
            "faults" => "seed=7,comm.drop=0.1",
            "scheme" => "int16",
            "zipf" => "0.5",
            "qps" => "100",
            "epochs" | "seed" | "seq-len" | "hidden" | "layers" | "heads" | "checkpoint-every" | "crash-after"
            | "world" | "min-ranks" | "max-retries" | "slow-rank" | "slow-delay-ms" | "calib" | "queries"
            | "clients" | "queue" | "max-batch" | "budget-ms" | "ctx" | "data-seed" | "shed-watermark"
            | "deadline-ms" | "shard-nodes" | "gpus" => "2",
            other => panic!("no sample value for --{other}: add one"),
        }
    }

    fn resolve_args(sub: &SubSpec, args: &[String]) -> Result<Resolved, String> {
        resolve(sub.name, Flags::parse(args, sub)?)
    }

    /// Whether `msg` names `--flag` as a whole word.
    fn names(msg: &str, flag: &str) -> bool {
        let word = format!("--{flag}");
        msg.match_indices(&word).any(|(i, _)| {
            !msg[i + word.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
        })
    }

    /// Each flag of each subcommand's table, given beside each base, ends in
    /// exactly one of two ways: it resolves (so [`flags::Flags::finish`]
    /// found it read), or a usage error names it. And each flag resolves
    /// beside at least one base, so no flag of a table is read by no run.
    #[test]
    fn every_flag_is_read_or_refused_by_name() {
        for sub in SUBCOMMANDS {
            assert!(BASES.iter().any(|&(name, _)| name == sub.name), "no base for `{}`", sub.name);
        }
        let mut resolved = std::collections::BTreeSet::new();
        for &(name, base) in BASES {
            let sub = SUBCOMMANDS.iter().find(|s| s.name == name).expect("a listed subcommand");
            let base: Vec<String> = base.iter().map(|s| s.to_string()).collect();
            if let Err(msg) = resolve_args(sub, &base) {
                panic!("base `{name} {base:?}` does not resolve: {msg}");
            }
            for flag in sub.flags.iter().filter(|f| !base.contains(&format!("--{}", f.name))) {
                let mut args = base.clone();
                args.push(format!("--{}", flag.name));
                if flag.takes_value {
                    args.push(sample(flag.name).to_string());
                }
                match resolve_args(sub, &args) {
                    Ok(_) => _ = resolved.insert((name, flag.name)),
                    Err(msg) => {
                        assert!(names(&msg, flag.name), "`{name} {args:?}` fails without naming --{}: {msg}", flag.name)
                    }
                }
            }
        }
        for sub in SUBCOMMANDS {
            for flag in sub.flags {
                let (sub, flag) = (sub.name, flag.name);
                assert!(resolved.contains(&(sub, flag)), "`{sub} --{flag}` resolves beside no base");
            }
        }
    }

    /// The unread check itself: a flag given and never looked up is refused
    /// by name, beside the flags that were read.
    #[test]
    fn finish_names_what_was_not_read() {
        let args: Vec<String> = ["--dataset", "arxiv", "--seed", "3"].iter().map(|s| s.to_string()).collect();
        let mut flags = Flags::parse(&args, &SUBCOMMANDS[0]).expect("train flags");
        assert_eq!(flags.num("seed", 1), Ok(3u64));
        let msg = flags.finish("train").expect_err("--dataset was not read");
        assert!(names(&msg, "dataset") && names(&msg, "seed"), "{msg}");
    }

    /// A shard-directory run is one process and resumes only from a
    /// snapshot: the supervisor's switches and a resume-only flag beside
    /// `--data-dir` are refused by name.
    #[test]
    fn data_dir_runs_refuse_the_supervisor_and_a_resume_flag() {
        let train = &SUBCOMMANDS[0];
        for (extra, named) in [
            (&["--elastic"][..], "elastic"),
            (&["--rebalance"], "rebalance"),
            (&["--checkpoint-dir", "c", "--allow-dataset-mismatch"], "allow-dataset-mismatch"),
        ] {
            let args: Vec<String> = ["--data-dir", "shards"].iter().chain(extra).map(|s| s.to_string()).collect();
            let msg = resolve_args(train, &args).err().unwrap_or_else(|| panic!("`train {args:?}` resolved"));
            assert!(names(&msg, named), "{msg}");
        }
    }
}
