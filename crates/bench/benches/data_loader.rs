//! Out-of-core loader throughput: the cold and warm passes of
//! [`torchgt_bench::loader_passes`] (read throughput and prefetch stall
//! fraction per pass), then three rows that score the pipeline's layers
//! against the host:
//!
//! * `crc32` — the checksum under every framed format on a 2 MiB buffer, in
//!   GiB/s and as a share of a one-thread streaming probe timed in the same
//!   round (the host's speed moves by 2x from minute to minute), beside the
//!   checksum's two bodies and the bytewise definition they are tested
//!   against;
//! * `loader drain` — `stream_epoch` at depth 1 with nothing consuming:
//!   read + verify + parse, MiB/s;
//! * `streaming epoch` — `StreamingTrainer::train_epoch` on the
//!   `stream_ckpt` workload's shapes: wall, loader stall, tokens/s, and the
//!   producer thread's busy time.
//!
//! Rows land in `target/experiments/BENCH_data.json`. The passes' bounds —
//! every shard byte delivered exactly once per epoch, each stall fraction
//! in [0, 1] — are the release-only case
//! `tests/gates.rs::loader_stall_fractions_are_fractions`.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;
use torchgt::ckpt::crc32;
use torchgt::prelude::*;
use torchgt_bench::{banner, dump_json, loader_passes};
use torchgt_compat::json::Value;

const SEED: u64 = 7;

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

const GIB: f64 = (1u64 << 30) as f64;
const MIB: f64 = (1u64 << 20) as f64;

/// One-thread streaming bandwidth, GiB/s: scale one 16 MiB array into
/// another (read + write; neither fits a cache).
fn stream_probe(src: &[f32], dst: &mut [f32]) -> f64 {
    let t = Instant::now();
    for (d, x) in dst.iter_mut().zip(src) {
        *d = 1.5 * *x;
    }
    black_box(&dst[dst.len() / 2]);
    (src.len() * 8) as f64 / t.elapsed().as_secs_f64() / GIB
}

/// GiB/s of `hash` over `buf`, `reps` back-to-back calls.
fn hash_rate(buf: &[u8], reps: usize, hash: impl Fn(&[u8]) -> u32) -> f64 {
    let t = Instant::now();
    let mut acc = 0u32;
    for _ in 0..reps {
        acc ^= hash(black_box(buf));
    }
    black_box(acc);
    (buf.len() * reps) as f64 / t.elapsed().as_secs_f64() / GIB
}

/// One checksum implementation's samples, one per round.
struct HashRow {
    name: &'static str,
    reps: usize,
    hash: fn(&[u8]) -> u32,
    gib_per_s: Vec<f64>,
    frac_of_stream: Vec<f64>,
}

impl HashRow {
    fn new(name: &'static str, reps: usize, hash: fn(&[u8]) -> u32) -> Self {
        Self { name, reps, hash, gib_per_s: Vec::new(), frac_of_stream: Vec::new() }
    }
}

/// The checksum's two bodies and the byte-at-a-time definition they are
/// tested against, as rows of their own.
fn body_rows() -> Vec<HashRow> {
    use torchgt::ckpt::checksum::update_slicing16;
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut state = !0u32;
        for &b in bytes {
            state ^= b as u32;
            for _ in 0..8 {
                state = (state >> 1) ^ if state & 1 != 0 { 0xEDB8_8320 } else { 0 };
            }
        }
        !state
    }
    let mut rows = vec![
        HashRow::new("crc32 body: slicing16", 4, |b| !update_slicing16(!0, b)),
        HashRow::new("crc32 oracle: bytewise", 1, bytewise),
    ];
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("pclmulqdq") {
        use torchgt::ckpt::checksum::update_clmul;
        // SAFETY: PCLMULQDQ was just detected.
        rows.insert(0, HashRow::new("crc32 body: clmul", 16, |b| unsafe { !update_clmul(!0, b) }));
    }
    rows
}

/// `crc32` on a 2 MiB buffer against the streaming probe, round by round.
fn checksum_rows() -> Vec<Value> {
    const ROUNDS: usize = 15;
    let buf: Vec<u8> =
        (0..2usize << 20).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
    let src = vec![1.0f32; 4 << 20];
    let mut dst = vec![0.0f32; 4 << 20];
    let mut rows = vec![HashRow::new("crc32", 16, crc32)];
    rows.extend(body_rows());
    let mut stream = Vec::new();
    for _ in 0..ROUNDS {
        let host = stream_probe(&src, &mut dst);
        stream.push(host);
        for row in &mut rows {
            let rate = hash_rate(&buf, row.reps, row.hash);
            row.gib_per_s.push(rate);
            row.frac_of_stream.push(rate / host);
        }
    }
    let stream = median(&mut stream);
    println!(
        "\nchecksum on a 2 MiB buffer, median of {ROUNDS} rounds (stream probe: {stream:.2} GiB/s, one thread, read + write)"
    );
    let mut out = vec![torchgt_compat::json!({ "name": "stream probe", "gib_per_s": stream })];
    for row in &mut rows {
        let (rate, share) = (median(&mut row.gib_per_s), median(&mut row.frac_of_stream));
        println!("{:>24} {rate:>8.2} GiB/s {:>7.1} % of stream", row.name, share * 100.0);
        out.push(torchgt_compat::json!({ "name": row.name, "gib_per_s": rate, "frac_of_stream": share }));
    }
    out
}

/// `stream_epoch` at depth 1 with a consumer that only counts: what read +
/// verify + parse deliver, over `PASSES` passes.
fn drain_row(dir: &Path, dataset_bytes: u64) -> Value {
    const PASSES: usize = 12;
    let mut rates = Vec::new();
    for epoch in 0..PASSES {
        let t = Instant::now();
        let loader = ShardLoader::open(dir).expect("loader opens").with_prefetch_depth(1);
        let mut stream = loader.stream_epoch(epoch);
        let mut shards = 0usize;
        while stream.next().expect("shard stream").is_some() {
            shards += 1;
        }
        rates.push(dataset_bytes as f64 / MIB / t.elapsed().as_secs_f64());
        assert_eq!(shards, loader.num_shards());
    }
    let first = rates[0];
    let best = rates.iter().copied().fold(0.0, f64::max);
    let mid = median(&mut rates);
    println!(
        "\nloader drain (stream_epoch, depth 1): first pass {first:.0} MiB/s, median {mid:.0}, best {best:.0} of {PASSES}"
    );
    torchgt_compat::json!({
        "name": "loader drain",
        "first_mib_per_s": first,
        "median_mib_per_s": mid,
        "best_mib_per_s": best,
        "passes": PASSES,
    })
}

/// `StreamingTrainer::train_epoch` (one training pass and one evaluation
/// pass over the shards) on the `stream_ckpt` workload's shapes.
fn streaming_epoch_rows() -> Vec<Value> {
    const EPOCHS: usize = 10;
    let dir = std::env::temp_dir().join(format!("torchgt_bench_stream_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let report =
        generate_to_dir(DatasetKind::OgbnPapers100M, 0.0002, SEED, &dir, 4096).expect("datagen");
    let loader = ShardLoader::open(&dir).expect("loader opens");
    let mut trainer = TorchGtBuilder::new(Method::GpSparse)
        .seq_len(512)
        .hidden(16)
        .layers(1)
        .heads(2)
        .seed(SEED)
        .build_streaming(loader)
        .expect("valid configuration");
    trainer.train_epoch(); // warm the arena and the page cache
    let before = trainer.loader().stats();
    let (mut wall_ms, mut stall_ms) = (Vec::new(), Vec::new());
    for _ in 0..EPOCHS {
        let stalled = trainer.loader().stats().stall_ms;
        let t = Instant::now();
        trainer.train_epoch();
        wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
        stall_ms.push(trainer.loader().stats().stall_ms - stalled);
    }
    let after = trainer.loader().stats();
    assert_eq!(after.bytes_read - before.bytes_read, report.total_bytes * 2 * EPOCHS as u64);
    let _ = std::fs::remove_dir_all(&dir);
    let (wall, stall) = (median(&mut wall_ms), median(&mut stall_ms));
    let tokens_per_s = report.manifest.total_nodes as f64 / (wall / 1e3);
    println!(
        "\nstreaming epoch ({} nodes in {} shards, seq 512), median of {EPOCHS}: wall {wall:.1} ms, loader stall {stall:.1} ms ({:.0} %), {tokens_per_s:.0} tokens/s",
        report.manifest.total_nodes,
        report.manifest.shards.len(),
        stall / wall * 100.0,
    );
    let mut rows = vec![torchgt_compat::json!({
        "name": "streaming epoch",
        "wall_ms": wall,
        "stall_ms": stall,
        "tokens_per_s": tokens_per_s,
        "epochs": EPOCHS,
    })];
    let busy = (after.busy_ms - before.busy_ms) / EPOCHS as f64;
    println!("    producer busy {busy:.1} ms per epoch (read + verify + parse + chunk, both passes)");
    rows.push(torchgt_compat::json!({ "name": "streaming epoch: producer busy", "ms_per_epoch": busy }));
    rows
}

fn main() {
    banner("data_loader", "TGDS shard streaming: cold read throughput vs prefetch overlap");
    let dir: PathBuf = std::env::temp_dir().join(format!("torchgt_bench_data_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (report, passes) = loader_passes(&dir).expect("datagen and both passes");
    println!(
        "dataset: {} nodes / {} arcs in {} shard(s), {} bytes on disk ({})",
        report.manifest.total_nodes,
        report.manifest.total_arcs,
        report.manifest.shards.len(),
        report.total_bytes,
        report.hash
    );
    println!("\n{:>10} {:>8} {:>11} {:>11} {:>13} {:>12}", "pass", "epochs", "wall ms", "stall ms", "stall frac", "MiB/s");
    for p in &passes {
        println!(
            "{:>10} {:>8} {:>11.2} {:>11.2} {:>13.3} {:>12.1}",
            p.label, p.epochs, p.wall_ms, p.stall_ms, p.stall_fraction, p.throughput_mib_s
        );
    }
    let [cold, warm] = &passes;
    println!(
        "\nprefetch hid {:.1}% of consumer wall time behind work (cold stall {:.3} -> warm {:.3})",
        (cold.stall_fraction - warm.stall_fraction).max(0.0) * 100.0,
        cold.stall_fraction,
        warm.stall_fraction
    );

    let mut layer_rows = checksum_rows();
    layer_rows.push(drain_row(&dir, report.total_bytes));
    layer_rows.extend(streaming_epoch_rows());

    let rows: Vec<_> = passes
        .iter()
        .map(|p| {
            torchgt_compat::json!({
                "pass": p.label,
                "epochs": p.epochs,
                "wall_ms": p.wall_ms,
                "stall_ms": p.stall_ms,
                "stall_fraction": p.stall_fraction,
                "bytes_read": p.bytes,
                "shards_delivered": p.shards,
                "throughput_mib_s": p.throughput_mib_s,
            })
        })
        .collect();
    dump_json(
        "BENCH_data",
        &torchgt_compat::json!({
            "dataset": "papers100m",
            "shards": report.manifest.shards.len(),
            "dataset_bytes": report.total_bytes,
            "manifest_hash": report.hash,
            "passes": rows,
            "layers": Value::Array(layer_rows),
        }),
    );
    let _ = std::fs::remove_dir_all(&dir);
}
