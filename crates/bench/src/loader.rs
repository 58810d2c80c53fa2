//! Out-of-core loader passes, measured for the `data_loader` bench and the
//! release gate `tests/gates.rs::loader_stall_fractions_are_fractions`.
//!
//! A papers100M-scale stand-in slice is written to disk as TGDS shards, then
//! streamed back two ways: a **cold** pass that consumes shards as fast as
//! they arrive (every millisecond of disk + CRC + parse shows up as consumer
//! stall), and a **warm** pass where the consumer does simulated training
//! work per shard, giving the background prefetcher room to hide the I/O.
//! Each pass reports read throughput and the *prefetch stall fraction* —
//! stall time over wall time — the number the `--data-dir` training path
//! lives or dies by.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;
use torchgt::prelude::*;

/// Epochs each pass streams.
const EPOCHS: usize = 3;

/// One pass of [`loader_passes`].
pub struct LoaderPass {
    /// `cold` or `warm+work`.
    pub label: &'static str,
    /// Epochs streamed.
    pub epochs: usize,
    /// Consumer wall time over all epochs, ms.
    pub wall_ms: f64,
    /// Time the consumer waited on the prefetcher, ms.
    pub stall_ms: f64,
    /// `stall_ms / wall_ms` (0 for a pass that took no time).
    pub stall_fraction: f64,
    /// Shard bytes the loader delivered.
    pub bytes: u64,
    /// Shards the loader delivered.
    pub shards: u64,
    /// `bytes` over the wall time, MiB/s.
    pub throughput_mib_s: f64,
}

/// Stream `EPOCHS` epochs through `loader`, burning `work_passes` checksum
/// sweeps over each shard's features to emulate a consumer that computes
/// between receives.
fn run_pass(loader: &ShardLoader, label: &'static str, work_passes: usize) -> io::Result<LoaderPass> {
    let start = Instant::now();
    let mut sink = 0.0f32;
    for epoch in 0..EPOCHS {
        let mut stream = loader.stream_epoch(epoch);
        while let Some(shard) = stream.next()? {
            for _ in 0..work_passes {
                sink += shard.features.iter().sum::<f32>();
            }
        }
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    if !black_box(sink).is_finite() {
        return Err(io::Error::new(io::ErrorKind::InvalidData, format!("{label}: feature checksum is not finite")));
    }
    let stats = loader.stats();
    let per_ms = |x: f64| if wall_ms > 0.0 { x / wall_ms } else { 0.0 };
    Ok(LoaderPass {
        label,
        epochs: EPOCHS,
        wall_ms,
        stall_ms: stats.stall_ms,
        stall_fraction: per_ms(stats.stall_ms),
        bytes: stats.bytes_read,
        shards: stats.shards_delivered,
        throughput_mib_s: per_ms(stats.bytes_read as f64 / (1 << 20) as f64) * 1e3,
    })
}

/// Write the papers100M stand-in at scale 0.0002 (seed 7, 2,048 nodes a
/// shard) into `dir`, then stream it cold (prefetch depth 1, no consumer
/// work) and warm (depth 2, 40 feature sweeps per shard). The shards stay
/// in `dir` for the caller.
pub fn loader_passes(dir: &Path) -> io::Result<(DatagenReport, [LoaderPass; 2])> {
    let report = generate_to_dir(DatasetKind::OgbnPapers100M, 0.0002, 7, dir, 2048)?;
    let cold = run_pass(&ShardLoader::open(dir)?.with_prefetch_depth(1), "cold", 0)?;
    let warm = run_pass(&ShardLoader::open(dir)?.with_prefetch_depth(2), "warm+work", 40)?;
    Ok((report, [cold, warm]))
}
