//! The double-buffered prefetching [`ShardLoader`].
//!
//! A background thread reads, CRC-verifies, and parses shards in the
//! epoch's order and pushes them through a **bounded**
//! `torchgt_compat::sync` channel of depth `prefetch_depth` (default 2 —
//! classic double buffering: one shard in the consumer's hands, one ready,
//! the producer filling the next). The consumer side ([`ShardStream`])
//! measures the time it blocks waiting on the channel — the *prefetch
//! stall* — and publishes it together with bytes-read and buffer-occupancy
//! gauges through `torchgt-obs`:
//!
//! * `prefetch_stall_ms` — cumulative milliseconds the trainer spent
//!   blocked on the loader (including the unavoidable first-shard wait);
//! * `shard_bytes_read` — cumulative shard bytes fetched from disk;
//! * `prefetch_buffer_depth` — shards sitting ready in the channel after
//!   each receive (the double-buffer occupancy).
//!
//! Epoch order is deterministic: identity by default (required for
//! bit-identical parity with the in-memory trainer, whose sequences walk
//! nodes in id order), or a seeded Fisher–Yates shuffle of the shard list
//! re-derived per epoch via `splitmix64(seed, epoch)` when cross-shard
//! shuffling is enabled.

use crate::manifest::{Manifest, ShardEntry};
use crate::shard::Shard;
use crate::writer::read_verified_shard_with;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use torchgt_ckpt::frame::bad;
use torchgt_compat::sync::channel::{bounded, Receiver};
use torchgt_compat::sync::lock_unpoisoned;
use torchgt_obs::RecorderHandle;

/// Cumulative loader-side I/O statistics, shared across every epoch's
/// stream (the gauges published through the recorder mirror these).
#[derive(Clone, Copy, Debug, Default)]
pub struct LoaderStats {
    /// Milliseconds the consumer spent blocked waiting for a shard.
    pub stall_ms: f64,
    /// Shard bytes fetched from disk.
    pub bytes_read: u64,
    /// Shards delivered to the consumer.
    pub shards_delivered: u64,
    /// Read retries the self-healing ladder performed (transient-error
    /// retries plus CRC re-reads) across all streams.
    pub retries: u64,
}

/// Prefetching reader over a sharded dataset directory.
pub struct ShardLoader {
    dir: PathBuf,
    manifest: Manifest,
    hash: String,
    prefetch_depth: usize,
    shuffle_seed: Option<u64>,
    recorder: RecorderHandle,
    stats: Arc<Mutex<LoaderStats>>,
}

impl ShardLoader {
    /// Open the dataset at `dir`, reading and validating its manifest.
    pub fn open(dir: &Path) -> io::Result<Self> {
        let manifest = Manifest::load_dir(dir)?;
        let hash = manifest.hash();
        Ok(Self {
            dir: dir.to_path_buf(),
            manifest,
            hash,
            prefetch_depth: 2,
            shuffle_seed: None,
            recorder: torchgt_obs::noop(),
            stats: Arc::new(Mutex::new(LoaderStats::default())),
        })
    }

    /// Override the prefetch channel depth (default 2, double buffering).
    pub fn with_prefetch_depth(mut self, depth: usize) -> Self {
        self.prefetch_depth = depth.max(1);
        self
    }

    /// Enable the seeded cross-shard shuffle: each epoch visits shards in a
    /// fresh deterministic order derived from `(seed, epoch)`. Off by
    /// default — identity order is what reproduces the in-memory trainer's
    /// sequence walk bit-exactly.
    pub fn with_shuffle(mut self, seed: u64) -> Self {
        self.shuffle_seed = Some(seed);
        self
    }

    /// Publish prefetch gauges through `recorder`.
    pub fn attach_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder;
    }

    /// The dataset manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The dataset's stable identity hash.
    pub fn hash(&self) -> &str {
        &self.hash
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.manifest.shards.len()
    }

    /// Cumulative I/O statistics across all streams opened so far.
    pub fn stats(&self) -> LoaderStats {
        *lock_unpoisoned(&self.stats)
    }

    /// Shard visit order for `epoch`.
    pub fn epoch_order(&self, epoch: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.manifest.shards.len()).collect();
        if let Some(seed) = self.shuffle_seed {
            let mut state = seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let n = order.len();
            for i in (1..n).rev() {
                let j = (torchgt_compat::rng::splitmix64(&mut state) % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
        }
        order
    }

    /// Start prefetching `epoch`'s shards in order; returns the consuming
    /// stream. The background thread stays `prefetch_depth` shards ahead
    /// and exits early if the stream is dropped.
    pub fn stream_epoch(&self, epoch: usize) -> ShardStream {
        let order = self.epoch_order(epoch);
        let entries: Vec<ShardEntry> =
            order.iter().map(|&i| self.manifest.shards[i].clone()).collect();
        let dir = self.dir.clone();
        let (tx, rx) = bounded::<io::Result<(Shard, u64)>>(self.prefetch_depth);
        let last_error: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
        let producer_recorder = self.recorder.clone();
        let producer_stats = Arc::clone(&self.stats);
        let producer_error = Arc::clone(&last_error);
        let producer = std::thread::spawn(move || {
            for entry in entries {
                let mut retries = 0u64;
                let result = read_verified_shard_with(
                    &dir,
                    &entry,
                    &producer_recorder,
                    &mut retries,
                )
                .map(|shard| (shard, entry.bytes));
                if retries > 0 {
                    lock_unpoisoned(&producer_stats).retries += retries;
                }
                let failed = result.is_err();
                if let Err(e) = &result {
                    // Record the underlying failure so the consumer can
                    // surface it even if the channel tears down first.
                    *lock_unpoisoned(&producer_error) = Some(e.to_string());
                }
                if tx.send(result).is_err() {
                    return; // consumer hung up
                }
                if failed {
                    return; // don't stream past a quarantined shard
                }
            }
        });
        ShardStream {
            rx,
            producer: Some(producer),
            recorder: self.recorder.clone(),
            stats: Arc::clone(&self.stats),
            last_error,
            remaining: order.len(),
        }
    }
}

/// One epoch's shard stream: call [`ShardStream::next`] until it returns
/// `Ok(None)`.
pub struct ShardStream {
    rx: Receiver<io::Result<(Shard, u64)>>,
    producer: Option<std::thread::JoinHandle<()>>,
    recorder: RecorderHandle,
    stats: Arc<Mutex<LoaderStats>>,
    /// The producer's last failure text, for when the channel disconnects
    /// before the error message itself arrives (e.g. the thread panicked).
    last_error: Arc<Mutex<Option<String>>>,
    remaining: usize,
}

impl ShardStream {
    /// Receive the next shard, blocking until the prefetcher delivers it.
    /// Returns `Ok(None)` after the last shard.
    pub fn next(&mut self) -> io::Result<Option<Shard>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let wait_start = Instant::now();
        let msg = self.rx.recv();
        let stall_ms = wait_start.elapsed().as_secs_f64() * 1e3;
        let occupancy = self.rx.len();
        match msg {
            Ok(Ok((shard, bytes))) => {
                self.remaining -= 1;
                let snapshot = {
                    let mut stats = lock_unpoisoned(&self.stats);
                    stats.stall_ms += stall_ms;
                    stats.bytes_read += bytes;
                    stats.shards_delivered += 1;
                    *stats
                };
                if self.recorder.enabled() {
                    self.recorder.gauge_set("prefetch_stall_ms", snapshot.stall_ms);
                    self.recorder.gauge_set("shard_bytes_read", snapshot.bytes_read as f64);
                    self.recorder.gauge_set("prefetch_buffer_depth", occupancy as f64);
                    self.recorder.counter_add("shards_loaded", 1);
                }
                Ok(Some(shard))
            }
            Ok(Err(e)) => {
                self.remaining = 0;
                Err(e)
            }
            Err(_) => {
                // Producer hung up before delivering everything it owed —
                // surface the underlying failure, not just the symptom.
                self.remaining = 0;
                Err(match lock_unpoisoned(&self.last_error).take() {
                    Some(detail) => {
                        bad(format!("shard prefetcher terminated early: {detail}"))
                    }
                    None => bad(
                        "shard prefetcher terminated early (no failure recorded; \
                         likely a panic in the prefetch thread)",
                    ),
                })
            }
        }
    }
}

impl Drop for ShardStream {
    fn drop(&mut self) {
        // Unblock a producer waiting on the bounded channel, then join it.
        while self.rx.try_recv().is_some() {}
        self.remaining = 0;
        // Dropping the receiver makes the producer's next send fail.
        let (_tx, dead_rx) = bounded::<io::Result<(Shard, u64)>>(1);
        let rx = std::mem::replace(&mut self.rx, dead_rx);
        drop(rx);
        if let Some(h) = self.producer.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::generate_to_dir;
    use std::sync::atomic::{AtomicU64, Ordering};
    use torchgt_graph::DatasetKind;
    use torchgt_obs::Recorder;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("torchgt_loader_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Minimal gauge-capturing recorder for asserting the obs satellite.
    #[derive(Default)]
    struct GaugeSpy {
        stall: AtomicU64,
        bytes: AtomicU64,
        depth_sets: AtomicU64,
    }
    impl Recorder for GaugeSpy {
        fn record_span(&self, _: &str, _: f64) {}
        fn counter_add(&self, _: &str, _: u64) {}
        fn gauge_set(&self, name: &str, value: f64) {
            match name {
                "prefetch_stall_ms" => self.stall.store(value.to_bits(), Ordering::Relaxed),
                "shard_bytes_read" => self.bytes.store(value as u64, Ordering::Relaxed),
                "prefetch_buffer_depth" => {
                    self.depth_sets.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
        }
        fn collective(&self, _: &str, _: u64, _: u64, _: u64) {}
        fn event(&self, _: torchgt_obs::Event) {}
        fn step(&self, _: torchgt_obs::StepTrace) {}
        fn epoch(&self, _: torchgt_obs::EpochTrace) {}
    }

    #[test]
    fn streams_every_shard_in_order_and_publishes_gauges() {
        let _g = crate::test_fault_gate();
        let dir = tmpdir("stream");
        let report = generate_to_dir(DatasetKind::OgbnArxiv, 0.004, 3, &dir, 150).unwrap();
        let spy = Arc::new(GaugeSpy::default());
        let mut loader = ShardLoader::open(&dir).unwrap();
        loader.attach_recorder(spy.clone());
        assert_eq!(loader.hash(), report.hash);
        let mut stream = loader.stream_epoch(0);
        let mut seen = 0usize;
        let mut next_node = 0usize;
        while let Some(shard) = stream.next().unwrap() {
            assert_eq!(shard.node_start, next_node, "identity order by default");
            next_node += shard.node_count;
            seen += 1;
        }
        assert_eq!(seen, loader.num_shards());
        assert_eq!(next_node, report.manifest.total_nodes as usize);
        let stats = loader.stats();
        assert!(stats.stall_ms > 0.0, "first-shard wait must register as stall");
        assert_eq!(stats.bytes_read, report.total_bytes);
        assert!(f64::from_bits(spy.stall.load(Ordering::Relaxed)) > 0.0);
        assert_eq!(spy.bytes.load(Ordering::Relaxed), report.total_bytes);
        assert_eq!(spy.depth_sets.load(Ordering::Relaxed) as usize, seen);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shuffle_is_seeded_per_epoch_and_covers_all_shards() {
        let _g = crate::test_fault_gate();
        let dir = tmpdir("shuffle");
        generate_to_dir(DatasetKind::OgbnArxiv, 0.004, 3, &dir, 100).unwrap();
        let loader = ShardLoader::open(&dir).unwrap().with_shuffle(42);
        let e0 = loader.epoch_order(0);
        let e1 = loader.epoch_order(1);
        assert_eq!(e0, loader.epoch_order(0), "same epoch, same order");
        assert_ne!(e0, e1, "different epochs draw different orders");
        let mut sorted = e1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..loader.num_shards()).collect::<Vec<_>>());
        // The stream follows the shuffled order.
        let mut stream = loader.stream_epoch(1);
        let mut starts = Vec::new();
        while let Some(shard) = stream.next().unwrap() {
            starts.push(shard.shard_index);
        }
        assert_eq!(starts, e1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropping_a_stream_midway_does_not_wedge() {
        let _g = crate::test_fault_gate();
        let dir = tmpdir("drop");
        generate_to_dir(DatasetKind::OgbnArxiv, 0.004, 3, &dir, 100).unwrap();
        let loader = ShardLoader::open(&dir).unwrap();
        let mut stream = loader.stream_epoch(0);
        let _ = stream.next().unwrap();
        drop(stream); // must join the producer without deadlocking
        // And the loader still works afterwards.
        let mut stream = loader.stream_epoch(1);
        assert!(stream.next().unwrap().is_some());
    }

    #[test]
    fn corrupt_shard_surfaces_as_a_stream_error() {
        let _g = crate::test_fault_gate();
        let dir = tmpdir("corrupt");
        let report = generate_to_dir(DatasetKind::OgbnArxiv, 0.004, 3, &dir, 150).unwrap();
        let entry = report.manifest.shards.last().unwrap();
        let path = Manifest::shard_path(&dir, entry);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let loader = ShardLoader::open(&dir).unwrap();
        let mut stream = loader.stream_epoch(0);
        let mut result = Ok(Some(()));
        loop {
            match stream.next() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        assert!(result.is_err(), "corrupt shard must fail the stream");
        let msg = result.unwrap_err().to_string();
        assert!(
            msg.contains("quarantined"),
            "on-disk corruption must surface as a quarantine, got: {msg}"
        );
        assert!(msg.contains(".tgds"), "error must name the shard path, got: {msg}");
        // The CRC re-read counts as one retry before the quarantine.
        assert!(loader.stats().retries >= 1, "re-read-once must register as a retry");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_transient_faults_heal_and_preserve_shard_bytes() {
        let _g = crate::test_fault_gate();
        // Stable path, no pid: disk fault decisions hash the file path, so
        // a per-process path would re-roll the fault schedule every run.
        let dir = std::env::temp_dir().join("torchgt_data_heal_stable");
        let _ = std::fs::remove_dir_all(&dir);
        let report = generate_to_dir(DatasetKind::OgbnArxiv, 0.004, 3, &dir, 100).unwrap();
        // Clean baseline first (no plan installed).
        let loader = ShardLoader::open(&dir).unwrap();
        let mut baseline = Vec::new();
        let mut stream = loader.stream_epoch(0);
        while let Some(shard) = stream.next().unwrap() {
            baseline.push((shard.node_start, shard.features.clone()));
        }
        drop(stream);
        // Aggressive transient + corruption faults: transients retry with
        // backoff, torn/flipped buffers heal on the single CRC re-read
        // (the file on disk is never touched), so the stream completes
        // with bit-identical payloads.
        struct ClearPlan;
        impl Drop for ClearPlan {
            fn drop(&mut self) {
                torchgt_faults::clear();
            }
        }
        let _clear = ClearPlan;
        torchgt_faults::install(torchgt_faults::FaultSpec {
            seed: 5,
            disk: torchgt_faults::DiskFaultPlan {
                read_error_prob: 0.3,
                torn_read_prob: 0.05,
                bit_flip_prob: 0.05,
                ..Default::default()
            },
            ..Default::default()
        });
        let loader2 = ShardLoader::open(&dir).unwrap();
        let mut stream = loader2.stream_epoch(0);
        let mut healed = Vec::new();
        while let Some(shard) = stream.next().unwrap() {
            healed.push((shard.node_start, shard.features.clone()));
        }
        drop(stream);
        torchgt_faults::clear();
        assert_eq!(healed, baseline, "healed stream must be bit-identical");
        assert!(
            loader2.stats().retries > 0,
            "at these probabilities some reads must have retried"
        );
        assert_eq!(report.manifest.shards.len(), baseline.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
