//! The prefetching [`ShardLoader`]: one producer thread per pass that runs
//! read → heal → verify → parse → *stage* and hands the stage's outputs to
//! the consumer.
//!
//! The thread walks the epoch's shards in order. Each is read through the
//! fault plane under the healing ladder, verified and parsed
//! ([`crate::writer::read_verified_shard_into`]), then given to the pass's
//! [`Stage`], and what the stage emits goes through a **bounded**
//! `torchgt_compat::sync` channel of depth `prefetch_depth` (default 2 —
//! classic double buffering: one item in the consumer's hands, one ready,
//! the producer building the next). [`ShardLoader::stream_epoch`] is that
//! loop with the identity stage (the items are the shards);
//! [`ShardLoader::stream_staged`] lets the trainer put its re-chunking
//! there, so the channel carries ready-to-train sequences — a fraction of a
//! shard each — and the consuming thread only trains.
//!
//! The consumer side ([`ShardStream`]) measures the time it blocks on the
//! channel — the *prefetch stall* — and publishes it with the other
//! [`LoaderStats`] through `torchgt-obs`:
//!
//! * `prefetch_stall_ms` — cumulative milliseconds the consumer spent
//!   blocked on the pipeline (including the unavoidable first-item wait);
//! * `prefetch_busy_ms` — cumulative milliseconds the producer spent
//!   working (everything but waiting for channel room), so "the trainer
//!   waited" and "the producer was slow" can be told apart;
//! * `shard_bytes_read` — cumulative shard bytes consumed;
//! * `prefetch_buffer_depth` — items sitting ready in the channel after
//!   each receive (the double-buffer occupancy).
//!
//! Epoch order is deterministic: identity by default (required for
//! bit-identical parity with the in-memory trainer, whose sequences walk
//! nodes in id order), or a seeded Fisher–Yates shuffle of the shard list
//! re-derived per epoch via `splitmix64(seed, epoch)` when cross-shard
//! shuffling is enabled.

use crate::manifest::{Manifest, ShardEntry};
use crate::shard::Shard;
use crate::writer::read_verified_shard_into;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use torchgt_ckpt::frame::bad;
use torchgt_compat::sync::channel::{bounded, Receiver, Sender};
use torchgt_compat::sync::lock_unpoisoned;
use torchgt_obs::RecorderHandle;

/// Cumulative loader-side I/O statistics, shared across every pass's
/// stream (the gauges published through the recorder mirror these).
#[derive(Clone, Copy, Debug, Default)]
pub struct LoaderStats {
    /// Milliseconds the consumer spent blocked waiting on the pipeline.
    pub stall_ms: f64,
    /// Shard bytes consumed: each shard's file size, once per pass, counted
    /// when the first item built from it (or the end of the pass) reaches
    /// the consumer.
    pub bytes_read: u64,
    /// Shards consumed, counted with their bytes.
    pub shards_delivered: u64,
    /// Read retries the self-healing ladder performed (transient-error
    /// retries plus CRC re-reads) across all streams.
    pub retries: u64,
    /// Milliseconds the producer spent in read + verify + parse + stage —
    /// its wall time minus the time it waited for channel room.
    pub busy_ms: f64,
}

/// What the producer thread does with each verified shard before anything
/// crosses the channel. A stage owns its buffers and lives on that thread
/// for one pass.
pub trait Stage: Send + 'static {
    /// What the consumer receives.
    type Item: Send + 'static;

    /// The pass's next shard; hand every item it completes to `emit` (which
    /// blocks while the channel is full). The producer parses the following
    /// shard into whatever is left in `shard`, so a stage that only reads
    /// it spares the pipeline an allocation per buffer per shard, and one
    /// that needs to keep it takes it ([`std::mem::take`]).
    fn shard(&mut self, shard: &mut Shard, emit: &mut dyn FnMut(Self::Item));

    /// The pass's last shard has been taken: emit what is still held back.
    fn finish(&mut self, _emit: &mut dyn FnMut(Self::Item)) {}
}

/// The identity stage: the items are the shards.
struct WholeShards;

impl Stage for WholeShards {
    type Item = Shard;

    fn shard(&mut self, shard: &mut Shard, emit: &mut dyn FnMut(Shard)) {
        emit(std::mem::take(shard));
    }
}

/// One message of the pass: an item, the pass's failure, or `None` once
/// the pass is complete — exactly what [`ShardStream::next`] returns —
/// plus the shards the producer finished reading since its last message.
struct Delivery<T> {
    item: io::Result<Option<T>>,
    shards: u64,
    bytes: u64,
}

/// The producer's end of the channel.
struct Outbox<T> {
    tx: Sender<Delivery<T>>,
    /// Shards read, and their bytes, not yet reported to the consumer.
    shards: u64,
    bytes: u64,
    /// Time spent inside `send`, i.e. waiting for channel room.
    blocked: Duration,
    /// The consumer dropped the stream; nothing more is sent.
    hung_up: bool,
}

impl<T> Outbox<T> {
    fn send(&mut self, item: io::Result<Option<T>>) {
        if self.hung_up {
            return;
        }
        let delivery = Delivery {
            item,
            shards: std::mem::take(&mut self.shards),
            bytes: std::mem::take(&mut self.bytes),
        };
        let wait = Instant::now();
        self.hung_up = self.tx.send(delivery).is_err();
        self.blocked += wait.elapsed();
    }
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
    /// The parse buffers, parked here between passes: each producer takes
    /// them and leaves them behind, so a stage that only reads its shards
    /// runs pass after pass without allocating for a shard.
    spare: Arc<Mutex<Shard>>,
}

impl ShardLoader {
    /// Open the dataset at `dir`, reading and validating its manifest; the
    /// manifest read's retries open the loader's [`LoaderStats::retries`].
    pub fn open(dir: &Path) -> io::Result<Self> {
        let mut retries = 0;
        let manifest = Manifest::load_dir_counting(dir, &mut retries)?;
        let hash = manifest.hash();
        Ok(Self {
            dir: dir.to_path_buf(),
            manifest,
            hash,
            prefetch_depth: 2,
            shuffle_seed: None,
            recorder: torchgt_obs::noop(),
            stats: Arc::new(Mutex::new(LoaderStats { retries, ..LoaderStats::default() })),
            spare: Arc::default(),
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
    pub(crate) fn epoch_order(&self, epoch: usize) -> Vec<usize> {
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
    /// stream of whole shards. The background thread stays `prefetch_depth`
    /// shards ahead and exits early if the stream is dropped.
    pub fn stream_epoch(&self, epoch: usize) -> ShardStream {
        self.stream_staged(epoch, WholeShards)
    }

    /// [`ShardLoader::stream_epoch`] with `stage` run on the producer
    /// thread over every shard: the stream yields the stage's items, at
    /// most `prefetch_depth` of them waiting in the channel.
    pub fn stream_staged<S: Stage>(&self, epoch: usize, stage: S) -> ShardStream<S::Item> {
        let entries: Vec<ShardEntry> =
            self.epoch_order(epoch).iter().map(|&i| self.manifest.shards[i].clone()).collect();
        let (tx, rx) = bounded(self.prefetch_depth);
        let (dir, recorder, stats, spare) = (
            self.dir.clone(),
            self.recorder.clone(),
            Arc::clone(&self.stats),
            Arc::clone(&self.spare),
        );
        let producer = std::thread::spawn(move || {
            let mut shard = std::mem::take(&mut *lock_unpoisoned(&spare));
            produce(&dir, entries, stage, &mut shard, tx, &recorder, &stats);
            *lock_unpoisoned(&spare) = shard;
        });
        ShardStream {
            rx: Some(rx),
            producer: Some(producer),
            recorder: self.recorder.clone(),
            stats: Arc::clone(&self.stats),
        }
    }
}

/// The producer thread's body: one pass over `entries`, in order.
fn produce<S: Stage>(
    dir: &Path,
    entries: Vec<ShardEntry>,
    mut stage: S,
    shard: &mut Shard,
    tx: Sender<Delivery<S::Item>>,
    recorder: &RecorderHandle,
    stats: &Mutex<LoaderStats>,
) {
    let started = Instant::now();
    let mut out = Outbox { tx, shards: 0, bytes: 0, blocked: Duration::ZERO, hung_up: false };
    let mut busy_reported = Duration::ZERO;
    let mut report = |out: &Outbox<S::Item>, retries: u64| {
        let busy = started.elapsed().saturating_sub(out.blocked);
        let mut stats = lock_unpoisoned(stats);
        stats.busy_ms += (busy - busy_reported).as_secs_f64() * 1e3;
        stats.retries += retries;
        busy_reported = busy;
    };
    for entry in entries {
        let mut retries = 0u64;
        match read_verified_shard_into(shard, dir, &entry, recorder, &mut retries) {
            Ok(()) => {
                out.shards += 1;
                out.bytes += entry.bytes;
                stage.shard(shard, &mut |item| out.send(Ok(Some(item))));
                report(&out, retries);
            }
            Err(e) => {
                // The retries are on the books before the consumer sees the
                // failure; nothing is streamed past a quarantined shard.
                report(&out, retries);
                out.send(Err(e));
                return;
            }
        }
        if out.hung_up {
            return;
        }
    }
    stage.finish(&mut |item| out.send(Ok(Some(item))));
    report(&out, 0);
    out.send(Ok(None));
}

/// One pass's stream: call [`ShardStream::next`] until it returns
/// `Ok(None)`. Dropping it mid-pass stops and joins the producer.
pub struct ShardStream<T = Shard> {
    /// `None` once the pass has ended (completed, failed, or dropped).
    rx: Option<Receiver<Delivery<T>>>,
    producer: Option<std::thread::JoinHandle<()>>,
    recorder: RecorderHandle,
    stats: Arc<Mutex<LoaderStats>>,
}

impl<T> ShardStream<T> {
    /// Receive the next item, blocking until the producer delivers it.
    /// Returns `Ok(None)` after the last one.
    pub fn next(&mut self) -> io::Result<Option<T>> {
        let Some(rx) = &self.rx else {
            return Ok(None);
        };
        let wait_start = Instant::now();
        let msg = rx.recv();
        let stall_ms = wait_start.elapsed().as_secs_f64() * 1e3;
        let occupancy = rx.len();
        let Ok(delivery) = msg else {
            // The producer went away without ending the pass: it panicked.
            self.rx = None;
            let detail = match self.producer.take().map(std::thread::JoinHandle::join) {
                Some(Err(panic)) => panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic with a non-string payload".into()),
                _ => "no failure recorded".into(),
            };
            return Err(bad(format!("shard prefetcher terminated early: {detail}")));
        };
        let snapshot = {
            let mut stats = lock_unpoisoned(&self.stats);
            stats.stall_ms += stall_ms;
            stats.bytes_read += delivery.bytes;
            stats.shards_delivered += delivery.shards;
            *stats
        };
        if self.recorder.enabled() {
            self.recorder.gauge_set("prefetch_stall_ms", snapshot.stall_ms);
            self.recorder.gauge_set("prefetch_busy_ms", snapshot.busy_ms);
            self.recorder.gauge_set("shard_bytes_read", snapshot.bytes_read as f64);
            self.recorder.gauge_set("prefetch_buffer_depth", occupancy as f64);
            self.recorder.counter_add("shards_loaded", delivery.shards);
        }
        if !matches!(delivery.item, Ok(Some(_))) {
            self.rx = None;
        }
        delivery.item
    }
}

impl<T> Drop for ShardStream<T> {
    fn drop(&mut self) {
        // Without a receiver the producer's next (or current, blocked) send
        // fails and it returns; then join it.
        self.rx = None;
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
        busy: AtomicU64,
        bytes: AtomicU64,
        depth_sets: AtomicU64,
    }
    impl Recorder for GaugeSpy {
        fn record_span(&self, _: &str, _: f64) {}
        fn counter_add(&self, _: &str, _: u64) {}
        fn gauge_set(&self, name: &str, value: f64) {
            match name {
                "prefetch_stall_ms" => self.stall.store(value.to_bits(), Ordering::Relaxed),
                "prefetch_busy_ms" => self.busy.store(value.to_bits(), Ordering::Relaxed),
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
        assert!(stats.busy_ms > 0.0, "reading and parsing must register as producer work");
        assert_eq!(stats.bytes_read, report.total_bytes);
        assert_eq!(stats.shards_delivered as usize, seen);
        assert!(f64::from_bits(spy.stall.load(Ordering::Relaxed)) > 0.0);
        assert_eq!(f64::from_bits(spy.busy.load(Ordering::Relaxed)), stats.busy_ms);
        assert_eq!(spy.bytes.load(Ordering::Relaxed), report.total_bytes);
        // One set per shard received, one for the end of the pass.
        assert_eq!(spy.depth_sets.load(Ordering::Relaxed) as usize, seen + 1);
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

    /// Emits every `every`-th node id it has seen and holds the rest back
    /// to the end of the pass; tells the test when the producer let go of
    /// it.
    struct Sampler {
        every: usize,
        seen: usize,
        held: Vec<usize>,
        dropped: Arc<std::sync::atomic::AtomicBool>,
    }

    impl Stage for Sampler {
        type Item = Vec<usize>;

        fn shard(&mut self, shard: &mut Shard, emit: &mut dyn FnMut(Vec<usize>)) {
            for node in shard.node_start..shard.node_start + shard.node_count {
                self.seen += 1;
                if self.seen.is_multiple_of(self.every) {
                    emit(vec![node]);
                } else {
                    self.held.push(node);
                }
            }
        }

        fn finish(&mut self, emit: &mut dyn FnMut(Vec<usize>)) {
            emit(std::mem::take(&mut self.held));
        }
    }

    impl Drop for Sampler {
        fn drop(&mut self) {
            self.dropped.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn staged_streams_count_every_shard_once_per_pass_whatever_the_stage_emits() {
        let _g = crate::test_fault_gate();
        let dir = tmpdir("staged");
        let report = generate_to_dir(DatasetKind::OgbnArxiv, 0.004, 3, &dir, 100).unwrap();
        let nodes = report.manifest.total_nodes as usize;
        let loader = ShardLoader::open(&dir).unwrap().with_shuffle(8);
        // Many items per shard, none at all until the end of the pass, and
        // whole shards: the accounting is the same.
        for (pass, every) in [(1, 7), (2, usize::MAX)] {
            let dropped = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let stage = Sampler { every, seen: 0, held: Vec::new(), dropped: dropped.clone() };
            let mut stream = loader.stream_staged(pass, stage);
            let mut got = Vec::new();
            while let Some(items) = stream.next().unwrap() {
                got.extend(items);
            }
            assert!(stream.next().unwrap().is_none(), "a finished stream stays finished");
            got.sort_unstable();
            assert_eq!(got, (0..nodes).collect::<Vec<_>>(), "every node exactly once");
            let stats = loader.stats();
            assert_eq!(stats.bytes_read, report.total_bytes * pass as u64);
            assert_eq!(stats.shards_delivered, (loader.num_shards() * pass) as u64);
            drop(stream);
            assert!(dropped.load(Ordering::SeqCst), "the producer was joined");
        }
        let mut stream = loader.stream_epoch(3);
        while stream.next().unwrap().is_some() {}
        assert_eq!(loader.stats().bytes_read, report.total_bytes * 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropping_a_staged_stream_midway_joins_the_producer() {
        let _g = crate::test_fault_gate();
        let dir = tmpdir("drop_staged");
        generate_to_dir(DatasetKind::OgbnArxiv, 0.004, 3, &dir, 100).unwrap();
        // Depth 1 and an item per node: the producer is blocked in `send`
        // with most of the pass ahead of it when the stream goes away.
        let loader = ShardLoader::open(&dir).unwrap().with_prefetch_depth(1);
        let dropped = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stage = Sampler { every: 1, seen: 0, held: Vec::new(), dropped: dropped.clone() };
        let mut stream = loader.stream_staged(0, stage);
        assert_eq!(stream.next().unwrap(), Some(vec![0]));
        drop(stream);
        assert!(dropped.load(Ordering::SeqCst), "drop returned before the producer exited");
        assert!(loader.stats().shards_delivered <= 1, "unconsumed shards are not counted");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_panicking_stage_surfaces_as_a_stream_error() {
        struct Bomb;
        impl Stage for Bomb {
            type Item = ();
            fn shard(&mut self, _: &mut Shard, _: &mut dyn FnMut(())) {
                panic!("stage blew up");
            }
        }
        let _g = crate::test_fault_gate();
        let dir = tmpdir("panic");
        generate_to_dir(DatasetKind::OgbnArxiv, 0.004, 3, &dir, 100).unwrap();
        let loader = ShardLoader::open(&dir).unwrap();
        let mut stream = loader.stream_staged(0, Bomb);
        let err = stream.next().unwrap_err().to_string();
        assert!(err.contains("terminated early") && err.contains("stage blew up"), "{err}");
        assert!(stream.next().unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
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

    #[test]
    fn planned_transient_manifest_fault_is_healed_and_counted() {
        let _g = crate::test_fault_gate();
        // Stable path: the plan's decisions hash it.
        let dir = std::env::temp_dir().join("torchgt_data_manifest_heal_stable");
        let _ = std::fs::remove_dir_all(&dir);
        let report = generate_to_dir(DatasetKind::OgbnArxiv, 0.004, 3, &dir, 100).unwrap();
        struct ClearPlan;
        impl Drop for ClearPlan {
            fn drop(&mut self) {
                torchgt_faults::clear();
            }
        }
        let _clear = ClearPlan;
        // Transient read errors only: each seed's manifest read either
        // succeeds first time or heals on a retry, and the loader counts
        // the retries before it has read a shard.
        let mut retried = 0;
        for seed in 0..8 {
            torchgt_faults::install(torchgt_faults::FaultSpec {
                seed,
                disk: torchgt_faults::DiskFaultPlan { read_error_prob: 0.4, ..Default::default() },
                ..Default::default()
            });
            let loader = ShardLoader::open(&dir).unwrap_or_else(|e| panic!("seed {seed}: manifest read did not heal: {e}"));
            torchgt_faults::clear();
            assert_eq!(loader.hash(), report.hash, "seed {seed}: healed manifest differs");
            retried += loader.stats().retries;
        }
        assert!(retried > 0, "no planned manifest fault fired: the manifest read is outside the fault plane");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
