//! Out-of-core node-level training: the [`EpochLoop`] driven from disk
//! through a [`torchgt_data::ShardLoader`] instead of an in-memory
//! [`torchgt_graph::NodeDataset`].
//!
//! The source never materialises the full graph, and the training thread
//! never touches a shard: each pass hands the loader's producer thread a
//! [`Chunker`] as its [`Stage`], so read → heal → verify → parse →
//! re-chunk → mask all happen there and the bounded channel carries
//! ready-to-train [`Sequence`]s. The chunker carries the sub-`seq_len`
//! remainder of each shard into the next one and emits exactly the chunks
//! the in-memory preprocessing pipeline would have produced: with the
//! default (identity) shard order the per-epoch loss history is
//! **bit-identical** to a [`NodeTrainer`] over the same generated dataset —
//! asserted by this module's tests and by `tests/data_pipeline.rs`.
//!
//! Only the GP-* baselines stream: TorchGT's cluster-aware reordering is a
//! global permutation of the node sequence, which requires the whole graph
//! up front. Construction rejects [`Method::TorchGt`].
//!
//! Dataset identity: snapshots taken by this trainer carry the dataset's
//! manifest hash ([`torchgt_data::Manifest::hash`]); restoring a snapshot
//! taken against a *different* dataset fails unless explicitly overridden.
//!
//! [`NodeTrainer`]: crate::trainer::NodeTrainer

use crate::autotune::AutoTuner;
use crate::config::{Method, TrainConfig};
use crate::engine::{Batch, BatchSource, EpochLoop, Target};
use crate::preprocess::Sequence;
use std::io;
use std::ops::Range;
use std::sync::Arc;
use torchgt_ckpt::{Snapshot, TrainerState};
use torchgt_data::{Shard, ShardLoader, Stage};
use torchgt_graph::{CsrGraph, DatasetKind, Split};
use torchgt_model::{SequenceBatch, SequenceModel};
use torchgt_obs::RecorderHandle;
use torchgt_sparse::{access_profile, topology_mask};
use torchgt_tensor::Tensor;

/// A run of consecutive global node ids inside the chunk being built, and
/// where the run sits in the chunk.
#[derive(Clone, Copy)]
struct Run {
    global: u32,
    local: u32,
    len: u32,
}

/// One ready-to-train item: a sequence and the positions in it that carry
/// training and held-out labels.
struct Chunk {
    seq: Sequence,
    train: Vec<u32>,
    test: Vec<u32>,
}

/// The loader stage that re-chunks a pass's shards into `seq_len`-node
/// [`Sequence`]s, field for field what
/// [`crate::preprocess::prepare_node_dataset`] builds, so chunk boundaries
/// are the in-memory pipeline's regardless of how the dataset was sharded.
///
/// Rows, features and labels are sliced straight out of the parsed shard;
/// only the sub-`seq_len` remainder a shard ends on is copied, into carry
/// buffers that (like the scratch) are cleared and reused chunk after
/// chunk. Carried rows stay in global ids until the chunk is complete —
/// which of a node's neighbours are in its chunk is not known before.
struct Chunker {
    seq_len: usize,
    feat_dim: usize,
    train_mark: Arc<[bool]>,
    test_mark: Arc<[bool]>,
    /// The chunk under construction, in stream order: its node ids as runs,
    /// then per carried node its adjacency row (CSR over global ids),
    /// feature row and label.
    runs: Vec<Run>,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    feats: Vec<f32>,
    labels: Vec<u32>,
    /// Scratch: `runs` by ascending global id, and the chunk's local CSR
    /// columns before they are copied out at their exact size.
    by_global: Vec<Run>,
    local_cols: Vec<u32>,
}

impl Chunker {
    fn new(source: &StreamSource) -> Self {
        Self {
            seq_len: source.seq_len,
            feat_dim: source.loader.manifest().feat_dim as usize,
            train_mark: Arc::clone(&source.train_mark),
            test_mark: Arc::clone(&source.test_mark),
            runs: Vec::new(),
            row_ptr: vec![0],
            cols: Vec::new(),
            feats: Vec::new(),
            labels: Vec::new(),
            by_global: Vec::new(),
            local_cols: Vec::new(),
        }
    }

    /// Nodes in the carry buffers.
    fn carried(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// The chunk continues with `len` nodes from global id `global` on.
    fn push_run(&mut self, global: usize, len: usize) {
        let (global, local, len) = (global as u32, self.carried() as u32, len as u32);
        match self.runs.last_mut() {
            _ if len == 0 => {}
            Some(last) if last.global + last.len == global => last.len += len,
            _ => self.runs.push(Run { global, local, len }),
        }
    }

    /// Copy the shard's last `rows` — fewer than a chunk — into the carry.
    fn carry(&mut self, shard: &Shard, rows: Range<usize>) {
        self.push_run(shard.node_start + rows.start, rows.len());
        let arcs = shard.row_ptr[rows.start]..shard.row_ptr[rows.end];
        let base = self.cols.len();
        let ends = &shard.row_ptr[rows.start + 1..=rows.end];
        self.row_ptr.extend(ends.iter().map(|end| base + (end - arcs.start)));
        self.cols.extend_from_slice(&shard.col_idx[arcs]);
        self.feats.extend_from_slice(
            &shard.features[rows.start * self.feat_dim..rows.end * self.feat_dim],
        );
        self.labels.extend_from_slice(&shard.labels[rows]);
    }

    /// Close the chunk made of the carry followed by `rows` of `shard`,
    /// leaving the carry empty.
    fn build(&mut self, shard: &Shard, rows: Range<usize>) -> Chunk {
        let k = self.carried() + rows.len();
        self.push_run(shard.node_start + rows.start, rows.len());

        // Local ids follow stream order, adjacency rows ascend in global
        // id: a row maps to ascending local ids exactly when the runs
        // arrived in ascending order (always, unless shards are shuffled).
        let ascending = self.runs.is_sorted_by_key(|r| r.global);
        self.by_global.clone_from(&self.runs);
        self.by_global.sort_unstable_by_key(|r| r.global);
        let mut row_ptr = Vec::with_capacity(k + 1);
        row_ptr.push(0usize);
        let carried_rows = self.row_ptr.windows(2).map(|w| &self.cols[w[0]..w[1]]);
        for mut row in carried_rows.chain(rows.clone().map(|r| shard.neighbors(r))) {
            let start = self.local_cols.len();
            for run in &self.by_global {
                row = &row[row.partition_point(|&nb| nb < run.global)..];
                let inside = row.iter().take_while(|&&nb| nb - run.global < run.len);
                self.local_cols.extend(inside.map(|&nb| run.local + (nb - run.global)));
            }
            if !ascending {
                self.local_cols[start..].sort_unstable();
            }
            row_ptr.push(self.local_cols.len());
        }
        let graph = CsrGraph::from_raw(row_ptr, self.local_cols.as_slice().to_vec());
        let mask = topology_mask(&graph, true);
        let profile = access_profile(&mask);

        let mut nodes = Vec::with_capacity(k);
        for run in &self.runs {
            nodes.extend(run.global..run.global + run.len);
        }
        let positions = |marks: &[bool]| -> Vec<u32> {
            (0..k as u32).filter(|&i| marks[nodes[i as usize] as usize]).collect()
        };
        let (train, test) = (positions(&self.train_mark), positions(&self.test_mark));
        let mut features = Vec::with_capacity(k * self.feat_dim);
        features.extend_from_slice(&self.feats);
        features
            .extend_from_slice(&shard.features[rows.start * self.feat_dim..rows.end * self.feat_dim]);
        let features = Tensor::from_vec(k, self.feat_dim, features);
        let mut labels = Vec::with_capacity(k);
        labels.extend_from_slice(&self.labels);
        labels.extend_from_slice(&shard.labels[rows]);

        self.runs.clear();
        self.row_ptr.truncate(1);
        self.cols.clear();
        self.feats.clear();
        self.labels.clear();
        self.local_cols.clear();
        Chunk { seq: Sequence { nodes, graph, mask, features, labels, profile }, train, test }
    }
}

impl Stage for Chunker {
    type Item = Chunk;

    fn shard(&mut self, shard: &mut Shard, emit: &mut dyn FnMut(Chunk)) {
        let mut next = 0;
        loop {
            let take = (self.seq_len - self.carried()).min(shard.node_count - next);
            let rows = next..next + take;
            next = rows.end;
            if self.carried() + take < self.seq_len {
                return self.carry(shard, rows);
            }
            emit(self.build(shard, rows));
        }
    }

    /// The pass's last chunk is whatever the last shard left over.
    fn finish(&mut self, emit: &mut dyn FnMut(Chunk)) {
        if self.carried() > 0 {
            emit(self.build(&Shard::default(), 0..0));
        }
    }
}

/// The shard stream of an on-disk dataset, re-chunked into sequences.
pub struct StreamSource {
    loader: ShardLoader,
    dataset_id: String,
    /// Split membership by global node id, shared with each pass's
    /// [`Chunker`] on the producer thread.
    train_mark: Arc<[bool]>,
    test_mark: Arc<[bool]>,
    current_beta: f64,
    seq_len: usize,
    allow_dataset_mismatch: bool,
}

/// Node-level trainer fed from an on-disk sharded dataset.
pub type StreamingTrainer = EpochLoop<StreamSource>;

impl StreamingTrainer {
    /// Build a streaming trainer over an opened shard loader. The cost
    /// model prices every step at the model's [`SequenceModel::shape`].
    ///
    /// # Panics
    ///
    /// Panics on [`Method::TorchGt`] — its cluster-aware reordering is a
    /// global permutation and cannot stream shard-by-shard (callers such as
    /// `TorchGtBuilder::build_streaming` surface this as a typed error).
    pub fn new(
        cfg: TrainConfig,
        loader: ShardLoader,
        model: Box<dyn SequenceModel>,
    ) -> Self {
        assert!(
            cfg.method != Method::TorchGt,
            "TorchGT's global cluster reorder cannot stream; use a GP-* method (e.g. gp-sparse)"
        );
        let m = loader.manifest();
        let n = m.total_nodes as usize;
        let split = Split::standard(n, m.seed ^ DatasetKind::SPLIT_SEED_XOR);
        let mut train_mark = vec![false; n];
        let mut test_mark = vec![false; n];
        for &v in &split.train {
            train_mark[v as usize] = true;
        }
        for &v in &split.test {
            test_mark[v as usize] = true;
        }
        let source = StreamSource {
            dataset_id: loader.hash().to_string(),
            train_mark: train_mark.into(),
            test_mark: test_mark.into(),
            current_beta: cfg.beta_thre.unwrap_or_else(|| AutoTuner::new(m.beta_g(), 10).beta_thre()),
            seq_len: cfg.seq_len.min(n).max(1),
            allow_dataset_mismatch: false,
            loader,
        };
        EpochLoop::with_source(cfg, model, true, source)
    }
}

impl StreamSource {
    /// Identity hash of the dataset being streamed.
    pub fn dataset_id(&self) -> &str {
        &self.dataset_id
    }

    /// The shard loader driving this trainer (prefetch stats live here).
    pub fn loader(&self) -> &ShardLoader {
        &self.loader
    }

    /// Graph sparsity β_G, from the manifest — no shard reads needed.
    pub fn beta_g(&self) -> f64 {
        self.loader.manifest().beta_g()
    }

    /// Accept snapshots whose dataset identity differs from the loaded
    /// dataset (the `--allow-dataset-mismatch` escape hatch).
    pub fn set_allow_dataset_mismatch(&mut self, allow: bool) {
        self.allow_dataset_mismatch = allow;
    }
}

impl BatchSource for StreamSource {
    /// Streams the shard order of `epoch` (evaluation re-streams it): the
    /// loader's producer thread builds the chunks, this thread steps them.
    fn for_each(&mut self, epoch: usize, step: &mut dyn FnMut(&Batch<'_>)) {
        let mut stream = self.loader.stream_staged(epoch, Chunker::new(self));
        loop {
            let Chunk { seq, train, test } = match stream.next() {
                Ok(Some(chunk)) => chunk,
                Ok(None) => break,
                Err(e) => panic!("out-of-core shard stream failed mid-epoch: {e}"),
            };
            step(&Batch {
                seq: SequenceBatch { features: &seq.features, graph: &seq.graph, spd: None },
                mask: &seq.mask,
                full_mask: None,
                report: None,
                profile: seq.profile,
                reform_ratio: 1.0,
                target: Target::Tokens { labels: &seq.labels, train: &train, test: &test },
            });
        }
    }

    fn beta_thre(&self) -> Option<f64> {
        Some(self.current_beta)
    }

    /// The loader's prefetch gauges go to the same recorder.
    fn attach_recorder(&mut self, recorder: &RecorderHandle) {
        self.loader.attach_recorder(recorder.clone());
    }

    fn stamp(&self, snapshot: &mut Snapshot) {
        snapshot.state.beta_thre = Some(self.current_beta);
        snapshot.dataset_id = Some(self.dataset_id.clone());
    }

    fn check(&self, snapshot: &Snapshot) -> io::Result<()> {
        match &snapshot.dataset_id {
            Some(id) if id != &self.dataset_id && !self.allow_dataset_mismatch => {
                Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "snapshot was taken against dataset {id}, but the loaded dataset is {}; \
                         pass --allow-dataset-mismatch to restore anyway",
                        self.dataset_id
                    ),
                ))
            }
            _ => Ok(()),
        }
    }

    fn adopt(&mut self, state: &TrainerState) {
        if let Some(beta) = state.beta_thre {
            self.current_beta = beta;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::NodeTrainer;
    use crate::traits::Trainer;
    use torchgt_data::generate_to_dir;
    use torchgt_model::{Graphormer, GraphormerConfig};

    const KIND: DatasetKind = DatasetKind::OgbnArxiv;
    const SCALE: f64 = 0.004;
    const SEED: u64 = 11;

    fn make_model(feat_dim: usize, out_dim: usize) -> Box<Graphormer> {
        let mcfg = GraphormerConfig {
            feat_dim,
            hidden: 16,
            layers: 2,
            heads: 2,
            ffn_mult: 2,
            out_dim,
            max_degree: 16,
            max_spd: 4,
            dropout: 0.1,
        };
        Box::new(Graphormer::new(mcfg, 5))
    }

    fn config(epochs: usize) -> TrainConfig {
        let mut cfg = TrainConfig::new(Method::GpSparse, 128, epochs);
        cfg.seed = 3;
        cfg
    }

    fn sharded_dir(tag: &str, seed: u64) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tgt-streaming-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        generate_to_dir(KIND, SCALE, seed, &dir, 300).unwrap();
        dir
    }

    fn streaming(dir: &std::path::Path, epochs: usize) -> StreamingTrainer {
        let loader = ShardLoader::open(dir).unwrap();
        let m = loader.manifest();
        let model = make_model(m.feat_dim as usize, m.num_classes as usize);
        StreamingTrainer::new(config(epochs), loader, model)
    }

    #[test]
    fn streaming_matches_in_memory_bit_for_bit() {
        let dir = sharded_dir("parity", SEED);
        let d = KIND.generate_node(SCALE, SEED);
        let model = make_model(d.feat_dim, d.num_classes);
        let mut mem = NodeTrainer::new(config(2), &d, model);
        let mut ooc = streaming(&dir, 2);
        let mem_stats = mem.run();
        let ooc_stats = ooc.run();
        assert_eq!(mem_stats.len(), ooc_stats.len());
        for (a, b) in mem_stats.iter().zip(&ooc_stats) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "epoch {} loss", a.epoch);
            assert_eq!(a.train_acc, b.train_acc, "epoch {} train acc", a.epoch);
            assert_eq!(a.test_acc, b.test_acc, "epoch {} test acc", a.epoch);
            assert_eq!(a.sim_seconds, b.sim_seconds, "epoch {} sim", a.epoch);
            assert_eq!(a.beta_thre, b.beta_thre, "epoch {} beta", a.epoch);
            assert_eq!(
                (a.sparse_iters, a.full_iters),
                (b.sparse_iters, b.full_iters),
                "epoch {} iter mix",
                a.epoch
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_resume_continues_bit_for_bit() {
        let dir = sharded_dir("resume", SEED);
        let mut full = streaming(&dir, 3);
        let full_stats = full.run();

        let mut first = streaming(&dir, 3);
        first.train_epoch();
        let snap = Trainer::snapshot(&mut first);
        assert_eq!(snap.dataset_id.as_deref(), Some(first.dataset_id()));
        drop(first);

        let mut second = streaming(&dir, 3);
        Trainer::restore(&mut second, &snap).unwrap();
        assert_eq!(second.epoch, 1);
        let mut resumed = Vec::new();
        while second.epoch < 3 {
            resumed.push(second.train_epoch());
        }
        assert_eq!(resumed.len(), 2);
        for (a, b) in full_stats[1..].iter().zip(&resumed) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "epoch {} loss", a.epoch);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_refuses_a_different_dataset() {
        let dir_a = sharded_dir("id-a", SEED);
        let dir_b = sharded_dir("id-b", SEED + 1);
        let mut a = streaming(&dir_a, 2);
        a.train_epoch();
        let snap = Trainer::snapshot(&mut a);

        let mut b = streaming(&dir_b, 2);
        let err = Trainer::restore(&mut b, &snap).unwrap_err();
        assert!(err.to_string().contains("allow-dataset-mismatch"), "{err}");
        assert_eq!(b.epoch, 0, "failed restore must leave the trainer untouched");
        // The escape hatch: same architecture, so the restore itself works.
        b.set_allow_dataset_mismatch(true);
        Trainer::restore(&mut b, &snap).unwrap();
        assert_eq!(b.epoch, 1);
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn shuffled_epochs_still_train() {
        let dir = sharded_dir("shuffle", SEED);
        let loader = ShardLoader::open(&dir).unwrap().with_shuffle(99);
        let m = loader.manifest();
        let model = make_model(m.feat_dim as usize, m.num_classes as usize);
        let mut t = StreamingTrainer::new(config(2), loader, model);
        let stats = t.run();
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|s| s.loss.is_finite()));
        assert!(stats[1].loss < stats[0].loss * 1.5, "shuffled run must still learn");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One pass's chunks through the staged producer, as `for_each`
    /// receives them.
    fn chunks_of(trainer: &StreamingTrainer, epoch: usize) -> Vec<Chunk> {
        let mut stream = trainer.loader().stream_staged(epoch, Chunker::new(trainer));
        std::iter::from_fn(|| stream.next().expect("clean stream")).collect()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    use torchgt_compat::proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Over generated dataset sizes, shard sizes and sequence lengths —
        /// shards smaller than a sequence, sizes that divide nothing, a
        /// short last chunk — the staged producer's sequences are, in
        /// identity order, field for field the in-memory pipeline's; in a
        /// shuffled order they still cover every node exactly once with
        /// the right rows; and the loader counts every shard and byte once
        /// per pass.
        #[test]
        fn staged_sequences_equal_the_in_memory_pipeline(
            scale in 0.0016f64..0.0045,
            shard_nodes in 24usize..420,
            seq_len in 8usize..520,
            seed in 0u64..1000,
        ) {
            let dir = std::env::temp_dir()
                .join(format!("tgt-streaming-conform-{}-{seed}-{shard_nodes}-{seq_len}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let report = generate_to_dir(KIND, scale, seed, &dir, shard_nodes).unwrap();
            let dataset = KIND.generate_node(scale, seed);
            let n = dataset.num_nodes();
            let trainer = |loader: ShardLoader| {
                let model = make_model(dataset.feat_dim, dataset.num_classes);
                let mut cfg = config(1);
                cfg.seq_len = seq_len;
                StreamingTrainer::new(cfg, loader, model)
            };

            // Identity order ≡ prepare_node_dataset.
            let ordered = trainer(ShardLoader::open(&dir).unwrap());
            let prepared = crate::preprocess::prepare_node_dataset(&dataset, seq_len, false, 1, 0);
            let (train, test) = (prepared.train_positions(), prepared.test_positions());
            for pass in 1..=2u64 {
                let chunks = chunks_of(&ordered, pass as usize);
                prop_assert_eq!(chunks.len(), prepared.sequences.len());
                for (i, (got, want)) in chunks.iter().zip(&prepared.sequences).enumerate() {
                    prop_assert_eq!(&got.seq.nodes, &want.nodes, "chunk {} nodes", i);
                    prop_assert_eq!(&got.seq.graph, &want.graph, "chunk {} graph", i);
                    prop_assert_eq!(&got.seq.mask, &want.mask, "chunk {} mask", i);
                    prop_assert_eq!(got.seq.features.shape(), want.features.shape());
                    prop_assert_eq!(bits(&got.seq.features), bits(&want.features), "chunk {} features", i);
                    prop_assert_eq!(&got.seq.labels, &want.labels, "chunk {} labels", i);
                    prop_assert_eq!(got.seq.profile, want.profile, "chunk {} profile", i);
                    prop_assert_eq!(&got.train, &train[i], "chunk {} train positions", i);
                    prop_assert_eq!(&got.test, &test[i], "chunk {} test positions", i);
                }
                let stats = ordered.loader().stats();
                prop_assert_eq!(stats.bytes_read, report.total_bytes * pass);
                prop_assert_eq!(stats.shards_delivered, report.manifest.shards.len() as u64 * pass);
            }

            // Shuffled order: a partition of the nodes into full chunks
            // (but the last), each the induced subgraph on its nodes.
            let shuffled = trainer(ShardLoader::open(&dir).unwrap().with_shuffle(seed));
            let chunks = chunks_of(&shuffled, 3);
            let mut seen = vec![false; n];
            for (i, chunk) in chunks.iter().enumerate() {
                let full = i + 1 < chunks.len();
                prop_assert!(chunk.seq.nodes.len() == seq_len.min(n) || !full, "short chunk {} mid-pass", i);
                for &v in &chunk.seq.nodes {
                    prop_assert!(!std::mem::replace(&mut seen[v as usize], true), "node {} twice", v);
                }
                prop_assert_eq!(&chunk.seq.graph, &dataset.graph.induced_subgraph(&chunk.seq.nodes));
                prop_assert_eq!(&chunk.seq.mask, &topology_mask(&chunk.seq.graph, true));
                for (local, &v) in chunk.seq.nodes.iter().enumerate() {
                    prop_assert_eq!(chunk.seq.features.row(local), dataset.feature_row(v as usize));
                    prop_assert_eq!(chunk.seq.labels[local], dataset.labels[v as usize]);
                }
            }
            prop_assert!(seen.iter().all(|&s| s), "a node was never streamed");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_pass_abandoned_midway_joins_its_producer_and_the_next_pass_is_whole() {
        let dir = sharded_dir("abandon", SEED);
        let mut t = streaming(&dir, 1);
        let per_pass = t.loader().manifest().shards.len() as u64;
        let mut steps = 0;
        let abandoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.for_each(0, &mut |_| {
                steps += 1;
                assert!(steps < 2, "the step gives up on its second batch");
            })
        }));
        assert!(abandoned.is_err());
        // Unwinding dropped the stream, which joined the producer: only
        // what was consumed is counted, and a fresh pass runs to the end.
        let before = t.loader().stats().shards_delivered;
        assert!(before < per_pass, "{before} of {per_pass} shards counted");
        let mut nodes = 0;
        t.for_each(0, &mut |b| nodes += b.seq.features.rows());
        assert_eq!(nodes as u64, t.loader().manifest().total_nodes);
        assert_eq!(t.loader().stats().shards_delivered, before + per_pass);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_quarantined_shard_surfaces_through_for_each_naming_its_path() {
        let dir = sharded_dir("quarantine", SEED);
        let mut t = streaming(&dir, 1);
        let entry = t.loader().manifest().shards[1].clone();
        let path = torchgt_data::Manifest::shard_path(&dir, &entry);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.for_each(0, &mut |_| {})))
            .expect_err("a corrupt shard cannot stream");
        let msg = panic.downcast_ref::<String>().expect("panic carries a formatted message");
        assert!(msg.contains("quarantined") && msg.contains(&entry.file), "{msg}");
        assert!(entry.file.ends_with(".tgds"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torchgt_method_is_rejected() {
        let dir = sharded_dir("reject", SEED);
        let loader = ShardLoader::open(&dir).unwrap();
        let m = loader.manifest();
        let model = make_model(m.feat_dim as usize, m.num_classes as usize);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            StreamingTrainer::new(TrainConfig::new(Method::TorchGt, 128, 1), loader, model)
        }));
        assert!(res.is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
