//! Out-of-core node-level training: the [`EpochLoop`] driven from disk
//! through a [`torchgt_data::ShardLoader`] instead of an in-memory
//! [`torchgt_graph::NodeDataset`].
//!
//! The source never materialises the full graph. Each pass streams `TGDS`
//! shards through the loader's prefetch thread, carries the sub-`seq_len`
//! remainder of each shard into the next one, and emits exactly the chunks
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
use crate::engine::{Batch, BatchSource, CostSpec, EpochLoop, Target};
use crate::preprocess::Sequence;
use std::io;
use torchgt_ckpt::{Snapshot, TrainerState};
use torchgt_comm::ClusterTopology;
use torchgt_data::{Shard, ShardLoader};
use torchgt_graph::{CsrGraph, DatasetKind, Split};
use torchgt_model::{SequenceBatch, SequenceModel};
use torchgt_obs::RecorderHandle;
use torchgt_perf::{GpuSpec, ModelShape};
use torchgt_sparse::{access_profile, topology_mask};
use torchgt_tensor::Tensor;

/// Re-chunks a shard stream into `seq_len`-node sequences, carrying the
/// remainder of each shard into the next so chunk boundaries are identical
/// to the in-memory pipeline's regardless of how the dataset was sharded.
/// Emits the same [`Sequence`]s (`nodes` holding global ids in stream
/// order).
struct Chunker<'a> {
    stream: torchgt_data::ShardStream,
    seq_len: usize,
    feat_dim: usize,
    /// Scratch global→local map (`u32::MAX` = not in chunk), sized to the
    /// full node count and cleared after each chunk.
    remap: &'a mut [u32],
    ids: Vec<u32>,
    rows: Vec<Vec<u32>>,
    labels: Vec<u32>,
    feats: Vec<f32>,
    exhausted: bool,
}

impl Chunker<'_> {
    fn absorb(&mut self, shard: &Shard) {
        for local in 0..shard.node_count {
            self.ids.push((shard.node_start + local) as u32);
            self.rows.push(shard.neighbors(local).to_vec());
        }
        self.labels.extend_from_slice(&shard.labels);
        self.feats.extend_from_slice(&shard.features);
    }

    fn next(&mut self) -> io::Result<Option<Sequence>> {
        while self.rows.len() < self.seq_len && !self.exhausted {
            match self.stream.next()? {
                Some(shard) => self.absorb(&shard),
                None => self.exhausted = true,
            }
        }
        if self.rows.is_empty() {
            return Ok(None);
        }
        let k = self.seq_len.min(self.rows.len());
        let ids: Vec<u32> = self.ids.drain(..k).collect();
        let rows: Vec<Vec<u32>> = self.rows.drain(..k).collect();
        let labels: Vec<u32> = self.labels.drain(..k).collect();
        let feats: Vec<f32> = self.feats.drain(..k * self.feat_dim).collect();
        for (local, &g) in ids.iter().enumerate() {
            self.remap[g as usize] = local as u32;
        }
        let mut row_ptr = Vec::with_capacity(k + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        let mut scratch: Vec<u32> = Vec::new();
        for row in &rows {
            scratch.clear();
            for &nb in row {
                let m = self.remap[nb as usize];
                if m != u32::MAX {
                    scratch.push(m);
                }
            }
            // Rows arrive sorted by global id; with the identity shard order
            // the local mapping is monotonic and this sort is a no-op, but a
            // shuffled epoch permutes the mapping.
            scratch.sort_unstable();
            col_idx.extend_from_slice(&scratch);
            row_ptr.push(col_idx.len());
        }
        for &g in &ids {
            self.remap[g as usize] = u32::MAX;
        }
        let graph = CsrGraph::from_raw(row_ptr, col_idx);
        let mask = topology_mask(&graph, true);
        let profile = access_profile(&mask);
        let mut features = Tensor::zeros(k, self.feat_dim);
        features.data_mut().copy_from_slice(&feats);
        Ok(Some(Sequence { nodes: ids, graph, mask, features, labels, profile }))
    }
}

/// The shard stream of an on-disk dataset, re-chunked into sequences.
pub struct StreamSource {
    loader: ShardLoader,
    dataset_id: String,
    train_mark: Vec<bool>,
    test_mark: Vec<bool>,
    /// Scratch global→local map shared by every chunk build.
    remap: Vec<u32>,
    current_beta: f64,
    seq_len: usize,
    allow_dataset_mismatch: bool,
}

/// Node-level trainer fed from an on-disk sharded dataset.
pub type StreamingTrainer = EpochLoop<StreamSource>;

impl StreamingTrainer {
    /// Build a streaming trainer over an opened shard loader.
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
        shape: ModelShape,
        gpu: GpuSpec,
        topology: ClusterTopology,
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
            train_mark,
            test_mark,
            remap: vec![u32::MAX; n],
            current_beta: cfg.beta_thre.unwrap_or_else(|| AutoTuner::new(m.beta_g(), 10).beta_thre()),
            seq_len: cfg.seq_len.min(n).max(1),
            allow_dataset_mismatch: false,
            loader,
        };
        EpochLoop::with_source(cfg, model, Some(CostSpec { gpu, topology, shape }), source)
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

    /// Local positions of a chunk's nodes that carry the given split marks.
    fn positions(ids: &[u32], marks: &[bool]) -> Vec<u32> {
        ids.iter()
            .enumerate()
            .filter(|(_, &g)| marks[g as usize])
            .map(|(i, _)| i as u32)
            .collect()
    }
}

impl BatchSource for StreamSource {
    /// Streams the shard order of `epoch` (evaluation re-streams it).
    fn for_each(&mut self, epoch: usize, step: &mut dyn FnMut(&Batch<'_>)) {
        let stream = self.loader.stream_epoch(epoch);
        let feat_dim = self.loader.manifest().feat_dim as usize;
        let mut chunker = Chunker {
            stream,
            seq_len: self.seq_len,
            feat_dim,
            remap: &mut self.remap,
            ids: Vec::new(),
            rows: Vec::new(),
            labels: Vec::new(),
            feats: Vec::new(),
            exhausted: false,
        };
        loop {
            let chunk = match chunker.next() {
                Ok(Some(c)) => c,
                Ok(None) => break,
                Err(e) => panic!("out-of-core shard stream failed mid-epoch: {e}"),
            };
            let train = Self::positions(&chunk.nodes, &self.train_mark);
            let test = Self::positions(&chunk.nodes, &self.test_mark);
            step(&Batch {
                seq: SequenceBatch { features: &chunk.features, graph: &chunk.graph, spd: None },
                mask: &chunk.mask,
                full_mask: None,
                report: None,
                profile: chunk.profile,
                reform_ratio: 1.0,
                target: Target::Tokens { labels: &chunk.labels, train: &train, test: &test },
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
        let shape = ModelShape { layers: 2, hidden: 16, heads: 2 };
        StreamingTrainer::new(
            config(epochs),
            loader,
            model,
            shape,
            GpuSpec::rtx3090(),
            ClusterTopology::rtx3090(1),
        )
    }

    #[test]
    fn streaming_matches_in_memory_bit_for_bit() {
        let dir = sharded_dir("parity", SEED);
        let d = KIND.generate_node(SCALE, SEED);
        let model = make_model(d.feat_dim, d.num_classes);
        let shape = ModelShape { layers: 2, hidden: 16, heads: 2 };
        let mut mem = NodeTrainer::new(
            config(2),
            &d,
            model,
            shape,
            GpuSpec::rtx3090(),
            ClusterTopology::rtx3090(1),
        );
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
        let shape = ModelShape { layers: 2, hidden: 16, heads: 2 };
        let mut t = StreamingTrainer::new(
            config(2),
            loader,
            model,
            shape,
            GpuSpec::rtx3090(),
            ClusterTopology::rtx3090(1),
        );
        let stats = t.run();
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|s| s.loss.is_finite()));
        assert!(stats[1].loss < stats[0].loss * 1.5, "shuffled run must still learn");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torchgt_method_is_rejected() {
        let dir = sharded_dir("reject", SEED);
        let loader = ShardLoader::open(&dir).unwrap();
        let m = loader.manifest();
        let model = make_model(m.feat_dim as usize, m.num_classes as usize);
        let shape = ModelShape { layers: 2, hidden: 16, heads: 2 };
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            StreamingTrainer::new(
                TrainConfig::new(Method::TorchGt, 128, 1),
                loader,
                model,
                shape,
                GpuSpec::rtx3090(),
                ClusterTopology::rtx3090(1),
            )
        }));
        assert!(res.is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
