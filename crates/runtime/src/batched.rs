//! Graph-level training (ZINC / ogbg-molpcba / MalNet-style tasks) via
//! graph packing: the [`EpochLoop`] over packs of `batch_size` graphs per
//! sequence. Per-graph training is the pack of one.
//!
//! The paper's graph-level pipeline concatenates each graph's nodes into a
//! sequence and mean-pools per-token logits into one prediction per graph;
//! packing puts *several* graphs into one sequence. The attention pattern
//! keeps members independent: each member's sparse mask is built and
//! repaired alone (C1 self-loops, C2 sequence path) and the masks are packed
//! block-diagonally, and the "fully-connected" interleave pass of a pack of
//! several is a pack of per-graph complete blocks — attention never leaks
//! across graphs, while projections/FFN/optimizer amortise over the whole
//! batch. A pack of one has nothing to keep apart and runs the method's own
//! whole-sequence pattern.

use crate::config::{Method, TrainConfig};
use crate::engine::{Batch, BatchSource, EpochLoop, Target};
use crate::interleave::condition_depth;
use torchgt_graph::generators::complete_graph;
use torchgt_graph::pack::pack_graphs;
use torchgt_graph::{check_conditions, ConditionReport, CsrGraph, GraphDataset, GraphLabel};
use torchgt_model::{SequenceBatch, SequenceModel};
use torchgt_sparse::{topology_mask, AccessProfile};
use torchgt_tensor::Tensor;

/// One packed batch, ready to train on.
struct PackedBatch {
    features: Tensor,
    graph: CsrGraph,
    sparse_mask: CsrGraph,
    /// Block-diagonal complete blocks for the fully-connected pass; `None`
    /// for a pack of one.
    full_mask: Option<CsrGraph>,
    /// C1–C3 verdict over the members, cached for the batches the interleave
    /// scheduler decides on (the training split under TorchGT).
    report: Option<ConditionReport>,
    segments: Vec<(usize, usize)>,
    labels: Vec<GraphLabel>,
}

/// Packed train and held-out batches (80/20 split by sample order).
pub struct PackedSource {
    batches: Vec<PackedBatch>,
    test_batches: Vec<PackedBatch>,
}

/// Graph-level trainer that packs `batch_size` graphs per iteration.
pub type BatchedGraphTrainer = EpochLoop<PackedSource>;

/// Pack consecutive `batch_size`-chunks of `idxs`. `depth` is the C3 bound
/// to report against, `None` for batches no scheduler decides on.
fn build_batches(
    dataset: &GraphDataset,
    idxs: &[usize],
    batch_size: usize,
    depth: Option<u8>,
) -> Vec<PackedBatch> {
    idxs.chunks(batch_size)
        .map(|chunk| {
            let members: Vec<&CsrGraph> = chunk.iter().map(|&i| &dataset.samples[i].graph).collect();
            let packed = pack_graphs(&members);
            let masks: Vec<CsrGraph> = members.iter().map(|g| topology_mask(g, true)).collect();
            // A batch may run sparse only if every member may.
            let report = depth.map(|l| {
                masks.iter().map(|m| check_conditions(m, l)).fold(
                    ConditionReport { c1_self_loops: true, c2_hamiltonian: true, c3_reachable: true },
                    |a, r| ConditionReport {
                        c1_self_loops: a.c1_self_loops && r.c1_self_loops,
                        c2_hamiltonian: a.c2_hamiltonian && r.c2_hamiltonian,
                        c3_reachable: a.c3_reachable && r.c3_reachable,
                    },
                )
            });
            let full_mask = (members.len() > 1).then(|| {
                let completes: Vec<CsrGraph> =
                    members.iter().map(|g| complete_graph(g.num_nodes()).with_self_loops()).collect();
                pack_graphs(&completes.iter().collect::<Vec<_>>()).graph
            });
            // Samples store their features row-major, so the packed matrix is
            // their concatenation.
            let data: Vec<f32> =
                chunk.iter().flat_map(|&i| dataset.samples[i].features.iter().copied()).collect();
            let features = Tensor::from_vec(packed.graph.num_nodes(), dataset.feat_dim, data);
            PackedBatch {
                features,
                graph: packed.graph,
                sparse_mask: pack_graphs(&masks.iter().collect::<Vec<_>>()).graph,
                full_mask,
                report,
                segments: packed.segments,
                labels: chunk.iter().map(|&i| dataset.samples[i].label).collect(),
            }
        })
        .collect()
}

impl BatchedGraphTrainer {
    /// Build from a dataset with the given per-iteration `batch_size` (1
    /// trains graph by graph). Under TorchGT each member's mask is checked
    /// against the model's depth (its [`SequenceModel::describe`] layer
    /// count; connectivity only with interleaving on or for a model that
    /// does not describe itself). The loop runs without a cost model:
    /// steps report no simulated time.
    pub fn new(
        cfg: TrainConfig,
        dataset: &GraphDataset,
        model: Box<dyn SequenceModel>,
        batch_size: usize,
    ) -> Self {
        assert!(batch_size >= 1);
        let n = dataset.len();
        let split = n * 8 / 10;
        let train_idx: Vec<usize> = (0..split).collect();
        let test_idx: Vec<usize> = (split..n).collect();
        let layers = model.describe().map_or(usize::MAX, |d| d.layers);
        let depth = (cfg.method == Method::TorchGt).then(|| condition_depth(cfg.interleave_period, layers));
        let source = PackedSource {
            batches: build_batches(dataset, &train_idx, batch_size, depth),
            test_batches: build_batches(dataset, &test_idx, batch_size, None),
        };
        EpochLoop::with_source(cfg, model, None, source)
    }
}

impl PackedSource {
    /// Number of training batches per epoch.
    pub fn num_batches(&self) -> usize {
        self.batches.len()
    }
}

impl BatchSource for PackedSource {
    const EPOCH_TRACE: bool = false;

    fn for_each(&mut self, _epoch: usize, step: &mut dyn FnMut(&Batch<'_>)) {
        for (held_out, batches) in [(false, &self.batches), (true, &self.test_batches)] {
            for b in batches {
                step(&Batch {
                    seq: SequenceBatch { features: &b.features, graph: &b.graph, spd: None },
                    mask: &b.sparse_mask,
                    full_mask: b.full_mask.as_ref(),
                    report: b.report,
                    profile: AccessProfile::default(),
                    reform_ratio: 1.0,
                    target: Target::Graphs {
                        segments: &b.segments,
                        labels: &b.labels,
                        held_out,
                    },
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchgt_compat::proptest::prelude::*;
    use torchgt_graph::DatasetKind;
    use torchgt_model::{Graphormer, GraphormerConfig, Gt, GtConfig, Pattern};
    use torchgt_tensor::Workspace;

    fn tiny_graphormer(feat: usize, out: usize) -> Box<dyn SequenceModel> {
        Box::new(Graphormer::new(
            GraphormerConfig {
                feat_dim: feat,
                hidden: 16,
                layers: 2,
                heads: 2,
                ffn_mult: 2,
                out_dim: out,
                max_degree: 16,
                max_spd: 4,
                dropout: 0.0,
            },
            5,
        ))
    }

    /// Eval-mode logits of a batch's every row under its sparse mask.
    fn sparse_logits(model: &mut dyn SequenceModel, b: &PackedBatch) -> Tensor {
        let seq = SequenceBatch { features: &b.features, graph: &b.graph, spd: None };
        let rows: Vec<usize> = (0..b.features.rows()).collect();
        model.forward_ws(&seq, Pattern::Sparse(&b.sparse_mask), &rows, &mut Workspace::new())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Attention never leaks across members: under the trainer's sparse
        /// mask, each member's rows of a pack's logits are, to the bit, the
        /// logits of that member packed alone.
        #[test]
        fn packed_members_attend_only_within_themselves(
            molpcba in 0usize..2,
            members in 1usize..5,
            seed in 0u64..1000,
        ) {
            let kind = if molpcba == 1 { DatasetKind::OgbgMolpcba } else { DatasetKind::Zinc };
            let data = kind.generate_graphs(members, 1.0, seed);
            let mut model = tiny_graphormer(data.feat_dim, 3);
            model.set_training(false);
            let idxs: Vec<usize> = (0..members).collect();
            let pack = build_batches(&data, &idxs, members, None).remove(0);
            let packed = sparse_logits(model.as_mut(), &pack);
            for (m, &(start, end)) in pack.segments.iter().enumerate() {
                let alone = build_batches(&data, &[m], 1, None).remove(0);
                let solo = sparse_logits(model.as_mut(), &alone);
                let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let cols = solo.cols();
                prop_assert_eq!(
                    bits(&packed.data()[start * cols..end * cols]),
                    bits(solo.data()),
                    "member {} of {}",
                    m,
                    members
                );
            }
        }
    }

    #[test]
    fn masks_without_interleaving_are_checked_at_the_model_depth() {
        // Repaired molecule masks are connected but wider than 2 hops, so a
        // 2-layer model without interleaved full passes must fall back to
        // full attention at every step.
        let data = DatasetKind::OgbgMolpcba.generate_graphs(20, 1.0, 7);
        let mut cfg = TrainConfig::new(Method::TorchGt, 64, 1);
        cfg.interleave_period = 0;
        let mut t = BatchedGraphTrainer::new(cfg, &data, tiny_graphormer(data.feat_dim, 6), 4);
        let stats = t.train_epoch();
        assert_eq!((stats.sparse_iters, stats.full_iters), (0, t.num_batches()));
    }

    #[test]
    fn batched_training_reduces_loss() {
        let data = DatasetKind::OgbgMolpcba.generate_graphs(24, 1.0, 21);
        let mut cfg = TrainConfig::new(Method::TorchGt, 64, 5);
        cfg.lr = 3e-3;
        cfg.interleave_period = 3;
        let mut t = BatchedGraphTrainer::new(cfg, &data, tiny_graphormer(data.feat_dim, 6), 4);
        let stats = t.run();
        assert!(
            stats.last().unwrap().loss < stats.first().unwrap().loss,
            "{} → {}",
            stats.first().unwrap().loss,
            stats.last().unwrap().loss
        );
        // Interleave engaged in batched mode too.
        let full: usize = stats.iter().map(|s| s.full_iters).sum();
        assert!(full > 0);
    }

    #[test]
    fn batch_count_math() {
        let data = DatasetKind::Zinc.generate_graphs(10, 1.0, 3);
        let t = BatchedGraphTrainer::new(
            TrainConfig::new(Method::GpSparse, 64, 1),
            &data,
            tiny_graphormer(data.feat_dim, 1),
            3,
        );
        // 8 train samples in batches of 3 → 3 batches.
        assert_eq!(t.num_batches(), 3);
    }

    fn pack_of_one(method: Method, epochs: usize) -> BatchedGraphTrainer {
        let data = DatasetKind::Zinc.generate_graphs(30, 1.0, 5);
        let mut cfg = TrainConfig::new(method, 64, epochs);
        cfg.interleave_period = 3;
        cfg.lr = 3e-3;
        let model = Box::new(Gt::new(GtConfig::tiny(data.feat_dim, 1), 7));
        BatchedGraphTrainer::new(cfg, &data, model, 1)
    }

    #[test]
    fn regression_loss_decreases() {
        let mut t = pack_of_one(Method::TorchGt, 6);
        let stats = t.run();
        assert!(
            stats.last().unwrap().loss < stats.first().unwrap().loss,
            "{} → {}",
            stats.first().unwrap().loss,
            stats.last().unwrap().loss
        );
    }

    #[test]
    fn classification_on_malnet_like() {
        let data = DatasetKind::MalNet.generate_graphs(20, 0.002, 3);
        let mut cfg = TrainConfig::new(Method::TorchGt, 64, 4);
        cfg.lr = 2e-3;
        let model = Box::new(Gt::new(GtConfig::tiny(data.feat_dim, 5), 9));
        let stats = BatchedGraphTrainer::new(cfg, &data, model, 1).run();
        assert!(stats.last().unwrap().loss < stats.first().unwrap().loss * 1.5);
    }

    #[test]
    fn torchgt_runs_sparse_on_large_graphs() {
        // MalNet-like graphs are big enough for the sparse pattern to engage
        // (the Table V speed gap itself is asserted at paper scale in the
        // perf crate and reproduced by the bench harness).
        let data = DatasetKind::MalNet.generate_graphs(6, 0.02, 4);
        let mut cfg = TrainConfig::new(Method::TorchGt, 64, 1);
        cfg.interleave_period = 4;
        let model = Box::new(Gt::new(GtConfig::tiny(data.feat_dim, 5), 9));
        let stats = BatchedGraphTrainer::new(cfg, &data, model, 1).train_epoch();
        assert!(stats.sparse_iters > 0, "sparse pattern must engage");
    }

    #[test]
    fn split_is_8020() {
        let t = pack_of_one(Method::GpSparse, 1);
        assert_eq!(t.num_batches(), 24);
        assert_eq!(t.test_batches.len(), 6);
    }
}
