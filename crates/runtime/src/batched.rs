//! Batched graph-level training via graph packing: the [`EpochLoop`] over
//! packs of several graphs per sequence.
//!
//! The paper's graph-level pipeline concatenates each graph's nodes into a
//! sequence; production training packs *several* graphs per sequence. The
//! attention pattern keeps members independent (block-diagonal masks), so
//! even the "fully-connected" interleave pass is expressed as a pack of
//! per-graph complete blocks — attention never leaks across graphs, while
//! projections/FFN/optimizer amortise over the whole batch.

use crate::config::{Method, TrainConfig};
use crate::engine::{Batch, BatchSource, EpochLoop, Target};
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
    full_mask: CsrGraph,
    /// C1–C3 verdict on `sparse_mask`, cached for the batches the interleave
    /// scheduler decides on (the training split under TorchGT).
    report: Option<ConditionReport>,
    segments: Vec<(usize, usize)>,
    labels: Vec<GraphLabel>,
}

/// Packed train and held-out batches (80/20 split by sample order, as in
/// [`crate::GraphTrainer`]).
pub struct PackedSource {
    batches: Vec<PackedBatch>,
    test_batches: Vec<PackedBatch>,
}

/// Graph-level trainer that packs `batch_size` graphs per iteration.
pub type BatchedGraphTrainer = EpochLoop<PackedSource>;

fn build_batches(
    dataset: &GraphDataset,
    idxs: &[usize],
    batch_size: usize,
    with_report: bool,
) -> Vec<PackedBatch> {
    idxs.chunks(batch_size)
        .map(|chunk| {
            let members: Vec<&CsrGraph> = chunk.iter().map(|&i| &dataset.samples[i].graph).collect();
            let packed = pack_graphs(&members);
            let sparse_mask = topology_mask(&packed.graph, true);
            // "Full" attention per member graph: a pack of complete blocks.
            let completes: Vec<CsrGraph> =
                members.iter().map(|g| complete_graph(g.num_nodes()).with_self_loops()).collect();
            let complete_refs: Vec<&CsrGraph> = completes.iter().collect();
            let full_mask = pack_graphs(&complete_refs).graph;
            // Samples store their features row-major, so the packed matrix is
            // their concatenation.
            let data: Vec<f32> =
                chunk.iter().flat_map(|&i| dataset.samples[i].features.iter().copied()).collect();
            let features = Tensor::from_vec(packed.graph.num_nodes(), dataset.feat_dim, data);
            PackedBatch {
                features,
                graph: packed.graph,
                // Packed masks are rebuilt with repair, so C3 only asks for
                // connectivity within the interleave horizon.
                report: with_report.then(|| check_conditions(&sparse_mask, u8::MAX - 1)),
                sparse_mask,
                full_mask,
                segments: packed.segments,
                labels: chunk.iter().map(|&i| dataset.samples[i].label).collect(),
            }
        })
        .collect()
}

impl BatchedGraphTrainer {
    /// Build from a dataset with the given per-iteration `batch_size`. The
    /// loop runs without a cost model: packed steps report no simulated
    /// time.
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
        let decides = cfg.method == Method::TorchGt;
        let source = PackedSource {
            batches: build_batches(dataset, &train_idx, batch_size, decides),
            test_batches: build_batches(dataset, &test_idx, batch_size, false),
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
                    full_mask: Some(&b.full_mask),
                    report: b.report,
                    profile: AccessProfile::default(),
                    reform_ratio: 1.0,
                    target: Target::Graphs {
                        segments: Some(&b.segments),
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
    use torchgt_graph::DatasetKind;
    use torchgt_model::{Graphormer, GraphormerConfig};

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

    #[test]
    fn batched_forward_equals_per_graph_forward() {
        // Block-diagonal masks keep members independent: pooled logits of a
        // packed batch must equal running each graph alone (Graphormer has
        // no cross-graph state; dropout off). Batch sizes divide both
        // splits (4 train / 2 held-out graphs), so the mean of batch means
        // is the per-graph mean.
        let data = DatasetKind::OgbgMolpcba.generate_graphs(6, 1.0, 13);
        let evaluate = |batch_size| {
            BatchedGraphTrainer::new(
                TrainConfig::new(Method::GpSparse, 64, 1),
                &data,
                tiny_graphormer(data.feat_dim, 6),
                batch_size,
            )
            .evaluate()
        };
        let (packed, per_graph) = (evaluate(2), evaluate(1));
        assert!(
            (packed.0 - per_graph.0).abs() < 1e-5 && (packed.1 - per_graph.1).abs() < 1e-5,
            "packed {packed:?} vs per-graph {per_graph:?}"
        );
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
}
