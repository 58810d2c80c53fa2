//! Execution-engine invariants: output-parameter kernels must be
//! bit-identical to their allocating wrappers even into recycled (dirty)
//! buffers, zero-copy column views must read exactly what a copying slice
//! reads, and a model or trainer sharing one warm workspace across every
//! step must reproduce, bit for bit, the same steps run through a fresh
//! arena per call.

use torchgt::graph::spd::spd_matrix;
use torchgt::model::{loss, Gt, GtConfig, Pattern, SequenceBatch, SequenceModel};
use torchgt::runtime::{GraphTrainer, Method, TrainConfig};
use torchgt::sparse::topology_mask;
use torchgt::tensor::{init, ops, MatRef, Tensor, Workspace};
use torchgt_compat::proptest::prelude::*;

fn arb_tensor(rows: std::ops::Range<usize>, cols: std::ops::Range<usize>) -> impl Strategy<Value = Tensor> {
    (rows, cols, 0u64..10_000)
        .prop_map(|(r, c, seed)| init::normal(r, c, 0.0, 1.0, seed.wrapping_add(1)))
}

/// A deliberately dirty output buffer: recycled arena tensors are NOT
/// zeroed by the kernels' contract — each `_into` kernel must fully define
/// its output regardless of what the buffer held before.
fn dirty(rows: usize, cols: usize) -> Tensor {
    let mut t = Tensor::zeros(rows, cols);
    for (i, v) in t.data_mut().iter_mut().enumerate() {
        *v = f32::from_bits(0x7fc0_0000 ^ (i as u32).wrapping_mul(2654435761)); // NaN-ish garbage
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `matmul_into` into a dirty buffer equals the allocating `matmul`.
    #[test]
    fn matmul_into_matches_wrapper(a in arb_tensor(1..7, 1..7), seed in 0u64..1000) {
        let b = init::normal(a.cols(), 5, 0.0, 1.0, seed.wrapping_add(7));
        let mut out = dirty(a.rows(), b.cols());
        ops::matmul_into(&a, &b, &mut out);
        let want = ops::matmul(&a, &b);
        prop_assert_eq!(out.data(), want.data());
    }

    /// `matmul_bt_into` (A·Bᵀ) into a dirty buffer equals `matmul_bt`.
    #[test]
    fn matmul_bt_into_matches_wrapper(a in arb_tensor(1..7, 1..7), seed in 0u64..1000) {
        let b = init::normal(4, a.cols(), 0.0, 1.0, seed.wrapping_add(9));
        let mut out = dirty(a.rows(), b.rows());
        ops::matmul_bt_into(&a, &b, &mut out);
        let want = ops::matmul_bt(&a, &b);
        prop_assert_eq!(out.data(), want.data());
    }

    /// `matmul_at_into` (Aᵀ·B) into a dirty buffer equals `matmul_at`.
    #[test]
    fn matmul_at_into_matches_wrapper(a in arb_tensor(1..7, 1..7), seed in 0u64..1000) {
        let b = init::normal(a.rows(), 3, 0.0, 1.0, seed.wrapping_add(13));
        let mut out = dirty(a.cols(), b.cols());
        ops::matmul_at_into(&a, &b, &mut out);
        let want = ops::matmul_at(&a, &b);
        prop_assert_eq!(out.data(), want.data());
    }

    /// `row_softmax_into` into a dirty buffer equals `row_softmax`.
    #[test]
    fn row_softmax_into_matches_wrapper(a in arb_tensor(1..9, 1..9)) {
        let mut out = dirty(a.rows(), a.cols());
        ops::row_softmax_into(&a, &mut out);
        let want = ops::row_softmax(&a);
        prop_assert_eq!(out.data(), want.data());
    }

    /// `gelu_into` fully defines its output: writing into a dirty recycled
    /// buffer produces the same bytes as writing into a fresh zeroed one.
    #[test]
    fn gelu_into_fully_defines_dirty_buffers(x in arb_tensor(1..8, 1..9)) {
        let mut into_dirty = dirty(x.rows(), x.cols());
        ops::gelu_into(&x, &mut into_dirty);
        let mut into_clean = Tensor::zeros(x.rows(), x.cols());
        ops::gelu_into(&x, &mut into_clean);
        prop_assert_eq!(into_dirty.data(), into_clean.data());
    }

    /// `gelu_backward_into` fully defines its output regardless of what the
    /// recycled buffer held.
    #[test]
    fn gelu_backward_into_fully_defines_dirty_buffers(x in arb_tensor(1..8, 1..9), seed in 0u64..1000) {
        let dy = init::normal(x.rows(), x.cols(), 0.0, 1.0, seed.wrapping_add(17));
        let mut into_dirty = dirty(x.rows(), x.cols());
        ops::gelu_backward_into(&x, &dy, &mut into_dirty);
        let mut into_clean = Tensor::zeros(x.rows(), x.cols());
        ops::gelu_backward_into(&x, &dy, &mut into_clean);
        prop_assert_eq!(into_dirty.data(), into_clean.data());
    }

    /// `layer_norm_into` fully defines its output: dirty and zeroed
    /// destination buffers receive identical bytes.
    #[test]
    fn layer_norm_into_fully_defines_dirty_buffers(x in arb_tensor(1..8, 2..9), seed in 0u64..1000) {
        let gamma = init::normal(1, x.cols(), 1.0, 0.1, seed.wrapping_add(19));
        let beta = init::normal(1, x.cols(), 0.0, 0.1, seed.wrapping_add(23));
        let mut into_dirty = dirty(x.rows(), x.cols());
        ops::layer_norm_into(&x, &gamma, &beta, 1e-5, &mut into_dirty);
        let mut into_clean = Tensor::zeros(x.rows(), x.cols());
        ops::layer_norm_into(&x, &gamma, &beta, 1e-5, &mut into_clean);
        prop_assert_eq!(into_dirty.data(), into_clean.data());
    }

    /// Zero-copy head views (`view_cols`) read exactly the bytes a copying
    /// column slice produces, row by row and through a matmul consumer.
    #[test]
    fn head_views_match_copying_slices(t in arb_tensor(1..8, 2..12), seed in 0u64..1000) {
        // Split the columns into 1..=cols "heads" of equal width.
        let cols = t.cols();
        let width = 1 + (seed as usize % cols);
        let heads = cols / width;
        for h in 0..heads {
            let (start, end) = (h * width, (h + 1) * width);
            let view = t.view_cols(start, end);
            let copy = t.slice_cols(start, end);
            prop_assert_eq!(view.shape(), copy.shape());
            for r in 0..t.rows() {
                prop_assert_eq!(view.row(r), copy.row(r), "head {h} row {r}");
            }
            // Consumers generic over MatRef see identical values: a matmul
            // fed the view must equal one fed the copy, bit for bit.
            let w = init::normal(width, 3, 0.0, 1.0, seed.wrapping_add(h as u64));
            let via_view = ops::matmul(&view, &w);
            let via_copy = ops::matmul(&copy, &w);
            prop_assert_eq!(via_view.data(), via_copy.data());
        }
    }

    /// The losses through a pre-dirtied arena match the same losses through
    /// a fresh (allocating) arena bit-for-bit.
    #[test]
    fn loss_ws_matches_allocating(logits in arb_tensor(2..8, 2..5), seed in 0u64..1000) {
        let n = logits.rows();
        let c = logits.cols();
        let labels: Vec<u32> = (0..n).map(|i| ((seed as usize + i) % c) as u32).collect();
        let mut ws = Workspace::new();
        // Dirty the pools for the exact shape the loss will check out.
        ws.give(dirty(n, c));
        ws.give(dirty(n, c));
        let (l0, g0) = loss::softmax_cross_entropy_ws(&logits, &labels, &mut Workspace::new());
        let (l1, g1) = loss::softmax_cross_entropy_ws(&logits, &labels, &mut ws);
        prop_assert_eq!(l0, l1);
        prop_assert_eq!(g0.data(), g1.data());
        // The loss of a step that reads every other row: those rows'
        // logits and labels.
        let rows: Vec<usize> = (0..n).step_by(2).collect();
        let mut read = Tensor::zeros(rows.len(), c);
        for (i, &r) in rows.iter().enumerate() {
            read.row_mut(i).copy_from_slice(logits.row(r));
        }
        let read_labels: Vec<u32> = rows.iter().map(|&r| labels[r]).collect();
        ws.give(g1);
        let (m0, mg0) = loss::softmax_cross_entropy_ws(&read, &read_labels, &mut Workspace::new());
        let (m1, mg1) = loss::softmax_cross_entropy_ws(&read, &read_labels, &mut ws);
        prop_assert_eq!(m0, m1);
        prop_assert_eq!(mg0.data(), mg1.data());
    }
}

/// A `GraphTrainer` epoch driven through its shared, warm workspace must
/// reproduce — bit for bit — the loss history of a hand-written step loop
/// that runs every `forward_ws`/loss/`backward_ws` call through a fresh
/// (allocating) arena, in the same step order. Three epochs ensure the
/// arena's buffers are reused, not just filled.
#[test]
fn graph_trainer_with_shared_workspace_matches_allocating_loop() {
    use torchgt::comm::ClusterTopology;
    use torchgt::graph::pack::segment_mean;
    use torchgt::graph::{DatasetKind, GraphLabel};
    use torchgt::perf::{GpuSpec, ModelShape};
    use torchgt::tensor::{Adam, Optimizer};

    let data = DatasetKind::MalNet.generate_graphs(10, 0.002, 3);
    let classes = 5;
    let epochs = 3;
    let mut cfg = TrainConfig::new(Method::GpSparse, 64, epochs);
    cfg.lr = 2e-3;
    let model = Box::new(Gt::new(GtConfig::tiny(data.feat_dim, classes), 9));
    let shape = ModelShape { layers: 2, hidden: 16, heads: 2 };
    let mut trainer = GraphTrainer::new(
        cfg.clone(),
        &data,
        model,
        shape,
        GpuSpec::rtx3090(),
        ClusterTopology::rtx3090(1),
    );
    let trainer_losses: Vec<f32> = (0..epochs).map(|_| trainer.train_epoch().loss).collect();

    // Replica of the step loop: identical model/optimizer seeds, identical
    // step order, but every call through a fresh arena.
    let mut model = Gt::new(GtConfig::tiny(data.feat_dim, classes), 9);
    model.set_training(true);
    let mut opt = Adam::with_lr(cfg.lr);
    let split = data.len() * 8 / 10;
    let prepared: Vec<_> = data.samples[..split]
        .iter()
        .map(|s| {
            let n = s.graph.num_nodes();
            let features = Tensor::from_vec(n, s.feat_dim, s.features.clone());
            let mask = topology_mask(&s.graph, true);
            let spd = (n <= 512).then(|| spd_matrix(&s.graph, 8));
            (features, s.graph.clone(), mask, spd, s.label)
        })
        .collect();
    let mut replica_losses = Vec::new();
    for _ in 0..epochs {
        let mut total = 0.0f32;
        for (features, graph, mask, spd, label) in &prepared {
            let batch = SequenceBatch { features, graph, spd: spd.as_deref() };
            let pattern = Pattern::Sparse(mask);
            let every: Vec<usize> = (0..features.rows()).collect();
            let token_logits = model.forward_ws(&batch, pattern, &every, &mut Workspace::new());
            // The engine pools a single graph as one segment of a pack.
            let (n, classes) = token_logits.shape();
            let glogits = Tensor::from_vec(
                1,
                classes,
                segment_mean(token_logits.data(), classes, &[(0, n)]),
            );
            let (l, dl) = match *label {
                GraphLabel::Class(c) => loss::softmax_cross_entropy_ws(&glogits, &[c], &mut Workspace::new()),
                GraphLabel::Value(v) => loss::mae_loss(&glogits, &[v]),
            };
            total += l;
            let n = features.rows();
            let mut dtokens = Tensor::zeros(n, dl.cols());
            let inv = 1.0 / n as f32;
            for r in 0..n {
                for c in 0..dl.cols() {
                    dtokens.set(r, c, dl.get(0, c) * inv);
                }
            }
            model.backward_ws(&batch, pattern, &dtokens, &mut Workspace::new());
            opt.step(&mut model.params_mut());
        }
        replica_losses.push(total / prepared.len().max(1) as f32);
    }
    assert_eq!(
        trainer_losses, replica_losses,
        "workspace-threaded trainer diverged from the allocating code path"
    );
}

/// Three `forward_ws` → loss → `backward_ws` → Adam steps of `model` on
/// `batch`, reading two rows in three (a step that reads part of the
/// sequence), every call through `ws`, renewed before each call when
/// `fresh`. Returns the bits of every step's logits, then of every gradient
/// before the step and every parameter after it.
fn step_bits(
    mut model: Box<dyn SequenceModel>,
    batch: &SequenceBatch<'_>,
    pattern: Pattern<'_>,
    fresh: bool,
) -> Vec<u32> {
    use torchgt::tensor::{Adam, Optimizer};
    fn push(bits: &mut Vec<u32>, t: &Tensor) {
        bits.extend(t.data().iter().map(|v| v.to_bits()));
    }
    let renew = |ws: &mut Workspace| {
        if fresh {
            *ws = Workspace::new();
        }
    };
    let mut ws = Workspace::new();
    // Garbage in the arena from the start: a read of an unwritten buffer
    // must not go unnoticed on the reused side.
    ws.give(dirty(64, 64));
    let mut opt = Adam::with_lr(1e-2);
    let mut bits = Vec::new();
    model.set_training(true);
    for _ in 0..3 {
        renew(&mut ws);
        let rows: Vec<usize> = (0..batch.features.rows()).filter(|r| r % 3 != 1).collect();
        let logits = model.forward_ws(batch, pattern, &rows, &mut ws);
        // Debug builds fill unwritten arena buffers with NaN on both sides:
        // a read of one shows here rather than as equal garbage.
        assert!(logits.data().iter().all(|v| v.is_finite()), "non-finite logits");
        let labels: Vec<u32> = (0..logits.rows()).map(|i| (i % logits.cols()) as u32).collect();
        renew(&mut ws);
        let (_, dlogits) = loss::softmax_cross_entropy_ws(&logits, &labels, &mut ws);
        renew(&mut ws);
        model.backward_ws(batch, pattern, &dlogits, &mut ws);
        push(&mut bits, &logits);
        model.params_mut().iter().for_each(|p| push(&mut bits, &p.grad));
        opt.step(&mut model.params_mut());
        model.params_mut().iter().for_each(|p| push(&mut bits, &p.value));
        ws.give(logits);
        ws.give(dlogits);
    }
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every model's one forward and one backward, three training steps
    /// through one reused arena, equal the same steps through a fresh arena
    /// per call — logits, every gradient and every parameter, bit for bit —
    /// under every pattern the model reads (GCN and GAT ignore the pattern,
    /// and the NodeFormer-like sampler draws its own mask, so one each).
    #[test]
    fn every_model_through_a_reused_arena_matches_fresh_arenas(n in 6usize..24, seed in 0u64..1000) {
        use torchgt::graph::generators::erdos_renyi;
        use torchgt::model::{Gat, Gcn, Graphormer, GraphormerConfig, SampledTransformer, VirtualNode};
        let (feat, classes) = (5, 3);
        let graph = erdos_renyi(n, 2 * n, seed);
        let mask = graph.with_self_loops();
        let spd = spd_matrix(&graph, 4);
        let features = init::normal(n, feat, 0.0, 1.0, seed ^ 0xFEA7);
        let batch = SequenceBatch { features: &features, graph: &graph, spd: Some(&spd) };
        let gt = GtConfig { dropout: 0.1, ..GtConfig::tiny(feat, classes) };
        let graphormer = GraphormerConfig {
            feat_dim: feat,
            hidden: 16,
            layers: 2,
            heads: 2,
            ffn_mult: 2,
            out_dim: classes,
            max_degree: 8,
            max_spd: 4,
            dropout: 0.1,
        };
        let build = |name: &str| -> Box<dyn SequenceModel> {
            match name {
                "Gt" => Box::new(Gt::new(gt, seed)),
                "Graphormer" => Box::new(Graphormer::new(graphormer, seed)),
                "Gcn" => Box::new(Gcn::new(&[feat, 8, classes], seed)),
                "Gat" => Box::new(Gat::new(feat, 8, classes, seed)),
                "VirtualNode<Gt>" => Box::new(VirtualNode::new(Gt::new(gt, seed), feat, seed)),
                _ => Box::new(SampledTransformer::new(feat, 8, 2, 2, classes, 2, seed)),
            }
        };
        let every = [Pattern::Dense, Pattern::Flash, Pattern::Sparse(&mask), Pattern::Performer(8)];
        let models: [(&str, &[Pattern<'_>]); 6] = [
            ("Gt", &every),
            ("Graphormer", &every),
            ("Gcn", &every[..1]),
            ("Gat", &every[..1]),
            ("VirtualNode<Gt>", &every),
            ("SampledTransformer", &every[..1]),
        ];
        for (name, patterns) in models {
            for &pattern in patterns {
                let reused = step_bits(build(name), &batch, pattern, false);
                let fresh = step_bits(build(name), &batch, pattern, true);
                prop_assert!(reused == fresh, "{} under {}: the reused arena changed the bits", name, pattern.label());
            }
        }
    }
}
