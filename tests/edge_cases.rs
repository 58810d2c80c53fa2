//! Degenerate-input hardening: the stack must behave sensibly on tiny,
//! empty and extreme inputs — the cases that crash production systems.

use torchgt::graph::generators::{complete_graph, path_graph};
use torchgt::graph::partition::cluster_order;
use torchgt::graph::CsrGraph;
use torchgt::prelude::*;
use torchgt::sparse::{access_profile, reform, topology_mask, ReformConfig};
use torchgt::TorchGtBuilder;

#[test]
fn sequence_length_larger_than_graph() {
    let d = DatasetKind::OgbnArxiv.generate_node(0.002, 3);
    let n = d.num_nodes();
    let mut t = TorchGtBuilder::new(Method::TorchGt)
        .seq_len(n * 10) // clamps to one whole-graph sequence
        .epochs(1)
        .hidden(16)
        .layers(2)
        .heads(2)
        .build_node(&d)
        .expect("valid configuration");
    let stats = t.train_epoch();
    assert!(stats.loss.is_finite());
    assert_eq!(t.num_sequences(), 1);
}

#[test]
fn sequence_length_one_node_chunks() {
    // Pathological chunking: one node per sequence — every mask is a single
    // self-loop; nothing crashes and the loss stays finite.
    let d = DatasetKind::Flickr.generate_node(0.003, 5);
    let mut cfg_builder = TorchGtBuilder::new(Method::GpSparse)
        .seq_len(1)
        .epochs(1)
        .hidden(16)
        .layers(2)
        .heads(2);
    cfg_builder = cfg_builder.lr(1e-3);
    let mut t = cfg_builder.build_node(&d)
        .expect("valid configuration");
    let stats = t.train_epoch();
    assert!(stats.loss.is_finite());
    assert_eq!(t.num_sequences(), d.num_nodes());
}

#[test]
fn zero_epoch_run_returns_empty() {
    let d = DatasetKind::OgbnArxiv.generate_node(0.002, 7);
    let mut t = TorchGtBuilder::new(Method::GpFlash)
        .seq_len(200)
        .epochs(0)
        .hidden(16)
        .layers(2)
        .heads(2)
        .build_node(&d)
        .expect("valid configuration");
    assert!(t.run().is_empty());
}

#[test]
fn partition_with_more_parts_than_nodes() {
    let g = path_graph(3);
    let assign = torchgt::graph::partition(&g, 8, 1);
    assert_eq!(assign.len(), 3);
    assert!(assign.iter().all(|&c| c < 8));
}

#[test]
fn masks_of_trivial_graphs() {
    let single = CsrGraph::from_edges(1, &[]);
    let m = topology_mask(&single, true);
    assert!(m.has_edge(0, 0));
    let p = access_profile(&m);
    assert_eq!(p.nnz, 1);
    let empty = CsrGraph::from_edges(0, &[]);
    let m = topology_mask(&empty, true);
    assert_eq!(m.num_nodes(), 0);
    assert_eq!(access_profile(&m).nnz, 0);
}

#[test]
fn reform_of_empty_and_tiny() {
    let cfg = ReformConfig { db: 8, beta_thre: 0.5 };
    let empty = CsrGraph::from_edges(0, &[]);
    let r = reform(&empty, &cluster_order(&[], 1), cfg);
    assert_eq!(r.mask.num_nodes(), 0);
    assert_eq!(r.stats.nnz_after, 0);
    assert_eq!(r.stats.sub_blocks, 0);
    // A 2-node clique is denser than any threshold ≤ 1: kept as-is, with a
    // sub-block size larger than the graph.
    let tiny = complete_graph(2).with_self_loops();
    let r = reform(&tiny, &cluster_order(&[0, 0], 1), cfg);
    assert_eq!(r.mask.num_arcs(), 4);
    assert!(r.mask.has_edge(0, 1) && r.mask.has_edge(1, 1));
    assert_eq!(r.stats.edge_recall, 1.0);
}

#[test]
fn attention_on_single_token() {
    use torchgt::model::attention;
    use torchgt::tensor::{init, Workspace};
    let mut ws = Workspace::new();
    let q = init::normal(1, 4, 0.0, 1.0, 1);
    let k = init::normal(1, 4, 0.0, 1.0, 2);
    let v = init::normal(1, 4, 0.0, 1.0, 3);
    // A single token attends only to itself: output = V.
    let dense = attention::dense_ws(&q, &k, &v, 2, None, &mut ws).out;
    assert_eq!(dense.data(), v.data());
    let flash = attention::flash_ws(&q, &k, &v, 2, &mut ws).out;
    for (a, b) in flash.data().iter().zip(v.data()) {
        assert!((a - b).abs() < 1e-5);
    }
    let mask = CsrGraph::from_edges(1, &[(0, 0)]);
    let sparse = attention::sparse_ws(&q, &k, &v, 2, &mask, None, &mut ws).out;
    assert_eq!(sparse.data(), v.data());
}

#[test]
fn empty_tensor_operations() {
    let t = Tensor::zeros(0, 4);
    assert_eq!(t.sum(), 0.0);
    assert_eq!(t.mean(), 0.0);
    assert!(!t.has_non_finite());
    let s = torchgt::tensor::ops::col_sum(&t);
    assert_eq!(s.data(), &[0.0; 4]);
}

#[test]
fn graph_dataset_with_one_sample() {
    let data = DatasetKind::Zinc.generate_graphs(1, 1.0, 3);
    let mut t = TorchGtBuilder::new(Method::GpSparse)
        .model(torchgt::ModelKind::Gt)
        .epochs(1)
        .hidden(16)
        .layers(2)
        .heads(2)
        .build_graph(&data, 1)
        .expect("valid configuration");
    // 1 sample → 0 train / 1 test under the 80/20 split; must not panic.
    let stats = t.train_epoch();
    assert!(stats.loss.is_finite() || stats.loss == 0.0);
}
