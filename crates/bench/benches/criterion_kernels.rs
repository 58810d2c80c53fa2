//! Criterion micro-benchmarks of the real Rust kernels (actual CPU wall
//! time, not the GPU cost model): attention variants, the partitioner, the
//! reformation pass and the collectives.

use torchgt_compat::bench::{BenchmarkId, Criterion};
use torchgt_compat::{criterion_group, criterion_main};
use torchgt_comm::DeviceGroup;
use torchgt_graph::generators::{clustered_power_law, ClusteredConfig};
use torchgt_graph::partition::{cluster_order, partition};
use torchgt_graph::DatasetKind;
use torchgt_model::attention;
use torchgt_runtime::prepare_node_dataset;
use torchgt_sparse::{reform, topology_mask, ReformConfig};
use torchgt_tensor::{init, Workspace};

fn attention_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("attention_forward");
    group.sample_size(10);
    for &s in &[256usize, 1024] {
        let d = 64;
        let (g, _) = clustered_power_law(
            ClusteredConfig { n: s, communities: 8, avg_degree: 12.0, intra_fraction: 0.85 },
            1,
        );
        let mask = topology_mask(&g, true);
        let q = init::normal(s, d, 0.0, 1.0, 1);
        let k = init::normal(s, d, 0.0, 1.0, 2);
        let v = init::normal(s, d, 0.0, 1.0, 3);
        // Each variant recycles its output and cache into one warm arena.
        let mut ws = Workspace::new();
        group.bench_with_input(BenchmarkId::new("dense", s), &s, |b, _| {
            b.iter(|| {
                let r = attention::dense_ws(&q, &k, &v, 8, None, &mut ws);
                r.cache.recycle(&mut ws);
                ws.give(r.out);
            })
        });
        group.bench_with_input(BenchmarkId::new("flash", s), &s, |b, _| {
            b.iter(|| {
                let r = attention::flash_ws(&q, &k, &v, 8, &mut ws);
                r.cache.recycle(&mut ws);
                ws.give(r.out);
            })
        });
        group.bench_with_input(BenchmarkId::new("sparse", s), &s, |b, _| {
            b.iter(|| attention::sparse(&q, &k, &v, 8, &mask, None).out)
        });
    }
    group.finish();
}

fn graph_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_pipeline");
    group.sample_size(10);
    let (g, _) = clustered_power_law(
        ClusteredConfig { n: 4000, communities: 8, avg_degree: 10.0, intra_fraction: 0.85 },
        2,
    );
    group.bench_function("partition_k8_4k_nodes", |b| b.iter(|| partition(&g, 8, 1)));
    // `node_long`'s two partition inputs at seed 1: the arxiv stand-in's whole
    // graph (scale 0.048) and the first of its clustered 1,024-node sequence
    // masks, both at the Auto Tuner's k = 8.
    let arxiv = DatasetKind::OgbnArxiv.generate_node(0.048, 1);
    group.bench_function("partition_arxiv_8k_k8", |b| b.iter(|| partition(&arxiv.graph, 8, 1)));
    let seq_mask = prepare_node_dataset(&arxiv, 1024, true, 8, 1).sequences.swap_remove(0).mask;
    group.bench_function("partition_seq_1024_k8", |b| b.iter(|| partition(&seq_mask, 8, 1)));
    let assign = partition(&g, 8, 1);
    let order = cluster_order(&assign, 8);
    let pg = g.permute(&order.perm);
    group.bench_function("reform_4k_nodes", |b| {
        b.iter(|| reform(&pg, &order, ReformConfig { db: 16, beta_thre: 5.0 * pg.sparsity() }))
    });
    group.finish();
}

fn collectives(c: &mut Criterion) {
    let mut group = c.benchmark_group("collectives");
    group.sample_size(10);
    for &p in &[2usize, 4] {
        group.bench_with_input(BenchmarkId::new("all_to_all_64k_floats", p), &p, |b, &p| {
            b.iter(|| {
                let group = DeviceGroup::new(p);
                group.run(|comm| {
                    let chunks: Vec<Vec<f32>> =
                        (0..p).map(|_| vec![1.0f32; 65536 / p]).collect();
                    comm.all_to_all(chunks)
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, attention_kernels, graph_pipeline, collectives);
criterion_main!(benches);
