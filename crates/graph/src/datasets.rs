//! Dataset registry mirroring Table III of the paper, backed by synthetic
//! generators.
//!
//! Each [`DatasetKind`] records the *published* statistics of the original
//! dataset and can [`DatasetKind::generate_node`] /
//! [`DatasetKind::generate_graphs`] a synthetic stand-in at a configurable
//! scale. Labels are planted so they are genuinely learnable:
//!
//! * node-level — a node's class is its community with label noise, and
//!   features are a class centroid plus Gaussian noise;
//! * graph-level — the class determines generator parameters (density/hub
//!   structure), so structure ↔ label; regression targets are smooth
//!   functions of graph statistics.

use crate::csr::CsrGraph;
use crate::generators::{
    callgraph_like, clustered_power_law_stream, molecule_like, ClusteredConfig,
};
use torchgt_compat::rng::rngs::SmallRng;
use torchgt_compat::rng::{Rng, SeedableRng};

torchgt_compat::json_enum! {
    /// Graph learning task types in the paper's evaluation.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum TaskKind {
        /// Classify each node into one of `classes`.
        NodeClassification,
        /// Classify each graph into one of `classes`.
        GraphClassification,
        /// Regress one scalar per graph (ZINC-style, reported as MAE).
        GraphRegression,
    }
}

torchgt_compat::json_enum! {
    /// The datasets used across the paper's tables and figures.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub enum DatasetKind {
        /// Amazon product co-purchase graph (He & McAuley), 107-class.
        Amazon,
        /// ogbn-arxiv citation graph, 40-class.
        OgbnArxiv,
        /// ogbn-products co-purchase graph, 47-class.
        OgbnProducts,
        /// ogbn-papers100M citation graph, binary task in the paper.
        OgbnPapers100M,
        /// Flickr image-relation graph (Table I), 7-class.
        Flickr,
        /// AMiner-CS citation graph (Figure 1).
        AminerCS,
        /// Pokec social network (Figure 1).
        Pokec,
        /// ZINC molecule regression set.
        Zinc,
        /// ogbg-molpcba molecule multi-task set (treated as classification here).
        OgbgMolpcba,
        /// MalNet function-call-graph classification set, 5-class.
        MalNet,
    }
}

torchgt_compat::json_struct! {
    /// What [`DatasetKind::generate_node`] *actually* produces at a given
    /// scale, after the small-scale clamps: `n` is floored at 256 nodes, the
    /// class count at ≥16 nodes per class, and the feature dimension at 64.
    /// Shard manifests and the `datasets` CLI report these instead of the
    /// published [`DatasetSpec`] numbers so on-disk datasets describe
    /// themselves accurately.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct EffectiveSpec {
        /// Nodes generated (`max(spec.nodes * scale, 256)`).
        pub nodes: usize,
        /// Feature dimension generated (`min(spec.feats, 64)`).
        pub feat_dim: usize,
        /// Classes (= planted communities) generated.
        pub classes: usize,
        /// Target average degree carried over from the published statistics.
        pub avg_degree: f64,
    }
}

/// Receives a node-level dataset as a stream: first every edge (generator
/// order), then every node record in id order. Implemented by the collector
/// inside [`DatasetKind::generate_node`] and by the shard writers in
/// `torchgt-data`.
pub trait NodeSink {
    /// One undirected edge `u—v` (`u != v`), pre-deduplication: the final
    /// graph is [`CsrGraph::from_edges`] over the whole edge stream.
    fn edge(&mut self, u: u32, v: u32);

    /// Node `v`'s label, planted community, and feature row. Called once per
    /// node in ascending id order, after the last `edge` call; `features`
    /// is only valid for the duration of the call.
    fn node(&mut self, v: u32, label: u32, community: u32, features: &[f32]);
}

torchgt_compat::json_struct_ser! {
    /// Published statistics of a dataset (Table III of the paper).
    #[derive(Clone, Copy, Debug)]
    pub struct DatasetSpec {
        /// Dataset display name.
        pub name: &'static str,
        /// Task type.
        pub task: TaskKind,
        /// Nodes in the original (node-level) or average nodes per graph
        /// (graph-level).
        pub nodes: u64,
        /// Edges in the original, or average per graph.
        pub edges: u64,
        /// Feature dimension.
        pub feats: usize,
        /// Number of classes (1 for regression).
        pub classes: usize,
        /// Number of graphs (1 for node-level sets).
        pub num_graphs: u64,
    }
}

impl DatasetKind {
    /// Published statistics (Table III plus the figure-only datasets).
    pub fn spec(self) -> DatasetSpec {
        use DatasetKind::*;
        use TaskKind::*;
        match self {
            Amazon => DatasetSpec {
                name: "Amazon",
                task: NodeClassification,
                nodes: 1_598_960,
                edges: 132_169_734,
                feats: 200,
                classes: 107,
                num_graphs: 1,
            },
            OgbnArxiv => DatasetSpec {
                name: "ogbn-arxiv",
                task: NodeClassification,
                nodes: 169_343,
                edges: 1_166_243,
                feats: 128,
                classes: 40,
                num_graphs: 1,
            },
            OgbnProducts => DatasetSpec {
                name: "ogbn-products",
                task: NodeClassification,
                nodes: 2_449_029,
                edges: 61_859_140,
                feats: 100,
                classes: 47,
                num_graphs: 1,
            },
            OgbnPapers100M => DatasetSpec {
                name: "ogbn-papers100M",
                task: NodeClassification,
                nodes: 111_059_956,
                edges: 1_615_685_872,
                feats: 128,
                classes: 2,
                num_graphs: 1,
            },
            Flickr => DatasetSpec {
                name: "Flickr",
                task: NodeClassification,
                nodes: 89_250,
                edges: 899_756,
                feats: 500,
                classes: 7,
                num_graphs: 1,
            },
            AminerCS => DatasetSpec {
                name: "AMiner-CS",
                task: NodeClassification,
                nodes: 593_486,
                edges: 6_217_004,
                feats: 100,
                classes: 18,
                num_graphs: 1,
            },
            Pokec => DatasetSpec {
                name: "Pokec",
                task: NodeClassification,
                nodes: 1_632_803,
                edges: 30_622_564,
                feats: 65,
                classes: 2,
                num_graphs: 1,
            },
            Zinc => DatasetSpec {
                name: "ZINC",
                task: GraphRegression,
                nodes: 23,
                edges: 25,
                feats: 28,
                classes: 1,
                num_graphs: 12_000,
            },
            OgbgMolpcba => DatasetSpec {
                name: "ogbg-molpcba",
                task: GraphClassification,
                nodes: 26,
                edges: 28,
                feats: 9,
                classes: 128,
                num_graphs: 437_929,
            },
            MalNet => DatasetSpec {
                name: "MalNet",
                task: GraphClassification,
                nodes: 15_378,
                edges: 35_167,
                feats: 16,
                classes: 5,
                num_graphs: 10_833,
            },
        }
    }

    /// The post-clamp parameters [`DatasetKind::generate_node`] will use at
    /// `scale` — the values a shard manifest must record. Pure: no RNG, no
    /// generation. Panics on graph-level kinds.
    pub fn effective(self, scale: f64) -> EffectiveSpec {
        let spec = self.spec();
        assert_eq!(
            spec.task,
            TaskKind::NodeClassification,
            "{} is not a node-level dataset",
            spec.name
        );
        let n = ((spec.nodes as f64 * scale) as usize).max(256);
        let avg_degree = (2.0 * spec.edges as f64 / spec.nodes as f64).max(2.0);
        // Keep class count manageable at reduced scale: at least 16 nodes per
        // class on average. Cap the feature dimension to keep functional runs
        // cheap; statistics experiments use the spec value directly.
        EffectiveSpec {
            nodes: n,
            feat_dim: spec.feats.min(64),
            classes: spec.classes.min((n / 16).max(2)),
            avg_degree,
        }
    }

    /// XOR-mask deriving the split RNG seed from the dataset seed (the
    /// feature RNG uses `^ 0xD07A`). Public so out-of-core loaders can
    /// recompute [`Split::standard`] from a manifest instead of storing it.
    pub const SPLIT_SEED_XOR: u64 = 0x5917;

    /// Generate a synthetic node-level stand-in scaled by `scale` (1.0 would
    /// be the original size; benches use ~1e-2…1e-3). Panics on graph-level
    /// kinds.
    pub fn generate_node(self, scale: f64, seed: u64) -> NodeDataset {
        struct Collect {
            edges: Vec<(u32, u32)>,
            features: Vec<f32>,
            labels: Vec<u32>,
            community: Vec<u32>,
        }
        impl NodeSink for Collect {
            fn edge(&mut self, u: u32, v: u32) {
                self.edges.push((u, v));
            }
            fn node(&mut self, _v: u32, label: u32, community: u32, features: &[f32]) {
                self.labels.push(label);
                self.community.push(community);
                self.features.extend_from_slice(features);
            }
        }
        let eff = self.effective(scale);
        let mut sink = Collect {
            edges: Vec::new(),
            features: Vec::with_capacity(eff.nodes * eff.feat_dim),
            labels: Vec::with_capacity(eff.nodes),
            community: Vec::with_capacity(eff.nodes),
        };
        let eff = self.stream_node(scale, seed, &mut sink);
        let graph = CsrGraph::from_edges(eff.nodes, &sink.edges);
        let split = Split::standard(eff.nodes, seed ^ Self::SPLIT_SEED_XOR);
        NodeDataset {
            kind: self,
            graph,
            features: sink.features,
            feat_dim: eff.feat_dim,
            labels: sink.labels,
            num_classes: eff.classes,
            community: sink.community,
            split,
        }
    }

    /// Streaming core behind [`DatasetKind::generate_node`]: pushes every
    /// edge and then every node record into `sink` without materialising the
    /// graph or feature matrix, so a papers100M-scale stand-in can be written
    /// to disk shard-by-shard under an `O(n)` memory bound. Emits edges first
    /// (generator order, duplicates included — the final graph is
    /// [`CsrGraph::from_edges`] over the whole stream), then node records in
    /// id order. Returns the effective (post-clamp) generation parameters.
    ///
    /// Bit-compatible with `generate_node`: collecting this stream and
    /// reassembling reproduces the in-memory dataset exactly.
    pub fn stream_node(
        self,
        scale: f64,
        seed: u64,
        sink: &mut dyn NodeSink,
    ) -> EffectiveSpec {
        let eff = self.effective(scale);
        let EffectiveSpec { nodes: n, feat_dim, classes, avg_degree } = eff;
        let community = clustered_power_law_stream(
            ClusteredConfig { n, communities: classes, avg_degree, intra_fraction: 0.88 },
            seed,
            &mut |u, v| sink.edge(u, v),
        );
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xD07A);
        let centroids: Vec<f32> =
            (0..classes * feat_dim).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
        let noise_level = 0.7f32;
        let mut row = vec![0.0f32; feat_dim];
        for v in 0..n {
            // 10% label noise keeps the task non-trivial.
            let class =
                if rng.gen::<f32>() < 0.1 { rng.gen_range(0..classes as u32) } else { community[v] };
            let c = community[v] as usize; // features follow the *structure*
            for (f, slot) in row.iter_mut().enumerate() {
                *slot = centroids[c * feat_dim + f] + noise_level * gaussian(&mut rng);
            }
            sink.node(v as u32, class, community[v], &row);
        }
        eff
    }

    /// Generate a synthetic graph-level stand-in with `num_graphs` samples
    /// whose sizes are scaled by `scale`. Panics on node-level kinds.
    pub fn generate_graphs(self, num_graphs: usize, scale: f64, seed: u64) -> GraphDataset {
        let spec = self.spec();
        assert_ne!(
            spec.task,
            TaskKind::NodeClassification,
            "{} is not a graph-level dataset",
            spec.name
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let feat_dim = spec.feats.min(32);
        let mut samples = Vec::with_capacity(num_graphs);
        for i in 0..num_graphs {
            let gseed = seed.wrapping_add(1 + i as u64 * 7919);
            let sample = match self {
                DatasetKind::MalNet => {
                    // Class determines hub structure / density of the call
                    // graph: 5 malware families.
                    let class = (i % spec.classes) as u32;
                    let n = (((spec.nodes as f64 * scale) as usize).max(32) as f64
                        * rng.gen_range(0.6..1.4)) as usize;
                    let graph = callgraph_like(n.max(16), gseed ^ (class as u64) << 17);
                    // Family-specific extra edges: denser families get more.
                    let graph = densify(&graph, class as usize * n / 20, gseed);
                    make_sample(graph, feat_dim, GraphLabel::Class(class), gseed)
                }
                DatasetKind::Zinc => {
                    let n = rng.gen_range(12..36usize);
                    let rings = rng.gen_range(0..5usize);
                    let graph = molecule_like(n, rings, gseed);
                    // Regression target: a smooth function of structure
                    // (mimics constrained solubility).
                    let y = 0.3 * n as f32 / 36.0 + 0.5 * rings as f32 / 5.0
                        + 0.2 * graph.avg_degree() as f32 / 3.0;
                    make_sample(graph, feat_dim, GraphLabel::Value(y), gseed)
                }
                DatasetKind::OgbgMolpcba => {
                    // Cap classes at 6 so every class has a distinct ring
                    // count (the structural signal) at reduced scale.
                    let classes = spec.classes.min(6);
                    let class = (i % classes) as u32;
                    let n = rng.gen_range(14..40usize);
                    // Class controls ring count → structural signal.
                    let graph = molecule_like(n, class as usize, gseed);
                    make_sample(graph, feat_dim, GraphLabel::Class(class), gseed)
                }
                _ => unreachable!(),
            };
            samples.push(sample);
        }
        GraphDataset { kind: self, feat_dim, samples }
    }
}

fn gaussian(rng: &mut SmallRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

fn densify(g: &CsrGraph, extra: usize, seed: u64) -> CsrGraph {
    if extra == 0 {
        return g.clone();
    }
    let n = g.num_nodes();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xBEEF);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(g.num_arcs() / 2 + extra);
    for v in 0..n {
        for &nb in g.neighbors(v) {
            if nb as usize >= v {
                edges.push((v as u32, nb));
            }
        }
    }
    for _ in 0..extra {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v {
            edges.push((u, v));
        }
    }
    CsrGraph::from_edges(n, &edges)
}

fn make_sample(graph: CsrGraph, feat_dim: usize, label: GraphLabel, seed: u64) -> GraphSample {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xFEA7);
    let n = graph.num_nodes();
    // Features encode normalised degree plus noise — structure-correlated,
    // like atom types correlate with valence.
    let max_deg = graph.max_degree().max(1) as f32;
    let mut features = vec![0.0f32; n * feat_dim];
    for v in 0..n {
        features[v * feat_dim] = graph.degree(v) as f32 / max_deg;
        for f in 1..feat_dim {
            features[v * feat_dim + f] = 0.3 * gaussian(&mut rng);
        }
    }
    GraphSample { graph, features, feat_dim, label }
}

torchgt_compat::json_struct! {
    /// Train/validation/test split masks.
    #[derive(Clone, Debug)]
    pub struct Split {
        /// Indices of training nodes (or graphs).
        pub train: Vec<u32>,
        /// Indices of validation nodes.
        pub val: Vec<u32>,
        /// Indices of test nodes.
        pub test: Vec<u32>,
    }
}

impl Split {
    /// Standard 60/20/20 random split.
    pub fn standard(n: usize, seed: u64) -> Self {
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let train_end = n * 6 / 10;
        let val_end = n * 8 / 10;
        Self {
            train: order[..train_end].to_vec(),
            val: order[train_end..val_end].to_vec(),
            test: order[val_end..].to_vec(),
        }
    }
}

/// A node-level dataset: one big graph with per-node features and labels.
#[derive(Clone, Debug)]
pub struct NodeDataset {
    /// Which dataset this stands in for.
    pub kind: DatasetKind,
    /// The graph.
    pub graph: CsrGraph,
    /// Row-major `[n, feat_dim]` features.
    pub features: Vec<f32>,
    /// Feature dimension.
    pub feat_dim: usize,
    /// Node labels.
    pub labels: Vec<u32>,
    /// Number of classes.
    pub num_classes: usize,
    /// Planted community of each node (ground truth for partition tests).
    pub community: Vec<u32>,
    /// Train/val/test split.
    pub split: Split,
}

impl NodeDataset {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Feature row of node `v`.
    pub fn feature_row(&self, v: usize) -> &[f32] {
        &self.features[v * self.feat_dim..(v + 1) * self.feat_dim]
    }
}

/// Label of one graph sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GraphLabel {
    /// Classification target.
    Class(u32),
    /// Regression target.
    Value(f32),
}

// Payload-carrying enum: encoded externally-tagged (`{"Class": 3}`), the
// same shape serde's default representation produced.
impl torchgt_compat::json::ToJson for GraphLabel {
    fn to_json(&self) -> torchgt_compat::json::Value {
        use torchgt_compat::json::Value;
        match self {
            GraphLabel::Class(c) => Value::Object(vec![("Class".to_string(), c.to_json())]),
            GraphLabel::Value(v) => Value::Object(vec![("Value".to_string(), v.to_json())]),
        }
    }
}

impl torchgt_compat::json::FromJson for GraphLabel {
    fn from_json(
        v: &torchgt_compat::json::Value,
    ) -> Result<Self, torchgt_compat::json::JsonError> {
        use torchgt_compat::json::JsonError;
        if let Some(c) = v.get("Class") {
            return Ok(GraphLabel::Class(u32::from_json(c)?));
        }
        if let Some(x) = v.get("Value") {
            return Ok(GraphLabel::Value(f32::from_json(x)?));
        }
        Err(JsonError("expected {\"Class\": _} or {\"Value\": _}".into()))
    }
}

/// One graph-level sample.
#[derive(Clone, Debug)]
pub struct GraphSample {
    /// The sample's graph.
    pub graph: CsrGraph,
    /// Row-major `[n, feat_dim]` node features.
    pub features: Vec<f32>,
    /// Feature dimension.
    pub feat_dim: usize,
    /// Target.
    pub label: GraphLabel,
}

/// A graph-level dataset: a collection of labelled graphs.
#[derive(Clone, Debug)]
pub struct GraphDataset {
    /// Which dataset this stands in for.
    pub kind: DatasetKind,
    /// Feature dimension shared by all samples.
    pub feat_dim: usize,
    /// The samples.
    pub samples: Vec<GraphSample>,
}

impl GraphDataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_table_iii() {
        let arxiv = DatasetKind::OgbnArxiv.spec();
        assert_eq!(arxiv.nodes, 169_343);
        assert_eq!(arxiv.edges, 1_166_243);
        assert_eq!(arxiv.classes, 40);
        let papers = DatasetKind::OgbnPapers100M.spec();
        assert_eq!(papers.nodes, 111_059_956);
        let malnet = DatasetKind::MalNet.spec();
        assert_eq!(malnet.classes, 5);
        assert_eq!(malnet.num_graphs, 10_833);
        // Paper quotes arxiv sparsity ≈ 4.1e-5 (directed edges / N²); our
        // symmetric storage doubles the count, same order of magnitude.
        let s = 2.0 * arxiv.edges as f64 / (arxiv.nodes as f64 * arxiv.nodes as f64);
        assert!(s > 1e-5 && s < 2e-4);
    }

    #[test]
    fn node_generation_respects_scale_and_degree() {
        let d = DatasetKind::OgbnArxiv.generate_node(0.01, 1);
        let n = d.num_nodes();
        assert!((1400..2100).contains(&n), "n = {n}");
        // Average degree ≈ 2E/N of the original ≈ 13.8.
        assert!((d.graph.avg_degree() - 13.8).abs() < 4.0, "deg {}", d.graph.avg_degree());
        assert_eq!(d.labels.len(), n);
        assert_eq!(d.features.len(), n * d.feat_dim);
        assert!(d.num_classes >= 2);
        assert!(d.labels.iter().all(|&l| (l as usize) < d.num_classes));
    }

    #[test]
    fn node_generation_is_deterministic() {
        let a = DatasetKind::Flickr.generate_node(0.02, 9);
        let b = DatasetKind::Flickr.generate_node(0.02, 9);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.features, b.features);
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn labels_correlate_with_communities() {
        let d = DatasetKind::OgbnProducts.generate_node(0.001, 3);
        let agree = d
            .labels
            .iter()
            .zip(&d.community)
            .filter(|(&l, &c)| l == c)
            .count();
        // 10% label noise ⇒ ~90% agreement.
        assert!(agree as f64 / d.labels.len() as f64 > 0.8);
    }

    #[test]
    fn split_partitions_all_nodes() {
        let s = Split::standard(100, 7);
        assert_eq!(s.train.len() + s.val.len() + s.test.len(), 100);
        let mut all: Vec<u32> = s.train.iter().chain(&s.val).chain(&s.test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn zinc_generation_regression_targets() {
        let d = DatasetKind::Zinc.generate_graphs(50, 1.0, 5);
        assert_eq!(d.len(), 50);
        for s in &d.samples {
            assert!(s.graph.is_connected());
            match s.label {
                GraphLabel::Value(v) => assert!((0.0..2.0).contains(&v)),
                _ => panic!("ZINC must be regression"),
            }
        }
    }

    #[test]
    fn malnet_generation_classes_balanced() {
        let d = DatasetKind::MalNet.generate_graphs(25, 0.005, 2);
        let mut counts = [0usize; 5];
        for s in &d.samples {
            match s.label {
                GraphLabel::Class(c) => counts[c as usize] += 1,
                _ => panic!("MalNet must be classification"),
            }
        }
        assert!(counts.iter().all(|&c| c == 5));
    }

    #[test]
    #[should_panic(expected = "not a node-level dataset")]
    fn graph_level_rejects_node_generation() {
        let _ = DatasetKind::Zinc.generate_node(0.1, 0);
    }

    #[test]
    fn effective_spec_reports_the_clamps() {
        // Tiny scale: n floors at 256, classes cap at n/16, feats cap at 64.
        let eff = DatasetKind::OgbnArxiv.effective(1e-9);
        assert_eq!(eff.nodes, 256);
        assert_eq!(eff.classes, 16); // min(40, 256/16)
        assert_eq!(eff.feat_dim, 64); // min(128, 64)
        // The generated dataset must agree with the advertised clamps.
        let d = DatasetKind::OgbnArxiv.generate_node(1e-9, 3);
        assert_eq!(d.num_nodes(), eff.nodes);
        assert_eq!(d.num_classes, eff.classes);
        assert_eq!(d.feat_dim, eff.feat_dim);
        // Above the clamp region the published classes survive.
        let big = DatasetKind::OgbnArxiv.effective(0.01);
        assert_eq!(big.classes, 40);
    }

    #[test]
    fn streamed_records_reassemble_into_generate_node() {
        struct Capture {
            edges: Vec<(u32, u32)>,
            nodes: Vec<(u32, u32, u32)>,
            features: Vec<f32>,
            edges_done: bool,
        }
        impl NodeSink for Capture {
            fn edge(&mut self, u: u32, v: u32) {
                assert!(!self.edges_done, "edges must all precede node records");
                self.edges.push((u, v));
            }
            fn node(&mut self, v: u32, label: u32, community: u32, features: &[f32]) {
                self.edges_done = true;
                self.nodes.push((v, label, community));
                self.features.extend_from_slice(features);
            }
        }
        let (kind, scale, seed) = (DatasetKind::Flickr, 0.02, 9);
        let mut cap =
            Capture { edges: Vec::new(), nodes: Vec::new(), features: Vec::new(), edges_done: false };
        let eff = kind.stream_node(scale, seed, &mut cap);
        let d = kind.generate_node(scale, seed);
        assert_eq!(eff.nodes, d.num_nodes());
        assert_eq!(CsrGraph::from_edges(eff.nodes, &cap.edges), d.graph);
        assert_eq!(cap.features, d.features);
        for (i, &(v, label, community)) in cap.nodes.iter().enumerate() {
            assert_eq!(v as usize, i, "node records arrive in id order");
            assert_eq!(label, d.labels[i]);
            assert_eq!(community, d.community[i]);
        }
    }
}
