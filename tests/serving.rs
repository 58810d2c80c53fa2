//! Integration tests of the serving layer (`torchgt-serve`): quantization
//! error bounds, the `TGTF` artifact's corruption guarantees, the
//! freeze-time accuracy gate end-to-end from a trained model, the
//! micro-batching serve loop under concurrent senders, and the subcommand
//! CLI (legacy alias, usage errors, freeze→serve through the real binary).

use std::process::Command;
use std::time::Duration;
use torchgt::prelude::*;
use torchgt::serve::{DatasetRef, PackedQueryBatch, Query, QuantTensor, ServeReply, Zipf};
use torchgt::tensor::Workspace;
use torchgt_compat::proptest::prelude::*;
use torchgt_compat::rng::{Rng, RngCore, SeedableRng, SmallRng};
use torchgt_compat::sync::channel::{bounded, unbounded};

fn tiny_dataset(seed: u64) -> NodeDataset {
    DatasetKind::OgbnArxiv.generate_node(0.002, seed)
}

fn tiny_trainer(dataset: &NodeDataset, seed: u64) -> NodeTrainer {
    TorchGtBuilder::new(Method::TorchGt)
        .seq_len(128)
        .epochs(2)
        .hidden(16)
        .layers(2)
        .heads(2)
        .seed(seed)
        .build_node(dataset)
        .expect("valid configuration")
}

/// Train briefly and freeze through the gate; the artifact this returns has
/// passed the ≤1% accuracy-drop check by construction.
fn frozen_fixture(seed: u64) -> (NodeDataset, CalibSet, FrozenModel) {
    let dataset = tiny_dataset(seed);
    let mut trainer = tiny_trainer(&dataset, seed);
    for _ in 0..2 {
        trainer.train_epoch();
    }
    let calib = CalibSet::from_dataset(&dataset, 128, seed);
    let frozen = trainer.freeze(&calib).expect("freeze passes the accuracy gate");
    (dataset, calib, frozen)
}

/// Randomized quantize→dequantize sweep: every element of every row must
/// land within the published half-step error bound, for both widths and
/// across shapes, magnitudes, and seeds.
#[test]
fn quantization_round_trip_respects_error_bounds() {
    let mut rng = SmallRng::seed_from_u64(0xBEEF);
    for trial in 0..50 {
        let rows = 1 + (rng.next_u64() % 12) as usize;
        let cols = 1 + (rng.next_u64() % 48) as usize;
        let mag = 10.0f32.powi((rng.next_u64() % 5) as i32 - 2);
        let src: Vec<f32> = (0..rows * cols)
            .map(|_| (rng.gen::<f64>() as f32 - 0.5) * 2.0 * mag)
            .collect();
        for scheme in [QuantScheme::Int8, QuantScheme::Int16] {
            let q = QuantTensor::quantize(&src, rows, cols, scheme);
            let mut back = vec![0.0f32; rows * cols];
            q.dequantize_into(&mut back);
            for r in 0..rows {
                let row_max = src[r * cols..(r + 1) * cols]
                    .iter()
                    .fold(0.0f32, |m, &x| m.max(x.abs()));
                // Half a quantization step, plus f32 rounding slack in the
                // quantize/dequantize multiplies (proportional to the row's
                // magnitude — it dominates the int16 step at large values).
                let bound = q.row_error_bound(r) + 8.0 * f32::EPSILON * row_max.max(1.0);
                for c in 0..cols {
                    let err = (src[r * cols + c] - back[r * cols + c]).abs();
                    assert!(
                        err <= bound,
                        "trial {trial} {scheme:?} row {r}: err {err} > bound {bound} (mag {mag})"
                    );
                }
            }
        }
    }
}

/// The on-disk artifact round-trips bit-exactly, and representative
/// corruptions — header, manifest, payload, truncation, trailing bytes —
/// are all rejected by the CRC/length/EOF checks.
#[test]
fn tgtf_file_round_trip_and_corruption() {
    let (_, _, frozen) = frozen_fixture(5);
    let dir = std::env::temp_dir().join(format!("tgtf_rt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("model.tgtf");
    frozen.save(&path).expect("save");
    let back = FrozenModel::load(&path).expect("load");
    assert_eq!(back, frozen, "disk round trip must be bit-exact");

    let bytes = std::fs::read(&path).expect("read artifact");
    let corrupt = |mutate: &dyn Fn(&mut Vec<u8>)| {
        let mut b = bytes.clone();
        mutate(&mut b);
        let p = dir.join("corrupt.tgtf");
        std::fs::write(&p, &b).expect("write corrupt");
        FrozenModel::load(&p)
    };
    // Magic, version, manifest body, payload middle, payload last byte.
    for &offset in &[0usize, 4, 24, bytes.len() / 2, bytes.len() - 1] {
        let r = corrupt(&|b: &mut Vec<u8>| b[offset] ^= 0xFF);
        assert!(r.is_err(), "flipped byte at {offset} must be rejected");
    }
    assert!(corrupt(&|b: &mut Vec<u8>| {
        b.truncate(bytes.len() - 7);
    })
    .is_err());
    assert!(corrupt(&|b: &mut Vec<u8>| b.extend_from_slice(b"junk")).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end accuracy contract: a gated freeze measures a quantized
/// accuracy within 1% of the f32 reference, and the executor rebuilt from
/// the *saved* artifact reproduces the calibration predictions exactly.
#[test]
fn frozen_accuracy_stays_within_gate_and_survives_disk() {
    let (_, calib, frozen) = frozen_fixture(7);
    assert!(
        frozen.f32_acc - frozen.frozen_acc <= 0.01 + 1e-12,
        "gate let through a {:.4} -> {:.4} drop",
        frozen.f32_acc,
        frozen.frozen_acc
    );

    let dir = std::env::temp_dir().join(format!("tgtf_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("model.tgtf");
    frozen.save(&path).expect("save");
    let loaded = FrozenModel::load(&path).expect("load");

    let mut direct = FrozenExecutor::new(&frozen).expect("executor from live freeze");
    let mut from_disk = FrozenExecutor::new(&loaded).expect("executor from disk");
    let batch = calib.batch();
    let a = direct.forward_argmax(&batch, calib.pattern());
    let b = from_disk.forward_argmax(&batch, calib.pattern());
    assert_eq!(a, b, "disk round trip changed predictions");
    assert!((loaded.frozen_acc - calib.accuracy_of(&b)).abs() < 1e-12);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Int16 is the conservative fallback: its freeze must also pass the gate
/// and its round-trip error must be strictly tighter than int8's.
#[test]
fn int16_fallback_freezes_and_is_tighter() {
    let dataset = tiny_dataset(11);
    let mut trainer = tiny_trainer(&dataset, 11);
    trainer.train_epoch();
    let calib = CalibSet::from_dataset(&dataset, 64, 11);
    let opts = FreezeOptions { scheme: QuantScheme::Int16, max_acc_drop: 0.01 };
    let frozen = trainer.freeze_with(&calib, opts).expect("int16 freeze");
    assert_eq!(frozen.scheme, QuantScheme::Int16);
    assert!(frozen.f32_acc - frozen.frozen_acc <= 0.01 + 1e-12);
}

/// The row-subset head the serve loop uses answers exactly what the
/// all-rows path answers at those rows, on random packed micro-batches —
/// through the int8 head (int8 artifact) and the f32 fallback (int16).
#[test]
fn argmax_of_a_row_subset_equals_the_full_argmax_at_those_rows() {
    use torchgt::serve::batch::pack_queries;
    use torchgt::serve::ego_subgraph;
    let dataset = tiny_dataset(13);
    let mut trainer = tiny_trainer(&dataset, 13);
    trainer.train_epoch();
    let calib = CalibSet::from_dataset(&dataset, 64, 13);
    let mut rng = SmallRng::seed_from_u64(0xA26);
    for scheme in [QuantScheme::Int8, QuantScheme::Int16] {
        let frozen = trainer
            .freeze_with(&calib, FreezeOptions { scheme, max_acc_drop: 1.0 })
            .expect("ungated freeze");
        let mut exec = FrozenExecutor::new(&frozen).expect("executor builds");
        assert_eq!(exec.int8_head(), scheme == QuantScheme::Int8);
        for _ in 0..8 {
            let queries = rng.gen_range(1..9usize);
            let subs: Vec<_> = (0..queries)
                .map(|_| {
                    let node = rng.gen_range(0..dataset.graph.num_nodes() as u32);
                    ego_subgraph(&dataset.graph, node, rng.gen_range(1..24usize))
                })
                .collect();
            let packed = pack_queries(&subs, &dataset.features, dataset.feat_dim);
            let batch = SequenceBatch { features: &packed.features, graph: &packed.graph, spd: None };
            let pattern = Pattern::Sparse(&packed.mask);
            let all = exec.forward_argmax(&batch, pattern);
            let logits = exec.forward(&batch, pattern);
            assert_eq!(all.len(), logits.rows());
            for (r, &label) in all.iter().enumerate() {
                let row = logits.row(r);
                let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let first_max = row.iter().position(|&v| v == max);
                assert_eq!(first_max, Some(label as usize), "row {r} of {scheme:?}");
            }
            // Segment starts (what the serve loop asks for), then an
            // arbitrary selection with a repeat, out of order.
            let starts: Vec<usize> = packed.segments.iter().map(|&(start, _)| start).collect();
            let mut picked: Vec<usize> = (0..5).map(|_| rng.gen_range(0..all.len())).collect();
            picked.push(picked[0]);
            for rows in [starts, picked] {
                let got = exec.forward_argmax_rows(&batch, pattern, &rows);
                let want: Vec<u32> = rows.iter().map(|&r| all[r]).collect();
                assert_eq!(got, want, "{scheme:?}, rows {rows:?}");
            }
        }
    }
}

/// A frozen artifact's trunk as [`FrozenExecutor`] runs it: the spec's
/// architecture with the dequantized parameters loaded, in eval mode.
fn dequantized_model(frozen: &FrozenModel) -> Box<dyn SequenceModel> {
    let mut model = frozen.spec.build().expect("spec builds");
    for (t, p) in frozen.tensors.iter().zip(model.params_mut()) {
        t.dequantize_into(p.value.data_mut());
    }
    model.set_training(false);
    model
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `forward_hidden_ws(rows)` and the eval-mode `forward_ws(rows)` are
    /// the same rows of their all-rows calls, bit for bit: Graphormer and
    /// GT, int8 and int16 parameters, one to three blocks, on packed
    /// micro-batches of 1–8 queries with context 1–32 over a graph whose
    /// last third is isolated nodes — so segments of one token and roots
    /// whose mask row is a self-loop only, where the row plan cuts earlier
    /// blocks too. Patterns: sparse over the packed mask and over the packed
    /// graph without self-loops (where every block computes only its planned
    /// query rows, and a query can sit outside its own mask row or have
    /// none), and flash (the last block cut, earlier blocks whole). Row
    /// lists: the segment centres, arbitrary rows out of order with repeats,
    /// one row, and all rows. One workspace serves every call, and the
    /// executor's row-subset argmax must agree with its all-rows argmax.
    #[test]
    fn row_subset_forward_is_the_all_rows_forward_at_those_rows(
        seed in 0u64..1 << 40,
        nodes in 6usize..60,
        queries in 1usize..9,
        ctx in 1usize..33,
        layers in 1usize..4,
    ) {
        use torchgt::graph::CsrGraph;
        use torchgt::serve::batch::pack_queries;
        use torchgt::serve::freeze::freeze_model;
        use torchgt::serve::{ego_subgraph, ModelSpec};
        let mut rng = SmallRng::seed_from_u64(seed);
        let (feat_dim, out_dim) = (6, 3);
        let linked = (2 * nodes / 3).max(2);
        let edges: Vec<(u32, u32)> = (0..2 * linked)
            .map(|_| (rng.gen_range(0..linked as u32), rng.gen_range(0..linked as u32)))
            .filter(|(u, v)| u != v)
            .collect();
        let graph = CsrGraph::from_edges(nodes, &edges);
        let features: Vec<f32> = (0..nodes * feat_dim).map(|_| rng.gen::<f32>() - 0.5).collect();
        let calib = CalibSet {
            features: Tensor::from_vec(nodes, feat_dim, features.clone()),
            mask: graph.with_self_loops(),
            graph: graph.clone(),
            labels: (0..nodes).map(|_| rng.gen_range(0..out_dim as u32)).collect(),
            eval: (0..nodes as u32).collect(),
        };
        let subs: Vec<_> = (0..queries)
            .map(|_| ego_subgraph(&graph, rng.gen_range(0..nodes as u32), rng.gen_range(1..ctx + 1)))
            .collect();
        let packed = pack_queries(&subs, &features, feat_dim);
        let batch = SequenceBatch { features: &packed.features, graph: &packed.graph, spd: None };
        let s = packed.features.rows();
        let all: Vec<usize> = (0..s).collect();
        let centres: Vec<usize> = packed.segments.iter().map(|&(start, _)| start).collect();
        let mut picked: Vec<usize> = (0..rng.gen_range(1..2 * s + 1)).map(|_| rng.gen_range(0..s)).collect();
        picked.push(picked[0]);
        let row_lists = [centres, picked, vec![rng.gen_range(0..s)], all.clone()];
        for kind in ["graphormer", "gt"] {
            let spec = ModelSpec {
                kind: kind.to_string(),
                feat_dim,
                hidden: 16,
                layers,
                heads: 2,
                ffn_mult: 2,
                out_dim,
                pe_dim: if kind == "gt" { 4 } else { 0 },
                max_degree: if kind == "gt" { 0 } else { 8 },
                max_spd: if kind == "gt" { 0 } else { 4 },
                seed,
            };
            let mut live = spec.build().expect("spec builds");
            for scheme in [QuantScheme::Int8, QuantScheme::Int16] {
                let opts = FreezeOptions { scheme, max_acc_drop: 1.0 };
                let frozen = freeze_model(live.as_mut(), &calib, opts, seed).expect("ungated freeze");
                let mut trunk = dequantized_model(&frozen);
                let mut exec = FrozenExecutor::new(&frozen).expect("executor builds");
                let mut ws = Workspace::new();
                for pattern in [Pattern::Sparse(&packed.mask), Pattern::Sparse(&packed.graph), Pattern::Flash] {
                    let full = trunk.forward_hidden_ws(&batch, pattern, &all, &mut ws).expect("separable head");
                    prop_assert_eq!(full.shape(), (s, 16));
                    let full_logits = trunk.forward_ws(&batch, pattern, &all, &mut ws);
                    prop_assert_eq!(full_logits.shape(), (s, out_dim));
                    let argmax_all = exec.forward_argmax(&batch, pattern);
                    for rows in &row_lists {
                        let at = |what: &str| format!("{kind} {scheme:?} {} {what}, rows {rows:?}", pattern.label());
                        let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
                        let got = trunk.forward_hidden_ws(&batch, pattern, rows, &mut ws).expect("separable head");
                        prop_assert_eq!(got.shape(), (rows.len(), 16), "{}", at("shape"));
                        for (i, &r) in rows.iter().enumerate() {
                            prop_assert_eq!(bits(got.row(i)), bits(full.row(r)), "{}", at(&format!("row {r}")));
                        }
                        ws.give(got);
                        let logits = trunk.forward_ws(&batch, pattern, rows, &mut ws);
                        prop_assert_eq!(logits.shape(), (rows.len(), out_dim), "{}", at("logit shape"));
                        for (i, &r) in rows.iter().enumerate() {
                            prop_assert_eq!(bits(logits.row(i)), bits(full_logits.row(r)), "{}", at(&format!("logit row {r}")));
                        }
                        ws.give(logits);
                        let want: Vec<u32> = rows.iter().map(|&r| argmax_all[r]).collect();
                        prop_assert_eq!(exec.forward_argmax_rows(&batch, pattern, rows), want, "{}", at("argmax"));
                    }
                    ws.give(full);
                    ws.give(full_logits);
                }
            }
        }
    }
}

/// Re-run the row-subset property under every kernel backend this CPU has
/// (the process-wide backend is chosen once, from `TORCHGT_BACKEND`).
#[test]
fn row_subset_forward_holds_under_every_backend() {
    use torchgt::tensor::backend;
    let exe = std::env::current_exe().expect("test binary path");
    for be in backend::supported() {
        let status = Command::new(&exe)
            .args(["--exact", "row_subset_forward_is_the_all_rows_forward_at_those_rows"])
            .args(["--test-threads", "1", "-q"])
            .env(backend::ENV_VAR, be.name())
            .status()
            .expect("spawn the property");
        assert!(status.success(), "row-subset property under {} failed: {status}", be.name());
    }
}

/// The serve loop under genuinely concurrent traffic: several sender
/// threads share one bounded queue (small enough to exercise send-side
/// blocking), and every query must be answered with a valid label.
#[test]
fn serve_loop_answers_every_concurrent_query() {
    let (dataset, _, frozen) = frozen_fixture(3);
    let out_dim = frozen.spec.out_dim as u32;
    let cfg = ServeConfig {
        max_batch: 4,
        latency_budget: Duration::from_millis(5),
        ctx_nodes: 16,
        ..Default::default()
    };
    // A window of no queries could never flush: refused at construction.
    let empty = ServeConfig { max_batch: 0, ..cfg };
    let refused = ServeLoop::new(&frozen, dataset.graph.clone(), dataset.features.clone(), empty, torchgt::obs::noop());
    assert_eq!(refused.err().map(|e| e.kind()), Some(std::io::ErrorKind::InvalidInput));
    let mut serve_loop = ServeLoop::new(
        &frozen,
        dataset.graph.clone(),
        dataset.features.clone(),
        cfg,
        torchgt::obs::noop(),
    )
    .expect("serve loop builds");

    const SENDERS: usize = 4;
    const PER_SENDER: usize = 16;
    let (tx, rx) = bounded::<Query>(8);
    let (reply_tx, reply_rx) = unbounded::<ServeReply>();
    let server = std::thread::spawn(move || serve_loop.run(rx));
    let num_nodes = dataset.graph.num_nodes();
    let senders: Vec<_> = (0..SENDERS)
        .map(|s| {
            let tx = tx.clone();
            let reply_tx = reply_tx.clone();
            let mut zipf = Zipf::new(num_nodes, 1.1, 40 + s as u64);
            std::thread::spawn(move || {
                for _ in 0..PER_SENDER {
                    let node = zipf.sample() as u32;
                    tx.send(Query::new(node, reply_tx.clone())).expect("queue alive");
                }
            })
        })
        .collect();
    drop(tx);
    drop(reply_tx);
    for s in senders {
        s.join().expect("sender thread");
    }
    let stats = server.join().expect("serve loop");

    let mut replies = Vec::new();
    while let Ok(r) = reply_rx.recv() {
        replies.push(r.prediction().expect("no admission control configured"));
    }
    assert_eq!(stats.served as usize, SENDERS * PER_SENDER, "queries dropped");
    assert_eq!(replies.len(), SENDERS * PER_SENDER, "replies dropped");
    for p in &replies {
        assert!(p.label < out_dim, "label {} out of range", p.label);
        assert!((p.node as usize) < num_nodes);
    }
    assert!(stats.batches >= 1 && stats.avg_batch_size <= 4.0 + 1e-9);
    assert!(stats.p99_latency_ms >= stats.p50_latency_ms);
}

/// A query against the packed micro-batch must answer with the same label
/// a single-query batch produces — block-diagonal packing cannot leak
/// attention across segments.
#[test]
fn packed_batch_matches_single_query_answers() {
    let (dataset, _, frozen) = frozen_fixture(9);
    let cfg = ServeConfig {
        max_batch: 8,
        latency_budget: Duration::from_millis(20),
        ctx_nodes: 16,
        ..Default::default()
    };
    let run_with_batch = |max_batch: usize, nodes: &[u32]| -> Vec<(u32, u32)> {
        let mut serve_loop = ServeLoop::new(
            &frozen,
            dataset.graph.clone(),
            dataset.features.clone(),
            ServeConfig { max_batch, ..cfg },
            torchgt::obs::noop(),
        )
        .expect("serve loop builds");
        let (tx, rx) = bounded::<Query>(nodes.len());
        let (reply_tx, reply_rx) = unbounded::<ServeReply>();
        for &n in nodes {
            tx.send(Query::new(n, reply_tx.clone())).expect("send");
        }
        drop(tx);
        drop(reply_tx);
        let server = std::thread::spawn(move || serve_loop.run(rx));
        server.join().expect("serve loop");
        let mut out = Vec::new();
        while let Ok(r) = reply_rx.recv() {
            let p = r.prediction().expect("no admission control configured");
            out.push((p.node, p.label));
        }
        out.sort_unstable();
        out
    };
    let nodes: Vec<u32> = (0..8).map(|i| i * 7 % dataset.graph.num_nodes() as u32).collect();
    let packed = run_with_batch(8, &nodes);
    let singles = run_with_batch(1, &nodes);
    assert_eq!(packed, singles, "packing changed answers");
}

/// A serve loop answers a node from its answer table as it answered it
/// through the executor: every node of a small graph queried twice, in
/// windows of 8, and both answers equal a direct executor prediction on the
/// node's own `pack_queries(&[ego_subgraph(..)])` batch. The first pass
/// executes every node once, in the windows that hold a first-pass node;
/// the second reads every answer from the table.
#[test]
fn a_warm_serve_loop_answers_every_node_as_a_fresh_extraction_does() {
    use torchgt::serve::batch::pack_queries;
    use torchgt::serve::{ego_subgraph, FrozenExecutor};
    let (dataset, _, frozen) = frozen_fixture(5);
    let cfg = ServeConfig { max_batch: 8, latency_budget: Duration::from_millis(20), ctx_nodes: 16, ..Default::default() };
    let mut serve_loop =
        ServeLoop::new(&frozen, dataset.graph.clone(), dataset.features.clone(), cfg, torchgt::obs::noop())
            .expect("serve loop builds");
    let n = dataset.graph.num_nodes() as u32;
    let (tx, rx) = bounded::<Query>(2 * n as usize);
    let (reply_tx, reply_rx) = unbounded::<ServeReply>();
    for node in (0..n).chain(0..n) {
        tx.send(Query::new(node, reply_tx.clone())).expect("send");
    }
    drop(tx);
    drop(reply_tx);
    let stats = std::thread::spawn(move || serve_loop.run(rx)).join().expect("serve loop");
    assert_eq!((stats.served, stats.answer_misses, stats.answer_hits), (2 * n as u64, n as u64, n as u64));
    assert_eq!((stats.batches, stats.forwards), ((2 * n).div_ceil(8) as u64, n.div_ceil(8) as u64));
    let mut exec = FrozenExecutor::new(&frozen).expect("executor builds");
    let direct: Vec<u32> = (0..n)
        .map(|node| {
            let sub = ego_subgraph(&dataset.graph, node, cfg.ctx_nodes);
            let packed = pack_queries(&[sub], &dataset.features, dataset.feat_dim);
            let batch = SequenceBatch { features: &packed.features, graph: &packed.graph, spd: None };
            exec.forward_argmax(&batch, Pattern::Sparse(&packed.mask))[packed.segments[0].0]
        })
        .collect();
    let mut answers = 0;
    while let Ok(r) = reply_rx.recv() {
        let p = r.prediction().expect("no admission control configured");
        assert_eq!(p.label, direct[p.node as usize], "node {} answered {} (direct {})", p.node, p.label, direct[p.node as usize]);
        answers += 1;
    }
    assert_eq!(answers, 2 * n);
}

/// The extraction the serve loop replaced, verbatim: BFS through a
/// multiplicatively hashed `HashMap` of local ids, nodes in discovery order.
/// The oracle for which nodes a query selects.
mod hashmap_oracle {
    use std::collections::hash_map::{Entry, HashMap};
    use std::hash::{BuildHasherDefault, Hasher};
    use torchgt::graph::CsrGraph;

    #[derive(Default)]
    struct NodeIdHasher(u64);

    impl Hasher for NodeIdHasher {
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
        }

        fn write_u32(&mut self, id: u32) {
            self.0 = u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }

        fn finish(&self) -> u64 {
            self.0
        }
    }

    pub fn ego_nodes(graph: &CsrGraph, root: u32, max_nodes: usize) -> Vec<u32> {
        let cap = max_nodes.max(1);
        let mut nodes = Vec::with_capacity(cap);
        let mut local: HashMap<u32, u32, BuildHasherDefault<NodeIdHasher>> =
            HashMap::with_capacity_and_hasher(cap, Default::default());
        nodes.push(root);
        local.insert(root, 0u32);
        let mut head = 0usize;
        while head < nodes.len() && nodes.len() < cap {
            let v = nodes[head];
            head += 1;
            for &u in graph.neighbors(v as usize) {
                if nodes.len() >= cap {
                    break;
                }
                if let Entry::Vacant(e) = local.entry(u) {
                    e.insert(nodes.len() as u32);
                    nodes.push(u);
                }
            }
        }
        nodes
    }
}

/// A random graph of `nodes` nodes whose last third is isolated, possibly
/// with self-loops (which `from_edges` keeps once).
fn sparse_graph(rng: &mut SmallRng, nodes: usize) -> torchgt::graph::CsrGraph {
    let linked = (2 * nodes / 3).max(2) as u32;
    let edges: Vec<(u32, u32)> =
        (0..2 * linked).map(|_| (rng.gen_range(0..linked), rng.gen_range(0..linked))).collect();
    torchgt::graph::CsrGraph::from_edges(nodes, &edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An ego subgraph selects the node set the replaced `HashMap` routine
    /// selected, lays it out root first then ascending, and is exactly the
    /// induced subgraph of its nodes — rows ascending, so every graph arc of
    /// a segment is spatial bucket 1 — over random graphs with isolated
    /// roots and self-loops, at cap 1, mid-size caps and caps past the
    /// component.
    #[test]
    fn ego_subgraph_selects_the_oracle_set_as_the_induced_subgraph(
        seed in 0u64..1 << 40,
        nodes in 2usize..80,
        cap in 0usize..100,
    ) {
        use torchgt::serve::ego_subgraph;
        let mut rng = SmallRng::seed_from_u64(seed);
        let graph = sparse_graph(&mut rng, nodes);
        for root in [rng.gen_range(0..nodes as u32), nodes as u32 - 1] {
            let e = ego_subgraph(&graph, root, cap);
            let mut want = hashmap_oracle::ego_nodes(&graph, root, cap);
            let mut got = e.nodes.clone();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want, "node set: root {}, cap {}", root, cap);
            prop_assert_eq!(&e.graph, &graph.induced_subgraph(&e.nodes), "induced subgraph: root {}, cap {}", root, cap);
            prop_assert_eq!(e.nodes[0], root);
            prop_assert!(e.nodes[1..].windows(2).all(|w| w[0] < w[1]), "{:?}", e.nodes);
        }
    }
}

/// A frozen model to build serve loops around, and its feature width.
/// Packing never runs the model, so one fixture serves every generated
/// graph given features of that width.
fn shared_frozen() -> &'static (FrozenModel, usize) {
    static FIXTURE: std::sync::OnceLock<(FrozenModel, usize)> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (dataset, _, frozen) = frozen_fixture(13);
        (frozen, dataset.feat_dim)
    })
}

/// A serve loop over `graph` at context `ctx_nodes`, with seeded features,
/// and those features.
fn packing_loop(graph: &torchgt::graph::CsrGraph, ctx_nodes: usize, seed: u64) -> (ServeLoop, Vec<f32>) {
    let (frozen, feat_dim) = shared_frozen();
    let mut rng = SmallRng::seed_from_u64(seed);
    let features: Vec<f32> = (0..graph.num_nodes() * feat_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let cfg = ServeConfig { max_batch: 1, latency_budget: Duration::from_millis(1), ctx_nodes, ..Default::default() };
    let serve_loop = ServeLoop::new(frozen, graph.clone(), features.clone(), cfg, torchgt::obs::noop())
        .expect("serve loop builds");
    (serve_loop, features)
}

/// The batch of `roots` from extractions alone: a fresh `ego_subgraph` per
/// root through `pack_queries`, with [`shared_frozen`]'s feature width.
fn extracted(graph: &torchgt::graph::CsrGraph, roots: &[u32], cap: usize, features: &[f32]) -> PackedQueryBatch {
    extracted_with(graph, roots, cap, features, shared_frozen().1)
}

/// [`extracted`] at feature width `feat_dim`.
fn extracted_with(
    graph: &torchgt::graph::CsrGraph,
    roots: &[u32],
    cap: usize,
    features: &[f32],
    feat_dim: usize,
) -> PackedQueryBatch {
    use torchgt::serve::batch::pack_queries;
    let subs: Vec<_> = roots.iter().map(|&r| torchgt::serve::ego_subgraph(graph, r, cap)).collect();
    pack_queries(&subs, features, feat_dim)
}

/// Whether two packed batches are equal byte for byte: graph, mask,
/// segments and the bits of every feature.
fn same_batch(a: &PackedQueryBatch, b: &PackedQueryBatch) -> bool {
    let bits = |t: &torchgt::tensor::Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    (&a.graph, &a.mask, &a.segments) == (&b.graph, &b.mask, &b.segments)
        && a.features.shape() == b.features.shape()
        && bits(&a.features) == bits(&b.features)
}

/// Answer `nodes` in order through `serve_loop.run`, and return its stats
/// and every reply as `(node, label)`.
fn serve_all(serve_loop: &mut ServeLoop, nodes: &[u32]) -> (torchgt::serve::ServeStats, Vec<(u32, u32)>) {
    let (tx, rx) = bounded::<Query>(nodes.len().max(1));
    let (reply_tx, replies) = unbounded::<ServeReply>();
    for &n in nodes {
        tx.send(Query::new(n, reply_tx.clone())).expect("send");
    }
    drop((tx, reply_tx));
    let stats = serve_loop.run(rx);
    let mut answers = Vec::new();
    while let Ok(r) = replies.recv() {
        let p = r.prediction().expect("no admission control configured");
        answers.push((p.node, p.label));
    }
    (stats, answers)
}

/// The label `FrozenExecutor::forward_argmax` gives `node` served alone:
/// its own `pack_queries(&[ego_subgraph(..)])` batch, read at its root.
fn answer_alone(
    exec: &mut torchgt::serve::FrozenExecutor,
    graph: &torchgt::graph::CsrGraph,
    node: u32,
    cap: usize,
    features: &[f32],
) -> u32 {
    let packed = extracted(graph, &[node], cap, features);
    let batch = SequenceBatch { features: &packed.features, graph: &packed.graph, spd: None };
    exec.forward_argmax(&batch, Pattern::Sparse(&packed.mask))[packed.segments[0].0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A warm serve loop's packer — reused from batch to batch — packs every
    /// batch of a stream with repeats byte for byte as a fresh loop's packer
    /// does and as packing fresh extractions does, over random graphs with
    /// isolated nodes and self-loops, context caps from 0 past the component
    /// size, and a batch that names one node twice.
    #[test]
    fn a_warm_packer_packs_what_a_fresh_one_does(
        seed in 0u64..1 << 40,
        nodes in 2usize..60,
        cap in 0usize..40,
        batches in 1usize..10,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let graph = sparse_graph(&mut rng, nodes);
        let (mut warm, features) = packing_loop(&graph, cap, seed);
        // A small hot set, so the stream repeats within and across batches.
        let hot: Vec<u32> = (0..4).map(|_| rng.gen_range(0..nodes as u32)).collect();
        for b in 0..batches {
            let mut roots: Vec<u32> = (0..rng.gen_range(1..9usize))
                .map(|_| if rng.gen::<f32>() < 0.3 { rng.gen_range(0..nodes as u32) } else { hot[rng.gen_range(0..4usize)] })
                .collect();
            if b == 0 {
                roots.push(roots[0]);
            }
            let batch = warm.pack(roots.iter().copied());
            let fresh = packing_loop(&graph, cap, seed).0.pack(roots.iter().copied());
            prop_assert!(same_batch(&batch, &fresh), "batch {} {:?}: warm and fresh packers differ", b, roots);
            prop_assert!(same_batch(&batch, &extracted(&graph, &roots, cap, &features)), "batch {} {:?}: not the extractions", b, roots);
        }
    }

    /// Every answer of one long-lived serve loop equals
    /// `FrozenExecutor::forward_argmax` on the node's own
    /// `pack_queries(&[ego_subgraph(..)])` batch, whether the loop executed
    /// it or read it from its answer table: random graphs with isolated
    /// nodes and self-loops, context caps from 0 past the component size,
    /// windows of 1–8, and a stream with a hot set whose first window names
    /// one node twice. A window executes when it holds a node no earlier
    /// window did, and only then records a `serve/forward` span; a second
    /// run of the same stream reads every answer from the table and runs
    /// the executor in no window.
    #[test]
    fn a_long_lived_loop_answers_every_node_as_the_node_alone(
        seed in 0u64..1 << 40,
        nodes in 2usize..60,
        cap in 0usize..40,
        max_batch in 1usize..9,
        queries in 1usize..32,
    ) {
        use torchgt::serve::FrozenExecutor;
        let mut rng = SmallRng::seed_from_u64(seed);
        let graph = sparse_graph(&mut rng, nodes);
        let (frozen, feat_dim) = shared_frozen();
        let features: Vec<f32> = (0..nodes * feat_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mem = std::sync::Arc::new(MemoryRecorder::default());
        // All queries are enqueued before the run, so every window but the
        // last fills to `max_batch`.
        let cfg =
            ServeConfig { max_batch, latency_budget: Duration::from_secs(5), ctx_nodes: cap, ..Default::default() };
        let mut serve_loop = ServeLoop::new(frozen, graph.clone(), features.clone(), cfg, mem.clone())
            .expect("serve loop builds");
        let hot: Vec<u32> = (0..4).map(|_| rng.gen_range(0..nodes as u32)).collect();
        let mut stream: Vec<u32> = (0..queries)
            .map(|_| if rng.gen::<f32>() < 0.3 { rng.gen_range(0..nodes as u32) } else { hot[rng.gen_range(0..4usize)] })
            .collect();
        stream.insert(1, stream[0]);
        let (mut answered, mut misses, mut forwards) = (vec![false; nodes], 0, 0);
        for window in stream.chunks(max_batch) {
            let cold = window.iter().filter(|&&v| !answered[v as usize]).count();
            misses += cold;
            forwards += usize::from(cold > 0);
            window.iter().for_each(|&v| answered[v as usize] = true);
        }
        let forward_spans = || mem.report().span("serve/forward").map_or(0, |s| s.count);

        let (stats, replies) = serve_all(&mut serve_loop, &stream);
        let served = stream.len() as u64;
        prop_assert_eq!(
            (stats.served, stats.answer_hits, stats.answer_misses, stats.forwards),
            (served, served - misses as u64, misses as u64, forwards as u64)
        );
        prop_assert_eq!(forward_spans(), stats.forwards);
        let mut exec = FrozenExecutor::new(frozen).expect("executor builds");
        let mut alone = vec![None; nodes];
        prop_assert_eq!(replies.len(), stream.len());
        for (node, label) in replies {
            let want =
                *alone[node as usize].get_or_insert_with(|| answer_alone(&mut exec, &graph, node, cap, &features));
            prop_assert_eq!(label, want, "node {} (cap {}, max_batch {})", node, cap, max_batch);
        }

        let (again, replies_again) = serve_all(&mut serve_loop, &stream);
        prop_assert_eq!((again.served, again.answer_hits, again.forwards), (served, served, 0));
        prop_assert_eq!(forward_spans(), stats.forwards);
        for (node, label) in replies_again {
            prop_assert_eq!(Some(label), alone[node as usize]);
        }
    }
}

/// GT is not yet exact under packing: its Laplacian PE spans the whole
/// pack (ROADMAP 13(b)), so a GT node's answer can depend on the other
/// members of its window. The answer table keeps the answer of the node's
/// first window: a GT artifact serves every node of a generated graph in
/// three passes whose orders give each node new companions, and every reply
/// names the label the node's first window computed. Once the PE is per
/// member, this extends to equality with the node served alone.
#[test]
fn a_gt_node_keeps_the_answer_of_its_first_window() {
    use torchgt::serve::freeze::freeze_model;
    use torchgt::serve::{FrozenExecutor, ModelSpec};
    const NODES: u32 = 48;
    let (feat_dim, out_dim, cap, max_batch) = (6, 3, 8, 4);
    let mut rng = SmallRng::seed_from_u64(0x67);
    let graph = sparse_graph(&mut rng, NODES as usize);
    let features: Vec<f32> = (0..NODES as usize * feat_dim).map(|_| rng.gen::<f32>() - 0.5).collect();
    let calib = CalibSet {
        features: Tensor::from_vec(NODES as usize, feat_dim, features.clone()),
        mask: graph.with_self_loops(),
        graph: graph.clone(),
        labels: (0..NODES).map(|_| rng.gen_range(0..out_dim as u32)).collect(),
        eval: (0..NODES).collect(),
    };
    let spec = ModelSpec {
        kind: "gt".to_string(),
        feat_dim,
        hidden: 16,
        layers: 2,
        heads: 2,
        ffn_mult: 2,
        out_dim,
        pe_dim: 4,
        max_degree: 0,
        max_spd: 0,
        seed: 5,
    };
    let opts = FreezeOptions { scheme: QuantScheme::Int8, max_acc_drop: 1.0 };
    let frozen = freeze_model(spec.build().expect("spec builds").as_mut(), &calib, opts, 5).expect("ungated freeze");
    // Steps coprime with 48: every pass names every node once, and windows
    // of 4 never straddle two passes.
    let stream: Vec<u32> = [1, 5, 7].iter().flat_map(|&step| (0..NODES).map(move |i| i * step % NODES)).collect();
    let mut exec = FrozenExecutor::new(&frozen).expect("executor builds");
    let mut first = vec![0; NODES as usize];
    for window in stream[..NODES as usize].chunks(max_batch) {
        let packed = extracted_with(&graph, window, cap, &features, feat_dim);
        let batch = SequenceBatch { features: &packed.features, graph: &packed.graph, spd: None };
        let centres: Vec<usize> = packed.segments.iter().map(|&(start, _)| start).collect();
        let labels = exec.forward_argmax_rows(&batch, Pattern::Sparse(&packed.mask), &centres);
        window.iter().zip(labels).for_each(|(&v, label)| first[v as usize] = label);
    }
    let cfg = ServeConfig { max_batch, latency_budget: Duration::from_secs(5), ctx_nodes: cap, ..Default::default() };
    let mut serve_loop =
        ServeLoop::new(&frozen, graph.clone(), features.clone(), cfg, torchgt::obs::noop()).expect("serve loop builds");
    let (stats, replies) = serve_all(&mut serve_loop, &stream);
    assert_eq!(replies.len(), stream.len());
    for (node, label) in replies {
        assert_eq!(label, first[node as usize], "node {node} changed its answer");
    }
    assert_eq!((stats.answer_misses, stats.answer_hits, stats.forwards), (48, 96, 12));
}

/// Every arc of a packed batch's graph is an edge of the served graph, so
/// Graphormer's spatial encoding must give it bucket 1 (0 on a self-loop),
/// as the sorted sequences of training and the freeze gate do: 500 batches
/// of 8 Zipf(1.1) queries at context 32, the `serve_zipf` shape.
#[test]
fn every_arc_of_a_packed_batch_is_spatial_bucket_one() {
    use torchgt::model::encodings::edge_spd;
    use torchgt::serve::batch::pack_queries;
    use torchgt::serve::ego_subgraph;
    let dataset = DatasetKind::OgbnArxiv.generate_node(0.01, 7);
    let mut zipf = Zipf::new(dataset.graph.num_nodes(), 1.1, 31);
    let mut arcs = 0usize;
    for batch in 0..500 {
        let subs: Vec<_> = (0..8).map(|_| ego_subgraph(&dataset.graph, zipf.sample() as u32, 32)).collect();
        let packed = pack_queries(&subs, &dataset.features, dataset.feat_dim);
        let spd = edge_spd(&packed.graph);
        for i in 0..packed.graph.num_nodes() {
            for &j in packed.graph.neighbors(i) {
                let want = if i == j as usize { 0 } else { 1 };
                assert_eq!(spd(i, j as usize), want, "batch {batch}: arc {i} -> {j}");
                arcs += 1;
            }
        }
    }
    assert!(arcs > 10_000, "only {arcs} arcs checked");
}

/// `pack_queries` writes what packing the member graphs, adding self-loops
/// to the union and gathering the members' feature rows produce.
#[test]
fn pack_queries_is_pack_graphs_with_self_loops_and_gathered_features() {
    use torchgt::graph::pack_graphs;
    use torchgt::serve::batch::pack_queries;
    use torchgt::serve::ego_subgraph;
    let mut rng = SmallRng::seed_from_u64(0x9AC4);
    let feat_dim = 3;
    for _ in 0..50 {
        let nodes = rng.gen_range(2..60usize);
        let graph = sparse_graph(&mut rng, nodes);
        let features: Vec<f32> = (0..nodes * feat_dim).map(|i| i as f32).collect();
        let subs: Vec<_> = (0..rng.gen_range(1..9))
            .map(|_| ego_subgraph(&graph, rng.gen_range(0..nodes as u32), rng.gen_range(1..40)))
            .collect();
        let got = pack_queries(&subs, &features, feat_dim);
        let want = pack_graphs(&subs.iter().map(|s| &s.graph).collect::<Vec<_>>());
        let rows: Vec<f32> = subs
            .iter()
            .flat_map(|s| &s.nodes)
            .flat_map(|&v| features[v as usize * feat_dim..(v as usize + 1) * feat_dim].to_vec())
            .collect();
        assert_eq!(got.graph, want.graph);
        assert_eq!(got.mask, want.graph.with_self_loops());
        assert_eq!(got.segments, want.segments);
        assert_eq!(got.features.shape(), (want.graph.num_nodes(), feat_dim));
        assert_eq!(got.features.data(), &rows[..]);
    }
}

// ---------------------------------------------------------------------------
// CLI compatibility: the subcommand redesign must keep old invocations
// working and reject everything unknown with exit 2.
// ---------------------------------------------------------------------------

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_torchgt_cli"))
}

/// The bare legacy invocation (flags, no subcommand) still trains.
#[test]
fn cli_legacy_bare_invocation_aliases_to_train() {
    let out = cli()
        .args([
            "--dataset", "arxiv", "--epochs", "1", "--scale", "0.002", "--seq-len", "64",
            "--hidden", "16", "--layers", "1", "--heads", "2",
        ])
        .output()
        .expect("CLI binary runs");
    assert!(out.status.success(), "legacy invocation failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("kernel backend:"), "stdout: {stdout}");
    assert!(stdout.contains("epoch"), "stdout: {stdout}");
}

#[test]
fn cli_rejects_unknown_subcommand_with_usage() {
    let out = cli().args(["deploy"]).output().expect("CLI binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown subcommand `deploy`"), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
    assert!(stderr.contains("serve"), "usage must list the subcommands: {stderr}");
}

#[test]
fn cli_rejects_unknown_flag_per_subcommand() {
    for sub in ["train", "freeze", "serve"] {
        let out = cli().args([sub, "--bogus", "1"]).output().expect("CLI binary runs");
        assert_eq!(out.status.code(), Some(2), "{sub} accepted --bogus");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag `--bogus`"), "{sub} stderr: {stderr}");
        assert!(stderr.contains("usage:"), "{sub} stderr: {stderr}");
    }
}

#[test]
fn cli_value_flag_without_value_is_usage_error() {
    let out = cli().args(["train", "--epochs"]).output().expect("CLI binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("needs a value"), "stderr: {stderr}");
}

/// A malformed number is a usage error naming the flag and the rejected
/// value — never a silent fallback to the flag's default — and the removed
/// `--overlap` switch is an unknown flag like any other.
#[test]
fn cli_rejects_malformed_numbers_and_the_removed_overlap_flag() {
    for (args, flag, value) in [
        (&["train", "--epochs", "abc"][..], "--epochs", "abc"),
        (&["train", "--rebalance", "--slow-delay-ms", "2ms"][..], "--slow-delay-ms", "2ms"),
        (&["serve", "--qps", "fast"][..], "--qps", "fast"),
    ] {
        let out = cli().args(args).output().expect("CLI binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag) && stderr.contains(value), "{args:?} stderr: {stderr}");
    }
    let out = cli().args(["train", "--overlap", "on"]).output().expect("CLI binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--overlap`"), "stderr: {stderr}");
}

/// Full deployment path through the real binary: `freeze` writes a TGTF
/// artifact, `serve` loads it, regenerates the dataset from the embedded
/// provenance, answers Zipf traffic, and exports the serving gauges.
#[test]
fn cli_freeze_then_serve_smoke() {
    let dir = std::env::temp_dir().join(format!("cli_serve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let artifact = dir.join("model.tgtf");
    let metrics = dir.join("serve_metrics.json");

    let out = cli()
        .args([
            "freeze", "--dataset", "arxiv", "--epochs", "1", "--scale", "0.002", "--seq-len",
            "64", "--hidden", "16", "--layers", "1", "--heads", "2", "--seed", "7", "--out",
        ])
        .arg(&artifact)
        .output()
        .expect("CLI binary runs");
    assert!(
        out.status.success(),
        "freeze failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(artifact.exists(), "artifact not written");

    let out = cli()
        .args(["serve", "--queries", "24", "--qps", "400", "--budget-ms", "20", "--model"])
        .arg(&artifact)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("CLI binary runs");
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("served 24 queries"), "stdout: {stdout}");

    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    let report = MetricsReport::from_json_str(&text).expect("metrics parse");
    for gauge in ["p50_latency_ms", "p99_latency_ms", "queue_depth", "throughput_qps"] {
        assert!(
            report.gauges.iter().any(|g| g.name == gauge),
            "missing serving gauge {gauge}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Dataset provenance embedded at freeze time drives `serve` — and an
/// artifact for a *different* seed produces a different graph, which the
/// explicit override flags can reproduce.
#[test]
fn frozen_artifact_carries_dataset_provenance() {
    let (_, _, frozen) = frozen_fixture(13);
    let stamped = torchgt::serve::freeze::with_dataset(
        frozen,
        DatasetRef { kind: "arxiv".to_string(), scale: 0.002, seed: 13 },
    );
    let dir = std::env::temp_dir().join(format!("tgtf_prov_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("model.tgtf");
    stamped.save(&path).expect("save");
    let loaded = FrozenModel::load(&path).expect("load");
    let prov = loaded.dataset.expect("provenance survives the round trip");
    assert_eq!(prov.kind, "arxiv");
    assert_eq!(prov.seed, 13);
    assert!((prov.scale - 0.002).abs() < 1e-12);
    let _ = std::fs::remove_dir_all(&dir);
}
