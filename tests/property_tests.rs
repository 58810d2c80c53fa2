//! Property-based tests (proptest) over the core data structures and
//! invariants of the reproduction.

use torchgt_compat::proptest::prelude::*;
use torchgt::graph::generators::{clustered_power_law, erdos_renyi, ClusteredConfig};
use torchgt::graph::partition::{cluster_order, edge_cut, partition};
use torchgt::graph::CsrGraph;
use torchgt::model::attention;
use torchgt::sparse::{access_profile, reform, topology_mask, ReformConfig};
use torchgt::tensor::bf16::bf16_round;
use torchgt::tensor::{init, ops, Tensor, Workspace};

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (4usize..60, 0usize..150, 0u64..1000)
        .prop_map(|(n, m, seed)| erdos_renyi(n, m, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CSR construction is symmetric and degree-consistent for any edge set.
    #[test]
    fn csr_symmetry(g in arb_graph()) {
        for v in 0..g.num_nodes() {
            for &nb in g.neighbors(v) {
                prop_assert!(g.has_edge(nb as usize, v), "asymmetry at ({v},{nb})");
            }
        }
        let total: usize = (0..g.num_nodes()).map(|v| g.degree(v)).sum();
        prop_assert_eq!(total, g.num_arcs());
    }

    /// Self-loop augmentation is idempotent and preserves existing edges.
    #[test]
    fn self_loop_idempotent(g in arb_graph()) {
        let a = g.with_self_loops();
        let b = a.with_self_loops();
        prop_assert_eq!(&a, &b);
        for v in 0..g.num_nodes() {
            prop_assert!(a.has_edge(v, v));
            for &nb in g.neighbors(v) {
                prop_assert!(a.has_edge(v, nb as usize));
            }
        }
    }

    /// Permuting a graph preserves edge count, degree multiset and
    /// round-trips through the inverse permutation.
    #[test]
    fn permutation_preserves_structure(g in arb_graph(), seed in 0u64..500) {
        let n = g.num_nodes();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        // Fisher–Yates with a simple LCG for determinism inside proptest.
        let mut state = seed.wrapping_add(1);
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let p = g.permute(&perm);
        prop_assert_eq!(p.num_arcs(), g.num_arcs());
        let mut d1: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
        let mut d2: Vec<usize> = (0..n).map(|v| p.degree(v)).collect();
        d1.sort_unstable();
        d2.sort_unstable();
        prop_assert_eq!(d1, d2);
        // Inverse round-trip.
        let mut inverse = vec![0u32; n];
        for (new, &old) in perm.iter().enumerate() {
            inverse[old as usize] = new as u32;
        }
        let back = p.permute(&inverse);
        prop_assert_eq!(&back, &g);
    }

    /// Partition output is a valid k-assignment and the cluster ordering is
    /// a true permutation.
    #[test]
    fn partition_and_order_are_valid(
        n in 16usize..120,
        k in 2usize..6,
        seed in 0u64..100
    ) {
        let (g, _) = clustered_power_law(
            ClusteredConfig { n, communities: k, avg_degree: 6.0, intra_fraction: 0.8 },
            seed,
        );
        let assign = partition(&g, k, seed);
        prop_assert_eq!(assign.len(), n);
        prop_assert!(assign.iter().all(|&c| (c as usize) < k));
        let order = cluster_order(&assign, k);
        let mut seen = vec![false; n];
        for &old in &order.perm {
            prop_assert!(!seen[old as usize]);
            seen[old as usize] = true;
        }
        prop_assert!(order.cluster_of_new.windows(2).all(|w| w[0] <= w[1]));
        // Edge cut is at most all edges.
        prop_assert!(edge_cut(&g, &assign) <= g.num_edges());
    }

    /// Reformation always preserves self-loops (C1) and never invents
    /// cluster-pairs that had no edges.
    #[test]
    fn reform_invariants(
        n in 32usize..150,
        seed in 0u64..100,
        beta_scale in 0.0f64..12.0
    ) {
        let (g, _) = clustered_power_law(
            ClusteredConfig { n, communities: 4, avg_degree: 6.0, intra_fraction: 0.8 },
            seed,
        );
        let assign = partition(&g, 4, seed);
        let order = cluster_order(&assign, 4);
        let pg = g.permute(&order.perm);
        let r = reform(&pg, &order, ReformConfig { db: 4, beta_thre: pg.sparsity() * beta_scale });
        for v in 0..n {
            prop_assert!(r.mask.has_edge(v, v));
        }
        prop_assert!(r.stats.edge_recall >= 0.0 && r.stats.edge_recall <= 1.0);
        prop_assert!(r.stats.clusters_transferred <= r.stats.clusters_total);
    }

    /// With a zero density threshold no cluster-pair is transferred, so the
    /// reformed mask stores exactly the input's nonzeros for any d_b.
    #[test]
    fn reform_without_transfer_is_lossless(
        n in 4usize..40,
        m in 0usize..80,
        seed in 0u64..100,
        db in 1usize..9
    ) {
        let g = erdos_renyi(n, m, seed).with_self_loops();
        let assign = partition(&g, 3, seed);
        let order = cluster_order(&assign, 3);
        let pg = g.permute(&order.perm);
        let r = reform(&pg, &order, ReformConfig { db, beta_thre: 0.0 });
        prop_assert_eq!(r.db, db);
        prop_assert_eq!(r.stats.clusters_transferred, 0);
        prop_assert_eq!(r.mask.num_arcs(), pg.num_arcs());
        for v in 0..n {
            for &u in pg.neighbors(v) {
                prop_assert!(r.mask.has_edge(v, u as usize));
            }
        }
        prop_assert_eq!(r.stats.edge_recall, 1.0);
    }

    /// Access profiling: nnz equals the mask's arcs and the mean run length
    /// is within [1, nnz].
    #[test]
    fn access_profile_consistency(g in arb_graph()) {
        let mask = topology_mask(&g, true);
        let p = access_profile(&mask);
        prop_assert_eq!(p.nnz, mask.num_arcs());
        if p.nnz > 0 {
            prop_assert!(p.avg_run_len >= 1.0);
            prop_assert!(p.avg_run_len <= p.nnz as f64);
            prop_assert!(p.isolated <= p.runs);
        }
    }

    /// bf16 rounding is idempotent and monotone.
    #[test]
    fn bf16_round_properties(x in -1e30f32..1e30) {
        let r = bf16_round(x);
        prop_assert_eq!(bf16_round(r), r, "idempotence");
        // Relative error bounded by 2^-8.
        if x != 0.0 {
            prop_assert!(((r - x) / x).abs() <= 1.0 / 256.0 + 1e-7);
        }
    }

    /// Softmax rows always sum to 1 and attention outputs stay inside the
    /// convex hull bound of V.
    #[test]
    fn attention_convexity(s in 2usize..12, seed in 0u64..100) {
        let d = 8;
        let q = init::normal(s, d, 0.0, 1.0, seed);
        let k = init::normal(s, d, 0.0, 1.0, seed + 1);
        let v = init::normal(s, d, 0.0, 1.0, seed + 2);
        let out = attention::dense_ws(&q, &k, &v, 2, None, &mut Workspace::new()).out;
        let vmax = v.data().iter().fold(0.0f32, |a, &b| a.max(b.abs()));
        prop_assert!(out.data().iter().all(|&o| o.abs() <= vmax + 1e-4));
    }

    /// Flash attention equals dense attention on arbitrary inputs.
    #[test]
    fn flash_equals_dense(s in 2usize..40, seed in 0u64..50) {
        let d = 8;
        let q = init::normal(s, d, 0.0, 1.5, seed);
        let k = init::normal(s, d, 0.0, 1.5, seed + 7);
        let v = init::normal(s, d, 0.0, 1.5, seed + 13);
        let mut ws = Workspace::new();
        let a = attention::dense_ws(&q, &k, &v, 2, None, &mut ws).out;
        let b = attention::flash_ws(&q, &k, &v, 2, &mut ws).out;
        let max = a.data().iter().zip(b.data()).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max);
        prop_assert!(max < 1e-4, "max diff {max}");
    }

    /// Cluster-sparse attention over any mask equals dense attention whose
    /// bias is `−∞` off the mask — the paper's equivalence — in the forward
    /// output and in `dq`, `dk`, `dv` and the bias gradient on the mask.
    #[test]
    fn sparse_equals_dense_with_masked_bias(
        g in arb_graph(),
        heads in 1usize..5,
        d_head in 2usize..10,
        seed in 0u64..1000,
    ) {
        use attention::BiasGrad;
        let mask = g.with_self_loops();
        let (s, d) = (mask.num_nodes(), heads * d_head);
        let q = init::normal(s, d, 0.0, 1.0, seed + 1);
        let k = init::normal(s, d, 0.0, 1.0, seed + 2);
        let v = init::normal(s, d, 0.0, 1.0, seed + 3);
        let dout = init::normal(s, d, 0.0, 1.0, seed + 4);
        let edge_bias: Vec<Vec<f32>> = (0..heads)
            .map(|h| init::normal(1, mask.num_arcs(), 0.0, 1.0, seed + 10 + h as u64).into_vec())
            .collect();
        let dense_bias: Vec<Tensor> = edge_bias
            .iter()
            .map(|per_edge| {
                let mut t = Tensor::full(s, s, f32::NEG_INFINITY);
                let mut edges = per_edge.iter();
                for i in 0..s {
                    for &j in mask.neighbors(i) {
                        t.set(i, j as usize, *edges.next().unwrap());
                    }
                }
                t
            })
            .collect();
        let mut ws = Workspace::new();
        let sp = attention::sparse_ws(&q, &k, &v, heads, &mask, Some(&edge_bias), &mut ws);
        let de = attention::dense_ws(&q, &k, &v, heads, Some(&dense_bias), &mut ws);
        let sg = attention::sparse_backward_ws(&q, &k, &v, heads, &mask, sp.cache, &dout, true, &mut ws);
        let dg = attention::dense_backward_ws(&q, &k, &v, heads, de.cache, &dout, true, &mut ws);
        // NaN-propagating maximum: a poisoned entry fails the comparison.
        let max_diff = |a: &[f32], b: &[f32]| {
            a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0f32, |m, x| if m.is_nan() || x.is_nan() { f32::NAN } else { m.max(x) })
        };
        for (name, a, b) in [("out", &sp.out, &de.out), ("dq", &sg.dq, &dg.dq), ("dk", &sg.dk, &dg.dk), ("dv", &sg.dv, &dg.dv)] {
            let diff = max_diff(a.data(), b.data());
            prop_assert!(diff < 1e-4, "{name}: max diff {diff}");
        }
        let (Some(BiasGrad::Sparse(sb)), Some(BiasGrad::Dense(db))) = (sg.dbias, dg.dbias) else {
            return Err(TestCaseError::fail("both kernels must return a bias gradient"));
        };
        for h in 0..heads {
            let on_mask: Vec<f32> =
                (0..s).flat_map(|i| mask.neighbors(i).iter().map(move |&j| (i, j as usize))).map(|(i, j)| db[h].get(i, j)).collect();
            let diff = max_diff(&sb[h], &on_mask);
            prop_assert!(diff < 1e-4, "dbias head {h}: max diff {diff}");
        }
    }

    /// Matmul distributes over addition: (A+B)·C = A·C + B·C.
    #[test]
    fn matmul_linearity(m in 1usize..8, k in 1usize..8, n in 1usize..8, seed in 0u64..50) {
        let a = init::normal(m, k, 0.0, 1.0, seed);
        let b = init::normal(m, k, 0.0, 1.0, seed + 1);
        let c = init::normal(k, n, 0.0, 1.0, seed + 2);
        let lhs = ops::matmul(&ops::add(&a, &b), &c);
        let rhs = ops::add(&ops::matmul(&a, &c), &ops::matmul(&b, &c));
        let max = lhs.data().iter().zip(rhs.data()).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max);
        prop_assert!(max < 1e-3);
    }

    /// Tensor vstack/slice round-trip.
    #[test]
    fn vstack_slice_roundtrip(r1 in 1usize..6, r2 in 1usize..6, c in 1usize..6, seed in 0u64..50) {
        let a = init::normal(r1, c, 0.0, 1.0, seed);
        let b = init::normal(r2, c, 0.0, 1.0, seed + 3);
        let s = Tensor::vstack(&[&a, &b]);
        let top = s.slice_rows(0, r1);
        let bottom = s.slice_rows(r1, r1 + r2);
        prop_assert_eq!(top.data(), a.data());
        prop_assert_eq!(bottom.data(), b.data());
    }
}

mod extension_props {
    use torchgt_compat::proptest::prelude::*;
    use torchgt::graph::generators::erdos_renyi;
    use torchgt::graph::pack::{pack_graphs, segment_mean, segment_mean_backward};
    use torchgt::graph::reorder::reverse_cuthill_mckee;
    use torchgt::sparse::topology_mask;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// RCM always produces a permutation, for any graph.
        #[test]
        fn rcm_permutes(n in 2usize..60, m in 0usize..120, seed in 0u64..100) {
            let g = erdos_renyi(n, m, seed);
            let perm = reverse_cuthill_mckee(&g);
            let mut seen = vec![false; n];
            prop_assert_eq!(perm.len(), n);
            for &v in &perm {
                prop_assert!(!std::mem::replace(&mut seen[v as usize], true));
            }
        }

        /// Packing preserves total arcs and segment boundaries tile the
        /// token range exactly.
        #[test]
        fn packing_conserves(sizes in prop::collection::vec(2usize..12, 1..5), seed in 0u64..50) {
            let graphs: Vec<_> = sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| erdos_renyi(n, n, seed + i as u64))
                .collect();
            let refs: Vec<&torchgt::graph::CsrGraph> = graphs.iter().collect();
            let packed = pack_graphs(&refs);
            let total_arcs: usize = graphs.iter().map(|g| g.num_arcs()).sum();
            prop_assert_eq!(packed.graph.num_arcs(), total_arcs);
            let mut cursor = 0usize;
            for (i, &(s, e)) in packed.segments.iter().enumerate() {
                prop_assert_eq!(s, cursor);
                prop_assert_eq!(e - s, sizes[i]);
                cursor = e;
            }
            prop_assert_eq!(cursor, packed.graph.num_nodes());
            // Topology mask over the packed graph never crosses segments
            // (self-loops only within).
            let mask = topology_mask(&packed.graph, false);
            for (si, &(s, e)) in packed.segments.iter().enumerate() {
                for v in s..e {
                    for &u in mask.neighbors(v) {
                        let u = u as usize;
                        prop_assert!(u >= s && u < e, "segment {si} leaks to {u}");
                    }
                }
            }
        }

        /// segment_mean ∘ broadcast-backward conserves gradient mass.
        #[test]
        fn segment_mean_grad_mass(cols in 1usize..4, len1 in 1usize..6, len2 in 1usize..6) {
            let tokens = len1 + len2;
            let segments = [(0, len1), (len1, tokens)];
            let dout: Vec<f32> = (0..2 * cols).map(|i| i as f32 + 1.0).collect();
            let dv = segment_mean_backward(&dout, cols, &segments, tokens);
            // Column-wise: sum over a segment's tokens equals the segment's dout.
            for (s, &(a, b)) in segments.iter().enumerate() {
                for c in 0..cols {
                    let sum: f32 = (a..b).map(|r| dv[r * cols + c]).sum();
                    prop_assert!((sum - dout[s * cols + c]).abs() < 1e-4);
                }
            }
            // And forward of the backward is the identity on per-segment
            // constants.
            let means = segment_mean(&dv, cols, &segments);
            for (s, &(a, b)) in segments.iter().enumerate() {
                let len = (b - a) as f32;
                for c in 0..cols {
                    prop_assert!((means[s * cols + c] * len - dout[s * cols + c]).abs() < 1e-4);
                }
            }
        }
    }
}
