//! GT behind its encoding memo ≡ GT without one.
//!
//! A model that has already been shown a stream of graphs — its memo warm
//! with every one of them — must answer each forward exactly as a model
//! built a moment ago would: the memo may only change *how often* the
//! Laplacian PE is computed. The streams are built to collide under any key
//! short of the whole CSR: relabelled copies of one graph, and pairs that
//! share a degree sequence (so `row_ptr`, node count and arc count agree).

use torchgt_compat::proptest::prelude::*;
use torchgt_compat::rng::{Rng, SeedableRng, SmallRng};
use torchgt_graph::generators::{cycle_graph, erdos_renyi};
use torchgt_graph::CsrGraph;
use torchgt_model::{Gt, GtConfig, Pattern, SequenceBatch, SequenceModel};
use torchgt_tensor::{init, Workspace};

const FEAT: usize = 5;

fn edges(g: &CsrGraph) -> Vec<(u32, u32)> {
    (0..g.num_nodes() as u32)
        .flat_map(|u| g.neighbors(u as usize).iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
        .collect()
}

/// One double edge swap `{a–b, c–d} → {a–d, c–b}`: every degree is kept, so
/// the result shares `row_ptr` with `g` and differs in `col_idx`. `None`
/// when no valid swap turns up.
fn rewired(g: &CsrGraph, rng: &mut SmallRng) -> Option<CsrGraph> {
    let mut list = edges(g);
    if list.len() < 2 {
        return None;
    }
    for _ in 0..64 {
        let (i, j) = (rng.gen_range(0..list.len()), rng.gen_range(0..list.len()));
        let ((a, b), (c, d)) = (list[i], list[j]);
        let distinct = a != c && a != d && b != c && b != d;
        if distinct && !g.has_edge(a as usize, d as usize) && !g.has_edge(c as usize, b as usize) {
            list[i] = (a, d);
            list[j] = (c, b);
            return Some(CsrGraph::from_edges(g.num_nodes(), &list));
        }
    }
    None
}

/// Two disjoint cycles on `k` and `n − k` nodes: 2-regular like
/// `cycle_graph(n)`.
fn two_cycles(n: usize, k: usize) -> CsrGraph {
    let ring = |from: usize, to: usize| {
        (from..to).map(move |v| (v as u32, if v + 1 == to { from } else { v + 1 } as u32))
    };
    let list: Vec<(u32, u32)> = ring(0, k).chain(ring(k, n)).collect();
    CsrGraph::from_edges(n, &list)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn warm_memo_forward_equals_fresh_model_forward(
        n in 6usize..40,
        density in 1usize..4,
        split in 3usize..1000,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let base = erdos_renyi(n, n * density, seed);
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let mut stream = vec![base.clone(), base.permute(&perm)];
        if let Some(swapped) = rewired(&base, &mut rng) {
            prop_assert_eq!(swapped.row_ptr(), base.row_ptr());
            prop_assert_ne!(&swapped, &base);
            stream.push(swapped);
        }
        let (cycle, twin) = (cycle_graph(n), two_cycles(n, 3 + split % (n - 5)));
        prop_assert_eq!(twin.row_ptr(), cycle.row_ptr());
        stream.extend([cycle, twin, base]);

        let cfg = GtConfig { dropout: 0.1, ..GtConfig::tiny(FEAT, 3) };
        let x = init::normal(n, FEAT, 0.0, 1.0, seed ^ 0xFEA7);
        for training in [true, false] {
            let mut warm = Gt::new(cfg, seed);
            warm.set_training(training);
            for (at, graph) in stream.iter().enumerate() {
                let mask = graph.with_self_loops();
                let batch = SequenceBatch { features: &x, graph, spd: None };
                for pattern in [Pattern::Dense, Pattern::Flash, Pattern::Sparse(&mask)] {
                    // The dropout counters are the only other state a
                    // forward advances: hand the fresh model the same ones.
                    let mut fresh = Gt::new(cfg, seed);
                    fresh.set_training(training);
                    fresh.set_rng_state(&warm.rng_state());
                    let rows: Vec<usize> = (0..batch.features.rows()).collect();
                    let want = fresh.forward_ws(&batch, pattern, &rows, &mut Workspace::new());
                    let got = warm.forward_ws(&batch, pattern, &rows, &mut Workspace::new());
                    prop_assert!(
                        got.data().iter().map(|v| v.to_bits()).eq(want.data().iter().map(|v| v.to_bits())),
                        "graph {} of the stream, {}, training {}", at, pattern.label(), training
                    );
                }
            }
            let stats = warm.encoding_memo().expect("GT has a memo");
            prop_assert!(stats.hits > 0 && stats.misses >= 4, "{:?}", stats);
        }
    }
}
