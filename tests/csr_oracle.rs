//! The CSR builders against the sort-based `from_edges` and `permute` they
//! replaced, copied below as the reference: the counting-pass builds and the
//! direct `complete_graph` rows must reproduce their `row_ptr` and `col_idx`
//! exactly, because every mask, partition and encoding reads those arrays.

use torchgt::graph::generators::complete_graph;
use torchgt::graph::CsrGraph;
use torchgt_compat::proptest::prelude::*;
use torchgt_compat::rng::rngs::SmallRng;
use torchgt_compat::rng::{Rng, SeedableRng};

/// `CsrGraph::from_edges` as it was before its counting passes, verbatim
/// apart from returning the raw arrays.
mod reference {
    use torchgt::graph::CsrGraph;

    pub fn from_edges(num_nodes: usize, edges: &[(u32, u32)]) -> (Vec<usize>, Vec<u32>) {
        // Sort-based construction: O(E log E), much faster than per-node sets
        // for the multi-million-edge synthetic graphs used in the benches.
        let mut arcs = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            assert!(
                (u as usize) < num_nodes && (v as usize) < num_nodes,
                "edge endpoint out of range"
            );
            arcs.push((u, v));
            if u != v {
                arcs.push((v, u));
            }
        }
        arcs.sort_unstable();
        arcs.dedup();
        let mut row_ptr = vec![0usize; num_nodes + 1];
        for &(u, _) in &arcs {
            row_ptr[u as usize + 1] += 1;
        }
        for i in 0..num_nodes {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx = arcs.into_iter().map(|(_, v)| v).collect();
        (row_ptr, col_idx)
    }

    /// `CsrGraph::permute` as it was before its counting pass, verbatim
    /// apart from reading rows through `neighbors` and returning the raw
    /// arrays.
    pub fn permute(g: &CsrGraph, perm: &[u32]) -> (Vec<usize>, Vec<u32>) {
        let n = g.num_nodes();
        assert_eq!(perm.len(), n, "permutation length mismatch");
        let mut inverse = vec![u32::MAX; n];
        for (new, &old) in perm.iter().enumerate() {
            assert!(inverse[old as usize] == u32::MAX, "perm is not a permutation");
            inverse[old as usize] = new as u32;
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(g.num_arcs());
        let mut scratch: Vec<u32> = Vec::new();
        for new in 0..n {
            let old = perm[new] as usize;
            scratch.clear();
            scratch.extend(g.neighbors(old).iter().map(|&nb| inverse[nb as usize]));
            scratch.sort_unstable();
            col_idx.extend_from_slice(&scratch);
            row_ptr.push(col_idx.len());
        }
        (row_ptr, col_idx)
    }
}

fn assert_same(g: &CsrGraph, num_nodes: usize, edges: &[(u32, u32)]) {
    let (row_ptr, col_idx) = reference::from_edges(num_nodes, edges);
    assert_eq!(g.row_ptr(), &row_ptr[..], "row_ptr, {num_nodes} nodes, {} edges", edges.len());
    assert_eq!(g.col_idx(), &col_idx[..], "col_idx, {num_nodes} nodes, {} edges", edges.len());
}

/// An edge list over `n` nodes whose endpoints avoid the last `isolated`
/// of them: one edge in `loops` a self-loop, one in `repeats` a copy of an
/// earlier edge, every other copy reversed.
fn edge_list(n: usize, avg_degree: f64, isolated: usize, loops: usize, repeats: usize, seed: u64) -> Vec<(u32, u32)> {
    let live = n.saturating_sub(isolated) as u32;
    if live == 0 {
        return Vec::new();
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for i in 0..(n as f64 * avg_degree / 2.0) as usize {
        let u = rng.gen_range(0..live);
        let edge = if i % loops == 0 {
            (u, u)
        } else if i % repeats == 0 && !edges.is_empty() {
            let (a, b) = edges[rng.gen_range(0..edges.len())];
            if i % 2 == 0 { (b, a) } else { (a, b) }
        } else {
            (u, rng.gen_range(0..live))
        };
        edges.push(edge);
    }
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Duplicates in both orientations, self-loops and isolated nodes, on
    /// 0 to 2,000 nodes.
    #[test]
    fn counting_passes_build_the_sorted_csr(
        n in 0usize..2001,
        avg_degree in 0.0f64..24.0,
        isolated in 0usize..64,
        loops in 1usize..12,
        repeats in 1usize..6,
        seed in 0u64..u64::MAX
    ) {
        let edges = edge_list(n, avg_degree, isolated, loops, repeats, seed);
        let (row_ptr, col_idx) = reference::from_edges(n, &edges);
        let g = CsrGraph::from_edges(n, &edges);
        prop_assert_eq!(g.row_ptr(), &row_ptr[..]);
        prop_assert_eq!(g.col_idx(), &col_idx[..]);
    }

    /// Any graph `from_edges` builds, relabelled by a shuffled permutation.
    #[test]
    fn counting_pass_permutes_like_the_sort(
        n in 0usize..2001,
        avg_degree in 0.0f64..24.0,
        isolated in 0usize..64,
        loops in 1usize..12,
        seed in 0u64..u64::MAX
    ) {
        let g = CsrGraph::from_edges(n, &edge_list(n, avg_degree, isolated, loops, 3, seed));
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut rng = SmallRng::seed_from_u64(seed ^ 1);
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let (row_ptr, col_idx) = reference::permute(&g, &perm);
        let p = g.permute(&perm);
        prop_assert_eq!(p.row_ptr(), &row_ptr[..]);
        prop_assert_eq!(p.col_idx(), &col_idx[..]);
    }
}

/// Every edge list of up to three edges over three nodes: each of the nine
/// ordered pairs, self-loops included, in each position.
#[test]
fn every_small_edge_list_builds_the_sorted_csr() {
    for len in 0..=3u32 {
        for code in 0..9u32.pow(len) {
            let edges: Vec<(u32, u32)> = (0..len).map(|i| code / 9u32.pow(i) % 9).map(|p| (p / 3, p % 3)).collect();
            assert_same(&CsrGraph::from_edges(3, &edges), 3, &edges);
        }
    }
}

/// `complete_graph(n)` writes its rows directly; they must be the rows
/// `from_edges` builds from all pairs.
#[test]
fn complete_graph_rows_match_from_edges_of_all_pairs() {
    for n in 0..=64usize {
        let pairs: Vec<(u32, u32)> =
            (0..n as u32).flat_map(|u| (u + 1..n as u32).map(move |v| (u, v))).collect();
        assert_same(&complete_graph(n), n, &pairs);
    }
}
