//! Synthetic graph generators.
//!
//! The paper evaluates on OGB / Amazon / MalNet graphs which are not
//! redistributable here; DESIGN.md documents the substitution. These
//! generators produce graphs whose *statistics* (sparsity, degree skew,
//! community structure) match the originals at a configurable scale, which is
//! what the system-level results depend on.

use crate::csr::CsrGraph;
use torchgt_compat::rng::rngs::SmallRng;
use torchgt_compat::rng::{Rng, SeedableRng};

/// Erdős–Rényi `G(n, m)` graph: `m` uniformly random distinct edges.
/// `m` larger than the `n·(n-1)/2` possible undirected edges is clamped.
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    if n < 2 {
        return CsrGraph::from_edges(n, &[]);
    }
    let m = m.min(n * (n - 1) / 2);
    let mut seen = std::collections::HashSet::with_capacity(m);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v && seen.insert((u.min(v), u.max(v))) {
            edges.push((u, v));
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Barabási–Albert preferential attachment: each new node attaches to
/// `m_attach` existing nodes with probability proportional to degree.
/// Produces the power-law degree skew characteristic of citation and
/// co-purchase graphs.
pub fn barabasi_albert(n: usize, m_attach: usize, seed: u64) -> CsrGraph {
    assert!(m_attach >= 1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let m0 = (m_attach + 1).min(n);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n * m_attach);
    // Repeated-endpoint list: sampling uniformly from it is sampling
    // proportionally to degree.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m_attach);
    for v in 1..m0 {
        edges.push((v as u32, (v - 1) as u32));
        endpoints.push(v as u32);
        endpoints.push((v - 1) as u32);
    }
    for v in m0..n {
        let mut targets = Vec::with_capacity(m_attach);
        while targets.len() < m_attach.min(v) {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if t as usize != v && !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            edges.push((v as u32, t));
            endpoints.push(v as u32);
            endpoints.push(t);
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Parameters for the clustered power-law generator used to stand in for the
/// OGB node-classification graphs.
#[derive(Clone, Copy, Debug)]
pub struct ClusteredConfig {
    /// Total number of nodes.
    pub n: usize,
    /// Number of planted communities (clusters).
    pub communities: usize,
    /// Average degree (so edges ≈ `n * avg_degree / 2`).
    pub avg_degree: f64,
    /// Fraction of edge endpoints that stay inside their community.
    /// Real-world graphs in the paper have strong cluster structure, i.e.
    /// values near 0.9.
    pub intra_fraction: f64,
}

/// Stochastic-block-model × preferential-attachment hybrid.
///
/// Node degrees follow a heavy-tailed distribution (Zipf-like weights) and
/// `intra_fraction` of edges land inside the node's planted community; the
/// remainder connect uniformly at random. Communities are contiguous in the
/// *planted* labelling but node ids are shuffled, so METIS-style reordering
/// has real work to do — exactly the situation Figure 5 of the paper depicts.
///
/// Returns the graph and the planted community of each node.
pub fn clustered_power_law(cfg: ClusteredConfig, seed: u64) -> (CsrGraph, Vec<u32>) {
    let target_edges = ((cfg.n as f64) * cfg.avg_degree / 2.0) as usize;
    let mut edges = Vec::with_capacity(target_edges + 16);
    let community = clustered_power_law_stream(cfg, seed, &mut |u, v| edges.push((u, v)));
    (CsrGraph::from_edges(cfg.n, &edges), community)
}

/// Streaming core of [`clustered_power_law`]: every generated edge is pushed
/// into `sink` instead of being collected, so callers (the `torchgt-data`
/// shard writers) can spill edges to disk without ever holding the edge
/// list. Peak memory is `O(n)` — community labels, member lists, the hub
/// shuffle, and a touched bitmap.
///
/// Draws from the RNG in exactly the same order as the collecting wrapper,
/// so for a given `(cfg, seed)` the edge stream reassembles (via
/// [`CsrGraph::from_edges`]) into the identical graph.
pub fn clustered_power_law_stream(
    cfg: ClusteredConfig,
    seed: u64,
    sink: &mut dyn FnMut(u32, u32),
) -> Vec<u32> {
    let ClusteredConfig { n, communities, avg_degree, intra_fraction } = cfg;
    assert!(communities >= 1 && n >= communities);
    let mut rng = SmallRng::seed_from_u64(seed);
    // Shuffled community assignment, near-equal sizes.
    let mut community: Vec<u32> = (0..n).map(|i| (i % communities) as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        community.swap(i, j);
    }
    // Member lists per community for intra-edge sampling.
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); communities];
    for (v, &c) in community.iter().enumerate() {
        members[c as usize].push(v as u32);
    }
    // Heavy-tailed degree weights: w_i ∝ (i+1)^-0.8 over a shuffled order.
    let target_edges = ((n as f64) * avg_degree / 2.0) as usize;
    // Zipf sampling via inverse-CDF over weights would be costly; instead use
    // the standard trick: pick u = floor(n * r^gamma) which yields a
    // power-law-ish frequency of low indices, then map through a shuffle.
    let gamma = 2.5f64;
    let mut shuffle: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        shuffle.swap(i, j);
    }
    let draw_hub = |rng: &mut SmallRng| -> u32 {
        let r: f64 = rng.gen::<f64>();
        let idx = ((n as f64) * r.powf(gamma)) as usize;
        shuffle[idx.min(n - 1)]
    };
    // Every emitted edge has `u != v`, so a node is isolated in the
    // reassembled graph iff it never appeared as an endpoint — a bitmap
    // replaces the intermediate `CsrGraph` the repair pass used to build.
    let mut touched = vec![false; n];
    let mut emitted = 0usize;
    while emitted < target_edges {
        let u = draw_hub(&mut rng);
        let v = if rng.gen::<f64>() < intra_fraction {
            // Intra-community endpoint.
            let c = community[u as usize] as usize;
            members[c][rng.gen_range(0..members[c].len())]
        } else {
            rng.gen_range(0..n as u32)
        };
        if u != v {
            touched[u as usize] = true;
            touched[v as usize] = true;
            sink(u, v);
            emitted += 1;
        }
    }
    // Guarantee no isolated nodes: chain each degree-0 node to a random
    // member of its community (keeps C3 reachability plausible). Repair
    // edges deliberately do not update `touched`: the collecting path
    // checked degrees against the graph built *before* any repairs.
    for v in 0..n {
        if !touched[v] {
            let c = community[v] as usize;
            let mut other = members[c][rng.gen_range(0..members[c].len())];
            if other as usize == v {
                other = ((v + 1) % n) as u32;
            }
            sink(v as u32, other);
        }
    }
    community
}

/// A random connected "molecule-like" small graph: a random spanning tree plus
/// a few extra ring-closing edges. Stands in for ZINC / ogbg-molpcba
/// molecules (the paper's Table III quotes ~23 nodes, ~25 edges on average).
pub fn molecule_like(n: usize, extra_edges: usize, seed: u64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(n + extra_edges);
    for v in 1..n {
        // Attach to a recent node: molecules are chain-like, not star-like.
        let lo = v.saturating_sub(4);
        let parent = rng.gen_range(lo..v) as u32;
        edges.push((v as u32, parent));
    }
    let mut added = 0;
    let mut guard = 0;
    while added < extra_edges && n > 2 && guard < extra_edges * 20 {
        guard += 1;
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v {
            edges.push((u, v));
            added += 1;
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// A "function-call-graph-like" graph standing in for MalNet samples:
/// a few hub functions (high out-degree) plus chains of helpers. MalNet
/// graphs average 15K nodes / 35K edges.
pub fn callgraph_like(n: usize, seed: u64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let hubs = (n / 100).max(1);
    let mut edges = Vec::with_capacity(n * 2);
    for v in 1..n {
        // Mostly chain to the previous node (sequential calls)…
        if rng.gen::<f64>() < 0.7 {
            edges.push((v as u32, (v - 1) as u32));
        } else {
            // …otherwise call into a hub.
            edges.push((v as u32, rng.gen_range(0..hubs as u32)));
        }
        // Occasional extra call edge.
        if rng.gen::<f64>() < 0.6 {
            let t = rng.gen_range(0..n as u32);
            if t as usize != v {
                edges.push((v as u32, t));
            }
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Simple path graph `0—1—…—(n-1)`.
pub fn path_graph(n: usize) -> CsrGraph {
    let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
    CsrGraph::from_edges(n, &edges)
}

/// Cycle graph.
pub fn cycle_graph(n: usize) -> CsrGraph {
    let mut edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
    if n > 2 {
        edges.push((n as u32 - 1, 0));
    }
    CsrGraph::from_edges(n, &edges)
}

/// Star graph with node 0 at the centre.
pub fn star_graph(n: usize) -> CsrGraph {
    let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (0, v)).collect();
    CsrGraph::from_edges(n, &edges)
}

/// Complete graph `K_n`, its rows written out directly: row `u` is every
/// other node in ascending order.
pub fn complete_graph(n: usize) -> CsrGraph {
    let row_ptr = (0..=n).map(|u| u * n.saturating_sub(1)).collect();
    let col_idx = (0..n as u32).flat_map(|u| (0..n as u32).filter(move |&v| v != u)).collect();
    CsrGraph::from_raw(row_ptr, col_idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erdos_renyi_has_requested_size() {
        let g = erdos_renyi(100, 300, 1);
        assert_eq!(g.num_nodes(), 100);
        assert!(g.num_edges() <= 300 && g.num_edges() > 250);
    }

    #[test]
    fn erdos_renyi_edges_are_distinct() {
        // Regression: the doc promises `m` *distinct* edges, but duplicates
        // used to be pushed freely and silently merged by `from_edges`.
        for seed in 0..8 {
            let g = erdos_renyi(100, 300, seed);
            assert_eq!(g.num_edges(), 300, "seed {seed}");
        }
        // Requests beyond the n*(n-1)/2 possible edges clamp instead of
        // spinning forever.
        assert_eq!(erdos_renyi(10, 1_000, 2).num_edges(), 45);
    }

    #[test]
    fn barabasi_albert_is_connected_and_skewed() {
        let g = barabasi_albert(500, 2, 7);
        assert!(g.is_connected());
        // Power-law: max degree far above average.
        assert!(g.max_degree() as f64 > 4.0 * g.avg_degree());
    }

    #[test]
    fn clustered_power_law_statistics() {
        let cfg = ClusteredConfig {
            n: 2000,
            communities: 8,
            avg_degree: 10.0,
            intra_fraction: 0.9,
        };
        let (g, comm) = clustered_power_law(cfg, 3);
        assert_eq!(g.num_nodes(), 2000);
        assert_eq!(comm.len(), 2000);
        assert!(g.min_degree() >= 1, "no isolated nodes");
        // Average degree within 25% of target.
        assert!((g.avg_degree() - 10.0).abs() < 2.5, "avg {}", g.avg_degree());
        // Community structure: intra-community arc fraction should be high.
        let mut intra = 0usize;
        let mut total = 0usize;
        for v in 0..g.num_nodes() {
            for &nb in g.neighbors(v) {
                total += 1;
                if comm[v] == comm[nb as usize] {
                    intra += 1;
                }
            }
        }
        let frac = intra as f64 / total as f64;
        assert!(frac > 0.7, "intra fraction {frac}");
    }

    #[test]
    fn clustered_power_law_is_deterministic() {
        let cfg = ClusteredConfig { n: 300, communities: 4, avg_degree: 6.0, intra_fraction: 0.8 };
        let (g1, c1) = clustered_power_law(cfg, 11);
        let (g2, c2) = clustered_power_law(cfg, 11);
        assert_eq!(g1, g2);
        assert_eq!(c1, c2);
        let (g3, _) = clustered_power_law(cfg, 12);
        assert_ne!(g1, g3);
    }

    #[test]
    fn streamed_edges_reassemble_into_the_collected_graph() {
        // The streaming core and the collecting wrapper must be the same
        // generator: same community labels, and the emitted edge stream must
        // build the identical CSR.
        let cfg = ClusteredConfig { n: 500, communities: 5, avg_degree: 8.0, intra_fraction: 0.85 };
        let (g, comm) = clustered_power_law(cfg, 21);
        let mut edges = Vec::new();
        let comm2 = clustered_power_law_stream(cfg, 21, &mut |u, v| edges.push((u, v)));
        assert_eq!(comm, comm2);
        assert_eq!(g, CsrGraph::from_edges(cfg.n, &edges));
    }

    #[test]
    fn molecule_like_is_connected_and_small() {
        for seed in 0..10 {
            let g = molecule_like(23, 3, seed);
            assert!(g.is_connected());
            assert!(g.num_edges() >= 22);
        }
    }

    #[test]
    fn callgraph_like_shape() {
        let g = callgraph_like(1000, 5);
        assert_eq!(g.num_nodes(), 1000);
        assert!(g.avg_degree() > 1.5 && g.avg_degree() < 8.0);
    }

    #[test]
    fn classic_topologies() {
        assert_eq!(path_graph(5).num_edges(), 4);
        assert_eq!(cycle_graph(5).num_edges(), 5);
        assert_eq!(star_graph(5).num_edges(), 4);
        assert_eq!(complete_graph(5).num_edges(), 10);
        assert_eq!(complete_graph(5).min_degree(), 4);
    }
}
