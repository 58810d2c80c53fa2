//! The Dual-interleaved Attention safety conditions (§III-B of the paper).
//!
//! TorchGT uses the topology-induced sparse pattern only when three
//! conditions hold for the sequence's attention graph `G̃`:
//!
//! * **C1** — every node attends to itself (self-loops present);
//! * **C2** — a Hamiltonian path connects all nodes; checked heuristically
//!   with Dirac's theorem (`min_degree ≥ n/2` guarantees a Hamiltonian
//!   *cycle*) plus cheaper sufficient conditions, since the exact problem is
//!   NP-complete;
//! * **C3** — every node can reach every other within `L` attention layers,
//!   i.e. the graph is connected with diameter ≤ `L` hops of *some* path
//!   (the paper's "directly or indirectly after L layers").
//!
//! When the check fails, the runtime falls back to fully-connected attention
//! for that sequence, which trivially satisfies all three conditions.

use crate::csr::CsrGraph;
use crate::spd::diameter_estimate;

/// Outcome of evaluating the three conditions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConditionReport {
    /// C1: all self-loops present.
    pub c1_self_loops: bool,
    /// C2: Hamiltonian-path heuristic verdict.
    pub c2_hamiltonian: bool,
    /// C3: L-layer reachability.
    pub c3_reachable: bool,
}

impl ConditionReport {
    /// True when the sparse topology pattern may be used.
    pub fn sparse_ok(&self) -> bool {
        self.c1_self_loops && self.c2_hamiltonian && self.c3_reachable
    }
}

/// C1: does every node have a self-loop?
pub(crate) fn check_self_loops(g: &CsrGraph) -> bool {
    (0..g.num_nodes()).all(|v| g.has_edge(v, v))
}

/// C2 heuristic. Exact Hamiltonian-path detection is NP-complete; following
/// the paper we use Dirac's theorem as the fast certificate and accept two
/// other cheap sufficient conditions that cover the graphs the runtime
/// actually builds:
///
/// * Dirac: `n ≥ 3` and `min_degree ≥ n/2` (Hamiltonian cycle ⇒ path);
/// * Ore-style check on a degree-ordered sample of non-adjacent pairs;
/// * the sequence-order path `0—1—…—(n-1)` is already present (the runtime's
///   cluster ordering often provides this after augmentation).
///
/// Self-loops are ignored for degree purposes.
pub(crate) fn check_hamiltonian_heuristic(g: &CsrGraph) -> bool {
    let n = g.num_nodes();
    if n <= 2 {
        return true;
    }
    let simple_degree = |v: usize| {
        let d = g.degree(v);
        if g.has_edge(v, v) {
            d - 1
        } else {
            d
        }
    };
    // Dirac's certificate.
    let min_deg = (0..n).map(simple_degree).min().unwrap_or(0);
    if 2 * min_deg >= n {
        return true;
    }
    // Explicit sequence path.
    if (1..n).all(|v| g.has_edge(v - 1, v)) {
        return true;
    }
    // Ore's condition (deg u + deg v ≥ n for all non-adjacent u,v) checked
    // exactly on small graphs, sampled on large ones.
    let check_pair = |u: usize, v: usize| -> bool {
        g.has_edge(u, v) || simple_degree(u) + simple_degree(v) >= n
    };
    if n <= 256 {
        for u in 0..n {
            for v in (u + 1)..n {
                if !check_pair(u, v) {
                    return false;
                }
            }
        }
        true
    } else {
        // Large graph: Ore requires degree sums ≥ n everywhere, which sparse
        // graphs cannot meet; report false so the caller augments the graph.
        false
    }
}

/// C3: can every node attend to every other (directly or transitively) after
/// `l_layers` rounds of neighbourhood aggregation? Equivalent to: the graph
/// is connected and its diameter is ≤ `l_layers`... for the exact property;
/// we use the double-sweep diameter estimate which is exact on the
/// tree-like/cluster graphs in play and conservative otherwise.
pub(crate) fn check_l_hop_reachability(g: &CsrGraph, l_layers: u8) -> bool {
    if g.num_nodes() == 0 {
        return true;
    }
    if !g.is_connected() {
        return false;
    }
    diameter_estimate(g, l_layers.saturating_add(1)) <= l_layers
}

/// Evaluate all three conditions for an `l_layers`-deep model.
pub fn check_conditions(g: &CsrGraph, l_layers: u8) -> ConditionReport {
    ConditionReport {
        c1_self_loops: check_self_loops(g),
        c2_hamiltonian: check_hamiltonian_heuristic(g),
        c3_reachable: check_l_hop_reachability(g, l_layers),
    }
}

/// Augment a sequence graph so the conditions hold: add all self-loops (C1)
/// and the Hamiltonian sequence path `0—1—…—(n-1)` (C2), which also makes the
/// graph connected. This is how the runtime repairs a failing sequence graph
/// instead of paying for dense attention every time.
///
/// One merge per row: `v`'s sorted neighbours with `{v−1, v, v+1}`. The
/// out-of-core pipeline builds a mask per streamed sequence per pass, so
/// this is linear in the arcs rather than a sort of the edge list. Like
/// every graph here, `g` is stored symmetrically, and so is the result.
pub fn augment_for_conditions(g: &CsrGraph) -> CsrGraph {
    let n = g.num_nodes();
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::with_capacity(g.num_arcs() + 3 * n);
    for v in 0..n {
        let mut added = (v.saturating_sub(1)..(v + 2).min(n)).map(|u| u as u32).peekable();
        for &nb in g.neighbors(v) {
            col_idx.extend(std::iter::from_fn(|| added.next_if(|&u| u < nb)));
            added.next_if_eq(&nb);
            col_idx.push(nb);
        }
        col_idx.extend(added);
        row_ptr.push(col_idx.len());
    }
    col_idx.shrink_to_fit();
    CsrGraph::from_raw(row_ptr, col_idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete_graph, cycle_graph, erdos_renyi, path_graph, star_graph};

    #[test]
    fn complete_graph_satisfies_everything() {
        let g = complete_graph(8).with_self_loops();
        let rep = check_conditions(&g, 4);
        assert!(rep.c1_self_loops && rep.c2_hamiltonian && rep.c3_reachable);
        assert!(rep.sparse_ok());
    }

    #[test]
    fn missing_self_loops_fail_c1() {
        let g = complete_graph(8);
        assert!(!check_self_loops(&g));
        assert!(check_self_loops(&g.with_self_loops()));
    }

    #[test]
    fn dirac_certificate_fires() {
        // K5 minus nothing: min degree 4 ≥ 5/2.
        assert!(check_hamiltonian_heuristic(&complete_graph(5)));
        // A star has no Hamiltonian path for n ≥ 4 and fails the heuristics.
        assert!(!check_hamiltonian_heuristic(&star_graph(6)));
    }

    #[test]
    fn sequence_path_certificate_fires() {
        let g = path_graph(50);
        assert!(check_hamiltonian_heuristic(&g));
        // Cycles contain the sequence path too.
        assert!(check_hamiltonian_heuristic(&cycle_graph(50)));
    }

    #[test]
    fn c3_depends_on_depth() {
        let g = path_graph(10);
        assert!(!check_l_hop_reachability(&g, 4)); // diameter 9
        assert!(check_l_hop_reachability(&g, 9));
        assert!(check_l_hop_reachability(&star_graph(10), 2));
    }

    #[test]
    fn c3_fails_when_disconnected() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!check_l_hop_reachability(&g, 10));
    }

    #[test]
    fn augmentation_repairs_sparse_random_graph() {
        let g = erdos_renyi(200, 150, 4); // sparse, likely disconnected
        let aug = augment_for_conditions(&g);
        let rep = check_conditions(&aug, 200);
        assert!(rep.c1_self_loops, "self loops added");
        assert!(rep.c2_hamiltonian, "sequence path added");
        assert!(aug.is_connected());
        // Original edges are preserved.
        for v in 0..g.num_nodes() {
            for &nb in g.neighbors(v) {
                assert!(aug.has_edge(v, nb as usize));
            }
        }
    }

    #[test]
    fn augmentation_is_the_union_with_loops_and_the_sequence_path() {
        for (n, m, seed) in [(1, 0, 1), (2, 0, 2), (2, 1, 3), (40, 25, 4), (97, 400, 5), (64, 2000, 6)] {
            let g = erdos_renyi(n, m, seed);
            let mut edges: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, v)).collect();
            edges.extend((1..n as u32).map(|v| (v - 1, v)));
            for v in 0..n {
                edges.extend(g.neighbors(v).iter().map(|&nb| (v as u32, nb)));
            }
            assert_eq!(augment_for_conditions(&g), CsrGraph::from_edges(n, &edges), "n {n} m {m}");
        }
    }

    #[test]
    fn augmentation_is_idempotent_on_good_graphs() {
        let g = augment_for_conditions(&path_graph(10));
        let g2 = augment_for_conditions(&g);
        assert_eq!(g.num_arcs(), g2.num_arcs());
    }

    #[test]
    fn c1_requires_every_node_looped() {
        // Hand-built 4-node graph where only nodes 0..3 carry self-loops.
        let g = CsrGraph::from_edges(
            4,
            &[(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 3)],
        );
        assert!(!check_self_loops(&g), "node 3 has no self-loop");
        assert!(check_self_loops(&g.with_self_loops()));
    }

    #[test]
    fn c2_ore_certificate_fires_without_dirac() {
        // Six nodes: node 5 has degree 2 (defeats Dirac, 2·2 < 6), nodes
        // 0–4 have degree 4, and every non-adjacent pair sums to ≥ 6, so
        // Ore's condition certifies a Hamiltonian cycle. The sequence path
        // cannot fire either: 0—1 is absent.
        let g = CsrGraph::from_edges(
            6,
            &[
                (5, 0), (5, 1),
                (2, 0), (2, 1), (2, 3), (2, 4),
                (3, 0), (3, 1), (3, 4),
                (4, 0), (4, 1),
            ],
        );
        assert!(!g.has_edge(0, 1), "sequence-path certificate must not fire");
        assert!(check_hamiltonian_heuristic(&g));
        // Dropping an edge from node 5 leaves degree 1 — no Hamiltonian
        // path can visit it mid-sequence, and the heuristic rejects.
        let broken = CsrGraph::from_edges(
            6,
            &[
                (5, 0),
                (2, 0), (2, 1), (2, 3), (2, 4),
                (3, 0), (3, 1), (3, 4),
                (4, 0), (4, 1),
            ],
        );
        assert!(!check_hamiltonian_heuristic(&broken));
    }

    #[test]
    fn c2_rejects_bridge_star_without_certificates() {
        // Two stars joined by a bridge: no Hamiltonian path exists and none
        // of the three certificates can fire.
        let g = CsrGraph::from_edges(
            8,
            &[(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7), (0, 4)],
        );
        assert!(!check_hamiltonian_heuristic(&g));
    }

    #[test]
    fn c3_exact_at_diameter_boundary() {
        // Balanced binary-ish tree of depth 3 → diameter 6.
        let g = CsrGraph::from_edges(
            15,
            &[
                (0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6),
                (3, 7), (3, 8), (4, 9), (4, 10), (5, 11), (5, 12),
                (6, 13), (6, 14),
            ],
        );
        assert!(!check_l_hop_reachability(&g, 5), "diameter is 6, not ≤ 5");
        assert!(check_l_hop_reachability(&g, 6));
        assert!(check_l_hop_reachability(&g, 7));
    }

    #[test]
    fn report_reflects_partial_failures() {
        // Path graph with self-loops: C1 ✓, C2 ✓ (sequence path), C3 ✗ at
        // shallow depth — sparse_ok() must be false on any single failure.
        let g = path_graph(12).with_self_loops();
        let rep = check_conditions(&g, 3);
        assert!(rep.c1_self_loops);
        assert!(rep.c2_hamiltonian);
        assert!(!rep.c3_reachable);
        assert!(!rep.sparse_ok());

        // Same graph, deep enough model: all three hold.
        let rep_deep = check_conditions(&g, 11);
        assert!(rep_deep.sparse_ok());

        // Remove the loops: only C1 flips.
        let rep_noloop = check_conditions(&path_graph(12), 11);
        assert!(!rep_noloop.c1_self_loops);
        assert!(rep_noloop.c2_hamiltonian);
        assert!(!rep_noloop.sparse_ok());
    }
}
