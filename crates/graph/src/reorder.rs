//! Alternative node-reordering strategies.
//!
//! TorchGT's cluster-aware reordering (METIS-style, in [`crate::partition`])
//! is compared here against the classic bandwidth-minimising orderings used
//! in sparse linear algebra. These serve as ablation baselines: the paper's
//! claim is that *community* structure (not just bandwidth) is what the
//! attention kernels need.

use crate::csr::CsrGraph;
use std::collections::VecDeque;

/// Reverse Cuthill–McKee ordering: BFS from a pseudo-peripheral vertex,
/// visiting neighbours in increasing-degree order, then reversed. Returns
/// `perm` with `perm[new_id] = old_id` (feed to [`CsrGraph::permute`]).
pub fn reverse_cuthill_mckee(g: &CsrGraph) -> Vec<u32> {
    let n = g.num_nodes();
    let mut perm: Vec<u32> = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut by_degree: Vec<u32> = (0..n as u32).collect();
    by_degree.sort_unstable_by_key(|&v| g.degree(v as usize));
    for &start in &by_degree {
        if visited[start as usize] {
            continue;
        }
        // Pseudo-peripheral start: double sweep from the low-degree seed.
        let far = bfs_farthest(g, start, &visited);
        let mut queue = VecDeque::new();
        queue.push_back(far);
        visited[far as usize] = true;
        while let Some(v) = queue.pop_front() {
            perm.push(v);
            let mut nbrs: Vec<u32> = g
                .neighbors(v as usize)
                .iter()
                .copied()
                .filter(|&u| !visited[u as usize])
                .collect();
            nbrs.sort_unstable_by_key(|&u| g.degree(u as usize));
            for u in nbrs {
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    perm.reverse();
    perm
}

fn bfs_farthest(g: &CsrGraph, start: u32, visited: &[bool]) -> u32 {
    let n = g.num_nodes();
    let mut dist = vec![u32::MAX; n];
    let mut queue = VecDeque::new();
    dist[start as usize] = 0;
    queue.push_back(start);
    let mut far = start;
    while let Some(v) = queue.pop_front() {
        for &u in g.neighbors(v as usize) {
            if dist[u as usize] == u32::MAX && !visited[u as usize] {
                dist[u as usize] = dist[v as usize] + 1;
                if dist[u as usize] > dist[far as usize] {
                    far = u;
                }
                queue.push_back(u);
            }
        }
    }
    far
}

/// Adjacency bandwidth: `max |i - j|` over edges — what RCM minimises.
pub fn bandwidth(g: &CsrGraph) -> usize {
    let mut bw = 0usize;
    for v in 0..g.num_nodes() {
        for &u in g.neighbors(v) {
            bw = bw.max((v as i64 - u as i64).unsigned_abs() as usize);
        }
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{erdos_renyi, path_graph};

    fn is_permutation(perm: &[u32], n: usize) -> bool {
        let mut seen = vec![false; n];
        perm.iter().all(|&v| {
            let v = v as usize;
            v < n && !std::mem::replace(&mut seen[v], true)
        }) && perm.len() == n
    }

    #[test]
    fn rcm_is_a_permutation() {
        let g = erdos_renyi(200, 500, 3);
        let perm = reverse_cuthill_mckee(&g);
        assert!(is_permutation(&perm, 200));
    }

    #[test]
    fn rcm_handles_disconnected_graphs() {
        let g = CsrGraph::from_edges(10, &[(0, 1), (2, 3), (5, 6)]);
        let perm = reverse_cuthill_mckee(&g);
        assert!(is_permutation(&perm, 10));
    }

    #[test]
    fn rcm_reduces_bandwidth_on_shuffled_path() {
        // A path permuted randomly has huge bandwidth; RCM restores ~1.
        let g = path_graph(128);
        let shuffle: Vec<u32> = {
            let mut v: Vec<u32> = (0..128).collect();
            // Deterministic LCG shuffle.
            let mut state = 12345u64;
            for i in (1..128usize).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let j = (state >> 33) as usize % (i + 1);
                v.swap(i, j);
            }
            v
        };
        let shuffled = g.permute(&shuffle);
        let before = bandwidth(&shuffled);
        let rcm = reverse_cuthill_mckee(&shuffled);
        let after = bandwidth(&shuffled.permute(&rcm));
        assert!(after < before / 4, "bandwidth {before} → {after}");
        assert_eq!(after, 1, "a path's optimal bandwidth is 1");
    }
}
