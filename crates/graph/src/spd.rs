//! Shortest-path distances by capped BFS: the diameter estimate behind the
//! C3 reachability check, and the [`UNREACHABLE`] sentinel Graphormer's
//! spatial-encoding buckets share.

use crate::csr::CsrGraph;

/// Sentinel for "unreachable within the cap".
pub const UNREACHABLE: u8 = u8::MAX;

/// Single-source BFS distances capped at `max_dist` (distances beyond the
/// cap are reported as [`UNREACHABLE`]).
pub(crate) fn bfs_distances(g: &CsrGraph, src: usize, max_dist: u8) -> Vec<u8> {
    let mut out = vec![UNREACHABLE; g.num_nodes()];
    let mut frontier = vec![src as u32];
    let mut next = Vec::new();
    out[src] = 0;
    let mut dist = 0u8;
    while !frontier.is_empty() && dist < max_dist {
        dist += 1;
        next.clear();
        for &v in &frontier {
            for &nb in g.neighbors(v as usize) {
                if out[nb as usize] == UNREACHABLE {
                    out[nb as usize] = dist;
                    next.push(nb);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
    }
    out
}

/// Eccentricity lower bound: the largest finite BFS distance from `src`.
pub(crate) fn eccentricity(g: &CsrGraph, src: usize, max_dist: u8) -> u8 {
    bfs_distances(g, src, max_dist)
        .into_iter()
        .filter(|&d| d != UNREACHABLE)
        .max()
        .unwrap_or(0)
}

/// Estimate the graph diameter by double-sweep BFS (exact on trees, a good
/// lower bound in general). Used by the C3 reachability check.
pub fn diameter_estimate(g: &CsrGraph, max_dist: u8) -> u8 {
    if g.num_nodes() == 0 {
        return 0;
    }
    let d0 = bfs_distances(g, 0, max_dist);
    let far = d0
        .iter()
        .enumerate()
        .filter(|(_, &d)| d != UNREACHABLE)
        .max_by_key(|(_, &d)| d)
        .map(|(v, _)| v)
        .unwrap_or(0);
    eccentricity(g, far, max_dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{cycle_graph, path_graph, star_graph};

    #[test]
    fn path_distances() {
        let g = path_graph(5);
        let d = bfs_distances(&g, 0, 10);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cap_truncates() {
        let g = path_graph(5);
        let d = bfs_distances(&g, 0, 2);
        assert_eq!(d, vec![0, 1, 2, UNREACHABLE, UNREACHABLE]);
    }

    #[test]
    fn bfs_distances_are_symmetric() {
        let g = cycle_graph(6);
        let m: Vec<Vec<u8>> = (0..6).map(|s| bfs_distances(&g, s, 10)).collect();
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(m[i][j], m[j][i]);
            }
        }
        // Opposite points on a 6-cycle are 3 apart.
        assert_eq!(m[0][3], 3);
    }

    #[test]
    fn disconnected_pairs_are_unreachable() {
        let g = CsrGraphHelper::two_components();
        let d = bfs_distances(&g, 0, 10);
        assert_eq!(d[1], 1); // 0-1 connected
        assert_eq!(d[2], UNREACHABLE); // 0-2 not
    }

    struct CsrGraphHelper;
    impl CsrGraphHelper {
        fn two_components() -> crate::csr::CsrGraph {
            crate::csr::CsrGraph::from_edges(4, &[(0, 1), (2, 3)])
        }
    }

    #[test]
    fn diameter_of_known_shapes() {
        assert_eq!(diameter_estimate(&path_graph(10), 20), 9);
        assert_eq!(diameter_estimate(&star_graph(10), 20), 2);
        let d = diameter_estimate(&cycle_graph(10), 20);
        assert!(d == 5, "cycle diameter {d}");
    }
}
