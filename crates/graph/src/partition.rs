//! METIS-style multilevel graph partitioning.
//!
//! TorchGT uses METIS to reorder nodes so that clusters (communities) become
//! contiguous id ranges, improving spatial locality of the attention kernels
//! (§III-C). METIS itself is C code; this module reimplements the same
//! multilevel recursive-bisection scheme:
//!
//! 1. **Coarsening** by heavy-edge matching,
//! 2. **Initial partition** by greedy BFS region growing,
//! 3. **Refinement** during uncoarsening with a boundary Kernighan–Lin /
//!    Fiduccia–Mattheyses pass.
//!
//! The finest level is the input graph, read in place. Coarser levels and
//! the halves of a recursive bisection are [`WeightedGraph`]s with `u32` arc
//! offsets and weights, sized before they are filled. Coarse rows are built
//! unordered and never sorted as a whole: matching breaks weight ties by the
//! smallest id and refinement sums integers, so neither depends on a row's
//! order. The BFS does, and it alone reads a copy with ascending rows of the
//! graph it grows over: the ≤ 64-node coarsest level, or a level matching
//! could not shrink.

use crate::csr::CsrGraph;
use torchgt_compat::rng::rngs::SmallRng;
use torchgt_compat::rng::{Rng, SeedableRng};

/// One level of the multilevel hierarchy as bisection reads it: node
/// weights and weighted rows.
trait Level {
    /// Number of nodes.
    fn len(&self) -> usize;

    /// At least the number of arcs the rows yield (sizes a coarser level).
    fn arc_bound(&self) -> usize;

    /// The original nodes collapsed into `v`.
    fn vwgt(&self, v: usize) -> u64;

    /// `v`'s arcs as `(target, weight)`.
    fn row(&self, v: usize) -> impl Iterator<Item = (u32, u32)> + '_;

    fn total_weight(&self) -> u64 {
        (0..self.len()).map(|v| self.vwgt(v)).sum()
    }

    /// A copy whose rows ascend by target id (the order the BFS of
    /// [`initial_bisection`] reads them in).
    fn with_sorted_rows(&self) -> WeightedGraph {
        let mut sorted = WeightedGraph::with_capacity(self.len(), self.arc_bound());
        let mut arcs: Vec<(u32, u32)> = Vec::new();
        for v in 0..self.len() {
            arcs.clear();
            arcs.extend(self.row(v));
            arcs.sort_unstable();
            for &(nb, w) in &arcs {
                sorted.push_arc(nb, w);
            }
            sorted.end_row(self.vwgt(v));
        }
        sorted
    }
}

/// The finest level, read in place: every node and arc weighs 1, and a
/// node's self-loops are skipped (a coarse level keeps the ones that
/// matching makes).
impl Level for CsrGraph {
    fn len(&self) -> usize {
        self.num_nodes()
    }

    fn arc_bound(&self) -> usize {
        self.num_arcs()
    }

    fn vwgt(&self, _v: usize) -> u64 {
        1
    }

    fn row(&self, v: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.neighbors(v).iter().filter(move |&&nb| nb as usize != v).map(|&nb| (nb, 1))
    }

    fn total_weight(&self) -> u64 {
        self.num_nodes() as u64
    }
}

/// A coarse level or a bisection half, stored as METIS stores it and built
/// by appending rows: `adjncy[xadj[v]..xadj[v + 1]]` are `v`'s neighbours,
/// `adjwgt` their edge weights, `vwgt[v]` the original nodes collapsed into
/// `v`. Offsets and weights fit `u32` because neither exceeds the input's
/// arc count ([`check_input`]).
struct WeightedGraph {
    xadj: Vec<u32>,
    adjncy: Vec<u32>,
    adjwgt: Vec<u32>,
    vwgt: Vec<u64>,
}

impl WeightedGraph {
    fn with_capacity(nodes: usize, arcs: usize) -> Self {
        let mut xadj = Vec::with_capacity(nodes + 1);
        xadj.push(0);
        let (adjncy, adjwgt) = (Vec::with_capacity(arcs), Vec::with_capacity(arcs));
        Self { xadj, adjncy, adjwgt, vwgt: Vec::with_capacity(nodes) }
    }

    fn push_arc(&mut self, nb: u32, w: u32) {
        self.adjncy.push(nb);
        self.adjwgt.push(w);
    }

    /// The arcs pushed since the last call are node `len()`'s; it weighs `vwgt`.
    fn end_row(&mut self, vwgt: u64) {
        self.vwgt.push(vwgt);
        self.xadj.push(self.adjncy.len() as u32);
    }
}

impl Level for WeightedGraph {
    fn len(&self) -> usize {
        self.vwgt.len()
    }

    fn arc_bound(&self) -> usize {
        self.adjncy.len()
    }

    fn vwgt(&self, v: usize) -> u64 {
        self.vwgt[v]
    }

    fn row(&self, v: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let arcs = self.xadj[v] as usize..self.xadj[v + 1] as usize;
        self.adjncy[arcs.clone()].iter().copied().zip(self.adjwgt[arcs].iter().copied())
    }
}

/// Heavy-edge matching: repeatedly match each unmatched node with its
/// heaviest unmatched neighbour. Returns the mapping old → coarse id and the
/// coarse graph, whose rows are in no particular order: every reader but
/// [`initial_bisection`] (see [`bisect_directly`]) is indifferent to it.
fn coarsen<L: Level>(g: &L, rng: &mut SmallRng) -> (Vec<u32>, WeightedGraph) {
    let n = g.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut mate = vec![u32::MAX; n];
    for &v in &order {
        let v = v as usize;
        if mate[v] != u32::MAX {
            continue;
        }
        // The heaviest unmatched neighbour, the smallest id among equal
        // weights: a choice that does not depend on the row's order.
        let mut best: Option<(u32, u32)> = None;
        for (nb, w) in g.row(v) {
            let free = mate[nb as usize] == u32::MAX && nb as usize != v;
            if free && best.is_none_or(|(bn, bw)| w > bw || (w == bw && nb < bn)) {
                best = Some((nb, w));
            }
        }
        match best {
            Some((nb, _)) => {
                mate[v] = nb;
                mate[nb as usize] = v as u32;
            }
            None => mate[v] = v as u32,
        }
    }
    // Coarse ids follow each pair's first member. Rows are streamed over
    // the nodes in id order and closed into `map[v]` at each pair's second
    // member (or single node) `v`, so the edges of a first member go into
    // whichever row is closed next: coarse rows are not the quotient
    // graph's — they are asymmetric and sometimes carry self-loops.
    // `pairs[c]` = (first member, second member, first node of the span of
    // nodes streamed into `c`).
    let mut map = vec![u32::MAX; n];
    let mut pairs: Vec<(usize, usize, usize)> = Vec::new();
    let mut span_start = 0;
    for v in 0..n {
        let m = mate[v] as usize;
        if map[v] == u32::MAX {
            (map[v], map[m]) = (pairs.len() as u32, pairs.len() as u32);
            pairs.push((v, m, 0));
        }
        if m <= v {
            pairs[map[v] as usize].2 = span_start;
            span_start = v + 1;
        }
    }
    drop((order, mate));
    // Coarse rows are written in place, at most one arc per fine arc, in
    // the order their targets are first touched. `slot[t]` is where target
    // `t`'s arc sits, stamped at that first touch; a slot outside the
    // current row is stale. A touch writes the same way whether `t` is new
    // to the row or not, so no branch hangs on it.
    let arcs = g.arc_bound();
    let (mut adjncy, mut adjwgt) = (vec![0u32; arcs], vec![0u32; arcs]);
    let mut xadj = Vec::with_capacity(pairs.len() + 1);
    xadj.push(0);
    let mut vwgt = Vec::with_capacity(pairs.len());
    let mut slot = vec![usize::MAX; pairs.len()];
    let mut len = 0;
    for &(first, second, span) in &pairs {
        let row = len;
        for u in span..=second {
            let cu = map[u];
            for (nb, w) in g.row(u) {
                let t = map[nb as usize];
                if t == cu {
                    continue;
                }
                let fresh = !(row..len).contains(&slot[t as usize]);
                let s = if fresh { len } else { slot[t as usize] };
                slot[t as usize] = s;
                adjncy[s] = t;
                adjwgt[s] += w;
                len += usize::from(fresh);
            }
        }
        xadj.push(len as u32);
        vwgt.push(g.vwgt(first) + if second == first { 0 } else { g.vwgt(second) });
    }
    // The level is held until uncoarsening returns through it: keep only
    // the arcs it has.
    for a in [&mut adjncy, &mut adjwgt] {
        a.truncate(len);
        a.shrink_to_fit();
    }
    (map, WeightedGraph { xadj, adjncy, adjwgt, vwgt })
}

/// Greedy BFS region growing: grow part 0 from a pseudo-peripheral seed until
/// it holds ~`target` weight.
fn initial_bisection(g: &WeightedGraph, target: u64, rng: &mut SmallRng) -> Vec<u8> {
    let n = g.len();
    let mut side = vec![1u8; n];
    if n == 0 {
        return side;
    }
    let start = rng.gen_range(0..n);
    let mut grown = 0u64;
    let mut queue = std::collections::VecDeque::new();
    let mut visited = vec![false; n];
    // `visited` only turns true, so a restart's scan for the first unvisited
    // node resumes where the previous one stopped.
    let mut unvisited = 0;
    queue.push_back(start);
    visited[start] = true;
    while grown < target {
        let v = match queue.pop_front() {
            Some(v) => v,
            None => match (unvisited..n).find(|&u| !visited[u]) {
                Some(u) => {
                    visited[u] = true;
                    unvisited = u + 1;
                    u
                }
                None => break,
            },
        };
        side[v] = 0;
        grown += g.vwgt[v];
        for (nb, _) in g.row(v) {
            if !visited[nb as usize] {
                visited[nb as usize] = true;
                queue.push_back(nb as usize);
            }
        }
    }
    side
}

/// One boundary-FM refinement pass: move nodes whose gain (reduction in cut)
/// is positive, respecting a balance tolerance.
fn refine<L: Level>(g: &L, side: &mut [u8], target0: u64, tolerance: f64) {
    let n = g.len();
    let mut w0: u64 = (0..n).filter(|&v| side[v] == 0).map(|v| g.vwgt(v)).sum();
    let max0 = (target0 as f64 * (1.0 + tolerance)) as u64;
    let min0 = (target0 as f64 * (1.0 - tolerance)) as u64;
    for _pass in 0..4 {
        let mut moved = false;
        for v in 0..n {
            // External minus internal weight: a sum, so the row's order
            // does not matter.
            let sv = side[v];
            let mut gain = 0i64;
            for (nb, w) in g.row(v) {
                gain += if side[nb as usize] == sv { -i64::from(w) } else { i64::from(w) };
            }
            if gain <= 0 {
                continue;
            }
            // Check balance after the prospective move.
            let (new_w0, ok) = if side[v] == 0 {
                let nw = w0 - g.vwgt(v);
                (nw, nw >= min0)
            } else {
                let nw = w0 + g.vwgt(v);
                (nw, nw <= max0)
            };
            if ok {
                side[v] ^= 1;
                w0 = new_w0;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
}

/// Bisect `g` without coarsening it: BFS region growing from a random seed,
/// then refinement. The BFS is the one reader of a row's order, so it runs
/// over a copy of `g` whose rows ascend; coarse rows come unordered.
fn bisect_directly<L: Level>(g: &L, frac0: f64, rng: &mut SmallRng) -> Vec<u8> {
    let target = (g.total_weight() as f64 * frac0) as u64;
    let mut side = initial_bisection(&g.with_sorted_rows(), target, rng);
    refine(g, &mut side, target.max(1), 0.1);
    side
}

/// Multilevel bisection of a weighted graph; returns the side (0/1) of every
/// node. `frac0` is the weight fraction that should land on side 0.
fn multilevel_bisect<L: Level>(g: &L, frac0: f64, rng: &mut SmallRng) -> Vec<u8> {
    const COARSE_LIMIT: usize = 64;
    if g.len() <= COARSE_LIMIT {
        return bisect_directly(g, frac0, rng);
    }
    let (map, coarse) = coarsen(g, rng);
    // Matching that fails to shrink the graph (e.g. no edges) falls back to
    // a direct partition.
    let coarse_side = if coarse.len() < g.len() {
        multilevel_bisect(&coarse, frac0, rng)
    } else {
        bisect_directly(&coarse, frac0, rng)
    };
    drop(coarse);
    // Project and refine at this level.
    let mut side: Vec<u8> = (0..g.len()).map(|v| coarse_side[map[v] as usize]).collect();
    let target = (g.total_weight() as f64 * frac0) as u64;
    refine(g, &mut side, target.max(1), 0.05);
    side
}

/// The partitioner's entry check: `k` is at least 1, and the input has
/// fewer than 2³² arcs. Levels store arc offsets and arc weights as `u32`,
/// and neither exceeds the input's arc count: a level has at most as many
/// arcs as the one it coarsens, and a coarse arc weighs the input arcs it
/// merges, each of which it takes from no other arc.
///
/// # Panics
///
/// When either does not hold.
fn check_input(k: usize, arcs: usize) {
    assert!(
        k >= 1 && u32::try_from(arcs).is_ok(),
        "partition needs k >= 1 (got {k}) and fewer than 2^32 arcs (got {arcs})"
    );
}

/// Partition `g` into `k` parts of near-equal size by multilevel recursive
/// bisection. Returns the part id of every node, in `0..k`.
///
/// # Panics
///
/// When `k` is 0, or `g` has 2³² arcs or more ([`check_input`]).
pub fn partition(g: &CsrGraph, k: usize, seed: u64) -> Vec<u32> {
    check_input(k, g.num_arcs());
    let n = g.num_nodes();
    let mut assignment = vec![0u32; n];
    if k == 1 || n == 0 {
        return assignment;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut stack = Vec::new();
    split(g, (0..n as u32).collect(), 0, k, &mut rng, &mut stack);
    while let Some((ids, sub, lo, parts)) = stack.pop() {
        if parts == 1 {
            for &v in &ids {
                assignment[v as usize] = lo as u32;
            }
        } else {
            split(&sub, ids, lo, parts, &mut rng, &mut stack);
        }
    }
    assignment
}

/// A bisection half still to be split: its nodes' input ids, its subgraph,
/// its first part id and its number of parts.
type Half = (Vec<u32>, WeightedGraph, usize, usize);

/// Bisect `sub`, whose node `v` is input node `ids[v]`, into the share of
/// parts `lo..lo + parts / 2` and the rest; push both halves onto `stack`.
fn split<L: Level>(sub: &L, ids: Vec<u32>, lo: usize, parts: usize, rng: &mut SmallRng, stack: &mut Vec<Half>) {
    let k0 = parts / 2;
    let side = multilevel_bisect(sub, k0 as f64 / parts as f64, rng);
    // `local[v]`: `v`'s id in its half. `arcs[s]`: the arcs half `s` keeps.
    let mut local = vec![0u32; sub.len()];
    let mut half_ids = [Vec::new(), Vec::new()];
    let mut arcs = [0usize; 2];
    for v in 0..sub.len() {
        let s = side[v];
        local[v] = half_ids[s as usize].len() as u32;
        half_ids[s as usize].push(ids[v]);
        arcs[s as usize] += sub.row(v).filter(|&(nb, _)| side[nb as usize] == s).count();
    }
    drop(ids);
    let half = |s: u8| {
        let mut h = WeightedGraph::with_capacity(half_ids[s as usize].len(), arcs[s as usize]);
        for v in (0..sub.len()).filter(|&v| side[v] == s) {
            for (nb, w) in sub.row(v).filter(|&(nb, _)| side[nb as usize] == s) {
                h.push_arc(local[nb as usize], w);
            }
            h.end_row(sub.vwgt(v));
        }
        h
    };
    let (sub0, sub1) = (half(0), half(1));
    let [ids0, ids1] = half_ids;
    stack.push((ids0, sub0, lo, k0));
    stack.push((ids1, sub1, lo + k0, parts - k0));
}

/// Result of cluster-aware reordering: the paper's node relabelling that makes
/// each cluster a contiguous id range.
#[derive(Clone, Debug)]
pub struct ClusterOrder {
    /// `perm[new_id] = old_id`.
    pub perm: Vec<u32>,
    /// `inverse[old_id] = new_id`.
    pub inverse: Vec<u32>,
    /// Cluster id of each *new* position (non-decreasing).
    pub cluster_of_new: Vec<u32>,
    /// `offsets[c]..offsets[c+1]` is cluster `c`'s new-id range.
    pub offsets: Vec<usize>,
}

impl ClusterOrder {
    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Size of cluster `c`.
    pub fn cluster_size(&self, c: usize) -> usize {
        self.offsets[c + 1] - self.offsets[c]
    }

    /// Cluster containing new id `v`.
    pub fn cluster_of(&self, v: usize) -> u32 {
        self.cluster_of_new[v]
    }
}

/// Build the cluster-grouping permutation from a partition assignment (stable
/// within each cluster, so locality inside communities is preserved).
pub fn cluster_order(assignment: &[u32], k: usize) -> ClusterOrder {
    let n = assignment.len();
    let mut counts = vec![0usize; k];
    for &c in assignment {
        counts[c as usize] += 1;
    }
    let mut offsets = vec![0usize; k + 1];
    for c in 0..k {
        offsets[c + 1] = offsets[c] + counts[c];
    }
    let mut cursor = offsets[..k].to_vec();
    let mut perm = vec![0u32; n];
    let mut inverse = vec![0u32; n];
    for old in 0..n {
        let c = assignment[old] as usize;
        let new = cursor[c];
        cursor[c] += 1;
        perm[new] = old as u32;
        inverse[old] = new as u32;
    }
    let mut cluster_of_new = vec![0u32; n];
    for c in 0..k {
        for slot in offsets[c]..offsets[c + 1] {
            cluster_of_new[slot] = c as u32;
        }
    }
    ClusterOrder { perm, inverse, cluster_of_new, offsets }
}

/// Edge-cut of a partition: number of arcs crossing parts / 2.
pub fn edge_cut(g: &CsrGraph, assignment: &[u32]) -> usize {
    let mut cut = 0usize;
    for v in 0..g.num_nodes() {
        for &nb in g.neighbors(v) {
            if assignment[v] != assignment[nb as usize] {
                cut += 1;
            }
        }
    }
    cut / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{clustered_power_law, path_graph, ClusteredConfig};

    #[test]
    fn partition_covers_all_parts_and_balances() {
        let (g, _) = clustered_power_law(
            ClusteredConfig { n: 1200, communities: 8, avg_degree: 8.0, intra_fraction: 0.9 },
            5,
        );
        let k = 8;
        let assign = partition(&g, k, 1);
        let mut counts = vec![0usize; k];
        for &c in &assign {
            assert!((c as usize) < k);
            counts[c as usize] += 1;
        }
        let avg = 1200 / k;
        for (c, &cnt) in counts.iter().enumerate() {
            assert!(
                cnt > avg / 3 && cnt < avg * 3,
                "part {c} badly imbalanced: {cnt} vs avg {avg}"
            );
        }
    }

    #[test]
    fn partition_recovers_planted_communities_better_than_random() {
        let (g, comm) = clustered_power_law(
            ClusteredConfig { n: 1000, communities: 4, avg_degree: 12.0, intra_fraction: 0.95 },
            7,
        );
        let assign = partition(&g, 4, 2);
        let cut = edge_cut(&g, &assign);
        // Random 4-way assignment cuts ~75% of edges; the planted structure
        // lets the partitioner do far better.
        let total = g.num_edges();
        assert!(
            (cut as f64) < 0.5 * total as f64,
            "cut {cut} of {total} edges — no better than random"
        );
        // Sanity: compare against the planted communities' own cut.
        let planted_cut = edge_cut(&g, &comm);
        assert!(cut as f64 <= planted_cut as f64 * 3.0 + 100.0);
    }

    #[test]
    fn path_graph_bisection_is_contiguousish() {
        let g = path_graph(100);
        let assign = partition(&g, 2, 3);
        // A path's optimal bisection cuts exactly 1 edge; accept ≤ 5.
        assert!(edge_cut(&g, &assign) <= 5, "cut = {}", edge_cut(&g, &assign));
    }

    #[test]
    fn the_entry_check_takes_every_arc_count_below_two_to_the_32() {
        check_input(1, 0);
        check_input(16, u32::MAX as usize);
    }

    #[test]
    #[should_panic(expected = "fewer than 2^32 arcs (got 4294967296)")]
    fn the_entry_check_refuses_two_to_the_32_arcs() {
        check_input(8, 1 << 32);
    }

    #[test]
    #[should_panic(expected = "partition needs k >= 1 (got 0)")]
    fn the_entry_check_refuses_zero_parts() {
        check_input(0, 10);
    }

    #[test]
    fn partition_k1_is_trivial() {
        let g = path_graph(10);
        let assign = partition(&g, 1, 0);
        assert!(assign.iter().all(|&c| c == 0));
    }

    #[test]
    fn partition_is_deterministic() {
        let (g, _) = clustered_power_law(
            ClusteredConfig { n: 400, communities: 4, avg_degree: 6.0, intra_fraction: 0.85 },
            9,
        );
        assert_eq!(partition(&g, 4, 42), partition(&g, 4, 42));
    }

    #[test]
    fn cluster_order_groups_contiguously() {
        let assign = vec![2u32, 0, 1, 0, 2, 1, 0];
        let order = cluster_order(&assign, 3);
        assert_eq!(order.num_clusters(), 3);
        assert_eq!(order.cluster_size(0), 3);
        assert_eq!(order.cluster_size(1), 2);
        assert_eq!(order.cluster_size(2), 2);
        // perm is a permutation.
        let mut seen = vec![false; 7];
        for &old in &order.perm {
            assert!(!seen[old as usize]);
            seen[old as usize] = true;
        }
        // inverse really inverts perm.
        for new in 0..7 {
            assert_eq!(order.inverse[order.perm[new] as usize] as usize, new);
        }
        // cluster_of_new is sorted.
        assert!(order.cluster_of_new.windows(2).all(|w| w[0] <= w[1]));
        // Stability: old ids within a cluster stay in order.
        assert_eq!(&order.perm[0..3], &[1, 3, 6]);
    }

    #[test]
    fn reordered_graph_concentrates_edges_in_diagonal_blocks() {
        let (g, _) = clustered_power_law(
            ClusteredConfig { n: 800, communities: 8, avg_degree: 10.0, intra_fraction: 0.9 },
            13,
        );
        let assign = partition(&g, 8, 1);
        let order = cluster_order(&assign, 8);
        let rg = g.permute(&order.perm);
        // Count arcs within diagonal blocks of the reordered graph.
        let mut diag = 0usize;
        let mut total = 0usize;
        for v in 0..rg.num_nodes() {
            let cv = order.cluster_of(v);
            for &nb in rg.neighbors(v) {
                total += 1;
                if order.cluster_of(nb as usize) == cv {
                    diag += 1;
                }
            }
        }
        assert!(
            diag as f64 / total as f64 > 0.5,
            "diagonal fraction {}",
            diag as f64 / total as f64
        );
    }
}
