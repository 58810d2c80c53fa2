//! Elastic Computation Reformation (paper §III-D).
//!
//! Takes the clustered attention layout and compacts *sparse* clusters into
//! dense `d_b × d_b` sub-blocks ("cluster sparsity"), trading a small, bounded
//! modification of the attention pattern for contiguous memory access. Dense
//! clusters (typically the diagonal ones) are left untouched.
//!
//! The transfer is governed by a sparsity threshold `β_thre`: clusters whose
//! sparsity `β_C < β_thre` are transferred. `β_thre = β_G` is the paper's
//! *indolent* strategy; the Auto Tuner (runtime crate) moves `β_thre` through
//! `{0, β_G, 1.5β_G, 5β_G, 7β_G, 10β_G, 1}` during training (*elastic*).

use crate::layout::{access_profile, AccessProfile};
use torchgt_graph::partition::ClusterOrder;
use torchgt_graph::CsrGraph;

torchgt_compat::json_struct! {
    /// Configuration of a reformation pass.
    #[derive(Clone, Copy, Debug)]
    pub struct ReformConfig {
        /// Sub-block dimension `d_b` (the paper fits 16 for RTX 3090, hidden 64).
        pub db: usize,
        /// Transfer threshold `β_thre`: clusters sparser than this are
        /// compacted.
        pub beta_thre: f64,
    }
}

impl ReformConfig {
    /// Indolent strategy: `β_thre = β_G` (only clusters sparser than the
    /// whole graph are transferred).
    pub fn indolent(graph_sparsity: f64, db: usize) -> Self {
        Self { db, beta_thre: graph_sparsity }
    }
}

torchgt_compat::json_struct! {
    /// Statistics of one reformation pass.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct ReformStats {
        /// Number of nonempty cluster pairs examined.
        pub clusters_total: usize,
        /// Cluster pairs transferred to sub-block form.
        pub clusters_transferred: usize,
        /// Arcs (mask nonzeros) before reformation.
        pub nnz_before: usize,
        /// Arcs after reformation (sub-blocks may add or merge entries).
        pub nnz_after: usize,
        /// Original arcs still present afterwards (pattern recall; 1.0 means no
        /// connectivity loss).
        pub edge_recall: f64,
        /// Sub-blocks created across all transferred clusters.
        pub sub_blocks: usize,
    }
}

/// Result of reformation: the new attention mask plus bookkeeping.
#[derive(Clone, Debug)]
pub struct ReformedLayout {
    /// The cluster-sparse attention mask (self-loops always preserved —
    /// condition C1).
    pub mask: CsrGraph,
    /// Sub-block dimension the pass ran with (`ReformConfig::db`).
    pub db: usize,
    /// Transfer statistics.
    pub stats: ReformStats,
}

impl ReformedLayout {
    /// Memory-access profile of the reformed mask.
    pub fn profile(&self) -> AccessProfile {
        access_profile(&self.mask)
    }
}

/// Run the reformation on a graph already permuted into cluster order.
///
/// `graph` must be the *permuted* adjacency (node ids grouped by cluster —
/// see [`torchgt_graph::partition::cluster_order`]); `order` supplies the
/// cluster boundaries.
pub fn reform(graph: &CsrGraph, order: &ClusterOrder, cfg: ReformConfig) -> ReformedLayout {
    let k = order.num_clusters();
    let db = cfg.db.max(1);
    let nnz_before = graph.num_arcs();
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(nnz_before / 2 + graph.num_nodes());
    let mut stats = ReformStats { nnz_before, ..Default::default() };

    // Collect the per-cluster-pair edge lists (ordered arcs with row < all
    // handled once: we process ordered pairs (i, j) and emit arcs once per
    // unordered pair by only taking row <= col arcs, then symmetrising in the
    // final CSR build).
    let mut cluster_edges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); k * k];
    for v in 0..graph.num_nodes() {
        let ci = order.cluster_of(v) as usize;
        for &nb in graph.neighbors(v) {
            if (nb as usize) < v {
                continue; // handle each undirected edge once
            }
            let cj = order.cluster_of(nb as usize) as usize;
            cluster_edges[ci * k + cj].push((v as u32, nb));
        }
    }

    for i in 0..k {
        for j in i..k {
            // Merge the (i,j) and (j,i) buckets (row<=col arcs can land in
            // either depending on which endpoint had the smaller id).
            let list: Vec<(u32, u32)> = if i == j {
                cluster_edges[i * k + j].clone()
            } else {
                let mut l = cluster_edges[i * k + j].clone();
                l.extend(cluster_edges[j * k + i].iter().copied());
                l
            };
            if list.is_empty() {
                continue;
            }
            stats.clusters_total += 1;
            let rows = order.cluster_size(i);
            let cols = order.cluster_size(j);
            let cells = (rows * cols).max(1);
            // β_C counts arcs in both directions for off-diagonal clusters.
            let arc_count = if i == j { list.len() * 2 } else { list.len() } as f64;
            let beta_c = arc_count / cells as f64;
            if beta_c >= cfg.beta_thre {
                // Dense enough: keep as-is.
                edges.extend_from_slice(&list);
                continue;
            }
            // Transfer: compact the scattered edges into dense sub-blocks.
            stats.clusters_transferred += 1;
            let m = list.len();
            let per_block = db * db;
            let nblocks = m.div_ceil(per_block);
            stats.sub_blocks += nblocks;
            let row_base = order.offsets[i];
            let col_base = order.offsets[j];
            let db_r = db.min(rows);
            let db_c = db.min(cols);
            // Anchor each sub-block at the centroid of the edges it absorbs,
            // clamped inside the cluster — deterministic and
            // locality-preserving (edges move to *adjacent* positions, as in
            // the paper's Figure 4).
            let chunk = m.div_ceil(nblocks);
            for block in list.chunks(chunk) {
                let mean_r = block.iter().map(|&(r, _)| r as usize).sum::<usize>() / block.len();
                let mean_c = block.iter().map(|&(_, c)| c as usize).sum::<usize>() / block.len();
                let r0 = mean_r
                    .saturating_sub(db_r / 2)
                    .max(row_base)
                    .min(row_base + rows - db_r);
                let c0 = mean_c
                    .saturating_sub(db_c / 2)
                    .max(col_base)
                    .min(col_base + cols - db_c);
                for dr in 0..db_r {
                    for dc in 0..db_c {
                        edges.push(((r0 + dr) as u32, (c0 + dc) as u32));
                    }
                }
            }
        }
    }

    // Always preserve self-attention (C1).
    let n = graph.num_nodes();
    for v in 0..n as u32 {
        edges.push((v, v));
    }
    let mask = CsrGraph::from_edges(n, &edges);
    stats.nnz_after = mask.num_arcs();

    // Pattern recall: how many original arcs survived.
    let mut kept = 0usize;
    for v in 0..n {
        for &nb in graph.neighbors(v) {
            if mask.has_edge(v, nb as usize) {
                kept += 1;
            }
        }
    }
    stats.edge_recall = if nnz_before > 0 { kept as f64 / nnz_before as f64 } else { 1.0 };

    ReformedLayout { mask, db, stats }
}

/// Like [`reform`], but reports the pass to an observability recorder: one
/// [`torchgt_obs::Event::reform`] event (cluster density, sub-block count,
/// compaction ratio, edge recall) plus a `reform/compaction_ratio` gauge.
pub fn reform_recorded(
    graph: &CsrGraph,
    order: &ClusterOrder,
    cfg: ReformConfig,
    recorder: &torchgt_obs::RecorderHandle,
) -> ReformedLayout {
    let out = reform(graph, order, cfg);
    if recorder.enabled() {
        let s = &out.stats;
        recorder.event(torchgt_obs::Event::reform(
            s.clusters_total,
            s.clusters_transferred,
            s.sub_blocks,
            s.nnz_before,
            s.nnz_after,
            s.edge_recall,
        ));
        if s.nnz_before > 0 {
            recorder.gauge_set("reform/compaction_ratio", s.nnz_after as f64 / s.nnz_before as f64);
        }
    }
    out
}

/// The paper's β_thre candidate ladder `{0, β_G, 1.5β_G, 5β_G, 7β_G, 10β_G, 1}`
/// (§III-D, Hyperparameter Modeling).
pub fn beta_ladder(beta_g: f64) -> [f64; 7] {
    [0.0, beta_g, 1.5 * beta_g, 5.0 * beta_g, 7.0 * beta_g, 10.0 * beta_g, 1.0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchgt_graph::generators::{clustered_power_law, ClusteredConfig};
    use torchgt_graph::partition::{cluster_order, partition};

    fn clustered_fixture(n: usize, k: usize, seed: u64) -> (CsrGraph, ClusterOrder) {
        let (g, _) = clustered_power_law(
            ClusteredConfig {
                n,
                communities: k,
                avg_degree: 8.0,
                intra_fraction: 0.85,
            },
            seed,
        );
        let assign = partition(&g, k, seed);
        let order = cluster_order(&assign, k);
        (g.permute(&order.perm), order)
    }

    #[test]
    fn beta_zero_transfers_nothing() {
        let (g, order) = clustered_fixture(400, 4, 1);
        let r = reform(&g, &order, ReformConfig { db: 8, beta_thre: 0.0 });
        assert_eq!(r.stats.clusters_transferred, 0);
        assert!((r.stats.edge_recall - 1.0).abs() < 1e-12);
        // Mask = original + self-loops.
        for v in 0..g.num_nodes() {
            assert!(r.mask.has_edge(v, v));
            for &nb in g.neighbors(v) {
                assert!(r.mask.has_edge(v, nb as usize));
            }
        }
    }

    #[test]
    fn beta_one_transfers_everything_nonempty() {
        let (g, order) = clustered_fixture(400, 4, 2);
        let r = reform(&g, &order, ReformConfig { db: 8, beta_thre: 1.0 });
        assert_eq!(r.stats.clusters_transferred, r.stats.clusters_total);
        assert!(r.stats.sub_blocks > 0);
        // Recall drops below 1 but compactness rises: fewer, longer runs.
        let before = access_profile(&g);
        let after = r.profile();
        assert!(
            after.avg_run_len > before.avg_run_len,
            "expected longer runs: {} vs {}",
            after.avg_run_len,
            before.avg_run_len
        );
    }

    #[test]
    fn indolent_transfers_only_sub_graph_sparsity_clusters() {
        let (g, order) = clustered_fixture(600, 6, 3);
        let cfg = ReformConfig::indolent(g.sparsity(), 8);
        let r = reform(&g, &order, cfg);
        // Diagonal clusters are denser than β_G on a clustered graph, so
        // some clusters must be kept.
        assert!(r.stats.clusters_transferred < r.stats.clusters_total);
        // High recall: the diagonal (majority of edges) untouched.
        assert!(r.stats.edge_recall > 0.5, "recall {}", r.stats.edge_recall);
    }

    #[test]
    fn higher_threshold_transfers_more() {
        let (g, order) = clustered_fixture(600, 6, 4);
        let bg = g.sparsity();
        let mut last = 0usize;
        for beta in [bg, 5.0 * bg, 1.0] {
            let r = reform(&g, &order, ReformConfig { db: 8, beta_thre: beta });
            assert!(
                r.stats.clusters_transferred >= last,
                "monotonicity broken at beta={beta}"
            );
            last = r.stats.clusters_transferred;
        }
        assert!(last > 0);
    }

    #[test]
    fn self_loops_always_present_after_reform() {
        let (g, order) = clustered_fixture(300, 4, 5);
        let r = reform(&g, &order, ReformConfig { db: 4, beta_thre: 1.0 });
        for v in 0..g.num_nodes() {
            assert!(r.mask.has_edge(v, v), "missing self loop at {v}");
        }
    }

    #[test]
    fn sub_blocks_stay_inside_their_cluster() {
        let (g, order) = clustered_fixture(400, 4, 6);
        let r = reform(&g, &order, ReformConfig { db: 8, beta_thre: 1.0 });
        // Every mask edge must connect clusters that originally had edges or
        // be a self-loop; and must lie inside the k×k cluster grid cells that
        // were populated.
        let k = order.num_clusters();
        let mut populated = vec![false; k * k];
        for v in 0..g.num_nodes() {
            let ci = order.cluster_of(v) as usize;
            for &nb in g.neighbors(v) {
                let cj = order.cluster_of(nb as usize) as usize;
                populated[ci * k + cj] = true;
                populated[cj * k + ci] = true;
            }
        }
        for v in 0..r.mask.num_nodes() {
            let ci = order.cluster_of(v) as usize;
            for &nb in r.mask.neighbors(v) {
                if nb as usize == v {
                    continue;
                }
                let cj = order.cluster_of(nb as usize) as usize;
                assert!(
                    populated[ci * k + cj],
                    "reform invented edges in empty cluster ({ci},{cj})"
                );
            }
        }
    }

    #[test]
    fn nnz_is_roughly_preserved() {
        let (g, order) = clustered_fixture(500, 4, 7);
        let r = reform(&g, &order, ReformConfig { db: 8, beta_thre: 1.0 });
        // Sub-block packing keeps the pattern size within ~2.5× of the
        // original (padding to full blocks, plus self loops).
        assert!(r.stats.nnz_after < r.stats.nnz_before * 5 / 2 + g.num_nodes() * 2);
        assert!(r.stats.nnz_after > r.stats.nnz_before / 4);
    }

    #[test]
    fn reform_recorded_emits_matching_event() {
        use std::sync::Arc;
        use torchgt_obs::{Event, MemoryRecorder, RecorderHandle};
        let (g, order) = clustered_fixture(400, 4, 8);
        let mem = Arc::new(MemoryRecorder::default());
        let rec: RecorderHandle = mem.clone();
        let r = reform_recorded(&g, &order, ReformConfig { db: 8, beta_thre: 1.0 }, &rec);
        let report = mem.report();
        let events = report.events_of(Event::REFORM);
        assert_eq!(events.len(), 1);
        let e = events[0];
        assert_eq!(e.num("clusters_total"), Some(r.stats.clusters_total as f64));
        assert_eq!(e.num("nnz_after"), Some(r.stats.nnz_after as f64));
        assert_eq!(
            e.num("compaction_ratio"),
            Some(r.stats.nnz_after as f64 / r.stats.nnz_before as f64)
        );
        assert_eq!(report.gauges[0].name, "reform/compaction_ratio");
        // A disabled recorder records nothing and still reforms identically.
        let quiet = reform_recorded(&g, &order, ReformConfig { db: 8, beta_thre: 1.0 }, &torchgt_obs::noop());
        assert_eq!(quiet.stats.nnz_after, r.stats.nnz_after);
    }

    #[test]
    fn ladder_matches_paper() {
        let l = beta_ladder(0.01);
        assert_eq!(l[0], 0.0);
        assert!((l[2] - 0.015).abs() < 1e-12);
        assert_eq!(l[6], 1.0);
        assert!(l.windows(2).all(|w| w[0] <= w[1]));
    }
}
