//! Graph packing: batch several small graphs into one training sequence.
//!
//! For graph-level tasks the paper concatenates all nodes of each input
//! graph into a sequence (§II-B); batching packs *multiple* graphs into one
//! sequence with a block-diagonal adjacency, so the attention pattern keeps
//! the graphs independent while the FFN/projection kernels see one big
//! batch. `segments` records each graph's token range for per-graph
//! readout.

use crate::csr::CsrGraph;

/// A batch of graphs packed into one sequence.
#[derive(Clone, Debug)]
pub struct PackedGraphs {
    /// Block-diagonal union of the member graphs.
    pub graph: CsrGraph,
    /// `segments[i] = (start, end)` token range of graph `i`.
    pub segments: Vec<(usize, usize)>,
}

/// Pack graphs into one block-diagonal graph.
pub fn pack_graphs(graphs: &[&CsrGraph]) -> PackedGraphs {
    let total: usize = graphs.iter().map(|g| g.num_nodes()).sum();
    let total_arcs: usize = graphs.iter().map(|g| g.num_arcs()).sum();
    let mut row_ptr = Vec::with_capacity(total + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::with_capacity(total_arcs);
    let mut segments = Vec::with_capacity(graphs.len());
    let mut offset = 0u32;
    for g in graphs {
        let n = g.num_nodes();
        segments.push((offset as usize, offset as usize + n));
        for v in 0..n {
            col_idx.extend(g.neighbors(v).iter().map(|&u| u + offset));
            row_ptr.push(col_idx.len());
        }
        offset += n as u32;
    }
    PackedGraphs { graph: CsrGraph::from_raw(row_ptr, col_idx), segments }
}

/// Mean over each segment of per-token values `[tokens, cols]` row-major;
/// returns `[segments, cols]` row-major. The backward is a broadcast of
/// `1/len` — see [`segment_mean_backward`].
pub fn segment_mean(values: &[f32], cols: usize, segments: &[(usize, usize)]) -> Vec<f32> {
    let mut out = vec![0.0f32; segments.len() * cols];
    segment_mean_into(values, cols, segments, &mut out);
    out
}

/// [`segment_mean`] into a caller-provided `[segments, cols]` buffer, which
/// it fully overwrites.
pub fn segment_mean_into(values: &[f32], cols: usize, segments: &[(usize, usize)], out: &mut [f32]) {
    assert_eq!(out.len(), segments.len() * cols, "segment_mean_into output shape mismatch");
    out.fill(0.0);
    for (s, &(start, end)) in segments.iter().enumerate() {
        let len = (end - start).max(1) as f32;
        for row in start..end {
            for c in 0..cols {
                out[s * cols + c] += values[row * cols + c] / len;
            }
        }
    }
}

/// Backward of [`segment_mean`]: scatter `dout[s] / len(s)` to every token
/// of segment `s`.
pub fn segment_mean_backward(
    dout: &[f32],
    cols: usize,
    segments: &[(usize, usize)],
    tokens: usize,
) -> Vec<f32> {
    let mut dvalues = vec![0.0f32; tokens * cols];
    segment_mean_backward_into(dout, cols, segments, &mut dvalues);
    dvalues
}

/// [`segment_mean_backward`] into a caller-provided `[tokens, cols]` buffer,
/// which it fully overwrites (tokens outside every segment get zero).
pub fn segment_mean_backward_into(
    dout: &[f32],
    cols: usize,
    segments: &[(usize, usize)],
    dvalues: &mut [f32],
) {
    dvalues.fill(0.0);
    for (s, &(start, end)) in segments.iter().enumerate() {
        let inv = 1.0 / (end - start).max(1) as f32;
        for row in start..end {
            for c in 0..cols {
                dvalues[row * cols + c] = dout[s * cols + c] * inv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{cycle_graph, path_graph, star_graph};

    #[test]
    fn packing_preserves_per_graph_edges_and_isolation() {
        let a = path_graph(4);
        let b = cycle_graph(5);
        let c = star_graph(3);
        let packed = pack_graphs(&[&a, &b, &c]);
        assert_eq!(packed.graph.num_nodes(), 12);
        assert_eq!(packed.segments, vec![(0, 4), (4, 9), (9, 12)]);
        // Intra-graph edges survive at their offsets.
        assert!(packed.graph.has_edge(0, 1)); // path
        assert!(packed.graph.has_edge(4, 5)); // cycle start
        assert!(packed.graph.has_edge(8, 4)); // cycle closure (4..9)
        assert!(packed.graph.has_edge(9, 10)); // star hub
        // No cross-graph edges.
        assert!(!packed.graph.has_edge(3, 4));
        assert!(!packed.graph.has_edge(8, 9));
        assert_eq!(
            packed.graph.num_arcs(),
            a.num_arcs() + b.num_arcs() + c.num_arcs()
        );
    }

    #[test]
    fn packed_components_equal_member_count() {
        let a = path_graph(4);
        let b = cycle_graph(5);
        let packed = pack_graphs(&[&a, &b]);
        let (_, comps) = packed.graph.connected_components();
        assert_eq!(comps, 2);
    }

    #[test]
    fn segment_mean_and_backward_roundtrip() {
        let values = [1.0f32, 2.0, 3.0, 4.0, 10.0, 20.0]; // 3 tokens × 2
        let segments = [(0usize, 2usize), (2, 3)];
        let means = segment_mean(&values, 2, &segments);
        assert_eq!(means, vec![2.0, 3.0, 10.0, 20.0]);
        let dout = [1.0f32, 1.0, 2.0, 2.0];
        let dv = segment_mean_backward(&dout, 2, &segments, 3);
        assert_eq!(dv, vec![0.5, 0.5, 0.5, 0.5, 2.0, 2.0]);
    }

    #[test]
    fn empty_segment_is_safe() {
        let values: [f32; 0] = [];
        let segments = [(0usize, 0usize)];
        let means = segment_mean(&values, 2, &segments);
        assert_eq!(means, vec![0.0, 0.0]);
    }
}
