//! Cluster-aware Graph Parallelism — the distributed execution path
//! (paper §III-C).
//!
//! Sequence shards live on each rank; two all-to-all collectives per
//! attention call re-layout `[S/P, d]` shards into `[S, d/P]` head shards
//! and back (the DeepSpeed-Ulysses layout the paper builds on), so every
//! rank computes the *complete* sequence for a slice of heads — which is
//! exactly what lets the topology-induced sparse pattern apply unchanged.
//! The collectives here move real data between rank threads; the α–β model
//! in `torchgt-comm` provides the simulated time.

use torchgt_comm::{Communicator, DeviceGroup, PendingCollective};
use torchgt_graph::CsrGraph;
use torchgt_model::attention;
use torchgt_tensor::Tensor;

/// Column-slice a local `[S/P, d]` shard into the `P` per-peer chunks of the
/// sequence→head relayout (chunk `j` = our rows, head-block `j`).
fn head_chunks(local: &Tensor, p: usize) -> Vec<Vec<f32>> {
    let (_s_local, d) = local.shape();
    assert_eq!(d % p, 0, "hidden dim must divide world size");
    let d_local = d / p;
    (0..p)
        .map(|j| {
            let block = local.slice_cols(j * d_local, (j + 1) * d_local);
            block.into_vec()
        })
        .collect()
}

/// Stack the all-to-all results of a sequence→head relayout into the full
/// `[S, d/P]` head shard (received[r] = rank r's rows for our head block,
/// stacked in rank order).
fn assemble_head_shard(received: Vec<Vec<f32>>, s_local: usize, d_local: usize) -> Tensor {
    let parts: Vec<Tensor> = received
        .into_iter()
        .map(|buf| {
            let rows = buf.len() / d_local;
            Tensor::from_vec(rows, d_local, buf)
        })
        .collect();
    let refs: Vec<&Tensor> = parts.iter().collect();
    let full = Tensor::vstack(&refs);
    assert_eq!(full.rows(), s_local * parts.len());
    full
}

/// An in-flight sequence→head relayout started by [`shard_to_heads_begin`].
/// Must be awaited; dropping it un-awaited panics (via the underlying
/// [`PendingCollective`]).
pub(crate) struct PendingRelayout<'c> {
    pending: PendingCollective<'c, Vec<Vec<f32>>>,
    s_local: usize,
    d_local: usize,
}

impl PendingRelayout<'_> {
    /// Complete the relayout: receive the peers' chunks and assemble the
    /// `[S, d/P]` head shard.
    fn wait(self) -> Tensor {
        let (s_local, d_local) = (self.s_local, self.d_local);
        assemble_head_shard(self.pending.wait(), s_local, d_local)
    }
}

/// Start re-laying a local `[S/P, d]` shard out as `[S, d/P]` (full
/// sequence, this rank's head block) via all-to-all, without blocking: the
/// chunk slicing happens now, the sends go out in the background, and the
/// caller does independent work (e.g. slicing the *next* operand) before
/// calling [`PendingRelayout::wait`].
pub(crate) fn shard_to_heads_begin<'c>(comm: &'c Communicator, local: &Tensor) -> PendingRelayout<'c> {
    let p = comm.world_size();
    let (s_local, d) = local.shape();
    let chunks = head_chunks(local, p);
    PendingRelayout { pending: comm.all_to_all_begin(chunks), s_local, d_local: d / p }
}

/// Inverse re-layout: `[S, d/P]` head shard back to the local `[S/P, d]`
/// sequence shard via all-to-all.
pub(crate) fn heads_to_shard(comm: &Communicator, heads_block: &Tensor) -> Tensor {
    let p = comm.world_size();
    let (s, _d_local) = heads_block.shape();
    assert_eq!(s % p, 0);
    let s_local = s / p;
    let chunks: Vec<Vec<f32>> = (0..p)
        .map(|j| heads_block.slice_rows(j * s_local, (j + 1) * s_local).into_vec())
        .collect();
    let received = comm.all_to_all(chunks);
    let parts: Vec<Tensor> = received
        .into_iter()
        .map(|buf| Tensor::from_vec(s_local, buf.len() / s_local, buf))
        .collect();
    let refs: Vec<&Tensor> = parts.iter().collect();
    Tensor::hstack(&refs)
}

/// Distributed sparse attention: every rank holds `[S/P, d]` shards of
/// already-projected Q/K/V; the mask (graph topology) is replicated — the
/// paper's observation that graph encodings share the attention layout, so
/// replicating them costs only `O(E)`.
///
/// Returns this rank's `[S/P, d]` output shard.
pub fn parallel_sparse_attention(
    comm: &Communicator,
    q_shard: &Tensor,
    k_shard: &Tensor,
    v_shard: &Tensor,
    total_heads: usize,
    mask: &CsrGraph,
) -> Tensor {
    let p = comm.world_size();
    assert_eq!(total_heads % p, 0, "heads must divide world size");
    let heads_local = total_heads / p;
    let (q, k, v) = relayout_qkv(comm, q_shard, k_shard, v_shard);
    let out = attention::sparse(&q, &k, &v, heads_local, mask, None).out;
    heads_to_shard(comm, &out)
}

/// Run the three Q/K/V sequence→head relayouts pipelined: K's chunk
/// slicing happens while Q's all-to-all is in flight, V's while K's is, and
/// Q's assembly overlaps both. Handles are awaited in issue order, so
/// per-peer FIFO keeps each relayout's receives matched to its sends and
/// the assembled tensors are bit-identical to three blocking relayouts.
fn relayout_qkv(
    comm: &Communicator,
    q_shard: &Tensor,
    k_shard: &Tensor,
    v_shard: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let qp = shard_to_heads_begin(comm, q_shard);
    let kp = shard_to_heads_begin(comm, k_shard);
    let vp = shard_to_heads_begin(comm, v_shard);
    (qp.wait(), kp.wait(), vp.wait())
}

/// Run distributed sparse attention over `p` simulated ranks and reassemble
/// the full `[S, d]` output (driver used by examples, tests and benches).
pub fn run_distributed_attention(
    p: usize,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    mask: &CsrGraph,
) -> Tensor {
    let (s, _d) = q.shape();
    assert_eq!(s % p, 0, "sequence must divide world size");
    let s_local = s / p;
    let group = DeviceGroup::new(p);
    let shards = group.run(|comm| {
        let r = comm.rank();
        let qs = q.slice_rows(r * s_local, (r + 1) * s_local);
        let ks = k.slice_rows(r * s_local, (r + 1) * s_local);
        let vs = v.slice_rows(r * s_local, (r + 1) * s_local);
        parallel_sparse_attention(&comm, &qs, &ks, &vs, heads, mask)
    });
    let refs: Vec<&Tensor> = shards.iter().collect();
    Tensor::vstack(&refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchgt_graph::generators::{clustered_power_law, ClusteredConfig};
    use torchgt_sparse::topology_mask;
    use torchgt_tensor::gradcheck::max_abs_diff;
    use torchgt_tensor::init;

    fn fixture(s: usize, d: usize) -> (Tensor, Tensor, Tensor, CsrGraph) {
        let (g, _) = clustered_power_law(
            ClusteredConfig { n: s, communities: 4, avg_degree: 6.0, intra_fraction: 0.8 },
            9,
        );
        let mask = topology_mask(&g, true);
        (
            init::normal(s, d, 0.0, 1.0, 1),
            init::normal(s, d, 0.0, 1.0, 2),
            init::normal(s, d, 0.0, 1.0, 3),
            mask,
        )
    }

    #[test]
    fn shard_roundtrip_is_identity() {
        let p = 4;
        let full = init::normal(32, 8, 0.0, 1.0, 5);
        let group = DeviceGroup::new(p);
        let shards = group.run(|comm| {
            let r = comm.rank();
            let local = full.slice_rows(r * 8, (r + 1) * 8);
            let heads = shard_to_heads_begin(&comm, &local).wait();
            heads_to_shard(&comm, &heads)
        });
        for (r, shard) in shards.iter().enumerate() {
            let expect = full.slice_rows(r * 8, (r + 1) * 8);
            assert_eq!(shard.data(), expect.data(), "rank {r}");
        }
    }

    #[test]
    fn distributed_sparse_matches_single_device() {
        let (q, k, v, mask) = fixture(48, 16);
        let single = attention::sparse(&q, &k, &v, 4, &mask, None).out;
        for p in [2usize, 4] {
            let dist = run_distributed_attention(p, &q, &k, &v, 4, &mask);
            assert!(
                max_abs_diff(&single, &dist) < 1e-4,
                "P={p} diff {}",
                max_abs_diff(&single, &dist)
            );
        }
    }

    #[test]
    fn comm_volume_matches_o_s_over_p() {
        // §III-C: per-GPU all-to-all volume is 4·S·d/P per attention call
        // (3 inbound Q/K/V + 1 outbound). Own-rank chunks never cross the
        // wire, so the measured volume is that times (P−1)/P.
        let (q, k, v, mask) = fixture(64, 16);
        let p = 4;
        let s_local = 64 / p;
        let group = DeviceGroup::new(p);
        group.run(|comm| {
            let r = comm.rank();
            let qs = q.slice_rows(r * s_local, (r + 1) * s_local);
            let ks = k.slice_rows(r * s_local, (r + 1) * s_local);
            let vs = v.slice_rows(r * s_local, (r + 1) * s_local);
            parallel_sparse_attention(&comm, &qs, &ks, &vs, 4, &mask)
        });
        let expected_per_rank = 4 * s_local * 16 * 4; // bytes, 4 all-to-alls
        let cross_fraction = (p - 1) as f64 / p as f64;
        let expected_total = (expected_per_rank * p) as f64 * cross_fraction;
        let measured = group.stats().bytes_sent() as f64;
        assert!(
            (measured - expected_total).abs() / expected_total < 0.01,
            "measured {measured}, expected {expected_total}"
        );
    }
}
