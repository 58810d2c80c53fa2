//! A checkout/return scratch-buffer arena.
//!
//! The training hot loop needs the same handful of intermediate shapes every
//! step — `[s, d]` activations, `[s, s]` score matrices, per-edge and per-row
//! scratch. [`Workspace`] pools them: `take` hands out a zeroed tensor
//! (recycled when a buffer of that shape was returned earlier, freshly
//! allocated otherwise) and `give` returns it for the next step. Once the
//! pools are warm a steady-state step performs zero tensor allocations, and
//! the [`WorkspaceStats`] counters make that measurable: trainers export the
//! per-step `alloc_bytes` delta as a gauge so regressions show up in
//! `--metrics` output.

use crate::tensor::Tensor;
use std::collections::HashMap;

/// Cumulative counters of a [`Workspace`]. Snapshot before and after a step
/// and subtract to get per-step figures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Bytes freshly allocated because no pooled buffer matched (pool
    /// misses). Zero across a step means the step ran allocation-free.
    pub alloc_bytes: u64,
    /// Checkouts served by recycling a pooled buffer.
    pub reuse_hits: u64,
    /// Total checkouts (`take` + `take_buf` calls).
    pub checkouts: u64,
    /// High-water mark of bytes simultaneously checked out.
    pub high_water_bytes: u64,
}

/// What debug builds write into a [`Workspace::take_uninit`] buffer: a
/// signalling NaN with a recognisable payload.
#[cfg(debug_assertions)]
const POISON_BITS: u32 = 0x7fa0_dead;

/// A shape-keyed free-list arena for [`Tensor`]s, raw `f32` buffers and
/// `u32` index lists.
#[derive(Debug, Default)]
pub struct Workspace {
    tensors: HashMap<(usize, usize), Vec<Tensor>>,
    bufs: HashMap<usize, Vec<Vec<f32>>>,
    idx: Vec<Vec<u32>>,
    stats: WorkspaceStats,
    out_bytes: u64,
}

impl Workspace {
    /// An empty arena; pools fill lazily as buffers are returned.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pop a pooled `rows × cols` tensor or allocate a fresh (zeroed) one;
    /// the flag says whether it was recycled and so holds stale values.
    fn checkout(&mut self, rows: usize, cols: usize) -> (Tensor, bool) {
        self.stats.checkouts += 1;
        let bytes = (rows * cols * std::mem::size_of::<f32>()) as u64;
        self.out_bytes += bytes;
        self.stats.high_water_bytes = self.stats.high_water_bytes.max(self.out_bytes);
        match self.tensors.get_mut(&(rows, cols)).and_then(Vec::pop) {
            Some(t) => {
                self.stats.reuse_hits += 1;
                (t, true)
            }
            None => {
                self.stats.alloc_bytes += bytes;
                (Tensor::zeros(rows, cols), false)
            }
        }
    }

    /// Check out a zeroed `rows × cols` tensor — bit-identical to
    /// `Tensor::zeros(rows, cols)`, recycled when possible. This is the
    /// checkout for accumulators (`+=` targets, scatter buffers).
    pub fn take(&mut self, rows: usize, cols: usize) -> Tensor {
        let (mut t, recycled) = self.checkout(rows, cols);
        if recycled {
            t.fill_zero();
        }
        t
    }

    /// Check out a `rows × cols` tensor whose contents are **unspecified**:
    /// same pools and counters as [`Workspace::take`], no fill. Only for
    /// buffers whose kernel writes every element before anything reads one
    /// — GEMM outputs with `accumulate: false`, LayerNorm / GELU / dropout
    /// outputs, the sparse- and flash-attention `out` — never for an
    /// accumulator. Debug builds fill the buffer with a signalling-NaN
    /// pattern, so a read-before-write poisons the result and fails the
    /// bit-equality tests under `cargo test`.
    pub fn take_uninit(&mut self, rows: usize, cols: usize) -> Tensor {
        #[allow(unused_mut)]
        let (mut t, _) = self.checkout(rows, cols);
        #[cfg(debug_assertions)]
        t.data_mut().fill(f32::from_bits(POISON_BITS));
        t
    }

    /// Check out a copy of `src` — how a layer that is only lent its input
    /// keeps it for backward without owning a buffer of its own.
    pub fn take_copy(&mut self, src: &Tensor) -> Tensor {
        let mut t = self.take_uninit(src.rows(), src.cols());
        t.data_mut().copy_from_slice(src.data());
        t
    }

    /// Return a tensor to the pool for a later [`Workspace::take`] of the
    /// same shape.
    pub fn give(&mut self, t: Tensor) {
        let bytes = (t.len() * std::mem::size_of::<f32>()) as u64;
        self.out_bytes = self.out_bytes.saturating_sub(bytes);
        self.tensors.entry(t.shape()).or_default().push(t);
    }

    /// Check out a zeroed `len`-element scratch buffer — the raw-`Vec`
    /// counterpart of [`Workspace::take`] for per-edge / per-row scratch.
    pub fn take_buf(&mut self, len: usize) -> Vec<f32> {
        self.stats.checkouts += 1;
        let bytes = (len * std::mem::size_of::<f32>()) as u64;
        self.out_bytes += bytes;
        self.stats.high_water_bytes = self.stats.high_water_bytes.max(self.out_bytes);
        if let Some(mut b) = self.bufs.get_mut(&len).and_then(Vec::pop) {
            self.stats.reuse_hits += 1;
            b.iter_mut().for_each(|v| *v = 0.0);
            b
        } else {
            self.stats.alloc_bytes += bytes;
            vec![0.0; len]
        }
    }

    /// Return a scratch buffer to the pool.
    pub fn give_buf(&mut self, b: Vec<f32>) {
        let bytes = (b.len() * std::mem::size_of::<f32>()) as u64;
        self.out_bytes = self.out_bytes.saturating_sub(bytes);
        self.bufs.entry(b.len()).or_default().push(b);
    }

    /// Check out an **empty** index list with room for at least `capacity`
    /// entries (a sparse row's column list), recycled when a returned list
    /// is large enough.
    pub fn take_idx(&mut self, capacity: usize) -> Vec<u32> {
        self.stats.checkouts += 1;
        let list = match self.idx.iter().position(|l| l.capacity() >= capacity) {
            Some(at) => {
                self.stats.reuse_hits += 1;
                let mut list = self.idx.swap_remove(at);
                list.clear();
                list
            }
            None => {
                self.stats.alloc_bytes += (capacity * std::mem::size_of::<u32>()) as u64;
                Vec::with_capacity(capacity)
            }
        };
        self.out_bytes += (list.capacity() * std::mem::size_of::<u32>()) as u64;
        self.stats.high_water_bytes = self.stats.high_water_bytes.max(self.out_bytes);
        list
    }

    /// Return an index list to the pool.
    pub fn give_idx(&mut self, list: Vec<u32>) {
        let bytes = (list.capacity() * std::mem::size_of::<u32>()) as u64;
        self.out_bytes = self.out_bytes.saturating_sub(bytes);
        self.idx.push(list);
    }

    /// Current counter values.
    pub fn stats(&self) -> WorkspaceStats {
        self.stats
    }

    /// Buffers currently sitting in the pools (not checked out).
    pub fn pooled(&self) -> usize {
        self.tensors.values().map(Vec::len).sum::<usize>()
            + self.bufs.values().map(Vec::len).sum::<usize>()
            + self.idx.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_like_tensor_zeros() {
        let mut ws = Workspace::new();
        let mut t = ws.take(2, 3);
        assert_eq!(t, Tensor::zeros(2, 3));
        t.data_mut().iter_mut().for_each(|v| *v = 7.0);
        ws.give(t);
        // The recycled buffer comes back zeroed even though it was dirty.
        let t2 = ws.take(2, 3);
        assert_eq!(t2, Tensor::zeros(2, 3));
    }

    #[test]
    fn take_uninit_shares_pools_and_counters_with_take() {
        let mut ws = Workspace::new();
        let mut t = ws.take_uninit(2, 3);
        t.data_mut().fill(7.0);
        ws.give(t);
        let t = ws.take_uninit(2, 3);
        assert_eq!(ws.stats().checkouts, 2);
        assert_eq!(ws.stats().reuse_hits, 1);
        assert_eq!(ws.stats().alloc_bytes, 24);
        // Debug builds poison the buffer; release builds hand back whatever
        // it held.
        if cfg!(debug_assertions) {
            assert!(t.data().iter().all(|v| v.is_nan()));
        } else {
            assert_eq!(t.data(), &[7.0; 6]);
        }
        ws.give(t);
        // A zeroed checkout of the same shape still comes back zeroed.
        assert_eq!(ws.take(2, 3), Tensor::zeros(2, 3));
    }

    #[test]
    fn reuse_only_after_give_and_only_same_shape() {
        let mut ws = Workspace::new();
        let a = ws.take(4, 4);
        let b = ws.take(4, 4); // a is still out: second take must allocate
        assert_eq!(ws.stats().reuse_hits, 0);
        ws.give(a);
        ws.give(b);
        let _c = ws.take(4, 4);
        assert_eq!(ws.stats().reuse_hits, 1);
        let _d = ws.take(4, 5); // different shape: pool miss
        assert_eq!(ws.stats().reuse_hits, 1);
        assert_eq!(ws.stats().checkouts, 4);
    }

    #[test]
    fn alloc_bytes_goes_quiet_once_warm() {
        let mut ws = Workspace::new();
        for _ in 0..3 {
            let t = ws.take(8, 8);
            let b = ws.take_buf(16);
            ws.give(t);
            ws.give_buf(b);
        }
        let warm = ws.stats().alloc_bytes;
        assert_eq!(warm, (8 * 8 + 16) * 4);
        let t = ws.take(8, 8);
        let b = ws.take_buf(16);
        ws.give(t);
        ws.give_buf(b);
        assert_eq!(ws.stats().alloc_bytes, warm, "warm steps must not allocate");
    }

    #[test]
    fn bufs_come_back_zeroed() {
        let mut ws = Workspace::new();
        let mut b = ws.take_buf(5);
        b.fill(3.0);
        ws.give_buf(b);
        assert_eq!(ws.take_buf(5), vec![0.0; 5]);
    }

    #[test]
    fn index_lists_come_back_empty_and_stop_allocating() {
        let mut ws = Workspace::new();
        let mut cols = ws.take_idx(8);
        assert!(cols.is_empty() && cols.capacity() >= 8);
        cols.extend([3, 1, 2]);
        ws.give_idx(cols);
        let warm = ws.stats().alloc_bytes;
        let cols = ws.take_idx(8);
        assert!(cols.is_empty() && cols.capacity() >= 8);
        assert_eq!(ws.stats().alloc_bytes, warm, "a returned list must be reused");
    }

    #[test]
    fn high_water_tracks_peak_checkout() {
        let mut ws = Workspace::new();
        let a = ws.take(1, 8); // 32 bytes out
        let b = ws.take(1, 8); // 64 bytes out — the peak
        ws.give(a);
        ws.give(b);
        let _ = ws.take(1, 8); // back to 32 out
        assert_eq!(ws.stats().high_water_bytes, 64);
        assert_eq!(ws.pooled(), 1);
    }
}
