//! A checkout/return scratch-buffer arena.
//!
//! The training hot loop needs a handful of intermediates every step —
//! `[s, d]` activations, `[s, s]` score matrices, per-edge and per-row
//! scratch — whose sizes move with the step (a packed batch's row count, a
//! mask's `nnz`, a short last sequence). [`Workspace`] keeps the returned
//! ones in **one free list ordered by capacity**: a checkout takes the
//! smallest idle buffer of its size class that is large enough, otherwise
//! grows the class's largest idle buffer, otherwise allocates. So each class
//! holds as many buffers as were ever out of it at once, each as large as
//! the largest request it served and less than [`SLACK`] times any request
//! of the class: what a trainer keeps follows its largest step, not the
//! number of distinct shapes it has seen (DESIGN.md "Workspace inventory").
//! Once warm, a steady-state step allocates nothing; [`WorkspaceStats`] makes
//! that measurable, and trainers export it as `--metrics` gauges.

use crate::tensor::Tensor;

/// Bytes per `f32`.
const ELEM_BYTES: u64 = 4;

/// Width of a size class: `len` floats are served from capacities in
/// `(top / SLACK, top]`, `top` the power of two at or above `len`. Two,
/// because what varies within a run varies by less — packed batches (151–281
/// rows on `graph_batched`), a short last sequence, per-mask `nnz` — so a
/// role keeps one slot (two if it straddles a boundary) while no buffer is
/// twice its request; and with the power at the *top*, `[1024, d]` and its
/// short sibling `[960, d]` share a class. Fixed classes, not a window that
/// slides with the request: there a grown buffer leaves the reach of the
/// smaller role it also served, which then grows the next one down, and a
/// warm trainer kept allocating every epoch (DESIGN.md has the measurement).
const SLACK: usize = 2;

/// Cumulative counters of a [`Workspace`]. Snapshot before and after a step
/// and subtract to get per-step figures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Bytes freshly allocated because no idle buffer of the class was large
    /// enough (a grown buffer counts in full). Zero across a step means the
    /// step ran allocation-free.
    pub alloc_bytes: u64,
    /// Checkouts served by an idle buffer as it was.
    pub reuse_hits: u64,
    /// Total checkouts (`take*` calls).
    pub checkouts: u64,
    /// High-water mark of bytes simultaneously checked out.
    pub high_water_bytes: u64,
    /// Bytes the arena is answerable for right now: the capacity of every
    /// idle buffer plus the bytes checked out. A gauge, not a counter.
    pub held_bytes: u64,
}

/// What debug builds write into a [`Workspace::take_uninit`] buffer: a
/// signalling NaN with a recognisable payload.
#[cfg(debug_assertions)]
const POISON_BITS: u32 = 0x7fa0_dead;

/// A capacity-ordered free-list arena for [`Tensor`]s and raw `f32`
/// buffers.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Idle `f32` buffers, ascending by capacity; tensors and raw buffers
    /// share it (`Tensor::from_vec` / `into_vec` are free).
    idle: Vec<Vec<f32>>,
    idle_bytes: u64,
    stats: WorkspaceStats,
    out_bytes: u64,
}

impl Workspace {
    /// An empty arena; the free list fills lazily as buffers are returned.
    pub fn new() -> Self {
        Self::default()
    }

    fn note_out(&mut self, bytes: u64) {
        self.stats.checkouts += 1;
        self.out_bytes += bytes;
        self.stats.high_water_bytes = self.stats.high_water_bytes.max(self.out_bytes);
    }

    /// Check out `len` floats: exactly `len` long, all zero when `zeroed`,
    /// otherwise unspecified (a recycled buffer keeps whatever its previous
    /// use, of any shape, left in it).
    fn checkout(&mut self, len: usize, zeroed: bool) -> Vec<f32> {
        self.note_out(len as u64 * ELEM_BYTES);
        // `at` splits the list into too-small | large-enough; the neighbours
        // of the split are the class's best fit and its best candidate to grow.
        let at = self.idle.partition_point(|b| b.capacity() < len);
        let top = len.next_power_of_two();
        let fits = self.idle.get(at).is_some_and(|b| b.capacity() <= top);
        let grows = !fits && at > 0 && self.idle[at - 1].capacity() > top / SLACK;
        if !(fits || grows) {
            self.stats.alloc_bytes += len as u64 * ELEM_BYTES;
            return vec![0.0; len];
        }
        let mut buf = self.idle.remove(if fits { at } else { at - 1 });
        self.idle_bytes -= buf.capacity() as u64 * ELEM_BYTES;
        if fits {
            self.stats.reuse_hits += 1;
        } else {
            self.stats.alloc_bytes += len as u64 * ELEM_BYTES;
            buf.clear(); // nothing worth copying to the new block
            buf.reserve_exact(len);
        }
        if zeroed {
            buf.clear();
        }
        buf.resize(len, 0.0);
        buf
    }

    fn check_in(&mut self, buf: Vec<f32>) {
        self.out_bytes = self.out_bytes.saturating_sub(buf.len() as u64 * ELEM_BYTES);
        self.idle_bytes += buf.capacity() as u64 * ELEM_BYTES;
        // Ahead of its equals, so the most recently returned — the one most
        // likely still in cache — is the next one out.
        let at = self.idle.partition_point(|b| b.capacity() < buf.capacity());
        self.idle.insert(at, buf);
    }

    /// Check out a zeroed `rows × cols` tensor — bit-identical to
    /// `Tensor::zeros(rows, cols)`, recycled when possible. This is the
    /// checkout for accumulators (`+=` targets, scatter buffers).
    pub fn take(&mut self, rows: usize, cols: usize) -> Tensor {
        Tensor::from_vec(rows, cols, self.checkout(rows * cols, true))
    }

    /// Check out a `rows × cols` tensor whose contents are **unspecified**:
    /// same free list and counters as [`Workspace::take`], no fill. Only for
    /// buffers whose kernel writes every element before anything reads one
    /// — GEMM outputs with `accumulate: false`, LayerNorm / GELU / dropout
    /// outputs, the sparse- and flash-attention `out` — never for an
    /// accumulator: what comes back was last used at some other shape, so a
    /// stale read is not even stable from step to step. Debug builds fill it
    /// with a signalling-NaN pattern, so a read-before-write poisons the
    /// result and fails the bit-equality tests under `cargo test`.
    pub fn take_uninit(&mut self, rows: usize, cols: usize) -> Tensor {
        #[allow(unused_mut)]
        let mut t = Tensor::from_vec(rows, cols, self.checkout(rows * cols, false));
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

    /// Return a tensor to the free list, for later checkouts of its size class.
    pub fn give(&mut self, t: Tensor) {
        self.check_in(t.into_vec());
    }

    /// Check out a zeroed `len`-element scratch buffer — the raw-`Vec`
    /// counterpart of [`Workspace::take`] for per-edge / per-row scratch.
    pub fn take_buf(&mut self, len: usize) -> Vec<f32> {
        self.checkout(len, true)
    }

    /// Return a scratch buffer to the free list.
    pub fn give_buf(&mut self, b: Vec<f32>) {
        self.check_in(b);
    }

    /// Current counter values.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats { held_bytes: self.idle_bytes + self.out_bytes, ..self.stats }
    }

    /// Buffers currently sitting idle in the arena (not checked out).
    pub fn pooled(&self) -> usize {
        self.idle.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchgt_compat::proptest::prelude::*;

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
    fn reuse_after_give_and_only_within_the_size_class() {
        let mut ws = Workspace::new();
        let a = ws.take(4, 5);
        let b = ws.take(4, 5); // a is still out: second take must allocate
        assert_eq!((ws.stats().reuse_hits, ws.stats().alloc_bytes), (0, 160));
        ws.give(a);
        ws.give(b);
        let c = ws.take(4, 5);
        assert_eq!(ws.stats().reuse_hits, 1);
        // Another shape of the class (16, 32]: a hit, and the shape is exact.
        let d = ws.take(2, 9);
        assert_eq!((ws.stats().reuse_hits, d.shape(), d.data().len()), (2, (2, 9), 18));
        let e = ws.take(8, 8); // nothing idle: allocates
        assert_eq!((ws.stats().reuse_hits, ws.stats().alloc_bytes), (2, 160 + 256));
        for t in [c, d, e] {
            ws.give(t);
        }
        // Idle capacities are now 20, 20, 64. Seven floats belong to (4, 8]:
        // a fresh allocation, and a fourth buffer.
        let f = ws.take(1, 7);
        assert_eq!((ws.stats().reuse_hits, ws.pooled()), (2, 3));
        // Thirty floats belong to (16, 32] and neither 20 is enough: one is
        // grown — an allocation, but no fifth buffer.
        let g = ws.take(5, 6);
        assert_eq!((ws.stats().reuse_hits, ws.pooled()), (2, 2));
        assert_eq!(ws.stats().alloc_bytes, 160 + 256 + 28 + 120);
        // Sixteen floats are the top of (8, 16]: the idle 20 is not theirs.
        let h = ws.take(1, 16);
        assert_eq!((ws.stats().reuse_hits, ws.pooled()), (2, 2));
        for t in [f, g, h] {
            ws.give(t);
        }
        assert_eq!(ws.stats().held_bytes, (7 + 16 + 20 + 30 + 64) * 4);
        assert_eq!(ws.stats().checkouts, 8);
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

    /// One arena call of a generated trace: `kind` picks the call, `rows` ×
    /// `COLS[cols]` the request, `pick` which held buffer a give returns.
    type Op = (u8, usize, usize, usize);
    const COLS: [usize; 4] = [1, 16, 64, 256];

    fn ops(
        len: std::ops::Range<usize>,
    ) -> collection::VecStrategy<(
        std::ops::Range<u8>,
        std::ops::RangeInclusive<usize>,
        std::ops::Range<usize>,
        std::ops::Range<usize>,
    )> {
        collection::vec((0u8..6, 1usize..=300, 0usize..4, 0usize..64), len)
    }

    fn is_zero(v: &[f32]) -> bool {
        v.iter().all(|x| x.to_bits() == 0)
    }

    /// Run `trace` once against `ws`, checking every checkout's contract and
    /// dirtying everything handed out; all buffers are back at the end.
    fn replay(ws: &mut Workspace, trace: &[Op]) -> Result<(), TestCaseError> {
        let mut tensors: Vec<Tensor> = Vec::new();
        let mut bufs: Vec<Vec<f32>> = Vec::new();
        for &(kind, rows, c, pick) in trace {
            let cols = COLS[c];
            match kind {
                0..=2 => {
                    let mut t = match kind {
                        0 => {
                            let t = ws.take(rows, cols);
                            prop_assert!(is_zero(t.data()), "take({rows}, {cols}) not zeroed");
                            t
                        }
                        1 => {
                            let t = ws.take_uninit(rows, cols);
                            if cfg!(debug_assertions) {
                                prop_assert!(t.data().iter().all(|v| v.is_nan()));
                            }
                            t
                        }
                        _ => {
                            let src = Tensor::full(rows, cols, pick as f32);
                            let t = ws.take_copy(&src);
                            prop_assert_eq!(&t, &src);
                            t
                        }
                    };
                    prop_assert_eq!(t.shape(), (rows, cols));
                    prop_assert_eq!((t.len(), t.data().len()), (rows * cols, rows * cols));
                    t.data_mut().fill(-1.5e30);
                    tensors.push(t);
                }
                3 => {
                    let mut b = ws.take_buf(rows * cols);
                    prop_assert_eq!(b.len(), rows * cols);
                    prop_assert!(is_zero(&b), "take_buf({}) not zeroed", rows * cols);
                    b.fill(f32::NAN);
                    bufs.push(b);
                }
                4 if !tensors.is_empty() => ws.give(tensors.swap_remove(pick % tensors.len())),
                5 if !bufs.is_empty() => ws.give_buf(bufs.swap_remove(pick % bufs.len())),
                _ => {}
            }
        }
        tensors.drain(..).for_each(|t| ws.give(t));
        bufs.drain(..).for_each(|b| ws.give_buf(b));
        Ok(())
    }

    /// Replays after which a looped trace has stopped allocating. The
    /// number of buffers is final after the first replay (a class holds as
    /// many as it ever had out at once); capacities go on growing until
    /// every moment's requests find a buffer of their class that is large
    /// enough, and must stop since each is one of the trace's request sizes.
    /// Over 3,000 generated traces (random sizes, random give order) 66 %
    /// allocated in the first replay only, 91 % were quiet after two, 99.8 %
    /// after five, the slowest after ten; the trainers' step-shaped traces
    /// are quiet within two epochs (`tests/arena_bound.rs`).
    const WARM_REPLAYS: usize = 12;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// (i) zeroed checkouts are zero whatever the buffer held and
        /// whatever shape it had; (ii) shape and length are the request's.
        #[test]
        fn checkouts_honour_their_contract_across_shapes(trace in ops(1..120)) {
            replay(&mut Workspace::new(), &trace)?;
        }

        /// (iii) a looped trace goes allocation-free and stays so.
        #[test]
        fn replayed_trace_stops_allocating(trace in ops(1..120)) {
            let mut ws = Workspace::new();
            for _ in 0..WARM_REPLAYS {
                replay(&mut ws, &trace)?;
            }
            let warm = ws.stats();
            for _ in 0..3 {
                replay(&mut ws, &trace)?;
                prop_assert_eq!(ws.stats().alloc_bytes, warm.alloc_bytes);
                prop_assert_eq!(ws.stats().held_bytes, warm.held_bytes);
            }
        }

    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// (iv) what the arena holds follows the most that was out at once,
        /// not the number of shapes: over hundreds of distinct shapes with
        /// rows drawn from `[n, 2n)` it holds at most `SLACK` times what the
        /// same trace holds with every request rounded up to `2n` rows, i.e.
        /// with one shape per column count — `[n, 2n)` meets at most two
        /// classes, each with no more buffers than were out at once. (The
        /// exact-shape pools this replaced kept one set per distinct row
        /// count: linear in the number of shapes.)
        #[test]
        fn held_bytes_do_not_grow_with_the_number_of_shapes(
            n in 50usize..150,
            trace in ops(300..500),
        ) {
            let (mut mixed, mut rounded) = (Workspace::new(), Workspace::new());
            for shift in 0..4 {
                let rows = |r: usize, round: bool| if round { 2 * n } else { n + (r + 37 * shift) % n };
                let band = |round| -> Vec<Op> {
                    trace.iter().map(|&(k, r, c, p)| (k, rows(r, round), c, p)).collect()
                };
                replay(&mut mixed, &band(false))?;
                replay(&mut rounded, &band(true))?;
            }
            prop_assert!(mixed.pooled() <= SLACK * rounded.pooled());
            prop_assert!(mixed.stats().held_bytes <= SLACK as u64 * rounded.stats().held_bytes);
        }
    }

    /// (v) the poison covers a buffer that comes back from a larger use of
    /// another shape, so a kernel that reads before it writes cannot pass.
    #[test]
    #[cfg(debug_assertions)]
    fn take_uninit_is_poisoned_after_a_larger_dirty_give() {
        let mut ws = Workspace::new();
        let mut big = ws.take(9, 7);
        big.data_mut().fill(3.0);
        ws.give(big);
        let t = ws.take_uninit(4, 10);
        assert_eq!((ws.stats().reuse_hits, t.shape()), (1, (4, 10)));
        assert!(t.data().iter().all(|v| v.is_nan()));
    }
}
