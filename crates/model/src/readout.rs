//! A block stack run for the rows its caller reads.
//!
//! Every op of a [`TransformerBlock`] maps row `i` of its input to row `i`
//! of its output except attention, and attention computes row `i` from its
//! own query row and the key/value rows it attends to — under a sparse
//! pattern those of `mask.neighbors(i)`, in stored order, under flash all of
//! them. So a block's output at some rows depends only on its input at
//! those rows and at the keys they attend to. Two callers read a subset:
//!
//! * **Training and evaluation** ([`ReadRows`]): a node-level step's loss
//!   reads the labelled rows, evaluation the train and test rows. Only the
//!   last block is cut: every earlier block's output is a key of the last
//!   block's attention, and backward needs its gradient at every row anyway.
//!   The last block runs its queries, tail, head and loss over the read rows
//!   in ascending token order, under the read rows × tokens sub-mask (a read
//!   row keeps its mask row, columns unchanged) or flash, and the per-edge
//!   bias of those rows' edges in CSR order. Natural order is what keeps a
//!   training step's bits: every gradient sum then adds the read rows' terms
//!   in the order the whole pass adds them, the unread rows' terms being
//!   exact zeros (DESIGN.md, "Train what is read").
//! * **Serving** ([`RowPlan`]): a serving caller reads a few rows of the
//!   last hidden state — one centre token per query of a packed
//!   micro-batch — in an eval pass, so every block can be cut: after `L`
//!   blocks a read row depends only on its `L`-hop mask neighbourhood.
//!   [`RowPlan`] is that dependency, built backwards from the read rows:
//!
//!   - the last block's queries are the read rows (each once, in first
//!     appearance order); every other block's queries are the next block's
//!     field;
//!   - a block's field is its queries followed by their mask neighbours
//!     that are not queries, in ascending token order — so every block's
//!     queries and field are prefixes of one token order, and the first
//!     block's field is all of it;
//!   - each block maps `[field, d]` to `[queries, d]`
//!     ([`TransformerBlock::forward_rows_ws`] reading the first rows) under
//!     a query × field sub-mask: a query keeps its mask row, edges in
//!     stored order, columns renumbered to field positions. One sub-mask,
//!     built for the first block's queries, serves every block as a prefix
//!     of its rows, and so does a per-edge bias built in its CSR order.
//!
//! Under any one backend a matmul element depends on its own row of `A`
//! only (`tensor::backend`), so the read rows come out bit-identical to the
//! same rows of the full forward. The dense and Performer patterns mix all
//! rows in every block; under them, and for a pass that reads every row in
//! order, [`run_whole`] runs each block over the whole sequence.

use crate::api::Pattern;
use crate::attention::BiasGrad;
use crate::block::TransformerBlock;
use crate::mha::AttentionMode;
use torchgt_graph::CsrGraph;
use torchgt_tensor::{Tensor, Workspace};

/// Position of a token outside the plan.
const ABSENT: u32 = u32::MAX;

/// Which rows each block of a stack computes for a set of read rows, kept by
/// the model and rebuilt by [`RowPlan::prepare`] for every pass it serves.
#[derive(Default)]
pub(crate) struct RowPlan {
    /// Per token: its position in `order`, or [`ABSENT`].
    local: Vec<u32>,
    /// The planned tokens by position: the read rows, then each block's new
    /// field rows, from the last block back to the first.
    order: Vec<usize>,
    /// Per block, first to last: its query rows, a prefix of `order`.
    queries: Vec<usize>,
    /// `0..queries[0]`: each block reads a prefix of it.
    prefix: Vec<usize>,
    /// Per block: its query × field sub-mask, columns positions in `order`;
    /// each is a prefix of the first block's rows.
    masks: Vec<CsrGraph>,
    /// Position of each read row in the caller's order, when the rows
    /// repeat; empty when the last block's output is already in that order.
    gather: Vec<usize>,
}

impl RowPlan {
    /// Plan `layers` blocks for reading `rows` under `pattern`: `true` when
    /// the plan applies — a sparse pattern and a row list other than every
    /// token in order — after which [`Self::first_mask`], [`Self::order`]
    /// and [`Self::run`] describe and run it. On `false` the caller runs
    /// [`run_whole`].
    pub(crate) fn prepare(&mut self, pattern: Pattern<'_>, rows: Option<&[usize]>, layers: usize) -> bool {
        let (Pattern::Sparse(mask), Some(rows)) = (pattern, rows) else { return false };
        let s = mask.num_nodes();
        if layers == 0 || every_token(rows, s) {
            return false;
        }
        self.local.clear();
        self.local.resize(s, ABSENT);
        self.order.clear();
        for &r in rows {
            if self.local[r] == ABSENT {
                self.local[r] = self.order.len() as u32;
                self.order.push(r);
            }
        }
        self.gather.clear();
        if self.order.len() < rows.len() {
            self.gather.extend(rows.iter().map(|&r| self.local[r] as usize));
        }
        // Backwards from the last block: its field is its queries plus the
        // new neighbours of the rows that joined since the block after it
        // (the older rows' neighbours are in already).
        self.queries.clear();
        self.queries.resize(layers, 0);
        let mut expanded = 0;
        for l in (0..layers).rev() {
            let n = self.order.len();
            self.queries[l] = n;
            for p in expanded..n {
                for &c in mask.neighbors(self.order[p]) {
                    if self.local[c as usize] == ABSENT {
                        // Seen; numbered below, once the new rows are sorted.
                        self.local[c as usize] = 0;
                        self.order.push(c as usize);
                    }
                }
            }
            self.order[n..].sort_unstable();
            for (p, &t) in self.order.iter().enumerate().skip(n) {
                self.local[t] = p as u32;
            }
            expanded = n;
        }
        let first = self.queries[0];
        self.prefix.clear();
        self.prefix.extend(0..first);
        let mut row_ptr = Vec::with_capacity(first + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::new();
        for &t in &self.order[..first] {
            col_idx.extend(mask.neighbors(t).iter().map(|&c| self.local[c as usize]));
            row_ptr.push(col_idx.len());
        }
        self.masks.clear();
        for &n in &self.queries[1..] {
            self.masks.push(CsrGraph::from_raw(row_ptr[..=n].to_vec(), col_idx[..row_ptr[n]].to_vec()));
        }
        self.masks.insert(0, CsrGraph::from_raw(row_ptr, col_idx));
        true
    }

    /// The first block's query × field sub-mask: row `i` is the mask row of
    /// token `order()[i]`, each column a position in [`Self::order`].
    pub(crate) fn first_mask(&self) -> &CsrGraph {
        &self.masks[0]
    }

    /// The planned tokens by position.
    pub(crate) fn order(&self) -> &[usize] {
        &self.order
    }

    /// Run `blocks` (eval mode) over the rows the last [`Self::prepare`]
    /// planned. `h` is the whole-sequence block input, given back to `ws`;
    /// `bias` is per-head per-edge in [`Self::first_mask`]'s CSR order.
    /// Returns `[rows.len(), d]` for the `rows` planned, owned by `ws`.
    pub(crate) fn run(
        &self,
        blocks: &mut [TransformerBlock],
        h: Tensor,
        bias: Option<&[Vec<f32>]>,
        ws: &mut Workspace,
    ) -> Tensor {
        let mut x = gather(h, &self.order, ws);
        for (l, block) in blocks.iter_mut().enumerate() {
            let mask = &self.masks[l];
            // A later block's edges are the first ones of the first block's.
            let sliced: Option<Vec<Vec<f32>>> = bias.filter(|_| l > 0).map(|per_head| {
                let edges = mask.num_arcs();
                per_head
                    .iter()
                    .map(|all| {
                        let mut buf = ws.take_buf(edges);
                        buf.copy_from_slice(&all[..edges]);
                        buf
                    })
                    .collect()
            });
            let bias = if l == 0 { bias } else { sliced.as_deref() };
            let rows = Some(&self.prefix[..self.queries[l]]);
            let z = block.forward_rows_ws(&x, rows, &AttentionMode::Sparse { mask, bias }, ws);
            ws.give(x);
            x = z;
            for buf in sliced.into_iter().flatten() {
                ws.give_buf(buf);
            }
        }
        if self.gather.is_empty() {
            x
        } else {
            gather(x, &self.gather, ws)
        }
    }
}

/// The rows a training or evaluation forward reads, ascending, and how the
/// stack's last block runs for them; kept by the model from a forward to
/// its backward.
#[derive(Default)]
pub(crate) struct ReadRows {
    rows: Vec<usize>,
    /// Tokens in the sequence of the last [`Self::prepare`].
    tokens: usize,
    /// The last block computes the read rows only: a sparse or flash
    /// pattern, blocks to run, and not every token read.
    last_only: bool,
    /// Under a sparse pattern with `last_only`: the last block's mask, row
    /// `i` token `rows[i]`'s mask row with its columns unchanged.
    mask: Option<CsrGraph>,
}

impl ReadRows {
    /// Record that the next forward reads `rows` (strictly ascending) of a
    /// `tokens`-token sequence through `layers` blocks under `pattern`.
    pub(crate) fn prepare(&mut self, pattern: Pattern<'_>, rows: &[usize], tokens: usize, layers: usize) {
        self.keep(rows, tokens);
        self.last_only = pattern.reads_rows() && layers > 0 && rows.len() < tokens;
        self.mask = match pattern {
            Pattern::Sparse(mask) if self.last_only => {
                let ptr = mask.row_ptr();
                let mut row_ptr = Vec::with_capacity(rows.len() + 1);
                row_ptr.push(0);
                let mut col_idx = Vec::with_capacity(rows.iter().map(|&r| ptr[r + 1] - ptr[r]).sum());
                for &r in rows {
                    col_idx.extend_from_slice(mask.neighbors(r));
                    row_ptr.push(col_idx.len());
                }
                Some(CsrGraph::from_raw(row_ptr, col_idx))
            }
            _ => None,
        };
    }

    /// Record that the next forward reads `rows` (strictly ascending) of a
    /// `tokens`-token sequence and computes every row: a model with no
    /// transformer block to cut.
    pub(crate) fn keep(&mut self, rows: &[usize], tokens: usize) {
        assert!(
            rows.windows(2).all(|w| w[0] < w[1]) && rows.last().is_none_or(|&r| r < tokens),
            "read rows must ascend within the sequence"
        );
        self.rows.clear();
        self.rows.extend_from_slice(rows);
        self.tokens = tokens;
        self.last_only = false;
        self.mask = None;
    }

    /// The last block's attention mode, given every other block's `mode`
    /// and, under a sparse pattern, the read rows' per-edge bias
    /// ([`Self::gather_edges`]).
    pub(crate) fn last_mode<'a>(&'a self, mode: AttentionMode<'a>, bias: Option<&'a [Vec<f32>]>) -> AttentionMode<'a> {
        match (&self.mask, mode) {
            (Some(mask), AttentionMode::Sparse { .. }) => AttentionMode::Sparse { mask, bias },
            _ => mode,
        }
    }

    /// The read rows' edges of a per-head per-edge array laid out like
    /// `mask` (the pattern's whole mask), in CSR order, drawn from `ws`;
    /// `None` unless the last block runs under the read rows' sub-mask.
    pub(crate) fn gather_edges(&self, mask: &CsrGraph, per_head: &[Vec<f32>], ws: &mut Workspace) -> Option<Vec<Vec<f32>>> {
        let sub = self.mask.as_ref()?;
        let ptr = mask.row_ptr();
        let gathered = per_head
            .iter()
            .map(|all| {
                let mut buf = ws.take_buf(sub.num_arcs());
                let mut at = 0;
                for &r in &self.rows {
                    let edges = &all[ptr[r]..ptr[r + 1]];
                    buf[at..at + edges.len()].copy_from_slice(edges);
                    at += edges.len();
                }
                buf
            })
            .collect();
        Some(gathered)
    }

    /// The last block's bias gradient laid out like `mask` again: the read
    /// rows' edges where they were gathered from, zero elsewhere — the
    /// exact zero an unread row's edges get from a whole pass. Returns
    /// `grad` as it is when the last block ran over every row.
    pub(crate) fn scatter_edges(&self, mask: &CsrGraph, grad: BiasGrad, ws: &mut Workspace) -> BiasGrad {
        let (Some(_), BiasGrad::Sparse(per_head)) = (&self.mask, &grad) else { return grad };
        let ptr = mask.row_ptr();
        let scattered = per_head
            .iter()
            .map(|sub| {
                // Zeroed: the unread rows' edges stay exactly 0.
                let mut buf = ws.take_buf(mask.num_arcs());
                let mut at = 0;
                for &r in &self.rows {
                    let n = ptr[r + 1] - ptr[r];
                    buf[ptr[r]..ptr[r + 1]].copy_from_slice(&sub[at..at + n]);
                    at += n;
                }
                buf
            })
            .collect();
        grad.recycle(ws);
        BiasGrad::Sparse(scattered)
    }

    /// Run `blocks` over the whole-sequence input `h` (given back to `ws`):
    /// every block but the last over every row under `mode`, the last one
    /// over the read rows under `last` ([`Self::last_mode`]) or over every
    /// row, its output then read at the rows. Returns `[rows, d]`, owned by
    /// `ws`.
    pub(crate) fn run(
        &self,
        blocks: &mut [TransformerBlock],
        h: Tensor,
        mode: &AttentionMode<'_>,
        last: &AttentionMode<'_>,
        ws: &mut Workspace,
    ) -> Tensor {
        let Some((block, rest)) = blocks.split_last_mut() else { return self.select(h, ws) };
        let h = run_whole(rest, h, mode, None, ws);
        let out = if self.last_only {
            block.forward_rows_ws(&h, Some(&self.rows), last, ws)
        } else {
            block.forward_ws(&h, mode, ws)
        };
        ws.give(h);
        if self.last_only {
            out
        } else {
            self.select(out, ws)
        }
    }

    /// A whole-sequence tensor (given back to `ws`) at the read rows.
    pub(crate) fn select(&self, all: Tensor, ws: &mut Workspace) -> Tensor {
        if self.rows.len() == all.rows() {
            all
        } else {
            gather(all, &self.rows, ws)
        }
    }

    /// The gradient at the read rows (given back to `ws`) as the gradient
    /// of the last block's output: itself when the last block computed the
    /// read rows only, else every token's row, zero where nobody read it.
    pub(crate) fn expand(&self, grad: Tensor, ws: &mut Workspace) -> Tensor {
        if self.last_only || self.rows.len() == self.tokens {
            return grad;
        }
        let mut all = ws.take(self.tokens, grad.cols());
        for (i, &r) in self.rows.iter().enumerate() {
            all.row_mut(r).copy_from_slice(grad.row(i));
        }
        ws.give(grad);
        all
    }
}

/// Run `blocks` in order over the whole sequence `h` (given back to `ws`)
/// under `mode` — the plain stack — and return its output at `rows`, all of
/// it when `None`. The result belongs to `ws`.
pub(crate) fn run_whole(
    blocks: &mut [TransformerBlock],
    mut h: Tensor,
    mode: &AttentionMode<'_>,
    rows: Option<&[usize]>,
    ws: &mut Workspace,
) -> Tensor {
    for block in blocks {
        let next = block.forward_ws(&h, mode, ws);
        ws.give(h);
        h = next;
    }
    match rows {
        Some(rows) if !every_token(rows, h.rows()) => gather(h, rows, ws),
        _ => h,
    }
}

/// Whether `rows` lists every one of `s` tokens, in order.
fn every_token(rows: &[usize], s: usize) -> bool {
    rows.len() == s && rows.iter().enumerate().all(|(i, &r)| i == r)
}

/// Rows `rows` of `src`, in that order, as a new arena tensor; `src` goes
/// back to the arena.
fn gather(src: Tensor, rows: &[usize], ws: &mut Workspace) -> Tensor {
    let mut out = ws.take_uninit(rows.len(), src.cols());
    for (i, &r) in rows.iter().enumerate() {
        out.row_mut(i).copy_from_slice(src.row(r));
    }
    ws.give(src);
    out
}
