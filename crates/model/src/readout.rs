//! A block stack run for the rows its caller reads.
//!
//! A serving caller reads a few rows of the last hidden state — one centre
//! token per query of a packed micro-batch. Every op of a
//! [`TransformerBlock`] maps row `i` of its input to row `i` of its output
//! except attention, and sparse attention computes row `i` from its own
//! query row and the key/value rows of `mask.neighbors(i)`, taken in stored
//! order. So a block's output at some rows (its *queries*) depends only on
//! its input at those rows and at their mask neighbours (its *field*), and
//! after `L` blocks a read row depends only on its `L`-hop mask
//! neighbourhood. [`RowPlan`] is that dependency, built backwards from the
//! read rows:
//!
//! * the last block's queries are the read rows (each once, in first
//!   appearance order); every other block's queries are the next block's
//!   field;
//! * a block's field is its queries followed by their mask neighbours that
//!   are not queries, in ascending token order — so every block's queries
//!   and field are prefixes of one token order, and the first block's field
//!   is all of it;
//! * each block maps `[field, d]` to `[queries, d]`
//!   ([`TransformerBlock::forward_queries_ws`]) under a query × field
//!   sub-mask: a query keeps its mask row, edges in stored order, columns
//!   renumbered to field positions. One sub-mask, built for the first
//!   block's queries, serves every block as a prefix of its rows, and so
//!   does a per-edge bias built in its CSR order.
//!
//! Under any one backend a matmul element depends on its own row of `A`
//! only (`tensor::backend`), so the read rows come out bit-identical to the
//! same rows of the full forward. The dense, flash and Performer patterns
//! mix all rows in every block; under them, and for a pass that reads every
//! row in order, [`run_whole`] runs each block over the whole sequence.

use crate::api::Pattern;
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
            let z = block.forward_queries_ws(&x, self.queries[l], &AttentionMode::Sparse { mask, bias }, ws);
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
