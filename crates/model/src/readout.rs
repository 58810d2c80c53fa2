//! A block stack run for the rows its caller reads.
//!
//! A serving caller reads a few rows of the last hidden state — one centre
//! token per query of a packed micro-batch. Every op of a
//! [`TransformerBlock`] maps row `i` of its input to row `i` of its output
//! except attention, and sparse attention computes row `i` from its own
//! query row and the key/value rows of `mask.neighbors(i)`, taken in stored
//! order. So the last block's output at the read rows depends only on its
//! input at those rows and at their mask neighbours, and [`ReadRows::run`]
//! runs that block on a compacted sequence:
//!
//! * the read rows plus their mask neighbours, in ascending token order;
//! * a read row keeps its mask row, renumbered; a neighbour-only row gets an
//!   empty one (its keys and values are read, its output is not);
//! * a per-edge bias is sliced in the mask's CSR order.
//!
//! Under any one backend a matmul element depends on its own row of `A`
//! only (`tensor::backend`), so the read rows come out bit-identical to the
//! same rows of the full forward. Every block before the last still runs
//! over the whole sequence: its output feeds the last block's neighbours,
//! and with them, after two hops, usually every token. The dense, flash and
//! Performer patterns mix all rows in every block; under them the last block
//! runs whole and the read rows are gathered from its output.

use crate::block::TransformerBlock;
use crate::mha::AttentionMode;
use torchgt_graph::CsrGraph;
use torchgt_tensor::{Tensor, Workspace};

/// Compact id of a token outside the kept set.
const ABSENT: u32 = u32::MAX;

/// Index scratch of [`ReadRows::run`], kept by the model and reused across
/// calls.
#[derive(Default)]
pub(crate) struct ReadRows {
    /// Per token: its id in the compacted sequence, or [`ABSENT`].
    local: Vec<u32>,
    /// Per token: whether the caller reads it.
    read: Vec<bool>,
    /// The kept tokens, ascending.
    keep: Vec<usize>,
}

impl ReadRows {
    /// Run `blocks` in order over `h` (given back to `ws`) under `mode`, an
    /// eval-mode pass. With `rows` `None`, or listing every token in order,
    /// this is the plain stack and returns the whole `[s, d]` output;
    /// otherwise it returns `[rows.len(), d]`, row `i` the output at token
    /// `rows[i]` (rows may repeat and come in any order). The result
    /// belongs to `ws`.
    pub(crate) fn run(
        &mut self,
        blocks: &mut [TransformerBlock],
        mut h: Tensor,
        mode: &AttentionMode<'_>,
        rows: Option<&[usize]>,
        ws: &mut Workspace,
    ) -> Tensor {
        let s = h.rows();
        // A list of every token in order reads the plain forward's output.
        let rows = rows.filter(|rows| !(rows.len() == s && rows.iter().enumerate().all(|(i, &r)| i == r)));
        let whole = if rows.is_some() { blocks.len().saturating_sub(1) } else { blocks.len() };
        let (front, last) = blocks.split_at_mut(whole);
        for block in front {
            let next = block.forward_ws(&h, mode, ws);
            ws.give(h);
            h = next;
        }
        let Some(rows) = rows else { return h };
        let [last] = last else { return gather(h, rows, ws) };
        match mode {
            AttentionMode::Sparse { mask, bias } if self.select(mask, rows) => {
                let out = self.compacted(last, &h, mask, *bias, rows, ws);
                ws.give(h);
                out
            }
            _ => {
                let z = last.forward_ws(&h, mode, ws);
                ws.give(h);
                gather(z, rows, ws)
            }
        }
    }

    /// Mark `rows` and their mask neighbours and number the kept tokens in
    /// ascending order; `false` when that is every token, so compaction
    /// would save nothing.
    fn select(&mut self, mask: &CsrGraph, rows: &[usize]) -> bool {
        let s = mask.num_nodes();
        self.local.clear();
        self.local.resize(s, ABSENT);
        self.read.clear();
        self.read.resize(s, false);
        for &r in rows {
            self.read[r] = true;
            self.local[r] = 0;
            for &c in mask.neighbors(r) {
                self.local[c as usize] = 0;
            }
        }
        self.keep.clear();
        for (t, id) in self.local.iter_mut().enumerate() {
            if *id != ABSENT {
                *id = self.keep.len() as u32;
                self.keep.push(t);
            }
        }
        self.keep.len() < s
    }

    /// `block` over the kept tokens [`Self::select`] chose, read back at
    /// `rows`.
    fn compacted(
        &self,
        block: &mut TransformerBlock,
        h: &Tensor,
        mask: &CsrGraph,
        bias: Option<&[Vec<f32>]>,
        rows: &[usize],
        ws: &mut Workspace,
    ) -> Tensor {
        let edges = |t: usize| mask.row_ptr()[t]..mask.row_ptr()[t + 1];
        let read = self.keep.iter().copied().filter(|&t| self.read[t]);
        let mut row_ptr = Vec::with_capacity(self.keep.len() + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::with_capacity(read.clone().map(|t| edges(t).len()).sum());
        for &t in &self.keep {
            if self.read[t] {
                col_idx.extend(mask.neighbors(t).iter().map(|&c| self.local[c as usize]));
            }
            row_ptr.push(col_idx.len());
        }
        let sub_mask = CsrGraph::from_raw(row_ptr, col_idx);
        let sub_bias: Option<Vec<Vec<f32>>> = bias.map(|per_head| {
            per_head
                .iter()
                .map(|all| {
                    let mut buf = ws.take_buf(sub_mask.num_arcs());
                    let mut at = 0;
                    for t in read.clone() {
                        let e = edges(t);
                        buf[at..at + e.len()].copy_from_slice(&all[e.clone()]);
                        at += e.len();
                    }
                    buf
                })
                .collect()
        });
        let x = gather_ref(h, &self.keep, ws);
        let mode = AttentionMode::Sparse { mask: &sub_mask, bias: sub_bias.as_deref() };
        let z = block.forward_ws(&x, &mode, ws);
        ws.give(x);
        let mut out = ws.take_uninit(rows.len(), z.cols());
        for (i, &r) in rows.iter().enumerate() {
            out.row_mut(i).copy_from_slice(z.row(self.local[r] as usize));
        }
        ws.give(z);
        for buf in sub_bias.into_iter().flatten() {
            ws.give_buf(buf);
        }
        out
    }
}

/// Rows `rows` of `src`, in that order, as a new arena tensor.
fn gather_ref(src: &Tensor, rows: &[usize], ws: &mut Workspace) -> Tensor {
    let mut out = ws.take_uninit(rows.len(), src.cols());
    for (i, &r) in rows.iter().enumerate() {
        out.row_mut(i).copy_from_slice(src.row(r));
    }
    out
}

/// [`gather_ref`], giving `src` back to the arena.
fn gather(src: Tensor, rows: &[usize], ws: &mut Workspace) -> Tensor {
    let out = gather_ref(&src, rows, ws);
    ws.give(src);
    out
}
