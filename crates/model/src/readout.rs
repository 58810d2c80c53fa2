//! A block stack run for the rows its caller reads.
//!
//! Every op of a [`TransformerBlock`] maps row `i` of its input to row `i`
//! of its output except attention, and attention computes row `i` from its
//! own query row and the key/value rows it attends to — under a sparse
//! pattern those of `mask.neighbors(i)`, in stored order, under flash all of
//! them. So a block's output at some rows depends only on its input at
//! those rows and at the keys they attend to, and after `L` blocks a read
//! row depends only on its `L`-hop mask neighbourhood. [`RowPlan`] is that
//! dependency, built backwards from the read rows, in ascending token order:
//!
//! - the read rows are sorted and deduplicated into the last block's
//!   queries; the output is gathered back to the caller's order at the end;
//! - a block's field is its queries plus their mask neighbours (every token
//!   under flash), and the previous block's queries are that field;
//! - a block whose queries are every token runs whole, and so does every
//!   block before it;
//! - the earliest block that cuts reads the whole sequence under its query
//!   rows' mask rows, columns unchanged; each later one reads its
//!   predecessor's output, columns renumbered to those rows
//!   ([`TransformerBlock::forward_rows_ws`] in both cases), and each takes
//!   its query rows' edges of the pass's per-edge bias, in CSR order;
//! - when every block cuts in a pass with no backward, no block reads an
//!   edge outside the earliest cut's query rows, so the model builds the
//!   bias for those rows only ([`RowPlan::bias_rows`]); otherwise it builds
//!   it over the whole mask.
//!
//! How deep the plan cuts follows the blocks' training mode. A training pass
//! cuts one block, the last: backward needs the gradient of every earlier
//! block's output at every row, and its last block's backward is written for
//! a block that reads the whole sequence. A pass with no backward (an
//! evaluation, a serving request, a freeze calibration) cuts every block it
//! can. The dense and Performer patterns mix all rows in every block, so
//! under them no block cuts and the output is read at the rows.
//!
//! The plan changes which rows are computed, never a computed row. Under any
//! one backend a matmul element depends on its own row of `A` only
//! (`tensor::backend`), so a read row comes out bit-identical to the same
//! row of the whole forward. A training step keeps its bits too: natural
//! order makes every gradient sum add the read rows' terms in the order the
//! whole pass adds them, the unread rows' terms being exact zeros (DESIGN.md,
//! "Train what is read").

use crate::attention::BiasGrad;
use crate::block::TransformerBlock;
use crate::mha::AttentionMode;
use crate::stamps::Stamps;
use std::ops::Range;
use torchgt_graph::CsrGraph;
use torchgt_tensor::{Tensor, Workspace};

/// Which rows each block of a stack computes for the rows a forward reads,
/// kept by the model from a forward to its backward. Its buffers stay from
/// one plan to the next, so planning a step allocates nothing once the
/// largest plan has been seen.
#[derive(Default)]
pub(crate) struct RowPlan {
    /// The rows the caller reads, in its order.
    rows: Vec<usize>,
    /// `rows` sorted and deduplicated: the last block's queries.
    read: Vec<usize>,
    /// Tokens in the sequence.
    tokens: usize,
    /// The blocks that compute some rows only, earliest first: the stack's
    /// last `cuts.len()` blocks.
    cuts: Vec<Cut>,
    /// Cuts of earlier plans, kept for their buffers.
    spare: Vec<Cut>,
    /// The tokens of the field being planned.
    seen: Stamps,
    /// Per token: its position among the rows of the block being planned's
    /// input, valid for the tokens of that input.
    position: Vec<u32>,
    /// The last block's per-edge bias when it cut, kept for its backward.
    last_bias: Option<Vec<Vec<f32>>>,
    /// Whether the pass's per-edge bias covers the earliest cut's query rows
    /// only ([`Self::bias_rows`]).
    bias_at_first_cut: bool,
}

/// One block that computes its query rows only.
#[derive(Default)]
struct Cut {
    /// Its query tokens, ascending.
    queries: Vec<usize>,
    /// The rows of its input it computes: the query tokens for the earliest
    /// cutting block, which reads the whole sequence, else their positions
    /// in the previous block's queries.
    rows: Vec<usize>,
    /// Under a sparse pattern: row `i` is token `queries[i]`'s mask row, its
    /// columns naming rows of the block's input.
    mask: Option<CsrGraph>,
}

impl Cut {
    /// The block's attention mode, given the pass's `mode` and the block's
    /// query rows' edges of the per-edge bias.
    fn mode<'a>(&'a self, mode: AttentionMode<'a>, bias: Option<&'a [Vec<f32>]>) -> AttentionMode<'a> {
        match &self.mask {
            Some(mask) => AttentionMode::Sparse { mask, bias },
            None => mode,
        }
    }
}

impl RowPlan {
    /// Record that the next forward reads `rows` of a `tokens`-token
    /// sequence and computes every row: a model with no transformer block to
    /// cut. [`Self::select`] reads the rows.
    pub(crate) fn keep(&mut self, rows: &[usize], tokens: usize) {
        assert!(rows.iter().all(|&r| r < tokens), "read rows must lie within the sequence");
        self.rows.clear();
        self.rows.extend_from_slice(rows);
        self.read.clear();
        self.read.extend_from_slice(rows);
        self.read.sort_unstable();
        self.read.dedup();
        self.tokens = tokens;
        self.spare.append(&mut self.cuts);
        self.bias_at_first_cut = false;
    }

    /// Plan `blocks` for reading `rows` of a `tokens`-token sequence under
    /// `mode`, the pass's whole-mask mode (only its mask is read here).
    pub(crate) fn prepare(&mut self, blocks: &[TransformerBlock], mode: &AttentionMode<'_>, rows: &[usize], tokens: usize) {
        self.keep(rows, tokens);
        let training = blocks.first().is_some_and(TransformerBlock::is_training);
        self.plan(mode, if training { 1 } else { blocks.len() });
        self.bias_at_first_cut =
            !training && self.cuts.len() == blocks.len() && self.cuts.first().is_some_and(|c| c.mask.is_some());
    }

    /// When every block cuts in a pass with no backward, the earliest cut's
    /// query tokens and their mask rows (columns unchanged): the only edges
    /// whose per-edge bias the pass reads, and the layout [`Self::run`] then
    /// takes that bias in. `None` when some block runs whole, which needs the
    /// bias laid out like the whole mask.
    pub(crate) fn bias_rows(&self) -> Option<(&[usize], &CsrGraph)> {
        let first = self.cuts.first().filter(|_| self.bias_at_first_cut)?;
        Some((&first.queries, first.mask.as_ref()?))
    }

    /// Run `blocks` as [`Self::prepare`] planned them over the
    /// whole-sequence input `h` (given back to `ws`), under `mode`, whose
    /// per-edge bias is laid out like its mask, or like [`Self::bias_rows`]
    /// when that is `Some`. Returns `[rows.len(), d]`, row `i` the output at
    /// token `rows[i]`, owned by `ws`.
    pub(crate) fn run(
        &mut self,
        blocks: &mut [TransformerBlock],
        mut h: Tensor,
        mode: &AttentionMode<'_>,
        ws: &mut Workspace,
    ) -> Tensor {
        assert_eq!(h.rows(), self.tokens, "run the sequence the plan was prepared for");
        self.recycle(ws);
        let (whole, cut) = blocks.split_at_mut(blocks.len() - self.cuts.len());
        for block in whole {
            let next = block.forward_ws(&h, mode, ws);
            ws.give(h);
            h = next;
        }
        if self.cuts.is_empty() {
            return self.select(h, ws);
        }
        // Where token `t`'s mask row sits in the pass's per-edge bias: laid
        // out like the mask, or at the earliest cut's query rows.
        let first = &self.cuts[0];
        let edges = |t: usize| {
            let (at, ptr) = match (self.bias_at_first_cut, mode) {
                (true, _) => (
                    first.queries.binary_search(&t).expect("a first-cut query"),
                    first.mask.as_ref().expect("a sparse cut").row_ptr(),
                ),
                (false, AttentionMode::Sparse { mask, .. }) => (t, mask.row_ptr()),
                (false, _) => unreachable!("only a sparse pattern has a per-edge bias"),
            };
            ptr[at]..ptr[at + 1]
        };
        // A cut's bias goes back before the next cut gathers its own; the
        // last block's stays for its backward. A bias laid out at the
        // earliest cut's rows is that cut's own, as built.
        for (k, (block, step)) in cut.iter_mut().zip(&self.cuts).enumerate() {
            for buf in self.last_bias.take().into_iter().flatten() {
                ws.give_buf(buf);
            }
            let (bias, built) = match mode {
                AttentionMode::Sparse { bias: Some(all), .. } if self.bias_at_first_cut && k == 0 => (None, Some(*all)),
                _ => {
                    let len = step.mask.as_ref().map_or(0, CsrGraph::num_arcs);
                    (gather_edges(mode, step.queries.iter().map(|&t| edges(t)), len, ws), None)
                }
            };
            let z = block.forward_rows_ws(&h, Some(&step.rows), &step.mode(*mode, built.or(bias.as_deref())), ws);
            ws.give(h);
            h = z;
            self.last_bias = bias;
        }
        if self.rows == self.read {
            return h;
        }
        let at: Vec<usize> = self.rows.iter().map(|r| self.read.binary_search(r).expect("a read row")).collect();
        gather(h, &at, ws)
    }

    /// The blocks to cut, at most `depth` of them, for the rows the last
    /// [`Self::keep`] recorded.
    fn plan(&mut self, mode: &AttentionMode<'_>, depth: usize) {
        let mask = match mode {
            AttentionMode::Sparse { mask, .. } => Some(*mask),
            AttentionMode::Flash => None,
            AttentionMode::Dense { .. } | AttentionMode::Performer { .. } => return,
        };
        if depth == 0 || self.read.len() == self.tokens {
            return;
        }
        // Each cut's queries, backwards from the last block; under flash a
        // field is every token.
        let mut last = self.spare.pop().unwrap_or_default();
        last.queries.clone_from(&self.read);
        self.cuts.push(last);
        if let Some(mask) = mask {
            while self.cuts.len() < depth {
                let mut cut = self.spare.pop().unwrap_or_default();
                field(mask, &self.cuts[self.cuts.len() - 1].queries, &mut self.seen, &mut cut.queries);
                if cut.queries.len() == self.tokens {
                    self.spare.push(cut);
                    break;
                }
                self.cuts.push(cut);
            }
        }
        self.cuts.reverse();
        // Then, earliest first, the rows of its input each cut computes and
        // its mask rows renumbered to them.
        self.position.resize(self.tokens, 0);
        for k in 0..self.cuts.len() {
            let (earlier, rest) = self.cuts.split_at_mut(k);
            let cut = &mut rest[0];
            // The block's input rows: the previous cut's queries, or every
            // token, which is the only case where a token is its own row.
            let input = earlier.last().map(|prev| prev.queries.as_slice());
            if let Some(rows) = input {
                for (i, &t) in rows.iter().enumerate() {
                    self.position[t] = i as u32;
                }
            }
            let position = &self.position;
            let at = |t: usize| if input.is_some() { position[t] as usize } else { t };
            cut.rows.clear();
            cut.rows.extend(cut.queries.iter().map(|&t| at(t)));
            cut.mask = mask.map(|mask| {
                let (mut row_ptr, mut col_idx) = cut.mask.take().map(CsrGraph::into_raw).unwrap_or_default();
                row_ptr.clear();
                col_idx.clear();
                row_ptr.push(0);
                for &q in &cut.queries {
                    col_idx.extend(mask.neighbors(q).iter().map(|&c| at(c as usize) as u32));
                    row_ptr.push(col_idx.len());
                }
                CsrGraph::from_raw(row_ptr, col_idx)
            });
        }
    }

    /// Give back the last block's per-edge bias kept for its backward.
    pub(crate) fn recycle(&mut self, ws: &mut Workspace) {
        for buf in self.last_bias.take().into_iter().flatten() {
            ws.give_buf(buf);
        }
    }

    /// The last block's attention mode in the backward of a training pass,
    /// given every other block's `mode`.
    pub(crate) fn last_mode<'a>(&'a self, mode: AttentionMode<'a>) -> AttentionMode<'a> {
        match self.cuts.last() {
            Some(cut) => cut.mode(mode, self.last_bias.as_deref()),
            None => mode,
        }
    }

    /// The last block's bias gradient laid out like `mask` again: the read
    /// rows' edges where they were gathered from, zero elsewhere — the
    /// exact zero an unread row's edges get from a whole pass. Returns
    /// `grad` as it is when the last block ran over every row.
    pub(crate) fn scatter_edges(&self, mask: &CsrGraph, grad: BiasGrad, ws: &mut Workspace) -> BiasGrad {
        let (Some(Cut { mask: Some(_), .. }), BiasGrad::Sparse(per_head)) = (self.cuts.last(), &grad) else {
            return grad;
        };
        let ptr = mask.row_ptr();
        let scattered = per_head
            .iter()
            .map(|sub| {
                // Zeroed: the unread rows' edges stay exactly 0.
                let mut buf = ws.take_buf(mask.num_arcs());
                let mut at = 0;
                for &r in &self.read {
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

    /// A whole-sequence tensor (given back to `ws`) at the read rows, in the
    /// caller's order.
    pub(crate) fn select(&self, all: Tensor, ws: &mut Workspace) -> Tensor {
        if self.read.len() == self.tokens && self.rows == self.read {
            all
        } else {
            gather(all, &self.rows, ws)
        }
    }

    /// The gradient at the read rows (given back to `ws`) as the gradient
    /// of the last block's output: itself when the last block computed the
    /// read rows only, else every token's row, zero where nobody read it. A
    /// backward needs its forward's rows strictly ascending.
    pub(crate) fn expand(&self, grad: Tensor, ws: &mut Workspace) -> Tensor {
        assert!(self.rows == self.read, "a backward needs its forward's read rows strictly ascending");
        if !self.cuts.is_empty() || self.read.len() == self.tokens {
            return grad;
        }
        let mut all = ws.take(self.tokens, grad.cols());
        for (i, &r) in self.read.iter().enumerate() {
            all.row_mut(r).copy_from_slice(grad.row(i));
        }
        ws.give(grad);
        all
    }
}

/// The field of `queries` under `mask` into `out`: the queries and their
/// mask neighbours, ascending, found through `seen`.
fn field(mask: &CsrGraph, queries: &[usize], seen: &mut Stamps, out: &mut Vec<usize>) {
    seen.begin(mask.num_nodes());
    for &q in queries {
        seen.mark(q);
        for &c in mask.neighbors(q) {
            seen.mark(c as usize);
        }
    }
    out.clear();
    out.extend((0..mask.num_nodes()).filter(|&t| seen.marked(t)));
}

/// The per-edge bias of a sparse `mode` (per head) at the given spans of
/// it, one per mask row, `len` edges in all, concatenated in order and drawn
/// from `ws`; `None` for a pattern without one.
fn gather_edges(
    mode: &AttentionMode<'_>,
    spans: impl Iterator<Item = Range<usize>> + Clone,
    len: usize,
    ws: &mut Workspace,
) -> Option<Vec<Vec<f32>>> {
    let AttentionMode::Sparse { bias: Some(per_head), .. } = mode else { return None };
    let gathered = per_head
        .iter()
        .map(|all| {
            let mut buf = ws.take_buf(len);
            let mut at = 0;
            for span in spans.clone() {
                let row = &all[span];
                buf[at..at + row.len()].copy_from_slice(row);
                at += row.len();
            }
            debug_assert_eq!(at, len, "the spans cover the gathered edges");
            buf
        })
        .collect();
    Some(gathered)
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
