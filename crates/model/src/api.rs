//! The model-facing API the training runtime programs against.

use crate::encodings::MemoStats;
use torchgt_graph::CsrGraph;
use torchgt_tensor::{Param, Tensor, Workspace};

/// Which attention pattern the runtime selected for the current pass.
///
/// The Dual-interleaved scheduler flips between `Sparse` (topology /
/// cluster-sparse masks) and `Flash`/`Dense`; models translate this into a
/// concrete [`crate::mha::AttentionMode`] including their own bias encodings.
#[derive(Clone, Copy)]
pub enum Pattern<'a> {
    /// Fully-connected attention with materialised scores (GP-RAW).
    Dense,
    /// Fully-connected tiled attention, bias-free (GP-FLASH).
    Flash,
    /// Sparse attention over the given mask.
    Sparse(&'a CsrGraph),
    /// Performer (FAVOR+) linear attention with the given random-feature
    /// count — the structure-agnostic NLP baseline (paper §II-C, I2).
    Performer(usize),
}

impl Pattern<'_> {
    /// Short label for logs and experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            Pattern::Dense => "dense",
            Pattern::Flash => "flash",
            Pattern::Sparse(_) => "sparse",
            Pattern::Performer(_) => "performer",
        }
    }

    /// Whether a query's output needs only its own query row (sparse and
    /// flash attention, not dense's full score matrix or Performer's
    /// global sums), so that a model's last block can compute just the
    /// rows [`SequenceModel::forward_ws`] is asked for.
    pub fn reads_rows(&self) -> bool {
        matches!(self, Pattern::Sparse(_) | Pattern::Flash)
    }
}

/// One sequence of graph tokens and the graph the encodings read.
pub struct SequenceBatch<'a> {
    /// `[s, feat]` node features in sequence order.
    pub features: &'a Tensor,
    /// The (sub)graph over the sequence's nodes, in sequence order.
    pub graph: &'a CsrGraph,
    /// Read by no model: the spatial encoding rides on the sparse mask's
    /// edges, and no pattern takes a dense SPD matrix. Kept only because
    /// the frozen benchmark (`examples/perf_ledger`) names the field; pass
    /// `None`. It goes with that benchmark's next change.
    pub spd: Option<&'a [u8]>,
}

/// Architecture hyper-parameters sufficient to reconstruct a model of the
/// same shape (what a frozen deployable artifact records). Fields a family
/// does not use (`pe_dim` for Graphormer, the degree/SPD buckets for GT)
/// are zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArchDescriptor {
    /// Family tag: `"gt"` or `"graphormer"`.
    pub kind: &'static str,
    pub feat_dim: usize,
    pub hidden: usize,
    pub layers: usize,
    pub heads: usize,
    pub ffn_mult: usize,
    pub out_dim: usize,
    pub pe_dim: usize,
    pub max_degree: usize,
    pub max_spd: u8,
}

/// A trainable sequence model (Graphormer, GT, baselines).
///
/// `Send` is a supertrait: models are plain owned data (tensors, cursors,
/// PRNG state), and the serving layer moves a boxed model onto its own
/// thread.
pub trait SequenceModel: Send {
    /// Forward at the rows the caller reads: returns logits
    /// `[rows.len(), out_dim]`, row `i` the logits of token `rows[i]`,
    /// drawing every intermediate from the caller's [`Workspace`]. `rows`
    /// ascend strictly; listing every token reads the whole sequence. Each
    /// row is bit-identical to the same token's row of the all-rows call,
    /// and a [`Self::backward_ws`] after it takes `dlogits` of the same rows
    /// and leaves the parameter gradients of an all-rows step whose other
    /// rows had zero gradient, to the bit. Under [`Pattern::Sparse`] and
    /// [`Pattern::Flash`] the transformer models' last block computes only
    /// the read rows (queries, attention, its row-local tail and the head),
    /// every earlier block every row. The logits belong to `ws`; the caller
    /// gives them back once consumed. This is the model's only forward, so a
    /// trainer that reuses one arena across steps runs allocation-free once
    /// the arena is warm.
    fn forward_ws(
        &mut self,
        batch: &SequenceBatch<'_>,
        pattern: Pattern<'_>,
        rows: &[usize],
        ws: &mut Workspace,
    ) -> Tensor;
    /// Forward through the trunk only, returning the pre-head hidden state
    /// at the rows the caller will read: `[rows.len(), hidden]`, row `i`
    /// the state of token `rows[i]` (owned by `ws` — give it back once
    /// consumed). Rows may repeat and come in any order; each is
    /// bit-identical to the same row of the all-rows call. Under
    /// [`Pattern::Sparse`] each block computes only the rows the next block
    /// reads (the last block the read rows), with keys and values for
    /// those rows' mask neighbours; a list of every token in order takes
    /// the plain whole-sequence forward. An eval-mode pass: no backward
    /// follows it. `None` means the model has no separable head; callers
    /// (the serving executor's int8 head fast path, activation
    /// calibration) must fall back to [`Self::forward_ws`].
    fn forward_hidden_ws(
        &mut self,
        batch: &SequenceBatch<'_>,
        pattern: Pattern<'_>,
        rows: &[usize],
        ws: &mut Workspace,
    ) -> Option<Tensor> {
        let _ = (batch, pattern, rows, ws);
        None
    }
    /// Backward from the logit gradients of the rows the forward read,
    /// drawing scratch from `ws`. `pattern` must match the forward call.
    fn backward_ws(
        &mut self,
        batch: &SequenceBatch<'_>,
        pattern: Pattern<'_>,
        dlogits: &Tensor,
        ws: &mut Workspace,
    );
    /// All learnable parameters.
    fn params_mut(&mut self) -> Vec<&mut Param>;
    /// Toggle dropout/training mode.
    fn set_training(&mut self, on: bool);
    /// Model name for experiment tables.
    fn name(&self) -> &'static str;
    /// The model's PRNG state as a flat list of counters (one per stochastic
    /// layer, in traversal order) — for full-state checkpointing. Models
    /// without stochastic layers return an empty vec.
    fn rng_state(&self) -> Vec<u64> {
        Vec::new()
    }
    /// Restore the PRNG state captured by [`Self::rng_state`]. Length must
    /// match what this model emits; implementations panic on mismatch
    /// (a snapshot for a different architecture).
    fn set_rng_state(&mut self, state: &[u64]) {
        assert!(state.is_empty(), "{} has no PRNG state to restore", self.name());
    }
    /// Total scalar parameter count.
    fn num_params(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }
    /// Counters of the model's per-graph encoding memo
    /// ([`crate::encodings::EncodingMemo`]); `None` for models that memoise
    /// nothing. The memo is a pure function of the graphs shown, so it is
    /// not part of a snapshot.
    fn encoding_memo(&self) -> Option<MemoStats> {
        None
    }
    /// Architecture description for freezing into a deployable artifact.
    /// `None` means the family cannot be reconstructed from hyper-parameters
    /// alone and is not freezable.
    fn describe(&self) -> Option<ArchDescriptor> {
        None
    }
}

/// Every row of `batch`, in order: the rows of a whole-sequence
/// [`SequenceModel::forward_ws`].
#[cfg(test)]
pub(crate) fn every_row(batch: &SequenceBatch<'_>) -> Vec<usize> {
    (0..batch.features.rows()).collect()
}
