//! The model-facing API the training runtime programs against.

use crate::encodings::MemoStats;
use crate::graphormer::{Graphormer, GraphormerConfig};
use crate::gt::{Gt, GtConfig};
use std::fmt;
use std::str::FromStr;
use torchgt_graph::CsrGraph;
use torchgt_sparse::ModelShape;
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

/// The graph-transformer family a model belongs to. Its `Display` and
/// `FromStr` are the one spelling of each family's name (`"gt"`,
/// `"graphormer"`) — the CLI's `--model` and the frozen artifact's `kind`
/// both read and write it here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// Graphormer (degree + SPD encodings).
    Graphormer,
    /// GT (Laplacian positional encodings).
    Gt,
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self { ModelKind::Graphormer => "graphormer", ModelKind::Gt => "gt" })
    }
}

impl FromStr for ModelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let kind = [ModelKind::Graphormer, ModelKind::Gt].into_iter().find(|k| k.to_string() == s);
        kind.ok_or_else(|| format!("unknown model `{s}` (want graphormer or gt)"))
    }
}

/// A graph transformer's whole architecture: its family and that family's
/// config. A model built from it describes itself as the same value
/// ([`SequenceModel::describe`]), which is what a frozen artifact records
/// and rebuilds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arch {
    /// GT.
    Gt(GtConfig),
    /// Graphormer.
    Graphormer(GraphormerConfig),
}

impl Arch {
    /// The layers, hidden width and heads the cost model prices.
    pub fn shape(&self) -> ModelShape {
        let (layers, hidden, heads) = match self {
            Arch::Gt(c) => (c.layers, c.hidden, c.heads),
            Arch::Graphormer(c) => (c.layers, c.hidden, c.heads),
        };
        ModelShape { layers, hidden, heads }
    }

    /// Whether a model of this architecture can exist: multi-head
    /// attention splits the hidden width across the heads, so they must
    /// divide it. The error names both numbers.
    pub fn check(&self) -> Result<(), String> {
        let ModelShape { hidden, heads, .. } = self.shape();
        let divides = heads > 0 && hidden.is_multiple_of(heads);
        divides.then_some(()).ok_or_else(|| format!("{heads} heads do not divide hidden width {hidden}"))
    }

    /// The model, initialised from `seed`. Panics on an architecture that
    /// fails [`Self::check`].
    pub fn build(&self, seed: u64) -> Box<dyn SequenceModel> {
        self.check().unwrap_or_else(|e| panic!("{e}"));
        match *self {
            Arch::Gt(c) => Box::new(Gt::new(c, seed)),
            Arch::Graphormer(c) => Box::new(Graphormer::new(c, seed)),
        }
    }
}

/// A trainable sequence model (Graphormer, GT, baselines).
///
/// `Send` is a supertrait: models are plain owned data (tensors, cursors,
/// PRNG state), and the serving layer moves a boxed model onto its own
/// thread.
pub trait SequenceModel: Send {
    /// Forward at the rows the caller reads: returns logits
    /// `[rows.len(), out_dim]`, row `i` the logits of token `rows[i]`,
    /// drawing every intermediate from the caller's [`Workspace`]. Listing
    /// every token in order reads the whole sequence. In a training pass (a
    /// [`Self::backward_ws`] follows) `rows` ascend strictly; in a pass with
    /// no backward they may repeat and come in any order. Each row is
    /// bit-identical to the same token's row of the all-rows call, and a
    /// backward after it takes `dlogits` of the same rows and leaves the
    /// parameter gradients of an all-rows step whose other rows had zero
    /// gradient, to the bit. The transformer models run their stack through
    /// one row plan (`crate::readout`): under [`Pattern::Sparse`] and
    /// [`Pattern::Flash`] the last block computes only the read rows
    /// (queries, attention, its row-local tail and the head), and in eval
    /// mode, under a sparse pattern, each earlier block computes only the
    /// rows the next one reads, as far back as that is fewer than every
    /// token. The logits belong to `ws`; the caller gives them back once
    /// consumed. This is the model's only forward, so a trainer that reuses
    /// one arena across steps runs allocation-free once the arena is warm.
    fn forward_ws(
        &mut self,
        batch: &SequenceBatch<'_>,
        pattern: Pattern<'_>,
        rows: &[usize],
        ws: &mut Workspace,
    ) -> Tensor;
    /// [`Self::forward_ws`] without the head: the pre-head hidden state at
    /// the rows the caller reads, `[rows.len(), hidden]`, row `i` the state
    /// of token `rows[i]` (owned by `ws` — give it back once consumed). The
    /// same trunk and row plan, the same rules for `rows`, and each row
    /// bit-identical to the same row of the all-rows call; no backward
    /// follows it. `None` means the model has no separable head; callers
    /// (the serving executor's int8 head fast path, activation calibration)
    /// must fall back to [`Self::forward_ws`].
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
    /// The shape the trainers read: the Auto Tuner sizes `k` and `d_b` from
    /// its hidden width, the C3 check is bounded by its depth, and the cost
    /// model prices each step at it. Read from the model's own config.
    fn shape(&self) -> ModelShape;
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
    /// The model's architecture, for freezing into a deployable artifact.
    /// `None` means the family cannot be reconstructed from hyper-parameters
    /// alone and is not freezable.
    fn describe(&self) -> Option<Arch> {
        None
    }
}

/// Every row of `batch`, in order: the rows of a whole-sequence
/// [`SequenceModel::forward_ws`].
#[cfg(test)]
pub(crate) fn every_row(batch: &SequenceBatch<'_>) -> Vec<usize> {
    (0..batch.features.rows()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gat, Gcn, SampledTransformer, VirtualNode};
    use torchgt_compat::proptest::prelude::*;

    #[test]
    fn table_iv_configs_have_table_iv_shapes() {
        let shape = |arch: Arch| {
            let s = arch.shape();
            (s.layers, s.hidden, s.heads)
        };
        assert_eq!(shape(Arch::Graphormer(GraphormerConfig::slim(3, 2))), (4, 64, 8));
        assert_eq!(shape(Arch::Graphormer(GraphormerConfig::large(3, 2))), (12, 768, 32));
        assert_eq!(shape(Arch::Gt(GtConfig::standard(3, 2))), (4, 128, 8));
    }

    /// With no layers no attention is built, so only `build`'s own check
    /// can refuse the heads.
    #[test]
    #[should_panic(expected = "3 heads do not divide hidden width 8")]
    fn build_refuses_heads_that_do_not_divide_the_width() {
        Arch::Graphormer(GraphormerConfig { hidden: 8, layers: 0, heads: 3, ..GraphormerConfig::slim(3, 2) }).build(1);
    }

    #[test]
    fn a_family_name_parses_back_to_its_family() {
        for kind in [ModelKind::Graphormer, ModelKind::Gt] {
            assert_eq!(kind.to_string().parse::<ModelKind>(), Ok(kind));
        }
        let err = "gcn".parse::<ModelKind>().unwrap_err();
        assert!(err.contains("gcn"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Each baseline reports the shape its constructor was given: GCN
        /// its layer count and first width, GAT its hidden width, both one
        /// head; the sampling transformer its layers, width and heads; a
        /// virtual-node wrapper its inner model's.
        #[test]
        fn baseline_shapes_are_their_constructor_arguments(
            feat in 1usize..6,
            widths in collection::vec(1usize..8, 1..4),
            heads in 1usize..3,
            layers in 0usize..3,
            out in 1usize..4,
        ) {
            let dims: Vec<usize> = std::iter::once(feat).chain(widths.iter().copied()).chain([out]).collect();
            let gcn = Gcn::new(&dims, 1).shape();
            prop_assert_eq!((gcn.layers, gcn.hidden, gcn.heads), (dims.len() - 1, dims[1], 1));
            let gat = Gat::new(feat, widths[0], out, 1).shape();
            prop_assert_eq!((gat.layers, gat.hidden, gat.heads), (2, widths[0], 1));
            let hidden = heads * widths[0];
            let sampled = SampledTransformer::new(feat, hidden, layers, heads, out, 2, 1).shape();
            prop_assert_eq!((sampled.layers, sampled.hidden, sampled.heads), (layers, hidden, heads));
            let gt = GtConfig { hidden, layers, heads, ..GtConfig::tiny(feat, out) };
            prop_assert_eq!(VirtualNode::new(Gt::new(gt, 1), feat, 1).shape(), Arch::Gt(gt).shape());
        }
    }
}
