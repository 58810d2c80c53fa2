//! The freeze pass: calibrate, quantize, gate.
//!
//! Freezing is where quantization error is *measured, not assumed*: the
//! candidate artifact is executed through the real [`FrozenExecutor`] on a
//! held-out calibration set, and the freeze is **rejected** if its top-1
//! accuracy drops more than the configured tolerance below the f32
//! reference (default 1%). The same pass records the static activation
//! scale the int8 head runs against.

use crate::exec::{argmax_rows, FrozenExecutor};
use crate::frozen::{DatasetRef, FrozenModel, ModelSpec};
use crate::quant::{QuantScheme, QuantTensor};
use std::fmt;
use torchgt_graph::{CsrGraph, NodeDataset};
use torchgt_model::{Pattern, SequenceBatch, SequenceModel};
use torchgt_runtime::NodeTrainer;
use torchgt_tensor::{Tensor, Workspace};

/// Why a freeze was refused.
#[derive(Clone, Debug, PartialEq)]
pub enum FreezeError {
    /// The calibration set has no evaluable queries.
    EmptyCalib,
    /// The quantized model lost more top-1 accuracy than allowed.
    AccuracyDrop { f32_acc: f64, frozen_acc: f64, max_drop: f64 },
    /// The model family cannot be reconstructed from hyper-parameters
    /// (no [`torchgt_model::Arch`]) or failed to rebuild.
    Unsupported(String),
}

impl fmt::Display for FreezeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FreezeError::EmptyCalib => write!(f, "calibration set has no queries"),
            FreezeError::AccuracyDrop { f32_acc, frozen_acc, max_drop } => write!(
                f,
                "quantized accuracy {frozen_acc:.4} drops more than {max_drop:.4} below f32 reference {f32_acc:.4}"
            ),
            FreezeError::Unsupported(m) => write!(f, "model not freezable: {m}"),
        }
    }
}

impl std::error::Error for FreezeError {}

/// Freeze-time knobs.
#[derive(Clone, Copy, Debug)]
pub struct FreezeOptions {
    /// Integer width to quantize to.
    pub scheme: QuantScheme,
    /// Maximum tolerated top-1 accuracy drop vs the f32 reference.
    pub max_acc_drop: f64,
}

impl Default for FreezeOptions {
    fn default() -> Self {
        Self { scheme: QuantScheme::Int8, max_acc_drop: 0.01 }
    }
}

/// Held-out tokens the calibration pass and accuracy gate run over.
///
/// Holds the full graph in dataset node order plus the indices of the
/// held-out nodes to score — the same data a live query's ego subgraph is
/// cut from, so freeze-time accuracy is measured on the serving
/// distribution.
pub struct CalibSet {
    /// `[num_nodes, feat_dim]` features in node order.
    pub features: Tensor,
    /// The raw topology.
    pub graph: CsrGraph,
    /// Attention mask: topology plus self-loops.
    pub mask: CsrGraph,
    /// Per-node labels.
    pub labels: Vec<u32>,
    /// Held-out node indices the gate scores.
    pub eval: Vec<u32>,
}

impl CalibSet {
    /// Build from a generated dataset's held-out (test) split, capped at
    /// `max_queries` nodes picked by a seeded shuffle.
    pub fn from_dataset(ds: &NodeDataset, max_queries: usize, seed: u64) -> Self {
        use torchgt_compat::rng::{RngCore, SeedableRng, SmallRng};
        let mut eval = ds.split.test.clone();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xCA11B);
        // Fisher–Yates, then truncate.
        for i in (1..eval.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            eval.swap(i, j);
        }
        eval.truncate(max_queries.max(1));
        Self {
            features: Tensor::from_vec(
                ds.graph.num_nodes(),
                ds.feat_dim,
                ds.features.clone(),
            ),
            graph: ds.graph.clone(),
            mask: ds.graph.with_self_loops(),
            labels: ds.labels.clone(),
            eval,
        }
    }

    /// The full-graph batch the calibration forward runs on. `spd` is
    /// `None`: serving never materialises the dense SPD matrix, so the
    /// reference must not either.
    pub fn batch(&self) -> SequenceBatch<'_> {
        SequenceBatch { features: &self.features, graph: &self.graph, spd: None }
    }

    /// Sparse attention over the self-looped topology — the same pattern
    /// the serve loop uses on packed micro-batches.
    pub fn pattern(&self) -> Pattern<'_> {
        Pattern::Sparse(&self.mask)
    }

    /// Fraction of `eval` nodes where `preds` (full per-node argmax)
    /// matches the labels.
    pub fn accuracy_of(&self, preds: &[u32]) -> f64 {
        let at_eval: Vec<u32> = self.eval.iter().map(|&n| preds[n as usize]).collect();
        self.accuracy_at_eval(&at_eval)
    }

    /// [`Self::accuracy_of`] for predictions of the `eval` nodes only, in
    /// `eval` order.
    fn accuracy_at_eval(&self, preds: &[u32]) -> f64 {
        if self.eval.is_empty() {
            return 0.0;
        }
        let hits = self.eval.iter().zip(preds).filter(|&(&n, &p)| p == self.labels[n as usize]).count();
        hits as f64 / self.eval.len() as f64
    }
}

/// Anything that can be frozen into a deployable quantized artifact with
/// the same typed-error discipline as the `build_*` constructors.
pub trait Freezable {
    /// Freeze with default options (int8, ≤1% top-1 drop).
    fn freeze(&mut self, calib: &CalibSet) -> Result<FrozenModel, FreezeError> {
        self.freeze_with(calib, FreezeOptions::default())
    }
    /// Freeze with explicit scheme and tolerance.
    fn freeze_with(
        &mut self,
        calib: &CalibSet,
        opts: FreezeOptions,
    ) -> Result<FrozenModel, FreezeError>;
}

impl Freezable for NodeTrainer {
    fn freeze_with(
        &mut self,
        calib: &CalibSet,
        opts: FreezeOptions,
    ) -> Result<FrozenModel, FreezeError> {
        let seed = self.cfg.seed;
        freeze_model(self.model_mut(), calib, opts, seed)
    }
}

/// Core freeze pass over any live [`SequenceModel`]:
/// 1. run the f32 reference on the calibration set: the static activation
///    scale for the int8 head over every row's hidden state, the accuracy
///    at the eval rows,
/// 2. quantize every parameter per-row,
/// 3. execute the candidate artifact through the real [`FrozenExecutor`]
///    and gate on the measured accuracy drop.
///
/// The model's training mode is restored on every exit path.
pub fn freeze_model(
    model: &mut dyn SequenceModel,
    calib: &CalibSet,
    opts: FreezeOptions,
    seed: u64,
) -> Result<FrozenModel, FreezeError> {
    if calib.eval.is_empty() {
        return Err(FreezeError::EmptyCalib);
    }
    let arch = model
        .describe()
        .ok_or_else(|| FreezeError::Unsupported(format!("{} does not describe its architecture", model.name())))?;
    let spec = ModelSpec::new(&arch, seed);

    model.set_training(false);
    let result = freeze_inner(model, &spec, calib, opts);
    model.set_training(true);
    result
}

fn freeze_inner(
    model: &mut dyn SequenceModel,
    spec: &ModelSpec,
    calib: &CalibSet,
    opts: FreezeOptions,
) -> Result<FrozenModel, FreezeError> {
    let mut ws = Workspace::new();
    let batch = calib.batch();

    // The static activation scale for the int8 head, over every row's
    // hidden state.
    let all: Vec<usize> = (0..batch.features.rows()).collect();
    let act_scale = match model.forward_hidden_ws(&batch, calib.pattern(), &all, &mut ws) {
        Some(h) => {
            let maxabs = h.data().iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            ws.give(h);
            if maxabs > 0.0 {
                maxabs / 127.0
            } else {
                0.0
            }
        }
        None => 0.0,
    };
    // The gate reads the eval nodes only, so only their rows are scored.
    let eval: Vec<usize> = calib.eval.iter().map(|&n| n as usize).collect();
    let logits = model.forward_ws(&batch, calib.pattern(), &eval, &mut ws);
    let f32_acc = calib.accuracy_at_eval(&argmax_rows(&logits));
    ws.give(logits);

    let tensors: Vec<QuantTensor> = model
        .params_mut()
        .iter()
        .map(|p| {
            let (rows, cols) = p.value.shape();
            QuantTensor::quantize(p.value.data(), rows, cols, opts.scheme)
        })
        .collect();

    let mut frozen = FrozenModel {
        spec: spec.clone(),
        scheme: opts.scheme,
        tensors,
        act_scale,
        f32_acc,
        frozen_acc: 0.0,
        dataset: None,
        dataset_manifest_hash: None,
    };
    let mut exec = FrozenExecutor::new(&frozen)
        .map_err(|e| FreezeError::Unsupported(format!("candidate executor: {e}")))?;
    let frozen_preds = exec.forward_argmax_rows(&batch, calib.pattern(), &eval);
    let frozen_acc = calib.accuracy_at_eval(&frozen_preds);
    if f32_acc - frozen_acc > opts.max_acc_drop {
        return Err(FreezeError::AccuracyDrop {
            f32_acc,
            frozen_acc,
            max_drop: opts.max_acc_drop,
        });
    }
    frozen.frozen_acc = frozen_acc;
    Ok(frozen)
}

/// Attach dataset provenance to a frozen artifact (lets `torchgt serve`
/// regenerate the identical graph by seed).
pub fn with_dataset(mut frozen: FrozenModel, dataset: DatasetRef) -> FrozenModel {
    frozen.dataset = Some(dataset);
    frozen
}

/// Attach the identity hash of the on-disk sharded dataset the model was
/// trained against (a `torchgt-data` manifest hash).
pub fn with_dataset_hash(mut frozen: FrozenModel, hash: impl Into<String>) -> FrozenModel {
    frozen.dataset_manifest_hash = Some(hash.into());
    frozen
}
