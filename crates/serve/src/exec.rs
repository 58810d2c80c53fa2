//! Forward-only execution of a frozen model.
//!
//! [`FrozenExecutor`] rebuilds the architecture from the artifact's
//! [`crate::ModelSpec`], dequantizes every parameter into it (all-or-nothing:
//! counts and shapes are validated for the whole set before the first tensor
//! is overwritten, mirroring `Snapshot::apply_params`), and serves forwards
//! out of one owned [`Workspace`] arena — so steady-state inference reuses
//! the training path's allocation-free kernels and SIMD backend dispatch.
//!
//! For int8 artifacts the classifier head additionally runs as an **integer
//! matmul**: the head weight is re-quantized transposed (`[out, hidden]`,
//! per-output-row scales), the pre-head hidden state is quantized against
//! the freeze-time static activation scale, and each logit is one
//! [`crate::quant::dot_i8`] (AVX2 when available) rescaled by
//! `act_scale * w_scale[o]`. The trunk still computes in dequantized f32 —
//! attention and LayerNorm are where int8 would cost accuracy; the head is
//! where a packed micro-batch spends its final dense GEMM.
//!
//! A caller that reads a few rows ([`FrozenExecutor::forward_argmax_rows`],
//! one centre token per query) gets just those rows from the model's eval
//! forward (`forward_hidden_ws` for the int8 head, `forward_ws` without
//! it): under a sparse pattern each transformer block computes only the
//! rows the next one reads — the last block the read tokens, an earlier
//! block those tokens' mask neighbourhood one hop further out — and every
//! block after the first that cuts projects keys and values for its field
//! only. Each answer is bit-identical to the same row of the all-rows
//! forward.

use crate::frozen::FrozenModel;
use crate::quant::{dot_i8, quantize_row_i8, QuantData, QuantScheme, QuantTensor};
use std::io;
use torchgt_model::{Pattern, SequenceBatch, SequenceModel};
use torchgt_tensor::{Tensor, Workspace};

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Int8 classifier head: transposed weight, per-output scales.
struct QuantHead {
    /// `[out, hidden]` int8 rows.
    w_t: Vec<i8>,
    hidden: usize,
    /// Per-output-row weight scales.
    w_scales: Vec<f32>,
    /// f32 bias row.
    bias: Vec<f32>,
    /// Static activation scale (0 = dynamic per-row).
    act_scale: f32,
    /// Scratch for the quantized activation row.
    qrow: Vec<i8>,
}

impl QuantHead {
    /// Build from the dequantized head weight `[hidden, out]` + bias.
    fn new(w: &[f32], hidden: usize, out_dim: usize, bias: Vec<f32>, act_scale: f32) -> Self {
        // Transpose to [out, hidden] so each output channel is contiguous,
        // then quantize per output row (per-channel scales).
        let mut t = vec![0.0f32; hidden * out_dim];
        for h in 0..hidden {
            for o in 0..out_dim {
                t[o * hidden + h] = w[h * out_dim + o];
            }
        }
        let q = QuantTensor::quantize(&t, out_dim, hidden, QuantScheme::Int8);
        let w_t = match q.data {
            QuantData::I8(v) => v,
            QuantData::I16(_) => unreachable!("head requantized as int8"),
        };
        Self { w_t, hidden, w_scales: q.scales, bias, act_scale, qrow: Vec::new() }
    }

    /// `logits = dequant(dot_i8(q(row), w_t[o])) + bias` for one hidden row.
    fn forward_row(&mut self, row: &[f32], logits: &mut [f32]) {
        let a_scale = if self.act_scale > 0.0 {
            self.act_scale
        } else {
            // Dynamic fallback: per-row maxabs (uncalibrated artifact).
            let maxabs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            if maxabs > 0.0 {
                maxabs / 127.0
            } else {
                1.0
            }
        };
        quantize_row_i8(row, a_scale, &mut self.qrow);
        for (o, logit) in logits.iter_mut().enumerate() {
            let w = &self.w_t[o * self.hidden..(o + 1) * self.hidden];
            let acc = dot_i8(&self.qrow, w);
            *logit = acc as f32 * (a_scale * self.w_scales[o]) + self.bias[o];
        }
    }
}

/// Index of the first maximum — [`torchgt_model::loss::accuracy`]'s
/// tie-breaking.
pub(crate) fn argmax(row: &[f32]) -> u32 {
    let mut best = 0usize;
    for (j, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = j;
        }
    }
    best as u32
}

/// [`argmax`] of every row of `logits`.
pub(crate) fn argmax_rows(logits: &Tensor) -> Vec<u32> {
    (0..logits.rows()).map(|r| argmax(logits.row(r))).collect()
}

/// A forward-only engine over a frozen quantized model.
pub struct FrozenExecutor {
    model: Box<dyn SequenceModel>,
    head: Option<QuantHead>,
    ws: Workspace,
    out_dim: usize,
}

impl FrozenExecutor {
    /// Rebuild the architecture and load the quantized parameters into it.
    pub fn new(frozen: &FrozenModel) -> io::Result<Self> {
        let mut model = frozen.build_model()?;
        {
            let mut params = model.params_mut();
            if params.len() != frozen.tensors.len() {
                return Err(bad(format!(
                    "artifact has {} tensors, model has {} parameters",
                    frozen.tensors.len(),
                    params.len()
                )));
            }
            for (t, p) in frozen.tensors.iter().zip(params.iter()) {
                if p.value.shape() != (t.rows, t.cols) {
                    return Err(bad(format!(
                        "artifact tensor is {}x{}, model expects {:?}",
                        t.rows,
                        t.cols,
                        p.value.shape()
                    )));
                }
            }
            for (t, p) in frozen.tensors.iter().zip(params.iter_mut()) {
                t.dequantize_into(p.value.data_mut());
            }
        }
        model.set_training(false);
        // Int8 artifacts run the head as an integer matmul. Params are
        // head-last for both families: [w: hidden x out, b: 1 x out].
        let head = if frozen.scheme == QuantScheme::Int8 && frozen.tensors.len() >= 2 {
            let w = &frozen.tensors[frozen.tensors.len() - 2];
            let b = &frozen.tensors[frozen.tensors.len() - 1];
            if w.cols == frozen.spec.out_dim && b.rows == 1 && b.cols == frozen.spec.out_dim {
                let mut w_f32 = vec![0.0f32; w.rows * w.cols];
                w.dequantize_into(&mut w_f32);
                let mut bias = vec![0.0f32; b.cols];
                b.dequantize_into(&mut bias);
                Some(QuantHead::new(&w_f32, w.rows, w.cols, bias, frozen.act_scale))
            } else {
                None
            }
        } else {
            None
        };
        Ok(Self { model, head, ws: Workspace::new(), out_dim: frozen.spec.out_dim })
    }

    /// Whether the int8 head fast path is active.
    pub fn int8_head(&self) -> bool {
        self.head.is_some()
    }

    /// Per-token logits `[s, out_dim]`.
    pub fn forward(&mut self, batch: &SequenceBatch<'_>, pattern: Pattern<'_>) -> Tensor {
        let all: Vec<usize> = (0..batch.features.rows()).collect();
        if let Some(head) = &mut self.head {
            if let Some(h) = self.model.forward_hidden_ws(batch, pattern, &all, &mut self.ws) {
                let mut out = Tensor::zeros(h.rows(), self.out_dim);
                for r in 0..h.rows() {
                    head.forward_row(h.row(r), out.row_mut(r));
                }
                self.ws.give(h);
                return out;
            }
        }
        let logits = self.model.forward_ws(batch, pattern, &all, &mut self.ws);
        let owned =
            Tensor::from_vec(logits.rows(), logits.cols(), logits.data().to_vec());
        self.ws.give(logits);
        owned
    }

    /// Per-token argmax class, with [`torchgt_model::loss::accuracy`]'s
    /// tie-breaking (first maximum wins).
    pub fn forward_argmax(&mut self, batch: &SequenceBatch<'_>, pattern: Pattern<'_>) -> Vec<u32> {
        let all: Vec<usize> = (0..batch.features.rows()).collect();
        self.forward_argmax_rows(batch, pattern, &all)
    }

    /// [`Self::forward_argmax`] for the tokens in `rows` only, in that
    /// order — a packed micro-batch is read at one row per query. The trunk
    /// computes just those rows (under a sparse pattern each block runs over
    /// the rows within reach of them only); the int8 head quantizes and
    /// scores their hidden state, and without it the f32 head scores them.
    pub fn forward_argmax_rows(
        &mut self,
        batch: &SequenceBatch<'_>,
        pattern: Pattern<'_>,
        rows: &[usize],
    ) -> Vec<u32> {
        if let Some(head) = &mut self.head {
            if let Some(h) = self.model.forward_hidden_ws(batch, pattern, rows, &mut self.ws) {
                let mut logits = vec![0.0f32; self.out_dim];
                let preds = (0..h.rows())
                    .map(|i| {
                        head.forward_row(h.row(i), &mut logits);
                        argmax(&logits)
                    })
                    .collect();
                self.ws.give(h);
                return preds;
            }
        }
        let logits = self.model.forward_ws(batch, pattern, rows, &mut self.ws);
        let preds = argmax_rows(&logits);
        self.ws.give(logits);
        preds
    }

    /// Workspace pool statistics (for gauges).
    pub fn workspace(&self) -> &Workspace {
        &self.ws
    }
}
