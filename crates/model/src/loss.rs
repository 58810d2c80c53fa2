//! Losses and metrics.

use torchgt_tensor::ops;
use torchgt_tensor::{MatRef, Tensor, Workspace};

/// Softmax cross-entropy over the logits of the rows a step reads (one
/// label per row). Returns the mean loss — 0 over no rows — and
/// `dL/dlogits` (already divided by the row count); the probability scratch
/// and the returned gradient are drawn from `ws` (the caller gives the
/// gradient back once consumed). Each row's softmax depends on that row
/// only, so a row's gradient is the one it gets among any other rows.
pub fn softmax_cross_entropy_ws(
    logits: &impl MatRef,
    labels: &[u32],
    ws: &mut Workspace,
) -> (f32, Tensor) {
    let (n, c) = logits.shape();
    assert_eq!(labels.len(), n);
    if n == 0 {
        return (0.0, ws.take(0, c));
    }
    // The softmax is written straight into the gradient (every element),
    // whose label entry then reads its probability before taking the −1.
    let mut grad = ws.take_uninit(n, c);
    ops::row_softmax_into(logits, &mut grad);
    let mut loss = 0.0f32;
    let inv_n = 1.0 / n as f32;
    for (i, &label) in labels.iter().enumerate() {
        let l = label as usize;
        assert!(l < c, "label {l} out of range for {c} classes");
        let p = grad.get(i, l);
        loss -= p.max(1e-12).ln();
        grad.set(i, l, p - 1.0);
    }
    ops::scale_inplace(&mut grad, inv_n);
    (loss * inv_n, grad)
}

/// Mean absolute error for regression (`logits` is `[n, 1]`). Returns the
/// MAE and its (sub)gradient.
pub fn mae_loss(pred: &impl MatRef, targets: &[f32]) -> (f32, Tensor) {
    let n = pred.rows();
    assert_eq!(pred.cols(), 1);
    assert_eq!(targets.len(), n);
    let mut grad = Tensor::zeros(n, 1);
    let inv = 1.0 / n as f32;
    let mut loss = 0.0f32;
    for (i, &target) in targets.iter().enumerate() {
        let diff = pred.row(i)[0] - target;
        loss += diff.abs();
        grad.set(i, 0, diff.signum() * inv);
    }
    (loss * inv, grad)
}

/// Classification accuracy over the given token indices (all tokens when
/// `indices` is `None`).
pub fn accuracy(logits: &impl MatRef, labels: &[u32], indices: Option<&[u32]>) -> f64 {
    let pick = |i: usize| -> bool {
        let row = logits.row(i);
        let mut best = 0usize;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
        }
        best as u32 == labels[i]
    };
    match indices {
        Some(idx) => {
            if idx.is_empty() {
                return 0.0;
            }
            idx.iter().filter(|&&i| pick(i as usize)).count() as f64 / idx.len() as f64
        }
        None => {
            if labels.is_empty() {
                return 0.0;
            }
            (0..labels.len()).filter(|&i| pick(i)).count() as f64 / labels.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = Tensor::from_vec(2, 3, vec![10.0, 0.0, 0.0, 0.0, 10.0, 0.0]);
        let (loss, grad) = softmax_cross_entropy_ws(&logits, &[0, 1], &mut Workspace::new());
        assert!(loss < 1e-3);
        assert!(grad.norm() < 1e-3);
    }

    #[test]
    fn cross_entropy_of_uniform_is_ln_c() {
        let logits = Tensor::zeros(4, 5);
        let (loss, _) = softmax_cross_entropy_ws(&logits, &[0, 1, 2, 3], &mut Workspace::new());
        assert!((loss - (5.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_grad_matches_numerical() {
        let logits = Tensor::from_vec(2, 3, vec![0.3, -0.2, 0.5, 0.1, 0.9, -0.4]);
        let labels = [2u32, 0];
        let (_, grad) = softmax_cross_entropy_ws(&logits, &labels, &mut Workspace::new());
        let numeric = torchgt_tensor::gradcheck::numerical_grad(
            &logits,
            |p| softmax_cross_entropy_ws(p, &labels, &mut Workspace::new()).0,
            1e-3,
        );
        assert!(torchgt_tensor::gradcheck::max_abs_diff(&grad, &numeric) < 1e-3);
    }

    #[test]
    fn cross_entropy_over_no_rows_is_zero() {
        let (loss, grad) = softmax_cross_entropy_ws(&Tensor::zeros(0, 3), &[], &mut Workspace::new());
        assert_eq!(loss, 0.0);
        assert_eq!(grad.shape(), (0, 3));
    }

    #[test]
    fn mae_and_grad() {
        let pred = Tensor::from_vec(2, 1, vec![1.0, -1.0]);
        let (loss, grad) = mae_loss(&pred, &[0.0, 0.0]);
        assert!((loss - 1.0).abs() < 1e-6);
        assert_eq!(grad.data(), &[0.5, -0.5]);
    }

    #[test]
    fn accuracy_full_and_masked() {
        let logits = Tensor::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0]);
        let labels = [0u32, 1, 1];
        assert!((accuracy(&logits, &labels, None) - 2.0 / 3.0).abs() < 1e-9);
        assert!((accuracy(&logits, &labels, Some(&[0, 1])) - 1.0).abs() < 1e-9);
        assert_eq!(accuracy(&logits, &labels, Some(&[])), 0.0);
    }
}
