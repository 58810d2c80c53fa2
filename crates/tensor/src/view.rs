//! Borrowed matrix views.
//!
//! Multi-head attention packs all heads of Q/K/V into one `[s, d]` tensor and
//! works head-by-head on `[s, d_head]` column blocks. Copying each block out
//! (`slice_cols`) costs one allocation plus a full copy per head per layer per
//! pass; [`TensorView`] instead borrows the packed buffer with a row stride,
//! and the kernels accept any [`MatRef`] so a view and an owned [`Tensor`]
//! run through the same code path.

use crate::tensor::Tensor;

/// Read-only row-major matrix access — the input interface of the `_into`
/// kernels in [`crate::ops`]. Implemented by owned [`Tensor`]s and borrowed
/// [`TensorView`]s.
pub trait MatRef: Sync {
    /// Number of rows.
    fn rows(&self) -> usize;
    /// Number of columns.
    fn cols(&self) -> usize;
    /// Contiguous slice of row `r` (length [`MatRef::cols`]).
    fn row(&self, r: usize) -> &[f32];

    /// `(rows, cols)` pair.
    fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    /// The backing storage from element `(0, 0)` on and the row stride:
    /// row `r` is `data[r * stride .. r * stride + cols]`. This is how the
    /// level-3 kernels address a whole operand instead of one row at a time.
    fn strided(&self) -> (&[f32], usize);
}

impl MatRef for Tensor {
    #[inline]
    fn rows(&self) -> usize {
        Tensor::rows(self)
    }

    #[inline]
    fn cols(&self) -> usize {
        Tensor::cols(self)
    }

    #[inline]
    fn row(&self, r: usize) -> &[f32] {
        Tensor::row(self, r)
    }

    #[inline]
    fn strided(&self) -> (&[f32], usize) {
        (self.data(), Tensor::cols(self))
    }
}

/// A zero-copy column-block view of a packed row-major tensor: row `r` is
/// `data[r * stride + offset .. r * stride + offset + cols]`. Created by
/// [`Tensor::view_cols`].
#[derive(Clone, Copy)]
pub struct TensorView<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    stride: usize,
    offset: usize,
}

impl<'a> TensorView<'a> {
    /// Build a view over `data` with an explicit row stride and column
    /// offset. `data` must hold at least `rows * stride` elements and the
    /// block `[offset, offset + cols)` must lie within each stride.
    pub fn new(data: &'a [f32], rows: usize, cols: usize, stride: usize, offset: usize) -> Self {
        assert!(offset + cols <= stride, "view column block exceeds row stride");
        assert!(rows * stride <= data.len(), "view rows exceed backing buffer");
        Self { data, rows, cols, stride, offset }
    }

    /// View `data` as whole contiguous `cols`-wide rows — a row tile that
    /// lives in a scratch slice rather than a [`Tensor`].
    pub fn contiguous(data: &'a [f32], cols: usize) -> Self {
        Self::new(data, data.len().checked_div(cols).unwrap_or(0), cols, cols, 0)
    }
}

impl MatRef for TensorView<'_> {
    #[inline]
    fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn row(&self, r: usize) -> &[f32] {
        let start = r * self.stride + self.offset;
        &self.data[start..start + self.cols]
    }

    #[inline]
    fn strided(&self) -> (&[f32], usize) {
        // A zero-row view may sit on a buffer shorter than its offset.
        (self.data.get(self.offset..).unwrap_or(&[]), self.stride)
    }
}

impl Tensor {
    /// Borrow the column range `[start, end)` as a zero-copy view — the
    /// non-allocating counterpart of [`Tensor::slice_cols`].
    pub fn view_cols(&self, start: usize, end: usize) -> TensorView<'_> {
        assert!(start <= end && end <= self.cols(), "view_cols range out of bounds");
        TensorView::new(self.data(), self.rows(), end - start, self.cols(), start)
    }

    /// Borrow the row range `[start, end)` as a zero-copy view — one row
    /// tile of a whole-sequence tensor (the non-allocating counterpart of
    /// [`Tensor::slice_rows`]).
    pub fn view_rows(&self, start: usize, end: usize) -> TensorView<'_> {
        assert!(start <= end && end <= self.rows(), "view_rows range out of bounds");
        let cols = self.cols();
        TensorView::new(self.row_span(start, end), end - start, cols, cols, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_cols_matches_slice_cols() {
        let t = Tensor::from_vec(3, 4, (0..12).map(|v| v as f32).collect());
        let v = t.view_cols(1, 3);
        let c = t.slice_cols(1, 3);
        assert_eq!(v.shape(), c.shape());
        for r in 0..3 {
            assert_eq!(v.row(r), c.row(r));
        }
    }

    #[test]
    fn view_rows_matches_slice_rows() {
        let t = Tensor::from_vec(4, 3, (0..12).map(|v| v as f32).collect());
        let v = t.view_rows(1, 3);
        let s = t.slice_rows(1, 3);
        assert_eq!(v.shape(), s.shape());
        for r in 0..2 {
            assert_eq!(v.row(r), s.row(r));
        }
        assert_eq!(v.strided(), (&t.data()[3..9], 3));
        assert_eq!(t.view_rows(4, 4).shape(), (0, 3));
    }

    #[test]
    fn full_width_view_is_the_tensor() {
        let t = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let v = t.view_cols(0, 3);
        for r in 0..2 {
            assert_eq!(v.row(r), t.row(r));
        }
    }

    #[test]
    fn empty_view_is_allowed() {
        let t = Tensor::zeros(2, 3);
        let v = t.view_cols(2, 2);
        assert_eq!(v.shape(), (2, 0));
        assert!(v.row(1).is_empty());
    }

    #[test]
    #[should_panic(expected = "view_cols range out of bounds")]
    fn view_cols_rejects_overflow() {
        let t = Tensor::zeros(2, 3);
        let _ = t.view_cols(1, 4);
    }
}
