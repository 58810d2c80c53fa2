//! The core 2-D row-major `f32` tensor.
//!
//! Graph-transformer training only ever manipulates matrices shaped
//! `[sequence, hidden]`, `[hidden, hidden]` or `[sequence, sequence]`, so a
//! 2-D tensor keeps the substrate simple without losing generality. Vectors
//! are represented as `1 × n` tensors.

use std::fmt;

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl Tensor {
    /// Create a tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { data: vec![0.0; rows * cols], rows, cols }
    }

    /// Create a tensor filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { data: vec![value; rows * cols], rows, cols }
    }

    /// Create a tensor from an existing buffer. Panics if the buffer length
    /// does not match `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Self { data, rows, cols }
    }

    /// Create a `1 × n` row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let cols = data.len();
        Self { data, rows: 1, cols }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// The rows `[start, end)` as one contiguous slice.
    #[inline]
    pub fn row_span(&self, start: usize, end: usize) -> &[f32] {
        &self.data[start * self.cols..end * self.cols]
    }

    /// The rows `[start, end)` as one contiguous mutable slice — where a
    /// row-tile kernel writes its share of a whole-sequence tensor.
    #[inline]
    pub fn row_span_mut(&mut self, start: usize, end: usize) -> &mut [f32] {
        &mut self.data[start * self.cols..end * self.cols]
    }

    /// Scatter-add rows of `src` into this tensor at positions `indices`.
    pub fn scatter_add_rows(&mut self, indices: &[usize], src: &Tensor) {
        assert_eq!(indices.len(), src.rows());
        assert_eq!(self.cols, src.cols());
        for (s, &dst) in indices.iter().enumerate() {
            let row = self.row_mut(dst);
            for (a, b) in row.iter_mut().zip(src.row(s)) {
                *a += b;
            }
        }
    }

    /// Vertically stack tensors that share a column count.
    pub fn vstack(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty());
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&p.data);
        }
        Tensor { data, rows, cols }
    }

    /// Horizontally concatenate tensors that share a row count.
    pub fn hstack(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty());
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Tensor::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for p in parts {
                assert_eq!(p.rows, rows, "hstack row mismatch");
                out.row_mut(r)[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        out
    }

    /// Extract the row range `[start, end)` as a new tensor.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        assert!(start <= end && end <= self.rows);
        let data = self.data[start * self.cols..end * self.cols].to_vec();
        Tensor { data, rows: end - start, cols: self.cols }
    }

    /// Extract the column range `[start, end)` as a new tensor.
    pub fn slice_cols(&self, start: usize, end: usize) -> Tensor {
        assert!(start <= end && end <= self.cols);
        let mut out = Tensor::zeros(self.rows, end - start);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Set every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(3, 4);
        assert_eq!(t.shape(), (3, 4));
        assert_eq!(t.len(), 12);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(2, 3);
        t.set(1, 2, 7.5);
        assert_eq!(t.get(1, 2), 7.5);
        assert_eq!(t.row(1), &[0.0, 0.0, 7.5]);
    }

    #[test]
    fn from_vec_layout_is_row_major() {
        let t = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.get(0, 1), 2.0);
        assert_eq!(t.get(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "buffer length mismatch")]
    fn from_vec_rejects_bad_len() {
        let _ = Tensor::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn scatter_add_places_rows_at_their_indices() {
        let picked = Tensor::from_vec(2, 2, vec![5., 6., 1., 2.]);
        let mut acc = Tensor::zeros(3, 2);
        acc.scatter_add_rows(&[2, 0], &picked);
        assert_eq!(acc.row(2), &[5., 6.]);
        assert_eq!(acc.row(0), &[1., 2.]);
        assert_eq!(acc.row(1), &[0., 0.]);
    }

    #[test]
    fn vstack_concatenates_rows() {
        let a = Tensor::from_vec(1, 2, vec![1., 2.]);
        let b = Tensor::from_vec(2, 2, vec![3., 4., 5., 6.]);
        let s = Tensor::vstack(&[&a, &b]);
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(2), &[5., 6.]);
    }

    #[test]
    fn hstack_concatenates_cols() {
        let a = Tensor::from_vec(2, 1, vec![1., 2.]);
        let b = Tensor::from_vec(2, 2, vec![3., 4., 5., 6.]);
        let s = Tensor::hstack(&[&a, &b]);
        assert_eq!(s.shape(), (2, 3));
        assert_eq!(s.row(0), &[1., 3., 4.]);
        assert_eq!(s.row(1), &[2., 5., 6.]);
    }

    #[test]
    fn slice_rows_and_cols() {
        let t = Tensor::from_vec(3, 3, (0..9).map(|v| v as f32).collect());
        let r = t.slice_rows(1, 3);
        assert_eq!(r.shape(), (2, 3));
        assert_eq!(r.row(0), &[3., 4., 5.]);
        let c = t.slice_cols(1, 2);
        assert_eq!(c.shape(), (3, 1));
        assert_eq!(c.data(), &[1., 4., 7.]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(1, 4, vec![1., 2., 3., 4.]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert!((t.norm() - 30.0_f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(1, 2);
        assert!(!t.has_non_finite());
        t.set(0, 1, f32::NAN);
        assert!(t.has_non_finite());
    }
}
