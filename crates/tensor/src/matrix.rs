//! Row-major dense matrix with the products needed by BPTT.

use crate::kernels;
use crate::Rng;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Error returned when operand shapes do not agree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Human-readable description of the mismatch.
    pub message: String,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shape mismatch: {}", self.message)
    }
}

impl std::error::Error for ShapeError {}

/// A dense, row-major `rows × cols` matrix of `f32`.
///
/// This is the single tensor type used across the workspace: layer weight
/// matrices, gradient accumulators and crossbar conductance maps are all
/// `Matrix` values. The layout is row-major, so `self.data[r * cols + c]`
/// is element `(r, c)`.
///
/// # Examples
///
/// ```
/// use snn_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Xavier/Glorot-uniform initialization: `U(-a, a)` with
    /// `a = sqrt(6 / (fan_in + fan_out))`. This is what the reference
    /// PyTorch implementation uses for `nn.Linear`.
    pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut Rng) -> Self {
        let a = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols).map(|_| rng.uniform(-a, a)).collect();
        Self { rows, cols, data }
    }

    /// Kaiming-uniform initialization scaled by fan-in.
    pub fn kaiming_uniform(rows: usize, cols: usize, rng: &mut Rng) -> Self {
        let a = (3.0 / cols.max(1) as f32).sqrt();
        let data = (0..rows * cols).map(|_| rng.uniform(-a, a)).collect();
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrows the flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the flat row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix–vector product `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(
            x.len(),
            self.cols,
            "matvec: x has {} entries, need {}",
            x.len(),
            self.cols
        );
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix–vector product into a caller-provided buffer (hot path of
    /// the forward rollout; avoids per-timestep allocation).
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn matvec_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec_into: bad x");
        assert_eq!(y.len(), self.rows, "matvec_into: bad y");
        for (r, yr) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            *yr = kernels::dot(row, x);
        }
    }

    /// Reference (naive, un-unrolled) matrix–vector product, kept as the
    /// yardstick for property tests and the kernel benchmarks.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn matvec_into_naive(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec_into_naive: bad x");
        assert_eq!(y.len(), self.rows, "matvec_into_naive: bad y");
        for (r, yr) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0f32;
            for (w, &xi) in row.iter().zip(x) {
                acc += w * xi;
            }
            *yr = acc;
        }
    }

    /// Transposed matrix–vector product `y = Aᵀ x` (the backward pass of a
    /// dense layer).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn matvec_t(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(
            x.len(),
            self.rows,
            "matvec_t: x has {} entries, need {}",
            x.len(),
            self.rows
        );
        let mut y = vec![0.0; self.cols];
        self.matvec_t_into(x, &mut y);
        y
    }

    /// Transposed matrix–vector product into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn matvec_t_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.rows, "matvec_t_into: bad x");
        assert_eq!(y.len(), self.cols, "matvec_t_into: bad y");
        y.fill(0.0);
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            kernels::axpy(xr, row, y);
        }
    }

    /// Transposed product `y = Aᵀ x` where only the rows listed in
    /// `active` carry nonzero `x` entries (a precomputed active-index
    /// list, e.g. the spiking channels of a timestep). `O(cols · nnz)`.
    ///
    /// The event-driven BPTT (`snn_core::train::backward_sparse_into`)
    /// projects each timestep's pruned membrane adjoint through this
    /// kernel, listing the surviving error events as `active`. It is
    /// pinned to [`matvec_t_into`](Self::matvec_t_into) by property
    /// tests.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree or an index is out of range.
    pub fn matvec_t_into_indexed(&self, x: &[f32], active: &[usize], y: &mut [f32]) {
        assert_eq!(x.len(), self.rows, "matvec_t_into_indexed: bad x");
        assert_eq!(y.len(), self.cols, "matvec_t_into_indexed: bad y");
        y.fill(0.0);
        for &r in active {
            assert!(
                r < self.rows,
                "matvec_t_into_indexed: row {r} out of bounds"
            );
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            kernels::axpy(x[r], row, y);
        }
    }

    /// Rank-1 update `A += alpha * u vᵀ` (weight-gradient accumulation).
    ///
    /// # Panics
    ///
    /// Panics if `u.len() != rows` or `v.len() != cols`.
    pub fn add_outer(&mut self, alpha: f32, u: &[f32], v: &[f32]) {
        assert_eq!(u.len(), self.rows, "add_outer: bad u");
        assert_eq!(v.len(), self.cols, "add_outer: bad v");
        for (r, &ur) in u.iter().enumerate() {
            if ur == 0.0 {
                continue;
            }
            let scale = alpha * ur;
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            kernels::axpy(scale, v, row);
        }
    }

    /// Rank-1 update `A += alpha · u · vᵀ` where `v` is **binary** and
    /// given by its active-index list: `A[r, c] += alpha·u[r]` for every
    /// `c` in `active`. `O(nnz(u) · nnz(v))` instead of
    /// `O(nnz(u) · cols)` — the BPTT weight-gradient update for layers
    /// whose presynaptic trace is a raw spike raster.
    ///
    /// # Panics
    ///
    /// Panics if `u.len() != rows` or an index is out of range.
    pub fn add_outer_indexed(&mut self, alpha: f32, u: &[f32], active: &[usize]) {
        assert_eq!(u.len(), self.rows, "add_outer_indexed: bad u");
        if let Some(&max) = active.iter().max() {
            assert!(
                max < self.cols,
                "add_outer_indexed: column {max} out of bounds"
            );
        }
        for (r, &ur) in u.iter().enumerate() {
            if ur == 0.0 {
                continue;
            }
            let scale = alpha * ur;
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for &c in active {
                row[c] += scale;
            }
        }
    }

    /// Rank-1 update `A += alpha · u vᵀ` where only the rows listed in
    /// `active` carry nonzero `u` entries (a precomputed error-event
    /// list). `O(nnz(u) · cols)` with no scan over silent rows — the
    /// weight-gradient update of the event-driven backward pass for
    /// layers whose presynaptic trace `v` is dense (the adaptive model's
    /// filtered trace).
    ///
    /// For an `active` list holding exactly `u`'s nonzero indices this
    /// is bit-identical to [`add_outer`](Self::add_outer), which skips
    /// those same rows by scanning.
    ///
    /// # Panics
    ///
    /// Panics if `u.len() != rows`, `v.len() != cols`, or an index is
    /// out of range.
    pub fn add_outer_indexed_rows(&mut self, alpha: f32, u: &[f32], active: &[usize], v: &[f32]) {
        assert_eq!(u.len(), self.rows, "add_outer_indexed_rows: bad u");
        assert_eq!(v.len(), self.cols, "add_outer_indexed_rows: bad v");
        for &r in active {
            assert!(
                r < self.rows,
                "add_outer_indexed_rows: row {r} out of bounds"
            );
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            kernels::axpy(alpha * u[r], v, row);
        }
    }

    /// Rank-1 update `A += alpha · u vᵀ` over an (active error row ×
    /// active spike column) index pair: `v` is **binary** and both
    /// vectors are given by their active lists, so the update costs
    /// `O(nnz(u) · nnz(v))` and touches no silent row or column — the
    /// fully event-driven weight-gradient update for layers whose
    /// presynaptic trace is a raw spike raster.
    ///
    /// For a `rows_active` list holding exactly `u`'s nonzero indices
    /// this is bit-identical to
    /// [`add_outer_indexed`](Self::add_outer_indexed).
    ///
    /// # Panics
    ///
    /// Panics if `u.len() != rows` or an index of either list is out of
    /// range.
    pub fn add_outer_indexed_pairs(
        &mut self,
        alpha: f32,
        u: &[f32],
        rows_active: &[usize],
        cols_active: &[usize],
    ) {
        assert_eq!(u.len(), self.rows, "add_outer_indexed_pairs: bad u");
        if let Some(&max) = cols_active.iter().max() {
            assert!(
                max < self.cols,
                "add_outer_indexed_pairs: column {max} out of bounds"
            );
        }
        for &r in rows_active {
            assert!(
                r < self.rows,
                "add_outer_indexed_pairs: row {r} out of bounds"
            );
            let scale = alpha * u[r];
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for &c in cols_active {
                row[c] += scale;
            }
        }
    }

    /// Reshapes in place to `rows × cols`, zero-filling the contents.
    /// Reuses the existing buffer when capacity allows, so scratch
    /// matrices resized to recurring shapes never reallocate.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Matrix–matrix product `C = A B`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        if self.cols != other.rows {
            return Err(ShapeError {
                message: format!(
                    "cannot multiply {}x{} by {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[k * other.cols..(k + 1) * other.cols];
                let crow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (c, &b) in crow.iter_mut().zip(brow) {
                    *c += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise in-place map.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_scaled(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scales every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Sets every element to zero (gradient reset between steps).
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Maximum absolute element, or 0 for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Returns true if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

impl Default for Matrix {
    /// An empty `0 × 0` matrix (scratch buffers before first use).
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_rows_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]);
        let y = m.matvec(&[3.0, 2.0]);
        assert_eq!(y, vec![1.0, 7.0]);
    }

    #[test]
    fn matvec_t_is_transpose_matvec() {
        let m = Matrix::from_rows(&[&[1.0, -1.0, 0.5], &[2.0, 0.5, -2.0]]);
        let x = [3.0, 2.0];
        let direct = m.matvec_t(&x);
        let via_transpose = m.transpose().matvec(&x);
        for (a, b) in direct.iter().zip(&via_transpose) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn add_outer_matches_definition() {
        let mut m = Matrix::zeros(2, 3);
        m.add_outer(2.0, &[1.0, -1.0], &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[2.0, 4.0, 6.0]);
        assert_eq!(m.row(1), &[-2.0, -4.0, -6.0]);
    }

    #[test]
    fn add_outer_indexed_rows_matches_definition() {
        let mut m = Matrix::zeros(3, 2);
        let u = [2.0, 0.0, -1.0];
        m.add_outer_indexed_rows(0.5, &u, &[0, 2], &[1.0, 4.0]);
        assert_eq!(m.row(0), &[1.0, 4.0]);
        assert_eq!(m.row(1), &[0.0, 0.0]);
        assert_eq!(m.row(2), &[-0.5, -2.0]);
    }

    #[test]
    fn add_outer_indexed_pairs_matches_definition() {
        let mut m = Matrix::zeros(2, 3);
        let u = [3.0, -2.0];
        m.add_outer_indexed_pairs(2.0, &u, &[1], &[0, 2]);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
        assert_eq!(m.row(1), &[-4.0, 0.0, -4.0]);
    }

    #[test]
    #[should_panic(expected = "row 5 out of bounds")]
    fn add_outer_indexed_rows_bad_index_panics() {
        Matrix::zeros(2, 2).add_outer_indexed_rows(1.0, &[1.0, 1.0], &[5], &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "column 9 out of bounds")]
    fn add_outer_indexed_pairs_bad_column_panics() {
        Matrix::zeros(2, 2).add_outer_indexed_pairs(1.0, &[1.0, 1.0], &[0], &[9]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let out = m.matmul(&Matrix::identity(2)).unwrap();
        assert_eq!(out, m);
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let err = a.matmul(&b).unwrap_err();
        assert!(err.to_string().contains("cannot multiply"));
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng::seed_from(3);
        let m = Matrix::xavier_uniform(4, 7, &mut rng);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = Rng::seed_from(3);
        let m = Matrix::xavier_uniform(100, 50, &mut rng);
        let a = (6.0f32 / 150.0).sqrt();
        assert!(m.as_slice().iter().all(|&x| x.abs() <= a));
        // Not degenerate:
        assert!(m.max_abs() > a * 0.5);
    }

    #[test]
    fn add_scaled_and_scale() {
        let mut a = Matrix::full(2, 2, 1.0);
        let b = Matrix::full(2, 2, 2.0);
        a.add_scaled(0.5, &b);
        assert_eq!(a, Matrix::full(2, 2, 2.0));
        a.scale(0.25);
        assert_eq!(a, Matrix::full(2, 2, 0.5));
    }

    #[test]
    fn non_finite_detection() {
        let mut m = Matrix::zeros(1, 2);
        assert!(!m.has_non_finite());
        m[(0, 1)] = f32::NAN;
        assert!(m.has_non_finite());
    }

    #[test]
    #[should_panic(expected = "matvec")]
    fn matvec_wrong_len_panics() {
        Matrix::zeros(2, 3).matvec(&[1.0, 2.0]);
    }
}
