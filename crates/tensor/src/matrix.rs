//! Dense row-major matrix of `f64` with the handful of operations the
//! NASAIC controller and proxy trainer need.
//!
//! [`Matrix::matmul`] runs on the blocked, branch-free kernel in
//! [`crate::kernel`] and is bit-for-bit identical to the retained naive
//! reference [`Matrix::matmul_reference`] — see the kernel module docs
//! for why.

use crate::kernel;
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub};

/// A dense, row-major matrix of `f64`.
///
/// The matrix is deliberately simple: contiguous storage, no views, no
/// broadcasting.  All binary operations panic on shape mismatch, matching
/// the way the controller uses fixed-shape parameters.
///
/// # Example
///
/// ```
/// use nasaic_tensor::Matrix;
/// let m = Matrix::zeros(2, 3);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create an identity matrix of size `n x n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has inconsistent length");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Build a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Build a single-row matrix from a slice.
    pub fn row_vector(values: &[f64]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Build a single-column matrix from a slice.
    pub fn col_vector(values: &[f64]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as a `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix and return its row-major storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy one column into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn column(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column index {c} out of range");
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// Transpose into a caller-provided matrix, reusing its buffer.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reset_shape(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Resize to `rows x cols`, reusing the existing allocation when it is
    /// large enough.  Contents are unspecified afterwards (callers
    /// overwrite them).
    fn reset_shape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            rhs.rows,
            "matmul shape mismatch: {:?} vs {:?}",
            self.shape(),
            rhs.shape()
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        kernel::matmul(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
        out
    }

    /// Retained naive matrix product: the plain `i`-`k`-`j` triple loop,
    /// with no blocking, unrolling or zero-skip.
    ///
    /// This is the oracle the blocked kernels are property-tested against
    /// (`crates/tensor/tests/kernel_identity.rs` asserts `to_bits`
    /// equality) and `nasaic-bench eval` times the optimized
    /// path against.  It is **not** the hot path — use [`Matrix::matmul`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_reference(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            rhs.rows,
            "matmul_reference shape mismatch: {:?} vs {:?}",
            self.shape(),
            rhs.shape()
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix-vector product `self * x` into a caller-provided vector.
    ///
    /// Bit-identical to `self.matmul(&Matrix::col_vector(x))` read back as
    /// a slice.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec_into(&self, x: &[f64], out: &mut Vec<f64>) {
        assert_eq!(
            x.len(),
            self.cols,
            "matvec shape mismatch: {:?} vs {}x1",
            self.shape(),
            x.len()
        );
        out.clear();
        out.resize(self.rows, 0.0);
        kernel::matvec(&self.data, x, out, self.rows, self.cols);
    }

    /// Transposed matrix-vector product `self^T * x` into a
    /// caller-provided vector.
    ///
    /// Bit-identical to `self.transpose().matmul(&Matrix::col_vector(x))`
    /// read back as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn matvec_tn_into(&self, x: &[f64], out: &mut Vec<f64>) {
        assert_eq!(
            x.len(),
            self.rows,
            "matvec_tn shape mismatch: {:?} vs {}x1",
            self.shape(),
            x.len()
        );
        out.clear();
        out.resize(self.cols, 0.0);
        kernel::matvec_tn(&self.data, x, out, self.rows, self.cols);
    }

    /// Overwrite `self` with the column vector `values` (`len x 1`),
    /// reusing the existing buffer.
    pub fn set_col_vector(&mut self, values: &[f64]) {
        self.reset_shape(values.len(), 1);
        self.data.copy_from_slice(values);
    }

    /// Overwrite `self` with the outer product `col * row^T`
    /// (`col.len() x row.len()`), reusing the existing buffer.
    ///
    /// Bit-identical to
    /// `Matrix::col_vector(col).matmul(&Matrix::row_vector(row))`.
    pub fn set_outer(&mut self, col: &[f64], row: &[f64]) {
        self.reset_shape(col.len(), row.len());
        kernel::set_outer(&mut self.data, col, row);
    }

    /// Rank-1 update `self += col * row^T`.
    ///
    /// Bit-identical to adding
    /// `Matrix::col_vector(col).matmul(&Matrix::row_vector(row))`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not `col.len() x row.len()`.
    pub fn add_outer(&mut self, col: &[f64], row: &[f64]) {
        assert_eq!(
            self.shape(),
            (col.len(), row.len()),
            "add_outer shape mismatch"
        );
        kernel::add_outer(&mut self.data, col, row);
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "hadamard shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a * b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Apply a function to every element, returning a new matrix.
    pub fn map<F: Fn(f64) -> f64>(&self, f: F) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&v| f(v)).collect(),
        )
    }

    /// Apply a function to every element in place.
    pub fn map_inplace<F: Fn(f64) -> f64>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Multiply every element by a scalar, returning a new matrix.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }

    /// `self += alpha * rhs` (AXPY).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Largest absolute element value, or `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Concatenate two single-row matrices horizontally.
    ///
    /// # Panics
    ///
    /// Panics if either matrix has more than one row.
    pub fn hconcat_rows(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, 1, "hconcat_rows expects row vectors");
        assert_eq!(rhs.rows, 1, "hconcat_rows expects row vectors");
        let mut data = self.data.clone();
        data.extend_from_slice(&rhs.data);
        Matrix::from_vec(1, self.cols + rhs.cols, data)
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:10.4} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f64) -> Matrix {
        self.scale(rhs)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        self.axpy(1.0, rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_correct_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_matmul_is_identity_op() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0][..], &[4.0, 5.0, 6.0][..]]);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0][..], &[7.0, 8.0][..]]);
        let c = a.matmul(&b);
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0][..], &[43.0, 50.0][..]])
        );
    }

    #[test]
    fn matmul_matches_reference() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 0.0][..], &[0.5, 4.0, -1.0][..]]);
        let b = Matrix::from_rows(&[&[2.0, 1.0][..], &[0.0, -3.0][..], &[1.5, 0.25][..]]);
        assert_eq!(a.matmul(&b), a.matmul_reference(&b));
    }

    #[test]
    fn matvec_matches_col_vector_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0][..], &[4.0, 5.0, 6.0][..]]);
        let x = [1.0, -1.0, 2.0];
        let mut y = Vec::new();
        a.matvec_into(&x, &mut y);
        assert_eq!(y, a.matmul(&Matrix::col_vector(&x)).into_vec());
        let z = [0.5, -0.25];
        let mut yt = Vec::new();
        a.matvec_tn_into(&z, &mut yt);
        assert_eq!(yt, a.transpose().matmul(&Matrix::col_vector(&z)).into_vec());
    }

    #[test]
    fn outer_product_helpers_match_matmul_composition() {
        let col = [1.0, -2.0];
        let row = [3.0, 0.5, -1.0];
        let expected = Matrix::col_vector(&col).matmul(&Matrix::row_vector(&row));
        let mut m = Matrix::default();
        m.set_outer(&col, &row);
        assert_eq!(m, expected);
        m.add_outer(&col, &row);
        assert_eq!(m, expected.scale(2.0));
    }

    #[test]
    fn set_col_vector_reuses_buffer() {
        let mut m = Matrix::zeros(4, 4);
        m.set_col_vector(&[1.0, 2.0]);
        assert_eq!(m, Matrix::col_vector(&[1.0, 2.0]));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0][..], &[4.0, 5.0, 6.0][..]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
    }

    #[test]
    fn hadamard_multiplies_elementwise() {
        let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]);
        let b = Matrix::from_rows(&[&[2.0, 2.0][..], &[0.5, 0.25][..]]);
        let c = a.hadamard(&b);
        assert_eq!(c, Matrix::from_rows(&[&[2.0, 4.0][..], &[1.5, 1.0][..]]));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let g = Matrix::filled(2, 2, 2.0);
        a.axpy(-0.5, &g);
        assert_eq!(a, Matrix::zeros(2, 2));
    }

    #[test]
    fn row_and_column_extraction() {
        let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.column(0), vec![1.0, 3.0]);
    }

    #[test]
    fn hconcat_rows_joins_vectors() {
        let a = Matrix::row_vector(&[1.0, 2.0]);
        let b = Matrix::row_vector(&[3.0]);
        assert_eq!(a.hconcat_rows(&b), Matrix::row_vector(&[1.0, 2.0, 3.0]));
    }

    #[test]
    fn add_sub_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0][..]]);
        let b = Matrix::from_rows(&[&[0.5, 0.5][..]]);
        let c = &(&a + &b) - &b;
        assert_eq!(c, a);
    }

    #[test]
    #[should_panic]
    fn from_rows_rejects_ragged_input() {
        Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0][..]]);
    }

    #[test]
    #[should_panic]
    fn index_out_of_range_panics() {
        let a = Matrix::zeros(1, 1);
        let _ = a[(1, 0)];
    }
}
