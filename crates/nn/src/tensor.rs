//! Minimal row-major `f32` matrix used throughout the NN substrate.
//!
//! This is deliberately simple: the networks in the EVAX paper are small dense
//! nets (at most a few hundred units wide, 32 layers deep in the Fig. 20
//! ablation), so a cache-friendly row-major `Vec<f32>` with a blocked matmul
//! is more than fast enough and keeps the crate dependency-free.

use std::fmt;

/// A dense row-major matrix of `f32`.
///
/// Rows usually index samples in a batch; columns index features/units.
///
/// # Example
/// ```
/// use evax_nn::Matrix;
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Copies `source` into `self`, reusing `self`'s buffer when its
    /// capacity allows.
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            for r in 0..self.rows {
                write!(f, "\n  [")?;
                for c in 0..self.cols {
                    if c > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{:.4}", self.get(r, c))?;
                }
                write!(f, "]")?;
            }
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Panics
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows.checked_mul(cols).expect("matrix size overflow");
        Matrix {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates a matrix filled with a constant value.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row vectors.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "inconsistent row length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a `1 x n` row matrix from a slice.
    pub fn from_row(row: &[f32]) -> Self {
        Matrix {
            rows: 1,
            cols: row.len(),
            data: row.to_vec(),
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns element `(r, c)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    ///
    /// # Panics
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes to `rows x cols` and zero-fills, reusing the buffer when its
    /// capacity allows — how the `*_into` products and training buffers
    /// refill in place.
    ///
    /// # Panics
    /// Panics if `rows * cols` overflows `usize`.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        let len = rows.checked_mul(cols).expect("matrix size overflow");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(len, 0.0);
    }

    /// Matrix product `self * other`.
    ///
    /// Each element `(i, j)` sums `self[i][k] * other[k][j]` from +0.0 in
    /// ascending `k`, skipping the terms where `self[i][k] == 0.0`. Every
    /// product in this crate is serial and keeps that order, so results
    /// are bitwise reproducible; parallelism belongs to callers that fan
    /// out independent work.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] written into a caller-owned output matrix, reusing
    /// its buffer when capacity allows (`out` is reshaped to `self.rows ×
    /// other.cols`). Bit-identical to `matmul`.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        out.reset(self.rows, other.cols);
        let a = Strided {
            data: &self.data,
            row_stride: self.cols,
            col_stride: 1,
        };
        gemm(a, &other.data, other.cols, &mut out.data, true);
    }

    /// `self^T * other` without materializing the transpose.
    ///
    /// Element `(i, j)` sums `self[r][i] * other[r][j]` from +0.0 in
    /// ascending `r`, skipping the terms where `self[r][i] == 0.0` — the
    /// same order and skips as `self.transpose().matmul(other)`.
    ///
    /// # Panics
    /// Panics if `self.rows != other.rows`.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_tn`] into a caller-owned output (reshaped to
    /// `self.cols × other.cols`).
    ///
    /// # Panics
    /// Panics if `self.rows != other.rows`.
    pub(crate) fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "matmul_tn dimension mismatch");
        out.reset(self.cols, other.cols);
        let a = Strided {
            data: &self.data,
            row_stride: 1,
            col_stride: self.cols,
        };
        gemm(a, &other.data, other.cols, &mut out.data, true);
    }

    /// `self * other^T`.
    ///
    /// Element `(i, j)` sums `self[i][k] * other[j][k]` from +0.0 in
    /// ascending `k` and skips **no** term (a `0.0` factor times an
    /// infinity still yields NaN).
    ///
    /// # Panics
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        let (mut other_t, mut out) = (Matrix::default(), Matrix::default());
        self.matmul_nt_into(other, &mut other_t, &mut out);
        out
    }

    /// [`Matrix::matmul_nt`] into caller-owned buffers: `other_t` receives
    /// `other`'s transpose, so the product runs as the same contiguous
    /// i-k-j loop as [`Matrix::matmul`]; `out` is reshaped to `self.rows ×
    /// other.rows`.
    ///
    /// # Panics
    /// Panics if `self.cols != other.cols`.
    pub(crate) fn matmul_nt_into(&self, other: &Matrix, other_t: &mut Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_nt dimension mismatch");
        other.transpose_into(other_t);
        out.reset(self.rows, other.rows);
        let a = Strided {
            data: &self.data,
            row_stride: self.cols,
            col_stride: 1,
        };
        gemm(a, &other_t.data, other.rows, &mut out.data, false);
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// Writes the transpose into `out` (reshaped to `self.cols × self.rows`).
    pub(crate) fn transpose_into(&self, out: &mut Matrix) {
        out.reset(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Element-wise in-place map.
    pub fn map_inplace<F: FnMut(f32) -> f32>(&mut self, mut f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise map into a new matrix.
    pub fn map<F: FnMut(f32) -> f32>(&self, f: F) -> Matrix {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// In-place element-wise addition.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place element-wise subtraction.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn sub_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a -= b;
        }
    }

    /// In-place scaling by a scalar.
    pub fn scale(&mut self, k: f32) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Adds a row vector (broadcast) to every row.
    ///
    /// # Panics
    /// Panics if `bias.len() != self.cols`.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "broadcast width mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (v, &b) in row.iter_mut().zip(bias.iter()) {
                *v += b;
            }
        }
    }

    /// Sums each column into a vector of length `cols`.
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = Vec::new();
        self.col_sums_into(&mut sums);
        sums
    }

    /// [`Matrix::col_sums`] into a caller-owned vector (resized to `cols`);
    /// each sum runs from +0.0 over ascending rows.
    pub(crate) fn col_sums_into(&self, sums: &mut Vec<f32>) {
        sums.clear();
        sums.resize(self.cols, 0.0);
        for r in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(r).iter()) {
                *s += v;
            }
        }
    }

    /// Horizontally concatenates `self | other`.
    ///
    /// # Panics
    /// Panics if row counts differ.
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hcat row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Vertically concatenates `self` on top of `other`.
    ///
    /// # Panics
    /// Panics if column counts differ.
    pub fn vcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vcat col mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Returns a new matrix containing the selected rows, in order.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
        out
    }

    /// Mean of all elements. Returns 0 for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }
}

/// Batched mat-vec: `out[r] = rows[r] · w + bias` over a flat row-major
/// batch (`out.len()` rows of `w.len()` features each), split across
/// `threads` scoped workers (`0` and `1` both run inline). The caller picks
/// the worker count; the crate has no thread policy of its own.
///
/// Each row is reduced with the exact ascending-index
/// `iter().zip().map().sum()` chain that `HwPerceptron::score` uses for a
/// single window, entirely on one worker thread, so every per-row result is
/// **bit-identical** to scoring that row alone — independent of batch
/// composition, batch size, and thread count. That property is what lets
/// the fleet scheduler keep verdicts byte-identical across thread counts
/// (see evax-defense). The `Matrix` products, by contrast, are serial.
///
/// # Panics
/// Panics if `rows.len() != out.len() * w.len()`.
pub fn matvec_bias_into(rows: &[f32], w: &[f32], bias: f32, threads: usize, out: &mut [f32]) {
    assert_eq!(
        rows.len(),
        out.len() * w.len(),
        "batch length mismatch: {} values for {} rows of {} features",
        rows.len(),
        out.len(),
        w.len()
    );
    let n = w.len();
    if n == 0 {
        out.fill(bias);
        return;
    }
    score_spans(out, threads, |row0, span| {
        for (i, o) in span.iter_mut().enumerate() {
            let x = &rows[(row0 + i) * n..(row0 + i + 1) * n];
            *o = w.iter().zip(x.iter()).map(|(&w, &v)| w * v).sum::<f32>() + bias;
        }
    });
}

/// Runs `score(first_row, span)` over contiguous spans of a batch's
/// per-row outputs: inline when `threads <= 1`, else one span per scoped
/// worker. Each row is written by exactly one worker, so per-row results
/// never depend on the thread count. The batched scoring kernels
/// ([`matvec_bias_into`] and `QuantLinear::score_rows_q_into`) are the only
/// threaded code in this crate.
pub(crate) fn score_spans<T, F>(out: &mut [T], threads: usize, score: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let threads = threads.min(out.len());
    if threads <= 1 {
        score(0, out);
        return;
    }
    let chunk = out.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (idx, span) in out.chunks_mut(chunk).enumerate() {
            let score = &score;
            scope.spawn(move || score(idx * chunk, span));
        }
    });
}

/// A left operand read through strides: element `(i, p)` is
/// `data[i * row_stride + p * col_stride]`. A row-major matrix has strides
/// `(cols, 1)`; its transpose, read in place, has `(1, cols)`.
#[derive(Clone, Copy)]
struct Strided<'a> {
    data: &'a [f32],
    row_stride: usize,
    col_stride: usize,
}

impl Strided<'_> {
    #[inline]
    fn at(&self, i: usize, p: usize) -> f32 {
        self.data[i * self.row_stride + p * self.col_stride]
    }
}

/// The one product kernel: `out += a · b`, for an `m × k` left operand `a`,
/// a row-major `k × n` right operand `b` (`k = b.len() / n`) and a zeroed
/// row-major `m × n` output (`m = out.len() / n`).
///
/// i-k-j order with 4-row blocking: each load of a `b` row feeds four
/// output rows, and every output element still sums its terms from +0.0
/// in ascending `p` — bitwise the plain i-k-j loop. With `skip_zero`, a
/// term whose left factor is `0.0` is skipped, exactly as that loop's
/// `if a == 0.0 { continue }` would.
fn gemm(a: Strided<'_>, b: &[f32], n: usize, out: &mut [f32], skip_zero: bool) {
    if n == 0 {
        return;
    }
    let mut blocks = out.chunks_exact_mut(4 * n);
    let mut i = 0;
    for block in blocks.by_ref() {
        let (o0, rest) = block.split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        let (o2, o3) = rest.split_at_mut(n);
        for (p, b_row) in b.chunks_exact(n).enumerate() {
            let f = [a.at(i, p), a.at(i + 1, p), a.at(i + 2, p), a.at(i + 3, p)];
            if skip_zero && f.contains(&0.0) {
                for (o, fq) in [
                    (&mut *o0, f[0]),
                    (&mut *o1, f[1]),
                    (&mut *o2, f[2]),
                    (&mut *o3, f[3]),
                ] {
                    if fq != 0.0 {
                        axpy(o, fq, b_row);
                    }
                }
                continue;
            }
            let rows = o0
                .iter_mut()
                .zip(o1.iter_mut())
                .zip(o2.iter_mut())
                .zip(o3.iter_mut());
            for ((((x0, x1), x2), x3), &bv) in rows.zip(b_row) {
                *x0 += f[0] * bv;
                *x1 += f[1] * bv;
                *x2 += f[2] * bv;
                *x3 += f[3] * bv;
            }
        }
        i += 4;
    }
    for o in blocks.into_remainder().chunks_exact_mut(n) {
        for (p, b_row) in b.chunks_exact(n).enumerate() {
            let f = a.at(i, p);
            if !(skip_zero && f == 0.0) {
                axpy(o, f, b_row);
            }
        }
        i += 1;
    }
}

/// `out += f * b`, element-wise.
#[inline]
fn axpy(out: &mut [f32], f: f32, b: &[f32]) {
    for (o, &bv) in out.iter_mut().zip(b) {
        *o += f * bv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
    }

    #[test]
    fn matmul_known() {
        let a = Matrix::from_rows(&[vec![1., 2.], vec![3., 4.]]);
        let b = Matrix::from_rows(&[vec![5., 6.], vec![7., 8.]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[vec![19., 22.], vec![43., 50.]]));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[vec![1., 2., 3.], vec![4., 5., 6.]]);
        let b = Matrix::from_rows(&[vec![7., 8.], vec![9., 10.]]);
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[vec![1., 2., 3.], vec![4., 5., 6.]]);
        let b = Matrix::from_rows(&[vec![7., 8., 9.], vec![1., 2., 3.]]);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn hcat_vcat() {
        let a = Matrix::from_rows(&[vec![1., 2.], vec![3., 4.]]);
        let b = Matrix::from_rows(&[vec![5.], vec![6.]]);
        let h = a.hcat(&b);
        assert_eq!(h.row(0), &[1., 2., 5.]);
        let c = Matrix::from_rows(&[vec![7., 8.]]);
        let v = a.vcat(&c);
        assert_eq!(v.rows(), 3);
        assert_eq!(v.row(2), &[7., 8.]);
    }

    #[test]
    fn broadcast_and_sums() {
        let mut a = Matrix::from_rows(&[vec![1., 2.], vec![3., 4.]]);
        a.add_row_broadcast(&[10., 20.]);
        assert_eq!(a.row(1), &[13., 24.]);
        assert_eq!(a.col_sums(), vec![24., 46.]);
    }

    #[test]
    fn select_rows_picks_in_order() {
        let a = Matrix::from_rows(&[vec![1.], vec![2.], vec![3.]]);
        let s = a.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[3.]);
        assert_eq!(s.row(1), &[1.]);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn debug_is_nonempty() {
        let a = Matrix::zeros(1, 1);
        assert!(!format!("{a:?}").is_empty());
    }

    #[test]
    fn products_handle_degenerate_shapes() {
        let a = Matrix::zeros(1, 3);
        let b = Matrix::zeros(3, 1);
        assert_eq!(a.matmul(&b), Matrix::zeros(1, 1));
        let empty_rows = Matrix::zeros(0, 3);
        assert_eq!(empty_rows.matmul(&b), Matrix::zeros(0, 1));
        let no_cols = Matrix::zeros(2, 0);
        let other = Matrix::zeros(0, 4);
        assert_eq!(no_cols.matmul(&other), Matrix::zeros(2, 4));
        assert_eq!(no_cols.matmul_nt(&Matrix::zeros(3, 0)), Matrix::zeros(2, 3));
        assert_eq!(
            empty_rows.matmul_tn(&Matrix::zeros(0, 2)),
            Matrix::zeros(3, 2)
        );
    }

    #[test]
    fn into_products_reuse_a_reshaped_buffer() {
        let a = Matrix::from_rows(&[vec![1., 2.], vec![3., 4.]]);
        let mut out = Matrix::full(5, 7, 9.0);
        a.matmul_into(&a, &mut out);
        assert_eq!(out, a.matmul(&a));
        a.matmul_tn_into(&a, &mut out);
        assert_eq!(out, a.matmul_tn(&a));
        let mut t = Matrix::full(1, 1, 3.0);
        a.matmul_nt_into(&a, &mut t, &mut out);
        assert_eq!(out, a.matmul_nt(&a));
        assert_eq!(t, a.transpose());
    }
}
