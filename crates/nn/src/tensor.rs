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
#[derive(Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
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

    /// Matrix product `self * other`.
    ///
    /// Large products fan out across worker threads (see
    /// [`Matrix::matmul_threaded`]); the result is bit-identical to the
    /// serial computation at any thread count.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let work = self.rows * self.cols * other.cols;
        self.matmul_threaded(other, auto_threads(work))
    }

    /// [`Matrix::matmul`] with an explicit worker-thread count.
    ///
    /// Output rows are sharded into contiguous ranges, one per worker; each
    /// element's k-accumulation runs entirely on one thread, in ascending-k
    /// order, so the product is **bit-identical** to the serial kernel for
    /// every thread count.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul_threaded(&self, other: &Matrix, threads: usize) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        shard_rows(&mut out.data, other.cols, threads, |row0, shard| {
            self.matmul_rows_into(other, row0, shard)
        });
        out
    }

    /// [`Matrix::matmul`] written into a caller-owned output matrix, reusing
    /// its buffer when capacity allows (`out` is reshaped to `self.rows ×
    /// other.cols`). Bit-identical to `matmul` at any thread count.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        out.rows = self.rows;
        out.cols = other.cols;
        out.data.clear();
        out.data.resize(self.rows * other.cols, 0.0);
        let threads = auto_threads(self.rows * self.cols * other.cols);
        shard_rows(&mut out.data, other.cols, threads, |row0, shard| {
            self.matmul_rows_into(other, row0, shard)
        });
    }

    /// Computes output rows `row0..` of `self * other` into `out_rows`
    /// (k-tiled so a block of `other` rows stays hot across the shard).
    fn matmul_rows_into(&self, other: &Matrix, row0: usize, out_rows: &mut [f32]) {
        // 64 rows of `other` per tile: the tile is revisited by every row of
        // the shard before moving on. Ascending tiles + ascending k inside a
        // tile keep each element's accumulation order identical to the plain
        // i-k-j loop.
        const K_TILE: usize = 64;
        let n_rows = out_rows.len().checked_div(other.cols).unwrap_or(0);
        for kb in (0..self.cols).step_by(K_TILE) {
            let kend = (kb + K_TILE).min(self.cols);
            for local_i in 0..n_rows {
                let i = row0 + local_i;
                let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
                let out_row = &mut out_rows[local_i * other.cols..(local_i + 1) * other.cols];
                for (k, &a) in a_row[kb..kend].iter().enumerate().map(|(o, a)| (kb + o, a)) {
                    if a == 0.0 {
                        continue;
                    }
                    let b_row = &other.data[k * other.cols..(k + 1) * other.cols];
                    for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                        *o += a * b;
                    }
                }
            }
        }
    }

    /// `self^T * other` without materializing the transpose.
    ///
    /// Threaded like [`Matrix::matmul`]; bit-identical at any thread count.
    ///
    /// # Panics
    /// Panics if `self.rows != other.rows`.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        let work = self.rows * self.cols * other.cols;
        self.matmul_tn_threaded(other, auto_threads(work))
    }

    /// [`Matrix::matmul_tn`] with an explicit worker-thread count.
    ///
    /// # Panics
    /// Panics if `self.rows != other.rows`.
    pub fn matmul_tn_threaded(&self, other: &Matrix, threads: usize) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn dimension mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        shard_rows(&mut out.data, other.cols, threads, |i0, shard| {
            self.matmul_tn_rows_into(other, i0, shard)
        });
        out
    }

    /// Computes output rows `i0..` of `self^T * other` into `out_rows`.
    /// The r-reduction stays whole (ascending) per element.
    fn matmul_tn_rows_into(&self, other: &Matrix, i0: usize, out_rows: &mut [f32]) {
        let n_rows = out_rows.len().checked_div(other.cols).unwrap_or(0);
        for r in 0..self.rows {
            let a_row = self.row(r);
            let b_row = other.row(r);
            for local_i in 0..n_rows {
                let a = a_row[i0 + local_i];
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out_rows[local_i * other.cols..(local_i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
    }

    /// `self * other^T` without materializing the transpose.
    ///
    /// Threaded like [`Matrix::matmul`]; bit-identical at any thread count.
    ///
    /// # Panics
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        let work = self.rows * self.cols * other.rows;
        self.matmul_nt_threaded(other, auto_threads(work))
    }

    /// [`Matrix::matmul_nt`] with an explicit worker-thread count.
    ///
    /// # Panics
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_nt_threaded(&self, other: &Matrix, threads: usize) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        shard_rows(&mut out.data, other.rows, threads, |i0, shard| {
            let n_rows = shard.len().checked_div(other.rows).unwrap_or(0);
            for local_i in 0..n_rows {
                let a_row = self.row(i0 + local_i);
                let out_row = &mut shard[local_i * other.rows..(local_i + 1) * other.rows];
                for (j, o) in out_row.iter_mut().enumerate() {
                    let b_row = other.row(j);
                    let mut acc = 0.0f32;
                    for (&a, &b) in a_row.iter().zip(b_row.iter()) {
                        acc += a * b;
                    }
                    *o = acc;
                }
            }
        });
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
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
        let mut sums = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(r).iter()) {
                *s += v;
            }
        }
        sums
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

/// Threaded batched mat-vec: `out[r] = rows[r] · w + bias` over a flat
/// row-major batch (`out.len()` rows of `w.len()` features each).
///
/// Each row is reduced with the exact ascending-index
/// `iter().zip().map().sum()` chain that `HwPerceptron::score` uses for a
/// single window, entirely on one worker thread, so every per-row result is
/// **bit-identical** to scoring that row alone — independent of batch
/// composition, batch size, and thread count. That property is what lets
/// the fleet scheduler keep verdicts byte-identical across thread counts
/// (see evax-defense).
///
/// `threads == 0` resolves automatically from the multiply–accumulate count
/// (same policy as [`Matrix::matmul`]).
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
    let threads = if threads == 0 {
        auto_threads(out.len() * n)
    } else {
        threads
    };
    shard_rows(out, 1, threads, |row0, shard| {
        for (i, o) in shard.iter_mut().enumerate() {
            let x = &rows[(row0 + i) * n..(row0 + i + 1) * n];
            *o = w.iter().zip(x.iter()).map(|(&w, &v)| w * v).sum::<f32>() + bias;
        }
    });
}

/// Multiply–accumulate count below which a product always runs serially:
/// thread spawn/join overhead dwarfs the arithmetic. 2^18 ≈ a 64×64×64
/// product.
const PAR_WORK_THRESHOLD: usize = 1 << 18;

/// Worker threads for a product of the given multiply–accumulate count.
///
/// Resolution matches `evax-core`'s parallel substrate (this crate sits
/// below it in the dependency DAG, so the policy is mirrored rather than
/// imported): the `EVAX_THREADS` environment variable when set to a positive
/// integer, else the machine's available parallelism.
fn auto_threads(work: usize) -> usize {
    if work < PAR_WORK_THRESHOLD {
        return 1;
    }
    if let Ok(raw) = std::env::var("EVAX_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Splits a row-major output buffer into contiguous row ranges and runs
/// `body(first_row, shard)` for each — on scoped worker threads when
/// `threads > 1`, inline otherwise. Each output row is written by exactly
/// one worker, so kernels that keep per-element accumulation order intact
/// stay bit-identical to their serial form.
fn shard_rows<F>(data: &mut [f32], cols: usize, threads: usize, body: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let rows = data.len().checked_div(cols).unwrap_or(0);
    let threads = threads.max(1).min(rows.max(1));
    if threads <= 1 {
        body(0, data);
        return;
    }
    let chunk_rows = rows.div_ceil(threads);
    std::thread::scope(|scope| {
        for (shard_idx, shard) in data.chunks_mut(chunk_rows * cols).enumerate() {
            let body = &body;
            scope.spawn(move || body(shard_idx * chunk_rows, shard));
        }
    });
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

    fn filled(rows: usize, cols: usize) -> Matrix {
        let data = (0..rows * cols).map(|i| (i as f32 * 0.37).sin()).collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn threaded_products_match_serial_exactly() {
        let a = filled(7, 130); // k spans two 64-wide tiles plus a remainder
        let b = filled(130, 5);
        let serial = a.matmul_threaded(&b, 1);
        for threads in [2, 3, 16] {
            assert_eq!(a.matmul_threaded(&b, threads), serial, "threads={threads}");
        }
        let t = filled(9, 6);
        let u = filled(9, 4);
        assert_eq!(t.matmul_tn_threaded(&u, 4), t.matmul_tn_threaded(&u, 1));
        let p = filled(6, 9);
        let q = filled(4, 9);
        assert_eq!(p.matmul_nt_threaded(&q, 4), p.matmul_nt_threaded(&q, 1));
    }

    #[test]
    fn threaded_products_handle_degenerate_shapes() {
        let a = Matrix::zeros(1, 3);
        let b = Matrix::zeros(3, 1);
        assert_eq!(a.matmul_threaded(&b, 8), Matrix::zeros(1, 1));
        let empty_rows = Matrix::zeros(0, 3);
        assert_eq!(empty_rows.matmul_threaded(&b, 4), Matrix::zeros(0, 1));
        let no_cols = Matrix::zeros(2, 0);
        let other = Matrix::zeros(0, 4);
        assert_eq!(no_cols.matmul_threaded(&other, 4), Matrix::zeros(2, 4));
    }
}
