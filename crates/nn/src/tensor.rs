//! A small dense tensor of `f32` values.
//!
//! [`Tensor`] is a contiguous row-major array with an explicit shape. It
//! supports the operations the layer zoo needs — matrix multiplication,
//! broadcasting row additions, element-wise maps, transposition,
//! reductions — with shape checking on every operation. Matrix products
//! pick their routine from the output width (see
//! [`Tensor::matmul_into`]); every routine is bit-identical to
//! [`Tensor::matmul_naive`].

use edgetune_util::rng::{sample_normal, SeedStream};

/// Cache-block sizes for the wide routine of [`Tensor::matmul_into`]:
/// output rows × output columns per tile. The `k` loop is never tiled —
/// splitting it would reorder floating-point accumulation and break
/// bit-identity with the naive kernels — so blocking only bounds the
/// `rhs` panel (`k` rows × `MATMUL_BLOCK_COLS` columns ≈ 128 KiB at
/// `k = 256`) that each pass streams, keeping it resident in L2 across a
/// stripe of output rows.
const MATMUL_BLOCK_ROWS: usize = 64;
const MATMUL_BLOCK_COLS: usize = 128;

/// A dense, row-major tensor of `f32` values.
///
/// # Examples
///
/// ```
/// use edgetune_nn::tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
/// let c = a.matmul(&b);
/// assert_eq!(c.data(), a.data());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor of zeros with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    #[must_use]
    pub fn zeros(shape: &[usize]) -> Self {
        let len = checked_len(shape);
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Builds a tensor from raw data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `shape`.
    #[must_use]
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let len = checked_len(shape);
        assert_eq!(
            data.len(),
            len,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Gaussian-initialised tensor (mean 0, given std), seeded.
    #[must_use]
    pub fn randn(shape: &[usize], std_dev: f32, seed: SeedStream) -> Self {
        let len = checked_len(shape);
        let mut rng = seed.rng("tensor-randn");
        let data = (0..len)
            .map(|_| sample_normal(&mut rng, 0.0, f64::from(std_dev)) as f32)
            .collect();
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Kaiming/He initialisation for a layer with `fan_in` inputs.
    #[must_use]
    pub fn kaiming(shape: &[usize], fan_in: usize, seed: SeedStream) -> Self {
        let std = (2.0 / fan_in.max(1) as f32).sqrt();
        Tensor::randn(shape, std, seed)
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[must_use]
    #[allow(clippy::len_without_is_empty)] // no caller needs an `is_empty`
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the underlying data.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Number of rows of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    #[must_use]
    pub fn rows(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "rows() requires a 2-D tensor");
        self.shape[0]
    }

    /// Number of columns of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    #[must_use]
    pub fn cols(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "cols() requires a 2-D tensor");
        self.shape[1]
    }

    /// Reshapes to a new shape with the same number of elements.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    #[must_use]
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let len = checked_len(shape);
        assert_eq!(
            self.data.len(),
            len,
            "cannot reshape {:?} to {:?}",
            self.shape,
            shape
        );
        Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        }
    }

    /// Copies `src`'s shape and contents into `self`, reusing the
    /// existing data allocation when its capacity suffices — the
    /// buffer-reuse counterpart of `clone()` for standing caches that
    /// are refilled every training batch.
    pub fn copy_from(&mut self, src: &Tensor) {
        self.shape.clear();
        self.shape.extend_from_slice(&src.shape);
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Matrix product of two 2-D tensors.
    ///
    /// Allocates a fresh output and delegates to [`Tensor::matmul_into`];
    /// hot paths that already own a correctly shaped buffer should call
    /// `matmul_into` directly and skip the allocation.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&[self.rows(), rhs.cols()]);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product written into a preallocated `[m, n]` output.
    ///
    /// The routine is chosen by the output width `n`. Up to 32 columns,
    /// each output row accumulates in a local `[f32; n]` array, small
    /// enough to stay in registers for the whole `k` loop, and is stored
    /// once; wider outputs take a loop cache-blocked over output rows and
    /// columns. Neither splits the `k` loop: every output element
    /// accumulates its products onto a fresh zero in one ascending-`k`
    /// pass, with no fused multiply-add, so both routines are
    /// bit-identical to [`Tensor::matmul_naive`] (proptest-enforced in
    /// `tests/kernel_properties.rs`). Rows of `rhs` whose `self`
    /// coefficient is exactly zero are skipped: the `±0.0` products they
    /// would add cannot change any value the accumulator can reach.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or if `out` is not `[m, n]`.
    pub fn matmul_into(&self, rhs: &Tensor, out: &mut Tensor) {
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (rhs.rows(), rhs.cols());
        assert_eq!(
            k, k2,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape, rhs.shape
        );
        assert_eq!(
            out.shape,
            [m, n],
            "matmul output must be [{m}, {n}], got {:?}",
            out.shape
        );
        let (lhs, rhs, out) = (&self.data[..], &rhs.data[..], &mut out.data[..]);
        macro_rules! by_width {
            ($($w:literal)*) => {
                match n {
                    $($w => matmul_narrow::<$w>(lhs, rhs, out, k),)*
                    _ => matmul_blocked(lhs, rhs, out, k, n),
                }
            };
        }
        by_width!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32);
    }

    /// Reference matrix product: the textbook `i → j → k` triple loop.
    ///
    /// Deliberately unblocked — the inner loop walks a column of `rhs`
    /// with stride `n`, so this is the cache-hostile baseline the
    /// blocked kernel replaced and the oracle every
    /// [`Tensor::matmul_into`] routine is proptested against. It keeps the same zero-coefficient skip and
    /// ascending-`k` accumulation, hence bit-identical results.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn matmul_naive(&self, rhs: &Tensor) -> Tensor {
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (rhs.rows(), rhs.cols());
        assert_eq!(
            k, k2,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape, rhs.shape
        );
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for (j, o) in out[i * n..(i + 1) * n].iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for p in 0..k {
                    let a = self.data[i * k + p];
                    if a == 0.0 {
                        continue;
                    }
                    acc += a * rhs.data[p * n + j];
                }
                *o = acc;
            }
        }
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// Transpose written into a preallocated `[cols, rows]` output.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not have the transposed shape.
    pub fn transpose_into(&self, out: &mut Tensor) {
        let (m, n) = (self.rows(), self.cols());
        assert_eq!(
            out.shape,
            [n, m],
            "transpose output must be [{n}, {m}], got {:?}",
            out.shape
        );
        for i in 0..m {
            for (j, &v) in self.data[i * n..(i + 1) * n].iter().enumerate() {
                out.data[j * m + i] = v;
            }
        }
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn hadamard(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "hadamard shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a * b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Adds a `[1 × n]`-like row vector to every row of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the column count.
    pub fn add_row_assign(&mut self, row: &[f32]) {
        let (m, n) = (self.rows(), self.cols());
        assert_eq!(row.len(), n, "row length mismatch");
        for r in 0..m {
            for (o, &v) in self.data[r * n..(r + 1) * n].iter_mut().zip(row) {
                *o += v;
            }
        }
    }

    /// Column sums written into a preallocated length-`cols` slice
    /// (zeroed first, then accumulated row by row).
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the column count.
    pub fn sum_rows_into(&self, out: &mut [f32]) {
        let (m, n) = (self.rows(), self.cols());
        assert_eq!(out.len(), n, "sum_rows output length mismatch");
        out.iter_mut().for_each(|x| *x = 0.0);
        for i in 0..m {
            for (o, &v) in out.iter_mut().zip(&self.data[i * n..(i + 1) * n]) {
                *o += v;
            }
        }
    }

    /// Index of the maximum element in each row of a 2-D tensor (the
    /// last one on ties), or `None` for a row holding a NaN: a diverged
    /// model makes no prediction there.
    #[must_use]
    pub fn argmax_rows(&self) -> Vec<Option<usize>> {
        self.data
            .chunks_exact(self.cols())
            .map(|row| {
                let mut best = 0;
                for (j, &x) in row.iter().enumerate() {
                    if x.is_nan() {
                        return None;
                    }
                    if x >= row[best] {
                        best = j;
                    }
                }
                Some(best)
            })
            .collect()
    }

    /// Extracts the rows at `indices` of a 2-D tensor into a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[must_use]
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let n = self.cols();
        let mut data = Vec::with_capacity(indices.len() * n);
        for &i in indices {
            assert!(i < self.rows(), "row index {i} out of bounds");
            data.extend_from_slice(&self.data[i * n..(i + 1) * n]);
        }
        Tensor {
            shape: vec![indices.len(), n],
            data,
        }
    }

    /// In-place AXPY: `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Momentum velocity update: `self = momentum * self + grad`.
    ///
    /// Matches, bit for bit, the allocation-heavy sequence it replaced
    /// (zero a buffer, then `axpy(momentum, snapshot)` + `axpy(1.0, grad)`):
    /// each element is computed as `(0.0 + momentum * v) + g`. The
    /// leading `0.0 +` is load-bearing — it maps a `-0.0` product to
    /// `+0.0` exactly as accumulating onto a zeroed buffer did.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn momentum_update(&mut self, momentum: f32, grad: &Tensor) {
        assert_eq!(self.shape, grad.shape, "momentum_update shape mismatch");
        for (v, &g) in self.data.iter_mut().zip(&grad.data) {
            *v = (0.0 + momentum * *v) + g;
        }
    }
}

/// The narrow routine of [`Tensor::matmul_into`]: `out` has exactly `N`
/// columns, so a whole output row lives in one local `[f32; N]`
/// accumulator across the `k` loop and is stored once.
fn matmul_narrow<const N: usize>(lhs: &[f32], rhs: &[f32], out: &mut [f32], k: usize) {
    let (rhs_rows, _) = rhs.as_chunks::<N>();
    let (out_rows, _) = out.as_chunks_mut::<N>();
    for (a_row, out_row) in lhs.chunks_exact(k).zip(out_rows) {
        let mut acc = [0.0f32; N];
        for (&a, rhs_row) in a_row.iter().zip(rhs_rows) {
            if a == 0.0 {
                continue;
            }
            for (o, &b) in acc.iter_mut().zip(rhs_row) {
                *o += a * b;
            }
        }
        *out_row = acc;
    }
}

/// The wide routine of [`Tensor::matmul_into`]: accumulates in `out`,
/// tiled over output rows and columns.
fn matmul_blocked(lhs: &[f32], rhs: &[f32], out: &mut [f32], k: usize, n: usize) {
    let m = out.len() / n;
    out.fill(0.0);
    for ib in (0..m).step_by(MATMUL_BLOCK_ROWS) {
        let i_end = (ib + MATMUL_BLOCK_ROWS).min(m);
        for jb in (0..n).step_by(MATMUL_BLOCK_COLS) {
            let j_end = (jb + MATMUL_BLOCK_COLS).min(n);
            for i in ib..i_end {
                let a_row = &lhs[i * k..(i + 1) * k];
                let out_row = &mut out[i * n + jb..i * n + j_end];
                for (p, &a) in a_row.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    let rhs_row = &rhs[p * n + jb..p * n + j_end];
                    for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                        *o += a * b;
                    }
                }
            }
        }
    }
}

fn checked_len(shape: &[usize]) -> usize {
    assert!(
        !shape.is_empty(),
        "tensor shape must have at least one dimension"
    );
    assert!(
        shape.iter().all(|&d| d > 0),
        "tensor dimensions must be non-zero: {shape:?}"
    );
    shape.iter().product()
}

#[cfg(test)]
impl Tensor {
    /// A tensor of `shape` filled with `value`.
    pub(crate) fn full(shape: &[usize], value: f32) -> Self {
        Tensor::from_vec(vec![value; checked_len(shape)], shape)
    }

    /// Element `(row, col)` of a 2-D tensor.
    pub(crate) fn at(&self, row: usize, col: usize) -> f32 {
        self.data[row * self.cols() + col]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `n × n` identity matrix.
    fn eye(n: usize) -> Tensor {
        let mut data = vec![0.0; n * n];
        data.iter_mut().step_by(n + 1).for_each(|x| *x = 1.0);
        Tensor::from_vec(data, &[n, n])
    }

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let f = Tensor::full(&[2, 2], 3.0);
        assert_eq!(f.data().iter().sum::<f32>(), 12.0);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.matmul(&eye(2)).data(), a.data());
        assert_eq!(eye(2).matmul(&a).data(), a.data());
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_naive_matches_blocked() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        assert_eq!(a.matmul_naive(&b), a.matmul(&b));
    }

    #[test]
    fn matmul_into_reuses_the_buffer() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = eye(2);
        let mut out = Tensor::full(&[2, 2], 9.9);
        let before = out.data().as_ptr();
        a.matmul_into(&b, &mut out);
        assert_eq!(out.data(), a.data(), "stale contents must be overwritten");
        a.matmul_into(&b, &mut out);
        assert_eq!(
            out.data().as_ptr(),
            before,
            "matmul_into must not reallocate the output"
        );
    }

    #[test]
    fn copy_from_reuses_the_buffer() {
        let src = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let mut dst = Tensor::full(&[3, 2], 9.9);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        let before = dst.data().as_ptr();
        dst.copy_from(&src);
        assert_eq!(
            dst.data().as_ptr(),
            before,
            "same-size refills must not reallocate"
        );
        // Shrinking copies reuse the allocation too.
        let small = Tensor::from_vec(vec![7.0], &[1, 1]);
        dst.copy_from(&small);
        assert_eq!(dst, small);
        assert_eq!(dst.data().as_ptr(), before);
    }

    #[test]
    #[should_panic(expected = "matmul output must be")]
    fn matmul_into_rejects_bad_output_shape() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 4]);
        let mut out = Tensor::zeros(&[2, 3]);
        a.matmul_into(&b, &mut out);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let mut t = Tensor::zeros(&[3, 2]);
        a.transpose_into(&mut t);
        assert_eq!(t.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        let mut back = Tensor::zeros(&[2, 3]);
        t.transpose_into(&mut back);
        assert_eq!(back, a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[1, 2]);
        assert_eq!(a.hadamard(&b).data(), &[3.0, 10.0]);
    }

    #[test]
    fn add_row_broadcasts() {
        let mut a = Tensor::zeros(&[2, 3]);
        a.add_row_assign(&[1.0, 2.0, 3.0]);
        assert_eq!(a.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn sum_rows_collapses_batch() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let mut sums = vec![0.0; 2];
        a.sum_rows_into(&mut sums);
        assert_eq!(sums, vec![4.0, 6.0]);
    }

    #[test]
    fn argmax_rows_finds_peaks() {
        let a = Tensor::from_vec(vec![0.1, 0.9, 0.5, 0.6, 0.3, 0.1], &[2, 3]);
        assert_eq!(a.argmax_rows(), vec![Some(1), Some(0)]);
    }

    #[test]
    fn argmax_rows_breaks_ties_late_and_refuses_nan_rows() {
        let a = Tensor::from_vec(
            vec![
                0.5,
                0.5,
                0.1,
                0.0,
                -0.0,
                -1.0,
                f32::NEG_INFINITY,
                f32::NEG_INFINITY,
                f32::NEG_INFINITY,
                1.0,
                f32::NAN,
                f32::INFINITY,
            ],
            &[4, 3],
        );
        assert_eq!(a.argmax_rows(), vec![Some(1), Some(1), Some(2), None]);
    }

    #[test]
    fn gather_rows_selects() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let g = a.gather_rows(&[2, 0]);
        assert_eq!(g.shape(), &[2, 2]);
        assert_eq!(g.data(), &[5.0, 6.0, 1.0, 2.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let r = a.reshape(&[4, 1]);
        assert_eq!(r.shape(), &[4, 1]);
        assert_eq!(r.data(), a.data());
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_rejects_bad_count() {
        let _ = Tensor::zeros(&[2, 2]).reshape(&[3, 1]);
    }

    #[test]
    fn randn_is_seeded_and_spread() {
        let s = SeedStream::new(5);
        let a = Tensor::randn(&[10, 10], 1.0, s);
        let b = Tensor::randn(&[10, 10], 1.0, s);
        assert_eq!(a, b, "same seed must reproduce");
        let c = Tensor::randn(&[10, 10], 1.0, SeedStream::new(6));
        assert_ne!(a, c);
        let m = a.data().iter().sum::<f32>() / a.data().len() as f32;
        assert!(m.abs() < 0.2, "mean should be near 0: {m}");
    }

    #[test]
    fn kaiming_scales_with_fan_in() {
        let s = SeedStream::new(5);
        let narrow = Tensor::kaiming(&[100, 100], 10, s);
        let wide = Tensor::kaiming(&[100, 100], 1000, s);
        let norm = |t: &Tensor| t.data().iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!(norm(&narrow) > norm(&wide));
    }

    #[test]
    fn in_place_helpers_match_allocating_forms() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let mut t = Tensor::zeros(&[3, 2]);
        a.transpose_into(&mut t);
        let transposed: Vec<f32> = (0..6).map(|i| a.at(i % 2, i / 2)).collect();
        assert_eq!(t.data(), &transposed[..]);

        let mut sums = vec![0.0; 3];
        a.sum_rows_into(&mut sums);
        let column = |j| (0..2).map(|i| a.at(i, j)).sum::<f32>();
        assert_eq!(sums, (0..3).map(column).collect::<Vec<_>>());
    }

    #[test]
    fn momentum_update_matches_the_old_axpy_sequence() {
        // Includes a -0.0 velocity: the old sequence accumulated onto a
        // zeroed buffer, so `momentum * -0.0` lands as `+0.0`. A naive
        // `v = m*v + g` rewrite would produce `-0.0` here.
        let grad = Tensor::from_vec(vec![0.5, -0.0, 1.5], &[1, 3]);
        let start = Tensor::from_vec(vec![2.0, -0.0, -1.0], &[1, 3]);
        let momentum = 0.9;

        let mut old = Tensor::zeros(&[1, 3]);
        old.axpy(momentum, &start);
        old.axpy(1.0, &grad);

        let mut new = start.clone();
        new.momentum_update(momentum, &grad);
        for (a, b) in old.data().iter().zip(new.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::full(&[1, 2], 1.0);
        let b = Tensor::full(&[1, 2], 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "dimensions must be non-zero")]
    fn zero_dimension_rejected() {
        let _ = Tensor::zeros(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_wrong_len() {
        let _ = Tensor::from_vec(vec![1.0], &[2, 2]);
    }
}
