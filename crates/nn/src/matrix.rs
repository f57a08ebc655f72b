//! Dense row-major f32 matrices with the kernels training needs.
//!
//! Not a general linear-algebra library: exactly the operations the tape
//! ops are built from. The hot kernels (`matmul` family, `transpose`,
//! `axpy`, `map`) are cache-blocked and parallelized over output-row
//! chunks through `rsd-par`; every output element is written by exactly
//! one chunk and chunk boundaries depend only on the shape, so results
//! are bit-identical to serial execution for any `RSD_THREADS`. The
//! matmul dense path accumulates with fused multiply-adds (one rounding
//! per step, via `f32::mul_add` or the AVX2 `vfmaddps` kernel — both
//! produce the same bits), so it is differently rounded than the
//! pre-optimization kernels but deterministic everywhere. `matmul_nt`
//! instead rounds each output as the 4-lane [`dot4`] does, with separate
//! multiplies and adds, through an SSE kernel on x86-64.
//!
//! The pre-optimization scalar kernels live in [`reference`] so benches
//! and property tests can compare against the original implementations.

use serde::{Deserialize, Serialize};

/// Inner-loop operations per parallel chunk the kernels aim for; rows are
/// grouped so each chunk amortizes scheduling overhead. A pure function
/// of shape — never of thread count — to keep chunking deterministic.
const CHUNK_WORK: usize = 1 << 15;

/// Elementwise kernels (axpy/map) chunk at this many elements.
const ELEM_GRAIN: usize = 1 << 12;

/// Kernels whose total work is below this skip span creation entirely
/// (tiny matmuls inside per-token RNN steps would otherwise drown the
/// telemetry stream).
const SPAN_MIN_WORK: usize = 1 << 20;

fn kernel_span(label: &'static str, work: usize) -> Option<rsd_obs::Span> {
    // Profiling runs (RSD_OBS_PROFILE=1) want every kernel in the call
    // tree, small ones included; ordinary telemetry keeps the work gate.
    (work >= SPAN_MIN_WORK || rsd_obs::profile_enabled()).then(|| rsd_obs::Span::enter(label))
}

/// Rows per parallel chunk for a kernel doing `row_work` operations per
/// output row.
fn row_grain(row_work: usize) -> usize {
    (CHUNK_WORK / row_work.max(1)).max(1)
}

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Matrix {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Row-major storage, `rows * cols` long.
    pub data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Build from a row-major vector. Panics on length mismatch.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "Matrix::from_vec length mismatch");
        Matrix { rows, cols, data }
    }

    /// A 1×n row vector.
    pub fn row_vec(data: Vec<f32>) -> Self {
        Matrix {
            rows: 1,
            cols: data.len(),
            data,
        }
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self @ other` (NN layout). Panics on shape mismatch.
    ///
    /// Row-parallel: each chunk owns a block of whole output rows.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let n = other.cols;
        let k_dim = self.cols;
        let _span = kernel_span("nn.matmul", 2 * self.rows * k_dim * n);
        let mut out = Matrix::zeros(self.rows, n);
        let grain = row_grain(2 * k_dim * n) * n.max(1);
        let a = &self.data;
        let b = &other.data;
        rsd_par::parallel_chunks_mut(&mut out.data, grain, |start, chunk| {
            let i0 = start / n;
            let rows = chunk.len() / n.max(1);
            matmul_into(&a[i0 * k_dim..(i0 + rows) * k_dim], k_dim, b, n, chunk);
        });
        out
    }

    /// `self @ otherᵀ` (NT layout).
    ///
    /// Row-parallel over `self`'s rows; both operands stream row-major, so
    /// each output element is one contiguous-slice dot product, rounded
    /// exactly as [`dot4`] rounds it (see [`dot4_row`]).
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} @ ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let n = other.rows;
        let _span = kernel_span("nn.matmul_nt", 2 * self.rows * self.cols * n);
        let mut out = Matrix::zeros(self.rows, n);
        let grain = row_grain(2 * self.cols * n) * n.max(1);
        rsd_par::parallel_chunks_mut(&mut out.data, grain, |start, chunk| {
            let i0 = start / n;
            for (ri, out_row) in chunk.chunks_mut(n).enumerate() {
                dot4_row(self.row(i0 + ri), &other.data, out_row);
            }
        });
        out
    }

    /// `selfᵀ @ other` (TN layout).
    ///
    /// Transposes `self` once (tiled, parallel) and reuses the row-parallel
    /// `matmul` core, inheriting its k-ascending fused accumulation order.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: ({}x{})ᵀ @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let _span = kernel_span("nn.matmul_tn", 2 * self.rows * self.cols * other.cols);
        self.transpose().matmul(other)
    }

    /// Transposed copy (tiled to keep both access patterns cache-friendly,
    /// parallel over blocks of output rows).
    pub fn transpose(&self) -> Matrix {
        let _span = kernel_span("nn.transpose", self.rows * self.cols);
        let mut out = Matrix::zeros(self.cols, self.rows);
        if self.rows == 0 || self.cols == 0 {
            return out;
        }
        const TILE: usize = 32;
        let r = self.rows;
        let cols = self.cols;
        let src = &self.data;
        rsd_par::parallel_chunks_mut(&mut out.data, TILE * r, |start, chunk| {
            let c0 = start / r;
            let n_out_rows = chunk.len() / r;
            for rb in (0..r).step_by(TILE) {
                let rend = (rb + TILE).min(r);
                for oc in 0..n_out_rows {
                    let src_col = c0 + oc;
                    let dst = &mut chunk[oc * r..(oc + 1) * r];
                    for rr in rb..rend {
                        dst[rr] = src[rr * cols + src_col];
                    }
                }
            }
        });
        out
    }

    /// `self += alpha * other`. Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "axpy shape mismatch"
        );
        let b = &other.data;
        rsd_par::parallel_chunks_mut(&mut self.data, ELEM_GRAIN, |start, chunk| {
            let src = &b[start..start + chunk.len()];
            for (a, &bv) in chunk.iter_mut().zip(src) {
                *a += alpha * bv;
            }
        });
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let mut data = vec![0.0f32; self.data.len()];
        let src = &self.data;
        rsd_par::parallel_chunks_mut(&mut data, ELEM_GRAIN, |start, chunk| {
            let from = &src[start..start + chunk.len()];
            for (v, &x) in chunk.iter_mut().zip(from) {
                *v = f(x);
            }
        });
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Fill with zeros in place (for gradient reuse).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Frobenius norm. Chunked sum-of-squares folded in fixed chunk order,
    /// so the value is independent of thread count.
    pub fn frobenius(&self) -> f32 {
        let data = &self.data;
        rsd_par::parallel_reduce(
            data.len(),
            ELEM_GRAIN,
            |r| data[r].iter().map(|x| x * x).sum::<f32>(),
            |a, b| a + b,
        )
        .unwrap_or(0.0)
        .sqrt()
    }

    /// True when shapes match.
    pub fn same_shape(&self, other: &Matrix) -> bool {
        self.rows == other.rows && self.cols == other.cols
    }
}

/// `out += a @ b` on row-major slices (`a` is `out.len() / n` rows of
/// `k_dim`, `b` is `k_dim × n`), serially, with exactly the arithmetic of
/// [`Matrix::matmul`]: over a zeroed `out` the two give the same bits.
pub(crate) fn matmul_into(a: &[f32], k_dim: usize, b: &[f32], n: usize, out: &mut [f32]) {
    if n == 0 {
        return;
    }
    // The unsafe kernels below read `b` and write whole output rows
    // through raw pointers; `a` is only read through checked slices.
    assert!(
        b.len() == k_dim * n && out.len().is_multiple_of(n),
        "matmul_into shape mismatch"
    );
    let mut rows = out.chunks_mut(n).enumerate();
    // Pair up output rows so the FMA kernel can amortize each B load over
    // two accumulator rows (register blocking). Falls back to single-row
    // kernels when a row is zero-heavy or the pair kernel is unavailable.
    while let Some((i, out_row)) = rows.next() {
        let a_row = &a[i * k_dim..(i + 1) * k_dim];
        #[cfg(target_arch = "x86_64")]
        if fma_available() && row_is_dense(a_row) {
            if let Some((_, out_row2)) = rows.next() {
                let a_row2 = &a[(i + 1) * k_dim..(i + 2) * k_dim];
                if row_is_dense(a_row2) {
                    // SAFETY: guarded by the runtime AVX2+FMA check.
                    unsafe { matmul_2rows_dense_fma(a_row, a_row2, b, n, out_row, out_row2) }
                } else {
                    matmul_row(a_row, b, n, out_row);
                    matmul_row(a_row2, b, n, out_row2);
                }
                continue;
            }
        }
        matmul_row(a_row, b, n, out_row);
    }
}

/// One output row of `matmul`: `out_row += a_row @ b` (`b` row-major with
/// `n` columns). Mostly-zero rows (one-hot embeddings, dropout masks)
/// keep the sparsity skip, but gated behind a cheap O(K) density scan so
/// dense inputs get a branch-free unrolled loop. Both paths accumulate in
/// ascending-k order, so they agree bit-for-bit on finite inputs.
fn matmul_row(a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) {
    if !row_is_dense(a_row) {
        for (k, &a) in a_row.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (o, &bv) in out_row.iter_mut().zip(&b[k * n..(k + 1) * n]) {
                *o = a.mul_add(bv, *o);
            }
        }
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: guarded by the runtime AVX2+FMA check.
        unsafe { matmul_row_dense_fma(a_row, b, n, out_row) }
        return;
    }
    matmul_row_dense(a_row, b, n, out_row);
}

/// Mostly-nonzero rows take the dense kernels; zero-heavy rows (one-hot
/// embeddings, dropout masks) keep the k-skip path.
#[inline]
fn row_is_dense(a_row: &[f32]) -> bool {
    let zeros = a_row.iter().filter(|&&a| a == 0.0).count();
    zeros * 2 <= a_row.len()
}

/// Portable dense matmul row. Each output element is one fused
/// multiply-add chain in ascending-k order — `mul_add` rounds once per
/// step, so this produces bit-identical results to the AVX2 kernel (and
/// to NEON FMA codegen on aarch64) on every host.
fn matmul_row_dense(a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) {
    for (k, &a) in a_row.iter().enumerate() {
        for (o, &bv) in out_row.iter_mut().zip(&b[k * n..(k + 1) * n]) {
            *o = a.mul_add(bv, *o);
        }
    }
}

/// AVX2+FMA dense row kernel: broadcasts eight consecutive `a`
/// coefficients and fuses their contributions into 8-wide output lanes
/// with `vfmaddps` (a 4-wide block then takes the first four leftover
/// columns), ascending-k. Every output element still sees exactly
/// one fused multiply-add per k in the same order as
/// [`matmul_row_dense`], so the two paths agree bit-for-bit; the wide
/// registers and the 8-deep k-unroll (which amortizes the output
/// load/store over eight FMAs) are pure throughput.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn matmul_row_dense_fma(a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) {
    use std::arch::x86_64::{
        _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_storeu_ps, _mm_fmadd_ps,
        _mm_loadu_ps, _mm_set1_ps, _mm_storeu_ps,
    };
    let k_dim = a_row.len();
    let bp = b.as_ptr();
    let op = out_row.as_mut_ptr();
    let mut k = 0;
    while k + 8 <= k_dim {
        let a = &a_row[k..k + 8];
        let av = [
            _mm256_set1_ps(a[0]),
            _mm256_set1_ps(a[1]),
            _mm256_set1_ps(a[2]),
            _mm256_set1_ps(a[3]),
            _mm256_set1_ps(a[4]),
            _mm256_set1_ps(a[5]),
            _mm256_set1_ps(a[6]),
            _mm256_set1_ps(a[7]),
        ];
        let mut j = 0;
        while j + 8 <= n {
            let mut acc = _mm256_loadu_ps(op.add(j));
            for (dk, &avk) in av.iter().enumerate() {
                acc = _mm256_fmadd_ps(avk, _mm256_loadu_ps(bp.add((k + dk) * n + j)), acc);
            }
            _mm256_storeu_ps(op.add(j), acc);
            j += 8;
        }
        if j + 4 <= n {
            let mut acc = _mm_loadu_ps(op.add(j));
            for (dk, &ak) in a.iter().enumerate() {
                acc = _mm_fmadd_ps(_mm_set1_ps(ak), _mm_loadu_ps(bp.add((k + dk) * n + j)), acc);
            }
            _mm_storeu_ps(op.add(j), acc);
            j += 4;
        }
        while j < n {
            let mut o = *op.add(j);
            for (dk, &ak) in a.iter().enumerate() {
                o = ak.mul_add(*bp.add((k + dk) * n + j), o);
            }
            *op.add(j) = o;
            j += 1;
        }
        k += 8;
    }
    while k < k_dim {
        let a = a_row[k];
        let bk = &b[k * n..(k + 1) * n];
        for (o, &bv) in out_row.iter_mut().zip(bk) {
            *o = a.mul_add(bv, *o);
        }
        k += 1;
    }
}

/// Two-row register-blocked variant of [`matmul_row_dense_fma`]: each
/// broadcast B lane feeds FMAs into two independent accumulator rows, so
/// B traffic per FLOP halves. Each output element's fused chain is still
/// ascending-k, identical to the single-row kernels bit-for-bit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn matmul_2rows_dense_fma(
    a0_row: &[f32],
    a1_row: &[f32],
    b: &[f32],
    n: usize,
    out0: &mut [f32],
    out1: &mut [f32],
) {
    use std::arch::x86_64::{
        _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_storeu_ps, _mm_fmadd_ps,
        _mm_loadu_ps, _mm_set1_ps, _mm_storeu_ps,
    };
    let k_dim = a0_row.len();
    let bp = b.as_ptr();
    let o0p = out0.as_mut_ptr();
    let o1p = out1.as_mut_ptr();
    let mut k = 0;
    while k + 6 <= k_dim {
        let a0 = &a0_row[k..k + 6];
        let a1 = &a1_row[k..k + 6];
        let a0v = [
            _mm256_set1_ps(a0[0]),
            _mm256_set1_ps(a0[1]),
            _mm256_set1_ps(a0[2]),
            _mm256_set1_ps(a0[3]),
            _mm256_set1_ps(a0[4]),
            _mm256_set1_ps(a0[5]),
        ];
        let a1v = [
            _mm256_set1_ps(a1[0]),
            _mm256_set1_ps(a1[1]),
            _mm256_set1_ps(a1[2]),
            _mm256_set1_ps(a1[3]),
            _mm256_set1_ps(a1[4]),
            _mm256_set1_ps(a1[5]),
        ];
        let mut j = 0;
        while j + 8 <= n {
            let mut acc0 = _mm256_loadu_ps(o0p.add(j));
            let mut acc1 = _mm256_loadu_ps(o1p.add(j));
            for dk in 0..6 {
                let bv = _mm256_loadu_ps(bp.add((k + dk) * n + j));
                acc0 = _mm256_fmadd_ps(a0v[dk], bv, acc0);
                acc1 = _mm256_fmadd_ps(a1v[dk], bv, acc1);
            }
            _mm256_storeu_ps(o0p.add(j), acc0);
            _mm256_storeu_ps(o1p.add(j), acc1);
            j += 8;
        }
        if j + 4 <= n {
            let mut acc0 = _mm_loadu_ps(o0p.add(j));
            let mut acc1 = _mm_loadu_ps(o1p.add(j));
            for dk in 0..6 {
                let bv = _mm_loadu_ps(bp.add((k + dk) * n + j));
                acc0 = _mm_fmadd_ps(_mm_set1_ps(a0[dk]), bv, acc0);
                acc1 = _mm_fmadd_ps(_mm_set1_ps(a1[dk]), bv, acc1);
            }
            _mm_storeu_ps(o0p.add(j), acc0);
            _mm_storeu_ps(o1p.add(j), acc1);
            j += 4;
        }
        while j < n {
            let mut o0 = *o0p.add(j);
            let mut o1 = *o1p.add(j);
            for dk in 0..6 {
                let bv = *bp.add((k + dk) * n + j);
                o0 = a0[dk].mul_add(bv, o0);
                o1 = a1[dk].mul_add(bv, o1);
            }
            *o0p.add(j) = o0;
            *o1p.add(j) = o1;
            j += 1;
        }
        k += 6;
    }
    while k < k_dim {
        let (c0, c1) = (a0_row[k], a1_row[k]);
        let bk = &b[k * n..(k + 1) * n];
        for j in 0..n {
            out0[j] = c0.mul_add(bk[j], out0[j]);
            out1[j] = c1.mul_add(bk[j], out1[j]);
        }
        k += 1;
    }
}

/// Cached `is_x86_feature_detected!("avx2") && ("fma")`: 0 unknown,
/// 1 no, 2 yes. Public because every SIMD kernel in the crate — the f32
/// matmul rows here and the int8 inference GEMMs in [`crate::quant`] —
/// dispatches through this one check, so a host either takes all the
/// wide paths or none of them.
#[cfg(target_arch = "x86_64")]
pub fn fma_available() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    static FMA: AtomicU8 = AtomicU8::new(0);
    match FMA.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let yes = std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma");
            FMA.store(if yes { 2 } else { 1 }, Ordering::Relaxed);
            yes
        }
    }
}

/// Non-x86 hosts have no AVX2/FMA path; the portable kernels are the
/// only (and bit-identical) implementation there.
#[cfg(not(target_arch = "x86_64"))]
pub fn fma_available() -> bool {
    false
}

/// Cached check for the AVX-512 int8 tier: F + BW (16-bit lanes in zmm),
/// VL (masked 256-bit loads for tails) and VNNI (`vpdpwssd`, the fused
/// i16-pair multiply-accumulate). Only the integer inference kernels in
/// [`crate::quant`] dispatch on this — integer accumulation is exact, so
/// the wider tier is bit-identical to both the AVX2 and portable paths.
/// The f32 kernels deliberately stay on the AVX2 tier: reassociating
/// float sums across 16 lanes would shift training numerics.
#[cfg(target_arch = "x86_64")]
pub fn vnni512_available() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    static VNNI: AtomicU8 = AtomicU8::new(0);
    match VNNI.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let yes = std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512vl")
                && std::arch::is_x86_feature_detected!("avx512vnni");
            VNNI.store(if yes { 2 } else { 1 }, Ordering::Relaxed);
            yes
        }
    }
}

/// See [`fma_available`]: no x86, no wide integer tier either.
#[cfg(not(target_arch = "x86_64"))]
pub fn vnni512_available() -> bool {
    false
}

/// 4-accumulator dot product: lane `l` sums the products at `k ≡ l
/// (mod 4)` below the last multiple of 4, the rest go to a scalar tail,
/// and the result is `((s0+s1)+(s2+s3)) + tail`. Accumulator layout is
/// fixed, so the result is deterministic (though differently rounded than
/// a single-accumulator sum); [`Matrix::matmul_nt`] reproduces it bit for
/// bit.
pub fn dot4(x: &[f32], y: &[f32]) -> f32 {
    let len = x.len().min(y.len());
    let (x, y) = (&x[..len], &y[..len]);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    let mut k = 0;
    while k + 4 <= len {
        s0 += x[k] * y[k];
        s1 += x[k + 1] * y[k + 1];
        s2 += x[k + 2] * y[k + 2];
        s3 += x[k + 3] * y[k + 3];
        k += 4;
    }
    let mut tail = 0.0f32;
    while k < len {
        tail += x[k] * y[k];
        k += 1;
    }
    ((s0 + s1) + (s2 + s3)) + tail
}

/// `out_row[j] = dot4(a_row, b_j)` for every row `b_j` of the row-major
/// `b` (`out_row.len()` rows of `a_row.len()` columns).
///
/// On x86-64 blocks of eight (then four) outputs run through
/// [`dot4_block`]; the remaining outputs, and every output on other
/// architectures, call [`dot4`] directly. Both give the same bits.
pub(crate) fn dot4_row(a_row: &[f32], b: &[f32], out_row: &mut [f32]) {
    let k = a_row.len();
    let mut j = 0;
    #[cfg(target_arch = "x86_64")]
    {
        while j + 8 <= out_row.len() {
            dot4_block::<8>(a_row, &b[j * k..(j + 8) * k], &mut out_row[j..j + 8]);
            j += 8;
        }
        if j + 4 <= out_row.len() {
            dot4_block::<4>(a_row, &b[j * k..(j + 4) * k], &mut out_row[j..j + 4]);
            j += 4;
        }
    }
    for (jj, o) in out_row.iter_mut().enumerate().skip(j) {
        *o = dot4(a_row, &b[jj * k..(jj + 1) * k]);
    }
}

/// [`dot4`] for `B` outputs at once (`B` a multiple of 4): `out[j]` is
/// `a · b[j*k..(j+1)*k]`. Output `j` keeps its four `dot4` lane sums in
/// one 128-bit accumulator, updated with a separate multiply and add per
/// step (never a fused multiply-add), so every lane rounds exactly as the
/// scalar `s0..s3` do. The lanes of four outputs are then transposed and
/// finished together as `((s0+s1)+(s2+s3)) + tail`, with each tail a
/// scalar sum in ascending k. SSE is part of the x86-64 baseline, so no
/// runtime feature check is needed.
#[cfg(target_arch = "x86_64")]
#[inline]
fn dot4_block<const B: usize>(a: &[f32], b: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::{
        __m128, _mm_add_ps, _mm_loadu_ps, _mm_movehl_ps, _mm_movelh_ps, _mm_mul_ps, _mm_setzero_ps,
        _mm_storeu_ps, _mm_unpackhi_ps, _mm_unpacklo_ps,
    };
    let k = a.len();
    let k4 = k - k % 4;
    assert!(B.is_multiple_of(4) && b.len() == B * k && out.len() == B);
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    // SAFETY: SSE/SSE2 are always present on x86-64. Every load reads four
    // floats at `kk < k4 <= k` from `a` or from row `j < B` of `b`, all in
    // bounds by the assert above; the store writes `out[q..q + 4]`, q + 4 <= B.
    unsafe {
        let mut acc: [__m128; B] = [_mm_setzero_ps(); B];
        let mut kk = 0;
        while kk < k4 {
            let av = _mm_loadu_ps(ap.add(kk));
            for (j, s) in acc.iter_mut().enumerate() {
                *s = _mm_add_ps(*s, _mm_mul_ps(av, _mm_loadu_ps(bp.add(j * k + kk))));
            }
            kk += 4;
        }
        for q in (0..B).step_by(4) {
            // Transpose so lane j of `s[l]` is output q+j's lane sum s_l.
            let t0 = _mm_unpacklo_ps(acc[q], acc[q + 1]);
            let t1 = _mm_unpacklo_ps(acc[q + 2], acc[q + 3]);
            let t2 = _mm_unpackhi_ps(acc[q], acc[q + 1]);
            let t3 = _mm_unpackhi_ps(acc[q + 2], acc[q + 3]);
            let s = [
                _mm_movelh_ps(t0, t1),
                _mm_movehl_ps(t1, t0),
                _mm_movelh_ps(t2, t3),
                _mm_movehl_ps(t3, t2),
            ];
            let lanes = _mm_add_ps(_mm_add_ps(s[0], s[1]), _mm_add_ps(s[2], s[3]));
            let mut tail = [0.0f32; 4];
            for (j, t) in tail.iter_mut().enumerate() {
                let row = &b[(q + j) * k..(q + j + 1) * k];
                for kk in k4..k {
                    *t += a[kk] * row[kk];
                }
            }
            let done = _mm_add_ps(lanes, _mm_loadu_ps(tail.as_ptr()));
            _mm_storeu_ps(out.as_mut_ptr().add(q), done);
        }
    }
}

/// The pre-optimization scalar kernels, kept verbatim as the baseline for
/// `par_bench` and the determinism property tests. Not used by training.
pub mod reference {
    use super::Matrix;

    /// Scalar ikj matmul with the per-element zero skip.
    pub fn matmul(a: &Matrix, other: &Matrix) -> Matrix {
        assert_eq!(a.cols, other.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(a.rows, other.cols);
        for i in 0..a.rows {
            let a_row = a.row(i);
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for (k, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = other.row(k);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += av * b;
                }
            }
        }
        out
    }

    /// Scalar NT matmul (single-accumulator dots).
    pub fn matmul_nt(a: &Matrix, other: &Matrix) -> Matrix {
        assert_eq!(a.cols, other.cols, "matmul_nt shape mismatch");
        let mut out = Matrix::zeros(a.rows, other.rows);
        for i in 0..a.rows {
            let a_row = a.row(i);
            for j in 0..other.rows {
                let b_row = other.row(j);
                let mut sum = 0.0;
                for (&x, &y) in a_row.iter().zip(b_row) {
                    sum += x * y;
                }
                out.data[i * other.rows + j] = sum;
            }
        }
        out
    }

    /// Scalar TN matmul (k-outer accumulation).
    pub fn matmul_tn(a: &Matrix, other: &Matrix) -> Matrix {
        assert_eq!(a.rows, other.rows, "matmul_tn shape mismatch");
        let mut out = Matrix::zeros(a.cols, other.cols);
        for k in 0..a.rows {
            let a_row = a.row(k);
            let b_row = other.row(k);
            for (i, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += av * b;
                }
            }
        }
        out
    }

    /// Scalar transpose.
    pub fn transpose(a: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols, a.rows);
        for r in 0..a.rows {
            for c in 0..a.cols {
                out.data[c * a.rows + r] = a.data[r * a.cols + c];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    fn b() -> Matrix {
        Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0])
    }

    #[test]
    fn matmul_known_product() {
        let c = a().matmul(&b());
        assert_eq!(c.rows, 2);
        assert_eq!(c.cols, 2);
        assert_eq!(c.data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let bt = b().transpose();
        let via_nt = a().matmul_nt(&bt);
        let direct = a().matmul(&b());
        assert_eq!(via_nt.data, direct.data);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let at = a().transpose();
        let via_tn = at.matmul_tn(&b()); // (atᵀ) @ b = a @ b ... at is 3x2, tn gives 2x?
        let direct = a().matmul(&b());
        assert_eq!(via_tn.rows, direct.rows);
        assert_eq!(via_tn.data, direct.data);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let _ = a().matmul(&a());
    }

    #[test]
    fn transpose_round_trips() {
        let m = a();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(2, 1), m.get(1, 2));
    }

    #[test]
    fn axpy_accumulates() {
        let mut m = Matrix::zeros(2, 3);
        m.axpy(2.0, &a());
        assert_eq!(m.data, vec![2.0, 4.0, 6.0, 8.0, 10.0, 12.0]);
    }

    #[test]
    fn rows_and_indexing() {
        let m = a();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.get(0, 2), 3.0);
        let mut m = m;
        m.set(0, 0, 9.0);
        assert_eq!(m.get(0, 0), 9.0);
    }

    #[test]
    fn map_and_norm() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert_eq!(m.frobenius(), 5.0);
        assert_eq!(m.map(|x| x * 2.0).data, vec![6.0, 8.0]);
    }

    #[test]
    fn serde_round_trip() {
        let m = a();
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    /// Deterministic pseudo-random matrix (no RNG dependency needed).
    fn pseudo(rows: usize, cols: usize, salt: u64, sparse: bool) -> Matrix {
        let data = (0..rows * cols)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(salt)
                    .rotate_left(17);
                if sparse && !h.is_multiple_of(3) {
                    0.0
                } else {
                    ((h % 2000) as f32 - 1000.0) * 1e-3
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn kernels_match_reference_on_irregular_shapes() {
        // Odd shapes exercise the unroll tail, the chunk remainder, and
        // both density paths. Matmuls accumulate with fused multiply-adds
        // (rounded once per step), so they are close to — not bitwise
        // equal to — the reference kernels' separate mul-then-add.
        let close = |got: &Matrix, want: &Matrix, what: &str| {
            for (x, y) in got.data.iter().zip(&want.data) {
                assert!(
                    (x - y).abs() <= 1e-4 * (1.0 + y.abs()),
                    "{what}: {x} vs {y}"
                );
            }
        };
        for (m, k, n, sparse) in [(5, 7, 3, false), (33, 65, 17, false), (9, 40, 11, true)] {
            let x = pseudo(m, k, 1, sparse);
            let y = pseudo(k, n, 2, false);
            close(
                &x.matmul(&y),
                &reference::matmul(&x, &y),
                &format!("matmul {m}x{k}@{k}x{n} sparse={sparse}"),
            );
            let xt = pseudo(k, m, 3, sparse);
            close(
                &xt.matmul_tn(&y),
                &reference::matmul_tn(&xt, &y),
                &format!("matmul_tn {k}x{m}@{k}x{n} sparse={sparse}"),
            );
            assert_eq!(x.transpose().data, reference::transpose(&x).data);
        }
    }

    #[test]
    fn parallel_kernels_bitwise_equal_serial() {
        let x = pseudo(70, 64, 4, false);
        let y = pseudo(64, 48, 5, false);
        let yt = pseudo(48, 64, 6, false);
        let (p1, p2, p3, p4) = rsd_par::with_local_pool(4, || {
            (
                x.matmul(&y),
                x.matmul_nt(&yt),
                x.matmul_tn(&pseudo(70, 32, 7, false)),
                x.transpose(),
            )
        });
        let (s1, s2, s3, s4) = rsd_par::run_serial(|| {
            (
                x.matmul(&y),
                x.matmul_nt(&yt),
                x.matmul_tn(&pseudo(70, 32, 7, false)),
                x.transpose(),
            )
        });
        assert_eq!(p1, s1);
        assert_eq!(p2, s2);
        assert_eq!(p3, s3);
        assert_eq!(p4, s4);
    }

    #[test]
    fn degenerate_shapes_are_fine() {
        let e = Matrix::zeros(0, 5);
        let f = Matrix::zeros(5, 0);
        assert_eq!(e.matmul(&f).data.len(), 0);
        assert_eq!(f.matmul(&e).data.len(), 25);
        assert_eq!(e.transpose().rows, 5);
        assert_eq!(Matrix::zeros(0, 0).frobenius(), 0.0);
    }
}
