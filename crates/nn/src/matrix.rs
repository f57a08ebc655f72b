//! Dense row-major f32 matrices with the kernels training needs.
//!
//! Not a general linear-algebra library: exactly the operations the tape
//! ops are built from. The hot kernels (the products, `transpose`,
//! `axpy`, `map`) are cache-blocked and parallelized over output-row
//! chunks through `rsd-par`; every output element is written by exactly
//! one chunk and chunk boundaries depend only on the shape, so results
//! are bit-identical to serial execution for any `RSD_THREADS`.
//!
//! The products run on [`F32Tier`]s: an AVX2 body and the portable scalar
//! kernel that is both the path on other CPUs and the oracle the AVX2 body
//! is tested against bit for bit. A lane holds one output and never a
//! share of a sum, so each output keeps the rounding chain it has in the
//! scalar kernel. One kernel forms `aᵀ·b`, each output one fused
//! multiply-add chain over the shared index in ascending order from
//! `+0.0`: [`Matrix::matmul_tn`] runs it on its operands as they are, and
//! [`Matrix::matmul`] runs it on the transpose of its left operand, with
//! no skip of zero coefficients. [`Matrix::matmul_dot4`] rounds each
//! output as [`dot4`] does, with separate multiplies and adds, from a
//! right operand in `k × n` layout.

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
    (work >= SPAN_MIN_WORK).then(|| rsd_obs::Span::enter(label))
}

/// Rows per parallel chunk for a kernel doing `row_work` operations per
/// output row.
fn row_grain(row_work: usize) -> usize {
    (CHUNK_WORK / row_work.max(1)).max(1)
}

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Default)]
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
    /// Output `(i, j)` is one fused multiply-add chain over `k` in
    /// ascending order from `+0.0`: the kernel of [`Matrix::matmul_tn`]
    /// over `selfᵀ`, which a one-row `self` already is in memory.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_on(F32Tier::detect(), other)
    }

    /// [`Matrix::matmul`] on a given tier; every tier gives the same bits.
    /// Panics if this CPU cannot run `tier`.
    pub fn matmul_on(&self, tier: F32Tier, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let _span = kernel_span("nn.matmul", 2 * self.rows * self.cols * other.cols);
        if self.rows == 1 {
            return tn_product(tier, &self.data, 1, other);
        }
        tn_product(tier, &transposed(self), self.rows, other)
    }

    /// `self @ otherᵀ` (NT layout), every output rounded as [`dot4`]
    /// rounds it: `other` is transposed once and the product runs through
    /// [`Matrix::matmul_dot4`].
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} @ ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        self.matmul_dot4(&other.transpose())
    }

    /// `self @ bt` with every output rounded as [`dot4`] rounds the dot of
    /// its row of `self` and its column of `bt`: the NT product for a
    /// caller that already holds the right operand transposed (`k × n`).
    pub fn matmul_dot4(&self, bt: &Matrix) -> Matrix {
        self.matmul_dot4_on(F32Tier::detect(), bt)
    }

    /// [`Matrix::matmul_dot4`] on a given tier; every tier gives the same
    /// bits. Panics if this CPU cannot run `tier`.
    ///
    /// Row-parallel: each chunk owns a block of whole output rows.
    pub fn matmul_dot4_on(&self, tier: F32Tier, bt: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, bt.rows,
            "matmul_dot4 shape mismatch: {}x{} @ {}x{}",
            self.rows, self.cols, bt.rows, bt.cols
        );
        assert!(
            tier.runs_here(),
            "the {} tier does not run on this CPU",
            tier.name()
        );
        let (k, n) = (self.cols, bt.cols);
        let _span = kernel_span("nn.matmul_nt", 2 * self.rows * k * n);
        let mut out = Matrix::zeros(self.rows, n);
        if n == 0 {
            return out;
        }
        // Whole two-row register blocks per chunk.
        let grain = row_grain(2 * k * n).next_multiple_of(2) * n;
        rsd_par::parallel_chunks_mut(&mut out.data, grain, |start, chunk| {
            let i0 = start / n;
            let a = &self.data[i0 * k..(i0 + chunk.len() / n) * k];
            dot4_rows(tier, a, k, &bt.data, n, chunk);
        });
        out
    }

    /// `selfᵀ @ other` (TN layout), without a transpose: output `(i, j)`
    /// is one fused multiply-add chain over the shared rows in ascending
    /// order from `+0.0`.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        self.matmul_tn_on(F32Tier::detect(), other)
    }

    /// [`Matrix::matmul_tn`] on a given tier; every tier gives the same
    /// bits. Panics if this CPU cannot run `tier`.
    pub fn matmul_tn_on(&self, tier: F32Tier, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: ({}x{})ᵀ @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let _span = kernel_span("nn.matmul_tn", 2 * self.rows * self.cols * other.cols);
        tn_product(tier, &self.data, self.cols, other)
    }

    /// Transposed copy, parallel over blocks of output rows.
    pub fn transpose(&self) -> Matrix {
        let _span = kernel_span("nn.transpose", self.rows * self.cols);
        Matrix::from_vec(self.cols, self.rows, transposed(self))
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

/// `aᵀ @ b` for `a` holding `b.rows × m` row-major: the one kernel
/// behind [`Matrix::matmul`] and [`Matrix::matmul_tn`], parallel over
/// blocks of output rows.
fn tn_product(tier: F32Tier, a: &[f32], m: usize, b: &Matrix) -> Matrix {
    assert!(
        tier.runs_here(),
        "the {} tier does not run on this CPU",
        tier.name()
    );
    let n = b.cols;
    let mut out = Matrix::zeros(m, n);
    if n == 0 {
        return out;
    }
    // Whole eight-row register blocks per chunk.
    let grain = row_grain(2 * b.rows * n).next_multiple_of(8) * n;
    rsd_par::parallel_chunks_mut(&mut out.data, grain, |start, chunk| {
        tn_rows(tier, a, m, &b.data, n, start / n, chunk);
    });
    out
}

/// The data of `mᵀ`. Each pass copies a band of eight source rows into
/// eight consecutive slots of every output row of a chunk: the reads run
/// along eight source rows, and the writes fill 32-byte runs.
fn transposed(m: &Matrix) -> Vec<f32> {
    const TILE: usize = 32;
    let (r, c) = (m.rows, m.cols);
    let mut out = vec![0.0f32; r * c];
    if r == 0 || c == 0 {
        return out;
    }
    rsd_par::parallel_chunks_mut(&mut out, TILE * r, |start, chunk| {
        let c0 = start / r;
        let width = chunk.len() / r;
        for (band, rows) in m.data.chunks(8 * c).enumerate() {
            let rb = 8 * band;
            let dsts = chunk.chunks_exact_mut(r).map(|row| &mut row[rb..]);
            if rows.len() == 8 * c {
                let src: [&[f32]; 8] = std::array::from_fn(|q| &rows[q * c + c0..][..width]);
                for (oc, dst) in dsts.enumerate() {
                    for (d, s) in dst[..8].iter_mut().zip(src) {
                        *d = s[oc];
                    }
                }
            } else {
                for (oc, dst) in dsts.enumerate() {
                    for (d, s) in dst.iter_mut().zip(rows.chunks_exact(c)) {
                        *d = s[c0 + oc];
                    }
                }
            }
        }
    });
    out
}

/// `out = a @ b` for one row `a` (`b` is `a.len() × out.len()`,
/// row-major), serially, with exactly the arithmetic of
/// [`Matrix::matmul`]: a row is its own transpose in memory, so this is
/// one call of the TN kernel.
pub(crate) fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32]) {
    tn_rows(F32Tier::detect(), a, 1, b, out.len(), 0, out);
}

/// Caches a CPU-feature probe in `cell` (0 unknown, 1 no, 2 yes).
#[cfg(target_arch = "x86_64")]
fn cached_probe(cell: &std::sync::atomic::AtomicU8, probe: fn() -> bool) -> bool {
    use std::sync::atomic::Ordering;
    match cell.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let yes = probe();
            cell.store(if yes { 2 } else { 1 }, Ordering::Relaxed);
            yes
        }
    }
}

/// Cached `is_x86_feature_detected!("avx2") && ("fma")`. Public because
/// every SIMD kernel in the crate — the f32 products here and the int8
/// inference GEMMs in [`crate::quant`] — dispatches through this one check,
/// so a host either takes all the wide paths or none of them.
#[cfg(target_arch = "x86_64")]
pub fn fma_available() -> bool {
    static FMA: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);
    cached_probe(&FMA, || {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
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
///
/// The f32 kernels widen under one rule: a lane holds one output and never
/// a share of a sum, so the register width cannot change how any output
/// is rounded ([`F32Tier`]). They stop at AVX2's 8 lanes: a 16-lane tier
/// of the product kernels was no faster end to end (EXPERIMENTS.md).
#[cfg(target_arch = "x86_64")]
pub fn vnni512_available() -> bool {
    static VNNI: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);
    cached_probe(&VNNI, || {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vl")
            && std::arch::is_x86_feature_detected!("avx512vnni")
    })
}

/// See [`fma_available`]: no x86, no wide integer tier either.
#[cfg(not(target_arch = "x86_64"))]
pub fn vnni512_available() -> bool {
    false
}

/// The register width the f32 product kernels ([`Matrix::matmul`],
/// [`Matrix::matmul_tn`], [`Matrix::matmul_dot4`]) run at. Each SIMD lane
/// holds one output, so every tier forms each output's sum exactly as
/// [`F32Tier::Portable`] does; the tiers differ only in how many outputs
/// one instruction advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum F32Tier {
    /// 8 lanes (AVX2 + FMA).
    Avx2,
    /// Scalar: the path on CPUs without AVX2 and FMA, and the bit-exact
    /// oracle of the AVX2 tier.
    Portable,
}

impl F32Tier {
    /// Every tier, widest first.
    pub const ALL: [F32Tier; 2] = [F32Tier::Avx2, F32Tier::Portable];

    /// The widest tier this CPU runs.
    pub fn detect() -> F32Tier {
        F32Tier::ALL
            .into_iter()
            .find(|t| t.runs_here())
            .unwrap_or(F32Tier::Portable)
    }

    /// Whether this CPU can run the tier.
    pub fn runs_here(self) -> bool {
        match self {
            F32Tier::Avx2 => fma_available(),
            F32Tier::Portable => true,
        }
    }

    /// `"avx2"` or `"portable"`.
    pub fn name(self) -> &'static str {
        match self {
            F32Tier::Avx2 => "avx2",
            F32Tier::Portable => "portable",
        }
    }
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

/// `out = a @ bt` on row-major slices (`a` is `out.len() / n` rows of `k`,
/// `bt` is `k × n`), serially, every output rounded as [`dot4`]: over the
/// same operands this gives the bits of [`Matrix::matmul_dot4`].
pub(crate) fn dot4_into(a: &[f32], k: usize, bt: &[f32], n: usize, out: &mut [f32]) {
    dot4_rows(F32Tier::detect(), a, k, bt, n, out);
}

/// Checks the slice shapes the raw-pointer kernels rely on, then runs
/// `tier`'s dot4 kernel (the caller has checked that it runs here).
fn dot4_rows(tier: F32Tier, a: &[f32], k: usize, bt: &[f32], n: usize, out: &mut [f32]) {
    if n == 0 {
        return;
    }
    assert!(
        bt.len() == k * n && out.len().is_multiple_of(n) && a.len() == out.len() / n * k,
        "dot4 kernel shape mismatch"
    );
    match tier {
        // SAFETY: shapes checked above; the tier runs on this CPU.
        #[cfg(target_arch = "x86_64")]
        F32Tier::Avx2 => unsafe { wide::dot4_rows(a, k, bt, n, out) },
        _ => dot4_rows_portable(a, k, bt, n, out),
    }
}

/// Portable dot4 kernel: output `(i, j)` is [`dot4`] of row `i` of `a`
/// and column `j` of `bt`. Like the wide kernels it runs a row of outputs
/// at a time over whole rows of `bt`: `lanes[l * n + j]` is output `j`'s
/// lane sum `l`, and the output row holds the tail until the finish.
fn dot4_rows_portable(a: &[f32], k: usize, bt: &[f32], n: usize, out: &mut [f32]) {
    let k4 = k - k % 4;
    let mut lanes = vec![0.0f32; 4 * n];
    for (i, out_row) in out.chunks_mut(n).enumerate() {
        lanes.fill(0.0);
        out_row.fill(0.0);
        for (kk, (&x, b_row)) in a[i * k..(i + 1) * k].iter().zip(bt.chunks(n)).enumerate() {
            let sums = if kk < k4 {
                &mut lanes[kk % 4 * n..][..n]
            } else {
                &mut *out_row
            };
            for (s, &b) in sums.iter_mut().zip(b_row) {
                *s += x * b;
            }
        }
        let (s01, s23) = lanes.split_at(2 * n);
        let (s0, s1) = s01.split_at(n);
        let (s2, s3) = s23.split_at(n);
        for (j, o) in out_row.iter_mut().enumerate() {
            *o += (s0[j] + s1[j]) + (s2[j] + s3[j]);
        }
    }
}

/// Output rows `i0..i0 + out.len() / n` of `aᵀ @ b` (`a` is `r × m`, `b`
/// is `r × n`), after checking the slice shapes the raw-pointer kernels
/// rely on (the caller has checked that `tier` runs here).
fn tn_rows(tier: F32Tier, a: &[f32], m: usize, b: &[f32], n: usize, i0: usize, out: &mut [f32]) {
    if n == 0 {
        return;
    }
    let r = b.len() / n;
    assert!(
        b.len() == r * n
            && a.len() == r * m
            && out.len().is_multiple_of(n)
            && i0 + out.len() / n <= m,
        "tn kernel shape mismatch"
    );
    match tier {
        // SAFETY: shapes checked above; the tier runs on this CPU.
        #[cfg(target_arch = "x86_64")]
        F32Tier::Avx2 => unsafe { wide::tn_rows(a, m, b, n, i0, out) },
        _ => tn_rows_portable(a, m, b, n, i0, out),
    }
}

/// Portable TN kernel: output `(i0 + q, j)` is `mul_add` chained over the
/// rows of `a` and `b` in ascending order, from `+0.0`.
fn tn_rows_portable(a: &[f32], m: usize, b: &[f32], n: usize, i0: usize, out: &mut [f32]) {
    for (q, out_row) in out.chunks_mut(n).enumerate() {
        out_row.fill(0.0);
        for (r, b_row) in b.chunks(n).enumerate() {
            let c = a[r * m + i0 + q];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o = c.mul_add(bv, *o);
            }
        }
    }
}

/// The x86-64 bodies of the product kernels, on 8-lane AVX2 registers. A
/// lane holds one output column; a block of columns narrower than the
/// register runs masked, so every column takes the vector path.
#[cfg(target_arch = "x86_64")]
mod wide {
    use std::arch::x86_64::*;

    /// f32 lanes per register.
    const W: usize = 8;

    /// Mask of the first `live` lanes, `0 < live <= W`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn first(live: usize) -> __m256i {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(live as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }

    /// A full-width load or store, or a masked one for a partial block.
    #[inline(always)]
    unsafe fn load<const PART: bool>(p: *const f32, m: __m256i) -> __m256 {
        if PART {
            _mm256_maskload_ps(p, m)
        } else {
            _mm256_loadu_ps(p)
        }
    }

    #[inline(always)]
    unsafe fn store<const PART: bool>(p: *mut f32, m: __m256i, v: __m256) {
        if PART {
            _mm256_maskstore_ps(p, m, v)
        } else {
            _mm256_storeu_ps(p, v)
        }
    }

    /// Runs the body over the column blocks of an `n`-wide output, with
    /// `j` the block's first column, `C` its register count, `P` whether
    /// it is a masked partial register and `mk` its mask: `cols` registers
    /// at a time while they fit, then one, then one partial register.
    macro_rules! column_blocks {
        ($n:expr, $cols:literal, |$j:ident, $c:tt, $part:tt, $m:ident| $body:expr) => {{
            let n = $n;
            let full = first(W);
            let mut $j = 0;
            while $j + $cols * W <= n {
                let $m = full;
                {
                    const $c: usize = $cols;
                    const $part: bool = false;
                    $body;
                }
                $j += $cols * W;
            }
            while $j + W <= n {
                let $m = full;
                {
                    const $c: usize = 1;
                    const $part: bool = false;
                    $body;
                }
                $j += W;
            }
            if $j < n {
                let $m = first(n - $j);
                {
                    const $c: usize = 1;
                    const $part: bool = true;
                    $body;
                }
            }
        }};
    }

    /// The operands of `aᵀ @ b`: `a` is `r × m` and `b` is `r × n`,
    /// row-major.
    #[derive(Clone, Copy)]
    struct Tn {
        a: *const f32,
        m: usize,
        b: *const f32,
        n: usize,
        r: usize,
    }

    /// `ROWS` output rows × `C` registers of `aᵀ @ b`, starting at output
    /// row `i` and column `j`. Each lane is one output: `fma` chained over
    /// the `r` shared rows in ascending order from `+0.0`.
    #[inline(always)]
    unsafe fn tn_block<const ROWS: usize, const C: usize, const PART: bool>(
        g: Tn,
        (i, j): (usize, usize),
        mask: __m256i,
        out: *mut f32,
    ) {
        let mut acc = [[_mm256_setzero_ps(); C]; ROWS];
        for rr in 0..g.r {
            let mut bv = [_mm256_setzero_ps(); C];
            for (c, v) in bv.iter_mut().enumerate() {
                *v = load::<PART>(g.b.add(rr * g.n + j + c * W), mask);
            }
            for (q, row) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*g.a.add(rr * g.m + i + q));
                for (s, &v) in row.iter_mut().zip(&bv) {
                    *s = _mm256_fmadd_ps(av, v, *s);
                }
            }
        }
        for (q, row) in acc.iter().enumerate() {
            for (c, &s) in row.iter().enumerate() {
                store::<PART>(out.add(q * g.n + j + c * W), mask, s);
            }
        }
    }

    /// The operands of `a @ bt`: `a` has rows of `k`, `bt` is `k × n`,
    /// row-major.
    #[derive(Clone, Copy)]
    struct Dot4 {
        a: *const f32,
        k: usize,
        bt: *const f32,
        n: usize,
    }

    /// `ROWS` output rows × `C` registers of `a @ bt`, starting at output
    /// row `i` (row `i` of `a`) and column `j`. Each lane is one output
    /// and keeps [`super::dot4`]'s four lane sums, each a separate
    /// multiply and add per step, finished as `((s0+s1)+(s2+s3)) + tail`.
    #[inline(always)]
    unsafe fn dot4_block<const ROWS: usize, const C: usize, const PART: bool>(
        g: Dot4,
        (i, j): (usize, usize),
        mask: __m256i,
        out: *mut f32,
    ) {
        let Dot4 { a, k, bt, n } = g;
        let k4 = k - k % 4;
        let mut s = [[[_mm256_setzero_ps(); 4]; C]; ROWS];
        let mut kk = 0;
        while kk < k4 {
            for l in 0..4 {
                let mut bv = [_mm256_setzero_ps(); C];
                for (c, v) in bv.iter_mut().enumerate() {
                    *v = load::<PART>(bt.add((kk + l) * n + j + c * W), mask);
                }
                for (q, row) in s.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*a.add((i + q) * k + kk + l));
                    for (sc, &v) in row.iter_mut().zip(&bv) {
                        sc[l] = _mm256_add_ps(sc[l], _mm256_mul_ps(av, v));
                    }
                }
            }
            kk += 4;
        }
        let mut tail = [[_mm256_setzero_ps(); C]; ROWS];
        while kk < k {
            let mut bv = [_mm256_setzero_ps(); C];
            for (c, v) in bv.iter_mut().enumerate() {
                *v = load::<PART>(bt.add(kk * n + j + c * W), mask);
            }
            for (q, row) in tail.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*a.add((i + q) * k + kk));
                for (t, &v) in row.iter_mut().zip(&bv) {
                    *t = _mm256_add_ps(*t, _mm256_mul_ps(av, v));
                }
            }
            kk += 1;
        }
        for q in 0..ROWS {
            for c in 0..C {
                let [s0, s1, s2, s3] = s[q][c];
                let done = _mm256_add_ps(
                    _mm256_add_ps(_mm256_add_ps(s0, s1), _mm256_add_ps(s2, s3)),
                    tail[q][c],
                );
                store::<PART>(out.add(q * n + j + c * W), mask, done);
            }
        }
    }

    /// Output rows `i0..` of `aᵀ @ b`, eight at a time so that eight
    /// independent chains are in flight: two blocks of four rows for a
    /// pair of column registers, one block of eight rows for a single
    /// register. Then four rows, then one row (the LSTM's per-step
    /// product) over four column registers at a time.
    ///
    /// # Safety
    /// AVX2 and FMA must be available, and the shapes as
    /// `super::tn_rows` checks them.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn tn_rows(
        a: &[f32],
        m: usize,
        b: &[f32],
        n: usize,
        i0: usize,
        out: &mut [f32],
    ) {
        let g = Tn {
            a: a.as_ptr(),
            m,
            b: b.as_ptr(),
            n,
            r: b.len() / n,
        };
        let (op, rows) = (out.as_mut_ptr(), out.len() / n);
        let mut q = 0;
        while q + 8 <= rows {
            let (i, o) = (i0 + q, op.add(q * n));
            column_blocks! { n, 2, |j, C, P, mk| if C == 2 {
                tn_block::<4, C, P>(g, (i, j), mk, o);
                tn_block::<4, C, P>(g, (i + 4, j), mk, o.add(4 * n));
            } else {
                tn_block::<8, C, P>(g, (i, j), mk, o);
            } }
            q += 8;
        }
        while q + 4 <= rows {
            let (i, o) = (i0 + q, op.add(q * n));
            column_blocks! { n, 2, |j, C, P, mk| tn_block::<4, C, P>(g, (i, j), mk, o) }
            q += 4;
        }
        while q < rows {
            let (i, o) = (i0 + q, op.add(q * n));
            column_blocks! { n, 4, |j, C, P, mk| tn_block::<1, C, P>(g, (i, j), mk, o) }
            q += 1;
        }
    }

    /// Every output row of `a @ bt`, two rows per block, then one.
    ///
    /// # Safety
    /// AVX2 and FMA must be available, and the shapes as
    /// `super::dot4_rows` checks them.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dot4_rows(a: &[f32], k: usize, bt: &[f32], n: usize, out: &mut [f32]) {
        let g = Dot4 {
            a: a.as_ptr(),
            k,
            bt: bt.as_ptr(),
            n,
        };
        let (op, rows) = (out.as_mut_ptr(), out.len() / n);
        let mut i = 0;
        while i + 2 <= rows {
            let o = op.add(i * n);
            column_blocks! { n, 1, |j, C, P, mk| dot4_block::<2, C, P>(g, (i, j), mk, o) }
            i += 2;
        }
        if i < rows {
            // A lone row (the LSTM's per-step product) takes two column
            // registers per pass, so each pass reads whole cache lines of
            // `bt`.
            let o = op.add(i * n);
            column_blocks! { n, 2, |j, C, P, mk| dot4_block::<1, C, P>(g, (i, j), mk, o) }
        }
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
        let via_tn = at.matmul_tn(&b());
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
    fn kernels_match_portable_on_irregular_shapes() {
        // Odd shapes exercise the register-block remainders and the
        // masked column tails; every `matmul` output is one fused chain in
        // ascending k, zero coefficients of zero-heavy rows included.
        for (m, k, n, sparse) in [(5, 7, 3, false), (33, 65, 17, false), (9, 40, 11, true)] {
            let x = pseudo(m, k, 1, sparse);
            let y = pseudo(k, n, 2, false);
            let mut chains = Matrix::zeros(m, n);
            for i in 0..m {
                for (kk, &c) in x.row(i).iter().enumerate() {
                    for (o, &bv) in chains.row_mut(i).iter_mut().zip(y.row(kk)) {
                        *o = c.mul_add(bv, *o);
                    }
                }
            }
            assert_eq!(
                x.matmul(&y),
                chains,
                "matmul {m}x{k}@{k}x{n} sparse={sparse}"
            );
            let xt = pseudo(k, m, 3, sparse);
            assert_eq!(
                xt.matmul_tn(&y),
                xt.matmul_tn_on(F32Tier::Portable, &y),
                "matmul_tn {k}x{m}@{k}x{n} sparse={sparse}"
            );
            let yt = pseudo(n, k, 4, false);
            let portable = x.matmul_dot4_on(F32Tier::Portable, &yt.transpose());
            let dot = |i, j| dot4(x.row(i), yt.row(j)).to_bits();
            assert!(
                (0..m).all(|i| (0..n).all(|j| portable.get(i, j).to_bits() == dot(i, j))),
                "portable dot4 {m}x{k}@({n}x{k})ᵀ sparse={sparse}"
            );
            assert_eq!(
                x.matmul_nt(&yt),
                portable,
                "matmul_nt {m}x{k}@({n}x{k})ᵀ sparse={sparse}"
            );
            let t = x.transpose();
            assert!((0..m).all(|i| (0..k).all(|j| t.get(j, i) == x.get(i, j))));
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
