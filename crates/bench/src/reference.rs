//! The seed's scalar matmul, kept as the baseline that `bench_kernels`
//! times the blocked kernels against. Not used by training.

use rsd_nn::Matrix;

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
