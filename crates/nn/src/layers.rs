//! Reusable layers over the tape: Linear, Embedding, LayerNorm.
//!
//! A layer owns [`ParamId`]s into a shared [`ParamStore`] and exposes a
//! `forward(&self, tape, store, input)` that leafs its parameters and
//! builds the graph. Construction is deterministic given the caller's RNG.

use rand::rngs::StdRng;

use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};

/// Fully-connected layer: `y = x @ W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight (in×out).
    pub w: ParamId,
    /// Bias (1×out).
    pub b: ParamId,
    /// Input width.
    pub in_dim: usize,
    /// Output width.
    pub out_dim: usize,
}

impl Linear {
    /// Register a new linear layer.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        Linear {
            w: store.register_xavier(format!("{name}.w"), in_dim, out_dim, rng),
            b: store.register_zeros(format!("{name}.b"), 1, out_dim),
            in_dim,
            out_dim,
        }
    }

    /// Build `x @ W + b`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        let xw = tape.matmul(x, w);
        tape.add_row(xw, b)
    }
}

/// Token/position embedding table.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// Table (vocab×dim).
    pub table: ParamId,
    /// Vocabulary size.
    pub vocab: usize,
    /// Embedding width.
    pub dim: usize,
}

impl Embedding {
    /// Register a new embedding with N(0, 0.02) init (transformer
    /// convention).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        Embedding {
            table: store.register_normal(format!("{name}.table"), vocab, dim, 0.02, rng),
            vocab,
            dim,
        }
    }

    /// Gather rows for `ids`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, ids: &[u32]) -> Var {
        let table = tape.param(store, self.table);
        tape.gather(table, ids)
    }
}

/// Learned row-wise layer normalization.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Gain (1×dim), initialized to ones.
    pub gain: ParamId,
    /// Bias (1×dim), initialized to zeros.
    pub bias: ParamId,
    /// Normalized width.
    pub dim: usize,
}

impl LayerNorm {
    /// Register a new layer norm.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        LayerNorm {
            gain: store.register(
                format!("{name}.gain"),
                crate::matrix::Matrix::full(1, dim, 1.0),
            ),
            bias: store.register_zeros(format!("{name}.bias"), 1, dim),
            dim,
        }
    }

    /// Build the normalized output.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let gain = tape.param(store, self.gain);
        let bias = tape.param(store, self.bias);
        tape.layer_norm(x, gain, bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::optim::Adam;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes_and_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "fc", 3, 2, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_vec(4, 3, vec![0.1; 12]));
        let y = layer.forward(&mut tape, &store, x);
        assert_eq!(tape.shape(y), (4, 2));
    }

    #[test]
    fn embedding_gathers_rows() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "tok", 10, 4, &mut rng);
        let mut tape = Tape::new();
        let e = emb.forward(&mut tape, &store, &[3, 3, 7]);
        assert_eq!(tape.shape(e), (3, 4));
        let v = tape.value(e);
        assert_eq!(v.row(0), v.row(1));
        assert_ne!(v.row(0), v.row(2));
    }

    #[test]
    fn layer_norm_normalizes_rows() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 4);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_vec(
            2,
            4,
            vec![1.0, 2.0, 3.0, 4.0, -5.0, 0.0, 5.0, 10.0],
        ));
        let y = ln.forward(&mut tape, &store, x);
        let v = tape.value(y);
        for r in 0..2 {
            let row = v.row(r);
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|&x| (x - mean).powi(2)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn linear_learns_a_mapping() {
        // Fit y = [x0 + x1, x0 - x1] with a single linear layer.
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "fc", 2, 2, &mut rng);
        let mut opt = Adam::new(0.05);
        let data = [
            ([1.0f32, 0.0], [1.0f32, 1.0]),
            ([0.0, 1.0], [1.0, -1.0]),
            ([1.0, 1.0], [2.0, 0.0]),
            ([2.0, -1.0], [1.0, 3.0]),
        ];
        for _ in 0..300 {
            for (x, y) in &data {
                let mut tape = Tape::new();
                let xv = tape.constant(Matrix::row_vec(x.to_vec()));
                let pred = layer.forward(&mut tape, &store, xv);
                let t = tape.constant(Matrix::row_vec(y.to_vec()));
                let neg = tape.scale(t, -1.0);
                let diff = tape.add(pred, neg);
                let sq = tape.mul(diff, diff);
                tape.backward(sq);
                tape.harvest_grads(&mut store);
                opt.step(&mut store);
            }
        }
        // Check fit.
        let mut tape = Tape::inference();
        let xv = tape.constant(Matrix::row_vec(vec![3.0, 2.0]));
        let pred = layer.forward(&mut tape, &store, xv);
        let out = tape.value(pred);
        assert!((out.data[0] - 5.0).abs() < 0.1, "{:?}", out.data);
        assert!((out.data[1] - 1.0).abs() < 0.1, "{:?}", out.data);
    }
}
