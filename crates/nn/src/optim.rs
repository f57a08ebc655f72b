//! The optimizer: Adam.
//!
//! It consumes the accumulated gradients in a [`ParamStore`] and zeroes
//! them after stepping, so the training loop is:
//! forward → backward → harvest → (scale by 1/batch) → `step` → repeat.

use crate::matrix::Matrix;
use crate::params::ParamStore;

/// Adam (Kingma & Ba, 2015) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Adam with standard betas.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Apply one update using the store's accumulated gradients, then
    /// zero them.
    pub fn step(&mut self, store: &mut ParamStore) {
        let ids: Vec<_> = store.ids().collect();
        while self.m.len() < ids.len() {
            let v = store.value(ids[self.m.len()]);
            self.m.push(Matrix::zeros(v.rows, v.cols));
            self.v.push(Matrix::zeros(v.rows, v.cols));
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for id in ids {
            let grad = store.grad(id).clone();
            let m = &mut self.m[id.0];
            let v = &mut self.v[id.0];
            for ((m, v), &g) in m.data.iter_mut().zip(&mut v.data).zip(&grad.data) {
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            }
            let (lr, eps) = (self.lr, self.eps);
            let m = &self.m[id.0];
            let v = &self.v[id.0];
            let value = store.value_mut(id);
            for ((w, &m), &v) in value.data.iter_mut().zip(&m.data).zip(&v.data) {
                let m_hat = m / bc1;
                let v_hat = v / bc2;
                *w -= lr * (m_hat / (v_hat.sqrt() + eps));
            }
        }
        store.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;
    use crate::tape::Tape;

    /// Minimize (2w + 6)² over scalar w; the optimizer must converge to
    /// w = −3.
    fn optimize(mut opt: Adam, iters: usize) -> f32 {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_vec(1, 1, vec![0.0]));
        for _ in 0..iters {
            let mut tape = Tape::new();
            let wv = tape.param(&store, w);
            let x = tape.constant(Matrix::from_vec(1, 1, vec![2.0]));
            let pred = tape.matmul(x, wv); // 2w
            let target = tape.constant(Matrix::from_vec(1, 1, vec![-6.0]));
            let neg_t = tape.scale(target, -1.0);
            let diff = tape.add(pred, neg_t); // 2w + 6
            let sq = tape.mul(diff, diff);
            tape.backward(sq);
            tape.harvest_grads(&mut store);
            opt.step(&mut store);
        }
        store.value(w).data[0]
    }

    #[test]
    fn adam_converges_to_minimum() {
        let w = optimize(Adam::new(0.1), 300);
        assert!((w + 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn step_zeros_gradients() {
        let mut store = ParamStore::new();
        let id = store.register("w", Matrix::from_vec(1, 1, vec![1.0]));
        store.accumulate(id, &Matrix::from_vec(1, 1, vec![5.0]));
        let mut opt = Adam::new(0.1);
        opt.step(&mut store);
        assert_eq!(store.grad(id).data, vec![0.0]);
        // Adam's first bias-corrected step moves by lr·sign(g).
        assert!((store.value(id).data[0] - 0.9).abs() < 1e-6);
    }
}
