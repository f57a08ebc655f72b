//! Parameter store: named parameter registration, gradient accumulation,
//! and (de)serialization of model weights.
//!
//! Models register matrices once (getting a stable [`ParamId`]); every
//! forward pass leafs them into the tape; [`ParamStore::accumulate`] sums
//! per-example gradients; the optimizer consumes and clears them.

use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::Rng;
use rsd_common::RsdError;

/// Stable handle to a registered parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub usize);

/// One registered parameter with its accumulated gradient.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParamSlot {
    /// Human-readable name ("encoder.0.attn.wq").
    pub name: String,
    /// Current weights.
    pub value: Matrix,
    /// Accumulated gradient (same shape).
    pub grad: Matrix,
}

/// One gradient contribution to a parameter.
#[derive(Debug, Clone, Copy)]
pub enum GradPart<'g> {
    /// A dense gradient, added elementwise.
    Dense(&'g Matrix),
    /// The gradient `xᵀ·g` that a 1-row matmul `x·W` hands its weight
    /// `W`: element `(i, j)` is `x[i]·g[j]`, or `+0.0` when either factor
    /// is zero, exactly as `Matrix::matmul_tn` rounds it. With `x = [1.0]`
    /// it is the bias gradient of a 1-row `add_row`.
    Outer {
        /// Left factor, one entry per row.
        x: &'g [f32],
        /// Right factor, one entry per column.
        g: &'g [f32],
    },
}

impl GradPart<'_> {
    /// Add elements `offset..offset + dst.len()` of this part, in a
    /// parameter `cols` wide, to `dst`.
    fn add_to(&self, cols: usize, offset: usize, dst: &mut [f32]) {
        match *self {
            // `a + 1.0 * b` is `a + b`: the same bits as `axpy(1.0, ..)`.
            GradPart::Dense(m) => {
                for (a, &b) in dst.iter_mut().zip(&m.data[offset..]) {
                    *a += b;
                }
            }
            GradPart::Outer { x, g } => {
                let mut done = 0;
                while done < dst.len() {
                    let (i, j0) = ((offset + done) / cols, (offset + done) % cols);
                    let len = (cols - j0).min(dst.len() - done);
                    let row = &mut dst[done..done + len];
                    let xi = x[i];
                    if xi == 0.0 {
                        row.iter_mut().for_each(|a| *a += 0.0);
                    } else {
                        for (a, &gj) in row.iter_mut().zip(&g[j0..j0 + len]) {
                            // The matmul kernel's fused `xi·gj + 0.0` rounds
                            // as the plain product does, except that an
                            // exact zero product comes out `+0.0`.
                            *a += if gj == 0.0 { 0.0 } else { xi * gj };
                        }
                    }
                    done += len;
                }
            }
        }
    }
}

/// The parameter store.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParamStore {
    slots: Vec<ParamSlot>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter with explicit initial weights.
    pub fn register(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let grad = Matrix::zeros(value.rows, value.cols);
        self.slots.push(ParamSlot {
            name: name.into(),
            value,
            grad,
        });
        ParamId(self.slots.len() - 1)
    }

    /// Register with Xavier/Glorot-uniform initialization.
    pub fn register_xavier(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        rng: &mut StdRng,
    ) -> ParamId {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        self.register(name, Matrix::from_vec(rows, cols, data))
    }

    /// Register a zero-initialized parameter (biases).
    pub fn register_zeros(&mut self, name: impl Into<String>, rows: usize, cols: usize) -> ParamId {
        self.register(name, Matrix::zeros(rows, cols))
    }

    /// Register with small-normal initialization (embeddings).
    pub fn register_normal(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        std: f32,
        rng: &mut StdRng,
    ) -> ParamId {
        let data = (0..rows * cols)
            .map(|_| {
                // Box–Muller on f32.
                let u1: f32 = rng.gen::<f32>().max(f32::MIN_POSITIVE);
                let u2: f32 = rng.gen();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos() * std
            })
            .collect();
        self.register(name, Matrix::from_vec(rows, cols, data))
    }

    /// Number of parameters registered.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total scalar parameter count.
    pub fn n_scalars(&self) -> usize {
        self.slots.iter().map(|s| s.value.data.len()).sum()
    }

    /// Borrow a parameter's value.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.slots[id.0].value
    }

    /// Mutably borrow a parameter's value (optimizer use).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.slots[id.0].value
    }

    /// Borrow a parameter's accumulated gradient.
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.slots[id.0].grad
    }

    /// Accumulate a gradient contribution.
    pub fn accumulate(&mut self, id: ParamId, grad: &Matrix) {
        self.slots[id.0].grad.axpy(1.0, grad);
    }

    /// Accumulate many gradient contributions, in parallel across
    /// parameters (and across element ranges of large ones). Each
    /// parameter adds its own contributions in the order `grads` yields
    /// them, so the result is bitwise that of calling
    /// [`ParamStore::accumulate`] on each one's dense form in turn, for any
    /// thread count.
    pub fn accumulate_all<'g>(&mut self, grads: impl IntoIterator<Item = (ParamId, GradPart<'g>)>) {
        /// Elements per work item; large parameters split into several.
        const GRAIN: usize = 1 << 14;
        let mut per_slot: Vec<Vec<GradPart<'g>>> = vec![Vec::new(); self.slots.len()];
        for (id, g) in grads {
            let dst = &self.slots[id.0].grad;
            let fits = match g {
                GradPart::Dense(m) => m.same_shape(dst),
                GradPart::Outer { x, g } => x.len() == dst.rows && g.len() == dst.cols,
            };
            assert!(
                fits,
                "accumulate_all: shape mismatch for {}",
                self.slots[id.0].name
            );
            per_slot[id.0].push(g);
        }
        let mut work: Vec<(&[GradPart<'g>], usize, usize, &mut [f32])> = Vec::new();
        for (slot, grads) in self.slots.iter_mut().zip(&per_slot) {
            if grads.is_empty() {
                continue;
            }
            let cols = slot.grad.cols;
            for (c, dst) in slot.grad.data.chunks_mut(GRAIN).enumerate() {
                work.push((grads, cols, c * GRAIN, dst));
            }
        }
        rsd_par::parallel_chunks_mut(&mut work, 1, |_, items| {
            for (grads, cols, offset, dst) in items.iter_mut() {
                for g in grads.iter() {
                    g.add_to(*cols, *offset, dst);
                }
            }
        });
    }

    /// Zero all gradients.
    pub fn zero_grads(&mut self) {
        for slot in &mut self.slots {
            slot.grad.fill_zero();
        }
    }

    /// Scale all gradients (e.g. 1/batch before the optimizer step).
    pub fn scale_grads(&mut self, factor: f32) {
        for slot in &mut self.slots {
            for g in &mut slot.grad.data {
                *g *= factor;
            }
        }
    }

    /// Global gradient-norm clipping; returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm: f32 = self
            .slots
            .iter()
            .map(|s| s.grad.data.iter().map(|g| g * g).sum::<f32>())
            .sum::<f32>()
            .sqrt();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            self.scale_grads(scale);
        }
        norm
    }

    /// Iterate all ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.slots.len()).map(ParamId)
    }

    /// Name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.slots[id.0].name
    }

    /// Persist weights (names + values; gradients are not saved) to a JSON
    /// checkpoint file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), RsdError> {
        let file = std::fs::File::create(path)?;
        let writer = std::io::BufWriter::new(file);
        serde_json::to_writer(writer, self).map_err(|e| RsdError::Serde(e.to_string()))
    }

    /// Load a checkpoint saved by [`ParamStore::save`]. Gradients come back
    /// zeroed.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<ParamStore, RsdError> {
        let file = std::fs::File::open(path)?;
        let reader = std::io::BufReader::new(file);
        let mut store: ParamStore =
            serde_json::from_reader(reader).map_err(|e| RsdError::Serde(e.to_string()))?;
        for slot in &mut store.slots {
            if !slot.grad.same_shape(&slot.value) {
                return Err(RsdError::Serde(format!(
                    "checkpoint corrupt: grad/value shape mismatch for {}",
                    slot.name
                )));
            }
            slot.grad.fill_zero();
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn register_and_lookup() {
        let mut store = ParamStore::new();
        let id = store.register("w", Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        assert_eq!(store.value(id).data, vec![1.0, 2.0]);
        assert_eq!(store.name(id), "w");
        assert_eq!(store.len(), 1);
        assert_eq!(store.n_scalars(), 2);
    }

    #[test]
    fn xavier_bounds_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let id = store.register_xavier("w", 10, 20, &mut rng);
        let bound = (6.0f32 / 30.0).sqrt();
        assert!(store.value(id).data.iter().all(|&x| x.abs() <= bound));
        // Not all zero.
        assert!(store.value(id).frobenius() > 0.0);
    }

    #[test]
    fn normal_init_has_requested_spread() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let id = store.register_normal("e", 100, 50, 0.1, &mut rng);
        let data = &store.value(id).data;
        let mean: f32 = data.iter().sum::<f32>() / data.len() as f32;
        let var: f32 = data.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / data.len() as f32;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var.sqrt() - 0.1).abs() < 0.01, "std {}", var.sqrt());
    }

    #[test]
    fn gradient_accumulation_and_clearing() {
        let mut store = ParamStore::new();
        let id = store.register_zeros("b", 1, 3);
        store.accumulate(id, &Matrix::from_vec(1, 3, vec![1.0, 1.0, 1.0]));
        store.accumulate(id, &Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
        assert_eq!(store.grad(id).data, vec![2.0, 3.0, 4.0]);
        store.scale_grads(0.5);
        assert_eq!(store.grad(id).data, vec![1.0, 1.5, 2.0]);
        store.zero_grads();
        assert_eq!(store.grad(id).data, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn accumulate_all_matches_sequential_accumulate_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let big = store.register_normal("big", 300, 70, 1.0, &mut rng);
        let small = store.register_normal("small", 1, 3, 1.0, &mut rng);
        let idle = store.register_zeros("idle", 2, 2);
        let value = |i: usize, j: usize| match (i + j) % 11 {
            3 => 0.0,
            7 => -0.0,
            _ => ((i * 31 + j) as f32 * 0.173).sin() * 10f32.powi(i as i32 - 3),
        };
        // Odd items on `big` are rank-1 parts: their dense form is the
        // 1-row `matmul_tn` gradient they stand for. `big` spans two work
        // items, split mid-row.
        let grads: Vec<(ParamId, Matrix, Option<(Vec<f32>, Vec<f32>)>)> = (0..9)
            .map(|i| {
                let id = if i % 3 == 0 { small } else { big };
                let (r, c) = (store.value(id).rows, store.value(id).cols);
                if id == big && i % 2 == 1 {
                    let x: Vec<f32> = (0..r).map(|j| value(i, j)).collect();
                    let g: Vec<f32> = (0..c).map(|j| value(i + 1, j)).collect();
                    let dense = Matrix::row_vec(x.clone()).matmul_tn(&Matrix::row_vec(g.clone()));
                    (id, dense, Some((x, g)))
                } else {
                    let data = (0..r * c).map(|j| value(i, j)).collect();
                    (id, Matrix::from_vec(r, c, data), None)
                }
            })
            .collect();
        let mut sequential = store.clone();
        for (id, g, _) in &grads {
            sequential.accumulate(*id, g);
        }
        for threads in [1, 4] {
            let mut parallel = store.clone();
            let parts = grads.iter().map(|(id, dense, outer)| match outer {
                Some((x, g)) => (*id, GradPart::Outer { x, g }),
                None => (*id, GradPart::Dense(dense)),
            });
            rsd_par::with_local_pool(threads, || parallel.accumulate_all(parts));
            for id in [big, small, idle] {
                let bits = |s: &ParamStore| -> Vec<u32> {
                    s.grad(id).data.iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(&parallel), bits(&sequential), "{}", store.name(id));
            }
        }
    }

    #[test]
    fn clip_grad_norm_scales_when_needed() {
        let mut store = ParamStore::new();
        let id = store.register_zeros("w", 1, 2);
        store.accumulate(id, &Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        let norm = store.clip_grad_norm(1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        assert!((store.grad(id).frobenius() - 1.0).abs() < 1e-6);
        // Below the threshold: untouched.
        let norm2 = store.clip_grad_norm(10.0);
        assert!((norm2 - 1.0).abs() < 1e-6);
        assert!((store.grad(id).frobenius() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn checkpoint_save_load_round_trip() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let id = store.register_xavier("w", 4, 4, &mut rng);
        store.accumulate(id, &Matrix::full(4, 4, 1.0));
        let path = std::env::temp_dir().join("rsd_nn_ckpt_test.json");
        store.save(&path).unwrap();
        let back = ParamStore::load(&path).unwrap();
        assert_eq!(back.value(id), store.value(id));
        assert_eq!(back.grad(id).frobenius(), 0.0, "grads come back zeroed");
        assert_eq!(back.name(id), "w");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_garbage() {
        let path = std::env::temp_dir().join("rsd_nn_ckpt_bad.json");
        std::fs::write(&path, b"{not json").unwrap();
        assert!(ParamStore::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serde_round_trip() {
        let mut store = ParamStore::new();
        store.register("w", Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let json = serde_json::to_string(&store).unwrap();
        let back: ParamStore = serde_json::from_str(&json).unwrap();
        assert_eq!(back.value(ParamId(0)).data, vec![1.0, 2.0, 3.0, 4.0]);
    }
}
