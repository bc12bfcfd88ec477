//! Dense MLP parameters.

use hetero_tensor::{ops, Matrix};
use serde::{Deserialize, Serialize};

use crate::init::InitScheme;
use crate::spec::MlpSpec;

/// One fully-connected layer: row-major weights `w[out][in]` plus a bias
/// vector of length `out`.
///
/// Storing `W` as `out×in` makes the forward product `A·Wᵀ` an NT GEMM
/// (contiguous dot products) and the backprop product `δ·W` an NN GEMM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Layer {
    /// Weight matrix, shape `(out, in)`.
    pub w: Matrix,
    /// Bias vector, length `out`.
    pub b: Vec<f32>,
}

/// A complete MLP parameter set — the paper's model `W = {W¹, …, Wᴾ}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Model {
    spec: MlpSpec,
    layers: Vec<Layer>,
}

impl Model {
    /// Allocate and initialize a model for `spec`.
    ///
    /// Each layer gets an independent deterministic stream derived from
    /// `seed`, so models are reproducible across runs and across replica
    /// deep-copies.
    pub fn new(spec: MlpSpec, scheme: InitScheme, seed: u64) -> Self {
        spec.validate().expect("invalid MlpSpec");
        let layers = spec
            .layer_dims()
            .iter()
            .enumerate()
            .map(|(l, &(fan_in, fan_out))| {
                let mut w = Matrix::zeros(fan_out, fan_in);
                scheme.fill(
                    fan_in,
                    fan_out,
                    seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(l as u64 + 1)),
                    w.as_mut_slice(),
                );
                Layer {
                    w,
                    b: vec![0.0; fan_out],
                }
            })
            .collect();
        Model { spec, layers }
    }

    /// Zero-valued model with the same shape (used for gradients/accumulators).
    pub fn zeros_like(spec: &MlpSpec) -> Self {
        let layers = spec
            .layer_dims()
            .iter()
            .map(|&(fan_in, fan_out)| Layer {
                w: Matrix::zeros(fan_out, fan_in),
                b: vec![0.0; fan_out],
            })
            .collect();
        Model {
            spec: spec.clone(),
            layers,
        }
    }

    /// The network specification.
    pub fn spec(&self) -> &MlpSpec {
        &self.spec
    }

    /// Layers in forward order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to layers (the SGD update path).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.spec.num_params()
    }

    /// Serialize all parameters into one flat vector
    /// (layer order: `w₀, b₀, w₁, b₁, …`) — the layout [`crate::SharedModel`]
    /// stores atomically.
    pub fn flatten(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for layer in &self.layers {
            out.extend_from_slice(layer.w.as_slice());
            out.extend_from_slice(&layer.b);
        }
        out
    }

    /// Rebuild a model from a flat parameter vector (inverse of [`flatten`]).
    ///
    /// # Panics
    /// Panics if `params.len() != spec.num_params()`.
    ///
    /// [`flatten`]: Model::flatten
    pub fn unflatten(spec: &MlpSpec, params: &[f32]) -> Self {
        assert_eq!(params.len(), spec.num_params(), "flat parameter length");
        let mut model = Model::zeros_like(spec);
        let mut off = 0;
        for layer in &mut model.layers {
            let wlen = layer.w.len();
            layer
                .w
                .as_mut_slice()
                .copy_from_slice(&params[off..off + wlen]);
            off += wlen;
            let blen = layer.b.len();
            layer.b.copy_from_slice(&params[off..off + blen]);
            off += blen;
        }
        model
    }

    /// Overwrite this model's parameters from another model of the same
    /// spec, reusing all existing buffers (no allocation).
    pub fn copy_from(&mut self, other: &Model) {
        assert_eq!(self.spec, other.spec, "copy_from spec mismatch");
        for (layer, o) in self.layers.iter_mut().zip(&other.layers) {
            layer.w.as_mut_slice().copy_from_slice(o.w.as_slice());
            layer.b.copy_from_slice(&o.b);
        }
    }

    /// In-place SGD update: `self ← self - eta · grad`.
    pub fn apply_gradient(&mut self, grad: &Model, eta: f32) {
        assert_eq!(self.spec, grad.spec, "gradient for a different spec");
        for (layer, g) in self.layers.iter_mut().zip(&grad.layers) {
            ops::axpy(-eta, g.w.as_slice(), layer.w.as_mut_slice());
            ops::axpy(-eta, &g.b, &mut layer.b);
        }
    }

    /// In-place SGD update restricted to the sparse layer-0 support:
    /// touches only the layer-0 weight columns listed in `l0_cols`, plus
    /// every bias and all later layers in full.
    ///
    /// Equivalent to [`Model::apply_gradient`] whenever the layer-0 weight
    /// gradient is exactly zero outside `l0_cols` — which the sparse
    /// backward pass guarantees (a batch column with no stored entry
    /// contributes nothing to `∇W₁ = δᵀ·X`). Cost drops from
    /// `O(out·in)` to `O(out·|l0_cols|)` on the first layer. `l0_cols` is
    /// strictly ascending, as
    /// [`Workspace::sparse_active_cols`](crate::Workspace::sparse_active_cols)
    /// yields it, so each weight row is walked left to right.
    pub fn apply_gradient_sparse(&mut self, grad: &Model, eta: f32, l0_cols: &[u32]) {
        assert_eq!(self.spec, grad.spec, "gradient for a different spec");
        {
            let layer = &mut self.layers[0];
            let g = &grad.layers[0];
            let in0 = layer.w.cols().max(1);
            let ws = layer.w.as_mut_slice();
            let gs = g.w.as_slice();
            for (wr, gr) in ws.chunks_exact_mut(in0).zip(gs.chunks_exact(in0)) {
                for &c in l0_cols {
                    let c = c as usize;
                    wr[c] -= eta * gr[c];
                }
            }
            ops::axpy(-eta, &g.b, &mut layer.b);
        }
        for (layer, g) in self.layers.iter_mut().zip(&grad.layers).skip(1) {
            ops::axpy(-eta, g.w.as_slice(), layer.w.as_mut_slice());
            ops::axpy(-eta, &g.b, &mut layer.b);
        }
    }

    /// `self ← self + alpha · other` (gradient accumulation).
    pub fn scaled_add(&mut self, other: &Model, alpha: f32) {
        assert_eq!(self.spec, other.spec, "shape mismatch");
        for (layer, o) in self.layers.iter_mut().zip(&other.layers) {
            ops::axpy(alpha, o.w.as_slice(), layer.w.as_mut_slice());
            ops::axpy(alpha, &o.b, &mut layer.b);
        }
    }

    /// Scale every parameter (e.g. averaging accumulated gradients).
    pub fn scale(&mut self, alpha: f32) {
        for layer in &mut self.layers {
            ops::scale(alpha, layer.w.as_mut_slice());
            ops::scale(alpha, &mut layer.b);
        }
    }

    /// Scale all parameters so the global L2 norm does not exceed
    /// `max_norm` (gradient clipping). Returns the factor applied (1.0 when
    /// already within the bound).
    pub fn clip_to_norm(&mut self, max_norm: f32) -> f32 {
        assert!(max_norm > 0.0, "max_norm must be positive");
        let norm = self.param_norm();
        if norm <= max_norm || norm == 0.0 {
            return 1.0;
        }
        let factor = max_norm / norm;
        self.scale(factor);
        factor
    }

    /// L2 norm over all parameters.
    pub fn param_norm(&self) -> f32 {
        self.layers
            .iter()
            .map(|l| {
                l.w.as_slice().iter().map(|v| v * v).sum::<f32>()
                    + l.b.iter().map(|v| v * v).sum::<f32>()
            })
            .sum::<f32>()
            .sqrt()
    }

    /// True iff every parameter is finite.
    pub fn all_finite(&self) -> bool {
        self.layers
            .iter()
            .all(|l| l.w.all_finite() && l.b.iter().all(|v| v.is_finite()))
    }

    /// Save the model as JSON (spec + parameters) to `path`.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let json = serde_json::to_string(self).map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Load a model previously written by [`Model::save`].
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Model> {
        let json = std::fs::read_to_string(path)?;
        serde_json::from_str(&json).map_err(std::io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::LossKind;

    fn spec() -> MlpSpec {
        MlpSpec {
            input_dim: 3,
            hidden: vec![4, 5],
            classes: 2,
            activation: crate::Activation::Sigmoid,
            loss: LossKind::SoftmaxCrossEntropy,
        }
    }

    #[test]
    fn new_model_has_spec_shapes() {
        let m = Model::new(spec(), InitScheme::PaperNormal, 0);
        assert_eq!(m.layers().len(), 3);
        assert_eq!(m.layers()[0].w.shape(), (4, 3));
        assert_eq!(m.layers()[1].w.shape(), (5, 4));
        assert_eq!(m.layers()[2].w.shape(), (2, 5));
        assert_eq!(m.layers()[2].b.len(), 2);
        assert!(m.all_finite());
    }

    #[test]
    fn init_deterministic_and_seed_sensitive() {
        let a = Model::new(spec(), InitScheme::PaperNormal, 7);
        let b = Model::new(spec(), InitScheme::PaperNormal, 7);
        let c = Model::new(spec(), InitScheme::PaperNormal, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn layers_have_distinct_weights() {
        // Each layer draws from its own stream — identical dims must not
        // produce identical weights.
        let s = MlpSpec {
            input_dim: 4,
            hidden: vec![4, 4],
            classes: 4,
            activation: crate::Activation::Sigmoid,
            loss: LossKind::SoftmaxCrossEntropy,
        };
        let m = Model::new(s, InitScheme::PaperNormal, 0);
        assert_ne!(m.layers()[0].w, m.layers()[1].w);
    }

    #[test]
    fn flatten_unflatten_roundtrip() {
        let m = Model::new(spec(), InitScheme::Xavier, 3);
        let flat = m.flatten();
        assert_eq!(flat.len(), m.num_params());
        let back = Model::unflatten(m.spec(), &flat);
        assert_eq!(m, back);
    }

    #[test]
    #[should_panic(expected = "flat parameter length")]
    fn unflatten_wrong_len_panics() {
        let s = spec();
        Model::unflatten(&s, &[0.0; 3]);
    }

    #[test]
    fn apply_gradient_moves_parameters() {
        let mut m = Model::new(spec(), InitScheme::Constant(1.0), 0);
        let mut g = Model::zeros_like(m.spec());
        g.layers_mut()[0].w.set(0, 0, 2.0);
        g.layers_mut()[0].b[1] = 4.0;
        m.apply_gradient(&g, 0.5);
        assert_eq!(m.layers()[0].w.get(0, 0), 0.0); // 1 - 0.5*2
        assert_eq!(m.layers()[0].b[1], -2.0);
        assert_eq!(m.layers()[1].w.get(0, 0), 1.0); // untouched
    }

    #[test]
    fn apply_gradient_sparse_matches_dense_on_sparse_support() {
        let mut dense = Model::new(spec(), InitScheme::Xavier, 5);
        let mut sparse = dense.clone();
        // Gradient whose layer-0 weights are non-zero only in columns {0, 2}.
        let mut g = Model::new(spec(), InitScheme::Constant(0.5), 0);
        let in0 = g.layers()[0].w.cols();
        for o in 0..g.layers()[0].w.rows() {
            g.layers_mut()[0].w.set(o, 1, 0.0);
        }
        assert_eq!(in0, 3);
        dense.apply_gradient(&g, 0.3);
        sparse.apply_gradient_sparse(&g, 0.3, &[0, 2]);
        assert_eq!(dense, sparse);
    }

    #[test]
    fn scaled_add_and_scale() {
        let s = spec();
        let mut acc = Model::zeros_like(&s);
        let ones = Model::new(s.clone(), InitScheme::Constant(1.0), 0);
        acc.scaled_add(&ones, 2.0);
        acc.scaled_add(&ones, 1.0);
        acc.scale(1.0 / 3.0);
        // Weights converge to 1.0; biases stay 0 (constant-init biases are 0).
        assert!((acc.layers()[0].w.get(0, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn param_norm_zero_for_zero_model() {
        assert_eq!(Model::zeros_like(&spec()).param_norm(), 0.0);
    }

    #[test]
    fn clip_to_norm_caps_large_gradients() {
        let s = spec();
        let mut g = Model::new(s.clone(), InitScheme::Constant(1.0), 0);
        let norm = g.param_norm();
        assert!(norm > 2.0);
        let f = g.clip_to_norm(2.0);
        assert!((g.param_norm() - 2.0).abs() < 1e-4);
        assert!((f - 2.0 / norm).abs() < 1e-6);
        // Already-small gradients are untouched.
        let before = g.clone();
        assert_eq!(g.clip_to_norm(100.0), 1.0);
        assert_eq!(g, before);
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("hetero_nn_ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        let m = Model::new(spec(), InitScheme::Xavier, 99);
        m.save(&path).unwrap();
        let back = Model::load(&path).unwrap();
        assert_eq!(m, back);
        assert!(Model::load(dir.join("missing.json")).is_err());
    }
}
