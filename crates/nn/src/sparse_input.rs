//! Training with a sparse input layer.
//!
//! For bag-of-words data like real-sim (~0.25% dense) only the **first**
//! layer touches the input, so sparsity pays off exactly twice per step:
//! the first forward product `X·W₁ᵀ` and the first weight gradient
//! `∇W₁ = δ₁ᵀ·X`. Every other layer is dense regardless. This module plugs
//! the CSR kernels of `hetero_tensor::sparse` into those two spots and
//! reuses the dense pipeline everywhere else — making the paper's "process
//! everything dense" decision (§VII-A) measurable rather than assumed.
//!
//! Two API levels:
//!
//! - [`crate::Workspace::forward_sparse_into`] /
//!   [`crate::Workspace::loss_and_gradient_sparse_into`] — the hot path.
//!   All scratch (the transposed weight repack, the transposed gradient
//!   accumulator, the active-column bookkeeping) lives in the workspace and
//!   is sized once, so warm steps are allocation-free.
//! - [`forward_sparse`] / [`loss_and_gradient_sparse`] — thin allocating
//!   wrappers over the workspace variants, for tests and one-off calls.
//!
//! The dense tail (layers 1..) runs the *same* kernel sequence as the dense
//! path, so sparse/dense parity there holds by construction. The layer-0
//! kernels are linear mul+add in scalar element order on both dispatch
//! levels — the only divergence from the dense path is float summation
//! order over the input features.

use hetero_tensor::{gemm, ops, sparse, CsrMatrix, CsrView, Matrix};

use crate::backward::{output_delta_into, Gradient};
use crate::forward::{ForwardPass, Targets};
use crate::model::Model;
use crate::spec::{LossKind, MlpSpec};
use crate::workspace::Workspace;

/// Reusable layer-0 sparse scratch owned by a [`Workspace`].
///
/// Everything here is sized by the model spec alone (never by the batch),
/// so the whole struct is fully allocated at creation and steady-state
/// sparse steps never grow it.
#[derive(Debug)]
pub(crate) struct SparseScratch {
    /// First-layer weights repacked transposed (`in×out₁`) each call so
    /// every CSR entry reads one contiguous row.
    w1t: Matrix,
    /// Transposed first-layer gradient accumulator (`in×out₁`); only rows
    /// in the active set hold meaningful values.
    grad_t: Matrix,
    /// `col_stamp[c] == cur_stamp` marks `c` as already collected into
    /// `active` for the current batch.
    col_stamp: Vec<u64>,
    cur_stamp: u64,
    /// Input columns with at least one stored entry in the current batch,
    /// strictly ascending.
    active: Vec<u32>,
    /// The active set of the previous sparse gradient — the `grad.w[0]`
    /// columns that must be re-zeroed before the next scatter.
    prev_active: Vec<u32>,
    /// Zero all of `grad.w[0]` before the next scatter: set at creation and
    /// whenever a dense backward overwrote the gradient in between.
    full_clear: bool,
}

impl SparseScratch {
    pub(crate) fn new(spec: &MlpSpec) -> Self {
        let (in_dim, out0) = spec.layer_dims()[0];
        SparseScratch {
            w1t: Matrix::zeros(in_dim, out0),
            grad_t: Matrix::zeros(in_dim, out0),
            col_stamp: vec![0; in_dim],
            cur_stamp: 0,
            active: Vec::with_capacity(in_dim),
            prev_active: Vec::with_capacity(in_dim),
            full_clear: true,
        }
    }

    /// Columns touched by the most recent sparse gradient, ascending.
    pub(crate) fn active_cols(&self) -> &[u32] {
        &self.active
    }

    /// A dense backward overwrote the shared gradient buffer: the next
    /// sparse gradient must re-zero all of `grad.w[0]`, not just the
    /// previously-active columns.
    pub(crate) fn note_dense_gradient(&mut self) {
        self.full_clear = true;
    }

    /// Σ of buffer capacities (workspace growth tracking).
    pub(crate) fn capacity_fingerprint(&self) -> usize {
        self.w1t.capacity()
            + self.grad_t.capacity()
            + self.col_stamp.capacity()
            + self.active.capacity()
            + self.prev_active.capacity()
    }
}

/// Core sparse forward pass writing into caller-owned activation buffers —
/// layer 0 via the CSR kernel, layers 1.. via the identical dense sequence
/// as `forward_into_buffers`.
pub(crate) fn forward_sparse_into_buffers(
    model: &Model,
    x: CsrView<'_>,
    parallel: bool,
    activations: &mut Vec<Matrix>,
    scratch: &mut SparseScratch,
) {
    assert_eq!(
        x.cols(),
        model.spec().input_dim,
        "sparse batch width {} != input_dim {}",
        x.cols(),
        model.spec().input_dim
    );
    let batch = x.rows();
    let n_layers = model.layers().len();
    activations.resize_with(n_layers, || Matrix::zeros(0, 0));

    // Layer 0: repack W₁ transposed, then fused bias + per-nnz accumulate.
    // The repack is O(out₁·in) — 1/batch of the dense layer-0 GEMM — and
    // keeps the kernel's inner loop contiguous on both operands.
    let l0 = &model.layers()[0];
    l0.w.transpose_into(&mut scratch.w1t);
    {
        let z = &mut activations[0];
        sparse::spmm_bias_into(x, &scratch.w1t, &l0.b, z);
        if n_layers == 1 {
            apply_output(model, z);
        } else {
            model.spec().activation.apply(z);
        }
    }

    // Dense tail: same kernels, same order as the dense forward.
    for l in 1..n_layers {
        let layer = &model.layers()[l];
        let (head, tail) = activations.split_at_mut(l);
        let z = &mut tail[0];
        z.resize(batch, layer.w.rows());
        let input = &head[l - 1];
        if parallel {
            gemm::par_gemm_nt_bias(1.0, input, &layer.w, &layer.b, z);
        } else {
            gemm::gemm_nt_bias(1.0, input, &layer.w, &layer.b, z);
        }
        if l + 1 == n_layers {
            apply_output(model, z);
        } else {
            model.spec().activation.apply(z);
        }
    }
}

fn apply_output(model: &Model, z: &mut Matrix) {
    match model.spec().loss {
        LossKind::SoftmaxCrossEntropy => ops::softmax_rows(z),
        LossKind::MultiLabelBce => ops::sigmoid_inplace(z),
    }
}

/// Core sparse backward pass writing into caller-owned buffers — the dense
/// tail mirrors `backward_with_scratch` exactly; layer 0 replaces the TN
/// GEMM over `x` with the CSR scatter kernel plus active-column tracking.
#[allow(clippy::too_many_arguments)]
pub(crate) fn backward_sparse_with_scratch(
    model: &Model,
    x: CsrView<'_>,
    pass: &ForwardPass,
    targets: Targets<'_>,
    parallel: bool,
    delta: &mut Matrix,
    delta_next: &mut Matrix,
    grad: &mut Gradient,
    scratch: &mut SparseScratch,
) {
    let n_layers = model.layers().len();
    assert_eq!(pass.activations.len(), n_layers, "stale forward pass");

    // Same ping-pong parity bookkeeping as the dense backward (see the
    // comment in `backward_with_scratch`).
    let mut swapped = false;

    output_delta_into(pass.probs(), targets, model.spec().loss, delta);
    for l in (0..n_layers).rev() {
        if l == 0 {
            ops::col_sum_into(delta, &mut grad.layers_mut()[0].b);
            sparse_weight_gradient(x, delta, grad, scratch);
        } else {
            let input = &pass.activations[l - 1];
            {
                let gw = &mut grad.layers_mut()[l].w;
                if parallel {
                    gemm::par_gemm_tn(1.0, delta, input, 0.0, gw);
                } else {
                    gemm::gemm_tn(1.0, delta, input, 0.0, gw);
                }
            }
            ops::col_sum_into(delta, &mut grad.layers_mut()[l].b);

            let w = &model.layers()[l].w;
            delta_next.resize(delta.rows(), w.cols());
            if parallel {
                gemm::par_gemm_nn(1.0, delta, w, 0.0, delta_next);
            } else {
                gemm::gemm_nn(1.0, delta, w, 0.0, delta_next);
            }
            model
                .spec()
                .activation
                .mul_derivative(&pass.activations[l - 1], delta_next);
            std::mem::swap(delta, delta_next);
            swapped = !swapped;
        }
    }
    if swapped {
        std::mem::swap(delta, delta_next);
    }
}

/// Output rows of `grad.w[0]` written per pass over the active set: 16
/// f32s are one 64-byte line of a `grad_t` row, so each line is read once.
const SCATTER_ROWS: usize = 16;

/// Layer-0 weight gradient `∇W₁ = δᵀ·X` at `O(nnz·out₁)`:
/// accumulate row-contiguously into the transposed scratch, then scatter
/// only the active columns back into `grad.w[0]` — re-zeroing the columns
/// the *previous* call touched so the dense gradient stays globally exact
/// (full-pass consumers like gradient clipping and the watchdog scan read
/// true zeros at inactive columns).
///
/// The scatter walks `grad.w[0]` row-major: a row is `in₀` floats (84 KB
/// on real-sim), so a column-outer walk would miss the cache on every
/// element.
fn sparse_weight_gradient(
    x: CsrView<'_>,
    delta: &Matrix,
    grad: &mut Gradient,
    scratch: &mut SparseScratch,
) {
    // Remember the previous active set (its grad.w[0] columns hold stale
    // values), stamp this batch's columns, then collect them by sweeping
    // the stamps in column order so the set comes out ascending.
    scratch.prev_active.clear();
    let (prev, active) = (&mut scratch.prev_active, &mut scratch.active);
    prev.extend_from_slice(active);
    active.clear();
    scratch.cur_stamp += 1;
    let cur = scratch.cur_stamp;
    for &c in x.indices() {
        scratch.col_stamp[c as usize] = cur;
    }
    for (c, &stamp) in scratch.col_stamp.iter().enumerate() {
        if stamp == cur {
            active.push(c as u32);
        }
    }

    // Zero exactly the accumulator rows this batch will touch, accumulate,
    // and write back.
    for &c in scratch.active.iter() {
        scratch.grad_t.row_mut(c as usize).fill(0.0);
    }
    sparse::spmm_tn_scatter(x, delta, &mut scratch.grad_t);

    let gw = &mut grad.layers_mut()[0].w;
    let (out0, in0) = gw.shape();
    if scratch.full_clear {
        gw.fill_zero();
        scratch.full_clear = false;
    }
    // Both column sets are ascending: one merge walk per row block zeroes
    // the stale columns and writes the fresh ones.
    let (prev, active, gt) = (&scratch.prev_active, &scratch.active, &scratch.grad_t);
    let gws = gw.as_mut_slice();
    for o0 in (0..out0).step_by(SCATTER_ROWS) {
        let o1 = (o0 + SCATTER_ROWS).min(out0);
        let mut stale = prev.iter().map(|&c| c as usize).peekable();
        for &c in active {
            let c = c as usize;
            while let Some(s) = stale.next_if(|&s| s <= c) {
                if s < c {
                    (o0..o1).for_each(|o| gws[o * in0 + s] = 0.0);
                }
            }
            for (o, &v) in (o0..o1).zip(&gt.row(c)[o0..o1]) {
                gws[o * in0 + c] = v;
            }
        }
        for s in stale {
            (o0..o1).for_each(|o| gws[o * in0 + s] = 0.0);
        }
    }
}

/// Forward pass with a sparse batch (first layer sparse, rest dense).
///
/// Thin allocating wrapper over
/// [`Workspace::forward_sparse_into`](crate::Workspace::forward_sparse_into);
/// steady-state loops use the workspace variant directly.
pub fn forward_sparse(model: &Model, x: &CsrMatrix, parallel: bool) -> ForwardPass {
    let mut ws = Workspace::new(model.spec());
    ws.forward_sparse_into(model, x.view(), parallel).clone()
}

/// Loss + exact gradient for a sparse batch.
///
/// Produces the same gradient as densifying `x` and calling
/// [`crate::loss_and_gradient`], at `O(nnz)` cost in the input layer. Thin
/// allocating wrapper over
/// [`Workspace::loss_and_gradient_sparse_into`](crate::Workspace::loss_and_gradient_sparse_into).
pub fn loss_and_gradient_sparse(
    model: &Model,
    x: &CsrMatrix,
    targets: Targets<'_>,
    parallel: bool,
) -> (f32, Gradient) {
    let mut ws = Workspace::new(model.spec());
    let (l, g) = ws.loss_and_gradient_sparse_into(model, x.view(), targets, parallel);
    (l, g.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backward::loss_and_gradient;
    use crate::init::InitScheme;
    use crate::spec::MlpSpec;

    fn sparse_batch(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if state.is_multiple_of(5) {
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn sparse_forward_matches_dense() {
        let spec = MlpSpec::tiny(12, 3);
        let model = Model::new(spec, InitScheme::Xavier, 8);
        let dense = sparse_batch(7, 12, 3);
        let csr = CsrMatrix::from_dense(&dense, 0.0);
        let a = crate::forward(&model, &dense, false);
        let b = forward_sparse(&model, &csr, false);
        assert!(a.probs().approx_eq(b.probs(), 1e-5));
    }

    #[test]
    fn sparse_gradient_matches_dense() {
        let spec = MlpSpec::tiny(10, 2);
        let model = Model::new(spec, InitScheme::Xavier, 4);
        let dense = sparse_batch(6, 10, 9);
        let csr = CsrMatrix::from_dense(&dense, 0.0);
        let labels: Vec<u32> = (0..6).map(|i| (i % 2) as u32).collect();
        let (l1, g1) = loss_and_gradient(&model, &dense, Targets::Classes(&labels), false);
        let (l2, g2) = loss_and_gradient_sparse(&model, &csr, Targets::Classes(&labels), false);
        assert!((l1 - l2).abs() < 1e-5, "{l1} vs {l2}");
        for (a, b) in g1.flatten().iter().zip(g2.flatten().iter()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn sparse_training_reduces_loss() {
        let spec = MlpSpec::tiny(10, 2);
        let mut model = Model::new(spec, InitScheme::Xavier, 1);
        let dense = sparse_batch(40, 10, 17);
        let csr = CsrMatrix::from_dense(&dense, 0.0);
        let labels: Vec<u32> = (0..40)
            .map(|i| if dense.row(i)[0] > 0.0 { 1 } else { 0 })
            .collect();
        let (first, _) = loss_and_gradient_sparse(&model, &csr, Targets::Classes(&labels), false);
        let mut last = first;
        for _ in 0..60 {
            let (l, g) = loss_and_gradient_sparse(&model, &csr, Targets::Classes(&labels), false);
            model.apply_gradient(&g, 0.8);
            last = l;
        }
        assert!(last < first, "{first} -> {last}");
    }

    #[test]
    fn single_layer_network_sparse() {
        // No hidden layers: the sparse path must handle the output layer
        // being the first layer.
        let spec = MlpSpec {
            input_dim: 8,
            hidden: vec![],
            classes: 3,
            activation: crate::Activation::Sigmoid,
            loss: LossKind::SoftmaxCrossEntropy,
        };
        let model = Model::new(spec, InitScheme::Xavier, 2);
        let dense = sparse_batch(5, 8, 21);
        let csr = CsrMatrix::from_dense(&dense, 0.0);
        let labels = vec![0u32, 1, 2, 0, 1];
        let (l1, g1) = loss_and_gradient(&model, &dense, Targets::Classes(&labels), false);
        let (l2, g2) = loss_and_gradient_sparse(&model, &csr, Targets::Classes(&labels), false);
        assert!((l1 - l2).abs() < 1e-5);
        for (a, b) in g1.flatten().iter().zip(g2.flatten().iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    /// Successive sparse batches with *different* active sets must each
    /// produce the exact gradient a fresh workspace would: the scatter
    /// re-zeroes the previously-active columns, so no stale values leak.
    #[test]
    fn reused_workspace_rezeroes_previous_active_columns() {
        let spec = MlpSpec::tiny(16, 2);
        let model = Model::new(spec.clone(), InitScheme::Xavier, 6);
        let a = sparse_batch(5, 16, 31);
        let b = sparse_batch(5, 16, 77);
        let labels: Vec<u32> = (0..5).map(|i| (i % 2) as u32).collect();
        let mut ws = Workspace::new(&spec);
        for batch in [&a, &b, &a] {
            let csr = CsrMatrix::from_dense(batch, 0.0);
            let (l, g) = ws.loss_and_gradient_sparse_into(
                &model,
                csr.view(),
                Targets::Classes(&labels),
                false,
            );
            let (l_ref, g_ref) =
                loss_and_gradient_sparse(&model, &csr, Targets::Classes(&labels), false);
            assert_eq!(l.to_bits(), l_ref.to_bits());
            for (x, y) in g.flatten().iter().zip(g_ref.flatten().iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
            }
        }
    }

    /// Interleaving dense and sparse gradients on one workspace must not
    /// leak stale dense values into the sparse layer-0 gradient.
    #[test]
    fn dense_then_sparse_on_one_workspace_is_exact() {
        let spec = MlpSpec::tiny(12, 2);
        let model = Model::new(spec.clone(), InitScheme::Xavier, 9);
        let dense = Matrix::from_fn(6, 12, |i, j| ((i * 12 + j) as f32 * 0.21).sin());
        let sparse_x = sparse_batch(6, 12, 41);
        let csr = CsrMatrix::from_dense(&sparse_x, 0.0);
        let labels: Vec<u32> = (0..6).map(|i| (i % 2) as u32).collect();
        let mut ws = Workspace::new(&spec);
        // Sparse first (primes the active set), then dense (fills grad.w[0]
        // densely), then sparse again — the last call must fully re-zero.
        ws.loss_and_gradient_sparse_into(&model, csr.view(), Targets::Classes(&labels), false);
        ws.loss_and_gradient_into(&model, &dense, Targets::Classes(&labels), false);
        let (_, g) =
            ws.loss_and_gradient_sparse_into(&model, csr.view(), Targets::Classes(&labels), false);
        let (_, g_ref) = loss_and_gradient_sparse(&model, &csr, Targets::Classes(&labels), false);
        for (x, y) in g.flatten().iter().zip(g_ref.flatten().iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn active_cols_reflect_batch_support() {
        let spec = MlpSpec::tiny(8, 2);
        let model = Model::new(spec.clone(), InitScheme::Xavier, 3);
        let mut dense = Matrix::zeros(4, 8);
        dense.set(0, 1, 1.0);
        dense.set(2, 5, -2.0);
        dense.set(3, 1, 0.5);
        let csr = CsrMatrix::from_dense(&dense, 0.0);
        let labels = vec![0u32, 1, 0, 1];
        let mut ws = Workspace::new(&spec);
        ws.loss_and_gradient_sparse_into(&model, csr.view(), Targets::Classes(&labels), false);
        // Ascending by construction, not merely as a set.
        assert_eq!(ws.sparse_active_cols(), &[1, 5]);
    }

    #[test]
    #[should_panic(expected = "input_dim")]
    fn wrong_width_panics() {
        let spec = MlpSpec::tiny(10, 2);
        let model = Model::new(spec, InitScheme::Xavier, 1);
        let csr = CsrMatrix::from_dense(&Matrix::zeros(2, 7), 0.0);
        forward_sparse(&model, &csr, false);
    }
}
