//! Property tests pinning the sparse fast path to the dense semantics.
//!
//! Every property runs under *both* forced SIMD dispatch levels via
//! [`simd::with_level`] — on hosts without AVX2 the forced-Avx2 run clamps
//! to scalar and the property degenerates to scalar==scalar, so the suite
//! is portable and only *bites* on x86-64.
//!
//! The sparse path is exact on the dense tail by construction (it runs the
//! same GEMMs); what these properties pin is the layer-0 CSR kernels:
//! forward activations and the full gradient must match the dense path
//! within accumulation-order tolerance over random densities and shapes,
//! including fully-empty batches and rows. The column-restricted layer-0
//! walks (apply, racy apply, sampled racy apply, scanned merge) visit the
//! dense walks' elements in the dense order, so they must match their
//! dense counterparts bit for bit.

// The loom build swaps SharedModel's atomics for model-checked versions
// that require a loom context; these std tests are compiled out there.
#![cfg(not(feature = "loom"))]

use hetero_nn::{
    forward, forward_sparse, loss_and_gradient, loss_and_gradient_sparse, Activation, InitScheme,
    LossKind, MergeScan, MlpSpec, Model, SharedModel, Targets, Workspace,
};
use hetero_tensor::simd::{self, SimdLevel};
use hetero_tensor::{CsrMatrix, Matrix};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = MlpSpec> {
    (
        1usize..48,
        prop::collection::vec(1usize..12, 0..3),
        2usize..5,
    )
        .prop_map(|(input, hidden, classes)| MlpSpec {
            input_dim: input,
            hidden,
            classes,
            activation: Activation::Sigmoid,
            loss: LossKind::SoftmaxCrossEntropy,
        })
}

/// Deterministic uniform stream in `[0, 1)`.
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    }
}

/// A batch whose entries are nonzero with probability `density` — so 0.0
/// yields an all-zero batch and high seeds still produce empty rows.
fn sparse_batch(rows: usize, cols: usize, density: f64, seed: u64) -> (Matrix, Vec<u32>) {
    let mut next = lcg(seed);
    let x = Matrix::from_fn(rows, cols, |_, _| {
        let gate = next();
        let v = next() - 0.5;
        if gate < density {
            v as f32
        } else {
            0.0
        }
    });
    let y = (0..rows).map(|i| (i % 2) as u32).collect();
    (x, y)
}

/// An ascending, deduplicated subset of `0..n`, each column kept with
/// probability `density`.
fn col_set(n: usize, density: f64, seed: u64) -> Vec<u32> {
    let mut next = lcg(seed);
    (0..n as u32).filter(|_| next() < density).collect()
}

/// A gradient-shaped model whose layer-0 weights are nonzero only at
/// `cols` and whose every other parameter is random.
fn col_sparse_grad(spec: &MlpSpec, cols: &[u32], seed: u64) -> Model {
    let mut next = lcg(seed);
    let mut g = Model::zeros_like(spec);
    for (l, layer) in g.layers_mut().iter_mut().enumerate() {
        let in_dim = layer.w.cols();
        for (i, w) in layer.w.as_mut_slice().iter_mut().enumerate() {
            if l > 0 || cols.binary_search(&((i % in_dim) as u32)).is_ok() {
                *w = (next() - 0.5) as f32;
            }
        }
        layer.b.iter_mut().for_each(|b| *b = (next() - 0.5) as f32);
    }
    g
}

fn bits(m: &Model) -> Vec<u32> {
    m.flatten().iter().map(|v| v.to_bits()).collect()
}

fn shared_bits(s: &SharedModel) -> Vec<u32> {
    s.read_flat().iter().map(|v| v.to_bits()).collect()
}

fn rel_close(a: f32, b: f32, tol: f32) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sparse forward activations match the dense forward within 1e-5
    /// under both dispatch levels.
    #[test]
    fn sparse_forward_matches_dense_both_levels(
        spec in arb_spec(),
        rows in 1usize..9,
        density in 0.0f64..0.6,
        seed in any::<u64>(),
    ) {
        let model = Model::new(spec.clone(), InitScheme::Xavier, seed);
        let (x, _) = sparse_batch(rows, spec.input_dim, density, seed);
        let csr = CsrMatrix::from_dense(&x, 0.0);
        let dense = forward(&model, &x, false);
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            let sparse = simd::with_level(level, || forward_sparse(&model, &csr, false));
            prop_assert_eq!(dense.probs().shape(), sparse.probs().shape());
            for (d, s) in dense.probs().as_slice().iter().zip(sparse.probs().as_slice()) {
                prop_assert!(rel_close(*d, *s, 1e-5), "{level:?}: {d} vs {s}");
            }
        }
    }

    /// Sparse loss and full gradient (∇W₁ included) match the dense path
    /// within 1e-5 under both dispatch levels.
    #[test]
    fn sparse_gradient_matches_dense_both_levels(
        spec in arb_spec(),
        rows in 1usize..9,
        density in 0.0f64..0.6,
        seed in any::<u64>(),
    ) {
        let model = Model::new(spec.clone(), InitScheme::Xavier, seed);
        let (x, y) = sparse_batch(rows, spec.input_dim, density, seed);
        let csr = CsrMatrix::from_dense(&x, 0.0);
        let (dl, dg) = loss_and_gradient(&model, &x, Targets::Classes(&y), false);
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            let (sl, sg) = simd::with_level(level, || {
                loss_and_gradient_sparse(&model, &csr, Targets::Classes(&y), false)
            });
            prop_assert!(rel_close(dl, sl, 1e-5), "{level:?}: loss {dl} vs {sl}");
            for (d, s) in dg.flatten().iter().zip(sg.flatten().iter()) {
                prop_assert!(rel_close(*d, *s, 1e-5), "{level:?}: grad {d} vs {s}");
            }
        }
    }

    /// The layer-0 gradient is exactly zero at every column the batch never
    /// touches — the contract the row-sparse apply/merge paths rely on.
    #[test]
    fn untouched_columns_have_exactly_zero_gradient(
        spec in arb_spec(),
        rows in 1usize..9,
        density in 0.0f64..0.3,
        seed in any::<u64>(),
    ) {
        let model = Model::new(spec.clone(), InitScheme::Xavier, seed);
        let (x, y) = sparse_batch(rows, spec.input_dim, density, seed);
        let csr = CsrMatrix::from_dense(&x, 0.0);
        let (_, sg) = loss_and_gradient_sparse(&model, &csr, Targets::Classes(&y), false);
        let gw0 = &sg.layers()[0].w;
        let (out0, in0) = gw0.shape();
        for c in 0..in0 {
            let touched = (0..rows).any(|r| x.get(r, c) != 0.0);
            if !touched {
                for o in 0..out0 {
                    prop_assert_eq!(gw0.get(o, c), 0.0, "col {} row {}", c, o);
                }
            }
        }
    }

    /// `sparse_active_cols()` is strictly ascending and is exactly the
    /// batch's column support — also on a reused workspace whose previous
    /// batch had a different support.
    #[test]
    fn active_cols_are_ascending_batch_support(
        spec in arb_spec(),
        rows in 1usize..9,
        density in 0.0f64..0.4,
        seeds in (any::<u64>(), any::<u64>()),
    ) {
        let model = Model::new(spec.clone(), InitScheme::Xavier, seeds.0);
        let mut ws = Workspace::new(&spec);
        for seed in [seeds.0, seeds.1] {
            let (x, y) = sparse_batch(rows, spec.input_dim, density, seed);
            let csr = CsrMatrix::from_dense(&x, 0.0);
            ws.loss_and_gradient_sparse_into(&model, csr.view(), Targets::Classes(&y), false);
            let support: Vec<u32> = (0..spec.input_dim)
                .filter(|&c| (0..rows).any(|r| x.get(r, c) != 0.0))
                .map(|c| c as u32)
                .collect();
            let active = ws.sparse_active_cols();
            prop_assert!(active.windows(2).all(|w| w[0] < w[1]), "not ascending: {active:?}");
            prop_assert_eq!(active, &support[..]);
        }
    }

    /// Each column-restricted layer-0 walk matches its dense counterpart
    /// bit for bit on a gradient supported on the column set: parameters,
    /// the merge's fused scan (`sumsq` bits and non-finite counts), and
    /// the sampled path's conflict probes.
    #[test]
    fn column_walks_match_dense_bit_for_bit(
        spec in arb_spec(),
        density in 0.0f64..1.0,
        seed in any::<u64>(),
        eta in 0.01f32..1.0,
        scale in 0.0f32..1.5,
        poison in any::<bool>(),
    ) {
        let cols = col_set(spec.input_dim, density, seed);
        let model = Model::new(spec.clone(), InitScheme::Xavier, seed);
        let mut grad = col_sparse_grad(&spec, &cols, seed ^ 0x5eed);
        if poison {
            // A non-finite entry inside the support reaches both scans.
            if let Some(&c) = cols.first() {
                grad.layers_mut()[0].w.set(0, c as usize, f32::INFINITY);
            }
        }
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            simd::with_level(level, || -> Result<(), TestCaseError> {
                // Local replica apply.
                let (mut dense, mut sparse) = (model.clone(), model.clone());
                dense.apply_gradient(&grad, eta);
                sparse.apply_gradient_sparse(&grad, eta, &cols);
                prop_assert_eq!(bits(&dense), bits(&sparse), "{:?}: replica apply", level);

                // Hogwild racy apply.
                let (a, b) = (SharedModel::new(&model), SharedModel::new(&model));
                a.apply_gradient_racy(&grad, eta);
                b.apply_gradient_racy_cols(&grad, eta, &cols);
                prop_assert_eq!(shared_bits(&a), shared_bits(&b), "{:?}: racy apply", level);

                // Sampled racy apply: same parameters, and the probes are
                // the dense path's minus those at skipped layer-0 columns.
                let (a, b) = (SharedModel::new(&model), SharedModel::new(&model));
                a.apply_gradient_racy_sampled(&grad, eta);
                b.apply_gradient_racy_sampled_cols(&grad, eta, &cols);
                prop_assert_eq!(shared_bits(&a), shared_bits(&b), "{:?}: sampled apply", level);
                let in0 = spec.input_dim;
                let skipped_probes = (0..spec.layer_dims()[0].1 * in0)
                    .filter(|i| i % 16 == 0 && cols.binary_search(&((i % in0) as u32)).is_err())
                    .count() as u64;
                let (dense_samples, dense_losses) = a.conflict_counts();
                prop_assert_eq!(b.conflict_counts(), (dense_samples - skipped_probes, dense_losses));
                prop_assert_eq!(dense_losses, 0);

                // CAS merge of a replica trained on the column set.
                let (a, b) = (SharedModel::new(&model), SharedModel::new(&model));
                let (mut scan_a, mut scan_b) =
                    (MergeScan::for_model(&model), MergeScan::for_model(&model));
                a.merge_delta_scaled_scanned(&model, &sparse, scale, &mut scan_a);
                b.merge_delta_sparse_scanned(&model, &sparse, scale, &cols, &mut scan_b);
                prop_assert_eq!(shared_bits(&a), shared_bits(&b), "{:?}: merge", level);
                for (la, lb) in scan_a.layers().iter().zip(scan_b.layers()) {
                    prop_assert_eq!(la.sumsq.to_bits(), lb.sumsq.to_bits());
                    prop_assert_eq!(la.nonfinite, lb.nonfinite);
                }
                Ok(())
            })?;
        }
    }
}
