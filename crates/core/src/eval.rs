//! Shared evaluation-set helpers.
//!
//! The simulator and the threaded engine evaluate the loss curve on the
//! *same* seeded random subsample at every eval point: a fixed prefix
//! would bias the curve toward whatever ordering the dataset shipped
//! with, and re-drawing per eval point would add noise between points.
//! The parameter server keeps its historical fixed prefix, so its curves
//! stay comparable across versions.

use hetero_data::{DenseDataset, Labels};
use hetero_nn::Model;
use hetero_tensor::{CsrMatrix, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The fixed batch every eval point of a run is measured on.
pub(crate) struct EvalSet {
    x: EvalRows,
    labels: Labels,
}

/// Eval features: dense, or CSR on sparse runs — a dense forward over a
/// wide sparse batch would cost more than the training steps it measures.
enum EvalRows {
    Dense(Matrix),
    Sparse(CsrMatrix),
}

impl EvalSet {
    /// `k` seeded random rows. Passing the run's CSR copy of the features
    /// (sparse runs) gathers the rows from it in O(nnz) and evaluates
    /// through the CSR kernels.
    pub fn subset(dataset: &DenseDataset, k: usize, seed: u64, csr: Option<&CsrMatrix>) -> Self {
        let rows = eval_subset(dataset.len(), k, seed);
        let x = match csr {
            Some(csr) => EvalRows::Sparse(CsrMatrix::from_row_entries(
                csr.cols(),
                rows.iter()
                    .map(|&r| csr.row_iter(r).map(|(c, v)| (c as u32, v))),
            )),
            None => EvalRows::Dense(gather_rows(&dataset.x, &rows)),
        };
        EvalSet {
            x,
            labels: gather_labels(&dataset.labels, &rows),
        }
    }

    /// The first `k` rows, dense.
    pub fn prefix(dataset: &DenseDataset, k: usize) -> Self {
        let (x, labels) = dataset.batch(0, k.min(dataset.len()));
        EvalSet {
            x: EvalRows::Dense(x),
            labels,
        }
    }

    /// Rows in the set.
    pub fn rows(&self) -> usize {
        match &self.x {
            EvalRows::Dense(x) => x.rows(),
            EvalRows::Sparse(x) => x.rows(),
        }
    }

    /// `(loss, accuracy)` of `model` on the set.
    pub fn measure(&self, model: &Model) -> (f32, f32) {
        let pass = match &self.x {
            EvalRows::Dense(x) => hetero_nn::forward(model, x, true),
            EvalRows::Sparse(x) => hetero_nn::forward_sparse(model, x, true),
        };
        let targets = self.labels.as_targets();
        (
            hetero_nn::loss(pass.probs(), targets, model.spec().loss),
            hetero_nn::accuracy(pass.probs(), targets),
        )
    }
}

/// Deterministic evaluation subset: `k` rows sampled without replacement.
pub(crate) fn eval_subset(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let k = k.min(n);
    let mut rows: Vec<usize> = (0..n).collect();
    rows.shuffle(&mut StdRng::seed_from_u64(seed ^ 0xe7a1));
    rows.truncate(k);
    rows.sort_unstable();
    rows
}

/// Gather scattered rows of a dense matrix.
fn gather_rows(x: &Matrix, rows: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(rows.len(), x.cols());
    for (i, &r) in rows.iter().enumerate() {
        out.row_mut(i).copy_from_slice(x.row(r));
    }
    out
}

/// Gather the labels of scattered rows.
fn gather_labels(labels: &Labels, rows: &[usize]) -> Labels {
    match labels {
        Labels::Classes(v) => Labels::Classes(rows.iter().map(|&r| v[r]).collect()),
        Labels::MultiHot(m) => Labels::MultiHot(gather_rows(m, rows)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_data::SynthConfig;

    #[test]
    fn subset_is_deterministic_and_sorted() {
        let a = eval_subset(100, 10, 7);
        let b = eval_subset(100, 10, 7);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(a.len(), 10);
        assert!(a.iter().all(|&r| r < 100));
    }

    #[test]
    fn subset_is_not_a_prefix() {
        // The whole point: a seeded shuffle, not `0..k`.
        let rows = eval_subset(10_000, 64, 3);
        assert_ne!(rows, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn subset_caps_at_dataset_len() {
        let rows = eval_subset(5, 64, 0);
        assert_eq!(rows, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn gather_matches_source_rows() {
        let d = SynthConfig::small(50, 6, 2, 3).generate();
        let rows = eval_subset(d.len(), 8, 11);
        let x = gather_rows(&d.x, &rows);
        let labels = gather_labels(&d.labels, &rows);
        assert_eq!(x.rows(), 8);
        for (i, &r) in rows.iter().enumerate() {
            assert_eq!(x.row(i), d.x.row(r));
        }
        match (&labels, &d.labels) {
            (Labels::Classes(got), Labels::Classes(src)) => {
                for (i, &r) in rows.iter().enumerate() {
                    assert_eq!(got[i], src[r]);
                }
            }
            _ => panic!("synthetic dataset should be class-labelled"),
        }
    }

    /// The sparse subset gathered from the run's CSR copy is the set the
    /// dense gather + compress used to build: same rows, same CSR, and
    /// bit-identical measurements.
    #[test]
    fn csr_subset_matches_dense_gather_then_compress() {
        let d = hetero_data::PaperDataset::RealSim.generate(0.01, 5);
        let csr_all = d.to_csr();
        let model = Model::new(
            hetero_nn::MlpSpec::tiny(d.features(), d.num_classes()),
            hetero_nn::InitScheme::Xavier,
            13,
        );
        let (k, seed) = (64, 21);
        let new = EvalSet::subset(&d, k, seed, Some(&csr_all));
        let rows = eval_subset(d.len(), k, seed);
        let old = EvalSet {
            x: EvalRows::Sparse(CsrMatrix::from_dense(&gather_rows(&d.x, &rows), 0.0)),
            labels: gather_labels(&d.labels, &rows),
        };
        assert_eq!(new.rows(), old.rows());
        match (&new.x, &old.x) {
            (EvalRows::Sparse(a), EvalRows::Sparse(b)) => assert_eq!(a, b),
            _ => panic!("both sets should be sparse"),
        }
        let ((l1, a1), (l2, a2)) = (new.measure(&model), old.measure(&model));
        assert_eq!(l1.to_bits(), l2.to_bits());
        assert_eq!(a1.to_bits(), a2.to_bits());
    }
}
