//! Reusable batch staging shared by every engine's executors.

use hetero_data::{DenseDataset, Labels};
use hetero_nn::{Model, Workspace};
use hetero_tensor::{CsrBatch, CsrMatrix, Matrix};

/// Host staging for one batch: dense rows, or CSR rows on the sparse fast
/// path (`TrainConfig::sparse_input`), plus their labels. Reused across
/// batches, so steady-state staging allocates nothing.
pub(crate) struct Staged {
    pub x: Matrix,
    pub csr: CsrBatch,
    pub labels: Labels,
    sparse: bool,
}

impl Staged {
    pub fn new() -> Self {
        Staged {
            x: Matrix::zeros(0, 0),
            csr: CsrBatch::new(),
            labels: Labels::Classes(Vec::new()),
            sparse: false,
        }
    }

    /// Copy rows `s..e` of `dataset` in. `csr` is the run's CSR copy of the
    /// feature matrix on sparse runs — slicing it is O(nnz), where
    /// rescanning the dense matrix would cost O(batch × features) — and
    /// `None` on dense runs.
    pub fn stage(&mut self, dataset: &DenseDataset, csr: Option<&CsrMatrix>, s: usize, e: usize) {
        match csr {
            Some(src) => {
                dataset.labels.slice_into(s, e, &mut self.labels);
                src.slice_rows_into(s, e, &mut self.csr);
            }
            None => dataset.batch_into(s, e, &mut self.x, &mut self.labels),
        }
        self.sparse = csr.is_some();
    }

    /// Loss and gradient of `model` on the staged batch, into `ws`. The
    /// sparse kernels produce the globally exact gradient (true zeros at
    /// untouched layer-0 columns), so callers treat both paths alike.
    pub fn gradient(&self, ws: &mut Workspace, model: &Model, parallel: bool) {
        let targets = self.labels.as_targets();
        if self.sparse {
            ws.loss_and_gradient_sparse_into(model, self.csr.view(), targets, parallel);
        } else {
            ws.loss_and_gradient_into(model, &self.x, targets, parallel);
        }
    }
}
