//! Measured (not asserted-by-inspection) allocation-freedom of a warm
//! sparse training step: CSR batch staging, the sparse loss+gradient
//! pass, the column-restricted racy apply, and the row-sparse scanned
//! merge must never touch the heap once buffers are warmed — they run
//! per batch inside every engine's hot loop.
//!
//! Lives in its own integration-test binary because `#[global_allocator]`
//! is process-wide: mixing a counting allocator into the unit-test binary
//! would perturb every other test's numbers.

use hetero_bench::alloc_count::CountingAlloc;
use hetero_data::PaperDataset;
use hetero_nn::{InitScheme, MergeScan, MlpSpec, Model, SharedModel, Workspace};
use hetero_tensor::{CsrBatch, CsrMatrix};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Allocations observed while running `f` after one warmup call.
fn allocs_in(mut f: impl FnMut()) -> u64 {
    f(); // warm: sparse scratch, CSR capacity, first-touch paths
    let before = ALLOC.thread_allocations();
    f();
    ALLOC.thread_allocations() - before
}

fn sparse_fixture() -> (hetero_data::DenseDataset, CsrMatrix, MlpSpec) {
    let data = PaperDataset::RealSim.generate(0.01, 42);
    // Engines compress the feature matrix once per run and slice batches
    // from the CSR copy; the step under test mirrors that staging.
    let csr_all = data.to_csr();
    let spec = MlpSpec::tiny(data.features(), data.num_classes());
    (data, csr_all, spec)
}

#[test]
fn warm_cpu_sparse_step_is_allocation_free() {
    let (data, csr_all, spec) = sparse_fixture();
    let model = Model::new(spec.clone(), InitScheme::Xavier, 7);
    let shared = SharedModel::new(&model);
    let mut local = Model::zeros_like(&spec);
    let mut ws = Workspace::new(&spec);
    let mut csr = CsrBatch::new();
    let mut labels = data.labels.slice(0, 1);
    let (s, e) = (0, 64.min(data.len()));
    let n = allocs_in(|| {
        // The exact per-batch sequence of `cpu_lane_step` on the sparse path.
        shared.snapshot_into(&mut local);
        data.labels.slice_into(s, e, &mut labels);
        csr_all.slice_rows_into(s, e, &mut csr);
        ws.loss_and_gradient_sparse_into(&local, csr.view(), labels.as_targets(), false);
        shared.apply_gradient_racy_cols(ws.grad(), 0.01, ws.sparse_active_cols());
    });
    assert_eq!(n, 0, "warm CPU sparse step allocated {n} times");
}

#[test]
fn warm_sparse_merge_step_is_allocation_free() {
    let (data, csr_all, spec) = sparse_fixture();
    let model = Model::new(spec.clone(), InitScheme::Xavier, 11);
    let shared = SharedModel::new(&model);
    let mut snapshot = Model::zeros_like(&spec);
    let mut replica = Model::zeros_like(&spec);
    let mut ws = Workspace::new(&spec);
    let mut csr = CsrBatch::new();
    let mut labels = data.labels.slice(0, 1);
    let mut scan = MergeScan::new(spec.hidden.len() + 1);
    let (s, e) = (0, 64.min(data.len()));
    let n = allocs_in(|| {
        // The exact per-batch sequence of `gpu_batch_step_sparse`, minus
        // the rayon install (parallel=false keeps the measurement in one
        // thread — the kernels themselves are what is under test).
        shared.snapshot_into(&mut snapshot);
        replica.copy_from(&snapshot);
        data.labels.slice_into(s, e, &mut labels);
        csr_all.slice_rows_into(s, e, &mut csr);
        ws.loss_and_gradient_sparse_into(&replica, csr.view(), labels.as_targets(), false);
        replica.apply_gradient_sparse(ws.grad(), 0.05, ws.sparse_active_cols());
        scan.reset();
        shared.merge_delta_sparse_scanned(
            &snapshot,
            &replica,
            1.0,
            ws.sparse_active_cols(),
            &mut scan,
        );
    });
    assert_eq!(n, 0, "warm sparse merge step allocated {n} times");
}
