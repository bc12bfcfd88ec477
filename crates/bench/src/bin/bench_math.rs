//! Math-core benchmark: GEMM / forward-backward / sgd_step at paper-like
//! shapes, written to `BENCH_math.json` so future PRs have a perf trajectory.
//!
//! Three modes per measurement:
//!
//! - `scalar` — serial kernel with dispatch forced to the portable path
//! - `simd` — serial kernel with dispatch forced to AVX2 (clamped to what
//!   the host supports, so on non-AVX2 hardware this degenerates to
//!   `scalar` and the speedup column reads ~1×)
//! - `parallel` — rayon `par_gemm_*` / `parallel=true` at the auto level
//!
//! The GEMM shapes are the dominant hidden-layer product of the paper's
//! networks (batch × 512 × 512) at batch ∈ {16, 256, 4096}; the
//! forward/backward and sgd_step sections run a covtype-shaped MLP
//! (54 → 512 → 512 → 2). The sgd_step section also diffs the process-wide
//! allocation counter around the steady-state loop — the "zero allocations
//! per warm step" claim is measured, not asserted.
//!
//! Run from the repo root (release profile, or the numbers are meaningless):
//!
//! ```text
//! cargo run --release -p hetero-bench --bin bench_math
//! ```

use hetero_bench::alloc_count::CountingAlloc;
use hetero_nn::{Activation, LossKind, MlpSpec, Model, Targets, Workspace};
use hetero_tensor::simd::{self, SimdLevel};
use hetero_tensor::{gemm, Matrix};
use serde::Serialize;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const BATCHES: [usize; 3] = [16, 256, 4096];
const WIDTH: usize = 512;

fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
    })
}

/// Wall-time one closure: one untimed warmup call, then as many timed
/// calls as fit a ~0.4 s budget (min 1). Returns seconds per call.
fn time(mut f: impl FnMut()) -> f64 {
    f();
    let budget = 0.4;
    let mut iters = 0u32;
    let start = Instant::now();
    loop {
        f();
        iters += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= budget {
            return elapsed / iters as f64;
        }
    }
}

#[derive(Serialize)]
struct GemmRow {
    kernel: String,
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    scalar_gflops: f64,
    simd_gflops: f64,
    parallel_gflops: f64,
    simd_speedup: f64,
}

#[derive(Serialize)]
struct FwdBwdRow {
    batch: usize,
    scalar_ms: f64,
    simd_ms: f64,
    parallel_ms: f64,
    simd_speedup: f64,
}

#[derive(Serialize)]
struct SgdStepReport {
    batch: usize,
    steps: u64,
    steady_state_allocs: u64,
    us_per_step: f64,
}

#[derive(Serialize)]
struct Report {
    host_avx2: bool,
    host_threads: usize,
    network: String,
    gemm: Vec<GemmRow>,
    forward_backward: Vec<FwdBwdRow>,
    sgd_step: SgdStepReport,
}

fn bench_gemm() -> Vec<GemmRow> {
    let mut rows = Vec::new();
    for &batch in &BATCHES {
        let (m, k, n) = (batch, WIDTH, WIDTH);
        let gflop = 2.0 * m as f64 * k as f64 * n as f64 / 1e9;
        let a = mat(m, k, 1);
        let b = mat(k, n, 2);
        let bt = b.transpose();
        let at = a.transpose();
        let mut c = Matrix::zeros(m, n);

        type Serial = fn(f32, &Matrix, &Matrix, f32, &mut Matrix);
        let kernels: [(&str, Serial, Serial, &Matrix, &Matrix); 3] = [
            ("nn", gemm::gemm_nn, gemm::par_gemm_nn, &a, &b),
            ("nt", gemm::gemm_nt, gemm::par_gemm_nt, &a, &bt),
            ("tn", gemm::gemm_tn, gemm::par_gemm_tn, &at, &b),
        ];
        for (name, serial, par, lhs, rhs) in kernels {
            let forced = |level: SimdLevel, c: &mut Matrix| {
                simd::with_level(level, || time(|| serial(1.0, lhs, rhs, 0.0, c)))
            };
            let t_scalar = forced(SimdLevel::Scalar, &mut c);
            let t_simd = forced(SimdLevel::Avx2, &mut c);
            let t_par = time(|| par(1.0, lhs, rhs, 0.0, &mut c));
            let row = GemmRow {
                kernel: name.to_string(),
                batch,
                m,
                k,
                n,
                scalar_gflops: gflop / t_scalar,
                simd_gflops: gflop / t_simd,
                parallel_gflops: gflop / t_par,
                simd_speedup: t_scalar / t_simd,
            };
            eprintln!(
                "gemm_{name} b={batch:<4} scalar {:7.2} GF/s  simd {:7.2} GF/s  par {:7.2} GF/s  ({:.2}x)",
                row.scalar_gflops, row.simd_gflops, row.parallel_gflops, row.simd_speedup
            );
            rows.push(row);
        }
    }
    rows
}

fn covtype_spec() -> MlpSpec {
    MlpSpec {
        input_dim: 54,
        hidden: vec![WIDTH, WIDTH],
        classes: 2,
        activation: Activation::Sigmoid,
        loss: LossKind::SoftmaxCrossEntropy,
    }
}

fn bench_forward_backward() -> Vec<FwdBwdRow> {
    let spec = covtype_spec();
    let model = Model::new(spec.clone(), Default::default(), 7);
    let mut rows = Vec::new();
    for &batch in &BATCHES {
        let x = mat(batch, spec.input_dim, 3);
        let classes: Vec<u32> = (0..batch as u32).map(|i| i % 2).collect();
        let mut ws = Workspace::with_batch_capacity(&spec, batch);
        let mut run = |level: Option<SimdLevel>, parallel: bool| {
            let mut body = || {
                time(|| {
                    ws.loss_and_gradient_into(&model, &x, Targets::Classes(&classes), parallel);
                })
            };
            match level {
                Some(l) => simd::with_level(l, body),
                None => body(),
            }
        };
        let t_scalar = run(Some(SimdLevel::Scalar), false);
        let t_simd = run(Some(SimdLevel::Avx2), false);
        let t_par = run(None, true);
        let row = FwdBwdRow {
            batch,
            scalar_ms: t_scalar * 1e3,
            simd_ms: t_simd * 1e3,
            parallel_ms: t_par * 1e3,
            simd_speedup: t_scalar / t_simd,
        };
        eprintln!(
            "fwd+bwd b={batch:<4} scalar {:8.2} ms  simd {:8.2} ms  par {:8.2} ms  ({:.2}x)",
            row.scalar_ms, row.simd_ms, row.parallel_ms, row.simd_speedup
        );
        rows.push(row);
    }
    rows
}

/// Full serial SGD steps on a warm workspace, diffing the per-thread
/// allocation counter across the measured region. The serial path is the
/// one the CPU Hogwild lanes run; the rayon path necessarily allocates
/// (scoped-thread spawns) and is excluded by design.
fn bench_sgd_step() -> SgdStepReport {
    let spec = covtype_spec();
    let mut model = Model::new(spec.clone(), Default::default(), 7);
    let batch = 256;
    let x = mat(batch, spec.input_dim, 4);
    let classes: Vec<u32> = (0..batch as u32).map(|i| i % 2).collect();
    let mut ws = Workspace::with_batch_capacity(&spec, batch);
    let step = |model: &mut Model, ws: &mut Workspace| {
        ws.loss_and_gradient_into(model, &x, Targets::Classes(&classes), false);
        model.apply_gradient(ws.grad(), 0.01);
    };
    for _ in 0..3 {
        step(&mut model, &mut ws); // warm every buffer
    }
    let steps = 100u64;
    let allocs_before = ALLOC.thread_allocations();
    let start = Instant::now();
    for _ in 0..steps {
        step(&mut model, &mut ws);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let steady_state_allocs = ALLOC.thread_allocations() - allocs_before;
    let report = SgdStepReport {
        batch,
        steps,
        steady_state_allocs,
        us_per_step: elapsed / steps as f64 * 1e6,
    };
    eprintln!(
        "sgd_step b={batch} {:.0} us/step, {} allocations across {} warm steps",
        report.us_per_step, report.steady_state_allocs, report.steps
    );
    report
}

fn main() {
    let report = Report {
        host_avx2: simd::host_supports_avx2(),
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        network: "54 -> 512 -> 512 -> 2 (covtype, sigmoid, softmax-CE)".to_string(),
        gemm: bench_gemm(),
        forward_backward: bench_forward_backward(),
        sgd_step: bench_sgd_step(),
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write("BENCH_math.json", &json).expect("write BENCH_math.json");
    eprintln!("wrote BENCH_math.json");
    if report.sgd_step.steady_state_allocs != 0 {
        eprintln!(
            "WARNING: workspace path allocated {} times in steady state",
            report.sgd_step.steady_state_allocs
        );
        std::process::exit(1);
    }
}
