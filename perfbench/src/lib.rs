//! # perfbench
//!
//! The repository's benchmark: closed-loop, fixed-work training runs of
//! the hetero-sgd engines through their public API, with every run's
//! output checked, end-to-end metrics from untraced runs and per-layer
//! metrics from a separate traced run plus replayed module calls.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sparse-realsim --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--workload all` runs every workload in turn. `BENCHMARK.json` at the
//! repository root lists the workloads, the metrics and their bounds.
//!
//! Dense threaded training at the harness's paper settings has no
//! workload yet, because it does not reliably converge there:
//!
//! - Threaded Adaptive Hogbatch ends above its initial loss on covtype and
//!   w8a.
//! - CPU+GPU Hogbatch on covtype (1 lane + 1 software GPU, GPU batch 8192)
//!   diverges in about 2% of runs, and which runs diverge depends on the
//!   CPU/GPU race. So two sets of the same runs disagree on their failure
//!   counts.
//! - Hogbatch GPU alone on covtype (batch 8192, learning rate at the 0.5
//!   ceiling) diverges in every run.
//!
//! Lowering the learning-rate ceiling until they look steady would hide
//! that defect. These workloads come back together with the fix. Until
//! then, the dense GEMMs are replayed at `sim-adaptive`'s covtype shapes,
//! and the software GPU, delta merge and staleness are measured on
//! `sparse-realsim`.
//!
//! Hogbatch CPU alone (2 Hogwild lanes × 1 example) is not a workload
//! either: it keeps both cores of a 2-core host busy and hands a batch
//! between threads every two examples, so its throughput followed the
//! host's steal time and spread by 27% between runs, past any bound a
//! regression gate could hold.

#![warn(missing_docs)]

pub mod replay;
pub mod report;
pub mod traced;
pub mod workload;

use hetero_core::{TrainResult, WorkerKind};

pub use report::{Metrics, END_TO_END, PER_LAYER};
pub use workload::{EngineConfig, Inputs, Rep, Workload};

use replay::Spans;

/// Worker slot of the first worker of `kind`.
fn slot(r: &TrainResult, kind: WorkerKind) -> Option<usize> {
    r.workers.iter().position(|w| w.kind == kind)
}

/// `(initial, min, max)` batch per worker, the way the engines seed their
/// adaptive controller, plus α and whether it adapts.
fn controller_shape(inputs: &Inputs, r: &TrainResult) -> (f64, bool, Vec<(usize, usize, usize)>) {
    let train = inputs.engine.train();
    let p = &train.adaptive;
    let n = inputs.dataset.len().max(1);
    let lanes = inputs.engine.lanes().max(1);
    let adapt = train.algorithm.is_adaptive();
    let shape = r
        .workers
        .iter()
        .map(|w| match (w.kind, adapt) {
            (WorkerKind::Cpu, true) => {
                let lo = p.cpu_min_batch.max(lanes).min(n);
                (lo, lo, p.cpu_max_batch.max(lo))
            }
            (WorkerKind::Cpu, false) => {
                let b = (train.cpu_batch_per_thread * lanes).clamp(1, n);
                (b, b, b)
            }
            (WorkerKind::Gpu, true) => {
                let hi = p.gpu_max_batch.max(1);
                (hi, p.gpu_min_batch.clamp(1, hi), hi)
            }
            (WorkerKind::Gpu, false) => {
                let b = train.gpu_batch.max(1);
                (b, b, b)
            }
        })
        .collect();
    (p.alpha, adapt, shape)
}

/// Per-layer metrics of one workload: the traced run's path, core, mq,
/// merge, transfer and trace metrics, plus replays of each module's public
/// calls at the shapes that run used.
///
/// `traced` is the traced run on `inputs`; `baseline_clock_s` and
/// `baseline_examples_per_s` are medians of the untraced runs.
#[allow(clippy::too_many_arguments)]
pub fn layer_metrics(
    inputs: &Inputs,
    traced: &Rep,
    trace: &hetero_trace::Trace,
    hub: &hetero_metrics::MetricsHub,
    baseline_clock_s: f64,
    baseline_examples_per_s: f64,
    spans: &mut Spans,
) -> Metrics {
    let mut m = Metrics::new(&PER_LAYER);
    let r = &traced.result;
    traced::record(&mut m, r, r.duration, trace, hub);
    m.set(
        "trace.overhead_pct",
        (baseline_examples_per_s - traced.examples_per_s()) / baseline_examples_per_s * 100.0,
    );

    let train = inputs.engine.train();
    let spec = inputs.engine.spec();
    let data = &inputs.dataset;
    let csr = train.sparse_input.then(|| data.to_csr());
    let sim = matches!(inputs.engine, EngineConfig::Sim(_));
    let lanes = inputs.engine.lanes().max(1);
    let cpu = slot(r, WorkerKind::Cpu);
    let gpu = slot(r, WorkerKind::Gpu);
    // Replays run at each worker's mean batch: the controller's
    // `final_batch` overstates it, since every epoch ends in a short batch.
    let mean_batch = |w: usize| {
        let s = &r.workers[w];
        ((s.examples as f64 / s.batches.max(1) as f64).round() as usize).max(1)
    };
    let cpu_batch = cpu.map(|w| mean_batch(w).div_ceil(lanes));
    let gpu_batch = gpu.map(mean_batch);
    let dominant = (0..r.workers.len())
        .max_by_key(|&w| r.workers[w].examples)
        .expect("a run has workers");
    let dominant_batch = if Some(dominant) == cpu {
        cpu_batch
    } else {
        gpu_batch
    }
    .expect("the dominant worker has a batch");
    eprintln!(
        "replay shapes: cpu lane batch {cpu_batch:?}, gpu batch {gpu_batch:?}, \
         dominant worker {dominant} at {dominant_batch}"
    );

    let cpu_step = cpu_batch.map(|b| replay::cpu_step(spans, data, csr.as_ref(), spec, train, b));
    let c = cpu_step.unwrap_or_default();
    m.set("data.stage_us", c.stage * 1e6);
    m.set("nn.snapshot_us", c.snapshot * 1e6);
    m.set("nn.forward_us", c.forward * 1e6);
    m.set("nn.loss_us", c.loss * 1e6);
    m.set("nn.backward_us", c.backward * 1e6);
    m.set("nn.apply_us", c.apply * 1e6);
    m.set(
        "nn.activation_us",
        cpu_batch.map_or(0.0, |b| replay::activation(spans, spec, b) * 1e6),
    );

    // The simulator computes GPU gradients on the host workspace; only the
    // threaded engine drives the software GPU and the shared-model merge.
    let gpu_step = gpu_batch
        .filter(|_| !sim)
        .map(|b| replay::gpu_step(spans, data, csr.as_ref(), spec, train, b));
    let g = gpu_step.unwrap_or_default();
    m.set("gpu.refresh_ms", g.refresh * 1e3);
    m.set("gpu.train_step_ms", g.train_step * 1e3);
    m.set("gpu.download_ms", g.download * 1e3);
    m.set("gpu.bytes_per_batch", g.bytes);
    m.set("nn.merge_us", g.merge * 1e6);

    let k = replay::kernels(spans, spec, csr.as_ref(), dominant_batch);
    m.set("tensor.nt_gflops", k.nt);
    m.set("tensor.nn_gflops", k.nn);
    m.set("tensor.tn_gflops", k.tn);
    m.set("tensor.spmm_gflops", k.spmm);
    m.set("tensor.spmm_tn_gflops", k.spmm_tn);
    m.set("tensor.bench_math_ratio", replay::bench_math_ratio(spans));

    let (alpha, adapt, shape) = controller_shape(inputs, r);
    m.set(
        "core.controller_ns",
        replay::controller(spans, alpha, adapt, &shape),
    );
    m.set("mq.roundtrip_us", replay::mq_roundtrip(spans));

    if sim {
        // Replayed host gradient time per example, charged to every example
        // each worker processed, as a share of the sim's wall time.
        let mut per_example = |w: Option<usize>, b: Option<usize>, parallel: bool| match (w, b) {
            (Some(w), Some(b)) => {
                let t = replay::sim_gradient(spans, data, spec, train, b, parallel);
                r.workers[w].examples as f64 * t / b.min(data.len()) as f64
            }
            _ => 0.0,
        };
        let compute = per_example(cpu, cpu_batch, false) + per_example(gpu, gpu_batch, true);
        let batches: u64 = r.workers.iter().map(|w| w.batches).sum();
        m.set("sim.batches", batches as f64);
        m.set(
            "sim.wall_per_batch_ms",
            baseline_clock_s / batches as f64 * 1e3,
        );
        m.set("sim.compute_share", compute / baseline_clock_s);
        // The sim's batch latencies are virtual; the wall share the
        // replayed gradients explain is the comparable coverage.
        m.set("core.replay_coverage", compute / baseline_clock_s);
    } else {
        m.set("sim.batches", 0.0);
        m.set("sim.wall_per_batch_ms", 0.0);
        m.set("sim.compute_share", 0.0);
        let (step, label) = if Some(dominant) == cpu {
            (c.step, "cpu")
        } else {
            (g.step, "gpu")
        };
        let traced_ms = m
            .get(&format!("core.batch_ms.{label}.p50"))
            .expect("batch latency recorded");
        m.set(
            "core.replay_coverage",
            if traced_ms > 0.0 {
                step * 1e3 / traced_ms
            } else {
                0.0
            },
        );
    }
    m
}
