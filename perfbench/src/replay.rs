//! Replayed calls into each module's public functions, at the shapes a
//! traced run used, timed inside the benchmark's own spans.
//!
//! Nothing inside the program is instrumented: every number here comes
//! from a span (name, start, end, parent) the benchmark opens around a
//! call it makes itself. Spans are kept in memory and summarised when the
//! benchmark ends.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use hetero_core::adaptive::WorkerBatchState;
use hetero_core::{AdaptiveController, TrainConfig};
use hetero_data::{DenseDataset, Labels};
use hetero_gpu::{GpuDevice, GpuMlp};
use hetero_nn::{MergeScan, MlpSpec, Model, SharedModel, Workspace};
use hetero_sim::GpuModel;
use hetero_tensor::sparse::{spmm_bias_into, spmm_tn_scatter};
use hetero_tensor::{gemm, CsrBatch, CsrMatrix, Matrix};
use serde::Value;

/// `BENCH_math.json` as committed: the reference for
/// `tensor.bench_math_ratio`.
const BENCH_MATH: &str = include_str!("../../BENCH_math.json");

/// Wall budget of one time-boxed replay loop (seconds).
const LOOP_SECS: f64 = 0.1;

/// Shortest span [`per_call`] records (seconds).
const CHUNK_SECS: f64 = 200e-6;

/// One timed region.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Seconds since the recorder started.
    pub start: f64,
    /// Seconds since the recorder started.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// In-memory span recorder.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Open a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.t0.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: f64::NAN,
            parent,
        });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.t0.elapsed().as_secs_f64();
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Median duration (seconds) of the spans called `name` whose parent
    /// is called `parent`; 0 when there are none.
    pub fn median(&self, name: &str, parent: &str) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.parent.map(|p| self.spans[p].name) == Some(parent))
            .map(|s| s.end - s.start)
            .collect();
        if d.is_empty() {
            0.0
        } else {
            crate::report::median(&d)
        }
    }

    /// One line per (parent, name): count and median duration.
    pub fn summary(&self) -> String {
        let mut groups: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            let parent = s.parent.map_or("-", |p| self.spans[p].name);
            groups
                .entry((parent, s.name))
                .or_default()
                .push(s.end - s.start);
        }
        groups
            .iter()
            .map(|((parent, name), d)| {
                format!(
                    "  span {parent} > {name}: {} × {:.3} us median\n",
                    d.len(),
                    crate::report::median(d) * 1e6
                )
            })
            .collect()
    }
}

/// Run `f` at least `min` times and until [`LOOP_SECS`] have passed.
fn repeat(min: usize, mut f: impl FnMut(usize)) {
    let t = Instant::now();
    let mut i = 0;
    while i < min || t.elapsed().as_secs_f64() < LOOP_SECS {
        f(i);
        i += 1;
    }
}

/// Start row of the `i`th replayed batch of `b` rows (cycles the data).
fn row(i: usize, b: usize, n: usize) -> usize {
    (i * b) % (n - b + 1)
}

/// What a replayed CPU lane step costs, by part (seconds, medians).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuStep {
    /// `SharedModel::snapshot_into`.
    pub snapshot: f64,
    /// Batch staging (`batch_into` / `slice_rows_into`).
    pub stage: f64,
    /// Forward pass.
    pub forward: f64,
    /// Loss of the forward pass.
    pub loss: f64,
    /// Backward pass (sparse: the fused loss-and-gradient call less the
    /// separately timed forward and loss).
    pub backward: f64,
    /// Racy Hogwild apply.
    pub apply: f64,
    /// The step as the engine runs it.
    pub step: f64,
}

/// Replay one Hogwild lane step — snapshot, stage, forward, loss,
/// backward, racy apply — at `b` examples per lane.
pub fn cpu_step(
    spans: &mut Spans,
    data: &DenseDataset,
    csr: Option<&CsrMatrix>,
    spec: &MlpSpec,
    train: &TrainConfig,
    b: usize,
) -> CpuStep {
    const P: &str = "replay.cpu_step";
    let shared = SharedModel::new(&Model::new(spec.clone(), train.init, train.seed));
    let mut local = shared.snapshot();
    let mut ws = Workspace::new(spec);
    let mut x = Matrix::zeros(0, 0);
    let mut batch = CsrBatch::new();
    let mut labels = Labels::Classes(Vec::new());
    let n = data.len();
    let b = b.min(n);
    let eta = train.lr_scaling.eta(train.lr, b);
    repeat(5, |i| {
        let s = row(i, b, n);
        let step = spans.open(P, None);
        spans.time("nn.snapshot", Some(step), || {
            shared.snapshot_into(&mut local)
        });
        match csr {
            None => {
                spans.time("data.stage", Some(step), || {
                    data.batch_into(s, s + b, &mut x, &mut labels)
                });
                spans.time("nn.forward", Some(step), || {
                    black_box(ws.forward_into(&local, &x, false));
                });
                spans.time("nn.loss", Some(step), || {
                    black_box(hetero_nn::loss(
                        ws.pass().probs(),
                        labels.as_targets(),
                        spec.loss,
                    ))
                });
                spans.time("nn.backward", Some(step), || {
                    black_box(ws.backward_into(&local, &x, labels.as_targets(), false));
                });
                spans.time("nn.apply", Some(step), || {
                    shared.apply_gradient_racy(ws.grad(), eta)
                });
            }
            Some(src) => {
                spans.time("data.stage", Some(step), || {
                    data.labels.slice_into(s, s + b, &mut labels);
                    src.slice_rows_into(s, s + b, &mut batch);
                });
                spans.time("nn.gradient", Some(step), || {
                    black_box(ws.loss_and_gradient_sparse_into(
                        &local,
                        batch.view(),
                        labels.as_targets(),
                        false,
                    ));
                });
                spans.time("nn.apply", Some(step), || {
                    shared.apply_gradient_racy_cols(ws.grad(), eta, ws.sparse_active_cols())
                });
            }
        }
        spans.close(step);
    });
    let med = |spans: &Spans, name: &str| spans.median(name, P);
    let (snapshot, stage, apply) = (
        med(spans, "nn.snapshot"),
        med(spans, "data.stage"),
        med(spans, "nn.apply"),
    );
    match csr {
        None => {
            let (forward, loss, backward) = (
                med(spans, "nn.forward"),
                med(spans, "nn.loss"),
                med(spans, "nn.backward"),
            );
            CpuStep {
                snapshot,
                stage,
                forward,
                loss,
                backward,
                apply,
                step: snapshot + stage + forward + loss + backward + apply,
            }
        }
        Some(src) => {
            // The engine fuses forward, loss and backward into one sparse
            // call; time the forward and the loss on their own as well so
            // the backward share can be told apart.
            const S: &str = "replay.sparse_split";
            repeat(5, |i| {
                let s = row(i, b, n);
                data.labels.slice_into(s, s + b, &mut labels);
                src.slice_rows_into(s, s + b, &mut batch);
                let split = spans.open(S, None);
                spans.time("nn.forward", Some(split), || {
                    black_box(ws.forward_sparse_into(&local, batch.view(), false));
                });
                spans.time("nn.loss", Some(split), || {
                    black_box(hetero_nn::loss(
                        ws.pass().probs(),
                        labels.as_targets(),
                        spec.loss,
                    ))
                });
                spans.close(split);
            });
            let gradient = med(spans, "nn.gradient");
            let (forward, loss) = (spans.median("nn.forward", S), spans.median("nn.loss", S));
            CpuStep {
                snapshot,
                stage,
                forward,
                loss,
                backward: (gradient - forward - loss).max(0.0),
                apply,
                step: snapshot + stage + gradient + apply,
            }
        }
    }
}

/// What a replayed GPU worker step costs, by part (seconds, medians).
#[derive(Debug, Clone, Copy, Default)]
pub struct GpuStep {
    /// Device replica refresh (host→device).
    pub refresh: f64,
    /// Device training step.
    pub train_step: f64,
    /// Replica download (device→host).
    pub download: f64,
    /// Delta merge into the shared model.
    pub merge: f64,
    /// Host↔device bytes per batch.
    pub bytes: f64,
    /// The step as the engine runs it.
    pub step: f64,
}

/// Replay one GPU worker step at batch `b`: snapshot, refresh, stage,
/// device train step, download, delta merge (the dense path), or
/// snapshot, replica copy, CSR stage, host sparse step and row-sparse
/// merge (the sparse path). The step's GEMMs run on a one-thread pool,
/// as the benchmark pins the engine's.
pub fn gpu_step(
    spans: &mut Spans,
    data: &DenseDataset,
    csr: Option<&CsrMatrix>,
    spec: &MlpSpec,
    train: &TrainConfig,
    b: usize,
) -> GpuStep {
    const P: &str = "replay.gpu_step";
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread replay pool");
    let model = Model::new(spec.clone(), train.init, train.seed);
    let shared = SharedModel::new(&model);
    let mut snapshot = shared.snapshot();
    let mut replica = Model::zeros_like(spec);
    let mut labels = Labels::Classes(Vec::new());
    let n = data.len();
    let b = b.min(n);
    let eta = train.lr_scaling.eta(train.lr, b);
    let med = |spans: &Spans, name: &str| spans.median(name, P);
    match csr {
        None => {
            let device = GpuDevice::new(GpuModel::v100());
            let mut mlp = GpuMlp::upload(&device, &model).expect("replay model fits the device");
            let mut x = Matrix::zeros(0, 0);
            let mut bytes = Vec::new();
            repeat(3, |i| {
                let s = row(i, b, n);
                let before = device.transfer_stats();
                let step = spans.open(P, None);
                spans.time("nn.snapshot", Some(step), || {
                    shared.snapshot_into(&mut snapshot)
                });
                spans.time("gpu.refresh", Some(step), || mlp.refresh(&snapshot));
                spans.time("data.stage", Some(step), || {
                    data.batch_into(s, s + b, &mut x, &mut labels)
                });
                spans.time("gpu.train_step", Some(step), || {
                    pool.install(|| mlp.train_step(&x, labels.as_targets(), eta))
                        .expect("replay step fits the device");
                });
                spans.time("gpu.download", Some(step), || {
                    mlp.download_into(&mut replica)
                });
                spans.time("nn.merge", Some(step), || {
                    black_box(shared.merge_delta_scaled_observed(&snapshot, &replica, 1.0));
                });
                spans.close(step);
                let after = device.transfer_stats();
                bytes.push(
                    (after.h2d_bytes + after.d2h_bytes - before.h2d_bytes - before.d2h_bytes)
                        as f64,
                );
            });
            let parts = [
                "nn.snapshot",
                "gpu.refresh",
                "data.stage",
                "gpu.train_step",
                "gpu.download",
                "nn.merge",
            ];
            let step = parts.iter().map(|p| med(spans, p)).sum();
            GpuStep {
                refresh: med(spans, "gpu.refresh"),
                train_step: med(spans, "gpu.train_step"),
                download: med(spans, "gpu.download"),
                merge: med(spans, "nn.merge"),
                bytes: crate::report::median(&bytes),
                step,
            }
        }
        Some(src) => {
            let mut ws = Workspace::new(spec);
            let mut batch = CsrBatch::new();
            let mut scan = MergeScan::for_model(&model);
            repeat(3, |i| {
                let s = row(i, b, n);
                let step = spans.open(P, None);
                spans.time("nn.snapshot", Some(step), || {
                    shared.snapshot_into(&mut snapshot);
                    replica.copy_from(&snapshot);
                });
                spans.time("data.stage", Some(step), || {
                    data.labels.slice_into(s, s + b, &mut labels);
                    src.slice_rows_into(s, s + b, &mut batch);
                });
                spans.time("nn.gradient", Some(step), || {
                    pool.install(|| {
                        black_box(ws.loss_and_gradient_sparse_into(
                            &replica,
                            batch.view(),
                            labels.as_targets(),
                            true,
                        ));
                    });
                    replica.apply_gradient_sparse(ws.grad(), eta, ws.sparse_active_cols());
                });
                spans.time("nn.merge", Some(step), || {
                    scan.reset();
                    black_box(shared.merge_delta_sparse_scanned(
                        &snapshot,
                        &replica,
                        1.0,
                        ws.sparse_active_cols(),
                        &mut scan,
                    ));
                });
                spans.close(step);
            });
            let parts = ["nn.snapshot", "data.stage", "nn.gradient", "nn.merge"];
            GpuStep {
                merge: med(spans, "nn.merge"),
                step: parts.iter().map(|p| med(spans, p)).sum(),
                ..GpuStep::default()
            }
        }
    }
}

/// Replay one host gradient at batch `b` the way the simulator computes
/// it (`Workspace::loss_and_gradient_into`); seconds, median.
pub fn sim_gradient(
    spans: &mut Spans,
    data: &DenseDataset,
    spec: &MlpSpec,
    train: &TrainConfig,
    b: usize,
    parallel: bool,
) -> f64 {
    let name = if parallel {
        "replay.sim_gpu_gradient"
    } else {
        "replay.sim_cpu_gradient"
    };
    let model = Model::new(spec.clone(), train.init, train.seed);
    let mut ws = Workspace::new(spec);
    let mut x = Matrix::zeros(0, 0);
    let mut labels = Labels::Classes(Vec::new());
    let n = data.len();
    let b = b.min(n);
    let root = spans.open(name, None);
    repeat(3, |i| {
        let s = row(i, b, n);
        data.batch_into(s, s + b, &mut x, &mut labels);
        spans.time("nn.gradient", Some(root), || {
            black_box(ws.loss_and_gradient_into(&model, &x, labels.as_targets(), parallel));
        });
    });
    spans.close(root);
    spans.median("nn.gradient", name)
}

/// Replay the hidden layers' activation and its derivative at `b` rows;
/// seconds per step, median.
pub fn activation(spans: &mut Spans, spec: &MlpSpec, b: usize) -> f64 {
    let mut outs: Vec<Matrix> = spec
        .hidden
        .iter()
        .map(|&w| Matrix::from_fn(b, w, |i, j| ((i * 31 + j * 17) % 97) as f32 / 97.0 - 0.5))
        .collect();
    let mut deltas = outs.clone();
    let root = spans.open("replay.activation", None);
    let t = per_call(spans, "nn.activation", root, || {
        for (z, d) in outs.iter_mut().zip(&mut deltas) {
            spec.activation.apply(z);
            spec.activation.mul_derivative(z, d);
        }
        black_box(&deltas);
    });
    spans.close(root);
    t
}

/// Kernel throughput at one batch size, summed over the network's layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct Kernels {
    /// Forward `X·Wᵀ + b`, GFLOP/s.
    pub nt: f64,
    /// Backward input gradient `δ·W` (layers after the first), GFLOP/s.
    pub nn: f64,
    /// Backward weight gradient `δᵀ·X`, GFLOP/s.
    pub tn: f64,
    /// Sparse first-layer forward, GFLOP/s (0 on a dense network).
    pub spmm: f64,
    /// Sparse first-layer weight gradient, GFLOP/s (0 on a dense network).
    pub spmm_tn: f64,
}

fn filled(rows: usize, cols: usize, seed: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        ((i * 7 + j * 13 + seed * 29) % 101) as f32 / 101.0 - 0.5
    })
}

/// Median seconds per call of `f` over a time-boxed loop. Calls are
/// grouped so each span lasts at least [`CHUNK_SECS`]: a span around one
/// sub-microsecond call would mostly time the clock.
fn per_call(spans: &mut Spans, name: &'static str, root: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let chunk = (CHUNK_SECS / once).ceil().clamp(1.0, 1e6) as usize;
    let mut d = Vec::new();
    repeat(5, |_| {
        let id = spans.open(name, Some(root));
        for _ in 0..chunk {
            f();
        }
        spans.close(id);
        d.push((spans.spans[id].end - spans.spans[id].start) / chunk as f64);
    });
    crate::report::median(&d)
}

/// Replay every layer's kernels at batch `b` (serial, at the active SIMD
/// level). The first layer of a sparse network runs the CSR kernels on
/// `b` rows of `csr`.
pub fn kernels(spans: &mut Spans, spec: &MlpSpec, csr: Option<&CsrMatrix>, b: usize) -> Kernels {
    const P: &str = "replay.tensor";
    let root = spans.open(P, None);
    let dims: Vec<usize> = std::iter::once(spec.input_dim)
        .chain(spec.hidden.iter().copied())
        .chain(std::iter::once(spec.classes))
        .collect();
    let (mut flops, mut secs) = ([0.0f64; 5], [0.0f64; 5]);
    for (l, pair) in dims.windows(2).enumerate() {
        let (inp, out) = (pair[0], pair[1]);
        let w = filled(out, inp, l);
        let bias = vec![0.1f32; out];
        let delta = filled(b, out, l + 1);
        let mut z = Matrix::zeros(b, out);
        let f = 2.0 * (b * inp * out) as f64;
        match csr {
            Some(src) if l == 0 => {
                let x = src.slice_rows(0, b.min(src.rows()));
                let wt = w.transpose();
                let mut grad_t = Matrix::zeros(inp, out);
                let g = 2.0 * (x.nnz() * out) as f64;
                secs[3] += per_call(spans, "tensor.spmm", root, || {
                    spmm_bias_into(x.view(), &wt, &bias, &mut z)
                });
                secs[4] += per_call(spans, "tensor.spmm_tn", root, || {
                    spmm_tn_scatter(x.view(), &delta, &mut grad_t)
                });
                flops[3] += g;
                flops[4] += g;
            }
            _ => {
                let x = filled(b, inp, l + 2);
                let mut gw = Matrix::zeros(out, inp);
                secs[0] += per_call(spans, "tensor.nt", root, || {
                    gemm::gemm_nt_bias(1.0, &x, &w, &bias, &mut z)
                });
                secs[2] += per_call(spans, "tensor.tn", root, || {
                    gemm::gemm_tn(1.0, &delta, &x, 0.0, &mut gw)
                });
                flops[0] += f;
                flops[2] += f;
                if l > 0 {
                    let mut dn = Matrix::zeros(b, inp);
                    secs[1] += per_call(spans, "tensor.nn", root, || {
                        gemm::gemm_nn(1.0, &delta, &w, 0.0, &mut dn)
                    });
                    flops[1] += f;
                }
            }
        }
    }
    spans.close(root);
    let rate = |k: usize| {
        if secs[k] > 0.0 {
            flops[k] / secs[k] / 1e9
        } else {
            0.0
        }
    };
    Kernels {
        nt: rate(0),
        nn: rate(1),
        tn: rate(2),
        spmm: rate(3),
        spmm_tn: rate(4),
    }
}

/// The NT, NN and TN GEMMs at `bench_math`'s batch-256, 512×512 shape,
/// combined, as a share of the same combination of `BENCH_math.json`'s
/// `simd_gflops`: 1 means the replay runs the kernels as fast as the
/// committed micro-benchmark did.
pub fn bench_math_ratio(spans: &mut Spans) -> f64 {
    const P: &str = "replay.bench_math";
    let (m, k, n) = (256, 512, 512);
    let a = filled(m, k, 1);
    let b = filled(k, n, 2);
    let (bt, at) = (b.transpose(), a.transpose());
    let mut c = Matrix::zeros(m, n);
    let root = spans.open(P, None);
    let t = per_call(spans, "tensor.nt", root, || {
        gemm::gemm_nt(1.0, &a, &bt, 0.0, &mut c)
    }) + per_call(spans, "tensor.nn", root, || {
        gemm::gemm_nn(1.0, &a, &b, 0.0, &mut c)
    }) + per_call(spans, "tensor.tn", root, || {
        gemm::gemm_tn(1.0, &at, &b, 0.0, &mut c)
    });
    spans.close(root);
    let gflop = 2.0 * (m * k * n) as f64 / 1e9;
    let reference: Value = serde_json::from_str(BENCH_MATH).expect("BENCH_math.json parses");
    let rows = match reference.get("gemm") {
        Some(Value::Array(rows)) => rows.clone(),
        _ => panic!("BENCH_math.json has no gemm rows"),
    };
    let secs_at_reference: f64 = ["nt", "nn", "tn"]
        .iter()
        .map(|kernel| {
            let row = rows
                .iter()
                .find(|r| {
                    matches!(r.get("kernel"), Some(Value::Str(s)) if s == kernel)
                        && matches!(r.get("batch"), Some(Value::U64(256)))
                })
                .unwrap_or_else(|| panic!("BENCH_math.json lacks {kernel} at batch 256"));
            match row.get("simd_gflops") {
                Some(Value::F64(g)) => gflop / g,
                _ => panic!("BENCH_math.json {kernel} row lacks simd_gflops"),
            }
        })
        .sum();
    secs_at_reference / t
}

/// Nanoseconds per `AdaptiveController::on_request` + `report_updates`
/// pair, alternating over `workers` (initial batch, min, max) with the
/// controller adapting or not.
pub fn controller(
    spans: &mut Spans,
    alpha: f64,
    adapt: bool,
    workers: &[(usize, usize, usize)],
) -> f64 {
    let states = workers
        .iter()
        .map(|&(b, lo, hi)| WorkerBatchState::new(b, lo, hi))
        .collect();
    let mut c = AdaptiveController::new(alpha, adapt, states);
    let mut w = 0;
    let root = spans.open("replay.controller", None);
    let t = per_call(spans, "core.controller", root, || {
        black_box(c.on_request(w));
        c.report_updates(w, 1.0);
        w = (w + 1) % workers.len();
    });
    spans.close(root);
    t * 1e9
}

/// Microseconds per send→recv round trip between two threads over
/// `hetero_mq::channel`.
pub fn mq_roundtrip(spans: &mut Spans) -> f64 {
    let (ping_tx, ping_rx) = hetero_mq::channel::<u64>();
    let (pong_tx, pong_rx) = hetero_mq::channel::<u64>();
    std::thread::scope(|s| {
        s.spawn(move || {
            while let Ok(v) = ping_rx.recv() {
                if pong_tx.send(v).is_err() {
                    break;
                }
            }
        });
        let root = spans.open("replay.mq", None);
        let t = per_call(spans, "mq.roundtrip", root, || {
            ping_tx.send(1).expect("echo thread alive");
            black_box(pong_rx.recv().expect("echo thread alive"));
        });
        spans.close(root);
        // Dropping the sender ends the echo loop; the scope joins it.
        drop(ping_tx);
        t * 1e6
    })
}
