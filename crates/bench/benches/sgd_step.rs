//! End-to-end engine benchmarks: the adaptive controller's per-request
//! cost (the paper claims it "does not incur observable overhead") and a
//! full short simulated run per algorithm.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetero_core::adaptive::{AdaptiveController, WorkerBatchState};
use hetero_core::{AlgorithmKind, Observers, SimEngine, SimEngineConfig, TrainConfig};
use hetero_data::PaperDataset;
use hetero_nn::MlpSpec;

fn bench_controller(c: &mut Criterion) {
    let mut group = c.benchmark_group("adaptive_controller");
    group.bench_function("on_request_2_workers", |b| {
        let mut ctl = AdaptiveController::new(
            2.0,
            true,
            vec![
                WorkerBatchState::new(56, 56, 3584),
                WorkerBatchState::new(8192, 512, 8192),
            ],
        );
        let mut w = 0;
        b.iter(|| {
            ctl.report_updates(w, 7.0);
            let batch = ctl.on_request(w);
            w = 1 - w;
            batch
        });
    });
    group.bench_function("on_request_16_workers", |b| {
        let states = (0..16)
            .map(|_| WorkerBatchState::new(512, 64, 8192))
            .collect();
        let mut ctl = AdaptiveController::new(2.0, true, states);
        let mut w = 0;
        b.iter(|| {
            ctl.report_updates(w, 3.0);
            let batch = ctl.on_request(w);
            w = (w + 1) % 16;
            batch
        });
    });
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_engine_short_run");
    group.sample_size(10);
    let dataset = PaperDataset::W8a.generate(0.002, 7);
    for algo in [
        AlgorithmKind::MiniBatchGpu,
        AlgorithmKind::CpuGpuHogbatch,
        AlgorithmKind::AdaptiveHogbatch,
    ] {
        group.bench_with_input(BenchmarkId::new("run", algo.label()), &algo, |b, &algo| {
            let spec = MlpSpec {
                input_dim: dataset.features(),
                hidden: vec![32, 32],
                classes: dataset.num_classes(),
                activation: hetero_nn::Activation::Sigmoid,
                loss: hetero_nn::LossKind::SoftmaxCrossEntropy,
            };
            let train = TrainConfig {
                algorithm: algo,
                time_budget: 0.02,
                rayon_threads: 0,
                eval_interval: 0.01,
                eval_subsample: 256,
                ..TrainConfig::default()
            };
            let engine = SimEngine::new(SimEngineConfig::paper_hardware(spec, train)).unwrap();
            b.iter(|| engine.run(&dataset, &Observers::default()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_controller, bench_engine);
criterion_main!(benches);
