//! Tracing overhead: the no-op sink must cost nothing on the hot path.
//!
//! `emit/*` measures the raw per-event cost (the disabled case is a single
//! `enabled()` load and should be ~1 ns); `sim_run/*` measures a full short
//! simulated run untraced, with a disabled sink, and with tracing live, so
//! any regression of the instrumented engine paths shows up end to end.

use criterion::{criterion_group, criterion_main, Criterion};
use hetero_core::{AlgorithmKind, Observers, SimEngine, SimEngineConfig, TrainConfig};
use hetero_data::PaperDataset;
use hetero_nn::MlpSpec;
use hetero_trace::{BatchPhases, EventKind, TraceSink};

fn bench_emit(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_emit");
    group.bench_function("disabled", |b| {
        let sink = TraceSink::disabled();
        let mut depth = 0usize;
        b.iter(|| {
            depth = depth.wrapping_add(1);
            if sink.enabled() {
                sink.emit(0, EventKind::QueuePushed { depth, id: None });
            }
            depth
        });
    });
    group.bench_function("enabled", |b| {
        let sink = TraceSink::wall(1 << 12);
        let mut depth = 0usize;
        b.iter(|| {
            depth = depth.wrapping_add(1);
            if sink.enabled() {
                sink.emit(0, EventKind::QueuePushed { depth, id: None });
            }
            depth
        });
    });
    // The widest lineage-carrying event on the hot path: a completion with
    // its id and full phase breakdown. Guards the overhead of the PR-10
    // event widening the same way `enabled` guards the narrow case.
    group.bench_function("enabled_completion", |b| {
        let sink = TraceSink::wall(1 << 12);
        let phases = BatchPhases {
            stage_secs: 1e-4,
            compute_secs: 2e-3,
            transfer_secs: 3e-4,
            merge_secs: 5e-5,
        };
        let mut id = 0u64;
        b.iter(|| {
            id = id.wrapping_add(1);
            if sink.enabled() {
                sink.emit(
                    1,
                    EventKind::BatchCompleted {
                        id,
                        batch: 512,
                        updates: 8,
                        phases,
                    },
                );
            }
            id
        });
    });
    group.bench_function("counter_disabled", |b| {
        let counter = TraceSink::disabled().counter("bench.counter");
        b.iter(|| counter.add(1));
    });
    group.bench_function("counter_enabled", |b| {
        let sink = TraceSink::wall(1 << 12);
        let counter = sink.counter("bench.counter");
        b.iter(|| counter.add(1));
    });
    group.finish();
}

fn engine() -> (SimEngine, hetero_data::DenseDataset) {
    let dataset = PaperDataset::W8a.generate(0.002, 7);
    let spec = MlpSpec {
        input_dim: dataset.features(),
        hidden: vec![32, 32],
        classes: dataset.num_classes(),
        activation: hetero_nn::Activation::Sigmoid,
        loss: hetero_nn::LossKind::SoftmaxCrossEntropy,
    };
    let train = TrainConfig {
        algorithm: AlgorithmKind::AdaptiveHogbatch,
        time_budget: 0.02,
        rayon_threads: 0,
        eval_interval: 0.01,
        eval_subsample: 256,
        ..TrainConfig::default()
    };
    let engine = SimEngine::new(SimEngineConfig::paper_hardware(spec, train)).unwrap();
    (engine, dataset)
}

fn bench_sim_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_sim_run");
    group.sample_size(10);
    let (eng, dataset) = engine();
    group.bench_function("untraced", |b| {
        b.iter(|| eng.run(&dataset, &Observers::default()))
    });
    group.bench_function("disabled_sink", |b| {
        let sink = TraceSink::disabled();
        b.iter(|| {
            eng.run(
                &dataset,
                &Observers {
                    trace: sink.clone(),
                    ..Observers::default()
                },
            )
        });
    });
    group.bench_function("enabled_sink", |b| {
        let sink = TraceSink::virtual_time(1 << 14);
        b.iter(|| {
            let r = eng.run(
                &dataset,
                &Observers {
                    trace: sink.clone(),
                    ..Observers::default()
                },
            );
            sink.drain();
            r
        });
    });
    group.finish();
}

criterion_group!(benches, bench_emit, bench_sim_run);
criterion_main!(benches);
