//! Train the paper's adaptive Hogbatch with event tracing attached and
//! export the run as a Chrome `trace_event` file.
//!
//! ```text
//! cargo run --release --example trace_run
//! ```
//!
//! Writes `results/trace_run.json` (load it at <https://ui.perfetto.dev>
//! — one flame track per worker, instant markers for batch resizes, and
//! counter tracks for queue depth and loss) plus `results/trace_run.jsonl`
//! for line-oriented tooling. Honors `HETERO_SCALE` and `HETERO_BUDGET`
//! so CI can run it in milliseconds.

use hetero_sgd::prelude::*;
use hetero_sgd::trace::{export, EventKind, TraceSink, DEFAULT_RING_CAPACITY};

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let scale = env_f64("HETERO_SCALE", 0.002);
    let budget = env_f64("HETERO_BUDGET", 0.2);
    let dataset = PaperDataset::Covtype.generate(scale.max(1000.0 / 581_012.0), 42);
    let spec = MlpSpec {
        input_dim: dataset.features(),
        hidden: vec![48; 2],
        classes: dataset.num_classes(),
        activation: Activation::Sigmoid,
        loss: LossKind::SoftmaxCrossEntropy,
    };
    let gpu_max = 8192.min(dataset.len().max(64));
    let train = TrainConfig {
        algorithm: AlgorithmKind::AdaptiveHogbatch,
        time_budget: budget,
        rayon_threads: 0,
        eval_interval: budget / 10.0,
        eval_subsample: 1024,
        adaptive: AdaptiveParams {
            gpu_min_batch: (gpu_max / 16).max(16),
            gpu_max_batch: gpu_max,
            ..AdaptiveParams::default()
        },
        ..TrainConfig::default()
    };
    println!(
        "trace_run: covtype ({} examples), adaptive Hogbatch, {budget}s virtual budget",
        dataset.len()
    );

    // Virtual-time sink: the simulated engine publishes its clock, so every
    // event is stamped in the same time domain the paper's figures use.
    let sink = TraceSink::virtual_time(DEFAULT_RING_CAPACITY);
    let engine = SimEngine::new(SimEngineConfig::paper_hardware(spec, train)).unwrap();
    let mut result = engine.run(
        &dataset,
        &Observers {
            trace: sink.clone(),
            ..Observers::default()
        },
    );
    let trace = sink.drain();

    let resizes = trace
        .events_sorted()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::BatchResized { .. }))
        .count();
    assert!(
        !trace.is_empty(),
        "traced run produced no events — sink not attached?"
    );
    assert!(
        resizes >= 1,
        "adaptive run emitted no BatchResized events — adaptation never fired"
    );

    std::fs::create_dir_all("results").expect("create results/");
    let chrome = "results/trace_run.json";
    let jsonl = "results/trace_run.jsonl";
    export::write_chrome(&trace, chrome).expect("write Chrome trace");
    export::write_jsonl(&trace, jsonl).expect("write JSONL trace");
    result.trace_path = Some(chrome.to_string());

    println!(
        "  {} events across {} threads ({} dropped), {} batch resizes",
        trace.len(),
        trace.shards.len(),
        trace.total_dropped(),
        resizes
    );
    for u in hetero_sgd::trace::utilization::utilization(&trace) {
        println!(
            "  worker {:>2}: {:5.1}% busy, {:>5} batches, {:>8} examples",
            u.worker,
            100.0 * u.busy_fraction,
            u.batches,
            u.examples
        );
    }
    for (name, value) in &trace.counters {
        println!("  counter {name} = {value:.3}");
    }
    println!(
        "  final loss {:.4} after {:.2} epochs",
        result.final_loss(),
        result.epochs
    );
    println!("wrote {chrome} (open in https://ui.perfetto.dev) and {jsonl}");
    println!("trace_path = {:?}", result.trace_path);
}
