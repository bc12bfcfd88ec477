//! Run all five SGD algorithms of the paper on one dataset and compare
//! their convergence — a miniature of the paper's Figure 5 experiment.
//!
//! ```text
//! cargo run --release --example algorithm_comparison [dataset] [scale]
//! ```
//! `dataset` ∈ {covtype, w8a, delicious, real-sim} (default covtype),
//! `scale` shrinks the synthetic stand-in (default 0.002).

use hetero_sgd::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("covtype");
    let scale: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.002);
    let paper = PaperDataset::from_name(name).unwrap_or_else(|| {
        eprintln!("unknown dataset '{name}', expected covtype|w8a|delicious|real-sim");
        std::process::exit(1);
    });
    let dataset = paper.generate(scale, 42);
    let loss_kind = if paper.stats().multilabel {
        LossKind::MultiLabelBce
    } else {
        LossKind::SoftmaxCrossEntropy
    };
    let spec = MlpSpec {
        input_dim: dataset.features(),
        hidden: vec![64; 3],
        classes: dataset.num_classes(),
        activation: Activation::Sigmoid,
        loss: loss_kind,
    };
    println!(
        "{}: {} examples × {} features, {} classes — {} hidden layers in the paper",
        dataset.name,
        dataset.len(),
        dataset.features(),
        dataset.num_classes(),
        paper.hidden_layers()
    );

    let budget = 0.3;
    let mut results: Vec<TrainResult> = Vec::new();
    for algo in AlgorithmKind::all() {
        let train = TrainConfig {
            algorithm: algo,
            lr: 0.01,
            lr_scaling: LrScaling::Sqrt {
                ref_batch: 1,
                max_lr: 0.5,
            },
            gpu_batch: 1024,
            adaptive: AdaptiveParams {
                gpu_min_batch: 64,
                gpu_max_batch: 1024,
                ..AdaptiveParams::default()
            },
            time_budget: budget,
            rayon_threads: 0,
            eval_interval: budget / 12.0,
            eval_subsample: 1024,
            ..TrainConfig::default()
        };
        let engine = SimEngine::new(SimEngineConfig::paper_hardware(spec.clone(), train)).unwrap();
        let r = engine.run(&dataset, &Observers::default());
        println!(
            "{:22}  epochs {:8.2}  final loss {:.5}  min loss {:.5}",
            r.algorithm,
            r.epochs,
            r.final_loss(),
            r.min_loss()
        );
        results.push(r);
    }

    // Normalize to the best observed loss (the paper's methodology).
    let basis = results
        .iter()
        .map(|r| r.min_loss())
        .fold(f32::INFINITY, f32::min);
    println!("\nnormalized final loss (basis = best min loss {basis:.5}):");
    for r in &results {
        let time_to = r
            .time_to_loss(basis * 1.1)
            .map(|t| format!("{t:.3}s"))
            .unwrap_or_else(|| "never".into());
        println!(
            "{:22}  final/basis {:6.3}  reaches 1.1×basis at {}",
            r.algorithm,
            r.final_loss() / basis,
            time_to
        );
    }
}
