//! Quickstart: train a paper-style MLP with Adaptive Hogbatch on the
//! simulated CPU+GPU machine and watch the loss fall.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hetero_sgd::prelude::*;

fn main() {
    // 1. Data: a scaled-down covtype stand-in (Table II shape, ~1.2k rows).
    let dataset = PaperDataset::Covtype.generate(0.002, 42);
    println!(
        "dataset {:10}  examples={}  features={}  classes={}",
        dataset.name,
        dataset.len(),
        dataset.features(),
        dataset.num_classes()
    );

    // 2. Network: fully-connected sigmoid MLP (small variant of §VII-A).
    let spec = MlpSpec {
        input_dim: dataset.features(),
        hidden: vec![64, 64],
        classes: dataset.num_classes(),
        activation: Activation::Sigmoid,
        loss: LossKind::SoftmaxCrossEntropy,
    };
    println!(
        "network  layers={}  params={}  flops/example={}",
        spec.num_layers(),
        spec.num_params(),
        spec.train_flops_per_example()
    );

    // 3. Train with Adaptive Hogbatch (Algorithm 2) on the paper's
    //    hardware models: 2×Xeon + V100, virtual time.
    let train = TrainConfig {
        algorithm: AlgorithmKind::AdaptiveHogbatch,
        lr: 0.01,
        lr_scaling: LrScaling::Sqrt {
            ref_batch: 1,
            max_lr: 0.5,
        },
        time_budget: 0.25, // virtual seconds — several epochs on this scale
        rayon_threads: 0,
        eval_interval: 0.025,
        eval_subsample: 1024,
        adaptive: AdaptiveParams {
            gpu_min_batch: 64,
            gpu_max_batch: 1024,
            ..AdaptiveParams::default()
        },
        ..TrainConfig::default()
    };
    let engine = SimEngine::new(SimEngineConfig::paper_hardware(spec, train)).unwrap();
    let result = engine.run(&dataset, &Observers::default());

    // 4. Report.
    println!("\n  time(s)   epochs     loss");
    for p in &result.loss_curve {
        println!("  {:7.3}  {:7.2}  {:8.5}", p.time, p.epochs, p.loss);
    }
    println!(
        "\nloss {:.4} -> {:.4} over {:.1} epochs",
        result.initial_loss(),
        result.final_loss(),
        result.epochs
    );
    for w in result.workers.iter().filter(|w| w.batches > 0) {
        println!(
            "{:?} worker: {} batches, {:.0} updates, final batch {}",
            w.kind, w.batches, w.updates, w.final_batch
        );
    }
    println!(
        "CPU share of model updates: {:.1}% (Adaptive balances this, Fig. 8)",
        100.0 * result.cpu_update_fraction()
    );
    assert!(result.final_loss() < result.initial_loss());
}
