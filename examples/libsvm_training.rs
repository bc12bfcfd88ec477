//! End-to-end LIBSVM workflow: write a LIBSVM file, parse it back,
//! densify, and train — the path you would use with the paper's real
//! datasets (covtype/w8a/delicious/real-sim from the LIBSVM repository).
//!
//! ```text
//! cargo run --release --example libsvm_training [path/to/file.libsvm]
//! ```
//! Without an argument a synthetic file is generated under the system
//! temp directory first, so the example is self-contained.

use hetero_sgd::data::libsvm;
use hetero_sgd::prelude::*;

fn main() {
    let path = match std::env::args().nth(1) {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            // Self-contained mode: synthesize w8a-shaped data and write it
            // in LIBSVM format.
            let dir = std::env::temp_dir().join("hetero-sgd-example");
            std::fs::create_dir_all(&dir).expect("temp dir");
            let path = dir.join("w8a-stand-in.libsvm");
            let dataset = PaperDataset::W8a.generate(0.01, 7);
            let mut file = std::fs::File::create(&path).expect("create file");
            libsvm::write(&dataset, &mut file).expect("write libsvm");
            println!("generated {} ({} examples)", path.display(), dataset.len());
            path
        }
    };

    // Parse + densify.
    let examples = libsvm::parse_file(&path).unwrap_or_else(|e| {
        eprintln!("parse failed: {e}");
        std::process::exit(1);
    });
    let mut dataset = libsvm::densify("libsvm-input", &examples, false, 0);
    dataset.standardize();
    dataset.shuffle(13);
    let (train_set, test_set) = dataset.split(0.2);
    println!(
        "parsed {} examples × {} features, {} classes ({} train / {} test)",
        dataset.len(),
        dataset.features(),
        dataset.num_classes(),
        train_set.len(),
        test_set.len()
    );

    // Train with CPU+GPU Hogbatch on the simulated paper hardware.
    let spec = MlpSpec {
        input_dim: train_set.features(),
        hidden: vec![64, 64],
        classes: train_set.num_classes().max(2),
        activation: Activation::Sigmoid,
        loss: LossKind::SoftmaxCrossEntropy,
    };
    let train = TrainConfig {
        algorithm: AlgorithmKind::CpuGpuHogbatch,
        lr: 0.01,
        lr_scaling: LrScaling::Sqrt {
            ref_batch: 1,
            max_lr: 0.5,
        },
        gpu_batch: 256,
        time_budget: 0.2,
        rayon_threads: 0,
        eval_interval: 0.02,
        eval_subsample: 1024,
        ..TrainConfig::default()
    };
    let engine = SimEngine::new(SimEngineConfig::paper_hardware(spec.clone(), train)).unwrap();
    let result = engine.run(&train_set, &Observers::default());
    println!(
        "training loss {:.4} -> {:.4} in {:.2} epochs",
        result.initial_loss(),
        result.final_loss(),
        result.epochs
    );

    // Held-out evaluation with a freshly trained model (the DES engine
    // reports loss; for accuracy we retrain a quick host-side model).
    let mut model = Model::new(spec, InitScheme::Xavier, 1);
    for _ in 0..40 {
        let (x, labels) = train_set.batch(0, train_set.len().min(512));
        let (_, g) = hetero_sgd::nn::loss_and_gradient(&model, &x, labels.as_targets(), true);
        model.apply_gradient(&g, 0.5);
    }
    let (tx, tl) = test_set.batch(0, test_set.len());
    let probs = hetero_sgd::nn::predict_probs(&model, &tx, true);
    let acc = hetero_sgd::nn::accuracy(&probs, tl.as_targets());
    println!(
        "held-out accuracy of a 40-step reference model: {:.1}%",
        acc * 100.0
    );
}
