//! Beyond-paper experiments enabled by the testbed:
//!
//! 1. **Omnivore-static vs Adaptive** (§II) — static speed-proportional
//!    batches against runtime adaptation;
//! 2. **Hybrid SVRG vs CPU+GPU Hogbatch** (§II's "compass" intuition made
//!    literal: GPU anchors + CPU corrected steps);
//! 3. **staleness compensation κ sweep** (§VI-B's stale-gradient remark);
//! 4. **multi-GPU scaling** (the paper's future work) — 1/2/4 simulated
//!    V100s under CPU+GPU Hogbatch.
//!
//! Output: CSV blocks on stdout, summary on stderr.

use hetero_bench::Harness;
use hetero_core::{
    AlgorithmKind, NetworkModel, Observers, PsEngine, PsEngineConfig, SimEngine, SimEngineConfig,
};
use hetero_data::PaperDataset;
use hetero_sim::{CpuModel, GpuModel};

fn main() {
    let h = Harness::default();
    let p = PaperDataset::Covtype;
    let dataset = h.dataset(p);
    let spec = h.network(p, &dataset);
    eprintln!(
        "extensions on covtype: scale={} width={} budget={}s",
        h.scale, h.width, h.budget
    );

    // --- 1 & 2: algorithm face-offs -------------------------------------------
    println!("# extended algorithm comparison");
    println!("algorithm,final_loss,min_loss,epochs,cpu_fraction");
    let mut results = Vec::new();
    for algo in [
        AlgorithmKind::CpuGpuHogbatch,
        AlgorithmKind::StaticProportional,
        AlgorithmKind::AdaptiveHogbatch,
        AlgorithmKind::HybridSvrg,
    ] {
        let train = h.train_config(algo, &dataset);
        let r = SimEngine::new(SimEngineConfig::paper_hardware(spec.clone(), train))
            .unwrap()
            .run(&dataset, &Observers::default());
        println!(
            "{},{:.5},{:.5},{:.3},{:.4}",
            r.algorithm,
            r.final_loss(),
            r.min_loss(),
            r.epochs,
            r.cpu_update_fraction()
        );
        eprintln!(
            "{:24} final {:.5} | min {:.5} | {:7.2} epochs | CPU share {:4.1}%",
            r.algorithm,
            r.final_loss(),
            r.min_loss(),
            r.epochs,
            100.0 * r.cpu_update_fraction()
        );
        results.push(r);
    }

    // --- 3: staleness-compensation sweep ---------------------------------------
    println!("# staleness compensation sweep (CPU+GPU Hogbatch)");
    println!("kappa,final_loss,min_loss");
    for kappa in [0.0f32, 0.001, 0.01, 0.1] {
        let mut train = h.train_config(AlgorithmKind::CpuGpuHogbatch, &dataset);
        train.staleness_discount = kappa;
        let r = SimEngine::new(SimEngineConfig::paper_hardware(spec.clone(), train))
            .unwrap()
            .run(&dataset, &Observers::default());
        println!("{kappa},{:.5},{:.5}", r.final_loss(), r.min_loss());
        eprintln!(
            "kappa {kappa:6}: final {:.5} (min {:.5})",
            r.final_loss(),
            r.min_loss()
        );
    }

    // --- 3b: distributed parameter server vs centralized shared memory ---------
    // §II: statically partitioned data + per-worker learning rates + network
    // round trips per batch. Same devices as the centralized run.
    println!("# parameter server vs shared memory (CPU+GPU)");
    println!("architecture,epochs,final_loss");
    {
        let shared = {
            let train = h.train_config(AlgorithmKind::CpuGpuHogbatch, &dataset);
            SimEngine::new(SimEngineConfig::paper_hardware(spec.clone(), train))
                .unwrap()
                .run(&dataset, &Observers::default())
        };
        let ps = {
            let train = h.train_config(AlgorithmKind::CpuGpuHogbatch, &dataset);
            let batch = train.gpu_batch.min(dataset.len() / 2).max(1);
            PsEngine::new(PsEngineConfig {
                spec: spec.clone(),
                train,
                cpu_workers: vec![CpuModel::xeon_pair()],
                gpu_workers: vec![GpuModel::v100()],
                batch,
                network: NetworkModel::ten_gbe(),
                lr_compensation: 1.0,
            })
            .unwrap()
            .run(&dataset, &Observers::default())
        };
        for r in [&shared, &ps] {
            println!("{},{:.3},{:.5}", r.algorithm, r.epochs, r.final_loss());
            eprintln!(
                "{:24} {:8.2} epochs | final loss {:.5}",
                r.algorithm,
                r.epochs,
                r.final_loss()
            );
        }
    }

    // --- 4: multi-GPU scaling ----------------------------------------------------
    println!("# multi-GPU scaling (CPU+GPU Hogbatch)");
    println!("gpus,epochs,final_loss,total_updates");
    for n_gpus in [1usize, 2, 4] {
        let train = h.train_config(AlgorithmKind::CpuGpuHogbatch, &dataset);
        let mut cfg = SimEngineConfig::paper_hardware(spec.clone(), train);
        let g = cfg.gpus[0].clone();
        cfg.gpus = (0..n_gpus).map(|_| g.clone()).collect();
        let r = SimEngine::new(cfg)
            .unwrap()
            .run(&dataset, &Observers::default());
        println!(
            "{n_gpus},{:.3},{:.5},{:.0}",
            r.epochs,
            r.final_loss(),
            r.total_updates()
        );
        eprintln!(
            "{n_gpus} GPU(s): {:7.2} epochs | final {:.5} | {:.0} updates",
            r.epochs,
            r.final_loss(),
            r.total_updates()
        );
    }
}
