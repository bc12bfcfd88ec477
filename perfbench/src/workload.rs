//! The fixed-work training workloads, one closed-loop training run
//! ("rep") of each, and the checks every rep must pass.
//!
//! Closed loop: the engines hand a worker its next batch only after it
//! reported the last one, so a slower system receives less load. Every rep
//! stops after a fixed number of epochs; the engine's time budget is only a
//! safety cap, and a rep that hits it fails the examples check.

use std::sync::Arc;
use std::time::Instant;

use hetero_bench::Harness;
use hetero_core::{
    AlgorithmKind, FaultPlan, LrScaling, SimEngine, SimEngineConfig, ThreadedEngine,
    ThreadedEngineConfig, TrainConfig, TrainResult,
};
use hetero_data::{DenseDataset, PaperDataset};
use hetero_metrics::MetricsHub;
use hetero_nn::{Activation, LossKind, MlpSpec};
use hetero_sim::GpuModel;
use hetero_trace::TraceSink;

use crate::report::median;

/// Seed of the engines' model initialisation and eval subsample, and of
/// each workload's data distribution (class centres). Fixed: the
/// benchmark's `--seed` draws only the order the examples arrive in, so
/// invocations with different seeds train on the same examples and their
/// spread measures the system, not how separable one random draw of class
/// centres happened to be.
pub const TRAIN_SEED: u64 = 42;

/// Wall-clock safety cap of a threaded rep (seconds). Reps take a few
/// seconds; one that reaches the cap stopped short of its epochs and fails.
pub const THREADED_CAP_SECS: f64 = 60.0;

/// Real-sim's full feature width (Table II). The workload keeps it, rather
/// than the sqrt-shrunk width of a scaled preset, so the layer-0 weights
/// (20,958 × 64 × 4 B ≈ 5.4 MB) overflow a 2 MiB L2 the way the real model
/// does, while the covtype model (~340 KB) fits.
pub const REALSIM_FEATURES: usize = 20_958;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// CPU+GPU Hogbatch on the sparse fast path, real-sim shape.
    SparseRealsim,
    /// Adaptive Hogbatch on the virtual-clock simulator, paper hardware.
    SimAdaptive,
}

/// Which engine a workload runs on.
#[derive(Debug, Clone)]
pub enum EngineConfig {
    /// Real threads, wall clock.
    Threaded(ThreadedEngineConfig),
    /// Discrete-event simulation, virtual clock.
    Sim(SimEngineConfig),
}

impl EngineConfig {
    /// The training configuration, whichever engine it belongs to.
    pub fn train(&self) -> &TrainConfig {
        match self {
            EngineConfig::Threaded(c) => &c.train,
            EngineConfig::Sim(c) => &c.train,
        }
    }

    /// The network, whichever engine it belongs to.
    pub fn spec(&self) -> &MlpSpec {
        match self {
            EngineConfig::Threaded(c) => &c.spec,
            EngineConfig::Sim(c) => &c.spec,
        }
    }

    /// Hogwild lanes of the CPU worker (0 when the algorithm has none).
    pub fn lanes(&self) -> usize {
        let uses_cpu = self.train().algorithm.uses_cpu();
        match self {
            EngineConfig::Threaded(c) if uses_cpu => c.cpu_threads,
            EngineConfig::Sim(c) if uses_cpu => c.cpu.threads,
            _ => 0,
        }
    }

    /// GPU workers (0 when the algorithm has none).
    pub fn gpu_workers(&self) -> usize {
        if !self.train().algorithm.uses_gpu() {
            return 0;
        }
        match self {
            EngineConfig::Threaded(c) => c.gpu_workers,
            EngineConfig::Sim(c) => c.gpus.len(),
        }
    }
}

/// Generated data plus the engine configuration that trains on it.
pub struct Inputs {
    /// Training data, a pure function of the workload, `--seed` and the
    /// run's index.
    pub dataset: Arc<DenseDataset>,
    /// Engine, network and training settings.
    pub engine: EngineConfig,
}

impl Inputs {
    /// The epoch cap every benchmark workload sets.
    pub fn epochs(&self) -> usize {
        self.engine
            .train()
            .max_epochs
            .expect("benchmark workloads are epoch-capped")
    }
}

/// The paper settings of the repository's experiment harness, with the
/// benchmark's fixed training seed.
fn harness(scale: f64) -> Harness {
    Harness {
        scale,
        width: 192,
        budget: 0.2,
        depth_factor: 0.5,
        seed: TRAIN_SEED,
    }
}

/// Threaded-engine settings shared by the threaded workloads: the
/// GEMM pools are pinned to one thread so Hogwild lanes plus GPU workers
/// stay within two busy threads, and the run is epoch-capped.
fn threaded(
    spec: MlpSpec,
    mut train: TrainConfig,
    epochs: usize,
    lanes: usize,
    gpu_workers: usize,
) -> EngineConfig {
    train.max_epochs = Some(epochs);
    train.time_budget = THREADED_CAP_SECS;
    train.eval_interval = 0.5;
    train.rayon_threads = 1;
    EngineConfig::Threaded(ThreadedEngineConfig {
        spec,
        train,
        cpu_threads: lanes,
        gpu_perf: GpuModel::v100(),
        gpu_workers,
        fault_plan: FaultPlan::none(),
    })
}

/// Covtype-shaped data at `scale` of Table II in the order `seed` draws,
/// with the harness's network and its paper settings for `algo`.
fn covtype(scale: f64, seed: u64, algo: AlgorithmKind) -> (DenseDataset, MlpSpec, TrainConfig) {
    let which = PaperDataset::Covtype;
    let h = harness(scale);
    let mut data = which.generate(h.scale, TRAIN_SEED);
    data.shuffle(seed);
    let spec = h.network(which, &data);
    let train = h.train_config(algo, &data);
    (data, spec, train)
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::SparseRealsim, Workload::SimAdaptive];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SparseRealsim => "sparse-realsim",
            Workload::SimAdaptive => "sim-adaptive",
        }
    }

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seed of the example order of run `run` (counted from 0) of an
    /// invocation with `--seed seed`. Each threaded run draws its own
    /// order, so the medians over an invocation's runs average over orders:
    /// after the few epochs a run affords, asynchronous SGD still remembers
    /// the order it saw, so one order alone would bias the loss level.
    /// Simulator runs all share one order, since the simulator must
    /// repeat a run bit for bit.
    fn order_seed(self, seed: u64, run: usize) -> u64 {
        match self {
            Workload::SimAdaptive => seed,
            _ => seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(run as u64),
        }
    }

    /// Generate the data of run `run` of this workload, in the example
    /// order `seed` draws for it, and configure its engine.
    pub fn inputs(self, seed: u64, run: usize) -> Inputs {
        let seed = self.order_seed(seed, run);
        match self {
            Workload::SparseRealsim => {
                let which = PaperDataset::RealSim;
                let mut synth = which.synth_config(0.05, TRAIN_SEED);
                synth.features = REALSIM_FEATURES;
                let mut data = synth.generate();
                data.scale_to_unit_variance();
                data.shuffle(seed);
                data.name = which.stats().name.to_string();
                let spec = MlpSpec {
                    input_dim: data.features(),
                    hidden: vec![64],
                    classes: data.num_classes(),
                    activation: Activation::Sigmoid,
                    loss: LossKind::SoftmaxCrossEntropy,
                };
                let mut train = harness(0.05).train_config(AlgorithmKind::CpuGpuHogbatch, &data);
                train.sparse_input = true;
                // Inherited from the sparse leg of `bench_train`: 2048
                // examples per CPU thread amortise the per-step snapshot and
                // dispatch, and the LR ceiling of 0.05 keeps the run stable.
                train.cpu_batch_per_thread = 2048;
                if let LrScaling::Sqrt { max_lr, .. } = &mut train.lr_scaling {
                    *max_lr = 0.05;
                }
                train.gpu_batch = 4096;
                train.adaptive.gpu_max_batch = 4096;
                train.adaptive.gpu_min_batch = train.adaptive.gpu_min_batch.min(256);
                Inputs {
                    dataset: Arc::new(data),
                    engine: threaded(spec, train, 40, 1, 1),
                }
            }
            Workload::SimAdaptive => {
                let (data, spec, mut train) = covtype(0.005, seed, AlgorithmKind::AdaptiveHogbatch);
                // The harness's 0.2 virtual seconds stay the cap; 60 epochs
                // end near 0.1 s.
                train.max_epochs = Some(60);
                // Every run of an invocation repeats one example order, so
                // the eval subsample would pick the same rows in each and
                // its few-percent sampling error would not average out:
                // evaluate on every example instead (the sim pays for it in
                // wall time only).
                train.eval_subsample = data.len();
                Inputs {
                    dataset: Arc::new(data),
                    engine: EngineConfig::Sim(SimEngineConfig::paper_hardware(spec, train)),
                }
            }
        }
    }

    /// Untraced run `run`: generate the data, build the engine, train.
    pub fn rep(self, seed: u64, run: usize) -> Rep {
        let start = Instant::now();
        let inputs = self.inputs(seed, run);
        self::run(
            start,
            &inputs,
            &TraceSink::disabled(),
            &MetricsHub::disabled(),
        )
    }
}

/// Outcome of one training run.
pub struct Rep {
    /// The engine configuration the run used.
    pub engine: EngineConfig,
    /// What the engine returned.
    pub result: TrainResult,
    /// Seconds from workload start to the engine's clock start: data
    /// generation, engine construction, and pre-clock CSR compression.
    pub setup_s: f64,
    /// Wall seconds the training itself took — the threaded engine's
    /// `TrainResult::duration`, or the wall time of the sim's `run` call
    /// (the sim's own duration is virtual).
    pub clock_s: f64,
    /// Examples a complete run processes: epochs × dataset size.
    pub expected_examples: u64,
    /// Eval losses over the second half of training (see [`late_losses`]).
    pub late_losses: Vec<f64>,
    /// `Err(reason)` when the run failed one of the output checks.
    pub verdict: Result<(), String>,
}

impl Rep {
    /// Examples the workers completed.
    pub fn examples(&self) -> u64 {
        self.result.workers.iter().map(|w| w.examples).sum()
    }

    /// Examples completed per wall second of training.
    pub fn examples_per_s(&self) -> f64 {
        self.examples() as f64 / self.clock_s
    }

    /// The loss level the run ended at: the median of [`Rep::late_losses`].
    pub fn final_loss(&self) -> f64 {
        median(&self.late_losses)
    }
}

/// Train `inputs` and check the run; `start` is when the workload began
/// (before data generation), so set-up time covers it.
pub fn run(start: Instant, inputs: &Inputs, sink: &TraceSink, hub: &MetricsHub) -> Rep {
    let epochs = inputs.epochs();
    let expected_examples = (epochs * inputs.dataset.len()) as u64;
    let (result, setup_s, clock_s) = match &inputs.engine {
        EngineConfig::Threaded(cfg) => {
            let engine = ThreadedEngine::new(cfg.clone()).expect("valid threaded workload");
            let result = engine.run_observed(Arc::clone(&inputs.dataset), sink, hub);
            let setup_s = start.elapsed().as_secs_f64() - result.duration;
            let clock_s = result.duration;
            (result, setup_s, clock_s)
        }
        EngineConfig::Sim(cfg) => {
            let engine = SimEngine::new(cfg.clone()).expect("valid sim workload");
            let setup_s = start.elapsed().as_secs_f64();
            let t = Instant::now();
            let result = engine.run_observed(&inputs.dataset, sink, hub);
            (result, setup_s, t.elapsed().as_secs_f64())
        }
    };
    let late_losses = late_losses(&result, epochs);
    let verdict = check(&result, expected_examples, median(&late_losses));
    Rep {
        engine: inputs.engine.clone(),
        result,
        setup_s,
        clock_s,
        expected_examples,
        late_losses,
        verdict,
    }
}

/// The eval losses over the second half of a run's epochs, the last eval
/// included. SGD swings the loss from update to update, so the level a
/// run ended at is the median of these, not the last eval alone.
/// Evals of the finished model after the last epoch (the sim keeps
/// evaluating until its budget) count once.
pub fn late_losses(r: &TrainResult, epochs: usize) -> Vec<f64> {
    let e = epochs as f64;
    let mut losses: Vec<f64> = r
        .loss_curve
        .iter()
        .filter(|p| p.epochs >= e / 2.0 && p.epochs < e)
        .map(|p| f64::from(p.loss))
        .collect();
    losses.push(f64::from(r.final_loss()));
    losses
}

/// The output checks of one run. A run fails when it aborted, retired a
/// worker, left requeued work unfinished, processed anything other than
/// exactly `expected_examples` (e.g. it hit the time cap), logged a
/// non-finite loss, or its `final_loss` is not below its initial loss.
pub fn check(r: &TrainResult, expected_examples: u64, final_loss: f64) -> Result<(), String> {
    if let Some(why) = &r.aborted {
        return Err(format!("aborted: {why}"));
    }
    if let Some((w, why)) = r
        .workers
        .iter()
        .enumerate()
        .find_map(|(w, s)| s.retired.as_ref().map(|why| (w, why)))
    {
        return Err(format!("worker {w} retired: {why}"));
    }
    let examples: u64 = r.workers.iter().map(|w| w.examples).sum();
    if examples != expected_examples {
        if r.requeued_batches > 0 {
            return Err(format!(
                "left requeued work unfinished: {examples} of {expected_examples} examples \
                 after {} requeues",
                r.requeued_batches
            ));
        }
        return Err(format!(
            "processed {examples} examples, expected {expected_examples} (time cap?)"
        ));
    }
    if let Some(p) = r.loss_curve.iter().find(|p| !p.loss.is_finite()) {
        return Err(format!("non-finite loss {} at t={}", p.loss, p.time));
    }
    if final_loss >= f64::from(r.initial_loss()) {
        return Err(format!(
            "final loss {final_loss} not below initial loss {}",
            r.initial_loss()
        ));
    }
    Ok(())
}

/// Same-seed sim runs must give bit-identical loss curves.
pub fn check_identical(a: &TrainResult, b: &TrainResult) -> Result<(), String> {
    let bits = |r: &TrainResult| -> Vec<(u64, u64, u32)> {
        r.loss_curve
            .iter()
            .map(|p| (p.time.to_bits(), p.epochs.to_bits(), p.loss.to_bits()))
            .collect()
    };
    if bits(a) == bits(b) {
        Ok(())
    } else {
        Err(format!(
            "loss curves differ: {} points ending at {} vs {} points ending at {}",
            a.loss_curve.len(),
            a.final_loss(),
            b.loss_curve.len(),
            b.final_loss()
        ))
    }
}
